//! Figure 8 live: install a deliberately *bad* co-allocation decision
//! mid-run (one cache line of padding between parent and child) and
//! watch the feedback loop detect the regression and revert it.
//!
//! ```text
//! cargo run --release --example feedback_revert
//! ```

use hpmopt::core::feedback::FeedbackConfig;
use hpmopt::core::policy::DecisionKind;
use hpmopt::core::runtime::{ForcedBadPlacement, HpmRuntime, RunConfig};
use hpmopt::gc::{CollectorKind, HeapConfig};
use hpmopt::hpm::{HpmConfig, SamplingInterval};
use hpmopt::vm::VmConfig;
use hpmopt::workloads::{self, Size};

fn main() {
    let w = workloads::by_name("db", Size::Small).unwrap();
    let vm = VmConfig {
        heap: HeapConfig {
            heap_bytes: w.min_heap_bytes * 4,
            nursery_bytes: 256 * 1024,
            los_bytes: 64 * 1024 * 1024,
            collector: CollectorKind::GenMs,
            ..Default::default()
        },
        ..VmConfig::default()
    };
    let config = RunConfig {
        vm,
        hpm: HpmConfig {
            interval: SamplingInterval::Fixed(512),
            buffer_capacity: 256,
            cpu_hz: 100_000_000,
            ..HpmConfig::default()
        },
        coalloc: true,
        watch_fields: vec![("String".into(), "value".into())],
        forced_bad: Some(ForcedBadPlacement {
            class: "String".into(),
            field: "value".into(),
            gap_bytes: 128,
            at_cycles: 60_000_000,
        }),
        feedback: FeedbackConfig {
            tolerance: 1.3,
            revert_after_periods: 3,
            min_period_misses: 4,
        },
        ..RunConfig::default()
    };

    let report = HpmRuntime::new(config)
        .run(&w.program)
        .expect("db completes");

    println!("policy timeline:");
    for e in &report.policy_events {
        let what = match e.kind {
            DecisionKind::Enabled => "co-allocation enabled (miss-driven)".to_string(),
            DecisionKind::Pinned => format!(
                "BAD placement pinned ({}-byte gap between parent and child)",
                e.gap_bytes
            ),
            DecisionKind::Reverted => "feedback detected the regression and reverted".to_string(),
            DecisionKind::WarmStarted => "co-allocation seeded from a saved profile".to_string(),
        };
        println!("  {:>7.1}M cycles  {what}", e.cycles as f64 / 1e6);
    }

    println!("\nString::value miss curve (cumulative sampled misses per period):");
    if let Some((_, series)) = report.series.first() {
        let mut prev = 0;
        for p in series {
            let delta = p.total - prev;
            prev = p.total;
            println!(
                "  {:>7.1}M cycles  +{delta:<6} {}",
                p.cycles as f64 / 1e6,
                "#".repeat((delta as usize / 8).min(60))
            );
        }
    }

    assert!(
        report.revert_count() > 0,
        "the feedback loop must revert the bad placement"
    );
    println!("\nthe miss rate rises after the pin and returns after the revert (Figure 8).");
}
