//! End-to-end observability invariants across the full pipeline:
//!
//! 1. Decision provenance explains real decisions — including a
//!    feedback-driven revert — with the complete sample → MC-map →
//!    counter → threshold → action chain.
//! 2. Telemetry with every hook enabled (provenance, histograms,
//!    spans) perturbs the simulated clock by exactly 0%.
//! 3. The Prometheus exposition is byte-identical across two runs of
//!    the same configuration.
//! 4. The JSON, text, and Prometheus exports are byte-stable against
//!    committed golden files (regenerate deliberately with
//!    `UPDATE_GOLDEN=1 cargo test --test observability`).
//! 5. What the runtime exports from three real `db` runs (decisions,
//!    trace, metrics, the compile-cost and GC pause histograms, fresh
//!    profiles) folds to a pinned digest.

use std::collections::BTreeSet;

use hpmopt::bytecode::MethodId;
use hpmopt::core::feedback::FeedbackConfig;
use hpmopt::core::runtime::{ForcedBadPlacement, HpmRuntime, RunConfig, RunReport};
use hpmopt::core::ProfileOptions;
use hpmopt::gc::{CollectorKind, HeapConfig};
use hpmopt::hpm::{HpmConfig, SamplingInterval};
use hpmopt::profile::Profile;
use hpmopt::telemetry::{
    prom, HistogramId, MetricId, SampleWitness, Telemetry, TraceKind, DEFAULT_TRACE_CAPACITY,
};
use hpmopt::vm::{CompilationPlan, VmConfig};
use hpmopt::workloads::{self, Size, Workload};
use hpmopt_prim::Fnv1a;

/// The Figure 8 sabotage configuration on `db` (tiny): a deliberately
/// bad placement pinned mid-run, with a feedback loop tight enough to
/// catch and revert it. Every provenance action — enabled, pinned,
/// reverted — occurs in one run.
fn forced_bad_config(w: &Workload, telemetry: Telemetry) -> RunConfig {
    let mut vm = VmConfig {
        heap: HeapConfig {
            heap_bytes: w.min_heap_bytes * 4,
            nursery_bytes: 256 * 1024,
            los_bytes: 64 * 1024 * 1024,
            collector: CollectorKind::GenMs,
            ..Default::default()
        },
        ..VmConfig::default()
    };
    vm.plan = Some(CompilationPlan::new(
        (0..w.program.methods().len() as u32)
            .map(MethodId)
            .collect(),
    ));
    vm.jit.tier1_enabled = false;
    RunConfig {
        vm,
        hpm: HpmConfig {
            interval: SamplingInterval::Fixed(256),
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
            at_cycles: 6_000_000,
        }),
        feedback: FeedbackConfig {
            tolerance: 1.25,
            revert_after_periods: 2,
            min_period_misses: 25,
        },
        telemetry,
        ..RunConfig::default()
    }
}

fn run_forced_bad(telemetry: Telemetry) -> (Workload, RunReport) {
    let w = workloads::by_name("db", Size::Tiny).unwrap();
    let report = HpmRuntime::new(forced_bad_config(&w, telemetry))
        .run(&w.program)
        .unwrap();
    (w, report)
}

#[test]
fn provenance_explains_the_decision_and_the_feedback_revert() {
    let telemetry = Telemetry::enabled(DEFAULT_TRACE_CAPACITY);
    let (w, report) = run_forced_bad(telemetry.clone());
    let snap = telemetry.snapshot(report.cycles);
    assert_eq!(snap.decisions_dropped, 0);

    let class = w.program.class_by_name("String").unwrap();
    let field = w.program.field_by_name(class, "value").unwrap();

    // The enabled decision carries the full causal chain: witnessed
    // samples whose PCs resolved through the MC maps, and a miss
    // counter that crossed the policy threshold.
    let enabled = snap
        .decisions
        .iter()
        .find(|d| d.action == "enabled" && d.class == class.0)
        .expect("an enabled decision for String is retained");
    assert_eq!(enabled.field, field.0);
    assert!(
        enabled.field_misses >= enabled.threshold,
        "decision fired below threshold: {} < {}",
        enabled.field_misses,
        enabled.threshold
    );
    assert!(!enabled.witnesses.is_empty(), "witness samples retained");
    for wit in &enabled.witnesses {
        assert!((wit.method as usize) < w.program.methods().len());
        assert!(wit.cycle <= enabled.cycle, "evidence precedes the action");
        assert!(wit.pc != 0, "sampled PCs are real machine addresses");
    }

    // The sabotage pin, then the feedback-driven revert with evidence.
    let pinned = snap
        .decisions
        .iter()
        .find(|d| d.action == "pinned" && d.class == class.0)
        .expect("the forced-bad pin is retained");
    assert_eq!(pinned.gap_bytes, 128);
    let reverted = snap
        .decisions
        .iter()
        .find(|d| d.action == "reverted" && d.class == class.0)
        .expect("the feedback revert is retained");
    assert!(reverted.cycle > pinned.cycle, "revert follows the pin");
    let chain = reverted.feedback.expect("reverts carry feedback evidence");
    assert!(
        chain.observed_rate > chain.baseline_rate * chain.tolerance,
        "the observed rate must actually breach the tolerance band: \
         {} vs {} x{}",
        chain.observed_rate,
        chain.baseline_rate,
        chain.tolerance
    );
    assert_eq!(chain.regressing_periods, 2, "revert_after_periods = 2");
}

#[test]
fn fully_instrumented_telemetry_perturbs_nothing() {
    let (_, control) = run_forced_bad(Telemetry::disabled());
    let telemetry = Telemetry::enabled(DEFAULT_TRACE_CAPACITY);
    let (_, enabled) = run_forced_bad(telemetry.clone());

    assert_eq!(
        enabled.cycles, control.cycles,
        "telemetry must observe the clock, never advance it"
    );
    assert_eq!(enabled.result_digest, control.result_digest);

    // The instrumentation genuinely ran: histograms, spans, and
    // provenance all carry data in the enabled arm.
    let snap = telemetry.snapshot(enabled.cycles);
    assert!(!snap.decisions.is_empty());
    assert!(snap.hist(HistogramId::HpmPollBatchSamples).count() > 0);
    assert!(snap.hist(HistogramId::CorePollGapCycles).count() > 0);
    assert!(snap.hist(HistogramId::GcMinorPauseCycles).count() > 0);
}

#[test]
fn prom_and_json_exports_are_identical_across_identical_runs() {
    let render = || {
        let telemetry = Telemetry::enabled(DEFAULT_TRACE_CAPACITY);
        let (_, report) = run_forced_bad(telemetry.clone());
        let snap = telemetry.snapshot(report.cycles);
        let mut json = hpmopt::telemetry::json::JsonWriter::new();
        snap.write_json(&mut json);
        (
            prom::render(&snap, &[("workload", "db"), ("size", "tiny")]),
            json.finish(),
        )
    };
    let (prom_a, json_a) = render();
    let (prom_b, json_b) = render();
    assert_eq!(prom_a, prom_b, "prometheus exposition is deterministic");
    assert_eq!(json_a, json_b, "json export is deterministic");
}

/// A synthetic snapshot with every export surface populated: metrics,
/// trace events, histograms, and provenance (with witnesses and
/// feedback). Everything fixed by hand, so the exports are stable
/// bytes unless the format itself changes.
fn golden_snapshot() -> hpmopt::telemetry::TelemetrySnapshot {
    let t = Telemetry::enabled(8);
    t.add(MetricId::HpmEvents, 1_000);
    t.incr(MetricId::CorePolicyEnabled);
    t.incr(MetricId::CorePolicyReverted);
    t.set_gauge(MetricId::HpmSamplingInterval, 512);
    t.record(
        1_000,
        TraceKind::PollCompleted {
            samples: 7,
            attributed: 6,
        },
    );
    t.record(
        2_000,
        TraceKind::CoallocDecision {
            class: 1,
            field: 3,
            action: "enabled",
        },
    );
    for v in [1, 2, 2, 900] {
        t.observe(HistogramId::GcMinorPauseCycles, v);
    }
    t.span_at(HistogramId::CorePollGapCycles, 100).end(612);
    t.witness_sample(
        3,
        SampleWitness {
            pc: 0x4000_0604,
            method: 2,
            bytecode_index: 25,
            cycle: 900,
        },
    );
    t.record_decision(hpmopt::telemetry::DecisionRecord {
        cycle: 2_000,
        class: 1,
        field: 3,
        action: "enabled",
        field_misses: 6,
        threshold: 4,
        gap_bytes: 0,
        witnesses: Vec::new(),
        feedback: None,
    });
    t.record_decision(hpmopt::telemetry::DecisionRecord {
        cycle: 5_000,
        class: 1,
        field: u32::MAX,
        action: "reverted",
        field_misses: 0,
        threshold: 4,
        gap_bytes: 0,
        witnesses: Vec::new(),
        feedback: Some(hpmopt::telemetry::FeedbackChain {
            baseline_rate: 2.0,
            observed_rate: 5.75,
            tolerance: 1.25,
            regressing_periods: 2,
        }),
    });
    t.snapshot(10_000)
}

fn check_golden(name: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path}: {e}"));
    assert_eq!(
        rendered, committed,
        "{name} drifted from the committed golden bytes; if the format \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn exports_are_byte_stable_against_committed_goldens() {
    let snap = golden_snapshot();
    let mut w = hpmopt::telemetry::json::JsonWriter::new();
    snap.write_json(&mut w);
    check_golden("telemetry_snapshot.json", &w.finish());
    check_golden("telemetry_snapshot.txt", &snap.render_text());
    check_golden(
        "telemetry_snapshot.prom",
        &prom::render(&snap, &[("workload", "golden")]),
    );
}

/// The three `db` Tiny runs of the export pin, each labelled `db` for
/// the profile repository: the forced-bad run, a plain cold run, and a
/// plain warm run that checks out the cold run's fresh profile. Every
/// run charges its compiles; the plain runs promote through the tier-1
/// timer, so the compile costs of both tiers are observed.
fn export_pin_runs() -> Vec<(Telemetry, RunReport)> {
    let w = workloads::by_name("db", Size::Tiny).unwrap();
    let run = |forced: bool, checkout: Option<Profile>| {
        let telemetry = Telemetry::enabled(DEFAULT_TRACE_CAPACITY);
        let mut cfg = forced_bad_config(&w, telemetry.clone());
        if !forced {
            cfg.vm.plan = None;
            cfg.vm.jit.tier1_enabled = true;
            cfg.vm.jit.sample_period_cycles = 200_000;
            cfg.vm.jit.tier1_threshold = 2;
            cfg.watch_fields.clear();
            cfg.forced_bad = None;
            cfg.feedback = FeedbackConfig::default();
        }
        cfg.vm.baseline_compile_cycles_per_bc = 3;
        cfg.vm.opt_compile_cycles_per_bc = 30;
        cfg.profile = ProfileOptions::from_checkout(checkout, "db");
        let report = HpmRuntime::new(cfg).run(&w.program).unwrap();
        (telemetry, report)
    };
    let forced = run(true, None);
    let cold = run(false, None);
    let warm = run(false, cold.1.fresh_profile.clone());
    vec![forced, cold, warm]
}

/// Everything the runtime exports from real runs, folded with FNV-1a:
/// every decision record, every trace event but `recompilation` (whose
/// stamp is the compile's, not the decision pipeline's), every metric,
/// the compile-cost and GC pause histograms, and each fresh profile's
/// encoding. A change to how the runtime reads the policy's decision
/// log, the VM's compile charge, its freed code ranges, the collector's
/// counters or its prior profile must leave this digest alone.
#[test]
fn runtime_exports_of_real_runs_are_pinned() {
    let mut h = Fnv1a::new();
    let mut actions = BTreeSet::new();
    for (telemetry, report) in export_pin_runs() {
        let snap = telemetry.snapshot(report.cycles);
        for d in &snap.decisions {
            actions.insert(d.action);
            h.write_str(&format!("{d:?}"));
        }
        for e in &snap.events {
            if !matches!(e.kind, TraceKind::Recompilation { .. }) {
                h.write_str(&format!("{e:?}"));
            }
        }
        for &v in &snap.values {
            h.write_u64(v);
        }
        for id in [
            HistogramId::JitCompileCostCycles,
            HistogramId::GcMinorPauseCycles,
            HistogramId::GcMajorPauseCycles,
        ] {
            let hist = snap.hist(id);
            for &b in &hist.buckets {
                h.write_u64(b);
            }
            h.write_u64(hist.sum);
        }
        let fresh = report
            .fresh_profile
            .expect("a labelled run reports its profile");
        h.write(&fresh.encode());
    }
    for action in ["enabled", "pinned", "reverted", "warm_start"] {
        assert!(
            actions.contains(action),
            "no `{action}` decision: {actions:?}"
        );
    }
    assert_eq!(h.finish(), PIN_RUNTIME_EXPORTS);
}
const PIN_RUNTIME_EXPORTS: u64 = 9_197_789_534_229_551_463;
