//! Warm-start ablation: the profile repository's effect on `db`.
//!
//! Beyond the paper. The online pipeline needs a sampling warm-up
//! before the per-field counters cross the decision threshold, so the
//! first co-allocation decision lands well into the run — and the
//! nursery collections before it promote without co-allocation. This
//! ablation runs `db` twice against the same profile file: a cold run
//! (no prior profile; saves one at exit) and a warm run (loads it;
//! decisions installed at cycle 0), and compares the time to the first
//! decision plus the resulting miss trajectory.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use hpmopt_core::runtime::RunReport;
use hpmopt_core::{warmstart, ProfileOptions};
use hpmopt_gc::CollectorKind;
use hpmopt_profile::{LoadOutcome, ProfileStore};
use hpmopt_workloads::{by_name, Size};

use crate::{fmt, setup};

fn temp_profile(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "hpmopt-warmstart-{}-{tag}-{n}.hpmprof",
        std::process::id()
    ))
}

/// Cumulative sampled events at a fraction of the run (from the
/// per-poll event series).
fn events_at(r: &RunReport, fraction: f64) -> u64 {
    let t = (r.cycles as f64 * fraction) as u64;
    r.event_series
        .iter()
        .take_while(|(cycles, _)| *cycles <= t)
        .last()
        .map_or(0, |&(_, events)| events)
}

/// Run the cold/warm pair against one profile file and return both
/// reports (cold first).
#[must_use]
pub fn measure(size: Size, tag: &str) -> (RunReport, RunReport) {
    let w = by_name("db", size).expect("db exists");
    let store = ProfileStore::new(temp_profile(tag));
    let run = || {
        let heap = setup::heap_config(&w, 4, 1, CollectorKind::GenMs);
        let mut cfg = setup::run_config(&w, size, heap, setup::auto_interval(), true);
        let prior = store
            .load_any()
            .map_or_else(LoadOutcome::Cold, LoadOutcome::Warm);
        cfg.profile = ProfileOptions {
            workload: "db".into(),
            prior: prior.clone(),
        };
        let telemetry = cfg.telemetry.clone();
        let report = setup::run(&w, cfg);
        warmstart::save_run(&store, prior, &report, &telemetry);
        report
    };
    let cold = run();
    let warm = run();
    let _ = std::fs::remove_file(store.path());
    (cold, warm)
}

/// The warm-vs-cold ablation on `db`.
#[must_use]
pub fn run(size: Size) -> String {
    let (cold, warm) = measure(size, "ablation");
    let row = |label: &str, r: &RunReport| {
        vec![
            label.to_string(),
            r.cycles_to_first_decision()
                .map_or_else(|| "never".to_string(), |c| c.to_string()),
            r.cycles.to_string(),
            r.vm.mem.l1_misses.to_string(),
            r.vm.gc.objects_coallocated.to_string(),
        ]
    };
    let mut out = String::from(
        "Ablation 4: profile-repository warm start (db, heap = 4x, auto interval).\n\n",
    );
    out.push_str(&fmt::table(
        &[
            "start",
            "first decision (cycles)",
            "total cycles",
            "L1 misses",
            "coallocated",
        ],
        &[
            row("cold (no profile)", &cold),
            row("warm (prior run)", &warm),
        ],
    ));

    out.push_str("\nsampled-miss trajectory (cumulative events at run fraction):\n\n");
    let quartiles = [0.25, 0.5, 0.75, 1.0];
    let trajectory = |label: &str, r: &RunReport| {
        let mut cells = vec![label.to_string()];
        cells.extend(quartiles.iter().map(|&q| events_at(r, q).to_string()));
        cells
    };
    out.push_str(&fmt::table(
        &["start", "25%", "50%", "75%", "100%"],
        &[trajectory("cold", &cold), trajectory("warm", &warm)],
    ));
    out.push_str(
        "\n(the warm run installs its co-allocation decisions at cycle 0, so the first\nnursery collection already promotes parent/child pairs adjacently)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_start_strictly_beats_cold_to_first_decision() {
        let (cold, warm) = measure(Size::Tiny, "test");
        assert!(!cold.warm_start, "first run finds no profile");
        assert!(warm.warm_start, "second run loads the saved profile");
        let cold_first = cold
            .cycles_to_first_decision()
            .expect("cold run eventually decides");
        let warm_first = warm
            .cycles_to_first_decision()
            .expect("warm run decides at startup");
        assert!(
            warm_first < cold_first,
            "warm start must decide strictly earlier: {warm_first} vs {cold_first}"
        );
        assert_eq!(warm_first, 0, "decisions installed before the first cycle");
    }
}
