//! Figure 8 — a poorly performing locality optimization, detected and
//! reverted.
//!
//! The controlled experiment of Section 6.4: `db` starts with a good
//! allocation order; mid-run the GC is instructed to place one cache line
//! (128 bytes) of empty space between each `String` and its `char[]` —
//! "effectively undoing the originally well performing setting". The
//! per-class miss-rate monitoring discovers the regression and after
//! several measurement periods switches back; the miss rate returns to
//! its old value.

use hpmopt_core::policy::DecisionKind;
use hpmopt_core::runtime::ForcedBadPlacement;
use hpmopt_gc::CollectorKind;
use hpmopt_workloads::{by_name, Size};

use crate::{fmt, setup};

/// The measured trajectory.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// Per-period `(cycles, misses per megacycle)` for `String::value`.
    pub rate: Vec<(u64, f64)>,
    /// When the bad placement was pinned.
    pub pinned_at: Option<u64>,
    /// When the feedback loop reverted it.
    pub reverted_at: Option<u64>,
}

/// Run the experiment.
#[must_use]
pub fn measure(size: Size) -> Trajectory {
    let w = by_name("db", size).expect("db exists");
    let heap = setup::heap_config(&w, 4, 1, CollectorKind::GenMs);
    let mut cfg = setup::run_config(
        &w,
        size,
        heap,
        hpmopt_hpm::SamplingInterval::Fixed(256),
        true,
    );
    cfg.watch_fields = vec![("String".into(), "value".into())];
    // Let the good configuration warm up past the enable decision, then
    // sabotage it while the build phase is still allocating — objects
    // copied after the pin get the bad layout, so the regression shows
    // up in the very next periods (cut-over points scale with input
    // size).
    let at_cycles = match size {
        Size::Tiny => 6_000_000,
        Size::Small => 15_000_000,
        Size::Full => 36_000_000,
    };
    cfg.forced_bad = Some(ForcedBadPlacement {
        class: "String".into(),
        field: "value".into(),
        gap_bytes: 128,
        at_cycles,
    });
    cfg.feedback = hpmopt_core::feedback::FeedbackConfig {
        tolerance: 1.25,
        revert_after_periods: 2,
        min_period_misses: 25,
    };
    let report = setup::run(&w, cfg);

    let cumulative = report
        .series
        .first()
        .map(|(_, s)| s.clone())
        .unwrap_or_default();
    let mut rate = Vec::new();
    for pair in cumulative.windows(2) {
        let dt = pair[1].cycles.saturating_sub(pair[0].cycles).max(1);
        let dm = pair[1].total - pair[0].total;
        rate.push((pair[1].cycles, dm as f64 * 1_000_000.0 / dt as f64));
    }
    let mut pinned_at = None;
    let mut reverted_at = None;
    for e in &report.policy_events {
        match e.kind {
            DecisionKind::Pinned => pinned_at = Some(e.cycles),
            DecisionKind::Reverted if pinned_at.is_some() && reverted_at.is_none() => {
                reverted_at = Some(e.cycles);
            }
            _ => {}
        }
    }
    Trajectory {
        rate,
        pinned_at,
        reverted_at,
    }
}

/// Render the trajectory.
#[must_use]
pub fn render(t: &Trajectory) -> String {
    let mut out = String::from(
        "Figure 8: db — cache misses for String objects under a deliberately bad placement.\n\n",
    );
    let rows: Vec<Vec<String>> = t
        .rate
        .iter()
        .map(|&(c, r)| {
            let phase = match (t.pinned_at, t.reverted_at) {
                (Some(p), _) if c <= p => "good",
                (Some(_), Some(rv)) if c <= rv => "BAD (gap=128B)",
                (Some(_), Some(_)) => "reverted",
                (Some(_), None) => "BAD (gap=128B)",
                _ => "good",
            };
            vec![
                format!("{:.1}M", c as f64 / 1e6),
                format!("{r:.2}"),
                phase.to_string(),
            ]
        })
        .collect();
    out.push_str(&fmt::table(&["cycles", "miss rate", "phase"], &rows));
    match (t.pinned_at, t.reverted_at) {
        (Some(p), Some(r)) => out.push_str(&format!(
            "\nbad placement installed at {:.1}M cycles; feedback reverted it at {:.1}M cycles\n",
            p as f64 / 1e6,
            r as f64 / 1e6
        )),
        (Some(p), None) => out.push_str(&format!(
            "\nbad placement installed at {:.1}M cycles; run ended before revert\n",
            p as f64 / 1e6
        )),
        _ => out.push_str("\nbad placement was never installed (run too short)\n"),
    }
    out
}

/// Run and render.
#[must_use]
pub fn run(size: Size) -> String {
    render(&measure(size))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_placement_is_detected_and_reverted() {
        let t = measure(Size::Tiny);
        assert!(t.pinned_at.is_some(), "pin must happen: {t:?}");
        assert!(t.reverted_at.is_some(), "feedback must revert: {t:?}");
        assert!(t.reverted_at.unwrap() > t.pinned_at.unwrap());
    }
}
