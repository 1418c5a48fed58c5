//! Figure 7 — runtime feedback on `db`: cache misses sampled for the
//! `String::value` field over time.
//!
//! (a) The cumulative count of misses attributed to the field bends
//! sharply once co-allocation kicks in after the warm-up phase.
//! (b) The per-period miss rate drops at the same point; a moving average
//! over the last 3 periods smooths local volatility.

use hpmopt_core::monitor::SeriesPoint;
use hpmopt_gc::CollectorKind;
use hpmopt_workloads::{by_name, Size};

use crate::{fmt, setup};

/// The measured series.
#[derive(Debug, Clone)]
pub struct Series {
    /// `(cycles, cumulative sampled misses)` for `String::value`.
    pub cumulative: Vec<SeriesPoint>,
    /// `(cycles, misses per megacycle)` per period.
    pub rate: Vec<(u64, f64)>,
    /// Moving average (window 3) of `rate`.
    pub rate_ma3: Vec<(u64, f64)>,
    /// Cycle at which the first co-allocation decision was made.
    pub decision_at: Option<u64>,
}

/// Run `db` and collect the per-field series.
#[must_use]
pub fn measure(size: Size) -> Series {
    let w = by_name("db", size).expect("db exists");
    let heap = setup::heap_config(&w, 4, 1, CollectorKind::GenMs);
    let mut cfg = setup::run_config(&w, size, heap, setup::auto_interval(), true);
    cfg.watch_fields = vec![("String".into(), "value".into())];
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
    let rate_ma3 = rate
        .iter()
        .enumerate()
        .map(|(i, &(c, _))| {
            let lo = i.saturating_sub(2);
            let window = &rate[lo..=i];
            let avg = window.iter().map(|&(_, r)| r).sum::<f64>() / window.len() as f64;
            (c, avg)
        })
        .collect();
    let decision_at = report.policy_events.first().map(|e| e.cycles);
    Series {
        cumulative,
        rate,
        rate_ma3,
        decision_at,
    }
}

/// Render both panels as text.
#[must_use]
pub fn render(s: &Series) -> String {
    let mut out = String::from(
        "Figure 7: db — cache misses sampled for String objects over time.\n\n(a) cumulative attributed misses on String::value\n\n",
    );
    let rows_a: Vec<Vec<String>> = s
        .cumulative
        .iter()
        .map(|p| {
            vec![
                format!("{:.1}M", p.cycles as f64 / 1e6),
                p.total.to_string(),
            ]
        })
        .collect();
    out.push_str(&fmt::table(&["cycles", "cumulative misses"], &rows_a));
    if let Some(at) = s.decision_at {
        out.push_str(&format!(
            "\nco-allocation decision enabled at {:.1}M cycles (the bend in the curve)\n",
            at as f64 / 1e6
        ));
    }
    out.push_str(
        "\n(b) miss rate over time (sampled misses per Mcycle) with moving average(3)\n\n",
    );
    let rows_b: Vec<Vec<String>> = s
        .rate
        .iter()
        .zip(&s.rate_ma3)
        .map(|(&(c, r), &(_, ma))| {
            vec![
                format!("{:.1}M", c as f64 / 1e6),
                format!("{r:.2}"),
                format!("{ma:.2}"),
            ]
        })
        .collect();
    out.push_str(&fmt::table(&["cycles", "rate", "avg(3)"], &rows_b));
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
    fn series_is_monotone_and_rate_drops_after_decision() {
        let s = measure(Size::Tiny);
        assert!(s.cumulative.len() >= 4, "need several periods: {s:?}");
        assert!(s.cumulative.windows(2).all(|w| w[0].total <= w[1].total));
        assert!(s.decision_at.is_some(), "db must enable co-allocation");
        // Rate after the decision (once promoted pairs dominate) should
        // drop below the peak pre-decision rate.
        let at = s.decision_at.unwrap();
        let pre_peak = s
            .rate
            .iter()
            .filter(|&&(c, _)| c <= at)
            .map(|&(_, r)| r)
            .fold(0.0_f64, f64::max);
        let post_min = s
            .rate
            .iter()
            .filter(|&&(c, _)| c > at)
            .map(|&(_, r)| r)
            .fold(f64::INFINITY, f64::min);
        assert!(
            post_min < pre_peak,
            "miss rate must drop after co-allocation: pre_peak={pre_peak}, post_min={post_min}"
        );
    }
}
