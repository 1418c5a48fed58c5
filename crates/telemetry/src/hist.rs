//! Log2-bucket histograms.
//!
//! Histograms complement the scalar counters/gauges of
//! [`crate::metrics`]: each observation lands in the bucket whose
//! upper bound is the smallest power of two at or above the value
//! (ceiling log2), so a 64-bucket table covers the full `u64` range
//! with one relaxed atomic increment per observation and no
//! allocation. Bucket 63 doubles as the `+Inf` bucket.
//!
//! Like every other telemetry sink, histograms observe the simulated
//! clock but never advance it: recording an observation costs zero
//! simulated cycles.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets per histogram. Bucket `i < 63` holds values `v`
/// with `le(i-1) < v <= le(i)` where `le(i) = 2^i`; bucket 63 holds
/// everything larger (`+Inf`).
pub const HIST_BUCKETS: usize = 64;

macro_rules! histograms {
    ($($variant:ident => $name:literal;)*) => {
        /// Identifier of one workspace histogram; indexes the table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum HistogramId {
            $($variant,)*
        }

        impl HistogramId {
            /// Every histogram, in declaration (and export) order.
            pub const ALL: &'static [HistogramId] = &[$(HistogramId::$variant,)*];

            /// Number of declared histograms.
            pub const COUNT: usize = Self::ALL.len();

            /// Stable dotted export name, e.g. `"gc.minor_pause_cycles"`.
            pub fn name(self) -> &'static str {
                match self {
                    $(HistogramId::$variant => $name,)*
                }
            }
        }
    };
}

histograms! {
    // hpm.*: per-poll drain sizes.
    HpmPollBatchSamples => "hpm.poll_batch_samples";

    // gc.*: per-collection pause durations (simulated cycles).
    GcMinorPauseCycles => "gc.minor_pause_cycles";
    GcMajorPauseCycles => "gc.major_pause_cycles";

    // jit.*: per-compilation cost by the tiered pipeline (all tiers;
    // the tier split lives in the jit.compiles.* counters).
    JitCompileCostCycles => "jit.compile_cost_cycles";

    // core.*: interpreter cycles between collector-thread polls, and
    // the latency from a field's first attributed sample to the policy
    // decision it triggered.
    CorePollGapCycles => "core.poll_gap_cycles";
    CoreDecisionLatencyCycles => "core.decision_latency_cycles";

    // serve.*: per-job totals aggregated by the service — simulated
    // execution length and cycles-to-first-decision (the fleet
    // warm-start payoff metric, split by start temperature).
    ServeWarmFirstDecisionCycles => "serve.warm_first_decision_cycles";
    ServeColdFirstDecisionCycles => "serve.cold_first_decision_cycles";
    ServeServiceCycles => "serve.service_cycles";
}

/// Bucket index for one observed value (ceiling log2, saturated into
/// the final `+Inf` bucket).
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        (64 - (value - 1).leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i`, rendered for exports
/// (`"+Inf"` for the last bucket).
#[must_use]
pub fn bucket_le(i: usize) -> String {
    if i >= HIST_BUCKETS - 1 {
        "+Inf".to_string()
    } else {
        (1u128 << i).to_string()
    }
}

struct Hist {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Hist {
    fn new() -> Self {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// Fixed table of histograms, one per [`HistogramId`]. Relaxed
/// ordering throughout: histograms are diagnostics, not
/// synchronization.
pub struct HistogramRegistry {
    hists: Vec<Hist>,
}

impl Default for HistogramRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramRegistry {
    #[must_use]
    pub fn new() -> Self {
        HistogramRegistry {
            hists: (0..HistogramId::COUNT).map(|_| Hist::new()).collect(),
        }
    }

    /// Record one observation.
    pub fn observe(&self, id: HistogramId, value: u64) {
        let h = &self.hists[id as usize];
        h.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        // Saturating: a sum that pegs at u64::MAX is better than a
        // wrapped one silently lying.
        let mut cur = h.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(value);
            match h
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Add `count` observations directly into bucket `i` without
    /// touching the sum; used when absorbing a frozen snapshot whose
    /// bucket placement is already exact.
    pub fn absorb_bucket(&self, id: HistogramId, i: usize, count: u64) {
        self.hists[id as usize].buckets[i].fetch_add(count, Ordering::Relaxed);
    }

    /// Add a frozen snapshot's observed-value sum (saturating).
    pub fn absorb_sum(&self, id: HistogramId, sum: u64) {
        let h = &self.hists[id as usize];
        let mut cur = h.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(sum);
            match h
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Copy out every histogram in declaration order.
    #[must_use]
    pub fn read_all(&self) -> Vec<HistogramSnapshot> {
        self.hists
            .iter()
            .map(|h| HistogramSnapshot {
                buckets: h
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                sum: h.sum.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Frozen copy of one histogram: per-bucket counts (not cumulative)
/// plus the sum of observed values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Raw (non-cumulative) count per bucket, aligned with
    /// [`bucket_le`].
    pub buckets: Vec<u64>,
    /// Sum of all observed values (saturating).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An all-zero histogram.
    #[must_use]
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HIST_BUCKETS],
            sum: 0,
        }
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean observed value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_ceiling_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_render() {
        assert_eq!(bucket_le(0), "1");
        assert_eq!(bucket_le(10), "1024");
        assert_eq!(bucket_le(HIST_BUCKETS - 1), "+Inf");
    }

    #[test]
    fn observe_accumulates_count_and_sum() {
        let r = HistogramRegistry::new();
        r.observe(HistogramId::GcMinorPauseCycles, 100);
        r.observe(HistogramId::GcMinorPauseCycles, 100);
        r.observe(HistogramId::GcMinorPauseCycles, 5000);
        let snap = &r.read_all()[HistogramId::GcMinorPauseCycles as usize];
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.sum, 5200);
        assert_eq!(snap.buckets[bucket_index(100)], 2);
        assert_eq!(snap.buckets[bucket_index(5000)], 1);
        let other = &r.read_all()[HistogramId::GcMajorPauseCycles as usize];
        assert_eq!(other.count(), 0);
    }

    #[test]
    fn names_are_unique_and_namespaced() {
        let mut seen = std::collections::BTreeSet::new();
        for &id in HistogramId::ALL {
            assert!(seen.insert(id.name()), "duplicate histogram {}", id.name());
            let ns = id.name().split('.').next().unwrap();
            assert!(
                matches!(
                    ns,
                    "hpm"
                        | "memsim"
                        | "gc"
                        | "vm"
                        | "jit"
                        | "core"
                        | "profile"
                        | "serve"
                        | "telemetry"
                ),
                "unknown namespace in {}",
                id.name()
            );
        }
    }
}
