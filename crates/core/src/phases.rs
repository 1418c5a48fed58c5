//! Execution-phase detection over per-field miss-rate series.
//!
//! "The rate of events for each reference field is measured throughout
//! the execution and this allows detecting phase changes in the
//! execution" (Section 5.3). This module provides that capability as a
//! simple online change-point detector: two adjacent sliding windows
//! over a rate series; when their means diverge by more than a fixed
//! ratio, a phase boundary is reported.
//!
//! The optimization pipeline itself does not need phases (decisions are
//! re-derived continuously), but embedders can use the detector to gate
//! expensive re-analysis to phase boundaries, as adaptive systems
//! typically do.

/// Observations per window (two adjacent windows are compared).
const WINDOW: usize = 4;

/// Mean ratio (max/min) that constitutes a phase change.
const RATIO: f64 = 2.0;

/// Ignore windows whose mean is below this (noise floor).
const MIN_RATE: f64 = 0.05;

/// A detected phase boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseChange {
    /// Cycle timestamp of the observation that crossed the threshold.
    pub cycles: u64,
    /// Mean rate before the boundary.
    pub before: f64,
    /// Mean rate after the boundary.
    pub after: f64,
}

impl PhaseChange {
    /// Whether the new phase has a *higher* rate (e.g. the working set
    /// outgrew the cache).
    #[must_use]
    pub fn is_regression(&self) -> bool {
        self.after > self.before
    }
}

/// Online two-window change-point detector.
#[derive(Debug, Clone, Default)]
pub struct PhaseDetector {
    history: Vec<(u64, f64)>,
    changes: Vec<PhaseChange>,
    /// Observations to skip after a detection (the windows must refill
    /// with new-phase data before another boundary is meaningful).
    cooldown: usize,
}

impl PhaseDetector {
    /// Create a detector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one observation (cycle stamp, rate); returns the boundary if
    /// this observation completes one.
    pub fn observe(&mut self, cycles: u64, rate: f64) -> Option<PhaseChange> {
        self.history.push((cycles, rate));
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        if self.history.len() < 2 * WINDOW {
            return None;
        }
        let n = self.history.len();
        let mean = |s: &[(u64, f64)]| s.iter().map(|&(_, r)| r).sum::<f64>() / s.len() as f64;
        let before = mean(&self.history[n - 2 * WINDOW..n - WINDOW]);
        let after = mean(&self.history[n - WINDOW..]);
        let (lo, hi) = if before < after {
            (before, after)
        } else {
            (after, before)
        };
        if hi < MIN_RATE || lo <= 0.0 {
            return None;
        }
        if hi / lo.max(f64::MIN_POSITIVE) >= RATIO {
            let change = PhaseChange {
                cycles,
                before,
                after,
            };
            self.changes.push(change);
            self.cooldown = WINDOW;
            Some(change)
        } else {
            None
        }
    }

    /// All boundaries detected so far.
    #[must_use]
    pub fn changes(&self) -> &[PhaseChange] {
        &self.changes
    }

    /// Observations consumed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// Whether no observation has been fed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(d: &mut PhaseDetector, start: u64, rates: &[f64]) -> Vec<PhaseChange> {
        rates
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| d.observe(start + i as u64, r))
            .collect()
    }

    #[test]
    fn stable_series_has_no_phases() {
        let mut d = PhaseDetector::new();
        let got = feed(&mut d, 0, &[1.0; 32]);
        assert!(got.is_empty());
    }

    #[test]
    fn step_change_is_detected_once() {
        let mut d = PhaseDetector::new();
        let mut rates = vec![1.0; 8];
        rates.extend(vec![4.0; 8]);
        let got = feed(&mut d, 100, &rates);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].is_regression());
        assert!(got[0].after > got[0].before);
    }

    #[test]
    fn drop_is_detected_as_improvement() {
        let mut d = PhaseDetector::new();
        let mut rates = vec![4.0; 8];
        rates.extend(vec![1.0; 8]);
        let got = feed(&mut d, 0, &rates);
        assert_eq!(got.len(), 1);
        assert!(!got[0].is_regression());
    }

    #[test]
    fn noise_floor_suppresses_tiny_rates() {
        let mut d = PhaseDetector::new();
        let mut rates = vec![0.001; 8];
        rates.extend(vec![0.004; 8]);
        assert!(feed(&mut d, 0, &rates).is_empty());
    }

    #[test]
    fn two_phases_detected_with_cooldown() {
        let mut d = PhaseDetector::new();
        let mut rates = vec![1.0; 8];
        rates.extend(vec![4.0; 12]);
        rates.extend(vec![1.0; 12]);
        let got = feed(&mut d, 0, &rates);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got[0].is_regression());
        assert!(!got[1].is_regression());
    }

    #[test]
    fn gradual_drift_within_ratio_is_one_phase() {
        let mut d = PhaseDetector::new();
        let rates: Vec<f64> = (0..32).map(|i| 1.0 + i as f64 * 0.02).collect();
        assert!(feed(&mut d, 0, &rates).is_empty());
    }
}
