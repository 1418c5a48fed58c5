//! Optimization-effect assessment and automatic revert.
//!
//! "For long-running applications the VM also needs to detect when an
//! optimization has a negative effect on overall performance ...
//! Monitoring the cache miss rate for individual classes allows the
//! system to discover that this transformation does not improve
//! performance, and after several measurement periods it triggers a
//! switch back to the original configuration." (Section 6.4, Figure 8)
//!
//! The assessor compares each tracked class's per-period miss rate
//! (sampled misses per megacycle) against the baseline captured when the
//! decision was made; a sustained regression triggers a revert.

use std::collections::BTreeMap;

use hpmopt_bytecode::ClassId;

/// Assessor configuration ("a simple heuristic is used to determine when
/// to switch" — these are its knobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackConfig {
    /// A period's rate counts as a regression when it exceeds
    /// `baseline × tolerance`.
    pub tolerance: f64,
    /// Consecutive regressing periods that trigger the revert.
    pub revert_after_periods: usize,
    /// Ignore periods with fewer sampled misses than this (noise floor).
    pub min_period_misses: u64,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig {
            tolerance: 1.5,
            revert_after_periods: 3,
            min_period_misses: 4,
        }
    }
}

/// Verdict for one observation period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Rate at or below the baseline band.
    Ok,
    /// Rate above the band, but not long enough to act.
    Regressing,
    /// Sustained regression: revert the decision now.
    Revert,
}

#[derive(Debug, Clone)]
struct Track {
    baseline_rate: f64,
    streak: usize,
}

/// Watches miss rates of classes with active optimization decisions.
#[derive(Debug, Clone)]
pub struct Assessor {
    config: FeedbackConfig,
    tracks: BTreeMap<ClassId, Track>,
}

impl Assessor {
    /// Create an assessor.
    #[must_use]
    pub fn new(config: FeedbackConfig) -> Self {
        Assessor {
            config,
            tracks: BTreeMap::new(),
        }
    }

    /// Begin watching `class`, with the pre-decision miss rate as the
    /// baseline.
    pub fn start_tracking(&mut self, class: ClassId, baseline_rate: f64) {
        self.tracks.insert(
            class,
            Track {
                baseline_rate,
                streak: 0,
            },
        );
    }

    /// Whether `class` is being watched.
    #[must_use]
    pub fn is_tracking(&self, class: ClassId) -> bool {
        self.tracks.contains_key(&class)
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> FeedbackConfig {
        self.config
    }

    /// The baseline rate captured when tracking of `class` began.
    #[must_use]
    pub fn baseline(&self, class: ClassId) -> Option<f64> {
        self.tracks.get(&class).map(|t| t.baseline_rate)
    }

    /// Current regressing-period streak for `class`.
    #[must_use]
    pub fn streak(&self, class: ClassId) -> Option<usize> {
        self.tracks.get(&class).map(|t| t.streak)
    }

    /// Report one period: the class's sampled misses and the rate
    /// (misses per megacycle). Returns the verdict; on
    /// [`Verdict::Revert`] the caller reverts the decision and the track
    /// is dropped.
    pub fn observe(&mut self, class: ClassId, period_misses: u64, rate: f64) -> Verdict {
        let Some(track) = self.tracks.get_mut(&class) else {
            return Verdict::Ok;
        };
        if period_misses < self.config.min_period_misses {
            return Verdict::Ok;
        }
        if rate > track.baseline_rate * self.config.tolerance {
            track.streak += 1;
            if track.streak >= self.config.revert_after_periods {
                self.tracks.remove(&class);
                return Verdict::Revert;
            }
            Verdict::Regressing
        } else {
            track.streak = 0;
            Verdict::Ok
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLASS: ClassId = ClassId(1);

    fn assessor() -> Assessor {
        Assessor::new(FeedbackConfig {
            tolerance: 1.5,
            revert_after_periods: 3,
            min_period_misses: 4,
        })
    }

    #[test]
    fn stable_rate_never_reverts() {
        let mut a = assessor();
        a.start_tracking(CLASS, 10.0);
        for _ in 0..100 {
            assert_eq!(a.observe(CLASS, 50, 11.0), Verdict::Ok);
        }
        assert!(a.is_tracking(CLASS));
    }

    #[test]
    fn sustained_regression_reverts_after_k_periods() {
        let mut a = assessor();
        a.start_tracking(CLASS, 10.0);
        assert_eq!(a.observe(CLASS, 50, 20.0), Verdict::Regressing);
        assert_eq!(a.observe(CLASS, 50, 20.0), Verdict::Regressing);
        assert_eq!(a.observe(CLASS, 50, 20.0), Verdict::Revert);
        assert!(!a.is_tracking(CLASS), "track dropped after revert");
    }

    #[test]
    fn recovery_resets_the_streak() {
        let mut a = assessor();
        a.start_tracking(CLASS, 10.0);
        a.observe(CLASS, 50, 20.0);
        a.observe(CLASS, 50, 20.0);
        assert_eq!(a.observe(CLASS, 50, 9.0), Verdict::Ok, "dip resets");
        assert_eq!(a.observe(CLASS, 50, 20.0), Verdict::Regressing);
        assert_ne!(
            a.observe(CLASS, 50, 20.0),
            Verdict::Revert,
            "streak restarted"
        );
    }

    #[test]
    fn noise_floor_ignores_thin_periods() {
        let mut a = assessor();
        a.start_tracking(CLASS, 10.0);
        for _ in 0..10 {
            assert_eq!(a.observe(CLASS, 2, 1000.0), Verdict::Ok);
        }
    }

    #[test]
    fn untracked_classes_are_ok() {
        let mut a = assessor();
        assert_eq!(a.observe(CLASS, 100, 1000.0), Verdict::Ok);
    }
}
