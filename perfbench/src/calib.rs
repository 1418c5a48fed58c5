//! Host-speed calibration.
//!
//! The benchmark runs on a share of a machine whose speed drifts with
//! what else runs on it: for seconds to minutes at a time, everything
//! runs 15–20 % slower, and memory-heavy code more. A drift that slow
//! survives any statistic taken inside one run, so host times are
//! rescaled to a reference speed instead. A fixed kernel that shares no
//! code with hpmopt, a chain of dependent integer multiplies, is timed
//! beside the measured work, while nothing else of the benchmark runs.
//! It touches no memory, so it tracks the drift (clock and core
//! sharing) and not the short bursts of memory contention, which the
//! benchmark filters by keeping the fastest run; a memory-bound kernel
//! tracked those bursts too poorly to help and added noise of its own.
//!
//! A host time `t` measured while the kernel took `k` seconds is
//! reported as `t × REFERENCE_S / k`: the time the work would take on
//! a host where the kernel takes [`REFERENCE_S`]. A change to hpmopt
//! moves `t` and leaves `k` alone.

use std::hint::black_box;
use std::time::Instant;

/// Kernel seconds on the reference host, the unit calibrated times are
/// expressed in. It is the kernel's time on the 2-core host the
/// benchmark was tuned on, in its faster phases, so calibrated seconds
/// read close to the raw seconds of a quiet run there.
pub const REFERENCE_S: f64 = 0.016;

/// Steps of one kernel walk (about 16 ms).
const STEPS: u64 = 1 << 23;

/// Host seconds of one kernel walk of [`STEPS`] steps.
fn walk_s() -> f64 {
    let t = Instant::now();
    let mut x: u64 = black_box(1);
    for i in 0..STEPS {
        x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i) ^ (x >> 29);
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// Times measured runs at reference speed. Each run is bracketed by
/// kernel walks (the walk after one run is the walk before the next),
/// and is rescaled by the faster of its two: a walk slowed by a burst
/// of contention says less about the host's speed than one that was
/// not.
pub struct Calibrator {
    last: f64,
    /// Every kernel time taken, in order.
    kernel_s: Vec<f64>,
}

impl Calibrator {
    /// Take the first walk.
    pub fn new() -> Calibrator {
        let last = walk_s();
        Calibrator {
            last,
            kernel_s: vec![last],
        }
    }

    /// Take one more kernel walk and return its seconds.
    pub fn sample(&mut self) -> f64 {
        self.last = walk_s();
        self.kernel_s.push(self.last);
        self.last
    }

    /// Run `f`, which returns its result and raw host seconds, and
    /// return the result with its seconds at reference speed.
    pub fn run<T>(&mut self, f: impl FnOnce() -> (T, f64)) -> (T, f64) {
        let before = self.last;
        let (r, s) = f();
        let after = self.sample();
        (r, s * REFERENCE_S / before.min(after))
    }

    /// Reference-speed factor of the whole window: [`REFERENCE_S`] over
    /// the median kernel time.
    pub fn speed(&self) -> f64 {
        REFERENCE_S / crate::stats::median(&self.kernel_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_is_rescaled_by_the_faster_bracketing_walk() {
        let mut c = Calibrator::new();
        c.last = REFERENCE_S / 2.0;
        let ((), s) = c.run(|| ((), 1.0));
        let faster = c.kernel_s[1].min(REFERENCE_S / 2.0);
        assert_eq!(s, REFERENCE_S / faster);
        assert!(c.kernel_s.iter().all(|&k| k > 0.0));
    }
}
