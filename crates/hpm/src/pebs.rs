//! The precise event-based sampling unit.

use hpmopt_memsim::EventKind;
use hpmopt_prim::Rng;

/// Size of one sample record in bytes: PC, data address, event id, cycle
/// stamp, and a register snapshot — matching the paper's 40-byte P4
/// records. The code epoch is *not* part of the hardware record (it
/// rides in a register-snapshot slot the simulation repurposes), so the
/// wire size is unchanged.
pub const SAMPLE_BYTES: u64 = 40;

/// One precise sample: the exact instruction and machine state at the
/// moment the n-th event occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Program counter of the instruction that raised the event.
    pub pc: u64,
    /// Data address the instruction accessed.
    pub data_addr: u64,
    /// The sampled event kind.
    pub event: EventKind,
    /// Cycle time of capture.
    pub cycles: u64,
    /// Code epoch at capture time. A bounded code cache bumps the epoch
    /// every time it frees a range; attribution compares this stamp
    /// against the retirement window of the artifact owning `pc`, so a
    /// sample captured before a free can never be attributed to whatever
    /// code occupies the range afterwards.
    pub epoch: u64,
}

/// The sampling "hardware": an event down-counter that captures a sample
/// into a kernel-supplied buffer every time it reaches zero.
///
/// The chosen interval's 8 low-order bits are re-randomized after every
/// sample "to prevent measuring biased results by sampling at the same
/// locations over and over" (Section 6.1).
#[derive(Debug, Clone)]
pub struct PebsUnit {
    interval: u64,
    countdown: u64,
    rng: Rng,
    buffer: Vec<Sample>,
    capacity: usize,
    dropped: u64,
    /// Current code epoch, stamped into every captured sample. The VM
    /// advances it (via the monitoring module) whenever the bounded code
    /// cache frees a range; stays 0 with the unbounded cache.
    code_epoch: u64,
}

impl PebsUnit {
    /// Create a unit sampling every `interval`-th event into a buffer of
    /// `capacity` samples. `interval == 0` disables sampling.
    #[must_use]
    pub fn new(interval: u64, seed: u64, capacity: usize) -> Self {
        let mut unit = PebsUnit {
            interval,
            countdown: 0,
            rng: Rng::new(seed),
            buffer: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
            code_epoch: 0,
        };
        unit.reset_countdown();
        unit
    }

    fn reset_countdown(&mut self) {
        if self.interval == 0 {
            self.countdown = u64::MAX;
            return;
        }
        // Replace the low 8 bits with random ones — a perturbation for the
        // realistic intervals (25 K+); tiny test intervals are used as-is.
        self.countdown = if self.interval >= 512 {
            let random_low = self.rng.next_u64() & 0xff;
            ((self.interval & !0xff) | random_low).max(1)
        } else {
            self.interval
        };
    }

    /// The configured interval (before low-bit randomization).
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Reprogram the interval (auto-mode adaptation).
    pub fn set_interval(&mut self, interval: u64) {
        self.interval = interval;
        self.reset_countdown();
    }

    /// Count one occurrence of the selected event; returns `true` when
    /// this occurrence was sampled (the caller charges the microcode
    /// cost).
    pub fn observe(&mut self, pc: u64, data_addr: u64, event: EventKind, cycles: u64) -> bool {
        if self.interval == 0 {
            return false;
        }
        self.countdown -= 1;
        if self.countdown > 0 {
            return false;
        }
        self.reset_countdown();
        if self.buffer.len() >= self.capacity {
            self.dropped += 1;
            return true; // microcode still ran; the sample was lost
        }
        self.buffer.push(Sample {
            pc,
            data_addr,
            event,
            cycles,
            epoch: self.code_epoch,
        });
        true
    }

    /// Advance the code epoch stamped into subsequent samples (the code
    /// cache freed a range). Samples already buffered keep their older
    /// stamp — exactly the in-flight records that must go stale.
    pub fn set_code_epoch(&mut self, epoch: u64) {
        self.code_epoch = epoch;
    }

    /// The current code epoch.
    #[must_use]
    pub fn code_epoch(&self) -> u64 {
        self.code_epoch
    }

    /// Samples currently buffered.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Buffer capacity in samples.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples lost to buffer overflow.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The buffered samples, in capture order (the kernel read window).
    #[must_use]
    pub fn samples(&self) -> &[Sample] {
        &self.buffer
    }

    /// Clear the buffer after a kernel read. The backing storage is
    /// retained, so steady-state sampling never reallocates.
    pub fn clear(&mut self) {
        self.buffer.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_zero_never_samples() {
        let mut u = PebsUnit::new(0, 1, 16);
        for _ in 0..1000 {
            assert!(!u.observe(0, 0, EventKind::L1DMiss, 0));
        }
        assert_eq!(u.buffered(), 0);
    }

    #[test]
    fn samples_every_nth_event_approximately() {
        let mut u = PebsUnit::new(1024, 42, 10_000);
        let mut sampled = 0;
        for i in 0..102_400u64 {
            if u.observe(i, i, EventKind::L1DMiss, i) {
                sampled += 1;
            }
        }
        // interval 1024 with randomized low byte → mean ≈ 1024-128+127/2;
        // accept 60-160 samples out of ~100 expected.
        assert!((60..=160).contains(&sampled), "sampled {sampled}");
    }

    #[test]
    fn randomization_varies_the_gap() {
        let mut u = PebsUnit::new(1024, 42, 10_000);
        let mut gaps = Vec::new();
        let mut last = 0u64;
        for i in 0..200_000u64 {
            if u.observe(i, 0, EventKind::L1DMiss, i) {
                gaps.push(i - last);
                last = i;
            }
        }
        let distinct: std::collections::HashSet<u64> = gaps.iter().copied().collect();
        assert!(distinct.len() > 10, "gaps must vary: {distinct:?}");
    }

    #[test]
    fn determinism_under_same_seed() {
        let run = |seed| {
            let mut u = PebsUnit::new(512, seed, 1000);
            let mut pcs = Vec::new();
            for i in 0..50_000u64 {
                if u.observe(i, 0, EventKind::L2Miss, i) {
                    pcs.push(i);
                }
            }
            pcs
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds sample differently");
    }

    #[test]
    fn samples_carry_the_capture_time_epoch() {
        let mut u = PebsUnit::new(1, 1, 16);
        assert_eq!(u.code_epoch(), 0);
        u.observe(1, 0, EventKind::L1DMiss, 0);
        u.set_code_epoch(3);
        u.observe(2, 0, EventKind::L1DMiss, 1);
        assert_eq!(u.samples()[0].epoch, 0, "buffered samples keep their stamp");
        assert_eq!(u.samples()[1].epoch, 3);
    }

    #[test]
    fn overflow_counts_drops() {
        let mut u = PebsUnit::new(1, 1, 4);
        for i in 0..100u64 {
            u.observe(i, 0, EventKind::L1DMiss, i);
        }
        assert_eq!(u.buffered(), 4);
        assert!(u.dropped() > 0);
        assert_eq!(u.samples().len(), 4);
        u.clear();
        assert_eq!(u.buffered(), 0);
    }
}
