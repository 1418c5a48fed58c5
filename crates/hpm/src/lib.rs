//! Hardware-performance-monitoring substrate: a precise event-based
//! sampling (PEBS) unit and the adaptive collector thread that drains
//! its sample buffer.
//!
//! This crate reproduces the monitoring system of Section 4.1:
//!
//! 1. **[`pebs::PebsUnit`]** — the "hardware": counts occurrences of one
//!    selected event ([`hpmopt_memsim::EventKind`]; the P4 samples one
//!    event at a time), and every *n*-th occurrence captures a 40-byte
//!    sample (PC, data address, register snapshot) into the kernel
//!    buffer via a microcode routine whose cost is charged to the clock.
//!    The interval's low-order 8 bits are re-randomized after every sample
//!    to avoid biased sampling (Section 6.1).
//! 2. **[`collector::CollectorThread`]** — the Java collector thread
//!    that polls the buffer, with the polling period adapted between
//!    10 ms and 1000 ms from the observed buffer fill.
//!
//! [`HpmSystem`] wires the two together behind two calls the VM hooks
//! invoke: [`HpmSystem::on_event`] per memory access and
//! [`HpmSystem::poll`] on the simulated timer. It also plays the kernel
//! module and the native transfer library, whose costs are constants:
//! the buffer raises the poll interrupt at [`INTERRUPT_MARK_PCT`] of its
//! capacity, and each poll charges [`POLL_BASE_CYCLES`] plus
//! [`COPY_CYCLES_PER_BYTE`] per byte of every drained sample.
//!
//! # Example
//!
//! ```
//! use hpmopt_hpm::{HpmConfig, HpmSystem, SamplingInterval};
//! use hpmopt_memsim::{AccessOutcome, EventKind};
//!
//! let mut hpm = HpmSystem::new(HpmConfig {
//!     interval: SamplingInterval::Fixed(2),
//!     ..HpmConfig::default()
//! });
//! let miss = AccessOutcome { cycles: 20, l1_miss: true, ..Default::default() };
//! for i in 0..10 {
//!     hpm.on_event(0x4000_0000 + 4 * i, 0x1000_0000, &miss, 100 * i);
//! }
//! let (samples, _cost) = hpm.poll(10_000);
//! assert!(!samples.is_empty(), "every ~2nd miss was sampled");
//! assert!(samples.iter().all(|s| s.pc >= 0x4000_0000));
//! ```

pub mod collector;
pub mod pebs;

pub use collector::CollectorThread;
pub use pebs::{PebsUnit, Sample, SAMPLE_BYTES};

use hpmopt_memsim::{AccessOutcome, EventKind};
use hpmopt_telemetry::{HistogramId, MetricId, Telemetry, TraceKind};

/// Cycles the sampling microcode costs per captured sample: each PEBS
/// sample runs one microcode routine that stores it to the buffer
/// (Section 4.1).
pub const MICROCODE_CYCLES: u64 = 250;

/// Buffer fill (percent of capacity) that raises the poll interrupt:
/// "an interrupt is generated only when this buffer is filled to a
/// specified mark" (Section 4.1).
pub const INTERRUPT_MARK_PCT: usize = 90;

/// Fixed cycles per poll: the system call into the kernel module and
/// the JNI crossing back into the collector thread.
pub const POLL_BASE_CYCLES: u64 = 400;

/// Cycles per byte of the bulk copy that moves a drained batch from the
/// kernel buffer into the library's pre-allocated transfer array
/// (Section 4.1).
pub const COPY_CYCLES_PER_BYTE: u64 = 1;

/// How the sampling interval is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingInterval {
    /// Monitoring disabled.
    Off,
    /// Sample every `n`-th event (the paper evaluates 25 K / 50 K / 100 K).
    Fixed(u64),
    /// Adapt the interval at runtime to a target sample rate; the paper's
    /// default is 200 samples/second (footnote 4).
    Auto {
        /// Desired samples per (simulated) second.
        target_per_sec: u64,
    },
}

impl SamplingInterval {
    /// The paper's automatic mode with its default target rate.
    #[must_use]
    pub const fn auto_default() -> Self {
        SamplingInterval::Auto {
            target_per_sec: 200,
        }
    }
}

/// Full monitoring configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HpmConfig {
    /// The event PEBS counts (one at a time, as on the P4).
    pub event: EventKind,
    /// Interval policy.
    pub interval: SamplingInterval,
    /// Kernel buffer capacity in samples (80 KB / 40 B in the paper).
    pub buffer_capacity: usize,
    /// Simulated CPU frequency in Hz (3 GHz P4) — converts cycle deltas to
    /// seconds for rate adaptation.
    pub cpu_hz: u64,
    /// Seed for interval randomization.
    pub seed: u64,
}

impl Default for HpmConfig {
    fn default() -> Self {
        HpmConfig {
            event: EventKind::L1DMiss,
            interval: SamplingInterval::auto_default(),
            buffer_capacity: 80 * 1024 / SAMPLE_BYTES as usize,
            cpu_hz: 3_000_000_000,
            seed: 0x5eed_1234_abcd_0001,
        }
    }
}

impl HpmConfig {
    /// Monitoring switched off entirely: no events counted, no samples
    /// captured, no overhead charged. The control arm of every
    /// zero-perturbation comparison (stress oracles, `hpmopt-report`).
    #[must_use]
    pub fn disabled() -> Self {
        HpmConfig {
            interval: SamplingInterval::Off,
            ..HpmConfig::default()
        }
    }
}

/// Aggregate monitoring statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HpmStats {
    /// Occurrences of the selected event observed.
    pub events: u64,
    /// Samples captured by the microcode.
    pub samples: u64,
    /// Samples lost to a full kernel buffer.
    pub dropped: u64,
    /// Collector-thread polls performed.
    pub polls: u64,
    /// Cycles spent in the sampling microcode.
    pub sampling_cycles: u64,
    /// Cycles spent copying samples to user space.
    pub copy_cycles: u64,
}

/// The composed monitoring system.
#[derive(Debug, Clone)]
pub struct HpmSystem {
    config: HpmConfig,
    unit: PebsUnit,
    /// The batch the last poll drained. Each poll swaps it with the
    /// unit's buffer, so the samples move without a copy and both
    /// buffers keep their storage.
    drained: Vec<Sample>,
    thread: CollectorThread,
    stats: HpmStats,
    /// Events seen since the last rate adaptation.
    events_in_window: u64,
    window_start_cycles: u64,
    telemetry: Telemetry,
    /// `stats.dropped` as of the previous poll, for overflow deltas.
    dropped_at_last_poll: u64,
}

impl HpmSystem {
    /// Build the system from a configuration.
    #[must_use]
    pub fn new(config: HpmConfig) -> Self {
        let initial_interval = match config.interval {
            SamplingInterval::Off => 0,
            SamplingInterval::Fixed(n) => n,
            SamplingInterval::Auto { .. } => 100_000,
        };
        HpmSystem {
            unit: PebsUnit::new(initial_interval, config.seed, config.buffer_capacity),
            drained: Vec::with_capacity(config.buffer_capacity),
            thread: CollectorThread::new(config.cpu_hz),
            stats: HpmStats::default(),
            events_in_window: 0,
            window_start_cycles: 0,
            telemetry: Telemetry::disabled(),
            dropped_at_last_poll: 0,
            config,
        }
    }

    /// Attach a telemetry handle; `hpm.*` metrics and buffer-overflow
    /// trace events flow into it from now on. The default handle is
    /// disabled, so untelemetered embedders pay nothing.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &HpmConfig {
        &self.config
    }

    /// Whether monitoring is enabled at all.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        !matches!(self.config.interval, SamplingInterval::Off)
    }

    /// Report one memory access. If the access raised the selected event
    /// the event counter advances and the access may be sampled; returns
    /// the microcode cycles charged (0 when not sampled).
    ///
    /// Inlined into the caller: most accesses raise no event (an L1 hit
    /// under the default L1-miss event) and stop at the first check.
    #[inline]
    pub fn on_event(
        &mut self,
        pc: u64,
        data_addr: u64,
        outcome: &AccessOutcome,
        cycles: u64,
    ) -> u64 {
        if !self.enabled() || !outcome.raised(self.config.event) {
            return 0;
        }
        self.count_event(pc, data_addr, cycles)
    }

    /// [`HpmSystem::on_event`] for an access that raised the event:
    /// count it, and sample it when the interval expires.
    #[inline(never)]
    fn count_event(&mut self, pc: u64, data_addr: u64, cycles: u64) -> u64 {
        self.stats.events += 1;
        self.events_in_window += 1;
        self.telemetry.incr(MetricId::HpmEvents);
        if self.unit.observe(pc, data_addr, self.config.event, cycles) {
            self.stats.samples += 1;
            self.stats.dropped = self.unit.dropped();
            self.stats.sampling_cycles += MICROCODE_CYCLES;
            self.telemetry.incr(MetricId::HpmSamplesGenerated);
            MICROCODE_CYCLES
        } else {
            0
        }
    }

    /// Whether the collector thread's timer has expired or the buffer
    /// reached its [`INTERRUPT_MARK_PCT`] fill mark.
    #[must_use]
    pub fn poll_due(&self, cycles: u64) -> bool {
        let mark = (self.config.buffer_capacity * INTERRUPT_MARK_PCT / 100).max(1);
        self.enabled() && (self.thread.due(cycles) || self.unit.buffered() >= mark)
    }

    /// Run one collector-thread poll: drain the PEBS buffer, adapt the
    /// polling period and (in auto mode) the sampling interval. Returns
    /// the drained samples, in capture order, and the cycles the poll
    /// cost.
    ///
    /// The batch changes hands by swapping the unit's buffer with the
    /// one the previous poll returned: no sample is copied and neither
    /// buffer reallocates, so a steady-state poll loop is
    /// allocation-free. The batch stays readable until the next poll.
    pub fn poll(&mut self, cycles: u64) -> (&[Sample], u64) {
        if !self.enabled() {
            return (&[], 0);
        }
        self.stats.polls += 1;
        let fill_pct = (self.unit.buffered() * 100 / self.unit.capacity().max(1)) as u8;
        self.unit.swap_buffer(&mut self.drained);
        let drained = self.drained.len() as u64;
        let cost = POLL_BASE_CYCLES + drained * SAMPLE_BYTES * COPY_CYCLES_PER_BYTE;
        self.stats.copy_cycles += cost;
        self.thread.after_poll(fill_pct, cycles);

        self.telemetry.incr(MetricId::HpmPolls);
        self.telemetry.add(MetricId::HpmSamplesDrained, drained);
        self.telemetry
            .observe(HistogramId::HpmPollBatchSamples, drained);
        let dropped_since = self.stats.dropped - self.dropped_at_last_poll;
        if dropped_since > 0 {
            self.telemetry.incr(MetricId::HpmBufferOverflows);
            self.telemetry
                .add(MetricId::HpmSamplesDropped, dropped_since);
            self.telemetry.record(
                cycles,
                TraceKind::BufferOverflow {
                    dropped: dropped_since,
                },
            );
            self.dropped_at_last_poll = self.stats.dropped;
        }
        self.telemetry
            .set_gauge(MetricId::HpmPollPeriodMs, self.thread.period_ms());

        if let SamplingInterval::Auto { target_per_sec } = self.config.interval {
            let dt = cycles.saturating_sub(self.window_start_cycles);
            if dt > 0 && self.events_in_window > 0 {
                let seconds = dt as f64 / self.config.cpu_hz as f64;
                let events_per_sec = self.events_in_window as f64 / seconds;
                let ideal = events_per_sec / target_per_sec as f64;
                let clamped = ideal.clamp(256.0, 5_000_000.0) as u64;
                self.unit.set_interval(clamped);
            }
            self.window_start_cycles = cycles;
            self.events_in_window = 0;
        }
        self.telemetry
            .set_gauge(MetricId::HpmSamplingInterval, self.current_interval());
        (&self.drained, cost)
    }

    /// The collector-thread timer (for period/next-deadline inspection).
    #[must_use]
    pub fn collector(&self) -> &CollectorThread {
        &self.thread
    }

    /// The sampling interval currently in force (post-adaptation).
    #[must_use]
    pub fn current_interval(&self) -> u64 {
        self.unit.interval()
    }

    /// Advance the code epoch stamped into subsequently captured samples.
    /// The VM's bounded code cache calls this (via the monitoring
    /// module's retire hook) every time it frees a code range; samples
    /// already buffered keep their capture-time stamp, which is what lets
    /// attribution detect them as stale.
    pub fn set_code_epoch(&mut self, epoch: u64) {
        self.unit.set_code_epoch(epoch);
    }

    /// The code epoch currently stamped into new samples.
    #[must_use]
    pub fn code_epoch(&self) -> u64 {
        self.unit.code_epoch()
    }

    /// Monitoring statistics.
    #[must_use]
    pub fn stats(&self) -> HpmStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss() -> AccessOutcome {
        AccessOutcome {
            cycles: 20,
            l1_miss: true,
            l2_miss: false,
            dtlb_miss: false,
        }
    }

    #[test]
    fn off_mode_costs_nothing() {
        let mut hpm = HpmSystem::new(HpmConfig {
            interval: SamplingInterval::Off,
            ..HpmConfig::default()
        });
        assert_eq!(hpm.on_event(0x4000_0000, 0, &miss(), 0), 0);
        assert!(!hpm.poll_due(u64::MAX));
        assert_eq!(hpm.stats().events, 0);
    }

    #[test]
    fn only_selected_event_counts() {
        let mut hpm = HpmSystem::new(HpmConfig {
            event: EventKind::DtlbMiss,
            interval: SamplingInterval::Fixed(1),
            ..HpmConfig::default()
        });
        hpm.on_event(0x4000_0000, 0, &miss(), 0);
        assert_eq!(hpm.stats().events, 0, "L1 miss ignored while DTLB selected");
        let tlb = AccessOutcome {
            dtlb_miss: true,
            ..AccessOutcome::default()
        };
        hpm.on_event(0x4000_0000, 0, &tlb, 0);
        assert_eq!(hpm.stats().events, 1);
    }

    #[test]
    fn sampling_rate_tracks_interval() {
        let mut hpm = HpmSystem::new(HpmConfig {
            interval: SamplingInterval::Fixed(100),
            seed: 7,
            ..HpmConfig::default()
        });
        let mut overhead = 0;
        for i in 0..100_000u64 {
            overhead += hpm.on_event(0x4000_0000, i * 64, &miss(), i);
        }
        let s = hpm.stats();
        // Randomized low bits make the effective interval 100 ± ~128/2,
        // wait — with interval 100 the randomization replaces the low 8
        // bits, so intervals land in [1, 255]; accept a broad band.
        assert!(s.samples > 300, "got {}", s.samples);
        assert!(overhead > 0, "microcode cost charged");
    }

    #[test]
    fn poll_drains_and_clears() {
        let mut hpm = HpmSystem::new(HpmConfig {
            interval: SamplingInterval::Fixed(1),
            ..HpmConfig::default()
        });
        for i in 0..10u64 {
            hpm.on_event(0x4000_0000 + i, i, &miss(), i);
        }
        let (samples, cost) = hpm.poll(1_000_000);
        assert!(!samples.is_empty());
        assert!(cost > 0);
        let (again, _) = hpm.poll(2_000_000);
        assert!(again.is_empty(), "buffer was drained");
    }

    #[test]
    fn interrupt_fires_at_mark() {
        let mut hpm = HpmSystem::new(HpmConfig {
            interval: SamplingInterval::Fixed(1),
            buffer_capacity: 10,
            ..HpmConfig::default()
        });
        for i in 0..8u64 {
            hpm.on_event(0x4000_0000 + i, i, &miss(), i);
        }
        assert!(!hpm.poll_due(8), "8 < mark of 9");
        hpm.on_event(0x4000_0008, 8, &miss(), 8);
        assert!(hpm.poll_due(9));
    }

    #[test]
    fn copy_cost_scales_with_batch() {
        let mut hpm = HpmSystem::new(HpmConfig {
            interval: SamplingInterval::Fixed(1),
            ..HpmConfig::default()
        });
        assert_eq!(hpm.poll(0).1, 400, "an empty poll pays the base cost");
        for i in 0..5u64 {
            hpm.on_event(0x4000_0000 + i, i, &miss(), i);
        }
        assert_eq!(hpm.poll(10).1, 400 + 5 * 40, "one cycle per sample byte");
        assert_eq!(hpm.stats().copy_cycles, 400 + 600);
    }

    #[test]
    fn drain_empties_without_reallocating() {
        let capacity = 64;
        let mut hpm = HpmSystem::new(HpmConfig {
            interval: SamplingInterval::Fixed(1),
            buffer_capacity: capacity,
            ..HpmConfig::default()
        });
        let mut storage = Vec::new();
        for round in 0..4u64 {
            for i in 0..=round {
                hpm.on_event(0x4000_0000 + i, i, &miss(), round);
            }
            let (batch, _) = hpm.poll(round);
            assert_eq!(batch.len() as u64, round + 1);
            storage.push(batch.as_ptr());
            // A buffer regrown from empty would hold only this batch.
            assert!(hpm.drained.capacity() >= capacity, "round {round}");
        }
        // The PEBS buffer and the drained batch trade places each poll.
        assert_eq!(storage[2], storage[0], "steady-state polls reuse storage");
        assert_eq!(storage[3], storage[1], "steady-state polls reuse storage");
    }

    #[test]
    fn buffer_overflow_drops_and_interrupts() {
        let mut hpm = HpmSystem::new(HpmConfig {
            interval: SamplingInterval::Fixed(1),
            buffer_capacity: 8,
            ..HpmConfig::default()
        });
        for i in 0..100u64 {
            hpm.on_event(0x4000_0000, i, &miss(), i);
        }
        assert!(hpm.poll_due(0), "overflow interrupt forces a poll");
        let (samples, _) = hpm.poll(0);
        assert_eq!(samples.len(), 8, "buffer capacity bounds the batch");
        assert!(hpm.stats().dropped > 0);
    }

    #[test]
    fn auto_mode_adapts_interval_towards_target() {
        let mut hpm = HpmSystem::new(HpmConfig {
            interval: SamplingInterval::Auto {
                target_per_sec: 200,
            },
            ..HpmConfig::default()
        });
        let start = hpm.current_interval();
        // Feed a very high event rate: 10M events in 30M cycles (10ms).
        for i in 0..1_000_000u64 {
            hpm.on_event(0x4000_0000, i * 64, &miss(), i * 3);
        }
        hpm.poll(30_000_000);
        assert!(
            hpm.current_interval() > start,
            "high event rate must lengthen the interval: {} -> {}",
            start,
            hpm.current_interval()
        );
    }

    #[test]
    fn samples_carry_pc_and_address() {
        let mut hpm = HpmSystem::new(HpmConfig {
            interval: SamplingInterval::Fixed(1),
            ..HpmConfig::default()
        });
        hpm.on_event(0x4000_1234, 0xdead_beef, &miss(), 42);
        let (samples, _) = hpm.poll(1);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].pc, 0x4000_1234);
        assert_eq!(samples[0].data_addr, 0xdead_beef);
        assert_eq!(samples[0].event, EventKind::L1DMiss);
        assert_eq!(samples[0].epoch, 0, "unbounded cache never moves epochs");
    }

    #[test]
    fn epoch_splits_samples_around_a_code_free() {
        let mut hpm = HpmSystem::new(HpmConfig {
            interval: SamplingInterval::Fixed(1),
            ..HpmConfig::default()
        });
        hpm.on_event(0x4000_0010, 0, &miss(), 1);
        hpm.set_code_epoch(1);
        assert_eq!(hpm.code_epoch(), 1);
        hpm.on_event(0x4000_0010, 0, &miss(), 2);
        let (samples, _) = hpm.poll(10);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].epoch, 0, "captured before the free");
        assert_eq!(samples[1].epoch, 1, "captured after the free");
    }
}
