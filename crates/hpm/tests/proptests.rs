//! Properties of the sampling stack, checked over seeded random inputs
//! (each case is reproducible from its seed).

use hpmopt_hpm::{HpmConfig, HpmSystem, PebsUnit, SamplingInterval};
use hpmopt_memsim::{AccessOutcome, EventKind};
use hpmopt_prim::Rng;

/// Cases per property.
const CASES: u64 = 256;

fn miss() -> AccessOutcome {
    AccessOutcome {
        cycles: 20,
        l1_miss: true,
        l2_miss: false,
        dtlb_miss: false,
    }
}

/// The sample count is always within a factor of the expected
/// events/interval ratio (randomized low bits bound the deviation).
#[test]
fn sample_rate_tracks_interval() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let interval = rng.range(512, 16_383);
        let events = rng.range(20_000, 99_999);
        let seed = rng.next_u64();
        let mut unit = PebsUnit::new(interval, seed, 1 << 20);
        let mut samples = 0u64;
        for i in 0..events {
            if unit.observe(i, 0, EventKind::L1DMiss, i) {
                samples += 1;
            }
        }
        let expected = events as f64 / interval as f64;
        assert!(
            (samples as f64) < expected * 2.0 + 16.0,
            "case {case}: too many samples: {samples} vs expected {expected}"
        );
        assert!(
            (samples as f64) > expected / 2.0 - 16.0,
            "case {case}: too few samples: {samples} vs expected {expected}"
        );
    }
}

/// Nothing is ever lost silently: samples + drops = capture events.
#[test]
fn drops_are_accounted() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let capacity = rng.range(1, 63) as usize;
        let events = rng.range(1, 4_999);
        let mut unit = PebsUnit::new(1, 7, capacity);
        let mut captured = 0u64;
        for i in 0..events {
            if unit.observe(i, 0, EventKind::L1DMiss, i) {
                captured += 1;
            }
        }
        assert_eq!(
            captured, events,
            "seed {seed}: interval 1 samples everything"
        );
        assert_eq!(
            unit.buffered() as u64 + unit.dropped(),
            events,
            "seed {seed}"
        );
    }
}

/// The composed system charges monitoring cycles if and only if it is
/// enabled and samples were taken.
#[test]
fn overhead_iff_samples() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let n = rng.range(1, 1_999);
        let interval = match rng.below(3) {
            0 => SamplingInterval::Off,
            1 => SamplingInterval::Fixed(64),
            _ => SamplingInterval::Fixed(1024),
        };
        let mut hpm = HpmSystem::new(HpmConfig {
            interval,
            ..HpmConfig::default()
        });
        let mut overhead = 0u64;
        for i in 0..n {
            overhead += hpm.on_event(0x4000_0000 + i, i, &miss(), i);
        }
        let s = hpm.stats();
        assert_eq!(overhead > 0, s.samples > 0, "seed {seed}");
        let expected_events = if matches!(interval, SamplingInterval::Off) {
            0
        } else {
            n
        };
        assert_eq!(s.events, expected_events, "seed {seed}");
    }
}

/// Poll always empties the kernel buffer and never fabricates samples.
#[test]
fn poll_conserves_samples() {
    for seed in 0..CASES {
        let n = Rng::new(seed).below(3_000);
        let mut hpm = HpmSystem::new(HpmConfig {
            interval: SamplingInterval::Fixed(16),
            buffer_capacity: 4096,
            ..HpmConfig::default()
        });
        for i in 0..n {
            hpm.on_event(i, i, &miss(), i);
        }
        let taken = hpm.stats().samples;
        let (batch, _) = hpm.poll(1_000_000);
        assert_eq!(
            batch.len() as u64 + hpm.stats().dropped,
            taken,
            "seed {seed}"
        );
        let (empty, _) = hpm.poll(2_000_000);
        assert!(empty.is_empty(), "seed {seed}");
    }
}
