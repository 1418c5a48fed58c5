//! Integration tests for the adaptive poll-period boundaries and the
//! `hpm.*` telemetry flowing out of [`HpmSystem`].

use hpmopt_hpm::{CollectorThread, HpmConfig, HpmSystem, SamplingInterval};
use hpmopt_memsim::AccessOutcome;
use hpmopt_telemetry::{MetricId, Telemetry, TraceKind};

const HZ: u64 = 3_000_000_000;
const MS: u64 = HZ / 1000;

fn miss() -> AccessOutcome {
    AccessOutcome {
        cycles: 20,
        l1_miss: true,
        ..AccessOutcome::default()
    }
}

#[test]
fn period_never_leaves_the_10ms_1000ms_band() {
    let mut t = CollectorThread::new(HZ);
    // Alternate hot and cold polls in every order; the period must stay
    // within [10 ms, 1000 ms] at every step.
    let fills: [u8; 12] = [90, 90, 90, 90, 0, 0, 0, 0, 0, 0, 0, 90];
    let mut cycles = 0;
    for fill in fills {
        t.after_poll(fill, cycles);
        assert!(
            t.period_cycles() >= 10 * MS,
            "below floor: {}",
            t.period_ms()
        );
        assert!(
            t.period_cycles() <= 1000 * MS,
            "above ceiling: {}",
            t.period_ms()
        );
        cycles += t.period_cycles();
    }
}

#[test]
fn repeated_hot_polls_clamp_at_floor_then_back_off() {
    let mut t = CollectorThread::new(HZ);
    for _ in 0..20 {
        t.after_poll(100, 0);
    }
    assert_eq!(t.period_ms(), 10);
    // One cold poll doubles the floor period, 20 clamp at the ceiling.
    t.after_poll(0, 0);
    assert_eq!(t.period_ms(), 20);
    for _ in 0..20 {
        t.after_poll(0, 0);
    }
    assert_eq!(t.period_ms(), 1000);
}

#[test]
fn next_poll_at_is_monotonic_under_an_advancing_clock() {
    let mut t = CollectorThread::new(HZ);
    let mut cycles = 0;
    let mut last_deadline = t.next_poll_at();
    for (i, fill) in [0u8, 90, 30, 0, 90, 90, 0, 30].iter().enumerate() {
        // Poll at (or after) the deadline, as the VM slow path does.
        cycles = t.next_poll_at() + i as u64;
        t.after_poll(*fill, cycles);
        assert!(
            t.next_poll_at() > cycles,
            "deadline must be in the future: {} <= {cycles}",
            t.next_poll_at()
        );
        assert!(
            t.next_poll_at() >= last_deadline,
            "deadline moved backwards: {} < {last_deadline}",
            t.next_poll_at()
        );
        last_deadline = t.next_poll_at();
    }
    assert!(cycles > 0);
}

#[test]
fn due_agrees_with_next_poll_at() {
    let mut t = CollectorThread::new(HZ);
    t.after_poll(30, 5 * MS);
    let deadline = t.next_poll_at();
    assert!(!t.due(deadline - 1));
    assert!(t.due(deadline));
    assert!(t.due(deadline + 1));
}

#[test]
fn poll_telemetry_matches_stats_and_collector_state() {
    let telemetry = Telemetry::enabled(64);
    let mut hpm = HpmSystem::new(HpmConfig {
        interval: SamplingInterval::Fixed(1),
        ..HpmConfig::default()
    });
    hpm.set_telemetry(telemetry.clone());
    for i in 0..10u64 {
        hpm.on_event(0x4000_0000 + i, i * 64, &miss(), i);
    }
    let drained = hpm.poll(1_000_000).0.len() as u64;

    let snap = telemetry.snapshot(1_000_000);
    let stats = hpm.stats();
    assert_eq!(snap.get(MetricId::HpmEvents), stats.events);
    assert_eq!(snap.get(MetricId::HpmSamplesGenerated), stats.samples);
    assert_eq!(snap.get(MetricId::HpmSamplesDrained), drained);
    assert_eq!(snap.get(MetricId::HpmPolls), 1);
    assert_eq!(
        snap.get(MetricId::HpmPollPeriodMs),
        hpm.collector().period_ms()
    );
    assert_eq!(
        snap.get(MetricId::HpmSamplingInterval),
        hpm.current_interval()
    );
    assert_eq!(snap.get(MetricId::HpmBufferOverflows), 0);
}

#[test]
fn overflow_surfaces_as_counter_and_trace_event() {
    let telemetry = Telemetry::enabled(64);
    let mut hpm = HpmSystem::new(HpmConfig {
        interval: SamplingInterval::Fixed(1),
        buffer_capacity: 8,
        ..HpmConfig::default()
    });
    hpm.set_telemetry(telemetry.clone());
    for i in 0..100u64 {
        hpm.on_event(0x4000_0000, i * 64, &miss(), i);
    }
    hpm.poll(7_777);

    let snap = telemetry.snapshot(7_777);
    let dropped = hpm.stats().dropped;
    assert!(dropped > 0);
    assert_eq!(snap.get(MetricId::HpmSamplesDropped), dropped);
    assert_eq!(snap.get(MetricId::HpmBufferOverflows), 1);
    let overflow_events: Vec<_> = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::BufferOverflow { .. }))
        .collect();
    assert_eq!(overflow_events.len(), 1);
    assert_eq!(overflow_events[0].cycle, 7_777);
    assert_eq!(
        overflow_events[0].kind,
        TraceKind::BufferOverflow { dropped }
    );
}
