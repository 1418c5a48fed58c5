//! Integration tests: ring wraparound accounting (including the
//! `telemetry.trace_dropped` self-metric) and a JSON round-trip through
//! the crate's own reader ([`hpmopt_telemetry::read`]).

use hpmopt_telemetry::read::{parse, Value};
use hpmopt_telemetry::{HistogramId, MetricId, Telemetry, TraceKind};

// ---------------------------------------------------------------------
// Ring wraparound
// ---------------------------------------------------------------------

#[test]
fn wraparound_reports_exact_drop_count() {
    let capacity = 16;
    let telemetry = Telemetry::enabled(capacity);
    let pushed = 100u64;
    for i in 0..pushed {
        telemetry.record(
            i,
            TraceKind::PollCompleted {
                samples: i,
                attributed: 0,
            },
        );
    }
    let snap = telemetry.snapshot(pushed);
    assert_eq!(snap.events.len(), capacity);
    assert_eq!(snap.dropped_events, pushed - capacity as u64);
    // The loss is visible as a regular metric too, so it survives into
    // every export without special-casing.
    assert_eq!(
        snap.get(MetricId::TelemetryTraceDropped),
        snap.dropped_events
    );
    // The survivors are exactly the newest `capacity` events, in order.
    let cycles: Vec<u64> = snap.events.iter().map(|e| e.cycle).collect();
    let expected: Vec<u64> = (pushed - capacity as u64..pushed).collect();
    assert_eq!(cycles, expected);
}

// ---------------------------------------------------------------------
// JSON round-trip through the crate's own reader
// ---------------------------------------------------------------------

#[test]
fn snapshot_json_round_trips_through_a_real_parser() {
    let telemetry = Telemetry::enabled(8);
    telemetry.add(MetricId::HpmSamplesGenerated, 566);
    telemetry.add(MetricId::MemsimL1Misses, 150_227);
    telemetry.set_gauge(MetricId::HpmPollPeriodMs, 160);
    telemetry.observe(HistogramId::GcMinorPauseCycles, 2_048);
    telemetry.record(
        2_399_380,
        TraceKind::GcCollection {
            major: false,
            promoted_bytes: 262_112,
        },
    );
    telemetry.record(
        7_007_050,
        TraceKind::CoallocDecision {
            class: 0,
            field: 0,
            action: "enabled",
        },
    );
    telemetry.record(
        10_199_996,
        TraceKind::Recompilation {
            method: 2,
            tier: "opt",
        },
    );
    let snap = telemetry.snapshot(81_229_847);

    let parsed = parse(&snap.to_json()).expect("snapshot JSON must parse");

    assert_eq!(parsed.get("at_cycle").as_u64(), snap.at_cycle);
    assert_eq!(parsed.get("dropped_events").as_u64(), 0);
    let metrics = parsed.get("metrics");
    for &id in MetricId::ALL {
        assert_eq!(
            metrics.get(id.name()).as_u64(),
            snap.get(id),
            "metric {} did not survive the round trip",
            id.name()
        );
    }
    let gc_hist = parsed.get("histograms").get("gc.minor_pause_cycles");
    assert_eq!(gc_hist.get("count").as_u64(), 1);
    assert_eq!(gc_hist.get("sum").as_u64(), 2_048);
    let buckets = gc_hist.get("buckets").as_array();
    assert_eq!(buckets.len(), 1);
    assert_eq!(buckets[0].get("le").as_str(), "2048");
    let events = parsed.get("events").as_array();
    assert_eq!(events.len(), 3);
    assert_eq!(events[0].get("type"), &Value::Str("gc_collection".into()));
    assert_eq!(events[0].get("major"), &Value::Bool(false));
    assert_eq!(events[0].get("promoted_bytes").as_u64(), 262_112);
    assert_eq!(events[1].get("action"), &Value::Str("enabled".into()));
    assert_eq!(events[2].get("type"), &Value::Str("recompilation".into()));
    assert_eq!(events[2].get("tier"), &Value::Str("opt".into()));
    assert_eq!(events[2].get("cycle").as_u64(), 10_199_996);
    assert_eq!(parsed.get("decisions_dropped").as_u64(), 0);
    assert!(parsed.get("decisions").as_array().is_empty());
}

#[test]
fn parser_handles_escaped_strings() {
    let v = parse(r#"{"a": "x\"y\\z\n", "b": [1, 2.5, true]}"#).unwrap();
    assert_eq!(v.get("a"), &Value::Str("x\"y\\z\n".into()));
    let items = v.get("b").as_array();
    assert_eq!(items[1], Value::Number(2.5));
    assert_eq!(items[2], Value::Bool(true));
}
