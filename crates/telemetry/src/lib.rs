//! Workspace-wide telemetry: a metrics registry of cheap monotonic
//! counters and gauges, log2-bucket histograms with a simulated-clock
//! span API, a bounded structured event trace, a decision-provenance
//! audit trail, snapshot export (JSON and Prometheus text
//! exposition), and the cycle-bucket overhead accountant.
//!
//! The entry point is the [`Telemetry`] handle. It is clone-cheap
//! (an `Arc` internally), `Send + Sync`, and has two states:
//!
//! - [`Telemetry::enabled`] — counters land in a shared atomic
//!   registry and events in a drop-oldest ring;
//! - [`Telemetry::disabled`] — every operation early-returns on a
//!   `None`; no allocation, no atomics, no locking.
//!
//! Telemetry never charges *simulated* cycles: it observes the
//! simulation's clock but does not advance it, so enabling it cannot
//! perturb the experiment being measured.
//!
//! ```
//! use hpmopt_telemetry::{MetricId, Telemetry, TraceKind};
//!
//! let t = Telemetry::enabled(64);
//! t.incr(MetricId::HpmPolls);
//! t.record(
//!     1_000,
//!     TraceKind::PollCompleted { samples: 8, attributed: 7 },
//! );
//! let snap = t.snapshot(1_000);
//! assert_eq!(snap.get(MetricId::HpmPolls), 1);
//! assert_eq!(snap.events.len(), 1);
//!
//! let off = Telemetry::disabled();
//! off.incr(MetricId::HpmPolls); // no-op
//! assert!(!off.is_enabled());
//! ```

pub mod hist;
pub mod json;
pub mod metrics;
pub mod overhead;
pub mod prom;
pub mod provenance;
pub mod read;
pub mod snapshot;
pub mod trace;

pub use hist::{HistogramId, HistogramRegistry, HistogramSnapshot, HIST_BUCKETS};
pub use metrics::{MetricId, MetricKind, MetricsRegistry};
pub use overhead::CycleBuckets;
pub use provenance::{DecisionRecord, FeedbackChain, ProvenanceLog, SampleWitness};
pub use snapshot::TelemetrySnapshot;
pub use trace::{TraceEvent, TraceKind, TraceRing};

use provenance::DEFAULT_PROVENANCE_CAPACITY;
use std::sync::{Arc, Mutex};

/// Default number of trace events retained before drop-oldest kicks in.
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

struct Inner {
    registry: MetricsRegistry,
    hists: HistogramRegistry,
    trace: Mutex<TraceRing>,
    provenance: Mutex<ProvenanceLog>,
}

/// Shared handle to the telemetry sinks. See the crate docs.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Telemetry {
    /// The default handle is disabled, so plumbing a `Telemetry` field
    /// through existing config structs changes nothing until a caller
    /// opts in.
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    /// A live handle retaining up to `trace_capacity` events.
    pub fn enabled(trace_capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                registry: MetricsRegistry::new(),
                hists: HistogramRegistry::new(),
                trace: Mutex::new(TraceRing::new(trace_capacity)),
                provenance: Mutex::new(ProvenanceLog::new(DEFAULT_PROVENANCE_CAPACITY)),
            })),
        }
    }

    /// A no-op handle: every operation returns immediately.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `n` to a counter.
    pub fn add(&self, id: MetricId, n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.add(id, n);
        }
    }

    /// Increment a counter by one.
    pub fn incr(&self, id: MetricId) {
        self.add(id, 1);
    }

    /// Overwrite a gauge.
    pub fn set_gauge(&self, id: MetricId, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.set(id, value);
        }
    }

    /// Raise a gauge to `value` if below it (for monotonic syncs).
    pub fn set_gauge_max(&self, id: MetricId, value: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.set_max(id, value);
        }
    }

    /// Current value of one metric (0 when disabled).
    pub fn get(&self, id: MetricId) -> u64 {
        match &self.inner {
            Some(inner) => inner.registry.get(id),
            None => 0,
        }
    }

    /// Append a trace event stamped with the given simulated cycle.
    /// A drop-oldest eviction is surfaced through the
    /// [`MetricId::TelemetryTraceDropped`] counter.
    pub fn record(&self, cycle: u64, kind: TraceKind) {
        if let Some(inner) = &self.inner {
            let dropped = {
                let mut ring = inner.trace.lock().unwrap();
                ring.push(TraceEvent { cycle, kind })
            };
            if dropped {
                inner.registry.add(MetricId::TelemetryTraceDropped, 1);
            }
        }
    }

    /// Record one observation into a histogram.
    pub fn observe(&self, id: HistogramId, value: u64) {
        if let Some(inner) = &self.inner {
            inner.hists.observe(id, value);
        }
    }

    /// Open a simulated-clock span against a histogram; close it with
    /// [`Span::end`] to observe the elapsed cycles. Spans read the
    /// clock the caller hands them — they never advance it.
    #[must_use]
    pub fn span_at(&self, id: HistogramId, start_cycle: u64) -> Span {
        Span {
            telemetry: self.clone(),
            id,
            start_cycle,
        }
    }

    /// Retain an attributed sample as provenance evidence for later
    /// decisions on `field`.
    pub fn witness_sample(&self, field: u32, witness: SampleWitness) {
        if let Some(inner) = &self.inner {
            inner.provenance.lock().unwrap().witness(field, witness);
        }
    }

    /// Cycle of the first witnessed sample for `field`, if any.
    pub fn first_witness_cycle(&self, field: u32) -> Option<u64> {
        self.inner
            .as_ref()
            .and_then(|inner| inner.provenance.lock().unwrap().first_witness_cycle(field))
    }

    /// Append a decision to the provenance audit trail. Field-specific
    /// records with no witnesses attached pick up the field's retained
    /// witness samples automatically.
    pub fn record_decision(&self, record: DecisionRecord) {
        if let Some(inner) = &self.inner {
            inner.provenance.lock().unwrap().push(record);
        }
    }

    /// Fold a finished run's snapshot into this handle: counters add,
    /// gauges keep the maximum reading, and histogram buckets/sums
    /// add. This is how a fleet-level handle (the serve daemon's)
    /// aggregates the per-job telemetry of many isolated runtimes —
    /// each job records into its own handle, and the service absorbs
    /// the frozen result, so jobs never contend on shared atomics and
    /// the fleet totals stay deterministic per job set.
    pub fn absorb(&self, snap: &TelemetrySnapshot) {
        let Some(inner) = &self.inner else { return };
        for &id in MetricId::ALL {
            let v = snap.get(id);
            if v == 0 {
                continue;
            }
            match id.kind() {
                MetricKind::Counter => inner.registry.add(id, v),
                MetricKind::Gauge => inner.registry.set_max(id, v),
            }
        }
        for &id in HistogramId::ALL {
            let h = snap.hist(id);
            for (i, &count) in h.buckets.iter().enumerate() {
                if count > 0 {
                    // Replay the bucket at a representative value (its
                    // inclusive upper bound) `count` times' worth in one
                    // shot: bucket placement is exact, the sum is
                    // corrected below.
                    inner.hists.absorb_bucket(id, i, count);
                }
            }
            inner.hists.absorb_sum(id, h.sum);
        }
    }

    /// Freeze every metric, histogram, the retained trace, and the
    /// provenance log at `at_cycle`. Disabled handles return
    /// [`TelemetrySnapshot::empty`].
    pub fn snapshot(&self, at_cycle: u64) -> TelemetrySnapshot {
        match &self.inner {
            Some(inner) => {
                let ring = inner.trace.lock().unwrap();
                let provenance = inner.provenance.lock().unwrap();
                TelemetrySnapshot {
                    at_cycle,
                    values: inner.registry.read_all(),
                    hists: inner.hists.read_all(),
                    events: ring.to_vec(),
                    dropped_events: ring.dropped(),
                    decisions: provenance.records(),
                    decisions_dropped: provenance.dropped(),
                }
            }
            None => TelemetrySnapshot::empty(),
        }
    }
}

/// An open simulated-clock interval against a histogram. Created by
/// [`Telemetry::span_at`]; consumed by [`Span::end`], which observes
/// the saturating cycle delta. Dropping a span without ending it
/// observes nothing.
#[derive(Debug)]
pub struct Span {
    telemetry: Telemetry,
    id: HistogramId,
    start_cycle: u64,
}

impl Span {
    /// Simulated cycle at which the span opened.
    #[must_use]
    pub fn start_cycle(&self) -> u64 {
        self.start_cycle
    }

    /// Close the span at `at_cycle`, observing the elapsed cycles.
    pub fn end(self, at_cycle: u64) {
        self.telemetry
            .observe(self.id, at_cycle.saturating_sub(self.start_cycle));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.incr(MetricId::CoreBatches);
        t.set_gauge(MetricId::HpmPollPeriodMs, 99);
        t.record(5, TraceKind::BufferOverflow { dropped: 1 });
        let snap = t.snapshot(5);
        assert_eq!(snap, TelemetrySnapshot::empty());
        assert_eq!(t.get(MetricId::CoreBatches), 0);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::enabled(8);
        let u = t.clone();
        t.incr(MetricId::GcMinorCollections);
        u.incr(MetricId::GcMinorCollections);
        assert_eq!(t.get(MetricId::GcMinorCollections), 2);
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Telemetry>();
    }

    #[test]
    fn span_observes_elapsed_cycles() {
        let t = Telemetry::enabled(8);
        let span = t.span_at(HistogramId::CorePollGapCycles, 1_000);
        assert_eq!(span.start_cycle(), 1_000);
        span.end(1_500);
        // A span that ends "before" it started observes zero, not a
        // wrapped huge value.
        t.span_at(HistogramId::CorePollGapCycles, 700).end(600);
        let snap = t.snapshot(1_500);
        let h = &snap.hists[HistogramId::CorePollGapCycles as usize];
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum, 500);
    }

    #[test]
    fn trace_eviction_raises_dropped_counter() {
        let t = Telemetry::enabled(2);
        for c in 0..5 {
            t.record(c, TraceKind::BufferOverflow { dropped: 0 });
        }
        assert_eq!(t.get(MetricId::TelemetryTraceDropped), 3);
        let snap = t.snapshot(5);
        assert_eq!(snap.dropped_events, 3);
        assert_eq!(snap.get(MetricId::TelemetryTraceDropped), 3);
    }

    #[test]
    fn absorb_folds_counters_gauges_and_histograms() {
        let job = Telemetry::enabled(8);
        job.add(MetricId::GcMinorCollections, 3);
        job.set_gauge(MetricId::ProfileRuns, 7);
        job.observe(HistogramId::GcMinorPauseCycles, 100);
        job.observe(HistogramId::GcMinorPauseCycles, 5000);

        let fleet = Telemetry::enabled(8);
        fleet.add(MetricId::GcMinorCollections, 2);
        fleet.set_gauge(MetricId::ProfileRuns, 9);
        fleet.absorb(&job.snapshot(0));
        fleet.absorb(&job.snapshot(0));

        assert_eq!(fleet.get(MetricId::GcMinorCollections), 8);
        // Gauges take the max, not the sum.
        assert_eq!(fleet.get(MetricId::ProfileRuns), 9);
        let snap = fleet.snapshot(0);
        let h = snap.hist(HistogramId::GcMinorPauseCycles);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum, 10_200);

        // Absorbing into a disabled handle is a no-op, not a panic.
        Telemetry::disabled().absorb(&job.snapshot(0));
    }

    #[test]
    fn provenance_round_trips_through_snapshot() {
        let t = Telemetry::enabled(8);
        t.witness_sample(
            7,
            SampleWitness {
                pc: 0x4000_1234,
                method: 2,
                bytecode_index: 5,
                cycle: 900,
            },
        );
        assert_eq!(t.first_witness_cycle(7), Some(900));
        t.record_decision(DecisionRecord {
            cycle: 2_000,
            class: 1,
            field: 7,
            action: "enabled",
            field_misses: 12,
            threshold: 4,
            gap_bytes: 0,
            witnesses: Vec::new(),
            feedback: None,
        });
        let snap = t.snapshot(2_000);
        assert_eq!(snap.decisions.len(), 1);
        assert_eq!(snap.decisions[0].witnesses.len(), 1);
        assert_eq!(snap.decisions[0].witnesses[0].pc, 0x4000_1234);
        assert_eq!(snap.decisions_dropped, 0);

        let off = Telemetry::disabled();
        off.observe(HistogramId::GcMinorPauseCycles, 5);
        off.witness_sample(
            0,
            SampleWitness {
                pc: 0,
                method: 0,
                bytecode_index: 0,
                cycle: 0,
            },
        );
        assert_eq!(off.first_witness_cycle(0), None);
    }
}
