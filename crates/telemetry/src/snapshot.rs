//! Point-in-time telemetry snapshots: capture and export.
//!
//! A [`TelemetrySnapshot`] freezes every metric plus the retained
//! event trace at one simulated-clock instant. Snapshots have two
//! export formats: hand-rolled JSON ([`TelemetrySnapshot::to_json`])
//! and a human-readable table ([`TelemetrySnapshot::render_text`]).

use crate::hist::{bucket_le, HistogramId, HistogramSnapshot};
use crate::json::JsonWriter;
use crate::metrics::MetricId;
use crate::provenance::DecisionRecord;
use crate::trace::{TraceEvent, TraceKind};

/// Frozen copy of the registry, histograms, trace, and provenance log
/// at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Simulated cycle at which the snapshot was taken.
    pub at_cycle: u64,
    /// Metric values, aligned with [`MetricId::ALL`].
    pub values: Vec<u64>,
    /// Histogram states, aligned with [`HistogramId::ALL`].
    pub hists: Vec<HistogramSnapshot>,
    /// Retained trace events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Trace events lost to ring wraparound before this snapshot.
    pub dropped_events: u64,
    /// Retained decision-provenance records, oldest first.
    pub decisions: Vec<DecisionRecord>,
    /// Provenance records lost to wraparound before this snapshot.
    pub decisions_dropped: u64,
}

impl TelemetrySnapshot {
    /// An all-zero snapshot (what [`crate::Telemetry::disabled`]
    /// produces).
    pub fn empty() -> Self {
        Self {
            at_cycle: 0,
            values: vec![0; MetricId::COUNT],
            hists: vec![HistogramSnapshot::empty(); HistogramId::COUNT],
            events: Vec::new(),
            dropped_events: 0,
            decisions: Vec::new(),
            decisions_dropped: 0,
        }
    }

    /// Value of one metric in this snapshot.
    pub fn get(&self, id: MetricId) -> u64 {
        self.values[id as usize]
    }

    /// One histogram's state in this snapshot.
    pub fn hist(&self, id: HistogramId) -> &HistogramSnapshot {
        &self.hists[id as usize]
    }

    /// Serialize the snapshot as a JSON object:
    /// `{ "at_cycle", "metrics": {name: value, …}, "histograms":
    /// {name: {count, sum, buckets: [{le, count}, …]}, …},
    /// "dropped_events", "events": [{"cycle", "type", …payload}],
    /// "decisions_dropped", "decisions": […] }`. Key order follows
    /// the static declaration tables, so output is byte-stable.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Write the snapshot object at the writer's current value
    /// position (top level or after [`JsonWriter::key`]).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object_value();
        w.field_u64("at_cycle", self.at_cycle);
        w.key("metrics").object_value();
        for &id in MetricId::ALL {
            w.field_u64(id.name(), self.get(id));
        }
        w.end_object();
        w.key("histograms").object_value();
        for &id in HistogramId::ALL {
            let hist = &self.hists[id as usize];
            w.key(id.name()).object_value();
            w.field_u64("count", hist.count());
            w.field_u64("sum", hist.sum);
            w.key("buckets").array_value();
            // Only buckets with observations; `le` makes each
            // self-describing, and the export stays compact.
            for (i, &count) in hist.buckets.iter().enumerate() {
                if count > 0 {
                    w.begin_object();
                    w.field_str("le", &bucket_le(i));
                    w.field_u64("count", count);
                    w.end_object();
                }
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        w.field_u64("dropped_events", self.dropped_events);
        w.key("events").array_value();
        for event in &self.events {
            write_event(w, event);
        }
        w.end_array();
        w.field_u64("decisions_dropped", self.decisions_dropped);
        w.key("decisions").array_value();
        for decision in &self.decisions {
            write_decision(w, decision);
        }
        w.end_array();
        w.end_object();
    }

    /// Render the snapshot as an aligned, grouped plain-text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("telemetry @ cycle {}\n", self.at_cycle));
        let mut last_ns = "";
        let width = MetricId::ALL
            .iter()
            .map(|id| id.name().len())
            .max()
            .unwrap_or(0);
        for &id in MetricId::ALL {
            let ns = id.name().split('.').next().unwrap_or("");
            if ns != last_ns {
                out.push_str(&format!("  [{ns}]\n"));
                last_ns = ns;
            }
            out.push_str(&format!(
                "    {:<width$}  {}\n",
                id.name(),
                self.get(id),
                width = width
            ));
        }
        let live: Vec<HistogramId> = HistogramId::ALL
            .iter()
            .copied()
            .filter(|&id| self.hists[id as usize].count() > 0)
            .collect();
        if !live.is_empty() {
            out.push_str("  [histograms]\n");
            for id in live {
                let h = &self.hists[id as usize];
                out.push_str(&format!(
                    "    {:<width$}  count={} mean={:.1}\n",
                    id.name(),
                    h.count(),
                    h.mean(),
                    width = width
                ));
            }
        }
        out.push_str(&format!(
            "  trace: {} event(s) retained, {} dropped\n",
            self.events.len(),
            self.dropped_events
        ));
        for event in &self.events {
            out.push_str(&format!(
                "    cycle {:>12}  {}\n",
                event.cycle,
                describe_event(&event.kind)
            ));
        }
        if !self.decisions.is_empty() || self.decisions_dropped > 0 {
            out.push_str(&format!(
                "  provenance: {} decision(s) retained, {} dropped\n",
                self.decisions.len(),
                self.decisions_dropped
            ));
        }
        out
    }
}

fn write_decision(w: &mut JsonWriter, d: &DecisionRecord) {
    w.begin_object();
    w.field_u64("cycle", d.cycle);
    w.field_u64("class", u64::from(d.class));
    if d.field == u32::MAX {
        w.key("field").str_value("*");
    } else {
        w.field_u64("field", u64::from(d.field));
    }
    w.field_str("action", d.action);
    w.field_u64("field_misses", d.field_misses);
    w.field_u64("threshold", d.threshold);
    w.field_u64("gap_bytes", d.gap_bytes);
    w.key("witnesses").array_value();
    for wit in &d.witnesses {
        w.begin_object();
        w.field_u64("pc", wit.pc);
        w.field_u64("method", u64::from(wit.method));
        w.field_u64("bytecode_index", u64::from(wit.bytecode_index));
        w.field_u64("cycle", wit.cycle);
        w.end_object();
    }
    w.end_array();
    if let Some(fb) = &d.feedback {
        w.key("feedback").object_value();
        w.field_f64("baseline_rate", fb.baseline_rate);
        w.field_f64("observed_rate", fb.observed_rate);
        w.field_f64("tolerance", fb.tolerance);
        w.field_u64("regressing_periods", fb.regressing_periods);
        w.end_object();
    }
    w.end_object();
}

fn write_event(w: &mut JsonWriter, event: &TraceEvent) {
    w.begin_object();
    w.field_u64("cycle", event.cycle);
    w.field_str("type", event.kind.name());
    match &event.kind {
        TraceKind::PollCompleted {
            samples,
            attributed,
        } => {
            w.field_u64("samples", *samples);
            w.field_u64("attributed", *attributed);
        }
        TraceKind::BufferOverflow { dropped } => {
            w.field_u64("dropped", *dropped);
        }
        TraceKind::GcCollection {
            major,
            promoted_bytes,
        } => {
            w.field_bool("major", *major);
            w.field_u64("promoted_bytes", *promoted_bytes);
        }
        TraceKind::Recompilation { method, tier } => {
            w.field_u64("method", u64::from(*method));
            w.field_str("tier", tier);
        }
        TraceKind::Deopt { method } => {
            w.field_u64("method", u64::from(*method));
        }
        TraceKind::CodeEviction {
            method,
            tier,
            epoch,
            evicted,
        } => {
            w.field_u64("method", u64::from(*method));
            w.field_str("tier", tier);
            w.field_u64("epoch", *epoch);
            w.field_bool("evicted", *evicted);
        }
        TraceKind::CoallocDecision {
            class,
            field,
            action,
        } => {
            w.field_u64("class", u64::from(*class));
            w.field_u64("field", u64::from(*field));
            w.field_str("action", action);
        }
        TraceKind::PhaseChange { miss_rate_ppm } => {
            w.field_u64("miss_rate_ppm", *miss_rate_ppm);
        }
        TraceKind::WarmStart {
            seeded_fields,
            seeded_decisions,
        } => {
            w.field_u64("seeded_fields", *seeded_fields);
            w.field_u64("seeded_decisions", *seeded_decisions);
        }
    }
    w.end_object();
}

fn describe_event(kind: &TraceKind) -> String {
    match kind {
        TraceKind::PollCompleted {
            samples,
            attributed,
        } => {
            format!("poll_completed samples={samples} attributed={attributed}")
        }
        TraceKind::BufferOverflow { dropped } => format!("buffer_overflow dropped={dropped}"),
        TraceKind::GcCollection {
            major,
            promoted_bytes,
        } => format!(
            "gc_collection kind={} promoted_bytes={promoted_bytes}",
            if *major { "major" } else { "minor" }
        ),
        TraceKind::Recompilation { method, tier } => {
            format!("recompilation method={method} tier={tier}")
        }
        TraceKind::Deopt { method } => format!("deopt method={method}"),
        TraceKind::CodeEviction {
            method,
            tier,
            epoch,
            evicted,
        } => format!(
            "code_eviction method={method} tier={tier} epoch={epoch} cause={}",
            if *evicted { "capacity" } else { "replaced" }
        ),
        TraceKind::CoallocDecision {
            class,
            field,
            action,
        } => format!("coalloc_decision class={class} field={field} action={action}"),
        TraceKind::PhaseChange { miss_rate_ppm } => {
            format!("phase_change miss_rate_ppm={miss_rate_ppm}")
        }
        TraceKind::WarmStart {
            seeded_fields,
            seeded_decisions,
        } => {
            format!("warm_start seeded_fields={seeded_fields} seeded_decisions={seeded_decisions}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_contains_all_metric_names() {
        let snap = TelemetrySnapshot::empty();
        let json = snap.to_json();
        for &id in MetricId::ALL {
            assert!(json.contains(id.name()), "missing {}", id.name());
        }
    }

    #[test]
    fn text_render_groups_namespaces() {
        let snap = TelemetrySnapshot::empty();
        let text = snap.render_text();
        for ns in ["[hpm]", "[memsim]", "[gc]", "[vm]", "[core]"] {
            assert!(text.contains(ns), "missing {ns}");
        }
    }

    #[test]
    fn json_includes_histograms_and_decisions() {
        use crate::provenance::{DecisionRecord, FeedbackChain, SampleWitness};

        let mut snap = TelemetrySnapshot::empty();
        snap.hists[HistogramId::GcMinorPauseCycles as usize].buckets[3] = 2;
        snap.hists[HistogramId::GcMinorPauseCycles as usize].sum = 13;
        snap.decisions.push(DecisionRecord {
            cycle: 500,
            class: 1,
            field: u32::MAX,
            action: "reverted",
            field_misses: 0,
            threshold: 4,
            gap_bytes: 0,
            witnesses: vec![SampleWitness {
                pc: 7,
                method: 2,
                bytecode_index: 9,
                cycle: 100,
            }],
            feedback: Some(FeedbackChain {
                baseline_rate: 1.0,
                observed_rate: 2.5,
                tolerance: 1.5,
                regressing_periods: 3,
            }),
        });
        let json = snap.to_json();
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"gc.minor_pause_cycles\""));
        assert!(json.contains("\"le\": \"8\""));
        assert!(json.contains("\"field\": \"*\""));
        assert!(json.contains("\"observed_rate\": 2.5"));
        assert!(json.contains("\"bytecode_index\": 9"));
    }
}
