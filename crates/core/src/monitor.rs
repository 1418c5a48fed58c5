//! Online monitoring: batch sample processing and per-field miss
//! accounting.
//!
//! "Samples from the HPM unit are buffered and processed in batches
//! inside the VM: a sample is attributed to a reference field f if the
//! source instruction S is among the instructions of interest ... The
//! rate of events for each reference field is measured throughout the
//! execution and this allows detecting phase changes ... or checking
//! whether an optimization decision ... had a positive or a negative
//! impact." (Section 5.3)

use std::collections::{BTreeMap, BTreeSet};

use hpmopt_bytecode::{ClassId, FieldId, MethodId, Program};
use hpmopt_hpm::Sample;
use hpmopt_telemetry::{MetricId, SampleWitness, Telemetry};
use hpmopt_vm::machine::{CompiledCode, Tier};

use crate::interest::{analyze_method, InterestMap};
use crate::mapping::{ResolveFailure, SampleResolver};

/// Where samples ended up during batch processing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttributionStats {
    /// Attributed to a reference field via an `(S, f)` tuple.
    pub attributed: u64,
    /// Resolved to a bytecode that is not an instruction of interest
    /// (or in a non-opt method, which the paper excludes).
    pub uninteresting: u64,
    /// PC had no map entry (opt code without the full-map extension).
    pub unmapped: u64,
    /// PC outside the VM code space (dropped immediately).
    pub foreign: u64,
    /// Captured in code the bounded cache freed before the sample was
    /// processed (epoch mismatch). Dropped, never misattributed to the
    /// range's new tenant.
    pub stale: u64,
}

impl AttributionStats {
    /// Total samples processed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.attributed + self.uninteresting + self.unmapped + self.foreign + self.stale
    }

    /// Fraction of samples attributed to a field (0 when idle).
    #[must_use]
    pub fn attribution_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.attributed as f64 / self.total() as f64
        }
    }
}

/// One point of a per-field time series: cumulative sampled misses at a
/// poll boundary (the stepwise-constant curves of Figure 7 come from this
/// batch grain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Cycle time of the poll.
    pub cycles: u64,
    /// Cumulative sampled misses attributed to the field.
    pub total: u64,
}

/// Monitoring-cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Cycles to process one sample (method lookup, map walk, counter
    /// update).
    pub cycles_per_sample: u64,
    /// Fixed cycles per batch.
    pub cycles_per_batch: u64,
    /// Record per-field time series for watched fields.
    pub record_series: bool,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            cycles_per_sample: 150,
            cycles_per_batch: 500,
            record_series: true,
        }
    }
}

/// The monitoring module.
#[derive(Debug, Clone, Default)]
struct FieldCounter {
    total: u64,
    window: u64,
}

/// Central sample-attribution bookkeeping.
#[derive(Debug, Clone)]
pub struct OnlineMonitor {
    config: MonitorConfig,
    resolver: SampleResolver,
    interest: BTreeMap<MethodId, InterestMap>,
    counters: BTreeMap<FieldId, FieldCounter>,
    attribution: AttributionStats,
    watched: BTreeSet<FieldId>,
    series: BTreeMap<FieldId, Vec<SeriesPoint>>,
    batches: u64,
    telemetry: Telemetry,
}

impl OnlineMonitor {
    /// Create an empty monitor.
    #[must_use]
    pub fn new(config: MonitorConfig) -> Self {
        OnlineMonitor {
            config,
            resolver: SampleResolver::new(),
            interest: BTreeMap::new(),
            counters: BTreeMap::new(),
            attribution: AttributionStats::default(),
            watched: BTreeSet::new(),
            series: BTreeMap::new(),
            batches: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle; `core.samples.*` attribution counters
    /// and `core.batches` flow into it from now on.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Register a (re)compiled artifact. Opt- and region-tier methods get
    /// the instructions-of-interest analysis (baseline methods are
    /// "rarely executed, otherwise they would be selected for
    /// re-compilation").
    pub fn register_artifact(&mut self, program: &Program, code: &CompiledCode) {
        if code.tier != Tier::Baseline {
            self.interest
                .entry(code.method)
                .or_insert_with(|| analyze_method(program, code.method));
        }
        self.resolver.register(code.clone());
    }

    /// Track a per-field time series for `field` (Figure 7).
    pub fn watch(&mut self, field: FieldId) {
        self.watched.insert(field);
        self.series.entry(field).or_default();
    }

    /// Process one batch of samples; returns the processing cost in
    /// cycles.
    pub fn process_batch(&mut self, samples: &[Sample], cycles: u64) -> u64 {
        for s in samples {
            match self.resolver.resolve(s.pc, s.epoch) {
                Err(ResolveFailure::ForeignPc) => {
                    self.attribution.foreign += 1;
                    self.telemetry.incr(MetricId::CoreSamplesForeign);
                }
                Err(ResolveFailure::Unmapped) => {
                    self.attribution.unmapped += 1;
                    self.telemetry.incr(MetricId::CoreSamplesUnmapped);
                }
                Err(ResolveFailure::Stale) => {
                    self.attribution.stale += 1;
                    self.telemetry.incr(MetricId::JitStaleSamples);
                }
                Ok(r) => {
                    let field = self
                        .interest
                        .get(&r.method)
                        .filter(|_| r.tier != Tier::Baseline)
                        .and_then(|m| m.field_for(r.bytecode_index));
                    match field {
                        Some(f) => {
                            self.attribution.attributed += 1;
                            self.telemetry.incr(MetricId::CoreSamplesAttributed);
                            // The provenance evidence: this sample's PC
                            // resolved through the MC map to this
                            // `(method, bytecode)` site and incremented
                            // this field's miss counter.
                            self.telemetry.witness_sample(
                                f.0,
                                SampleWitness {
                                    pc: s.pc,
                                    method: r.method.0,
                                    bytecode_index: r.bytecode_index,
                                    cycle: s.cycles,
                                },
                            );
                            let c = self.counters.entry(f).or_default();
                            c.total += 1;
                            c.window += 1;
                        }
                        None => {
                            self.attribution.uninteresting += 1;
                            self.telemetry.incr(MetricId::CoreSamplesUninteresting);
                        }
                    }
                }
            }
        }
        self.batches += 1;
        self.telemetry.incr(MetricId::CoreBatches);
        if self.config.record_series {
            for &f in &self.watched {
                let total = self.counters.get(&f).map_or(0, |c| c.total);
                self.series
                    .get_mut(&f)
                    .expect("watched fields have series")
                    .push(SeriesPoint { cycles, total });
            }
        }
        self.config.cycles_per_batch + samples.len() as u64 * self.config.cycles_per_sample
    }

    /// Seed a field's cumulative miss count from a persisted profile
    /// (warm start). Only the `total` is touched: the window counter
    /// feeds the feedback assessor, which must judge decisions on
    /// *this* run's behavior, not history.
    pub fn seed_total(&mut self, field: FieldId, misses: u64) {
        self.counters.entry(field).or_default().total += misses;
    }

    /// Per-field sampled misses since the previous call; resets the
    /// window counters (the feedback period grain).
    pub fn take_window(&mut self) -> BTreeMap<FieldId, u64> {
        let mut out = BTreeMap::new();
        for (&f, c) in &mut self.counters {
            if c.window > 0 {
                out.insert(f, c.window);
                c.window = 0;
            }
        }
        out
    }

    /// Cumulative sampled misses for `field`.
    #[must_use]
    pub fn total(&self, field: FieldId) -> u64 {
        self.counters.get(&field).map_or(0, |c| c.total)
    }

    /// All per-field totals, descending.
    #[must_use]
    pub fn field_totals(&self) -> Vec<(FieldId, u64)> {
        let mut v: Vec<(FieldId, u64)> = self.counters.iter().map(|(&f, c)| (f, c.total)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// "The VM keeps a list of the reference fields for each class type
    /// sorted by number of associated cache misses": the hottest field per
    /// class with its count.
    #[must_use]
    pub fn hottest_field_per_class(&self, program: &Program) -> BTreeMap<ClassId, (FieldId, u64)> {
        let mut best: BTreeMap<ClassId, (FieldId, u64)> = BTreeMap::new();
        for (&f, c) in &self.counters {
            let class = program.field(f).class;
            let e = best.entry(class).or_insert((f, 0));
            if c.total > e.1 {
                *e = (f, c.total);
            }
        }
        best
    }

    /// Attribution statistics.
    #[must_use]
    pub fn attribution(&self) -> AttributionStats {
        self.attribution
    }

    /// Recorded series for a watched field.
    #[must_use]
    pub fn series(&self, field: FieldId) -> &[SeriesPoint] {
        self.series.get(&field).map_or(&[], Vec::as_slice)
    }

    /// Batches processed so far.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Retire the artifact at `code_start` (the code cache freed its
    /// range). Samples landing in it resolve [`ResolveFailure::Stale`]
    /// until [`OnlineMonitor::forget_retired`].
    pub fn retire_artifact(&mut self, code_start: u64) {
        self.resolver.retire(code_start);
    }

    /// Forget the ranges retired so far; call only after every sample
    /// captured before their frees has been processed (see
    /// [`SampleResolver::forget_retired`]).
    pub fn forget_retired(&mut self) {
        self.resolver.forget_retired();
    }

    /// The PC resolver (for diagnostics).
    #[must_use]
    pub fn resolver(&self) -> &SampleResolver {
        &self.resolver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
    use hpmopt_bytecode::FieldType;
    use hpmopt_memsim::EventKind;
    use hpmopt_vm::compiler::compile;

    fn program() -> (Program, FieldId) {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A", &[("y", FieldType::Ref), ("i", FieldType::Int)]);
        let y = pb.field_id(a, "y").unwrap();
        let i = pb.field_id(a, "i").unwrap();
        let mut m = MethodBuilder::new("main", 0, 1, false);
        m.new_object(a); // 0
        m.store(0); // 1
        m.load(0); // 2
        m.get_field(y); // 3
        m.get_field(i); // 4: of interest via y
        m.pop(); // 5
        m.ret(); // 6
        let id = pb.add_method(m);
        pb.set_entry(id);
        (pb.finish().unwrap(), y)
    }

    fn sample(pc: u64) -> Sample {
        Sample {
            pc,
            data_addr: 0x1000_0000,
            event: EventKind::L1DMiss,
            cycles: 0,
            epoch: 0,
        }
    }

    #[test]
    fn attributes_interest_samples_to_fields() {
        let (p, y) = program();
        let code = compile(&p, p.entry(), Tier::Opt, 0x4000_0000, true);
        let hot_pc = code.mem_pc(4);
        let cold_pc = code.mem_pc(3);
        let mut mon = OnlineMonitor::new(MonitorConfig::default());
        mon.register_artifact(&p, &code);

        let cost = mon.process_batch(&[sample(hot_pc), sample(hot_pc), sample(cold_pc)], 100);
        assert!(cost > 0);
        assert_eq!(mon.total(y), 2);
        let a = mon.attribution();
        assert_eq!(a.attributed, 2);
        assert_eq!(a.uninteresting, 1);
    }

    #[test]
    fn baseline_tier_samples_are_not_attributed() {
        let (p, y) = program();
        let code = compile(&p, p.entry(), Tier::Baseline, 0x4000_0000, true);
        let hot_pc = code.mem_pc(4);
        let mut mon = OnlineMonitor::new(MonitorConfig::default());
        mon.register_artifact(&p, &code);
        mon.process_batch(&[sample(hot_pc)], 0);
        assert_eq!(mon.total(y), 0);
        assert_eq!(mon.attribution().uninteresting, 1);
    }

    #[test]
    fn foreign_and_unmapped_samples_counted() {
        let (p, _) = program();
        let code = compile(&p, p.entry(), Tier::Opt, 0x4000_0000, false);
        let unmapped_pc = code.mem_pc(4);
        let mut mon = OnlineMonitor::new(MonitorConfig::default());
        mon.register_artifact(&p, &code);
        mon.process_batch(&[sample(0xdead), sample(unmapped_pc)], 0);
        let a = mon.attribution();
        assert_eq!(a.foreign, 1);
        assert_eq!(a.unmapped, 1);
        assert_eq!(a.attribution_rate(), 0.0);
    }

    #[test]
    fn window_resets_but_total_accumulates() {
        let (p, y) = program();
        let code = compile(&p, p.entry(), Tier::Opt, 0x4000_0000, true);
        let hot = code.mem_pc(4);
        let mut mon = OnlineMonitor::new(MonitorConfig::default());
        mon.register_artifact(&p, &code);
        mon.process_batch(&[sample(hot)], 0);
        assert_eq!(mon.take_window().get(&y), Some(&1));
        assert!(mon.take_window().is_empty(), "window was reset");
        mon.process_batch(&[sample(hot), sample(hot)], 1);
        assert_eq!(mon.take_window().get(&y), Some(&2));
        assert_eq!(mon.total(y), 3);
    }

    #[test]
    fn watched_fields_record_series() {
        let (p, y) = program();
        let code = compile(&p, p.entry(), Tier::Opt, 0x4000_0000, true);
        let hot = code.mem_pc(4);
        let mut mon = OnlineMonitor::new(MonitorConfig::default());
        mon.register_artifact(&p, &code);
        mon.watch(y);
        mon.process_batch(&[sample(hot)], 1000);
        mon.process_batch(&[sample(hot), sample(hot)], 2000);
        let s = mon.series(y);
        assert_eq!(s.len(), 2);
        assert_eq!(
            s[0],
            SeriesPoint {
                cycles: 1000,
                total: 1
            }
        );
        assert_eq!(
            s[1],
            SeriesPoint {
                cycles: 2000,
                total: 3
            }
        );
    }

    #[test]
    fn samples_in_freed_then_reused_ranges_go_stale_not_misattributed() {
        let (p, y) = program();
        let opt = compile(&p, p.entry(), Tier::Opt, 0x4000_0000, true);
        let hot_pc = opt.mem_pc(4);
        let mut mon = OnlineMonitor::new(MonitorConfig::default());
        mon.register_artifact(&p, &opt);

        // Epoch-0 sample in live opt code attributes normally.
        mon.process_batch(&[sample(hot_pc)], 0);
        assert_eq!(mon.total(y), 1);

        // The cache evicts the opt artifact (epoch 0 → 1) and reinstalls
        // the method as baseline code over the same range.
        mon.retire_artifact(0x4000_0000);
        let mut tenant = compile(&p, p.entry(), Tier::Baseline, 0x4000_0000, true);
        tenant.install_epoch = 1;
        mon.register_artifact(&p, &tenant);

        // A late sample captured before the free (epoch 0): counted as
        // stale, no field counter moves.
        let late = Sample {
            epoch: 0,
            ..sample(hot_pc)
        };
        mon.process_batch(&[late], 1);
        let a = mon.attribution();
        assert_eq!(a.stale, 1);
        assert_eq!(mon.total(y), 1, "stale sample attributed to nothing");

        // A fresh sample (epoch 1) resolves to the baseline tenant and is
        // merely uninteresting — never credited to the evicted opt code.
        mon.process_batch(&[sample_at_epoch(hot_pc, 1)], 2);
        let a = mon.attribution();
        assert_eq!(a.stale, 1);
        assert_eq!(a.uninteresting, 1);
        assert_eq!(mon.total(y), 1);
        assert_eq!(a.total(), 3);
    }

    fn sample_at_epoch(pc: u64, epoch: u64) -> Sample {
        Sample {
            epoch,
            ..sample(pc)
        }
    }

    #[test]
    fn hottest_field_per_class_picks_maximum() {
        let (p, y) = program();
        let class = p.field(y).class;
        let code = compile(&p, p.entry(), Tier::Opt, 0x4000_0000, true);
        let hot = code.mem_pc(4);
        let mut mon = OnlineMonitor::new(MonitorConfig::default());
        mon.register_artifact(&p, &code);
        mon.process_batch(&[sample(hot); 5], 0);
        let best = mon.hottest_field_per_class(&p);
        assert_eq!(best.get(&class), Some(&(y, 5)));
        assert_eq!(mon.field_totals(), vec![(y, 5)]);
    }
}
