//! The composed runtime: VM + HPM + monitor + policy + feedback.
//!
//! [`HpmRuntime`] is the top of the stack: it executes a program on the
//! `hpmopt-vm` engine while implementing the VM's
//! [`RuntimeHooks`] with the full monitoring pipeline —
//! PEBS sampling on every heap access, collector-thread polling on the
//! simulated clock, batch attribution of samples to reference fields,
//! miss-driven co-allocation decisions for the collector, and
//! feedback-based reverting of decisions that hurt.

use std::collections::BTreeMap;

use hpmopt_bytecode::{ClassId, FieldId, MethodId, Program};
use hpmopt_gc::policy::{CoallocDecision, CoallocPolicy, NoCoalloc};
use hpmopt_gc::GcStats;
use hpmopt_hpm::{HpmConfig, HpmStats, HpmSystem};
use hpmopt_profile::{ColdReason, LoadOutcome, Profile, ProfileStore};
use hpmopt_telemetry::{
    CycleBuckets, DecisionRecord, FeedbackChain, HistogramId, MetricId, Telemetry, TraceKind,
};
use hpmopt_vm::machine::{CompiledCode, Tier};
use hpmopt_vm::{
    AccessContext, CancelToken, CodeRetired, CompilationPlan, RunSummary, RuntimeHooks, Vm,
    VmConfig, VmError,
};

use crate::feedback::{Assessor, FeedbackConfig, Verdict};
use crate::monitor::{AttributionStats, OnlineMonitor, SeriesPoint};
use crate::phases::PhaseDetector;
use crate::policy::{AdaptivePolicy, PolicyConfig, PolicyEvent};
use crate::warmstart::{self, ProfileOptions, Seeds};

/// The Figure 8 experiment: pin a deliberately bad placement (padding
/// between parent and child) at a given time and let the feedback loop
/// discover and revert it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForcedBadPlacement {
    /// Class whose decision is overridden.
    pub class: String,
    /// Reference field to (mis)co-allocate through.
    pub field: String,
    /// Padding between parent and child (one cache line in the paper).
    pub gap_bytes: u64,
    /// Cycle time at which the bad decision is installed.
    pub at_cycles: u64,
}

/// Full configuration of a monitored run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// VM configuration (heap, collector, memory, tiered JIT, plan,
    /// maps).
    pub vm: VmConfig,
    /// Monitoring configuration (event, sampling interval, buffers).
    pub hpm: HpmConfig,
    /// Whether miss-driven co-allocation is active.
    pub coalloc: bool,
    /// Decision thresholds.
    pub policy: PolicyConfig,
    /// Revert heuristic.
    pub feedback: FeedbackConfig,
    /// `(class, field)` pairs whose miss series to record (Figure 7).
    pub watch_fields: Vec<(String, String)>,
    /// Optional Figure 8 forced bad placement.
    pub forced_bad: Option<ForcedBadPlacement>,
    /// Persistent-profile repository settings (warm start + shutdown
    /// save). Disabled by default: the paper's system has no
    /// persistence.
    pub profile: ProfileOptions,
    /// Telemetry sink shared by every pipeline layer. Disabled by
    /// default, in which case all recording is a no-op.
    pub telemetry: Telemetry,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            vm: VmConfig::default(),
            hpm: HpmConfig::default(),
            coalloc: true,
            policy: PolicyConfig::default(),
            feedback: FeedbackConfig::default(),
            watch_fields: Vec::new(),
            forced_bad: None,
            profile: ProfileOptions::default(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Everything a monitored run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// VM-level summary (cycles, memory stats, GC stats, code sizes).
    pub vm: RunSummary,
    /// Monitoring statistics (events, samples, overhead cycles).
    pub hpm: HpmStats,
    /// Where samples went during attribution.
    pub attribution: AttributionStats,
    /// Per-field sampled-miss totals, hottest first, with resolved names.
    pub field_totals: Vec<(String, u64)>,
    /// The policy's decision log.
    pub policy_events: Vec<PolicyEvent>,
    /// Final co-allocation decisions as `(class, field)` names.
    pub decisions: Vec<(String, String)>,
    /// Per-watched-field cumulative miss series.
    pub series: Vec<(String, Vec<SeriesPoint>)>,
    /// Per-poll `(cycles, cumulative selected events)` — the global miss
    /// curve of Figure 7(b).
    pub event_series: Vec<(u64, u64)>,
    /// The sampling interval in force at the end (after auto adaptation).
    pub final_interval: u64,
    /// Whether a persisted profile warm-started this run.
    pub warm_start: bool,
    /// What *this* run measured (warm-start seeds subtracted), built
    /// whenever profile persistence or a shared-repository checkout is
    /// configured. A shared repository decay-merges this back on job
    /// completion; `None` when the run used no profile machinery.
    pub fresh_profile: Option<Profile>,
    /// Placement-independent digest of the program-visible end state
    /// (statics plus reachable heap contents,
    /// [`hpmopt_vm::Vm::state_digest`]). The stress engine's
    /// zero-perturbation oracle compares this between monitored and
    /// unmonitored runs.
    pub result_digest: u64,
}

impl RunReport {
    /// Collector statistics shortcut.
    #[must_use]
    pub fn gc(&self) -> &GcStats {
        &self.vm.gc
    }

    /// Simulated cycles until the first co-allocation decision was in
    /// force (enabled, warm-started, or pinned) — the "cycles to first
    /// optimization" metric. `None` when the run never decided.
    #[must_use]
    pub fn cycles_to_first_decision(&self) -> Option<u64> {
        self.policy_events
            .iter()
            .filter_map(|e| match *e {
                PolicyEvent::Enabled { cycles, .. }
                | PolicyEvent::WarmStarted { cycles, .. }
                | PolicyEvent::Pinned { cycles, .. } => Some(cycles),
                PolicyEvent::Reverted { .. } => None,
            })
            .min()
    }

    /// Number of reverts the feedback loop performed.
    #[must_use]
    pub fn revert_count(&self) -> usize {
        self.policy_events
            .iter()
            .filter(|e| matches!(e, PolicyEvent::Reverted { .. }))
            .count()
    }

    /// Split the run's total cycles into exclusive buckets: mutator,
    /// GC, sampling microcode, poll/drain, and recompilation.
    #[must_use]
    pub fn cycle_buckets(&self) -> CycleBuckets {
        CycleBuckets::from_run(
            self.cycles,
            self.vm.gc_cycles,
            self.hpm.sampling_cycles,
            self.vm.monitor_cycles,
            self.vm.compile_cycles,
        )
    }
}

/// The composed runtime.
#[derive(Debug, Clone)]
pub struct HpmRuntime {
    config: RunConfig,
}

impl HpmRuntime {
    /// Create a runtime with `config`.
    #[must_use]
    pub fn new(config: RunConfig) -> Self {
        HpmRuntime { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Execute `program` under monitoring.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] raised by the program.
    pub fn run(&self, program: &Program) -> Result<RunReport, VmError> {
        let mut monitor = OnlineMonitor::new();
        let mut watched = Vec::new();
        for (class_name, field_name) in &self.config.watch_fields {
            if let Some(f) = program
                .class_by_name(class_name)
                .and_then(|c| program.field_by_name(c, field_name))
            {
                monitor.watch(f);
                watched.push(f);
            }
        }
        let forced = self.config.forced_bad.as_ref().and_then(|fb| {
            let class = program.class_by_name(&fb.class)?;
            let field = program.field_by_name(class, &fb.field)?;
            Some(PendingPin {
                class,
                decision: CoallocDecision {
                    field_offset: program.field(field).offset,
                    gap_bytes: fb.gap_bytes,
                },
                at_cycles: fb.at_cycles,
                applied: false,
            })
        });

        let telemetry = self.config.telemetry.clone();
        monitor.set_telemetry(telemetry.clone());
        let mut hpm = HpmSystem::new(self.config.hpm);
        hpm.set_telemetry(telemetry.clone());

        // Warm start: consult the profile repository before the first
        // bytecode runs. A load can only ever degrade to a cold start —
        // a broken profile file (or a stale in-memory checkout) must
        // not break the run.
        let wants_profile = self.config.profile.path.is_some()
            || self.config.profile.checkout.is_some()
            || self.config.profile.report_fresh;
        let fingerprint = wants_profile.then(|| {
            warmstart::fingerprint(program, &self.config.vm, &self.config.profile.workload)
        });
        let store = self.config.profile.path.as_ref().map(ProfileStore::new);
        let mut prior: Option<Profile> = None;
        let mut seeds: Option<Seeds> = None;
        if let Some(fp) = &fingerprint {
            // An in-memory checkout (shared-repository mode) takes
            // precedence over the disk store.
            let outcome = match self.config.profile.checkout.clone() {
                Some(p) if p.fingerprint == *fp => LoadOutcome::Warm(p),
                Some(_) => LoadOutcome::Cold(ColdReason::FingerprintMismatch),
                None => match &store {
                    Some(s) => s.load(fp),
                    None => LoadOutcome::Cold(ColdReason::Missing),
                },
            };
            match outcome {
                LoadOutcome::Warm(p) => {
                    telemetry.incr(MetricId::ProfileWarmStarts);
                    seeds = Some(warmstart::compute_seeds(
                        program,
                        &p,
                        self.config.policy.min_field_misses,
                    ));
                    prior = Some(p);
                }
                LoadOutcome::Cold(reason) => {
                    telemetry.incr(MetricId::ProfileColdStarts);
                    telemetry.incr(match reason {
                        ColdReason::Missing => MetricId::ProfileLoadMissing,
                        ColdReason::Io(_) | ColdReason::Format(_) => MetricId::ProfileLoadCorrupt,
                        ColdReason::FingerprintMismatch => MetricId::ProfileLoadMismatch,
                    });
                }
            }
        }
        let warm_start = prior.is_some();

        let mut hooks = Hooks {
            hpm,
            monitor,
            policy: AdaptivePolicy::new(self.config.policy),
            assessor: Assessor::new(self.config.feedback),
            coalloc: self.config.coalloc,
            forced,
            seeds,
            seeded: Vec::new(),
            pinned: Vec::new(),
            rate_history: BTreeMap::new(),
            event_series: Vec::new(),
            last_period_cycles: 0,
            telemetry: telemetry.clone(),
            phases: PhaseDetector::new(),
            policy_events_emitted: 0,
            gc_seen: GcStats::default(),
            last_cycles: 0,
            baseline_cc: self.config.vm.baseline_compile_cycles_per_bc,
            opt_cc: self.config.vm.opt_compile_cycles_per_bc,
            last_poll_cycles: None,
            revert_ctx: BTreeMap::new(),
        };

        // Warm-start the tier decisions too: hot methods from the prior
        // run's profile fold into the compilation plan, so they enter at
        // opt tier on first execution instead of re-paying the tier-1
        // timer warm-up. Must happen before the VM is built — the plan
        // is consulted at first invocation.
        let mut vm_config = self.config.vm.clone();
        if let Some(s) = &hooks.seeds {
            if !s.hot_methods.is_empty() {
                let mut methods: Vec<MethodId> = vm_config
                    .plan
                    .as_ref()
                    .map(|p| p.methods().to_vec())
                    .unwrap_or_default();
                methods.extend_from_slice(&s.hot_methods);
                vm_config.plan = Some(CompilationPlan::new(methods));
            }
        }
        telemetry.set_gauge(
            MetricId::JitCacheCapacityBytes,
            vm_config.jit.code_cache_capacity_bytes.unwrap_or(0),
        );

        let mut vm = Vm::new(program, vm_config);
        let summary = vm.run(&mut hooks)?;
        let result_digest = vm.state_digest();
        sync_final_counters(&hooks, &summary);

        // Shutdown: build what *this* run measured (seeded history
        // subtracted). In disk mode it is decay-merged into the prior
        // profile and saved; in shared-repository mode the fresh
        // profile rides back on the report and the repository merges.
        let mut fresh_profile: Option<Profile> = None;
        if let Some(fp) = fingerprint {
            let mut totals = hooks.monitor.field_totals();
            for (f, n) in &mut totals {
                if let Some(&(_, s)) = hooks.seeded.iter().find(|(sf, _)| sf == f) {
                    *n = n.saturating_sub(s);
                }
            }
            let fresh = warmstart::build_profile(
                program,
                fp,
                &totals,
                hooks.policy.events(),
                &summary.opt_compiled,
            );
            if self.config.profile.save {
                if let Some(store) = &store {
                    let merged = match prior {
                        Some(mut p) => {
                            p.merge_run(&fresh, self.config.profile.decay);
                            p
                        }
                        None => fresh.clone(),
                    };
                    match store.save(&merged) {
                        Ok(_) => {
                            telemetry.incr(MetricId::ProfileSaves);
                            telemetry.set_gauge(MetricId::ProfileRuns, u64::from(merged.runs));
                        }
                        Err(_) => telemetry.incr(MetricId::ProfileSaveErrors),
                    }
                }
            }
            fresh_profile = Some(fresh);
        }

        let field_totals = hooks
            .monitor
            .field_totals()
            .into_iter()
            .map(|(f, n)| (program.field_name(f), n))
            .collect();
        let decisions = hooks
            .policy
            .decisions()
            .into_iter()
            .map(|(c, f)| (program.class(c).name().to_string(), program.field_name(f)))
            .collect();
        let series = watched
            .iter()
            .map(|&f| (program.field_name(f), hooks.monitor.series(f).to_vec()))
            .collect();

        Ok(RunReport {
            cycles: summary.cycles,
            hpm: hooks.hpm.stats(),
            attribution: hooks.monitor.attribution(),
            field_totals,
            policy_events: hooks.policy.events().to_vec(),
            decisions,
            series,
            event_series: hooks.event_series,
            final_interval: hooks.hpm.current_interval(),
            warm_start,
            fresh_profile,
            result_digest,
            vm: summary,
        })
    }

    /// Produce a pseudo-adaptive compilation plan (the paper's
    /// "pre-generated compilation plan") from one profiling run with the
    /// timer-driven AOS. The plan holds every method the tier-1 timer
    /// promoted, plus the program's entry, which drives every run even
    /// when the profiling run spent its samples in callees.
    ///
    /// With tier 2 off and an unbounded code cache no method ever leaves
    /// the opt tier, so once the plan holds every method of the program
    /// the rest of the run cannot change it: the run stops at its next
    /// poll. It runs to completion when tier 2 is on, when the cache is
    /// bounded, or when `vm` carries the caller's own cancel token, which
    /// is never cancelled here.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] from the profiling run. An error the
    /// program would raise after the run stopped early is not seen.
    pub fn generate_plan(program: &Program, vm: VmConfig) -> Result<CompilationPlan, VmError> {
        profile_plan(program, vm).map(|(plan, _)| plan)
    }
}

/// [`HpmRuntime::generate_plan`], also returning the profiling run's
/// summary as of its last bytecode.
fn profile_plan(
    program: &Program,
    mut vm: VmConfig,
) -> Result<(CompilationPlan, RunSummary), VmError> {
    vm.plan = None;
    vm.jit.tier1_enabled = true;
    let stop = (!vm.jit.tier2_enabled
        && vm.jit.code_cache_capacity_bytes.is_none()
        && vm.cancel.is_none())
    .then(CancelToken::new);
    if let Some(token) = &stop {
        vm.cancel = Some(token.clone());
    }
    let mut watch = PlanWatch::new(program, stop);
    let mut machine = Vm::new(program, vm);
    let summary = match machine.run(&mut watch) {
        Ok(summary) => summary,
        Err(VmError::Cancelled) if watch.stop.is_some() => machine.summary(),
        Err(e) => return Err(e),
    };
    let mut methods = summary.opt_compiled.clone();
    methods.push(program.entry());
    Ok((CompilationPlan::new(methods), summary))
}

/// Hooks of a plan-profiling run: cancel `stop` once the methods
/// installed at the opt tier, plus the entry, are every method of the
/// program.
struct PlanWatch {
    stop: Option<CancelToken>,
    planned: Vec<bool>,
}

impl PlanWatch {
    fn new(program: &Program, stop: Option<CancelToken>) -> Self {
        let mut planned = vec![false; program.methods().len()];
        planned[program.entry().0 as usize] = true;
        PlanWatch { stop, planned }
    }
}

impl RuntimeHooks for PlanWatch {
    fn on_compile(&mut self, _program: &Program, code: &CompiledCode) {
        let Some(stop) = &self.stop else {
            return;
        };
        if code.tier == Tier::Opt {
            self.planned[code.method.0 as usize] = true;
        }
        // Checked on every install, the entry's first one included, so a
        // program of one method stops at its first poll.
        if self.planned.iter().all(|&p| p) {
            stop.cancel();
        }
    }
}

/// Push the run's final aggregate statistics into the telemetry
/// registry. The `memsim.*` and residual `gc.*`/`vm.*` numbers are
/// kept by their subsystems (which stay telemetry-free) and exported
/// here in one go, so the snapshot taken after a run is exact.
fn sync_final_counters(hooks: &Hooks, summary: &RunSummary) {
    let t = &hooks.telemetry;
    let mem = &summary.mem;
    t.add(MetricId::MemsimL1Hits, mem.l1_hits);
    t.add(MetricId::MemsimL1Misses, mem.l1_misses);
    t.add(MetricId::MemsimL1Evictions, mem.l1_evictions);
    t.add(MetricId::MemsimL2Hits, mem.l2_hits);
    t.add(MetricId::MemsimL2Misses, mem.l2_misses);
    t.add(MetricId::MemsimL2Evictions, mem.l2_evictions);
    t.add(MetricId::MemsimDtlbHits, mem.dtlb_hits);
    t.add(MetricId::MemsimDtlbMisses, mem.dtlb_misses);
    t.add(MetricId::MemsimDtlbEvictions, mem.dtlb_evictions);

    // GC counters were advanced per collection in `on_gc`; cover any
    // allocation/promotion tail after the last collection callback.
    let gc = &summary.gc;
    let seen = &hooks.gc_seen;
    t.add(
        MetricId::GcMinorCollections,
        gc.minor_collections - seen.minor_collections,
    );
    t.add(
        MetricId::GcMajorCollections,
        gc.major_collections - seen.major_collections,
    );
    t.add(
        MetricId::GcPromotedBytes,
        gc.bytes_promoted - seen.bytes_promoted,
    );
    t.add(
        MetricId::GcCoallocatedBytes,
        gc.bytes_coallocated - seen.bytes_coallocated,
    );

    t.set_gauge(MetricId::VmCompileCycles, summary.compile_cycles);
}

/// Static tier label for trace payloads.
fn tier_name(tier: Tier) -> &'static str {
    match tier {
        Tier::Baseline => "baseline",
        Tier::Opt => "opt",
        Tier::Region => "region",
    }
}

#[derive(Debug, Clone)]
struct PendingPin {
    class: ClassId,
    decision: CoallocDecision,
    at_cycles: u64,
    applied: bool,
}

#[derive(Debug, Clone)]
struct Hooks {
    hpm: HpmSystem,
    monitor: OnlineMonitor,
    policy: AdaptivePolicy,
    assessor: Assessor,
    coalloc: bool,
    forced: Option<PendingPin>,
    /// Warm-start seed state, consumed by `on_startup`.
    seeds: Option<Seeds>,
    /// Counts actually seeded into the monitor, so the shutdown save
    /// can subtract history from the totals.
    seeded: Vec<(FieldId, u64)>,
    /// Classes whose active decision is a pin (revert = unpin).
    pinned: Vec<ClassId>,
    /// Recent per-class miss rates (misses per megacycle per period).
    rate_history: BTreeMap<ClassId, Vec<f64>>,
    event_series: Vec<(u64, u64)>,
    last_period_cycles: u64,
    telemetry: Telemetry,
    /// Global sampled-miss-rate change-point detector, fed per poll;
    /// boundaries become `phase_change` trace events.
    phases: PhaseDetector,
    /// Policy-log entries already exported as trace events.
    policy_events_emitted: usize,
    /// GC stats as of the previous `on_gc`, for per-collection deltas.
    gc_seen: GcStats,
    /// Most recent cycle stamp observed (for callbacks without a clock).
    last_cycles: u64,
    /// Per-bytecode compile costs from the VM config, mirroring what
    /// `Vm::install` charges (for the compile-cost histogram).
    baseline_cc: u64,
    opt_cc: u64,
    /// Cycle stamp of the previous poll (poll-gap histogram).
    last_poll_cycles: Option<u64>,
    /// Feedback evidence captured when a revert verdict fires, consumed
    /// when the matching `Reverted` policy event is exported into the
    /// provenance trail.
    revert_ctx: BTreeMap<ClassId, FeedbackChain>,
}

impl Hooks {
    fn baseline_rate(&self, class: ClassId) -> f64 {
        let h = self.rate_history.get(&class).map_or(&[][..], Vec::as_slice);
        let tail = &h[h.len().saturating_sub(5)..];
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        }
    }
}

impl RuntimeHooks for Hooks {
    fn on_startup(&mut self, program: &Program, cycles: u64) {
        let Some(seeds) = self.seeds.take() else {
            return;
        };
        for &(field, misses) in &seeds.counts {
            self.monitor.seed_total(field, misses);
        }
        // Decisions only matter when co-allocation is active; a control
        // run still seeds the monitor so its counters are comparable.
        let installed = if self.coalloc {
            for &(class, field) in &seeds.decisions {
                self.policy.warm_start(program, class, field, cycles);
            }
            seeds.decisions.len() as u64
        } else {
            0
        };
        self.telemetry
            .add(MetricId::ProfileSeededFields, seeds.counts.len() as u64);
        self.telemetry
            .add(MetricId::ProfileSeededDecisions, installed);
        self.telemetry.record(
            cycles,
            TraceKind::WarmStart {
                seeded_fields: seeds.counts.len() as u64,
                seeded_decisions: installed,
            },
        );
        self.seeded = seeds.counts;
    }

    fn on_access(&mut self, ctx: &AccessContext) -> u64 {
        self.last_cycles = ctx.cycles;
        self.hpm
            .on_event(ctx.pc, ctx.addr.0, &ctx.outcome, ctx.cycles)
    }

    fn on_compile(&mut self, program: &Program, code: &CompiledCode) {
        self.monitor.register_artifact(program, code);
        let (tier, per_bc) = match code.tier {
            Tier::Baseline => {
                self.telemetry.incr(MetricId::JitCompilesBaseline);
                ("baseline", self.baseline_cc)
            }
            Tier::Opt => {
                self.telemetry.incr(MetricId::JitCompilesOpt);
                ("opt", self.opt_cc)
            }
            Tier::Region => {
                self.telemetry.incr(MetricId::JitCompilesRegion);
                ("region", self.opt_cc)
            }
        };
        // Mirror of what `Vm::install` charges for this compilation.
        let cost = per_bc * program.method(code.method).len() as u64;
        self.telemetry
            .observe(HistogramId::JitCompileCostCycles, cost);
        self.telemetry
            .set_gauge_max(MetricId::JitCodeEpoch, code.install_epoch);
        self.telemetry.record(
            self.last_cycles,
            TraceKind::Recompilation {
                method: code.method.0,
                tier,
            },
        );
    }

    fn on_code_retired(&mut self, ev: &CodeRetired, cycles: u64) {
        self.last_cycles = cycles;
        // Stamp subsequent samples with the new epoch and take the
        // artifact out of resolution — the two halves of the
        // attribution-across-code-churn contract.
        self.hpm.set_code_epoch(ev.epoch);
        self.monitor.retire_artifact(ev.code_start);
        self.telemetry.incr(MetricId::JitCodeFrees);
        if ev.evicted {
            self.telemetry.incr(MetricId::JitEvictions);
        }
        self.telemetry
            .set_gauge(MetricId::JitCacheBytes, ev.cache_bytes);
        self.telemetry
            .set_gauge_max(MetricId::JitCodeEpoch, ev.epoch);
        self.telemetry.record(
            cycles,
            TraceKind::CodeEviction {
                method: ev.method.0,
                tier: tier_name(ev.tier),
                epoch: ev.epoch,
                evicted: ev.evicted,
            },
        );
    }

    fn on_deopt(&mut self, method: MethodId, _from_tier: Tier, cycles: u64) {
        self.last_cycles = cycles;
        self.telemetry.incr(MetricId::JitDeopts);
        self.telemetry
            .record(cycles, TraceKind::Deopt { method: method.0 });
    }

    fn on_gc(&mut self, stats: &GcStats, cycles: u64) {
        self.last_cycles = cycles;
        let minor = stats.minor_collections - self.gc_seen.minor_collections;
        let major = stats.major_collections - self.gc_seen.major_collections;
        self.telemetry.add(MetricId::GcMinorCollections, minor);
        self.telemetry.add(MetricId::GcMajorCollections, major);
        self.telemetry.add(
            MetricId::GcPromotedBytes,
            stats.bytes_promoted - self.gc_seen.bytes_promoted,
        );
        self.telemetry.add(
            MetricId::GcCoallocatedBytes,
            stats.bytes_coallocated - self.gc_seen.bytes_coallocated,
        );
        // Pause duration of the collection(s) this callback covers.
        let pause = stats.gc_cycles - self.gc_seen.gc_cycles;
        self.telemetry.observe(
            if major > 0 {
                HistogramId::GcMajorPauseCycles
            } else {
                HistogramId::GcMinorPauseCycles
            },
            pause,
        );
        self.telemetry.record(
            cycles,
            TraceKind::GcCollection {
                major: major > 0,
                promoted_bytes: stats.bytes_promoted - self.gc_seen.bytes_promoted,
            },
        );
        self.gc_seen = *stats;
    }

    fn on_poll(&mut self, program: &Program, cycles: u64) -> u64 {
        if !self.hpm.poll_due(cycles) {
            return 0;
        }
        self.run_poll(program, cycles)
    }

    fn on_exit(&mut self, program: &Program, cycles: u64) -> u64 {
        if !self.hpm.enabled() {
            return 0;
        }
        self.run_poll(program, cycles)
    }

    fn coalloc_policy(&self) -> &dyn CoallocPolicy {
        if self.coalloc || self.forced.as_ref().is_some_and(|p| p.applied) {
            &self.policy
        } else {
            &NoCoalloc
        }
    }
}

impl Hooks {
    fn run_poll(&mut self, program: &Program, cycles: u64) -> u64 {
        self.last_cycles = cycles;
        // Interpreter cycles between collector-thread polls. The span
        // reads the simulated clock; it never advances it.
        if let Some(last) = self.last_poll_cycles {
            self.telemetry
                .span_at(HistogramId::CorePollGapCycles, last)
                .end(cycles);
        }
        self.last_poll_cycles = Some(cycles);
        let attributed_before = self.monitor.attribution().attributed;
        let (batch, mut cost) = self.hpm.poll(cycles);
        let drained = batch.len() as u64;
        cost += self.monitor.process_batch(batch, cycles);
        // Every buffered sample has just drained, and the VM reports
        // each access as it issues, in code that is live then, so each
        // later sample carries a PC in code that is live when it is
        // captured: the ranges retired so far can no longer be hit.
        self.monitor.forget_retired();
        self.telemetry.record(
            cycles,
            TraceKind::PollCompleted {
                samples: drained,
                attributed: self.monitor.attribution().attributed - attributed_before,
            },
        );

        // Period bookkeeping: per-class sampled misses and rates.
        let window = self.monitor.take_window();
        let dt = cycles.saturating_sub(self.last_period_cycles).max(1);
        self.last_period_cycles = cycles;
        let mut class_misses: BTreeMap<ClassId, u64> = BTreeMap::new();
        for (f, n) in &window {
            *class_misses.entry(program.field(*f).class).or_default() += n;
        }
        for (&class, &n) in &class_misses {
            let rate = n as f64 * 1_000_000.0 / dt as f64;
            let h = self.rate_history.entry(class).or_default();
            h.push(rate);
            if h.len() > 32 {
                h.remove(0);
            }
        }

        // Figure 8: install the forced bad placement when its time comes.
        if let Some(pin) = &mut self.forced {
            if !pin.applied && cycles >= pin.at_cycles {
                pin.applied = true;
                let class = pin.class;
                let decision = pin.decision;
                let baseline = self.baseline_rate(class);
                self.policy.pin(class, decision, cycles);
                self.assessor.start_tracking(class, baseline);
                self.pinned.push(class);
            }
        }

        // Assess tracked classes; revert sustained regressions.
        for class in self.policy.active_classes() {
            if !self.assessor.is_tracking(class) {
                continue;
            }
            let n = class_misses.get(&class).copied().unwrap_or(0);
            let rate = n as f64 * 1_000_000.0 / dt as f64;
            // Capture the evidence before `observe` mutates (and on a
            // revert, drops) the track.
            let baseline = self.assessor.baseline(class).unwrap_or(0.0);
            let streak = self.assessor.streak(class).unwrap_or(0);
            if self.assessor.observe(class, n, rate) == Verdict::Revert {
                self.revert_ctx.insert(
                    class,
                    FeedbackChain {
                        baseline_rate: baseline,
                        observed_rate: rate,
                        tolerance: self.assessor.config().tolerance,
                        regressing_periods: streak as u64 + 1,
                    },
                );
                if self.pinned.contains(&class) {
                    self.policy.unpin(class, cycles);
                    self.pinned.retain(|&c| c != class);
                } else {
                    self.policy.revert(class, cycles);
                }
            }
        }

        // Refresh adaptive decisions from the updated counters.
        if self.coalloc {
            self.policy.refresh(program, &self.monitor, cycles);
        }

        // Export new policy decisions as trace events, counters, and
        // provenance records carrying the full causal chain.
        let threshold = self.policy.config().min_field_misses;
        let events = self.policy.events();
        for event in &events[self.policy_events_emitted..] {
            let (kind, metric, action, field, gap_bytes) = match *event {
                PolicyEvent::Enabled { class, field, .. } => (
                    TraceKind::CoallocDecision {
                        class: class.0,
                        field: field.0,
                        action: "enabled",
                    },
                    MetricId::CorePolicyEnabled,
                    "enabled",
                    Some(field),
                    0,
                ),
                PolicyEvent::Pinned {
                    class, gap_bytes, ..
                } => (
                    TraceKind::CoallocDecision {
                        class: class.0,
                        field: u32::MAX,
                        action: "pinned",
                    },
                    MetricId::CorePolicyPinned,
                    "pinned",
                    None,
                    gap_bytes,
                ),
                PolicyEvent::Reverted { class, .. } => (
                    TraceKind::CoallocDecision {
                        class: class.0,
                        field: u32::MAX,
                        action: "reverted",
                    },
                    MetricId::CorePolicyReverted,
                    "reverted",
                    None,
                    0,
                ),
                PolicyEvent::WarmStarted { class, field, .. } => (
                    TraceKind::CoallocDecision {
                        class: class.0,
                        field: field.0,
                        action: "warm_start",
                    },
                    MetricId::CorePolicyWarmStarted,
                    "warm_start",
                    Some(field),
                    0,
                ),
            };
            let (at, class) = match *event {
                PolicyEvent::Enabled { cycles, class, .. }
                | PolicyEvent::Pinned { cycles, class, .. }
                | PolicyEvent::Reverted { cycles, class, .. }
                | PolicyEvent::WarmStarted { cycles, class, .. } => (cycles, class),
            };
            self.telemetry.record(at, kind);
            self.telemetry.incr(metric);
            // Sample-to-decision latency: first witnessed sample on the
            // decision's field to the policy action.
            if action == "enabled" {
                if let Some(first) = field.and_then(|f| self.telemetry.first_witness_cycle(f.0)) {
                    self.telemetry
                        .span_at(HistogramId::CoreDecisionLatencyCycles, first)
                        .end(at);
                }
            }
            let feedback = if action == "reverted" {
                self.revert_ctx.remove(&class)
            } else {
                None
            };
            self.telemetry.record_decision(DecisionRecord {
                cycle: at,
                class: class.0,
                field: field.map_or(u32::MAX, |f| f.0),
                action,
                field_misses: field.map_or(0, |f| self.monitor.total(f)),
                threshold,
                gap_bytes,
                witnesses: Vec::new(),
                feedback,
            });
        }
        self.policy_events_emitted = events.len();

        // Feed the phase detector with the global sampled-miss rate
        // (misses per megacycle over this decision period).
        let total_misses: u64 = class_misses.values().sum();
        let global_rate = total_misses as f64 * 1_000_000.0 / dt as f64;
        if let Some(change) = self.phases.observe(cycles, global_rate) {
            self.telemetry.incr(MetricId::CorePhaseChanges);
            self.telemetry.record(
                cycles,
                TraceKind::PhaseChange {
                    miss_rate_ppm: change.after.round() as u64,
                },
            );
        }

        self.event_series.push((cycles, self.hpm.stats().events));
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
    use hpmopt_bytecode::{ElemKind, FieldType};
    use hpmopt_gc::{CollectorKind, HeapConfig};
    use hpmopt_hpm::SamplingInterval;
    use hpmopt_vm::NoHooks;

    /// A miniature `db`: many String-like parents, each holding a char[]
    /// child, traversed by pointer chasing through the parent field —
    /// enough resident data to overflow the L1 and produce misses on the
    /// child dereference.
    fn mini_db() -> Program {
        let mut pb = ProgramBuilder::new();
        let string = pb.add_class("String", &[("value", FieldType::Ref)]);
        let value = pb.field_id(string, "value").unwrap();
        let table = pb.add_static("table", FieldType::Ref);
        let sum = pb.add_static("sum", FieldType::Int);
        let n = 2000i64; // 2000 pairs ≈ 96 KB resident, well over the 16 KB L1

        let mut m = MethodBuilder::new("main", 0, 4, false);
        // Rounds interleave building a fresh table (allocation → GC →
        // promotion, where co-allocation acts) with pointer-chasing reads
        // (where the misses accrue). Later rounds benefit from decisions
        // made on earlier rounds' samples.
        m.for_loop(
            3,
            |m| {
                m.const_i(10);
            },
            |m| {
                // table = new String[n]; fill with fresh pairs.
                m.const_i(n);
                m.new_array(ElemKind::Ref);
                m.put_static(table);
                m.for_loop(
                    0,
                    |m| {
                        m.const_i(n);
                    },
                    |m| {
                        m.new_object(string);
                        m.store(1);
                        m.load(1);
                        m.const_i(4);
                        m.new_array(ElemKind::I16);
                        m.put_field(value);
                        m.get_static(table);
                        m.load(0);
                        m.load(1);
                        m.array_set(ElemKind::Ref);
                    },
                );
                // Stride through the table reading s.value[0].
                m.for_loop(
                    2,
                    |m| {
                        m.const_i(15);
                    },
                    |m| {
                        m.for_loop(
                            0,
                            |m| {
                                m.const_i(n);
                            },
                            |m| {
                                m.get_static(table);
                                m.load(0);
                                m.array_get(ElemKind::Ref);
                                m.store(1);
                                m.get_static(sum);
                                m.load(1);
                                m.get_field(value);
                                m.const_i(0);
                                m.array_get(ElemKind::I16);
                                m.add();
                                m.put_static(sum);
                            },
                        );
                    },
                );
            },
        );
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    fn config(coalloc: bool) -> RunConfig {
        let mut vm = VmConfig::test();
        vm.step_limit = None;
        vm.heap = HeapConfig {
            heap_bytes: 4 * 1024 * 1024,
            nursery_bytes: 64 * 1024,
            los_bytes: 8 * 1024 * 1024,
            collector: CollectorKind::GenMs,
            ..Default::default()
        };
        RunConfig {
            vm,
            hpm: HpmConfig {
                interval: SamplingInterval::Fixed(512),
                // A small kernel buffer makes the overflow interrupt (not
                // the 10 ms timer) drive polling, so short test runs still
                // see many decision periods.
                buffer_capacity: 32,
                ..HpmConfig::default()
            },
            coalloc,
            ..RunConfig::default()
        }
    }

    #[test]
    fn end_to_end_pipeline_attributes_and_coallocates() {
        let p = mini_db();
        // Pseudo-adaptive plan: opt-compile main so the interest analysis
        // runs (monitoring ignores baseline code).
        let mut cfg = config(true);
        cfg.vm.plan = Some(CompilationPlan::new(vec![p.entry()]));
        cfg.vm.jit.tier1_enabled = false;

        let report = HpmRuntime::new(cfg).run(&p).unwrap();
        assert!(report.hpm.events > 0, "L1 misses observed");
        assert!(report.hpm.samples > 0, "some were sampled");
        assert!(
            report.attribution.attributed > 0,
            "samples attributed to fields: {:?}",
            report.attribution
        );
        assert!(
            report
                .field_totals
                .first()
                .is_some_and(|(name, _)| name == "String::value"),
            "String::value must be the hottest field: {:?}",
            report.field_totals
        );
        assert!(
            !report.decisions.is_empty(),
            "a co-allocation decision was made"
        );
        assert!(
            report.vm.gc.objects_coallocated > 0,
            "the collector applied it: {:?}",
            report.vm.gc
        );
    }

    #[test]
    fn coallocation_reduces_l1_misses_on_mini_db() {
        let p = mini_db();
        let mut on = config(true);
        on.vm.plan = Some(CompilationPlan::new(vec![p.entry()]));
        on.vm.jit.tier1_enabled = false;
        let mut off = config(false);
        off.vm.plan = Some(CompilationPlan::new(vec![p.entry()]));
        off.vm.jit.tier1_enabled = false;

        let with = HpmRuntime::new(on).run(&p).unwrap();
        let without = HpmRuntime::new(off).run(&p).unwrap();
        assert!(
            with.vm.mem.l1_misses < without.vm.mem.l1_misses,
            "co-allocation must reduce L1 misses: {} vs {}",
            with.vm.mem.l1_misses,
            without.vm.mem.l1_misses
        );
        assert!(
            with.cycles < without.cycles,
            "and execution time: {} vs {}",
            with.cycles,
            without.cycles
        );
    }

    #[test]
    fn monitoring_off_costs_nothing() {
        let p = mini_db();
        let mut cfg = config(false);
        cfg.hpm.interval = SamplingInterval::Off;
        let report = HpmRuntime::new(cfg).run(&p).unwrap();
        assert_eq!(report.hpm.samples, 0);
        assert_eq!(report.vm.monitor_cycles, 0);
        assert_eq!(report.attribution.total(), 0);
    }

    #[test]
    fn watched_field_produces_series() {
        let p = mini_db();
        let mut cfg = config(true);
        cfg.vm.plan = Some(CompilationPlan::new(vec![p.entry()]));
        cfg.vm.jit.tier1_enabled = false;
        cfg.watch_fields = vec![("String".into(), "value".into())];
        let report = HpmRuntime::new(cfg).run(&p).unwrap();
        let (name, series) = &report.series[0];
        assert_eq!(name, "String::value");
        assert!(!series.is_empty());
        assert!(
            series.windows(2).all(|w| w[0].total <= w[1].total),
            "cumulative series is monotone"
        );
    }

    #[test]
    fn forced_bad_placement_is_reverted_by_feedback() {
        let p = mini_db();
        let mut cfg = config(true);
        cfg.vm.plan = Some(CompilationPlan::new(vec![p.entry()]));
        cfg.vm.jit.tier1_enabled = false;
        // Dense sampling and fast polls so periods are plentiful.
        cfg.hpm.interval = SamplingInterval::Fixed(256);
        cfg.forced_bad = Some(ForcedBadPlacement {
            class: "String".into(),
            field: "value".into(),
            gap_bytes: 128,
            at_cycles: 8_000_000,
        });
        cfg.feedback = FeedbackConfig {
            tolerance: 1.2,
            revert_after_periods: 2,
            min_period_misses: 2,
        };
        let report = HpmRuntime::new(cfg).run(&p).unwrap();
        let pinned = report
            .policy_events
            .iter()
            .any(|e| matches!(e, PolicyEvent::Pinned { .. }));
        assert!(
            pinned,
            "bad decision was installed: {:?}",
            report.policy_events
        );
        assert!(
            report.revert_count() > 0,
            "feedback must revert it: {:?}",
            report.policy_events
        );
    }

    /// `main` calls `work` 500 times; `work` loops, so the tier-1 timer
    /// promotes it early in the run. With `cold`, a third method nothing
    /// calls keeps the plan from ever holding every method.
    fn caller_program(cold: bool) -> Program {
        let mut pb = ProgramBuilder::new();
        let sum = pb.add_static("sum", FieldType::Int);
        let mut w = MethodBuilder::new("work", 0, 1, false);
        w.for_loop(
            0,
            |m| {
                m.const_i(200);
            },
            |m| {
                m.get_static(sum);
                m.load(0);
                m.add();
                m.put_static(sum);
            },
        );
        w.ret();
        let work = pb.add_method(w);
        if cold {
            let mut c = MethodBuilder::new("cold", 0, 0, false);
            c.ret();
            pb.add_method(c);
        }
        let mut m = MethodBuilder::new("main", 0, 1, false);
        m.for_loop(
            0,
            |m| {
                m.const_i(500);
            },
            |m| {
                m.call(work);
            },
        );
        m.ret();
        let main = pb.add_method(m);
        pb.set_entry(main);
        pb.finish().unwrap()
    }

    /// The plan rule without the early stop: run to completion, then
    /// plan what the timer promoted plus the entry.
    fn plan_by_full_run(program: &Program, mut vm: VmConfig) -> (CompilationPlan, RunSummary) {
        vm.plan = None;
        vm.jit.tier1_enabled = true;
        let summary = Vm::new(program, vm).run(&mut NoHooks).unwrap();
        let mut methods = summary.opt_compiled.clone();
        methods.push(program.entry());
        (CompilationPlan::new(methods), summary)
    }

    #[test]
    fn plan_run_stops_once_the_plan_holds_every_method() {
        let p = caller_program(false);
        let (want, full) = plan_by_full_run(&p, VmConfig::test());
        assert_eq!(want.len(), p.methods().len(), "the plan saturates");
        let (plan, ran) = profile_plan(&p, VmConfig::test()).unwrap();
        assert_eq!(plan, want);
        assert_eq!(HpmRuntime::generate_plan(&p, VmConfig::test()), Ok(want));
        assert!(
            ran.bytecodes_executed * 10 < full.bytecodes_executed,
            "stopped after {} of {} bytecodes",
            ran.bytecodes_executed,
            full.bytecodes_executed
        );

        // A program of one method is saturated by its entry alone.
        let p = mini_db();
        let (plan, ran) = profile_plan(&p, config(false).vm).unwrap();
        assert_eq!(plan, CompilationPlan::new(vec![p.entry()]));
        assert!(
            ran.bytecodes_executed < 10_000,
            "stops at the first poll, a few thousand bytecodes in: {}",
            ran.bytecodes_executed
        );
    }

    #[test]
    fn plan_run_that_never_saturates_runs_to_completion() {
        let p = caller_program(true);
        let (want, full) = plan_by_full_run(&p, VmConfig::test());
        assert!(want.len() < p.methods().len(), "the cold method stays out");
        let (plan, ran) = profile_plan(&p, VmConfig::test()).unwrap();
        assert_eq!(plan, want);
        assert_eq!(ran.bytecodes_executed, full.bytecodes_executed);
    }

    #[test]
    fn plan_run_goes_to_completion_when_a_method_may_leave_the_opt_tier() {
        let p = caller_program(false);
        let mut tier2 = VmConfig::test();
        tier2.jit.tier2_enabled = true;
        let mut bounded = VmConfig::test();
        bounded.jit.code_cache_capacity_bytes = Some(64 * 1024);
        for vm in [tier2, bounded] {
            let (want, full) = plan_by_full_run(&p, vm.clone());
            let (plan, ran) = profile_plan(&p, vm).unwrap();
            assert_eq!(plan, want);
            assert_eq!(ran.bytecodes_executed, full.bytecodes_executed);
        }
    }

    #[test]
    fn plan_run_leaves_a_callers_token_alone() {
        let p = caller_program(false);
        let (want, full) = plan_by_full_run(&p, VmConfig::test());
        let token = CancelToken::new();
        let mut vm = VmConfig::test();
        vm.cancel = Some(token.clone());
        let (plan, ran) = profile_plan(&p, vm.clone()).unwrap();
        assert!(!token.is_cancelled());
        assert_eq!(plan, want);
        assert_eq!(ran.bytecodes_executed, full.bytecodes_executed);
        // The caller's own cancel still fails the run.
        token.cancel();
        assert_eq!(HpmRuntime::generate_plan(&p, vm), Err(VmError::Cancelled));
    }
}
