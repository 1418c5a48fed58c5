//! Static metric registry.
//!
//! Every metric the workspace exports is declared once in the
//! `metrics!` table below with a stable dotted name. The registry is
//! a fixed array of atomics indexed by [`MetricId`], so recording a
//! metric is a single relaxed atomic op with no hashing or allocation
//! on the hot path.
//!
//! Namespaces mirror the crate layout:
//! `hpm.*` (sampling unit), `memsim.*` (cache/TLB hierarchy),
//! `gc.*` (collector), `vm.*` (compiler tiers), `core.*` (attribution
//! and the co-allocation policy), `profile.*` (the persistent profile
//! repository and warm-start outcomes).

use std::sync::atomic::{AtomicU64, Ordering};

/// Whether a metric accumulates (`Counter`) or tracks a latest value
/// (`Gauge`). The distinction matters for [`snapshot diffs`]: counters
/// are subtracted across an interval, gauges keep the later reading.
///
/// [`snapshot diffs`]: crate::snapshot::TelemetrySnapshot::diff
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
}

macro_rules! metrics {
    ($($variant:ident => ($name:literal, $kind:ident);)*) => {
        /// Identifier of one workspace metric; indexes the registry array.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum MetricId {
            $($variant,)*
        }

        impl MetricId {
            /// Every metric, in declaration (and export) order.
            pub const ALL: &'static [MetricId] = &[$(MetricId::$variant,)*];

            /// Number of declared metrics.
            pub const COUNT: usize = Self::ALL.len();

            /// Stable dotted export name, e.g. `"memsim.l1.misses"`.
            pub fn name(self) -> &'static str {
                match self {
                    $(MetricId::$variant => $name,)*
                }
            }

            /// Counter or gauge semantics.
            pub fn kind(self) -> MetricKind {
                match self {
                    $(MetricId::$variant => MetricKind::$kind,)*
                }
            }
        }
    };
}

metrics! {
    // hpm.*: the PEBS-style sampling unit and its collector thread.
    HpmEvents => ("hpm.events", Counter);
    HpmSamplesGenerated => ("hpm.samples_generated", Counter);
    HpmSamplesDropped => ("hpm.samples_dropped", Counter);
    HpmSamplesDrained => ("hpm.samples_drained", Counter);
    HpmPolls => ("hpm.polls", Counter);
    HpmBufferOverflows => ("hpm.buffer_overflows", Counter);
    HpmPollPeriodMs => ("hpm.poll_period_ms", Gauge);
    HpmSamplingInterval => ("hpm.sampling_interval", Gauge);

    // memsim.*: per-level cache and TLB traffic.
    MemsimL1Hits => ("memsim.l1.hits", Counter);
    MemsimL1Misses => ("memsim.l1.misses", Counter);
    MemsimL1Evictions => ("memsim.l1.evictions", Counter);
    MemsimL2Hits => ("memsim.l2.hits", Counter);
    MemsimL2Misses => ("memsim.l2.misses", Counter);
    MemsimL2Evictions => ("memsim.l2.evictions", Counter);
    MemsimDtlbHits => ("memsim.dtlb.hits", Counter);
    MemsimDtlbMisses => ("memsim.dtlb.misses", Counter);
    MemsimDtlbEvictions => ("memsim.dtlb.evictions", Counter);

    // gc.*: collections and the object-layout policy's effect.
    GcMinorCollections => ("gc.minor_collections", Counter);
    GcMajorCollections => ("gc.major_collections", Counter);
    GcPromotedBytes => ("gc.promoted_bytes", Counter);
    GcCoallocatedBytes => ("gc.coallocated_bytes", Counter);

    // vm.*: compilations per tier and their simulated cost.
    VmCompilesBaseline => ("vm.compiles.baseline", Counter);
    VmCompilesOpt => ("vm.compiles.opt", Counter);
    VmCompileCycles => ("vm.compile_cycles", Gauge);

    // jit.*: the tiered compilation pipeline and its bounded code cache.
    JitCompilesBaseline => ("jit.compiles.baseline", Counter);
    JitCompilesOpt => ("jit.compiles.opt", Counter);
    JitCompilesRegion => ("jit.compiles.region", Counter);
    JitDeopts => ("jit.deopts", Counter);
    JitEvictions => ("jit.evictions", Counter);
    JitCodeFrees => ("jit.code_frees", Counter);
    JitStaleSamples => ("jit.stale_samples", Counter);
    JitCacheBytes => ("jit.cache_bytes", Gauge);
    JitCacheCapacityBytes => ("jit.cache_capacity_bytes", Gauge);
    JitCodeEpoch => ("jit.code_epoch", Gauge);

    // core.*: sample attribution outcomes and policy decisions.
    CoreSamplesAttributed => ("core.samples.attributed", Counter);
    CoreSamplesUninteresting => ("core.samples.uninteresting", Counter);
    CoreSamplesUnmapped => ("core.samples.unmapped", Counter);
    CoreSamplesForeign => ("core.samples.foreign", Counter);
    CoreBatches => ("core.batches", Counter);
    CorePolicyEnabled => ("core.policy.enabled", Counter);
    CorePolicyPinned => ("core.policy.pinned", Counter);
    CorePolicyReverted => ("core.policy.reverted", Counter);
    CorePolicyWarmStarted => ("core.policy.warm_started", Counter);
    CorePhaseChanges => ("core.phase_changes", Counter);

    // profile.*: the persistent profile repository (load outcomes at
    // startup, save outcomes at shutdown).
    ProfileWarmStarts => ("profile.warm_starts", Counter);
    ProfileColdStarts => ("profile.cold_starts", Counter);
    ProfileLoadMissing => ("profile.load.missing", Counter);
    ProfileLoadCorrupt => ("profile.load.corrupt", Counter);
    ProfileLoadMismatch => ("profile.load.mismatch", Counter);
    ProfileSeededFields => ("profile.seeded_fields", Counter);
    ProfileSeededDecisions => ("profile.seeded_decisions", Counter);
    ProfileSaves => ("profile.saves", Counter);
    ProfileSaveErrors => ("profile.save_errors", Counter);
    ProfileRuns => ("profile.runs", Gauge);

    // serve.*: the multi-tenant VM service — job lifecycle outcomes,
    // fleet warm-start traffic against the shared profile repository,
    // and live occupancy.
    ServeJobsSubmitted => ("serve.jobs.submitted", Counter);
    ServeJobsCompleted => ("serve.jobs.completed", Counter);
    ServeJobsRejected => ("serve.jobs.rejected", Counter);
    ServeJobsKilled => ("serve.jobs.killed", Counter);
    ServeJobsFailed => ("serve.jobs.failed", Counter);
    ServeWarmJobs => ("serve.jobs.warm", Counter);
    ServeColdJobs => ("serve.jobs.cold", Counter);
    ServeRepoCheckouts => ("serve.repo.checkouts", Counter);
    ServeRepoMerges => ("serve.repo.merges", Counter);
    ServeRepoProfiles => ("serve.repo.profiles", Gauge);
    ServeRepoEvictions => ("serve.repo_evictions", Counter);
    ServeSteals => ("serve.steals", Counter);
    ServeQueueDepth => ("serve.queue_depth", Gauge);
    ServeLiveJobs => ("serve.live_jobs", Gauge);
    ServeTenants => ("serve.tenants", Gauge);

    // telemetry.*: the telemetry layer watching itself.
    TelemetryTraceDropped => ("telemetry.trace_dropped", Counter);
}

/// Fixed-size table of atomics, one per [`MetricId`]. All operations
/// use relaxed ordering: metrics are monotonic diagnostics, not
/// synchronization.
pub struct MetricsRegistry {
    values: [AtomicU64; MetricId::COUNT],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self {
            values: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Add `n` to a counter (or, degenerately, a gauge).
    pub fn add(&self, id: MetricId, n: u64) {
        self.values[id as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite a gauge with its latest reading.
    pub fn set(&self, id: MetricId, value: u64) {
        self.values[id as usize].store(value, Ordering::Relaxed);
    }

    /// Raise a gauge to `value` if the current reading is lower; used
    /// for gauges synced from monotonic externally-kept stats.
    pub fn set_max(&self, id: MetricId, value: u64) {
        self.values[id as usize].fetch_max(value, Ordering::Relaxed);
    }

    /// Current reading of one metric.
    pub fn get(&self, id: MetricId) -> u64 {
        self.values[id as usize].load(Ordering::Relaxed)
    }

    /// Copy out every metric in declaration order.
    pub fn read_all(&self) -> Vec<u64> {
        self.values
            .iter()
            .map(|v| v.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_namespaced() {
        let mut seen = std::collections::BTreeSet::new();
        for &id in MetricId::ALL {
            assert!(seen.insert(id.name()), "duplicate metric {}", id.name());
            let ns = id.name().split('.').next().unwrap();
            assert!(
                matches!(
                    ns,
                    "hpm"
                        | "memsim"
                        | "gc"
                        | "vm"
                        | "jit"
                        | "core"
                        | "profile"
                        | "serve"
                        | "telemetry"
                ),
                "unknown namespace in {}",
                id.name()
            );
        }
        assert_eq!(seen.len(), MetricId::COUNT);
    }

    #[test]
    fn registry_add_set_get() {
        let r = MetricsRegistry::new();
        r.add(MetricId::HpmEvents, 3);
        r.add(MetricId::HpmEvents, 4);
        assert_eq!(r.get(MetricId::HpmEvents), 7);
        r.set(MetricId::HpmPollPeriodMs, 40);
        r.set(MetricId::HpmPollPeriodMs, 20);
        assert_eq!(r.get(MetricId::HpmPollPeriodMs), 20);
        r.set_max(MetricId::VmCompileCycles, 10);
        r.set_max(MetricId::VmCompileCycles, 5);
        assert_eq!(r.get(MetricId::VmCompileCycles), 10);
    }
}
