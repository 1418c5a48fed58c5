//! Job vocabulary: what a tenant submits and what it gets back.
//!
//! A [`JobSpec`] names a workload and its execution envelope; running
//! one is a pure function of the spec plus the warm-start checkout
//! ([`run_job`]), so the same unit serves both the live daemon (which
//! checks out and merges against the shared repository as jobs flow)
//! and the deterministic bench (which snapshots checkouts per round and
//! merges in job order).
//!
//! Every job gets its own VM, heap, HPM unit, and telemetry handle —
//! tenant isolation is by construction, not by locking: two jobs share
//! no mutable state at all until their frozen results are folded into
//! the repository and the fleet registry.

use hpmopt_core::runtime::{HpmRuntime, RunConfig};
use hpmopt_core::{warmstart, ProfileOptions};
use hpmopt_gc::CollectorKind;
use hpmopt_profile::{Fingerprint, Profile};
use hpmopt_telemetry::{Telemetry, TelemetrySnapshot};
use hpmopt_vm::{CancelToken, VmError};
use hpmopt_workloads::{by_name, setup, Size, Workload};

/// Heap multiplier of [`JobSpec::new`]: a job's heap is this many times
/// its workload's minimum heap.
pub const DEFAULT_HEAP_MULT: u64 = 4;

/// What a tenant asks the service to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Tenant the job is accounted to.
    pub tenant: String,
    /// Workload name (see `hpmopt_workloads::names`).
    pub workload: String,
    /// Workload size.
    pub size: Size,
    /// Heap at `heap_mult ×` the workload's minimum heap.
    pub heap_mult: u64,
    /// Simulated-cycle budget requested by the job itself; the tenant's
    /// cap may lower it further. `None` leaves the job unbounded.
    pub cycle_budget: Option<u64>,
}

impl JobSpec {
    /// A job with the default envelope: tiny size, 4× minimum heap, no
    /// cycle budget.
    #[must_use]
    pub fn new(tenant: &str, workload: &str) -> Self {
        JobSpec {
            tenant: tenant.to_string(),
            workload: workload.to_string(),
            size: Size::Tiny,
            heap_mult: DEFAULT_HEAP_MULT,
            cycle_budget: None,
        }
    }

    /// The workload this spec names, if it exists.
    #[must_use]
    pub fn resolve(&self) -> Option<Workload> {
        by_name(&self.workload, self.size)
    }

    /// Heap bytes the job will reserve (what admission control charges
    /// against the tenant's heap cap).
    #[must_use]
    pub fn heap_bytes(&self, w: &Workload) -> u64 {
        w.min_heap_bytes * self.heap_mult
    }
}

/// Why admission control refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The workload name resolves to nothing.
    UnknownWorkload(String),
    /// The tenant is already running its maximum number of jobs.
    LiveJobCap {
        /// Jobs currently live for the tenant.
        live: usize,
        /// The tenant's cap.
        cap: usize,
    },
    /// The job's heap reservation exceeds the tenant's per-job cap.
    HeapCap {
        /// Bytes the job asked for.
        requested_bytes: u64,
        /// The tenant's cap.
        cap_bytes: u64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::UnknownWorkload(name) => write!(f, "unknown workload {name:?}"),
            RejectReason::LiveJobCap { live, cap } => {
                write!(f, "tenant at live-job cap ({live} live, cap {cap})")
            }
            RejectReason::HeapCap {
                requested_bytes,
                cap_bytes,
            } => write!(
                f,
                "heap request {requested_bytes} exceeds tenant cap {cap_bytes}"
            ),
        }
    }
}

/// Terminal state of an admitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion.
    Completed,
    /// Killed deterministically at its simulated-cycle budget.
    Killed,
    /// Cancelled by the service (shutdown) at a poll boundary.
    Cancelled,
    /// The guest program itself faulted.
    Failed(String),
}

impl JobOutcome {
    /// Short lowercase tag for summaries.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::Killed => "killed",
            JobOutcome::Cancelled => "cancelled",
            JobOutcome::Failed(_) => "failed",
        }
    }
}

/// Everything one executed job produced, before the service folds it
/// into shared state.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Whether a warm checkout actually seeded the run.
    pub warm: bool,
    /// Total simulated cycles (the kill budget for killed jobs, 0 for
    /// failures).
    pub cycles: u64,
    /// Simulated cycles until the first co-allocation decision was in
    /// force; `None` when the run never decided (or died early).
    pub first_decision_cycles: Option<u64>,
    /// Placement-independent state digest (0 unless completed).
    pub digest: u64,
    /// What this run measured, for the repository to decay-merge.
    pub fresh_profile: Option<Profile>,
    /// The job's frozen private telemetry, for fleet aggregation.
    pub telemetry: TelemetrySnapshot,
}

/// What the service hands back for one submitted job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Service-assigned job id (submission order).
    pub id: u64,
    /// The spec as submitted.
    pub spec: JobSpec,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Whether the job warm-started from the shared repository.
    pub warm: bool,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Cycles to the first co-allocation decision.
    pub first_decision_cycles: Option<u64>,
    /// Placement-independent state digest (0 unless completed).
    pub digest: u64,
}

/// Workload label baked into the profile fingerprint: name plus size,
/// so a `Tiny` profile never seeds a `Full` run even though the program
/// hash would differ anyway.
#[must_use]
pub fn profile_label(spec: &JobSpec) -> String {
    format!("{}@{:?}", spec.workload, spec.size)
}

/// The full run configuration for a spec: the bench harness's standard
/// cell (pseudo-adaptive plan, auto sampling, scaled monitor clock) at
/// the spec's heap point.
#[must_use]
pub fn run_config_for(spec: &JobSpec, w: &Workload) -> RunConfig {
    let heap = setup::heap_config(w, spec.heap_mult, 1, CollectorKind::GenMs);
    setup::run_config(w, spec.size, heap, setup::auto_interval(), true)
}

/// The repository key for a spec: program structure + machine
/// configuration + labeled workload.
#[must_use]
pub fn fingerprint_of(spec: &JobSpec, w: &Workload) -> Fingerprint {
    let cfg = run_config_for(spec, w);
    warmstart::fingerprint(&w.program, &cfg.vm, &profile_label(spec))
}

/// Execute one job in complete isolation: fresh VM, heap, HPM unit, and
/// telemetry handle. `checkout` is the warm-start profile (if any),
/// `cycle_budget` the effective kill budget after tenant caps, `cancel`
/// the service's shutdown token.
#[must_use]
pub fn run_job(
    spec: &JobSpec,
    checkout: Option<Profile>,
    cycle_budget: Option<u64>,
    cancel: Option<CancelToken>,
) -> JobRun {
    let Some(w) = spec.resolve() else {
        return JobRun {
            outcome: JobOutcome::Failed(format!("unknown workload {:?}", spec.workload)),
            warm: false,
            cycles: 0,
            first_decision_cycles: None,
            digest: 0,
            fresh_profile: None,
            telemetry: TelemetrySnapshot::empty(),
        };
    };
    let warm_in = checkout.is_some();
    let mut cfg = run_config_for(spec, &w);
    cfg.vm.cycle_budget = cycle_budget;
    cfg.vm.cancel = cancel;
    cfg.profile = ProfileOptions::from_checkout(checkout, &profile_label(spec));
    let telemetry = Telemetry::enabled(hpmopt_telemetry::DEFAULT_TRACE_CAPACITY);
    cfg.telemetry = telemetry.clone();

    match HpmRuntime::new(cfg).run(&w.program) {
        Ok(report) => JobRun {
            outcome: JobOutcome::Completed,
            warm: report.warm_start,
            cycles: report.cycles,
            first_decision_cycles: report.cycles_to_first_decision(),
            digest: report.result_digest,
            fresh_profile: report.fresh_profile,
            telemetry: telemetry.snapshot(report.cycles),
        },
        Err(e) => {
            // A killed or faulted run reports what it can; its partial
            // measurements are NOT merged back (fresh_profile: None) —
            // a truncated run would drag warm profiles toward zero.
            let (outcome, cycles) = match e {
                VmError::CycleBudget => (JobOutcome::Killed, cycle_budget.unwrap_or(0)),
                VmError::Cancelled => (JobOutcome::Cancelled, 0),
                other => (JobOutcome::Failed(other.to_string()), 0),
            };
            JobRun {
                outcome,
                warm: warm_in,
                cycles,
                first_decision_cycles: None,
                digest: 0,
                fresh_profile: None,
                telemetry: telemetry.snapshot(cycles),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_fails_without_panicking() {
        let run = run_job(&JobSpec::new("t0", "no-such-program"), None, None, None);
        assert!(matches!(run.outcome, JobOutcome::Failed(_)));
        assert!(run.fresh_profile.is_none());
    }

    #[test]
    fn fingerprint_is_stable_and_size_sensitive() {
        let spec = JobSpec::new("t0", "fop");
        let w = spec.resolve().unwrap();
        assert_eq!(fingerprint_of(&spec, &w), fingerprint_of(&spec, &w));
        let mut small = spec.clone();
        small.size = Size::Small;
        let ws = small.resolve().unwrap();
        assert_ne!(
            fingerprint_of(&spec, &w),
            fingerprint_of(&small, &ws),
            "size is part of the profile identity"
        );
    }

    #[test]
    fn cycle_budget_kills_a_job_cleanly_and_reproducibly() {
        let mut spec = JobSpec::new("t0", "db");
        spec.cycle_budget = Some(1_000_000);
        let a = run_job(&spec, None, spec.cycle_budget, None);
        let b = run_job(&spec, None, spec.cycle_budget, None);
        assert_eq!(a.outcome, JobOutcome::Killed);
        assert_eq!(b.outcome, JobOutcome::Killed);
        assert_eq!(a.cycles, b.cycles, "kill point is simulated, not timed");
        assert!(a.fresh_profile.is_none(), "killed runs merge nothing back");
    }
}
