//! The live daemon: sharded run queues, a work-stealing worker pool,
//! and the shared repository.
//!
//! Job lifecycle: `submit` runs admission control synchronously
//! (rejections never enter a queue), assigns an id, and enqueues onto
//! the tenant's shard of the [`ShardedScheduler`] under
//! deficit-round-robin fairness. A worker claims the job — from its own
//! shard, or by stealing from a victim shard in seed-deterministic
//! order when its own runs dry — checks out a warm profile from the
//! shared [`SharedProfileRepo`] keyed by the job's fingerprint,
//! executes it in full isolation ([`crate::job::run_job`]), then folds
//! the results back: decay-merges the fresh profile (subject to the
//! repository's LRU+TTL byte-capacity bound), absorbs the job's private
//! telemetry into the fleet registry, and publishes the [`JobReport`]
//! for `wait`.
//!
//! Live mode trades the bench's determinism for latency: merges land in
//! completion order, so two daemon runs may interleave differently.
//! The deterministic counterpart with the same execution unit is the
//! load generator in [`crate::bench`].
//!
//! # Shutdown vs Drop
//!
//! The two teardown paths are deliberately asymmetric:
//!
//! * [`Service::shutdown`] is graceful — it blocks until every queued
//!   job has been claimed and finished, then stops the workers and
//!   persists the repository to the spill directory.
//! * [`Drop`] is fast — queued jobs are **abandoned** (never executed,
//!   never merged) and in-flight jobs are cancelled at their next poll
//!   boundary via the shared [`CancelToken`]. Cancelled and killed jobs
//!   produce no fresh profile, so nothing from an interrupted run ever
//!   reaches the repository.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use hpmopt_profile::{RepoConfig, SharedProfileRepo, MERGE_DECAY};
use hpmopt_telemetry::{HistogramId, MetricId, Telemetry, TelemetrySnapshot};
use hpmopt_vm::CancelToken;

use crate::job::{fingerprint_of, run_job, JobOutcome, JobReport, JobSpec, RejectReason};
use crate::scheduler::{Claim, SchedulerConfig, ShardedScheduler};
use crate::tenant::{TenantBook, TenantCaps};

/// Daemon parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs (clamped to ≥ 1). Also the shard
    /// count of the run-queue scheduler: one home shard per worker.
    pub workers: usize,
    /// Exponential decay for repository merges ([`MERGE_DECAY`]).
    pub decay: f64,
    /// Caps applied to tenants without explicit caps.
    pub default_caps: TenantCaps,
    /// Directory to preload profiles from at startup and persist to at
    /// shutdown — warm starts across daemon restarts.
    pub spill_dir: Option<PathBuf>,
    /// Sharding and bounds of the shared profile repository.
    pub repo: RepoConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            decay: MERGE_DECAY,
            default_caps: TenantCaps::default(),
            spill_dir: None,
            repo: RepoConfig::default(),
        }
    }
}

struct Queued {
    id: u64,
    spec: JobSpec,
    budget: Option<u64>,
}

struct Inner {
    repo: SharedProfileRepo,
    tenants: TenantBook,
    scheduler: ShardedScheduler<Queued>,
    results: Mutex<BTreeMap<u64, JobReport>>,
    done: Condvar,
    cancel: CancelToken,
    next_id: AtomicU64,
    telemetry: Telemetry,
    decay: f64,
}

/// The running service. Dropping it stops the workers fast: queued jobs
/// are abandoned, in-flight jobs are cancelled at their next poll
/// boundary. Use [`Service::shutdown`] to drain gracefully instead (see
/// the module docs for the full asymmetry).
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    spill_dir: Option<PathBuf>,
}

impl Service {
    /// Start the daemon: preload the spill directory (if configured)
    /// and spawn the worker pool.
    #[must_use]
    pub fn start(config: ServiceConfig) -> Self {
        let workers = config.workers.max(1);
        let inner = Arc::new(Inner {
            repo: SharedProfileRepo::with_config(config.repo),
            tenants: TenantBook::new(config.default_caps),
            scheduler: ShardedScheduler::new(workers, &SchedulerConfig::default()),
            results: Mutex::new(BTreeMap::new()),
            done: Condvar::new(),
            cancel: CancelToken::new(),
            next_id: AtomicU64::new(0),
            telemetry: Telemetry::enabled(hpmopt_telemetry::DEFAULT_TRACE_CAPACITY),
            decay: config.decay,
        });
        if let Some(dir) = &config.spill_dir {
            let loaded = inner.repo.preload(dir);
            inner
                .telemetry
                .set_gauge(MetricId::ServeRepoProfiles, loaded as u64);
        }
        let workers = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, w))
            })
            .collect();
        Service {
            inner,
            workers,
            spill_dir: config.spill_dir,
        }
    }

    /// Install explicit caps for one tenant.
    pub fn set_caps(&self, tenant: &str, caps: TenantCaps) {
        self.inner.tenants.set_caps(tenant, caps);
    }

    /// Submit one job. Admission control runs here, synchronously: a
    /// rejected job never consumes a queue slot or a worker.
    ///
    /// # Errors
    ///
    /// The [`RejectReason`] when the workload is unknown or a tenant
    /// cap would be exceeded.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, RejectReason> {
        let t = &self.inner.telemetry;
        t.incr(MetricId::ServeJobsSubmitted);
        let admitted = spec
            .resolve()
            .ok_or_else(|| RejectReason::UnknownWorkload(spec.workload.clone()))
            .and_then(|w| {
                self.inner
                    .tenants
                    .admit(&spec.tenant, spec.heap_bytes(&w), spec.cycle_budget)
            });
        let budget = match admitted {
            Ok(budget) => budget,
            Err(reason) => {
                t.incr(MetricId::ServeJobsRejected);
                return Err(reason);
            }
        };
        t.set_gauge_max(
            MetricId::ServeTenants,
            self.inner.tenants.tenant_count() as u64,
        );
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let tenant = spec.tenant.clone();
        // DRR cost 1: the daemon schedules job *slots* fairly. (The
        // load generator's queueing model charges service cycles
        // instead; see crate::bench::simulate.)
        let depth = self
            .inner
            .scheduler
            .submit(&tenant, 1, Queued { id, spec, budget });
        // High-water marks: deepest single shard, and jobs in flight
        // (queued + running). `pending()` reads the scheduler's gate
        // counter — one lock, not a sweep over every shard mutex, which
        // would reintroduce the cross-shard contention sharding removed.
        t.set_gauge_max(MetricId::ServeQueueDepth, depth as u64);
        t.set_gauge_max(
            MetricId::ServeLiveJobs,
            self.inner.scheduler.pending() as u64 + self.inner.running(),
        );
        Ok(id)
    }

    /// Block until job `id` reaches a terminal state and take its
    /// report.
    #[must_use]
    pub fn wait(&self, id: u64) -> JobReport {
        let mut results = self.inner.results.lock().unwrap();
        loop {
            if let Some(report) = results.remove(&id) {
                return report;
            }
            results = self.inner.done.wait(results).unwrap();
        }
    }

    /// The shared profile repository (for inspection and tests).
    #[must_use]
    pub fn repo(&self) -> &SharedProfileRepo {
        &self.inner.repo
    }

    /// The fleet telemetry handle.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Freeze the fleet metrics, syncing the repository gauges first.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.inner.sync_repo_gauges();
        self.inner.telemetry.snapshot(0)
    }

    /// Drain the queues, stop the workers, and persist the repository
    /// to the spill directory if one was configured. Returns the number
    /// of profiles persisted.
    pub fn shutdown(mut self) -> usize {
        // Graceful: every queued job is claimed and finished before the
        // workers stop (workers finish their in-flight job on join).
        self.inner.scheduler.drain();
        self.stop_workers(false);
        let persisted = match &self.spill_dir {
            Some(dir) => self.inner.repo.persist(dir).unwrap_or(0),
            None => 0,
        };
        self.spill_dir = None; // Drop must not persist again.
        persisted
    }

    fn stop_workers(&mut self, cancel_running: bool) {
        if cancel_running {
            self.inner.cancel.cancel();
        }
        self.inner.scheduler.stop();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Fast teardown: abandon queued jobs, cancel in-flight jobs at
        // their next poll boundary. See the module docs.
        self.stop_workers(true);
    }
}

impl Inner {
    fn running(&self) -> u64 {
        // Live minus queued is implicit; the gauge is a high-water mark
        // so an approximation from completed counts suffices.
        let t = &self.telemetry;
        t.get(MetricId::ServeJobsSubmitted)
            .saturating_sub(t.get(MetricId::ServeJobsRejected))
            .saturating_sub(t.get(MetricId::ServeJobsCompleted))
            .saturating_sub(t.get(MetricId::ServeJobsKilled))
            .saturating_sub(t.get(MetricId::ServeJobsFailed))
    }

    fn sync_repo_gauges(&self) {
        let stats = self.repo.stats();
        let t = &self.telemetry;
        t.set_gauge(MetricId::ServeRepoProfiles, self.repo.len() as u64);
        // The repository's own counters are the only source of these
        // three: they are monotonic, so raising to the latest reading
        // counts each checkout, merge and eviction exactly once.
        t.set_gauge_max(MetricId::ServeRepoCheckouts, stats.checkouts);
        t.set_gauge_max(MetricId::ServeRepoMerges, stats.merges);
        t.set_gauge_max(MetricId::ServeRepoEvictions, stats.evictions);
    }
}

fn worker_loop(inner: &Inner, worker: usize) {
    while let Some((Queued { id, spec, budget }, claim)) = inner.scheduler.next(worker) {
        let t = &inner.telemetry;
        if claim == Claim::Stolen {
            t.incr(MetricId::ServeSteals);
        }
        let checkout = spec
            .resolve()
            .map(|w| inner.repo.checkout(&fingerprint_of(&spec, &w)));
        let run = run_job(
            &spec,
            checkout.flatten(),
            budget,
            Some(inner.cancel.clone()),
        );

        if let Some(fresh) = &run.fresh_profile {
            inner.repo.merge(fresh, inner.decay);
        }
        t.absorb(&run.telemetry);
        t.incr(match run.outcome {
            JobOutcome::Completed => MetricId::ServeJobsCompleted,
            JobOutcome::Killed | JobOutcome::Cancelled => MetricId::ServeJobsKilled,
            JobOutcome::Failed(_) => MetricId::ServeJobsFailed,
        });
        if run.outcome == JobOutcome::Completed {
            t.incr(if run.warm {
                MetricId::ServeWarmJobs
            } else {
                MetricId::ServeColdJobs
            });
            t.observe(HistogramId::ServeServiceCycles, run.cycles);
            if let Some(first) = run.first_decision_cycles {
                t.observe(
                    if run.warm {
                        HistogramId::ServeWarmFirstDecisionCycles
                    } else {
                        HistogramId::ServeColdFirstDecisionCycles
                    },
                    first,
                );
            }
        }
        inner.sync_repo_gauges();
        inner.tenants.release(&spec.tenant);

        let report = JobReport {
            id,
            outcome: run.outcome,
            warm: run.warm,
            cycles: run.cycles,
            first_decision_cycles: run.first_decision_cycles,
            digest: run.digest,
            spec,
        };
        inner.results.lock().unwrap().insert(id, report);
        inner.done.notify_all();
    }
}
