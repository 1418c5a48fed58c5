//! Open-loop (QPS-paced) latency benchmark.
//!
//! The closed-loop bench ([`crate::bench`]) measures steady-state
//! throughput: a new job starts only when a worker frees up, so queue
//! wait is invisible by construction. Production traffic is open-loop —
//! arrivals don't care whether the service is keeping up — and the
//! quantity that matters is the *queue-wait tail* under load,
//! especially for a light tenant sharing the service with a heavy one.
//! This module paces a seeded job schedule at a fixed arrival rate on
//! the **simulated** clock ([`setup::MONITOR_CPU_HZ`]) and reports
//! p50/p95/p99 queue-wait and service-time histograms.
//!
//! Determinism contract: like the closed-loop bench, the printed
//! summary is byte-identical for any real `--workers` value. That
//! requires separating two concerns the live daemon fuses:
//!
//! 1. **Service times** are measured by executing the schedule in
//!    fixed arrival-order waves against the *bounded* repository, each
//!    one `bench::run_wave` — the real worker count changes
//!    wall time, never results.
//! 2. **Queueing** is then computed by a discrete-event simulation
//!    (G/G/W on the simulated clock) over those service times, at
//!    *pinned virtual worker counts* (1 and 4) and under two dispatch
//!    disciplines: the daemon's deficit-round-robin queue
//!    ([`crate::scheduler::DrrQueue`] — literally the same type the
//!    live scheduler shards) charging each job its service cycles, and
//!    plain FIFO as the fairness control.
//!
//! One invocation therefore reports single-worker *and* multi-worker
//! latency: CI diffs the summary across real `--workers` values byte
//! for byte while still gating that 4 virtual workers outrun 1
//! (`BENCH_trajectory.json` serve row).
//!
//! The bounded repository is part of the measurement: the default
//! config caps capacity below the two tenants' combined profile
//! footprint, so merges continuously evict and checkouts alternate warm
//! and cold — the trajectory row pins the exact eviction count.

use std::time::{Duration, Instant};

use hpmopt_profile::{RepoConfig, SharedProfileRepo};
use hpmopt_telemetry::{HistogramId, Telemetry, TelemetrySnapshot};
use hpmopt_workloads::{setup, Size};

use crate::bench::run_wave;
use crate::job::{JobOutcome, JobSpec};
use crate::scheduler::DrrQueue;

/// The two tenants of the canonical open-loop mix.
const HEAVY: &str = "heavy";
const LIGHT: &str = "light";

/// Open-loop generator parameters.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Real worker threads executing jobs (wall time only — the summary
    /// is identical for any value).
    pub workers: usize,
    /// Jobs to pace in.
    pub jobs: usize,
    /// Arrival rate in jobs per second of simulated time; arrival `i`
    /// lands at `i * (MONITOR_CPU_HZ / qps)` cycles.
    pub qps: u64,
    /// Of every `heavy_share + 1` arrivals, `heavy_share` belong to the
    /// heavy tenant and one to the light tenant.
    pub heavy_share: usize,
    /// Workloads: the heavy tenant runs `workloads[0]`, the light
    /// tenant `workloads[1 % len]` — two distinct profile fingerprints
    /// fighting for the bounded repository.
    pub workloads: Vec<String>,
    /// Workload size.
    pub size: Size,
    /// Heap multiplier over each workload's minimum heap.
    pub heap_mult: u64,
    /// Seed (stamped into the summary; execution is schedule-driven).
    pub seed: u64,
    /// Repository merge decay.
    pub decay: f64,
    /// DRR quantum in service cycles for the fair virtual dispatch.
    pub quantum_cycles: u64,
    /// Bounds of the shared profile repository under test.
    pub repo: RepoConfig,
    /// Jobs per execution wave (the checkout-snapshot granularity).
    pub wave: usize,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            workers: 4,
            jobs: 24,
            // jess tiny runs ~3.9M service cycles, so a 250k-cycle
            // arrival gap with a 3:1 jess share loads four virtual
            // workers at ρ≈3: the queue genuinely builds (nonzero wait
            // percentiles, real fair-vs-FIFO separation) while four
            // workers still clearly outrun one.
            qps: 400,
            heavy_share: 3,
            // Heavy tenant: expensive jess jobs. Light tenant: cheap
            // fop jobs that FIFO would trap behind the jess backlog.
            workloads: vec!["jess".to_string(), "fop".to_string()],
            size: Size::Tiny,
            heap_mult: 4,
            seed: 0xB0B,
            decay: 0.5,
            quantum_cycles: 1_000_000,
            // One shard, capacity under the two tenants' combined
            // profile footprint (fop ≈ 156 B, jess ≈ 452 B): the two
            // fingerprints cannot coexist, so eviction runs
            // continuously (pinned in the trajectory row).
            repo: RepoConfig {
                shards: 1,
                capacity_bytes: Some(512),
                ttl_ops: None,
            },
            wave: 8,
        }
    }
}

/// One arrival for the queueing simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimJob {
    /// Tenant index (0 = heavy, 1 = light).
    pub tenant: usize,
    /// Arrival cycle on the simulated clock.
    pub arrival: u64,
    /// Service cycles (the job's measured simulated execution length).
    pub service: u64,
}

/// Virtual dispatch discipline for [`simulate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// Deficit round robin across tenants, charging each job its
    /// service cycles against the given quantum.
    Fair {
        /// DRR quantum in service cycles.
        quantum: u64,
    },
    /// Plain arrival-order FIFO (the fairness control).
    Fifo,
}

/// What one queueing simulation produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Per dispatched job: (tenant index, queue-wait cycles), in
    /// dispatch order.
    pub waits: Vec<(usize, u64)>,
    /// Cycle the last job finished.
    pub makespan: u64,
    /// Deepest the queue got, measured after each admission sweep.
    pub max_depth: usize,
}

/// Deterministic discrete-event G/G/W queueing simulation: `workers`
/// virtual servers drain `jobs` (sorted by arrival) under `dispatch`.
/// Pure integer arithmetic on the simulated clock — no wall time, no
/// randomness, no dependence on real thread scheduling.
#[must_use]
pub fn simulate(jobs: &[SimJob], workers: usize, dispatch: Dispatch) -> SimResult {
    let tenant_name = |t: usize| if t == 0 { HEAVY } else { LIGHT };
    let mut fair = match dispatch {
        Dispatch::Fair { quantum } => Some(DrrQueue::new(quantum)),
        Dispatch::Fifo => None,
    };
    let mut fifo: std::collections::VecDeque<SimJob> = std::collections::VecDeque::new();
    let queue_len = |fair: &Option<DrrQueue<SimJob>>, fifo: &std::collections::VecDeque<SimJob>| {
        fair.as_ref().map_or(fifo.len(), DrrQueue::len)
    };

    let mut free = vec![0u64; workers.max(1)];
    let mut next = 0; // arrival pointer
    let mut result = SimResult {
        waits: Vec::with_capacity(jobs.len()),
        makespan: 0,
        max_depth: 0,
    };
    while next < jobs.len() || queue_len(&fair, &fifo) > 0 {
        // Earliest-free virtual worker, lowest index on ties.
        let w = (0..free.len()).min_by_key(|&i| (free[i], i)).unwrap();
        let mut t = free[w];
        if queue_len(&fair, &fifo) == 0 {
            // Idle: advance to the next arrival.
            t = t.max(jobs[next].arrival);
        }
        while next < jobs.len() && jobs[next].arrival <= t {
            let job = jobs[next].clone();
            match &mut fair {
                Some(q) => q.push(tenant_name(job.tenant), job.service, job),
                None => fifo.push_back(job),
            }
            next += 1;
        }
        result.max_depth = result.max_depth.max(queue_len(&fair, &fifo));
        let job = match &mut fair {
            Some(q) => q.pop(),
            None => fifo.pop_front(),
        }
        .expect("loop invariant: queue is non-empty here");
        // An idle-jump iteration can admit several simultaneous
        // arrivals; a different worker may then pop one while its own
        // free time is still below that arrival. Dispatch never starts
        // before the job arrives.
        let start = t.max(job.arrival);
        result.waits.push((job.tenant, start - job.arrival));
        free[w] = start + job.service;
        result.makespan = result.makespan.max(free[w]);
    }
    result
}

/// Exact nearest-rank percentile of an unsorted sample (0 when empty).
#[must_use]
pub fn percentile(values: &[u64], pct: u64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (values.len() as u64 * pct).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Per-tenant outcome of the fair 4-worker simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantLatency {
    /// Tenant label.
    pub tenant: String,
    /// Jobs the tenant completed (must never be 0 — that is
    /// starvation).
    pub completed: usize,
    /// p99 queue wait in simulated cycles under fair dispatch.
    pub p99_wait_fair: u64,
    /// p99 queue wait under the FIFO control.
    pub p99_wait_fifo: u64,
}

/// What one open-loop run produced.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// The deterministic, timing-free summary (identical for any real
    /// worker count).
    pub summary: String,
    /// Jobs executed to completion.
    pub jobs: usize,
    /// Completed jobs whose digest deviated from the unmonitored
    /// baseline (must be 0).
    pub perturbation_deltas: usize,
    /// Profiles the bounded repository evicted.
    pub evictions: u64,
    /// Throughput at one virtual worker (jobs per simulated second).
    pub throughput_1w: f64,
    /// Throughput at four virtual workers.
    pub throughput_4w: f64,
    /// Queue-wait percentiles at four virtual workers, fair dispatch.
    pub p50_wait: u64,
    /// 95th percentile queue wait.
    pub p95_wait: u64,
    /// 99th percentile queue wait.
    pub p99_wait: u64,
    /// 99th percentile service time.
    pub p99_service: u64,
    /// Per-tenant latency split (heavy, then light).
    pub tenants: Vec<TenantLatency>,
    /// Frozen telemetry of the run (`serve.queue_wait_cycles`,
    /// `serve.service_cycles` histograms).
    pub telemetry: TelemetrySnapshot,
    /// Wall-clock duration (excluded from the summary).
    pub wall: Duration,
}

impl OpenLoopReport {
    /// The gate: zero perturbation, and four virtual workers strictly
    /// outrun one.
    #[must_use]
    pub fn check(&self) -> bool {
        self.perturbation_deltas == 0 && self.throughput_4w > self.throughput_1w
    }

    /// The non-deterministic wall-clock line (stderr only).
    #[must_use]
    pub fn throughput_line(&self) -> String {
        format!("open-loop wall {:.3}s", self.wall.as_secs_f64())
    }
}

fn fmt_jobs_per_sec(jobs: usize, makespan_cycles: u64) -> f64 {
    if makespan_cycles == 0 {
        return 0.0;
    }
    jobs as f64 * setup::MONITOR_CPU_HZ as f64 / makespan_cycles as f64
}

/// Run the open-loop bench: execute the paced schedule in waves against
/// a fresh *bounded* repository, then simulate queueing at pinned
/// virtual worker counts and build the deterministic summary.
///
/// # Panics
///
/// Panics when a job fails outright (the canonical workloads must not
/// fault) — killed/cancelled jobs cannot occur here (no budgets, no
/// cancel token).
#[must_use]
pub fn run_openloop(config: &OpenLoopConfig) -> OpenLoopReport {
    let period = config.heavy_share + 1;
    let gap = setup::MONITOR_CPU_HZ / config.qps.max(1);
    // Each job's spec, and its arrival for the queueing simulation; the
    // service cycles are filled in once the job has run.
    let (specs, mut sim_jobs): (Vec<JobSpec>, Vec<SimJob>) = (0..config.jobs)
        .map(|i| {
            let tenant = usize::from(i % period == period - 1); // 0 heavy, 1 light
            let name = [HEAVY, LIGHT][tenant];
            let workload = &config.workloads[tenant % config.workloads.len().max(1)];
            let mut spec = JobSpec::new(name, workload);
            spec.size = config.size;
            spec.heap_mult = config.heap_mult;
            let arrival = i as u64 * gap;
            (
                spec,
                SimJob {
                    tenant,
                    arrival,
                    service: 0,
                },
            )
        })
        .unzip();

    let repo = SharedProfileRepo::with_config(config.repo.clone());
    let telemetry = Telemetry::enabled(hpmopt_telemetry::DEFAULT_TRACE_CAPACITY);
    let start = Instant::now();

    // Phase 1: measure service times deterministically, wave by wave.
    let mut deltas = 0usize;
    let mut warm_checkouts = 0usize;
    let wave_len = config.wave.max(1);
    for (wave, sims) in specs.chunks(wave_len).zip(sim_jobs.chunks_mut(wave_len)) {
        let (runs, warm) = run_wave(wave, &repo, config.workers, config.decay);
        warm_checkouts += warm;
        for ((spec, run), sim) in wave.iter().zip(&runs).zip(sims) {
            assert!(
                run.outcome == JobOutcome::Completed,
                "open-loop job ({} {}) did not complete: {:?}",
                spec.tenant,
                spec.workload,
                run.outcome
            );
            let baseline = spec
                .resolve()
                .map(|w| setup::baseline_digest(&w, spec.size, spec.heap_mult, 1));
            if baseline != Some(run.digest) {
                deltas += 1;
            }
            telemetry.observe(HistogramId::ServeServiceCycles, run.cycles);
            sim.service = run.cycles;
        }
    }

    // Phase 2: queueing at pinned virtual worker counts. The real
    // `config.workers` has no influence from here on.
    let fair = Dispatch::Fair {
        quantum: config.quantum_cycles,
    };
    let sim_1w = simulate(&sim_jobs, 1, fair);
    let sim_4w = simulate(&sim_jobs, 4, fair);
    let fifo_4w = simulate(&sim_jobs, 4, Dispatch::Fifo);
    for &(_, wait) in &sim_4w.waits {
        telemetry.observe(HistogramId::ServeQueueWaitCycles, wait);
    }

    let all_waits: Vec<u64> = sim_4w.waits.iter().map(|&(_, w)| w).collect();
    let services: Vec<u64> = sim_jobs.iter().map(|j| j.service).collect();
    let tenants: Vec<TenantLatency> = [(0, HEAVY), (1, LIGHT)]
        .iter()
        .map(|&(idx, name)| {
            let fair_waits: Vec<u64> = sim_4w
                .waits
                .iter()
                .filter(|&&(t, _)| t == idx)
                .map(|&(_, w)| w)
                .collect();
            let fifo_waits: Vec<u64> = fifo_4w
                .waits
                .iter()
                .filter(|&&(t, _)| t == idx)
                .map(|&(_, w)| w)
                .collect();
            TenantLatency {
                tenant: name.to_string(),
                completed: fair_waits.len(),
                p99_wait_fair: percentile(&fair_waits, 99),
                p99_wait_fifo: percentile(&fifo_waits, 99),
            }
        })
        .collect();

    let stats = repo.stats();
    let throughput_1w = fmt_jobs_per_sec(sim_jobs.len(), sim_1w.makespan);
    let throughput_4w = fmt_jobs_per_sec(sim_jobs.len(), sim_4w.makespan);
    let (p50, p95, p99) = (
        percentile(&all_waits, 50),
        percentile(&all_waits, 95),
        percentile(&all_waits, 99),
    );
    let p99_service = percentile(&services, 99);

    let mut summary = format!(
        "serve open-loop: {} job(s) @ {} qps (gap {} cycles), heavy:light {}:1, \
         workloads [{}], size {:?}, heap {}x, seed {:#x}, quantum {} cycles, wave {}\n",
        config.jobs,
        config.qps,
        gap,
        config.heavy_share,
        config.workloads.join(", "),
        config.size,
        config.heap_mult,
        config.seed,
        config.quantum_cycles,
        config.wave
    );
    summary.push_str(&format!(
        "repo bound: {} shard(s), capacity {}, ttl {}\n",
        config.repo.shards,
        config
            .repo
            .capacity_bytes
            .map_or_else(|| "unbounded".to_string(), |b| format!("{b} bytes")),
        config
            .repo
            .ttl_ops
            .map_or_else(|| "off".to_string(), |t| format!("{t} ops")),
    ));
    for (label, sim) in [("1w", &sim_1w), ("4w", &sim_4w)] {
        let waits: Vec<u64> = sim.waits.iter().map(|&(_, w)| w).collect();
        summary.push_str(&format!(
            "virtual {label}: throughput {:.2} jobs/s, queue wait p50 {} p95 {} p99 {}, \
             max depth {}, makespan {} cycles\n",
            fmt_jobs_per_sec(sim.waits.len(), sim.makespan),
            percentile(&waits, 50),
            percentile(&waits, 95),
            percentile(&waits, 99),
            sim.max_depth,
            sim.makespan
        ));
    }
    summary.push_str(&format!("service p99: {p99_service} cycles\n"));
    for t in &tenants {
        summary.push_str(&format!(
            "tenant {}: completed {}, p99 queue wait {} cycles fair vs {} fifo (4w)\n",
            t.tenant, t.completed, t.p99_wait_fair, t.p99_wait_fifo
        ));
    }
    summary.push_str(&format!(
        "repo: {} profile(s), {} eviction(s) ({} ttl), {} checkout(s) ({} warm), {} merge(s)\n",
        repo.len(),
        stats.evictions,
        stats.ttl_evictions,
        stats.checkouts,
        warm_checkouts,
        stats.merges
    ));
    summary.push_str(&format!("perturbation deltas: {deltas}\n"));
    summary.push_str(&format!(
        "multi-worker speedup: {}\n",
        throughput_4w > throughput_1w
    ));

    OpenLoopReport {
        summary,
        jobs: sim_jobs.len(),
        perturbation_deltas: deltas,
        evictions: stats.evictions,
        throughput_1w,
        throughput_4w,
        p50_wait: p50,
        p95_wait: p95,
        p99_wait: p99,
        p99_service,
        tenants,
        telemetry: telemetry.snapshot(0),
        wall: start.elapsed(),
    }
}

/// One open-loop serve-bench measurement: the scale-out row of the
/// performance trajectory (`hpmopt-bench`, which owns the JSON schema
/// and the gate).
#[derive(Debug, Clone, PartialEq)]
pub struct ServePoint {
    /// Row name (`"openloop"` for the pinned default run).
    pub name: String,
    /// Jobs the open-loop generator paced in.
    pub jobs: u64,
    /// Arrival rate in queries per second of simulated time.
    pub qps: u64,
    /// Completed jobs per second of simulated time with one virtual
    /// worker.
    pub throughput_1w_jobs_per_sec: f64,
    /// Completed jobs per second of simulated time with four virtual
    /// workers. Must be strictly above the 1-worker figure: if adding
    /// workers stops helping, the scheduler has regressed.
    pub throughput_4w_jobs_per_sec: f64,
    /// Queue-wait percentiles (simulated cycles) under tenant-fair
    /// dispatch at four virtual workers.
    pub p50_queue_wait_cycles: u64,
    /// 95th percentile queue wait (simulated cycles).
    pub p95_queue_wait_cycles: u64,
    /// 99th percentile queue wait (simulated cycles) — the gated tail.
    pub p99_queue_wait_cycles: u64,
    /// 99th percentile service time (simulated cycles).
    pub p99_service_cycles: u64,
    /// Profiles evicted by the bounded repository during the run. Exact
    /// (deterministic): any drift is a behavior change.
    pub repo_evictions: u64,
    /// Completed jobs whose digest deviated from the unmonitored
    /// baseline. Must be zero.
    pub perturbation_deltas: u64,
    /// Wall-clock milliseconds of the run. Informational only.
    pub wall_ms: u64,
}

/// Measure the pinned `serve` trajectory row: the default open-loop
/// config under the default seed, shaped for `BENCH_trajectory.json`.
///
/// # Panics
///
/// Panics when the run perturbs (a perturbed measurement must never
/// reach a baseline file) or when virtual multi-worker throughput fails
/// to beat single-worker.
#[must_use]
pub fn trajectory_point() -> ServePoint {
    let config = OpenLoopConfig::default();
    let report = run_openloop(&config);
    assert_eq!(
        report.perturbation_deltas, 0,
        "open-loop run perturbed the guest"
    );
    assert!(
        report.throughput_4w > report.throughput_1w,
        "4 virtual workers must outrun 1: {} vs {} jobs/s",
        report.throughput_4w,
        report.throughput_1w
    );
    ServePoint {
        name: "openloop".to_string(),
        jobs: report.jobs as u64,
        qps: config.qps,
        throughput_1w_jobs_per_sec: report.throughput_1w,
        throughput_4w_jobs_per_sec: report.throughput_4w,
        p50_queue_wait_cycles: report.p50_wait,
        p95_queue_wait_cycles: report.p95_wait,
        p99_queue_wait_cycles: report.p99_wait,
        p99_service_cycles: report.p99_service,
        repo_evictions: report.evictions,
        perturbation_deltas: report.perturbation_deltas as u64,
        wall_ms: report.wall.as_millis() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs_heavy_light(heavy: &[(u64, u64)], light: &[(u64, u64)]) -> Vec<SimJob> {
        let mut jobs: Vec<SimJob> = heavy
            .iter()
            .map(|&(arrival, service)| SimJob {
                tenant: 0,
                arrival,
                service,
            })
            .chain(light.iter().map(|&(arrival, service)| SimJob {
                tenant: 1,
                arrival,
                service,
            }))
            .collect();
        jobs.sort_by_key(|j| j.arrival);
        jobs
    }

    #[test]
    fn simulate_single_job_has_zero_wait() {
        let jobs = jobs_heavy_light(&[(100, 5000)], &[]);
        let r = simulate(&jobs, 1, Dispatch::Fifo);
        assert_eq!(r.waits, vec![(0, 0)]);
        assert_eq!(r.makespan, 5100);
    }

    #[test]
    fn simulate_more_workers_cut_the_makespan() {
        // Four simultaneous arrivals, equal service: 1 worker
        // serializes, 4 workers run them all at once.
        let jobs = jobs_heavy_light(&[(0, 1000), (0, 1000), (0, 1000), (0, 1000)], &[]);
        let one = simulate(&jobs, 1, Dispatch::Fifo);
        let four = simulate(&jobs, 4, Dispatch::Fifo);
        assert_eq!(one.makespan, 4000);
        assert_eq!(four.makespan, 1000);
        assert!(four.waits.iter().all(|&(_, w)| w == 0));
        assert_eq!(one.waits.iter().map(|&(_, w)| w).max(), Some(3000));
    }

    #[test]
    fn simulate_duplicate_arrivals_never_start_before_arrival() {
        // Regression: two jobs arriving at the same nonzero cycle with
        // two idle workers. The idle jump admits both on worker 0's
        // iteration; worker 1 (free at 0) then pops the second job and
        // `t - arrival` underflowed. Both jobs must start at their
        // arrival with zero wait.
        let jobs = jobs_heavy_light(&[(1000, 500), (1000, 500)], &[]);
        let r = simulate(&jobs, 2, Dispatch::Fifo);
        assert_eq!(r.waits, vec![(0, 0), (0, 0)]);
        assert_eq!(r.makespan, 1500);
        let fair = simulate(&jobs, 2, Dispatch::Fair { quantum: 1000 });
        assert_eq!(fair.waits, vec![(0, 0), (0, 0)]);
    }

    #[test]
    fn fair_dispatch_bounds_the_light_tenants_wait() {
        // A heavy burst lands first; light jobs trickle in behind it.
        // FIFO makes every light job wait out the whole burst; DRR
        // interleaves.
        let heavy: Vec<(u64, u64)> = (0..20).map(|i| (i * 10, 200_000)).collect();
        let light: Vec<(u64, u64)> = (0..5).map(|i| (500 + i * 10, 1_000)).collect();
        let jobs = jobs_heavy_light(&heavy, &light);
        let fair = simulate(&jobs, 1, Dispatch::Fair { quantum: 100_000 });
        let fifo = simulate(&jobs, 1, Dispatch::Fifo);
        let light_p99 = |r: &SimResult| {
            let waits: Vec<u64> = r
                .waits
                .iter()
                .filter(|&&(t, _)| t == 1)
                .map(|&(_, w)| w)
                .collect();
            assert_eq!(waits.len(), 5, "no light job starved");
            percentile(&waits, 99)
        };
        let (fair_p99, fifo_p99) = (light_p99(&fair), light_p99(&fifo));
        assert!(
            fair_p99 < fifo_p99 / 2,
            "DRR must shield the light tenant: fair p99 {fair_p99} vs fifo p99 {fifo_p99}"
        );
    }

    #[test]
    fn simulate_is_deterministic() {
        let heavy: Vec<(u64, u64)> = (0..10).map(|i| (i * 7, 50_000 + i * 13)).collect();
        let light: Vec<(u64, u64)> = (0..3).map(|i| (i * 11, 900 + i)).collect();
        let jobs = jobs_heavy_light(&heavy, &light);
        for &workers in &[1usize, 2, 4] {
            let a = simulate(&jobs, workers, Dispatch::Fair { quantum: 10_000 });
            let b = simulate(&jobs, workers, Dispatch::Fair { quantum: 10_000 });
            assert_eq!(a, b);
        }
    }

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 99), 0);
    }
}
