//! The deterministic load generator behind `hpmopt-serve bench` and the
//! trajectory's `serve` row.
//!
//! One generator covers both load shapes. A run paces a fixed job list
//! at `qps` jobs per second of **simulated** time
//! ([`setup::MONITOR_CPU_HZ`]); a closed loop is the unbounded-rate
//! case, `qps: None`, where every job is due at cycle 0. The printed
//! summary is byte-identical for any real worker count, which takes
//! two steps the live daemon ([`crate::service`]) fuses:
//!
//! 1. **Service times** are measured by running the jobs in fixed
//!    arrival-order waves against the run's shared profile repository,
//!    each one `run_wave`: the real worker count changes wall time,
//!    never results. Warm starts appear from the second wave on.
//! 2. **Queueing** is then computed by a discrete-event simulation
//!    ([`simulate`], G/G/W on the simulated clock) over those service
//!    times, at pinned virtual worker counts (1 and 4) and under two
//!    dispatch disciplines: the daemon's deficit-round-robin queue
//!    ([`DrrQueue`], the type the live scheduler shards) charging each
//!    job its service cycles, and plain FIFO as the fairness control.
//!
//! Three invariants are checked per run ([`LoadReport::check`]): zero
//! perturbation (every job completes with the unmonitored baseline's
//! state digest), the fleet warm-start payoff (per program measured
//! both cold and warm, mean warm cycles-to-first-decision strictly
//! below the cold mean), and four virtual workers strictly outrunning
//! one. Wall-clock throughput goes to [`LoadReport::throughput_line`],
//! never into the summary.
//!
//! The two presets are data: [`LoadConfig::closed_loop`] measures warm
//! start over an unbounded repository, [`LoadConfig::open_loop`] the
//! queue-wait tails of a heavy and a light tenant over a repository too
//! small for both, so merges keep evicting.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use hpmopt_prim::pool;
use hpmopt_profile::{RepoConfig, SharedProfileRepo, MERGE_DECAY};
use hpmopt_workloads::setup;

use crate::job::{fingerprint_of, run_job, JobOutcome, JobRun, JobSpec};
use crate::scheduler::DrrQueue;

/// DRR quantum of the virtual fair dispatch, in service cycles.
const QUANTUM_CYCLES: u64 = 1_000_000;

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Real worker threads per wave (wall time only: the summary is
    /// identical for any value).
    pub workers: usize,
    /// The jobs, in arrival order.
    pub jobs: Vec<JobSpec>,
    /// Arrival rate in jobs per second of simulated time: job `i`
    /// arrives at `i * (MONITOR_CPU_HZ / qps)` cycles. `None` is a
    /// closed loop, every job due at cycle 0.
    pub qps: Option<u64>,
    /// Jobs per execution wave (the checkout-snapshot granularity).
    pub wave: usize,
    /// Bounds of the shared profile repository under test.
    pub repo: RepoConfig,
}

impl LoadConfig {
    /// Warm start under a closed loop: 12 db and hsqldb jobs of two
    /// tenants, in waves of 4 over an unbounded repository.
    #[must_use]
    pub fn closed_loop(workers: usize) -> Self {
        const JOBS: [(&str, &str); 12] = [
            ("t0", "db"),
            ("t0", "hsqldb"),
            ("t1", "hsqldb"),
            ("t0", "db"),
            ("t1", "db"),
            ("t1", "db"),
            ("t1", "hsqldb"),
            ("t1", "db"),
            ("t0", "hsqldb"),
            ("t0", "hsqldb"),
            ("t0", "db"),
            ("t0", "hsqldb"),
        ];
        LoadConfig {
            workers,
            jobs: JOBS.iter().map(|&(t, w)| JobSpec::new(t, w)).collect(),
            qps: None,
            wave: 4,
            repo: RepoConfig::default(),
        }
    }

    /// Queue-wait tails and fairness under an open loop: 24 jobs at
    /// 400 qps, three expensive jess jobs of a heavy tenant to each
    /// cheap fop job of a light tenant, which FIFO would trap behind the
    /// jess backlog. jess Tiny runs about 3.9M service cycles, so the
    /// 250k-cycle arrival gap loads four virtual workers at ρ≈3: the
    /// queue builds while four workers still clearly outrun one. The
    /// single 512-byte shard holds fop's profile (about 156 bytes) or
    /// jess's (about 452) but not both, so merges keep evicting.
    #[must_use]
    pub fn open_loop(workers: usize) -> Self {
        LoadConfig {
            workers,
            jobs: (0..24)
                .map(|i| match i % 4 {
                    3 => JobSpec::new("light", "fop"),
                    _ => JobSpec::new("heavy", "jess"),
                })
                .collect(),
            qps: Some(400),
            wave: 8,
            repo: RepoConfig {
                shards: 1,
                capacity_bytes: Some(512),
                ttl_ops: None,
            },
        }
    }

    /// The run's name in the summary and its trajectory row.
    fn name(&self) -> &'static str {
        if self.qps.is_some() {
            "openloop"
        } else {
            "closedloop"
        }
    }
}

/// Run one wave of jobs against `repo` so that the results depend only
/// on the jobs, never on `workers`:
///
/// 1. every job checks out its warm profile from the repository state
///    at wave start, so concurrent jobs cannot observe each other;
/// 2. the jobs run on the indexed work-stealing pool
///    ([`hpmopt_prim::pool`]), whose output depends only on the task
///    function and the index range;
/// 3. the fresh profiles merge at the wave barrier, in job-index order.
fn run_wave(jobs: &[JobSpec], repo: &SharedProfileRepo, workers: usize) -> Vec<JobRun> {
    let checkouts: Vec<_> = jobs
        .iter()
        .map(|spec| {
            spec.resolve()
                .and_then(|w| repo.checkout(&fingerprint_of(spec, &w)))
        })
        .collect();
    let runs: Vec<JobRun> =
        pool::contiguous_prefix(pool::run_indexed(jobs.len() as u64, workers, None, |i| {
            run_job(&jobs[i as usize], checkouts[i as usize].clone(), None, None)
        }));
    for fresh in runs.iter().filter_map(|run| run.fresh_profile.as_ref()) {
        repo.merge(fresh, MERGE_DECAY);
    }
    runs
}

/// One arrival for the queueing simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimJob {
    /// Tenant index (tenants numbered in order of first arrival).
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

impl SimResult {
    /// Jobs completed per second of simulated time.
    fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.waits.len() as f64 * setup::MONITOR_CPU_HZ as f64 / self.makespan as f64
    }

    /// Queue waits of tenant `tenant`, or of every tenant when `None`,
    /// in dispatch order.
    fn waits_of(&self, tenant: Option<usize>) -> Vec<u64> {
        self.waits
            .iter()
            .filter(|&&(t, _)| tenant.is_none_or(|want| t == want))
            .map(|&(_, w)| w)
            .collect()
    }
}

/// Deterministic discrete-event G/G/W queueing simulation: `workers`
/// virtual servers drain `jobs` (sorted by arrival) under `dispatch`.
/// Pure integer arithmetic on the simulated clock — no wall time, no
/// randomness, no dependence on real thread scheduling.
#[must_use]
pub fn simulate(jobs: &[SimJob], workers: usize, dispatch: Dispatch) -> SimResult {
    let mut fair = match dispatch {
        Dispatch::Fair { quantum } => Some(DrrQueue::new(quantum)),
        Dispatch::Fifo => None,
    };
    let mut fifo: VecDeque<SimJob> = VecDeque::new();
    let queue_len = |fair: &Option<DrrQueue<SimJob>>, fifo: &VecDeque<SimJob>| {
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
                Some(q) => q.push(&job.tenant.to_string(), job.service, job),
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

/// Per-tenant outcome of the 4-worker simulations.
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

/// One load-generator run's numbers: a row of the performance
/// trajectory (`hpmopt-bench`, which owns the JSON schema and the gate).
#[derive(Debug, Clone, PartialEq)]
pub struct ServePoint {
    /// Row name (`"openloop"` for the open-loop preset).
    pub name: String,
    /// Jobs the generator paced in.
    pub jobs: u64,
    /// Arrival rate in queries per second of simulated time (0 for a
    /// closed loop).
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
    /// Jobs that failed or whose digest deviated from the unmonitored
    /// baseline. Must be zero.
    pub perturbation_deltas: u64,
    /// Wall-clock milliseconds of the run. Informational only.
    pub wall_ms: u64,
}

/// What one load-generator run produced.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The deterministic, timing-free summary (identical for any real
    /// worker count).
    pub summary: String,
    /// The run's numbers.
    pub point: ServePoint,
    /// Per-tenant latency split, tenants in order of first arrival.
    pub tenants: Vec<TenantLatency>,
    /// Whether every program measured both cold and warm showed mean
    /// warm cycles-to-first-decision strictly below the cold mean;
    /// `None` when no program was measured both ways.
    pub warm_beats_cold: Option<bool>,
}

impl LoadReport {
    /// The gate: zero perturbation, no program whose warm runs decide
    /// later than its cold runs, and four virtual workers strictly
    /// outrunning one. A run that measured no program both cold and
    /// warm passes this; whoever needs the warm-start payoff checks
    /// [`LoadReport::warm_beats_cold`] is `Some(true)`.
    #[must_use]
    pub fn check(&self) -> bool {
        self.point.perturbation_deltas == 0
            && self.warm_beats_cold != Some(false)
            && self.point.throughput_4w_jobs_per_sec > self.point.throughput_1w_jobs_per_sec
    }

    /// The non-deterministic wall-clock line (stderr only).
    #[must_use]
    pub fn throughput_line(&self) -> String {
        let secs = self.point.wall_ms as f64 / 1000.0;
        format!(
            "{} wall {secs:.3}s, {:.2} jobs/s",
            self.point.name,
            self.point.jobs as f64 / secs.max(1e-3)
        )
    }
}

/// Run the generator: execute the jobs wave by wave against a fresh
/// repository bounded by `config.repo`, simulate queueing at pinned
/// virtual worker counts and build the deterministic summary.
#[must_use]
pub fn run_load(config: &LoadConfig) -> LoadReport {
    let start = Instant::now();
    let gap = config.qps.map_or(0, |q| setup::MONITOR_CPU_HZ / q.max(1));
    let repo = SharedProfileRepo::with_config(config.repo.clone());
    let mut summary = format!(
        "serve {}: {} job(s) @ {} qps (gap {gap} cycles), wave {}, quantum {QUANTUM_CYCLES} cycles\n",
        config.name(),
        config.jobs.len(),
        config.qps.map_or_else(|| "unbounded".to_string(), |q| q.to_string()),
        config.wave
    );
    summary.push_str(&format!("repo bound: {:?}\n", config.repo));

    // Phase 1: measure service times deterministically, wave by wave.
    let mut tenant_names: Vec<&str> = Vec::new();
    let mut sim_jobs = Vec::with_capacity(config.jobs.len());
    // Per program: (cold first-decisions, warm first-decisions).
    let mut per_program: BTreeMap<&str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    let mut deltas = 0u64;
    for wave in config.jobs.chunks(config.wave.max(1)) {
        for (spec, run) in wave.iter().zip(run_wave(wave, &repo, config.workers)) {
            let baseline = spec
                .resolve()
                .map(|w| setup::baseline_digest(&w, spec.size, spec.heap_mult, 1));
            if run.outcome != JobOutcome::Completed || baseline != Some(run.digest) {
                deltas += 1;
            }
            if let Some(first) = run.first_decision_cycles {
                let slot = per_program.entry(spec.workload.as_str()).or_default();
                if run.warm {
                    slot.1.push(first);
                } else {
                    slot.0.push(first);
                }
            }
            let tenant = tenant_names
                .iter()
                .position(|&t| t == spec.tenant)
                .unwrap_or_else(|| {
                    tenant_names.push(&spec.tenant);
                    tenant_names.len() - 1
                });
            summary.push_str(&format!(
                "job {} tenant {} workload {} {} {} cycles {} first-decision {} digest {:#018x}\n",
                sim_jobs.len(),
                spec.tenant,
                spec.workload,
                if run.warm { "warm" } else { "cold" },
                run.outcome.tag(),
                run.cycles,
                run.first_decision_cycles
                    .map_or_else(|| "never".to_string(), |c| c.to_string()),
                run.digest
            ));
            sim_jobs.push(SimJob {
                tenant,
                arrival: sim_jobs.len() as u64 * gap,
                service: run.cycles,
            });
        }
    }

    let mut warm_beats_cold = None;
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
    for (program, (cold, warm)) in &per_program {
        if cold.is_empty() || warm.is_empty() {
            continue;
        }
        let (cm, wm) = (mean(cold), mean(warm));
        summary.push_str(&format!(
            "program {program}: cold mean first-decision {cm:.0} ({}), warm mean {wm:.0} ({})\n",
            cold.len(),
            warm.len()
        ));
        warm_beats_cold = Some(warm_beats_cold.unwrap_or(true) && wm < cm);
    }

    // Phase 2: queueing at pinned virtual worker counts. The real
    // `config.workers` has no influence from here on.
    let fair = Dispatch::Fair {
        quantum: QUANTUM_CYCLES,
    };
    let sim_1w = simulate(&sim_jobs, 1, fair);
    let sim_4w = simulate(&sim_jobs, 4, fair);
    let fifo_4w = simulate(&sim_jobs, 4, Dispatch::Fifo);
    for (label, sim) in [("1w", &sim_1w), ("4w", &sim_4w)] {
        let waits = sim.waits_of(None);
        summary.push_str(&format!(
            "virtual {label}: throughput {:.2} jobs/s, queue wait p50 {} p95 {} p99 {}, \
             max depth {}, makespan {} cycles\n",
            sim.throughput(),
            percentile(&waits, 50),
            percentile(&waits, 95),
            percentile(&waits, 99),
            sim.max_depth,
            sim.makespan
        ));
    }
    let services: Vec<u64> = sim_jobs.iter().map(|j| j.service).collect();
    let p99_service = percentile(&services, 99);
    summary.push_str(&format!("service p99: {p99_service} cycles\n"));
    let tenants: Vec<TenantLatency> = tenant_names
        .iter()
        .enumerate()
        .map(|(idx, name)| {
            let fair_waits = sim_4w.waits_of(Some(idx));
            TenantLatency {
                tenant: name.to_string(),
                completed: fair_waits.len(),
                p99_wait_fair: percentile(&fair_waits, 99),
                p99_wait_fifo: percentile(&fifo_4w.waits_of(Some(idx)), 99),
            }
        })
        .collect();
    for t in &tenants {
        summary.push_str(&format!(
            "tenant {}: completed {}, p99 queue wait {} cycles fair vs {} fifo (4w)\n",
            t.tenant, t.completed, t.p99_wait_fair, t.p99_wait_fifo
        ));
    }

    let stats = repo.stats();
    summary.push_str(&format!(
        "repo: {} profile(s), {} eviction(s) ({} ttl), {} checkout(s) ({} warm), {} merge(s)\n",
        repo.len(),
        stats.evictions,
        stats.ttl_evictions,
        stats.checkouts,
        stats.warm_checkouts,
        stats.merges
    ));
    let (throughput_1w, throughput_4w) = (sim_1w.throughput(), sim_4w.throughput());
    summary.push_str(&format!("perturbation deltas: {deltas}\n"));
    summary.push_str(&format!(
        "warm beats cold: {}\n",
        warm_beats_cold.map_or_else(|| "unmeasured".to_string(), |ok| ok.to_string())
    ));
    summary.push_str(&format!(
        "multi-worker speedup: {}\n",
        throughput_4w > throughput_1w
    ));

    let all_waits = sim_4w.waits_of(None);
    LoadReport {
        summary,
        point: ServePoint {
            name: config.name().to_string(),
            jobs: sim_jobs.len() as u64,
            qps: config.qps.unwrap_or(0),
            throughput_1w_jobs_per_sec: throughput_1w,
            throughput_4w_jobs_per_sec: throughput_4w,
            p50_queue_wait_cycles: percentile(&all_waits, 50),
            p95_queue_wait_cycles: percentile(&all_waits, 95),
            p99_queue_wait_cycles: percentile(&all_waits, 99),
            p99_service_cycles: p99_service,
            repo_evictions: stats.evictions,
            perturbation_deltas: deltas,
            wall_ms: start.elapsed().as_millis() as u64,
        },
        tenants,
        warm_beats_cold,
    }
}

/// Measure the pinned `serve` trajectory row: the open-loop preset,
/// shaped for `BENCH_trajectory.json`.
///
/// # Panics
///
/// Panics when the run fails [`LoadReport::check`]: a perturbed
/// measurement, or one where four virtual workers do not outrun one,
/// must never reach a baseline file.
#[must_use]
pub fn trajectory_point() -> ServePoint {
    let report = run_load(&LoadConfig::open_loop(4));
    assert!(report.check(), "open-loop run failed:\n{}", report.summary);
    report.point
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_jobs_are_pinned() {
        // The summary `hpmopt-serve bench` prints depends on this list.
        let jobs: Vec<String> = LoadConfig::closed_loop(1)
            .jobs
            .iter()
            .map(|s| format!("{}/{}", s.workload, s.tenant))
            .collect();
        assert_eq!(
            jobs.join(" "),
            "db/t0 hsqldb/t0 hsqldb/t1 db/t0 db/t1 db/t1 \
             hsqldb/t1 db/t1 hsqldb/t0 hsqldb/t0 db/t0 hsqldb/t0"
        );
    }

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
            let waits = r.waits_of(Some(1));
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
