//! Deterministic seeded load generator.
//!
//! The bench replays a mixed-workload job schedule at configurable
//! concurrency and prints a summary that is *byte-identical for any
//! worker count*. It draws the full schedule up front from the seed and
//! runs it in rounds, each one wave of `run_wave`, whose contract
//! makes the results independent of the worker count. The open-loop
//! generator ([`crate::openloop`]) runs its waves the same way.
//!
//! The live daemon ([`crate::service`]) intentionally skips the wave
//! snapshot and barrier (merge-on-completion, lower latency); the bench
//! is the mode CI can diff byte for byte. Wall-clock throughput is reported separately
//! ([`BenchReport::throughput_line`]) so the deterministic summary
//! stays free of timing.
//!
//! Two invariants are checked per job and surfaced in the summary:
//! zero perturbation (every completed job's state digest equals the
//! unmonitored baseline digest of its workload) and the fleet
//! warm-start payoff (per program, mean warm cycles-to-first-decision
//! strictly below the cold mean).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hpmopt_profile::SharedProfileRepo;
use hpmopt_stress::pool;
use hpmopt_workloads::{setup, Size};

use crate::job::{fingerprint_of, run_job, JobOutcome, JobRun, JobSpec};
use crate::scheduler::xorshift;

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Worker threads per round (the summary is identical for any
    /// value).
    pub workers: usize,
    /// Rounds to run; warm starts appear from round 1 on.
    pub rounds: usize,
    /// Jobs per round.
    pub jobs_per_round: usize,
    /// Tenants jobs are spread across.
    pub tenants: usize,
    /// Workload mix drawn from per job slot.
    pub workloads: Vec<String>,
    /// Workload size.
    pub size: Size,
    /// Heap multiplier over each workload's minimum heap.
    pub heap_mult: u64,
    /// Schedule seed.
    pub seed: u64,
    /// Repository merge decay.
    pub decay: f64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            workers: 4,
            rounds: 3,
            jobs_per_round: 4,
            tenants: 2,
            workloads: vec!["db".to_string(), "hsqldb".to_string()],
            size: Size::Tiny,
            heap_mult: 4,
            seed: 0xB0B,
            decay: 0.5,
        }
    }
}

/// What one bench run produced.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The deterministic, timing-free summary (worker-count
    /// independent).
    pub summary: String,
    /// Completed jobs whose digest deviated from the unmonitored
    /// baseline (must be 0).
    pub perturbation_deltas: usize,
    /// Whether every deciding program showed mean warm
    /// cycles-to-first-decision strictly below the cold mean — and at
    /// least one program decided at all.
    pub warm_ok: bool,
    /// Jobs executed.
    pub jobs: usize,
    /// Wall-clock duration (excluded from the summary).
    pub wall: Duration,
}

impl BenchReport {
    /// Both invariants hold: zero perturbation, warm beats cold.
    #[must_use]
    pub fn check(&self) -> bool {
        self.perturbation_deltas == 0 && self.warm_ok
    }

    /// The non-deterministic throughput line (print to stderr, never
    /// into the diffable summary).
    #[must_use]
    pub fn throughput_line(&self) -> String {
        let secs = self.wall.as_secs_f64().max(1e-9);
        format!(
            "wall {:.3}s, {:.2} jobs/s",
            self.wall.as_secs_f64(),
            self.jobs as f64 / secs
        )
    }
}

/// Draw the full job schedule from the seed, flat in execution order
/// (`rounds * jobs_per_round` entries).
#[must_use]
pub fn schedule(config: &BenchConfig) -> Vec<JobSpec> {
    let mut state = config.seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        state = xorshift(state.max(1));
        state
    };
    let mut specs = Vec::with_capacity(config.rounds * config.jobs_per_round);
    for _ in 0..config.rounds * config.jobs_per_round {
        let workload = &config.workloads[(next() as usize) % config.workloads.len().max(1)];
        let tenant = format!("t{}", next() % config.tenants.max(1) as u64);
        let mut spec = JobSpec::new(&tenant, workload);
        spec.size = config.size;
        spec.heap_mult = config.heap_mult;
        specs.push(spec);
    }
    specs
}

/// Run one wave of jobs against `repo` so that the results depend only
/// on the jobs, never on `workers`:
///
/// 1. every job checks out its warm profile from the repository state
///    at wave start, so concurrent jobs cannot observe each other;
/// 2. the jobs run on the indexed work-stealing pool
///    ([`hpmopt_stress::pool`]), whose output depends only on the task
///    function and the index range;
/// 3. the fresh profiles merge at the wave barrier, in job-index order.
///
/// Returns the runs in job order and the number of checkouts that found
/// a warm profile.
pub(crate) fn run_wave(
    jobs: &[JobSpec],
    repo: &SharedProfileRepo,
    workers: usize,
    decay: f64,
) -> (Vec<JobRun>, usize) {
    let checkouts: Vec<_> = jobs
        .iter()
        .map(|spec| {
            spec.resolve()
                .and_then(|w| repo.checkout(&fingerprint_of(spec, &w)))
        })
        .collect();
    let warm_checkouts = checkouts.iter().filter(|c| c.is_some()).count();
    let runs: Vec<JobRun> =
        pool::contiguous_prefix(pool::run_indexed(jobs.len() as u64, workers, None, |i| {
            run_job(&jobs[i as usize], checkouts[i as usize].clone(), None, None)
        }));
    for fresh in runs.iter().filter_map(|run| run.fresh_profile.as_ref()) {
        repo.merge(fresh, decay);
    }
    (runs, warm_checkouts)
}

fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

/// Run the bench: execute the schedule in rounds against a fresh
/// shared repository and build the deterministic summary.
#[must_use]
pub fn run_bench(config: &BenchConfig) -> BenchReport {
    let specs = schedule(config);
    let repo = SharedProfileRepo::new();
    let start = Instant::now();

    let mut summary = format!(
        "serve bench: {} round(s) x {} job(s), {} tenant(s), workloads [{}], size {:?}, heap {}x, seed {:#x}\n",
        config.rounds,
        config.jobs_per_round,
        config.tenants,
        config.workloads.join(", "),
        config.size,
        config.heap_mult,
        config.seed
    );
    // Per program: (cold first-decisions, warm first-decisions).
    let mut per_program: BTreeMap<String, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    let mut deltas = 0usize;
    let mut completed = 0usize;

    for (r, round) in specs.chunks(config.jobs_per_round.max(1)).enumerate() {
        let (runs, _) = run_wave(round, &repo, config.workers, config.decay);
        for (j, (spec, run)) in round.iter().zip(&runs).enumerate() {
            if run.outcome == JobOutcome::Completed {
                completed += 1;
                let baseline = spec
                    .resolve()
                    .map(|w| setup::baseline_digest(&w, spec.size, spec.heap_mult, 1));
                if baseline != Some(run.digest) {
                    deltas += 1;
                }
                if let Some(first) = run.first_decision_cycles {
                    let slot = per_program.entry(spec.workload.clone()).or_default();
                    if run.warm {
                        slot.1.push(first);
                    } else {
                        slot.0.push(first);
                    }
                }
            }
            summary.push_str(&format!(
                "round {r} job {j} tenant {} workload {} {} {} cycles {} first-decision {} digest {:#018x}\n",
                spec.tenant,
                spec.workload,
                if run.warm { "warm" } else { "cold" },
                run.outcome.tag(),
                run.cycles,
                run.first_decision_cycles
                    .map_or_else(|| "never".to_string(), |c| c.to_string()),
                run.digest
            ));
        }
    }
    let wall = start.elapsed();

    let mut any_decided = false;
    let mut warm_ok = true;
    for (program, (cold, warm)) in &per_program {
        if cold.is_empty() || warm.is_empty() {
            continue;
        }
        any_decided = true;
        let (cm, wm) = (mean(cold), mean(warm));
        summary.push_str(&format!(
            "program {program}: cold mean first-decision {cm:.0} ({}), warm mean {wm:.0} ({})\n",
            cold.len(),
            warm.len()
        ));
        if wm >= cm {
            warm_ok = false;
        }
    }
    warm_ok &= any_decided;
    let stats = repo.stats();
    summary.push_str(&format!(
        "repo: {} profile(s), {} checkout(s) ({} warm), {} merge(s)\n",
        repo.len(),
        stats.checkouts,
        stats.warm_checkouts,
        stats.merges
    ));
    summary.push_str(&format!("perturbation deltas: {deltas}\n"));
    summary.push_str(&format!("warm beats cold: {warm_ok}\n"));

    BenchReport {
        summary,
        perturbation_deltas: deltas,
        warm_ok,
        jobs: completed,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_mixed() {
        let config = BenchConfig::default();
        let a = schedule(&config);
        let b = schedule(&config);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), config.rounds * config.jobs_per_round);
        let programs: std::collections::BTreeSet<_> =
            a.iter().map(|s| s.workload.clone()).collect();
        assert!(
            programs.len() > 1,
            "mix draws more than one workload: {programs:?}"
        );

        let other = schedule(&BenchConfig {
            seed: 1,
            ..config.clone()
        });
        assert_ne!(a, other, "different seed, different schedule");
    }

    #[test]
    fn default_schedule_is_pinned() {
        // The summary `hpmopt-serve bench` prints depends on this draw.
        let drawn: Vec<String> = schedule(&BenchConfig::default())
            .iter()
            .map(|s| format!("{}/{}", s.workload, s.tenant))
            .collect();
        assert_eq!(
            drawn.join(" "),
            "db/t0 hsqldb/t0 hsqldb/t1 db/t0 db/t1 db/t1 \
             hsqldb/t1 db/t1 hsqldb/t0 hsqldb/t0 db/t0 hsqldb/t0"
        );
    }
}
