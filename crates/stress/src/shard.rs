//! Parallel shard runner with a deterministic merge.
//!
//! Seeds are distributed to `std::thread` workers through the shared
//! work-stealing pool primitive ([`hpmopt_prim::pool`]); each worker writes
//! its outcome into the slot indexed by the seed's position, and the
//! merge reads slots back in seed order. The report therefore depends
//! only on the seed range — never on worker count, scheduling, or
//! timing — which is what lets CI diff the summary of a 1-worker run
//! against an N-worker run byte for byte.
//!
//! A time budget truncates the run to the longest contiguous prefix of
//! completed seeds (workers finish the seed they claimed, they just stop
//! claiming). A truncated summary says so explicitly; only the seeds it
//! names were checked.

use std::time::{Duration, Instant};

use hpmopt_prim::pool;

use crate::oracles::{run_scenario, ScenarioOutcome};
use crate::scenario::Scenario;

/// Shard-runner parameters.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// First seed (inclusive).
    pub start_seed: u64,
    /// Number of seeds to run.
    pub seeds: u64,
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Optional wall-clock budget; see module docs for truncation rules.
    pub time_budget: Option<Duration>,
    /// Inject the skip-zeroing fault into every scenario.
    pub fault_skip_zeroing: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            start_seed: 0,
            seeds: 100,
            workers: 1,
            time_budget: None,
            fault_skip_zeroing: false,
        }
    }
}

/// Merged result of a shard run.
#[derive(Debug)]
pub struct ShardReport {
    /// Outcomes for the contiguous completed seed prefix, in seed order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Seeds requested.
    pub requested: u64,
    /// First seed.
    pub start_seed: u64,
    /// True when the time budget cut the run short.
    pub truncated: bool,
}

impl ShardReport {
    /// Outcomes that violated at least one oracle.
    pub fn failures(&self) -> impl Iterator<Item = &ScenarioOutcome> {
        self.outcomes.iter().filter(|o| !o.pass)
    }

    /// Deterministic, timing-free summary: identical for identical seed
    /// ranges regardless of worker count.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let end = self.start_seed + self.outcomes.len() as u64;
        let failed: Vec<&ScenarioOutcome> = self.failures().collect();
        s.push_str(&format!(
            "seeds {}..{} : {} run, {} passed, {} failed\n",
            self.start_seed,
            end,
            self.outcomes.len(),
            self.outcomes.len() - failed.len(),
            failed.len()
        ));
        if self.truncated {
            s.push_str(&format!(
                "truncated by time budget after {} of {} seeds\n",
                self.outcomes.len(),
                self.requested
            ));
        }
        // A fingerprint over every (seed, digest, cycles) tuple: two runs
        // that print the same line really did compute the same results —
        // and the same simulated costs.
        let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
        for o in &self.outcomes {
            for word in [o.scenario.seed, o.digest, o.cycles, o.monitored_cycles] {
                for byte in word.to_le_bytes() {
                    fp ^= u64::from(byte);
                    fp = fp.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        s.push_str(&format!("digest-of-digests {fp:#018x}\n"));
        // Per-seed simulated-cycle costs and state digests: the shard
        // doubles as a pinned perf arm (`hpmopt-bench` lifts these values
        // from the outcomes), and printing the digest per seed lets a
        // cost-model change be diffed against an old summary — cycles may
        // move, digests must not.
        for o in &self.outcomes {
            s.push_str(&format!(
                "seed {} cycles {} monitored {} digest {:#018x}\n",
                o.scenario.seed, o.cycles, o.monitored_cycles, o.digest
            ));
        }
        for o in &failed {
            s.push_str(&format!("FAIL seed {}\n", o.scenario.seed));
            for line in &o.failures {
                s.push_str(&format!("  - {line}\n"));
            }
        }
        s
    }
}

/// Run `config.seeds` scenarios across `config.workers` threads.
#[must_use]
pub fn run_shards(config: &RunnerConfig) -> ShardReport {
    let total = config.seeds;
    let deadline = config.time_budget.map(|b| Instant::now() + b);
    let outcomes =
        pool::contiguous_prefix(pool::run_indexed(total, config.workers, deadline, |idx| {
            let mut scenario = Scenario::from_seed(config.start_seed + idx);
            scenario.fault_skip_zeroing = config.fault_skip_zeroing;
            run_scenario(&scenario)
        }));
    let truncated = (outcomes.len() as u64) < total;
    ShardReport {
        outcomes,
        requested: total,
        start_seed: config.start_seed,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_identical_for_one_and_many_workers() {
        let base = RunnerConfig {
            start_seed: 0,
            seeds: 6,
            workers: 1,
            time_budget: None,
            fault_skip_zeroing: false,
        };
        let solo = run_shards(&base);
        let parallel = run_shards(&RunnerConfig { workers: 4, ..base });
        assert_eq!(solo.summary(), parallel.summary());
        assert!(!solo.truncated);
        assert_eq!(solo.outcomes.len(), 6);
        for o in &solo.outcomes {
            assert_ne!(o.cycles, 0, "seed {} has no baseline cost", o.scenario.seed);
            assert_ne!(
                o.monitored_cycles, 0,
                "seed {} has no monitored cost",
                o.scenario.seed
            );
            assert!(solo
                .summary()
                .contains(&format!("seed {} cycles {}", o.scenario.seed, o.cycles)));
        }
    }

    #[test]
    fn zero_budget_truncates_cleanly() {
        let report = run_shards(&RunnerConfig {
            seeds: 4,
            time_budget: Some(Duration::from_secs(0)),
            ..RunnerConfig::default()
        });
        assert!(report.truncated);
        assert!(report.summary().contains("truncated by time budget"));
    }
}
