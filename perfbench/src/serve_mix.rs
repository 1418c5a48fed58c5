//! `serve-mix`: the live service under a seeded job mix.
//!
//! Phase 1 is a closed loop with `nproc` jobs outstanding (throughput);
//! phase 2 an open loop of seeded arrivals at a fixed offered rate
//! (latency from each job's due time), offered one block at a time. Jobs are tiny runs of the six
//! [`MIX`](crate::units::MIX) programs, drawn in blocks: every block of
//! [`DECK_LEN`] jobs is a seeded shuffle of [`DECK`], so every seed
//! offers the same mix in a different order, over six tenants drawn per
//! job. Both phases run whole blocks. The service receives only these
//! job specs.

use std::sync::mpsc::Sender;
use std::thread::Scope;
use std::time::{Duration, Instant};

use hpmopt_serve::service::Service;
use hpmopt_serve::{JobOutcome, JobReport, JobSpec};
use hpmopt_stress::rng::Rng;

use crate::calib::Calibrator;
use crate::loadgen::{closed_loop, open_loop, Done, LoopRun};
use crate::output::Outcome;
use crate::trace::span;
use crate::units::{fastest, nproc, Setup};

/// Jobs per program in one block of the mix: short jobs dominate, and
/// the rare long `db` job blocks a worker (head-of-line blocking). The
/// shares keep the median inside the `hsqldb` jobs and the 95th
/// percentile inside the `lusearch` jobs, away from the edges where a
/// percentile would jump between programs.
pub const DECK: [(&str, usize); 6] = [
    ("fop", 12),
    ("antlr", 10),
    ("hsqldb", 8),
    ("jess", 10),
    ("lusearch", 7),
    ("db", 1),
];

/// Jobs in one block.
pub const DECK_LEN: usize = 48;

/// Tenants jobs are accounted to.
pub const TENANTS: [&str; 6] = ["t0", "t1", "t2", "t3", "t4", "t5"];

/// Random stream of the closed loop's job sequence.
const CLOSED_JOBS: u64 = 1;
/// Random stream of the open loop's job sequence.
const OPEN_JOBS: u64 = 2;
/// Random stream of the open loop's arrival times.
const ARRIVALS: u64 = 3;

/// Share of the run spent in the closed loop; the open loop offers
/// arrivals over the rest.
const CLOSED_SHARE: f64 = 0.15;

/// Job `index` of the sequence for (`seed`, `stream`).
pub fn job(seed: u64, stream: u64, index: usize) -> JobSpec {
    let block = (index / DECK_LEN) as u64;
    let mut rng = Rng::new(seed).fork(stream).fork(block);
    let mut deck: Vec<&str> = DECK
        .iter()
        .flat_map(|&(name, n)| std::iter::repeat_n(name, n))
        .collect();
    for i in (1..deck.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        deck.swap(i, j);
    }
    let tenants: Vec<&str> = (0..DECK_LEN)
        .map(|_| TENANTS[rng.below(TENANTS.len() as u64) as usize])
        .collect();
    let slot = index % DECK_LEN;
    JobSpec::new(tenants[slot], deck[slot])
}

/// Due times of `n` arrivals at `rate` per second: job `i` is due at a
/// seeded point of its own `1/rate` slot, so the rate is exact and
/// bursts are bounded.
pub fn arrivals(seed: u64, rate: f64, n: usize) -> Vec<Duration> {
    let mut rng = Rng::new(seed).fork(ARRIVALS);
    (0..n)
        .map(|i| {
            let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            Duration::from_secs_f64((i as f64 + unit) / rate)
        })
        .collect()
}

/// What the two phases measured.
pub struct ServeWindow {
    /// Phase 1, closed loop.
    pub closed: LoopRun<JobReport>,
    /// Phase 2, open loop, its blocks in order.
    pub open: LoopRun<JobReport>,
    /// Host seconds of each `Service::submit` call.
    pub submit_s: Vec<f64>,
    /// The open-loop job sequence.
    pub open_jobs: Vec<JobSpec>,
}

/// Submit `spec` as job `index`; a thread waits for it and reports on
/// `done`. Returns `false` (and records why) when the service refuses.
fn submit<'s>(
    scope: &'s Scope<'s, '_>,
    service: &'s Service,
    spec: JobSpec,
    index: usize,
    done: &Sender<Done<JobReport>>,
    submit_s: &mut Vec<f64>,
    refusals: &mut Vec<String>,
) -> bool {
    let t = Instant::now();
    let id = {
        let _s = span("serve");
        service.submit(spec.clone())
    };
    submit_s.push(t.elapsed().as_secs_f64());
    match id {
        Ok(id) => {
            let done = done.clone();
            scope.spawn(move || {
                let result = {
                    let _s = span("serve");
                    service.wait(id)
                };
                let _ = done.send(Done {
                    index,
                    at: Instant::now(),
                    result,
                });
            });
            true
        }
        Err(e) => {
            refusals.push(format!(
                "job {index} ({} for {}) refused: {e}",
                spec.workload, spec.tenant
            ));
            false
        }
    }
}

/// Kernel walks taken each time the service is idle: before, between
/// and after the phases, and between the blocks of phase 2.
const IDLE_WALKS: usize = 3;

/// Run both phases for `seconds` in total against the set-up service,
/// checking every job's digest against its program's reference. Jobs
/// overlap, so they cannot be bracketed by kernel walks one by one:
/// `cal` walks whenever the service is idle instead.
pub fn run(
    setup: &Setup,
    seconds: f64,
    seed: u64,
    rate: f64,
    cal: &mut Calibrator,
    out: &mut Outcome,
) -> ServeWindow {
    let service = setup
        .service
        .as_ref()
        .expect("serve-mix set-up starts the service");
    let mut submit_s = Vec::new();
    let mut refusals = Vec::new();

    let mut idle_walks = || {
        for _ in 0..IDLE_WALKS {
            cal.sample();
        }
    };
    idle_walks();

    // Whole blocks until the closed loop's share of the time is up.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * CLOSED_SHARE);
    let more = |i: usize| !i.is_multiple_of(DECK_LEN) || Instant::now() < deadline;
    let closed = std::thread::scope(|s| {
        closed_loop(nproc(), more, |i, done| {
            submit(
                s,
                service,
                job(seed, CLOSED_JOBS, i),
                i,
                done,
                &mut submit_s,
                &mut refusals,
            )
        })
    });

    idle_walks();

    // As many whole blocks as the rate offers in the rest of the time.
    // Each block keeps its slots of the one arrival schedule, shifted to
    // start when the block does, and the service drains between blocks.
    let blocks = (rate * seconds * (1.0 - CLOSED_SHARE) / DECK_LEN as f64)
        .floor()
        .max(1.0) as usize;
    let due = arrivals(seed, rate, blocks * DECK_LEN);
    let open_jobs: Vec<JobSpec> = (0..due.len()).map(|i| job(seed, OPEN_JOBS, i)).collect();
    let mut open = LoopRun::empty();
    for b in 0..blocks {
        let first = b * DECK_LEN;
        let shift = Duration::from_secs_f64(first as f64 / rate);
        let block_due: Vec<Duration> = due[first..first + DECK_LEN]
            .iter()
            .map(|d| d.saturating_sub(shift))
            .collect();
        let run = std::thread::scope(|s| {
            open_loop(&block_due, |i, done| {
                submit(
                    s,
                    service,
                    open_jobs[first + i].clone(),
                    i,
                    done,
                    &mut submit_s,
                    &mut refusals,
                )
            })
        });
        idle_walks();
        open.append(run);
    }

    for r in refusals {
        out.check(false, || r);
    }
    for f in closed.finished.iter().chain(&open.finished) {
        check_job(setup, &f.result, out);
    }
    ServeWindow {
        closed,
        open,
        submit_s,
        open_jobs,
    }
}

/// Deck-weighted mean of each program's fastest job latency over both
/// phases: the mean job's run time with host contention filtered out.
/// In a closed loop with one job per worker nothing queues, so it is
/// that loop's mean latency on a quiet host. The open loop's jobs count
/// too (from their due time, which only adds), so that even the one
/// `db` job per block has a job for every block of the run.
pub fn mean_fastest_s(w: &ServeWindow) -> f64 {
    let weighted: f64 = DECK
        .iter()
        .map(|&(name, n)| {
            let latencies: Vec<f64> = w
                .closed
                .finished
                .iter()
                .chain(&w.open.finished)
                .filter(|f| f.result.spec.workload == name)
                .map(|f| f.latency_s)
                .collect();
            fastest(&latencies) * n as f64
        })
        .sum();
    weighted / DECK_LEN as f64
}

/// A job must complete with its program's reference digest.
pub fn check_job(setup: &Setup, report: &JobReport, out: &mut Outcome) {
    let reference = setup
        .units
        .iter()
        .zip(&setup.references)
        .find(|(u, _)| u.job.workload == report.spec.workload && u.job.size == report.spec.size)
        .map(|(_, r)| r.result_digest);
    out.check(
        report.outcome == JobOutcome::Completed && Some(report.digest) == reference,
        || {
            format!(
                "job {} ({}) ended {} with digest {:#x}, reference {:#x?}",
                report.id,
                report.spec.workload,
                report.outcome.tag(),
                report.digest,
                reference
            )
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_is_a_shuffle_of_the_deck() {
        assert_eq!(DECK.iter().map(|d| d.1).sum::<usize>(), DECK_LEN);
        for seed in [1, 2, 3] {
            let mut names: Vec<String> = (0..DECK_LEN)
                .map(|i| job(seed, OPEN_JOBS, DECK_LEN + i).workload)
                .collect();
            names.sort();
            let mut deck: Vec<String> = DECK
                .iter()
                .flat_map(|&(n, k)| std::iter::repeat_n(n.to_string(), k))
                .collect();
            deck.sort();
            assert_eq!(names, deck);
        }
    }

    #[test]
    fn the_seed_alone_determines_the_inputs() {
        let a: Vec<JobSpec> = (0..50).map(|i| job(7, OPEN_JOBS, i)).collect();
        let b: Vec<JobSpec> = (0..50).map(|i| job(7, OPEN_JOBS, i)).collect();
        let c: Vec<JobSpec> = (0..50).map(|i| job(8, OPEN_JOBS, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let due = arrivals(7, 20.0, 200);
        assert_eq!(due, arrivals(7, 20.0, 200));
        assert_ne!(due, arrivals(8, 20.0, 200));
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due[199] < Duration::from_secs(10));
    }
}
