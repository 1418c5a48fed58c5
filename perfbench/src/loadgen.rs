//! The load generator: one thread that submits jobs, closed-loop or
//! open-loop.
//!
//! `submit(index, done)` hands job `index` to the system under test
//! and returns `false` when the system refuses it. An accepted job
//! must later send exactly one [`Done`] on `done` (typically from a
//! thread that waits for the job). A refused job counts as failed,
//! never as fast: it gets no latency.

use std::sync::mpsc::{channel, Sender};
use std::time::{Duration, Instant};

/// Completion of one accepted job.
pub struct Done<R> {
    /// The job's index in the generated sequence.
    pub index: usize,
    /// When the job finished.
    pub at: Instant,
    /// What the system returned for it.
    pub result: R,
}

/// One finished job with its latency.
pub struct Finished<R> {
    /// Seconds from when the job was due (open loop) or submitted
    /// (closed loop) to when it finished.
    pub latency_s: f64,
    /// What the system returned for it.
    pub result: R,
}

/// What one loop measured.
pub struct LoopRun<R> {
    /// Jobs offered to the system.
    pub offered: usize,
    /// Jobs the system refused at submission.
    pub refused: usize,
    /// Accepted jobs, in completion order.
    pub finished: Vec<Finished<R>>,
    /// Seconds from the first submission to the last completion.
    pub elapsed_s: f64,
    /// The latest the generator submitted a job after it was due
    /// (open loop; 0 for a closed loop).
    pub max_lag_s: f64,
}

impl<R> LoopRun<R> {
    /// A run that offered nothing.
    pub fn empty() -> LoopRun<R> {
        LoopRun {
            offered: 0,
            refused: 0,
            finished: Vec::new(),
            elapsed_s: 0.0,
            max_lag_s: 0.0,
        }
    }

    /// Add the jobs and time of `next`, a run made after this one.
    pub fn append(&mut self, next: LoopRun<R>) {
        self.offered += next.offered;
        self.refused += next.refused;
        self.finished.extend(next.finished);
        self.elapsed_s += next.elapsed_s;
        self.max_lag_s = self.max_lag_s.max(next.max_lag_s);
    }
}

/// Keep `outstanding` jobs in flight while `more(index)` allows the
/// next job, then let the in-flight jobs finish. Latency runs from
/// submission.
pub fn closed_loop<R>(
    outstanding: usize,
    mut more: impl FnMut(usize) -> bool,
    mut submit: impl FnMut(usize, &Sender<Done<R>>) -> bool,
) -> LoopRun<R> {
    let (tx, rx) = channel();
    let start = Instant::now();
    let mut submitted_at = Vec::new();
    let (mut in_flight, mut refused) = (0usize, 0usize);
    let mut offer =
        |submitted_at: &mut Vec<Instant>, in_flight: &mut usize, refused: &mut usize| {
            let index = submitted_at.len();
            submitted_at.push(Instant::now());
            if submit(index, &tx) {
                *in_flight += 1;
            } else {
                *refused += 1;
            }
        };
    while in_flight < outstanding.max(1) && more(submitted_at.len()) {
        offer(&mut submitted_at, &mut in_flight, &mut refused);
    }
    let mut finished = Vec::new();
    let mut last = start;
    while in_flight > 0 {
        let done: Done<R> = rx.recv().expect("every accepted job reports back");
        in_flight -= 1;
        last = done.at;
        finished.push(Finished {
            latency_s: done
                .at
                .duration_since(submitted_at[done.index])
                .as_secs_f64(),
            result: done.result,
        });
        while in_flight < outstanding.max(1) && more(submitted_at.len()) {
            offer(&mut submitted_at, &mut in_flight, &mut refused);
        }
    }
    LoopRun {
        offered: submitted_at.len(),
        refused,
        finished,
        elapsed_s: last.duration_since(start).as_secs_f64(),
        max_lag_s: 0.0,
    }
}

/// Submit job `i` at `start + due[i]` whatever the system's state, then
/// wait for every accepted job. Latency runs from the due time, so a
/// stall of the generator or the system counts against every job it
/// delays.
pub fn open_loop<R>(
    due: &[Duration],
    mut submit: impl FnMut(usize, &Sender<Done<R>>) -> bool,
) -> LoopRun<R> {
    let (tx, rx) = channel();
    let start = Instant::now();
    let (mut accepted, mut refused, mut max_lag_s) = (0usize, 0usize, 0f64);
    for (index, &d) in due.iter().enumerate() {
        let at = start + d;
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        max_lag_s = max_lag_s.max(Instant::now().saturating_duration_since(at).as_secs_f64());
        if submit(index, &tx) {
            accepted += 1;
        } else {
            refused += 1;
        }
    }
    drop(tx);
    let mut finished = Vec::with_capacity(accepted);
    let mut last = start;
    for done in rx.iter().take(accepted) {
        last = last.max(done.at);
        finished.push(Finished {
            latency_s: done
                .at
                .saturating_duration_since(start + due[done.index])
                .as_secs_f64(),
            result: done.result,
        });
    }
    LoopRun {
        offered: due.len(),
        refused,
        finished,
        elapsed_s: last.duration_since(start).as_secs_f64(),
        max_lag_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A system that finishes every job 1 ms after it is submitted,
    /// returning the job's index, and refuses job `refuse`.
    fn fake_system<'s, 'e>(
        scope: &'s std::thread::Scope<'s, 'e>,
        refuse: usize,
    ) -> impl FnMut(usize, &Sender<Done<usize>>) -> bool + use<'s, 'e> {
        move |index, done| {
            if index == refuse {
                return false;
            }
            let done = done.clone();
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(1));
                let _ = done.send(Done {
                    index,
                    at: Instant::now(),
                    result: index,
                });
            });
            true
        }
    }

    #[test]
    fn open_loop_times_jobs_from_their_due_time_under_a_stall() {
        let due: Vec<Duration> = (0..6).map(|i| Duration::from_millis(10 * i)).collect();
        let stall = Duration::from_millis(60);
        let run = std::thread::scope(|s| {
            let mut system = fake_system(s, usize::MAX);
            open_loop(&due, |index, done| {
                let accepted = system(index, done);
                if index == 2 {
                    // The generator stalls after submitting job 2.
                    std::thread::sleep(stall);
                }
                accepted
            })
        });
        assert_eq!((run.offered, run.refused, run.finished.len()), (6, 0, 6));
        let latency = |i: usize| {
            run.finished
                .iter()
                .find(|f| f.result == i)
                .unwrap()
                .latency_s
        };
        // Job 3 was due 10 ms after job 2 but went out ~60 ms later:
        // its latency carries the ~50 ms the stall imposed on it.
        assert!(latency(3) >= 0.045, "job 3 latency {}", latency(3));
        assert!(latency(0) < latency(3));
        assert!(run.max_lag_s >= 0.045, "lag {}", run.max_lag_s);
    }

    #[test]
    fn refused_jobs_count_as_failed_not_fast() {
        let due = vec![Duration::ZERO; 4];
        let run = std::thread::scope(|s| open_loop(&due, fake_system(s, 1)));
        assert_eq!((run.offered, run.refused, run.finished.len()), (4, 1, 3));
        assert!(run.finished.iter().all(|f| f.result != 1));
    }

    #[test]
    fn closed_loop_keeps_the_window_full_then_drains() {
        let run = std::thread::scope(|s| closed_loop(2, |i| i < 10, fake_system(s, usize::MAX)));
        assert_eq!((run.offered, run.finished.len()), (10, 10));
        assert!(run.elapsed_s >= 0.005);
        assert!(run.finished.iter().all(|f| f.latency_s >= 0.001));
    }
}
