//! hpmopt end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <db-coalloc|jython-tiered|serve-mix> --seed N
//!           --seconds S --trace <0|1> [--rate JOBS_PER_S]
//! ```
//!
//! Sets up the workload, measures it for `S` seconds through the
//! public APIs, checks every output against an unmonitored reference,
//! and prints one line per metric followed by a JSON result line. With
//! `--trace 0` the metrics are the end-to-end ones (tracing off); with
//! `--trace 1` they are the per-layer ones of a traced run. Exits 1 when
//! any correctness check fails, 2 on bad arguments. See `DESIGN.md`
//! beside this file for what each workload and metric is for.

mod calib;
mod layers;
mod loadgen;
mod output;
mod serve_mix;
mod single;
mod stats;
mod trace;
mod units;

use std::process::{Command, ExitCode};
use std::time::Instant;

use calib::Calibrator;
use layers::WindowFacts;
use output::Outcome;
use stats::{median, percentile};
use units::{fastest, set_up, unit_runs, Kind};

/// Set-ups made in fresh processes besides the one this process makes
/// (`setup_s` is the median of all of them, each at reference speed):
/// at least `MIN_PROBES`, and more while they are cheap, up to
/// `MAX_PROBES` or `PROBE_BUDGET_S` seconds, so that a set-up of a
/// tenth of a second is sampled often enough to be steady. Fresh
/// processes, because `plan_for` caches its plans for the life of a
/// process: a repeated set-up in this process would skip planning.
const MIN_PROBES: usize = 2;
const MAX_PROBES: usize = 8;
const PROBE_BUDGET_S: f64 = 2.0;

/// Parsed command line.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    rate: f64,
    setup_probe: bool,
}

const USAGE: &str = "usage: perfbench --workload <db-coalloc|jython-tiered|serve-mix> \
                     --seed N --seconds S --trace <0|1> [--rate JOBS_PER_S]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        kind: Kind::DbCoalloc,
        seed: 1,
        seconds: 10.0,
        trace: false,
        rate: 10.0,
        setup_probe: false,
    };
    let mut kind = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            a.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(|| bad("unknown workload"))?),
            "--seed" => a.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--rate" => {
                a.rate = value.parse().map_err(|_| bad("expected a number"))?;
                if !(a.rate > 0.0 && a.rate <= 10_000.0) {
                    return Err(bad("expected 0 < rate <= 10000"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    a.kind = kind.ok_or("--workload is required")?;
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        println!("{}", calibrated_set_up(&args, &mut Calibrator::new()).1);
        return ExitCode::SUCCESS;
    }
    let out = run(&args);
    print!("{}", out.to_table());
    println!("{}", out.to_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set up `args`'s workload, timing it at reference speed.
fn calibrated_set_up(args: &Args, cal: &mut Calibrator) -> (units::Setup, f64) {
    cal.run(|| {
        let setup = set_up(args.kind, args.seed);
        let s = setup.total_s;
        (setup, s)
    })
}

/// Time the set-up of `args`'s workload in fresh processes.
fn probe_setups(args: &Args, out: &mut Outcome) -> Vec<f64> {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let seed = args.seed.to_string();
    let started = Instant::now();
    let mut times = Vec::new();
    for n in 0..MAX_PROBES {
        if n >= MIN_PROBES && started.elapsed().as_secs_f64() >= PROBE_BUDGET_S {
            break;
        }
        let probe = Command::new(&exe)
            .args([
                "--setup-probe",
                "--workload",
                args.kind.name(),
                "--seed",
                &seed,
            ])
            .output();
        let secs = probe.ok().filter(|p| p.status.success()).and_then(|p| {
            String::from_utf8_lossy(&p.stdout)
                .trim()
                .parse::<f64>()
                .ok()
        });
        out.check(secs.is_some(), || {
            "a set-up probe process failed".to_string()
        });
        times.extend(secs);
    }
    times
}

fn run(args: &Args) -> Outcome {
    let started = Instant::now();
    let mut out = Outcome::default();
    let mut setup_times = probe_setups(args, &mut out);
    trace::TRACER.set_enabled(args.trace);
    let mut cal = Calibrator::new();
    let (setup, setup_s) = calibrated_set_up(args, &mut cal);
    setup_times.push(setup_s);
    for f in &setup.digest_failures {
        out.check(false, || f.clone());
    }
    let reps = if args.trace { 3 } else { 1 };

    let mut e2e = Outcome::default();
    e2e.put("setup_s", median(&setup_times), "s");
    let serve_window;
    let (runs, facts) = match args.kind {
        Kind::ServeMix => {
            serve_window = serve_mix::run(
                &setup,
                args.seconds,
                args.seed,
                args.rate,
                &mut cal,
                &mut out,
            );
            let w = &serve_window;
            // Jobs overlap, so they cannot be bracketed one by one: the
            // whole window is rescaled by the kernel walks taken while
            // the service was idle, before, between and after its loops.
            let speed = cal.speed();
            let open_ms: Vec<f64> = w
                .open
                .finished
                .iter()
                .map(|f| f.latency_s * speed * 1e3)
                .collect();
            if !stats::resolved(open_ms.len(), 95.0) {
                eprintln!(
                    "perfbench: p95 rests on {} jobs, fewer than {} beyond it",
                    open_ms.len(),
                    stats::MIN_BEYOND
                );
            }
            // The mean job's run time at reference speed, and by
            // Little's law the closed loop's throughput: its population
            // over its mean latency. Unlike jobs over makespan, neither
            // depends on which job happens to finish last.
            let mean_s = serve_mix::mean_fastest_s(w) * speed;
            e2e.put("host_run_s", mean_s, "s");
            e2e.put("jobs_per_s", units::nproc() as f64 / mean_s, "1/s");
            e2e.put("job_latency_p50_ms", percentile(&open_ms, 50.0), "ms");
            e2e.put("job_latency_p95_ms", percentile(&open_ms, 95.0), "ms");
            eprintln!(
                "perfbench: closed loop {} jobs in {:.2} s; open loop {} of {} jobs at {} /s, latency over {} jobs; host speed {:.4}",
                w.closed.finished.len(),
                w.closed.elapsed_s,
                w.open.finished.len(),
                w.open.offered,
                args.rate,
                open_ms.len(),
                speed
            );
            out.put("host.speed", speed, "ratio");
            out.put("host.raw_run_s", serve_mix::mean_fastest_s(w), "s");
            (
                unit_runs(&setup, None, reps, &mut cal, &mut out),
                WindowFacts::Serve(w),
            )
        }
        Kind::DbCoalloc | Kind::JythonTiered => {
            let w = single::run(&setup, args.seconds, &mut cal, &mut out);
            // Every run is the same deterministic work, so the spread of
            // its times is the host's, and contention only adds time:
            // the fastest run at reference speed is the program's run
            // time. With one job at a time nothing queues, so that is
            // also every job's latency, and throughput its reciprocal.
            let host_run_s = fastest(&w.times);
            e2e.put("host_run_s", host_run_s, "s");
            e2e.put("jobs_per_s", 1.0 / host_run_s, "1/s");
            e2e.put("job_latency_p50_ms", host_run_s * 1e3, "ms");
            e2e.put("job_latency_p95_ms", host_run_s * 1e3, "ms");
            eprintln!(
                "perfbench: {} monitored runs, median {:.4} s at reference speed, fastest {:.4} s",
                w.times.len(),
                median(&w.times),
                host_run_s
            );
            out.put("host.speed", cal.speed(), "ratio");
            out.put("host.raw_run_s", fastest(&w.raw_times), "s");
            let runs = unit_runs(
                &setup,
                Some((w.first, host_run_s)),
                reps,
                &mut cal,
                &mut out,
            );
            (runs, WindowFacts::Single { host_run_s })
        }
    };

    units::sim_metrics(&setup, &runs, &mut e2e);
    e2e.put("peak_rss_mb", peak_rss_mb(), "MB");

    if args.trace {
        layers::collect(&setup, &runs, facts, started, &mut out);
        out.put("error_rate", out.error_rate(), "ratio");
    } else {
        out.metrics = e2e.metrics;
    }
    if let Some(service) = setup.service {
        service.shutdown();
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--rate 12.5 --workload serve-mix --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace, a.rate),
            (Kind::ServeMix, 7, 20.0, true, 12.5)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload db-coalloc --trace 2").is_err());
        assert!(args("--workload db-coalloc --seed").is_err());
        assert!(args("--seed 1").is_err());
    }
}
