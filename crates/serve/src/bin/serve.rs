//! `hpmopt-serve` — the multi-tenant VM service from the command line.
//!
//! ```text
//! hpmopt-serve run   [--jobs N] [--workers W] [--tenants T]
//!                    [--workloads A,B,..] [--size tiny|small|full]
//!                    [--heap-mult M] [--cycle-budget C]
//!                    [--max-live-jobs N] [--max-heap-bytes B]
//!                    [--spill DIR] [--prom]
//! hpmopt-serve bench [--workers W] [--check]
//! ```
//!
//! `run` starts the live daemon, submits `N` jobs round-robin across
//! tenants and workloads, waits for every report, prints them plus the
//! fleet telemetry, and shuts down (persisting the repository to
//! `--spill DIR` when given). `bench` runs the deterministic load
//! generator's two presets, the closed loop and then the QPS-paced open
//! loop, on `W` real workers: the combined summary on stdout is
//! byte-identical for any `--workers` value; wall-clock throughput goes
//! to stderr. With `--check`, `bench` exits 1 unless, in both runs,
//! every job completes with the unmonitored baseline's digest, no
//! program's warm jobs reach the first decision later than its cold
//! ones (on average), and four virtual workers strictly outrun one;
//! and unless some program was measured both cold and warm at all.
//! `run` rejects an unknown `--workloads` name while parsing: it names
//! it, prints the usage and exits 2 before any job runs.

use std::process::ExitCode;

use hpmopt_serve::job::DEFAULT_HEAP_MULT;
use hpmopt_serve::{run_load, JobSpec, LoadConfig, Service, ServiceConfig, TenantCaps};
use hpmopt_workloads::{names, Size};

fn usage() -> ExitCode {
    eprintln!(
        "usage: hpmopt-serve run [--jobs N] [--workers W] [--tenants T] \
         [--workloads A,B,..] [--size tiny|small|full] [--heap-mult M] \
         [--cycle-budget C] [--max-live-jobs N] [--max-heap-bytes B] \
         [--spill DIR] [--prom]\n\
         hpmopt-serve bench [--workers W] [--check]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        _ => usage(),
    }
}

/// Parse `--flag VALUE` pairs; returns `None` on malformed input.
fn take_value<'a>(args: &'a [String], i: &mut usize) -> Option<&'a str> {
    *i += 1;
    args.get(*i).map(String::as_str)
}

fn parse_size(v: &str) -> Option<Size> {
    match v {
        "tiny" => Some(Size::Tiny),
        "small" => Some(Size::Small),
        "full" => Some(Size::Full),
        _ => None,
    }
}

/// Split a `--workloads` list; `None` (after naming the first unknown
/// workload on stderr) if any entry is not a workload.
fn parse_workloads(v: &str) -> Option<Vec<String>> {
    let list: Vec<String> = v
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if let Some(bad) = list.iter().find(|w| !names().contains(&w.as_str())) {
        eprintln!("hpmopt-serve: unknown workload {bad:?}");
        return None;
    }
    Some(list)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut jobs = 8usize;
    let mut tenants = 2usize;
    let mut workloads = vec!["db".to_string(), "hsqldb".to_string()];
    let mut size = Size::Tiny;
    let mut heap_mult = DEFAULT_HEAP_MULT;
    let mut cycle_budget: Option<u64> = None;
    let mut caps = TenantCaps::default();
    let mut prom = false;
    let mut config = ServiceConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(n) => jobs = n,
                None => return usage(),
            },
            "--workers" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(n) => config.workers = n,
                None => return usage(),
            },
            "--tenants" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(n) => tenants = n,
                None => return usage(),
            },
            "--workloads" => match take_value(args, &mut i).and_then(parse_workloads) {
                Some(w) => workloads = w,
                None => return usage(),
            },
            "--size" => match take_value(args, &mut i).and_then(parse_size) {
                Some(s) => size = s,
                None => return usage(),
            },
            "--heap-mult" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(m) => heap_mult = m,
                None => return usage(),
            },
            "--cycle-budget" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(c) => cycle_budget = Some(c),
                None => return usage(),
            },
            "--max-live-jobs" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(n) => caps.max_live_jobs = n,
                None => return usage(),
            },
            "--max-heap-bytes" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(b) => caps.max_heap_bytes = b,
                None => return usage(),
            },
            "--spill" => match take_value(args, &mut i) {
                Some(dir) => config.spill_dir = Some(dir.into()),
                None => return usage(),
            },
            "--prom" => prom = true,
            _ => return usage(),
        }
        i += 1;
    }
    if workloads.is_empty() {
        return usage();
    }
    config.default_caps = caps;

    let service = Service::start(config);
    let mut ids = Vec::new();
    for n in 0..jobs {
        let mut spec = JobSpec::new(
            &format!("t{}", n % tenants.max(1)),
            &workloads[n % workloads.len()],
        );
        spec.size = size;
        spec.heap_mult = heap_mult;
        spec.cycle_budget = cycle_budget;
        match service.submit(spec.clone()) {
            Ok(id) => ids.push(id),
            Err(reason) => println!(
                "job {n} tenant {} workload {} rejected: {reason}",
                spec.tenant, spec.workload
            ),
        }
    }
    for id in ids {
        let r = service.wait(id);
        println!(
            "job {id} tenant {} workload {} {} {} cycles {} first-decision {} digest {:#018x}",
            r.spec.tenant,
            r.spec.workload,
            if r.warm { "warm" } else { "cold" },
            r.outcome.tag(),
            r.cycles,
            r.first_decision_cycles
                .map_or_else(|| "never".to_string(), |c| c.to_string()),
            r.digest
        );
    }
    let snapshot = service.snapshot();
    if prom {
        print!(
            "{}",
            hpmopt_telemetry::prom::render(&snapshot, &[("service", "hpmopt-serve")])
        );
    } else {
        print!("{}", snapshot.render_text());
    }
    let persisted = service.shutdown();
    if persisted > 0 {
        println!("persisted {persisted} profile(s)");
    }
    ExitCode::SUCCESS
}

fn cmd_bench(args: &[String]) -> ExitCode {
    let mut workers = 4;
    let mut check = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(n) => workers = n,
                None => return usage(),
            },
            "--check" => check = true,
            _ => return usage(),
        }
        i += 1;
    }

    // The open loop's bounded repository keeps evicting, so only the
    // closed loop is sure to measure a program both cold and warm.
    let mut ok = true;
    let mut warm_measured = false;
    for config in [
        LoadConfig::closed_loop(workers),
        LoadConfig::open_loop(workers),
    ] {
        let report = run_load(&config);
        print!("{}", report.summary);
        eprintln!("{}", report.throughput_line());
        ok &= report.check();
        warm_measured |= report.warm_beats_cold.is_some();
    }
    if check && !(ok && warm_measured) {
        eprintln!(
            "check failed: perturbation deltas, warm-start regression or no \
             warm start measured, or missing multi-worker speedup (see summary)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
