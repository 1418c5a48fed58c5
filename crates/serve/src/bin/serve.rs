//! `hpmopt-serve` — the multi-tenant VM service from the command line.
//!
//! ```text
//! hpmopt-serve run   [--jobs N] [--workers W] [--tenants T]
//!                    [--workloads A,B,..] [--size tiny|small|full]
//!                    [--heap-mult M] [--cycle-budget C]
//!                    [--max-live-jobs N] [--max-heap-bytes B]
//!                    [--spill DIR] [--prom]
//! hpmopt-serve bench [--rounds R] [--jobs N] [--workers W] [--tenants T]
//!                    [--workloads A,B,..] [--size tiny|small|full]
//!                    [--seed S] [--qps Q] [--open-jobs N] [--quantum C]
//!                    [--repo-bytes B] [--repo-ttl OPS] [--check]
//! ```
//!
//! `run` starts the live daemon, submits `N` jobs round-robin across
//! tenants and workloads, waits for every report, prints them plus the
//! fleet telemetry, and shuts down (persisting the repository to
//! `--spill DIR` when given). `bench` runs both deterministic load
//! generators — the closed-loop rounds, then the QPS-paced open-loop
//! latency run: the combined summary on stdout is byte-identical for
//! any `--workers` value; wall-clock throughput goes to stderr.
//! `--qps 0` skips the open-loop section; `--qps Q` paces its arrivals,
//! `--open-jobs` sizes it, `--quantum` sets the DRR fairness quantum in
//! service cycles, and `--repo-bytes`/`--repo-ttl` bound its profile
//! repository (capacity bytes / TTL in repository operations). With
//! `--check`, `bench` exits 1 unless perturbation deltas are zero, warm
//! jobs beat cold to the first decision, and (when the open-loop
//! section ran) four virtual workers strictly outrun one. Both
//! subcommands reject an unknown `--workloads` name while parsing: they
//! name it, print the usage and exit 2 before any job runs.

use std::process::ExitCode;

use hpmopt_serve::job::DEFAULT_HEAP_MULT;
use hpmopt_serve::{
    run_bench, run_openloop, BenchConfig, JobSpec, OpenLoopConfig, Service, ServiceConfig,
    TenantCaps,
};
use hpmopt_workloads::{names, Size};

fn usage() -> ExitCode {
    eprintln!(
        "usage: hpmopt-serve run [--jobs N] [--workers W] [--tenants T] \
         [--workloads A,B,..] [--size tiny|small|full] [--heap-mult M] \
         [--cycle-budget C] [--max-live-jobs N] [--max-heap-bytes B] \
         [--spill DIR] [--prom]\n\
         hpmopt-serve bench [--rounds R] [--jobs N] [--workers W] [--tenants T] \
         [--workloads A,B,..] [--size tiny|small|full] [--seed S] \
         [--qps Q] [--open-jobs N] [--quantum C] [--repo-bytes B] [--repo-ttl OPS] \
         [--check]"
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
    let mut config = BenchConfig::default();
    let mut open = OpenLoopConfig::default();
    let mut run_open = true;
    let mut check = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rounds" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(n) => config.rounds = n,
                None => return usage(),
            },
            "--jobs" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(n) => config.jobs_per_round = n,
                None => return usage(),
            },
            "--workers" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(n) => {
                    config.workers = n;
                    open.workers = n;
                }
                None => return usage(),
            },
            "--tenants" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(n) => config.tenants = n,
                None => return usage(),
            },
            "--workloads" => match take_value(args, &mut i).and_then(parse_workloads) {
                Some(w) => config.workloads = w,
                None => return usage(),
            },
            "--size" => match take_value(args, &mut i).and_then(parse_size) {
                Some(s) => config.size = s,
                None => return usage(),
            },
            "--seed" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(s) => {
                    config.seed = s;
                    open.seed = s;
                }
                None => return usage(),
            },
            "--qps" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(0) => run_open = false,
                Some(q) => open.qps = q,
                None => return usage(),
            },
            "--open-jobs" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(n) => open.jobs = n,
                None => return usage(),
            },
            "--quantum" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(q) => open.quantum_cycles = q,
                None => return usage(),
            },
            "--repo-bytes" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(0) => open.repo.capacity_bytes = None,
                Some(b) => open.repo.capacity_bytes = Some(b),
                None => return usage(),
            },
            "--repo-ttl" => match take_value(args, &mut i).and_then(|v| v.parse().ok()) {
                Some(0) => open.repo.ttl_ops = None,
                Some(t) => open.repo.ttl_ops = Some(t),
                None => return usage(),
            },
            "--check" => check = true,
            _ => return usage(),
        }
        i += 1;
    }
    if config.workloads.is_empty() {
        return usage();
    }

    let report = run_bench(&config);
    print!("{}", report.summary);
    eprintln!("{}", report.throughput_line());
    let open_ok = if run_open {
        let open_report = run_openloop(&open);
        print!("{}", open_report.summary);
        eprintln!("{}", open_report.throughput_line());
        open_report.check()
    } else {
        true
    };
    if check && !(report.check() && open_ok) {
        eprintln!(
            "check failed: perturbation deltas, warm-start regression, or \
             missing multi-worker speedup (see summary)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
