//! `hpmopt-bench` — measure the performance trajectory and gate it
//! against the committed baseline.
//!
//! ```text
//! hpmopt-bench --update [--out BENCH_trajectory.json]    # write a new baseline
//! hpmopt-bench --check  [--baseline FILE] [--threshold-pct N]
//! ```
//!
//! `--check` re-measures the fixed workload set, the pinned stress
//! shard, and the serve open-loop latency point, compares them against
//! the baseline file, and exits nonzero when any workload or stress
//! seed regressed beyond the threshold, when a stress digest changed,
//! when a telemetry perturbation delta is not exactly zero, or when the
//! serve row regressed (queue-wait tail, eviction count, or the
//! multi-worker speedup). Wall time is printed but never gated.
//! `--update` writes the freshly measured trajectory out as the new
//! baseline — commit the file to bank an improvement or to deliberately
//! accept a behavior change. `--no-serve` skips the serve row (for fast
//! smokes; a baseline written with it will fail a full `--check`).

use std::process::ExitCode;

use hpmopt_bench::trajectory::{
    compare, measure, Trajectory, DEFAULT_STRESS_SEEDS, DEFAULT_WORKLOADS,
};
use hpmopt_workloads::{names, Size};

const DEFAULT_BASELINE: &str = "BENCH_trajectory.json";
const DEFAULT_THRESHOLD_PCT: f64 = 5.0;

fn usage() -> ExitCode {
    eprintln!("usage: hpmopt-bench (--check | --update)");
    eprintln!("  --baseline FILE      baseline to gate against (default {DEFAULT_BASELINE})");
    eprintln!("  --out FILE           where --update writes (default the baseline path)");
    eprintln!("  --threshold-pct N    allowed cycle regression (default {DEFAULT_THRESHOLD_PCT})");
    eprintln!(
        "  --workloads a,b,c    workload set (default {})",
        DEFAULT_WORKLOADS.join(",")
    );
    eprintln!("  --seeds N            pinned stress seeds 0..N (default {DEFAULT_STRESS_SEEDS})");
    eprintln!("  --no-serve           skip the serve open-loop row (fast smoke)");
    ExitCode::FAILURE
}

struct Args {
    check: bool,
    update: bool,
    baseline: String,
    out: Option<String>,
    threshold_pct: f64,
    workloads: Vec<String>,
    seeds: u64,
    serve: bool,
}

fn parse_args() -> Result<Args, ()> {
    let mut a = Args {
        check: false,
        update: false,
        baseline: DEFAULT_BASELINE.to_string(),
        out: None,
        threshold_pct: DEFAULT_THRESHOLD_PCT,
        workloads: DEFAULT_WORKLOADS.iter().map(ToString::to_string).collect(),
        seeds: DEFAULT_STRESS_SEEDS,
        serve: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => a.check = true,
            "--update" => a.update = true,
            "--baseline" => a.baseline = args.next().ok_or(())?,
            "--out" => a.out = Some(args.next().ok_or(())?),
            "--threshold-pct" => {
                a.threshold_pct = args.next().ok_or(())?.parse().map_err(|_| ())?;
            }
            "--workloads" => {
                a.workloads = args
                    .next()
                    .ok_or(())?
                    .split(',')
                    .map(ToString::to_string)
                    .collect();
                if let Some(bad) = a.workloads.iter().find(|w| !names().contains(&w.as_str())) {
                    eprintln!("hpmopt-bench: unknown workload {bad:?}");
                    return Err(());
                }
            }
            "--seeds" => a.seeds = args.next().ok_or(())?.parse().map_err(|_| ())?,
            "--no-serve" => a.serve = false,
            _ => return Err(()),
        }
    }
    if a.check == a.update {
        return Err(()); // exactly one mode
    }
    Ok(a)
}

fn print_trajectory(t: &Trajectory) {
    println!("  workload       cycles    overhead%   perturb%   wall");
    for p in &t.workloads {
        println!(
            "  {:<10} {:>12} {:>+10.2}% {:>+9.2}% {:>5}ms",
            format!("{} {}", p.name, p.size),
            p.cycles,
            p.monitoring_overhead_pct,
            p.perturbation_delta_pct,
            p.wall_ms
        );
    }
    for p in &t.stress {
        println!(
            "  stress seed {:<2} {:>10} cycles, {:>10} monitored",
            p.seed, p.cycles, p.monitored_cycles
        );
    }
    for p in &t.serve {
        println!(
            "  serve {:<9} {} jobs @ {} qps: {:.1} -> {:.1} jobs/s (1w -> 4w), \
             queue wait p50/p95/p99 {}/{}/{} cycles, {} eviction(s), {}ms",
            p.name,
            p.jobs,
            p.qps,
            p.throughput_1w_jobs_per_sec,
            p.throughput_4w_jobs_per_sec,
            p.p50_queue_wait_cycles,
            p.p95_queue_wait_cycles,
            p.p99_queue_wait_cycles,
            p.repo_evictions,
            p.wall_ms
        );
    }
}

/// The throughput movement `--check` measured, workload by workload:
/// baseline vs current bytecodes per simulated kilocycle. Informational
/// (the gate acts on cycles, digests, and perturbation), but it makes a
/// banked speedup — or an unbanked slowdown — visible at a glance.
fn print_throughput_delta(current: &Trajectory, baseline: &Trajectory) {
    println!("  throughput (bytecodes per kilocycle):");
    println!(
        "  {:<10} {:>10} {:>10} {:>8}",
        "workload", "old", "new", "delta"
    );
    for b in &baseline.workloads {
        let Some(c) = current
            .workloads
            .iter()
            .find(|c| c.name == b.name && c.size == b.size)
        else {
            continue;
        };
        let delta = if b.throughput_bc_per_kcycle == 0.0 {
            0.0
        } else {
            (c.throughput_bc_per_kcycle / b.throughput_bc_per_kcycle - 1.0) * 100.0
        };
        println!(
            "  {:<10} {:>10.1} {:>10.1} {:>+7.1}%",
            format!("{} {}", b.name, b.size),
            b.throughput_bc_per_kcycle,
            c.throughput_bc_per_kcycle,
            delta
        );
    }
}

fn main() -> ExitCode {
    let Ok(args) = parse_args() else {
        return usage();
    };

    println!(
        "hpmopt-bench: measuring {} workload(s) + {} stress seed(s){}",
        args.workloads.len(),
        args.seeds,
        if args.serve { " + serve open-loop" } else { "" }
    );
    let current = measure(&args.workloads, Size::Tiny, args.seeds, args.serve);
    print_trajectory(&current);

    if args.update {
        let out = args.out.unwrap_or(args.baseline);
        if let Err(e) = std::fs::write(&out, current.to_json()) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out}");
        return ExitCode::SUCCESS;
    }

    let text = match std::fs::read_to_string(&args.baseline) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read baseline {}: {e}", args.baseline);
            eprintln!("(generate one with: hpmopt-bench --update)");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match Trajectory::parse(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("corrupt baseline {}: {e}", args.baseline);
            return ExitCode::FAILURE;
        }
    };
    print_throughput_delta(&current, &baseline);
    let violations = compare(&current, &baseline, args.threshold_pct);
    if violations.is_empty() {
        println!(
            "trajectory check passed against {} (threshold +{}%)",
            args.baseline, args.threshold_pct
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("trajectory check FAILED against {}:", args.baseline);
        for v in &violations {
            eprintln!("  - {v}");
        }
        ExitCode::FAILURE
    }
}
