//! `hpmopt-report` — run one workload with telemetry enabled and
//! account for where the simulated cycles went.
//!
//! ```text
//! cargo run --release --bin hpmopt-report -- [workload] [size] [-o out.json] [--profile FILE]
//! ```
//!
//! Runs the workload twice — once with telemetry disabled, once
//! enabled — prints the metric table, retained event trace, cycle
//! buckets, and the cycles-to-first-optimization metric, and writes the
//! same data as JSON. The enabled/disabled cycle comparison is part of
//! the report: telemetry observes the simulated clock without advancing
//! it, so the delta must be zero — a nonzero delta is a perturbation
//! bug and fails the process (nonzero exit), which is what lets CI gate
//! on it.
//!
//! With `--profile FILE`, both runs warm-start from the profile read
//! once from `FILE` (identically, so the perturbation check still
//! holds), and the enabled run's measurements are merged into it and
//! saved back before the snapshot is taken.
//!
//! Additional modes (the perturbation gate runs in all of them):
//!
//! - `--explain CLASS` replaces the metric report with the decision
//!   provenance for `CLASS`: every retained co-allocation decision with
//!   its causal chain — witnessed samples (PC → method/bytecode through
//!   the MC maps), the miss counter against the policy threshold, and
//!   for reverts the feedback evidence.
//! - `--prom` replaces the report with the Prometheus text exposition
//!   of the telemetry snapshot (deterministic; byte-identical across
//!   runs of the same configuration).
//! - `--forced-bad` pins the Figure 8 bad placement (`String` + 128-byte
//!   gap on `db`) identically in both runs, so the provenance log
//!   contains a feedback-driven revert to explain.

use std::process::ExitCode;

use hpmopt::bytecode::{FieldId, MethodId, Program};
use hpmopt::core::policy::PolicyConfig;
use hpmopt::core::runtime::{ForcedBadPlacement, HpmRuntime, RunConfig, RunReport};
use hpmopt::core::{warmstart, ProfileOptions};
use hpmopt::gc::CollectorKind;
use hpmopt::hpm::{HpmConfig, SamplingInterval};
use hpmopt::profile::{LoadOutcome, ProfileStore};
use hpmopt::telemetry::json::{number, JsonWriter};
use hpmopt::telemetry::{
    prom, DecisionRecord, Telemetry, TelemetrySnapshot, TraceKind, DEFAULT_TRACE_CAPACITY,
};
use hpmopt::vm::VmConfig;
use hpmopt::workloads::setup::{self, BUFFER_CAPACITY, MONITOR_CPU_HZ};
use hpmopt::workloads::{by_name, names, Size, Workload};

fn usage() -> ExitCode {
    eprintln!("usage: hpmopt-report [workload] [tiny|small|full] [-o FILE.json] [--profile FILE]");
    eprintln!("                     [--explain CLASS] [--prom] [--forced-bad]");
    eprintln!("workloads: {}", names().join(", "));
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut workload_name = String::from("db");
    let mut size = Size::Tiny;
    let mut out_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut explain: Option<String> = None;
    let mut prom_mode = false;
    let mut forced_bad = false;
    let mut positional = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-o" | "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => return usage(),
            },
            "--profile" => match args.next() {
                Some(p) => profile_path = Some(p),
                None => return usage(),
            },
            "--explain" => match args.next() {
                Some(c) => explain = Some(c),
                None => return usage(),
            },
            "--prom" => prom_mode = true,
            "--forced-bad" => forced_bad = true,
            "-h" | "--help" => return usage(),
            "tiny" => size = Size::Tiny,
            "small" => size = Size::Small,
            "full" => size = Size::Full,
            name if positional == 0 => {
                workload_name = name.to_string();
                positional += 1;
            }
            _ => return usage(),
        }
    }

    let Some(workload) = by_name(&workload_name, size) else {
        eprintln!("unknown workload `{workload_name}`");
        return usage();
    };
    let out_path = out_path.unwrap_or_else(|| format!("target/hpmopt-report-{workload_name}.json"));
    let store = profile_path.map(ProfileStore::new);
    let profile = match &store {
        Some(store) => ProfileOptions {
            workload: workload_name.clone(),
            prior: store
                .load_any()
                .map_or_else(LoadOutcome::Cold, LoadOutcome::Warm),
        },
        None => ProfileOptions::default(),
    };

    // Two identical configurations, differing only in the telemetry
    // handle. The disabled run is the control for the zero-perturbation
    // claim below; both runs start from the same prior profile.
    let disabled = run(
        &workload,
        Telemetry::disabled(),
        profile.clone(),
        forced_bad,
    );
    let telemetry = Telemetry::enabled(DEFAULT_TRACE_CAPACITY);
    let enabled = run(&workload, telemetry.clone(), profile.clone(), forced_bad);
    if let Some(store) = &store {
        warmstart::save_run(store, profile.prior, &enabled, &telemetry);
    }

    let snapshot = telemetry.snapshot(enabled.cycles);
    let delta_pct = cycle_delta_pct(enabled.cycles, disabled.cycles);

    if prom_mode {
        print!(
            "{}",
            prom::render(
                &snapshot,
                &[("workload", &workload_name), ("size", &size.to_string())]
            )
        );
    } else if let Some(class_name) = &explain {
        if workload.program.class_by_name(class_name).is_none() {
            eprintln!("workload `{workload_name}` has no class `{class_name}`");
            return ExitCode::FAILURE;
        }
        print!(
            "{}",
            render_explain(&workload.program, &snapshot, class_name)
        );
    } else {
        println!("hpmopt-report: {} ({size})", workload.name);
        println!();
        print!("{}", snapshot.render_text());
        println!();
        print!("{}", enabled.cycle_buckets().render_text());
        println!();
        println!("  optimization latency");
        println!(
            "    start                   {:>14}",
            if enabled.warm_start { "warm" } else { "cold" }
        );
        println!(
            "    first decision (cycles) {:>14}",
            enabled
                .cycles_to_first_decision()
                .map_or_else(|| "never".to_string(), |c| c.to_string())
        );
        println!();
        println!("  telemetry perturbation check");
        println!("    cycles (telemetry on)   {:>14}", enabled.cycles);
        println!("    cycles (telemetry off)  {:>14}", disabled.cycles);
        println!("    delta                   {:>13}%", number(delta_pct));
    }

    let json = render_json(&workload_name, size, &snapshot, &enabled, &disabled);
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    if prom_mode || explain.is_some() {
        // Keep stdout machine-readable (and byte-identical across runs)
        // in the exposition modes.
        eprintln!("wrote {out_path}");
    } else {
        println!();
        println!("  wrote {out_path}");
    }
    if delta_pct != 0.0 {
        eprintln!("FAIL: telemetry perturbed the simulated clock by {delta_pct}%");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Run `workload` under monitoring with the given telemetry handle.
/// Uses the shared simulation-scale configuration of
/// `hpmopt_workloads::setup` (heap at 4× the minimum, monitoring clock,
/// buffer, auto-mode target), plus nonzero compile costs and a live
/// tier-1 timer so the recompilation bucket is exercised.
///
/// With `forced_bad`, the Figure 8 sabotage (a 128-byte gap pinned on
/// `String` a third of the way in, with a tight feedback loop) is
/// applied — identically for the control and enabled runs, so the
/// zero-perturbation gate still holds.
fn run(
    workload: &Workload,
    telemetry: Telemetry,
    profile: ProfileOptions,
    forced_bad: bool,
) -> RunReport {
    let mut vm = VmConfig {
        heap: setup::heap_config(workload, 4, 1, CollectorKind::GenMs),
        ..VmConfig::default()
    };
    vm.jit.tier1_enabled = true;
    vm.jit.sample_period_cycles = 200_000;
    vm.jit.tier1_threshold = 2;
    vm.baseline_compile_cycles_per_bc = 3;
    vm.opt_compile_cycles_per_bc = 30;
    vm.step_limit = Some(3_000_000_000);
    let interval = if forced_bad {
        // The Figure 8 recipe: an aggressive fixed interval so the
        // per-class miss-rate series has enough samples per period for
        // the feedback loop to see the sabotage.
        SamplingInterval::Fixed(256)
    } else {
        setup::auto_interval()
    };
    let mut config = RunConfig {
        vm,
        hpm: HpmConfig {
            interval,
            buffer_capacity: BUFFER_CAPACITY,
            cpu_hz: MONITOR_CPU_HZ,
            ..HpmConfig::default()
        },
        coalloc: true,
        policy: PolicyConfig {
            min_field_misses: 4,
        },
        profile,
        telemetry,
        ..RunConfig::default()
    };
    if forced_bad {
        config.watch_fields = vec![("String".into(), "value".into())];
        config.forced_bad = Some(ForcedBadPlacement {
            class: "String".into(),
            field: "value".into(),
            gap_bytes: 128,
            at_cycles: 25_000_000,
        });
        config.feedback = hpmopt::core::feedback::FeedbackConfig {
            tolerance: 1.25,
            revert_after_periods: 2,
            min_period_misses: 6,
        };
    }
    HpmRuntime::new(config)
        .run(&workload.program)
        .unwrap_or_else(|e| panic!("workload {} failed: {e}", workload.name))
}

/// Render the decision-provenance chain for every retained decision on
/// `class_name`: the witnessed samples (PC → method/bytecode via the
/// machine-code maps), the per-field miss counter against the policy
/// threshold, the action taken, and for reverts the feedback evidence —
/// followed by the retained code-lifecycle events (tier promotions,
/// deoptimizations, cache evictions), which bound the epoch windows
/// every witnessed PC was resolved against.
fn render_explain(program: &Program, snapshot: &TelemetrySnapshot, class_name: &str) -> String {
    let class = program
        .class_by_name(class_name)
        .expect("checked by caller");
    let decisions: Vec<&DecisionRecord> = snapshot
        .decisions
        .iter()
        .filter(|d| d.class == class.0)
        .collect();
    let mut out = format!(
        "decision provenance for class {class_name} — {} decision(s) retained",
        decisions.len()
    );
    if snapshot.decisions_dropped > 0 {
        out.push_str(&format!(
            " ({} dropped ring-wide)",
            snapshot.decisions_dropped
        ));
    }
    out.push('\n');
    for d in decisions {
        let target = if d.field == u32::MAX {
            format!("class {class_name}")
        } else {
            format!("field {}", program.field_name(FieldId(d.field)))
        };
        out.push_str(&format!("\n[{} cycles] {} — {target}\n", d.cycle, d.action));
        if d.field != u32::MAX {
            out.push_str(&format!(
                "  miss counter {} >= threshold {} at decision time\n",
                d.field_misses, d.threshold
            ));
        }
        if d.gap_bytes > 0 {
            out.push_str(&format!("  pinned gap: {} bytes\n", d.gap_bytes));
        }
        if d.witnesses.is_empty() {
            if d.field != u32::MAX {
                out.push_str("  (no witness samples retained)\n");
            }
        } else {
            out.push_str("  witnessed samples (PC -> MC-map resolution):\n");
            for w in &d.witnesses {
                out.push_str(&format!(
                    "    pc {:#014x} -> {} @ bytecode {} (cycle {})\n",
                    w.pc,
                    program.method_name(MethodId(w.method)),
                    w.bytecode_index,
                    w.cycle
                ));
            }
        }
        if let Some(f) = &d.feedback {
            out.push_str(&format!(
                "  feedback: observed {:.2} misses/Mcycle vs baseline {:.2} \
                 (tolerance x{:.2}), {} regressing period(s)\n",
                f.observed_rate, f.baseline_rate, f.tolerance, f.regressing_periods
            ));
        }
    }
    out.push_str(&render_code_lifecycle(program, snapshot));
    out
}

/// Render the retained code-lifecycle trace: every recompilation,
/// deoptimization, and code-cache eviction/replacement, with method
/// names resolved. These events are provenance for sample attribution —
/// each free advances the code epoch, and a witnessed PC only resolved
/// because it was stamped inside the owning artifact's epoch window.
fn render_code_lifecycle(program: &Program, snapshot: &TelemetrySnapshot) -> String {
    let method = |m: u32| program.method_name(MethodId(m));
    let lines: Vec<String> = snapshot
        .events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::Recompilation { method: m, tier } => Some(format!(
                "    [{} cycles] compile {} -> tier {tier}\n",
                e.cycle,
                method(m)
            )),
            TraceKind::Deopt { method: m } => Some(format!(
                "    [{} cycles] deopt {} (region exit, back to baseline)\n",
                e.cycle,
                method(m)
            )),
            TraceKind::CodeEviction {
                method: m,
                tier,
                epoch,
                evicted,
            } => Some(format!(
                "    [{} cycles] {} {} (tier {tier}) -> code epoch {epoch}\n",
                e.cycle,
                if evicted { "evict" } else { "free (replaced)" },
                method(m)
            )),
            _ => None,
        })
        .collect();
    if lines.is_empty() {
        return String::new();
    }
    let mut out = format!(
        "\ncode lifecycle — {} retained event(s); each free advances the \
         code epoch that witnessed PCs are resolved against:\n",
        lines.len()
    );
    for l in lines {
        out.push_str(&l);
    }
    out
}

/// Cycle difference of the telemetry-enabled run relative to the
/// disabled control, in percent.
fn cycle_delta_pct(enabled: u64, disabled: u64) -> f64 {
    if disabled == 0 {
        return 0.0;
    }
    (enabled as f64 - disabled as f64).abs() / disabled as f64 * 100.0
}

fn render_json(
    workload: &str,
    size: Size,
    snapshot: &TelemetrySnapshot,
    enabled: &RunReport,
    disabled: &RunReport,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("workload", workload);
    w.field_str("size", &size.to_string());
    w.key("optimization_latency").object_value();
    w.field_str("start", if enabled.warm_start { "warm" } else { "cold" });
    match enabled.cycles_to_first_decision() {
        Some(c) => w.field_u64("first_decision_cycles", c),
        None => w.field_str("first_decision_cycles", "never"),
    };
    w.end_object();
    w.key("perturbation").object_value();
    w.field_u64("cycles_enabled", enabled.cycles);
    w.field_u64("cycles_disabled", disabled.cycles);
    w.field_f64(
        "cycle_delta_pct",
        cycle_delta_pct(enabled.cycles, disabled.cycles),
    );
    w.end_object();
    w.key("snapshot");
    snapshot.write_json(&mut w);
    w.key("cycle_buckets");
    enabled.cycle_buckets().write_json(&mut w);
    w.end_object();
    w.finish()
}
