//! The three workloads, the programs ("units") each one runs, and the
//! set-up every run pays before measuring.
//!
//! A unit is one program at one configuration: its monitored run (the
//! thing measured), its unmonitored reference run (the correctness and
//! optimization baseline) and the same program as a service job.

use std::time::Instant;

use hpmopt_bench::setup;
use hpmopt_core::{HpmRuntime, ProfileOptions, RunConfig, RunReport};
use hpmopt_gc::CollectorKind;
use hpmopt_hpm::SamplingInterval;
use hpmopt_profile::RepoConfig;
use hpmopt_serve::job::{profile_label, run_config_for};
use hpmopt_serve::service::{Service, ServiceConfig};
use hpmopt_serve::tenant::TenantCaps;
use hpmopt_serve::JobSpec;
use hpmopt_telemetry::{Telemetry, TelemetrySnapshot, DEFAULT_TRACE_CAPACITY};
use hpmopt_workloads::{by_name, Size, Workload};

use crate::calib::Calibrator;
use crate::output::Outcome;
use crate::trace::span;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["db-coalloc", "jython-tiered", "serve-mix"];

/// The programs of `serve-mix`, each a tiny job at 4× its minimum heap.
pub const MIX: [&str; 6] = ["db", "lusearch", "hsqldb", "jess", "antlr", "fop"];

/// Result digests of the unmonitored reference runs, pinned so that a
/// change to a reference itself is caught, not just a disagreement
/// between monitored and unmonitored runs. Workload programs take no
/// seed, so these hold for every seed.
const PINNED_DIGESTS: [(&str, u64); 8] = [
    ("db@small", 0x944c_fdb1_2da4_1c9a),
    ("jython@small", 0xcc5f_7345_d7bf_1e2b),
    ("db@tiny", 0x090b_ade1_bb19_fb54),
    ("lusearch@tiny", 0xbf61_cb7f_d3c1_dbb7),
    ("hsqldb@tiny", 0xc732_d05c_afe0_ce44),
    ("jess@tiny", 0x41e1_0161_2943_c875),
    ("antlr@tiny", 0xe80c_8843_cd1f_3917),
    ("fop@tiny", 0x7f18_d1d1_7e80_3070),
];

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `db` with miss-driven co-allocation: data-centric.
    DbCoalloc,
    /// `jython` under tiered compilation with a tiny code cache:
    /// code-centric.
    JythonTiered,
    /// The live service under a seeded job mix.
    ServeMix,
}

impl Kind {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "db-coalloc" => Some(Kind::DbCoalloc),
            "jython-tiered" => Some(Kind::JythonTiered),
            "serve-mix" => Some(Kind::ServeMix),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DbCoalloc => WORKLOADS[0],
            Kind::JythonTiered => WORKLOADS[1],
            Kind::ServeMix => WORKLOADS[2],
        }
    }
}

/// One program at one configuration.
pub struct Unit {
    /// `<program>@<size>`.
    pub label: String,
    /// The program.
    pub workload: Workload,
    /// The measured, monitored configuration (telemetry off).
    pub monitored: RunConfig,
    /// The unmonitored reference configuration.
    pub reference: RunConfig,
    /// The same program as a service job.
    pub job: JobSpec,
}

impl Unit {
    /// The monitored configuration with telemetry recording on and the
    /// run's fresh profile reported, returning the recorder.
    pub fn with_telemetry(&self) -> (RunConfig, Telemetry) {
        let mut cfg = self.monitored.clone();
        let telemetry = Telemetry::enabled(DEFAULT_TRACE_CAPACITY);
        cfg.telemetry = telemetry.clone();
        if cfg.profile.workload.is_empty() {
            cfg.profile = ProfileOptions::from_checkout(None, &profile_label(&self.job));
        }
        (cfg, telemetry)
    }

    /// The monitored configuration with sampling and co-allocation set.
    pub fn variant(&self, sampling: SamplingInterval, coalloc: bool) -> RunConfig {
        let mut cfg = self.monitored.clone();
        cfg.hpm.interval = sampling;
        cfg.coalloc = coalloc;
        cfg
    }
}

/// Run `cfg` on `unit`'s program under a `layer` span, timing it.
pub fn timed_run(
    layer: &'static str,
    unit: &Unit,
    cfg: RunConfig,
) -> (Result<RunReport, hpmopt_vm::VmError>, f64) {
    let _s = span(layer);
    let t = Instant::now();
    let r = HpmRuntime::new(cfg).run(&unit.workload.program);
    (r, t.elapsed().as_secs_f64())
}

/// Everything set-up produced.
pub struct Setup {
    /// Its programs.
    pub units: Vec<Unit>,
    /// Reference run of each unit, in unit order.
    pub references: Vec<RunReport>,
    /// Seconds in `by_name`.
    pub build_s: f64,
    /// Seconds in `plan_for`.
    pub plan_s: f64,
    /// Seconds of the whole set-up.
    pub total_s: f64,
    /// The service (`serve-mix` only).
    pub service: Option<Service>,
    /// Reference digests that differ from the pinned ones.
    pub digest_failures: Vec<String>,
}

/// The bounded repository of the `serve-mix` service: small enough
/// that the six fingerprints of the mix do not all fit.
pub fn repo_config() -> RepoConfig {
    RepoConfig {
        shards: 1,
        capacity_bytes: Some(1_500),
        ttl_ops: None,
    }
}

/// A service with `workers = nproc` and caps no burst of the mix hits.
pub fn start_service() -> Service {
    let _s = span("serve");
    Service::start(ServiceConfig {
        workers: nproc(),
        default_caps: TenantCaps {
            max_live_jobs: 4096,
            ..TenantCaps::default()
        },
        repo: repo_config(),
        ..ServiceConfig::default()
    })
}

/// Host cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Set up `kind` at `seed`: build the programs, generate their plans,
/// run the unmonitored references and, for `serve-mix`, start the
/// service.
pub fn set_up(kind: Kind, seed: u64) -> Setup {
    let t0 = Instant::now();
    let programs: Vec<(&str, Size, u64)> = match kind {
        Kind::DbCoalloc => vec![("db", Size::Small, 2)],
        Kind::JythonTiered => vec![("jython", Size::Small, 2)],
        Kind::ServeMix => MIX.iter().map(|&n| (n, Size::Tiny, 4)).collect(),
    };
    let (mut build_s, mut plan_s) = (0.0, 0.0);
    let mut units = Vec::new();
    let mut references = Vec::new();
    let mut digest_failures = Vec::new();
    for (name, size, heap_mult) in programs {
        let t = Instant::now();
        let workload = {
            let _s = span("workloads");
            by_name(name, size).expect("benchmark programs exist")
        };
        build_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        {
            let _s = span("jit");
            let _ = setup::plan_for(&workload, size);
        }
        plan_s += t.elapsed().as_secs_f64();

        let unit = make_unit(kind, workload, size, heap_mult, seed);
        let (reference, _) = timed_run("core", &unit, unit.reference.clone());
        let reference = reference.expect("reference runs complete");
        let pinned = PINNED_DIGESTS
            .iter()
            .find(|(l, _)| *l == unit.label)
            .map(|p| p.1);
        if pinned != Some(reference.result_digest) {
            digest_failures.push(format!(
                "reference digest of {} is {:#x}, pinned {}",
                unit.label,
                reference.result_digest,
                pinned.map_or("none".to_string(), |p| format!("{p:#x}"))
            ));
        }
        units.push(unit);
        references.push(reference);
    }
    let service = (kind == Kind::ServeMix).then(start_service);
    Setup {
        units,
        references,
        build_s,
        plan_s,
        total_s: t0.elapsed().as_secs_f64(),
        service,
        digest_failures,
    }
}

fn make_unit(kind: Kind, workload: Workload, size: Size, heap_mult: u64, seed: u64) -> Unit {
    let job = JobSpec {
        size,
        heap_mult,
        ..JobSpec::new("t0", workload.name)
    };
    let heap = setup::heap_config(&workload, heap_mult, 1, CollectorKind::GenMs);
    let reference = setup::run_config(&workload, size, heap.clone(), SamplingInterval::Off, false);
    let monitored = match kind {
        Kind::DbCoalloc => {
            let mut cfg = setup::run_config(&workload, size, heap, setup::auto_interval(), true);
            cfg.hpm.seed = seed;
            cfg
        }
        Kind::JythonTiered => {
            // The tiered-churn configuration of the `jython+tiered`
            // trajectory row: no plan, timer-driven tier 1, back-edge
            // tier 2, and a code cache far under the code footprint.
            let mut cfg = setup::run_config(&workload, size, heap, setup::auto_interval(), true);
            cfg.hpm.seed = seed;
            cfg.vm.plan = None;
            cfg.vm.jit.tier1_enabled = true;
            cfg.vm.jit.sample_period_cycles = 200_000;
            cfg.vm.jit.tier1_threshold = 2;
            cfg.vm.jit.tier2_enabled = true;
            cfg.vm.jit.tier2_threshold = 64;
            cfg.vm.jit.code_cache_capacity_bytes = Some(512);
            cfg
        }
        // Exactly what the service runs for a cold job.
        Kind::ServeMix => {
            let mut cfg = run_config_for(&job, &workload);
            cfg.profile = ProfileOptions::from_checkout(None, &profile_label(&job));
            cfg
        }
    };
    Unit {
        label: format!("{}@{size}", workload.name),
        workload,
        monitored,
        reference,
        job,
    }
}

/// The monitored runs of every unit, off and on telemetry.
pub struct UnitRuns {
    /// Telemetry-off monitored run per unit.
    pub off: Vec<RunReport>,
    /// Host seconds of telemetry-off runs per unit (median).
    pub off_s: Vec<f64>,
    /// Telemetry-on monitored run per unit (reports a fresh profile).
    pub on: Vec<RunReport>,
    /// Host seconds of telemetry-on runs per unit (median).
    pub on_s: Vec<f64>,
    /// The telemetry recorded by each unit's telemetry-on run.
    pub on_telemetry: Vec<TelemetrySnapshot>,
}

/// Complete `off` (the single unit's telemetry-off run and its fastest
/// seconds at reference speed, or `None` to run every unit's here) with
/// telemetry-on runs, checking each against the reference: same digest,
/// and the same simulated cycle with telemetry on as off. Runs made
/// here are timed `reps` times per unit at reference speed, keeping
/// the fastest.
pub fn unit_runs(
    setup: &Setup,
    off: Option<(RunReport, f64)>,
    reps: usize,
    cal: &mut Calibrator,
    out: &mut Outcome,
) -> UnitRuns {
    let mut runs = UnitRuns {
        off: Vec::new(),
        off_s: Vec::new(),
        on: Vec::new(),
        on_s: Vec::new(),
        on_telemetry: Vec::new(),
    };
    let mut given = off;
    for (unit, reference) in setup.units.iter().zip(&setup.references) {
        let (off, off_s) = match given.take() {
            Some(o) => o,
            None => {
                let mut times = Vec::new();
                let mut report = None;
                for _ in 0..reps.max(1) {
                    let (r, s) = cal.run(|| timed_run("core", unit, unit.monitored.clone()));
                    times.push(s);
                    report.get_or_insert(checked(r, unit, reference, "monitored", out));
                }
                let report = report.expect("at least one telemetry-off run");
                (report, fastest(&times))
            }
        };
        let mut on_times = Vec::new();
        let mut on_report = None;
        for _ in 0..reps.max(1) {
            let (cfg, telemetry) = unit.with_telemetry();
            let (r, s) = cal.run(|| timed_run("telemetry", unit, cfg));
            on_times.push(s);
            let r = checked(r, unit, reference, "telemetry-on", out);
            out.check(r.cycles == off.cycles, || {
                format!(
                    "telemetry perturbed {}: {} cycles on vs {} off",
                    unit.label, r.cycles, off.cycles
                )
            });
            if on_report.is_none() {
                runs.on_telemetry.push(telemetry.snapshot(r.cycles));
                on_report = Some(r);
            }
        }
        runs.off.push(off);
        runs.off_s.push(off_s);
        runs.on
            .push(on_report.expect("at least one telemetry-on run"));
        runs.on_s.push(fastest(&on_times));
    }
    runs
}

/// The smallest of `xs`: host contention only ever adds time to a run
/// whose work is fixed.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The simulated-clock end-to-end metrics, summed over the workload's
/// programs: monitored Mcycles, monitored cycles as a percentage of the
/// unmonitored reference, and monitoring cycles (sampling microcode
/// plus poll/drain) as a percentage of the reference.
pub fn sim_metrics(setup: &Setup, runs: &UnitRuns, out: &mut Outcome) {
    let cycles: u64 = runs.off.iter().map(|r| r.cycles).sum();
    let reference: u64 = setup.references.iter().map(|r| r.cycles).sum();
    let monitor: u64 = runs.off.iter().map(|r| r.vm.monitor_cycles).sum();
    out.put("sim_mcycles", cycles as f64 / 1e6, "Mcycles");
    out.put(
        "opt_cycles_pct",
        cycles as f64 / reference as f64 * 100.0,
        "%",
    );
    out.put(
        "monitor_overhead_pct",
        monitor as f64 / reference as f64 * 100.0,
        "%",
    );
}

/// Unwrap a monitored run, counting it and checking its digest against
/// the reference; a failed run is replaced by the reference so that
/// the remaining checks still run.
pub fn checked(
    r: Result<RunReport, hpmopt_vm::VmError>,
    unit: &Unit,
    reference: &RunReport,
    what: &str,
    out: &mut Outcome,
) -> RunReport {
    match r {
        Ok(r) => {
            out.check(r.result_digest == reference.result_digest, || {
                format!(
                    "{what} run of {} digest {:#x} != reference {:#x}",
                    unit.label, r.result_digest, reference.result_digest
                )
            });
            r
        }
        Err(e) => {
            out.check(false, || {
                format!("{what} run of {} failed: {e}", unit.label)
            });
            reference.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_metrics_and_counts_repeat_exactly_at_one_seed() {
        let measure = || {
            let setup = set_up(Kind::JythonTiered, 5);
            let mut out = Outcome::default();
            let runs = unit_runs(&setup, None, 1, &mut Calibrator::new(), &mut out);
            assert!(out.correct(), "every check passes");
            let mut metrics = Outcome::default();
            sim_metrics(&setup, &runs, &mut metrics);
            crate::layers::report_counters(&runs, &mut metrics);
            metrics.metrics
        };
        let (a, b) = (measure(), measure());
        assert!(a.len() > 20);
        assert_eq!(a, b);
    }
}
