//! Performance trajectory: fixed workload + stress-shard measurements,
//! a committable JSON baseline, and the regression gate behind
//! `hpmopt-bench --check`.
//!
//! The trajectory records, for a fixed set of workloads, the simulated
//! cycle cost of three arms — unmonitored baseline, monitored with
//! telemetry disabled, monitored with telemetry enabled — plus a pinned
//! *tiered* row ([`TIERED_WORKLOAD`] rerun with tier-2 region
//! compilation and a deliberately tiny code cache, so
//! compile/deopt/eviction churn is gated like any other cycle cost), a
//! pinned stress-seed shard whose per-seed cycle counts come straight
//! from the shard runner's summary data, and the serve open-loop row
//! ([`hpmopt_serve::openloop::trajectory_point`]). Simulated cycles are
//! deterministic, so the committed baseline (`BENCH_trajectory.json`)
//! only changes when the code's cost model actually changes; wall time
//! is recorded for context but never gated on.
//!
//! Two invariants are enforced at measurement time and again by
//! [`compare`]:
//!
//! 1. **Zero perturbation**: the telemetry-enabled and telemetry-off
//!    monitored runs must land on the same cycle, always.
//! 2. **No silent drift**: per-seed stress digests must match the
//!    baseline byte for byte; a digest change is a behavior change and
//!    requires a deliberate `--update`.

use std::time::Instant;

use hpmopt_core::runtime::{RunConfig, RunReport};
use hpmopt_gc::{CollectorKind, HeapConfig};
use hpmopt_hpm::SamplingInterval;
use hpmopt_serve::openloop::{self, ServePoint};
use hpmopt_stress::{run_shards, RunnerConfig};
use hpmopt_telemetry::json::JsonWriter;
use hpmopt_telemetry::read::{self, Value};
use hpmopt_telemetry::{Telemetry, DEFAULT_TRACE_CAPACITY};
use hpmopt_workloads::setup::{auto_interval, heap_config, run, run_config, tiered};
use hpmopt_workloads::{by_name, Size, Workload};

/// The fixed workload set a default trajectory measures.
pub const DEFAULT_WORKLOADS: [&str; 3] = ["db", "fop", "jess"];

/// Seeds in the pinned stress shard of a default trajectory.
pub const DEFAULT_STRESS_SEEDS: u64 = 6;

/// The workload behind the pinned tiered-churn row. `jython`
/// specifically: at ~4.5 KB of baseline code over eleven methods it is
/// the only tiny workload whose working set genuinely fights for a
/// sub-footprint cache — three-method workloads reuse their own freed
/// ranges and never evict a neighbour.
pub const TIERED_WORKLOAD: &str = "jython";

/// One workload's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPoint {
    /// Workload name (`hpmopt_workloads::by_name`).
    pub name: String,
    /// Workload size the run used.
    pub size: String,
    /// Simulated cycles of the monitored, telemetry-enabled run — the
    /// gated quantity.
    pub cycles: u64,
    /// Simulated cycles of the unmonitored baseline run.
    pub baseline_cycles: u64,
    /// Bytecodes the monitored run executed.
    pub bytecodes: u64,
    /// Bytecodes per simulated kilocycle of the monitored run.
    pub throughput_bc_per_kcycle: f64,
    /// Cycles the hooks charged for monitoring work, as a percentage of
    /// the unmonitored baseline. Computed from the VM's own
    /// `monitor_cycles` counter, so it is non-negative by construction —
    /// co-allocation savings land in
    /// [`WorkloadPoint::optimization_delta_pct`] instead of silently
    /// offsetting this figure.
    pub monitoring_overhead_pct: f64,
    /// Net monitored-minus-baseline cycle delta relative to the
    /// baseline, in percent: monitoring overhead and optimization wins
    /// combined (negative when co-allocation wins back more than
    /// monitoring costs).
    pub optimization_delta_pct: f64,
    /// Cycle delta between the telemetry-enabled and telemetry-off
    /// monitored runs, in percent. Must be exactly zero.
    pub perturbation_delta_pct: f64,
    /// L1 demand misses of the monitored run.
    pub l1_misses: u64,
    /// Wall-clock milliseconds of the telemetry-enabled run.
    /// Informational only: never fingerprinted, never gated.
    pub wall_ms: u64,
}

/// One stress seed's measurement, lifted from the shard runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StressPoint {
    /// Scenario seed.
    pub seed: u64,
    /// Arm-A (interpreter, unmonitored) simulated cycles.
    pub cycles: u64,
    /// Arm-D (monitored, co-allocating) simulated cycles — the gated
    /// quantity.
    pub monitored_cycles: u64,
    /// Arm-A state digest; any change is a behavior change.
    pub digest: u64,
}

/// A full trajectory: the committable measurement set.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Per-workload points, in measurement order.
    pub workloads: Vec<WorkloadPoint>,
    /// Per-seed stress points, in seed order.
    pub stress: Vec<StressPoint>,
    /// Open-loop serve-bench rows ([`openloop::trajectory_point`]);
    /// empty when [`measure`] ran without the serve row.
    pub serve: Vec<ServePoint>,
}

fn delta_pct(current: u64, reference: u64) -> f64 {
    if reference == 0 {
        return 0.0;
    }
    (current as f64 - reference as f64) / reference as f64 * 100.0
}

/// The body every workload row shares: the unmonitored baseline run,
/// then two runs of the same monitored configuration `monitored(heap)`,
/// telemetry off and on, recorded as row `row`. Returns the point with
/// the baseline and telemetry-enabled reports, for rows that assert more.
///
/// # Panics
///
/// Panics on unknown workload names and when the telemetry-enabled run
/// lands on a different cycle than the telemetry-off control — that is
/// the zero-perturbation invariant failing, which must never reach a
/// baseline file.
fn measure_row(
    name: &str,
    size: Size,
    row: String,
    monitored: impl Fn(&Workload, HeapConfig) -> RunConfig,
) -> (WorkloadPoint, RunReport, RunReport) {
    let w = by_name(name, size).unwrap_or_else(|| panic!("unknown workload `{name}`"));
    let heap = heap_config(&w, 2, 1, CollectorKind::GenMs);

    let baseline = run(
        &w,
        run_config(&w, size, heap.clone(), SamplingInterval::Off, false),
    );
    let control = run(&w, monitored(&w, heap.clone()));
    let mut enabled_cfg = monitored(&w, heap);
    enabled_cfg.telemetry = Telemetry::enabled(DEFAULT_TRACE_CAPACITY);
    let started = Instant::now();
    let enabled = run(&w, enabled_cfg);
    let wall_ms = started.elapsed().as_millis() as u64;

    let perturbation = delta_pct(enabled.cycles, control.cycles);
    assert!(
        perturbation == 0.0,
        "telemetry perturbed {row}: {} cycles enabled vs {} disabled",
        enabled.cycles,
        control.cycles
    );
    let point = WorkloadPoint {
        name: row,
        size: size.to_string(),
        cycles: enabled.cycles,
        baseline_cycles: baseline.cycles,
        bytecodes: enabled.vm.bytecodes_executed,
        throughput_bc_per_kcycle: enabled.vm.bytecodes_executed as f64 * 1000.0
            / enabled.cycles as f64,
        monitoring_overhead_pct: if baseline.cycles == 0 {
            0.0
        } else {
            enabled.vm.monitor_cycles as f64 / baseline.cycles as f64 * 100.0
        },
        optimization_delta_pct: delta_pct(enabled.cycles, baseline.cycles),
        perturbation_delta_pct: perturbation,
        l1_misses: enabled.vm.mem.l1_misses,
        wall_ms,
    };
    (point, baseline, enabled)
}

/// Measure one workload at `size`: unmonitored baseline, then the two
/// monitored arms (telemetry off, telemetry on).
///
/// # Panics
///
/// Panics on unknown workload names and on telemetry perturbation.
#[must_use]
pub fn measure_workload(name: &str, size: Size) -> WorkloadPoint {
    measure_row(name, size, name.to_string(), |w, heap| {
        run_config(w, size, heap, auto_interval(), true)
    })
    .0
}

/// Measure the tiered-churn arm of one workload: no pre-generated plan —
/// timer-driven tier-1 promotion, back-edge-driven tier-2 region
/// compilation, and a code cache far smaller than the workload's code
/// footprint, so eviction and address-range reuse run continuously under
/// monitoring. The point is recorded as `<name>+tiered` so it gates
/// independently of the pseudo-adaptive row.
///
/// # Panics
///
/// Panics on unknown workload names, on telemetry perturbation, when
/// tier churn changes the program-visible end state (digest mismatch
/// against the unmonitored baseline), and when the tiny cache fails to
/// evict (the row would silently stop measuring churn).
#[must_use]
pub fn measure_workload_tiered(name: &str, size: Size) -> WorkloadPoint {
    let (point, baseline, enabled) =
        measure_row(name, size, format!("{name}+tiered"), |w, heap| {
            let mut cfg = run_config(w, size, heap, auto_interval(), true);
            tiered(&mut cfg.vm);
            cfg
        });
    assert_eq!(
        enabled.result_digest, baseline.result_digest,
        "tier churn changed {name}'s program-visible state"
    );
    assert!(
        enabled.vm.code_evictions > 0,
        "tiered {name}: the tiny code cache produced no evictions"
    );
    point
}

/// Measure a full trajectory: every named workload at `size`, the
/// pinned [`TIERED_WORKLOAD`] tiered-churn row, the pinned stress shard
/// `0..seeds`, and, when `serve` is set, the serve open-loop row
/// ([`openloop::trajectory_point`]).
///
/// # Panics
///
/// Panics when a stress seed fails its oracles — a failing seed has no
/// meaningful cost to record, and the stress suite (not the perf gate)
/// is the place to debug it.
#[must_use]
pub fn measure(workloads: &[String], size: Size, seeds: u64, serve: bool) -> Trajectory {
    let mut points: Vec<WorkloadPoint> = workloads
        .iter()
        .map(|name| measure_workload(name, size))
        .collect();
    points.push(measure_workload_tiered(TIERED_WORKLOAD, size));
    let shard = run_shards(&RunnerConfig {
        start_seed: 0,
        seeds,
        workers: 1,
        time_budget: None,
        fault_skip_zeroing: false,
    });
    let stress = shard
        .outcomes
        .iter()
        .map(|o| {
            assert!(
                o.pass,
                "stress seed {} failed its oracles: {:?}",
                o.scenario.seed, o.failures
            );
            StressPoint {
                seed: o.scenario.seed,
                cycles: o.cycles,
                monitored_cycles: o.monitored_cycles,
                digest: o.digest,
            }
        })
        .collect();
    Trajectory {
        workloads: points,
        stress,
        serve: if serve {
            vec![openloop::trajectory_point()]
        } else {
            Vec::new()
        },
    }
}

impl Trajectory {
    /// Serialize to the committed-baseline JSON format. Deterministic
    /// except for the explicitly informational `wall_ms` fields.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("version", 3);
        w.key("workloads").array_value();
        for p in &self.workloads {
            w.begin_object();
            w.field_str("workload", &p.name);
            w.field_str("size", &p.size);
            w.field_u64("cycles", p.cycles);
            w.field_u64("baseline_cycles", p.baseline_cycles);
            w.field_u64("bytecodes", p.bytecodes);
            w.field_f64("throughput_bc_per_kcycle", p.throughput_bc_per_kcycle);
            w.field_f64("monitoring_overhead_pct", p.monitoring_overhead_pct);
            w.field_f64("optimization_delta_pct", p.optimization_delta_pct);
            w.field_f64("perturbation_delta_pct", p.perturbation_delta_pct);
            w.field_u64("l1_misses", p.l1_misses);
            w.field_u64("wall_ms", p.wall_ms);
            w.end_object();
        }
        w.end_array();
        w.key("stress").array_value();
        for p in &self.stress {
            w.begin_object();
            w.field_u64("seed", p.seed);
            w.field_u64("cycles", p.cycles);
            w.field_u64("monitored_cycles", p.monitored_cycles);
            // Digests use the full u64 range; a JSON number would round
            // through f64, so they travel as hex strings.
            w.field_str("digest", &format!("{:#018x}", p.digest));
            w.end_object();
        }
        w.end_array();
        w.key("serve").array_value();
        for p in &self.serve {
            w.begin_object();
            w.field_str("name", &p.name);
            w.field_u64("jobs", p.jobs);
            w.field_u64("qps", p.qps);
            w.field_f64("throughput_1w_jobs_per_sec", p.throughput_1w_jobs_per_sec);
            w.field_f64("throughput_4w_jobs_per_sec", p.throughput_4w_jobs_per_sec);
            w.field_u64("p50_queue_wait_cycles", p.p50_queue_wait_cycles);
            w.field_u64("p95_queue_wait_cycles", p.p95_queue_wait_cycles);
            w.field_u64("p99_queue_wait_cycles", p.p99_queue_wait_cycles);
            w.field_u64("p99_service_cycles", p.p99_service_cycles);
            w.field_u64("repo_evictions", p.repo_evictions);
            w.field_u64("perturbation_deltas", p.perturbation_deltas);
            w.field_u64("wall_ms", p.wall_ms);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let mut out = w.finish();
        out.push('\n');
        out
    }

    /// Parse a baseline produced by [`Trajectory::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed construct (parse errors
    /// carry a byte offset; structural errors name the field).
    pub fn parse(input: &str) -> Result<Trajectory, String> {
        let doc = read::parse(input)?;
        let version = u64_field(&doc, "version")?;
        if version != 3 {
            return Err(format!("unsupported trajectory version {version}"));
        }
        let mut workloads = Vec::new();
        for p in array_field(&doc, "workloads")? {
            workloads.push(WorkloadPoint {
                name: str_field(p, "workload")?.to_string(),
                size: str_field(p, "size")?.to_string(),
                cycles: u64_field(p, "cycles")?,
                baseline_cycles: u64_field(p, "baseline_cycles")?,
                bytecodes: u64_field(p, "bytecodes")?,
                throughput_bc_per_kcycle: f64_field(p, "throughput_bc_per_kcycle")?,
                monitoring_overhead_pct: f64_field(p, "monitoring_overhead_pct")?,
                optimization_delta_pct: f64_field(p, "optimization_delta_pct")?,
                perturbation_delta_pct: f64_field(p, "perturbation_delta_pct")?,
                l1_misses: u64_field(p, "l1_misses")?,
                wall_ms: u64_field(p, "wall_ms")?,
            });
        }
        let mut stress = Vec::new();
        for p in array_field(&doc, "stress")? {
            let hex = str_field(p, "digest")?;
            let digit = hex
                .strip_prefix("0x")
                .ok_or_else(|| format!("digest {hex:?} is not 0x-prefixed"))?;
            stress.push(StressPoint {
                seed: u64_field(p, "seed")?,
                cycles: u64_field(p, "cycles")?,
                monitored_cycles: u64_field(p, "monitored_cycles")?,
                digest: u64::from_str_radix(digit, 16)
                    .map_err(|e| format!("bad digest {hex:?}: {e}"))?,
            });
        }
        let mut serve = Vec::new();
        for p in array_field(&doc, "serve")? {
            serve.push(ServePoint {
                name: str_field(p, "name")?.to_string(),
                jobs: u64_field(p, "jobs")?,
                qps: u64_field(p, "qps")?,
                throughput_1w_jobs_per_sec: f64_field(p, "throughput_1w_jobs_per_sec")?,
                throughput_4w_jobs_per_sec: f64_field(p, "throughput_4w_jobs_per_sec")?,
                p50_queue_wait_cycles: u64_field(p, "p50_queue_wait_cycles")?,
                p95_queue_wait_cycles: u64_field(p, "p95_queue_wait_cycles")?,
                p99_queue_wait_cycles: u64_field(p, "p99_queue_wait_cycles")?,
                p99_service_cycles: u64_field(p, "p99_service_cycles")?,
                repo_evictions: u64_field(p, "repo_evictions")?,
                perturbation_deltas: u64_field(p, "perturbation_deltas")?,
                wall_ms: u64_field(p, "wall_ms")?,
            });
        }
        Ok(Trajectory {
            workloads,
            stress,
            serve,
        })
    }
}

fn need<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.try_get(key)
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn wrong_type(key: &str, expected: &str, got: &Value) -> String {
    format!("field {key:?}: expected {expected}, got {got:?}")
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    match need(v, key)? {
        Value::Number(n) => Ok(*n),
        other => Err(wrong_type(key, "number", other)),
    }
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    f64_field(v, key).map(|n| n as u64)
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    match need(v, key)? {
        Value::Str(s) => Ok(s),
        other => Err(wrong_type(key, "string", other)),
    }
}

fn array_field<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match need(v, key)? {
        Value::Array(items) => Ok(items),
        other => Err(wrong_type(key, "array", other)),
    }
}

/// Gate `current` against a committed `baseline`: returns one line per
/// violation (empty means the gate passes).
///
/// Cycle counts may regress up to `threshold_pct` percent before the
/// gate trips (improvements never trip it — commit a new baseline with
/// `--update` to bank them). Perturbation and stress digests have no
/// tolerance at all.
#[must_use]
pub fn compare(current: &Trajectory, baseline: &Trajectory, threshold_pct: f64) -> Vec<String> {
    let mut violations = Vec::new();
    let limit = |base: u64| base as f64 * (1.0 + threshold_pct / 100.0);

    for b in &baseline.workloads {
        let Some(c) = current
            .workloads
            .iter()
            .find(|c| c.name == b.name && c.size == b.size)
        else {
            violations.push(format!("workload {} ({}) not measured", b.name, b.size));
            continue;
        };
        if (c.cycles as f64) > limit(b.cycles) {
            violations.push(format!(
                "workload {} ({}): {} cycles vs baseline {} (+{:.2}% > +{threshold_pct}%)",
                c.name,
                c.size,
                c.cycles,
                b.cycles,
                delta_pct(c.cycles, b.cycles)
            ));
        }
        if c.perturbation_delta_pct != 0.0 {
            violations.push(format!(
                "workload {} ({}): telemetry perturbation {}% (must be exactly 0)",
                c.name, c.size, c.perturbation_delta_pct
            ));
        }
    }
    for b in &baseline.stress {
        let Some(c) = current.stress.iter().find(|c| c.seed == b.seed) else {
            violations.push(format!("stress seed {} not measured", b.seed));
            continue;
        };
        if c.digest != b.digest {
            violations.push(format!(
                "stress seed {}: digest {:#018x} != baseline {:#018x} (behavior change; \
                 re-baseline deliberately with --update)",
                b.seed, c.digest, b.digest
            ));
        }
        if (c.monitored_cycles as f64) > limit(b.monitored_cycles) {
            violations.push(format!(
                "stress seed {}: {} monitored cycles vs baseline {} (+{:.2}% > +{threshold_pct}%)",
                b.seed,
                c.monitored_cycles,
                b.monitored_cycles,
                delta_pct(c.monitored_cycles, b.monitored_cycles)
            ));
        }
    }
    for b in &baseline.serve {
        let Some(c) = current.serve.iter().find(|c| c.name == b.name) else {
            violations.push(format!("serve row {} not measured", b.name));
            continue;
        };
        if c.perturbation_deltas != 0 {
            violations.push(format!(
                "serve row {}: {} perturbation delta(s) (must be exactly 0)",
                c.name, c.perturbation_deltas
            ));
        }
        if c.repo_evictions != b.repo_evictions {
            violations.push(format!(
                "serve row {}: {} repo eviction(s) != baseline {} (behavior change; \
                 re-baseline deliberately with --update)",
                c.name, c.repo_evictions, b.repo_evictions
            ));
        }
        if (c.p99_queue_wait_cycles as f64) > limit(b.p99_queue_wait_cycles) {
            violations.push(format!(
                "serve row {}: p99 queue wait {} cycles vs baseline {} (+{:.2}% > +{threshold_pct}%)",
                c.name,
                c.p99_queue_wait_cycles,
                b.p99_queue_wait_cycles,
                delta_pct(c.p99_queue_wait_cycles, b.p99_queue_wait_cycles)
            ));
        }
        if c.throughput_4w_jobs_per_sec <= c.throughput_1w_jobs_per_sec {
            violations.push(format!(
                "serve row {}: 4-worker throughput {:.2} jobs/s not above 1-worker {:.2} \
                 (scaling regressed)",
                c.name, c.throughput_4w_jobs_per_sec, c.throughput_1w_jobs_per_sec
            ));
        }
        let floor = b.throughput_4w_jobs_per_sec * (1.0 - threshold_pct / 100.0);
        if c.throughput_4w_jobs_per_sec < floor {
            violations.push(format!(
                "serve row {}: 4-worker throughput {:.2} jobs/s vs baseline {:.2} \
                 ({:.2}% drop > {threshold_pct}%)",
                c.name,
                c.throughput_4w_jobs_per_sec,
                b.throughput_4w_jobs_per_sec,
                (b.throughput_4w_jobs_per_sec - c.throughput_4w_jobs_per_sec)
                    / b.throughput_4w_jobs_per_sec
                    * 100.0
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(name: &str, cycles: u64) -> WorkloadPoint {
        WorkloadPoint {
            name: name.to_string(),
            size: "tiny".to_string(),
            cycles,
            baseline_cycles: cycles - cycles / 10,
            bytecodes: 1000,
            throughput_bc_per_kcycle: 1000.0 * 1000.0 / cycles as f64,
            monitoring_overhead_pct: 11.1,
            optimization_delta_pct: -2.5,
            perturbation_delta_pct: 0.0,
            l1_misses: 42,
            wall_ms: 7,
        }
    }

    fn stress_point(seed: u64, monitored: u64) -> StressPoint {
        StressPoint {
            seed,
            cycles: monitored - 1,
            monitored_cycles: monitored,
            digest: 0xdead_beef_0000_0000 | seed,
        }
    }

    fn serve_point() -> ServePoint {
        ServePoint {
            name: "openloop".to_string(),
            jobs: 16,
            qps: 100,
            throughput_1w_jobs_per_sec: 10.0,
            throughput_4w_jobs_per_sec: 35.0,
            p50_queue_wait_cycles: 1_000,
            p95_queue_wait_cycles: 5_000,
            p99_queue_wait_cycles: 10_000,
            p99_service_cycles: 2_000_000,
            repo_evictions: 7,
            perturbation_deltas: 0,
            wall_ms: 9,
        }
    }

    fn sample() -> Trajectory {
        Trajectory {
            workloads: vec![point("db", 1_000_000), point("fop", 2_000_000)],
            stress: vec![stress_point(0, 500_000), stress_point(1, 600_000)],
            serve: vec![serve_point()],
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let t = sample();
        let json = t.to_json();
        let back = Trajectory::parse(&json).expect("parses");
        assert_eq!(back, t);
        assert_eq!(back.to_json(), json, "serialization is idempotent");
    }

    #[test]
    fn identical_trajectories_pass_the_gate() {
        let t = sample();
        assert!(compare(&t, &t, 0.0).is_empty());
    }

    #[test]
    fn cycle_regressions_trip_beyond_the_threshold() {
        let base = sample();
        let mut cur = sample();
        cur.workloads[0].cycles = 1_040_000; // +4%
        assert!(compare(&cur, &base, 5.0).is_empty(), "within threshold");
        cur.workloads[0].cycles = 1_060_000; // +6%
        let v = compare(&cur, &base, 5.0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("workload db"));
        // Improvements never trip.
        cur.workloads[0].cycles = 500_000;
        assert!(compare(&cur, &base, 5.0).is_empty());
    }

    #[test]
    fn stress_digest_and_cycle_drift_are_caught() {
        let base = sample();
        let mut cur = sample();
        cur.stress[1].digest ^= 1;
        cur.stress[0].monitored_cycles *= 2;
        let v = compare(&cur, &base, 5.0);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|l| l.contains("digest")));
        assert!(v.iter().any(|l| l.contains("monitored cycles")));
    }

    #[test]
    fn perturbation_and_missing_points_are_violations() {
        let base = sample();
        let mut cur = sample();
        cur.workloads[1].perturbation_delta_pct = 0.5;
        cur.stress.pop();
        cur.workloads.remove(0);
        let v = compare(&cur, &base, 100.0);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().any(|l| l.contains("not measured")));
        assert!(v.iter().any(|l| l.contains("perturbation")));
    }

    #[test]
    fn malformed_baselines_report_the_field() {
        assert!(Trajectory::parse("{").is_err());
        assert!(Trajectory::parse("{}").unwrap_err().contains("version"));
        let err =
            Trajectory::parse(r#"{"version": 2, "workloads": [], "stress": []}"#).unwrap_err();
        assert!(err.contains("version 2"), "pre-serve baselines are stale");
        let err = Trajectory::parse(
            r#"{"version": 3, "workloads": [], "stress": [{"seed": 0, "cycles": 1, "monitored_cycles": 1, "digest": "nope"}], "serve": []}"#,
        )
        .unwrap_err();
        assert!(err.contains("digest"));
        let err =
            Trajectory::parse(r#"{"version": 3, "workloads": [], "stress": []}"#).unwrap_err();
        assert!(err.contains("serve"), "the serve array is required");
    }

    #[test]
    fn wrong_typed_fields_are_errors_naming_the_field() {
        let json = sample().to_json();
        for (field, from, to) in [
            ("version", r#""version": 3"#, r#""version": "3""#),
            ("cycles", r#""cycles": 1000000"#, r#""cycles": "1000000""#),
            (
                "digest",
                r#""digest": "0xdeadbeef00000000""#,
                r#""digest": 7"#,
            ),
            (
                "workloads",
                r#""workloads": ["#,
                r#""workloads": 1, "rows": ["#,
            ),
        ] {
            assert!(json.contains(from), "{from} is not in the sample");
            let err = Trajectory::parse(&json.replacen(from, to, 1)).expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn serve_row_regressions_are_caught() {
        let base = sample();

        let mut cur = sample();
        cur.serve[0].perturbation_deltas = 1;
        cur.serve[0].repo_evictions += 1;
        cur.serve[0].p99_queue_wait_cycles = 12_000; // +20%
        let v = compare(&cur, &base, 5.0);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().any(|l| l.contains("perturbation")));
        assert!(v.iter().any(|l| l.contains("eviction")));
        assert!(v.iter().any(|l| l.contains("p99 queue wait")));

        // Scaling inversion: 4 workers no faster than 1.
        let mut cur = sample();
        cur.serve[0].throughput_4w_jobs_per_sec = cur.serve[0].throughput_1w_jobs_per_sec;
        let v = compare(&cur, &base, 50.0);
        assert!(v.iter().any(|l| l.contains("scaling regressed")), "{v:?}");

        // Throughput floor vs baseline.
        let mut cur = sample();
        cur.serve[0].throughput_4w_jobs_per_sec = 30.0; // -14% vs 35
        assert!(!compare(&cur, &base, 5.0).is_empty());
        assert!(compare(&cur, &base, 20.0).is_empty(), "within threshold");

        // Missing row.
        let mut cur = sample();
        cur.serve.clear();
        let v = compare(&cur, &base, 5.0);
        assert!(v.iter().any(|l| l.contains("not measured")), "{v:?}");
    }

    #[test]
    fn measured_trajectory_is_deterministic_and_gate_clean() {
        let names = vec!["fop".to_string()];
        let a = measure(&names, Size::Tiny, 2, false);
        let b = measure(&names, Size::Tiny, 2, false);
        assert_eq!(a.workloads[0].cycles, b.workloads[0].cycles);
        assert_eq!(a.workloads[1].name, "jython+tiered");
        assert_eq!(a.workloads[1].cycles, b.workloads[1].cycles);
        assert_eq!(a.workloads[1].perturbation_delta_pct, 0.0);
        assert_eq!(a.workloads[0].perturbation_delta_pct, 0.0);
        assert!(
            a.workloads[0].monitoring_overhead_pct >= 0.0,
            "monitoring overhead is non-negative by construction: {}",
            a.workloads[0].monitoring_overhead_pct
        );
        assert_eq!(a.stress, b.stress);
        assert!(a.stress.iter().all(|p| p.monitored_cycles > 0));
        assert!(compare(&a, &b, 0.0).is_empty());
    }
}
