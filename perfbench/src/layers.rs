//! Per-layer metrics of a traced run: counters the public reports
//! already carry, host timers around single layer operations (each a
//! warm-up plus the median of several samples), and span self times.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
use hpmopt_bytecode::{FieldType, MethodId, Program};
use hpmopt_core::monitor::AttributionStats;
use hpmopt_core::SampleResolver;
use hpmopt_gc::policy::NoCoalloc;
use hpmopt_gc::{Heap, HeapConfig};
use hpmopt_hpm::SamplingInterval;
use hpmopt_memsim::{AccessKind, BatchAccess, MemoryHierarchy};
use hpmopt_profile::{Profile, SharedProfileRepo};
use hpmopt_serve::scheduler::{DrrQueue, SchedulerConfig, ShardedScheduler};
use hpmopt_serve::service::{Service, ServiceConfig};
use hpmopt_serve::JobReport;
use hpmopt_telemetry::{MetricId, Telemetry, DEFAULT_TRACE_CAPACITY};
use hpmopt_vm::{compile, AccessContext, NoHooks, RuntimeHooks, Tier, Vm, MACH_INSTR_BYTES};

use crate::output::Outcome;
use crate::serve_mix::{check_job, ServeWindow, DECK, DECK_LEN, TENANTS};
use crate::stats::{median, percentile, time_per_call};
use crate::trace::{span, Tracer, LAYERS, TRACER};
use crate::units::{nproc, repo_config, start_service, timed_run, Setup, UnitRuns};

/// Accesses recorded per workload for the memsim replay.
const RECORDED_ACCESSES: usize = 1 << 19;

/// Simulated cycles the address-stream recorder runs for per program.
const RECORD_CYCLES: u64 = 40_000_000;

/// What the measuring window contributes to per-layer metrics.
pub enum WindowFacts<'w> {
    /// db-coalloc and jython-tiered: median host seconds of one run.
    Single { host_run_s: f64 },
    /// serve-mix: the two phases.
    Serve(&'w ServeWindow),
}

/// Put every per-layer metric into `out`.
pub fn collect(
    setup: &Setup,
    runs: &UnitRuns,
    window: WindowFacts<'_>,
    started: Instant,
    out: &mut Outcome,
) {
    out.put("workloads.build_s", setup.build_s, "s");
    out.put("jit.plan_s", setup.plan_s, "s");
    report_counters(runs, out);
    vm(setup, runs, &window, out);
    memsim(setup, out);
    gc(out);
    hpm(setup, out);
    core(setup, out);
    telemetry(runs, &window, out);
    profile(setup, runs, &window, out);
    serve(setup, &window, out);
    trace(started, out);
}

fn sum(xs: impl Iterator<Item = u64>) -> f64 {
    xs.sum::<u64>() as f64
}

fn mcycles(xs: impl Iterator<Item = u64>) -> f64 {
    sum(xs) / 1e6
}

/// Median host seconds of `reps` runs of `f`.
fn median_s(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<_>>())
}

/// The counters the public reports carry, summed over the workload's
/// programs: simulated-cycle buckets and event counts of the
/// telemetry-off monitored runs, and the compile counts their
/// telemetry-on twins recorded. Deterministic at a given seed.
pub fn report_counters(runs: &UnitRuns, out: &mut Outcome) {
    let off = || runs.off.iter();
    let counter = |id: MetricId| sum(runs.on_telemetry.iter().map(|t| t.get(id)));
    out.put(
        "vm.mutator_mcycles",
        mcycles(off().map(|r| r.cycle_buckets().mutator)),
        "Mcycles",
    );
    out.put(
        "vm.bytecodes",
        sum(off().map(|r| r.vm.bytecodes_executed)),
        "count",
    );
    out.put(
        "memsim.l1_misses",
        sum(off().map(|r| r.vm.mem.l1_misses)),
        "count",
    );
    out.put(
        "memsim.l2_misses",
        sum(off().map(|r| r.vm.mem.l2_misses)),
        "count",
    );
    out.put(
        "memsim.dtlb_misses",
        sum(off().map(|r| r.vm.mem.dtlb_misses)),
        "count",
    );
    out.put(
        "gc.minor",
        sum(off().map(|r| r.gc().minor_collections)),
        "count",
    );
    out.put(
        "gc.major",
        sum(off().map(|r| r.gc().major_collections)),
        "count",
    );
    out.put(
        "gc.mcycles",
        mcycles(off().map(|r| r.cycle_buckets().gc)),
        "Mcycles",
    );
    out.put(
        "gc.coallocated_bytes",
        sum(off().map(|r| r.gc().bytes_coallocated)),
        "bytes",
    );
    out.put(
        "jit.compiles_baseline",
        counter(MetricId::JitCompilesBaseline),
        "count",
    );
    out.put(
        "jit.compiles_opt",
        counter(MetricId::JitCompilesOpt),
        "count",
    );
    out.put(
        "jit.compiles_region",
        counter(MetricId::JitCompilesRegion),
        "count",
    );
    out.put("jit.deopts", sum(off().map(|r| r.vm.deopts)), "count");
    out.put(
        "jit.evictions",
        sum(off().map(|r| r.vm.code_evictions)),
        "count",
    );
    out.put(
        "jit.recompile_mcycles",
        mcycles(off().map(|r| r.cycle_buckets().recompilation)),
        "Mcycles",
    );
    out.put("hpm.samples", sum(off().map(|r| r.hpm.samples)), "count");
    out.put(
        "hpm.samples_dropped",
        sum(off().map(|r| r.hpm.dropped)),
        "count",
    );
    out.put("hpm.polls", sum(off().map(|r| r.hpm.polls)), "count");
    out.put(
        "hpm.sampling_mcycles",
        mcycles(off().map(|r| r.cycle_buckets().sampling_microcode)),
        "Mcycles",
    );
    let attr = |f: fn(&AttributionStats) -> u64| sum(off().map(|r| f(&r.attribution)));
    let attributed = attr(|a| a.attributed);
    let drained = attr(AttributionStats::total);
    out.put("core.attributed", attributed, "count");
    out.put("core.stale", attr(|a| a.stale), "count");
    out.put("core.unmapped", attr(|a| a.unmapped), "count");
    out.put("core.foreign", attr(|a| a.foreign), "count");
    out.put("core.drained", drained, "count");
    out.put(
        "core.attributed_ratio",
        attributed / drained.max(1.0),
        "ratio",
    );
    out.put(
        "core.poll_mcycles",
        mcycles(off().map(|r| r.cycle_buckets().poll_drain)),
        "Mcycles",
    );
    out.put(
        "core.decisions",
        sum(off().map(|r| r.decisions.len() as u64)),
        "count",
    );
    out.put(
        "core.reverts",
        sum(off().map(|r| r.revert_count() as u64)),
        "count",
    );
    let first = off().filter_map(|r| r.cycles_to_first_decision()).min();
    out.put(
        "core.first_decision_mcycles",
        first.map_or(-1.0, |c| c as f64 / 1e6),
        "Mcycles",
    );
}

fn vm(setup: &Setup, runs: &UnitRuns, window: &WindowFacts<'_>, out: &mut Outcome) {
    let nohooks_s: f64 = setup
        .units
        .iter()
        .map(|u| {
            median_s(2, || {
                let _s = span("vm");
                let t = Instant::now();
                let r = Vm::new(&u.workload.program, u.monitored.vm.clone()).run(&mut NoHooks);
                let s = t.elapsed().as_secs_f64();
                out.check(r.is_ok(), || format!("unhooked run of {} failed", u.label));
                s
            })
        })
        .sum();
    out.put("vm.nohooks_s", nohooks_s, "s");
    let host_s = match window {
        WindowFacts::Single { host_run_s } => *host_run_s,
        WindowFacts::Serve(_) => runs.off_s.iter().sum(),
    };
    let bytecodes = sum(runs.off.iter().map(|r| r.vm.bytecodes_executed));
    out.put(
        "vm.ns_per_bytecode",
        host_s * 1e9 / bytecodes.max(1.0),
        "ns",
    );
}

/// Records the data address of every heap access, up to a cap.
struct Recorder {
    addrs: Vec<u64>,
    cap: usize,
}

impl RuntimeHooks for Recorder {
    fn on_access(&mut self, ctx: &AccessContext) -> u64 {
        if self.addrs.len() < self.cap {
            self.addrs.push(ctx.addr.0);
        }
        0
    }
}

fn memsim(setup: &Setup, out: &mut Outcome) {
    // Capture the programs' address streams, then replay them through
    // a fresh hierarchy in block-sized batches.
    let cap = RECORDED_ACCESSES / setup.units.len();
    let mut stream = Vec::new();
    for u in &setup.units {
        let mut vm_cfg = u.monitored.vm.clone();
        vm_cfg.cycle_budget = Some(RECORD_CYCLES);
        let mut rec = Recorder {
            addrs: Vec::with_capacity(cap),
            cap,
        };
        // Stopping at the cycle budget is the expected way out.
        let _ = Vm::new(&u.workload.program, vm_cfg).run(&mut rec);
        stream.extend(rec.addrs.into_iter().map(|addr| BatchAccess {
            addr,
            size: 8,
            kind: AccessKind::Read,
        }));
    }
    let mem = &setup.units[0].monitored.vm.mem;
    let mut outcomes = Vec::with_capacity(64);
    let per_replay = time_per_call(1, 3, 1, || {
        let _s = span("memsim");
        let mut h = MemoryHierarchy::new(mem.clone());
        for block in stream.chunks(64) {
            outcomes.clear();
            h.access_batch(block, &mut outcomes);
        }
        black_box(&outcomes);
    });
    out.put(
        "memsim.access_ns",
        per_replay.as_secs_f64() * 1e9 / stream.len().max(1) as f64,
        "ns",
    );
}

/// A program declaring a two-field list node, for the allocation
/// micro-op.
fn node_program() -> Program {
    let mut pb = ProgramBuilder::new();
    pb.add_class("Node", &[("next", FieldType::Ref), ("v", FieldType::Int)]);
    let mut m = MethodBuilder::new("main", 0, 0, false);
    m.ret();
    let id = pb.add_method(m);
    pb.set_entry(id);
    pb.finish().expect("the micro-op program verifies")
}

fn gc(out: &mut Outcome) {
    // Nursery allocation with a minor collection whenever it fills.
    let program = node_program();
    let node = program.class_by_name("Node").expect("Node is declared");
    const ALLOCS: usize = 1000;
    let per_round = time_per_call(2, 7, 4, || {
        let _s = span("gc");
        let mut heap = Heap::new(&program, HeapConfig::small());
        let mut roots = Vec::new();
        for _ in 0..ALLOCS {
            match heap.alloc_object(node) {
                Ok(a) if roots.len() < 64 => roots.push(a),
                Ok(_) => {}
                Err(_) => heap
                    .collect_minor(&mut roots, &NoCoalloc)
                    .expect("a small nursery collects"),
            }
        }
        black_box(heap.stats());
    });
    out.put(
        "gc.alloc_collect_ns",
        per_round.as_secs_f64() * 1e9 / ALLOCS as f64,
        "ns",
    );
}

fn hpm(setup: &Setup, out: &mut Outcome) {
    // Host cost of monitoring alone: sampling on, co-allocation off,
    // against the same configuration with sampling off.
    let mut host_s = 0.0;
    for u in &setup.units {
        let pair = |sampling: SamplingInterval| {
            median_s(2, || timed_run("hpm", u, u.variant(sampling, false)).1)
        };
        host_s += pair(u.monitored.hpm.interval) - pair(SamplingInterval::Off);
    }
    out.put("hpm.host_s", host_s, "s");
}

fn core(setup: &Setup, out: &mut Outcome) {
    // PC resolution over every method of the programs compiled at the
    // opt tier with full maps, laid out back to back.
    let mut resolver = SampleResolver::new();
    let mut pcs = Vec::new();
    let mut start = 0x4000_0000u64;
    for u in &setup.units {
        let program = &u.workload.program;
        for m in 0..program.methods().len() {
            let code = compile(program, MethodId(m as u32), Tier::Opt, start, true);
            pcs.extend((start..code.code_end()).step_by(MACH_INSTR_BYTES as usize));
            start = code.code_end().next_multiple_of(64);
            resolver.register(code);
        }
    }
    let mut resolved = 0usize;
    let per_pass = time_per_call(2, 7, 1, || {
        let _s = span("core");
        resolved = pcs
            .iter()
            .filter(|&&pc| black_box(resolver.resolve(pc, 1)).is_ok())
            .count();
    });
    out.check(resolved == pcs.len(), || {
        format!(
            "{} of {} compiled PCs did not resolve",
            pcs.len() - resolved,
            pcs.len()
        )
    });
    out.put(
        "core.resolve_ns",
        per_pass.as_secs_f64() * 1e9 / pcs.len().max(1) as f64,
        "ns",
    );
}

fn telemetry(runs: &UnitRuns, window: &WindowFacts<'_>, out: &mut Outcome) {
    let off_s = match window {
        WindowFacts::Single { host_run_s } => *host_run_s,
        WindowFacts::Serve(_) => runs.off_s.iter().sum(),
    };
    let on_s: f64 = runs.on_s.iter().sum();
    out.put(
        "telemetry.host_overhead_pct",
        (on_s - off_s) / off_s * 100.0,
        "%",
    );
    let snapshot = &runs.on_telemetry[0];
    let fleet = Telemetry::enabled(DEFAULT_TRACE_CAPACITY);
    let per_absorb = time_per_call(10, 9, 50, || {
        let _s = span("telemetry");
        fleet.absorb(black_box(snapshot));
    });
    out.put("telemetry.absorb_us", per_absorb.as_secs_f64() * 1e6, "us");
}

fn profile(setup: &Setup, runs: &UnitRuns, window: &WindowFacts<'_>, out: &mut Outcome) {
    let fresh: Vec<&Profile> = runs
        .on
        .iter()
        .filter_map(|r| r.fresh_profile.as_ref())
        .collect();
    out.check(fresh.len() == runs.on.len(), || {
        "a run reported no fresh profile".to_string()
    });
    let (mut encode_s, mut decode_s) = (0.0, 0.0);
    for p in &fresh {
        let bytes = p.encode();
        encode_s += time_per_call(10, 9, 20, || {
            let _s = span("profile");
            black_box(p.encode());
        })
        .as_secs_f64();
        decode_s += time_per_call(10, 9, 20, || {
            let _s = span("profile");
            black_box(Profile::decode(&bytes).expect("an encoded profile decodes"));
        })
        .as_secs_f64();
    }
    out.put("profile.encode_us", encode_s * 1e6, "us");
    out.put("profile.decode_us", decode_s * 1e6, "us");

    // Replay the workload's checkout/merge sequence against a fresh
    // repository bounded like the service's.
    let sequence: Vec<usize> = match window {
        WindowFacts::Serve(w) => w
            .open_jobs
            .iter()
            .filter_map(|j| {
                setup
                    .units
                    .iter()
                    .position(|u| u.job.workload == j.workload)
            })
            .collect(),
        WindowFacts::Single { .. } => vec![0; DECK_LEN * 4],
    };
    let repo = SharedProfileRepo::with_config(repo_config());
    let (mut checkout_s, mut merge_s) = (Vec::new(), Vec::new());
    for &i in &sequence {
        let Some(p) = fresh.get(i) else { continue };
        let _s = span("profile");
        let t = Instant::now();
        black_box(repo.checkout(&p.fingerprint));
        checkout_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        repo.merge(p, ServiceConfig::default().decay);
        merge_s.push(t.elapsed().as_secs_f64());
    }
    out.put("profile.checkout_us", median(&checkout_s) * 1e6, "us");
    out.put("profile.merge_us", median(&merge_s) * 1e6, "us");
    let stats = match setup.service.as_ref() {
        Some(s) => s.repo().stats(),
        None => repo.stats(),
    };
    out.put(
        "profile.warm_ratio",
        stats.warm_checkouts as f64 / stats.checkouts.max(1) as f64,
        "ratio",
    );
    out.put("profile.repo_evictions", stats.evictions as f64, "count");
}

/// Median submit→wait latency (ms) of each unit's job on an idle
/// service, checking each job; also the host seconds of each submit.
fn idle_latencies(
    setup: &Setup,
    service: &Service,
    out: &mut Outcome,
) -> (BTreeMap<String, f64>, Vec<f64>) {
    let mut submit_s = Vec::new();
    let idle = setup
        .units
        .iter()
        .map(|u| {
            let ms = median_s(2, || {
                let _s = span("serve");
                let t = Instant::now();
                let id = service.submit(u.job.clone());
                submit_s.push(t.elapsed().as_secs_f64());
                let report: Option<JobReport> = id.ok().map(|id| service.wait(id));
                let s = t.elapsed().as_secs_f64();
                match report {
                    Some(r) => check_job(setup, &r, out),
                    None => out.check(false, || format!("idle job of {} refused", u.label)),
                }
                s
            }) * 1e3;
            (u.job.workload.clone(), ms)
        })
        .collect();
    (idle, submit_s)
}

fn serve(setup: &Setup, window: &WindowFacts<'_>, out: &mut Outcome) {
    let own_service;
    let service = match &setup.service {
        Some(s) => s,
        None => {
            own_service = start_service();
            &own_service
        }
    };
    let (idle, idle_submit_s) = idle_latencies(setup, service, out);
    let snapshot = service.snapshot();
    match window {
        WindowFacts::Serve(w) => {
            let weight = |name: &str| DECK.iter().find(|d| d.0 == name).map_or(0, |d| d.1) as f64;
            let idle_mean =
                idle.iter().map(|(n, ms)| ms * weight(n)).sum::<f64>() / DECK_LEN as f64;
            let waits: Vec<f64> = w
                .open
                .finished
                .iter()
                .map(|f| (f.latency_s * 1e3 - idle[&f.result.spec.workload]).max(0.0))
                .collect();
            out.put("serve.submit_us", median(&w.submit_s) * 1e6, "us");
            out.put("serve.idle_latency_ms", idle_mean, "ms");
            out.put("serve.queue_wait_ms_p50", percentile(&waits, 50.0), "ms");
            out.put("serve.queue_wait_ms_p95", percentile(&waits, 95.0), "ms");
            out.put("serve.latency_jobs", w.open.finished.len() as f64, "count");
            out.put(
                "serve.rejected",
                (w.closed.refused + w.open.refused) as f64,
                "count",
            );
            out.put("gen.lag_ms_max", w.open.max_lag_s * 1e3, "ms");
        }
        WindowFacts::Single { .. } => {
            // One job at a time: nothing queues and no generator runs.
            out.put("serve.submit_us", median(&idle_submit_s) * 1e6, "us");
            out.put("serve.idle_latency_ms", idle.values().sum(), "ms");
            out.put("serve.queue_wait_ms_p50", 0.0, "ms");
            out.put("serve.queue_wait_ms_p95", 0.0, "ms");
            out.put("serve.latency_jobs", 0.0, "count");
            out.put(
                "serve.rejected",
                snapshot.get(MetricId::ServeJobsRejected) as f64,
                "count",
            );
            out.put("gen.lag_ms_max", 0.0, "ms");
        }
    }
    out.put(
        "serve.steals",
        snapshot.get(MetricId::ServeSteals) as f64,
        "count",
    );
    out.put(
        "serve.queue_depth_max",
        snapshot.get(MetricId::ServeQueueDepth) as f64,
        "count",
    );
    out.put("serve.sched_ns_1t", sched_ns(1).as_secs_f64() * 1e9, "ns");
    out.put(
        "serve.sched_ns_nproc",
        sched_ns(nproc()).as_secs_f64() * 1e9,
        "ns",
    );
    out.put("serve.drr_ns", drr_ns().as_secs_f64() * 1e9, "ns");
}

/// Host time of one `submit` + `next` pair on a sharded scheduler with
/// `threads` threads each submitting and claiming (wall time over all
/// pairs).
fn sched_ns(threads: usize) -> Duration {
    const PAIRS: usize = 20_000;
    let per_pass = time_per_call(1, 5, 1, || {
        let sched = ShardedScheduler::new(threads, &SchedulerConfig::default());
        let _s = span("serve");
        std::thread::scope(|s| {
            for w in 0..threads {
                let sched = &sched;
                s.spawn(move || {
                    for i in 0..PAIRS {
                        sched.submit(TENANTS[(i + w) % TENANTS.len()], 1, i);
                        black_box(sched.next(w));
                    }
                });
            }
        });
        sched.stop();
    });
    per_pass / (PAIRS * threads) as u32
}

/// Host time of one push + pop on a deficit-round-robin queue over the
/// mix's tenants.
fn drr_ns() -> Duration {
    const ITEMS: usize = 600;
    let per_pass = time_per_call(5, 9, 10, || {
        let _s = span("serve");
        let mut q = DrrQueue::new(1);
        for i in 0..ITEMS {
            q.push(TENANTS[i % TENANTS.len()], 1, i);
        }
        while let Some(x) = q.pop() {
            black_box(x);
        }
    });
    per_pass / ITEMS as u32
}

/// Span self times, span count and the estimated tracing overhead.
fn trace(started: Instant, out: &mut Outcome) {
    let totals = TRACER.totals();
    for layer in LAYERS {
        let self_ns = totals.get(layer).map_or(0, |t| t.self_ns);
        out.put(&format!("span.{layer}.self_s"), self_ns as f64 / 1e9, "s");
    }
    let spans: u64 = totals.values().map(|t| t.count).sum();
    // Tracing adds its spans' own cost: measured per span on a private
    // recorder, times the spans this run recorded, over the run's time.
    let probe = Tracer::new();
    probe.set_enabled(true);
    let per_span = time_per_call(100, 9, 1000, || drop(probe.span("probe")));
    let wall = started.elapsed().as_secs_f64();
    out.put("trace.spans", spans as f64, "count");
    out.put(
        "trace.overhead_pct",
        spans as f64 * per_span.as_secs_f64() / wall * 100.0,
        "%",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_and_drr_timers_measure_positive_work() {
        assert!(drr_ns() > Duration::ZERO);
        assert!(sched_ns(2) > Duration::ZERO);
    }
}
