//! Everything the VM hands its hooks, pinned per program: every access's
//! context (pc, address, outcome, cycle stamp, method, bytecode index)
//! and every poll, compile, retire, deopt and collection stamp, folded
//! in order into one FNV-1a digest.
//!
//! The programs are the service's job shapes (Tiny, planned, at 4× the
//! minimum heap) and jython's tier churn (timer-driven tier 1, tier 2,
//! a 512-byte code cache). The hook charges cycles on L1 misses and
//! polls, so a stamp that moves also moves every later stamp.
//!
//! The pins were recorded when the VM still queued each block's heap
//! accesses and reported them when the block ended; playing each access
//! through the memory hierarchy as it issues must not move one.

use hpmopt_bytecode::{MethodId, Program};
use hpmopt_gc::{CollectorKind, GcStats};
use hpmopt_hpm::SamplingInterval;
use hpmopt_prim::Fnv1a;
use hpmopt_vm::{
    AccessContext, CompiledCode, FreedRange, RunSummary, RuntimeHooks, Tier, Vm, VmConfig,
};
use hpmopt_workloads::{by_name, setup, Size};

/// Folds each hook call, tagged by kind, into one digest.
struct Fold {
    hash: Fnv1a,
    accesses: u64,
}

impl Fold {
    fn put(&mut self, tag: u64, fields: &[u64]) {
        self.hash.write_u64(tag);
        for &f in fields {
            self.hash.write_u64(f);
        }
    }
}

impl RuntimeHooks for Fold {
    fn on_access(&mut self, ctx: &AccessContext) -> u64 {
        self.accesses += 1;
        let o = ctx.outcome;
        let events = u64::from(o.l1_miss) | u64::from(o.l2_miss) << 1 | u64::from(o.dtlb_miss) << 2;
        self.put(
            1,
            &[
                ctx.pc,
                ctx.addr.0,
                o.cycles,
                events,
                ctx.cycles,
                u64::from(ctx.method.0),
                u64::from(ctx.bytecode_index),
            ],
        );
        // A charge on misses feeds the stamps back into the clock.
        u64::from(o.l1_miss) * 3
    }
    fn on_poll(&mut self, _: &Program, cycles: u64) -> u64 {
        self.put(2, &[cycles]);
        7
    }
    fn on_compile(&mut self, _: &Program, code: &CompiledCode, _: u64, _: u64) {
        self.put(
            3,
            &[u64::from(code.method.0), code.tier as u64, code.code_start],
        );
    }
    fn on_code_retired(&mut self, freed: &FreedRange, cache_bytes: u64, cycles: u64) {
        self.put(
            4,
            &[
                u64::from(freed.method.0),
                freed.tier as u64,
                freed.start,
                freed.end,
                freed.epoch,
                u64::from(freed.evicted),
                cache_bytes,
                cycles,
            ],
        );
    }
    fn on_deopt(&mut self, method: MethodId, from: Tier, cycles: u64) {
        self.put(5, &[u64::from(method.0), from as u64, cycles]);
    }
    fn on_gc(&mut self, _: &GcStats, cycles: u64) {
        self.put(6, &[cycles]);
    }
    fn on_exit(&mut self, _: &Program, cycles: u64) -> u64 {
        self.put(7, &[cycles]);
        0
    }
}

/// The VM configuration of a service job: Tiny, planned, 4× heap.
fn job_config(name: &str) -> (hpmopt_workloads::Workload, VmConfig) {
    let w = by_name(name, Size::Tiny).expect("known workload");
    let heap = setup::heap_config(&w, 4, 1, CollectorKind::GenMs);
    let vm = setup::run_config(&w, Size::Tiny, heap, SamplingInterval::Off, false).vm;
    (w, vm)
}

/// Run `p` under `cfg` with the folding hooks: the summary, and the
/// accesses, digest and cycles the pins hold.
fn fold(p: &Program, cfg: VmConfig) -> (RunSummary, (u64, u64, u64)) {
    let mut hooks = Fold {
        hash: Fnv1a::new(),
        accesses: 0,
    };
    let s = Vm::new(p, cfg).run(&mut hooks).expect("program completes");
    let cycles = s.cycles;
    (s, (hooks.accesses, hooks.hash.finish(), cycles))
}

#[test]
fn planned_job_hook_streams_are_pinned() {
    let mut collections = 0;
    let got: Vec<(&str, u64, u64, u64)> = ["db", "lusearch", "jess", "fop"]
        .into_iter()
        .map(|name| {
            let (w, cfg) = job_config(name);
            let (s, (n, digest, cycles)) = fold(&w.program, cfg);
            collections += s.gc.minor_collections;
            (name, n, digest, cycles)
        })
        .collect();
    assert!(collections > 0, "the streams cover collections");
    assert_eq!(got, PIN_JOBS);
}
const PIN_JOBS: [(&str, u64, u64, u64); 4] = [
    ("db", 4_050_002, 7_721_571_326_599_026_012, 55_762_321),
    (
        "lusearch",
        1_429_850,
        15_699_966_323_084_490_320,
        24_131_227,
    ),
    ("jess", 562_595, 9_866_770_674_219_749_318, 4_086_715),
    ("fop", 15_005, 12_083_843_626_163_771_719, 65_605),
];

#[test]
fn tiered_jython_hook_stream_is_pinned() {
    let (w, mut cfg) = job_config("jython");
    setup::tiered(&mut cfg);
    let (s, got) = fold(&w.program, cfg);
    assert!(s.deopts > 0, "the stream covers deopts");
    assert!(s.code_evictions > 0, "the stream covers evictions");
    assert_eq!(got, PIN_TIERED);
}
const PIN_TIERED: (u64, u64, u64) = (258_021, 9_465_176_089_874_728_761, 3_701_751);
