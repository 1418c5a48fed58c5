//! Differential oracle for the sample resolver.
//!
//! `RefResolver` below is the resolver's original registry: it keeps
//! every artifact ever registered, retired ones included, each with the
//! epoch at which it was retired. It is kept here only as a reference
//! model. The shipped `SampleResolver` keeps live artifacts plus the
//! ranges retired since the last drain, and must give the same answer
//! for every sample over seeded code churn shaped like `Vm::install` on
//! a bounded code cache.

use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
use hpmopt_bytecode::{FieldType, MethodId, Program};
use hpmopt_core::mapping::{ResolveFailure, ResolvedPc, SampleResolver};
use hpmopt_prim::Rng;
use hpmopt_vm::compiler::compile;
use hpmopt_vm::machine::{CompiledCode, Tier};

/// Seeded churn streams.
const STREAMS: u64 = 64;
/// Steps per stream.
const STEPS: usize = 600;
/// Start of the code window.
const BASE: u64 = 0x4000_0000;
/// Size of the code window: every artifact lies inside it.
const WINDOW: u64 = 1024;

/// Uniform in `0..n` by `next % n`: the reduction these streams were
/// recorded with (`Rng::below` reduces by multiply-shift instead).
fn below(rng: &mut Rng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// Epoch window sentinel: the artifact has not been retired.
const LIVE: u64 = u64::MAX;

/// The original registry: every artifact ever registered, sorted by
/// code start, each with the epoch at which it was retired.
#[derive(Default)]
struct RefResolver {
    artifacts: Vec<(CompiledCode, u64)>,
}

impl RefResolver {
    fn register(&mut self, code: CompiledCode) {
        let pos = self
            .artifacts
            .partition_point(|(c, _)| c.code_start < code.code_start);
        self.artifacts.insert(pos, (code, LIVE));
    }

    fn retire(&mut self, code_start: u64, epoch: u64) {
        if let Some(a) = self
            .artifacts
            .iter_mut()
            .find(|(c, retired)| c.code_start == code_start && *retired == LIVE)
        {
            a.1 = epoch;
        }
    }

    fn resolve(&self, pc: u64, epoch: u64) -> Result<ResolvedPc, ResolveFailure> {
        let hi = self.artifacts.partition_point(|(c, _)| c.code_start <= pc);
        let mut in_known_range = false;
        for (c, retired) in self.artifacts[..hi].iter().rev() {
            if pc >= c.code_end() {
                continue;
            }
            in_known_range = true;
            if *retired == LIVE && c.install_epoch <= epoch {
                let bytecode_index = c.bytecode_at(pc).ok_or(ResolveFailure::Unmapped)?;
                return Ok(ResolvedPc {
                    method: c.method,
                    tier: c.tier,
                    bytecode_index,
                });
            }
        }
        Err(if in_known_range {
            ResolveFailure::Stale
        } else {
            ResolveFailure::ForeignPc
        })
    }
}

/// Eight methods of different lengths, each a run of field loads (so
/// opt code without full maps has unmapped PCs between GC points).
fn program() -> Program {
    let mut pb = ProgramBuilder::new();
    let c = pb.add_class("C", &[("f", FieldType::Ref), ("i", FieldType::Int)]);
    let f = pb.field_id(c, "f").unwrap();
    let mut entry = None;
    for k in 0..8 {
        let mut m = MethodBuilder::new(format!("m{k}"), 0, 1, false);
        m.new_object(c);
        m.store(0);
        for _ in 0..=k {
            m.load(0);
            m.get_field(f);
            m.pop();
        }
        m.ret();
        let id = pb.add_method(m);
        entry.get_or_insert(id);
    }
    pb.set_entry(entry.unwrap());
    pb.finish().unwrap()
}

/// One live artifact of the churn model.
#[derive(Clone, Copy)]
struct Live {
    method: MethodId,
    start: u64,
    end: u64,
}

/// Both resolvers plus the cache state they mirror.
struct Churn {
    reference: RefResolver,
    shipped: SampleResolver,
    live: Vec<Live>,
    epoch: u64,
    retired_since_drain: usize,
    /// Captured `(pc, epoch)` samples not yet resolved.
    pending: Vec<(u64, u64)>,
    stale: u64,
    resolved: u64,
}

impl Churn {
    fn new() -> Self {
        Churn {
            reference: RefResolver::default(),
            shipped: SampleResolver::new(),
            live: Vec::new(),
            epoch: 0,
            retired_since_drain: 0,
            pending: Vec::new(),
            stale: 0,
            resolved: 0,
        }
    }

    /// Free the live artifact at index `i`: one epoch per free.
    fn free(&mut self, i: usize) {
        let gone = self.live.swap_remove(i);
        self.epoch += 1;
        self.reference.retire(gone.start, self.epoch);
        self.shipped.retire(gone.start);
        self.retired_since_drain += 1;
    }

    /// Install `method` at a random place in the window, as
    /// `Vm::install` does: free the method's previous artifact, then
    /// every live artifact the new range overlaps, then register.
    fn install(&mut self, program: &Program, rng: &mut Rng) {
        let method = MethodId(below(rng, program.methods().len() as u64) as u32);
        let tier = [Tier::Baseline, Tier::Opt, Tier::Region][below(rng, 3) as usize];
        let full_maps = below(rng, 4) != 0;
        if let Some(i) = self.live.iter().position(|l| l.method == method) {
            self.free(i);
        }
        let size = compile(program, method, tier, BASE, full_maps).machine_code_bytes();
        assert!(
            size <= WINDOW,
            "artifact of {size} bytes exceeds the window"
        );
        let start = BASE + below(rng, (WINDOW - size) / 4 + 1) * 4;
        let end = start + size;
        while let Some(i) = self
            .live
            .iter()
            .position(|l| l.start < end && start < l.end)
        {
            self.free(i);
        }
        let mut code = compile(program, method, tier, start, full_maps);
        code.install_epoch = self.epoch;
        self.reference.register(code.clone());
        self.shipped.register(code);
        self.live.push(Live { method, start, end });
    }

    /// Capture a sample the way the VM does: a PC inside a live
    /// artifact, or (rarely) outside all code, stamped with the current
    /// epoch.
    fn capture(&mut self, rng: &mut Rng) {
        let pc = if self.live.is_empty() || below(rng, 16) == 0 {
            if below(rng, 2) == 0 {
                below(rng, BASE)
            } else {
                BASE + WINDOW + below(rng, 1 << 20)
            }
        } else {
            let l = self.live[below(rng, self.live.len() as u64) as usize];
            l.start + below(rng, l.end - l.start)
        };
        self.pending.push((pc, self.epoch));
    }

    /// Resolve every pending sample with both resolvers, then let the
    /// shipped one forget its retired ranges.
    fn drain(&mut self, seed: u64, step: usize) {
        for (pc, epoch) in self.pending.drain(..) {
            let want = self.reference.resolve(pc, epoch);
            let got = self.shipped.resolve(pc, epoch);
            assert_eq!(
                got, want,
                "seed {seed} step {step}: pc {pc:#x} stamped epoch {epoch}"
            );
            self.stale += u64::from(want == Err(ResolveFailure::Stale));
            self.resolved += 1;
        }
        self.shipped.forget_retired();
        self.retired_since_drain = 0;
    }
}

#[test]
fn live_only_resolver_matches_the_retain_everything_reference() {
    let program = program();
    for seed in 0..STREAMS {
        let mut rng = Rng::new(seed);
        let mut churn = Churn::new();
        for step in 0..STEPS {
            match below(&mut rng, 10) {
                0..=3 => churn.install(&program, &mut rng),
                4..=8 => churn.capture(&mut rng),
                _ => churn.drain(seed, step),
            }
            assert_eq!(
                churn.shipped.len(),
                churn.live.len(),
                "seed {seed} step {step}: the registry holds only live artifacts"
            );
            assert_eq!(
                churn.shipped.retired_len(),
                churn.retired_since_drain,
                "seed {seed} step {step}: retired ranges outlive their drain"
            );
        }
        churn.drain(seed, STEPS);
        assert!(churn.resolved > 0, "seed {seed}: no sample resolved");
        assert!(
            churn.stale > 0,
            "seed {seed}: churn produced no stale sample"
        );
    }
}
