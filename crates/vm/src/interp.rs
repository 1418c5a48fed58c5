//! The execution engine.
//!
//! Executes bytecode while accounting cycles as the *compiled* code
//! would: each bytecode costs its tier's machine-instruction count, heap
//! accesses additionally pay real (simulated) memory latency, and every
//! heap access is reported to the [`RuntimeHooks`] with the machine PC of
//! its memory instruction — the raw feed a PEBS-style sampling unit sees.

use std::rc::Rc;

#[cfg(test)]
use hpmopt_bytecode::Instr;
use hpmopt_bytecode::{ElemKind, MethodId, Program};
use hpmopt_gc::{Address, GcNeeded, GcStats, Heap};
use hpmopt_memsim::{AccessKind, MemStats, MemoryHierarchy};

use hpmopt_jit::{CodeCache, FreedRange, TierManager};

use crate::compiler::{compile, compiled_code_bytes};
use crate::config::{CancelToken, VmConfig};
use crate::hooks::{AccessContext, RuntimeHooks};
use crate::predecode::{
    decode, DecodedMethod, IcSlot, IntOp, Op, ADD_JUMP_SPAN, BASELINE_ISSUE_WIDTH, CMP_JUMP_SPAN,
    IC_ARRAY_KEY, INT_CONST_SPAN, LOAD_FIELD_SPAN, NULL_JUMP_SPAN, OPT_ISSUE_WIDTH,
    SWITCH_ARM_SPAN,
};
use crate::value::{Value, VmError};
#[cfg(test)]
use crate::STATICS_BASE;
use crate::{CompiledCode, Tier, CODE_BASE};

/// Per-method code-size report (Table 2 rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodCodeSizes {
    /// The method.
    pub method: MethodId,
    /// Current tier.
    pub tier: Tier,
    /// Machine-code bytes.
    pub machine_code_bytes: u64,
    /// GC-map bytes.
    pub gc_map_bytes: u64,
    /// Machine-code-map bytes.
    pub mc_map_bytes: u64,
}

/// Results of one program execution.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Total simulated cycles (application + GC + monitoring overhead).
    pub cycles: u64,
    /// Bytecode instructions executed.
    pub bytecodes_executed: u64,
    /// Cycles charged by the hooks (monitoring overhead).
    pub monitor_cycles: u64,
    /// Cycles charged for collections.
    pub gc_cycles: u64,
    /// Cycles charged for baseline and optimizing compilations (zero
    /// unless the [`crate::VmConfig`] compile costs are set).
    pub compile_cycles: u64,
    /// Memory-hierarchy statistics.
    pub mem: MemStats,
    /// Collector statistics.
    pub gc: GcStats,
    /// Per-method code and map sizes.
    pub code_sizes: Vec<MethodCodeSizes>,
    /// Methods opt-compiled during the run (input for a pseudo-adaptive
    /// compilation plan); includes region-tier methods.
    pub opt_compiled: Vec<MethodId>,
    /// Artifacts evicted by the bounded code cache for capacity (zero
    /// with the default unbounded cache).
    pub code_evictions: u64,
    /// Region-tier deoptimizations back to baseline.
    pub deopts: u64,
}

impl RunSummary {
    /// Total machine-code bytes across methods.
    #[must_use]
    pub fn total_machine_code_bytes(&self) -> u64 {
        self.code_sizes.iter().map(|c| c.machine_code_bytes).sum()
    }

    /// Total GC-map bytes across methods.
    #[must_use]
    pub fn total_gc_map_bytes(&self) -> u64 {
        self.code_sizes.iter().map(|c| c.gc_map_bytes).sum()
    }

    /// Total machine-code-map bytes across methods.
    #[must_use]
    pub fn total_mc_map_bytes(&self) -> u64 {
        self.code_sizes.iter().map(|c| c.mc_map_bytes).sum()
    }
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    method: MethodId,
    pc: usize,
    locals_base: usize,
    stack_base: usize,
}

/// The virtual machine.
///
/// A `Vm` is not `Send`: its decoded bodies are shared through `Rc`, so
/// build and run it on one thread.
///
/// See the [crate-level documentation](crate) for an example.
pub struct Vm<'p> {
    program: &'p Program,
    config: VmConfig,
    heap: Heap,
    mem: MemoryHierarchy,
    compiled: Vec<Option<CompiledCode>>,
    decoded: Vec<Option<DecodedMethod>>,
    /// Per method, what a reinstall at the baseline or opt tier reuses.
    memo: Vec<Memo>,
    generations: Vec<u32>,
    tiers: TierManager,
    cache: CodeCache,
    cycles: u64,
    monitor_cycles: u64,
    compile_cycles: u64,
    gc_cycles_seen: u64,
    bytecodes: u64,
    deopts: u64,
    statics: Vec<Value>,
    locals: Vec<Value>,
    stack: Vec<Value>,
    frames: Vec<Frame>,
    /// Machine instructions retired by the current block, converted to
    /// cycles (divided by [`Vm::batch_width`]) when the block settles.
    batch_mach: u64,
    /// Latency and hook overhead of the current block's heap accesses,
    /// added to the clock when the block settles.
    batch_extra: u64,
    /// Heap accesses the current block has issued.
    batch_len: usize,
    /// Retirement width of the block's tier (set at frame entry; a block
    /// never spans a control transfer, so it is single-tier).
    batch_width: u64,
    /// The first clock value at which the epilogue must look at the
    /// clock: the smaller of `cycle_budget + 1` and the tier-1 timer's
    /// next tick (`u64::MAX` when neither is set). Set at run start and
    /// after each timer tick.
    clock_deadline: u64,
    /// The bytecode count at which the hooks' poll callback next runs.
    next_poll: u64,
    /// The first bytecode count at which the epilogue must take its
    /// slow path for a poll or the step limit: the smaller of
    /// [`Vm::next_poll`] and one past the step limit. Set at run start
    /// and after each poll.
    bytecode_deadline: u64,
    roots_scratch: Vec<Address>,
    /// The methods an install pins: every frame's, plus its own.
    pinned_scratch: Vec<MethodId>,
    /// The ranges an install evicted, until each is retired.
    evicted_scratch: Vec<FreedRange>,
}

/// One method's builds at the baseline and opt tiers (in that order),
/// kept so that a reinstall relocates them instead of compiling and
/// decoding again. A build is kept from the method's second install at
/// its tier on, so a method installed once costs no memory; region
/// builds are never kept, because they depend on the hot-block set.
#[derive(Debug, Clone, Default)]
struct Memo {
    installed: [bool; 2],
    built: [Option<(CompiledCode, DecodedMethod)>; 2],
}

/// The [`Memo`] slot of `tier`, if its builds are kept.
fn memo_slot(tier: Tier) -> Option<usize> {
    match tier {
        Tier::Baseline => Some(0),
        Tier::Opt => Some(1),
        Tier::Region => None,
    }
}

/// How often (in bytecodes) the hooks' poll callback runs.
const POLL_EVERY_BYTECODES: u64 = 4096;

/// Heap accesses after which a block settles: a longer block settles
/// before its next access, so its compute cycles are rounded up to whole
/// cycles every 32 accesses.
const BATCH_CAP: usize = 32;

/// Maximum call depth: pushing a frame beyond it fails the run with
/// [`VmError::StackOverflow`].
const MAX_CALL_DEPTH: usize = 2048;

/// Cycles charged per method call for frame setup (added to the
/// callee's machine instructions).
const CALL_OVERHEAD_CYCLES: u64 = 10;

/// Frame-setup cycles for a call whose inline cache hit: the callee's
/// entry point, arity and frame size were resolved when the site was
/// linked, so only the register save/restore remains. The fast engine
/// charges it instead of `CALL_OVERHEAD_CYCLES` on a cache hit.
const LINKED_CALL_OVERHEAD_CYCLES: u64 = 4;

impl<'p> Vm<'p> {
    /// Create a VM for `program`.
    #[must_use]
    pub fn new(program: &'p Program, config: VmConfig) -> Self {
        let statics = program
            .statics()
            .iter()
            .map(|s| {
                if s.ty().is_ref() {
                    Value::null()
                } else {
                    Value::Int(0)
                }
            })
            .collect();
        Vm {
            heap: Heap::new(program, config.heap.clone()),
            mem: MemoryHierarchy::new(config.mem.clone()),
            compiled: vec![None; program.methods().len()],
            decoded: vec![None; program.methods().len()],
            memo: vec![Memo::default(); program.methods().len()],
            generations: vec![0; program.methods().len()],
            tiers: TierManager::new(config.jit.clone()),
            cache: CodeCache::new(CODE_BASE, config.jit.code_cache_capacity_bytes),
            cycles: 0,
            monitor_cycles: 0,
            compile_cycles: 0,
            gc_cycles_seen: 0,
            bytecodes: 0,
            deopts: 0,
            statics,
            locals: Vec::new(),
            stack: Vec::new(),
            frames: Vec::new(),
            batch_mach: 0,
            batch_extra: 0,
            batch_len: 0,
            batch_width: BASELINE_ISSUE_WIDTH,
            clock_deadline: 0,
            next_poll: 0,
            bytecode_deadline: 0,
            roots_scratch: Vec::with_capacity(64),
            pinned_scratch: Vec::new(),
            evicted_scratch: Vec::new(),
            program,
            config,
        }
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The compiled artifact of `m`, if compiled.
    #[must_use]
    pub fn compiled(&self, m: MethodId) -> Option<&CompiledCode> {
        self.compiled[m.0 as usize].as_ref()
    }

    /// Current simulated cycle count.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The value of static variable `index` (program results live in
    /// statics; embedders read them after a run).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the program's statics.
    #[must_use]
    pub fn static_value(&self, index: usize) -> Value {
        self.statics[index]
    }

    /// The current call stack as `(method, bytecode pc)` frames, outermost
    /// first. Useful for diagnosing hangs and step-limit aborts.
    #[must_use]
    pub fn backtrace(&self) -> Vec<(MethodId, usize)> {
        self.frames.iter().map(|f| (f.method, f.pc)).collect()
    }

    /// Walk the heap from the current roots checking object-graph sanity
    /// (valid headers, in-bounds references); returns the live object
    /// count. A debugging aid for embedders.
    ///
    /// # Errors
    ///
    /// Returns a description of the first corruption found.
    pub fn verify_heap(&self) -> Result<u64, String> {
        self.heap.verify(&self.gather_roots())
    }

    /// Canonical, placement-independent digest of the program-visible
    /// state: static values plus the contents and shape of every object
    /// reachable from them (see [`crate::digest`]). Meaningful after
    /// [`Vm::run`] returns, when the statics are the only roots; the
    /// stress engine's differential oracles compare this across runtime
    /// configurations.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        crate::digest::state_digest(self.program, &self.heap, &self.statics)
    }

    /// Run the program to completion.
    ///
    /// The engine executes pre-decoded bodies with inline caches, plays
    /// each heap access through the memory hierarchy as it issues and
    /// charges each basic block's cycles when the block settles. The
    /// tests check it against the per-step reference engine
    /// (`run_slow`): same outcome, bytecode count and state digest.
    ///
    /// # Errors
    ///
    /// Returns the first [`VmError`] raised (null dereference, division by
    /// zero, index error, out of memory, step limit, ...).
    pub fn run<H: RuntimeHooks>(&mut self, hooks: &mut H) -> Result<RunSummary, VmError> {
        self.prologue(hooks)?;
        self.run_fast(hooks)?;
        // Final drain so buffered samples are processed before reporting.
        let overhead = hooks.on_exit(self.program, self.cycles);
        self.cycles += overhead;
        self.monitor_cycles += overhead;
        Ok(self.summary())
    }

    /// Announce the run to the hooks and push the entry frame.
    fn prologue<H: RuntimeHooks>(&mut self, hooks: &mut H) -> Result<(), VmError> {
        hooks.on_startup(self.program, self.cycles);
        let entry = self.program.entry();
        self.ensure_compiled(entry, hooks);
        self.push_frame(entry, 0, CALL_OVERHEAD_CYCLES)
    }

    /// The per-step reference engine, kept for the tests to compare
    /// [`Vm::run`] against: re-decode and re-cost every bytecode from the
    /// artifact on each step, charge every heap access its serial
    /// latency. Same semantics and digests as the fast engine, per-step
    /// cost accounting.
    #[cfg(test)]
    fn run_slow<H: RuntimeHooks>(&mut self, hooks: &mut H) -> Result<(), VmError> {
        let mut next_poll = POLL_EVERY_BYTECODES;
        while !self.frames.is_empty() {
            self.step(hooks)?;
            self.bytecodes += 1;
            if let Some(limit) = self.config.step_limit {
                if self.bytecodes > limit {
                    return Err(VmError::StepLimit);
                }
            }
            if let Some(budget) = self.config.cycle_budget {
                if self.cycles > budget {
                    return Err(VmError::CycleBudget);
                }
            }
            if self.tiers.should_sample(self.cycles) {
                let current = self.frames.last().map(|f| f.method);
                if let Some(m) = current {
                    // A timer tick that lands in a method is also the
                    // cache's recency signal: sampled code is hot code.
                    self.cache.touch(m, self.cycles);
                    if let Some(hot) = self.tiers.sample(m, self.cycles) {
                        self.recompile(hot, hooks);
                    }
                }
            }
            if self.bytecodes >= next_poll {
                next_poll = self.bytecodes + POLL_EVERY_BYTECODES;
                let overhead = hooks.on_poll(self.program, self.cycles);
                self.cycles += overhead;
                self.monitor_cycles += overhead;
                if self
                    .config
                    .cancel
                    .as_ref()
                    .is_some_and(CancelToken::is_cancelled)
                {
                    return Err(VmError::Cancelled);
                }
            }
        }
        Ok(())
    }

    /// The fast engine: dispatch pre-decoded ops and settle each basic
    /// block's cycles into the clock when it ends.
    fn run_fast<H: RuntimeHooks>(&mut self, hooks: &mut H) -> Result<(), VmError> {
        self.next_poll = POLL_EVERY_BYTECODES;
        self.reset_bytecode_deadline();
        self.reset_clock_deadline();
        let r = self.exec_fast(hooks);
        // Any exit — normal or error — settles the block, so the clock
        // holds every cycle retired before the stop point (an erroring
        // op's dispatch cost is never charged, same as the per-step
        // engine).
        self.settle_block();
        r
    }

    /// The fast dispatch loop. One iteration of the outer loop pins one
    /// frame's decoded body; the inner loop runs ops of that frame until
    /// control transfers (call/return) or the body is recompiled.
    ///
    /// The running frame's pc lives in a local. It is written back to
    /// the frame only where something reads it: before the epilogue's
    /// slow path (whose recompile refetch re-enters at it, and whose
    /// stops leave it in the backtrace), on a deopt, on a call (the
    /// caller's return pc), and when an op fails ([`Vm::fault`]).
    #[allow(clippy::too_many_lines)]
    fn exec_fast<H: RuntimeHooks>(&mut self, hooks: &mut H) -> Result<(), VmError> {
        'frames: while let Some(&frame) = self.frames.last() {
            let mi = frame.method.0 as usize;
            let method = frame.method;
            let locals_base = frame.locals_base;
            let mut pc = frame.pc;
            let decoded = self.decoded[mi].as_ref().expect("decoded method");
            // The body stays valid for this frame entry: a reinstall
            // replaces the method's `DecodedMethod`, and every path that
            // may reinstall leaves through `continue 'frames`.
            let ops = Rc::clone(&decoded.ops);
            let width = decoded.width;
            self.batch_width = width;
            // Taken backward branches in opt-tier code feed the tier-2
            // promotion counters; baseline code is not yet worth a
            // region, and region code already is one.
            let tier2_watch = self.config.jit.tier2_enabled && decoded.tier == Tier::Opt;
            loop {
                let dop = ops[pc];
                let mut cost = u64::from(dop.cost);
                let mut next_pc = pc + 1;
                let bc = pc as u32;

                // Every error an op raises leaves through `fault`, which
                // writes the op's pc back to the frame.
                macro_rules! fail {
                    ($e:expr) => {
                        return Err(self.fault(pc, $e))
                    };
                }
                macro_rules! tri {
                    ($e:expr) => {
                        match $e {
                            Ok(v) => v,
                            Err(e) => fail!(e),
                        }
                    };
                }

                macro_rules! binop_int {
                    ($op:expr) => {{
                        let b = tri!(self.pop_int());
                        let a = tri!(self.pop_int());
                        if matches!($op, IntOp::Div | IntOp::Rem) && b == 0 {
                            fail!(VmError::DivisionByZero);
                        }
                        self.stack.push(Value::Int($op.apply(a, b)));
                    }};
                }

                // Read a field of the non-null `obj` at the `GetField`
                // `site` (bytecode `bc`) through its inline cache and push
                // it, adding a cache miss's count to `cost`.
                macro_rules! get_field {
                    ($obj:expr, $site:expr, $bc:expr) => {{
                        let (obj, site) = ($obj, $site);
                        let Op::GetField { offset, is_ref, ic } = site.op else {
                            unreachable!("a field read runs at a GetField")
                        };
                        cost += self.field_ic_cost(mi, ic, site.extra, obj);
                        let addr = self.heap.field_addr(obj, offset);
                        self.access(hooks, addr, 8, AccessKind::Read, site.mem_pc, method, $bc);
                        let raw = self.heap.get_field(obj, offset);
                        self.stack.push(if is_ref {
                            Value::Ref(Address(raw))
                        } else {
                            Value::Int(raw as i64)
                        });
                    }};
                }

                // Count a taken backward branch at bytecode `from`; when
                // it crosses the tier-2 threshold, compile a region over
                // the method's hottest blocks and re-enter at the branch
                // target.
                macro_rules! back_edge {
                    ($from:expr) => {
                        if tier2_watch && next_pc <= $from {
                            let d = self.decoded[mi].as_ref().expect("decoded method");
                            let (tgt, src) = (d.block_of[next_pc], d.block_of[$from]);
                            if self.tiers.record_back_edge(method, tgt, src) {
                                self.batch_mach += cost;
                                self.settle_block();
                                self.install(method, Tier::Region, hooks);
                                self.frames.last_mut().expect("running frame").pc = next_pc;
                                self.epilogue(hooks)?;
                                continue 'frames;
                            }
                        }
                    };
                }

                match dop.op {
                    Op::Const(v) => self.stack.push(Value::Int(v)),
                    Op::ConstNull => self.stack.push(Value::null()),
                    Op::Load(n) => {
                        let v = self.locals[locals_base + n as usize];
                        self.stack.push(v);
                    }
                    Op::Store(n) => {
                        let v = tri!(self.pop());
                        self.locals[locals_base + n as usize] = v;
                    }
                    Op::Dup => {
                        let v = *tri!(self.stack.last().ok_or(VmError::TypeMismatch));
                        self.stack.push(v);
                    }
                    Op::Pop => {
                        tri!(self.pop());
                    }
                    Op::Swap => {
                        let len = self.stack.len();
                        self.stack.swap(len - 1, len - 2);
                    }

                    Op::Add => binop_int!(IntOp::Add),
                    Op::Sub => binop_int!(IntOp::Sub),
                    Op::Mul => binop_int!(IntOp::Mul),
                    Op::Div => binop_int!(IntOp::Div),
                    Op::Rem => binop_int!(IntOp::Rem),
                    Op::And => binop_int!(IntOp::And),
                    Op::Or => binop_int!(IntOp::Or),
                    Op::Xor => binop_int!(IntOp::Xor),
                    Op::Shl => binop_int!(IntOp::Shl),
                    Op::Shr => binop_int!(IntOp::Shr),
                    Op::UShr => binop_int!(IntOp::UShr),
                    Op::Neg => {
                        let a = tri!(self.pop_int());
                        self.stack.push(Value::Int(a.wrapping_neg()));
                    }

                    Op::Eq => binop_int!(IntOp::Eq),
                    Op::Ne => binop_int!(IntOp::Ne),
                    Op::Lt => binop_int!(IntOp::Lt),
                    Op::Le => binop_int!(IntOp::Le),
                    Op::Gt => binop_int!(IntOp::Gt),
                    Op::Ge => binop_int!(IntOp::Ge),

                    Op::Jump(t) => {
                        next_pc = t as usize;
                        back_edge!(pc);
                    }
                    Op::JumpIf(t) => {
                        if tri!(self.pop_int()) != 0 {
                            next_pc = t as usize;
                            back_edge!(pc);
                        }
                    }
                    Op::JumpIfNot(t) => {
                        if tri!(self.pop_int()) == 0 {
                            next_pc = t as usize;
                            back_edge!(pc);
                        }
                    }

                    // A fused head runs its whole span only when its
                    // operands have the type the span needs and the span
                    // has room; otherwise it runs as the op it replaced
                    // and the unfused tail follows, so every failure,
                    // count and check lands where it does without the
                    // fusion.
                    Op::CmpJump { a, b, target } => {
                        let x = self.locals[locals_base + a as usize];
                        match (x, self.locals[locals_base + b as usize]) {
                            (Value::Int(x), Value::Int(y))
                                if self
                                    .span_has_room(CMP_JUMP_SPAN, cost + u64::from(dop.extra)) =>
                            {
                                cost += u64::from(dop.extra);
                                self.bytecodes += CMP_JUMP_SPAN as u64 - 1;
                                // The target is forward: no back edge.
                                next_pc = if x >= y {
                                    target as usize
                                } else {
                                    pc + CMP_JUMP_SPAN
                                };
                            }
                            _ => self.stack.push(x),
                        }
                    }
                    Op::AddJump { local, k, target } => {
                        let slot = locals_base + local as usize;
                        match self.locals[slot] {
                            Value::Int(v)
                                if self
                                    .span_has_room(ADD_JUMP_SPAN, cost + u64::from(dop.extra)) =>
                            {
                                cost += u64::from(dop.extra);
                                self.bytecodes += ADD_JUMP_SPAN as u64 - 1;
                                self.locals[slot] = Value::Int(IntOp::Add.apply(v, i64::from(k)));
                                next_pc = target as usize;
                                // The back edge is the tail `Jump`'s.
                                let jump = pc + ADD_JUMP_SPAN - 1;
                                back_edge!(jump);
                            }
                            v => self.stack.push(v),
                        }
                    }
                    Op::IntConst { op, k } => {
                        let room = self.span_has_room(INT_CONST_SPAN, cost + u64::from(dop.extra));
                        match self.stack.last_mut() {
                            Some(Value::Int(a)) if room => {
                                *a = op.apply(*a, k);
                                cost += u64::from(dop.extra);
                                self.bytecodes += INT_CONST_SPAN as u64 - 1;
                                next_pc = pc + INT_CONST_SPAN;
                            }
                            _ => self.stack.push(Value::Int(k)),
                        }
                    }
                    Op::SwitchArm { k, target } => {
                        let room = self.span_has_room(SWITCH_ARM_SPAN, cost + u64::from(dop.extra));
                        match self.stack.last() {
                            Some(&Value::Int(v)) if room => {
                                cost += u64::from(dop.extra);
                                self.bytecodes += SWITCH_ARM_SPAN as u64 - 1;
                                // The target is forward: no back edge.
                                next_pc = if v == k {
                                    target as usize
                                } else {
                                    pc + SWITCH_ARM_SPAN
                                };
                            }
                            top => {
                                let v = *tri!(top.ok_or(VmError::TypeMismatch));
                                self.stack.push(v);
                            }
                        }
                    }
                    Op::LoadField { local } => {
                        match self.locals[locals_base + local as usize] {
                            Value::Ref(obj)
                                if !obj.is_null() && self.span_has_room(LOAD_FIELD_SPAN, cost) =>
                            {
                                // The `Load` retires before the field's
                                // access issues, so the block's count
                                // stamps the access as it does without
                                // the fusion.
                                self.batch_mach += cost;
                                self.bytecodes += LOAD_FIELD_SPAN as u64 - 1;
                                let site = ops[pc + 1];
                                cost = u64::from(site.cost);
                                get_field!(obj, site, bc + 1);
                                next_pc = pc + LOAD_FIELD_SPAN;
                            }
                            v => self.stack.push(v),
                        }
                    }
                    Op::NullJump { local, target } => {
                        match self.locals[locals_base + local as usize] {
                            Value::Ref(a)
                                if self
                                    .span_has_room(NULL_JUMP_SPAN, cost + u64::from(dop.extra)) =>
                            {
                                cost += u64::from(dop.extra);
                                self.bytecodes += NULL_JUMP_SPAN as u64 - 1;
                                // The target is forward: no back edge.
                                next_pc = if a.is_null() {
                                    target as usize
                                } else {
                                    pc + NULL_JUMP_SPAN
                                };
                            }
                            v => self.stack.push(v),
                        }
                    }

                    Op::New(class) => {
                        // Allocation can trigger a collection, which
                        // moves the clock: settle the block first.
                        self.settle_block();
                        let obj = tri!(self.alloc_object_gc(class, hooks));
                        // Initializing the header touches the first line.
                        self.access(hooks, obj, 8, AccessKind::Write, dop.mem_pc, method, bc);
                        self.stack.push(Value::Ref(obj));
                    }
                    Op::NewArray(kind) => {
                        let len = tri!(self.pop_int());
                        if len < 0 {
                            fail!(VmError::IndexOutOfBounds);
                        }
                        self.settle_block();
                        let obj = tri!(self.alloc_array_gc(kind, len as u64, hooks));
                        self.access(hooks, obj, 8, AccessKind::Write, dop.mem_pc, method, bc);
                        self.stack.push(Value::Ref(obj));
                    }
                    Op::GetField { .. } => {
                        let obj = tri!(self.pop_ref());
                        if obj.is_null() {
                            fail!(VmError::NullPointer);
                        }
                        get_field!(obj, dop, bc);
                    }
                    Op::PutField { offset, is_ref, ic } => {
                        let v = tri!(self.pop());
                        let obj = tri!(self.pop_ref());
                        if obj.is_null() {
                            fail!(VmError::NullPointer);
                        }
                        cost += self.field_ic_cost(mi, ic, dop.extra, obj);
                        let addr = self.heap.field_addr(obj, offset);
                        self.access(hooks, addr, 8, AccessKind::Write, dop.mem_pc, method, bc);
                        let (raw, v_is_ref) = match v {
                            Value::Ref(a) => (a.0, true),
                            Value::Int(i) => (i as u64, false),
                        };
                        if v_is_ref != is_ref {
                            fail!(VmError::TypeMismatch);
                        }
                        self.heap.set_field(obj, offset, raw, v_is_ref);
                    }
                    Op::GetStatic { index, addr } => {
                        self.access(
                            hooks,
                            Address(addr),
                            8,
                            AccessKind::Read,
                            dop.mem_pc,
                            method,
                            bc,
                        );
                        self.stack.push(self.statics[index as usize]);
                    }
                    Op::PutStatic { index, addr } => {
                        let v = tri!(self.pop());
                        self.access(
                            hooks,
                            Address(addr),
                            8,
                            AccessKind::Write,
                            dop.mem_pc,
                            method,
                            bc,
                        );
                        self.statics[index as usize] = v;
                    }
                    Op::ArrayGet(kind) => {
                        let idx = tri!(self.pop_int());
                        let arr = tri!(self.pop_ref());
                        if arr.is_null() {
                            fail!(VmError::NullPointer);
                        }
                        let len = self.heap.array_len(arr);
                        if idx < 0 || idx as u64 >= len {
                            fail!(VmError::IndexOutOfBounds);
                        }
                        let addr = self.heap.elem_addr(arr, kind, idx as u64);
                        self.access(
                            hooks,
                            addr,
                            kind.width(),
                            AccessKind::Read,
                            dop.mem_pc,
                            method,
                            bc,
                        );
                        let raw = self.heap.array_get(arr, kind, idx as u64);
                        self.stack.push(if kind.is_ref() {
                            Value::Ref(Address(raw))
                        } else {
                            Value::Int(raw as i64)
                        });
                    }
                    Op::ArraySet(kind) => {
                        let v = tri!(self.pop());
                        let idx = tri!(self.pop_int());
                        let arr = tri!(self.pop_ref());
                        if arr.is_null() {
                            fail!(VmError::NullPointer);
                        }
                        let len = self.heap.array_len(arr);
                        if idx < 0 || idx as u64 >= len {
                            fail!(VmError::IndexOutOfBounds);
                        }
                        let raw = match (kind.is_ref(), v) {
                            (true, Value::Ref(a)) => a.0,
                            (false, Value::Int(i)) => i as u64,
                            _ => fail!(VmError::TypeMismatch),
                        };
                        let addr = self.heap.elem_addr(arr, kind, idx as u64);
                        self.access(
                            hooks,
                            addr,
                            kind.width(),
                            AccessKind::Write,
                            dop.mem_pc,
                            method,
                            bc,
                        );
                        self.heap.array_set(arr, kind, idx as u64, raw);
                    }
                    Op::ArrayLen => {
                        let arr = tri!(self.pop_ref());
                        if arr.is_null() {
                            fail!(VmError::NullPointer);
                        }
                        // The length lives in the header line.
                        self.access(hooks, arr, 8, AccessKind::Read, dop.mem_pc, method, bc);
                        self.stack.push(Value::Int(self.heap.array_len(arr) as i64));
                    }
                    Op::IsNull => {
                        let a = tri!(self.pop_ref());
                        self.stack.push(Value::Int(i64::from(a.is_null())));
                    }
                    Op::RefEq => {
                        let b = tri!(self.pop_ref());
                        let a = tri!(self.pop_ref());
                        self.stack.push(Value::Int(i64::from(a == b)));
                    }

                    Op::Call { callee, argc, ic } => {
                        // A call ends the block: settle it so the callee
                        // (and a possible first-call compile) see a
                        // settled clock.
                        self.settle_block();
                        self.ensure_compiled(callee, hooks);
                        let mut frame_overhead = CALL_OVERHEAD_CYCLES;
                        if self.config.inline_caches {
                            let current = self.generations[callee.0 as usize];
                            let slot = &mut self.decoded[mi].as_mut().expect("decoded method").ics
                                [ic as usize];
                            if let IcSlot::Call { generation } = slot {
                                if *generation == current {
                                    frame_overhead = LINKED_CALL_OVERHEAD_CYCLES;
                                } else {
                                    *generation = current;
                                    cost += u64::from(dop.extra);
                                }
                            }
                        } else {
                            cost += u64::from(dop.extra);
                        }
                        self.cycles += cost.div_ceil(width);
                        // Advance the caller's pc *before* pushing the
                        // new frame.
                        self.frames.last_mut().expect("caller frame").pc = next_pc;
                        self.push_frame(callee, argc as usize, frame_overhead)?;
                        self.epilogue(hooks)?;
                        continue 'frames;
                    }
                    Op::Return => {
                        self.batch_mach += cost;
                        self.settle_block();
                        self.pop_frame(None);
                        self.epilogue(hooks)?;
                        continue 'frames;
                    }
                    Op::ReturnVal => {
                        let v = tri!(self.pop());
                        self.batch_mach += cost;
                        self.settle_block();
                        self.pop_frame(Some(v));
                        self.epilogue(hooks)?;
                        continue 'frames;
                    }

                    Op::Deopt => {
                        // Execution left the compiled region. Nothing was
                        // retired for this bytecode (it re-executes in
                        // baseline code), so no cost and no step count:
                        // drop the region artifact, reinstall baseline,
                        // and re-enter the frame at the same pc.
                        self.settle_block();
                        self.deopts += 1;
                        self.tiers.deopt(method);
                        self.install(method, Tier::Baseline, hooks);
                        hooks.on_deopt(method, Tier::Region, self.cycles);
                        self.frames.last_mut().expect("running frame").pc = pc;
                        continue 'frames;
                    }
                }

                self.batch_mach += cost;
                pc = next_pc;
                if self.count_bytecode() {
                    self.frames.last_mut().expect("running frame").pc = pc;
                    if self.epilogue_slow(hooks)? {
                        // The running method was recompiled: refetch its
                        // decoded body (same bytecode indices, new costs).
                        continue 'frames;
                    }
                }
            }
        }
        Ok(())
    }

    /// Record the faulting op's pc in the running frame and pass `e`
    /// through. A failed op has not retired, so the backtrace after an
    /// error points at it, as in the per-step engine.
    #[cold]
    #[inline(never)]
    fn fault(&mut self, pc: usize, e: VmError) -> VmError {
        self.frames.last_mut().expect("running frame").pc = pc;
        e
    }

    /// The per-bytecode bookkeeping of the call, return and back-edge
    /// exits, where the frame's pc has already been written: counts the
    /// bytecode and runs [`Vm::epilogue_slow`] if it is due. Returns
    /// `true` when a recompilation replaced a decoded body and the
    /// caller must refetch.
    #[inline(always)]
    fn epilogue<H: RuntimeHooks>(&mut self, hooks: &mut H) -> Result<bool, VmError> {
        if self.count_bytecode() {
            self.epilogue_slow(hooks)
        } else {
            Ok(false)
        }
    }

    /// The epilogue's fast path: count the bytecode and return whether
    /// [`Vm::epilogue_slow`] is due, that is whether a step limit, a poll
    /// or a clock check (a cycle budget or the tier-1 timer) may fire.
    /// `cycles + batch_mach` bounds the running clock
    /// `cycles + ceil(batch_mach / width)` from above, so the slow path
    /// runs on every bytecode where the budget or the timer could fire.
    #[inline(always)]
    fn count_bytecode(&mut self) -> bool {
        self.bytecodes += 1;
        self.bytecodes >= self.bytecode_deadline
            || self.cycles + self.batch_mach >= self.clock_deadline
    }

    /// The room check of a fused span of `n` bytecodes retiring `mach`
    /// machine instructions: whether [`Vm::count_bytecode`] would stay
    /// on its fast path after each of the span's first `n - 1`
    /// bytecodes, so they can be counted at once. (The last one goes
    /// through the epilogue as usual.) `mach` bounds the block
    /// instructions retired by any of them.
    #[inline(always)]
    fn span_has_room(&self, n: usize, mach: u64) -> bool {
        self.bytecodes + n as u64 - 1 < self.bytecode_deadline
            && self.cycles + self.batch_mach + mach < self.clock_deadline
    }

    /// Recompute [`Vm::bytecode_deadline`] from the next poll and the
    /// step limit.
    fn reset_bytecode_deadline(&mut self) {
        let past_limit = self
            .config
            .step_limit
            .map_or(u64::MAX, |l| l.saturating_add(1));
        self.bytecode_deadline = self.next_poll.min(past_limit);
    }

    /// Recompute [`Vm::clock_deadline`] from the cycle budget and the
    /// tier-1 timer.
    fn reset_clock_deadline(&mut self) {
        let budget = self
            .config
            .cycle_budget
            .map_or(u64::MAX, |b| b.saturating_add(1));
        self.clock_deadline = budget.min(self.tiers.timer_deadline());
    }

    /// The epilogue's slow path, run after the bytecode is counted: step
    /// accounting, the cycle budget and the tier-1 sampling timer (both
    /// read the running clock, block cycles included), and the poll
    /// timer.
    #[cold]
    #[inline(never)]
    fn epilogue_slow<H: RuntimeHooks>(&mut self, hooks: &mut H) -> Result<bool, VmError> {
        if self.config.step_limit.is_some_and(|l| self.bytecodes > l) {
            return Err(VmError::StepLimit);
        }
        let mut refetch = false;
        let clock = self.cycles + self.block_cycles();
        if let Some(budget) = self.config.cycle_budget {
            if clock > budget {
                return Err(VmError::CycleBudget);
            }
        }
        if self.tiers.should_sample(clock) {
            if let Some(m) = self.frames.last().map(|f| f.method) {
                // A timer tick that lands in a method is also the cache's
                // recency signal: sampled code is hot code.
                self.cache.touch(m, clock);
                let hot = self.tiers.sample(m, clock);
                self.reset_clock_deadline();
                if let Some(hot) = hot {
                    // Recompilation swaps the running artifact: settle
                    // the block so the install lands on an ordered clock.
                    self.settle_block();
                    self.recompile(hot, hooks);
                    refetch = true;
                }
            }
        }
        if self.bytecodes >= self.next_poll {
            self.next_poll = self.bytecodes + POLL_EVERY_BYTECODES;
            self.reset_bytecode_deadline();
            self.settle_block();
            let overhead = hooks.on_poll(self.program, self.cycles);
            self.cycles += overhead;
            self.monitor_cycles += overhead;
            if self
                .config
                .cancel
                .as_ref()
                .is_some_and(CancelToken::is_cancelled)
            {
                return Err(VmError::Cancelled);
            }
        }
        Ok(refetch)
    }

    /// Inline-cache lookup for a field site: returns the extra cycles to
    /// charge (zero on a key hit) and re-keys the slot on a miss.
    #[inline(always)]
    fn field_ic_cost(&mut self, mi: usize, ic: u32, miss_extra: u32, obj: Address) -> u64 {
        if !self.config.inline_caches {
            return u64::from(miss_extra);
        }
        let key = self.heap.class_of(obj).map_or(IC_ARRAY_KEY, |c| c.0);
        let slot = &mut self.decoded[mi].as_mut().expect("decoded method").ics[ic as usize];
        match slot {
            IcSlot::Field { class } if *class == key => 0,
            other => {
                *other = IcSlot::Field { class: key };
                u64::from(miss_extra)
            }
        }
    }

    /// Play a heap access through the hierarchy as it issues and report
    /// it to the hooks, stamped with the serial clock after it: the
    /// settled clock, the block's compute cycles so far, the latency and
    /// overhead of the block's earlier accesses and its own latency.
    /// Every path that moves [`Vm::cycles`] settles the block first, so
    /// this is the stamp the block would give the access at its end.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn access<H: RuntimeHooks>(
        &mut self,
        hooks: &mut H,
        addr: Address,
        size: u64,
        kind: AccessKind,
        mem_pc: u64,
        method: MethodId,
        bc: u32,
    ) {
        if self.batch_len >= BATCH_CAP {
            self.settle_block();
        }
        self.batch_len += 1;
        let outcome = self.mem.access_pipelined(addr.0, size, kind);
        let ctx = AccessContext {
            pc: mem_pc,
            addr,
            outcome,
            cycles: self.cycles + self.block_cycles() + self.batch_extra + outcome.cycles,
            method,
            bytecode_index: bc,
        };
        let overhead = hooks.on_access(&ctx);
        self.monitor_cycles += overhead;
        self.batch_extra += outcome.cycles + overhead;
    }

    /// The block's compute cycles so far, `ceil(batch_mach / width)`.
    /// Baseline code retires `BASELINE_ISSUE_WIDTH` instructions per
    /// cycle, opt and region code `OPT_ISSUE_WIDTH`. A constant divisor
    /// compiles each division to a multiply.
    #[inline(always)]
    fn block_cycles(&self) -> u64 {
        match self.batch_width {
            BASELINE_ISSUE_WIDTH => self.batch_mach.div_ceil(BASELINE_ISSUE_WIDTH),
            OPT_ISSUE_WIDTH => self.batch_mach.div_ceil(OPT_ISSUE_WIDTH),
            w => unreachable!("no tier retires {w} instructions per cycle"),
        }
    }

    /// Settle the block: add its compute cycles and its accesses'
    /// latency and overhead to the clock, and start the next block.
    fn settle_block(&mut self) {
        self.cycles += self.block_cycles() + self.batch_extra;
        self.batch_mach = 0;
        self.batch_extra = 0;
        self.batch_len = 0;
    }

    /// Build the summary for the current state (used by `run`, callable
    /// after an error for partial results).
    #[must_use]
    pub fn summary(&self) -> RunSummary {
        let code_sizes = self
            .compiled
            .iter()
            .flatten()
            .map(|c| MethodCodeSizes {
                method: c.method,
                tier: c.tier,
                machine_code_bytes: c.machine_code_bytes(),
                gc_map_bytes: c.gc_map_bytes(),
                mc_map_bytes: c.mc_map().size_bytes(),
            })
            .collect();
        RunSummary {
            cycles: self.cycles,
            bytecodes_executed: self.bytecodes,
            monitor_cycles: self.monitor_cycles,
            gc_cycles: self.heap.stats().gc_cycles,
            compile_cycles: self.compile_cycles,
            mem: self.mem.stats(),
            gc: self.heap.stats(),
            code_sizes,
            opt_compiled: self
                .compiled
                .iter()
                .flatten()
                .filter(|c| c.tier != Tier::Baseline)
                .map(|c| c.method)
                .collect(),
            code_evictions: self.cache.evictions(),
            deopts: self.deopts,
        }
    }

    // ----- compilation ---------------------------------------------------

    fn ensure_compiled<H: RuntimeHooks>(&mut self, m: MethodId, hooks: &mut H) {
        if self.compiled[m.0 as usize].is_some() {
            return;
        }
        // A method the tier manager already promoted re-enters at its
        // promoted tier rather than repeating the ladder — this is how an
        // evicted hot method warms back up. With the default unbounded
        // cache nothing is ever evicted, so each method reaches here once,
        // before any promotion, and the plan is the only opt source.
        let planned = self.config.plan.as_ref().is_some_and(|p| p.contains(m));
        let tier = if self.tiers.region_compiled().contains(&m) {
            Tier::Region
        } else if planned || self.tiers.opt_compiled().contains(&m) {
            Tier::Opt
        } else {
            Tier::Baseline
        };
        self.install(m, tier, hooks);
    }

    fn recompile<H: RuntimeHooks>(&mut self, m: MethodId, hooks: &mut H) {
        self.install(m, Tier::Opt, hooks);
    }

    fn install<H: RuntimeHooks>(&mut self, m: MethodId, tier: Tier, hooks: &mut H) {
        let per_bc = match tier {
            Tier::Baseline => self.config.baseline_compile_cycles_per_bc,
            Tier::Opt | Tier::Region => self.config.opt_compile_cycles_per_bc,
        };
        let cost = per_bc * self.program.method(m).len() as u64;
        self.cycles += cost;
        self.compile_cycles += cost;
        // Retire the method's previous artifact first (bounded cache
        // only): its range becomes reusable, and any late sample carrying
        // a PC from it must resolve stale — never to the replacement.
        if let Some(old_start) = self.compiled[m.0 as usize].as_ref().map(|c| c.code_start) {
            if let Some(freed) = self.cache.free(m, old_start) {
                self.retire(freed, hooks);
            }
        }
        let bytes = compiled_code_bytes(self.program, m, tier);
        // Methods on the call stack (plus the one being installed) are
        // pinned: evicting a frame's running code would strand its
        // return pc.
        let mut pinned = std::mem::take(&mut self.pinned_scratch);
        pinned.clear();
        pinned.extend(self.frames.iter().map(|f| f.method));
        pinned.push(m);
        let mut evicted = std::mem::take(&mut self.evicted_scratch);
        let start = self
            .cache
            .alloc(m, tier, bytes, self.cycles, &pinned, &mut evicted);
        self.pinned_scratch = pinned;
        for fr in evicted.drain(..) {
            let ei = fr.method.0 as usize;
            self.compiled[ei] = None;
            self.decoded[ei] = None;
            self.retire(fr, hooks);
        }
        self.evicted_scratch = evicted;
        let (mut code, body) = self.build(m, tier, start);
        code.install_epoch = self.cache.epoch();
        hooks.on_compile(self.program, &code, cost, self.cycles);
        // The new body's inline-cache slots start cold, and bumping the
        // generation invalidates every call site linked to the previous
        // artifact.
        self.decoded[m.0 as usize] = Some(body);
        self.generations[m.0 as usize] = self.generations[m.0 as usize].wrapping_add(1);
        self.compiled[m.0 as usize] = Some(code);
    }

    /// The artifact and decoded body of `m` at `tier`, laid out at
    /// `start`: the kept build relocated, if there is one, or else a new
    /// compile and decode (kept from the second install at a kept tier
    /// on). Either way the host work is all that differs: the caller
    /// charges, counts and announces the install the same.
    fn build(&mut self, m: MethodId, tier: Tier, start: u64) -> (CompiledCode, DecodedMethod) {
        let slot = memo_slot(tier);
        let memo = &mut self.memo[m.0 as usize];
        if let Some((code, body)) = slot.and_then(|s| memo.built[s].as_ref()) {
            let (code, body) = (
                code.relocated(start),
                body.relocated(code.code_start, start),
            );
            #[cfg(test)]
            tests::reinstall::record(&code, &body, true, None);
            return (code, body);
        }
        let code = compile(self.program, m, tier, start, self.config.full_mcmaps);
        let region = (tier == Tier::Region).then(|| self.tiers.hot_region(m));
        let body = decode(self.program, &code, region.as_deref());
        #[cfg(test)]
        tests::reinstall::record(&code, &body, false, region.as_deref());
        if let Some(s) = slot {
            if memo.installed[s] {
                memo.built[s] = Some((code.clone(), body.clone()));
            }
            memo.installed[s] = true;
        }
        (code, body)
    }

    /// Tell the hooks to retire a freed code range from sample
    /// attribution.
    fn retire<H: RuntimeHooks>(&mut self, fr: FreedRange, hooks: &mut H) {
        hooks.on_code_retired(&fr, self.cache.live_bytes(), self.cycles);
    }

    // ----- frames ----------------------------------------------------------

    fn push_frame(&mut self, m: MethodId, argc: usize, overhead: u64) -> Result<(), VmError> {
        if self.frames.len() >= MAX_CALL_DEPTH {
            return Err(VmError::StackOverflow);
        }
        let locals_base = self.locals.len();
        let total_locals = self.program.method(m).locals() as usize;
        self.locals
            .resize(locals_base + total_locals, Value::Int(0));
        // Arguments were pushed left-to-right; pop them into locals.
        for i in (0..argc).rev() {
            self.locals[locals_base + i] = self.stack.pop().expect("verified arg count");
        }
        self.frames.push(Frame {
            method: m,
            pc: 0,
            locals_base,
            stack_base: self.stack.len(),
        });
        self.cycles += overhead;
        Ok(())
    }

    fn pop_frame(&mut self, ret: Option<Value>) {
        let f = self.frames.pop().expect("frame to pop");
        self.locals.truncate(f.locals_base);
        self.stack.truncate(f.stack_base);
        if let Some(v) = ret {
            self.stack.push(v);
        }
    }

    // ----- garbage collection ---------------------------------------------

    fn gather_roots(&self) -> Vec<Address> {
        let mut roots = Vec::with_capacity(16);
        self.collect_roots(&mut roots);
        roots
    }

    fn collect_roots(&self, roots: &mut Vec<Address>) {
        for v in self.statics.iter().chain(&self.locals).chain(&self.stack) {
            if let Value::Ref(a) = v {
                roots.push(*a);
            }
        }
    }

    fn scatter_roots(&mut self, roots: &[Address]) {
        let mut it = roots.iter();
        for v in self
            .statics
            .iter_mut()
            .chain(self.locals.iter_mut())
            .chain(self.stack.iter_mut())
        {
            if let Value::Ref(a) = v {
                *a = *it.next().expect("root count unchanged");
            }
        }
    }

    fn do_gc<H: RuntimeHooks>(&mut self, major: bool, hooks: &mut H) -> Result<(), VmError> {
        // Reuse one root buffer across collections so the GC entry path
        // allocates nothing after warm-up.
        let mut roots = std::mem::take(&mut self.roots_scratch);
        roots.clear();
        self.collect_roots(&mut roots);
        let collected = {
            let policy = hooks.coalloc_policy();
            if major {
                self.heap.collect_major(&mut roots, policy)
            } else {
                self.heap.collect_minor(&mut roots, policy)
            }
        };
        if let Err(e) = collected {
            self.roots_scratch = roots;
            return Err(e.into());
        }
        self.scatter_roots(&roots);
        if self.config.verify_heap_every_gc && self.heap.verify(&roots).is_err() {
            self.roots_scratch = roots;
            return Err(VmError::HeapCorrupt);
        }
        self.roots_scratch = roots;
        // A collection walks the whole live heap: model its cache and TLB
        // pollution by flushing the hierarchy.
        self.mem.flush();
        let stats = self.heap.stats();
        let delta = stats.gc_cycles - self.gc_cycles_seen;
        self.gc_cycles_seen = stats.gc_cycles;
        self.cycles += delta;
        hooks.on_gc(&stats, self.cycles);
        Ok(())
    }

    fn alloc_object_gc<H: RuntimeHooks>(
        &mut self,
        class: hpmopt_bytecode::ClassId,
        hooks: &mut H,
    ) -> Result<Address, VmError> {
        for _ in 0..3 {
            match self.heap.alloc_object(class) {
                Ok(a) => return Ok(a),
                Err(GcNeeded::Minor) => {
                    let major = !self.heap.minor_is_safe();
                    self.do_gc(major, hooks)?;
                }
                Err(GcNeeded::Major) => self.do_gc(true, hooks)?,
            }
        }
        Err(VmError::OutOfMemory)
    }

    fn alloc_array_gc<H: RuntimeHooks>(
        &mut self,
        kind: ElemKind,
        len: u64,
        hooks: &mut H,
    ) -> Result<Address, VmError> {
        for _ in 0..3 {
            match self.heap.alloc_array(kind, len) {
                Ok(a) => return Ok(a),
                Err(GcNeeded::Minor) => {
                    let major = !self.heap.minor_is_safe();
                    self.do_gc(major, hooks)?;
                }
                Err(GcNeeded::Major) => self.do_gc(true, hooks)?,
            }
        }
        Err(VmError::OutOfMemory)
    }

    // ----- the per-step reference engine (tests only) ------------------------

    /// Play a data access through the memory hierarchy and report it to
    /// the hooks; returns the latency-plus-overhead cycles.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    fn data_access<H: RuntimeHooks>(
        &mut self,
        addr: Address,
        size: u64,
        kind: AccessKind,
        mem_pc: u64,
        method: MethodId,
        bc: u32,
        hooks: &mut H,
    ) -> u64 {
        let outcome = self.mem.access(addr.0, size, kind);
        let ctx = AccessContext {
            pc: mem_pc,
            addr,
            outcome,
            cycles: self.cycles + outcome.cycles,
            method,
            bytecode_index: bc,
        };
        let overhead = hooks.on_access(&ctx);
        self.monitor_cycles += overhead;
        outcome.cycles + overhead
    }

    #[cfg(test)]
    #[allow(clippy::too_many_lines)]
    fn step<H: RuntimeHooks>(&mut self, hooks: &mut H) -> Result<(), VmError> {
        let frame = *self.frames.last().expect("running frame");
        let method = frame.method;
        let pc = frame.pc;
        let instr = self.program.method(method).body()[pc];
        let (mach_count, mem_pc, tier) = {
            let code = self.compiled[method.0 as usize]
                .as_ref()
                .expect("executing method is compiled");
            (u64::from(code.mach_count(pc)), code.mem_pc(pc), code.tier)
        };
        // Optimized code is register-allocated and retires
        // `OPT_ISSUE_WIDTH` machine instructions per cycle (the P4 is
        // superscalar); baseline code's operand-stack traffic serializes
        // to ~1 IPC. The memory instruction (last of the bytecode) adds
        // its hierarchy latency below on top.
        // The per-step engine never installs region code (tier-2
        // promotion is driven by the fast engine's back-edge counters);
        // a region artifact would cost like opt code here.
        let mut cycles = match tier {
            Tier::Baseline => mach_count,
            Tier::Opt | Tier::Region => mach_count.div_ceil(OPT_ISSUE_WIDTH),
        };
        let mut next_pc = pc + 1;
        let bc = pc as u32;

        macro_rules! binop_int {
            ($f:expr) => {{
                let b = self.pop()?.as_int()?;
                let a = self.pop()?.as_int()?;
                #[allow(clippy::redundant_closure_call)]
                self.stack.push(Value::Int($f(a, b)));
            }};
        }

        match instr {
            Instr::Const(v) => self.stack.push(Value::Int(v)),
            Instr::ConstNull => self.stack.push(Value::null()),
            Instr::Load(n) => {
                let v = self.locals[frame.locals_base + n as usize];
                self.stack.push(v);
            }
            Instr::Store(n) => {
                let v = self.pop()?;
                self.locals[frame.locals_base + n as usize] = v;
            }
            Instr::Dup => {
                let v = *self.stack.last().ok_or(VmError::TypeMismatch)?;
                self.stack.push(v);
            }
            Instr::Pop => {
                self.pop()?;
            }
            Instr::Swap => {
                let len = self.stack.len();
                self.stack.swap(len - 1, len - 2);
            }

            Instr::Add => binop_int!(|a: i64, b: i64| a.wrapping_add(b)),
            Instr::Sub => binop_int!(|a: i64, b: i64| a.wrapping_sub(b)),
            Instr::Mul => binop_int!(|a: i64, b: i64| a.wrapping_mul(b)),
            Instr::Div => {
                let b = self.pop()?.as_int()?;
                let a = self.pop()?.as_int()?;
                if b == 0 {
                    return Err(VmError::DivisionByZero);
                }
                self.stack.push(Value::Int(a.wrapping_div(b)));
            }
            Instr::Rem => {
                let b = self.pop()?.as_int()?;
                let a = self.pop()?.as_int()?;
                if b == 0 {
                    return Err(VmError::DivisionByZero);
                }
                self.stack.push(Value::Int(a.wrapping_rem(b)));
            }
            Instr::And => binop_int!(|a: i64, b: i64| a & b),
            Instr::Or => binop_int!(|a: i64, b: i64| a | b),
            Instr::Xor => binop_int!(|a: i64, b: i64| a ^ b),
            Instr::Shl => binop_int!(|a: i64, b: i64| a.wrapping_shl(b as u32 & 63)),
            Instr::Shr => binop_int!(|a: i64, b: i64| a.wrapping_shr(b as u32 & 63)),
            Instr::UShr => {
                binop_int!(|a: i64, b: i64| ((a as u64) >> (b as u32 & 63)) as i64)
            }
            Instr::Neg => {
                let a = self.pop()?.as_int()?;
                self.stack.push(Value::Int(a.wrapping_neg()));
            }

            Instr::Eq => binop_int!(|a, b| i64::from(a == b)),
            Instr::Ne => binop_int!(|a, b| i64::from(a != b)),
            Instr::Lt => binop_int!(|a, b| i64::from(a < b)),
            Instr::Le => binop_int!(|a, b| i64::from(a <= b)),
            Instr::Gt => binop_int!(|a, b| i64::from(a > b)),
            Instr::Ge => binop_int!(|a, b| i64::from(a >= b)),

            Instr::Jump(t) => next_pc = t as usize,
            Instr::JumpIf(t) => {
                if self.pop()?.as_int()? != 0 {
                    next_pc = t as usize;
                }
            }
            Instr::JumpIfNot(t) => {
                if self.pop()?.as_int()? == 0 {
                    next_pc = t as usize;
                }
            }

            Instr::New(class) => {
                let obj = self.alloc_object_gc(class, hooks)?;
                // Initializing the header touches the object's first line.
                cycles += self.data_access(obj, 8, AccessKind::Write, mem_pc, method, bc, hooks);
                self.stack.push(Value::Ref(obj));
            }
            Instr::NewArray(kind) => {
                let len = self.pop()?.as_int()?;
                if len < 0 {
                    return Err(VmError::IndexOutOfBounds);
                }
                let obj = self.alloc_array_gc(kind, len as u64, hooks)?;
                cycles += self.data_access(obj, 8, AccessKind::Write, mem_pc, method, bc, hooks);
                self.stack.push(Value::Ref(obj));
            }
            Instr::GetField(f) => {
                let obj = self.pop()?.as_ref_addr()?;
                if obj.is_null() {
                    return Err(VmError::NullPointer);
                }
                let info = self.program.field(f);
                let addr = self.heap.field_addr(obj, info.offset);
                cycles += self.data_access(addr, 8, AccessKind::Read, mem_pc, method, bc, hooks);
                let raw = self.heap.get_field(obj, info.offset);
                self.stack.push(if info.ty.is_ref() {
                    Value::Ref(Address(raw))
                } else {
                    Value::Int(raw as i64)
                });
            }
            Instr::PutField(f) => {
                let v = self.pop()?;
                let obj = self.pop()?.as_ref_addr()?;
                if obj.is_null() {
                    return Err(VmError::NullPointer);
                }
                let info = self.program.field(f);
                let addr = self.heap.field_addr(obj, info.offset);
                cycles += self.data_access(addr, 8, AccessKind::Write, mem_pc, method, bc, hooks);
                let (raw, is_ref) = match v {
                    Value::Ref(a) => (a.0, true),
                    Value::Int(i) => (i as u64, false),
                };
                if is_ref != info.ty.is_ref() {
                    return Err(VmError::TypeMismatch);
                }
                self.heap.set_field(obj, info.offset, raw, is_ref);
            }
            Instr::GetStatic(s) => {
                let addr = Address(STATICS_BASE + 8 * u64::from(s.0));
                cycles += self.data_access(addr, 8, AccessKind::Read, mem_pc, method, bc, hooks);
                self.stack.push(self.statics[s.0 as usize]);
            }
            Instr::PutStatic(s) => {
                let v = self.pop()?;
                let addr = Address(STATICS_BASE + 8 * u64::from(s.0));
                cycles += self.data_access(addr, 8, AccessKind::Write, mem_pc, method, bc, hooks);
                self.statics[s.0 as usize] = v;
            }
            Instr::ArrayGet(kind) => {
                let idx = self.pop()?.as_int()?;
                let arr = self.pop()?.as_ref_addr()?;
                if arr.is_null() {
                    return Err(VmError::NullPointer);
                }
                let len = self.heap.array_len(arr);
                if idx < 0 || idx as u64 >= len {
                    return Err(VmError::IndexOutOfBounds);
                }
                let addr = self.heap.elem_addr(arr, kind, idx as u64);
                cycles += self.data_access(
                    addr,
                    kind.width(),
                    AccessKind::Read,
                    mem_pc,
                    method,
                    bc,
                    hooks,
                );
                let raw = self.heap.array_get(arr, kind, idx as u64);
                self.stack.push(if kind.is_ref() {
                    Value::Ref(Address(raw))
                } else {
                    Value::Int(raw as i64)
                });
            }
            Instr::ArraySet(kind) => {
                let v = self.pop()?;
                let idx = self.pop()?.as_int()?;
                let arr = self.pop()?.as_ref_addr()?;
                if arr.is_null() {
                    return Err(VmError::NullPointer);
                }
                let len = self.heap.array_len(arr);
                if idx < 0 || idx as u64 >= len {
                    return Err(VmError::IndexOutOfBounds);
                }
                let raw = match (kind.is_ref(), v) {
                    (true, Value::Ref(a)) => a.0,
                    (false, Value::Int(i)) => i as u64,
                    _ => return Err(VmError::TypeMismatch),
                };
                let addr = self.heap.elem_addr(arr, kind, idx as u64);
                cycles += self.data_access(
                    addr,
                    kind.width(),
                    AccessKind::Write,
                    mem_pc,
                    method,
                    bc,
                    hooks,
                );
                self.heap.array_set(arr, kind, idx as u64, raw);
            }
            Instr::ArrayLen => {
                let arr = self.pop()?.as_ref_addr()?;
                if arr.is_null() {
                    return Err(VmError::NullPointer);
                }
                // The length lives in the header line.
                cycles += self.data_access(arr, 8, AccessKind::Read, mem_pc, method, bc, hooks);
                self.stack.push(Value::Int(self.heap.array_len(arr) as i64));
            }
            Instr::IsNull => {
                let a = self.pop()?.as_ref_addr()?;
                self.stack.push(Value::Int(i64::from(a.is_null())));
            }
            Instr::RefEq => {
                let b = self.pop()?.as_ref_addr()?;
                let a = self.pop()?.as_ref_addr()?;
                self.stack.push(Value::Int(i64::from(a == b)));
            }

            Instr::Call(callee) => {
                self.ensure_compiled(callee, hooks);
                let argc = self.program.method(callee).params() as usize;
                // Advance the caller's pc *before* pushing the new frame.
                self.frames.last_mut().expect("caller frame").pc = next_pc;
                self.cycles += cycles;
                self.push_frame(callee, argc, CALL_OVERHEAD_CYCLES)?;
                return Ok(());
            }
            Instr::Return => {
                self.cycles += cycles;
                self.pop_frame(None);
                return Ok(());
            }
            Instr::ReturnVal => {
                let v = self.pop()?;
                self.cycles += cycles;
                self.pop_frame(Some(v));
                return Ok(());
            }
        }

        self.cycles += cycles;
        self.frames.last_mut().expect("current frame").pc = next_pc;
        Ok(())
    }

    #[inline]
    fn pop(&mut self) -> Result<Value, VmError> {
        self.stack.pop().ok_or(VmError::TypeMismatch)
    }

    #[inline]
    fn pop_int(&mut self) -> Result<i64, VmError> {
        self.pop()?.as_int()
    }

    #[inline]
    fn pop_ref(&mut self) -> Result<Address, VmError> {
        self.pop()?.as_ref_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;
    use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
    use hpmopt_bytecode::FieldType;

    /// Run `program` under `cfg` on [`Vm::run`] and on the per-step
    /// reference engine, both with [`NoHooks`], and return the shipped
    /// run. The engines must stop the same way. Unless the stop is a
    /// `CycleBudget` kill, whose point is on the clock and so differs by
    /// design, they must also agree on the bytecode count, the frames
    /// they stopped in and the state digest.
    fn run_checked(program: &Program, cfg: VmConfig) -> (Vm<'_>, Result<RunSummary, VmError>) {
        let mut reference = Vm::new(program, cfg.clone());
        let expected = reference
            .prologue(&mut NoHooks)
            .and_then(|()| reference.run_slow(&mut NoHooks));
        let mut vm = Vm::new(program, cfg);
        let got = vm.run(&mut NoHooks);
        assert_eq!(
            got.as_ref().err(),
            expected.as_ref().err(),
            "the engines stop the same way"
        );
        if !matches!(got, Err(VmError::CycleBudget)) {
            assert_eq!(vm.bytecodes, reference.bytecodes, "bytecode counts agree");
            assert_eq!(
                vm.backtrace(),
                reference.backtrace(),
                "the engines stop in the same frames"
            );
            assert_eq!(
                vm.state_digest(),
                reference.state_digest(),
                "the engines agree on program state"
            );
        }
        (vm, got)
    }

    fn run_program(program: &Program) -> RunSummary {
        run_checked(program, VmConfig::test())
            .1
            .expect("program runs")
    }

    fn run_expect_err(program: &Program) -> VmError {
        run_checked(program, VmConfig::test())
            .1
            .expect_err("program must fail")
    }

    /// Program that stores `expr_result` into static 0 and returns.
    fn expr_program(build: impl FnOnce(&mut MethodBuilder)) -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.add_static("result", FieldType::Int);
        let mut m = MethodBuilder::new("main", 0, 4, false);
        build(&mut m);
        m.put_static(g);
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    fn eval(build: impl FnOnce(&mut MethodBuilder)) -> i64 {
        let p = expr_program(build);
        let (vm, r) = run_checked(&p, VmConfig::test());
        r.unwrap();
        vm.statics[0].as_int().unwrap()
    }

    #[test]
    fn compile_cycles_charged_when_costs_set() {
        let p = expr_program(|m| {
            m.const_i(1);
        });
        let free = run_program(&p);
        assert_eq!(free.compile_cycles, 0, "compilation is free by default");

        let mut cfg = VmConfig::test();
        cfg.baseline_compile_cycles_per_bc = 25;
        let charged = run_checked(&p, cfg).1.unwrap();
        let expected = 25 * p.method(p.entry()).len() as u64;
        assert_eq!(charged.compile_cycles, expected);
        assert_eq!(charged.cycles, free.cycles + expected);
    }

    #[test]
    fn arithmetic_works() {
        assert_eq!(
            eval(|m| {
                m.const_i(6);
                m.const_i(7);
                m.mul();
            }),
            42
        );
        assert_eq!(
            eval(|m| {
                m.const_i(7);
                m.const_i(2);
                m.rem();
            }),
            1
        );
        assert_eq!(
            eval(|m| {
                m.const_i(-8);
                m.const_i(1);
                m.ushr();
            }),
            ((-8i64) as u64 >> 1) as i64
        );
    }

    #[test]
    fn comparison_and_branching() {
        // result = sum of 0..10
        assert_eq!(
            eval(|m| {
                m.const_i(0);
                m.store(0);
                m.for_loop(
                    1,
                    |m| {
                        m.const_i(10);
                    },
                    |m| {
                        m.load(0);
                        m.load(1);
                        m.add();
                        m.store(0);
                    },
                );
                m.load(0);
            }),
            45
        );
    }

    #[test]
    fn division_by_zero_traps() {
        let p = expr_program(|m| {
            m.const_i(1);
            m.const_i(0);
            m.div();
        });
        assert_eq!(run_expect_err(&p), VmError::DivisionByZero);
    }

    #[test]
    fn field_round_trip_through_heap() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("Box", &[("v", FieldType::Int)]);
        let f = pb.field_id(c, "v").unwrap();
        let g = pb.add_static("result", FieldType::Int);
        let mut m = MethodBuilder::new("main", 0, 1, false);
        m.new_object(c);
        m.store(0);
        m.load(0);
        m.const_i(31);
        m.put_field(f);
        m.load(0);
        m.get_field(f);
        m.put_static(g);
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        let (vm, r) = run_checked(&p, VmConfig::test());
        r.unwrap();
        assert_eq!(vm.statics[0], Value::Int(31));
    }

    #[test]
    fn null_dereference_traps() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("Box", &[("v", FieldType::Int)]);
        let f = pb.field_id(c, "v").unwrap();
        let mut m = MethodBuilder::new("main", 0, 0, false);
        m.const_null();
        m.get_field(f);
        m.pop();
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        assert_eq!(run_expect_err(&p), VmError::NullPointer);
    }

    #[test]
    fn array_bounds_checked() {
        let mut pb = ProgramBuilder::new();
        let mut m = MethodBuilder::new("main", 0, 1, false);
        m.const_i(4);
        m.new_array(ElemKind::I32);
        m.store(0);
        m.load(0);
        m.const_i(4);
        m.array_get(ElemKind::I32);
        m.pop();
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        assert_eq!(run_expect_err(&p), VmError::IndexOutOfBounds);
    }

    #[test]
    fn array_elements_round_trip() {
        assert_eq!(
            eval(|m| {
                m.const_i(8);
                m.new_array(ElemKind::I16);
                m.store(0);
                m.load(0);
                m.const_i(3);
                m.const_i(77);
                m.array_set(ElemKind::I16);
                m.load(0);
                m.const_i(3);
                m.array_get(ElemKind::I16);
            }),
            77
        );
    }

    #[test]
    fn calls_pass_arguments_and_return_values() {
        let mut pb = ProgramBuilder::new();
        let g = pb.add_static("result", FieldType::Int);
        let mut add3 = MethodBuilder::new("add3", 3, 0, true);
        add3.load(0);
        add3.load(1);
        add3.add();
        add3.load(2);
        add3.add();
        add3.ret_val();
        let add3 = pb.add_method(add3);
        let mut m = MethodBuilder::new("main", 0, 0, false);
        m.const_i(1);
        m.const_i(2);
        m.const_i(3);
        m.call(add3);
        m.put_static(g);
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        let (vm, r) = run_checked(&p, VmConfig::test());
        r.unwrap();
        assert_eq!(vm.statics[0], Value::Int(6));
    }

    #[test]
    fn recursion_works() {
        let mut pb = ProgramBuilder::new();
        let g = pb.add_static("result", FieldType::Int);
        let fib = pb.declare_method("fib", 1, true);
        let mut m = MethodBuilder::new("fib", 1, 0, true);
        let base = m.label();
        m.load(0);
        m.const_i(2);
        m.lt();
        m.jump_if(base);
        m.load(0);
        m.const_i(1);
        m.sub();
        m.call(fib);
        m.load(0);
        m.const_i(2);
        m.sub();
        m.call(fib);
        m.add();
        m.ret_val();
        m.bind(base);
        m.load(0);
        m.ret_val();
        pb.define_method(fib, m);
        let mut main = MethodBuilder::new("main", 0, 0, false);
        main.const_i(12);
        main.call(fib);
        main.put_static(g);
        main.ret();
        let id = pb.add_method(main);
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        let (vm, r) = run_checked(&p, VmConfig::test());
        r.unwrap();
        assert_eq!(vm.statics[0], Value::Int(144));
    }

    /// `main` calls `down(depth)`, which recurses until its argument is
    /// 0: `depth + 2` frames at the deepest point.
    fn descent_program(depth: usize) -> Program {
        let mut pb = ProgramBuilder::new();
        let down = pb.declare_method("down", 1, false);
        let mut m = MethodBuilder::new("down", 1, 0, false);
        let bottom = m.label();
        m.load(0);
        m.jump_if_not(bottom);
        m.load(0);
        m.const_i(1);
        m.sub();
        m.call(down);
        m.bind(bottom);
        m.ret();
        pb.define_method(down, m);
        let mut main = MethodBuilder::new("main", 0, 0, false);
        main.const_i(depth as i64);
        main.call(down);
        main.ret();
        let id = pb.add_method(main);
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    #[test]
    fn call_depth_is_capped_at_max_call_depth() {
        let deepest = descent_program(MAX_CALL_DEPTH - 2);
        run_checked(&deepest, VmConfig::test())
            .1
            .expect("MAX_CALL_DEPTH frames fit");
        let too_deep = descent_program(MAX_CALL_DEPTH - 1);
        let (vm, r) = run_checked(&too_deep, VmConfig::test());
        assert_eq!(r.unwrap_err(), VmError::StackOverflow);
        assert_eq!(vm.backtrace().len(), MAX_CALL_DEPTH);
    }

    #[test]
    fn gc_triggered_by_allocation_preserves_live_data() {
        // Allocate a linked list bigger than the nursery, keeping the head
        // in a static; verify the list afterwards.
        let mut pb = ProgramBuilder::new();
        let node = pb.add_class("Node", &[("next", FieldType::Ref), ("v", FieldType::Int)]);
        let next = pb.field_id(node, "next").unwrap();
        let val = pb.field_id(node, "v").unwrap();
        let head = pb.add_static("head", FieldType::Ref);
        let g = pb.add_static("result", FieldType::Int);

        let mut m = MethodBuilder::new("main", 0, 3, false);
        // Build 5000 nodes (~200 KB > 64 KB nursery), each prepended.
        m.const_null();
        m.put_static(head);
        m.for_loop(
            0,
            |m| {
                m.const_i(5000);
            },
            |m| {
                m.new_object(node); // fresh node
                m.store(1);
                m.load(1);
                m.get_static(head);
                m.put_field(next);
                m.load(1);
                m.load(0);
                m.put_field(val);
                m.load(1);
                m.put_static(head);
            },
        );
        // Sum the list.
        m.const_i(0);
        m.store(2);
        m.get_static(head);
        m.store(1);
        let loop_top = m.label();
        let done = m.label();
        m.bind(loop_top);
        m.load(1);
        m.is_null();
        m.jump_if(done);
        m.load(2);
        m.load(1);
        m.get_field(val);
        m.add();
        m.store(2);
        m.load(1);
        m.get_field(next);
        m.store(1);
        m.jump(loop_top);
        m.bind(done);
        m.load(2);
        m.put_static(g);
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        let p = pb.finish().unwrap();

        let (vm, summary) = run_checked(&p, VmConfig::test());
        let summary = summary.unwrap();
        assert_eq!(vm.statics[1], Value::Int((0..5000).sum::<i64>()));
        assert!(summary.gc.minor_collections > 0, "nursery overflowed");
        // Everything allocated before the last collection was live (the
        // list is fully reachable), so most nodes were promoted; the tail
        // allocated after the final collection stays in the nursery.
        assert!(summary.gc.objects_promoted >= 1000);
    }

    #[test]
    fn aos_recompiles_hot_method() {
        // A long-running loop gets its method opt-compiled by the timer.
        let p = expr_program(|m| {
            m.const_i(0);
            m.store(0);
            m.for_loop(
                1,
                |m| {
                    m.const_i(200_000);
                },
                |m| {
                    m.load(0);
                    m.const_i(1);
                    m.add();
                    m.store(0);
                },
            );
            m.load(0);
        });
        let summary = run_program(&p);
        assert!(
            !summary.opt_compiled.is_empty(),
            "main should become hot and be recompiled"
        );
        // Two artifacts for main: baseline + opt.
        assert_eq!(summary.code_sizes.len(), 1, "summary reports current tier");
        assert_eq!(summary.code_sizes[0].tier, Tier::Opt);
    }

    #[test]
    fn pseudo_adaptive_plan_pins_opt_methods() {
        let p = expr_program(|m| {
            m.const_i(1);
        });
        let entry = p.entry();
        let mut cfg = VmConfig::test();
        cfg.plan = Some(crate::CompilationPlan::new(vec![entry]));
        cfg.jit.tier1_enabled = false;
        let summary = run_checked(&p, cfg).1.unwrap();
        assert_eq!(summary.opt_compiled, vec![entry]);
    }

    #[test]
    fn opt_code_runs_faster_than_baseline() {
        let body = |m: &mut MethodBuilder| {
            m.const_i(0);
            m.store(0);
            m.for_loop(
                1,
                |m| {
                    m.const_i(50_000);
                },
                |m| {
                    m.load(0);
                    m.const_i(3);
                    m.add();
                    m.store(0);
                },
            );
            m.load(0);
        };
        let p = expr_program(body);
        let entry = p.entry();

        let mut base_cfg = VmConfig::test();
        base_cfg.jit.tier1_enabled = false;
        let base = run_checked(&p, base_cfg).1.unwrap();

        let mut opt_cfg = VmConfig::test();
        opt_cfg.jit.tier1_enabled = false;
        opt_cfg.plan = Some(crate::CompilationPlan::new(vec![entry]));
        let opt = run_checked(&p, opt_cfg).1.unwrap();

        assert!(
            opt.cycles < base.cycles,
            "opt {} vs baseline {}",
            opt.cycles,
            base.cycles
        );
        assert_eq!(opt.bytecodes_executed, base.bytecodes_executed);
    }

    /// A hot loop summing `0..n` into static 0 via local 0.
    fn hot_loop_program(n: i64) -> Program {
        expr_program(move |m| {
            m.const_i(0);
            m.store(0);
            m.for_loop(
                1,
                move |m| {
                    m.const_i(n);
                },
                |m| {
                    m.load(0);
                    m.load(1);
                    m.add();
                    m.store(0);
                },
            );
            m.load(0);
        })
    }

    // Tier-2 back-edge promotion and region execution live in the fast
    // pre-decoded engine; the per-step reference engine never promotes,
    // so in the two region tests below it checks only the semantics.
    #[test]
    fn tier2_promotes_hot_loop_and_beats_opt_code() {
        let p = hot_loop_program(5_000);
        let entry = p.entry();
        let run_with = |tier2: bool| {
            let mut cfg = VmConfig::test();
            cfg.jit.tier1_enabled = false;
            cfg.jit.tier2_enabled = tier2;
            cfg.jit.tier2_threshold = 100;
            cfg.plan = Some(crate::CompilationPlan::new(vec![entry]));
            let (vm, s) = run_checked(&p, cfg);
            let s = s.unwrap();
            let v = vm.statics[0].as_int().unwrap();
            (s, v, vm.state_digest())
        };
        let (opt, v_opt, d_opt) = run_with(false);
        let (reg, v_reg, d_reg) = run_with(true);
        assert_eq!(v_reg, (0..5_000).sum::<i64>());
        assert_eq!(v_reg, v_opt);
        assert_eq!(d_reg, d_opt, "tiering is a cost-model lever");
        assert_eq!(reg.bytecodes_executed, opt.bytecodes_executed);
        assert_eq!(opt.deopts, 0, "tier 2 off never deoptimizes");
        // The region covers the loop but not the exit path, so leaving
        // the loop deoptimizes exactly once — after ~4900 iterations ran
        // as region code, which must beat pure opt code overall.
        assert_eq!(reg.deopts, 1);
        assert!(
            reg.cycles < opt.cycles,
            "region {} vs opt {}",
            reg.cycles,
            opt.cycles
        );
        // Post-deopt the method is back at baseline.
        assert_eq!(reg.code_sizes[0].tier, Tier::Baseline);
        assert!(reg.opt_compiled.is_empty());
    }

    #[test]
    fn tiny_region_cap_deopts_immediately_and_preserves_semantics() {
        let p = hot_loop_program(2_000);
        let entry = p.entry();
        let mut cfg = VmConfig::test();
        cfg.jit.tier1_enabled = false;
        cfg.jit.tier2_enabled = true;
        cfg.jit.tier2_threshold = 50;
        cfg.jit.max_region_blocks = 1;
        cfg.plan = Some(crate::CompilationPlan::new(vec![entry]));
        let (vm, s) = run_checked(&p, cfg);
        let s = s.unwrap();
        // A one-block region cannot hold the loop: the first out-of-
        // region bytecode deopts, the method is banned from tier 2, and
        // the program still computes the right answer.
        assert_eq!(s.deopts, 1);
        assert_eq!(vm.statics[0].as_int().unwrap(), (0..2_000).sum::<i64>());
    }

    /// Three helper methods invoked round-robin from a loop, so a small
    /// code cache must evict helpers while they are off-stack.
    fn round_robin_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.add_static("acc", FieldType::Int);
        let mut helpers = Vec::new();
        for (name, k) in [("f", 1), ("g", 3), ("h", 7)] {
            let mut h = MethodBuilder::new(name, 1, 0, true);
            h.load(0);
            h.const_i(k);
            h.add();
            h.ret_val();
            helpers.push(pb.add_method(h));
        }
        let mut m = MethodBuilder::new("main", 0, 2, false);
        m.const_i(0);
        m.store(1);
        m.for_loop(
            0,
            |m| {
                m.const_i(60);
            },
            |m| {
                for &h in &helpers {
                    m.load(1);
                    m.call(h);
                    m.store(1);
                }
            },
        );
        m.load(1);
        m.put_static(g);
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    #[test]
    fn bounded_cache_evicts_and_matches_unbounded_results() {
        let p = round_robin_program();
        let run_with = |capacity: Option<u64>| {
            let mut cfg = VmConfig::test();
            cfg.jit.tier1_enabled = false;
            cfg.jit.code_cache_capacity_bytes = capacity;
            let (vm, s) = run_checked(&p, cfg);
            let s = s.unwrap();
            let v = vm.statics[0].as_int().unwrap();
            (vm.state_digest(), v, s.code_evictions, s.bytecodes_executed)
        };
        let (d_unbounded, v_unbounded, evictions_unbounded, bc_unbounded) = run_with(None);
        assert_eq!(evictions_unbounded, 0, "unbounded cache never evicts");
        assert_eq!(v_unbounded, 60 * (1 + 3 + 7));
        // Room for main plus roughly one helper: every other helper call
        // re-installs over an evicted neighbour's range.
        let (d_bounded, v_bounded, evictions_bounded, bc_bounded) = run_with(Some(256));
        assert!(
            evictions_bounded > 0,
            "capacity pressure must evict at least once"
        );
        assert_eq!(d_bounded, d_unbounded, "eviction never changes semantics");
        assert_eq!(v_bounded, v_unbounded);
        assert_eq!(bc_bounded, bc_unbounded);
    }

    #[test]
    fn step_limit_guards_infinite_loops() {
        let mut pb = ProgramBuilder::new();
        let mut m = MethodBuilder::new("main", 0, 0, false);
        let top = m.label();
        m.bind(top);
        m.jump(top);
        let id = pb.add_method(m);
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        let mut cfg = VmConfig::test();
        cfg.step_limit = Some(10_000);
        assert_eq!(run_checked(&p, cfg).1.unwrap_err(), VmError::StepLimit);
    }

    #[test]
    fn cycle_budget_kills_runaway_deterministically() {
        let mut pb = ProgramBuilder::new();
        let mut m = MethodBuilder::new("main", 0, 0, false);
        let top = m.label();
        m.bind(top);
        m.jump(top);
        let id = pb.add_method(m);
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        let run = || {
            let mut cfg = VmConfig::test();
            cfg.step_limit = None;
            cfg.cycle_budget = Some(100_000);
            let (vm, r) = run_checked(&p, cfg);
            (r.unwrap_err(), vm.cycles)
        };
        let (err, cycles) = run();
        assert_eq!(err, VmError::CycleBudget);
        let (err2, cycles2) = run();
        assert_eq!(err2, VmError::CycleBudget);
        assert_eq!(cycles, cycles2, "the kill point is on the simulated clock");
    }

    #[test]
    fn cancel_token_stops_the_run_at_a_poll_boundary() {
        let mut pb = ProgramBuilder::new();
        let mut m = MethodBuilder::new("main", 0, 0, false);
        let top = m.label();
        m.bind(top);
        m.jump(top);
        let id = pb.add_method(m);
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        let token = CancelToken::new();
        // Pre-cancelled: the first poll boundary notices and aborts the
        // otherwise infinite loop without needing a second thread.
        token.cancel();
        assert!(token.is_cancelled());
        let mut cfg = VmConfig::test();
        cfg.step_limit = None;
        cfg.cancel = Some(token);
        assert_eq!(run_checked(&p, cfg).1.unwrap_err(), VmError::Cancelled);
    }

    #[test]
    fn run_summary_accounts_memory_and_code() {
        let p = expr_program(|m| {
            m.const_i(16);
            m.new_array(ElemKind::I64);
            m.array_len();
        });
        let s = run_program(&p);
        assert!(s.mem.accesses > 0);
        assert!(s.total_machine_code_bytes() > 0);
        assert!(s.total_mc_map_bytes() > s.total_gc_map_bytes());
        assert_eq!(s.gc.objects_allocated, 1);
    }

    /// A program whose `bump` helper has `GetField`/`PutField` sites
    /// that see two different receiver classes on alternating calls.
    /// The classes declare a field named `v` at *different* offsets, so
    /// a correctness bug in inline-cache keying or invalidation (e.g.
    /// serving the cached class's offset to the other class) would
    /// change the computed values, not just the cycle count.
    fn polymorphic_field_site_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A", &[("v", FieldType::Int), ("w", FieldType::Int)]);
        let b = pb.add_class(
            "B",
            &[
                ("pad0", FieldType::Int),
                ("pad1", FieldType::Int),
                ("v", FieldType::Int),
            ],
        );
        let fa = pb.field_id(a, "v").unwrap();
        let g = pb.add_static("acc", FieldType::Int);

        // bump(o) -> int: o.{site} += 1 through one static field id;
        // the receiver's class alternates between calls.
        let mut bump = MethodBuilder::new("bump", 1, 0, true);
        bump.load(0);
        bump.load(0);
        bump.get_field(fa);
        bump.const_i(1);
        bump.add();
        bump.put_field(fa);
        bump.load(0);
        bump.get_field(fa);
        bump.ret_val();
        let bump_id = pb.add_method(bump);

        let mut m = MethodBuilder::new("main", 0, 3, false);
        m.new_object(a);
        m.store(0);
        m.new_object(b);
        m.store(1);
        m.for_loop(
            2,
            |m| {
                m.const_i(100);
            },
            |m| {
                m.load(0);
                m.call(bump_id);
                m.pop();
                m.load(1);
                m.call(bump_id);
                m.pop();
            },
        );
        m.load(0);
        m.call(bump_id);
        m.load(1);
        m.call(bump_id);
        m.add();
        m.put_static(g);
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    #[test]
    fn polymorphic_inline_cache_site_is_semantics_free() {
        let p = polymorphic_field_site_program();
        let run_with = |ic: bool| {
            let mut cfg = VmConfig::test();
            cfg.inline_caches = ic;
            let (vm, s) = run_checked(&p, cfg);
            let s = s.unwrap();
            let acc = vm.statics[0].as_int().unwrap();
            (vm.state_digest(), acc, s.cycles, s.bytecodes_executed)
        };
        let (digest_on, acc_on, cycles_on, bc_on) = run_with(true);
        let (digest_off, acc_off, cycles_off, bc_off) = run_with(false);

        // 101 increments against each receiver; the A.v field id resolves
        // to B's first padding slot on B receivers, which is fine — the
        // offsets are static, only the IC key varies.
        assert_eq!(acc_on, 202);
        assert_eq!(acc_on, acc_off);
        assert_eq!(
            digest_on, digest_off,
            "inline caches are a cost-model lever; state must be identical"
        );
        assert_eq!(bc_on, bc_off);
        // The alternating field sites re-key every call (no hit to win),
        // but the monomorphic call sites still link, so the cached run
        // can never be slower.
        assert!(
            cycles_on <= cycles_off,
            "IC on {cycles_on} vs off {cycles_off}"
        );
    }

    #[test]
    fn slow_and_fast_engines_agree_on_state() {
        let programs = [
            polymorphic_field_site_program(),
            expr_program(|m| {
                // Allocation churn so both engines cross GC and block
                // boundaries, not just arithmetic.
                m.for_loop(
                    1,
                    |m| {
                        m.const_i(500);
                    },
                    |m| {
                        m.const_i(64);
                        m.new_array(ElemKind::I64);
                        m.pop();
                    },
                );
                m.load(1);
            }),
        ];
        for (i, p) in programs.iter().enumerate() {
            let run_engine = |slow: bool| {
                let mut vm = Vm::new(p, VmConfig::test());
                vm.prologue(&mut NoHooks).unwrap();
                if slow {
                    vm.run_slow(&mut NoHooks).unwrap();
                } else {
                    vm.run_fast(&mut NoHooks).unwrap();
                }
                (vm.state_digest(), vm.bytecodes, vm.cycles)
            };
            let (slow_digest, slow_bc, slow_cycles) = run_engine(true);
            let (fast_digest, fast_bc, fast_cycles) = run_engine(false);
            assert_eq!(
                slow_digest, fast_digest,
                "program {i}: engines must agree on program state"
            );
            assert_eq!(slow_bc, fast_bc, "program {i}: bytecode counts agree");
            assert!(
                fast_cycles <= slow_cycles,
                "program {i}: the flattened engine never charges more \
                 ({fast_cycles} vs {slow_cycles})"
            );
        }
    }

    /// A loop calling a helper that bumps a field of one object: calls,
    /// returns, heap accesses and back edges, so the per-bytecode
    /// epilogue runs after every kind of op.
    fn field_bump_loop(iters: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let node = pb.add_class("Node", &[("v", FieldType::Int)]);
        let v = pb.field_id(node, "v").unwrap();
        let g = pb.add_static("result", FieldType::Int);
        let mut bump = MethodBuilder::new("bump", 1, 0, true);
        bump.load(0);
        bump.load(0);
        bump.get_field(v);
        bump.const_i(1);
        bump.add();
        bump.put_field(v);
        bump.load(0);
        bump.get_field(v);
        bump.ret_val();
        let bump_id = pb.add_method(bump);
        let mut m = MethodBuilder::new("main", 0, 2, false);
        m.new_object(node);
        m.store(0);
        m.for_loop(
            1,
            move |m| {
                m.const_i(iters);
            },
            |m| {
                m.load(0);
                m.call(bump_id);
                m.pop();
            },
        );
        m.load(0);
        m.get_field(v);
        m.put_static(g);
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    fn pin_config(tier1: bool) -> VmConfig {
        let mut cfg = VmConfig::test();
        cfg.jit.tier1_enabled = tier1;
        cfg.step_limit = None;
        cfg
    }

    #[test]
    fn step_limit_fires_one_bytecode_past_the_limit() {
        let p = field_bump_loop(1_000_000);
        for tier1 in [false, true] {
            for limit in [1, 4_095, 4_096, 4_097, 10_000, 123_457] {
                let mut cfg = pin_config(tier1);
                cfg.step_limit = Some(limit);
                let (vm, r) = run_checked(&p, cfg);
                assert_eq!(r.unwrap_err(), VmError::StepLimit);
                assert_eq!(vm.bytecodes, limit + 1, "tier1 {tier1}, limit {limit}");
            }
        }
    }

    /// A reinstall served from the per-run memo must be indistinguishable
    /// from a fresh build at the same start.
    pub(super) mod reinstall {
        use super::*;
        use crate::predecode::IC_EMPTY;
        use std::cell::RefCell;
        use std::collections::{HashMap, HashSet};

        /// One install, as `Vm::build` handed it over.
        struct Installed {
            code: CompiledCode,
            body: DecodedMethod,
            /// Relocated from the memo rather than compiled and decoded.
            reused: bool,
            /// The hot-block set a region body was decoded with.
            region: Option<Vec<u32>>,
        }

        thread_local! {
            /// The installs of the run in progress under [`installs`].
            static LOG: RefCell<Option<Vec<Installed>>> = const { RefCell::new(None) };
        }

        pub(in crate::interp) fn record(
            code: &CompiledCode,
            body: &DecodedMethod,
            reused: bool,
            region: Option<&[u32]>,
        ) {
            LOG.with(|log| {
                if let Some(log) = log.borrow_mut().as_mut() {
                    log.push(Installed {
                        code: code.clone(),
                        body: body.clone(),
                        reused,
                        region: region.map(<[u32]>::to_vec),
                    });
                }
            });
        }

        /// Run `p` under `cfg` and return every install it made.
        fn installs(p: &Program, cfg: VmConfig) -> Vec<Installed> {
            LOG.with(|log| *log.borrow_mut() = Some(Vec::new()));
            let run = Vm::new(p, cfg).run(&mut NoHooks);
            let log = LOG.with(|log| log.borrow_mut().take()).unwrap_or_default();
            run.expect("program completes");
            log
        }

        /// Four helpers, called round-robin from a loop, that each bump a
        /// field of one object `n` times and return from inside their
        /// loop: a region over the loop then never deopts, so a small
        /// code cache evicts helpers at every tier while another runs.
        fn churn_program() -> Program {
            let mut pb = ProgramBuilder::new();
            let node = pb.add_class("Node", &[("v", FieldType::Int)]);
            let v = pb.field_id(node, "v").unwrap();
            let acc = pb.add_static("acc", FieldType::Int);
            let mut helpers = Vec::new();
            for (name, k) in [("f", 1), ("g", 3), ("h", 7), ("k", 9)] {
                // name(o, n): o.v += k, n + 1 times; return o.v.
                let mut h = MethodBuilder::new(name, 2, 1, true);
                let (top, more) = (h.label(), h.label());
                h.bind(top);
                h.load(0).load(0).get_field(v).const_i(k).add().put_field(v);
                h.load(2).load(1).ge().jump_if_not(more);
                h.load(0).get_field(v).ret_val();
                h.bind(more);
                h.load(2).const_i(1).add().store(2);
                h.jump(top);
                helpers.push(pb.add_method(h));
            }
            let mut m = MethodBuilder::new("main", 0, 2, false);
            m.new_object(node).store(1);
            m.for_loop(
                0,
                |m| {
                    m.const_i(120);
                },
                |m| {
                    for &h in &helpers {
                        m.load(1).const_i(6).call(h).put_static(acc);
                    }
                },
            );
            m.ret();
            let id = pb.add_method(m);
            pb.set_entry(id);
            pb.finish().unwrap()
        }

        /// Baseline churn, opt churn with full and GC-point-only maps, and
        /// region churn, each in a cache that holds about two helpers.
        fn configs() -> Vec<VmConfig> {
            let base = || {
                let mut cfg = VmConfig::test();
                cfg.jit.code_cache_capacity_bytes = Some(640);
                cfg
            };
            let mut baseline = base();
            baseline.jit.tier1_enabled = false;
            let mut opt = base();
            opt.jit.sample_period_cycles = 500;
            opt.jit.tier1_threshold = 1;
            let mut stock_maps = opt.clone();
            stock_maps.full_mcmaps = false;
            let mut region = opt.clone();
            region.jit.tier2_enabled = true;
            region.jit.tier2_threshold = 8;
            vec![baseline, opt, stock_maps, region]
        }

        #[test]
        fn reinstalls_relocate_what_a_fresh_build_would_make() {
            let p = churn_program();
            let mut reused = [0usize; 3];
            let mut region_installs = HashMap::new();
            let mut reused_starts = HashMap::new();
            let mut installs_at = HashMap::new();
            for (i, cfg) in configs().into_iter().enumerate() {
                let full_maps = cfg.full_mcmaps;
                for inst in installs(&p, cfg) {
                    let (code, body) = (&inst.code, &inst.body);
                    let (m, tier) = (code.method, code.tier);
                    let what = format!("{m:?} at {tier} at {:#x}", code.code_start);
                    let fresh = compile(&p, m, tier, code.code_start, full_maps);
                    assert_eq!(code.code_end(), fresh.code_end(), "{what}");
                    for bc in 0..p.method(m).len() {
                        assert_eq!(code.mem_pc(bc), fresh.mem_pc(bc), "{what}, bc {bc}");
                    }
                    for mach in 0..=fresh.machine_len() {
                        assert_eq!(
                            code.mc_map().lookup(mach),
                            fresh.mc_map().lookup(mach),
                            "{what}, machine index {mach}"
                        );
                    }
                    assert_eq!(code.gc_points(), fresh.gc_points(), "{what}");
                    let want = decode(&p, &fresh, inst.region.as_deref());
                    assert_eq!(body.ops, want.ops, "{what}: decoded ops");
                    assert_eq!(body.block_of, want.block_of, "{what}");
                    assert_eq!((body.width, body.tier), (want.width, want.tier));
                    assert_eq!(body.ics.len(), want.ics.len(), "{what}");
                    assert!(
                        body.ics.iter().all(|s| matches!(
                            s,
                            IcSlot::Field { class: IC_EMPTY }
                                | IcSlot::Call {
                                    generation: IC_EMPTY
                                }
                        )),
                        "{what}: inline caches start cold"
                    );
                    if tier == Tier::Region {
                        *region_installs.entry(m).or_insert(0) += 1;
                        assert!(!inst.reused, "{what}: a region body is always compiled");
                        continue;
                    }
                    // A build is kept at a method's second install at a
                    // tier, and every later install there relocates it.
                    let nth = installs_at.entry((i, m, tier)).or_insert(0);
                    *nth += 1;
                    assert_eq!(inst.reused, *nth > 2, "{what}: install {nth}");
                    if inst.reused {
                        reused[tier as usize] += 1;
                        reused_starts
                            .entry((i, m, tier))
                            .or_insert_with(HashSet::new)
                            .insert(code.code_start);
                    }
                }
            }
            // The helpers are reinstalled many times over at both kept
            // tiers, and a helper relocated to two starts moved away from
            // its kept build's at least once.
            assert!(reused[Tier::Baseline as usize] > 100, "{reused:?}");
            assert!(reused[Tier::Opt as usize] > 100, "{reused:?}");
            let moved = reused_starts.values().filter(|s| s.len() > 1).count();
            assert!(
                moved >= 8,
                "only {moved} helpers were relocated to two starts"
            );
            assert!(
                region_installs.values().any(|&n| n >= 3),
                "a region body is reinstalled: {region_installs:?}"
            );
        }
    }

    /// Values recorded before the epilogue gained its inlined fast path;
    /// the flattened engine must keep landing on them. (The per-step
    /// reference engine charges different cycles by design.)
    mod epilogue_pins {
        use super::*;

        /// Hooks that record the clock stamps the dispatch loop hands out.
        /// Each poll charges a few cycles so the stamps also pin how poll
        /// overhead feeds back into the clock.
        #[derive(Default)]
        struct Stamps {
            polls: Vec<u64>,
            compiles: Vec<(MethodId, Tier)>,
            retired: Vec<(MethodId, Tier, u64)>,
        }

        impl RuntimeHooks for Stamps {
            fn on_poll(&mut self, _: &Program, cycles: u64) -> u64 {
                self.polls.push(cycles);
                7
            }
            fn on_compile(&mut self, _: &Program, code: &CompiledCode, _: u64, _: u64) {
                self.compiles.push((code.method, code.tier));
            }
            fn on_code_retired(&mut self, freed: &FreedRange, _: u64, cycles: u64) {
                self.retired.push((freed.method, freed.tier, cycles));
            }
        }

        fn fold_stamps(stamps: &[u64]) -> u64 {
            stamps.iter().fold(0xcbf2_9ce4_8422_2325, |h, &c| {
                (h ^ c).wrapping_mul(0x0100_0000_01b3)
            })
        }

        #[test]
        fn step_limit_stop_cycle_is_pinned() {
            let p = field_bump_loop(1_000_000);
            let mut got = Vec::new();
            for tier1 in [false, true] {
                for limit in [4_096, 123_457] {
                    let mut cfg = pin_config(tier1);
                    cfg.step_limit = Some(limit);
                    let (vm, r) = run_checked(&p, cfg);
                    r.unwrap_err();
                    got.push(vm.cycles);
                }
            }
            assert_eq!(got, PIN_STEP_CYCLES);
        }
        const PIN_STEP_CYCLES: [u64; 4] = [5_930, 170_768, 5_930, 153_693];

        #[test]
        fn cycle_budget_kill_lands_on_the_pinned_cycle() {
            let p = field_bump_loop(1_000_000);
            let mut got = Vec::new();
            for tier1 in [false, true] {
                for budget in [100_000, 1_234_567] {
                    let mut cfg = pin_config(tier1);
                    cfg.cycle_budget = Some(budget);
                    let (vm, r) = run_checked(&p, cfg);
                    assert_eq!(r.unwrap_err(), VmError::CycleBudget);
                    got.push((vm.cycles, vm.bytecodes));
                }
            }
            assert_eq!(got, PIN_BUDGET);
        }
        const PIN_BUDGET: [(u64, u64); 4] = [
            (100_002, 72_215),
            (1_234_569, 893_777),
            (100_001, 72_215),
            (1_234_571, 1_805_529),
        ];

        #[test]
        fn poll_stamps_are_pinned() {
            let p = field_bump_loop(20_000);
            let mut got = Vec::new();
            for tier1 in [false, true] {
                let mut hooks = Stamps::default();
                let mut vm = Vm::new(&p, pin_config(tier1));
                let s = vm.run(&mut hooks).unwrap();
                got.push((
                    hooks.polls.len(),
                    fold_stamps(&hooks.polls),
                    s.cycles,
                    s.bytecodes_executed,
                ));
            }
            assert_eq!(got, PIN_POLLS);
        }
        const PIN_POLLS: [(usize, u64, u64, u64); 2] = [
            (102, 7_615_675_259_094_020_341, 581_269, 420_014),
            (102, 6_425_845_246_960_413_813, 357_090, 420_014),
        ];

        #[test]
        fn tier1_recompiles_at_the_pinned_cycles() {
            let p = field_bump_loop(50_000);
            let mut cfg = pin_config(true);
            // A bounded (but never full) cache frees each replaced artifact,
            // which reports the recompilation's cycle to the hooks.
            cfg.jit.code_cache_capacity_bytes = Some(1 << 20);
            let mut hooks = Stamps::default();
            let mut vm = Vm::new(&p, cfg);
            let s = vm.run(&mut hooks).unwrap();
            assert_eq!(s.code_evictions, 0);
            let compiles: Vec<(u32, Tier)> =
                hooks.compiles.iter().map(|&(m, t)| (m.0, t)).collect();
            let retired: Vec<(u32, Tier, u64)> =
                hooks.retired.iter().map(|&(m, t, c)| (m.0, t, c)).collect();
            assert_eq!(compiles, PIN_COMPILES);
            assert_eq!(retired, PIN_RECOMPILES);
            assert_eq!(s.cycles, PIN_TIER1_CYCLES);
        }
        const PIN_COMPILES: [(u32, Tier); 4] = [
            (1, Tier::Baseline),
            (0, Tier::Baseline),
            (0, Tier::Opt),
            (1, Tier::Opt),
        ];
        const PIN_RECOMPILES: [(u32, Tier, u64); 2] =
            [(0, Tier::Baseline, 100_000), (1, Tier::Baseline, 200_000)];
        const PIN_TIER1_CYCLES: u64 = 748_241;
    }

    /// Fused and unfused decoding run every program the same: the
    /// peephole pass changes how many dispatches a run takes, and
    /// nothing a hook, a summary or a backtrace can see.
    mod fusion {
        use super::*;
        use crate::predecode::{form, FORMS, SKIP_FUSION};
        use hpmopt_bytecode::builder::Label;
        use hpmopt_bytecode::{ClassId, FieldId, StaticId};
        use hpmopt_memsim::AccessOutcome;
        use hpmopt_prim::{Fnv1a, Rng};

        /// Everything a run hands its hooks.
        #[derive(Debug, Default, PartialEq)]
        struct Record {
            accesses: Vec<(u64, u64, AccessOutcome, u64, u32, u32)>,
            polls: Vec<u64>,
            compiles: Vec<(u32, Tier, u64)>,
            retired: Vec<(u32, Tier, u64)>,
            deopts: Vec<(u32, u64)>,
            gcs: Vec<u64>,
        }

        impl RuntimeHooks for Record {
            fn on_access(&mut self, ctx: &AccessContext) -> u64 {
                self.accesses.push((
                    ctx.pc,
                    ctx.addr.0,
                    ctx.outcome,
                    ctx.cycles,
                    ctx.method.0,
                    ctx.bytecode_index,
                ));
                // A charge on misses feeds the stamps back into the clock.
                u64::from(ctx.outcome.l1_miss) * 3
            }
            fn on_poll(&mut self, _: &Program, cycles: u64) -> u64 {
                self.polls.push(cycles);
                7
            }
            fn on_compile(&mut self, _: &Program, code: &CompiledCode, _: u64, _: u64) {
                self.compiles
                    .push((code.method.0, code.tier, code.code_start));
            }
            fn on_code_retired(&mut self, freed: &FreedRange, _: u64, cycles: u64) {
                self.retired.push((freed.method.0, freed.tier, cycles));
            }
            fn on_deopt(&mut self, method: MethodId, _: Tier, cycles: u64) {
                self.deopts.push((method.0, cycles));
            }
            fn on_gc(&mut self, _: &GcStats, cycles: u64) {
                self.gcs.push(cycles);
            }
        }

        /// What one run shows: its result, its hook record, the summary
        /// (also after an error), the backtrace and the state digest.
        #[derive(Debug, PartialEq)]
        struct Seen {
            result: Result<(), VmError>,
            record: Record,
            summary: String,
            backtrace: Vec<(MethodId, usize)>,
            digest: u64,
        }

        /// Fused heads per form, in the order of [`FORMS`].
        type Heads = [usize; FORMS.len()];

        /// Run `p` under `cfg`, decoding with or without the pass; also
        /// return how many fused heads of each form the final decoded
        /// bodies hold, and the bytecodes and cycles run.
        fn run(p: &Program, cfg: &VmConfig, fused: bool) -> (Seen, Heads, (u64, u64)) {
            SKIP_FUSION.with(|s| s.set(!fused));
            let mut record = Record::default();
            let mut vm = Vm::new(p, cfg.clone());
            let result = vm.run(&mut record).map(|_| ());
            SKIP_FUSION.with(|s| s.set(false));
            let mut heads = [0; FORMS.len()];
            for d in vm.decoded.iter().flatten() {
                for f in d.ops.iter().filter_map(|o| form(o.op)) {
                    heads[f] += 1;
                }
            }
            let seen = Seen {
                result,
                record,
                summary: format!("{:?}", vm.summary()),
                backtrace: vm.backtrace(),
                digest: vm.state_digest(),
            };
            (seen, heads, (vm.bytecodes, vm.cycles))
        }

        /// The forms of the fused spans that hold `pc` of `m` past their
        /// head (two when spans nest): a run that stopped at `pc` stopped
        /// between two ops of each.
        fn inside_span(p: &Program, (m, pc): (MethodId, usize)) -> Vec<usize> {
            let code = compile(p, m, Tier::Baseline, CODE_BASE, true);
            let ops = decode(p, &code, None).ops;
            (1..=pc)
                .filter_map(|back| {
                    let head = ops[pc - back].op;
                    (back < head.span()).then(|| form(head)).flatten()
                })
                .collect()
        }

        /// Locals and ids the loop-body generator draws from.
        struct Gen {
            node: ClassId,
            v: FieldId,
            next: FieldId,
            acc: StaticId,
            bump: MethodId,
            obj: u16,
            arr: u16,
            arr_len: i64,
            /// Whether bodies also draw constant-operand arithmetic,
            /// switches and list walks, and the inputs that force their
            /// heads to fall back; without them the generator makes the
            /// programs `hook_stamps_are_pinned` pins.
            idioms: bool,
            /// The head of a list of nodes linked by `next` (with
            /// `idioms`).
            list: u16,
        }

        impl Gen {
            /// One to three random statements using counter `i`, nesting
            /// further counted loops while `depth` allows.
            fn body(&self, m: &mut MethodBuilder, rng: &mut Rng, i: u16, limit: u16, depth: u32) {
                for _ in 0..rng.range(1, 3) {
                    match rng.below(if self.idioms { 10 } else { 7 }) {
                        0 => {
                            m.load(self.obj);
                            m.load(self.obj);
                            m.get_field(self.v);
                            m.load(i);
                            m.add();
                            m.put_field(self.v);
                        }
                        1 => {
                            m.load(self.arr);
                            m.load(i);
                            m.const_i(self.arr_len);
                            m.rem();
                            m.load(i);
                            m.array_set(ElemKind::I64);
                        }
                        2 => {
                            m.get_static(self.acc);
                            m.load(self.arr);
                            m.load(i);
                            m.const_i(self.arr_len);
                            m.rem();
                            m.array_get(ElemKind::I64);
                            m.add();
                            m.put_static(self.acc);
                        }
                        3 => {
                            m.load(self.obj);
                            m.const_i(rng.range(0, 4) as i64);
                            m.call(self.bump);
                            m.pop();
                        }
                        4 => {
                            // Allocation churn: a new node links the
                            // old one, then a new array replaces that
                            // link, so older nodes and arrays die and
                            // the collector moves the live ones.
                            m.new_object(self.node);
                            m.dup();
                            m.load(self.obj);
                            m.put_field(self.next);
                            m.store(self.obj);
                            m.load(self.obj);
                            m.const_i(rng.range(8, 64) as i64);
                            m.new_array(ElemKind::I64);
                            m.put_field(self.next);
                        }
                        5 if rng.chance(30) => {
                            // At one iteration, a ref lands in the loop's
                            // limit: the next head compare must fail.
                            let k = m.new_local();
                            m.const_i(rng.range(0, 6) as i64);
                            m.store(k);
                            let skip = m.label();
                            m.load(i);
                            m.load(k);
                            m.eq();
                            m.jump_if_not(skip);
                            m.load(self.obj);
                            m.store(limit);
                            m.bind(skip);
                        }
                        7 => self.constant_operands(m, rng, i),
                        8 => self.switch(m, rng, i),
                        9 => self.walk(m, rng, i),
                        _ if depth > 0 => self.counted(m, rng, depth - 1),
                        _ => {
                            m.get_static(self.acc);
                            m.load(i);
                            m.add();
                            m.put_static(self.acc);
                        }
                    }
                }
            }

            /// Jump to the returned label unless counter `i` equals a
            /// small constant: what follows runs at one iteration at most.
            fn unless_iteration(m: &mut MethodBuilder, rng: &mut Rng, i: u16) -> Label {
                let skip = m.label();
                m.load(i);
                m.const_i(rng.range(0, 6) as i64);
                m.eq();
                m.jump_if_not(skip);
                skip
            }

            /// `acc = (acc op k) op' k'` and so on, for random int ops
            /// with constant right operands: shifts past 63, and `Div`
            /// and `Rem` by nonzero constants. At one iteration, maybe, a
            /// ref reaches a constant-operand or switch-arm head, whose
            /// tail op then faults.
            fn constant_operands(&self, m: &mut MethodBuilder, rng: &mut Rng, i: u16) {
                const OPS: [Instr; 17] = [
                    Instr::Add,
                    Instr::Sub,
                    Instr::Mul,
                    Instr::Div,
                    Instr::Rem,
                    Instr::And,
                    Instr::Or,
                    Instr::Xor,
                    Instr::Shl,
                    Instr::Shr,
                    Instr::UShr,
                    Instr::Eq,
                    Instr::Ne,
                    Instr::Lt,
                    Instr::Le,
                    Instr::Gt,
                    Instr::Ge,
                ];
                let constant = |rng: &mut Rng, op: Instr| -> i64 {
                    match op {
                        Instr::Shl | Instr::Shr | Instr::UShr => rng.range(0, 70) as i64,
                        Instr::Div | Instr::Rem => {
                            let k = rng.range(1, 9) as i64;
                            if rng.chance(50) {
                                -k
                            } else {
                                k
                            }
                        }
                        _ => rng.range(0, 2_000) as i64 - 1_000,
                    }
                };
                m.get_static(self.acc);
                m.load(i);
                m.add();
                for _ in 0..rng.range(1, 4) {
                    let op = OPS[rng.below(OPS.len() as u64) as usize];
                    let k = constant(rng, op);
                    m.const_i(k);
                    m.emit(op);
                }
                m.put_static(self.acc);
                if rng.chance(15) {
                    let skip = Self::unless_iteration(m, rng, i);
                    m.load(self.obj);
                    if rng.chance(50) {
                        let op = OPS[rng.below(OPS.len() as u64) as usize];
                        let k = constant(rng, op);
                        m.const_i(k);
                        m.emit(op);
                    } else {
                        let arm = m.label();
                        m.dup();
                        m.const_i(0);
                        m.eq();
                        m.jump_if(arm);
                        m.bind(arm);
                    }
                    m.pop();
                    m.bind(skip);
                }
            }

            /// A switch over `i % n`: a chain of `Dup; Const k; Eq;
            /// JumpIf arm_k`, a default, and arms that each pop the
            /// value and fold a constant into `acc`.
            fn switch(&self, m: &mut MethodBuilder, rng: &mut Rng, i: u16) {
                let n = rng.range(1, 6) as i64;
                m.load(i);
                m.const_i(n);
                m.rem();
                let arms: Vec<Label> = (0..rng.range(1, 5)).map(|_| m.label()).collect();
                let end = m.label();
                for (k, &arm) in arms.iter().enumerate() {
                    m.dup();
                    m.const_i(k as i64);
                    m.eq();
                    m.jump_if(arm);
                }
                for arm in std::iter::once(None).chain(arms.into_iter().map(Some)) {
                    if let Some(arm) = arm {
                        m.bind(arm);
                    }
                    m.pop();
                    m.get_static(self.acc);
                    m.const_i(rng.range(1, 1_000) as i64);
                    m.xor();
                    m.put_static(self.acc);
                    m.jump(end);
                }
                m.bind(end);
            }

            /// A walk over the list's `next` links that adds each node's
            /// `v` to `acc`. At one iteration, maybe, the walk's local
            /// holds an int, which its null test then faults on, or a
            /// field is read through it once the walk has left it null.
            fn walk(&self, m: &mut MethodBuilder, rng: &mut Rng, i: u16) {
                let cur = m.new_local();
                m.load(self.list);
                m.store(cur);
                let int_cursor = rng.chance(10);
                if int_cursor {
                    let skip = Self::unless_iteration(m, rng, i);
                    m.const_i(7);
                    m.store(cur);
                    m.bind(skip);
                }
                let (top, out) = (m.label(), m.label());
                m.bind(top);
                m.load(cur);
                m.is_null();
                m.jump_if(out);
                m.get_static(self.acc);
                m.load(cur);
                m.get_field(self.v);
                m.add();
                m.put_static(self.acc);
                m.load(cur);
                m.get_field(self.next);
                m.store(cur);
                m.jump(top);
                m.bind(out);
                if !int_cursor && rng.chance(20) {
                    let skip = Self::unless_iteration(m, rng, i);
                    m.load(cur);
                    m.get_field(self.v);
                    m.pop();
                    m.bind(skip);
                }
            }

            /// A `for_loop` with a random limit around a random body.
            fn counted(&self, m: &mut MethodBuilder, rng: &mut Rng, depth: u32) {
                let i = m.new_local();
                // `for_loop` takes the next local for its limit.
                let limit = i + 1;
                let n = rng.range(0, 20) as i64;
                let mut body_rng = rng.fork(u64::from(i));
                m.for_loop(
                    i,
                    |m| {
                        m.const_i(n);
                    },
                    |m| self.body(m, &mut body_rng, i, limit, depth),
                );
            }

            /// A counted loop whose first iteration enters its head span
            /// in the middle, at the limit's `Load`: `Load c; Jump mid;
            /// head: Load c; mid: Load n; Ge; JumpIf exit; ...; Jump head`.
            fn entered_mid_span(&self, m: &mut MethodBuilder, rng: &mut Rng) {
                let (c, n) = (m.new_local(), m.new_local());
                m.const_i(rng.range(0, 40) as i64);
                m.store(n);
                m.const_i(0);
                m.store(c);
                let (head, mid, exit) = (m.label(), m.label(), m.label());
                m.load(c);
                m.jump(mid);
                m.bind(head);
                m.load(c);
                m.bind(mid);
                m.load(n);
                m.ge();
                m.jump_if(exit);
                let mut body_rng = rng.fork(u64::from(c));
                self.body(m, &mut body_rng, c, n, 1);
                m.load(c);
                m.const_i(1);
                m.add();
                m.store(c);
                m.jump(head);
                m.bind(exit);
            }
        }

        /// A random program of nested counted loops over a field, an
        /// array, a static and calls to a helper with a loop of its own;
        /// with `idioms`, also over a list and switches (see [`Gen`]).
        fn fusion_program(rng: &mut Rng, idioms: bool) -> Program {
            let mut pb = ProgramBuilder::new();
            let node = pb.add_class("Node", &[("v", FieldType::Int), ("next", FieldType::Ref)]);
            let v = pb.field_id(node, "v").unwrap();
            let next = pb.field_id(node, "next").unwrap();
            let acc = pb.add_static("acc", FieldType::Int);
            // bump(o, n) -> int: add 0 + 1 + ... + (n - 1) to o.v.
            let mut bump = MethodBuilder::new("bump", 2, 0, true);
            let j = bump.new_local();
            bump.for_loop(
                j,
                |m| {
                    m.load(1);
                },
                |m| {
                    m.load(0);
                    m.load(0);
                    m.get_field(v);
                    m.load(j);
                    m.add();
                    m.put_field(v);
                },
            );
            bump.load(0);
            bump.get_field(v);
            bump.ret_val();
            let bump = pb.add_method(bump);

            let mut m = MethodBuilder::new("main", 0, 0, false);
            let (obj, arr) = (m.new_local(), m.new_local());
            let arr_len = rng.range(1, 16) as i64;
            let list = if idioms { m.new_local() } else { 0 };
            let g = Gen {
                node,
                v,
                next,
                acc,
                bump,
                obj,
                arr,
                arr_len,
                idioms,
                list,
            };
            m.new_object(node);
            m.store(obj);
            m.const_i(arr_len);
            m.new_array(ElemKind::I64);
            m.store(arr);
            if idioms {
                m.const_null();
                m.store(list);
                for _ in 0..rng.range(0, 8) {
                    m.new_object(node);
                    m.dup();
                    m.load(list);
                    m.put_field(next);
                    m.dup();
                    m.const_i(rng.range(0, 100) as i64);
                    m.put_field(v);
                    m.store(list);
                }
            }
            for _ in 0..rng.range(1, 3) {
                if rng.chance(40) {
                    g.entered_mid_span(&mut m, rng);
                } else {
                    g.counted(&mut m, rng, 2);
                }
            }
            m.ret();
            let id = pb.add_method(m);
            pb.set_entry(id);
            pb.finish().unwrap()
        }

        /// Assert that `p` under `cfg` runs the same fused and unfused;
        /// return the unfused run, the fused run's heads and the
        /// bytecodes and cycles run.
        fn check(p: &Program, cfg: &VmConfig, what: &str) -> (Seen, Heads, (u64, u64)) {
            let (fused, heads, _) = run(p, cfg, true);
            let (unfused, no_heads, ran) = run(p, cfg, false);
            assert_eq!(
                no_heads,
                [0; FORMS.len()],
                "{what}: the switch skips the pass"
            );
            assert_eq!(fused, unfused, "{what}");
            (unfused, heads, ran)
        }

        /// A random tier-1, tier-2, plan and code-cache configuration for
        /// `p`, with tier 2 on or off.
        fn fusion_config(p: &Program, rng: &mut Rng, tier2: bool) -> VmConfig {
            let mut cfg = VmConfig::test();
            cfg.step_limit = None;
            cfg.jit.tier1_enabled = rng.chance(70);
            cfg.jit.sample_period_cycles = rng.range(200, 5_000);
            cfg.jit.tier1_threshold = rng.range(1, 3) as u32;
            cfg.jit.tier2_enabled = tier2;
            cfg.jit.tier2_threshold = rng.range(5, 60);
            if rng.chance(50) {
                let all = (0..p.methods().len() as u32).map(MethodId).collect();
                cfg.plan = Some(crate::CompilationPlan::new(all));
            }
            if rng.chance(50) {
                // Bounded: every replaced artifact is retired.
                cfg.jit.code_cache_capacity_bytes = Some(1 << rng.range(9, 20));
            }
            cfg
        }

        #[test]
        fn fused_and_unfused_runs_are_indistinguishable() {
            let mut heads = [0; FORMS.len()];
            // Stops of the unfused run inside each form's spans, and the
            // errors of full runs that stopped inside one.
            let mut stops = [0; FORMS.len()];
            let mut faults: Vec<(&str, VmError)> = Vec::new();
            let mut region_compiles = 0;
            for seed in 0..64u64 {
                let mut rng = Rng::new(seed);
                let p = fusion_program(&mut rng, true);
                // The per-step engine keeps its own copy of every op's
                // arithmetic, which the fused and unfused ops share.
                let _ = run_checked(&p, VmConfig::test());
                for tier2 in [false, true] {
                    let cfg = fusion_config(&p, &mut rng, tier2);
                    let what = format!("seed {seed}, tier2 {tier2}");
                    let (full, h, ran) = check(&p, &cfg, &what);
                    for (all, n) in heads.iter_mut().zip(h) {
                        *all += n;
                    }
                    region_compiles += full
                        .record
                        .compiles
                        .iter()
                        .filter(|c| c.1 == Tier::Region)
                        .count();
                    if let (Err(e), Some(&top)) = (full.result, full.backtrace.last()) {
                        faults.extend(inside_span(&p, top).into_iter().map(|f| (FORMS[f], e)));
                    }
                    // Step limits and cycle budgets that stop the unfused
                    // run between two ops of a fused span.
                    for budget in [false, true] {
                        let mut found = 0;
                        for _ in 0..16 {
                            if found == 3 {
                                break;
                            }
                            let mut c = cfg.clone();
                            if budget {
                                c.cycle_budget = Some(rng.range(1, ran.1.max(1)));
                            } else {
                                c.step_limit = Some(rng.range(1, ran.0.max(1)));
                            }
                            let (stop, _, _) = run(&p, &c, false);
                            let Some(&top) = stop.backtrace.last() else {
                                continue;
                            };
                            let around = inside_span(&p, top);
                            if stop.result.is_err() && !around.is_empty() {
                                found += 1;
                                for f in around {
                                    stops[f] += 1;
                                }
                                check(&p, &c, &format!("{what}, {c:?}"));
                            }
                        }
                    }
                }
            }
            for (f, name) in FORMS.iter().enumerate() {
                assert!(heads[f] > 0, "the programs have {name} heads");
                assert!(stops[f] > 0, "no stop inside a {name} span");
            }
            assert!(
                stops.iter().sum::<usize>() >= 128,
                "only {stops:?} stops inside spans"
            );
            assert!(region_compiles > 0, "tier 2 promotes some loop");
            // The inputs that make a head run as the op it replaced and
            // its tail op fault: a ref in a loop's limit, in an int
            // operand or a switch value, an int in a null-tested local,
            // and a null local whose field is read.
            for want in [
                ("CmpJump", VmError::TypeMismatch),
                ("IntConst", VmError::TypeMismatch),
                ("SwitchArm", VmError::TypeMismatch),
                ("NullJump", VmError::TypeMismatch),
                ("LoadField", VmError::NullPointer),
            ] {
                assert!(faults.contains(&want), "no {want:?} fault in {faults:?}");
            }
        }

        /// Folds each hook call, tagged by kind, into one digest, in the
        /// order the hooks see them.
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
                let events =
                    u64::from(o.l1_miss) | u64::from(o.l2_miss) << 1 | u64::from(o.dtlb_miss) << 2;
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

        /// Every hook stamp of the 64 programs `fusion_program` draws with
        /// or without `idioms`, with tier 2 off and on, folded in order,
        /// then how each run stopped, its counts and, with `idioms`, its
        /// state digest; and the access count.
        fn fold_runs(idioms: bool) -> (u64, u64) {
            let mut all = Fold {
                hash: Fnv1a::new(),
                accesses: 0,
            };
            for seed in 0..64u64 {
                let mut rng = Rng::new(seed);
                let p = fusion_program(&mut rng, idioms);
                for tier2 in [false, true] {
                    let cfg = fusion_config(&p, &mut rng, tier2);
                    let mut vm = Vm::new(&p, cfg);
                    let stop = u64::from(vm.run(&mut all).is_err());
                    all.put(8, &[stop, vm.bytecodes, vm.cycles]);
                    if idioms {
                        all.put(9, &[vm.state_digest()]);
                    }
                }
            }
            (all.accesses, all.hash.finish())
        }

        /// The programs without constant-operand arithmetic, switches
        /// and list walks. Recorded when the VM still queued each
        /// block's accesses and reported them when the block ended;
        /// playing each access as it issues moves none. In the debug
        /// profile this also runs the stamp arithmetic with overflow
        /// checks on.
        #[test]
        fn hook_stamps_are_pinned() {
            assert_eq!(fold_runs(false), PIN_FUSION_STAMPS);
        }

        /// The programs with constant operands, switches and list walks,
        /// and the faults their fallbacks reach. Recorded before any of
        /// their sequences was fused, so every fused form runs each of
        /// them as the unfused ops did.
        #[test]
        fn idiom_hook_stamps_are_pinned() {
            assert_eq!(fold_runs(true), PIN_IDIOM_STAMPS);
        }
        const PIN_IDIOM_STAMPS: (u64, u64) = (148_604, 8_392_249_021_963_821_671);
        const PIN_FUSION_STAMPS: (u64, u64) = (191_976, 7_793_587_721_790_093_786);
    }
}
