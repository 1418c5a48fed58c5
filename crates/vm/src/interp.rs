//! The execution engine.
//!
//! Executes bytecode while accounting cycles as the *compiled* code
//! would: each bytecode costs its tier's machine-instruction count, heap
//! accesses additionally pay real (simulated) memory latency, and every
//! heap access is reported to the [`RuntimeHooks`] with the machine PC of
//! its memory instruction — the raw feed a PEBS-style sampling unit sees.

use hpmopt_bytecode::{ElemKind, Instr, MethodId, Program};
use hpmopt_gc::{Address, GcNeeded, GcStats, Heap, TypeTag};
use hpmopt_memsim::{AccessKind, AccessOutcome, BatchAccess, MemStats, MemoryHierarchy};

use hpmopt_jit::{CodeCache, FreedRange, TierManager};

use crate::compiler::{compile, compiled_code_bytes};
use crate::config::{CancelToken, VmConfig};
use crate::hooks::{AccessContext, CodeRetired, RuntimeHooks};
use crate::machine::{CompiledCode, Tier};
use crate::methodtable::{CodeRange, MethodTable};
use crate::predecode::{decode, DecodedMethod, IcSlot, Op, IC_ARRAY_KEY};
use crate::value::{Value, VmError};
use crate::{CODE_BASE, STATICS_BASE};

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

/// Attribution metadata for one queued heap access, carried alongside
/// the [`BatchAccess`] it describes until the batch is flushed.
#[derive(Debug, Clone, Copy)]
struct PendingMeta {
    mem_pc: u64,
    method: MethodId,
    bc: u32,
    /// Block machine instructions retired before this access issued,
    /// used to reconstruct the access's serial cycle stamp at flush
    /// time.
    mach_before: u64,
}

/// The virtual machine.
///
/// See the [crate-level documentation](crate) for an example.
pub struct Vm<'p> {
    program: &'p Program,
    config: VmConfig,
    heap: Heap,
    mem: MemoryHierarchy,
    compiled: Vec<Option<CompiledCode>>,
    decoded: Vec<Option<DecodedMethod>>,
    generations: Vec<u32>,
    method_table: MethodTable,
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
    batch_reqs: Vec<BatchAccess>,
    batch_meta: Vec<PendingMeta>,
    batch_outcomes: Vec<AccessOutcome>,
    /// Machine instructions retired by the current block, converted to
    /// cycles (divided by [`Vm::batch_width`]) when the batch flushes.
    batch_mach: u64,
    /// Retirement width of the block's tier (set at frame entry; a batch
    /// never spans a control transfer, so it is single-tier).
    batch_width: u64,
    /// No cycle budget and no tier-1 timer: nothing reads the clock
    /// between polls, so the epilogue's fast path may skip it.
    clock_free: bool,
    /// Bytecodes allowed before [`VmError::StepLimit`] (`u64::MAX` when
    /// unlimited).
    step_cap: u64,
    roots_scratch: Vec<Address>,
}

/// How often (in bytecodes) the hooks' poll callback runs.
const POLL_EVERY_BYTECODES: u64 = 4096;

/// Maximum queued heap accesses before a batch is force-flushed.
const BATCH_CAP: usize = 32;

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
            generations: vec![0; program.methods().len()],
            method_table: MethodTable::new(),
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
            batch_reqs: Vec::with_capacity(BATCH_CAP),
            batch_meta: Vec::with_capacity(BATCH_CAP),
            batch_outcomes: Vec::with_capacity(BATCH_CAP),
            batch_mach: 0,
            batch_width: 1,
            clock_free: config.cycle_budget.is_none() && !config.jit.tier1_enabled,
            step_cap: config.step_limit.unwrap_or(u64::MAX),
            roots_scratch: Vec::with_capacity(64),
            program,
            config,
        }
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The method table (sampled-PC resolution).
    #[must_use]
    pub fn method_table(&self) -> &MethodTable {
        &self.method_table
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
    /// The default engine executes pre-decoded bodies with inline caches
    /// and block-batched memory simulation; building with the
    /// `slow-path` feature forces the legacy per-step engine instead
    /// (same semantics and digests, unbatched cost accounting) for
    /// differential debugging.
    ///
    /// # Errors
    ///
    /// Returns the first [`VmError`] raised (null dereference, division by
    /// zero, index error, out of memory, step limit, ...).
    pub fn run<H: RuntimeHooks>(&mut self, hooks: &mut H) -> Result<RunSummary, VmError> {
        hooks.on_startup(self.program, self.cycles);
        let entry = self.program.entry();
        self.ensure_compiled(entry, hooks);
        self.push_frame(entry, 0, self.config.call_overhead_cycles)?;
        if cfg!(feature = "slow-path") {
            self.run_slow(hooks)?;
        } else {
            self.run_fast(hooks)?;
        }
        // Final drain so buffered samples are processed before reporting.
        let overhead = hooks.on_exit(self.program, self.cycles);
        self.cycles += overhead;
        self.monitor_cycles += overhead;
        Ok(self.summary())
    }

    /// The legacy per-step engine: re-decode and re-cost every bytecode
    /// from the artifact on each step, play every heap access through
    /// the hierarchy immediately.
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

    /// The fast engine: dispatch pre-decoded ops and batch each basic
    /// block's heap accesses through one hierarchy call.
    fn run_fast<H: RuntimeHooks>(&mut self, hooks: &mut H) -> Result<(), VmError> {
        let mut next_poll = POLL_EVERY_BYTECODES;
        let r = self.exec_fast(hooks, &mut next_poll);
        // Any exit — normal or error — drains the batch so the hooks see
        // every access that architecturally completed before the stop
        // point (an erroring op's dispatch cost is never charged, same
        // as the per-step engine).
        self.flush_batch(hooks);
        r
    }

    /// The fast dispatch loop. One iteration of the outer loop pins one
    /// frame's decoded body; the inner loop runs ops of that frame until
    /// control transfers (call/return) or the body is recompiled.
    #[allow(clippy::too_many_lines)]
    fn exec_fast<H: RuntimeHooks>(
        &mut self,
        hooks: &mut H,
        next_poll: &mut u64,
    ) -> Result<(), VmError> {
        'frames: while let Some(&frame) = self.frames.last() {
            let mi = frame.method.0 as usize;
            let method = frame.method;
            let locals_base = frame.locals_base;
            let mut pc = frame.pc;
            let width = self.decoded[mi].as_ref().expect("decoded method").width;
            self.batch_width = width;
            // Taken backward branches in opt-tier code feed the tier-2
            // promotion counters; baseline code is not yet worth a
            // region, and region code already is one.
            let tier2_watch = self.config.jit.tier2_enabled
                && self.decoded[mi].as_ref().expect("decoded method").tier == Tier::Opt;
            loop {
                // Mirror the frame pc eagerly so error paths and GC root
                // scans observe the same frame state as the per-step
                // engine.
                self.frames.last_mut().expect("running frame").pc = pc;
                let dop = self.decoded[mi].as_ref().expect("decoded method").ops[pc];
                let mut cost = u64::from(dop.cost);
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

                // Count a taken backward branch; when it crosses the
                // tier-2 threshold, compile a region over the method's
                // hottest blocks and re-enter at the branch target.
                macro_rules! back_edge {
                    () => {
                        if tier2_watch && next_pc <= pc {
                            let d = self.decoded[mi].as_ref().expect("decoded method");
                            let (tgt, src) = (d.block_of[next_pc], d.block_of[pc]);
                            if self.tiers.record_back_edge(method, tgt, src) {
                                self.batch_mach += cost;
                                self.flush_batch(hooks);
                                self.install(method, Tier::Region, hooks);
                                self.frames.last_mut().expect("running frame").pc = next_pc;
                                self.epilogue(hooks, next_poll)?;
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
                        let v = self.pop()?;
                        self.locals[locals_base + n as usize] = v;
                    }
                    Op::Dup => {
                        let v = *self.stack.last().ok_or(VmError::TypeMismatch)?;
                        self.stack.push(v);
                    }
                    Op::Pop => {
                        self.pop()?;
                    }
                    Op::Swap => {
                        let len = self.stack.len();
                        self.stack.swap(len - 1, len - 2);
                    }

                    Op::Add => binop_int!(|a: i64, b: i64| a.wrapping_add(b)),
                    Op::Sub => binop_int!(|a: i64, b: i64| a.wrapping_sub(b)),
                    Op::Mul => binop_int!(|a: i64, b: i64| a.wrapping_mul(b)),
                    Op::Div => {
                        let b = self.pop()?.as_int()?;
                        let a = self.pop()?.as_int()?;
                        if b == 0 {
                            return Err(VmError::DivisionByZero);
                        }
                        self.stack.push(Value::Int(a.wrapping_div(b)));
                    }
                    Op::Rem => {
                        let b = self.pop()?.as_int()?;
                        let a = self.pop()?.as_int()?;
                        if b == 0 {
                            return Err(VmError::DivisionByZero);
                        }
                        self.stack.push(Value::Int(a.wrapping_rem(b)));
                    }
                    Op::And => binop_int!(|a: i64, b: i64| a & b),
                    Op::Or => binop_int!(|a: i64, b: i64| a | b),
                    Op::Xor => binop_int!(|a: i64, b: i64| a ^ b),
                    Op::Shl => binop_int!(|a: i64, b: i64| a.wrapping_shl(b as u32 & 63)),
                    Op::Shr => binop_int!(|a: i64, b: i64| a.wrapping_shr(b as u32 & 63)),
                    Op::UShr => {
                        binop_int!(|a: i64, b: i64| ((a as u64) >> (b as u32 & 63)) as i64)
                    }
                    Op::Neg => {
                        let a = self.pop()?.as_int()?;
                        self.stack.push(Value::Int(a.wrapping_neg()));
                    }

                    Op::Eq => binop_int!(|a, b| i64::from(a == b)),
                    Op::Ne => binop_int!(|a, b| i64::from(a != b)),
                    Op::Lt => binop_int!(|a, b| i64::from(a < b)),
                    Op::Le => binop_int!(|a, b| i64::from(a <= b)),
                    Op::Gt => binop_int!(|a, b| i64::from(a > b)),
                    Op::Ge => binop_int!(|a, b| i64::from(a >= b)),

                    Op::Jump(t) => {
                        next_pc = t as usize;
                        back_edge!();
                    }
                    Op::JumpIf(t) => {
                        if self.pop()?.as_int()? != 0 {
                            next_pc = t as usize;
                            back_edge!();
                        }
                    }
                    Op::JumpIfNot(t) => {
                        if self.pop()?.as_int()? == 0 {
                            next_pc = t as usize;
                            back_edge!();
                        }
                    }

                    Op::New(class) => {
                        // Allocation can trigger a collection, which
                        // flushes the memory hierarchy: drain the batch
                        // first so queued accesses replay against pre-GC
                        // cache state and pre-GC object addresses.
                        self.flush_batch(hooks);
                        let obj = self.alloc_object_gc(class, hooks)?;
                        // Initializing the header touches the first line.
                        self.queue_access(hooks, obj, 8, AccessKind::Write, dop.mem_pc, method, bc);
                        self.stack.push(Value::Ref(obj));
                    }
                    Op::NewArray(kind) => {
                        let len = self.pop()?.as_int()?;
                        if len < 0 {
                            return Err(VmError::IndexOutOfBounds);
                        }
                        self.flush_batch(hooks);
                        let obj = self.alloc_array_gc(kind, len as u64, hooks)?;
                        self.queue_access(hooks, obj, 8, AccessKind::Write, dop.mem_pc, method, bc);
                        self.stack.push(Value::Ref(obj));
                    }
                    Op::GetField { offset, is_ref, ic } => {
                        let obj = self.pop()?.as_ref_addr()?;
                        if obj.is_null() {
                            return Err(VmError::NullPointer);
                        }
                        cost += self.field_ic_cost(mi, ic, dop.miss_extra, obj);
                        let addr = self.heap.field_addr(obj, offset);
                        self.queue_access(hooks, addr, 8, AccessKind::Read, dop.mem_pc, method, bc);
                        let raw = self.heap.get_field(obj, offset);
                        self.stack.push(if is_ref {
                            Value::Ref(Address(raw))
                        } else {
                            Value::Int(raw as i64)
                        });
                    }
                    Op::PutField { offset, is_ref, ic } => {
                        let v = self.pop()?;
                        let obj = self.pop()?.as_ref_addr()?;
                        if obj.is_null() {
                            return Err(VmError::NullPointer);
                        }
                        cost += self.field_ic_cost(mi, ic, dop.miss_extra, obj);
                        let addr = self.heap.field_addr(obj, offset);
                        self.queue_access(
                            hooks,
                            addr,
                            8,
                            AccessKind::Write,
                            dop.mem_pc,
                            method,
                            bc,
                        );
                        let (raw, v_is_ref) = match v {
                            Value::Ref(a) => (a.0, true),
                            Value::Int(i) => (i as u64, false),
                        };
                        if v_is_ref != is_ref {
                            return Err(VmError::TypeMismatch);
                        }
                        self.heap.set_field(obj, offset, raw, v_is_ref);
                    }
                    Op::GetStatic { index, addr } => {
                        self.queue_access(
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
                        let v = self.pop()?;
                        self.queue_access(
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
                        self.queue_access(
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
                        self.queue_access(
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
                        let arr = self.pop()?.as_ref_addr()?;
                        if arr.is_null() {
                            return Err(VmError::NullPointer);
                        }
                        // The length lives in the header line.
                        self.queue_access(hooks, arr, 8, AccessKind::Read, dop.mem_pc, method, bc);
                        self.stack.push(Value::Int(self.heap.array_len(arr) as i64));
                    }
                    Op::IsNull => {
                        let a = self.pop()?.as_ref_addr()?;
                        self.stack.push(Value::Int(i64::from(a.is_null())));
                    }
                    Op::RefEq => {
                        let b = self.pop()?.as_ref_addr()?;
                        let a = self.pop()?.as_ref_addr()?;
                        self.stack.push(Value::Int(i64::from(a == b)));
                    }

                    Op::Call { callee, argc, ic } => {
                        // A call ends the block: drain the batch so the
                        // callee (and a possible first-call compile) see
                        // a settled clock.
                        self.flush_batch(hooks);
                        self.ensure_compiled(callee, hooks);
                        let mut frame_overhead = self.config.call_overhead_cycles;
                        if self.config.inline_caches {
                            let current = self.generations[callee.0 as usize];
                            let slot = &mut self.decoded[mi].as_mut().expect("decoded method").ics
                                [ic as usize];
                            if let IcSlot::Call { generation } = slot {
                                if *generation == current {
                                    frame_overhead = self.config.linked_call_overhead_cycles;
                                } else {
                                    *generation = current;
                                    cost += u64::from(dop.miss_extra);
                                }
                            }
                        } else {
                            cost += u64::from(dop.miss_extra);
                        }
                        self.cycles += cost.div_ceil(width);
                        // Advance the caller's pc *before* pushing the
                        // new frame.
                        self.frames.last_mut().expect("caller frame").pc = next_pc;
                        self.push_frame(callee, argc as usize, frame_overhead)?;
                        self.epilogue(hooks, next_poll)?;
                        continue 'frames;
                    }
                    Op::Return => {
                        self.batch_mach += cost;
                        self.flush_batch(hooks);
                        self.pop_frame(None);
                        self.epilogue(hooks, next_poll)?;
                        continue 'frames;
                    }
                    Op::ReturnVal => {
                        let v = self.pop()?;
                        self.batch_mach += cost;
                        self.flush_batch(hooks);
                        self.pop_frame(Some(v));
                        self.epilogue(hooks, next_poll)?;
                        continue 'frames;
                    }

                    Op::Deopt => {
                        // Execution left the compiled region. Nothing was
                        // retired for this bytecode (it re-executes in
                        // baseline code), so no cost and no step count:
                        // drop the region artifact, reinstall baseline,
                        // and re-enter the frame at the same pc.
                        self.flush_batch(hooks);
                        self.deopts += 1;
                        self.tiers.deopt(method);
                        self.install(method, Tier::Baseline, hooks);
                        hooks.on_deopt(method, Tier::Region, self.cycles);
                        continue 'frames;
                    }
                }

                self.batch_mach += cost;
                pc = next_pc;
                self.frames.last_mut().expect("running frame").pc = pc;
                if self.epilogue(hooks, next_poll)? {
                    // The running method was recompiled: refetch its
                    // decoded body (same bytecode indices, new costs).
                    continue 'frames;
                }
            }
        }
        Ok(())
    }

    /// Per-bytecode bookkeeping shared by every fast-path op. Counts the
    /// bytecode and returns at once unless something is due: a step
    /// limit, a poll, or a clock check (a cycle budget or the tier-1
    /// timer), which [`Vm::epilogue_slow`] handles. Returns `true` when a
    /// recompilation replaced a decoded body and the caller must refetch.
    #[inline(always)]
    fn epilogue<H: RuntimeHooks>(
        &mut self,
        hooks: &mut H,
        next_poll: &mut u64,
    ) -> Result<bool, VmError> {
        self.bytecodes += 1;
        if self.clock_free && self.bytecodes < *next_poll && self.bytecodes <= self.step_cap {
            return Ok(false);
        }
        self.epilogue_slow(hooks, next_poll)
    }

    /// The epilogue's slow path, run after the bytecode is counted: step
    /// accounting, the cycle budget and the tier-1 sampling timer (both
    /// read the running clock, block cycles included), and the poll
    /// timer.
    #[cold]
    #[inline(never)]
    fn epilogue_slow<H: RuntimeHooks>(
        &mut self,
        hooks: &mut H,
        next_poll: &mut u64,
    ) -> Result<bool, VmError> {
        if self.bytecodes > self.step_cap {
            return Err(VmError::StepLimit);
        }
        let mut refetch = false;
        let clock = self.cycles + self.batch_mach.div_ceil(self.batch_width);
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
                if let Some(hot) = self.tiers.sample(m, clock) {
                    // Recompilation swaps the running artifact: settle
                    // the batch so the install lands on an ordered clock.
                    self.flush_batch(hooks);
                    self.recompile(hot, hooks);
                    refetch = true;
                }
            }
        }
        if self.bytecodes >= *next_poll {
            *next_poll = self.bytecodes + POLL_EVERY_BYTECODES;
            self.flush_batch(hooks);
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
    #[inline]
    fn field_ic_cost(&mut self, mi: usize, ic: u32, miss_extra: u32, obj: Address) -> u64 {
        if !self.config.inline_caches {
            return u64::from(miss_extra);
        }
        let key = match self.heap.type_of(obj) {
            TypeTag::Class(c) => c.0,
            TypeTag::Array(_) => IC_ARRAY_KEY,
        };
        let slot = &mut self.decoded[mi].as_mut().expect("decoded method").ics[ic as usize];
        match slot {
            IcSlot::Field { class } if *class == key => 0,
            other => {
                *other = IcSlot::Field { class: key };
                u64::from(miss_extra)
            }
        }
    }

    /// Queue a heap access for the current block's batch.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn queue_access<H: RuntimeHooks>(
        &mut self,
        hooks: &mut H,
        addr: Address,
        size: u64,
        kind: AccessKind,
        mem_pc: u64,
        method: MethodId,
        bc: u32,
    ) {
        if self.batch_reqs.len() >= BATCH_CAP {
            self.flush_batch(hooks);
        }
        self.batch_reqs.push(BatchAccess {
            addr: addr.0,
            size,
            kind,
        });
        self.batch_meta.push(PendingMeta {
            mem_pc,
            method,
            bc,
            mach_before: self.batch_mach,
        });
    }

    /// Drain the pending batch: replay it through the hierarchy in one
    /// call, report every access to the hooks with a reconstructed
    /// serial cycle stamp (block start + compute before the access +
    /// latency and overhead of earlier batch entries + its own latency,
    /// exactly the stamp the per-step engine would have produced), and
    /// settle the block's compute cycles into the clock.
    fn flush_batch<H: RuntimeHooks>(&mut self, hooks: &mut H) {
        let width = self.batch_width;
        let block_cycles = self.batch_mach.div_ceil(width);
        if self.batch_reqs.is_empty() {
            self.cycles += block_cycles;
            self.batch_mach = 0;
            return;
        }
        self.batch_outcomes.clear();
        self.mem
            .access_batch(&self.batch_reqs, &mut self.batch_outcomes);
        let base = self.cycles;
        let mut extra = 0u64;
        for i in 0..self.batch_reqs.len() {
            let meta = self.batch_meta[i];
            let outcome = self.batch_outcomes[i];
            let ctx = AccessContext {
                pc: meta.mem_pc,
                addr: Address(self.batch_reqs[i].addr),
                outcome,
                cycles: base + meta.mach_before.div_ceil(width) + extra + outcome.cycles,
                method: meta.method,
                bytecode_index: meta.bc,
            };
            let overhead = hooks.on_access(&ctx);
            self.monitor_cycles += overhead;
            extra += outcome.cycles + overhead;
        }
        self.cycles += block_cycles + extra;
        self.batch_mach = 0;
        self.batch_reqs.clear();
        self.batch_meta.clear();
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
                mc_map_bytes: c.mc_map.size_bytes(),
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
        let mut pinned: Vec<MethodId> = self.frames.iter().map(|f| f.method).collect();
        pinned.push(m);
        let (start, evicted) = self.cache.alloc(m, tier, bytes, self.cycles, &pinned);
        for fr in evicted {
            let ei = fr.method.0 as usize;
            self.compiled[ei] = None;
            self.decoded[ei] = None;
            self.retire(fr, hooks);
        }
        let mut code = compile(self.program, m, tier, start, self.config.full_mcmaps);
        code.install_epoch = self.cache.epoch();
        self.method_table.insert(CodeRange {
            start: code.code_start,
            end: code.code_end(),
            method: m,
            tier,
        });
        hooks.on_compile(self.program, &code);
        // Re-decode against the new artifact: inline-cache slots start
        // cold, and bumping the generation invalidates every call site
        // linked to the previous artifact.
        let region = (tier == Tier::Region).then(|| self.tiers.hot_region(m));
        self.decoded[m.0 as usize] =
            Some(decode(self.program, &code, &self.config, region.as_deref()));
        self.generations[m.0 as usize] = self.generations[m.0 as usize].wrapping_add(1);
        self.compiled[m.0 as usize] = Some(code);
    }

    /// Unregister a freed code range and tell the hooks to retire it from
    /// sample attribution.
    fn retire<H: RuntimeHooks>(&mut self, fr: FreedRange, hooks: &mut H) {
        self.method_table.remove(fr.start);
        hooks.on_code_retired(
            &CodeRetired {
                method: fr.method,
                tier: fr.tier,
                code_start: fr.start,
                code_end: fr.end,
                epoch: fr.epoch,
                evicted: fr.evicted,
                cache_bytes: self.cache.live_bytes(),
            },
            self.cycles,
        );
    }

    // ----- frames ----------------------------------------------------------

    fn push_frame(&mut self, m: MethodId, argc: usize, overhead: u64) -> Result<(), VmError> {
        if self.frames.len() >= self.config.max_call_depth {
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

    // ----- data access helper ----------------------------------------------

    /// Play a data access through the memory hierarchy and report it to
    /// the hooks; returns the latency-plus-overhead cycles.
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

    // ----- the interpreter step ---------------------------------------------

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
        // Optimized code is register-allocated and retires `issue_width`
        // machine instructions per cycle (the P4 is superscalar); baseline
        // code's operand-stack traffic serializes to ~1 IPC. The memory
        // instruction (last of the bytecode) adds its hierarchy latency
        // below on top.
        // The per-step engine never installs region code (tier-2
        // promotion is driven by the fast engine's back-edge counters),
        // but a region artifact installed before a `slow-path` fallback
        // costs like opt code here.
        let mut cycles = match tier {
            Tier::Baseline => mach_count,
            Tier::Opt | Tier::Region => mach_count.div_ceil(self.config.issue_width),
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
                self.push_frame(callee, argc, self.config.call_overhead_cycles)?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoHooks;
    use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
    use hpmopt_bytecode::FieldType;

    fn run_program(program: &Program) -> RunSummary {
        let mut vm = Vm::new(program, VmConfig::test());
        vm.run(&mut NoHooks).expect("program runs")
    }

    fn run_expect_err(program: &Program) -> VmError {
        let mut vm = Vm::new(program, VmConfig::test());
        vm.run(&mut NoHooks).expect_err("program must fail")
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
        let mut vm = Vm::new(&p, VmConfig::test());
        vm.run(&mut NoHooks).unwrap();
        vm.statics[0].as_int().unwrap()
    }

    #[test]
    fn compile_cycles_charged_when_costs_set() {
        let p = expr_program(|m| {
            m.const_i(1);
        });
        let free = {
            let mut vm = Vm::new(&p, VmConfig::test());
            vm.run(&mut NoHooks).unwrap()
        };
        assert_eq!(free.compile_cycles, 0, "compilation is free by default");

        let mut cfg = VmConfig::test();
        cfg.baseline_compile_cycles_per_bc = 25;
        let mut vm = Vm::new(&p, cfg);
        let charged = vm.run(&mut NoHooks).unwrap();
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
        let mut vm = Vm::new(&p, VmConfig::test());
        vm.run(&mut NoHooks).unwrap();
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
        let mut vm = Vm::new(&p, VmConfig::test());
        vm.run(&mut NoHooks).unwrap();
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
        let mut vm = Vm::new(&p, VmConfig::test());
        vm.run(&mut NoHooks).unwrap();
        assert_eq!(vm.statics[0], Value::Int(144));
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

        let mut vm = Vm::new(&p, VmConfig::test());
        let summary = vm.run(&mut NoHooks).unwrap();
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
        let mut vm = Vm::new(&p, cfg);
        let summary = vm.run(&mut NoHooks).unwrap();
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
        let base = Vm::new(&p, base_cfg).run(&mut NoHooks).unwrap();

        let mut opt_cfg = VmConfig::test();
        opt_cfg.jit.tier1_enabled = false;
        opt_cfg.plan = Some(crate::CompilationPlan::new(vec![entry]));
        let opt = Vm::new(&p, opt_cfg).run(&mut NoHooks).unwrap();

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
    // pre-decoded engine; the legacy `slow-path` engine never promotes,
    // so the two region tests below only run on the default engine.
    #[test]
    #[cfg(not(feature = "slow-path"))]
    fn tier2_promotes_hot_loop_and_beats_opt_code() {
        let p = hot_loop_program(5_000);
        let entry = p.entry();
        let run_with = |tier2: bool| {
            let mut cfg = VmConfig::test();
            cfg.jit.tier1_enabled = false;
            cfg.jit.tier2_enabled = tier2;
            cfg.jit.tier2_threshold = 100;
            cfg.plan = Some(crate::CompilationPlan::new(vec![entry]));
            let mut vm = Vm::new(&p, cfg);
            let s = vm.run(&mut NoHooks).unwrap();
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
    #[cfg(not(feature = "slow-path"))]
    fn tiny_region_cap_deopts_immediately_and_preserves_semantics() {
        let p = hot_loop_program(2_000);
        let entry = p.entry();
        let mut cfg = VmConfig::test();
        cfg.jit.tier1_enabled = false;
        cfg.jit.tier2_enabled = true;
        cfg.jit.tier2_threshold = 50;
        cfg.jit.max_region_blocks = 1;
        cfg.plan = Some(crate::CompilationPlan::new(vec![entry]));
        let mut vm = Vm::new(&p, cfg);
        let s = vm.run(&mut NoHooks).unwrap();
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
            let mut vm = Vm::new(&p, cfg);
            let s = vm.run(&mut NoHooks).unwrap();
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
        let mut vm = Vm::new(&p, cfg);
        assert_eq!(vm.run(&mut NoHooks).unwrap_err(), VmError::StepLimit);
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
            let mut vm = Vm::new(&p, cfg);
            let err = vm.run(&mut NoHooks).unwrap_err();
            (err, vm.cycles)
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
        let mut vm = Vm::new(&p, cfg);
        assert_eq!(vm.run(&mut NoHooks).unwrap_err(), VmError::Cancelled);
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
            let mut vm = Vm::new(&p, cfg);
            let s = vm.run(&mut NoHooks).unwrap();
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
                // Allocation churn so both engines cross GC and batching
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
                vm.ensure_compiled(p.entry(), &mut NoHooks);
                vm.push_frame(p.entry(), 0, vm.config.call_overhead_cycles)
                    .unwrap();
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
                let mut vm = Vm::new(&p, cfg);
                assert_eq!(vm.run(&mut NoHooks).unwrap_err(), VmError::StepLimit);
                assert_eq!(vm.bytecodes, limit + 1, "tier1 {tier1}, limit {limit}");
            }
        }
    }

    /// Values recorded before the epilogue gained its inlined fast path;
    /// the flattened engine must keep landing on them. (The legacy
    /// per-step engine charges different cycles by design.)
    #[cfg(not(feature = "slow-path"))]
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
            fn on_compile(&mut self, _: &Program, code: &CompiledCode) {
                self.compiles.push((code.method, code.tier));
            }
            fn on_code_retired(&mut self, ev: &CodeRetired, cycles: u64) {
                self.retired.push((ev.method, ev.tier, cycles));
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
                    let mut vm = Vm::new(&p, cfg);
                    vm.run(&mut NoHooks).unwrap_err();
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
                    let mut vm = Vm::new(&p, cfg);
                    assert_eq!(vm.run(&mut NoHooks).unwrap_err(), VmError::CycleBudget);
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
}
