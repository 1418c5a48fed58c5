//! Pre-decoded instruction form for the fast interpreter loop.
//!
//! [`decode`] lowers a method body against one compiled artifact into a
//! dense `Rc<[DecodedOp]>`: operands resolved (field offsets, static
//! addresses, callee arities), branch targets kept as plain indices, and
//! the tier's dispatch cost pre-divided by the issue width — so the hot
//! loop in [`crate::interp`] is a single indexed dispatch with no
//! per-step table lookups, field-info resolution, or tier branching.
//!
//! The decoded form also carries the method's inline-cache slots, one
//! per `GetField`/`PutField`/`Call` site. A slot caches the key the
//! site last dispatched on (receiver class id, or callee install
//! generation); a hit retires the fast-path instruction count from
//! [`crate::compiler::ic_hit_count`], a mismatch re-keys the slot and
//! retires the full sequence. Slots are rebuilt (cold) whenever the
//! method is (re)installed, and call slots are invalidated by
//! construction when a callee is reinstalled because the callee's
//! generation bumps.
//!
//! A reinstall at a tier the method already had does not decode again:
//! [`DecodedMethod::relocated`] copies the earlier body with each
//! memory pc moved to the new code start.
//!
//! A peephole pass ([`fuse`]) then rewrites the head of each short op
//! sequence the benchmark programs run most into one fused op: the two
//! sequences [`hpmopt_bytecode::builder::MethodBuilder::for_loop`] wraps
//! around every counted loop ([`Op::CmpJump`], [`Op::AddJump`]), an int
//! op with a constant right operand ([`Op::IntConst`]), a switch arm
//! ([`Op::SwitchArm`]), and a local's field load and null test
//! ([`Op::LoadField`], [`Op::NullJump`]). The tail ops stay in place, so
//! a branch into the middle of a span, a region `Deopt` and a head that
//! cannot run its whole span see exactly the unfused ops.
//!
//! Everything here is a *cost-model* artifact: decoding never changes
//! program semantics, and the laid-out machine code (sizes, addresses,
//! maps) is exactly what [`crate::compiler::compile`] produced.

use std::rc::Rc;

use hpmopt_bytecode::{ClassId, ElemKind, Instr, MethodId, Program};

use crate::compiler::ic_hit_count;
use crate::{CompiledCode, Tier, STATICS_BASE};

/// Sentinel for an inline-cache slot that has never been keyed.
pub(crate) const IC_EMPTY: u32 = u32::MAX;

/// Inline-cache key for receivers that are arrays rather than class
/// instances (field access on an array can never match a class key, so
/// such sites simply stay in the slow path).
pub(crate) const IC_ARRAY_KEY: u32 = u32::MAX - 1;

/// A bytecode with operands resolved at decode time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    Const(i64),
    ConstNull,
    Load(u32),
    Store(u32),
    Dup,
    Pop,
    Swap,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    UShr,
    Neg,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Jump(u32),
    JumpIf(u32),
    JumpIfNot(u32),
    New(ClassId),
    NewArray(ElemKind),
    GetField {
        offset: u64,
        is_ref: bool,
        ic: u32,
    },
    PutField {
        offset: u64,
        is_ref: bool,
        ic: u32,
    },
    GetStatic {
        index: u32,
        addr: u64,
    },
    PutStatic {
        index: u32,
        addr: u64,
    },
    ArrayGet(ElemKind),
    ArraySet(ElemKind),
    ArrayLen,
    IsNull,
    RefEq,
    Call {
        callee: MethodId,
        argc: u32,
        ic: u32,
    },
    Return,
    ReturnVal,
    /// Fused head of `Load a; Load b; Ge; JumpIf target` with a forward
    /// target, `for_loop`'s exit test: jump to `target` when local `a`
    /// is at least local `b`, else fall through past the span. When the
    /// span cannot run whole, the op runs as its head `Load a`.
    CmpJump {
        a: u32,
        b: u32,
        target: u32,
    },
    /// Fused head of `Load l; Const k; Add; Store l; Jump target`: add
    /// `k` to local `l` and jump. When the span cannot run whole, the op
    /// runs as its head `Load l`.
    AddJump {
        local: u32,
        k: i32,
        target: u32,
    },
    /// Fused head of `Const k; <op>` for an int op that cannot fault with
    /// `k` as its right operand (`Div` and `Rem` only when `k != 0`):
    /// replace the int `a` on top of the stack with `a op k`. When the
    /// span cannot run whole, the op runs as its head `Const k`.
    IntConst {
        op: IntOp,
        k: i64,
    },
    /// Fused head of `Dup; Const k; Eq; JumpIf target` with a forward
    /// target, one arm of a switch: jump to `target` when the int on top
    /// of the stack equals `k`, else fall through past the span; the int
    /// stays on the stack either way. When the span cannot run whole, the
    /// op runs as its head `Dup`.
    SwitchArm {
        k: i64,
        target: u32,
    },
    /// Fused head of `Load l; GetField`: push the field of the object in
    /// local `l`. The field's operands, both counts and the access's
    /// memory pc are the tail `GetField`'s, which the head reads from it.
    /// When the span cannot run whole, the op runs as its head `Load l`.
    LoadField {
        local: u32,
    },
    /// Fused head of `Load l; IsNull; JumpIf target` with a forward
    /// target: jump to `target` when local `l` holds null, else fall
    /// through past the span. When the span cannot run whole, the op runs
    /// as its head `Load l`.
    NullJump {
        local: u32,
        target: u32,
    },
    /// Region-tier code only: this bytecode's block is outside the
    /// compiled region. Executing it abandons the region artifact —
    /// the engine reinstalls baseline code and re-enters the frame at
    /// the same bytecode. Never emitted for baseline or opt code.
    Deopt,
}

/// Bytecodes an [`Op::CmpJump`] span holds.
pub(crate) const CMP_JUMP_SPAN: usize = 4;

/// Bytecodes an [`Op::AddJump`] span holds.
pub(crate) const ADD_JUMP_SPAN: usize = 5;

/// Bytecodes an [`Op::IntConst`] span holds.
pub(crate) const INT_CONST_SPAN: usize = 2;

/// Bytecodes an [`Op::SwitchArm`] span holds.
pub(crate) const SWITCH_ARM_SPAN: usize = 4;

/// Bytecodes an [`Op::LoadField`] span holds.
pub(crate) const LOAD_FIELD_SPAN: usize = 2;

/// Bytecodes an [`Op::NullJump`] span holds.
pub(crate) const NULL_JUMP_SPAN: usize = 3;

impl Op {
    /// Bytecodes the span this op heads holds: one for an op that heads
    /// none.
    pub(crate) fn span(self) -> usize {
        match self {
            Op::CmpJump { .. } => CMP_JUMP_SPAN,
            Op::AddJump { .. } => ADD_JUMP_SPAN,
            Op::IntConst { .. } => INT_CONST_SPAN,
            Op::SwitchArm { .. } => SWITCH_ARM_SPAN,
            Op::LoadField { .. } => LOAD_FIELD_SPAN,
            Op::NullJump { .. } => NULL_JUMP_SPAN,
            _ => 1,
        }
    }
}

/// An int op of two operands. Its arithmetic is written once, in
/// [`IntOp::apply`], for the unfused op and for [`Op::IntConst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    UShr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl IntOp {
    /// `a op b`: arithmetic wraps, a shift takes the low six bits of
    /// `b`, and a comparison gives 1 or 0. `Div` and `Rem` need `b != 0`.
    #[inline(always)]
    pub(crate) fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            IntOp::Add => a.wrapping_add(b),
            IntOp::Sub => a.wrapping_sub(b),
            IntOp::Mul => a.wrapping_mul(b),
            IntOp::Div => a.wrapping_div(b),
            IntOp::Rem => a.wrapping_rem(b),
            IntOp::And => a & b,
            IntOp::Or => a | b,
            IntOp::Xor => a ^ b,
            IntOp::Shl => a.wrapping_shl(b as u32 & 63),
            IntOp::Shr => a.wrapping_shr(b as u32 & 63),
            IntOp::UShr => ((a as u64) >> (b as u32 & 63)) as i64,
            IntOp::Eq => i64::from(a == b),
            IntOp::Ne => i64::from(a != b),
            IntOp::Lt => i64::from(a < b),
            IntOp::Le => i64::from(a <= b),
            IntOp::Gt => i64::from(a > b),
            IntOp::Ge => i64::from(a >= b),
        }
    }

    /// The int op `op` runs, if it is one.
    fn of(op: Op) -> Option<IntOp> {
        Some(match op {
            Op::Add => IntOp::Add,
            Op::Sub => IntOp::Sub,
            Op::Mul => IntOp::Mul,
            Op::Div => IntOp::Div,
            Op::Rem => IntOp::Rem,
            Op::And => IntOp::And,
            Op::Or => IntOp::Or,
            Op::Xor => IntOp::Xor,
            Op::Shl => IntOp::Shl,
            Op::Shr => IntOp::Shr,
            Op::UShr => IntOp::UShr,
            Op::Eq => IntOp::Eq,
            Op::Ne => IntOp::Ne,
            Op::Lt => IntOp::Lt,
            Op::Le => IntOp::Le,
            Op::Gt => IntOp::Gt,
            Op::Ge => IntOp::Ge,
            _ => return None,
        })
    }
}

/// One pre-decoded bytecode: the resolved [`Op`] plus everything the
/// hot loop needs per step, in one cache-friendly record.
///
/// Costs are *machine-instruction counts*, not cycles: the engine sums
/// them across a basic block and divides by the tier's retirement width
/// once per block, so adjacent one-instruction bytecodes share issue
/// slots instead of each paying a full rounded-up cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DecodedOp {
    /// The operation with operands resolved.
    pub op: Op,
    /// Machine instructions retired when the op completes. For
    /// inline-cached sites this is the *hit* count, and for a fused head
    /// the count of the op it replaced; everything else retires the full
    /// sequence from the artifact.
    pub cost: u32,
    /// The second count: the additional machine instructions of an
    /// inline-cache miss, or the sum of a fused head's tail ops' counts
    /// (zero elsewhere). A field head charges its tail's counts instead.
    pub extra: u32,
    /// Machine PC of the op's memory instruction, for sample attribution.
    pub mem_pc: u64,
}

/// Monomorphic inline-cache slot state.
#[derive(Debug, Clone, Copy)]
pub(crate) enum IcSlot {
    /// Field site keyed by the receiver's class id ([`IC_ARRAY_KEY`] for
    /// array receivers, [`IC_EMPTY`] when cold).
    Field { class: u32 },
    /// Call site keyed by the callee's install generation (bumped every
    /// time any artifact for the callee is installed; [`IC_EMPTY`] when
    /// unlinked).
    Call { generation: u32 },
}

/// A method body decoded against one compiled artifact. Replaced — with
/// all cache slots cold — whenever the method is (re)installed.
#[derive(Debug, Clone)]
pub(crate) struct DecodedMethod {
    /// One entry per bytecode, same indices as the method body. Shared,
    /// so the engine takes the body once per frame entry and indexes it
    /// without going back through the method's slot.
    pub ops: Rc<[DecodedOp]>,
    /// Inline-cache slots referenced by `Op::{GetField,PutField,Call}`.
    pub ics: Vec<IcSlot>,
    /// Machine instructions retired per cycle for this body's tier (the
    /// divisor applied to a block's summed instruction counts).
    pub width: u64,
    /// Tier of the artifact this body was decoded against.
    pub tier: Tier,
    /// Basic-block id of each bytecode (leaders: entry, branch targets,
    /// fall-throughs after control transfers). The tier manager counts
    /// back-edge executions per block, and region compilation keeps the
    /// hottest blocks. Shared by every relocation of the body.
    pub block_of: Rc<[u32]>,
}

impl DecodedMethod {
    /// This body for the same artifact laid out at `to` instead of
    /// `from`: a copy of the ops with each memory pc moved by the same
    /// distance as the code, and the same cache slots. A body kept for
    /// relocation never runs, so its slots, and the copy's, are cold.
    pub(crate) fn relocated(&self, from: u64, to: u64) -> DecodedMethod {
        DecodedMethod {
            ops: self
                .ops
                .iter()
                .map(|d| DecodedOp {
                    mem_pc: d.mem_pc - from + to,
                    ..*d
                })
                .collect(),
            ics: self.ics.clone(),
            width: self.width,
            tier: self.tier,
            block_of: Rc::clone(&self.block_of),
        }
    }
}

/// Basic-block id per bytecode: a new block starts at the entry, at every
/// branch target, and after every control transfer.
pub(crate) fn block_map(body: &[Instr]) -> Vec<u32> {
    let mut leader = vec![false; body.len()];
    if !leader.is_empty() {
        leader[0] = true;
    }
    for (i, &instr) in body.iter().enumerate() {
        match instr {
            Instr::Jump(t) | Instr::JumpIf(t) | Instr::JumpIfNot(t) => {
                leader[t as usize] = true;
                if i + 1 < body.len() {
                    leader[i + 1] = true;
                }
            }
            Instr::Return | Instr::ReturnVal if i + 1 < body.len() => {
                leader[i + 1] = true;
            }
            _ => {}
        }
    }
    let mut block = 0u32;
    leader
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            if l && i > 0 {
                block += 1;
            }
            block
        })
        .collect()
}

/// Retired IPC for baseline-tier code under the flattened engine.
///
/// The per-step engine re-decodes every bytecode from the artifact, so
/// baseline code's operand-stack traffic serializes behind the decode
/// dependency chain (~1 IPC, the cost the slow path still charges).
/// Pre-decoding removes that chain: the stack loads/stores of adjacent
/// machine instructions dual-issue, while opt code — already register
/// allocated — retires at the full issue width.
pub(crate) const BASELINE_ISSUE_WIDTH: u64 = 2;

/// Retired IPC for opt- and region-tier code: the P4 "can issue several
/// instructions in parallel" (Section 6.1). Memory latency is charged on
/// top, so a wider issue makes programs more memory-bound, as on the
/// real machine.
pub(crate) const OPT_ISSUE_WIDTH: u64 = 3;

/// Decode `code`'s method body into the dense executable form.
///
/// `region` is the sorted block-id set a region-tier artifact covers
/// (`None` for baseline/opt code): bytecodes in blocks outside the
/// region decode to [`Op::Deopt`] at zero cost — region code never
/// retires instructions for paths it did not compile.
#[allow(clippy::too_many_lines)]
pub(crate) fn decode(
    program: &Program,
    code: &CompiledCode,
    region: Option<&[u32]>,
) -> DecodedMethod {
    let body = program.method(code.method).body();
    let mut ops = Vec::with_capacity(body.len());
    let mut ics = Vec::new();
    let width = match code.tier {
        Tier::Baseline => BASELINE_ISSUE_WIDTH,
        Tier::Opt | Tier::Region => OPT_ISSUE_WIDTH,
    };
    let block_of = block_map(body);
    for (bc, &i) in body.iter().enumerate() {
        if let Some(region) = region {
            if code.tier == Tier::Region && region.binary_search(&block_of[bc]).is_err() {
                ops.push(DecodedOp {
                    op: Op::Deopt,
                    cost: 0,
                    extra: 0,
                    mem_pc: code.mem_pc(bc),
                });
                continue;
            }
        }
        let full_cost = code.mach_count(bc);
        let mut cost = full_cost;
        let mut ic = IC_EMPTY;
        if let Some(hit) = ic_hit_count(i, code.tier) {
            cost = hit;
            ic = ics.len() as u32;
            ics.push(match i {
                Instr::Call(_) => IcSlot::Call {
                    generation: IC_EMPTY,
                },
                _ => IcSlot::Field { class: IC_EMPTY },
            });
        }
        let op = match i {
            Instr::Const(v) => Op::Const(v),
            Instr::ConstNull => Op::ConstNull,
            Instr::Load(n) => Op::Load(u32::from(n)),
            Instr::Store(n) => Op::Store(u32::from(n)),
            Instr::Dup => Op::Dup,
            Instr::Pop => Op::Pop,
            Instr::Swap => Op::Swap,
            Instr::Add => Op::Add,
            Instr::Sub => Op::Sub,
            Instr::Mul => Op::Mul,
            Instr::Div => Op::Div,
            Instr::Rem => Op::Rem,
            Instr::And => Op::And,
            Instr::Or => Op::Or,
            Instr::Xor => Op::Xor,
            Instr::Shl => Op::Shl,
            Instr::Shr => Op::Shr,
            Instr::UShr => Op::UShr,
            Instr::Neg => Op::Neg,
            Instr::Eq => Op::Eq,
            Instr::Ne => Op::Ne,
            Instr::Lt => Op::Lt,
            Instr::Le => Op::Le,
            Instr::Gt => Op::Gt,
            Instr::Ge => Op::Ge,
            Instr::Jump(t) => Op::Jump(t),
            Instr::JumpIf(t) => Op::JumpIf(t),
            Instr::JumpIfNot(t) => Op::JumpIfNot(t),
            Instr::New(c) => Op::New(c),
            Instr::NewArray(k) => Op::NewArray(k),
            Instr::GetField(f) => {
                let info = program.field(f);
                Op::GetField {
                    offset: info.offset,
                    is_ref: info.ty.is_ref(),
                    ic,
                }
            }
            Instr::PutField(f) => {
                let info = program.field(f);
                Op::PutField {
                    offset: info.offset,
                    is_ref: info.ty.is_ref(),
                    ic,
                }
            }
            Instr::GetStatic(s) => Op::GetStatic {
                index: s.0,
                addr: STATICS_BASE + 8 * u64::from(s.0),
            },
            Instr::PutStatic(s) => Op::PutStatic {
                index: s.0,
                addr: STATICS_BASE + 8 * u64::from(s.0),
            },
            Instr::ArrayGet(k) => Op::ArrayGet(k),
            Instr::ArraySet(k) => Op::ArraySet(k),
            Instr::ArrayLen => Op::ArrayLen,
            Instr::IsNull => Op::IsNull,
            Instr::RefEq => Op::RefEq,
            Instr::Call(callee) => Op::Call {
                callee,
                argc: u32::from(program.method(callee).params()),
                ic,
            },
            Instr::Return => Op::Return,
            Instr::ReturnVal => Op::ReturnVal,
        };
        ops.push(DecodedOp {
            op,
            cost,
            extra: full_cost.saturating_sub(cost),
            mem_pc: code.mem_pc(bc),
        });
    }
    if fusion_enabled() {
        fuse(&mut ops);
    }
    DecodedMethod {
        ops: ops.into(),
        ics,
        width,
        tier: code.tier,
        block_of: block_of.into(),
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only switch: decode without the peephole pass, so the vm
    /// tests can run a program fused and unfused and compare the runs.
    pub(crate) static SKIP_FUSION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The fused forms, in the order [`form`] numbers them.
#[cfg(test)]
pub(crate) const FORMS: [&str; 6] = [
    "CmpJump",
    "AddJump",
    "IntConst",
    "SwitchArm",
    "LoadField",
    "NullJump",
];

/// The index in [`FORMS`] of the form `op` heads, if it heads one.
#[cfg(test)]
pub(crate) fn form(op: Op) -> Option<usize> {
    Some(match op {
        Op::CmpJump { .. } => 0,
        Op::AddJump { .. } => 1,
        Op::IntConst { .. } => 2,
        Op::SwitchArm { .. } => 3,
        Op::LoadField { .. } => 4,
        Op::NullJump { .. } => 5,
        _ => return None,
    })
}

#[cfg(test)]
fn fusion_enabled() -> bool {
    !SKIP_FUSION.with(std::cell::Cell::get)
}

#[cfg(not(test))]
fn fusion_enabled() -> bool {
    true
}

/// The peephole pass: rewrite the head of each fused form into its
/// fused op. The head keeps its own count in [`DecodedOp::cost`] and
/// takes the tail ops' counts in [`DecodedOp::extra`]; the tail ops are
/// left as they are. A tail op may head a span of its own, which then
/// ends inside the outer one: `AddJump`'s `Const 1; Add` and a switch
/// arm's `Const k; Eq` are constant-operand spans. A field head reads
/// its tail `GetField` as it runs; no `GetField` heads a span, so the
/// pass leaves it as it is.
fn fuse(ops: &mut [DecodedOp]) {
    for pc in 0..ops.len() {
        if let Some(op) = fused_head(&ops[pc..], pc) {
            ops[pc].op = op;
            ops[pc].extra = ops[pc + 1..pc + op.span()].iter().map(|d| d.cost).sum();
        }
    }
}

/// The fused op for a span starting at `pc` with the ops `span`, if
/// they form one of:
/// - `Load a; Load b; Ge; JumpIf t` and `Load l; Const k; Add; Store l;
///   Jump t` with `k` in `i32`, the two sequences `for_loop` emits. No
///   other comparison of two locals is fused: no benchmark program runs
///   one but this;
/// - `Const k; <int op>`, unless the op divides by `k = 0`;
/// - `Dup; Const k; Eq; JumpIf t`;
/// - `Load l; GetField`;
/// - `Load l; IsNull; JumpIf t`.
///
/// Every fused conditional branch is forward, past its span, so no
/// fused head takes a back edge but `AddJump`'s `Jump`.
fn fused_head(span: &[DecodedOp], pc: usize) -> Option<Op> {
    let op = |i: usize| span.get(i).map(|d| d.op);
    let forward = |target: u32, n: usize| (target as usize >= pc + n).then_some(());
    Some(match (op(0)?, op(1)?) {
        (Op::Const(k), tail) => {
            let op = IntOp::of(tail)?;
            if matches!(op, IntOp::Div | IntOp::Rem) && k == 0 {
                return None;
            }
            Op::IntConst { op, k }
        }
        (Op::Dup, Op::Const(k)) => {
            let (Op::Eq, Op::JumpIf(target)) = (op(2)?, op(3)?) else {
                return None;
            };
            forward(target, SWITCH_ARM_SPAN)?;
            Op::SwitchArm { k, target }
        }
        (Op::Load(local), Op::GetField { .. }) => Op::LoadField { local },
        (Op::Load(local), Op::IsNull) => {
            let Op::JumpIf(target) = op(2)? else {
                return None;
            };
            forward(target, NULL_JUMP_SPAN)?;
            Op::NullJump { local, target }
        }
        (Op::Load(a), Op::Load(b)) => {
            let (Op::Ge, Op::JumpIf(target)) = (op(2)?, op(3)?) else {
                return None;
            };
            forward(target, CMP_JUMP_SPAN)?;
            Op::CmpJump { a, b, target }
        }
        (Op::Load(local), Op::Const(k)) => {
            let (Op::Add, Op::Store(l), Op::Jump(target)) = (op(2)?, op(3)?, op(4)?) else {
                return None;
            };
            if l != local {
                return None;
            }
            Op::AddJump {
                local,
                k: i32::try_from(k).ok()?,
                target,
            }
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
    use hpmopt_bytecode::FieldType;

    fn sample_program() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", &[("f", FieldType::Int)]);
        let f = pb.field_id(c, "f").unwrap();
        let mut m = MethodBuilder::new("main", 0, 1, false);
        m.new_object(c);
        m.store(0);
        m.load(0);
        m.const_i(5);
        m.put_field(f);
        m.load(0);
        m.get_field(f);
        m.pop();
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        (pb.finish().unwrap(), id)
    }

    // A new variant must not widen every op of every decoded body.
    const _: () = assert!(std::mem::size_of::<DecodedOp>() == 32);

    /// Two nested counted loops over a static and a field: each
    /// `for_loop` yields one span of each loop form, and a
    /// constant-operand span inside its `AddJump`'s.
    fn counted_loops_program() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", &[("f", FieldType::Int)]);
        let f = pb.field_id(c, "f").unwrap();
        let g = pb.add_static("acc", FieldType::Int);
        let mut m = MethodBuilder::new("main", 0, 3, false);
        m.new_object(c);
        m.store(2);
        m.for_loop(
            0,
            |m| {
                m.const_i(3);
            },
            |m| {
                m.for_loop(
                    1,
                    |m| {
                        m.const_i(4);
                    },
                    |m| {
                        m.get_static(g);
                        m.load(2);
                        m.get_field(f);
                        m.add();
                        m.put_static(g);
                    },
                );
            },
        );
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        (pb.finish().unwrap(), id)
    }

    fn decode_unfused(p: &Program, code: &CompiledCode, region: Option<&[u32]>) -> DecodedMethod {
        SKIP_FUSION.with(|s| s.set(true));
        let d = decode(p, code, region);
        SKIP_FUSION.with(|s| s.set(false));
        d
    }

    /// One span of each fused form; a switch arm's and a counted loop's
    /// tails hold constant-operand spans of their own.
    fn every_form_program() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", &[("f", FieldType::Int)]);
        let f = pb.field_id(c, "f").unwrap();
        let mut m = MethodBuilder::new("main", 0, 2, false);
        let (out, arm) = (m.label(), m.label());
        m.new_object(c);
        m.store(0);
        m.load(0); // NullJump
        m.is_null();
        m.jump_if(out);
        m.load(0); // LoadField
        m.get_field(f);
        m.const_i(3); // IntConst
        m.xor();
        m.dup(); // SwitchArm, with `Const 5; Eq` an IntConst
        m.const_i(5);
        m.eq();
        m.jump_if(arm);
        m.bind(arm);
        m.pop();
        // CmpJump, and AddJump with `Const 1; Add` an IntConst.
        m.for_loop(
            1,
            |m| {
                m.const_i(2);
            },
            |_| {},
        );
        m.bind(out);
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        (pb.finish().unwrap(), id)
    }

    /// Check `d` against `unfused`, the same artifact decoded without the
    /// pass, and both against the artifact: every op that heads no span
    /// is the unfused op, and each head keeps the count of the op it
    /// replaced and takes the counts of its span's other ops. Returns the
    /// heads of each form.
    fn check_heads(
        d: &DecodedMethod,
        unfused: &DecodedMethod,
        code: &CompiledCode,
    ) -> [usize; FORMS.len()] {
        assert_eq!(d.ops.len(), unfused.ops.len());
        let mut heads = [0; FORMS.len()];
        for (bc, (op, plain)) in d.ops.iter().zip(unfused.ops.iter()).enumerate() {
            assert_eq!(op.mem_pc, code.mem_pc(bc), "mem_pc drift at {bc}");
            if plain.op != Op::Deopt {
                assert_eq!(
                    plain.cost + plain.extra,
                    code.mach_count(bc),
                    "hit+extra must equal the artifact's count at {bc}"
                );
            }
            let Some(f) = form(op.op) else {
                // Every other op, tail ops included, decodes as it does
                // without the pass.
                assert_eq!(op, plain, "bc {bc} changed");
                continue;
            };
            heads[f] += 1;
            let span = &unfused.ops[bc..bc + op.op.span()];
            assert!(span.iter().all(|o| o.op != Op::Deopt), "head {bc}");
            assert_eq!(op.cost, plain.cost, "head {bc} keeps its count");
            assert_eq!(
                op.cost + op.extra,
                span.iter().map(|o| o.cost).sum::<u32>(),
                "head {bc}'s counts sum over its span"
            );
        }
        heads
    }

    #[test]
    fn decoded_ops_align_with_body_and_artifact() {
        for (prog, want_heads) in [
            (sample_program(), [0, 0, 0, 0, 1, 0]),
            (counted_loops_program(), [2, 2, 2, 0, 1, 0]),
            (every_form_program(), [1, 1, 3, 1, 1, 1]),
        ] {
            let (p, id) = prog;
            for tier in [Tier::Baseline, Tier::Opt] {
                let code = compile(&p, id, tier, 0x4000_0000, true);
                let d = decode(&p, &code, None);
                assert_eq!(d.ops.len(), p.method(id).len());
                assert!(d.width >= 2, "flattened dispatch at least dual-issues");
                let heads = check_heads(&d, &decode_unfused(&p, &code, None), &code);
                assert_eq!(heads, want_heads, "{tier:?}");
            }
        }
    }

    #[test]
    fn a_relocated_body_is_the_body_decoded_at_the_new_start() {
        let (p, id) = counted_loops_program();
        for tier in [Tier::Baseline, Tier::Opt] {
            let code = compile(&p, id, tier, 0x4000_0000, true);
            let body = decode(&p, &code, None);
            for to in [0x4000_0000, 0x4000_0100, 0x4001_0000] {
                let moved = body.relocated(code.code_start, to);
                let want = decode(&p, &code.relocated(to), None);
                assert_eq!(moved.ops, want.ops, "{tier} at {to:#x}");
                assert_eq!(moved.block_of, want.block_of);
                assert!(Rc::ptr_eq(&moved.block_of, &body.block_of), "shared");
                assert_eq!((moved.width, moved.tier), (want.width, want.tier));
                assert_eq!(moved.ics.len(), want.ics.len());
            }
        }
    }

    #[test]
    fn fused_heads_resolve_their_operands() {
        for (p, id) in [counted_loops_program(), every_form_program()] {
            let code = compile(&p, id, Tier::Opt, 0x4000_0000, true);
            let body = p.method(id).body();
            let d = decode(&p, &code, None);
            let unfused = decode_unfused(&p, &code, None);
            for (bc, op) in d.ops.iter().enumerate() {
                match op.op {
                    Op::CmpJump { a, b, target } => {
                        // for_loop's head: `Load i; Load n; Ge; JumpIf exit`.
                        assert_eq!(body[bc], Instr::Load(a as u16));
                        assert_eq!(body[bc + 1], Instr::Load(b as u16));
                        assert_eq!(body[bc + 2], Instr::Ge);
                        assert_eq!(body[bc + 3], Instr::JumpIf(target));
                    }
                    Op::AddJump { local, k, target } => {
                        assert_eq!(body[bc], Instr::Load(local as u16));
                        assert_eq!(body[bc + 1], Instr::Const(i64::from(k)));
                        assert_eq!(body[bc + 4], Instr::Jump(target));
                    }
                    Op::IntConst { op, k } => {
                        assert_eq!(body[bc], Instr::Const(k));
                        assert_eq!(IntOp::of(unfused.ops[bc + 1].op), Some(op));
                    }
                    Op::SwitchArm { k, target } => {
                        assert_eq!(body[bc], Instr::Dup);
                        assert_eq!(body[bc + 1], Instr::Const(k));
                        assert_eq!(body[bc + 2], Instr::Eq);
                        assert_eq!(body[bc + 3], Instr::JumpIf(target));
                    }
                    Op::LoadField { local } => {
                        assert_eq!(body[bc], Instr::Load(local as u16));
                        assert!(matches!(body[bc + 1], Instr::GetField(_)));
                    }
                    Op::NullJump { local, target } => {
                        assert_eq!(body[bc], Instr::Load(local as u16));
                        assert_eq!(body[bc + 1], Instr::IsNull);
                        assert_eq!(body[bc + 2], Instr::JumpIf(target));
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn only_whole_forward_spans_fuse() {
        let build = |emit: &dyn Fn(&mut MethodBuilder)| {
            let mut pb = ProgramBuilder::new();
            let mut m = MethodBuilder::new("main", 0, 2, false);
            emit(&mut m);
            m.ret();
            let id = pb.add_method(m);
            pb.set_entry(id);
            let p = pb.finish().unwrap();
            let code = compile(&p, id, Tier::Baseline, 0x4000_0000, true);
            let d = decode(&p, &code, None);
            d.ops.iter().map(|o| o.op).collect::<Vec<_>>()
        };
        // A forward `Ge; JumpIf` fuses.
        let ops = build(&|m| {
            let out = m.label();
            m.load(0);
            m.load(1);
            m.ge();
            m.jump_if(out);
            m.bind(out);
        });
        assert_eq!(
            ops[0],
            Op::CmpJump {
                a: 0,
                b: 1,
                target: 4
            }
        );
        // A backward one stays unfused, and so do a backward switch arm
        // and null test.
        let ops = build(&|m| {
            let top = m.label();
            m.bind(top);
            m.load(0);
            m.load(1);
            m.ge();
            m.jump_if(top);
        });
        assert_eq!(ops[0], Op::Load(0));
        let ops = build(&|m| {
            let top = m.label();
            m.const_i(1);
            m.bind(top);
            m.dup();
            m.const_i(1);
            m.eq();
            m.jump_if(top);
            m.load(0);
            m.is_null();
            m.jump_if(top);
        });
        assert_eq!(ops[1], Op::Dup);
        assert_eq!(ops[5], Op::Load(0));
        // A division by a constant 0 stays unfused, as does a constant
        // before a one-operand op.
        for (tail, fused) in [
            (Instr::Div, false),
            (Instr::Rem, false),
            (Instr::Neg, false),
            (Instr::Add, true),
        ] {
            let ops = build(&|m| {
                m.const_i(9);
                m.const_i(0);
                m.emit(tail);
                m.pop();
            });
            assert_eq!(
                matches!(ops[1], Op::IntConst { k: 0, .. }),
                fused,
                "{tail:?}"
            );
        }
        // An add to another local, or of a constant past `i32`, stays
        // unfused.
        for (store, k) in [(1, 1), (0, i64::from(i32::MAX) + 1)] {
            let ops = build(&|m| {
                let top = m.label();
                let out = m.label();
                m.jump(out);
                m.bind(top);
                m.load(0);
                m.const_i(k);
                m.add();
                m.store(store);
                m.jump(top);
                m.bind(out);
            });
            assert_eq!(ops[1], Op::Load(0), "store {store}, k {k}");
        }
        // A branch into the middle of a span leaves it fused, but a
        // region that stops there decodes its tail to `Deopt` and keeps
        // the head a plain `Load`.
        let (p, id) = mid_span_program();
        let code = compile(&p, id, Tier::Region, 0x4000_0000, true);
        assert_eq!(block_map(p.method(id).body()), vec![0, 0, 1, 2, 2, 2, 3, 4]);
        let full = decode(&p, &code, Some(&[0, 1, 2, 3, 4]));
        assert!(matches!(full.ops[2].op, Op::CmpJump { .. }));
        let cut = decode(&p, &code, Some(&[0, 1, 3, 4]));
        assert_eq!(cut.ops[2].op, Op::Load(0));
        assert!(matches!(cut.ops[3].op, Op::Deopt));
    }

    /// A compare-and-branch span (bc 2..=5) whose second op is also
    /// entered by a branch (bc 1), so a block starts inside the span.
    fn mid_span_program() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let mut m = MethodBuilder::new("main", 0, 2, false);
        let (head, mid, exit) = (m.label(), m.label(), m.label());
        m.const_i(7); // bc 0
        m.jump(mid); // bc 1
        m.bind(head);
        m.load(0); // bc 2: the span's head
        m.bind(mid);
        m.load(1); // bc 3
        m.ge();
        m.jump_if(exit); // bc 5
        m.jump(head); // bc 6
        m.bind(exit);
        m.ret(); // bc 7
        let id = pb.add_method(m);
        pb.set_entry(id);
        (pb.finish().unwrap(), id)
    }

    fn looped_program() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let mut m = MethodBuilder::new("main", 0, 1, false);
        m.const_i(3); // bc 0   block 0
        m.store(0); // bc 1
        let top = m.label();
        m.bind(top); // bc 2   block 1 (branch target)
        m.load(0);
        m.const_i(1);
        m.sub();
        m.store(0);
        m.load(0);
        m.jump_if(top); // bc 7   back edge
        m.ret(); // bc 8   block 2 (fall-through leader)
        let id = pb.add_method(m);
        pb.set_entry(id);
        (pb.finish().unwrap(), id)
    }

    #[test]
    fn block_map_splits_at_targets_and_after_transfers() {
        let (p, id) = looped_program();
        let blocks = block_map(p.method(id).body());
        assert_eq!(blocks, vec![0, 0, 1, 1, 1, 1, 1, 1, 2]);
    }

    #[test]
    fn region_decode_lowers_out_of_region_blocks_to_deopt() {
        let (p, id) = looped_program();
        let code = compile(&p, id, Tier::Region, 0x4000_0000, true);
        // Region covers entry + loop body, not the exit block.
        let region: &[u32] = &[0, 1];
        let d = decode(&p, &code, Some(region));
        assert_eq!(d.tier, Tier::Region);
        assert_eq!(d.width, OPT_ISSUE_WIDTH);
        for (bc, op) in d.ops.iter().enumerate() {
            if d.block_of[bc] == 2 {
                assert!(matches!(op.op, Op::Deopt), "exit block must deopt");
                assert_eq!(op.cost, 0, "deopt retires nothing");
                assert_eq!(op.extra, 0);
            } else {
                assert!(!matches!(op.op, Op::Deopt), "in-region bc {bc} kept");
            }
        }
        // The loop's `Const 1; Sub` is the one head, inside the region.
        let heads = check_heads(&d, &decode_unfused(&p, &code, Some(region)), &code);
        assert_eq!(heads, [0, 0, 1, 0, 0, 0]);
        // A full-coverage region decodes with no deopts at all.
        let full = decode(&p, &code, Some(&[0, 1, 2]));
        assert!(full.ops.iter().all(|o| !matches!(o.op, Op::Deopt)));
    }

    #[test]
    fn ic_slots_cover_exactly_the_cacheable_sites() {
        let (p, id) = sample_program();
        let code = compile(&p, id, Tier::Baseline, 0x4000_0000, true);
        let d = decode(&p, &code, None);
        // put_field + get_field: two field slots, no call slots.
        assert_eq!(d.ics.len(), 2);
        assert!(d
            .ics
            .iter()
            .all(|s| matches!(s, IcSlot::Field { class: IC_EMPTY })));
        let cached: Vec<u32> = d
            .ops
            .iter()
            .filter_map(|o| match o.op {
                Op::GetField { ic, .. } | Op::PutField { ic, .. } | Op::Call { ic, .. } => Some(ic),
                _ => None,
            })
            .collect();
        assert_eq!(cached, vec![0, 1]);
        // Cacheable sites are cheaper on a hit than the full sequence.
        for o in d.ops.iter().filter(|o| {
            matches!(
                o.op,
                Op::GetField { .. } | Op::PutField { .. } | Op::Call { .. }
            )
        }) {
            assert!(o.extra > 0, "baseline IC hit must beat the full cost");
        }
    }
}
