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
//! method is recompiled, and call slots are invalidated by construction
//! when a callee is recompiled because the callee's generation bumps.
//!
//! Everything here is a *cost-model* artifact: decoding never changes
//! program semantics, and the laid-out machine code (sizes, addresses,
//! maps) is exactly what [`crate::compiler::compile`] produced.

use std::rc::Rc;

use hpmopt_bytecode::{ClassId, ElemKind, Instr, MethodId, Program};

use crate::compiler::ic_hit_count;
use crate::machine::{CompiledCode, Tier};
use crate::STATICS_BASE;

/// Sentinel for an inline-cache slot that has never been keyed.
pub(crate) const IC_EMPTY: u32 = u32::MAX;

/// Inline-cache key for receivers that are arrays rather than class
/// instances (field access on an array can never match a class key, so
/// such sites simply stay in the slow path).
pub(crate) const IC_ARRAY_KEY: u32 = u32::MAX - 1;

/// A bytecode with operands resolved at decode time.
#[derive(Debug, Clone, Copy)]
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
    /// Region-tier code only: this bytecode's block is outside the
    /// compiled region. Executing it abandons the region artifact —
    /// the engine reinstalls baseline code and re-enters the frame at
    /// the same bytecode. Never emitted for baseline or opt code.
    Deopt,
}

/// One pre-decoded bytecode: the resolved [`Op`] plus everything the
/// hot loop needs per step, in one cache-friendly record.
///
/// Costs are *machine-instruction counts*, not cycles: the engine sums
/// them across a basic block and divides by the tier's retirement width
/// once per block, so adjacent one-instruction bytecodes share issue
/// slots instead of each paying a full rounded-up cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedOp {
    /// The operation with operands resolved.
    pub op: Op,
    /// Machine instructions retired when the op completes. For
    /// inline-cached sites this is the *hit* count; everything else
    /// retires the full sequence from the artifact.
    pub cost: u32,
    /// Additional machine instructions on an inline-cache miss (zero
    /// elsewhere).
    pub miss_extra: u32,
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
/// all cache slots cold — whenever the method is (re)compiled.
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
    /// hottest blocks.
    pub block_of: Vec<u32>,
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
                    miss_extra: 0,
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
            miss_extra: full_cost.saturating_sub(cost),
            mem_pc: code.mem_pc(bc),
        });
    }
    DecodedMethod {
        ops: ops.into(),
        ics,
        width,
        tier: code.tier,
        block_of,
    }
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

    #[test]
    fn decoded_ops_align_with_body_and_artifact() {
        let (p, id) = sample_program();
        for tier in [Tier::Baseline, Tier::Opt] {
            let code = compile(&p, id, tier, 0x4000_0000, true);
            let d = decode(&p, &code, None);
            assert_eq!(d.ops.len(), p.method(id).len());
            assert!(d.width >= 2, "flattened dispatch at least dual-issues");
            for (bc, op) in d.ops.iter().enumerate() {
                assert_eq!(op.mem_pc, code.mem_pc(bc), "mem_pc drift at {bc}");
                assert_eq!(
                    op.cost + op.miss_extra,
                    code.mach_count(bc),
                    "hit+miss_extra must equal the artifact's count at {bc}"
                );
            }
        }
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
        let d = decode(&p, &code, Some(&[0, 1]));
        assert_eq!(d.tier, Tier::Region);
        assert_eq!(d.width, OPT_ISSUE_WIDTH);
        for (bc, op) in d.ops.iter().enumerate() {
            if d.block_of[bc] == 2 {
                assert!(matches!(op.op, Op::Deopt), "exit block must deopt");
                assert_eq!(op.cost, 0, "deopt retires nothing");
                assert_eq!(op.miss_extra, 0);
            } else {
                assert!(!matches!(op.op, Op::Deopt), "in-region bc {bc} kept");
                assert_eq!(op.cost + op.miss_extra, code.mach_count(bc));
            }
        }
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
            assert!(o.miss_extra > 0, "baseline IC hit must beat the full cost");
        }
    }
}
