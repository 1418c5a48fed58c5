//! The baseline and optimizing "compilers".
//!
//! The simulation does not generate executable x86; what the rest of the
//! system needs from a compiler is exactly what these functions produce:
//!
//! 1. a concrete code-address range per method (so samples carry PCs),
//! 2. a per-bytecode machine-instruction count (the cycle cost model —
//!    opt code executes fewer machine instructions per bytecode),
//! 3. machine-code maps and GC maps with realistic relative sizes
//!    (Table 2 measures their space overhead).
//!
//! The per-opcode instruction counts are loosely calibrated against what
//! Jikes RVM's tiers emit for JVM bytecode on IA-32: baseline code keeps
//! the operand stack in memory (several instructions per bytecode), while
//! opt code holds temporaries in registers.

use hpmopt_bytecode::{Instr, MethodId, Program};

use crate::{CompiledCode, McMap, Tier};

/// The per-opcode cost table: machine instructions emitted per bytecode
/// as `(baseline, opt, region)`. This is the **single source of truth**
/// for the instruction-count cost model — [`compile`] lays out every
/// artifact from it and `predecode` takes its costs from the laid-out
/// artifact, so a decoded cost can never drift from this table (the
/// `artifact_counts_match_the_cost_table` test pins the chain).
///
/// Region code is the tier-2 compiler's output for a method's hot block
/// sequence: scheduling over a larger scope shaves an instruction off
/// the heavier memory-access bytecodes relative to opt code.
fn tier_counts(i: Instr) -> (u32, u32, u32) {
    match i {
        Instr::Const(_) | Instr::ConstNull => (2, 1, 1),
        Instr::Load(_) | Instr::Store(_) => (2, 1, 1),
        Instr::Dup | Instr::Pop | Instr::Swap => (2, 1, 1),
        Instr::Add
        | Instr::Sub
        | Instr::And
        | Instr::Or
        | Instr::Xor
        | Instr::Shl
        | Instr::Shr
        | Instr::UShr
        | Instr::Neg => (3, 1, 1),
        Instr::Mul => (3, 2, 2),
        Instr::Div | Instr::Rem => (5, 3, 3),
        Instr::Eq | Instr::Ne | Instr::Lt | Instr::Le | Instr::Gt | Instr::Ge => (3, 1, 1),
        Instr::Jump(_) => (1, 1, 1),
        Instr::JumpIf(_) | Instr::JumpIfNot(_) => (3, 2, 1),
        Instr::New(_) => (8, 5, 4),
        Instr::NewArray(_) => (9, 6, 5),
        Instr::GetField(_) => (4, 2, 1),
        Instr::PutField(_) => (5, 3, 2),
        Instr::GetStatic(_) | Instr::PutStatic(_) => (3, 2, 2),
        Instr::ArrayGet(_) => (5, 3, 2),
        Instr::ArraySet(_) => (6, 4, 3),
        Instr::ArrayLen => (3, 2, 1),
        Instr::IsNull | Instr::RefEq => (3, 1, 1),
        Instr::Call(_) => (6, 4, 4),
        Instr::Return | Instr::ReturnVal => (3, 2, 2),
    }
}

/// Machine instructions the given tier emits for one bytecode.
#[must_use]
pub fn mach_instr_count(i: Instr, tier: Tier) -> u32 {
    let (baseline, opt, region) = tier_counts(i);
    match tier {
        Tier::Baseline => baseline,
        Tier::Opt => opt,
        Tier::Region => region,
    }
}

/// Machine-code bytes the given tier emits for a whole method body —
/// what the code cache must reserve before [`compile`] runs. Summing
/// [`mach_instr_count`] guarantees the reservation matches the artifact.
#[must_use]
pub fn compiled_code_bytes(program: &Program, method: MethodId, tier: Tier) -> u64 {
    let mach: u64 = program
        .method(method)
        .body()
        .iter()
        .map(|&i| u64::from(mach_instr_count(i, tier)))
        .sum();
    mach * crate::MACH_INSTR_BYTES
}

/// Machine instructions retired at a monomorphic inline-cache *hit* for
/// the cacheable sites (`GetField`/`PutField`/`Call`), or `None` when
/// the instruction has no inline cache. A hit skips the class/
/// method-table lookup the full sequence in [`mach_instr_count`]
/// performs; a miss (including the first execution at a site) retires
/// the full sequence and re-keys the cache. The *laid-out* code is
/// unchanged — the fast path jumps over the slow-path tail — which is
/// why code addresses, MC maps, and GC maps are identical with caches
/// on or off; only the dynamic retired-instruction count changes.
#[must_use]
pub fn ic_hit_count(i: Instr, tier: Tier) -> Option<u32> {
    let (baseline, opt, region) = match i {
        Instr::GetField(_) => (2, 1, 1),
        Instr::PutField(_) => (3, 2, 2),
        Instr::Call(_) => (3, 2, 2),
        _ => return None,
    };
    Some(match tier {
        Tier::Baseline => baseline,
        Tier::Opt => opt,
        Tier::Region => region,
    })
}

/// Compile `method` at `tier`, placing the code at `code_start`.
///
/// `full_maps` controls opt-tier mapping: `true` applies the paper's
/// extension (a bytecode-index entry for *every* machine instruction);
/// `false` keeps the stock GC-point-only map. Baseline code always gets
/// full maps, as in Jikes (Section 4.2).
#[must_use]
pub fn compile(
    program: &Program,
    method: MethodId,
    tier: Tier,
    code_start: u64,
    full_maps: bool,
) -> CompiledCode {
    let body = program.method(method).body();
    let mut counts = Vec::with_capacity(body.len());
    let mut full: Vec<u32> = Vec::new();
    let mut gc_entries: Vec<(u32, u32)> = Vec::new();
    let mut gc_points: Vec<u32> = Vec::new();
    let mut mach = 0u32;

    for (bc, &i) in body.iter().enumerate() {
        let n = mach_instr_count(i, tier);
        counts.push(n);
        for _ in 0..n {
            full.push(bc as u32);
        }
        if i.is_gc_point() {
            // The GC point is the last machine instruction of the bytecode
            // (the allocation / call itself).
            let at = mach + n - 1;
            gc_points.push(at);
            gc_entries.push((at, bc as u32));
        }
        mach += n;
    }

    let mc_map = if tier == Tier::Baseline || full_maps {
        McMap::Full(full)
    } else {
        McMap::GcPointsOnly(gc_entries)
    };
    CompiledCode::new(method, tier, code_start, &counts, mc_map, gc_points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
    use hpmopt_bytecode::FieldType;

    fn program() -> (Program, MethodId) {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", &[("f", FieldType::Ref)]);
        let f = pb.field_id(c, "f").unwrap();
        let mut m = MethodBuilder::new("main", 0, 1, false);
        m.new_object(c); // GC point
        m.store(0);
        m.load(0);
        m.get_field(f); // heap access
        m.pop();
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        (pb.finish().unwrap(), id)
    }

    #[test]
    fn opt_code_is_denser_than_baseline() {
        let (p, id) = program();
        let base = compile(&p, id, Tier::Baseline, 0x4000_0000, true);
        let opt = compile(&p, id, Tier::Opt, 0x5000_0000, true);
        assert!(opt.machine_len() < base.machine_len());
        assert_eq!(base.tier, Tier::Baseline);
        assert_eq!(opt.tier, Tier::Opt);
    }

    #[test]
    fn baseline_always_has_full_maps() {
        let (p, id) = program();
        let base = compile(&p, id, Tier::Baseline, 0x4000_0000, false);
        assert!(matches!(base.mc_map(), McMap::Full(_)));
    }

    #[test]
    fn opt_without_extension_maps_only_gc_points() {
        let (p, id) = program();
        let opt = compile(&p, id, Tier::Opt, 0x4000_0000, false);
        let McMap::GcPointsOnly(entries) = opt.mc_map() else {
            panic!("expected GC-point map");
        };
        assert_eq!(entries.len(), 1, "exactly the New instruction");
        // The heap access at bytecode 3 is unmapped → sample unattributable.
        let get_field_pc = opt.mem_pc(3);
        assert_eq!(opt.bytecode_at(get_field_pc), None);
    }

    #[test]
    fn opt_with_extension_maps_every_instruction() {
        let (p, id) = program();
        let opt = compile(&p, id, Tier::Opt, 0x4000_0000, true);
        let get_field_pc = opt.mem_pc(3);
        assert_eq!(opt.bytecode_at(get_field_pc), Some(3));
    }

    #[test]
    fn mc_maps_are_several_times_gc_maps() {
        // Table 2's headline: full MC maps are ~4-5× the GC maps.
        let (p, id) = program();
        let base = compile(&p, id, Tier::Baseline, 0x4000_0000, true);
        assert!(base.mc_map().size_bytes() > 2 * base.gc_map_bytes());
    }

    #[test]
    fn every_bytecode_lowered_to_at_least_one_instruction() {
        let (p, id) = program();
        let c = compile(&p, id, Tier::Opt, 0, true);
        for bc in 0..p.method(id).len() {
            assert!(c.mach_count(bc) >= 1);
        }
    }

    #[test]
    fn artifact_counts_match_the_cost_table() {
        // The single-source-of-truth chain: whatever the artifact says a
        // bytecode costs must be exactly `mach_instr_count` — predecode
        // reads the artifact, so it can never drift from the table.
        let (p, id) = program();
        for tier in [Tier::Baseline, Tier::Opt, Tier::Region] {
            let c = compile(&p, id, tier, 0x4000_0000, true);
            for (bc, &i) in p.method(id).body().iter().enumerate() {
                assert_eq!(
                    c.mach_count(bc),
                    mach_instr_count(i, tier),
                    "count drift at bc {bc} tier {tier}"
                );
            }
            assert_eq!(
                c.machine_code_bytes(),
                compiled_code_bytes(&p, id, tier),
                "reservation size must match the artifact at {tier}"
            );
        }
    }

    #[test]
    fn higher_tiers_never_emit_more_instructions() {
        let (p, id) = program();
        for &i in p.method(id).body() {
            let b = mach_instr_count(i, Tier::Baseline);
            let o = mach_instr_count(i, Tier::Opt);
            let r = mach_instr_count(i, Tier::Region);
            assert!(r <= o && o <= b, "tier monotonicity broken for {i:?}");
            if let Some(hit) = ic_hit_count(i, Tier::Region) {
                assert!(hit <= r, "IC hit cannot beat the full region count");
            }
        }
    }
}
