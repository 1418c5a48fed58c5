//! Properties of the instructions-of-interest analysis and the sample
//! resolver, checked over seeded random inputs (each case is
//! reproducible from its seed).

use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
use hpmopt_bytecode::{FieldType, Program};
use hpmopt_core::interest::analyze_method;
use hpmopt_core::mapping::SampleResolver;
use hpmopt_prim::Rng;
use hpmopt_vm::compiler::compile;
use hpmopt_vm::Tier;

/// Cases per property.
const CASES: u64 = 256;

/// Uniform in `0..n` by `next % n`: the reduction these streams were
/// recorded with (`Rng::below` reduces by multiply-shift instead).
fn below(rng: &mut Rng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// Straight-line access-path programs: a chain of `getfield` hops from a
/// fresh object, optionally stashed in locals along the way.
#[derive(Debug, Clone, Copy)]
enum Hop {
    /// `getfield y` (the ref field).
    Deref,
    /// store to a local, reload it.
    ViaLocal,
    /// `dup; pop` noise.
    Noise,
}

/// Up to 11 hops, each drawn uniformly.
fn hops(rng: &mut Rng) -> Vec<Hop> {
    let n = below(rng, 12);
    (0..n)
        .map(|_| [Hop::Deref, Hop::ViaLocal, Hop::Noise][below(rng, 3) as usize])
        .collect()
}

/// Build `new A; (hops); getfield i; pop; ret` and return (program,
/// index of the final `getfield i`, whether its base came through a
/// ref-field load).
fn build(hopseq: &[Hop]) -> (Program, u32, bool) {
    let mut pb = ProgramBuilder::new();
    let a = pb.add_class("A", &[("y", FieldType::Ref), ("i", FieldType::Int)]);
    let y = pb.field_id(a, "y").unwrap();
    let i = pb.field_id(a, "i").unwrap();
    let mut m = MethodBuilder::new("main", 0, 2, false);
    m.new_object(a);
    let mut came_from_field = false;
    for h in hopseq {
        match h {
            Hop::Deref => {
                m.get_field(y);
                came_from_field = true;
            }
            Hop::ViaLocal => {
                m.store(1);
                m.load(1);
            }
            Hop::Noise => {
                m.dup();
                m.pop();
            }
        }
    }
    let final_get = m.here();
    m.get_field(i);
    m.pop();
    m.ret();
    let id = pb.add_method(m);
    pb.set_entry(id);
    (pb.finish().unwrap(), final_get, came_from_field)
}

/// The final `getfield i` is an instruction of interest exactly when its
/// base object flowed through at least one reference-field load — and
/// the blamed field is then `A::y`, no matter how many local stashes or
/// stack shuffles intervened.
#[test]
fn interest_tracks_access_paths() {
    let mut via_field = 0;
    for seed in 0..CASES {
        let hopseq = hops(&mut Rng::new(seed));
        let (p, final_get, expect) = build(&hopseq);
        let map = analyze_method(&p, p.entry());
        let a = p.class_by_name("A").unwrap();
        let y = p.field_by_name(a, "y").unwrap();
        assert_eq!(
            map.field_for(final_get),
            if expect { Some(y) } else { None },
            "seed {seed}, hops: {hopseq:?}"
        );
        via_field += u64::from(expect);
    }
    assert!(
        via_field > 0 && via_field < CASES,
        "both outcomes are drawn"
    );
}

/// Every machine PC of a full-map artifact resolves to a bytecode index
/// within the method body; PCs outside resolve to errors.
#[test]
fn resolver_is_total_over_full_maps() {
    for seed in 0..CASES {
        let hopseq = hops(&mut Rng::new(seed));
        let (p, _, _) = build(&hopseq);
        let code = compile(&p, p.entry(), Tier::Opt, 0x4000_0000, true);
        let start = code.code_start;
        let end = code.code_end();
        let body_len = p.method(p.entry()).len() as u32;
        let mut r = SampleResolver::new();
        r.register(code);
        for pc in (start..end).step_by(4) {
            let resolved = r.resolve(pc, 0);
            assert!(resolved.is_ok(), "seed {seed}: pc {pc:#x} must resolve");
            assert!(resolved.unwrap().bytecode_index < body_len, "seed {seed}");
        }
        assert!(r.resolve(start - 4, 0).is_err(), "seed {seed}");
        assert!(r.resolve(end, 0).is_err(), "seed {seed}");
    }
}
