//! Properties of the bytecode substrate, checked over seeded random
//! inputs (each case is reproducible from its seed) and, where the
//! domain is small, over all of it.

use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
use hpmopt_bytecode::verify::max_stack_depth;
use hpmopt_bytecode::{FieldType, Instr};
use hpmopt_prim::Rng;

/// Cases per seeded property.
const CASES: u64 = 256;

fn int(rng: &mut Rng) -> i64 {
    rng.next_u64() as i64
}

/// A random stack-neutral snippet.
fn snippet(rng: &mut Rng) -> Vec<Instr> {
    match rng.below(5) {
        // push-pop
        0 => vec![Instr::Const(int(rng)), Instr::Pop],
        // arithmetic on two constants
        1 => vec![
            Instr::Const(int(rng)),
            Instr::Const(int(rng)),
            Instr::Add,
            Instr::Pop,
        ],
        // local round trip
        2 => vec![
            Instr::Const(int(rng)),
            Instr::Store(0),
            Instr::Load(0),
            Instr::Pop,
        ],
        // dup/swap gymnastics
        3 => vec![
            Instr::Const(1),
            Instr::Dup,
            Instr::Swap,
            Instr::Pop,
            Instr::Pop,
        ],
        // comparison
        _ => vec![
            Instr::Const(int(rng)),
            Instr::Const(int(rng)),
            Instr::Lt,
            Instr::Pop,
        ],
    }
}

/// Any concatenation of up to 39 stack-neutral snippets plus a return
/// verifies, and the verifier's max-stack matches a direct simulation.
#[test]
fn neutral_snippets_verify() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let snips: Vec<Vec<Instr>> = (0..rng.below(40)).map(|_| snippet(&mut rng)).collect();
        let mut pb = ProgramBuilder::new();
        let mut m = MethodBuilder::new("main", 0, 1, false);
        let mut depth = 0i64;
        let mut max_depth = 0i64;
        for s in snips.iter().flatten() {
            m.emit(*s);
            // `Add`/`Lt` pop 2 and push 1: a net -1, like `Pop`.
            depth += match s {
                Instr::Const(_) | Instr::Load(_) | Instr::Dup => 1,
                Instr::Pop | Instr::Store(_) | Instr::Add | Instr::Lt => -1,
                Instr::Swap => 0,
                _ => unreachable!(),
            };
            max_depth = max_depth.max(depth);
        }
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        let p = pb.finish().expect("neutral snippets verify");
        assert_eq!(max_stack_depth(&p, id) as i64, max_depth, "seed {seed}");
    }
}

/// Truncating a verified body (removing the trailing return) always
/// fails verification — control must not fall off the end.
#[test]
fn truncated_bodies_fail() {
    for n in 1..20 {
        let mut pb = ProgramBuilder::new();
        let mut m = MethodBuilder::new("main", 0, 0, false);
        for i in 0..n {
            m.const_i(i);
            m.pop();
        }
        // no return
        let id = pb.add_method(m);
        pb.set_entry(id);
        assert!(pb.finish().is_err(), "{n} snippets without a return");
    }
}

/// Branch targets beyond the body are rejected.
#[test]
fn wild_branch_targets_rejected() {
    for target in 10u32..1000 {
        let mut pb = ProgramBuilder::new();
        let mut m = MethodBuilder::new("main", 0, 0, false);
        m.emit(Instr::Jump(target));
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        assert!(pb.finish().is_err(), "jump to {target}");
    }
}

/// Class layout: field offsets are disjoint, 8-byte-spaced slots after
/// the header, for any list of up to 31 fields.
#[test]
fn layout_is_dense_and_disjoint() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let refs: Vec<bool> = (0..rng.below(32)).map(|_| rng.chance(50)).collect();
        let mut pb = ProgramBuilder::new();
        let names: Vec<String> = (0..refs.len()).map(|i| format!("f{i}")).collect();
        let fields: Vec<(&str, FieldType)> = names
            .iter()
            .zip(&refs)
            .map(|(n, &r)| (n.as_str(), if r { FieldType::Ref } else { FieldType::Int }))
            .collect();
        let c = pb.add_class("C", &fields);
        let mut m = MethodBuilder::new("main", 0, 0, false);
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        let class = p.class(c);
        assert_eq!(
            class.instance_size(),
            16 + 8 * refs.len() as u64,
            "seed {seed}"
        );
        for (i, f) in class.fields().iter().enumerate() {
            assert_eq!(f.offset(), 16 + 8 * i as u64, "seed {seed}, field {i}");
        }
        let ref_count = class.ref_field_indices().count();
        assert_eq!(
            ref_count,
            refs.iter().filter(|&&r| r).count(),
            "seed {seed}"
        );
    }
}
