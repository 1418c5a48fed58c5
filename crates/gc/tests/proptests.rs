//! Properties of the heap and collectors: random object graphs and
//! mutation sequences must survive arbitrary collection schedules with
//! their data intact. Each seeded case is reproducible from its seed.

use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
use hpmopt_bytecode::{ElemKind, FieldType, Program};
use hpmopt_gc::freelist::{size_class_for, size_class_table};
use hpmopt_gc::policy::StaticPolicy;
use hpmopt_gc::{Address, CollectorKind, Heap, HeapConfig, LOS_THRESHOLD_BYTES};
use hpmopt_prim::Rng;

/// Cases per seeded property.
const CASES: u64 = 64;

fn program() -> Program {
    let mut pb = ProgramBuilder::new();
    pb.add_class(
        "Node",
        &[
            ("a", FieldType::Ref),
            ("b", FieldType::Ref),
            ("v", FieldType::Int),
        ],
    );
    let mut m = MethodBuilder::new("main", 0, 0, false);
    m.ret();
    let id = pb.add_method(m);
    pb.set_entry(id);
    pb.finish().unwrap()
}

/// One mutation step against a growing object population.
#[derive(Debug)]
enum Op {
    /// Allocate a node and remember it at a new root slot.
    Alloc,
    /// Link `roots[x].a = roots[y]`.
    LinkA(u8, u8),
    /// Link `roots[x].b = roots[y]`.
    LinkB(u8, u8),
    /// Store a value into `roots[x].v`.
    SetV(u8, i32),
    /// Drop root x (object may become garbage).
    Drop(u8),
    /// Minor collection.
    Minor,
    /// Major collection.
    Major,
}

/// Two shrunk failures found by an earlier random search. They run
/// before the seeded sequences, under every collector.
const REGRESSIONS: [&[Op]; 2] = [
    &[Op::Alloc, Op::Alloc, Op::Alloc],
    &[
        Op::Alloc,
        Op::Alloc,
        Op::LinkA(0, 0),
        Op::Alloc,
        Op::Alloc,
        Op::Alloc,
        Op::Alloc,
        Op::Alloc,
        Op::Alloc,
        Op::Alloc,
        Op::Alloc,
        Op::Alloc,
        Op::Minor,
    ],
];

/// One op, drawn with weights 4:3:3:3:2:2:1 in declaration order.
fn op(rng: &mut Rng) -> Op {
    let byte = |rng: &mut Rng| rng.next_u64() as u8;
    match rng.below(18) {
        0..=3 => Op::Alloc,
        4..=6 => Op::LinkA(byte(rng), byte(rng)),
        7..=9 => Op::LinkB(byte(rng), byte(rng)),
        10..=12 => Op::SetV(byte(rng), rng.next_u64() as i32),
        13..=14 => Op::Drop(byte(rng)),
        15..=16 => Op::Minor,
        _ => Op::Major,
    }
}

/// Between 1 and 249 ops.
fn ops(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    (0..rng.range(1, 249)).map(|_| op(&mut rng)).collect()
}

fn run_ops(collector: CollectorKind, ops: &[Op], coalloc: bool, case: &str) {
    let p = program();
    let node = p.class_by_name("Node").unwrap();
    let mut heap = Heap::new(&p, HeapConfig::small().with_collector(collector));
    let mut policy = StaticPolicy::new();
    if coalloc {
        policy.set(node, 16); // co-allocate through field `a`
    }
    // Mirror of the heap state: per root, the expected `v` value and the
    // indices its a/b fields point to.
    let mut roots: Vec<Address> = Vec::new();
    let mut expect: Vec<(i64, Option<usize>, Option<usize>)> = Vec::new();

    let collect = |heap: &mut Heap, roots: &mut Vec<Address>, major: bool| {
        let res = if major {
            heap.collect_major(roots, &policy)
        } else {
            heap.collect_minor(roots, &policy)
        };
        assert!(res.is_ok(), "{case}: collection failed: {res:?}");
    };

    for op in ops {
        match *op {
            Op::Alloc if roots.len() >= 48 => {}
            Op::Alloc => {
                let obj = match heap.alloc_object(node) {
                    Ok(o) => o,
                    Err(_) => {
                        collect(&mut heap, &mut roots, false);
                        match heap.alloc_object(node) {
                            Ok(o) => o,
                            Err(_) => {
                                collect(&mut heap, &mut roots, true);
                                heap.alloc_object(node).expect("heap large enough")
                            }
                        }
                    }
                };
                heap.set_field(obj, 32, roots.len() as u64, false);
                expect.push((roots.len() as i64, None, None));
                roots.push(obj);
            }
            Op::LinkA(x, y) if !roots.is_empty() => {
                let xi = x as usize % roots.len();
                let yi = y as usize % roots.len();
                heap.set_field(roots[xi], 16, roots[yi].0, true);
                expect[xi].1 = Some(yi);
            }
            Op::LinkB(x, y) if !roots.is_empty() => {
                let xi = x as usize % roots.len();
                let yi = y as usize % roots.len();
                heap.set_field(roots[xi], 24, roots[yi].0, true);
                expect[xi].2 = Some(yi);
            }
            Op::SetV(x, v) if !roots.is_empty() => {
                let xi = x as usize % roots.len();
                heap.set_field(roots[xi], 32, v as i64 as u64, false);
                expect[xi].0 = i64::from(v);
            }
            Op::Drop(x) if !roots.is_empty() => {
                let xi = x as usize % roots.len();
                roots.remove(xi);
                expect.remove(xi);
                // Linked expectations now refer to shifted indices; fix up.
                for e in &mut expect {
                    for slot in [&mut e.1, &mut e.2] {
                        *slot = match *slot {
                            Some(i) if i == xi => None, // dangling mirror edge
                            Some(i) if i > xi => Some(i - 1),
                            other => other,
                        };
                    }
                }
            }
            Op::Minor => collect(&mut heap, &mut roots, false),
            Op::Major => collect(&mut heap, &mut roots, true),
            _ => {}
        }
    }

    // Everything reachable from roots must verify, and the mirrored data
    // must match (where the mirror still knows the edge target).
    if let Err(e) = heap.verify(&roots) {
        panic!("{case}: heap verification failed: {e}");
    }
    for (i, &(v, a, b)) in expect.iter().enumerate() {
        assert_eq!(
            heap.get_field(roots[i], 32) as i64,
            v,
            "{case}: v of root {i}"
        );
        if let Some(ai) = a {
            let got = Address(heap.get_field(roots[i], 16));
            assert_eq!(got, roots[ai], "{case}: a of root {i}");
        }
        if let Some(bi) = b {
            let got = Address(heap.get_field(roots[i], 24));
            assert_eq!(got, roots[bi], "{case}: b of root {i}");
        }
    }
}

/// The regressions, then the seeded op sequences, under one collector.
fn preserves_random_graphs(collector: CollectorKind, coalloc: bool) {
    for (i, ops) in REGRESSIONS.iter().enumerate() {
        run_ops(collector, ops, coalloc, &format!("regression {i}"));
    }
    for seed in 0..CASES {
        run_ops(collector, &ops(seed), coalloc, &format!("seed {seed}"));
    }
}

#[test]
fn genms_preserves_random_graphs() {
    preserves_random_graphs(CollectorKind::GenMs, false);
}

#[test]
fn genms_with_coalloc_preserves_random_graphs() {
    preserves_random_graphs(CollectorKind::GenMs, true);
}

#[test]
fn gencopy_preserves_random_graphs() {
    preserves_random_graphs(CollectorKind::GenCopy, false);
}

/// Size classes: every size maps to the smallest class that fits.
#[test]
fn size_class_is_tight() {
    let table = size_class_table();
    for bytes in 1u64..=4096 {
        let class = size_class_for(bytes).expect("≤ 4096 has a class");
        assert!(table[class] >= bytes, "{bytes} B");
        if class > 0 {
            assert!(
                table[class - 1] < bytes,
                "{bytes} B: not the smallest fitting class"
            );
        }
    }
}

/// Sizes beyond the LOS threshold have no class.
#[test]
fn oversize_has_no_class() {
    for seed in 0..CASES {
        let bytes = Rng::new(seed).range(LOS_THRESHOLD_BYTES + 1, (1 << 20) - 1);
        assert!(size_class_for(bytes).is_none(), "{bytes} B");
    }
}

/// Array round trip through the heap for every element kind.
#[test]
fn array_elements_round_trip() {
    let p = program();
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let len = rng.range(1, 63);
        let values: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let mut heap = Heap::new(&p, HeapConfig::small());
        for kind in [ElemKind::I8, ElemKind::I16, ElemKind::I32, ElemKind::I64] {
            let arr = heap.alloc_array(kind, len).unwrap();
            let mask = if kind.width() == 8 {
                u64::MAX
            } else {
                (1u64 << (kind.width() * 8)) - 1
            };
            for (i, &v) in values.iter().enumerate() {
                heap.array_set(arr, kind, i as u64, v);
            }
            for (i, &v) in values.iter().enumerate() {
                let got = heap.array_get(arr, kind, i as u64);
                assert_eq!(got, v & mask, "seed {seed}, {kind:?}[{i}]");
            }
        }
    }
}
