//! Canonical digest of program-visible state.
//!
//! The differential oracles in `hpmopt-stress` compare two executions of
//! the same program under different runtime configurations (interpreted
//! vs. opt-compiled, GenMS vs. GenCopy, monitoring on vs. off). What must
//! agree is the *program-visible* outcome: the values of the statics and
//! the contents of every object reachable from them. What must NOT leak
//! into the comparison is object *placement* — co-allocation and the
//! collector choice move objects around by design.
//!
//! [`state_digest`] therefore hashes the object graph in discovery order:
//! references are replaced by the visit index of their target (null is a
//! sentinel), so two heaps with identical shape and contents but
//! different addresses produce identical digests.

use hpmopt_bytecode::{ElemKind, Program};
use hpmopt_gc::{Address, Heap, TypeTag};
use hpmopt_prim::{Fnv1a, IntMap};

use crate::value::Value;

/// Visit-order index of `addr`, assigning the next index (and queueing
/// the object for scanning) on first encounter. Index 0 is reserved for
/// null; references outside the heap hash as `u64::MAX` rather than
/// panicking, so a corrupt graph yields a (differing) digest instead of
/// aborting the oracle that is about to report it.
fn ref_index(
    addr: Address,
    heap: &Heap,
    order: &mut IntMap<u64, u64>,
    queue: &mut std::collections::VecDeque<Address>,
) -> u64 {
    if addr.is_null() {
        return 0;
    }
    if !heap.in_heap(addr) {
        return u64::MAX;
    }
    let next = order.len() as u64 + 1;
    *order.entry(addr.0).or_insert_with(|| {
        queue.push_back(addr);
        next
    })
}

/// Digest the statics and every object reachable from them.
///
/// Intended for use after a run, when locals and operand stack are empty
/// and the statics are the only roots; see [`crate::Vm::state_digest`].
#[must_use]
pub fn state_digest(program: &Program, heap: &Heap, statics: &[Value]) -> u64 {
    let mut h = Fnv1a::new();
    // Visit indices only: the digest follows the queue, never the map's
    // iteration order.
    let mut order = IntMap::default();
    let mut queue = std::collections::VecDeque::new();

    h.write_u64(statics.len() as u64);
    for v in statics {
        match *v {
            Value::Int(i) => {
                h.write_u64(1);
                h.write_u64(i as u64);
            }
            Value::Ref(a) => {
                h.write_u64(2);
                h.write_u64(ref_index(a, heap, &mut order, &mut queue));
            }
        }
    }

    while let Some(obj) = queue.pop_front() {
        match heap.type_of(obj) {
            TypeTag::Class(c) => {
                h.write_u64(3);
                h.write_u64(u64::from(c.0));
                if (c.0 as usize) < program.classes().len() {
                    for f in program.fields_of(c) {
                        let info = program.field(f);
                        let raw = heap.get_field(obj, info.offset);
                        if info.ty.is_ref() {
                            h.write_u64(ref_index(Address(raw), heap, &mut order, &mut queue));
                        } else {
                            h.write_u64(raw);
                        }
                    }
                }
            }
            TypeTag::Array(kind) => {
                let len = heap.array_len(obj);
                h.write_u64(4);
                h.write_u64(kind as u64);
                h.write_u64(len);
                for i in 0..len {
                    let raw = heap.array_get(obj, kind, i);
                    if matches!(kind, ElemKind::Ref) {
                        h.write_u64(ref_index(Address(raw), heap, &mut order, &mut queue));
                    } else {
                        h.write_u64(raw);
                    }
                }
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
    use hpmopt_bytecode::FieldType;
    use hpmopt_gc::HeapConfig;

    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.add_class("Node", &[("next", FieldType::Ref), ("v", FieldType::Int)]);
        pb.add_static("head", FieldType::Ref);
        pb.add_static("sum", FieldType::Int);
        let mut m = MethodBuilder::new("main", 0, 0, false);
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    /// Two nodes at *different addresses* but with identical contents
    /// must digest identically; changing a field value must not.
    #[test]
    fn digest_is_placement_independent_and_content_sensitive() {
        let p = program();
        let node = p.class_by_name("Node").unwrap();
        let v_off = p.field(p.field_by_name(node, "v").unwrap()).offset;

        let build = |skip: bool, v: u64| {
            let mut heap = Heap::new(&p, HeapConfig::small());
            if skip {
                // Shift the second heap's allocation cursor so the
                // interesting object lands at a different address.
                heap.alloc_object(node).unwrap();
            }
            let obj = heap.alloc_object(node).unwrap();
            heap.set_field(obj, v_off, v, false);
            let statics = vec![Value::Ref(obj), Value::Int(7)];
            (state_digest(&p, &heap, &statics), heap)
        };

        let (a, _) = build(false, 42);
        let (b, _) = build(true, 42);
        let (c, _) = build(false, 43);
        assert_eq!(a, b, "address differences are invisible");
        assert_ne!(a, c, "content differences are visible");
    }

    #[test]
    fn digest_distinguishes_graph_shape() {
        let p = program();
        let node = p.class_by_name("Node").unwrap();
        let next_off = p.field(p.field_by_name(node, "next").unwrap()).offset;

        let mut heap = Heap::new(&p, HeapConfig::small());
        let a = heap.alloc_object(node).unwrap();
        let b = heap.alloc_object(node).unwrap();
        heap.set_field(a, next_off, b.0, true);
        let linked = state_digest(&p, &heap, &[Value::Ref(a), Value::Int(0)]);
        heap.set_field(a, next_off, a.0, true); // now a self-cycle
        let cyclic = state_digest(&p, &heap, &[Value::Ref(a), Value::Int(0)]);
        assert_ne!(linked, cyclic);
    }
}
