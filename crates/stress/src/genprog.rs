//! Seeded random-program generation.
//!
//! Builds verified [`Program`]s on top of [`hpmopt_bytecode::builder`],
//! shaped by [`ShapeKnobs`]: class/field fan-out, allocation-site mix,
//! pointer-chasing depth, array/LOS pressure, and call-graph depth. The
//! same `(seed, knobs)` pair always yields the same program, and the
//! program carries its own guest PRNG ([`MethodBuilder::rng_next`]) so
//! its behaviour is platform-independent too.
//!
//! # Generated shape
//!
//! * `classes` node classes `Node0..`, each with `next`/`child` reference
//!   fields plus `int_fields` integer fields.
//! * Statics `head` (list root), `table` (a `Ref` array keeping a rotating
//!   subset of churn arrays live), `checksum` (accumulated result), and
//!   `rng` (guest PRNG state).
//! * Per class: `build_c` (allocates a `list_len`-node list; each node is
//!   published to `head` *before* its `child` array exists — the
//!   parent-then-child allocation window in which a collection can move a
//!   half-initialized object) and `chase_c` (pointer-chases up to
//!   `chase_depth` nodes, folding fields into `checksum`).
//! * `churn` allocates `churn_units` arrays per round across the size
//!   classes selected by `array_mask`, sending `large_array_pct`% to the
//!   large-object space; a rotating `table` slot keeps some live so minor
//!   collections promote.
//! * A `work_0 → … → work_{call_depth-1}` call chain whose leaf dispatches
//!   on `round % classes`, giving the optimizer a call graph to compile.

use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
use hpmopt_bytecode::{ElemKind, FieldType, MethodId, Program, StaticId};
use hpmopt_prim::Rng;

/// Number of live slots in the static churn table (bounds the live set).
const TABLE_SLOTS: i64 = 8;
/// Element count of a churn array that must land in the large-object
/// space (1024 × 8 B ≫ the 4 KB LOS threshold).
const LARGE_ARRAY_ELEMS: i64 = 1024;

/// Tunable shape parameters for one generated program.
///
/// All fields are plain integers so scenarios serialize to `key = value`
/// case files and shrink by halving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeKnobs {
    /// Node classes to generate (allocation-site and type fan-out), ≥ 1.
    pub classes: u64,
    /// Extra integer fields per class (object size fan-out).
    pub int_fields: u64,
    /// Maximum pointer-chase walk length per round.
    pub chase_depth: u64,
    /// Nodes allocated per build round (nursery pressure), ≥ 1.
    pub list_len: u64,
    /// Bitmask over 8 churn-array size buckets (bucket `b` allocates
    /// `4 << b` elements when bit `b` is set), ≥ 1.
    pub array_mask: u64,
    /// Percent of churn allocations redirected to the large-object space.
    pub large_array_pct: u64,
    /// Length of the `work_*` call chain, ≥ 1.
    pub call_depth: u64,
    /// Top-level build/chase/churn rounds, ≥ 1.
    pub rounds: u64,
    /// Churn allocations per round.
    pub churn_units: u64,
}

impl ShapeKnobs {
    /// Derive knobs from a seed; every combination stays inside bounds
    /// that keep a scenario under roughly a second of simulated work.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut r = Rng::new(seed).fork(0x6b6e_6f62); // "knob"
        ShapeKnobs {
            classes: r.range(1, 4),
            int_fields: r.range(0, 3),
            chase_depth: r.range(4, 64),
            list_len: r.range(8, 64),
            array_mask: r.range(1, 255),
            large_array_pct: r.range(0, 20),
            call_depth: r.range(1, 5),
            rounds: r.range(2, 8),
            churn_units: r.range(8, 64),
        }
    }

    /// Clamp every knob back into its legal range (used after shrinking
    /// and after parsing case files).
    #[must_use]
    pub fn clamped(mut self) -> Self {
        self.classes = self.classes.clamp(1, 8);
        self.int_fields = self.int_fields.min(8);
        self.chase_depth = self.chase_depth.clamp(1, 256);
        self.list_len = self.list_len.clamp(1, 256);
        self.array_mask = self.array_mask.clamp(1, 255);
        self.large_array_pct = self.large_array_pct.min(100);
        self.call_depth = self.call_depth.clamp(1, 16);
        self.rounds = self.rounds.clamp(1, 32);
        self.churn_units = self.churn_units.min(256);
        self
    }
}

/// A generated program and the ids of all its methods.
#[derive(Debug, Clone)]
pub struct GeneratedProgram {
    /// The verified program.
    pub program: Program,
    /// Every method id, for all-methods compilation plans.
    pub all_methods: Vec<MethodId>,
}

/// Generate a verified program for `(seed, knobs)`.
///
/// # Panics
///
/// Panics only on internal generator bugs (the emitted program failing
/// bytecode verification), never on knob values: knobs are clamped first.
#[must_use]
pub fn generate(seed: u64, knobs: ShapeKnobs) -> GeneratedProgram {
    let k = knobs.clamped();
    let mut pb = ProgramBuilder::new();

    // --- classes -----------------------------------------------------
    let mut field_names: Vec<(&str, FieldType)> =
        vec![("next", FieldType::Ref), ("child", FieldType::Ref)];
    let int_names = ["f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7"];
    for name in int_names.iter().take(k.int_fields as usize) {
        field_names.push((name, FieldType::Int));
    }
    let classes: Vec<_> = (0..k.classes)
        .map(|c| pb.add_class(&format!("Node{c}"), &field_names))
        .collect();
    let next_fields: Vec<_> = classes
        .iter()
        .map(|&c| pb.field_id(c, "next").expect("next field"))
        .collect();
    let child_fields: Vec<_> = classes
        .iter()
        .map(|&c| pb.field_id(c, "child").expect("child field"))
        .collect();
    let int_fields: Vec<Vec<_>> = classes
        .iter()
        .map(|&c| {
            int_names
                .iter()
                .take(k.int_fields as usize)
                .map(|n| pb.field_id(c, n).expect("int field"))
                .collect()
        })
        .collect();

    // --- statics -----------------------------------------------------
    let head = pb.add_static("head", FieldType::Ref);
    let table = pb.add_static("table", FieldType::Ref);
    let checksum = pb.add_static("checksum", FieldType::Int);
    let rng_state = pb.add_static("rng", FieldType::Int);

    // --- per-class builders and chasers ------------------------------
    let mut builds = Vec::new();
    let mut chases = Vec::new();
    for c in 0..k.classes as usize {
        builds.push(
            pb.add_method(build_method(c, &k, classes[c], head, rng_state, {
                (next_fields[c], child_fields[c], &int_fields[c])
            })),
        );
        chases.push(pb.add_method(chase_method(
            c,
            &k,
            head,
            checksum,
            (next_fields[c], child_fields[c], &int_fields[c]),
        )));
    }

    let churn = pb.add_method(churn_method(&k, table, rng_state, checksum));

    // --- work chain: work_0 → … → leaf dispatch ----------------------
    // Declared back-to-front so each level can call the next.
    let leaf = {
        let mut m = MethodBuilder::new("work_leaf", 1, 0, false);
        let sel = 0u16;
        let end = m.label();
        for c in 0..k.classes as usize {
            let skip = m.label();
            m.load(sel);
            m.const_i(c as i64);
            m.eq();
            m.jump_if_not(skip);
            m.call(builds[c]);
            m.call(chases[c]);
            m.jump(end);
            m.bind(skip);
        }
        m.bind(end);
        m.call(churn);
        m.ret();
        pb.add_method(m)
    };
    let mut callee = leaf;
    for level in (0..k.call_depth).rev() {
        let mut m = MethodBuilder::new(format!("work_{level}"), 1, 0, false);
        // A little arithmetic per frame so opt compilation has something
        // to chew on beyond the call itself.
        m.get_static(checksum);
        m.load(0);
        m.const_i(level as i64 + 1);
        m.mul();
        m.add();
        m.put_static(checksum);
        m.load(0);
        m.call(callee);
        m.ret();
        callee = pb.add_method(m);
    }

    // --- main --------------------------------------------------------
    let mut m = MethodBuilder::new("main", 0, 1, false);
    let round = 0u16;
    // Seed the guest PRNG from the scenario seed (never zero: xorshift's
    // fixed point).
    m.const_i((seed | 1) as i64 & i64::MAX);
    m.put_static(rng_state);
    m.const_i(TABLE_SLOTS);
    m.new_array(ElemKind::Ref);
    m.put_static(table);
    m.for_loop(
        round,
        |m| {
            m.const_i(k.rounds as i64);
        },
        |m| {
            // Fresh list each round bounds the live set; the previous
            // round's list becomes garbage for the next collection.
            m.const_null();
            m.put_static(head);
            m.load(round);
            m.const_i(k.classes as i64);
            m.rem();
            m.call(callee);
        },
    );
    m.ret();
    let main = pb.add_method(m);
    pb.set_entry(main);

    let program = pb.finish().expect("generated program verifies");
    let all_methods = (0..program.methods().len() as u32).map(MethodId).collect();
    GeneratedProgram {
        program,
        all_methods,
    }
}

/// `build_c`: allocate a `list_len`-node list of `class`, publishing each
/// node to `head` before allocating its `child` array — the window in
/// which a collection sees a reachable, not-yet-initialized object.
fn build_method(
    c: usize,
    k: &ShapeKnobs,
    class: hpmopt_bytecode::ClassId,
    head: StaticId,
    rng_state: StaticId,
    (next_f, child_f, ints): (
        hpmopt_bytecode::FieldId,
        hpmopt_bytecode::FieldId,
        &[hpmopt_bytecode::FieldId],
    ),
) -> MethodBuilder {
    let mut m = MethodBuilder::new(format!("build_{c}"), 0, 5, false);
    let i = 0u16;
    let node = 1u16;
    let arr = 2u16;
    let rng = 3u16;
    let prev = 4u16;
    m.get_static(rng_state);
    m.store(rng);
    m.for_loop(
        i,
        |m| {
            m.const_i(k.list_len as i64);
        },
        |m| {
            // Capture the list so far; the new node will point at it.
            m.get_static(head);
            m.store(prev);
            m.new_object(class);
            m.store(node);
            // Publish before the fields are written: the child array
            // allocation below can trigger a collection while this node
            // is reachable. With allocation zeroing (Java semantics) its
            // fields read as null; with the injected skip-zeroing fault
            // they hold stale bytes — exactly the historical bug.
            m.load(node);
            m.put_static(head);
            // child array: 2–17 elements, size varies with the counter.
            m.load(i);
            m.const_i(15);
            m.and();
            m.const_i(2);
            m.add();
            m.new_array(ElemKind::I64);
            m.store(arr);
            m.load(arr);
            m.const_i(0);
            m.rng_next(rng);
            m.array_set(ElemKind::I64);
            // Wire the node: child, then next → the captured list.
            m.load(node);
            m.load(arr);
            m.put_field(child_f);
            m.load(node);
            m.load(prev);
            m.put_field(next_f);
            for (j, &f) in ints.iter().enumerate() {
                m.load(node);
                m.load(i);
                m.const_i(j as i64 + 1);
                m.mul();
                m.put_field(f);
            }
        },
    );
    m.load(rng);
    m.put_static(rng_state);
    m.ret();
    m
}

/// `chase_c`: walk up to `chase_depth` nodes from `head`, folding integer
/// fields and the first child element into `checksum`.
fn chase_method(
    c: usize,
    k: &ShapeKnobs,
    head: StaticId,
    checksum: StaticId,
    (next_f, child_f, ints): (
        hpmopt_bytecode::FieldId,
        hpmopt_bytecode::FieldId,
        &[hpmopt_bytecode::FieldId],
    ),
) -> MethodBuilder {
    let mut m = MethodBuilder::new(format!("chase_{c}"), 0, 3, false);
    let step = 0u16;
    let cur = 1u16;
    let sum = 2u16;
    m.get_static(head);
    m.store(cur);
    m.const_i(0);
    m.store(sum);
    let exit = m.label();
    m.for_loop(
        step,
        |m| {
            m.const_i(k.chase_depth as i64);
        },
        |m| {
            let alive = m.label();
            m.load(cur);
            m.is_null();
            m.jump_if_not(alive);
            m.jump(exit);
            m.bind(alive);
            for &f in ints {
                m.load(sum);
                m.load(cur);
                m.get_field(f);
                m.add();
                m.store(sum);
            }
            // child[0] (guarded: child may be null mid-window only for
            // the freshly built head, which build fully wires before
            // returning — but stay defensive for shrunk shapes).
            let no_child = m.label();
            m.load(cur);
            m.get_field(child_f);
            m.is_null();
            m.jump_if(no_child);
            m.load(sum);
            m.load(cur);
            m.get_field(child_f);
            m.const_i(0);
            m.array_get(ElemKind::I64);
            m.add();
            m.store(sum);
            m.bind(no_child);
            m.load(cur);
            m.get_field(next_f);
            m.store(cur);
        },
    );
    m.bind(exit);
    m.get_static(checksum);
    m.load(sum);
    m.xor();
    m.const_i(c as i64 + 1);
    m.add();
    m.put_static(checksum);
    m.ret();
    m
}

/// `churn`: allocate `churn_units` arrays across the masked size buckets,
/// keeping a rotating `table` slot live and dropping the rest.
fn churn_method(
    k: &ShapeKnobs,
    table: StaticId,
    rng_state: StaticId,
    checksum: StaticId,
) -> MethodBuilder {
    let mut m = MethodBuilder::new("churn", 0, 4, false);
    let u = 0u16;
    let rng = 1u16;
    let len = 2u16;
    let arr = 3u16;
    m.get_static(rng_state);
    m.store(rng);
    m.for_loop(
        u,
        |m| {
            m.const_i(k.churn_units as i64);
        },
        |m| {
            // bucket = r % 8; len = 4 << bucket when the mask selects the
            // bucket, else 4. (32 B … 4 KB of i64s: spans the free-list
            // size classes up to the LOS threshold.)
            let small = m.label();
            let sized = m.label();
            m.rng_next(rng);
            m.const_i(7);
            m.and();
            m.store(len); // len temporarily holds the bucket
            m.const_i(k.array_mask as i64);
            m.load(len);
            m.ushr();
            m.const_i(1);
            m.and();
            m.jump_if_not(small);
            m.const_i(4);
            m.load(len);
            m.shl();
            m.store(len);
            m.jump(sized);
            m.bind(small);
            m.const_i(4);
            m.store(len);
            m.bind(sized);
            // Large-object pressure: redirect a slice of allocations to
            // the LOS.
            if k.large_array_pct > 0 {
                let not_large = m.label();
                m.rng_next(rng);
                m.const_i(100);
                m.rem();
                m.const_i(k.large_array_pct as i64);
                m.lt();
                m.jump_if_not(not_large);
                m.const_i(LARGE_ARRAY_ELEMS);
                m.store(len);
                m.bind(not_large);
            }
            m.load(len);
            m.new_array(ElemKind::I64);
            m.store(arr);
            m.load(arr);
            m.const_i(0);
            m.load(u);
            m.array_set(ElemKind::I64);
            // Keep a rotating subset live: table[u % TABLE_SLOTS] = arr.
            m.get_static(table);
            m.load(u);
            m.const_i(TABLE_SLOTS);
            m.rem();
            m.load(arr);
            m.array_set(ElemKind::Ref);
            // Fold the array length into the checksum so churn is
            // observable in the digest even after arrays die.
            m.get_static(checksum);
            m.load(len);
            m.add();
            m.put_static(checksum);
        },
    );
    m.load(rng);
    m.put_static(rng_state);
    m.ret();
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let k = ShapeKnobs::from_seed(11);
        let a = generate(11, k);
        let b = generate(11, k);
        // Compare the ordered program parts (`Program`'s Debug includes a
        // name→id HashMap whose print order is unstable).
        assert_eq!(
            format!(
                "{:?}{:?}{:?}",
                a.program.classes(),
                a.program.methods(),
                a.program.statics()
            ),
            format!(
                "{:?}{:?}{:?}",
                b.program.classes(),
                b.program.methods(),
                b.program.statics()
            ),
            "same (seed, knobs) must yield the same program"
        );
    }

    #[test]
    fn knobs_vary_with_seed() {
        let distinct: std::collections::HashSet<_> = (0..32)
            .map(|s| format!("{:?}", ShapeKnobs::from_seed(s)))
            .collect();
        assert!(distinct.len() > 16, "knob derivation should spread seeds");
    }

    #[test]
    fn generated_programs_verify_across_seeds() {
        for seed in 0..24 {
            let gp = generate(seed, ShapeKnobs::from_seed(seed));
            assert!(!gp.all_methods.is_empty());
            assert!(gp.program.methods().len() >= 4);
        }
    }
}
