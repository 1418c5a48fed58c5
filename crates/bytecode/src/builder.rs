//! Fluent construction of [`Program`]s.
//!
//! [`ProgramBuilder`] accumulates classes, statics, and methods;
//! [`MethodBuilder`] provides typed emitters plus label-based control flow
//! so workloads never hand-compute branch offsets.
//!
//! # Example
//!
//! ```
//! use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut m = MethodBuilder::new("count", 0, 1, true);
//! m.const_i(0);
//! m.store(0);
//! let top = m.label();
//! m.bind(top);
//! m.load(0);
//! m.const_i(1);
//! m.add();
//! m.store(0);
//! m.load(0);
//! m.const_i(10);
//! m.lt();
//! m.jump_if(top);
//! m.load(0);
//! m.ret_val();
//! let id = pb.add_method(m);
//!
//! let mut main = MethodBuilder::new("main", 0, 0, false);
//! main.call(id);
//! main.pop();
//! main.ret();
//! let main_id = pb.add_method(main);
//! pb.set_entry(main_id);
//! let program = pb.finish()?;
//! assert_eq!(program.method(id).name(), "count");
//! # Ok::<(), hpmopt_bytecode::VerifyError>(())
//! ```

use std::collections::HashMap;

use crate::class::{ClassDef, FieldDef, FieldType, StaticDef};
use crate::instr::{ElemKind, Instr};
use crate::method::MethodDef;
use crate::program::{ClassId, FieldId, FieldInfo, MethodId, Program, StaticId};
use crate::verify::{self, VerifyError};

/// A forward-referencable position in a method body.
///
/// Created by [`MethodBuilder::label`], placed with [`MethodBuilder::bind`],
/// and referenced by the jump emitters. Labels may be used before they are
/// bound; [`ProgramBuilder::add_method`] resolves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Incrementally builds one method body.
#[derive(Debug, Clone)]
pub struct MethodBuilder {
    name: String,
    params: u16,
    locals: u16,
    returns_value: bool,
    code: Vec<Instr>,
    /// Resolved label positions (`u32::MAX` = unbound).
    label_positions: Vec<u32>,
    /// Instruction indices whose branch target is a label id to patch.
    patches: Vec<usize>,
}

impl MethodBuilder {
    /// Start a method with `params` parameters (locals `0..params`),
    /// `extra_locals` additional local slots, and whether it returns a
    /// value.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        params: u16,
        extra_locals: u16,
        returns_value: bool,
    ) -> Self {
        MethodBuilder {
            name: name.into(),
            params,
            locals: params + extra_locals,
            returns_value,
            code: Vec::new(),
            label_positions: Vec::new(),
            patches: Vec::new(),
        }
    }

    /// Reserve one more local slot and return its index.
    pub fn new_local(&mut self) -> u16 {
        let idx = self.locals;
        self.locals += 1;
        idx
    }

    /// Current instruction count (the index the next emitted instruction
    /// will occupy).
    #[must_use]
    pub fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Create a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.label_positions.push(u32::MAX);
        Label(self.label_positions.len() - 1)
    }

    /// Bind `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        assert_eq!(
            self.label_positions[label.0],
            u32::MAX,
            "label bound twice in {}",
            self.name
        );
        self.label_positions[label.0] = self.here();
    }

    /// Emit a raw instruction.
    pub fn emit(&mut self, i: Instr) -> &mut Self {
        self.code.push(i);
        self
    }

    fn emit_branch(&mut self, make: impl FnOnce(u32) -> Instr, label: Label) {
        self.patches.push(self.code.len());
        // Store the label id in the target slot; resolved in `finish_body`.
        self.code.push(make(label.0 as u32));
    }

    /// Push a constant integer.
    pub fn const_i(&mut self, v: i64) -> &mut Self {
        self.emit(Instr::Const(v))
    }

    /// Push the null reference.
    pub fn const_null(&mut self) -> &mut Self {
        self.emit(Instr::ConstNull)
    }

    /// Push local `n`.
    pub fn load(&mut self, n: u16) -> &mut Self {
        self.emit(Instr::Load(n))
    }

    /// Pop into local `n`.
    pub fn store(&mut self, n: u16) -> &mut Self {
        self.emit(Instr::Store(n))
    }

    /// Duplicate top of stack.
    pub fn dup(&mut self) -> &mut Self {
        self.emit(Instr::Dup)
    }

    /// Discard top of stack.
    pub fn pop(&mut self) -> &mut Self {
        self.emit(Instr::Pop)
    }

    /// Swap the two topmost values.
    pub fn swap(&mut self) -> &mut Self {
        self.emit(Instr::Swap)
    }

    /// Wrapping addition.
    pub fn add(&mut self) -> &mut Self {
        self.emit(Instr::Add)
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self) -> &mut Self {
        self.emit(Instr::Sub)
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self) -> &mut Self {
        self.emit(Instr::Mul)
    }

    /// Division (traps on zero divisor).
    pub fn div(&mut self) -> &mut Self {
        self.emit(Instr::Div)
    }

    /// Remainder (traps on zero divisor).
    pub fn rem(&mut self) -> &mut Self {
        self.emit(Instr::Rem)
    }

    /// Bitwise and.
    pub fn and(&mut self) -> &mut Self {
        self.emit(Instr::And)
    }

    /// Bitwise or.
    pub fn or(&mut self) -> &mut Self {
        self.emit(Instr::Or)
    }

    /// Bitwise xor.
    pub fn xor(&mut self) -> &mut Self {
        self.emit(Instr::Xor)
    }

    /// Shift left.
    pub fn shl(&mut self) -> &mut Self {
        self.emit(Instr::Shl)
    }

    /// Arithmetic shift right.
    pub fn shr(&mut self) -> &mut Self {
        self.emit(Instr::Shr)
    }

    /// Logical shift right.
    pub fn ushr(&mut self) -> &mut Self {
        self.emit(Instr::UShr)
    }

    /// Arithmetic negation.
    pub fn neg(&mut self) -> &mut Self {
        self.emit(Instr::Neg)
    }

    /// Integer equality test.
    pub fn eq(&mut self) -> &mut Self {
        self.emit(Instr::Eq)
    }

    /// Integer inequality test.
    pub fn ne(&mut self) -> &mut Self {
        self.emit(Instr::Ne)
    }

    /// Less-than test.
    pub fn lt(&mut self) -> &mut Self {
        self.emit(Instr::Lt)
    }

    /// Less-or-equal test.
    pub fn le(&mut self) -> &mut Self {
        self.emit(Instr::Le)
    }

    /// Greater-than test.
    pub fn gt(&mut self) -> &mut Self {
        self.emit(Instr::Gt)
    }

    /// Greater-or-equal test.
    pub fn ge(&mut self) -> &mut Self {
        self.emit(Instr::Ge)
    }

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        self.emit_branch(Instr::Jump, label);
        self
    }

    /// Pop a condition; jump if non-zero.
    pub fn jump_if(&mut self, label: Label) -> &mut Self {
        self.emit_branch(Instr::JumpIf, label);
        self
    }

    /// Pop a condition; jump if zero.
    pub fn jump_if_not(&mut self, label: Label) -> &mut Self {
        self.emit_branch(Instr::JumpIfNot, label);
        self
    }

    /// Allocate an instance of `class`.
    pub fn new_object(&mut self, class: ClassId) -> &mut Self {
        self.emit(Instr::New(class))
    }

    /// Pop a length; allocate an array.
    pub fn new_array(&mut self, kind: ElemKind) -> &mut Self {
        self.emit(Instr::NewArray(kind))
    }

    /// Pop an object; push field value.
    pub fn get_field(&mut self, f: FieldId) -> &mut Self {
        self.emit(Instr::GetField(f))
    }

    /// Pop value and object; store field.
    pub fn put_field(&mut self, f: FieldId) -> &mut Self {
        self.emit(Instr::PutField(f))
    }

    /// Push a static variable.
    pub fn get_static(&mut self, s: StaticId) -> &mut Self {
        self.emit(Instr::GetStatic(s))
    }

    /// Pop into a static variable.
    pub fn put_static(&mut self, s: StaticId) -> &mut Self {
        self.emit(Instr::PutStatic(s))
    }

    /// Pop index and array; push element.
    pub fn array_get(&mut self, kind: ElemKind) -> &mut Self {
        self.emit(Instr::ArrayGet(kind))
    }

    /// Pop value, index, array; store element.
    pub fn array_set(&mut self, kind: ElemKind) -> &mut Self {
        self.emit(Instr::ArraySet(kind))
    }

    /// Pop an array; push its length.
    pub fn array_len(&mut self) -> &mut Self {
        self.emit(Instr::ArrayLen)
    }

    /// Pop a reference; push null test result.
    pub fn is_null(&mut self) -> &mut Self {
        self.emit(Instr::IsNull)
    }

    /// Pop two references; push identity test result.
    pub fn ref_eq(&mut self) -> &mut Self {
        self.emit(Instr::RefEq)
    }

    /// Call a method (arguments already pushed, last on top).
    pub fn call(&mut self, m: MethodId) -> &mut Self {
        self.emit(Instr::Call(m))
    }

    /// Return void.
    pub fn ret(&mut self) -> &mut Self {
        self.emit(Instr::Return)
    }

    /// Return the top-of-stack value.
    pub fn ret_val(&mut self) -> &mut Self {
        self.emit(Instr::ReturnVal)
    }

    /// Emit a counted loop: `for local := 0; local < limit_expr; local += 1`.
    ///
    /// `limit` must leave exactly one integer on the stack; `body` is
    /// emitted with the counter available in `counter` and must be
    /// stack-neutral. A fresh local caches the limit.
    pub fn for_loop(
        &mut self,
        counter: u16,
        limit: impl FnOnce(&mut MethodBuilder),
        body: impl FnOnce(&mut MethodBuilder),
    ) -> &mut Self {
        let limit_local = self.new_local();
        limit(self);
        self.store(limit_local);
        self.const_i(0);
        self.store(counter);
        let head = self.label();
        let exit = self.label();
        self.bind(head);
        self.load(counter);
        self.load(limit_local);
        self.ge();
        self.jump_if(exit);
        body(self);
        self.load(counter);
        self.const_i(1);
        self.add();
        self.store(counter);
        self.jump(head);
        self.bind(exit);
        self
    }

    /// Emit an xorshift64* pseudo-random step.
    ///
    /// Reads the generator state from local `state`, advances it, writes it
    /// back, and leaves the next 63-bit non-negative pseudo-random value on
    /// the stack. Workloads use this for reproducible, platform-independent
    /// "random" access patterns (the guest program carries its own PRNG, as
    /// the SPEC workloads do).
    pub fn rng_next(&mut self, state: u16) -> &mut Self {
        // x ^= x << 13; x ^= x >> 7; x ^= x << 17
        self.load(state);
        self.dup();
        self.const_i(13);
        self.shl();
        self.xor();
        self.dup();
        self.const_i(7);
        self.ushr();
        self.xor();
        self.dup();
        self.const_i(17);
        self.shl();
        self.xor();
        self.dup();
        self.store(state);
        // mask to non-negative
        self.const_i(i64::MAX);
        self.and();
        self
    }

    fn finish_body(mut self) -> MethodDef {
        for &at in &self.patches {
            let resolve = |label_id: u32| {
                let pos = self.label_positions[label_id as usize];
                assert_ne!(pos, u32::MAX, "unbound label in method {}", self.name);
                pos
            };
            self.code[at] = match self.code[at] {
                Instr::Jump(l) => Instr::Jump(resolve(l)),
                Instr::JumpIf(l) => Instr::JumpIf(resolve(l)),
                Instr::JumpIfNot(l) => Instr::JumpIfNot(resolve(l)),
                other => unreachable!("patch site holds non-branch {other:?}"),
            };
        }
        MethodDef::new(
            self.name,
            self.params,
            self.locals,
            self.returns_value,
            self.code,
        )
    }
}

/// Accumulates a whole program.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    classes: Vec<ClassDef>,
    methods: Vec<MethodDef>,
    statics: Vec<StaticDef>,
    fields: Vec<FieldInfo>,
    entry: Option<MethodId>,
    method_names: HashMap<String, MethodId>,
}

impl ProgramBuilder {
    /// Create an empty program builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a class with the given `(name, type)` fields; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a class with the same name already exists.
    pub fn add_class(&mut self, name: &str, fields: &[(&str, FieldType)]) -> ClassId {
        assert!(
            self.classes.iter().all(|c| c.name() != name),
            "duplicate class {name}"
        );
        let class_id = ClassId(self.classes.len() as u32);
        let defs: Vec<FieldDef> = fields
            .iter()
            .enumerate()
            .map(|(i, (n, t))| FieldDef::new(*n, *t, i))
            .collect();
        for (i, def) in defs.iter().enumerate() {
            self.fields.push(FieldInfo {
                class: class_id,
                index: i,
                offset: def.offset(),
                ty: def.ty(),
            });
        }
        self.classes.push(ClassDef::new(name, defs));
        class_id
    }

    /// Define a static (global) variable; returns its id.
    pub fn add_static(&mut self, name: &str, ty: FieldType) -> StaticId {
        let id = StaticId(self.statics.len() as u32);
        self.statics.push(StaticDef::new(name, ty));
        id
    }

    /// Reserve a method id before its body exists, enabling (mutual)
    /// recursion. The body must later be supplied with
    /// [`ProgramBuilder::define_method`].
    ///
    /// # Panics
    ///
    /// Panics if a method with the same name already exists (declared or
    /// complete).
    pub fn declare_method(&mut self, name: &str, params: u16, returns_value: bool) -> MethodId {
        assert!(
            !self.method_names.contains_key(name),
            "duplicate method {name}"
        );
        let id = MethodId(self.methods.len() as u32);
        // Placeholder body, replaced by `define_method`.
        self.methods.push(MethodDef::new(
            name,
            params,
            params,
            returns_value,
            Vec::new(),
        ));
        self.method_names.insert(name.to_string(), id);
        id
    }

    /// Supply the body for a method previously created with
    /// [`ProgramBuilder::declare_method`].
    ///
    /// # Panics
    ///
    /// Panics if the builder's name/signature disagree with the declaration.
    pub fn define_method(&mut self, id: MethodId, mb: MethodBuilder) {
        let declared = &self.methods[id.0 as usize];
        assert_eq!(declared.name(), mb.name, "declaration/definition mismatch");
        assert_eq!(declared.params(), mb.params, "parameter count mismatch");
        assert_eq!(
            declared.returns_value(),
            mb.returns_value,
            "return kind mismatch"
        );
        self.methods[id.0 as usize] = mb.finish_body();
    }

    /// Add a complete method; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a method with the same name already exists or a label is
    /// unbound.
    pub fn add_method(&mut self, mb: MethodBuilder) -> MethodId {
        assert!(
            !self.method_names.contains_key(&mb.name),
            "duplicate method {}",
            mb.name
        );
        let id = MethodId(self.methods.len() as u32);
        self.method_names.insert(mb.name.clone(), id);
        self.methods.push(mb.finish_body());
        id
    }

    /// Select the entry method.
    pub fn set_entry(&mut self, m: MethodId) {
        self.entry = Some(m);
    }

    pub(crate) fn class_id_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name() == name)
            .map(|i| ClassId(i as u32))
    }

    pub(crate) fn methods_ref(&self) -> &[MethodDef] {
        &self.methods
    }

    pub(crate) fn replace_method(&mut self, id: MethodId, def: MethodDef) {
        self.methods[id.0 as usize] = def;
    }

    /// Resolve a field id by class and name.
    #[must_use]
    pub fn field_id(&self, class: ClassId, name: &str) -> Option<FieldId> {
        let index = self.classes[class.0 as usize].field_index(name)?;
        self.fields
            .iter()
            .position(|f| f.class == class && f.index == index)
            .map(|i| FieldId(i as u32))
    }

    /// Finish and verify the program.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] when no entry was set, an id is out of
    /// range, stack discipline is violated, or control can fall off the end
    /// of a method.
    pub fn finish(self) -> Result<Program, VerifyError> {
        let entry = self.entry.ok_or(VerifyError::NoEntry)?;
        let program = Program {
            classes: self.classes,
            methods: self.methods,
            statics: self.statics,
            fields: self.fields,
            entry,
            method_names: self.method_names,
        };
        verify::verify_program(&program)?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_loop_counts() {
        let mut pb = ProgramBuilder::new();
        let mut m = MethodBuilder::new("main", 0, 2, false);
        let counter = 0;
        let acc = 1;
        m.const_i(0);
        m.store(acc);
        m.for_loop(
            counter,
            |m| {
                m.const_i(5);
            },
            |m| {
                m.load(acc);
                m.const_i(1);
                m.add();
                m.store(acc);
            },
        );
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        let p = pb.finish().expect("loop verifies");
        assert!(p.method(id).len() > 10);
    }

    #[test]
    fn forward_labels_resolve() {
        let mut pb = ProgramBuilder::new();
        let mut m = MethodBuilder::new("main", 0, 0, false);
        let end = m.label();
        m.const_i(1);
        m.jump_if(end);
        m.const_i(0);
        m.pop();
        m.bind(end);
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        let p = pb.finish().expect("verifies");
        assert_eq!(p.method(id).body()[1], Instr::JumpIf(4));
    }

    #[test]
    #[should_panic(expected = "duplicate method")]
    fn duplicate_declared_method_names_rejected() {
        let mut pb = ProgramBuilder::new();
        pb.declare_method("m", 0, false);
        pb.declare_method("m", 0, false);
    }

    #[test]
    #[should_panic(expected = "duplicate method")]
    fn duplicate_method_names_rejected() {
        let mut pb = ProgramBuilder::new();
        let mut a = MethodBuilder::new("m", 0, 0, false);
        a.ret();
        pb.add_method(a);
        let mut b = MethodBuilder::new("m", 0, 0, false);
        b.ret();
        pb.add_method(b);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut pb = ProgramBuilder::new();
        let mut m = MethodBuilder::new("m", 0, 0, false);
        let l = m.label();
        m.jump(l);
        pb.add_method(m);
    }

    #[test]
    fn declare_then_define_supports_recursion() {
        let mut pb = ProgramBuilder::new();
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
        main.const_i(10);
        main.call(fib);
        main.pop();
        main.ret();
        let id = pb.add_method(main);
        pb.set_entry(id);
        pb.finish().expect("recursive program verifies");
    }

    #[test]
    fn rng_next_is_stack_positive_by_one() {
        let mut pb = ProgramBuilder::new();
        let mut m = MethodBuilder::new("main", 0, 1, false);
        m.const_i(0x9E37_79B9);
        m.store(0);
        m.rng_next(0);
        m.pop();
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        pb.finish().expect("rng snippet verifies");
    }
}
