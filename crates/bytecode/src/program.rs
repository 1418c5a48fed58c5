//! Whole-program container and identifier types.

use std::collections::HashMap;

use crate::class::{ClassDef, FieldType, StaticDef};
use crate::method::MethodDef;

/// Identifies a class within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Identifies a field within a [`Program`] (globally, not per class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u32);

/// Identifies a method within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub u32);

/// Identifies a static (global) variable within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StaticId(pub u32);

impl std::fmt::Display for ClassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

impl std::fmt::Display for FieldId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "field#{}", self.0)
    }
}

impl std::fmt::Display for MethodId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "method#{}", self.0)
    }
}

impl std::fmt::Display for StaticId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "static#{}", self.0)
    }
}

/// Resolved information about one field, indexed by [`FieldId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldInfo {
    /// Owning class.
    pub class: ClassId,
    /// Index of the field within its class (declaration order).
    pub index: usize,
    /// Byte offset from the object start.
    pub offset: u64,
    /// Declared type.
    pub ty: FieldType,
}

/// A complete, verified program: classes, methods, statics, and an entry
/// method.
///
/// `Program` is immutable once built; construct one through
/// [`crate::builder::ProgramBuilder`]. All identifier types
/// ([`ClassId`], [`FieldId`], [`MethodId`], [`StaticId`]) index into this
/// container and are only meaningful for the program that issued them.
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) classes: Vec<ClassDef>,
    pub(crate) methods: Vec<MethodDef>,
    pub(crate) statics: Vec<StaticDef>,
    pub(crate) fields: Vec<FieldInfo>,
    pub(crate) entry: MethodId,
    pub(crate) method_names: HashMap<String, MethodId>,
}

impl Program {
    /// All classes, indexed by [`ClassId`].
    #[must_use]
    pub fn classes(&self) -> &[ClassDef] {
        &self.classes
    }

    /// All methods, indexed by [`MethodId`].
    #[must_use]
    pub fn methods(&self) -> &[MethodDef] {
        &self.methods
    }

    /// All statics, indexed by [`StaticId`].
    #[must_use]
    pub fn statics(&self) -> &[StaticDef] {
        &self.statics
    }

    /// The entry method executed first.
    #[must_use]
    pub fn entry(&self) -> MethodId {
        self.entry
    }

    /// Look up a class definition.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different program.
    #[must_use]
    pub fn class(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.0 as usize]
    }

    /// Look up a method definition.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different program.
    #[must_use]
    pub fn method(&self, id: MethodId) -> &MethodDef {
        &self.methods[id.0 as usize]
    }

    /// Resolved layout information for a field.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different program.
    #[must_use]
    pub fn field(&self, id: FieldId) -> &FieldInfo {
        &self.fields[id.0 as usize]
    }

    /// Number of fields across all classes.
    #[must_use]
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Human-readable `Class::field` name for diagnostics and reports.
    #[must_use]
    pub fn field_name(&self, id: FieldId) -> String {
        let info = self.field(id);
        let class = self.class(info.class);
        format!("{}::{}", class.name(), class.fields()[info.index].name())
    }

    /// Human-readable method name.
    #[must_use]
    pub fn method_name(&self, id: MethodId) -> String {
        self.method(id).name().to_string()
    }

    /// Find a method by its builder-visible name.
    #[must_use]
    pub fn method_by_name(&self, name: &str) -> Option<MethodId> {
        self.method_names.get(name).copied()
    }

    /// Find a class by name.
    #[must_use]
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name() == name)
            .map(|i| ClassId(i as u32))
    }

    /// Find a field by class and field name.
    #[must_use]
    pub fn field_by_name(&self, class: ClassId, name: &str) -> Option<FieldId> {
        let index = self.class(class).field_index(name)?;
        self.fields
            .iter()
            .position(|f| f.class == class && f.index == index)
            .map(|i| FieldId(i as u32))
    }

    /// Field ids belonging to `class`, in declaration order.
    pub fn fields_of(&self, class: ClassId) -> impl Iterator<Item = FieldId> + '_ {
        self.fields
            .iter()
            .enumerate()
            .filter(move |(_, f)| f.class == class)
            .map(|(i, _)| FieldId(i as u32))
    }

    /// Total bytecode instruction count across all methods (a rough program
    /// size metric used by the space-overhead experiments).
    #[must_use]
    pub fn total_instructions(&self) -> usize {
        self.methods.iter().map(MethodDef::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::{MethodBuilder, ProgramBuilder};
    use crate::FieldType;

    fn small_program() -> crate::Program {
        let mut pb = ProgramBuilder::new();
        let node = pb.add_class("Node", &[("next", FieldType::Ref), ("val", FieldType::Int)]);
        let _g = pb.add_static("root", FieldType::Ref);
        let mut m = MethodBuilder::new("main", 0, 1, false);
        m.new_object(node);
        m.store(0);
        m.ret();
        let main = pb.add_method(m);
        pb.set_entry(main);
        pb.finish().expect("verifies")
    }

    #[test]
    fn lookups_by_name() {
        let p = small_program();
        let node = p.class_by_name("Node").unwrap();
        assert_eq!(p.class(node).name(), "Node");
        let next = p.field_by_name(node, "next").unwrap();
        assert_eq!(p.field_name(next), "Node::next");
        assert!(p.method_by_name("main").is_some());
        assert!(p.class_by_name("Missing").is_none());
        assert!(p.field_by_name(node, "missing").is_none());
    }

    #[test]
    fn fields_of_enumerates_declaration_order() {
        let p = small_program();
        let node = p.class_by_name("Node").unwrap();
        let ids: Vec<_> = p.fields_of(node).collect();
        assert_eq!(ids.len(), 2);
        assert_eq!(p.field(ids[0]).index, 0);
        assert_eq!(p.field(ids[1]).index, 1);
        assert!(p.field(ids[0]).ty.is_ref());
    }

    #[test]
    fn total_instructions_sums_methods() {
        let p = small_program();
        assert_eq!(p.total_instructions(), 3);
    }
}
