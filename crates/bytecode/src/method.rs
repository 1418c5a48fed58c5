//! Method definitions.

use crate::instr::Instr;

/// A method: a named body of bytecode with a fixed-size local-variable
/// array.
///
/// Arguments are passed in locals `0..params`. Methods are statically
/// dispatched (the workloads in this repository do not need virtual
/// dispatch, and the paper's analysis treats virtual calls the same as
/// field accesses: as heap touches on the receiver).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodDef {
    name: String,
    params: u16,
    locals: u16,
    returns_value: bool,
    body: Vec<Instr>,
}

impl MethodDef {
    pub(crate) fn new(
        name: impl Into<String>,
        params: u16,
        locals: u16,
        returns_value: bool,
        body: Vec<Instr>,
    ) -> Self {
        MethodDef {
            name: name.into(),
            params,
            locals,
            returns_value,
            body,
        }
    }

    /// Method name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of parameters (stored in locals `0..params`).
    #[must_use]
    pub fn params(&self) -> u16 {
        self.params
    }

    /// Total number of local-variable slots, parameters included.
    #[must_use]
    pub fn locals(&self) -> u16 {
        self.locals
    }

    /// Whether the method returns a value.
    #[must_use]
    pub fn returns_value(&self) -> bool {
        self.returns_value
    }

    /// The bytecode body.
    #[must_use]
    pub fn body(&self) -> &[Instr] {
        &self.body
    }

    /// Number of bytecode instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the body is empty (never true for verified programs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_round_trip() {
        let m = MethodDef::new("run", 2, 5, true, vec![Instr::Const(1), Instr::ReturnVal]);
        assert_eq!(m.name(), "run");
        assert_eq!(m.params(), 2);
        assert_eq!(m.locals(), 5);
        assert!(m.returns_value());
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }
}
