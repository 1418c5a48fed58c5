//! Runtime values and execution errors.

use hpmopt_gc::Address;

/// A tagged runtime value: the interpreter distinguishes integers from
/// references so the collector can enumerate exact roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A 64-bit integer.
    Int(i64),
    /// An object reference (possibly null).
    Ref(Address),
}

impl Value {
    /// The null reference.
    #[must_use]
    pub const fn null() -> Value {
        Value::Ref(Address(0))
    }

    /// The integer payload.
    ///
    /// # Errors
    ///
    /// [`VmError::TypeMismatch`] if the value is a reference.
    pub fn as_int(self) -> Result<i64, VmError> {
        match self {
            Value::Int(v) => Ok(v),
            Value::Ref(_) => Err(VmError::TypeMismatch),
        }
    }

    /// The reference payload.
    ///
    /// # Errors
    ///
    /// [`VmError::TypeMismatch`] if the value is an integer.
    pub fn as_ref_addr(self) -> Result<Address, VmError> {
        match self {
            Value::Ref(a) => Ok(a),
            Value::Int(_) => Err(VmError::TypeMismatch),
        }
    }

    /// Whether this is a reference value.
    #[must_use]
    pub fn is_ref(self) -> bool {
        matches!(self, Value::Ref(_))
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Int(0)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Ref(a) if a.is_null() => f.write_str("null"),
            Value::Ref(a) => write!(f, "{a}"),
        }
    }
}

/// Runtime failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// Dereferenced the null reference.
    NullPointer,
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Array index outside `0..len`.
    IndexOutOfBounds,
    /// An integer was used as a reference or vice versa.
    TypeMismatch,
    /// Live data exceeds the configured heap size.
    OutOfMemory,
    /// A call would exceed the VM's maximum call depth.
    StackOverflow,
    /// The configured step limit was reached (runaway-guard for tests).
    StepLimit,
    /// The simulated clock reached the configured per-job cycle budget
    /// ([`crate::VmConfig::cycle_budget`]); the service layer maps this
    /// to a `JobKilled` outcome.
    CycleBudget,
    /// Cancellation was requested through the run's
    /// [`crate::CancelToken`].
    Cancelled,
    /// Post-collection heap verification found a corrupt object graph
    /// (only raised when [`crate::VmConfig::verify_heap_every_gc`] is
    /// set). Call [`crate::Vm::verify_heap`] for the detailed diagnosis.
    HeapCorrupt,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VmError::NullPointer => "null pointer dereference",
            VmError::DivisionByZero => "division by zero",
            VmError::IndexOutOfBounds => "array index out of bounds",
            VmError::TypeMismatch => "value type mismatch",
            VmError::OutOfMemory => "out of memory",
            VmError::StackOverflow => "call stack overflow",
            VmError::StepLimit => "execution step limit reached",
            VmError::CycleBudget => "simulated cycle budget exhausted",
            VmError::Cancelled => "execution cancelled",
            VmError::HeapCorrupt => "post-collection heap verification failed",
        };
        f.write_str(s)
    }
}

impl std::error::Error for VmError {}

impl From<hpmopt_gc::GcError> for VmError {
    fn from(e: hpmopt_gc::GcError) -> Self {
        match e {
            hpmopt_gc::GcError::OutOfMemory => VmError::OutOfMemory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_enforce_tags() {
        assert_eq!(Value::Int(3).as_int(), Ok(3));
        assert_eq!(Value::Int(3).as_ref_addr(), Err(VmError::TypeMismatch));
        assert_eq!(Value::Ref(Address(8)).as_ref_addr(), Ok(Address(8)));
        assert_eq!(Value::Ref(Address(8)).as_int(), Err(VmError::TypeMismatch));
    }

    #[test]
    fn null_displays() {
        assert_eq!(Value::null().to_string(), "null");
        assert_eq!(Value::Int(-4).to_string(), "-4");
    }

    #[test]
    fn default_is_int_zero() {
        assert_eq!(Value::default(), Value::Int(0));
    }
}
