//! Remembered set for mature→nursery references.
//!
//! The write barrier records the address of every mature-space slot that
//! is assigned a nursery reference; a minor collection treats those slots
//! as additional roots.

use hpmopt_prim::IntSet;

use crate::object::Address;

/// A deduplicating remembered set of slot addresses. The set is only
/// probed and drained sorted, so its iteration order cannot leak.
#[derive(Debug, Clone, Default)]
pub struct RememberedSet {
    slots: IntSet<u64>,
}

impl RememberedSet {
    /// Create an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a slot (idempotent).
    #[inline]
    pub fn record(&mut self, slot: Address) {
        self.slots.insert(slot.0);
    }

    /// Drain the recorded slots in sorted order (determinism matters: the
    /// scan order affects promotion order and therefore addresses).
    pub fn drain_sorted(&mut self) -> Vec<Address> {
        let mut v: Vec<u64> = self.slots.drain().collect();
        v.sort_unstable();
        v.into_iter().map(Address).collect()
    }

    /// Number of recorded slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Forget everything (after a major collection nothing in the mature
    /// space points at the empty nursery).
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_deduplicate() {
        let mut r = RememberedSet::new();
        r.record(Address(16));
        r.record(Address(16));
        r.record(Address(8));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn drain_is_sorted_and_empties() {
        let mut r = RememberedSet::new();
        r.record(Address(24));
        r.record(Address(8));
        r.record(Address(16));
        assert_eq!(r.drain_sorted(), vec![Address(8), Address(16), Address(24)]);
        assert!(r.is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut r = RememberedSet::new();
        r.record(Address(8));
        r.clear();
        assert!(r.is_empty());
    }
}
