//! Bump-pointer nursery.
//!
//! Young objects are allocated by incrementing a cursor through the
//! nursery region. The nursery's *logical* capacity is variable
//! (Appel-style, [`crate::heap::Heap`] shrinks it as the mature space
//! fills) while its physical region is fixed.

use crate::object::Address;

/// A bump-pointer allocation region.
#[derive(Debug, Clone)]
pub struct Nursery {
    start: Address,
    physical_end: Address,
    /// Current logical limit (≤ `physical_end`).
    limit: Address,
    cursor: Address,
}

impl Nursery {
    /// Create a nursery over `[start, end)`.
    #[must_use]
    pub fn new(start: Address, end: Address) -> Self {
        Nursery {
            start,
            physical_end: end,
            limit: end,
            cursor: start,
        }
    }

    /// Bump-allocate `size` bytes (8-byte aligned); `None` when the
    /// nursery is full, which must trigger a minor collection.
    pub fn alloc(&mut self, size: u64) -> Option<Address> {
        debug_assert_eq!(size % 8, 0, "allocation sizes are word-aligned");
        let next = self.cursor.0.checked_add(size)?;
        if next > self.limit.0 {
            return None;
        }
        let obj = self.cursor;
        self.cursor = Address(next);
        Some(obj)
    }

    /// Reset after a minor collection (everything was promoted).
    pub fn reset(&mut self) {
        self.cursor = self.start;
    }

    /// Shrink or grow the logical capacity (Appel-style sizing). Values
    /// are clamped to the physical region; the cursor is never moved.
    pub fn set_capacity(&mut self, bytes: u64) {
        let end = (self.start.0 + bytes).min(self.physical_end.0);
        self.limit = Address(end.max(self.cursor.0));
    }

    /// Whether `addr` lies in the nursery region.
    #[inline]
    #[must_use]
    pub fn contains(&self, addr: Address) -> bool {
        addr >= self.start && addr < self.physical_end
    }

    /// Bytes currently allocated.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.cursor.0 - self.start.0
    }

    /// Current logical capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.limit.0 - self.start.0
    }

    /// Start of the region.
    #[must_use]
    pub fn start(&self) -> Address {
        self.start
    }

    /// Current allocation cursor (objects live in `[start, cursor)`).
    #[must_use]
    pub fn cursor(&self) -> Address {
        self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nursery() -> Nursery {
        Nursery::new(Address(0x1000), Address(0x2000))
    }

    #[test]
    fn bump_allocates_consecutively() {
        let mut n = nursery();
        let a = n.alloc(32).unwrap();
        let b = n.alloc(16).unwrap();
        assert_eq!(a, Address(0x1000));
        assert_eq!(b, Address(0x1020));
        assert_eq!(n.used(), 48);
    }

    #[test]
    fn full_nursery_returns_none() {
        let mut n = nursery();
        assert!(n.alloc(4096).is_some());
        assert!(n.alloc(8).is_none());
    }

    #[test]
    fn reset_reclaims_everything() {
        let mut n = nursery();
        n.alloc(4096).unwrap();
        n.reset();
        assert_eq!(n.used(), 0);
        assert!(n.alloc(4096).is_some());
    }

    #[test]
    fn capacity_shrinks_logically() {
        let mut n = nursery();
        n.set_capacity(64);
        assert!(n.alloc(64).is_some());
        assert!(n.alloc(8).is_none(), "logical limit hit");
        n.set_capacity(4096);
        assert!(n.alloc(8).is_some(), "capacity restored");
    }

    #[test]
    fn capacity_clamps_to_physical_region() {
        let mut n = nursery();
        n.set_capacity(1 << 40);
        assert_eq!(n.capacity(), 0x1000);
    }

    #[test]
    fn contains_covers_physical_region() {
        let n = nursery();
        assert!(n.contains(Address(0x1000)));
        assert!(n.contains(Address(0x1fff)));
        assert!(!n.contains(Address(0x2000)));
        assert!(!n.contains(Address(0xfff)));
    }
}
