//! The raw simulated address space backing the heap.
//!
//! A [`RawHeap`] is a byte buffer mapped at a virtual base address. All
//! object addresses handed out by the collector are virtual addresses into
//! this buffer, which is what lets `hpmopt-memsim` observe realistic cache
//! behaviour: two objects at adjacent virtual addresses really do share a
//! cache line.

use crate::object::Address;

/// Virtual base address of the heap. Non-zero so that the null reference
/// (address 0) is never a valid object address.
pub const HEAP_BASE: u64 = 0x1000_0000;

/// A flat byte buffer addressed by virtual [`Address`]es.
#[derive(Debug, Clone)]
pub struct RawHeap {
    base: u64,
    bytes: Vec<u8>,
}

impl RawHeap {
    /// Allocate a raw heap of `size` bytes at [`HEAP_BASE`].
    #[must_use]
    pub fn new(size: u64) -> Self {
        RawHeap {
            base: HEAP_BASE,
            bytes: vec![0; size as usize],
        }
    }

    /// The lowest valid address.
    #[must_use]
    pub fn base(&self) -> Address {
        Address(self.base)
    }

    /// One past the highest valid address.
    #[must_use]
    pub fn end(&self) -> Address {
        Address(self.base + self.bytes.len() as u64)
    }

    /// Whether `addr` lies within the heap.
    #[must_use]
    pub fn contains(&self, addr: Address) -> bool {
        addr.0 >= self.base && addr.0 < self.base + self.bytes.len() as u64
    }

    #[inline]
    fn index(&self, addr: Address, len: u64) -> usize {
        debug_assert!(
            addr.0 >= self.base && addr.0 + len <= self.base + self.bytes.len() as u64,
            "heap access out of bounds: {addr:?}+{len}"
        );
        (addr.0 - self.base) as usize
    }

    /// Read a 64-bit word.
    #[inline]
    #[must_use]
    pub fn read_u64(&self, addr: Address) -> u64 {
        let i = self.index(addr, 8);
        u64::from_le_bytes(self.bytes[i..i + 8].try_into().unwrap())
    }

    /// Write a 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, addr: Address, v: u64) {
        let i = self.index(addr, 8);
        self.bytes[i..i + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Read a 32-bit word.
    #[inline]
    #[must_use]
    pub fn read_u32(&self, addr: Address) -> u32 {
        let i = self.index(addr, 4);
        u32::from_le_bytes(self.bytes[i..i + 4].try_into().unwrap())
    }

    /// Write a 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, addr: Address, v: u32) {
        let i = self.index(addr, 4);
        self.bytes[i..i + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Read an unsigned integer of `width` ∈ {1, 2, 4, 8} bytes.
    #[inline(always)]
    #[must_use]
    pub fn read_uint(&self, addr: Address, width: u64) -> u64 {
        let i = self.index(addr, width);
        match width {
            1 => u64::from(self.bytes[i]),
            2 => u64::from(u16::from_le_bytes(self.bytes[i..i + 2].try_into().unwrap())),
            4 => u64::from(u32::from_le_bytes(self.bytes[i..i + 4].try_into().unwrap())),
            8 => self.read_u64(addr),
            _ => panic!("unsupported access width {width}"),
        }
    }

    /// Write an unsigned integer of `width` ∈ {1, 2, 4, 8} bytes
    /// (truncating `v`).
    #[inline(always)]
    pub fn write_uint(&mut self, addr: Address, width: u64, v: u64) {
        let i = self.index(addr, width);
        match width {
            1 => self.bytes[i] = v as u8,
            2 => self.bytes[i..i + 2].copy_from_slice(&(v as u16).to_le_bytes()),
            4 => self.bytes[i..i + 4].copy_from_slice(&(v as u32).to_le_bytes()),
            8 => self.write_u64(addr, v),
            _ => panic!("unsupported access width {width}"),
        }
    }

    /// Copy `len` bytes from `src` to `dst` (regions may not overlap).
    pub fn copy(&mut self, src: Address, dst: Address, len: u64) {
        let si = self.index(src, len);
        let di = self.index(dst, len);
        self.bytes.copy_within(si..si + len as usize, di);
    }

    /// Zero `len` bytes starting at `addr` (reused cells must not leak
    /// stale references into freshly allocated objects).
    pub fn zero(&mut self, addr: Address, len: u64) {
        let i = self.index(addr, len);
        self.bytes[i..i + len as usize].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_widths() {
        let mut h = RawHeap::new(4096);
        let a = h.base();
        for (w, v) in [
            (1u64, 0xabu64),
            (2, 0xbeef),
            (4, 0xdead_beef),
            (8, 0x0123_4567_89ab_cdef),
        ] {
            h.write_uint(a, w, v);
            assert_eq!(h.read_uint(a, w), v, "width {w}");
        }
    }

    #[test]
    fn truncates_narrow_writes() {
        let mut h = RawHeap::new(64);
        h.write_uint(h.base(), 1, 0x1ff);
        assert_eq!(h.read_uint(h.base(), 1), 0xff);
    }

    #[test]
    fn copy_moves_bytes() {
        let mut h = RawHeap::new(256);
        let a = h.base();
        h.write_u64(a, 42);
        h.copy(a, Address(a.0 + 64), 8);
        assert_eq!(h.read_u64(Address(a.0 + 64)), 42);
    }

    #[test]
    fn zero_clears() {
        let mut h = RawHeap::new(64);
        h.write_u64(h.base(), u64::MAX);
        h.zero(h.base(), 8);
        assert_eq!(h.read_u64(h.base()), 0);
    }

    #[test]
    fn contains_respects_bounds() {
        let h = RawHeap::new(64);
        assert!(h.contains(h.base()));
        assert!(!h.contains(Address(h.base().0 + 64)));
        assert!(!h.contains(Address(0)));
    }
}
