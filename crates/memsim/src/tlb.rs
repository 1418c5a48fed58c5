//! Fully associative data TLB with LRU replacement.

use crate::cache::{access_mru, Lookup};

/// A fully associative translation lookaside buffer.
///
/// Tracks which virtual pages have cached translations; a miss costs a
/// page-walk penalty (see [`crate::LatencyModel::tlb_miss`]). The
/// entries are one MRU-first set, laid out like a [`crate::Cache`] set.
#[derive(Debug, Clone)]
pub struct Tlb {
    page_shift: u32,
    /// One slot per entry; the first `len` hold resident page numbers,
    /// most recently used first.
    pages: Box<[u64]>,
    len: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Tlb {
    /// Create an empty TLB with `entries` slots for pages of `page_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two or `entries` is zero.
    #[must_use]
    pub fn new(entries: usize, page_bytes: u64) -> Self {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(entries > 0, "TLB must have at least one entry");
        Tlb {
            page_shift: page_bytes.trailing_zeros(),
            pages: vec![0; entries].into_boxed_slice(),
            len: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Translate the page containing `addr`; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        // The MRU slot takes the largest share of translations (44 % on
        // db): check it before searching (and shifting) the rest.
        if self.len > 0 && self.pages[0] == page {
            self.hits += 1;
            return true;
        }
        match access_mru(&mut self.pages, self.len, page) {
            Lookup::Hit => {
                self.hits += 1;
                return true;
            }
            Lookup::Filled => self.len += 1,
            Lookup::Evicted => self.evictions += 1,
        }
        self.misses += 1;
        false
    }

    /// Drop all translations (context-switch / GC pollution model).
    pub fn flush(&mut self) {
        self.len = 0;
    }

    /// Hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Translations evicted by LRU replacement (`flush` does not count).
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(2, 4096);
        assert!(!t.access(0x0000));
        assert!(t.access(0x0fff));
        assert!(!t.access(0x1000), "next page misses");
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2, 4096);
        t.access(0x0000);
        t.access(0x1000);
        t.access(0x0000); // page 0 MRU
        t.access(0x2000); // evicts page 1
        assert!(t.access(0x0000));
        assert!(!t.access(0x1000));
    }

    #[test]
    fn flush_forgets_everything() {
        let mut t = Tlb::new(4, 4096);
        t.access(0x0000);
        t.flush();
        assert!(!t.access(0x0000));
    }

    #[test]
    fn stats_count() {
        let mut t = Tlb::new(4, 4096);
        t.access(0);
        t.access(0);
        t.access(4096);
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
    }
}
