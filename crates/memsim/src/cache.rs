//! Set-associative cache with true-LRU replacement.

/// Geometry of one cache level.
///
/// All three parameters must be powers of two and consistent
/// (`size = sets * line * associativity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    size_bytes: u64,
    line_bytes: u64,
    associativity: usize,
}

impl CacheGeometry {
    /// Create a geometry.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or not a power of two, or if the
    /// configuration yields zero sets.
    #[must_use]
    pub fn new(size_bytes: u64, line_bytes: u64, associativity: usize) -> Self {
        assert!(
            size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            associativity.is_power_of_two(),
            "associativity must be a power of two"
        );
        let sets = size_bytes / (line_bytes * associativity as u64);
        assert!(sets >= 1, "cache must have at least one set");
        CacheGeometry {
            size_bytes,
            line_bytes,
            associativity,
        }
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size_bytes(self) -> u64 {
        self.size_bytes
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(self) -> u64 {
        self.line_bytes
    }

    /// Ways per set.
    #[must_use]
    pub fn associativity(self) -> usize {
        self.associativity
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(self) -> u64 {
        self.size_bytes / (self.line_bytes * self.associativity as u64)
    }

    /// The line-granular address of `addr` (low bits cleared).
    #[must_use]
    pub fn line_of(self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }
}

/// What [`access_mru`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// The tag was resident.
    Hit,
    /// The tag was missing and took a free slot.
    Filled,
    /// The tag was missing and the set was full: the LRU tag fell out.
    Evicted,
}

/// Access `tag` in an MRU-first set whose first `len` of `set.len()`
/// slots are resident. One pass searches and shifts: every slot before
/// the tag's old place moves back by one and the tag lands in front, so
/// a hit rotates only the slots up to the hit one, and a miss shifts
/// the whole resident run and keeps the LRU tag only if a slot is free.
#[inline]
pub(crate) fn access_mru(set: &mut [u64], len: usize, tag: u64) -> Lookup {
    let mut carry = tag;
    for slot in &mut set[..len] {
        let t = std::mem::replace(slot, carry);
        if t == tag {
            return Lookup::Hit;
        }
        carry = t;
    }
    if len < set.len() {
        set[len] = carry;
        Lookup::Filled
    } else {
        Lookup::Evicted
    }
}

/// One set-associative cache level with LRU replacement.
///
/// Tags are full line addresses; the simulator does not store data (the
/// heap holds the data; the cache only answers hit/miss). All sets live
/// in one flat array: set `s` owns the `ways` slots starting at
/// `s * ways`, and only its first `fill[s]` slots are resident, most
/// recently used first, so the last resident slot is the LRU line.
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    ways: usize,
    /// `log2(line_bytes)`: address → line number.
    line_shift: u32,
    /// `sets - 1`: line number → set index.
    set_mask: u64,
    /// `sets × ways` line tags, one MRU-first run of `ways` per set.
    tags: Box<[u64]>,
    /// Resident slots per set.
    fill: Box<[u32]>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Cache {
    /// Create an empty (cold) cache.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        let ways = geometry.associativity();
        let sets = geometry.sets() as usize;
        Cache {
            geometry,
            ways,
            line_shift: geometry.line_bytes().trailing_zeros(),
            set_mask: geometry.sets() - 1,
            tags: vec![0; sets * ways].into_boxed_slice(),
            fill: vec![0; sets].into_boxed_slice(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The line tag of `addr` and the index of its set.
    #[inline]
    fn locate(&self, addr: u64) -> (u64, usize) {
        let number = addr >> self.line_shift;
        (number << self.line_shift, (number & self.set_mask) as usize)
    }

    /// The full `ways`-slot run of set `set`.
    #[inline]
    fn set_slots(&mut self, set: usize) -> &mut [u64] {
        let base = set * self.ways;
        &mut self.tags[base..base + self.ways]
    }

    /// Access the line containing `addr`; returns `true` on hit. On a miss
    /// the line is filled (write-allocate) and the LRU line of the set is
    /// evicted.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let (line, set) = self.locate(addr);
        let len = self.fill[set] as usize;
        match access_mru(self.set_slots(set), len, line) {
            Lookup::Hit => {
                self.hits += 1;
                return true;
            }
            Lookup::Filled => self.fill[set] += 1,
            Lookup::Evicted => self.evictions += 1,
        }
        self.misses += 1;
        false
    }

    /// Fill the line containing `addr` without counting a demand access
    /// (used by the prefetcher). The filled line is inserted in LRU
    /// position so a useless prefetch is evicted first.
    pub fn fill_prefetch(&mut self, addr: u64) {
        let (line, set) = self.locate(addr);
        let len = self.fill[set] as usize;
        let ways = self.ways;
        let slots = self.set_slots(set);
        if slots[..len].contains(&line) {
            return;
        }
        if len == ways {
            slots[ways - 1] = line;
            self.evictions += 1;
        } else {
            slots[len] = line;
            self.fill[set] += 1;
        }
    }

    /// Whether the line containing `addr` is resident (no LRU update).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let (line, set) = self.locate(addr);
        let base = set * self.ways;
        self.tags[base..base + self.fill[set] as usize].contains(&line)
    }

    /// Invalidate every line (used to model the cache pollution of a full
    /// garbage collection).
    pub fn flush(&mut self) {
        self.fill.fill(0);
    }

    /// Demand hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lines evicted by capacity/conflict replacement (demand fills and
    /// prefetch fills alike; `flush` does not count).
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of currently resident lines.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.fill.iter().map(|&n| n as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets, 2 ways, 64-byte lines.
        Cache::new(CacheGeometry::new(256, 64, 2))
    }

    #[test]
    fn miss_then_hit_same_line() {
        let mut c = tiny();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x13f), "same 64-byte line");
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Set 0 lines: multiples of 128 (2 sets * 64B lines).
        c.access(0x000);
        c.access(0x080);
        c.access(0x000); // 0x000 now MRU
        c.access(0x100); // evicts LRU = 0x080
        assert!(c.contains(0x000));
        assert!(!c.contains(0x080));
        assert!(c.contains(0x100));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0x000); // set 0
        c.access(0x040); // set 1
        c.access(0x080); // set 0
        c.access(0x0c0); // set 1
        assert_eq!(c.resident_lines(), 4);
        assert!(c.contains(0x000) && c.contains(0x040));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.access(0x000);
        c.access(0x040);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.contains(0x000));
    }

    #[test]
    fn prefetch_fill_is_lru_positioned() {
        let mut c = tiny();
        c.access(0x000); // MRU of set 0
        c.fill_prefetch(0x080); // LRU of set 0
        c.access(0x100); // evicts the prefetched line, not the demand line
        assert!(c.contains(0x000));
        assert!(!c.contains(0x080));
    }

    #[test]
    fn prefetch_fill_does_not_count_stats() {
        let mut c = tiny();
        c.fill_prefetch(0x000);
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(c.access(0x000), "prefetched line hits");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = CacheGeometry::new(300, 64, 2);
    }

    #[test]
    fn line_of_masks_low_bits() {
        let g = CacheGeometry::new(256, 64, 2);
        assert_eq!(g.line_of(0x7f), 0x40);
        assert_eq!(g.line_of(0x40), 0x40);
    }
}
