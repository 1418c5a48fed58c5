//! The code cache: where compiled artifacts live.
//!
//! Two modes, selected by [`JitConfig::code_cache_capacity_bytes`]:
//!
//! - **Unbounded** (`None`, the default): a pure bump allocator over the
//!   immortal code space — byte-for-byte the legacy `code_cursor`
//!   behaviour. Nothing is ever freed (recompiling a method leaks its old
//!   range, exactly as before), so the code epoch stays 0 forever and
//!   every historical sample remains attributable.
//! - **Bounded** (`Some(capacity)`): ranges are freed when a method is
//!   recompiled or deoptimized, kept in a coalescing first-fit free list,
//!   and **reused**. When neither the free list nor the remaining bump
//!   space fits a new allocation, the least-recently-*sampled* live range
//!   whose method is not pinned (on the call stack or mid-install) is
//!   evicted. Every free advances the global **code epoch**; the epoch a
//!   sample was captured at decides downstream whether its PC may still
//!   be attributed to the artifact now occupying that range.
//!
//! [`JitConfig::code_cache_capacity_bytes`]: crate::JitConfig

use hpmopt_bytecode::MethodId;

use crate::Tier;

/// A code-address range returned to the cache: the caller must retire
/// it from sample attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreedRange {
    /// Method whose code occupied the range.
    pub method: MethodId,
    /// Tier of the freed artifact.
    pub tier: Tier,
    /// First freed address.
    pub start: u64,
    /// One past the last freed address.
    pub end: u64,
    /// Code epoch *after* this free — samples stamped with an earlier
    /// epoch may carry PCs from inside `start..end` and must not be
    /// attributed to whatever is installed there next.
    pub epoch: u64,
    /// True when the range was evicted for capacity (vs freed because its
    /// method was recompiled or deoptimized).
    pub evicted: bool,
}

#[derive(Debug, Clone)]
struct LiveRange {
    start: u64,
    end: u64,
    method: MethodId,
    tier: Tier,
    last_touch: u64,
}

/// Bump (unbounded) or free-list + LRU-evicting (bounded) allocator for
/// compiled-code address ranges.
#[derive(Debug, Clone)]
pub struct CodeCache {
    base: u64,
    capacity: Option<u64>,
    cursor: u64,
    /// Live ranges, sorted by start. Only maintained in bounded mode —
    /// the unbounded cache never frees, so it needs no registry.
    live: Vec<LiveRange>,
    /// Free ranges `(start, end)`, sorted by start, coalesced.
    free: Vec<(u64, u64)>,
    live_bytes: u64,
    epoch: u64,
    evictions: u64,
    frees: u64,
}

impl CodeCache {
    /// Create a cache over code addresses starting at `base`.
    #[must_use]
    pub fn new(base: u64, capacity: Option<u64>) -> Self {
        CodeCache {
            base,
            capacity,
            cursor: base,
            live: Vec::new(),
            free: Vec::new(),
            live_bytes: 0,
            epoch: 0,
            evictions: 0,
            frees: 0,
        }
    }

    /// Whether the cache is capacity-bounded (frees and evicts).
    #[must_use]
    pub fn bounded(&self) -> bool {
        self.capacity.is_some()
    }

    /// Configured capacity, if bounded.
    #[must_use]
    pub fn capacity(&self) -> Option<u64> {
        self.capacity
    }

    /// Current code epoch (number of ranges freed so far).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bytes of live code.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        if self.bounded() {
            self.live_bytes
        } else {
            self.cursor - self.base
        }
    }

    /// Ranges evicted for capacity so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Ranges freed so far (evictions plus recompile/deopt frees).
    #[must_use]
    pub fn frees(&self) -> u64 {
        self.frees
    }

    /// Allocate `bytes` of code space for `method` at `tier`. `now` is
    /// the current simulated cycle (the LRU timestamp); `pinned` lists
    /// methods whose code must not be evicted (anything on the call
    /// stack, plus the method being installed). Returns the start
    /// address, and appends to `evicted` any ranges evicted to make room
    /// — the caller must retire each from sample attribution.
    ///
    /// # Panics
    ///
    /// Panics if the new range would overlap a live one (bounded mode;
    /// the bump allocator cannot produce an overlap).
    pub fn alloc(
        &mut self,
        method: MethodId,
        tier: Tier,
        bytes: u64,
        now: u64,
        pinned: &[MethodId],
        evicted: &mut Vec<FreedRange>,
    ) -> u64 {
        let Some(capacity) = self.capacity else {
            let start = self.cursor;
            self.cursor += bytes;
            return start;
        };
        let limit = self.base + capacity;
        let start = loop {
            if let Some(start) = self.take_first_fit(bytes) {
                break start;
            }
            if self.cursor + bytes <= limit {
                let start = self.cursor;
                self.cursor += bytes;
                break start;
            }
            // Too big to ever fit, or nothing evictable left: overflow
            // the bump pointer rather than deadlock. The cache runs over
            // capacity until enough code dies.
            if bytes > capacity || !self.evict_lru(pinned, evicted) {
                let start = self.cursor;
                self.cursor += bytes;
                break start;
            }
        };
        let end = start + bytes;
        let pos = self.live.partition_point(|r| r.start < start);
        assert!(
            pos.checked_sub(1)
                .is_none_or(|prev| self.live[prev].end <= start)
                && self.live.get(pos).is_none_or(|next| end <= next.start),
            "overlapping code ranges"
        );
        self.live.insert(
            pos,
            LiveRange {
                start,
                end,
                method,
                tier,
                last_touch: now,
            },
        );
        self.live_bytes += bytes;
        start
    }

    /// Free the live range of `method` starting at `start` (its old
    /// artifact, on recompile or deopt). No-op in unbounded mode — the
    /// legacy code space leaks dead ranges and keeps them attributable.
    pub fn free(&mut self, method: MethodId, start: u64) -> Option<FreedRange> {
        if !self.bounded() {
            return None;
        }
        let pos = self
            .live
            .iter()
            .position(|r| r.start == start && r.method == method)?;
        Some(self.release(pos, false))
    }

    /// Refresh the LRU timestamp of `method`'s live code — called when a
    /// timer sample lands in the method, so eviction preys on code that
    /// stopped being sampled.
    pub fn touch(&mut self, method: MethodId, now: u64) {
        if !self.bounded() {
            return;
        }
        for r in &mut self.live {
            if r.method == method {
                r.last_touch = now;
            }
        }
    }

    /// Evict the least-recently-touched non-pinned range; ties broken by
    /// lowest start address so eviction order is deterministic. Returns
    /// false when every live range is pinned.
    fn evict_lru(&mut self, pinned: &[MethodId], evicted: &mut Vec<FreedRange>) -> bool {
        let victim = self
            .live
            .iter()
            .enumerate()
            .filter(|(_, r)| !pinned.contains(&r.method))
            .min_by_key(|(_, r)| (r.last_touch, r.start))
            .map(|(i, _)| i);
        match victim {
            Some(i) => {
                let mut freed = self.release(i, true);
                freed.evicted = true;
                self.evictions += 1;
                evicted.push(freed);
                true
            }
            None => false,
        }
    }

    /// Remove live range `pos`, return its space to the free list
    /// (coalescing with neighbours), and advance the epoch.
    fn release(&mut self, pos: usize, evicted: bool) -> FreedRange {
        let r = self.live.remove(pos);
        self.live_bytes -= r.end - r.start;
        self.epoch += 1;
        self.frees += 1;
        self.insert_free(r.start, r.end);
        FreedRange {
            method: r.method,
            tier: r.tier,
            start: r.start,
            end: r.end,
            epoch: self.epoch,
            evicted,
        }
    }

    fn insert_free(&mut self, mut start: u64, mut end: u64) {
        let pos = self.free.partition_point(|&(s, _)| s < start);
        // Coalesce with the preceding and following free ranges.
        if pos > 0 && self.free[pos - 1].1 == start {
            start = self.free[pos - 1].0;
            self.free.remove(pos - 1);
            let pos = pos - 1;
            if pos < self.free.len() && self.free[pos].0 == end {
                end = self.free[pos].1;
                self.free.remove(pos);
            }
        } else if pos < self.free.len() && self.free[pos].0 == end {
            end = self.free[pos].1;
            self.free.remove(pos);
        }
        let pos = self.free.partition_point(|&(s, _)| s < start);
        self.free.insert(pos, (start, end));
    }

    /// First free range that fits `bytes`, splitting off the remainder.
    fn take_first_fit(&mut self, bytes: u64) -> Option<u64> {
        let i = self.free.iter().position(|&(s, e)| e - s >= bytes)?;
        let (s, e) = self.free[i];
        if e - s == bytes {
            self.free.remove(i);
        } else {
            self.free[i] = (s + bytes, e);
        }
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmopt_prim::Rng;

    const BASE: u64 = 0x4000_0000;

    /// One allocation into a fresh buffer: the start and the evictions.
    fn alloc(
        c: &mut CodeCache,
        method: MethodId,
        tier: Tier,
        bytes: u64,
        now: u64,
        pinned: &[MethodId],
    ) -> (u64, Vec<FreedRange>) {
        let mut evicted = Vec::new();
        let start = c.alloc(method, tier, bytes, now, pinned, &mut evicted);
        (start, evicted)
    }

    #[test]
    fn unbounded_is_a_pure_bump_allocator() {
        let mut c = CodeCache::new(BASE, None);
        let (a, ev) = alloc(&mut c, MethodId(0), Tier::Baseline, 40, 0, &[]);
        assert_eq!(a, BASE);
        assert!(ev.is_empty());
        let (b, _) = alloc(&mut c, MethodId(1), Tier::Baseline, 24, 5, &[]);
        assert_eq!(b, BASE + 40, "contiguous, never reused");
        assert_eq!(c.free(MethodId(0), a), None, "unbounded never frees");
        assert_eq!(c.epoch(), 0);
        assert_eq!(c.live_bytes(), 64);
    }

    #[test]
    fn bounded_reuses_a_freed_range() {
        let mut c = CodeCache::new(BASE, Some(1024));
        let (a, _) = alloc(&mut c, MethodId(0), Tier::Baseline, 40, 0, &[]);
        let freed = c.free(MethodId(0), a).expect("live range");
        assert_eq!((freed.start, freed.end), (a, a + 40));
        assert_eq!(freed.epoch, 1, "epoch advances on free");
        assert!(!freed.evicted);
        let (b, ev) = alloc(&mut c, MethodId(1), Tier::Opt, 24, 10, &[]);
        assert_eq!(b, a, "freed range is reused first-fit");
        assert!(ev.is_empty());
        assert_eq!(c.frees(), 1);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn capacity_pressure_evicts_lru_and_skips_pinned() {
        let mut c = CodeCache::new(BASE, Some(100));
        let (a, _) = alloc(&mut c, MethodId(0), Tier::Baseline, 40, 0, &[]);
        let (b, _) = alloc(&mut c, MethodId(1), Tier::Baseline, 40, 1, &[]);
        // Method 0 is older but pinned; method 1 must be the victim.
        let (d, ev) = alloc(&mut c, MethodId(2), Tier::Baseline, 40, 2, &[MethodId(0)]);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].method, MethodId(1));
        assert!(ev[0].evicted);
        assert_eq!(d, b, "reuses the evicted range");
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.epoch(), 1);
        // Touching refreshes LRU order: method 0, though older, is now
        // hotter than method 2.
        c.touch(MethodId(2), 3);
        c.touch(MethodId(0), 4);
        // Evictions are appended to the caller's buffer.
        let mut evicted = ev;
        c.alloc(MethodId(3), Tier::Baseline, 40, 5, &[], &mut evicted);
        assert_eq!(evicted.len(), 2);
        assert_eq!(evicted[1].method, MethodId(2));
        let _ = a;
    }

    #[test]
    fn adjacent_frees_coalesce() {
        let mut c = CodeCache::new(BASE, Some(1024));
        let (a, _) = alloc(&mut c, MethodId(0), Tier::Baseline, 40, 0, &[]);
        let (b, _) = alloc(&mut c, MethodId(1), Tier::Baseline, 40, 0, &[]);
        c.free(MethodId(0), a).unwrap();
        c.free(MethodId(1), b).unwrap();
        // An 80-byte allocation only fits the free list if the two
        // 40-byte holes merged.
        let (d, ev) = alloc(&mut c, MethodId(2), Tier::Baseline, 80, 1, &[]);
        assert_eq!(d, a);
        assert!(ev.is_empty());
        assert_eq!(c.epoch(), 2);
    }

    #[test]
    fn all_pinned_overflows_instead_of_deadlocking() {
        let mut c = CodeCache::new(BASE, Some(64));
        let (a, _) = alloc(&mut c, MethodId(0), Tier::Baseline, 64, 0, &[]);
        let (b, ev) = alloc(&mut c, MethodId(1), Tier::Baseline, 32, 1, &[MethodId(0)]);
        assert!(ev.is_empty(), "nothing evictable");
        assert_eq!(b, a + 64, "bump pointer overflows capacity");
        assert!(c.live_bytes() > 64);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn oversized_allocation_overflows_without_evicting() {
        let mut c = CodeCache::new(BASE, Some(64));
        alloc(&mut c, MethodId(0), Tier::Baseline, 40, 0, &[]);
        let (_, ev) = alloc(&mut c, MethodId(1), Tier::Baseline, 128, 1, &[]);
        assert!(
            ev.is_empty(),
            "evicting cannot make a > capacity allocation fit"
        );
        assert_eq!(c.evictions(), 0);
    }

    /// Live ranges are sorted and pairwise disjoint, the free list is
    /// sorted and coalesced, and no live range intersects a free one.
    fn assert_disjoint(c: &CodeCache) {
        assert!(
            c.live.windows(2).all(|w| w[0].end <= w[1].start),
            "live ranges overlap or are out of order"
        );
        assert!(
            c.free.windows(2).all(|w| w[0].1 < w[1].0),
            "free list overlaps, is out of order or is not coalesced"
        );
        let mut all: Vec<(u64, u64)> = c.live.iter().map(|r| (r.start, r.end)).collect();
        all.extend(&c.free);
        all.sort_unstable();
        assert!(
            all.windows(2).all(|w| w[0].1 <= w[1].0),
            "a live range intersects the free list"
        );
    }

    #[test]
    fn churn_never_hands_out_overlapping_ranges() {
        const METHODS: u64 = 12;
        for seed in 0..64 {
            let mut rng = Rng::new(seed);
            let mut c = CodeCache::new(BASE, Some(1024));
            // Each method's live artifact, tracked as the VM tracks it.
            let mut start_of = [None; METHODS as usize];
            for now in 0..400 {
                let m = MethodId(rng.below(METHODS) as u32);
                match rng.below(3) {
                    0 => {
                        // Recompile: free the old artifact, then allocate.
                        if let Some(old) = start_of[m.0 as usize].take() {
                            c.free(m, old).expect("live range");
                        }
                        let pinned = [MethodId(rng.below(METHODS) as u32)];
                        let bytes = rng.range(1, 256);
                        let (start, evicted) =
                            alloc(&mut c, m, Tier::Baseline, bytes, now, &pinned);
                        for fr in evicted {
                            start_of[fr.method.0 as usize] = None;
                        }
                        start_of[m.0 as usize] = Some(start);
                    }
                    1 => {
                        if let Some(old) = start_of[m.0 as usize].take() {
                            c.free(m, old).expect("live range");
                        }
                    }
                    _ => c.touch(m, now),
                }
                assert_disjoint(&c);
            }
            assert!(c.evictions() > 0, "seed {seed} never evicted");
        }
    }
}
