//! The composed L1 / L2 / DTLB / prefetcher hierarchy.

use crate::cache::Cache;
use crate::config::MemConfig;
use crate::prefetch::StreamPrefetcher;
use crate::tlb::Tlb;
use crate::EventKind;

/// Whether an access reads or writes memory. Both allocate on miss
/// (write-allocate policy); the distinction is kept for statistics and
/// future write-buffer modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// One access of a recorded block (see [`MemoryHierarchy::access_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAccess {
    /// Byte address.
    pub addr: u64,
    /// Access width in bytes.
    pub size: u64,
    /// Read or write.
    pub kind: AccessKind,
}

/// The result of one memory access: its latency and the events it raised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessOutcome {
    /// Total latency in cycles.
    pub cycles: u64,
    /// The access missed L1.
    pub l1_miss: bool,
    /// The access missed L2 (implies `l1_miss`).
    pub l2_miss: bool,
    /// The access missed the DTLB.
    pub dtlb_miss: bool,
}

impl AccessOutcome {
    /// Whether this outcome raised the given event.
    #[inline]
    #[must_use]
    pub fn raised(&self, event: EventKind) -> bool {
        match event {
            EventKind::L1DMiss => self.l1_miss,
            EventKind::L2Miss => self.l2_miss,
            EventKind::DtlbMiss => self.dtlb_miss,
        }
    }
}

/// Aggregate counters over the life of the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand accesses observed.
    pub accesses: u64,
    /// Demand reads.
    pub reads: u64,
    /// Demand writes.
    pub writes: u64,
    /// L1 demand hits.
    pub l1_hits: u64,
    /// L1 demand misses.
    pub l1_misses: u64,
    /// L1 lines evicted by replacement.
    pub l1_evictions: u64,
    /// L2 demand hits.
    pub l2_hits: u64,
    /// L2 demand misses.
    pub l2_misses: u64,
    /// L2 lines evicted by replacement (demand and prefetch fills).
    pub l2_evictions: u64,
    /// DTLB hits.
    pub dtlb_hits: u64,
    /// DTLB misses.
    pub dtlb_misses: u64,
    /// DTLB translations evicted by replacement.
    pub dtlb_evictions: u64,
    /// Prefetches issued into L2.
    pub prefetches: u64,
    /// Total cycles spent in memory accesses.
    pub cycles: u64,
}

/// The full simulated memory hierarchy.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: MemConfig,
    l1: Cache,
    l2: Cache,
    tlb: Tlb,
    prefetcher: StreamPrefetcher,
    stats: MemStats,
}

impl MemoryHierarchy {
    /// Create a cold hierarchy.
    #[must_use]
    pub fn new(config: MemConfig) -> Self {
        MemoryHierarchy {
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            tlb: Tlb::new(config.tlb_entries, config.page_bytes),
            prefetcher: StreamPrefetcher::new(config.l2.line_bytes(), config.prefetch_depth),
            config,
            stats: MemStats::default(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Play one demand access of `size` bytes at `addr` through the
    /// hierarchy and return its latency and events.
    ///
    /// Accesses are assumed not to straddle a cache line; the VM only
    /// issues naturally aligned accesses of at most 8 bytes, which cannot
    /// (lines are ≥ 64 bytes).
    pub fn access(&mut self, addr: u64, size: u64, kind: AccessKind) -> AccessOutcome {
        self.access_one(addr, size, kind, false)
    }

    /// Play one access of a basic block through the hierarchy, with the
    /// block latency model.
    ///
    /// Cache, TLB, and prefetcher state transitions — and every hit/miss
    /// statistic — are byte-identical to [`MemoryHierarchy::access`]. The
    /// latency model is the only difference: an access that hits both
    /// the DTLB and L1 charges zero cycles, because within a block the
    /// out-of-order core overlaps an L1 hit with the block's other
    /// instructions (whose dispatch cycles the caller charges
    /// separately, including the memory instruction itself). Any miss
    /// stalls the pipeline and pays the same serial latency stack
    /// `access` charges.
    #[inline]
    pub fn access_pipelined(&mut self, addr: u64, size: u64, kind: AccessKind) -> AccessOutcome {
        self.access_one(addr, size, kind, true)
    }

    /// Play a recorded block's accesses through
    /// [`MemoryHierarchy::access_pipelined`] in order, appending one
    /// [`AccessOutcome`] per access to `out`.
    pub fn access_batch(&mut self, batch: &[BatchAccess], out: &mut Vec<AccessOutcome>) {
        for b in batch {
            out.push(self.access_pipelined(b.addr, b.size, b.kind));
        }
    }

    #[inline(always)]
    fn access_one(
        &mut self,
        addr: u64,
        size: u64,
        kind: AccessKind,
        pipelined: bool,
    ) -> AccessOutcome {
        debug_assert!(size <= self.config.l1.line_bytes());
        let lat = self.config.latency;
        let mut out = AccessOutcome {
            cycles: lat.l1_hit,
            ..AccessOutcome::default()
        };

        if !self.tlb.access(addr) {
            out.dtlb_miss = true;
            out.cycles += lat.tlb_miss;
            self.stats.dtlb_misses += 1;
        }

        if !self.l1.access(addr) {
            out.l1_miss = true;
            out.cycles += lat.l2_hit;
            self.stats.l1_misses += 1;
            if !self.l2.access(addr) {
                out.l2_miss = true;
                out.cycles += lat.memory;
                self.stats.l2_misses += 1;
                if self.config.prefetch {
                    for line in self.prefetcher.observe_miss(addr) {
                        self.l2.fill_prefetch(line);
                        self.stats.prefetches += 1;
                    }
                }
            }
        } else if pipelined && !out.dtlb_miss {
            // Pipelined L1+TLB hit: fully overlapped, no stall.
            out.cycles = 0;
        }

        self.stats.accesses += 1;
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        self.stats.cycles += out.cycles;
        out
    }

    /// Invalidate caches, TLB, and prefetch streams — the pollution model
    /// for a garbage collection, which walks the whole live heap.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.tlb.flush();
        self.prefetcher.flush();
    }

    /// Aggregate statistics. Hit and eviction totals are read off the
    /// component caches here rather than tallied per access, keeping
    /// the access fast path unchanged.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1_hits: self.l1.hits(),
            l1_evictions: self.l1.evictions(),
            l2_hits: self.l2.hits(),
            l2_evictions: self.l2.evictions(),
            dtlb_hits: self.tlb.hits(),
            dtlb_evictions: self.tlb.evictions(),
            ..self.stats
        }
    }

    /// The L1 cache (for inspection in tests and reports).
    #[must_use]
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The L2 cache (for inspection in tests and reports).
    #[must_use]
    pub fn l2(&self) -> &Cache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p4() -> MemoryHierarchy {
        MemoryHierarchy::new(MemConfig::pentium4())
    }

    #[test]
    fn cold_access_misses_everything() {
        let mut m = p4();
        let out = m.access(0x10_0000, 8, AccessKind::Read);
        assert!(out.l1_miss && out.l2_miss && out.dtlb_miss);
        assert_eq!(
            out.cycles,
            2 + 18 + 200 + 30,
            "l1 + l2 + memory + page walk"
        );
    }

    #[test]
    fn second_access_hits_l1() {
        let mut m = p4();
        m.access(0x10_0000, 8, AccessKind::Read);
        let out = m.access(0x10_0040, 8, AccessKind::Read);
        assert!(!out.l1_miss && !out.dtlb_miss);
        assert_eq!(out.cycles, 2);
    }

    #[test]
    fn l1_eviction_still_hits_l2() {
        let mut m = p4();
        let target = 0u64;
        m.access(target, 8, AccessKind::Read);
        // Touch 9 more lines mapping to the same L1 set (L1: 16 sets,
        // line 128 → same set every 16*128 = 2048 bytes). L2 has 1024
        // sets so these do not conflict there.
        for i in 1..=8u64 {
            m.access(target + i * 2048, 8, AccessKind::Read);
        }
        let out = m.access(target, 8, AccessKind::Read);
        assert!(out.l1_miss, "evicted from 8-way L1 set");
        assert!(!out.l2_miss, "still resident in L2");
    }

    #[test]
    fn same_line_objects_share_misses() {
        // The co-allocation premise: two objects in one 128-byte line cost
        // one miss; in different lines they cost two.
        let mut m = p4();
        m.access(0x0, 8, AccessKind::Read);
        let second = m.access(0x40, 8, AccessKind::Read);
        assert!(!second.l1_miss, "co-located child is implicitly prefetched");

        let far = m.access(0x1000, 8, AccessKind::Read);
        assert!(far.l1_miss, "separate line pays its own miss");
    }

    #[test]
    fn sequential_walk_triggers_prefetch() {
        let mut m = p4();
        for i in 0..64u64 {
            m.access(0x10_0000 + i * 128, 8, AccessKind::Read);
        }
        let s = m.stats();
        assert!(s.prefetches > 0, "stream detected");
        // With depth-2 prefetch, later lines hit L2 rather than memory.
        assert!(s.l2_misses < 64, "prefetcher absorbed some misses: {s:?}");
    }

    #[test]
    fn flush_restores_cold_state() {
        let mut m = p4();
        m.access(0x0, 8, AccessKind::Read);
        m.flush();
        let out = m.access(0x0, 8, AccessKind::Read);
        assert!(out.l1_miss && out.l2_miss && out.dtlb_miss);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = p4();
        m.access(0x0, 8, AccessKind::Read);
        m.access(0x0, 8, AccessKind::Write);
        let s = m.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.l1_misses, 1);
        assert!(s.cycles > 0);
    }

    #[test]
    fn outcome_raised_matches_flags() {
        let out = AccessOutcome {
            cycles: 1,
            l1_miss: true,
            l2_miss: false,
            dtlb_miss: true,
        };
        assert!(out.raised(EventKind::L1DMiss));
        assert!(!out.raised(EventKind::L2Miss));
        assert!(out.raised(EventKind::DtlbMiss));
    }

    #[test]
    fn stats_surface_hits_and_evictions() {
        let mut m = p4();
        m.access(0x0, 8, AccessKind::Read);
        m.access(0x0, 8, AccessKind::Read);
        let s = m.stats();
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.dtlb_hits, 1);
        assert_eq!(s.l1_hits + s.l1_misses, s.accesses);
        // Thrash one L1 set (16 sets × 128-byte lines → 2 KiB stride)
        // past its 8 ways to force replacement.
        for i in 0..16u64 {
            m.access(i * 2048, 8, AccessKind::Read);
        }
        assert!(m.stats().l1_evictions > 0, "L1 set overflow must evict");
    }

    #[test]
    fn batch_state_and_stats_match_scalar_accesses() {
        // A mixed stream (misses, hits, conflict evictions, a prefetch
        // stream) must leave batch and scalar hierarchies in identical
        // states with identical hit/miss statistics; only latency differs.
        let stream: Vec<BatchAccess> = (0..48u64)
            .map(|i| BatchAccess {
                addr: (i % 7) * 2048 + i * 128,
                size: 8,
                kind: if i % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            })
            .collect();

        let mut scalar = p4();
        let scalar_outs: Vec<AccessOutcome> = stream
            .iter()
            .map(|b| scalar.access(b.addr, b.size, b.kind))
            .collect();

        let mut batched = p4();
        let mut batch_outs = Vec::new();
        for chunk in stream.chunks(5) {
            batched.access_batch(chunk, &mut batch_outs);
        }

        for (s, b) in scalar_outs.iter().zip(&batch_outs) {
            assert_eq!(
                (s.l1_miss, s.l2_miss, s.dtlb_miss),
                (b.l1_miss, b.l2_miss, b.dtlb_miss),
                "event flags must not depend on batching"
            );
            if s.l1_miss || s.dtlb_miss {
                assert_eq!(s.cycles, b.cycles, "misses pay the full stack");
            } else {
                assert_eq!(b.cycles, 0, "batched L1 hits are overlapped");
            }
        }

        let ss = scalar.stats();
        let bs = batched.stats();
        assert_eq!(
            (ss.accesses, ss.reads, ss.writes),
            (bs.accesses, bs.reads, bs.writes)
        );
        assert_eq!(
            (ss.l1_hits, ss.l1_misses, ss.l1_evictions),
            (bs.l1_hits, bs.l1_misses, bs.l1_evictions)
        );
        assert_eq!((ss.l2_hits, ss.l2_misses), (bs.l2_hits, bs.l2_misses));
        assert_eq!(
            (ss.dtlb_hits, ss.dtlb_misses, ss.prefetches),
            (bs.dtlb_hits, bs.dtlb_misses, bs.prefetches)
        );
        // Follow-up accesses observe identical cache contents.
        for i in 0..48u64 {
            let addr = (i % 7) * 2048 + i * 128;
            assert_eq!(scalar.l1().contains(addr), batched.l1().contains(addr));
            assert_eq!(scalar.l2().contains(addr), batched.l2().contains(addr));
        }
    }

    #[test]
    fn batched_hit_is_free_and_miss_is_not() {
        let mut m = p4();
        let probe = [BatchAccess {
            addr: 0x2000,
            size: 8,
            kind: AccessKind::Read,
        }];
        let mut outs = Vec::new();
        m.access_batch(&probe, &mut outs);
        assert!(outs[0].l1_miss && outs[0].dtlb_miss);
        assert_eq!(outs[0].cycles, 2 + 18 + 200 + 30, "cold miss pays in full");
        m.access_batch(&probe, &mut outs);
        assert_eq!(outs[1].cycles, 0, "warm batched hit is overlapped");
        // The scalar path still charges the serial L1 hit latency.
        assert_eq!(m.access(0x2000, 8, AccessKind::Read).cycles, 2);
    }
}
