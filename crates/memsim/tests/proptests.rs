//! Properties of the memory-hierarchy simulator, checked over seeded
//! random inputs (each case is reproducible from its seed).

use hpmopt_memsim::{AccessKind, Cache, CacheGeometry, MemConfig, MemoryHierarchy, Tlb};
use hpmopt_prim::Rng;

/// Cases per property.
const CASES: u64 = 256;

/// Uniform in `lo..hi` by `next % (hi - lo)`: the reduction these
/// streams were recorded with (`Rng::range` is inclusive and reduces
/// by multiply-shift instead).
fn range(rng: &mut Rng, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo)
}

/// Between `min_len` and `max_len - 1` addresses, each below `limit`.
fn addrs(rng: &mut Rng, limit: u64, min_len: u64, max_len: u64) -> Vec<u64> {
    let n = range(rng, min_len, max_len);
    (0..n).map(|_| range(rng, 0, limit)).collect()
}

/// Immediately re-accessing any address hits L1 regardless of history.
#[test]
fn repeat_access_always_hits() {
    for seed in 0..CASES {
        let addrs = addrs(&mut Rng::new(seed), 1 << 30, 1, 200);
        let mut mem = MemoryHierarchy::new(MemConfig::pentium4());
        for a in addrs {
            let aligned = a & !7;
            mem.access(aligned, 8, AccessKind::Read);
            let again = mem.access(aligned, 8, AccessKind::Read);
            assert!(!again.l1_miss, "seed {seed}, addr {aligned:#x}");
            assert!(!again.dtlb_miss, "seed {seed}, addr {aligned:#x}");
        }
    }
}

/// Cache hits + misses always equals demand accesses, and an L2 miss
/// implies an L1 miss.
#[test]
fn stats_are_consistent() {
    for seed in 0..CASES {
        let addrs = addrs(&mut Rng::new(seed), 1 << 26, 1, 500);
        let mut mem = MemoryHierarchy::new(MemConfig::pentium4());
        for a in &addrs {
            let out = mem.access(a & !7, 8, AccessKind::Write);
            assert!(
                out.l1_miss || !out.l2_miss,
                "seed {seed}: L2 miss without L1 miss"
            );
        }
        let s = mem.stats();
        assert_eq!(s.accesses, addrs.len() as u64, "seed {seed}");
        assert_eq!(s.l1_hits + s.l1_misses, s.accesses, "seed {seed}");
        assert!(s.l2_misses <= s.l1_misses, "seed {seed}");
        assert!(s.l1_misses <= s.accesses, "seed {seed}");
    }
}

/// A cache never holds more lines than its capacity, for arbitrary
/// (power-of-two) geometry.
#[test]
fn residency_never_exceeds_capacity() {
    let mut checked = 0;
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let size = 1u64 << range(&mut rng, 8, 16);
        let line = 1u64 << range(&mut rng, 5, 8);
        let assoc = 1usize << range(&mut rng, 0, 4);
        if size < line * assoc as u64 {
            continue;
        }
        checked += 1;
        let mut c = Cache::new(CacheGeometry::new(size, line, assoc));
        for a in addrs(&mut rng, 1 << 22, 1, 400) {
            c.access(a);
            assert!(
                c.resident_lines() as u64 <= size / line,
                "seed {seed}: {size} B, {line} B lines, {assoc} ways"
            );
        }
    }
    assert!(checked > CASES / 2, "most drawn geometries are valid");
}

/// LRU inside a set: after touching `assoc` distinct lines of one set,
/// the first-touched line is the one evicted by a new line. Checked on
/// every set of the Pentium 4 L1.
#[test]
fn lru_evicts_least_recent() {
    for set_index in 0..16u64 {
        let mut c = Cache::new(CacheGeometry::new(16 * 1024, 128, 8));
        let stride = 128 * 16; // same set every 16 lines
        let base = set_index * 128;
        for way in 0..8u64 {
            c.access(base + way * stride);
        }
        // Touch ways 1..8 again so way 0 is LRU.
        for way in 1..8u64 {
            c.access(base + way * stride);
        }
        c.access(base + 8 * stride); // evicts way 0
        assert!(!c.contains(base), "set {set_index}");
        for way in 1..=8u64 {
            assert!(
                c.contains(base + way * stride),
                "set {set_index}, way {way}"
            );
        }
    }
}

/// The TLB is deterministic: the same trace gives the same hit count.
#[test]
fn tlb_deterministic() {
    for seed in 0..CASES {
        let addrs = addrs(&mut Rng::new(seed), 1 << 30, 1, 300);
        let run = |addrs: &[u64]| {
            let mut t = Tlb::new(64, 4096);
            for &a in addrs {
                t.access(a);
            }
            (t.hits(), t.misses())
        };
        assert_eq!(run(&addrs), run(&addrs), "seed {seed}");
    }
}

/// Latency is bounded by the sum of worst-case penalties.
#[test]
fn latency_is_bounded() {
    let cfg = MemConfig::pentium4();
    let lat = cfg.latency;
    let worst = lat.l1_hit + lat.l2_hit + lat.memory + lat.tlb_miss;
    for seed in 0..CASES {
        let mut mem = MemoryHierarchy::new(cfg.clone());
        for a in addrs(&mut Rng::new(seed), 1 << 30, 1, 200) {
            let out = mem.access(a & !7, 8, AccessKind::Read);
            assert!(out.cycles >= lat.l1_hit, "seed {seed}");
            assert!(out.cycles <= worst, "seed {seed}");
        }
    }
}
