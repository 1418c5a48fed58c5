//! Differential oracle for the cache and TLB structures.
//!
//! `RefCache` and `RefTlb` below are the simulator's original
//! structures: one `Vec` per set holding resident lines most recently
//! used first, updated with `remove` + `insert(0)`. They are kept here
//! only as a reference model. The shipped flat-array `Cache` and `Tlb`
//! must agree with them on every return value and every counter, step
//! by step, over seeded streams that interleave every operation.

use hpmopt_memsim::{
    AccessKind, BatchAccess, Cache, CacheGeometry, MemConfig, MemoryHierarchy, Tlb,
};

/// SplitMix64: a seeded stream of well-mixed `u64`s.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The original set-associative cache: per set, a `Vec` of resident
/// line addresses, most recently used first.
struct RefCache {
    line_bytes: u64,
    assoc: usize,
    sets: Vec<Vec<u64>>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RefCache {
    fn new(g: CacheGeometry) -> Self {
        RefCache {
            line_bytes: g.line_bytes(),
            assoc: g.associativity(),
            sets: vec![Vec::with_capacity(g.associativity()); g.sets() as usize],
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn line_and_set(&self, addr: u64) -> (u64, usize) {
        let line = addr & !(self.line_bytes - 1);
        let set = ((addr / self.line_bytes) & (self.sets.len() as u64 - 1)) as usize;
        (line, set)
    }

    fn access(&mut self, addr: u64) -> bool {
        let (line, set) = self.line_and_set(addr);
        let set = &mut self.sets[set];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            let l = set.remove(pos);
            set.insert(0, l);
            self.hits += 1;
            true
        } else {
            if set.len() == self.assoc {
                set.pop();
                self.evictions += 1;
            }
            set.insert(0, line);
            self.misses += 1;
            false
        }
    }

    fn fill_prefetch(&mut self, addr: u64) {
        let (line, set) = self.line_and_set(addr);
        let set = &mut self.sets[set];
        if set.contains(&line) {
            return;
        }
        if set.len() == self.assoc {
            set.pop();
            self.evictions += 1;
        }
        set.push(line);
    }

    fn contains(&self, addr: u64) -> bool {
        let (line, set) = self.line_and_set(addr);
        self.sets[set].contains(&line)
    }

    fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// The original fully associative TLB: resident page numbers, most
/// recently used first.
struct RefTlb {
    entries: usize,
    page_shift: u32,
    pages: Vec<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RefTlb {
    fn new(entries: usize, page_bytes: u64) -> Self {
        RefTlb {
            entries,
            page_shift: page_bytes.trailing_zeros(),
            pages: Vec::with_capacity(entries),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let page = addr >> self.page_shift;
        if let Some(pos) = self.pages.iter().position(|&p| p == page) {
            let p = self.pages.remove(pos);
            self.pages.insert(0, p);
            self.hits += 1;
            true
        } else {
            if self.pages.len() == self.entries {
                self.pages.pop();
                self.evictions += 1;
            }
            self.pages.insert(0, page);
            self.misses += 1;
            false
        }
    }

    fn flush(&mut self) {
        self.pages.clear();
    }
}

/// An address drawn mostly from a window a few times the structure's
/// reach (so hits, conflicts and evictions all occur), sometimes from
/// a small hot set, sometimes anywhere.
fn draw_addr(rng: &mut Rng, reach: u64) -> u64 {
    match rng.below(10) {
        0..=5 => rng.below(4 * reach),
        6..=8 => rng.below(reach / 4 + 1),
        _ => rng.next() >> 20,
    }
}

#[test]
fn cache_matches_reference_model_at_every_step() {
    // 1-way (direct mapped), 2-way, 8-way (the Pentium 4 L1), and one
    // fully associative 8-way set.
    let geometries = [
        CacheGeometry::new(1024, 64, 1),
        CacheGeometry::new(1024, 64, 2),
        CacheGeometry::new(16 * 1024, 128, 8),
        CacheGeometry::new(512, 64, 8),
    ];
    for g in geometries {
        for seed in 0..4u64 {
            let mut rng = Rng(seed ^ g.size_bytes() ^ (g.associativity() as u64) << 32);
            let mut flat = Cache::new(g);
            let mut reference = RefCache::new(g);
            for step in 0..20_000 {
                let addr = draw_addr(&mut rng, g.size_bytes());
                let ctx = || format!("{g:?} seed {seed} step {step} addr {addr:#x}");
                match rng.below(100) {
                    0..=69 => assert_eq!(flat.access(addr), reference.access(addr), "{}", ctx()),
                    70..=84 => {
                        flat.fill_prefetch(addr);
                        reference.fill_prefetch(addr);
                    }
                    85..=98 => {
                        assert_eq!(flat.contains(addr), reference.contains(addr), "{}", ctx());
                    }
                    _ => {
                        flat.flush();
                        reference.flush();
                    }
                }
                assert_eq!(
                    (flat.hits(), flat.misses(), flat.evictions()),
                    (reference.hits, reference.misses, reference.evictions),
                    "{}",
                    ctx()
                );
                assert_eq!(
                    flat.resident_lines(),
                    reference.resident_lines(),
                    "{}",
                    ctx()
                );
            }
        }
    }
}

#[test]
fn tlb_matches_reference_model_at_every_step() {
    for entries in [1usize, 4, 64] {
        for seed in 0..4u64 {
            let mut rng = Rng(seed ^ (entries as u64) << 40);
            let mut flat = Tlb::new(entries, 4096);
            let mut reference = RefTlb::new(entries, 4096);
            let reach = entries as u64 * 4096;
            for step in 0..20_000 {
                let addr = draw_addr(&mut rng, reach);
                if rng.below(200) == 0 {
                    flat.flush();
                    reference.flush();
                } else {
                    assert_eq!(
                        flat.access(addr),
                        reference.access(addr),
                        "{entries} entries, seed {seed}, step {step}, addr {addr:#x}"
                    );
                }
                assert_eq!(
                    (flat.hits(), flat.misses(), flat.evictions()),
                    (reference.hits, reference.misses, reference.evictions),
                    "{entries} entries, seed {seed}, step {step}"
                );
            }
        }
    }
}

/// FNV-1a over 64-bit words.
fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0100_0000_01b3)
}

/// Every `access_batch` outcome and the final `stats()` of a Pentium 4
/// hierarchy over a seeded stream (hot lines, L2-resident lines,
/// sequential streams the prefetcher confirms, random misses, and the
/// occasional GC flush), folded into one digest.
#[test]
fn pentium4_batch_digest_is_pinned() {
    let mut rng = Rng(0x5eed);
    let mut mem = MemoryHierarchy::new(MemConfig::pentium4());
    let mut outs = Vec::new();
    let mut batch = Vec::new();
    let mut stream = 0x4000_0000u64;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..8_000u64 {
        batch.clear();
        for _ in 0..=rng.below(32) {
            let addr = match rng.below(10) {
                0..=3 => 0x10_0000 + rng.below(64) * 8,
                4..=5 => 0x200_0000 + rng.below(512 * 1024),
                6..=7 => {
                    stream += 128;
                    stream
                }
                _ => rng.below(64 << 20),
            };
            let kind = if rng.below(3) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            batch.push(BatchAccess {
                addr: addr & !7,
                size: 8,
                kind,
            });
        }
        outs.clear();
        mem.access_batch(&batch, &mut outs);
        for o in &outs {
            let flags =
                u64::from(o.l1_miss) | u64::from(o.l2_miss) << 1 | u64::from(o.dtlb_miss) << 2;
            h = fold(fold(h, o.cycles), flags);
        }
        if round % 2_500 == 2_499 {
            mem.flush();
        }
    }
    let s = mem.stats();
    for x in [
        s.accesses,
        s.reads,
        s.writes,
        s.l1_hits,
        s.l1_misses,
        s.l1_evictions,
        s.l2_hits,
        s.l2_misses,
        s.l2_evictions,
        s.dtlb_hits,
        s.dtlb_misses,
        s.dtlb_evictions,
        s.prefetches,
        s.cycles,
    ] {
        h = fold(h, x);
    }
    // Recorded on the Vec-per-set structures this file keeps as its
    // reference model.
    assert_eq!(
        (s.accesses, h),
        (130_978, 15_379_423_512_989_334_046),
        "{s:?}"
    );
}
