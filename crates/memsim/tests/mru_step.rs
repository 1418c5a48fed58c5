//! The MRU step is exact: a hierarchy that tries
//! [`MemoryHierarchy::try_mru_hit`] before each access and plays only
//! the accesses it declines through `access_pipelined` must stay equal,
//! outcome by outcome and state by state, to one that plays every
//! access through `access_pipelined`.

use hpmopt_memsim::{AccessKind, AccessOutcome, MemConfig, MemoryHierarchy};
use hpmopt_prim::Rng;

/// Uniform in `0..n`.
fn below(rng: &mut Rng, n: u64) -> u64 {
    rng.next_u64() % n
}

#[test]
fn the_mru_step_matches_the_full_path_at_every_access() {
    for seed in 0..4u64 {
        let mut rng = Rng::new(0x3e_5eed ^ seed);
        let mut stepped = MemoryHierarchy::new(MemConfig::pentium4());
        let mut full = MemoryHierarchy::new(MemConfig::pentium4());
        let mut stream = 0x4000_0000u64;
        let mut last = 0x10_0000u64;
        let (mut taken, mut declined_after_flush) = (0u32, 0u32);
        for step in 0..15_000u32 {
            // A flush leaves stale tags in every first slot; the access
            // after it repeats the previous one, whose line and page
            // those stale slots still name.
            let flushed = below(&mut rng, 500) == 0;
            if flushed {
                stepped.flush();
                full.flush();
            }
            let addr = if flushed {
                last
            } else {
                match below(&mut rng, 20) {
                    // The previous line again, at another word.
                    0..=5 => (last & !127) + below(&mut rng, 16) * 8,
                    // A hot set of 8 lines in one page.
                    6..=10 => 0x10_0000 + below(&mut rng, 128) * 8,
                    // L2-resident lines, over more pages than the DTLB holds.
                    11..=13 => 0x200_0000 + below(&mut rng, 512 * 1024),
                    // A sequential stream the prefetcher confirms.
                    14..=16 => {
                        stream += 128;
                        stream
                    }
                    // Random misses.
                    _ => below(&mut rng, 64 << 20),
                }
            } & !7;
            last = addr;
            let kind = if below(&mut rng, 3) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };

            let hit = stepped.try_mru_hit(addr, kind);
            let got = if hit {
                taken += 1;
                AccessOutcome::default()
            } else {
                declined_after_flush += u32::from(flushed);
                stepped.access_pipelined(addr, 8, kind)
            };
            let want = full.access_pipelined(addr, 8, kind);
            let at = || format!("seed {seed} step {step} addr {addr:#x} {kind:?}");
            assert_eq!(got, want, "{}", at());
            assert_eq!(stepped.stats(), full.stats(), "{}", at());
            // Residency and recency order of every L1, L2, DTLB and
            // prefetch-stream slot.
            assert!(stepped == full, "hierarchies diverge at {}", at());
        }
        let s = full.stats();
        assert!(
            u64::from(taken) * 4 > s.accesses,
            "seed {seed}: the step served only {taken} of {} accesses",
            s.accesses
        );
        assert!(s.l1_misses > 0 && s.l2_hits > 0 && s.l2_misses > 0, "{s:?}");
        assert!(
            s.dtlb_misses > 0 && s.prefetches > 0 && s.writes > 0,
            "{s:?}"
        );
        assert!(
            declined_after_flush > 0,
            "seed {seed}: no stale first slot was declined"
        );
    }
}
