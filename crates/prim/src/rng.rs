//! Deterministic pseudo-random numbers.
//!
//! SplitMix64: tiny, dependency-free, and with good enough statistical
//! behaviour to diversify program shapes and sampling intervals. Every
//! user derives all of its randomness from a single `u64` seed, so a
//! stress scenario is fully identified by `(seed, knobs)` and replays
//! bit-identically.

/// SplitMix64 generator state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seed a generator. Distinct seeds (including 0) give distinct,
    /// well-mixed streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` ≥ 1).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound >= 1);
        // Multiply-shift reduction; the modulo bias is irrelevant here.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    /// A derived generator for an independent sub-stream (e.g. one per
    /// generated method), so inserting a draw in one place does not
    /// reshuffle every later decision.
    pub fn fork(&mut self, label: u64) -> Rng {
        Rng(self.next_u64() ^ label.wrapping_mul(0x2545_f491_4f6c_dd1d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(Rng::new(2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
        }
    }
}
