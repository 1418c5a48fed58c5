//! A hasher for maps keyed by integers (addresses, ids).
//!
//! `std`'s default SipHash resists hash flooding, which no input here
//! can mount, and costs a few dozen cycles per `u64` key. This is the
//! rotate-xor-multiply step of rustc's FxHasher: one multiply per word.
//! It is not seeded, so iteration order is the same in every process;
//! callers still never depend on it (they probe, or drain sorted).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (rustc's FxHasher constant).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Rotate-xor-multiply hasher for integer keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    /// The product's high bits are the well-mixed ones, and the table
    /// indexes by the low bits (which, for 8-byte-aligned addresses,
    /// the multiply alone leaves zero): rotate them down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// [`std::hash::BuildHasher`] for [`IntHasher`].
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` keyed by integers, hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, IntBuildHasher>;

/// A `HashSet` of integers, hashed with [`IntHasher`].
pub type IntSet<T> = HashSet<T, IntBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        IntBuildHasher::default().hash_one(v)
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // 8-byte-aligned addresses must not all land in every eighth
        // bucket: the low three bits of their hashes take every value.
        let mut seen = [false; 8];
        for i in 0..64u64 {
            seen[(hash(0x1000_0000 + 8 * i) & 7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_ne!(hash(8u64), hash(16u64));
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: IntMap<u64, u64> = IntMap::default();
        let mut s: IntSet<u64> = IntSet::default();
        for i in 0..1000u64 {
            m.insert(i * 8, i);
            s.insert(i * 8);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u64).all(|i| m[&(i * 8)] == i && s.contains(&(i * 8))));
        assert!(!s.contains(&4));
    }
}
