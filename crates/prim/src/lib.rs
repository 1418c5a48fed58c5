//! Seeded primitives shared by the whole workspace, one copy each.
//!
//! - [`Rng`]: the SplitMix64 generator. It re-randomizes the PEBS
//!   interval's low bits, drives program generation in the stress
//!   engine, and seeds every property test.
//! - [`fnv1a`] and [`Fnv1a`]: the 64-bit FNV-1a hash behind the profile
//!   checksum, the workload fingerprint and the VM's state digest.
//! - [`IntHasher`] (with [`IntMap`] and [`IntSet`]): the integer-key
//!   hasher behind the collector's address maps and the state digest's
//!   visit order.
//!
//! Every output of the first two is pinned somewhere downstream (stress
//! digests, profile bytes, benchmark job mixes), so neither may change a
//! single bit. The hasher only places keys in a table; no result
//! depends on its values.

mod fnv;
mod inthash;
mod rng;

pub use fnv::{fnv1a, Fnv1a};
pub use inthash::{IntBuildHasher, IntHasher, IntMap, IntSet};
pub use rng::Rng;
