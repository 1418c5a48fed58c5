//! Seeded primitives shared by the whole workspace, one copy each.
//!
//! - [`Rng`]: the SplitMix64 generator. It re-randomizes the PEBS
//!   interval's low bits, drives program generation in the stress
//!   engine, and seeds every property test.
//! - [`fnv1a`] and [`Fnv1a`]: the 64-bit FNV-1a hash behind the profile
//!   checksum, the workload fingerprint and the VM's state digest.
//!
//! Every output is pinned somewhere downstream (stress digests, profile
//! bytes, benchmark job mixes), so neither may change a single bit.

mod fnv;
mod rng;

pub use fnv::{fnv1a, Fnv1a};
pub use rng::Rng;
