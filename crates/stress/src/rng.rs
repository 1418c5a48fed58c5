//! The scenario generator's random numbers: [`hpmopt_prim::Rng`].
//!
//! This path stays because `perfbench/src/serve_mix.rs` imports
//! `hpmopt_stress::rng::Rng` to draw serve-mix's job mix, and perfbench
//! changes only together with the benchmark it defines. Its `new`,
//! `fork` and `below` streams must stay bit-identical.

pub use hpmopt_prim::Rng;
