//! Tiered JIT compilation: code artifacts, tier management, and a
//! capacity-bounded, evicting code cache.
//!
//! This crate owns everything about compiled code as a *mutable*
//! resource:
//!
//! - [`code`] — the [`CompiledCode`] artifact and its machine-code map
//!   ([`McMap`]), one definition for both the VM and the attribution
//!   pipeline (the vm crate re-exports them at its root).
//! - [`tier`] — the [`TierManager`], which replaces the old binary
//!   baseline/opt adaptive-optimization split with execution-count-driven
//!   tiers: a timer-sample threshold promotes a method to the optimizing
//!   tier (tier 1, exactly the Jikes AOS behaviour the paper relies on),
//!   and a back-edge block-count threshold promotes hot block sequences
//!   to region compilation (tier 2) with deoptimization back to baseline
//!   when execution leaves the region.
//! - [`cache`] — the [`CodeCache`]: unbounded bump allocation by default
//!   (bit-for-bit the legacy immortal code space), or a capacity-bounded
//!   mode that frees, evicts (LRU by last-sampled cycle), and *reuses*
//!   code-address ranges. Every free bumps a global **code epoch**;
//!   samples stamped with an older epoch that resolve into a retired
//!   range are counted and dropped, never misattributed.

pub mod cache;
pub mod code;
pub mod tier;

pub use cache::{CodeCache, FreedRange};
pub use code::{CompiledCode, McMap, Tier, GCMAP_ENTRY_BYTES, MCMAP_ENTRY_BYTES};
pub use tier::{CompilationPlan, JitConfig, TierManager};

/// Bytes per simulated machine instruction.
pub const MACH_INSTR_BYTES: u64 = 4;
