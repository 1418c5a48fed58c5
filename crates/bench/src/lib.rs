//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 6).
//!
//! Each experiment module produces both machine-readable data and the
//! formatted text the `experiments` binary prints:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — benchmark programs |
//! | [`table2`] | Table 2 — space overhead of machine-code maps |
//! | [`fig2`]   | Figure 2 — sampling overhead vs. interval |
//! | [`fig3`]   | Figure 3 — co-allocated objects vs. interval |
//! | [`fig4`]   | Figure 4 — L1 miss reduction with co-allocation |
//! | [`fig5`]   | Figure 5 — execution time across heap sizes |
//! | [`fig6`]   | Figure 6 — GenCopy vs. GenMS+co-allocation on `db` |
//! | [`fig7`]   | Figure 7 — per-field miss series for `db` |
//! | [`fig8`]   | Figure 8 — bad placement detected and reverted |
//! | [`ablations`] | beyond the paper: map extension, event choice, prefetcher |
//! | [`warmstart`] | beyond the paper: profile-repository warm start on `db` |
//! | [`trajectory`] | beyond the paper: perf-trajectory baseline + CI gate |
//!
//! # Scaling
//!
//! The paper's programs run for minutes on a 3 GHz machine (~10¹¹ cycles
//! and ~10⁹ cache misses); the simulated workloads run for ~10⁸ cycles
//! with ~10⁶ misses. All sampling parameters are therefore scaled to keep
//! *samples per run* proportional: the paper's 25 K / 50 K / 100 K event
//! intervals map to 2 K / 4 K / 8 K here, and the auto mode targets
//! proportionally more samples per simulated second. `EXPERIMENTS.md` at
//! the repository root records this mapping alongside the measured
//! results.

pub mod ablations;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fmt;
pub mod table1;
pub mod table2;
pub mod trajectory;
pub mod warmstart;

/// The shared run configuration, re-exported from `hpmopt-workloads`.
pub use hpmopt_workloads::setup;

/// The simulated-scale sampling intervals standing in for the paper's
/// 25 K / 50 K / 100 K, with their display labels.
pub const INTERVALS: [(u64, &str); 3] = [(2048, "25K"), (4096, "50K"), (8192, "100K")];

/// Heap-size multipliers used by the heap sweeps (Figures 5 and 6).
pub const HEAP_MULTS: [(u64, u64, &str); 5] = [
    (1, 1, "1x"),
    (3, 2, "1.5x"),
    (2, 1, "2x"),
    (3, 1, "3x"),
    (4, 1, "4x"),
];
