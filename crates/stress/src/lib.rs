//! Deterministic stress and differential-testing engine.
//!
//! This crate closes the loop the paper's evaluation methodology relies
//! on but cannot automate by hand: that the monitored, optimizing,
//! co-allocating runtime is *observationally identical* to the plain
//! interpreter. It generates random-but-reproducible guest programs
//! ([`genprog`]), runs each through five differential arms with
//! invariant oracles ([`oracles`]), fans seeds out across worker threads
//! with a merge whose report is independent of the worker count
//! ([`shard`]), and shrinks any failure to a minimal, committable
//! reproducer ([`shrink`](mod@shrink), [`scenario`]).
//!
//! The `hpmopt-stress` binary exposes the engine as `run`, `replay`, and
//! `shrink` subcommands; `tests/corpus/` at the workspace root holds the
//! regression case files it has produced.

pub mod genprog;
pub mod oracles;
pub mod pool;
pub mod rng;
pub mod scenario;
pub mod shard;
pub mod shrink;

pub use genprog::{generate, GeneratedProgram, ShapeKnobs};
pub use oracles::{run_scenario, ScenarioOutcome};
pub use scenario::{Expect, Scenario};
pub use shard::{run_shards, RunnerConfig, ShardReport};
pub use shrink::{shrink, ShrinkResult};
