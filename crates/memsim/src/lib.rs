//! Deterministic memory-hierarchy simulator for the hpmopt runtime.
//!
//! Models the machine of the paper's evaluation (Section 6.1): a 3 GHz
//! Pentium 4 with a 16 KB L1 data cache, a 1 MB unified L2, 128-byte cache
//! lines, a data TLB, and a hardware stream prefetcher. The simulator is
//! the stand-in for the real memory system: every heap access the VM
//! executes is played through [`MemoryHierarchy::access_pipelined`] as
//! it issues, which returns the latency in cycles and the set of
//! performance *events* (L1 miss, L2 miss, DTLB miss) the access
//! raised. Those events are what the PEBS-style sampling unit in
//! `hpmopt-hpm` samples.
//!
//! Everything is deterministic: same access stream, same outcomes.
//!
//! # Example
//!
//! ```
//! use hpmopt_memsim::{AccessKind, MemoryHierarchy, MemConfig};
//!
//! let mut mem = MemoryHierarchy::new(MemConfig::pentium4());
//! let cold = mem.access(0x1_0000, 8, AccessKind::Read);
//! assert!(cold.l1_miss && cold.l2_miss);
//! let warm = mem.access(0x1_0008, 8, AccessKind::Read);
//! assert!(!warm.l1_miss, "same 128-byte line is now resident");
//! assert!(warm.cycles < cold.cycles);
//! ```

pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod prefetch;
pub mod tlb;

pub use cache::{Cache, CacheGeometry};
pub use config::{LatencyModel, MemConfig};
pub use hierarchy::{AccessKind, AccessOutcome, BatchAccess, MemStats, MemoryHierarchy};
pub use prefetch::StreamPrefetcher;
pub use tlb::Tlb;

/// A hardware performance event a memory access can raise.
///
/// The P4's PEBS unit can be programmed for exactly one of these at a time
/// (Section 3.1 of the paper), a restriction `hpmopt-hpm` preserves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EventKind {
    /// L1 data-cache miss (the event driving the co-allocation optimization).
    #[default]
    L1DMiss,
    /// Unified L2 miss.
    L2Miss,
    /// Data-TLB miss.
    DtlbMiss,
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventKind::L1DMiss => f.write_str("L1D_MISS"),
            EventKind::L2Miss => f.write_str("L2_MISS"),
            EventKind::DtlbMiss => f.write_str("DTLB_MISS"),
        }
    }
}

impl EventKind {
    /// All selectable events.
    #[must_use]
    pub const fn all() -> [EventKind; 3] {
        [EventKind::L1DMiss, EventKind::L2Miss, EventKind::DtlbMiss]
    }
}
