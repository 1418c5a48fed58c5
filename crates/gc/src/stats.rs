//! Collection statistics and the GC cycle-cost model.

/// Cycle costs charged for collector work.
///
/// The simulation charges GC work to the global cycle clock through this
/// model instead of playing collector traffic through the cache simulator
/// (whose state is simply flushed after a collection — a full-heap walk
/// evicts everything anyway). Only relative magnitudes matter; the
/// defaults make copying collections more expensive per byte than
/// mark-sweep, reproducing GenCopy's higher GC cost at small heaps
/// (Figure 6, \[9\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcCostModel {
    /// Fixed cost of any collection (stack scan, bookkeeping).
    pub collection_base: u64,
    /// Per root slot examined.
    pub per_root: u64,
    /// Per object promoted/copied.
    pub per_object: u64,
    /// Per byte copied (minor promotion and GenCopy major).
    pub per_copied_byte: u64,
    /// Per object visited in a mark phase.
    pub per_marked_object: u64,
    /// Per cell examined in a sweep phase.
    pub per_swept_cell: u64,
}

impl Default for GcCostModel {
    fn default() -> Self {
        GcCostModel {
            collection_base: 50_000,
            per_root: 10,
            per_object: 40,
            per_copied_byte: 1,
            per_marked_object: 25,
            per_swept_cell: 8,
        }
    }
}

/// Counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Nursery (minor) collections performed.
    pub minor_collections: u64,
    /// Full-heap (major) collections performed.
    pub major_collections: u64,
    /// Objects promoted to the mature space.
    pub objects_promoted: u64,
    /// Bytes promoted to the mature space.
    pub bytes_promoted: u64,
    /// Objects placed by the co-allocation optimization (children
    /// co-located with their parent).
    pub objects_coallocated: u64,
    /// Bytes moved by co-allocating promotions (parent + child pairs).
    pub bytes_coallocated: u64,
    /// Objects allocated, all spaces.
    pub objects_allocated: u64,
    /// Bytes allocated, all spaces.
    pub bytes_allocated: u64,
    /// Large objects allocated.
    pub large_objects: u64,
    /// Cycles charged for collector work.
    pub gc_cycles: u64,
}

impl GcStats {
    /// Total collections of either kind.
    #[must_use]
    pub fn total_collections(&self) -> u64 {
        self.minor_collections + self.major_collections
    }

    /// Average bytes per promoted object (0 when nothing was promoted).
    #[must_use]
    pub fn avg_promoted_size(&self) -> f64 {
        if self.objects_promoted == 0 {
            0.0
        } else {
            self.bytes_promoted as f64 / self.objects_promoted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_make_copying_costly() {
        let c = GcCostModel::default();
        assert!(c.per_copied_byte >= 1);
        assert!(c.per_object > c.per_swept_cell);
    }

    #[test]
    fn stats_helpers() {
        let s = GcStats {
            minor_collections: 3,
            major_collections: 1,
            objects_promoted: 4,
            bytes_promoted: 128,
            ..GcStats::default()
        };
        assert_eq!(s.total_collections(), 4);
        assert!((s.avg_promoted_size() - 32.0).abs() < f64::EPSILON);
        assert_eq!(GcStats::default().avg_promoted_size(), 0.0);
    }
}
