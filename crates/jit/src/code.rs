//! Compiled-code artifacts and machine-code maps.
//!
//! A [`CompiledCode`] is what a compilation tier produces for one method:
//! a contiguous range of machine instructions at concrete code addresses,
//! per-bytecode instruction counts (the cycle cost model), and the
//! machine-code map used to translate a sampled PC back to a bytecode
//! index (Section 4.2 of the paper).
//!
//! Everything but the start address depends only on the method and the
//! tier, so an artifact keeps its counts and maps behind one shared
//! [`Arc`]: a clone copies no vector, and
//! [`CompiledCode::relocated`] lays the same code out at another start.

use std::sync::Arc;

use hpmopt_bytecode::MethodId;

use crate::MACH_INSTR_BYTES;

/// Compilation tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tier {
    /// Quick, unoptimized compilation (every method starts here).
    #[default]
    Baseline,
    /// The optimizing compiler (applied to hot methods at tier 1).
    Opt,
    /// Region compilation over the method's hot block sequence (tier 2);
    /// bytecodes outside the region deoptimize back to baseline.
    Region,
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tier::Baseline => f.write_str("baseline"),
            Tier::Opt => f.write_str("opt"),
            Tier::Region => f.write_str("region"),
        }
    }
}

/// Machine-code map: machine-instruction index → bytecode index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McMap {
    /// One entry per machine instruction (baseline code always has this;
    /// opt code gains it through the paper's compiler extension).
    Full(Vec<u32>),
    /// Entries only at GC points (the stock Jikes opt-compiler behaviour);
    /// sampled PCs between GC points cannot be attributed.
    GcPointsOnly(Vec<(u32, u32)>),
}

/// Bytes per full-map entry (packed machine-offset → bytecode-index).
pub const MCMAP_ENTRY_BYTES: u64 = 6;

/// Bytes per GC-map entry (bytecode index plus a reference map).
pub const GCMAP_ENTRY_BYTES: u64 = 12;

impl McMap {
    /// Bytecode index for machine instruction `mach_idx`, if mapped.
    #[must_use]
    pub fn lookup(&self, mach_idx: u32) -> Option<u32> {
        match self {
            McMap::Full(v) => v.get(mach_idx as usize).copied(),
            McMap::GcPointsOnly(v) => v
                .binary_search_by_key(&mach_idx, |&(m, _)| m)
                .ok()
                .map(|i| v[i].1),
        }
    }

    /// Size of this map in bytes (Table 2 accounting).
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        match self {
            McMap::Full(v) => v.len() as u64 * MCMAP_ENTRY_BYTES,
            McMap::GcPointsOnly(v) => v.len() as u64 * MCMAP_ENTRY_BYTES,
        }
    }
}

/// The part of an artifact that does not depend on where it is placed.
#[derive(Debug)]
struct Layout {
    /// Machine-instruction count of each bytecode, as a cumulative sum:
    /// bytecode `i` occupies machine instructions
    /// `bc_end[i-1]..bc_end[i]` (with `bc_end[-1] = 0`).
    bc_end: Vec<u32>,
    /// PC → bytecode translation map, indexed from the code start.
    mc_map: McMap,
    /// Machine indices of GC points (allocations and calls); sized like
    /// the stock GC maps for the space comparison in Table 2.
    gc_points: Vec<u32>,
}

/// The compiled artifact for one method at one tier.
#[derive(Debug, Clone)]
pub struct CompiledCode {
    /// The method this code implements.
    pub method: MethodId,
    /// Tier that produced it.
    pub tier: Tier,
    /// First code address.
    pub code_start: u64,
    /// Code epoch at install time. The epoch advances every time the code
    /// cache frees a range; a sample stamped with an older epoch cannot be
    /// attributed to this artifact (its PC may belong to whatever occupied
    /// the range before). Always 0 with an unbounded cache, which never
    /// frees.
    pub install_epoch: u64,
    /// Counts and maps, shared by every clone and relocation.
    layout: Arc<Layout>,
}

impl CompiledCode {
    /// Assemble an artifact from per-bytecode machine-instruction counts.
    #[must_use]
    pub fn new(
        method: MethodId,
        tier: Tier,
        code_start: u64,
        counts: &[u32],
        mc_map: McMap,
        gc_points: Vec<u32>,
    ) -> Self {
        let mut bc_end = Vec::with_capacity(counts.len());
        let mut total = 0;
        for &c in counts {
            total += c;
            bc_end.push(total);
        }
        CompiledCode {
            method,
            tier,
            code_start,
            install_epoch: 0,
            layout: Arc::new(Layout {
                bc_end,
                mc_map,
                gc_points,
            }),
        }
    }

    /// The same code laid out at `code_start`: it shares this artifact's
    /// counts and maps, and, like a new artifact, has install epoch 0.
    #[must_use]
    pub fn relocated(&self, code_start: u64) -> Self {
        CompiledCode {
            method: self.method,
            tier: self.tier,
            code_start,
            install_epoch: 0,
            layout: Arc::clone(&self.layout),
        }
    }

    /// PC → bytecode translation map.
    #[must_use]
    pub fn mc_map(&self) -> &McMap {
        &self.layout.mc_map
    }

    /// Machine indices of GC points (allocations and calls).
    #[must_use]
    pub fn gc_points(&self) -> &[u32] {
        &self.layout.gc_points
    }

    /// Total machine instructions.
    #[must_use]
    pub fn machine_len(&self) -> u32 {
        self.layout.bc_end.last().copied().unwrap_or(0)
    }

    /// Machine-code size in bytes.
    #[must_use]
    pub fn machine_code_bytes(&self) -> u64 {
        u64::from(self.machine_len()) * MACH_INSTR_BYTES
    }

    /// One past the last code address.
    #[must_use]
    pub fn code_end(&self) -> u64 {
        self.code_start + self.machine_code_bytes()
    }

    /// Number of machine instructions lowered for bytecode `bc`.
    #[must_use]
    pub fn mach_count(&self, bc: usize) -> u32 {
        let bc_end = &self.layout.bc_end;
        let end = bc_end[bc];
        let start = if bc == 0 { 0 } else { bc_end[bc - 1] };
        end - start
    }

    /// Machine address of the *last* machine instruction of bytecode `bc`
    /// — the one that performs the memory access for heap-access
    /// bytecodes; this is the PC a precise event sample reports.
    #[must_use]
    pub fn mem_pc(&self, bc: usize) -> u64 {
        let end = self.layout.bc_end[bc];
        debug_assert!(end > 0);
        self.code_start + u64::from(end - 1) * MACH_INSTR_BYTES
    }

    /// GC-map size in bytes (Table 2 accounting).
    #[must_use]
    pub fn gc_map_bytes(&self) -> u64 {
        self.gc_points().len() as u64 * GCMAP_ENTRY_BYTES
    }

    /// Translate a code address inside this artifact to a bytecode index.
    #[must_use]
    pub fn bytecode_at(&self, pc: u64) -> Option<u32> {
        if pc < self.code_start || pc >= self.code_end() {
            return None;
        }
        let mach_idx = ((pc - self.code_start) / MACH_INSTR_BYTES) as u32;
        self.mc_map().lookup(mach_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> CompiledCode {
        // 3 bytecodes lowered to 2, 3, 1 machine instructions.
        let counts = [2, 3, 1];
        let full: Vec<u32> = vec![0, 0, 1, 1, 1, 2];
        CompiledCode::new(
            MethodId(0),
            Tier::Baseline,
            0x4000_0000,
            &counts,
            McMap::Full(full),
            vec![4],
        )
    }

    #[test]
    fn cumulative_counts() {
        let c = artifact();
        assert_eq!(c.machine_len(), 6);
        assert_eq!(c.mach_count(0), 2);
        assert_eq!(c.mach_count(1), 3);
        assert_eq!(c.mach_count(2), 1);
        assert_eq!(c.machine_code_bytes(), 24);
    }

    #[test]
    fn mem_pc_is_last_instruction_of_bytecode() {
        let c = artifact();
        assert_eq!(c.mem_pc(0), 0x4000_0000 + 4);
        assert_eq!(c.mem_pc(1), 0x4000_0000 + 16);
    }

    #[test]
    fn full_map_translates_every_pc() {
        let c = artifact();
        assert_eq!(c.bytecode_at(0x4000_0000), Some(0));
        assert_eq!(c.bytecode_at(0x4000_0000 + 8), Some(1));
        assert_eq!(c.bytecode_at(0x4000_0000 + 20), Some(2));
        assert_eq!(c.bytecode_at(0x4000_0000 + 24), None, "past the end");
        assert_eq!(c.bytecode_at(0x3fff_fffc), None, "before the start");
    }

    #[test]
    fn gc_points_only_map_has_holes() {
        let m = McMap::GcPointsOnly(vec![(2, 1), (5, 3)]);
        assert_eq!(m.lookup(2), Some(1));
        assert_eq!(m.lookup(5), Some(3));
        assert_eq!(m.lookup(3), None);
    }

    #[test]
    fn full_map_lookup_out_of_range_is_none() {
        let m = McMap::Full(vec![0, 0, 1]);
        assert_eq!(m.lookup(0), Some(0));
        assert_eq!(m.lookup(2), Some(1));
        assert_eq!(m.lookup(3), None, "one past the last instruction");
        assert_eq!(m.lookup(u32::MAX), None);
    }

    #[test]
    fn gc_points_only_lookup_out_of_range_is_none() {
        let m = McMap::GcPointsOnly(vec![(2, 1), (5, 3)]);
        assert_eq!(m.lookup(0), None);
        assert_eq!(m.lookup(6), None);
        assert_eq!(m.lookup(u32::MAX), None);
    }

    #[test]
    fn map_sizes_count_entries() {
        let c = artifact();
        assert_eq!(c.mc_map().size_bytes(), 6 * MCMAP_ENTRY_BYTES);
        assert_eq!(c.gc_map_bytes(), GCMAP_ENTRY_BYTES);
    }

    #[test]
    fn relocation_moves_the_code_and_shares_the_maps() {
        let c = artifact();
        let r = c.relocated(0x5000_0000);
        assert_eq!(r.code_start, 0x5000_0000);
        assert_eq!(r.code_end(), 0x5000_0000 + 24);
        assert_eq!(r.mem_pc(1), c.mem_pc(1) - c.code_start + r.code_start);
        assert_eq!(r.bytecode_at(0x5000_0000 + 8), Some(1));
        assert_eq!(
            r.bytecode_at(c.code_start),
            None,
            "the old range is not its"
        );
        assert!(Arc::ptr_eq(&r.layout, &c.layout), "no map is copied");
        assert_eq!((r.method, r.tier, r.install_epoch), (c.method, c.tier, 0));
    }

    #[test]
    fn tier_display_names() {
        assert_eq!(Tier::Baseline.to_string(), "baseline");
        assert_eq!(Tier::Opt.to_string(), "opt");
        assert_eq!(Tier::Region.to_string(), "region");
    }
}
