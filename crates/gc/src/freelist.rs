//! Segregated free-list allocator for the mark-and-sweep mature space.
//!
//! The paper's tenured space "is managed using a free-list allocator that
//! allocates objects into 40 different size classes up to 4 KBytes"
//! (Section 5.1). This module reproduces that design: the mature region is
//! carved into 8 KB blocks; each block is bound to one size class and
//! split into equal cells; allocation pops a free cell of the right class.
//!
//! Co-allocation interacts with size classes exactly as the paper
//! describes: a parent+child pair is allocated as *one* request of the
//! combined size, landing in a single (larger) cell — adjacent in memory —
//! whereas separate requests would typically land in different size
//! classes, i.e. different blocks, far apart.

use crate::object::Address;
use crate::{LOS_THRESHOLD_BYTES, SIZE_CLASS_COUNT};

/// Size of one allocation block.
pub const BLOCK_BYTES: u64 = 8192;

/// The 40 cell sizes: 16-byte steps to 256, 64-byte steps to 1024, then
/// 256-byte steps to 4096.
#[must_use]
pub const fn size_class_table() -> [u64; SIZE_CLASS_COUNT] {
    let mut t = [0u64; SIZE_CLASS_COUNT];
    let mut i = 0;
    let mut s = 16;
    while s <= 256 {
        t[i] = s;
        i += 1;
        s += 16;
    }
    let mut s = 320;
    while s <= 1024 {
        t[i] = s;
        i += 1;
        s += 64;
    }
    let mut s = 1280;
    while s <= 4096 {
        t[i] = s;
        i += 1;
        s += 256;
    }
    assert!(i == SIZE_CLASS_COUNT);
    t
}

/// [`size_class_table`], built once at compile time.
const SIZE_CLASSES: [u64; SIZE_CLASS_COUNT] = size_class_table();

/// The smallest size class whose cells fit `bytes`, or `None` for
/// large-object-space sizes (> [`LOS_THRESHOLD_BYTES`]).
#[must_use]
pub fn size_class_for(bytes: u64) -> Option<usize> {
    if bytes > LOS_THRESHOLD_BYTES {
        return None;
    }
    SIZE_CLASSES.iter().position(|&s| s >= bytes)
}

/// Per-block metadata.
#[derive(Debug, Clone)]
struct Block {
    /// Which cells are currently allocated.
    allocated: Vec<bool>,
    /// The block's size class (an index into [`SIZE_CLASSES`]).
    class: usize,
}

/// The mark-and-sweep mature space.
#[derive(Debug, Clone)]
pub struct MsSpace {
    start: Address,
    end: Address,
    /// Bump cursor for carving fresh blocks.
    next_block: u64,
    /// Fully empty blocks returned by sweeps, reusable by any size class,
    /// in descending order (the next carve pops the lowest).
    free_blocks: Vec<u64>,
    /// Per-size-class free cell lists.
    free_cells: Vec<Vec<Address>>,
    /// Metadata of every carved block, indexed by block number from the
    /// region start (`None` while the block sits in `free_blocks`).
    blocks: Vec<Option<Block>>,
    /// Bytes in allocated cells (cell-granular, so internal fragmentation
    /// counts as used — as it does for a real segregated-fit allocator).
    used_bytes: u64,
}

impl MsSpace {
    /// Create an empty mature space over `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics unless the region is block-aligned in length.
    #[must_use]
    pub fn new(start: Address, end: Address) -> Self {
        assert_eq!(
            (end.0 - start.0) % BLOCK_BYTES,
            0,
            "region must be whole blocks"
        );
        MsSpace {
            start,
            end,
            next_block: 0,
            free_blocks: Vec::new(),
            free_cells: vec![Vec::new(); SIZE_CLASS_COUNT],
            blocks: Vec::new(),
            used_bytes: 0,
        }
    }

    /// Allocate a cell for `bytes` (≤ 4 KB). Returns `None` when the space
    /// is exhausted (the caller must run a major collection).
    pub fn alloc(&mut self, bytes: u64) -> Option<Address> {
        let class = size_class_for(bytes)?;
        if self.free_cells[class].is_empty() {
            self.carve_block(class)?;
        }
        let cell = self.free_cells[class].pop()?;
        let (block, ci) = self.locate(cell);
        block.allocated[ci] = true;
        self.used_bytes += SIZE_CLASSES[class];
        Some(cell)
    }

    /// Free a previously allocated cell (sweep support).
    ///
    /// # Panics
    ///
    /// Panics if the cell is not currently allocated.
    pub fn free(&mut self, cell: Address) {
        let (block, ci) = self.locate(cell);
        assert!(block.allocated[ci], "double free at {cell}");
        block.allocated[ci] = false;
        let class = block.class;
        self.used_bytes -= SIZE_CLASSES[class];
        self.free_cells[class].push(cell);
    }

    fn carve_block(&mut self, class: usize) -> Option<()> {
        let bi = if let Some(bi) = self.free_blocks.pop() {
            bi
        } else {
            let base = self.start.0 + self.next_block * BLOCK_BYTES;
            if base + BLOCK_BYTES > self.end.0 {
                return None;
            }
            let bi = self.next_block;
            self.next_block += 1;
            self.blocks.push(None);
            bi
        };
        let base = self.start.0 + bi * BLOCK_BYTES;
        let cell_bytes = SIZE_CLASSES[class];
        let cells = (BLOCK_BYTES / cell_bytes) as usize;
        self.blocks[bi as usize] = Some(Block {
            allocated: vec![false; cells],
            class,
        });
        for c in (0..cells).rev() {
            self.free_cells[class].push(Address(base + c as u64 * cell_bytes));
        }
        Some(())
    }

    /// The carved block holding `cell`, and the cell's index in it.
    ///
    /// # Panics
    ///
    /// Panics if `cell`'s block is not carved.
    fn locate(&mut self, cell: Address) -> (&mut Block, usize) {
        debug_assert!(self.contains(cell));
        let off = cell.0 - self.start.0;
        let block = self.blocks[(off / BLOCK_BYTES) as usize]
            .as_mut()
            .expect("cell in a carved block");
        let ci = ((off % BLOCK_BYTES) / SIZE_CLASSES[block.class]) as usize;
        (block, ci)
    }

    /// The allocated cells, as `(address, cell_bytes)` pairs, in address
    /// order. Used by the sweep phase.
    #[must_use]
    pub fn allocated_cells(&self) -> Vec<(Address, u64)> {
        let mut out = Vec::new();
        for (bi, block) in self.blocks.iter().enumerate() {
            let Some(block) = block else { continue };
            let base = self.start.0 + bi as u64 * BLOCK_BYTES;
            let cell_bytes = SIZE_CLASSES[block.class];
            for (ci, &alloc) in block.allocated.iter().enumerate() {
                if alloc {
                    out.push((Address(base + ci as u64 * cell_bytes), cell_bytes));
                }
            }
        }
        out
    }

    /// Whether `addr` lies in this space.
    #[must_use]
    pub fn contains(&self, addr: Address) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Bytes consumed by allocated cells (cell-granular).
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Return every fully empty block to the shared block pool so a
    /// different size class can reuse it. Called after the sweep phase:
    /// without it, a shifting size-class mix (e.g. co-allocation starting
    /// mid-run) strands mostly-empty blocks forever.
    pub fn reclaim_empty_blocks(&mut self) {
        // Unbind the empty blocks in one pass, then drop their cells from
        // the free lists in one more, keeping each list's order.
        let empty: Vec<bool> = self
            .blocks
            .iter_mut()
            .map(|slot| slot.take_if(|b| !b.allocated.contains(&true)).is_some())
            .collect();
        if !empty.contains(&true) {
            return;
        }
        let start = self.start.0;
        for cells in &mut self.free_cells {
            cells.retain(|c| !empty[((c.0 - start) / BLOCK_BYTES) as usize]);
        }
        self.free_blocks
            .extend((0..empty.len() as u64).filter(|&bi| empty[bi as usize]));
        self.free_blocks.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Bytes not yet committed to any block plus free cells in existing
    /// blocks. An upper bound on what can still be allocated.
    #[must_use]
    pub fn free_bytes(&self) -> u64 {
        let uncarved = self.end.0 - (self.start.0 + self.next_block * BLOCK_BYTES);
        let in_cells: u64 = self
            .free_cells
            .iter()
            .zip(SIZE_CLASSES)
            .map(|(cells, s)| cells.len() as u64 * s)
            .sum();
        uncarved + in_cells + self.free_blocks.len() as u64 * BLOCK_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> MsSpace {
        MsSpace::new(Address(0x10000), Address(0x10000 + 16 * BLOCK_BYTES))
    }

    #[test]
    fn table_has_40_classes_up_to_4k() {
        let t = size_class_table();
        assert_eq!(t.len(), 40);
        assert_eq!(t[0], 16);
        assert_eq!(t[39], 4096);
        assert!(t.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
    }

    #[test]
    fn size_class_rounds_up() {
        assert_eq!(size_class_for(1), Some(0));
        assert_eq!(size_class_for(16), Some(0));
        assert_eq!(size_class_for(17), Some(1));
        assert_eq!(size_class_for(257), Some(16));
        assert_eq!(size_class_for(4096), Some(39));
        assert_eq!(size_class_for(4097), None);
    }

    #[test]
    fn same_class_cells_come_from_same_block() {
        let mut s = space();
        let a = s.alloc(24).unwrap();
        let b = s.alloc(24).unwrap();
        assert_eq!((a.0 - 0x10000) / BLOCK_BYTES, (b.0 - 0x10000) / BLOCK_BYTES);
        assert_eq!(b.0 - a.0, 32, "32-byte cells are adjacent");
    }

    #[test]
    fn different_classes_land_in_different_blocks() {
        let mut s = space();
        let small = s.alloc(24).unwrap();
        let large = s.alloc(600).unwrap();
        assert_ne!(
            (small.0 - 0x10000) / BLOCK_BYTES,
            (large.0 - 0x10000) / BLOCK_BYTES,
            "the fragmentation/distance effect co-allocation avoids"
        );
    }

    #[test]
    fn free_then_realloc_reuses_cell() {
        let mut s = space();
        let a = s.alloc(100).unwrap();
        s.free(a);
        let b = s.alloc(100).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn used_bytes_is_cell_granular() {
        let mut s = space();
        s.alloc(17).unwrap(); // 32-byte cell
        assert_eq!(s.used_bytes(), 32);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut s = MsSpace::new(Address(0), Address(BLOCK_BYTES));
        // One block of 4096-cells: 2 cells.
        assert!(s.alloc(4096).is_some());
        assert!(s.alloc(4096).is_some());
        assert!(s.alloc(4096).is_none());
        assert!(s.alloc(16).is_none(), "no room for another block");
    }

    #[test]
    fn allocated_cells_enumerates_live_cells() {
        let mut s = space();
        let a = s.alloc(24).unwrap();
        let b = s.alloc(24).unwrap();
        s.free(a);
        let cells = s.allocated_cells();
        assert_eq!(cells, vec![(b, 32)]);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut s = space();
        let a = s.alloc(24).unwrap();
        s.free(a);
        s.free(a);
    }

    #[test]
    fn empty_blocks_are_reusable_by_other_classes() {
        // One block's worth of space: fill with 32-byte cells, free them,
        // reclaim, then allocate a 4096-byte cell from the same storage.
        let mut s = MsSpace::new(Address(0), Address(BLOCK_BYTES));
        let cells: Vec<Address> = (0..256).map(|_| s.alloc(32).unwrap()).collect();
        assert!(s.alloc(4096).is_none(), "region exhausted");
        for c in cells {
            s.free(c);
        }
        assert!(s.alloc(4096).is_none(), "cells free but block still bound");
        s.reclaim_empty_blocks();
        assert!(
            s.alloc(4096).is_some(),
            "reclaimed block serves a new class"
        );
    }

    #[test]
    fn reclaim_keeps_partially_used_blocks() {
        let mut s = space();
        let a = s.alloc(24).unwrap();
        let b = s.alloc(24).unwrap();
        s.free(a);
        s.reclaim_empty_blocks();
        // The block still holds `b`; `a`'s cell must stay reusable.
        let a2 = s.alloc(24).unwrap();
        assert_eq!(a2, a);
        let _ = b;
    }

    #[test]
    fn free_bytes_decreases_with_allocation() {
        let mut s = space();
        let before = s.free_bytes();
        s.alloc(4096).unwrap();
        assert!(s.free_bytes() < before);
    }
}
