//! Pins the mature space's allocation order.
//!
//! Every later address in a GenMS run follows from which cell
//! `MsSpace::alloc` hands out, so any change to the free-list
//! bookkeeping (block table, free-cell order, block reuse order) must
//! leave this digest unchanged. End-to-end pins would catch a moved
//! address too, but none of them names the layer that moved it.

use std::collections::HashMap;

use hpmopt_gc::freelist::{MsSpace, BLOCK_BYTES};
use hpmopt_gc::Address;
use hpmopt_prim::{Fnv1a, Rng};

const START: u64 = 0x2000_0000;
const BLOCKS: u64 = 128;
const STEPS: usize = 6000;
const RECLAIM_EVERY: usize = 300;

/// Digest of the seeded alloc/free/reclaim sequence below, recorded
/// before the block table became a dense vector.
const PINNED: u64 = 6_822_917_738_136_048_518;

fn block_of(a: Address) -> u64 {
    (a.0 - START) / BLOCK_BYTES
}

#[test]
fn allocation_order_is_pinned() {
    let mut space = MsSpace::new(Address(START), Address(START + BLOCKS * BLOCK_BYTES));
    let mut rng = Rng::new(0x5eed_f1ee);
    let mut h = Fnv1a::new();
    let mut live: Vec<Address> = Vec::new();
    // Live cells per block that has ever handed out a cell and not been
    // reclaimed since: a block whose count drops to zero is exactly one
    // `reclaim_empty_blocks` returns to the shared pool.
    let mut bound: HashMap<u64, u32> = HashMap::new();
    let mut reclaimed = 0u64;
    for step in 1..=STEPS {
        if live.is_empty() || rng.chance(55) {
            // Log-uniform sizes: small classes dominate, every class occurs.
            let max = 1 << rng.range(4, 12);
            let bytes = rng.range(1, max);
            let cell = space.alloc(bytes);
            h.write_u64(cell.map_or(u64::MAX, |a| a.0));
            if let Some(a) = cell {
                *bound.entry(block_of(a)).or_default() += 1;
                live.push(a);
            }
        } else {
            let a = live.swap_remove(rng.below(live.len() as u64) as usize);
            space.free(a);
            *bound.get_mut(&block_of(a)).expect("live cell's block") -= 1;
        }
        if step % RECLAIM_EVERY == 0 {
            space.reclaim_empty_blocks();
            let before = bound.len();
            bound.retain(|_, n| *n > 0);
            reclaimed += (before - bound.len()) as u64;
            h.write_u64(space.free_bytes());
            let cells = space.allocated_cells();
            h.write_u64(cells.len() as u64);
            for (a, bytes) in cells {
                h.write_u64(a.0);
                h.write_u64(bytes);
            }
        }
    }
    assert!(reclaimed > 0, "the sequence reclaims at least one block");
    assert_eq!(h.finish(), PINNED, "mature-space allocation order moved");
}
