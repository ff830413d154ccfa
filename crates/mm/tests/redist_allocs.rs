//! Guard: the local work of `redistribute` allocates O(P) times, however
//! many entries move. The per-entry router this replaced built a `Vec`
//! per matrix entry (`balanced_ranges` inside `owner`) and an entry list
//! per rank per call; a counting global allocator would have caught it.
//!
//! A binary of its own because `#[global_allocator]` is per binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use qr3d_machine::{CostParams, Machine, RingTransport};
use qr3d_mm::brick::{BrickA, DistLayout, RowCyclicDist};
use qr3d_mm::dmm3d::Grid3;
use qr3d_mm::redist::redistribute;

thread_local! {
    /// Allocations made by this thread (const-initialised and without a
    /// destructor, so the allocator may touch it at any time).
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every request to `System` unchanged; the only addition
// is a thread-local counter that itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const P: usize = 4;

/// Allocations each rank's thread makes inside one row-cyclic → brick
/// `redistribute` of an `n × n` matrix: per rank, the fewest over a few
/// runs. The count is a property of the code except for one thing — an
/// envelope that arrives before its receive is posted is stashed in the
/// rank's mailbox, which may allocate — and that only ever adds, so the
/// minimum is the deterministic part. The ring transport is named
/// because its sends do not allocate (mpsc grows its queue on the
/// sender's thread every few dozen messages).
fn allocs_per_rank(n: usize) -> Vec<usize> {
    let from = RowCyclicDist::new(n, n, P);
    let to = BrickA::new(Grid3::choose(n, n, n, P), n, n, P);
    let one_run = || {
        Machine::new(P, CostParams::unit())
            .with_transport(Arc::new(RingTransport::default()))
            .run(|rank| {
                let w = rank.world();
                let local = vec![1.0; from.local_count(w.rank())];
                let before = ALLOCS.with(Cell::get);
                let out = redistribute(rank, &w, &local, &from, &to);
                let after = ALLOCS.with(Cell::get);
                assert_eq!(out.len(), to.local_count(w.rank()));
                after - before
            })
            .results
    };
    (0..4)
        .map(|_| one_run())
        .reduce(|best, run| best.iter().zip(&run).map(|(a, b)| *a.min(b)).collect())
        .expect("at least one run")
}

#[test]
fn redistribute_allocations_do_not_grow_with_the_matrix() {
    // 16× the entries, 4× the rows per rank: the same number of
    // allocations (it may depend on P, never on the entry count).
    let (small, large) = (allocs_per_rank(64), allocs_per_rank(256));
    assert_eq!(small, large, "allocations per rank at 64² vs 256²");
}
