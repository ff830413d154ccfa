//! Guard: the local work of `redistribute` allocates O(P) times, however
//! many entries move. The per-entry router this replaced built a `Vec`
//! per matrix entry (`balanced_ranges` inside `owner`) and an entry list
//! per rank per call; a counting global allocator would have caught it.
//! And once a job has warmed the rank's workspace, a further call
//! allocates no buffer at all: its output and step messages are pooled.
//!
//! A binary of its own because `#[global_allocator]` is per binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use qr3d_machine::{CostParams, Machine, Rank, RingTransport};
use qr3d_mm::brick::{BrickA, DistLayout, RowCyclicDist};
use qr3d_mm::dmm3d::Grid3;
use qr3d_mm::redist::redistribute;

thread_local! {
    /// Allocations made by this thread, and their bytes (const-initialised
    /// and without a destructor, so the allocator may touch them at any
    /// time).
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every request to `System` unchanged; the only addition
// is a pair of thread-local counters that themselves never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + layout.size()));
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

/// What one rank's thread allocated inside one `redistribute`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Allocs {
    count: usize,
    bytes: usize,
    /// Buffers the rank's workspace could not serve from its pool.
    workspace_misses: u64,
}

impl Allocs {
    fn min(self, other: Allocs) -> Allocs {
        Allocs {
            count: self.count.min(other.count),
            bytes: self.bytes.min(other.bytes),
            workspace_misses: self.workspace_misses.min(other.workspace_misses),
        }
    }
}

/// Per rank, what a first (cold) and a second (warm) row-cyclic → brick
/// `redistribute` of an `n × n` matrix in the same job allocate: the
/// fewest over a few runs. The counts are a property of the code except
/// for one thing — an envelope that arrives before its receive is posted
/// is stashed in the rank's mailbox, which may allocate — and that only
/// ever adds, so the minimum is the deterministic part. The ring
/// transport is named because its sends do not allocate (mpsc grows its
/// queue on the sender's thread every few dozen messages).
fn allocs_per_rank(n: usize) -> Vec<(Allocs, Allocs)> {
    let from = RowCyclicDist::new(n, n, P);
    let to = BrickA::new(Grid3::choose(n, n, n, P), n, n, P);
    let one_run = || {
        Machine::new(P, CostParams::unit())
            .with_transport(Arc::new(RingTransport::default()))
            .run(|rank| {
                let w = rank.world();
                let local = vec![1.0; from.local_count(w.rank())];
                let call = |rank: &mut Rank| {
                    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
                    let misses = rank.workspace().stats().1;
                    let out = redistribute(rank, &w, &local, &from, &to);
                    let after = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
                    assert_eq!(out.len(), to.local_count(w.rank()));
                    rank.workspace().put(out);
                    Allocs {
                        count: after.0 - before.0,
                        bytes: after.1 - before.1,
                        workspace_misses: rank.workspace().stats().1 - misses,
                    }
                };
                let cold = call(rank);
                (cold, call(rank))
            })
            .results
    };
    (0..4)
        .map(|_| one_run())
        .reduce(|best, run| {
            best.iter()
                .zip(&run)
                .map(|(a, b)| (a.0.min(b.0), a.1.min(b.1)))
                .collect()
        })
        .expect("at least one run")
}

#[test]
fn redistribute_allocations_do_not_grow_with_the_matrix() {
    // 16× the entries, 4× the rows per rank: the same number of
    // allocations (it may depend on P, never on the entry count).
    let (small, large) = (allocs_per_rank(64), allocs_per_rank(256));
    let count = |v: &[(Allocs, Allocs)]| v.iter().map(|(cold, _)| cold.count).collect::<Vec<_>>();
    assert_eq!(
        count(&small),
        count(&large),
        "allocations per rank at 64² vs 256²"
    );
}

#[test]
fn a_warm_redistribute_allocates_no_buffer() {
    // The second call of a job finds its output and every step message
    // in the rank's workspace (the first call's outgoing messages came
    // back from the other ranks): no workspace miss, and what is left —
    // the O(P) index tables, one `Arc` header per message and perhaps a
    // mailbox slot, about 3 KiB — is under 1 % of what the cold call
    // allocated (0.6–1.2 MB at 256²): no word of matrix data.
    for (rank, (cold, warm)) in allocs_per_rank(256).into_iter().enumerate() {
        assert_eq!(warm.workspace_misses, 0, "rank {rank}: {warm:?}");
        assert!(
            warm.bytes * 100 < cold.bytes,
            "rank {rank}: warm {warm:?} vs cold {cold:?}"
        );
    }
}
