//! # qr3d-collectives — the eight collectives of SPAA'18 Table 1
//!
//! Implements the collective communication operations the paper defines in
//! Section 3 and analyzes in Appendix A, on top of the point-to-point
//! primitives of [`qr3d_machine`]:
//!
//! | collective       | algorithm(s)                                        |
//! |------------------|-----------------------------------------------------|
//! | `scatter`        | binomial tree (A.1)                                 |
//! | `gather`         | binomial tree (A.1)                                 |
//! | `broadcast`      | binomial tree; scatter + all-gather (A.2)           |
//! | `reduce`         | binomial tree; reduce-scatter + gather (A.2)        |
//! | `all-gather`     | bidirectional exchange (A.2)                        |
//! | `all-reduce`     | binomial; reduce-scatter + all-gather (A.2)         |
//! | `all-to-all`     | radix-2 index [BHK+97]; two-phase variant \[HBJ96\]   |
//! | `reduce-scatter` | bidirectional exchange (A.2)                        |
//!
//! The [`auto`] module picks, per call, whichever variant minimizes the
//! Table 1 bound ("for broadcast and (all-)reduce we use whichever of the
//! two minimizes all three costs, asymptotically").
//!
//! ## Conventions
//!
//! * Block sizes are *metadata known to every rank* (they always derive
//!   from a data layout in this codebase), so no size headers are sent and
//!   the charged words are exactly the paper's. Pass them explicitly
//!   (`sizes[i]` = size of the block associated with local rank `i`;
//!   [`BlockSizes`] for the all-to-all's `B_pq` matrix).
//! * Data movement is **view-based** (zero-copy): blocks are kept
//!   concatenated in local-rank order, and because the recursions' rank
//!   ranges nest, every transfer is a contiguous range — shipped as a
//!   [`qr3d_machine::Payload`] view on the way down (scatter/broadcast)
//!   and landed in place on the way up (gather/all-gather). Results that are ranges of shared buffers are
//!   returned as `Payload`s; accumulators (reductions) are owned `Vec`s.
//!   The `*_flat` variants take/return the rank-ordered concatenation
//!   directly and are what the `mm`/`core` layers use.
//! * Reductions are entrywise sums of equal-length blocks (the only
//!   reduction the paper needs), charged one flop per added word.
//! * Every member of the communicator must enter the collective (SPMD);
//!   root-only arguments are `Option`s.

#![forbid(unsafe_code)]

pub mod alltoall;
pub mod auto;
pub mod bidir;
pub mod binomial;
pub mod sizes;
pub mod tree;

pub use sizes::BlockSizes;

/// Glob-import surface: the auto-dispatched collectives under their paper
/// names, plus the explicit variants.
pub mod prelude {
    pub use crate::alltoall::{all_to_all, all_to_all_direct, all_to_all_index, all_to_all_with};
    pub use crate::auto::{all_reduce, broadcast, reduce};
    pub use crate::bidir::{
        all_gather, all_gather_flat, all_gather_into, all_reduce_bidir, all_reduce_doubling,
        broadcast_bidir, reduce_bidir, reduce_scatter, reduce_scatter_flat,
        reduce_scatter_in_place,
    };
    pub use crate::binomial::{
        all_reduce_binomial, broadcast_binomial, gather, reduce_binomial, scatter,
    };
    pub use crate::sizes::BlockSizes;
    pub use qr3d_machine::Payload;
}

#[inline]
pub(crate) fn tag_of(op: u64, step: u64) -> u64 {
    (op << 8) | step
}

/// Prefix offsets of rank-ordered blocks: `off[t]` is where block `t`
/// starts in a buffer holding blocks `0..p` back to back.
pub(crate) fn prefix_offsets(sizes: &[usize]) -> Vec<usize> {
    let mut off = Vec::with_capacity(sizes.len() + 1);
    let mut acc = 0;
    off.push(0);
    for &s in sizes {
        acc += s;
        off.push(acc);
    }
    off
}

/// `⌈log₂ p⌉` (0 for p ≤ 1).
pub(crate) fn ceil_log2(p: usize) -> u32 {
    if p <= 1 {
        0
    } else {
        usize::BITS - (p - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::{ceil_log2, prefix_offsets};

    #[test]
    fn prefix_offsets_sums() {
        assert_eq!(prefix_offsets(&[2, 0, 3]), vec![0, 2, 2, 5]);
        assert_eq!(prefix_offsets(&[]), vec![0]);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }
}
