//! Layout-to-layout redistribution via two-phase all-to-all.
//!
//! "The first all-to-all redistributes the input matrices from column- and
//! row-cyclic to dmm layout [...]; the second all-to-all converts the
//! output matrix from dmm layout to row-cyclic layout" (Section 7.2).
//!
//! Because both endpoints can describe any rank's entries under either
//! layout (layouts are pure metadata), senders pack values in a canonical
//! order and receivers unpack them without transmitting indices: the words
//! charged are exactly the matrix entries moved, as in the paper's
//! analysis.
//!
//! The block `s → d` is the intersection of `from`'s rectangle on `s` with
//! `to`'s rectangle on `d` (see the rectangle contract in
//! [`crate::brick`]), in `s`'s storage order. Two progressions intersect
//! in a progression, so a block is again a strided rectangle inside both
//! local buffers: its size is `|rows∩|·|cols∩|`, and packing and unpacking
//! are slice copies where a side is contiguous and strided loops
//! otherwise. Local cost per rank and call: O(words moved) copies, O(P²)
//! integer work for the size matrix, O(P) allocations (one per outgoing
//! block, the output, and a constant number of length-P or P² tables) —
//! none of it depends on the number of entries except the copies.

use qr3d_collectives::alltoall::all_to_all;
use qr3d_collectives::BlockSizes;
use qr3d_machine::{Comm, Rank};

use crate::brick::{DistLayout, StridedRect};

/// Where a block's values sit in one local buffer: value `(o, i)` of the
/// block at `base + o·outer + i·inner`.
#[derive(Clone, Copy, Default)]
struct Strides {
    base: usize,
    outer: usize,
    inner: usize,
}

/// One block of a redistribution as both endpoints see it: `outer × inner`
/// values, sent in the sender's storage order.
#[derive(Default)]
struct BlockWalk {
    outer: usize,
    inner: usize,
    /// The block inside the sender's buffer.
    src: Strides,
    /// The block inside the receiver's buffer.
    dst: Strides,
}

impl BlockWalk {
    fn len(&self) -> usize {
        self.outer * self.inner
    }

    /// The common entries of `src` (a rank's rectangle under the source
    /// layout) and `dst` (a rank's rectangle under the target layout).
    fn new(src: &StridedRect, dst: &StridedRect) -> BlockWalk {
        let rows = src.rows.intersect(&dst.rows);
        let cols = src.cols.intersect(&dst.cols);
        if rows.len == 0 || cols.len == 0 {
            return BlockWalk::default();
        }
        // The sender's storage order decides which of rows and columns is
        // the outer loop — on both sides.
        let rows_outer = !src.col_major;
        let strides = |rect: &StridedRect| {
            // Buffer distance between adjacent rows / columns of `rect`.
            let (row_unit, col_unit) = if rect.col_major {
                (1, rect.rows.len)
            } else {
                (rect.cols.len, 1)
            };
            let base = rect.rows.position(rows.start) * row_unit
                + rect.cols.position(cols.start) * col_unit;
            let by_row = rows.step / rect.rows.step * row_unit;
            let by_col = cols.step / rect.cols.step * col_unit;
            let (outer, inner) = if rows_outer {
                (by_row, by_col)
            } else {
                (by_col, by_row)
            };
            Strides { base, outer, inner }
        };
        let (outer, inner) = if rows_outer {
            (rows.len, cols.len)
        } else {
            (cols.len, rows.len)
        };
        BlockWalk {
            outer,
            inner,
            src: strides(src),
            dst: strides(dst),
        }
    }

    /// The block's values out of the sender's `local` buffer.
    fn pack(&self, local: &[f64]) -> Vec<f64> {
        let at = self.src;
        let mut block = Vec::with_capacity(self.len());
        for o in 0..self.outer {
            let start = at.base + o * at.outer;
            if at.inner == 1 {
                block.extend_from_slice(&local[start..start + self.inner]);
            } else {
                block.extend((0..self.inner).map(|i| local[start + i * at.inner]));
            }
        }
        block
    }

    /// The received `bundle` into the receiver's `out` buffer.
    fn unpack(&self, bundle: &[f64], out: &mut [f64]) {
        let at = self.dst;
        for (o, run) in bundle.chunks_exact(self.inner.max(1)).enumerate() {
            let start = at.base + o * at.outer;
            if at.inner == 1 {
                out[start..start + self.inner].copy_from_slice(run);
            } else {
                for (i, &v) in run.iter().enumerate() {
                    out[start + i * at.inner] = v;
                }
            }
        }
    }
}

/// Convert this rank's local buffer from layout `from` to layout `to`
/// using one two-phase all-to-all. `local` must hold this rank's entries
/// in `from.entries(rank)` order; the result holds them in
/// `to.entries(rank)` order.
///
/// Panics when the layouts disagree with each other or with `local`: on
/// shape or rank-count mismatch, on a buffer or bundle of the wrong
/// length, and when the blocks this rank sends do not add up to its
/// buffer or the blocks it receives to `to.local_count(rank)` (a layout
/// whose rectangles overlap or leave gaps would otherwise drop entries
/// or leave silent zeros).
pub fn redistribute(
    rank: &mut Rank,
    comm: &Comm,
    local: &[f64],
    from: &dyn DistLayout,
    to: &dyn DistLayout,
) -> Vec<f64> {
    let p = comm.size();
    let me = comm.rank();
    assert_eq!(from.procs(), p, "source layout rank count");
    assert_eq!(to.procs(), p, "target layout rank count");
    assert_eq!(from.rows(), to.rows(), "layout shape mismatch");
    assert_eq!(from.cols(), to.cols(), "layout shape mismatch");
    assert_eq!(
        local.len(),
        from.local_count(me),
        "local buffer size mismatch"
    );

    let from_rects: Vec<StridedRect> = (0..p).map(|s| from.rect(s)).collect();
    let to_rects: Vec<StridedRect> = (0..p).map(|d| to.rect(d)).collect();

    // Every rank derives the full size matrix from the layouts.
    let sizes = BlockSizes::from_fn(p, |s, d| BlockWalk::new(&from_rects[s], &to_rects[d]).len());
    let blocks: Vec<Vec<f64>> = to_rects
        .iter()
        .map(|dst| BlockWalk::new(&from_rects[me], dst).pack(local))
        .collect();
    assert_eq!(
        blocks.iter().map(Vec::len).sum::<usize>(),
        local.len(),
        "blocks sent do not tile the source rectangle"
    );

    let incoming = all_to_all(rank, comm, blocks, &sizes);

    // Unpack: the values from source s arrive in s's storage order,
    // restricted to the entries I own under `to`.
    let mut out = vec![0.0; to.local_count(me)];
    let mut written = 0;
    for (src, bundle) in from_rects.iter().zip(&incoming) {
        let walk = BlockWalk::new(src, &to_rects[me]);
        assert_eq!(bundle.len(), walk.len(), "bundle length");
        walk.unpack(bundle, &mut out);
        written += bundle.len();
    }
    assert_eq!(
        written,
        out.len(),
        "blocks received do not tile the target rectangle"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brick::{BrickA, BrickC, RowCyclicDist, StridedRect, TransposedDist};
    use crate::dmm3d::Grid3;
    use qr3d_machine::{CostParams, Machine};
    use qr3d_matrix::Matrix;

    /// Scatter a full matrix into layout-ordered local buffers, run a
    /// redistribution, and check the result matches the target layout's
    /// scattering of the same matrix.
    fn roundtrip(p: usize, from: &(dyn DistLayout + Sync), to: &(dyn DistLayout + Sync)) {
        let (m, n) = (from.rows(), from.cols());
        let full = Matrix::from_fn(m, n, |i, j| (i * n + j) as f64);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let me = w.rank();
            let local: Vec<f64> = from
                .entries(me)
                .iter()
                .map(|&(i, j)| full[(i, j)])
                .collect();
            redistribute(rank, &w, &local, from, to)
        });
        for (r, res) in out.results.iter().enumerate() {
            let expect: Vec<f64> = to.entries(r).iter().map(|&(i, j)| full[(i, j)]).collect();
            assert_eq!(res, &expect, "rank {r} local buffer");
        }
    }

    #[test]
    fn row_cyclic_to_brick_and_back() {
        let p = 8;
        let (i, k) = (20, 12);
        let grid = Grid3::new(2, 2, 2);
        let rc = RowCyclicDist::new(i, k, p);
        let brick = BrickA::new(grid, i, k, p);
        roundtrip(p, &rc, &brick);
        roundtrip(p, &brick, &rc);
    }

    #[test]
    fn transposed_row_cyclic_to_brick() {
        // The 3D-CAQR-EG Line 6 case: left factor stored row-cyclic,
        // used transposed.
        let p = 6;
        let (m, half_n) = (18, 5); // V is m × n/2; A-operand is (n/2) × m
        let v_lay = TransposedDist(RowCyclicDist::new(m, half_n, p));
        let grid = Grid3::choose(half_n, half_n, m, p);
        let brick = BrickA::new(grid, half_n, m, p);
        roundtrip(p, &v_lay, &brick);
    }

    #[test]
    fn brick_c_to_row_cyclic() {
        let p = 7;
        let (i, j) = (15, 9);
        let grid = Grid3::new(3, 2, 1);
        roundtrip(p, &BrickC::new(grid, i, j, p), &RowCyclicDist::new(i, j, p));
    }

    #[test]
    fn identity_redistribution_is_lossless() {
        let p = 4;
        let rc = RowCyclicDist::new(10, 3, p);
        roundtrip(p, &rc, &rc.clone());
    }

    #[test]
    fn single_rank_redistribution() {
        let rc = RowCyclicDist::new(5, 4, 1);
        let grid = Grid3::new(1, 1, 1);
        roundtrip(1, &rc, &BrickA::new(grid, 5, 4, 1));
    }

    #[test]
    fn empty_matrix_redistribution() {
        let p = 3;
        let rc = RowCyclicDist::new(0, 4, p);
        let rc2 = RowCyclicDist::new(0, 4, p);
        roundtrip(p, &rc, &rc2);
    }

    /// A row-cyclic layout whose last rank forgets its last row, so the
    /// rectangles leave a gap.
    struct Gappy(RowCyclicDist);

    impl DistLayout for Gappy {
        fn rows(&self) -> usize {
            self.0.rows()
        }
        fn cols(&self) -> usize {
            self.0.cols()
        }
        fn procs(&self) -> usize {
            self.0.procs()
        }
        fn owner(&self, i: usize, j: usize) -> usize {
            self.0.owner(i, j)
        }
        fn entries(&self, rank: usize) -> Vec<(usize, usize)> {
            self.rect(rank).iter().collect()
        }
        fn rect(&self, rank: usize) -> StridedRect {
            let mut rect = self.0.rect(rank);
            if rank + 1 == self.procs() {
                rect.rows.len -= 1;
            }
            rect
        }
    }

    #[test]
    #[should_panic(expected = "do not tile the source rectangle")]
    fn a_target_layout_with_a_gap_fails_loud() {
        let p = 3;
        let whole = BrickC::new(Grid3::new(3, 1, 1), 9, 2, p);
        roundtrip(p, &whole, &Gappy(RowCyclicDist::new(9, 2, p)));
    }

    #[test]
    #[should_panic(expected = "do not tile the target rectangle")]
    fn a_source_layout_with_a_gap_fails_loud() {
        let p = 3;
        let whole = BrickC::new(Grid3::new(3, 1, 1), 9, 2, p);
        roundtrip(p, &Gappy(RowCyclicDist::new(9, 2, p)), &whole);
    }

    #[test]
    fn redistribution_moves_only_matrix_words() {
        // Total volume ≤ 2 × (entries not already in place) × small
        // two-phase overhead; sanity check it's bounded by ~2× total size
        // plus the per-message latency blocks.
        let p = 4;
        let (m, n) = (16, 8);
        let full = Matrix::random(m, n, 3);
        let from = RowCyclicDist::new(m, n, p);
        let grid = Grid3::new(2, 2, 1);
        let to = BrickA::new(grid, m, n, p);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let me = w.rank();
            let local: Vec<f64> = from
                .entries(me)
                .iter()
                .map(|&(i, j)| full[(i, j)])
                .collect();
            redistribute(rank, &w, &local, &from, &to)
        });
        // Two-phase all-to-all moves each word at most twice (to the
        // intermediate and to the destination), counted at both endpoints.
        let bound = 4.0 * (m * n) as f64 + 100.0;
        assert!(
            out.stats.total_volume() <= bound,
            "volume {} exceeds {bound}",
            out.stats.total_volume()
        );
    }
}
