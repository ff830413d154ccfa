//! Shifted row-cyclic layout.
//!
//! 3D-CAQR-EG's input is row-cyclic (Section 7), and its right recursion
//! descends into `B₂₂`, the trailing rows of the current panel: "the
//! second recursive call is valid since B₂₂ still satisfies the data
//! distribution requirements". Row `i` of `B₂₂` is global row `i + nl`,
//! owned by rank `(i + nl) mod P` — i.e. row-cyclic with a *shift*. This
//! type tracks that shift so every recursion level keeps a first-class
//! layout (and the dmm redistributions get exact owner maps).

use qr3d_matrix::Matrix;
use qr3d_mm::brick::{DistLayout, Progression, StridedRect};

/// Row-cyclic layout with a rank offset: row `i` of the `rows × cols`
/// matrix lives on rank `(i + shift) mod p`, at local slot `i div p`
/// (slots ordered by ascending global row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftedRowCyclic {
    rows: usize,
    cols: usize,
    p: usize,
    shift: usize,
}

impl ShiftedRowCyclic {
    /// Layout of an `rows × cols` matrix over `p` ranks with the given
    /// row shift (reduced mod `p`).
    pub fn new(rows: usize, cols: usize, p: usize, shift: usize) -> Self {
        assert!(p >= 1, "need at least one rank");
        ShiftedRowCyclic {
            rows,
            cols,
            p,
            shift: shift % p,
        }
    }

    /// Matrix height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of ranks.
    pub fn procs(&self) -> usize {
        self.p
    }

    /// The shift (already reduced mod `p`).
    pub fn shift(&self) -> usize {
        self.shift
    }

    /// Owner of global row `i`.
    pub fn owner(&self, i: usize) -> usize {
        (i + self.shift) % self.p
    }

    /// Global rows below `end` owned by `rank`: every `p`-th row from the
    /// smallest `i ≥ 0` with `(i + shift) ≡ rank (mod p)`.
    fn rows_below(&self, rank: usize, end: usize) -> Progression {
        assert!(rank < self.p);
        let first = (rank + self.p - self.shift) % self.p;
        Progression::below(first, self.p, end.min(self.rows))
    }

    /// Global rows owned by `rank`, ascending.
    pub fn local_rows(&self, rank: usize) -> Vec<usize> {
        self.rows_below(rank, self.rows).iter().collect()
    }

    /// Number of rows owned by `rank`.
    pub fn local_count(&self, rank: usize) -> usize {
        self.rows_below(rank, self.rows).len
    }

    /// The layout of the same matrix restricted to rows `r0..rows`
    /// (shift advances by `r0`).
    pub fn tail_rows(&self, r0: usize) -> ShiftedRowCyclic {
        assert!(r0 <= self.rows);
        ShiftedRowCyclic::new(self.rows - r0, self.cols, self.p, self.shift + r0)
    }

    /// Same layout with a different column count.
    pub fn with_cols(&self, cols: usize) -> ShiftedRowCyclic {
        ShiftedRowCyclic { cols, ..*self }
    }

    /// Extract `rank`'s local piece from a full matrix (test/harness
    /// helper, no communication).
    pub fn scatter_from_full(&self, full: &Matrix, rank: usize) -> Matrix {
        assert_eq!(full.rows(), self.rows);
        assert_eq!(full.cols(), self.cols);
        full.take_rows(&self.local_rows(rank))
    }

    /// Reassemble the full matrix from all ranks' pieces, borrowed in
    /// rank order (a slice of them, or references picked out of larger
    /// per-rank results) — no piece is copied before it lands.
    pub fn gather_to_full<'a>(&self, locals: impl IntoIterator<Item = &'a Matrix>) -> Matrix {
        let mut full = Matrix::zeros(self.rows, self.cols);
        self.gather_into(locals, &mut full);
        full
    }

    /// [`ShiftedRowCyclic::gather_to_full`] into a caller's `full` of the
    /// layout's shape: every entry is overwritten.
    pub fn gather_into<'a>(&self, locals: impl IntoIterator<Item = &'a Matrix>, full: &mut Matrix) {
        assert_eq!((full.rows(), full.cols()), (self.rows, self.cols));
        let mut ranks = 0;
        for (r, loc) in locals.into_iter().enumerate() {
            assert!(r < self.p, "more pieces than ranks");
            full.put_rows(&self.local_rows(r), loc);
            ranks += 1;
        }
        assert_eq!(ranks, self.p, "one piece per rank");
    }

    /// Of this rank's local rows, how many have global index `< r0`
    /// (the rows that belong to the *top* part when splitting at `r0`).
    pub fn local_rows_before(&self, rank: usize, r0: usize) -> usize {
        self.rows_below(rank, r0).len
    }
}

impl DistLayout for ShiftedRowCyclic {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn procs(&self) -> usize {
        self.p
    }
    fn owner(&self, i: usize, _j: usize) -> usize {
        ShiftedRowCyclic::owner(self, i)
    }
    fn entries(&self, rank: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.local_count(rank) * self.cols);
        for i in self.local_rows(rank) {
            for j in 0..self.cols {
                out.push((i, j));
            }
        }
        out
    }
    fn rect(&self, rank: usize) -> StridedRect {
        StridedRect::row_major(
            self.rows_below(rank, self.rows),
            Progression::range(0..self.cols),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shift_matches_plain_row_cyclic() {
        let l = ShiftedRowCyclic::new(10, 3, 4, 0);
        assert_eq!(l.owner(0), 0);
        assert_eq!(l.owner(5), 1);
        assert_eq!(l.local_rows(2), vec![2, 6]);
    }

    #[test]
    fn shift_rotates_ownership() {
        let l = ShiftedRowCyclic::new(10, 1, 4, 3);
        assert_eq!(l.owner(0), 3);
        assert_eq!(l.owner(1), 0);
        assert_eq!(l.local_rows(0), vec![1, 5, 9]);
        assert_eq!(l.local_rows(3), vec![0, 4, 8]);
        assert_eq!(l.local_count(0), 3);
        assert_eq!(l.local_count(2), 2); // rows 3, 7
    }

    #[test]
    fn shift_reduces_mod_p() {
        let a = ShiftedRowCyclic::new(7, 2, 3, 5);
        let b = ShiftedRowCyclic::new(7, 2, 3, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn tail_rows_composes() {
        let l = ShiftedRowCyclic::new(10, 2, 3, 1);
        let t = l.tail_rows(4);
        // Row i of tail = global row i+4, owner (i+4+1) mod 3 = (i+5) mod 3 = (i+2) mod 3.
        assert_eq!(t.shift(), 2);
        assert_eq!(t.rows(), 6);
        for i in 0..6 {
            assert_eq!(t.owner(i), l.owner(i + 4));
        }
        // Double tail.
        let tt = t.tail_rows(2);
        for i in 0..4 {
            assert_eq!(tt.owner(i), l.owner(i + 6));
        }
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let full = Matrix::from_fn(11, 3, |i, j| (i * 3 + j) as f64);
        for shift in 0..4 {
            let l = ShiftedRowCyclic::new(11, 3, 4, shift);
            let locals: Vec<Matrix> = (0..4).map(|r| l.scatter_from_full(&full, r)).collect();
            assert_eq!(l.gather_to_full(&locals), full, "shift={shift}");
        }
    }

    #[test]
    fn dist_layout_covers_matrix() {
        let l = ShiftedRowCyclic::new(9, 4, 4, 2);
        let mut seen = [false; 9 * 4];
        for rank in 0..4 {
            for (i, j) in DistLayout::entries(&l, rank) {
                assert_eq!(DistLayout::owner(&l, i, j), rank);
                assert!(!seen[i * 4 + j]);
                seen[i * 4 + j] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rectangle_is_the_entry_list() {
        // Every shift, more ranks than rows, and empty shapes.
        for (rows, cols, p) in [(9, 4, 4), (2, 3, 5), (0, 3, 2), (7, 0, 3), (12, 1, 1)] {
            for shift in 0..p {
                let l = ShiftedRowCyclic::new(rows, cols, p, shift);
                for rank in 0..p {
                    let entries = DistLayout::entries(&l, rank);
                    assert!(l.rect(rank).iter().eq(entries.iter().copied()));
                    assert_eq!(DistLayout::local_count(&l, rank), entries.len());
                    assert!(entries.iter().all(|&(i, _)| l.owner(i) == rank));
                }
            }
        }
    }

    #[test]
    fn local_rows_before_counts_top_split() {
        let l = ShiftedRowCyclic::new(10, 1, 3, 0);
        // Rank 0 owns rows 0,3,6,9; rows < 4 → {0, 3} → 2.
        assert_eq!(l.local_rows_before(0, 4), 2);
        assert_eq!(l.local_rows_before(1, 4), 1); // rows 1,4,7 → {1}
        assert_eq!(l.local_rows_before(2, 0), 0);
    }

    #[test]
    fn more_ranks_than_rows() {
        let l = ShiftedRowCyclic::new(2, 2, 5, 4);
        // Row 0 → rank 4, row 1 → rank 0.
        assert_eq!(l.owner(0), 4);
        assert_eq!(l.owner(1), 0);
        assert_eq!(l.local_count(2), 0);
        assert!(l.local_rows(3).is_empty());
    }
}
