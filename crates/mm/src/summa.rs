//! 2D SUMMA matrix multiplication (reference algorithm).
//!
//! Not part of the paper's algorithms — included as the conventional "2D"
//! baseline its introduction refers to ("3D matrix multiplication, which
//! incurs a smaller bandwidth cost than conventional (2D) approaches"),
//! so the benchmarks can demonstrate the 2D/3D bandwidth gap (the
//! `mm_scaling` bench target).
//!
//! The variant here is blocked SUMMA on a `Pr × Pc` grid: the contraction
//! dimension is split into `max(Pr, Pc)` panels; at step `t` the grid
//! column owning `A[·, K_t]` broadcasts it along rows, the grid row owning
//! `B[K_t, ·]` broadcasts it along columns, and every rank accumulates a
//! local product. Bandwidth `O((I·K + K·J)/√P)` per rank for square grids
//! — a factor `(IJK/P)^{1/6}`-ish worse than 3D.

use qr3d_collectives::auto::broadcast;
use qr3d_machine::{Comm, Rank};
use qr3d_matrix::gemm::Trans;
use qr3d_matrix::partition::{balanced_range, balanced_ranges};
use qr3d_matrix::Matrix;

use crate::local::mm_local_acc;

/// A 2D `Pr × Pc` processor grid; flat rank = `row · Pc + col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid2 {
    /// Grid rows.
    pub pr: usize,
    /// Grid columns.
    pub pc: usize,
}

impl Grid2 {
    /// A grid with the given extents (each ≥ 1).
    pub fn new(pr: usize, pc: usize) -> Self {
        assert!(pr >= 1 && pc >= 1, "grid extents must be positive");
        Grid2 { pr, pc }
    }

    /// The most square grid with `pr·pc ≤ p` and `pr·pc` maximal for a
    /// near-square shape (largest divisor pair of the largest usable p).
    pub fn choose(p: usize) -> Grid2 {
        assert!(p >= 1);
        let mut best = (1usize, 1usize);
        for pr in 1..=p {
            let pc = p / pr;
            if pr * pc > best.0 * best.1
                || (pr * pc == best.0 * best.1 && pr.abs_diff(pc) < best.0.abs_diff(best.1))
            {
                best = (pr, pc);
            }
        }
        Grid2 {
            pr: best.0,
            pc: best.1,
        }
    }

    /// Number of active ranks.
    pub fn procs(&self) -> usize {
        self.pr * self.pc
    }

    /// Flat rank of `(row, col)`.
    pub fn flat(&self, r: usize, c: usize) -> usize {
        r * self.pc + c
    }

    /// Grid coordinates of a flat rank, `None` if idle.
    pub fn coords(&self, flat: usize) -> Option<(usize, usize)> {
        if flat >= self.procs() {
            None
        } else {
            Some((flat / self.pc, flat % self.pc))
        }
    }

    /// Number of contraction panels SUMMA uses.
    pub fn panels(&self) -> usize {
        self.pr.max(self.pc)
    }
}

/// Extract rank `(pi, pj)`'s local piece of the `I × K` left operand:
/// rows `I_pi`, and the columns of every panel `K_t` with `t ≡ pj (mod
/// Pc)`, concatenated in ascending `t`.
pub fn summa_local_a(full: &Matrix, grid: Grid2, flat: usize) -> Matrix {
    let Some((pi, pj)) = grid.coords(flat) else {
        return Matrix::zeros(0, 0);
    };
    let rows = balanced_range(full.rows(), grid.pr, pi);
    let panels = balanced_ranges(full.cols(), grid.panels());
    let mut out = Matrix::zeros(rows.len(), 0);
    for (t, kt) in panels.iter().enumerate() {
        if t % grid.pc == pj {
            out = out.hstack(&full.submatrix(rows.start, rows.end, kt.start, kt.end));
        }
    }
    out
}

/// Extract rank `(pi, pj)`'s local piece of the `K × J` right operand:
/// columns `J_pj`, and the rows of every panel `K_t` with `t ≡ pi (mod
/// Pr)`, stacked in ascending `t`.
pub fn summa_local_b(full: &Matrix, grid: Grid2, flat: usize) -> Matrix {
    let Some((pi, pj)) = grid.coords(flat) else {
        return Matrix::zeros(0, 0);
    };
    let cols = balanced_range(full.cols(), grid.pc, pj);
    let panels = balanced_ranges(full.rows(), grid.panels());
    let mut out = Matrix::zeros(0, cols.len());
    for (t, kt) in panels.iter().enumerate() {
        if t % grid.pr == pi {
            out = out.vstack(&full.submatrix(kt.start, kt.end, cols.start, cols.end));
        }
    }
    out
}

/// Blocked SUMMA: multiply `A` (`I × K`) by `B` (`K × J`) on a 2D grid,
/// with locals as produced by [`summa_local_a`] / [`summa_local_b`].
/// Returns this rank's block `C[I_pi, J_pj]` (empty on idle ranks).
pub fn summa2d(
    rank: &mut Rank,
    comm: &Comm,
    grid: Grid2,
    a_local: &Matrix,
    b_local: &Matrix,
    i: usize,
    j: usize,
    k: usize,
) -> Matrix {
    assert!(grid.procs() <= comm.size(), "grid larger than communicator");
    let Some((pi, pj)) = grid.coords(comm.rank()) else {
        return Matrix::zeros(0, 0);
    };
    let my_rows = balanced_range(i, grid.pr, pi);
    let my_cols = balanced_range(j, grid.pc, pj);
    let panels = balanced_ranges(k, grid.panels());

    // Fiber communicators (metadata only, no traffic).
    let row_comm = comm
        .subset(&(0..grid.pc).map(|c| grid.flat(pi, c)).collect::<Vec<_>>())
        .expect("in own grid row");
    let col_comm = comm
        .subset(&(0..grid.pr).map(|r| grid.flat(r, pj)).collect::<Vec<_>>())
        .expect("in own grid column");

    let mut c = Matrix::zeros(my_rows.len(), my_cols.len());
    let mut a_off = 0usize; // column offset into my local A storage
    let mut b_off = 0usize; // row offset into my local B storage
    for (t, kt) in panels.iter().enumerate() {
        // A panel travels along the grid row from column t mod Pc.
        let a_root = t % grid.pc;
        let a_panel = if a_root == pj {
            let p = a_local.submatrix(0, my_rows.len(), a_off, a_off + kt.len());
            a_off += kt.len();
            Some(p)
        } else {
            None
        };
        let a_flat = broadcast(
            rank,
            &row_comm,
            a_root,
            a_panel.map(Matrix::into_vec),
            my_rows.len() * kt.len(),
        );
        // Materialize the shared view into a recycled workspace buffer
        // (one write per word; the buffers are reused across panels).
        let a_buf = rank.workspace().take_copy_of(&a_flat);
        let a_panel = Matrix::from_vec(my_rows.len(), kt.len(), a_buf);

        // B panel travels along the grid column from row t mod Pr.
        let b_root = t % grid.pr;
        let b_panel = if b_root == pi {
            let p = b_local.submatrix(b_off, b_off + kt.len(), 0, my_cols.len());
            b_off += kt.len();
            Some(p)
        } else {
            None
        };
        let b_flat = broadcast(
            rank,
            &col_comm,
            b_root,
            b_panel.map(Matrix::into_vec),
            kt.len() * my_cols.len(),
        );
        let b_buf = rank.workspace().take_copy_of(&b_flat);
        let b_panel = Matrix::from_vec(kt.len(), my_cols.len(), b_buf);

        mm_local_acc(rank, Trans::No, Trans::No, 1.0, &a_panel, &b_panel, &mut c);

        // Recycle the panel buffers for the next iteration.
        rank.workspace().put(a_panel.into_vec());
        rank.workspace().put(b_panel.into_vec());
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr3d_machine::{CostParams, Machine};
    use qr3d_matrix::gemm::matmul;

    fn run_summa(i: usize, j: usize, k: usize, grid: Grid2, p: usize) {
        let a = Matrix::random(i, k, 31);
        let b = Matrix::random(k, j, 32);
        let expect = matmul(&a, &b);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let a_loc = summa_local_a(&a, grid, w.rank());
            let b_loc = summa_local_b(&b, grid, w.rank());
            summa2d(rank, &w, grid, &a_loc, &b_loc, i, j, k)
        });
        let mut c = Matrix::zeros(i, j);
        for rank in 0..p {
            if let Some((pi, pj)) = grid.coords(rank) {
                let rows = balanced_range(i, grid.pr, pi);
                let cols = balanced_range(j, grid.pc, pj);
                c.set_submatrix(rows.start, cols.start, &out.results[rank]);
            }
        }
        let err = c.sub(&expect).max_abs();
        assert!(err < 1e-11, "summa {i}x{j}x{k} on {grid:?}: err {err}");
    }

    #[test]
    fn summa_correct_on_various_grids() {
        run_summa(12, 12, 12, Grid2::new(2, 2), 4);
        run_summa(13, 7, 9, Grid2::new(2, 3), 6);
        run_summa(8, 16, 4, Grid2::new(4, 2), 8);
        run_summa(10, 10, 10, Grid2::new(1, 1), 1);
        run_summa(9, 9, 9, Grid2::new(3, 3), 10); // one idle rank
    }

    #[test]
    fn grid2_choose_prefers_square() {
        assert_eq!(Grid2::choose(16), Grid2::new(4, 4));
        assert_eq!(Grid2::choose(12).procs(), 12);
        let g = Grid2::choose(7);
        assert_eq!(g.procs(), 7); // prime: 1×7 or 7×1
        assert_eq!(Grid2::choose(1), Grid2::new(1, 1));
    }

    #[test]
    fn summa_bandwidth_worse_than_3d_for_cubes() {
        // The point of E8: on the same P, SUMMA moves ~(n²/√P) words per
        // rank vs 3D's (n³/P)^{2/3}. For n=32, P=8: 2D ≈ 362, 3D ≈ 256
        // times constants; just check 2D strictly exceeds 3D here.
        use crate::brick::{BrickA, BrickB};
        use crate::dmm3d::{dmm3d, Grid3};
        let n = 32;
        let p = 8;
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);

        let grid2 = Grid2::new(2, 4);
        let m2 = Machine::new(p, CostParams::unit());
        let w2d = m2
            .run(|rank| {
                let w = rank.world();
                let a_loc = summa_local_a(&a, grid2, w.rank());
                let b_loc = summa_local_b(&b, grid2, w.rank());
                summa2d(rank, &w, grid2, &a_loc, &b_loc, n, n, n)
            })
            .stats
            .critical()
            .words;

        let grid3 = Grid3::new(2, 2, 2);
        let brick_a = BrickA::new(grid3, n, n, p);
        let brick_b = BrickB::new(grid3, n, n, p);
        let m3 = Machine::new(p, CostParams::unit());
        let w3d = m3
            .run(|rank| {
                let w = rank.world();
                let (q, r, s) = grid3.coords(w.rank()).unwrap();
                let (ar, ac) = brick_a.block_of(q, r, s);
                let (br, bc) = brick_b.block_of(q, r, s);
                let a_loc = a.submatrix(ar.start, ar.end, ac.start, ac.end);
                let b_loc = b.submatrix(br.start, br.end, bc.start, bc.end);
                dmm3d(rank, &w, grid3, &a_loc, &b_loc, n, n, n)
            })
            .stats
            .critical()
            .words;

        assert!(
            w3d < w2d,
            "3D bandwidth ({w3d}) should beat 2D SUMMA ({w2d}) on a cube"
        );
    }
}
