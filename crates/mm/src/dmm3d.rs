//! 3D matrix multiplication (paper Section 4, Lemma 4; Appendix B).
//!
//! "The algorithm proceeds with all-gathers of blocks of A and B along
//! processor grid fibers in the Q- and R-directions, then local mms, then
//! finally reduce-scatters of blocks of C along processor grid fibers in
//! the S-direction."
//!
//! Bandwidth cost `O((IJK/P)^{2/3})` — asymptotically less than any 2D
//! algorithm — at latency `O(log P)`. This is what 3D-CAQR-EG leverages
//! for its Theorem 1 bandwidth bound.

use qr3d_collectives::bidir::{all_gather_into, message_cap, reduce_scatter_in_place};
use qr3d_machine::{Comm, Rank};
use qr3d_matrix::gemm::Trans;
use qr3d_matrix::partition::{balanced_range, balanced_ranges};
use qr3d_matrix::scratch::{put_matrix, take_matrix};
use qr3d_matrix::Matrix;

use crate::brick::{BrickA, BrickB, BrickC, DistLayout};
use crate::local::mm_local_into;
use crate::redist::redistribute;

/// A `Q × R × S` logical processor grid. Flat rank of `(q, r, s)` is
/// `q·R·S + r·S + s`; ranks `≥ Q·R·S` are idle ("we arrange QRS processors
/// in a grid and set the remaining T processors aside").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid3 {
    /// Extent in the I (left-operand rows) direction.
    pub q: usize,
    /// Extent in the J (right-operand columns) direction.
    pub r: usize,
    /// Extent in the K (contraction) direction.
    pub s: usize,
}

impl Grid3 {
    /// A grid with the given extents (each ≥ 1).
    pub fn new(q: usize, r: usize, s: usize) -> Self {
        assert!(q >= 1 && r >= 1 && s >= 1, "grid extents must be positive");
        Grid3 { q, r, s }
    }

    /// Number of active processors `Q·R·S`.
    pub fn procs(&self) -> usize {
        self.q * self.r * self.s
    }

    /// Flat rank of grid coordinates.
    pub fn flat(&self, q: usize, r: usize, s: usize) -> usize {
        debug_assert!(q < self.q && r < self.r && s < self.s);
        q * self.r * self.s + r * self.s + s
    }

    /// Grid coordinates of a flat rank, or `None` for idle ranks.
    pub fn coords(&self, flat: usize) -> Option<(usize, usize, usize)> {
        if flat >= self.procs() {
            return None;
        }
        let q = flat / (self.r * self.s);
        let rem = flat % (self.r * self.s);
        Some((q, rem / self.s, rem % self.s))
    }

    /// Choose grid extents for an `I × J × K` multiplication brick on `p`
    /// processors, per Lemma 4's proof: `Q = ⌊I/ρ⌋, R = ⌊J/ρ⌋, S = ⌊K/ρ⌋`
    /// with `ρ = (IJK/P)^{1/3}`, clamped to valid positive extents with
    /// `Q·R·S ≤ p`.
    pub fn choose(i: usize, j: usize, k: usize, p: usize) -> Grid3 {
        assert!(i >= 1 && j >= 1 && k >= 1 && p >= 1);
        let rho = ((i as f64 * j as f64 * k as f64) / p as f64)
            .cbrt()
            .max(1.0);
        let clamp = |d: usize| (((d as f64) / rho).floor() as usize).clamp(1, d);
        let (mut q, mut r, mut s) = (clamp(i), clamp(j), clamp(k));
        // Enforce Q·R·S ≤ p by shrinking the largest extent.
        while q * r * s > p {
            if q >= r && q >= s && q > 1 {
                q -= 1;
            } else if r >= s && r > 1 {
                r -= 1;
            } else if s > 1 {
                s -= 1;
            } else {
                q = 1; // p == 0 impossible; all dims 1 satisfies QRS=1 ≤ p
            }
        }
        Grid3 { q, r, s }
    }
}

/// The sub-communicator of a grid fiber through this rank, along the given
/// axis (0 = vary q, 1 = vary r, 2 = vary s). Returns `None` on idle
/// ranks. Fiber membership is a pure function of the grid, so this costs
/// no communication.
fn fiber(comm: &Comm, grid: Grid3, axis: usize) -> Option<Comm> {
    let (q, r, s) = grid.coords(comm.rank())?;
    let members: Vec<usize> = match axis {
        0 => (0..grid.q).map(|qq| grid.flat(qq, r, s)).collect(),
        1 => (0..grid.r).map(|rr| grid.flat(q, rr, s)).collect(),
        2 => (0..grid.s).map(|ss| grid.flat(q, r, ss)).collect(),
        _ => unreachable!("axis must be 0, 1, or 2"),
    };
    comm.subset(&members)
}

/// 3D `dmm` (Lemma 4): multiply `A` (`I × K`, in [`BrickA`] layout) by `B`
/// (`K × J`, in [`BrickB`] layout), returning this rank's [`BrickC`] block
/// of `C = A·B`. Idle ranks (beyond the grid) pass empty matrices and get
/// an empty block back.
///
/// `a_local` / `b_local` must be the dense blocks described by
/// `BrickA::block_of` / `BrickB::block_of` for this rank. The returned
/// block's buffer comes from the rank's workspace; a caller that is done
/// with it can `put` it back.
pub fn dmm3d(
    rank: &mut Rank,
    comm: &Comm,
    grid: Grid3,
    a_local: &Matrix,
    b_local: &Matrix,
    i: usize,
    j: usize,
    k: usize,
) -> Matrix {
    assert!(grid.procs() <= comm.size(), "grid larger than communicator");
    let coords = match grid.coords(comm.rank()) {
        Some(c) => c,
        None => {
            assert_eq!(a_local.rows() * a_local.cols(), 0, "idle rank holds A data");
            assert_eq!(b_local.rows() * b_local.cols(), 0, "idle rank holds B data");
            return Matrix::zeros(0, 0);
        }
    };
    let (q, r, s) = coords;
    let iq = balanced_range(i, grid.q, q);
    let jr = balanced_range(j, grid.r, r);
    let ks = balanced_range(k, grid.s, s);
    // Every message of the three exchanges below takes the capacity of
    // the largest on any fiber, so a buffer that moved to another rank
    // fits what that rank sends next. Balanced parts shrink with their
    // index, so the largest messages run on the fibers through grid
    // coordinate 0.
    let sizes = |n: usize, parts: usize, width: usize| -> Vec<usize> {
        balanced_ranges(n, parts)
            .iter()
            .map(|p| p.len() * width)
            .collect()
    };
    let (i0, j0, k0) = (i.div_ceil(grid.q), j.div_ceil(grid.r), k.div_ceil(grid.s));
    let cap = [
        sizes(i0, grid.r, k0),
        sizes(k0, grid.q, j0),
        sizes(i0, grid.s, j0),
    ]
    .iter()
    .map(|s| message_cap(s))
    .max()
    .unwrap_or(0);

    // All-gather A[I_q, K_s] along the R fiber (blocks are contiguous row
    // slices of I_q, stacked in r order — so the flat rank-ordered result
    // *is* the gathered matrix, no reassembly). The gathered operands,
    // the local product and every message come from the workspace.
    let a_fiber = fiber(comm, grid, 1).expect("active rank has a fiber");
    let a_row_parts = balanced_ranges(iq.len(), grid.r);
    let a_sizes = sizes(iq.len(), grid.r, ks.len());
    assert_eq!(a_local.rows(), a_row_parts[r].len(), "A block row count");
    assert_eq!(a_local.cols(), ks.len(), "A block col count");
    let mut a_full = take_matrix(rank.workspace(), iq.len(), ks.len());
    all_gather_into(
        rank,
        &a_fiber,
        a_local.as_slice(),
        &a_sizes,
        a_full.as_mut_slice(),
        cap,
    );

    // All-gather B[K_s, J_r] along the Q fiber.
    let b_fiber = fiber(comm, grid, 0).expect("active rank has a fiber");
    let b_row_parts = balanced_ranges(ks.len(), grid.q);
    let b_sizes = sizes(ks.len(), grid.q, jr.len());
    assert_eq!(b_local.rows(), b_row_parts[q].len(), "B block row count");
    assert_eq!(b_local.cols(), jr.len(), "B block col count");
    let mut b_full = take_matrix(rank.workspace(), ks.len(), jr.len());
    all_gather_into(
        rank,
        &b_fiber,
        b_local.as_slice(),
        &b_sizes,
        b_full.as_mut_slice(),
        cap,
    );

    // Local multiply: Z_{I_q, J_r, s} = A[I_q, K_s] · B[K_s, J_r].
    let mut z = take_matrix(rank.workspace(), iq.len(), jr.len());
    mm_local_into(rank, Trans::No, Trans::No, &a_full, &b_full, &mut z);
    put_matrix(rank.workspace(), a_full);
    put_matrix(rank.workspace(), b_full);

    // Reduce-scatter Z along the S fiber: the per-s blocks are contiguous
    // row ranges of Z, so Z's own buffer is the rank-ordered input, and
    // this rank's reduced rows move to its front to become the result.
    let c_fiber = fiber(comm, grid, 2).expect("active rank has a fiber");
    let c_row_parts = balanced_ranges(iq.len(), grid.s);
    let c_sizes = sizes(iq.len(), grid.s, jr.len());
    let mut z = z.into_vec();
    let mine = reduce_scatter_in_place(rank, &c_fiber, &mut z, &c_sizes, cap);
    let len = mine.len();
    z.copy_within(mine, 0);
    z.truncate(len);
    Matrix::from_vec(c_row_parts[s].len(), jr.len(), z)
}

/// 3D `dmm` with the Section 7.2 redistribution wrappers: inputs arrive in
/// arbitrary layouts, are converted to brick layouts by a two-phase
/// all-to-all, multiplied with [`dmm3d`], and the product is converted to
/// `c_layout` by another all-to-all. Returns this rank's local `C` buffer
/// in `c_layout` order, from the rank's workspace; every intermediate
/// buffer goes back there.
pub fn dmm3d_redistributed(
    rank: &mut Rank,
    comm: &Comm,
    a_local: &[f64],
    a_layout: &dyn DistLayout,
    b_local: &[f64],
    b_layout: &dyn DistLayout,
    c_layout: &dyn DistLayout,
) -> Vec<f64> {
    let p = comm.size();
    let (i, k) = (a_layout.rows(), a_layout.cols());
    let (kb, j) = (b_layout.rows(), b_layout.cols());
    assert_eq!(k, kb, "dmm: inner dimension mismatch");
    assert_eq!(c_layout.rows(), i, "dmm: C rows");
    assert_eq!(c_layout.cols(), j, "dmm: C cols");

    let grid = Grid3::choose(i, j, k, p);
    let brick_a = BrickA::new(grid, i, k, p);
    let brick_b = BrickB::new(grid, k, j, p);
    let brick_c = BrickC::new(grid, i, j, p);

    let a_brick = redistribute(rank, comm, a_local, a_layout, &brick_a);
    let b_brick = redistribute(rank, comm, b_local, b_layout, &brick_b);

    let me = comm.rank();
    let (a_mat, b_mat) = match grid.coords(me) {
        Some((q, r, s)) => {
            let (ar, ac) = brick_a.block_of(q, r, s);
            let (br, bc) = brick_b.block_of(q, r, s);
            (
                Matrix::from_vec(ar.len(), ac.len(), a_brick),
                Matrix::from_vec(br.len(), bc.len(), b_brick),
            )
        }
        None => (Matrix::zeros(0, 0), Matrix::zeros(0, 0)),
    };

    let c_mat = dmm3d(rank, comm, grid, &a_mat, &b_mat, i, j, k);
    put_matrix(rank.workspace(), a_mat);
    put_matrix(rank.workspace(), b_mat);
    let c = redistribute(rank, comm, c_mat.as_slice(), &brick_c, c_layout);
    put_matrix(rank.workspace(), c_mat);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brick::RowCyclicDist;
    use qr3d_machine::{CostParams, Machine};
    use qr3d_matrix::gemm::matmul;
    use qr3d_matrix::layout::RowCyclic;

    #[test]
    fn grid_flat_coords_roundtrip() {
        let g = Grid3::new(2, 3, 4);
        assert_eq!(g.procs(), 24);
        for f in 0..24 {
            let (q, r, s) = g.coords(f).unwrap();
            assert_eq!(g.flat(q, r, s), f);
        }
        assert_eq!(g.coords(24), None);
    }

    #[test]
    fn grid_choose_respects_bounds() {
        for (i, j, k, p) in [
            (64, 64, 64, 8),
            (64, 64, 64, 27),
            (1000, 10, 10, 16),
            (4, 4, 4, 64),
            (1, 1, 1, 5),
        ] {
            let g = Grid3::choose(i, j, k, p);
            assert!(g.procs() <= p, "grid {g:?} exceeds p={p}");
            assert!(g.q <= i && g.r <= j && g.s <= k, "grid {g:?} exceeds dims");
            assert!(g.q >= 1 && g.r >= 1 && g.s >= 1);
        }
    }

    #[test]
    fn grid_choose_is_cubic_for_cubic_problems() {
        let g = Grid3::choose(512, 512, 512, 27);
        assert_eq!((g.q, g.r, g.s), (3, 3, 3));
        let g = Grid3::choose(512, 512, 512, 8);
        assert_eq!((g.q, g.r, g.s), (2, 2, 2));
    }

    #[test]
    fn grid_choose_is_1d_for_tall_skinny_products() {
        // I ≫ J, K: the grid should stretch along I.
        let g = Grid3::choose(4096, 8, 8, 8);
        assert!(g.q >= 4, "expected I-stretched grid, got {g:?}");
        assert_eq!(g.r * g.s, g.procs() / g.q);
    }

    fn run_dmm3d(i: usize, j: usize, k: usize, grid: Grid3, p: usize) {
        let a = Matrix::random(i, k, 100);
        let b = Matrix::random(k, j, 101);
        let expect = matmul(&a, &b);
        let brick_a = BrickA::new(grid, i, k, p);
        let brick_b = BrickB::new(grid, k, j, p);
        let brick_c = BrickC::new(grid, i, j, p);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let me = w.rank();
            let (a_loc, b_loc) = match grid.coords(me) {
                Some((q, r, s)) => {
                    let (ar, ac) = brick_a.block_of(q, r, s);
                    let (br, bc) = brick_b.block_of(q, r, s);
                    (
                        a.submatrix(ar.start, ar.end, ac.start, ac.end),
                        b.submatrix(br.start, br.end, bc.start, bc.end),
                    )
                }
                None => (Matrix::zeros(0, 0), Matrix::zeros(0, 0)),
            };
            dmm3d(rank, &w, grid, &a_loc, &b_loc, i, j, k)
        });
        // Assemble C from brick blocks and compare.
        let mut c = Matrix::zeros(i, j);
        for rank in 0..p {
            if let Some((q, r, s)) = grid.coords(rank) {
                let (rows, cols) = brick_c.block_of(q, r, s);
                c.set_submatrix(rows.start, cols.start, &out.results[rank]);
            }
        }
        let err = c.sub(&expect).max_abs();
        assert!(err < 1e-11, "dmm3d {i}x{j}x{k} on {grid:?}: err {err}");
    }

    #[test]
    fn dmm3d_correct_on_various_grids() {
        run_dmm3d(8, 8, 8, Grid3::new(2, 2, 2), 8);
        run_dmm3d(13, 9, 11, Grid3::new(2, 2, 2), 8);
        run_dmm3d(16, 4, 16, Grid3::new(2, 1, 4), 8);
        run_dmm3d(6, 6, 6, Grid3::new(1, 1, 1), 1);
        run_dmm3d(10, 10, 10, Grid3::new(3, 2, 1), 7); // one idle rank
        run_dmm3d(12, 5, 7, Grid3::new(2, 2, 2), 9);
    }

    #[test]
    fn dmm3d_redistributed_row_cyclic_to_row_cyclic() {
        for p in [1usize, 4, 8] {
            let (i, j, k) = (24, 10, 16);
            let a = Matrix::random(i, k, 7);
            let b = Matrix::random(k, j, 8);
            let expect = matmul(&a, &b);
            let a_lay = RowCyclicDist::new(i, k, p);
            let b_lay = RowCyclicDist::new(k, j, p);
            let c_lay = RowCyclicDist::new(i, j, p);
            let machine = Machine::new(p, CostParams::unit());
            let out = machine.run(|rank| {
                let w = rank.world();
                let me = w.rank();
                let a_loc = RowCyclic::new(i, k, p).scatter_from_full(&a, me);
                let b_loc = RowCyclic::new(k, j, p).scatter_from_full(&b, me);
                dmm3d_redistributed(
                    rank,
                    &w,
                    a_loc.as_slice(),
                    &a_lay,
                    b_loc.as_slice(),
                    &b_lay,
                    &c_lay,
                )
            });
            let layout = RowCyclic::new(i, j, p);
            let locals: Vec<Matrix> = out
                .results
                .iter()
                .enumerate()
                .map(|(r, v)| Matrix::from_vec(layout.local_count(r), j, v.clone()))
                .collect();
            let c = layout.gather_to_full(&locals);
            let err = c.sub(&expect).max_abs();
            assert!(err < 1e-11, "p={p}: err {err}");
        }
    }

    #[test]
    fn dmm3d_bandwidth_scales_as_two_thirds_power() {
        // Lemma 4: W = O((IJK/P)^{2/3}). Doubling all dims (8× flops) on
        // the same P should grow W by ≈ 4×, not 8×.
        let p = 8;
        let grid = Grid3::new(2, 2, 2);
        let measure = |n: usize| {
            let brick_a = BrickA::new(grid, n, n, p);
            let brick_b = BrickB::new(grid, n, n, p);
            let a = Matrix::random(n, n, 1);
            let b = Matrix::random(n, n, 2);
            let machine = Machine::new(p, CostParams::unit());
            let out = machine.run(|rank| {
                let w = rank.world();
                let (q, r, s) = grid.coords(w.rank()).unwrap();
                let (ar, ac) = brick_a.block_of(q, r, s);
                let (br, bc) = brick_b.block_of(q, r, s);
                let a_loc = a.submatrix(ar.start, ar.end, ac.start, ac.end);
                let b_loc = b.submatrix(br.start, br.end, bc.start, bc.end);
                dmm3d(rank, &w, grid, &a_loc, &b_loc, n, n, n)
            });
            out.stats.critical().words
        };
        let w1 = measure(16);
        let w2 = measure(32);
        let ratio = w2 / w1;
        assert!(
            ratio < 5.5,
            "bandwidth ratio {ratio} should be ≈ 4 (two-thirds power), well below 8"
        );
        assert!(ratio > 2.5, "bandwidth ratio {ratio} suspiciously small");
    }
}
