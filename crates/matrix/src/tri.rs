//! Triangular solves, Cholesky, and the sign-altered LU factorization used
//! by TSQR's Householder reconstruction (paper Appendix C.2, [BDG+15,
//! Lemma 6.2]).
//!
//! The left [`trsm`] and [`potrf`] hand the `O(n²·rhs)` bulk of their
//! work to the cache-blocked [`gemm`]; small problems (below
//! [`TRI_THRESHOLD`] multiply-adds) take the scalar reference paths
//! directly. The right [`trsm`] is a kernel of its own at every size.
//! [`trsm_reference`] and [`potrf_reference`] stay available as the
//! correctness baselines and benchmark references.
//!
//! * **Left solves and Cholesky** partition the triangle into
//!   [`TRI_NB`]-wide tiles, solve/factor the diagonal tiles with scalar
//!   inner kernels and update the rest with one multiply per tile — the
//!   standard blocked LAPACK structure, operands staged in arena
//!   scratch.
//! * **Right solves** (`X·op(A) = B` — TSQR's `V = W·U⁻¹`,
//!   CholeskyQR's `Q = A·R⁻¹`: few columns, very many rows) are one
//!   left-looking, register-blocked kernel ([`trsm_right_in_place`],
//!   [`trsm_right_into`]): `op(A)` is packed once in the order the solve
//!   reads it, and then, eight rows and eight destination columns at a
//!   time, every already-solved column is folded into the block in
//!   registers, the block is substituted there, and the result is
//!   stored once. Each entry of `X` is written once and `B` is read
//!   once, where the rows lie. The kernel is fixed-width `f64::mul_add`
//!   loops in which every entry sees the same operations in the same
//!   order, compiled once per [`crate::simd::SimdLevel`] so that FMA
//!   instructions run whatever the build's target — a fused
//!   multiply-add rounds once wherever it executes, so the bits do not
//!   depend on the SIMD level. The allocating form solves out of place
//!   into the `X` it returns.

use std::ops::Range;

use crate::dense::{MatMut, MatRef, Matrix};
use crate::gemm::{gemm, Trans};
use crate::scratch::{put_matrix, take_matrix, with_thread_arena, ScratchArena};
use crate::simd::{self, per_simd_level, SimdLevel};

/// Which side the triangular matrix multiplies from in [`trsm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Solve `op(A)·X = B`.
    Left,
    /// Solve `X·op(A) = B`.
    Right,
}

/// Which triangle of `A` holds the data in [`trsm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uplo {
    /// `A` is lower triangular.
    Lower,
    /// `A` is upper triangular.
    Upper,
}

/// Diagonal-tile width of the blocked [`trsm`]/[`potrf`].
pub const TRI_NB: usize = 32;

/// Below this many multiply-adds the tiled left solve and Cholesky are
/// not worth their staging and the scalar reference paths run instead.
pub const TRI_THRESHOLD: usize = 32 * 1024;

/// Triangular solve (BLAS `trsm`): returns `X` such that `op(A)·X = B`
/// (`Side::Left`) or `X·op(A) = B` (`Side::Right`), where `op(A) = Aᵀ`
/// if `transpose` and `A` otherwise; `unit_diag` treats `A`'s diagonal
/// as ones without reading it. Blocked (see module docs); scratch comes
/// from the calling thread's arena — use [`trsm_ws`] to pass an
/// explicit one.
///
/// # Panics
/// On shape mismatch or a zero pivot (non-unit diagonal only).
pub fn trsm(
    side: Side,
    uplo: Uplo,
    transpose: bool,
    unit_diag: bool,
    a: &Matrix,
    b: &Matrix,
) -> Matrix {
    let n = a.rows();
    // The tiled left solve needs a few tiles to pay for its staging;
    // the right solve has one kernel for every size.
    let small =
        matches!(side, Side::Left) && (n * n / 2 * b.cols() < TRI_THRESHOLD || n < 2 * TRI_NB);
    if small {
        trsm_reference(side, uplo, transpose, unit_diag, a, b)
    } else {
        with_thread_arena(|ws| trsm_ws(ws, side, uplo, transpose, unit_diag, a, b))
    }
}

/// [`trsm`] with an explicit scratch arena (always the blocked path).
/// Allocates only the returned `X`: the left solve stages its tiles in
/// arena scratch, the right solve ([`trsm_right_into`]) packs its
/// triangle where [`gemm`] packs its right operand.
pub fn trsm_ws(
    ws: &mut dyn ScratchArena,
    side: Side,
    uplo: Uplo,
    transpose: bool,
    unit_diag: bool,
    a: &Matrix,
    b: &Matrix,
) -> Matrix {
    assert_eq!(a.rows(), a.cols(), "trsm: A must be square");
    match side {
        Side::Left => {
            let mut x = b.clone();
            solve_left_blocked(ws, uplo, transpose, unit_diag, a, &mut x);
            x
        }
        Side::Right => {
            let mut x = Matrix::zeros(b.rows(), b.cols());
            trsm_right_into(uplo, transpose, unit_diag, a, b.view(), x.view_mut());
            x
        }
    }
}

/// Width of the column blocks — and height of the row groups — of the
/// right solve: one 64-byte line of `f64`, the width its row
/// operations are compiled for.
pub const TRSM_BLOCK: usize = 8;

/// Words one destination block occupies in the packed triangle beyond
/// its fold rows: the scaled diagonal block and the pivot reciprocals.
const DIAG_WORDS: usize = (TRSM_BLOCK + 1) * TRSM_BLOCK;

/// Solve `X·op(A) = B` in place: `x` holds `B` on entry and `X` on
/// return, and may be any block of rows of a larger matrix.
///
/// Left-looking and register-blocked. `op(A)` is packed once per call
/// into the order the solve reads it (in [`crate::gemm`]'s per-thread
/// buffer for a packed right operand). Then, per group of
/// [`TRSM_BLOCK`] rows and per block of [`TRSM_BLOCK`] destination
/// columns, `B[:, dst] − Σ X[:, src]·op(A)[src, dst]` is accumulated
/// over *all* already-solved columns in registers, the block is
/// substituted there, and the result is stored once — each entry of
/// `x` is read once as `B` and written once as `X`. Pivots divide by
/// multiplication with their reciprocals, folded into the block's
/// coefficients when the triangle is packed (a relative perturbation
/// of `A` by one rounding per entry).
///
/// A row never meets another row's data, so its bits do not depend on
/// which group it is solved in, and a non-finite entry of `B` reaches
/// only its own row — there, the columns solved after it and, wider
/// than [`trsm_reference`], the rest of its own [`TRSM_BLOCK`]-column
/// block: the substitution multiplies whole blocks, and `0·NaN` is
/// NaN. The two register loops are fixed-width `f64::mul_add`
/// source, compiled once for the build's own target and once each with
/// AVX2+FMA and AVX-512 enabled, and picked by
/// [`crate::simd::active_level`] — a build without `-C target-cpu`
/// runs FMA instructions wherever the CPU has them. A fused
/// multiply-add is correctly rounded whoever executes it, and every
/// entry sees the same operations in the same order at every level: the
/// bits do not depend on the SIMD level.
///
/// # Panics
/// If `A` is not square, `x` does not have `A`'s order as its column
/// count, or (non-unit diagonal only) a pivot has no finite reciprocal
/// — zero, or a subnormal so small that `1/pivot` overflows.
pub fn trsm_right_in_place(
    uplo: Uplo,
    transpose: bool,
    unit_diag: bool,
    a: &Matrix,
    x: MatMut<'_>,
) {
    solve_right(uplo, transpose, unit_diag, a, None, x);
}

/// [`trsm_right_in_place`] out of place: `b` is read and `x` written,
/// every word of `x` exactly once and none of them read before it is
/// written — `x` may be freshly allocated. Bit for bit the in-place
/// solve of a copy of `b`.
///
/// # Panics
/// As [`trsm_right_in_place`], or if `b` and `x` differ in shape.
pub fn trsm_right_into(
    uplo: Uplo,
    transpose: bool,
    unit_diag: bool,
    a: &Matrix,
    b: MatRef<'_>,
    x: MatMut<'_>,
) {
    assert_eq!(
        (b.rows(), b.cols()),
        (x.rows(), x.cols()),
        "trsm: B and X must have the same shape"
    );
    solve_right(uplo, transpose, unit_diag, a, Some(b), x);
}

/// The right solve behind both forms: `B` is `b`, or `x` itself.
fn solve_right(
    uplo: Uplo,
    transpose: bool,
    unit_diag: bool,
    a: &Matrix,
    b: Option<MatRef<'_>>,
    mut x: MatMut<'_>,
) {
    const NB: usize = TRSM_BLOCK;
    let n = a.rows();
    assert_eq!(a.cols(), n, "trsm: A must be square");
    assert_eq!(x.cols(), n, "trsm: B column count must match A");
    if !unit_diag {
        for i in 0..n {
            // The solve multiplies by 1/pivot: ±0 and the subnormals
            // whose reciprocal overflows are refused alike (a NaN
            // pivot is passed on, as the reference passes it on).
            let inv = 1.0 / a[(i, i)];
            assert!(!inv.is_infinite(), "trsm: zero pivot at {i}");
        }
    }
    let rows = x.rows();
    if n == 0 || rows == 0 {
        return;
    }
    // op(A) upper triangular: columns are solved left to right.
    let upper = matches!(uplo, Uplo::Upper) != transpose;
    let level = simd::active_level();
    let full = rows - rows % NB;
    let tri_len: usize = blocks_in_solve_order(n, upper)
        .map(|(_, _, solved)| solved.len() * NB + DIAG_WORDS)
        .sum();
    // A ragged last group is solved in a staging block of full height.
    let stage_len = if full < rows { NB * n } else { 0 };
    crate::gemm::with_pack_b(tri_len + stage_len, |buf| {
        let (tri, stage) = buf.split_at_mut(tri_len);
        pack_right(tri, upper, transpose, unit_diag, a);
        let ld = x.ld();
        let xs = x.span_mut();
        for i0 in (0..full).step_by(NB) {
            let bg = b.map(|b| b.block(i0, i0 + NB, 0, n));
            solve_group(level, tri, upper, n, bg, &mut xs[i0 * ld..], ld);
        }
        if full < rows {
            // The spare rows are zero: the same kernel, and row for
            // row the same arithmetic.
            let (used, spare) = stage.split_at_mut((rows - full) * n);
            for (i, dst) in (full..rows).zip(used.chunks_exact_mut(n)) {
                dst.copy_from_slice(match b {
                    Some(b) => b.row(i),
                    None => &xs[i * ld..i * ld + n],
                });
            }
            spare.fill(0.0);
            solve_group(level, tri, upper, n, None, stage, n);
            for (i, src) in (full..rows).zip(stage.chunks_exact(n)) {
                xs[i * ld..i * ld + n].copy_from_slice(src);
            }
        }
    });
}

/// The destination blocks of an order-`n` right solve in the order they
/// are solved (left to right for an upper triangular `op(A)`): first
/// column, width, and the columns solved before the block.
fn blocks_in_solve_order(
    n: usize,
    upper: bool,
) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let blocks = n.div_ceil(TRSM_BLOCK);
    (0..blocks).map(move |step| {
        let c0 = TRSM_BLOCK * if upper { step } else { blocks - 1 - step };
        let w = TRSM_BLOCK.min(n - c0);
        (c0, w, if upper { 0..c0 } else { c0 + w..n })
    })
}

/// Pack `op(A)` for the right solve, destination block by destination
/// block in solve order. A block of columns `c0..c0 + w` contributes
/// one row of [`TRSM_BLOCK`] words per already-solved column `k`
/// (`op(A)[k, c0..c0 + w]`, in increasing `k`), then its diagonal block
/// — row `j` holding `op(A)[c0 + j, c0 + l] / op(A)[c0 + j, c0 + j]`
/// for the columns `l` solved after `j` and zero elsewhere — then the
/// reciprocals of its pivots. Lanes past `w` are zero (reciprocals:
/// one), so a ragged last block runs the full-width kernel.
fn pack_right(out: &mut [f64], upper: bool, transpose: bool, unit_diag: bool, a: &Matrix) {
    const NB: usize = TRSM_BLOCK;
    let at = |i: usize, k: usize| if transpose { a[(k, i)] } else { a[(i, k)] };
    let mut rows = out.chunks_exact_mut(NB);
    let mut next_row = || rows.next().expect("the packed triangle's length");
    for (c0, w, solved) in blocks_in_solve_order(a.rows(), upper) {
        for k in solved {
            let row = next_row();
            for (l, v) in row.iter_mut().enumerate() {
                *v = if l < w { at(k, c0 + l) } else { 0.0 };
            }
        }
        let mut inv = [1.0f64; NB];
        for j in 0..NB {
            if j < w && !unit_diag {
                inv[j] = 1.0 / at(c0 + j, c0 + j);
            }
            let row = next_row();
            for (l, v) in row.iter_mut().enumerate() {
                let after = if upper { l > j } else { l < j };
                *v = if after && j < w && l < w {
                    inv[j] * at(c0 + j, c0 + l)
                } else {
                    0.0
                };
            }
        }
        next_row().copy_from_slice(&inv);
    }
}

/// Solve one group of [`TRSM_BLOCK`] rows — `x` from the group's first
/// row, at row stride `ld` — against the packed triangle; `B` is `b`,
/// or `x` itself.
fn solve_group(
    level: SimdLevel,
    tri: &[f64],
    upper: bool,
    n: usize,
    b: Option<MatRef<'_>>,
    x: &mut [f64],
    ld: usize,
) {
    const NB: usize = TRSM_BLOCK;
    let mut panels = tri;
    for (c0, w, solved) in blocks_in_solve_order(n, upper) {
        let (fold, rest) = panels.split_at(solved.len() * NB);
        let (diag, rest) = rest.split_at(DIAG_WORDS);
        panels = rest;
        // One destination block: fold every solved column into the
        // block's `B`, substitute inside it, store it.
        let mut acc: Tile = std::array::from_fn(|r| {
            load_lanes(match b {
                Some(b) => &b.row(r)[c0..c0 + w],
                None => &x[r * ld + c0..r * ld + c0 + w],
            })
        });
        // The rows' solved entries, one slice of the fold's length per row.
        let xk: [&[f64]; NB] =
            std::array::from_fn(|r| &x[r * ld + solved.start..r * ld + solved.end]);
        fold_solved(level, &mut acc, fold, &xk);
        substitute(level, upper, &mut acc, diag);
        for r in 0..NB {
            store_lanes(&acc[r], &mut x[r * ld + c0..r * ld + c0 + w]);
        }
    }
}

/// The register tile of the right solve: one [`TRSM_BLOCK`]-wide
/// vector per row of the group.
type Tile = [[f64; TRSM_BLOCK]; TRSM_BLOCK];

per_simd_level! {
    /// `acc[r] −= Σₖ xk[r][k]·fold[k]`: the solved columns folded into
    /// one destination block.
    fn fold_solved(acc: &mut Tile, fold: &[f64], xk: &[&[f64]; TRSM_BLOCK]) = fold_rows::<TRSM_BLOCK, 4, TRSM_BLOCK>
}

per_simd_level! {
    /// Substitution inside a destination block, in solve order: lane
    /// `j` is final (up to its pivot) once every lane solved before it
    /// has been eliminated from it; then every lane is scaled by its
    /// pivot's reciprocal.
    fn substitute(upper: bool, acc: &mut Tile, diag: &[f64]) = substitute_rows::<TRSM_BLOCK, 4, TRSM_BLOCK>
}

/// [`fold_solved`], `ROWS` rows of the tile at a time — all eight, or
/// under AVX2 four, twice: sixteen 256-bit registers do not hold the
/// whole tile beside its operands. The rows live in
/// a local that is only ever indexed by constants, so the compiler
/// holds them in registers for the whole loop and emits one fused
/// multiply-add per vector.
#[inline(always)]
fn fold_rows<const ROWS: usize>(acc: &mut Tile, fold: &[f64], xk: &[&[f64]; TRSM_BLOCK]) {
    for (acc, xk) in acc.chunks_exact_mut(ROWS).zip(xk.chunks_exact(ROWS)) {
        let mut tile: [[f64; TRSM_BLOCK]; ROWS] = std::array::from_fn(|r| acc[r]);
        for (k, t) in fold.chunks_exact(TRSM_BLOCK).enumerate() {
            for r in 0..ROWS {
                let m = -xk[r][k];
                for l in 0..TRSM_BLOCK {
                    tile[r][l] = m.mul_add(t[l], tile[r][l]);
                }
            }
        }
        acc.copy_from_slice(&tile);
    }
}

/// [`substitute`], `ROWS` rows of the tile at a time.
#[inline(always)]
fn substitute_rows<const ROWS: usize>(upper: bool, acc: &mut Tile, diag: &[f64]) {
    const NB: usize = TRSM_BLOCK;
    let coef = |j: usize| -> &[f64; NB] {
        diag[j * NB..(j + 1) * NB]
            .try_into()
            .expect("a row of the diagonal block")
    };
    for acc in acc.chunks_exact_mut(ROWS) {
        let mut t: [[f64; NB]; ROWS] = std::array::from_fn(|r| acc[r]);
        if upper {
            eliminate::<0, ROWS>(&mut t, coef(0));
            eliminate::<1, ROWS>(&mut t, coef(1));
            eliminate::<2, ROWS>(&mut t, coef(2));
            eliminate::<3, ROWS>(&mut t, coef(3));
            eliminate::<4, ROWS>(&mut t, coef(4));
            eliminate::<5, ROWS>(&mut t, coef(5));
            eliminate::<6, ROWS>(&mut t, coef(6));
        } else {
            eliminate::<7, ROWS>(&mut t, coef(7));
            eliminate::<6, ROWS>(&mut t, coef(6));
            eliminate::<5, ROWS>(&mut t, coef(5));
            eliminate::<4, ROWS>(&mut t, coef(4));
            eliminate::<3, ROWS>(&mut t, coef(3));
            eliminate::<2, ROWS>(&mut t, coef(2));
            eliminate::<1, ROWS>(&mut t, coef(1));
        }
        let inv = coef(NB);
        for row in &mut t {
            for l in 0..NB {
                row[l] *= inv[l];
            }
        }
        acc.copy_from_slice(&t);
    }
}

/// Eliminate lane `J` from the lanes solved after it: `coef` is zero in
/// every other lane, which a finite multiplier leaves as it is (and a
/// NaN or an infinity in lane `J` does not — selecting the lanes
/// instead costs the solve 15 %).
#[inline(always)]
fn eliminate<const J: usize, const ROWS: usize>(
    acc: &mut [[f64; TRSM_BLOCK]; ROWS],
    coef: &[f64; TRSM_BLOCK],
) {
    for row in acc {
        let m = -row[J];
        for l in 0..TRSM_BLOCK {
            row[l] = m.mul_add(coef[l], row[l]);
        }
    }
}

/// `src` (at most [`TRSM_BLOCK`] words) as a full-width vector, zero
/// past its end.
#[inline(always)]
fn load_lanes(src: &[f64]) -> [f64; TRSM_BLOCK] {
    match <[f64; TRSM_BLOCK]>::try_from(src) {
        Ok(full) => full,
        Err(_) => std::array::from_fn(|l| src.get(l).copied().unwrap_or(0.0)),
    }
}

/// The leading `dst.len()` lanes of `v` into `dst`.
#[inline(always)]
fn store_lanes(v: &[f64; TRSM_BLOCK], dst: &mut [f64]) {
    match <&mut [f64; TRSM_BLOCK]>::try_from(&mut *dst) {
        Ok(full) => *full = *v,
        Err(_) => {
            for (d, s) in dst.iter_mut().zip(v) {
                *d = *s;
            }
        }
    }
}

/// The seed's scalar triangular solve, kept (like `gemm_reference`) as
/// the correctness baseline and benchmark reference for the blocked
/// [`trsm`]. Same contract.
pub fn trsm_reference(
    side: Side,
    uplo: Uplo,
    transpose: bool,
    unit_diag: bool,
    a: &Matrix,
    b: &Matrix,
) -> Matrix {
    assert_eq!(a.rows(), a.cols(), "trsm: A must be square");
    match side {
        Side::Left => solve_left(uplo, transpose, unit_diag, a, b),
        Side::Right => {
            // X·op(A) = B  ⟺  op(A)ᵀ·Xᵀ = Bᵀ.
            let xt = solve_left(uplo, !transpose, unit_diag, a, &b.transpose());
            xt.transpose()
        }
    }
}

/// Blocked left solve (left-looking), in place on `x`: for each
/// [`TRI_NB`]-row diagonal tile, one `gemm` with a long inner dimension
/// folds every already-solved block into the tile's right-hand sides,
/// then scalar substitution finishes the tile. The gemm's inner
/// dimension grows with the solve, so the packed microkernel dominates.
fn solve_left_blocked(
    ws: &mut dyn ScratchArena,
    uplo: Uplo,
    transpose: bool,
    unit_diag: bool,
    a: &Matrix,
    x: &mut Matrix,
) {
    let n = a.rows();
    assert_eq!(x.rows(), n, "trsm: B row count must match A");
    let rhs = x.cols();
    let nb = TRI_NB;
    // The effective matrix op(A) is lower triangular iff (lower XOR transpose).
    let eff_lower = matches!(uplo, Uplo::Lower) != transpose;
    let at = |i: usize, k: usize| if transpose { a[(k, i)] } else { a[(i, k)] };
    let nblocks = n.div_ceil(nb);
    for blk in 0..nblocks {
        // Tile rows i0..i1 in solve order (forward for effective-lower,
        // backward for effective-upper).
        let (i0, i1) = if eff_lower {
            (blk * nb, (blk * nb + nb).min(n))
        } else {
            let hi = n - blk * nb;
            (hi.saturating_sub(nb), hi)
        };
        let bw = i1 - i0;
        // Solved rows this tile depends on: everything before it in
        // solve order.
        let (d0, d1) = if eff_lower { (0, i0) } else { (i1, n) };
        if d0 < d1 && rhs > 0 {
            // X[i0..i1] −= op(A)[i0..i1, d0..d1] · X[d0..d1], one gemm.
            let mut tile = take_matrix(ws, bw, d1 - d0);
            for (r, i) in (i0..i1).enumerate() {
                let row = tile.row_mut(r);
                for (c, k) in (d0..d1).enumerate() {
                    row[c] = at(i, k);
                }
            }
            let mut xs = take_matrix(ws, d1 - d0, rhs);
            for (r, i) in (d0..d1).enumerate() {
                xs.row_mut(r).copy_from_slice(x.row(i));
            }
            let mut xt = take_matrix(ws, bw, rhs);
            for (r, i) in (i0..i1).enumerate() {
                xt.row_mut(r).copy_from_slice(x.row(i));
            }
            gemm(Trans::No, Trans::No, -1.0, &tile, &xs, 1.0, &mut xt);
            for (r, i) in (i0..i1).enumerate() {
                x.row_mut(i).copy_from_slice(xt.row(r));
            }
            put_matrix(ws, tile);
            put_matrix(ws, xs);
            put_matrix(ws, xt);
        }
        // Scalar substitution within the diagonal tile (in-tile deps
        // are ranges either side of the pivot row — no index buffers).
        let mut solve_row = |i: usize| {
            let deps = if eff_lower { i0..i } else { i + 1..i1 };
            for k in deps {
                let aik = at(i, k);
                if aik == 0.0 {
                    continue;
                }
                // x[i, :] -= aik · x[k, :] on the dispatched fused axpy.
                let (xi, xk) = x.row_pair_mut(i, k);
                crate::simd::fused_axpy(-aik, xk, xi);
            }
            if !unit_diag {
                let d = at(i, i);
                assert!(d != 0.0, "trsm: zero pivot at {i}");
                for j in 0..rhs {
                    x[(i, j)] /= d;
                }
            }
        };
        if eff_lower {
            for i in i0..i1 {
                solve_row(i);
            }
        } else {
            for i in (i0..i1).rev() {
                solve_row(i);
            }
        }
    }
}

fn solve_left(uplo: Uplo, transpose: bool, unit_diag: bool, a: &Matrix, b: &Matrix) -> Matrix {
    let n = a.rows();
    assert_eq!(b.rows(), n, "trsm: B row count must match A");
    // The effective matrix op(A) is lower triangular iff (lower XOR transpose).
    let eff_lower = matches!(uplo, Uplo::Lower) != transpose;
    let at = |i: usize, k: usize| if transpose { a[(k, i)] } else { a[(i, k)] };
    let mut x = b.clone();
    let idx: Vec<usize> = if eff_lower {
        (0..n).collect()
    } else {
        (0..n).rev().collect()
    };
    for &i in &idx {
        // Subtract contributions of already-solved rows.
        let deps: Vec<usize> = if eff_lower {
            (0..i).collect()
        } else {
            (i + 1..n).collect()
        };
        for &k in &deps {
            let aik = at(i, k);
            if aik == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                let xkj = x[(k, j)];
                x[(i, j)] -= aik * xkj;
            }
        }
        if !unit_diag {
            let d = at(i, i);
            assert!(d != 0.0, "trsm: zero pivot at {i}");
            for j in 0..b.cols() {
                x[(i, j)] /= d;
            }
        }
    }
    x
}

/// The sign-altered LU factorization of [BDG+15, Lemma 6.2], as described
/// in the paper's Appendix C.2: given square `X`, produce unit lower
/// triangular `L`, upper triangular `U`, and a diagonal sign matrix `S`
/// (returned as a vector of ±1) such that `X + S = L·U`.
///
/// Before eliminating column `j`, `S_jj = sgn(X̂_jj)` is added to the
/// diagonal, which makes the pivot magnitude `|X̂_jj| + 1 ≥ 1`: no pivoting
/// is ever needed, and when `X` is the top block of a matrix with
/// orthonormal columns the growth is provably benign.
pub fn lu_sign(x: &Matrix) -> (Matrix, Matrix, Vec<f64>) {
    let n = x.rows();
    assert_eq!(x.cols(), n, "lu_sign: X must be square");
    let mut work = x.clone();
    let mut l = Matrix::identity(n);
    let mut s = vec![0.0; n];
    for j in 0..n {
        let sj = if work[(j, j)] >= 0.0 { 1.0 } else { -1.0 };
        s[j] = sj;
        work[(j, j)] += sj;
        let pivot = work[(j, j)];
        for i in j + 1..n {
            let lij = work[(i, j)] / pivot;
            l[(i, j)] = lij;
            work[(i, j)] = 0.0;
            for k in j + 1..n {
                let wjk = work[(j, k)];
                work[(i, k)] -= lij * wjk;
            }
        }
    }
    let u = work.upper_triangular_part();
    (l, u, s)
}

/// Cholesky breakdown: the matrix handed to [`potrf`] was not (numerically)
/// positive definite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NotPositiveDefinite {
    /// Column at which elimination met a non-positive pivot.
    pub pivot: usize,
    /// The offending pivot value (`≤ 0`, or NaN).
    pub value: f64,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cholesky breakdown: pivot {} is {:.3e} (matrix not positive definite)",
            self.pivot, self.value
        )
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Cholesky factorization (LAPACK `potrf`, upper form): for symmetric
/// positive definite `G`, the upper-triangular `R` with `RᵀR = G`.
///
/// Reads only the upper triangle of `G`. Returns
/// [`Err(NotPositiveDefinite)`](NotPositiveDefinite) instead of panicking
/// when a pivot falls to or below `n·ε` times the largest diagonal entry
/// — i.e. when `G` is *numerically* not positive definite. (A strict
/// `pivot ≤ 0` test would let exactly-singular matrices squeak through on
/// rounding noise.) Breakdown is an *expected* outcome for CholeskyQR on
/// ill-conditioned inputs — the Gram matrix squares the condition number
/// — and callers use the error to fall back to a Householder algorithm.
///
/// # Panics
/// If `G` is not square.
pub fn potrf(g: &Matrix) -> Result<Matrix, NotPositiveDefinite> {
    let n = g.rows();
    if n * n / 2 * n / 3 < TRI_THRESHOLD || n < 2 * TRI_NB {
        potrf_reference(g)
    } else {
        with_thread_arena(|ws| potrf_ws(ws, g))
    }
}

/// [`potrf`] with an explicit scratch arena (always the blocked
/// right-looking path): unblocked Cholesky on each [`TRI_NB`] diagonal
/// tile, scalar forward substitution for its block row, and a
/// `gemm`-powered symmetric trailing update.
pub fn potrf_ws(ws: &mut dyn ScratchArena, g: &Matrix) -> Result<Matrix, NotPositiveDefinite> {
    let n = g.rows();
    assert_eq!(g.cols(), n, "potrf: G must be square");
    let mut r = g.upper_triangular_part();
    let nb = TRI_NB;
    let scale = (0..n).map(|i| g[(i, i)]).fold(0.0f64, f64::max);
    let tol = scale * f64::EPSILON * n as f64;
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + nb).min(n);
        // Unblocked Cholesky of the diagonal tile (global pivot indices,
        // same breakdown rule as the reference).
        for j in j0..j1 {
            let pivot = r[(j, j)];
            if pivot <= tol || pivot.is_nan() {
                return Err(NotPositiveDefinite {
                    pivot: j,
                    value: pivot,
                });
            }
            let d = pivot.sqrt();
            r[(j, j)] = d;
            for k in j + 1..j1 {
                r[(j, k)] /= d;
            }
            for i in j + 1..j1 {
                let rji = r[(j, i)];
                if rji == 0.0 {
                    continue;
                }
                for k in i..j1 {
                    let rjk = r[(j, k)];
                    r[(i, k)] -= rji * rjk;
                }
            }
        }
        if j1 < n {
            // Block row: solve R₁₁ᵀ·R₁₂ = G₁₂ in place (scalar forward
            // substitution — lower-order work).
            for i in j0..j1 {
                for k in j0..i {
                    let rki = r[(k, i)];
                    if rki == 0.0 {
                        continue;
                    }
                    for c in j1..n {
                        let rkc = r[(k, c)];
                        r[(i, c)] -= rki * rkc;
                    }
                }
                let d = r[(i, i)];
                for c in j1..n {
                    r[(i, c)] /= d;
                }
            }
            // Trailing update G₂₂ −= R₁₂ᵀ·R₁₂, upper triangle only:
            // per column block c0..c1, the rows needing updates are
            // j1..c1, i.e. R₁₂'s leading c1−j1 columns — so the flop
            // count stays at the half-syrk level while the work runs
            // through the blocked gemm.
            let (bw, nt) = (j1 - j0, n - j1);
            let mut r12 = take_matrix(ws, bw, nt);
            for (i, row) in (j0..j1).enumerate() {
                r12.row_mut(i).copy_from_slice(&r.row(row)[j1..n]);
            }
            let tb = 4 * nb;
            let mut c0 = j1;
            while c0 < n {
                let c1 = (c0 + tb).min(n);
                let rw = c1 - j1; // update rows j1..c1 (cols 0..rw of R₁₂)
                let mut a1 = take_matrix(ws, bw, rw);
                for i in 0..bw {
                    a1.row_mut(i).copy_from_slice(&r12.row(i)[..rw]);
                }
                let mut a2 = take_matrix(ws, bw, c1 - c0);
                for i in 0..bw {
                    a2.row_mut(i).copy_from_slice(&r12.row(i)[c0 - j1..c1 - j1]);
                }
                let mut s = take_matrix(ws, rw, c1 - c0);
                gemm(Trans::Yes, Trans::No, 1.0, &a1, &a2, 0.0, &mut s);
                for i in 0..rw {
                    let lo = (j1 + i).max(c0);
                    let dst = &mut r.row_mut(j1 + i)[lo..c1];
                    let src = &s.row(i)[lo - c0..c1 - c0];
                    for (d, v) in dst.iter_mut().zip(src) {
                        *d -= v;
                    }
                }
                put_matrix(ws, a1);
                put_matrix(ws, a2);
                put_matrix(ws, s);
                c0 = c1;
            }
            put_matrix(ws, r12);
        }
        j0 = j1;
    }
    Ok(r)
}

/// The seed's unblocked Cholesky, kept as the correctness baseline and
/// benchmark reference for the blocked [`potrf`]. Same contract.
pub fn potrf_reference(g: &Matrix) -> Result<Matrix, NotPositiveDefinite> {
    let n = g.rows();
    assert_eq!(g.cols(), n, "potrf: G must be square");
    let mut r = g.upper_triangular_part();
    // Relative breakdown threshold: eliminating a column of a PD matrix
    // can only shrink later pivots, so anything at rounding level of the
    // largest diagonal signals numerical indefiniteness.
    let scale = (0..n).map(|i| g[(i, i)]).fold(0.0f64, f64::max);
    let tol = scale * f64::EPSILON * n as f64;
    for j in 0..n {
        let pivot = r[(j, j)];
        if pivot <= tol || pivot.is_nan() {
            return Err(NotPositiveDefinite {
                pivot: j,
                value: pivot,
            });
        }
        let d = pivot.sqrt();
        r[(j, j)] = d;
        for k in j + 1..n {
            r[(j, k)] /= d;
        }
        for i in j + 1..n {
            let rji = r[(j, i)];
            if rji == 0.0 {
                continue;
            }
            for k in i..n {
                let rjk = r[(j, k)];
                r[(i, k)] -= rji * rjk;
            }
        }
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_tn};
    use crate::qr::{geqrt, thin_q};

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64, what: &str) {
        let err = a.sub(b).max_abs();
        assert!(err <= tol, "{what}: max abs err {err} > {tol}");
    }

    /// A well-conditioned triangular test matrix.
    fn tri(n: usize, uplo: Uplo, unit: bool, seed: u64) -> Matrix {
        let r = Matrix::random(n, n, seed);
        Matrix::from_fn(n, n, |i, j| {
            let keep = match uplo {
                Uplo::Lower => j <= i,
                Uplo::Upper => j >= i,
            };
            if i == j {
                if unit {
                    1.0
                } else {
                    2.0 + r[(i, j)].abs()
                }
            } else if keep {
                0.5 * r[(i, j)]
            } else {
                0.0
            }
        })
    }

    #[test]
    fn all_sixteen_trsm_variants_solve() {
        for side in [Side::Left, Side::Right] {
            for uplo in [Uplo::Lower, Uplo::Upper] {
                for transpose in [false, true] {
                    for unit in [false, true] {
                        let n = 6;
                        let a = tri(n, uplo, unit, 42);
                        let b = Matrix::random(n, 4, 43);
                        // For Right, B must be r × n; reshape.
                        let b = match side {
                            Side::Left => b,
                            Side::Right => b.transpose(),
                        };
                        let x = trsm(side, uplo, transpose, unit, &a, &b);
                        let opa = if transpose { a.transpose() } else { a.clone() };
                        let recovered = match side {
                            Side::Left => matmul(&opa, &x),
                            Side::Right => matmul(&x, &opa),
                        };
                        assert_close(
                            &recovered,
                            &b,
                            1e-11,
                            &format!("{side:?} {uplo:?} trans={transpose} unit={unit}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn trsm_identity_is_noop() {
        let b = Matrix::random(5, 3, 1);
        let x = trsm(
            Side::Left,
            Uplo::Upper,
            false,
            false,
            &Matrix::identity(5),
            &b,
        );
        assert_close(&x, &b, 0.0, "I X = B");
    }

    #[test]
    fn trsm_unit_diag_ignores_stored_diagonal() {
        // Store garbage on the diagonal; unit_diag must not read it.
        let mut a = tri(4, Uplo::Lower, true, 2);
        for i in 0..4 {
            a[(i, i)] = f64::NAN;
        }
        let b = Matrix::random(4, 2, 3);
        let x = trsm(Side::Left, Uplo::Lower, false, true, &a, &b);
        assert!(x.max_abs().is_finite());
    }

    #[test]
    #[should_panic(expected = "zero pivot")]
    fn trsm_zero_pivot_detected() {
        let mut a = Matrix::identity(3);
        a[(1, 1)] = 0.0;
        let _ = trsm(
            Side::Left,
            Uplo::Upper,
            false,
            false,
            &a,
            &Matrix::identity(3),
        );
    }

    #[test]
    fn trsm_empty_rhs() {
        let a = tri(3, Uplo::Upper, false, 5);
        let b = Matrix::zeros(3, 0);
        let x = trsm(Side::Left, Uplo::Upper, false, false, &a, &b);
        assert_eq!((x.rows(), x.cols()), (3, 0));
    }

    #[test]
    fn lu_sign_reconstructs_x_plus_s() {
        for seed in [1_u64, 2, 3] {
            let n = 7;
            let x = Matrix::random(n, n, seed);
            let (l, u, s) = lu_sign(&x);
            assert!(l.is_unit_lower_trapezoidal(0.0), "L unit lower");
            assert!(u.is_upper_triangular(0.0), "U upper");
            let mut xps = x.clone();
            for i in 0..n {
                assert!(s[i] == 1.0 || s[i] == -1.0, "S is ±1");
                xps[(i, i)] += s[i];
            }
            assert_close(&matmul(&l, &u), &xps, 1e-12, "LU = X + S");
        }
    }

    #[test]
    fn lu_sign_on_orthonormal_top_block_is_stable() {
        // X = top n × n block of an m × n orthonormal Q: the [BDG+15]
        // guarantee is |L| entries ≤ 1 (implicit partial pivoting).
        let a = Matrix::random(30, 8, 9);
        let f = geqrt(&a);
        let q1 = thin_q(&f.v, &f.t);
        let x = q1.submatrix(0, 8, 0, 8);
        let (l, u, s) = lu_sign(&x);
        assert!(l.max_abs() <= 1.0 + 1e-12, "elimination growth bounded");
        let mut xps = x.clone();
        for i in 0..8 {
            xps[(i, i)] += s[i];
        }
        assert_close(&matmul(&l, &u), &xps, 1e-13, "LU = X + S");
    }

    #[test]
    fn lu_sign_zero_matrix() {
        let (l, u, s) = lu_sign(&Matrix::zeros(4, 4));
        assert_eq!(l, Matrix::identity(4));
        assert_eq!(s, vec![1.0; 4]);
        assert_eq!(u, Matrix::identity(4)); // 0 + I = I·I
    }

    #[test]
    fn lu_sign_one_by_one() {
        let (l, u, s) = lu_sign(&Matrix::from_vec(1, 1, vec![-0.25]));
        assert_eq!(l[(0, 0)], 1.0);
        assert_eq!(s[0], -1.0);
        assert_eq!(u[(0, 0)], -1.25);
    }

    #[test]
    fn trsm_right_with_unit_lower_transpose_matches_reconstruction_use() {
        // The reconstruction computes T = (U·S)·L⁻ᵀ, i.e. solves X·Lᵀ = U·S.
        let n = 6;
        let l = tri(n, Uplo::Lower, true, 11);
        let us = Matrix::random(n, n, 12);
        let x = trsm(Side::Right, Uplo::Lower, true, true, &l, &us);
        let lt = l.transpose();
        assert_close(&matmul(&x, &lt), &us, 1e-11, "X Lᵀ = US");
    }

    #[test]
    fn blocked_trsm_matches_reference_above_threshold() {
        // Sizes that cross TRI_THRESHOLD so the public `trsm` takes the
        // blocked path; every side/uplo/transpose/unit combination must
        // agree with the scalar reference to rounding.
        let n = 3 * TRI_NB + 5;
        for side in [Side::Left, Side::Right] {
            for uplo in [Uplo::Lower, Uplo::Upper] {
                for transpose in [false, true] {
                    for unit in [false, true] {
                        let a = tri(n, uplo, unit, 77);
                        let b = Matrix::random(n, n + 3, 78);
                        let b = match side {
                            Side::Left => b,
                            Side::Right => b.transpose(),
                        };
                        let got = trsm(side, uplo, transpose, unit, &a, &b);
                        let want = trsm_reference(side, uplo, transpose, unit, &a, &b);
                        assert_close(
                            &got,
                            &want,
                            1e-9,
                            &format!("{side:?} {uplo:?} trans={transpose} unit={unit}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn right_solve_matches_reference_across_block_and_group_boundaries() {
        // Orders on both sides of one column block, of several, and of
        // a ragged last one; row counts on both sides of one and two
        // row groups, and a tall block. The in-place form on the rows
        // where they lie (here: inside a taller matrix) and the
        // out-of-place form must be the allocating form bit for bit.
        let mut ws = crate::scratch::LocalArena::new();
        for n in [1usize, 7, 8, 9, 64, 65, 130] {
            for rows in [1usize, 5, 7, 8, 9, 15, 16, 17, 1000] {
                for uplo in [Uplo::Lower, Uplo::Upper] {
                    for transpose in [false, true] {
                        for unit in [false, true] {
                            let what =
                                format!("{rows} × {n} {uplo:?} trans={transpose} unit={unit}");
                            let a = tri(n, uplo, unit, 90);
                            let b = Matrix::random(rows, n, 91);
                            let got = trsm_ws(&mut ws, Side::Right, uplo, transpose, unit, &a, &b);
                            let want = trsm_reference(Side::Right, uplo, transpose, unit, &a, &b);
                            assert_close(&got, &want, 1e-9, &what);

                            let mut tall = Matrix::random(rows + 3, n, 92);
                            tall.set_submatrix(2, 0, &b);
                            let before = tall.clone();
                            let block = tall.block_mut(2, 2 + rows, 0, n);
                            trsm_right_in_place(uplo, transpose, unit, &a, block);
                            assert_eq!(tall.submatrix(2, 2 + rows, 0, n), got, "{what}: in place");
                            for i in [0, 1, rows + 2] {
                                assert_eq!(tall.row(i), before.row(i), "{what}: row {i} touched");
                            }

                            // Out of place, from a block of one taller
                            // matrix into a block of another.
                            let mut out = Matrix::random(rows + 2, n, 93);
                            let untouched = out.clone();
                            trsm_right_into(
                                uplo,
                                transpose,
                                unit,
                                &a,
                                before.block(2, 2 + rows, 0, n),
                                out.block_mut(1, 1 + rows, 0, n),
                            );
                            assert_eq!(out.submatrix(1, 1 + rows, 0, n), got, "{what}: into");
                            for i in [0, rows + 1] {
                                assert_eq!(out.row(i), untouched.row(i), "{what}: row {i} touched");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn right_solve_row_bits_do_not_depend_on_the_row_group() {
        // A row solved alone, as any member of a full group, or in the
        // ragged last group must come out with the same bits.
        for (n, uplo, transpose) in [
            (64usize, Uplo::Upper, false),
            (37, Uplo::Lower, false),
            (20, Uplo::Upper, true),
        ] {
            let a = tri(n, uplo, false, 70);
            let b = Matrix::random(21, n, 71);
            let mut all = b.clone();
            trsm_right_in_place(uplo, transpose, false, &a, all.view_mut());
            for i in 0..b.rows() {
                let mut alone = b.submatrix(i, i + 1, 0, n);
                trsm_right_in_place(uplo, transpose, false, &a, alone.view_mut());
                assert_eq!(alone.row(0), all.row(i), "n = {n}: row {i} alone");
            }
            // Shifting the grouping by every offset moves each row
            // through every lane of a group.
            for shift in 1..TRSM_BLOCK {
                let mut shifted = b.clone();
                let block = shifted.block_mut(shift, b.rows(), 0, n);
                trsm_right_in_place(uplo, transpose, false, &a, block);
                for i in shift..b.rows() {
                    assert_eq!(
                        shifted.row(i),
                        all.row(i),
                        "n = {n}: row {i} at shift {shift}"
                    );
                }
            }
        }
    }

    #[test]
    fn right_solve_keeps_a_non_finite_row_to_itself() {
        let n = 20;
        let a = tri(n, Uplo::Upper, false, 72);
        let mut b = Matrix::random(16, n, 73);
        let clean = trsm(Side::Right, Uplo::Upper, false, false, &a, &b);
        b[(5, 9)] = f64::NAN;
        let x = trsm(Side::Right, Uplo::Upper, false, false, &a, &b);
        for i in 0..16 {
            if i == 5 {
                // Columns of earlier blocks are solved before the NaN
                // is met; everything from it on depends on it, and
                // column 8 shares its block: the substitution there
                // multiplies all eight lanes by the NaN.
                assert_eq!(x.row(5)[..8], clean.row(5)[..8]);
                assert!(x.row(5)[8..].iter().all(|v| v.is_nan()));
            } else {
                assert_eq!(x.row(i), clean.row(i), "row {i} met row 5's NaN");
            }
        }
    }

    #[test]
    fn right_solve_allocates_only_x_from_a_warm_arena() {
        let mut ws = crate::scratch::LocalArena::new();
        let a = tri(64, Uplo::Upper, false, 93);
        let b = Matrix::random(4096, 64, 94);
        let _ = trsm_ws(&mut ws, Side::Right, Uplo::Upper, false, false, &a, &b);
        assert_eq!(ws.stats(), (0, 0), "the right solve draws no scratch");
    }

    #[test]
    #[should_panic(expected = "zero pivot at 40")]
    fn right_solve_zero_pivot_detected() {
        let n = 3 * TRI_NB;
        let mut a = tri(n, Uplo::Upper, false, 95);
        a[(40, 40)] = 0.0;
        let mut b = Matrix::random(7, n, 96);
        trsm_right_in_place(Uplo::Upper, false, false, &a, b.view_mut());
    }

    #[test]
    #[should_panic(expected = "zero pivot at 40")]
    fn right_solve_refuses_a_pivot_without_a_finite_reciprocal() {
        // The solve multiplies by 1/pivot, which overflows here.
        let n = 3 * TRI_NB;
        let mut a = tri(n, Uplo::Upper, false, 95);
        a[(40, 40)] = 1e-320;
        let mut b = Matrix::random(7, n, 96);
        trsm_right_in_place(Uplo::Upper, false, false, &a, b.view_mut());
    }

    #[test]
    fn right_solve_bits_do_not_depend_on_the_simd_level() {
        // One source, compiled per level: every variant, block and
        // group boundary must come out of each with the same bits.
        use crate::simd::{detected_level, force_level};
        for n in [7usize, 8, 65, 130] {
            for rows in [5usize, 8, 17, 100] {
                for uplo in [Uplo::Lower, Uplo::Upper] {
                    for transpose in [false, true] {
                        for unit in [false, true] {
                            let a = tri(n, uplo, unit, 60);
                            let b = Matrix::random(rows, n, 61);
                            let levels = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];
                            let solved: Vec<Matrix> = levels
                                .into_iter()
                                .filter(|&level| level <= detected_level())
                                .map(|level| {
                                    force_level(Some(level));
                                    trsm(Side::Right, uplo, transpose, unit, &a, &b)
                                })
                                .collect();
                            force_level(None);
                            for x in &solved[1..] {
                                assert_eq!(
                                    x, &solved[0],
                                    "{rows} × {n} {uplo:?} trans={transpose} unit={unit}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn right_solve_unit_diag_ignores_stored_diagonal() {
        let n = 3 * TRI_NB;
        let mut a = tri(n, Uplo::Lower, true, 97);
        for i in 0..n {
            a[(i, i)] = f64::NAN;
        }
        let b = Matrix::random(n, n, 98);
        let x = trsm(Side::Right, Uplo::Lower, true, true, &a, &b);
        assert!(x.max_abs().is_finite());
    }

    #[test]
    fn blocked_trsm_unit_diag_ignores_stored_diagonal() {
        let n = 3 * TRI_NB;
        let mut a = tri(n, Uplo::Lower, true, 79);
        for i in 0..n {
            a[(i, i)] = f64::NAN;
        }
        let b = Matrix::random(n, n, 80);
        let x = trsm(Side::Left, Uplo::Lower, false, true, &a, &b);
        assert!(x.max_abs().is_finite());
    }

    #[test]
    #[should_panic(expected = "zero pivot at 40")]
    fn blocked_trsm_zero_pivot_detected() {
        let n = 3 * TRI_NB;
        let mut a = tri(n, Uplo::Upper, false, 81);
        a[(40, 40)] = 0.0;
        let _ = trsm(
            Side::Left,
            Uplo::Upper,
            false,
            false,
            &a,
            &Matrix::random(n, n, 82),
        );
    }

    #[test]
    fn blocked_potrf_matches_reference_above_threshold() {
        let n = 3 * TRI_NB + 5;
        let a = Matrix::random(2 * n, n, 83);
        let g = matmul_tn(&a, &a);
        let got = potrf(&g).expect("SPD");
        let want = potrf_reference(&g).expect("SPD");
        assert!(got.is_upper_triangular(0.0));
        assert_close(
            &got,
            &want,
            1e-8 * g.max_abs(),
            "blocked vs reference potrf",
        );
        assert_close(&matmul_tn(&got, &got), &g, 1e-8 * g.max_abs(), "RᵀR = G");
    }

    #[test]
    fn blocked_potrf_breakdown_is_detected() {
        // A large rank-deficient Gram matrix must break down in the
        // blocked path too (possibly at a slightly different pivot than
        // the reference — rounding — but deterministically).
        let n = 3 * TRI_NB;
        let a = Matrix::random(n / 2, n, 84); // rank ≤ n/2
        let g = matmul_tn(&a, &a);
        let e1 = potrf(&g).unwrap_err();
        let e2 = potrf(&g).unwrap_err();
        assert_eq!(e1, e2, "breakdown must be deterministic");
        assert!(potrf_reference(&g).is_err());
    }

    #[test]
    fn potrf_reconstructs_spd_matrix() {
        for seed in [30u64, 31, 32] {
            let n = 8;
            let a = Matrix::random(3 * n, n, seed);
            let g = matmul_tn(&a, &a); // SPD (A full rank a.s.)
            let r = potrf(&g).expect("gram of full-rank A is SPD");
            assert!(r.is_upper_triangular(0.0));
            for i in 0..n {
                assert!(r[(i, i)] > 0.0, "positive diagonal");
            }
            assert_close(&matmul_tn(&r, &r), &g, 1e-11, "RᵀR = G");
        }
    }

    #[test]
    fn potrf_identity() {
        assert_eq!(potrf(&Matrix::identity(5)).unwrap(), Matrix::identity(5));
    }

    #[test]
    fn potrf_reads_only_upper_triangle() {
        // Garbage below the diagonal must not affect the result.
        let a = Matrix::random(10, 4, 33);
        let g = matmul_tn(&a, &a);
        let mut dirty = g.clone();
        for i in 0..4 {
            for j in 0..i {
                dirty[(i, j)] = f64::NAN;
            }
        }
        assert_eq!(potrf(&g).unwrap(), potrf(&dirty).unwrap());
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut g = Matrix::identity(3);
        g[(1, 1)] = -2.0;
        let err = potrf(&g).unwrap_err();
        assert_eq!(err.pivot, 1);
        assert!(err.value < 0.0);
        assert!(err.to_string().contains("not positive definite"));
    }

    #[test]
    fn potrf_rejects_rank_deficient() {
        // G = vvᵀ has rank 1: elimination must hit a zero pivot.
        let v = Matrix::random(4, 1, 34);
        let g = matmul(&v, &v.transpose());
        assert!(potrf(&g).is_err());
    }

    #[test]
    fn potrf_empty() {
        assert_eq!(potrf(&Matrix::zeros(0, 0)).unwrap(), Matrix::zeros(0, 0));
    }

    #[test]
    fn gram_solve_roundtrip() {
        // Solve with both triangles of a Cholesky-like product.
        let a = Matrix::random(5, 5, 20);
        let g = matmul_tn(&a, &a); // SPD-ish
        let f = geqrt(&g);
        let b = Matrix::random(5, 2, 21);
        // Solve R x = b via trsm and check residual.
        let x = trsm(Side::Left, Uplo::Upper, false, false, &f.r, &b);
        assert_close(&matmul(&f.r, &x), &b, 1e-10, "R x = b");
    }
}
