//! Householder QR with compact representations (paper Section 2.3).
//!
//! The factorization routine [`geqrt`] returns the *Householder
//! representation* the paper standardizes on: `Q = I − V·T·Vᵀ` with `V`
//! unit lower trapezoidal (`m × n`) and `T` upper triangular (`n × n`)
//! — the compact WY form \[SVL89\] with the (Sca)LAPACK convention \[Pug92\].
//! `R` is returned as the `n × n` upper triangle (the paper's convention
//! (2) of Section 2.3), with nonnegative diagonal.
//!
//! ## The recursive kernel
//!
//! [`geqrt`] is the Elmroth–Gustavson recursion the paper's qr-eg
//! template (Algorithm 2) is built on, run on one node: split the
//! columns, factor the left half, update the right half with it as one
//! block reflector (three [`gemm`]s), factor the right half, and join
//! the two `T` kernels with `T₁₂ = −T₁·(V₁ᵀV₂)·T₂`. Every `O(mn²)` step
//! is therefore a multiply, down to a leaf of [`GEQRT_LEAF`] columns.
//!
//! **What the leaf is.** At most [`GEQRT_LEAF`] columns are gathered
//! into a contiguous panel (rows of [`GEQRT_LEAF`] words, so the whole
//! panel of a tall leaf stays cache-resident, which the same columns at
//! the matrix's row stride would not) and factored there a column at a
//! time, in two passes over the rows below the pivot. The first pass
//! accumulates `Σᵢ xᵢ·rowᵢ` over the leaf's whole width at once: lane
//! `j` of the sum is the squared norm of the tail (so `τ` and the scale
//! `v₀` are known), the lanes to the right give the dot products
//! `vᵀaₗ = aⱼₗ + (Σᵢ xᵢ·aᵢₗ)/v₀` the trailing update needs, and the
//! lanes to the left give the `V₁ᵀvⱼ` that `T`'s new column needs. The
//! second pass scales the column and updates the trailing columns, one
//! fused multiply-add over the leaf's width per row. The sums are of
//! raw entries; by Cauchy–Schwarz they overflow or underflow only where
//! a column's own squared norm already does.
//!
//! **Why the bits do not depend on the SIMD level.** The leaf's rows are fixed-width `f64::mul_add` loops —
//! lanewise fused operations the compiler may vectorize at any width
//! without reassociating anything — and the row sum uses four
//! accumulators chosen by row index and a fixed combination order. The
//! loops are one source compiled once per [`crate::simd::SimdLevel`]
//! (as the right `trsm`'s are), so that a build without `-C target-cpu`
//! runs FMA instructions wherever the CPU has them instead of calling
//! libm's `fma`; a fused multiply-add rounds once whoever executes it.
//! Everything above the leaf is [`gemm`], whose bits are independent of
//! the level by its own construction, on blocks whose extents depend
//! only on the shape.
//!
//! **What is copied and what is not.** The input — a whole matrix or a
//! block of rows borrowed where it lies ([`geqrt_ws`]) — is copied once
//! into the buffer that becomes `V`; the multiplies read and write blocks of
//! that buffer in place ([`crate::gemm::gemm_views`],
//! [`crate::gemm::gemm_cols_in_place`]) — no operand is staged. `R`
//! entries are moved to their own `n × n` output as soon as they are
//! final and zeroed in the buffer, so the buffer *is* the explicit
//! unit-lower-trapezoidal `V` when the recursion returns. Each leaf
//! copies its own columns out and back once. The scratch — one leaf
//! panel and the `n₁ × n₂` products of each split — is drawn from a
//! [`ScratchArena`]: pass a per-rank `qr3d_machine::Workspace` through
//! the `*_ws` entry points (a warm factorization then allocates its
//! three outputs and nothing else), or use the plain wrappers, which
//! fall back to a per-thread arena.
//!
//! **Where the time goes.** A 2048 × 64 block, a TSQR leaf's shape,
//! factors in 1.18 ms: the recursion's multiplies take 43 % of it,
//! `factor_panel` 32 %, and the leaves' gather and scatter with the
//! rest of the bookkeeping 25 % (2-vCPU Sapphire Rapids guest, AVX-512,
//! means of 50 runs; 1.40 ms and 50 % multiplies on lone 8×8 register
//! tiles). The multiplies are that small a share because they read both
//! operands where they lie and run two 8-column panels per register
//! tile (see [`crate::gemm`]). On a 16384 × 64 block they are still
//! half of the time: the 8-column products at the bottom of the
//! recursion (`V₁ᵀ·C` and `C − V₁·W` with one panel) stream the block
//! from memory at about stream bandwidth, and a wider tile does not
//! change that.
//!
//! The applies that build an explicit `Q` ([`q_times_padded_ws`],
//! [`thin_q`], [`thin_q_blocks`]) allocate their result once and write
//! every word of `[B; 0]` into it before the multiply touches it: a
//! freshly mapped, lazily zeroed buffer that is read first takes two
//! page faults a page, and on a 16 MB `Q` those faults cost more than
//! the multiply. [`q_times_padded_into`] does the same into a block the
//! caller names — the TSQR downsweep's `W`, one row block at a time.
//! [`thin_q_blocks`] takes `V` as the row blocks a block-row
//! distribution leaves on its ranks and fills `Q` block by block, so
//! the caller does not stack `V` first. It is the composition of two
//! public pieces: [`thin_q_coefficients`], the `n × n` product
//! `T·V_topᵀ`, and [`thin_q_rows`], one block's `[I; 0] − V_p·(…)`.
//! TSQR's ranks call the pieces themselves, each writing its rows of
//! the caller's `Q` where its block of `V` lies, so the facade's `Tsqr`
//! arm and this function agree by construction; its host-side callers
//! are the facade's other block-row arms (`Caqr1d`, `PivotQr`,
//! `RandRrqr`) and `UpdatingQr::finish`, over its leaves' blocks.
//! [`thin_q`] is [`thin_q_blocks`] of one block.
//!
//! **The thin Q-factor multiplies no structural zero.** `V_topᵀ` and
//! `T·V_topᵀ` are upper triangular, so both pieces multiply on
//! [`gemm_upper_views`]: `V_topᵀ` is read as a transpose instead of
//! being multiplied out of `I`, and each 8-column panel of either
//! product stops at its last column — about a third of the
//! multiply-adds of the padded apply of `I` on a square `V`, half on a
//! tall one. The products left out are those with zeros, so for finite
//! `V` and `T` the bits are the padded apply's; a NaN in column `l` of
//! `V` or `T` reaches the panel of `Q` holding column `l` and those
//! right of it.
//!
//! [`geqrt_reference`] keeps the seed's unblocked column-at-a-time
//! kernel (mirroring `gemm_reference`) as the correctness baseline and
//! the benchmark reference. Both produce a valid factorization of the
//! same `A` with `R ≥ 0` on the diagonal; the factors agree to rounding
//! (the block updates reassociate sums), not bitwise.

use crate::dense::{MatMut, MatRef, Matrix};
use crate::gemm::{gemm, gemm_cols_in_place, gemm_upper_views, gemm_views, Trans};
use crate::scratch::{put_matrix, take_matrix, with_thread_arena, ScratchArena};
use crate::simd::{self, per_simd_level};

/// Columns at which [`geqrt`]'s recursion stops splitting and factors
/// a column at a time: one 64-byte row of `f64`, the width the leaf's
/// row operations are compiled for.
pub const GEQRT_LEAF: usize = 8;

/// A QR factorization in Householder (compact WY) representation:
/// `A = (I − V·T·Vᵀ)·[R; 0]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reflector {
    /// The `m × n` unit-lower-trapezoidal Householder basis.
    pub v: Matrix,
    /// The `n × n` upper-triangular kernel.
    pub t: Matrix,
    /// The `n × n` upper-triangular R-factor.
    pub r: Matrix,
}

/// Compute a Householder vector: given `x`, returns `(v, tau, mu)` with
/// `v[0] = 1` such that `(I − tau·v·vᵀ)·x = mu·e₁` and `mu = ‖x‖ ≥ 0`
/// (Golub & Van Loan, Algorithm 5.1.1).
fn house(x: &[f64]) -> (Vec<f64>, f64, f64) {
    let n = x.len();
    assert!(n >= 1, "house: empty vector");
    let sigma: f64 = x[1..].iter().map(|&a| a * a).sum();
    let mut v = x.to_vec();
    v[0] = 1.0;
    if sigma == 0.0 {
        if x[0] >= 0.0 {
            (v, 0.0, x[0])
        } else {
            // x = x₀e₁ with x₀ < 0: reflect through e₁ to flip the sign.
            (v, 2.0, -x[0])
        }
    } else {
        let mu = (x[0] * x[0] + sigma).sqrt();
        let v0 = if x[0] <= 0.0 {
            x[0] - mu
        } else {
            -sigma / (x[0] + mu)
        };
        let tau = 2.0 * v0 * v0 / (sigma + v0 * v0);
        for item in v.iter_mut().skip(1) {
            *item /= v0;
        }
        (v, tau, mu)
    }
}

/// Householder QR of an `m × n` matrix with `m ≥ n`: the paper's
/// `local-QR` / LAPACK's `geqrt3`, recursive as described in the module
/// docs. Returns the compact representation `(V, T, R)`. Scratch comes
/// from the calling thread's arena; use [`geqrt_ws`] to pass an
/// explicit one (e.g. a simulated rank's workspace).
///
/// # Panics
/// If `m < n`.
pub fn geqrt(a: &Matrix) -> Reflector {
    with_thread_arena(|ws| geqrt_ws(ws, a.view()))
}

/// [`geqrt`] of a block borrowed where it lies ([`Matrix::block`]; a
/// whole matrix is [`Matrix::view`]), with an explicit scratch arena:
/// the block is copied once, straight into the buffer that becomes `V`,
/// and after warm-up the factorization allocates only its three output
/// matrices.
pub fn geqrt_ws(ws: &mut dyn ScratchArena, a: MatRef<'_>) -> Reflector {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "geqrt requires m ≥ n (got {m} × {n})");
    // `v` holds V below the diagonal of the columns factored so far and
    // not-yet-final R and A entries elsewhere; final R entries move to
    // `r`, so `v` is the explicit V when the recursion returns.
    let mut v = a.to_matrix();
    let mut t = Matrix::zeros(n, n);
    let mut r = Matrix::zeros(n, n);
    factor_columns(ws, &mut v, &mut t, &mut r, 0, n);
    Reflector { v, t, r }
}

/// Factor columns `j0..j1` of rows `j0..` of `v`, assuming the columns
/// to the left are final: on return the block holds explicit `V`
/// entries, `t[j0..j1, j0..j1]` their `T` kernel and `r[j0..j1, j0..j1]`
/// their `R` block.
fn factor_columns(
    ws: &mut dyn ScratchArena,
    v: &mut Matrix,
    t: &mut Matrix,
    r: &mut Matrix,
    j0: usize,
    j1: usize,
) {
    let bw = j1 - j0;
    if bw <= GEQRT_LEAF {
        return factor_leaf(ws, v, t, r, j0, j1);
    }
    // Split on a leaf boundary so only the last leaf can be ragged.
    let jm = j0 + (bw / 2).next_multiple_of(GEQRT_LEAF);
    let (m, n) = (v.rows(), v.cols());
    let (b1, b2) = (jm - j0, j1 - jm);
    factor_columns(ws, v, t, r, j0, jm);

    // Right half C := (I − V₁·T₁ᵀ·V₁ᵀ)·C, read and written in place.
    let mut w = take_matrix(ws, b1, b2);
    let (v1, c) = (v.block(j0, m, j0, jm), v.block(j0, m, jm, j1));
    gemm_views(Trans::Yes, Trans::No, 1.0, v1, c, 0.0, w.view_mut());
    let mut w2 = take_matrix(ws, b1, b2);
    let t1 = t.block(j0, jm, j0, jm);
    gemm_views(Trans::Yes, Trans::No, 1.0, t1, w.view(), 0.0, w2.view_mut());
    let both = v.block_mut(j0, m, j0, j1);
    gemm_cols_in_place(-1.0, both, 0..b1, Trans::No, w2.view(), b1..bw);
    put_matrix(ws, w);
    put_matrix(ws, w2);
    // Rows j0..jm of C are final: they are R₁₂, and V is zero there.
    for i in j0..jm {
        r.row_mut(i)[jm..j1].copy_from_slice(&v.row(i)[jm..j1]);
        v.row_mut(i)[jm..j1].fill(0.0);
    }

    factor_columns(ws, v, t, r, jm, j1);

    // T₁₂ = −T₁·(V₁ᵀ·V₂)·T₂; V₂ is zero above row jm.
    let mut z = take_matrix(ws, b1, b2);
    let (v1, v2) = (v.block(jm, m, j0, jm), v.block(jm, m, jm, j1));
    gemm_views(Trans::Yes, Trans::No, 1.0, v1, v2, 0.0, z.view_mut());
    let mut y = take_matrix(ws, b1, b2);
    let t1 = t.block(j0, jm, j0, jm);
    gemm_views(Trans::No, Trans::No, 1.0, t1, z.view(), 0.0, y.view_mut());
    // T₂ (rows jm..) is read while T₁₂ (rows j0..jm) is written.
    let (top, bottom) = t.as_mut_slice().split_at_mut(jm * n);
    let t12 = MatMut::new(&mut top[j0 * n + jm..], b1, b2, n);
    let t2 = MatRef::new(&bottom[jm..], b2, b2, n);
    gemm_views(Trans::No, Trans::No, -1.0, y.view(), t2, 0.0, t12);
    put_matrix(ws, z);
    put_matrix(ws, y);
}

/// Householder-factor columns `j0..j1` (at most [`GEQRT_LEAF`]) of rows
/// `j0..` of `v` (see the module docs): the columns are gathered into a
/// contiguous panel of [`GEQRT_LEAF`]-word rows (zero-padded when the
/// leaf is ragged, so every row operation has the one fixed width),
/// factored there, and scattered back as explicit `V` entries; the `R`
/// block goes to `r`, the `T` block to `t`.
fn factor_leaf(
    ws: &mut dyn ScratchArena,
    v: &mut Matrix,
    t: &mut Matrix,
    r: &mut Matrix,
    j0: usize,
    j1: usize,
) {
    let (m, bw) = (v.rows(), j1 - j0);
    let mut scratch = ws.take((m - j0) * GEQRT_LEAF);
    let (panel, _) = scratch.as_chunks_mut::<GEQRT_LEAF>();
    for (p, i) in panel.iter_mut().zip(j0..m) {
        p[..bw].copy_from_slice(&v.row(i)[j0..j1]);
    }

    factor_panel(simd::active_level(), panel, bw, t, j0);

    // Scatter: the R block to `r`, V's unit diagonal and zeros in its
    // place, the rows below as they are.
    for (j, p) in panel.iter_mut().enumerate().take(bw) {
        r.row_mut(j0 + j)[j0 + j..j1].copy_from_slice(&p[j..bw]);
        p[j] = 1.0;
        p[j + 1..].fill(0.0);
    }
    for (p, i) in panel.iter().zip(j0..m) {
        v.row_mut(i)[j0..j1].copy_from_slice(&p[..bw]);
    }
    ws.put(scratch);
}

/// A row of the leaf panel.
type Row = [f64; GEQRT_LEAF];

per_simd_level! {
    /// Householder-factor the leading `bw` columns of `panel` in place
    /// — `R` on and above the diagonal, the scaled reflector tails
    /// below it — and write their `T` block to `t` at `(j0, j0)`.
    fn factor_panel(panel: &mut [Row], bw: usize, t: &mut Matrix, j0: usize) = panel_columns
}

/// [`factor_panel`]'s body: fixed-width `f64::mul_add` loops, compiled
/// once per SIMD level.
#[inline(always)]
fn panel_columns(panel: &mut [Row], bw: usize, t: &mut Matrix, j0: usize) {
    for j in 0..bw {
        let (head, below) = panel.split_at_mut(j + 1);
        let pivot_row = &mut head[j];

        // Pass 1: Σᵢ xᵢ·rowᵢ over the rows below the pivot, across the
        // leaf's width. Row i of them adds into accumulator i mod 4
        // (four independent fma chains), combined in a fixed order.
        let mut acc = [[0.0f64; GEQRT_LEAF]; 4];
        let add_row = |p: &Row, a: &mut Row| {
            for l in 0..GEQRT_LEAF {
                a[l] = p[j].mul_add(p[l], a[l]);
            }
        };
        let (quads, rest) = below.as_chunks::<4>();
        for quad in quads {
            for (p, a) in quad.iter().zip(acc.iter_mut()) {
                add_row(p, a);
            }
        }
        for (p, a) in rest.iter().zip(acc.iter_mut()) {
            add_row(p, a);
        }
        let mut sum: Row = [0.0; GEQRT_LEAF];
        for l in 0..GEQRT_LEAF {
            sum[l] = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l]);
        }

        // The reflector: v = [1; x_tail / v0], H = I − τ·v·vᵀ, H·x = μ·e₁.
        let (sigma, x0) = (sum[j], pivot_row[j]);
        let (tau, mu, v0) = if sigma == 0.0 {
            // Zero tail: identity for x₀ ≥ 0, sign-flip reflector else
            // (nothing to scale).
            if x0 >= 0.0 {
                (0.0, x0, 1.0)
            } else {
                (2.0, -x0, 1.0)
            }
        } else {
            let mu = (x0 * x0 + sigma).sqrt();
            let v0 = if x0 <= 0.0 {
                x0 - mu
            } else {
                -sigma / (x0 + mu)
            };
            (2.0 * v0 * v0 / (sigma + v0 * v0), mu, v0)
        };
        t[(j0 + j, j0 + j)] = tau;
        if tau != 0.0 {
            // vᵀ·(column l) for every other column of the leaf: the
            // trailing update's coefficients to the right of j, T's
            // V₁ᵀ·vⱼ to its left.
            let mut dots: Row = [0.0; GEQRT_LEAF];
            for l in 0..GEQRT_LEAF {
                dots[l] = pivot_row[l] + sum[l] / v0;
            }
            // T[0..j, j] = −τ·T[0..j, 0..j]·(V₁ᵀ·vⱼ), T upper triangular.
            for i in 0..j {
                let mut s = 0.0;
                for l in i..j {
                    s += t[(j0 + i, j0 + l)] * dots[l];
                }
                t[(j0 + i, j0 + j)] = -tau * s;
            }
            // Pass 2: scale the column, update the trailing columns.
            // Lanes up to j get coefficient 0 and keep their value.
            let mut coef: Row = [0.0; GEQRT_LEAF];
            for l in j + 1..bw {
                coef[l] = tau * dots[l];
                pivot_row[l] -= coef[l];
            }
            for p in below.iter_mut() {
                let vi = p[j] / v0;
                for l in 0..GEQRT_LEAF {
                    p[l] = (-vi).mul_add(coef[l], p[l]);
                }
                p[j] = vi;
            }
        }
        pivot_row[j] = mu;
    }
}

/// The seed's unblocked column-at-a-time Householder QR, kept (like
/// `gemm_reference`) as the correctness baseline and benchmark
/// reference for the recursive [`geqrt`].
///
/// # Panics
/// If `m < n`.
pub fn geqrt_reference(a: &Matrix) -> Reflector {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "geqrt requires m ≥ n (got {m} × {n})");
    let mut work = a.clone();
    let mut v = Matrix::zeros(m, n);
    let mut taus = vec![0.0; n];

    for j in 0..n {
        // Householder vector for column j below the diagonal.
        let x: Vec<f64> = (j..m).map(|i| work[(i, j)]).collect();
        let (hv, tau, mu) = house(&x);
        taus[j] = tau;
        for (k, &hvk) in hv.iter().enumerate() {
            v[(j + k, j)] = hvk;
        }
        // Apply (I − tau·hv·hvᵀ) to the trailing columns j..n of rows j..m.
        if tau != 0.0 {
            for c in j..n {
                let mut w = 0.0;
                for (k, &hvk) in hv.iter().enumerate() {
                    w += hvk * work[(j + k, c)];
                }
                let tw = tau * w;
                for (k, &hvk) in hv.iter().enumerate() {
                    work[(j + k, c)] -= tw * hvk;
                }
            }
        }
        // The new diagonal entry is mu = ‖x‖ by construction; store exactly.
        work[(j, j)] = mu;
    }

    // R = leading n × n upper triangle of the reduced matrix.
    let r = work.submatrix(0, n, 0, n).upper_triangular_part();

    // T assembly (forward larft): T[j,j] = tau_j,
    // T[0..j, j] = −tau_j · T[0..j,0..j] · (V[:,0..j]ᵀ · v_j).
    let mut t = Matrix::zeros(n, n);
    for j in 0..n {
        let tau = taus[j];
        t[(j, j)] = tau;
        if j > 0 && tau != 0.0 {
            // z = V[:, 0..j]ᵀ · v_j  (only rows j..m of v_j are nonzero).
            let mut z = vec![0.0; j];
            for (c, zc) in z.iter_mut().enumerate() {
                let mut s = 0.0;
                for i in j..m {
                    s += v[(i, c)] * v[(i, j)];
                }
                *zc = s;
            }
            // T[0..j, j] = −tau · T[0..j,0..j] · z (T block is upper tri).
            for i in 0..j {
                let mut s = 0.0;
                for (k, &zk) in z.iter().enumerate().skip(i) {
                    s += t[(i, k)] * zk;
                }
                t[(i, j)] = -tau * s;
            }
        }
    }

    Reflector { v, t, r }
}

/// Apply a block reflector: `C := (I − V·T'·Vᵀ)·C`, where `T' = Tᵀ` if
/// `transpose` (i.e. apply `Qᵀ`) and `T' = T` otherwise (apply `Q`).
/// Scratch comes from the calling thread's arena; use
/// [`apply_block_reflector_ws`] to pass an explicit one.
///
/// `V` is `m × k`, `T` is `k × k`, `C` is `m × n`.
pub fn apply_block_reflector(v: &Matrix, t: &Matrix, c: &mut Matrix, transpose: bool) {
    with_thread_arena(|ws| apply_block_reflector_ws(ws, v, t, c, transpose));
}

/// [`apply_block_reflector`] writing its two `k × n` temporaries into
/// arena scratch: three blocked gemms, no allocation after warm-up.
pub fn apply_block_reflector_ws(
    ws: &mut dyn ScratchArena,
    v: &Matrix,
    t: &Matrix,
    c: &mut Matrix,
    transpose: bool,
) {
    let k = v.cols();
    assert_eq!(v.rows(), c.rows(), "apply_block_reflector: row mismatch");
    assert_eq!(t.rows(), k, "apply_block_reflector: T shape");
    assert_eq!(t.cols(), k, "apply_block_reflector: T shape");
    if k == 0 || c.cols() == 0 {
        return;
    }
    // W = Vᵀ C  (k × n)
    let mut w = take_matrix(ws, k, c.cols());
    gemm(Trans::Yes, Trans::No, 1.0, v, c, 0.0, &mut w);
    // W = T' W
    let mut w2 = take_matrix(ws, k, c.cols());
    let tt = if transpose { Trans::Yes } else { Trans::No };
    gemm(tt, Trans::No, 1.0, t, &w, 0.0, &mut w2);
    // C -= V W
    gemm(Trans::No, Trans::No, -1.0, v, &w2, 1.0, c);
    put_matrix(ws, w);
    put_matrix(ws, w2);
}

/// `Q · C` for `Q = I − V·T·Vᵀ` (a new matrix).
pub fn q_times(v: &Matrix, t: &Matrix, c: &Matrix) -> Matrix {
    let mut out = c.clone();
    apply_block_reflector(v, t, &mut out, false);
    out
}

/// `Qᵀ · C` for `Q = I − V·T·Vᵀ` (a new matrix).
pub fn qt_times(v: &Matrix, t: &Matrix, c: &Matrix) -> Matrix {
    let mut out = c.clone();
    apply_block_reflector(v, t, &mut out, true);
    out
}

/// The leading `n` columns of `Q` (the "thin" Q-factor), `m × n`:
/// [`thin_q_coefficients`], then [`thin_q_rows`] over all of `V`.
pub fn thin_q(v: &Matrix, t: &Matrix) -> Matrix {
    with_thread_arena(|ws| thin_q_ws(ws, v, t))
}

/// [`thin_q`] with an explicit scratch arena for the coefficients.
pub fn thin_q_ws(ws: &mut dyn ScratchArena, v: &Matrix, t: &Matrix) -> Matrix {
    thin_q_blocks_ws(ws, &[v], t)
}

/// [`thin_q`] of a `V` held as row blocks, top block first — the
/// per-rank pieces of a block-row distribution — without stacking them:
/// `Q = [I; 0] − V·(T·V_topᵀ)` is [`thin_q_coefficients`] once, then
/// [`thin_q_rows`] for each block, read where it lies. A caller that
/// holds one block per thread — TSQR's ranks — calls the two pieces
/// itself and writes these bits without the blocks ever meeting. Row for
/// row the arithmetic is [`thin_q`]'s on the stacked `V`, bit for bit,
/// however the rows are cut.
///
/// # Panics
/// If a block does not have `T`'s `n` columns or the blocks hold fewer
/// than `n` rows in all.
pub fn thin_q_blocks(v_blocks: &[&Matrix], t: &Matrix) -> Matrix {
    with_thread_arena(|ws| thin_q_blocks_ws(ws, v_blocks, t))
}

/// [`thin_q_blocks`] with an explicit scratch arena.
fn thin_q_blocks_ws(ws: &mut dyn ScratchArena, v_blocks: &[&Matrix], t: &Matrix) -> Matrix {
    let n = t.rows();
    let m: usize = v_blocks.iter().map(|v| v.rows()).sum();
    assert!(m >= n, "thin_q_blocks: {m} rows for {n} reflectors");
    assert!(
        v_blocks.iter().all(|v| v.cols() == n),
        "thin_q_blocks: a block does not have T's {n} columns"
    );
    let mut out = Matrix::zeros(m, n);
    // V's top n rows may span blocks: gather them (n × n words).
    let mut v_top = take_matrix(ws, n, n);
    let mut filled = 0;
    for v in v_blocks {
        let rows = (n - filled).min(v.rows());
        v_top.as_mut_slice()[filled * n..(filled + rows) * n]
            .copy_from_slice(&v.as_slice()[..rows * n]);
        filled += rows;
    }
    let coef = thin_q_coefficients(ws, v_top.view(), t);
    put_matrix(ws, v_top);
    let mut r0 = 0;
    for v in v_blocks {
        let rows = out.block_mut(r0, r0 + v.rows(), 0, n);
        thin_q_rows(v.view(), &coef, r0, rows);
        r0 += v.rows();
    }
    put_matrix(ws, coef);
    out
}

/// `T·V_topᵀ`, the `n × n` coefficients of the thin Q-factor `[I; 0] −
/// V·(T·V_topᵀ)`, from `V`'s top `n` rows and `T`, in arena scratch
/// (return it with [`put_matrix`]). `V_topᵀ` is read as the transpose
/// of `V_top`'s lower triangle — `V` is unit lower trapezoidal — and
/// each 8-column panel stops at its last column ([`gemm_upper_views`]);
/// the coefficients are upper triangular in turn. For finite `V` and
/// `T` these are the bits of `T·(V_topᵀ·I)` multiplied in full.
pub fn thin_q_coefficients(ws: &mut dyn ScratchArena, v_top: MatRef<'_>, t: &Matrix) -> Matrix {
    let n = t.rows();
    let mut coef = take_matrix(ws, n, n);
    let t = t.view();
    gemm_upper_views(Trans::No, Trans::Yes, 1.0, t, v_top, 0.0, coef.view_mut());
    coef
}

/// One row block of the thin Q-factor: `out = [I; 0] − v·coef` over the
/// rows of `V` from `first_row` on, where `v` is that block of `V` and
/// `coef` is [`thin_q_coefficients`]. Only `coef`'s upper triangle is
/// read, and each 8-column panel of `out` stops at its last column of
/// `v` ([`gemm_upper_views`]), with the bits of the full multiply for
/// finite `V` and `T`. Every word of `out` is written before the
/// multiply reads it, so it may be freshly allocated.
///
/// # Panics
/// If `out` does not have `v`'s shape or `v` not `coef`'s order as its
/// column count.
pub fn thin_q_rows(v: MatRef<'_>, coef: &Matrix, first_row: usize, mut out: MatMut<'_>) {
    let n = coef.rows();
    assert_eq!(v.cols(), n, "thin_q_rows: V block width");
    assert_eq!((out.rows(), out.cols()), (v.rows(), n), "thin_q_rows: out");
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        row.fill(0.0);
        if first_row + i < n {
            row[first_row + i] = 1.0;
        }
    }
    gemm_upper_views(Trans::No, Trans::No, -1.0, v, coef.view(), 1.0, out);
}

/// `Q·[B; 0]` as a new matrix: `Q = I − V·T·Vᵀ` applied to `B` padded
/// with zero rows to `V`'s height — the shape of every TSQR downsweep
/// step and of [`thin_q`] (`B = I`). `Vᵀ·[B; 0]` is `V_topᵀ·B`, so the
/// first product runs over `B`'s rows only, and the result is allocated
/// once and filled in place; no zero block is ever stored or
/// multiplied. For finite `V` this is [`apply_block_reflector_ws`] on
/// the stacked matrix, bit for bit: the zero rows only extend the
/// multiply's fma chains. A non-finite entry of `V` or `B` still
/// reaches the result through the remaining products.
///
/// `V` is `m × k`, `T` is `k × k`, `B` is `p × n` with `p ≤ m`.
pub fn q_times_padded_ws(ws: &mut dyn ScratchArena, v: &Matrix, t: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(v.rows(), b.cols());
    q_times_padded_into(ws, v, t, b, out.view_mut());
    out
}

/// [`q_times_padded_ws`] written where the caller wants it — `out`, a
/// block of `V`'s height and `B`'s width, say a rank's rows of a larger
/// result. Every word of `out` is written before any is read, so it may
/// be freshly allocated.
///
/// # Panics
/// If `out` is not `m × n`.
pub fn q_times_padded_into(
    ws: &mut dyn ScratchArena,
    v: &Matrix,
    t: &Matrix,
    b: &Matrix,
    mut out: MatMut<'_>,
) {
    let (m, k) = (v.rows(), v.cols());
    let (p, n) = (b.rows(), b.cols());
    assert!(p <= m, "q_times_padded: B has more rows than V");
    assert_eq!((t.rows(), t.cols()), (k, k), "q_times_padded: T shape");
    assert_eq!((out.rows(), out.cols()), (m, n), "q_times_padded: out");
    for i in 0..m {
        let row = out.row_mut(i);
        if i < p {
            row.copy_from_slice(b.row(i));
        } else {
            row.fill(0.0);
        }
    }
    if k == 0 || n == 0 {
        return;
    }
    // out = [B; 0] − V·(T·V_topᵀ·B).
    let mut w = take_matrix(ws, k, n);
    let (v_top, b) = (v.block(0, p, 0, k), b.view());
    gemm_views(Trans::Yes, Trans::No, 1.0, v_top, b, 0.0, w.view_mut());
    let mut w2 = take_matrix(ws, k, n);
    gemm(Trans::No, Trans::No, 1.0, t, &w, 0.0, &mut w2);
    put_matrix(ws, w);
    gemm_views(Trans::No, Trans::No, -1.0, v.view(), w2.view(), 1.0, out);
    put_matrix(ws, w2);
}

/// The full `m × m` Q-factor (for small-scale testing only).
pub fn full_q(v: &Matrix, t: &Matrix) -> Matrix {
    let m = v.rows();
    let mut q = Matrix::identity(m);
    apply_block_reflector(v, t, &mut q, false);
    q
}

/// A reproducible `m × n` test matrix (`m ≥ n ≥ 1`) with 2-norm condition
/// number `kappa`: `A = U·Σ·Vᵀ` with `U` (`m × n`) and `V` (`n × n`) the
/// orthonormal Q-factors of random matrices and singular values graded
/// geometrically from `1` down to `1/kappa`. The workhorse of the
/// CholeskyQR2-vs-TSQR accuracy experiments, where the breakdown point is
/// a function of κ(A) alone.
///
/// # Panics
/// If `m < n`, `n == 0`, or `kappa < 1`.
pub fn random_with_condition(m: usize, n: usize, kappa: f64, seed: u64) -> Matrix {
    assert!(m >= n && n >= 1, "need m ≥ n ≥ 1 (got {m} × {n})");
    assert!(kappa >= 1.0, "condition number must be ≥ 1");
    let u = thin_q_of_random(m, n, seed);
    let v = thin_q_of_random(n, n, seed.wrapping_add(0x9e37_79b9));
    // Scale U's columns by the singular values, then multiply by Vᵀ.
    let mut us = u;
    for j in 0..n {
        let sigma = if n == 1 {
            1.0
        } else {
            kappa.powf(-(j as f64) / (n as f64 - 1.0))
        };
        for i in 0..m {
            us[(i, j)] *= sigma;
        }
    }
    crate::gemm::matmul_nt(&us, &v)
}

/// Orthonormal basis of a random full-rank matrix (helper for
/// [`random_with_condition`]).
fn thin_q_of_random(m: usize, n: usize, seed: u64) -> Matrix {
    let f = geqrt(&Matrix::random(m, n, seed));
    thin_q(&f.v, &f.t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_tn};
    use crate::scratch::LocalArena;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64, what: &str) {
        let err = a.sub(b).max_abs();
        assert!(err <= tol, "{what}: max abs err {err} > {tol}");
    }

    fn check_qr_with(a: &Matrix, tol: f64, factor: impl Fn(&Matrix) -> Reflector) {
        let n = a.cols();
        let f = factor(a);
        assert!(
            f.v.is_unit_lower_trapezoidal(tol),
            "V not unit lower trapezoidal"
        );
        assert!(f.r.is_upper_triangular(0.0), "R not upper triangular");
        for j in 0..n {
            assert!(f.r[(j, j)] >= 0.0, "R diagonal must be nonnegative");
        }
        assert!(f.t.is_upper_triangular(0.0), "T not upper triangular");
        // A = Q [R; 0]
        let mut rn = Matrix::zeros(a.rows(), n);
        rn.set_submatrix(0, 0, &f.r);
        let qr = q_times(&f.v, &f.t, &rn);
        assert_close(&qr, a, tol, "A = QR");
        // Thin Q has orthonormal columns.
        let q1 = thin_q(&f.v, &f.t);
        let gram = matmul_tn(&q1, &q1);
        assert_close(&gram, &Matrix::identity(n), tol, "QᵀQ = I");
    }

    fn check_qr(a: &Matrix, tol: f64) {
        check_qr_with(a, tol, geqrt);
        check_qr_with(a, tol, geqrt_reference);
    }

    #[test]
    fn house_reflects_to_norm_e1() {
        for seed in 0..5 {
            let x = Matrix::random(7, 1, seed).into_vec();
            let (v, tau, mu) = house(&x);
            assert_eq!(v[0], 1.0);
            let norm: f64 = x.iter().map(|a| a * a).sum::<f64>().sqrt();
            assert!((mu - norm).abs() < 1e-12 * norm.max(1.0));
            // Hx = mu e1
            let w: f64 = v.iter().zip(&x).map(|(a, b)| a * b).sum();
            let hx: Vec<f64> = x.iter().zip(&v).map(|(xi, vi)| xi - tau * w * vi).collect();
            assert!((hx[0] - mu).abs() < 1e-12);
            for h in &hx[1..] {
                assert!(h.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn house_zero_tail_positive_head_is_noop() {
        let (v, tau, mu) = house(&[3.0, 0.0, 0.0]);
        assert_eq!(tau, 0.0);
        assert_eq!(mu, 3.0);
        assert_eq!(v[0], 1.0);
    }

    #[test]
    fn house_zero_tail_negative_head_flips() {
        let (_, tau, mu) = house(&[-3.0, 0.0]);
        assert_eq!(tau, 2.0);
        assert_eq!(mu, 3.0);
    }

    #[test]
    fn house_all_zero() {
        let (_, tau, mu) = house(&[0.0, 0.0, 0.0]);
        assert_eq!(tau, 0.0);
        assert_eq!(mu, 0.0);
    }

    #[test]
    fn qr_tall_random() {
        check_qr(&Matrix::random(20, 5, 42), 1e-12);
    }

    #[test]
    fn qr_square_random() {
        check_qr(&Matrix::random(8, 8, 7), 1e-12);
    }

    #[test]
    fn qr_single_column() {
        check_qr(&Matrix::random(10, 1, 9), 1e-13);
    }

    #[test]
    fn qr_single_row_and_column() {
        check_qr(&Matrix::from_vec(1, 1, vec![-2.5]), 1e-15);
    }

    #[test]
    fn qr_zero_matrix() {
        check_qr(&Matrix::zeros(6, 3), 1e-15);
    }

    #[test]
    fn qr_already_triangular() {
        let r = Matrix::from_fn(5, 5, |i, j| if j >= i { (1 + i + j) as f64 } else { 0.0 });
        check_qr(&r, 1e-12);
    }

    #[test]
    fn qr_rank_deficient() {
        // Two identical columns: still a valid factorization.
        let col = Matrix::random(12, 1, 3);
        let a = col.hstack(&col);
        check_qr(&a, 1e-12);
    }

    #[test]
    fn qr_zero_cols() {
        for factor in [geqrt, geqrt_reference] {
            let f = factor(&Matrix::zeros(4, 0));
            assert_eq!(f.v.cols(), 0);
            assert_eq!(f.r.rows(), 0);
        }
    }

    /// R against the reference to rounding, `QR = A`, `QᵀQ = I`, and
    /// the structure of all three factors.
    fn check_against_reference(a: &Matrix, what: &str) {
        let n = a.cols();
        let fb = geqrt(a);
        let fr = geqrt_reference(a);
        let tol = 1e-10 * (1.0 + a.frobenius_norm());
        assert!(fb.v.is_unit_lower_trapezoidal(0.0), "{what}: V structure");
        assert!(fb.t.is_upper_triangular(0.0), "{what}: T structure");
        assert!(fb.r.is_upper_triangular(0.0), "{what}: R structure");
        for j in 0..n {
            assert!(fb.r[(j, j)] >= 0.0, "{what}: diag R ≥ 0");
        }
        assert_close(&fb.r, &fr.r, tol, &format!("{what}: R vs reference"));
        let mut rn = Matrix::zeros(a.rows(), n);
        rn.set_submatrix(0, 0, &fb.r);
        let qr = q_times(&fb.v, &fb.t, &rn);
        assert_close(&qr, a, tol, &format!("{what}: QR = A"));
        // Householder Q is orthogonal regardless of A's rank.
        let q1 = thin_q(&fb.v, &fb.t);
        let gram = matmul_tn(&q1, &q1);
        let eye = Matrix::identity(n);
        assert_close(&gram, &eye, 1e-10, &format!("{what}: QᵀQ = I"));
    }

    #[test]
    fn recursive_matches_reference_across_leaf_and_split_boundaries() {
        // Widths on both sides of one leaf, of the first split, of a
        // ragged last leaf and of three levels of splits; heights from
        // square to the tall leaf the workloads run.
        for n in [1usize, 7, 8, 9, 17, 63, 64, 65, 100] {
            for m in [n, n + 1, 4 * n, 4096] {
                let a = Matrix::random(m, n, (m * 131 + n) as u64);
                check_against_reference(&a, &format!("{m} × {n}"));
            }
        }
    }

    #[test]
    fn recursive_matches_reference_on_degenerate_inputs() {
        let cases: Vec<(&str, Matrix)> = vec![
            ("zero matrix", Matrix::zeros(50, 40)),
            ("rank-deficient", {
                let c = Matrix::random(70, 5, 4);
                c.hstack(&c).hstack(&c.hstack(&c))
            }),
            ("exact zero columns", rank_k_padded(90, 33, 11, 6)),
            (
                "already triangular",
                Matrix::from_fn(40, 40, |i, j| if j >= i { (1 + i + j) as f64 } else { 0.0 }),
            ),
            (
                "negative diagonal, zero tails",
                Matrix::from_fn(30, 20, |i, j| if i == j { -2.0 } else { 0.0 }),
            ),
        ];
        for (what, a) in &cases {
            check_against_reference(a, what);
        }
    }

    #[test]
    fn columns_graded_over_the_whole_range_stay_accurate_columnwise() {
        // Column scales 1e-140 and 1e+140: the leaf's cross-column
        // sums Σᵢ xᵢ·aᵢₗ are formed from raw entries, so they must
        // survive every pairing the column norms themselves survive
        // (squares down to 1e-280 and up to 1e+280). Each column of
        // QR − A is measured against that column's own size.
        for (m, n) in [(50usize, 6usize), (300, 20)] {
            let mut a = Matrix::random(m, n, 77);
            for i in 0..m {
                for j in 0..n {
                    a[(i, j)] *= if j % 2 == 0 { 1e-140 } else { 1e140 };
                }
            }
            let f = geqrt(&a);
            let mut rn = Matrix::zeros(m, n);
            rn.set_submatrix(0, 0, &f.r);
            let qr = q_times(&f.v, &f.t, &rn);
            for j in 0..n {
                let col = |x: &Matrix| x.submatrix(0, m, j, j + 1);
                let err = col(&qr).sub(&col(&a)).max_abs();
                let scale = col(&a).max_abs();
                assert!(
                    err <= 1e-13 * scale,
                    "{m} × {n}, column {j}: error {err:e} against entries of {scale:e}"
                );
            }
        }
    }

    #[test]
    fn padded_apply_is_the_stacked_apply_bit_for_bit() {
        // V_topᵀ·B and Vᵀ·[B; 0] run the same multiply, whose fma
        // chains the zero rows extend without changing a bit — at
        // every size.
        let mut ws = LocalArena::new();
        for (m, n) in [
            (3usize, 2usize),
            (21, 21),
            (32, 16),
            (40, 16),
            (64, 32),
            (300, 24),
            (1000, 64),
        ] {
            let f = geqrt(&Matrix::random(m, n, (m + n) as u64));
            for b in [Matrix::identity(n), Matrix::random(n, n, 9)] {
                let mut stacked = b.vstack(&Matrix::zeros(m - n, n));
                apply_block_reflector_ws(&mut ws, &f.v, &f.t, &mut stacked, false);
                let padded = q_times_padded_ws(&mut ws, &f.v, &f.t, &b);
                assert_eq!(padded, stacked, "{m} × {n}");
            }
        }
    }

    #[test]
    fn padded_apply_does_not_mask_non_finite_entries() {
        // The kernels promise 0·NaN = NaN; skipping the zero block must
        // not turn a poisoned operand into a finite result.
        let (m, n) = (200usize, 24usize);
        let f = geqrt(&Matrix::random(m, n, 5));
        let b = Matrix::random(n, n, 6);
        let mut ws = LocalArena::new();
        let finite = |x: &Matrix| x.as_slice().iter().all(|v| v.is_finite());
        assert!(finite(&q_times_padded_ws(&mut ws, &f.v, &f.t, &b)));
        for (i, j) in [(0usize, 0usize), (n + 3, 1), (m - 1, n - 1)] {
            let mut v = f.v.clone();
            v[(i, j)] = f64::NAN;
            let out = q_times_padded_ws(&mut ws, &v, &f.t, &b);
            assert!(!finite(&out), "NaN at V({i},{j}) was masked");
        }
        let mut b_nan = b.clone();
        b_nan[(n - 1, 0)] = f64::NAN;
        assert!(!finite(&q_times_padded_ws(&mut ws, &f.v, &f.t, &b_nan)));
    }

    #[test]
    fn thin_q_of_row_blocks_is_thin_q_of_the_stacked_v() {
        // Bit for bit however the rows are cut: splits with a top block
        // of fewer than n rows (V's top block spans two), of exactly n,
        // blocks of a few rows (TSQR's small per-rank shapes), and a
        // single block.
        for (m, n, cuts) in [
            (1000usize, 24usize, vec![500usize]),
            (1000, 24, vec![16, 600]),
            (1000, 24, vec![24, 100, 700]),
            (4096, 64, vec![2048]),
            (300, 16, vec![]),
            (64, 8, vec![32]),
            (40, 16, vec![3]),
            (40, 16, vec![16]),
            (40, 16, vec![17]),
            (40, 16, vec![3, 16, 17, 39]),
            (256, 16, vec![3]),
            (256, 16, vec![16]),
            (256, 16, vec![17]),
            (256, 16, vec![1, 3, 16, 17, 128]),
        ] {
            let f = geqrt(&Matrix::random(m, n, (m + n) as u64));
            let mut bounds = vec![0];
            bounds.extend(&cuts);
            bounds.push(m);
            let blocks: Vec<Matrix> = bounds
                .windows(2)
                .map(|w| f.v.submatrix(w[0], w[1], 0, n))
                .collect();
            let refs: Vec<&Matrix> = blocks.iter().collect();
            assert_eq!(
                thin_q_blocks(&refs, &f.t),
                thin_q(&f.v, &f.t),
                "{m} × {n} cut at {cuts:?}"
            );
        }
    }

    #[test]
    fn thin_q_leaves_out_only_products_with_zeros() {
        // thin_q stops each column panel of T·V_topᵀ and of V·(…) at the
        // panel's last column; the padded apply of I multiplies V_topᵀ
        // out of I and runs every product of both multiplies, zeros
        // included. Every bit agrees: on one panel, several, a ragged
        // last one, two KC chunks (n > 256), and on degenerate factors
        // (τ = 0, zero tails, −0 in V).
        let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut ws = LocalArena::new();
        let mut cases: Vec<Matrix> = [(1usize, 1usize), (9, 9), (40, 16), (64, 64), (300, 24)]
            .iter()
            .map(|&(m, n)| Matrix::random(m, n, (3 * m + n) as u64))
            .collect();
        cases.push(Matrix::random(300, 264, 5));
        cases.push(Matrix::zeros(50, 40));
        cases.push(rank_k_padded(90, 33, 11, 6));
        cases.push(Matrix::from_fn(
            30,
            20,
            |i, j| if i == j { -2.0 } else { 0.0 },
        ));
        for a in &cases {
            let (m, n) = (a.rows(), a.cols());
            let f = geqrt(a);
            let full = q_times_padded_ws(&mut ws, &f.v, &f.t, &Matrix::identity(n));
            assert_eq!(bits(&thin_q(&f.v, &f.t)), bits(&full), "{m} × {n}");
        }
    }

    #[test]
    fn thin_q_of_row_blocks_does_not_mask_non_finite_entries() {
        // A NaN in V or T still reaches Q: one in column l of either
        // reaches Q's panel holding column l and every panel right of it.
        let (m, n) = (400usize, 24usize);
        let f = geqrt(&Matrix::random(m, n, 8));
        let finite = |x: &Matrix| x.as_slice().iter().all(|v| v.is_finite());
        let split = |v: &Matrix, t: &Matrix| {
            let (top, bottom) = (v.submatrix(0, 200, 0, n), v.submatrix(200, m, 0, n));
            thin_q_blocks(&[&top, &bottom], t)
        };
        for (i, j) in [(0usize, 0usize), (n + 3, 1), (m - 1, n - 1)] {
            let mut v = f.v.clone();
            v[(i, j)] = f64::NAN;
            assert!(!finite(&split(&v, &f.t)), "NaN at V({i},{j}) was masked");
        }
        for (i, j) in [(0usize, 0usize), (0, n - 1), (n - 1, n - 1)] {
            let mut t = f.t.clone();
            t[(i, j)] = f64::NAN;
            assert!(!finite(&split(&f.v, &t)), "NaN at T({i},{j}) was masked");
        }
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn thin_q_of_row_blocks_rejects_a_ragged_block() {
        let f = geqrt(&Matrix::random(40, 4, 1));
        let (top, bottom) = (f.v.submatrix(0, 20, 0, 4), f.v.submatrix(20, 40, 0, 3));
        let _ = thin_q_blocks(&[&top, &bottom], &f.t);
    }

    #[test]
    fn geqrt_ws_reuses_its_arena() {
        // A warm arena serves every split's scratch from the pool:
        // repeat factorizations of the same shape stop allocating (the
        // three outputs are not arena buffers).
        let mut ws = LocalArena::new();
        for (m, n) in [(200usize, 72usize), (4096, 64)] {
            let a = Matrix::random(m, n, 11);
            let _ = geqrt_ws(&mut ws, a.view());
            let (_, misses_warm) = ws.stats();
            let _ = geqrt_ws(&mut ws, a.view());
            let (_, misses_after) = ws.stats();
            assert_eq!(
                misses_warm, misses_after,
                "a warm geqrt_ws must allocate nothing from the arena"
            );
            assert_eq!(ws.outstanding_bytes(), 0, "all scratch returned");
        }
    }

    #[test]
    #[should_panic(expected = "m ≥ n")]
    fn qr_wide_rejected() {
        let _ = geqrt(&Matrix::zeros(2, 5));
    }

    #[test]
    #[should_panic(expected = "m ≥ n")]
    fn qr_wide_rejected_reference() {
        let _ = geqrt_reference(&Matrix::zeros(2, 5));
    }

    #[test]
    fn t_matches_product_of_reflectors() {
        // Q from (V,T) must equal H₀H₁…H_{n−1} applied to the identity.
        let a = Matrix::random(9, 4, 11);
        let f = geqrt(&a);
        let m = a.rows();
        // Build Q directly from individual reflectors: H_j = I − tau_j v_j v_jᵀ.
        let mut q = Matrix::identity(m);
        for j in (0..a.cols()).rev() {
            let tau = f.t[(j, j)];
            let vj = f.v.submatrix(0, m, j, j + 1);
            // q := (I − tau v vᵀ) q
            let w = matmul_tn(&vj, &q);
            let mut vw = matmul(&vj, &w);
            vw.scale(tau);
            q.sub_assign(&vw);
        }
        let q_wy = full_q(&f.v, &f.t);
        assert_close(&q, &q_wy, 1e-12, "compact WY equals reflector product");
    }

    #[test]
    fn apply_q_then_qt_roundtrips() {
        let a = Matrix::random(10, 3, 13);
        let f = geqrt(&a);
        let c = Matrix::random(10, 6, 14);
        let qc = q_times(&f.v, &f.t, &c);
        let back = qt_times(&f.v, &f.t, &qc);
        assert_close(&back, &c, 1e-12, "QᵀQC = C");
    }

    #[test]
    fn qt_a_gives_r() {
        let a = Matrix::random(12, 4, 15);
        let f = geqrt(&a);
        let qta = qt_times(&f.v, &f.t, &a);
        let top = qta.submatrix(0, 4, 0, 4);
        assert_close(&top, &f.r, 1e-12, "QᵀA = [R; 0] (top)");
        let bottom = qta.submatrix(4, 12, 0, 4);
        assert!(bottom.max_abs() < 1e-12, "QᵀA = [R; 0] (bottom)");
    }

    #[test]
    fn full_q_is_orthogonal() {
        let a = Matrix::random(7, 3, 16);
        let f = geqrt(&a);
        let q = full_q(&f.v, &f.t);
        let gram = matmul_tn(&q, &q);
        assert_close(&gram, &Matrix::identity(7), 1e-12, "full Q orthogonal");
    }

    #[test]
    fn empty_reflector_is_identity() {
        let v = Matrix::zeros(5, 0);
        let t = Matrix::zeros(0, 0);
        let c0 = Matrix::random(5, 2, 17);
        let mut c = c0.clone();
        apply_block_reflector(&v, &t, &mut c, false);
        assert_eq!(c, c0);
    }

    #[test]
    fn apply_ws_matches_wrapper() {
        let a = Matrix::random(30, 6, 23);
        let f = geqrt(&a);
        let c0 = Matrix::random(30, 4, 24);
        let mut c1 = c0.clone();
        apply_block_reflector(&f.v, &f.t, &mut c1, true);
        let mut ws = LocalArena::new();
        let mut c2 = c0.clone();
        apply_block_reflector_ws(&mut ws, &f.v, &f.t, &mut c2, true);
        assert_eq!(c1, c2, "same arithmetic regardless of the arena");
        assert_eq!(thin_q(&f.v, &f.t), thin_q_ws(&mut ws, &f.v, &f.t));
    }

    #[test]
    fn random_with_condition_kappa_one_is_orthonormal() {
        let a = random_with_condition(20, 5, 1.0, 18);
        let gram = matmul_tn(&a, &a);
        assert_close(&gram, &Matrix::identity(5), 1e-12, "κ=1 ⇒ AᵀA = I");
    }

    #[test]
    fn random_with_condition_singular_values_are_graded() {
        // trace(AᵀA) = Σ σ_j² with σ_j = κ^{−j/(n−1)} — checks the whole
        // singular spectrum's sum of squares, not just the norm.
        let (m, n, kappa) = (48usize, 6usize, 1e4f64);
        let a = random_with_condition(m, n, kappa, 19);
        let g = matmul_tn(&a, &a);
        let trace: f64 = (0..n).map(|i| g[(i, i)]).sum();
        let expect: f64 = (0..n)
            .map(|j| kappa.powf(-2.0 * j as f64 / (n as f64 - 1.0)))
            .sum();
        assert!(
            (trace - expect).abs() < 1e-10 * expect,
            "trace {trace} vs {expect}"
        );
    }

    #[test]
    fn random_with_condition_reproducible_and_seed_sensitive() {
        let a = random_with_condition(16, 4, 100.0, 7);
        let b = random_with_condition(16, 4, 100.0, 7);
        assert_eq!(a, b);
        let c = random_with_condition(16, 4, 100.0, 8);
        assert!(a.sub(&c).max_abs() > 1e-3);
    }

    #[test]
    fn random_with_condition_single_column() {
        let a = random_with_condition(8, 1, 1e6, 20);
        let norm = a.frobenius_norm();
        assert!((norm - 1.0).abs() < 1e-12, "single column has σ = 1");
    }

    /// An `m × n` matrix of rank exactly `k` whose trailing `n − k`
    /// columns are *exactly* zero — after `k` Householder steps the
    /// remaining columns stay exactly zero (reflectors are linear), so
    /// every trailing `τ` is exactly `0` and `T`'s trailing rows/columns
    /// are exact zeros.
    fn rank_k_padded(m: usize, n: usize, k: usize, seed: u64) -> Matrix {
        let mut a = Matrix::zeros(m, n);
        a.set_submatrix(0, 0, &Matrix::random(m, k, seed));
        a
    }
}
