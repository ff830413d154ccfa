//! General matrix multiplication (the local `mm` of the paper's Lemma 2).
//!
//! "Directly evaluating the sums-of-products [...] involves IJK
//! multiplications and IJ(K−1) additions; no communication is necessary."
//! The [`crate::flops`] module exposes matching cost formulas so callers can
//! charge the simulated machine.
//!
//! ## Blocked kernel
//!
//! [`gemm`] is a cache-blocked, register-tiled kernel in the standard BLIS
//! structure: operands are packed into contiguous panels (`MC × KC` of
//! `op(A)`, `KC × NC` of `op(B)`), and an `MR × NR` microkernel accumulates
//! a register tile over the packed panels. Packing makes the inner loops
//! stride-1 regardless of transposition, edge tiles are zero-padded so the
//! microkernel is branch-free, and the pack buffers live in a per-thread
//! scratch (ranks are threads, so each simulated rank reuses its own
//! buffers; steady-state multiplies allocate nothing). The macro-tile
//! extents are [`MC`]/[`KC`]/[`NC`].
//!
//! The register tile itself is [`crate::simd::microkernel_8x8`]: explicit
//! AVX-512 / AVX2+FMA / fused-scalar variants behind runtime dispatch,
//! bitwise-identical at every level (see the [`crate::simd`] docs for the
//! contract).
//!
//! ## Blocks in place
//!
//! The packers read their operands through [`MatRef`] — a block of a
//! matrix borrowed where it lies, at the matrix's row stride — and the
//! tiles are written through [`MatMut`], so [`gemm_views`] multiplies
//! blocks of larger matrices without copying them out, and
//! [`gemm_cols_in_place`] updates one column block of a matrix from
//! another (`X₂ += α·X₁·op(B)`, the trailing update of the recursive
//! `geqrt` and right `trsm`). Packing already copies every operand
//! tile into contiguous scratch, so reading in place costs nothing
//! extra and the arithmetic — hence every bit — is that of [`gemm`] on
//! copies of the blocks.
//!
//! ## Row blocks
//!
//! Every multiply, of any size, runs the packed loop on its rank's own
//! thread. The loop runs the same `jc → pc → ic` structure over the
//! full `k` extent with the same `KC` chunking whichever rows of `C` it
//! is given, zero-pads its edge tiles, and starts each `KC` chunk's fma
//! chain from zero, so an entry's bits depend only on its row of
//! `op(A)`, its column of `op(B)` and `k`: a product computed in blocks
//! of rows — one row each, if need be — has the bits of the product
//! computed at once (`tests/prop.rs`).
//!
//! [`gemm_reference`] keeps the seed's scalar triple loop for correctness
//! checks and as the benchmark baseline. Neither kernel short-circuits
//! zero entries: `0 · NaN` must stay `NaN` (IEEE semantics), so there is
//! deliberately no sparse fast path in them.
//!
//! ## A triangular right operand
//!
//! The one structure-aware entry point is [`gemm_upper_views`], for an
//! `op(B)` that is zero below its diagonal by construction — the thin
//! Q-factor's `V_topᵀ` and `T·V_topᵀ` (`crate::qr::thin_q`). It is the
//! same packed loop with each `KC` chunk and each [`NR`]-column panel
//! cut off at the last row of `op(B)` the panel's columns reach, so the
//! products it leaves out are exactly those with the zeros, and the
//! chunks it keeps start where [`gemm`]'s do.

use std::cell::RefCell;
use std::ops::Range;

use crate::dense::{MatMut, MatRef, Matrix};
use crate::simd::{microkernel_8x8, MR, NR};

/// Transpose selector for [`gemm`] operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the operand's transpose.
    Yes,
}

/// Rows of `op(A)` packed per block (`MC × KC` ≈ 256 KiB, L2-resident).
pub const MC: usize = 128;
/// Contraction depth per block. One value for every row block, so the
/// per-element fma chain — and therefore the bitwise result — does not
/// depend on which rows a call is given.
pub const KC: usize = 256;
/// Columns of `op(B)` packed per block.
pub const NC: usize = 2048;

/// Reusable pack buffers for the blocked kernel.
#[derive(Debug, Default)]
struct GemmScratch {
    pack_a: Vec<f64>,
    pack_b: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<GemmScratch> = RefCell::default();
}

/// Run `f` on `len` words (contents unspecified) of this thread's
/// packed-`B` buffer: the kernels that pack a right operand in a layout
/// of their own — [`syrk`]'s panels, the right triangular solve's
/// triangle — share [`gemm`]'s buffer rather than keep another. `f`
/// must not multiply.
pub(crate) fn with_pack_b<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    SCRATCH.with(|s| {
        let pack = &mut s.borrow_mut().pack_b;
        if pack.len() < len {
            pack.resize(len, 0.0);
        }
        f(&mut pack[..len])
    })
}

#[inline(always)]
fn op_dims(t: Trans, m: MatRef<'_>) -> (usize, usize) {
    match t {
        Trans::No => (m.rows(), m.cols()),
        Trans::Yes => (m.cols(), m.rows()),
    }
}

/// Where the kernels read `op(A)` from: a block of its own, or — for
/// [`gemm_cols_in_place`] — columns of the buffer that also holds `C`.
#[derive(Clone, Copy)]
enum ASrc<'a> {
    Mat(Trans, MatRef<'a>),
    /// Columns `a0..a0 + k` of the output buffer's rows.
    Cols(usize),
}

/// `C = alpha * op(A) * op(B) + beta * C`, the general multiply.
///
/// Cache-blocked and register-tiled at every size (see module docs).
/// Fully IEEE: zeros and NaNs in the operands propagate exactly as
/// unblocked arithmetic would.
///
/// # Panics
/// On inner/outer dimension mismatches.
pub fn gemm(ta: Trans, tb: Trans, alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    gemm_views(ta, tb, alpha, a.view(), b.view(), beta, c.view_mut());
}

/// [`gemm`] on blocks borrowed in place: the packers read `a` and `b`
/// where they lie and the tiles land in `c` where it lies, so a kernel
/// that recurses over blocks of one matrix copies nothing. Same
/// arithmetic as [`gemm`] on copies of the blocks, bit for bit.
///
/// # Panics
/// On inner/outer dimension mismatches.
pub fn gemm_views(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    c: MatMut<'_>,
) {
    gemm_shaped(ta, tb, alpha, a, b, beta, c, false);
}

/// [`gemm_views`] with `op(B)` read as upper triangular (trapezoidal):
/// `C = alpha · op(A) · triu(op(B)) + beta · C`. The entries of `op(B)`
/// below its diagonal are packed as zeros, and each [`NR`]-column panel
/// of `C` stops its contraction at the panel's last column, so a square
/// `op(B)` costs about half of [`gemm_views`]'s multiply-adds.
///
/// The terms left out are products with a zero, which leave a finite fma
/// chain where it was (a chain that starts at `+0` holds `−0` only by
/// underflow), and the `KC` chunks keep their boundaries. So for finite
/// `op(A)` the result is [`gemm_views`] of `op(A)` and `triu(op(B))`,
/// bit for bit, except that a `C` entry holding `−0` before the product
/// may come out `+0` there and `−0` here. An `∞` or NaN at `op(A)[i, l]`
/// reaches `C[i, j]` only where `j`'s panel extends to column `l`.
///
/// # Panics
/// On inner/outer dimension mismatches.
pub fn gemm_upper_views(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    c: MatMut<'_>,
) {
    gemm_shaped(ta, tb, alpha, a, b, beta, c, true);
}

/// [`gemm_views`], or with `upper_b` [`gemm_upper_views`].
fn gemm_shaped(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    mut c: MatMut<'_>,
    upper_b: bool,
) {
    let (am, ak) = op_dims(ta, a);
    let (bk, bn) = op_dims(tb, b);
    assert_eq!(ak, bk, "gemm: inner dimension mismatch ({ak} vs {bk})");
    assert_eq!(c.rows(), am, "gemm: output rows mismatch");
    assert_eq!(c.cols(), bn, "gemm: output cols mismatch");

    if beta != 1.0 {
        for i in 0..am {
            for x in c.row_mut(i) {
                *x *= beta;
            }
        }
    }
    if alpha == 0.0 || am == 0 || bn == 0 || ak == 0 {
        return;
    }
    let ld = c.ld();
    let a = ASrc::Mat(ta, a);
    multiply(a, tb, b, upper_b, alpha, c.span_mut(), ld, am, 0, bn, ak);
}

/// `X[:, c_cols] += alpha · X[:, a_cols] · op(B)` — a multiply whose
/// left operand and output are disjoint column blocks of the same
/// matrix (the trailing update of a recursive factorization or solve).
/// A macro-tile of `X[:, a_cols]` is packed, then the tiles it feeds
/// are written: the two blocks are never borrowed at once, nothing is
/// staged, and the arithmetic is that of [`gemm`] on copies.
///
/// # Panics
/// If the column ranges overlap or leave `x`, or `op(B)` is not
/// `a_cols.len() × c_cols.len()`.
pub fn gemm_cols_in_place(
    alpha: f64,
    mut x: MatMut<'_>,
    a_cols: Range<usize>,
    tb: Trans,
    b: MatRef<'_>,
    c_cols: Range<usize>,
) {
    assert!(
        a_cols.end <= x.cols() && c_cols.end <= x.cols(),
        "gemm: column block outside the matrix"
    );
    assert!(
        a_cols.end <= c_cols.start || c_cols.end <= a_cols.start,
        "gemm: operand and output columns overlap"
    );
    let (m, k, n) = (x.rows(), a_cols.len(), c_cols.len());
    assert_eq!(op_dims(tb, b), (k, n), "gemm: op(B) shape mismatch");
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    let ld = x.ld();
    let (a, c0) = (ASrc::Cols(a_cols.start), c_cols.start);
    multiply(a, tb, b, false, alpha, x.span_mut(), ld, m, c0, n, k);
}

/// `C += alpha · op(A) · op(B)` — `triu(op(B))` with `upper_b` — for the
/// `m × n` block `C` that starts at column `c0` of the rows of `buf`
/// (row stride `ld`): the packed loop on this thread's pack buffers,
/// shared by every entry point.
fn multiply(
    a: ASrc<'_>,
    tb: Trans,
    b: MatRef<'_>,
    upper_b: bool,
    alpha: f64,
    buf: &mut [f64],
    ld: usize,
    m: usize,
    c0: usize,
    n: usize,
    k: usize,
) {
    SCRATCH.with(|s| {
        let scratch = &mut s.borrow_mut();
        blocked_kernel_rows(scratch, a, tb, b, upper_b, alpha, buf, ld, c0, n, k, m);
    });
}

/// The seed's scalar triple-loop kernel, kept as the reference baseline
/// for correctness tests and the `kernels` benchmark: row-axpys when
/// `op(B)` is read by rows, dot products when it is read by columns. No
/// zero short-circuit: `0 · NaN = NaN` is preserved.
pub fn gemm_reference(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    let (am, ak) = op_dims(ta, a.view());
    let (bk, bn) = op_dims(tb, b.view());
    assert_eq!(ak, bk, "gemm: inner dimension mismatch ({ak} vs {bk})");
    assert_eq!(c.rows(), am, "gemm: output rows mismatch");
    assert_eq!(c.cols(), bn, "gemm: output cols mismatch");
    if beta != 1.0 {
        c.scale(beta);
    }
    if alpha == 0.0 || am == 0 || bn == 0 || ak == 0 {
        return;
    }
    let op_a = |i: usize, k: usize| match ta {
        Trans::No => a[(i, k)],
        Trans::Yes => a[(k, i)],
    };
    for i in 0..am {
        match tb {
            Trans::No => {
                for kk in 0..ak {
                    let aik = alpha * op_a(i, kk);
                    for (cj, &bj) in c.row_mut(i).iter_mut().zip(b.row(kk)) {
                        *cj += aik * bj;
                    }
                }
            }
            Trans::Yes => {
                for j in 0..bn {
                    let brow = b.row(j);
                    let mut s = 0.0;
                    for kk in 0..ak {
                        s += op_a(i, kk) * brow[kk];
                    }
                    c[(i, j)] += alpha * s;
                }
            }
        }
    }
}

/// Pack `op(A)[ic..ic+mc, pc..pc+kc]` into MR-row panels: panel `ip`
/// holds `kc` columns of `MR` consecutive values, zero-padded past `mc`.
fn pack_a(ta: Trans, a: MatRef<'_>, ic: usize, mc: usize, pc: usize, kc: usize, out: &mut [f64]) {
    let panels = mc.div_ceil(MR);
    debug_assert!(out.len() >= panels * kc * MR);
    for ip in 0..panels {
        let base = ip * kc * MR;
        let i0 = ic + ip * MR;
        let rows = MR.min(mc - ip * MR);
        match ta {
            Trans::No => {
                for kk in 0..kc {
                    let dst = &mut out[base + kk * MR..base + kk * MR + MR];
                    for r in 0..rows {
                        dst[r] = a.at(i0 + r, pc + kk);
                    }
                    dst[rows..].fill(0.0);
                }
            }
            Trans::Yes => {
                // op(A)(i, k) = A(k, i): read rows of A, stride-1.
                for kk in 0..kc {
                    let src = a.row(pc + kk);
                    let dst = &mut out[base + kk * MR..base + kk * MR + MR];
                    dst[..rows].copy_from_slice(&src[i0..i0 + rows]);
                    dst[rows..].fill(0.0);
                }
            }
        }
    }
}

/// Pack `op(B)[pc..pc+kc, jc..jc+nc]` into NR-column panels: panel `jp`
/// holds `kc` rows of `NR` consecutive values, zero-padded past `nc`.
fn pack_b(tb: Trans, b: MatRef<'_>, pc: usize, kc: usize, jc: usize, nc: usize, out: &mut [f64]) {
    let panels = nc.div_ceil(NR);
    debug_assert!(out.len() >= panels * kc * NR);
    for jp in 0..panels {
        let base = jp * kc * NR;
        let j0 = jc + jp * NR;
        let cols = NR.min(nc - jp * NR);
        match tb {
            Trans::No => {
                for kk in 0..kc {
                    let src = b.row(pc + kk);
                    let dst = &mut out[base + kk * NR..base + kk * NR + NR];
                    dst[..cols].copy_from_slice(&src[j0..j0 + cols]);
                    dst[cols..].fill(0.0);
                }
            }
            Trans::Yes => {
                // op(B)(k, j) = B(j, k): column reads of B.
                for kk in 0..kc {
                    let dst = &mut out[base + kk * NR..base + kk * NR + NR];
                    for r in 0..cols {
                        dst[r] = b.at(j0 + r, pc + kk);
                    }
                    dst[cols..].fill(0.0);
                }
            }
        }
    }
}

/// Zero the entries below `op(B)`'s diagonal in a chunk [`pack_b`] laid
/// out: rows `pc..pc + kc` of columns `jc..jc + nc`.
fn clear_below_diagonal(out: &mut [f64], pc: usize, kc: usize, jc: usize, nc: usize) {
    for jp in 0..nc.div_ceil(NR) {
        let j0 = jc + jp * NR;
        let panel = &mut out[jp * kc * NR..(jp + 1) * kc * NR];
        for (kk, row) in panel.chunks_exact_mut(NR).enumerate() {
            let below = (pc + kk).saturating_sub(j0).min(NR);
            row[..below].fill(0.0);
        }
    }
}

/// The packed macro-tile loop: `c_rows` holds the `mb` rows of the
/// output buffer at row stride `ldc`, and `C` is the `n` columns from
/// `c0` of them. The `jc → pc → ic` structure runs over the full `k`
/// extent with the same `KC` chunking for any `mb`, so the per-element
/// fma chain — and therefore the bits of `C` — does not depend on which
/// block of rows the caller holds. With `upper_b` each chunk and each
/// `NR`-column panel stop at the last row of `op(B)` their columns reach
/// on or above its diagonal ([`gemm_upper_views`]).
fn blocked_kernel_rows(
    scratch: &mut GemmScratch,
    a: ASrc<'_>,
    tb: Trans,
    b: MatRef<'_>,
    upper_b: bool,
    alpha: f64,
    c_rows: &mut [f64],
    ldc: usize,
    c0: usize,
    n: usize,
    k: usize,
    mb: usize,
) {
    // Macro-tile extents, capped by the actual problem so tiny products
    // don't pay full-tile pack traffic.
    let mc_step = MC.min(mb).max(1);
    let kc_step = KC.min(k).max(1);
    let nc_step = NC.min(n).max(1);

    // Size the pack buffers once per call from the capped extents
    // (min(MC, m) × min(KC, k), not the full compiled-in tiles).
    let a_panels_cap = mc_step.div_ceil(MR) * MR * kc_step;
    let b_panels_cap = nc_step.div_ceil(NR) * NR * kc_step;
    if scratch.pack_a.len() < a_panels_cap {
        scratch.pack_a.resize(a_panels_cap, 0.0);
    }
    if scratch.pack_b.len() < b_panels_cap {
        scratch.pack_b.resize(b_panels_cap, 0.0);
    }

    // Rows of this chunk of op(B) that columns before `end` reach: with
    // `upper_b`, those on or above the diagonal; else all `kc`.
    let depth = |pc: usize, kc: usize, end: usize| {
        if upper_b {
            kc.min(end.saturating_sub(pc))
        } else {
            kc
        }
    };
    for jc in (0..n).step_by(nc_step) {
        let nc = nc_step.min(n - jc);
        let n_panels = nc.div_ceil(NR);
        for pc in (0..k).step_by(kc_step) {
            let kc = depth(pc, kc_step.min(k - pc), jc + nc);
            if kc == 0 {
                break;
            }
            pack_b(tb, b, pc, kc, jc, nc, &mut scratch.pack_b);
            if upper_b {
                clear_below_diagonal(&mut scratch.pack_b, pc, kc, jc, nc);
            }
            for ic in (0..mb).step_by(mc_step) {
                let mc = mc_step.min(mb - ic);
                let m_panels = mc.div_ceil(MR);
                match a {
                    ASrc::Mat(ta, a) => pack_a(ta, a, ic, mc, pc, kc, &mut scratch.pack_a),
                    // The output's own rows: packed (read) here, before
                    // the tiles below write the same rows' C columns.
                    ASrc::Cols(a0) => {
                        let a = MatRef::new(&c_rows[a0..], mb, k, ldc);
                        pack_a(Trans::No, a, ic, mc, pc, kc, &mut scratch.pack_a);
                    }
                }
                for jp in 0..n_panels {
                    let bp = &scratch.pack_b[jp * kc * NR..(jp + 1) * kc * NR];
                    let j0 = jc + jp * NR;
                    let cols = NR.min(n - j0);
                    let kp = depth(pc, kc, j0 + cols);
                    if kp == 0 {
                        continue;
                    }
                    for ip in 0..m_panels {
                        let ap = &scratch.pack_a[ip * kc * MR..][..kp * MR];
                        let mut acc = [[0.0f64; NR]; MR];
                        microkernel_8x8(ap, &bp[..kp * NR], &mut acc);
                        // Write the valid part of the tile back into C.
                        let i0 = ic + ip * MR;
                        let rows = MR.min(mb - i0);
                        for (r, acc_row) in acc.iter().enumerate().take(rows) {
                            let off = (i0 + r) * ldc + c0 + j0;
                            let crow = &mut c_rows[off..off + cols];
                            for (dst, &v) in crow.iter_mut().zip(acc_row.iter()) {
                                *dst += alpha * v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `A * B` as a new matrix.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, &mut c);
    c
}

/// `Aᵀ * B` as a new matrix.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.cols(), b.cols());
    gemm(Trans::Yes, Trans::No, 1.0, a, b, 0.0, &mut c);
    c
}

/// `A * Bᵀ` as a new matrix.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    gemm(Trans::No, Trans::Yes, 1.0, a, b, 0.0, &mut c);
    c
}

/// Symmetric rank-k update `C = alpha·AᵀA + beta·C` (BLAS `syrk`,
/// `trans = T` form): `A` is `m × n`, `C` is `n × n` in full (symmetric)
/// storage. The result is exactly symmetric (`C[i,j]` and `C[j,i]` are
/// the same rounded value, mirrored from the upper triangle), which the
/// CholeskyQR Gram matrices rely on. Only the tiles on or above the
/// diagonal are computed, from one packing of `A` (see [`syrk_ws`]).
///
/// # Panics
/// If `C` is not `n × n`.
pub fn syrk(alpha: f64, a: &Matrix, beta: f64, c: &mut Matrix) {
    crate::scratch::with_thread_arena(|ws| syrk_ws(ws, alpha, a.view(), beta, c));
}

/// [`syrk`] of a block borrowed in place, with an explicit scratch
/// arena for the accumulated upper triangle, so a warm update allocates
/// nothing.
///
/// This is [`gemm`]'s packed loop specialised to `AᵀA`: with
/// `MR = NR` the panels `op(A) = Aᵀ` and `op(B) = A` pack into are the
/// same words, so each `KC`-row chunk of `A` is packed **once** and
/// [`microkernel_8x8`] runs on the tiles on or above the diagonal only
/// — about half of [`gemm`]'s multiply-adds and half of its packing.
/// The accumulated triangle is mirrored into `C`. Like [`gemm`] it
/// short-circuits no zero entry (a NaN in `A` reaches exactly the rows
/// and columns of `C` its column touches). A tile's fma chain runs over
/// the rows of `A` in order however the rows are chunked, so the bits
/// do not depend on the SIMD level.
pub fn syrk_ws(
    ws: &mut dyn crate::scratch::ScratchArena,
    alpha: f64,
    a: MatRef<'_>,
    beta: f64,
    c: &mut Matrix,
) {
    let n = a.cols();
    assert_eq!(c.rows(), n, "syrk: output rows mismatch");
    assert_eq!(c.cols(), n, "syrk: output cols mismatch");
    if beta != 1.0 {
        c.scale(beta);
    }
    if alpha == 0.0 || n == 0 {
        return;
    }
    // The upper triangle of AᵀA, at row stride `ldg`.
    let ldg = n.next_multiple_of(NR);
    let mut upper = ws.take(ldg * ldg);
    syrk_upper_tiles(a, &mut upper, ldg);
    for i in 0..n {
        for j in i..n {
            let v = alpha * upper[i * ldg + j];
            c[(i, j)] += v;
            if j != i {
                c[(j, i)] += v;
            }
        }
    }
    ws.put(upper);
}

/// `upper += AᵀA` on the [`NR`]-wide tiles on or above the diagonal,
/// with `upper` at row stride `ldg` (a multiple of [`NR`]). Per chunk
/// of rows, `A`'s columns are packed once into [`NR`]-column panels —
/// the layout both [`pack_a`] of `Aᵀ` and [`pack_b`] of `A` produce —
/// and tile `(ip, jp)` is the microkernel on panels `ip` and `jp`,
/// continuing the fma chain the tile holds. As in [`gemm`]'s loop,
/// `MC` rows of tiles at a time keep their panels in L2 while the
/// others stream past, and the chunk is `KC` rows, fewer where the
/// panels would outgrow [`gemm`]'s `KC × NC` packed `B`.
fn syrk_upper_tiles(a: MatRef<'_>, upper: &mut [f64], ldg: usize) {
    let (m, n) = (a.rows(), a.cols());
    let panels = n.div_ceil(NR);
    let width = panels * NR;
    let kc_step = (KC * NC / width).min(KC).min(m).max(1);
    let mc_panels = MC / MR;
    with_pack_b(width * kc_step, |pack| {
        for pc in (0..m).step_by(kc_step) {
            let kc = kc_step.min(m - pc);
            pack_b(Trans::No, a, pc, kc, 0, n, pack);
            let panel = |p: usize| &pack[p * kc * NR..(p + 1) * kc * NR];
            for i0 in (0..panels).step_by(mc_panels) {
                let i1 = (i0 + mc_panels).min(panels);
                for jp in i0..panels {
                    for ip in i0..i1.min(jp + 1) {
                        let tile = ip * MR * ldg + jp * NR;
                        let mut acc = [[0.0f64; NR]; MR];
                        for (r, acc_row) in acc.iter_mut().enumerate() {
                            acc_row.copy_from_slice(&upper[tile + r * ldg..tile + r * ldg + NR]);
                        }
                        microkernel_8x8(panel(ip), panel(jp), &mut acc);
                        for (r, acc_row) in acc.iter().enumerate() {
                            upper[tile + r * ldg..tile + r * ldg + NR].copy_from_slice(acc_row);
                        }
                    }
                }
            }
        }
    });
}

/// The seed's scalar half-flop symmetric update, kept (like
/// [`gemm_reference`]) as the correctness baseline for the blocked
/// [`syrk`]. Same contract.
pub fn syrk_reference(alpha: f64, a: &Matrix, beta: f64, c: &mut Matrix) {
    let (m, n) = (a.rows(), a.cols());
    assert_eq!(c.rows(), n, "syrk: output rows mismatch");
    assert_eq!(c.cols(), n, "syrk: output cols mismatch");
    if beta != 1.0 {
        c.scale(beta);
    }
    if alpha == 0.0 || n == 0 {
        return;
    }
    // Accumulate the upper triangle row-by-row over A's rows (stride-1 on
    // every inner access for a row-major A).
    let mut upper = vec![0.0f64; n * n];
    for k in 0..m {
        let row = a.row(k);
        for i in 0..n {
            let aki = row[i];
            let dst = &mut upper[i * n..(i + 1) * n];
            for j in i..n {
                dst[j] += aki * row[j];
            }
        }
    }
    for i in 0..n {
        for j in i..n {
            let v = alpha * upper[i * n + j];
            c[(i, j)] += v;
            if j != i {
                c[(j, i)] += v;
            }
        }
    }
}

/// The Gram matrix `AᵀA` as a new (exactly symmetric) matrix.
pub fn gram(a: &Matrix) -> Matrix {
    let mut g = Matrix::zeros(a.cols(), a.cols());
    syrk(1.0, a, 0.0, &mut g);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                for k in 0..a.cols() {
                    c[(i, j)] += a[(i, k)] * b[(k, j)];
                }
            }
        }
        c
    }

    fn close(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        a.sub(b).max_abs() <= tol
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Matrix::random(5, 7, 1);
        let b = Matrix::random(7, 4, 2);
        assert!(close(&matmul(&a, &b), &naive(&a, &b), 1e-13));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::random(6, 6, 3);
        assert!(close(&matmul(&a, &Matrix::identity(6)), &a, 0.0));
        assert!(close(&matmul(&Matrix::identity(6), &a), &a, 0.0));
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let a = Matrix::random(5, 3, 4);
        let b = Matrix::random(5, 4, 5);
        assert!(close(&matmul_tn(&a, &b), &naive(&a.transpose(), &b), 1e-13));
        let c = Matrix::random(3, 6, 6);
        let d = Matrix::random(2, 6, 7);
        assert!(close(&matmul_nt(&c, &d), &naive(&c, &d.transpose()), 1e-13));
    }

    #[test]
    fn syrk_matches_gemm_tn() {
        for (m, n, seed) in [(9usize, 4usize, 10u64), (33, 7, 11), (1, 3, 12)] {
            let a = Matrix::random(m, n, seed);
            let g = gram(&a);
            assert!(close(&g, &matmul_tn(&a, &a), 1e-13), "m={m} n={n}");
        }
    }

    #[test]
    fn syrk_matches_reference_and_is_exactly_symmetric() {
        // Orders on both sides of one tile and of several, a ragged
        // last tile; heights on both sides of one KC chunk and many
        // chunks; overwrite, accumulate and scale.
        for n in [1usize, 7, 8, 9, 63, 64, 65, 100] {
            for m in [1usize, n, 255, 256, 257, 4096] {
                let a = Matrix::random(m, n, (31 * m + n) as u64);
                let c0 = gram(&Matrix::random(3, n, 16));
                for (alpha, beta) in [(1.0, 0.0), (-0.5, 1.0), (2.0, 0.25)] {
                    let what = format!("{m} × {n}, α = {alpha}, β = {beta}");
                    let mut got = c0.clone();
                    syrk(alpha, &a, beta, &mut got);
                    let mut want = c0.clone();
                    syrk_reference(alpha, &a, beta, &mut want);
                    let tol = 1e-14 * (m as f64) * want.max_abs().max(1.0);
                    assert!(close(&got, &want, tol), "{what}: not the reference");
                    for i in 0..n {
                        for j in 0..i {
                            assert_eq!(got[(i, j)].to_bits(), got[(j, i)].to_bits(), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn syrk_nan_poisons_exactly_its_row_and_column() {
        // The row of A holding the NaN is otherwise zero: only a kernel
        // that multiplies through (0·NaN = NaN) poisons the whole of
        // row and column `col` of AᵀA — and it must poison nothing else,
        // padded lanes of a ragged tile included.
        for (m, n, row, col) in [(40usize, 9usize, 3usize, 8usize), (600, 65, 300, 17)] {
            let mut a = Matrix::random(m, n, 17);
            a.row_mut(row).fill(0.0);
            a[(row, col)] = f64::NAN;
            let g = gram(&a);
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        g[(i, j)].is_nan(),
                        i == col || j == col,
                        "{m} × {n}: entry ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn syrk_alpha_beta_accumulate() {
        let a = Matrix::random(6, 3, 14);
        let mut c = Matrix::identity(3);
        syrk(2.0, &a, 0.5, &mut c);
        let mut expect = Matrix::identity(3);
        expect.scale(0.5);
        let mut g = matmul_tn(&a, &a);
        g.scale(2.0);
        expect.add_assign(&g);
        assert!(close(&c, &expect, 1e-13));
    }

    #[test]
    fn syrk_empty_dimensions() {
        let a = Matrix::zeros(0, 4);
        let g = gram(&a);
        assert_eq!(g, Matrix::zeros(4, 4));
        let a = Matrix::zeros(5, 0);
        assert_eq!(gram(&a), Matrix::zeros(0, 0));
    }

    #[test]
    fn gemm_tt_matches() {
        let a = Matrix::random(4, 3, 8);
        let b = Matrix::random(5, 4, 9);
        let mut c = Matrix::zeros(3, 5);
        gemm(Trans::Yes, Trans::Yes, 1.0, &a, &b, 0.0, &mut c);
        assert!(close(&c, &naive(&a.transpose(), &b.transpose()), 1e-13));
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = Matrix::random(3, 3, 10);
        let b = Matrix::random(3, 3, 11);
        let c0 = Matrix::random(3, 3, 12);
        let mut c = c0.clone();
        gemm(Trans::No, Trans::No, 2.0, &a, &b, 0.5, &mut c);
        let mut expect = naive(&a, &b);
        expect.scale(2.0);
        let mut half_c0 = c0.clone();
        half_c0.scale(0.5);
        expect.add_assign(&half_c0);
        assert!(close(&c, &expect, 1e-13));
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        let a = Matrix::random(2, 2, 13);
        let b = Matrix::random(2, 2, 14);
        let mut c = Matrix::from_fn(2, 2, |_, _| f64::MAX / 4.0);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        assert!(close(&c, &naive(&a, &b), 1e-13));
    }

    #[test]
    fn zero_dimensions_are_fine() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let c = matmul(&a, &b);
        assert_eq!((c.rows(), c.cols()), (0, 2));
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        let c = matmul(&a, &b);
        assert_eq!((c.rows(), c.cols()), (2, 3));
        assert_eq!(c.frobenius_norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn associativity_numerically() {
        let a = Matrix::random(4, 4, 20);
        let b = Matrix::random(4, 4, 21);
        let c = Matrix::random(4, 4, 22);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        assert!(close(&left, &right, 1e-12));
    }

    #[test]
    fn nan_propagates_through_zero_entries() {
        // 0 · NaN must be NaN: the seed's `aik == 0.0` fast path broke
        // IEEE semantics; neither kernel may short-circuit zeros.
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 0.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let mut b = Matrix::zeros(2, 2);
        b[(0, 0)] = f64::NAN;
        b[(1, 1)] = 2.0;
        let c = matmul(&a, &b);
        assert!(c[(0, 0)].is_nan(), "0·NaN + 1·0 must be NaN");
        assert!(c[(1, 0)].is_nan(), "1·NaN + 0·0 must be NaN");
        let mut cr = Matrix::zeros(2, 2);
        gemm_reference(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut cr);
        assert!(cr[(0, 0)].is_nan() && cr[(1, 0)].is_nan());
    }

    #[test]
    fn infinity_propagates() {
        let mut a = Matrix::zeros(1, 2);
        a[(0, 0)] = 0.0;
        a[(0, 1)] = 1.0;
        let mut b = Matrix::zeros(2, 1);
        b[(0, 0)] = f64::INFINITY;
        b[(1, 0)] = 1.0;
        // 0·∞ = NaN; NaN + 1 = NaN.
        assert!(matmul(&a, &b)[(0, 0)].is_nan());
    }

    #[test]
    fn blocked_matches_reference_across_edge_shapes() {
        // Shapes straddling MR/NR/MC/KC boundaries, all four transposes.
        let shapes = [
            (1usize, 1usize, 1usize),
            (3, 5, 2),
            (4, 8, 16),
            (5, 9, 17),
            (31, 33, 40),
            (64, 24, 129),
            (100, 90, 80),
            (130, 70, 65),
            (129, 257, 30),
        ];
        for &(m, n, k) in &shapes {
            for (ta, tb) in [
                (Trans::No, Trans::No),
                (Trans::Yes, Trans::No),
                (Trans::No, Trans::Yes),
                (Trans::Yes, Trans::Yes),
            ] {
                let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
                let (br, bc) = if tb == Trans::No { (k, n) } else { (n, k) };
                let a = Matrix::random(ar, ac, (m * 31 + n) as u64);
                let b = Matrix::random(br, bc, (k * 17 + n) as u64);
                let c0 = Matrix::random(m, n, 77);
                let mut c_blocked = c0.clone();
                gemm(ta, tb, 1.5, &a, &b, -0.5, &mut c_blocked);
                let mut c_ref = c0.clone();
                gemm_reference(ta, tb, 1.5, &a, &b, -0.5, &mut c_ref);
                assert!(
                    close(&c_blocked, &c_ref, 1e-10 * (k as f64).max(1.0)),
                    "blocked != reference for {m}x{n}x{k} {ta:?}/{tb:?}"
                );
            }
        }
    }

    #[test]
    fn views_multiply_in_place_what_copies_multiply() {
        // Blocks of larger matrices, read and written where they lie,
        // against the same product on copies of the blocks: bit for
        // bit, small and large.
        for (m, n, k) in [(5usize, 7usize, 3usize), (130, 70, 65), (40, 33, 300)] {
            for (ta, tb) in [
                (Trans::No, Trans::No),
                (Trans::Yes, Trans::No),
                (Trans::No, Trans::Yes),
                (Trans::Yes, Trans::Yes),
            ] {
                let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
                let (br, bc) = if tb == Trans::No { (k, n) } else { (n, k) };
                let big_a = Matrix::random(ar + 3, ac + 5, 1);
                let big_b = Matrix::random(br + 2, bc + 4, 2);
                let mut big_c = Matrix::random(m + 4, n + 6, 3);
                let before = big_c.clone();
                let (a, b) = (
                    big_a.block(1, 1 + ar, 2, 2 + ac),
                    big_b.block(2, 2 + br, 3, 3 + bc),
                );
                let mut want = big_c.submatrix(3, 3 + m, 1, 1 + n);
                gemm(
                    ta,
                    tb,
                    1.5,
                    &big_a.submatrix(1, 1 + ar, 2, 2 + ac),
                    &big_b.submatrix(2, 2 + br, 3, 3 + bc),
                    -0.5,
                    &mut want,
                );
                gemm_views(ta, tb, 1.5, a, b, -0.5, big_c.block_mut(3, 3 + m, 1, 1 + n));
                assert_eq!(
                    big_c.submatrix(3, 3 + m, 1, 1 + n),
                    want,
                    "{m}x{n}x{k} {ta:?}/{tb:?}"
                );
                // Nothing outside the block moved.
                let mut restored = big_c.clone();
                restored.set_submatrix(3, 1, &before.submatrix(3, 3 + m, 1, 1 + n));
                assert_eq!(
                    restored, before,
                    "{m}x{n}x{k} {ta:?}/{tb:?}: wrote outside C"
                );
            }
        }
    }

    #[test]
    fn upper_product_is_the_product_of_the_upper_triangle_bit_for_bit() {
        // triu(op(B)) multiplied in full against the kernel that packs
        // zeros below the diagonal and stops each panel at its last
        // column, where the contraction spans two KC chunks (shapes
        // below KC are swept in tests/prop.rs): square and tall op(B),
        // garbage below the diagonal, all transposes.
        let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (m, n, k) in [(70usize, 300usize, 300usize), (9, 13, 280)] {
            for (ta, tb) in [
                (Trans::No, Trans::No),
                (Trans::Yes, Trans::No),
                (Trans::No, Trans::Yes),
                (Trans::Yes, Trans::Yes),
            ] {
                let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
                let a = Matrix::random(ar, ac, 1);
                let op_b = Matrix::random(k, n, 2);
                let upper = Matrix::from_fn(k, n, |l, j| if l <= j { op_b[(l, j)] } else { 0.0 });
                let (upper, b) = match tb {
                    Trans::No => (upper, op_b),
                    Trans::Yes => (upper.transpose(), op_b.transpose()),
                };
                let c0 = Matrix::random(m, n, 3);
                let mut want = c0.clone();
                gemm_views(ta, tb, 1.5, a.view(), upper.view(), -0.5, want.view_mut());
                let mut got = c0.clone();
                gemm_upper_views(ta, tb, 1.5, a.view(), b.view(), -0.5, got.view_mut());
                assert_eq!(bits(&got), bits(&want), "{m}x{n}x{k} {ta:?}/{tb:?}");
            }
        }
    }

    #[test]
    fn column_blocks_multiply_in_place() {
        // X[:, c] += α·X[:, a]·op(B) against the same product on copies,
        // bit for bit, with the operand left or right of the output.
        for (rows, k, n) in [(6usize, 3usize, 4usize), (300, 32, 24), (1000, 8, 8)] {
            for tb in [Trans::No, Trans::Yes] {
                for a_first in [true, false] {
                    let width = k + n + 3;
                    let (a_cols, c_cols) = if a_first {
                        (1..1 + k, 2 + k..2 + k + n)
                    } else {
                        (2 + n..2 + n + k, 1..1 + n)
                    };
                    let mut x = Matrix::random(rows + 2, width, 4);
                    let before = x.clone();
                    let b = if tb == Trans::No {
                        Matrix::random(k, n, 5)
                    } else {
                        Matrix::random(n, k, 5)
                    };
                    let a = before.submatrix(1, 1 + rows, a_cols.start, a_cols.end);
                    let mut want = before.submatrix(1, 1 + rows, c_cols.start, c_cols.end);
                    gemm(Trans::No, tb, -1.0, &a, &b, 1.0, &mut want);
                    let block = x.block_mut(1, 1 + rows, 0, width);
                    gemm_cols_in_place(-1.0, block, a_cols.clone(), tb, b.view(), c_cols.clone());
                    let what = format!("{rows}x{k}x{n} {tb:?} a_first={a_first}");
                    assert_eq!(
                        x.submatrix(1, 1 + rows, c_cols.start, c_cols.end),
                        want,
                        "{what}"
                    );
                    let mut restored = x.clone();
                    restored.set_submatrix(
                        1,
                        c_cols.start,
                        &before.submatrix(1, 1 + rows, c_cols.start, c_cols.end),
                    );
                    assert_eq!(restored, before, "{what}: wrote outside the output columns");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn column_blocks_must_not_overlap() {
        let mut x = Matrix::zeros(4, 6);
        let b = Matrix::zeros(3, 3);
        gemm_cols_in_place(1.0, x.view_mut(), 0..3, Trans::No, b.view(), 2..5);
    }

    #[test]
    fn scratch_reuse_is_stable() {
        // The thread's pack buffers across differently-shaped calls
        // must stay correct.
        for (m, n, k) in [(40usize, 30usize, 20usize), (20, 64, 33), (7, 7, 300)] {
            let a = Matrix::random(m, k, (m + n) as u64);
            let b = Matrix::random(k, n, (n + k) as u64);
            assert!(close(&matmul(&a, &b), &naive(&a, &b), 1e-10));
        }
    }
}
