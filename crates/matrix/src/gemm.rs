//! General matrix multiplication (the local `mm` of the paper's Lemma 2).
//!
//! "Directly evaluating the sums-of-products [...] involves IJK
//! multiplications and IJ(K−1) additions; no communication is necessary."
//! The [`crate::flops`] module exposes matching cost formulas so callers can
//! charge the simulated machine.
//!
//! ## Blocked kernel
//!
//! [`gemm`] is a cache-blocked, register-tiled kernel in the BLIS
//! structure: `jc → pc → ic` loops over `KC × NC` chunks of `op(B)` and
//! `MC`-row blocks of `C`, and an `MR × NR` microkernel accumulates a
//! register tile over one `KC` chunk. The macro-tile extents are
//! [`MC`]/[`KC`]/[`NC`].
//!
//! The microkernel, [`crate::simd::microkernel_8x8`], reads its operands
//! through strides, so only an operand that pays for its copy is packed:
//!
//! * `op(A)` is never packed. A tile row of `A` is read along its row
//!   (stride 1), one of `Aᵀ` down its column (the row stride); a ragged
//!   last row panel repeats its last real row instead of being staged,
//!   and the rows this adds are dropped at write-back. At the recursive
//!   `geqrt`'s shapes — `C` a few dozen square, `k` in the thousands —
//!   packing is about half of a multiply's time: `Aᵀ·A` for a 2048 × 32
//!   `A` takes 0.20 ms with both operands read in place against 0.33 ms
//!   with both packed (2-vCPU Sapphire Rapids guest, AVX-512, medians of
//!   40 alternating runs).
//! * `op(B)` is packed per `KC` chunk into [`NR`]-column panels — stride
//!   1 along the tile's columns whatever the transpose, zero-padded past
//!   a ragged last panel — when the `ic` loop reads the chunk again for
//!   every `MC` rows of `C`, or when it is `Bᵀ` or [`gemm_upper_views`]'s
//!   triangle. A plain `op(B) = B` under a `C` of at most [`MC`] rows is
//!   read once per tile row, so its full panels are read where they lie
//!   and only a ragged last panel is packed. Reading `B` in place at
//!   every size makes a 512³ product 1.56× slower (256³: 1.2×).
//!
//! The pack buffer lives in a per-thread scratch (ranks are threads, so
//! each simulated rank reuses its own buffer; steady-state multiplies
//! allocate nothing).
//!
//! The register tile is explicit AVX-512 / AVX2+FMA / fused-scalar
//! variants behind runtime dispatch, bitwise-identical at every level
//! (see the [`crate::simd`] docs for the contract). Two adjacent full
//! [`NR`]-column panels run as one pair of tiles,
//! [`crate::simd::microkernel_8x8_pair`]: at the AVX-512 level one body
//! holds both, 16 accumulators where a lone tile's 8 — exactly FMA
//! latency × FMA ports — leave the pipes no slack. A lone or ragged
//! panel runs the 8×8 tile. Pairing is a choice by shape, and each
//! entry's fma chain is the same either way, so it moves no bit. Against
//! lone 8×8 tiles it takes a 32 × 2048 by 2048 × 32 product to
//! 0.63–0.72× the time (0.111 → 0.071 ms at best), a 2048 × 64 by
//! 64 × 64 one to 0.76–0.81×, `gemm_upper_views` at 16384 × 64 by
//! 64 × 64 to 0.76–0.82× and 512³ to 0.78–0.85× (2-vCPU Sapphire Rapids
//! guest, AVX-512, medians of 30 alternating runs in one process, four
//! sessions). Three panels per tile were no faster than two.
//!
//! ## Blocks in place
//!
//! The kernel reads its operands through [`MatRef`] — a block of a
//! matrix borrowed where it lies, at the matrix's row stride — and the
//! tiles are written through [`MatMut`], so [`gemm_views`] multiplies
//! blocks of larger matrices without copying them out, and
//! [`gemm_cols_in_place`] updates one column block of a matrix from
//! another (`X₂ += α·X₁·op(B)`, the trailing update of the recursive
//! `geqrt` and right `trsm`). Read in place or packed, each entry sees
//! the same fma chain, so the arithmetic — hence every bit — is that of
//! [`gemm`] on copies of the blocks.
//!
//! ## Row blocks
//!
//! Every multiply, of any size, runs the blocked loop on its rank's own
//! thread. The loop runs the same `jc → pc → ic` structure over the
//! full `k` extent with the same `KC` chunking whichever rows of `C` it
//! is given, and starts each `KC` chunk's fma chain from zero, so an entry's bits depend only on its row of
//! `op(A)`, its column of `op(B)` and `k`: a product computed in blocks
//! of rows — one row each, if need be — has the bits of the product
//! computed at once (`tests/prop.rs`).
//!
//! [`gemm_reference`] keeps the seed's scalar triple loop for correctness
//! checks and as the benchmark baseline. Neither kernel short-circuits
//! zero entries: `0 · NaN` must stay `NaN` (IEEE semantics), so there is
//! deliberately no sparse fast path in them.
//!
//! ## Triangular operands
//!
//! Two entry points skip structural zeros, for the thin Q-factor
//! (`crate::qr::thin_q`), whose operands are triangular by construction.
//! [`gemm_upper_views`] reads `op(B)` as zero below its diagonal
//! (`V_topᵀ`, `T·V_topᵀ`): each `KC` chunk and each [`NR`]-column panel
//! is cut off at the last row of `op(B)` the panel's columns reach.
//! [`gemm_triangular_views`] also skips a triangle of `op(A)` that holds
//! stored zeros (`T`'s lower one, the upper one of `V`'s top rows): each
//! [`MR`]-row tile's part of a chunk starts at its first row's diagonal,
//! or stops at its last row's, and a tile that reaches none of a chunk is
//! skipped. Either way it is the same blocked loop: the products left out
//! are products with zeros, and the chunks it keeps start where
//! [`gemm`]'s do, so for finite operands the bits are the full
//! multiply's. On a 384 × 384 factorization's own `V` and `T`, skipping
//! `op(A)`'s triangle as well took `T·V_topᵀ` from 1.25 to 0.61 ms and
//! `[I; 0] − V·(T·V_topᵀ)` from 1.36 to 1.01 ms (2-vCPU Sapphire Rapids
//! guest, AVX-512, medians of 40 interleaved runs in one process).

use std::cell::RefCell;
use std::ops::Range;

use crate::dense::{MatMut, MatRef, Matrix};
use crate::simd::{microkernel_8x8, microkernel_8x8_pair, MR, NR};

/// Transpose selector for [`gemm`] operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the operand's transpose.
    Yes,
}

/// Rows of `C` per row block: the `ic` loop's step, and the height up
/// to which a plain `op(B)` is read where it lies rather than packed
/// (see the module docs).
pub const MC: usize = 128;
/// Contraction depth per block. One value for every row block, so the
/// per-element fma chain — and therefore the bitwise result — does not
/// depend on which rows a call is given.
pub const KC: usize = 256;
/// Columns of `op(B)` packed per block.
pub const NC: usize = 2048;

thread_local! {
    /// This thread's packed-`op(B)` buffer, reused by every multiply.
    static PACK_B: RefCell<Vec<f64>> = RefCell::default();
}

/// Run `f` on `len` words (contents unspecified) of this thread's
/// packed-`B` buffer: the kernels that pack a right operand in a layout
/// of their own — [`syrk`]'s panels, the right triangular solve's
/// triangle — share [`gemm`]'s buffer rather than keep another. `f`
/// must not multiply.
pub(crate) fn with_pack_b<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    PACK_B.with(|p| {
        let pack = &mut p.borrow_mut();
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

/// [`gemm`] on blocks borrowed in place: the kernel reads `a` and `b`
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
    gemm_shaped(ta, tb, alpha, a, b, beta, c, Zeros::default());
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
    let zeros = Zeros {
        a: None,
        upper_b: true,
    };
    gemm_shaped(ta, tb, alpha, a, b, beta, c, zeros);
}

/// The triangle of `op(A)` that holds only zeros, for
/// [`gemm_triangular_views`]: row `i` of `op(A)` is row `first + i` of a
/// triangular (trapezoidal) matrix — a block of its rows from `first`
/// on — and the column index `l` runs along the contraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriA {
    /// Zero left of the diagonal: `op(A)[i, l] = 0` for `l < first + i`,
    /// as in `T`, upper triangular.
    Upper(usize),
    /// Zero right of the diagonal: `op(A)[i, l] = 0` for `l > first + i`,
    /// as in a block of rows of `V`, unit lower trapezoidal.
    Lower(usize),
}

impl TriA {
    /// The contraction indices that row tile `i0..i0 + rows` of `op(A)`
    /// may hold non-zeros at: from its first row's diagonal on (upper),
    /// or up to its last row's (lower).
    fn reach(self, i0: usize, rows: usize, k: usize) -> Range<usize> {
        match self {
            TriA::Upper(first) => (first + i0).min(k)..k,
            TriA::Lower(first) => 0..(first + i0 + rows).min(k),
        }
    }
}

/// [`gemm_upper_views`] with `op(A)` triangular too: `C = alpha ·
/// op(A) · triu(op(B)) + beta · C` where `op(A)` holds zeros (`+0` or
/// `−0`) in the triangle `tri_a` names. Each [`MR`]-row tile of `op(A)`
/// starts its contraction at its first row's diagonal (`Upper`) or stops
/// it at its last row's (`Lower`), inside the same `KC` chunks: the
/// products left out are products with `op(A)`'s zeros and with `op(B)`'s
/// below its diagonal, and a tile that reaches none of a chunk is skipped.
///
/// So [`gemm_upper_views`]'s contract holds as it stands: for finite
/// operands the result is [`gemm_views`] of `op(A)` and `triu(op(B))`,
/// bit for bit, except that a `C` entry holding `−0` before the product
/// may come out `+0` there and `−0` here. The tile's other rows still
/// read the triangle between their diagonal and the tile's reach, so the
/// zeros must be stored: a non-finite entry in the triangle reaches `C`
/// where a tile reads it and nowhere else.
///
/// # Panics
/// On inner/outer dimension mismatches.
pub fn gemm_triangular_views(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'_>,
    tri_a: TriA,
    b: MatRef<'_>,
    beta: f64,
    c: MatMut<'_>,
) {
    let zeros = Zeros {
        a: Some(tri_a),
        upper_b: true,
    };
    gemm_shaped(ta, tb, alpha, a, b, beta, c, zeros);
}

/// The zeros a multiply leaves out: a triangle of `op(A)`, and with
/// `upper_b` the entries of `op(B)` below its diagonal.
#[derive(Clone, Copy, Default)]
struct Zeros {
    a: Option<TriA>,
    upper_b: bool,
}

/// [`gemm_views`], [`gemm_upper_views`] or [`gemm_triangular_views`], by
/// the zeros they leave out.
fn gemm_shaped(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    mut c: MatMut<'_>,
    zeros: Zeros,
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
    multiply(a, tb, b, zeros, alpha, c.span_mut(), ld, am, 0, bn, ak);
}

/// `X[:, c_cols] += alpha · X[:, a_cols] · op(B)` — a multiply whose
/// left operand and output are disjoint column blocks of the same
/// matrix (the trailing update of a recursive factorization or solve).
/// `X[:, a_cols]` is read where it lies, tile by tile, before the tile
/// it feeds is written: the two blocks are never borrowed at once,
/// nothing is staged, and the arithmetic is that of [`gemm`] on copies.
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
    let (a, c0, zeros) = (ASrc::Cols(a_cols.start), c_cols.start, Zeros::default());
    multiply(a, tb, b, zeros, alpha, x.span_mut(), ld, m, c0, n, k);
}

/// `C += alpha · op(A) · op(B)`, leaving out `zeros`, for the `m × n`
/// block `C` that starts at column `c0` of the rows of `buf` (row stride
/// `ld`): the blocked loop on this thread's pack buffer, shared by every
/// entry point.
fn multiply(
    a: ASrc<'_>,
    tb: Trans,
    b: MatRef<'_>,
    zeros: Zeros,
    alpha: f64,
    buf: &mut [f64],
    ld: usize,
    m: usize,
    c0: usize,
    n: usize,
    k: usize,
) {
    PACK_B.with(|p| {
        let pack = &mut p.borrow_mut();
        blocked_kernel_rows(pack, a, tb, b, zeros, alpha, buf, ld, c0, n, k, m);
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

/// Where the microkernel reads the tile of `op(A)` whose rows start at
/// `i0`, `rows` of them real, in the `KC` chunk from `pc`: `op(A)` is
/// `trans` of a row-major block at row stride `ld`. One start per tile
/// row — a ragged tile repeats its last real row, whose extra results
/// are never written back — and the stride along `k`.
fn a_tile(trans: Trans, ld: usize, i0: usize, rows: usize, pc: usize) -> ([usize; MR], usize) {
    let row = |r: usize| i0 + r.min(rows - 1);
    match trans {
        Trans::No => (std::array::from_fn(|r| row(r) * ld + pc), 1),
        Trans::Yes => (std::array::from_fn(|r| pc * ld + row(r)), ld),
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

/// The blocked macro-tile loop: `c_rows` holds the `mb` rows of the
/// output buffer at row stride `ldc`, and `C` is the `n` columns from
/// `c0` of them. The `jc → pc → ic` structure runs over the full `k`
/// extent with the same `KC` chunking for any `mb`, so the per-element
/// fma chain — and therefore the bits of `C` — does not depend on which
/// block of rows the caller holds. With `zeros.upper_b` each chunk and
/// each `NR`-column panel stop at the last row of `op(B)` their columns
/// reach on or above its diagonal ([`gemm_upper_views`]); with
/// `zeros.a` each row tile's part of a chunk is cut to the columns of
/// `op(A)` the tile reaches ([`gemm_triangular_views`]).
///
/// `op(A)` is read where it lies. `op(B)` is packed into `pack` per
/// chunk, except its full `NR`-column panels of a plain `op(B) = B`
/// when `C` has at most [`MC`] rows: those are read where they lie, for
/// the `ic` loop then visits each chunk only once and a pack would not
/// be reused. Two adjacent full panels run as one pair of tiles
/// ([`microkernel_8x8_pair`]); with `upper_b` the right one reaches
/// further down its chunk and runs its last steps alone.
fn blocked_kernel_rows(
    pack: &mut Vec<f64>,
    a: ASrc<'_>,
    tb: Trans,
    b: MatRef<'_>,
    zeros: Zeros,
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

    // Size the pack buffer once per call from the capped extents.
    let b_panels_cap = nc_step.div_ceil(NR) * NR * kc_step;
    if pack.len() < b_panels_cap {
        pack.resize(b_panels_cap, 0.0);
    }
    let upper_b = zeros.upper_b;
    let b_in_place = tb == Trans::No && !upper_b && mb <= MC;
    let (a_trans, lda) = match a {
        ASrc::Mat(ta, a) => (ta, a.ld()),
        ASrc::Cols(_) => (Trans::No, ldc),
    };

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
        // Panels from `packed` on are packed: all of them, or with B
        // read in place only a ragged last one.
        let packed = if b_in_place { nc / NR } else { 0 };
        for pc in (0..k).step_by(kc_step) {
            let kc = depth(pc, kc_step.min(k - pc), jc + nc);
            if kc == 0 {
                break;
            }
            if packed < n_panels {
                let (j0, width) = (jc + packed * NR, nc - packed * NR);
                pack_b(tb, b, pc, kc, j0, width, pack);
                if upper_b {
                    clear_below_diagonal(pack, pc, kc, j0, width);
                }
            }
            // Panel `jp`'s words and row stride.
            let source = |jp: usize| {
                if jp < packed {
                    (&b.span()[pc * b.ld() + jc + jp * NR..], b.ld())
                } else {
                    (&pack[(jp - packed) * kc * NR..], NR)
                }
            };
            for ic in (0..mb).step_by(mc_step) {
                let mc = mc_step.min(mb - ic);
                let mut jp = 0;
                while jp < n_panels {
                    let j0 = jc + jp * NR;
                    let cols = NR.min(n - j0);
                    let kp = depth(pc, kc, j0 + cols);
                    if kp == 0 {
                        jp += 1;
                        continue;
                    }
                    // Two full panels run as one pair of tiles. Full
                    // panels share a source: with B read in place, every
                    // full panel is read in place.
                    let paired = (jp + 2) * NR <= nc;
                    let kp_right = depth(pc, kc, j0 + 2 * NR);
                    let (bp, ldb) = source(jp);
                    for i0 in (ic..ic + mc).step_by(MR) {
                        let rows = MR.min(mb - i0);
                        // The tile's part of the panels' chunk rows: from
                        // `from` on, `k_left` and `k_right` of them.
                        let reach = zeros.a.map_or(0..k, |tri| tri.reach(i0, rows, k));
                        let from = reach.start.max(pc);
                        let part = |kp: usize| (pc + kp).min(reach.end).saturating_sub(from);
                        let (k_left, k_right) = (part(kp), part(kp_right));
                        if (if paired { k_right } else { k_left }) == 0 {
                            continue;
                        }
                        let skip = (from - pc) * ldb;
                        let (a_rows, a_step) = a_tile(a_trans, lda, i0, rows, from);
                        // The output's own rows hold a `Cols` operand;
                        // its columns are disjoint from C's.
                        let a = match a {
                            ASrc::Mat(_, a) => a.span(),
                            ASrc::Cols(a0) => &c_rows[a0..],
                        };
                        let at = i0 * ldc + c0 + j0;
                        let mut acc = [[0.0f64; NR]; MR];
                        if paired {
                            let mut right = [[0.0f64; NR]; MR];
                            let k = [k_left, k_right];
                            let b = [&bp[skip..], &source(jp + 1).0[skip..]];
                            let acc_pair = [&mut acc, &mut right];
                            microkernel_8x8_pair(k, a, &a_rows, a_step, b, ldb, acc_pair);
                            write_back(alpha, &acc, rows, c_rows, at, ldc, NR);
                            write_back(alpha, &right, rows, c_rows, at + NR, ldc, NR);
                        } else {
                            let b = &bp[skip..];
                            microkernel_8x8(k_left, a, &a_rows, a_step, b, ldb, &mut acc);
                            write_back(alpha, &acc, rows, c_rows, at, ldc, cols);
                        }
                    }
                    jp += if paired { 2 } else { 1 };
                }
            }
        }
    }
}

/// `C += alpha · tile` on the tile's first `rows` rows and `cols`
/// columns, `C`'s first word at `at` of `c_rows` (row stride `ldc`).
fn write_back(
    alpha: f64,
    tile: &[[f64; NR]; MR],
    rows: usize,
    c_rows: &mut [f64],
    at: usize,
    ldc: usize,
    cols: usize,
) {
    for (r, acc_row) in tile.iter().enumerate().take(rows) {
        let crow = &mut c_rows[at + r * ldc..at + r * ldc + cols];
        for (dst, &v) in crow.iter_mut().zip(acc_row.iter()) {
            // Where C and the product are both NaN, which NaN the sum
            // keeps is the compiler's choice; in this operand order
            // rustc 1.95 on x86-64 keeps the product's.
            #[allow(clippy::assign_op_pattern)]
            {
                *dst = alpha * v + *dst;
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
/// This is [`gemm`]'s blocked loop specialised to `AᵀA`: each
/// `KC`-row chunk of `A` is packed **once** into [`NR`]-column panels,
/// and with `MR = NR` one panel is both a tile's `op(B) = A` and, read
/// down its lanes, its `op(A) = Aᵀ`. The register tile runs on the
/// tiles on or above the diagonal only — about half of [`gemm`]'s
/// multiply-adds — two panels at a time as [`gemm`]'s does.
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
/// of rows, `A`'s columns are packed once into [`NR`]-column panels by
/// [`pack_b`], and tile `(ip, jp)` is the microkernel on panels `ip` —
/// tile row `i` is lane `i` of each of its rows — and `jp`,
/// continuing the fma chain the tile holds. Tiles `(ip, jp)` and
/// `(ip, jp + 1)` run as one pair for `ip ≤ jp`, and the right panel's
/// diagonal tile alone; the pair moves no bit. As in [`gemm`]'s loop,
/// `MC` rows of tiles at a time keep their panels in L2 while the
/// others stream past, and the chunk is `KC` rows, fewer where the
/// panels would outgrow [`gemm`]'s `KC × NC` packed `B`.
fn syrk_upper_tiles(a: MatRef<'_>, upper: &mut [f64], ldg: usize) {
    let (m, n) = (a.rows(), a.cols());
    let panels = n.div_ceil(NR);
    let width = panels * NR;
    let kc_step = (KC * NC / width).min(KC).min(m).max(1);
    let mc_panels = MC / MR;
    // A panel read as op(A): tile row `i` is lane `i` of each row.
    const PACKED: [usize; MR] = [0, 1, 2, 3, 4, 5, 6, 7];
    with_pack_b(width * kc_step, |pack| {
        for pc in (0..m).step_by(kc_step) {
            let kc = kc_step.min(m - pc);
            pack_b(Trans::No, a, pc, kc, 0, n, pack);
            let panel = |p: usize| &pack[p * kc * NR..(p + 1) * kc * NR];
            // Tile `(ip, jp)` continues from `upper`, and goes back there.
            let words = |ip: usize, jp: usize, r: usize| ip * MR * ldg + jp * NR + r * ldg..;
            let load = |upper: &[f64], ip: usize, jp: usize| -> [[f64; NR]; MR] {
                std::array::from_fn(|r| upper[words(ip, jp, r)][..NR].try_into().expect("NR words"))
            };
            let store = |upper: &mut [f64], ip: usize, jp: usize, acc: &[[f64; NR]; MR]| {
                for (r, acc_row) in acc.iter().enumerate() {
                    upper[words(ip, jp, r)][..NR].copy_from_slice(acc_row);
                }
            };
            let single = |upper: &mut [f64], ip: usize, jp: usize| {
                let mut acc = load(upper, ip, jp);
                microkernel_8x8(kc, panel(ip), &PACKED, MR, panel(jp), NR, &mut acc);
                store(upper, ip, jp, &acc);
            };
            for i0 in (0..panels).step_by(mc_panels) {
                let i1 = (i0 + mc_panels).min(panels);
                // Panels `jp` and `jp + 1` run as pairs of tiles down to
                // row `jp`; the right panel's diagonal tile runs alone.
                for jp in (i0..panels).step_by(2) {
                    let rows = i0..i1.min(jp + 1);
                    if jp + 1 == panels {
                        for ip in rows {
                            single(upper, ip, jp);
                        }
                        continue;
                    }
                    for ip in rows {
                        let mut pair = [load(upper, ip, jp), load(upper, ip, jp + 1)];
                        let [left, right] = &mut pair;
                        let b = [panel(jp), panel(jp + 1)];
                        microkernel_8x8_pair([kc; 2], panel(ip), &PACKED, MR, b, NR, [left, right]);
                        store(upper, ip, jp, left);
                        store(upper, ip, jp + 1, right);
                    }
                    if jp + 1 < i1 {
                        single(upper, jp + 1, jp + 1);
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
