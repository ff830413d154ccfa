//! Column-pivoted (rank-revealing) Householder QR — the LAPACK
//! `geqp3` of this workspace.
//!
//! [`geqp3`] factors `A·P = Q·R` with `P` a column permutation chosen
//! greedily: every step pivots the remaining column of largest partial
//! norm to the front, so the diagonal of `R` is non-increasing in
//! magnitude and the numerical rank of `A` can be read off its decay
//! ([`detected_rank`]). This is what the unpivoted [`crate::qr::geqrt`]
//! cannot do: on rank-deficient input it silently produces *some* valid
//! factorization whose `R` hides the deficiency in arbitrary positions.
//!
//! ## Blocked kernel
//!
//! The factorization follows LAPACK's `dgeqp3`/`dlaqps` structure:
//! panels of [`PIVOT_NB`] columns are
//! factored with the trailing update **delayed** — an auxiliary matrix
//! `F` accumulates `τ·Aᵀv` products so that, within a panel, only the
//! current column and the current pivot row are brought up to date
//! (exactly what pivot selection needs), and the `O(mn·nb)` bulk of the
//! trailing update runs as **one [`gemm`] per panel** (`A ← A − V·Fᵀ`).
//!
//! Column norms are **downdated** instead of recomputed: applying a
//! Householder reflector preserves each trailing column's norm over the
//! active rows, so the partial norm below the new pivot row shrinks by
//! exactly the (updated) pivot-row entry. The classic hazard is
//! catastrophic cancellation when the downdate removes nearly the whole
//! norm; following `dlaqps`, a downdate that would cancel past
//! `√ε`-level (relative to the last exact norm) ends the panel early and
//! triggers an **exact recomputation** of every trailing norm after the
//! block update — the recompute-on-cancellation safeguard.
//!
//! All scratch comes from a [`ScratchArena`]; after warm-up the panel
//! loop allocates nothing beyond the returned factors.

use crate::dense::Matrix;
use crate::gemm::{gemm, Trans};
use crate::qr::Reflector;
use crate::scratch::{put_matrix, take_matrix, with_thread_arena, ScratchArena};

/// Panel width of the blocked pivoted QR ([`geqp3`]).
pub const PIVOT_NB: usize = 32;

/// A column-pivoted QR factorization `A·P = Q·R` with detected numerical
/// rank.
#[derive(Debug, Clone)]
pub struct PivotedQr {
    /// The compact-WY Householder factors of the *permuted* matrix
    /// `A·P = (I − V·T·Vᵀ)·[R; 0]` (the same representation
    /// [`crate::qr::geqrt`] returns; `q_factors.r` is the same matrix as
    /// [`PivotedQr::r`]).
    pub q_factors: Reflector,
    /// The `n × n` upper-triangular R-factor of `A·P`, with nonnegative,
    /// non-increasing diagonal: `r[0,0] ≥ r[1,1] ≥ … ≥ 0`.
    pub r: Matrix,
    /// The permutation, as column indices of `A`: column `j` of `A·P` is
    /// column `perm[j]` of `A` (see [`permute_cols`]).
    pub perm: Vec<usize>,
    /// Numerical rank detected from `R`'s diagonal decay at
    /// [`rank_tolerance`] — exact on matrices whose rank deficiency sits
    /// well above roundoff.
    pub rank: usize,
}

/// The default relative tolerance for rank detection on an `m × n`
/// problem: `max(m, n)·ε`, the usual LAPACK-style threshold.
pub fn rank_tolerance(m: usize, n: usize) -> f64 {
    m.max(n) as f64 * f64::EPSILON
}

/// Numerical rank read off an upper-triangular `R`: the number of
/// diagonal entries with `|r[j,j]| > rtol · max_i |r[i,i]|`. For a
/// *pivoted* `R` (non-increasing diagonal) this is the length of the
/// significant prefix; for an unpivoted `R` it is a diagnostic — a
/// result `< n` proves rank deficiency, while equality proves nothing
/// (unpivoted QR can hide deficiency off the diagonal).
pub fn detected_rank(r: &Matrix, rtol: f64) -> usize {
    let k = r.rows().min(r.cols());
    let dmax = (0..k).map(|j| r[(j, j)].abs()).fold(0.0f64, f64::max);
    if dmax == 0.0 {
        return 0;
    }
    (0..k).filter(|&j| r[(j, j)].abs() > rtol * dmax).count()
}

/// True when `perm` is a permutation of `0..n`.
pub fn is_permutation(perm: &[usize], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

/// Materialize `A·P`: column `j` of the result is column `perm[j]` of
/// `a`.
pub fn permute_cols(a: &Matrix, perm: &[usize]) -> Matrix {
    assert!(
        is_permutation(perm, a.cols()),
        "permute_cols: invalid permutation"
    );
    Matrix::from_fn(a.rows(), a.cols(), |i, j| a[(i, perm[j])])
}

/// Column-pivoted Householder QR of an `m × n` matrix (`m ≥ n`):
/// `A·P = (I − V·T·Vᵀ)·[R; 0]` with non-increasing `R` diagonal and the
/// numerical rank detected at [`rank_tolerance`]. Scratch comes from the
/// calling thread's arena; use [`geqp3_ws`] to pass an explicit one.
///
/// # Panics
/// If `m < n`.
pub fn geqp3(a: &Matrix) -> PivotedQr {
    with_thread_arena(|ws| geqp3_ws(ws, a))
}

/// [`geqp3`] with an explicit scratch arena: after warm-up, the
/// factorization allocates only its output factors.
pub fn geqp3_ws(ws: &mut dyn ScratchArena, a: &Matrix) -> PivotedQr {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n, "geqp3 requires m ≥ n (got {m} × {n})");
    if n == 0 {
        return PivotedQr {
            q_factors: Reflector {
                v: Matrix::zeros(m, 0),
                t: Matrix::zeros(0, 0),
                r: Matrix::zeros(0, 0),
            },
            r: Matrix::zeros(0, 0),
            perm: Vec::new(),
            rank: 0,
        };
    }

    let nb_max = PIVOT_NB;
    // Like `geqrt_ws`: `work` accumulates V below the diagonal and R
    // on/above it (for the *permuted* column order) and becomes the
    // explicit V at the end.
    let mut work = a.clone();
    let mut t = Matrix::zeros(n, n);
    let mut perm: Vec<usize> = (0..n).collect();
    let mut taus = ws.take(n);
    let mut small = ws.take(nb_max); // larft z / F-correction aux scratch

    // Partial column norms: vn1[g] = ‖work[j.., g]‖ for the current
    // elimination step j; vn2[g] = the last exactly-computed value
    // (the cancellation reference, as in `dlaqps`).
    let mut vn1 = ws.take(n);
    let mut vn2 = ws.take(n);
    for g in 0..n {
        let s: f64 = (0..m).map(|i| work[(i, g)] * work[(i, g)]).sum();
        vn1[g] = s.sqrt();
        vn2[g] = vn1[g];
    }
    let tol3z = f64::EPSILON.sqrt();

    let mut j0 = 0;
    while j0 < n {
        let nb = nb_max.min(n - j0);
        let nt = n - j0; // trailing columns, panel included
        let mut f = take_matrix(ws, nt, nb);
        let mut recompute = false;

        // ---- Panel: factor up to nb columns with delayed updates. ----
        let mut kb = 0;
        while kb < nb {
            let k = kb;
            let j = j0 + k;

            // Greedy pivot: the remaining column of largest partial
            // norm (ties to the leftmost, keeping runs reproducible).
            let mut pvt = k;
            for c in k + 1..nt {
                if vn1[j0 + c] > vn1[j0 + pvt] {
                    pvt = c;
                }
            }
            if pvt != k {
                let (gp, gk) = (j0 + pvt, j);
                for i in 0..m {
                    let row = work.row_mut(i);
                    row.swap(gp, gk);
                }
                for c in 0..nb {
                    let tmp = f[(pvt, c)];
                    f[(pvt, c)] = f[(k, c)];
                    f[(k, c)] = tmp;
                }
                perm.swap(gp, gk);
                vn1.swap(gp, gk);
                vn2.swap(gp, gk);
            }

            // Bring column j current: apply the panel's accumulated
            // reflectors to rows j..m (the delayed update, restricted to
            // the one column pivot selection just chose).
            if k > 0 {
                // Row-contiguous dots run on the dispatched SIMD dot
                // (crate::simd) — fixed reduction tree, bit-identical
                // at every level.
                for i in j..m {
                    let row = work.row_mut(i);
                    let s = crate::simd::dot(&row[j0..j0 + k], &f.row(k)[..k]);
                    row[j] -= s;
                }
            }

            // Householder vector for the updated column.
            let mut sigma = 0.0;
            for i in j + 1..m {
                let x = work[(i, j)];
                sigma += x * x;
            }
            let x0 = work[(j, j)];
            let (tau, mu) = if sigma == 0.0 {
                if x0 >= 0.0 {
                    (0.0, x0)
                } else {
                    (2.0, -x0)
                }
            } else {
                let mu = (x0 * x0 + sigma).sqrt();
                let v0 = if x0 <= 0.0 {
                    x0 - mu
                } else {
                    -sigma / (x0 + mu)
                };
                for i in j + 1..m {
                    work[(i, j)] /= v0;
                }
                (2.0 * v0 * v0 / (sigma + v0 * v0), mu)
            };
            taus[j] = tau;
            // Unit diagonal held explicitly while v_j feeds the F and
            // pivot-row products (restored to mu below, as in `dlaqps`).
            work[(j, j)] = 1.0;

            // F[c, k] = τ·(A[j.., j0+c]ᵀ·v_j) for the not-yet-factored
            // columns; zero for the factored ones, then the incremental
            // correction −τ·F[:, ..k]·(V_panelᵀ·v_j) over all rows.
            for c in k + 1..nt {
                let g = j0 + c;
                let mut s = 0.0;
                for i in j..m {
                    s += work[(i, g)] * work[(i, j)];
                }
                f[(c, k)] = tau * s;
            }
            for c in 0..=k {
                f[(c, k)] = 0.0;
            }
            if k > 0 && tau != 0.0 {
                for (c, aux) in small.iter_mut().enumerate().take(k) {
                    let mut s = 0.0;
                    for i in j..m {
                        s += work[(i, j0 + c)] * work[(i, j)];
                    }
                    *aux = s;
                }
                for c in 0..nt {
                    let s = crate::simd::dot(&f.row(c)[..k], &small[..k]);
                    f[(c, k)] -= tau * s;
                }
            }

            // Bring the pivot row current across the trailing columns —
            // these entries are final R values *and* exactly what the
            // norm downdate needs.
            for c in k + 1..nt {
                let g = j0 + c;
                let s = crate::simd::dot(&work.row(j)[j0..j0 + k + 1], &f.row(c)[..k + 1]);
                work[(j, g)] -= s;
            }

            // Norm downdate with the cancellation safeguard: the
            // reflector preserves ‖work[j.., g]‖, so the partial norm
            // below row j shrinks by the updated row-j entry; a downdate
            // that cancels past √ε of the reference norm ends the panel
            // for an exact recompute.
            for c in k + 1..nt {
                let g = j0 + c;
                if vn1[g] != 0.0 {
                    let ratio = work[(j, g)].abs() / vn1[g];
                    let temp = (1.0 - ratio * ratio).max(0.0);
                    let temp2 = temp * (vn1[g] / vn2[g]) * (vn1[g] / vn2[g]);
                    if temp2 <= tol3z {
                        recompute = true;
                    } else {
                        vn1[g] *= temp.sqrt();
                    }
                }
            }

            work[(j, j)] = mu;
            kb += 1;
            if recompute {
                break;
            }
        }
        let j1 = j0 + kb;

        // ---- Delayed trailing update, one gemm: A ← A − V_panel·Fᵀ
        // over rows j1..m, columns j1..n (rows j0..j1 were brought
        // current column-by-column as pivot rows). ----
        if j1 < n {
            let (mv, ntr) = (m - j1, n - j1);
            if mv > 0 {
                let mut vp = take_matrix(ws, mv, kb);
                for i in 0..mv {
                    vp.row_mut(i).copy_from_slice(&work.row(j1 + i)[j0..j1]);
                }
                let mut fs = take_matrix(ws, ntr, kb);
                for c in 0..ntr {
                    fs.row_mut(c).copy_from_slice(&f.row(kb + c)[..kb]);
                }
                let mut ct = take_matrix(ws, mv, ntr);
                for i in 0..mv {
                    ct.row_mut(i).copy_from_slice(&work.row(j1 + i)[j1..n]);
                }
                gemm(Trans::No, Trans::Yes, -1.0, &vp, &fs, 1.0, &mut ct);
                for i in 0..mv {
                    work.row_mut(j1 + i)[j1..n].copy_from_slice(ct.row(i));
                }
                put_matrix(ws, vp);
                put_matrix(ws, fs);
                put_matrix(ws, ct);
            }
            if recompute {
                // The safeguard fired: every trailing partial norm is
                // recomputed exactly from the now-updated columns and
                // becomes the new cancellation reference.
                for g in j1..n {
                    let s: f64 = (j1..m).map(|i| work[(i, g)] * work[(i, g)]).sum();
                    vn1[g] = s.sqrt();
                    vn2[g] = vn1[g];
                }
            }
        }
        put_matrix(ws, f);

        // ---- Compact-WY bookkeeping, as in `geqrt_ws`: the panel's T
        // block, then the cross-panel growth T₁₂ = −T₁·(V₁ᵀV_p)·T_p. ----
        let mj = m - j0;
        let mut p = take_matrix(ws, mj, kb);
        for i in 0..mj {
            p.row_mut(i).copy_from_slice(&work.row(j0 + i)[j0..j1]);
        }
        larft_panel(&p, &taus[j0..j1], &mut t, j0, &mut small);
        if j0 > 0 {
            // Explicit panel basis (unit diagonal, zeros above).
            let mut vp = take_matrix(ws, mj, kb);
            for i in 0..mj {
                let lim = i.min(kb);
                vp.row_mut(i)[..lim].copy_from_slice(&p.row(i)[..lim]);
                if i < kb {
                    vp[(i, i)] = 1.0;
                }
            }
            let mut tp = take_matrix(ws, kb, kb);
            for i in 0..kb {
                tp.row_mut(i).copy_from_slice(&t.row(j0 + i)[j0..j1]);
            }
            let mut v1 = take_matrix(ws, mj, j0);
            for i in 0..mj {
                v1.row_mut(i).copy_from_slice(&work.row(j0 + i)[..j0]);
            }
            let mut z = take_matrix(ws, j0, kb);
            gemm(Trans::Yes, Trans::No, 1.0, &v1, &vp, 0.0, &mut z);
            let mut t1 = take_matrix(ws, j0, j0);
            for i in 0..j0 {
                t1.row_mut(i).copy_from_slice(&t.row(i)[..j0]);
            }
            let mut t1z = take_matrix(ws, j0, kb);
            gemm(Trans::No, Trans::No, 1.0, &t1, &z, 0.0, &mut t1z);
            let mut t12 = take_matrix(ws, j0, kb);
            gemm(Trans::No, Trans::No, -1.0, &t1z, &tp, 0.0, &mut t12);
            for i in 0..j0 {
                t.row_mut(i)[j0..j1].copy_from_slice(t12.row(i));
            }
            put_matrix(ws, vp);
            put_matrix(ws, tp);
            put_matrix(ws, v1);
            put_matrix(ws, z);
            put_matrix(ws, t1);
            put_matrix(ws, t1z);
            put_matrix(ws, t12);
        }
        put_matrix(ws, p);
        j0 = j1;
    }
    ws.put(taus);
    ws.put(small);
    ws.put(vn1);
    ws.put(vn2);

    // R = leading n × n upper triangle; `work` becomes the explicit V.
    let r = work.submatrix(0, n, 0, n).upper_triangular_part();
    for i in 0..n {
        let row = work.row_mut(i);
        for item in row.iter_mut().take(n).skip(i) {
            *item = 0.0;
        }
        row[i] = 1.0;
    }
    let rank = detected_rank(&r, rank_tolerance(m, n));

    PivotedQr {
        q_factors: Reflector {
            v: work,
            t,
            r: r.clone(),
        },
        r,
        perm,
        rank,
    }
}

/// Forward `larft` for a factored panel: write the panel's `bw × bw`
/// upper-triangular `T` into `t`'s diagonal block at `off`. `z` is
/// caller scratch of at least `p.cols()` words. The panel stores V
/// below the diagonal with the unit diagonal implicit.
fn larft_panel(p: &Matrix, taus: &[f64], t: &mut Matrix, off: usize, z: &mut [f64]) {
    let (rows, bw) = (p.rows(), p.cols());
    for j in 0..bw {
        let tau = taus[j];
        t[(off + j, off + j)] = tau;
        if j > 0 && tau != 0.0 {
            // z_c = V[:, c]ᵀ·v_j over the panel rows ≥ j (v_j has an
            // implicit 1 in row j; V[j, c] for c < j is stored).
            z[..j].copy_from_slice(&p.row(j)[..j]);
            for i in j + 1..rows {
                let vij = p[(i, j)];
                crate::simd::fused_axpy(vij, &p.row(i)[..j], &mut z[..j]);
            }
            // T[0..j, j] = −τ·T[0..j, 0..j]·z (upper-triangular matvec).
            for i in 0..j {
                let mut s = 0.0;
                for (k, &zk) in z[..j].iter().enumerate().skip(i) {
                    s += t[(off + i, off + k)] * zk;
                }
                t[(off + i, off + j)] = -tau * s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul_tn;
    use crate::qr::{q_times, random_with_condition, thin_q};
    use crate::scratch::LocalArena;

    fn check_pivoted(a: &Matrix, tol: f64) -> PivotedQr {
        let (m, n) = (a.rows(), a.cols());
        let p = geqp3(a);
        assert!(is_permutation(&p.perm, n), "perm is a permutation");
        assert!(p.r.is_upper_triangular(0.0), "R upper triangular");
        for j in 0..n {
            assert!(p.r[(j, j)] >= 0.0, "R diagonal nonnegative");
            if j > 0 {
                assert!(
                    p.r[(j, j)] <= p.r[(j - 1, j - 1)] * (1.0 + 1e-12) + 1e-14,
                    "R diagonal decays monotonically: r[{j}] = {} > r[{}] = {}",
                    p.r[(j, j)],
                    j - 1,
                    p.r[(j - 1, j - 1)]
                );
            }
        }
        assert!(p.q_factors.v.is_unit_lower_trapezoidal(tol));
        assert_eq!(p.q_factors.r, p.r, "the two R views are the same matrix");
        // A·P = Q·[R; 0].
        let ap = permute_cols(a, &p.perm);
        let mut rn = Matrix::zeros(m, n);
        rn.set_submatrix(0, 0, &p.r);
        let qr = q_times(&p.q_factors.v, &p.q_factors.t, &rn);
        let err = qr.sub(&ap).max_abs();
        assert!(err <= tol * (1.0 + a.max_abs()), "A·P = QR: err {err}");
        // Q orthonormal at any rank.
        let q1 = thin_q(&p.q_factors.v, &p.q_factors.t);
        let orth = matmul_tn(&q1, &q1).sub(&Matrix::identity(n)).max_abs();
        assert!(orth <= tol, "QᵀQ = I: {orth}");
        p
    }

    #[test]
    fn full_rank_random_detects_full_rank() {
        for (m, n, seed) in [(20usize, 5usize, 1u64), (48, 48, 2), (400, 37, 3)] {
            let a = Matrix::random(m, n, seed);
            let p = check_pivoted(&a, 1e-10);
            assert_eq!(p.rank, n, "{m}×{n}: random matrices are full rank");
        }
    }

    #[test]
    fn constructed_rank_k_is_detected_exactly() {
        // A = B·C with B (m × k), C (k × n): rank exactly k.
        for (m, n, k, seed) in [
            (40usize, 10usize, 3usize, 4u64),
            (96, 24, 7, 5),
            (64, 16, 1, 6),
        ] {
            let b = Matrix::random(m, k, seed);
            let c = Matrix::random(k, n, seed + 100);
            let a = crate::gemm::matmul(&b, &c);
            let p = check_pivoted(&a, 1e-10);
            assert_eq!(p.rank, k, "{m}×{n} rank-{k}: detected {}", p.rank);
        }
    }

    #[test]
    fn duplicate_columns_are_revealed() {
        let c = Matrix::random(30, 2, 7);
        let a = c.hstack(&c).hstack(&c);
        let p = check_pivoted(&a, 1e-11);
        assert_eq!(p.rank, 2);
    }

    #[test]
    fn zero_matrix_has_rank_zero() {
        let p = check_pivoted(&Matrix::zeros(6, 3), 1e-14);
        assert_eq!(p.rank, 0);
        assert_eq!(p.r.max_abs(), 0.0);
    }

    #[test]
    fn zero_columns_are_fine() {
        let p = geqp3(&Matrix::zeros(4, 0));
        assert_eq!(p.rank, 0);
        assert!(p.perm.is_empty());
    }

    #[test]
    fn graded_sigma_keeps_full_rank_above_tolerance() {
        // κ = 1e6 ≪ 1/rank_tolerance: every singular value is
        // detectable, so the detected rank stays n.
        let a = random_with_condition(96, 8, 1e6, 8);
        let p = check_pivoted(&a, 1e-10);
        assert_eq!(p.rank, 8);
    }

    #[test]
    fn pivoting_spans_multiple_panels() {
        let nb = PIVOT_NB;
        let n = 2 * nb + 5;
        let a = Matrix::random(3 * n, n, 9);
        let p = check_pivoted(&a, 1e-9);
        assert_eq!(p.rank, n);
        // And a rank-deficient multi-panel case.
        let k = nb + 3;
        let b = Matrix::random(3 * n, k, 10);
        let c = Matrix::random(k, n, 11);
        let low = crate::gemm::matmul(&b, &c);
        let p = check_pivoted(&low, 1e-8);
        assert_eq!(p.rank, k);
    }

    #[test]
    fn matches_unpivoted_qr_on_prepermuted_input() {
        // geqp3(A) and geqrt(A·P) factor the same matrix; their R's
        // agree to rounding (both use the same Householder convention).
        let a = Matrix::random(30, 6, 12);
        let p = geqp3(&a);
        let ap = permute_cols(&a, &p.perm);
        let f = crate::qr::geqrt(&ap);
        let err = f.r.sub(&p.r).max_abs();
        assert!(err < 1e-11, "R of geqp3 vs geqrt on A·P: {err}");
    }

    #[test]
    fn cancellation_safeguard_path_still_factors() {
        // Columns with hugely disparate scales force downdates that
        // cancel almost completely — the recompute path must keep the
        // factorization exact.
        let n = 12;
        let mut a = Matrix::random(40, n, 13);
        for j in 0..n {
            let scale = if j % 2 == 0 { 1.0 } else { 1e-12 };
            for i in 0..40 {
                a[(i, j)] *= scale;
            }
        }
        let p = check_pivoted(&a, 1e-10);
        assert_eq!(p.rank, n, "tiny-but-independent columns still count");
    }

    #[test]
    fn geqp3_ws_reuses_its_arena() {
        let mut ws = LocalArena::new();
        let nb = PIVOT_NB;
        let a = Matrix::random(3 * nb, 2 * nb, 14);
        let _ = geqp3_ws(&mut ws, &a);
        let _ = geqp3_ws(&mut ws, &a);
        let (_, misses_warm) = ws.stats();
        let _ = geqp3_ws(&mut ws, &a);
        let (_, misses_after) = ws.stats();
        assert_eq!(
            misses_warm, misses_after,
            "a warm geqp3_ws must allocate no scratch"
        );
    }

    #[test]
    fn detected_rank_reads_decay() {
        let r = Matrix::from_fn(4, 4, |i, j| {
            if i == j {
                [4.0, 2.0, 1e-18, 0.0][i]
            } else if j > i {
                0.5
            } else {
                0.0
            }
        });
        assert_eq!(detected_rank(&r, 1e-12), 2);
        assert_eq!(detected_rank(&Matrix::zeros(3, 3), 1e-12), 0);
        assert_eq!(detected_rank(&Matrix::identity(5), 1e-12), 5);
    }

    #[test]
    fn permutation_helpers() {
        assert!(is_permutation(&[2, 0, 1], 3));
        assert!(!is_permutation(&[0, 0, 1], 3));
        assert!(!is_permutation(&[0, 3, 1], 3));
        assert!(!is_permutation(&[0, 1], 3));
        let a = Matrix::from_fn(2, 3, |i, j| (10 * i + j) as f64);
        let ap = permute_cols(&a, &[2, 0, 1]);
        assert_eq!(ap[(0, 0)], 2.0);
        assert_eq!(ap[(1, 1)], 10.0);
        assert_eq!(ap[(0, 2)], 1.0);
    }

    #[test]
    #[should_panic(expected = "m ≥ n")]
    fn wide_rejected() {
        let _ = geqp3(&Matrix::zeros(2, 5));
    }
}
