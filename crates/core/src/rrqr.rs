//! Distributed rank-revealing QR: column-pivoted Householder
//! ([`pivot_qr_factor`]) and randomized RRQR ([`rrqr_factor`]).
//!
//! Both factor a 1D block-row-distributed `A` as `A·P = Q·R` with a
//! replicated permutation and a detected numerical rank — the workload
//! the full-rank backends mishandle (CholeskyQR2 breaks down on
//! deficiency, plain Householder silently masks it).
//!
//! ## Pivoted QR (`pivot_qr_factor`)
//!
//! The distributed analogue of [`qr3d_matrix::pivot::geqp3`], structured
//! like the shared Householder panel ([`crate::panel`]):
//!
//! * **per panel**, one all-reduce refreshes the replicated partial
//!   column norms exactly (this panel-granular recompute is the
//!   distributed form of the cancellation safeguard — downdates can
//!   never drift for more than a panel);
//! * **per column**, the pivot is chosen from the replicated norms (the
//!   all-reduce *is* the tournament — every rank holds the reduced
//!   norms) and the root broadcasts its pick, making the swap
//!   authoritative; one tiny all-reduce forms the Householder vector and
//!   a combined all-reduce carries the `Vᵀv`/`Aᵀv` products for the `T`
//!   kernel, the trailing update, and the pivot row — from which every
//!   rank downdates its norms and builds the replicated `R` row.
//!
//! Cost shape (`qr3d_cost::algorithms::geqp3_cost`): `Θ(n log P)`
//! messages — greedy global pivoting serializes on a per-column
//! tournament, like `1d-house`.
//!
//! ## Randomized RRQR (`rrqr_factor`)
//!
//! The cheap path when only the numerical rank and a well-conditioned
//! basis are needed: a deterministic SplitMix64 **Gaussian sketch**
//! `S = Ω·A` (`Ω` is `l × m`, `l = n + oversample`) computed through the
//! existing 1D dmm reduce path, a *local* pivoted QR of the small sketch
//! on the root (whose permutation and detected rank are broadcast), then
//! an **unpivoted TSQR** of the permuted columns. Latency stays at
//! `O(log P)` (`qr3d_cost::algorithms::rrqr_cost`) — the sketch
//! tournament happens on one rank's `l × n` matrix instead of over the
//! network.

use qr3d_collectives::auto::{all_reduce, broadcast};
use qr3d_machine::{Comm, Rank};
use qr3d_matrix::pivot::{detected_rank, geqp3_ws, rank_tolerance, PIVOT_NB};
use qr3d_matrix::{flops, Matrix};
use qr3d_mm::dmm1d::dmm1d_reduce;

use crate::panel::locate;
use crate::tsqr::{tsqr_factor, QrFactors};

/// A rank-revealing factorization `A·P = Q·R`, row-distributed like the
/// other 1D-family outputs: `V` rows local, `T`/`R` on the root — plus
/// the permutation and detected rank, **replicated** on every rank (both
/// are made of broadcast/all-reduced data, so no extra communication).
#[derive(Debug, Clone)]
pub struct RankRevealedFactors {
    /// The Householder factors of the permuted matrix (`v_local` on
    /// every rank; `t`/`r` on local rank 0).
    pub factors: QrFactors,
    /// Column `j` of `A·P` is column `perm[j]` of `A` (replicated).
    pub perm: Vec<usize>,
    /// Detected numerical rank (replicated).
    pub rank: usize,
}

/// Configuration of the randomized RRQR sketch.
#[derive(Debug, Clone, Copy)]
pub struct RrqrConfig {
    /// Extra sketch rows beyond `n` (`l = min(m, n + oversample)`);
    /// oversampling keeps the sketch's smallest retained singular value
    /// well separated from noise.
    pub oversample: usize,
    /// Seed of the deterministic Gaussian sketch.
    pub seed: u64,
}

impl Default for RrqrConfig {
    fn default() -> Self {
        RrqrConfig {
            oversample: 8,
            seed: 0x3243_f6a8_885a_308d, // π digits; any fixed value works
        }
    }
}

/// One SplitMix64 draw for stream position `i` of stream `seed`.
fn splitmix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform on [0, 1) from 53 SplitMix64 mantissa bits.
fn unit(seed: u64, i: u64) -> f64 {
    (splitmix(seed, i) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Deterministic standard Gaussian for sketch entry `idx` (Box–Muller
/// over two SplitMix64 draws). Depends only on `(seed, idx)`, so every
/// rank generates exactly the `Ω` columns matching its global rows — no
/// communication to distribute the sketch operator.
fn gaussian(seed: u64, idx: u64) -> f64 {
    let u1 = unit(seed, 2 * idx);
    let u2 = unit(seed, 2 * idx + 1);
    (-2.0 * (1.0 - u1).ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Householder parameters shared by the per-column loop: `(τ, μ, v₀)`
/// for a column with head `x0` and tail sum-of-squares `sigma`, in the
/// [`qr3d_matrix::qr::geqrt`] convention (`μ = ‖x‖ ≥ 0`, identity
/// reflector on a nonnegative zero-tail column).
fn house_params(sigma: f64, x0: f64) -> (f64, f64, f64) {
    if sigma == 0.0 {
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
    }
}

/// Distributed column-pivoted Householder QR of the block-row matrix
/// `a_local` (`counts[r]` rows on rank `r`, concatenated in rank order;
/// `Σ counts = m ≥ n`; ranks may own fewer than `n` rows, or none).
///
/// Returns `A·P = (I − V·T·Vᵀ)·[R; 0]` with the `R` diagonal
/// nonnegative and non-increasing, `perm`/`rank` replicated, and `T`/`R`
/// on local rank 0 (the 1D-family convention). See the module docs for
/// the communication structure.
pub fn pivot_qr_factor(
    rank: &mut Rank,
    comm: &Comm,
    a_local: &Matrix,
    counts: &[usize],
) -> RankRevealedFactors {
    let me = comm.rank();
    assert_eq!(counts.len(), comm.size(), "one count per rank");
    assert_eq!(a_local.rows(), counts[me], "local row count mismatch");
    let n = a_local.cols();
    let m: usize = counts.iter().sum();
    assert!(m >= n, "pivot_qr requires m ≥ n (got {m} × {n})");
    let my_rows = counts[me];
    if n == 0 {
        return RankRevealedFactors {
            factors: QrFactors {
                v_local: Matrix::zeros(my_rows, 0),
                t: (me == 0).then(|| Matrix::zeros(0, 0)),
                r: (me == 0).then(|| Matrix::zeros(0, 0)),
            },
            perm: Vec::new(),
            rank: 0,
        };
    }
    let my_lo: usize = counts[..me].iter().sum();
    let my_hi = my_lo + my_rows;
    // First local row holding a global row ≥ g.
    let local_from = |g: usize| g.saturating_sub(my_lo).min(my_hi - my_lo);

    // `work` holds the (updated, swapped) trailing columns; `v`
    // accumulates the basis; `t`/`r` are built replicated — every entry
    // comes from broadcast or all-reduced data, so the replicas stay
    // bitwise identical without any extra traffic.
    let mut work = a_local.clone();
    let mut v = Matrix::zeros(my_rows, n);
    let mut t = Matrix::zeros(n, n);
    let mut r = Matrix::zeros(n, n);
    let mut perm: Vec<usize> = (0..n).collect();
    let nb = PIVOT_NB;

    // Replicated *squared* partial column norms, downdated per column
    // and refreshed exactly at every panel start; `vnref` keeps the
    // last exactly-computed values — the cancellation reference of the
    // `dlaqps` safeguard. A downdate that cancels past `tol3z = √ε` of
    // the reference ends the panel early, so the very next panel-start
    // all-reduce recomputes every trailing norm exactly before another
    // pivot is chosen. All quantities are built from all-reduced data,
    // so the early-exit decision is bitwise replicated.
    let mut vn = rank.workspace().take(n);
    let mut vnref = rank.workspace().take(n);
    let tol3z = f64::EPSILON.sqrt();

    let mut j0 = 0;
    while j0 < n {
        let bw = nb.min(n - j0);

        // ---- Panel norm refresh: one all-reduce of the trailing
        // columns' local sums of squares over rows ≥ j0. The buffer is
        // full-length (leading entries zero) so every panel's request
        // has the same size and the warm pool always serves it. ----
        let lo = local_from(j0);
        let mut buf = rank.workspace().take(n);
        for lr in lo..my_rows {
            let row = work.row(lr);
            for (c, dst) in buf.iter_mut().enumerate().skip(j0) {
                let x = row[c];
                *dst += x * x;
            }
        }
        rank.charge_flops(2.0 * (my_rows - lo) as f64 * (n - j0) as f64);
        let buf = all_reduce(rank, comm, buf);
        vn[j0..n].copy_from_slice(&buf[j0..n]);
        vnref[j0..n].copy_from_slice(&vn[j0..n]);
        rank.workspace().put(buf);

        let mut done = 0;
        let mut recompute = false;
        for k in 0..bw {
            let j = j0 + k;
            let (owner, owner_row) = locate(counts, j);

            // ---- Tournament pivot + swap broadcast: the all-reduced
            // norms make the argmax replicated; the root's pick is
            // broadcast so the permutation is authoritative. ----
            let mut pvt = j;
            for g in j + 1..n {
                if vn[g] > vn[pvt] {
                    pvt = g;
                }
            }
            let pick = broadcast(rank, comm, 0, (me == 0).then(|| vec![pvt as f64]), 1);
            let pvt = pick[0] as usize;
            if pvt != j {
                for lr in 0..my_rows {
                    work.row_mut(lr).swap(pvt, j);
                }
                // The already-built rows of R cover both columns too.
                for i in 0..j {
                    let row = r.row_mut(i);
                    row.swap(pvt, j);
                }
                perm.swap(pvt, j);
                vn.swap(pvt, j);
                vnref.swap(pvt, j);
            }

            // ---- Distributed Householder vector for column j. ----
            let below = local_from(j + 1);
            let mut sp = rank.workspace().take(2);
            for lr in below..my_rows {
                let x = work[(lr, j)];
                sp[0] += x * x;
            }
            rank.charge_flops(2.0 * (my_rows - below) as f64);
            if me == owner {
                sp[1] = work[(owner_row, j)];
            }
            let sp = all_reduce(rank, comm, sp);
            let (sigma, x0) = (sp[0], sp[1]);
            rank.workspace().put(sp);
            let (tau, mu, v0) = house_params(sigma, x0);
            for lr in below..my_rows {
                v[(lr, j)] = work[(lr, j)] / v0;
            }
            rank.charge_flops((my_rows - below) as f64);
            if me == owner {
                v[(owner_row, j)] = 1.0;
            }

            // ---- Combined products, one all-reduce: z_c = V[:,c]ᵀv_j
            // (c < j, for T), w_c = A[:,c]ᵀv_j (c > j, for the update),
            // and the owner's pre-update pivot-row entries (to rebuild
            // the replicated R row). ----
            let tail = n - j - 1;
            let vlo = local_from(j);
            // Fixed-size payload (2n, unused slots zero): one size for
            // every column keeps the workspace pool warm.
            let mut y = rank.workspace().take(2 * n);
            for lr in vlo..my_rows {
                let vg = v[(lr, j)];
                if vg == 0.0 {
                    continue;
                }
                let (vrow, wrow) = (v.row(lr), work.row(lr));
                for (c, yc) in y.iter_mut().enumerate().take(j) {
                    *yc += vrow[c] * vg;
                }
                for c in j + 1..n {
                    y[c] += wrow[c] * vg;
                }
            }
            rank.charge_flops(2.0 * (my_rows - vlo) as f64 * (n - 1) as f64);
            if me == owner {
                for c in j + 1..n {
                    y[n + (c - j - 1)] = work[(owner_row, c)];
                }
            }
            let y = all_reduce(rank, comm, y);

            // Local trailing update A[g, c] −= τ·v_g·w_c (rows ≥ j).
            if tau != 0.0 && tail > 0 {
                for lr in vlo..my_rows {
                    let tv = tau * v[(lr, j)];
                    if tv == 0.0 {
                        continue;
                    }
                    let row = work.row_mut(lr);
                    for c in j + 1..n {
                        row[c] -= tv * y[c];
                    }
                }
                rank.charge_flops(2.0 * (my_rows - vlo) as f64 * tail as f64);
            }

            // Replicated R row j and norm downdate: the updated pivot
            // row is `old − τ·w` (v_j's unit head), built from
            // all-reduced data only — bitwise identical everywhere.
            r[(j, j)] = mu;
            for c in j + 1..n {
                let rjc = y[n + (c - j - 1)] - tau * y[c];
                r[(j, c)] = rjc;
                vn[c] = (vn[c] - rjc * rjc).max(0.0);
                // The dlaqps test in squared form: the downdated norm
                // fell below tol3z of its last exact value — the value
                // is now cancellation noise, unfit to pivot on.
                if vn[c] <= tol3z * vnref[c] {
                    recompute = true;
                }
            }
            rank.charge_flops(4.0 * tail as f64);

            // Replicated T column j (forward larft, as in the shared
            // panel kernel).
            t[(j, j)] = tau;
            for i in 0..j {
                let mut s = 0.0;
                for (g, &yg) in y.iter().enumerate().take(j).skip(i) {
                    s += t[(i, g)] * yg;
                }
                t[(i, j)] = -tau * s;
            }
            rank.charge_flops((j * j) as f64 / 2.0);
            rank.workspace().put(y);
            done = k + 1;
            if recompute {
                // End the panel: the next panel-start all-reduce is the
                // exact recompute (replicated decision — see above).
                break;
            }
        }
        j0 += done;
    }
    rank.workspace().put(vn);
    rank.workspace().put(vnref);

    let rank_detected = detected_rank(&r, rank_tolerance(m, n));
    RankRevealedFactors {
        factors: QrFactors {
            v_local: v,
            t: (me == 0).then_some(t),
            r: (me == 0).then_some(r),
        },
        perm,
        rank: rank_detected,
    }
}

/// Randomized rank-revealing QR of the block-row matrix `a_local`
/// (`counts` as in [`pivot_qr_factor`]): Gaussian sketch → local pivoted
/// QR of the sketch (root) → permutation/rank broadcast → unpivoted TSQR
/// of the permuted columns. See the module docs.
///
/// The final TSQR pass inherits its per-rank row requirement: every rank
/// must own at least `n` rows (`m ≥ n·P` under a balanced layout).
pub fn rrqr_factor(
    rank: &mut Rank,
    comm: &Comm,
    a_local: &Matrix,
    counts: &[usize],
    cfg: &RrqrConfig,
) -> RankRevealedFactors {
    let me = comm.rank();
    assert_eq!(counts.len(), comm.size(), "one count per rank");
    assert_eq!(a_local.rows(), counts[me], "local row count mismatch");
    let n = a_local.cols();
    let m: usize = counts.iter().sum();
    assert!(m >= n, "rrqr requires m ≥ n (got {m} × {n})");
    if n == 0 {
        return RankRevealedFactors {
            factors: tsqr_factor(rank, comm, a_local),
            perm: Vec::new(),
            rank: 0,
        };
    }
    let my_lo: usize = counts[..me].iter().sum();
    let my_rows = counts[me];
    let l = (n + cfg.oversample).min(m);

    // ---- Sketch operator: this rank's Ωᵀ slice, generated — not
    // communicated — from the global row ids. ----
    let mut omega_t = Matrix::zeros(my_rows, l);
    for lr in 0..my_rows {
        let g = (my_lo + lr) as u64;
        let row = omega_t.row_mut(lr);
        for (i, dst) in row.iter_mut().enumerate() {
            *dst = gaussian(cfg.seed, g * l as u64 + i as u64);
        }
    }

    // ---- S = Ω·A via the existing 1D dmm reduce path (Lemma 3's
    // reduce case: matching row layouts, product owned by the root). ----
    let sketch = dmm1d_reduce(rank, comm, &omega_t, a_local, 0);

    // ---- Root: pivoted QR of the small sketch; broadcast the
    // permutation and the detected rank (n + 1 words). ----
    let payload = sketch.map(|s| {
        let piv = geqp3_ws(rank.workspace(), &s);
        rank.charge_flops(flops::geqp3(l, n));
        let mut buf = Vec::with_capacity(n + 1);
        buf.extend(piv.perm.iter().map(|&c| c as f64));
        buf.push(piv.rank as f64);
        buf
    });
    let pr = broadcast(rank, comm, 0, payload, n + 1);
    let perm: Vec<usize> = pr[..n].iter().map(|&c| c as usize).collect();
    let rank_detected = pr[n] as usize;

    // ---- Unpivoted TSQR of the permuted columns. ----
    let ap_local = Matrix::from_fn(my_rows, n, |i, j| a_local[(i, perm[j])]);
    let factors = tsqr_factor(rank, comm, &ap_local);

    RankRevealedFactors {
        factors,
        perm,
        rank: rank_detected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr3d_machine::{CostParams, Machine};
    use qr3d_matrix::gemm::{matmul, matmul_tn};
    use qr3d_matrix::layout::BlockRow;
    use qr3d_matrix::pivot::{geqp3, is_permutation, permute_cols};
    use qr3d_matrix::qr::{q_times, random_with_condition, thin_q};

    use crate::verify::assemble_block_row;

    enum Algo {
        Pivot,
        Rrqr,
    }

    /// Run a rank-revealing backend over a balanced block-row layout,
    /// verify A·P = QR / orthogonality / permutation validity, and
    /// return (perm, rank, R).
    fn run_checked(a: &Matrix, p: usize, algo: Algo) -> (Vec<usize>, usize, Matrix) {
        let (m, n) = (a.rows(), a.cols());
        let lay = BlockRow::balanced(m, 1, p);
        let counts = lay.counts().to_vec();
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let a_loc = a.take_rows(&lay.local_rows(w.rank()));
            match algo {
                Algo::Pivot => pivot_qr_factor(rank, &w, &a_loc, &counts),
                Algo::Rrqr => rrqr_factor(rank, &w, &a_loc, &counts, &RrqrConfig::default()),
            }
        });
        let first = &out.results[0];
        for res in &out.results[1..] {
            assert_eq!(res.perm, first.perm, "perm replicated");
            assert_eq!(res.rank, first.rank, "rank replicated");
            assert!(res.factors.t.is_none() && res.factors.r.is_none());
        }
        assert!(is_permutation(&first.perm, n), "valid permutation");
        let facs: Vec<QrFactors> = out.results.iter().map(|r| r.factors.clone()).collect();
        let fac = assemble_block_row(&facs, lay.counts());
        let ap = permute_cols(a, &first.perm);
        let resid = fac.residual(&ap);
        assert!(resid < 1e-12, "A·P = QR: {resid}");
        let orth = fac.orthogonality();
        assert!(orth < 1e-12, "QᵀQ = I: {orth}");
        (first.perm.clone(), first.rank, fac.r)
    }

    #[test]
    fn pivot_qr_full_rank_shapes() {
        for (m, n, p, seed) in [
            (48usize, 6usize, 4usize, 1u64),
            (40, 5, 5, 2),
            (64, 8, 3, 3),
        ] {
            let a = Matrix::random(m, n, seed);
            let (_, rank, r) = run_checked(&a, p, Algo::Pivot);
            assert_eq!(rank, n, "{m}×{n}: full rank detected");
            for j in 1..n {
                assert!(
                    r[(j, j)] <= r[(j - 1, j - 1)] * (1.0 + 1e-12) + 1e-14,
                    "diag decay at {j}: {} vs {}",
                    r[(j, j)],
                    r[(j - 1, j - 1)]
                );
                assert!(r[(j, j)] >= 0.0);
            }
        }
    }

    #[test]
    fn pivot_qr_detects_constructed_rank_exactly() {
        for (m, n, k, p) in [(48usize, 8usize, 3usize, 4usize), (60, 12, 5, 3)] {
            let b = Matrix::random(m, k, 7);
            let c = Matrix::random(k, n, 8);
            let a = matmul(&b, &c);
            let (_, rank, _) = run_checked(&a, p, Algo::Pivot);
            assert_eq!(rank, k, "{m}×{n} rank-{k}");
        }
    }

    #[test]
    fn pivot_qr_matches_local_geqp3() {
        // The distributed tournament and the local kernel run the same
        // greedy strategy on the same data: identical permutation and
        // R (to rounding).
        let a = Matrix::random(36, 6, 9);
        let (perm, rank, r) = run_checked(&a, 3, Algo::Pivot);
        let local = geqp3(&a);
        assert_eq!(perm, local.perm, "same greedy pivot order");
        assert_eq!(rank, local.rank);
        let err = r.sub(&local.r).max_abs();
        assert!(err < 1e-11, "R distributed vs local: {err}");
    }

    #[test]
    fn pivot_qr_survives_catastrophic_norm_cancellation() {
        // Nearly-dependent columns whose downdated norms cancel to
        // noise within one panel: without the within-panel tol3z
        // safeguard the tournament pivots on garbage, producing a
        // non-monotone diagonal and a wrong pivot order vs the local
        // kernel. The early-exit + exact-refresh path must keep both
        // contracts.
        let m = 40;
        let b = Matrix::random(m, 1, 1);
        let r2 = Matrix::random(m, 1, 2);
        let r3 = Matrix::random(m, 1, 3);
        let a = Matrix::from_fn(m, 4, |i, j| match j {
            0 => b[(i, 0)],
            1 => b[(i, 0)] + 1e-9 * r2[(i, 0)],
            2 => b[(i, 0)] + 1e-12 * r3[(i, 0)],
            _ => 0.5 * b[(i, 0)],
        });
        let (perm, rank, r) = run_checked(&a, 4, Algo::Pivot);
        for j in 1..4 {
            assert!(
                r[(j, j)].abs() <= r[(j - 1, j - 1)].abs() * (1.0 + 1e-10) + 1e-300,
                "diagonal must stay non-increasing: |r[{j}]| = {:e} > |r[{}]| = {:e}",
                r[(j, j)].abs(),
                j - 1,
                r[(j - 1, j - 1)].abs()
            );
        }
        let local = geqp3(&a);
        assert_eq!(perm, local.perm, "safeguarded tournament matches geqp3");
        assert_eq!(rank, local.rank);
    }

    #[test]
    fn pivot_qr_rank_with_fewer_than_n_rows_and_empty_ranks() {
        // Ranks owning < n rows (or none) are fine — only TSQR-based
        // paths need the aspect gate.
        let a = Matrix::random(10, 4, 10);
        let counts = vec![5usize, 0, 3, 2];
        let machine = Machine::new(4, CostParams::unit());
        let counts2 = counts.clone();
        let out = machine.run(|rank| {
            let w = rank.world();
            let me = w.rank();
            let lo: usize = counts2[..me].iter().sum();
            let a_loc = a.submatrix(lo, lo + counts2[me], 0, 4);
            pivot_qr_factor(rank, &w, &a_loc, &counts2)
        });
        let facs: Vec<QrFactors> = out.results.iter().map(|r| r.factors.clone()).collect();
        let fac = assemble_block_row(&facs, &counts);
        let ap = permute_cols(&a, &out.results[0].perm);
        assert!(fac.residual(&ap) < 1e-12);
        assert_eq!(out.results[0].rank, 4);
    }

    #[test]
    fn pivot_qr_single_rank_and_zero_cols() {
        let a = Matrix::random(12, 5, 11);
        let (_, rank, _) = run_checked(&a, 1, Algo::Pivot);
        assert_eq!(rank, 5);
        let machine = Machine::new(2, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let counts = vec![2usize, 1];
            let a_loc = Matrix::zeros(counts[w.rank()], 0);
            pivot_qr_factor(rank, &w, &a_loc, &counts)
        });
        assert_eq!(out.results[0].rank, 0);
        assert!(out.results[0].perm.is_empty());
    }

    #[test]
    fn pivot_qr_deterministic() {
        let a = Matrix::random(40, 5, 12);
        let run = || {
            let lay = BlockRow::balanced(40, 1, 4);
            let counts = lay.counts().to_vec();
            let machine = Machine::new(4, CostParams::unit());
            let out = machine.run(|rank| {
                let w = rank.world();
                let a_loc = a.take_rows(&lay.local_rows(w.rank()));
                pivot_qr_factor(rank, &w, &a_loc, &counts)
            });
            (
                out.results[0].perm.clone(),
                out.results[0].factors.r.clone().unwrap(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pivot_qr_messages_scale_with_columns() {
        // The tournament price: S = Θ(n log P).
        let (m, p) = (128usize, 8usize);
        let measure = |n: usize| {
            let a = Matrix::random(m, n, 13);
            let lay = BlockRow::balanced(m, 1, p);
            let counts = lay.counts().to_vec();
            let machine = Machine::new(p, CostParams::unit());
            let out = machine.run(|rank| {
                let w = rank.world();
                let a_loc = a.take_rows(&lay.local_rows(w.rank()));
                pivot_qr_factor(rank, &w, &a_loc, &counts)
            });
            out.stats.critical().msgs
        };
        let s2 = measure(2);
        let s8 = measure(8);
        assert!(
            s8 >= 3.0 * s2,
            "messages grow ≈ linearly with n: S(2)={s2} S(8)={s8}"
        );
    }

    #[test]
    fn rrqr_full_rank_and_constructed_rank() {
        let a = Matrix::random(96, 8, 14);
        let (_, rank, _) = run_checked(&a, 4, Algo::Rrqr);
        assert_eq!(rank, 8);
        // Rank-k: detected exactly, and the permuted QR still verifies.
        let b = Matrix::random(96, 3, 15);
        let c = Matrix::random(3, 8, 16);
        let low = matmul(&b, &c);
        let (_, rank, _) = run_checked(&low, 4, Algo::Rrqr);
        assert_eq!(rank, 3);
    }

    #[test]
    fn rrqr_rank_matches_geqp3_on_graded_inputs() {
        // The acceptance sweep at unit scale: across graded-σ inputs the
        // sketch-detected rank must agree with the exact pivoted kernel.
        for (i, kappa) in [1e0, 1e2, 1e4, 1e6].into_iter().enumerate() {
            let a = random_with_condition(64, 8, kappa, 20 + i as u64);
            let (_, rrqr_rank, _) = run_checked(&a, 4, Algo::Rrqr);
            let local = geqp3(&a);
            assert_eq!(
                rrqr_rank, local.rank,
                "κ={kappa:.0e}: rrqr {rrqr_rank} vs geqp3 {}",
                local.rank
            );
        }
    }

    #[test]
    fn rrqr_latency_beats_the_pivot_tournament() {
        // The whole point of the sketch: O(log P) messages versus
        // Θ(n log P).
        let (m, n, p) = (256usize, 16usize, 8usize);
        let a = Matrix::random(m, n, 17);
        let lay = BlockRow::balanced(m, 1, p);
        let counts = lay.counts().to_vec();
        let machine = Machine::new(p, CostParams::unit());
        let counts2 = counts.clone();
        let piv = machine.run(|rank| {
            let w = rank.world();
            let a_loc = a.take_rows(&lay.local_rows(w.rank()));
            pivot_qr_factor(rank, &w, &a_loc, &counts2)
        });
        let rrq = machine.run(|rank| {
            let w = rank.world();
            let a_loc = a.take_rows(&lay.local_rows(w.rank()));
            rrqr_factor(rank, &w, &a_loc, &counts, &RrqrConfig::default())
        });
        let (sp, sr) = (piv.stats.critical().msgs, rrq.stats.critical().msgs);
        assert!(
            sr * 3.0 <= sp,
            "rrqr S = {sr} must amortize the tournament S = {sp}"
        );
    }

    #[test]
    fn rrqr_is_deterministic_and_seed_sensitive() {
        let a = Matrix::random(64, 6, 18);
        let lay = BlockRow::balanced(64, 1, 4);
        let counts = lay.counts().to_vec();
        let run = |cfg: RrqrConfig| {
            let counts = counts.clone();
            let machine = Machine::new(4, CostParams::unit());
            let out = machine.run(|rank| {
                let w = rank.world();
                let a_loc = a.take_rows(&lay.local_rows(w.rank()));
                rrqr_factor(rank, &w, &a_loc, &counts, &cfg)
            });
            (
                out.results[0].perm.clone(),
                out.results[0].factors.r.clone().unwrap(),
            )
        };
        let base = RrqrConfig::default();
        assert_eq!(run(base), run(base), "bitwise reproducible");
        // A different seed may (and for this input does) reorder ties —
        // but the factorization stays valid either way; just check the
        // sketch actually depends on the seed.
        let g0 = gaussian(1, 0);
        let g1 = gaussian(2, 0);
        assert!((g0 - g1).abs() > 1e-12, "sketch must depend on the seed");
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let k = 20_000u64;
        let (mut s1, mut s2) = (0.0, 0.0);
        for i in 0..k {
            let g = gaussian(42, i);
            s1 += g;
            s2 += g * g;
        }
        let mean = s1 / k as f64;
        let var = s2 / k as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn thin_q_of_rank_revealed_is_orthonormal_basis() {
        // The leading `rank` columns of Q span A's column space: the
        // projector reproduces A.
        let (m, n, k, p) = (64usize, 8usize, 4usize, 4usize);
        let b = Matrix::random(m, k, 30);
        let c = Matrix::random(k, n, 31);
        let a = matmul(&b, &c);
        let lay = BlockRow::balanced(m, 1, p);
        let counts = lay.counts().to_vec();
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let a_loc = a.take_rows(&lay.local_rows(w.rank()));
            pivot_qr_factor(rank, &w, &a_loc, &counts)
        });
        assert_eq!(out.results[0].rank, k);
        let facs: Vec<QrFactors> = out.results.iter().map(|r| r.factors.clone()).collect();
        let fac = assemble_block_row(&facs, &counts);
        let q = thin_q(&fac.v, &fac.t);
        let qk = q.submatrix(0, m, 0, k);
        // ‖A − Q_k·Q_kᵀ·A‖ ≈ 0: Q_k is a basis of range(A).
        let proj = matmul(&qk, &matmul_tn(&qk, &a));
        let err = proj.sub(&a).max_abs();
        assert!(err < 1e-11, "rank-k basis captures A: {err}");
        // Sanity: Q from (V, T) applied to [R; 0] reproduces A·P.
        let ap = permute_cols(&a, &out.results[0].perm);
        let mut rn = Matrix::zeros(m, n);
        rn.set_submatrix(0, 0, out.results[0].factors.r.as_ref().unwrap());
        assert!(q_times(&fac.v, &fac.t, &rn).sub(&ap).max_abs() < 1e-11);
    }
}
