//! CholeskyQR2 — communication-avoiding QR for well-conditioned
//! tall-skinny matrices (Hutter & Solomonik, specialized to a 1D
//! block-row distribution).
//!
//! One **pass** orthogonalizes `A` through its Gram matrix:
//!
//! 1. local `syrk`: `G_p = A_pᵀ A_p` (`n × n`),
//! 2. all-reduce: `G = Σ_p G_p` — the only communication, `n²` words in
//!    `O(log P)` messages (the auto-dispatched all-reduce weighs the
//!    machine's `α/β`: latency-dominated machines take the
//!    recursive-doubling butterfly, bandwidth-priced ones the
//!    reduce-scatter + all-gather exchange; both replicate bitwise),
//! 3. replicated Cholesky `G = RᵀR` (every rank factors the same bits),
//! 4. local triangular solve `Q_p = A_p R⁻¹`.
//!
//! A pass reads its block where it lies and writes `Q` where the caller
//! wants it ([`cholqr2_factor_into`]): the first pass of CholeskyQR2
//! solves out of place from `A` into `Q`, the second works in `Q`, and
//! no copy of either is made on the way — the forms that take and
//! return owned matrices allocate `Q` and do the same.
//!
//! A single pass loses orthogonality as `O(κ(A)² ε)`; running a **second
//! pass on `Q₁`** (whose condition is already repaired to `O(1 + κ²ε)`)
//! brings `‖QᵀQ − I‖` down to `O(ε)` — that is CholeskyQR2. The combined
//! R-factor is `R = R₂ R₁`.
//!
//! Versus TSQR (Lemma 5) the critical path trades a `log P` bandwidth
//! factor away: `W = O(n²)` instead of `O(n² log P)`, at the same
//! `S = O(log P)` — but it is only *valid* for `κ(A) ≲ 1/√ε`
//! (`qr3d_cost::advisor::CHOLQR2_KAPPA_GUARD`). Past that, the Gram
//! matrix is numerically indefinite and the Cholesky factorization
//! reports [breakdown](CholQrError); because the all-reduce delivers
//! bitwise-identical Gram matrices everywhere (asserted for both auto
//! variants in `qr3d_collectives::auto`'s tests), the breakdown decision
//! is replicated and every rank returns the same `Err` — no rank
//! diverges into a deadlock.

use qr3d_collectives::auto::all_reduce;
use qr3d_machine::{Comm, Rank};
use qr3d_matrix::gemm::{matmul, syrk_ws};
use qr3d_matrix::scratch::{put_matrix, take_matrix};
use qr3d_matrix::tri::{potrf, trsm_right_in_place, trsm_right_into, NotPositiveDefinite, Uplo};
use qr3d_matrix::{flops, MatMut, MatRef, Matrix};

/// A CholeskyQR2 factorization `A = Q·R`, row-distributed: `Q` is
/// *explicit* (not a Householder basis) with the same row distribution
/// as `A`; the `n × n` upper-triangular `R` is **replicated** on every
/// rank (a by-product of the all-reduce — no extra communication).
#[derive(Debug, Clone)]
pub struct CholQrFactors {
    /// This rank's rows of the explicit orthonormal factor (`m_p × n`).
    pub q_local: Matrix,
    /// The `n × n` upper-triangular R-factor, identical on every rank.
    pub r: Matrix,
}

/// CholeskyQR breakdown: the (replicated) Gram matrix was not
/// numerically positive definite — the input is rank-deficient or its
/// condition number exceeds the `1/√ε` guard. Every rank of the
/// communicator returns the identical error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CholQrError {
    /// Which pass broke down (1 or 2; pass 2 indicates severe loss of
    /// orthogonality in pass 1).
    pub pass: usize,
    /// The underlying Cholesky pivot failure.
    pub source: NotPositiveDefinite,
}

impl std::fmt::Display for CholQrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "choleskyqr2 pass {} broke down ({}); input is rank-deficient or κ(A) exceeds 1/√ε",
            self.pass, self.source
        )
    }
}

impl std::error::Error for CholQrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// One CholeskyQR pass: `(Q, R)` with `A_loc = Q_loc·R`, `R` replicated.
/// `O(ε κ(A)²)` orthogonality — use [`cholqr2_factor`] unless a single
/// pass is wanted (e.g. to study the breakdown curve).
///
/// Exactly [`cholqr_pass_batch`] with a batch of one — same wire format,
/// bit-identical factors and clocks.
pub fn cholqr_pass(
    rank: &mut Rank,
    comm: &Comm,
    a_local: &Matrix,
) -> Result<(Matrix, Matrix), NotPositiveDefinite> {
    cholqr_pass_batch(rank, comm, std::slice::from_ref(a_local))
        .pop()
        .expect("one problem in, one result out")
}

/// One CholeskyQR pass over `k` independent row-distributed problems
/// with **fused** communication: the `k` local Gram matrices travel
/// concatenated in a single all-reduce, so the batch pays the latency of
/// *one* pass (`S = O(log P)` total) while bandwidth scales with `k`.
/// Breakdown is detected per problem — and, because the all-reduce
/// delivers bitwise-identical sums everywhere, every rank returns the
/// identical per-problem `Result`s.
pub fn cholqr_pass_batch(
    rank: &mut Rank,
    comm: &Comm,
    a_locals: &[Matrix],
) -> Vec<Result<(Matrix, Matrix), NotPositiveDefinite>> {
    let mut qs = like(a_locals);
    let mut q_views: Vec<MatMut<'_>> = qs.iter_mut().map(Matrix::view_mut).collect();
    let srcs: Vec<MatRef<'_>> = a_locals.iter().map(Matrix::view).collect();
    let live: Vec<usize> = (0..a_locals.len()).collect();
    let rs = pass(rank, comm, Some(&srcs), &mut q_views, &live);
    rs.into_iter()
        .zip(qs)
        .map(|(r, q)| r.map(|r| (q, r)))
        .collect()
}

/// A zeroed `Q` block per local block, for the forms that return `Q`
/// rather than fill the caller's.
fn like(a_locals: &[Matrix]) -> Vec<Matrix> {
    a_locals
        .iter()
        .map(|a| Matrix::zeros(a.rows(), a.cols()))
        .collect()
}

/// One pass over the problems `live`: `Q = A·R⁻¹` lands in `qs[i]`,
/// read from `srcs[i]` and solved out of place, or — without `srcs` —
/// from `qs[i]` itself and solved in place. Returns one replicated `R`
/// (or breakdown) per live problem, in `live`'s order.
fn pass(
    rank: &mut Rank,
    comm: &Comm,
    srcs: Option<&[MatRef<'_>]>,
    qs: &mut [MatMut<'_>],
    live: &[usize],
) -> Vec<Result<Matrix, NotPositiveDefinite>> {
    if live.is_empty() {
        return Vec::new();
    }
    // Local Gram contributions (exactly symmetric by construction),
    // concatenated so the whole batch shares ONE all-reduce. The Gram
    // accumulator is workspace scratch — the steady-state pass
    // allocates only the message buffer it must hand to the reduction.
    let total: usize = live.iter().map(|&i| qs[i].cols().pow(2)).sum();
    let mut buf = Vec::with_capacity(total);
    for &i in live {
        let a = srcs.map_or(qs[i].as_ref(), |srcs| srcs[i]);
        let n = a.cols();
        let mut g_local = take_matrix(rank.workspace(), n, n);
        syrk_ws(rank.workspace(), 1.0, a, 0.0, &mut g_local);
        rank.charge_flops(flops::syrk(a.rows(), n));
        buf.extend_from_slice(g_local.as_slice());
        put_matrix(rank.workspace(), g_local);
    }
    // The single communication: k·n² words, O(log P) messages. Every
    // rank receives the bitwise-identical sums.
    let summed = all_reduce(rank, comm, buf);

    // Per problem: replicated Cholesky (breakdowns replicated too), then
    // the local solve Q_loc·R = A_loc, every word of Q written once.
    let mut off = 0;
    live.iter()
        .map(|&i| {
            let (mp, n) = (qs[i].rows(), qs[i].cols());
            let g = Matrix::from_slice(n, n, &summed[off..off + n * n]);
            off += n * n;
            let r = potrf(&g)?;
            rank.charge_flops(flops::potrf(n));
            let q = qs[i].reborrow();
            match srcs {
                Some(srcs) => trsm_right_into(Uplo::Upper, false, false, &r, srcs[i], q),
                None => trsm_right_in_place(Uplo::Upper, false, false, &r, q),
            }
            rank.charge_flops(flops::trsm(n, mp));
            Ok(r)
        })
        .collect()
}

/// CholeskyQR2-factor the row-distributed matrix `a_local` over `comm`
/// (any row distribution with `Σ_p m_p = m ≥ n`; ranks may own fewer
/// than `n` rows, or none). Two [`cholqr_pass`]es; the second repairs the
/// first's orthogonality to `O(ε)` for inputs within the condition
/// guard.
///
/// # Errors
/// [`CholQrError`] on Cholesky breakdown — consistently on every rank.
pub fn cholqr2_factor(
    rank: &mut Rank,
    comm: &Comm,
    a_local: &Matrix,
) -> Result<CholQrFactors, CholQrError> {
    cholqr2_factor_batch(rank, comm, std::slice::from_ref(a_local))
        .pop()
        .expect("one problem in, one result out")
}

/// CholeskyQR2 over `k` independent row-distributed problems with
/// **fused** communication: each of the two passes shares one
/// all-reduce across the batch, so the whole batch costs two —
/// `S = O(log P)` total, the per-problem latency amortized to
/// `O((log P)/k)` — with `W = O(k·n²)`
/// (`qr3d_cost::algorithms::cholqr2_batch_cost`).
///
/// Errors are per problem: a breakdown in one problem does not disturb
/// the others (its slot carries the `Err`; the second pass simply runs
/// on the survivors). Every rank computes the identical survivor set —
/// breakdown decisions are replicated — so the batch composition stays
/// SPMD-consistent and no rank diverges into a deadlock.
pub fn cholqr2_factor_batch(
    rank: &mut Rank,
    comm: &Comm,
    a_locals: &[Matrix],
) -> Vec<Result<CholQrFactors, CholQrError>> {
    let mut qs = like(a_locals);
    let mut q_views: Vec<MatMut<'_>> = qs.iter_mut().map(Matrix::view_mut).collect();
    let a_views: Vec<MatRef<'_>> = a_locals.iter().map(Matrix::view).collect();
    let rs = cholqr2_factor_into(rank, comm, &a_views, &mut q_views);
    rs.into_iter()
        .zip(qs)
        .map(|(r, q_local)| r.map(|r| CholQrFactors { q_local, r }))
        .collect()
}

/// [`cholqr2_factor_batch`] between blocks borrowed where they lie: a
/// rank's rows of a matrix the caller holds whole ([`Matrix::block`])
/// are read in place, and its rows of `Q` are written where the caller
/// wants them ([`Matrix::row_blocks_mut`]) — nothing is copied out
/// before the factorization or back after it. The first pass reads
/// `a_locals[i]` twice (Gram matrix, solve) and writes `qs[i]`, never
/// reading it first, so `Q` may be freshly allocated; the second works
/// in `qs[i]`. Returns the replicated `R` per problem; where a problem
/// broke down its `qs[i]` holds no result.
///
/// # Panics
/// If the two slices differ in length or a pair of blocks in shape.
pub fn cholqr2_factor_into(
    rank: &mut Rank,
    comm: &Comm,
    a_locals: &[MatRef<'_>],
    qs: &mut [MatMut<'_>],
) -> Vec<Result<Matrix, CholQrError>> {
    assert_eq!(a_locals.len(), qs.len(), "one Q block per local block");
    let all: Vec<usize> = (0..qs.len()).collect();
    let firsts = pass(rank, comm, Some(a_locals), qs, &all);
    // Second pass on the survivors only (replicated on every rank).
    let survivors: Vec<usize> = all.into_iter().filter(|&i| firsts[i].is_ok()).collect();
    let mut seconds = pass(rank, comm, None, qs, &survivors).into_iter();
    firsts
        .into_iter()
        .map(|first| {
            let r1 = first.map_err(|source| CholQrError { pass: 1, source })?;
            let r2 = seconds
                .next()
                .expect("one pass-2 result per pass-1 survivor")
                .map_err(|source| CholQrError { pass: 2, source })?;
            // R = R₂·R₁ (upper triangular · upper triangular), replicated
            // like its factors.
            let n = r1.rows();
            let r = matmul(&r2, &r1);
            rank.charge_flops(flops::gemm(n, n, n));
            Ok(r)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr3d_machine::{CostParams, Machine};
    use qr3d_matrix::gemm::matmul_tn;
    use qr3d_matrix::layout::BlockRow;
    use qr3d_matrix::qr::random_with_condition;

    /// Run CholeskyQR2 over a balanced block-row layout and reassemble Q.
    fn run(a: &Matrix, p: usize) -> (Result<Matrix, CholQrError>, Matrix, qr3d_machine::Clock) {
        let m = a.rows();
        let lay = BlockRow::balanced(m, 1, p);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let a_loc = a.take_rows(&lay.local_rows(w.rank()));
            cholqr2_factor(rank, &w, &a_loc)
        });
        let crit = out.stats.critical();
        match &out.results[0] {
            Err(e) => {
                // Breakdown must be replicated: every rank agrees.
                for res in &out.results {
                    assert_eq!(res.as_ref().unwrap_err(), e, "divergent breakdown");
                }
                (Err(*e), Matrix::zeros(0, 0), crit)
            }
            Ok(first) => {
                let n = a.cols();
                let mut q = Matrix::zeros(m, n);
                let starts = lay.starts();
                for (rk, res) in out.results.iter().enumerate() {
                    let fac = res.as_ref().expect("all ranks succeed together");
                    q.set_submatrix(starts[rk], 0, &fac.q_local);
                    // R is replicated bitwise.
                    assert_eq!(fac.r, first.r, "rank {rk} holds a different R");
                }
                (Ok(q), first.r.clone(), crit)
            }
        }
    }

    fn check(m: usize, n: usize, p: usize, seed: u64) {
        let a = Matrix::random(m, n, seed);
        let (q, r, _) = run(&a, p);
        let q = q.expect("random uniform matrices are well-conditioned enough");
        assert!(r.is_upper_triangular(0.0), "R upper triangular");
        for i in 0..n {
            assert!(r[(i, i)] > 0.0, "R diagonal positive");
        }
        let resid = matmul(&q, &r).sub(&a).frobenius_norm() / a.frobenius_norm();
        assert!(resid < 1e-12, "m={m} n={n} p={p}: residual {resid}");
        let orth = matmul_tn(&q, &q).sub(&Matrix::identity(n)).max_abs();
        assert!(orth < 1e-13, "m={m} n={n} p={p}: orthogonality {orth}");
    }

    #[test]
    fn cholqr2_various_shapes() {
        check(32, 4, 4, 1);
        check(64, 8, 8, 2);
        check(40, 5, 5, 3);
        check(48, 3, 7, 4);
    }

    #[test]
    fn cholqr2_single_rank_and_non_power_of_two() {
        check(16, 6, 1, 5);
        check(36, 4, 3, 6);
        check(60, 4, 6, 7);
    }

    #[test]
    fn cholqr2_rank_with_fewer_than_n_rows() {
        // m = 10 over p = 4: counts (3,3,2,2) < n = 4 on every rank —
        // forbidden for tsqr, fine here (the Gram sum needs no local
        // minimum height).
        check(10, 4, 4, 8);
    }

    #[test]
    fn cholqr2_breaks_down_on_rank_deficient_input() {
        // Two identical columns: G is singular; every rank reports pass-1
        // breakdown at the same pivot.
        let mut a = Matrix::random(24, 4, 9);
        for i in 0..24 {
            a[(i, 3)] = a[(i, 0)];
        }
        let (res, _, _) = run(&a, 4);
        let err = res.unwrap_err();
        assert_eq!(err.pass, 1);
        assert!(err.to_string().contains("pass 1"));
    }

    #[test]
    fn cholqr2_handles_moderate_condition_numbers() {
        // κ = 1e6 is inside the 1/√ε guard: orthogonality must still be
        // machine-level after the second pass.
        let a = random_with_condition(96, 8, 1e6, 10);
        let (q, r, _) = run(&a, 4);
        let q = q.expect("κ = 1e6 is within the guard");
        let orth = matmul_tn(&q, &q).sub(&Matrix::identity(8)).max_abs();
        assert!(orth < 1e-13, "orthogonality {orth}");
        let resid = matmul(&q, &r).sub(&a).frobenius_norm() / a.frobenius_norm();
        assert!(resid < 1e-12, "residual {resid}");
    }

    #[test]
    fn cholqr2_costs_match_model() {
        // W = O(n²) and S = O(log P) on the critical path — the whole
        // point versus tsqr's n² log P words.
        let (n, rows_per) = (8usize, 16usize);
        for p in [4usize, 8, 16] {
            let m = rows_per * p;
            let a = Matrix::random(m, n, 11);
            let (q, _, c) = run(&a, p);
            q.expect("well conditioned");
            let n2 = (n * n) as f64;
            let lg = (p as f64).log2().ceil();
            // Two all-reduces; each endpoint charge ≤ ~2× the one-way
            // count; allow slack for the doubling/bidir constants.
            assert!(c.words <= 16.0 * n2, "p={p}: W={}", c.words);
            assert!(c.msgs <= 8.0 * (lg + 1.0), "p={p}: S={}", c.msgs);
        }
    }

    #[test]
    fn cholqr2_deterministic() {
        let a = Matrix::random(40, 5, 12);
        let (q1, r1, _) = run(&a, 4);
        let (q2, r2, _) = run(&a, 4);
        assert_eq!(q1.unwrap(), q2.unwrap());
        assert_eq!(r1, r2);
    }

    #[test]
    fn batch_fuses_the_all_reduces_and_stays_correct() {
        // k problems through the fused batch: every problem's factors
        // must verify, and the batch's critical-path message count must
        // stay at ONE CholeskyQR2 (two all-reduces), not k of them.
        let (m, n, p, k) = (96usize, 6usize, 4usize, 6usize);
        let problems: Vec<Matrix> = (0..k)
            .map(|j| Matrix::random(m, n, 60 + j as u64))
            .collect();
        let lay = BlockRow::balanced(m, 1, p);
        let machine = Machine::new(p, CostParams::unit());
        let probs = &problems;
        let batch = machine.run(|rank| {
            let w = rank.world();
            let rows = lay.local_rows(w.rank());
            let locals: Vec<Matrix> = probs.iter().map(|a| a.take_rows(&rows)).collect();
            cholqr2_factor_batch(rank, &w, &locals)
        });
        let single_msgs = {
            let out = machine.run(|rank| {
                let w = rank.world();
                let a_loc = problems[0].take_rows(&lay.local_rows(w.rank()));
                cholqr2_factor(rank, &w, &a_loc).map(|f| f.r)
            });
            out.stats.critical().msgs
        };
        let starts = lay.starts();
        for (j, a) in problems.iter().enumerate() {
            let first = batch.results[0][j].as_ref().expect("well-conditioned");
            let mut q = Matrix::zeros(m, n);
            for (rk, res) in batch.results.iter().enumerate() {
                let fac = res[j].as_ref().expect("all ranks agree");
                assert_eq!(fac.r, first.r, "problem {j}: R replicated bitwise");
                q.set_submatrix(starts[rk], 0, &fac.q_local);
            }
            let resid = matmul(&q, &first.r).sub(a).frobenius_norm() / a.frobenius_norm();
            assert!(resid < 1e-12, "problem {j}: residual {resid}");
            let orth = matmul_tn(&q, &q).sub(&Matrix::identity(n)).max_abs();
            assert!(orth < 1e-13, "problem {j}: orthogonality {orth}");
        }
        // S_batch ≈ S_single: the fused batch charges one tree, so its
        // critical path must be far below k sequential passes (allow
        // slack for the auto all-reduce switching variant on the larger
        // fused block).
        let fused = batch.stats.critical().msgs;
        assert!(
            fused * 2.0 <= single_msgs * k as f64,
            "S_batch = {fused} should amortize k = {k} × S_single = {single_msgs}"
        );
    }

    #[test]
    fn batch_isolates_per_problem_breakdown() {
        // One rank-deficient problem among healthy ones: its slot (and
        // only its slot) reports the pass-1 breakdown, identically on
        // every rank; the survivors still factor to machine precision.
        let (m, n, p) = (48usize, 4usize, 4usize);
        let good0 = Matrix::random(m, n, 70);
        let mut bad = Matrix::random(m, n, 71);
        for i in 0..m {
            bad[(i, 3)] = bad[(i, 0)]; // duplicate column ⇒ singular Gram
        }
        let good1 = Matrix::random(m, n, 72);
        let problems = [good0, bad, good1];
        let lay = BlockRow::balanced(m, 1, p);
        let machine = Machine::new(p, CostParams::unit());
        let probs = &problems;
        let out = machine.run(|rank| {
            let w = rank.world();
            let rows = lay.local_rows(w.rank());
            let locals: Vec<Matrix> = probs.iter().map(|a| a.take_rows(&rows)).collect();
            cholqr2_factor_batch(rank, &w, &locals)
        });
        for res in &out.results {
            assert!(res[0].is_ok());
            let err = res[1].as_ref().unwrap_err();
            assert_eq!(err.pass, 1, "duplicate column breaks pass 1");
            assert!(res[2].is_ok());
        }
        // Survivors verify.
        let starts = lay.starts();
        for j in [0usize, 2] {
            let first = out.results[0][j].as_ref().unwrap();
            let mut q = Matrix::zeros(m, n);
            for (rk, res) in out.results.iter().enumerate() {
                q.set_submatrix(starts[rk], 0, &res[j].as_ref().unwrap().q_local);
            }
            let resid = matmul(&q, &first.r).sub(&problems[j]).frobenius_norm()
                / problems[j].frobenius_norm();
            assert!(resid < 1e-12, "survivor {j}: residual {resid}");
        }
    }

    #[test]
    fn batch_is_deterministic() {
        let (m, n, p, k) = (40usize, 5usize, 4usize, 4usize);
        let problems: Vec<Matrix> = (0..k)
            .map(|j| Matrix::random(m, n, 80 + j as u64))
            .collect();
        let lay = BlockRow::balanced(m, 1, p);
        let probs = &problems;
        let run = || {
            let machine = Machine::new(p, CostParams::unit());
            let out = machine.run(|rank| {
                let w = rank.world();
                let rows = lay.local_rows(w.rank());
                let locals: Vec<Matrix> = probs.iter().map(|a| a.take_rows(&rows)).collect();
                cholqr2_factor_batch(rank, &w, &locals)
            });
            out.results[0]
                .iter()
                .map(|r| r.as_ref().unwrap().r.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "fused batch must be bitwise reproducible");
    }

    #[test]
    fn single_pass_is_worse_than_two() {
        // The refinement pass is not decorative: at κ = 1e6 one pass
        // leaves κ²ε ≈ 1e-4-level orthogonality error, the second pass
        // repairs it to ε-level.
        let n = 8;
        let a = random_with_condition(96, n, 1e6, 13);
        let lay = BlockRow::balanced(96, 1, 4);
        let machine = Machine::new(4, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let a_loc = a.take_rows(&lay.local_rows(w.rank()));
            cholqr_pass(rank, &w, &a_loc).map(|(q, _)| q)
        });
        let mut q = Matrix::zeros(96, n);
        let starts = lay.starts();
        for (rk, res) in out.results.iter().enumerate() {
            q.set_submatrix(starts[rk], 0, res.as_ref().unwrap());
        }
        let orth1 = matmul_tn(&q, &q).sub(&Matrix::identity(n)).max_abs();
        assert!(
            orth1 > 1e-9,
            "one pass at κ=1e6 should visibly lose orthogonality, got {orth1}"
        );
    }
}
