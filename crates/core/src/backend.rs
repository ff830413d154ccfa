//! The unified QR entry point: one `factor` call over every algorithm in
//! the workspace, with the backend either named explicitly or chosen at
//! runtime by the cost model — the first place the
//! [`qr3d_cost::advisor`] recommendations actually *drive execution*
//! instead of just printing tables.
//!
//! ```text
//!        ┌───────────────┐   explicit    ┌─────────────────────────┐
//! caller │ QrBackend::…  ├──────────────▶│ factor(a, p, backend, …) │
//!        └───────────────┘               │  scatter → simulate →    │
//!        ┌───────────────┐   advised     │  assemble (Q, R, Clock)  │
//!        │ params.auto(…) ├─────────────▶└─────────────────────────┘
//!        └───────▲───────┘
//!                │ recommend_with_kappa(m, n, P, κ?, α, β, γ)
//!        ┌───────┴───────┐
//!        │ qr3d_cost      │  CholeskyQR2 offered only under the κ guard
//!        └───────────────┘
//! ```
//!
//! Every backend runs its native data layout on the simulated machine and
//! is normalized to the same output: an explicit thin `Q` (`m × n`), the
//! `n × n` upper-triangular `R`, and the critical-path [`Clock`].
//! Householder-based backends build `Q` from their `(V, T)`
//! representation (orthonormal to `O(ε)` at any κ) — TSQR on its ranks,
//! where `V` lies, the others once it is assembled; CholeskyQR2 produces
//! an explicit `Q` natively (`O(ε)` under its κ guard). The 2D baselines
//! (whose internal row permutations keep `(V, T)` distributed beyond
//! reach) recover `Q = A·R⁻¹` — mathematically orthonormal given
//! `RᵀR = AᵀA`, but the triangular solve amplifies rounding by `κ(A)`,
//! so their normalized `Q` loses orthogonality as `O(κ(A)·ε)`. Callers
//! who need machine-ε orthogonality on ill-conditioned square-ish inputs
//! should run the 2D/3D algorithms directly for `R` and apply the
//! implicit `Q` via their own representations.

use std::sync::Mutex;

use qr3d_cost::advisor::{recommend_batch_with_kappa, recommend_with_rank_hint, RankHint};
use qr3d_machine::{Clock, Comm, CostParams, Executor, Machine, Rank, RunOutput};
use qr3d_matrix::gemm::{matmul, matmul_tn};
use qr3d_matrix::layout::BlockRow;
use qr3d_matrix::pivot::{detected_rank, permute_cols, rank_tolerance};
use qr3d_matrix::qr::{thin_q_blocks, thin_q_coefficients, thin_q_rows};
use qr3d_matrix::scratch::{put_matrix, with_thread_arena};
use qr3d_matrix::tri::{trsm, Side, Uplo};
use qr3d_matrix::{MatMut, MatRef, Matrix};

use crate::caqr1d::{caqr1d_factor, Caqr1dConfig};
use crate::caqr2d::{caqr2d_block, caqr2d_factor};
use crate::caqr3d::{caqr3d_factor, Caqr3dConfig, QrFactorsCyclic};
use crate::cholqr::{cholqr2_factor_into, CholQrError};
use crate::house2d::{house2d_factor, Grid2Config};
use crate::rrqr::{pivot_qr_factor, rrqr_factor, RrqrConfig};
use crate::shifted::ShiftedRowCyclic;
use crate::tsqr::{tsqr_factor_into, QrFactors};

/// Which QR algorithm the unified entry point runs: the advisor's own
/// vocabulary, so a recommendation is dispatched as it stands.
pub use qr3d_cost::advisor::Choice as QrBackend;

/// How the cost model wants a batch served (see [`FactorParams::auto_batch`]).
#[derive(Debug, Clone, Copy)]
pub struct BatchPlan {
    /// The backend to run.
    pub backend: QrBackend,
    /// Whether to fuse the batch into shared reduction trees; only the
    /// tall-skinny single-tree backends (`Tsqr`, `CholQr2`) fuse.
    pub fused: bool,
}

/// Caller-side context for backend selection: the machine the cost model
/// should price communication for, and an optional condition-number
/// estimate (`κ(A)`) enabling the Gram-based backend.
#[derive(Debug, Clone, Copy)]
pub struct FactorParams {
    /// The machine's `(α, β, γ)` used both to advise and to clock the run.
    pub machine: CostParams,
    /// The caller's estimate (or assertion) of `κ(A)`; `None` = unknown,
    /// which conservatively disables CholeskyQR2.
    pub kappa: Option<f64>,
    /// What the caller knows about the input's column rank (default:
    /// [`RankHint::Full`], the historical contract). A non-`Full` hint
    /// routes [`FactorParams::auto`] to a rank-revealing backend so the
    /// deficiency is *diagnosed* — CholeskyQR2 would refuse and plain
    /// Householder would silently mask it.
    pub rank_hint: RankHint,
}

impl FactorParams {
    /// Selection on the given machine with κ unknown.
    pub fn new(machine: CostParams) -> Self {
        FactorParams {
            machine,
            kappa: None,
            rank_hint: RankHint::Full,
        }
    }

    /// Assert a condition-number estimate (see [`FactorParams::kappa`]).
    pub fn with_kappa(mut self, kappa: f64) -> Self {
        self.kappa = Some(kappa);
        self
    }

    /// Declare the rank knowledge (see [`FactorParams::rank_hint`]).
    pub fn with_rank_hint(mut self, hint: RankHint) -> Self {
        self.rank_hint = hint;
        self
    }

    /// Ask the cost model for the cheapest backend for an `m × n` problem
    /// on `P` ranks of this machine. CholeskyQR2 is considered only when
    /// [`FactorParams::kappa`] asserts a condition number within
    /// [`qr3d_cost::advisor::CHOLQR2_KAPPA_GUARD`].
    pub fn auto(&self, m: usize, n: usize, p: usize) -> QrBackend {
        let mc = &self.machine;
        recommend_with_rank_hint(
            m,
            n,
            p,
            self.rank_hint,
            self.kappa,
            mc.alpha,
            mc.beta,
            mc.gamma,
        )
        .choice
    }

    /// Ask the cost model how to serve a batch of `k` same-shape
    /// problems: which backend, and whether to **fuse** the batch into
    /// shared reduction trees (`S_batch ≈ S_single`) or run it
    /// sequentially. `kappa`, if given, must bound the condition number
    /// of *every* problem in the batch.
    pub fn auto_batch(&self, m: usize, n: usize, p: usize, k: usize) -> BatchPlan {
        // Rank-revealing backends produce per-problem permutations and
        // don't share reduction trees: a non-Full hint serves the batch
        // sequentially with the single-problem recommendation.
        if self.rank_hint.requires_rank_revealing() {
            return BatchPlan {
                backend: self.auto(m, n, p),
                fused: false,
            };
        }
        let mc = &self.machine;
        let rec = recommend_batch_with_kappa(m, n, p, k, self.kappa, mc.alpha, mc.beta, mc.gamma);
        BatchPlan {
            backend: rec.choice,
            fused: rec.fused,
        }
    }
}

impl Default for FactorParams {
    /// A commodity cluster with κ unknown — the conservative default.
    fn default() -> Self {
        FactorParams::new(CostParams::cluster())
    }
}

/// The normalized result of a dispatched factorization.
#[derive(Debug, Clone)]
pub struct FactorOutput {
    /// The backend that ran.
    pub backend: QrBackend,
    /// The explicit thin Q-factor (`m × n`). Orthonormal to `O(ε)` for
    /// the Householder backends at any κ and for CholeskyQR2 under its
    /// κ guard; `O(κ(A)·ε)` for `House2d`/`Caqr2d`, whose `Q` is
    /// recovered as `A·R⁻¹` (see the module docs).
    pub q: Matrix,
    /// The `n × n` upper-triangular R-factor. For the rank-revealing
    /// backends this is the R of the *permuted* matrix `A·P`, with a
    /// decaying diagonal.
    pub r: Matrix,
    /// The column permutation, for the rank-revealing backends: column
    /// `j` of the factored matrix is column `perm[j]` of `A`. `None`
    /// for the full-rank backends (identity).
    pub perm: Option<Vec<usize>>,
    /// Numerical rank read off `R`'s diagonal decay. Exact for the
    /// pivoted backends (their diagonal is sorted); a *diagnostic* for
    /// the full-rank backends — `detected_rank < n` proves the input
    /// was rank-deficient and the factorization should not be trusted
    /// for solves, while `== n` proves nothing without pivoting.
    pub detected_rank: usize,
    /// Critical-path costs of the simulated run.
    pub critical: Clock,
}

impl FactorOutput {
    /// Relative residual `‖A·P − Q·R‖_F / ‖A‖_F` (`P` = identity for
    /// the full-rank backends).
    pub fn residual(&self, a: &Matrix) -> f64 {
        let ap;
        let target = match &self.perm {
            Some(perm) => {
                ap = permute_cols(a, perm);
                &ap
            }
            None => a,
        };
        matmul(&self.q, &self.r).sub(target).frobenius_norm()
            / a.frobenius_norm().max(f64::MIN_POSITIVE)
    }

    /// Orthogonality defect `‖QᵀQ − I‖_max`.
    pub fn orthogonality(&self) -> f64 {
        let n = self.q.cols();
        matmul_tn(&self.q, &self.q)
            .sub(&Matrix::identity(n))
            .max_abs()
    }
}

/// Dispatch failure. Today the only recoverable failure is CholeskyQR2
/// breakdown (the caller's κ assertion was wrong); shape violations
/// panic like the per-algorithm entry points do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FactorError {
    /// CholeskyQR2 hit a non-positive Cholesky pivot. Retry with a
    /// Householder backend ([`QrBackend::Tsqr`] is always safe for
    /// `m/n ≥ P`).
    CholeskyBreakdown(CholQrError),
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::CholeskyBreakdown(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FactorError {}

/// Factor `a` on `p` simulated ranks of `params.machine` with the backend
/// the cost model recommends (see [`FactorParams::auto`]).
pub fn factor_auto(
    a: &Matrix,
    p: usize,
    params: &FactorParams,
) -> Result<FactorOutput, FactorError> {
    let backend = params.auto(a.rows(), a.cols(), p);
    factor(a, p, backend, params)
}

/// Factor `a` (`m × n`, `m ≥ n ≥ 1`) on `p` simulated ranks of
/// `params.machine` with an explicit backend: a one-shot wrapper that
/// spawns a throwaway executor for [`factor_on`]. Callers factoring many
/// problems should hold a warm executor — most conveniently through
/// [`crate::session::Session`].
///
/// # Panics
/// On shape violations — e.g. a tall-skinny backend (`Tsqr`, `Caqr1d`)
/// with `m/P < n`, the constraint the advisor's aspect gate
/// enforces for advised picks.
pub fn factor(
    a: &Matrix,
    p: usize,
    backend: QrBackend,
    params: &FactorParams,
) -> Result<FactorOutput, FactorError> {
    let machine = Machine::new(p, params.machine);
    factor_on(&mut machine.executor(), a, backend)
}

/// Assemble one problem's explicit `(Q, R)` from its per-rank
/// Householder block-row factors, rank 0's first.
fn assemble_tsqr_problem<'a>(
    per_rank: impl IntoIterator<Item = &'a QrFactors>,
    counts: &[usize],
) -> (Matrix, Matrix) {
    let per_rank: Vec<&QrFactors> = per_rank.into_iter().collect();
    for (fac, &c) in per_rank.iter().zip(counts) {
        assert_eq!(fac.v_local.rows(), c, "local V row count mismatch");
    }
    // Q is formed from the ranks' blocks of V where they lie: stacking
    // them first would copy all of V once more per problem.
    let blocks: Vec<&Matrix> = per_rank.iter().map(|fac| &fac.v_local).collect();
    let t = per_rank[0].t.as_ref().expect("rank 0 holds T");
    let r = per_rank[0].r.clone().expect("rank 0 holds R");
    (thin_q_blocks(&blocks, t), r)
}

/// One problem's explicit `(Q, R)`, or why there is none.
pub(crate) type ExplicitQr = Result<(Matrix, Matrix), FactorError>;

/// One job over `problems` (all `m × n`, block-row on the executor's
/// ranks) in which every rank reads its rows of each problem where they
/// lie and writes its rows of each `Q` (allocated zeroed, whole) where
/// they belong, so nothing is scattered before the job or assembled
/// after it: `rank_part` is what a rank runs on those blocks. Returns
/// the `Q`s and the job's output.
fn q_in_place_job<T: Send>(
    exec: &mut Executor,
    problems: &[&Matrix],
    rank_part: impl Fn(&mut Rank, &Comm, &[MatRef<'_>], &mut [MatMut<'_>]) -> T + Sync,
) -> (Vec<Matrix>, RunOutput<T>) {
    let (m, n) = (problems[0].rows(), problems[0].cols());
    let lay = BlockRow::balanced(m, 1, exec.procs());
    let starts = lay.starts();
    let mut qs: Vec<Matrix> = problems.iter().map(|_| Matrix::zeros(m, n)).collect();
    // Each rank's blocks of every Q, taken by the rank when it runs (a
    // job is one closure shared by all ranks).
    let mut blocks: Vec<Mutex<Vec<MatMut<'_>>>> =
        (0..exec.procs()).map(|_| Mutex::default()).collect();
    for q in &mut qs {
        for (mine, block) in blocks.iter_mut().zip(q.row_blocks_mut(lay.counts())) {
            mine.get_mut().expect("not yet shared").push(block);
        }
    }
    let out = exec.submit(|rank| {
        let w = rank.world();
        let (r0, r1) = (starts[w.rank()], starts[w.rank() + 1]);
        let a_locals: Vec<MatRef<'_>> = problems.iter().map(|a| a.block(r0, r1, 0, n)).collect();
        let mut q_locals = std::mem::take(&mut *blocks[w.rank()].lock().expect("own blocks"));
        rank_part(rank, &w, &a_locals, &mut q_locals)
    });
    drop(blocks);
    (qs, out)
}

/// TSQR of `problems` (all `m × n`) on the executor's ranks as one job,
/// fused across the batch ([`crate::tsqr::tsqr_factor_batch`]'s tree;
/// one problem is a batch of one), through
/// [`crate::tsqr::tsqr_factor_into`]: every rank writes its rows of each
/// `Q` from its own rows of `V` — `thin_q_blocks`'s bits, which the
/// benchmark's harness checks — and only rank 0's `R` comes back.
/// Returns each problem's explicit `(Q, R)` — TSQR has no way to fail,
/// the `Result` is [`cholqr2_on`]'s shape — and the job's critical path.
/// Shared by single dispatch and the session's fused batches so the two
/// can never diverge.
pub(crate) fn tsqr_on(exec: &mut Executor, problems: &[&Matrix]) -> (Vec<ExplicitQr>, Clock) {
    let (qs, out) = q_in_place_job(exec, problems, |rank, w, a_locals, q_locals| {
        let factors = tsqr_factor_into(rank, w, a_locals, q_locals);
        factors.into_iter().map(|fac| fac.r).collect::<Vec<_>>()
    });
    let rs = out.results.into_iter().next().expect("at least one rank");
    let factors = qs
        .into_iter()
        .zip(rs)
        .map(|(q, r)| Ok((q, r.expect("rank 0 holds R"))))
        .collect();
    (factors, out.stats.critical())
}

/// CholeskyQR2 of `problems` (all `m × n`) on the executor's ranks as
/// one job, fused across the batch, each rank writing its rows of each
/// `Q` where they belong. Returns each problem's explicit `(Q, R)` and
/// the job's critical path. Breakdown is replicated —
/// bitwise-identical Gram matrices — so the first rank speaks for
/// everyone and the rest are asserted to agree. Shared by single
/// dispatch and the session's fused batches.
pub(crate) fn cholqr2_on(exec: &mut Executor, problems: &[&Matrix]) -> (Vec<ExplicitQr>, Clock) {
    let (qs, out) = q_in_place_job(exec, problems, cholqr2_factor_into);
    let mut results = out.results.into_iter();
    let firsts = results.next().expect("at least one rank");
    for rest in results {
        for (first, res) in firsts.iter().zip(&rest) {
            assert_eq!(first.is_ok(), res.is_ok(), "breakdown is replicated");
        }
    }
    let factors = firsts
        .into_iter()
        .zip(qs)
        .map(|(r, q)| Ok((q, r.map_err(FactorError::CholeskyBreakdown)?)))
        .collect();
    (factors, out.stats.critical())
}

/// Factor `a` on a **warm** executor (no thread spawn): scatters `a`
/// into the backend's native layout, runs the real distributed algorithm
/// as one executor job, and assembles the normalized [`FactorOutput`].
/// The executor's cost parameters clock the run; backend *selection*
/// (and its κ context) happens upstream, via [`FactorParams::auto`] or
/// [`crate::session::Session`].
///
/// # Panics
/// As [`factor`].
pub fn factor_on(
    exec: &mut Executor,
    a: &Matrix,
    backend: QrBackend,
) -> Result<FactorOutput, FactorError> {
    let (m, n) = (a.rows(), a.cols());
    let p = exec.procs();
    assert!(m >= n && n >= 1, "factor: need m ≥ n ≥ 1 (got {m} × {n})");
    assert!(p >= 1, "factor: need at least one rank");
    // Enforce the 1D block-row family's per-rank row requirement HERE,
    // host-side, rather than letting the kernel assert inside the job —
    // an in-job panic would needlessly poison a warm executor.
    if matches!(
        backend,
        QrBackend::Tsqr | QrBackend::Caqr1d { .. } | QrBackend::RandRrqr
    ) {
        assert!(
            qr3d_cost::advisor::tall_skinny_admissible(m, n, p),
            "factor: {backend:?} needs every rank to own at least n rows \
             (m ≥ n·P; got m = {m}, n = {n}, P = {p})"
        );
    }

    // The rank-revealing backends carry extra outputs (permutation,
    // kernel-detected rank), so they assemble their own FactorOutput.
    if matches!(backend, QrBackend::PivotQr | QrBackend::RandRrqr) {
        let lay = BlockRow::balanced(m, 1, p);
        let counts = lay.counts().to_vec();
        let is_pivot = matches!(backend, QrBackend::PivotQr);
        let out = exec.submit(|rank| {
            let w = rank.world();
            let a_loc = a.take_rows(&lay.local_rows(w.rank()));
            if is_pivot {
                pivot_qr_factor(rank, &w, &a_loc, &counts)
            } else {
                rrqr_factor(rank, &w, &a_loc, &counts, &RrqrConfig::default())
            }
        });
        let facs = out.results.iter().map(|r| &r.factors);
        let (q, r) = assemble_tsqr_problem(facs, lay.counts());
        let first = &out.results[0];
        return Ok(FactorOutput {
            backend,
            q,
            r,
            perm: Some(first.perm.clone()),
            detected_rank: first.rank,
            critical: out.stats.critical(),
        });
    }

    let (q, r, critical) = match backend {
        QrBackend::PivotQr | QrBackend::RandRrqr => {
            unreachable!("rank-revealing backends returned above")
        }
        QrBackend::Tsqr => {
            let (mut factors, critical) = tsqr_on(exec, &[a]);
            let (q, r) = factors.pop().expect("one problem in, one result out")?;
            (q, r, critical)
        }
        QrBackend::Caqr1d { epsilon } => {
            let lay = BlockRow::balanced(m, 1, p);
            let cfg = Caqr1dConfig::auto(n, p, epsilon);
            let out = exec.submit(|rank| {
                let w = rank.world();
                caqr1d_factor(rank, &w, &a.take_rows(&lay.local_rows(w.rank())), &cfg)
            });
            let (q, r) = assemble_tsqr_problem(&out.results, lay.counts());
            (q, r, out.stats.critical())
        }
        QrBackend::Caqr3d { delta } => {
            let lay = ShiftedRowCyclic::new(m, n, p, 0);
            let cfg = Caqr3dConfig::auto(m, n, p, delta);
            let out = exec.submit(|rank| {
                let w = rank.world();
                caqr3d_factor(rank, &w, &lay.scatter_from_full(a, w.rank()), m, n, &cfg)
            });
            let (q, r) = caqr3d_q_r(&out.results, m, n, p);
            (q, r, out.stats.critical())
        }
        QrBackend::House2d | QrBackend::Caqr2d => {
            let b = caqr2d_block(m, n, p);
            let cfg = Grid2Config::auto(m, n, p, b);
            let is_house = matches!(backend, QrBackend::House2d);
            let out = exec.submit(|rank| {
                let w = rank.world();
                let a_loc = cfg.scatter_from_full(a, w.rank());
                if is_house {
                    house2d_factor(rank, &w, &a_loc, m, n, &cfg)
                } else {
                    caqr2d_factor(rank, &w, &a_loc, m, n, &cfg)
                }
            });
            let r = out.results[0].r.clone().expect("rank 0 holds R");
            // The 2D drivers' internal permutations keep (V, T) out of
            // reach; Q = A·R⁻¹ is orthonormal given RᵀR = AᵀA, up to an
            // O(κ(A)·ε) rounding loss from the solve (module docs).
            let q = trsm(Side::Right, Uplo::Upper, false, false, &r, a);
            (q, r, out.stats.critical())
        }
        QrBackend::CholQr2 => {
            let (mut factors, critical) = cholqr2_on(exec, &[a]);
            let (q, r) = factors.pop().expect("one problem in, one result out")?;
            (q, r, critical)
        }
    };

    let detected_rank = detected_rank(&r, rank_tolerance(m, n));
    Ok(FactorOutput {
        backend,
        q,
        r,
        perm: None,
        detected_rank,
        critical,
    })
}

/// `Q` and `R` from 3D-CAQR-EG's row-cyclic factors, with `thin_q`'s
/// bits. `V` is gathered straight into `Q`'s buffer, and `Q = [I; 0] −
/// V·(T·V_topᵀ)` is formed there in place, `n` rows at a time from a
/// copy of those rows of `V` (the bits do not depend on where the rows
/// are cut). Until `R` lands in it, `R`'s buffer holds `T` and then the
/// copies, so the coefficients are the one matrix drawn from the calling
/// thread's scratch arena, and `Q` and `R` the only ones allocated.
fn caqr3d_q_r(results: &[QrFactorsCyclic], m: usize, n: usize, p: usize) -> (Matrix, Matrix) {
    let v_lay = ShiftedRowCyclic::new(m, n, p, 0);
    let t_lay = ShiftedRowCyclic::new(n, n, p, 0);
    let mut q = v_lay.gather_to_full(results.iter().map(|f| &f.v_local));
    let mut r = t_lay.gather_to_full(results.iter().map(|f| &f.t_local));
    with_thread_arena(|ws| {
        let coef = thin_q_coefficients(ws, q.block(0, n, 0, n), &r);
        for r0 in (0..m).step_by(n) {
            let r1 = (r0 + n).min(m);
            let v = &mut r.as_mut_slice()[..(r1 - r0) * n];
            v.copy_from_slice(&q.as_slice()[r0 * n..r1 * n]);
            let v = MatRef::new(v, r1 - r0, n, n);
            thin_q_rows(v, &coef, r0, q.block_mut(r0, r1, 0, n));
        }
        put_matrix(ws, coef);
    });
    t_lay.gather_into(results.iter().map(|f| &f.r_local), &mut r);
    (q, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr3d_matrix::qr::{random_with_condition, thin_q};

    fn check_output(out: &FactorOutput, a: &Matrix, tol: f64) {
        assert_eq!(out.q.rows(), a.rows());
        assert_eq!(out.q.cols(), a.cols());
        assert!(out.r.is_upper_triangular(1e-13), "R upper triangular");
        let resid = out.residual(a);
        assert!(resid < tol, "{:?}: residual {resid}", out.backend);
        let orth = out.orthogonality();
        assert!(orth < tol, "{:?}: orthogonality {orth}", out.backend);
    }

    #[test]
    fn every_backend_factors_through_the_unified_entry_point() {
        let (m, n, p) = (128usize, 16usize, 4usize);
        let a = Matrix::random(m, n, 1);
        let params = FactorParams::default();
        for backend in [
            QrBackend::Tsqr,
            QrBackend::Caqr1d { epsilon: 0.5 },
            QrBackend::House2d,
            QrBackend::Caqr2d,
            QrBackend::Caqr3d { delta: 0.5 },
            QrBackend::CholQr2,
        ] {
            let out = factor(&a, p, backend, &params).expect("well-conditioned input");
            check_output(&out, &a, 1e-11);
            assert!(out.critical.msgs > 0.0, "{backend:?} communicated");
        }
    }

    #[test]
    fn auto_picks_cholqr2_for_asserted_well_conditioned_tall_skinny() {
        let params = FactorParams::default().with_kappa(100.0);
        let backend = params.auto(4096, 64, 16);
        assert!(
            matches!(backend, QrBackend::CholQr2),
            "expected CholeskyQR2, got {backend:?}"
        );
    }

    #[test]
    fn auto_without_kappa_never_picks_cholqr2() {
        let params = FactorParams::default();
        let backend = params.auto(4096, 64, 16);
        assert!(
            !matches!(backend, QrBackend::CholQr2),
            "unknown κ must not dispatch to CholeskyQR2"
        );
    }

    #[test]
    fn explicit_cholqr2_on_bad_input_reports_breakdown() {
        // κ ≫ 1/√ε: the advisor would refuse; forcing the backend must
        // surface the error, not wrong answers.
        let a = random_with_condition(96, 8, 1e12, 2);
        let res = factor(&a, 4, QrBackend::CholQr2, &FactorParams::default());
        match res {
            Err(FactorError::CholeskyBreakdown(e)) => {
                assert!(e.pass >= 1);
            }
            Ok(out) => {
                // Numerically possible to squeak through without a
                // negative pivot — but then orthogonality must be junk,
                // which is why the advisor's guard exists.
                assert!(
                    out.orthogonality() > 1e-10,
                    "κ=1e12 cannot yield an orthonormal Q via Gram matrices"
                );
            }
        }
    }

    fn bits(x: &Matrix) -> Vec<u64> {
        x.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Each problem's `(thin_q_blocks(V, T), R)` from
    /// [`crate::tsqr::tsqr_factor_batch`] on `p` ranks of the facade's
    /// block-row layout, `V` as the ranks hold it — checked on the way
    /// against `thin_q` of the stacked `V`, bit for bit.
    fn thin_q_of_the_factors(problems: &[Matrix], p: usize) -> Vec<(Matrix, Matrix)> {
        let lay = BlockRow::balanced(problems[0].rows(), 1, p);
        let out = Machine::new(p, CostParams::unit()).run(|rank| {
            let w = rank.world();
            let rows = lay.local_rows(w.rank());
            let locals: Vec<Matrix> = problems.iter().map(|a| a.take_rows(&rows)).collect();
            crate::tsqr::tsqr_factor_batch(rank, &w, &locals)
        });
        (0..problems.len())
            .map(|j| {
                let blocks: Vec<&Matrix> = out.results.iter().map(|f| &f[j].v_local).collect();
                let root = &out.results[0][j];
                let t = root.t.as_ref().expect("root holds T");
                let q = thin_q_blocks(&blocks, t);
                let stacked = blocks[1..]
                    .iter()
                    .fold(blocks[0].clone(), |v, b| v.vstack(b));
                assert_eq!(
                    bits(&q),
                    bits(&thin_q(&stacked, t)),
                    "P={p}: problem {j}: thin_q_blocks vs thin_q of the stacked V"
                );
                (q, root.r.clone().expect("root holds R"))
            })
            .collect()
    }

    /// `Session::factor(Tsqr)` on the first problem and a fused
    /// `factor_batch(Tsqr)` on all of them, against
    /// [`thin_q_of_the_factors`]: every bit of `Q` and `R`.
    fn check_tsqr_q_bits(problems: &[Matrix], p: usize) {
        let ctx = format!("P={p} {} × {}", problems[0].rows(), problems[0].cols());
        let want = thin_q_of_the_factors(problems, p);
        let mut session = crate::session::Session::new(p, FactorParams::new(CostParams::unit()));
        let single = session.factor(&problems[0], QrBackend::Tsqr).unwrap();
        assert_eq!(bits(&single.q), bits(&want[0].0), "{ctx}: Q");
        assert_eq!(bits(&single.r), bits(&want[0].1), "{ctx}: R");
        let batch = session.factor_batch(problems, QrBackend::Tsqr);
        assert!(batch.fused, "{ctx}: same-shape TSQR batches fuse");
        for (j, (out, (q, r))) in batch.outputs.iter().zip(&want).enumerate() {
            let out = out.as_ref().unwrap();
            assert_eq!(bits(&out.q), bits(q), "{ctx}: problem {j}: Q");
            assert_eq!(bits(&out.r), bits(r), "{ctx}: problem {j}: R");
        }
    }

    #[test]
    fn tsqr_q_is_thin_q_blocks_of_the_factors_bit_for_bit() {
        for p in [1usize, 2, 3, 4, 8] {
            for n in [1usize, 7, 8, 64] {
                // Rows divisible neither by P nor by 8.
                let m = n * p + 8 * p + 3;
                let problems: Vec<Matrix> = (0..3)
                    .map(|j| Matrix::random(m, n, (100 * p + 10 * n + j) as u64))
                    .collect();
                check_tsqr_q_bits(&problems, p);
            }
        }
    }

    #[test]
    fn tsqr_q_of_leaves_above_leaf_words_is_thin_q_blocks_bit_for_bit() {
        // 4096 × 64 a rank: two leaf blocks of LEAF_WORDS each.
        const { assert!(4096 * 64 > crate::tsqr::LEAF_WORDS) };
        let problems: Vec<Matrix> = (0..2).map(|j| Matrix::random(8192, 64, 7 + j)).collect();
        check_tsqr_q_bits(&problems, 2);
    }

    #[test]
    fn caqr3d_q_is_thin_q_of_the_assembled_factors_bit_for_bit() {
        // Square, tall with `n ∤ m` (a short last block of rows), one
        // column, and one rank.
        for (m, n, p) in [
            (96, 96, 4),
            (200, 48, 3),
            (130, 13, 5),
            (37, 1, 2),
            (40, 24, 1),
        ] {
            let a = Matrix::random(m, n, (m + n + p) as u64);
            let params = FactorParams::new(CostParams::unit());
            let delta = 2.0 / 3.0;
            let out = factor(&a, p, QrBackend::Caqr3d { delta }, &params).unwrap();
            let lay = ShiftedRowCyclic::new(m, n, p, 0);
            let cfg = Caqr3dConfig::auto(m, n, p, delta);
            let run = Machine::new(p, params.machine).run(|rank| {
                let w = rank.world();
                caqr3d_factor(rank, &w, &lay.scatter_from_full(&a, w.rank()), m, n, &cfg)
            });
            let fac = crate::verify::assemble_factorization(&run.results, m, n, p);
            let ctx = format!("P={p} {m} × {n}");
            assert_eq!(bits(&out.q), bits(&thin_q(&fac.v, &fac.t)), "{ctx}: Q");
            assert_eq!(bits(&out.r), bits(&fac.r), "{ctx}: R");
        }
    }

    #[test]
    fn dispatch_clock_reflects_the_backend() {
        // On a bandwidth-priced machine (unit α = β, where the auto
        // all-reduce takes the bandwidth-lean exchange) CholeskyQR2 must
        // move fewer critical-path words than TSQR on the same input
        // (n² vs n² log P — the reason it exists).
        let a = Matrix::random(512, 16, 3);
        let params = FactorParams::new(CostParams::unit());
        let chol = factor(&a, 16, QrBackend::CholQr2, &params).unwrap();
        let tsqr = factor(&a, 16, QrBackend::Tsqr, &params).unwrap();
        assert!(
            chol.critical.words < tsqr.critical.words,
            "cholqr2 W={} should beat tsqr W={}",
            chol.critical.words,
            tsqr.critical.words
        );
    }
}
