//! Warm QR serving: a [`Session`] holds a persistent executor so many
//! factorizations run back-to-back on the same `P` rank threads with no
//! per-call thread spawn, and same-shape tall-skinny batches **fuse**
//! their reduction trees so `k` problems share one all-reduce/TSQR tree
//! per communication phase.
//!
//! ## Why a session
//!
//! [`crate::backend::factor`] spawns and joins `P` OS threads per call.
//! For one Table-2 experiment that is irrelevant; for serving traffic it
//! dominates: a 512 × 16 TSQR's whole critical path is microseconds of
//! simulated work, while `P` thread spawns cost hundreds of microseconds
//! of real time. A [`Session`] pays the spawn once.
//!
//! ## Why fusion
//!
//! Tall-skinny backends are *latency*-dominated: TSQR and CholeskyQR2
//! spend `S = O(log P)` messages per problem on tiny `n × n` reductions.
//! Fusing `k` independent problems concatenates the per-problem blocks
//! into one payload per reduction level, so the batch still pays
//! `O(log P)` messages **total** — `O((log P)/k)` per problem — at
//! `W = k·W_single` (see `qr3d_cost::algorithms::{tsqr_batch_cost,
//! cholqr2_batch_cost}`). This is the paper's α-β tradeoff reasoning
//! applied across problems instead of within one.
//!
//! ## Quickstart
//!
//! ```
//! use qr3d_core::prelude::*;
//! use qr3d_machine::CostParams;
//! use qr3d_matrix::Matrix;
//!
//! // A warm session on 4 ranks of a latency-dominated cluster, with a
//! // condition-number assertion unlocking the Gram-based backend.
//! let params = FactorParams::new(CostParams::cluster()).with_kappa(1e3);
//! let mut session = Session::new(4, params);
//!
//! // Serve a batch of 8 same-shape problems; the advisor fuses them.
//! let problems: Vec<Matrix> = (0..8).map(|s| Matrix::random(256, 8, s)).collect();
//! let batch = session.factor_batch_auto(&problems);
//! assert!(batch.fused, "well-conditioned tall-skinny batches fuse");
//! for (a, out) in problems.iter().zip(&batch.outputs) {
//!     let out = out.as_ref().expect("well-conditioned");
//!     assert!(out.residual(a) < 1e-12);
//! }
//! // …and keep serving on the same warm ranks.
//! let single = session.factor_auto(&problems[0]).unwrap();
//! assert!(single.orthogonality() < 1e-12);
//! ```

use qr3d_cost::advisor::tall_skinny_admissible;
use qr3d_machine::{Clock, Executor, ExecutorPoisoned, Machine, Rank, RunOutput};
use qr3d_matrix::pivot::{detected_rank, rank_tolerance};
use qr3d_matrix::Matrix;

use crate::backend::{
    cholqr2_on, factor_on, tsqr_on, FactorError, FactorOutput, FactorParams, QrBackend,
};

/// A warm QR service: `P` persistent rank threads plus the advisory
/// context (machine prices, κ estimate) used to pick backends. See the
/// module docs.
#[derive(Debug)]
pub struct Session {
    params: FactorParams,
    machine: Machine,
    exec: Executor,
}

/// The result of serving one batch.
#[derive(Debug)]
pub struct BatchOutput {
    /// Per-problem results, in submission order. For a fused batch each
    /// [`FactorOutput::critical`] is the *batch's* critical path (the
    /// problems ran as one job and share it); for a sequential batch it
    /// is that problem's own run.
    pub outputs: Vec<Result<FactorOutput, FactorError>>,
    /// The batch's total critical path: the shared job clock when fused,
    /// the componentwise sum of the per-job clocks when sequential
    /// (back-to-back jobs concatenate). In both modes this includes the
    /// cost of problems whose result is an `Err` — a CholeskyQR2
    /// breakdown still paid for its Gram all-reduces.
    pub critical: Clock,
    /// Whether the batch ran fused (shared reduction trees).
    pub fused: bool,
}

impl BatchOutput {
    fn empty() -> BatchOutput {
        BatchOutput {
            outputs: Vec::new(),
            critical: Clock::zero(),
            fused: false,
        }
    }
}

impl Session {
    /// A session with `p` warm ranks on `params.machine`.
    pub fn new(p: usize, params: FactorParams) -> Session {
        Session::on_machine(Machine::new(p, params.machine), params)
    }

    /// A session on an explicitly configured machine (e.g. a custom
    /// receive timeout). The machine's cost parameters govern both the
    /// clocks and the advisor, overriding `params.machine`.
    pub fn on_machine(machine: Machine, params: FactorParams) -> Session {
        let params = FactorParams {
            machine: *machine.params(),
            ..params
        };
        let exec = machine.executor();
        Session {
            params,
            machine,
            exec,
        }
    }

    /// Number of ranks.
    pub fn procs(&self) -> usize {
        self.exec.procs()
    }

    /// The advisory context (machine prices, κ estimate).
    pub fn params(&self) -> &FactorParams {
        &self.params
    }

    /// The underlying machine configuration.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// How many jobs the warm executor has completed.
    pub fn jobs_run(&self) -> u64 {
        self.exec.jobs_run()
    }

    /// True once a job has panicked on this session (a panicking closure
    /// poisons the underlying executor — its channels may hold wedged
    /// traffic, so every further `factor`/`run` call panics). Recover
    /// with [`Session::reset`].
    pub fn is_poisoned(&self) -> bool {
        self.exec.is_poisoned()
    }

    /// Replace the executor with a freshly spawned warm pool — the
    /// recovery path after a job panic poisoned the session. The
    /// advisory context is kept; the job counter restarts with the new
    /// pool.
    pub fn reset(&mut self) {
        self.exec = self.machine.executor();
    }

    /// Run a custom SPMD job on the warm executor — the escape hatch for
    /// workloads beyond plain factorization (apply-Qᵀ, least squares,
    /// iteration), with the same determinism guarantees as
    /// [`qr3d_machine::Machine::run`] and no thread spawn.
    ///
    /// # Panics
    /// Propagates panics from `f` and the executor's per-job invariant
    /// violations — and such a panic *poisons the session*: see
    /// [`Session::is_poisoned`] / [`Session::reset`].
    pub fn run<T, F>(&mut self, f: F) -> RunOutput<T>
    where
        T: Send,
        F: Fn(&mut Rank) -> T + Sync,
    {
        self.exec.submit(f)
    }

    /// Like [`Session::run`], but a poisoned session comes back as the
    /// typed [`ExecutorPoisoned`] error instead of a panic — so pooled
    /// callers (the service retry loop) can branch on "this session
    /// needs a [`Session::reset`]" without a `catch_unwind`.
    pub fn try_run<T, F>(&mut self, f: F) -> Result<RunOutput<T>, ExecutorPoisoned>
    where
        T: Send,
        F: Fn(&mut Rank) -> T + Sync,
    {
        self.exec.try_submit(f)
    }

    /// Factor one problem with an explicit backend on the warm executor.
    ///
    /// # Panics
    /// On shape-contract violations, as [`crate::backend::factor`] —
    /// host-side where detectable (the session stays serviceable), and
    /// otherwise inside the job, which *poisons the session* (see
    /// [`Session::is_poisoned`] / [`Session::reset`]). The same contract
    /// applies to every `factor_*` method below.
    pub fn factor(&mut self, a: &Matrix, backend: QrBackend) -> Result<FactorOutput, FactorError> {
        factor_on(&mut self.exec, a, backend)
    }

    /// Factor one problem with the cost-advised backend (see
    /// [`FactorParams::auto`]).
    pub fn factor_auto(&mut self, a: &Matrix) -> Result<FactorOutput, FactorError> {
        let backend = self.params.auto(a.rows(), a.cols(), self.procs());
        self.factor(a, backend)
    }

    /// Serve a batch of independent problems with an explicit backend.
    /// Same-shape batches on a fusable backend (`Tsqr`, `CholQr2`) run
    /// **fused** — one executor job whose reduction trees are shared by
    /// all problems; anything else runs sequentially (still warm, no
    /// respawn). [`BatchOutput::fused`] reports what happened.
    pub fn factor_batch(&mut self, problems: &[Matrix], backend: QrBackend) -> BatchOutput {
        if problems.is_empty() {
            return BatchOutput::empty();
        }
        if self.fusable(problems, backend) {
            self.factor_batch_fused(problems, backend)
        } else {
            self.factor_batch_sequential(problems, backend)
        }
    }

    /// Serve a batch with the cost model picking backend *and* execution
    /// mode (see [`FactorParams::auto_batch`]): fused CholeskyQR2 for
    /// well-conditioned same-shape tall-skinny batches, fused TSQR when
    /// κ is unknown, sequential dispatch otherwise. Mixed-shape batches
    /// fall back to per-problem [`Session::factor_auto`].
    pub fn factor_batch_auto(&mut self, problems: &[Matrix]) -> BatchOutput {
        if problems.is_empty() {
            return BatchOutput::empty();
        }
        let (m, n) = (problems[0].rows(), problems[0].cols());
        let uniform = problems.iter().all(|a| a.rows() == m && a.cols() == n);
        if !uniform {
            let mut outputs = Vec::with_capacity(problems.len());
            let mut critical = Clock::zero();
            for a in problems {
                let res = self.factor_auto(a);
                // Failed problems paid for their run too (see
                // `factor_batch_sequential`).
                critical.merge_sum(&self.exec.last_job_critical());
                outputs.push(res);
            }
            return BatchOutput {
                outputs,
                critical,
                fused: false,
            };
        }
        let plan = self.params.auto_batch(m, n, self.procs(), problems.len());
        if plan.fused && self.fusable(problems, plan.backend) {
            self.factor_batch_fused(problems, plan.backend)
        } else {
            self.factor_batch_sequential(problems, plan.backend)
        }
    }

    /// Whether `problems` can run as one fused job under `backend`:
    /// at least two problems, all the same (nonempty) shape, and the
    /// backend's own distribution constraint holds.
    fn fusable(&self, problems: &[Matrix], backend: QrBackend) -> bool {
        if problems.len() < 2 {
            return false;
        }
        let (m, n) = (problems[0].rows(), problems[0].cols());
        if n == 0 || m < n {
            return false;
        }
        if !problems.iter().all(|a| a.rows() == m && a.cols() == n) {
            return false;
        }
        match backend {
            // The shared aspect gate (m ≥ n·P ⟺ every rank of the
            // balanced layout owns ≥ n rows) — the same predicate the
            // advisor's candidate gates use, so an advised fused plan is
            // always executable.
            QrBackend::Tsqr => tall_skinny_admissible(m, n, self.procs()),
            // The Gram sum needs no local minimum height.
            QrBackend::CholQr2 => true,
            _ => false,
        }
    }

    fn factor_batch_fused(&mut self, problems: &[Matrix], backend: QrBackend) -> BatchOutput {
        let (m, n) = (problems[0].rows(), problems[0].cols());
        let problems: Vec<&Matrix> = problems.iter().collect();
        let (factors, critical) = match backend {
            QrBackend::Tsqr => tsqr_on(&mut self.exec, &problems),
            QrBackend::CholQr2 => cholqr2_on(&mut self.exec, &problems),
            other => unreachable!("fusable() only admits single-tree backends, got {other:?}"),
        };
        let outputs = factors
            .into_iter()
            .map(|factors| {
                let (q, r) = factors?;
                let rank = detected_rank(&r, rank_tolerance(m, n));
                Ok(FactorOutput {
                    backend,
                    q,
                    r,
                    perm: None,
                    detected_rank: rank,
                    critical,
                })
            })
            .collect();
        BatchOutput {
            outputs,
            critical,
            fused: true,
        }
    }

    fn factor_batch_sequential(&mut self, problems: &[Matrix], backend: QrBackend) -> BatchOutput {
        let mut outputs = Vec::with_capacity(problems.len());
        let mut critical = Clock::zero();
        for a in problems {
            let res = self.factor(a, backend);
            // A problem whose *result* is an error (CholeskyQR2
            // breakdown) still ran a full job and paid for its
            // communication — account for it, matching the fused path
            // whose shared clock inherently includes failed problems.
            critical.merge_sum(&self.exec.last_job_critical());
            outputs.push(res);
        }
        BatchOutput {
            outputs,
            critical,
            fused: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr3d_machine::CostParams;

    fn unit_params() -> FactorParams {
        FactorParams::new(CostParams::unit())
    }

    #[test]
    fn try_run_reports_poison_as_a_typed_error() {
        let mut s = Session::new(2, unit_params());
        assert!(s.try_run(|r| r.id()).is_ok());
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run(|_| -> () { panic!("poison the executor") })
        }));
        assert!(s.is_poisoned());
        // The typed branch: no catch_unwind needed to learn the
        // session needs a reset.
        assert!(matches!(s.try_run(|r| r.id()), Err(ExecutorPoisoned)));
        s.reset();
        assert!(s.try_run(|r| r.id()).is_ok());
    }

    #[test]
    fn warm_session_serves_problems_back_to_back() {
        let mut s = Session::new(4, unit_params());
        for seed in 0..4u64 {
            let a = Matrix::random(64, 8, seed);
            let out = s.factor(&a, QrBackend::Tsqr).unwrap();
            assert!(out.residual(&a) < 1e-12);
            assert!(out.orthogonality() < 1e-12);
        }
        assert_eq!(s.jobs_run(), 4, "one executor job per factorization");
    }

    #[test]
    fn fused_batch_amortizes_latency_over_sequential() {
        // The acceptance shape at test scale: fused CholeskyQR2 over
        // k = 8 same-shape problems must spend at least 4× fewer
        // critical-path messages than 8 sequential factor calls.
        let k = 8usize;
        let problems: Vec<Matrix> = (0..k as u64).map(|s| Matrix::random(128, 8, s)).collect();

        let mut s = Session::new(4, unit_params().with_kappa(100.0));
        let fused = s.factor_batch(&problems, QrBackend::CholQr2);
        assert!(fused.fused);
        let seq = {
            let mut s2 = Session::new(4, unit_params().with_kappa(100.0));
            s2.factor_batch_sequential(&problems, QrBackend::CholQr2)
        };
        for (a, out) in problems.iter().zip(&fused.outputs) {
            let out = out.as_ref().unwrap();
            assert!(out.residual(a) < 1e-12);
            assert!(out.orthogonality() < 1e-12);
        }
        assert!(
            fused.critical.msgs * 4.0 <= seq.critical.msgs,
            "fused S = {} vs sequential S = {}: expected ≥ 4× amortization",
            fused.critical.msgs,
            seq.critical.msgs
        );
    }

    #[test]
    fn fused_tsqr_batch_verifies() {
        let problems: Vec<Matrix> = (0..5u64).map(|s| Matrix::random(96, 6, s)).collect();
        let mut s = Session::new(4, unit_params());
        let batch = s.factor_batch(&problems, QrBackend::Tsqr);
        assert!(batch.fused);
        for (a, out) in problems.iter().zip(&batch.outputs) {
            let out = out.as_ref().unwrap();
            assert!(out.residual(a) < 1e-12);
            assert!(out.orthogonality() < 1e-12);
        }
    }

    #[test]
    fn mixed_shapes_fall_back_to_sequential() {
        let problems = vec![
            Matrix::random(64, 8, 1),
            Matrix::random(96, 6, 2),
            Matrix::random(64, 8, 3),
        ];
        let mut s = Session::new(4, unit_params());
        let batch = s.factor_batch(&problems, QrBackend::Tsqr);
        assert!(!batch.fused, "mixed shapes cannot fuse");
        for (a, out) in problems.iter().zip(&batch.outputs) {
            assert!(out.as_ref().unwrap().residual(a) < 1e-12);
        }
        // And the auto path still serves them (per-problem dispatch).
        let batch = s.factor_batch_auto(&problems);
        assert!(!batch.fused);
        assert_eq!(batch.outputs.len(), 3);
    }

    #[test]
    fn auto_batch_fuses_well_conditioned_tall_skinny_on_cluster() {
        let params = FactorParams::new(CostParams::cluster()).with_kappa(100.0);
        let mut s = Session::new(4, params);
        let problems: Vec<Matrix> = (0..8u64).map(|s| Matrix::random(256, 8, s)).collect();
        let batch = s.factor_batch_auto(&problems);
        assert!(batch.fused, "cluster + κ asserted ⇒ fused Gram path");
        for out in &batch.outputs {
            let out = out.as_ref().unwrap();
            assert!(
                matches!(out.backend, QrBackend::CholQr2),
                "expected CholeskyQR2, got {:?}",
                out.backend
            );
        }
    }

    #[test]
    fn fused_batch_surfaces_per_problem_breakdown() {
        let m = 64;
        let good = Matrix::random(m, 4, 7);
        let mut bad = Matrix::random(m, 4, 8);
        for i in 0..m {
            bad[(i, 3)] = bad[(i, 0)];
        }
        let problems = vec![good.clone(), bad, good.clone()];
        let mut s = Session::new(4, unit_params());
        let batch = s.factor_batch(&problems, QrBackend::CholQr2);
        assert!(batch.fused);
        assert!(batch.outputs[0].is_ok());
        assert!(matches!(
            batch.outputs[1],
            Err(FactorError::CholeskyBreakdown(_))
        ));
        assert!(batch.outputs[2].is_ok());
    }

    #[test]
    fn batch_results_are_deterministic() {
        let problems: Vec<Matrix> = (0..4u64).map(|s| Matrix::random(64, 8, s)).collect();
        let run = || {
            let mut s = Session::new(4, unit_params());
            let batch = s.factor_batch(&problems, QrBackend::Tsqr);
            batch
                .outputs
                .into_iter()
                .map(|o| o.unwrap().r)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut s = Session::new(2, unit_params());
        let batch = s.factor_batch(&[], QrBackend::Tsqr);
        assert!(batch.outputs.is_empty());
        assert!(!batch.fused);
        assert_eq!(batch.critical.msgs, 0.0);
        let batch = s.factor_batch_auto(&[]);
        assert!(batch.outputs.is_empty());
    }

    #[test]
    fn shape_violations_fail_fast_without_poisoning() {
        // m = 64 < n·P = 128: not fusable AND not runnable sequentially.
        // The contract check must fire host-side, leaving the warm pool
        // serviceable — not inside a job, which would poison it.
        let mut s = Session::new(16, unit_params());
        let problems: Vec<Matrix> = (0..4u64).map(|sd| Matrix::random(64, 8, sd)).collect();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.factor_batch(&problems, QrBackend::Tsqr)
        }));
        assert!(res.is_err(), "m < n·P must be rejected");
        assert!(!s.is_poisoned(), "rejection must not wedge the pool");
        let a = Matrix::random(256, 8, 9);
        let out = s.factor(&a, QrBackend::Tsqr).unwrap();
        assert!(out.residual(&a) < 1e-12, "session keeps serving");
    }

    #[test]
    fn poisoned_session_recovers_via_reset() {
        let mut s = Session::new(2, unit_params());
        let a = Matrix::random(32, 4, 5);
        s.factor(&a, QrBackend::Tsqr).unwrap();
        // A panicking custom job poisons the session…
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run(|_rank| panic!("user job bug"));
        }));
        assert!(res.is_err());
        assert!(s.is_poisoned());
        // …and reset() brings it back into service.
        s.reset();
        assert!(!s.is_poisoned());
        let out = s.factor(&a, QrBackend::Tsqr).unwrap();
        assert!(out.residual(&a) < 1e-12);
        assert_eq!(s.jobs_run(), 1, "counter restarts with the fresh pool");
    }

    #[test]
    fn custom_jobs_share_the_warm_executor() {
        let mut s = Session::new(4, unit_params());
        let a = Matrix::random(64, 8, 9);
        let out = s.factor(&a, QrBackend::Tsqr).unwrap();
        // A follow-up custom SPMD job on the same warm ranks: norm of R's
        // diagonal, broadcast from the root.
        let r = out.r.clone();
        let diag: f64 = (0..r.cols()).map(|i| r[(i, i)] * r[(i, i)]).sum();
        let reduced = s.run(|rank| {
            let w = rank.world();
            qr3d_collectives::auto::all_reduce(rank, &w, vec![diag])[0]
        });
        assert!(reduced
            .results
            .iter()
            .all(|&v| (v - 4.0 * diag).abs() < 1e-9));
        assert_eq!(s.jobs_run(), 2);
    }
}
