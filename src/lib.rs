//! # qr3d — communication-avoiding 1D/3D parallel QR decomposition
//!
//! A reproduction of **"A 3D Parallel Algorithm for QR Decomposition"**
//! (Ballard, Demmel, Grigori, Jacquelin, Knight — SPAA 2018) as a Rust
//! workspace. This facade crate re-exports the workspace members:
//!
//! * [`machine`] — simulated distributed-memory machine (α-β-γ model,
//!   critical-path cost clocks); the substrate replacing MPI.
//! * [`matrix`] — dense matrix kernels (gemm, Householder QR, compact WY),
//!   balanced partitions and data layouts.
//! * [`collectives`] — the eight collectives of the paper's Table 1.
//! * [`mm`] — parallel matrix multiplication: local mm, 1D dmm (Lemma 3),
//!   3D dmm (Lemma 4), 2D SUMMA reference, and layout redistribution.
//! * [`core`] — the paper's algorithms: TSQR, 1D-CAQR-EG (Theorem 2),
//!   3D-CAQR-EG (Theorem 1), the Householder/CAQR baselines of
//!   Section 8, CholeskyQR2, and the unified backend dispatcher.
//! * [`cost`] — the analytic cost model: Table 1–3 formulas, the Eq. (11)
//!   and Eq. (13) recurrences, the Section 8.3 lower bounds, and the
//!   condition-number-guarded advisor.
//!
//! ## Quickstart
//!
//! ```
//! use qr3d::prelude::*;
//!
//! // Factor a 256×32 matrix on 8 simulated processors with 3D-CAQR-EG.
//! let p = 8;
//! let (m, n) = (256, 32);
//! let machine = Machine::new(p, CostParams::cluster());
//! let a = Matrix::random(m, n, 42);
//! let cfg = Caqr3dConfig::auto(m, n, p, 0.5);
//! let layout = ShiftedRowCyclic::new(m, n, p, 0);
//! let out = machine.run(|rank| {
//!     let world = rank.world();
//!     let local = layout.scatter_from_full(&a, rank.id());
//!     caqr3d_factor(rank, &world, &local, m, n, &cfg)
//! });
//! let qr = assemble_factorization(&out.results, m, n, p);
//! assert!(qr.residual(&a) < 1e-11);
//! assert!(qr.orthogonality() < 1e-11);
//! println!(
//!     "critical path: {:.0} flops, {:.0} words, {:.0} messages",
//!     out.stats.critical().flops,
//!     out.stats.critical().words,
//!     out.stats.critical().msgs,
//! );
//! ```
//!
//! ## Cost-advised dispatch
//!
//! Or let the cost model choose the algorithm for the machine — here a
//! well-conditioned tall-skinny input on a latency-dominated cluster
//! dispatches to CholeskyQR2 (the κ assertion unlocks the Gram path):
//!
//! ```
//! use qr3d::prelude::*;
//!
//! let a = random_with_condition(1024, 16, 1e3, 42); // κ(A) ≈ 1e3
//! let params = FactorParams::new(CostParams::cluster()).with_kappa(1e3);
//! let out = factor_auto(&a, 8, &params).unwrap();
//! assert!(matches!(out.backend, QrBackend::CholQr2));
//! assert!(out.residual(&a) < 1e-12);
//! assert!(out.orthogonality() < 1e-13);
//! ```
//!
//! ## Serving many problems
//!
//! A [`core::session::Session`] holds a **warm executor** (no per-call
//! thread spawn) and fuses same-shape tall-skinny batches so `k`
//! problems share one reduction tree per communication phase
//! (`S_batch ≈ S_single`):
//!
//! ```
//! use qr3d::prelude::*;
//!
//! let params = FactorParams::new(CostParams::cluster()).with_kappa(1e3);
//! let mut session = Session::new(8, params);
//! let problems: Vec<Matrix> = (0..8).map(|s| Matrix::random(512, 16, s)).collect();
//! let batch = session.factor_batch_auto(&problems);
//! assert!(batch.fused, "the advisor fuses this batch");
//! for (a, out) in problems.iter().zip(&batch.outputs) {
//!     assert!(out.as_ref().unwrap().residual(a) < 1e-12);
//! }
//! ```

#![forbid(unsafe_code)]

pub use qr3d_collectives as collectives;
pub use qr3d_core as core;
pub use qr3d_cost as cost;
pub use qr3d_machine as machine;
pub use qr3d_matrix as matrix;
pub use qr3d_mm as mm;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use qr3d_collectives::prelude::*;
    pub use qr3d_core::prelude::*;
    pub use qr3d_cost::prelude::*;
    pub use qr3d_machine::{
        Clock, Comm, CostParams, Endpoint, Executor, Machine, MpscTransport, Payload, Rank,
        RingTransport, RunOutput, RunStats, Totals, Transport, Workspace, RECV_TIMEOUT_ENV,
        TRANSPORT_ENV,
    };
    pub use qr3d_matrix::prelude::*;
    pub use qr3d_mm::prelude::*;
}
