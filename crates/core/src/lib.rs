//! # qr3d-core — the SPAA'18 QR algorithms
//!
//! The paper's contribution and its Section 8 comparison baselines, all
//! running on the simulated distributed-memory machine:
//!
//! * [`tsqr`] — tall-skinny QR with Householder reconstruction
//!   (Section 5, Appendix C; the [BDG+15] variant).
//! * [`caqr1d`] — **1D-CAQR-EG** (Section 6, Theorem 2): the qr-eg
//!   recursion with a tsqr base case and 1D dmms, trading a logarithmic
//!   bandwidth factor for latency via `b = Θ(n/(log P)^ε)`.
//! * [`caqr3d`] — **3D-CAQR-EG** (Section 7, Theorem 1): the qr-eg
//!   recursion with a 1D-CAQR-EG base case (with the Section 7.1 layout
//!   conversion) and 3D dmms, navigating the bandwidth/latency tradeoff
//!   via `b = Θ(n/(nP/m)^δ)`, `b* = Θ(b/(log P)^ε)`.
//! * [`house1d`] / [`house2d`] — the un/blocked distributed Householder
//!   baselines of Section 8.1.
//! * [`caqr2d`] — the 2D CAQR baseline \[DGHL12\] with the [BDG+15]
//!   improvements (tsqr panels on a 2D grid).
//! * [`panel`] — the shared distributed Householder panel factorization.
//! * [`apply`] — `Q·C` and `Qᵀ·C` from the 1D family's factors, for a
//!   row-distributed `C` (least squares, orthogonalization).
//! * [`params`] — the paper's parameter choices (Equations (10), (12)).
//! * [`verify`] — factorization/orthogonality error metrics and
//!   assembly of distributed factors.
//! * [`shifted`] — the shifted row-cyclic layout 3D-CAQR-EG's recursion
//!   induces.
//! * [`cholqr`] — CholeskyQR2 (Hutter & Solomonik): the Gram-based
//!   tall-skinny backend, `W = O(n²)` for `κ(A) ≲ 1/√ε`.
//! * [`tsqr_ft`] — fault-tolerant TSQR: checksum-coded spares let the
//!   reduction tree recover from a rank that dies mid-factorization.
//! * [`rrqr`] — the rank-revealing backends: distributed column-pivoted
//!   QR (exact greedy pivoting) and randomized RRQR (Gaussian-sketch
//!   pivoting at `O(log P)` latency), both returning `A·P = Q·R` with a
//!   detected numerical rank.
//! * [`backend`] — the unified [`backend::factor`] entry point
//!   dispatching over all of the above, with cost-model-advised
//!   selection ([`backend::FactorParams::auto`]).
//! * [`session`] — the warm serving layer: a persistent executor plus
//!   [`session::Session::factor_batch`], which fuses same-shape
//!   tall-skinny batches into shared reduction trees
//!   (`S_batch ≈ S_single`).
//! * [`service`] — the multi-tenant layer above sessions:
//!   [`service::QrService`] pools warm executors behind one bounded
//!   staging structure that turns concurrent same-shape requests into
//!   fused batches.
//! * [`updating`] — streaming/updating QR: [`updating::UpdatingQr`]
//!   absorbs appended row blocks through the warm executor with a
//!   carry-stack of logarithmically merged `R`s, bitwise-equivalent to
//!   a one-shot TSQR over the concatenated matrix.

#![forbid(unsafe_code)]

pub mod apply;
pub mod backend;
pub mod caqr1d;
pub mod caqr2d;
pub mod caqr3d;
pub mod cholqr;
pub mod house1d;
pub mod house2d;
pub mod panel;
pub mod params;
pub mod rrqr;
pub mod service;
pub mod session;
pub mod shifted;
pub(crate) mod tree;
pub mod tsqr;
pub mod tsqr_ft;
pub mod updating;
pub mod verify;

pub use tsqr::QrFactors;

/// Glob-import surface.
pub mod prelude {
    pub use crate::apply::{apply_q_1d, apply_qt_1d};
    pub use crate::backend::{
        factor, factor_auto, factor_on, BatchPlan, FactorError, FactorOutput, FactorParams,
        QrBackend,
    };
    pub use crate::caqr1d::{caqr1d_factor, Caqr1dConfig};
    pub use crate::caqr2d::{caqr2d_block, caqr2d_factor};
    pub use crate::caqr3d::{caqr3d_factor, Caqr3dConfig, QrFactorsCyclic};
    pub use crate::cholqr::{
        cholqr2_factor, cholqr2_factor_batch, cholqr2_factor_into, cholqr_pass, cholqr_pass_batch,
        CholQrError, CholQrFactors,
    };
    pub use crate::house1d::{house1d_factor, House1dConfig};
    pub use crate::house2d::{house2d_factor, Grid2Config};
    pub use crate::params::{caqr1d_block, caqr3d_blocks};
    pub use crate::rrqr::{pivot_qr_factor, rrqr_factor, RankRevealedFactors, RrqrConfig};
    pub use crate::service::{
        Admission, JobHandle, JobResult, JobStats, QrService, RetryPolicy, ServiceConfig,
        ServiceError, ServiceFull, ServiceStats,
    };
    pub use crate::session::{BatchOutput, Session};
    pub use crate::shifted::ShiftedRowCyclic;
    pub use crate::tsqr::{tsqr_factor, tsqr_factor_batch, QrFactors};
    pub use crate::tsqr_ft::{tsqr_factor_ft, FtConfig, FtResult};
    pub use crate::updating::UpdatingQr;
    pub use crate::verify::{
        assemble_factorization, detected_rank, factorization_error, orthogonality_error,
        r_gram_error, Factorization,
    };
    pub use qr3d_cost::advisor::RankHint;
}
