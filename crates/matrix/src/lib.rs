//! # qr3d-matrix — dense matrix kernels and data layouts
//!
//! The sequential linear-algebra substrate for the SPAA'18 QR reproduction:
//! everything (Sca)LAPACK/PBLAS would provide on one node, built from
//! scratch:
//!
//! * [`Matrix`] — dense row-major `f64` matrices with the block operations
//!   the paper's algorithms need (submatrices, stacking, norms).
//! * [`gemm`] — general matrix multiply (all transpose combinations), the
//!   workhorse of the qr-eg inductive case.
//! * [`qr`] — recursive Householder QR (`geqrt`) producing the compact
//!   representation of Section 2.3: unit-lower-trapezoidal basis `V`,
//!   upper-triangular kernel `T` (compact WY, \[SVL89\]/\[Pug92\]), and `R`.
//! * [`pivot`] — column-pivoted rank-revealing QR (`geqp3`): greedy
//!   norm-pivoting with downdates, a non-increasing `R` diagonal, and
//!   numerical-rank detection.
//! * [`tri`] — triangular solves and the sign-altered LU factorization of
//!   [BDG+15, Lemma 6.2] used by TSQR's Householder reconstruction.
//! * [`simd`] — explicit AVX-512/AVX2/scalar arithmetic primitives
//!   behind runtime dispatch (`QR3D_SIMD`), bitwise-identical at every
//!   level.
//! * [`affinity`] — best-effort pinning of the calling thread to a core,
//!   for measurements that must keep two threads apart.
//! * [`partition`] — balanced partitions ("parts differ in size by at most
//!   one", Section 4).
//! * [`layout`] — distributed data layouts: row-cyclic (3D-CAQR-EG input),
//!   block-row (TSQR/1D-CAQR-EG input), and 2D block-cyclic (the `2d-house`
//!   baseline of Section 8.1).
//! * [`flops`] — arithmetic-cost formulas used to charge the simulated
//!   machine's clocks.

#![deny(unsafe_code)]

#[allow(unsafe_code)] // the `sched_setaffinity` syscall
pub mod affinity;
pub mod dense;
pub mod flops;
pub mod gemm;
pub mod layout;
#[doc(hidden)]
pub mod par;
pub mod partition;
pub mod pivot;
pub mod qr;
pub mod scratch;
#[allow(unsafe_code)] // `std::arch` intrinsics behind safe wrappers
pub mod simd;
pub mod tiles;
pub mod tri;

pub use dense::{MatMut, MatRef, Matrix};

/// Glob-import surface.
pub mod prelude {
    pub use crate::dense::Matrix;
    pub use crate::gemm::{gemm, gram, matmul, matmul_nt, matmul_tn, syrk, Trans};
    pub use crate::layout::{BlockCyclic2d, BlockRow, RowCyclic};
    pub use crate::partition::{balanced_range, balanced_ranges, balanced_sizes, part_of};
    pub use crate::pivot::{
        detected_rank, geqp3, geqp3_ws, is_permutation, permute_cols, rank_tolerance, PivotedQr,
    };
    pub use crate::qr::{
        apply_block_reflector, apply_block_reflector_ws, full_q, geqrt, geqrt_reference, geqrt_ws,
        q_times, q_times_padded_into, q_times_padded_ws, qt_times, random_with_condition, thin_q,
        thin_q_blocks, thin_q_ws, Reflector,
    };
    pub use crate::scratch::{LocalArena, ScratchArena};
    pub use crate::simd::SimdLevel;
    pub use crate::tiles::{
        geqrt_out_of_core, geqrt_out_of_core_ws, MemStore, OocQr, SpillStore, TileKey, TileStore,
        TiledMatrix,
    };
    pub use crate::tri::{
        lu_sign, potrf, trsm, trsm_right_in_place, trsm_right_into, NotPositiveDefinite, Side, Uplo,
    };
}
