//! # qr3d-mm — parallel matrix multiplication (paper Section 4, Appendix B)
//!
//! The communication-efficient matmul subroutines the QR algorithms build
//! on:
//!
//! * [`local`] — `mm` (Lemma 2): local multiply with the machine's flop
//!   clock charged.
//! * [`dmm1d`] — `1D dmm` (Lemma 3): both cases — the *reduce* case
//!   (`K = max`, operands distributed along the contraction dimension,
//!   result reduced to a root) and the *broadcast* case (`I = max`,
//!   left operand and result row-distributed, right operand broadcast
//!   from a root). Used by 1D-CAQR-EG.
//! * [`dmm3d`] — `3D dmm` (Lemma 4): operands on a `Q × R × S` processor
//!   grid in brick layouts; all-gathers along grid fibers, local `mm`s,
//!   reduce-scatters. Bandwidth `O((IJK/P)^{2/3})` — the key to
//!   3D-CAQR-EG's bandwidth savings.
//! * [`summa`] — a 2D SUMMA reference implementation (not in the paper's
//!   algorithms; used by the benchmarks to show the 3D/2D bandwidth
//!   crossover).
//! * [`brick`] — the brick data layouts of Appendix B.1 and the
//!   [`brick::DistLayout`] abstraction shared by all distributed formats.
//! * [`redist`] — general layout-to-layout redistribution via two-phase
//!   all-to-all ("we perform an all-to-all before and after the dmm
//!   invocation", Section 7.2).

#![forbid(unsafe_code)]

pub mod brick;
pub mod dmm1d;
pub mod dmm3d;
pub mod local;
pub mod redist;
pub mod summa;

/// Glob-import surface.
pub mod prelude {
    pub use crate::brick::{BrickA, BrickB, BrickC, DistLayout, RowCyclicDist, TransposedDist};
    pub use crate::dmm1d::{dmm1d_broadcast, dmm1d_reduce};
    pub use crate::dmm3d::{dmm3d, dmm3d_redistributed, Grid3};
    pub use crate::local::mm_local;
    pub use crate::redist::redistribute;
    pub use crate::summa::{summa2d, Grid2};
}
