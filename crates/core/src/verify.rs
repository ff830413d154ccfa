//! Verification metrics and factor assembly.
//!
//! These helpers run *outside* the simulated machine (on gathered full
//! matrices), so verification never pollutes the measured communication
//! costs.

use qr3d_matrix::gemm::matmul_tn;
pub use qr3d_matrix::pivot::detected_rank;
use qr3d_matrix::qr::{q_times, thin_q};
use qr3d_matrix::Matrix;

use crate::caqr3d::QrFactorsCyclic;
use crate::shifted::ShiftedRowCyclic;
use crate::tsqr::QrFactors;

/// An assembled (undistributed) QR factorization in Householder
/// representation: `A = (I − V·T·Vᵀ)·[R; 0]`.
#[derive(Debug, Clone)]
pub struct Factorization {
    /// `m × n` unit-lower-trapezoidal basis.
    pub v: Matrix,
    /// `n × n` upper-triangular kernel.
    pub t: Matrix,
    /// `n × n` upper-triangular R-factor.
    pub r: Matrix,
}

impl Factorization {
    /// Relative residual `‖A − Q[R; 0]‖_F / ‖A‖_F`.
    pub fn residual(&self, a: &Matrix) -> f64 {
        factorization_error(a, &self.v, &self.t, &self.r)
    }

    /// The R-diagonal-decay rank diagnostic at the default tolerance
    /// (see [`detected_rank`]): plain Householder factors *anything* —
    /// this is how a caller notices the input was rank-deficient instead
    /// of silently trusting an `R` whose trailing diagonal is roundoff.
    pub fn detected_rank(&self) -> usize {
        detected_rank(
            &self.r,
            qr3d_matrix::pivot::rank_tolerance(self.v.rows(), self.v.cols()),
        )
    }

    /// Orthogonality defect `‖Q₁ᵀQ₁ − I‖_max` of the thin Q-factor.
    pub fn orthogonality(&self) -> f64 {
        orthogonality_error(&self.v, &self.t)
    }

    /// True when `V` is unit lower trapezoidal and `T`, `R` are upper
    /// triangular (within `tol`).
    pub fn structure_ok(&self, tol: f64) -> bool {
        self.v.is_unit_lower_trapezoidal(tol)
            && self.t.is_upper_triangular(tol)
            && self.r.is_upper_triangular(tol)
    }
}

/// Relative residual `‖A − (I − V·T·Vᵀ)[R; 0]‖_F / ‖A‖_F`.
pub fn factorization_error(a: &Matrix, v: &Matrix, t: &Matrix, r: &Matrix) -> f64 {
    let (m, n) = (a.rows(), a.cols());
    let mut rn = Matrix::zeros(m, n);
    rn.set_submatrix(0, 0, r);
    let qr = q_times(v, t, &rn);
    qr.sub(a).frobenius_norm() / a.frobenius_norm().max(f64::MIN_POSITIVE)
}

/// Orthogonality defect `‖Q₁ᵀQ₁ − I‖_max` of the thin Q-factor built from
/// `(V, T)`.
pub fn orthogonality_error(v: &Matrix, t: &Matrix) -> f64 {
    let n = v.cols();
    let q1 = thin_q(v, t);
    matmul_tn(&q1, &q1).sub(&Matrix::identity(n)).max_abs()
}

/// `‖AᵀA − RᵀR‖_F / ‖AᵀA‖_F` — the R-factor identity used to validate the
/// 2D baselines (whose internal row permutations make a monolithic `(V,T)`
/// unavailable; for full-column-rank `A`, `RᵀR = AᵀA` with `R` upper
/// triangular already pins `R` up to column signs, and `Q = A·R⁻¹` is then
/// orthonormal automatically).
pub fn r_gram_error(a: &Matrix, r: &Matrix) -> f64 {
    let ata = matmul_tn(a, a);
    let rtr = matmul_tn(r, r);
    rtr.sub(&ata).frobenius_norm() / ata.frobenius_norm().max(f64::MIN_POSITIVE)
}

/// Reconstruct the compact-WY kernel `T` from the basis `V` alone, via the
/// Section 2.3 identity `T⁻¹ + T⁻ᵀ = VᵀV`, i.e.
/// `T = (striu(VᵀV) + diag(VᵀV)/2)⁻¹`. Used to verify algorithms (like
/// `1d-house`) that never materialize a full-size `T`.
pub fn t_from_v(v: &Matrix) -> Matrix {
    use qr3d_matrix::tri::{trsm, Side, Uplo};
    let n = v.cols();
    let g = matmul_tn(v, v);
    let tinv = Matrix::from_fn(n, n, |i, j| {
        if j > i {
            g[(i, j)]
        } else if j == i {
            g[(i, i)] / 2.0
        } else {
            0.0
        }
    });
    trsm(
        Side::Left,
        Uplo::Upper,
        false,
        false,
        &tinv,
        &Matrix::identity(n),
    )
}

/// Assemble per-rank [`QrFactors`] from a block-row distribution
/// (`counts[r]` rows on rank `r`, concatenated in rank order) into a full
/// [`Factorization`]. `T`/`R` are taken from rank 0.
pub fn assemble_block_row(results: &[QrFactors], counts: &[usize]) -> Factorization {
    assert_eq!(results.len(), counts.len());
    let n = results[0].v_local.cols();
    let m: usize = counts.iter().sum();
    let mut v = Matrix::zeros(m, n);
    let mut off = 0;
    for (fac, &c) in results.iter().zip(counts) {
        assert_eq!(fac.v_local.rows(), c, "local V row count mismatch");
        v.set_submatrix(off, 0, &fac.v_local);
        off += c;
    }
    Factorization {
        v,
        t: results[0].t.clone().expect("rank 0 holds T"),
        r: results[0].r.clone().expect("rank 0 holds R"),
    }
}

/// Assemble per-rank [`QrFactorsCyclic`] (the 3D-CAQR-EG output: `V`
/// row-cyclic like `A`, `T`/`R` row-cyclic like `A`'s top `n × n` block)
/// into a full [`Factorization`].
pub fn assemble_factorization(
    results: &[QrFactorsCyclic],
    m: usize,
    n: usize,
    p: usize,
) -> Factorization {
    assert_eq!(results.len(), p);
    let v_lay = ShiftedRowCyclic::new(m, n, p, 0);
    let t_lay = ShiftedRowCyclic::new(n, n, p, 0);
    Factorization {
        v: v_lay.gather_to_full(results.iter().map(|f| &f.v_local)),
        t: t_lay.gather_to_full(results.iter().map(|f| &f.t_local)),
        r: t_lay.gather_to_full(results.iter().map(|f| &f.r_local)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr3d_matrix::qr::geqrt;

    #[test]
    fn exact_factorization_has_zero_errors() {
        let a = Matrix::random(12, 4, 1);
        let f = geqrt(&a);
        assert!(factorization_error(&a, &f.v, &f.t, &f.r) < 1e-13);
        assert!(orthogonality_error(&f.v, &f.t) < 1e-13);
        assert!(r_gram_error(&a, &f.r) < 1e-13);
        let fac = Factorization {
            v: f.v,
            t: f.t,
            r: f.r,
        };
        assert!(fac.structure_ok(1e-12));
        assert!(fac.residual(&a) < 1e-13);
        assert!(fac.orthogonality() < 1e-13);
    }

    #[test]
    fn t_from_v_matches_geqrt() {
        let a = Matrix::random(15, 5, 17);
        let f = geqrt(&a);
        let t = t_from_v(&f.v);
        let err = t.sub(&f.t).max_abs();
        assert!(err < 1e-11, "reconstructed T differs: {err}");
    }

    #[test]
    fn rank_deficiency_is_surfaced_not_silent() {
        // The ROADMAP hazard: plain Householder on a rank-deficient
        // input happily factors — the decay diagnostic is what tells
        // the caller. Two distinct columns plus their copies: rank 2.
        let c = Matrix::random(20, 2, 5);
        let a = c.hstack(&c);
        let f = geqrt(&a);
        let fac = Factorization {
            v: f.v,
            t: f.t,
            r: f.r,
        };
        assert!(fac.residual(&a) < 1e-12, "still a valid factorization");
        assert_eq!(fac.detected_rank(), 2, "…but the diagnostic fires");
        // Full-rank input: the diagnostic stays quiet.
        let a = Matrix::random(20, 4, 6);
        let f = geqrt(&a);
        let fac = Factorization {
            v: f.v,
            t: f.t,
            r: f.r,
        };
        assert_eq!(fac.detected_rank(), 4);
    }

    #[test]
    fn corrupted_r_is_detected() {
        let a = Matrix::random(10, 3, 2);
        let f = geqrt(&a);
        let mut bad_r = f.r.clone();
        bad_r[(0, 1)] += 0.5;
        assert!(factorization_error(&a, &f.v, &f.t, &bad_r) > 1e-3);
        assert!(r_gram_error(&a, &bad_r) > 1e-3);
    }

    #[test]
    fn corrupted_v_breaks_orthogonality() {
        let a = Matrix::random(10, 3, 3);
        let f = geqrt(&a);
        let mut bad_v = f.v.clone();
        bad_v[(5, 1)] += 0.3;
        assert!(orthogonality_error(&bad_v, &f.t) > 1e-3);
    }

    #[test]
    fn assemble_block_row_roundtrip() {
        let a = Matrix::random(9, 3, 4);
        let f = geqrt(&a);
        // Chop V into uneven block-rows and reassemble.
        let counts = [4usize, 0, 5];
        let mut parts = Vec::new();
        let mut off = 0;
        for (i, &c) in counts.iter().enumerate() {
            parts.push(QrFactors {
                v_local: f.v.submatrix(off, off + c, 0, 3),
                t: (i == 0).then(|| f.t.clone()),
                r: (i == 0).then(|| f.r.clone()),
            });
            off += c;
        }
        let fac = assemble_block_row(&parts, &counts);
        assert_eq!(fac.v, f.v);
        assert!(fac.residual(&a) < 1e-13);
    }
}
