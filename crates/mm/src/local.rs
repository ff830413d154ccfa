//! Local multiply with cost accounting (the paper's `mm`, Lemma 2).

use qr3d_machine::Rank;
use qr3d_matrix::gemm::{gemm, Trans};
use qr3d_matrix::{flops, Matrix};

/// `C = op(A)·op(B)` on this rank, charging `2·I·J·K` flops to its clock
/// (Lemma 2: "IJK multiplications and IJ(K−1) additions; no communication
/// is necessary").
pub fn mm_local(rank: &mut Rank, ta: Trans, tb: Trans, a: &Matrix, b: &Matrix) -> Matrix {
    let i = match ta {
        Trans::No => a.rows(),
        Trans::Yes => a.cols(),
    };
    let j = match tb {
        Trans::No => b.cols(),
        Trans::Yes => b.rows(),
    };
    let mut c = Matrix::zeros(i, j);
    mm_local_into(rank, ta, tb, a, b, &mut c);
    c
}

/// [`mm_local`] into a caller's `c` of the product's shape: `c` is
/// overwritten (`β = 0`), so a zeroed `c` yields `mm_local`'s bits.
pub fn mm_local_into(
    rank: &mut Rank,
    ta: Trans,
    tb: Trans,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
) {
    let k = match ta {
        Trans::No => a.cols(),
        Trans::Yes => a.rows(),
    };
    gemm(ta, tb, 1.0, a, b, 0.0, c);
    rank.charge_flops(flops::gemm(c.rows(), c.cols(), k));
}

/// `C += op(A)·op(B)` on this rank with the same cost accounting.
pub fn mm_local_acc(
    rank: &mut Rank,
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
) {
    let (i, k) = match ta {
        Trans::No => (a.rows(), a.cols()),
        Trans::Yes => (a.cols(), a.rows()),
    };
    let j = match tb {
        Trans::No => b.cols(),
        Trans::Yes => b.rows(),
    };
    gemm(ta, tb, alpha, a, b, 1.0, c);
    rank.charge_flops(flops::gemm(i, j, k));
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr3d_machine::{CostParams, Machine};
    use qr3d_matrix::gemm::matmul;

    #[test]
    fn local_mm_computes_and_charges() {
        let m = Machine::new(1, CostParams::unit());
        let a = Matrix::random(4, 6, 1);
        let b = Matrix::random(6, 3, 2);
        let expect = matmul(&a, &b);
        let out = m.run(|rank| mm_local(rank, Trans::No, Trans::No, &a, &b));
        assert_eq!(out.results[0], expect);
        assert_eq!(out.stats.critical().flops, 2.0 * 4.0 * 3.0 * 6.0);
        assert_eq!(out.stats.critical().msgs, 0.0);
    }

    #[test]
    fn local_mm_transposed_charges_effective_dims() {
        let m = Machine::new(1, CostParams::unit());
        let a = Matrix::random(6, 4, 3); // used as Aᵀ: 4×6
        let b = Matrix::random(6, 3, 4);
        let out = m.run(|rank| mm_local(rank, Trans::Yes, Trans::No, &a, &b));
        assert_eq!(out.results[0], matmul(&a.transpose(), &b));
        assert_eq!(out.stats.critical().flops, 2.0 * 4.0 * 3.0 * 6.0);
    }

    #[test]
    fn accumulate_adds_into_c() {
        let m = Machine::new(1, CostParams::unit());
        let a = Matrix::random(3, 3, 5);
        let b = Matrix::random(3, 3, 6);
        let out = m.run(|rank| {
            let mut c = Matrix::identity(3);
            mm_local_acc(rank, Trans::No, Trans::No, -1.0, &a, &b, &mut c);
            c
        });
        let mut expect = Matrix::identity(3);
        expect.sub_assign(&matmul(&a, &b));
        assert!(out.results[0].sub(&expect).max_abs() < 1e-14);
    }
}
