//! Distributed application of a factored Q to row-distributed matrices.
//!
//! Given the 1D-family output `(V, T, R)` (V row-distributed, T on the
//! root), computes `Q·C` or `Qᵀ·C` for a conformally row-distributed `C`
//! using the same Lemma 3 pattern as the qr-eg inductive case:
//! `M₁ = VᵀC` (1D dmm, reduce), `M₂ = T'·M₁` (root-local), `C − V·M₂`
//! (1D dmm, broadcast). This is the building block downstream consumers
//! need (least-squares, orthogonalization).
//!
//! All local arithmetic here flows through `mm_local`, i.e. the blocked
//! `gemm` microkernel with per-rank pack scratch — the apply path has no
//! unblocked hot loop of its own.

use qr3d_collectives::auto::{broadcast, reduce};
use qr3d_machine::{Comm, Rank};
use qr3d_matrix::gemm::Trans;
use qr3d_matrix::{flops, Matrix};
use qr3d_mm::local::mm_local;

use crate::tsqr::QrFactors;

/// Apply `Qᵀ` to a row-distributed matrix: returns this rank's rows of
/// `QᵀC = C − V·(Tᵀ·(VᵀC))`. `factors.t` must be present on local rank 0.
pub fn apply_qt_1d(rank: &mut Rank, comm: &Comm, factors: &QrFactors, c_local: &Matrix) -> Matrix {
    apply_1d(rank, comm, factors, c_local, true)
}

/// Apply `Q` to a row-distributed matrix: returns this rank's rows of
/// `QC = C − V·(T·(VᵀC))`.
pub fn apply_q_1d(rank: &mut Rank, comm: &Comm, factors: &QrFactors, c_local: &Matrix) -> Matrix {
    apply_1d(rank, comm, factors, c_local, false)
}

fn apply_1d(
    rank: &mut Rank,
    comm: &Comm,
    factors: &QrFactors,
    c_local: &Matrix,
    transpose: bool,
) -> Matrix {
    let v = &factors.v_local;
    assert_eq!(
        v.rows(),
        c_local.rows(),
        "apply: C must share V's row distribution"
    );
    let (n, j) = (v.cols(), c_local.cols());
    // An empty basis or an empty C sits out the communication entirely:
    // the apply is the identity.
    if n == 0 || j == 0 {
        return c_local.clone();
    }

    // ---- M₁ = VᵀC, reduced to the root. ----
    let m1 = mm_local(rank, Trans::Yes, Trans::No, v, c_local);
    let reduced = reduce(rank, comm, 0, m1.into_vec());

    // ---- Root: M₂ = T'·M₁, broadcast back. ----
    let m2 = reduced.map(|m1| {
        let m1 = Matrix::from_vec(n, j, m1);
        let t = factors.t.as_ref().expect("root holds T");
        let tt = if transpose { Trans::Yes } else { Trans::No };
        mm_local(rank, tt, Trans::No, t, &m1).into_vec()
    });
    let m2 = broadcast(rank, comm, 0, m2, n * j);

    // ---- C − V·M₂, rows staying local. ----
    let vm2 = mm_local(
        rank,
        Trans::No,
        Trans::No,
        v,
        &Matrix::from_slice(n, j, &m2),
    );
    let mut out = c_local.clone();
    out.sub_assign(&vm2);
    rank.charge_flops(flops::matrix_add(out.rows(), j));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caqr1d::{caqr1d_factor, Caqr1dConfig};
    use crate::tsqr::tsqr_factor;
    use crate::verify::assemble_block_row;
    use qr3d_machine::{CostParams, Machine};
    use qr3d_matrix::layout::BlockRow;
    use qr3d_matrix::qr::qt_times;

    fn setup(m: usize, n: usize, j: usize, p: usize) -> (Matrix, Matrix, BlockRow) {
        let a = Matrix::random(m, n, 51);
        let c = Matrix::random(m, j, 52);
        let lay = BlockRow::balanced(m, 1, p);
        (a, c, lay)
    }

    #[test]
    fn qt_matches_serial_apply() {
        let (m, n, j, p) = (48usize, 6usize, 3usize, 4usize);
        let (a, c, lay) = setup(m, n, j, p);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let rows = lay.local_rows(w.rank());
            let f = tsqr_factor(rank, &w, &a.take_rows(&rows));
            let qc = apply_qt_1d(rank, &w, &f, &c.take_rows(&rows));
            (f, qc)
        });
        // Assemble the distributed result and compare with the serial
        // application of the assembled factors.
        let facs: Vec<_> = out.results.iter().map(|(f, _)| f.clone()).collect();
        let fac = assemble_block_row(&facs, lay.counts());
        let mut got = Matrix::zeros(m, j);
        let starts = lay.starts();
        for (r, (_, qc)) in out.results.iter().enumerate() {
            got.set_submatrix(starts[r], 0, qc);
        }
        let expect = qt_times(&fac.v, &fac.t, &c);
        assert!(got.sub(&expect).max_abs() < 1e-12);
    }

    #[test]
    fn q_then_qt_roundtrips() {
        let (m, n, j, p) = (40usize, 5usize, 2usize, 5usize);
        let (a, c, lay) = setup(m, n, j, p);
        let machine = Machine::new(p, CostParams::unit());
        let cfg = Caqr1dConfig::new(2);
        let out = machine.run(|rank| {
            let w = rank.world();
            let rows = lay.local_rows(w.rank());
            let f = caqr1d_factor(rank, &w, &a.take_rows(&rows), &cfg);
            let c_loc = c.take_rows(&rows);
            let qc = apply_q_1d(rank, &w, &f, &c_loc);
            let back = apply_qt_1d(rank, &w, &f, &qc);
            back.sub(&c_loc).max_abs()
        });
        for err in out.results {
            assert!(err < 1e-12, "QᵀQC = C violated: {err}");
        }
    }

    #[test]
    fn batch_apply_roundtrips_and_handles_empty_problems() {
        // A batch of problems applied one after another through the
        // single-problem applies: a full round trip, an empty C (j = 0)
        // and an empty basis (a factorization of zero columns). The empty
        // problems are the identity and send nothing.
        let (m, p) = (48usize, 4usize);
        let lay = BlockRow::balanced(m, 1, p);
        let a0 = Matrix::random(m, 6, 90);
        let c0 = Matrix::random(m, 2, 92);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let rows = lay.local_rows(w.rank());
            let f = tsqr_factor(rank, &w, &a0.take_rows(&rows));
            let f0 = tsqr_factor(rank, &w, &Matrix::zeros(rows.len(), 0));
            let c_loc = c0.take_rows(&rows);
            let qc = apply_q_1d(rank, &w, &f, &c_loc);
            let back = apply_qt_1d(rank, &w, &f, &qc);
            let before = rank.clock();
            let empty_c = apply_qt_1d(rank, &w, &f, &Matrix::zeros(c_loc.rows(), 0));
            assert_eq!(
                (empty_c.rows(), empty_c.cols()),
                (c_loc.rows(), 0),
                "empty C passes through"
            );
            assert_eq!(
                apply_q_1d(rank, &w, &f0, &c_loc),
                c_loc,
                "empty basis: Q = I"
            );
            assert_eq!(
                apply_qt_1d(rank, &w, &f0, &c_loc),
                c_loc,
                "empty basis: Qᵀ = I"
            );
            let idle = rank.clock().since(&before);
            assert_eq!(
                (idle.msgs, idle.words),
                (0.0, 0.0),
                "identity applies are free"
            );
            back.sub(&c_loc).max_abs()
        });
        for err in out.results {
            assert!(err < 1e-12, "QᵀQC = C violated: {err}");
        }
    }

    #[test]
    fn qt_a_recovers_r() {
        // QᵀA = [R; 0] distributed: the root's top n rows hold R.
        let (m, n, p) = (36usize, 6usize, 3usize);
        let a = Matrix::random(m, n, 53);
        let lay = BlockRow::balanced(m, 1, p);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let rows = lay.local_rows(w.rank());
            let a_loc = a.take_rows(&rows);
            let f = tsqr_factor(rank, &w, &a_loc);
            let qta = apply_qt_1d(rank, &w, &f, &a_loc);
            (f.r, qta)
        });
        let r = out.results[0].0.as_ref().unwrap();
        let top = out.results[0].1.submatrix(0, n, 0, n);
        assert!(top.sub(r).max_abs() < 1e-11, "top of QᵀA is R");
        // All rows below n (across all ranks) vanish.
        let starts = lay.starts();
        for (rk, (_, qta)) in out.results.iter().enumerate() {
            for lr in 0..qta.rows() {
                if starts[rk] + lr >= n {
                    for c in 0..n {
                        assert!(qta[(lr, c)].abs() < 1e-11, "QᵀA zero below R");
                    }
                }
            }
        }
    }

    #[test]
    fn apply_costs_are_low_order() {
        // One apply should cost far less than the factorization itself.
        let (m, n, p) = (256usize, 16usize, 8usize);
        let a = Matrix::random(m, n, 54);
        let c = Matrix::random(m, 1, 55);
        let lay = BlockRow::balanced(m, 1, p);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let rows = lay.local_rows(w.rank());
            let f = tsqr_factor(rank, &w, &a.take_rows(&rows));
            let before = rank.clock();
            let _ = apply_qt_1d(rank, &w, &f, &c.take_rows(&rows));
            rank.clock().since(&before)
        });
        let factor_cost = machine_factor_cost(m, n, p, &a, &lay);
        let apply_words = out.results.iter().map(|c| c.words).fold(0.0, f64::max);
        assert!(
            apply_words < factor_cost / 2.0,
            "apply moved {apply_words} words, factorization moved {factor_cost}"
        );
    }

    fn machine_factor_cost(m: usize, n: usize, p: usize, a: &Matrix, lay: &BlockRow) -> f64 {
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let _ = tsqr_factor(rank, &w, &a.take_rows(&lay.local_rows(w.rank())));
        });
        let _ = (m, n);
        out.stats.critical().words
    }
}
