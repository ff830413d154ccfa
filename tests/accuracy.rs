//! Numerical-accuracy suite: CholeskyQR2 against TSQR on
//! graded-condition-number matrices, pinning down the documented
//! breakdown point that justifies the advisor's κ guard.
//!
//! The theory (Hutter & Solomonik; Yamamoto et al. for CholeskyQR2):
//!
//! * TSQR is unconditionally backward stable — `‖QᵀQ − I‖ = O(ε)` at any
//!   κ(A).
//! * One CholeskyQR pass loses orthogonality as `O(κ² ε)`.
//! * CholeskyQR2 recovers `O(ε)` — but only while `κ² ε ≪ 1`, i.e.
//!   `κ ≲ 1/√ε ≈ 6.7e7`. Past that the Gram matrix is numerically
//!   indefinite: the Cholesky factorization breaks down (reported, not
//!   silent), and the advisor must refuse the backend.

use qr3d::prelude::*;

const M: usize = 192;
const N: usize = 12;
const P: usize = 4;

/// Factor with the given backend and return (orthogonality, residual).
fn errors_of(backend: QrBackend, a: &Matrix) -> (f64, f64) {
    let out = factor(a, P, backend, &FactorParams::default()).expect("within the guard");
    (out.orthogonality(), out.residual(a))
}

#[test]
fn cholqr2_matches_tsqr_below_the_guard() {
    // κ from 1e1 to 1e7 — all below CHOLQR2_KAPPA_GUARD ≈ 6.7e7: both
    // backends must deliver machine-ε orthogonality and residual.
    for (i, kappa) in [1e1, 1e3, 1e5, 1e7].into_iter().enumerate() {
        let a = random_with_condition(M, N, kappa, 40 + i as u64);
        let (orth_c, resid_c) = errors_of(QrBackend::CholQr2, &a);
        let (orth_t, resid_t) = errors_of(QrBackend::Tsqr, &a);
        assert!(
            orth_c < 5e-13,
            "κ={kappa:.0e}: cholqr2 orthogonality {orth_c}"
        );
        assert!(orth_t < 5e-13, "κ={kappa:.0e}: tsqr orthogonality {orth_t}");
        assert!(resid_c < 5e-12, "κ={kappa:.0e}: cholqr2 residual {resid_c}");
        assert!(resid_t < 5e-12, "κ={kappa:.0e}: tsqr residual {resid_t}");
    }
}

#[test]
fn single_pass_degrades_quadratically_with_kappa() {
    // The κ²ε law that makes the *second* pass necessary: one CholeskyQR
    // pass at κ = 1e5 must sit orders of magnitude above ε while κ = 1e1
    // stays near ε. (Run on the simulated machine like everything else.)
    let orth_of = |kappa: f64, seed: u64| {
        let a = random_with_condition(M, N, kappa, seed);
        let lay = BlockRow::balanced(M, 1, P);
        let machine = Machine::new(P, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let a_loc = a.take_rows(&lay.local_rows(w.rank()));
            cholqr_pass(rank, &w, &a_loc).expect("κ well below breakdown")
        });
        let mut q = Matrix::zeros(M, N);
        let starts = lay.starts();
        for (rk, res) in out.results.iter().enumerate() {
            q.set_submatrix(starts[rk], 0, &res.0);
        }
        matmul_tn(&q, &q).sub(&Matrix::identity(N)).max_abs()
    };
    let low = orth_of(1e1, 50);
    let high = orth_of(1e5, 51);
    assert!(low < 1e-12, "κ=1e1 single pass is already fine: {low}");
    assert!(
        high > 1e3 * low.max(f64::EPSILON),
        "κ=1e5 single pass must visibly degrade: {high} vs {low}"
    );
}

#[test]
fn advisor_refuses_cholqr2_above_the_guard() {
    // The documented breakdown point, enforced at selection time: above
    // κ ≈ 1/√ε the advisor must never offer CholeskyQR2, whatever the
    // machine, and must still offer *something* valid.
    let machines = [
        CostParams::cluster(),
        CostParams::supercomputer(),
        CostParams::laptop(),
    ];
    for kappa in [1e8, 1e10, 1e12] {
        for mc in &machines {
            let rec = recommend_with_kappa(4096, 64, 16, Some(kappa), mc.alpha, mc.beta, mc.gamma);
            assert!(
                !matches!(rec.choice, Choice::CholQr2),
                "κ={kappa:.0e}: advisor offered CholeskyQR2 past the guard ({:?})",
                rec.choice
            );
        }
    }
    // Just below the guard, on a machine where its formula wins, the
    // advisor does select it — the gate is the κ test, nothing else.
    let mc = CostParams::cluster();
    let rec = recommend_with_kappa(4096, 64, 16, Some(1e6), mc.alpha, mc.beta, mc.gamma);
    assert!(matches!(rec.choice, Choice::CholQr2), "{:?}", rec.choice);
}

#[test]
fn forced_cholqr2_past_the_guard_breaks_down_or_degrades() {
    // Bypassing the advisor must fail *loudly*: either a reported
    // breakdown, or (if rounding lets a tiny pivot through) measurably
    // non-orthonormal Q — never a silently wrong "success".
    let a = random_with_condition(M, N, 1e10, 52);
    match factor(&a, P, QrBackend::CholQr2, &FactorParams::default()) {
        Err(FactorError::CholeskyBreakdown(e)) => {
            assert!(e.pass == 1 || e.pass == 2);
        }
        Ok(out) => assert!(
            out.orthogonality() > 1e-8,
            "κ=1e10 through Gram matrices cannot be this orthonormal: {}",
            out.orthogonality()
        ),
    }
    // TSQR on the identical input stays at machine ε.
    let (orth_t, _) = errors_of(QrBackend::Tsqr, &a);
    assert!(orth_t < 5e-12, "tsqr is κ-independent: {orth_t}");
}

/// An exactly rank-`k` `m × n` test matrix (`A = B·C`).
fn rank_k_matrix(m: usize, n: usize, k: usize, seed: u64) -> Matrix {
    matmul(
        &Matrix::random(m, k, seed),
        &Matrix::random(k, n, seed + 1000),
    )
}

#[test]
fn rank_revealing_backends_track_kappa_sweep() {
    // κ-graded full-rank inputs (all κ ≪ 1/rank_tolerance): both
    // rank-revealing backends must detect full rank, produce a valid
    // permutation, and factor to machine precision — and their detected
    // rank must agree with the local geqp3 kernel's.
    for (i, kappa) in [1e1, 1e3, 1e5, 1e7].into_iter().enumerate() {
        let a = random_with_condition(M, N, kappa, 70 + i as u64);
        let local = qr3d::matrix::pivot::geqp3(&a);
        for backend in [QrBackend::PivotQr, QrBackend::RandRrqr] {
            let out = factor(&a, P, backend, &FactorParams::default())
                .expect("rank-revealing backends do not break down");
            let resid = out.residual(&a);
            assert!(resid < 5e-12, "κ={kappa:.0e} {backend:?}: residual {resid}");
            let orth = out.orthogonality();
            assert!(
                orth < 5e-13,
                "κ={kappa:.0e} {backend:?}: orthogonality {orth}"
            );
            let perm = out.perm.as_ref().expect("permutation surfaced");
            assert!(qr3d::matrix::pivot::is_permutation(perm, N));
            assert_eq!(
                out.detected_rank, local.rank,
                "κ={kappa:.0e} {backend:?}: rank vs local geqp3"
            );
            assert_eq!(out.detected_rank, N, "κ={kappa:.0e}: full rank");
        }
    }
}

#[test]
fn rank_revealing_backends_detect_graded_deficiency() {
    // Rank-k inputs across k: exact detection by both backends, RRQR
    // agreeing with geqp3, and the pivoted R diagonal decaying.
    for k in [1usize, 3, 6, 11] {
        let a = rank_k_matrix(M, N, k, 80 + k as u64);
        let local_rank = qr3d::matrix::pivot::geqp3(&a).rank;
        assert_eq!(local_rank, k, "local geqp3 detects k = {k}");
        for backend in [QrBackend::PivotQr, QrBackend::RandRrqr] {
            let out = factor(&a, P, backend, &FactorParams::default()).unwrap();
            assert_eq!(
                out.detected_rank, k,
                "{backend:?} must detect rank {k} exactly"
            );
            let resid = out.residual(&a);
            assert!(resid < 1e-12, "{backend:?} rank-{k}: residual {resid}");
        }
        // Pivoted diagonal: significant prefix, then collapse.
        let out = factor(&a, P, QrBackend::PivotQr, &FactorParams::default()).unwrap();
        assert!(
            out.r[(k - 1, k - 1)].abs() > 1e6 * out.r[(k, k)].abs(),
            "rank-{k}: diagonal must collapse after position {k}"
        );
    }
}

#[test]
fn acceptance_rank_deficient_input_through_factor_auto() {
    // The PR's acceptance criterion end-to-end: on a constructed
    // rank-k (k < n) matrix with a non-Full rank hint, `factor_auto`
    // selects a rank-revealing backend and returns the exact rank, a
    // valid permutation, and ‖A·P − Q·R‖/‖A‖ ≤ 1e-12.
    let (m, n, k, p) = (256usize, 16usize, 7usize, 4usize);
    let a = rank_k_matrix(m, n, k, 99);
    for hint in [RankHint::Unknown, RankHint::Deficient] {
        let params = FactorParams::new(CostParams::cluster()).with_rank_hint(hint);
        let backend = params.auto(m, n, p);
        assert!(
            matches!(backend, QrBackend::PivotQr | QrBackend::RandRrqr),
            "{hint:?} must route to a rank-revealing backend, got {backend:?}"
        );
        let out = factor_auto(&a, p, &params).expect("no breakdown path");
        assert_eq!(out.detected_rank, k, "{hint:?}: detected_rank == k");
        let perm = out.perm.as_ref().expect("permutation present");
        assert!(qr3d::matrix::pivot::is_permutation(perm, n));
        let resid = out.residual(&a);
        assert!(resid <= 1e-12, "{hint:?}: ‖A·P − Q·R‖/‖A‖ = {resid}");
    }
}

#[test]
fn householder_surfaces_rank_deficiency_instead_of_masking() {
    // The ROADMAP hazard, closed: the full-rank backends still factor a
    // deficient input, but FactorOutput::detected_rank flags it.
    let a = rank_k_matrix(M, N, 4, 123);
    let out = factor(&a, P, QrBackend::Tsqr, &FactorParams::default()).unwrap();
    assert!(out.residual(&a) < 1e-11, "still a valid factorization");
    assert!(
        out.detected_rank < N,
        "the R-decay diagnostic must flag the deficiency (got {})",
        out.detected_rank
    );
    // And CholeskyQR2 on the same input reports breakdown rather than
    // wrong factors — the two failure modes the rank-revealing
    // subsystem exists to replace.
    match factor(&a, P, QrBackend::CholQr2, &FactorParams::default()) {
        Err(FactorError::CholeskyBreakdown(_)) => {}
        Ok(out) => panic!(
            "a rank-4 Gram matrix cannot be positive definite (orth {})",
            out.orthogonality()
        ),
    }
}
