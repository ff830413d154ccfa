//! End-to-end acceptance tests for the cost-advised dispatch layer:
//! `FactorParams::auto` picks CholeskyQR2 exactly when the shape, machine,
//! and condition estimate justify it, and the dispatched factorization
//! is verifiably correct either way.

use qr3d::prelude::*;

/// ‖A − QR‖/‖A‖ and ‖QᵀQ − I‖ bounds for a dispatched run.
fn assert_good(out: &FactorOutput, a: &Matrix) {
    let resid = out.residual(a);
    assert!(resid < 1e-11, "{:?}: residual {resid}", out.backend);
    let orth = out.orthogonality();
    assert!(orth < 1e-11, "{:?}: orthogonality {orth}", out.backend);
    assert!(out.r.is_upper_triangular(1e-13));
}

#[test]
fn auto_selects_cholqr2_on_well_conditioned_tall_skinny() {
    // The acceptance shape: 4096 × 64 on 16 cluster ranks, κ asserted at
    // 1e3 ≪ 1/√ε. The advisor must dispatch to CholeskyQR2, and the
    // end-to-end factorization must satisfy the error bounds.
    let (m, n, p) = (4096usize, 64usize, 16usize);
    let a = random_with_condition(m, n, 1e3, 60);
    let params = FactorParams::new(CostParams::cluster()).with_kappa(1e3);

    let backend = params.auto(m, n, p);
    assert!(
        matches!(backend, QrBackend::CholQr2),
        "well-conditioned tall-skinny on a cluster must dispatch to CholeskyQR2, got {backend:?}"
    );

    let out = factor_auto(&a, p, &params).expect("κ is inside the guard");
    assert!(matches!(out.backend, QrBackend::CholQr2));
    assert_good(&out, &a);
}

#[test]
fn auto_falls_back_to_householder_on_ill_conditioned_input() {
    // Same shape and machine, κ asserted at 1e10 ≫ 1/√ε: the advisor
    // must refuse the Gram path and pick a Householder-family algorithm
    // — which then factors the genuinely ill-conditioned matrix to
    // machine precision.
    let (m, n, p) = (4096usize, 64usize, 16usize);
    let a = random_with_condition(m, n, 1e10, 61);
    let params = FactorParams::new(CostParams::cluster()).with_kappa(1e10);

    let backend = params.auto(m, n, p);
    assert!(
        matches!(backend, QrBackend::Tsqr | QrBackend::Caqr1d { .. }),
        "ill-conditioned input must dispatch to the Householder family, got {backend:?}"
    );

    let out = factor_auto(&a, p, &params).expect("Householder backends cannot break down");
    assert_good(&out, &a);
}

#[test]
fn auto_prefers_caqr_on_squareish_input() {
    // Square-ish shape (m/n < P): the tall-skinny family is gated out;
    // with κ unknown CholeskyQR2 is too. The 2D/3D family must win, and
    // the dispatched run must verify.
    let (m, n, p) = (256usize, 64usize, 16usize);
    let a = Matrix::random(m, n, 62);
    let params = FactorParams::new(CostParams::cluster());

    let backend = params.auto(m, n, p);
    assert!(
        matches!(
            backend,
            QrBackend::Caqr3d { .. } | QrBackend::Caqr2d | QrBackend::House2d
        ),
        "square-ish input must dispatch to the 2D/3D family, got {backend:?}"
    );

    let out = factor_auto(&a, p, &params).expect("no Gram path involved");
    assert_good(&out, &a);
}

#[test]
fn auto_dispatch_beats_tsqr_on_the_advisors_objective() {
    // The selection is not cosmetic. On the cluster machine the advised
    // CholeskyQR2 run must beat a forced TSQR run of the same input in
    // *modeled time* — the γF + βW + αS objective the advisor minimizes
    // (there, the auto all-reduce trades words for halved messages, so
    // time, not the word count alone, is the honest comparison).
    let (m, n, p) = (1024usize, 32usize, 16usize);
    let a = random_with_condition(m, n, 1e2, 63);
    let params = FactorParams::new(CostParams::cluster()).with_kappa(1e2);

    let auto = factor_auto(&a, p, &params).expect("within guard");
    assert!(matches!(auto.backend, QrBackend::CholQr2));
    let tsqr = factor(&a, p, QrBackend::Tsqr, &params).unwrap();
    assert!(
        auto.critical.time < tsqr.critical.time,
        "advised pick t={} must beat tsqr t={}",
        auto.critical.time,
        tsqr.critical.time
    );

    // And on a bandwidth-priced machine (unit α = β), where the auto
    // all-reduce takes the bandwidth-lean exchange, CholeskyQR2 delivers
    // the W = n² vs n² log P bandwidth win it is named for.
    let unit = FactorParams::new(CostParams::unit()).with_kappa(1e2);
    let chol_w = factor(&a, p, QrBackend::CholQr2, &unit).unwrap();
    let tsqr_w = factor(&a, p, QrBackend::Tsqr, &unit).unwrap();
    assert!(
        chol_w.critical.words < tsqr_w.critical.words,
        "cholqr2 W={} must beat tsqr W={}",
        chol_w.critical.words,
        tsqr_w.critical.words
    );
    assert_good(&auto, &a);
    assert_good(&tsqr, &a);
    // And the two backends agree on R up to row signs (cholqr2's diagonal
    // is positive by construction; tsqr's follows the [BDG+15] sign
    // convention): normalize each row to a positive diagonal first.
    let n = auto.r.rows();
    let row_normalized = |r: &Matrix| {
        Matrix::from_fn(n, n, |i, j| {
            if r[(i, i)] < 0.0 {
                -r[(i, j)]
            } else {
                r[(i, j)]
            }
        })
    };
    let (ra, rt) = (row_normalized(&auto.r), row_normalized(&tsqr.r));
    let dr = ra.sub(&rt).max_abs() / rt.max_abs();
    assert!(dr < 1e-10, "R factors disagree by {dr}");
}

#[test]
fn machine_parameters_steer_the_advised_backend() {
    // The same 4096 × 64 problem lands on different backends as the
    // machine's latency/bandwidth ratio moves — the paper's headline,
    // now driving execution. On every machine the advised pick must
    // still factor correctly.
    let (m, n, p) = (4096usize, 64usize, 16usize);
    let a = random_with_condition(m, n, 1e3, 64);
    for machine in [
        CostParams::laptop(),
        CostParams::cluster(),
        CostParams::supercomputer(),
    ] {
        let params = FactorParams::new(machine).with_kappa(1e3);
        let out = factor_auto(&a, p, &params).expect("within guard");
        assert_good(&out, &a);
    }
}

#[test]
fn rank_hint_reroutes_dispatch_without_disturbing_full_rank_callers() {
    let (m, n, p) = (4096usize, 64usize, 16usize);
    // Full (the default): identical to the historical kappa-only path.
    let full = FactorParams::new(CostParams::cluster()).with_kappa(1e3);
    assert!(matches!(full.auto(m, n, p), QrBackend::CholQr2));
    // A non-Full hint overrides even an asserted κ: the Gram path would
    // break down on the deficiency the caller is worried about.
    for hint in [RankHint::Unknown, RankHint::Deficient] {
        let params = full.with_rank_hint(hint);
        let backend = params.auto(m, n, p);
        assert!(
            matches!(backend, QrBackend::PivotQr | QrBackend::RandRrqr),
            "{hint:?}: got {backend:?}"
        );
    }
    // Square-ish shapes close the RandRrqr aspect gate: PivotQr is the
    // only rank-revealing candidate left.
    let params = FactorParams::new(CostParams::cluster()).with_rank_hint(RankHint::Deficient);
    assert!(matches!(params.auto(2048, 1024, 64), QrBackend::PivotQr));
}

#[test]
fn rank_hinted_batches_run_sequentially_with_a_rank_revealing_backend() {
    // Per-problem permutations cannot share reduction trees: a hinted
    // batch must plan sequential rank-revealing dispatch — and the
    // session must still serve it correctly end to end.
    let params = FactorParams::new(CostParams::cluster()).with_rank_hint(RankHint::Deficient);
    let plan = params.auto_batch(512, 16, 8, 8);
    assert!(!plan.fused, "rank-revealing batches never fuse");
    assert!(matches!(
        plan.backend,
        QrBackend::PivotQr | QrBackend::RandRrqr
    ));

    let mut session = Session::new(4, params);
    let problems: Vec<Matrix> = (0..3u64)
        .map(|s| {
            // Each problem rank-deficient with a different rank.
            let k = 3 + s as usize;
            let b = Matrix::random(128, k, 200 + s);
            let c = Matrix::random(k, 8, 300 + s);
            matmul(&b, &c)
        })
        .collect();
    let batch = session.factor_batch_auto(&problems);
    assert!(!batch.fused);
    for (i, out) in batch.outputs.iter().enumerate() {
        let out = out.as_ref().expect("no breakdown path");
        assert_eq!(out.detected_rank, 3 + i, "problem {i} rank");
        assert!(out.residual(&problems[i]) < 1e-12);
    }
}

#[test]
fn explicit_rank_revealing_backends_verify_through_the_unified_entry_point() {
    let (m, n, p) = (128usize, 16usize, 4usize);
    let a = Matrix::random(m, n, 77);
    for backend in [QrBackend::PivotQr, QrBackend::RandRrqr] {
        let out = factor(&a, p, backend, &FactorParams::default()).unwrap();
        assert_good(&out, &a);
        assert_eq!(out.detected_rank, n);
        assert!(out.critical.msgs > 0.0, "{backend:?} communicated");
    }
}
