//! Gate: `Session::factor` results are bitwise-identical across message
//! substrates. The transport moves envelopes; every flop, word, and
//! clock merge happens above the [`Transport`] boundary, so swapping
//! `mpsc` for `ring` must not perturb a single bit of Q, R, the
//! pivoting decisions, or the charged critical path.

use std::sync::Arc;

use qr3d::prelude::*;

fn factor_over(
    transport: Arc<dyn Transport>,
    a: &Matrix,
    backend: QrBackend,
) -> (Matrix, Matrix, Option<Vec<usize>>, usize, Clock) {
    let params = FactorParams::new(CostParams::supercomputer()).with_kappa(1e3);
    let machine = Machine::new(8, params.machine).with_transport(transport);
    let mut session = Session::on_machine(machine, params);
    let out = session.factor(a, backend).expect("factorization succeeds");
    (out.q, out.r, out.perm, out.detected_rank, out.critical)
}

#[test]
fn session_factor_is_bitwise_identical_across_transports() {
    for backend in [QrBackend::Tsqr, QrBackend::CholQr2, QrBackend::PivotQr] {
        let a = Matrix::random(512, 16, 7);
        let mpsc = factor_over(Arc::new(MpscTransport), &a, backend);
        for ring in [
            RingTransport::default(),
            // A tiny capacity forces the backpressure path through the
            // same reduction trees.
            RingTransport::with_capacity(2),
        ] {
            let got = factor_over(Arc::new(ring), &a, backend);
            assert_eq!(mpsc.0, got.0, "{backend:?}: Q diverged on ring transport");
            assert_eq!(mpsc.1, got.1, "{backend:?}: R diverged on ring transport");
            assert_eq!(mpsc.2, got.2, "{backend:?}: permutation diverged");
            assert_eq!(mpsc.3, got.3, "{backend:?}: detected_rank diverged");
            assert_eq!(mpsc.4, got.4, "{backend:?}: critical-path clock diverged");
        }
    }
}

#[test]
fn batched_factorization_is_transport_independent() {
    // The fused batch path shares one reduction tree across problems —
    // the heaviest messaging pattern in the repo; it too must be
    // substrate-blind.
    let problems: Vec<Matrix> = (0..4).map(|s| Matrix::random(256, 8, s)).collect();
    let run = |transport: Arc<dyn Transport>| {
        let params = FactorParams::new(CostParams::cluster()).with_kappa(1e3);
        let machine = Machine::new(4, params.machine).with_transport(transport);
        let mut session = Session::on_machine(machine, params);
        let batch = session.factor_batch(&problems, QrBackend::Tsqr);
        batch
            .outputs
            .into_iter()
            .map(|o| {
                let o = o.expect("batch member succeeds");
                (o.q, o.r)
            })
            .collect::<Vec<_>>()
    };
    let mpsc = run(Arc::new(MpscTransport));
    let ring = run(Arc::new(RingTransport::default()));
    assert_eq!(mpsc, ring, "fused batch Q/R diverged across transports");
}

#[test]
fn caqr3d_square_costs_are_pinned_and_transport_blind() {
    // The paper's algorithm on the benchmark's `sq_3d` shape and machine
    // (384 × 384, P = 4, `FactorParams::default()`), where tier-1 sees
    // it: the critical path is exact — 3D-CAQR-EG's data movement is
    // routed from layout metadata alone, so a change to the
    // redistributions that moved one word or message more shows here —
    // and R does not depend on the substrate.
    let a = Matrix::random(384, 384, 7);
    let run = |transport: Arc<dyn Transport>, delta: f64| {
        let params = FactorParams::default();
        let machine = Machine::new(4, params.machine).with_transport(transport);
        let out = Session::on_machine(machine, params)
            .factor(&a, QrBackend::Caqr3d { delta })
            .expect("Householder backends cannot break down");
        assert!(out.residual(&a) <= 1e-11, "δ = {delta}: residual");
        (out.r, out.critical)
    };
    for (delta, flops, words, msgs) in [
        (2.0 / 3.0, 145_895_040.0, 2_750_208.0, 600.0),
        (0.5, 201_913_344.0, 2_138_304.0, 191.0),
    ] {
        let (r_mpsc, critical) = run(Arc::new(MpscTransport), delta);
        let (r_ring, critical_ring) = run(Arc::new(RingTransport::default()), delta);
        assert_eq!(r_mpsc, r_ring, "δ = {delta}: R diverged on ring transport");
        assert_eq!(critical, critical_ring, "δ = {delta}: clock diverged");
        assert_eq!(critical.flops, flops, "δ = {delta}: F");
        assert_eq!(critical.words, words, "δ = {delta}: W");
        assert_eq!(critical.msgs, msgs, "δ = {delta}: S");
    }
}
