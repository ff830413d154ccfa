//! Gate: streaming/updating QR is the one-shot factorization computed
//! lazily. With `k` and `P` powers of two and equal `b`-row appends
//! (`P | b`), the [`UpdatingQr`] merge tree coincides node-for-node
//! with the binomial tree of a one-shot `Session::factor` over `k·P`
//! ranks on the concatenated matrix — so `Q` and `R` must match
//! **bitwise**, on every transport substrate.

use std::sync::Arc;

use qr3d::prelude::*;
use qr3d_core::tsqr::LEAF_WORDS;

fn concat(blocks: &[Matrix]) -> Matrix {
    let mut it = blocks.iter();
    let mut out = it.next().expect("nonempty").clone();
    for b in it {
        out = out.vstack(b);
    }
    out
}

fn session_on(transport: Arc<dyn Transport>, p: usize) -> Session {
    let params = FactorParams::new(CostParams::supercomputer());
    let machine = Machine::new(p, params.machine).with_transport(transport);
    Session::on_machine(machine, params)
}

fn transports() -> Vec<(&'static str, Arc<dyn Transport>)> {
    vec![
        ("mpsc", Arc::new(MpscTransport)),
        ("ring", Arc::new(RingTransport::default())),
        ("ring-cap2", Arc::new(RingTransport::with_capacity(2))),
    ]
}

#[test]
fn streamed_factors_match_oneshot_over_kp_ranks_on_every_transport() {
    // Small leaves; `examples/qr_streaming`'s shape; and leaves of three
    // row blocks each, the last ragged.
    let tall = 2 * (LEAF_WORDS / 4) + 20;
    for (k, b, n, p) in [
        (4usize, 16usize, 4usize, 2usize),
        (4, 64, 8, 4),
        (2, 2 * tall, 4, 2),
    ] {
        let blocks: Vec<Matrix> = (0..k)
            .map(|i| Matrix::random(b, n, 300 + i as u64))
            .collect();
        let a = concat(&blocks);

        for (name, transport) in transports() {
            let mut stream_session = session_on(Arc::clone(&transport), p);
            let streamed = stream_session.factor_streaming(&blocks);

            let mut oneshot_session = session_on(transport, k * p);
            let oneshot = oneshot_session
                .factor(&a, QrBackend::Tsqr)
                .expect("full-rank tsqr succeeds");

            let ctx = format!("{name}, {k} × ({b} × {n}) on P = {p}");
            assert_eq!(streamed.r, oneshot.r, "{ctx}: R diverged");
            assert_eq!(streamed.q, oneshot.q, "{ctx}: Q diverged");
            assert_eq!(streamed.detected_rank, oneshot.detected_rank);
            assert!(streamed.residual(&a) < 1e-12, "{ctx}: residual");
            assert!(streamed.orthogonality() < 1e-12, "{ctx}: orthogonality");
        }
    }
}

#[test]
fn single_append_degenerates_to_plain_tsqr_on_every_transport() {
    let (b, n, p) = (32usize, 4usize, 4usize);
    let block = Matrix::random(b, n, 311);
    for (name, transport) in transports() {
        let mut s = session_on(transport, p);
        let mut upd = UpdatingQr::new();
        upd.append_rows(&mut s, &block);
        let streamed = upd.finish(&mut s);
        let oneshot = s.factor(&block, QrBackend::Tsqr).expect("tsqr succeeds");
        assert_eq!(streamed.r, oneshot.r, "{name}: R diverged");
        assert_eq!(streamed.q, oneshot.q, "{name}: Q diverged");
    }
}

#[test]
fn streamed_appends_are_cheaper_than_refactoring_on_the_clocks() {
    // The machine-clock analogue of `qr3d_cost::algorithms::update_cost`
    // vs summed `tsqr_cost`: appending k blocks must charge far fewer
    // flops than re-factoring every growing prefix.
    let (k, b, n, p) = (8usize, 64usize, 4usize, 2usize);
    let blocks: Vec<Matrix> = (0..k)
        .map(|i| Matrix::random(b, n, 400 + i as u64))
        .collect();

    let params = FactorParams::new(CostParams::unit());
    let mut s = Session::new(p, params);
    let mut upd = UpdatingQr::new();
    for block in &blocks {
        upd.append_rows(&mut s, block);
    }
    let streamed_flops = upd.critical().flops;

    let mut refactor_flops = 0.0;
    for i in 1..=k {
        let prefix = concat(&blocks[..i]);
        let out = s.factor(&prefix, QrBackend::Tsqr).expect("tsqr succeeds");
        refactor_flops += out.critical.flops;
    }
    assert!(
        streamed_flops * 2.0 < refactor_flops,
        "streaming charged {streamed_flops}, refactoring {refactor_flops}"
    );
}

#[test]
fn service_streaming_matches_direct_session_streaming() {
    let p = 2;
    let blocks: Vec<Matrix> = (0..4u64).map(|i| Matrix::random(12, 3, 500 + i)).collect();
    let svc = QrService::start(ServiceConfig::new(p, FactorParams::default()).with_pool(1));
    let h = svc.submit_streaming(blocks.clone()).expect("admitted");
    let via_service = h.wait().output.expect("streaming job succeeds");

    let mut s = Session::new(p, FactorParams::default());
    let direct = s.factor_streaming(&blocks);
    assert_eq!(via_service.q, direct.q, "service stream must match bitwise");
    assert_eq!(via_service.r, direct.r);
    assert!(via_service.residual(&concat(&blocks)) < 1e-12);
}
