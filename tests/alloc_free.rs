//! Allocation watermark: a warm `Session::factor` loop must serve every
//! leaf-kernel scratch request from the per-rank `Workspace` pool.
//!
//! The blocked local kernels (`geqrt_ws`, `apply_block_reflector_ws`,
//! `trsm_ws`, the Gram accumulator) draw panel buffers from the rank's
//! workspace. `Workspace::stats()` counts `(pool hits, fresh
//! allocations)`, so the invariant "steady-state factorization allocates
//! nothing per job in the leaf kernels" is exactly "the miss count stops
//! growing once the session is warm".

use qr3d::prelude::*;

/// Run `job` three times to warm a `p`-rank session, then three more:
/// every rank must hit its pool and miss no more than it did warm.
fn miss_watermark_is_flat(what: &str, p: usize, mut job: impl FnMut(&mut Session)) {
    let mut session = Session::new(p, FactorParams::new(CostParams::unit()));
    // Warm-up: the first jobs populate each rank's pool with the
    // factorization's working-set of buffer sizes.
    for _ in 0..3 {
        job(&mut session);
    }
    let warm: Vec<(u64, u64)> = session.run(|rank| rank.workspace().stats()).results;
    for _ in 0..3 {
        job(&mut session);
    }
    let after: Vec<(u64, u64)> = session.run(|rank| rank.workspace().stats()).results;
    for (rk, (w, aft)) in warm.iter().zip(&after).enumerate() {
        assert!(
            aft.0 > w.0,
            "{what} rank {rk}: warm jobs should hit the pool (hits {} → {})",
            w.0,
            aft.0
        );
        assert_eq!(
            w.1, aft.1,
            "{what} rank {rk}: a warm factor loop must not allocate scratch \
             (misses grew {} → {})",
            w.1, aft.1
        );
    }
}

fn factor_loop_is_flat(backend: QrBackend, m: usize, n: usize, p: usize, seed: u64) {
    let a = Matrix::random(m, n, seed);
    miss_watermark_is_flat(&format!("{backend:?}"), p, |session| {
        session.factor(&a, backend).expect("well-conditioned input");
    });
}

#[test]
fn warm_tsqr_factor_loop_allocates_no_scratch() {
    factor_loop_is_flat(QrBackend::Tsqr, 256, 32, 4, 9);
}

#[test]
fn warm_fused_tsqr_batch_allocates_no_scratch() {
    // The small-request service path: every rank, the root and the
    // others alike, writes its rows of each Q from pooled scratch.
    let problems: Vec<Matrix> = (0..4).map(|j| Matrix::random(512, 16, 20 + j)).collect();
    miss_watermark_is_flat("fused Tsqr", 2, |session| {
        let batch = session.factor_batch(&problems, QrBackend::Tsqr);
        assert!(batch.fused, "same-shape TSQR batches fuse");
        assert!(batch.outputs.iter().all(Result::is_ok));
    });
}

#[test]
fn warm_cholqr2_factor_loop_allocates_no_scratch() {
    factor_loop_is_flat(QrBackend::CholQr2, 256, 16, 4, 10);
}

#[test]
fn warm_pivotqr_factor_loop_allocates_no_scratch() {
    // The pivoted backend's per-column loop (norm buffers, Householder
    // scalars, the combined z/w/pivot-row payload) must draw everything
    // from the rank workspace too — the sizes repeat across panels, so a
    // warm pool serves every request.
    factor_loop_is_flat(QrBackend::PivotQr, 256, 32, 4, 11);
}
