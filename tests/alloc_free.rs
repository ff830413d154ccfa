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

/// Run `job` `warm` times to warm a `p`-rank session, then three more:
/// every rank must hit its pool and miss no more than it did warm.
fn miss_watermark_is_flat(what: &str, p: usize, warm: usize, mut job: impl FnMut(&mut Session)) {
    let mut session = Session::new(p, FactorParams::new(CostParams::unit()));
    // Warm-up: the first jobs populate each rank's pool with the
    // factorization's working-set of buffer sizes.
    for _ in 0..warm {
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
    miss_watermark_is_flat(&format!("{backend:?}"), p, 3, |session| {
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
    miss_watermark_is_flat("fused Tsqr", 2, 3, |session| {
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

#[test]
fn warm_caqr3d_factor_loop_allocates_no_scratch() {
    // 3D-CAQR-EG: every redistribution's step messages and output, every
    // 3D multiply's gathered operands, product and messages, and the
    // recursion's temporaries come from the rank workspaces — and a
    // received message goes back to the *receiver's*.
    let delta = 2.0 / 3.0;
    factor_loop_is_flat(QrBackend::Caqr3d { delta }, 96, 96, 4, 12);
    factor_loop_is_flat(QrBackend::Caqr3d { delta }, 512, 128, 4, 13);
}

#[test]
fn warm_caqr3d_factor_loop_at_p8_stops_allocating() {
    // At P = 8 the 3D multiplies run on fibers of different block sizes,
    // and a pooled message buffer migrates between them. Each multiply's
    // messages all take the capacity of its largest on any fiber, so a
    // migrated buffer fits its new rank's next message and the pools
    // settle — at this shape within about twenty ops, hence the warm-up.
    let a = Matrix::random(128, 128, 14);
    miss_watermark_is_flat("Caqr3d at P = 8", 8, 24, |session| {
        let backend = QrBackend::Caqr3d { delta: 2.0 / 3.0 };
        session.factor(&a, backend).expect("well-conditioned input");
    });
}
