//! Experiment — **the QR service layer**: warm-executor throughput and
//! fused-batch latency amortization.
//!
//! ```text
//! serving mode           thread spawns   critical-path messages (k problems)
//! cold  (Machine::run)   k·P             k·S_single
//! warm  (Session)        P, once         k·S_single
//! fused (factor_batch)   P, once         ≈ S_single
//! ```
//!
//! Claims checked on real executions:
//! * a warm executor serves the same job stream faster than cold
//!   per-call spawning (wall-clock),
//! * the fused CholeskyQR2 batch spends ≥ 4× fewer critical-path
//!   messages than k sequential calls (k ≥ 8), with `S_batch ≈ S_single`,
//! * the batch advisor picks the fused Gram path for well-conditioned
//!   tall-skinny batches on a latency-dominated cluster.

use qr3d_bench::report::header;
use qr3d_bench::{executor_warm_vs_cold_secs, run_cholqr2, run_cholqr2_batch};
use qr3d_core::prelude::*;
use qr3d_machine::CostParams;
use qr3d_matrix::Matrix;

fn main() {
    let (m, n, p) = (512usize, 16usize, 8usize);

    header("warm executor vs cold spawning (512×16 TSQR jobs, P = 8)");
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "jobs", "cold (s)", "warm (s)", "speedup"
    );
    let mut best = 0.0f64;
    for jobs in [8usize, 24, 48] {
        let (cold, warm) = executor_warm_vs_cold_secs(m, n, p, jobs);
        let speedup = cold / warm;
        best = best.max(speedup);
        println!("{jobs:>6} {cold:>12.4} {warm:>12.4} {speedup:>9.2}×");
    }
    assert!(
        best > 1.0,
        "a warm executor must beat cold per-call spawning somewhere \
         (best observed speedup {best:.2}×)"
    );

    header("fused batch vs sequential calls (CholeskyQR2, 512×16, P = 8)");
    let single = run_cholqr2(m, n, p, 7);
    println!(
        "{:>4} {:>14} {:>14} {:>10}",
        "k", "seq msgs", "fused msgs", "amortized"
    );
    for k in [2usize, 4, 8, 16] {
        let batch = run_cholqr2_batch(m, n, p, k, 7);
        let seq_msgs = k as f64 * single.msgs;
        println!(
            "{k:>4} {seq_msgs:>14.0} {:>14.0} {:>9.1}×",
            batch.msgs,
            seq_msgs / batch.msgs
        );
        // S_batch ≈ S_single: fusion must not grow the message count
        // with k (allow the auto all-reduce a variant switch).
        assert!(
            batch.msgs <= 2.0 * single.msgs,
            "k={k}: fused S={} vs single S={}",
            batch.msgs,
            single.msgs
        );
        if k >= 8 {
            assert!(
                batch.msgs * 4.0 <= seq_msgs,
                "k={k}: fused batch must be ≥ 4× leaner in messages \
                 (fused {} vs sequential {seq_msgs})",
                batch.msgs
            );
        }
    }

    header("batch advisor (cluster, κ = 100 asserted)");
    let params = FactorParams::new(CostParams::cluster()).with_kappa(100.0);
    for k in [1usize, 8] {
        let plan = params.auto_batch(m, n, p, k);
        println!("k = {k:>2}  →  {:?} (fused = {})", plan.backend, plan.fused);
        if k >= 8 {
            assert!(
                matches!(plan.backend, QrBackend::CholQr2) && plan.fused,
                "k={k}: expected fused CholeskyQR2, got {plan:?}"
            );
        }
    }

    // End to end through the public service API: a warm session serving
    // an auto-dispatched batch, every answer verified.
    let mut session = Session::new(p, params);
    let problems: Vec<Matrix> = (0..8u64).map(|s| Matrix::random(m, n, s)).collect();
    let batch = session.factor_batch_auto(&problems);
    assert!(batch.fused, "the service must fuse this batch");
    for (a, out) in problems.iter().zip(&batch.outputs) {
        let out = out.as_ref().expect("well-conditioned");
        assert!(out.residual(a) < 1e-9, "service residual");
        assert!(out.orthogonality() < 1e-9, "service orthogonality");
    }

    println!("\nall QR-service claims verified");
}
