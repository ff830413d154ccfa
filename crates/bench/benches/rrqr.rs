//! Experiment — **the rank-revealing subsystem**: pivoted GEQP3 versus
//! randomized RRQR, and the rank-aware advisor.
//!
//! ```text
//! backend    pivot strategy            latency       rank answer
//! PivotQr    exact greedy tournament   Θ(n log P)    exact greedy
//! RandRrqr   Gaussian-sketch, local    O(log P)      sketch-detected
//! ```
//!
//! Claims checked on real executions:
//! * both backends detect the exact rank of constructed rank-k inputs
//!   and agree with the local `geqp3` kernel,
//! * RandRrqr spends ≥ 3× fewer critical-path messages than PivotQr on
//!   the same tall-skinny input (the point of the sketch),
//! * the rank-aware advisor routes a deficient-hinted tall-skinny input
//!   to a rank-revealing backend, and `factor_auto` then returns the
//!   exact rank with `‖A·P − Q·R‖/‖A‖ ≤ 1e-12`.

use qr3d_bench::report::header;
use qr3d_bench::{run_pivotqr, run_rrqr};
use qr3d_core::prelude::*;
use qr3d_machine::{CostParams, Machine};
use qr3d_matrix::gemm::matmul;
use qr3d_matrix::layout::BlockRow;
use qr3d_matrix::pivot::geqp3;
use qr3d_matrix::Matrix;

fn rank_k(m: usize, n: usize, k: usize, seed: u64) -> Matrix {
    let b = Matrix::random(m, k, seed);
    let c = Matrix::random(k, n, seed + 1000);
    matmul(&b, &c)
}

fn main() {
    let (m, n, p) = (512usize, 16usize, 8usize);

    header("critical-path costs (512×16, P = 8, full-rank input)");
    let piv = run_pivotqr(m, n, p, 7);
    let rrq = run_rrqr(m, n, p, 7);
    println!("{:<10} {:>14} {:>12} {:>10}", "backend", "F", "W", "S");
    for (name, c) in [("PivotQr", piv), ("RandRrqr", rrq)] {
        println!(
            "{name:<10} {:>14.0} {:>12.0} {:>10.0}",
            c.flops, c.words, c.msgs
        );
    }
    assert!(
        rrq.msgs * 3.0 <= piv.msgs,
        "the sketch must amortize the tournament: rrqr S = {} vs pivot S = {}",
        rrq.msgs,
        piv.msgs
    );

    header("rank detection on constructed rank-k inputs (64×16, P = 4)");
    println!(
        "{:>4} {:>10} {:>10} {:>10}",
        "k", "geqp3", "PivotQr", "RandRrqr"
    );
    let lay = BlockRow::balanced(64, 1, 4);
    let counts = lay.counts().to_vec();
    for k in [1usize, 4, 9, 16] {
        let a = rank_k(64, 16, k, 40 + k as u64);
        let local = geqp3(&a).rank;
        let machine = Machine::new(4, CostParams::unit());
        let counts2 = counts.clone();
        let aref = &a;
        let piv_rank = machine
            .run(|rank| {
                let w = rank.world();
                let a_loc = aref.take_rows(&lay.local_rows(w.rank()));
                pivot_qr_factor(rank, &w, &a_loc, &counts2)
            })
            .results[0]
            .rank;
        let counts2 = counts.clone();
        let rrqr_rank = machine
            .run(|rank| {
                let w = rank.world();
                let a_loc = aref.take_rows(&lay.local_rows(w.rank()));
                rrqr_factor(rank, &w, &a_loc, &counts2, &RrqrConfig::default())
            })
            .results[0]
            .rank;
        println!("{k:>4} {local:>10} {piv_rank:>10} {rrqr_rank:>10}");
        assert_eq!(local, k, "local geqp3 detects k = {k}");
        assert_eq!(piv_rank, k, "PivotQr detects k = {k}");
        assert_eq!(rrqr_rank, k, "RandRrqr matches geqp3 at k = {k}");
    }

    header("rank-aware advisor (cluster, rank hint = Deficient)");
    let a = rank_k(512, 16, 5, 77);
    let params = FactorParams::new(CostParams::cluster()).with_rank_hint(RankHint::Deficient);
    let backend = params.auto(512, 16, 8);
    println!("advised backend for a suspected-deficient 512×16: {backend:?}");
    assert!(
        matches!(backend, QrBackend::PivotQr | QrBackend::RandRrqr),
        "a deficient hint must route to a rank-revealing backend, got {backend:?}"
    );
    let out = factor_auto(&a, 8, &params).expect("rank-revealing backends don't break down");
    println!(
        "detected rank {} (true 5), residual {:.2e}",
        out.detected_rank,
        out.residual(&a)
    );
    assert_eq!(out.detected_rank, 5, "exact rank through factor_auto");
    assert!(out.perm.is_some(), "permutation surfaced");
    assert!(out.residual(&a) <= 1e-12, "‖A·P − Q·R‖/‖A‖ ≤ 1e-12");

    header("silent-deficiency diagnostic (plain Householder)");
    let full = FactorParams::new(CostParams::cluster());
    let out = factor(&a, 8, QrBackend::Tsqr, &full).unwrap();
    println!(
        "Tsqr on the same rank-5 input: residual {:.2e}, detected_rank {}",
        out.residual(&a),
        out.detected_rank
    );
    assert!(
        out.detected_rank < 16,
        "the R-decay diagnostic must flag the deficiency"
    );

    println!("\nrrqr: all claims hold");
}
