//! Criterion wall-time comparison of the local QR kernel suite against
//! the unblocked references: `geqrt` (recursive, gemm updates down to
//! 8-column leaves) vs `geqrt_reference` (column-at-a-time rank-1
//! updates), and the blocked `trsm`/`potrf`, the register-blocked right
//! `trsm` and the upper-tile `syrk` vs their scalar baselines. The
//! small shapes are the TSQR merges, 3D base-case panels and service
//! requests, the tall ones a TSQR leaf or CholeskyQR block.
//!
//! The regression *gate* for these kernels lives in `bench_gate`
//! (`speedup/geqrt_blocked_over_reference_*` records); this bench is the
//! detailed view — run `cargo bench -p qr3d-bench --bench local_qr`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qr3d_matrix::gemm::{matmul_tn, syrk, syrk_reference};
use qr3d_matrix::qr::{geqrt, geqrt_reference};
use qr3d_matrix::tri::{potrf, potrf_reference, trsm, trsm_reference, Side, Uplo};
use qr3d_matrix::Matrix;

fn bench_geqrt_blocked_vs_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("local_qr/geqrt");
    g.sample_size(10);
    for (m, n) in [
        (32usize, 16usize),
        (48, 48),
        (96, 96),
        (128, 64),
        (256, 64),
        (1024, 256),
        (16384, 64),
    ] {
        let a = Matrix::random(m, n, 3);
        g.bench_with_input(
            BenchmarkId::new("blocked", format!("{m}x{n}")),
            &a,
            |bench, a| bench.iter(|| geqrt(a)),
        );
        g.bench_with_input(
            BenchmarkId::new("reference", format!("{m}x{n}")),
            &a,
            |bench, a| bench.iter(|| geqrt_reference(a)),
        );
    }
    g.finish();
}

fn bench_trsm_blocked_vs_naive(c: &mut Criterion) {
    let n = 256usize;
    let r = {
        let a = Matrix::random(2 * n, n, 5);
        potrf(&matmul_tn(&a, &a)).expect("SPD")
    };
    let b = Matrix::random(n, n, 6);
    let mut g = c.benchmark_group("local_qr/trsm_256");
    g.sample_size(10);
    g.bench_function("blocked", |bench| {
        bench.iter(|| trsm(Side::Left, Uplo::Upper, false, false, &r, &b))
    });
    g.bench_function("naive", |bench| {
        bench.iter(|| trsm_reference(Side::Left, Uplo::Upper, false, false, &r, &b))
    });
    g.finish();
}

fn bench_trsm_right_vs_naive(c: &mut Criterion) {
    // A TSQR leaf / CholeskyQR block, and the short solves the 3D path
    // (≤ 96 rows × 48 columns) and the service (256×16) run.
    for (m, n) in [(16384usize, 64usize), (96, 48), (256, 16)] {
        let b = Matrix::random(m, n, 8);
        let r = geqrt(&Matrix::random(4 * n, n, 9)).r;
        let mut g = c.benchmark_group(format!("local_qr/trsm_right_{m}x{n}"));
        g.sample_size(10);
        g.bench_function("blocked", |bench| {
            bench.iter(|| trsm(Side::Right, Uplo::Upper, false, false, &r, &b))
        });
        g.bench_function("naive", |bench| {
            bench.iter(|| trsm_reference(Side::Right, Uplo::Upper, false, false, &r, &b))
        });
        g.finish();
    }
}

fn bench_syrk_blocked_vs_naive(c: &mut Criterion) {
    // The CholeskyQR block, the service's request, and an order wide
    // enough for several `MC` blocks of tile rows.
    for (m, n) in [(16384usize, 64usize), (4096, 64), (256, 16), (2048, 512)] {
        let a = Matrix::random(m, n, 10);
        let mut gram = Matrix::zeros(n, n);
        let mut g = c.benchmark_group(format!("local_qr/syrk_{m}x{n}"));
        g.sample_size(10);
        g.bench_function("blocked", |bench| {
            bench.iter(|| syrk(1.0, &a, 0.0, &mut gram))
        });
        g.bench_function("naive", |bench| {
            bench.iter(|| syrk_reference(1.0, &a, 0.0, &mut gram))
        });
        g.finish();
    }
}

fn bench_potrf_blocked_vs_naive(c: &mut Criterion) {
    let n = 256usize;
    let gmat = {
        let a = Matrix::random(2 * n, n, 7);
        matmul_tn(&a, &a)
    };
    let mut g = c.benchmark_group("local_qr/potrf_256");
    g.sample_size(10);
    g.bench_function("blocked", |bench| bench.iter(|| potrf(&gmat).expect("SPD")));
    g.bench_function("naive", |bench| {
        bench.iter(|| potrf_reference(&gmat).expect("SPD"))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_geqrt_blocked_vs_reference,
    bench_trsm_blocked_vs_naive,
    bench_trsm_right_vs_naive,
    bench_syrk_blocked_vs_naive,
    bench_potrf_blocked_vs_naive
);
criterion_main!(benches);
