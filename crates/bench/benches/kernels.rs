//! Criterion wall-time benchmarks of the local kernels and small
//! end-to-end simulated factorizations. These complement the cost-model
//! benches: the paper's claims are about communication counts, but the
//! library should also be *fast enough* to use, and these catch
//! performance regressions in the kernels.
//!
//! The headline comparison is `gemm/blocked_512` vs `gemm/reference_512`:
//! the cache-blocked, register-tiled kernel must beat the seed's scalar
//! triple loop by ≥ 3× on a 512×512×512 product.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qr3d_bench::{run_caqr1d, run_caqr3d, run_tsqr};
use qr3d_core::prelude::*;
use qr3d_matrix::gemm::{gemm, gemm_reference, matmul, Trans};
use qr3d_matrix::qr::geqrt;
use qr3d_matrix::simd::{self, SimdLevel};
use qr3d_matrix::tri::lu_sign;
use qr3d_matrix::Matrix;

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    for n in [32usize, 64, 128] {
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| matmul(&a, &b));
        });
    }
    g.finish();
}

fn bench_gemm_512_blocked_vs_reference(c: &mut Criterion) {
    // The tentpole acceptance comparison: blocked ≥ 3× over the seed
    // scalar kernel at 512³.
    let n = 512usize;
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let mut g = c.benchmark_group("gemm");
    g.sample_size(10);
    g.bench_function("blocked_512", |bench| {
        let mut cm = Matrix::zeros(n, n);
        bench.iter(|| gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut cm));
    });
    g.bench_function("reference_512", |bench| {
        let mut cm = Matrix::zeros(n, n);
        bench.iter(|| gemm_reference(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut cm));
    });
    g.finish();
}

fn bench_gemm_simd_levels(c: &mut Criterion) {
    // Achieved GFLOP/s per dispatch level at 512³ (2n³ flops per
    // multiply). Forcing never exceeds hardware support, so on a
    // scalar-only host every row measures the same fallback.
    let n = 512usize;
    let flops = 2.0 * (n as f64).powi(3);
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let mut g = c.benchmark_group("gemm_simd");
    g.sample_size(10);
    for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
        if level > simd::detected_level() {
            continue;
        }
        g.bench_function(&format!("{level}_512"), |bench| {
            simd::force_level(Some(level));
            let mut cm = Matrix::zeros(n, n);
            let mut last = std::time::Duration::ZERO;
            bench.iter(|| {
                let t0 = std::time::Instant::now();
                gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut cm);
                last = t0.elapsed();
            });
            simd::force_level(None);
            if last > std::time::Duration::ZERO {
                eprintln!(
                    "gemm_simd/{level}_512: {:.2} GFLOP/s",
                    flops / last.as_secs_f64() / 1e9
                );
            }
        });
    }
    g.finish();
}

fn bench_geqrt(c: &mut Criterion) {
    let mut g = c.benchmark_group("geqrt");
    for (m, n) in [(256usize, 16usize), (512, 32), (16384, 64)] {
        let a = Matrix::random(m, n, 3);
        g.bench_with_input(
            BenchmarkId::new("panel", format!("{m}x{n}")),
            &a,
            |bench, a| {
                bench.iter(|| geqrt(a));
            },
        );
    }
    g.finish();
}

fn bench_lu_sign(c: &mut Criterion) {
    let mut g = c.benchmark_group("lu_sign");
    for n in [16usize, 64] {
        let x = Matrix::random(n, n, 4);
        g.bench_with_input(BenchmarkId::from_parameter(n), &x, |bench, x| {
            bench.iter(|| lu_sign(x));
        });
    }
    g.finish();
}

fn bench_simulated_qr(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulated_qr");
    g.sample_size(10);
    g.bench_function("tsqr_256x16_p4", |b| {
        b.iter(|| run_tsqr(256, 16, 4, 5));
    });
    g.bench_function("caqr1d_256x16_p4", |b| {
        b.iter(|| run_caqr1d(256, 16, 4, 8, 6));
    });
    g.bench_function("caqr3d_128x32_p4", |b| {
        b.iter(|| run_caqr3d(128, 32, 4, Caqr3dConfig::auto(128, 32, 4, 0.5), 7));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_gemm_512_blocked_vs_reference,
    bench_gemm_simd_levels,
    bench_geqrt,
    bench_lu_sign,
    bench_simulated_qr
);
criterion_main!(benches);
