//! The bitwise-equivalence contract of the dispatched kernels, pinned.
//!
//! The SIMD dispatch level (`QR3D_SIMD` / [`simd::force_level`]) must
//! never change a single bit of any output: scalar, AVX2, and AVX-512
//! (where the CPU has them) execute identical lanewise fma chains and a
//! fixed dot-reduction tree.
//!
//! Everything here asserts `to_bits()` equality, not tolerances. The
//! level-forcing tests live in ONE `#[test]` so the process-global
//! override is never contended by a concurrently running test.

use qr3d_matrix::gemm::{gemm, gemm_cols_in_place, gemm_upper_views, gram, Trans};
use qr3d_matrix::pivot::geqp3;
use qr3d_matrix::qr::{geqrt, q_times_padded_ws, thin_q};
use qr3d_matrix::scratch::LocalArena;
use qr3d_matrix::simd::{self, SimdLevel};
use qr3d_matrix::tri::{potrf, trsm, trsm_right_in_place, trsm_right_into, Side, Uplo};
use qr3d_matrix::Matrix;

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The bits of `geqrt`'s three factors.
fn geqrt_bits(a: &Matrix) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let f = geqrt(a);
    (bits(&f.v), bits(&f.t), bits(&f.r))
}

/// A well-conditioned `n × n` upper triangle.
fn upper(n: usize, seed: u64) -> Matrix {
    let src = Matrix::random(n, n, seed);
    Matrix::from_fn(n, n, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Less => src[(i, j)],
        std::cmp::Ordering::Equal => src[(i, j)] + n as f64,
        std::cmp::Ordering::Greater => 0.0,
    })
}

/// The recursive kernels' in-place pieces on one tall block: the
/// column-block multiply, the right solve on a block of rows, the
/// padded reflector apply and the thin Q-factor.
fn in_place_kernel_bits(rows: usize, n: usize) -> [Vec<u64>; 4] {
    let h = n / 2;
    let mut x = Matrix::random(rows, n, 31);
    x[(rows / 2, 0)] = f64::NAN; // 0·NaN must propagate on every path
    let b = Matrix::random(h, n - h, 32);
    gemm_cols_in_place(-1.0, x.view_mut(), 0..h, Trans::No, b.view(), h..n);
    let u = upper(n, 33);
    let mut y = Matrix::random(rows, n, 34);
    trsm_right_in_place(Uplo::Upper, false, false, &u, y.block_mut(1, rows, 0, n));
    let f = geqrt(&Matrix::random(rows, n, 35));
    let mut ws = LocalArena::new();
    let w = q_times_padded_ws(&mut ws, &f.v, &f.t, &Matrix::random(n, n, 36));
    [bits(&x), bits(&y), bits(&w), bits(&thin_q(&f.v, &f.t))]
}

/// What one CholeskyQR pass computes on a rank: the Gram matrix of a
/// `rows × 64` block (a NaN-free one, so the solve below stays
/// comparable) and `Q = A·R⁻¹`, out of place and in place.
fn gram_path_bits(rows: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let a = Matrix::random(rows, 64, 41);
    let g = gram(&a);
    let u = upper(64, 42);
    let mut q = Matrix::zeros(rows, 64);
    trsm_right_into(Uplo::Upper, false, false, &u, a.view(), q.view_mut());
    let mut q2 = a.clone();
    trsm_right_in_place(Uplo::Upper, false, false, &u, q2.view_mut());
    (bits(&g), bits(&q), bits(&q2))
}

/// Run `f` once per level this CPU supports (Scalar always included),
/// collecting `(level, result)` pairs; the override is cleared after.
fn per_level<T>(mut f: impl FnMut() -> T) -> Vec<(SimdLevel, T)> {
    let mut out = Vec::new();
    for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
        if level <= simd::detected_level() {
            simd::force_level(Some(level));
            out.push((level, f()));
        }
    }
    simd::force_level(None);
    out
}

fn assert_all_levels_equal<T: PartialEq + std::fmt::Debug>(results: &[(SimdLevel, T)], what: &str) {
    let (l0, first) = &results[0];
    for (level, r) in &results[1..] {
        assert_eq!(first, r, "{what}: {level} differs from {l0}");
    }
}

#[test]
fn simd_levels_are_bitwise_identical_across_kernels() {
    // gemm, and gemm with an upper-triangular op(B): odd shapes
    // straddling the MR/NR/MC/KC edges, all four transposes, with a
    // NaN-seeded operand so 0·NaN propagation is exercised on every
    // level (the PR 1 guard).
    let shapes = [
        (3usize, 5usize, 2usize),
        (5, 9, 17),
        (31, 33, 40),
        (64, 24, 129),
        (129, 257, 30),
        (130, 70, 65),
    ];
    for &(m, n, k) in &shapes {
        for (ta, tb) in [
            (Trans::No, Trans::No),
            (Trans::Yes, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::Yes),
        ] {
            let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
            let (br, bc) = if tb == Trans::No { (k, n) } else { (n, k) };
            let mut a = Matrix::random(ar, ac, (m * 13 + n) as u64);
            let mut b = Matrix::random(br, bc, (k * 7 + n) as u64);
            a[(0, 0)] = 0.0;
            b[(0, 0)] = f64::NAN;
            a[(ar - 1, ac - 1)] = f64::NAN;
            b[(br - 1, bc - 1)] = 0.0;
            let c0 = Matrix::random(m, n, 99);
            let results = per_level(|| {
                let mut c = c0.clone();
                gemm(ta, tb, 1.5, &a, &b, -0.5, &mut c);
                let mut upper = c0.clone();
                let (a, b) = (a.view(), b.view());
                gemm_upper_views(ta, tb, 1.5, a, b, -0.5, upper.view_mut());
                (bits(&c), bits(&upper))
            });
            assert_all_levels_equal(&results, &format!("gemm {m}x{n}x{k} {ta:?}/{tb:?}"));
        }
    }

    // geqrt: the full compact representation (V, T, R) — and the Q it
    // implies — must be bit-stable across levels.
    // Shapes: a ragged leaf, one leaf, one split, three levels of
    // splits, and the tall leaf-dominated shape of a TSQR leaf.
    for (m, n) in [
        (40usize, 5usize),
        (4096, 8),
        (96, 40),
        (150, 33),
        (64, 64),
        (4096, 64),
    ] {
        let a = Matrix::random(m, n, (m + n) as u64);
        let results = per_level(|| geqrt_bits(&a));
        assert_all_levels_equal(&results, &format!("geqrt {m}x{n}"));
    }

    // The in-place pieces of the recursive kernels: a block of a few
    // hundred multiply-adds, large blocks, and both sides of one solve
    // leaf.
    for (rows, n) in [(9usize, 7usize), (1000, 65), (4096, 64)] {
        let results = per_level(|| in_place_kernel_bits(rows, n));
        assert_all_levels_equal(&results, &format!("in-place kernels {rows}x{n}"));
    }

    // The Gram path: `syrk` on the dispatched microkernel and the right
    // solve's one source compiled per level, at every level.
    for rows in [4096usize, 16384] {
        let results = per_level(|| gram_path_bits(rows));
        assert_all_levels_equal(&results, &format!("gram path {rows}x64"));
    }

    // geqp3: pivot order, taus, and the factored panel.
    for (m, n) in [(80usize, 48usize), (60, 60)] {
        let a = Matrix::random(m, n, 5);
        let results = per_level(|| {
            let pqr = geqp3(&a);
            (bits(&pqr.q_factors.v), pqr.perm.clone(), bits(&pqr.r))
        });
        assert_all_levels_equal(&results, &format!("geqp3 {m}x{n}"));
    }

    // The left trsm and potrf: inside one diagonal tile (substitution
    // on the fused axpy only), and over several with their long-k
    // gemms.
    for n in [20usize, 96, 130] {
        let a = Matrix::random(n, n, 3);
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                l[(i, j)] = a[(i, j)];
            }
            l[(i, i)] += n as f64; // well-conditioned diagonal
        }
        let rhs = Matrix::random(n, 64, 4);
        let g = gram(&l);
        let results = per_level(|| {
            let x = trsm(Side::Left, Uplo::Lower, false, false, &l, &rhs);
            (bits(&x), bits(&potrf(&g).expect("SPD")))
        });
        assert_all_levels_equal(&results, &format!("trsm, potrf n={n}"));
    }
}
