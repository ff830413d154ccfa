//! The bitwise-equivalence contract of the dispatched kernels, pinned.
//!
//! The SIMD dispatch level (`QR3D_SIMD` / [`simd::force_level`]) must
//! never change a single bit of any output: scalar, AVX2, and AVX-512
//! (where the CPU has them) execute identical lanewise fma chains and a
//! fixed dot-reduction tree.
//!
//! Everything here asserts `to_bits()` equality, not tolerances. The
//! tests take turns at the process-global override ([`per_level`]), so
//! each one runs at the level it forced.

use qr3d_matrix::gemm::{
    gemm, gemm_cols_in_place, gemm_triangular_views, gemm_upper_views, gemm_views, gram, Trans,
    TriA, KC, MC,
};
use qr3d_matrix::pivot::geqp3;
use qr3d_matrix::qr::{geqrt, q_times_padded_ws, thin_q};
use qr3d_matrix::scratch::LocalArena;
use qr3d_matrix::simd::{self, SimdLevel};
use qr3d_matrix::tri::{potrf, trsm, trsm_right_in_place, trsm_right_into, Side, Uplo};
use qr3d_matrix::{MatRef, Matrix};
use std::sync::{Mutex, PoisonError};

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
/// `rows × n` block (a NaN-free one, so the solve below stays
/// comparable) and `Q = A·R⁻¹`, out of place and in place.
fn gram_path_bits(rows: usize, n: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let a = Matrix::random(rows, n, 41);
    let g = gram(&a);
    let u = upper(n, 42);
    let mut q = Matrix::zeros(rows, n);
    trsm_right_into(Uplo::Upper, false, false, &u, a.view(), q.view_mut());
    let mut q2 = a.clone();
    trsm_right_in_place(Uplo::Upper, false, false, &u, q2.view_mut());
    (bits(&g), bits(&q), bits(&q2))
}

/// The levels this CPU supports, Scalar always included.
fn detected_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|&level| level <= simd::detected_level())
        .collect()
}

/// Run `f` once per level this CPU supports, collecting `(level,
/// result)` pairs; the override is cleared after. One caller at a time.
fn per_level<T>(mut f: impl FnMut() -> T) -> Vec<(SimdLevel, T)> {
    static TURN: Mutex<()> = Mutex::new(());
    // A failed test poisons the lock; the `()` it guards is intact.
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let mut out = Vec::new();
    for level in detected_levels() {
        simd::force_level(Some(level));
        out.push((level, f()));
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
    // solve's one source compiled per level, at every level. Widths with
    // paired tiles and the right panel's diagonal tile alone (20, 24,
    // 64, 65), a lone last panel (20, 24, 65), a ragged one (20, 65);
    // every height over more than one `KC` chunk.
    let widths = [20usize, 24, 64, 65];
    let shapes = [300usize, 4096]
        .into_iter()
        .flat_map(|rows| widths.map(|n| (rows, n)));
    for (rows, n) in shapes.chain([(16384, 64)]) {
        let results = per_level(|| gram_path_bits(rows, n));
        assert_all_levels_equal(&results, &format!("gram path {rows}x{n}"));
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

/// A well-conditioned `n × n` triangle of either side.
fn triangle(n: usize, uplo: Uplo, seed: u64) -> Matrix {
    let u = upper(n, seed);
    match uplo {
        Uplo::Upper => u,
        Uplo::Lower => u.transpose(),
    }
}

/// Every `(uplo, transpose, unit_diag)` variant of the right solve.
fn right_solve_variants() -> impl Iterator<Item = (Uplo, bool, bool)> {
    [Uplo::Upper, Uplo::Lower]
        .into_iter()
        .flat_map(|uplo| [false, true].map(|t| (uplo, t)))
        .flat_map(|(uplo, t)| [false, true].map(|unit| (uplo, t, unit)))
}

/// `rows × n` random entries with a NaN, both infinities and a −0
/// spread over the rows and the column blocks.
fn specials(rows: usize, n: usize, seed: u64) -> Matrix {
    let mut b = Matrix::random(rows, n, seed);
    let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
    for (t, v) in values.into_iter().enumerate() {
        b[((3 * t + 1) % rows, (5 * t + 2) % n)] = v;
    }
    b
}

/// A NaN's bits, with every NaN read as one: under a build without
/// `-C target-cpu` the portable level negates `x` in software before
/// `fma(−x, t, acc)`, which flips a NaN's sign, where the FMA
/// instructions' `fnmadd` passes the NaN on as it is.
fn bits_any_nan(m: &Matrix) -> Vec<u64> {
    let nan = f64::NAN.to_bits();
    m.as_slice()
        .iter()
        .map(|v| if v.is_nan() { nan } else { v.to_bits() })
        .collect()
}

#[test]
fn right_solve_levels_agree_in_every_variant() {
    // TSQR's `V = W·U⁻¹` solves Upper, `form_t` Lower, transposed and
    // unit; CholeskyQR's `Q = A·R⁻¹` Upper. Orders on both sides of one
    // and of eight column blocks, and group heights that take the
    // ragged-group staging (1, 7, 9) and that do not (8, 1000).
    let swept: Vec<&str> = detected_levels().into_iter().map(SimdLevel::name).collect();
    println!(
        "right solve: detected {}, sweeping {}",
        simd::detected_level(),
        swept.join(", ")
    );
    for n in [1usize, 7, 8, 9, 64, 65] {
        for rows in [1usize, 7, 8, 9, 1000] {
            let b = specials(rows, n, (rows * 3 + n) as u64);
            for (uplo, transpose, unit) in right_solve_variants() {
                let what = format!("{rows}x{n} {uplo:?} trans={transpose} unit={unit}");
                let a = triangle(n, uplo, n as u64);
                let results = per_level(|| {
                    let mut into = Matrix::zeros(rows, n);
                    trsm_right_into(uplo, transpose, unit, &a, b.view(), into.view_mut());
                    let mut in_place = b.clone();
                    trsm_right_in_place(uplo, transpose, unit, &a, in_place.view_mut());
                    assert_eq!(
                        bits(&into),
                        bits(&in_place),
                        "{what} at {}: into and in place differ",
                        simd::active_level()
                    );
                    bits_any_nan(&into)
                });
                assert_all_levels_equal(&results, &what);
            }
        }
    }
}

#[test]
fn right_solve_writes_only_its_block() {
    // The solved block sits inside a wider and taller matrix (row
    // stride above `n`, rows and columns on every side), whose other
    // words hold a sentinel: the AVX-512 level writes through raw
    // pointers, with masked stores on a ragged last column block.
    const SENTINEL: f64 = 1e300;
    let (r0, c0) = (2usize, 3usize);
    for n in [1usize, 7, 9, 64, 65] {
        for rows in [1usize, 7, 9, 17] {
            let b = Matrix::random(rows, n, (rows + n) as u64);
            let (tall, wide) = (rows + r0 + 3, n + c0 + 5);
            let mut source = Matrix::from_fn(tall, wide, |_, _| SENTINEL);
            source.set_submatrix(r0, c0, &b);
            for (uplo, transpose, unit) in right_solve_variants() {
                let a = triangle(n, uplo, 7);
                let what = format!("{rows}x{n} {uplo:?} trans={transpose} unit={unit}");
                per_level(|| {
                    let level = simd::active_level();
                    let mut want = b.clone();
                    trsm_right_in_place(uplo, transpose, unit, &a, want.view_mut());

                    let mut in_place = source.clone();
                    let block = in_place.block_mut(r0, r0 + rows, c0, c0 + n);
                    trsm_right_in_place(uplo, transpose, unit, &a, block);
                    let mut into = Matrix::from_fn(tall, wide, |_, _| SENTINEL);
                    let block = into.block_mut(r0, r0 + rows, c0, c0 + n);
                    let from = source.block(r0, r0 + rows, c0, c0 + n);
                    trsm_right_into(uplo, transpose, unit, &a, from, block);

                    for (form, m) in [("in place", &in_place), ("into", &into)] {
                        assert_eq!(
                            bits(&m.submatrix(r0, r0 + rows, c0, c0 + n)),
                            bits(&want),
                            "{what} {form} at {level}"
                        );
                        for i in 0..tall {
                            for j in 0..wide {
                                let inside =
                                    (r0..r0 + rows).contains(&i) && (c0..c0 + n).contains(&j);
                                assert!(
                                    inside || m[(i, j)].to_bits() == SENTINEL.to_bits(),
                                    "{what} {form} at {level}: ({i}, {j}) written"
                                );
                            }
                        }
                    }
                });
            }
        }
    }
}

/// `C = beta·C + alpha·op(A)·op(B)` entry by entry, as `gemm` documents
/// it: `c *= beta`, then per `KC` chunk of the contraction an fma chain
/// from `+0` in `k` order, then `c = c + alpha·acc`. With `upper_b`,
/// `op(B)` is read as zero below its diagonal.
#[allow(clippy::too_many_arguments)]
fn oracle(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    beta: f64,
    c: &mut Matrix,
    upper_b: bool,
) {
    oracle_triangular(ta, tb, alpha, a, None, b, beta, c, upper_b);
}

/// Whether `tri` says `op(A)[i, l]` is zero.
fn in_triangle(tri: TriA, i: usize, l: usize) -> bool {
    match tri {
        TriA::Upper(first) => l < first + i,
        TriA::Lower(first) => l > first + i,
    }
}

/// [`oracle`] with `op(A)` read as zero in the triangle `tri_a` names.
#[allow(clippy::too_many_arguments)]
fn oracle_triangular(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: MatRef<'_>,
    tri_a: Option<TriA>,
    b: MatRef<'_>,
    beta: f64,
    c: &mut Matrix,
    upper_b: bool,
) {
    let op = |t: Trans, m: MatRef<'_>, i: usize, j: usize| match t {
        Trans::No => m.at(i, j),
        Trans::Yes => m.at(j, i),
    };
    let k = if ta == Trans::No { a.cols() } else { a.rows() };
    // The rows of op(A) and the columns of op(B), each as k words.
    let a_rows = Matrix::from_fn(c.rows(), k, |i, l| {
        if tri_a.is_some_and(|tri| in_triangle(tri, i, l)) {
            0.0
        } else {
            op(ta, a, i, l)
        }
    });
    let b_cols = Matrix::from_fn(c.cols(), k, |j, l| {
        if upper_b && l > j {
            0.0
        } else {
            op(tb, b, l, j)
        }
    });
    for i in 0..c.rows() {
        for j in 0..c.cols() {
            let mut cij = c[(i, j)];
            if beta != 1.0 {
                cij *= beta;
            }
            if alpha != 0.0 {
                for pc in (0..k).step_by(KC) {
                    let pairs = a_rows.row(i)[pc..].iter().zip(&b_cols.row(j)[pc..]);
                    let acc = pairs
                        .take(KC)
                        .fold(0.0f64, |acc, (x, y)| x.mul_add(*y, acc));
                    cij += alpha * acc;
                }
            }
            c[(i, j)] = cij;
        }
    }
}

/// The NaN this machine's arithmetic produces (`0·∞`). Which NaN an
/// operation returns where two meet is the compiler's choice, so the
/// seeds use this one: then every NaN in flight has the same bits, and
/// a NaN's sign and payload can be compared like any other bits.
fn machine_nan() -> f64 {
    std::hint::black_box(0.0f64) * f64::INFINITY
}

/// `rows × cols` random entries with NaN, both infinities and −0 at
/// scattered places (the rest finite), or only −0 with `finite`.
fn seeded(rows: usize, cols: usize, seed: u64, finite: bool) -> Matrix {
    let mut m = Matrix::random(rows, cols, seed);
    let specials = [machine_nan(), f64::INFINITY, f64::NEG_INFINITY, -0.0];
    let len = rows * cols;
    for (t, v) in specials.into_iter().enumerate() {
        if finite && !v.is_finite() {
            continue;
        }
        let at = (t * 7919 + seed as usize * 31) % len;
        m[(at / cols, at % cols)] = v;
    }
    m
}

/// `m` as a block of a larger matrix whose row stride exceeds `m`'s
/// width: returned with the block's top-left corner.
fn padded(m: &Matrix, seed: u64) -> (Matrix, usize, usize) {
    let mut big = Matrix::random(m.rows() + 3, m.cols() + 5, seed);
    big.set_submatrix(2, 1, m);
    (big, 2, 1)
}

#[test]
fn gemm_matches_its_oracle_at_every_level() {
    // Rows on both sides of the ragged row panel (`MR` = 8) and of the
    // `MC` rows up to which a plain `op(B)` is read in place; columns on
    // both sides of one and two `NR`-column panels, and two (16) and
    // three (24, 25) panels, whose first two run as one pair of tiles
    // (with `upper`, the right one deeper); `k` on both sides of one
    // `KC` chunk and over two. Every operand is a block of a larger
    // matrix (row stride above its width), seeded with NaN, ±∞ and −0;
    // `gemm_upper_views` with −0 and finite values only, which is where
    // its documented equality holds.
    let swept: Vec<&str> = detected_levels().into_iter().map(SimdLevel::name).collect();
    println!(
        "gemm oracle: detected {}, sweeping {}",
        simd::detected_level(),
        swept.join(", ")
    );
    const { assert!(MC < 300 && KC < 600, "the shapes no longer cross MC and KC") };
    let transposes = [
        (Trans::No, Trans::No),
        (Trans::Yes, Trans::No),
        (Trans::No, Trans::Yes),
        (Trans::Yes, Trans::Yes),
    ];
    // Each shape takes one transpose pair and one column-update form,
    // in turn: along any one of the three extents the pairs and forms
    // run through all four (`turn` steps once more per row count, so
    // that a row count's 40 shapes do not bring the next back to the
    // same turn), so every row count, column count and depth meets each
    // of them.
    let mut turn = 0usize;
    for m in [1usize, 7, 8, 9, 127, 128, 129, 300] {
        for n in [1usize, 7, 8, 9, 16, 17, 24, 25] {
            for k in [1usize, 255, 256, 257, 600] {
                let seed = (m * 1000 + n * 10 + k) as u64;
                let (ta, tb) = transposes[turn % 4];
                for upper in [false, true] {
                    check_views_against_oracle((m, n, k), ta, tb, upper, seed);
                }
                let (tb, a_first) = ([Trans::No, Trans::Yes][turn % 2], turn % 4 < 2);
                check_cols_against_oracle((m, n, k), tb, a_first, seed);
                turn += 1;
            }
        }
        turn += 1;
    }
}

#[test]
fn gemm_matches_its_oracle_with_a_triangular_left_operand() {
    // `gemm_triangular_views`: op(B) upper and op(A) upper or lower,
    // its rows taken from the top, from a row off a tile boundary, and
    // from a row whose diagonal crosses the `KC` = 256 boundary inside a
    // row tile, as a block of V's rows does. Rows on both
    // sides of a ragged `MR` tile, columns in one panel, a pair, a pair
    // and a lone panel and a ragged one; `k` inside one chunk, on both
    // sides of `KC` and over three. The triangle holds +0 and −0, the
    // rest finite values and −0, which is where the documented equality
    // holds; every operand is a block of a larger matrix.
    let triangles = [
        TriA::Upper(0),
        TriA::Upper(3),
        TriA::Upper(200),
        TriA::Lower(0),
        TriA::Lower(5),
        TriA::Lower(250),
    ];
    let transposes = [
        (Trans::No, Trans::No),
        (Trans::Yes, Trans::No),
        (Trans::No, Trans::Yes),
        (Trans::Yes, Trans::Yes),
    ];
    let mut turn = 0usize;
    for m in [1usize, 7, 9, 17, 130] {
        for n in [8usize, 16, 17, 24, 25] {
            for k in [9usize, 255, 257, 600] {
                for tri in triangles {
                    let (ta, tb) = transposes[turn % 4];
                    let seed = (m * 1000 + n * 10 + k + turn) as u64;
                    check_triangular_against_oracle((m, n, k), ta, tb, tri, seed);
                    turn += 1;
                }
            }
        }
    }
}

/// `gemm_triangular_views` on blocks of larger matrices against
/// [`oracle_triangular`], at every level.
fn check_triangular_against_oracle(
    (m, n, k): (usize, usize, usize),
    ta: Trans,
    tb: Trans,
    tri: TriA,
    seed: u64,
) {
    let what = format!("{m}x{n}x{k} {ta:?}/{tb:?} {tri:?}");
    let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
    let (br, bc) = if tb == Trans::No { (k, n) } else { (n, k) };
    // op(A) with zeros of both signs in its triangle.
    let mut a = seeded(ar, ac, seed, true);
    for i in 0..m {
        for l in (0..k).filter(|&l| in_triangle(tri, i, l)) {
            let zero = if (i + l) % 3 == 0 { -0.0 } else { 0.0 };
            match ta {
                Trans::No => a[(i, l)] = zero,
                Trans::Yes => a[(l, i)] = zero,
            }
        }
    }
    let (big_a, ra, ca) = padded(&a, seed + 1);
    let (big_b, rb, cb) = padded(&seeded(br, bc, seed + 2, true), seed + 3);
    let a = big_a.block(ra, ra + ar, ca, ca + ac);
    let b = big_b.block(rb, rb + br, cb, cb + bc);
    let c0 = seeded(m, n, seed + 4, true);
    let mut want = c0.clone();
    oracle_triangular(ta, tb, 1.5, a, Some(tri), b, -0.5, &mut want, true);
    let want = bits(&want);
    let (big_c, rc, cc) = padded(&c0, seed + 5);
    per_level(|| {
        let mut got = big_c.clone();
        let block = got.block_mut(rc, rc + m, cc, cc + n);
        gemm_triangular_views(ta, tb, 1.5, a, tri, b, -0.5, block);
        let got = got.submatrix(rc, rc + m, cc, cc + n);
        assert_eq!(bits(&got), want, "{what} at {}", simd::active_level());
    });
}

/// `gemm_views` — or with `upper` `gemm_upper_views` — on blocks of
/// larger matrices against [`oracle`], at every level.
fn check_views_against_oracle(
    (m, n, k): (usize, usize, usize),
    ta: Trans,
    tb: Trans,
    upper: bool,
    seed: u64,
) {
    let what = format!("{m}x{n}x{k} {ta:?}/{tb:?} upper={upper}");
    let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
    let (br, bc) = if tb == Trans::No { (k, n) } else { (n, k) };
    let (big_a, ra, ca) = padded(&seeded(ar, ac, seed, upper), seed + 1);
    let (big_b, rb, cb) = padded(&seeded(br, bc, seed + 2, upper), seed + 3);
    let a = big_a.block(ra, ra + ar, ca, ca + ac);
    let b = big_b.block(rb, rb + br, cb, cb + bc);
    let c0 = seeded(m, n, seed + 4, upper);
    let mut want = c0.clone();
    oracle(ta, tb, 1.5, a, b, -0.5, &mut want, upper);
    let want = bits(&want);
    let (big_c, rc, cc) = padded(&c0, seed + 5);
    per_level(|| {
        let mut got = big_c.clone();
        let block = got.block_mut(rc, rc + m, cc, cc + n);
        if upper {
            gemm_upper_views(ta, tb, 1.5, a, b, -0.5, block);
        } else {
            gemm_views(ta, tb, 1.5, a, b, -0.5, block);
        }
        let got = got.submatrix(rc, rc + m, cc, cc + n);
        assert_eq!(bits(&got), want, "{what} at {}", simd::active_level());
    });
}

/// The column-block update `X[:, c] += −1·X[:, a]·op(B)`, its operand
/// left or right of the output, against [`oracle`] at every level.
fn check_cols_against_oracle(
    (m, n, k): (usize, usize, usize),
    tb: Trans,
    a_first: bool,
    seed: u64,
) {
    let what = format!("cols {m}x{n}x{k} {tb:?} a_first={a_first}");
    let b = match tb {
        Trans::No => seeded(k, n, seed + 6, false),
        Trans::Yes => seeded(n, k, seed + 6, false),
    };
    let width = k + n + 3;
    let (a_cols, c_cols) = if a_first {
        (1..1 + k, 2 + k..2 + k + n)
    } else {
        (2 + n..2 + n + k, 1..1 + n)
    };
    let x = seeded(m + 2, width, seed + 7, false);
    let a = x.block(1, 1 + m, a_cols.start, a_cols.end);
    let mut want = x.submatrix(1, 1 + m, c_cols.start, c_cols.end);
    oracle(Trans::No, tb, -1.0, a, b.view(), 1.0, &mut want, false);
    let want = bits(&want);
    per_level(|| {
        let mut got = x.clone();
        let block = got.block_mut(1, 1 + m, 0, width);
        gemm_cols_in_place(-1.0, block, a_cols.clone(), tb, b.view(), c_cols.clone());
        let got = got.submatrix(1, 1 + m, c_cols.start, c_cols.end);
        assert_eq!(bits(&got), want, "{what} at {}", simd::active_level());
    });
}

#[test]
fn gemm_reads_only_its_blocks() {
    // Every operand is a block inside a larger matrix whose other words
    // are NaN: op(A) and op(B) read where they lie (and a ragged row
    // panel's repeated row) must stay inside their blocks, or a NaN
    // reaches C; and C must be the oracle's, bit for bit, which a panel
    // read from the wrong columns of its block is not. Row counts with a
    // ragged last panel, at and past `MC`; columns in one panel, in a
    // pair of panels and a ragged one (17), and in a pair and a lone
    // full panel (24); all transposes, and the column-block update with
    // its operand on either side.
    // `src` at (r0, c0) of a NaN-filled matrix, with as many NaN rows
    // and columns after it as before.
    let embed = |src: &Matrix, r0: usize, c0: usize| {
        let (rows, cols) = (src.rows() + 2 * r0, src.cols() + 2 * c0);
        let mut big = Matrix::from_fn(rows, cols, |_, _| f64::NAN);
        big.set_submatrix(r0, c0, src);
        big
    };
    let outside_kept = |got: &Matrix,
                        before: &Matrix,
                        rows: std::ops::Range<usize>,
                        cols: std::ops::Range<usize>| {
        (0..got.rows()).all(|i| {
            (0..got.cols()).all(|j| {
                (rows.contains(&i) && cols.contains(&j))
                    || got[(i, j)].to_bits() == before[(i, j)].to_bits()
            })
        })
    };
    for m in [9usize, 129] {
        for (n, k) in [(17usize, 300usize), (8, 9), (24, 300)] {
            for (ta, tb) in [
                (Trans::No, Trans::No),
                (Trans::Yes, Trans::No),
                (Trans::No, Trans::Yes),
                (Trans::Yes, Trans::Yes),
            ] {
                let (ar, ac) = if ta == Trans::No { (m, k) } else { (k, m) };
                let (br, bc) = if tb == Trans::No { (k, n) } else { (n, k) };
                let big_a = embed(&Matrix::random(ar, ac, 1), 2, 3);
                let big_b = embed(&Matrix::random(br, bc, 2), 1, 2);
                let big_c = embed(&Matrix::random(m, n, 3), 2, 1);
                let a = big_a.block(2, 2 + ar, 3, 3 + ac);
                let b = big_b.block(1, 1 + br, 2, 2 + bc);
                let mut want = big_c.submatrix(2, 2 + m, 1, 1 + n);
                oracle(ta, tb, 1.5, a, b, -0.5, &mut want, false);
                per_level(|| {
                    let what = format!("{m}x{n}x{k} {ta:?}/{tb:?} at {}", simd::active_level());
                    let mut got = big_c.clone();
                    gemm_views(ta, tb, 1.5, a, b, -0.5, got.block_mut(2, 2 + m, 1, 1 + n));
                    let c = got.submatrix(2, 2 + m, 1, 1 + n);
                    assert!(
                        c.as_slice().iter().all(|v| v.is_finite()),
                        "{what}: NaN in C"
                    );
                    assert_eq!(bits(&c), bits(&want), "{what}: not the oracle's");
                    assert!(
                        outside_kept(&got, &big_c, 2..2 + m, 1..1 + n),
                        "{what}: wrote outside C"
                    );
                });
            }
            for tb in [Trans::No, Trans::Yes] {
                let b = if tb == Trans::No {
                    Matrix::random(k, n, 4)
                } else {
                    Matrix::random(n, k, 4)
                };
                for a_first in [true, false] {
                    let (a_cols, c_cols) = if a_first {
                        (0..k, k..k + n)
                    } else {
                        (n..n + k, 0..n)
                    };
                    let big_x = embed(&Matrix::random(m, k + n, 5), 2, 3);
                    let x = big_x.block(2, 2 + m, 3, 3 + k + n);
                    let (a, c) = (
                        x.block(0, m, a_cols.start, a_cols.end),
                        x.block(0, m, c_cols.start, c_cols.end),
                    );
                    let mut want = c.to_matrix();
                    oracle(Trans::No, tb, -1.0, a, b.view(), 1.0, &mut want, false);
                    per_level(|| {
                        let what = format!(
                            "cols {m}x{n}x{k} {tb:?} a_first={a_first} at {}",
                            simd::active_level()
                        );
                        let mut got = big_x.clone();
                        let block = got.block_mut(2, 2 + m, 3, 3 + k + n);
                        gemm_cols_in_place(
                            -1.0,
                            block,
                            a_cols.clone(),
                            tb,
                            b.view(),
                            c_cols.clone(),
                        );
                        let cols = 3 + c_cols.start..3 + c_cols.end;
                        let c = got.submatrix(2, 2 + m, cols.start, cols.end);
                        assert!(
                            c.as_slice().iter().all(|v| v.is_finite()),
                            "{what}: NaN in C"
                        );
                        assert_eq!(bits(&c), bits(&want), "{what}: not the oracle's");
                        assert!(
                            outside_kept(&got, &big_x, 2..2 + m, cols),
                            "{what}: wrote outside C"
                        );
                    });
                }
            }
        }
    }
}
