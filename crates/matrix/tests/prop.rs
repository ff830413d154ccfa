//! Property tests on the dense kernels: algebraic identities that must
//! hold for arbitrary shapes and inputs.

use proptest::prelude::*;
use qr3d_matrix::gemm::{
    gemm, gemm_cols_in_place, gemm_upper_views, gemm_views, matmul, matmul_nt, matmul_tn, syrk,
    syrk_reference, Trans,
};
use qr3d_matrix::partition::{balanced_ranges, balanced_sizes, part_of};
use qr3d_matrix::pivot::{geqp3, is_permutation, permute_cols};
use qr3d_matrix::qr::{
    apply_block_reflector_ws, geqrt, geqrt_reference, q_times, q_times_padded_into,
    q_times_padded_ws, qt_times, thin_q, thin_q_blocks, GEQRT_LEAF,
};
use qr3d_matrix::scratch::LocalArena;
use qr3d_matrix::tri::{
    lu_sign, potrf, potrf_reference, trsm, trsm_reference, trsm_right_in_place, Side, Uplo, TRI_NB,
};
use qr3d_matrix::{MatMut, Matrix};

fn close(a: &Matrix, b: &Matrix, tol: f64) -> bool {
    a.sub(b).max_abs() <= tol
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Row counts of a partition into blocks of 1 to 39 rows: cuts that
/// land anywhere, `MR`-aligned or not.
fn row_blocks() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..40, 1..5)
}

/// A random operand `M` with `op(M)` of `rows × cols`.
fn operand(t: Trans, rows: usize, cols: usize, seed: u64) -> Matrix {
    match t {
        Trans::No => Matrix::random(rows, cols, seed),
        Trans::Yes => Matrix::random(cols, rows, seed),
    }
}

const TRANSPOSES: [(Trans, Trans); 4] = [
    (Trans::No, Trans::No),
    (Trans::Yes, Trans::No),
    (Trans::No, Trans::Yes),
    (Trans::Yes, Trans::Yes),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gemm_distributes_over_addition(
        m in 1usize..8, n in 1usize..8, k in 1usize..8, seed in 0u64..500,
    ) {
        let a = Matrix::random(m, k, seed);
        let b1 = Matrix::random(k, n, seed + 1);
        let b2 = Matrix::random(k, n, seed + 2);
        let mut bsum = b1.clone();
        bsum.add_assign(&b2);
        let mut lhs = matmul(&a, &b1);
        lhs.add_assign(&matmul(&a, &b2));
        prop_assert!(close(&lhs, &matmul(&a, &bsum), 1e-12));
    }

    #[test]
    fn gemm_transpose_identity(
        m in 1usize..8, n in 1usize..8, k in 1usize..8, seed in 0u64..500,
    ) {
        // (A·B)ᵀ = Bᵀ·Aᵀ, exercised through the Trans parameters.
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 9);
        let ab_t = matmul(&a, &b).transpose();
        let mut bt_at = Matrix::zeros(n, m);
        gemm(Trans::Yes, Trans::Yes, 1.0, &b, &a, 0.0, &mut bt_at);
        prop_assert!(close(&ab_t, &bt_at, 1e-12));
        // Mixed forms agree with explicit transposes.
        prop_assert!(close(&matmul_tn(&a, &a), &matmul(&a.transpose(), &a), 1e-12));
        prop_assert!(close(&matmul_nt(&b, &b), &matmul(&b, &b.transpose()), 1e-12));
    }

    #[test]
    fn packed_gemm_bits_do_not_depend_on_row_blocks(
        n in 1usize..40, k in 1usize..40, rows in row_blocks(), seed in 0u64..500,
    ) {
        // C's rows cut into blocks (and op(A)'s with them), each block
        // its own call: the bits of the call on all the rows.
        let m: usize = rows.iter().sum();
        let c0 = Matrix::random(m, n, seed + 2);
        for (ta, tb) in TRANSPOSES {
            let (a, b) = (operand(ta, m, k, seed), operand(tb, k, n, seed + 1));
            let mut whole = c0.clone();
            gemm_views(ta, tb, 1.5, a.view(), b.view(), -0.5, whole.view_mut());
            let mut split = c0.clone();
            let mut r0 = 0;
            for block in split.row_blocks_mut(&rows) {
                let r1 = r0 + block.rows();
                let a_rows = match ta {
                    Trans::No => a.block(r0, r1, 0, k),
                    Trans::Yes => a.block(0, k, r0, r1),
                };
                gemm_views(ta, tb, 1.5, a_rows, b.view(), -0.5, block);
                r0 = r1;
            }
            let what = format!("{rows:?} × {n} × {k} {ta:?}/{tb:?}");
            prop_assert!(bits(&whole) == bits(&split), "{what}");
        }
    }

    #[test]
    fn packed_column_update_bits_do_not_depend_on_row_blocks(
        n in 1usize..40, k in 1usize..40, rows in row_blocks(),
        a_first in prop::bool::ANY, seed in 0u64..500,
    ) {
        // X[:, c] += α·X[:, a]·op(B) on blocks of X's rows, each its own
        // call: the bits of the call on all the rows.
        let m: usize = rows.iter().sum();
        let (a_cols, c_cols) = if a_first {
            (1..1 + k, 2 + k..2 + k + n)
        } else {
            (2 + n..2 + n + k, 1..1 + n)
        };
        let x0 = Matrix::random(m, k + n + 3, seed);
        for tb in [Trans::No, Trans::Yes] {
            let b = operand(tb, k, n, seed + 1);
            let update = |x: MatMut<'_>| {
                gemm_cols_in_place(-1.0, x, a_cols.clone(), tb, b.view(), c_cols.clone())
            };
            let mut whole = x0.clone();
            update(whole.view_mut());
            let mut split = x0.clone();
            split.row_blocks_mut(&rows).into_iter().for_each(update);
            prop_assert!(bits(&whole) == bits(&split), "{rows:?} × {n} × {k} {tb:?}");
        }
    }

    #[test]
    fn thin_q_bits_do_not_depend_on_row_blocks(
        n in 1usize..24, rows in row_blocks(), seed in 0u64..500,
    ) {
        // V held as blocks of any height — the top n rows spanning
        // several, if the cuts fall there: the bits of thin_q on the
        // stacked V.
        let mut rows = rows;
        let short = n.saturating_sub(rows.iter().sum());
        if short > 0 {
            rows.push(short);
        }
        let m: usize = rows.iter().sum();
        let f = geqrt(&Matrix::random(m, n, seed));
        let mut r0 = 0;
        let blocks: Vec<Matrix> = rows
            .iter()
            .map(|&r| {
                r0 += r;
                f.v.submatrix(r0 - r, r0, 0, n)
            })
            .collect();
        let refs: Vec<&Matrix> = blocks.iter().collect();
        let q = thin_q_blocks(&refs, &f.t);
        prop_assert!(bits(&q) == bits(&thin_q(&f.v, &f.t)), "{rows:?} × {n}");
    }

    #[test]
    fn thin_q_bits_are_the_full_multiply(
        n in 1usize..40, extra in 0usize..40, seed in 0u64..500,
    ) {
        // thin_q leaves out the products with T·V_topᵀ's zeros and
        // V_topᵀ's; the padded apply of I multiplies all of them.
        let m = n + extra;
        let f = geqrt(&Matrix::random(m, n, seed));
        let mut ws = LocalArena::new();
        let full = q_times_padded_ws(&mut ws, &f.v, &f.t, &Matrix::identity(n));
        prop_assert!(bits(&thin_q(&f.v, &f.t)) == bits(&full), "{m} × {n}");
    }

    #[test]
    fn upper_gemm_bits_are_gemm_of_the_upper_triangle(
        n in 1usize..40, k in 1usize..40, rows in row_blocks(), seed in 0u64..500,
    ) {
        // op(B) read as upper triangular, on blocks of C's rows, each its
        // own call: the bits of the full multiply by triu(op(B)) on all
        // the rows, whatever op(B) holds below its diagonal.
        let m: usize = rows.iter().sum();
        let c0 = Matrix::random(m, n, seed + 2);
        let op_b = Matrix::random(k, n, seed + 1);
        let upper = Matrix::from_fn(k, n, |l, j| if l <= j { op_b[(l, j)] } else { 0.0 });
        for (ta, tb) in TRANSPOSES {
            let stored = |x: &Matrix| match tb {
                Trans::No => x.clone(),
                Trans::Yes => x.transpose(),
            };
            let (a, b) = (operand(ta, m, k, seed), stored(&op_b));
            let mut whole = c0.clone();
            gemm_views(ta, tb, 1.5, a.view(), stored(&upper).view(), -0.5, whole.view_mut());
            let mut split = c0.clone();
            let mut r0 = 0;
            for block in split.row_blocks_mut(&rows) {
                let r1 = r0 + block.rows();
                let a_rows = match ta {
                    Trans::No => a.block(r0, r1, 0, k),
                    Trans::Yes => a.block(0, k, r0, r1),
                };
                gemm_upper_views(ta, tb, 1.5, a_rows, b.view(), -0.5, block);
                r0 = r1;
            }
            let what = format!("{rows:?} × {n} × {k} {ta:?}/{tb:?}");
            prop_assert!(bits(&whole) == bits(&split), "{what}");
        }
    }

    #[test]
    fn padded_apply_bits_are_the_stacked_apply(
        m in 1usize..80, k in 1usize..24, p in 0usize..80, n in 1usize..24, seed in 0u64..500,
    ) {
        // Q·[B; 0] written into a block of a larger matrix against
        // (I − V·T·Vᵀ) applied to the stacked [B; 0]: every bit, for
        // any B height p ≤ m.
        let (k, p) = (k.min(m), p % (m + 1));
        let f = geqrt(&Matrix::random(m, k, seed));
        let b = Matrix::random(p, n, seed + 1);
        let mut ws = LocalArena::new();
        let mut stacked = b.vstack(&Matrix::zeros(m - p, n));
        apply_block_reflector_ws(&mut ws, &f.v, &f.t, &mut stacked, false);
        let mut big = Matrix::random(m + 2, n + 3, seed + 2);
        q_times_padded_into(&mut ws, &f.v, &f.t, &b, big.block_mut(1, 1 + m, 2, 2 + n));
        let padded = big.submatrix(1, 1 + m, 2, 2 + n);
        prop_assert!(bits(&padded) == bits(&stacked), "{m} × {k}, B {p} × {n}");
    }

    #[test]
    fn right_solve_bits_do_not_depend_on_row_blocks(
        n in 1usize..40, rows in row_blocks(), upper in prop::bool::ANY,
        transpose in prop::bool::ANY, seed in 0u64..500,
    ) {
        // X·op(A) = B solved in place on blocks of X's rows, each its
        // own call: the bits of the solve on all the rows.
        let uplo = if upper { Uplo::Upper } else { Uplo::Lower };
        let r = Matrix::random(n, n, seed);
        let a = Matrix::from_fn(n, n, |i, j| {
            let keep = if upper { j >= i } else { j <= i };
            if i == j { 2.0 + r[(i, j)].abs() } else if keep { 0.3 * r[(i, j)] } else { 0.0 }
        });
        let m: usize = rows.iter().sum();
        let b = Matrix::random(m, n, seed + 1);
        let mut whole = b.clone();
        trsm_right_in_place(uplo, transpose, false, &a, whole.view_mut());
        let mut split = b.clone();
        for block in split.row_blocks_mut(&rows) {
            trsm_right_in_place(uplo, transpose, false, &a, block);
        }
        prop_assert!(bits(&whole) == bits(&split), "{rows:?} × {n} {uplo:?} trans={transpose}");
    }

    #[test]
    fn qr_invariants_any_shape(
        n in 1usize..7, extra in 0usize..12, seed in 0u64..500,
    ) {
        let m = n + extra;
        let a = Matrix::random(m, n, seed);
        let f = geqrt(&a);
        prop_assert!(f.v.is_unit_lower_trapezoidal(1e-11));
        prop_assert!(f.r.is_upper_triangular(0.0));
        for j in 0..n {
            prop_assert!(f.r[(j, j)] >= 0.0, "geqrt keeps a nonnegative diagonal");
        }
        let mut rn = Matrix::zeros(m, n);
        rn.set_submatrix(0, 0, &f.r);
        prop_assert!(close(&q_times(&f.v, &f.t, &rn), &a, 1e-10));
        let q1 = thin_q(&f.v, &f.t);
        prop_assert!(close(&matmul_tn(&q1, &q1), &Matrix::identity(n), 1e-10));
    }

    #[test]
    fn q_apply_preserves_norms(
        n in 1usize..6, extra in 0usize..10, cols in 1usize..5, seed in 0u64..500,
    ) {
        // Orthogonal transforms are isometries.
        let m = n + extra;
        let a = Matrix::random(m, n, seed);
        let f = geqrt(&a);
        let c = Matrix::random(m, cols, seed + 7);
        let qc = q_times(&f.v, &f.t, &c);
        prop_assert!((qc.frobenius_norm() - c.frobenius_norm()).abs() < 1e-10);
        let back = qt_times(&f.v, &f.t, &qc);
        prop_assert!(close(&back, &c, 1e-10));
    }

    #[test]
    fn trsm_inverts_multiplication(
        n in 1usize..8, rhs in 1usize..5, seed in 0u64..500,
        side_left in proptest::bool::ANY,
        upper in proptest::bool::ANY,
        transpose in proptest::bool::ANY,
    ) {
        // Build a well-conditioned triangle.
        let r = Matrix::random(n, n, seed);
        let uplo = if upper { Uplo::Upper } else { Uplo::Lower };
        let tri_m = Matrix::from_fn(n, n, |i, j| {
            let keep = if upper { j >= i } else { j <= i };
            if i == j { 2.0 + r[(i, j)].abs() } else if keep { 0.3 * r[(i, j)] } else { 0.0 }
        });
        let side = if side_left { Side::Left } else { Side::Right };
        let b = match side {
            Side::Left => Matrix::random(n, rhs, seed + 3),
            Side::Right => Matrix::random(rhs, n, seed + 3),
        };
        let x = trsm(side, uplo, transpose, false, &tri_m, &b);
        let opa = if transpose { tri_m.transpose() } else { tri_m.clone() };
        let recovered = match side {
            Side::Left => matmul(&opa, &x),
            Side::Right => matmul(&x, &opa),
        };
        prop_assert!(close(&recovered, &b, 1e-9));
    }

    #[test]
    fn lu_sign_always_factors(n in 1usize..9, seed in 0u64..500) {
        let x = Matrix::random(n, n, seed);
        let (l, u, s) = lu_sign(&x);
        prop_assert!(l.is_unit_lower_trapezoidal(0.0));
        prop_assert!(u.is_upper_triangular(0.0));
        let mut xps = x.clone();
        for i in 0..n {
            prop_assert!(s[i].abs() == 1.0);
            xps[(i, i)] += s[i];
        }
        prop_assert!(close(&matmul(&l, &u), &xps, 1e-10));
    }

    #[test]
    fn recursive_geqrt_matches_reference_any_shape(
        leaves in 0usize..6, ragged in 0usize..GEQRT_LEAF, extra in 0usize..80,
        dup in 0usize..3, seed in 0u64..500,
    ) {
        // The recursive kernel and the unblocked reference must agree
        // on R (to rounding) and both satisfy QR = A and QᵀQ = I —
        // swept across single columns, m = n, m ≫ n, duplicated
        // (rank-deficient) columns, and widths on every side of the
        // recursion's boundaries: a ragged single leaf, exactly one
        // leaf, one split, and up to three levels of splits with and
        // without a ragged last leaf.
        let n = (leaves * GEQRT_LEAF + ragged).max(1);
        let m = n + extra;
        let mut a = Matrix::random(m, n, seed);
        for d in 0..dup.min(n.saturating_sub(1)) {
            for i in 0..m {
                let v = a[(i, d)];
                a[(i, n - 1 - d)] = v; // duplicate columns ⇒ rank deficiency
            }
        }
        let fb = geqrt(&a);
        let fr = geqrt_reference(&a);
        let scale = 1.0 + a.frobenius_norm();
        prop_assert!(close(&fb.r, &fr.r, 1e-10 * scale), "R blocked vs reference");
        prop_assert!(fb.v.is_unit_lower_trapezoidal(1e-10));
        for j in 0..n {
            prop_assert!(fb.r[(j, j)] >= 0.0);
        }
        let mut rn = Matrix::zeros(m, n);
        rn.set_submatrix(0, 0, &fb.r);
        prop_assert!(close(&q_times(&fb.v, &fb.t, &rn), &a, 1e-9 * scale), "QR = A");
        let q1 = thin_q(&fb.v, &fb.t);
        prop_assert!(close(&matmul_tn(&q1, &q1), &Matrix::identity(n), 1e-9), "QᵀQ = I");
    }

    #[test]
    fn pivoted_qr_invariants_any_shape(
        n in 1usize..40, extra in 0usize..60, dup in 0usize..3, seed in 0u64..500,
    ) {
        // geqp3 across shapes straddling the PIVOT_NB panel boundary
        // and with duplicated (rank-deficient) columns: the permutation
        // is valid, the R diagonal is nonnegative and non-increasing,
        // A·P = Q·R, Q is orthonormal at any rank, and the detected
        // rank never exceeds (and for duplicated columns drops below)
        // the column count.
        let m = n + extra;
        let mut a = Matrix::random(m, n, seed);
        let dups = dup.min(n.saturating_sub(1)) * usize::from(n >= 2);
        for d in 0..dups {
            for i in 0..m {
                let v = a[(i, d % (n - 1))];
                a[(i, n - 1 - d % (n - 1))] = v;
            }
        }
        let p = geqp3(&a);
        prop_assert!(is_permutation(&p.perm, n), "valid permutation");
        for j in 0..n {
            prop_assert!(p.r[(j, j)] >= 0.0, "nonnegative diagonal");
            if j > 0 {
                prop_assert!(
                    p.r[(j, j)] <= p.r[(j - 1, j - 1)] * (1.0 + 1e-10) + 1e-12,
                    "monotone diagonal decay"
                );
            }
        }
        let scale = 1.0 + a.frobenius_norm();
        let ap = permute_cols(&a, &p.perm);
        let mut rn = Matrix::zeros(m, n);
        rn.set_submatrix(0, 0, &p.r);
        prop_assert!(
            close(&q_times(&p.q_factors.v, &p.q_factors.t, &rn), &ap, 1e-9 * scale),
            "A·P = QR"
        );
        let q1 = thin_q(&p.q_factors.v, &p.q_factors.t);
        prop_assert!(close(&matmul_tn(&q1, &q1), &Matrix::identity(n), 1e-9), "QᵀQ = I");
        prop_assert!(p.rank <= n);
        if dups > 0 && n >= 2 {
            prop_assert!(p.rank < n, "duplicated columns must lower the detected rank");
        }
    }

    #[test]
    fn pivoted_qr_detects_constructed_rank(
        k in 1usize..6, extra_cols in 0usize..8, rows in 12usize..40, seed in 0u64..500,
    ) {
        // A = B·C has rank exactly min(k, cols): the detected rank must
        // be exact, and the pivoted R of the same matrix must agree with
        // the unpivoted QR of the pre-permuted input.
        let n = (k + extra_cols).min(rows);
        let k = k.min(n);
        let b = Matrix::random(rows, k, seed);
        let c = Matrix::random(k, n, seed + 7);
        let a = matmul(&b, &c);
        let p = geqp3(&a);
        prop_assert_eq!(p.rank, k, "exact rank detection");
        let f = geqrt(&permute_cols(&a, &p.perm));
        prop_assert!(
            close(&f.r, &p.r, 1e-9 * (1.0 + a.frobenius_norm())),
            "geqp3 R equals geqrt R on A·P"
        );
    }

    #[test]
    fn blocked_tri_kernels_match_reference(
        nb in 0usize..5, rhs in 1usize..80, seed in 0u64..500,
    ) {
        // n from one row to several diagonal tiles, one of them
        // ragged: one tile (nb = 0), and a boundary between every
        // pair after it.
        let n = (nb * TRI_NB + (seed % 7) as usize).max(1);
        let a = Matrix::random(2 * n, n, seed);
        let g = {
            let mut g = Matrix::zeros(n, n);
            syrk(1.0, &a, 0.0, &mut g);
            g
        };
        let mut g_ref = Matrix::zeros(n, n);
        syrk_reference(1.0, &a, 0.0, &mut g_ref);
        prop_assert!(close(&g, &g_ref, 1e-9 * (n as f64)), "syrk blocked vs reference");
        let r = potrf(&g).expect("SPD");
        let r_ref = potrf_reference(&g).expect("SPD");
        prop_assert!(close(&r, &r_ref, 1e-8 * g.max_abs()), "potrf blocked vs reference");
        let b = Matrix::random(n, rhs, seed + 1);
        let x = trsm(Side::Left, Uplo::Upper, false, false, &r, &b);
        let x_ref = trsm_reference(Side::Left, Uplo::Upper, false, false, &r, &b);
        prop_assert!(close(&x, &x_ref, 1e-8 * (1.0 + x_ref.max_abs())), "trsm blocked vs reference");
        // The right solve, on the same triangle.
        let bt = b.transpose();
        let y = trsm(Side::Right, Uplo::Upper, false, false, &r, &bt);
        let y_ref = trsm_reference(Side::Right, Uplo::Upper, false, false, &r, &bt);
        prop_assert!(close(&y, &y_ref, 1e-8 * (1.0 + y_ref.max_abs())), "right trsm vs reference");
    }

    #[test]
    fn partitions_are_balanced_and_consistent(n in 0usize..200, p in 1usize..17) {
        let sizes = balanced_sizes(n, p);
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        prop_assert!(max - min <= 1);
        let ranges = balanced_ranges(n, p);
        for i in 0..n {
            let part = part_of(i, n, p);
            prop_assert!(ranges[part].contains(&i));
        }
    }

    #[test]
    fn submatrix_composition(
        m in 2usize..12, n in 2usize..12, seed in 0u64..500,
    ) {
        // Taking a submatrix of a submatrix equals taking it directly.
        let a = Matrix::random(m, n, seed);
        let r1 = m / 2;
        let c1 = n / 2;
        let outer = a.submatrix(0, m, 0, n);
        prop_assert_eq!(&outer, &a);
        let inner = a.submatrix(1, m, 1, n).submatrix(0, r1.max(1), 0, c1.max(1));
        let direct = a.submatrix(1, 1 + r1.max(1), 1, 1 + c1.max(1));
        prop_assert_eq!(inner, direct);
    }
}
