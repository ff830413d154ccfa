//! Distributed unblocked Householder panel factorization.
//!
//! The building block of the Section 8.1 baselines (`1d-house`,
//! `2d-house`): an `M × b` panel whose rows are distributed over the
//! communicator (`counts[r]` rows on local rank `r`, concatenated in rank
//! order = panel row order) is factored column by column à la Householder:
//! per column, one all-reduce forms the norm (and pivot value) and a
//! second forms the combined `Vᵀv` / `Aᵀv` products needed for the `T`
//! kernel and the in-panel update.
//!
//! Per column: 2 all-reduces of `O(b)` words ⇒ per panel `O(b log P)`
//! messages and `O(b² log P)` words — exactly the per-column latency that
//! gives `1d-house` its `Θ(n log P)` message count (Table 3).

use qr3d_collectives::auto::all_reduce;
use qr3d_machine::{Comm, Rank};
use qr3d_matrix::Matrix;

use crate::tree::{pack_upper, unpack_upper};

/// Locate panel row `g` given per-rank row counts: returns
/// `(owner local rank, local row index)`.
pub(crate) fn locate(counts: &[usize], g: usize) -> (usize, usize) {
    let mut off = 0;
    for (r, &c) in counts.iter().enumerate() {
        if g < off + c {
            return (r, g - off);
        }
        off += c;
    }
    panic!("panel row {g} out of range (total {off})");
}

/// Factor an `M × b` panel distributed over `comm` (this rank holds
/// `panel` = its `counts[comm.rank()]` rows; `Σ counts = M ≥ b`).
///
/// On return, `panel` is overwritten with this rank's rows of the
/// unit-lower-trapezoidal `V` (explicit ones/zeros), and the `b × b`
/// upper-triangular `T` and `R` are returned **replicated on every
/// rank**.
pub fn house_panel(
    rank: &mut Rank,
    comm: &Comm,
    panel: &mut Matrix,
    counts: &[usize],
) -> (Matrix, Matrix) {
    let b = panel.cols();
    let me = comm.rank();
    assert_eq!(counts.len(), comm.size(), "one count per rank");
    assert_eq!(panel.rows(), counts[me], "local panel height mismatch");
    let total: usize = counts.iter().sum();
    assert!(total >= b, "panel must be tall: {total} rows < {b} cols");

    let starts: Vec<usize> = {
        let mut s = vec![0];
        for &c in counts {
            s.push(s.last().unwrap() + c);
        }
        s
    };
    let my_lo = starts[me];
    let my_hi = starts[me + 1];
    // Local row range holding panel rows ≥ g.
    let local_from = |g: usize| g.saturating_sub(my_lo).min(my_hi - my_lo);

    let mut v = Matrix::zeros(counts[me], b);
    let mut t = Matrix::zeros(b, b);
    let mut r_partial = Matrix::zeros(b, b);
    let mut taus = vec![0.0; b];

    for j in 0..b {
        let (owner, owner_row) = locate(counts, j);
        // All-reduce [σ (sum of squares strictly below the pivot), pivot],
        // in a workspace buffer (the per-column loop allocates nothing).
        let lo = local_from(j + 1);
        let mut sp = rank.workspace().take(2);
        for lr in lo..counts[me] {
            let x = panel[(lr, j)];
            sp[0] += x * x;
        }
        rank.charge_flops(2.0 * (counts[me] - lo) as f64);
        if me == owner {
            sp[1] = panel[(owner_row, j)];
        }
        let sp = all_reduce(rank, comm, sp);
        let (sigma, x0) = (sp[0], sp[1]);
        rank.workspace().put(sp);

        // Householder vector parameters (identical on every rank). In the
        // degenerate zero-tail case we always use the sign-flipping
        // reflector (τ = 2, v = e_j, Hx = −x₀e_j) rather than τ = 0: that
        // keeps τ_j = 2/‖v_j‖² for every column, so the full-size T can be
        // reconstructed from V alone (`verify::t_from_v`).
        let (tau, mu, v0) = if sigma == 0.0 {
            (2.0, -x0, 1.0)
        } else {
            let mu = (x0 * x0 + sigma).sqrt();
            let v0 = if x0 <= 0.0 {
                x0 - mu
            } else {
                -sigma / (x0 + mu)
            };
            (2.0 * v0 * v0 / (sigma + v0 * v0), mu, v0)
        };
        taus[j] = tau;

        // Store local V entries: rows strictly below the pivot get x/v0;
        // the pivot row gets 1.
        for lr in lo..counts[me] {
            v[(lr, j)] = panel[(lr, j)] / v0;
        }
        rank.charge_flops((counts[me] - lo) as f64);
        if me == owner {
            v[(owner_row, j)] = 1.0;
        }
        r_partial[(j, j)] = if me == owner { mu } else { 0.0 };

        // Combined products y[c]: for c < j, z_c = Σ_{g≥j} V[g,c]·v_g (for
        // T); for c > j, w_c = Σ_{g≥j} A[g,c]·v_g (in-panel update).
        let vlo = local_from(j);
        let mut y = rank.workspace().take(b);
        for lr in vlo..counts[me] {
            let vg = v[(lr, j)];
            if vg == 0.0 {
                continue;
            }
            for (c, yc) in y.iter_mut().enumerate() {
                if c < j {
                    *yc += v[(lr, c)] * vg;
                } else if c > j {
                    *yc += panel[(lr, c)] * vg;
                }
            }
        }
        rank.charge_flops(2.0 * (counts[me] - vlo) as f64 * b as f64);
        let y = all_reduce(rank, comm, y);

        // In-panel trailing update: A[g, c] −= τ·v_g·w_c for g ≥ j, c > j.
        if tau != 0.0 {
            for lr in vlo..counts[me] {
                let tv = tau * v[(lr, j)];
                for c in j + 1..b {
                    panel[(lr, c)] -= tv * y[c];
                }
            }
            rank.charge_flops(2.0 * (counts[me] - vlo) as f64 * (b - j - 1) as f64);
        }
        // R row j beyond the diagonal = the updated pivot row.
        if me == owner {
            for c in j + 1..b {
                r_partial[(j, c)] = panel[(owner_row, c)];
            }
        }

        // T column j (replicated): T[j,j] = τ, T[0..j, j] = −τ·T·z.
        t[(j, j)] = tau;
        for i in 0..j {
            let mut s = 0.0;
            for (k, &yk) in y.iter().enumerate().take(j).skip(i) {
                s += t[(i, k)] * yk;
            }
            t[(i, j)] = -tau * s;
        }
        rank.charge_flops((j * j) as f64 / 2.0);
        rank.workspace().put(y);
    }
    let _ = taus;

    // Replicate R (each entry was produced on exactly one rank).
    let r = if b > 0 {
        let packed = all_reduce(rank, comm, pack_upper(&r_partial));
        unpack_upper(&packed, b)
    } else {
        Matrix::zeros(0, 0)
    };

    *panel = v;
    (t, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr3d_machine::{CostParams, Machine};
    use qr3d_matrix::gemm::matmul_tn;
    use qr3d_matrix::partition::balanced_sizes;
    use qr3d_matrix::qr::{q_times, thin_q};

    fn check_panel(m: usize, b: usize, p: usize, seed: u64) {
        let a = Matrix::random(m, b, seed);
        let counts = balanced_sizes(m, p);
        let starts: Vec<usize> = {
            let mut s = vec![0];
            for &c in &counts {
                s.push(s.last().unwrap() + c);
            }
            s
        };
        let machine = Machine::new(p, CostParams::unit());
        let counts2 = counts.clone();
        let out = machine.run(|rank| {
            let w = rank.world();
            let me = w.rank();
            let mut local = a.submatrix(starts[me], starts[me + 1], 0, b);
            let (t, r) = house_panel(rank, &w, &mut local, &counts2);
            (local, t, r)
        });
        // Assemble V; T and R must agree across ranks.
        let mut v = Matrix::zeros(m, b);
        let mut off = 0;
        for (loc, _, _) in &out.results {
            v.set_submatrix(off, 0, loc);
            off += loc.rows();
        }
        let (_, t, r) = &out.results[0];
        for (_, t2, r2) in &out.results[1..] {
            assert_eq!(t, t2, "T replicated identically");
            assert_eq!(r, r2, "R replicated identically");
        }
        assert!(v.is_unit_lower_trapezoidal(1e-12));
        assert!(t.is_upper_triangular(0.0));
        assert!(r.is_upper_triangular(0.0));
        let mut rn = Matrix::zeros(m, b);
        rn.set_submatrix(0, 0, r);
        let resid = q_times(&v, t, &rn).sub(&a).frobenius_norm() / a.frobenius_norm().max(1e-300);
        assert!(resid < 1e-12, "m={m} b={b} p={p}: residual {resid}");
        let q1 = thin_q(&v, t);
        let orth = matmul_tn(&q1, &q1).sub(&Matrix::identity(b)).max_abs();
        assert!(orth < 1e-12, "m={m} b={b} p={p}: orthogonality {orth}");
    }

    #[test]
    fn panel_various_shapes() {
        check_panel(16, 4, 4, 1);
        check_panel(23, 5, 3, 2);
        check_panel(8, 8, 2, 3);
        check_panel(30, 1, 5, 4);
    }

    #[test]
    fn panel_single_rank() {
        check_panel(10, 3, 1, 5);
    }

    #[test]
    fn panel_with_empty_ranks() {
        // Ranks with zero rows must still participate in the all-reduces.
        let m = 9;
        let b = 3;
        let counts = vec![5usize, 0, 4];
        let a = Matrix::random(m, b, 6);
        let machine = Machine::new(3, CostParams::unit());
        let counts2 = counts.clone();
        let out = machine.run(|rank| {
            let w = rank.world();
            let me = w.rank();
            let lo: usize = counts2[..me].iter().sum();
            let mut local = a.submatrix(lo, lo + counts2[me], 0, b);
            let (t, r) = house_panel(rank, &w, &mut local, &counts2);
            (local, t, r)
        });
        let mut v = Matrix::zeros(m, b);
        let mut off = 0;
        for (loc, _, _) in &out.results {
            v.set_submatrix(off, 0, loc);
            off += loc.rows();
        }
        let (_, t, r) = &out.results[0];
        let mut rn = Matrix::zeros(m, b);
        rn.set_submatrix(0, 0, r);
        let resid = q_times(&v, t, &rn).sub(&a).frobenius_norm() / a.frobenius_norm();
        assert!(resid < 1e-12, "residual {resid}");
    }

    #[test]
    fn panel_messages_scale_with_columns() {
        // 2 all-reduces per column ⇒ S = Θ(b log P) on the critical path.
        let (m, p) = (64, 8);
        let counts = balanced_sizes(m, p);
        let measure = |b: usize| {
            let a = Matrix::random(m, b, 7);
            let counts = counts.clone();
            let machine = Machine::new(p, CostParams::unit());
            let out = machine.run(|rank| {
                let w = rank.world();
                let me = w.rank();
                let lo: usize = counts[..me].iter().sum();
                let mut local = a.submatrix(lo, lo + counts[me], 0, b);
                house_panel(rank, &w, &mut local, &counts)
            });
            out.stats.critical().msgs
        };
        let s2 = measure(2);
        let s8 = measure(8);
        assert!(
            s8 >= 3.0 * s2,
            "messages should grow ≈ linearly with b: S(2)={s2} S(8)={s8}"
        );
    }

    #[test]
    fn locate_finds_owner() {
        let counts = [3usize, 0, 2, 4];
        assert_eq!(locate(&counts, 0), (0, 0));
        assert_eq!(locate(&counts, 2), (0, 2));
        assert_eq!(locate(&counts, 3), (2, 0));
        assert_eq!(locate(&counts, 5), (3, 0));
        assert_eq!(locate(&counts, 8), (3, 3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn locate_rejects_overflow() {
        let _ = locate(&[2, 2], 4);
    }
}
