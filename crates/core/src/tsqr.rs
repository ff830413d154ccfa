//! TSQR — tall-skinny QR with Householder reconstruction
//! (paper Section 5 and Appendix C; the variant of [BDG+15]).
//!
//! The matrix `A` (`m × n`, `m/n ≥ P`) is row-distributed: rank `p` owns
//! `m_p ≥ n` rows, and the root (local rank 0 here) owns the leading `n`
//! rows. The two sweeps of the reduction-tree engine (`tree.rs`) — up to
//! `R`, down to `W`, the leading `n` columns of the implicit Q-factor —
//! are followed by the **reconstruction** (C.2): the sign-altered LU
//! `X + S = LU` of `W`'s top block gives the Householder representation
//! `V = [L; W₂U⁻¹]`, `T = U·S·L⁻ᵀ`, `R ← −S·R`; `U` is broadcast so every
//! rank solves for its own `V` rows.
//!
//! Costs (Lemma 5): `γ·O(max_p m_p n² + n³ log P) + β·O(n² log P) +
//! α·O(log P)`.

use qr3d_collectives::auto::broadcast;
use qr3d_collectives::tree::binomial_frames;
use qr3d_machine::{Comm, Payload, Rank};
use qr3d_matrix::tri::{lu_sign, trsm, trsm_right_in_place, Side, Uplo};
use qr3d_matrix::{flops, Matrix};

use crate::tree::{self, Live, Node, TreeIo};

/// A QR factorization in Householder representation, row-distributed:
/// `V` has the same row distribution as `A`; `T` and `R` live on the root
/// only (paper Section 5: "Both T and the R-factor are returned only on
/// the root processor").
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// This rank's rows of the unit-lower-trapezoidal basis `V` (`m_p × n`).
    pub v_local: Matrix,
    /// The `n × n` upper-triangular kernel `T` (root only).
    pub t: Option<Matrix>,
    /// The `n × n` upper-triangular R-factor (root only).
    pub r: Option<Matrix>,
}

impl QrFactors {
    /// The factors of the **leading `k` reflectors** only:
    /// `V₁ = V[:, :k]` (same row distribution), `T₁ = T[:k, :k]`, and
    /// the first `k` rows of `R` (the compact WY nesting property —
    /// `T`'s leading principal block is exactly the `T` of the first
    /// `k` reflectors). This is the low-rank serving representation:
    /// after `detected_rank = k`, applies through the truncated factors
    /// cost `O(mk)` per column instead of `O(mn)` and drop exactly the
    /// reflectors that carry no information about `range(A)` — see
    /// [`crate::apply::apply_qt_1d_trunc`].
    ///
    /// # Panics
    /// If `k > V.cols()`.
    pub fn truncate(&self, k: usize) -> QrFactors {
        let n = self.v_local.cols();
        assert!(
            k <= n,
            "truncate: k = {k} exceeds the {n} stored reflectors"
        );
        if k == n {
            return self.clone();
        }
        QrFactors {
            v_local: self.v_local.submatrix(0, self.v_local.rows(), 0, k),
            t: self.t.as_ref().map(|t| t.submatrix(0, k, 0, k)),
            r: self.r.as_ref().map(|r| r.submatrix(0, k, 0, r.cols())),
        }
    }
}

/// Householder reconstruction on the root (C.2, [BDG+15]) from `w`, the
/// root's `m_p × n` rows of `W`: the sign-altered LU `X + S = LU` of
/// `W`'s top block gives `V = [L; W₂·U⁻¹]`, `T = U·S·L⁻ᵀ` and
/// `R ← −S·R` (applied to `r`). `W₂` is solved where it lies and `L`
/// overwrites the top block, so the returned `V` is `w`'s own buffer.
/// Returns `(V, T, U)`; each step is charged to `io` as it runs.
pub(crate) fn reconstruct_root<I: TreeIo>(
    io: &mut I,
    mut w: Matrix,
    r: &mut Matrix,
) -> (Matrix, Matrix, Matrix) {
    let (mp, n) = (w.rows(), w.cols());
    let (l, u, s) = lu_sign(&w.submatrix(0, n, 0, n));
    io.charge(flops::lu_sign(n));
    // T = (U·S)·L⁻ᵀ : scale U's columns by s, then right-solve by Lᵀ.
    let mut us = u.clone();
    for i in 0..n {
        for j in 0..n {
            us[(i, j)] *= s[j];
        }
    }
    io.charge((n * n) as f64);
    let t = trsm(Side::Right, Uplo::Lower, true, true, &l, &us);
    io.charge(flops::trsm(n, n));
    trsm_right_in_place(Uplo::Upper, false, false, &u, w.block_mut(n, mp, 0, n));
    io.charge(flops::trsm(n, mp - n));
    w.set_submatrix(0, 0, &l);
    // R ← −S·R (scale row i by −s_i).
    for i in 0..n {
        for j in 0..n {
            r[(i, j)] *= -s[i];
        }
    }
    io.charge((n * n) as f64);
    (w, t, u)
}

/// Every other position's `V` rows from its rows of `W` and the root's
/// `U`: `V = W·U⁻¹`, solved where `W` lies and charged to `io`.
pub(crate) fn solve_v_rows<I: TreeIo>(io: &mut I, u: &Matrix, w: &mut Matrix) {
    trsm_right_in_place(Uplo::Upper, false, false, u, w.view_mut());
    io.charge(flops::trsm(w.cols(), w.rows()));
}

/// The reconstruction (C.2) at one position, from the `W`s its downsweep
/// returned and the `nodes` its upsweep left: the root — which holds the
/// tree's `R`s — reconstructs every problem, every other position solves
/// for its `V` rows. `share_u` is how the problems' `U` factors,
/// concatenated, travel in between: the root hands it `Some`, and it
/// returns the words at every position.
pub(crate) fn reconstruct<I: TreeIo>(
    io: &mut I,
    root: bool,
    ws: Vec<Matrix>,
    nodes: Vec<Node>,
    share_u: impl FnOnce(&mut I, Option<Vec<f64>>) -> Result<Payload, I::Stop>,
) -> Result<Vec<QrFactors>, I::Stop> {
    let mut out = Vec::with_capacity(ws.len());
    if root {
        let mut u_all = Vec::new();
        for (w, node) in ws.into_iter().zip(nodes) {
            let mut r = node.r;
            let (v_local, t, u) = reconstruct_root(io, w, &mut r);
            u_all.extend_from_slice(u.as_slice());
            out.push(QrFactors {
                v_local,
                t: Some(t),
                r: Some(r),
            });
        }
        share_u(io, Some(u_all))?;
    } else {
        let us = share_u(io, None)?;
        let mut rest = &us[..];
        for mut v_local in ws {
            let n = v_local.cols();
            let (words, tail) = rest.split_at(n * n);
            rest = tail;
            solve_v_rows(io, &Matrix::from_slice(n, n, words), &mut v_local);
            out.push(QrFactors {
                v_local,
                t: None,
                r: None,
            });
        }
    }
    Ok(out)
}

/// TSQR-factor the row-distributed matrix `a_local` over `comm` (root =
/// local rank 0, which must own the global leading rows). Requires
/// `a_local.rows() ≥ a_local.cols()` on every rank.
///
/// This is exactly [`tsqr_factor_batch`] with a batch of one — same wire
/// format, same arithmetic, bit-identical factors and clocks.
pub fn tsqr_factor(rank: &mut Rank, comm: &Comm, a_local: &Matrix) -> QrFactors {
    tsqr_factor_batch(rank, comm, std::slice::from_ref(a_local))
        .pop()
        .expect("one problem in, one factorization out")
}

/// TSQR-factor `k` independent row-distributed problems over `comm` with
/// **fused** communication: all problems share one reduction tree, so
/// every upsweep/downsweep hop (and the final `U` broadcast) carries the
/// `k` per-problem blocks concatenated in a single message. The latency
/// cost is that of *one* TSQR — `S = O(log P)` total, not per problem —
/// while bandwidth and arithmetic scale with `k`
/// (`qr3d_cost::algorithms::tsqr_batch_cost`).
///
/// Every rank must pass its local rows of the same `k` problems in the
/// same order (the SPMD discipline); problems need not share a shape,
/// but each needs `rows ≥ cols` locally, and problems with zero columns
/// sit out the communication entirely.
pub fn tsqr_factor_batch(rank: &mut Rank, comm: &Comm, a_locals: &[Matrix]) -> Vec<QrFactors> {
    for a in a_locals {
        assert!(
            a.rows() >= a.cols(),
            "tsqr: every rank needs at least n rows (got {} × {})",
            a.rows(),
            a.cols()
        );
    }
    let me = comm.rank();
    let mut io = Live::new(rank, comm);
    let frames = binomial_frames(me, comm.size(), 0);
    let Ok(mut nodes) = tree::upsweep(&mut io, &frames, me, a_locals);
    let top = (me == 0).then(|| {
        a_locals
            .iter()
            .map(|a| Matrix::identity(a.cols()))
            .collect()
    });
    let Ok(ws) = tree::downsweep(&mut io, &frames, me, &mut nodes, top);

    // The U factors of every problem share one broadcast — which, like
    // the sweeps' messages, a batch without a single column skips.
    let u_total: usize = a_locals.iter().map(|a| a.cols().pow(2)).sum();
    let Ok(out) = reconstruct(&mut io, me == 0, ws, nodes, |io, u_all| {
        Ok(match u_total {
            0 => Payload::empty(),
            _ => broadcast(io.rank, comm, 0, u_all, u_total),
        })
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr3d_machine::{CostParams, Machine};
    use qr3d_matrix::gemm::matmul_tn;
    use qr3d_matrix::layout::BlockRow;
    use qr3d_matrix::qr::{q_times, thin_q};

    /// Reassemble V from per-rank pieces under a block-row layout and
    /// verify the Householder identities.
    fn check_tsqr(m: usize, n: usize, p: usize, seed: u64) {
        let a = Matrix::random(m, n, seed);
        let lay = BlockRow::balanced(m, 1, p);
        assert!(
            lay.counts().iter().all(|&c| c >= n),
            "layout must give every rank ≥ n rows"
        );
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let rows = lay.local_rows(w.rank());
            let a_loc = a.take_rows(&rows);
            tsqr_factor(rank, &w, &a_loc)
        });
        // Assemble.
        let starts = lay.starts();
        let mut v = Matrix::zeros(m, n);
        for (r, fac) in out.results.iter().enumerate() {
            v.set_submatrix(starts[r], 0, &fac.v_local);
        }
        let t = out.results[0].t.clone().expect("root holds T");
        let r = out.results[0].r.clone().expect("root holds R");
        for other in 1..p {
            assert!(out.results[other].t.is_none());
            assert!(out.results[other].r.is_none());
        }
        // Structure.
        assert!(
            v.is_unit_lower_trapezoidal(1e-12),
            "V unit lower trapezoidal"
        );
        assert!(t.is_upper_triangular(1e-14), "T upper triangular");
        assert!(r.is_upper_triangular(1e-14), "R upper triangular");
        // A = Q[R; 0].
        let mut rn = Matrix::zeros(m, n);
        rn.set_submatrix(0, 0, &r);
        let qr = q_times(&v, &t, &rn);
        let resid = qr.sub(&a).frobenius_norm() / a.frobenius_norm().max(1e-300);
        assert!(resid < 1e-12, "m={m} n={n} p={p}: residual {resid}");
        // Orthogonality of the thin Q.
        let q1 = thin_q(&v, &t);
        let gram = matmul_tn(&q1, &q1);
        let orth = gram.sub(&Matrix::identity(n)).max_abs();
        assert!(orth < 1e-12, "m={m} n={n} p={p}: orthogonality {orth}");
    }

    #[test]
    fn tsqr_various_shapes() {
        check_tsqr(32, 4, 4, 1);
        check_tsqr(64, 8, 8, 2);
        check_tsqr(40, 5, 5, 3);
        check_tsqr(48, 3, 7, 4);
    }

    #[test]
    fn tsqr_single_rank_equals_local_qr() {
        check_tsqr(16, 6, 1, 5);
    }

    #[test]
    fn tsqr_two_ranks() {
        check_tsqr(12, 3, 2, 6);
    }

    #[test]
    fn tsqr_non_power_of_two_ranks() {
        check_tsqr(36, 4, 3, 7);
        check_tsqr(60, 4, 6, 8);
    }

    #[test]
    fn tsqr_single_column() {
        check_tsqr(24, 1, 4, 9);
    }

    #[test]
    fn tsqr_minimum_rows_per_rank() {
        // Exactly n rows per rank: m = n·P.
        check_tsqr(4 * 6, 4, 6, 10);
    }

    #[test]
    fn tsqr_zero_columns() {
        let p = 2;
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            tsqr_factor(rank, &w, &Matrix::zeros(3, 0))
        });
        assert_eq!(out.results[0].v_local.cols(), 0);
        assert!(out.results[0].t.is_some());
        assert!(out.results[1].t.is_none());
    }

    #[test]
    #[should_panic(expected = "at least n rows")]
    fn tsqr_rejects_short_rank() {
        let machine = Machine::new(1, CostParams::unit());
        let _ = machine.run(|rank| {
            let w = rank.world();
            tsqr_factor(rank, &w, &Matrix::zeros(2, 5))
        });
    }

    #[test]
    fn tsqr_costs_match_lemma5() {
        // W = O(n² log P) and S = O(log P) on the critical path.
        let (n, rows_per) = (8, 16);
        for p in [4usize, 8, 16] {
            let m = rows_per * p;
            let a = Matrix::random(m, n, 11);
            let lay = BlockRow::balanced(m, 1, p);
            let machine = Machine::new(p, CostParams::unit());
            let out = machine.run(|rank| {
                let w = rank.world();
                let a_loc = a.take_rows(&lay.local_rows(w.rank()));
                tsqr_factor(rank, &w, &a_loc)
            });
            let c = out.stats.critical();
            let lg = (p as f64).log2().ceil();
            let n2 = (n * n) as f64;
            // Generous constants; the point is the scaling shape.
            assert!(c.words <= 6.0 * n2 * (lg + 1.0), "p={p}: W={}", c.words);
            assert!(c.msgs <= 8.0 * (lg + 1.0), "p={p}: S={}", c.msgs);
            // Arithmetic: O(m/P·n² + n³ log P).
            let bound = 14.0 * ((m / p) as f64 * n2 + (n as f64).powi(3) * (lg + 1.0));
            assert!(c.flops <= bound, "p={p}: F={} bound={bound}", c.flops);
        }
    }

    #[test]
    fn tsqr_r_diag_sign_invariant() {
        // Determinism + reproducibility: two runs give bit-identical R.
        let (m, n, p) = (40, 5, 4);
        let a = Matrix::random(m, n, 12);
        let lay = BlockRow::balanced(m, 1, p);
        let run = || {
            let machine = Machine::new(p, CostParams::unit());
            machine
                .run(|rank| {
                    let w = rank.world();
                    let a_loc = a.take_rows(&lay.local_rows(w.rank()));
                    tsqr_factor(rank, &w, &a_loc)
                })
                .results[0]
                .r
                .clone()
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn batch_matches_singles_bitwise_and_amortizes_latency() {
        // Each problem's arithmetic in a fused batch is identical to its
        // standalone run — only the messages are concatenated — so the
        // factors must match BITWISE, while the batch's critical-path
        // message count stays at one tree (not k trees).
        let (m, n, p, k) = (64usize, 8usize, 4usize, 5usize);
        let problems: Vec<Matrix> = (0..k)
            .map(|j| Matrix::random(m, n, 40 + j as u64))
            .collect();
        let lay = BlockRow::balanced(m, 1, p);
        let machine = Machine::new(p, CostParams::unit());

        let probs = &problems;
        let batch = machine.run(|rank| {
            let w = rank.world();
            let rows = lay.local_rows(w.rank());
            let locals: Vec<Matrix> = probs.iter().map(|a| a.take_rows(&rows)).collect();
            tsqr_factor_batch(rank, &w, &locals)
        });
        let mut single_msgs_total = 0.0;
        for (j, a) in problems.iter().enumerate() {
            let single = machine.run(|rank| {
                let w = rank.world();
                tsqr_factor(rank, &w, &a.take_rows(&lay.local_rows(w.rank())))
            });
            single_msgs_total += single.stats.critical().msgs;
            for rk in 0..p {
                assert_eq!(
                    batch.results[rk][j].v_local, single.results[rk].v_local,
                    "problem {j}, rank {rk}: V must match bitwise"
                );
            }
            assert_eq!(batch.results[0][j].r, single.results[0].r, "problem {j}: R");
            assert_eq!(batch.results[0][j].t, single.results[0].t, "problem {j}: T");
        }
        let fused = batch.stats.critical();
        let fused_msgs = fused.msgs;
        assert!(
            fused_msgs * 3.0 <= single_msgs_total,
            "k = {k} fused trees must amortize latency: S_batch = {fused_msgs} \
             vs k sequential = {single_msgs_total}"
        );
        // …and exactly this much, on the unit machine: any change to
        // what a hop carries or a kernel is charged moves these bits.
        assert_eq!(
            (fused.flops, fused.words, fused.msgs),
            (130346.66666666664, 2560.0, 14.0)
        );
    }

    #[test]
    fn batch_handles_mixed_shapes_and_zero_columns() {
        let p = 4;
        let machine = Machine::new(p, CostParams::unit());
        let shapes = [(64usize, 8usize), (64, 3), (64, 0), (96, 5)];
        let problems: Vec<Matrix> = shapes
            .iter()
            .enumerate()
            .map(|(j, &(m, n))| Matrix::random(m, n, 50 + j as u64))
            .collect();
        let probs = &problems;
        let out = machine.run(|rank| {
            let w = rank.world();
            let locals: Vec<Matrix> = probs
                .iter()
                .map(|a| {
                    let lay = BlockRow::balanced(a.rows(), 1, w.size());
                    a.take_rows(&lay.local_rows(w.rank()))
                })
                .collect();
            tsqr_factor_batch(rank, &w, &locals)
        });
        for (j, &(m, n)) in shapes.iter().enumerate() {
            let lay = BlockRow::balanced(m, 1, p);
            let per_rank: Vec<QrFactors> = (0..p).map(|rk| out.results[rk][j].clone()).collect();
            if n == 0 {
                assert_eq!(per_rank[0].v_local.cols(), 0);
                assert!(per_rank[0].r.is_some());
                continue;
            }
            let fac = crate::verify::assemble_block_row(&per_rank, lay.counts());
            let resid = fac.residual(&problems[j]);
            assert!(resid < 1e-12, "problem {j} ({m} × {n}): residual {resid}");
        }
        // The zero-column problem adds no word and no flop to the
        // critical path.
        let c = out.stats.critical();
        assert_eq!((c.flops, c.words, c.msgs), (37798.66666666667, 790.0, 14.0));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let machine = Machine::new(2, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            tsqr_factor_batch(rank, &w, &[])
        });
        assert!(out.results.iter().all(|r| r.is_empty()));
        assert_eq!(out.stats.critical().msgs, 0.0);
    }
}
