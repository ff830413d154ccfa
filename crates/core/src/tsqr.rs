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
//! rank solves for its own `V` rows. It travels with `L` packed into its
//! strictly-lower half (LAPACK's `getrf` layout): the same `n²` words in
//! the same one message, so `(F, W, S)` do not see it.
//!
//! **The explicit `Q` is written where `V` lies.** A rank that is asked
//! for its rows of `Q` ([`tsqr_factor_into`]) writes `[I; 0] −
//! V_p·(T·V_topᵀ)` once its rows are `V`: the root after its own passes,
//! every other rank after its solve, from the `U` and `L` it unpacks —
//! reading `S` off `U`'s diagonal (`pivot_signs`) and forming `T` and
//! `V_top = L` with the root's own calls. Each rank thus runs exactly
//! the two pieces `qr3d_matrix::qr::thin_q_blocks` composes
//! (`thin_q_coefficients`, then `thin_q_rows` on its block), and the
//! ranks' `Q` is `thin_q_blocks` of the assembled `(V, T)` bit for bit,
//! without `V` ever leaving its rank. Forming `Q` is not charged, as it
//! never was on the host. Algebraically the same matrix is `−W·S`
//! (`T·V_topᵀ = U·S·L⁻ᵀ·Lᵀ = U·S`, so `[I; 0] − [L; W₂U⁻¹]·U·S = [I; 0]
//! − [X + S; W₂]·S`): one scale pass over `W` instead of a multiply,
//! agreeing with these bits to a few `n·ε` — not to the bit the
//! benchmark's harness holds the facade's `Q` to (ROADMAP).
//!
//! Costs (Lemma 5): `γ·O(max_p m_p n² + n³ log P) + β·O(n² log P) +
//! α·O(log P)`.

use qr3d_collectives::auto::broadcast;
use qr3d_collectives::tree::binomial_frames;
use qr3d_machine::{Comm, Payload, Rank};
use qr3d_matrix::qr::{thin_q_coefficients, thin_q_rows};
use qr3d_matrix::scratch::{put_matrix, take_matrix, ScratchArena};
use qr3d_matrix::tri::{lu_sign, trsm_right_in_place, Uplo};
use qr3d_matrix::{flops, MatMut, MatRef, Matrix};

use crate::tree::{self, Live, Node, TreeIo};

#[doc(hidden)]
pub use crate::tree::LEAF_WORDS;

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

/// The column signs `S` of the reconstruction, read off the pivots of
/// its `U`: [`lu_sign`] makes pivot `j` `x̂ + sgn(x̂)` — at least 1 in
/// magnitude and of `x̂`'s sign, with `±0` counted positive and a NaN
/// negative — so `s_j = +1` exactly where `u_jj ≥ 0`. This is how a
/// position that was sent `U` knows the `s` the root computed, written
/// to `s` (`n` words).
fn pivot_signs(u: &Matrix, s: &mut [f64]) {
    for (j, s) in s.iter_mut().enumerate() {
        *s = if u[(j, j)] >= 0.0 { 1.0 } else { -1.0 };
    }
}

/// `T = U·S·L⁻ᵀ` into `t` (`n × n`, overwritten): `U`'s columns scaled
/// by `s`, then right-solved by `Lᵀ` in place. The one sequence of calls
/// by which the root forms the `T` it returns and every other rank the
/// same `T` for its rows of `Q`.
fn form_t(l: &Matrix, u: &Matrix, s: &[f64], mut t: MatMut<'_>) {
    for i in 0..u.rows() {
        for ((t, &u), &s) in t.row_mut(i).iter_mut().zip(u.row(i)).zip(s) {
            *t = u * s;
        }
    }
    trsm_right_in_place(Uplo::Lower, true, true, l, t);
}

/// `U` with `L`'s strictly-lower part in its zero half, row by row —
/// `n²` words, appended to `out`: the reconstruction's wire format.
fn pack_lu(l: &Matrix, u: &Matrix, out: &mut Vec<f64>) {
    for i in 0..u.rows() {
        out.extend_from_slice(&l.row(i)[..i]);
        out.extend_from_slice(&u.row(i)[i..]);
    }
}

/// Inverse of [`pack_lu`] into `l` and `u` (`n × n`, every word
/// overwritten): `L` unit lower triangular, `U` zero below its diagonal
/// — [`lu_sign`]'s two factors, bit for bit.
fn unpack_lu(words: &[f64], l: &mut Matrix, u: &mut Matrix) {
    let n = u.rows();
    for i in 0..n {
        let (lower, upper) = words[i * n..(i + 1) * n].split_at(i);
        let l_row = l.row_mut(i);
        l_row[..i].copy_from_slice(lower);
        l_row[i] = 1.0;
        l_row[i + 1..].fill(0.0);
        let u_row = u.row_mut(i);
        u_row[..i].fill(0.0);
        u_row[i..].copy_from_slice(upper);
    }
}

/// A position's rows `q` of the explicit thin Q-factor, from its rows
/// `v` of `V`, which start at row `first_row` of the whole: `[I; 0] −
/// v·(T·Lᵀ)`, `L` being `V`'s top block — `thin_q_blocks`'s two pieces,
/// scratch from `ws`.
fn write_q(
    ws: &mut dyn ScratchArena,
    l: &Matrix,
    t: &Matrix,
    v: MatRef<'_>,
    first_row: usize,
    q: MatMut<'_>,
) {
    let coef = thin_q_coefficients(ws, l.view(), t);
    thin_q_rows(v, &coef, first_row, q);
    put_matrix(ws, coef);
}

/// What the root derives from the top block of its `W` (C.2,
/// [BDG+15]): the sign-altered LU `X + S = LU` and, from it, `T`.
pub(crate) struct RootLu {
    l: Matrix,
    pub(crate) u: Matrix,
    pub(crate) t: Matrix,
}

/// The `n × n` part of the Householder reconstruction on the root, from
/// `w`, its `m_p × n` rows of `W`: `X + S = LU` of `W`'s top block,
/// `T = U·S·L⁻ᵀ`, and `R ← −S·R` applied to `r`. Charges the root's
/// whole reconstruction — the solve of [`finish_root`] included — in
/// the order the cost model has always had it: before `U` leaves.
pub(crate) fn reconstruct_root<I: TreeIo>(io: &mut I, w: MatRef<'_>, r: &mut Matrix) -> RootLu {
    let (mp, n) = (w.rows(), w.cols());
    let (l, u, s) = lu_sign(&w.block(0, n, 0, n).to_matrix());
    io.charge(flops::lu_sign(n));
    let mut t = Matrix::zeros(n, n);
    form_t(&l, &u, &s, t.view_mut());
    io.charge((n * n) as f64);
    io.charge(flops::trsm(n, n));
    io.charge(flops::trsm(n, mp - n));
    // R ← −S·R (scale row i by −s_i).
    for i in 0..n {
        for j in 0..n {
            r[(i, j)] *= -s[i];
        }
    }
    io.charge((n * n) as f64);
    RootLu { l, u, t }
}

/// The root's passes over its rows `w` of `W`: `V = [L; W₂·U⁻¹]` where
/// `W` lies — `W₂` solved in place, `L` over the top block. On a rank
/// they run once `U` is on its way, so that the other ranks' passes
/// overlap them instead of waiting for them.
pub(crate) fn finish_root(mut w: MatMut<'_>, lu: &RootLu) {
    let (mp, n) = (w.rows(), w.cols());
    let below = w.reborrow().into_block(n, mp, 0, n);
    trsm_right_in_place(Uplo::Upper, false, false, &lu.u, below);
    for i in 0..n {
        w.row_mut(i).copy_from_slice(lu.l.row(i));
    }
}

/// Every other position's `V` rows from its rows of `W` and the root's
/// `U`: `V = W·U⁻¹`, solved where `W` lies and charged to `io`.
pub(crate) fn solve_v_rows<I: TreeIo>(io: &mut I, u: &Matrix, w: MatMut<'_>) {
    let (rows, n) = (w.rows(), w.cols());
    trsm_right_in_place(Uplo::Upper, false, false, u, w);
    io.charge(flops::trsm(n, rows));
}

/// The reconstruction (C.2) at one position, from the `W`s its downsweep
/// wrote and the `nodes` its upsweep left: the root — which holds the
/// tree's `R`s — reconstructs every problem, every other position solves
/// for its `V` rows. `share_u` is how the problems' `U` factors — each
/// with its `L` packed in ([`pack_lu`]), concatenated — travel in
/// between: the root hands it `Some`, and it returns the words at every
/// position. With `qs`, the position also writes its rows of each
/// explicit `Q` there once `W` has become `V`. Every other position
/// unpacks `U` and `L`, and forms the `T` its rows of `Q` need, in
/// scratch drawn from `io`'s arena and returned to it.
pub(crate) fn reconstruct<I: TreeIo>(
    io: &mut I,
    root: bool,
    ws: Vec<Matrix>,
    nodes: Vec<Node>,
    qs: Option<&mut [MatMut<'_>]>,
    share_u: impl FnOnce(&mut I, Option<Vec<f64>>) -> Result<Payload, I::Stop>,
) -> Result<Vec<QrFactors>, I::Stop> {
    let mut qs = qs.map(|qs| qs.iter_mut());
    let mut next_q = || {
        let qs = qs.as_mut()?;
        Some(qs.next().expect("one Q block per problem").reborrow())
    };
    if root {
        let mut rs: Vec<Matrix> = nodes.into_iter().map(|node| node.r).collect();
        let lus: Vec<RootLu> = ws
            .iter()
            .zip(&mut rs)
            .map(|(w, r)| reconstruct_root(io, w.view(), r))
            .collect();
        let mut u_all = Vec::new();
        for lu in &lus {
            pack_lu(&lu.l, &lu.u, &mut u_all);
        }
        share_u(io, Some(u_all))?;
        let factors = ws.into_iter().zip(lus).zip(rs).map(|((mut w, lu), r)| {
            finish_root(w.view_mut(), &lu);
            if let Some(q) = next_q() {
                write_q(io.scratch(), &lu.l, &lu.t, w.view(), 0, q);
            }
            QrFactors {
                v_local: w,
                t: Some(lu.t),
                r: Some(r),
            }
        });
        Ok(factors.collect())
    } else {
        let packed = share_u(io, None)?;
        let mut rest = &packed[..];
        let mut out = Vec::with_capacity(ws.len());
        for mut v_local in ws {
            let n = v_local.cols();
            let (words, tail) = rest.split_at(n * n);
            rest = tail;
            let arena = io.scratch();
            let (mut l, mut u) = (take_matrix(arena, n, n), take_matrix(arena, n, n));
            unpack_lu(words, &mut l, &mut u);
            solve_v_rows(io, &u, v_local.view_mut());
            let arena = io.scratch();
            if let Some(q) = next_q() {
                let (mut s, mut t) = (arena.take(n), take_matrix(arena, n, n));
                pivot_signs(&u, &mut s);
                form_t(&l, &u, &s, t.view_mut());
                // Every other position's rows lie below the root's n.
                write_q(arena, &l, &t, v_local.view(), n, q);
                arena.put(s);
                put_matrix(arena, t);
            }
            put_matrix(arena, l);
            put_matrix(arena, u);
            out.push(QrFactors {
                v_local,
                t: None,
                r: None,
            });
        }
        Ok(out)
    }
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
    let a_views: Vec<MatRef<'_>> = a_locals.iter().map(Matrix::view).collect();
    factor_blocks(rank, comm, &a_views, None)
}

/// [`tsqr_factor_batch`] between blocks borrowed where they lie, with
/// the explicit thin `Q` as well: a rank's rows of a matrix the caller
/// holds whole ([`Matrix::block`]) are read in place — copied once, into
/// the buffer the leaf QR works in — and its rows of each `Q` are
/// written where the caller wants them ([`Matrix::row_blocks_mut`]), as
/// `[I; 0] − V_p·(T·V_topᵀ)` from the rank's own rows of `V` (see the
/// module docs): `thin_q_blocks` of the assembled factors, bit for bit,
/// with no extra word on the wire and no extra charge. Every word of
/// `qs[i]` is written before it is read, so `Q` may be freshly
/// allocated. The factors returned are [`tsqr_factor_batch`]'s, bit for
/// bit.
///
/// # Panics
/// If the two slices differ in length or a pair of blocks in shape.
pub fn tsqr_factor_into(
    rank: &mut Rank,
    comm: &Comm,
    a_locals: &[MatRef<'_>],
    qs: &mut [MatMut<'_>],
) -> Vec<QrFactors> {
    assert_eq!(a_locals.len(), qs.len(), "one Q block per local block");
    for (a, q) in a_locals.iter().zip(&*qs) {
        assert_eq!(
            (a.rows(), a.cols()),
            (q.rows(), q.cols()),
            "tsqr: a Q block must have its local block's shape"
        );
    }
    factor_blocks(rank, comm, a_locals, Some(qs))
}

/// The TSQR behind every form above, between blocks borrowed where they
/// lie: the two sweeps, then the reconstruction with `U` broadcast in
/// between — and with `qs`, each block's rows of `Q` on the way.
fn factor_blocks(
    rank: &mut Rank,
    comm: &Comm,
    a_locals: &[MatRef<'_>],
    qs: Option<&mut [MatMut<'_>]>,
) -> Vec<QrFactors> {
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
    let mut ws: Vec<Matrix> = a_locals
        .iter()
        .map(|a| Matrix::zeros(a.rows(), a.cols()))
        .collect();
    let mut w_views: Vec<MatMut<'_>> = ws.iter_mut().map(Matrix::view_mut).collect();
    let Ok(()) = tree::downsweep(&mut io, &frames, me, &mut nodes, top, &mut w_views);

    // The U factors of every problem share one broadcast — which, like
    // the sweeps' messages, a batch without a single column skips.
    let u_total: usize = a_locals.iter().map(|a| a.cols().pow(2)).sum();
    let Ok(out) = reconstruct(&mut io, me == 0, ws, nodes, qs, |io, u_all| {
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
    use qr3d_matrix::gemm::{matmul, matmul_tn};
    use qr3d_matrix::layout::BlockRow;
    use qr3d_matrix::qr::{q_times, thin_q, thin_q_blocks};

    fn bits(x: &Matrix) -> Vec<u64> {
        x.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// `thin_q_blocks` of one problem's factors, `V` as the ranks hold it.
    fn thin_q_of(per_rank: &[&QrFactors]) -> Matrix {
        let blocks: Vec<&Matrix> = per_rank.iter().map(|fac| &fac.v_local).collect();
        thin_q_blocks(&blocks, per_rank[0].t.as_ref().expect("root holds T"))
    }

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

    /// `a` on `p` ranks through [`tsqr_factor_into`]: every rank's
    /// `(V, T, R)` — checked against [`tsqr_factor`]'s, bit for bit —
    /// and the explicit `Q` the ranks wrote, stacked.
    fn factor_with_q(a: &Matrix, p: usize) -> (Vec<QrFactors>, Matrix) {
        let n = a.cols();
        let starts = BlockRow::balanced(a.rows(), 1, p).starts();
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let a_loc = a.block(starts[w.rank()], starts[w.rank() + 1], 0, n);
            // Garbage in Q's buffer (finite, so that it cannot pass for
            // a NaN that reached Q): every word must be written.
            let mut q = Matrix::from_fn(a_loc.rows(), n, |_, _| 1e300);
            let fac = tsqr_factor_into(rank, &w, &[a_loc], &mut [q.view_mut()])
                .pop()
                .expect("one problem in, one factorization out");
            let plain = tsqr_factor(rank, &w, &a_loc.to_matrix());
            // By bits: a poisoned `A` makes both NaN.
            assert_eq!(bits(&fac.v_local), bits(&plain.v_local), "V");
            assert_eq!(fac.t.as_ref().map(bits), plain.t.as_ref().map(bits), "T");
            assert_eq!(fac.r.as_ref().map(bits), plain.r.as_ref().map(bits), "R");
            (fac, q)
        });
        let mut q = Matrix::zeros(0, n);
        let mut facs = Vec::with_capacity(p);
        for (fac, q_loc) in out.results {
            q = q.vstack(&q_loc);
            facs.push(fac);
        }
        (facs, q)
    }

    #[test]
    fn the_ranks_q_is_thin_q_of_the_assembled_factors() {
        // Each rank's rows of Q against thin_q_blocks of the same run's
        // (V, T), V as the ranks hold it: bit for bit, at every κ.
        use qr3d_matrix::qr::random_with_condition;
        for p in [1usize, 2, 3, 4, 8] {
            for n in [1usize, 7, 8, 64] {
                for (i, kappa) in [1.0, 1e8, 1e15].into_iter().enumerate() {
                    // Rows divisible neither by P nor by 8.
                    let m = n * p + 8 * p + 3;
                    let seed = (100 * p + 10 * n + i) as u64;
                    let a = random_with_condition(m, n, kappa, seed);
                    let (facs, q) = factor_with_q(&a, p);
                    let ctx = format!("P={p} m={m} n={n} κ={kappa:e}");
                    let per_rank: Vec<&QrFactors> = facs.iter().collect();
                    assert_eq!(bits(&q), bits(&thin_q_of(&per_rank)), "{ctx}: Q");
                    let lay = BlockRow::balanced(m, 1, p);
                    let fac = crate::verify::assemble_block_row(&facs, lay.counts());
                    assert!(fac.residual(&a) < 1e-12, "{ctx}: residual");
                }
            }
        }
    }

    #[test]
    fn u_and_l_share_one_message_bit_for_bit() {
        // lu_sign's factors through the wire format and back, at ±0
        // and NaN entries in either half and on U's diagonal.
        let mut tops: Vec<Matrix> = (0..8).map(|s| Matrix::random(7, 7, 300 + s)).collect();
        let mut signed = Matrix::random(5, 5, 3);
        signed[(0, 0)] = -0.0;
        signed[(3, 1)] = -0.0;
        signed[(1, 4)] = 0.0;
        tops.push(signed);
        let mut nans = Matrix::random(5, 5, 4);
        nans[(4, 0)] = f64::NAN;
        nans[(0, 3)] = f64::NAN;
        tops.push(nans);
        tops.push(Matrix::from_fn(4, 4, |_, _| -0.0));
        tops.push(Matrix::from_fn(3, 3, |_, _| f64::NAN));
        tops.push(Matrix::zeros(0, 0));
        for x in &tops {
            let n = x.rows();
            let (l, u, _) = lu_sign(x);
            let mut words = vec![f64::NAN];
            pack_lu(&l, &u, &mut words);
            assert_eq!(words.len(), 1 + n * n, "n² words");
            // Garbage in the buffers: every word is overwritten.
            let (mut l2, mut u2) = (Matrix::random(n, n, 5), Matrix::random(n, n, 6));
            unpack_lu(&words[1..], &mut l2, &mut u2);
            assert_eq!(bits(&l2), bits(&l), "L of {x:?}");
            assert_eq!(bits(&u2), bits(&u), "U of {x:?}");
        }
    }

    #[test]
    fn signs_read_off_u_are_the_signs_lu_sign_chose() {
        let mut tops: Vec<Matrix> = (0..20).map(|s| Matrix::random(6, 6, 900 + s)).collect();
        let mut zeros = Matrix::random(5, 5, 1);
        zeros[(0, 0)] = 0.0;
        zeros[(1, 1)] = -0.0;
        tops.push(zeros);
        tops.push(Matrix::zeros(4, 4));
        tops.push(Matrix::from_fn(3, 3, |_, _| -0.0));
        tops.push(Matrix::from_fn(3, 3, |_, _| f64::NAN));
        let mut nan_pivot = Matrix::random(4, 4, 2);
        nan_pivot[(2, 2)] = f64::NAN;
        tops.push(nan_pivot);
        let read_off = |u: &Matrix| {
            let mut s = vec![0.0; u.rows()];
            pivot_signs(u, &mut s);
            s
        };
        for x in &tops {
            let (_, u, s) = lu_sign(x);
            assert_eq!(read_off(&u), s, "top block {x:?}");
        }
        let (_, u, s) = lu_sign(&Matrix::from_fn(2, 2, |_, _| f64::NAN));
        assert_eq!((read_off(&u), s), (vec![-1.0; 2], vec![-1.0; 2]));
    }

    #[test]
    fn a_nan_in_a_reaches_q() {
        for (i, j) in [(0usize, 0usize), (37, 2), (63, 4)] {
            let mut a = Matrix::random(64, 5, 3);
            a[(i, j)] = f64::NAN;
            let (_, q) = factor_with_q(&a, 4);
            let poisoned = q.as_slice().iter().any(|x| x.is_nan());
            assert!(poisoned, "NaN at A({i},{j}) was masked");
        }
    }

    #[test]
    fn into_batch_handles_mixed_shapes_and_zero_columns() {
        let p = 3;
        let shapes = [(30usize, 4usize), (21, 0), (45, 7)];
        let problems: Vec<Matrix> = shapes
            .iter()
            .enumerate()
            .map(|(j, &(m, n))| Matrix::random(m, n, 60 + j as u64))
            .collect();
        let machine = Machine::new(p, CostParams::unit());
        let run = |probs: &[Matrix]| {
            machine.run(|rank| {
                let w = rank.world();
                let rows = |a: &Matrix| {
                    let starts = BlockRow::balanced(a.rows(), 1, p).starts();
                    (starts[w.rank()], starts[w.rank() + 1])
                };
                let locals: Vec<MatRef<'_>> = probs
                    .iter()
                    .map(|a| a.block(rows(a).0, rows(a).1, 0, a.cols()))
                    .collect();
                let mut qs: Vec<Matrix> = locals
                    .iter()
                    .map(|a| Matrix::zeros(a.rows(), a.cols()))
                    .collect();
                let mut q_views: Vec<MatMut<'_>> = qs.iter_mut().map(Matrix::view_mut).collect();
                let facs = tsqr_factor_into(rank, &w, &locals, &mut q_views);
                (facs, qs)
            })
        };
        let out = run(&problems);
        for (j, a) in problems.iter().enumerate() {
            let (m, n) = (a.rows(), a.cols());
            let mut q = Matrix::zeros(0, n);
            for rk in 0..p {
                let (facs, qs) = &out.results[rk];
                assert_eq!(qs[j].cols(), n, "problem {j}, rank {rk}: Q block width");
                assert_eq!(qs[j].rows(), facs[j].v_local.rows());
                q = q.vstack(&qs[j]);
            }
            assert_eq!((q.rows(), q.cols()), (m, n));
            let per_rank: Vec<&QrFactors> = out.results.iter().map(|(facs, _)| &facs[j]).collect();
            assert_eq!(bits(&q), bits(&thin_q_of(&per_rank)), "problem {j}: Q");
            if n > 0 {
                let r = out.results[0].0[j].r.as_ref().expect("root holds R");
                let resid = matmul(&q, r).sub(a).frobenius_norm() / a.frobenius_norm();
                assert!(resid < 1e-12, "problem {j} ({m} × {n}): residual {resid}");
            }
        }
        // A batch of nothing but empty problems exchanges no message.
        let empties = [Matrix::zeros(9, 0), Matrix::zeros(12, 0)];
        let out = run(&empties);
        assert_eq!(out.stats.critical().msgs, 0.0);
        assert_eq!(out.results[1].1[1].cols(), 0);
    }

    #[test]
    fn leaves_above_leaf_words_factor_at_the_benchmarks_thresholds() {
        // 8192 × 64 on two ranks: each leaf is two blocks. And a leaf
        // whose last block is ragged, fused with it ≡ on its own.
        use crate::tree::LEAF_WORDS;
        let a = Matrix::random(8192, 64, 21);
        let (facs, q) = factor_with_q(&a, 2);
        let r = facs[0].r.as_ref().expect("root holds R");
        let resid = matmul(&q, r).sub(&a).frobenius_norm() / a.frobenius_norm();
        assert!(resid <= 1e-11, "8192 × 64: residual {resid}");
        let orth = matmul_tn(&q, &q).sub(&Matrix::identity(64)).max_abs();
        assert!(orth <= 1e-10, "8192 × 64: orthogonality {orth}");
        let per_rank: Vec<&QrFactors> = facs.iter().collect();
        assert_eq!(bits(&q), bits(&thin_q_of(&per_rank)), "8192 × 64: Q");
        let fac = crate::verify::assemble_block_row(&facs, &[4096, 4096]);
        assert!(fac.residual(&a) <= 1e-11, "8192 × 64: (V, T) residual");

        let (p, n) = (2usize, 8usize);
        let m = p * (2 * (LEAF_WORDS / n) + 100);
        let tall = Matrix::random(m, n, 22);
        let small = Matrix::random(64, n, 23);
        let machine = Machine::new(p, CostParams::unit());
        let rows = |a: &Matrix, rk: usize| {
            let mp = a.rows() / p;
            a.submatrix(rk * mp, (rk + 1) * mp, 0, n)
        };
        let fused = machine.run(|rank| {
            let w = rank.world();
            let locals = [rows(&small, w.rank()), rows(&tall, w.rank())];
            tsqr_factor_batch(rank, &w, &locals)
        });
        let single = machine.run(|rank| {
            let w = rank.world();
            tsqr_factor(rank, &w, &rows(&tall, w.rank()))
        });
        for rk in 0..p {
            assert_eq!(fused.results[rk][1].v_local, single.results[rk].v_local);
            assert_eq!(fused.results[rk][1].t, single.results[rk].t);
            assert_eq!(fused.results[rk][1].r, single.results[rk].r);
        }
        let fac = crate::verify::assemble_block_row(&single.results, &[m / p, m / p]);
        assert!(fac.residual(&tall) <= 1e-11, "ragged leaf: residual");
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
