//! 3D-CAQR-EG (paper Section 7, Theorem 1) — the paper's main
//! contribution.
//!
//! An instantiation of the qr-eg template (Algorithm 2) on a row-cyclic
//! distribution. The inductive case's six multiplications are 3D dmms
//! (Lemma 4), each wrapped in two-phase all-to-alls that convert between
//! the row-cyclic and brick layouts (Section 7.2): one for each operand
//! and one for the product, so an inductive node runs eighteen, each
//! `2⌈log₂P⌉` messages on a rank's path. The base case converts
//! the current panel from (shifted) row-cyclic to the block-row layout
//! 1D-CAQR-EG requires, over `P* = min(P, ⌊m/n⌋)` representative
//! processors, runs 1D-CAQR-EG with threshold `b*`, and converts back
//! (Section 7.1).
//!
//! Navigating `b = Θ(n/(nP/m)^δ)`, `b* = Θ(b/(log P)^ε)` (Equation (12))
//! with `δ ∈ [1/2, 2/3]`, `ε = 1` yields Theorem 1:
//!
//! ```text
//!   #operations      #words              #messages
//!   mn²/P            n²/(nP/m)^δ         (nP/m)^δ (log P)²
//! ```
//!
//! δ = 1/2 is latency-optimal; δ = 2/3 is bandwidth-optimal; the paper
//! conjectures the product cannot be beaten.

use qr3d_machine::{Comm, Rank};
use qr3d_matrix::scratch::{put_matrix, take_matrix};
use qr3d_matrix::{flops, Matrix};
use qr3d_mm::brick::TransposedDist;
use qr3d_mm::dmm3d::dmm3d_redistributed;

use crate::caqr1d::{caqr1d_factor, Caqr1dConfig};
use crate::params::caqr3d_blocks;
use crate::shifted::ShiftedRowCyclic;

/// Configuration for 3D-CAQR-EG: the two recursion thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caqr3dConfig {
    /// qr-eg threshold: panels of ≤ `b` columns go to the 1D base case.
    pub b: usize,
    /// 1D-CAQR-EG threshold used inside the base case.
    pub bstar: usize,
}

impl Caqr3dConfig {
    /// Explicit thresholds (`1 ≤ b* ≤ b` is the sensible regime; the
    /// paper notes "there is no loss of generality to suppose
    /// b* ≤ b ≤ n").
    pub fn new(b: usize, bstar: usize) -> Self {
        assert!(b >= 1 && bstar >= 1, "thresholds must be positive");
        Caqr3dConfig { b, bstar }
    }

    /// The paper's Equation (12) with `ε = 1` (Theorem 1's choice) and
    /// the given `δ`.
    pub fn auto(m: usize, n: usize, p: usize, delta: f64) -> Self {
        let (b, bstar) = caqr3d_blocks(m, n, p, delta, 1.0);
        Caqr3dConfig { b, bstar }
    }
}

/// 3D-CAQR-EG output: `V` distributed like `A` (row-cyclic), `T` and `R`
/// distributed "matching the top n × n submatrix of A" (row-cyclic over
/// the first ranks).
#[derive(Debug, Clone)]
pub struct QrFactorsCyclic {
    /// This rank's rows of `V` (ascending global row order).
    pub v_local: Matrix,
    /// This rank's rows of `T`.
    pub t_local: Matrix,
    /// This rank's rows of `R`.
    pub r_local: Matrix,
}

/// Factor the row-cyclic `a_local` (`m × n` over the communicator, rank
/// `r` owning rows `r, r+P, …` ascending) with 3D-CAQR-EG.
pub fn caqr3d_factor(
    rank: &mut Rank,
    comm: &Comm,
    a_local: &Matrix,
    m: usize,
    n: usize,
    cfg: &Caqr3dConfig,
) -> QrFactorsCyclic {
    assert!(m >= n, "caqr3d: need m ≥ n (got {m} × {n})");
    assert!(n >= 1, "caqr3d: need at least one column");
    let lay = ShiftedRowCyclic::new(m, n, comm.size(), 0);
    assert_eq!(
        a_local.rows(),
        lay.local_count(comm.rank()),
        "local row count"
    );
    assert_eq!(a_local.cols(), n, "local col count");
    let (v_local, t_local, r_local) = recurse(rank, comm, a_local, &lay, cfg, false);
    QrFactorsCyclic {
        v_local,
        t_local,
        r_local,
    }
}

/// Inductive recursion. `a_local` holds this rank's rows of the current
/// panel under `lay` (a shifted row-cyclic layout of the panel's
/// `m_cur × n_cur`); returns `(V rows under lay, T rows, R rows)` with
/// `T`/`R` under `ShiftedRowCyclic(n_cur, n_cur, P, lay.shift())`.
///
/// With `pooled`, an inductive case draws the three results from the
/// rank's workspace, for a caller that puts them back; the top level
/// returns fresh ones, which leave the job. Every temporary goes back to
/// the workspace before the call returns.
fn recurse(
    rank: &mut Rank,
    comm: &Comm,
    a_local: &Matrix,
    lay: &ShiftedRowCyclic,
    cfg: &Caqr3dConfig,
    pooled: bool,
) -> (Matrix, Matrix, Matrix) {
    let n = lay.cols();
    let p = comm.size();
    let me = comm.rank();
    let shift = lay.shift();
    let mp = a_local.rows();

    // Base case (Lines 1–2): convert to block-row and run 1D-CAQR-EG.
    if n <= cfg.b {
        return base_case(rank, comm, a_local, lay, cfg.bstar);
    }

    // Line 4: split columns.
    let nl = n / 2;
    let nr = n - nl;
    let a_left = take_block(rank, a_local, 0, mp, 0, nl);
    let a_right = take_block(rank, a_local, 0, mp, nl, n);
    let lay_l = lay.with_cols(nl);
    let lay_r = lay.with_cols(nr);

    // Line 5: left recursion (distribution unchanged, only n shrinks).
    let (vl_local, tl_local, rl_local) = recurse(rank, comm, &a_left, &lay_l, cfg, true);
    put_matrix(rank.workspace(), a_left);
    let tl_lay = ShiftedRowCyclic::new(nl, nl, p, shift);

    // Small row-cyclic layouts for the intermediate products.
    let small_lay = ShiftedRowCyclic::new(nl, nr, p, shift);

    // Line 6: M₁ = V_Lᵀ·[A₁₂; A₂₂] — 3D dmm (I=nl, J=nr, K=m), the left
    // factor row-cyclic *transposed* (Section 7.2).
    let m1 = dmm3d_redistributed(
        rank,
        comm,
        vl_local.as_slice(),
        &TransposedDist(lay_l.clone()),
        a_right.as_slice(),
        &lay_r,
        &small_lay,
    );

    // Line 7: M₂ = T_Lᵀ·M₁ — 3D dmm (I=K=nl, J=nr).
    let m2 = dmm3d_redistributed(
        rank,
        comm,
        tl_local.as_slice(),
        &TransposedDist(tl_lay.clone()),
        &m1,
        &small_lay,
        &small_lay,
    );
    rank.workspace().put(m1);

    // Line 8: [B₁₂; B₂₂] = [A₁₂; A₂₂] − V_L·M₂ — 3D dmm (I=m, J=nr, K=nl)
    // into the row-cyclic layout, then a communication-free subtraction.
    let vl_m2 = dmm3d_redistributed(
        rank,
        comm,
        vl_local.as_slice(),
        &lay_l,
        &m2,
        &small_lay,
        &lay_r,
    );
    rank.workspace().put(m2);
    let mut b_panel = a_right;
    let vl_m2 = Matrix::from_vec(mp, nr, vl_m2);
    b_panel.sub_assign(&vl_m2);
    rank.charge_flops(flops::matrix_add(mp, nr));
    put_matrix(rank.workspace(), vl_m2);

    // Line 9: right recursion on B₂₂ = rows nl.. of the panel. Our local
    // rows are ascending, so the B₂₂ rows are a suffix.
    let drop = lay.local_rows_before(me, nl);
    let b22_local = take_block(rank, &b_panel, drop, mp, 0, nr);
    let lay22 = lay.tail_rows(nl).with_cols(nr);
    let (vr_local, tr_local, rr_local) = recurse(rank, comm, &b22_local, &lay22, cfg, true);
    put_matrix(rank.workspace(), b22_local);
    let tr_lay = ShiftedRowCyclic::new(nr, nr, p, shift + nl);

    // The three results, zeroed, from the workspace or fresh.
    let zeros = |rank: &mut Rank, r: usize, c: usize| {
        if pooled {
            take_matrix(rank.workspace(), r, c)
        } else {
            Matrix::zeros(r, c)
        }
    };

    // Line 10: local V assembly: V = [V_L  [0; V_R]].
    let mut v_local = zeros(rank, mp, n);
    v_local.set_submatrix(0, 0, &vl_local);
    v_local.set_submatrix(drop, nl, &vr_local);

    // Line 11: M₃ = V_Lᵀ·[0; V_R] — 3D dmm (I=nl, J=nr, K=m) on the
    // zero-padded right block of V.
    let zero_vr = take_block(rank, &v_local, 0, mp, nl, n);
    let m3 = dmm3d_redistributed(
        rank,
        comm,
        vl_local.as_slice(),
        &TransposedDist(lay_l.clone()),
        zero_vr.as_slice(),
        &lay_r,
        &small_lay,
    );
    put_matrix(rank.workspace(), zero_vr);

    // Line 12: M₄ = M₃·T_R — 3D dmm (I=nl, J=nr, K=nr).
    let m4 = dmm3d_redistributed(
        rank,
        comm,
        &m3,
        &small_lay,
        tr_local.as_slice(),
        &tr_lay,
        &small_lay,
    );
    rank.workspace().put(m3);

    // Line 13: T₁₂ = −T_L·M₄ — 3D dmm (I=nl, J=nr, K=nl), negated locally.
    let t12 = dmm3d_redistributed(
        rank,
        comm,
        tl_local.as_slice(),
        &tl_lay,
        &m4,
        &small_lay,
        &small_lay,
    );
    rank.workspace().put(m4);
    let mut t12 = Matrix::from_vec(small_lay.local_count(me), nr, t12);
    t12.scale(-1.0);
    rank.charge_flops((t12.rows() * t12.cols()) as f64);

    // Lines 13–14: local assembly of T and R. Row g < nl of T/R is owned
    // by (g + shift) mod P — exactly T_L/T₁₂'s (and R_L/B₁₂'s) owner; row
    // g ≥ nl by (g + shift) mod P = ((g − nl) + shift + nl) mod P —
    // exactly T_R/R_R's owner. So assembly is local, and since local rows
    // ascend, the rows < nl owned here precede the rows ≥ nl.
    let out_lay = ShiftedRowCyclic::new(n, n, p, shift);
    let my_top = tl_lay.local_count(me); // rows < nl owned here
    let my_bot = tr_lay.local_count(me); // rows ≥ nl owned here
    assert_eq!(out_lay.local_count(me), my_top + my_bot);
    assert_eq!(out_lay.local_rows_before(me, nl), my_top);
    // b_panel's first `drop` local rows are the panel rows < nl: B₁₂.
    assert_eq!(drop, my_top, "B₁₂ row alignment");
    let mut t_local = zeros(rank, my_top + my_bot, n);
    let mut r_local = zeros(rank, my_top + my_bot, n);
    for k in 0..my_top {
        // T row: [T_L | T₁₂] ; R row: [R_L | B₁₂].
        let (t_left, t_right) = t_local.row_mut(k).split_at_mut(nl);
        t_left.copy_from_slice(tl_local.row(k));
        t_right.copy_from_slice(t12.row(k));
        let (r_left, r_right) = r_local.row_mut(k).split_at_mut(nl);
        r_left.copy_from_slice(rl_local.row(k));
        r_right.copy_from_slice(b_panel.row(k));
    }
    for k in 0..my_bot {
        // T row: [0 | T_R] ; R row: [0 | R_R].
        t_local.row_mut(my_top + k)[nl..].copy_from_slice(tr_local.row(k));
        r_local.row_mut(my_top + k)[nl..].copy_from_slice(rr_local.row(k));
    }
    for m in [
        t12, b_panel, vl_local, tl_local, rl_local, vr_local, tr_local, rr_local,
    ] {
        put_matrix(rank.workspace(), m);
    }

    (v_local, t_local, r_local)
}

/// Rows `r0..r1`, columns `c0..c1` of `a`, copied into a buffer from the
/// rank's workspace (return it with `put_matrix`).
fn take_block(rank: &mut Rank, a: &Matrix, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
    let mut block = rank.workspace().take_empty((r1 - r0) * (c1 - c0));
    for i in r0..r1 {
        block.extend_from_slice(&a.row(i)[c0..c1]);
    }
    Matrix::from_vec(r1 - r0, c1 - c0, block)
}

/// The Section 7.1 conversion plan: which global rows each *representative*
/// holds after the gathers and the top-row swap, all computed locally from
/// `(m, n, P, shift)` by every rank.
struct ConversionPlan {
    /// Number of ranks owning rows: `P' = min(m, P)`.
    p_prime: usize,
    /// Number of groups/representatives: `P* = min(P, ⌊m/n⌋)`.
    p_star: usize,
    /// Representatives holding top rows pre-swap: `P'' = min(P*, n)`.
    p_dd: usize,
    /// World-local rank of cyclic processor `k` (`k < p_prime`).
    rank_of_cyclic: Vec<usize>,
    /// Cyclic processors in group `g` (ordered; representative first).
    groups: Vec<Vec<usize>>,
    /// Rows held by representative `g` after the phase-1 gathers
    /// (concatenation of member row lists).
    held_after_gather: Vec<Vec<usize>>,
    /// Rows held by representative `g` when 1D-CAQR-EG runs (rep 0 starts
    /// with rows `0..n` ascending).
    held_final: Vec<Vec<usize>>,
    /// Top rows (`< n`) representative `j ≥ 1` surrenders in the swap.
    tops: Vec<Vec<usize>>,
    /// Replacement rows representative 0 hands to `j ≥ 1`.
    spares: Vec<Vec<usize>>,
}

impl ConversionPlan {
    fn new(m: usize, n: usize, p: usize, shift: usize) -> Self {
        assert!(m >= n && n >= 1);
        let p_prime = m.min(p);
        // P* = min(P, ⌊m/n⌋), reduced (rarely, by rounding) until every
        // group genuinely owns ≥ n rows. The paper's "each of the P*
        // representatives now owns at least ⌊m/P*⌋ ≥ n rows" is loose for
        // non-divisible sizes: a group of ⌊P'/P*⌋ processors can own up to
        // P'−1 rows fewer than one of ⌈P'/P*⌉.
        let rows_of = |k: usize| (m - k - 1) / p + 1; // rows k, k+P, … < m
        let mut p_star = p.min((m / n).max(1));
        while p_star > 1 {
            let min_group: usize = (0..p_star)
                .map(|g| (g..p_prime).step_by(p_star).map(rows_of).sum::<usize>())
                .min()
                .unwrap();
            if min_group >= n {
                break;
            }
            p_star -= 1;
        }
        let p_dd = p_star.min(n);
        let rank_of_cyclic: Vec<usize> = (0..p_prime).map(|k| (k + shift) % p).collect();
        let rows_of_cyclic = |k: usize| -> Vec<usize> { (k..m).step_by(p).collect() };
        let groups: Vec<Vec<usize>> = (0..p_star)
            .map(|g| (g..p_prime).step_by(p_star).collect())
            .collect();
        let held_after_gather: Vec<Vec<usize>> = groups
            .iter()
            .map(|members| members.iter().flat_map(|&k| rows_of_cyclic(k)).collect())
            .collect();
        let tops: Vec<Vec<usize>> = held_after_gather
            .iter()
            .map(|rows| rows.iter().copied().filter(|&i| i < n).collect())
            .collect();
        // Rep 0's spare (non-top) rows, handed out front-first.
        let non_top_0: Vec<usize> = held_after_gather[0]
            .iter()
            .copied()
            .filter(|&i| i >= n)
            .collect();
        let mut spares: Vec<Vec<usize>> = vec![Vec::new(); p_star];
        let mut cursor = 0;
        for j in 1..p_dd {
            let need = tops[j].len();
            assert!(
                cursor + need <= non_top_0.len(),
                "conversion: representative 0 lacks spare rows \
                 (m={m}, n={n}, P={p}); the P* bound should prevent this"
            );
            spares[j] = non_top_0[cursor..cursor + need].to_vec();
            cursor += need;
        }
        let mut held_final: Vec<Vec<usize>> = Vec::with_capacity(p_star);
        for g in 0..p_star {
            if g == 0 {
                let mut rows: Vec<usize> = (0..n).collect();
                rows.extend(non_top_0[cursor..].iter().copied());
                held_final.push(rows);
            } else if g < p_dd {
                let mut rows: Vec<usize> = held_after_gather[g]
                    .iter()
                    .copied()
                    .filter(|&i| i >= n)
                    .collect();
                rows.extend(spares[g].iter().copied());
                held_final.push(rows);
            } else {
                held_final.push(held_after_gather[g].clone());
            }
        }
        for (g, rows) in held_final.iter().enumerate() {
            assert!(
                rows.len() >= n,
                "conversion: representative {g} holds {} < n = {n} rows \
                 (m={m}, P={p}, P*={p_star})",
                rows.len()
            );
        }
        ConversionPlan {
            p_prime,
            p_star,
            p_dd,
            rank_of_cyclic,
            groups,
            held_after_gather,
            held_final,
            tops,
            spares,
        }
    }

    /// This world-local rank's cyclic number, if it owns rows.
    fn cyclic_of_rank(&self, rank: usize, p: usize, shift: usize) -> Option<usize> {
        let k = (rank + p - shift % p) % p;
        (k < self.p_prime).then_some(k)
    }
}

/// Split `flat` — rows of width `n`, whose global indices `rows` lists —
/// into the top rows (index `< n`) and the rest, each in `rows`' order.
fn split_tops(rows: &[usize], flat: &[f64], n: usize) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(flat.len(), rows.len() * n);
    let (mut tops, mut rest) = (Vec::new(), Vec::with_capacity(flat.len()));
    for (&row, vals) in rows.iter().zip(flat.chunks_exact(n)) {
        if row < n { &mut tops } else { &mut rest }.extend_from_slice(vals);
    }
    (tops, rest)
}

/// Inverse of [`split_tops`]: interleave `tops` and `rest` back into
/// `rows`' order.
fn merge_tops(rows: &[usize], tops: &[f64], rest: &[f64], n: usize) -> Vec<f64> {
    assert_eq!(tops.len() + rest.len(), rows.len() * n);
    let (mut tops, mut rest) = (tops.chunks_exact(n), rest.chunks_exact(n));
    let mut flat = Vec::with_capacity(rows.len() * n);
    for &row in rows {
        let vals = if row < n { tops.next() } else { rest.next() };
        flat.extend_from_slice(vals.expect("as many top rows as `rows` lists"));
    }
    flat
}

/// Cut `flat` into consecutive blocks of the given sizes.
fn split_blocks(flat: &[f64], sizes: &[usize]) -> Vec<Vec<f64>> {
    assert_eq!(flat.len(), sizes.iter().sum::<usize>());
    let mut rest = flat;
    sizes
        .iter()
        .map(|&size| {
            let (block, tail) = rest.split_at(size);
            rest = tail;
            block.to_vec()
        })
        .collect()
}

/// Section 7.1 base case: convert the (shifted) row-cyclic panel to the
/// block-row layout over `P*` representatives, run 1D-CAQR-EG with
/// threshold `b*`, and convert `V`, `T`, `R` back.
fn base_case(
    rank: &mut Rank,
    comm: &Comm,
    a_local: &Matrix,
    lay: &ShiftedRowCyclic,
    bstar: usize,
) -> (Matrix, Matrix, Matrix) {
    let m = lay.rows();
    let n = lay.cols();
    let p = comm.size();
    let me = comm.rank();
    let shift = lay.shift();
    let cfg1d = Caqr1dConfig::new(bstar.min(n.max(1)));

    if p == 1 {
        // Trivial machine: the local rows are already the whole matrix in
        // global order.
        let f = caqr1d_factor(rank, comm, a_local, &cfg1d);
        return (
            f.v_local,
            f.t.expect("single rank"),
            f.r.expect("single rank"),
        );
    }

    let plan = ConversionPlan::new(m, n, p, shift);
    let my_cyclic = plan.cyclic_of_rank(me, p, shift);
    let my_group = my_cyclic.map(|k| k % plan.p_star);
    let is_rep = my_cyclic.map(|k| k < plan.p_star).unwrap_or(false);

    // The group's member ranks and row-block sizes (phase 1 and its
    // reverse), and the sub-communicator of the representatives that swap
    // top rows (phase 2 and its reverse; only when there is a second one).
    let group = my_group.map(|g| {
        let members = &plan.groups[g];
        let member_ranks: Vec<usize> = members.iter().map(|&k| plan.rank_of_cyclic[k]).collect();
        let sub = comm.subset(&member_ranks).expect("group member");
        let sizes: Vec<usize> = members
            .iter()
            .map(|&k| ((k..m).step_by(p).count()) * n)
            .collect();
        (sub, sizes)
    });
    let swap = match my_group {
        Some(g) if is_rep && plan.p_dd > 1 && g < plan.p_dd => {
            let reps: Vec<usize> = (0..plan.p_dd).map(|j| plan.rank_of_cyclic[j]).collect();
            Some(comm.subset(&reps).expect("swap representative"))
        }
        _ => None,
    };
    let top_sizes: Vec<usize> = (0..plan.p_dd)
        .map(|j| if j == 0 { 0 } else { plan.tops[j].len() * n })
        .collect();
    let spare_sizes: Vec<usize> = (0..plan.p_dd).map(|j| plan.spares[j].len() * n).collect();
    // Rows representative 0 hands out as spares: the first `handed` of
    // its non-top rows.
    let handed: usize = plan.spares.iter().map(Vec::len).sum();

    // --- Phase 1: gather each group's rows to its representative. ---
    // Rows travel as whole local blocks; every rank's local rows are
    // ascending = its cyclic row list, so the gathered concatenation is
    // exactly `held_after_gather`'s row order.
    let own = group.as_ref().and_then(|(sub, sizes)| {
        qr3d_collectives::binomial::gather(rank, sub, 0, a_local.as_slice(), sizes)
    });

    // --- Phase 2 (swap top rows to representative 0: a gather of the top
    // rows and a scatter of spares back), 1D-CAQR-EG over the
    // representatives (cyclic order; rep 0 is the root and now owns rows
    // 0..n first), and the reverse of phase 2 for V. Leaves the group's V
    // rows in `held_after_gather` order. ---
    let mut v_own: Option<Vec<f64>> = None;
    let mut t_r_at_rep0: Option<(Matrix, Matrix)> = None;
    if is_rep {
        let g = my_group.expect("representative has a group");
        let own = own.expect("representative receives its group's rows");
        let own_rows = &plan.held_after_gather[g];
        let held = plan.held_final[g].len();
        let a_sub = if g == 0 {
            // Tops first, by global row: rep 0's own, then the others' in
            // gather (= representative) order.
            let (own_tops, rest) = split_tops(own_rows, &own, n);
            let flat = match &swap {
                Some(sub) => qr3d_collectives::binomial::gather(rank, sub, 0, &[], &top_sizes)
                    .expect("rep 0 receives tops"),
                None => Vec::new(),
            };
            let mut a_sub = Matrix::zeros(held, n);
            let top_rows = plan.tops[..plan.p_dd].iter().flatten();
            let top_vals = own_tops.chunks_exact(n).chain(flat.chunks_exact(n));
            assert_eq!(top_rows.clone().count(), n, "every top row arrives");
            for (&row, vals) in top_rows.zip(top_vals) {
                a_sub.row_mut(row).copy_from_slice(vals);
            }
            let (spares, kept) = rest.split_at(handed * n);
            a_sub.as_mut_slice()[n * n..].copy_from_slice(kept);
            if let Some(sub) = &swap {
                let blocks = split_blocks(spares, &spare_sizes);
                qr3d_collectives::binomial::scatter(rank, sub, 0, Some(blocks), &spare_sizes);
            }
            a_sub
        } else if let Some(sub) = &swap {
            let (my_tops, mut rows) = split_tops(own_rows, &own, n);
            qr3d_collectives::binomial::gather(rank, sub, 0, &my_tops, &top_sizes);
            let my_spares = qr3d_collectives::binomial::scatter(rank, sub, 0, None, &spare_sizes);
            rows.extend_from_slice(&my_spares);
            Matrix::from_vec(held, n, rows)
        } else {
            Matrix::from_vec(held, n, own)
        };

        let reps: Vec<usize> = (0..plan.p_star).map(|j| plan.rank_of_cyclic[j]).collect();
        let sub = comm.subset(&reps).expect("representative");
        let f = caqr1d_factor(rank, &sub, &a_sub, &cfg1d);
        let v = f.v_local;

        // Reverse phase 2: rep 0 scatters each rep's top-row V parts; reps
        // return the spares' V parts by gather.
        v_own = Some(if g == 0 {
            let flat = match &swap {
                Some(sub) => {
                    let blocks = plan.tops[..plan.p_dd]
                        .iter()
                        .enumerate()
                        .map(|(j, tops)| {
                            let tops = if j == 0 { &[][..] } else { &tops[..] };
                            tops.iter().flat_map(|&row| v.row(row)).copied().collect()
                        })
                        .collect::<Vec<Vec<f64>>>();
                    qr3d_collectives::binomial::scatter(rank, sub, 0, Some(blocks), &top_sizes);
                    qr3d_collectives::binomial::gather(rank, sub, 0, &[], &spare_sizes)
                        .expect("rep 0 receives spares")
                }
                None => Vec::new(),
            };
            let own_tops: Vec<f64> = plan.tops[0]
                .iter()
                .flat_map(|&row| v.row(row))
                .copied()
                .collect();
            let rest = [&flat[..], &v.as_slice()[n * n..]].concat();
            merge_tops(own_rows, &own_tops, &rest, n)
        } else if let Some(sub) = &swap {
            let my_tops = qr3d_collectives::binomial::scatter(rank, sub, 0, None, &top_sizes);
            let (rest, my_spares) = v.as_slice().split_at(v.as_slice().len() - spare_sizes[g]);
            qr3d_collectives::binomial::gather(rank, sub, 0, my_spares, &spare_sizes);
            merge_tops(own_rows, &my_tops, rest, n)
        } else {
            v.into_vec()
        });
        if g == 0 {
            t_r_at_rep0 = Some((f.t.expect("root"), f.r.expect("root")));
        }
    }

    // --- Reverse phase 1: scatter V rows back to the original owners. ---
    let mut v_local = Matrix::zeros(lay.local_count(me), n);
    if let Some((sub, sizes)) = &group {
        let blocks = v_own.map(|v| split_blocks(&v, sizes));
        let mine = qr3d_collectives::binomial::scatter(rank, sub, 0, blocks, sizes);
        assert_eq!(mine.len(), v_local.rows() * n);
        v_local.as_mut_slice().copy_from_slice(&mine);
    }

    // --- Scatter T and R rows from rep 0 to the shifted row-cyclic
    // layout over the whole communicator. ---
    let out_lay = ShiftedRowCyclic::new(n, n, p, shift);
    let tr_sizes: Vec<usize> = (0..p).map(|r| out_lay.local_count(r) * n * 2).collect();
    let rep0_rank = plan.rank_of_cyclic[0];
    let blocks = t_r_at_rep0.map(|(t, r)| {
        (0..p)
            .map(|dst| {
                let mut block = Vec::with_capacity(tr_sizes[dst]);
                for g in out_lay.local_rows(dst) {
                    block.extend_from_slice(t.row(g));
                }
                for g in out_lay.local_rows(dst) {
                    block.extend_from_slice(r.row(g));
                }
                block
            })
            .collect::<Vec<Vec<f64>>>()
    });
    let mine = qr3d_collectives::binomial::scatter(rank, comm, rep0_rank, blocks, &tr_sizes);
    let cnt = out_lay.local_count(me);
    let t_local = Matrix::from_vec(cnt, n, mine[..cnt * n].to_vec());
    let r_local = Matrix::from_vec(cnt, n, mine[cnt * n..].to_vec());

    (v_local, t_local, r_local)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::assemble_factorization;
    use qr3d_machine::{CostParams, Machine};

    fn check(m: usize, n: usize, p: usize, cfg: Caqr3dConfig, seed: u64) {
        let a = Matrix::random(m, n, seed);
        let lay = ShiftedRowCyclic::new(m, n, p, 0);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let a_loc = lay.scatter_from_full(&a, w.rank());
            caqr3d_factor(rank, &w, &a_loc, m, n, &cfg)
        });
        let fac = assemble_factorization(&out.results, m, n, p);
        assert!(
            fac.structure_ok(1e-10),
            "structure violated (m={m} n={n} p={p} {cfg:?})"
        );
        let resid = fac.residual(&a);
        assert!(resid < 1e-10, "m={m} n={n} p={p} {cfg:?}: residual {resid}");
        let orth = fac.orthogonality();
        assert!(
            orth < 1e-10,
            "m={m} n={n} p={p} {cfg:?}: orthogonality {orth}"
        );
    }

    #[test]
    fn base_case_only_tall_skinny() {
        // b ≥ n: straight to the conversion + 1D-CAQR-EG.
        check(64, 4, 4, Caqr3dConfig::new(8, 2), 1);
        check(48, 6, 4, Caqr3dConfig::new(6, 6), 2);
    }

    #[test]
    fn one_split_level() {
        check(64, 8, 4, Caqr3dConfig::new(4, 2), 3);
    }

    #[test]
    fn deep_recursion_squareish() {
        check(32, 16, 4, Caqr3dConfig::new(4, 2), 4);
        check(24, 24, 4, Caqr3dConfig::new(6, 3), 5);
    }

    #[test]
    fn odd_sizes_and_ranks() {
        check(45, 9, 3, Caqr3dConfig::new(3, 2), 6);
        check(50, 10, 5, Caqr3dConfig::new(5, 2), 7);
        check(33, 7, 6, Caqr3dConfig::new(3, 1), 8);
    }

    #[test]
    fn single_rank() {
        check(20, 8, 1, Caqr3dConfig::new(4, 2), 9);
    }

    #[test]
    fn more_ranks_than_rows_would_need() {
        // P > m/n: conversion must shrink to P* representatives.
        check(32, 8, 8, Caqr3dConfig::new(8, 4), 10);
        check(30, 10, 7, Caqr3dConfig::new(10, 3), 11);
    }

    #[test]
    fn auto_config() {
        let (m, n, p) = (128, 16, 8);
        check(m, n, p, Caqr3dConfig::auto(m, n, p, 0.5), 12);
        check(m, n, p, Caqr3dConfig::auto(m, n, p, 2.0 / 3.0), 13);
    }

    #[test]
    fn single_column() {
        check(16, 1, 4, Caqr3dConfig::new(1, 1), 14);
    }

    /// FNV-1a over a matrix's shape and the bits of its entries.
    fn digest(x: &Matrix) -> u64 {
        let words = [x.rows() as u64, x.cols() as u64];
        let bits = x.as_slice().iter().map(|v| v.to_bits());
        words
            .into_iter()
            .chain(bits)
            .fold(0xcbf2_9ce4_8422_2325, |h, w| {
                w.to_le_bytes()
                    .iter()
                    .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
            })
    }

    #[test]
    fn factors_and_facade_keep_their_golden_bits() {
        // Digests of 3D-CAQR-EG's V, T and R and of the facade's Q and R,
        // pinned: the redistributions and the thin Q-factor may change
        // how words travel and which zeros are multiplied, never a bit.
        // The benchmark's sq_3d shape, δ = ½, a tall shape on three
        // ranks, n ∤ m on five, and eight ranks.
        use crate::backend::{factor, FactorParams, QrBackend};
        let cases: [(usize, usize, usize, f64, [u64; 5]); 5] = [
            (
                384,
                384,
                4,
                2.0 / 3.0,
                [
                    0x06b4_9e03_b241_81b4,
                    0x2e5e_e2ac_c5a0_c5b6,
                    0xde44_58c0_6cfa_d606,
                    0x0d3a_f28a_c18a_5caf,
                    0xde44_58c0_6cfa_d606,
                ],
            ),
            (
                96,
                96,
                4,
                0.5,
                [
                    0xe69e_2f26_c915_0de4,
                    0xf91b_a284_c58a_68a7,
                    0x1340_39a6_13b3_c6ce,
                    0x370c_fb8f_6460_8f9c,
                    0x1340_39a6_13b3_c6ce,
                ],
            ),
            (
                200,
                48,
                3,
                2.0 / 3.0,
                [
                    0x0a0c_0905_153b_ceb8,
                    0x9b36_827c_1235_a545,
                    0x6fcc_4097_641f_3187,
                    0x4a02_1bb0_50e5_faaf,
                    0x6fcc_4097_641f_3187,
                ],
            ),
            (
                130,
                13,
                5,
                2.0 / 3.0,
                [
                    0x9f72_7bd0_a69d_4207,
                    0xd8a5_c3c5_e3b3_a52a,
                    0xd5ce_bdee_db8e_4a4e,
                    0x96c8_4154_cc48_ba1a,
                    0xd5ce_bdee_db8e_4a4e,
                ],
            ),
            (
                128,
                16,
                8,
                2.0 / 3.0,
                [
                    0xb331_74f3_1cc9_f596,
                    0x4540_f6dd_811b_8eb1,
                    0x5363_5578_e4ff_4c93,
                    0xffb6_1314_9e5f_68fc,
                    0x5363_5578_e4ff_4c93,
                ],
            ),
        ];
        let params = FactorParams::default();
        let mut moved = Vec::new();
        for (m, n, p, delta, want) in cases {
            let a = Matrix::random(m, n, (m + 7 * n + p) as u64);
            let lay = ShiftedRowCyclic::new(m, n, p, 0);
            let cfg = Caqr3dConfig::auto(m, n, p, delta);
            let out = Machine::new(p, params.machine).run(|rank| {
                let w = rank.world();
                caqr3d_factor(rank, &w, &lay.scatter_from_full(&a, w.rank()), m, n, &cfg)
            });
            let fac = assemble_factorization(&out.results, m, n, p);
            let facade = factor(&a, p, QrBackend::Caqr3d { delta }, &params).unwrap();
            let got = [&fac.v, &fac.t, &fac.r, &facade.q, &facade.r].map(digest);
            println!("{m} × {n}, P = {p}, δ = {delta}: {got:#018x?}");
            if got != want {
                moved.push(format!("{m} × {n} on P = {p}, δ = {delta}"));
            }
        }
        assert!(moved.is_empty(), "bits moved (V, T, R, Q, R): {moved:?}");
    }

    #[test]
    #[should_panic(expected = "m ≥ n")]
    fn rejects_wide() {
        let machine = Machine::new(1, CostParams::unit());
        let cfg = Caqr3dConfig::new(1, 1);
        let _ = machine.run(|rank| {
            let w = rank.world();
            caqr3d_factor(rank, &w, &Matrix::zeros(3, 5), 3, 5, &cfg)
        });
    }
}
