//! `2d-house` — the 2D block-cyclic Householder baseline (Section 8.1) —
//! and the shared 2D right-looking driver that `caqr2d` also uses.
//!
//! "For 2d-house we use a 2D processor grid \[and\] distribute matrices
//! (2D-)block-cyclically with b × b blocks: the distribution block size
//! matches the algorithmic block size. [...] we choose an r × c processor
//! grid with c = Θ((nP/m)^{1/2}) and r = Θ(P/c), and we choose b = Θ(1)."
//!
//! Layout note: we use row-block 1 (rows cyclic by grid row) and column
//! blocks of width `b` (panels cyclic by grid column). The row-block size
//! does not appear in the paper's cost analysis; the column block must
//! match the panel width, and does.
//!
//! Per panel: the owning grid column factors it (per-column all-reduces
//! for `2d-house`, one tsqr for `caqr2d`), `V`/`T` travel along row
//! fibers, and one column-fiber all-reduce forms `W = VᵀA` for the
//! trailing update. Costs (Table 2, `2d-house` row): `mn²/P` flops,
//! `n²/(nP/m)^{1/2}` words, `n log P` messages.
//!
//! Because pivot rows follow the cyclic distribution, the computed
//! factorization is of a row-permuted matrix; `R` is nevertheless *the*
//! R-factor of `A` (it satisfies `RᵀR = AᵀA` with nonnegative diagonal),
//! which is how the harness verifies these baselines (`verify::r_gram_error`).

use qr3d_collectives::auto::{all_reduce, broadcast};
use qr3d_collectives::binomial::{gather, scatter};
use qr3d_machine::{Comm, Rank};
use qr3d_matrix::gemm::Trans;
use qr3d_matrix::qr::geqrt_ws;
use qr3d_matrix::{flops, Matrix};
use qr3d_mm::local::{mm_local, mm_local_acc};

use crate::panel::house_panel;
use crate::tsqr::tsqr_factor;

/// A 2D processor grid with panel width `b` for the right-looking
/// algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid2Config {
    /// Grid rows (the paper's `r`).
    pub pr: usize,
    /// Grid columns (the paper's `c`).
    pub pc: usize,
    /// Panel width / distribution column-block.
    pub b: usize,
}

impl Grid2Config {
    /// Explicit grid.
    pub fn new(pr: usize, pc: usize, b: usize) -> Self {
        assert!(pr >= 1 && pc >= 1 && b >= 1, "invalid grid configuration");
        Grid2Config { pr, pc, b }
    }

    /// The paper's choice: `c = Θ((nP/m)^{1/2})`, `r = Θ(P/c)`, clamped to
    /// a valid grid with `r·c ≤ p`.
    pub fn auto(m: usize, n: usize, p: usize, b: usize) -> Self {
        assert!(m >= n && n >= 1 && p >= 1);
        let aspect = (n as f64 * p as f64 / m as f64).max(1.0);
        let mut pc = (aspect.sqrt().round() as usize).clamp(1, p);
        let pr = (p / pc).max(1);
        pc = p / pr; // use as many processors as divide evenly
        Grid2Config { pr, pc, b }
    }

    /// Active ranks.
    pub fn procs(&self) -> usize {
        self.pr * self.pc
    }

    /// Flat rank of `(grid row, grid col)`.
    pub fn flat(&self, pi: usize, pj: usize) -> usize {
        pi * self.pc + pj
    }

    /// Grid coordinates of a flat rank (`None` if idle).
    pub fn coords(&self, flat: usize) -> Option<(usize, usize)> {
        (flat < self.procs()).then(|| (flat / self.pc, flat % self.pc))
    }

    /// Global rows stored by grid row `pi` of an `m`-row matrix.
    pub fn rows_of(&self, m: usize, pi: usize) -> Vec<usize> {
        (0..m).filter(|i| i % self.pr == pi).collect()
    }

    /// Global columns stored by grid col `pj` of an `n`-column matrix
    /// (panels of width `b`, cyclic by grid column).
    pub fn cols_of(&self, n: usize, pj: usize) -> Vec<usize> {
        (0..n).filter(|j| (j / self.b) % self.pc == pj).collect()
    }

    /// Extract a rank's local piece from a full matrix (harness helper).
    pub fn scatter_from_full(&self, full: &Matrix, flat: usize) -> Matrix {
        match self.coords(flat) {
            None => Matrix::zeros(0, 0),
            Some((pi, pj)) => {
                let rows = self.rows_of(full.rows(), pi);
                let cols = self.cols_of(full.cols(), pj);
                let mut out = Matrix::zeros(rows.len(), cols.len());
                for (li, &i) in rows.iter().enumerate() {
                    for (lj, &j) in cols.iter().enumerate() {
                        out[(li, lj)] = full[(i, j)];
                    }
                }
                out
            }
        }
    }
}

/// Which panel factorization the 2D driver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelKind {
    /// Column-by-column distributed Householder (`2d-house`).
    House,
    /// TSQR panels with Householder reconstruction (`caqr2d` \[DGHL12\] +
    /// [BDG+15]).
    Tsqr,
}

/// Output of the 2D algorithms: the `n × n` R-factor on world rank 0.
#[derive(Debug, Clone)]
pub struct Qr2dOutput {
    /// The R-factor (world rank 0 only).
    pub r: Option<Matrix>,
}

/// `2d-house`: blocked right-looking Householder QR on a 2D grid.
/// `a_local` must be this rank's piece per [`Grid2Config::scatter_from_full`].
pub fn house2d_factor(
    rank: &mut Rank,
    comm: &Comm,
    a_local: &Matrix,
    m: usize,
    n: usize,
    cfg: &Grid2Config,
) -> Qr2dOutput {
    qr2d_driver(rank, comm, a_local, m, n, cfg, PanelKind::House)
}

/// The shared right-looking 2D driver (see module docs). Used by
/// [`house2d_factor`] and [`crate::caqr2d::caqr2d_factor`].
pub fn qr2d_driver(
    rank: &mut Rank,
    comm: &Comm,
    a_local: &Matrix,
    m: usize,
    n: usize,
    cfg: &Grid2Config,
    kind: PanelKind,
) -> Qr2dOutput {
    assert!(m >= n, "need m ≥ n");
    assert!(cfg.procs() <= comm.size(), "grid larger than communicator");
    let me = comm.rank();
    let coords = cfg.coords(me);
    if coords.is_none() {
        assert_eq!(a_local.rows() * a_local.cols(), 0, "idle rank holds data");
    }

    let (pi, pj) = coords.unwrap_or((usize::MAX, usize::MAX));
    let my_rows = coords.map(|(pi, _)| cfg.rows_of(m, pi)).unwrap_or_default();
    let my_cols = coords.map(|(_, pj)| cfg.cols_of(n, pj)).unwrap_or_default();
    if coords.is_some() {
        assert_eq!(a_local.rows(), my_rows.len(), "local row count");
        assert_eq!(a_local.cols(), my_cols.len(), "local col count");
    }

    // Fiber communicators (pure metadata).
    let row_comm = coords.map(|(pi, _)| {
        comm.subset(&(0..cfg.pc).map(|c| cfg.flat(pi, c)).collect::<Vec<_>>())
            .unwrap()
    });
    let col_comm = coords.map(|(_, pj)| {
        comm.subset(&(0..cfg.pr).map(|r| cfg.flat(r, pj)).collect::<Vec<_>>())
            .unwrap()
    });

    let mut work = a_local.clone();
    // Active local rows (indices into `work`), identical across a grid row.
    let mut active: Vec<usize> = (0..my_rows.len()).collect();
    // Global active counts per grid row (all ranks track identically).
    let mut active_counts: Vec<usize> = (0..cfg.pr).map(|gi| cfg.rows_of(m, gi).len()).collect();
    // Frozen pivots: (R row index ρ, grid row of its physical row,
    // local row index on that grid row's ranks).
    let mut pivots: Vec<(usize, usize, usize)> = Vec::new();

    let mut j0 = 0;
    while j0 < n {
        let bk = cfg.b.min(n - j0);
        let j1 = j0 + bk;
        let fc = (j0 / cfg.b) % cfg.pc;

        // Pivot plan: first bk active rows in grid-row-major concat order.
        let mut plan: Vec<usize> = vec![0; cfg.pr]; // pivots per grid row
        {
            let mut need = bk;
            for gi in 0..cfg.pr {
                let take = need.min(active_counts[gi]);
                plan[gi] = take;
                need -= take;
            }
            assert_eq!(
                {
                    let total: usize = plan.iter().sum();
                    total
                },
                bk,
                "not enough active rows for panel"
            );
        }

        // --- Panel factorization on the owning grid column. ---
        // (v_panel rows align with `active`; t/r replicated on the fiber.)
        let mut v_panel = Matrix::zeros(0, 0);
        let mut t_panel = Matrix::zeros(0, 0);
        #[allow(unused_assignments)]
        let mut r_panel = Matrix::zeros(0, 0);
        if coords.is_some() && pj == fc {
            let cc = col_comm.as_ref().unwrap();
            let col_off = my_cols
                .iter()
                .position(|&c| c == j0)
                .expect("panel cols owned");
            let mut panel = Matrix::zeros(active.len(), bk);
            for (la, &lr) in active.iter().enumerate() {
                for c in 0..bk {
                    panel[(la, c)] = work[(lr, col_off + c)];
                }
            }
            let use_tsqr =
                kind == PanelKind::Tsqr && active_counts.iter().all(|&c| c >= bk) && bk > 0;
            if use_tsqr {
                let f = tsqr_factor(rank, cc, &panel);
                v_panel = f.v_local;
                // T and R live on fiber root; replicate (small blocks).
                let t_flat = broadcast(rank, cc, 0, f.t.map(Matrix::into_vec), bk * bk);
                t_panel = Matrix::from_slice(bk, bk, &t_flat);
                let r_flat = broadcast(rank, cc, 0, f.r.map(Matrix::into_vec), bk * bk);
                r_panel = Matrix::from_slice(bk, bk, &r_flat);
            } else if kind == PanelKind::Tsqr {
                // Fallback: gather the short panel to the fiber root,
                // factor locally, scatter V back.
                let sizes: Vec<usize> = active_counts.iter().map(|&c| c * bk).collect();
                let panel_flat = panel.into_vec();
                let gathered = gather(rank, cc, 0, &panel_flat, &sizes);
                let mut v_blocks: Option<Vec<Vec<f64>>> = None;
                let mut tr = None;
                if let Some(flat) = gathered {
                    // The flat gather result is already the stacked panel.
                    let total: usize = active_counts.iter().sum();
                    let stacked = Matrix::from_vec(total, bk, flat);
                    let f = geqrt_ws(rank.workspace(), stacked.view());
                    rank.charge_flops(flops::geqrt(total, bk));
                    let mut vb = Vec::new();
                    let mut off = 0;
                    for &c in &active_counts {
                        vb.push(f.v.submatrix(off, off + c, 0, bk).into_vec());
                        off += c;
                    }
                    v_blocks = Some(vb);
                    tr = Some((f.t, f.r));
                }
                let mine = scatter(rank, cc, 0, v_blocks, &sizes);
                v_panel = Matrix::from_slice(active.len(), bk, &mine);
                let t_flat = broadcast(
                    rank,
                    cc,
                    0,
                    tr.as_ref().map(|(t, _)| t.clone().into_vec()),
                    bk * bk,
                );
                t_panel = Matrix::from_slice(bk, bk, &t_flat);
                let r_flat = broadcast(rank, cc, 0, tr.map(|(_, r)| r.into_vec()), bk * bk);
                r_panel = Matrix::from_slice(bk, bk, &r_flat);
            } else {
                let (t, r) = house_panel(rank, cc, &mut panel, &active_counts);
                v_panel = panel;
                t_panel = t;
                r_panel = r;
            }
            // Write the panel's R rows into `work` at the pivot locations
            // (my pivots sit at concat positions my_pivot_base.. and are my
            // first plan[pi] active rows).
            let my_pivot_base: usize = plan.iter().take(pi).sum();
            for k in 0..plan[pi] {
                let lr = active[k];
                for c in 0..bk {
                    work[(lr, col_off + c)] = r_panel[(my_pivot_base + k, c)];
                }
            }
        }

        // --- Broadcast V (and T) along row fibers from grid column fc. ---
        if let Some(rc) = row_comm.as_ref() {
            let vt_len = active.len() * bk + bk * bk;
            let payload = (pj == fc).then(|| {
                let mut p = v_panel.as_slice().to_vec();
                p.extend_from_slice(t_panel.as_slice());
                p
            });
            let data = broadcast(rank, rc, fc, payload, vt_len);
            if pj != fc {
                v_panel = Matrix::from_vec(active.len(), bk, data[..active.len() * bk].to_vec());
                t_panel = Matrix::from_vec(bk, bk, data[active.len() * bk..].to_vec());
            }
        }

        // --- Trailing update: W = VᵀA (column-fiber all-reduce), then
        // A ← A − V·(Tᵀ·W) on active rows × my trailing columns. ---
        if let Some(cc) = col_comm.as_ref() {
            let trail: Vec<usize> = (0..my_cols.len()).filter(|&lc| my_cols[lc] >= j1).collect();
            if !trail.is_empty() {
                let mut a_act = Matrix::zeros(active.len(), trail.len());
                for (la, &lr) in active.iter().enumerate() {
                    for (lt, &lc) in trail.iter().enumerate() {
                        a_act[(la, lt)] = work[(lr, lc)];
                    }
                }
                let w_partial = mm_local(rank, Trans::Yes, Trans::No, &v_panel, &a_act);
                let w =
                    Matrix::from_vec(bk, trail.len(), all_reduce(rank, cc, w_partial.into_vec()));
                let m_mat = mm_local(rank, Trans::Yes, Trans::No, &t_panel, &w);
                mm_local_acc(
                    rank,
                    Trans::No,
                    Trans::No,
                    -1.0,
                    &v_panel,
                    &m_mat,
                    &mut a_act,
                );
                rank.charge_flops(flops::matrix_add(active.len(), trail.len()));
                for (la, &lr) in active.iter().enumerate() {
                    for (lt, &lc) in trail.iter().enumerate() {
                        work[(lr, lc)] = a_act[(la, lt)];
                    }
                }
            }
        }

        // --- Freeze pivots (identically on every rank). ---
        let mut rho = j0;
        for gi in 0..cfg.pr {
            for k in 0..plan[gi] {
                // The k-th active local row of grid row gi.
                let lr = if coords.is_some() && gi == pi {
                    active[k]
                } else {
                    usize::MAX
                };
                pivots.push((rho, gi, lr));
                rho += 1;
            }
        }
        if let Some((pi_, _)) = coords {
            let take = plan[pi_];
            active.drain(0..take);
        }
        for gi in 0..cfg.pr {
            active_counts[gi] -= plan[gi];
        }

        j0 = j1;
    }

    // --- Collect R on world rank 0. ---
    // Each rank holding parts of pivot row ρ (it is in the pivot's grid
    // row) contributes its owned columns ≥ ρ, ascending (ρ, then column).
    let pack_cols = |rho: usize, cols: &[usize]| -> Vec<usize> {
        cols.iter()
            .enumerate()
            .filter(|&(_, &c)| c >= rho)
            .map(|(lc, _)| lc)
            .collect()
    };
    let mut packed = Vec::new();
    if coords.is_some() {
        for &(rho, gi, lr) in &pivots {
            if gi == pi {
                for lc in pack_cols(rho, &my_cols) {
                    packed.push(work[(lr, lc)]);
                }
            }
        }
    }
    // Sizes: every rank computes everyone's contribution from the plan.
    let sizes: Vec<usize> = (0..comm.size())
        .map(|flat| match cfg.coords(flat) {
            None => 0,
            Some((gi2, gj2)) => {
                let cols = cfg.cols_of(n, gj2);
                pivots
                    .iter()
                    .filter(|&&(_, gi, _)| gi == gi2)
                    .map(|&(rho, _, _)| cols.iter().filter(|&&c| c >= rho).count())
                    .sum()
            }
        })
        .collect();
    let gathered = gather(rank, comm, 0, &packed, &sizes);
    let r = gathered.map(|flat| {
        // The flat gather result concatenates every rank's packed words in
        // rank order; walk it with one running offset.
        let mut r = Matrix::zeros(n, n);
        let mut off = 0;
        for flat_rank in 0..comm.size() {
            let Some((gi2, gj2)) = cfg.coords(flat_rank) else {
                continue;
            };
            let cols = cfg.cols_of(n, gj2);
            for &(rho, gi, _) in &pivots {
                if gi != gi2 {
                    continue;
                }
                for &c in cols.iter().filter(|&&c| c >= rho) {
                    r[(rho, c)] = flat[off];
                    off += 1;
                }
            }
        }
        debug_assert_eq!(off, flat.len());
        r
    });

    Qr2dOutput { r }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::verify::r_gram_error;
    use qr3d_machine::{CostParams, Machine};

    pub(crate) fn run_2d(
        m: usize,
        n: usize,
        cfg: Grid2Config,
        p: usize,
        kind: PanelKind,
        seed: u64,
    ) -> (Matrix, qr3d_machine::Clock) {
        let a = Matrix::random(m, n, seed);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let a_loc = cfg.scatter_from_full(&a, w.rank());
            qr2d_driver(rank, &w, &a_loc, m, n, &cfg, kind)
        });
        let r = out.results[0].r.clone().expect("rank 0 holds R");
        for other in out.results.iter().skip(1) {
            assert!(other.r.is_none());
        }
        let err = r_gram_error(&a, &r);
        assert!(r.is_upper_triangular(0.0), "R upper triangular");
        assert!(
            err < 1e-10,
            "RᵀR = AᵀA violated: {err} (m={m} n={n} {cfg:?} {kind:?})"
        );
        (r, out.stats.critical())
    }

    #[test]
    fn house2d_various_grids() {
        run_2d(24, 8, Grid2Config::new(2, 2, 2), 4, PanelKind::House, 1);
        run_2d(30, 9, Grid2Config::new(3, 2, 3), 6, PanelKind::House, 2);
        run_2d(16, 16, Grid2Config::new(2, 2, 4), 4, PanelKind::House, 3);
        run_2d(21, 5, Grid2Config::new(2, 1, 2), 2, PanelKind::House, 4);
        run_2d(18, 7, Grid2Config::new(1, 3, 2), 3, PanelKind::House, 5);
    }

    #[test]
    fn house2d_single_rank() {
        run_2d(10, 6, Grid2Config::new(1, 1, 2), 1, PanelKind::House, 6);
    }

    #[test]
    fn house2d_unblocked() {
        run_2d(20, 6, Grid2Config::new(2, 2, 1), 4, PanelKind::House, 7);
    }

    #[test]
    fn house2d_panel_wider_than_n() {
        run_2d(12, 3, Grid2Config::new(2, 2, 8), 4, PanelKind::House, 8);
    }

    #[test]
    fn auto_grid_shape_follows_aspect() {
        // Tall-skinny: c small. Square-ish: c ≈ √(nP/m)·….
        let tall = Grid2Config::auto(1 << 14, 16, 16, 2);
        assert!(tall.pc <= 2, "tall-skinny wants few grid columns: {tall:?}");
        let square = Grid2Config::auto(256, 256, 16, 2);
        assert_eq!(square.pc, 4, "square wants √P grid columns: {square:?}");
        assert_eq!(square.pr, 4);
    }

    #[test]
    fn house2d_message_count_scales_with_n() {
        // Table 2: S = Θ(n log P) for 2d-house with b = Θ(1).
        let cfg = Grid2Config::new(2, 2, 1);
        let (_, c1) = run_2d(64, 8, cfg, 4, PanelKind::House, 9);
        let (_, c2) = run_2d(64, 16, cfg, 4, PanelKind::House, 10);
        let ratio = c2.msgs / c1.msgs;
        assert!(
            (1.4..=2.6).contains(&ratio),
            "S should scale ≈ linearly in n: {} → {}",
            c1.msgs,
            c2.msgs
        );
    }
}
