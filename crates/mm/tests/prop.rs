//! Property tests: the distributed multiplies agree with the serial
//! product for arbitrary dimensions, grids, and processor counts; every
//! layout's strided rectangle is its entry-by-entry specification; and
//! redistribution between arbitrary layout pairs is what the per-entry
//! router it replaced produced, value for value and word for word.

use std::collections::HashMap;

use proptest::prelude::*;
use qr3d_collectives::alltoall::all_to_all;
use qr3d_collectives::BlockSizes;
use qr3d_machine::{Comm, CostParams, Machine, Rank};
use qr3d_matrix::gemm::matmul;
use qr3d_matrix::layout::BlockRow;
use qr3d_matrix::Matrix;
use qr3d_mm::brick::{
    BrickA, BrickB, BrickC, DistLayout, Progression, RowCyclicDist, StridedRect, TransposedDist,
};
use qr3d_mm::dmm1d::{dmm1d_broadcast, dmm1d_reduce};
use qr3d_mm::dmm3d::{dmm3d, dmm3d_redistributed, Grid3};
use qr3d_mm::redist::redistribute;

/// A layout no production code has, to hold the router to the rectangle
/// contract rather than to today's call sites: rows cyclic over `pr` with
/// a shift, columns cyclic over `pc`, rank `a·pc + b` holding row class
/// `a` × column class `b`, ranks beyond `pr·pc` idle. With `pc = 1` it is
/// the shifted row-cyclic layout of the 3D-CAQR-EG recursion; with
/// `pc > 1` its rectangles have a non-unit column step.
#[derive(Debug, Clone)]
struct Cyclic2d {
    rows: usize,
    cols: usize,
    pr: usize,
    pc: usize,
    shift: usize,
    p: usize,
}

impl DistLayout for Cyclic2d {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn procs(&self) -> usize {
        self.p
    }
    fn owner(&self, i: usize, j: usize) -> usize {
        (i + self.shift) % self.pr * self.pc + j % self.pc
    }
    fn entries(&self, rank: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.rows {
            for j in 0..self.cols {
                if self.owner(i, j) == rank {
                    out.push((i, j));
                }
            }
        }
        out
    }
    fn rect(&self, rank: usize) -> StridedRect {
        if rank >= self.pr * self.pc {
            return StridedRect::row_major(Progression::range(0..0), Progression::range(0..0));
        }
        let (a, b) = (rank / self.pc, rank % self.pc);
        let first_row = (a + self.pr - self.shift % self.pr) % self.pr;
        StridedRect::row_major(
            Progression::below(first_row, self.pr, self.rows),
            Progression::below(b, self.pc, self.cols),
        )
    }
}

/// Every layout of a `rows × cols` matrix over `grid.procs() + idle`
/// ranks the workspace can build, plus [`Cyclic2d`] at two shifts.
fn layouts_of(
    rows: usize,
    cols: usize,
    grid: Grid3,
    idle: usize,
    shift: usize,
) -> Vec<Box<dyn DistLayout + Sync>> {
    let p = grid.procs() + idle;
    let cyclic = |rows, cols, pr, pc, shift| Cyclic2d {
        rows,
        cols,
        pr,
        pc,
        shift,
        p,
    };
    vec![
        Box::new(RowCyclicDist::new(rows, cols, p)),
        Box::new(BrickA::new(grid, rows, cols, p)),
        Box::new(BrickB::new(grid, rows, cols, p)),
        Box::new(BrickC::new(grid, rows, cols, p)),
        Box::new(TransposedDist(RowCyclicDist::new(cols, rows, p))),
        Box::new(TransposedDist(BrickA::new(grid, cols, rows, p))),
        Box::new(cyclic(rows, cols, p, 1, shift)),
        Box::new(cyclic(rows, cols, p, 1, shift + 1)),
        Box::new(cyclic(rows, cols, grid.q * grid.r, grid.s, shift)),
        Box::new(TransposedDist(cyclic(
            cols,
            rows,
            grid.q,
            grid.r * grid.s,
            shift,
        ))),
    ]
}

/// The signature `redistribute` and its oracle share.
type Router = fn(&mut Rank, &Comm, &[f64], &dyn DistLayout, &dyn DistLayout) -> Vec<f64>;

/// The per-entry router `redistribute` replaced, kept as its oracle: the
/// same two-phase all-to-all, with sizes and block contents found by
/// asking `to.owner` about every entry of `from.entries`.
fn redistribute_per_entry(
    rank: &mut Rank,
    comm: &Comm,
    local: &[f64],
    from: &dyn DistLayout,
    to: &dyn DistLayout,
) -> Vec<f64> {
    let p = comm.size();
    let me = comm.rank();
    let my_entries = from.entries(me);
    assert_eq!(local.len(), my_entries.len());
    let mut blocks: Vec<Vec<f64>> = (0..p).map(|_| Vec::new()).collect();
    for (&v, &(i, j)) in local.iter().zip(&my_entries) {
        blocks[to.owner(i, j)].push(v);
    }
    let mut counts = vec![0usize; p * p];
    for s in 0..p {
        for (i, j) in from.entries(s) {
            counts[s * p + to.owner(i, j)] += 1;
        }
    }
    let sizes = BlockSizes::from_fn(p, |s, d| counts[s * p + d]);
    let incoming = all_to_all(rank, comm, blocks, &sizes);
    let to_entries = to.entries(me);
    let pos: HashMap<(usize, usize), usize> = to_entries
        .iter()
        .enumerate()
        .map(|(idx, &e)| (e, idx))
        .collect();
    let mut out = vec![0.0; to_entries.len()];
    for (s, bundle) in incoming.iter().enumerate() {
        let mut it = bundle.iter();
        for (i, j) in from.entries(s) {
            if to.owner(i, j) == me {
                out[pos[&(i, j)]] = *it.next().expect("bundle shorter than expected");
            }
        }
        assert!(it.next().is_none(), "bundle longer than expected");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dmm3d_matches_serial(
        i in 1usize..14, j in 1usize..14, k in 1usize..14,
        gq in 1usize..4, gr in 1usize..4, gs in 1usize..4,
        idle in 0usize..3,
        seed in 0u64..500,
    ) {
        let grid = Grid3::new(gq, gr, gs);
        let p = grid.procs() + idle;
        let a = Matrix::random(i, k, seed);
        let b = Matrix::random(k, j, seed + 1);
        let expect = matmul(&a, &b);
        let brick_a = BrickA::new(grid, i, k, p);
        let brick_b = BrickB::new(grid, k, j, p);
        let brick_c = BrickC::new(grid, i, j, p);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let (a_loc, b_loc) = match grid.coords(w.rank()) {
                Some((q, r, s)) => {
                    let (ar, ac) = brick_a.block_of(q, r, s);
                    let (br, bc) = brick_b.block_of(q, r, s);
                    (
                        a.submatrix(ar.start, ar.end, ac.start, ac.end),
                        b.submatrix(br.start, br.end, bc.start, bc.end),
                    )
                }
                None => (Matrix::zeros(0, 0), Matrix::zeros(0, 0)),
            };
            dmm3d(rank, &w, grid, &a_loc, &b_loc, i, j, k)
        });
        let mut c = Matrix::zeros(i, j);
        for rank in 0..p {
            if let Some((q, r, s)) = grid.coords(rank) {
                let (rows, cols) = brick_c.block_of(q, r, s);
                c.set_submatrix(rows.start, cols.start, &out.results[rank]);
            }
        }
        prop_assert!(c.sub(&expect).max_abs() < 1e-10);
    }

    #[test]
    fn dmm3d_redistributed_matches_serial(
        i in 1usize..16, j in 1usize..8, k in 1usize..8,
        p in 1usize..7,
        seed in 0u64..500,
    ) {
        let a = Matrix::random(i, k, seed);
        let b = Matrix::random(k, j, seed + 2);
        let expect = matmul(&a, &b);
        let a_lay = RowCyclicDist::new(i, k, p);
        let b_lay = RowCyclicDist::new(k, j, p);
        let c_lay = RowCyclicDist::new(i, j, p);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let me = w.rank();
            let a_loc: Vec<f64> =
                a_lay.entries(me).iter().map(|&(r, c)| a[(r, c)]).collect();
            let b_loc: Vec<f64> =
                b_lay.entries(me).iter().map(|&(r, c)| b[(r, c)]).collect();
            dmm3d_redistributed(rank, &w, &a_loc, &a_lay, &b_loc, &b_lay, &c_lay)
        });
        let mut c = Matrix::zeros(i, j);
        for (rank, res) in out.results.iter().enumerate() {
            for (&(r, col), &v) in c_lay.entries(rank).iter().zip(res.iter()) {
                c[(r, col)] = v;
            }
        }
        prop_assert!(c.sub(&expect).max_abs() < 1e-10);
    }

    #[test]
    fn dmm1d_cases_match_serial(
        m in 1usize..40, i in 1usize..6, j in 1usize..6,
        p in 1usize..6, root_sel in 0usize..6,
        seed in 0u64..500,
    ) {
        let root = root_sel % p;
        let left = Matrix::random(m, i, seed);
        let right = Matrix::random(m, j, seed + 3);
        let lay = BlockRow::balanced(m, 1, p);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let rows = lay.local_rows(w.rank());
            dmm1d_reduce(rank, &w, &left.take_rows(&rows), &right.take_rows(&rows), root)
        });
        let expect = matmul(&left.transpose(), &right);
        let got = out.results[root].as_ref().unwrap();
        prop_assert!(got.sub(&expect).max_abs() < 1e-10);

        // Broadcast case: C = right_rows · Bsmall.
        let bsmall = Matrix::random(j, i, seed + 4);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let rows = lay.local_rows(w.rank());
            let b_root = (w.rank() == root).then(|| bsmall.clone());
            dmm1d_broadcast(rank, &w, &right.take_rows(&rows), b_root, j, i, root)
        });
        let expect = matmul(&right, &bsmall);
        let starts = lay.starts();
        for (r, res) in out.results.iter().enumerate() {
            let piece = expect.submatrix(starts[r], starts[r + 1], 0, i);
            prop_assert!(res.sub(&piece).max_abs() < 1e-10);
        }
    }

    #[test]
    fn redistribution_roundtrip_arbitrary_layout_pairs(
        rows in 1usize..16, cols in 1usize..6,
        gq in 1usize..3, gr in 1usize..3, gs in 1usize..3,
        idle in 0usize..2,
        transposed in proptest::bool::ANY,
    ) {
        let grid = Grid3::new(gq, gr, gs);
        let p = grid.procs() + idle;
        let full = Matrix::from_fn(rows, cols, |i, j| (i * cols + j + 1) as f64);
        let rc = RowCyclicDist::new(rows, cols, p);
        let brick = BrickA::new(grid, rows, cols, p);
        let machine = Machine::new(p, CostParams::unit());
        let out = machine.run(|rank| {
            let w = rank.world();
            let me = w.rank();
            if transposed {
                // transpose-adapted source: the same physical data viewed
                // as the layout of the transpose.
                let src = TransposedDist(rc.clone());
                let dst = TransposedDist(brick.clone());
                let local: Vec<f64> =
                    src.entries(me).iter().map(|&(i, j)| full[(j, i)]).collect();
                let fwd = redistribute(rank, &w, &local, &src, &dst);
                redistribute(rank, &w, &fwd, &dst, &src)
            } else {
                let local: Vec<f64> =
                    rc.entries(me).iter().map(|&(i, j)| full[(i, j)]).collect();
                let fwd = redistribute(rank, &w, &local, &rc, &brick);
                redistribute(rank, &w, &fwd, &brick, &rc)
            }
        });
        for (rank, res) in out.results.iter().enumerate() {
            let expect: Vec<f64> = if transposed {
                TransposedDist(rc.clone())
                    .entries(rank)
                    .iter()
                    .map(|&(i, j)| full[(j, i)])
                    .collect()
            } else {
                rc.entries(rank).iter().map(|&(i, j)| full[(i, j)]).collect()
            };
            prop_assert_eq!(res, &expect);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_layouts_rectangle_is_its_specification(
        rows in 0usize..14, cols in 0usize..9,
        gq in 1usize..4, gr in 1usize..4, gs in 1usize..3,
        idle in 0usize..3,
        shift in 0usize..40,
    ) {
        // Up to 27 ranks on at most 13 rows: P > rows, empty parts and
        // idle ranks all occur.
        let grid = Grid3::new(gq, gr, gs);
        for (which, lay) in layouts_of(rows, cols, grid, idle, shift).iter().enumerate() {
            prop_assert_eq!((lay.rows(), lay.cols()), (rows, cols));
            let mut covered = 0;
            for rank in 0..lay.procs() {
                let entries = lay.entries(rank);
                let rect = lay.rect(rank);
                prop_assert!(
                    rect.iter().eq(entries.iter().copied()),
                    "layout {} rank {}: {:?} enumerates {:?}, entries {:?}",
                    which, rank, rect, rect.iter().collect::<Vec<_>>(), entries
                );
                prop_assert_eq!(rect.len(), entries.len());
                prop_assert_eq!(lay.local_count(rank), entries.len());
                for &(i, j) in &entries {
                    prop_assert_eq!(lay.owner(i, j), rank);
                }
                covered += entries.len();
            }
            prop_assert_eq!(covered, rows * cols);
        }
    }

    #[test]
    fn redistribute_equals_the_per_entry_router_for_any_layout_pair(
        rows in 0usize..14, cols in 0usize..9,
        gq in 1usize..3, gr in 1usize..3, gs in 1usize..3,
        idle in 0usize..2,
        shift in 0usize..20,
        from_sel in 0usize..10, to_sel in 0usize..10,
    ) {
        let grid = Grid3::new(gq, gr, gs);
        let p = grid.procs() + idle;
        let layouts = layouts_of(rows, cols, grid, idle, shift);
        let (from, to) = (&*layouts[from_sel], &*layouts[to_sel]);
        let full = Matrix::from_fn(rows, cols, |i, j| (i * cols + j + 1) as f64);
        let run = |route: Router| {
            Machine::new(p, CostParams::unit()).run(|rank| {
                let w = rank.world();
                let local: Vec<f64> =
                    from.entries(w.rank()).iter().map(|&(i, j)| full[(i, j)]).collect();
                route(rank, &w, &local, from, to)
            })
        };
        let (got, oracle) = (run(redistribute), run(redistribute_per_entry));
        for rank in 0..p {
            let expect: Vec<f64> =
                to.entries(rank).iter().map(|&(i, j)| full[(i, j)]).collect();
            prop_assert_eq!(&got.results[rank], &expect, "rank {}", rank);
            prop_assert_eq!(&oracle.results[rank], &expect, "oracle, rank {}", rank);
        }
        // Same BlockSizes and same block contents into the same
        // all-to-all: every charged word and message is unchanged.
        prop_assert_eq!(got.stats.critical(), oracle.stats.critical());
        prop_assert_eq!(got.stats.total_volume(), oracle.stats.total_volume());
    }
}
