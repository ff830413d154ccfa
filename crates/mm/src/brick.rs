//! Distributed-layout abstraction and the 3D brick layouts of Appendix B.
//!
//! [`DistLayout`] describes which rank owns each entry of a distributed
//! matrix and in what order a rank's entries appear in its local dense
//! buffer. Layouts are pure metadata — every rank computes identical maps
//! locally, which is what lets [`crate::redist::redistribute`] route
//! entries without headers.
//!
//! # The rectangle contract
//!
//! Every layout describes what a rank holds twice. `entries(rank)` and
//! `owner(i, j)` are the *specification*: readable, entry by entry, and
//! used only by tests and harness code. [`DistLayout::rect`] is what
//! production code routes by: the same set as one [`StridedRect`] — an
//! ascending arithmetic progression of global rows × one of global
//! columns, stored row-major (or column-major, which is how
//! [`TransposedDist`] views a row-major buffer). A new layout must make
//! `rect(rank)` enumerate exactly `entries(rank)`, in order, with
//! `owner` agreeing and `local_count(rank)` equal to the rectangle's
//! size; `tests/prop.rs` checks that for every layout in the workspace,
//! and `redistribute` panics when the counts disagree. A layout that is
//! not a strided rectangle per rank (2D block-cyclic, say) does not fit
//! this trait and needs its own router.
//!
//! Everything here is O(1) per call and allocation-free except
//! `entries`, which is O(entries) by definition.
//!
//! # Brick layouts
//!
//! The brick layouts implement Appendix B.1: for `C = A·B` with `A` of
//! shape `I × K` and `B` of shape `K × J` on a `Q × R × S` grid,
//!
//! * grid processor `(q, r, s)` owns a balanced share of `A[I_q, K_s]`
//!   (partitioned among the `R` fiber by rows),
//! * a balanced share of `B[K_s, J_r]` (partitioned among the `Q` fiber
//!   by rows),
//! * and, at the end, a balanced share of `C[I_q, J_r]` (partitioned
//!   among the `S` fiber by rows),
//!
//! with all partitions balanced and contiguous ("take any balanced
//! partitions {I_q}, {J_r}, {K_s}").

use qr3d_matrix::layout::RowCyclic;
use qr3d_matrix::partition::{balanced_range, part_of};
use std::ops::Range;

use crate::dmm3d::Grid3;

/// An ascending arithmetic progression of indices: `start`,
/// `start + step`, … (`len` terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progression {
    /// First index (meaningless when `len == 0`).
    pub start: usize,
    /// Distance between consecutive indices (≥ 1).
    pub step: usize,
    /// Number of indices.
    pub len: usize,
}

impl Progression {
    /// The progression `start, start + step, …` with `len` terms.
    pub fn new(start: usize, step: usize, len: usize) -> Self {
        assert!(step >= 1, "progression step must be positive");
        Progression { start, step, len }
    }

    /// The indices `start, start + step, …` below `end`.
    pub fn below(start: usize, step: usize, end: usize) -> Self {
        let len = if start < end {
            (end - start - 1) / step + 1
        } else {
            0
        };
        Progression::new(start, step, len)
    }

    /// The indices of a contiguous range.
    pub fn range(r: Range<usize>) -> Self {
        Progression::new(r.start, 1, r.len())
    }

    /// The indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let Progression { start, step, len } = *self;
        (0..len).map(move |t| start + t * step)
    }

    /// How many terms precede the member `x`.
    pub fn position(&self, x: usize) -> usize {
        debug_assert!(x >= self.start && (x - self.start).is_multiple_of(self.step));
        (x - self.start) / self.step
    }

    /// The indices in both progressions — again a progression, whose step
    /// is the least common multiple of the two (Chinese remainders).
    pub fn intersect(&self, other: &Progression) -> Progression {
        const EMPTY: Progression = Progression {
            start: 0,
            step: 1,
            len: 0,
        };
        if self.len == 0 || other.len == 0 {
            return EMPTY;
        }
        let lo = self.start.max(other.start);
        let hi = (self.start + (self.len - 1) * self.step)
            .min(other.start + (other.len - 1) * other.step);
        let g = gcd(self.step, other.step);
        if lo > hi || self.start % g != other.start % g {
            return EMPTY;
        }
        // x = self.start + self.step·t with x ≡ other.start (mod
        // other.step): (self.step/g)·t ≡ (other.start − self.start)/g
        // (mod m), m = other.step/g, and self.step/g is a unit mod m.
        let m = (other.step / g) as i128;
        let diff = (other.start as i128 - self.start as i128) / g as i128;
        let t = diff.rem_euclid(m) * inverse_mod((self.step / g) as i128 % m, m) % m;
        let lcm = self.step / g * other.step;
        let mut x = self.start + self.step * t as usize;
        if x < lo {
            x += (lo - x).div_ceil(lcm) * lcm;
        }
        if x > hi {
            return EMPTY;
        }
        Progression::new(x, lcm, (hi - x) / lcm + 1)
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The inverse of the unit `a` modulo `m` (0 when `m == 1`), by the
/// extended Euclidean algorithm.
fn inverse_mod(a: i128, m: i128) -> i128 {
    let (mut r0, mut r1, mut s0, mut s1) = (a, m, 1i128, 0i128);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (s0, s1) = (s1, s0 - q * s1);
    }
    debug_assert!(m == 1 || r0 == 1, "not a unit");
    s0.rem_euclid(m)
}

/// What one rank holds under a layout: global rows × global columns,
/// both ascending progressions, stored dense in the local buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridedRect {
    /// Global rows held.
    pub rows: Progression,
    /// Global columns held.
    pub cols: Progression,
    /// Storage order of the local buffer: `false` = row-major (all of a
    /// row's columns adjacent), `true` = column-major.
    pub col_major: bool,
}

impl StridedRect {
    /// A row-major rectangle.
    pub fn row_major(rows: Progression, cols: Progression) -> Self {
        StridedRect {
            rows,
            cols,
            col_major: false,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.rows.len * self.cols.len
    }

    /// Whether the rectangle holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries in local-buffer order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> {
        let StridedRect {
            rows,
            cols,
            col_major,
        } = *self;
        let (outer, inner) = if col_major {
            (cols, rows)
        } else {
            (rows, cols)
        };
        outer.iter().flat_map(move |o| {
            inner
                .iter()
                .map(move |i| if col_major { (i, o) } else { (o, i) })
        })
    }

    /// The same rectangle of the transposed matrix, over the same buffer.
    pub fn transposed(&self) -> StridedRect {
        StridedRect {
            rows: self.cols,
            cols: self.rows,
            col_major: !self.col_major,
        }
    }
}

/// A distributed layout: ownership and local-entry enumeration.
///
/// `entries(rank)` must enumerate the rank's entries in exactly the order
/// they appear in the rank's local dense buffer, and `rect(rank)` must
/// describe the same entries in the same order (see the module docs).
pub trait DistLayout {
    /// Global matrix height.
    fn rows(&self) -> usize;
    /// Global matrix width.
    fn cols(&self) -> usize;
    /// Number of ranks the layout is defined over.
    fn procs(&self) -> usize;
    /// Owner rank of global entry `(i, j)`.
    fn owner(&self, i: usize, j: usize) -> usize;
    /// The entries owned by `rank`, in local-buffer order.
    fn entries(&self, rank: usize) -> Vec<(usize, usize)>;
    /// The entries owned by `rank` as one strided rectangle.
    fn rect(&self, rank: usize) -> StridedRect;
    /// Number of entries owned by `rank`.
    fn local_count(&self, rank: usize) -> usize {
        self.rect(rank).len()
    }
}

/// Row-cyclic layout as a [`DistLayout`] (local buffer = owned rows in
/// ascending global order, row-major).
#[derive(Debug, Clone)]
pub struct RowCyclicDist(pub RowCyclic);

impl RowCyclicDist {
    /// Row-cyclic distribution of an `rows × cols` matrix over `p` ranks.
    pub fn new(rows: usize, cols: usize, p: usize) -> Self {
        RowCyclicDist(RowCyclic::new(rows, cols, p))
    }
}

impl DistLayout for RowCyclicDist {
    fn rows(&self) -> usize {
        self.0.rows()
    }
    fn cols(&self) -> usize {
        self.0.cols()
    }
    fn procs(&self) -> usize {
        self.0.procs()
    }
    fn owner(&self, i: usize, _j: usize) -> usize {
        self.0.owner(i)
    }
    fn entries(&self, rank: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.0.local_count(rank) * self.0.cols());
        for i in self.0.local_rows(rank) {
            for j in 0..self.0.cols() {
                out.push((i, j));
            }
        }
        out
    }
    fn rect(&self, rank: usize) -> StridedRect {
        StridedRect::row_major(
            Progression::below(rank, self.0.procs(), self.0.rows()),
            Progression::range(0..self.0.cols()),
        )
    }
}

/// View a layout of an `r × c` matrix as the layout of its `c × r`
/// transpose: entry `(i, j)` of the transposed matrix is entry `(j, i)`
/// of the inner one, and local buffers hold the *inner* (untransposed)
/// matrix. Used for "the left factor is row-cyclic, transposed"
/// (Section 7.2, Line 6).
#[derive(Debug, Clone)]
pub struct TransposedDist<L: DistLayout>(pub L);

impl<L: DistLayout> DistLayout for TransposedDist<L> {
    fn rows(&self) -> usize {
        self.0.cols()
    }
    fn cols(&self) -> usize {
        self.0.rows()
    }
    fn procs(&self) -> usize {
        self.0.procs()
    }
    fn owner(&self, i: usize, j: usize) -> usize {
        self.0.owner(j, i)
    }
    fn entries(&self, rank: usize) -> Vec<(usize, usize)> {
        self.0
            .entries(rank)
            .into_iter()
            .map(|(i, j)| (j, i))
            .collect()
    }
    fn rect(&self, rank: usize) -> StridedRect {
        self.0.rect(rank).transposed()
    }
}

/// The `inner_k`-th balanced slice of the `outer_k`-th balanced part of
/// `0..n` — how every brick layout cuts its rows.
fn nested_range(
    n: usize,
    outer: usize,
    outer_k: usize,
    inner: usize,
    inner_k: usize,
) -> Range<usize> {
    let part = balanced_range(n, outer, outer_k);
    let sub = balanced_range(part.len(), inner, inner_k);
    part.start + sub.start..part.start + sub.end
}

/// Inverse of [`nested_range`]: the `(outer_k, inner_k)` whose slice
/// holds index `i`.
fn nested_part_of(i: usize, n: usize, outer: usize, inner: usize) -> (usize, usize) {
    let outer_k = part_of(i, n, outer);
    let part = balanced_range(n, outer, outer_k);
    (outer_k, part_of(i - part.start, part.len(), inner))
}

/// Common plumbing for the three brick layouts: a rank owns a contiguous
/// row range × a contiguous column range, both empty for idle ranks
/// beyond `Q·R·S`.
fn block_of_rank(
    grid: Grid3,
    rank: usize,
    block_of: impl Fn(usize, usize, usize) -> (Range<usize>, Range<usize>),
) -> (Range<usize>, Range<usize>) {
    grid.coords(rank)
        .map_or((0..0, 0..0), |(q, r, s)| block_of(q, r, s))
}

fn block_entries((rows, cols): (Range<usize>, Range<usize>)) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(rows.len() * cols.len());
    for i in rows {
        for j in cols.clone() {
            out.push((i, j));
        }
    }
    out
}

fn block_rect((rows, cols): (Range<usize>, Range<usize>)) -> StridedRect {
    StridedRect::row_major(Progression::range(rows), Progression::range(cols))
}

/// Brick layout of the left operand `A` (`I × K`): processor `(q, r, s)`
/// owns the `r`-th balanced slice of `I_q`'s rows, columns `K_s`.
#[derive(Debug, Clone)]
pub struct BrickA {
    grid: Grid3,
    i: usize,
    k: usize,
    p: usize,
}

/// Brick layout of the right operand `B` (`K × J`): processor `(q, r, s)`
/// owns the `q`-th balanced slice of `K_s`'s rows, columns `J_r`.
#[derive(Debug, Clone)]
pub struct BrickB {
    grid: Grid3,
    k: usize,
    j: usize,
    p: usize,
}

/// Brick layout of the output `C` (`I × J`): processor `(q, r, s)` owns
/// the `s`-th balanced slice of `I_q`'s rows, columns `J_r`.
#[derive(Debug, Clone)]
pub struct BrickC {
    grid: Grid3,
    i: usize,
    j: usize,
    p: usize,
}

impl BrickA {
    /// Layout over `p` ranks (ranks `≥ grid.procs()` idle).
    pub fn new(grid: Grid3, i: usize, k: usize, p: usize) -> Self {
        assert!(grid.procs() <= p, "grid larger than communicator");
        BrickA { grid, i, k, p }
    }

    /// The (row range, col range) owned by grid coordinates `(q, r, s)`.
    pub fn block_of(&self, q: usize, r: usize, s: usize) -> (Range<usize>, Range<usize>) {
        (
            nested_range(self.i, self.grid.q, q, self.grid.r, r),
            balanced_range(self.k, self.grid.s, s),
        )
    }

    fn block(&self, rank: usize) -> (Range<usize>, Range<usize>) {
        block_of_rank(self.grid, rank, |q, r, s| self.block_of(q, r, s))
    }
}

impl DistLayout for BrickA {
    fn rows(&self) -> usize {
        self.i
    }
    fn cols(&self) -> usize {
        self.k
    }
    fn procs(&self) -> usize {
        self.p
    }
    fn owner(&self, i: usize, j: usize) -> usize {
        let (q, r) = nested_part_of(i, self.i, self.grid.q, self.grid.r);
        let s = part_of(j, self.k, self.grid.s);
        self.grid.flat(q, r, s)
    }
    fn entries(&self, rank: usize) -> Vec<(usize, usize)> {
        block_entries(self.block(rank))
    }
    fn rect(&self, rank: usize) -> StridedRect {
        block_rect(self.block(rank))
    }
}

impl BrickB {
    /// Layout over `p` ranks (ranks `≥ grid.procs()` idle).
    pub fn new(grid: Grid3, k: usize, j: usize, p: usize) -> Self {
        assert!(grid.procs() <= p, "grid larger than communicator");
        BrickB { grid, k, j, p }
    }

    /// The (row range, col range) owned by grid coordinates `(q, r, s)`.
    pub fn block_of(&self, q: usize, r: usize, s: usize) -> (Range<usize>, Range<usize>) {
        (
            nested_range(self.k, self.grid.s, s, self.grid.q, q),
            balanced_range(self.j, self.grid.r, r),
        )
    }

    fn block(&self, rank: usize) -> (Range<usize>, Range<usize>) {
        block_of_rank(self.grid, rank, |q, r, s| self.block_of(q, r, s))
    }
}

impl DistLayout for BrickB {
    fn rows(&self) -> usize {
        self.k
    }
    fn cols(&self) -> usize {
        self.j
    }
    fn procs(&self) -> usize {
        self.p
    }
    fn owner(&self, i: usize, j: usize) -> usize {
        let (s, q) = nested_part_of(i, self.k, self.grid.s, self.grid.q);
        let r = part_of(j, self.j, self.grid.r);
        self.grid.flat(q, r, s)
    }
    fn entries(&self, rank: usize) -> Vec<(usize, usize)> {
        block_entries(self.block(rank))
    }
    fn rect(&self, rank: usize) -> StridedRect {
        block_rect(self.block(rank))
    }
}

impl BrickC {
    /// Layout over `p` ranks (ranks `≥ grid.procs()` idle).
    pub fn new(grid: Grid3, i: usize, j: usize, p: usize) -> Self {
        assert!(grid.procs() <= p, "grid larger than communicator");
        BrickC { grid, i, j, p }
    }

    /// The (row range, col range) owned by grid coordinates `(q, r, s)`.
    pub fn block_of(&self, q: usize, r: usize, s: usize) -> (Range<usize>, Range<usize>) {
        (
            nested_range(self.i, self.grid.q, q, self.grid.s, s),
            balanced_range(self.j, self.grid.r, r),
        )
    }

    fn block(&self, rank: usize) -> (Range<usize>, Range<usize>) {
        block_of_rank(self.grid, rank, |q, r, s| self.block_of(q, r, s))
    }
}

impl DistLayout for BrickC {
    fn rows(&self) -> usize {
        self.i
    }
    fn cols(&self) -> usize {
        self.j
    }
    fn procs(&self) -> usize {
        self.p
    }
    fn owner(&self, i: usize, j: usize) -> usize {
        let (q, s) = nested_part_of(i, self.i, self.grid.q, self.grid.s);
        let r = part_of(j, self.j, self.grid.r);
        self.grid.flat(q, r, s)
    }
    fn entries(&self, rank: usize) -> Vec<(usize, usize)> {
        block_entries(self.block(rank))
    }
    fn rect(&self, rank: usize) -> StridedRect {
        block_rect(self.block(rank))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_layout(l: &dyn DistLayout) {
        // Every entry owned exactly once, owner consistent with entries,
        // and counts add up.
        let (m, n) = (l.rows(), l.cols());
        let mut seen = vec![false; m * n];
        let mut total = 0;
        for rank in 0..l.procs() {
            let es = l.entries(rank);
            assert_eq!(es.len(), l.local_count(rank));
            assert!(l.rect(rank).iter().eq(es.iter().copied()), "rect ≡ entries");
            for &(i, j) in &es {
                assert!(i < m && j < n, "entry in range");
                assert_eq!(l.owner(i, j), rank, "owner consistent at ({i},{j})");
                assert!(!seen[i * n + j], "entry ({i},{j}) owned twice");
                seen[i * n + j] = true;
                total += 1;
            }
        }
        assert_eq!(total, m * n, "all entries covered");
    }

    #[test]
    fn progression_intersection_matches_brute_force() {
        let mut checked = 0;
        for (s1, d1, n1) in [(0, 1, 9), (3, 4, 5), (1, 6, 4), (7, 3, 1), (2, 5, 0)] {
            for (s2, d2, n2) in [(0, 1, 30), (2, 4, 6), (5, 9, 3), (4, 6, 5), (19, 2, 1)] {
                let a = Progression::new(s1, d1, n1);
                let b = Progression::new(s2, d2, n2);
                let both = a.intersect(&b);
                let expect: Vec<usize> = a.iter().filter(|x| b.iter().any(|y| y == *x)).collect();
                assert_eq!(both.iter().collect::<Vec<_>>(), expect, "{a:?} ∩ {b:?}");
                assert_eq!(b.intersect(&a).iter().collect::<Vec<_>>(), expect);
                for (t, x) in both.iter().enumerate() {
                    assert_eq!(a.position(x), a.position(both.start) + t * (both.step / d1));
                }
                checked += expect.len();
            }
        }
        assert!(checked > 20, "the cases must not all be empty");
    }

    #[test]
    fn row_cyclic_dist_covers() {
        check_layout(&RowCyclicDist::new(11, 3, 4));
        check_layout(&RowCyclicDist::new(2, 5, 4)); // idle ranks
        check_layout(&RowCyclicDist::new(8, 1, 1));
    }

    #[test]
    fn transposed_dist_covers_and_flips() {
        let base = RowCyclicDist::new(10, 4, 3);
        let t = TransposedDist(base.clone());
        check_layout(&t);
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 10);
        assert_eq!(t.owner(2, 7), base.owner(7, 2));
    }

    #[test]
    fn brick_layouts_cover_all_grids() {
        for (q, r, s) in [(1, 1, 1), (2, 2, 2), (2, 3, 1), (3, 1, 2), (1, 4, 2)] {
            let grid = Grid3::new(q, r, s);
            let p = grid.procs() + 1; // one idle rank
            check_layout(&BrickA::new(grid, 13, 7, p));
            check_layout(&BrickB::new(grid, 7, 9, p));
            check_layout(&BrickC::new(grid, 13, 9, p));
        }
    }

    #[test]
    fn brick_a_blocks_are_balanced() {
        let grid = Grid3::new(2, 2, 2);
        let a = BrickA::new(grid, 16, 8, 8);
        let mut counts = Vec::new();
        for rank in 0..8 {
            counts.push(a.local_count(rank));
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        // (I/Q/R)·(K/S) = 4·4 = 16 per rank, perfectly balanced here.
        assert_eq!(max, 16);
        assert_eq!(min, 16);
    }

    #[test]
    fn idle_ranks_own_nothing() {
        let grid = Grid3::new(2, 1, 1);
        let c = BrickC::new(grid, 6, 6, 5);
        assert_eq!(c.local_count(2), 0);
        assert_eq!(c.local_count(4), 0);
        assert!(c.entries(3).is_empty());
    }

    #[test]
    fn tiny_matrices_dont_break_bricks() {
        let grid = Grid3::new(2, 2, 2);
        // Fewer rows than Q: some parts empty.
        check_layout(&BrickA::new(grid, 1, 1, 8));
        check_layout(&BrickB::new(grid, 1, 1, 8));
        check_layout(&BrickC::new(grid, 1, 1, 8));
    }
}
