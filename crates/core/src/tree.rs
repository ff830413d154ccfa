//! The reduction-tree engine: the one schedule TSQR is (paper Section 5,
//! Appendix C) — "a reduce followed by a broadcast, the distinction being
//! the local arithmetic performed before and after each exchange" — and
//! everything its clients must agree on for their factors to match bit
//! for bit.
//!
//! * [`upsweep`] (C.1): a leaf QR at every position, then a binomial
//!   reduce whose combine is [`merge`] — stack two `R`s, re-factor.
//! * [`downsweep`] (C.2): a binomial broadcast whose block changes at
//!   every hop — [`split`] applies a recorded merge factor to `[B; 0]`,
//!   keeps the top block and sends the bottom one — ending in `W`, the
//!   position's rows of the implicit Q-factor's leading `n` columns,
//!   written where the caller wants them.
//!
//! **The leaf is a tree too.** A position's rows are read where they lie
//! and cut into row blocks of [`LEAF_WORDS`] words (and no fewer than
//! `16·n` rows). One block — every leaf up to that size — is one
//! `geqrt` and one `Q·[B; 0]`; that is the recursion's base case, and
//! the benchmark has a workload on either side of it. A taller
//! leaf is sequential TSQR \[DGHL12\]: the same two sweeps over its blocks
//! on the position's own thread, through a [`Host`] over the position's
//! scratch, so that a block is copied out of `A`, factored and — on the
//! way down — multiplied into its rows of `W` while it is resident in
//! the L2 cache, instead of the whole leaf streaming through it a dozen
//! times. The position charges the leaf as before, one
//! `flops::geqrt(m_p, n)` and one `flops::apply_block_reflector(m_p, n,
//! n)`; the in-leaf tree sends nothing and charges nothing, so no clock
//! sees it. Every client reaches the leaf through [`upsweep`], so where
//! a leaf is cut — and therefore every bit of `V`, `T`, `R` and `W` —
//! depends on the leaf's shape alone.
//!
//! On the wire an `R` travels up as its packed `n(n+1)/2` triangle
//! ([`pack_upper`]) and a block travels down as its `n × n` words — the
//! paper's stated block sizes. A batch of `k` problems shares the tree:
//! each hop carries the `k` blocks concatenated in one message, a
//! zero-column problem contributes no words, and a batch of nothing but
//! such problems exchanges no message at all.
//!
//! Clients differ only in their [`TreeIo`]: [`Live`] is a rank of the
//! machine ([`crate::tsqr`], [`crate::updating`]'s appends), [`Host`] has
//! no machine under it ([`crate::updating::UpdatingQr::finish`]), and
//! [`crate::tsqr_ft`] brings detecting receives for a live position and
//! the survivors' retained messages for a replayed one.

use std::collections::HashMap;
use std::convert::Infallible;

use qr3d_collectives::tree::{binomial_frames, TreeFrame};
use qr3d_machine::{Comm, Payload, Rank};
use qr3d_matrix::qr::{geqrt_ws, q_times_padded_into, q_times_padded_ws};
use qr3d_matrix::scratch::ScratchArena;
use qr3d_matrix::{flops, MatMut, MatRef, Matrix};

/// A Q-factor in compact-WY form, `(V, T)`.
pub(crate) type Wy = (Matrix, Matrix);

/// What differs between tree clients: where scratch comes from, where
/// flops are charged, and how the two messages of a hop travel. In
/// every move `f` is the hop's frame: `f.ort` is the child, `f.rt` the
/// parent.
pub(crate) trait TreeIo {
    /// Why a move can fail ([`Infallible`] when none can).
    type Stop;
    /// The arena the kernels draw their temporaries from.
    fn scratch(&mut self) -> &mut dyn ScratchArena;
    /// Account for `flops` operations of local arithmetic.
    fn charge(&mut self, flops: f64);
    /// The child ships its packed triangles to the parent.
    fn send_up(&mut self, f: &TreeFrame, packed: Vec<f64>) -> Result<(), Self::Stop>;
    /// The parent takes the child's packed triangles.
    fn recv_up(&mut self, f: &TreeFrame) -> Result<Payload, Self::Stop>;
    /// The parent ships the child's blocks.
    fn send_down(&mut self, f: &TreeFrame, blocks: Vec<f64>) -> Result<(), Self::Stop>;
    /// The child takes its blocks from the parent.
    fn recv_down(&mut self, f: &TreeFrame) -> Result<Payload, Self::Stop>;
}

/// Pack the upper triangle of an `n × n` matrix into `n(n+1)/2` words
/// (row-major over the triangle) — the R-factor wire format of C.1.
pub(crate) fn pack_upper(r: &Matrix) -> Vec<f64> {
    let n = r.rows();
    debug_assert_eq!(r.cols(), n);
    let mut out = Vec::with_capacity(n * (n + 1) / 2);
    for i in 0..n {
        for j in i..n {
            out.push(r[(i, j)]);
        }
    }
    out
}

/// Inverse of [`pack_upper`].
pub(crate) fn unpack_upper(data: &[f64], n: usize) -> Matrix {
    debug_assert_eq!(data.len(), n * (n + 1) / 2);
    let mut r = Matrix::zeros(n, n);
    let mut k = 0;
    for i in 0..n {
        for j in i..n {
            r[(i, j)] = data[k];
            k += 1;
        }
    }
    r
}

/// Message tag of the hop at `depth` under operation `op`: phase 0
/// carries triangles up, phase 1 blocks down.
pub(crate) fn tag(op: u64, depth: u64, phase: u64) -> u64 {
    (op << 8) | (depth << 1) | phase
}

/// Words of a leaf block: 1 MiB of `f64`, a block the recursive
/// `geqrt` factors — and `Q·[B; 0]` fills — without leaving the L2
/// cache. Chosen by measurement on one 16384 × 64 leaf (blocks of 4096
/// rows 20.9 ms, 2048 rows 16.3, 1024 rows 17.3, 256 rows 25.0; the
/// whole leaf at once 28.9). Public for the tests that must land on
/// either side of it.
#[doc(hidden)]
pub const LEAF_WORDS: usize = 1 << 17;

/// Where an `m × n` leaf is cut into row blocks: `[0, …, m]`, blocks of
/// [`LEAF_WORDS`] words but no fewer than `16·n` rows. Every block
/// after the first costs a merge and a split of a `2n × n` stack,
/// about `(10/3)·n³` flops each against the block's own `2·rows·n²`:
/// at sixteen times `n` rows that is a tenth, and a block of `n` wide
/// columns gains nothing from the cache anyway — `geqrt` is multiplies
/// there (32768 × 256 on two ranks: 512-row blocks 870 ms, 4096-row
/// blocks and the whole leaf at once 560–640). The last block is the
/// ragged one; where it would hold fewer than `n` rows the block before
/// it takes them. A block's own bounds are `[0, m]`.
fn leaf_bounds(m: usize, n: usize) -> Vec<usize> {
    let rows = (LEAF_WORDS / n.max(1)).max(16 * n);
    let mut bounds: Vec<usize> = (0..m.max(1)).step_by(rows).collect();
    if bounds.len() > 1 && m - bounds[bounds.len() - 1] < n {
        bounds.pop();
    }
    bounds.push(m);
    bounds
}

/// C.1: re-factor `[R_top; R_bottom]`, charged; the set holding the
/// tree's root goes on top. Returns the Q-factor to record and the
/// merged `R`.
pub(crate) fn merge<I: TreeIo>(io: &mut I, r_top: &Matrix, r_bottom: &Matrix) -> (Wy, Matrix) {
    let stacked = r_top.vstack(r_bottom);
    let f = geqrt_ws(io.scratch(), stacked.view());
    io.charge(flops::geqrt(stacked.rows(), stacked.cols()));
    ((f.v, f.t), f.r)
}

/// C.2: apply a merge's Q-factor to `[B; 0]`, charged, and cut the
/// result into the block kept (the top set's) and the block sent (the
/// bottom set's).
pub(crate) fn split<I: TreeIo>(io: &mut I, (v, t): &Wy, b: &Matrix) -> (Matrix, Matrix) {
    let n = b.rows();
    let stacked = q_times_padded_ws(io.scratch(), v, t, b);
    io.charge(flops::apply_block_reflector(v.rows(), v.cols(), b.cols()));
    (
        stacked.submatrix(0, n, 0, n),
        stacked.submatrix(n, 2 * n, 0, n),
    )
}

/// A position's leaf QR, as the downsweep applies it.
#[derive(Debug)]
enum Leaf {
    /// One block's `(V⁰, T⁰)`.
    Block(Wy),
    /// A leaf of several blocks (see [`leaf_bounds`]): the positions of
    /// the tree over them, top block first.
    Tree(Vec<Node>),
}

/// What one position holds of one problem between the sweeps.
#[derive(Debug)]
pub(crate) struct Node {
    leaf: Leaf,
    /// The merges' Q-factors, pushed deepest first (the upsweep's order)
    /// so that `pop` yields them shallowest first (the downsweep's).
    merges: Vec<Wy>,
    /// The reduced `R`: the whole tree's at its root, elsewhere what
    /// this position sent up.
    pub(crate) r: Matrix,
}

impl Node {
    /// The position's row count `m_p`.
    pub(crate) fn rows(&self) -> usize {
        match &self.leaf {
            Leaf::Block((v, _)) => v.rows(),
            Leaf::Tree(blocks) => blocks.iter().map(Node::rows).sum(),
        }
    }

    fn cols(&self) -> usize {
        match &self.leaf {
            Leaf::Block((v, _)) => v.cols(),
            Leaf::Tree(blocks) => blocks[0].cols(),
        }
    }
}

/// Whether any problem has words to exchange (see the module docs).
fn any_on_wire(nodes: &[Node]) -> bool {
    nodes.iter().any(|nd| nd.cols() > 0)
}

/// The leaf QR of the rows `a` (`m_p × n`), charged once as the
/// `geqrt` of the whole leaf. A leaf of one block ([`leaf_bounds`]) is
/// that `geqrt`; a taller one is this engine's own tree over its blocks
/// — each factored by `geqrt` while it is cache-resident, their `R`s
/// reduced by [`merge`] — on the position's thread, through a [`Host`]
/// over its scratch.
fn leaf_up<I: TreeIo>(io: &mut I, a: MatRef<'_>) -> Node {
    let (m, n) = (a.rows(), a.cols());
    let bounds = leaf_bounds(m, n);
    let (leaf, r) = if let [_, _] = bounds[..] {
        let f = geqrt_ws(io.scratch(), a);
        (Leaf::Block((f.v, f.t)), f.r)
    } else {
        let blocks = bounds.len() - 1;
        let mut host = Host::new(io.scratch());
        // Every sender before its receiver: see `Host`.
        let mut nodes: Vec<Node> = (0..blocks)
            .rev()
            .map(|q| {
                let rows = a.block(bounds[q], bounds[q + 1], 0, n);
                let Ok(mut node) = upsweep(&mut host, &binomial_frames(q, blocks, 0), q, &[rows]);
                node.pop().expect("one block in, one node out")
            })
            .collect();
        nodes.reverse();
        let r = std::mem::replace(&mut nodes[0].r, Matrix::zeros(0, 0));
        (Leaf::Tree(nodes), r)
    };
    io.charge(flops::geqrt(m, n));
    Node {
        leaf,
        merges: Vec::new(),
        r,
    }
}

/// `W = Q⁰·[B; 0]` for the leaf QR `leaf`, written to `w` (`m_p × n`)
/// and charged once as the apply of the whole leaf. The blocks of a
/// tall leaf are filled one by one by the downsweep of its tree, each
/// where it lies in `w`.
fn leaf_down<I: TreeIo>(io: &mut I, leaf: &mut Leaf, b: Matrix, mut w: MatMut<'_>) {
    let (m, n) = (w.rows(), w.cols());
    match leaf {
        Leaf::Block((v, t)) => q_times_padded_into(io.scratch(), v, t, &b, w),
        Leaf::Tree(nodes) => {
            let blocks = nodes.len();
            let mut host = Host::new(io.scratch());
            let mut top = Some(vec![b]);
            let mut r0 = 0;
            for (q, node) in nodes.iter_mut().enumerate() {
                let r1 = r0 + node.rows();
                let rows = w.reborrow().into_block(r0, r1, 0, n);
                let frames = binomial_frames(q, blocks, 0);
                let node = std::slice::from_mut(node);
                let Ok(()) = downsweep(&mut host, &frames, q, node, top.take(), &mut [rows]);
                r0 = r1;
            }
        }
    }
    io.charge(flops::apply_block_reflector(m, n, n));
}

/// The upsweep of position `pos` (whose binomial frames are `frames`,
/// top-down) over its rows `a_locals` of each problem, read where they
/// lie.
pub(crate) fn upsweep<I: TreeIo>(
    io: &mut I,
    frames: &[TreeFrame],
    pos: usize,
    a_locals: &[MatRef<'_>],
) -> Result<Vec<Node>, I::Stop> {
    let mut nodes: Vec<Node> = a_locals.iter().map(|&a| leaf_up(io, a)).collect();
    if !any_on_wire(&nodes) {
        return Ok(nodes);
    }
    for f in frames.iter().rev() {
        if pos == f.ort {
            let mut packed = Vec::new();
            for nd in &nodes {
                packed.extend(pack_upper(&nd.r));
            }
            io.send_up(f, packed)?;
        } else {
            let incoming = io.recv_up(f)?;
            let mut rest = &incoming[..];
            for nd in &mut nodes {
                let n = nd.cols();
                let (tri, tail) = rest.split_at(n * (n + 1) / 2);
                rest = tail;
                let (q, r) = merge(io, &nd.r, &unpack_upper(tri, n));
                nd.merges.push(q);
                nd.r = r;
            }
        }
    }
    Ok(nodes)
}

/// The downsweep of position `pos` through what its [`upsweep`] left in
/// `nodes`, writing each problem's `W` to its block of `ws` (`m_p × n`,
/// never read before it is written). The tree's root starts from `top`
/// — `I_n` per problem for a whole factorization, the blocks delivered
/// to it when a larger tree continues above this one; every other
/// position passes `None` and is sent its blocks.
pub(crate) fn downsweep<I: TreeIo>(
    io: &mut I,
    frames: &[TreeFrame],
    pos: usize,
    nodes: &mut [Node],
    top: Option<Vec<Matrix>>,
    ws: &mut [MatMut<'_>],
) -> Result<(), I::Stop> {
    debug_assert_eq!(top.is_some(), frames.iter().all(|f| pos == f.rt));
    let mut blocks = top.unwrap_or_else(|| nodes.iter().map(|_| Matrix::zeros(0, 0)).collect());
    let frames = if any_on_wire(nodes) { frames } else { &[] };
    for f in frames {
        if pos == f.ort {
            let incoming = io.recv_down(f)?;
            let mut rest = &incoming[..];
            for (nd, b) in nodes.iter().zip(&mut blocks) {
                let n = nd.cols();
                let (words, tail) = rest.split_at(n * n);
                rest = tail;
                *b = Matrix::from_slice(n, n, words);
            }
        } else {
            let mut sent = Vec::new();
            for (nd, b) in nodes.iter_mut().zip(&mut blocks) {
                let q = nd.merges.pop().expect("tree Q-factor per frame");
                let (kept, below) = split(io, &q, b);
                *b = kept;
                sent.extend_from_slice(below.as_slice());
            }
            io.send_down(f, sent)?;
        }
    }
    debug_assert!(
        nodes.iter().all(|nd| nd.merges.is_empty()),
        "all tree factors consumed"
    );
    for ((nd, b), w) in nodes.iter_mut().zip(blocks).zip(ws) {
        leaf_down(io, &mut nd.leaf, b, w.reborrow());
    }
    Ok(())
}

/// A rank of the machine: every move is a charged [`Rank::send`] /
/// [`Rank::recv`] under one operation of `comm`.
pub(crate) struct Live<'a> {
    pub(crate) rank: &'a mut Rank,
    comm: &'a Comm,
    op: u64,
}

impl<'a> Live<'a> {
    /// Takes `comm`'s next operation number, so every rank of the job
    /// must construct one, whether or not it then communicates.
    pub(crate) fn new(rank: &'a mut Rank, comm: &'a Comm) -> Self {
        let op = comm.next_op();
        Live { rank, comm, op }
    }
}

impl TreeIo for Live<'_> {
    type Stop = Infallible;

    fn scratch(&mut self) -> &mut dyn ScratchArena {
        self.rank.workspace()
    }

    fn charge(&mut self, flops: f64) {
        self.rank.charge_flops(flops);
    }

    fn send_up(&mut self, f: &TreeFrame, packed: Vec<f64>) -> Result<(), Infallible> {
        self.rank
            .send(self.comm, f.rt, tag(self.op, f.depth, 0), packed);
        Ok(())
    }

    fn recv_up(&mut self, f: &TreeFrame) -> Result<Payload, Infallible> {
        Ok(self.rank.recv(self.comm, f.ort, tag(self.op, f.depth, 0)))
    }

    fn send_down(&mut self, f: &TreeFrame, blocks: Vec<f64>) -> Result<(), Infallible> {
        self.rank
            .send(self.comm, f.ort, tag(self.op, f.depth, 1), blocks);
        Ok(())
    }

    fn recv_down(&mut self, f: &TreeFrame) -> Result<Payload, Infallible> {
        Ok(self.rank.recv(self.comm, f.rt, tag(self.op, f.depth, 1)))
    }
}

/// A tree with no machine under it, on one thread: scratch comes from
/// the arena it is given, nothing is charged, and a hop waits in a map
/// — keyed by its child, which no other hop shares — until the
/// receiving position runs. The caller therefore runs every sender
/// before its receiver: positions in descending order for the upsweep,
/// ascending for the downsweep (with root 0 a hop's parent is its lower
/// end).
pub(crate) struct Host<'a> {
    arena: &'a mut dyn ScratchArena,
    pending: HashMap<usize, Payload>,
}

impl<'a> Host<'a> {
    pub(crate) fn new(arena: &'a mut dyn ScratchArena) -> Self {
        Host {
            arena,
            pending: HashMap::new(),
        }
    }

    fn take(&mut self, f: &TreeFrame) -> Result<Payload, Infallible> {
        Ok(self.pending.remove(&f.ort).expect("sender ran first"))
    }
}

impl TreeIo for Host<'_> {
    type Stop = Infallible;

    fn scratch(&mut self) -> &mut dyn ScratchArena {
        self.arena
    }

    fn charge(&mut self, _flops: f64) {}

    fn send_up(&mut self, f: &TreeFrame, packed: Vec<f64>) -> Result<(), Infallible> {
        self.pending.insert(f.ort, packed.into());
        Ok(())
    }

    fn recv_up(&mut self, f: &TreeFrame) -> Result<Payload, Infallible> {
        self.take(f)
    }

    fn send_down(&mut self, f: &TreeFrame, blocks: Vec<f64>) -> Result<(), Infallible> {
        self.pending.insert(f.ort, blocks.into());
        Ok(())
    }

    fn recv_down(&mut self, f: &TreeFrame) -> Result<Payload, Infallible> {
        self.take(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsqr::{reconstruct, tsqr_factor_batch, QrFactors};
    use qr3d_machine::{CostParams, Machine};
    use qr3d_matrix::scratch::LocalArena;

    /// Every position of one tree on this thread, through [`Host`]:
    /// `locals[pos]` are the position's rows of each problem.
    fn host_tsqr(locals: &[Vec<Matrix>]) -> Vec<Vec<QrFactors>> {
        let p = locals.len();
        let frames: Vec<_> = (0..p).map(|pos| binomial_frames(pos, p, 0)).collect();
        let mut arena = LocalArena::new();
        let mut host = Host::new(&mut arena);
        let mut swept: Vec<Vec<Node>> = Vec::new();
        for pos in (0..p).rev() {
            let views: Vec<MatRef<'_>> = locals[pos].iter().map(Matrix::view).collect();
            let Ok(nodes) = upsweep(&mut host, &frames[pos], pos, &views);
            swept.push(nodes);
        }
        assert!(host.pending.is_empty(), "every triangle sent was merged");
        let mut u_words: Option<Payload> = None;
        let mut out = Vec::new();
        for pos in 0..p {
            let mut nodes = swept.pop().expect("one upsweep per position");
            let eyes = locals[0].iter().map(|a| Matrix::identity(a.cols()));
            let top = (pos == 0).then(|| eyes.collect());
            let mut ws: Vec<Matrix> = locals[pos]
                .iter()
                .map(|a| Matrix::zeros(a.rows(), a.cols()))
                .collect();
            let mut views: Vec<MatMut<'_>> = ws.iter_mut().map(Matrix::view_mut).collect();
            let Ok(()) = downsweep(&mut host, &frames[pos], pos, &mut nodes, top, &mut views);
            let Ok(facs) = reconstruct(&mut host, pos == 0, ws, nodes, None, |_, u_root| {
                if let Some(u) = u_root {
                    u_words = Some(Payload::new(u));
                }
                Ok(u_words.clone().expect("the root ran first"))
            });
            out.push(facs);
        }
        assert!(host.pending.is_empty(), "every block sent was taken");
        out
    }

    /// The same problems through `tsqr_factor_batch` on a `P`-rank
    /// machine; V, T and R must agree with [`host_tsqr`] to the bit.
    fn check_against_machine(locals: &[Vec<Matrix>]) {
        let p = locals.len();
        let machine = Machine::new(p, CostParams::unit());
        let live = machine.run(|rank| {
            let w = rank.world();
            tsqr_factor_batch(rank, &w, &locals[w.rank()])
        });
        let hosted = host_tsqr(locals);
        for (pos, (h, l)) in hosted.iter().zip(&live.results).enumerate() {
            assert_eq!(h.len(), l.len());
            for (j, (h, l)) in h.iter().zip(l).enumerate() {
                assert_eq!(h.v_local, l.v_local, "P={p} position {pos} problem {j}: V");
                assert_eq!(h.t, l.t, "P={p} position {pos} problem {j}: T");
                assert_eq!(h.r, l.r, "P={p} position {pos} problem {j}: R");
            }
        }
    }

    #[test]
    fn whole_tree_on_one_thread_matches_the_machine_bitwise() {
        for p in [1usize, 2, 3, 5, 8] {
            for n in [1usize, 4] {
                let locals: Vec<Vec<Matrix>> = (0..p)
                    .map(|pos| vec![Matrix::random(n + pos % 3, n, (10 * p + pos) as u64)])
                    .collect();
                check_against_machine(&locals);
            }
        }
    }

    #[test]
    fn batch_with_a_zero_column_problem_in_the_middle_matches_bitwise() {
        let p = 5usize;
        let locals: Vec<Vec<Matrix>> = (0..p)
            .map(|pos| {
                let seed = 100 + 3 * pos as u64;
                vec![
                    Matrix::random(6, 4, seed),
                    Matrix::zeros(3 + pos, 0),
                    Matrix::random(5, 2, seed + 2),
                ]
            })
            .collect();
        check_against_machine(&locals);
    }

    #[test]
    fn a_batch_of_nothing_but_zero_column_problems_exchanges_no_message() {
        let locals = [Matrix::zeros(4, 0), Matrix::zeros(2, 0)];
        let views: Vec<MatRef<'_>> = locals.iter().map(Matrix::view).collect();
        for pos in 0..3 {
            let frames = binomial_frames(pos, 3, 0);
            let mut arena = LocalArena::new();
            let mut host = Host::new(&mut arena);
            let Ok(mut nodes) = upsweep(&mut host, &frames, pos, &views);
            let top = (pos == 0).then(|| vec![Matrix::zeros(0, 0); 2]);
            let mut ws = locals.clone();
            let mut w_views: Vec<MatMut<'_>> = ws.iter_mut().map(Matrix::view_mut).collect();
            let Ok(()) = downsweep(&mut host, &frames, pos, &mut nodes, top, &mut w_views);
            assert!(host.pending.is_empty(), "position {pos} sent something");
            assert_eq!((nodes[0].rows(), nodes[0].cols()), (4, 0));
            assert_eq!((nodes[1].rows(), nodes[1].cols()), (2, 0));
        }
    }

    #[test]
    fn a_leaf_is_cut_every_leaf_words_and_no_block_is_shorter_than_n() {
        let rows = LEAF_WORDS / 8;
        assert_eq!(leaf_bounds(rows - 1, 8), [0, rows - 1]);
        assert_eq!(leaf_bounds(rows, 8), [0, rows], "exactly LEAF_WORDS");
        // One row more is not a block of its own (it could not be
        // factored); eight are.
        assert_eq!(leaf_bounds(rows + 1, 8), [0, rows + 1]);
        assert_eq!(leaf_bounds(rows + 7, 8), [0, rows + 7]);
        assert_eq!(leaf_bounds(rows + 8, 8), [0, rows, rows + 8]);
        assert_eq!(
            leaf_bounds(LEAF_WORDS + 1, 1),
            [0, LEAF_WORDS, LEAF_WORDS + 1]
        );
        assert_eq!(
            leaf_bounds(3 * rows + 5, 8),
            [0, rows, 2 * rows, 3 * rows + 5]
        );
        // Wide enough that a merge would rival a block: blocks of 16·n
        // rows (from n = 91 on); no columns: one block.
        assert_eq!(
            leaf_bounds(16384, 64),
            [0, 2048, 4096, 6144, 8192, 10240, 12288, 14336, 16384]
        );
        assert_eq!(leaf_bounds(16384, 256), [0, 4096, 8192, 12288, 16384]);
        assert_eq!(leaf_bounds(4096 + 255, 256), [0, 4096 + 255]);
        assert_eq!(leaf_bounds(2500, 1000), [0, 2500]);
        assert_eq!(leaf_bounds(5, 0), [0, 5]);
        assert_eq!(leaf_bounds(0, 0), [0, 0]);
        // A block is not cut again.
        for (m, n) in [(3 * rows + 5, 8), (LEAF_WORDS + 1, 1), (16384, 256)] {
            for w in leaf_bounds(m, n).windows(2) {
                assert_eq!(leaf_bounds(w[1] - w[0], n), [0, w[1] - w[0]]);
            }
        }
    }

    #[test]
    fn leaves_of_several_blocks_match_the_machine_bitwise() {
        // Leaves of exactly `LEAF_WORDS`, a row to either side, on
        // either side of the first cut and with a ragged last block,
        // alone and beside a one-block problem in the same batch.
        let rows = LEAF_WORDS / 8;
        for (p, heights) in [
            (1usize, vec![2 * rows + 40]),
            (2, vec![rows + 8, rows]),
            (4, vec![rows - 1, rows, rows + 1, rows + 8]),
            (3, vec![3 * rows + 5, rows + 7, 2 * rows]),
        ] {
            let locals: Vec<Vec<Matrix>> = (0..p)
                .map(|pos| {
                    let seed = (70 * p + pos) as u64;
                    vec![
                        Matrix::random(heights[pos], 8, seed),
                        Matrix::random(12, 3, seed + 1),
                    ]
                })
                .collect();
            check_against_machine(&locals);
        }
    }

    #[test]
    fn a_tall_leaf_keeps_the_factorization_accurate_and_the_arena_warm() {
        // One position, several blocks (the last ragged) — four of
        // `LEAF_WORDS` words, then three of 16·n rows: W = Q·[I; 0] is
        // the thin Q-factor, so A = W·R and WᵀW = I, at the benchmark's
        // thresholds; and the second run draws every scratch buffer
        // from the arena the first one filled.
        use qr3d_matrix::gemm::{matmul, matmul_tn};
        for (m, n, cut) in [
            (3 * (LEAF_WORDS / 16) + 100, 16usize, 4usize),
            (2 * 16 * 96 + 200, 96, 3),
        ] {
            let a = Matrix::random(m, n, 5);
            let mut arena = LocalArena::new();
            let mut misses = Vec::new();
            for _ in 0..2 {
                let mut host = Host::new(&mut arena);
                let Ok(mut nodes) = upsweep(&mut host, &[], 0, &[a.view()]);
                assert!(matches!(&nodes[0].leaf, Leaf::Tree(blocks) if blocks.len() == cut));
                assert_eq!((nodes[0].rows(), nodes[0].cols()), (m, n));
                let mut w = Matrix::zeros(m, n);
                let top = Some(vec![Matrix::identity(n)]);
                let Ok(()) = downsweep(&mut host, &[], 0, &mut nodes, top, &mut [w.view_mut()]);
                let resid = matmul(&w, &nodes[0].r).sub(&a).frobenius_norm() / a.frobenius_norm();
                assert!(resid <= 1e-11, "{m} × {n}: residual {resid}");
                let orth = matmul_tn(&w, &w).sub(&Matrix::identity(n)).max_abs();
                assert!(orth <= 1e-10, "{m} × {n}: orthogonality {orth}");
                misses.push(arena.stats().1);
                assert_eq!(arena.outstanding_bytes(), 0, "all scratch returned");
            }
            assert_eq!(misses[0], misses[1], "a warm leaf allocates no scratch");
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let r = Matrix::from_fn(
            4,
            4,
            |i, j| if j >= i { (i * 4 + j + 1) as f64 } else { 0.0 },
        );
        let packed = pack_upper(&r);
        assert_eq!(packed.len(), 10);
        assert_eq!(unpack_upper(&packed, 4), r);
    }
}
