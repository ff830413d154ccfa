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
//!   position's rows of the implicit Q-factor's leading `n` columns.
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

use qr3d_collectives::tree::TreeFrame;
use qr3d_machine::{Comm, Payload, Rank};
use qr3d_matrix::qr::{geqrt_ws, q_times_padded_ws};
use qr3d_matrix::scratch::{LocalArena, ScratchArena};
use qr3d_matrix::{flops, Matrix};

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

/// Householder QR of `a`, charged: the leaf QR, and on a stacked pair
/// of `R`s the merge. Returns the Q-factor and `R`.
fn factor<I: TreeIo>(io: &mut I, a: &Matrix) -> (Wy, Matrix) {
    let f = geqrt_ws(io.scratch(), a);
    io.charge(flops::geqrt(a.rows(), a.cols()));
    ((f.v, f.t), f.r)
}

/// C.1: re-factor `[R_top; R_bottom]`; the set holding the tree's root
/// goes on top. Returns the Q-factor to record and the merged `R`.
pub(crate) fn merge<I: TreeIo>(io: &mut I, r_top: &Matrix, r_bottom: &Matrix) -> (Wy, Matrix) {
    factor(io, &r_top.vstack(r_bottom))
}

/// `Q·[B; 0]`, charged: `W` at a leaf, the stacked pair of blocks at a
/// merge.
fn apply<I: TreeIo>(io: &mut I, (v, t): &Wy, b: &Matrix) -> Matrix {
    let out = q_times_padded_ws(io.scratch(), v, t, b);
    io.charge(flops::apply_block_reflector(v.rows(), v.cols(), b.cols()));
    out
}

/// C.2: apply a merge's Q-factor to `[B; 0]` and cut the result into the
/// block kept (the top set's) and the block sent (the bottom set's).
pub(crate) fn split<I: TreeIo>(io: &mut I, q: &Wy, b: &Matrix) -> (Matrix, Matrix) {
    let n = b.rows();
    let stacked = apply(io, q, b);
    (
        stacked.submatrix(0, n, 0, n),
        stacked.submatrix(n, 2 * n, 0, n),
    )
}

/// What one position holds of one problem between the sweeps.
#[derive(Debug)]
pub(crate) struct Node {
    /// The leaf QR's `(V⁰, T⁰)`.
    leaf: Wy,
    /// The merges' Q-factors, pushed deepest first (the upsweep's order)
    /// so that `pop` yields them shallowest first (the downsweep's).
    merges: Vec<Wy>,
    /// The reduced `R`: the whole tree's at its root, elsewhere what
    /// this position sent up.
    pub(crate) r: Matrix,
}

impl Node {
    fn cols(&self) -> usize {
        self.leaf.0.cols()
    }
}

/// Whether any problem has words to exchange (see the module docs).
fn any_on_wire(nodes: &[Node]) -> bool {
    nodes.iter().any(|nd| nd.cols() > 0)
}

/// The upsweep of position `pos` (whose binomial frames are `frames`,
/// top-down) over its rows `a_locals` of each problem.
pub(crate) fn upsweep<I: TreeIo>(
    io: &mut I,
    frames: &[TreeFrame],
    pos: usize,
    a_locals: &[Matrix],
) -> Result<Vec<Node>, I::Stop> {
    let mut nodes: Vec<Node> = a_locals
        .iter()
        .map(|a| {
            let (leaf, r) = factor(io, a);
            Node {
                leaf,
                merges: Vec::new(),
                r,
            }
        })
        .collect();
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
/// `nodes`, returning each problem's `W` (`m_p × n`). The tree's root
/// starts from `top` — `I_n` per problem for a whole factorization, the
/// blocks delivered to it when a larger tree continues above this one;
/// every other position passes `None` and is sent its blocks.
pub(crate) fn downsweep<I: TreeIo>(
    io: &mut I,
    frames: &[TreeFrame],
    pos: usize,
    nodes: &mut [Node],
    top: Option<Vec<Matrix>>,
) -> Result<Vec<Matrix>, I::Stop> {
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
    Ok(nodes
        .iter()
        .zip(&blocks)
        .map(|(nd, b)| apply(io, &nd.leaf, b))
        .collect())
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

/// A tree with no machine under it: nothing is charged, and a hop waits
/// in a map — keyed by its child, which no other hop shares — until the
/// receiving position runs. The caller therefore runs every sender
/// before its receiver: positions in descending order for the upsweep,
/// ascending for the downsweep (with root 0 a hop's parent is its lower
/// end).
#[derive(Default)]
pub(crate) struct Host {
    arena: LocalArena,
    pending: HashMap<usize, Payload>,
}

impl Host {
    fn take(&mut self, f: &TreeFrame) -> Result<Payload, Infallible> {
        Ok(self.pending.remove(&f.ort).expect("sender ran first"))
    }
}

impl TreeIo for Host {
    type Stop = Infallible;

    fn scratch(&mut self) -> &mut dyn ScratchArena {
        &mut self.arena
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
    use qr3d_collectives::tree::binomial_frames;
    use qr3d_machine::{CostParams, Machine};

    /// Every position of one tree on this thread, through [`Host`]:
    /// `locals[pos]` are the position's rows of each problem.
    fn host_tsqr(locals: &[Vec<Matrix>]) -> Vec<Vec<QrFactors>> {
        let p = locals.len();
        let frames: Vec<_> = (0..p).map(|pos| binomial_frames(pos, p, 0)).collect();
        let mut host = Host::default();
        let mut swept: Vec<Vec<Node>> = Vec::new();
        for pos in (0..p).rev() {
            let Ok(nodes) = upsweep(&mut host, &frames[pos], pos, &locals[pos]);
            swept.push(nodes);
        }
        assert!(host.pending.is_empty(), "every triangle sent was merged");
        let mut u_words: Option<Payload> = None;
        let mut out = Vec::new();
        for pos in 0..p {
            let mut nodes = swept.pop().expect("one upsweep per position");
            let eyes = locals[0].iter().map(|a| Matrix::identity(a.cols()));
            let top = (pos == 0).then(|| eyes.collect());
            let Ok(ws) = downsweep(&mut host, &frames[pos], pos, &mut nodes, top);
            let Ok(facs) = reconstruct(&mut host, pos == 0, ws, nodes, |_, u_root| {
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
        let locals = vec![Matrix::zeros(4, 0), Matrix::zeros(2, 0)];
        for pos in 0..3 {
            let frames = binomial_frames(pos, 3, 0);
            let mut host = Host::default();
            let Ok(mut nodes) = upsweep(&mut host, &frames, pos, &locals);
            let top = (pos == 0).then(|| vec![Matrix::zeros(0, 0); 2]);
            let Ok(ws) = downsweep(&mut host, &frames, pos, &mut nodes, top);
            assert!(host.pending.is_empty(), "position {pos} sent something");
            assert_eq!((ws[0].rows(), ws[0].cols()), (4, 0));
            assert_eq!((ws[1].rows(), ws[1].cols()), (2, 0));
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
