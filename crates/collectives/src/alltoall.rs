//! All-to-all algorithms (paper Appendix A.3).
//!
//! * [`all_to_all_with`] — the **two-phase** all-to-all \[HBJ96\] ("all
//!   all-to-alls in this work use a two-phase approach") as one engine
//!   over two callbacks: each block is dealt into `P` balanced pieces
//!   routed through intermediate processors, bounding the per-message
//!   size by `B*/P + O(P)` and the total bandwidth by
//!   `O((B* + P²) log P)` even when block sizes vary wildly. Each phase
//!   is a radix-2 **index algorithm** [BHK+97]: blocks are labeled
//!   `(q − p) mod P`; at step `i` every processor forwards the blocks
//!   whose label has bit `i` set to processor `p + 2^i` — `⌈log₂P⌉`
//!   messages per phase.
//! * [`all_to_all`] — the same engine behind the `Vec<Vec<f64>>` →
//!   `Vec<Payload>` form; [`all_to_all_index`] — one index phase alone,
//!   `O(B·P·log P)` words.
//! * [`all_to_all_direct`] — pairwise exchange reference (`P−1` messages
//!   of one block each); used for correctness checks and ablations.
//!
//! **Copies.** The engine never materializes a block. The caller's
//! `pack` writes each piece straight into the phase-1 step message that
//! carries it first; a piece is copied once more per forwarding hop
//! (into the next step message), once when the intermediate regroups it
//! into its phase-2 step message, and once out, through `unpack`, from a
//! view of the message that delivered it. A piece whose route in a
//! phase has label `l` takes `popcount(l)` copies there, so with `P` a
//! power of two a word is copied `1 + log₂P` times on average (3 at
//! `P = 4`). Packing, regrouping and unpacking through separate
//! per-block buffers made that `5 + log₂P` (7).
//!
//! **Buffers.** Every step message is taken from the sending rank's
//! [`qr3d_machine::Workspace`] without a zero fill, at the capacity of
//! the phase's largest step message on any rank, and every message a
//! rank receives goes back to *its* workspace ([`Workspace::reclaim`])
//! once the call has consumed it. A buffer that moved to another rank
//! therefore fits whatever that rank sends when the call repeats, so on
//! a warm workspace the engine allocates nothing but its `O(P)` index
//! tables and message headers.
//!
//! Because every rank can compute the full [`BlockSizes`] matrix locally,
//! no size or label headers are transmitted; the charged words are exactly
//! the blocks'.
//!
//! [`Workspace::reclaim`]: qr3d_machine::Workspace::reclaim

use std::ops::Range;

use qr3d_machine::{Comm, Payload, Rank};

use crate::sizes::BlockSizes;
use crate::{ceil_log2, tag_of};

/// Pairwise-exchange all-to-all: `blocks[d]` goes to local rank `d`;
/// returns the received blocks indexed by source. `P−1` rounds, all
/// transfers zero-copy.
pub fn all_to_all_direct(
    rank: &mut Rank,
    comm: &Comm,
    blocks: Vec<Vec<f64>>,
    sizes: &BlockSizes,
) -> Vec<Payload> {
    let p = comm.size();
    let me = comm.rank();
    check_outgoing(&blocks, sizes, me, p);
    let op = comm.next_op();

    let mut blocks: Vec<Payload> = blocks.into_iter().map(Payload::new).collect();
    let mut out: Vec<Payload> = (0..p).map(|_| Payload::empty()).collect();
    out[me] = std::mem::replace(&mut blocks[me], Payload::empty());
    for k in 1..p {
        let dst = (me + k) % p;
        let src = (me + p - k) % p;
        let outgoing = std::mem::replace(&mut blocks[dst], Payload::empty());
        rank.send(comm, dst, tag_of(op, k as u64), &outgoing);
        let incoming = rank.recv(comm, src, tag_of(op, k as u64));
        assert_eq!(incoming.len(), sizes.get(src, me), "direct: size mismatch");
        out[src] = incoming;
    }
    out
}

/// What one index phase delivered to this rank: the messages it
/// received, and where in them each source's block lies.
struct Arrivals {
    msgs: Vec<Payload>,
    /// `(message, offset)` of the block from each source; unused for
    /// this rank's own block, which never leaves it.
    at: Vec<(usize, usize)>,
}

impl Arrivals {
    /// `len` words at `off` within the block that came from `src`.
    fn words(&self, src: usize, off: usize, len: usize) -> &[f64] {
        let (msg, base) = self.at[src];
        &self.msgs[msg][base + off..base + off + len]
    }

    /// Hand every received message back to the rank's workspace.
    fn reclaim(self, rank: &mut Rank) {
        for msg in self.msgs {
            rank.workspace().reclaim(msg);
        }
    }
}

/// One radix-2 index all-to-all [BHK+97] over blocks of `sizes`. The
/// block labeled `l` (destination − origin) sits with its origin until
/// the step of its lowest set bit, where `fill(dest, msg)` appends it to
/// the step message; each later step of a set bit copies it out of the
/// message it arrived in into the next one. Step messages are packed in
/// ascending label order from the rank's workspace.
///
/// Takes one operation id from `comm` when `P > 1`, none otherwise.
fn index_phase(
    rank: &mut Rank,
    comm: &Comm,
    sizes: &BlockSizes,
    mut fill: impl FnMut(usize, &mut Vec<f64>),
) -> Arrivals {
    let p = comm.size();
    let me = comm.rank();
    let mut arrivals = Arrivals {
        msgs: Vec::new(),
        at: vec![(0, 0); p],
    };
    if p == 1 {
        return arrivals;
    }
    let op = comm.next_op();
    // held[l]: where the block labeled l now held here lies, `None`
    // while it is still with its origin (this rank).
    let mut held: Vec<Option<(usize, usize)>> = vec![None; p];
    // The block labeled l held at step `bit` left its origin
    // `l & (bit − 1)` hops ago.
    let size_of = |holder: usize, l: usize, bit: usize| {
        let src = (holder + p - (l & (bit - 1)) % p) % p;
        sizes.get(src, (src + l) % p)
    };
    let steps = ceil_log2(p);
    let step_len = |holder: usize, bit: usize| -> usize {
        (0..p)
            .filter(|l| l & bit != 0)
            .map(|l| size_of(holder, l, bit))
            .sum()
    };
    // Every step message of the phase gets the capacity of its largest
    // one, on any rank: a buffer a rank receives can then carry any
    // message it sends when the same exchange repeats.
    let cap = (0..p)
        .flat_map(|h| (0..steps).map(move |i| (h, 1usize << i)))
        .map(|(h, bit)| step_len(h, bit))
        .max()
        .unwrap_or(0);
    for i in 0..steps {
        let bit = 1usize << i;
        let to = (me + bit) % p;
        let from = (me + p - bit) % p;
        let labels = || (0..p).filter(move |l| l & bit != 0);
        let len = step_len(me, bit);
        let mut msg = rank.workspace().take_empty(cap);
        for l in labels() {
            match held[l] {
                None => fill((me + l) % p, &mut msg),
                Some((k, off)) => {
                    let sz = size_of(me, l, bit);
                    msg.extend_from_slice(&arrivals.msgs[k][off..off + sz]);
                }
            }
        }
        assert_eq!(msg.len(), len, "index: packed step {i} size mismatch");
        rank.send(comm, to, tag_of(op, i as u64), msg);
        let k = arrivals.msgs.len();
        arrivals
            .msgs
            .push(rank.recv(comm, from, tag_of(op, i as u64)));
        let mut off = 0;
        for l in labels() {
            held[l] = Some((k, off));
            off += size_of(from, l, bit);
        }
        assert_eq!(
            off,
            arrivals.msgs[k].len(),
            "index: payload size mismatch at step {i}"
        );
    }
    // The block labeled l now held here originated at (me − l) mod P.
    for (l, at) in held.into_iter().enumerate().skip(1) {
        arrivals.at[(me + p - l) % p] = at.expect("every label ≠ 0 travels");
    }
    arrivals
}

/// Radix-2 index-algorithm all-to-all [BHK+97]: `blocks[d]` goes to local
/// rank `d`; returns received blocks indexed by source. `⌈log₂P⌉` rounds;
/// received messages are split into blocks by O(1) slicing (and so are
/// not recycled: the returned views keep them).
pub fn all_to_all_index(
    rank: &mut Rank,
    comm: &Comm,
    blocks: Vec<Vec<f64>>,
    sizes: &BlockSizes,
) -> Vec<Payload> {
    let p = comm.size();
    let me = comm.rank();
    check_outgoing(&blocks, sizes, me, p);
    let arrivals = index_phase(rank, comm, sizes, |d, msg| {
        msg.extend_from_slice(&blocks[d])
    });
    let mut blocks = blocks;
    (0..p)
        .map(|s| {
            if s == me {
                Payload::new(std::mem::take(&mut blocks[me]))
            } else {
                let (k, off) = arrivals.at[s];
                arrivals.msgs[k].slice(off..off + sizes.get(s, me))
            }
        })
        .collect()
}

/// Size of piece `j` when a block of `len` words is dealt into `p`
/// balanced contiguous pieces (first `len mod p` pieces get the extra
/// word).
fn piece_size(len: usize, p: usize, j: usize) -> usize {
    let q = len / p;
    let r = len % p;
    if j < r {
        q + 1
    } else {
        q
    }
}

/// Offset of piece `j` within its block.
fn piece_offset(len: usize, p: usize, j: usize) -> usize {
    let q = len / p;
    let r = len % p;
    if j < r {
        j * (q + 1)
    } else {
        r * (q + 1) + (j - r) * q
    }
}

/// Two-phase all-to-all \[HBJ96\], the default used throughout the
/// paper, as an engine over two callbacks (see the module docs).
///
/// This rank sends `sizes.get(me, d)` words to every local rank `d`.
/// `pack(d, range, msg)` must append words `range` of its block for `d`
/// to `msg`; `unpack(s, off, words)` receives the words at offset `off`
/// of the block from `s`, as a view of the message that carried them.
/// Sources are delivered in ascending order, and each source's pieces in
/// ascending offset order; empty pieces are neither packed nor
/// delivered.
///
/// Each processor `p` deals its block for `q` into `P` balanced pieces
/// assigned round-robin to intermediates starting at `p + q`; two index
/// all-to-alls route pieces to intermediates and then to their final
/// destinations. The rotation `p + q` load-balances the intermediate
/// traffic, bounding message sizes by `B*/P + O(P)`.
pub fn all_to_all_with(
    rank: &mut Rank,
    comm: &Comm,
    sizes: &BlockSizes,
    mut pack: impl FnMut(usize, Range<usize>, &mut Vec<f64>),
    mut unpack: impl FnMut(usize, usize, &[f64]),
) {
    let p = comm.size();
    let me = comm.rank();
    assert_eq!(sizes.procs(), p, "all-to-all: size matrix shape");
    // Piece j of block s → q travels via intermediate (s + q + j) mod P;
    // equivalently, the piece routed via intermediate t is
    // j = (t − s − q) mod P.
    let piece_of = |s: usize, q: usize, t: usize| (t + 2 * p - s % p - q % p) % p;
    let piece = |s: usize, q: usize, t: usize| {
        let (len, j) = (sizes.get(s, q), piece_of(s, q, t));
        let off = piece_offset(len, p, j);
        off..off + piece_size(len, p, j)
    };

    // Phase 1: to intermediate t, concat over destinations q (ascending)
    // of my piece routed via t.
    let phase1_sizes = BlockSizes::from_fn(p, |s, t| (0..p).map(|q| piece(s, q, t).len()).sum());
    let from_sources = index_phase(rank, comm, &phase1_sizes, |t, msg| {
        for q in 0..p {
            let range = piece(me, q, t);
            if !range.is_empty() {
                pack(q, range, msg);
            }
        }
    });
    // Where piece (s → q via me) sits in the phase-1 block from s.
    let in_phase1 = |s: usize, q: usize| (0..q).map(|q2| piece(s, q2, me).len()).sum::<usize>();

    // Phase 2: as intermediate, send to q the concat over sources s
    // (ascending) of their (s → q) pieces routed via me — regrouped
    // straight out of the phase-1 messages (my own pieces from `pack`).
    let phase2_sizes = BlockSizes::from_fn(p, |t, q| (0..p).map(|s| piece(s, q, t).len()).sum());
    let from_intermediates = index_phase(rank, comm, &phase2_sizes, |q, msg| {
        for s in 0..p {
            let range = piece(s, q, me);
            if range.is_empty() {
                continue;
            }
            if s == me {
                pack(q, range, msg);
            } else {
                msg.extend_from_slice(from_sources.words(s, in_phase1(s, q), range.len()));
            }
        }
    });

    // Deliver: block (s → me) is pieces j = 0..P in order, piece j in
    // the phase-2 block from intermediate t = (s + me + j) mod P, after
    // the pieces of sources s' < s. Pieces routed via me never took a
    // phase-2 hop; my own piece via me never moved at all.
    let mut own = Vec::new();
    for s in 0..p {
        for j in 0..p {
            let t = (s + me + j) % p;
            let range = piece(s, me, t);
            if range.is_empty() {
                continue;
            }
            let words = if t != me {
                let off = (0..s).map(|s2| piece(s2, me, t).len()).sum();
                from_intermediates.words(t, off, range.len())
            } else if s != me {
                from_sources.words(s, in_phase1(s, me), range.len())
            } else {
                own = rank.workspace().take_empty(range.len());
                pack(me, range.clone(), &mut own);
                &own
            };
            unpack(s, range.start, words);
        }
    }
    rank.workspace().put(own);
    from_sources.reclaim(rank);
    from_intermediates.reclaim(rank);
}

/// Two-phase all-to-all \[HBJ96\] on owned blocks: `blocks[d]` goes to
/// local rank `d`; returns the received blocks indexed by source. A thin
/// adapter over [`all_to_all_with`].
pub fn all_to_all(
    rank: &mut Rank,
    comm: &Comm,
    blocks: Vec<Vec<f64>>,
    sizes: &BlockSizes,
) -> Vec<Payload> {
    let p = comm.size();
    let me = comm.rank();
    check_outgoing(&blocks, sizes, me, p);
    if p == 1 {
        return blocks.into_iter().map(Payload::new).collect();
    }
    let mut out: Vec<Vec<f64>> = (0..p)
        .map(|s| Vec::with_capacity(sizes.get(s, me)))
        .collect();
    all_to_all_with(
        rank,
        comm,
        sizes,
        |d, range, msg| msg.extend_from_slice(&blocks[d][range]),
        |s, off, words| {
            debug_assert_eq!(off, out[s].len(), "pieces arrive in order");
            out[s].extend_from_slice(words);
        },
    );
    out.into_iter().map(Payload::new).collect()
}

fn check_outgoing(blocks: &[Vec<f64>], sizes: &BlockSizes, me: usize, p: usize) {
    assert_eq!(blocks.len(), p, "all-to-all: one block per destination");
    assert_eq!(sizes.procs(), p, "all-to-all: size matrix shape");
    for (d, b) in blocks.iter().enumerate() {
        assert_eq!(
            b.len(),
            sizes.get(me, d),
            "all-to-all: block for {d} size mismatch"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr3d_machine::{CostParams, Machine};

    fn machine(p: usize) -> Machine {
        Machine::new(p, CostParams::unit())
    }

    /// Payload that encodes (src, dst, index) so routing errors surface.
    fn marked(src: usize, dst: usize, len: usize) -> Vec<f64> {
        (0..len)
            .map(|k| (src * 1_000_000 + dst * 1_000 + k) as f64)
            .collect()
    }

    type AllToAllFn = fn(&mut Rank, &Comm, Vec<Vec<f64>>, &BlockSizes) -> Vec<Payload>;

    fn run_and_check(p: usize, sizes: BlockSizes, algo: AllToAllFn) {
        let sz = sizes.clone();
        let out = machine(p).run(move |rank| {
            let w = rank.world();
            let me = w.rank();
            let blocks: Vec<Vec<f64>> = (0..p).map(|d| marked(me, d, sz.get(me, d))).collect();
            algo(rank, &w, blocks, &sz)
        });
        for (me, res) in out.results.iter().enumerate() {
            assert_eq!(res.len(), p);
            for (s, b) in res.iter().enumerate() {
                assert_eq!(b, &marked(s, me, sizes.get(s, me)), "recv at {me} from {s}");
            }
        }
    }

    #[test]
    fn direct_uniform() {
        for p in [1usize, 2, 3, 4, 7] {
            run_and_check(p, BlockSizes::uniform(p, 3), all_to_all_direct);
        }
    }

    #[test]
    fn direct_is_zero_copy() {
        // Wrapping an owned block is zero-copy: the self block (and, by
        // the same mechanism, every sent block) keeps its original heap
        // allocation through the collective.
        let p = 4;
        let out = machine(p).run(|rank| {
            let w = rank.world();
            let me = w.rank();
            let sizes = BlockSizes::uniform(p, 8);
            let blocks: Vec<Vec<f64>> = (0..p).map(|d| marked(me, d, 8)).collect();
            let own_ptr = blocks[me].as_ptr();
            let got = all_to_all_direct(rank, &w, blocks, &sizes);
            (
                got[me].as_ptr() == own_ptr,
                got.iter().map(|b| b.to_vec()).collect::<Vec<_>>(),
            )
        });
        for (me, (own_zero_copy, res)) in out.results.iter().enumerate() {
            assert!(
                own_zero_copy,
                "rank {me}: own block must keep its allocation"
            );
            for (s, b) in res.iter().enumerate() {
                assert_eq!(b, &marked(s, me, 8));
            }
        }
    }

    #[test]
    fn index_uniform() {
        for p in [1usize, 2, 3, 4, 5, 8, 13] {
            run_and_check(p, BlockSizes::uniform(p, 3), all_to_all_index);
        }
    }

    #[test]
    fn index_variable_sizes() {
        for p in [2usize, 3, 6, 9] {
            let sizes = BlockSizes::from_fn(p, |s, d| (3 * s + 2 * d) % 7);
            run_and_check(p, sizes, all_to_all_index);
        }
    }

    #[test]
    fn index_splits_messages_by_slicing() {
        // After the final step, blocks that arrived in the same message
        // must be views of one shared buffer (split = slice, not copy).
        let p = 4;
        let sizes = BlockSizes::uniform(p, 4);
        let sz = sizes.clone();
        let out = machine(p).run(move |rank| {
            let w = rank.world();
            let me = w.rank();
            let blocks: Vec<Vec<f64>> = (0..p).map(|d| marked(me, d, sz.get(me, d))).collect();
            all_to_all_index(rank, &w, blocks, &sz)
        });
        // For p = 4, labels 2 and 3 both have bit 1 set: at the last step
        // they travel in the same message, so their final blocks share a
        // buffer. Label l at rank me originated at (me − l) mod p.
        for (me, res) in out.results.iter().enumerate() {
            let src2 = (me + p - 2) % p;
            let src3 = (me + p - 3) % p;
            assert!(
                res[src2].same_buffer(&res[src3]),
                "rank {me}: blocks from {src2} and {src3} should share an arrival buffer"
            );
        }
    }

    #[test]
    fn two_phase_uniform_and_variable() {
        for p in [1usize, 2, 4, 5, 8] {
            run_and_check(p, BlockSizes::uniform(p, 4), all_to_all);
            let sizes = BlockSizes::from_fn(p, |s, d| (s * d + s + 1) % 9);
            run_and_check(p, sizes, all_to_all);
        }
    }

    #[test]
    fn two_phase_with_empty_blocks() {
        let p = 4;
        let sizes = BlockSizes::from_fn(p, |s, d| if (s + d) % 2 == 0 { 5 } else { 0 });
        run_and_check(p, sizes, all_to_all);
    }

    #[test]
    fn two_phase_skewed_sizes() {
        // One hot sender and one hot receiver: exactly the case two-phase
        // load-balances.
        let p = 8;
        let sizes = BlockSizes::from_fn(p, |s, d| {
            if s == 0 {
                64
            } else if d == 3 {
                32
            } else {
                1
            }
        });
        run_and_check(p, sizes, all_to_all);
    }

    #[test]
    fn index_message_count_is_log_p() {
        for p in [4usize, 8, 16, 32] {
            let sizes = BlockSizes::uniform(p, 2);
            let sz = sizes.clone();
            let out = machine(p).run(move |rank| {
                let w = rank.world();
                let me = w.rank();
                let blocks: Vec<Vec<f64>> = (0..p).map(|d| marked(me, d, sz.get(me, d))).collect();
                all_to_all_index(rank, &w, blocks, &sz)
            });
            let lg = (p as f64).log2().ceil();
            // Each rank sends exactly ⌈log₂P⌉ messages.
            let per_rank_msgs = out.stats.total_messages() / p as f64;
            assert_eq!(per_rank_msgs, lg, "p={p}");
        }
    }

    #[test]
    fn two_phase_bandwidth_bound() {
        // Critical-path W = O((B* + P²) log P) even with skewed sizes.
        let p = 16;
        let hot = 256;
        let sizes = BlockSizes::from_fn(p, |s, _| if s == 0 { hot } else { 1 });
        let bstar = sizes.max_load() as f64;
        let sz = sizes.clone();
        let out = machine(p).run(move |rank| {
            let w = rank.world();
            let me = w.rank();
            let blocks: Vec<Vec<f64>> = (0..p).map(|d| marked(me, d, sz.get(me, d))).collect();
            all_to_all(rank, &w, blocks, &sz)
        });
        let c = out.stats.critical();
        let lg = (p as f64).log2().ceil();
        let bound = 4.0 * (bstar + (p * p) as f64) * lg;
        assert!(c.words <= bound, "W={} bound={bound}", c.words);
        // And the single-phase index algorithm would move B·P·logP from the
        // hot sender: verify two-phase's critical path beats that bound's
        // worst case for this skew.
        let naive_hot = hot as f64 * p as f64; // B*P words leaving rank 0 alone
        assert!(
            c.words <= 2.0 * naive_hot * lg,
            "sanity: two-phase within index bound"
        );
    }

    #[test]
    fn piece_arithmetic() {
        assert_eq!(piece_size(10, 4, 0), 3);
        assert_eq!(piece_size(10, 4, 1), 3);
        assert_eq!(piece_size(10, 4, 2), 2);
        assert_eq!(piece_size(10, 4, 3), 2);
        assert_eq!((0..4).map(|j| piece_size(10, 4, j)).sum::<usize>(), 10);
        assert_eq!(piece_offset(10, 4, 0), 0);
        assert_eq!(piece_offset(10, 4, 1), 3);
        assert_eq!(piece_offset(10, 4, 2), 6);
        assert_eq!(piece_offset(10, 4, 3), 8);
        // Zero-length blocks.
        assert_eq!(piece_size(0, 4, 2), 0);
        assert_eq!(piece_offset(0, 4, 3), 0);
    }

    #[test]
    fn index_on_subcommunicator() {
        let p = 6;
        let out = machine(p).run(|rank| {
            let w = rank.world();
            // Even ranks only.
            if rank.id() % 2 == 0 {
                let sub = w.subset(&[0, 2, 4]).unwrap();
                let sizes = BlockSizes::uniform(3, 2);
                let me = sub.rank();
                let blocks: Vec<Vec<f64>> = (0..3).map(|d| marked(me, d, 2)).collect();
                Some(
                    all_to_all_index(rank, &sub, blocks, &sizes)
                        .iter()
                        .map(|b| b.to_vec())
                        .collect::<Vec<_>>(),
                )
            } else {
                None
            }
        });
        for (r, res) in out.results.iter().enumerate() {
            if r % 2 == 0 {
                let res = res.as_ref().unwrap();
                let me = r / 2;
                for (s, b) in res.iter().enumerate() {
                    assert_eq!(b, &marked(s, me, 2));
                }
            }
        }
    }
}
