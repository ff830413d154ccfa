//! Bidirectional-exchange collectives (paper Appendix A.2), zero-copy.
//!
//! `reduce-scatter` recursively halves the processor range, pairing each
//! processor with one in the opposite set; paired processors exchange the
//! blocks destined for each other's sets and fold them into their partial
//! sums. `all-gather` reverses the pattern (head recursion). When the two
//! sets differ in size, the odd processor of the *smaller* set talks to two
//! partners ("processor p only sends to one of the two, but receives from
//! both" — and, reversed, sends to both / receives from one).
//!
//! Both work in a single rank-ordered buffer: because the recursion's
//! ranges nest and blocks are kept in local-rank order, every exchanged
//! range is contiguous, so `reduce-scatter` folds incoming payload views
//! straight into its accumulator buffer ([`reduce_scatter_flat`]) and
//! `all-gather` copies each arriving range straight to its final
//! position ([`all_gather_flat`]) — no per-level concat/split buffers
//! exist. Each send copies its range into a message buffer from the
//! sender's [`qr3d_machine::Workspace`], and each received message goes
//! back to the receiver's once folded or copied, so a warm rank's
//! exchanges allocate no buffer.
//!
//! On top of these, the paper builds the large-block variants:
//!
//! * `broadcast` = scatter + all-gather — `O(B + P)` words,
//! * `reduce` = reduce-scatter + gather — `O(B + P)` words and flops,
//! * `all-reduce` = reduce-scatter + all-gather,
//!
//! each splitting the original block into `P` chunks of `⌈B/P⌉` — which,
//! with flat buffers, is pure index arithmetic: no chunk is materialized.

use std::ops::Range;

use qr3d_machine::{Comm, Payload, Rank};

use crate::binomial::{gather, scatter};
use crate::{prefix_offsets, tag_of};

/// One level of the bidirectional-exchange recursion for this rank:
/// my partners in the opposite set, and the opposite set's range.
#[derive(Debug, Clone, Copy)]
struct Level {
    /// Partner to exchange with (always present for p > 1 ranges).
    partner: usize,
    /// Second incoming partner, for the odd processor of the smaller set.
    extra_in: Option<usize>,
    /// True if this rank is the unpaired extra of the larger set: it
    /// sends but does not receive (reduce-scatter direction).
    send_only: bool,
    /// The opposite set's local-rank range.
    olo: usize,
    ohi: usize,
    /// My set's range after this level (descend into it).
    mlo: usize,
    mhi: usize,
    depth: u64,
}

/// Compute this rank's exchange levels, top-down. Sets split as
/// `⌈P/2⌉ | ⌊P/2⌋` (left set never smaller). Pairing: `L[i] ↔ R[i]`;
/// if the left set is larger, its extra last member `L[l−1]` is the
/// `send_only` partner of `R[r−1]` (which gets `extra_in`).
fn levels(me: usize, p: usize) -> Vec<Level> {
    let (mut lo, mut hi) = (0usize, p);
    let mut depth = 0u64;
    let mut out = Vec::new();
    while hi - lo > 1 {
        let mid = lo + (hi - lo).div_ceil(2);
        let lsize = mid - lo;
        let rsize = hi - mid;
        let (level, next_lo, next_hi);
        if me < mid {
            let i = me - lo;
            if i < rsize {
                let extra_in = None;
                level = Level {
                    partner: mid + i,
                    extra_in,
                    send_only: false,
                    olo: mid,
                    ohi: hi,
                    mlo: lo,
                    mhi: mid,
                    depth,
                };
            } else {
                // The unpaired extra of the (larger) left set.
                level = Level {
                    partner: mid + rsize - 1,
                    extra_in: None,
                    send_only: true,
                    olo: mid,
                    ohi: hi,
                    mlo: lo,
                    mhi: mid,
                    depth,
                };
            }
            next_lo = lo;
            next_hi = mid;
        } else {
            let j = me - mid;
            let extra_in = (j == rsize - 1 && lsize > rsize).then(|| lo + lsize - 1);
            level = Level {
                partner: lo + j,
                extra_in,
                send_only: false,
                olo: lo,
                ohi: mid,
                mlo: mid,
                mhi: hi,
                depth,
            };
            next_lo = mid;
            next_hi = hi;
        }
        out.push(level);
        lo = next_lo;
        hi = next_hi;
        depth += 1;
    }
    out
}

/// Send a copy of `words`, in a buffer of capacity `cap` from the
/// sender's workspace (the receiver hands it to its own with
/// [`qr3d_machine::Workspace::reclaim`]).
fn send_copy(rank: &mut Rank, comm: &Comm, dst: usize, tag: u64, words: &[f64], cap: usize) {
    let mut msg = rank.workspace().take_empty(cap);
    msg.extend_from_slice(words);
    rank.send(comm, dst, tag, msg)
}

/// The largest message, on any rank, of an exchange over blocks of
/// `sizes` words: every message carries one set of the recursion, and
/// the two top-level sets hold all the others.
///
/// Every message of an exchange takes at least this capacity, so a
/// buffer a rank receives can carry any message it sends when the same
/// exchange repeats. A caller whose exchanges run on several
/// communicators at once (the fibers of a 3D multiply) passes the
/// largest of theirs as `min_cap`, so a buffer that moves between those
/// communicators fits too.
pub fn message_cap(sizes: &[usize]) -> usize {
    let mid = sizes.len().div_ceil(2);
    let top: usize = sizes[..mid].iter().sum();
    top.max(sizes[mid..].iter().sum())
}

/// [`reduce_scatter_flat`] on a borrowed accumulator: returns the range
/// of `buf` that holds this rank's reduced block. Every message buffer
/// has capacity at least `min_cap` (see [`message_cap`]).
pub fn reduce_scatter_in_place(
    rank: &mut Rank,
    comm: &Comm,
    buf: &mut [f64],
    sizes: &[usize],
    min_cap: usize,
) -> Range<usize> {
    let p = comm.size();
    let me = comm.rank();
    assert_eq!(sizes.len(), p, "reduce_scatter: one size per rank");
    let off = prefix_offsets(sizes);
    assert_eq!(buf.len(), off[p], "reduce_scatter: buffer/sizes mismatch");
    let op = comm.next_op();
    let cap = min_cap.max(message_cap(sizes));

    for lv in levels(me, p) {
        // Send everything destined for the opposite set to my partner.
        let tag = tag_of(op, lv.depth);
        let theirs = &buf[off[lv.olo]..off[lv.ohi]];
        send_copy(rank, comm, lv.partner, tag, theirs, cap);
        // Receive and fold contributions for my set, in place.
        let fold = |rank: &mut Rank, buf: &mut [f64], src: usize| {
            let payload = rank.recv(comm, src, tag);
            let mine = &mut buf[off[lv.mlo]..off[lv.mhi]];
            assert_eq!(
                payload.len(),
                mine.len(),
                "reduce_scatter: payload size mismatch"
            );
            for (a, b) in mine.iter_mut().zip(payload.iter()) {
                *a += b;
            }
            rank.charge_flops(payload.len() as f64);
            rank.workspace().reclaim(payload);
        };
        if !lv.send_only {
            fold(rank, buf, lv.partner);
        }
        if let Some(extra) = lv.extra_in {
            fold(rank, buf, extra);
        }
    }
    off[me]..off[me + 1]
}

/// Bidirectional-exchange **reduce-scatter** on a flat buffer: `buf`
/// holds one block per destination rank, concatenated in local-rank
/// order (`sizes[i]` words for rank `i`); blocks are summed entrywise
/// across ranks and rank `i` ends with the fully reduced block `i`.
///
/// The buffer is the accumulator: incoming contributions are folded into
/// it in place, and each level sends one contiguous range of it.
pub fn reduce_scatter_flat(
    rank: &mut Rank,
    comm: &Comm,
    mut buf: Vec<f64>,
    sizes: &[usize],
) -> Vec<f64> {
    let mine = reduce_scatter_in_place(rank, comm, &mut buf, sizes, 0);
    buf[mine].to_vec()
}

/// [`reduce_scatter_flat`] with per-destination blocks (compatibility
/// surface: concatenates once, then runs flat).
pub fn reduce_scatter(
    rank: &mut Rank,
    comm: &Comm,
    blocks: Vec<Vec<f64>>,
    sizes: &[usize],
) -> Vec<f64> {
    let p = comm.size();
    assert_eq!(blocks.len(), p, "reduce_scatter: one block per rank");
    for (i, b) in blocks.iter().enumerate() {
        assert_eq!(b.len(), sizes[i], "reduce_scatter: block {i} size mismatch");
    }
    let buf = blocks.concat();
    reduce_scatter_flat(rank, comm, buf, sizes)
}

/// [`all_gather_flat`] into a caller's buffer of `Σ sizes` words. Every
/// message buffer has capacity at least `min_cap` (see [`message_cap`]).
pub fn all_gather_into(
    rank: &mut Rank,
    comm: &Comm,
    block: &[f64],
    sizes: &[usize],
    buf: &mut [f64],
    min_cap: usize,
) {
    let p = comm.size();
    let me = comm.rank();
    assert_eq!(sizes.len(), p, "all_gather: one size per rank");
    assert_eq!(
        block.len(),
        sizes[me],
        "all_gather: own block size mismatch"
    );
    let off = prefix_offsets(sizes);
    assert_eq!(buf.len(), off[p], "all_gather: buffer/sizes mismatch");
    buf[off[me]..off[me + 1]].copy_from_slice(block);
    let op = comm.next_op();
    let cap = min_cap.max(message_cap(sizes));

    // Head recursion: exchanges happen deepest level first. Roles are the
    // exact reverse of reduce-scatter: the send_only rank becomes
    // receive-only, and the rank with extra_in sends to both partners.
    for lv in levels(me, p).into_iter().rev() {
        let tag = tag_of(op, lv.depth);
        // Send all blocks of my set to my partner(s) — unless I'm the
        // reverse-direction "receive only" extra.
        if !lv.send_only {
            let set = &buf[off[lv.mlo]..off[lv.mhi]];
            send_copy(rank, comm, lv.partner, tag, set, cap);
            if let Some(extra) = lv.extra_in {
                send_copy(rank, comm, extra, tag, set, cap);
            }
        }
        // Receive the opposite set's blocks straight into place.
        let payload = rank.recv(comm, lv.partner, tag);
        let theirs = &mut buf[off[lv.olo]..off[lv.ohi]];
        assert_eq!(
            theirs.len(),
            payload.len(),
            "all_gather: payload size mismatch"
        );
        theirs.copy_from_slice(&payload);
        rank.workspace().reclaim(payload);
    }
}

/// Bidirectional-exchange **all-gather** on a flat buffer: every rank
/// contributes `block` (of size `sizes[rank]`); every rank ends with all
/// blocks concatenated in local-rank order.
///
/// Each incoming range is copied straight to its final offset; nothing
/// is assembled per level.
pub fn all_gather_flat(rank: &mut Rank, comm: &Comm, block: &[f64], sizes: &[usize]) -> Vec<f64> {
    let mut buf = vec![0.0; sizes.iter().sum()];
    all_gather_into(rank, comm, block, sizes, &mut buf, 0);
    buf
}

/// [`all_gather_flat`] with a per-block result (compatibility surface:
/// splits the flat buffer once at the end).
pub fn all_gather(rank: &mut Rank, comm: &Comm, block: Vec<f64>, sizes: &[usize]) -> Vec<Vec<f64>> {
    let flat = all_gather_flat(rank, comm, &block, sizes);
    let off = prefix_offsets(sizes);
    (0..comm.size())
        .map(|i| flat[off[i]..off[i + 1]].to_vec())
        .collect()
}

/// Bidirectional-exchange **broadcast** (scatter + all-gather): `O(B + P)`
/// words — cheaper than the binomial tree's `B log P` for large blocks.
/// The chunking into `⌈B/P⌉` pieces is pure index arithmetic on the flat
/// buffer; no chunk is materialized.
pub fn broadcast_bidir(
    rank: &mut Rank,
    comm: &Comm,
    root: usize,
    data: Option<Vec<f64>>,
    size: usize,
) -> Payload {
    let p = comm.size();
    let chunk_sizes = chunk_sizes(size, p);
    let chunks = data.map(|d| {
        assert_eq!(d.len(), size, "broadcast: size mismatch");
        split_chunks(&d, &chunk_sizes)
    });
    let mine = scatter(rank, comm, root, chunks, &chunk_sizes);
    Payload::new(all_gather_flat(rank, comm, &mine, &chunk_sizes))
}

/// Bidirectional-exchange **reduce** (reduce-scatter + gather): `O(B + P)`
/// words and flops.
pub fn reduce_bidir(rank: &mut Rank, comm: &Comm, root: usize, data: Vec<f64>) -> Option<Vec<f64>> {
    let p = comm.size();
    let chunk_sizes = chunk_sizes(data.len(), p);
    let mine = reduce_scatter_flat(rank, comm, data, &chunk_sizes);
    gather(rank, comm, root, &mine, &chunk_sizes)
}

/// Bidirectional-exchange **all-reduce** (reduce-scatter + all-gather).
pub fn all_reduce_bidir(rank: &mut Rank, comm: &Comm, data: Vec<f64>) -> Vec<f64> {
    let p = comm.size();
    let chunk_sizes = chunk_sizes(data.len(), p);
    let mine = reduce_scatter_flat(rank, comm, data, &chunk_sizes);
    all_gather_flat(rank, comm, &mine, &chunk_sizes)
}

/// Recursive-doubling (butterfly) **all-reduce**: `log P` exchange rounds
/// of the *whole* block — `B log P` words but only `log P` messages on
/// every rank's path, versus `2 log P` for the reduce + broadcast
/// composition. This is the latency-optimal variant for small blocks
/// (e.g. the replicated `n × n` Gram matrices of CholeskyQR2, where
/// `B = n² ≪ P·n²/log P`).
///
/// Non-powers of two fold the top `P − 2^⌊log P⌋` ranks into their
/// counterparts before the butterfly and unfold after (+2 messages on
/// those ranks only).
///
/// Every rank returns the **bitwise-identical** result: each butterfly
/// level combines the same two subtree sums on both partners (in opposite
/// operand order, and IEEE addition is commutative), so replicated
/// decisions taken on the result — like CholeskyQR2's Cholesky breakdown
/// test — cannot diverge across ranks.
pub fn all_reduce_doubling(rank: &mut Rank, comm: &Comm, data: Vec<f64>) -> Vec<f64> {
    let p = comm.size();
    let me = comm.rank();
    if p <= 1 {
        return data;
    }
    let op = comm.next_op();
    let b = data.len();
    // Largest power of two ≤ p; ranks ≥ p2 fold into me − p2 first.
    let p2 = 1usize << (usize::BITS - 1 - p.leading_zeros());
    let extra = p - p2;
    const FOLD: u64 = 0;
    const UNFOLD: u64 = 63;

    if me >= p2 {
        rank.send(comm, me - p2, tag_of(op, FOLD), data);
        return rank.recv(comm, me - p2, tag_of(op, UNFOLD)).into_vec();
    }

    let mut acc = data;
    if me < extra {
        let incoming = rank.recv(comm, me + p2, tag_of(op, FOLD));
        assert_eq!(incoming.len(), b, "all-reduce: length mismatch");
        for (a, v) in acc.iter_mut().zip(incoming.iter()) {
            *a += v;
        }
        rank.charge_flops(b as f64);
    }

    let mut bit = 1usize;
    let mut level = 1u64;
    while bit < p2 {
        let own = Payload::new(acc);
        let incoming = rank.sendrecv(comm, me ^ bit, tag_of(op, level), &own);
        assert_eq!(incoming.len(), b, "all-reduce: length mismatch");
        acc = own
            .iter()
            .zip(incoming.iter())
            .map(|(a, v)| a + v)
            .collect();
        rank.charge_flops(b as f64);
        bit <<= 1;
        level += 1;
    }

    if me < extra {
        rank.send(comm, me + p2, tag_of(op, UNFOLD), &acc);
    }
    acc
}

/// Balanced chunk sizes for splitting a block of `size` words into `p`
/// pieces ("splitting the original blocks into new blocks of size at most
/// ⌈B/P⌉").
fn chunk_sizes(size: usize, p: usize) -> Vec<usize> {
    let q = size / p;
    let r = size % p;
    (0..p).map(|i| if i < r { q + 1 } else { q }).collect()
}

fn split_chunks(data: &[f64], sizes: &[usize]) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(sizes.len());
    let mut off = 0;
    for &s in sizes {
        out.push(data[off..off + s].to_vec());
        off += s;
    }
    assert_eq!(off, data.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr3d_machine::{CostParams, Machine};

    fn machine(p: usize) -> Machine {
        Machine::new(p, CostParams::unit())
    }

    #[test]
    fn reduce_scatter_sums_per_destination() {
        for p in [1usize, 2, 3, 5, 8, 11] {
            let sizes: Vec<usize> = (0..p).map(|i| 1 + (i % 3)).collect();
            let sz = sizes.clone();
            let out = machine(p).run(move |rank| {
                let w = rank.world();
                // Rank s contributes value (s+1) to every destination block.
                let blocks: Vec<Vec<f64>> =
                    (0..p).map(|d| vec![(w.rank() + 1) as f64; sz[d]]).collect();
                reduce_scatter(rank, &w, blocks, &sz)
            });
            let total: f64 = (1..=p).map(|x| x as f64).sum();
            for (d, b) in out.results.iter().enumerate() {
                assert_eq!(b, &vec![total; sizes[d]], "p={p} dest={d}");
            }
        }
    }

    #[test]
    fn reduce_scatter_flat_matches_blocked_form() {
        let p = 5;
        let sizes = vec![2usize, 1, 0, 3, 2];
        let sz = sizes.clone();
        let out = machine(p).run(move |rank| {
            let w = rank.world();
            let me = w.rank();
            let buf: Vec<f64> = (0..sz.iter().sum::<usize>())
                .map(|k| (me * 100 + k) as f64)
                .collect();
            reduce_scatter_flat(rank, &w, buf, &sz)
        });
        let total_ranks: f64 = (0..p).map(|r| (r * 100) as f64).sum();
        let off = prefix_offsets(&sizes);
        for (d, b) in out.results.iter().enumerate() {
            let expect: Vec<f64> = (off[d]..off[d + 1])
                .map(|k| total_ranks + (p * k) as f64)
                .collect();
            assert_eq!(b, &expect, "dest {d}");
        }
    }

    #[test]
    fn reduce_scatter_zero_blocks() {
        let p = 4;
        let sizes = vec![0, 2, 0, 1];
        let sz = sizes.clone();
        let out = machine(p).run(move |rank| {
            let w = rank.world();
            let blocks: Vec<Vec<f64>> = sz.iter().map(|&s| vec![1.0; s]).collect();
            reduce_scatter(rank, &w, blocks, &sz)
        });
        assert_eq!(out.results[0], Vec::<f64>::new());
        assert_eq!(out.results[1], vec![4.0, 4.0]);
        assert_eq!(out.results[3], vec![4.0]);
    }

    #[test]
    fn all_gather_delivers_everything_everywhere() {
        for p in [1usize, 2, 3, 6, 9] {
            let sizes: Vec<usize> = (0..p).map(|i| i % 4).collect();
            let sz = sizes.clone();
            let out = machine(p).run(move |rank| {
                let w = rank.world();
                let mine = vec![w.rank() as f64; sz[w.rank()]];
                all_gather(rank, &w, mine, &sz)
            });
            for res in &out.results {
                for (i, b) in res.iter().enumerate() {
                    assert_eq!(b, &vec![i as f64; sizes[i]], "p={p}");
                }
            }
        }
    }

    #[test]
    fn all_gather_flat_is_rank_ordered() {
        let p = 7;
        let sizes: Vec<usize> = (0..p).map(|i| 1 + i % 3).collect();
        let off = prefix_offsets(&sizes);
        let sz = sizes.clone();
        let out = machine(p).run(move |rank| {
            let w = rank.world();
            let mine = vec![w.rank() as f64; sz[w.rank()]];
            all_gather_flat(rank, &w, &mine, &sz)
        });
        for res in &out.results {
            for i in 0..p {
                assert_eq!(&res[off[i]..off[i + 1]], &vec![i as f64; sizes[i]][..]);
            }
        }
    }

    #[test]
    fn bidir_broadcast_correct_and_cheap() {
        for p in [2usize, 4, 7, 16] {
            let b = 256;
            let out = machine(p).run(move |rank| {
                let w = rank.world();
                let data = (w.rank() == 1).then(|| (0..b).map(|i| i as f64).collect::<Vec<_>>());
                broadcast_bidir(rank, &w, 1, data, b)
            });
            let expect: Vec<f64> = (0..b).map(|i| i as f64).collect();
            assert!(out.results.iter().all(|r| r == &expect), "p={p}");
            // Bandwidth: O(B + P), not B log P. Allow generous constants.
            let c = out.stats.critical();
            assert!(
                c.words <= 6.0 * (b + p) as f64,
                "p={p}: bidir broadcast W={} should be O(B+P)",
                c.words
            );
        }
    }

    #[test]
    fn bidir_beats_binomial_bandwidth_for_large_blocks() {
        use crate::binomial::broadcast_binomial;
        let p = 16;
        let b = 4096;
        let bidir = machine(p).run(move |rank| {
            let w = rank.world();
            let data = (w.rank() == 0).then(|| vec![1.0; b]);
            broadcast_bidir(rank, &w, 0, data, b)
        });
        let binom = machine(p).run(move |rank| {
            let w = rank.world();
            let data = (w.rank() == 0).then(|| vec![1.0; b]);
            broadcast_binomial(rank, &w, 0, data, b)
        });
        assert!(
            bidir.stats.critical().words < binom.stats.critical().words / 1.5,
            "bidir W={} should clearly beat binomial W={}",
            bidir.stats.critical().words,
            binom.stats.critical().words
        );
        // ... at the cost of more messages.
        assert!(bidir.stats.critical().msgs >= binom.stats.critical().msgs);
    }

    #[test]
    fn bidir_reduce_sums_to_root() {
        for p in [1usize, 3, 8, 10] {
            let root = p - 1;
            let b = 40;
            let out = machine(p).run(move |rank| {
                let w = rank.world();
                reduce_bidir(rank, &w, root, vec![(rank.id() + 1) as f64; b])
            });
            let total: f64 = (1..=p).map(|x| x as f64).sum();
            for (r, res) in out.results.iter().enumerate() {
                if r == root {
                    assert_eq!(res.as_ref().unwrap(), &vec![total; b], "p={p}");
                } else {
                    assert!(res.is_none());
                }
            }
        }
    }

    #[test]
    fn bidir_all_reduce_everyone_gets_sum() {
        for p in [1usize, 2, 5, 8] {
            let b = 33;
            let out = machine(p).run(move |rank| {
                let w = rank.world();
                all_reduce_bidir(rank, &w, vec![(rank.id() + 1) as f64; b])
            });
            let total: f64 = (1..=p).map(|x| x as f64).sum();
            assert!(out.results.iter().all(|r| r == &vec![total; b]), "p={p}");
        }
    }

    #[test]
    fn all_reduce_bidir_bandwidth_is_linear_in_block() {
        // W = O(B + P) per Table 1 (Equation 21), vs binomial's B log P.
        let p = 16;
        let b = 2048;
        let out = machine(p).run(move |rank| {
            let w = rank.world();
            all_reduce_bidir(rank, &w, vec![1.0; b])
        });
        let c = out.stats.critical();
        assert!(c.words <= 8.0 * (b + p) as f64, "W={} not O(B+P)", c.words);
        // flops: (P−1)/P·B per endpoint ≈ B on the path, definitely ≤ 4B.
        assert!(c.flops <= 4.0 * b as f64, "F={} not O(B)", c.flops);
    }

    #[test]
    fn reduce_scatter_charges_total_adds() {
        // Total adds across ranks = (P−1)·ΣB (each contribution folded once).
        let p = 4;
        let b = 8;
        let sizes = vec![b; p];
        let out = machine(p).run(move |rank| {
            let w = rank.world();
            let blocks: Vec<Vec<f64>> = (0..p).map(|_| vec![1.0; b]).collect();
            reduce_scatter(rank, &w, blocks, &sizes)
        });
        assert_eq!(out.stats.total_flops(), ((p - 1) * p * b) as f64);
    }

    #[test]
    fn chunking_is_exact() {
        assert_eq!(chunk_sizes(10, 3), vec![4, 3, 3]);
        assert_eq!(chunk_sizes(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(chunk_sizes(0, 2), vec![0, 0]);
        let d: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let c = split_chunks(&d, &chunk_sizes(10, 3));
        assert_eq!(c.concat(), d);
    }

    #[test]
    fn doubling_all_reduce_sums_any_p() {
        for p in [1usize, 2, 3, 5, 6, 8, 13] {
            let out = machine(p).run(|rank| {
                let w = rank.world();
                all_reduce_doubling(rank, &w, vec![1.0, rank.id() as f64])
            });
            let s = (p * (p - 1) / 2) as f64;
            assert!(out.results.iter().all(|r| r == &vec![p as f64, s]), "p={p}");
        }
    }

    #[test]
    fn doubling_all_reduce_is_bitwise_replicated() {
        // The CholeskyQR2 contract: every rank must see the *identical*
        // floats, so a replicated breakdown test cannot diverge. Use
        // irrational-ish values whose sum order would matter if the
        // butterfly combined different groupings.
        for p in [3usize, 7, 8, 12] {
            let out = machine(p).run(|rank| {
                let w = rank.world();
                let x = (rank.id() as f64 + 1.0).sqrt() * 1e-3;
                all_reduce_doubling(rank, &w, vec![x, 1.0 / (x + 0.1)])
            });
            let first = &out.results[0];
            for (r, res) in out.results.iter().enumerate() {
                assert_eq!(
                    res.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "p={p} rank {r} diverged"
                );
            }
        }
    }

    #[test]
    fn doubling_all_reduce_halves_binomial_latency() {
        // Butterfly: ~2·log₂P messages on the critical path (send+recv at
        // both endpoints), vs ~4·log₂P for binomial reduce + broadcast.
        use crate::binomial::all_reduce_binomial;
        let p = 16;
        let out_d = machine(p).run(|rank| {
            let w = rank.world();
            all_reduce_doubling(rank, &w, vec![1.0; 4])
        });
        let out_b = machine(p).run(|rank| {
            let w = rank.world();
            all_reduce_binomial(rank, &w, vec![1.0; 4])
        });
        let (sd, sb) = (out_d.stats.critical().msgs, out_b.stats.critical().msgs);
        assert!(
            sd <= 0.7 * sb,
            "doubling S={sd} should clearly beat binomial S={sb}"
        );
        let lg = (p as f64).log2();
        assert!(sd <= 2.0 * lg + 2.0, "S={sd} not O(log P)");
    }

    #[test]
    fn doubling_all_reduce_empty_block() {
        let out = machine(4).run(|rank| {
            let w = rank.world();
            all_reduce_doubling(rank, &w, Vec::new())
        });
        assert!(out.results.iter().all(|r| r.is_empty()));
    }
}
