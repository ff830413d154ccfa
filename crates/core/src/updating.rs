//! Streaming / updating QR: absorb row blocks as they arrive instead of
//! re-factoring the growing matrix from scratch.
//!
//! ## The merge-tree view
//!
//! TSQR is a binary merge tree over row blocks (the engine in
//! `tree.rs`), and nothing forces the whole tree to run at once — an
//! [`UpdatingQr`] grows it *incrementally*, one appended block at a time:
//!
//! * **Per append**: the new `b × n` block runs the engine's upsweep on
//!   the warm executor (a real distributed job, charged on the machine
//!   clocks), yielding one `n × n` R-factor for the block.
//! * **Carry stack**: block-level `R`s combine like a binary counter
//!   (a logarithmic merge / Bentley–Saxe scheme): each append's `R`
//!   enters at height 0, and equal-height neighbours merge — rank 0
//!   re-factors `[R_older; R_newer]` — so after `k` appends the stack
//!   holds at most `⌈log₂ k⌉ + 1` entries and each block's data has
//!   been touched `O(log k)` times, not `O(k)`.
//! * **[`UpdatingQr::finish`]**: the engine's downsweep runs host-side
//!   through the recorded Q-factors — the carry merges first, then each
//!   append's own tree from the block those deliver to it — and TSQR's
//!   reconstruction yields the explicit thin `Q` and sign-fixed `R` of
//!   the *concatenated* matrix.
//!
//! ## Bitwise equivalence
//!
//! Every merge is the same `geqrt` a one-shot TSQR would run on the
//! same operands, so the whole streaming computation is a one-shot TSQR
//! whose tree was built lazily. Concretely: with `k` and `P` powers of
//! two and equal append sizes `b` divisible by `P`, the streamed tree
//! *coincides node-for-node* with the binomial tree of a one-shot
//! [`crate::session::Session::factor`] over `k·P` ranks on the
//! concatenated matrix (each one-shot rank owns `b/P` rows — exactly
//! one streaming leaf), and the factors, `R`, and applied `Q` are
//! **bitwise identical**. Other shapes still produce a valid TSQR
//! factorization (any binary merge tree is), just over a differently
//! shaped tree.
//!
//! Cost per append is modelled by `qr3d_cost::algorithms::update_cost`:
//! a TSQR sweep of the new block plus an amortized-`O(1)` carry merge —
//! versus re-factoring, which re-pays the *entire* accumulated matrix
//! every time.
//!
//! ```
//! use qr3d_core::prelude::*;
//! use qr3d_machine::CostParams;
//! use qr3d_matrix::Matrix;
//!
//! let mut session = Session::new(2, FactorParams::new(CostParams::unit()));
//! let mut upd = UpdatingQr::new();
//! for seed in 0..4u64 {
//!     upd.append_rows(&mut session, &Matrix::random(8, 3, seed));
//! }
//! let out = upd.finish(&mut session);
//! assert_eq!(out.q.rows(), 32);
//! assert!(out.r.is_upper_triangular(1e-14));
//! ```

use qr3d_collectives::tree::binomial_frames;
use qr3d_cost::advisor::tall_skinny_admissible;
use qr3d_machine::Clock;
use qr3d_matrix::layout::BlockRow;
use qr3d_matrix::pivot::{detected_rank, rank_tolerance};
use qr3d_matrix::qr::thin_q_blocks;
use qr3d_matrix::scratch::LocalArena;
use qr3d_matrix::Matrix;

use crate::backend::{FactorOutput, QrBackend};
use crate::session::Session;
use crate::tree::{self, Host, Live, Node, Wy};
use crate::tsqr::{finish_root, reconstruct_root, solve_v_rows};

/// One recorded merge of two *block-level* `R`s (a carry-stack merge):
/// the Q-factor of `[R_older; R_newer]`, rooted at the older side's
/// append. `other` is the newer side's root append — where the
/// downsweep's bottom half gets delivered.
#[derive(Debug)]
struct CrossFactor {
    other: usize,
    q: Wy,
}

/// Everything [`UpdatingQr::finish`] needs to replay one append's
/// subtree.
#[derive(Debug)]
struct AppendState {
    /// Per rank, what the append's upsweep left for the downsweep.
    nodes: Vec<Node>,
    /// Cross merges whose older side is rooted at this append, in
    /// creation order (deepest first — later merges sit closer to the
    /// global root).
    cross: Vec<CrossFactor>,
}

/// A carry-stack entry: the `R` of a contiguous run of appends, rooted
/// at the run's oldest append.
#[derive(Debug)]
struct CarryEntry {
    /// Merge height: a fresh append is 0; merging two height-`h`
    /// entries makes height `h + 1`. Strictly increasing from the top
    /// of the stack down.
    height: u32,
    /// The oldest append in the run (where the downsweep restarts).
    root: usize,
    r: Matrix,
}

/// An incrementally grown QR factorization — see the module docs.
/// Append with [`UpdatingQr::append_rows`] (each append is one warm
/// executor job), read the running `R` with [`UpdatingQr::r`], and
/// close with [`UpdatingQr::finish`] for the explicit factors of the
/// concatenated matrix.
#[derive(Debug, Default)]
pub struct UpdatingQr {
    n: usize,
    p: usize,
    total_rows: usize,
    appends: Vec<AppendState>,
    carry: Vec<CarryEntry>,
    critical: Clock,
}

impl UpdatingQr {
    /// An empty updating factorization. The first
    /// [`UpdatingQr::append_rows`] fixes the column count `n` and the
    /// rank count `P` (from the session it runs on).
    pub fn new() -> UpdatingQr {
        UpdatingQr::default()
    }

    /// Rows absorbed so far.
    pub fn rows(&self) -> usize {
        self.total_rows
    }

    /// Columns (0 before the first append).
    pub fn cols(&self) -> usize {
        self.n
    }

    /// How many blocks have been appended.
    pub fn appends(&self) -> usize {
        self.appends.len()
    }

    /// The accumulated critical-path clock of every append job so far
    /// (appends are sequentially dependent, so clocks add).
    pub fn critical(&self) -> Clock {
        self.critical
    }

    /// The current `R`-factor of everything appended, when the carry
    /// stack has fully merged (always true after a power-of-two number
    /// of equal appends; call [`UpdatingQr::finish`] for the general
    /// case). Sign convention: this is the upsweep's `R` — `finish`
    /// flips row signs to match the reconstructed Householder `Q`, as
    /// TSQR's reconstruction does.
    pub fn r(&self) -> Option<&Matrix> {
        match &self.carry[..] {
            [only] => Some(&only.r),
            _ => None,
        }
    }

    /// Absorb a `b × n` block of new rows: one warm executor job runs
    /// TSQR phases 0–1 on the block (`P` leaf QRs + binomial upsweep),
    /// then rank 0 folds the block's `R` into the carry stack. Charged
    /// on the session's machine clocks; the model-side price is
    /// `qr3d_cost::algorithms::update_cost`.
    ///
    /// # Panics
    /// If the block's column count differs from earlier appends, the
    /// session's rank count changed, or `b < n·P` (every rank needs at
    /// least `n` rows of the block — the same aspect gate as TSQR).
    pub fn append_rows(&mut self, session: &mut Session, block: &Matrix) {
        let p = session.procs();
        let (b, n) = (block.rows(), block.cols());
        if self.appends.is_empty() {
            assert!(n >= 1, "append_rows: need at least one column");
            self.n = n;
            self.p = p;
        } else {
            assert_eq!(
                n, self.n,
                "append_rows: block has {n} columns, stream has {}",
                self.n
            );
            assert_eq!(
                p, self.p,
                "append_rows: session has {p} ranks, stream started with {}",
                self.p
            );
        }
        assert!(
            tall_skinny_admissible(b, n, p),
            "append_rows: every rank needs ≥ n rows of the block \
             (b = {b}, n = {n}, P = {p})"
        );
        let a = self.appends.len();

        // Which carry entries this append will merge with: a binary
        // counter — the top of the stack for as long as each entry has
        // the height the merged one would enter at.
        let tops = self.carry.iter().rev().zip(0u32..);
        let carry_rs: Vec<Matrix> = tops
            .take_while(|(entry, h)| entry.height == *h)
            .map(|(entry, _)| entry.r.clone())
            .collect();

        let lay = BlockRow::balanced(b, 1, p);
        let starts = lay.starts();
        let out = session.run(|rank| {
            let w = rank.world();
            let me = w.rank();
            let mut io = Live::new(rank, &w);
            let a_loc = block.block(starts[me], starts[me + 1], 0, n);
            let frames = binomial_frames(me, w.size(), 0);
            let Ok(mut nodes) = tree::upsweep(&mut io, &frames, me, &[a_loc]);
            let mut node = nodes.pop().expect("one problem in, one node out");
            let cross = if me == 0 {
                fold_carry(&mut io, &carry_rs, &mut node.r)
            } else {
                Vec::new()
            };
            (node, cross)
        });
        self.critical.merge_sum(&out.stats.critical());

        // Host-side bookkeeping: store the append's replay state and
        // update the carry stack.
        let (mut nodes, mut crosses): (Vec<Node>, Vec<Vec<Wy>>) = out.results.into_iter().unzip();
        let r_final = std::mem::replace(&mut nodes[0].r, Matrix::zeros(0, 0));
        self.appends.push(AppendState {
            nodes,
            cross: Vec::new(),
        });

        self.push_merged(a, crosses.swap_remove(0), r_final);
        self.total_rows += b;
    }

    /// Merge any remaining carry entries down to one (top-down), as one
    /// rank-0 job on the warm executor. A no-op after a power-of-two
    /// number of equal appends.
    fn collapse(&mut self, session: &mut Session) {
        if self.carry.len() <= 1 {
            return;
        }
        let top = self.carry.pop().expect("len > 1");
        let olders: Vec<Matrix> = self.carry.iter().rev().map(|e| e.r.clone()).collect();
        let out = session.run(|rank| {
            let w = rank.world();
            let mut io = Live::new(rank, &w);
            (w.rank() == 0).then(|| {
                let mut r = top.r.clone();
                (fold_carry(&mut io, &olders, &mut r), r)
            })
        });
        self.critical.merge_sum(&out.stats.critical());
        let (factors, r) = out
            .results
            .into_iter()
            .next()
            .flatten()
            .expect("rank 0 result");
        self.push_merged(top.root, factors, r);
    }

    /// Replace the top `factors.len()` carry entries by the run that
    /// absorbed them: the newest run, rooted at append `newest`, merged
    /// under each of them in turn (top of the stack first, by
    /// [`fold_carry`]) down to `r`. Each merge is recorded at its older
    /// side's root append, where the downsweep will split it.
    fn push_merged(&mut self, newest: usize, factors: Vec<Wy>, r: Matrix) {
        let height = factors.len() as u32;
        let absorbed = self.carry.split_off(self.carry.len() - factors.len());
        let mut root = newest;
        for (q, older) in factors.into_iter().zip(absorbed.iter().rev()) {
            let cross = CrossFactor { other: root, q };
            self.appends[older.root].cross.push(cross);
            root = older.root;
        }
        self.carry.push(CarryEntry { height, root, r });
    }

    /// Close the stream: merge any unmerged carry entries (one last
    /// executor job), then replay the recorded tree's downsweep and
    /// Householder reconstruction host-side — the same uncharged
    /// host-side assembly `Session::factor` performs — yielding the
    /// explicit thin `Q` and sign-fixed `R` of the concatenated matrix.
    ///
    /// For power-of-two `k` equal appends (see the module docs) the
    /// result is bitwise identical to a one-shot
    /// [`Session::factor`] over `k·P` ranks.
    ///
    /// # Panics
    /// If nothing was appended.
    pub fn finish(mut self, session: &mut Session) -> FactorOutput {
        assert!(!self.appends.is_empty(), "finish: nothing was appended");
        self.collapse(session);
        let (n, p, m) = (self.n, self.p, self.total_rows);
        let k = self.appends.len();
        debug_assert_eq!(self.carry.len(), 1);
        debug_assert_eq!(self.carry[0].root, 0);

        // ---- Downsweep over the cross (block-level) tree: the global
        // root starts at I_n; every cross factor splits its block into
        // a top half (stays at the older root) and a bottom half
        // (delivered to the newer side's root). Roots only ever deliver
        // forward (older → newer), so ascending append order works. ----
        let mut arena = LocalArena::new();
        let mut host = Host::new(&mut arena);
        let mut b_append: Vec<Option<Matrix>> = (0..k).map(|_| None).collect();
        b_append[0] = Some(Matrix::identity(n));
        for a in 0..k {
            // Latest-created cross merges sit closest to the global
            // root: process them first.
            let cross = std::mem::take(&mut self.appends[a].cross);
            for node in cross.iter().rev() {
                let b = b_append[a]
                    .take()
                    .expect("parent delivered this root's block");
                let (kept, sent) = tree::split(&mut host, &node.q, &b);
                b_append[a] = Some(kept);
                b_append[node.other] = Some(sent);
            }
        }

        // ---- Within-append downsweep to every leaf's W, leaves in row
        // order: each append's tree starts from the block the cross tree
        // delivered to it, its positions in the order `Host` asks for. ----
        let leaves = self.appends.iter().flat_map(|st| &st.nodes);
        let mut vs: Vec<Matrix> = leaves.map(|nd| Matrix::zeros(nd.rows(), n)).collect();
        let mut ws = vs.iter_mut();
        for (st, b) in self.appends.iter_mut().zip(b_append) {
            let mut top = Some(vec![b.expect("cross downsweep reached every root")]);
            for (pos, node) in st.nodes.iter_mut().enumerate() {
                let frames = binomial_frames(pos, p, 0);
                let node = std::slice::from_mut(node);
                let w = ws.next().expect("one W per leaf").view_mut();
                let Ok(()) = tree::downsweep(&mut host, &frames, pos, node, top.take(), &mut [w]);
            }
        }

        // ---- Householder reconstruction at the global root leaf (the
        // first), then every other leaf solves its V rows with the
        // shared U — the arithmetic of tsqr's phase 3. ----
        let mut r = self.carry.pop().expect("collapsed carry").r;
        let (root, rest) = vs.split_first_mut().expect("at least one leaf");
        let lu = reconstruct_root(&mut host, root.view(), &mut r);
        finish_root(root.view_mut(), &lu);
        for w in rest {
            solve_v_rows(&mut host, &lu.u, w.view_mut());
        }

        // Q from the leaves' blocks of V as `Session::factor` forms it
        // from its ranks' — a one-shot factorization over k·P ranks has
        // these very blocks, so the two Qs share every multiply's shape.
        let blocks: Vec<&Matrix> = vs.iter().collect();
        let q = thin_q_blocks(&blocks, &lu.t);
        let rank = detected_rank(&r, rank_tolerance(m, n));
        FactorOutput {
            backend: QrBackend::Tsqr,
            q,
            r,
            perm: None,
            detected_rank: rank,
            critical: self.critical,
        }
    }
}

/// Rank 0's carry merges: fold `olders`, top of the stack first, over
/// the newest run's `r`, the older side of every merge on top (as the
/// lower-ranked side is in the upsweep). Returns the merges' Q-factors
/// in that order.
fn fold_carry(io: &mut Live<'_>, olders: &[Matrix], r: &mut Matrix) -> Vec<Wy> {
    let merge = |r_old| {
        let (q, merged) = tree::merge(io, r_old, r);
        *r = merged;
        q
    };
    olders.iter().map(merge).collect()
}

impl Session {
    /// Stream `blocks` through an [`UpdatingQr`] on this session's warm
    /// executor — one append job per block — and return the factors of
    /// the concatenated matrix. See [`UpdatingQr`] for the per-block
    /// contract and the bitwise-equivalence conditions.
    ///
    /// # Panics
    /// If `blocks` is empty, or any block violates the append contract.
    pub fn factor_streaming(&mut self, blocks: &[Matrix]) -> FactorOutput {
        assert!(!blocks.is_empty(), "factor_streaming: no blocks");
        let mut upd = UpdatingQr::new();
        for block in blocks {
            upd.append_rows(self, block);
        }
        upd.finish(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FactorParams;
    use qr3d_machine::CostParams;

    fn unit_params() -> FactorParams {
        FactorParams::new(CostParams::unit())
    }

    fn concat(blocks: &[Matrix]) -> Matrix {
        let mut it = blocks.iter();
        let mut out = it.next().expect("nonempty").clone();
        for b in it {
            out = out.vstack(b);
        }
        out
    }

    #[test]
    fn k_appends_match_oneshot_over_kp_ranks_bitwise() {
        // k = 4 appends of b = 12 rows on P = 2 ranks: the streamed
        // tree coincides with the one-shot binomial tree over
        // k·P = 8 ranks (each one-shot rank owns b/P = 6 rows — one
        // streaming leaf). Factors must match BITWISE.
        let (k, b, n, p) = (4usize, 12usize, 3usize, 2usize);
        let blocks: Vec<Matrix> = (0..k)
            .map(|i| Matrix::random(b, n, 70 + i as u64))
            .collect();

        let mut s = Session::new(p, unit_params());
        let mut upd = UpdatingQr::new();
        for block in &blocks {
            upd.append_rows(&mut s, block);
        }
        assert!(upd.r().is_some(), "power-of-two appends fully merge");
        let streamed = upd.finish(&mut s);

        let mut oneshot_session = Session::new(k * p, unit_params());
        let oneshot = oneshot_session
            .factor(&concat(&blocks), QrBackend::Tsqr)
            .unwrap();

        assert_eq!(streamed.r, oneshot.r, "R must match bitwise");
        assert_eq!(streamed.q, oneshot.q, "applied Q must match bitwise");
        assert_eq!(streamed.detected_rank, oneshot.detected_rank);
    }

    #[test]
    fn single_append_equals_oneshot_same_ranks_bitwise() {
        // k = 1 degenerates to plain TSQR on the same P ranks.
        let (b, n, p) = (32usize, 4usize, 4usize);
        let block = Matrix::random(b, n, 81);
        let mut s = Session::new(p, unit_params());
        let mut upd = UpdatingQr::new();
        upd.append_rows(&mut s, &block);
        let streamed = upd.finish(&mut s);
        let oneshot = s.factor(&block, QrBackend::Tsqr).unwrap();
        assert_eq!(streamed.r, oneshot.r);
        assert_eq!(streamed.q, oneshot.q);
    }

    #[test]
    fn non_power_of_two_appends_still_factor_correctly() {
        // k = 3 appends: the carry stack holds two entries until
        // finish() collapses them. Not bitwise-matched to any one-shot
        // tree, but still a valid TSQR factorization.
        let (k, b, n, p) = (3usize, 10usize, 2usize, 2usize);
        let blocks: Vec<Matrix> = (0..k)
            .map(|i| Matrix::random(b, n, 90 + i as u64))
            .collect();
        let a = concat(&blocks);
        let mut s = Session::new(p, unit_params());
        let mut upd = UpdatingQr::new();
        for block in &blocks {
            upd.append_rows(&mut s, block);
        }
        assert!(upd.r().is_none(), "3 appends leave two carry entries");
        let out = upd.finish(&mut s);
        assert!(out.residual(&a) < 1e-12);
        assert!(out.orthogonality() < 1e-12);
        assert!(out.r.is_upper_triangular(1e-14));
    }

    #[test]
    fn mixed_append_sizes_factor_correctly() {
        let (n, p) = (3usize, 2usize);
        let blocks = [
            Matrix::random(8, n, 1),
            Matrix::random(14, n, 2),
            Matrix::random(6, n, 3),
            Matrix::random(20, n, 4),
        ];
        let a = concat(&blocks);
        let mut s = Session::new(p, unit_params());
        let out = s.factor_streaming(&blocks);
        assert!(out.residual(&a) < 1e-12);
        assert!(out.orthogonality() < 1e-12);
    }

    #[test]
    fn factor_streaming_equals_manual_append_loop_bitwise() {
        let blocks: Vec<Matrix> = (0..2u64).map(|i| Matrix::random(16, 4, 30 + i)).collect();
        let mut s1 = Session::new(2, unit_params());
        let via_convenience = s1.factor_streaming(&blocks);
        let mut s2 = Session::new(2, unit_params());
        let mut upd = UpdatingQr::new();
        for b in &blocks {
            upd.append_rows(&mut s2, b);
        }
        let via_loop = upd.finish(&mut s2);
        assert_eq!(via_convenience.r, via_loop.r);
        assert_eq!(via_convenience.q, via_loop.q);
    }

    #[test]
    fn running_r_satisfies_the_gram_identity() {
        // After 2 (power-of-two) appends the carry-top R is a genuine
        // R-factor of the concatenated matrix: RᵀR = AᵀA.
        let blocks: Vec<Matrix> = (0..2u64).map(|i| Matrix::random(12, 3, 50 + i)).collect();
        let a = concat(&blocks);
        let mut s = Session::new(2, unit_params());
        let mut upd = UpdatingQr::new();
        for b in &blocks {
            upd.append_rows(&mut s, b);
        }
        let r = upd.r().expect("fully merged").clone();
        assert!(crate::verify::r_gram_error(&a, &r) < 1e-12);
    }

    #[test]
    fn appends_charge_the_machine_clocks() {
        let mut s = Session::new(2, unit_params());
        let mut upd = UpdatingQr::new();
        upd.append_rows(&mut s, &Matrix::random(8, 2, 7));
        let after_one = upd.critical();
        assert!(after_one.flops > 0.0, "leaf QRs are charged");
        assert!(after_one.msgs > 0.0, "the upsweep hop is charged");
        upd.append_rows(&mut s, &Matrix::random(8, 2, 8));
        let after_two = upd.critical();
        assert!(after_two.flops > after_one.flops, "appends accumulate");
    }

    #[test]
    #[should_panic(expected = "block has 3 columns")]
    fn append_rejects_column_mismatch() {
        let mut s = Session::new(2, unit_params());
        let mut upd = UpdatingQr::new();
        upd.append_rows(&mut s, &Matrix::random(8, 2, 1));
        upd.append_rows(&mut s, &Matrix::random(8, 3, 2));
    }

    #[test]
    #[should_panic(expected = "every rank needs")]
    fn append_rejects_short_block() {
        let mut s = Session::new(4, unit_params());
        let mut upd = UpdatingQr::new();
        // b = 8 < n·P = 3·4 = 12.
        upd.append_rows(&mut s, &Matrix::random(8, 3, 1));
    }
}
