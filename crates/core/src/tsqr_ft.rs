//! Fault-tolerant TSQR — checksum-coded reduction with exact single-rank
//! recovery.
//!
//! [`tsqr_factor_ft`] runs the same TSQR as
//! [`crate::tsqr::tsqr_factor`] on `P` *compute* ranks, augmented with
//! `c ≥ 1` *spare* ranks (the trailing `c` world ranks) that hold an
//! XOR-parity checksum of the compute ranks' input blocks. If one
//! compute rank is killed at any level of the reduction tree (e.g. by a
//! [`FaultPlan`](qr3d_machine::FaultPlan) on a
//! [`FaultyTransport`](qr3d_machine::FaultyTransport)), the protocol
//! detects the silence, reconstructs the lost rank's *entire state* from
//! the code plus retained messages, and finishes with **bitwise
//! identical** `Q` and `R` factors to the fault-free run.
//!
//! ## Why XOR parity (and not a Reed–Solomon-style real code)
//!
//! The gate is *bitwise* equality. Any erasure code that does floating
//! point arithmetic (sum checksums, Vandermonde combinations) recovers
//! the lost block only up to rounding. XOR over the raw
//! [`f64::to_bits`] patterns is the one single-erasure code whose
//! decode is exact: `A_r = C ⊕ (⊕_{s ≠ r} A_s)` reproduces every bit of
//! the dead rank's input, after which the spare *replays* the rank's
//! deterministic arithmetic and the outputs match to the last ulp.
//! With `c > 1` spares the compute ranks are striped (`r % c`) so each
//! spare codes an independent stripe (still one failure *total*).
//!
//! ## Protocol
//!
//! 1. **Encode** (charged — this is the `tsqr_ft_cost` overhead): each
//!    stripe XOR-reduces its members' input bit patterns to its spare
//!    over a binomial tree, before any tree traffic flows.
//! 2. **Compute**: the sweeps of the engine in `tree.rs`, so
//!    `tsqr_factor`'s arithmetic exactly, with every blocking receive
//!    replaced by a *detecting* receive: poll the expected message,
//!    answer liveness pings, handle recovery control traffic, and —
//!    after a silence window — ping the expected source and declare it
//!    dead if no pong returns.
//! 3. **Detect**: the first rank starved by the dead rank (its tree
//!    parent in the upsweep, or a child in the downsweep) sends a death
//!    notice to the stripe's spare. Survivors that already shipped their
//!    partial `R` to the dead rank retain it (a rank's `R` never changes
//!    after its upsweep send) and re-send it on request.
//! 4. **Recover**: the spare decodes the lost input block and takes
//!    over the dead rank's tree position as a proxy, through the very
//!    function a compute rank runs its own position with; only what the
//!    dead rank had received from its children comes from the retained
//!    messages. Survivors reroute traffic for the dead rank to the
//!    spare. Recovery control traffic is out-of-band (uncharged), so
//!    fault-free charged costs stay deterministic.
//!
//! The single-failure model covers a kill at *any* reduction-tree level
//! (the gated sweep); the encode phase completes before tree traffic by
//! construction, and aux/control tags live above
//! [`AUX_DEPTH_BASE`](qr3d_machine::AUX_DEPTH_BASE) so level-triggered
//! faults only ever fire on real tree messages.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use qr3d_collectives::tree::{binomial_frames, TreeFrame};
use qr3d_machine::{Comm, Payload, Rank};
use qr3d_matrix::scratch::ScratchArena;
use qr3d_matrix::Matrix;

use crate::tree::{self, TreeIo};
use crate::tsqr::{reconstruct, QrFactors};

/// Tuning knobs for [`tsqr_factor_ft`].
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Number of checksum (spare) ranks `c ≥ 1` — the trailing `c`
    /// ranks of the communicator. Compute rank `r` belongs to the
    /// stripe coded by spare `P + (r mod c)`.
    pub spares: usize,
    /// Silence window before probing a quiet peer, and the wait for its
    /// pong. Must exceed the longest local compute burst, or a slow
    /// rank is falsely declared dead. Generous by default; tests with
    /// tiny matrices can shrink it to keep the sweep fast.
    pub detect: Duration,
    /// Poll quantum of the detecting receive loop.
    pub poll: Duration,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            spares: 1,
            detect: Duration::from_millis(250),
            poll: Duration::from_millis(2),
        }
    }
}

/// Per-rank outcome of [`tsqr_factor_ft`].
#[derive(Debug, Clone)]
pub enum FtResult {
    /// A compute rank's factors — identical in content to what
    /// [`crate::tsqr::tsqr_factor`] returns on a `P`-rank machine.
    Compute(QrFactors),
    /// This compute rank was severed by an injected fault and played
    /// dead (exited cleanly instead of panicking into the deadlock
    /// diagnostic).
    Dead,
    /// A spare rank. `recovered` carries `(dead_rank, factors)` when
    /// this spare reconstructed a killed rank's output; `None` after a
    /// fault-free run.
    Spare {
        /// The reconstructed `(rank, factors)` pair, bitwise equal to
        /// what the dead rank would have returned.
        recovered: Option<(usize, QrFactors)>,
    },
}

impl FtResult {
    /// The factors, if this rank produced any (its own or recovered).
    pub fn factors(&self) -> Option<&QrFactors> {
        match self {
            FtResult::Compute(f) => Some(f),
            FtResult::Spare {
                recovered: Some((_, f)),
            } => Some(f),
            _ => None,
        }
    }
}

/// Aux tag kinds — encoded in the tag's depth field at
/// `AUX_DEPTH_BASE + kind`, above every real tree depth, so
/// level-triggered faults never fire on control or encode traffic.
const ENC: u64 = 0; // charged: XOR-parity encode reduction
const UCAST: u64 = 1; // charged: U fan-out over the compute tree
const PING: u64 = 2; // control: liveness probe
const PONG: u64 = 3; // control: probe answer
const NOTICE: u64 = 4; // control: death notice → stripe spare
const REQUEST: u64 = 5; // control: spare asks survivors for state
const RESPONSE: u64 = 6; // control: survivor → spare (input bits + retained R)
const RECORD: u64 = 7; // control: late retained-R delivery to the spare
const DONE: u64 = 8; // control: root → spares, all-clear shutdown
const GO: u64 = 9; // charged: spares release the tree phase post-encode

/// Reinterpret words as raw bit patterns (exact, no arithmetic).
fn to_bits(words: &[f64]) -> Vec<u64> {
    words.iter().map(|w| w.to_bits()).collect()
}

/// Inverse of [`to_bits`]; the payloads these produce are opaque cargo
/// (possibly signalling NaNs) that only ever round-trips through
/// `to_bits` again.
fn from_bits(bits: &[u64]) -> Vec<f64> {
    bits.iter().map(|&b| f64::from_bits(b)).collect()
}

/// Raised by detecting receives on a rank the fault plan severed; the
/// rank unwinds to [`FtResult::Dead`] instead of panicking.
struct Severed;

/// The per-rank protocol state threaded through every phase.
struct Ft {
    comm: Comm,
    /// Compute ranks `0..p`; spares `p..p + c`.
    p: usize,
    c: usize,
    me: usize,
    op: u64,
    detect: Duration,
    poll: Duration,
    /// The one rank (single-failure model) declared or learned dead.
    dead: Option<usize>,
    /// Whether this rank already answered a spare's recovery REQUEST.
    responded: bool,
    /// This rank's upsweep send, retained: `(parent, depth, packed R)`.
    /// A rank's reduced `R` never changes after its upsweep send, so
    /// this is a free message log for recovery.
    sent_up: Option<(usize, u64, Vec<f64>)>,
    /// This rank's input block serialized row-major (for the stripe
    /// decode), plus its shape.
    a_words: Vec<f64>,
    mp: usize,
    n: usize,
}

impl Ft {
    fn aux_tag(&self, kind: u64) -> u64 {
        tree::tag(self.op, qr3d_machine::AUX_DEPTH_BASE + kind, 0)
    }

    /// The spare coding rank `r`'s stripe.
    fn spare_of(&self, r: usize) -> usize {
        self.p + (r % self.c)
    }

    /// Where traffic logically addressed to `r` actually goes.
    fn route(&self, r: usize) -> usize {
        match self.dead {
            Some(d) if d == r => self.spare_of(d),
            _ => r,
        }
    }

    /// Answer pings and handle a spare's recovery REQUEST. Called from
    /// every detecting-receive poll iteration, so a blocked rank stays
    /// responsive to the failure detector and the recovering spare.
    fn service_control(&mut self, rank: &mut Rank) {
        let ping = self.aux_tag(PING);
        let pong = self.aux_tag(PONG);
        for src in 0..self.p + self.c {
            if src == self.me {
                continue;
            }
            while rank
                .try_recv_control(&self.comm, src, ping, Duration::ZERO)
                .is_some()
            {
                rank.send_control(&self.comm, src, pong, &[self.me as f64][..]);
            }
        }
        let req = self.aux_tag(REQUEST);
        for s in self.p..self.p + self.c {
            if let Some(pl) = rank.try_recv_control(&self.comm, s, req, Duration::ZERO) {
                let r = pl.as_slice()[0] as usize;
                if self.dead.is_none() {
                    self.dead = Some(r);
                }
                if !self.responded {
                    self.responded = true;
                    let resp = self.build_response(r);
                    rank.send_control(&self.comm, s, self.aux_tag(RESPONSE), resp);
                }
            }
        }
    }

    /// Survivor → spare state dump: `[has_record, record_depth,
    /// in_stripe, packed R…, input bits…]`.
    fn build_response(&self, dead: usize) -> Vec<f64> {
        let record = match &self.sent_up {
            Some((parent, depth, packed)) if *parent == dead => Some((*depth, packed.clone())),
            _ => None,
        };
        let in_stripe = self.me % self.c == dead % self.c;
        let mut out = vec![
            record.is_some() as u64 as f64,
            record.as_ref().map_or(0, |(d, _)| *d) as f64,
            in_stripe as u64 as f64,
        ];
        if let Some((_, packed)) = record {
            out.extend_from_slice(&packed);
        }
        if in_stripe {
            out.extend_from_slice(&self.a_words);
        }
        out
    }

    /// Ping `suspect`; `true` if it answered within the detect window.
    /// Keeps answering *incoming* pings meanwhile, so two ranks probing
    /// each other cannot mutually starve into false declarations.
    fn probe(&mut self, rank: &mut Rank, suspect: usize) -> bool {
        rank.send_control(
            &self.comm,
            suspect,
            self.aux_tag(PING),
            &[self.me as f64][..],
        );
        let pong = self.aux_tag(PONG);
        let deadline = Instant::now() + self.detect;
        loop {
            if rank
                .try_recv_control(&self.comm, suspect, pong, self.poll)
                .is_some()
            {
                return true;
            }
            self.service_control(rank);
            if self.dead.is_some() {
                // Someone else resolved the failure while we probed.
                return self.dead != Some(suspect);
            }
            if Instant::now() >= deadline {
                return false;
            }
        }
    }

    fn declare_dead(&mut self, rank: &mut Rank, suspect: usize) {
        self.dead = Some(suspect);
        rank.send_control(
            &self.comm,
            self.spare_of(suspect),
            self.aux_tag(NOTICE),
            &[suspect as f64][..],
        );
    }

    /// The detecting receive: a charged receive of `(src, tag)` that
    /// stays responsive to control traffic, reroutes to the spare when
    /// `src` is (or is discovered) dead, and probes `src` after a
    /// silence window. `Err(Severed)` when *this* rank is the one a
    /// fault killed.
    fn recv_tree(&mut self, rank: &mut Rank, src: usize, tag: u64) -> Result<Payload, Severed> {
        let deadline = Instant::now() + rank.recv_window();
        let mut quiet = Instant::now();
        loop {
            let cur = self.route(src);
            if let Some(p) = rank.try_recv(&self.comm, cur, tag, self.poll) {
                return Ok(p);
            }
            if rank.is_severed() {
                return Err(Severed);
            }
            self.service_control(rank);
            if self.dead.is_none() && cur < self.p && quiet.elapsed() >= self.detect {
                if self.probe(rank, cur) {
                    quiet = Instant::now();
                } else {
                    self.declare_dead(rank, cur);
                }
            }
            assert!(
                Instant::now() < deadline,
                "rank {} deadlocked in fault-tolerant receive (src {src}, tag {tag:#x})",
                self.me
            );
        }
    }

    /// Uncharged counterpart of [`Ft::recv_tree`] for control traffic
    /// the spare must block on (notices, responses, late records).
    fn recv_control(&mut self, rank: &mut Rank, src: usize, tag: u64) -> Result<Payload, Severed> {
        let deadline = Instant::now() + rank.recv_window();
        loop {
            if let Some(p) = rank.try_recv_control(&self.comm, src, tag, self.poll) {
                return Ok(p);
            }
            if rank.is_severed() {
                return Err(Severed);
            }
            self.service_control(rank);
            assert!(
                Instant::now() < deadline,
                "rank {} deadlocked waiting for control traffic (src {src}, tag {tag:#x})",
                self.me
            );
        }
    }
}

/// Fault-tolerant TSQR over a communicator of `P + c` ranks: the
/// leading `P` compute ranks factor the row-distributed `a_local`
/// exactly as [`crate::tsqr::tsqr_factor`] would on `P` ranks (bitwise
/// identical `Q`, `R`, `T`, and — when fault-free — charged clocks up
/// to the encode overhead), while the trailing `c = cfg.spares` ranks
/// hold XOR-parity checksums and stand by to reconstruct one killed
/// rank's output (see the module docs for the protocol).
///
/// Every rank — spares included — must pass an `a_local` of the same
/// `m_p × n` shape (uniform block-row layout; spares' *entries* are
/// ignored, only the shape is read). Requires `m_p ≥ n ≥ 1` and
/// `1 ≤ c ≤ P`.
pub fn tsqr_factor_ft(rank: &mut Rank, comm: &Comm, a_local: &Matrix, cfg: &FtConfig) -> FtResult {
    let world = comm.size();
    let c = cfg.spares;
    assert!(c >= 1, "tsqr_ft: at least one spare rank is required");
    assert!(
        world > c,
        "tsqr_ft: {world} ranks cannot host {c} spares and any compute ranks"
    );
    let p = world - c;
    assert!(
        c <= p,
        "tsqr_ft: more spares ({c}) than compute ranks ({p})"
    );
    let (mp, n) = (a_local.rows(), a_local.cols());
    assert!(n >= 1, "tsqr_ft: needs at least one column");
    assert!(
        mp >= n,
        "tsqr: every rank needs at least n rows (got {mp} × {n})"
    );
    let me = comm.rank();
    let mut ft = Ft {
        comm: comm.clone(),
        p,
        c,
        me,
        op: comm.next_op(),
        detect: cfg.detect,
        poll: cfg.poll,
        dead: None,
        responded: false,
        sent_up: None,
        a_words: if me < p {
            a_local.as_slice().to_vec()
        } else {
            Vec::new()
        },
        mp,
        n,
    };

    // ---- Encode: stripe-wise XOR-parity reduction to the spare. ----
    let checksum = match encode(&mut ft, rank) {
        Ok(acc) => acc,
        Err(Severed) => return FtResult::Dead,
    };
    if me >= p {
        return spare_main(&mut ft, rank, checksum.expect("spares root their stripe"));
    }
    match run_position(&mut ft, rank, me, a_local, None) {
        Ok(factors) => FtResult::Compute(factors),
        Err(Severed) => FtResult::Dead,
    }
}

/// The stripe encode reduction. Compute ranks contribute their input
/// bit patterns and return `None`; each spare roots its stripe's tree
/// and returns the accumulated checksum. Charged — this is the coded
/// path's (F, W, S) overhead, pinned by the `cost/tsqr_ft_*` records.
fn encode(ft: &mut Ft, rank: &mut Rank) -> Result<Option<Vec<u64>>, Severed> {
    let stripe = if ft.me < ft.p {
        ft.me % ft.c
    } else {
        ft.me - ft.p
    };
    // Stripe roster: the spare first (reduce root), then its members.
    let mut roster = vec![ft.p + stripe];
    roster.extend((0..ft.p).filter(|r| r % ft.c == stripe));
    let idx = roster
        .iter()
        .position(|&r| r == ft.me)
        .expect("every rank sits in exactly one stripe");
    let mut acc = if ft.me < ft.p {
        to_bits(&ft.a_words)
    } else {
        vec![0u64; ft.mp * ft.n]
    };
    let enc = ft.aux_tag(ENC);
    let mut sent_up = false;
    for f in binomial_frames(idx, roster.len(), 0).iter().rev() {
        if idx == f.ort {
            rank.send(&ft.comm, roster[f.rt], enc, from_bits(&acc));
            sent_up = true;
            break;
        }
        let incoming = ft.recv_tree(rank, roster[f.ort], enc)?;
        for (a, w) in acc.iter_mut().zip(incoming.as_slice()) {
            *a ^= w.to_bits();
        }
        rank.charge_flops((ft.mp * ft.n) as f64);
    }
    // Commit barrier: no rank may emit tree traffic until *every*
    // stripe's checksum rests at its spare — otherwise a fast peer's
    // tree message can kill a rank that is still mid-encode, and the
    // coded block it owes the spare is lost with it. Each spare
    // releases every compute rank once its checksum is in hand; a
    // compute rank proceeds only after hearing from all spares. The
    // barrier messages are charged: a real coded TSQR pays this
    // synchronization, and `tsqr_ft_cost` accounts it.
    let go = ft.aux_tag(GO);
    if ft.me < ft.p {
        debug_assert!(sent_up, "every compute rank feeds its stripe");
        for s in ft.p..ft.p + ft.c {
            ft.recv_tree(rank, s, go)?;
        }
        Ok(None)
    } else {
        for r in 0..ft.p {
            rank.send(&ft.comm, r, go, vec![1.0]);
        }
        Ok(Some(acc))
    }
}

/// The moves of one tree position under faults: a live compute rank's
/// own, or — with `retained` — a dead rank's, replayed by its stripe's
/// spare.
struct Moves<'a> {
    ft: &'a mut Ft,
    rank: &'a mut Rank,
    /// On a replay, the triangles the dead rank's children had sent it,
    /// as the survivors retained them, by depth.
    retained: Option<HashMap<u64, Vec<f64>>>,
}

impl TreeIo for Moves<'_> {
    type Stop = Severed;

    fn scratch(&mut self) -> &mut dyn ScratchArena {
        self.rank.workspace()
    }

    fn charge(&mut self, flops: f64) {
        self.rank.charge_flops(flops);
    }

    /// Retains the message for recovery. A send to a known-dead parent
    /// becomes an out-of-band RECORD to the recovering spare (the
    /// charged message would be swallowed by the severed rank).
    fn send_up(&mut self, f: &TreeFrame, packed: Vec<f64>) -> Result<(), Severed> {
        let ft = &mut *self.ft;
        ft.sent_up = Some((f.rt, f.depth, packed.clone()));
        if ft.dead == Some(f.rt) {
            let mut msg = vec![f.depth as f64];
            msg.extend_from_slice(&packed);
            let (spare, tag) = (ft.spare_of(f.rt), ft.aux_tag(RECORD));
            self.rank.send_control(&ft.comm, spare, tag, msg);
        } else {
            let tag = tree::tag(ft.op, f.depth, 0);
            self.rank.send(&ft.comm, f.rt, tag, packed);
        }
        Ok(())
    }

    fn recv_up(&mut self, f: &TreeFrame) -> Result<Payload, Severed> {
        let Some(retained) = &mut self.retained else {
            let tag = tree::tag(self.ft.op, f.depth, 0);
            return self.ft.recv_tree(self.rank, f.ort, tag);
        };
        // A child's message: from its response, or — if it had not yet
        // sent when recovery began — a late RECORD.
        if let Some(packed) = retained.remove(&f.depth) {
            return Ok(packed.into());
        }
        let tag = self.ft.aux_tag(RECORD);
        let record = self.ft.recv_control(self.rank, f.ort, tag)?;
        assert_eq!(record[0] as u64, f.depth, "record depth");
        Ok(record.slice(1..record.len()))
    }

    fn send_down(&mut self, f: &TreeFrame, blocks: Vec<f64>) -> Result<(), Severed> {
        let (child, tag) = (self.ft.route(f.ort), tree::tag(self.ft.op, f.depth, 1));
        self.rank.send(&self.ft.comm, child, tag, blocks);
        Ok(())
    }

    fn recv_down(&mut self, f: &TreeFrame) -> Result<Payload, Severed> {
        let tag = tree::tag(self.ft.op, f.depth, 1);
        self.ft.recv_tree(self.rank, f.rt, tag)
    }
}

/// Tree position `pos`'s whole path from its input block `a` to its
/// factors: the sweeps of [`crate::tree`], then the reconstruction with
/// `U` fanned out over the same tree. A compute rank runs its own
/// position; a spare runs the dead rank's, reading `retained` where the
/// dead rank had received from its children — one function, so that a
/// replay cannot drift from the arithmetic it must reproduce bit for
/// bit.
fn run_position(
    ft: &mut Ft,
    rank: &mut Rank,
    pos: usize,
    a: &Matrix,
    retained: Option<HashMap<u64, Vec<f64>>>,
) -> Result<QrFactors, Severed> {
    let frames = binomial_frames(pos, ft.p, 0);
    let mut io = Moves { ft, rank, retained };
    let mut nodes = tree::upsweep(&mut io, &frames, pos, &[a.view()])?;
    let top = (pos == 0).then(|| vec![Matrix::identity(a.cols())]);
    let mut w = Matrix::zeros(a.rows(), a.cols());
    tree::downsweep(&mut io, &frames, pos, &mut nodes, top, &mut [w.view_mut()])?;
    let mut out = reconstruct(&mut io, pos == 0, vec![w], nodes, None, |io, u_root| {
        // U rides the same binomial tree (fault-aware via rerouting)
        // instead of the generic collective, which cannot route around
        // a death.
        let mut u = u_root.map(Payload::new);
        let ucast = io.ft.aux_tag(UCAST);
        for f in &frames {
            if pos == f.ort {
                u = Some(io.ft.recv_tree(io.rank, f.rt, ucast)?);
            } else {
                let words = u.clone().expect("U arrives before fan-out");
                io.rank.send(&io.ft.comm, io.ft.route(f.ort), ucast, words);
            }
        }
        Ok(u.expect("every non-root position receives U"))
    })?;
    if pos == 0 {
        // All-clear: let idle spares exit (out-of-band, uncharged); a
        // spare standing in for the root tells the others.
        let (ft, done) = (&*io.ft, io.ft.aux_tag(DONE));
        for s in (ft.p..ft.p + ft.c).filter(|&s| s != ft.me) {
            io.rank.send_control(&ft.comm, s, done, &[0.0][..]);
        }
    }
    Ok(out.pop().expect("one problem in, one factorization out"))
}

/// A spare's path: hold the stripe checksum, wait for a death notice
/// (or the root's all-clear), and on a death decode + replay the lost
/// rank.
fn spare_main(ft: &mut Ft, rank: &mut Rank, checksum: Vec<u64>) -> FtResult {
    let done = ft.aux_tag(DONE);
    let notice = ft.aux_tag(NOTICE);
    let dead = 'wait: loop {
        // The paced poll doubles as the endpoint drain.
        if rank.try_recv_control(&ft.comm, 0, done, ft.poll).is_some() {
            return FtResult::Spare { recovered: None };
        }
        for s in ft.p..ft.p + ft.c {
            if s != ft.me
                && rank
                    .try_recv_control(&ft.comm, s, done, Duration::ZERO)
                    .is_some()
            {
                return FtResult::Spare { recovered: None };
            }
        }
        for src in 0..ft.p {
            if let Some(pl) = rank.try_recv_control(&ft.comm, src, notice, Duration::ZERO) {
                break 'wait pl.as_slice()[0] as usize;
            }
        }
        ft.service_control(rank);
    };
    assert_eq!(
        ft.spare_of(dead),
        ft.me,
        "death notice routed to the wrong stripe's spare"
    );
    ft.dead = Some(dead);
    match recover(ft, rank, checksum, dead) {
        Ok(factors) => FtResult::Spare {
            recovered: Some((dead, factors)),
        },
        Err(Severed) => FtResult::Dead,
    }
}

/// Decode the dead rank's input from the checksum and run its tree
/// position from it and the survivors' retained messages, producing its
/// factors bitwise.
fn recover(
    ft: &mut Ft,
    rank: &mut Rank,
    checksum: Vec<u64>,
    dead: usize,
) -> Result<QrFactors, Severed> {
    let (mp, n) = (ft.mp, ft.n);
    let req = ft.aux_tag(REQUEST);
    for r in (0..ft.p).filter(|&r| r != dead) {
        rank.send_control(&ft.comm, r, req, &[dead as f64][..]);
    }
    // Gather every survivor's state. Stripe members' input bits peel
    // the checksum down to the dead rank's block; children that already
    // fed the dead rank re-supply their retained partial R.
    let mut acc = checksum;
    let mut records: HashMap<u64, Vec<f64>> = HashMap::new();
    let resp = ft.aux_tag(RESPONSE);
    for r in (0..ft.p).filter(|&r| r != dead) {
        let pl = ft.recv_control(rank, r, resp)?;
        let words = pl.as_slice();
        let has_record = words[0] != 0.0;
        let depth = words[1] as u64;
        let in_stripe = words[2] != 0.0;
        let mut off = 3;
        if has_record {
            let len = n * (n + 1) / 2;
            records.insert(depth, words[off..off + len].to_vec());
            off += len;
        }
        if in_stripe {
            assert_eq!(words.len() - off, mp * n, "stripe response shape");
            for (a, w) in acc.iter_mut().zip(&words[off..]) {
                *a ^= w.to_bits();
            }
        }
    }
    let a_dead = Matrix::from_slice(mp, n, &from_bits(&acc));
    run_position(ft, rank, dead, &a_dead, Some(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr3d_machine::{CostParams, Machine};

    fn locals(m: usize, n: usize, p: usize, seed: u64) -> (Matrix, Vec<Matrix>) {
        assert_eq!(m % p, 0, "uniform block-row layout");
        let a = Matrix::random(m, n, seed);
        let mp = m / p;
        let locs = (0..p)
            .map(|r| a.take_rows(&(r * mp..(r + 1) * mp).collect::<Vec<_>>()))
            .collect();
        (a, locs)
    }

    fn fast_cfg(c: usize) -> FtConfig {
        FtConfig {
            spares: c,
            detect: Duration::from_millis(50),
            poll: Duration::from_millis(1),
        }
    }

    /// Fault-free: compute ranks match plain tsqr bitwise; spares idle.
    fn fault_free_matches_tsqr(p: usize, c: usize, mp: usize, n: usize, cfg: FtConfig) {
        let (_a, locs) = locals(p * mp, n, p, 77);
        let plain = {
            let machine = Machine::new(p, CostParams::unit());
            let locs = locs.clone();
            machine.run(move |rank| {
                let w = rank.world();
                crate::tsqr::tsqr_factor(rank, &w, &locs[w.rank()])
            })
        };
        let machine = Machine::new(p + c, CostParams::unit());
        let ft = machine.run(move |rank| {
            let w = rank.world();
            let a = if w.rank() < p {
                locs[w.rank()].clone()
            } else {
                Matrix::zeros(mp, n)
            };
            tsqr_factor_ft(rank, &w, &a, &cfg)
        });
        for r in 0..p {
            match &ft.results[r] {
                FtResult::Compute(f) => {
                    assert_eq!(f.v_local, plain.results[r].v_local, "rank {r} V");
                    assert_eq!(f.r, plain.results[r].r, "rank {r} R");
                    assert_eq!(f.t, plain.results[r].t, "rank {r} T");
                }
                other => panic!("rank {r}: expected Compute, got {other:?}"),
            }
        }
        assert!(matches!(ft.results[p], FtResult::Spare { recovered: None }));
    }

    #[test]
    fn fault_free_run_matches_tsqr_bitwise() {
        fault_free_matches_tsqr(4, 1, 6, 4, fast_cfg(1));
    }

    #[test]
    fn fault_free_run_matches_tsqr_bitwise_above_leaf_words() {
        // Leaves of three blocks, the last ragged. The default window:
        // a leaf this size outlasts `fast_cfg`'s in a debug build.
        let mp = 2 * (tree::LEAF_WORDS / 4) + 50;
        fault_free_matches_tsqr(2, 1, mp, 4, FtConfig::default());
    }

    /// The fault-free encode overhead is deterministic: two runs give
    /// bitwise-identical clocks (the property the cost records pin).
    #[test]
    fn fault_free_clocks_are_deterministic() {
        let (p, c, mp, n) = (4usize, 2usize, 5usize, 3usize);
        let run = || {
            let (_a, locs) = locals(p * mp, n, p, 9);
            let machine = Machine::new(p + c, CostParams::unit());
            machine
                .run(move |rank| {
                    let w = rank.world();
                    let a = if w.rank() < p {
                        locs[w.rank()].clone()
                    } else {
                        Matrix::zeros(mp, n)
                    };
                    tsqr_factor_ft(rank, &w, &a, &fast_cfg(c));
                })
                .stats
                .critical()
        };
        assert_eq!(run(), run());
    }

    /// Two spares stripe the compute ranks; both idle when fault-free.
    #[test]
    fn multiple_spares_stripe_and_idle() {
        let (p, c, mp, n) = (4usize, 2usize, 4usize, 2usize);
        let (_a, locs) = locals(p * mp, n, p, 5);
        let machine = Machine::new(p + c, CostParams::unit());
        let out = machine.run(move |rank| {
            let w = rank.world();
            let a = if w.rank() < p {
                locs[w.rank()].clone()
            } else {
                Matrix::zeros(mp, n)
            };
            tsqr_factor_ft(rank, &w, &a, &fast_cfg(c))
        });
        for s in p..p + c {
            assert!(matches!(
                out.results[s],
                FtResult::Spare { recovered: None }
            ));
        }
    }

    #[test]
    #[should_panic(expected = "more spares")]
    fn rejects_more_spares_than_compute_ranks() {
        let machine = Machine::new(3, CostParams::unit());
        machine.run(|rank| {
            let w = rank.world();
            tsqr_factor_ft(rank, &w, &Matrix::zeros(4, 2), &fast_cfg(2));
        });
    }

    #[test]
    fn bit_roundtrip_is_exact() {
        let words = vec![0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 1e-310];
        assert_eq!(to_bits(&from_bits(&to_bits(&words))), to_bits(&words));
    }
}
