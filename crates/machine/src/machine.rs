//! The machine itself: configuration, the one-shot `run` entry point
//! (a thin wrapper spawning a throwaway [`Executor`]), and the [`Rank`]
//! handle the SPMD closures receive.

use std::sync::Arc;
use std::time::Duration;

use crate::clock::{Clock, CostParams};
use crate::comm::Comm;
use crate::executor::{Executor, DEATH_EPOCH, POISON_EPOCH};
use crate::mailbox::Mailbox;
use crate::payload::Payload;
use crate::transport::{transport_from_env, Endpoint, Envelope, Transport};
use crate::workspace::Workspace;

/// Default *base* receive timeout before a blocked `recv` is declared a
/// deadlock. The effective timeout scales with the machine size (see
/// [`Machine::recv_timeout`]); override the base with
/// [`Machine::with_recv_timeout`] or the [`RECV_TIMEOUT_ENV`]
/// environment variable. At 60 s, every multi-rank machine gets at
/// least the 120 s window the pre-executor code used flat — only the
/// degenerate P = 1 case (where a pending receive can only be an
/// unmatched self-send, i.e. a genuine bug) is shorter.
const DEFAULT_RECV_TIMEOUT_BASE: Duration = Duration::from_secs(60);

/// Environment variable overriding the base receive timeout, in
/// (fractional) seconds; read once at [`Machine::new`], which panics on
/// a value that is not a positive number. Useful on
/// oversubscribed CI runners, where legitimate waits stretch and the
/// default could false-positive as a deadlock.
pub const RECV_TIMEOUT_ENV: &str = "QR3D_RECV_TIMEOUT_SECS";

/// The base receive timeout for a [`RECV_TIMEOUT_ENV`] value: the
/// default when unset, else the parsed value.
///
/// # Panics
/// If the value is not a positive, finite number of seconds.
fn recv_base_from(raw: Option<String>) -> Duration {
    match raw {
        Some(raw) => parse_recv_timeout(&raw).unwrap_or_else(|| {
            panic!("{RECV_TIMEOUT_ENV}={raw:?}: expected a positive number of seconds")
        }),
        None => DEFAULT_RECV_TIMEOUT_BASE,
    }
}

/// Parse a [`RECV_TIMEOUT_ENV`] value: a positive, finite number of
/// seconds; `None` for anything else.
fn parse_recv_timeout(raw: &str) -> Option<Duration> {
    raw.trim()
        .parse::<f64>()
        .ok()
        .filter(|secs| secs.is_finite() && *secs > 0.0)
        // Clamp before converting: an "effectively infinite" setting
        // (1e300) must configure a huge timeout, not panic inside
        // `Duration::from_secs_f64`. 1e9 s ≈ 31 years.
        .map(|secs| Duration::from_secs_f64(secs.min(1e9)))
}

/// A simulated distributed-memory machine with `p` processors, α-β-γ
/// cost parameters (see [`CostParams`]), and a pluggable message
/// substrate (see [`Transport`]).
#[derive(Debug, Clone)]
pub struct Machine {
    p: usize,
    params: CostParams,
    recv_base: Duration,
    transport: Arc<dyn Transport>,
}

/// Aggregate (whole-execution, *not* critical-path) counters for one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Total arithmetic operations performed by this rank.
    pub flops: f64,
    /// Total words sent by this rank.
    pub words_sent: f64,
    /// Total messages sent by this rank.
    pub msgs_sent: f64,
    /// Total messages matched by a `recv` on this rank.
    pub msgs_recv: f64,
}

/// Per-run statistics: the final logical clock and aggregate counters of
/// every rank.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Final critical-path clock of each rank, indexed by world rank.
    pub per_rank: Vec<Clock>,
    /// Aggregate counters of each rank, indexed by world rank.
    pub totals: Vec<Totals>,
}

impl RunStats {
    /// The execution's critical-path costs: componentwise max over ranks.
    /// These are the paper's `F`, `W`, `S` (and modeled time).
    pub fn critical(&self) -> Clock {
        let mut c = Clock::zero();
        for r in &self.per_rank {
            c.merge_max(r);
        }
        c
    }

    /// Total communication volume: words sent summed over all ranks.
    pub fn total_volume(&self) -> f64 {
        self.totals.iter().map(|t| t.words_sent).sum()
    }

    /// Total message count summed over all ranks.
    pub fn total_messages(&self) -> f64 {
        self.totals.iter().map(|t| t.msgs_sent).sum()
    }

    /// Total arithmetic summed over all ranks.
    pub fn total_flops(&self) -> f64 {
        self.totals.iter().map(|t| t.flops).sum()
    }
}

/// The result of [`Machine::run`]: each rank's return value plus run
/// statistics.
#[derive(Debug)]
pub struct RunOutput<T> {
    /// Closure return values, indexed by world rank.
    pub results: Vec<T>,
    /// Cost statistics for the run.
    pub stats: RunStats,
}

impl Machine {
    /// A machine with `p` ranks. `p` must be at least 1. The message
    /// substrate comes from [`TRANSPORT_ENV`](crate::TRANSPORT_ENV)
    /// (default: the unbounded [`MpscTransport`](crate::MpscTransport));
    /// override it per machine with [`Machine::with_transport`].
    pub fn new(p: usize, params: CostParams) -> Self {
        assert!(p >= 1, "a machine needs at least one processor");
        Machine {
            p,
            params,
            recv_base: recv_base_from(std::env::var(RECV_TIMEOUT_ENV).ok()),
            transport: transport_from_env(),
        }
    }

    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.p
    }

    /// Cost parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Set the *base* receive deadlock timeout, overriding the default
    /// and any [`RECV_TIMEOUT_ENV`] setting. The effective timeout still
    /// scales with `P` (see [`Machine::recv_timeout`]), and it is
    /// enforced in the transport-independent receive wrapper — every
    /// backend shares it.
    pub fn with_recv_timeout(mut self, base: Duration) -> Self {
        assert!(base > Duration::ZERO, "receive timeout must be positive");
        self.recv_base = base;
        self
    }

    /// Use `transport` as this machine's message substrate, overriding
    /// the [`TRANSPORT_ENV`](crate::TRANSPORT_ENV) selection. Charged
    /// costs are transport-independent by construction, so swapping the
    /// substrate can never change a measured (F, W, S).
    pub fn with_transport(mut self, transport: Arc<dyn Transport>) -> Self {
        self.transport = transport;
        self
    }

    /// The message substrate executors of this machine will connect
    /// through.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// The effective per-receive deadlock timeout: the configured base
    /// scaled by `1 + ⌈log₂ P⌉`. Deeper machines have longer legitimate
    /// dependency chains, and oversubscribed runners (CI, a warm
    /// executor hosting many queued jobs) schedule more rank threads per
    /// core — so the point at which a blocked receive is declared a
    /// deadlock grows with the machine.
    pub fn recv_timeout(&self) -> Duration {
        let depth = 1 + (self.p as f64).log2().ceil().max(0.0) as u32;
        // Saturate: a deliberately enormous base must mean "wait
        // (nearly) forever", never an overflow panic.
        self.recv_base.checked_mul(depth).unwrap_or(Duration::MAX)
    }

    /// Spawn a persistent [`Executor`] over this machine's ranks: the
    /// warm-pool entry point for running many jobs without respawning
    /// threads (see the [`crate::executor`] module docs).
    pub fn executor(&self) -> Executor {
        Executor::spawn(
            self.p,
            self.params,
            self.recv_timeout(),
            Arc::clone(&self.transport),
        )
    }

    /// Run `f` on every rank (SPMD) and collect results and statistics.
    ///
    /// Each rank is an OS thread; `f` receives a [`Rank`] giving its
    /// identity, its communicators, and its messaging + cost-accounting
    /// interface. This is a thin one-shot wrapper: it spawns a throwaway
    /// [`Executor`], submits the single job, and joins the threads.
    /// Callers running many jobs should hold a warm executor (or a
    /// `Session` from the core crate) instead.
    ///
    /// # Panics
    /// Propagates panics from rank closures; panics if any rank exits with
    /// unconsumed messages in its mailbox (which indicates a communication
    /// protocol bug) or if a receive blocks longer than the configured
    /// timeout (deadlock; see [`Machine::recv_timeout`]).
    pub fn run<T, F>(&self, f: F) -> RunOutput<T>
    where
        T: Send,
        F: Fn(&mut Rank) -> T + Sync,
    {
        self.executor().submit(f)
    }
}

/// A fail-stop rank death, as the fault layer reported it: the world rank
/// that died. Returned by [`Rank::recv_or_dead`] and
/// [`Rank::recv_control`]; a plain [`Rank::recv`] from a dead source
/// panics with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerDead(pub usize);

/// A rank's view of the machine: identity, messaging, and cost accounting.
///
/// Handed to the SPMD closure by [`Machine::run`]. All communication and
/// arithmetic performed through this handle is charged to the rank's
/// logical [`Clock`] under the α-β-γ model.
///
/// `Rank` is the *transport-independent wrapper* over an [`Endpoint`]:
/// tag matching (through the mailbox), epoch leak detection, poison
/// wakeups, death notices, the deadlock-timeout policy, and all clock
/// accounting live here, identically for every message substrate.
///
/// Message data moves as [`Payload`]s: [`Rank::send`] accepts anything
/// `Into<Payload>` and performs no copy of the words when given a
/// `Payload` (view) or an owned `Vec<f64>` — an `Arc` clone crosses the
/// transport. Borrowed slices are copied exactly once, into the fresh
/// shared buffer.
pub struct Rank {
    id: usize,
    p: usize,
    params: CostParams,
    recv_timeout: Duration,
    /// The job epoch stamped on every envelope this rank sends; receives
    /// reject traffic from any other epoch (cross-job leak detection).
    epoch: u64,
    endpoint: Box<dyn Endpoint>,
    mailbox: Mailbox,
    /// World ranks whose death notices arrived, in arrival order (this
    /// rank itself, if it was killed).
    deaths: Vec<usize>,
    /// How many of `deaths` a fallible receive has reported.
    told: usize,
    world: Comm,
    scratch: Workspace,
    pub(crate) clock: Clock,
    pub(crate) totals: Totals,
}

impl Rank {
    pub(crate) fn new(
        id: usize,
        p: usize,
        params: CostParams,
        recv_timeout: Duration,
        endpoint: Box<dyn Endpoint>,
        scratch: Workspace,
        epoch: u64,
    ) -> Self {
        Rank {
            id,
            p,
            params,
            recv_timeout,
            epoch,
            endpoint,
            mailbox: Mailbox::new(),
            deaths: Vec::new(),
            told: 0,
            world: Comm::world(p, id),
            scratch,
            clock: Clock::zero(),
            totals: Totals::default(),
        }
    }

    /// Build a rank directly over a raw endpoint — the conformance
    /// suite's backdoor for driving the wrapper semantics (epoch
    /// rejection, timeout policy, mailbox matching) against an arbitrary
    /// transport without an executor in the way. Not part of the stable
    /// API.
    #[doc(hidden)]
    pub fn over_endpoint(
        id: usize,
        p: usize,
        params: CostParams,
        recv_timeout: Duration,
        endpoint: Box<dyn Endpoint>,
        epoch: u64,
    ) -> Self {
        Rank::new(
            id,
            p,
            params,
            recv_timeout,
            endpoint,
            Workspace::new(),
            epoch,
        )
    }

    /// Give the per-thread parts (transport endpoint, scratch arena) back
    /// to the executor's worker once the job is done.
    pub(crate) fn into_parts(self) -> (Box<dyn Endpoint>, Workspace) {
        (self.endpoint, self.scratch)
    }

    /// Buffered-but-unmatched envelope count, checked at job end.
    pub(crate) fn mailbox_len(&self) -> usize {
        self.mailbox.len()
    }

    /// This job's aggregate counters.
    pub(crate) fn job_totals(&self) -> Totals {
        self.totals
    }

    /// Wake every peer with a poison envelope after this rank's job
    /// panicked, so nobody waits out the deadlock timeout on a message
    /// that will never come. Bypasses cost accounting (the job is dead)
    /// and uses best-effort delivery: a full bounded buffer means the
    /// peer has traffic to drain and will fail on its own terms anyway.
    pub(crate) fn poison_peers(&mut self) {
        for dst in 0..self.p {
            if dst == self.id {
                continue;
            }
            let _ = self.endpoint.try_send(
                dst,
                Envelope {
                    src_global: self.id,
                    comm_id: 0,
                    tag: 0,
                    epoch: POISON_EPOCH,
                    payload: Payload::new(Vec::new()),
                    clock: self.clock,
                },
            );
        }
    }

    /// This rank's world (global) rank.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Total number of ranks on the machine.
    pub fn nprocs(&self) -> usize {
        self.p
    }

    /// The world communicator (all ranks). Clones share the operation
    /// counter, so call sites may freely re-fetch it.
    pub fn world(&self) -> Comm {
        self.world.clone()
    }

    /// The machine's cost parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// This rank's scratch-buffer arena (see [`Workspace`]).
    pub fn workspace(&mut self) -> &mut Workspace {
        &mut self.scratch
    }

    /// Snapshot of this rank's critical-path clock (e.g. for phase deltas
    /// via [`Clock::since`]).
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Charge `n` arithmetic operations to this rank.
    pub fn charge_flops(&mut self, n: f64) {
        self.clock.charge_flops(n, &self.params);
        self.totals.flops += n;
    }

    fn post(&mut self, comm: &Comm, dst_local: usize, tag: u64, payload: Payload) {
        let w = payload.len() as f64;
        self.clock.charge_msg(w, &self.params);
        self.totals.words_sent += w;
        self.totals.msgs_sent += 1.0;
        let env = Envelope {
            src_global: self.id,
            comm_id: comm.id,
            tag,
            epoch: self.epoch,
            payload,
            clock: self.clock,
        };
        let dst_global = comm.global_of(dst_local);
        // The patience window doubles as the backpressure bound: a
        // bounded transport may block here, but a sender stuck past the
        // deadlock window is a deadlock and the endpoint panics.
        self.endpoint.send(dst_global, env, self.recv_timeout);
    }

    /// Send `payload` to `dst_local` (a local rank of `comm`) with message
    /// tag `tag`. Asynchronous on unbounded transports; a bounded
    /// transport may briefly block under backpressure (and treats being
    /// stuck past the deadlock window as fatal). Costs α + wβ on this
    /// rank either way — charged costs never depend on the substrate.
    ///
    /// Accepts anything `Into<Payload>`:
    /// * `&Payload` / `Payload` — **zero-copy**: only the `Arc` reference
    ///   crosses the transport, and `payload.slice(a..b)` ships a
    ///   sub-range without materializing it;
    /// * `Vec<f64>` — zero-copy (the `Vec` moves into shared storage);
    /// * `&[f64]` (and `&[f64; N]`, `&Vec<f64>`) — one copy into a fresh
    ///   shared buffer. For repeated sends of the same data, build a
    ///   [`Payload`] once and send references to it.
    ///
    /// Self-sends are allowed (they still cost a message at each end, so
    /// algorithms should avoid them; collectives here do).
    pub fn send<P: Into<Payload>>(&mut self, comm: &Comm, dst_local: usize, tag: u64, payload: P) {
        self.post(comm, dst_local, tag, payload.into());
    }

    /// The transport-independent receive loop: mailbox matching, the
    /// deadlock-timeout policy (base × machine-size scaling, see
    /// [`Machine::recv_timeout`]), poison wakeups, death notices, and
    /// epoch leak detection all happen here — every [`Endpoint`]
    /// implementation gets them for free. Returns the envelope keyed
    /// `key` (uncharged), or the death it must report instead: the
    /// source's or this rank's own, and with `any_death` also the first
    /// death not yet reported, whichever rank it names. By per-pair FIFO
    /// a death notice arrives after everything its rank sent, so a
    /// source's death is reported only once none of its envelopes can
    /// still match.
    fn next_envelope(
        &mut self,
        key: (usize, u64, u64),
        any_death: bool,
    ) -> Result<Envelope, PeerDead> {
        loop {
            if let Some(env) = self.mailbox.pop(&key) {
                return Ok(env);
            }
            if any_death && self.told < self.deaths.len() {
                self.told += 1;
                return Err(PeerDead(self.deaths[self.told - 1]));
            }
            if let Some(&d) = self.deaths.iter().find(|&&d| d == key.0 || d == self.id) {
                return Err(PeerDead(d));
            }
            let Ok(env) = self.endpoint.recv(self.recv_timeout) else {
                panic!(
                    "rank {} deadlocked waiting for message (src_global={}, comm={}, tag={}) \
                     after {:?}",
                    self.id, key.0, key.1, key.2, self.recv_timeout
                );
            };
            match env.epoch {
                e if e == self.epoch => self.mailbox.push(env),
                // The marker lets `submit` recognize this as a secondary
                // abort and propagate the culprit's original payload.
                POISON_EPOCH => panic!(
                    "rank {} aborted: rank {} {}",
                    self.id,
                    env.src_global,
                    crate::executor::POISON_ABORT_MARKER
                ),
                DEATH_EPOCH => {
                    if !self.deaths.contains(&env.src_global) {
                        self.deaths.push(env.src_global);
                    }
                }
                e => panic!(
                    "rank {}: cross-job message leak (epoch-{e} traffic from rank {} \
                     arrived during epoch {})",
                    self.id, env.src_global, self.epoch
                ),
            }
        }
    }

    /// Merge a matched envelope's clock and charge its receive.
    fn charge_recv(&mut self, env: &Envelope) {
        self.clock.merge_max(&env.clock);
        self.clock
            .charge_msg(env.payload.len() as f64, &self.params);
        self.totals.msgs_recv += 1.0;
    }

    /// The blocking receive behind [`Rank::recv`]: a dead source (or a
    /// dead receiver) is a panic naming the [`PeerDead`] rank.
    fn recv_envelope(&mut self, comm: &Comm, src_local: usize, tag: u64) -> Envelope {
        let key = (comm.global_of(src_local), comm.id, tag);
        match self.next_envelope(key, false) {
            Ok(env) => {
                self.charge_recv(&env);
                env
            }
            Err(dead) => panic!(
                "rank {} waiting for message (src_global={}, comm={}, tag={}): {dead:?}",
                self.id, key.0, key.1, key.2
            ),
        }
    }

    /// Receive the message sent by `src_local` (a local rank of `comm`)
    /// with tag `tag`. Blocks until it arrives. Merges the sender's clock
    /// (componentwise max) and then charges α + wβ.
    ///
    /// The returned [`Payload`] views the sender's buffer — no words were
    /// copied in transit.
    pub fn recv(&mut self, comm: &Comm, src_local: usize, tag: u64) -> Payload {
        self.recv_envelope(comm, src_local, tag).payload
    }

    /// Receive directly into a caller-provided buffer (the one copy a
    /// receive that must own its words performs). `out.len()` must equal
    /// the message length.
    pub fn recv_into(&mut self, comm: &Comm, src_local: usize, tag: u64, out: &mut [f64]) {
        let env = self.recv_envelope(comm, src_local, tag);
        assert_eq!(
            out.len(),
            env.payload.len(),
            "recv_into: buffer/message length mismatch"
        );
        out.copy_from_slice(&env.payload);
    }

    /// Simultaneous exchange with a partner: send `payload` and receive
    /// the partner's message with the same tag. The send is issued first,
    /// so a symmetric pair never deadlocks. This is the primitive used by
    /// bidirectional-exchange collectives.
    pub fn sendrecv<P: Into<Payload>>(
        &mut self,
        comm: &Comm,
        partner_local: usize,
        tag: u64,
        payload: P,
    ) -> Payload {
        self.send(comm, partner_local, tag, payload);
        self.recv(comm, partner_local, tag)
    }

    /// The fallible [`Rank::recv`] of fault-tolerant protocols: the
    /// matched message (fully charged, clock merged), or `Err` naming a
    /// death — the first one this rank has not yet been told about,
    /// whichever source it is waiting on, else the source's own or this
    /// rank's. A protocol learns each death exactly once here and can
    /// reroute around it; a killed rank learns of its own death and can
    /// exit cleanly instead of panicking.
    pub fn recv_or_dead(
        &mut self,
        comm: &Comm,
        src_local: usize,
        tag: u64,
    ) -> Result<Payload, PeerDead> {
        let env = self.next_envelope((comm.global_of(src_local), comm.id, tag), true)?;
        self.charge_recv(&env);
        Ok(env.payload)
    }

    /// Send `payload` as *control-plane* traffic: epoch-stamped and
    /// delivered like any message, but charged to neither the clock nor
    /// the totals — like poison wakeups and death notices, recovery
    /// traffic models out-of-band signalling, so a fault-free run's
    /// charged (F, W, S) stay bitwise identical whether or not the
    /// protocol stands ready to recover.
    pub fn send_control<P: Into<Payload>>(
        &mut self,
        comm: &Comm,
        dst_local: usize,
        tag: u64,
        payload: P,
    ) {
        let env = Envelope {
            src_global: self.id,
            comm_id: comm.id,
            tag,
            epoch: self.epoch,
            payload: payload.into(),
            clock: self.clock,
        };
        let dst_global = comm.global_of(dst_local);
        self.endpoint.send(dst_global, env, self.recv_timeout);
    }

    /// [`Rank::recv_or_dead`] for control-plane traffic sent with
    /// [`Rank::send_control`]: uncharged, no clock merge.
    pub fn recv_control(
        &mut self,
        comm: &Comm,
        src_local: usize,
        tag: u64,
    ) -> Result<Payload, PeerDead> {
        let key = (comm.global_of(src_local), comm.id, tag);
        Ok(self.next_envelope(key, true)?.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs_and_counts_flops() {
        let m = Machine::new(1, CostParams::unit());
        let out = m.run(|rank| {
            rank.charge_flops(100.0);
            rank.id()
        });
        assert_eq!(out.results, vec![0]);
        assert_eq!(out.stats.critical().flops, 100.0);
        assert_eq!(out.stats.critical().msgs, 0.0);
        assert_eq!(out.stats.total_flops(), 100.0);
    }

    #[test]
    fn ping_pong_costs_and_values() {
        let m = Machine::new(2, CostParams::unit());
        let out = m.run(|rank| {
            let w = rank.world();
            if rank.id() == 0 {
                rank.send(&w, 1, 1, &[1.0, 2.0, 3.0]);
                rank.recv(&w, 1, 2).to_vec()
            } else {
                let v = rank.recv(&w, 0, 1);
                let doubled: Vec<f64> = v.iter().map(|x| 2.0 * x).collect();
                rank.send(&w, 0, 2, &doubled);
                doubled
            }
        });
        assert_eq!(out.results[0], vec![2.0, 4.0, 6.0]);
        // Critical path: send(3) + recv(3) + send(3) + recv(3) = 4 msgs, 12 words.
        let c = out.stats.critical();
        assert_eq!(c.msgs, 4.0);
        assert_eq!(c.words, 12.0);
        // Volume counts each message once (at the sender).
        assert_eq!(out.stats.total_volume(), 6.0);
        assert_eq!(out.stats.total_messages(), 2.0);
    }

    #[test]
    fn send_is_zero_copy_pointer_identity() {
        // The acceptance test for the zero-copy fabric: a large buffer is
        // wrapped once; after send → mailbox → recv the receiver's payload
        // views the *same allocation* — no memcpy happened anywhere.
        let big = Payload::new((0..1_000_000).map(|i| i as f64).collect());
        let m = Machine::new(2, CostParams::unit());
        let big_ref = &big;
        let out = m.run(move |rank| {
            let w = rank.world();
            if rank.id() == 0 {
                rank.send(&w, 1, 7, big_ref);
                true
            } else {
                let got = rank.recv(&w, 0, 7);
                got.same_buffer(big_ref)
                    && got.as_ptr() == big_ref.as_ptr()
                    && got.len() == big_ref.len()
            }
        });
        assert!(
            out.results[1],
            "received payload must alias the sent buffer"
        );
        assert_eq!(out.stats.total_volume(), 1_000_000.0);
    }

    #[test]
    fn send_view_ships_subranges_zero_copy() {
        let base = Payload::new((0..100).map(|i| i as f64).collect());
        let m = Machine::new(2, CostParams::unit());
        let base_ref = &base;
        let out = m.run(move |rank| {
            let w = rank.world();
            if rank.id() == 0 {
                rank.send(&w, 1, 0, base_ref.slice(10..20));
                None
            } else {
                let got = rank.recv(&w, 0, 0);
                Some((got.same_buffer(base_ref), got.to_vec()))
            }
        });
        let (aliases, vals) = out.results[1].clone().unwrap();
        assert!(aliases, "view must alias the base buffer");
        assert_eq!(vals, (10..20).map(|i| i as f64).collect::<Vec<_>>());
        // Only the view's words are charged.
        assert_eq!(out.stats.total_volume(), 10.0);
    }

    #[test]
    fn recv_into_fills_caller_buffer() {
        let m = Machine::new(2, CostParams::unit());
        let out = m.run(|rank| {
            let w = rank.world();
            if rank.id() == 0 {
                rank.send(&w, 1, 0, vec![1.0, 2.0, 3.0]);
                vec![]
            } else {
                let mut buf = vec![0.0; 5];
                rank.recv_into(&w, 0, 0, &mut buf[1..4]);
                buf
            }
        });
        assert_eq!(out.results[1], vec![0.0, 1.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn out_of_order_tags_match_correctly() {
        let m = Machine::new(2, CostParams::unit());
        let out = m.run(|rank| {
            let w = rank.world();
            if rank.id() == 0 {
                rank.send(&w, 1, 10, &[10.0]);
                rank.send(&w, 1, 20, &[20.0]);
                0.0
            } else {
                // Receive in the opposite order of sending.
                let b = rank.recv(&w, 0, 20)[0];
                let a = rank.recv(&w, 0, 10)[0];
                a + b * 100.0
            }
        });
        assert_eq!(out.results[1], 10.0 + 2000.0);
    }

    #[test]
    fn clock_merge_tracks_dependency_chain() {
        // Rank 0 computes 1000 flops, then sends to 1; rank 1's path must
        // include rank 0's flops even though rank 1 computed none.
        let m = Machine::new(2, CostParams::unit());
        let out = m.run(|rank| {
            let w = rank.world();
            if rank.id() == 0 {
                rank.charge_flops(1000.0);
                rank.send(&w, 1, 0, &[0.0]);
            } else {
                rank.recv(&w, 0, 0);
            }
        });
        assert_eq!(out.stats.per_rank[1].flops, 1000.0);
        // And rank 1's path has 2 message events (rank 0's send + own recv).
        assert_eq!(out.stats.per_rank[1].msgs, 2.0);
    }

    #[test]
    fn independent_work_does_not_inflate_critical_path() {
        // Two disjoint pairs communicate; critical path sees one pair only.
        let m = Machine::new(4, CostParams::unit());
        let out = m.run(|rank| {
            let w = rank.world();
            match rank.id() {
                0 => rank.send(&w, 1, 0, &[1.0; 10]),
                1 => drop(rank.recv(&w, 0, 0)),
                2 => rank.send(&w, 3, 0, &[1.0; 10]),
                3 => drop(rank.recv(&w, 2, 0)),
                _ => unreachable!(),
            }
        });
        let c = out.stats.critical();
        assert_eq!(
            c.msgs, 2.0,
            "two pairs in parallel: path sees send+recv only"
        );
        assert_eq!(c.words, 20.0);
        assert_eq!(out.stats.total_volume(), 20.0);
    }

    #[test]
    fn sendrecv_is_symmetric_and_deadlock_free() {
        let m = Machine::new(2, CostParams::unit());
        let out = m.run(|rank| {
            let w = rank.world();
            let partner = 1 - rank.id();
            let mine = Payload::new(vec![rank.id() as f64]);
            let got = rank.sendrecv(&w, partner, 3, &mine);
            got[0]
        });
        assert_eq!(out.results, vec![1.0, 0.0]);
    }

    #[test]
    fn subcommunicator_messaging_uses_local_ranks() {
        let m = Machine::new(4, CostParams::unit());
        let out = m.run(|rank| {
            let w = rank.world();
            // Odd ranks form a communicator; local 0 = global 1, local 1 = global 3.
            if rank.id() % 2 == 1 {
                let odd = w.subset(&[1, 3]).expect("odd rank");
                if odd.rank() == 0 {
                    rank.send(&odd, 1, 0, &[99.0]);
                    0.0
                } else {
                    rank.recv(&odd, 0, 0)[0]
                }
            } else {
                -1.0
            }
        });
        assert_eq!(out.results, vec![-1.0, 0.0, -1.0, 99.0]);
    }

    #[test]
    fn send_vec_avoids_copy_same_semantics() {
        let m = Machine::new(2, CostParams::unit());
        let out = m.run(|rank| {
            let w = rank.world();
            if rank.id() == 0 {
                rank.send(&w, 1, 0, vec![5.0; 100]);
                0.0
            } else {
                rank.recv(&w, 0, 0).iter().sum::<f64>()
            }
        });
        assert_eq!(out.results[1], 500.0);
        assert_eq!(out.stats.total_volume(), 100.0);
    }

    #[test]
    fn workspace_is_per_rank_and_reuses() {
        let m = Machine::new(2, CostParams::unit());
        let out = m.run(|rank| {
            for _ in 0..10 {
                let buf = rank.workspace().take(256);
                rank.workspace().put(buf);
            }
            rank.workspace().stats()
        });
        for (hits, misses) in out.results {
            assert_eq!(misses, 1, "one cold allocation, then reuse");
            assert_eq!(hits, 9);
        }
    }

    #[test]
    #[should_panic(expected = "never received")]
    fn leaked_message_is_detected() {
        let m = Machine::new(2, CostParams::unit());
        let _ = m.run(|rank| {
            let w = rank.world();
            if rank.id() == 0 {
                rank.send(&w, 1, 0, &[1.0]);
                rank.send(&w, 1, 1, &[2.0]); // never received
            } else {
                rank.recv(&w, 0, 0);
            }
        });
    }

    #[test]
    fn recv_timeout_scales_with_machine_size() {
        let base = Duration::from_secs(10);
        let timeout = |p: usize| {
            Machine::new(p, CostParams::unit())
                .with_recv_timeout(base)
                .recv_timeout()
        };
        assert_eq!(timeout(1), base, "P = 1: no scaling");
        assert_eq!(timeout(2), base * 2);
        assert_eq!(timeout(8), base * 4, "1 + log2(8) = 4");
        assert_eq!(timeout(9), base * 5, "ceil(log2 9) = 4");
        assert!(timeout(64) > timeout(8), "monotone in P");
    }

    #[test]
    fn recv_timeout_env_parses_and_defaults() {
        // Unset: the default.
        assert_eq!(recv_base_from(None), DEFAULT_RECV_TIMEOUT_BASE);
        // Accepted, with an "effectively infinite" value clamped.
        assert_eq!(
            parse_recv_timeout(" 2.5 "),
            Some(Duration::from_millis(2500))
        );
        assert_eq!(
            parse_recv_timeout("1e300"),
            Some(Duration::from_secs(1_000_000_000))
        );
        assert_eq!(recv_base_from(Some("3".into())), Duration::from_secs(3));
        // Rejected: the parse refuses, and the lookup panics naming the
        // variable and the value.
        for bad in ["0", "-1", "", "soon", "inf", "NaN"] {
            assert_eq!(parse_recv_timeout(bad), None, "{bad:?}");
        }
        let err = std::panic::catch_unwind(|| recv_base_from(Some("soon".into())))
            .expect_err("a bad value panics");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("QR3D_RECV_TIMEOUT_SECS=\"soon\""), "{msg}");
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn configured_timeout_detects_deadlock() {
        let m = Machine::new(1, CostParams::unit()).with_recv_timeout(Duration::from_millis(50));
        let _ = m.run(|rank| {
            let w = rank.world();
            // Nothing is ever sent: this must trip the (shortened)
            // deadlock timeout, not hang.
            let _ = rank.recv(&w, 0, 99);
        });
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_timeout_rejected() {
        let _ = Machine::new(1, CostParams::unit()).with_recv_timeout(Duration::ZERO);
    }

    #[test]
    fn determinism_same_program_same_clocks() {
        let run_once = || {
            let m = Machine::new(8, CostParams::supercomputer());
            let out = m.run(|rank| {
                let w = rank.world();
                // Binary-tree reduction pattern.
                let mut val = rank.id() as f64;
                let mut gap = 1;
                while gap < rank.nprocs() {
                    if rank.id() % (2 * gap) == 0 {
                        let src = rank.id() + gap;
                        if src < rank.nprocs() {
                            val += rank.recv(&w, src, gap as u64)[0];
                        }
                    } else if rank.id() % (2 * gap) == gap {
                        let dst = rank.id() - gap;
                        rank.send(&w, dst, gap as u64, &[val]);
                        break;
                    }
                    gap *= 2;
                }
                rank.charge_flops(10.0);
                val
            });
            (out.results[0], out.stats.critical())
        };
        let (v1, c1) = run_once();
        let (v2, c2) = run_once();
        assert_eq!(v1, 28.0, "0+1+...+7");
        assert_eq!(v1, v2);
        assert_eq!(c1, c2, "logical clocks must be deterministic");
    }

    #[test]
    fn transports_are_observationally_identical() {
        // The same program over both substrates: results, per-rank
        // clocks, and totals must agree bitwise — charged costs live
        // entirely above the transport boundary.
        let run_over = |transport: Arc<dyn crate::Transport>| {
            let m = Machine::new(4, CostParams::supercomputer()).with_transport(transport);
            m.run(|rank| {
                let w = rank.world();
                let next = (rank.id() + 1) % rank.nprocs();
                let prev = (rank.id() + rank.nprocs() - 1) % rank.nprocs();
                rank.charge_flops((rank.id() + 1) as f64);
                rank.send(&w, next, 0, vec![rank.id() as f64; 8]);
                rank.recv(&w, prev, 0)[0]
            })
        };
        let mpsc = run_over(Arc::new(crate::MpscTransport));
        let ring = run_over(Arc::new(crate::RingTransport::with_capacity(2)));
        assert_eq!(mpsc.results, ring.results);
        assert_eq!(mpsc.stats.per_rank, ring.stats.per_rank);
        assert_eq!(mpsc.stats.totals, ring.stats.totals);
    }
}
