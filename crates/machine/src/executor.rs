//! The persistent rank executor: `P` long-lived rank threads fed by a job
//! queue, with epoch-tagged traffic and per-job enforcement of the
//! machine's determinism invariants.
//!
//! [`Machine::run`](crate::Machine::run) spawns and joins `P` OS threads
//! per call — fine for one Table-2 experiment, fatal for serving many
//! factorizations: thread-spawn latency dominates tall-skinny jobs whose
//! whole critical path is a few hundred microseconds. An [`Executor`]
//! keeps the ranks alive between jobs:
//!
//! * **Job queue** — [`Executor::submit`] ships one SPMD closure to all
//!   `P` rank threads and blocks until every rank reports back; jobs
//!   execute strictly one at a time, in submission order.
//! * **Epoch tagging** — every envelope carries its job's epoch. A rank
//!   that pulls an envelope from another epoch panics immediately
//!   ("cross-job message leak") instead of mis-delivering it to a later
//!   job, so consecutive jobs can never confuse traffic even though they
//!   share channels and (deterministically derived) communicator ids.
//! * **Per-job invariants** — the empty-mailbox and send/receive-balance
//!   checks, and the deterministic logical [`Clock`]s, are enforced per
//!   *job*, exactly as the one-shot machine enforced them per run.
//! * **Panic containment** — a rank whose job panics wakes its peers with
//!   poison envelopes (so nobody waits out the receive deadlock timeout),
//!   the original panic is propagated to the submitter, and the executor
//!   is *poisoned*: further submissions refuse to run on wedged channels.
//!
//! Worker state that survives jobs: each rank's [`Transport`] endpoint
//! and its [`Workspace`] scratch arena (a warm executor's inner loops
//! allocate nothing after the first job). State rebuilt per job:
//! mailbox, clock, totals, communicators.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::clock::{Clock, CostParams};
use crate::machine::{Machine, Rank, RunOutput, RunStats, Totals};
use crate::transport::{Endpoint, Transport};
use crate::workspace::Workspace;

/// Epoch value reserved for poison envelopes (sent by a rank whose job
/// panicked, to wake peers blocked in `recv`). Real job epochs count up
/// from zero and can never reach it.
pub(crate) const POISON_EPOCH: u64 = u64::MAX;

/// Epoch value reserved for death notices: the envelope a killed rank's
/// fault layer sends every peer (see [`crate::fault`]), naming the dead
/// rank in `src_global`. Like [`POISON_EPOCH`], out of reach of real
/// job epochs.
pub(crate) const DEATH_EPOCH: u64 = u64::MAX - 1;

/// Substring identifying the panic a rank raises when *woken by* a
/// poison envelope (see `Rank::recv_envelope`). `submit` uses it to
/// avoid propagating a victim's generic abort over the culprit's
/// original payload.
pub(crate) const POISON_ABORT_MARKER: &str = "panicked during this job";

/// Typed refusal returned by [`Executor::try_submit`] when the executor
/// has been poisoned by an earlier job panic. Callers that manage
/// executor lifecycles (e.g. the service pool's drain-and-replace loop)
/// branch on this instead of `catch_unwind`-ing [`Executor::submit`]'s
/// assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorPoisoned;

impl std::fmt::Display for ExecutorPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("executor is poisoned by an earlier job panic; build a fresh one")
    }
}

impl std::error::Error for ExecutorPoisoned {}

/// A type-erased per-rank job. The closure owns everything it needs to
/// run one rank's share of a job and report the result.
type ErasedJob = Box<dyn FnOnce(&mut WorkerCore) + Send + 'static>;

/// Per-thread state that survives across jobs.
struct WorkerCore {
    id: usize,
    p: usize,
    params: CostParams,
    recv_timeout: Duration,
    /// `Option` so a job can temporarily move the transport endpoint
    /// into its [`Rank`] and hand it back afterwards.
    endpoint: Option<Box<dyn Endpoint>>,
    /// Scratch arena reused across jobs.
    workspace: Workspace,
    /// Signals "the job closure has been destroyed" back to `submit` —
    /// the soundness handshake for the lifetime-erasing transmute (see
    /// the SAFETY comment in [`Executor::submit`]).
    ack_tx: Sender<()>,
}

/// One rank's report for one job: the closure's value plus the per-job
/// clock, totals, and leftover-mailbox count — or the panic payload.
type Report<T> = Result<(T, Clock, Totals, usize), Box<dyn Any + Send>>;

/// A warm pool of `P` rank threads executing SPMD jobs back-to-back
/// without respawning (see the module docs). Build one with
/// [`Machine::executor`] (which carries the machine's receive-timeout
/// configuration) or [`Executor::new`].
pub struct Executor {
    p: usize,
    params: CostParams,
    cmd_txs: Vec<Sender<ErasedJob>>,
    handles: Vec<JoinHandle<()>>,
    ack_rx: Receiver<()>,
    next_epoch: u64,
    jobs_run: u64,
    last_critical: Clock,
    poisoned: bool,
    /// Whether the transport may legitimately lose envelopes (fault
    /// injection); relaxes the per-job conservation invariants.
    lossy: bool,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("p", &self.p)
            .field("jobs_run", &self.jobs_run)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl Executor {
    /// An executor with `p` warm ranks and default timeout configuration.
    /// Equivalent to `Machine::new(p, params).executor()`.
    pub fn new(p: usize, params: CostParams) -> Executor {
        Machine::new(p, params).executor()
    }

    /// Spawn the worker threads. `recv_timeout` is the already-scaled
    /// effective deadlock timeout (see [`Machine::recv_timeout`]), and
    /// `transport` is the message substrate the ranks connect through —
    /// one endpoint per rank, owned by its thread for the executor's
    /// lifetime.
    pub(crate) fn spawn(
        p: usize,
        params: CostParams,
        recv_timeout: Duration,
        transport: Arc<dyn Transport>,
    ) -> Executor {
        assert!(p >= 1, "an executor needs at least one rank");
        let lossy = transport.is_lossy();
        let endpoints = transport.connect(p);
        assert_eq!(
            endpoints.len(),
            p,
            "transport {:?} connected {} endpoints for {p} ranks",
            transport.name(),
            endpoints.len()
        );
        let (ack_tx, ack_rx) = channel::<()>();
        let mut cmd_txs = Vec::with_capacity(p);
        let mut handles = Vec::with_capacity(p);
        for (id, endpoint) in endpoints.into_iter().enumerate() {
            let (cmd_tx, cmd_rx) = channel::<ErasedJob>();
            let mut core = WorkerCore {
                id,
                p,
                params,
                recv_timeout,
                endpoint: Some(endpoint),
                workspace: Workspace::new(),
                ack_tx: ack_tx.clone(),
            };
            let handle = std::thread::Builder::new()
                .name(format!("rank-{id}"))
                .stack_size(16 << 20)
                .spawn(move || {
                    while let Ok(job) = cmd_rx.recv() {
                        // Calling the boxed FnOnce consumes it: by the
                        // time it returns, the closure environment (and
                        // its borrow of the submitted job) is destroyed.
                        // Only then acknowledge.
                        job(&mut core);
                        let _ = core.ack_tx.send(());
                    }
                })
                .expect("failed to spawn rank thread");
            cmd_txs.push(cmd_tx);
            handles.push(handle);
        }
        drop(ack_tx);
        Executor {
            p,
            params,
            cmd_txs,
            handles,
            ack_rx,
            next_epoch: 0,
            jobs_run: 0,
            last_critical: Clock::zero(),
            poisoned: false,
            lossy,
        }
    }

    /// Number of ranks.
    pub fn procs(&self) -> usize {
        self.p
    }

    /// Cost parameters the ranks charge against.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// How many jobs this executor has completed — i.e. run to the end
    /// with every invariant satisfied; panicked or invariant-violating
    /// jobs (which poison the executor) do not count.
    pub fn jobs_run(&self) -> u64 {
        self.jobs_run
    }

    /// The critical-path clock of the most recently completed job
    /// (zero before the first). Lets serving layers account for jobs
    /// whose *domain*-level result is an error — e.g. a CholeskyQR2
    /// breakdown still paid for its Gram all-reduces.
    pub fn last_job_critical(&self) -> Clock {
        self.last_critical
    }

    /// True once a job has panicked on this executor. A poisoned executor
    /// refuses further submissions (its channels may hold wedged
    /// traffic); build a fresh one.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Run `f` on every rank (SPMD) and collect results and statistics —
    /// the warm-pool equivalent of [`Machine::run`], with identical
    /// semantics, identical determinism guarantees, and identical
    /// invariant enforcement, but no thread spawn/join.
    ///
    /// # Panics
    /// Propagates panics from rank closures (poisoning the executor);
    /// panics if any rank exits with unconsumed messages in its mailbox,
    /// if a message was sent but never received by the end of the job, or
    /// if a receive blocks longer than the configured deadlock timeout.
    pub fn submit<T, F>(&mut self, f: F) -> RunOutput<T>
    where
        T: Send,
        F: Fn(&mut Rank) -> T + Sync,
    {
        match self.try_submit(f) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Executor::submit`], but a poisoned executor is reported as a
    /// typed [`ExecutorPoisoned`] error instead of a panic. Panics from
    /// *within* a submitted job still propagate (and poison the
    /// executor) exactly as with `submit`.
    pub fn try_submit<T, F>(&mut self, f: F) -> Result<RunOutput<T>, ExecutorPoisoned>
    where
        T: Send,
        F: Fn(&mut Rank) -> T + Sync,
    {
        if self.poisoned {
            return Err(ExecutorPoisoned);
        }
        let epoch = self.next_epoch;
        self.next_epoch += 1;

        let (res_tx, res_rx) = channel::<(usize, Report<T>)>();
        let f_ref: &F = &f;
        for cmd_tx in &self.cmd_txs {
            let tx = res_tx.clone();
            let job = move |core: &mut WorkerCore| {
                let endpoint = core
                    .endpoint
                    .take()
                    .expect("worker owns its endpoint between jobs");
                let workspace = std::mem::take(&mut core.workspace);
                let mut rank = Rank::new(
                    core.id,
                    core.p,
                    core.params,
                    core.recv_timeout,
                    endpoint,
                    workspace,
                    epoch,
                );
                let outcome = catch_unwind(AssertUnwindSafe(|| f_ref(&mut rank)));
                let report = match outcome {
                    Ok(value) => Ok((value, rank.clock(), rank.job_totals(), rank.mailbox_len())),
                    Err(payload) => {
                        rank.poison_peers();
                        Err(payload)
                    }
                };
                let (endpoint, workspace) = rank.into_parts();
                core.endpoint = Some(endpoint);
                core.workspace = workspace;
                let _ = tx.send((core.id, report));
            };
            let erased: Box<dyn FnOnce(&mut WorkerCore) + Send + '_> = Box::new(job);
            // SAFETY: the closure environment holds `f_ref` (a borrow of
            // `f`, and transitively of anything `f` borrows); `submit`
            // does not return — normally or by unwinding — until that
            // environment has been *destroyed* on every worker. Two
            // handshakes below enforce this, in order: (1) the report
            // loop collects one typed report per rank, and (2) the ack
            // loop collects one `()` per rank, sent by the worker only
            // AFTER `job(&mut core)` returned — i.e. after the consumed
            // FnOnce's environment was dropped. A dispatched closure
            // always terminates: panics inside `f` are caught; a rank
            // blocked on a killed peer is released by that peer's death
            // notice, and one blocked on a panicking peer by its poison
            // envelope, so the receive deadlock timeout bounds only a
            // genuine deadlock of the program itself. An *undispatched*
            // closure (send to a dead worker) is dropped here, inside
            // `submit`, via the returned `SendError`. If either loop instead observes a
            // disconnect, every live closure has already been dropped
            // (the report sender and the worker's ack sender both die
            // with the closure/worker), so unwinding is safe there too.
            #[allow(unsafe_code)]
            let erased: ErasedJob = unsafe {
                std::mem::transmute::<Box<dyn FnOnce(&mut WorkerCore) + Send + '_>, ErasedJob>(
                    erased,
                )
            };
            // A send to a dead worker fails and is detected below: the
            // missing report surfaces as a channel disconnect once every
            // live rank has finished the job.
            let _ = cmd_tx.send(erased);
        }
        drop(res_tx);

        let mut slots: Vec<Option<Report<T>>> = (0..self.p).map(|_| None).collect();
        let mut pending = self.p;
        while pending > 0 {
            match res_rx.recv() {
                Ok((id, report)) => {
                    slots[id] = Some(report);
                    pending -= 1;
                }
                Err(_) => {
                    // All senders are gone with reports still missing: a
                    // worker thread died outside a job. Every dispatched
                    // closure has been dropped, so unwinding is safe.
                    self.poisoned = true;
                    panic!("{pending} rank thread(s) died without reporting");
                }
            }
        }
        // Handshake (2): wait until every worker has destroyed its job
        // closure — the guarantee the transmute's SAFETY argument rests
        // on. Reports precede acks per worker, so this cannot deadlock.
        for _ in 0..self.p {
            if self.ack_rx.recv().is_err() {
                // Workers died; their closures died with them.
                self.poisoned = true;
                panic!("rank thread(s) died before acknowledging job teardown");
            }
        }

        if slots.iter().any(|s| matches!(s, Some(Err(_)))) {
            self.poisoned = true;
            // Propagate the *original* panic: a rank woken by a poison
            // envelope re-panics with the generic abort message below,
            // which must not mask the culprit's own payload. Prefer the
            // lowest-rank non-poison payload; fall back to the lowest
            // rank (matching the one-shot machine's join order).
            let is_poison_abort = |payload: &Box<dyn Any + Send>| {
                payload
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains(POISON_ABORT_MARKER))
            };
            let mut first = None;
            let mut first_original = None;
            for report in slots.into_iter().flatten() {
                if let Err(payload) = report {
                    if first_original.is_none() && !is_poison_abort(&payload) {
                        first_original = Some(payload);
                    } else if first.is_none() {
                        first = Some(payload);
                    }
                }
            }
            resume_unwind(first_original.or(first).expect("an Err report exists"));
        }

        let mut results = Vec::with_capacity(self.p);
        let mut per_rank = Vec::with_capacity(self.p);
        let mut totals = Vec::with_capacity(self.p);
        for (id, slot) in slots.into_iter().enumerate() {
            let Some(Ok((out, clock, tot, leftover))) = slot else {
                unreachable!("panics were propagated above")
            };
            // A lossy (fault-injecting) transport drops envelopes by
            // design: a killed rank's in-flight messages are lost and a
            // recovery protocol may leave redundant deliveries unread,
            // so the conservation invariants below only hold on real
            // fabrics.
            if leftover != 0 && !self.lossy {
                self.poisoned = true;
                panic!(
                    "rank {id} exited with {leftover} unconsumed message(s) in its \
                     mailbox: communication protocol bug"
                );
            }
            results.push(out);
            per_rank.push(clock);
            totals.push(tot);
        }
        // Deterministic leak check: every send must have been matched by
        // a receive by the end of the job.
        let sent: f64 = totals.iter().map(|t| t.msgs_sent).sum();
        let recvd: f64 = totals.iter().map(|t| t.msgs_recv).sum();
        if sent != recvd && !self.lossy {
            self.poisoned = true;
            panic!(
                "{} message(s) were sent but never received: communication \
                 protocol bug",
                sent - recvd
            );
        }
        let stats = RunStats { per_rank, totals };
        // Only a job that passed every invariant counts as completed.
        self.jobs_run += 1;
        self.last_critical = stats.critical();
        Ok(RunOutput { results, stats })
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Dropping the command senders ends each worker's receive loop.
        self.cmd_txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn warm_executor_runs_jobs_back_to_back() {
        let mut ex = Executor::new(4, CostParams::unit());
        for round in 0u64..5 {
            let out = ex.submit(move |rank| {
                let w = rank.world();
                // Ring shift: everyone sends its id to the next rank.
                let next = (rank.id() + 1) % rank.nprocs();
                let prev = (rank.id() + rank.nprocs() - 1) % rank.nprocs();
                rank.send(&w, next, round, &[rank.id() as f64]);
                rank.recv(&w, prev, round)[0]
            });
            assert_eq!(out.results, vec![3.0, 0.0, 1.0, 2.0], "round {round}");
        }
        assert_eq!(ex.jobs_run(), 5);
        assert!(!ex.is_poisoned());
    }

    #[test]
    fn executor_matches_one_shot_machine_bitwise() {
        let machine = Machine::new(8, CostParams::supercomputer());
        let program = |rank: &mut Rank| {
            let w = rank.world();
            let mut val = (rank.id() as f64 + 1.0).sqrt();
            let mut gap = 1;
            while gap < rank.nprocs() {
                if rank.id().is_multiple_of(2 * gap) {
                    let src = rank.id() + gap;
                    if src < rank.nprocs() {
                        val += rank.recv(&w, src, gap as u64)[0];
                    }
                } else if rank.id() % (2 * gap) == gap {
                    rank.send(&w, rank.id() - gap, gap as u64, &[val]);
                    break;
                }
                gap *= 2;
            }
            rank.charge_flops(3.0);
            val
        };
        let one_shot = machine.run(program);
        let mut ex = machine.executor();
        let first = ex.submit(program);
        let second = ex.submit(program);
        assert_eq!(one_shot.results, first.results);
        assert_eq!(first.results, second.results);
        assert_eq!(one_shot.stats.per_rank, first.stats.per_rank);
        assert_eq!(first.stats.per_rank, second.stats.per_rank);
    }

    #[test]
    fn workspace_stays_warm_across_jobs() {
        let mut ex = Executor::new(2, CostParams::unit());
        ex.submit(|rank| {
            let buf = rank.workspace().take(512);
            rank.workspace().put(buf);
        });
        let out = ex.submit(|rank| {
            let buf = rank.workspace().take(512);
            rank.workspace().put(buf);
            rank.workspace().stats()
        });
        for (hits, _misses) in out.results {
            assert!(hits >= 1, "the second job must reuse the first's buffer");
        }
    }

    #[test]
    fn job_panic_poisons_executor_and_wakes_peers() {
        let mut ex = Executor::new(2, CostParams::unit());
        let start = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| {
            ex.submit(|rank| {
                let w = rank.world();
                if rank.id() == 0 {
                    panic!("deliberate test panic");
                }
                // Blocks on a message that never comes; the poison from
                // rank 0 must wake it long before the deadlock timeout.
                let _ = rank.recv(&w, 0, 0);
            })
        }));
        let payload = res.expect_err("the job panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("deliberate test panic"),
            "lowest-rank panic propagates, got {msg:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "peers must be woken by poison, not the timeout"
        );
        assert!(ex.is_poisoned());
        assert_eq!(ex.jobs_run(), 0, "a panicked job did not complete");

        let res = catch_unwind(AssertUnwindSafe(|| ex.submit(|rank| rank.id())));
        let payload = res.expect_err("poisoned executor must refuse jobs");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("poisoned"), "got {msg:?}");
    }

    #[test]
    fn original_panic_payload_beats_poison_aborts() {
        // The culprit is rank 1; rank 0 blocks and is woken by the
        // poison envelope, re-panicking with the generic abort message.
        // The submitter must still receive rank 1's ORIGINAL payload,
        // not rank 0's secondary abort.
        let mut ex = Executor::new(2, CostParams::unit());
        let res = catch_unwind(AssertUnwindSafe(|| {
            ex.submit(|rank| {
                let w = rank.world();
                if rank.id() == 1 {
                    panic!("the real diagnostic");
                }
                let _ = rank.recv(&w, 1, 0);
            })
        }));
        let payload = res.expect_err("the job panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("the real diagnostic"),
            "culprit's payload must not be masked, got {msg:?}"
        );
    }

    #[test]
    fn try_submit_reports_poisoning_as_a_typed_error() {
        let mut ex = Executor::new(2, CostParams::unit());
        let ok = ex.try_submit(|rank| rank.id());
        assert_eq!(ok.expect("healthy executor accepts jobs").results, [0, 1]);
        let res = catch_unwind(AssertUnwindSafe(|| {
            ex.submit(|rank| {
                if rank.id() == 0 {
                    panic!("boom");
                }
                let w = rank.world();
                let _ = rank.recv(&w, 0, 0);
            })
        }));
        assert!(res.is_err(), "in-job panics still propagate");
        assert!(ex.is_poisoned());
        // The poisoned refusal is a value, not a panic: callers managing
        // executor lifecycles branch without catch_unwind.
        let err = ex.try_submit(|rank| rank.id()).expect_err("poisoned");
        assert_eq!(err, ExecutorPoisoned);
        assert!(err.to_string().contains("poisoned"));
    }

    #[test]
    fn distinct_jobs_use_distinct_epochs() {
        // Two identical jobs in a row: if epochs were shared, the second
        // job's sends could match the first's receives out of order. The
        // per-job balance checks passing (no panic) plus identical
        // results prove isolation.
        let mut ex = Executor::new(3, CostParams::unit());
        let job = |rank: &mut Rank| {
            let w = rank.world();
            if rank.id() == 0 {
                for dst in 1..rank.nprocs() {
                    rank.send(&w, dst, 7, &[dst as f64]);
                }
                0.0
            } else {
                rank.recv(&w, 0, 7)[0]
            }
        };
        let a = ex.submit(job);
        let b = ex.submit(job);
        assert_eq!(a.results, b.results);
        assert_eq!(a.results, vec![0.0, 1.0, 2.0]);
    }
}
