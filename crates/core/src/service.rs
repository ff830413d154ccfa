//! # A multi-tenant QR service: warm executor pool + coalescing stage
//!
//! [`crate::session::Session`] made one *client* cheap: a warm executor
//! serves that client's problems back-to-back with no thread spawns,
//! and same-shape batches fuse into shared reduction trees. But a
//! session is `&mut self` — many concurrent clients would each need
//! their own, and naively giving every client a session (or worse, a
//! `Machine::run` spawn) oversubscribes the host and forfeits exactly
//! the batching opportunity concurrent load creates.
//!
//! [`QrService`] is the serving layer on top:
//!
//! * **A warm pool.** `pool` worker threads, each owning one session
//!   (`P` persistent rank threads), spawned once at
//!   [`QrService::start`] — the service runs no other thread, and a
//!   rank computes on its own thread only, so at most `pool × P` threads
//!   do arithmetic at once.
//! * **One staging structure behind one lock.** Between
//!   [`QrService::submit`] and a worker, a job lives in a single
//!   `Mutex`-guarded queue of *buckets*: the submitting thread stages
//!   its own job (appending it to the newest unfilled bucket of its key
//!   `(shape, backend)`, or opening one), and an idle worker takes the
//!   oldest bucket that is due. There is no scheduler thread and no
//!   second queue to cross.
//! * **Admission control that bounds accepted work.**
//!   [`ServiceConfig::queue_cap`] caps the jobs accepted and not yet
//!   handed to a worker. At the cap `submit` either rejects immediately
//!   with [`ServiceFull::QueueFull`] ([`Admission::Reject`], the
//!   default) or blocks until a bucket leaves or a deadline expires
//!   ([`Admission::Block`]).
//! * **Coalescing.** A bucket is dispatched to a pool session as
//!   **one** `factor_batch` call when it holds `coalesce_min` jobs, when
//!   its oldest job has lingered `max_linger`, or when the stage is
//!   full (nothing more can join it, so waiting is pointless).
//!   Same-shape tall-skinny buckets therefore run *fused* (one set of
//!   reduction trees for the whole bucket, `S_batch ≈ S_single`) — the
//!   latency win materializes precisely when the service is busiest.
//!   Per-problem arithmetic inside a fused batch is identical to a
//!   standalone run, so results are **bitwise identical** to
//!   [`crate::session::Session::factor`].
//! * **Streaming jobs.** [`QrService::submit_streaming`] runs a block
//!   sequence through
//!   [`crate::session::Session::factor_streaming`] on a pooled
//!   executor — an [`crate::updating::UpdatingQr`] append per block.
//!   Each stream carries a unique bucket key, so it dispatches
//!   immediately and never coalesces with other work.
//! * **Futures-like handles.** `submit` returns a [`JobHandle`];
//!   [`JobHandle::wait`] blocks for the [`JobResult`] (output plus
//!   per-job queue-wait / coalesce-size / wall-time stats),
//!   [`JobHandle::wait_timeout`] gives the handle back on timeout.
//! * **Fault isolation and retry.** A job that panics inside the
//!   executor poisons only *its* session; the worker replaces the
//!   executor ([`crate::session::Session::reset`]) and — under a
//!   [`RetryPolicy`] — transparently re-dispatches the bucket on the
//!   fresh executor, so a killed executor costs latency, not an error
//!   ([`JobStats::retries`] and [`ServiceStats::retried`] record it).
//!   Only once attempts are exhausted do the bucket's handles resolve
//!   with [`ServiceError::JobPanicked`]. Other pool sessions never
//!   notice.
//!
//! Shutdown is graceful: dropping the service (or calling
//! [`QrService::shutdown`]) closes the stage to new submissions, makes
//! every staged bucket due, and joins the workers — every *accepted*
//! job completes and its handle resolves.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qr3d_machine::Machine;
use qr3d_matrix::dense::Matrix;

use crate::backend::{FactorError, FactorOutput, FactorParams, QrBackend};
use crate::session::{BatchOutput, Session};

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// What [`QrService::submit`] does when `queue_cap` jobs are already
/// accepted and waiting for a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Fail fast with [`ServiceFull::QueueFull`] — the caller sheds
    /// load (the default).
    Reject,
    /// Wait up to `timeout` for space, then fail with
    /// [`ServiceFull::DeadlineExpired`].
    Block {
        /// How long a submission may wait for queue space.
        timeout: Duration,
    },
}

/// How the service responds to a bucket whose executor died mid-job.
/// The panic is contained either way (the poisoned session is always
/// replaced); the policy decides whether the *jobs* still resolve
/// with a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryPolicy {
    /// Re-dispatch a panicked bucket at most this many times before
    /// fulfilling its jobs with [`ServiceError::JobPanicked`]. `0`
    /// (the default) fails fast.
    pub max_retries: u32,
    /// Sleep between attempts — headroom for whatever killed the
    /// executor to clear.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// Upper clamp on `max_retries`.
    pub const MAX_RETRIES: u32 = 8;

    /// Retry up to `max_retries` times with no backoff.
    pub fn retries(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries: max_retries.min(Self::MAX_RETRIES),
            backoff: Duration::ZERO,
        }
    }

    /// Set the inter-attempt backoff.
    pub fn with_backoff(mut self, backoff: Duration) -> RetryPolicy {
        self.backoff = backoff;
        self
    }
}

/// Deployment knobs for a [`QrService`]: [`ServiceConfig::new`] gives
/// the defaults, the `with_*` builders change one knob each (and clamp
/// it).
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Ranks per pooled executor (`P`).
    pub ranks: usize,
    /// Warm sessions in the pool.
    pub pool: usize,
    /// How many jobs may be accepted and not yet handed to a worker.
    pub queue_cap: usize,
    /// Full-queue policy.
    pub admission: Admission,
    /// Dispatch a bucket as soon as it holds this many jobs. `1`
    /// disables coalescing (every job is its own batch).
    pub coalesce_min: usize,
    /// Dispatch a bucket when its oldest job has waited this long,
    /// even below `coalesce_min` — bounds the latency cost of waiting
    /// for peers that never arrive.
    pub max_linger: Duration,
    /// What to do when a bucket's executor dies mid-job.
    pub retry: RetryPolicy,
    /// Advisory context handed to every pool session (machine prices,
    /// κ estimate, rank hint).
    pub params: FactorParams,
}

impl ServiceConfig {
    /// Upper clamp on the pool size.
    pub const MAX_POOL: usize = 64;
    /// Upper clamp on the queue capacity.
    pub const MAX_QUEUE_CAP: usize = 1 << 16;

    /// The compiled-in defaults: pool of 2, queue of 64, reject-on-full,
    /// coalesce at 4 jobs or 1 ms of linger.
    pub fn new(ranks: usize, params: FactorParams) -> ServiceConfig {
        ServiceConfig {
            ranks: ranks.max(1),
            pool: 2,
            queue_cap: 64,
            admission: Admission::Reject,
            coalesce_min: 4,
            max_linger: Duration::from_millis(1),
            retry: RetryPolicy::default(),
            params,
        }
    }

    /// Set the pool size (clamped to `1..=`[`ServiceConfig::MAX_POOL`]).
    pub fn with_pool(mut self, pool: usize) -> ServiceConfig {
        self.pool = pool.clamp(1, Self::MAX_POOL);
        self
    }

    /// Set the queue capacity (clamped to
    /// `1..=`[`ServiceConfig::MAX_QUEUE_CAP`]).
    pub fn with_queue_cap(mut self, cap: usize) -> ServiceConfig {
        self.queue_cap = cap.clamp(1, Self::MAX_QUEUE_CAP);
        self
    }

    /// Set the full-queue policy.
    pub fn with_admission(mut self, admission: Admission) -> ServiceConfig {
        self.admission = admission;
        self
    }

    /// Set the coalescing thresholds.
    pub fn with_coalescing(mut self, coalesce_min: usize, max_linger: Duration) -> ServiceConfig {
        self.coalesce_min = coalesce_min.max(1);
        self.max_linger = max_linger;
        self
    }

    /// Disable coalescing: every job dispatches immediately as a
    /// batch of one (the baseline the throughput bench compares
    /// against).
    pub fn uncoalesced(self) -> ServiceConfig {
        self.with_coalescing(1, Duration::ZERO)
    }

    /// Set the executor-death retry policy (`max_retries` clamped to
    /// [`RetryPolicy::MAX_RETRIES`]).
    pub fn with_retry(mut self, retry: RetryPolicy) -> ServiceConfig {
        self.retry = RetryPolicy {
            max_retries: retry.max_retries.min(RetryPolicy::MAX_RETRIES),
            ..retry
        };
        self
    }
}

// ---------------------------------------------------------------------
// Errors and results
// ---------------------------------------------------------------------

/// Admission failure: the job was **not** accepted (nothing will run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceFull {
    /// `cap` accepted jobs were waiting for a worker and the policy
    /// is [`Admission::Reject`].
    QueueFull {
        /// The configured queue capacity.
        cap: usize,
    },
    /// The [`Admission::Block`] timeout expired before space freed up.
    DeadlineExpired,
    /// The service is shutting down.
    Closed,
}

impl std::fmt::Display for ServiceFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceFull::QueueFull { cap } => {
                write!(f, "submission queue full ({cap} jobs); retry or shed load")
            }
            ServiceFull::DeadlineExpired => write!(f, "admission deadline expired"),
            ServiceFull::Closed => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceFull {}

/// Why an *accepted* job's result is an error.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The factorization itself failed recoverably (e.g. CholeskyQR2
    /// breakdown) — the session is fine.
    Factor(FactorError),
    /// The job's bucket panicked inside the executor. The session that
    /// ran it was poisoned and has been replaced; resubmitting is safe.
    JobPanicked(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Factor(e) => write!(f, "{e}"),
            ServiceError::JobPanicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Per-job observability, measured by the service itself.
#[derive(Debug, Clone, Copy)]
pub struct JobStats {
    /// Submission to dispatch — time spent staged.
    pub queue_wait: Duration,
    /// How many jobs shared the dispatched bucket (≥ 1; > 1 means it
    /// coalesced).
    pub coalesced: usize,
    /// Whether the bucket ran as a *fused* batch (shared reduction
    /// trees) — see [`crate::session::BatchOutput::fused`].
    pub fused: bool,
    /// How many times the bucket was re-dispatched after an executor
    /// death before this outcome (0 = first attempt).
    pub retries: u32,
    /// Submission to completion, wall clock.
    pub wall: Duration,
}

/// What a resolved [`JobHandle`] yields.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The factorization, or why it failed.
    pub output: Result<FactorOutput, ServiceError>,
    /// The service-side timing of this job.
    pub stats: JobStats,
}

struct Slot {
    submitted: Instant,
    state: Mutex<Option<JobResult>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            submitted: Instant::now(),
            state: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn fulfill(&self, result: JobResult) {
        let mut state = self.state.lock().unwrap();
        *state = Some(result);
        self.cv.notify_all();
    }
}

/// A pending job: block on [`JobHandle::wait`] for its [`JobResult`].
/// Every *accepted* job resolves — including through worker panics and
/// service shutdown.
pub struct JobHandle {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("done", &self.is_done())
            .finish()
    }
}

impl JobHandle {
    /// True once the result is ready ([`JobHandle::wait`] won't block).
    pub fn is_done(&self) -> bool {
        self.slot.state.lock().unwrap().is_some()
    }

    /// Block until the job resolves.
    pub fn wait(self) -> JobResult {
        let mut state = self.slot.state.lock().unwrap();
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self.slot.cv.wait(state).unwrap();
        }
    }

    /// Block up to `timeout`; on expiry the handle is returned so the
    /// caller can keep waiting.
    pub fn wait_timeout(self, timeout: Duration) -> Result<JobResult, JobHandle> {
        let deadline = Instant::now() + timeout;
        let mut state = self.slot.state.lock().unwrap();
        loop {
            if let Some(result) = state.take() {
                return Ok(result);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(state);
                return Err(self);
            }
            let (guard, _) = self.slot.cv.wait_timeout(state, deadline - now).unwrap();
            state = guard;
        }
    }
}

// ---------------------------------------------------------------------
// Internal plumbing: jobs, buckets, the stage
// ---------------------------------------------------------------------

/// The coalescing key: jobs factor together only if their whole
/// dispatch is interchangeable — same shape, same backend (including
/// its tradeoff parameter, compared bit-for-bit). Streaming jobs carry
/// a unique nonzero `stream` id, so no two ever share a bucket (their
/// block sequences are not interchangeable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BucketKey {
    m: usize,
    n: usize,
    backend: (u8, u64),
    stream: u64,
}

fn backend_key(b: QrBackend) -> (u8, u64) {
    match b {
        QrBackend::Tsqr => (1, 0),
        QrBackend::Caqr1d { epsilon } => (2, epsilon.to_bits()),
        QrBackend::House2d => (3, 0),
        QrBackend::Caqr2d => (4, 0),
        QrBackend::Caqr3d { delta } => (5, delta.to_bits()),
        QrBackend::CholQr2 => (6, 0),
        QrBackend::PivotQr => (7, 0),
        QrBackend::RandRrqr => (8, 0),
    }
}

/// One accepted request: the matrix to factor — or, for a stream
/// (`key.stream != 0`), the block sequence to run through
/// [`crate::session::Session::factor_streaming`] — and the slot its
/// handle waits on.
struct Job {
    matrices: Vec<Matrix>,
    backend: QrBackend,
    key: BucketKey,
    slot: Arc<Slot>,
}

/// The jobs of one key that run as one dispatch: `matrices[i]` is the
/// problem of `slots[i]`. A stream is always alone in its bucket, and
/// its `matrices` are its blocks.
struct Bucket {
    key: BucketKey,
    backend: QrBackend,
    matrices: Vec<Matrix>,
    slots: Vec<Arc<Slot>>,
    /// When the bucket was opened: its linger runs from here.
    oldest: Instant,
}

struct Staged {
    /// In the order they were opened.
    buckets: VecDeque<Bucket>,
    /// Jobs over all buckets — what `queue_cap` bounds.
    jobs: usize,
    closed: bool,
}

/// Everything accepted and not yet handed to a worker, behind one lock.
/// Submitters [`push`](Staging::push) their own job into a bucket;
/// workers [`take`](Staging::take) the oldest bucket that is *due*: it
/// holds `coalesce_min` jobs, is a stream, has lingered
/// `max_linger`, or the stage is full or closed. After
/// [`close`](Staging::close) pushes fail but takes keep draining what
/// was accepted before reporting `None` — that drain is what makes
/// shutdown lossless.
struct Staging {
    state: Mutex<Staged>,
    /// Workers sleep here until a bucket is due.
    due: Condvar,
    /// Blocked submitters sleep here until a bucket leaves.
    space: Condvar,
    cap: usize,
    coalesce_min: usize,
    max_linger: Duration,
}

impl Staging {
    fn new(cfg: &ServiceConfig) -> Staging {
        Staging {
            state: Mutex::new(Staged {
                buckets: VecDeque::new(),
                jobs: 0,
                closed: false,
            }),
            due: Condvar::new(),
            space: Condvar::new(),
            cap: cfg.queue_cap,
            coalesce_min: cfg.coalesce_min,
            max_linger: cfg.max_linger,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Staged> {
        self.state.lock().expect(STAGE_LOCK)
    }

    /// No further job may join: a stream's unique key means waiting for
    /// peers could only add latency, and a bucket of `coalesce_min` is
    /// whole.
    fn sealed(&self, bucket: &Bucket) -> bool {
        bucket.slots.len() >= self.coalesce_min || bucket.key.stream != 0
    }

    fn len(&self) -> usize {
        self.lock().jobs
    }

    /// Admit `job` if fewer than `cap` jobs are staged — waiting for
    /// space as `admission` allows — and append it to the newest bucket
    /// of its key, or open one if that bucket is sealed or absent.
    fn push(&self, job: Job, admission: Admission) -> Result<(), ServiceFull> {
        let give_up = match admission {
            Admission::Reject => None,
            Admission::Block { timeout } => Some(Instant::now() + timeout),
        };
        let mut st = self.lock();
        while !st.closed && st.jobs >= self.cap {
            let Some(give_up) = give_up else {
                return Err(ServiceFull::QueueFull { cap: self.cap });
            };
            let now = Instant::now();
            if now >= give_up {
                return Err(ServiceFull::DeadlineExpired);
            }
            st = self
                .space
                .wait_timeout(st, give_up - now)
                .expect(STAGE_LOCK)
                .0;
        }
        if st.closed {
            return Err(ServiceFull::Closed);
        }
        st.jobs += 1;
        let full = st.jobs >= self.cap;
        let newest = st.buckets.iter_mut().rev().find(|b| b.key == job.key);
        // Wake a worker when there is something to take or a new linger
        // to time, not per request: a job that merely joins a bucket
        // changes nothing a sleeping worker is waiting for.
        let wake = match newest.filter(|b| !self.sealed(b)) {
            Some(bucket) => {
                bucket.matrices.extend(job.matrices);
                bucket.slots.push(job.slot);
                self.sealed(bucket)
            }
            None => {
                st.buckets.push_back(Bucket {
                    key: job.key,
                    backend: job.backend,
                    matrices: job.matrices,
                    slots: vec![job.slot],
                    oldest: Instant::now(),
                });
                true
            }
        };
        if wake || full {
            self.due.notify_one();
        }
        Ok(())
    }

    /// The oldest due bucket, sleeping until there is one; `None` once
    /// the stage is closed and empty.
    fn take(&self) -> Option<Bucket> {
        let mut st = self.lock();
        loop {
            let now = Instant::now();
            // A full stage admits no peer and a closed one never will,
            // so lingering could only add latency: everything is due.
            let flush = st.closed || st.jobs >= self.cap;
            let lingered = |b: &Bucket| now.saturating_duration_since(b.oldest);
            let due = st
                .buckets
                .iter()
                .position(|b| flush || self.sealed(b) || lingered(b) >= self.max_linger);
            if let Some(i) = due {
                let bucket = st.buckets.remove(i).expect("position is in range");
                st.jobs -= bucket.slots.len();
                self.space.notify_all();
                // This worker is about to be busy: leave the next
                // bucket — due now, or the next deadline — to another.
                if !st.buckets.is_empty() {
                    self.due.notify_one();
                }
                return Some(bucket);
            }
            // Buckets open in order, so the front one's linger ends first.
            st = match st.buckets.front().map(lingered) {
                Some(so_far) => {
                    let left = self.max_linger.saturating_sub(so_far);
                    self.due.wait_timeout(st, left).expect(STAGE_LOCK).0
                }
                None if st.closed => return None,
                None => self.due.wait(st).expect(STAGE_LOCK),
            };
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.due.notify_all();
        self.space.notify_all();
    }
}

/// Why a poisoned stage lock is a bug: no code path panics holding it.
const STAGE_LOCK: &str = "nothing panics while holding the stage lock";

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    panicked: AtomicU64,
    batches: AtomicU64,
    fused_batches: AtomicU64,
    coalesced_jobs: AtomicU64,
    executors_replaced: AtomicU64,
    retried: AtomicU64,
}

/// A snapshot of the service's lifetime counters
/// ([`QrService::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs accepted.
    pub submitted: u64,
    /// Submissions turned away at admission.
    pub rejected: u64,
    /// Jobs resolved with `Ok`.
    pub completed: u64,
    /// Jobs resolved with [`ServiceError::Factor`].
    pub failed: u64,
    /// Jobs resolved with [`ServiceError::JobPanicked`].
    pub panicked: u64,
    /// Buckets dispatched.
    pub batches: u64,
    /// Dispatched buckets that ran fused.
    pub fused_batches: u64,
    /// Jobs that shared a bucket with at least one peer.
    pub coalesced_jobs: u64,
    /// Poisoned executors drained and respawned.
    pub executors_replaced: u64,
    /// Jobs re-dispatched after an executor death (counted once per
    /// job per extra attempt).
    pub retried: u64,
    /// Jobs accepted and not yet handed to a worker.
    pub queue_depth: usize,
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

/// The warm multi-tenant QR service — see the module docs. Construct
/// with [`QrService::start`], submit with [`QrService::submit`] /
/// [`QrService::submit_with`], resolve with [`JobHandle::wait`].
/// `&self` submission: share it across client threads behind an `Arc`.
pub struct QrService {
    cfg: ServiceConfig,
    stage: Arc<Staging>,
    counters: Arc<Counters>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for QrService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QrService")
            .field("ranks", &self.cfg.ranks)
            .field("pool", &self.cfg.pool)
            .field("queue_cap", &self.cfg.queue_cap)
            .finish()
    }
}

impl QrService {
    /// Spawn the pool (`cfg.pool` workers, each with a session of
    /// `cfg.ranks` ranks) on a fresh [`Machine`] priced by
    /// `cfg.params.machine`.
    pub fn start(cfg: ServiceConfig) -> QrService {
        QrService::start_on_machine(Machine::new(cfg.ranks, cfg.params.machine), cfg)
    }

    /// Spawn the pool on an explicitly configured machine (e.g. a
    /// specific transport) — every pool session clones it. The
    /// machine's cost parameters govern the clocks and the advisor,
    /// overriding `cfg.params.machine`, exactly as
    /// [`crate::session::Session::on_machine`].
    pub fn start_on_machine(machine: Machine, cfg: ServiceConfig) -> QrService {
        assert_eq!(
            machine.procs(),
            cfg.ranks,
            "machine has {} ranks but the service is configured for {}",
            machine.procs(),
            cfg.ranks
        );
        let stage = Arc::new(Staging::new(&cfg));
        let counters = Arc::new(Counters::default());

        let workers = (0..cfg.pool)
            .map(|w| {
                let stage = Arc::clone(&stage);
                let counters = Arc::clone(&counters);
                let machine = machine.clone();
                let params = cfg.params;
                let retry = cfg.retry;
                std::thread::Builder::new()
                    .name(format!("qr3d-svc-worker-{w}"))
                    .spawn(move || {
                        let mut session = Session::on_machine(machine, params);
                        while let Some(bucket) = stage.take() {
                            serve_bucket(&mut session, bucket, &counters, retry);
                        }
                    })
                    .expect("spawn service worker")
            })
            .collect();

        QrService {
            cfg,
            stage,
            counters,
            workers,
        }
    }

    /// The resolved configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Submit with the cost-advised backend
    /// ([`FactorParams::auto`] under this service's params).
    pub fn submit(&self, a: Matrix) -> Result<JobHandle, ServiceFull> {
        let backend = self.cfg.params.auto(a.rows(), a.cols(), self.cfg.ranks);
        self.submit_with(a, backend)
    }

    /// Submit with an explicit backend. Jobs with the same
    /// `(shape, backend)` may coalesce into one fused
    /// `factor_batch` — results are bitwise identical either way.
    ///
    /// # Panics
    /// On host-detectable shape-contract violations (`m ≥ n ≥ 1`, and
    /// `m ≥ n·P` for the tall-skinny backends), *before* admission —
    /// a malformed submission must not poison a pooled executor.
    pub fn submit_with(&self, a: Matrix, backend: QrBackend) -> Result<JobHandle, ServiceFull> {
        let (m, n) = (a.rows(), a.cols());
        assert!(
            m >= n && n >= 1,
            "service factorizations need m ≥ n ≥ 1, got {m} × {n}"
        );
        if matches!(
            backend,
            QrBackend::Tsqr | QrBackend::Caqr1d { .. } | QrBackend::RandRrqr
        ) {
            assert!(
                m >= n * self.cfg.ranks,
                "backend {backend:?} needs m ≥ n·P ({m} × {n} on {} ranks)",
                self.cfg.ranks
            );
        }
        self.enqueue(vec![a], backend, 0)
    }

    /// Submit a *streaming* factorization: the blocks run through
    /// [`crate::session::Session::factor_streaming`] on a pooled
    /// executor — one append job per block on its warm ranks — and the
    /// handle resolves with the factors of the concatenated matrix.
    /// Streaming jobs dispatch immediately and never coalesce (their
    /// block sequences are not interchangeable with anything else).
    ///
    /// # Panics
    /// If `blocks` is empty, the column counts disagree, or any block
    /// has fewer than `n·P` rows (the per-append contract of
    /// [`crate::updating::UpdatingQr::append_rows`]) — checked *before*
    /// admission, so a malformed stream cannot poison a pooled
    /// executor.
    pub fn submit_streaming(&self, blocks: Vec<Matrix>) -> Result<JobHandle, ServiceFull> {
        assert!(!blocks.is_empty(), "submit_streaming: no blocks");
        let n = blocks[0].cols();
        assert!(n >= 1, "submit_streaming: need at least one column");
        let p = self.cfg.ranks;
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(
                b.cols(),
                n,
                "submit_streaming: block {i} has {} columns, block 0 has {n}",
                b.cols()
            );
            assert!(
                b.rows() >= n * p,
                "submit_streaming: block {i} needs ≥ n·P = {} rows, got {}",
                n * p,
                b.rows()
            );
        }
        static NEXT_STREAM: AtomicU64 = AtomicU64::new(1);
        let stream = NEXT_STREAM.fetch_add(1, Ordering::Relaxed);
        self.enqueue(blocks, QrBackend::Tsqr, stream)
    }

    fn enqueue(
        &self,
        matrices: Vec<Matrix>,
        backend: QrBackend,
        stream: u64,
    ) -> Result<JobHandle, ServiceFull> {
        let key = BucketKey {
            m: matrices.iter().map(Matrix::rows).sum(),
            n: matrices[0].cols(),
            backend: backend_key(backend),
            stream,
        };
        let slot = Slot::new();
        let job = Job {
            matrices,
            backend,
            key,
            slot: Arc::clone(&slot),
        };
        let admitted = self.stage.push(job, self.cfg.admission);
        let counter = match admitted {
            Ok(()) => &self.counters.submitted,
            Err(_) => &self.counters.rejected,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        admitted.map(|()| JobHandle { slot })
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            panicked: c.panicked.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            fused_batches: c.fused_batches.load(Ordering::Relaxed),
            coalesced_jobs: c.coalesced_jobs.load(Ordering::Relaxed),
            executors_replaced: c.executors_replaced.load(Ordering::Relaxed),
            retried: c.retried.load(Ordering::Relaxed),
            queue_depth: self.stage.len(),
        }
    }

    /// Graceful shutdown: stop admitting, serve everything already
    /// accepted, join the pool. Equivalent to dropping the service, but
    /// explicit about when the join happens.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.stage.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for QrService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

// ---------------------------------------------------------------------
// Serving a bucket
// ---------------------------------------------------------------------

fn serve_bucket(session: &mut Session, bucket: Bucket, counters: &Counters, retry: RetryPolicy) {
    let Bucket {
        key,
        backend,
        matrices,
        slots,
        ..
    } = bucket;
    let k = slots.len();
    counters.batches.fetch_add(1, Ordering::Relaxed);
    if k >= 2 {
        counters
            .coalesced_jobs
            .fetch_add(k as u64, Ordering::Relaxed);
    }
    let started = Instant::now();
    let mut attempt: u32 = 0;
    let outcome = loop {
        let ran = catch_unwind(AssertUnwindSafe(|| {
            if key.stream != 0 {
                let out = session.factor_streaming(&matrices);
                let critical = out.critical;
                return BatchOutput {
                    outputs: vec![Ok(out)],
                    critical,
                    fused: false,
                };
            }
            session.factor_batch(&matrices, backend)
        }));
        match ran {
            Ok(batch) => break Ok(batch),
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                // Only THIS session's executor is poisoned; drain it
                // and respawn before anything else runs on it. The
                // rest of the pool never noticed.
                if session.is_poisoned() {
                    session.reset();
                    counters.executors_replaced.fetch_add(1, Ordering::Relaxed);
                }
                if attempt < retry.max_retries {
                    attempt += 1;
                    counters.retried.fetch_add(k as u64, Ordering::Relaxed);
                    if !retry.backoff.is_zero() {
                        std::thread::sleep(retry.backoff);
                    }
                    continue;
                }
                break Err(msg);
            }
        }
    };
    let done = Instant::now();
    let fused = matches!(&outcome, Ok(batch) if batch.fused);
    if fused {
        counters.fused_batches.fetch_add(1, Ordering::Relaxed);
    }
    let mut outputs = outcome.map(|batch| batch.outputs.into_iter());
    for slot in slots {
        let output = match &mut outputs {
            Ok(outputs) => outputs
                .next()
                .expect("one output per problem")
                .map_err(ServiceError::Factor),
            Err(msg) => Err(ServiceError::JobPanicked(msg.clone())),
        };
        let counter = match &output {
            Ok(_) => &counters.completed,
            Err(ServiceError::Factor(_)) => &counters.failed,
            Err(ServiceError::JobPanicked(_)) => &counters.panicked,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        slot.fulfill(JobResult {
            output,
            stats: JobStats {
                queue_wait: started.saturating_duration_since(slot.submitted),
                coalesced: k,
                fused,
                retries: attempt,
                wall: done.saturating_duration_since(slot.submitted),
            },
        });
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr3d_machine::{
        Endpoint, Envelope, FaultPlan, FaultyTransport, MpscTransport, RecvTimedOut, Transport,
    };

    fn params() -> FactorParams {
        FactorParams::default()
    }

    /// A service on `cfg` whose fabric kills rank 1 at its first send,
    /// under the default (fail-fast) retry policy: the first bucket
    /// dispatched loses that rank, its peers' receives time out, and the
    /// job panics. The short receive timeout keeps the wait brief.
    fn start_with_a_rank_kill(cfg: ServiceConfig) -> QrService {
        let machine = Machine::new(cfg.ranks, cfg.params.machine)
            .with_recv_timeout(Duration::from_millis(100));
        let plan = FaultPlan::new().kill_at_send(1, 1);
        let faulty = FaultyTransport::wrap(Arc::clone(machine.transport()), plan);
        QrService::start_on_machine(machine.with_transport(Arc::new(faulty)), cfg)
    }

    fn tall(seed: u64) -> Matrix {
        Matrix::random(32, 4, seed)
    }

    #[test]
    fn with_retry_clamps_max_retries() {
        let cfg = ServiceConfig::new(4, params()).with_retry(RetryPolicy::retries(99));
        assert_eq!(cfg.retry.max_retries, RetryPolicy::MAX_RETRIES);
    }

    #[test]
    fn submit_resolves_with_the_factorization() {
        let svc = QrService::start(ServiceConfig::new(2, params()).with_pool(1));
        let a = tall(7);
        let h = svc.submit_with(a.clone(), QrBackend::Tsqr).unwrap();
        let res = h.wait();
        let out = res.output.expect("tsqr never fails on full rank");
        assert!(out.residual(&a) < 1e-12);
        assert_eq!(res.stats.coalesced, 1);
        let s = svc.stats();
        assert_eq!((s.submitted, s.completed, s.rejected), (1, 1, 0));
    }

    #[test]
    fn submit_streaming_resolves_bitwise_with_factor_streaming() {
        let p = 2;
        let blocks: Vec<Matrix> = (0..2u64).map(|i| Matrix::random(16, 4, 60 + i)).collect();
        let svc = QrService::start(ServiceConfig::new(p, params()).with_pool(1));
        let h = svc.submit_streaming(blocks.clone()).unwrap();
        let res = h.wait();
        let out = res.output.expect("streaming tsqr on full rank");
        let mut s = Session::new(p, params());
        let want = s.factor_streaming(&blocks);
        assert_eq!(out.q, want.q, "service streaming must match bitwise");
        assert_eq!(out.r, want.r);
        assert_eq!(res.stats.coalesced, 1, "streaming jobs never coalesce");
    }

    #[test]
    fn identical_streams_never_share_a_bucket() {
        // Two streams with identical shapes would coalesce if keyed
        // like one-shot jobs; their unique stream ids must keep them
        // apart AND dispatch them without waiting out the linger.
        let cfg = ServiceConfig::new(2, params())
            .with_pool(1)
            .with_coalescing(64, Duration::from_secs(60));
        let svc = QrService::start(cfg);
        let blocks: Vec<Matrix> = (0..2u64).map(|i| Matrix::random(8, 2, 40 + i)).collect();
        let h1 = svc.submit_streaming(blocks.clone()).unwrap();
        let h2 = svc.submit_streaming(blocks).unwrap();
        let (r1, r2) = (h1.wait(), h2.wait());
        assert_eq!((r1.stats.coalesced, r2.stats.coalesced), (1, 1));
        assert_eq!(
            r1.output.expect("stream 1").q,
            r2.output.expect("stream 2").q,
            "same blocks, same factors"
        );
        let s = svc.stats();
        assert_eq!(s.batches, 2, "one dispatch per stream");
        assert_eq!(s.coalesced_jobs, 0);
    }

    #[test]
    fn streaming_panic_is_contained_and_pool_recovers() {
        // The kill lands in a stream, which poisons the session; the
        // next stream must run on the replaced executor.
        let svc = start_with_a_rank_kill(ServiceConfig::new(2, params()).with_pool(1));
        let blocks: Vec<Matrix> = (0..2u64).map(|i| Matrix::random(8, 2, 44 + i)).collect();
        let boom = svc.submit_streaming(blocks.clone()).unwrap();
        assert!(matches!(
            boom.wait().output,
            Err(ServiceError::JobPanicked(_))
        ));
        let h = svc.submit_streaming(blocks).unwrap();
        assert!(h.wait().output.is_ok(), "pool recovered for streaming");
        let s = svc.stats();
        assert_eq!((s.panicked, s.completed, s.retried), (1, 1, 0));
        assert_eq!(s.executors_replaced, 1);
    }

    #[test]
    #[should_panic(expected = "no blocks")]
    fn submit_streaming_rejects_empty() {
        let svc = QrService::start(ServiceConfig::new(2, params()).with_pool(1));
        let _ = svc.submit_streaming(Vec::new());
    }

    #[test]
    #[should_panic(expected = "block 1 has 3 columns")]
    fn submit_streaming_rejects_column_mismatch() {
        let svc = QrService::start(ServiceConfig::new(2, params()).with_pool(1));
        let _ = svc.submit_streaming(vec![Matrix::random(8, 2, 1), Matrix::random(8, 3, 2)]);
    }

    #[test]
    #[should_panic(expected = "needs ≥ n·P")]
    fn submit_streaming_rejects_short_block() {
        let svc = QrService::start(ServiceConfig::new(4, params()).with_pool(1));
        let _ = svc.submit_streaming(vec![Matrix::random(8, 3, 1)]);
    }

    /// A fabric whose sends wait for a lock the test holds: a job
    /// dispatched while the test holds it keeps its worker busy until
    /// the test lets go, however fast the machine.
    #[derive(Debug)]
    struct Gated(Arc<Mutex<()>>);

    struct GatedEndpoint {
        inner: Box<dyn Endpoint>,
        gate: Arc<Mutex<()>>,
    }

    impl Transport for Gated {
        fn name(&self) -> &'static str {
            "gated"
        }

        fn connect(&self, p: usize) -> Vec<Box<dyn Endpoint>> {
            let gated = |inner| -> Box<dyn Endpoint> {
                Box::new(GatedEndpoint {
                    inner,
                    gate: Arc::clone(&self.0),
                })
            };
            MpscTransport.connect(p).into_iter().map(gated).collect()
        }
    }

    impl Endpoint for GatedEndpoint {
        fn send(&mut self, dst: usize, env: Envelope, patience: Duration) {
            drop(self.gate.lock());
            self.inner.send(dst, env, patience)
        }

        fn try_send(&mut self, dst: usize, env: Envelope) -> bool {
            self.inner.try_send(dst, env)
        }

        fn recv(&mut self, timeout: Duration) -> Result<Envelope, RecvTimedOut> {
            self.inner.recv(timeout)
        }
    }

    #[test]
    fn reject_admission_sheds_load_at_cap() {
        // `queue_cap` bounds the jobs accepted and not yet handed to a
        // worker: with the only worker held inside a job, exactly `cap`
        // more are accepted and the next one bounces.
        let cap = 3;
        let cfg = ServiceConfig::new(2, params())
            .with_pool(1)
            .with_queue_cap(cap)
            .uncoalesced();
        let gate = Arc::new(Mutex::new(()));
        let machine =
            Machine::new(2, cfg.params.machine).with_transport(Arc::new(Gated(Arc::clone(&gate))));
        let svc = QrService::start_on_machine(machine, cfg);
        let held = gate.lock().unwrap();
        let mut handles = vec![svc.submit_with(tall(0), QrBackend::Tsqr).unwrap()];
        let patience = Instant::now() + Duration::from_secs(30);
        while svc.stats().batches == 0 {
            assert!(Instant::now() < patience, "the worker never took the job");
            std::thread::yield_now();
        }
        for seed in 1..=cap as u64 {
            handles.push(svc.submit_with(tall(seed), QrBackend::Tsqr).unwrap());
        }
        assert_eq!(
            svc.submit_with(tall(9), QrBackend::Tsqr).unwrap_err(),
            ServiceFull::QueueFull { cap }
        );
        let s = svc.stats();
        assert_eq!((s.submitted, s.rejected, s.queue_depth), (4, 1, cap));
        drop(held);
        for h in handles {
            assert!(h.wait().output.is_ok(), "accepted jobs all complete");
        }
        assert_eq!(svc.stats().queue_depth, 0);
    }

    #[test]
    fn a_full_stage_does_not_wait_out_the_linger() {
        // With room for 2 jobs no bucket can ever reach the coalesce_min
        // of 8. A full stage admits no peer, so it must dispatch what it
        // holds instead of lingering a minute per pair.
        let linger = Duration::from_secs(60);
        let cfg = ServiceConfig::new(2, params())
            .with_pool(1)
            .with_queue_cap(2)
            .with_admission(Admission::Block { timeout: linger })
            .with_coalescing(8, linger);
        let svc = QrService::start(cfg);
        let begun = Instant::now();
        let handles: Vec<JobHandle> = (0..16)
            .map(|seed| svc.submit_with(tall(seed), QrBackend::Tsqr).unwrap())
            .collect();
        for h in handles {
            let res = h.wait();
            assert!(res.output.is_ok());
            assert!(res.stats.coalesced <= 2);
        }
        assert!(begun.elapsed() < linger / 2, "took {:?}", begun.elapsed());
        assert_eq!(svc.stats().rejected, 0);
    }

    #[test]
    fn each_lingering_bucket_is_flushed_on_a_pool_of_two() {
        // Two buckets linger at once on two idle workers: whichever
        // worker times the first deadline, somebody must time the
        // second — neither job may sleep until the next submission.
        let cfg = ServiceConfig::new(2, params())
            .with_pool(2)
            .with_coalescing(8, Duration::from_millis(20));
        let svc = QrService::start(cfg);
        let h1 = svc
            .submit_with(Matrix::random(32, 4, 1), QrBackend::Tsqr)
            .unwrap();
        let h2 = svc
            .submit_with(Matrix::random(48, 4, 2), QrBackend::Tsqr)
            .unwrap();
        for h in [h1, h2] {
            let res = h
                .wait_timeout(Duration::from_secs(30))
                .expect("the linger deadline must flush every bucket");
            assert!(res.output.is_ok());
            assert_eq!(res.stats.coalesced, 1);
        }
    }

    #[test]
    fn block_admission_waits_for_space() {
        let cfg = ServiceConfig::new(2, params())
            .with_pool(1)
            .with_queue_cap(1)
            .with_admission(Admission::Block {
                timeout: Duration::from_secs(10),
            })
            .uncoalesced();
        let svc = QrService::start(cfg);
        // With blocking admission every submission is eventually
        // accepted — the queue drains as the worker serves.
        let handles: Vec<JobHandle> = (0..16)
            .map(|seed| svc.submit_with(tall(seed), QrBackend::Tsqr).unwrap())
            .collect();
        for h in handles {
            assert!(h.wait().output.is_ok());
        }
        let s = svc.stats();
        assert_eq!((s.submitted, s.completed, s.rejected), (16, 16, 0));
    }

    #[test]
    fn coalescer_groups_same_shape_jobs_into_fused_batches() {
        // Generous linger so all four jobs stage before dispatch.
        let cfg = ServiceConfig::new(2, params())
            .with_pool(1)
            .with_coalescing(4, Duration::from_secs(10));
        let svc = QrService::start(cfg);
        let handles: Vec<JobHandle> = (0..4)
            .map(|seed| svc.submit_with(tall(seed), QrBackend::Tsqr).unwrap())
            .collect();
        for h in handles {
            let res = h.wait();
            assert!(res.output.is_ok());
            assert_eq!(res.stats.coalesced, 4, "all four shared one bucket");
            assert!(res.stats.fused, "same-shape tsqr bucket runs fused");
        }
        let s = svc.stats();
        assert_eq!((s.batches, s.fused_batches, s.coalesced_jobs), (1, 1, 4));
    }

    #[test]
    fn linger_deadline_flushes_a_lone_job() {
        let cfg = ServiceConfig::new(2, params())
            .with_pool(1)
            .with_coalescing(64, Duration::from_millis(5));
        let svc = QrService::start(cfg);
        let h = svc.submit_with(tall(3), QrBackend::Tsqr).unwrap();
        // Well under the coalesce_min of 64 — only the linger deadline
        // can dispatch it.
        let res = h
            .wait_timeout(Duration::from_secs(30))
            .expect("linger must flush the bucket");
        assert!(res.output.is_ok());
        assert_eq!(res.stats.coalesced, 1);
    }

    #[test]
    fn different_shapes_never_share_a_bucket() {
        let cfg = ServiceConfig::new(2, params())
            .with_pool(1)
            .with_coalescing(2, Duration::from_millis(5));
        let svc = QrService::start(cfg);
        let h1 = svc
            .submit_with(Matrix::random(32, 4, 1), QrBackend::Tsqr)
            .unwrap();
        let h2 = svc
            .submit_with(Matrix::random(48, 4, 2), QrBackend::Tsqr)
            .unwrap();
        let (r1, r2) = (h1.wait(), h2.wait());
        assert_eq!(r1.stats.coalesced, 1, "32×4 bucket holds one job");
        assert_eq!(r2.stats.coalesced, 1, "48×4 bucket holds one job");
        assert_eq!(r1.output.unwrap().q.rows(), 32);
        assert_eq!(r2.output.unwrap().q.rows(), 48);
    }

    #[test]
    fn handle_wait_timeout_returns_the_handle() {
        let cfg = ServiceConfig::new(2, params())
            .with_pool(1)
            .with_coalescing(64, Duration::from_secs(10));
        let svc = QrService::start(cfg);
        let h = svc.submit_with(tall(9), QrBackend::Tsqr).unwrap();
        // Parked behind a huge coalesce_min and a long linger: a short
        // wait must time out and give the handle back...
        let h = match h.wait_timeout(Duration::from_millis(10)) {
            Err(h) => h,
            Ok(_) => panic!("job cannot have dispatched yet"),
        };
        assert!(!h.is_done());
        // ...and shutdown flushes the staged bucket, so the handle
        // still resolves.
        drop(svc);
        assert!(h.wait().output.is_ok());
    }

    #[test]
    fn injected_panic_is_contained_and_the_pool_recovers() {
        let svc =
            start_with_a_rank_kill(ServiceConfig::new(2, params()).with_pool(1).uncoalesced());
        let boom = svc.submit_with(tall(1), QrBackend::Tsqr).unwrap().wait();
        assert!(
            matches!(boom.output, Err(ServiceError::JobPanicked(_))),
            "got {:?}",
            boom.output
        );
        assert_eq!(boom.stats.retries, 0, "the default policy fails fast");
        // Same single-session pool: the executor was replaced and the
        // service keeps serving.
        for seed in 2..4 {
            let ok_after = svc.submit_with(tall(seed), QrBackend::Tsqr).unwrap();
            assert!(ok_after.wait().output.is_ok());
        }
        let s = svc.stats();
        assert_eq!(s.executors_replaced, 1);
        assert_eq!((s.panicked, s.retried), (1, 0));
        assert_eq!(s.completed, 2);
    }

    #[test]
    fn shutdown_serves_everything_accepted() {
        let cfg = ServiceConfig::new(2, params())
            .with_pool(2)
            .with_coalescing(4, Duration::from_secs(10));
        let svc = QrService::start(cfg);
        let handles: Vec<JobHandle> = (0..6)
            .map(|seed| svc.submit_with(tall(seed), QrBackend::Tsqr).unwrap())
            .collect();
        svc.shutdown();
        for h in handles {
            assert!(
                h.wait().output.is_ok(),
                "accepted jobs resolve through shutdown"
            );
        }
    }
}
