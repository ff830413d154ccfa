//! The four workloads: how each is set up from the seed, driven in a
//! closed loop, checked, and — in the traced run — executed decomposed
//! through the library's public functions with a span around each call
//! into a layer.
//!
//! All load comes from this one process: the single-caller workloads
//! use the calling thread, `svc_small` uses [`sys::nproc`]-capped client
//! threads. The library is handed matrices only; the seed never reaches
//! it.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use qr3d_core::backend::{FactorOutput, FactorParams, QrBackend};
use qr3d_core::caqr3d::{caqr3d_factor, Caqr3dConfig};
use qr3d_core::cholqr::cholqr2_factor;
use qr3d_core::service::{Admission, QrService, ServiceConfig, ServiceError, ServiceStats};
use qr3d_core::session::Session;
use qr3d_core::shifted::ShiftedRowCyclic;
use qr3d_core::tsqr::tsqr_factor;
use qr3d_core::verify::{assemble_block_row, assemble_factorization};
use qr3d_cost::bounds::{lower_bounds_square, lower_bounds_tall};
use qr3d_machine::{Clock, Comm, Rank, RunOutput, RunStats};
use qr3d_matrix::gemm::{gemm, gram, Trans};
use qr3d_matrix::layout::BlockRow;
use qr3d_matrix::qr::thin_q;
use qr3d_matrix::Matrix;

use crate::contract::{contract, MetricSet};
use crate::stats::{median, percentile, samples_beyond, slice_rates, sorted, supported_percentile};
use crate::sys;
use crate::trace::{self, Recorder, Span};

/// An op is wrong when its relative residual `‖A − QR‖_F / ‖A‖_F`
/// exceeds this…
pub const MAX_RESIDUAL: f64 = 1e-11;
/// …or its orthogonality defect `‖QᵀQ − I‖_max` exceeds this.
pub const MAX_ORTHOGONALITY: f64 = 1e-10;

/// Distinct seeded matrices each workload rotates over.
const ROTATION: usize = 4;
/// An end-to-end run splits its window into this many segments, each on
/// a freshly set-up load. Physical page placement and the like differ
/// from one set-up to the next and move a memory-bound op by a few per
/// cent; pooling three draws steadies the medians, and `setup_s` is the
/// median of the three set-up times.
const SEGMENTS: usize = 3;
/// A window too short for [`SEGMENTS`] segments of this length gets
/// fewer: below it a segment is mostly set-up (`smoke` runs one).
const MIN_SEGMENT_SECONDS: f64 = 4.0;
/// Slices per segment; the throughput is the median over all
/// `SEGMENTS × SLICES_PER_SEGMENT` of them.
const SLICES_PER_SEGMENT: usize = 4;
/// Requests each `svc_small` client keeps outstanding.
const SVC_WINDOW: usize = 8;
/// Warm-up requests per `svc_small` client during set-up.
const SVC_WARM_REQUESTS: usize = 256;
/// A response that takes longer than this counts as timed out.
const SVC_WAIT_TIMEOUT: Duration = Duration::from_secs(30);
/// Per client, how many ops of a traced service run get spans (every op
/// still feeds the `service.*` statistics); bounds the trace file.
const SVC_SPAN_OPS: u64 = 2000;

/// How a workload is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// One caller blocking on a warm `Session::factor`.
    Session,
    /// Client threads against a `QrService`.
    Service,
}

/// One workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub driver: Driver,
    pub m: usize,
    pub n: usize,
    /// Ranks of the session (or of the service's one pooled session).
    pub p: usize,
    pub backend: QrBackend,
    /// The percentile `latency_ms_tail` reports: the highest one that
    /// keeps ten samples beyond it at this workload's op rate over the
    /// contract's `run_seconds`.
    pub tail_pct: f64,
    /// What runs, for `list` and the README.
    pub what: &'static str,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "ts_house",
        driver: Driver::Session,
        m: 32768,
        n: 64,
        p: 2,
        backend: QrBackend::Tsqr,
        tail_pct: 90.0,
        what: "one caller, warm Session P=2, factor(Tsqr) on 32768x64",
    },
    Spec {
        name: "ts_chol",
        driver: Driver::Session,
        m: 32768,
        n: 64,
        p: 2,
        backend: QrBackend::CholQr2,
        tail_pct: 90.0,
        what: "one caller, warm Session P=2, factor(CholQr2) on 32768x64",
    },
    Spec {
        name: "sq_3d",
        driver: Driver::Session,
        m: 384,
        n: 384,
        p: 4,
        backend: QrBackend::Caqr3d { delta: 2.0 / 3.0 },
        tail_pct: 75.0,
        what: "one caller, warm Session P=4, factor(Caqr3d{delta=2/3}) on 384x384",
    },
    Spec {
        name: "svc_small",
        driver: Driver::Service,
        m: 512,
        n: 16,
        p: 2,
        backend: QrBackend::Tsqr,
        tail_pct: 99.0,
        what: "QrService pool=1 P=2 blocking admission queue 64; nproc-capped client \
               threads (2 on the reference box), each keeping 8 submit_with(Tsqr) of 512x16 outstanding",
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: MetricSet,
    pub tally: Tally,
    pub spans: Vec<Span>,
}

/// Run `spec` for the contract's result line: end-to-end metrics with
/// tracing off (`trace = false`), or the traced decomposition
/// (`trace = true`; the workload-independent layer probes are added by
/// the caller).
pub fn run(spec: &'static Spec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    match (spec.driver, trace) {
        (Driver::Session, false) => session_end_to_end(spec, seed, seconds),
        (Driver::Session, true) => session_traced(spec, seed, seconds),
        (Driver::Service, false) => service_end_to_end(spec, seed, seconds),
        (Driver::Service, true) => service_traced(spec, seed, seconds),
    }
}

// ---------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------

/// The workloads run on the library's default machine model; it prices
/// messages for the collectives' algorithm selection and so fixes the
/// modelled counts.
fn params() -> FactorParams {
    FactorParams::default()
}

/// The `i`-th matrix of a workload's rotation. SplitMix-style mixing
/// keeps neighbouring seeds from sharing matrices.
fn matrices(spec: &Spec, seed: u64) -> Vec<Matrix> {
    (0..ROTATION as u64)
        .map(|i| {
            let s = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            Matrix::random(spec.m, spec.n, s)
        })
        .collect()
}

/// Attempted and failed ops. Failed = rejected + errored + timed out +
/// wrong.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Bit-for-bit equality of two matrices (shape included): `-0.0` differs
/// from `0.0` and a NaN equals only the same NaN.
pub fn bitwise_equal(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether a service response is right: it resolved `Ok` and its `R`
/// equals the set-up's reference `Session::factor` result bit for bit
/// (the service documents that guarantee, fused batches included).
pub fn response_ok(output: &Result<FactorOutput, ServiceError>, reference_r: &Matrix) -> bool {
    matches!(output, Ok(out) if bitwise_equal(&out.r, reference_r))
}

/// Residual and orthogonality of a factorization, with the `m × n`
/// scratch kept across ops so checking allocates nothing large.
struct Checker {
    scratch: Matrix,
    max_residual: f64,
    max_orthogonality: f64,
}

impl Checker {
    fn new(m: usize, n: usize) -> Checker {
        Checker {
            scratch: Matrix::zeros(m, n),
            max_residual: 0.0,
            max_orthogonality: 0.0,
        }
    }

    /// `true` when `q·r` reproduces `a` and `q` is orthonormal within
    /// [`MAX_RESIDUAL`] / [`MAX_ORTHOGONALITY`].
    fn check(&mut self, a: &Matrix, a_norm: f64, q: &Matrix, r: &Matrix) -> bool {
        if (q.rows(), q.cols(), r.rows(), r.cols()) != (a.rows(), a.cols(), a.cols(), a.cols()) {
            return false;
        }
        self.scratch.as_mut_slice().copy_from_slice(a.as_slice());
        gemm(Trans::No, Trans::No, -1.0, q, r, 1.0, &mut self.scratch);
        let residual = self.scratch.frobenius_norm() / a_norm;
        let mut g = gram(q);
        for i in 0..g.rows() {
            g[(i, i)] -= 1.0;
        }
        let orthogonality = g.max_abs();
        // `max` ignores NaN, so test the thresholds on the raw values.
        let ok = residual <= MAX_RESIDUAL && orthogonality <= MAX_ORTHOGONALITY;
        self.max_residual = self.max_residual.max(residual);
        self.max_orthogonality = self.max_orthogonality.max(orthogonality);
        ok
    }
}

/// One segment of an end-to-end run: what was measured on one freshly
/// set-up load.
struct Segment {
    setup_s: f64,
    latencies_ms: Vec<f64>,
    /// Ops per second in each slice of the segment's window.
    slice_rates: Vec<f64>,
    /// Process CPU seconds spent inside the timed calls.
    cpu_seconds: f64,
    tally: Tally,
    /// Critical path of one op.
    critical: Clock,
}

/// An end-to-end run: `segment(window)` sets a load up and measures it
/// for `window` seconds, up to [`SEGMENTS`] times over; the metrics come
/// from the pooled samples.
fn end_to_end_outcome(spec: &Spec, seconds: f64, segment: impl Fn(f64) -> Segment) -> Outcome {
    let count = ((seconds / MIN_SEGMENT_SECONDS) as usize).clamp(1, SEGMENTS);
    let window = seconds / count as f64;
    // One at a time, each dropped before the next is built, so peak
    // memory is that of one load.
    let segments: Vec<Segment> = (0..count).map(|_| segment(window)).collect();
    let mut lat_ms = Vec::new();
    let mut rates = Vec::new();
    let mut set_ups = Vec::new();
    let mut cpu_seconds = 0.0;
    let mut tally = Tally::default();
    for seg in &segments {
        lat_ms.extend_from_slice(&seg.latencies_ms);
        rates.extend_from_slice(&seg.slice_rates);
        set_ups.push(seg.setup_s);
        cpu_seconds += seg.cpu_seconds;
        tally.merge(seg.tally);
    }
    let lat_ms = sorted(&lat_ms);
    let n = lat_ms.len();
    assert!(n > 0, "{}: no op completed", spec.name);
    let critical = segments[0].critical;

    let mut set = MetricSet::default();
    set.put_n("setup_s", median(&set_ups), set_ups.len());
    set.put_n("latency_ms_p50", percentile(&lat_ms, 50.0), n);
    put_percentile(&mut set, "latency_ms_tail", &lat_ms, spec.tail_pct);
    set.put_n("throughput_ops_s", median(&rates), rates.len());
    set.put_n("cpu_s_per_op", cpu_seconds / n as f64, n);
    set.put("peak_rss_mb", sys::peak_rss_mb());
    set.put("model_flops", critical.flops);
    set.put("model_words", critical.words);
    set.put("model_msgs", critical.msgs);
    // The clocks are logical: every set-up must model the same op.
    tally.failed += segments.iter().filter(|s| s.critical != critical).count() as u64;
    Outcome {
        metrics: set,
        tally,
        spans: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Session workloads
// ---------------------------------------------------------------------

struct SessionLoad {
    spec: &'static Spec,
    session: Session,
    mats: Vec<Matrix>,
    norms: Vec<f64>,
    checker: Checker,
    /// The critical path of the first op; every later op must repeat it
    /// exactly (the clocks are logical).
    critical: Option<Clock>,
}

/// What a measured stretch of session ops recorded.
#[derive(Default)]
struct SessionSamples {
    /// Each op (call → result) as an interval, in seconds, on the busy
    /// clock, which advances only inside calls: checking between ops is
    /// think time, not service.
    busy: Vec<(f64, f64)>,
    cpu_seconds: f64,
    tally: Tally,
}

impl SessionSamples {
    fn latencies_ms(&self) -> Vec<f64> {
        self.busy.iter().map(|&(s, e)| (e - s) * 1e3).collect()
    }

    fn busy_end(&self) -> f64 {
        self.busy.last().map_or(0.0, |&(_, end)| end)
    }
}

impl SessionLoad {
    /// Generate the inputs, start the warm session, and run one checked
    /// op per matrix so pools, caches and lazy state are filled.
    fn set_up(spec: &'static Spec, seed: u64) -> SessionLoad {
        let mats = matrices(spec, seed);
        let norms = mats.iter().map(Matrix::frobenius_norm).collect();
        let mut load = SessionLoad {
            spec,
            session: Session::new(spec.p, params()),
            mats,
            norms,
            checker: Checker::new(spec.m, spec.n),
            critical: None,
        };
        let mut warm = SessionSamples::default();
        for i in 0..ROTATION {
            load.timed_op(i, &mut warm);
        }
        assert_eq!(
            warm.tally.failed, 0,
            "{}: a warm-up op was wrong",
            spec.name
        );
        load
    }

    /// One `Session::factor` call, timed; then checked outside the
    /// timed interval.
    fn timed_op(&mut self, i: usize, samples: &mut SessionSamples) {
        let i = i % ROTATION;
        let cpu0 = sys::cpu_seconds();
        let t0 = Instant::now();
        let result = self.session.factor(&self.mats[i], self.spec.backend);
        let dt = t0.elapsed().as_secs_f64();
        samples.cpu_seconds += sys::cpu_seconds() - cpu0;
        let at = samples.busy_end();
        samples.busy.push((at, at + dt));
        let ok = match &result {
            Ok(out) => self.check(i, &out.q, &out.r, &out.critical),
            Err(_) => false,
        };
        samples.tally.record(ok);
    }

    fn check(&mut self, i: usize, q: &Matrix, r: &Matrix, critical: &Clock) -> bool {
        let same_model = *self.critical.get_or_insert(*critical) == *critical;
        self.checker.check(&self.mats[i], self.norms[i], q, r) && same_model
    }

    fn critical(&self) -> Clock {
        self.critical.expect("set-up ran at least one op")
    }
}

fn session_end_to_end(spec: &'static Spec, seed: u64, seconds: f64) -> Outcome {
    end_to_end_outcome(spec, seconds, |window| {
        let t = Instant::now();
        let mut load = SessionLoad::set_up(spec, seed);
        let setup_s = t.elapsed().as_secs_f64();
        let mut samples = SessionSamples::default();
        let start = Instant::now();
        let mut i = 0;
        while i == 0 || start.elapsed().as_secs_f64() < window {
            load.timed_op(i, &mut samples);
            i += 1;
        }
        Segment {
            setup_s,
            latencies_ms: samples.latencies_ms(),
            slice_rates: slice_rates(&samples.busy, 0.0, samples.busy_end(), SLICES_PER_SEGMENT),
            cpu_seconds: samples.cpu_seconds,
            tally: samples.tally,
            critical: load.critical(),
        }
    })
}

/// Put percentile `pct` of `sorted_ms` under `name`, saying how many
/// samples lie beyond it and — when that is fewer than the ten the
/// percentile rule asks for — which percentile the count does support.
fn put_percentile(set: &mut MetricSet, name: &str, sorted_ms: &[f64], pct: f64) {
    let n = sorted_ms.len();
    let beyond = samples_beyond(n, pct);
    let mut note = format!("p{pct}, {beyond} samples beyond it");
    if beyond < 10 {
        note += &match supported_percentile(n) {
            Some(p) => format!("; this count supports p{p}"),
            None => "; this count supports no percentile".into(),
        };
    }
    set.push(name, percentile(sorted_ms, pct), Some(n), Some(note));
}

/// Run one op of `spec` decomposed through public functions, with a
/// span around every call into a layer: the job (`Session::run`), and
/// inside it per rank the layout scatter and the algorithm; then the
/// host-side assembly and `thin_q`. Returns `(Q, R, job statistics)`.
fn decomposed_op(
    spec: &Spec,
    session: &mut Session,
    a: &Matrix,
    rec: &Recorder,
    op: u64,
) -> (Matrix, Matrix, RunStats) {
    let (m, n, p) = (spec.m, spec.n, spec.p);
    let root = rec.begin("op", None, op, 0);
    let host = |name: &'static str| rec.begin(name, Some(root), op, 0);

    /// `Session::run` of `scatter` then `algo` on every rank, traced.
    fn traced_job<T: Send>(
        session: &mut Session,
        rec: &Recorder,
        root: usize,
        op: u64,
        scatter: impl Fn(usize) -> Matrix + Sync,
        algo: impl Fn(&mut Rank, &Comm, &Matrix) -> T + Sync,
    ) -> RunOutput<T> {
        let job = rec.begin("machine.job", Some(root), op, 0);
        let out = session.run(|rank| {
            let w = rank.world();
            let lane = 1 + w.rank() as u32;
            let on_rank = rec.begin("machine.rank", Some(job), op, lane);
            let s = rec.begin("matrix.scatter", Some(on_rank), op, lane);
            let local = scatter(w.rank());
            rec.end(s);
            let s = rec.begin("core.factor", Some(on_rank), op, lane);
            let result = algo(rank, &w, &local);
            rec.end(s);
            rec.end(on_rank);
            result
        });
        rec.end(job);
        out
    }

    let (q, r, stats) = match spec.backend {
        QrBackend::Tsqr => {
            let lay = BlockRow::balanced(m, 1, p);
            let out = traced_job(
                session,
                rec,
                root,
                op,
                |rk| a.take_rows(&lay.local_rows(rk)),
                tsqr_factor,
            );
            let s = host("core.assemble");
            let fac = assemble_block_row(&out.results, lay.counts());
            rec.end(s);
            let s = host("matrix.thin_q");
            let q = thin_q(&fac.v, &fac.t);
            rec.end(s);
            (q, fac.r, out.stats)
        }
        QrBackend::CholQr2 => {
            let lay = BlockRow::balanced(m, 1, p);
            let out = traced_job(
                session,
                rec,
                root,
                op,
                |rk| a.take_rows(&lay.local_rows(rk)),
                cholqr2_factor,
            );
            // CholeskyQR2 produces its explicit Q natively: assembly is
            // a row-block copy and there is no thin_q step.
            let s = host("core.assemble");
            let mut q = Matrix::zeros(m, n);
            let mut r = None;
            for (res, start) in out.results.iter().zip(lay.starts()) {
                let fac = res.as_ref().expect("random inputs are well-conditioned");
                q.set_submatrix(start, 0, &fac.q_local);
                r.get_or_insert_with(|| fac.r.clone());
            }
            rec.end(s);
            (q, r.expect("at least one rank"), out.stats)
        }
        QrBackend::Caqr3d { delta } => {
            let lay = ShiftedRowCyclic::new(m, n, p, 0);
            let cfg = Caqr3dConfig::auto(m, n, p, delta);
            let out = traced_job(
                session,
                rec,
                root,
                op,
                |rk| lay.scatter_from_full(a, rk),
                |rank, w, local| caqr3d_factor(rank, w, local, m, n, &cfg),
            );
            let s = host("core.assemble");
            let fac = assemble_factorization(&out.results, m, n, p);
            rec.end(s);
            let s = host("matrix.thin_q");
            let q = thin_q(&fac.v, &fac.t);
            rec.end(s);
            (q, fac.r, out.stats)
        }
        other => unreachable!("no workload uses {other:?}"),
    };
    rec.end(root);
    (q, r, stats)
}

/// What the decomposed ops of a traced run say about where an op's time
/// goes, as `core.*` and `machine.*_per_op`. Returns the overhead of
/// tracing them: decomposed p50 over undecomposed p50, minus one.
///
/// `plain_ms` are the undecomposed `Session::factor` latencies measured
/// in alternation with the decomposed ops, so both saw the same machine.
fn decomposition_metrics(
    set: &mut MetricSet,
    spec: &Spec,
    spans: &[Span],
    plain_ms: &[f64],
    stats: &RunStats,
) -> f64 {
    let plain = sorted(plain_ms);
    let p50 = percentile(&plain, 50.0);
    let stage = |name: &str| {
        let d = trace::durations_ms(spans, name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    let scatter = {
        let d = trace::max_per_op_ms(spans, "matrix.scatter");
        median(&d)
    };
    let (job, assemble, thin) = (
        stage("machine.job"),
        stage("core.assemble"),
        stage("matrix.thin_q"),
    );
    let traced = trace::durations_ms(spans, "op");
    set.put_n("core.scatter_ms", scatter, traced.len());
    set.put_n("core.job_ms", job, traced.len());
    set.put_n("core.assemble_ms", assemble, traced.len());
    if thin == 0.0 {
        set.put_note(
            "core.thin_q_ms",
            0.0,
            "this backend returns an explicit Q; no thin_q step",
        );
    } else {
        set.put_n("core.thin_q_ms", thin, traced.len());
    }
    set.put("core.job_share", job / p50);
    set.put(
        "core.unexplained_frac",
        (p50 - (job + assemble + thin)).abs() / p50,
    );
    let (mf, nf) = (spec.m as f64, spec.n as f64);
    set.put(
        "core.eff_gflops",
        (2.0 * mf * nf * nf - 2.0 * nf * nf * nf / 3.0) / (p50 * 1e-3) / 1e9,
    );
    put_percentile(set, "core.latency_ms_p90", &plain, 90.0);
    set.put("machine.msgs_per_op", stats.total_messages());
    set.put("machine.words_per_op", stats.total_volume());
    set.put("machine.flops_per_op", stats.total_flops());
    median(&traced) / p50 - 1.0
}

/// `core.p1_latency_ms` and `core.scaling_over_p1`: the same problem on
/// a one-rank session. The ratio is a scaling claim, so it is refused
/// when the box has fewer cores than the workload has ranks — there it
/// would report the scheduler, not the algorithm.
fn scaling_metrics(set: &mut MetricSet, spec: &Spec, mats: &[Matrix], p50_ms: f64, budget: f64) {
    let mut one = Session::new(1, params());
    let mut lat = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    // The first op is warm-up.
    while lat.len() < 4 || (start.elapsed().as_secs_f64() < budget && lat.len() < 64) {
        let t = Instant::now();
        let out = one.factor(&mats[i % mats.len()], spec.backend);
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        assert!(
            out.is_ok(),
            "{}: the one-rank factorization failed",
            spec.name
        );
        i += 1;
    }
    let p1 = median(&lat[1..]);
    set.put_n("core.p1_latency_ms", p1, lat.len() - 1);
    if sys::nproc() >= spec.p {
        set.put("core.scaling_over_p1", p1 / p50_ms);
    } else {
        set.omit(
            "core.scaling_over_p1",
            format!(
                "nproc = {} < P = {}: oversubscribed (p1/pP would read {:.3})",
                sys::nproc(),
                spec.p,
                p1 / p50_ms
            ),
        );
    }
}

/// `cost.*`: what the advisor costs to ask, and the modelled words and
/// messages of one op over the paper's Section 8.3 lower bounds.
fn cost_metrics(set: &mut MetricSet, spec: &Spec, critical: &Clock) {
    let mc = params().machine;
    let calls = 2000;
    let t = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(qr3d_cost::advisor::recommend(
            std::hint::black_box(spec.m),
            spec.n,
            spec.p,
            mc.alpha,
            mc.beta,
            mc.gamma,
        ));
    }
    set.put_n(
        "cost.recommend_ns",
        t.elapsed().as_secs_f64() * 1e9 / f64::from(calls),
        calls as usize,
    );
    let lb = if spec.m >= spec.n * spec.p {
        lower_bounds_tall(spec.m, spec.n, spec.p)
    } else {
        lower_bounds_square(spec.m, spec.n, spec.p)
    };
    set.put("cost.words_over_lower_bound", critical.words / lb.words);
    set.put("cost.msgs_over_lower_bound", critical.msgs / lb.msgs);
}

/// The `service.*` metrics of a workload that has no service on its path.
fn omit_service_metrics(set: &mut MetricSet) {
    for def in &contract().per_layer {
        if def.name.starts_with("service.") {
            set.omit(&def.name, "no QrService on this workload's path");
        }
    }
}

fn session_traced(spec: &'static Spec, seed: u64, seconds: f64) -> Outcome {
    let mut load = SessionLoad::set_up(spec, seed);
    let rec = Recorder::new();
    let mut plain = SessionSamples::default();
    let mut tally = Tally::default();
    let mut stats = None;
    let start = Instant::now();
    let mut op = 0u64;
    while op == 0 || start.elapsed().as_secs_f64() < seconds {
        let i = op as usize % ROTATION;
        load.timed_op(i, &mut plain);
        let (q, r, job_stats) = decomposed_op(spec, &mut load.session, &load.mats[i], &rec, op);
        let critical = job_stats.critical();
        tally.record(load.check(i, &q, &r, &critical));
        stats = Some(job_stats);
        op += 1;
    }
    tally.merge(plain.tally);
    let spans = rec.snapshot();
    let plain_ms = plain.latencies_ms();

    let mut set = MetricSet::default();
    let overhead = decomposition_metrics(
        &mut set,
        spec,
        &spans,
        &plain_ms,
        &stats.expect("at least one op ran"),
    );
    set.put("trace.overhead_frac", overhead);
    set.put("core.max_residual", load.checker.max_residual);
    set.put("core.max_orthogonality", load.checker.max_orthogonality);
    scaling_metrics(
        &mut set,
        spec,
        &load.mats,
        median(&plain_ms),
        (seconds / 4.0).min(1.0),
    );
    cost_metrics(&mut set, spec, &load.critical());
    omit_service_metrics(&mut set);
    Outcome {
        metrics: set,
        tally,
        spans,
    }
}

// ---------------------------------------------------------------------
// The service workload
// ---------------------------------------------------------------------

struct ServiceLoad {
    spec: &'static Spec,
    svc: QrService,
    mats: Vec<Matrix>,
    /// `R` of each matrix from a residual-checked `Session::factor`.
    reference_r: Vec<Matrix>,
    /// Critical path of one (unfused) op, from the reference run.
    critical: Clock,
    clients: usize,
}

/// When a client stops submitting.
#[derive(Clone, Copy)]
enum Until {
    Elapsed(f64),
    Requests(usize),
}

/// What one client thread recorded.
#[derive(Default)]
struct ClientSamples {
    /// Each request as `(submitted, resolved)` seconds since the run's start.
    ops: Vec<(f64, f64)>,
    /// `submit_with` call duration, µs.
    submit_us: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    execute_ms: Vec<f64>,
    wake_ms: Vec<f64>,
    coalesced: u64,
    fused: u64,
    tally: Tally,
}

/// A stretch of service load: all clients' samples plus process CPU and
/// the service's own counters over the stretch.
struct ServiceSamples {
    clients: ClientSamples,
    wall_seconds: f64,
    cpu_seconds: f64,
    before: ServiceStats,
    after: ServiceStats,
}

impl ServiceLoad {
    /// Generate the inputs, compute and check the references, start the
    /// service, and push a fixed number of warm-up requests through it.
    fn set_up(spec: &'static Spec, seed: u64) -> ServiceLoad {
        let mats = matrices(spec, seed);
        let mut session = Session::new(spec.p, params());
        let mut checker = Checker::new(spec.m, spec.n);
        let mut critical = None;
        let reference_r = mats
            .iter()
            .map(|a| {
                let out = session
                    .factor(a, spec.backend)
                    .expect("the reference factorization succeeds");
                assert!(
                    checker.check(a, a.frobenius_norm(), &out.q, &out.r),
                    "{}: the reference factorization is wrong",
                    spec.name
                );
                critical.get_or_insert(out.critical);
                out.r
            })
            .collect();
        drop(session);
        let cfg = ServiceConfig::new(spec.p, params())
            .with_pool(1)
            .with_queue_cap(64)
            .with_admission(Admission::Block {
                timeout: SVC_WAIT_TIMEOUT,
            });
        let load = ServiceLoad {
            spec,
            svc: QrService::start(cfg),
            mats,
            reference_r,
            critical: critical.expect("the rotation is not empty"),
            // Load generation never uses more threads than cores.
            clients: sys::nproc().clamp(1, 2),
        };
        let warm = load.drive(Until::Requests(SVC_WARM_REQUESTS), None);
        assert_eq!(
            warm.clients.tally.failed, 0,
            "{}: a warm-up request failed",
            spec.name
        );
        load
    }

    fn drive(&self, until: Until, rec: Option<&Recorder>) -> ServiceSamples {
        let before = self.svc.stats();
        let cpu0 = sys::cpu_seconds();
        let start = Instant::now();
        let per_client: Vec<ClientSamples> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| s.spawn(move || self.client(c, start, until, rec)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        let wall_seconds = start.elapsed().as_secs_f64();
        let cpu_seconds = sys::cpu_seconds() - cpu0;
        let mut all = ClientSamples::default();
        for c in per_client {
            all.ops.extend(c.ops);
            all.submit_us.extend(c.submit_us);
            all.queue_wait_ms.extend(c.queue_wait_ms);
            all.execute_ms.extend(c.execute_ms);
            all.wake_ms.extend(c.wake_ms);
            all.coalesced += c.coalesced;
            all.fused += c.fused;
            all.tally.merge(c.tally);
        }
        ServiceSamples {
            clients: all,
            wall_seconds,
            cpu_seconds,
            before,
            after: self.svc.stats(),
        }
    }

    /// One closed-loop client: keep [`SVC_WINDOW`] requests outstanding,
    /// resolve them oldest first, compare every response with its
    /// reference, and submit the next.
    fn client(
        &self,
        c: usize,
        start: Instant,
        until: Until,
        rec: Option<&Recorder>,
    ) -> ClientSamples {
        let mut out = ClientSamples::default();
        let mut outstanding = VecDeque::with_capacity(SVC_WINDOW);
        let mut submitted = 0usize;
        let lane = 100 + c as u32;
        loop {
            while outstanding.len() < SVC_WINDOW
                && match until {
                    Until::Elapsed(s) => start.elapsed().as_secs_f64() < s,
                    Until::Requests(k) => submitted < k,
                }
            {
                let i = (c + submitted) % ROTATION;
                let a = self.mats[i].clone();
                let t_submit = Instant::now();
                let handle = self.svc.submit_with(a, self.spec.backend);
                let submit = t_submit.elapsed();
                submitted += 1;
                match handle {
                    Ok(h) => {
                        out.submit_us.push(submit.as_secs_f64() * 1e6);
                        outstanding.push_back((h, t_submit, submit, i, submitted as u64));
                    }
                    Err(_) => {
                        // Rejected at admission.
                        out.tally.record(false);
                        break;
                    }
                }
            }
            let Some((handle, t_submit, submit, i, k)) = outstanding.pop_front() else {
                break;
            };
            let Ok(res) = handle.wait_timeout(SVC_WAIT_TIMEOUT) else {
                out.tally.record(false);
                continue;
            };
            let t_done = Instant::now();
            out.ops.push((
                t_submit.duration_since(start).as_secs_f64(),
                t_done.duration_since(start).as_secs_f64(),
            ));
            let observed = t_done.duration_since(t_submit);
            let js = res.stats;
            let execute = js.wall.saturating_sub(js.queue_wait);
            out.queue_wait_ms.push(js.queue_wait.as_secs_f64() * 1e3);
            out.execute_ms.push(execute.as_secs_f64() * 1e3);
            out.wake_ms
                .push(observed.saturating_sub(js.wall).as_secs_f64() * 1e3);
            out.coalesced += js.coalesced as u64;
            out.fused += u64::from(js.fused);
            out.tally
                .record(response_ok(&res.output, &self.reference_r[i]));
            if let Some(rec) = rec.filter(|_| k <= SVC_SPAN_OPS) {
                let op = ((c as u64) << 32) | k;
                let t0 = rec.at_ns(t_submit);
                let at = |d: Duration| t0 + d.as_nanos() as u64;
                let root = rec.record("op", None, op, lane, t0, rec.at_ns(t_done));
                let child = |name, a, b| rec.record(name, Some(root), op, lane, a, b);
                child("service.submit", t0, at(submit));
                child("service.queue_wait", t0, at(js.queue_wait));
                child("service.execute", at(js.queue_wait), at(js.wall));
                child("service.wake", at(js.wall), at(observed));
            }
        }
        out
    }
}

fn service_end_to_end(spec: &'static Spec, seed: u64, seconds: f64) -> Outcome {
    end_to_end_outcome(spec, seconds, |window| {
        let t = Instant::now();
        let load = ServiceLoad::set_up(spec, seed);
        let setup_s = t.elapsed().as_secs_f64();
        let samples = load.drive(Until::Elapsed(window), None);
        let c = samples.clients;
        Segment {
            setup_s,
            latencies_ms: c.ops.iter().map(|&(s, e)| (e - s) * 1e3).collect(),
            // Requests outstanding when the window closes resolve after
            // it; the slices clip them, so they count by the share inside.
            slice_rates: slice_rates(&c.ops, 0.0, window, SLICES_PER_SEGMENT),
            cpu_seconds: samples.cpu_seconds,
            tally: c.tally,
            critical: load.critical,
        }
    })
}

fn service_metrics(set: &mut MetricSet, s: &ServiceSamples) {
    let c = &s.clients;
    let n = c.queue_wait_ms.len();
    let pct = |xs: &[f64], p: f64| percentile(&sorted(xs), p);
    set.put_n("service.queue_wait_ms_p50", pct(&c.queue_wait_ms, 50.0), n);
    set.put_n("service.queue_wait_ms_p99", pct(&c.queue_wait_ms, 99.0), n);
    set.put_n("service.execute_ms_p50", pct(&c.execute_ms, 50.0), n);
    set.put_n("service.wake_ms_p50", pct(&c.wake_ms, 50.0), n);
    set.put_n(
        "service.submit_us_p50",
        pct(&c.submit_us, 50.0),
        c.submit_us.len(),
    );
    set.put_n("service.coalesced_mean", c.coalesced as f64 / n as f64, n);
    set.put_n("service.fused_frac", c.fused as f64 / n as f64, n);
    let delta = |f: fn(&ServiceStats) -> u64| (f(&s.after) - f(&s.before)) as f64;
    set.put(
        "service.batches_per_s",
        delta(|t| t.batches) / s.wall_seconds,
    );
    set.put("service.rejected", delta(|t| t.rejected));
    set.put("service.retried", delta(|t| t.retried));
    set.put(
        "service.executors_replaced",
        delta(|t| t.executors_replaced),
    );
}

fn service_traced(spec: &'static Spec, seed: u64, seconds: f64) -> Outcome {
    let load = ServiceLoad::set_up(spec, seed);
    // Untraced and traced stretches of equal length: their p50s give
    // the tracing overhead, the traced one gives spans and service.*.
    let untraced = load.drive(Until::Elapsed(seconds / 2.0), None);
    let rec = Recorder::new();
    let traced = load.drive(Until::Elapsed(seconds / 2.0), Some(&rec));
    let p50 = |s: &ServiceSamples| {
        median(
            &s.clients
                .ops
                .iter()
                .map(|&(a, b)| b - a)
                .collect::<Vec<_>>(),
        )
    };
    let mut tally = untraced.clients.tally;
    tally.merge(traced.clients.tally);

    let mut set = MetricSet::default();
    service_metrics(&mut set, &traced);
    // For this workload the tracing that matters is the service run's.
    set.put("trace.overhead_frac", p50(&traced) / p50(&untraced) - 1.0);

    // What `execute` is made of: the same 512x16 problem decomposed on a
    // private session of the service's shape.
    let mut session = Session::new(spec.p, params());
    let mut checker = Checker::new(spec.m, spec.n);
    let mut plain_ms = Vec::new();
    let mut stats = None;
    let ops = (seconds * 100.0).clamp(8.0, 400.0) as u64;
    for op in 0..ops {
        let i = op as usize % ROTATION;
        let a = &load.mats[i];
        let t = Instant::now();
        let out = session.factor(a, spec.backend);
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally.record(response_ok(
            &out.map_err(ServiceError::Factor),
            &load.reference_r[i],
        ));
        let (q, r, job_stats) = decomposed_op(spec, &mut session, a, &rec, (1 << 40) | op);
        tally.record(
            checker.check(a, a.frobenius_norm(), &q, &r) && job_stats.critical() == load.critical,
        );
        stats = Some(job_stats);
    }
    let spans = rec.snapshot();
    // The decomposed ops' root spans are the ones on lane 0.
    let session_spans: Vec<Span> = spans.iter().filter(|s| s.lane < 100).cloned().collect();
    decomposition_metrics(
        &mut set,
        spec,
        &session_spans,
        &plain_ms[1..],
        &stats.expect("at least one op ran"),
    );
    set.put("core.max_residual", checker.max_residual);
    set.put("core.max_orthogonality", checker.max_orthogonality);
    scaling_metrics(
        &mut set,
        spec,
        &load.mats,
        median(&plain_ms[1..]),
        (seconds / 4.0).min(1.0),
    );
    cost_metrics(&mut set, spec, &load.critical);
    Outcome {
        metrics: set,
        tally,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_factor() -> (Matrix, FactorOutput) {
        let a = Matrix::random(64, 8, 3);
        let out = Session::new(2, params())
            .factor(&a, QrBackend::Tsqr)
            .unwrap();
        (a, out)
    }

    #[test]
    fn a_flipped_bit_in_r_counts_as_failed() {
        let (_, out) = small_factor();
        let reference = out.r.clone();
        let mut tally = Tally::default();
        tally.record(response_ok(&Ok(out.clone()), &reference));
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        let mut corrupt = out.clone();
        let x = &mut corrupt.r.as_mut_slice()[9];
        *x = f64::from_bits(x.to_bits() ^ 1);
        tally.record(response_ok(&Ok(corrupt), &reference));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!((tally.failed_frac() - 0.5).abs() < 1e-15);

        // A wrong shape and an error response fail too.
        assert!(!bitwise_equal(&reference, &Matrix::zeros(8, 7)));
        let err = Err(ServiceError::JobPanicked("boom".into()));
        tally.record(response_ok(&err, &reference));
        assert_eq!(tally.failed, 2);
    }

    #[test]
    fn bitwise_equality_separates_signed_zeros() {
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(1, 2, vec![-0.0, 1.0]);
        assert!(bitwise_equal(&a, &a.clone()));
        assert!(!bitwise_equal(&a, &b));
    }

    #[test]
    fn checker_accepts_a_factorization_and_rejects_a_perturbed_one() {
        let (a, out) = small_factor();
        let mut checker = Checker::new(64, 8);
        let norm = a.frobenius_norm();
        assert!(checker.check(&a, norm, &out.q, &out.r));
        let mut r = out.r.clone();
        r[(0, 0)] *= 1.0 + 1e-9;
        assert!(!checker.check(&a, norm, &out.q, &r));
        let mut q = out.q.clone();
        q[(0, 0)] = f64::NAN;
        assert!(!checker.check(&a, norm, &q, &out.r));
        assert!(!checker.check(&a, norm, &out.r, &out.r));
    }

    #[test]
    fn decomposed_ops_reproduce_the_undecomposed_result() {
        for spec in &SPECS {
            // Same algorithms and layouts on a small problem of the
            // same aspect.
            let small = Spec {
                m: if spec.m == spec.n { 48 } else { 256 },
                n: if spec.m == spec.n { 48 } else { 8 },
                ..*spec
            };
            let a = Matrix::random(small.m, small.n, 11);
            let mut session = Session::new(small.p, params());
            let whole = session.factor(&a, small.backend).unwrap();
            let rec = Recorder::new();
            let (q, r, stats) = decomposed_op(&small, &mut session, &a, &rec, 0);
            assert!(bitwise_equal(&r, &whole.r), "{}: R differs", spec.name);
            assert!(bitwise_equal(&q, &whole.q), "{}: Q differs", spec.name);
            assert_eq!(stats.critical(), whole.critical, "{}", spec.name);
            let spans = rec.snapshot();
            assert_eq!(trace::durations_ms(&spans, "machine.rank").len(), small.p);
            assert!(spans.iter().all(|s| s.end_ns.is_some()));
        }
    }
}
