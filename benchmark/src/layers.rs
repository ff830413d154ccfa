//! The `layers` pass: micro-probes of single layers, independent of the
//! workload. Each probe calls a layer's public functions directly and
//! reports an absolute figure (GFLOP/s, ns per round trip, µs per call)
//! or a ratio of two such figures.
//!
//! Ratio metrics named `a_over_b` are the speed-up of `a` over `b`, i.e.
//! `time(b) / time(a)`: above 1 means `a` is faster. This matches the
//! `speedup/*` records of `BENCH_baseline.json`.
//!
//! The ping-pongs pin their two threads (spawned for the probe, or the
//! rank threads of an executor the probe owns) to cores 0 and 1. The
//! calling thread and every other executor are never pinned, so a probe
//! cannot disturb a later measurement.

use std::hint::black_box;
use std::time::{Duration, Instant};

use qr3d_collectives::alltoall::all_to_all;
use qr3d_collectives::auto::{all_reduce, broadcast, reduce};
use qr3d_collectives::bidir::all_gather_flat;
use qr3d_collectives::BlockSizes;
use qr3d_core::backend::{factor, FactorParams, QrBackend};
use qr3d_core::session::Session;
use qr3d_core::tsqr::tsqr_factor;
use qr3d_core::tsqr_ft::{tsqr_factor_ft, FtConfig};
use qr3d_core::updating::UpdatingQr;
use qr3d_machine::{
    Clock, Comm, CostParams, Envelope, Executor, Machine, MpscTransport, Payload, Rank,
    RingTransport, Transport,
};
use qr3d_matrix::gemm::{gemm, gram, Trans};
use qr3d_matrix::layout::BlockRow;
use qr3d_matrix::qr::{apply_block_reflector, geqrt, thin_q};
use qr3d_matrix::simd::{self, SimdLevel};
use qr3d_matrix::tiles::{geqrt_out_of_core, MemStore, SpillStore, TiledMatrix};
use qr3d_matrix::tri::{potrf, trsm, Side, Uplo};
use qr3d_matrix::{affinity, flops, par, Matrix};
use qr3d_mm::brick::{BrickA, BrickB, RowCyclicDist};
use qr3d_mm::dmm1d::dmm1d_reduce;
use qr3d_mm::dmm3d::{dmm3d, Grid3};
use qr3d_mm::redist::redistribute;

use crate::contract::MetricSet;
use crate::stats::median;
use crate::sys;

/// How long each probe may run. `quick` (the smoke test) makes one timed
/// call per probe: it checks that every metric is produced, not what it
/// reads.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub quick: bool,
}

impl Budget {
    fn secs(&self) -> f64 {
        if self.quick {
            0.0
        } else {
            0.25
        }
    }

    /// `full` repetitions normally, a token few in quick mode.
    fn reps(&self, full: usize) -> usize {
        if self.quick {
            full.min(3)
        } else {
            full
        }
    }
}

/// Median seconds per call of `f` and the sample count: one untimed
/// warm-up call, then at least three (quick: one) timed calls and as
/// many more as fit the budget.
fn time_median(b: Budget, mut f: impl FnMut()) -> (f64, usize) {
    f();
    let min = if b.quick { 1 } else { 3 };
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < min || (start.elapsed().as_secs_f64() < b.secs() && times.len() < 100_000) {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), times.len())
}

fn params() -> CostParams {
    FactorParams::default().machine
}

/// Every workload-independent per-layer metric.
pub fn run(b: Budget) -> MetricSet {
    let mut set = MetricSet::default();
    matrix_probes(&mut set, b);
    machine_probes(&mut set, b);
    collectives_probes(&mut set, b);
    mm_probes(&mut set, b);
    core_probes(&mut set, b);
    session_probes(&mut set, b);
    set
}

// ---------------------------------------------------------------------
// matrix
// ---------------------------------------------------------------------

/// Flops per second of one thread issuing nothing but independent fused
/// multiply-adds on registers, at the widest vector level the CPU has:
/// twelve chains, enough to cover the FMA latency on two ports.
/// Explicit intrinsics, because the compiler scalarises the portable
/// formulation (it then measures a sixth of this).
fn fma_flops_per_sec(iters: u64) -> f64 {
    let (a, c) = (black_box(0.999), black_box(1e-3));
    let t = Instant::now();
    let (sum, lanes) = match simd::detected_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: detected_level() reported AVX-512F on this CPU.
        SimdLevel::Avx512 => (unsafe { fma::chains_avx512(iters, a, c) }, 8),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: detected_level() reported AVX2 and FMA on this CPU.
        SimdLevel::Avx2 => (unsafe { fma::chains_avx2(iters, a, c) }, 4),
        _ => (fma::chains_scalar(iters, a, c), 1),
    };
    let secs = t.elapsed().as_secs_f64();
    black_box(sum);
    (iters * fma::CHAINS * lanes * 2) as f64 / secs
}

mod fma {
    //! The FMA chains per vector level. `x = x·a + c` with `a < 1` keeps
    //! every chain bounded for any iteration count.

    pub const CHAINS: u64 = 12;

    pub fn chains_scalar(iters: u64, a: f64, c: f64) -> f64 {
        let mut r = [0.5f64; CHAINS as usize];
        for _ in 0..iters {
            for x in &mut r {
                *x = x.mul_add(a, c);
            }
        }
        r.iter().sum()
    }

    /// Twelve statements `$r = fmadd($r, a, c)` per iteration.
    #[cfg(target_arch = "x86_64")]
    macro_rules! chains {
        ($iters:expr, $set1:ident, $fmadd:ident, $add:ident, $a:expr, $c:expr) => {{
            let (av, cv) = ($set1($a), $set1($c));
            let mut r = [$set1(0.5); 12];
            for _ in 0..$iters {
                r[0] = $fmadd(r[0], av, cv);
                r[1] = $fmadd(r[1], av, cv);
                r[2] = $fmadd(r[2], av, cv);
                r[3] = $fmadd(r[3], av, cv);
                r[4] = $fmadd(r[4], av, cv);
                r[5] = $fmadd(r[5], av, cv);
                r[6] = $fmadd(r[6], av, cv);
                r[7] = $fmadd(r[7], av, cv);
                r[8] = $fmadd(r[8], av, cv);
                r[9] = $fmadd(r[9], av, cv);
                r[10] = $fmadd(r[10], av, cv);
                r[11] = $fmadd(r[11], av, cv);
            }
            let mut total = r[0];
            for x in &r[1..] {
                total = $add(total, *x);
            }
            total
        }};
    }

    /// # Safety
    /// The CPU must support AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn chains_avx512(iters: u64, a: f64, c: f64) -> f64 {
        use std::arch::x86_64::*;
        let total = chains!(iters, _mm512_set1_pd, _mm512_fmadd_pd, _mm512_add_pd, a, c);
        _mm512_reduce_add_pd(total)
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn chains_avx2(iters: u64, a: f64, c: f64) -> f64 {
        use std::arch::x86_64::*;
        let total = chains!(iters, _mm256_set1_pd, _mm256_fmadd_pd, _mm256_add_pd, a, c);
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` holds exactly the four doubles stored.
        _mm256_storeu_pd(lanes.as_mut_ptr(), total);
        lanes.iter().sum()
    }
}

fn matrix_probes(set: &mut MetricSet, b: Budget) {
    let gflops = |flops: f64, secs: f64| flops / secs / 1e9;

    // Peak: one thread, registers only.
    let rates: Vec<f64> = (0..b.reps(9))
        .map(|_| fma_flops_per_sec(black_box(4_000_000)))
        .collect();
    let peak = median(&rates) / 1e9;
    set.push(
        "matrix.peak_fma_gflops",
        peak,
        Some(rates.len()),
        Some(format!(
            "one thread, 12 independent FMA chains at {}",
            simd::detected_level()
        )),
    );

    // Stream triad. The guide wants arrays of at least four times the
    // last-level cache; that is refused above 256 MiB per array, and the
    // note then says the figure may be cache bandwidth. No roofline
    // ratio is derived from it either way.
    let llc = sys::llc_bytes();
    let want = llc.map_or(64 << 20, |l| 4 * l);
    let bytes = if b.quick {
        4 << 20
    } else {
        want.clamp(64 << 20, 256 << 20)
    };
    let len = bytes / 8;
    let (x, y) = (vec![1.0f64; len], vec![2.0f64; len]);
    let mut z = vec![0.0f64; len];
    let (t, n) = time_median(b, || {
        let s = black_box(3.0);
        for ((zi, xi), yi) in z.iter_mut().zip(&x).zip(&y) {
            *zi = xi + s * yi;
        }
        black_box(&mut z);
    });
    set.push(
        "matrix.stream_gbs",
        3.0 * bytes as f64 / t / 1e9,
        Some(n),
        Some(format!(
            "triad, one thread, 3 arrays of {} MiB, LLC {}; computed bytes (no write-allocate){}",
            bytes >> 20,
            llc.map_or("unknown".into(), |l| format!("{} MiB", l >> 20)),
            if llc.is_some_and(|l| bytes >= 4 * l) {
                ""
            } else {
                "; arrays < 4x LLC, so this may be cache bandwidth"
            }
        )),
    );
    drop((x, y, z));

    // gemm 512³, and the same under forced scalar dispatch.
    let (a, bm) = (Matrix::random(512, 512, 1), Matrix::random(512, 512, 2));
    let mut c = Matrix::zeros(512, 512);
    let mut run_gemm = || gemm(Trans::No, Trans::No, 1.0, &a, &bm, 0.0, &mut c);
    let (t_simd, n) = time_median(b, &mut run_gemm);
    let g = gflops(flops::gemm(512, 512, 512), t_simd);
    set.put_n("matrix.gemm_gflops", g, n);
    set.put("matrix.gemm_peak_frac", g / peak);
    simd::force_level(Some(SimdLevel::Scalar));
    let (t_scalar, n) = time_median(b, &mut run_gemm);
    simd::force_level(None);
    set.push(
        "matrix.gemm_simd_over_scalar",
        t_scalar / t_simd,
        Some(n),
        Some(format!("dispatch level {}", simd::active_level())),
    );

    // Householder kernels.
    let tall = Matrix::random(16384, 64, 3);
    let (t, n) = time_median(b, || {
        black_box(geqrt(&tall));
    });
    set.put_n(
        "matrix.geqrt_tall_gflops",
        gflops(flops::geqrt(16384, 64), t),
        n,
    );

    let sq = Matrix::random(1024, 256, 4);
    let geqrt_sq = || {
        black_box(geqrt(&sq));
    };
    let (t1, n) = par::with_forced_fanout(1, || time_median(b, geqrt_sq));
    set.put_n(
        "matrix.geqrt_sq_gflops",
        gflops(flops::geqrt(1024, 256), t1),
        n,
    );
    if sys::nproc() >= 2 {
        let (t2, n) = par::with_forced_fanout(2, || time_median(b, geqrt_sq));
        set.put_n("matrix.geqrt_threads2_over_1", t1 / t2, n);
    } else {
        set.omit(
            "matrix.geqrt_threads2_over_1",
            "nproc = 1 < 2 threads: the ratio would report the scheduler",
        );
    }

    let f = geqrt(&Matrix::random(4096, 64, 5));
    let mut target = Matrix::random(4096, 256, 6);
    let (t, n) = time_median(b, || apply_block_reflector(&f.v, &f.t, &mut target, true));
    set.put_n(
        "matrix.larfb_gflops",
        gflops(flops::apply_block_reflector(4096, 64, 256), t),
        n,
    );

    let f = geqrt(&Matrix::random(32768, 64, 7));
    let (t, n) = time_median(b, || {
        black_box(thin_q(&f.v, &f.t));
    });
    set.put_n(
        "matrix.thin_q_tall_gflops",
        gflops(flops::apply_block_reflector(32768, 64, 64), t),
        n,
    );
    drop(f);

    // The Gram-side kernels CholeskyQR2 uses.
    let (t, n) = time_median(b, || {
        black_box(gram(&tall));
    });
    set.put_n("matrix.syrk_gflops", gflops(flops::syrk(16384, 64), t), n);
    let mut g64 = gram(&tall);
    for i in 0..64 {
        g64[(i, i)] += 1.0;
    }
    let r64 = potrf(&g64).expect("a Gram matrix plus the identity is positive definite");
    let (t, n) = time_median(b, || {
        black_box(trsm(Side::Right, Uplo::Upper, false, false, &r64, &tall));
    });
    set.put_n("matrix.trsm_gflops", gflops(flops::trsm(64, 16384), t), n);
    let (t, n) = time_median(b, || {
        black_box(potrf(&g64).expect("positive definite"));
    });
    set.put_n("matrix.potrf_us", t * 1e6, n);

    // Out-of-core panel QR: resident cap = a quarter of the matrix.
    let (m, nn, tile) = (2048, 256, 64);
    let a = Matrix::random(m, nn, 8);
    let (t_mem, _) = time_median(b, || {
        let mut tm = TiledMatrix::from_matrix(MemStore::new(tile * tile), &a, tile);
        black_box(geqrt_out_of_core(&mut tm));
    });
    let cap = m * nn * 8 / 4;
    let mut stats = None;
    let (t_ooc, n) = time_median(b, || {
        let store = SpillStore::with_capacity(tile * tile, cap);
        let mut tm = TiledMatrix::from_matrix(store, &a, tile);
        black_box(geqrt_out_of_core(&mut tm));
        stats = Some(tm.store().stats());
    });
    let st = stats.expect("the probe ran");
    set.put_n("matrix.ooc_over_inmem", t_mem / t_ooc, n);
    set.put(
        "matrix.ooc_hit_ratio",
        st.hits as f64 / (st.hits + st.misses).max(1) as f64,
    );
    set.put(
        "matrix.ooc_spill_mb",
        st.spill_writes as f64 * (tile * tile * 8) as f64 / f64::from(1 << 20),
    );
}

// ---------------------------------------------------------------------
// machine
// ---------------------------------------------------------------------

/// Median seconds per round trip of a `words`-word payload between two
/// raw endpoints of `transport`, each on its own pinned thread. Every
/// hop builds its payload from a slice, as `Rank::send(&[f64])` does.
fn endpoint_pingpong(transport: &dyn Transport, words: usize, rounds: usize) -> (f64, usize) {
    let mut endpoints = transport.connect(2);
    let mut e1 = endpoints.pop().expect("two endpoints");
    let mut e0 = endpoints.pop().expect("two endpoints");
    let data = vec![1.0f64; words];
    let wait = Duration::from_secs(10);
    let envelope = |src: usize| Envelope {
        src_global: src,
        comm_id: 0,
        tag: 0,
        epoch: 0,
        payload: Payload::from_slice(&data),
        clock: Clock::zero(),
    };
    let cores = sys::nproc();
    let times = std::thread::scope(|s| {
        let echo = s.spawn(|| {
            affinity::pin_current_to(1 % cores);
            for _ in 0..rounds {
                let env = e1.recv(wait).expect("ping arrives");
                black_box(env.payload.len());
                e1.send(0, envelope(1), wait);
            }
        });
        let ping = s.spawn(|| {
            affinity::pin_current_to(0);
            let mut times = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                let t = Instant::now();
                e0.send(1, envelope(0), wait);
                let env = e0.recv(wait).expect("pong arrives");
                times.push(t.elapsed().as_secs_f64());
                black_box(env.payload.len());
            }
            times
        });
        echo.join().expect("echo thread");
        ping.join().expect("ping thread")
    });
    (median(&times), times.len())
}

/// The same ping-pong through `Rank::send`/`Rank::recv` inside a job of
/// a two-rank executor of its own (default transport). The job pins its
/// rank threads like the raw probe pins its two, so that the difference
/// between the two figures is the rank layer and not thread placement: a
/// wake-up across vCPUs costs several times one on the same core.
fn rank_pingpong(words: usize, rounds: usize) -> (f64, usize) {
    let data = vec![1.0f64; words];
    let cores = sys::nproc();
    let out = Executor::new(2, params()).submit(|rank| {
        let w = rank.world();
        affinity::pin_current_to(w.rank() % cores);
        if w.rank() == 0 {
            let mut times = Vec::with_capacity(rounds);
            for r in 0..rounds as u64 {
                let t = Instant::now();
                rank.send(&w, 1, r, &data[..]);
                let back = rank.recv(&w, 1, r);
                times.push(t.elapsed().as_secs_f64());
                black_box(back.len());
            }
            times
        } else {
            for r in 0..rounds as u64 {
                let got = rank.recv(&w, 0, r);
                black_box(got.len());
                rank.send(&w, 0, r, &data[..]);
            }
            Vec::new()
        }
    });
    let times = &out.results[0];
    (median(times), times.len())
}

fn machine_probes(set: &mut MetricSet, b: Budget) {
    const MIB_WORDS: usize = (1 << 20) / 8;
    let (small, large) = (b.reps(20_000), b.reps(200));
    let pinned = if sys::nproc() >= 2 {
        "threads pinned to cores 0 and 1"
    } else {
        "one core: both threads share it"
    };
    let mut raw_small = 0.0;
    for (name, transport) in [
        ("mpsc", &MpscTransport as &dyn Transport),
        ("ring", &RingTransport::default()),
    ] {
        let (t, n) = endpoint_pingpong(transport, 8, small);
        if name == "mpsc" {
            raw_small = t;
        }
        set.push(
            &format!("machine.{name}_pingpong_ns"),
            t * 1e9,
            Some(n),
            Some(pinned.into()),
        );
        let (t, n) = endpoint_pingpong(transport, MIB_WORDS, large);
        set.put_n(&format!("machine.{name}_pingpong_1mib_us"), t * 1e6, n);
    }

    let (t, n) = rank_pingpong(8, small);
    set.push(
        "machine.rank_pingpong_ns",
        t * 1e9,
        Some(n),
        Some(pinned.into()),
    );
    set.put_note(
        "machine.rank_overhead_ns",
        (t - raw_small) * 1e9,
        "rank_pingpong_ns - mpsc_pingpong_ns",
    );

    let mut exec2 = Executor::new(2, params());
    let (t, n) = time_median(b, || {
        exec2.submit(|_| ());
    });
    set.put_n("machine.executor_submit_us_p2", t * 1e6, n);
    drop(exec2);
    let mut exec4 = Executor::new(4, params());
    let (t, n) = time_median(b, || {
        exec4.submit(|_| ());
    });
    set.push(
        "machine.executor_submit_us_p4",
        t * 1e6,
        Some(n),
        (sys::nproc() < 4).then(|| format!("oversubscribed: nproc = {}", sys::nproc())),
    );
    drop(exec4);
    let machine = Machine::new(2, params());
    let (t, n) = time_median(b, || {
        machine.run(|_| ());
    });
    set.put_n("machine.cold_run_us_p2", t * 1e6, n);
}

// ---------------------------------------------------------------------
// collectives
// ---------------------------------------------------------------------

/// `calls` back-to-back calls of one collective inside a single job of
/// `exec`; returns rank 0's wall seconds per call and the job's
/// critical-path `(words, messages)` per call.
fn collective_per_call(
    exec: &mut Executor,
    calls: usize,
    call: impl Fn(&mut Rank, &Comm) + Sync,
) -> (f64, f64, f64) {
    let out = exec.submit(|rank| {
        let w = rank.world();
        let t = Instant::now();
        for _ in 0..calls {
            call(rank, &w);
        }
        t.elapsed().as_secs_f64()
    });
    let c = out.stats.critical();
    let k = calls as f64;
    (out.results[0] / k, c.words / k, c.msgs / k)
}

fn collectives_probes(set: &mut MetricSet, b: Budget) {
    const P: usize = 4;
    let mut exec = Executor::new(P, params());
    for (label, words, calls) in [
        ("4k", 4096usize, b.reps(200)),
        ("147k", 147_456, b.reps(40)),
    ] {
        let data = vec![1.0f64; words];
        let block = words / P;
        let sizes = vec![block; P];
        let blocks: Vec<Vec<f64>> = vec![vec![1.0; block]; P];
        let a2a_sizes = BlockSizes::uniform(P, block);
        let mut put = |name: &str, (secs, w, s): (f64, f64, f64)| {
            set.put_n(&format!("collectives.{name}_us_{label}"), secs * 1e6, calls);
            set.put(&format!("collectives.{name}_words_{label}"), w);
            set.put(&format!("collectives.{name}_msgs_{label}"), s);
        };
        // Each call hands the collective an owned buffer, as its
        // signature demands; that copy is part of the call.
        put(
            "bcast",
            collective_per_call(&mut exec, calls, |rank, w| {
                let root = (w.rank() == 0).then(|| data.clone());
                black_box(broadcast(rank, w, 0, root, words));
            }),
        );
        put(
            "reduce",
            collective_per_call(&mut exec, calls, |rank, w| {
                black_box(reduce(rank, w, 0, data.clone()));
            }),
        );
        put(
            "allreduce",
            collective_per_call(&mut exec, calls, |rank, w| {
                black_box(all_reduce(rank, w, data.clone()));
            }),
        );
        put(
            "allgather",
            collective_per_call(&mut exec, calls, |rank, w| {
                black_box(all_gather_flat(rank, w, &data[..block], &sizes));
            }),
        );
        put(
            "alltoall",
            collective_per_call(&mut exec, calls, |rank, w| {
                black_box(all_to_all(rank, w, blocks.clone(), &a2a_sizes));
            }),
        );
    }
}

// ---------------------------------------------------------------------
// mm
// ---------------------------------------------------------------------

/// Rank 0's seconds per `dmm3d` of two `n × n` matrices over `reps`
/// calls inside one four-rank job.
fn dmm3d_secs(exec: &mut Executor, n: usize, reps: usize) -> f64 {
    let p = exec.procs();
    let grid = Grid3::choose(n, n, n, p);
    let (a, bm) = (Matrix::random(n, n, 21), Matrix::random(n, n, 22));
    let (brick_a, brick_b) = (BrickA::new(grid, n, n, p), BrickB::new(grid, n, n, p));
    let out = exec.submit(|rank| {
        let w = rank.world();
        let (a_loc, b_loc) = match grid.coords(w.rank()) {
            Some((q, r, s)) => {
                let (ar, ac) = brick_a.block_of(q, r, s);
                let (br, bc) = brick_b.block_of(q, r, s);
                (
                    a.submatrix(ar.start, ar.end, ac.start, ac.end),
                    bm.submatrix(br.start, br.end, bc.start, bc.end),
                )
            }
            None => (Matrix::zeros(0, 0), Matrix::zeros(0, 0)),
        };
        let t = Instant::now();
        for _ in 0..reps {
            black_box(dmm3d(rank, &w, grid, &a_loc, &b_loc, n, n, n));
        }
        t.elapsed().as_secs_f64() / reps as f64
    });
    out.results[0]
}

fn mm_probes(set: &mut MetricSet, b: Budget) {
    const P: usize = 4;
    let mut exec = Executor::new(P, params());
    let reps = b.reps(20);
    let t384 = dmm3d_secs(&mut exec, 384, reps);
    set.put_n(
        "mm.dmm3d_gflops_384",
        flops::gemm(384, 384, 384) / t384 / 1e9,
        reps,
    );
    let reps96 = b.reps(400);
    set.put_n(
        "mm.dmm3d_us_96",
        dmm3d_secs(&mut exec, 96, reps96) * 1e6,
        reps96,
    );

    let (a, bm) = (Matrix::random(384, 384, 21), Matrix::random(384, 384, 22));
    let mut c = Matrix::zeros(384, 384);
    let (t_local, n) = time_median(b, || gemm(Trans::No, Trans::No, 1.0, &a, &bm, 0.0, &mut c));
    set.put_n("mm.dmm3d_over_local", t_local / t384, n);

    // 1D dmm, reduce case: C = Σ_p L_pᵀ R_p with 16384 rows over 4 ranks.
    let (m, i, j) = (16384, 64, 64);
    let (left, right) = (Matrix::random(m, i, 23), Matrix::random(m, j, 24));
    let lay = BlockRow::balanced(m, 1, P);
    let out = exec.submit(|rank| {
        let w = rank.world();
        let rows = lay.local_rows(w.rank());
        let (l, r) = (left.take_rows(&rows), right.take_rows(&rows));
        let t = Instant::now();
        for _ in 0..reps {
            black_box(dmm1d_reduce(rank, &w, &l, &r, 0));
        }
        t.elapsed().as_secs_f64() / reps as f64
    });
    set.put_n(
        "mm.dmm1d_gflops",
        flops::gemm(i, j, m) / out.results[0] / 1e9,
        reps,
    );

    // Row-cyclic → brick redistribution of a 384² operand.
    let grid = Grid3::choose(384, 384, 384, P);
    let from = RowCyclicDist::new(384, 384, P);
    let to = BrickA::new(grid, 384, 384, P);
    let out = exec.submit(|rank| {
        let w = rank.world();
        let local = from.0.scatter_from_full(&a, w.rank());
        let t = Instant::now();
        for _ in 0..reps {
            black_box(redistribute(rank, &w, local.as_slice(), &from, &to));
        }
        t.elapsed().as_secs_f64() / reps as f64
    });
    set.put_n("mm.redist_us", out.results[0] * 1e6, reps);
}

// ---------------------------------------------------------------------
// core and session
// ---------------------------------------------------------------------

fn core_probes(set: &mut MetricSet, b: Budget) {
    // Fault-free cost of the checksum-coded TSQR (one spare) against
    // the plain one, 8192x32 on two compute ranks.
    let (m, n, p) = (8192, 32, 2);
    let a = Matrix::random(m, n, 31);
    let lay = BlockRow::balanced(m, 1, p);
    let mut plain = Executor::new(p, params());
    let (t_plain, _) = time_median(b, || {
        plain.submit(|rank| {
            let w = rank.world();
            tsqr_factor(rank, &w, &a.take_rows(&lay.local_rows(w.rank())))
        });
    });
    drop(plain);
    let mut coded = Executor::new(p + 1, params());
    let cfg = FtConfig::default();
    let (t_ft, samples) = time_median(b, || {
        coded.submit(|rank| {
            let w = rank.world();
            let local = if w.rank() < p {
                a.take_rows(&lay.local_rows(w.rank()))
            } else {
                Matrix::zeros(m / p, n)
            };
            tsqr_factor_ft(rank, &w, &local, &cfg)
        });
    });
    drop(coded);
    set.push(
        "core.tsqr_ft_over_tsqr",
        t_plain / t_ft,
        Some(samples),
        (sys::nproc() < p + 1).then(|| {
            format!(
                "oversubscribed: {} threads on nproc = {}",
                p + 1,
                sys::nproc()
            )
        }),
    );

    // Streaming QR: 32 appended blocks of 1024x32, then the finish.
    let blocks: Vec<Matrix> = (0..32).map(|i| Matrix::random(1024, 32, 40 + i)).collect();
    let mut session = Session::new(2, FactorParams::default());
    let (mut appends, mut finishes) = (Vec::new(), Vec::new());
    for _ in 0..b.reps(5) {
        let mut upd = UpdatingQr::new();
        for block in &blocks {
            let t = Instant::now();
            upd.append_rows(&mut session, block);
            appends.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let t = Instant::now();
        black_box(upd.finish(&mut session));
        finishes.push(t.elapsed().as_secs_f64() * 1e3);
    }
    set.put_n("core.stream_append_ms", median(&appends), appends.len());
    set.put_n("core.stream_finish_ms", median(&finishes), finishes.len());
    drop(session);

    // The δ tradeoff on record: modelled words and messages of
    // 3D-CAQR-EG on 384x384, P = 4, at both ends of δ. Counts; they
    // repeat exactly.
    let a = Matrix::random(384, 384, 50);
    let mut session = Session::new(4, FactorParams::default());
    for (label, delta) in [("d50", 0.5), ("d67", 2.0 / 3.0)] {
        let out = session
            .factor(&a, QrBackend::Caqr3d { delta })
            .expect("Householder backends do not fail");
        set.put(&format!("core.sq3d_words_{label}"), out.critical.words);
        set.put(&format!("core.sq3d_msgs_{label}"), out.critical.msgs);
    }
}

fn session_probes(set: &mut MetricSet, b: Budget) {
    let fp = FactorParams::default();
    let problems: Vec<Matrix> = (0..8).map(|s| Matrix::random(512, 16, 60 + s)).collect();
    let mut session = Session::new(2, fp);
    let (t_warm, _) = time_median(b, || {
        black_box(session.factor(&problems[0], QrBackend::Tsqr)).expect("tsqr");
    });
    let (t_cold, n) = time_median(b, || {
        black_box(factor(&problems[0], 2, QrBackend::Tsqr, &fp)).expect("tsqr");
    });
    set.put_n("session.warm_over_cold", t_cold / t_warm, n);

    let (t_fused, n) = time_median(b, || {
        let batch = session.factor_batch(&problems, QrBackend::Tsqr);
        assert!(batch.fused, "a same-shape tall-skinny batch fuses");
        black_box(batch);
    });
    let (t_single, _) = time_median(b, || {
        for a in &problems {
            black_box(session.factor(a, QrBackend::Tsqr)).expect("tsqr");
        }
    });
    set.put_n("session.fused_over_single", t_single / t_fused, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_chains_agree_across_vector_levels() {
        // x' = x·a + c from 0.5, three times, summed over every lane.
        let x = ((0.5f64.mul_add(2.0, 1.0)).mul_add(2.0, 1.0)).mul_add(2.0, 1.0);
        assert_eq!(fma::chains_scalar(3, 2.0, 1.0), 12.0 * x);
        #[cfg(target_arch = "x86_64")]
        {
            if simd::detected_level() >= SimdLevel::Avx2 {
                // SAFETY: the level was just detected.
                assert_eq!(unsafe { fma::chains_avx2(3, 2.0, 1.0) }, 48.0 * x);
            }
            if simd::detected_level() >= SimdLevel::Avx512 {
                // SAFETY: the level was just detected.
                assert_eq!(unsafe { fma::chains_avx512(3, 2.0, 1.0) }, 96.0 * x);
            }
        }
        assert!(fma_flops_per_sec(1000) > 0.0);
    }

    #[test]
    fn pingpong_times_every_round() {
        let (t, n) = endpoint_pingpong(&MpscTransport, 8, 50);
        assert_eq!(n, 50);
        assert!(t > 0.0);
        let (t, n) = rank_pingpong(8, 50);
        assert_eq!(n, 50);
        assert!(t > 0.0);
    }
}
