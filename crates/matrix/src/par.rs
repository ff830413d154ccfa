//! Within-rank worker pool for the embarrassingly parallel block loops.
//!
//! The paper's cost model (and the cost advisor's constants) charge
//! *single-thread* flop formulas per rank; real hybrid runs
//! (MPI + OpenMP in the reference implementations) then multiply the
//! local flop rate by running the trailing-update loops on a few cores.
//! This module is that multiplier: a tiny std-only helper pool that
//! [`crate::gemm::gemm`] uses to split its macro-tile row bands across
//! `QR3D_RANK_THREADS` workers. `geqrt`'s block updates, `trsm`'s
//! folds, and the CholeskyQR2 Grams all funnel through `gemm`, so one
//! parallel entry point covers every O(n³) loop.
//!
//! ## Determinism
//!
//! Work is handed out as *disjoint output row bands*: each worker owns
//! its rows of `C` exclusively and runs the identical packed-loop
//! arithmetic over the full `k` extent, so the per-element fma chain is
//! the same regardless of how many workers ran (see
//! `crate::gemm`). Results are bitwise-identical to
//! `QR3D_RANK_THREADS=1` by construction — pinned by
//! `tests/simd_par_bitwise.rs`.
//!
//! ## Thread budgeting
//!
//! A simulated machine already runs one OS thread per rank. To keep
//! `P ranks × T workers` from oversubscribing the host,
//! [`set_concurrent_ranks`] (called by the machine executor when it
//! spawns rank threads) divides the available cores among ranks:
//! `fanout = min(QR3D_RANK_THREADS, max(1, cores / ranks))`. Tests and
//! benches that need a specific fanout regardless of core count use
//! [`with_forced_fanout`].
//!
//! ## Pool mechanics
//!
//! Helper threads are spawned lazily on first demand (never more than
//! [`MAX_FANOUT`]` - 1`) and parked on a condvar between jobs. A job is
//! `n` chunks of a caller-borrowed `Fn(usize)`: the caller enqueues
//! chunks `1..n`, runs chunk `0` itself, then *drains its own remaining
//! chunks* from the queue (so a busy pool can never delay a caller
//! indefinitely — it degrades to serial execution), and finally blocks
//! until stolen chunks complete. Panics in any chunk are captured and
//! re-raised on the caller.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::block::BlockParams;

/// Hard cap on a job's parallel width (and on pool helpers + 1).
pub const MAX_FANOUT: usize = 16;

/// One borrowed job: a lifetime-erased chunk closure plus completion
/// bookkeeping. The erased pointer is only dereferenced while the
/// submitting [`run_chunks`] call is blocked in this module, which is
/// what makes the erasure sound (same discipline as the machine
/// executor's job handshake).
struct TaskShared {
    /// Type-erased `&F where F: Fn(usize) + Sync`.
    f: *const (),
    /// Monomorphized trampoline restoring the concrete `F`.
    call: unsafe fn(*const (), usize),
    /// Total chunks in the job.
    total: usize,
    /// Chunks finished (panicked chunks count as finished).
    done: AtomicUsize,
    /// Pairs with `cv` for the caller's completion wait.
    lock: Mutex<()>,
    cv: Condvar,
    /// First captured panic payload, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `f` points at an `F: Sync` borrowed by the submitting thread
// for the full lifetime of the job (run_chunks does not return before
// `done == total`), and the trampoline only shares it immutably.
unsafe impl Send for TaskShared {}
unsafe impl Sync for TaskShared {}

struct PoolState {
    items: VecDeque<(Arc<TaskShared>, usize)>,
    helpers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    cv: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            items: VecDeque::new(),
            helpers: 0,
        }),
        cv: Condvar::new(),
    })
}

fn helper_loop() {
    let pool = pool();
    let mut guard = pool.state.lock().expect("pool lock");
    loop {
        if let Some((task, idx)) = guard.items.pop_front() {
            drop(guard);
            run_chunk(&task, idx);
            guard = pool.state.lock().expect("pool lock");
        } else {
            guard = pool.cv.wait(guard).expect("pool lock");
        }
    }
}

/// Execute one chunk, capture any panic, and publish completion.
fn run_chunk(task: &TaskShared, idx: usize) {
    // SAFETY: the submitting run_chunks call is blocked until this
    // task's `done` reaches `total`, keeping the pointee alive.
    let result = catch_unwind(AssertUnwindSafe(|| unsafe { (task.call)(task.f, idx) }));
    if let Err(payload) = result {
        task.panic
            .lock()
            .expect("panic slot lock")
            .get_or_insert(payload);
    }
    // Release pairs with the caller's Acquire load; the lock round-trip
    // makes the final notify race-free against the caller's wait.
    if task.done.fetch_add(1, Ordering::Release) + 1 == task.total {
        let _g = task.lock.lock().expect("task lock");
        task.cv.notify_all();
    }
}

/// Make sure at least `want` helper threads exist (capped at
/// [`MAX_FANOUT`]` - 1`). Spawn failure is non-fatal: the caller drains
/// its own chunks, so the job still completes serially.
fn ensure_helpers(want: usize) {
    let pool = pool();
    let want = want.min(MAX_FANOUT - 1);
    let mut st = pool.state.lock().expect("pool lock");
    while st.helpers < want {
        let name = format!("qr3d-par-{}", st.helpers);
        let spawned = std::thread::Builder::new()
            .name(name)
            .stack_size(8 << 20)
            .spawn(helper_loop);
        match spawned {
            Ok(_) => st.helpers += 1,
            Err(_) => break,
        }
    }
}

/// Run `f(0)`, `f(1)`, …, `f(n - 1)`, possibly concurrently on the
/// helper pool, returning when all chunks have finished. Chunk `0` runs
/// on the calling thread. A panic in any chunk is re-raised here after
/// the remaining chunks complete. With `n <= 1` this is a plain call.
///
/// Callers are responsible for making chunks write disjoint data; the
/// pool adds no ordering between chunks.
pub fn run_chunks<F: Fn(usize) + Sync>(n: usize, f: &F) {
    if n == 0 {
        return;
    }
    if n == 1 {
        f(0);
        return;
    }
    unsafe fn trampoline<F: Fn(usize)>(p: *const (), idx: usize) {
        (*(p as *const F))(idx)
    }
    ensure_helpers(n - 1);
    let task = Arc::new(TaskShared {
        f: f as *const F as *const (),
        call: trampoline::<F>,
        total: n,
        done: AtomicUsize::new(0),
        lock: Mutex::new(()),
        cv: Condvar::new(),
        panic: Mutex::new(None),
    });
    let pool = pool();
    {
        let mut st = pool.state.lock().expect("pool lock");
        for idx in 1..n {
            st.items.push_back((Arc::clone(&task), idx));
        }
    }
    pool.cv.notify_all();
    run_chunk(&task, 0);
    // Drain chunks of *this* job that no helper has claimed yet.
    loop {
        let mine = {
            let mut st = pool.state.lock().expect("pool lock");
            let pos = st.items.iter().position(|(t, _)| Arc::ptr_eq(t, &task));
            pos.and_then(|p| st.items.remove(p))
        };
        match mine {
            Some((t, idx)) => run_chunk(&t, idx),
            None => break,
        }
    }
    // Wait for stolen chunks. The condition is checked under the task
    // lock that run_chunk's final notify also takes, so the wakeup
    // cannot be lost.
    {
        let mut g = task.lock.lock().expect("task lock");
        while task.done.load(Ordering::Acquire) < n {
            g = task.cv.wait(g).expect("task lock");
        }
    }
    let payload = task.panic.lock().expect("panic slot lock").take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// How many rank threads a simulated machine is currently running;
/// the executor stores `p` here when it spawns ranks (latest spawn
/// wins — concurrent machines share the host conservatively).
static CONCURRENT_RANKS: AtomicUsize = AtomicUsize::new(1);

/// Declare that `p` rank threads will run concurrently, shrinking each
/// rank's worker fanout so `ranks × workers` stays within the host's
/// cores. Called by `qr3d_machine`'s executor; `p = 1` restores full
/// fanout.
pub fn set_concurrent_ranks(p: usize) {
    CONCURRENT_RANKS.store(p.max(1), Ordering::Relaxed);
}

fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

thread_local! {
    static FORCED_FANOUT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Run `f` with this thread's parallel fanout pinned to `n` (clamped to
/// `1..=`[`MAX_FANOUT`]), ignoring `QR3D_RANK_THREADS` and the core
/// budget. Restores the previous value on exit, including on panic.
/// This is how tests and benches compare thread counts on any host.
pub fn with_forced_fanout<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED_FANOUT.with(|c| c.set(self.0));
        }
    }
    let prev = FORCED_FANOUT.with(|c| c.replace(Some(n.clamp(1, MAX_FANOUT))));
    let _restore = Restore(prev);
    f()
}

/// The parallel width the block loops should use right now: a
/// [`with_forced_fanout`] override if present, else
/// `min(QR3D_RANK_THREADS, max(1, cores / concurrent ranks))`.
pub fn fanout() -> usize {
    if let Some(n) = FORCED_FANOUT.with(|c| c.get()) {
        return n;
    }
    let t = BlockParams::active().rank_threads;
    if t <= 1 {
        return 1;
    }
    let ranks = CONCURRENT_RANKS.load(Ordering::Relaxed).max(1);
    let budget = (available_cores() / ranks).max(1);
    t.min(budget).min(MAX_FANOUT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn every_chunk_runs_exactly_once() {
        for n in [1usize, 2, 3, 8, 16, 40] {
            let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            run_chunks(n, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "chunk {i} of {n}");
            }
        }
    }

    #[test]
    fn writes_from_all_chunks_are_visible() {
        let mut out = vec![0u64; 64];
        {
            let base = out.as_mut_ptr() as usize;
            run_chunks(8, &move |i| {
                // SAFETY: disjoint 8-element bands per chunk.
                let band =
                    unsafe { std::slice::from_raw_parts_mut((base as *mut u64).add(i * 8), 8) };
                for (j, v) in band.iter_mut().enumerate() {
                    *v = (i * 8 + j) as u64 + 1;
                }
            });
        }
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn chunk_panic_reaches_the_caller() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_chunks(4, &|i| {
                if i == 2 {
                    panic!("boom in chunk 2");
                }
            });
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom in chunk 2");
        // The pool must still be usable afterwards.
        run_chunks(4, &|_| {});
    }

    #[test]
    fn forced_fanout_overrides_and_restores() {
        let before = fanout();
        let inner = with_forced_fanout(4, || {
            let mid = with_forced_fanout(200, fanout);
            assert_eq!(mid, MAX_FANOUT, "forced fanout clamps to MAX_FANOUT");
            fanout()
        });
        assert_eq!(inner, 4);
        assert_eq!(fanout(), before, "override is scoped");
        let zero = with_forced_fanout(0, fanout);
        assert_eq!(zero, 1, "forced fanout clamps up to 1");
    }

    #[test]
    fn rank_budget_divides_cores() {
        // With a forced override the budget is ignored entirely.
        set_concurrent_ranks(usize::MAX);
        assert_eq!(with_forced_fanout(2, fanout), 2);
        set_concurrent_ranks(1);
    }
}
