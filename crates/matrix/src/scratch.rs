//! Scratch arenas for the blocked kernels: reusable `f64` buffers so the
//! factorization hot loops allocate nothing in steady state.
//!
//! The blocked [`crate::qr::geqrt`], [`crate::tri::trsm`], and friends
//! need panel/workspace buffers every blocking step. Allocating them
//! fresh each step makes the kernels measure the allocator instead of
//! the arithmetic, so every blocked entry point has a `*_ws` variant
//! taking `&mut dyn ScratchArena`. Where a simulated rank runs,
//! `qr3d_machine::Workspace` implements the trait, so the per-rank pool
//! serves the kernels directly; serial paths (tests, host-side
//! assembly) use a [`LocalArena`] — the convenience wrappers without a
//! `_ws` suffix fall back to a per-thread `LocalArena` automatically.

use std::cell::RefCell;

use crate::dense::Matrix;

/// A pool of reusable `Vec<f64>` scratch buffers. `take` returns a
/// zeroed buffer of exactly the requested length; `put` recycles it.
pub trait ScratchArena {
    /// Borrow a zeroed buffer of exactly `len` words.
    fn take(&mut self, len: usize) -> Vec<f64>;
    /// Return a buffer to the pool for reuse.
    fn put(&mut self, v: Vec<f64>);
}

/// Borrow an `r × c` zeroed scratch matrix from the arena.
pub fn take_matrix(ws: &mut dyn ScratchArena, r: usize, c: usize) -> Matrix {
    Matrix::from_vec(r, c, ws.take(r * c))
}

/// Return a scratch matrix's buffer to the arena.
pub fn put_matrix(ws: &mut dyn ScratchArena, m: Matrix) {
    ws.put(m.into_vec());
}

/// Buffers an arena retains at most; returning more drops the smallest.
pub const POOL_CAP: usize = 16;

/// A pooling arena: the backing store of the per-rank
/// `qr3d_machine::Workspace` and the standalone arena of serial callers.
#[derive(Debug, Default)]
pub struct LocalArena {
    pool: Vec<Vec<f64>>,
    hits: u64,
    misses: u64,
    outstanding_bytes: usize,
    peak_bytes: usize,
}

impl LocalArena {
    /// An empty arena.
    pub fn new() -> Self {
        LocalArena::default()
    }

    /// Borrow an *empty* buffer with at least `cap` capacity: the best-fit
    /// pooled buffer (smallest sufficient capacity), cleared, or a fresh
    /// one. For a buffer the caller fills by appending, this skips
    /// [`ScratchArena::take`]'s zero fill.
    pub fn take_empty(&mut self, cap: usize) -> Vec<f64> {
        if cap == 0 {
            // Needs no storage: never hand out (and so lose) a pooled
            // buffer for it.
            return Vec::new();
        }
        let mut best: Option<usize> = None;
        for (i, b) in self.pool.iter().enumerate() {
            if b.capacity() >= cap && best.is_none_or(|j| b.capacity() < self.pool[j].capacity()) {
                best = Some(i);
            }
        }
        let v = match best {
            Some(i) => {
                self.hits += 1;
                let mut v = self.pool.swap_remove(i);
                v.clear();
                v
            }
            None => {
                self.misses += 1;
                Vec::with_capacity(cap)
            }
        };
        self.outstanding_bytes += v.capacity() * size_of::<f64>();
        self.peak_bytes = self.peak_bytes.max(self.outstanding_bytes);
        v
    }

    /// Borrow a buffer holding a copy of `src`, reusing pooled capacity.
    /// Each word is written exactly once (no zero-fill before the copy).
    pub fn take_copy_of(&mut self, src: &[f64]) -> Vec<f64> {
        let mut v = self.take_empty(src.len());
        v.extend_from_slice(src);
        v
    }

    /// `(reuses, fresh allocations)` served so far — lets tests assert
    /// that steady-state loops stopped allocating.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of buffers currently retained (≤ [`POOL_CAP`]).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Bytes currently borrowed from the arena (taken, not yet `put`
    /// back), counted by buffer capacity.
    pub fn outstanding_bytes(&self) -> usize {
        self.outstanding_bytes
    }

    /// High-watermark of [`LocalArena::outstanding_bytes`] over the
    /// arena's lifetime — what the kernels' scratch demand actually
    /// peaked at, so callers can budget the arena alongside a bounded
    /// tile cache (`SpillStore`).
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }
}

impl ScratchArena for LocalArena {
    fn take(&mut self, len: usize) -> Vec<f64> {
        let mut v = self.take_empty(len);
        v.resize(len, 0.0);
        v
    }

    fn put(&mut self, v: Vec<f64>) {
        // Saturating: a caller may `put` a buffer the arena never served
        // (or one it grew), so the decrement can exceed the increment.
        self.outstanding_bytes = self
            .outstanding_bytes
            .saturating_sub(v.capacity() * size_of::<f64>());
        if v.capacity() == 0 {
            return;
        }
        self.pool.push(v);
        if self.pool.len() > POOL_CAP {
            let min = self
                .pool
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i)
                .expect("pool nonempty");
            self.pool.swap_remove(min);
        }
    }
}

thread_local! {
    static THREAD_ARENA: RefCell<LocalArena> = RefCell::new(LocalArena::new());
}

/// Run `f` with the calling thread's default arena. Used by the
/// non-`_ws` kernel wrappers; do not nest (the arena is a `RefCell`),
/// which the wrappers guarantee by never calling each other.
pub fn with_thread_arena<R>(f: impl FnOnce(&mut LocalArena) -> R) -> R {
    THREAD_ARENA.with(|a| f(&mut a.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_and_reuses() {
        let mut ws = LocalArena::new();
        let mut b = ws.take(8);
        assert_eq!(b, vec![0.0; 8]);
        b[3] = 5.0;
        let ptr = b.as_ptr();
        ws.put(b);
        let b2 = ws.take(6);
        assert_eq!(b2.as_ptr(), ptr, "smaller request reuses the buffer");
        assert_eq!(b2, vec![0.0; 6], "reused buffers are re-zeroed");
        assert_eq!(ws.stats(), (1, 1));
    }

    #[test]
    fn an_empty_request_leaves_the_pool_alone() {
        let mut ws = LocalArena::new();
        ws.put(vec![0.0; 64]);
        let e = ws.take(0);
        assert_eq!(e.capacity(), 0);
        assert_eq!((ws.pooled(), ws.stats()), (1, (0, 0)));
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = LocalArena::new();
        for i in 1..POOL_CAP + 10 {
            ws.put(vec![0.0; i]);
        }
        assert!(ws.pool.len() <= POOL_CAP);
        // The retained buffers are the largest ones.
        assert!(ws.pool.iter().all(|b| b.capacity() > 9));
    }

    #[test]
    fn matrix_roundtrip() {
        let mut ws = LocalArena::new();
        let m = take_matrix(&mut ws, 3, 4);
        assert_eq!((m.rows(), m.cols()), (3, 4));
        put_matrix(&mut ws, m);
        let (hits, misses) = ws.stats();
        assert_eq!((hits, misses), (0, 1));
        let _ = take_matrix(&mut ws, 2, 2);
        assert_eq!(ws.stats(), (1, 1));
    }

    #[test]
    fn watermark_tracks_outstanding_and_peak() {
        let mut ws = LocalArena::new();
        assert_eq!((ws.outstanding_bytes(), ws.peak_bytes()), (0, 0));
        let a = ws.take(4);
        let b = ws.take(8);
        let live = (a.capacity() + b.capacity()) * size_of::<f64>();
        assert_eq!(ws.outstanding_bytes(), live);
        assert_eq!(ws.peak_bytes(), live);
        ws.put(a);
        assert!(ws.outstanding_bytes() < live, "put shrinks outstanding");
        assert_eq!(ws.peak_bytes(), live, "peak is a high-watermark");
        ws.put(b);
        assert_eq!(ws.outstanding_bytes(), 0);
        // Reuse from the pool counts the same as a fresh allocation.
        let c = ws.take(6);
        assert_eq!(ws.outstanding_bytes(), c.capacity() * size_of::<f64>());
        ws.put(c);
        // Returning a buffer the arena never served must not underflow.
        ws.put(vec![0.0; 1000]);
        assert_eq!(ws.outstanding_bytes(), 0);
    }

    #[test]
    fn thread_arena_serves() {
        let n = with_thread_arena(|ws| {
            let b = ws.take(32);
            let n = b.len();
            ws.put(b);
            n
        });
        assert_eq!(n, 32);
    }
}
