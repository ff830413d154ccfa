//! Per-rank scratch arena: reusable `f64` buffers for inner loops.
//!
//! Distributed kernels (SUMMA panels, dmm gathers, TSQR downsweeps) need
//! short-lived buffers every iteration. Allocating them fresh each time
//! makes the simulator's wall-clock measure the allocator instead of the
//! algorithm, so every [`crate::Rank`] carries a [`Workspace`]: a thin
//! wrapper around the pooling [`LocalArena`] of `qr3d_matrix::scratch`
//! (one implementation of best-fit take / bounded put for the whole
//! workspace). After warm-up, steady-state inner loops allocate nothing.
//!
//! The workspace doubles as the scratch arena of the blocked
//! `qr3d_matrix` kernels (`geqrt_ws`, `apply_block_reflector_ws`,
//! `trsm_ws`, …): pass `rank.workspace()` straight to the `*_ws` entry
//! points and the factorization hot loops draw every panel buffer from
//! this pool — zero allocations per job once warm.

use qr3d_matrix::scratch::{LocalArena, ScratchArena};

use crate::Payload;

/// A pool of reusable `Vec<f64>` scratch buffers.
#[derive(Debug, Default)]
pub struct Workspace {
    arena: LocalArena,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Borrow a zeroed buffer of exactly `len` words, reusing pooled
    /// capacity when possible. Return it with [`Workspace::put`].
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        self.arena.take(len)
    }

    /// Borrow a buffer holding a copy of `src`, reusing pooled capacity.
    /// Each word is written exactly once (no zero-fill before the copy).
    pub fn take_copy_of(&mut self, src: &[f64]) -> Vec<f64> {
        self.arena.take_copy_of(src)
    }

    /// Borrow an empty buffer with at least `cap` capacity, reusing
    /// pooled capacity — for a buffer filled by appending (an outgoing
    /// message), which needs no zero fill.
    pub fn take_empty(&mut self, cap: usize) -> Vec<f64> {
        self.arena.take_empty(cap)
    }

    /// Return a buffer to the pool for reuse.
    pub fn put(&mut self, v: Vec<f64>) {
        self.arena.put(v)
    }

    /// Recycle a fully consumed received message: its buffer joins the
    /// pool without a copy when this was the last reference to it, and
    /// is simply dropped while another view still shares it.
    pub fn reclaim(&mut self, msg: Payload) {
        if let Some(v) = msg.into_buffer() {
            self.arena.put(v)
        }
    }

    /// `(reuses, fresh allocations)` served so far — lets tests assert
    /// that steady-state loops stopped allocating.
    pub fn stats(&self) -> (u64, u64) {
        self.arena.stats()
    }

    /// Number of buffers currently retained (bounded by the arena's
    /// `POOL_CAP`).
    pub fn pooled(&self) -> usize {
        self.arena.pooled()
    }

    /// Bytes currently borrowed from the workspace (taken, not yet
    /// returned), counted by buffer capacity. A message buffer sent to
    /// another rank stays counted here, and the receiver's
    /// [`Workspace::reclaim`] counts as a return there (saturating at
    /// zero), so on ranks that exchange pooled messages this is only an
    /// estimate of the rank's own scratch.
    pub fn outstanding_bytes(&self) -> usize {
        self.arena.outstanding_bytes()
    }

    /// High-watermark of [`Workspace::outstanding_bytes`] — the peak
    /// scratch demand of the jobs this rank has run, for budgeting the
    /// workspace together with a bounded tile cache.
    pub fn peak_bytes(&self) -> usize {
        self.arena.peak_bytes()
    }
}

impl ScratchArena for Workspace {
    fn take(&mut self, len: usize) -> Vec<f64> {
        self.arena.take(len)
    }

    fn put(&mut self, v: Vec<f64>) {
        self.arena.put(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr3d_matrix::scratch::POOL_CAP;

    #[test]
    fn take_returns_zeroed_exact_len() {
        let mut ws = Workspace::new();
        let mut b = ws.take(5);
        assert_eq!(b, vec![0.0; 5]);
        b[0] = 9.0;
        ws.put(b);
        let b2 = ws.take(3);
        assert_eq!(b2, vec![0.0; 3], "reused buffers are re-zeroed");
    }

    #[test]
    fn reuse_avoids_allocation() {
        let mut ws = Workspace::new();
        let b = ws.take(100);
        let ptr = b.as_ptr();
        ws.put(b);
        let b2 = ws.take(64);
        assert_eq!(b2.as_ptr(), ptr, "smaller request reuses the pooled buffer");
        assert_eq!(ws.stats(), (1, 1));
    }

    #[test]
    fn take_copy_of_copies_without_zeroing() {
        let mut ws = Workspace::new();
        let b = ws.take(8);
        ws.put(b);
        let c = ws.take_copy_of(&[1.0, 2.0, 3.0]);
        assert_eq!(c, vec![1.0, 2.0, 3.0]);
        assert_eq!(ws.stats(), (1, 1), "copy served from the pool");
    }

    #[test]
    fn take_empty_reuses_without_filling() {
        let mut ws = Workspace::new();
        let b = ws.take(8);
        let ptr = b.as_ptr();
        ws.put(b);
        let e = ws.take_empty(6);
        assert!(e.is_empty() && e.capacity() >= 6);
        assert_eq!(e.as_ptr(), ptr, "served from the pool");
        assert_eq!(ws.stats(), (1, 1));
    }

    #[test]
    fn reclaim_pools_a_unique_message_and_drops_a_shared_one() {
        let mut ws = Workspace::new();
        let msg = Payload::new(vec![1.0; 32]);
        let view = msg.slice(4..8);
        ws.reclaim(msg);
        assert_eq!(ws.pooled(), 0, "a view still shares the buffer");
        let ptr = view.as_ptr();
        ws.reclaim(view);
        assert_eq!(ws.pooled(), 1, "the last reference recycles the buffer");
        let again = ws.take_empty(32);
        assert_eq!(again.as_ptr(), ptr.wrapping_sub(4), "whole buffer, no copy");
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut ws = Workspace::new();
        let small = ws.take(10);
        let big = ws.take(1000);
        let small_ptr = small.as_ptr();
        ws.put(big);
        ws.put(small);
        let got = ws.take(8);
        assert_eq!(got.as_ptr(), small_ptr, "should not burn the big buffer");
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        for i in 1..POOL_CAP + 10 {
            let v = ws.take(i);
            ws.put(v);
            let v = vec![0.0; i];
            ws.put(v);
        }
        assert!(ws.pooled() <= POOL_CAP);
    }

    #[test]
    fn watermark_delegates_to_arena() {
        let mut ws = Workspace::new();
        let b = ws.take(16);
        let bytes = b.capacity() * size_of::<f64>();
        assert_eq!(ws.outstanding_bytes(), bytes);
        assert_eq!(ws.peak_bytes(), bytes);
        ws.put(b);
        assert_eq!(ws.outstanding_bytes(), 0);
        assert_eq!(ws.peak_bytes(), bytes);
    }

    #[test]
    fn zero_len_take_and_put() {
        let mut ws = Workspace::new();
        let v = ws.take(0);
        assert!(v.is_empty());
        ws.put(v); // capacity 0: silently dropped
        assert_eq!(ws.pooled(), 0);
    }
}
