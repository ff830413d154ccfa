//! Leftovers of the within-rank worker pool, kept only because the
//! standing benchmark (`benchmark/`) still imports them.
//!
//! Every rank runs on one thread: the paper's machine charges each
//! processor single-thread flops, and TSQR's answer to more cores is
//! more leaves, not threads inside a leaf. A benchmark-only change
//! removes this module together with the benchmark's
//! `matrix.geqrt_threads2_over_1` probe and its `par_fanout`
//! fingerprint field.

/// Always 1: every kernel runs on its rank's own thread.
#[doc(hidden)]
pub fn fanout() -> usize {
    1
}

/// Runs `f`: with one thread per rank there is no fanout to force.
#[doc(hidden)]
pub fn with_forced_fanout<R>(_n: usize, f: impl FnOnce() -> R) -> R {
    f()
}
