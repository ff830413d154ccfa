//! Runtime parameters of the local kernels.
//!
//! The tile widths the blocked kernels were tuned with are constants
//! beside their kernels ([`crate::tri::TRI_NB`], [`crate::pivot::PIVOT_NB`],
//! [`crate::gemm::MC`]/[`KC`](crate::gemm::KC)/[`NC`](crate::gemm::NC)).
//! What a deployment or a CI leg really varies is resolved **once** per
//! process into a [`BlockParams`]:
//!
//! | variable           | kernel                      | default |
//! |--------------------|-----------------------------|---------|
//! | `QR3D_SIMD`        | [`crate::simd`] dispatch (`auto`/`avx512`/`avx2`/`scalar`) | `auto` |
//! | `QR3D_RANK_THREADS`| [`crate::par`] within-rank workers | 1 |
//!
//! The worker count is parsed as a positive integer and clamped to
//! [`crate::par::MAX_FANOUT`]; anything unparsable falls back to the
//! default (a misspelled override must not silently change behaviour in
//! some *other* direction — which also holds for `QR3D_SIMD`, whose
//! levels are all bitwise-identical by construction). The resolution
//! happens lazily on first kernel use and is then frozen for the
//! process lifetime.

use std::sync::OnceLock;

use crate::simd::SimdLevel;

/// The resolved runtime parameters of the local kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockParams {
    /// Flop-count threshold below which `gemm` stays on the simple
    /// unpacked triple loop. Programmatic only (no env override): the
    /// small-size numerics are pinned and must not move underfoot.
    pub gemm_block_threshold: usize,
    /// Requested SIMD dispatch level (`QR3D_SIMD`); `None` means `auto`
    /// (use the best level the CPU supports).
    pub simd: Option<SimdLevel>,
    /// Within-rank worker threads for the parallel block loops
    /// (`QR3D_RANK_THREADS`); the effective fanout also respects the
    /// machine executor's rank budget, see [`crate::par::fanout`].
    pub rank_threads: usize,
}

impl BlockParams {
    /// The compiled-in defaults (the values every tuned gate and pinned
    /// record was measured with).
    pub fn defaults() -> BlockParams {
        BlockParams {
            gemm_block_threshold: crate::gemm::BLOCK_THRESHOLD,
            simd: None,
            rank_threads: 1,
        }
    }

    /// Resolve the parameters from an arbitrary lookup function — the
    /// testable core of [`BlockParams::from_env`].
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> BlockParams {
        let threads = lookup("QR3D_RANK_THREADS").and_then(|v| v.trim().parse::<usize>().ok());
        let d = Self::defaults();
        BlockParams {
            simd: lookup("QR3D_SIMD").and_then(|v| SimdLevel::parse(&v)),
            rank_threads: match threads {
                Some(t) if t >= 1 => t.min(crate::par::MAX_FANOUT),
                _ => d.rank_threads,
            },
            ..d
        }
    }

    /// Resolve the parameters from the process environment.
    pub fn from_env() -> BlockParams {
        BlockParams::from_lookup(|key| std::env::var(key).ok())
    }

    /// The process-wide active parameters: resolved from the environment
    /// on first use, frozen thereafter. This is what the blocked kernels
    /// read.
    pub fn active() -> &'static BlockParams {
        static ACTIVE: OnceLock<BlockParams> = OnceLock::new();
        ACTIVE.get_or_init(BlockParams::from_env)
    }
}

impl Default for BlockParams {
    fn default() -> Self {
        BlockParams::defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_tuned_constants() {
        let d = BlockParams::defaults();
        assert_eq!(d.gemm_block_threshold, crate::gemm::BLOCK_THRESHOLD);
        assert_eq!(d.simd, None, "default SIMD dispatch is auto");
        assert_eq!(d.rank_threads, 1, "parallel fanout is opt-in");
        assert_eq!(BlockParams::default(), d);
    }

    #[test]
    fn simd_and_threads_overrides_apply() {
        let p = BlockParams::from_lookup(|key| match key {
            "QR3D_SIMD" => Some("scalar".into()),
            "QR3D_RANK_THREADS" => Some(" 4 ".into()),
            _ => None,
        });
        assert_eq!(p.simd, Some(SimdLevel::Scalar));
        assert_eq!(p.rank_threads, 4);
    }

    #[test]
    fn simd_garbage_means_auto_and_threads_clamp_to_fanout_cap() {
        let p = BlockParams::from_lookup(|key| match key {
            "QR3D_SIMD" => Some("avx9000".into()),
            "QR3D_RANK_THREADS" => Some("512".into()),
            _ => None,
        });
        assert_eq!(p.simd, None);
        assert_eq!(p.rank_threads, crate::par::MAX_FANOUT);
    }

    #[test]
    fn garbage_and_zero_fall_back_to_defaults() {
        for bad in ["not-a-number", "0", "-4"] {
            let p = BlockParams::from_lookup(|key| {
                (key == "QR3D_RANK_THREADS").then(|| bad.to_string())
            });
            assert_eq!(p, BlockParams::defaults(), "QR3D_RANK_THREADS={bad}");
        }
    }

    #[test]
    fn active_is_stable_across_calls() {
        let a = BlockParams::active();
        let b = BlockParams::active();
        assert_eq!(a, b);
        assert!(std::ptr::eq(a, b), "resolved once, frozen for the process");
    }
}
