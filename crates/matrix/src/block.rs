//! Runtime blocking parameters for the local kernels.
//!
//! The blocked kernels were tuned with fixed tile widths
//! ([`crate::tri::TRI_NB`], [`PIVOT_NB`]); this
//! module lifts them into a [`BlockParams`] value resolved **once** per
//! process, so deployments can override them through the environment —
//! the first step toward the roadmap's autotuned-blocking item:
//!
//! | variable           | kernel                      | default |
//! |--------------------|-----------------------------|---------|
//! | `QR3D_TRI_NB`      | [`crate::tri::trsm`]/`potrf` tiles | 32 |
//! | `QR3D_PIVOT_NB`    | [`crate::pivot::geqp3`] panels | 32   |
//! | `QR3D_GEMM_MC`     | [`crate::gemm::gemm`] row macro-tile | 128 |
//! | `QR3D_GEMM_KC`     | [`crate::gemm::gemm`] depth macro-tile | 256 |
//! | `QR3D_GEMM_NC`     | [`crate::gemm::gemm`] column macro-tile | 2048 |
//! | `QR3D_SIMD`        | [`crate::simd`] dispatch (`auto`/`avx512`/`avx2`/`scalar`) | `auto` |
//! | `QR3D_RANK_THREADS`| [`crate::par`] within-rank workers | 1 |
//!
//! Integer values are parsed as positive integers and clamped
//! (blocking widths to [`BlockParams::MAX_NB`], gemm macro-tiles to
//! [`BlockParams::MAX_GEMM_TILE`], worker counts to
//! [`crate::par::MAX_FANOUT`]); anything unparsable falls back to the
//! default (a misspelled override must not silently change numerics in
//! some *other* direction — which also holds for `QR3D_SIMD`, whose
//! levels are all bitwise-identical by construction, and for
//! `QR3D_GEMM_KC`, whose value all thread counts share). The resolution
//! happens lazily on first kernel use and is then frozen for the
//! process lifetime — blocking widths changing mid-run would make
//! repeat factorizations of the same input non-reproducible.

use std::sync::OnceLock;

use crate::simd::SimdLevel;

/// Default panel width of the blocked pivoted QR ([`crate::pivot::geqp3`]).
pub const PIVOT_NB: usize = 32;

/// The resolved blocking parameters of the local kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockParams {
    /// Diagonal-tile width of the blocked `trsm`/`potrf` (`QR3D_TRI_NB`).
    pub tri_nb: usize,
    /// Panel width of the blocked pivoted `geqp3` (`QR3D_PIVOT_NB`).
    pub pivot_nb: usize,
    /// Rows of packed `op(A)` per gemm macro-tile (`QR3D_GEMM_MC`).
    pub gemm_mc: usize,
    /// Depth of the packed gemm macro-tiles (`QR3D_GEMM_KC`). Shared by
    /// every worker, so the per-element fma chain — and therefore the
    /// bitwise result — is independent of the thread count.
    pub gemm_kc: usize,
    /// Columns of packed `op(B)` per gemm macro-tile (`QR3D_GEMM_NC`).
    pub gemm_nc: usize,
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
    /// Upper clamp on any blocking width: beyond this the panel scratch
    /// would dwarf the caches the blocking exists to exploit.
    pub const MAX_NB: usize = 1024;

    /// Upper clamp on the gemm macro-tile extents: beyond this the pack
    /// buffers stop fitting in any cache level worth blocking for.
    pub const MAX_GEMM_TILE: usize = 1 << 16;

    /// The compiled-in defaults (the values every tuned gate and pinned
    /// record was measured with).
    pub fn defaults() -> BlockParams {
        BlockParams {
            tri_nb: crate::tri::TRI_NB,
            pivot_nb: PIVOT_NB,
            gemm_mc: crate::gemm::MC,
            gemm_kc: crate::gemm::KC,
            gemm_nc: crate::gemm::NC,
            gemm_block_threshold: crate::gemm::BLOCK_THRESHOLD,
            simd: None,
            rank_threads: 1,
        }
    }

    /// Resolve the parameters from an arbitrary lookup function — the
    /// testable core of [`BlockParams::from_env`].
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> BlockParams {
        let parse = |key: &str, default: usize, max: usize| -> usize {
            match lookup(key).and_then(|v| v.trim().parse::<usize>().ok()) {
                Some(nb) if nb >= 1 => nb.min(max),
                _ => default,
            }
        };
        let d = Self::defaults();
        BlockParams {
            tri_nb: parse("QR3D_TRI_NB", d.tri_nb, Self::MAX_NB),
            pivot_nb: parse("QR3D_PIVOT_NB", d.pivot_nb, Self::MAX_NB),
            gemm_mc: parse("QR3D_GEMM_MC", d.gemm_mc, Self::MAX_GEMM_TILE),
            gemm_kc: parse("QR3D_GEMM_KC", d.gemm_kc, Self::MAX_GEMM_TILE),
            gemm_nc: parse("QR3D_GEMM_NC", d.gemm_nc, Self::MAX_GEMM_TILE),
            gemm_block_threshold: d.gemm_block_threshold,
            simd: lookup("QR3D_SIMD").and_then(|v| SimdLevel::parse(&v)),
            rank_threads: parse("QR3D_RANK_THREADS", d.rank_threads, crate::par::MAX_FANOUT),
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
        assert_eq!(d.tri_nb, crate::tri::TRI_NB);
        assert_eq!(d.pivot_nb, PIVOT_NB);
        assert_eq!(d.gemm_mc, crate::gemm::MC);
        assert_eq!(d.gemm_kc, crate::gemm::KC);
        assert_eq!(d.gemm_nc, crate::gemm::NC);
        assert_eq!(d.gemm_block_threshold, crate::gemm::BLOCK_THRESHOLD);
        assert_eq!(d.simd, None, "default SIMD dispatch is auto");
        assert_eq!(d.rank_threads, 1, "parallel fanout is opt-in");
        assert_eq!(BlockParams::default(), d);
    }

    #[test]
    fn gemm_simd_and_threads_overrides_apply() {
        let p = BlockParams::from_lookup(|key| match key {
            "QR3D_GEMM_MC" => Some("64".into()),
            "QR3D_GEMM_KC" => Some("128".into()),
            "QR3D_GEMM_NC" => Some("512".into()),
            "QR3D_SIMD" => Some("scalar".into()),
            "QR3D_RANK_THREADS" => Some("4".into()),
            _ => None,
        });
        assert_eq!(p.gemm_mc, 64);
        assert_eq!(p.gemm_kc, 128);
        assert_eq!(p.gemm_nc, 512);
        assert_eq!(p.simd, Some(SimdLevel::Scalar));
        assert_eq!(p.rank_threads, 4);
    }

    #[test]
    fn simd_garbage_means_auto_and_threads_clamp_to_fanout_cap() {
        let p = BlockParams::from_lookup(|key| match key {
            "QR3D_SIMD" => Some("avx9000".into()),
            "QR3D_RANK_THREADS" => Some("512".into()),
            "QR3D_GEMM_KC" => Some("99999999".into()),
            _ => None,
        });
        assert_eq!(p.simd, None);
        assert_eq!(p.rank_threads, crate::par::MAX_FANOUT);
        assert_eq!(p.gemm_kc, BlockParams::MAX_GEMM_TILE);
    }

    #[test]
    fn lookup_overrides_apply_per_key() {
        let p = BlockParams::from_lookup(|key| match key {
            "QR3D_TRI_NB" => Some("64".into()),
            "QR3D_PIVOT_NB" => Some(" 8 ".into()),
            _ => None,
        });
        assert_eq!(p.tri_nb, 64);
        assert_eq!(p.gemm_mc, BlockParams::defaults().gemm_mc);
        assert_eq!(p.pivot_nb, 8);
    }

    #[test]
    fn garbage_and_zero_fall_back_to_defaults() {
        let p = BlockParams::from_lookup(|key| match key {
            "QR3D_GEMM_MC" => Some("not-a-number".into()),
            "QR3D_TRI_NB" => Some("0".into()),
            "QR3D_PIVOT_NB" => Some("-4".into()),
            _ => None,
        });
        assert_eq!(p, BlockParams::defaults());
    }

    #[test]
    fn huge_values_are_clamped() {
        let p =
            BlockParams::from_lookup(|key| (key == "QR3D_TRI_NB").then(|| "99999999".to_string()));
        assert_eq!(p.tri_nb, BlockParams::MAX_NB);
    }

    #[test]
    fn active_is_stable_across_calls() {
        let a = BlockParams::active();
        let b = BlockParams::active();
        assert_eq!(a, b);
        assert!(std::ptr::eq(a, b), "resolved once, frozen for the process");
    }
}
