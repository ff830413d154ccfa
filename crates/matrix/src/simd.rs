//! Explicit-SIMD arithmetic primitives with runtime dispatch.
//!
//! The 8×8 gemm register tile, the row axpys of the pivoted panel
//! kernel, its `larft` and the left triangular solve, and the
//! norm-downdate dot products in [`crate::pivot`] all bottom out in the
//! three primitives here: [`microkernel_8x8`] (with
//! [`microkernel_8x8_pair`], two tiles on the same rows),
//! [`fused_axpy`], and [`dot`]. Each has three implementations — a
//! portable scalar loop, an AVX2+FMA variant, and an AVX-512 variant —
//! selected once per process by [`active_level`]. The right triangular
//! solve's AVX-512 level is here too (`trsm_right_group_avx512`);
//! its other levels are [`crate::tri`]'s register loops.
//!
//! * the CPU's best supported level is detected with
//!   `is_x86_feature_detected!` (non-x86-64 targets are always
//!   [`SimdLevel::Scalar`]);
//! * a `QR3D_SIMD={auto,avx512,avx2,scalar}` override, read once by
//!   [`active_level`], caps the level for testing and CI (a request
//!   above hardware support falls back to the best available — forcing
//!   can only *lower* the level, never fault);
//! * [`force_level`] installs a process-global override for the
//!   equivalence tests and the dispatch benchmarks.
//!
//! ## The bitwise contract
//!
//! Every level produces **bit-identical** results, which is what lets
//! the dispatch be transparent (and lets [`force_level`] be a plain
//! relaxed atomic): pinned records, golden outputs, and cross-machine
//! reproducibility cannot depend on which instruction set happened to
//! be present. The contract is enforced structurally:
//!
//! * all multiply-accumulates are *fused* — the scalar fallback uses
//!   [`f64::mul_add`], which is correctly rounded and therefore equals
//!   the hardware `vfmadd` lane for lane;
//! * [`fused_axpy`] and [`microkernel_8x8`] are purely lanewise, so
//!   vector width cannot reassociate anything;
//! * [`microkernel_8x8_pair`] runs each of its two tiles' fma chains in
//!   `kk` order from the tile's own accumulators, whether one body holds
//!   both tiles (AVX-512) or they run one after the other, so it has the
//!   bits of two [`microkernel_8x8`] calls;
//! * [`microkernel_8x8`] reads its operands through strides — where
//!   they lie in a matrix, or from a pack buffer — and every level runs
//!   the same fma chain per entry whichever it is handed, so where an
//!   operand lives changes no bit;
//! * [`dot`] fixes an 8-lane accumulator structure (element `i` goes to
//!   lane `i mod 8`) and a fixed pairwise reduction tree
//!   (`((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`) that every variant —
//!   including the scalar one — replicates exactly.
//!
//! `0 · NaN = NaN` and every other IEEE special case propagate
//! identically at every level: no variant skips, masks, or reorders a
//! lane. The property sweep in `tests/simd_par_bitwise.rs` pins all of
//! this across odd shapes and edge tiles. Two things escape it:
//!
//! * where two NaNs with different bits meet in one operation, which
//!   one comes out is the compiler's choice (Rust leaves it open), so
//!   that NaN's sign and payload may differ by level. `gemm`'s oracle
//!   sweep seeds the NaN the machine itself produces (`0·∞`), so every
//!   NaN in flight has the same bits;
//! * the sign of a NaN the right triangular solve produces, which
//!   computes `fma(−x, t, acc)`. The FMA instructions' `fnmadd` passes
//!   a NaN `x` on unnegated, and so does the portable level when the
//!   build's target has FMA; without it, the portable level negates in
//!   software and calls libm's `fma`, which flips the NaN's sign.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A SIMD dispatch level, ordered from portable to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loops (still fused via [`f64::mul_add`]).
    Scalar,
    /// 256-bit AVX2 + FMA.
    Avx2,
    /// 512-bit AVX-512F.
    Avx512,
}

impl SimdLevel {
    /// The level's `QR3D_SIMD` spelling.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// Parse a `QR3D_SIMD` value: `None` means `auto` (use the best
    /// supported level); unrecognized spellings also map to `auto`, so
    /// a typo cannot silently force the slow path.
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "avx2" => Some(SimdLevel::Avx2),
            "avx512" => Some(SimdLevel::Avx512),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The best level this CPU supports, detected once per process.
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            // Each level includes the ones below it, so AVX2 code may
            // run at the AVX-512 level.
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                if is_x86_feature_detected!("avx512f") {
                    return SimdLevel::Avx512;
                }
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// Process-global test/bench override: 0 = none, else level + 1.
/// Relaxed is enough — every level is bitwise-identical, so a racing
/// reader picking the stale level still computes the same bits.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Force a dispatch level for the rest of the process (tests and the
/// dispatch benchmarks); `None` clears the override. Requests above
/// hardware support are clamped down to [`detected_level`].
pub fn force_level(level: Option<SimdLevel>) {
    let v = match level {
        None => 0,
        Some(l) => l.min(detected_level()) as u8 + 1,
    };
    FORCED.store(v, Ordering::Relaxed);
}

/// The level the primitives dispatch to: a [`force_level`] override if
/// present, else the `QR3D_SIMD` request ([`SimdLevel::parse`]; unset
/// or unknown means `auto`) clamped to hardware support, resolved once
/// and frozen for the process.
pub fn active_level() -> SimdLevel {
    match FORCED.load(Ordering::Relaxed) {
        1 => SimdLevel::Scalar,
        2 => SimdLevel::Avx2,
        3 => SimdLevel::Avx512,
        _ => {
            static RESOLVED: OnceLock<SimdLevel> = OnceLock::new();
            *RESOLVED.get_or_init(|| {
                let requested = std::env::var("QR3D_SIMD")
                    .ok()
                    .and_then(|v| SimdLevel::parse(&v))
                    .unwrap_or_else(detected_level);
                requested.min(detected_level())
            })
        }
    }
}

/// One out-of-line copy of a fixed-width [`f64::mul_add`] loop per SIMD
/// level, and the function that picks among them by its first argument
/// (pass [`active_level`]): `$body` compiled for the build's own target,
/// with AVX2+FMA enabled, and with AVX-512 enabled — so a build without
/// `-C target-cpu` still runs FMA instructions wherever the CPU has
/// them instead of calling libm's `fma`. A fused multiply-add rounds
/// once whoever executes it, so a body in which every entry sees the
/// same operations in the same order gives the same bits at every
/// level. `$body` must be `#[inline(always)]`, or it is compiled once,
/// for the build's target. Out of line because a loop keeps its tile in
/// registers only in a function of its own.
///
/// The AVX-512 copy is the compiler's choice of width, not 512 bits:
/// LLVM's tunings for Skylake-X, Ice Lake and Sapphire Rapids set
/// `prefer-256-bit`, so under `-C target-cpu=native` on those CPUs
/// that copy is compiled to 256-bit vectors, with AVX-512's
/// instructions and registers but half its width. A kernel that needs
/// the width is written in intrinsics, as [`microkernel_8x8`] and
/// [`trsm_right_group_avx512`] are. `= body::<P, A>` instantiates a
/// const-generic body with `P` and `A` and leaves the AVX-512 copy out:
/// the AVX-512 level runs the AVX2 copy (it includes AVX2 — see
/// [`detected_level`]), for a caller that runs an intrinsics kernel
/// of its own at that level.
macro_rules! per_simd_level {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),*) = $body:ident) => {
        $(#[$doc])*
        #[inline(always)]
        fn $name(level: $crate::simd::SimdLevel, $($arg: $ty),*) {
            #[inline(never)]
            fn portable($($arg: $ty),*) {
                $body($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[inline(never)]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn avx2($($arg: $ty),*) {
                $body($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[inline(never)]
            #[target_feature(enable = "avx512f")]
            unsafe fn avx512($($arg: $ty),*) {
                $body($($arg),*)
            }
            match level {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `level` is `simd::active_level()`, which never
                // exceeds what the CPU was detected to support.
                $crate::simd::SimdLevel::Avx2 => unsafe { avx2($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as above.
                $crate::simd::SimdLevel::Avx512 => unsafe { avx512($($arg),*) },
                _ => portable($($arg),*),
            }
        }
    };
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),*)
        = $body:ident::<$portable:tt, $avx2:tt>) => {
        $(#[$doc])*
        #[inline(always)]
        fn $name(level: $crate::simd::SimdLevel, $($arg: $ty),*) {
            #[inline(never)]
            fn portable($($arg: $ty),*) {
                $body::<$portable>($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[inline(never)]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn avx2($($arg: $ty),*) {
                $body::<$avx2>($($arg),*)
            }
            match level {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `level` is `simd::active_level()`, which never
                // exceeds what the CPU was detected to support, and
                // AVX-512 is detected only beside AVX2 and FMA.
                $crate::simd::SimdLevel::Avx2 | $crate::simd::SimdLevel::Avx512 => unsafe {
                    avx2($($arg),*)
                },
                _ => portable($($arg),*),
            }
        }
    };
}
pub(crate) use per_simd_level;

/// The fixed pairwise reduction tree every [`dot`] variant shares.
#[inline(always)]
fn reduce8(l: &[f64; 8]) -> f64 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// `y[i] = fma(a, x[i], y[i])` — the fused axpy. Purely lanewise, so
/// every dispatch level is bitwise-identical.
///
/// # Panics
/// If the slices differ in length.
#[inline]
pub fn fused_axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "fused_axpy: length mismatch");
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_level() never exceeds detected_level().
        SimdLevel::Avx2 => unsafe { x86::fused_axpy_avx2(a, x, y) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdLevel::Avx512 => unsafe { x86::fused_axpy_avx512(a, x, y) },
        _ => fused_axpy_scalar(a, x, y),
    }
}

#[inline(always)]
fn fused_axpy_scalar(a: f64, x: &[f64], y: &mut [f64]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = a.mul_add(xi, *yi);
    }
}

/// `Σ x[i]·y[i]` with a fixed 8-lane accumulator structure (element `i`
/// accumulates into lane `i mod 8` via fma) and the fixed `reduce8`
/// pairwise tree — bitwise-identical at every dispatch level.
///
/// # Panics
/// If the slices differ in length.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_level() never exceeds detected_level().
        SimdLevel::Avx2 => unsafe { x86::dot_avx2(x, y) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdLevel::Avx512 => unsafe { x86::dot_avx512(x, y) },
        _ => dot_scalar(x, y),
    }
}

#[inline(always)]
fn dot_tail(x: &[f64], y: &[f64], lanes: &mut [f64; 8]) -> f64 {
    // Shared tail + reduction: the remainder (< 8 elements) lands in
    // lanes 0.. in order, exactly as the vector loops fill lanes.
    let n = x.len();
    let done = n / 8 * 8;
    for (l, i) in (done..n).enumerate() {
        lanes[l] = x[i].mul_add(y[i], lanes[l]);
    }
    reduce8(lanes)
}

#[inline(always)]
fn dot_scalar(x: &[f64], y: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 8];
    for (xv, yv) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        for l in 0..8 {
            lanes[l] = xv[l].mul_add(yv[l], lanes[l]);
        }
    }
    dot_tail(x, y, &mut lanes)
}

/// Microkernel tile rows (one register tile of the blocked gemm).
pub const MR: usize = 8;
/// Microkernel tile columns (a tile row is one AVX-512 register of
/// `f64`, two AVX2; [`microkernel_8x8_pair`] spans two tiles).
pub const NR: usize = 8;

/// The gemm register tile: over `kk` in `0..k`, in order,
/// `acc[i][j] = fma(a[a_rows[i] + kk·a_step], b[kk·ldb + j], acc[i][j])`.
///
/// The operands are read through strides, so the tile takes them where
/// they lie or from a pack buffer alike: tile row `i` of `op(A)` starts
/// at `a_rows[i]` and steps `a_step` words per `kk` (1 for a row-major
/// `A`, the row stride for `Aᵀ`, [`MR`] for a packed panel), and row
/// `kk` of the `op(B)` panel is the [`NR`] words from `kk·ldb`. Rows
/// may repeat (a ragged tile repeats its last real row). Per element
/// the fma chain depends only on the `kk` order, so every dispatch
/// level — and any row-partitioning of the surrounding macro-tiles — is
/// bitwise-identical.
///
/// # Panics
/// If `k > 0` and a tile row's last word, `a_rows[i] + (k − 1)·a_step`,
/// or the panel's last row, `(k − 1)·ldb + NR` words, lies past `a` or
/// `b`.
#[inline]
pub fn microkernel_8x8(
    k: usize,
    a: &[f64],
    a_rows: &[usize; MR],
    a_step: usize,
    b: &[f64],
    ldb: usize,
    acc: &mut [[f64; NR]; MR],
) {
    if k == 0 {
        return;
    }
    // The SIMD levels read through raw pointers: these two checks are
    // what keeps every read inside `a` and `b`.
    check_a_extent(k, a, a_rows, a_step);
    check_b_extent(k, b, ldb);
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_level() never exceeds detected_level(), and the
        // extents were checked above.
        SimdLevel::Avx2 => unsafe { x86::microkernel_avx2(k, a, a_rows, a_step, b, ldb, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdLevel::Avx512 => unsafe { x86::microkernel_avx512(k, a, a_rows, a_step, b, ldb, acc) },
        _ => microkernel_scalar(k, a, a_rows, a_step, b, ldb, acc),
    }
}

/// Panics unless the `k` steps of the tile's rows of `op(A)` lie in `a`.
fn check_a_extent(k: usize, a: &[f64], a_rows: &[usize; MR], a_step: usize) {
    let last_a = a_rows
        .iter()
        .max()
        .and_then(|&r| (k - 1).checked_mul(a_step)?.checked_add(r));
    assert!(
        last_a.is_some_and(|end| end < a.len()),
        "microkernel: op(A) tile reaches past its slice"
    );
}

/// Panics unless the `k` rows of an `op(B)` panel lie in `b`.
fn check_b_extent(k: usize, b: &[f64], ldb: usize) {
    let last_b = (k - 1).checked_mul(ldb).and_then(|r| r.checked_add(NR));
    assert!(
        last_b.is_some_and(|end| end <= b.len()),
        "microkernel: op(B) panel reaches past its slice"
    );
}

/// Two register tiles on the same rows of `op(A)`: [`microkernel_8x8`]
/// on panel `b[0]` over `k[0]` steps into `acc[0]`, and on panel `b[1]`
/// over `k[1]` steps into `acc[1]`, with `k[0] ≤ k[1]` and one `ldb`.
///
/// At the AVX-512 level one body holds both tiles for the first `k[0]`
/// steps — 16 accumulators, two `op(B)` loads and one broadcast per
/// step, where a lone tile's 8 accumulators, just FMA latency × FMA
/// ports, leave the pipes no slack — and the second tile then runs on
/// alone, from its own accumulators, to `k[1]`. Below AVX-512 the pair is two tiles one
/// after the other (16 more `ymm` accumulators would not fit). Each
/// entry sees the fma chain of its own tile in `kk` order either way,
/// so the bits are those of two [`microkernel_8x8`] calls at every
/// level.
///
/// # Panics
/// If `k[0] > k[1]`, or a read reaches past `a`, `b[0]` or `b[1]` (as
/// for [`microkernel_8x8`], each panel over its own `k`).
#[inline]
pub fn microkernel_8x8_pair(
    k: [usize; 2],
    a: &[f64],
    a_rows: &[usize; MR],
    a_step: usize,
    b: [&[f64]; 2],
    ldb: usize,
    acc: [&mut [[f64; NR]; MR]; 2],
) {
    assert!(
        k[0] <= k[1],
        "microkernel: a pair's left panel runs deeper than its right"
    );
    let [acc0, acc1] = acc;
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 if k[1] > 0 => {
            // The body reads through raw pointers: these checks are what
            // keeps every read inside `a`, `b[0]` and `b[1]`.
            check_a_extent(k[1], a, a_rows, a_step);
            if k[0] > 0 {
                check_b_extent(k[0], b[0], ldb);
            }
            check_b_extent(k[1], b[1], ldb);
            // SAFETY: active_level() never exceeds detected_level(), and
            // the extents were checked above.
            unsafe { x86::microkernel_pair_avx512(k, a, a_rows, a_step, b, ldb, [acc0, acc1]) }
        }
        _ => {
            microkernel_8x8(k[0], a, a_rows, a_step, b[0], ldb, acc0);
            microkernel_8x8(k[1], a, a_rows, a_step, b[1], ldb, acc1);
        }
    }
}

#[inline(always)]
fn microkernel_scalar(
    k: usize,
    a: &[f64],
    a_rows: &[usize; MR],
    a_step: usize,
    b: &[f64],
    ldb: usize,
    acc: &mut [[f64; NR]; MR],
) {
    for kk in 0..k {
        let av: [f64; MR] = std::array::from_fn(|i| a[a_rows[i] + kk * a_step]);
        let bv = b[kk * ldb..].first_chunk::<NR>().expect("extent checked");
        for i in 0..MR {
            for j in 0..NR {
                acc[i][j] = av[i].mul_add(bv[j], acc[i][j]);
            }
        }
    }
}

/// The AVX-512 level of the right triangular solve
/// ([`crate::tri::trsm_right_in_place`]): one group of
/// [`TRSM_BLOCK`](crate::tri::TRSM_BLOCK) rows through every
/// destination block, in 512-bit registers. `tri` is the
/// packed triangle of an order-`n` solve; `x` holds the group's rows
/// from its first, at row stride `ld`; `B` is `b` — its words from the
/// group's first row, and its row stride — or `x` itself. Every entry
/// sees the operations of the other levels' register loops in their
/// order, so the bits are theirs.
///
/// # Panics
/// If the CPU lacks AVX-512F, or `x`, `b` or `tri` is shorter than the
/// group or the packed triangle.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn trsm_right_group_avx512(
    tri: &[f64],
    upper: bool,
    n: usize,
    b: Option<(&[f64], usize)>,
    x: &mut [f64],
    ld: usize,
) {
    match detected_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the CPU was detected to support AVX-512F.
        SimdLevel::Avx512 => unsafe { x86::trsm_right_group_avx512(tri, upper, n, b, x, ld) },
        level => panic!("trsm: the AVX-512 right solve on a CPU detected as {level}"),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `std::arch` variants. Every function is `unsafe fn` with a
    //! `#[target_feature]` attribute: callers must guarantee the
    //! feature is present, which the dispatcher does via
    //! `detected_level()`. Bodies mirror the scalar loops lane for
    //! lane; see the module docs for the bitwise contract.

    use super::{dot_tail, MR, NR};
    use crate::tri::{blocks_in_solve_order, packed_right_len, DIAG_WORDS, TRSM_BLOCK as NB};
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn fused_axpy_avx2(a: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let av = _mm256_set1_pd(a);
        let chunks = n / 4;
        for c in 0..chunks {
            let xp = x.as_ptr().add(c * 4);
            let yp = y.as_mut_ptr().add(c * 4);
            let yv = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp), _mm256_loadu_pd(yp));
            _mm256_storeu_pd(yp, yv);
        }
        for i in chunks * 4..n {
            y[i] = a.mul_add(x[i], y[i]);
        }
    }

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn fused_axpy_avx512(a: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let av = _mm512_set1_pd(a);
        let chunks = n / 8;
        for c in 0..chunks {
            let xp = x.as_ptr().add(c * 8);
            let yp = y.as_mut_ptr().add(c * 8);
            let yv = _mm512_fmadd_pd(av, _mm512_loadu_pd(xp), _mm512_loadu_pd(yp));
            _mm512_storeu_pd(yp, yv);
        }
        for i in chunks * 8..n {
            y[i] = a.mul_add(x[i], y[i]);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn dot_avx2(x: &[f64], y: &[f64]) -> f64 {
        // Lanes 0..4 and 4..8 of the shared 8-lane accumulator live in
        // two ymm registers; chunks of 8 keep the element→lane mapping
        // (i mod 8) identical to the scalar and AVX-512 variants.
        let chunks = x.len() / 8;
        let mut lo = _mm256_setzero_pd();
        let mut hi = _mm256_setzero_pd();
        for c in 0..chunks {
            let xp = x.as_ptr().add(c * 8);
            let yp = y.as_ptr().add(c * 8);
            lo = _mm256_fmadd_pd(_mm256_loadu_pd(xp), _mm256_loadu_pd(yp), lo);
            hi = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(4)), _mm256_loadu_pd(yp.add(4)), hi);
        }
        let mut lanes = [0.0f64; 8];
        _mm256_storeu_pd(lanes.as_mut_ptr(), lo);
        _mm256_storeu_pd(lanes.as_mut_ptr().add(4), hi);
        dot_tail(x, y, &mut lanes)
    }

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn dot_avx512(x: &[f64], y: &[f64]) -> f64 {
        let chunks = x.len() / 8;
        let mut acc = _mm512_setzero_pd();
        for c in 0..chunks {
            let xv = _mm512_loadu_pd(x.as_ptr().add(c * 8));
            let yv = _mm512_loadu_pd(y.as_ptr().add(c * 8));
            acc = _mm512_fmadd_pd(xv, yv, acc);
        }
        let mut lanes = [0.0f64; 8];
        _mm512_storeu_pd(lanes.as_mut_ptr(), acc);
        dot_tail(x, y, &mut lanes)
    }

    /// See [`super::microkernel_8x8`].
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA, and every word the tile reads
    /// must lie inside `a` and `b` (the dispatcher checks this).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn microkernel_avx2(
        k: usize,
        a: &[f64],
        a_rows: &[usize; MR],
        a_step: usize,
        b: &[f64],
        ldb: usize,
        acc: &mut [[f64; NR]; MR],
    ) {
        // 8×8 needs 16 ymm accumulators — more than the register file.
        // Two passes of 4 rows × 2 ymm (8 accumulators + 2 b + 1
        // broadcast = 11 live registers) keep everything resident; the
        // per-element kk-order fma chain is unchanged.
        for half in 0..2 {
            let r0 = half * 4;
            let ap: [*const f64; 4] = std::array::from_fn(|i| a.as_ptr().add(a_rows[r0 + i]));
            let mut lo = [_mm256_setzero_pd(); 4];
            let mut hi = [_mm256_setzero_pd(); 4];
            for i in 0..4 {
                lo[i] = _mm256_loadu_pd(acc[r0 + i].as_ptr());
                hi[i] = _mm256_loadu_pd(acc[r0 + i].as_ptr().add(4));
            }
            for kk in 0..k {
                let bp = b.as_ptr().add(kk * ldb);
                let b_lo = _mm256_loadu_pd(bp);
                let b_hi = _mm256_loadu_pd(bp.add(4));
                let step = kk * a_step;
                for i in 0..4 {
                    let ai = _mm256_set1_pd(*ap[i].add(step));
                    lo[i] = _mm256_fmadd_pd(ai, b_lo, lo[i]);
                    hi[i] = _mm256_fmadd_pd(ai, b_hi, hi[i]);
                }
            }
            for i in 0..4 {
                _mm256_storeu_pd(acc[r0 + i].as_mut_ptr(), lo[i]);
                _mm256_storeu_pd(acc[r0 + i].as_mut_ptr().add(4), hi[i]);
            }
        }
    }

    /// The three shapes of `op(A)` the callers pass, each compiled on
    /// its own so that it keeps its addresses in registers: rows of `A`
    /// (`a_step = 1`), where each tile row keeps a pointer and one index
    /// serves them all; consecutive words (rows of `Aᵀ`, packed panels),
    /// where one pointer serves every tile row; and any other offsets.
    /// `$body` runs with `$ap` the tile rows' first words and `$step`
    /// the stride along `kk`; the arithmetic is the same in all three.
    macro_rules! per_a_shape {
        ($a:expr, $a_rows:expr, $a_step:expr, |$ap:ident, $step:ident| $body:expr) => {{
            let ap: [*const f64; MR] = std::array::from_fn(|i| $a.as_ptr().add($a_rows[i]));
            if $a_step == 1 {
                let ($ap, $step) = (ap, 1);
                $body
            } else if $a_rows
                .iter()
                .enumerate()
                .all(|(i, &r)| r == $a_rows[0] + i)
            {
                let ($ap, $step) = (std::array::from_fn(|i| ap[0].add(i)), $a_step);
                $body
            } else {
                let ($ap, $step) = (ap, $a_step);
                $body
            }
        }};
    }

    /// See [`super::microkernel_8x8`].
    ///
    /// # Safety
    /// The CPU must support AVX-512F, and every word the tile reads must
    /// lie inside `a` and `b` (the dispatcher checks this).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn microkernel_avx512(
        k: usize,
        a: &[f64],
        a_rows: &[usize; MR],
        a_step: usize,
        b: &[f64],
        ldb: usize,
        acc: &mut [[f64; NR]; MR],
    ) {
        per_a_shape!(a, a_rows, a_step, |ap, a_step| {
            tile_avx512(0..k, ap, a_step, b.as_ptr(), ldb, acc)
        })
    }

    /// See [`super::microkernel_8x8_pair`]: 16 accumulators + 2 b + 1
    /// broadcast for the steps the tiles share, then the right tile's
    /// steps alone, from its accumulators as the shared steps left them.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, and every word the tiles read must
    /// lie inside `a`, `b[0]` and `b[1]` (the dispatcher checks this).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn microkernel_pair_avx512(
        k: [usize; 2],
        a: &[f64],
        a_rows: &[usize; MR],
        a_step: usize,
        b: [&[f64]; 2],
        ldb: usize,
        acc: [&mut [[f64; NR]; MR]; 2],
    ) {
        let (b0, b1) = (b[0].as_ptr(), b[1].as_ptr());
        per_a_shape!(a, a_rows, a_step, |ap, a_step| {
            let [left, right] = acc;
            let mut l: [__m512d; MR] = std::array::from_fn(|i| _mm512_loadu_pd(left[i].as_ptr()));
            let mut r: [__m512d; MR] = std::array::from_fn(|i| _mm512_loadu_pd(right[i].as_ptr()));
            for kk in 0..k[0] {
                let bl = _mm512_loadu_pd(b0.add(kk * ldb));
                let br = _mm512_loadu_pd(b1.add(kk * ldb));
                for i in 0..MR {
                    let ai = _mm512_set1_pd(*ap[i].add(kk * a_step));
                    l[i] = _mm512_fmadd_pd(ai, bl, l[i]);
                    r[i] = _mm512_fmadd_pd(ai, br, r[i]);
                }
            }
            for i in 0..MR {
                _mm512_storeu_pd(left[i].as_mut_ptr(), l[i]);
                _mm512_storeu_pd(right[i].as_mut_ptr(), r[i]);
            }
            tile_avx512(k[0]..k[1], ap, a_step, b1, ldb, right);
        })
    }

    /// Steps `kk` in `steps` of one tile, one zmm per tile row: 8
    /// accumulators + 1 b + 1 broadcast. Tile row `i` of `op(A)` reads
    /// `ap[i]`, `a_step` words further per `kk`, and the panel's row `kk`
    /// is the [`NR`] words from `b + kk·ldb`.
    ///
    /// # Safety
    /// As for [`microkernel_avx512`] and [`microkernel_pair_avx512`],
    /// which this is inlined into: the CPU supports AVX-512F, and those
    /// words lie inside `a` and `b`.
    #[inline(always)]
    unsafe fn tile_avx512(
        steps: std::ops::Range<usize>,
        ap: [*const f64; MR],
        a_step: usize,
        b: *const f64,
        ldb: usize,
        acc: &mut [[f64; NR]; MR],
    ) {
        let mut rows = [_mm512_setzero_pd(); MR];
        for i in 0..MR {
            rows[i] = _mm512_loadu_pd(acc[i].as_ptr());
        }
        for kk in steps {
            let bv = _mm512_loadu_pd(b.add(kk * ldb));
            for (row, p) in rows.iter_mut().zip(ap) {
                *row = _mm512_fmadd_pd(_mm512_set1_pd(*p.add(kk * a_step)), bv, *row);
            }
        }
        for i in 0..MR {
            _mm512_storeu_pd(acc[i].as_mut_ptr(), rows[i]);
        }
    }

    /// See [`super::trsm_right_group_avx512`]. One zmm per row of the
    /// group holds a destination block from its load to its store: the
    /// solved columns are folded in with one `fnmadd` per row per
    /// column, `fnmadd(x, t, acc) = fma(−x, t, acc)`; the substitution
    /// broadcasts lane `j` with a permute and eliminates it with one
    /// more; the reciprocals scale the block and a masked store writes
    /// its `w` columns. A masked load zeroes the lanes past `w`, as the
    /// register loops' staging does.
    ///
    /// # Safety
    /// The CPU must support AVX-512F. The extents are checked here.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn trsm_right_group_avx512(
        tri: &[f64],
        upper: bool,
        n: usize,
        b: Option<(&[f64], usize)>,
        x: &mut [f64],
        ld: usize,
    ) {
        // SAFETY (every pointer below): it stays inside these extents —
        // `blocks_in_solve_order` yields columns `c0..c0 + w` and solved
        // columns `k` below `n`, and the blocks' packed words add up to
        // `packed_right_len`.
        let group = |ld: usize| (NB - 1) * ld + n;
        assert!(x.len() >= group(ld), "trsm: X shorter than its row group");
        assert!(
            tri.len() >= packed_right_len(n, upper),
            "trsm: the packed triangle is short"
        );
        let xp = x.as_mut_ptr();
        let (bp, ldb) = match b {
            Some((b, ldb)) => {
                assert!(b.len() >= group(ldb), "trsm: B shorter than its row group");
                (b.as_ptr(), ldb)
            }
            None => (xp.cast_const(), ld),
        };
        let mut t = tri.as_ptr();
        for (c0, w, solved) in blocks_in_solve_order(n, upper) {
            let mask: __mmask8 = u8::MAX >> (NB - w);
            let mut rows = [_mm512_setzero_pd(); NB];
            for (r, row) in rows.iter_mut().enumerate() {
                *row = _mm512_maskz_loadu_pd(mask, bp.add(r * ldb + c0));
            }
            for k in solved {
                let tk = _mm512_loadu_pd(t);
                t = t.add(NB);
                for (r, row) in rows.iter_mut().enumerate() {
                    *row = _mm512_fnmadd_pd(_mm512_set1_pd(*xp.add(r * ld + k)), tk, *row);
                }
            }
            for step in 0..NB - 1 {
                let j = if upper { step } else { NB - 1 - step };
                let coef = _mm512_loadu_pd(t.add(j * NB));
                let lane = _mm512_set1_epi64(j as i64);
                for row in &mut rows {
                    *row = _mm512_fnmadd_pd(_mm512_permutexvar_pd(lane, *row), coef, *row);
                }
            }
            let inv = _mm512_loadu_pd(t.add(NB * NB));
            t = t.add(DIAG_WORDS);
            for (r, row) in rows.iter().enumerate() {
                _mm512_mask_storeu_pd(xp.add(r * ld + c0), mask, _mm512_mul_pd(*row, inv));
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Run `f` once per level this CPU supports (always includes
    /// Scalar), clearing the override afterwards. Callers take turns:
    /// the override is process-global, and `f` must run at the level it
    /// is handed.
    pub(crate) fn for_each_level(mut f: impl FnMut(SimdLevel)) {
        static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
        // A failed test poisons the lock; the `()` it guards is intact.
        let _turn = TURN
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            if level <= detected_level() {
                force_level(Some(level));
                f(level);
            }
        }
        force_level(None);
    }

    fn splitmix(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    #[test]
    fn parse_and_names_roundtrip() {
        for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
            assert_eq!(SimdLevel::parse(level.name()), Some(level));
        }
        assert_eq!(SimdLevel::parse(" AVX512 "), Some(SimdLevel::Avx512));
        assert_eq!(SimdLevel::parse("auto"), None);
        assert_eq!(SimdLevel::parse("garbage"), None);
        assert_eq!(SimdLevel::Avx2.to_string(), "avx2");
    }

    #[test]
    fn force_clamps_to_hardware() {
        force_level(Some(SimdLevel::Avx512));
        assert!(active_level() <= detected_level());
        force_level(None);
    }

    #[test]
    fn axpy_and_dot_levels_bitwise_identical() {
        // Odd lengths exercise every tail-lane count, including the
        // all-tail (< 8) cases; NaN/∞/0 lanes must propagate the same
        // bits at every level.
        let mut seed = 7u64;
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 100, 257] {
            let mut x: Vec<f64> = (0..n).map(|_| splitmix(&mut seed)).collect();
            let y0: Vec<f64> = (0..n).map(|_| splitmix(&mut seed)).collect();
            if n > 4 {
                x[1] = 0.0;
                x[2] = f64::NAN;
                x[3] = f64::INFINITY;
                x[4] = -0.0;
            }
            let mut expect_axpy: Option<Vec<u64>> = None;
            let mut expect_dot: Option<u64> = None;
            for_each_level(|level| {
                let mut y = y0.clone();
                fused_axpy(1.25, &x, &mut y);
                let bits: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                match &expect_axpy {
                    None => expect_axpy = Some(bits),
                    Some(e) => assert_eq!(e, &bits, "axpy n={n} level={level}"),
                }
                let d = dot(&x, &y0).to_bits();
                match expect_dot {
                    None => expect_dot = Some(d),
                    Some(e) => assert_eq!(e, d, "dot n={n} level={level}"),
                }
            });
        }
    }

    #[test]
    fn dot_matches_naive_numerically() {
        let x: Vec<f64> = (1..=100).map(|i| i as f64 / 7.0).collect();
        let y: Vec<f64> = (1..=100).map(|i| (101 - i) as f64 / 3.0).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let got = dot(&x, &y);
        assert!((got - naive).abs() <= 1e-10 * naive.abs());
    }

    #[test]
    fn microkernel_levels_bitwise_identical() {
        let mut seed = 42u64;
        for kc in [0usize, 1, 2, 3, 7, 32, 33] {
            let mut a: Vec<f64> = (0..kc * MR).map(|_| splitmix(&mut seed)).collect();
            let mut b: Vec<f64> = (0..kc * NR).map(|_| splitmix(&mut seed)).collect();
            if kc >= 2 {
                // The PR 1 guard: 0·NaN must stay NaN, identically.
                a[0] = 0.0;
                b[0] = f64::NAN;
                a[MR] = f64::NAN;
                b[NR] = 0.0;
            }
            let acc0 = {
                let mut acc = [[0.0f64; NR]; MR];
                for (i, row) in acc.iter_mut().enumerate() {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = (i * NR + j) as f64 * 0.125 - 2.0;
                    }
                }
                acc
            };
            let mut expect: Option<[[u64; NR]; MR]> = None;
            for_each_level(|level| {
                let mut acc = acc0;
                let packed: [usize; MR] = std::array::from_fn(|i| i);
                microkernel_8x8(kc, &a, &packed, MR, &b, NR, &mut acc);
                let mut bits = [[0u64; NR]; MR];
                for i in 0..MR {
                    for j in 0..NR {
                        bits[i][j] = acc[i][j].to_bits();
                    }
                }
                match &expect {
                    None => expect = Some(bits),
                    Some(e) => assert_eq!(e, &bits, "microkernel kc={kc} level={level}"),
                }
            });
        }
    }

    #[test]
    fn microkernel_pair_is_two_tiles_bitwise() {
        // Every shape of op(A) the AVX-512 body is compiled for — rows of
        // a row-major block, rows of its transpose, and a ragged tile's
        // repeated row at any offsets — against panels read in place
        // (one buffer, the second panel NR words right of the first) and
        // packed (two buffers at stride NR), from non-zero accumulators.
        const LD: usize = 40;
        let mut seed = 43u64;
        let a: Vec<f64> = (0..LD * LD).map(|_| splitmix(&mut seed)).collect();
        let shapes: [([usize; MR], usize); 3] = [
            (std::array::from_fn(|i| i * LD), 1),
            (std::array::from_fn(|i| i), LD),
            (std::array::from_fn(|i| i.min(4) * LD + 2), 1),
        ];
        let acc0: [[[f64; NR]; MR]; 2] = std::array::from_fn(|t| {
            std::array::from_fn(|i| {
                std::array::from_fn(|j| ((t * MR + i) * NR + j) as f64 * 0.125 - 9.0)
            })
        });
        let bits =
            |acc: &[[[f64; NR]; MR]; 2]| acc.map(|tile| tile.map(|row| row.map(f64::to_bits)));
        for (k0, k1) in [
            (0usize, 0usize),
            (0, 5),
            (1, 1),
            (7, 33),
            (32, 32),
            (33, 33),
        ] {
            let ldb = 2 * NR + 3;
            let mut in_place: Vec<f64> = (0..k1 * ldb).map(|_| splitmix(&mut seed)).collect();
            let mut packed: [Vec<f64>; 2] =
                std::array::from_fn(|_| (0..k1 * NR).map(|_| splitmix(&mut seed)).collect());
            for (a_rows, a_step) in shapes {
                let mut a = a.clone();
                if k0 >= 2 {
                    // In both panels: 0·NaN and NaN·0 must stay NaN,
                    // identically.
                    a[a_rows[0]] = 0.0;
                    a[a_rows[0] + a_step] = f64::NAN;
                    for (at, v) in [(0, f64::NAN), (1, 0.0)] {
                        in_place[at * ldb] = v;
                        in_place[at * ldb + NR] = v;
                        packed[0][at * NR] = v;
                        packed[1][at * NR] = v;
                    }
                }
                let panels: [([&[f64]; 2], usize); 2] = [
                    ([&in_place, &in_place[NR.min(in_place.len())..]], ldb),
                    ([&packed[0], &packed[1]], NR),
                ];
                for (b, ldb) in panels {
                    for_each_level(|level| {
                        let what =
                            format!("k = ({k0}, {k1}), a_step {a_step}, ldb {ldb} at {level}");
                        let mut two = acc0;
                        for (t, acc) in two.iter_mut().enumerate() {
                            microkernel_8x8([k0, k1][t], &a, &a_rows, a_step, b[t], ldb, acc);
                        }
                        let mut pair = acc0;
                        let [left, right] = &mut pair;
                        microkernel_8x8_pair([k0, k1], &a, &a_rows, a_step, b, ldb, [left, right]);
                        assert_eq!(bits(&pair), bits(&two), "{what}");
                        if k0 >= 2 {
                            assert!(pair.iter().all(|tile| tile[0][0].is_nan()), "{what}");
                        }
                    });
                }
            }
        }
    }
}
