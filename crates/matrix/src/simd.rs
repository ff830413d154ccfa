//! Explicit-SIMD arithmetic primitives with runtime dispatch.
//!
//! The 8×8 gemm register tile, the row axpys of the pivoted panel
//! kernel, its `larft` and the left triangular solve, and the
//! norm-downdate dot products in [`crate::pivot`] all bottom out in the
//! three primitives here: [`microkernel_8x8`],
//! [`fused_axpy`], and [`dot`]. Each has three implementations — a
//! portable scalar loop, an AVX2+FMA variant, and an AVX-512 variant —
//! selected once per process by [`active_level`]:
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
//! * [`dot`] fixes an 8-lane accumulator structure (element `i` goes to
//!   lane `i mod 8`) and a fixed pairwise reduction tree
//!   (`((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`) that every variant —
//!   including the scalar one — replicates exactly.
//!
//! `0 · NaN = NaN` and every other IEEE special case propagate
//! identically at every level: no variant skips, masks, or reorders a
//! lane. The property sweep in `tests/simd_par_bitwise.rs` pins all of
//! this across odd shapes and edge tiles.

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
            if is_x86_feature_detected!("avx512f") {
                return SimdLevel::Avx512;
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
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
/// for the build's target. `= body::<P, A, Z>` instantiates a
/// const-generic body with `P`, `A` and `Z` for the three copies (a
/// register tile that fits sixteen 256-bit registers only in halves).
/// Out of line because a loop keeps its tile in registers only in a
/// function of its own.
macro_rules! per_simd_level {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),*)
        = $body:ident $(::<$portable:tt, $avx2:tt, $avx512:tt>)?) => {
        $(#[$doc])*
        #[inline(always)]
        fn $name(level: $crate::simd::SimdLevel, $($arg: $ty),*) {
            #[inline(never)]
            fn portable($($arg: $ty),*) {
                $body$(::<$portable>)?($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[inline(never)]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn avx2($($arg: $ty),*) {
                $body$(::<$avx2>)?($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[inline(never)]
            #[target_feature(enable = "avx512f")]
            unsafe fn avx512($($arg: $ty),*) {
                $body$(::<$avx512>)?($($arg),*)
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
/// Microkernel tile columns (one AVX-512 register of `f64`, two AVX2).
pub const NR: usize = 8;

/// The gemm register tile: `acc[i][j] = fma(a[kk·8+i], b[kk·8+j],
/// acc[i][j])` over `kk` in order. `a` holds `kc` column-chunks of
/// [`MR`] packed `op(A)` values, `b` holds `kc` row-chunks of [`NR`]
/// packed `op(B)` values. Per element the fma chain depends only on the
/// `kk` order, so every dispatch level — and any row-partitioning of
/// the surrounding macro-tiles — is bitwise-identical.
#[inline]
pub fn microkernel_8x8(a: &[f64], b: &[f64], acc: &mut [[f64; NR]; MR]) {
    match active_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: active_level() never exceeds detected_level().
        SimdLevel::Avx2 => unsafe { x86::microkernel_avx2(a, b, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdLevel::Avx512 => unsafe { x86::microkernel_avx512(a, b, acc) },
        _ => microkernel_scalar(a, b, acc),
    }
}

#[inline(always)]
fn microkernel_scalar(a: &[f64], b: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (av, bv) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        for i in 0..MR {
            let ai = av[i];
            for j in 0..NR {
                acc[i][j] = ai.mul_add(bv[j], acc[i][j]);
            }
        }
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

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn microkernel_avx2(a: &[f64], b: &[f64], acc: &mut [[f64; NR]; MR]) {
        // 8×8 needs 16 ymm accumulators — more than the register file.
        // Two passes of 4 rows × 2 ymm (8 accumulators + 2 b + 1
        // broadcast = 11 live registers) keep everything resident; the
        // per-element kk-order fma chain is unchanged.
        let k = a.len() / MR;
        for half in 0..2 {
            let r0 = half * 4;
            let mut lo = [_mm256_setzero_pd(); 4];
            let mut hi = [_mm256_setzero_pd(); 4];
            for i in 0..4 {
                lo[i] = _mm256_loadu_pd(acc[r0 + i].as_ptr());
                hi[i] = _mm256_loadu_pd(acc[r0 + i].as_ptr().add(4));
            }
            for kk in 0..k {
                let bp = b.as_ptr().add(kk * NR);
                let b_lo = _mm256_loadu_pd(bp);
                let b_hi = _mm256_loadu_pd(bp.add(4));
                let ap = a.as_ptr().add(kk * MR + r0);
                for i in 0..4 {
                    let ai = _mm256_set1_pd(*ap.add(i));
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

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn microkernel_avx512(a: &[f64], b: &[f64], acc: &mut [[f64; NR]; MR]) {
        // One zmm per tile row: 8 accumulators + 1 b + 1 broadcast.
        let k = a.len() / MR;
        let mut rows = [_mm512_setzero_pd(); MR];
        for i in 0..MR {
            rows[i] = _mm512_loadu_pd(acc[i].as_ptr());
        }
        for kk in 0..k {
            let bv = _mm512_loadu_pd(b.as_ptr().add(kk * NR));
            let ap = a.as_ptr().add(kk * MR);
            for (i, row) in rows.iter_mut().enumerate() {
                *row = _mm512_fmadd_pd(_mm512_set1_pd(*ap.add(i)), bv, *row);
            }
        }
        for i in 0..MR {
            _mm512_storeu_pd(acc[i].as_mut_ptr(), rows[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `f` once per level this CPU supports (always includes
    /// Scalar), clearing the override afterwards.
    fn for_each_level(mut f: impl FnMut(SimdLevel)) {
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
                microkernel_8x8(&a, &b, &mut acc);
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
}
