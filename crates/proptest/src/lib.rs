//! Minimal offline stand-in for the `proptest` crate.
//!
//! The real `proptest` is unavailable in this build environment, so this
//! crate provides the small API surface the workspace's property tests
//! use: the [`proptest!`] macro, range and boolean strategies, and the
//! `prop_assert*` family. Cases are generated deterministically from the
//! test name and case index (SplitMix64), so failures reproduce exactly;
//! there is no shrinking.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Configuration accepted via `#![proptest_config(...)]`.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

/// Deterministic SplitMix64 generator seeding each case.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from the test name and case index so every case is
    /// reproducible independent of execution order.
    pub fn from_name_case(name: &str, case: u32) -> Self {
        let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        TestRng {
            state: h ^ ((case as u64) << 32) ^ 0xd1b5_4a32_d192_ed03,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A value generator: proptest's `Strategy`, reduced to pure sampling.
pub trait Strategy {
    /// The type of generated values.
    type Value;
    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy yielding `Vec`s of `element` samples with a length drawn
    /// from `len` — the vendored stand-in for `prop::collection::vec`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// A `Vec` strategy sampling `len` elements from `element`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.clone().sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    /// Strategy yielding uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;
    /// The canonical boolean strategy.
    pub const ANY: Any = Any;

    impl super::Strategy for Any {
        type Value = bool;
        fn sample(&self, rng: &mut super::TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// The macro surface and common types, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy};
}

/// Assert inside a property test (panics with context; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Assert equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

/// Skip the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// Define property tests: each `fn name(arg in strategy, ...)` becomes a
/// `#[test]` running `cases` deterministic samples of its strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let mut __rng =
                    $crate::TestRng::from_name_case(stringify!($name), __case);
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                // A closure so `prop_assume!` can skip the case via `return`.
                let __one_case = move || $body;
                __one_case();
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::from_name_case("t", 3);
        let mut b = TestRng::from_name_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::from_name_case("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn range_sampling_in_bounds() {
        let mut rng = TestRng::from_name_case("r", 0);
        for _ in 0..1000 {
            let v = (3usize..17).sample(&mut rng);
            assert!((3..17).contains(&v));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_generates_cases(x in 1usize..5, flip in crate::bool::ANY) {
            prop_assume!(x != 0);
            prop_assert!(x < 5);
            prop_assert_eq!(flip as usize <= 1, true);
        }
    }
}
