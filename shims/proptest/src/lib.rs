//! Offline stand-in for the crates.io [`proptest`](https://docs.rs/proptest)
//! crate.
//!
//! The build environment has no registry access, so this vendored shim
//! implements the subset of the proptest API the workspace's property tests
//! use: range and tuple strategies, `prop::collection::vec`,
//! [`Strategy::prop_map`] / [`Strategy::prop_flat_map`], the [`proptest!`]
//! macro with `#![proptest_config(..)]`, and the `prop_assert*` macros.
//!
//! Differences from real proptest, by design:
//!
//! * **no shrinking** — a failing case reports the seed/case number instead
//!   of a minimised input;
//! * cases are generated from a per-test deterministic RNG (FNV hash of the
//!   test name, perturbed by the case index), so runs are reproducible;
//! * `PROPTEST_CASES` is honoured as an override of the configured case
//!   count, which CI can use to deepen or speed up runs.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// Runtime configuration for a [`proptest!`] block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` random cases per test.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }

    /// Resolves the effective case count, honouring `PROPTEST_CASES`.
    #[must_use]
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.cases)
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// The random source handed to strategies. Deterministic per (test, case).
#[derive(Debug)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Creates the RNG for `case` of the test named `name`.
    #[must_use]
    pub fn for_case(name: &str, case: u32) -> Self {
        // FNV-1a over the test name, perturbed by the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self(StdRng::seed_from_u64(
            h ^ (u64::from(case) << 32) ^ u64::from(case),
        ))
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.0
    }
}

/// A generator of random values of type [`Strategy::Value`].
///
/// Unlike real proptest there is no value tree and no shrinking: a strategy
/// simply produces one value per invocation.
pub trait Strategy {
    /// The type of values this strategy generates.
    type Value;

    /// Generates one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, f }
    }

    /// Feeds generated values into `f` to pick a dependent strategy.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { source: self, f }
    }

    /// Keeps only values for which `f` returns true (retries up to a bound).
    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            source: self,
            whence,
            f,
        }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        (**self).new_value(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.new_value(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug)]
pub struct FlatMap<S, F> {
    source: S,
    f: F,
}

impl<S, F, T> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;
    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.source.new_value(rng)).new_value(rng)
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug)]
pub struct Filter<S, F> {
    source: S,
    whence: &'static str,
    f: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        for _ in 0..1000 {
            let v = self.source.new_value(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 1000 consecutive values: {}",
            self.whence
        );
    }
}

/// A strategy that always yields clones of one value (`Just` in proptest).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// A weighted choice between boxed strategies of one value type — the
/// engine behind [`prop_oneof!`]. `Strategy` is object-safe (every
/// combinator method is `Self: Sized`), so heterogeneous strategy types
/// unify behind `dyn Strategy`.
pub struct OneOf<V> {
    options: Vec<(u32, Box<dyn Strategy<Value = V>>)>,
}

impl<V> OneOf<V> {
    /// Builds a weighted union; used via [`prop_oneof!`].
    ///
    /// # Panics
    /// Panics if `options` is empty or every weight is zero.
    #[must_use]
    pub fn new(options: Vec<(u32, Box<dyn Strategy<Value = V>>)>) -> Self {
        assert!(
            options.iter().map(|(w, _)| u64::from(*w)).sum::<u64>() > 0,
            "prop_oneof! needs at least one positively weighted variant"
        );
        Self { options }
    }
}

impl<V> std::fmt::Debug for OneOf<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OneOf")
            .field("variants", &self.options.len())
            .finish()
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn new_value(&self, rng: &mut TestRng) -> V {
        let total: u32 = self.options.iter().map(|(w, _)| *w).sum();
        let mut pick = rng.rng().random_range(0..total);
        for (w, s) in &self.options {
            if pick < *w {
                return s.new_value(rng);
            }
            pick -= *w;
        }
        unreachable!("weighted pick within total")
    }
}

/// Weighted (`w => strategy`) or uniform (`strategy, strategy, ...`)
/// choice between strategies sharing one value type, as in real proptest.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $(($weight as u32, Box::new($strategy) as Box<dyn $crate::Strategy<Value = _>>)),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strategy),+]
    };
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.rng().random_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.rng().random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        rng.rng().random_range(self.clone())
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn new_value(&self, rng: &mut TestRng) -> f32 {
        rng.rng().random_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[expect(non_snake_case, reason = "the bindings reuse the type parameters' names")]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Mirror of the `proptest::prop` facade module.
pub mod prop {
    /// Collection strategies (`prop::collection::vec`).
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::{Range, RangeInclusive};

        /// Anything that can describe the length of a generated collection.
        pub trait IntoSizeRange {
            /// Bounds as an inclusive `(min, max)` pair.
            fn bounds(&self) -> (usize, usize);
        }

        impl IntoSizeRange for usize {
            fn bounds(&self) -> (usize, usize) {
                (*self, *self)
            }
        }

        impl IntoSizeRange for Range<usize> {
            fn bounds(&self) -> (usize, usize) {
                assert!(self.start < self.end, "empty size range");
                (self.start, self.end - 1)
            }
        }

        impl IntoSizeRange for RangeInclusive<usize> {
            fn bounds(&self) -> (usize, usize) {
                assert!(self.start() <= self.end(), "empty size range");
                (*self.start(), *self.end())
            }
        }

        /// Strategy for `Vec`s whose elements come from `element` and whose
        /// length is drawn from `size`.
        pub fn vec<S: Strategy, Z: IntoSizeRange>(element: S, size: Z) -> VecStrategy<S> {
            let (min, max) = size.bounds();
            VecStrategy { element, min, max }
        }

        /// See [`vec()`].
        #[derive(Debug)]
        pub struct VecStrategy<S> {
            element: S,
            min: usize,
            max: usize,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let len = (self.min..=self.max).new_value(rng);
                (0..len).map(|_| self.element.new_value(rng)).collect()
            }
        }
    }
}

/// Everything a `proptest!` test file needs in scope.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
        OneOf, ProptestConfig, Strategy, TestRng,
    };
}

/// Asserts a condition inside a property test.
///
/// Without shrinking support this is a panic carrying the formatted message,
/// which the [`proptest!`] harness prefixes with the failing case number.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*);
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*);
    };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_ne!($a, $b, $($fmt)*);
    };
}

/// Skips the current case when an assumption fails. Without a rejection
/// budget in this shim, the case simply returns early.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
}

/// Declares property tests.
///
/// Supported grammar (the subset the workspace uses):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_test(x in 0..10usize, (a, b) in my_strategy()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg); $($rest)*);
    };
    (@run ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let cases = config.effective_cases();
                for case in 0..cases {
                    let mut __proptest_rng =
                        $crate::TestRng::for_case(stringify!($name), case);
                    let run = |__proptest_rng: &mut $crate::TestRng| {
                        $(let $pat =
                            $crate::Strategy::new_value(&($strat), __proptest_rng);)+
                        $body
                    };
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| run(&mut __proptest_rng)),
                    );
                    if let Err(panic) = outcome {
                        eprintln!(
                            "proptest case {case}/{cases} failed for `{}` \
                             (deterministic; rerun reproduces it)",
                            stringify!($name),
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vecs((n, xs) in (1usize..5).prop_flat_map(|n| {
            (Just(n), prop::collection::vec(-1.0..1.0f64, n))
        })) {
            prop_assert_eq!(xs.len(), n);
            for x in xs {
                prop_assert!((-1.0..1.0).contains(&x));
            }
        }

        #[test]
        fn flat_map_tuples((v, k) in (1usize..4).prop_flat_map(|d| {
            (prop::collection::vec(0..10u32, 1..=d), 1u32..5)
        })) {
            prop_assert!(!v.is_empty());
            prop_assert!((1..5).contains(&k));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::for_case("x", 3);
        let mut b = TestRng::for_case("x", 3);
        let s = prop::collection::vec(0.0..1.0f64, 4);
        assert_eq!(s.new_value(&mut a), s.new_value(&mut b));
    }
}
