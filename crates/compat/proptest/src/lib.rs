//! A self-contained stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! implements the subset of proptest's API that the workspace's property
//! tests actually use: value *strategies* (ranges, tuples, `Just`,
//! `prop_map`, `prop_oneof!`, `collection::vec`, `any::<bool>()`), the
//! `proptest!` test-runner macro with `ProptestConfig::with_cases`, and
//! the `prop_assert!`/`prop_assert_eq!` assertion macros.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * **Shrinking is opt-in.** A failing case reports its inputs
//!   verbatim, unless the property minimises its own failing program
//!   with [`shrink`] (drop one operation at a time while it still
//!   fails) — there are no per-strategy shrink trees.
//! * **Deterministic seeding.** Each test derives its RNG from the test
//!   function name and case index, so every run (and CI) explores the
//!   same cases. There is no `PROPTEST_` environment handling.
//!
//! Both keep the tests meaningful (they still sample hundreds of random
//! programs per property) while keeping this stand-in small and
//! dependency-free.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Range;

/// Shrinks a failing program one operation at a time: drops single
/// operations while `run` still fails, until no single drop keeps it
/// failing. Returns the shrunk program and its failure.
///
/// # Panics
///
/// Panics if `run` passes on `ops`.
pub fn shrink<T: Clone, E>(
    mut ops: Vec<T>,
    mut run: impl FnMut(&[T]) -> Result<(), E>,
) -> (Vec<T>, E) {
    let mut error = match run(&ops) {
        Ok(()) => panic!("shrinking a passing program"),
        Err(e) => e,
    };
    let mut i = 0;
    while i < ops.len() {
        let mut fewer = ops.clone();
        fewer.remove(i);
        match run(&fewer) {
            Err(e) => {
                ops = fewer;
                error = e;
            }
            Ok(()) => i += 1,
        }
    }
    (ops, error)
}

/// Test-case failure carried out of a `proptest!` body by the
/// `prop_assert*` macros.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Result type of a property body.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration; only the case count is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// The deterministic RNG behind every strategy (xoshiro-style splitmix).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates an RNG from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` (bound > 0), bias negligible for
    /// the bounds used in tests.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A source of random values of one type.
///
/// Object-safe for the `sample` half, so `Box<dyn Strategy<Value = T>>`
/// works (needed by `prop_oneof!`).
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value: fmt::Debug + Clone;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps produced values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: fmt::Debug + Clone,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

impl<T: fmt::Debug + Clone> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (**self).sample(rng)
    }
}

/// Boxes a strategy (helper for `prop_oneof!`).
pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(s)
}

/// A strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: fmt::Debug + Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
    U: fmt::Debug + Clone,
{
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: fmt::Debug + Clone {
    /// The strategy type `any::<Self>()` returns.
    type Strategy: Strategy<Value = Self>;
    /// The canonical full-range strategy.
    fn arbitrary() -> Self::Strategy;
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Full-range boolean strategy (also exposed as [`bool::ANY`]).
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = std::primitive::bool;
    fn sample(&self, rng: &mut TestRng) -> std::primitive::bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for std::primitive::bool {
    type Strategy = AnyBool;
    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

/// Boolean strategies, mirroring `proptest::bool`.
pub mod bool {
    /// Uniform over `true`/`false`.
    pub const ANY: super::AnyBool = super::AnyBool;
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec`]: a fixed size or a half-open
    /// range of sizes.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Weighted choice among strategies of a common value type.
pub struct OneOf<T> {
    arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
}

impl<T: fmt::Debug + Clone> OneOf<T> {
    /// Builds from `(weight, strategy)` arms.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty or all weights are zero.
    pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Self {
        assert!(
            arms.iter().map(|(w, _)| u64::from(*w)).sum::<u64>() > 0,
            "prop_oneof! needs a positive total weight"
        );
        Self { arms }
    }
}

impl<T: fmt::Debug + Clone> Strategy for OneOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.arms.iter().map(|(w, _)| u64::from(*w)).sum();
        let mut pick = rng.below(total);
        for (w, s) in &self.arms {
            if pick < u64::from(*w) {
                return s.sample(rng);
            }
            pick -= u64::from(*w);
        }
        unreachable!("weights sum covers all picks")
    }
}

/// Weighted strategy union: `prop_oneof![ 3 => a, 1 => b ]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $(($weight as u32, $crate::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![
            $((1u32, $crate::boxed($strategy))),+
        ])
    };
}

/// `assert!` that fails the current case instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`",
            *l,
            *r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                *l,
                *r,
                format!($($fmt)*)
            )));
        }
    }};
}

/// Derives a stable 64-bit seed from a test's name.
pub fn seed_of(name: &str) -> u64 {
    // FNV-1a.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` sampled cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($config:expr);) => {};
    (config = ($config:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::TestRng::new($crate::seed_of(stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::sample(&($strategy), &mut rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?} ",)+),
                    $(&$arg),+
                );
                let outcome = (|| -> $crate::TestCaseResult {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "property {} failed at case {}/{}: {}\n  inputs: {}",
                        stringify!($name), case + 1, config.cases, e, inputs
                    );
                }
            }
        }
        $crate::__proptest_impl!{ config = ($config); $($rest)* }
    };
}

/// The glob-import surface, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.25..0.75).contains(&y));
        }

        #[test]
        fn tuples_and_maps_compose(
            v in crate::collection::vec((0u8..4, crate::bool::ANY).prop_map(|(a, b)| (a, b)), 1..9)
        ) {
            prop_assert!(!v.is_empty() && v.len() < 9);
            for (a, _) in v {
                prop_assert!(a < 4);
            }
        }

        #[test]
        fn oneof_respects_arms(x in prop_oneof![3 => Just(1u32), 1 => (5u32..7)]) {
            prop_assert!(x == 1 || x == 5 || x == 6, "unexpected {x}");
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let s = crate::collection::vec(0u32..1000, 5..20);
        let mut a = crate::TestRng::new(42);
        let mut b = crate::TestRng::new(42);
        assert_eq!(s.sample(&mut a), s.sample(&mut b));
    }

    #[test]
    #[should_panic(expected = "property always_fails failed at case 1/")]
    fn failures_report_case_and_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[allow(dead_code)]
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }
}
