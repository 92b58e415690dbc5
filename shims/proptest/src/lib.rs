//! Offline stand-in for the `proptest` crate.
//!
//! This build environment has no access to crates.io, so the workspace
//! vendors a minimal property-testing harness exposing the subset of
//! the proptest 1.x API its test suites use: the [`proptest!`] macro,
//! [`Strategy`] with `prop_map`, [`any`], integer-range strategies,
//! tuple strategies, [`prop::collection::vec`], [`prop::sample::select`],
//! [`prop_oneof!`], and the `prop_assert*` macros.
//!
//! Differences from real proptest, accepted for an offline build:
//!
//! * **No shrinking.** A failing case reports the generated inputs
//!   (`Debug`-formatted), the case number, and the exact RNG seed, but
//!   does not minimize. (A suite that wants a minimal failing input
//!   shrinks its own inputs inside the case it hands [`check_seeded`].)
//! * **Deterministic and replayable.** Case `i` of every test derives
//!   its RNG seed from `i` and the test's name alone, so runs are
//!   reproducible without a persistence file. A failure prints
//!   `PROPTEST_SEED=<seed>`; setting that environment variable makes
//!   every test run exactly one case with precisely that seed — the
//!   local replay of a CI failure.
//! * **One runner.** [`check_seeded`] is the case loop: the
//!   [`proptest!`] macro calls it, and so does every hand-rolled seeded
//!   suite, so all of them share one seed derivation, one
//!   `PROPTEST_SEED` replay and one failure message.
//!   `PROPTEST_CASES=<n>` sets every test's case count, an explicit
//!   [`ProptestConfig::with_cases`] included (real proptest lets an
//!   explicit config win).

use std::fmt;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng as _, RngCore, SeedableRng as _};

/// Deterministic generator driving all strategies (the workspace's
/// `rand` shim, seeded per case).
#[derive(Clone, Debug)]
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// The seed [`TestRng::for_case`] uses for one case of one test.
    /// Printed on failure so the case can be replayed exactly via the
    /// `PROPTEST_SEED` environment variable.
    pub fn seed_for_case(case: u64, test_salt: u64) -> u64 {
        case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(test_salt)
            .wrapping_add(0x5851_F42D_4C95_7F2D)
    }

    /// Generator seeded with exactly `seed`.
    pub fn from_seed(seed: u64) -> Self {
        TestRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Generator for one test case, salted per test (so different tests
    /// with identical strategies get distinct streams).
    pub fn for_case(case: u64, test_salt: u64) -> Self {
        Self::from_seed(Self::seed_for_case(case, test_salt))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform draw in `[0, bound)`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below() requires a positive bound");
        self.inner.gen_range(0..bound)
    }
}

/// Error carried out of a failing test case body.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Fails the current case with the given reason.
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError {
            message: reason.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// Runs `cases` seeded cases of the check `name`: case `i` gets the
/// seed [`TestRng::seed_for_case`]`(i, name_salt(name))`, and the first
/// `Err` panics with the case number, the error and the
/// `PROPTEST_SEED=<seed>` that replays it. `PROPTEST_SEED` runs exactly
/// one case with that seed; `PROPTEST_CASES` replaces `cases`.
///
/// # Panics
///
/// On the first failing case.
pub fn check_seeded(name: &str, cases: u32, mut case: impl FnMut(u64) -> Result<(), String>) {
    let env = |var| std::env::var(var).ok().and_then(|s| s.parse::<u64>().ok());
    let fixed = env("PROPTEST_SEED");
    let cases = fixed.map_or(env("PROPTEST_CASES").unwrap_or(cases.into()), |_| 1);
    let salt = name_salt(name);
    for i in 0..cases {
        let seed = fixed.unwrap_or_else(|| TestRng::seed_for_case(i, salt));
        if let Err(error) = case(seed) {
            panic!(
                "{name}: proptest case {}/{cases} failed: {error}\nreproduce with: PROPTEST_SEED={seed}",
                i + 1,
            );
        }
    }
}

/// FNV-1a hash of a test name, used to salt its RNG streams.
fn name_salt(name: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Extracts a readable message from a caught panic payload.
#[doc(hidden)]
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Per-test configuration; only the case count is honoured.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` generated cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value: fmt::Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        O: fmt::Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Box::new(self),
        }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: fmt::Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A heap-allocated, type-erased strategy.
pub struct BoxedStrategy<V> {
    inner: Box<dyn Strategy<Value = V>>,
}

impl<V: fmt::Debug> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        self.inner.generate(rng)
    }
}

/// Uniform choice among equally-weighted alternatives ([`prop_oneof!`]).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V: fmt::Debug> Union<V> {
    /// Builds a union from its arms.
    ///
    /// # Panics
    /// If `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! requires at least one arm");
        Union { arms }
    }
}

impl<V: fmt::Debug> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let arm = rng.below(self.arms.len());
        self.arms[arm].generate(rng)
    }
}

/// Types with a canonical whole-domain strategy ([`any`]).
pub trait Arbitrary: fmt::Debug + Sized {
    /// Draws a value uniformly from the type's domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_tuple {
    ($($t:ident),+) => {
        impl<$($t: Arbitrary),+> Arbitrary for ($($t,)+) {
            fn arbitrary(rng: &mut TestRng) -> Self {
                ($($t::arbitrary(rng),)+)
            }
        }
    };
}

impl_arbitrary_tuple!(A, B);
impl_arbitrary_tuple!(A, B, C);
impl_arbitrary_tuple!(A, B, C, D);

/// Strategy generating any value of `T` (`any::<T>()`).
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

/// The whole-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_strategy_for_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(
                    self.start < self.end,
                    "cannot sample from empty range {:?}", self
                );
                rng.inner.gen_range(self.clone())
            }
        }
    )*};
}

impl_strategy_for_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_strategy_for_tuple {
    ($($t:ident . $idx:tt),+) => {
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_strategy_for_tuple!(A.0, B.1);
impl_strategy_for_tuple!(A.0, B.1, C.2);
impl_strategy_for_tuple!(A.0, B.1, C.2, D.3);

pub mod prop {
    //! The `prop::` namespace (`collection`, `sample`) from real proptest.

    pub mod collection {
        //! Strategies for collections.

        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// Strategy for `Vec<T>` with lengths drawn from a range.
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        /// Generates vectors whose elements come from `element` and whose
        /// length is uniform in `size`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let span = self.size.end - self.size.start;
                let len = if span == 0 {
                    self.size.start
                } else {
                    self.size.start + rng.below(span)
                };
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    pub mod sample {
        //! Strategies sampling from explicit value sets.

        use super::super::{Strategy, TestRng};
        use std::fmt;

        /// Strategy that picks one of a fixed list of values.
        pub struct Select<T> {
            options: Vec<T>,
        }

        /// Picks uniformly from `options`.
        ///
        /// # Panics
        /// At generation time if `options` is empty.
        pub fn select<T: Clone + fmt::Debug>(options: Vec<T>) -> Select<T> {
            Select { options }
        }

        impl<T: Clone + fmt::Debug> Strategy for Select<T> {
            type Value = T;

            fn generate(&self, rng: &mut TestRng) -> T {
                self.options[rng.below(self.options.len())].clone()
            }
        }
    }
}

pub mod prelude {
    //! One-stop imports mirroring `proptest::prelude`.

    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, ProptestConfig, Strategy,
        TestCaseError,
    };
}

/// Declares property tests: each `#[test] fn name(pat in strategy, ...)`
/// body runs once per generated case, with `prop_assert*` failures and
/// `?`-propagated [`TestCaseError`]s reported alongside the inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr;
     $(
         #[test]
         fn $name:ident($($pat:pat in $strategy:expr),+ $(,)?) $body:block
     )*
    ) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                $crate::check_seeded(
                    concat!(module_path!(), "::", stringify!($name)),
                    config.cases,
                    |seed| {
                        let mut rng = $crate::TestRng::from_seed(seed);
                        let ($($pat,)+) =
                            ($( $crate::Strategy::generate(&($strategy), &mut rng), )+);
                        let outcome = ::std::panic::catch_unwind(
                            ::std::panic::AssertUnwindSafe(
                                move || -> ::std::result::Result<(), $crate::TestCaseError> {
                                    $body
                                    Ok(())
                                },
                            ),
                        );
                        let error = match outcome {
                            Ok(Ok(())) => return Ok(()),
                            Ok(Err(error)) => error.to_string(),
                            Err(payload) => $crate::panic_message(payload),
                        };
                        // Generation is deterministic per seed, so the
                        // consumed inputs can be regenerated for the report.
                        let mut rng = $crate::TestRng::from_seed(seed);
                        let values =
                            ($( $crate::Strategy::generate(&($strategy), &mut rng), )+);
                        Err(format!("{}\ninputs: {:#?}", error, values))
                    },
                );
            }
        )*
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = &$left;
        let right = &$right;
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right,
            )));
        }
    }};
}

/// Uniform choice among strategies that generate the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Add(u16),
        Clear,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 10u64..20, y in 0usize..5) {
            prop_assert!((10..20).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn vecs_respect_size_bounds(xs in prop::collection::vec(any::<u32>(), 2..7)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 7);
        }

        #[test]
        fn select_picks_from_options(b in prop::sample::select(vec![1usize, 2, 5])) {
            prop_assert!(b == 1 || b == 2 || b == 5);
        }

        #[test]
        fn oneof_and_map_compose(
            op in prop_oneof![
                any::<u16>().prop_map(Op::Add),
                (0u8..1).prop_map(|_| Op::Clear),
            ],
            pair in (any::<u16>(), 0u64..10),
        ) {
            match op {
                Op::Add(_) | Op::Clear => {}
            }
            prop_assert!(pair.1 < 10);
        }

        #[test]
        fn question_mark_propagates(x in 0u32..100) {
            let checked: Result<u32, String> = Ok(x);
            let value = checked.map_err(TestCaseError::fail)?;
            prop_assert_eq!(value, x);
        }

        #[test]
        fn mut_patterns_work(mut xs in prop::collection::vec(any::<u16>(), 0..50)) {
            xs.sort_unstable();
            prop_assert!(xs.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    #[allow(unnameable_test_items)]
    fn failing_case_panics_with_inputs() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(4))]
                #[test]
                fn always_fails(x in 0u32..10) {
                    prop_assert!(x > 100, "x was {}", x);
                }
            }
            always_fails();
        });
        let message = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("proptest case"), "got: {message}");
        assert!(message.contains("inputs"), "got: {message}");
        assert!(message.contains("PROPTEST_SEED="), "got: {message}");

        // The printed seed regenerates the failing inputs exactly: the
        // replay contract behind `PROPTEST_SEED`.
        let seed: u64 = message
            .rsplit("PROPTEST_SEED=")
            .next()
            .unwrap()
            .trim()
            .parse()
            .expect("seed parses");
        let mut rng = crate::TestRng::from_seed(seed);
        let x = crate::Strategy::generate(&(0u32..10), &mut rng);
        assert!(x < 10, "regenerated input {x} out of strategy range");
        let mut rng2 = crate::TestRng::from_seed(seed);
        assert_eq!(x, crate::Strategy::generate(&(0u32..10), &mut rng2));
    }

    #[test]
    fn seed_for_case_is_stable_and_distinct() {
        let a = crate::TestRng::seed_for_case(0, 1);
        let b = crate::TestRng::seed_for_case(1, 1);
        let c = crate::TestRng::seed_for_case(0, 2);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, crate::TestRng::seed_for_case(0, 1));
    }

    #[test]
    fn check_seeded_reports_the_seed_of_the_failing_case() {
        if std::env::var_os("PROPTEST_SEED").is_some()
            || std::env::var_os("PROPTEST_CASES").is_some()
        {
            return; // the environment sets the cases counted here
        }
        let mut seeds = Vec::new();
        let third = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::check_seeded("shim::third", 5, |seed| {
                seeds.push(seed);
                if seeds.len() == 3 {
                    Err("boom".into())
                } else {
                    Ok(())
                }
            })
        }));
        let message = *third.unwrap_err().downcast::<String>().unwrap();
        let seed = crate::TestRng::seed_for_case(2, crate::name_salt("shim::third"));
        let want = format!(
            "shim::third: proptest case 3/5 failed: boom\nreproduce with: PROPTEST_SEED={seed}"
        );
        assert_eq!(message, want);
        assert_eq!(seeds[2], seed);
        assert!(
            seeds[0] != seeds[1] && seeds[1] != seeds[2],
            "every case gets its own seed"
        );
    }

    #[test]
    #[allow(unnameable_test_items)]
    fn panicking_body_still_reports_inputs() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(2))]
                #[test]
                fn always_panics(xs in prop::collection::vec(any::<u16>(), 1..4)) {
                    let _ = xs[xs.len() + 10]; // out-of-bounds panic, not a prop_assert
                }
            }
            always_panics();
        });
        let message = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("proptest case"), "got: {message}");
        assert!(message.contains("panic"), "got: {message}");
        assert!(message.contains("inputs"), "got: {message}");
    }
}
