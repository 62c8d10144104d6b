//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors the surface its property tests use: the [`Strategy`] trait
//! with `prop_map`, range / tuple / [`collection::vec`] / [`any`]
//! strategies, the [`proptest!`] macro, and the `prop_assert*` macros.
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its case index and the
//!   per-test RNG seed; replaying is deterministic (same binary, same
//!   test, same case count ⇒ same inputs).
//! * **Deterministic by construction.** Each test derives its RNG seed
//!   from the test's name via FNV-1a, so failures reproduce across runs
//!   and machines without an external seed file.

use rand::rngs::SmallRng;
use rand::Rng;

/// Error type carried out of a failing property body.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Constructs a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-test configuration (subset: case count only).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of cases to generate per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic seed for a named test (FNV-1a over the name).
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A generator of values (subset of proptest's `Strategy`: generation
/// only, no shrink tree).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut SmallRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut SmallRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

impl<T: rand::SampleUniform> Strategy for core::ops::Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T: rand::SampleUniform> Strategy for core::ops::RangeInclusive<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut SmallRng) -> Self::Value {
                ($(self.$n.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

/// Types with a canonical whole-domain strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut SmallRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut SmallRng) -> Self {
                rng.gen::<$t>()
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SmallRng) -> Self {
        rng.gen::<bool>()
    }
}

/// Whole-domain strategy for `T` (proptest's `any::<T>()`).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut SmallRng) -> T {
        T::arbitrary(rng)
    }
}

pub mod collection {
    use super::Strategy;
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// Length specification for [`vec()`]: an exact size or a range.
    pub trait SizeRange {
        /// Draws a length.
        fn draw(&self, rng: &mut SmallRng) -> usize;
    }

    impl SizeRange for usize {
        fn draw(&self, _rng: &mut SmallRng) -> usize {
            *self
        }
    }

    impl SizeRange for core::ops::Range<usize> {
        fn draw(&self, rng: &mut SmallRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for core::ops::RangeInclusive<usize> {
        fn draw(&self, rng: &mut SmallRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for vectors of `element` values with lengths in `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let len = self.size.draw(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy, TestCaseError,
    };
}

/// Asserts a condition inside a property body; on failure returns a
/// [`TestCaseError`] out of the body (the harness reports case + seed).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond), file!(), line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} at {}:{}: {}",
                stringify!($cond), file!(), line!(), format!($($fmt)+)
            )));
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}` at {}:{}\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), file!(), line!(), left, right
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}` at {}:{}: {}\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), file!(), line!(), format!($($fmt)+), left, right
            )));
        }
    }};
}

/// Inequality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}` at {}:{}\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                file!(),
                line!(),
                left
            )));
        }
    }};
}

/// Declares deterministic property tests (subset of proptest's macro).
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u32..100, (a, b) in pair_strategy()) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (@cfg ($config:expr)) => {};
    (@cfg ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        // `$meta` carries the original attributes, `#[test]` included.
        $(#[$meta])*
        fn $name() {
            use $crate::Strategy as _;
            let config: $crate::ProptestConfig = $config;
            let seed = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
            let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
            for case in 0..config.cases {
                let mut run = || -> ::core::result::Result<(), $crate::TestCaseError> {
                    $(let $pat = ($strat).generate(&mut rng);)+
                    $body
                    Ok(())
                };
                if let Err(e) = run() {
                    panic!(
                        "property `{}` failed at case {}/{} (seed {:#x}): {}",
                        stringify!($name), case, config.cases, seed, e
                    );
                }
            }
        }
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    (
        #![proptest_config($config:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    (
        $($rest:tt)*
    ) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (u32, u32)> {
        (0u32..50, 50u32..100)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_hold(x in 5u8..10, y in 0usize..=3) {
            prop_assert!((5..10).contains(&x));
            prop_assert!(y <= 3);
        }

        /// Doc comments on properties are preserved.
        #[test]
        fn tuples_and_maps(
            (a, b) in pair(),
            v in collection::vec(0u8..4, 3..6),
            w in collection::vec(any::<u32>(), 4usize),
        ) {
            prop_assert!(a < 50 && b >= 50);
            prop_assert!((3..6).contains(&v.len()));
            prop_assert_eq!(w.len(), 4);
            prop_assert!(v.iter().all(|&c| c < 4));
            if a == 0 {
                return Ok(());
            }
            prop_assert_ne!(a, 100);
        }

        #[test]
        fn mapped_strategy(s in (0u8..4).prop_map(|c| c as usize * 2)) {
            prop_assert!(s % 2 == 0 && s <= 6);
        }
    }

    #[test]
    fn failure_reports_case_and_seed() {
        let result = std::panic::catch_unwind(|| {
            let config = ProptestConfig::with_cases(8);
            let seed = crate::seed_for("demo");
            let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
            for case in 0..config.cases {
                let mut run = || -> Result<(), TestCaseError> {
                    let x = Strategy::generate(&(0u32..10), &mut rng);
                    prop_assert!(x < 5, "x was {x}");
                    Ok(())
                };
                if let Err(e) = run() {
                    panic!("property failed at case {case} (seed {seed:#x}): {e}");
                }
            }
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("case"), "{msg}");
        assert!(msg.contains("seed"), "{msg}");
    }
}
