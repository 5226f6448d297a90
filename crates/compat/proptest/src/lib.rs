//! Offline stand-in for `proptest`, covering the surface this workspace's
//! property tests use: the `proptest!`/`prop_assert*`/`prop_oneof!`
//! macros, range and tuple strategies, `Just`, `prop_map`,
//! `collection::vec`, `sample::select`, `option::of`, and `any::<bool>()`.
//!
//! Like the registry crate, the `PROPTEST_CASES` environment variable
//! sets the number of cases; here it overrides even an explicit
//! `with_cases`, so one command can run every property deep.
//!
//! Two deliberate simplifications versus the registry crate:
//! - **no shrinking** — a failing case reports its case index and message
//!   but is not minimized;
//! - **deterministic seeds** — case N of a test always draws from the
//!   same ChaCha8 stream, so failures reproduce exactly across runs and
//!   machines with no persistence file.

pub mod strategy;

pub mod test_runner;

/// `proptest::collection` — strategies for containers.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<T>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `Vec` strategy: length uniform in `size`, elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_in(self.size.clone());
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// `proptest::sample` — choosing from explicit alternatives.
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy drawing uniformly from a fixed list.
    pub struct Select<T> {
        items: Vec<T>,
    }

    /// Uniform choice among the given values.
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        assert!(!items.is_empty(), "select needs at least one item");
        Select { items }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            self.items[rng.usize_in(0..self.items.len())].clone()
        }
    }
}

/// `proptest::option` — optional values.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy yielding `None` or `Some(inner)`.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Option` strategy: `None` for a quarter of cases (like upstream's
    /// default 0.75 probability of `Some`).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.usize_in(0..4) == 0 {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

/// `proptest::arbitrary` — canonical strategy per type.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draw an unconstrained value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    /// Strategy wrapper produced by [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

/// Aborts the current test case with a message unless the condition
/// holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!(
            $cond,
            concat!("assertion failed: ", stringify!($cond))
        )
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Equality assertion variant of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right),
            format!($($fmt)+), left, right
        );
    }};
}

/// Uniform choice among several strategies producing the same value
/// type. Weights are not supported (this workspace never uses them).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Defines functions whose arguments are drawn from strategies; the body
/// may bail early via `prop_assert*`. Like the registry crate's macro it
/// adds no attribute of its own: each property carries its caller's
/// `#[test]`, so it is registered and run once.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)]
     $($(#[$meta:meta])*
       fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                $crate::test_runner::run_cases(
                    config,
                    stringify!($name),
                    |__proptest_rng| {
                        $(
                            let $arg = $crate::strategy::Strategy::sample(
                                &($strat),
                                &mut *__proptest_rng,
                            );
                        )+
                        let mut __proptest_case = ||
                            -> ::std::result::Result<
                                (),
                                $crate::test_runner::TestCaseError,
                            > {
                            $body
                            ::std::result::Result::Ok(())
                        };
                        __proptest_case()
                    },
                );
            }
        )*
    };
    ($($tt:tt)+) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $($tt)+
        }
    };
}

/// Everything a property-test module needs in scope.
pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_even() -> impl Strategy<Value = u64> {
        (0u64..1000).prop_map(|n| n * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn mapped_values_hold_invariant(n in arb_even()) {
            prop_assert_eq!(n % 2, 0);
            prop_assert!(n < 2000, "n was {}", n);
        }

        #[test]
        fn vec_lengths_respect_range(
            v in crate::collection::vec(0u32..10, 2..5),
            flag in any::<bool>(),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(v.iter().all(|&x| x < 10));
            let _ = flag;
        }

        #[test]
        fn oneof_covers_all_arms(
            pick in prop_oneof![Just(1u8), Just(2u8), (5u8..7)]
        ) {
            prop_assert!(pick == 1 || pick == 2 || pick == 5 || pick == 6);
        }

        #[test]
        fn select_and_option(
            size in prop::sample::select(vec![512u64, 4096]),
            extra in prop::option::of(1u64..4),
        ) {
            prop_assert!(size == 512 || size == 4096);
            if let Some(e) = extra {
                prop_assert!((1..4).contains(&e));
            }
        }
    }

    #[test]
    #[should_panic(expected = "falsified")]
    fn failures_panic_with_case_info() {
        crate::test_runner::run_exactly(
            4,
            "always_fails",
            |_rng| Err(TestCaseError::fail("nope".to_string())),
        );
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let mut first = Vec::new();
        crate::test_runner::run_exactly(
            8,
            "capture",
            |rng| {
                first.push(rng.next_u64());
                Ok(())
            },
        );
        let mut second = Vec::new();
        crate::test_runner::run_exactly(
            8,
            "capture",
            |rng| {
                second.push(rng.next_u64());
                Ok(())
            },
        );
        assert_eq!(first, second);
        assert_eq!(first.len(), 8);
    }
}
