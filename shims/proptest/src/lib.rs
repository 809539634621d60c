// Vendored shim: lint-exempt from the workspace unwrap/expect audit.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! Semantics: each `proptest!` test samples its strategies
//! `ProptestConfig::cases` times from a deterministic RNG and runs the
//! body; `prop_assert*` failures panic like ordinary assertions.
//! Shrinking is not implemented — a failing case reports the sampled
//! values via the assertion message instead of a minimised example.
//!
//! Provided surface: range strategies (half-open and inclusive, integer
//! and float), tuple strategies, `Just`, `any::<T>()`,
//! `prop::collection::vec`, `prop::bool::ANY`, `prop_map`,
//! `prop_filter_map`, and the `proptest!` / `prop_assert!` /
//! `prop_assert_eq!` / `prop_assert_ne!` macros.

pub mod arbitrary;
pub mod bool;
pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! One-stop import, mirroring `proptest::prelude`.
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    pub mod prop {
        //! Module-style access (`prop::collection::vec`, `prop::bool::ANY`).
        pub use crate::bool;
        pub use crate::collection;
    }
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a function that samples its strategies `cases` times. As in
/// real proptest, the caller's attributes pass through unchanged and the
/// macro adds none of its own, so each function needs its own `#[test]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! {
            @cfg($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __cases = { $cfg }.cases;
            let __strategies = ($($strat,)+);
            let mut __rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            for __case in 0..__cases {
                let ($($arg,)+) =
                    $crate::strategy::Strategy::sample_one(&__strategies, &mut __rng);
                $body
            }
        }
        $crate::__proptest_body! { @cfg($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}
