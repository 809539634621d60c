//! The [`Strategy`] trait and combinators.

use crate::test_runner::TestRng;
use rand::Rng;

/// A recipe for generating values of `Self::Value`.
///
/// Unlike real proptest there is no value tree / shrinking: a strategy is
/// just a sampler.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample_one(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Maps generated values through a partial function, resampling until
    /// it yields `Some` (upstream's filter-map without shrinking).
    ///
    /// `whence` is reported if sampling keeps failing.
    fn prop_filter_map<U, F>(self, whence: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<U>,
    {
        FilterMap {
            inner: self,
            f,
            whence,
        }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample_one(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample_one(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample_one(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample_one(rng))
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
    type Value = U;
    fn sample_one(&self, rng: &mut TestRng) -> U {
        for _ in 0..10_000 {
            if let Some(v) = (self.f)(self.inner.sample_one(rng)) {
                return v;
            }
        }
        panic!(
            "prop_filter_map rejected 10000 consecutive samples: {}",
            self.whence
        );
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample_one(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample_one(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample_one(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample_one(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}
