//! `any::<T>()` — the canonical strategy per type.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::Rng;
use std::marker::PhantomData;

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary_sample(rng: &mut TestRng) -> Self;
}

/// The strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample_one(&self, rng: &mut TestRng) -> T {
        T::arbitrary_sample(rng)
    }
}

/// Canonical strategy for `T` (uniform over the whole domain for the
/// primitive types implemented here).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary_sample(rng: &mut TestRng) -> $t {
                rng.gen::<$t>()
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);
