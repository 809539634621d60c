//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::Rng;

/// A size specification: exact, half-open or inclusive range.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            lo: n,
            hi_inclusive: n,
        }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

/// Strategy for `Vec`s whose elements come from `element` and whose
/// length falls in `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample_one(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
        (0..len).map(|_| self.element.sample_one(rng)).collect()
    }
}
