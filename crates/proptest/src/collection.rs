//! Collection strategies (`vec`).

use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Inclusive length bounds for a generated collection.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end(),
        }
    }
}

/// Strategy generating a `Vec` of `element` draws with a length inside
/// `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = if self.size.lo == self.size.hi {
            self.size.lo
        } else {
            self.size.lo + rng.gen_below((self.size.hi - self.size.lo + 1) as u64) as usize
        };
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_and_ranged_lengths() {
        let mut rng = TestRng::for_case("collection_lengths", 0);
        for _ in 0..200 {
            assert_eq!(vec(0u32..5, 7usize).generate(&mut rng).len(), 7);
            let v = vec(0u32..5, 1..4usize).generate(&mut rng);
            assert!((1..4).contains(&v.len()));
            let w = vec(0u32..5, 2..=3usize).generate(&mut rng);
            assert!((2..=3).contains(&w.len()));
        }
    }

    #[test]
    fn nested_vec_generates_rows() {
        let mut rng = TestRng::for_case("collection_nested", 0);
        let rows = vec(vec(0i8..6, 3usize), 1..10usize).generate(&mut rng);
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r.len() == 3));
        assert!(rows.iter().flatten().all(|v| (0..6).contains(v)));
    }
}
