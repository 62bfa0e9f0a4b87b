//! Collection strategies: `vec` and `hash_set`.

use crate::Strategy;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::hash::Hash;
use std::ops::Range;

/// An inclusive size window for generated collections.
#[derive(Clone, Copy, Debug)]
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
        assert!(r.start < r.end, "empty collection size range");
        SizeRange { lo: r.start, hi: r.end - 1 }
    }
}

impl SizeRange {
    fn sample(&self, rng: &mut StdRng) -> usize {
        if self.lo == self.hi {
            self.lo
        } else {
            rng.gen_range(self.lo..=self.hi)
        }
    }
}

/// Strategy for `Vec<T>` with element strategy `element` and a size in
/// `size` (a `usize` for exact length, or a half-open range).
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// Output of [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn gen_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let n = self.size.sample(rng);
        (0..n).map(|_| self.element.gen_value(rng)).collect()
    }
}

/// Strategy for `HashSet<T>`: draws elements until the sampled size is
/// reached, tolerating duplicates (bounded retries, like the real crate's
/// rejection sampling — the set may come out smaller if the element domain
/// is nearly exhausted).
pub fn hash_set<S>(element: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
where
    S: Strategy,
    S::Value: Eq + Hash,
{
    HashSetStrategy { element, size: size.into() }
}

/// Output of [`hash_set`].
pub struct HashSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for HashSetStrategy<S>
where
    S: Strategy,
    S::Value: Eq + Hash,
{
    type Value = HashSet<S::Value>;
    fn gen_value(&self, rng: &mut StdRng) -> HashSet<S::Value> {
        let target = self.size.sample(rng);
        let mut out = HashSet::new();
        let mut attempts = 0usize;
        while out.len() < target && attempts < target * 10 + 20 {
            out.insert(self.element.gen_value(rng));
            attempts += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sizes_respect_window() {
        let strat = vec(0u32..10, 2..5);
        let mut rng = crate::case_rng("vec_sizes_respect_window", 1);
        for _ in 0..200 {
            let v = strat.gen_value(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
        let exact = vec(0u32..10, 8);
        assert_eq!(exact.gen_value(&mut rng).len(), 8);
    }

    #[test]
    fn hash_set_reaches_target_when_domain_allows() {
        let strat = hash_set(0usize..1000, 5..8);
        let mut rng = crate::case_rng("hash_set_reaches_target", 1);
        for _ in 0..100 {
            let s = strat.gen_value(&mut rng);
            assert!((5..8).contains(&s.len()));
        }
        // Tiny domain: set may be smaller than the sampled target.
        let tight = hash_set(0usize..3, 0..60);
        for _ in 0..50 {
            assert!(tight.gen_value(&mut rng).len() <= 3);
        }
    }
}
