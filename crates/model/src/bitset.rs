//! A compact fixed-capacity bit set used throughout the workspace for
//! reachability and transitive-closure computations.
//!
//! The privacy algorithms in this reproduction (soundness checking,
//! structural-privacy utility accounting, reachability indexes) are dominated
//! by dense closure operations over graphs with up to a few tens of
//! thousands of nodes. A `Vec<u64>`-backed bit set keeps those operations in
//! word-parallel time and lets the closure of an `n`-node DAG live in
//! `n²/8` bytes — small enough to materialize per access class.

use std::fmt;

const WORD_BITS: usize = 64;

/// Fixed-capacity bit set over the universe `0..nbits`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    nbits: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// Create an empty set over the universe `0..nbits`.
    pub fn new(nbits: usize) -> Self {
        BitSet { nbits, words: vec![0; nbits.div_ceil(WORD_BITS)] }
    }

    /// Create a set containing every element of the universe.
    pub fn full(nbits: usize) -> Self {
        let mut s = BitSet::new(nbits);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// Build a set from an iterator of elements (all must be `< nbits`).
    pub fn from_iter(nbits: usize, it: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(nbits);
        for i in it {
            s.insert(i);
        }
        s
    }

    /// Size of the universe.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.nbits
    }

    /// Insert `i`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.nbits, "bitset index {i} out of range {}", self.nbits);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let mask = 1u64 << b;
        let newly = self.words[w] & mask == 0;
        self.words[w] |= mask;
        newly
    }

    /// Remove `i`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(i < self.nbits, "bitset index {i} out of range {}", self.nbits);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        let mask = 1u64 << b;
        let present = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.nbits {
            return false;
        }
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        self.words[w] & (1u64 << b) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// `self |= other`. Returns `true` if `self` changed. Panics if the
    /// universes differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.nbits, other.nbits, "bitset universe mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let before = *a;
            *a |= b;
            changed |= *a != before;
        }
        changed
    }

    /// `self &= other`. Panics if the universes differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.nbits, other.nbits, "bitset universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self &= !other`. Panics if the universes differ.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.nbits, other.nbits, "bitset universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset_of(&self, other: &BitSet) -> bool {
        assert_eq!(self.nbits, other.nbits, "bitset universe mismatch");
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Whether the two sets share at least one element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        assert_eq!(self.nbits, other.nbits, "bitset universe mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Number of elements in `self ∩ other` without materializing it.
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        assert_eq!(self.nbits, other.nbits, "bitset universe mismatch");
        self.words.iter().zip(&other.words).map(|(a, b)| (a & b).count_ones() as usize).sum()
    }

    /// Iterate over the elements in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    fn trim(&mut self) {
        let extra = self.words.len() * WORD_BITS - self.nbits;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over set elements; see [`BitSet::iter`].
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "second insert is a no-op");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn out_of_universe_contains_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(10));
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_universe_insert_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn full_and_trim() {
        let s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_iter(100, [1, 2, 3, 50]);
        let b = BitSet::from_iter(100, [2, 3, 4, 99]);

        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 50, 99]);
        assert!(!u.clone().union_with(&b), "idempotent union reports no change");

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3]);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 50]);

        assert!(i.is_subset_of(&a) && i.is_subset_of(&b));
        assert!(!a.is_subset_of(&b));
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_len(&b), 2);
        assert!(!BitSet::new(100).intersects(&a));
    }

    #[test]
    fn iteration_order_ascending() {
        let s = BitSet::from_iter(200, [199, 0, 63, 64, 128]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 128, 199]);
        assert_eq!(s.first(), Some(0));
        assert_eq!(BitSet::new(5).first(), None);
    }

    #[test]
    fn empty_universe() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert_eq!(BitSet::full(0).len(), 0);
    }

    #[test]
    fn debug_format() {
        let s = BitSet::from_iter(10, [1, 3]);
        assert_eq!(format!("{s:?}"), "{1, 3}");
    }
}
