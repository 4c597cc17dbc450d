//! Sets of test-pattern indices.

use crate::{BitVec, PatternRow};
use std::fmt;

/// A subset of the test-pattern universe `{0, 1, …, n-1}`.
///
/// The pattern-partitioning algorithm manipulates sets of pattern indices:
/// the X-set of a scan cell (patterns under which it captures X), the
/// member set of a partition, and their intersections. `PatternSet` wraps a
/// [`BitVec`] whose length is the number of test patterns applied, giving
/// the operations domain-appropriate names.
///
/// # Examples
///
/// ```
/// use xhc_bits::PatternSet;
///
/// // Fig. 4: the first scan cell in SC1 captures X under P1, P4, P5, P6
/// // (patterns are 0-indexed here).
/// let xset = PatternSet::from_patterns(8, [0, 3, 4, 5]);
/// let partition = PatternSet::all(8);
/// let (with_x, without_x) = partition.split_by(&xset);
/// assert_eq!(with_x.card(), 4);
/// assert_eq!(without_x.card(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PatternSet {
    bits: BitVec,
}

impl PatternSet {
    /// The empty set over a universe of `universe` patterns.
    pub fn empty(universe: usize) -> Self {
        PatternSet {
            bits: BitVec::zeros(universe),
        }
    }

    /// The full set `{0, …, universe-1}`.
    pub fn all(universe: usize) -> Self {
        PatternSet {
            bits: BitVec::ones(universe),
        }
    }

    /// A set containing the given pattern indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= universe`.
    pub fn from_patterns<I: IntoIterator<Item = usize>>(universe: usize, patterns: I) -> Self {
        PatternSet {
            bits: BitVec::from_indices(universe, patterns),
        }
    }

    /// Builds a set from a raw bit vector (one bit per pattern).
    pub fn from_bits(bits: BitVec) -> Self {
        PatternSet { bits }
    }

    /// The underlying bit vector.
    pub fn as_bits(&self) -> &BitVec {
        &self.bits
    }

    /// Size of the pattern universe.
    pub fn universe(&self) -> usize {
        self.bits.len()
    }

    /// Number of patterns in the set (cardinality).
    pub fn card(&self) -> usize {
        self.bits.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.none()
    }

    /// Whether pattern `p` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `p >= universe`.
    pub fn contains(&self, p: usize) -> bool {
        self.bits.get(p)
    }

    /// Adds pattern `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= universe`.
    pub fn insert(&mut self, p: usize) {
        self.bits.set(p, true);
    }

    /// Removes pattern `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= universe`.
    pub fn remove(&mut self, p: usize) {
        self.bits.set(p, false);
    }

    /// Iterator over member pattern indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter_ones()
    }

    /// `|self ∩ other|` without materialising the intersection.
    /// `other` is a set or a borrowed [`PatternRow`] (an X map's row).
    ///
    /// # Panics
    ///
    /// Panics if universes differ.
    pub fn intersection_card<'a>(&self, other: impl Into<PatternRow<'a>>) -> usize {
        other.into().intersection_card(self)
    }

    /// The intersection `self ∩ other`.
    ///
    /// # Panics
    ///
    /// Panics if universes differ.
    pub fn intersection(&self, other: &PatternSet) -> PatternSet {
        let mut bits = self.bits.clone();
        bits.intersect_with(&other.bits);
        PatternSet { bits }
    }

    /// The difference `self \ other`.
    ///
    /// # Panics
    ///
    /// Panics if universes differ.
    pub fn difference(&self, other: &PatternSet) -> PatternSet {
        let mut bits = self.bits.clone();
        bits.difference_with(&other.bits);
        PatternSet { bits }
    }

    /// The union `self ∪ other`.
    ///
    /// # Panics
    ///
    /// Panics if universes differ.
    pub fn union(&self, other: &PatternSet) -> PatternSet {
        let mut bits = self.bits.clone();
        bits.union_with(&other.bits);
        PatternSet { bits }
    }

    /// Whether `self ⊆ other`, for a set or a borrowed [`PatternRow`].
    ///
    /// # Panics
    ///
    /// Panics if universes differ.
    pub fn is_subset_of<'a>(&self, other: impl Into<PatternRow<'a>>) -> bool {
        let other = other.into();
        PatternRow::from(self).check_universe(other);
        self.bits
            .as_words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & !b == 0)
    }

    /// Whether the two sets share no pattern.
    ///
    /// # Panics
    ///
    /// Panics if universes differ.
    pub fn is_disjoint_from(&self, other: &PatternSet) -> bool {
        self.bits.is_disjoint_from(&other.bits)
    }

    /// Splits `self` by a pivot set: returns `(self ∩ pivot, self \ pivot)`.
    ///
    /// This is the elementary binary-partitioning step of the paper's
    /// Algorithm 1: a partition is split into the patterns under which the
    /// selected scan cell captures X and the rest. The pivot is a set or
    /// a borrowed [`PatternRow`].
    ///
    /// # Panics
    ///
    /// Panics if universes differ.
    pub fn split_by<'a>(&self, pivot: impl Into<PatternRow<'a>>) -> (PatternSet, PatternSet) {
        let pivot = pivot.into();
        PatternRow::from(self).check_universe(pivot);
        let (with, without) = self
            .bits
            .as_words()
            .iter()
            .zip(pivot.words())
            .map(|(p, v)| (p & v, p & !v))
            .unzip();
        let universe = self.universe();
        (
            PatternSet::from_bits(BitVec::from_words(with, universe)),
            PatternSet::from_bits(BitVec::from_words(without, universe)),
        )
    }
}

impl fmt::Debug for PatternSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PatternSet{{")?;
        let mut first = true;
        for (count, p) in self.iter().enumerate() {
            if count >= 16 {
                write!(f, ", …")?;
                break;
            }
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        write!(f, "}} ({}/{})", self.card(), self.universe())
    }
}

impl FromIterator<usize> for PatternSet {
    /// Collects pattern indices into a set whose universe is just large
    /// enough to hold the largest index.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let indices: Vec<usize> = iter.into_iter().collect();
        let universe = indices.iter().max().map_or(0, |m| m + 1);
        PatternSet::from_patterns(universe, indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let e = PatternSet::empty(8);
        assert!(e.is_empty());
        assert_eq!(e.universe(), 8);

        let a = PatternSet::all(8);
        assert_eq!(a.card(), 8);
        assert!(a.contains(7));
    }

    #[test]
    fn membership_mutation() {
        let mut s = PatternSet::empty(10);
        s.insert(3);
        s.insert(7);
        assert!(s.contains(3));
        s.remove(3);
        assert!(!s.contains(3));
        assert_eq!(s.card(), 1);
    }

    #[test]
    fn algebra() {
        let a = PatternSet::from_patterns(8, [0, 3, 4, 5]);
        let b = PatternSet::from_patterns(8, [0, 1, 3]);
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(a.union(&b).iter().collect::<Vec<_>>(), vec![0, 1, 3, 4, 5]);
        assert_eq!(a.intersection_card(&b), 2);
        assert!(a.intersection(&b).is_subset_of(&a));
        assert!(a.difference(&b).is_disjoint_from(&b));
    }

    #[test]
    fn split_partitions_universe() {
        // The Fig. 5 first partitioning: pivot = X-set of SC1 cell 1.
        let whole = PatternSet::all(8);
        let pivot = PatternSet::from_patterns(8, [0, 3, 4, 5]);
        let (p1, p2) = whole.split_by(&pivot);
        assert_eq!(p1.iter().collect::<Vec<_>>(), vec![0, 3, 4, 5]);
        assert_eq!(p2.iter().collect::<Vec<_>>(), vec![1, 2, 6, 7]);
        assert!(p1.is_disjoint_from(&p2));
        assert_eq!(p1.card() + p2.card(), whole.card());
    }

    #[test]
    fn collect_from_iterator() {
        let s: PatternSet = [5usize, 2, 9].into_iter().collect();
        assert_eq!(s.universe(), 10);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 5, 9]);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = PatternSet::from_patterns(8, [1, 2]);
        let d = format!("{s:?}");
        assert!(d.contains("PatternSet"));
        assert!(d.contains("(2/8)"));
    }
}
