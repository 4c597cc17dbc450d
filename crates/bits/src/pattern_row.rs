//! A borrowed, read-only view of one pattern set's packed words.

use crate::bitvec::IterOnes;
use crate::PatternSet;
use std::fmt;

/// A pattern set borrowed as packed words: one row of an
/// [`XBitMatrix`](crate::XBitMatrix), or a [`PatternSet`] viewed in
/// place.
///
/// This is how an X map hands out a cell's X pattern set without owning
/// one allocation per cell: the rows live in one packed matrix and each
/// lookup is a `Copy` view into it. Bits beyond the universe are zero,
/// as in [`PatternSet`].
///
/// # Examples
///
/// ```
/// use xhc_bits::{PatternRow, PatternSet};
///
/// let xset = PatternSet::from_patterns(70, [0, 3, 65]);
/// let row = PatternRow::from(&xset);
/// assert_eq!(row.card(), 3);
/// assert!(row.contains(65));
/// assert_eq!(row.iter().collect::<Vec<_>>(), vec![0, 3, 65]);
/// assert_eq!(row.to_set(), xset);
///
/// // `PatternSet` methods that take an X set accept a row or a set.
/// let part = PatternSet::from_patterns(70, [3, 4, 65]);
/// assert_eq!(part.intersection_card(row), 2);
/// assert_eq!(part.intersection_card(&xset), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternRow<'a> {
    words: &'a [u64],
    universe: usize,
}

impl<'a> PatternRow<'a> {
    /// A view over `words` (one row, `universe.div_ceil(64)` words whose
    /// bits beyond `universe` are zero). Callers in this crate uphold
    /// both; the public ways in are [`From<&PatternSet>`] and
    /// [`XBitMatrix::pattern_row`](crate::XBitMatrix::pattern_row).
    pub(crate) fn new(words: &'a [u64], universe: usize) -> Self {
        debug_assert_eq!(words.len(), universe.div_ceil(64));
        PatternRow { words, universe }
    }

    /// Size of the pattern universe.
    pub fn universe(self) -> usize {
        self.universe
    }

    /// The packed words (64 patterns each, little-endian bit order).
    pub fn words(self) -> &'a [u64] {
        self.words
    }

    /// Number of patterns in the set.
    pub fn card(self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether pattern `p` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `p >= universe`.
    pub fn contains(self, p: usize) -> bool {
        assert!(p < self.universe, "pattern {p} out of range");
        self.words[p / 64] >> (p % 64) & 1 == 1
    }

    /// Iterator over member pattern indices, ascending.
    pub fn iter(self) -> impl Iterator<Item = usize> + 'a {
        IterOnes::over(self.words)
    }

    /// `|self ∩ other|` without materialising the intersection.
    ///
    /// # Panics
    ///
    /// Panics if universes differ.
    pub fn intersection_card<'b>(self, other: impl Into<PatternRow<'b>>) -> usize {
        let other = other.into();
        self.check_universe(other);
        self.words
            .iter()
            .zip(other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// An owned copy of the set.
    pub fn to_set(self) -> PatternSet {
        PatternSet::from_bits(crate::BitVec::from_words(
            self.words.to_vec(),
            self.universe,
        ))
    }

    pub(crate) fn check_universe(self, other: PatternRow<'_>) {
        assert_eq!(
            self.universe, other.universe,
            "bit vector length mismatch: {} vs {}",
            self.universe, other.universe
        );
    }
}

impl<'a> From<&'a PatternSet> for PatternRow<'a> {
    fn from(set: &'a PatternSet) -> Self {
        PatternRow::new(set.as_bits().as_words(), set.universe())
    }
}

impl fmt::Debug for PatternRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_set(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_matches_its_set_across_word_boundaries() {
        for universe in [1usize, 63, 64, 65, 130] {
            let set = PatternSet::from_patterns(universe, (0..universe).step_by(3));
            let row = PatternRow::from(&set);
            assert_eq!(row.universe(), universe);
            assert_eq!(row.card(), set.card());
            assert_eq!(
                row.iter().collect::<Vec<_>>(),
                set.iter().collect::<Vec<_>>()
            );
            assert_eq!(row.to_set(), set);
            assert!(!row.is_empty());
            for p in 0..universe {
                assert_eq!(row.contains(p), set.contains(p));
            }
            let other = PatternSet::from_patterns(universe, (0..universe).step_by(2));
            assert_eq!(row.intersection_card(&other), set.intersection_card(&other));
        }
        assert!(PatternRow::from(&PatternSet::empty(65)).is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn universe_mismatch_panics() {
        let a = PatternSet::all(64);
        let b = PatternSet::all(65);
        PatternRow::from(&a).intersection_card(&b);
    }

    #[test]
    fn debug_matches_the_set() {
        let set = PatternSet::from_patterns(8, [1, 2]);
        assert_eq!(format!("{:?}", PatternRow::from(&set)), format!("{set:?}"));
    }
}
