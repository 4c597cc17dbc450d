//! A growable, word-packed vector of bits.

use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-length, word-packed vector of bits.
///
/// `BitVec` is the workhorse of the workspace: pattern sets, mask words,
/// matrix rows and fault-detection flags are all bit vectors. Bits beyond
/// `len` are kept zero as an internal invariant so that word-level
/// operations (`count_ones`, subset tests, …) never see garbage.
///
/// # Examples
///
/// ```
/// use xhc_bits::BitVec;
///
/// let mut v = BitVec::zeros(10);
/// v.set(3, true);
/// v.set(7, true);
/// assert_eq!(v.count_ones(), 2);
/// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates a bit vector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec {
            words: vec![!0u64; len.div_ceil(WORD_BITS)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Creates a bit vector from an iterator of `bool`s.
    pub fn from_bools<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut v = BitVec::zeros(0);
        for b in bits {
            v.push(b);
        }
        v
    }

    /// Creates a bit vector of `len` bits with the given indices set.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(len: usize, indices: I) -> Self {
        let mut v = BitVec::zeros(len);
        for i in indices {
            v.set(i, true);
        }
        v
    }

    /// Creates a bit vector of `len` bits backed by the given words
    /// (little-endian bit order within each word). Bits beyond `len` in
    /// the last word are cleared.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` is not exactly `len.div_ceil(64)`.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(WORD_BITS),
            "word count must match bit length"
        );
        let mut v = BitVec { words, len };
        v.mask_tail();
        v
    }

    /// The backing words (64 bits each, little-endian bit order; bits
    /// beyond `len` are zero). The word-level GF(2) kernels build on this.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Iterator over the indices of nonzero backing words, ascending.
    ///
    /// A partition's word mask: the sweep kernels of
    /// [`XBitMatrix`](crate::XBitMatrix) restrict their per-row subset
    /// tests to these indices, since any subset of this vector is zero
    /// everywhere else.
    pub fn nonzero_word_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != 0)
            .map(|(i, _)| i)
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a bit, growing the vector by one.
    pub fn push(&mut self, bit: bool) {
        let i = self.len;
        self.len += 1;
        if self.words.len() * WORD_BITS < self.len {
            self.words.push(0);
        }
        self.set(i, bit);
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Sets the bit at `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let w = index / WORD_BITS;
        let b = index % WORD_BITS;
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Flips the bit at `index`, returning its new value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn toggle(&mut self, index: usize) -> bool {
        let v = !self.get(index);
        self.set(index, v);
        v
    }

    /// Sets every bit to zero.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of zero bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Whether no bit is set.
    pub fn none(&self) -> bool {
        !self.any()
    }

    /// Index of the lowest set bit, if any.
    pub fn first_one(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes::over(&self.words)
    }

    /// Iterator over all bits as `bool`s, ascending by index.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// In-place bitwise OR with `other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn union_with(&mut self, other: &BitVec) {
        self.check_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place bitwise AND with `other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn intersect_with(&mut self, other: &BitVec) {
        self.check_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place bitwise XOR with `other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_with(&mut self, other: &BitVec) {
        self.check_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// In-place difference: clears every bit that is set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn difference_with(&mut self, other: &BitVec) {
        self.check_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// In-place bitwise NOT (within `len` bits).
    pub fn negate(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Number of bits set in both `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn intersection_count(&self, other: &BitVec) -> usize {
        self.check_len(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Whether every set bit of `self` is also set in `other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn is_subset_of(&self, other: &BitVec) -> bool {
        self.check_len(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Whether `self` and `other` share no set bit.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn is_disjoint_from(&self, other: &BitVec) -> bool {
        self.check_len(other);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    fn check_len(&self, other: &BitVec) {
        assert_eq!(
            self.len, other.len,
            "bit vector length mismatch: {} vs {}",
            self.len, other.len
        );
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        // When len is a multiple of WORD_BITS the tail is already exact.
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        for i in 0..self.len.min(128) {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > 128 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec::from_bools(iter)
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

/// Iterator over set-bit indices of packed words, produced by
/// [`BitVec::iter_ones`] and [`PatternRow::iter`](crate::PatternRow::iter).
pub struct IterOnes<'a> {
    words: &'a [u64],
    word_index: usize,
    current: u64,
}

impl<'a> IterOnes<'a> {
    pub(crate) fn over(words: &'a [u64]) -> Self {
        IterOnes {
            words,
            word_index: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_index * WORD_BITS + bit);
            }
            self.word_index += 1;
            if self.word_index >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_index];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert_eq!(z.len(), 70);
        assert_eq!(z.count_ones(), 0);
        assert!(z.none());

        let o = BitVec::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.any());
        // Tail bits beyond len must be masked off.
        assert_eq!(o.count_zeros(), 0);
    }

    #[test]
    fn set_get_toggle() {
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1));
        assert!(!v.toggle(0));
        assert!(v.toggle(1));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn push_grows() {
        let mut v = BitVec::zeros(0);
        for i in 0..200 {
            v.push(i % 3 == 0);
        }
        assert_eq!(v.len(), 200);
        assert_eq!(v.count_ones(), (0..200).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn iter_ones_crosses_words() {
        let v = BitVec::from_indices(200, [0, 63, 64, 65, 199]);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 65, 199]);
        assert_eq!(v.first_one(), Some(0));
    }

    #[test]
    fn set_operations() {
        let a = BitVec::from_indices(100, [1, 2, 3, 70]);
        let b = BitVec::from_indices(100, [2, 3, 4, 71]);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 2, 3, 4, 70, 71]);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter_ones().collect::<Vec<_>>(), vec![2, 3]);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter_ones().collect::<Vec<_>>(), vec![1, 70]);

        let mut x = a.clone();
        x.xor_with(&b);
        assert_eq!(x.iter_ones().collect::<Vec<_>>(), vec![1, 4, 70, 71]);

        assert_eq!(a.intersection_count(&b), 2);
    }

    #[test]
    fn subset_and_disjoint() {
        let small = BitVec::from_indices(100, [2, 3]);
        let big = BitVec::from_indices(100, [1, 2, 3, 4]);
        let other = BitVec::from_indices(100, [50, 60]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.is_disjoint_from(&other));
        assert!(!small.is_disjoint_from(&big));
        // Every set is a subset of itself and disjoint from the empty set.
        assert!(big.is_subset_of(&big));
        assert!(big.is_disjoint_from(&BitVec::zeros(100)));
    }

    #[test]
    fn negate_masks_tail() {
        let mut v = BitVec::zeros(67);
        v.negate();
        assert_eq!(v.count_ones(), 67);
        v.negate();
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn from_bools_roundtrip() {
        let bits = [true, false, true, true, false];
        let v: BitVec = bits.iter().copied().collect();
        assert_eq!(v.iter().collect::<Vec<_>>(), bits);
    }

    #[test]
    fn display_and_debug() {
        let v = BitVec::from_indices(5, [0, 4]);
        assert_eq!(v.to_string(), "10001");
        assert!(format!("{v:?}").contains("BitVec[5;"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut a = BitVec::zeros(10);
        a.union_with(&BitVec::zeros(11));
    }
}
