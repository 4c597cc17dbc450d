//! Dense GF(2) matrices.

use crate::BitVec;
use std::fmt;

/// A dense matrix over GF(2), stored as one [`BitVec`] per row.
///
/// Used for the X-dependency matrices of the X-canceling MISR (rows = MISR
/// bits, columns = X symbols) and for generic GF(2) linear algebra.
///
/// # Examples
///
/// ```
/// use xhc_bits::BitMatrix;
///
/// let mut m = BitMatrix::zero(2, 3);
/// m.set(0, 1, true);
/// m.set(1, 2, true);
/// m.xor_rows(1, 0); // row1 ^= row0
/// assert!(m.get(1, 1) && m.get(1, 2));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct BitMatrix {
    rows: Vec<BitVec>,
    cols: usize,
}

impl BitMatrix {
    /// Creates an all-zero `rows × cols` matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        BitMatrix {
            rows: vec![BitVec::zeros(cols); rows],
            cols,
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = BitMatrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from row bit vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: Vec<BitVec>) -> Self {
        let cols = rows.first().map_or(0, BitVec::len);
        Self::from_sized_rows(rows, cols)
    }

    /// Builds a matrix from row bit vectors with an explicit column count
    /// (needed to keep the width of a zero-row matrix).
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `cols`.
    pub fn from_sized_rows(rows: Vec<BitVec>, cols: usize) -> Self {
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have the same length"
        );
        BitMatrix { rows, cols }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// The element at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.rows[row].get(col)
    }

    /// Sets the element at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        self.rows[row].set(col, value);
    }

    /// A view of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn row(&self, row: usize) -> &BitVec {
        &self.rows[row]
    }

    /// Replaces row `row`.
    ///
    /// # Panics
    ///
    /// Panics if out of range or if the new row has the wrong length.
    pub fn set_row(&mut self, row: usize, value: BitVec) {
        assert_eq!(value.len(), self.cols, "row length mismatch");
        self.rows[row] = value;
    }

    /// XORs row `src` into row `dst` (`dst ^= src`).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn xor_rows(&mut self, dst: usize, src: usize) {
        assert!(dst != src, "cannot xor a row into itself");
        let (a, b) = if dst < src {
            let (lo, hi) = self.rows.split_at_mut(src);
            (&mut lo[dst], &hi[0])
        } else {
            let (lo, hi) = self.rows.split_at_mut(dst);
            (&mut hi[0], &lo[src])
        };
        a.xor_with(b);
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from `num_cols`.
    pub fn push_row(&mut self, row: BitVec) {
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.rows.push(row);
    }

    /// Whether row `row` is all-zero.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn row_is_zero(&self, row: usize) -> bool {
        self.rows[row].none()
    }

    /// Iterator over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &BitVec> {
        self.rows.iter()
    }

    /// Matrix-vector product over GF(2): returns `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != num_cols`.
    pub fn mul_vec(&self, v: &BitVec) -> BitVec {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        let mut out = BitVec::zeros(self.rows.len());
        for (i, row) in self.rows.iter().enumerate() {
            if row.intersection_count(v) % 2 == 1 {
                out.set(i, true);
            }
        }
        out
    }

    /// The rank of the matrix over GF(2).
    ///
    /// Does not modify `self`; works word-level on a flat scratch copy
    /// (forward elimination only — rank needs no back-substitution).
    pub fn rank(&self) -> usize {
        const WORD_BITS: usize = 64;
        let m = self.rows.len();
        let stride = self.cols.div_ceil(WORD_BITS);
        if m == 0 || stride == 0 {
            return 0;
        }
        let mut data: Vec<u64> = Vec::with_capacity(m * stride);
        for row in &self.rows {
            data.extend_from_slice(row.as_words());
        }

        let mut rank = 0;
        let mut pivot_buf = vec![0u64; stride];
        for col in 0..self.cols {
            let wi = col / WORD_BITS;
            let mask = 1u64 << (col % WORD_BITS);
            let Some(pivot) = (rank..m).find(|&r| data[r * stride + wi] & mask != 0) else {
                continue;
            };
            if pivot != rank {
                for k in 0..stride {
                    data.swap(rank * stride + k, pivot * stride + k);
                }
            }
            pivot_buf.copy_from_slice(&data[rank * stride..(rank + 1) * stride]);
            // Eliminate below the pivot only; rows above cannot regain
            // this column, and rank is unaffected.
            for r in rank + 1..m {
                if data[r * stride + wi] & mask != 0 {
                    let row = &mut data[r * stride..(r + 1) * stride];
                    for (a, b) in row.iter_mut().zip(&pivot_buf) {
                        *a ^= b;
                    }
                }
            }
            rank += 1;
            if rank == m {
                break;
            }
        }
        rank
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMatrix {}x{}:", self.rows.len(), self.cols)?;
        for row in self.rows.iter().take(32) {
            writeln!(f, "  {row}")?;
        }
        if self.rows.len() > 32 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_has_full_rank() {
        let m = BitMatrix::identity(8);
        assert_eq!(m.rank(), 8);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(m.get(i, j), i == j);
            }
        }
    }

    #[test]
    fn zero_has_rank_zero() {
        assert_eq!(BitMatrix::zero(5, 7).rank(), 0);
    }

    #[test]
    fn xor_rows_both_directions() {
        let mut m = BitMatrix::zero(3, 4);
        m.set(0, 0, true);
        m.set(2, 3, true);
        m.xor_rows(2, 0); // row2 ^= row0
        assert!(m.get(2, 0) && m.get(2, 3));
        m.xor_rows(0, 2); // row0 ^= row2 -> row0 = 0001
        assert!(!m.get(0, 0) && m.get(0, 3));
    }

    #[test]
    #[should_panic(expected = "cannot xor a row into itself")]
    fn xor_self_panics() {
        BitMatrix::zero(2, 2).xor_rows(1, 1);
    }

    #[test]
    fn duplicate_rows_reduce_rank() {
        let row = BitVec::from_indices(5, [1, 3]);
        let m = BitMatrix::from_rows(vec![row.clone(), row.clone(), BitVec::zeros(5)]);
        assert_eq!(m.rank(), 1);
    }

    #[test]
    fn rank_of_fig3_matrix() {
        // The paper's Fig. 3: 6 MISR bits over 4 X's; 2 X-free rows exist,
        // so the X-dependency matrix has rank 4 (= 6 - 2).
        let rows = vec![
            BitVec::from_indices(4, [0]),       // M1: X1
            BitVec::from_indices(4, [0, 1, 2]), // M2: X1 X2 X3
            BitVec::from_indices(4, [2]),       // M3: X3
            BitVec::from_indices(4, [0]),       // M4: X1
            BitVec::from_indices(4, [0, 2]),    // M5: X1 X3
            BitVec::from_indices(4, [2, 3]),    // M6: X3 X4
        ];
        let m = BitMatrix::from_rows(rows);
        assert_eq!(m.rank(), 4);
    }

    #[test]
    fn mul_vec() {
        let m = BitMatrix::from_rows(vec![
            BitVec::from_indices(3, [0, 1]),
            BitVec::from_indices(3, [1, 2]),
        ]);
        let v = BitVec::from_indices(3, [1]);
        let out = m.mul_vec(&v);
        assert!(out.get(0) && out.get(1));
        let v2 = BitVec::from_indices(3, [0, 1]);
        let out2 = m.mul_vec(&v2);
        assert!(!out2.get(0) && out2.get(1));
    }

    #[test]
    fn push_and_set_row() {
        let mut m = BitMatrix::zero(1, 3);
        m.push_row(BitVec::from_indices(3, [2]));
        assert_eq!(m.num_rows(), 2);
        m.set_row(0, BitVec::from_indices(3, [0]));
        assert!(m.get(0, 0));
        assert!(!m.row_is_zero(1));
    }

    #[test]
    #[should_panic(expected = "row length mismatch")]
    fn push_wrong_len_panics() {
        BitMatrix::zero(1, 3).push_row(BitVec::zeros(4));
    }
}
