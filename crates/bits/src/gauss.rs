//! Gaussian elimination over GF(2) with combination tracking.
//!
//! The X-canceling MISR expresses every MISR bit as a linear (GF(2))
//! combination of scan-cell symbols. Its X-dependency matrix has one row per
//! MISR bit and one column per X symbol. Row combinations whose X part
//! eliminates to zero are *X-free*: XORing the corresponding MISR bits
//! yields a signature that depends only on known values (the paper's
//! Fig. 3). This module finds those combinations by reducing the augmented
//! matrix `[D | I]` — the identity part records which original rows were
//! XORed together.

use crate::{BitMatrix, BitVec};

/// The result of a combination-tracking Gaussian elimination.
///
/// Produced by [`eliminate`].
#[derive(Debug, Clone)]
pub struct Elimination {
    /// Row-reduced X-dependency part (same shape as the input).
    pub reduced: BitMatrix,
    /// For every row of `reduced`, the set of *original* rows whose XOR
    /// produced it.
    pub combinations: BitMatrix,
    /// Rank of the input matrix.
    pub rank: usize,
    /// The pivot column of each of the first `rank` reduced rows, in
    /// reduction (strictly ascending) order. This is the rank
    /// *certificate*: an independent checker can confirm the claimed rank
    /// by re-eliminating in exactly this column order.
    pub pivot_cols: Vec<usize>,
}

impl Elimination {
    /// Indices of reduced rows whose X-dependency part is all-zero.
    pub fn zero_rows(&self) -> Vec<usize> {
        (0..self.reduced.num_rows())
            .filter(|&r| self.reduced.row_is_zero(r))
            .collect()
    }
}

const WORD_BITS: usize = 64;

/// The flat working form of the augmented matrix `[D | I]`: `m` rows of
/// `stride` contiguous words (dependency part first, combination part
/// after), reduced in place with word-level row operations.
struct FlatElimination {
    data: Vec<u64>,
    stride: usize,
    dep_words: usize,
    rank: usize,
    pivot_cols: Vec<usize>,
}

impl FlatElimination {
    fn num_rows(&self) -> usize {
        self.data.len().checked_div(self.stride).unwrap_or(0)
    }

    fn dep_row(&self, r: usize) -> &[u64] {
        &self.data[r * self.stride..r * self.stride + self.dep_words]
    }

    fn comb_row(&self, r: usize) -> &[u64] {
        &self.data[r * self.stride + self.dep_words..(r + 1) * self.stride]
    }
}

/// Traced entry point for the flat reduction. The span lives in this
/// thin wrapper (not in the hot loop) so the guard's drop glue never
/// pessimizes the reduction kernel's codegen when tracing is off.
fn eliminate_flat(matrix: &BitMatrix) -> FlatElimination {
    let mut span = xhc_trace::span("gauss.eliminate")
        .arg("rows", matrix.num_rows() as u64)
        .arg("cols", matrix.num_cols() as u64);
    let flat = eliminate_flat_kernel(matrix);
    span.set_arg("rank", flat.rank as u64);
    flat
}

/// Gauss–Jordan reduction of `[matrix | I]` with word-level pivot probes
/// and one batched XOR per row update (dependency and combination parts
/// share a cache-contiguous row, so a row operation is a single pass).
///
/// Kept out-of-line so the traced wrapper's span guard (a `Drop` type)
/// cannot leak unwind edges into this loop's codegen.
#[inline(never)]
fn eliminate_flat_kernel(matrix: &BitMatrix) -> FlatElimination {
    let m = matrix.num_rows();
    let cols = matrix.num_cols();
    let dep_words = cols.div_ceil(WORD_BITS);
    let comb_words = m.div_ceil(WORD_BITS);
    let stride = dep_words + comb_words;
    let mut data = vec![0u64; m * stride];
    for (r, row) in matrix.iter_rows().enumerate() {
        data[r * stride..r * stride + dep_words].copy_from_slice(row.as_words());
        data[r * stride + dep_words + r / WORD_BITS] |= 1u64 << (r % WORD_BITS);
    }

    let mut rank = 0;
    let mut pivot_cols = Vec::with_capacity(m.min(cols));
    let mut pivot_buf = vec![0u64; stride];
    for col in 0..cols {
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
        for r in 0..m {
            if r != rank && data[r * stride + wi] & mask != 0 {
                let row = &mut data[r * stride..(r + 1) * stride];
                for (a, b) in row.iter_mut().zip(&pivot_buf) {
                    *a ^= b;
                }
            }
        }
        rank += 1;
        pivot_cols.push(col);
        if rank == m {
            break;
        }
    }

    FlatElimination {
        data,
        stride,
        dep_words,
        rank,
        pivot_cols,
    }
}

/// Row-reduces `matrix` over GF(2), tracking row combinations.
///
/// Returns the reduced matrix together with, for each reduced row, the set
/// of original row indices that were XORed to produce it, and the rank.
///
/// The reduction is a full Gauss–Jordan pass (pivots are eliminated above
/// and below), so zero rows — if any — are exactly the last
/// `num_rows - rank` rows.
///
/// # Examples
///
/// ```
/// use xhc_bits::{BitMatrix, gauss::eliminate};
///
/// let mut d = BitMatrix::zero(3, 2);
/// d.set(0, 0, true);
/// d.set(1, 0, true); // row1 == row0 -> one zero combination exists
/// d.set(2, 1, true);
/// let elim = eliminate(&d);
/// assert_eq!(elim.rank, 2);
/// assert_eq!(elim.zero_rows().len(), 1);
/// ```
pub fn eliminate(matrix: &BitMatrix) -> Elimination {
    let m = matrix.num_rows();
    let cols = matrix.num_cols();
    let flat = eliminate_flat(matrix);
    let reduced = BitMatrix::from_sized_rows(
        (0..m)
            .map(|r| BitVec::from_words(flat.dep_row(r).to_vec(), cols))
            .collect(),
        cols,
    );
    let combinations = BitMatrix::from_sized_rows(
        (0..m)
            .map(|r| BitVec::from_words(flat.comb_row(r).to_vec(), m))
            .collect(),
        m,
    );
    Elimination {
        reduced,
        combinations,
        rank: flat.rank,
        pivot_cols: flat.pivot_cols,
    }
}

/// Finds all independent X-free row combinations of `dependency`.
///
/// Each returned [`BitVec`] has one bit per input row; the set bits name the
/// rows (MISR bits) whose XOR is free of every X column. The number of
/// combinations is `num_rows - rank(dependency)`; they form a basis of the
/// left null space, so any X-free combination is a XOR of the returned ones.
///
/// # Examples
///
/// See the crate-level example, which reproduces the paper's Fig. 3.
pub fn x_free_combinations(dependency: &BitMatrix) -> Vec<BitVec> {
    let flat = eliminate_flat(dependency);
    let m = flat.num_rows();
    (0..m)
        .filter(|&r| flat.dep_row(r).iter().all(|&w| w == 0))
        .map(|r| BitVec::from_words(flat.comb_row(r).to_vec(), m))
        .collect()
}

/// Verifies that `combination` (one bit per row of `dependency`) XORs to an
/// all-zero X-dependency vector.
///
/// # Panics
///
/// Panics if `combination.len() != dependency.num_rows()`.
pub fn is_x_free(dependency: &BitMatrix, combination: &BitVec) -> bool {
    assert_eq!(
        combination.len(),
        dependency.num_rows(),
        "combination length must equal the number of rows"
    );
    let mut acc = BitVec::zeros(dependency.num_cols());
    for row in combination.iter_ones() {
        acc.xor_with(dependency.row(row));
    }
    acc.none()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_matrix() -> BitMatrix {
        // Rows M1..M6, columns X1..X4 (paper Fig. 3 left-hand matrix).
        BitMatrix::from_rows(vec![
            BitVec::from_indices(4, [0]),
            BitVec::from_indices(4, [0, 1, 2]),
            BitVec::from_indices(4, [2]),
            BitVec::from_indices(4, [0]),
            BitVec::from_indices(4, [0, 2]),
            BitVec::from_indices(4, [2, 3]),
        ])
    }

    #[test]
    fn fig3_yields_two_x_free_rows() {
        let combos = x_free_combinations(&fig3_matrix());
        assert_eq!(combos.len(), 2, "paper finds exactly 2 X-free rows");
        for c in &combos {
            assert!(is_x_free(&fig3_matrix(), c));
            assert!(c.any());
        }
    }

    #[test]
    fn fig3_combinations_span_paper_answer() {
        // The paper reports M1^M3^M5 and M1^M4 as X-free. Our basis may
        // differ, but both paper combinations must be X-free, and each must
        // be expressible over our basis (here: equal to one basis vector or
        // the XOR of the two).
        let dep = fig3_matrix();
        let paper1 = BitVec::from_indices(6, [0, 2, 4]); // M1^M3^M5
        let paper2 = BitVec::from_indices(6, [0, 3]); // M1^M4
        assert!(is_x_free(&dep, &paper1));
        assert!(is_x_free(&dep, &paper2));

        let basis = x_free_combinations(&dep);
        let mut both = basis[0].clone();
        both.xor_with(&basis[1]);
        let candidates = [basis[0].clone(), basis[1].clone(), both];
        assert!(candidates.contains(&paper1) || is_x_free(&dep, &paper1));
        assert!(candidates.contains(&paper2) || is_x_free(&dep, &paper2));
    }

    #[test]
    fn full_rank_matrix_has_no_combos() {
        let m = BitMatrix::identity(4);
        assert!(x_free_combinations(&m).is_empty());
    }

    #[test]
    fn zero_matrix_all_rows_free() {
        let m = BitMatrix::zero(3, 5);
        let combos = x_free_combinations(&m);
        assert_eq!(combos.len(), 3);
        // Singleton combinations of each row.
        for c in &combos {
            assert_eq!(c.count_ones(), 1);
        }
    }

    #[test]
    fn elimination_reports_rank_and_zero_rows_at_bottom() {
        let m = BitMatrix::from_rows(vec![
            BitVec::from_indices(3, [0]),
            BitVec::from_indices(3, [0]),
            BitVec::from_indices(3, [1]),
            BitVec::from_indices(3, [0, 1]),
        ]);
        let e = eliminate(&m);
        assert_eq!(e.rank, 2);
        assert_eq!(e.zero_rows(), vec![2, 3]);
        // Combination rows must reproduce the reduced rows when applied to
        // the original matrix.
        for r in 0..4 {
            let mut acc = BitVec::zeros(3);
            for orig in e.combinations.row(r).iter_ones() {
                acc.xor_with(m.row(orig));
            }
            assert_eq!(&acc, e.reduced.row(r));
        }
    }

    #[test]
    fn pivot_cols_certify_the_rank() {
        // One pivot column per unit of rank, strictly ascending, and each
        // pivot column has exactly one set bit in the reduced matrix (the
        // Gauss–Jordan pass clears it above and below).
        for m in [fig3_matrix(), BitMatrix::identity(4), BitMatrix::zero(3, 5)] {
            let e = eliminate(&m);
            assert_eq!(e.pivot_cols.len(), e.rank);
            assert!(e.pivot_cols.windows(2).all(|w| w[0] < w[1]));
            for (row, &col) in e.pivot_cols.iter().enumerate() {
                assert!(col < m.num_cols());
                assert!(e.reduced.get(row, col), "pivot ({row},{col}) must be set");
                let ones = (0..m.num_rows()).filter(|&r| e.reduced.get(r, col)).count();
                assert_eq!(ones, 1, "pivot column {col} must be a unit column");
            }
        }
    }

    #[test]
    fn combination_count_matches_nullity() {
        // num_rows - rank == number of X-free combinations, always.
        let m = fig3_matrix();
        assert_eq!(x_free_combinations(&m).len(), m.num_rows() - m.rank());
    }

    #[test]
    #[should_panic(expected = "combination length")]
    fn is_x_free_checks_length() {
        is_x_free(&BitMatrix::zero(3, 2), &BitVec::zeros(4));
    }
}
