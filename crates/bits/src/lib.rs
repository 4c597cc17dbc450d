//! Word-packed bit vectors, pattern sets and GF(2) linear algebra.
//!
//! This crate is the arithmetic substrate of the `xhybrid` workspace. It
//! provides:
//!
//! * [`BitVec`] — a growable, word-packed vector of bits with the set
//!   operations the partitioning algorithm needs (union, intersection,
//!   difference, subset tests, rank queries);
//! * [`PatternSet`] — a newtype over [`BitVec`] representing a subset of the
//!   test-pattern universe, the currency of the pattern-partitioning
//!   algorithm;
//! * [`PatternRow`] — a borrowed `Copy` view of one pattern set's words,
//!   how an X map hands out the rows of its packed storage;
//! * [`BitMatrix`] — a dense GF(2) matrix with row XOR operations;
//! * [`XBitMatrix`] — a packed cells × patterns incidence matrix with
//!   word-sweep superset-counting kernels: an X map's own storage, and
//!   the substrate of the partition engine's cost-only split evaluator;
//! * [`gauss`] — Gaussian elimination over GF(2) with combination tracking,
//!   used by the X-canceling MISR to find X-free signature combinations
//!   (the paper's Fig. 3).
//!
//! # Examples
//!
//! Finding X-free combinations of MISR bits:
//!
//! ```
//! use xhc_bits::{BitMatrix, gauss::x_free_combinations};
//!
//! // 6 MISR bits, 4 X symbols (the paper's Fig. 3 dependency matrix).
//! let mut dep = BitMatrix::zero(6, 4);
//! for (row, cols) in [
//!     (0, vec![0]),          // M1: X1
//!     (1, vec![0, 1, 2]),    // M2: X1 X2 X3
//!     (2, vec![2]),          // M3: X3
//!     (3, vec![0]),          // M4: X1
//!     (4, vec![0, 2]),       // M5: X1 X3
//!     (5, vec![2, 3]),       // M6: X3 X4
//! ] {
//!     for c in cols {
//!         dep.set(row, c, true);
//!     }
//! }
//! let combos = x_free_combinations(&dep);
//! assert_eq!(combos.len(), 2); // rank 4 over 6 rows -> 2 X-free combos
//! for combo in &combos {
//!     // Each combination of rows XORs to the zero X-dependency vector.
//!     let mut acc = vec![false; 4];
//!     for row in combo.iter_ones() {
//!         for c in 0..4 {
//!             acc[c] ^= dep.get(row, c);
//!         }
//!     }
//!     assert!(acc.iter().all(|&b| !b));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmatrix;
mod bitvec;
mod matrix;
mod pattern_row;
mod pattern_set;

pub mod gauss;

pub use bitmatrix::XBitMatrix;
pub use bitvec::BitVec;
pub use matrix::BitMatrix;
pub use pattern_row::PatternRow;
pub use pattern_set::PatternSet;
