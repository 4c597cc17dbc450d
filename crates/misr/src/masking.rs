//! The X-masking front end (the paper's Fig. 1 and baseline \[5\]).

use xhc_bits::BitVec;
use xhc_logic::Trit;
use xhc_scan::{CellId, ScanConfig, XMap};

/// A mask word: one bit per scan cell, `1` meaning *mask* (the AND gate in
/// front of the compactor forces the shifted value to 0).
///
/// Conventional X-masking streams a fresh word per pattern; the paper's
/// hybrid shares one word across every pattern of a partition.
///
/// # Examples
///
/// ```
/// use xhc_misr::MaskWord;
/// use xhc_scan::{CellId, ScanConfig};
/// use xhc_logic::Trit;
///
/// let cfg = ScanConfig::uniform(5, 3);
/// let mut mask = MaskWord::none(&cfg);
/// mask.mask(&cfg, CellId::new(3, 2));
/// let row = vec![Trit::X; 15];
/// let gated = mask.apply(&row);
/// assert_eq!(gated.iter().filter(|t| t.is_x()).count(), 14);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskWord {
    bits: BitVec,
}

impl MaskWord {
    /// A word masking nothing.
    pub fn none(config: &ScanConfig) -> Self {
        MaskWord {
            bits: BitVec::zeros(config.total_cells()),
        }
    }

    /// A word from explicit per-cell bits (linear order).
    pub fn from_bits(bits: BitVec) -> Self {
        MaskWord { bits }
    }

    /// Marks `cell` as masked.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    pub fn mask(&mut self, config: &ScanConfig, cell: CellId) {
        self.bits.set(config.linear_index(cell), true);
    }

    /// Whether the linear cell index is masked.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn masks(&self, cell_index: usize) -> bool {
        self.bits.get(cell_index)
    }

    /// Number of masked cells.
    pub fn count(&self) -> usize {
        self.bits.count_ones()
    }

    /// The underlying per-cell bits.
    pub fn as_bits(&self) -> &BitVec {
        &self.bits
    }

    /// Gates a captured response row: masked positions become `0` (AND
    /// gating), everything else passes through.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the word width.
    pub fn apply(&self, row: &[Trit]) -> Vec<Trit> {
        assert_eq!(row.len(), self.bits.len(), "row/mask width mismatch");
        row.iter()
            .enumerate()
            .map(|(i, &t)| if self.bits.get(i) { Trit::Zero } else { t })
            .collect()
    }

    /// How many X's of `xmap` this word removes over the given patterns
    /// (or all patterns when `patterns` is `None`).
    pub fn x_removed(&self, xmap: &XMap, patterns: Option<&xhc_bits::PatternSet>) -> usize {
        xmap.iter()
            .filter(|(cell, _)| self.masks(xmap.config().linear_index(*cell)))
            .map(|(_, xs)| match patterns {
                Some(p) => xs.intersection_card(p),
                None => xs.card(),
            })
            .sum()
    }
}

/// Control-bit volume of conventional per-pattern X-masking (baseline \[5\]):
/// `L · C · P` — longest chain length × chains × patterns.
///
/// # Examples
///
/// ```
/// use xhc_misr::conventional_masking_bits;
/// use xhc_scan::ScanConfig;
///
/// // The paper's Fig. 6: 3 * 5 * 8 = 120 bits.
/// let cfg = ScanConfig::uniform(5, 3);
/// assert_eq!(conventional_masking_bits(&cfg, 8), 120);
/// ```
pub fn conventional_masking_bits(config: &ScanConfig, num_patterns: usize) -> u128 {
    config.mask_word_bits() as u128 * num_patterns as u128
}

/// Builds the unique fault-coverage-safe mask for a set of patterns: a cell
/// is masked iff it captures X under *every* pattern of the set, so no
/// observable (non-X) value is ever gated off.
///
/// This is the paper's §4 control-bit generation rule ("the proposed method
/// does not mask any scan cells if it loses non-X values").
pub fn safe_mask(xmap: &XMap, patterns: &xhc_bits::PatternSet) -> MaskWord {
    let mut bits = BitVec::zeros(xmap.config().total_cells());
    // An empty pattern set vacuously satisfies the subset test for every
    // cell; masking under it removes nothing, so mask nothing.
    if !patterns.is_empty() {
        for (cell, xs) in xmap.iter() {
            if patterns.is_subset_of(xs) {
                bits.set(xmap.config().linear_index(cell), true);
            }
        }
    }
    MaskWord { bits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xhc_bits::PatternSet;
    use xhc_scan::samples::fig4_xmap;

    #[test]
    fn conventional_bits_match_paper_fig6() {
        let cfg = ScanConfig::uniform(5, 3);
        assert_eq!(conventional_masking_bits(&cfg, 8), 120);
    }

    #[test]
    fn conventional_bits_match_table1() {
        // CKT-A: 505,050 cells * 3000 patterns = 1,515.15M bits. The
        // balanced chain layout keeps L*C slightly above the cell count
        // (ragged chains), so compare against the exact L*C product.
        let cfg = ScanConfig::balanced(505_050, 1000);
        let bits = conventional_masking_bits(&cfg, 3000);
        assert_eq!(bits, cfg.mask_word_bits() as u128 * 3000);
        assert!(bits >= 1_515_150_000);
    }

    #[test]
    fn apply_gates_only_masked_cells() {
        let cfg = ScanConfig::uniform(2, 2);
        let mut mask = MaskWord::none(&cfg);
        mask.mask(&cfg, CellId::new(0, 1));
        let row = vec![Trit::One, Trit::X, Trit::X, Trit::Zero];
        let gated = mask.apply(&row);
        assert_eq!(gated, vec![Trit::One, Trit::Zero, Trit::X, Trit::Zero]);
        assert_eq!(mask.count(), 1);
        assert!(mask.masks(1));
    }

    #[test]
    fn safe_mask_for_fig5_partition2() {
        // Partition 2 = {P2, P3, P7, P8}: only SC4[2] has X under all four
        // (the paper explicitly refuses to mask SC5[1], which has 3 of 4).
        let xmap = fig4_xmap();
        let part2 = PatternSet::from_patterns(8, [1, 2, 6, 7]);
        let mask = safe_mask(&xmap, &part2);
        assert_eq!(mask.count(), 1);
        assert!(mask.masks(xmap.config().linear_index(CellId::new(3, 2))));
        assert_eq!(mask.x_removed(&xmap, Some(&part2)), 4);
    }

    #[test]
    fn safe_mask_for_fig5_partition3() {
        // Partition 3 = {P1, P4, P5}: SC1[0], SC2[0], SC3[0] are X under
        // all three, and SC4[2] and SC5[1] as well.
        let xmap = fig4_xmap();
        let part3 = PatternSet::from_patterns(8, [0, 3, 4]);
        let mask = safe_mask(&xmap, &part3);
        let cfg = xmap.config();
        for cell in [
            CellId::new(0, 0),
            CellId::new(1, 0),
            CellId::new(2, 0),
            CellId::new(3, 2),
            CellId::new(4, 1),
        ] {
            assert!(mask.masks(cfg.linear_index(cell)), "{cell} must be masked");
        }
        // SC2[2] has X only under P1 and P5 -> not under P4 -> unmasked.
        assert!(!mask.masks(cfg.linear_index(CellId::new(1, 2))));
        assert_eq!(mask.count(), 5);
        assert_eq!(mask.x_removed(&xmap, Some(&part3)), 15);
    }

    #[test]
    fn safe_mask_never_covers_non_x() {
        // Property, paper §4: for every masked cell and every pattern in
        // the set, the cell is X.
        let xmap = fig4_xmap();
        for pats in [
            PatternSet::from_patterns(8, [0, 3, 4, 5]),
            PatternSet::from_patterns(8, [5]),
            PatternSet::all(8),
        ] {
            let mask = safe_mask(&xmap, &pats);
            for idx in 0..xmap.config().total_cells() {
                if mask.masks(idx) {
                    let cell = xmap.config().cell_at(idx);
                    for p in pats.iter() {
                        assert!(xmap.is_x(p, cell));
                    }
                }
            }
        }
    }

    #[test]
    fn empty_partition_masks_nothing() {
        let xmap = fig4_xmap();
        let mask = safe_mask(&xmap, &PatternSet::empty(8));
        assert_eq!(mask.count(), 0);
    }
}
