//! Control-bit cost accounting for the hybrid architecture.

use xhc_bits::PatternSet;
use xhc_misr::{safe_mask, XCancelConfig};
use xhc_scan::XMap;

/// The control-bit cost of a partitioning of the pattern set, per the
/// paper's §4 formula:
///
/// ```text
/// Total = L · C · #partitions  +  m · q · leakedX / (m − q)
/// ```
///
/// `masking_bits` is the first term, `canceling_bits` the (fractional)
/// second.
///
/// # Examples
///
/// ```
/// use xhc_bits::PatternSet;
/// use xhc_core::hybrid_cost;
/// use xhc_misr::XCancelConfig;
/// use xhc_scan::{CellId, ScanConfig, XMapBuilder};
///
/// let cfg = ScanConfig::uniform(5, 3);
/// let mut b = XMapBuilder::new(cfg, 8);
/// for p in 0..8 { b.add_x(CellId::new(0, 0), p).unwrap(); }
/// let xmap = b.finish();
///
/// let cost = hybrid_cost(&xmap, &[PatternSet::all(8)], XCancelConfig::new(10, 2));
/// assert_eq!(cost.masking_bits, 15);     // one 15-bit mask word
/// assert_eq!(cost.leaked_x, 0);          // the only X cell is maskable
/// assert_eq!(cost.total(), 15.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HybridCost {
    /// `L · C · #partitions` — mask-word bits streamed once per partition.
    pub masking_bits: u128,
    /// `m · q · leakedX / (m − q)` — selective-XOR bits, fractional as the
    /// paper computes it.
    pub canceling_bits: f64,
    /// X's removed by the partition masks.
    pub masked_x: usize,
    /// X's left for the X-canceling MISR.
    pub leaked_x: usize,
    /// Number of partitions.
    pub num_partitions: usize,
}

impl HybridCost {
    /// Total control bits (fractional).
    pub fn total(&self) -> f64 {
        self.masking_bits as f64 + self.canceling_bits
    }

    /// Total control bits rounded up, as the paper reports (57.5 → 58).
    pub fn total_ceil(&self) -> u128 {
        self.total().ceil() as u128
    }
}

/// Computes the safe (no non-X loss) mask of each partition with
/// [`safe_mask`] and the resulting hybrid control-bit cost, on the
/// caller's thread. The engine keeps the same masks incrementally; this
/// is the serial reference it is tested against.
///
/// # Panics
///
/// Panics if a partition's universe differs from the map's pattern count.
pub fn hybrid_cost(xmap: &XMap, partitions: &[PatternSet], cancel: XCancelConfig) -> HybridCost {
    let masked_x: usize = partitions
        .iter()
        .map(|part| safe_mask(xmap, part).x_removed(xmap, Some(part)))
        .sum();
    let leaked_x = xmap.total_x() - masked_x;
    HybridCost {
        masking_bits: xmap.config().mask_word_bits() as u128 * partitions.len() as u128,
        canceling_bits: cancel.control_bits(leaked_x),
        masked_x,
        leaked_x,
        num_partitions: partitions.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xhc_misr::MaskWord;
    use xhc_scan::samples::fig4_xmap;

    #[test]
    fn fig6_round1_cost_m10_q2() {
        // First partitioning round: {P1,P4,P5,P6} and {P2,P3,P7,P8};
        // 16 X's masked, 12 leaked; total = 3*5*2 + 10*2*12/8 = 60.
        let xmap = fig4_xmap();
        let parts = [
            PatternSet::from_patterns(8, [0, 3, 4, 5]),
            PatternSet::from_patterns(8, [1, 2, 6, 7]),
        ];
        let cost = hybrid_cost(&xmap, &parts, XCancelConfig::new(10, 2));
        assert_eq!(cost.masked_x, 16);
        assert_eq!(cost.leaked_x, 12);
        assert_eq!(cost.masking_bits, 30);
        assert!((cost.canceling_bits - 30.0).abs() < 1e-9);
        assert!((cost.total() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn fig6_round2_cost_m10_q2() {
        // Second round: partitions {P2,P3,P7,P8}, {P1,P4,P5}, {P6};
        // 23 masked, 5 leaked; total = 3*5*3 + 10*2*5/8 = 57.5 -> 58.
        let xmap = fig4_xmap();
        let parts = [
            PatternSet::from_patterns(8, [1, 2, 6, 7]),
            PatternSet::from_patterns(8, [0, 3, 4]),
            PatternSet::from_patterns(8, [5]),
        ];
        let cost = hybrid_cost(&xmap, &parts, XCancelConfig::new(10, 2));
        assert_eq!(cost.masked_x, 23);
        assert_eq!(cost.leaked_x, 5);
        assert_eq!(cost.masking_bits, 45);
        assert!((cost.total() - 57.5).abs() < 1e-9);
        assert_eq!(cost.total_ceil(), 58);
    }

    #[test]
    fn fig6_costs_m10_q1() {
        // With m=10, q=1 the paper gets 43.3->44 (round 1) and 50.5->51
        // (round 2), so partitioning stops after round 1.
        let xmap = fig4_xmap();
        let cancel = XCancelConfig::new(10, 1);
        let round1 = [
            PatternSet::from_patterns(8, [0, 3, 4, 5]),
            PatternSet::from_patterns(8, [1, 2, 6, 7]),
        ];
        let round2 = [
            PatternSet::from_patterns(8, [1, 2, 6, 7]),
            PatternSet::from_patterns(8, [0, 3, 4]),
            PatternSet::from_patterns(8, [5]),
        ];
        let c1 = hybrid_cost(&xmap, &round1, cancel);
        let c2 = hybrid_cost(&xmap, &round2, cancel);
        assert_eq!(c1.total_ceil(), 44);
        assert_eq!(c2.total_ceil(), 51);
        assert!(c1.total() < c2.total());
    }

    #[test]
    fn round0_single_partition() {
        // Before any split: one mask word over all 8 patterns; no cell has
        // X under all 8, so nothing is masked and all 28 X's leak.
        let xmap = fig4_xmap();
        let cost = hybrid_cost(&xmap, &[PatternSet::all(8)], XCancelConfig::new(10, 2));
        assert_eq!(cost.masked_x, 0);
        assert_eq!(cost.leaked_x, 28);
        assert_eq!(cost.masking_bits, 15);
        assert!((cost.total() - (15.0 + 70.0)).abs() < 1e-9);
    }

    #[test]
    fn total_strictly_falls_as_one_more_x_is_masked_at_m32_q7() {
        // BestCost's tie rule ("first strict minimum") relies on the f64
        // total strictly falling whenever one leaked X becomes masked, at
        // the Table 1 MISR (8.96 control bits per X) and leaked counts
        // up to 1e8. Check it rather than assume it.
        let cancel = XCancelConfig::new(32, 7);
        let cost = |masking_bits: u128, masked_x: usize, leaked_x: usize| HybridCost {
            masking_bits,
            canceling_bits: cancel.control_bits(leaked_x),
            masked_x,
            leaked_x,
            num_partitions: 1,
        };
        let mut rng = xhc_prng::XhcRng::seed_from_u64(0x5eed_c057);
        let mut cases: Vec<(u128, usize)> = Vec::new();
        // Edges: the smallest and largest leaked counts, powers of two
        // around the f64 exponent steps, and the CKT-A mask word (L·C =
        // 505,050 bits) at up to 64 partitions.
        for leaked in [
            1usize,
            2,
            3,
            1 << 20,
            (1 << 24) + 1,
            99_999_999,
            100_000_000,
        ] {
            for masking in [0u128, 15, 505_050, 505_050 * 64] {
                cases.push((masking, leaked));
            }
        }
        for _ in 0..10_000 {
            let leaked = 1 + rng.gen_index(100_000_000);
            let masking = 505_050 * (1 + rng.gen_index(64)) as u128;
            cases.push((masking, leaked));
        }
        for (masking, leaked) in cases {
            let before = cost(masking, 1_000, leaked);
            let after = cost(masking, 1_001, leaked - 1);
            assert!(
                after.total() < before.total(),
                "masking {masking}, leaked {leaked}: {} !< {}",
                after.total(),
                before.total()
            );
        }
    }

    #[test]
    fn masks_align_with_cost() {
        let xmap = fig4_xmap();
        let parts = [
            PatternSet::from_patterns(8, [1, 2, 6, 7]),
            PatternSet::from_patterns(8, [0, 3, 4]),
            PatternSet::from_patterns(8, [5]),
        ];
        let cost = hybrid_cost(&xmap, &parts, XCancelConfig::new(10, 2));
        let masks: Vec<MaskWord> = parts.iter().map(|p| safe_mask(&xmap, p)).collect();
        // Fig. 6 mask populations: 1, 5, 4 cells.
        assert_eq!(masks[0].count(), 1);
        assert_eq!(masks[1].count(), 5);
        assert_eq!(masks[2].count(), 4);
        let removed: usize = masks
            .iter()
            .zip(&parts)
            .map(|(m, p)| m.x_removed(&xmap, Some(p)))
            .sum();
        assert_eq!(removed, cost.masked_x);
    }
}
