//! Control-bit cost accounting for the hybrid architecture.

use xhc_bits::PatternSet;
use xhc_misr::{safe_mask, MaskWord, XCancelConfig};
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

/// Computes the safe (no non-X loss) masks for each partition and the
/// resulting hybrid control-bit cost, on the caller's thread.
///
/// # Panics
///
/// Panics if a partition's universe differs from the map's pattern count.
pub fn hybrid_cost(xmap: &XMap, partitions: &[PatternSet], cancel: XCancelConfig) -> HybridCost {
    let (cost, _) = hybrid_cost_with_masks(xmap, partitions, cancel, 1);
    cost
}

/// Like [`hybrid_cost`] but also returns the per-partition mask words,
/// extracting them on up to `threads` workers.
///
/// Each partition's extraction tests every X cell's row, so the fan-out
/// takes one worker per [`xhc_par::MIN_WORKER_WORDS`] of partitions × X
/// cells × row words, at most `threads`. The result is identical for
/// every width.
pub fn hybrid_cost_with_masks(
    xmap: &XMap,
    partitions: &[PatternSet],
    cancel: XCancelConfig,
    threads: usize,
) -> (HybridCost, Vec<MaskWord>) {
    let total_x = xmap.total_x();
    let words = partitions.len() * xmap.num_x_cells() * xmap.num_patterns().div_ceil(64);
    let workers = threads.min(words / xhc_par::MIN_WORKER_WORDS);
    // Results come back in partition order, so the fold is deterministic.
    let per: Vec<(MaskWord, usize)> = xhc_par::par_map_threads(workers, partitions, |part| {
        let mask = safe_mask(xmap, part);
        let removed = mask.x_removed(xmap, Some(part));
        (mask, removed)
    });
    let masked_x: usize = per.iter().map(|&(_, removed)| removed).sum();
    let masks: Vec<MaskWord> = per.into_iter().map(|(mask, _)| mask).collect();
    let leaked_x = total_x - masked_x;
    let masking_bits = xmap.config().mask_word_bits() as u128 * partitions.len() as u128;
    let canceling_bits = cancel.control_bits(leaked_x);
    (
        HybridCost {
            masking_bits,
            canceling_bits,
            masked_x,
            leaked_x,
            num_partitions: partitions.len(),
        },
        masks,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xhc_scan::{CellId, ScanConfig, XMapBuilder};

    fn fig4_xmap() -> XMap {
        let cfg = ScanConfig::uniform(5, 3);
        let mut b = XMapBuilder::new(cfg, 8);
        for p in [0, 3, 4, 5] {
            b.add_x(CellId::new(0, 0), p).unwrap();
            b.add_x(CellId::new(1, 0), p).unwrap();
            b.add_x(CellId::new(2, 0), p).unwrap();
        }
        for p in [0, 4] {
            b.add_x(CellId::new(1, 2), p).unwrap();
        }
        for p in [0, 1, 2, 3, 4, 6, 7] {
            b.add_x(CellId::new(3, 2), p).unwrap();
        }
        for p in [0, 1, 3, 4, 6, 7] {
            b.add_x(CellId::new(4, 1), p).unwrap();
        }
        b.add_x(CellId::new(4, 2), 5).unwrap();
        b.finish()
    }

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
        let (cost, masks) = hybrid_cost_with_masks(&xmap, &parts, XCancelConfig::new(10, 2), 1);
        assert_eq!(masks.len(), 3);
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

    #[test]
    fn masks_are_identical_at_every_width() {
        let cancel = XCancelConfig::new(10, 2);
        let fig4 = fig4_xmap();
        let fig4_parts = vec![
            PatternSet::from_patterns(8, [1, 2, 6, 7]),
            PatternSet::from_patterns(8, [0, 3, 4]),
            PatternSet::from_patterns(8, [5]),
        ];
        // Large enough that partitions × X cells × row words exceed two
        // workers' floor, so the 2- and 8-thread calls really fan out.
        let seeded = xhc_workload::WorkloadSpec {
            total_cells: 4000,
            num_chains: 20,
            num_patterns: 640,
            x_density: 0.02,
            x_cell_fraction: 0.5,
            seed: 7,
            ..Default::default()
        }
        .generate();
        // Disjoint partitions, each carved from one X cell's pattern row
        // so that cell is masked, plus the rest of the patterns.
        let mut used = PatternSet::empty(640);
        let mut carved = Vec::new();
        for (_, xs) in seeded.iter() {
            let part = xs.to_set().difference(&used);
            if carved.len() < 16 && part.card() >= 8 {
                used = used.union(&part);
                carved.push(part);
            }
        }
        carved.push(PatternSet::all(640).difference(&used));
        assert!(carved.len() * seeded.num_x_cells() * 10 > 2 * xhc_par::MIN_WORKER_WORDS);
        for (xmap, parts) in [(&fig4, fig4_parts), (&seeded, carved)] {
            let serial = hybrid_cost_with_masks(xmap, &parts, cancel, 1);
            assert!(serial.0.masked_x > 0);
            assert_eq!(serial.0, hybrid_cost(xmap, &parts, cancel));
            for threads in [2, 8] {
                let got = hybrid_cost_with_masks(xmap, &parts, cancel, threads);
                assert_eq!(got, serial, "threads={threads}");
            }
        }
    }
}
