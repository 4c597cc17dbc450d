//! Time-multiplexed X-canceling over a pattern stream (the paper's \[11\]
//! halting model).
//!
//! The time-multiplexed X-canceling MISR compacts patterns continuously and
//! halts scan shifting whenever the accumulated X count reaches `m − q`; at
//! each halt `q` X-free combinations (of `m` select bits each) are
//! extracted and the MISR is reseeded. Test time therefore grows with the
//! number of halts, which is what the hybrid architecture attacks.

use crate::canceling::XCancelConfig;
use crate::misr::Taps;
use crate::symbolic::{known_part_values, x_dependency_matrix, SymbolicMisr};
use xhc_bits::{gauss, BitMatrix, BitVec};
use xhc_scan::{CellId, ResponseMatrix, ScanConfig};

/// One block of patterns compacted between two halts.
#[derive(Debug, Clone)]
pub struct BlockOutcome {
    /// Half-open pattern range `[start, end)` of the block.
    pub patterns: (usize, usize),
    /// X's accumulated in the block.
    pub num_x: usize,
    /// X-free combinations extracted at the halt (at most `q`).
    pub combinations: Vec<BitVec>,
    /// Observed value of each extracted combination.
    pub canceled_values: BitVec,
    /// Select bits consumed: `m` per combination.
    pub control_bits: usize,
    /// The block's X-dependency matrix (`m` rows, `num_x` columns) — the
    /// input of the Gauss pass, retained as certificate evidence.
    pub dependency: BitMatrix,
    /// GF(2) rank of [`BlockOutcome::dependency`].
    pub rank: usize,
    /// The pivot column of each rank step, strictly ascending — together
    /// with `rank` this forms the rank certificate an independent checker
    /// (`xhc-verify`) re-derives from `dependency` alone.
    pub pivot_cols: Vec<usize>,
}

/// The result of a whole [`CancelSession`] run.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Per-block outcomes, in pattern order.
    pub blocks: Vec<BlockOutcome>,
    /// Total select-control bits.
    pub total_control_bits: usize,
    /// Number of scan-shift halts (= number of blocks).
    pub halts: usize,
    /// Total X's seen.
    pub total_x: usize,
}

/// A time-multiplexed X-canceling session bound to a scan topology and an
/// (m, q) configuration.
///
/// # Examples
///
/// ```
/// use xhc_logic::Trit;
/// use xhc_misr::{CancelSession, Taps, XCancelConfig};
/// use xhc_scan::{ResponseMatrix, ScanConfig};
///
/// let scan = ScanConfig::uniform(2, 3);
/// let session = CancelSession::new(scan.clone(), XCancelConfig::new(6, 2), Taps::default_for(6));
/// let responses = ResponseMatrix::filled(scan, 4, Trit::Zero);
/// let report = session.run(&responses);
/// assert_eq!(report.total_x, 0);
/// assert_eq!(report.halts, 1); // one final flush
/// ```
#[derive(Debug, Clone)]
pub struct CancelSession {
    scan: ScanConfig,
    config: XCancelConfig,
    taps: Taps,
}

impl CancelSession {
    /// Creates a session.
    pub fn new(scan: ScanConfig, config: XCancelConfig, taps: Taps) -> Self {
        CancelSession { scan, config, taps }
    }

    /// The (m, q) configuration.
    pub fn config(&self) -> XCancelConfig {
        self.config
    }

    /// Runs the session over captured responses, emulating the halting
    /// schedule: a block closes when admitting the next pattern would push
    /// the accumulated X count past `m − q` (a pattern with more X's than
    /// the budget forms its own block).
    ///
    /// # Panics
    ///
    /// Panics if `responses` uses a different scan topology.
    pub fn run(&self, responses: &ResponseMatrix) -> SessionReport {
        assert_eq!(
            responses.config(),
            &self.scan,
            "response matrix uses a different scan topology"
        );
        let m = self.config.m();
        let q = self.config.q();
        let budget = m - q;
        let cells = self.scan.total_cells();
        let num_patterns = responses.num_patterns();
        let universe = cells * num_patterns;

        let mut blocks = Vec::new();
        let mut sym = SymbolicMisr::new(m, self.taps.clone(), universe);
        let mut block_start = 0usize;
        let mut block_x: Vec<usize> = Vec::new(); // absolute symbol ids
        let mut total_x = 0usize;

        let close_block = |sym: &SymbolicMisr,
                           block_x: &[usize],
                           range: (usize, usize),
                           responses: &ResponseMatrix,
                           cells: usize|
         -> BlockOutcome {
            let mut span = xhc_trace::span("cancel.block")
                .arg("patterns", (range.1 - range.0) as u64)
                .arg("block_x", block_x.len() as u64);
            let dep = x_dependency_matrix(sym.rows(), block_x);
            // The full elimination also yields the rank certificate
            // (pivot columns) the verify layer embeds in plan
            // certificates; only q combinations are ever streamed per
            // halt, so the basis rows past q stay unmaterialised.
            let elim = gauss::eliminate(&dep);
            let combos: Vec<BitVec> = elim
                .zero_rows()
                .into_iter()
                .take(q)
                .map(|r| elim.combinations.row(r).clone())
                .collect();
            let known = known_part_values(sym.rows(), |s| {
                responses.get_linear(s / cells, s % cells).to_bool()
            });
            let mut canceled_values = BitVec::zeros(combos.len());
            for (ci, combo) in combos.iter().enumerate() {
                let mut acc = false;
                for bit in combo.iter_ones() {
                    acc ^= known.get(bit);
                }
                canceled_values.set(ci, acc);
            }
            let control_bits = m * combos.len();
            span.set_arg("combinations", combos.len() as u64);
            BlockOutcome {
                patterns: range,
                num_x: block_x.len(),
                combinations: combos,
                canceled_values,
                control_bits,
                dependency: dep,
                rank: elim.rank,
                pivot_cols: elim.pivot_cols,
            }
        };

        for p in 0..num_patterns {
            let pattern_x: Vec<usize> = (0..cells)
                .filter(|&c| responses.get_linear(p, c).is_x())
                .map(|c| p * cells + c)
                .collect();
            total_x += pattern_x.len();

            sym.unload_pattern(&self.scan, |cell: CellId| {
                p * cells + self.scan.linear_index(cell)
            });
            block_x.extend(pattern_x);

            // The hardware halts as soon as the accumulated X count
            // reaches m - q (it cannot foresee the next pattern).
            if block_x.len() >= budget {
                blocks.push(close_block(
                    &sym,
                    &block_x,
                    (block_start, p + 1),
                    responses,
                    cells,
                ));
                sym = SymbolicMisr::new(m, self.taps.clone(), universe);
                block_start = p + 1;
                block_x.clear();
            }
        }
        // Final flush of any un-halted tail.
        if block_start < num_patterns {
            blocks.push(close_block(
                &sym,
                &block_x,
                (block_start, num_patterns),
                responses,
                cells,
            ));
        }

        let total_control_bits = blocks.iter().map(|b| b.control_bits).sum();
        let halts = blocks.len();
        xhc_trace::counter_add("cancel.halts", halts as u64);
        xhc_trace::counter_add("cancel.x_total", total_x as u64);

        // Debug self-checks of the session's own accounting: block X
        // counts and control bits must add up to the session totals.
        #[cfg(debug_assertions)]
        {
            // Every block's X count and control bits must balance: the
            // session-level totals are pure sums of the block outcomes.
            debug_assert_eq!(
                blocks.iter().map(|b| b.num_x).sum::<usize>(),
                total_x,
                "block X counts must sum to the session total"
            );
            for block in &blocks {
                debug_assert_eq!(
                    block.control_bits,
                    m * block.combinations.len(),
                    "control bits must be m per selected combination"
                );
                debug_assert!(
                    block.combinations.len() <= q,
                    "a block never streams more than q combinations"
                );
                debug_assert_eq!(
                    block.combinations.len(),
                    (m - block.rank).min(q),
                    "combinations are the q-capped null space of the block"
                );
                debug_assert_eq!(
                    block.pivot_cols.len(),
                    block.rank,
                    "one pivot column per unit of rank"
                );
            }
        }

        SessionReport {
            blocks,
            total_control_bits,
            halts,
            total_x,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xhc_logic::Trit;

    fn responses_with_x(xs: &[(usize, usize)]) -> (ScanConfig, ResponseMatrix) {
        let scan = ScanConfig::uniform(2, 3);
        let mut resp = ResponseMatrix::filled(scan.clone(), 6, Trit::Zero);
        for &(p, cell) in xs {
            resp.set(p, scan.cell_at(cell), Trit::X);
        }
        (scan, resp)
    }

    #[test]
    fn halts_when_budget_exceeded() {
        // m=6, q=2 -> budget 4 X's per block. Patterns carry 2 X's each:
        // block = 2 patterns, so 6 patterns -> 3 halts.
        let (scan, mut resp) = responses_with_x(&[]);
        for p in 0..6 {
            resp.set(p, scan.cell_at(0), Trit::X);
            resp.set(p, scan.cell_at(3), Trit::X);
        }
        let session = CancelSession::new(scan, XCancelConfig::new(6, 2), Taps::default_for(6));
        let report = session.run(&resp);
        assert_eq!(report.total_x, 12);
        assert_eq!(report.halts, 3);
        for b in &report.blocks {
            assert_eq!(b.num_x, 4);
            assert!(b.combinations.len() <= 2);
            assert!(
                !b.combinations.is_empty(),
                "budget respected -> q combos exist"
            );
        }
    }

    #[test]
    fn x_free_count_guaranteed_when_budget_respected() {
        // With at most m - q X's per block, at least q X-free combinations
        // always exist (nullity >= m - (m - q) = q).
        let (scan, resp) = responses_with_x(&[(0, 1), (1, 4), (3, 2)]);
        let session = CancelSession::new(scan, XCancelConfig::new(6, 2), Taps::default_for(6));
        let report = session.run(&resp);
        for b in &report.blocks {
            assert_eq!(b.combinations.len(), 2, "q combos per halt");
        }
    }

    #[test]
    fn oversized_pattern_forms_own_block() {
        // One pattern with 5 X's (> budget 4) must still be processed.
        let (scan, resp) = responses_with_x(&[(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)]);
        let session = CancelSession::new(scan, XCancelConfig::new(6, 2), Taps::default_for(6));
        let report = session.run(&resp);
        assert_eq!(report.total_x, 5);
        let oversized = report
            .blocks
            .iter()
            .find(|b| b.num_x == 5)
            .expect("oversized block exists");
        // The halt fires right after the oversized pattern (index 1); the
        // preceding X-free pattern legitimately shares the block.
        assert_eq!(oversized.patterns.1, 2);
    }

    #[test]
    fn canceled_values_invariant_under_x_assignment() {
        let (scan, resp) = responses_with_x(&[(0, 2), (2, 5)]);
        let session =
            CancelSession::new(scan.clone(), XCancelConfig::new(6, 2), Taps::default_for(6));
        let base = session.run(&resp);

        // Concretise the X's in all 4 ways; canceled values must match.
        for bits in 0..4u8 {
            let mut concrete = resp.clone();
            concrete.set(0, scan.cell_at(2), Trit::from_bool(bits & 1 == 1));
            concrete.set(2, scan.cell_at(5), Trit::from_bool(bits & 2 == 2));
            let got = session.run(&concrete);
            // Concrete runs see no X -> block boundaries differ; instead
            // re-evaluate base combinations against concrete values.
            for block in &base.blocks {
                let cells = scan.total_cells();
                let mut sym = SymbolicMisr::new(6, Taps::default_for(6), cells * 6);
                for p in block.patterns.0..block.patterns.1 {
                    sym.unload_pattern(&scan, |cell| p * cells + scan.linear_index(cell));
                }
                let known = known_part_values(sym.rows(), |s| {
                    concrete.get_linear(s / cells, s % cells).to_bool()
                });
                for (ci, combo) in block.combinations.iter().enumerate() {
                    let mut acc = false;
                    for bit in combo.iter_ones() {
                        acc ^= known.get(bit);
                    }
                    assert_eq!(acc, block.canceled_values.get(ci));
                }
            }
            let _ = got;
        }
    }

    #[test]
    fn blocks_carry_a_consistent_rank_certificate() {
        let (scan, resp) = responses_with_x(&[(0, 0), (0, 4), (1, 1), (2, 2), (3, 3), (4, 5)]);
        let session = CancelSession::new(scan, XCancelConfig::new(6, 2), Taps::default_for(6));
        let report = session.run(&resp);
        assert!(!report.blocks.is_empty());
        for b in &report.blocks {
            assert_eq!(b.dependency.num_rows(), 6);
            assert_eq!(b.dependency.num_cols(), b.num_x);
            assert_eq!(b.pivot_cols.len(), b.rank);
            assert!(b.pivot_cols.windows(2).all(|w| w[0] < w[1]));
            // Re-eliminating the retained matrix reproduces the claim.
            let elim = gauss::eliminate(&b.dependency);
            assert_eq!(elim.rank, b.rank);
            assert_eq!(elim.pivot_cols, b.pivot_cols);
            assert_eq!(b.combinations.len(), (6 - b.rank).min(2));
        }
    }

    #[test]
    fn control_bits_sum_over_blocks() {
        let (scan, resp) = responses_with_x(&[(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        let session = CancelSession::new(scan, XCancelConfig::new(6, 2), Taps::default_for(6));
        let report = session.run(&resp);
        assert_eq!(
            report.total_control_bits,
            report.blocks.iter().map(|b| b.control_bits).sum::<usize>()
        );
        assert_eq!(report.halts, report.blocks.len());
    }
}
