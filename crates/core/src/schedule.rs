//! Cycle-accurate test-application scheduling.
//!
//! The paper reports *normalized* test time via the closed-form model of
//! \[11\] (`1 + n·x·q/(m−q)`). This module complements it with an explicit
//! cycle schedule: shift cycles, capture cycles, per-partition mask-word
//! reloads and per-halt X-free extraction cycles — and shows the closed
//! form drops out of the schedule under the paper's assumptions.

use crate::partition::PartitionOutcome;
use xhc_misr::XCancelConfig;
use xhc_scan::{AteConfig, ScanConfig};

/// A cycle-level account of applying a pattern set through the hybrid
/// architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct TestSchedule {
    /// Scan shift cycles: `P·L` plus the final unload.
    pub shift_cycles: usize,
    /// Capture cycles (one per pattern).
    pub capture_cycles: usize,
    /// Cycles spent reloading partition mask words. Zero when reloads
    /// overlap shifting (the ATE streams the next mask word over control
    /// channels while scan data shifts — the same channel use that
    /// conventional per-pattern X-masking relies on).
    pub mask_reload_cycles: usize,
    /// Scan-halt cycles for X-free extraction: `q` selective-XOR cycles
    /// per halt (\[11\]'s time-multiplexed model).
    pub extraction_cycles: usize,
    /// Cycles streaming selective-XOR select bits while halted (zero when
    /// overlapped with the preceding shift).
    pub select_transfer_cycles: usize,
    /// Number of scan halts.
    pub halts: usize,
    /// Number of mask-word loads (= partition switches + 1).
    pub mask_loads: usize,
}

impl TestSchedule {
    /// Total cycles.
    pub fn total_cycles(&self) -> usize {
        self.shift_cycles
            + self.capture_cycles
            + self.mask_reload_cycles
            + self.extraction_cycles
            + self.select_transfer_cycles
    }

    /// Test time normalized to pure shifting+capture (the paper's
    /// X-masking baseline = 1.0).
    pub fn normalized(&self) -> f64 {
        let baseline = (self.shift_cycles + self.capture_cycles) as f64;
        self.total_cycles() as f64 / baseline
    }
}

/// Scheduling assumptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleOptions {
    /// Stream each partition's mask word during the previous pattern's
    /// shift (true = no dedicated reload cycles, the paper's assumption).
    pub overlap_mask_reload: bool,
    /// Stream the `m·q` select bits of each halt during the preceding
    /// shift (true = only the `q` XOR cycles cost time, matching \[11\]).
    pub overlap_select_transfer: bool,
}

impl Default for ScheduleOptions {
    /// The paper's assumptions: control data overlaps shifting; only the
    /// selective-XOR cycles halt the scan clock.
    fn default() -> Self {
        ScheduleOptions {
            overlap_mask_reload: true,
            overlap_select_transfer: true,
        }
    }
}

/// Builds the schedule for applying every pattern partition-by-partition
/// (each mask word loads once) with the residual X's handled by a
/// time-multiplexed X-canceling MISR.
///
/// # Examples
///
/// ```
/// use xhc_core::{schedule_hybrid, PartitionEngine, ScheduleOptions};
/// use xhc_misr::XCancelConfig;
/// use xhc_scan::{AteConfig, CellId, ScanConfig, XMapBuilder};
///
/// let cfg = ScanConfig::uniform(5, 3);
/// let mut b = XMapBuilder::new(cfg, 8);
/// for p in 0..4 { b.add_x(CellId::new(0, 0), p).unwrap(); }
/// let xmap = b.finish();
/// let cancel = XCancelConfig::new(10, 2);
/// let outcome = PartitionEngine::new(cancel).run(&xmap);
///
/// let schedule = schedule_hybrid(
///     xmap.config(), xmap.num_patterns(), &outcome, cancel,
///     AteConfig::new(32), ScheduleOptions::default(),
/// );
/// assert!(schedule.normalized() >= 1.0);
/// ```
pub fn schedule_hybrid(
    scan: &ScanConfig,
    num_patterns: usize,
    outcome: &PartitionOutcome,
    cancel: XCancelConfig,
    ate: AteConfig,
    options: ScheduleOptions,
) -> TestSchedule {
    let l = scan.max_chain_len();
    let shift_cycles = num_patterns * l + l; // pipelined load/unload + final
    let capture_cycles = num_patterns;

    let mask_loads = outcome.partitions.len();
    let mask_reload_cycles = if options.overlap_mask_reload {
        0
    } else {
        mask_loads * ate.transfer_cycles(scan.mask_word_bits())
    };

    let budget = cancel.m() - cancel.q();
    let halts = outcome.leaked_x().div_ceil(budget.max(1));
    let extraction_cycles = halts * cancel.q();
    let select_transfer_cycles = if options.overlap_select_transfer {
        0
    } else {
        halts * ate.transfer_cycles(cancel.m() * cancel.q())
    };

    TestSchedule {
        shift_cycles,
        capture_cycles,
        mask_reload_cycles,
        extraction_cycles,
        select_transfer_cycles,
        halts,
        mask_loads,
    }
}

/// The pattern application order implied by an outcome: partitions are
/// applied contiguously (so each mask word loads exactly once), patterns
/// in ascending order inside each partition.
pub fn pattern_order(outcome: &PartitionOutcome) -> Vec<usize> {
    let mut order = Vec::new();
    for part in &outcome.partitions {
        order.extend(part.iter());
    }
    order
}

/// How many mask-word loads an arbitrary application order needs: one per
/// contiguous run of same-partition patterns.
///
/// # Panics
///
/// Panics if a pattern belongs to no partition.
pub fn mask_switches(order: &[usize], outcome: &PartitionOutcome) -> usize {
    let part_of = |p: usize| {
        outcome
            .partitions
            .iter()
            .position(|s| s.contains(p))
            .unwrap_or_else(|| panic!("pattern {p} belongs to no partition"))
    };
    let mut switches = 0;
    let mut last = None;
    for &p in order {
        let part = part_of(p);
        if last != Some(part) {
            switches += 1;
            last = Some(part);
        }
    }
    switches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionEngine;
    use xhc_scan::samples::fig4_xmap;

    fn fig4_outcome() -> (xhc_scan::XMap, PartitionOutcome, XCancelConfig) {
        let xmap = fig4_xmap();
        let cancel = XCancelConfig::new(10, 2);
        let outcome = PartitionEngine::new(cancel).run(&xmap);
        (xmap, outcome, cancel)
    }

    #[test]
    fn schedule_breakdown_fig4() {
        let (xmap, outcome, cancel) = fig4_outcome();
        let s = schedule_hybrid(
            xmap.config(),
            8,
            &outcome,
            cancel,
            AteConfig::new(32),
            ScheduleOptions::default(),
        );
        assert_eq!(s.shift_cycles, 8 * 3 + 3);
        assert_eq!(s.capture_cycles, 8);
        assert_eq!(s.mask_loads, 3);
        // 5 leaked X's, budget m-q = 8 -> 1 halt, q = 2 XOR cycles.
        assert_eq!(s.halts, 1);
        assert_eq!(s.extraction_cycles, 2);
        assert_eq!(s.mask_reload_cycles, 0);
        assert!(s.normalized() > 1.0);
    }

    #[test]
    fn non_overlapped_costs_more() {
        let (xmap, outcome, cancel) = fig4_outcome();
        let fast = schedule_hybrid(
            xmap.config(),
            8,
            &outcome,
            cancel,
            AteConfig::new(32),
            ScheduleOptions::default(),
        );
        let slow = schedule_hybrid(
            xmap.config(),
            8,
            &outcome,
            cancel,
            AteConfig::new(32),
            ScheduleOptions {
                overlap_mask_reload: false,
                overlap_select_transfer: false,
            },
        );
        assert!(slow.total_cycles() > fast.total_cycles());
        assert!(slow.mask_reload_cycles > 0);
        assert!(slow.select_transfer_cycles > 0);
    }

    #[test]
    fn schedule_matches_closed_form_at_scale() {
        // With q cycles per halt and halts = X/(m-q), the normalized time
        // approaches 1 + n·x·q/(m−q) for L >> 1 (the [11] formula the
        // paper uses in §5).
        let scan = ScanConfig::balanced(36_075, 75);
        let cancel = XCancelConfig::paper_default();
        let patterns = 3000;
        let leaked = 1_340_000usize; // ~1.24% residual density
                                     // Build a fake outcome via direct fields: use the engine on an
                                     // empty map, then override leak accounting through a crafted map
                                     // is cumbersome; instead compute the schedule arithmetic directly.
        let l = scan.max_chain_len();
        let shift = patterns * l + l;
        let halts = leaked.div_ceil(cancel.m() - cancel.q());
        let extraction = halts * cancel.q();
        let normalized = (shift + patterns + extraction) as f64 / (shift + patterns) as f64;
        let x_density = leaked as f64 / (scan.total_cells() * patterns) as f64;
        let closed_form = cancel.normalized_test_time(scan.num_chains(), x_density);
        assert!(
            (normalized - closed_form).abs() < 0.01,
            "schedule {normalized} vs closed form {closed_form}"
        );
    }

    #[test]
    fn pattern_order_and_switches() {
        let (_, outcome, _) = fig4_outcome();
        let order = pattern_order(&outcome);
        assert_eq!(order.len(), 8);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        // Partition-contiguous order: loads == #partitions.
        assert_eq!(mask_switches(&order, &outcome), 3);
        // Ascending pattern order interleaves partitions: more switches.
        let naive: Vec<usize> = (0..8).collect();
        assert!(mask_switches(&naive, &outcome) > 3);
    }
}
