//! Scan-topology and X-map rules (XL02xx).
//!
//! XL0201 (chain imbalance) reads only the scan shape, so it runs on a
//! built [`XMap`] through [`check_xmap`]. XL0202 (out-of-range X) and
//! XL0203 (duplicate X) are [`XMap`] constructor invariants: the wire
//! decoder, the text reader and `XMap::from_entries` reject or coalesce
//! such entries before a map exists. Those two rules therefore run on
//! [`XMapFacts`] — a raw entry list as an importer or hand-written
//! fixture would produce it — through [`check_xmap_facts`].

use crate::diag::{LintCode, LintConfig, LintReport};
use xhc_scan::{ScanConfig, XMap};

/// Mask-word waste (`L·C` vs. cells) beyond which XL0201 fires.
const IMBALANCE_WASTE_LIMIT: f64 = 0.10;

/// A raw X-map view: scan shape plus `(linear cell, patterns)` entries in
/// whatever order (and with whatever redundancy) the source had.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XMapFacts {
    /// Scan cells in the design.
    pub total_cells: usize,
    /// Patterns in the test set.
    pub num_patterns: usize,
    /// `(linear cell index, pattern indices)` entries.
    pub entries: Vec<(usize, Vec<usize>)>,
}

/// XL0201: chain-length imbalance. The hybrid's mask word costs
/// `L·C` bits per partition (`L` = longest chain); ragged chains pay for
/// bits that address no cell.
pub fn check_scan_config(config: &LintConfig, scan: &ScanConfig) -> LintReport {
    let mut report = LintReport::new();
    let word = scan.mask_word_bits();
    let cells = scan.total_cells();
    if word > 0 && cells > 0 {
        let waste = 1.0 - cells as f64 / word as f64;
        if waste > IMBALANCE_WASTE_LIMIT {
            report.push(
                config,
                LintCode::ChainImbalance,
                format!(
                    "scan config ({} chains, longest {})",
                    scan.num_chains(),
                    scan.max_chain_len()
                ),
                format!(
                    "mask word spends {word} bits on {cells} cells ({:.0}% waste)",
                    waste * 100.0
                ),
                "rebalance chain lengths (ScanConfig::balanced) to shrink L*C",
            );
        }
    }
    report
}

/// XL0202 + XL0203 on a raw entry list.
pub fn check_xmap_facts(config: &LintConfig, facts: &XMapFacts) -> LintReport {
    let mut report = LintReport::new();
    rule_x_out_of_range(config, facts, &mut report);
    rule_duplicate_x(config, facts, &mut report);
    report
}

/// Runs the X-map rules a built map can still fail: XL0201 on its scan
/// config, in O(chains). XL0202/XL0203 are not re-checked here — every
/// [`XMap`] constructor already enforces them (see the module doc).
pub fn check_xmap(config: &LintConfig, xmap: &XMap) -> LintReport {
    check_scan_config(config, xmap.config())
}

/// XL0202: X positions out of the scan/pattern range.
fn rule_x_out_of_range(config: &LintConfig, facts: &XMapFacts, report: &mut LintReport) {
    for (cell, patterns) in &facts.entries {
        if *cell >= facts.total_cells {
            report.push(
                config,
                LintCode::XOutOfRange,
                format!("x-map cell {cell}"),
                format!(
                    "cell index {cell} exceeds the scan range (total cells {})",
                    facts.total_cells
                ),
                "the entry addresses no physical cell; fix the extraction",
            );
        }
        for &p in patterns {
            if p >= facts.num_patterns {
                report.push(
                    config,
                    LintCode::XOutOfRange,
                    format!("x-map cell {cell}, pattern {p}"),
                    format!(
                        "pattern index {p} exceeds the pattern count {}",
                        facts.num_patterns
                    ),
                    "the entry addresses no applied pattern; fix the extraction",
                );
            }
        }
    }
}

/// XL0203: duplicate entries — the same cell listed twice, or the same
/// pattern repeated within a cell's list.
fn rule_duplicate_x(config: &LintConfig, facts: &XMapFacts, report: &mut LintReport) {
    let mut seen_cells = std::collections::BTreeMap::new();
    for (i, (cell, patterns)) in facts.entries.iter().enumerate() {
        if let Some(first) = seen_cells.insert(*cell, i) {
            report.push(
                config,
                LintCode::DuplicateX,
                format!("x-map cell {cell}"),
                format!("cell appears in entries {first} and {i}"),
                "merge the pattern lists into one entry per cell",
            );
        }
        let mut seen_patterns = std::collections::BTreeSet::new();
        for &p in patterns {
            if !seen_patterns.insert(p) {
                report.push(
                    config,
                    LintCode::DuplicateX,
                    format!("x-map cell {cell}, pattern {p}"),
                    "pattern listed more than once for this cell",
                    "deduplicate the pattern list",
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xhc_scan::{CellId, XMapBuilder};

    fn codes(report: &LintReport) -> Vec<LintCode> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn balanced_config_passes() {
        let report = check_scan_config(&LintConfig::default(), &ScanConfig::balanced(1000, 7));
        assert!(report.is_empty(), "{}", report.render_human());
    }

    #[test]
    fn ragged_chains_fire_imbalance() {
        // 3 chains of 100/10/10: word = 300 bits for 120 cells.
        let scan = ScanConfig::new(vec![100, 10, 10]);
        let report = check_scan_config(&LintConfig::default(), &scan);
        assert_eq!(codes(&report), vec![LintCode::ChainImbalance]);
        assert!(!report.has_deny());
    }

    #[test]
    fn valid_xmap_passes() {
        let mut b = XMapBuilder::new(ScanConfig::uniform(3, 4), 10);
        b.add_x(CellId::new(0, 0), 3).unwrap();
        b.add_x(CellId::new(2, 1), 9).unwrap();
        let report = check_xmap(&LintConfig::default(), &b.finish());
        assert!(report.is_empty(), "{}", report.render_human());
    }

    #[test]
    fn out_of_range_cell_and_pattern_fire() {
        let facts = XMapFacts {
            total_cells: 12,
            num_patterns: 10,
            entries: vec![(12, vec![0]), (3, vec![10, 4])],
        };
        let report = check_xmap_facts(&LintConfig::default(), &facts);
        assert_eq!(
            codes(&report),
            vec![LintCode::XOutOfRange, LintCode::XOutOfRange]
        );
        assert!(report.has_deny());
    }

    #[test]
    fn duplicates_fire() {
        let facts = XMapFacts {
            total_cells: 12,
            num_patterns: 10,
            entries: vec![(3, vec![1, 1]), (5, vec![0]), (3, vec![2])],
        };
        let report = check_xmap_facts(&LintConfig::default(), &facts);
        assert_eq!(
            codes(&report),
            vec![LintCode::DuplicateX, LintCode::DuplicateX]
        );
        assert!(!report.has_deny());
    }
}
