//! Shared fixtures and report formatting for the experiment-regeneration
//! binaries and timing benches.
//!
//! One binary per table/figure of the paper (see `DESIGN.md`'s experiment
//! index):
//!
//! | paper artifact | binary |
//! |---|---|
//! | Table 1 (control bits + test time, CKT-A/B/C) | `table1` |
//! | Table 1 seed-robustness sweep | `table1_sweep` |
//! | Figs. 2–3 (symbolic MISR + Gaussian elimination) | `fig2_symbolic` |
//! | Figs. 4–6 (partitioning worked example) | `fig4_6_worked_example` |
//! | §3 inter-correlation analysis | `sec3_correlation` |
//! | §3 intra- vs. inter-correlation regimes | `intra_vs_inter` |
//! | §4/§5 coverage-preservation claim | `coverage_preservation` |
//! | partitioning depth U-curve | `ablation_partition_depth` |
//! | pivot-cell selection policies | `ablation_cell_selection` |
//! | MISR (m, q) sensitivity | `ablation_misr_config` |
//! | split-strategy extension (LargestClass vs BestCost) | `ablation_split_strategy` |
//! | baseline landscape incl. superset \[17,18\] and toggle \[15,16\] | `ablation_baselines` |
//! | MISR aliasing / signature hardening | `aliasing_study` |
//!
//! Run any of them with `cargo run --release -p xhc-bench --bin <name>`.
//!
//! Micro-benchmarks (`benches/`) run on the self-contained [`timing`]
//! harness: `cargo bench -p xhc-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;

use xhc_scan::{CellId, ScanConfig, XMap, XMapBuilder};

/// The paper's Fig. 4 X map (8 patterns, 5 chains × 3 cells, 28 X's).
pub fn fig4_xmap() -> XMap {
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

/// Formats a bit volume the way the paper's Table 1 does (millions).
pub fn fmt_mbits(bits: f64) -> String {
    format!("{:.2}M", bits / 1e6)
}

/// Prints a Markdown-ish table row.
pub fn row(cells: &[String]) -> String {
    cells.join(" | ")
}

/// Parses `--scale N` style flags from argv, with a default.
pub fn arg_flag(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether a bare flag like `--full` is present.
pub fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape() {
        let m = fig4_xmap();
        assert_eq!(m.total_x(), 28);
        assert_eq!(m.num_x_cells(), 7);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_mbits(1_515_150_000.0), "1515.15M");
        assert_eq!(row(&["a".into(), "b".into()]), "a | b");
    }
}
