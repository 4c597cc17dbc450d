//! Shared report formatting and flag parsing for the
//! experiment-regeneration binaries and timing benches.
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
    fn formatting() {
        assert_eq!(fmt_mbits(1_515_150_000.0), "1515.15M");
        assert_eq!(row(&["a".into(), "b".into()]), "a | b");
    }
}
