//! A Table-1-style evaluation row on a synthetic industrial X profile.
//!
//! Uses a scaled-down CKT-B-shaped workload by default so the example runs
//! in seconds even unoptimized; pass `--full` to evaluate the actual
//! CKT-A/B/C profiles (recommended with `--release`; the dedicated bench
//! binary `table1` in `crates/bench` prints the whole table).
//!
//! Run with: `cargo run --release --example industrial_profile [-- --full]`

#![deny(deprecated)]

use xhybrid::core::{inter_correlation_stats, BackendId, PlanOptions};
use xhybrid::misr::XCancelConfig;
use xhybrid::workload::WorkloadSpec;

fn evaluate(spec: &WorkloadSpec) {
    println!("== {} ==", spec.name);
    let xmap = spec.generate();
    let stats = inter_correlation_stats(&xmap);
    println!(
        "{} cells / {} chains / {} patterns; {} X's ({:.3}% density), {} X-capturing cells",
        spec.total_cells,
        spec.num_chains,
        spec.num_patterns,
        stats.total_x,
        100.0 * xmap.x_density(),
        stats.x_cells
    );
    println!(
        "inter-correlation: largest identical-pattern-set group = {} cells; \
         90% of X's in {:.1}% of cells",
        stats.largest_identical_group,
        100.0 * stats.cells_for_90pct
    );

    let cancel = XCancelConfig::paper_default();
    let [masking, canceling, hybrid] = [
        BackendId::MaskingOnly,
        BackendId::CancelingOnly,
        BackendId::Hybrid,
    ]
    .map(|id| id.plan(&xmap, cancel, &PlanOptions::default()));
    println!(
        "control bits: masking-only {:.2}M | canceling-only {:.2}M | proposed {:.2}M",
        masking.control_bits / 1e6,
        canceling.control_bits / 1e6,
        hybrid.control_bits / 1e6
    );
    let outcome = hybrid
        .outcome
        .as_ref()
        .expect("the hybrid carries its plan");
    println!(
        "improvement: {:.2}x over masking-only, {:.2}x over canceling-only \
         ({} partitions, {:.1}% of X's masked)",
        masking.control_bits / hybrid.control_bits,
        canceling.control_bits / hybrid.control_bits,
        outcome.partitions.len(),
        100.0 * hybrid.masked_x as f64 / xmap.total_x().max(1) as f64
    );
    let time_canceling_only = canceling.normalized_test_time(&xmap, cancel);
    let time_proposed = hybrid.normalized_test_time(&xmap, cancel);
    println!(
        "normalized test time: {:.3} -> {:.3} ({:.2}x)\n",
        time_canceling_only,
        time_proposed,
        time_canceling_only / time_proposed
    );
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    if full {
        for spec in [
            WorkloadSpec::ckt_a(),
            WorkloadSpec::ckt_b(),
            WorkloadSpec::ckt_c(),
        ] {
            evaluate(&spec);
        }
    } else {
        // A 1/15-scale CKT-B: same density and correlation structure.
        let spec = WorkloadSpec {
            name: "CKT-B (1/15 scale)",
            total_cells: 2405,
            num_chains: 5,
            num_patterns: 600,
            ..WorkloadSpec::ckt_b()
        };
        evaluate(&spec);
        println!("(pass --full for the real CKT-A/B/C profiles)");
    }
}
