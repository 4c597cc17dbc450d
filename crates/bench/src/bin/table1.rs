//! Regenerates the paper's **Table 1**: control-bit data volume and
//! normalized test time for CKT-A/B/C under X-masking-only \[5\],
//! X-canceling-MISR-only \[12\] and the proposed hybrid.
//!
//! The workloads are the synthetic industrial profiles of `xhc-workload`
//! (see DESIGN.md's substitution table); absolute numbers therefore differ
//! from the paper's, but the structure — who wins, by roughly what factor —
//! is the reproduction target recorded in EXPERIMENTS.md.
//!
//! Run with: `cargo run --release -p xhc-bench --bin table1`
//! (add `--scale N` to shrink the workloads by N× for a quick look)

use xhc_bench::{fmt_mbits, has_flag};
use xhc_core::{BackendId, PlanOptions};
use xhc_misr::XCancelConfig;
use xhc_workload::WorkloadSpec;

fn scaled(spec: WorkloadSpec, scale: usize) -> WorkloadSpec {
    if scale <= 1 {
        return spec;
    }
    WorkloadSpec {
        total_cells: (spec.total_cells / scale).max(spec.num_chains.div_ceil(scale).max(4)),
        num_chains: (spec.num_chains / scale).max(4),
        num_patterns: (spec.num_patterns / scale).max(50),
        ..spec
    }
}

fn main() {
    let scale = xhc_bench::arg_flag("--scale", 1);
    let cancel = XCancelConfig::paper_default(); // m = 32, q = 7
    println!(
        "Table 1 reproduction (m=32, q=7, 32 tester channels){}",
        if scale > 1 {
            format!(" — scaled 1/{scale}")
        } else {
            String::new()
        }
    );
    println!(
        "{:<10} {:>9} | {:>12} {:>12} {:>12} | {:>9} {:>9} | {:>8} {:>8} {:>8}",
        "Circuit",
        "X-dens",
        "Mask-only",
        "Cancel-only",
        "Proposed",
        "Impv[5]",
        "Impv[12]",
        "T[12]",
        "T(prop)",
        "T-impv"
    );
    for spec in [
        WorkloadSpec::ckt_a(),
        WorkloadSpec::ckt_b(),
        WorkloadSpec::ckt_c(),
    ] {
        let spec = scaled(spec, scale);
        let xmap = spec.generate();
        let [masking, canceling, hybrid] = [
            BackendId::MaskingOnly,
            BackendId::CancelingOnly,
            BackendId::Hybrid,
        ]
        .map(|id| id.plan(&xmap, cancel, &PlanOptions::default()));
        let time_canceling_only = canceling.normalized_test_time(&xmap, cancel);
        let time_proposed = hybrid.normalized_test_time(&xmap, cancel);
        println!(
            "{:<10} {:>8.2}% | {:>12} {:>12} {:>12} | {:>8.2}x {:>8.2}x | {:>8.3} {:>8.3} {:>7.2}x",
            spec.name,
            100.0 * xmap.x_density(),
            fmt_mbits(masking.control_bits),
            fmt_mbits(canceling.control_bits),
            fmt_mbits(hybrid.control_bits),
            masking.control_bits / hybrid.control_bits,
            canceling.control_bits / hybrid.control_bits,
            time_canceling_only,
            time_proposed,
            time_canceling_only / time_proposed,
        );
        let outcome = hybrid.outcome.expect("the hybrid carries its plan");
        eprintln!(
            "  [{}] partitions={} masked={}/{} rounds={}",
            spec.name,
            outcome.partitions.len(),
            hybrid.masked_x,
            xmap.total_x(),
            outcome.rounds.len()
        );
    }
    if has_flag("--paper") {
        println!("\nPaper's Table 1 for reference:");
        println!("CKT-A (0.05%): 1515.15M | 6.54M | 5.35M | 283.21x | 1.22x | 1.14 1.09 1.05x");
        println!("CKT-B (2.75%):  108.23M | 26.57M | 12.22M |  8.86x | 2.17x | 1.58 1.26 1.26x");
        println!("CKT-C (2.38%):  292.93M | 62.22M | 41.13M |  7.12x | 1.51x | 2.35 1.88 1.25x");
    }
}
