//! **Ablation: MISR (m, q) configuration.** Fig. 6 shows the stop point
//! depends on the MISR configuration ((10,2) continues where (10,1)
//! stops); this sweep reproduces that sensitivity on both the worked
//! example and a scaled industrial profile.
//!
//! Run with: `cargo run --release -p xhc-bench --bin ablation_misr_config`

use xhc_core::PartitionEngine;
use xhc_misr::XCancelConfig;
use xhc_scan::samples::fig4_xmap;
use xhc_scan::XMap;
use xhc_workload::WorkloadSpec;

fn sweep(label: &str, xmap: &XMap, configs: &[(usize, usize)]) {
    println!("== {label} ==");
    println!(
        "{:>8} {:>11} {:>7} {:>13} {:>13} {:>12} {:>10}",
        "(m,q)", "partitions", "rounds", "mask bits", "cancel bits", "total bits", "leaked-X"
    );
    for &(m, q) in configs {
        let outcome = PartitionEngine::new(XCancelConfig::new(m, q)).run(xmap);
        println!(
            "({:>3},{:>2}) {:>11} {:>7} {:>13} {:>13.1} {:>12.1} {:>10}",
            m,
            q,
            outcome.partitions.len(),
            outcome.rounds.len(),
            outcome.cost.masking_bits,
            outcome.cost.canceling_bits,
            outcome.cost.total(),
            outcome.leaked_x(),
        );
    }
}

fn main() {
    sweep(
        "Fig. 4 worked example (paper: (10,2) -> 3 partitions/58 bits, (10,1) -> 2/44)",
        &fig4_xmap(),
        &[(10, 1), (10, 2), (10, 4), (32, 7)],
    );

    let spec = WorkloadSpec {
        name: "CKT-B (1/15 scale)",
        total_cells: 2405,
        num_chains: 5,
        num_patterns: 600,
        ..WorkloadSpec::ckt_b()
    };
    let xmap = spec.generate();
    sweep(
        "CKT-B (1/15 scale)",
        &xmap,
        &[(16, 3), (32, 3), (32, 7), (32, 15), (64, 7)],
    );
    println!("\nhigher q = cheaper canceling per X but more bits per halt: the stop point moves.");
}
