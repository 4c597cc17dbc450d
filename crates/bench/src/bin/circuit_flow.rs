//! **End-to-end circuit flow**: the whole stack on circuit-derived data —
//! generated netlists with real X sources, PODEM ATPG, captured
//! responses, hybrid partitioning, and the Table-1 quantities recomputed
//! from responses a simulator actually produced (not synthetic profiles).
//!
//! Run with: `cargo run --release -p xhc-bench --bin circuit_flow`

use xhc_atpg::{generate_tests, AtpgConfig};
use xhc_core::{BackendId, PlanOptions};
use xhc_logic::generate::CircuitSpec;
use xhc_misr::XCancelConfig;
use xhc_scan::{ScanConfig, ScanHarness};

fn main() {
    let cancel = XCancelConfig::new(16, 4);
    println!(
        "{:<6} {:>6} {:>6} {:>8} {:>8} {:>8} | {:>9} {:>9} {:>7} {:>9}",
        "seed",
        "gates",
        "depth",
        "faults",
        "cov%",
        "X-dens%",
        "impv[5]",
        "impv[12]",
        "parts",
        "masked%"
    );
    let seeds = [2u64, 5, 11, 17, 23];
    let mut beats_masking = 0;
    let mut beats_canceling = 0;
    let mut canceling_wins = Vec::new();
    for seed in seeds {
        let circuit = CircuitSpec {
            num_inputs: 10,
            num_gates: 200,
            num_scan_flops: 32,
            num_shadow_flops: 3,
            num_buses: 2,
            seed,
            ..CircuitSpec::default()
        }
        .generate();
        let harness = ScanHarness::new(
            &circuit.netlist,
            ScanConfig::uniform(4, 8),
            circuit.scan_flops.clone(),
        )
        .expect("valid scan mapping");
        let faults = xhc_fault::all_output_faults(&circuit.netlist);
        let atpg = generate_tests(&harness, &faults, AtpgConfig::default());
        let responses = harness.run(&atpg.patterns);
        let xmap = responses.to_xmap();
        let [masking, canceling, hybrid] = [
            BackendId::MaskingOnly,
            BackendId::CancelingOnly,
            BackendId::Hybrid,
        ]
        .map(|id| id.plan(&xmap, cancel, &PlanOptions::default()));
        let outcome = hybrid.outcome.expect("the hybrid carries its plan");
        let masked_pct = 100.0 * hybrid.masked_x as f64 / xmap.total_x().max(1) as f64;
        beats_masking += usize::from(masking.control_bits > hybrid.control_bits);
        if canceling.control_bits > hybrid.control_bits {
            beats_canceling += 1;
        } else {
            canceling_wins.push(format!(
                "seed {seed} (parts {}, masked {masked_pct:.1}%)",
                outcome.partitions.len()
            ));
        }
        println!(
            "{:<6} {:>6} {:>6} {:>8} {:>7.1}% {:>7.2}% | {:>8.2}x {:>8.2}x {:>7} {:>8.1}%",
            seed,
            circuit.netlist.num_nodes(),
            circuit.netlist.logic_depth(),
            faults.len(),
            100.0 * atpg.testable_coverage(),
            100.0 * xmap.x_density(),
            masking.control_bits / hybrid.control_bits,
            canceling.control_bits / hybrid.control_bits,
            outcome.partitions.len(),
            masked_pct,
        );
    }
    let n = seeds.len();
    println!(
        "\non honestly-simulated responses the hybrid beats masking-only on {beats_masking} of {n}"
    );
    println!("circuits and canceling-only on {beats_canceling} of {n}.");
    if !canceling_wins.is_empty() {
        println!(
            "canceling-only is cheaper on {}: no split",
            canceling_wins.join(", ")
        );
        println!("there pays for its mask bits.");
    }
    println!("circuit X's (uninitialized registers firing identically across patterns) are");
    println!("inter-correlated by construction of the hardware, which is the paper's premise.");
}
