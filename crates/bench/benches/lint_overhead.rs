//! Bench: what a full lint pass costs relative to the pipeline work it
//! checks — the analyzer must stay cheap enough to run on every
//! engine invocation in CI.

#![deny(deprecated)]

use xhc_bench::timing::{black_box, Harness};
use xhc_core::PartitionEngine;
use xhc_lint::{check_netlist, check_outcome, check_xmap, LintConfig};
use xhc_logic::generate::CircuitSpec;
use xhc_misr::XCancelConfig;
use xhc_workload::WorkloadSpec;

fn main() {
    let mut h = Harness::from_args("lint_overhead");
    let lc = LintConfig::default();

    // Netlist rules: one backward reachability pass dominates.
    for gates in [200usize, 2_000, 20_000] {
        let circuit = CircuitSpec {
            num_inputs: 16,
            num_outputs: 8,
            num_gates: gates,
            num_scan_flops: 32,
            num_shadow_flops: 4,
            num_buses: 4,
            max_fanin: 4,
            seed: 7,
        }
        .generate();
        h.bench(&format!("netlist/{gates}_gates"), || {
            black_box(check_netlist(&lc, black_box(&circuit.netlist)))
        });
    }

    // X-map rules over growing workloads.
    for cells in [1_000usize, 8_000] {
        let spec = WorkloadSpec {
            total_cells: cells,
            num_chains: 8,
            num_patterns: 300,
            x_density: 0.02,
            ..WorkloadSpec::default()
        };
        let xmap = spec.generate();
        h.bench(&format!("xmap/{cells}_cells"), || {
            black_box(check_xmap(&lc, black_box(&xmap)))
        });

        // Plan rules vs. the engine run that produced the plan: the
        // lint/engine ratio is the overhead figure that matters.
        let cancel = XCancelConfig::paper_default();
        let outcome = PartitionEngine::new(cancel).run(&xmap);
        h.bench(&format!("outcome/{cells}_cells"), || {
            black_box(check_outcome(
                &lc,
                black_box(&xmap),
                black_box(&outcome),
                cancel,
            ))
        });
        h.bench(&format!("engine_baseline/{cells}_cells"), || {
            black_box(PartitionEngine::new(cancel).run(black_box(&xmap)))
        });
    }
}
