//! Demonstrates (not just asserts) the paper's central coverage claim:
//! masking only cells that are X under *every* pattern of their partition
//! loses no fault coverage, while a naive "mask anything with an X"
//! policy does.

mod common;

use common::certified;
use xhybrid::atpg::{generate_tests, AtpgConfig};
use xhybrid::core::PartitionEngine;
use xhybrid::fault::{all_output_faults, fault_coverage, FullObservability};
use xhybrid::logic::generate::CircuitSpec;
use xhybrid::misr::XCancelConfig;
use xhybrid::scan::{ScanConfig, ScanHarness};

fn circuit_spec(seed: u64) -> CircuitSpec {
    CircuitSpec {
        num_inputs: 8,
        num_gates: 90,
        num_scan_flops: 16,
        num_shadow_flops: 2,
        num_buses: 2,
        seed,
        ..CircuitSpec::default()
    }
}

#[test]
fn hybrid_masking_preserves_coverage_across_circuits() {
    for seed in [1u64, 7] {
        let circuit = circuit_spec(seed).generate();
        let scan_cfg = ScanConfig::uniform(4, 4);
        let harness =
            ScanHarness::new(&circuit.netlist, scan_cfg, circuit.scan_flops.clone()).unwrap();
        let faults = all_output_faults(&circuit.netlist);
        let atpg = generate_tests(&harness, &faults, AtpgConfig::default());
        let responses = harness.run(&atpg.patterns);
        let xmap = responses.to_xmap();

        let cancel = XCancelConfig::new(12, 3);
        let outcome = PartitionEngine::new(cancel).run(&xmap);
        certified(&xmap, cancel, &outcome);

        let raw = fault_coverage(&harness, &atpg.patterns, &faults, &FullObservability);
        let hybrid = fault_coverage(&harness, &atpg.patterns, &faults, &|p: usize, c: usize| {
            let part = outcome
                .partitions
                .iter()
                .position(|s| s.contains(p))
                .expect("pattern in some partition");
            !outcome.masks[part].masks(c)
        });
        assert_eq!(
            raw.detected, hybrid.detected,
            "seed {seed}: hybrid masking changed coverage ({} vs {})",
            raw.detected, hybrid.detected
        );
        // The detecting pattern of each fault is unchanged too — masking
        // only ever covered cells that were X (undetecting) anyway.
        assert_eq!(raw.detected_by, hybrid.detected_by, "seed {seed}");
    }
}

#[test]
fn naive_masking_loses_coverage() {
    // Mask every cell that captures at least one X anywhere (a superset
    // of the paper's rule): observable non-X values disappear and
    // detections are lost — this is why [17, 18] must re-run fault
    // simulation and the paper's method does not.
    let mut any_loss = false;
    for seed in [1u64, 7, 42] {
        let circuit = circuit_spec(seed).generate();
        let scan_cfg = ScanConfig::uniform(4, 4);
        let harness =
            ScanHarness::new(&circuit.netlist, scan_cfg, circuit.scan_flops.clone()).unwrap();
        let faults = all_output_faults(&circuit.netlist);
        let atpg = generate_tests(&harness, &faults, AtpgConfig::default());
        let responses = harness.run(&atpg.patterns);
        let xmap = responses.to_xmap();

        let naive_masked: Vec<bool> = (0..xmap.config().total_cells())
            .map(|i| xmap.x_count(xmap.config().cell_at(i)) > 0)
            .collect();

        let raw = fault_coverage(&harness, &atpg.patterns, &faults, &FullObservability);
        let naive = fault_coverage(&harness, &atpg.patterns, &faults, &|_: usize, c: usize| {
            !naive_masked[c]
        });
        assert!(naive.detected <= raw.detected);
        if naive.detected < raw.detected {
            any_loss = true;
        }
    }
    assert!(
        any_loss,
        "naive masking should lose coverage on at least one circuit"
    );
}

#[test]
fn coverage_loss_would_be_caught() {
    // Sanity meta-test: the comparison actually has teeth. Blinding a
    // random half of the cells must lose detections on X-prone circuits.
    let circuit = circuit_spec(7).generate();
    let scan_cfg = ScanConfig::uniform(4, 4);
    let harness = ScanHarness::new(&circuit.netlist, scan_cfg, circuit.scan_flops.clone()).unwrap();
    let faults = all_output_faults(&circuit.netlist);
    let atpg = generate_tests(&harness, &faults, AtpgConfig::default());

    let raw = fault_coverage(&harness, &atpg.patterns, &faults, &FullObservability);
    let half = fault_coverage(&harness, &atpg.patterns, &faults, &|_: usize, c: usize| {
        c.is_multiple_of(2)
    });
    assert!(half.detected < raw.detected);
}
