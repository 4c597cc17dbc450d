//! The paper's §5 claim, tested through the compactor itself: "the fault
//! coverage is the same as that from the X-canceling MISR method".
//!
//! Observability here is *through the MISR*: a fault is detectable only if
//! some X-free signature combination depends on a cell where the fault
//! flips a known value. The hybrid masks cells that were all-X anyway, so
//! its combinations span at least the canceling-only ones — coverage can
//! only stay equal, never drop.

mod common;

use common::certified;
use xhybrid::atpg::{generate_tests, AtpgConfig};
use xhybrid::bits::BitVec;
use xhybrid::core::PartitionEngine;
use xhybrid::fault::{all_output_faults, fault_coverage};
use xhybrid::logic::generate::CircuitSpec;
use xhybrid::misr::{Taps, XCancelConfig, XCancelingMisr};
use xhybrid::scan::{ResponseMatrix, ScanConfig, ScanHarness};

struct Setup<'a> {
    harness: ScanHarness<'a>,
    patterns: Vec<xhybrid::scan::TestPattern>,
    faults: Vec<xhybrid::fault::Fault>,
    responses: ResponseMatrix,
}

fn setup(netlist: &xhybrid::logic::Netlist, scan_flops: Vec<usize>) -> Setup<'_> {
    let scan_cfg = ScanConfig::uniform(4, 4);
    let harness = ScanHarness::new(netlist, scan_cfg, scan_flops).unwrap();
    let faults = all_output_faults(netlist);
    let atpg = generate_tests(&harness, &faults, AtpgConfig::default());
    let responses = harness.run(&atpg.patterns);
    Setup {
        harness,
        patterns: atpg.patterns,
        faults,
        responses,
    }
}

/// Per-pattern MISR observability masks for a given X-cell list per
/// pattern.
fn misr_observability(xc: &XCancelingMisr, x_cells_of: &[Vec<usize>]) -> Vec<BitVec> {
    x_cells_of
        .iter()
        .map(|x_cells| xc.observable_cells(x_cells))
        .collect()
}

#[test]
fn hybrid_coverage_equals_canceling_coverage_through_the_misr() {
    for seed in [3u64, 11] {
        let circuit = CircuitSpec {
            num_inputs: 8,
            num_gates: 90,
            num_scan_flops: 16,
            num_shadow_flops: 2,
            num_buses: 2,
            seed,
            ..CircuitSpec::default()
        }
        .generate();
        let s = setup(&circuit.netlist, circuit.scan_flops.clone());
        let cells = s.responses.config().total_cells();
        let cancel = XCancelConfig::new(12, 3);
        let xc = XCancelingMisr::new(
            s.responses.config().clone(),
            cancel.m(),
            Taps::default_for(cancel.m()),
        );

        // Canceling-only: X cells are the raw response X's.
        let raw_x: Vec<Vec<usize>> = (0..s.responses.num_patterns())
            .map(|p| {
                (0..cells)
                    .filter(|&c| s.responses.get_linear(p, c).is_x())
                    .collect()
            })
            .collect();
        let obs_cancel = misr_observability(&xc, &raw_x);

        // Hybrid: cells masked off, remaining (leaked) X's into the MISR.
        let xmap = s.responses.to_xmap();
        let outcome = PartitionEngine::new(cancel).run(&xmap);
        certified(&xmap, cancel, &outcome);
        let masked = xhybrid::core::apply_partition_masks(&s.responses, &outcome);
        let masked_x: Vec<Vec<usize>> = (0..masked.num_patterns())
            .map(|p| {
                (0..cells)
                    .filter(|&c| masked.get_linear(p, c).is_x())
                    .collect()
            })
            .collect();
        let obs_hybrid_raw = misr_observability(&xc, &masked_x);
        // A masked cell is gated to constant 0 before the MISR: errors
        // there never reach the signature.
        let obs_hybrid: Vec<BitVec> = obs_hybrid_raw
            .iter()
            .enumerate()
            .map(|(p, obs)| {
                let part = outcome
                    .partitions
                    .iter()
                    .position(|set| set.contains(p))
                    .expect("pattern in a partition");
                let mut o = obs.clone();
                for c in 0..cells {
                    if outcome.masks[part].masks(c) {
                        o.set(c, false);
                    }
                }
                o
            })
            .collect();

        // Observability can only grow (minus the all-X masked cells).
        for p in 0..s.responses.num_patterns() {
            for c in 0..cells {
                if obs_cancel[p].get(c) {
                    assert!(
                        obs_hybrid[p].get(c),
                        "seed {seed}: hybrid lost observable cell {c} at pattern {p}"
                    );
                }
            }
        }

        // Fault coverage through the MISR: the paper asserts the hybrid
        // loses nothing relative to X-canceling-only. Measured, it can
        // even *gain*: fewer X constraints leave more known cells spanned
        // by the X-free combinations, so some known-value detections that
        // canceling-only sacrificed come back.
        let cov_cancel =
            fault_coverage(&s.harness, &s.patterns, &s.faults, &|p: usize, c: usize| {
                obs_cancel[p].get(c)
            });
        let cov_hybrid =
            fault_coverage(&s.harness, &s.patterns, &s.faults, &|p: usize, c: usize| {
                obs_hybrid[p].get(c)
            });
        assert!(
            cov_hybrid.detected >= cov_cancel.detected,
            "seed {seed}: hybrid lost coverage through the MISR ({} < {})",
            cov_hybrid.detected,
            cov_cancel.detected
        );
        // Every fault the canceling-only MISR detects, the hybrid detects.
        for (fi, d) in cov_cancel.detected_by.iter().enumerate() {
            if d.is_some() {
                assert!(
                    cov_hybrid.detected_by[fi].is_some(),
                    "seed {seed}: fault #{fi} detected by canceling-only but not hybrid"
                );
            }
        }
    }
}

#[test]
fn hybrid_reduces_x_into_the_misr_strictly() {
    let circuit = CircuitSpec {
        num_inputs: 8,
        num_gates: 90,
        num_scan_flops: 16,
        num_shadow_flops: 2,
        num_buses: 2,
        seed: 3,
        ..CircuitSpec::default()
    }
    .generate();
    let s = setup(&circuit.netlist, circuit.scan_flops.clone());
    let xmap = s.responses.to_xmap();
    if xmap.total_x() == 0 {
        return; // degenerate draw; nothing to show
    }
    let cancel = XCancelConfig::new(12, 3);
    let outcome = PartitionEngine::new(cancel).run(&xmap);
    certified(&xmap, cancel, &outcome);
    let masked = xhybrid::core::apply_partition_masks(&s.responses, &outcome);
    assert!(masked.total_x() <= s.responses.total_x());
    assert_eq!(masked.total_x(), outcome.leaked_x());
}
