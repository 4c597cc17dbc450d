//! Reproduces the paper's Figs. 4–6 worked example through the public API,
//! including the operational pipeline: mask application and the
//! time-multiplexed X-canceling session on the leaked X's.

mod common;

use common::certified;
use xhybrid::bits::PatternSet;
use xhybrid::core::{
    apply_partition_masks, BackendId, CorrelationAnalysis, PartitionEngine, PlanOptions,
};
use xhybrid::logic::Trit;
use xhybrid::misr::{CancelSession, Taps, XCancelConfig};
use xhybrid::scan::samples::fig4_xmap;
use xhybrid::scan::{CellId, ResponseMatrix, XMap};

fn fig4_responses(xmap: &XMap) -> ResponseMatrix {
    let cfg = xmap.config().clone();
    let mut m = ResponseMatrix::filled(cfg.clone(), 8, Trit::Zero);
    for p in 0..8 {
        for idx in 0..cfg.total_cells() {
            let cell = cfg.cell_at(idx);
            let v = if xmap.is_x(p, cell) {
                Trit::X
            } else {
                Trit::from_bool((p * 7 + idx) % 3 == 0)
            };
            m.set(p, cell, v);
        }
    }
    m
}

#[test]
fn fig4_correlation_analysis_classes() {
    // "the most number of X's captured in one scan cell is 7 and the
    //  largest number of scan cells having the same number of X's is 3"
    let xmap = fig4_xmap();
    let analysis = CorrelationAnalysis::analyze(&xmap, &PatternSet::all(8));
    let max_count = analysis.classes().map(|(c, _)| c).max().unwrap();
    assert_eq!(max_count, 7);
    let (count, cells) = analysis.pivot_class().unwrap();
    assert_eq!((count, cells.len()), (4, 3));
}

#[test]
fn fig5_partition_sequence() {
    let xmap = fig4_xmap();
    let cancel = XCancelConfig::new(10, 2);
    let outcome = PartitionEngine::new(cancel).run(&xmap);
    certified(&xmap, cancel, &outcome);
    // Final state: Partition 2 = {P2,P3,P7,P8}, Partition 3 = {P1,P4,P5},
    // Partition 4 = {P6}.
    let mut got: Vec<Vec<usize>> = outcome
        .partitions
        .iter()
        .map(|p| p.iter().map(|i| i + 1).collect())
        .collect();
    got.sort();
    assert_eq!(got, vec![vec![1, 4, 5], vec![2, 3, 7, 8], vec![6]]);
}

#[test]
fn fig6_control_bit_generation() {
    // "This method removes 23 X's out of total 28 X's... reduces 120
    //  control bits to 45 bits (i.e., 15 control bits for each partition)"
    let xmap = fig4_xmap();
    let cancel = XCancelConfig::new(10, 2);
    let plan = |id: BackendId| id.plan(&xmap, cancel, &PlanOptions::default());
    assert_eq!(plan(BackendId::MaskingOnly).control_bits, 120.0);
    let outcome = plan(BackendId::Hybrid).outcome.expect("hybrid plan");
    certified(&xmap, cancel, &outcome);
    assert_eq!(outcome.cost.masking_bits, 45);
    assert_eq!(outcome.masked_x(), 23);
    assert_eq!(outcome.leaked_x(), 5);
    // Total: 45 + 10*2*5/8 = 57.5 -> 58.
    assert_eq!(outcome.cost.total_ceil(), 58);
}

#[test]
fn fig6_cost_function_round_trace() {
    // Round costs with (m=10, q=2): 85 (round 0) -> 60 -> 57.5.
    let xmap = fig4_xmap();
    let cancel = XCancelConfig::new(10, 2);
    let outcome = PartitionEngine::new(cancel).run(&xmap);
    certified(&xmap, cancel, &outcome);
    assert!((outcome.initial_cost.total() - 85.0).abs() < 1e-9);
    assert_eq!(outcome.rounds.len(), 2);
    assert!((outcome.rounds[0].cost_after.total() - 60.0).abs() < 1e-9);
    assert!((outcome.rounds[1].cost_after.total() - 57.5).abs() < 1e-9);
}

#[test]
fn fig6_alternate_misr_config_stops_earlier() {
    // (m=10, q=1): 44 bits at round 1, 51 at round 2 -> stop at round 1.
    let xmap = fig4_xmap();
    let cancel = XCancelConfig::new(10, 1);
    let outcome = PartitionEngine::new(cancel).run(&xmap);
    certified(&xmap, cancel, &outcome);
    assert_eq!(outcome.rounds.len(), 1);
    assert_eq!(outcome.cost.total_ceil(), 44);
}

#[test]
fn operational_pipeline_cancels_the_five_leaked_x() {
    let xmap = fig4_xmap();
    let responses = fig4_responses(&xmap);
    let cancel = XCancelConfig::new(10, 2);
    let outcome = PartitionEngine::new(cancel).run(&xmap);
    certified(&xmap, cancel, &outcome);

    let masked = apply_partition_masks(&responses, &outcome);
    assert_eq!(masked.total_x(), 5);

    // The time-multiplexed session halts less often with masking.
    let session = CancelSession::new(responses.config().clone(), cancel, Taps::default_for(10));
    let with_mask = session.run(&masked);
    let without_mask = session.run(&responses);
    assert_eq!(with_mask.total_x, 5);
    assert_eq!(without_mask.total_x, 28);
    assert!(with_mask.halts <= without_mask.halts);
    // Every block respecting the X budget yields q combinations.
    for block in &with_mask.blocks {
        if block.num_x <= cancel.m() - cancel.q() {
            assert!(!block.combinations.is_empty());
        }
    }
}

#[test]
fn masks_match_fig6_cell_lists() {
    let xmap = fig4_xmap();
    let cfg = xmap.config().clone();
    let cancel = XCancelConfig::new(10, 2);
    let outcome = PartitionEngine::new(cancel).run(&xmap);
    certified(&xmap, cancel, &outcome);
    for (part, mask) in outcome.partitions.iter().zip(&outcome.masks) {
        let members: Vec<usize> = part.iter().collect();
        let masked: Vec<CellId> = (0..cfg.total_cells())
            .filter(|&i| mask.masks(i))
            .map(|i| cfg.cell_at(i))
            .collect();
        match members.as_slice() {
            // Partition {P2,P3,P7,P8}: only SC4[2].
            [1, 2, 6, 7] => assert_eq!(masked, vec![CellId::new(3, 2)]),
            // Partition {P1,P4,P5}: SC1[0], SC2[0], SC3[0], SC4[2], SC5[1].
            [0, 3, 4] => assert_eq!(
                masked,
                vec![
                    CellId::new(0, 0),
                    CellId::new(1, 0),
                    CellId::new(2, 0),
                    CellId::new(3, 2),
                    CellId::new(4, 1),
                ]
            ),
            // Partition {P6}: SC1[0], SC2[0], SC3[0], SC5[2].
            [5] => assert_eq!(
                masked,
                vec![
                    CellId::new(0, 0),
                    CellId::new(1, 0),
                    CellId::new(2, 0),
                    CellId::new(4, 2),
                ]
            ),
            other => panic!("unexpected partition {other:?}"),
        }
    }
}
