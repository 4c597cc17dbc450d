//! Randomized invariant tests over generated workloads: the invariants
//! the paper's method rests on must hold for *any* X profile, not just
//! the worked example (deterministic seeded loops).

mod common;

use common::certified;
use xhc_prng::XhcRng;
use xhybrid::core::{BackendId, CellSelection, PartitionEngine, PlanOptions, SplitStrategy};
use xhybrid::misr::XCancelConfig;
use xhybrid::scan::{CellId, ScanConfig, XMap, XMapBuilder};
use xhybrid::workload::WorkloadSpec;

/// An arbitrary small X map: up to 12 cells x 24 patterns.
fn random_xmap(rng: &mut XhcRng) -> XMap {
    let cfg = ScanConfig::uniform(3, 4);
    let mut b = XMapBuilder::new(cfg, 24);
    for _ in 0..rng.gen_range(0..120) {
        let cell = rng.gen_index(12);
        b.add_x(CellId::new(cell / 4, cell % 4), rng.gen_index(24))
            .unwrap();
    }
    b.finish()
}

fn random_cancel(rng: &mut XhcRng) -> XCancelConfig {
    let m = rng.gen_range(4..=16);
    let q = rng.gen_range(1..=3usize);
    XCancelConfig::new(m, q.min(m - 1))
}

/// One judge for the cover, mask-safety and X-accounting invariants:
/// every plan of 64 random maps, under LargestClass with each cell
/// policy and BestCost at 1, 2 and 8 threads, is certified and checked
/// by xhc-verify.
fn certify_every_policy_and_thread_count(seed: u64) {
    let mut rng = XhcRng::seed_from_u64(seed);
    for _ in 0..64 {
        let xmap = random_xmap(&mut rng);
        let cancel = random_cancel(&mut rng);
        let largest_class = [
            CellSelection::First,
            CellSelection::Seeded(5),
            CellSelection::GlobalMaxX,
        ]
        .map(|policy| PlanOptions {
            policy,
            ..PlanOptions::default()
        });
        let best_cost = [1, 2, 8].map(|threads| PlanOptions {
            strategy: SplitStrategy::BestCost,
            threads,
            ..PlanOptions::default()
        });
        for opts in largest_class.into_iter().chain(best_cost) {
            let outcome = PartitionEngine::with_options(cancel, opts).run(&xmap);
            certified(&xmap, cancel, &outcome);
        }
    }
}

#[test]
fn partitions_cover_and_are_disjoint() {
    certify_every_policy_and_thread_count(0xF1F1);
}

#[test]
fn masks_only_cover_all_x_cells() {
    certify_every_policy_and_thread_count(0xF1F2);
}

#[test]
fn x_accounting_balances() {
    certify_every_policy_and_thread_count(0xF1F3);
}

#[test]
fn cost_stop_never_exceeds_initial() {
    // With the cost stop active, the final cost is at most the cost of
    // the single-partition starting point.
    let mut rng = XhcRng::seed_from_u64(0xF1F4);
    for _ in 0..64 {
        let xmap = random_xmap(&mut rng);
        let cancel = random_cancel(&mut rng);
        let outcome = PartitionEngine::new(cancel).run(&xmap);
        certified(&xmap, cancel, &outcome);
        assert!(outcome.cost.total() <= outcome.initial_cost.total() + 1e-9);
    }
}

#[test]
fn cost_formula_consistency() {
    let mut rng = XhcRng::seed_from_u64(0xF1F5);
    for _ in 0..64 {
        let xmap = random_xmap(&mut rng);
        let cancel = random_cancel(&mut rng);
        let outcome = PartitionEngine::new(cancel).run(&xmap);
        certified(&xmap, cancel, &outcome);
        let expect_mask_bits =
            xmap.config().mask_word_bits() as u128 * outcome.partitions.len() as u128;
        assert_eq!(outcome.cost.masking_bits, expect_mask_bits);
        let expect_cancel = cancel.control_bits(outcome.leaked_x());
        assert!((outcome.cost.canceling_bits - expect_cancel).abs() < 1e-9);
    }
}

#[test]
fn policies_all_satisfy_invariants() {
    let mut rng = XhcRng::seed_from_u64(0xF1F6);
    for _ in 0..64 {
        let xmap = random_xmap(&mut rng);
        let cancel = XCancelConfig::new(10, 2);
        for policy in [
            CellSelection::First,
            CellSelection::Seeded(5),
            CellSelection::GlobalMaxX,
        ] {
            let outcome = PartitionEngine::with_options(
                cancel,
                PlanOptions {
                    policy,
                    ..PlanOptions::default()
                },
            )
            .run(&xmap);
            certified(&xmap, cancel, &outcome);
            assert_eq!(outcome.masked_x() + outcome.leaked_x(), xmap.total_x());
        }
    }
}

#[test]
fn deeper_partitioning_never_masks_fewer_x() {
    // Without the cost stop, running to exhaustion masks at least as
    // many X's as the cost-stopped run (more partitions -> more,
    // never fewer, maskable cells).
    let mut rng = XhcRng::seed_from_u64(0xF1F7);
    for _ in 0..64 {
        let xmap = random_xmap(&mut rng);
        let cancel = XCancelConfig::new(10, 2);
        let stopped = PartitionEngine::new(cancel).run(&xmap);
        let exhaustive = PartitionEngine::with_options(
            cancel,
            PlanOptions {
                cost_stop: false,
                ..PlanOptions::default()
            },
        )
        .run(&xmap);
        certified(&xmap, cancel, &stopped);
        certified(&xmap, cancel, &exhaustive);
        assert!(exhaustive.masked_x() >= stopped.masked_x());
        assert!(exhaustive.partitions.len() >= stopped.partitions.len());
    }
}

#[test]
fn workload_generator_feeds_the_pipeline() {
    let mut rng = XhcRng::seed_from_u64(0xF1F8);
    for _ in 0..12 {
        let spec = WorkloadSpec {
            total_cells: 240,
            num_chains: 4,
            num_patterns: 60,
            x_density: 0.03,
            seed: rng.next_u64() % 500,
            ..WorkloadSpec::default()
        };
        let xmap = spec.generate();
        let cancel = XCancelConfig::new(16, 4);
        let [masking, canceling, hybrid] = [
            BackendId::MaskingOnly,
            BackendId::CancelingOnly,
            BackendId::Hybrid,
        ]
        .map(|id| id.plan(&xmap, cancel, &PlanOptions::default()));
        // The hybrid never does worse than its own starting point, and the
        // improvement ratios are well-defined.
        let outcome = hybrid.outcome.as_ref().expect("hybrid plan");
        certified(&xmap, cancel, outcome);
        let initial = &outcome.initial_cost;
        assert!(hybrid.control_bits <= initial.total() + 1e-9);
        assert!(
            hybrid.normalized_test_time(&xmap, cancel)
                <= canceling.normalized_test_time(&xmap, cancel) + 1e-12
        );
        assert!((masking.control_bits / hybrid.control_bits).is_finite());
    }
}
