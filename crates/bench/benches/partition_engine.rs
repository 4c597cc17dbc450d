//! Bench: partitioning-engine runtime scaling with workload size and
//! X-density (the algorithmic cost of the paper's Algorithm 1).

#![deny(deprecated)]

use xhc_bench::timing::{black_box, Harness};
use xhc_core::{PartitionEngine, PlanOptions, SplitStrategy};
use xhc_misr::XCancelConfig;
use xhc_workload::WorkloadSpec;

fn main() {
    let mut h = Harness::from_args("partition_engine");

    for cells in [500usize, 2_000, 8_000] {
        let spec = WorkloadSpec {
            total_cells: cells,
            num_chains: 8,
            num_patterns: 300,
            x_density: 0.02,
            ..WorkloadSpec::default()
        };
        let xmap = spec.generate();
        h.bench(&format!("cells/{cells}"), || {
            black_box(PartitionEngine::new(XCancelConfig::paper_default()).run(black_box(&xmap)))
        });
    }

    for density_pct in [1usize, 3, 6] {
        let spec = WorkloadSpec {
            total_cells: 2_000,
            num_chains: 8,
            num_patterns: 300,
            x_density: density_pct as f64 / 100.0,
            ..WorkloadSpec::default()
        };
        let xmap = spec.generate();
        h.bench(&format!("x_density/{density_pct}pct"), || {
            black_box(PartitionEngine::new(XCancelConfig::paper_default()).run(black_box(&xmap)))
        });
    }

    let spec = WorkloadSpec {
        total_cells: 2_000,
        num_chains: 8,
        num_patterns: 300,
        x_density: 0.02,
        ..WorkloadSpec::default()
    };
    let xmap = spec.generate();
    for (name, strategy) in [
        ("largest_class", SplitStrategy::LargestClass),
        ("best_cost", SplitStrategy::BestCost),
    ] {
        let opts = PlanOptions {
            strategy,
            ..PlanOptions::default()
        };
        h.bench(&format!("strategy/{name}"), || {
            black_box(
                PartitionEngine::with_options(XCancelConfig::paper_default(), opts)
                    .run(black_box(&xmap)),
            )
        });
    }

    // The scaled BestCost case: a weakly-correlated profile with many
    // count classes, so every round evaluates many split candidates —
    // the hot path the flat/incremental kernel targets.
    let spec = WorkloadSpec {
        total_cells: 6_000,
        num_chains: 12,
        num_patterns: 400,
        x_density: 0.02,
        correlated_fraction: 0.5,
        num_groups: 10,
        ..WorkloadSpec::default()
    };
    let xmap = spec.generate();
    let best_cost = PlanOptions {
        strategy: SplitStrategy::BestCost,
        ..PlanOptions::default()
    };
    h.bench("strategy/best_cost_scaled", || {
        black_box(
            PartitionEngine::with_options(XCancelConfig::paper_default(), best_cost)
                .run(black_box(&xmap)),
        )
    });

    // The full-size paper circuits, unscaled: the workloads the sharded
    // + lane-unrolled kernel and the streaming matrix ingestion target.
    // Generation happens outside the timer; the iteration cap keeps the
    // multi-hundred-ms cases from eating the whole bench budget while
    // still reporting a real median (bench_gate.sh enforces an absolute
    // wall-clock budget on the CKT-A case).
    for (name, spec, cap) in [
        ("ckt_a", WorkloadSpec::ckt_a(), 7),
        ("ckt_b", WorkloadSpec::ckt_b(), 5),
        ("ckt_c", WorkloadSpec::ckt_c(), 5),
    ] {
        let xmap = spec.generate();
        h.bench_capped(&format!("strategy/best_cost_full_{name}"), cap, || {
            black_box(
                PartitionEngine::with_options(XCancelConfig::paper_default(), best_cost)
                    .run(black_box(&xmap)),
            )
        });
    }

    // Workload generation itself: the full-size CKT-B and CKT-C maps,
    // the two of the three full-size maps that are costly to build.
    for (name, spec) in [
        ("ckt_b", WorkloadSpec::ckt_b()),
        ("ckt_c", WorkloadSpec::ckt_c()),
    ] {
        h.bench_capped(&format!("workload/generate_full_{name}"), 5, || {
            black_box(black_box(&spec).generate())
        });
    }

    // Certificate overhead: plan once outside the timer, then time the
    // full certify + independent-check pass the daemon runs on every
    // write. The acceptance bound is <10% of plan time, measured by
    // scripts/verify_smoke.sh; this case tracks the absolute cost.
    let cancel = XCancelConfig::paper_default();
    let outcome = PartitionEngine::with_options(cancel, best_cost).run(&xmap);
    let plan_bytes = xhc_wire::encode_plan(&outcome, xmap.num_patterns());
    h.bench("verify_overhead/certify_and_check", || {
        let cert = xhc_verify::certify_plan(&xmap, cancel, &outcome, &plan_bytes, None);
        xhc_verify::check(&cert, &outcome, &plan_bytes, &xmap, cancel).unwrap();
        black_box(cert)
    });
}
