//! The engine's deterministic work counts, pinned. The number of
//! BestCost split candidates, how many the gain bound skips, and the
//! superset kernel's calls and rows are functions of the map alone, so
//! they repeat exactly on any host and at any thread count; the
//! kernel's lane words and row bands also depend on the pool width. A
//! change that makes the engine price more, or sweep more rows, fails
//! here everywhere, not only on a quiet benchmark host.

mod common;

use common::certified;
use xhc_trace::{Trace, TraceSession};
use xhybrid::prelude::*;

/// `(partition.candidates, partition.pruned, xbm.superset_calls,
/// xbm.rows_tested)` of a BestCost plan of each /10-scaled circuit.
const COUNTS: [(&str, [u64; 4]); 3] = [
    ("ckt-a", [57, 11, 46, 9_292]),
    ("ckt-b", [462, 15, 447, 164_784]),
    ("ckt-c", [757, 13, 744, 495_748]),
];

/// `(xbm.lane_words, xbm.shards)` at [`LANE_THREADS`] engine threads.
/// No sweep of a /10 map is large enough to be worth sharding, so a
/// change that fans out sweeps this small fails here too.
const LANES: [[u64; 2]; 3] = [[184, 0], [1_788, 0], [2_976, 0]];
const LANE_THREADS: usize = 4;

/// The same four counts for each full-size circuit, at threads {1, 2}.
const FULL_COUNTS: [(&str, [u64; 4]); 3] = [
    ("CKT-A", [1_628, 962, 666, 1_315_238]),
    ("CKT-B", [4_244, 349, 3_895, 14_240_891]),
    ("CKT-C", [6_501, 37, 6_464, 46_238_572]),
];

/// The four pinned counters of `trace`, in [`COUNTS`] order.
fn work_counts(trace: &Trace) -> [u64; 4] {
    [
        "partition.candidates",
        "partition.pruned",
        "xbm.superset_calls",
        "xbm.rows_tested",
    ]
    .map(|c| trace.counter(c).unwrap_or(0))
}

fn traced_plan(xmap: &XMap, threads: usize) -> (PartitionOutcome, Trace) {
    let session = TraceSession::begin().expect("no other trace session is active");
    let outcome = PartitionEngine::with_options(
        XCancelConfig::new(32, 7),
        PlanOptions {
            strategy: SplitStrategy::BestCost,
            threads,
            ..PlanOptions::default()
        },
    )
    .run(xmap);
    (outcome, session.finish())
}

#[test]
fn best_cost_work_counts_are_pinned() {
    let specs = [
        WorkloadSpec::ckt_a(),
        WorkloadSpec::ckt_b(),
        WorkloadSpec::ckt_c(),
    ];
    let cancel = XCancelConfig::new(32, 7);
    for ((spec, (name, want)), want_lanes) in specs.into_iter().zip(COUNTS).zip(LANES) {
        let xmap = spec.scaled(10).generate();
        let (base, _) = traced_plan(&xmap, 1);
        certified(&xmap, cancel, &base);
        for threads in [1, 2, 8] {
            let (outcome, trace) = traced_plan(&xmap, threads);
            assert_eq!(
                outcome, base,
                "{name}: the plan differs at {threads} threads"
            );
            assert_eq!(work_counts(&trace), want, "{name} at {threads} threads");
        }
        let (_, trace) = traced_plan(&xmap, LANE_THREADS);
        let lanes = ["xbm.lane_words", "xbm.shards"].map(|c| trace.counter(c).unwrap_or(0));
        assert_eq!(lanes, want_lanes, "{name} at {LANE_THREADS} threads");
    }
}

/// The full-size maps Table 1 is computed from. They take about 2 s in
/// a release build, so the debug test run skips them; CI runs them with
/// `cargo test --release --test engine_counts -- --ignored`.
#[test]
#[ignore = "full-size maps; run in release with --ignored"]
fn full_size_best_cost_work_counts_are_pinned() {
    let specs = [
        WorkloadSpec::ckt_a(),
        WorkloadSpec::ckt_b(),
        WorkloadSpec::ckt_c(),
    ];
    let cancel = XCancelConfig::new(32, 7);
    for (spec, (name, want)) in specs.into_iter().zip(FULL_COUNTS) {
        let xmap = spec.generate();
        let (base, trace) = traced_plan(&xmap, 1);
        certified(&xmap, cancel, &base);
        assert_eq!(work_counts(&trace), want, "{name} at 1 thread");
        let (outcome, trace) = traced_plan(&xmap, 2);
        assert_eq!(outcome, base, "{name}: the plan differs at 2 threads");
        assert_eq!(work_counts(&trace), want, "{name} at 2 threads");
    }
}
