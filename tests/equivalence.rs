//! Equivalence suite: the flat/delta correlation kernel and the parallel
//! partition engine must produce outcomes identical to a straightforward
//! reference implementation of the paper's algorithm (the pre-optimization
//! engine: `BTreeMap` class analysis, full re-analysis per candidate), and
//! identical to themselves at every thread count — on random maps, on
//! engineered gain ties, and with every [`PlanOptions`] combination on
//! the paper's Fig. 4 example and scaled CKT-A/B/C profiles.

mod common;

use common::certified;
use std::collections::BTreeMap;
use xhc_prng::{sample_indices, SliceRandom, XhcRng};
use xhybrid::bits::PatternSet;
use xhybrid::core::{
    hybrid_cost, BackendId, CellSelection, CorrelationAnalysis, PartitionEngine, PartitionOutcome,
    PlanOptions, SplitStrategy,
};
use xhybrid::misr::{safe_mask, XCancelConfig};
use xhybrid::scan::samples::fig4_xmap;
use xhybrid::scan::{CellId, ScanConfig, XMap, XMapBuilder};
use xhybrid::workload::WorkloadSpec;

/// A seeded random X map with inter-correlated cells: a pool of group
/// pattern sets, each correlated cell copying one of them, plus a sprinkle
/// of independent noise cells.
fn random_xmap(seed: u64, chains: usize, depth: usize, patterns: usize, groups: usize) -> XMap {
    let mut rng = XhcRng::seed_from_u64(seed);
    let cfg = ScanConfig::uniform(chains, depth);
    let mut b = XMapBuilder::new(cfg, patterns);
    let group_sets: Vec<Vec<usize>> = (0..groups)
        .map(|_| {
            let k = 1 + rng.gen_index(patterns / 2);
            sample_indices(&mut rng, patterns, k)
        })
        .collect();
    for chain in 0..chains {
        for pos in 0..depth {
            let cell = CellId::new(chain, pos);
            if rng.gen_bool(0.4) {
                for &p in &group_sets[rng.gen_index(groups)] {
                    b.add_x(cell, p).unwrap();
                }
            } else if rng.gen_bool(0.3) {
                for p in 0..patterns {
                    if rng.gen_bool(0.1) {
                        b.add_x(cell, p).unwrap();
                    }
                }
            }
        }
    }
    b.finish()
}

// ---------------------------------------------------------------------------
// Reference implementation (the seed engine, simplified but semantically
// exact: tree-map analysis, full re-analysis of every candidate split).
// ---------------------------------------------------------------------------

struct RefAnalysis {
    /// count -> cells (ascending), counts ascending via BTreeMap.
    classes: BTreeMap<usize, Vec<usize>>,
    partition_card: usize,
}

fn ref_analyze(xmap: &XMap, part: &PatternSet) -> RefAnalysis {
    let mut classes: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (cell, xs) in xmap.iter() {
        let c = xs.intersection_card(part);
        if c > 0 {
            classes
                .entry(c)
                .or_default()
                .push(xmap.config().linear_index(cell));
        }
    }
    RefAnalysis {
        classes,
        partition_card: part.card(),
    }
}

impl RefAnalysis {
    fn masked_x(&self) -> usize {
        if self.partition_card == 0 {
            return 0;
        }
        self.classes
            .get(&self.partition_card)
            .map_or(0, |cells| cells.len() * self.partition_card)
    }

    fn pivot_class(&self) -> Option<(usize, &[usize])> {
        self.classes
            .iter()
            .filter(|&(&count, cells)| count < self.partition_card && cells.len() >= 2)
            .max_by_key(|&(&count, cells)| (cells.len(), count))
            .map(|(&count, cells)| (count, cells.as_slice()))
    }

    fn class_reps(&self) -> Vec<(usize, usize, usize)> {
        self.classes
            .iter()
            .filter(|&(&count, _)| count > 0 && count < self.partition_card)
            .map(|(&count, cells)| (count, cells[0], cells.len()))
            .collect()
    }
}

struct RefRound {
    split_partition: usize,
    pivot_cell: usize,
    class_count: usize,
    class_size: usize,
    cost_after: f64,
}

struct RefOutcome {
    partitions: Vec<PatternSet>,
    rounds: Vec<RefRound>,
    cost: f64,
}

fn ref_cost(xmap: &XMap, parts: &[PatternSet], cancel: XCancelConfig) -> f64 {
    let masked: usize = parts.iter().map(|p| ref_analyze(xmap, p).masked_x()).sum();
    let leaked = xmap.total_x() - masked;
    let masking = xmap.config().mask_word_bits() as u128 * parts.len() as u128;
    masking as f64 + cancel.control_bits(leaked)
}

fn ref_run(
    xmap: &XMap,
    cancel: XCancelConfig,
    strategy: SplitStrategy,
    policy: CellSelection,
) -> RefOutcome {
    let num_patterns = xmap.num_patterns();
    let mut rng = match policy {
        CellSelection::Seeded(seed) => Some(XhcRng::seed_from_u64(seed)),
        _ => None,
    };
    let mut parts = vec![PatternSet::all(num_patterns)];
    let mut cost = ref_cost(xmap, &parts, cancel);
    let mut rounds = Vec::new();

    loop {
        let analyses: Vec<RefAnalysis> = parts.iter().map(|p| ref_analyze(xmap, p)).collect();
        let try_split = |pi: usize, pivot: usize| -> (Vec<PatternSet>, f64) {
            let xset = xmap
                .xset(xmap.config().cell_at(pivot))
                .expect("pivot captures X");
            let (with_x, without_x) = parts[pi].split_by(xset);
            let mut next = parts.clone();
            next[pi] = with_x;
            next.insert(pi + 1, without_x);
            let c = ref_cost(xmap, &next, cancel);
            (next, c)
        };

        let chosen = match strategy {
            SplitStrategy::LargestClass => {
                let Some((pi, class_size, class_count)) = analyses
                    .iter()
                    .enumerate()
                    .filter_map(|(i, a)| a.pivot_class().map(|(c, cells)| (i, cells.len(), c)))
                    .max_by(|a, b| {
                        (a.1, a.2, std::cmp::Reverse(a.0)).cmp(&(b.1, b.2, std::cmp::Reverse(b.0)))
                    })
                else {
                    break;
                };
                let (_, cells) = analyses[pi].pivot_class().expect("present");
                let pivot = match policy {
                    CellSelection::First => cells[0],
                    CellSelection::Seeded(_) => {
                        *cells.choose(rng.as_mut().expect("rng")).expect("non-empty")
                    }
                    CellSelection::GlobalMaxX => cells
                        .iter()
                        .copied()
                        .max_by_key(|&c| xmap.x_count(xmap.config().cell_at(c)))
                        .expect("non-empty"),
                };
                let (next, c) = try_split(pi, pivot);
                Some((pi, pivot, class_count, class_size, next, c))
            }
            SplitStrategy::BestCost => {
                let mut best: Option<(usize, usize, usize, usize, Vec<PatternSet>, f64)> = None;
                for (pi, a) in analyses.iter().enumerate() {
                    for (count, rep, size) in a.class_reps() {
                        let (next, c) = try_split(pi, rep);
                        if best.as_ref().is_none_or(|b| c < b.5) {
                            best = Some((pi, rep, count, size, next, c));
                        }
                    }
                }
                best
            }
        };
        let Some((pi, pivot, class_count, class_size, next, next_cost)) = chosen else {
            break;
        };
        if next_cost >= cost {
            break;
        }
        rounds.push(RefRound {
            split_partition: pi,
            pivot_cell: pivot,
            class_count,
            class_size,
            cost_after: next_cost,
        });
        parts = next;
        cost = next_cost;
    }

    RefOutcome {
        partitions: parts,
        rounds,
        cost,
    }
}

fn assert_matches_reference(got: &PartitionOutcome, want: &RefOutcome) {
    assert_eq!(
        got.partitions, want.partitions,
        "partition sequence differs"
    );
    assert_eq!(got.rounds.len(), want.rounds.len(), "round count differs");
    for (g, w) in got.rounds.iter().zip(&want.rounds) {
        assert_eq!(g.split_partition, w.split_partition);
        assert_eq!(g.pivot_cell, w.pivot_cell);
        assert_eq!(g.class_count, w.class_count);
        assert_eq!(g.class_size, w.class_size);
        assert!(
            (g.cost_after.total() - w.cost_after).abs() < 1e-9,
            "round cost differs: {} vs {}",
            g.cost_after.total(),
            w.cost_after
        );
    }
    assert!(
        (got.cost.total() - want.cost).abs() < 1e-9,
        "final cost differs: {} vs {}",
        got.cost.total(),
        want.cost
    );
}

// ---------------------------------------------------------------------------
// Engine vs reference.
// ---------------------------------------------------------------------------

#[test]
fn largest_class_matches_reference_on_random_maps() {
    for seed in 0..8u64 {
        let xmap = random_xmap(seed, 8, 12, 48, 5);
        let cancel = XCancelConfig::new(24, 4);
        for policy in [
            CellSelection::First,
            CellSelection::Seeded(seed ^ 0xdead),
            CellSelection::GlobalMaxX,
        ] {
            let opts = PlanOptions {
                policy,
                ..PlanOptions::default()
            };
            let got = PartitionEngine::with_options(cancel, opts).run(&xmap);
            certified(&xmap, cancel, &got);
            let want = ref_run(&xmap, cancel, SplitStrategy::LargestClass, policy);
            assert_matches_reference(&got, &want);
        }
    }
}

#[test]
fn best_cost_matches_reference_on_random_maps() {
    for seed in 0..6u64 {
        let xmap = random_xmap(seed, 4, 8, 24, 4);
        let cancel = XCancelConfig::new(16, 3);
        let opts = PlanOptions {
            strategy: SplitStrategy::BestCost,
            ..PlanOptions::default()
        };
        let got = PartitionEngine::with_options(cancel, opts).run(&xmap);
        certified(&xmap, cancel, &got);
        let want = ref_run(&xmap, cancel, SplitStrategy::BestCost, CellSelection::First);
        assert_matches_reference(&got, &want);
    }
}

// ---------------------------------------------------------------------------
// Thread-count invariance: bit-identical outcomes at 1, 2 and N workers.
// ---------------------------------------------------------------------------

fn assert_outcomes_identical(a: &PartitionOutcome, b: &PartitionOutcome, label: &str) {
    assert_eq!(a.partitions, b.partitions, "{label}: partitions differ");
    assert_eq!(a.masks, b.masks, "{label}: masks differ");
    assert_eq!(a.rounds, b.rounds, "{label}: rounds differ");
    assert_eq!(a.cost, b.cost, "{label}: cost differs");
    assert_eq!(
        a.initial_cost, b.initial_cost,
        "{label}: initial cost differs"
    );
}

#[test]
fn outcome_is_identical_for_every_thread_count() {
    for seed in 0..4u64 {
        let xmap = random_xmap(seed, 10, 20, 64, 6);
        let cancel = XCancelConfig::new(32, 5);
        for strategy in [SplitStrategy::LargestClass, SplitStrategy::BestCost] {
            let base = PartitionEngine::with_options(
                cancel,
                PlanOptions {
                    strategy,
                    threads: 1,
                    ..PlanOptions::default()
                },
            )
            .run(&xmap);
            certified(&xmap, cancel, &base);
            for threads in [2, 3, 8] {
                let other = PartitionEngine::with_options(
                    cancel,
                    PlanOptions {
                        strategy,
                        threads,
                        ..PlanOptions::default()
                    },
                )
                .run(&xmap);
                certified(&xmap, cancel, &other);
                assert_outcomes_identical(
                    &base,
                    &other,
                    &format!("seed={seed} {strategy:?} threads={threads}"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Delta analysis vs full rescan.
// ---------------------------------------------------------------------------

#[test]
fn delta_child_analysis_matches_full_rescan() {
    for seed in 0..6u64 {
        let xmap = random_xmap(seed, 6, 10, 40, 5);
        let parent_set = PatternSet::all(40);
        let parent = CorrelationAnalysis::analyze(&xmap, &parent_set);
        // Split on every X-capturing cell's pattern set in turn.
        let mut rng = XhcRng::seed_from_u64(seed);
        for _ in 0..8 {
            if xmap.num_x_cells() == 0 {
                break;
            }
            let pos = rng.gen_index(xmap.num_x_cells());
            let (_, xset) = xmap.entry(pos);
            let (with_set, without_set) = parent_set.split_by(xset);
            if with_set.is_empty() || without_set.is_empty() {
                continue;
            }
            for threads in [1, 4] {
                let (dw, dwo) = parent.analyze_children(&xmap, &with_set, threads);
                let fw = CorrelationAnalysis::analyze(&xmap, &with_set);
                let fwo = CorrelationAnalysis::analyze(&xmap, &without_set);
                for (delta, full) in [(&dw, &fw), (&dwo, &fwo)] {
                    assert_eq!(delta.total_x(), full.total_x());
                    assert_eq!(delta.partition_card(), full.partition_card());
                    assert_eq!(delta.num_active(), full.num_active());
                    let dc: Vec<(usize, Vec<usize>)> = delta
                        .classes()
                        .map(|(c, cells)| (c, cells.to_vec()))
                        .collect();
                    let fc: Vec<(usize, Vec<usize>)> = full
                        .classes()
                        .map(|(c, cells)| (c, cells.to_vec()))
                        .collect();
                    assert_eq!(dc, fc, "class structure differs");
                    assert_eq!(
                        delta.pivot_class().map(|(c, s)| (c, s.to_vec())),
                        full.pivot_class().map(|(c, s)| (c, s.to_vec()))
                    );
                }
            }
        }
    }
}

#[test]
fn nested_delta_splits_match_full_rescan() {
    // Two levels of splitting: children of children must still agree with
    // a from-scratch analysis.
    let xmap = random_xmap(17, 8, 12, 48, 5);
    let root_set = PatternSet::all(48);
    let root = CorrelationAnalysis::analyze(&xmap, &root_set);
    let Some((_, cells)) = root.pivot_class() else {
        panic!("random map must be splittable");
    };
    let xset = xmap.xset_linear(cells[0]).expect("pivot captures X");
    let (l1_set, _) = root_set.split_by(xset);
    let (l1, _) = root.analyze_children(&xmap, &l1_set, 1);
    let Some((_, cells2)) = l1.pivot_class() else {
        return; // unsplittable second level is a valid outcome
    };
    let xset2 = xmap.xset_linear(cells2[0]).expect("pivot captures X");
    let (l2_set, l2_rest) = l1_set.split_by(xset2);
    if l2_set.is_empty() || l2_rest.is_empty() {
        return;
    }
    let (got_w, got_wo) = l1.analyze_children(&xmap, &l2_set, 1);
    let want_w = CorrelationAnalysis::analyze(&xmap, &l2_set);
    let want_wo = CorrelationAnalysis::analyze(&xmap, &l2_rest);
    for (got, want) in [(&got_w, &want_w), (&got_wo, &want_wo)] {
        assert_eq!(got.total_x(), want.total_x());
        let gc: Vec<(usize, Vec<usize>)> = got.classes().map(|(c, s)| (c, s.to_vec())).collect();
        let wc: Vec<(usize, Vec<usize>)> = want.classes().map(|(c, s)| (c, s.to_vec())).collect();
        assert_eq!(gc, wc);
    }
}

// ---------------------------------------------------------------------------
// Engineered ties: a fresh child's best candidate against an earlier
// round's best candidate of equal gain.
// ---------------------------------------------------------------------------

/// One scan chain of 16 cells over 16 patterns, `A = 0..8`, `B = 8..16`:
/// four cells X over all of `A` (the root splits on them), three over
/// one half of `A` or of `B` (the next split), and two each over
/// `{0, 1}` and `{8, 9}`. Every split on a pair masks 4 X's more, so
/// after two rounds a fresh child's pair and an older partition's pair
/// tie.
///
/// `deep_b` puts the halves in `B`, so `B` splits in round 2 and its
/// fresh child stands after the tied partition `A`. Otherwise `A`
/// splits and its fresh child stands before `B`; five more cells X over
/// `{10, 11}` then loosen the bound of `B`'s pair split, so `B` prices
/// it in round 1 and it is a priced incumbent when the child is priced.
fn tie_xmap(deep_b: bool) -> XMap {
    let mut b = XMapBuilder::new(ScanConfig::uniform(1, 16), 16);
    let mut cell = 0;
    let (half, loose) = if deep_b { (8..12, 0) } else { (0..4, 5) };
    for (cells, patterns) in [(2, 0..2), (3, half), (4, 0..8), (2, 8..10), (loose, 10..12)] {
        for _ in 0..cells {
            for p in patterns.clone() {
                b.add_x(CellId::new(0, cell), p).unwrap();
            }
            cell += 1;
        }
    }
    b.finish()
}

#[test]
fn equal_gains_go_to_the_earlier_partition_at_every_thread_count() {
    let cancel = XCancelConfig::new(32, 7);
    // Round 3 splits partition 0 on cell 0, the first `{0, 1}` cell,
    // either way: the fresh child `A ∩ {0..4}` at index 0 beats `B` at
    // index 2, and the older `A` at index 0 beats the fresh child
    // `B ∩ {8..12}` at index 1.
    for deep_b in [false, true] {
        let xmap = tie_xmap(deep_b);
        let want_ref = ref_run(&xmap, cancel, SplitStrategy::BestCost, CellSelection::First);
        let base = PartitionEngine::with_options(
            cancel,
            PlanOptions {
                strategy: SplitStrategy::BestCost,
                threads: 1,
                ..PlanOptions::default()
            },
        )
        .run(&xmap);
        certified(&xmap, cancel, &base);
        assert_matches_reference(&base, &want_ref);
        assert!(base.rounds.len() >= 3, "deep_b={deep_b}");
        let tied = &base.rounds[2];
        assert_eq!(
            (tied.split_partition, tied.pivot_cell),
            (0, 0),
            "deep_b={deep_b}"
        );

        // The tie is real: after round 2, both pair splits price the same.
        let after_two: Vec<PatternSet> = {
            let mut parts = vec![PatternSet::all(16)];
            for r in &base.rounds[..2] {
                let xset = xmap.xset_linear(r.pivot_cell).expect("pivot captures X");
                let (w, wo) = parts[r.split_partition].split_by(xset);
                parts[r.split_partition] = w;
                parts.insert(r.split_partition + 1, wo);
            }
            parts
        };
        let split_cost = |pi: usize, cell: usize| {
            let mut parts = after_two.clone();
            let (w, wo) = parts[pi].split_by(xmap.xset_linear(cell).expect("X cell"));
            parts[pi] = w;
            parts.insert(pi + 1, wo);
            hybrid_cost(&xmap, &parts, cancel).total()
        };
        let (fresh, older) = if deep_b { (1, 0) } else { (0, 2) };
        let (fresh_cell, older_cell) = if deep_b { (9, 0) } else { (0, 9) };
        assert_eq!(split_cost(fresh, fresh_cell), split_cost(older, older_cell));

        for threads in [2, 8] {
            let other = PartitionEngine::with_options(
                cancel,
                PlanOptions {
                    strategy: SplitStrategy::BestCost,
                    threads,
                    ..PlanOptions::default()
                },
            )
            .run(&xmap);
            certified(&xmap, cancel, &other);
            assert_outcomes_identical(&base, &other, &format!("deep_b={deep_b} threads={threads}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Every option combination on the paper's maps: thread-count invariance,
// and each bounded option steers the run.
// ---------------------------------------------------------------------------

fn paper_maps() -> Vec<(&'static str, XMap, XCancelConfig)> {
    let scaled = |spec: WorkloadSpec| spec.scaled(60).generate();
    vec![
        ("fig4", fig4_xmap(), XCancelConfig::new(10, 2)),
        (
            "ckt-a",
            scaled(WorkloadSpec::ckt_a()),
            XCancelConfig::new(32, 7),
        ),
        (
            "ckt-b",
            scaled(WorkloadSpec::ckt_b()),
            XCancelConfig::new(32, 7),
        ),
        (
            "ckt-c",
            scaled(WorkloadSpec::ckt_c()),
            XCancelConfig::new(32, 7),
        ),
    ]
}

#[test]
fn plan_options_are_thread_count_invariant() {
    for (name, xmap, cancel) in paper_maps() {
        for strategy in [SplitStrategy::LargestClass, SplitStrategy::BestCost] {
            for policy in [
                CellSelection::First,
                CellSelection::Seeded(41),
                CellSelection::GlobalMaxX,
            ] {
                let run = |threads: usize| {
                    let outcome = PartitionEngine::with_options(
                        cancel,
                        PlanOptions {
                            strategy,
                            policy,
                            threads,
                            ..PlanOptions::default()
                        },
                    )
                    .run(&xmap);
                    certified(&xmap, cancel, &outcome);
                    outcome
                };
                let baseline = run(1);
                for threads in [2usize, 8] {
                    assert_eq!(
                        baseline,
                        run(threads),
                        "thread divergence on {name} ({strategy:?}, {policy:?}, {threads} threads)"
                    );
                }
            }
        }
    }
}

#[test]
fn bounded_options_steer_the_run() {
    let (_, xmap, cancel) = paper_maps().swap_remove(1); // scaled CKT-A
    let bounded = PartitionEngine::with_options(
        cancel,
        PlanOptions {
            cost_stop: false,
            max_rounds: Some(3),
            ..PlanOptions::default()
        },
    )
    .run(&xmap);
    certified(&xmap, cancel, &bounded);
    assert!(
        bounded.rounds.len() <= 3,
        "--max-rounds 3 must cap the rounds, got {}",
        bounded.rounds.len()
    );

    // Seeded policy is deterministic in the seed, and thread-invariant.
    let seeded = |threads: usize| {
        let outcome = PartitionEngine::with_options(
            cancel,
            PlanOptions {
                policy: CellSelection::Seeded(41),
                threads,
                ..PlanOptions::default()
            },
        )
        .run(&xmap);
        certified(&xmap, cancel, &outcome);
        outcome
    };
    assert_eq!(seeded(1), seeded(1));
    assert_eq!(seeded(1), seeded(8));
}

#[test]
fn default_options_match_the_plain_constructor() {
    let (_, xmap, cancel) = paper_maps().swap_remove(3); // scaled CKT-C
    let plain = PartitionEngine::new(cancel).run(&xmap);
    certified(&xmap, cancel, &plain);
    let via_options = PartitionEngine::with_options(cancel, PlanOptions::default()).run(&xmap);
    certified(&xmap, cancel, &via_options);
    assert_eq!(plain, via_options);

    // The backend field is planning metadata: the CLI and the daemon pick
    // the `BackendId` to plan with from it, but it never perturbs the
    // hybrid engine itself.
    let tagged = PartitionEngine::with_options(
        cancel,
        PlanOptions {
            backend: BackendId::Superset,
            ..PlanOptions::default()
        },
    )
    .run(&xmap);
    certified(&xmap, cancel, &tagged);
    assert_eq!(plain, tagged);
}

// ---------------------------------------------------------------------------
// The engine's masks are the safe masks of its partitions.
// ---------------------------------------------------------------------------

#[test]
fn engine_masks_are_the_safe_masks_at_every_thread_count() {
    // The engine builds each partition's mask from the fully-X cells of
    // its own analyses; `safe_mask` and `hybrid_cost` recompute them
    // from the map alone.
    let paper = paper_maps()
        .into_iter()
        .map(|(name, xmap, cancel)| (name.to_string(), xmap, cancel));
    let random = (0..4u64).map(|seed| {
        let xmap = random_xmap(seed, 10, 20, 64, 6);
        (
            format!("random seed {seed}"),
            xmap,
            XCancelConfig::new(32, 5),
        )
    });
    for (name, xmap, cancel) in paper.chain(random) {
        for strategy in [SplitStrategy::LargestClass, SplitStrategy::BestCost] {
            for threads in [1usize, 2, 8] {
                let outcome = PartitionEngine::with_options(
                    cancel,
                    PlanOptions {
                        strategy,
                        threads,
                        ..PlanOptions::default()
                    },
                )
                .run(&xmap);
                let label = format!("{name} {strategy:?} threads={threads}");
                assert_eq!(outcome.masks.len(), outcome.partitions.len(), "{label}");
                for (mask, part) in outcome.masks.iter().zip(&outcome.partitions) {
                    assert_eq!(*mask, safe_mask(&xmap, part), "{label}");
                }
                assert_eq!(
                    outcome.cost,
                    hybrid_cost(&xmap, &outcome.partitions, cancel),
                    "{label}"
                );
            }
        }
    }
}
