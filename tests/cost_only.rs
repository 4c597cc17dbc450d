//! Property tests for the packed cost-only split evaluator: the
//! word-sweep superset counts must price every candidate exactly as the
//! materializing path (`split_by` + a fresh analysis) would, across
//! pattern universes that straddle the 64-bit word boundary, and the
//! engine's bound pruning must never change the selected pivot at any
//! thread count.

mod common;

use common::certified;
use xhc_prng::{sample_indices, XhcRng};
use xhybrid::bits::PatternSet;
use xhybrid::core::{CorrelationAnalysis, PartitionEngine, SplitStrategy};
use xhybrid::misr::XCancelConfig;
use xhybrid::scan::{CellId, ScanConfig, XMap, XMapBuilder};

/// A seeded random X map with inter-correlated cells (same shape as the
/// equivalence suite's generator).
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

/// The materializing reference: masked-X total of one child partition,
/// computed from a fresh full analysis.
fn ref_masked(xmap: &XMap, child: &PatternSet) -> usize {
    let analysis = CorrelationAnalysis::analyze(xmap, child);
    analysis.fully_x_cells().len() * child.card()
}

/// The packed path: masked-X totals of both children of splitting `part`
/// on `pivot_cell`, via word sweeps over the bit matrix — exercising the
/// no-zeroing scratch contract by pre-filling the buffers with garbage.
fn packed_masked_pair(
    xmap: &XMap,
    matrix: &xhybrid::bits::XBitMatrix,
    analysis: &CorrelationAnalysis,
    part: &PatternSet,
    pivot_cell: usize,
    count: usize,
) -> (usize, usize) {
    let stride = matrix.stride();
    let word_ids: Vec<u32> = part
        .as_bits()
        .nonzero_word_indices()
        .map(|w| w as u32)
        .collect();
    let mut a = vec![!0u64; stride];
    let mut b = vec![!0u64; stride];
    let part_words = part.as_bits().as_words();
    let pivot_row = matrix.row(xmap.find_entry(pivot_cell).expect("pivot captures X"));
    for &w in &word_ids {
        let w = w as usize;
        a[w] = part_words[w] & pivot_row[w];
        b[w] = part_words[w] & !pivot_row[w];
    }
    let (na, nb) = matrix.count_supersets_pair(analysis.active_entries(), &word_ids, &a, &b);
    (na * count, nb * (part.card() - count))
}

#[test]
fn packed_evaluation_matches_materializing_reference() {
    // Universes straddling the word boundary are the kernel's edge zone:
    // a 63/65-bit universe leaves a partial tail word, 64 is exact.
    for patterns in [63usize, 64, 65] {
        for seed in 0..4u64 {
            let xmap = random_xmap(seed ^ (patterns as u64) << 8, 6, 10, patterns, 5);
            if xmap.num_x_cells() == 0 {
                continue;
            }
            let matrix = xmap.to_bitmatrix();

            // Check every class representative at the root partition and
            // then again one level down on both children of the first
            // viable split, so non-trivial word masks are exercised.
            let mut frontier = vec![PatternSet::all(patterns)];
            for _level in 0..2 {
                let mut next_frontier = Vec::new();
                for part in &frontier {
                    let analysis = CorrelationAnalysis::analyze(&xmap, part);
                    let card = part.card();
                    let mut checked = 0usize;
                    for (count, cells) in analysis.classes() {
                        if count == 0 || count >= card {
                            continue;
                        }
                        let rep = cells[0];
                        let (packed_w, packed_wo) =
                            packed_masked_pair(&xmap, matrix, &analysis, part, rep, count);
                        let xset = xmap.xset_linear(rep).expect("rep captures X");
                        let (with, without) = part.split_by(xset);
                        assert_eq!(
                            packed_w,
                            ref_masked(&xmap, &with),
                            "with-child masked mismatch: patterns={patterns} seed={seed}"
                        );
                        assert_eq!(
                            packed_wo,
                            ref_masked(&xmap, &without),
                            "without-child masked mismatch: patterns={patterns} seed={seed}"
                        );
                        if checked == 0 {
                            next_frontier.push(with);
                            next_frontier.push(without);
                        }
                        checked += 1;
                    }
                }
                frontier = next_frontier;
                if frontier.is_empty() {
                    break;
                }
            }
        }
    }
}

/// A scalar (one word at a time, no lanes, no shards) re-implementation
/// of the superset pair count — the semantics the unrolled kernel must
/// reproduce bit-for-bit.
fn scalar_count_pair(
    matrix: &xhybrid::bits::XBitMatrix,
    row_ids: &[u32],
    word_ids: &[u32],
    a: &[u64],
    b: &[u64],
) -> (usize, usize) {
    let mut na = 0usize;
    let mut nb = 0usize;
    for &r in row_ids {
        let row = matrix.row(r as usize);
        let mut a_sub = true;
        let mut b_sub = true;
        for &w in word_ids {
            let w = w as usize;
            let not_row = !row[w];
            a_sub &= a[w] & not_row == 0;
            b_sub &= b[w] & not_row == 0;
        }
        na += usize::from(a_sub);
        nb += usize::from(b_sub);
    }
    (na, nb)
}

#[test]
fn sharded_and_unrolled_kernels_match_the_scalar_reference() {
    // The full word-boundary sweep from the issue: universes one bit
    // either side of 64 and 256 exercise the lane remainder (stride % 4)
    // at every residue; shard counts {1, 3, 8} × threads {1, 2, 8} pin
    // the band decomposition to the unsharded result.
    for patterns in [63usize, 64, 65, 255, 256, 257] {
        for seed in 0..2u64 {
            let xmap = random_xmap(seed ^ (patterns as u64) << 9, 8, 10, patterns, 5);
            if xmap.num_x_cells() == 0 {
                continue;
            }
            let matrix = xmap.to_bitmatrix();
            let part = PatternSet::all(patterns);
            let analysis = CorrelationAnalysis::analyze(&xmap, &part);
            let card = part.card();
            for (count, cells) in analysis.classes().take(3) {
                if count == 0 || count >= card {
                    continue;
                }
                // Same garbage-scratch setup as the engine: only the
                // partition's nonzero words carry real query bits.
                let word_ids: Vec<u32> = part
                    .as_bits()
                    .nonzero_word_indices()
                    .map(|w| w as u32)
                    .collect();
                let mut a = vec![!0u64; matrix.stride()];
                let mut b = vec![!0u64; matrix.stride()];
                let part_words = part.as_bits().as_words();
                let pivot_row = matrix.row(xmap.find_entry(cells[0]).expect("pivot captures X"));
                for &w in &word_ids {
                    let w = w as usize;
                    a[w] = part_words[w] & pivot_row[w];
                    b[w] = part_words[w] & !pivot_row[w];
                }
                let rows = analysis.active_entries();
                let want = scalar_count_pair(matrix, rows, &word_ids, &a, &b);
                let unrolled = matrix.count_supersets_pair(rows, &word_ids, &a, &b);
                assert_eq!(
                    unrolled, want,
                    "unrolled vs scalar: patterns={patterns} seed={seed}"
                );
                for shards in [1usize, 3, 8] {
                    for threads in [1usize, 2, 8] {
                        let got = matrix
                            .count_supersets_pair_sharded(rows, &word_ids, &a, &b, shards, threads);
                        assert_eq!(
                            got, want,
                            "sharded vs scalar: patterns={patterns} seed={seed} \
                             shards={shards} threads={threads}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn engine_outcome_is_thread_invariant_when_sharding_engages() {
    // Large enough that the root partition's active-entry list exceeds
    // the engine's minimum shard size (64 rows), so the intra-candidate
    // sharded path really runs at threads > 1; the outcome must stay
    // bit-identical to the single-threaded run.
    for patterns in [255usize, 257] {
        let xmap = random_xmap(0xC0FFEE ^ patterns as u64, 20, 14, patterns, 6);
        let analysis = CorrelationAnalysis::analyze(&xmap, &PatternSet::all(patterns));
        assert!(
            analysis.active_entries().len() >= 128,
            "profile too small to engage sharding: {} active entries",
            analysis.active_entries().len()
        );
        let cancel = XCancelConfig::new(32, 7);
        let run = |threads: usize| {
            let outcome = PartitionEngine::with_options(
                cancel,
                xhybrid::core::PlanOptions {
                    strategy: SplitStrategy::BestCost,
                    threads,
                    ..xhybrid::core::PlanOptions::default()
                },
            )
            .run(&xmap);
            certified(&xmap, cancel, &outcome);
            outcome
        };
        let want = run(1);
        assert!(!want.rounds.is_empty(), "degenerate profile never splits");
        for threads in [2usize, 8] {
            let got = run(threads);
            assert_eq!(got, want, "patterns={patterns} threads={threads}");
        }
    }
}

/// An unpruned, sequential reference for the BestCost selection rule:
/// every candidate is materialised and priced, and the first strict
/// minimum in candidate order wins — the semantics the engine's pruned,
/// parallel search must reproduce exactly.
fn ref_best_cost_rounds(xmap: &XMap, cancel: XCancelConfig) -> (Vec<usize>, Vec<PatternSet>) {
    let num_patterns = xmap.num_patterns();
    let word_bits = xmap.config().mask_word_bits() as f64;
    let total_x = xmap.total_x();
    let cost_of = |parts: &[PatternSet]| -> f64 {
        let masked: usize = parts.iter().map(|p| ref_masked(xmap, p)).sum();
        word_bits * parts.len() as f64 + cancel.control_bits(total_x - masked)
    };
    let mut parts = vec![PatternSet::all(num_patterns)];
    let mut cost = cost_of(&parts);
    let mut pivots = Vec::new();
    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for (pi, part) in parts.iter().enumerate() {
            let analysis = CorrelationAnalysis::analyze(xmap, part);
            let card = part.card();
            for (count, cells) in analysis.classes() {
                if count == 0 || count >= card {
                    continue;
                }
                let rep = cells[0];
                let xset = xmap.xset_linear(rep).expect("rep captures X");
                let (with, without) = part.split_by(xset);
                let mut next = parts.clone();
                next[pi] = with;
                next.insert(pi + 1, without);
                let c = cost_of(&next);
                if best.is_none_or(|(_, _, bc)| c < bc) {
                    best = Some((pi, rep, c));
                }
            }
        }
        let Some((pi, rep, next_cost)) = best else {
            break;
        };
        if next_cost >= cost {
            break;
        }
        let xset = xmap.xset_linear(rep).expect("rep captures X");
        let (with, without) = parts[pi].split_by(xset);
        parts[pi] = with;
        parts.insert(pi + 1, without);
        cost = next_cost;
        pivots.push(rep);
    }
    (pivots, parts)
}

#[test]
fn pruning_never_changes_the_selected_pivot() {
    for patterns in [63usize, 64, 65] {
        for seed in 0..3u64 {
            let xmap = random_xmap(seed.wrapping_mul(97) ^ patterns as u64, 5, 9, patterns, 4);
            let cancel = XCancelConfig::new(24, 4);
            let (want_pivots, want_parts) = ref_best_cost_rounds(&xmap, cancel);
            for threads in [1usize, 2, 8] {
                let got = PartitionEngine::with_options(
                    cancel,
                    xhybrid::core::PlanOptions {
                        strategy: SplitStrategy::BestCost,
                        threads,
                        ..xhybrid::core::PlanOptions::default()
                    },
                )
                .run(&xmap);
                certified(&xmap, cancel, &got);
                let got_pivots: Vec<usize> = got.rounds.iter().map(|r| r.pivot_cell).collect();
                assert_eq!(
                    got_pivots, want_pivots,
                    "pivot sequence diverged: patterns={patterns} seed={seed} threads={threads}"
                );
                assert_eq!(
                    got.partitions, want_parts,
                    "partitions diverged: patterns={patterns} seed={seed} threads={threads}"
                );
            }
        }
    }
}
