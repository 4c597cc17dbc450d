//! The pattern-partitioning algorithm (the paper's §4, Algorithm 1).

use crate::correlation::CorrelationAnalysis;
use crate::cost::{hybrid_cost_with_masks, HybridCost};
use std::borrow::Borrow;
use xhc_bits::{PatternSet, XBitMatrix};
use xhc_misr::{MaskWord, XCancelConfig};
use xhc_prng::{SliceRandom, XhcRng};
use xhc_scan::XMap;

/// How the engine picks the pivot scan cell within the chosen count class.
///
/// The paper "randomly select\[s\] one of 3 scan cells"; thanks to
/// inter-correlation the class members usually share the same X pattern
/// set, so the choice rarely matters — the ablation bench quantifies this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSelection {
    /// The class member with the lowest linear index (deterministic).
    First,
    /// A seeded random class member (deterministic per seed).
    Seeded(u64),
    /// The class member with the most X's over the *whole* pattern set
    /// (a globally-informed tie-break).
    GlobalMaxX,
}

/// How the engine chooses *which* split to attempt each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// The paper's rule: the pivot class with the most cells, over all
    /// partitions (ties: higher X count, lower partition index).
    #[default]
    LargestClass,
    /// An extension beyond the paper: evaluate the cost of splitting on a
    /// representative of *every* count class (including singletons) in
    /// every partition and take the cheapest. One extra analysis pass per
    /// candidate; can beat the greedy rule on weakly-correlated profiles.
    BestCost,
}

/// One accepted partitioning round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based round number.
    pub round: usize,
    /// Index (at the time of the split) of the partition that was split.
    pub split_partition: usize,
    /// Linear index of the pivot scan cell.
    pub pivot_cell: usize,
    /// The pivot class's X count.
    pub class_count: usize,
    /// The pivot class's size (number of cells).
    pub class_size: usize,
    /// Total cost after the split.
    pub cost_after: HybridCost,
}

/// The result of running the partitioning engine.
///
/// Plain data end to end (pattern sets, mask words, cost records), so a
/// plan can be serialized, content-addressed and compared bit-for-bit —
/// `xhc-wire` round-trips it and `xhc-serve` caches it by content hash.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionOutcome {
    /// Final partitions (each a set of pattern indices; disjoint, covering
    /// all patterns).
    pub partitions: Vec<PatternSet>,
    /// The fault-coverage-safe mask word of each partition.
    pub masks: Vec<MaskWord>,
    /// Final cost.
    pub cost: HybridCost,
    /// Cost before any split (a single partition over all patterns).
    pub initial_cost: HybridCost,
    /// Accepted rounds, in order.
    pub rounds: Vec<RoundRecord>,
}

impl PartitionOutcome {
    /// X's removed by masking.
    pub fn masked_x(&self) -> usize {
        self.cost.masked_x
    }

    /// X's shifted into the X-canceling MISR.
    pub fn leaked_x(&self) -> usize {
        self.cost.leaked_x
    }
}

/// Per-partition incremental state: everything a round needs without
/// re-analyzing unchanged partitions.
#[derive(Debug, Clone)]
struct PartitionInfo {
    patterns: PatternSet,
    masked_x: usize,
    /// The partition's correlation analysis, retained whole so a split
    /// only rescans this partition's X-active cells (the delta path,
    /// [`CorrelationAnalysis::analyze_children`]) instead of the full map.
    analysis: CorrelationAnalysis,
}

impl PartitionInfo {
    fn from_analysis(patterns: PatternSet, analysis: CorrelationAnalysis) -> Self {
        let masked_x = analysis.fully_x_cells().len() * patterns.card();
        PartitionInfo {
            patterns,
            masked_x,
            analysis,
        }
    }

    fn compute(xmap: &XMap, patterns: PatternSet) -> Self {
        let analysis = CorrelationAnalysis::analyze(xmap, &patterns);
        Self::from_analysis(patterns, analysis)
    }

    /// Splits this partition on the pivot cell's X pattern set. Both
    /// children are analyzed with one delta pass over this partition's
    /// active cells.
    fn split(&self, xmap: &XMap, pivot_cell: usize, threads: usize) -> (Self, Self) {
        let xset = xmap.xset_linear(pivot_cell).expect("pivot cell captures X");
        let (with_x, without_x) = self.patterns.split_by(xset);
        debug_assert!(!with_x.is_empty() && !without_x.is_empty());
        let (a_with, a_without) = self.analysis.analyze_children(xmap, &with_x, threads);
        (
            Self::from_analysis(with_x, a_with),
            Self::from_analysis(without_x, a_without),
        )
    }
}

/// Reusable per-worker word buffers for the cost-only split evaluator.
///
/// The superset-counting kernel only reads words at a partition's
/// nonzero word indices, and the evaluator only writes those same
/// indices, so the buffers are never zeroed between candidates — they
/// just need capacity. One `SplitScratch` per worker lives in a pool
/// owned by [`PartitionEngine::run`] and is reused across rounds.
#[derive(Debug, Default)]
struct SplitScratch {
    child_a: Vec<u64>,
    child_b: Vec<u64>,
}

impl SplitScratch {
    fn ensure(&mut self, stride: usize) {
        if self.child_a.len() < stride {
            self.child_a.resize(stride, 0);
            self.child_b.resize(stride, 0);
        }
    }
}

/// Fewest rows a kernel shard is allowed to hold: below this the scoped
/// fan-out costs more than the band sweep it parallelizes.
const MIN_SHARD_ROWS: usize = 64;

/// Shard count for one candidate's superset sweep over `rows` active
/// rows on a `kernel_threads`-wide pool: one shard per worker, but never
/// so many that a shard drops under [`MIN_SHARD_ROWS`] rows.
fn kernel_shards(rows: usize, kernel_threads: usize) -> usize {
    if kernel_threads <= 1 {
        1
    } else {
        kernel_threads.min(rows / MIN_SHARD_ROWS).max(1)
    }
}

/// Per-round, per-partition context shared by all of that partition's
/// split candidates: the partition's word mask and a suffix histogram of
/// active-cell counts for the pruning bound.
struct PartCtx {
    /// Nonzero word indices of the partition's pattern set.
    word_ids: Vec<u32>,
    /// Distinct restricted X counts, ascending (one per count class).
    counts: Vec<u32>,
    /// `suffix[i]` = number of active cells with count >= `counts[i]`.
    suffix: Vec<usize>,
}

impl PartCtx {
    fn build(info: &PartitionInfo) -> Self {
        let word_ids: Vec<u32> = info
            .patterns
            .as_bits()
            .nonzero_word_indices()
            .map(|w| w as u32)
            .collect();
        let mut counts = Vec::new();
        let mut suffix = Vec::new();
        for (count, cells) in info.analysis.classes() {
            counts.push(count as u32);
            suffix.push(cells.len());
        }
        let mut acc = 0usize;
        for s in suffix.iter_mut().rev() {
            acc += *s;
            *s = acc;
        }
        PartCtx {
            word_ids,
            counts,
            suffix,
        }
    }

    /// Number of active cells whose restricted count is at least `k`.
    fn cells_with_count_ge(&self, k: usize) -> usize {
        let i = self.counts.partition_point(|&c| (c as usize) < k);
        self.suffix.get(i).copied().unwrap_or(0)
    }
}

/// Every knob of a partitioning run in one plain-data struct.
///
/// This is the single options type shared by [`PartitionEngine`], the
/// wire `PlanRequest` and the `xhybrid` CLI flags — construct it with
/// struct-update syntax over [`Default`]:
///
/// ```
/// use xhc_core::{PlanOptions, SplitStrategy};
///
/// let opts = PlanOptions {
///     strategy: SplitStrategy::BestCost,
///     threads: 2,
///     ..PlanOptions::default()
/// };
/// assert!(opts.cost_stop);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// How the engine chooses which split to attempt each round.
    pub strategy: SplitStrategy,
    /// How the engine picks the pivot cell within the chosen class.
    pub policy: CellSelection,
    /// Worker-pool width for candidate evaluation and child re-analysis.
    /// `0` means [`xhc_par::max_threads`]. The outcome is bit-identical
    /// for every width — this knob trades wall-clock only (the
    /// equivalence suite runs it at 1, 2 and 8).
    pub threads: usize,
    /// Caps the number of accepted rounds (`None` = unbounded).
    pub max_rounds: Option<usize>,
    /// Whether the paper's cost-function stop rule is active; disabling
    /// it runs partitioning until no partition is splittable (the
    /// depth-sweep ablation).
    pub cost_stop: bool,
    /// Which planning backend handles the request (see
    /// [`crate::backend`]). [`PartitionEngine`] itself ignores this — it
    /// *is* the hybrid backend — but the wire `PlanRequest`, the daemon
    /// and the CLI route on it, so it rides in the shared options struct.
    pub backend: crate::backend::BackendId,
}

impl Default for PlanOptions {
    /// The paper's defaults: largest-class splits, deterministic
    /// first-cell selection, automatic thread count, no round cap, cost
    /// stop active, hybrid backend.
    fn default() -> PlanOptions {
        PlanOptions {
            strategy: SplitStrategy::LargestClass,
            policy: CellSelection::First,
            threads: 0,
            max_rounds: None,
            cost_stop: true,
            backend: crate::backend::BackendId::Hybrid,
        }
    }
}

/// The paper's partitioning engine: iterative binary splits on
/// inter-correlated scan cells, gated by the control-bit cost function.
///
/// # Examples
///
/// Reproducing the paper's Fig. 5/6 worked example (m = 10, q = 2):
///
/// ```
/// use xhc_core::{CellSelection, PartitionEngine};
/// use xhc_misr::XCancelConfig;
/// use xhc_scan::{CellId, ScanConfig, XMapBuilder};
///
/// let cfg = ScanConfig::uniform(5, 3);
/// let mut b = XMapBuilder::new(cfg, 8);
/// for p in [0, 3, 4, 5] {
///     b.add_x(CellId::new(0, 0), p).unwrap();
///     b.add_x(CellId::new(1, 0), p).unwrap();
///     b.add_x(CellId::new(2, 0), p).unwrap();
/// }
/// for p in [0, 4] { b.add_x(CellId::new(1, 2), p).unwrap(); }
/// for p in [0, 1, 2, 3, 4, 6, 7] { b.add_x(CellId::new(3, 2), p).unwrap(); }
/// for p in [0, 1, 3, 4, 6, 7] { b.add_x(CellId::new(4, 1), p).unwrap(); }
/// b.add_x(CellId::new(4, 2), 5).unwrap();
/// let xmap = b.finish();
///
/// let outcome = PartitionEngine::new(XCancelConfig::new(10, 2)).run(&xmap);
/// assert_eq!(outcome.partitions.len(), 3);
/// assert_eq!(outcome.masked_x(), 23);
/// assert_eq!(outcome.leaked_x(), 5);
/// assert_eq!(outcome.cost.total_ceil(), 58);
/// ```
#[derive(Debug, Clone)]
pub struct PartitionEngine {
    cancel: XCancelConfig,
    opts: PlanOptions,
}

impl PartitionEngine {
    /// An engine with the paper's defaults ([`PlanOptions::default`]).
    pub fn new(cancel: XCancelConfig) -> Self {
        PartitionEngine::with_options(cancel, PlanOptions::default())
    }

    /// An engine with explicit options — the preferred constructor; the
    /// same [`PlanOptions`] travels through the wire format and the CLI.
    pub fn with_options(cancel: XCancelConfig, opts: PlanOptions) -> Self {
        PartitionEngine { cancel, opts }
    }

    /// The options this engine runs with.
    pub fn options(&self) -> PlanOptions {
        self.opts
    }

    /// The X-canceling configuration the cost function uses.
    pub fn cancel_config(&self) -> XCancelConfig {
        self.cancel
    }

    /// Runs the partitioning on an X map.
    ///
    /// Starts from the single all-pattern partition; each round picks,
    /// over all current partitions, the pivot class with the most cells
    /// (ties: higher X count, then lower partition index), splits that
    /// partition by the selected cell's X pattern set, and — when the cost
    /// stop is active — accepts the split only if the total control-bit
    /// cost strictly decreases.
    pub fn run(&self, xmap: &XMap) -> PartitionOutcome {
        self.run_with_matrix::<XBitMatrix>(xmap, None)
    }

    /// Like [`PartitionEngine::run`], with the packed `cells × patterns`
    /// rows the `BestCost` sweeps read passed in. `None` (what
    /// [`PartitionEngine::run`] passes) reads [`XMap::to_bitmatrix`], the
    /// map's own storage; a `Some` matrix must be that same data, which
    /// is asserted. `LargestClass` reads no matrix. The matrix may be
    /// passed as `&XBitMatrix` or as a reference to the `&XBitMatrix`
    /// that [`XMap::to_bitmatrix`] returns.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` differs from `xmap.to_bitmatrix()`.
    pub fn run_with_matrix<M: Borrow<XBitMatrix>>(
        &self,
        xmap: &XMap,
        matrix: Option<&M>,
    ) -> PartitionOutcome {
        let own = xmap.to_bitmatrix();
        let matrix = matrix.map_or(own, |m| {
            let m = m.borrow();
            assert!(
                std::ptr::eq(m, own) || m == own,
                "the matrix must be the X map's own rows"
            );
            m
        });
        let num_patterns = xmap.num_patterns();
        let total_x = xmap.total_x();
        let word_bits = xmap.config().mask_word_bits() as u128;
        let threads = match self.opts.threads {
            0 => xhc_par::max_threads(),
            t => t,
        };
        let mut run_span = xhc_trace::span("partition.run")
            .arg("patterns", num_patterns as u64)
            .arg("total_x", total_x as u64)
            .arg("threads", threads as u64);
        let mut rng = match self.opts.policy {
            CellSelection::Seeded(seed) => Some(XhcRng::seed_from_u64(seed)),
            _ => None,
        };

        let cost_from = |masked_x: usize, num_partitions: usize| -> HybridCost {
            let leaked_x = total_x - masked_x;
            HybridCost {
                masking_bits: word_bits * num_partitions as u128,
                canceling_bits: self.cancel.control_bits(leaked_x),
                masked_x,
                leaked_x,
                num_partitions,
            }
        };

        let mut infos = vec![PartitionInfo::compute(xmap, PatternSet::all(num_patterns))];
        // Masked-X total, maintained incrementally: a split replaces one
        // partition's contribution with its two children's.
        let mut masked_total = infos[0].masked_x;
        let mut scratch_pool: Vec<SplitScratch> = Vec::new();
        let initial_cost = cost_from(masked_total, 1);
        let mut cost = initial_cost.clone();
        let mut rounds = Vec::new();

        loop {
            if let Some(max) = self.opts.max_rounds {
                if rounds.len() >= max {
                    break;
                }
            }
            let mut round_span =
                xhc_trace::span("partition.round").arg("round", (rounds.len() + 1) as u64);
            // `(pi, pivot_cell, class_count, class_size, child_with,
            // child_without, next_cost)` of the accepted-candidate split.
            let chosen = match self.opts.strategy {
                SplitStrategy::LargestClass => {
                    // The paper's rule: largest pivot class wins.
                    let Some((pi, class_size, class_count)) = infos
                        .iter()
                        .enumerate()
                        .filter_map(|(i, info)| {
                            info.analysis
                                .pivot_class()
                                .map(|(count, cells)| (i, cells.len(), count))
                        })
                        .max_by(|a, b| {
                            (a.1, a.2, std::cmp::Reverse(a.0)).cmp(&(
                                b.1,
                                b.2,
                                std::cmp::Reverse(b.0),
                            ))
                        })
                    else {
                        break;
                    };
                    let (_, cells) = infos[pi].analysis.pivot_class().expect("candidate present");
                    let pivot_cell = match self.opts.policy {
                        CellSelection::First => cells[0],
                        CellSelection::Seeded(_) => *cells
                            .choose(rng.as_mut().expect("seeded rng"))
                            .expect("class is non-empty"),
                        CellSelection::GlobalMaxX => cells
                            .iter()
                            .copied()
                            .max_by_key(|&c| {
                                let cell = xmap.config().cell_at(c);
                                xmap.x_count(cell)
                            })
                            .expect("class is non-empty"),
                    };
                    let (w, wo) = infos[pi].split(xmap, pivot_cell, threads);
                    let next_cost = cost_from(
                        masked_total - infos[pi].masked_x + w.masked_x + wo.masked_x,
                        infos.len() + 1,
                    );
                    Some((pi, pivot_cell, class_count, class_size, w, wo, next_cost))
                }
                SplitStrategy::BestCost => {
                    // Extension: price a representative of every count
                    // class and keep the cheapest successor. Candidates
                    // are evaluated cost-only on the packed matrix — the
                    // masked-X total of each child is (#active cells
                    // whose X row covers the child) × |child| — and only
                    // the winner is materialised via `split()`. Bound
                    // pruning and the parallel fan-out are arranged so
                    // the selected pivot is exactly the one the original
                    // sequential fold over all candidates would pick.
                    let stride = matrix.stride();
                    let num_next = infos.len() + 1;
                    let candidates: Vec<(usize, usize, usize, usize)> = infos
                        .iter()
                        .enumerate()
                        .flat_map(|(pi, info)| {
                            let card = info.patterns.card();
                            info.analysis
                                .classes()
                                .filter(move |&(count, _)| count > 0 && count < card)
                                .map(move |(count, cells)| (pi, count, cells[0], cells.len()))
                        })
                        .collect();
                    round_span.set_arg("candidates", candidates.len() as u64);
                    xhc_trace::counter_add("partition.candidates", candidates.len() as u64);
                    let ctx: Vec<PartCtx> = infos.iter().map(PartCtx::build).collect();

                    // Cost-only evaluation: the exact masked-X total the
                    // materialised split would produce, without building
                    // it. A cell is fully-X in a child iff its X row is a
                    // superset of the child; such a cell is necessarily
                    // active in the parent, so the sweep is restricted to
                    // the parent's active entries and the parent's
                    // nonzero words.
                    // `kernel_threads` is the pool width this one
                    // candidate may fan its row sweep over: 1 when the
                    // pool is already busy across candidates, the full
                    // width when candidates are evaluated sequentially
                    // (the seed, and starved late rounds). Counts are
                    // identical either way — sharding only re-bands the
                    // row loop.
                    let eval = |scratch: &mut SplitScratch,
                                &(pi, count, rep, _size): &(usize, usize, usize, usize),
                                kernel_threads: usize|
                     -> usize {
                        let info = &infos[pi];
                        let pc = &ctx[pi];
                        scratch.ensure(stride);
                        let part_words = info.patterns.as_bits().as_words();
                        let pivot_pos = xmap.find_entry(rep).expect("pivot cell captures X");
                        let pivot_row = matrix.row(pivot_pos);
                        for &w in &pc.word_ids {
                            let w = w as usize;
                            let p = part_words[w];
                            let v = pivot_row[w];
                            scratch.child_a[w] = p & v;
                            scratch.child_b[w] = p & !v;
                        }
                        let rows = info.analysis.active_entries();
                        let (na, nb) = matrix.count_supersets_pair_sharded(
                            rows,
                            &pc.word_ids,
                            &scratch.child_a,
                            &scratch.child_b,
                            kernel_shards(rows.len(), kernel_threads),
                            kernel_threads,
                        );
                        let card = info.patterns.card();
                        masked_total - info.masked_x + na * count + nb * (card - count)
                    };

                    // Monotone lower bound per candidate: at most
                    // suffix(k) active cells can cover a child of size k
                    // (covering needs restricted count >= k), and the
                    // children's masked X's cannot exceed the parent's
                    // total X. More masked X never raises the cost, so
                    // pricing the bound's masked total bounds the true
                    // cost from below — in f64 too, since control_bits is
                    // nondecreasing in leaked X.
                    let bounds: Vec<f64> = candidates
                        .iter()
                        .map(|&(pi, count, _, _)| {
                            let info = &infos[pi];
                            let card = info.patterns.card();
                            let pc = &ctx[pi];
                            let ub_children = (pc.cells_with_count_ge(count) * count
                                + pc.cells_with_count_ge(card - count) * (card - count))
                                .min(info.analysis.total_x());
                            cost_from(masked_total - info.masked_x + ub_children, num_next).total()
                        })
                        .collect();

                    // Seed with the lowest-bound candidate (first on
                    // ties), evaluate it exactly, then prune every
                    // candidate whose bound strictly exceeds the seed's
                    // exact cost: such a candidate's cost is > the final
                    // minimum, so the original fold could never have
                    // selected it. All of this is sequential or
                    // order-preserving, so the outcome is identical at
                    // every thread count.
                    let mut seed: Option<usize> = None;
                    for (i, &b) in bounds.iter().enumerate() {
                        if seed.is_none_or(|s| b < bounds[s]) {
                            seed = Some(i);
                        }
                    }
                    seed.map(|seed| {
                        if scratch_pool.is_empty() {
                            scratch_pool.push(SplitScratch::default());
                        }
                        // The seed is evaluated alone, so its sweep gets
                        // the whole pool.
                        let seed_masked = eval(&mut scratch_pool[0], &candidates[seed], threads);
                        let seed_cost = cost_from(seed_masked, num_next).total();

                        let retained: Vec<usize> = (0..candidates.len())
                            .filter(|&i| i != seed && bounds[i] <= seed_cost)
                            .collect();
                        let pruned = (candidates.len() - 1 - retained.len()) as u64;
                        round_span.set_arg("pruned", pruned);
                        xhc_trace::counter_add("partition.pruned", pruned);
                        // Pick the parallel axis: enough survivors keep
                        // every worker busy across candidates (unsharded
                        // kernels); starved rounds — the final rounds of
                        // a full-size run, where pruning leaves a handful
                        // of candidates — flip to sequential candidates
                        // with each kernel sharded across the pool.
                        let evald: Vec<usize> = if retained.len() >= threads {
                            xhc_par::par_map_scratch_threads(
                                threads,
                                &mut scratch_pool,
                                &retained,
                                |scratch, &i| eval(scratch, &candidates[i], 1),
                            )
                        } else {
                            let scratch = &mut scratch_pool[0];
                            retained
                                .iter()
                                .map(|&i| eval(scratch, &candidates[i], threads))
                                .collect()
                        };
                        let mut masked_vals: Vec<Option<usize>> = vec![None; candidates.len()];
                        masked_vals[seed] = Some(seed_masked);
                        for (&i, m) in retained.iter().zip(evald) {
                            masked_vals[i] = Some(m);
                        }

                        // Sequential fold in candidate order: the first
                        // strict minimum wins, exactly as the unpruned
                        // fold over all candidates would.
                        let mut best: Option<(usize, usize, f64)> = None;
                        for (i, m) in masked_vals.iter().enumerate() {
                            let Some(m) = *m else { continue };
                            let t = cost_from(m, num_next).total();
                            if best.is_none_or(|(_, _, bt)| t < bt) {
                                best = Some((i, m, t));
                            }
                        }
                        let (i, masked_next, _) = best.expect("seed always evaluated");
                        let (pi, count, rep, size) = candidates[i];
                        let (w, wo) = infos[pi].split(xmap, rep, threads);
                        debug_assert_eq!(
                            masked_total - infos[pi].masked_x + w.masked_x + wo.masked_x,
                            masked_next,
                            "cost-only evaluation must match the materialised split"
                        );
                        let next_cost = cost_from(masked_next, num_next);
                        (pi, rep, count, size, w, wo, next_cost)
                    })
                }
            };
            let Some((pi, pivot_cell, class_count, class_size, child_w, child_wo, next_cost)) =
                chosen
            else {
                break;
            };
            round_span.set_arg("partition", pi as u64);
            round_span.set_arg("pivot", pivot_cell as u64);
            round_span.set_arg("class_count", class_count as u64);
            round_span.set_arg("class_size", class_size as u64);
            round_span.set_arg("masked_x", next_cost.masked_x as u64);
            round_span.set_arg("leaked_x", next_cost.leaked_x as u64);

            if self.opts.cost_stop && next_cost.total() >= cost.total() {
                round_span.set_arg("accepted", 0);
                break;
            }
            round_span.set_arg("accepted", 1);
            rounds.push(RoundRecord {
                round: rounds.len() + 1,
                split_partition: pi,
                pivot_cell,
                class_count,
                class_size,
                cost_after: next_cost.clone(),
            });
            masked_total = masked_total - infos[pi].masked_x + child_w.masked_x + child_wo.masked_x;
            infos[pi] = child_w;
            infos.insert(pi + 1, child_wo);
            cost = next_cost;
        }

        let partitions: Vec<PatternSet> = infos.into_iter().map(|i| i.patterns).collect();
        let (final_cost, masks) = hybrid_cost_with_masks(xmap, &partitions, self.cancel);
        debug_assert!((final_cost.total() - cost.total()).abs() < 1e-6);

        // Self-checks mirroring the xhc-lint rules (kept inline: lint
        // depends on this crate, so it cannot be called from here).
        #[cfg(debug_assertions)]
        {
            // XL0301 partition-cover: disjoint cover of the pattern set.
            let mut union = PatternSet::empty(num_patterns);
            for part in &partitions {
                debug_assert!(
                    union.is_disjoint_from(part),
                    "partition plan has overlapping partitions"
                );
                union = union.union(part);
            }
            debug_assert_eq!(
                union.card(),
                num_patterns,
                "partition plan does not cover every pattern"
            );
            // XL0302 unsafe-mask: a masked cell is X under every pattern
            // of its partition (no coverage loss).
            for (part, mask) in partitions.iter().zip(&masks) {
                for idx in 0..xmap.config().total_cells() {
                    if mask.masks(idx) {
                        let cell = xmap.config().cell_at(idx);
                        debug_assert!(
                            xmap.xset(cell).is_some_and(|xs| part.is_subset_of(xs)),
                            "mask gates a non-X response at cell {cell}"
                        );
                    }
                }
            }
            // XL0303 cost-mismatch: accounting balances the X budget.
            debug_assert_eq!(
                final_cost.masked_x + final_cost.leaked_x,
                total_x,
                "masked + leaked X must equal the map's total X"
            );
            debug_assert_eq!(final_cost.num_partitions, partitions.len());
        }

        run_span.set_arg("partitions", partitions.len() as u64);
        run_span.set_arg("rounds", rounds.len() as u64);
        run_span.set_arg("masked_x", final_cost.masked_x as u64);
        run_span.set_arg("leaked_x", final_cost.leaked_x as u64);
        PartitionOutcome {
            partitions,
            masks,
            cost: final_cost,
            initial_cost,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xhc_scan::{CellId, ScanConfig, XMapBuilder};

    fn fig4_xmap() -> XMap {
        let cfg = ScanConfig::uniform(5, 3);
        let mut b = XMapBuilder::new(cfg, 8);
        for p in [0, 3, 4, 5] {
            b.add_x(CellId::new(0, 0), p).unwrap();
            b.add_x(CellId::new(1, 0), p).unwrap();
            b.add_x(CellId::new(2, 0), p).unwrap();
        }
        for p in [0, 4] {
            b.add_x(CellId::new(1, 2), p).unwrap();
        }
        for p in [0, 1, 2, 3, 4, 6, 7] {
            b.add_x(CellId::new(3, 2), p).unwrap();
        }
        for p in [0, 1, 3, 4, 6, 7] {
            b.add_x(CellId::new(4, 1), p).unwrap();
        }
        b.add_x(CellId::new(4, 2), 5).unwrap();
        b.finish()
    }

    #[test]
    fn fig5_full_run_m10_q2() {
        // The paper's main worked example: two rounds, final partitions
        // {P2,P3,P7,P8}, {P1,P4,P5}, {P6}; 23 masked, 5 leaked, 58 bits.
        let xmap = fig4_xmap();
        let outcome = PartitionEngine::new(XCancelConfig::new(10, 2)).run(&xmap);
        assert_eq!(outcome.rounds.len(), 2);
        assert_eq!(outcome.partitions.len(), 3);
        let got: std::collections::BTreeSet<Vec<usize>> = outcome
            .partitions
            .iter()
            .map(|p| p.iter().collect())
            .collect();
        let want: std::collections::BTreeSet<Vec<usize>> =
            [vec![1usize, 2, 6, 7], vec![0, 3, 4], vec![5]]
                .into_iter()
                .collect();
        assert_eq!(got, want);
        assert_eq!(outcome.masked_x(), 23);
        assert_eq!(outcome.leaked_x(), 5);
        assert_eq!(outcome.cost.total_ceil(), 58);
        assert_eq!(outcome.cost.masking_bits, 45);
        // Round 1 split the whole set on SC1[0] (linear 0); round 2 split
        // partition with X's on SC4[2] (linear 11).
        assert_eq!(outcome.rounds[0].pivot_cell, 0);
        assert_eq!(outcome.rounds[0].class_size, 3);
        assert_eq!(outcome.rounds[0].class_count, 4);
        assert_eq!(outcome.rounds[1].pivot_cell, 11);
        assert_eq!(outcome.rounds[1].class_size, 2);
        assert_eq!(outcome.rounds[1].class_count, 3);
    }

    #[test]
    fn fig5_stops_after_round1_with_m10_q1() {
        // With m=10, q=1 the cost function stops after round 1 (44 < 51).
        let xmap = fig4_xmap();
        let outcome = PartitionEngine::new(XCancelConfig::new(10, 1)).run(&xmap);
        assert_eq!(outcome.rounds.len(), 1);
        assert_eq!(outcome.partitions.len(), 2);
        assert_eq!(outcome.cost.total_ceil(), 44);
        let got: std::collections::BTreeSet<Vec<usize>> = outcome
            .partitions
            .iter()
            .map(|p| p.iter().collect())
            .collect();
        let want: std::collections::BTreeSet<Vec<usize>> =
            [vec![0usize, 3, 4, 5], vec![1, 2, 6, 7]]
                .into_iter()
                .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn partitions_always_partition_the_pattern_set() {
        let xmap = fig4_xmap();
        for cancel in [
            XCancelConfig::new(10, 2),
            XCancelConfig::new(10, 1),
            XCancelConfig::new(32, 7),
        ] {
            let outcome = PartitionEngine::new(cancel).run(&xmap);
            let mut union = PatternSet::empty(8);
            let mut card_sum = 0;
            for p in &outcome.partitions {
                assert!(union.is_disjoint_from(p), "partitions overlap");
                union = union.union(p);
                card_sum += p.card();
            }
            assert_eq!(card_sum, 8);
            assert_eq!(union, PatternSet::all(8));
        }
    }

    #[test]
    fn masks_never_cover_non_x_values() {
        // The paper's no-coverage-loss guarantee, checked exhaustively.
        let xmap = fig4_xmap();
        let outcome = PartitionEngine::new(XCancelConfig::new(10, 2)).run(&xmap);
        for (mask, part) in outcome.masks.iter().zip(&outcome.partitions) {
            for idx in 0..xmap.config().total_cells() {
                if mask.masks(idx) {
                    let cell = xmap.config().cell_at(idx);
                    for p in part.iter() {
                        assert!(
                            xmap.is_x(p, cell),
                            "mask covers non-X value of {cell} at pattern {p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn without_cost_stop_runs_until_unsplittable() {
        let xmap = fig4_xmap();
        let opts = PlanOptions {
            cost_stop: false,
            ..PlanOptions::default()
        };
        let outcome = PartitionEngine::with_options(XCancelConfig::new(10, 1), opts).run(&xmap);
        // q=1 cost stop would stop at round 1; without it we reach the
        // fully-split state (3 partitions, like the q=2 run).
        assert_eq!(outcome.partitions.len(), 3);
    }

    #[test]
    fn max_rounds_caps_splits() {
        let xmap = fig4_xmap();
        let opts = PlanOptions {
            max_rounds: Some(1),
            ..PlanOptions::default()
        };
        let outcome = PartitionEngine::with_options(XCancelConfig::new(10, 2), opts).run(&xmap);
        assert_eq!(outcome.rounds.len(), 1);
        assert_eq!(outcome.partitions.len(), 2);
    }

    #[test]
    fn selection_policies_agree_on_fig4() {
        // The three count-4 cells share an identical X pattern set, so any
        // selection policy yields the same partitions.
        let xmap = fig4_xmap();
        let base = PartitionEngine::new(XCancelConfig::new(10, 2)).run(&xmap);
        for policy in [CellSelection::Seeded(99), CellSelection::GlobalMaxX] {
            let opts = PlanOptions {
                policy,
                ..PlanOptions::default()
            };
            let other = PartitionEngine::with_options(XCancelConfig::new(10, 2), opts).run(&xmap);
            let a: std::collections::BTreeSet<Vec<usize>> =
                base.partitions.iter().map(|p| p.iter().collect()).collect();
            let b: std::collections::BTreeSet<Vec<usize>> = other
                .partitions
                .iter()
                .map(|p| p.iter().collect())
                .collect();
            assert_eq!(a, b, "{policy:?} diverged");
        }
    }

    #[test]
    fn x_free_map_yields_single_partition() {
        let cfg = ScanConfig::uniform(2, 2);
        let xmap = XMapBuilder::new(cfg, 5).finish();
        let outcome = PartitionEngine::new(XCancelConfig::new(8, 2)).run(&xmap);
        assert_eq!(outcome.partitions.len(), 1);
        assert_eq!(outcome.masked_x(), 0);
        assert_eq!(outcome.leaked_x(), 0);
        assert!(outcome.rounds.is_empty());
    }

    #[test]
    fn best_cost_strategy_never_worse_on_fig4() {
        let xmap = fig4_xmap();
        let best_opts = PlanOptions {
            strategy: SplitStrategy::BestCost,
            ..PlanOptions::default()
        };
        for cancel in [XCancelConfig::new(10, 2), XCancelConfig::new(10, 1)] {
            let greedy = PartitionEngine::new(cancel).run(&xmap);
            let best = PartitionEngine::with_options(cancel, best_opts).run(&xmap);
            assert!(
                best.cost.total() <= greedy.cost.total() + 1e-9,
                "BestCost {} must be <= greedy {}",
                best.cost.total(),
                greedy.cost.total()
            );
            // Invariants still hold.
            let card: usize = best.partitions.iter().map(PatternSet::card).sum();
            assert_eq!(card, 8);
            assert_eq!(best.masked_x() + best.leaked_x(), xmap.total_x());
        }
    }

    #[test]
    fn best_cost_can_pivot_on_singleton_classes() {
        // A map where the only worthwhile pivot is a singleton class: one
        // dominant cell with X's in half the patterns, all other cells
        // unique counts. The paper's rule cannot split (no class >= 2);
        // BestCost can.
        let cfg = ScanConfig::uniform(1, 4);
        let mut b = XMapBuilder::new(cfg, 40);
        // Dominant cell: X under patterns 0..20.
        for p in 0..20 {
            b.add_x(CellId::new(0, 0), p).unwrap();
        }
        // Unique-count companions fully inside the dominant set.
        for p in 0..5 {
            b.add_x(CellId::new(0, 1), p).unwrap();
        }
        for p in 0..9 {
            b.add_x(CellId::new(0, 2), p).unwrap();
        }
        let xmap = b.finish();
        let cancel = XCancelConfig::new(4, 2);
        let greedy = PartitionEngine::new(cancel).run(&xmap);
        assert_eq!(greedy.partitions.len(), 1, "paper's rule cannot split");
        let best = PartitionEngine::with_options(
            cancel,
            PlanOptions {
                strategy: SplitStrategy::BestCost,
                ..PlanOptions::default()
            },
        )
        .run(&xmap);
        assert!(
            best.partitions.len() > 1,
            "BestCost splits on the singleton"
        );
        assert!(best.cost.total() < greedy.cost.total());
        assert!(best.masked_x() >= 20);
    }

    #[test]
    fn new_runs_with_the_default_options() {
        let engine = PartitionEngine::new(XCancelConfig::new(10, 2));
        assert_eq!(engine.options(), PlanOptions::default());
        let opts = PlanOptions::default();
        assert_eq!(opts.strategy, SplitStrategy::LargestClass);
        assert_eq!(opts.policy, CellSelection::First);
        assert_eq!(opts.threads, 0);
        assert_eq!(opts.max_rounds, None);
        assert!(opts.cost_stop);
        assert_eq!(opts.backend, crate::backend::BackendId::Hybrid);
    }

    #[test]
    fn cost_trace_is_strictly_decreasing_with_cost_stop() {
        let xmap = fig4_xmap();
        let outcome = PartitionEngine::new(XCancelConfig::new(10, 2)).run(&xmap);
        let mut prev = outcome.initial_cost.total();
        for r in &outcome.rounds {
            assert!(r.cost_after.total() < prev);
            prev = r.cost_after.total();
        }
    }
}
