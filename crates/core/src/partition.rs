//! The pattern-partitioning algorithm (the paper's §4, Algorithm 1).

use crate::backend::BackendId;
use crate::correlation::CorrelationAnalysis;
use crate::cost::HybridCost;
use std::borrow::Borrow;
use std::cmp::Reverse;
use xhc_bits::{BitVec, PatternSet, XBitMatrix};
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

impl CellSelection {
    /// The stable token (`policy=` query value, `--policy` flag value).
    /// A seeded policy's seed travels separately, as `seed`.
    pub fn name(self) -> &'static str {
        match self {
            CellSelection::First => "first",
            CellSelection::Seeded(_) => "seeded",
            CellSelection::GlobalMaxX => "global-max-x",
        }
    }

    /// Parses a policy token as produced by [`CellSelection::name`];
    /// `seed` is the stream seed a `seeded` policy binds. An unknown
    /// token is an error carrying the message the CLI and the daemon
    /// print.
    pub fn parse(s: &str, seed: u64) -> Result<CellSelection, String> {
        [
            CellSelection::First,
            CellSelection::Seeded(seed),
            CellSelection::GlobalMaxX,
        ]
        .into_iter()
        .find(|p| p.name() == s)
        .ok_or_else(|| {
            format!("`{s}` is not a policy (expected `first`, `seeded` or `global-max-x`)")
        })
    }
}

/// How the engine chooses *which* split to attempt each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// The paper's rule: the pivot class with the most cells, over all
    /// partitions (ties: higher X count, lower partition index).
    #[default]
    LargestClass,
    /// An extension beyond the paper: price the split on a
    /// representative of *every* count class (including singletons) in
    /// every partition and take the cheapest. Each partition is priced
    /// once, when it is made (a split changes no other partition's
    /// prices); can beat the greedy rule on weakly-correlated profiles.
    BestCost,
}

impl SplitStrategy {
    /// The stable token (`strategy=` query value, `--strategy` flag
    /// value).
    pub fn name(self) -> &'static str {
        match self {
            SplitStrategy::LargestClass => "largest",
            SplitStrategy::BestCost => "best-cost",
        }
    }

    /// Parses a strategy token as produced by [`SplitStrategy::name`]; an
    /// unknown token is an error carrying the message the CLI and the
    /// daemon print.
    pub fn parse(s: &str) -> Result<SplitStrategy, String> {
        [SplitStrategy::LargestClass, SplitStrategy::BestCost]
            .into_iter()
            .find(|st| st.name() == s)
            .ok_or_else(|| format!("`{s}` is not a strategy (expected `largest` or `best-cost`)"))
    }
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

/// A `BestCost` split candidate of one partition: split on the X pattern
/// set of `rep`, the lowest-indexed cell of the count class `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    /// X's the split adds to the masked total: the two children's
    /// fully-X cells times their sizes, minus the partition's own
    /// masked X. It never changes while the partition stands, and the
    /// cost strictly falls as it grows.
    gain: usize,
    /// Position of the class among the partition's splittable classes,
    /// in ascending count order (the tie-break within a partition).
    class_idx: usize,
    count: usize,
    rep: usize,
    size: usize,
}

/// What `BestCost` remembers of a partition between rounds: the best
/// candidate it priced and a ceiling over the ones it skipped.
#[derive(Debug, Clone)]
struct BestSplit {
    /// The first maximum-gain candidate among those priced.
    best: Option<Candidate>,
    /// Every candidate whose gain bound is below `limit` is unpriced
    /// (`usize::MAX` before the first pricing, `0` once none is left).
    limit: usize,
    /// The highest skipped bound, and the class index of the first
    /// skipped candidate that reaches it.
    ceiling: Option<(usize, usize)>,
    /// How many candidates were skipped.
    skipped: usize,
}

impl BestSplit {
    fn unpriced() -> Self {
        BestSplit {
            best: None,
            limit: usize::MAX,
            ceiling: None,
            skipped: 0,
        }
    }
}

/// A partition's memo of its own best split, fixed until the partition
/// itself is split (a split changes no other partition's classes).
#[derive(Debug, Clone)]
enum SplitMemo {
    /// `LargestClass`: the partition's [`CorrelationAnalysis::pivot_class`],
    /// with its cells so every [`CellSelection`] picks from them.
    Pivot(Option<(usize, Vec<usize>)>),
    /// `BestCost`: the priced candidates.
    Best(BestSplit),
}

/// Per-partition state between rounds: the patterns, their fully-X
/// cells and the memo. No partition keeps its [`CorrelationAnalysis`]:
/// a split needs only the parent's, and pricing only the children's
/// (see [`Newest`]).
#[derive(Debug, Clone)]
struct PartitionInfo {
    patterns: PatternSet,
    /// Linear indices of the cells X under every pattern of the
    /// partition: the cells its mask word gates.
    fully_x: Vec<u32>,
    memo: SplitMemo,
}

impl PartitionInfo {
    /// A partition whose split candidates are not priced yet
    /// (`LargestClass` needs no pricing: its memo is the pivot class).
    fn new(patterns: PatternSet, analysis: &CorrelationAnalysis, strategy: SplitStrategy) -> Self {
        let memo = match strategy {
            SplitStrategy::LargestClass => SplitMemo::Pivot(
                analysis
                    .pivot_class()
                    .map(|(count, cells)| (count, cells.to_vec())),
            ),
            SplitStrategy::BestCost => SplitMemo::Best(BestSplit::unpriced()),
        };
        PartitionInfo {
            patterns,
            fully_x: analysis.fully_x_cells().iter().map(|&c| c as u32).collect(),
            memo,
        }
    }

    /// X's the partition's mask removes: its fully-X cells times its
    /// size.
    fn masked_x(&self) -> usize {
        self.fully_x.len() * self.patterns.card()
    }

    /// The best priced `BestCost` candidate.
    fn best(&self) -> Option<Candidate> {
        match &self.memo {
            SplitMemo::Best(memo) => memo.best,
            SplitMemo::Pivot(_) => None,
        }
    }
}

/// Masked X of a partition: its fully-X cells times its size.
fn masked_of(analysis: &CorrelationAnalysis) -> usize {
    analysis.fully_x_cells().len() * analysis.partition_card()
}

/// The analyses of the partitions the last split made (the root's
/// before round 1), by partition index, kept until the next split. That
/// split often takes one of them and then needs no rebuild; any other
/// partition's analysis is rebuilt with one full scan. A split drops the
/// rest first, so at most three analyses are alive at once: a parent
/// and its two children.
struct Newest(Vec<(usize, CorrelationAnalysis)>);

impl Newest {
    fn of(&self, pi: usize) -> Option<&CorrelationAnalysis> {
        self.0.iter().find(|(i, _)| *i == pi).map(|(_, a)| a)
    }

    /// Splits partition `pi`, holding `patterns`, on the pivot cell's X
    /// pattern set: both children come out of one delta pass over its
    /// active cells, and their analyses become the newest, at `pi` and
    /// `pi + 1`.
    fn split(
        &mut self,
        xmap: &XMap,
        pi: usize,
        patterns: &PatternSet,
        pivot_cell: usize,
        threads: usize,
    ) -> [PatternSet; 2] {
        let kept = self
            .0
            .iter()
            .position(|(i, _)| *i == pi)
            .map(|k| self.0.swap_remove(k).1);
        self.0.clear();
        let parent = kept.unwrap_or_else(|| CorrelationAnalysis::analyze(xmap, patterns));
        let xset = xmap.xset_linear(pivot_cell).expect("pivot cell captures X");
        let (with_x, without_x) = patterns.split_by(xset);
        debug_assert!(!with_x.is_empty() && !without_x.is_empty());
        let (a_with, a_without) = parent.analyze_children(xmap, &with_x, threads);
        self.0 = vec![(pi, a_with), (pi + 1, a_without)];
        [with_x, without_x]
    }
}

/// Reusable per-worker word buffers for the cost-only split evaluator.
///
/// The superset-counting kernel only reads words at a partition's
/// nonzero word indices, and the evaluator only writes those same
/// indices, so the buffers are never zeroed between candidates — they
/// just need capacity. One `SplitScratch` per worker lives in the
/// [`Pricer`]'s pool and is reused across rounds.
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
/// rows of `words` words on a `kernel_threads`-wide pool: one shard per
/// worker, but never so many that a shard drops under [`MIN_SHARD_ROWS`]
/// rows or [`xhc_par::MIN_WORKER_WORDS`] word tests.
fn kernel_shards(rows: usize, words: usize, kernel_threads: usize) -> usize {
    if kernel_threads <= 1 {
        1
    } else {
        kernel_threads
            .min(rows / MIN_SHARD_ROWS)
            .min(rows * words / xhc_par::MIN_WORKER_WORDS)
            .max(1)
    }
}

/// Per-partition context shared by all of that partition's split
/// candidates: the partition's word mask and a suffix histogram of
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
    fn build(patterns: &PatternSet, analysis: &CorrelationAnalysis) -> Self {
        let word_ids: Vec<u32> = patterns
            .as_bits()
            .nonzero_word_indices()
            .map(|w| w as u32)
            .collect();
        let mut counts = Vec::new();
        let mut suffix = Vec::new();
        for (count, cells) in analysis.classes() {
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

/// The partition holding the top key over every priced candidate and
/// every skipped ceiling, and whether that key is a priced candidate.
/// Keys order by gain (or bound), then earlier partition, then earlier
/// class; no two are equal.
fn top_key(infos: &[PartitionInfo]) -> Option<(usize, bool)> {
    infos
        .iter()
        .enumerate()
        .filter_map(|(pi, info)| match &info.memo {
            SplitMemo::Best(memo) => Some((pi, memo)),
            SplitMemo::Pivot(_) => None,
        })
        .flat_map(|(pi, memo)| {
            let priced = memo.best.map(|c| (c.gain, c.class_idx, true));
            let skipped = memo.ceiling.map(|(ub, idx)| (ub, idx, false));
            [priced, skipped]
                .into_iter()
                .flatten()
                .map(move |(gain, idx, priced)| ((gain, Reverse(pi), Reverse(idx)), pi, priced))
        })
        .max_by_key(|&(key, ..)| key)
        .map(|(_, pi, priced)| (pi, priced))
}

/// The bound below which a candidate of the partition at `at` cannot
/// win: it is beaten by some partition's best priced candidate, or tied
/// by one that comes first — another partition's only when that
/// partition stands earlier, its own never (the own best may sit at a
/// later class).
fn prune_limit(infos: &[PartitionInfo], at: usize) -> usize {
    infos
        .iter()
        .enumerate()
        .filter_map(|(pi, info)| info.best().map(|c| c.gain + usize::from(at > pi)))
        .max()
        .unwrap_or(0)
}

/// Prices `BestCost` candidates cost-only on the packed matrix.
struct Pricer<'a> {
    xmap: &'a XMap,
    matrix: &'a XBitMatrix,
    threads: usize,
    scratch_pool: Vec<SplitScratch>,
}

impl Pricer<'_> {
    /// Prices the partition at `at` from its analysis: every candidate
    /// not yet priced whose gain bound reaches [`prune_limit`]. The rest
    /// are skipped and only raise the memo's ceiling. Returns
    /// `(considered, priced)`.
    ///
    /// Which candidates are priced depends on the bounds and the memos
    /// alone, never on the order in which the pool finishes, so the memo
    /// is identical at every thread count.
    fn price_at(
        &mut self,
        infos: &mut [PartitionInfo],
        at: usize,
        analysis: &CorrelationAnalysis,
    ) -> (usize, usize) {
        let limit = prune_limit(infos, at);
        let info = &mut infos[at];
        let masked_x = info.masked_x();
        let SplitMemo::Best(memo) = &mut info.memo else {
            unreachable!("only BestCost partitions are priced");
        };
        let patterns = &info.patterns;
        let (xmap, matrix) = (self.xmap, self.matrix);
        let card = patterns.card();
        let ctx = PartCtx::build(patterns, analysis);

        // Gain bound per candidate: at most suffix(k) active cells can
        // cover a child of size k (covering needs restricted count >= k),
        // and the children's masked X's cannot exceed the partition's
        // total X. A fully-X cell counts toward both children, so the
        // bound never drops below the partition's own masked X.
        // `(class_idx, count, rep, size, bound)` of every candidate not
        // priced before.
        let unpriced: Vec<(usize, usize, usize, usize, usize)> = analysis
            .classes()
            .filter(|&(count, _)| count < card)
            .enumerate()
            .map(|(class_idx, (count, cells))| {
                let ub = (ctx.cells_with_count_ge(count) * count
                    + ctx.cells_with_count_ge(card - count) * (card - count))
                    .min(analysis.total_x())
                    - masked_x;
                (class_idx, count, cells[0], cells.len(), ub)
            })
            .filter(|&(.., ub)| ub < memo.limit)
            .collect();

        // Cost-only evaluation: the gain of a split, from the exact
        // masked X each child would have, without building it. A cell
        // is fully-X in a child iff its X row is a superset of the
        // child; such a cell is necessarily active in the partition, so
        // the sweep is restricted to the partition's active entries and
        // nonzero words. `kernel_threads` is the pool width one
        // candidate may fan its row sweep over: 1 when the pool is
        // already busy across candidates, the full width when the
        // candidates are too few or too small to fill it. Counts are
        // identical either way — sharding only re-bands the row loop.
        let stride = matrix.stride();
        let rows = analysis.active_entries();
        let part_words = patterns.as_bits().as_words();
        let eval = |scratch: &mut SplitScratch,
                    &(_, count, rep, _, _): &(usize, usize, usize, usize, usize),
                    kernel_threads: usize|
         -> usize {
            scratch.ensure(stride);
            let pivot_pos = xmap.find_entry(rep).expect("pivot cell captures X");
            let pivot_row = matrix.row(pivot_pos);
            for &w in &ctx.word_ids {
                let w = w as usize;
                let p = part_words[w];
                let v = pivot_row[w];
                scratch.child_a[w] = p & v;
                scratch.child_b[w] = p & !v;
            }
            let (na, nb) = matrix.count_supersets_pair_sharded(
                rows,
                &ctx.word_ids,
                &scratch.child_a,
                &scratch.child_b,
                kernel_shards(rows.len(), ctx.word_ids.len(), kernel_threads),
                kernel_threads,
            );
            na * count + nb * (card - count) - masked_x
        };
        let threads = self.threads;
        if self.scratch_pool.is_empty() {
            self.scratch_pool.push(SplitScratch::default());
        }

        // Seed: the first candidate with the highest bound, priced alone
        // (its sweep gets the whole pool). Its gain raises the limit for
        // the rest, strictly, since it may sit at a later class.
        let mut limit = limit;
        let mut priced = Vec::new();
        let seed = unpriced
            .iter()
            .filter(|&&(.., ub)| ub >= limit)
            .max_by_key(|&&(class_idx, .., ub)| (ub, Reverse(class_idx)));
        if let Some(seed) = seed {
            let gain = eval(&mut self.scratch_pool[0], seed, threads);
            limit = limit.max(gain);
            priced.push((*seed, gain));
        }
        let kept: Vec<_> = unpriced
            .iter()
            .copied()
            .filter(|&(class_idx, .., ub)| ub >= limit && Some(class_idx) != seed.map(|s| s.0))
            .collect();
        let fan_out = kept.len() >= threads
            && kept.len() * rows.len() * ctx.word_ids.len() >= threads * xhc_par::MIN_WORKER_WORDS;
        let gains: Vec<usize> = if fan_out {
            xhc_par::par_map_scratch_threads(threads, &mut self.scratch_pool, &kept, |s, c| {
                eval(s, c, 1)
            })
        } else {
            let scratch = &mut self.scratch_pool[0];
            kept.iter().map(|c| eval(scratch, c, threads)).collect()
        };
        priced.extend(kept.into_iter().zip(gains));

        // The first maximum in class order, over the memo's earlier
        // best and the candidates priced now.
        for &((class_idx, count, rep, size, _), gain) in &priced {
            let better = memo
                .best
                .is_none_or(|b| gain > b.gain || (gain == b.gain && class_idx < b.class_idx));
            if better {
                memo.best = Some(Candidate {
                    gain,
                    class_idx,
                    count,
                    rep,
                    size,
                });
            }
        }
        memo.limit = memo.limit.min(limit);
        memo.ceiling = None;
        memo.skipped = 0;
        for &(class_idx, .., ub) in unpriced.iter().filter(|&&(.., ub)| ub < limit) {
            memo.skipped += 1;
            if memo.ceiling.is_none_or(|(c, _)| ub > c) {
                memo.ceiling = Some((ub, class_idx));
            }
        }
        (unpriced.len(), priced.len())
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
    /// Worker-pool width for every engine fan-out: candidate pricing,
    /// kernel shards and child re-analysis.
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
    pub backend: BackendId,
}

impl PlanOptions {
    /// The query names [`PlanOptions::from_params`] reads, and only those:
    /// the daemon rejects any other name on a plan route, and the CLI's
    /// engine flags are these with dashes for underscores.
    pub const PARAMS: [&'static str; 6] = [
        "strategy",
        "policy",
        "seed",
        "max_rounds",
        "cost_stop",
        "backend",
    ];

    /// Reads every option but `threads` by its query name
    /// ([`PlanOptions::PARAMS`]) through `get`; an absent one keeps its
    /// [`Default`]. The daemon passes its query string, the `xhybrid` CLI
    /// its flags (`--max-rounds` for `max_rounds`), so both accept and
    /// reject the same values with the same message.
    ///
    /// ```
    /// use xhc_core::{CellSelection, PlanOptions};
    ///
    /// let query = [("policy", "seeded"), ("seed", "3")];
    /// let get = |name: &str| query.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    /// let opts = PlanOptions::from_params(get).unwrap();
    /// assert_eq!(opts.policy, CellSelection::Seeded(3));
    /// assert_eq!(
    ///     PlanOptions::from_params(|name| (name == "seed").then_some("3")),
    ///     Err("`seed` requires `policy=seeded`".to_string())
    /// );
    /// ```
    ///
    /// The error is the first rejected value's message, one line.
    pub fn from_params<'a>(get: impl Fn(&str) -> Option<&'a str>) -> Result<PlanOptions, String> {
        let defaults = PlanOptions::default();
        let strategy = get("strategy").map_or(Ok(defaults.strategy), SplitStrategy::parse)?;
        let seed = get("seed")
            .map(|raw| {
                raw.parse::<u64>()
                    .map_err(|_| format!("`{raw}` is not a valid `seed`"))
            })
            .transpose()?;
        let policy = get("policy").map_or(Ok(defaults.policy), |raw| {
            CellSelection::parse(raw, seed.unwrap_or(0))
        })?;
        if seed.is_some() && !matches!(policy, CellSelection::Seeded(_)) {
            return Err("`seed` requires `policy=seeded`".to_string());
        }
        let max_rounds = get("max_rounds")
            .map(|raw| {
                raw.parse::<usize>()
                    .map_err(|_| format!("`{raw}` is not a valid `max_rounds`"))
            })
            .transpose()?;
        let cost_stop = match get("cost_stop") {
            None | Some("1") => true,
            Some("0") => false,
            Some(raw) => {
                return Err(format!(
                    "`{raw}` is not a valid `cost_stop` (expected `0` or `1`)"
                ))
            }
        };
        let backend = get("backend").map_or(Ok(defaults.backend), BackendId::parse)?;
        Ok(PlanOptions {
            strategy,
            policy,
            max_rounds,
            cost_stop,
            backend,
            ..defaults
        })
    }
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
            backend: BackendId::Hybrid,
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
        let strategy = self.opts.strategy;
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

        let mut pricer = Pricer {
            xmap,
            matrix,
            threads,
            scratch_pool: Vec::new(),
        };
        // BestCost counts: candidates once, when their partition is
        // first priced; pruned when their partition leaves the plan (is
        // split, or is final) without ever having priced them.
        let mut candidates = 0;
        let mut pruned = 0;

        let root = PatternSet::all(num_patterns);
        let mut newest = Newest(vec![(0, CorrelationAnalysis::analyze(xmap, &root))]);
        let root_analysis = newest.of(0).expect("the root is analyzed");
        let mut infos = vec![PartitionInfo::new(root, root_analysis, strategy)];
        if strategy == SplitStrategy::BestCost {
            candidates += pricer.price_at(&mut infos, 0, root_analysis).0;
        }
        // Masked-X total, maintained incrementally: a split replaces one
        // partition's contribution with its two children's.
        let mut masked_total = infos[0].masked_x();
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
            let num_next = infos.len() + 1;
            // `(pi, pivot_cell, class_count, class_size, next_masked,
            // children)`; BestCost knows the masked total from its memo
            // and materialises the split only once it is accepted, while
            // LargestClass splits first to learn it.
            let (pi, pivot_cell, class_count, class_size, next_masked, children) = match strategy {
                SplitStrategy::LargestClass => {
                    // The paper's rule: largest pivot class wins.
                    let Some((pi, count, cells)) = infos
                        .iter()
                        .enumerate()
                        .filter_map(|(i, info)| match &info.memo {
                            SplitMemo::Pivot(Some((count, cells))) => Some((i, *count, cells)),
                            _ => None,
                        })
                        .max_by(|a, b| {
                            (a.2.len(), a.1, Reverse(a.0)).cmp(&(b.2.len(), b.1, Reverse(b.0)))
                        })
                    else {
                        break;
                    };
                    #[cfg(debug_assertions)]
                    oracle::largest_class(xmap, &infos, (pi, count, cells));
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
                    let children = newest.split(xmap, pi, &infos[pi].patterns, pivot_cell, threads);
                    let next_masked = masked_total - infos[pi].masked_x()
                        + masked_of(newest.of(pi).expect("child analyzed"))
                        + masked_of(newest.of(pi + 1).expect("child analyzed"));
                    (
                        pi,
                        pivot_cell,
                        count,
                        cells.len(),
                        next_masked,
                        Some(children),
                    )
                }
                SplitStrategy::BestCost => {
                    // Extension: the best priced candidate wins, first
                    // in (partition, class) order on equal gains. While a
                    // skipped ceiling outranks it, that partition prices
                    // the candidates it skipped and the pick is redone.
                    let mut settled = 0;
                    let winner = loop {
                        match top_key(&infos) {
                            None => break None,
                            Some((pi, true)) => break Some(pi),
                            Some((pi, false)) => {
                                let rebuilt;
                                let analysis = match newest.of(pi) {
                                    Some(analysis) => analysis,
                                    None => {
                                        rebuilt =
                                            CorrelationAnalysis::analyze(xmap, &infos[pi].patterns);
                                        &rebuilt
                                    }
                                };
                                // The ceiling's candidate outranks every
                                // priced one, so it passes the bound now:
                                // each pass prices something, and the
                                // pick terminates.
                                let (_, priced) = pricer.price_at(&mut infos, pi, analysis);
                                assert!(priced > 0, "a settling pass must price its ceiling");
                                settled += 1;
                            }
                        }
                    };
                    round_span.set_arg("settled", settled);
                    let Some(pi) = winner else {
                        break;
                    };
                    let best = infos[pi].best().expect("the top key is a priced candidate");
                    let next_masked = masked_total + best.gain;
                    #[cfg(debug_assertions)]
                    oracle::best_cost(
                        xmap,
                        &infos,
                        masked_total,
                        &|masked| cost_from(masked, num_next).total(),
                        (pi, best.rep, next_masked),
                    );
                    (pi, best.rep, best.count, best.size, next_masked, None)
                }
            };
            let next_cost = cost_from(next_masked, num_next);
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
            let [with_x, without_x] = children.unwrap_or_else(|| {
                newest.split(xmap, pi, &infos[pi].patterns, pivot_cell, threads)
            });
            let a_with = newest.of(pi).expect("child analyzed");
            let a_without = newest.of(pi + 1).expect("child analyzed");
            debug_assert_eq!(
                masked_total - infos[pi].masked_x() + masked_of(a_with) + masked_of(a_without),
                next_masked,
                "cost-only evaluation must match the materialised split"
            );
            if let SplitMemo::Best(memo) = &infos[pi].memo {
                pruned += memo.skipped;
            }
            infos[pi] = PartitionInfo::new(with_x, a_with, strategy);
            infos.insert(pi + 1, PartitionInfo::new(without_x, a_without, strategy));
            if strategy == SplitStrategy::BestCost {
                // Price each child once, against every other
                // partition's best candidate, the sibling's included.
                let (mut considered, mut priced) = (0, 0);
                for (at, analysis) in [(pi, a_with), (pi + 1, a_without)] {
                    let (c, p) = pricer.price_at(&mut infos, at, analysis);
                    considered += c;
                    priced += p;
                }
                candidates += considered;
                round_span.set_arg("candidates", considered as u64);
                round_span.set_arg("pruned", (considered - priced) as u64);
            }
            masked_total = next_masked;
            cost = next_cost;
        }
        if strategy == SplitStrategy::BestCost {
            for info in &infos {
                if let SplitMemo::Best(memo) = &info.memo {
                    pruned += memo.skipped;
                }
            }
            xhc_trace::counter_add("partition.candidates", candidates as u64);
            xhc_trace::counter_add("partition.pruned", pruned as u64);
        }

        // Each mask gates exactly its partition's fully-X cells, so the
        // incremental cost is the plan's cost.
        let total_cells = xmap.config().total_cells();
        let (partitions, masks): (Vec<PatternSet>, Vec<MaskWord>) = infos
            .into_iter()
            .map(|info| {
                let mut bits = BitVec::zeros(total_cells);
                for &cell in &info.fully_x {
                    bits.set(cell as usize, true);
                }
                (info.patterns, MaskWord::from_bits(bits))
            })
            .unzip();

        run_span.set_arg("partitions", partitions.len() as u64);
        run_span.set_arg("rounds", rounds.len() as u64);
        run_span.set_arg("masked_x", cost.masked_x as u64);
        run_span.set_arg("leaked_x", cost.leaked_x as u64);
        PartitionOutcome {
            partitions,
            masks,
            cost,
            initial_cost,
            rounds,
        }
    }
}

/// Debug-build cross-checks of the memoised pick: every partition is
/// re-analyzed and re-priced as if nothing were remembered, and the
/// winner must be the same.
#[cfg(debug_assertions)]
mod oracle {
    use super::*;

    /// The paper's rule over fresh analyses of every partition.
    pub(super) fn largest_class(
        xmap: &XMap,
        infos: &[PartitionInfo],
        got: (usize, usize, &[usize]),
    ) {
        let want = infos
            .iter()
            .enumerate()
            .filter_map(|(pi, info)| {
                CorrelationAnalysis::analyze(xmap, &info.patterns)
                    .pivot_class()
                    .map(|(count, cells)| (pi, count, cells.to_vec()))
            })
            .max_by(|a, b| (a.2.len(), a.1, Reverse(a.0)).cmp(&(b.2.len(), b.1, Reverse(b.0))));
        assert_eq!(
            want.as_ref()
                .map(|(pi, count, cells)| (*pi, *count, cells.as_slice())),
            Some(got),
            "the memoised LargestClass pick differs from a full re-analysis"
        );
    }

    /// Every class representative of every partition, priced by
    /// materialising both children and counting the cells whose X row
    /// covers each; the first strict minimum of the total cost wins.
    /// `got` is `(partition, pivot cell, masked total after the split)`.
    pub(super) fn best_cost(
        xmap: &XMap,
        infos: &[PartitionInfo],
        masked_total: usize,
        total_cost: &dyn Fn(usize) -> f64,
        got: (usize, usize, usize),
    ) {
        let mut best: Option<(usize, usize, usize, f64)> = None;
        for (pi, info) in infos.iter().enumerate() {
            let analysis = CorrelationAnalysis::analyze(xmap, &info.patterns);
            assert_eq!(masked_of(&analysis), info.masked_x());
            let masked = |child: &PatternSet| {
                let covering = analysis
                    .active_entries()
                    .iter()
                    .filter(|&&pos| child.is_subset_of(xmap.entry(pos as usize).1))
                    .count();
                covering * child.card()
            };
            let card = info.patterns.card();
            for (_, cells) in analysis.classes().filter(|&(count, _)| count < card) {
                let xset = xmap.xset_linear(cells[0]).expect("class cell captures X");
                let (with_x, without_x) = info.patterns.split_by(xset);
                let next = masked_total - info.masked_x() + masked(&with_x) + masked(&without_x);
                let t = total_cost(next);
                if best.is_none_or(|(_, _, _, bt)| t < bt) {
                    best = Some((pi, cells[0], next, t));
                }
            }
        }
        assert_eq!(
            best.map(|(pi, rep, next, _)| (pi, rep, next)),
            Some(got),
            "the memoised BestCost pick differs from re-pricing every partition"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xhc_scan::samples::fig4_xmap;
    use xhc_scan::{CellId, ScanConfig, XMapBuilder};

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
        assert_eq!(opts.backend, BackendId::Hybrid);
    }

    /// `PlanOptions::from_params` over one query string.
    fn from_query(query: &[(&str, &str)]) -> Result<PlanOptions, String> {
        PlanOptions::from_params(|name| {
            query
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, value)| *value)
        })
    }

    #[test]
    fn no_parameters_give_the_default_options() {
        assert_eq!(from_query(&[]), Ok(PlanOptions::default()));
    }

    #[test]
    fn from_params_reads_exactly_the_declared_names() {
        let read = std::cell::RefCell::new(Vec::new());
        let _ = PlanOptions::from_params(|name| {
            read.borrow_mut().push(name.to_string());
            None
        });
        let mut read = read.into_inner();
        read.sort();
        let mut declared = PlanOptions::PARAMS.map(String::from).to_vec();
        declared.sort();
        assert_eq!(read, declared);
    }

    #[test]
    fn every_token_round_trips_through_name_and_parse() {
        for strategy in [SplitStrategy::LargestClass, SplitStrategy::BestCost] {
            assert_eq!(SplitStrategy::parse(strategy.name()), Ok(strategy));
            assert_eq!(
                from_query(&[("strategy", strategy.name())]).map(|o| o.strategy),
                Ok(strategy)
            );
        }
        for policy in [
            CellSelection::First,
            CellSelection::Seeded(7),
            CellSelection::GlobalMaxX,
        ] {
            assert_eq!(CellSelection::parse(policy.name(), 7), Ok(policy));
        }
        assert_eq!(
            from_query(&[("policy", "seeded"), ("seed", "7")]).map(|o| o.policy),
            Ok(CellSelection::Seeded(7))
        );
        for backend in BackendId::ALL {
            assert_eq!(BackendId::parse(backend.name()), Ok(backend));
            assert_eq!(
                from_query(&[("backend", backend.name())]).map(|o| o.backend),
                Ok(backend)
            );
        }
        let bounded = from_query(&[("max_rounds", "3"), ("cost_stop", "0")]).unwrap();
        assert_eq!((bounded.max_rounds, bounded.cost_stop), (Some(3), false));
    }

    #[test]
    fn each_rejection_names_the_value() {
        let rejected = |query: &[(&str, &str)]| from_query(query).unwrap_err();
        assert_eq!(
            rejected(&[("strategy", "bogus")]),
            "`bogus` is not a strategy (expected `largest` or `best-cost`)"
        );
        assert_eq!(
            rejected(&[("policy", "bogus")]),
            "`bogus` is not a policy (expected `first`, `seeded` or `global-max-x`)"
        );
        assert_eq!(
            rejected(&[("backend", "bogus")]),
            "`bogus` is not a backend (expected one of hybrid, masking, canceling, superset, xcode)"
        );
        assert_eq!(
            rejected(&[("policy", "seeded"), ("seed", "-1")]),
            "`-1` is not a valid `seed`"
        );
        assert_eq!(
            rejected(&[("seed", "3")]),
            "`seed` requires `policy=seeded`"
        );
        assert_eq!(
            rejected(&[("policy", "first"), ("seed", "3")]),
            "`seed` requires `policy=seeded`"
        );
        assert_eq!(
            rejected(&[("max_rounds", "many")]),
            "`many` is not a valid `max_rounds`"
        );
        assert_eq!(
            rejected(&[("cost_stop", "yes")]),
            "`yes` is not a valid `cost_stop` (expected `0` or `1`)"
        );
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
