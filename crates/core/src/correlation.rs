//! X-value correlation analysis (the paper's §3).
//!
//! The partitioning algorithm is driven by the observation that X's are
//! inter-correlated: the *same* scan cells capture X's under the *same*
//! test patterns. The analysis counts, per scan cell and restricted to a
//! pattern subset, how many X's it captures, and groups cells into classes
//! by that count. The "largest number of scan cells having the same number
//! of X's" (the biggest class) is where the paper looks for a partitioning
//! pivot.
//!
//! The representation is columnar and allocation-lean: active cells and
//! their counts live in flat parallel arrays, classes are materialised by
//! a counting sort, and splitting a partition re-analyzes **only the
//! cells that were X-active in the parent** (the delta path,
//! [`CorrelationAnalysis::analyze_children`]) — a child's "without" count
//! is derived as `parent − with`, so one subset intersection per active
//! cell yields both children.

use xhc_bits::{PatternRow, PatternSet};
use xhc_scan::XMap;

/// Per-cell X counts within a pattern subset, grouped into count classes.
///
/// # Examples
///
/// ```
/// use xhc_bits::{PatternRow, PatternSet};
/// use xhc_core::CorrelationAnalysis;
/// use xhc_scan::{CellId, ScanConfig, XMapBuilder};
///
/// let cfg = ScanConfig::uniform(2, 2);
/// let mut b = XMapBuilder::new(cfg, 4);
/// b.add_x(CellId::new(0, 0), 0).unwrap();
/// b.add_x(CellId::new(0, 0), 1).unwrap();
/// b.add_x(CellId::new(1, 1), 2).unwrap();
/// let xmap = b.finish();
///
/// let analysis = CorrelationAnalysis::analyze(&xmap, &PatternSet::all(4));
/// assert_eq!(analysis.count_of(0), 2); // SC1[0] has linear index 0
/// assert_eq!(analysis.class(1), &[3]); // linear index of SC2[1]
/// ```
#[derive(Debug, Clone)]
pub struct CorrelationAnalysis {
    /// XMap entry positions of the active (count > 0) cells, ascending.
    entries: Vec<u32>,
    /// Parallel: linear cell index per active entry (ascending, since
    /// entry positions are ascending by linear index).
    cells: Vec<u32>,
    /// Parallel: restricted X count per active entry.
    counts: Vec<u32>,
    /// Active cells regrouped by count (counting sort): ascending count,
    /// ascending linear index within a class.
    grouped: Vec<usize>,
    /// One entry per non-empty class, ascending by count:
    /// `(count, start, end)` delimiting its `grouped` slice.
    class_ranges: Vec<(usize, usize, usize)>,
    /// Cardinality of the pattern subset analyzed.
    partition_card: usize,
    /// Total X's within the subset.
    total_x: usize,
}

impl CorrelationAnalysis {
    /// Analyzes `xmap` restricted to the `partition` pattern subset — a
    /// full scan over every X-capturing cell of the map.
    ///
    /// # Panics
    ///
    /// Panics if the partition universe differs from the map's pattern
    /// count.
    pub fn analyze(xmap: &XMap, partition: &PatternSet) -> Self {
        let n = xmap.num_x_cells();
        let mut entries = Vec::new();
        let mut cells = Vec::new();
        let mut counts = Vec::new();
        let mut total_x = 0usize;
        for pos in 0..n {
            let (idx, xs) = xmap.entry(pos);
            let c = xs.intersection_card(partition);
            if c > 0 {
                entries.push(pos as u32);
                cells.push(idx as u32);
                counts.push(c as u32);
                total_x += c;
            }
        }
        Self::build(entries, cells, counts, partition.card(), total_x)
    }

    /// The delta path: analyzes the two children of a binary split of
    /// this partition without touching cells that were X-free here.
    ///
    /// `with` must be the child pattern set `self ∩ pivot`, as a set or a
    /// borrowed row (the other child is implicitly `parent \ with`): a
    /// cell's "without" count is then `parent_count − with_count`, so the
    /// whole split costs one subset intersection per *active* cell. When
    /// active cells × row words reach `threads` ×
    /// [`xhc_par::MIN_WORKER_WORDS`], the intersections fan out over
    /// `threads` workers; the result is identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `with` has more patterns than the analyzed subset (it
    /// must be a subset of it).
    pub fn analyze_children<'a>(
        &self,
        xmap: &XMap,
        with: impl Into<PatternRow<'a>>,
        threads: usize,
    ) -> (Self, Self) {
        let with = with.into();
        let with_card = with.card();
        assert!(
            with_card <= self.partition_card,
            "`with` must be a subset of the analyzed partition"
        );
        let n = self.entries.len();

        // One intersection per active cell, fanned out in one chunk per
        // worker when every chunk holds the fan-out floor's word tests.
        let count = |positions: &[u32]| -> Vec<u32> {
            positions
                .iter()
                .map(|&pos| xmap.entry(pos as usize).1.intersection_card(with) as u32)
                .collect()
        };
        let with_counts: Vec<u32> =
            if threads > 1 && n * with.words().len() >= threads * xhc_par::MIN_WORKER_WORDS {
                let chunks: Vec<&[u32]> = self.entries.chunks(n.div_ceil(threads)).collect();
                xhc_par::par_map_threads(threads, &chunks, |c| count(c)).concat()
            } else {
                count(&self.entries)
            };

        let mut w = (Vec::new(), Vec::new(), Vec::new(), 0usize);
        let mut wo = (Vec::new(), Vec::new(), Vec::new(), 0usize);
        for (i, &cw) in with_counts.iter().enumerate() {
            let cwo = self.counts[i] - cw;
            if cw > 0 {
                w.0.push(self.entries[i]);
                w.1.push(self.cells[i]);
                w.2.push(cw);
                w.3 += cw as usize;
            }
            if cwo > 0 {
                wo.0.push(self.entries[i]);
                wo.1.push(self.cells[i]);
                wo.2.push(cwo);
                wo.3 += cwo as usize;
            }
        }
        (
            Self::build(w.0, w.1, w.2, with_card, w.3),
            Self::build(wo.0, wo.1, wo.2, self.partition_card - with_card, wo.3),
        )
    }

    /// Groups flat `(entry, cell, count)` triples into count classes by a
    /// counting sort over the count domain.
    fn build(
        entries: Vec<u32>,
        cells: Vec<u32>,
        counts: Vec<u32>,
        partition_card: usize,
        total_x: usize,
    ) -> Self {
        let max_count = counts.iter().copied().max().unwrap_or(0) as usize;
        let mut hist = vec![0u32; max_count + 1];
        for &c in &counts {
            hist[c as usize] += 1;
        }
        // Class ranges and placement cursors from the histogram.
        let mut class_ranges = Vec::new();
        let mut cursors = vec![0usize; max_count + 1];
        let mut offset = 0usize;
        for (count, &n) in hist.iter().enumerate().skip(1) {
            if n > 0 {
                class_ranges.push((count, offset, offset + n as usize));
                cursors[count] = offset;
                offset += n as usize;
            }
        }
        // Stable placement: cells are visited in ascending linear-index
        // order, so each class slice comes out ascending too.
        let mut grouped = vec![0usize; cells.len()];
        for (i, &c) in counts.iter().enumerate() {
            let cur = &mut cursors[c as usize];
            grouped[*cur] = cells[i] as usize;
            *cur += 1;
        }
        CorrelationAnalysis {
            entries,
            cells,
            counts,
            grouped,
            class_ranges,
            partition_card,
            total_x,
        }
    }

    /// Number of X-active cells in the analyzed subset.
    pub fn num_active(&self) -> usize {
        self.cells.len()
    }

    /// XMap entry positions of the active cells, ascending. These double
    /// as row ids into the matrix built by `XMap::to_bitmatrix`, which is
    /// how the cost-only split evaluator restricts its word sweeps to the
    /// cells that can possibly become fully-X in a child partition.
    pub fn active_entries(&self) -> &[u32] {
        &self.entries
    }

    /// The restricted X count of a cell by linear index (0 if X-free).
    pub fn count_of(&self, cell_index: usize) -> usize {
        if cell_index > u32::MAX as usize {
            return 0;
        }
        match self.cells.binary_search(&(cell_index as u32)) {
            Ok(i) => self.counts[i] as usize,
            Err(_) => 0,
        }
    }

    /// The cells (linear indices, ascending) with exactly `count` X's.
    pub fn class(&self, count: usize) -> &[usize] {
        match self
            .class_ranges
            .binary_search_by_key(&count, |&(c, _, _)| c)
        {
            Ok(i) => {
                let (_, start, end) = self.class_ranges[i];
                &self.grouped[start..end]
            }
            Err(_) => &[],
        }
    }

    /// All (count, class) pairs, ascending by count.
    pub fn classes(&self) -> impl Iterator<Item = (usize, &[usize])> {
        self.class_ranges
            .iter()
            .map(|&(c, start, end)| (c, &self.grouped[start..end]))
    }

    /// Total X's in the analyzed subset.
    pub fn total_x(&self) -> usize {
        self.total_x
    }

    /// Cardinality of the analyzed pattern subset.
    pub fn partition_card(&self) -> usize {
        self.partition_card
    }

    /// The paper's pivot-class rule: among counts strictly between 0 and
    /// the partition size (a split on a full-count or zero-count cell would
    /// be trivial), the class with the most cells; ties prefer the higher
    /// count (more X's removed). Returns `None` when no class has at least
    /// two cells — the partition is then unsplittable, matching the worked
    /// example where all-singleton classes stop the recursion.
    pub fn pivot_class(&self) -> Option<(usize, &[usize])> {
        self.classes()
            .filter(|&(count, cells)| count < self.partition_card && cells.len() >= 2)
            .max_by_key(|&(count, cells)| (cells.len(), count))
    }

    /// Cells maskable over the whole analyzed subset: X count equals the
    /// partition cardinality.
    pub fn fully_x_cells(&self) -> &[usize] {
        if self.partition_card == 0 {
            &[]
        } else {
            self.class(self.partition_card)
        }
    }
}

/// Aggregate inter-correlation statistics over a full X map (the analysis
/// the paper runs on its industrial example in §3).
#[derive(Debug, Clone, PartialEq)]
pub struct InterCorrelationStats {
    /// Scan cells in the design.
    pub total_cells: usize,
    /// Cells that capture at least one X.
    pub x_cells: usize,
    /// Total X's.
    pub total_x: usize,
    /// Smallest fraction of cells holding ≥ 90% of all X's.
    pub cells_for_90pct: f64,
    /// Size of the biggest group of cells with *identical* X pattern sets.
    pub largest_identical_group: usize,
    /// Size of the biggest class of cells with the same X count.
    pub largest_count_class: usize,
    /// The X count shared by that class.
    pub largest_count_class_count: usize,
}

/// Computes §3-style inter-correlation statistics.
pub fn inter_correlation_stats(xmap: &XMap) -> InterCorrelationStats {
    let total_cells = xmap.config().total_cells();
    let x_cells = xmap.num_x_cells();
    let total_x = xmap.total_x();

    // Fraction of cells covering 90% of X's: sort counts descending.
    let mut counts: Vec<usize> = xmap.iter().map(|(_, xs)| xs.card()).collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let target = (total_x as f64 * 0.9).ceil() as usize;
    let mut acc = 0;
    let mut needed = 0;
    for c in &counts {
        if acc >= target {
            break;
        }
        acc += c;
        needed += 1;
    }
    let cells_for_90pct = if total_cells == 0 {
        0.0
    } else {
        needed as f64 / total_cells as f64
    };

    // Largest group of identical X pattern sets.
    let mut identical: std::collections::HashMap<PatternRow<'_>, usize> =
        std::collections::HashMap::new();
    for (_, xs) in xmap.iter() {
        *identical.entry(xs).or_insert(0) += 1;
    }
    let largest_identical_group = identical.values().copied().max().unwrap_or(0);

    // Largest same-count class.
    let mut by_count: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for c in &counts {
        *by_count.entry(*c).or_insert(0) += 1;
    }
    let (largest_count_class_count, largest_count_class) = by_count
        .iter()
        .max_by_key(|&(&count, &n)| (n, count))
        .map(|(&count, &n)| (count, n))
        .unwrap_or((0, 0));

    InterCorrelationStats {
        total_cells,
        x_cells,
        total_x,
        cells_for_90pct,
        largest_identical_group,
        largest_count_class,
        largest_count_class_count,
    }
}

/// Intra-(spatial-)correlation statistics: how X's cluster along scan
/// chains (the "contiguous and adjacent areas of scan chains" of \[13\]).
///
/// The paper focuses on inter-correlation but contrasts it with the
/// intra-correlation other schemes exploit; these statistics quantify
/// which regime a workload is in.
#[derive(Debug, Clone, PartialEq)]
pub struct IntraCorrelationStats {
    /// X-capturing cells.
    pub x_cells: usize,
    /// X-capturing cells whose chain neighbour (position ± 1) also
    /// captures X.
    pub x_cells_with_x_neighbour: usize,
    /// Number of maximal runs of adjacent X-capturing cells.
    pub runs: usize,
    /// Length of the longest run.
    pub longest_run: usize,
    /// Mean pattern-set Jaccard similarity between adjacent X-capturing
    /// cells (1.0 = identical sets; `None` when no adjacent pair exists).
    pub mean_adjacent_jaccard: Option<f64>,
}

/// Computes [`IntraCorrelationStats`] for an X map.
pub fn intra_correlation_stats(xmap: &XMap) -> IntraCorrelationStats {
    let config = xmap.config();
    let mut x_cells = 0usize;
    let mut with_neighbour = 0usize;
    let mut runs = 0usize;
    let mut longest_run = 0usize;
    let mut jaccard_sum = 0.0f64;
    let mut jaccard_count = 0usize;

    for chain in 0..config.num_chains() {
        let len = config.chain_len(chain);
        let mut run = 0usize;
        let mut prev_xset: Option<PatternRow<'_>> = None;
        for pos in 0..len {
            let xset = xmap.xset(xhc_scan::CellId::new(chain, pos));
            match xset {
                Some(xs) => {
                    x_cells += 1;
                    run += 1;
                    if let Some(prev) = prev_xset {
                        // Both this cell and its predecessor capture X.
                        with_neighbour += if run == 2 { 2 } else { 1 };
                        let inter = prev.intersection_card(xs) as f64;
                        let union = (prev.card() + xs.card()) as f64 - inter;
                        if union > 0.0 {
                            jaccard_sum += inter / union;
                            jaccard_count += 1;
                        }
                    }
                    prev_xset = Some(xs);
                }
                None => {
                    if run > 0 {
                        runs += 1;
                        longest_run = longest_run.max(run);
                    }
                    run = 0;
                    prev_xset = None;
                }
            }
        }
        if run > 0 {
            runs += 1;
            longest_run = longest_run.max(run);
        }
    }

    IntraCorrelationStats {
        x_cells,
        x_cells_with_x_neighbour: with_neighbour,
        runs,
        longest_run,
        mean_adjacent_jaccard: if jaccard_count > 0 {
            Some(jaccard_sum / jaccard_count as f64)
        } else {
            None
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xhc_scan::samples::fig4_xmap;
    use xhc_scan::{CellId, ScanConfig, XMapBuilder};

    #[test]
    fn fig4_whole_set_classes() {
        let xmap = fig4_xmap();
        let a = CorrelationAnalysis::analyze(&xmap, &PatternSet::all(8));
        assert_eq!(a.total_x(), 28);
        // Classes: 4 X's -> 3 cells; 2 -> 1; 7 -> 1; 6 -> 1; 1 -> 1.
        assert_eq!(a.class(4).len(), 3);
        assert_eq!(a.class(7).len(), 1);
        assert_eq!(a.class(6).len(), 1);
        assert_eq!(a.class(2).len(), 1);
        assert_eq!(a.class(1).len(), 1);
        // Pivot class: count 4 with 3 cells (the paper picks SC1[0]).
        let (count, cells) = a.pivot_class().expect("splittable");
        assert_eq!(count, 4);
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0], 0, "first cell of the class is SC1[0]");
    }

    #[test]
    fn fig5_partition1_pivot() {
        let xmap = fig4_xmap();
        let p1 = PatternSet::from_patterns(8, [0, 3, 4, 5]);
        let a = CorrelationAnalysis::analyze(&xmap, &p1);
        // Cells at count 4 (== |S|) are excluded; pivot is count 3 with
        // SC4[2] and SC5[1].
        let (count, cells) = a.pivot_class().expect("splittable");
        assert_eq!(count, 3);
        assert_eq!(cells.len(), 2);
        let cfg = xmap.config();
        assert_eq!(cells[0], cfg.linear_index(CellId::new(3, 2)));
        assert_eq!(cells[1], cfg.linear_index(CellId::new(4, 1)));
        // Fully-X cells: the three count-4 cells.
        assert_eq!(a.fully_x_cells().len(), 3);
    }

    #[test]
    fn fig5_partition2_not_splittable() {
        let xmap = fig4_xmap();
        let p2 = PatternSet::from_patterns(8, [1, 2, 6, 7]);
        let a = CorrelationAnalysis::analyze(&xmap, &p2);
        // SC4[2] has 4 (== |S|, excluded); SC5[1] has 3 (singleton class).
        assert!(a.pivot_class().is_none());
        assert_eq!(a.count_of(xmap.config().linear_index(CellId::new(4, 1))), 3);
        assert_eq!(a.fully_x_cells().len(), 1);
    }

    #[test]
    fn fig5_partitions_3_and_4_not_splittable() {
        let xmap = fig4_xmap();
        for pats in [
            PatternSet::from_patterns(8, [0, 3, 4]),
            PatternSet::from_patterns(8, [5]),
        ] {
            let a = CorrelationAnalysis::analyze(&xmap, &pats);
            assert!(a.pivot_class().is_none(), "{pats:?} must not split");
        }
    }

    #[test]
    fn empty_partition_analysis() {
        let xmap = fig4_xmap();
        let a = CorrelationAnalysis::analyze(&xmap, &PatternSet::empty(8));
        assert_eq!(a.total_x(), 0);
        assert!(a.pivot_class().is_none());
        assert!(a.fully_x_cells().is_empty());
    }

    #[test]
    fn intra_stats_counts_runs() {
        // One chain of 6 cells: X at positions 0,1,2 (a run of 3, with
        // identical sets for 0,1 and a different set for 2) and at 4
        // (isolated).
        let cfg = ScanConfig::uniform(1, 6);
        let mut b = XMapBuilder::new(cfg, 4);
        for p in [0, 1] {
            b.add_x(CellId::new(0, 0), p).unwrap();
            b.add_x(CellId::new(0, 1), p).unwrap();
        }
        b.add_x(CellId::new(0, 2), 3).unwrap();
        b.add_x(CellId::new(0, 4), 2).unwrap();
        let xmap = b.finish();
        let s = intra_correlation_stats(&xmap);
        assert_eq!(s.x_cells, 4);
        assert_eq!(s.runs, 2);
        assert_eq!(s.longest_run, 3);
        assert_eq!(s.x_cells_with_x_neighbour, 3);
        // Two adjacent pairs: (0,1) identical -> 1.0; (1,2) disjoint -> 0.
        let j = s.mean_adjacent_jaccard.unwrap();
        assert!((j - 0.5).abs() < 1e-9, "{j}");
    }

    #[test]
    fn intra_stats_empty_map() {
        let cfg = ScanConfig::uniform(2, 3);
        let xmap = XMapBuilder::new(cfg, 4).finish();
        let s = intra_correlation_stats(&xmap);
        assert_eq!(s.x_cells, 0);
        assert_eq!(s.runs, 0);
        assert_eq!(s.mean_adjacent_jaccard, None);
    }

    #[test]
    fn intra_stats_runs_do_not_cross_chains() {
        // Last cell of chain 0 and first of chain 1 both X: adjacent in
        // linear index but NOT in any chain.
        let cfg = ScanConfig::uniform(2, 2);
        let mut b = XMapBuilder::new(cfg, 2);
        b.add_x(CellId::new(0, 1), 0).unwrap();
        b.add_x(CellId::new(1, 0), 0).unwrap();
        let xmap = b.finish();
        let s = intra_correlation_stats(&xmap);
        assert_eq!(s.runs, 2);
        assert_eq!(s.longest_run, 1);
        assert_eq!(s.x_cells_with_x_neighbour, 0);
    }

    #[test]
    fn stats_on_fig4() {
        let xmap = fig4_xmap();
        let s = inter_correlation_stats(&xmap);
        assert_eq!(s.total_cells, 15);
        assert_eq!(s.x_cells, 7);
        assert_eq!(s.total_x, 28);
        // The three count-4 cells share an identical pattern set.
        assert_eq!(s.largest_identical_group, 3);
        assert_eq!(s.largest_count_class, 3);
        assert_eq!(s.largest_count_class_count, 4);
        assert!(s.cells_for_90pct > 0.0 && s.cells_for_90pct < 1.0);
    }
}
