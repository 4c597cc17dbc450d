//! Sparse X-location maps.

use crate::config::{CellId, ScanConfig};
use std::collections::BTreeMap;
use xhc_bits::{PatternRow, PatternSet, XBitMatrix};

/// The sparse X-location map: for every scan cell that captures at least
/// one X, the set of patterns under which it does.
///
/// All control-bit and test-time accounting in the paper is a function of
/// X locations only — non-X values never enter the formulas. `XMap` is
/// therefore the working representation for industrial-scale analysis
/// (e.g. CKT-A: 505,050 cells × 3,000 patterns stays small because only
/// X-capturing cells are stored).
///
/// Storage is one sorted array of cell indices beside one packed
/// [`XBitMatrix`] whose row `pos` is the X pattern set of `cells[pos]`.
/// Every reader gets a borrowed [`PatternRow`] into those words; the
/// correlation kernel walks rows by *position* (see [`XMap::entry`]),
/// which lets a partition split rescan only the cells that were X-active
/// in the parent partition, and the partition engine's superset sweeps
/// read the same matrix ([`XMap::to_bitmatrix`]) with no copy.
///
/// # Examples
///
/// ```
/// use xhc_scan::{ScanConfig, XMapBuilder, CellId};
///
/// let cfg = ScanConfig::uniform(5, 3);
/// let mut b = XMapBuilder::new(cfg, 8);
/// b.add_x(CellId::new(0, 0), 0)?;
/// b.add_x(CellId::new(0, 0), 3)?;
/// let xmap = b.finish();
/// assert_eq!(xmap.total_x(), 2);
/// assert_eq!(xmap.x_count(CellId::new(0, 0)), 2);
/// # Ok::<(), xhc_scan::ScanError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XMap {
    config: ScanConfig,
    /// Linear indices of X-capturing cells, strictly ascending.
    cells: Vec<u32>,
    /// Row `pos` is the X pattern set of `cells[pos]`; never empty.
    rows: XBitMatrix,
    /// Cached total of set bits over `rows`.
    total_x: usize,
}

impl XMap {
    /// Builds a map by asking `is_x(pattern, cell)` for every entry.
    ///
    /// Only use for small configurations (it enumerates the full matrix);
    /// large workloads should use [`XMapBuilder`].
    pub fn from_fn<F: FnMut(usize, CellId) -> bool>(
        config: ScanConfig,
        num_patterns: usize,
        mut is_x: F,
    ) -> Self {
        let mut b = XMapBuilder::new(config, num_patterns);
        let cells: Vec<CellId> = b.config().iter_cells().collect();
        for cell in cells {
            for p in 0..num_patterns {
                if is_x(p, cell) {
                    b.add_x_unchecked(cell, p);
                }
            }
        }
        b.finish()
    }

    /// The one constructor every other path (the builder, the workload
    /// generator, the wire decoder) goes through: strictly ascending
    /// linear cell indices beside their packed X pattern sets, row `i`
    /// for `cells[i]`. The pattern universe is `rows.universe()`. Rows
    /// that are empty are dropped in place, with their cells.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range, repeats or descends, or the
    /// row count differs from the cell count.
    pub fn from_rows(config: ScanConfig, mut cells: Vec<u32>, mut rows: XBitMatrix) -> Self {
        assert_eq!(
            cells.len(),
            rows.num_rows(),
            "one packed row per cell index"
        );
        let mut prev = None;
        for &idx in &cells {
            assert!(
                (idx as usize) < config.total_cells(),
                "cell index {idx} out of range"
            );
            assert!(prev != Some(idx), "duplicate cell index {idx}");
            assert!(prev < Some(idx), "cell indices must ascend at {idx}");
            prev = Some(idx);
        }
        let mut kept = 0;
        let mut total_x = 0;
        rows.retain_rows(|r, row| {
            let card = row.card();
            total_x += card;
            cells[kept] = cells[r];
            kept += usize::from(card > 0);
            card > 0
        });
        cells.truncate(kept);
        XMap {
            config,
            cells,
            rows,
            total_x,
        }
    }

    /// Builds a map from `(linear cell index, X pattern set)` entries in
    /// any order: sorts them, packs the sets and hands both to
    /// [`XMap::from_rows`]. Entries whose set is empty are dropped.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or appears twice, or a set
    /// universe differs from `num_patterns`.
    pub fn from_entries(
        config: ScanConfig,
        num_patterns: usize,
        mut entries: Vec<(u32, PatternSet)>,
    ) -> Self {
        entries.sort_unstable_by_key(|&(idx, _)| idx);
        let mut cells = Vec::with_capacity(entries.len());
        let mut words = Vec::with_capacity(entries.len() * num_patterns.div_ceil(64));
        for (idx, xs) in &entries {
            assert_eq!(xs.universe(), num_patterns, "pattern-set universe mismatch");
            cells.push(*idx);
            words.extend_from_slice(xs.as_bits().as_words());
        }
        if num_patterns == 0 {
            // Zero-width rows have no words to count them by; every set
            // over no patterns is empty, so no cell stays.
            if let Some(w) = cells.windows(2).find(|w| w[0] == w[1]) {
                panic!("duplicate cell index {}", w[1]);
            }
            cells.clear();
        }
        let rows = XBitMatrix::from_words(num_patterns, words)
            .expect("pattern sets keep bits past the universe clear");
        XMap::from_rows(config, cells, rows)
    }

    /// The scan topology.
    pub fn config(&self) -> &ScanConfig {
        &self.config
    }

    /// Number of patterns in the universe.
    pub fn num_patterns(&self) -> usize {
        self.rows.universe()
    }

    /// Number of cells that capture at least one X.
    pub fn num_x_cells(&self) -> usize {
        self.cells.len()
    }

    /// Total number of X's over all cells and patterns.
    pub fn total_x(&self) -> usize {
        self.total_x
    }

    /// The entry at `pos` (positions `0..num_x_cells()`, ascending by
    /// linear cell index): the cell's linear index and its X pattern set.
    ///
    /// Positional addressing is the kernel-facing API: an analysis
    /// records the entry positions that were active in a partition, and a
    /// split re-reads exactly those.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= num_x_cells()`.
    pub fn entry(&self, pos: usize) -> (usize, PatternRow<'_>) {
        (self.cells[pos] as usize, self.rows.pattern_row(pos))
    }

    /// The entry position of the cell with linear index `idx`, if it
    /// captures any X (binary search).
    pub fn find_entry(&self, idx: usize) -> Option<usize> {
        if idx > u32::MAX as usize {
            return None;
        }
        self.cells.binary_search(&(idx as u32)).ok()
    }

    /// The X pattern set of the cell with linear index `idx`, if any.
    pub fn xset_linear(&self, idx: usize) -> Option<PatternRow<'_>> {
        self.find_entry(idx).map(|pos| self.rows.pattern_row(pos))
    }

    /// Fraction of response bits that are X.
    pub fn x_density(&self) -> f64 {
        let bits = self.config.total_cells() * self.num_patterns();
        if bits == 0 {
            return 0.0;
        }
        self.total_x() as f64 / bits as f64
    }

    /// Number of X's captured by `cell` over all patterns.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    pub fn x_count(&self, cell: CellId) -> usize {
        self.xset(cell).map_or(0, PatternRow::card)
    }

    /// The X pattern set of `cell`, if it captures any X.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    pub fn xset(&self, cell: CellId) -> Option<PatternRow<'_>> {
        self.xset_linear(self.config.linear_index(cell))
    }

    /// Number of X's `cell` captures within the given pattern subset.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range or the subset universe differs
    /// from `num_patterns`.
    pub fn x_count_in(&self, cell: CellId, patterns: &PatternSet) -> usize {
        self.xset(cell)
            .map_or(0, |xs| xs.intersection_card(patterns))
    }

    /// Total X's within the given pattern subset, over all cells.
    ///
    /// # Panics
    ///
    /// Panics if the subset universe differs from `num_patterns`.
    pub fn total_x_in(&self, patterns: &PatternSet) -> usize {
        (0..self.num_x_cells())
            .map(|pos| self.rows.pattern_row(pos).intersection_card(patterns))
            .sum()
    }

    /// Whether `cell` captures an X under `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn is_x(&self, pattern: usize, cell: CellId) -> bool {
        assert!(
            pattern < self.num_patterns(),
            "pattern {pattern} out of range"
        );
        self.xset(cell).is_some_and(|xs| xs.contains(pattern))
    }

    /// Iterator over `(cell, X pattern set)` for X-capturing cells, in
    /// linear-index order.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, PatternRow<'_>)> {
        self.cells.iter().enumerate().map(|(pos, &idx)| {
            (
                self.config.cell_at(idx as usize),
                self.rows.pattern_row(pos),
            )
        })
    }

    /// The map's X rows as the packed cells × patterns [`XBitMatrix`]
    /// they are stored in: row `pos` is the X pattern set of
    /// [`XMap::entry`]`(pos)`, so the matrix's row ids coincide with the
    /// map's entry positions and with the active-entry lists a
    /// correlation analysis records. A borrow — the partition engine's
    /// cost-only split evaluator sweeps these words in place.
    pub fn to_bitmatrix(&self) -> &XBitMatrix {
        &self.rows
    }
}

/// Incremental builder for [`XMap`], for callers that add X's at
/// arbitrary coordinates (the scan capture harness, tests). Callers that already hold one set per cell use
/// [`XMap::from_entries`] directly.
#[derive(Debug, Clone)]
pub struct XMapBuilder {
    config: ScanConfig,
    num_patterns: usize,
    xsets: BTreeMap<usize, PatternSet>,
}

impl XMapBuilder {
    /// Creates a builder for the given topology and pattern count.
    pub fn new(config: ScanConfig, num_patterns: usize) -> Self {
        XMapBuilder {
            config,
            num_patterns,
            xsets: BTreeMap::new(),
        }
    }

    /// The scan topology.
    pub fn config(&self) -> &ScanConfig {
        &self.config
    }

    /// Records that `cell` captures an X under `pattern`. Idempotent.
    ///
    /// Returns a typed [`ScanError`](crate::ScanError) when the cell or
    /// pattern is outside the map — panic-free, like the wire decoders.
    /// Generators whose coordinates are correct by construction can use
    /// [`add_x_unchecked`](Self::add_x_unchecked) instead.
    pub fn add_x(&mut self, cell: CellId, pattern: usize) -> Result<(), crate::ScanError> {
        if pattern >= self.num_patterns {
            return Err(crate::ScanError::PatternOutOfRange {
                pattern,
                num_patterns: self.num_patterns,
            });
        }
        let idx = self.config.try_linear_index(cell)?;
        self.xsets
            .entry(idx)
            .or_insert_with(|| PatternSet::empty(self.num_patterns))
            .insert(pattern);
        Ok(())
    }

    /// Infallible [`add_x`](Self::add_x) for generators whose coordinates
    /// are in range by construction.
    ///
    /// # Panics
    ///
    /// Panics if the cell or pattern is out of range.
    pub fn add_x_unchecked(&mut self, cell: CellId, pattern: usize) {
        if let Err(e) = self.add_x(cell, pattern) {
            panic!("{e}");
        }
    }

    /// Records a whole X pattern set for `cell`, unioning with anything
    /// already recorded.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range or the set universe differs.
    pub fn add_xset(&mut self, cell: CellId, patterns: &PatternSet) {
        assert_eq!(
            patterns.universe(),
            self.num_patterns,
            "pattern-set universe mismatch"
        );
        let idx = self.config.linear_index(cell);
        match self.xsets.entry(idx) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(patterns.clone());
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                let merged = o.get().union(patterns);
                o.insert(merged);
            }
        }
    }

    /// Finalises the map into its columnar form (via
    /// [`XMap::from_entries`]), dropping cells whose recorded set ended
    /// up empty.
    pub fn finish(self) -> XMap {
        let entries = self
            .xsets
            .into_iter()
            .map(|(idx, xs)| (u32::try_from(idx).expect("cell index fits in u32"), xs))
            .collect();
        XMap::from_entries(self.config, self.num_patterns, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples::fig4_xmap;

    #[test]
    fn fig4_totals() {
        let m = fig4_xmap();
        // 3 cells * 4 + 2 + 7 + 6 + 1 = 28 X's, as the paper counts.
        assert_eq!(m.total_x(), 28);
        assert_eq!(m.num_x_cells(), 7);
        assert!((m.x_density() - 28.0 / 120.0).abs() < 1e-12);
    }

    #[test]
    fn per_cell_counts_match_fig4() {
        let m = fig4_xmap();
        assert_eq!(m.x_count(CellId::new(0, 0)), 4);
        assert_eq!(m.x_count(CellId::new(1, 2)), 2);
        assert_eq!(m.x_count(CellId::new(3, 2)), 7);
        assert_eq!(m.x_count(CellId::new(4, 1)), 6);
        assert_eq!(m.x_count(CellId::new(4, 2)), 1);
        assert_eq!(m.x_count(CellId::new(0, 1)), 0);
    }

    #[test]
    fn restricted_counts() {
        let m = fig4_xmap();
        // Partition 1 of Fig. 5: patterns {P1, P4, P5, P6} = {0,3,4,5}.
        let part1 = PatternSet::from_patterns(8, [0, 3, 4, 5]);
        assert_eq!(m.x_count_in(CellId::new(0, 0), &part1), 4);
        assert_eq!(m.x_count_in(CellId::new(3, 2), &part1), 3);
        assert_eq!(m.x_count_in(CellId::new(4, 1), &part1), 3);
        assert_eq!(m.x_count_in(CellId::new(4, 2), &part1), 1);
        // Partition 2: {P2, P3, P7, P8} = {1,2,6,7}.
        let part2 = PatternSet::from_patterns(8, [1, 2, 6, 7]);
        assert_eq!(m.x_count_in(CellId::new(3, 2), &part2), 4);
        assert_eq!(m.x_count_in(CellId::new(4, 1), &part2), 3);
        assert_eq!(m.x_count_in(CellId::new(0, 0), &part2), 0);
        assert_eq!(m.total_x_in(&part2), 7);
    }

    #[test]
    fn is_x_and_iteration() {
        let m = fig4_xmap();
        assert!(m.is_x(0, CellId::new(0, 0)));
        assert!(!m.is_x(1, CellId::new(0, 0)));
        let cells: Vec<CellId> = m.iter().map(|(c, _)| c).collect();
        assert_eq!(cells.len(), 7);
        // Linear order: chain-major.
        assert!(cells.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn add_xset_unions() {
        let cfg = ScanConfig::uniform(1, 1);
        let mut b = XMapBuilder::new(cfg, 4);
        b.add_x(CellId::new(0, 0), 0).unwrap();
        b.add_xset(CellId::new(0, 0), &PatternSet::from_patterns(4, [2, 3]));
        let m = b.finish();
        assert_eq!(m.x_count(CellId::new(0, 0)), 3);
    }

    #[test]
    fn from_entries_matches_the_builder_on_shuffled_entries() {
        use xhc_prng::{SliceRandom, XhcRng};
        let mut rng = XhcRng::seed_from_u64(0x5eed_0003);
        let mut dropped = 0;
        for _ in 0..40 {
            let cfg = ScanConfig::uniform(1 + rng.gen_index(5), 1 + rng.gen_index(8));
            let n = 1 + rng.gen_index(130);
            let mut b = XMapBuilder::new(cfg.clone(), n);
            let mut entries = Vec::new();
            for idx in 0..cfg.total_cells() {
                if rng.gen_index(3) == 0 {
                    continue;
                }
                let mut xs = PatternSet::empty(n);
                for p in 0..n {
                    if rng.gen_index(5) == 0 {
                        xs.insert(p);
                        b.add_x(cfg.cell_at(idx), p).unwrap();
                    }
                }
                dropped += usize::from(xs.is_empty());
                entries.push((idx as u32, xs));
            }
            entries.shuffle(&mut rng);
            let want = b.finish();
            let got = XMap::from_entries(cfg, n, entries);
            assert_eq!(got, want);
            assert!(got.iter().all(|(_, xs)| !xs.is_empty()));
            let counted: usize = got.iter().map(|(_, xs)| xs.card()).sum();
            assert_eq!(got.total_x(), counted);
        }
        assert!(dropped > 0, "no empty set was exercised");
    }

    #[test]
    #[should_panic(expected = "duplicate cell index 1")]
    fn from_entries_rejects_a_duplicate_index() {
        let set = |p| PatternSet::from_patterns(4, [p]);
        XMap::from_entries(
            ScanConfig::uniform(1, 3),
            4,
            vec![(1, set(0)), (0, set(1)), (1, set(2))],
        );
    }

    #[test]
    #[should_panic(expected = "pattern-set universe mismatch")]
    fn from_entries_rejects_a_universe_mismatch() {
        XMap::from_entries(
            ScanConfig::uniform(1, 3),
            4,
            vec![(0, PatternSet::from_patterns(5, [4]))],
        );
    }

    #[test]
    #[should_panic(expected = "cell index 3 out of range")]
    fn from_entries_rejects_an_out_of_range_index() {
        XMap::from_entries(
            ScanConfig::uniform(1, 3),
            4,
            vec![(3, PatternSet::from_patterns(4, [0]))],
        );
    }

    #[test]
    fn from_rows_drops_empty_rows_with_their_cells() {
        // Universe 70: two words per row; rows 0 and 2 are empty.
        let words = vec![0, 0, 1 << 3, 1 << 5, 0, 0, 1, 0];
        let rows = XBitMatrix::from_words(70, words).unwrap();
        let m = XMap::from_rows(ScanConfig::uniform(2, 5), vec![1, 4, 6, 9], rows);
        assert_eq!(m.num_x_cells(), 2);
        assert_eq!(m.total_x(), 3);
        assert_eq!(m.entry(0).0, 4);
        assert_eq!(m.entry(0).1.iter().collect::<Vec<_>>(), vec![3, 69]);
        assert_eq!(m.entry(1).0, 9);
        assert_eq!(m.find_entry(1), None);
        assert_eq!(m.find_entry(9), Some(1));
        assert_eq!(m.to_bitmatrix().num_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "cell indices must ascend at 1")]
    fn from_rows_rejects_descending_cells() {
        let rows = XBitMatrix::from_words(4, vec![1, 1]).unwrap();
        XMap::from_rows(ScanConfig::uniform(1, 3), vec![2, 1], rows);
    }

    #[test]
    #[should_panic(expected = "one packed row per cell index")]
    fn from_rows_rejects_a_row_count_mismatch() {
        let rows = XBitMatrix::from_words(4, vec![1]).unwrap();
        XMap::from_rows(ScanConfig::uniform(1, 3), vec![0, 1], rows);
    }

    #[test]
    fn empty_cells_dropped_at_finish() {
        let cfg = ScanConfig::uniform(1, 2);
        let mut b = XMapBuilder::new(cfg, 4);
        b.add_xset(CellId::new(0, 0), &PatternSet::empty(4));
        let m = b.finish();
        assert_eq!(m.num_x_cells(), 0);
        assert_eq!(m.total_x(), 0);
        assert_eq!(m.x_density(), 0.0);
    }
}
