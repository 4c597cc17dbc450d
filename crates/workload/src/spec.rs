//! Synthetic industrial workload specification and generation.

use xhc_bits::{PatternSet, XBitMatrix};
use xhc_prng::{sample_indices, unit_f64, SliceRandom, XhcRng};
use xhc_scan::{ScanConfig, XMap};

/// A synthetic workload: a scan topology plus a statistically-shaped X
/// profile.
///
/// The paper evaluates on three proprietary industrial circuits; their
/// response data is reproduced here *statistically* (see `DESIGN.md`,
/// substitutions table): the X profile is built from
///
/// * **correlated groups** — sets of scan cells sharing an *identical* X
///   pattern set (the §3 inter-correlation: "172 scan cells out of 177
///   have the 406 X's by the same 406 test patterns"), and
/// * **noise** — individually scattered X's over a bounded cell pool
///   ("90% of X's are captured in 4.9% of the scan cells").
///
/// All quantities in Table 1 are functions of the X profile only, so
/// matching the profile preserves the experiment's shape.
///
/// # Examples
///
/// ```
/// use xhc_workload::WorkloadSpec;
///
/// let spec = WorkloadSpec {
///     total_cells: 600,
///     num_chains: 6,
///     num_patterns: 100,
///     x_density: 0.02,
///     ..WorkloadSpec::default()
/// };
/// let xmap = spec.generate();
/// let achieved = xmap.x_density();
/// assert!((achieved - 0.02).abs() < 0.005, "{achieved}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload label (e.g. "CKT-B").
    pub name: &'static str,
    /// Scan cells.
    pub total_cells: usize,
    /// Scan chains (cells are balanced over them).
    pub num_chains: usize,
    /// Test patterns.
    pub num_patterns: usize,
    /// Target X-density (fraction of response bits that are X).
    pub x_density: f64,
    /// Fraction of X's placed in correlated groups (rest is noise).
    pub correlated_fraction: f64,
    /// Number of correlated groups.
    pub num_groups: usize,
    /// Mean fraction of the pattern set covered by a group's shared X
    /// pattern set.
    pub group_pattern_fraction: f64,
    /// Fraction of cells allowed to capture any X at all (the X cell
    /// pool).
    pub x_cell_fraction: f64,
    /// Spatial (intra-correlation) clustering of the X cell pool: the
    /// probability that each successive pool cell is placed adjacent to
    /// the previous one on its scan chain instead of uniformly at random
    /// (\[13\]'s "contiguous and adjacent areas of scan chains"). `0.0`
    /// scatters the pool uniformly.
    pub spatial_clustering: f64,
    /// RNG seed (generation is deterministic per spec).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            name: "synthetic",
            total_cells: 1000,
            num_chains: 10,
            num_patterns: 200,
            x_density: 0.01,
            correlated_fraction: 0.9,
            num_groups: 6,
            group_pattern_fraction: 0.25,
            x_cell_fraction: 0.1,
            spatial_clustering: 0.0,
            seed: 0,
        }
    }
}

impl WorkloadSpec {
    /// The paper's CKT-A profile: 505,050 cells, ~1000 chains (derived
    /// from Table 1's test-time column), 3000 patterns, 0.05% X-density.
    pub fn ckt_a() -> Self {
        WorkloadSpec {
            name: "CKT-A",
            total_cells: 505_050,
            num_chains: 1000,
            num_patterns: 3000,
            x_density: 0.0005,
            correlated_fraction: 0.45,
            num_groups: 2,
            group_pattern_fraction: 0.35,
            x_cell_fraction: 0.004,
            spatial_clustering: 0.3,
            seed: 0xA,
        }
    }

    /// The paper's CKT-B profile: 36,075 cells, 75 chains, 3000 patterns,
    /// 2.75% X-density, §3's clustering statistics.
    pub fn ckt_b() -> Self {
        WorkloadSpec {
            name: "CKT-B",
            total_cells: 36_075,
            num_chains: 75,
            num_patterns: 3000,
            x_density: 0.0275,
            correlated_fraction: 0.55,
            num_groups: 3,
            group_pattern_fraction: 0.77,
            x_cell_fraction: 0.108, // 3,903 of 36,075 cells capture X
            spatial_clustering: 0.3,
            seed: 0xB,
        }
    }

    /// The paper's CKT-C profile: 97,643 cells, 203 chains, 3000 patterns,
    /// 2.38% X-density.
    pub fn ckt_c() -> Self {
        WorkloadSpec {
            name: "CKT-C",
            total_cells: 97_643,
            num_chains: 203,
            num_patterns: 3000,
            x_density: 0.0238,
            correlated_fraction: 0.33,
            num_groups: 3,
            group_pattern_fraction: 0.5,
            x_cell_fraction: 0.08,
            spatial_clustering: 0.3,
            seed: 0xC,
        }
    }

    /// Looks up a preset by CLI name: `ckt-a`, `ckt-b`, `ckt-c` (the
    /// paper's circuits, full size) or `demo` (the small default).
    ///
    /// # Examples
    ///
    /// ```
    /// use xhc_workload::WorkloadSpec;
    ///
    /// assert_eq!(WorkloadSpec::profile("ckt-a"), Some(WorkloadSpec::ckt_a()));
    /// assert_eq!(WorkloadSpec::profile("bogus"), None);
    /// ```
    pub fn profile(name: &str) -> Option<Self> {
        match name {
            "ckt-a" => Some(Self::ckt_a()),
            "ckt-b" => Some(Self::ckt_b()),
            "ckt-c" => Some(Self::ckt_c()),
            "demo" => Some(Self::default()),
            _ => None,
        }
    }

    /// Shrinks the workload by an integer factor: cells, chains and
    /// patterns are divided by `scale` (floored to a workable minimum
    /// topology), densities and fractions untouched. `scale <= 1` is the
    /// identity. This is the `--scale` knob shared by `xhybrid gen` and
    /// `xhybrid plan --profile`.
    pub fn scaled(mut self, scale: usize) -> Self {
        if scale > 1 {
            self.total_cells = (self.total_cells / scale).max(self.num_chains.max(4));
            self.num_chains = (self.num_chains / scale).max(4);
            self.num_patterns = (self.num_patterns / scale).max(20);
        }
        self
    }

    /// The scan topology the workload uses.
    pub fn scan_config(&self) -> ScanConfig {
        ScanConfig::balanced(self.total_cells, self.num_chains)
    }

    /// Target total X count.
    pub fn target_x(&self) -> usize {
        (self.x_density * self.total_cells as f64 * self.num_patterns as f64).round() as usize
    }

    /// Generates the X map. Deterministic per spec (including `seed`).
    ///
    /// # Panics
    ///
    /// Panics if the spec is inconsistent (zero cells/chains/patterns,
    /// fractions outside `\[0, 1\]`).
    pub fn generate(&self) -> XMap {
        assert!(self.num_patterns > 0, "need at least one pattern");
        for (label, f) in [
            ("x_density", self.x_density),
            ("correlated_fraction", self.correlated_fraction),
            ("group_pattern_fraction", self.group_pattern_fraction),
            ("x_cell_fraction", self.x_cell_fraction),
            ("spatial_clustering", self.spatial_clustering),
        ] {
            assert!((0.0..=1.0).contains(&f), "{label} must be in [0,1]");
        }
        let config = self.scan_config();
        let mut rng = XhcRng::seed_from_u64(self.seed);

        let target = self.target_x();
        let corr_budget = (target as f64 * self.correlated_fraction).round() as usize;
        let noise_budget = target.saturating_sub(corr_budget);

        // The X cell pool: the only cells ever allowed to capture X.
        let pool_size = ((self.total_cells as f64 * self.x_cell_fraction).round() as usize)
            .clamp(1, self.total_cells);
        let mut pool = self.sample_pool(&config, pool_size, &mut rng);
        if self.spatial_clustering <= 0.0 {
            // A clustered walk is kept in walk order so correlated groups
            // occupy contiguous chain segments; a scattered pool gains
            // nothing from its sampling order.
            pool.shuffle(&mut rng);
        }
        // One packed row per pool cell, in ascending-cell order: the
        // map's own layout, so the X's land where the map keeps them.
        // The pool is sampled without replacement, so a position names
        // exactly one cell, and `row_of[pos]` is that cell's row.
        let mut order: Vec<usize> = (0..pool.len()).collect();
        order.sort_unstable_by_key(|&pos| pool[pos]);
        let pool_len = pool.len();
        let mut row_of = vec![0u32; pool_len];
        let mut cells = Vec::with_capacity(pool_len);
        for (row, &pos) in order.iter().enumerate() {
            row_of[pos] = row as u32;
            cells.push(u32::try_from(pool[pos]).expect("linear cell index fits in u32"));
        }
        // From here on a pool position reaches its row through `row_of`
        // alone; freeing the sample before the rows are allocated keeps
        // it out of the generator's high-water mark.
        drop(order);
        drop(pool);
        let stride = self.num_patterns.div_ceil(64);
        let mut words = vec![0u64; pool_len * stride];
        let row = |pos: usize| row_of[pos] as usize * stride;

        // Correlated groups: identical pattern set per group, cells drawn
        // from the front of the pool (they may also receive noise later,
        // which only adds patterns and never breaks the superset
        // property that makes them maskable).
        let mut pool_cursor = 0usize;
        if self.num_groups > 0 && corr_budget > 0 {
            let per_group = corr_budget / self.num_groups;
            for g in 0..self.num_groups {
                // Group pattern-set size: jitter around the mean fraction.
                let mean = (self.group_pattern_fraction * self.num_patterns as f64).max(1.0);
                let lo = (mean * 0.5).max(1.0) as usize;
                let hi = ((mean * 1.5) as usize).clamp(lo + 1, self.num_patterns + 1);
                let set_size = rng.gen_range(lo..hi).min(self.num_patterns);
                let patterns = random_pattern_set(&mut rng, self.num_patterns, set_size);

                let budget_g = if g == self.num_groups - 1 {
                    corr_budget - per_group * (self.num_groups - 1)
                } else {
                    per_group
                };
                let cells_in_group = (budget_g / set_size).max(1);
                for _ in 0..cells_in_group {
                    if pool_cursor >= pool_len {
                        break;
                    }
                    let r = row(pool_cursor);
                    words[r..r + stride].copy_from_slice(patterns.as_bits().as_words());
                    pool_cursor += 1;
                }
            }
        }
        // The rest of the pool starts empty; noise fills it below.

        // Noise: scattered X's over the part of the pool *not* used by the
        // correlated groups. Keeping group cells pristine matters: the
        // paper's §3 analysis of real industrial data finds cells with
        // *exactly* equal X counts and identical pattern sets (177 cells
        // with exactly 406 X's), and the partitioning pivot is defined on
        // those exact-count classes. Only when the groups used up the pool
        // does noise union onto group cells.
        let noise_start = if pool_cursor < pool_len {
            pool_cursor
        } else {
            0
        };
        let noise_len = pool_len - noise_start;
        // Heterogeneous per-cell noise rates (log-uniform weights): real X
        // sources differ wildly in how often they fire, so per-cell X
        // counts spread out instead of clustering binomially around one
        // mean — uniform noise would manufacture large *coincidental*
        // equal-count classes that mislead the partitioning pivot.
        let cumulative: Vec<f64> = (0..noise_len)
            .scan(0.0f64, |acc, _| {
                *acc += (rng.gen_range(0.0..3.0f64)).exp();
                Some(*acc)
            })
            .collect();
        let total_weight = cumulative.last().copied().unwrap_or(0.0);
        let mut noise_left = if noise_len == 0 || total_weight <= 0.0 {
            0
        } else {
            noise_budget
        };
        let table = DrawTable::new(&cumulative);
        drop(cumulative);
        let num_patterns = u32::try_from(self.num_patterns).expect("pattern index fits in u32");
        // Each noise X draws its cell (the 53 bits `gen_range(0.0..total)`
        // would scale), then its pattern (one gen_index). A chunk goes
        // through three passes over one buffer: draw, resolve each entry
        // in place to its (word, bit), then OR. The random stores into
        // the rows stay out of the draw-and-lookup chain.
        let mut chunk: Vec<(u64, u32)> = Vec::with_capacity(NOISE_CHUNK);
        while noise_left > 0 {
            let n = noise_left.min(NOISE_CHUNK);
            chunk.clear();
            chunk.extend((0..n).map(|_| {
                let k = rng.next_u53();
                (k, rng.gen_index(num_patterns as usize) as u32)
            }));
            for entry in &mut chunk {
                let pos = noise_start + table.lookup(entry.0).min(noise_len - 1);
                let p = entry.1 as usize;
                *entry = ((row(pos) + p / 64) as u64, (p % 64) as u32);
            }
            for &(word, bit) in &chunk {
                words[word as usize] |= 1 << bit;
            }
            noise_left -= n;
        }
        let rows = XBitMatrix::from_words(self.num_patterns, words)
            .expect("every drawn pattern lies inside the universe");
        // Pool cells that drew no X are empty rows; the map drops them.
        XMap::from_rows(config, cells, rows)
    }
}

impl WorkloadSpec {
    /// Samples the X cell pool, optionally as spatially-clustered chain
    /// runs (see [`WorkloadSpec::spatial_clustering`]).
    fn sample_pool(&self, config: &ScanConfig, size: usize, rng: &mut XhcRng) -> Vec<usize> {
        // Fall back to uniform sampling when clustering is off or the pool
        // is so large that rejection sampling would crawl.
        if self.spatial_clustering <= 0.0 || size * 2 > self.total_cells {
            return sample_indices(rng, self.total_cells, size);
        }
        let mut chosen = std::collections::HashSet::with_capacity(size);
        let mut pool = Vec::with_capacity(size);
        let mut prev: Option<xhc_scan::CellId> = None;
        while pool.len() < size {
            let neighbour = prev
                .filter(|_| rng.gen_bool(self.spatial_clustering))
                .and_then(|cell| {
                    let chain = cell.chain as usize;
                    let len = config.chain_len(chain);
                    let pos = cell.position as i64;
                    [pos + 1, pos - 1]
                        .into_iter()
                        .filter(|&p| p >= 0 && (p as usize) < len)
                        .map(|p| config.linear_index(xhc_scan::CellId::new(chain, p as usize)))
                        .find(|i| !chosen.contains(i))
                });
            let idx = neighbour.unwrap_or_else(|| loop {
                let i = rng.gen_range(0..self.total_cells);
                if !chosen.contains(&i) {
                    break i;
                }
            });
            chosen.insert(idx);
            pool.push(idx);
            prev = Some(config.cell_at(idx));
        }
        pool
    }
}

/// Noise X's drawn, resolved and inserted per chunk (16 bytes each).
const NOISE_CHUNK: usize = 1024;

/// Draw buckets per noise cell, at least (rounded up to a power of two).
const BUCKETS_PER_CELL: usize = 4;

/// The number of 53-bit draws: `k` runs over `0..DRAWS`.
const DRAWS: u64 = 1 << 53;

/// Weighted cell selection keyed on a noise X's own 53-bit draw `k`:
/// the index `partition_point(|&c| c <= pick(k))` returns, where
/// `pick(k) = unit_f64(k) * total` is the value `gen_range(0.0..total)`
/// makes of the same draw.
///
/// `pick` is monotone in `k`, so each weight `c` has a threshold draw
/// `T = min k` with `pick(k) >= c`, and `c <= pick(k) ⇔ k >= T`. The
/// answer is therefore `#{i : T[i] <= k}`, an integer count with no
/// float compare left in it. The draws are cut into `2^m` power-of-two
/// buckets `b = k >> sh` (`sh = 53 - m`), and one entry per bucket holds
/// `lo`, the answer at the bucket's first draw `b << sh`; the offset of
/// the next threshold `T[lo]` from that draw (`2^sh` when it lies past
/// the bucket); and a flag when a second threshold falls in the bucket
/// too. An unflagged bucket answers `lo + (k's offset >= T[lo]'s)`; a
/// flagged one scans the thresholds upward from there.
struct DrawTable {
    /// `T[i]` per weight, then a `u64::MAX` sentinel that ends a scan.
    thresholds: Vec<u64>,
    /// Per bucket: `lo << (sh + 2) | flag << (sh + 1) | offset`.
    buckets: Vec<u64>,
    sh: u32,
}

/// The least draw `k <= 2^53` whose pick `unit_f64(k) * total` reaches
/// `c <= total`. `c / total · 2^53` is within a few draws of it.
fn threshold(c: f64, total: f64) -> u64 {
    let pick = |k: u64| unit_f64(k) * total;
    let mut k = ((c / total * DRAWS as f64) as u64).min(DRAWS);
    while k > 0 && pick(k - 1) >= c {
        k -= 1;
    }
    while k < DRAWS && pick(k) < c {
        k += 1;
    }
    k
}

impl DrawTable {
    /// Builds the table over `cumulative`, which must be non-decreasing.
    fn new(cumulative: &[f64]) -> Self {
        let total = cumulative.last().copied().unwrap_or(0.0);
        let mut thresholds: Vec<u64> = cumulative.iter().map(|&c| threshold(c, total)).collect();
        thresholds.push(u64::MAX);
        let count = (BUCKETS_PER_CELL * cumulative.len()).next_power_of_two();
        let sh = 53 - count.trailing_zeros();
        let width = 1u64 << sh;
        let mut lo = 0usize;
        let buckets = (0..count as u64)
            .map(|b| {
                let first = b << sh;
                while thresholds[lo] <= first {
                    lo += 1;
                }
                // Every threshold from `lo` on lies past `first`, and
                // the sentinel past every bucket.
                let offset = (thresholds[lo] - first).min(width);
                let flag = thresholds.get(lo + 1).is_some_and(|&t| t - first < width) as u64;
                ((lo as u64) << (sh + 2)) | (flag << (sh + 1)) | offset
            })
            .collect();
        DrawTable {
            thresholds,
            buckets,
            sh,
        }
    }

    /// The first index whose cumulative weight exceeds `pick(k)` (the
    /// length if none does), for a draw `k < 2^53`.
    #[inline]
    fn lookup(&self, k: u64) -> usize {
        let entry = self.buckets[(k >> self.sh) as usize];
        let offset = entry & ((2 << self.sh) - 1);
        let mut i = (entry >> (self.sh + 2)) as usize;
        i += ((k & ((1 << self.sh) - 1)) >= offset) as usize;
        if (entry >> (self.sh + 1)) & 1 != 0 {
            while self.thresholds[i] <= k {
                i += 1;
            }
        }
        i
    }
}

fn random_pattern_set(rng: &mut XhcRng, universe: usize, size: usize) -> PatternSet {
    let picks = sample_indices(rng, universe, size.min(universe));
    PatternSet::from_patterns(universe, picks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WorkloadSpec {
        WorkloadSpec {
            total_cells: 500,
            num_chains: 5,
            num_patterns: 120,
            x_density: 0.03,
            num_groups: 4,
            seed: 7,
            ..WorkloadSpec::default()
        }
    }

    #[test]
    fn density_close_to_target() {
        let xmap = small().generate();
        let got = xmap.x_density();
        assert!((got - 0.03).abs() < 0.01, "target 0.03, got {got}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small().generate();
        let b = small().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small().generate();
        let b = WorkloadSpec { seed: 8, ..small() }.generate();
        assert_ne!(a, b);
    }

    #[test]
    fn x_cells_bounded_by_pool() {
        let spec = small();
        let xmap = spec.generate();
        let pool = (spec.total_cells as f64 * spec.x_cell_fraction).round() as usize;
        assert!(xmap.num_x_cells() <= pool);
        assert!(xmap.num_x_cells() > 0);
    }

    #[test]
    fn correlated_groups_share_identical_sets() {
        // With 90% correlation there must be a sizable group of cells with
        // identical X pattern sets.
        let spec = WorkloadSpec {
            correlated_fraction: 1.0,
            ..small()
        };
        let xmap = spec.generate();
        let mut by_set: std::collections::HashMap<xhc_bits::PatternRow<'_>, usize> =
            std::collections::HashMap::new();
        for (_, xs) in xmap.iter() {
            *by_set.entry(xs).or_insert(0) += 1;
        }
        let largest = by_set.values().copied().max().unwrap_or(0);
        assert!(largest >= 3, "expected a correlated group, got {largest}");
    }

    /// Checks `DrawTable::lookup` against `partition_point` at every
    /// bucket's first draw ±1, every threshold draw ±1, both ends of the
    /// draw range and `random` more draws. Returns how many probes only
    /// the flagged buckets' scan could answer (the answer lies two or
    /// more past the bucket's `lo`).
    fn check_table(cumulative: &[f64], rng: &mut XhcRng, random: usize) -> usize {
        let len = cumulative.len();
        let total = *cumulative.last().unwrap();
        let pick = |k: u64| unit_f64(k) * total;
        let table = DrawTable::new(cumulative);
        let count = table.buckets.len();
        assert!(count.is_power_of_two() && count >= BUCKETS_PER_CELL * len);
        assert_eq!(count << table.sh, DRAWS as usize);
        assert_eq!(table.thresholds.len(), len + 1);
        assert_eq!(table.thresholds[len], u64::MAX);
        let mut draws = vec![0, DRAWS - 1];
        for b in 0..count as u64 {
            let first = b << table.sh;
            draws.extend([first.saturating_sub(1), first, first + 1]);
        }
        for &t in &table.thresholds[..len] {
            draws.extend([t.saturating_sub(1), t, t + 1]);
        }
        draws.extend((0..random).map(|_| rng.next_u53()));
        let mut scanned = 0;
        for k in draws.into_iter().filter(|&k| k < DRAWS) {
            let want = cumulative.partition_point(|&c| c <= pick(k));
            assert_eq!(table.lookup(k), want, "len {len}, k {k}");
            let entry = table.buckets[(k >> table.sh) as usize];
            let flagged = (entry >> (table.sh + 1)) & 1 != 0;
            if flagged && want >= (entry >> (table.sh + 2)) as usize + 2 {
                scanned += 1;
            }
        }
        scanned
    }

    /// Cumulative sums of `weights`.
    fn cumulate(weights: impl Iterator<Item = f64>) -> Vec<f64> {
        weights
            .scan(0.0f64, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect()
    }

    #[test]
    fn draw_table_lookup_equals_partition_point() {
        let mut rng = XhcRng::seed_from_u64(0xC07);
        for len in [1usize, 2, 63, 64, 65, 7_800] {
            // The generator's own weights.
            let cumulative = cumulate((0..len).map(|_| rng.gen_range(0.0..3.0f64).exp()));
            check_table(&cumulative, &mut rng, 1000);
            // Weights that sit exactly on the picks of bucket edges and
            // of the draws either side, so an answer changes right at a
            // bucket's first draw.
            let total = len as f64 * 7.3;
            let sh = 53
                - (BUCKETS_PER_CELL * len)
                    .next_power_of_two()
                    .trailing_zeros();
            let mut aligned: Vec<f64> = (0..len as u64 - 1)
                .map(|j| {
                    let first = (BUCKETS_PER_CELL as u64 * j + 1) << sh;
                    unit_f64(first + j % 3 - 1) * total
                })
                .collect();
            aligned.push(total);
            check_table(&aligned, &mut rng, 0);
        }
        // Thousands of weight-1 cells beside one weight-10^6 cell: the
        // light cells' thresholds crowd dozens to a bucket.
        let weights = (0..3_001).map(|i| if i == 1_500 { 1e6 } else { 1.0 });
        let scanned = check_table(&cumulate(weights), &mut rng, 1000);
        assert!(scanned > 0, "no probe took the flagged buckets' scan");
    }

    #[test]
    fn presets_have_paper_shapes() {
        let a = WorkloadSpec::ckt_a();
        assert_eq!(a.total_cells, 505_050);
        assert_eq!(a.scan_config().num_chains(), 1000);
        let b = WorkloadSpec::ckt_b();
        assert_eq!(
            b.target_x(),
            (0.0275f64 * 36_075.0 * 3000.0).round() as usize
        );
        let c = WorkloadSpec::ckt_c();
        assert_eq!(c.num_patterns, 3000);
    }

    #[test]
    fn profile_lookup_and_scaling() {
        assert_eq!(WorkloadSpec::profile("ckt-b"), Some(WorkloadSpec::ckt_b()));
        assert_eq!(WorkloadSpec::profile("demo"), Some(WorkloadSpec::default()));
        assert_eq!(WorkloadSpec::profile("CKT-B"), None);

        let scaled = WorkloadSpec::ckt_a().scaled(10);
        assert_eq!(scaled.total_cells, 50_505);
        assert_eq!(scaled.num_chains, 100);
        assert_eq!(scaled.num_patterns, 300);
        assert_eq!(scaled.seed, WorkloadSpec::ckt_a().seed);
        assert_eq!(WorkloadSpec::ckt_a().scaled(1), WorkloadSpec::ckt_a());
        // Extreme scales bottom out at a workable topology.
        let tiny = WorkloadSpec::default().scaled(10_000);
        assert!(tiny.num_chains >= 4 && tiny.num_patterns >= 20);
        assert!(tiny.total_cells >= tiny.num_chains);
    }

    #[test]
    fn spatial_clustering_creates_chain_runs() {
        let scattered = WorkloadSpec {
            spatial_clustering: 0.0,
            ..small()
        }
        .generate();
        let clustered = WorkloadSpec {
            spatial_clustering: 0.9,
            ..small()
        }
        .generate();
        let adjacency = |xmap: &xhc_scan::XMap| {
            let cfg = xmap.config();
            let mut pairs = 0usize;
            for (cell, _) in xmap.iter() {
                let chain = cell.chain as usize;
                let pos = cell.position as usize;
                if pos + 1 < cfg.chain_len(chain)
                    && xmap.xset(xhc_scan::CellId::new(chain, pos + 1)).is_some()
                {
                    pairs += 1;
                }
            }
            pairs
        };
        assert!(
            adjacency(&clustered) > adjacency(&scattered) * 2,
            "clustered {} vs scattered {}",
            adjacency(&clustered),
            adjacency(&scattered)
        );
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn bad_fraction_panics() {
        WorkloadSpec {
            x_density: 1.5,
            ..WorkloadSpec::default()
        }
        .generate();
    }
}
