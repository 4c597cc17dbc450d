//! A packed, read-only bit matrix for word-sweep superset counting.
//!
//! The partition engine's cost-only candidate evaluator views the X map
//! as an incidence matrix — one row per X-capturing cell, one column per
//! test pattern — and answers, for a candidate binary split `(A, B)` of a
//! partition, *how many rows are supersets of `A`* and *how many are
//! supersets of `B`*, using nothing but word-level `AND`/`ANDNOT` and
//! early-exit compares. That pair of counts is exactly what the paper's
//! cost function `L·C·#partitions + m·q·leakedX/(m−q)` needs (a child's
//! masked X total is `#superset-rows × |child|`), so a split candidate
//! can be priced without materialising any partition state.
//!
//! The sweep kernel is written for full-size circuits (CKT-A: 505,050
//! cells × 3,000 patterns): per-row accumulation runs in four explicit
//! `u64` violation lanes (no `unsafe` — shaped so LLVM autovectorizes
//! the contiguous fast path), and [`XBitMatrix::count_supersets_pair_sharded`]
//! splits the row sweep into contiguous bands evaluated on an `xhc-par`
//! pool with a fixed-order partial-count fold, so one candidate's sweep
//! parallelizes without perturbing the counts.

use crate::PatternRow;

const WORD_BITS: usize = 64;

/// Accumulator width of the unrolled sweep: four independent `u64`
/// violation lanes per query, matching a 256-bit vector register.
const LANES: usize = 4;

/// Per-row subset test over an explicit word-id list, in [`LANES`]-wide
/// violation lanes: lane `k` accumulates `a[w] & !row[w]` over every
/// `LANES`-th word, so `a ⊆ row` iff the OR of all lanes is zero. One
/// early-exit check per lane block (not per word) keeps the
/// bound-pruning exit while leaving the lane ops branch-free.
#[inline]
fn sweep_row_indexed(row: &[u64], word_ids: &[u32], a: &[u64], b: &[u64]) -> (bool, bool) {
    let mut va = [0u64; LANES];
    let mut vb = [0u64; LANES];
    let mut blocks = word_ids.chunks_exact(LANES);
    for block in &mut blocks {
        for k in 0..LANES {
            let w = block[k] as usize;
            let not_row = !row[w];
            va[k] |= a[w] & not_row;
            vb[k] |= b[w] & not_row;
        }
        if (va[0] | va[1] | va[2] | va[3]) != 0 && (vb[0] | vb[1] | vb[2] | vb[3]) != 0 {
            return (false, false);
        }
    }
    let mut ra = va[0] | va[1] | va[2] | va[3];
    let mut rb = vb[0] | vb[1] | vb[2] | vb[3];
    for &w in blocks.remainder() {
        let w = w as usize;
        let not_row = !row[w];
        ra |= a[w] & not_row;
        rb |= b[w] & not_row;
    }
    (ra == 0, rb == 0)
}

/// The contiguous fast path of [`sweep_row_indexed`]: `row`, `a` and `b`
/// are already sliced to the partition's word window, so the lanes read
/// consecutive words — the shape LLVM turns into vector loads. Lane
/// accumulation is identical to the indexed path, so the counts are too.
#[inline]
fn sweep_row_contig(row: &[u64], a: &[u64], b: &[u64]) -> (bool, bool) {
    let mut va = [0u64; LANES];
    let mut vb = [0u64; LANES];
    let mut row_blocks = row.chunks_exact(LANES);
    let mut a_blocks = a.chunks_exact(LANES);
    let mut b_blocks = b.chunks_exact(LANES);
    for ((rw, aw), bw) in (&mut row_blocks).zip(&mut a_blocks).zip(&mut b_blocks) {
        for k in 0..LANES {
            let not_row = !rw[k];
            va[k] |= aw[k] & not_row;
            vb[k] |= bw[k] & not_row;
        }
        if (va[0] | va[1] | va[2] | va[3]) != 0 && (vb[0] | vb[1] | vb[2] | vb[3]) != 0 {
            return (false, false);
        }
    }
    let mut ra = va[0] | va[1] | va[2] | va[3];
    let mut rb = vb[0] | vb[1] | vb[2] | vb[3];
    for ((rw, aw), bw) in row_blocks
        .remainder()
        .iter()
        .zip(a_blocks.remainder())
        .zip(b_blocks.remainder())
    {
        let not_row = !rw;
        ra |= aw & not_row;
        rb |= bw & not_row;
    }
    (ra == 0, rb == 0)
}

/// A dense rows × universe bit matrix packed into `u64` words, row-major.
///
/// Rows are immutable once built (only [`XBitMatrix::retain_rows`] can
/// drop some); an X map keeps its X pattern sets in one of these, and
/// the partition engine's sweeps read it in place, shared read-only
/// across worker threads.
///
/// # Examples
///
/// ```
/// use xhc_bits::{BitVec, XBitMatrix};
///
/// let rows = [
///     BitVec::from_indices(70, [0, 1, 65]),
///     BitVec::from_indices(70, [0, 65]),
///     BitVec::from_indices(70, [3]),
/// ];
/// let words = rows.iter().flat_map(|r| r.as_words().to_vec()).collect();
/// let m = XBitMatrix::from_words(70, words).unwrap();
/// assert_eq!(m.num_rows(), 3);
/// assert_eq!(m.stride(), 2);
///
/// // Rows 0 and 1 are supersets of {0, 65}; row 2 is a superset of {3}.
/// let a = BitVec::from_indices(70, [0, 65]);
/// let b = BitVec::from_indices(70, [3]);
/// let word_ids = [0u32, 1];
/// let (na, nb) = m.count_supersets_pair(
///     &[0, 1, 2],
///     &word_ids,
///     a.as_words(),
///     b.as_words(),
/// );
/// assert_eq!((na, nb), (2, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XBitMatrix {
    words: Vec<u64>,
    stride: usize,
    rows: usize,
    universe: usize,
}

impl XBitMatrix {
    /// Adopts already-packed row-major words: `universe.div_ceil(64)`
    /// words per row, so the row count is `words.len() / stride` (zero
    /// when `universe` is zero). This is the buffer an X map decodes or
    /// generates into, taken over without a copy.
    ///
    /// # Errors
    ///
    /// `Err(r)` when row `r` (the first such) has a bit set beyond
    /// `universe`: such a row is no pattern set, and letting it in would
    /// give one set two encodings.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` is not a whole number of rows.
    ///
    /// # Examples
    ///
    /// ```
    /// use xhc_bits::XBitMatrix;
    ///
    /// let m = XBitMatrix::from_words(70, vec![1 << 3, 1 << 5, 1, 0]).unwrap();
    /// assert_eq!(m.num_rows(), 2);
    /// assert_eq!(m.pattern_row(0).iter().collect::<Vec<_>>(), vec![3, 69]);
    /// // Bit 70 of row 1 lies past the universe.
    /// assert_eq!(XBitMatrix::from_words(70, vec![0, 0, 0, 1 << 6]), Err(1));
    /// ```
    pub fn from_words(universe: usize, words: Vec<u64>) -> Result<Self, usize> {
        let stride = universe.div_ceil(WORD_BITS);
        let rows = if stride == 0 {
            assert!(words.is_empty(), "a zero-width matrix holds no words");
            0
        } else {
            assert_eq!(
                words.len() % stride,
                0,
                "word count must be a whole number of rows"
            );
            words.len() / stride
        };
        let tail_bits = universe % WORD_BITS;
        if tail_bits != 0 {
            if let Some(r) = (0..rows).find(|r| words[(r + 1) * stride - 1] >> tail_bits != 0) {
                return Err(r);
            }
        }
        Ok(XBitMatrix {
            words,
            stride,
            rows,
            universe,
        })
    }

    /// Drops, in place, every row for which `keep(r, row)` is false
    /// (rows are offered in ascending order `r`), keeping the survivors
    /// in order. No allocation: kept rows slide down within the buffer.
    pub fn retain_rows(&mut self, mut keep: impl FnMut(usize, PatternRow<'_>) -> bool) {
        let mut kept = 0;
        for r in 0..self.rows {
            let span = r * self.stride..(r + 1) * self.stride;
            if keep(r, PatternRow::new(&self.words[span.clone()], self.universe)) {
                self.words.copy_within(span, kept * self.stride);
                kept += 1;
            }
        }
        self.rows = kept;
        self.words.truncate(kept * self.stride);
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Bits per row.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Words per row. Scratch buffers passed to the sweep kernels must
    /// hold at least this many words.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The backing words of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= num_rows()`.
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }

    /// Row `r` as a pattern-set view.
    ///
    /// # Panics
    ///
    /// Panics if `r >= num_rows()`.
    pub fn pattern_row(&self, r: usize) -> PatternRow<'_> {
        PatternRow::new(self.row(r), self.universe)
    }

    /// Every row's words, row-major (`num_rows() * stride()` words).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Counts, over the listed rows, how many are supersets of `a` and
    /// how many are supersets of `b` — the two children of a candidate
    /// binary split.
    ///
    /// `word_ids` must list, in strictly ascending order, every word
    /// index at which `a` or `b` has a set bit (indices may be a
    /// superset of that; each must be `< stride()`). Words outside
    /// `word_ids` are never read, so `a` and `b` may be scratch buffers
    /// holding garbage there — the no-zeroing contract that makes
    /// per-candidate evaluation allocation-free. When the listed ids
    /// form one consecutive run (the common case at full size, where a
    /// partition's pattern words are dense) the sweep takes a contiguous
    /// fast path over word slices.
    ///
    /// The subset test per row is `a[w] & !row[w] == 0` over `word_ids`,
    /// accumulated in four independent violation lanes with an early
    /// exit once both tests have failed.
    ///
    /// # Panics
    ///
    /// Panics if a row id or word id is out of range (by slice indexing).
    pub fn count_supersets_pair(
        &self,
        row_ids: &[u32],
        word_ids: &[u32],
        a: &[u64],
        b: &[u64],
    ) -> (usize, usize) {
        xhc_trace::counter_add("xbm.superset_calls", 1);
        xhc_trace::counter_add("xbm.rows_tested", row_ids.len() as u64);
        self.count_pair_rows(row_ids, word_ids, a, b)
    }

    /// [`XBitMatrix::count_supersets_pair`] with the row sweep split into
    /// `shards` contiguous bands of `row_ids`, evaluated on up to
    /// `threads` `xhc-par` workers.
    ///
    /// Each band contributes an independent `(supersets-of-a,
    /// supersets-of-b)` partial count; the partials are summed in band
    /// order, so the result is bit-identical to the unsharded kernel for
    /// every `shards`/`threads` combination (integer addition over
    /// disjoint row bands is order-insensitive, and the fold order is
    /// fixed anyway). `shards <= 1` degenerates to the unsharded kernel
    /// with no pool involvement.
    pub fn count_supersets_pair_sharded(
        &self,
        row_ids: &[u32],
        word_ids: &[u32],
        a: &[u64],
        b: &[u64],
        shards: usize,
        threads: usize,
    ) -> (usize, usize) {
        let shards = shards.clamp(1, row_ids.len().max(1));
        if shards <= 1 {
            return self.count_supersets_pair(row_ids, word_ids, a, b);
        }
        xhc_trace::counter_add("xbm.superset_calls", 1);
        xhc_trace::counter_add("xbm.rows_tested", row_ids.len() as u64);
        xhc_trace::counter_add("xbm.shards", shards as u64);
        xhc_par::par_shard_reduce_threads(
            threads,
            row_ids.len(),
            shards,
            (0usize, 0usize),
            |band| self.count_pair_rows(&row_ids[band], word_ids, a, b),
            |(na, nb), (pa, pb)| (na + pa, nb + pb),
        )
    }

    /// The shared row loop behind both public sweep entry points.
    /// Emits no trace counters so a sharded call costs the same
    /// disabled-path atomics as an unsharded one.
    fn count_pair_rows(
        &self,
        row_ids: &[u32],
        word_ids: &[u32],
        a: &[u64],
        b: &[u64],
    ) -> (usize, usize) {
        debug_assert!(
            word_ids.windows(2).all(|w| w[0] < w[1]),
            "word_ids must be strictly ascending"
        );
        let mut na = 0usize;
        let mut nb = 0usize;
        // One consecutive run of word ids ⇒ slice out the window once and
        // sweep contiguously (vectorizable); otherwise gather by index.
        let contig = match (word_ids.first(), word_ids.last()) {
            (Some(&lo), Some(&hi)) => (hi - lo) as usize == word_ids.len() - 1,
            _ => false,
        };
        if contig {
            let lo = word_ids[0] as usize;
            let hi = *word_ids.last().expect("non-empty") as usize + 1;
            xhc_trace::counter_add("xbm.lane_words", (hi - lo) as u64 & !(LANES as u64 - 1));
            let aw = &a[lo..hi];
            let bw = &b[lo..hi];
            for &r in row_ids {
                let row = &self.row(r as usize)[lo..hi];
                let (a_sub, b_sub) = sweep_row_contig(row, aw, bw);
                na += usize::from(a_sub);
                nb += usize::from(b_sub);
            }
        } else {
            xhc_trace::counter_add(
                "xbm.lane_words",
                word_ids.len() as u64 & !(LANES as u64 - 1),
            );
            for &r in row_ids {
                let row = self.row(r as usize);
                let (a_sub, b_sub) = sweep_row_indexed(row, word_ids, a, b);
                na += usize::from(a_sub);
                nb += usize::from(b_sub);
            }
        }
        (na, nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitVec;

    fn naive_supersets(rows: &[BitVec], x: &BitVec) -> usize {
        rows.iter().filter(|r| x.is_subset_of(r)).count()
    }

    /// Packs equal-length rows over `universe` bits.
    fn pack<'a>(universe: usize, rows: impl IntoIterator<Item = &'a BitVec>) -> XBitMatrix {
        let words = rows
            .into_iter()
            .flat_map(|r| r.as_words().to_vec())
            .collect();
        XBitMatrix::from_words(universe, words).unwrap()
    }

    #[test]
    fn empty_matrix() {
        let m = pack(10, []);
        assert_eq!(m.num_rows(), 0);
        assert_eq!(m.stride(), 1);
        let a = BitVec::zeros(10);
        let (na, nb) = m.count_supersets_pair(&[], &[0], a.as_words(), a.as_words());
        assert_eq!((na, nb), (0, 0));
    }

    #[test]
    fn row_roundtrip() {
        let rows = [
            BitVec::from_indices(130, [0, 64, 129]),
            BitVec::from_indices(130, [63, 64, 65]),
        ];
        let m = pack(130, rows.iter());
        assert_eq!(m.stride(), 3);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(m.row(i), r.as_words());
        }
    }

    #[test]
    fn pattern_rows_view_the_packed_words() {
        let rows: Vec<BitVec> = (0..9)
            .map(|i| BitVec::from_indices(200, [i, i + 64, 199]))
            .collect();
        let m = pack(200, &rows);
        assert_eq!(m.words().len(), 9 * m.stride());
        for (i, r) in rows.iter().enumerate() {
            let row = m.pattern_row(i);
            assert_eq!(row.words(), r.as_words());
            assert_eq!(
                row.iter().collect::<Vec<_>>(),
                r.iter_ones().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn from_words_rejects_the_first_row_with_tail_bits() {
        // Universe 130: three words per row, two live bits in the last.
        assert_eq!(
            XBitMatrix::from_words(130, vec![0, 0, 1 << 1, 0, 0, 1 << 2, 0, 0, 1 << 63]),
            Err(1)
        );
        assert!(XBitMatrix::from_words(128, vec![!0; 6]).is_ok());
        assert_eq!(XBitMatrix::from_words(0, Vec::new()).unwrap().num_rows(), 0);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn from_words_rejects_a_partial_row() {
        let _ = XBitMatrix::from_words(65, vec![0, 0, 0]);
    }

    #[test]
    fn retain_rows_compacts_in_order() {
        let rows: Vec<BitVec> = (0..6).map(|i| BitVec::from_indices(70, [i, 69])).collect();
        let mut m = pack(70, rows.iter());
        let mut offered = Vec::new();
        m.retain_rows(|r, row| {
            offered.push(r);
            assert!(row.contains(r));
            r % 2 == 1
        });
        assert_eq!(offered, (0..6).collect::<Vec<_>>());
        let odd = [&rows[1], &rows[3], &rows[5]];
        assert_eq!(m, pack(70, odd));
    }

    #[test]
    fn superset_counts_match_naive_across_word_boundaries() {
        // Universes straddling the word boundary, the kernel's edge zone —
        // plus 255/256/257 so the lane remainder (stride % 4) hits every
        // residue on multi-block strides.
        for universe in [63usize, 64, 65, 127, 128, 129, 255, 256, 257] {
            let mut state = 0x9E3779B97F4A7C15u64 ^ universe as u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let rows: Vec<BitVec> = (0..40)
                .map(|_| BitVec::from_indices(universe, (0..universe).filter(|_| next() % 3 == 0)))
                .collect();
            let m = pack(universe, rows.iter());
            let word_ids: Vec<u32> = (0..m.stride() as u32).collect();
            let row_ids: Vec<u32> = (0..rows.len() as u32).collect();
            for trial in 0..8 {
                let a = BitVec::from_indices(
                    universe,
                    (0..universe).filter(|_| next() % (3 + trial) == 0),
                );
                let mut b = a.clone();
                b.negate();
                let (na, nb) =
                    m.count_supersets_pair(&row_ids, &word_ids, a.as_words(), b.as_words());
                assert_eq!(na, naive_supersets(&rows, &a), "universe {universe}");
                assert_eq!(nb, naive_supersets(&rows, &b), "universe {universe}");
            }
        }
    }

    #[test]
    fn sharded_counts_match_unsharded_at_every_shape() {
        let universe = 257usize;
        let mut state = 0xD1B54A32D192ED03u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rows: Vec<BitVec> = (0..50)
            .map(|_| BitVec::from_indices(universe, (0..universe).filter(|_| next() % 4 == 0)))
            .collect();
        let m = pack(universe, rows.iter());
        let word_ids: Vec<u32> = (0..m.stride() as u32).collect();
        let row_ids: Vec<u32> = (0..rows.len() as u32).collect();
        let a = BitVec::from_indices(universe, (0..universe).filter(|_| next() % 5 == 0));
        let mut b = a.clone();
        b.negate();
        let want = m.count_supersets_pair(&row_ids, &word_ids, a.as_words(), b.as_words());
        for shards in [1usize, 3, 8, 50, 200] {
            for threads in [1usize, 2, 8] {
                let got = m.count_supersets_pair_sharded(
                    &row_ids,
                    &word_ids,
                    a.as_words(),
                    b.as_words(),
                    shards,
                    threads,
                );
                assert_eq!(got, want, "shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn scratch_garbage_outside_word_ids_is_ignored() {
        // The no-zeroing contract: words not listed in word_ids may hold
        // arbitrary garbage without affecting the counts.
        let rows = [
            BitVec::from_indices(192, [1, 70]),
            BitVec::from_indices(192, [1]),
        ];
        let m = pack(192, rows.iter());
        let mut a = vec![!0u64; 3];
        let mut b = vec![!0u64; 3];
        // Only word 0 carries real query bits: a = {1}, b = {}.
        a[0] = 1 << 1;
        b[0] = 0;
        let (na, nb) = m.count_supersets_pair(&[0, 1], &[0], &a, &b);
        assert_eq!((na, nb), (2, 2));
    }

    #[test]
    fn non_contiguous_word_ids_take_the_indexed_path() {
        // word_ids {0, 2} with garbage in word 1: only the indexed sweep
        // can honour this, and it must still match the naive counts over
        // the listed words.
        let rows = [
            BitVec::from_indices(192, [5, 130]),
            BitVec::from_indices(192, [5]),
            BitVec::from_indices(192, [130]),
        ];
        let m = pack(192, rows.iter());
        let mut a = vec![!0u64; 3];
        let mut b = vec![!0u64; 3];
        a[0] = 1 << 5;
        a[2] = 1 << (130 - 128);
        b[0] = 0;
        b[2] = 1 << (130 - 128);
        let (na, nb) = m.count_supersets_pair(&[0, 1, 2], &[0, 2], &a, &b);
        assert_eq!((na, nb), (1, 2));
    }

    #[test]
    fn restricted_row_ids_only_count_listed_rows() {
        let rows = [
            BitVec::from_indices(64, [5]),
            BitVec::from_indices(64, [5]),
            BitVec::from_indices(64, [5]),
        ];
        let m = pack(64, rows.iter());
        let a = BitVec::from_indices(64, [5]);
        let empty = BitVec::zeros(64);
        let (na, nb) = m.count_supersets_pair(&[0, 2], &[0], a.as_words(), empty.as_words());
        assert_eq!((na, nb), (2, 2));
    }
}
