//! The engine-independent certificate checker.
//!
//! Everything here is deliberately naive: raw little-endian word access
//! for set membership, a plain popcount loop for cardinalities, a
//! textbook Gaussian elimination for block ranks. The point is not speed
//! (though one linear pass keeps it far cheaper than planning) but
//! *independence* — none of the engine's incremental bookkeeping can leak
//! a correlated bug into the verdict.

use std::collections::BTreeMap;
use std::fmt;

use xhc_core::PartitionOutcome;
use xhc_misr::XCancelConfig;
use xhc_scan::{LintCode, XMap};
use xhc_wire::{content_hash, PlanCertificate};

/// A violated certificate invariant.
///
/// Each variant names the invariant it guards, with the claimed and
/// recomputed values, so a rejection pinpoints the lie: a mutated
/// certificate field yields the variant that certifies *that* field.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The certificate's plan link does not hash the presented plan.
    PlanHashMismatch {
        /// Hash the certificate claims.
        claimed: u64,
        /// [`content_hash`] of the presented plan bytes.
        actual: u64,
    },
    /// The certificate and the X map disagree on the pattern universe.
    PatternCountMismatch {
        /// Universe the certificate claims.
        claimed: usize,
        /// The X map's pattern count.
        actual: usize,
    },
    /// The certificate and the plan disagree on the partition count.
    PartitionCountMismatch {
        /// Count the certificate claims.
        claimed: usize,
        /// The plan's partition count.
        actual: usize,
    },
    /// The certificate's mask width is not the scan topology's.
    MaskWidthMismatch {
        /// Width the certificate claims.
        claimed: usize,
        /// `ScanConfig::mask_word_bits()` of the X map.
        actual: usize,
    },
    /// The plan does not carry one mask word per partition.
    MaskCountMismatch {
        /// Mask words in the plan.
        masks: usize,
        /// Partitions in the plan.
        partitions: usize,
    },
    /// A plan mask word is not as wide as the scan topology.
    PlanMaskWidthMismatch {
        /// The partition whose mask is mis-sized.
        partition: usize,
        /// Width of the plan's mask word.
        width: usize,
        /// `ScanConfig::total_cells()` of the X map: one bit per cell.
        expected: usize,
    },
    /// A plan partition is over another pattern universe than the X map.
    PartitionUniverseMismatch {
        /// The partition.
        partition: usize,
        /// Universe of the plan's partition bitmap.
        universe: usize,
        /// The X map's pattern count.
        expected: usize,
    },
    /// The certificate's total X count is not the X map's.
    TotalXMismatch {
        /// Total the certificate claims.
        claimed: usize,
        /// The X map's total.
        actual: usize,
    },
    /// The certificate's (m, q) is not the configuration being checked.
    CancelParamMismatch {
        /// (m, q) the certificate claims.
        claimed: (usize, usize),
        /// (m, q) of the supplied [`XCancelConfig`].
        actual: (usize, usize),
    },
    /// A pattern's assigned partition does not contain it in the plan.
    AssignmentOutsidePartition {
        /// The pattern.
        pattern: usize,
        /// The partition the certificate assigns it to.
        partition: usize,
    },
    /// A partition's cardinality claims disagree (certificate claim,
    /// assignment fiber size and plan-bitmap popcount must all match —
    /// together with per-pattern membership this witnesses that the
    /// plan's partitions are a disjoint cover).
    PartitionCardinalityMismatch {
        /// The partition.
        partition: usize,
        /// Cardinality the certificate claims.
        claimed: usize,
        /// Patterns the assignment maps to this partition.
        fiber: usize,
        /// Popcount of the plan's partition bitmap.
        popcount: usize,
    },
    /// A plan mask hides a cell that is not X under the whole partition
    /// (it would destroy observed response bits).
    MaskUnsafe {
        /// The partition.
        partition: usize,
        /// Linear index of the unsafely masked cell.
        cell: usize,
    },
    /// A partition's claimed X-class histogram is not the recomputed one.
    HistogramMismatch {
        /// The partition.
        partition: usize,
    },
    /// A partition's histogram does not sum to its masked + leaked X's.
    HistogramSumMismatch {
        /// The partition.
        partition: usize,
        /// `sum(x_count * cells)` over the claimed histogram.
        histogram_x: usize,
        /// Claimed `masked_x + leaked_x`.
        accounted_x: usize,
    },
    /// A partition's claimed masked-X count is wrong.
    MaskedXMismatch {
        /// The partition.
        partition: usize,
        /// Count the certificate claims.
        claimed: usize,
        /// Recomputed count.
        actual: usize,
    },
    /// A partition's claimed leaked-X count is wrong.
    LeakedXMismatch {
        /// The partition.
        partition: usize,
        /// Count the certificate claims.
        claimed: usize,
        /// Recomputed count.
        actual: usize,
    },
    /// A partition's claimed mask population is wrong.
    MaskCellsMismatch {
        /// The partition.
        partition: usize,
        /// Population the certificate claims.
        claimed: usize,
        /// Popcount of the plan's mask word.
        actual: usize,
    },
    /// A partition's claimed cancel bits are not `m·q·leaked/(m−q)`.
    PartitionCancelBitsMismatch {
        /// The partition.
        partition: usize,
        /// Bits the certificate claims.
        claimed: f64,
        /// Recomputed bits.
        actual: f64,
    },
    /// The plan's claimed masking bits are not `mask_bits · #partitions`.
    MaskingBitsMismatch {
        /// Bits the plan's cost record claims.
        claimed: u128,
        /// Recomputed bits.
        actual: u128,
    },
    /// The plan's claimed canceling bits are not `m·q·leakedX/(m−q)`.
    CancelingBitsMismatch {
        /// Bits the plan's cost record claims.
        claimed: f64,
        /// Recomputed bits.
        actual: f64,
    },
    /// An integer field of the plan's cost record is wrong.
    CostFieldMismatch {
        /// Which field (`"masked_x"`, `"leaked_x"`, `"num_partitions"`).
        field: &'static str,
        /// Value the plan's cost record claims.
        claimed: usize,
        /// Recomputed value.
        actual: usize,
    },
    /// A block's dependency matrix does not have `m` rows of
    /// `num_x.div_ceil(64)` words.
    BlockShapeMismatch {
        /// The block.
        block: usize,
        /// Words the shape requires.
        expected_words: usize,
        /// Words present.
        actual_words: usize,
    },
    /// A block's claimed rank is not the dependency matrix's GF(2) rank.
    BlockRankMismatch {
        /// The block.
        block: usize,
        /// Rank the certificate claims.
        claimed: usize,
        /// Rank of the checker's own elimination.
        actual: usize,
    },
    /// A block's claimed pivot columns are not the elimination's.
    BlockPivotMismatch {
        /// The block.
        block: usize,
    },
    /// A block's combination count is not `min(m − rank, q)`.
    BlockCombinationCountMismatch {
        /// The block.
        block: usize,
        /// Count the certificate claims.
        claimed: usize,
        /// `min(m − rank, q)` for the verified rank.
        expected: usize,
    },
    /// A block's control bits are not `m` per combination.
    BlockControlBitsMismatch {
        /// The block.
        block: usize,
        /// Bits the certificate claims.
        claimed: usize,
        /// `m · combinations`.
        actual: usize,
    },
}

impl VerifyError {
    /// The `xhc-lint` rule that certifies the violated invariant.
    pub fn code(&self) -> LintCode {
        use VerifyError::*;
        match self {
            PlanHashMismatch { .. } => LintCode::CertPlanHash,
            PatternCountMismatch { .. }
            | PartitionCountMismatch { .. }
            | MaskCountMismatch { .. }
            | PlanMaskWidthMismatch { .. }
            | PartitionUniverseMismatch { .. }
            | MaskWidthMismatch { .. }
            | TotalXMismatch { .. }
            | CancelParamMismatch { .. } => LintCode::CertScanMismatch,
            AssignmentOutsidePartition { .. } | PartitionCardinalityMismatch { .. } => {
                LintCode::CertCover
            }
            HistogramMismatch { .. } | HistogramSumMismatch { .. } => LintCode::CertHistogram,
            MaskUnsafe { .. }
            | MaskedXMismatch { .. }
            | LeakedXMismatch { .. }
            | MaskCellsMismatch { .. }
            | PartitionCancelBitsMismatch { .. }
            | MaskingBitsMismatch { .. }
            | CancelingBitsMismatch { .. }
            | CostFieldMismatch { .. } => LintCode::CertAccounting,
            BlockShapeMismatch { .. }
            | BlockRankMismatch { .. }
            | BlockPivotMismatch { .. }
            | BlockCombinationCountMismatch { .. }
            | BlockControlBitsMismatch { .. } => LintCode::CertRankBound,
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use VerifyError::*;
        match self {
            PlanHashMismatch { claimed, actual } => write!(
                f,
                "certificate is linked to plan {claimed:016x}, presented plan hashes to {actual:016x}"
            ),
            PatternCountMismatch { claimed, actual } => {
                write!(f, "certificate claims {claimed} patterns, X map has {actual}")
            }
            PartitionCountMismatch { claimed, actual } => {
                write!(f, "certificate claims {claimed} partitions, plan has {actual}")
            }
            MaskWidthMismatch { claimed, actual } => {
                write!(f, "certificate claims {claimed}-bit mask words, topology needs {actual}")
            }
            MaskCountMismatch { masks, partitions } => {
                write!(f, "plan has {masks} mask words for {partitions} partitions")
            }
            PlanMaskWidthMismatch {
                partition,
                width,
                expected,
            } => write!(
                f,
                "partition {partition} has a {width}-bit mask word, topology needs {expected}"
            ),
            PartitionUniverseMismatch {
                partition,
                universe,
                expected,
            } => write!(
                f,
                "partition {partition} is over {universe} patterns, X map has {expected}"
            ),
            TotalXMismatch { claimed, actual } => {
                write!(f, "certificate claims {claimed} total X's, X map has {actual}")
            }
            CancelParamMismatch { claimed, actual } => write!(
                f,
                "certificate claims (m, q) = {claimed:?}, checking against {actual:?}"
            ),
            AssignmentOutsidePartition { pattern, partition } => write!(
                f,
                "pattern {pattern} is assigned to partition {partition}, which does not contain it"
            ),
            PartitionCardinalityMismatch {
                partition,
                claimed,
                fiber,
                popcount,
            } => write!(
                f,
                "partition {partition} cardinality disagrees: claimed {claimed}, \
                 assignment fiber {fiber}, bitmap popcount {popcount}"
            ),
            MaskUnsafe { partition, cell } => write!(
                f,
                "partition {partition} masks cell {cell}, which is not X under the whole partition"
            ),
            HistogramMismatch { partition } => {
                write!(f, "partition {partition} X-class histogram does not match the X map")
            }
            HistogramSumMismatch {
                partition,
                histogram_x,
                accounted_x,
            } => write!(
                f,
                "partition {partition} histogram sums to {histogram_x} X's, \
                 accounting claims {accounted_x}"
            ),
            MaskedXMismatch {
                partition,
                claimed,
                actual,
            } => write!(
                f,
                "partition {partition} claims {claimed} masked X's, recomputed {actual}"
            ),
            LeakedXMismatch {
                partition,
                claimed,
                actual,
            } => write!(
                f,
                "partition {partition} claims {claimed} leaked X's, recomputed {actual}"
            ),
            MaskCellsMismatch {
                partition,
                claimed,
                actual,
            } => write!(
                f,
                "partition {partition} claims a {claimed}-cell mask, mask word has {actual}"
            ),
            PartitionCancelBitsMismatch {
                partition,
                claimed,
                actual,
            } => write!(
                f,
                "partition {partition} claims {claimed} cancel bits, formula gives {actual}"
            ),
            MaskingBitsMismatch { claimed, actual } => {
                write!(f, "plan claims {claimed} masking bits, L·C·#partitions = {actual}")
            }
            CancelingBitsMismatch { claimed, actual } => {
                write!(f, "plan claims {claimed} canceling bits, m·q·leakedX/(m−q) = {actual}")
            }
            CostFieldMismatch {
                field,
                claimed,
                actual,
            } => write!(f, "plan cost field {field} claims {claimed}, recomputed {actual}"),
            BlockShapeMismatch {
                block,
                expected_words,
                actual_words,
            } => write!(
                f,
                "block {block} dependency matrix has {actual_words} words, shape needs {expected_words}"
            ),
            BlockRankMismatch {
                block,
                claimed,
                actual,
            } => write!(f, "block {block} claims rank {claimed}, elimination finds {actual}"),
            BlockPivotMismatch { block } => {
                write!(f, "block {block} pivot columns do not match the elimination")
            }
            BlockCombinationCountMismatch {
                block,
                claimed,
                expected,
            } => write!(
                f,
                "block {block} claims {claimed} combinations, min(m − rank, q) = {expected}"
            ),
            BlockControlBitsMismatch {
                block,
                claimed,
                actual,
            } => write!(
                f,
                "block {block} claims {claimed} control bits, m per combination gives {actual}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Tests bit `index` of a little-endian packed word slice.
fn bit(words: &[u64], index: usize) -> bool {
    (words[index / 64] >> (index % 64)) & 1 == 1
}

/// Population count of a packed word slice.
fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// GF(2) row-echelon rank and pivot columns of an `m × num_cols` matrix
/// packed as `m` rows of `wpr` words. Pivot columns — the columns at
/// which the rank increases scanning left to right — are a property of
/// the column space, so any elimination order reproduces them.
fn echelon_rank(words: &[u64], m: usize, wpr: usize, num_cols: usize) -> (usize, Vec<usize>) {
    let mut rows: Vec<Vec<u64>> = (0..m)
        .map(|r| words[r * wpr..(r + 1) * wpr].to_vec())
        .collect();
    let mut rank = 0usize;
    let mut pivots = Vec::new();
    for col in 0..num_cols {
        if rank == m {
            break;
        }
        let wi = col / 64;
        let mask = 1u64 << (col % 64);
        let Some(pivot_row) = (rank..m).find(|&r| rows[r][wi] & mask != 0) else {
            continue;
        };
        rows.swap(rank, pivot_row);
        let pivot = rows[rank].clone();
        for (r, row) in rows.iter_mut().enumerate() {
            if r != rank && row[wi] & mask != 0 {
                for (w, p) in row.iter_mut().zip(&pivot) {
                    *w ^= p;
                }
            }
        }
        pivots.push(col);
        rank += 1;
    }
    (rank, pivots)
}

/// Validates a certificate against its plan and X map, collecting every
/// violated invariant (for lint-style reporting).
///
/// An empty result means the certificate — and with it the plan's cover,
/// accounting and cost claims — checks out. Structural mismatches that
/// make further passes meaningless (wrong pattern universe or partition
/// count) short-circuit.
pub fn verify(
    cert: &PlanCertificate,
    plan: &PartitionOutcome,
    plan_bytes: &[u8],
    xmap: &XMap,
    cancel: XCancelConfig,
) -> Vec<VerifyError> {
    let mut errors = Vec::new();

    // Pass 1: the plan link.
    let actual_hash = content_hash(plan_bytes);
    if cert.plan_hash != actual_hash {
        errors.push(VerifyError::PlanHashMismatch {
            claimed: cert.plan_hash,
            actual: actual_hash,
        });
    }

    // Pass 2: shape. A wrong universe, partition count, mask count or
    // mask width poisons every later pass, so bail out on those.
    let before_shape = errors.len();
    let num_patterns = xmap.num_patterns();
    let num_partitions = plan.partitions.len();
    if cert.num_patterns != num_patterns {
        errors.push(VerifyError::PatternCountMismatch {
            claimed: cert.num_patterns,
            actual: num_patterns,
        });
    }
    if cert.num_partitions != num_partitions || cert.partitions.len() != num_partitions {
        errors.push(VerifyError::PartitionCountMismatch {
            claimed: cert.num_partitions.max(cert.partitions.len()),
            actual: num_partitions,
        });
    }
    if cert.assignment.len() != cert.num_patterns {
        errors.push(VerifyError::PatternCountMismatch {
            claimed: cert.assignment.len(),
            actual: num_patterns,
        });
    }
    if plan.masks.len() != num_partitions {
        errors.push(VerifyError::MaskCountMismatch {
            masks: plan.masks.len(),
            partitions: num_partitions,
        });
    }
    let cells = xmap.config().total_cells();
    for (partition, mask) in plan.masks.iter().enumerate() {
        let width = mask.as_bits().len();
        if width != cells {
            errors.push(VerifyError::PlanMaskWidthMismatch {
                partition,
                width,
                expected: cells,
            });
        }
    }
    for (partition, part) in plan.partitions.iter().enumerate() {
        if part.universe() != num_patterns {
            errors.push(VerifyError::PartitionUniverseMismatch {
                partition,
                universe: part.universe(),
                expected: num_patterns,
            });
        }
    }
    if errors.len() > before_shape {
        return errors;
    }
    let mask_bits = xmap.config().mask_word_bits();
    if cert.mask_bits != mask_bits {
        errors.push(VerifyError::MaskWidthMismatch {
            claimed: cert.mask_bits,
            actual: mask_bits,
        });
    }
    let total_x = xmap.total_x();
    if cert.total_x != total_x {
        errors.push(VerifyError::TotalXMismatch {
            claimed: cert.total_x,
            actual: total_x,
        });
    }
    if (cert.m, cert.q) != (cancel.m(), cancel.q()) {
        errors.push(VerifyError::CancelParamMismatch {
            claimed: (cert.m, cert.q),
            actual: (cancel.m(), cancel.q()),
        });
    }

    // Pass 3: the cover witness. Each pattern's assigned partition must
    // contain it in the plan; then fiber sizes, bitmap popcounts and the
    // claimed cardinalities must agree. Membership gives bitmap ⊇ fiber
    // per partition; equal sizes upgrade that to equality, and because
    // the fibers partition the universe by construction, so do the
    // plan's pattern sets: a disjoint cover.
    let mut fibers = vec![0usize; num_partitions];
    for (p, &a) in cert.assignment.iter().enumerate() {
        let a = a as usize;
        if a < num_partitions {
            fibers[a] += 1;
        }
        // Pass 2 pinned every partition's universe, so `p` is in range.
        if a >= num_partitions || !bit(plan.partitions[a].as_bits().as_words(), p) {
            errors.push(VerifyError::AssignmentOutsidePartition {
                pattern: p,
                partition: a,
            });
        }
    }
    for (i, &fiber) in fibers.iter().enumerate() {
        let pop = popcount(plan.partitions[i].as_bits().as_words());
        let claimed = cert.partitions[i].patterns;
        if claimed != fiber || pop != fiber {
            errors.push(VerifyError::PartitionCardinalityMismatch {
                partition: i,
                claimed,
                fiber,
                popcount: pop,
            });
        }
    }

    // Pass 4: accounting. One linear pass over the X map recomputes every
    // per-partition histogram and masked/leaked split from the assignment
    // alone, checking mask safety on the way.
    let mut masked = vec![0usize; num_partitions];
    let mut masked_cells = vec![0usize; num_partitions];
    let mut leaked = vec![0usize; num_partitions];
    let mut hists: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); num_partitions];
    let mut counts = vec![0usize; num_partitions];
    let mut touched: Vec<usize> = Vec::new();
    for pos in 0..xmap.num_x_cells() {
        let (cell, xset) = xmap.entry(pos);
        let words = xset.words();
        for (wi, &word) in words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let p = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                let a = cert.assignment[p] as usize;
                if a >= num_partitions {
                    continue; // already reported in pass 3
                }
                if counts[a] == 0 {
                    touched.push(a);
                }
                counts[a] += 1;
            }
        }
        for &a in &touched {
            let c = counts[a];
            counts[a] = 0;
            *hists[a].entry(c).or_insert(0) += 1;
            if bit(plan.masks[a].as_bits().as_words(), cell) {
                masked[a] += c;
                masked_cells[a] += 1;
                if c != fibers[a] {
                    errors.push(VerifyError::MaskUnsafe { partition: a, cell });
                }
            } else {
                leaked[a] += c;
            }
        }
        touched.clear();
    }
    // A masked cell with no X in its partition never came up above; find
    // it only when the mask holds more cells than the pass met.
    for (a, mask) in plan.masks.iter().enumerate() {
        if popcount(mask.as_bits().as_words()) == masked_cells[a] {
            continue;
        }
        for cell in mask.as_bits().iter_ones() {
            let met = xmap
                .xset_linear(cell)
                .is_some_and(|xs| xs.iter().any(|p| cert.assignment[p] as usize == a));
            if !met {
                errors.push(VerifyError::MaskUnsafe { partition: a, cell });
            }
        }
    }
    for (i, acc) in cert.partitions.iter().enumerate() {
        let actual: Vec<(usize, usize)> = hists[i].iter().map(|(&c, &n)| (c, n)).collect();
        if acc.histogram != actual {
            errors.push(VerifyError::HistogramMismatch { partition: i });
        }
        let histogram_x: usize = acc.histogram.iter().map(|&(c, n)| c * n).sum();
        if histogram_x != acc.masked_x + acc.leaked_x {
            errors.push(VerifyError::HistogramSumMismatch {
                partition: i,
                histogram_x,
                accounted_x: acc.masked_x + acc.leaked_x,
            });
        }
        if acc.masked_x != masked[i] {
            errors.push(VerifyError::MaskedXMismatch {
                partition: i,
                claimed: acc.masked_x,
                actual: masked[i],
            });
        }
        if acc.leaked_x != leaked[i] {
            errors.push(VerifyError::LeakedXMismatch {
                partition: i,
                claimed: acc.leaked_x,
                actual: leaked[i],
            });
        }
        let mask_pop = popcount(plan.masks[i].as_bits().as_words());
        if acc.mask_cells != mask_pop {
            errors.push(VerifyError::MaskCellsMismatch {
                partition: i,
                claimed: acc.mask_cells,
                actual: mask_pop,
            });
        }
    }

    // Pass 5: the cost model, recomputed with the exact expression shapes
    // the paper (and the engine) uses so agreement is bit-for-bit.
    let m = cancel.m();
    let q = cancel.q();
    let masked_total: usize = masked.iter().sum();
    let leaked_total: usize = leaked.iter().sum();
    for (i, acc) in cert.partitions.iter().enumerate() {
        let actual = m as f64 * q as f64 * leaked[i] as f64 / (m - q) as f64;
        if acc.cancel_bits != actual {
            errors.push(VerifyError::PartitionCancelBitsMismatch {
                partition: i,
                claimed: acc.cancel_bits,
                actual,
            });
        }
    }
    let masking_actual = mask_bits as u128 * num_partitions as u128;
    if plan.cost.masking_bits != masking_actual {
        errors.push(VerifyError::MaskingBitsMismatch {
            claimed: plan.cost.masking_bits,
            actual: masking_actual,
        });
    }
    let canceling_actual = m as f64 * q as f64 * leaked_total as f64 / (m - q) as f64;
    if plan.cost.canceling_bits != canceling_actual {
        errors.push(VerifyError::CancelingBitsMismatch {
            claimed: plan.cost.canceling_bits,
            actual: canceling_actual,
        });
    }
    for (field, claimed, actual) in [
        ("masked_x", plan.cost.masked_x, masked_total),
        ("leaked_x", plan.cost.leaked_x, leaked_total),
        ("num_partitions", plan.cost.num_partitions, num_partitions),
    ] {
        if claimed != actual {
            errors.push(VerifyError::CostFieldMismatch {
                field,
                claimed,
                actual,
            });
        }
    }

    // Pass 6: block rank certificates, re-eliminated from scratch.
    if let Some(blocks) = &cert.blocks {
        for (bi, b) in blocks.iter().enumerate() {
            let wpr = b.num_x.div_ceil(64);
            let expected_words = m * wpr;
            if b.dependency.len() != expected_words {
                errors.push(VerifyError::BlockShapeMismatch {
                    block: bi,
                    expected_words,
                    actual_words: b.dependency.len(),
                });
                continue;
            }
            let (rank, pivots) = echelon_rank(&b.dependency, m, wpr, b.num_x);
            if b.rank != rank {
                errors.push(VerifyError::BlockRankMismatch {
                    block: bi,
                    claimed: b.rank,
                    actual: rank,
                });
            }
            if b.pivot_cols != pivots {
                errors.push(VerifyError::BlockPivotMismatch { block: bi });
            }
            let expected_combos = (m - rank).min(q);
            if b.combinations != expected_combos {
                errors.push(VerifyError::BlockCombinationCountMismatch {
                    block: bi,
                    claimed: b.combinations,
                    expected: expected_combos,
                });
            }
            let control_actual = m * b.combinations;
            if b.control_bits != control_actual {
                errors.push(VerifyError::BlockControlBitsMismatch {
                    block: bi,
                    claimed: b.control_bits,
                    actual: control_actual,
                });
            }
        }
    }

    errors
}

/// Like [`verify`] but fail-fast: `Ok(())` or the first violation.
///
/// # Errors
///
/// Returns the first [`VerifyError`] the linear pass finds.
pub fn check(
    cert: &PlanCertificate,
    plan: &PartitionOutcome,
    plan_bytes: &[u8],
    xmap: &XMap,
    cancel: XCancelConfig,
) -> Result<(), VerifyError> {
    match verify(cert, plan, plan_bytes, xmap, cancel)
        .into_iter()
        .next()
    {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echelon_rank_matches_known_matrices() {
        // Identity 4x4 packed one word per row.
        let identity: Vec<u64> = vec![1, 2, 4, 8];
        assert_eq!(echelon_rank(&identity, 4, 1, 4), (4, vec![0, 1, 2, 3]));

        // Zero matrix.
        let zero = vec![0u64; 3];
        assert_eq!(echelon_rank(&zero, 3, 1, 5), (0, vec![]));

        // Dependent rows: r2 = r0 ^ r1, pivots at the first two columns.
        let dep: Vec<u64> = vec![0b011, 0b110, 0b101];
        let (rank, pivots) = echelon_rank(&dep, 3, 1, 3);
        assert_eq!(rank, 2);
        assert_eq!(pivots, vec![0, 1]);
    }

    #[test]
    fn errors_render() {
        let errors = [
            VerifyError::PlanHashMismatch {
                claimed: 1,
                actual: 2,
            },
            VerifyError::MaskUnsafe {
                partition: 0,
                cell: 3,
            },
            VerifyError::BlockPivotMismatch { block: 1 },
            VerifyError::CostFieldMismatch {
                field: "masked_x",
                claimed: 1,
                actual: 2,
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
