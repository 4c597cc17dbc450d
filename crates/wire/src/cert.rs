//! The plan-certificate artifact ([`Kind::PlanCertificate`]).
//!
//! A certificate is the accounting *witness* a partition plan travels
//! with: the pattern→partition assignment (a one-pass cover/disjointness
//! witness), per-partition X-class histograms and control-bit accounting
//! per the paper's cost model, and — optionally — one Gauss rank
//! certificate per cancel block (claimed rank, pivot columns and the raw
//! dependency matrix). It is linked to its plan by [`content_hash`] over
//! the plan's wire bytes, so a certificate can never be replayed against
//! a different plan.
//!
//! The independent checker lives in `xhc-verify`; this module only
//! defines the data and its canonical encoding. The decoder is strict
//! and panic-free like every other decoder in this crate: structural
//! canonicality (section order, ascending histograms and pivots, zero
//! tail bits, alloc-capped counts) is enforced here, while the semantic
//! claims (does the accounting match the plan and the X map?) are the
//! checker's job — a decoded certificate is well-formed, not yet *true*.

use crate::buf::{expect_drained, ArtifactWriter, PutLe, Reader, Sections};
use crate::codec::check_batch;
use crate::{Kind, WireError};

#[allow(unused_imports)] // rustdoc link target
use crate::hash::content_hash;

// Section tags, continuing the shared numbering in `codec.rs` (known
// tag sets are per-kind, but unique values keep dumps unambiguous).
const SEC_CERT_META: u32 = 13;
const SEC_CERT_ASSIGN: u32 = 14;
const SEC_CERT_PARTS: u32 = 15;
const SEC_CERT_BLOCKS: u32 = 16;

const CTX: &str = "plan-certificate";

/// Per-partition accounting claims: cardinality, the X-class histogram
/// restricted to the partition, mask/cancel splits of its X's, and the
/// fractional cancel bits its leak contributes.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionAccount {
    /// Patterns in the partition (cardinality of its pattern set).
    pub patterns: usize,
    /// X's removed by the partition's mask word.
    pub masked_x: usize,
    /// X's left for the X-canceling MISR.
    pub leaked_x: usize,
    /// Cells the partition's mask word masks.
    pub mask_cells: usize,
    /// `m · q · leaked_x / (m − q)` for this partition's leak.
    pub cancel_bits: f64,
    /// X-class histogram: `(x_count, cells)` pairs, strictly ascending by
    /// `x_count >= 1`, counting cells whose X set restricted to the
    /// partition has exactly `x_count` members.
    pub histogram: Vec<(usize, usize)>,
}

/// A Gauss rank certificate for one cancel block: the raw dependency
/// matrix plus the claimed rank and pivot columns, so a checker with its
/// own elimination can confirm the block's control-bit accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCertificate {
    /// Half-open pattern range `[start, end)` of the block.
    pub patterns: (usize, usize),
    /// X's accumulated in the block (columns of the dependency matrix).
    pub num_x: usize,
    /// Claimed GF(2) rank of the dependency matrix.
    pub rank: usize,
    /// Claimed pivot columns, strictly ascending, one per unit of rank.
    pub pivot_cols: Vec<usize>,
    /// X-free combinations extracted at the halt (`min(m − rank, q)`).
    pub combinations: usize,
    /// Select bits consumed: `m` per combination.
    pub control_bits: usize,
    /// The dependency matrix, row-major: `m` rows of
    /// `num_x.div_ceil(64)` little-endian words each (column `c` of row
    /// `r` is bit `c % 64` of word `r * words_per_row + c / 64`).
    pub dependency: Vec<u64>,
}

impl BlockCertificate {
    /// Words per dependency row (`num_x.div_ceil(64)`).
    pub fn words_per_row(&self) -> usize {
        self.num_x.div_ceil(64)
    }
}

/// The certificate a partition plan travels with.
///
/// `assignment[p]` names the partition of pattern `p`; a checker walks it
/// once to confirm the plan's pattern sets are a disjoint cover. The
/// per-partition accounts and the optional per-block rank certificates
/// carry the cost-model claims.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCertificate {
    /// [`content_hash`] of the certified plan's wire bytes.
    pub plan_hash: u64,
    /// Pattern universe of the plan.
    pub num_patterns: usize,
    /// Number of partitions.
    pub num_partitions: usize,
    /// Mask-word width (`ScanConfig::total_cells`).
    pub mask_bits: usize,
    /// Total X's in the certified X map.
    pub total_x: usize,
    /// MISR length of the cancel configuration.
    pub m: usize,
    /// X-cancel quotient (`0 < q < m`).
    pub q: usize,
    /// Pattern → partition index, one entry per pattern.
    pub assignment: Vec<u32>,
    /// Per-partition accounting, in plan partition order.
    pub partitions: Vec<PartitionAccount>,
    /// Per-block rank certificates, when a cancel session was certified.
    pub blocks: Option<Vec<BlockCertificate>>,
}

/// Encodes a plan certificate canonically.
pub fn encode_certificate(cert: &PlanCertificate) -> Vec<u8> {
    let mut w = ArtifactWriter::new(Kind::PlanCertificate);

    let mut meta = Vec::with_capacity(56);
    meta.put_u64(cert.plan_hash);
    meta.put_usize(cert.num_patterns);
    meta.put_usize(cert.num_partitions);
    meta.put_usize(cert.mask_bits);
    meta.put_usize(cert.total_x);
    meta.put_usize(cert.m);
    meta.put_usize(cert.q);
    w.section(SEC_CERT_META, meta);

    let mut assign = Vec::with_capacity(4 * cert.assignment.len());
    for &part in &cert.assignment {
        assign.put_u32(part);
    }
    w.section(SEC_CERT_ASSIGN, assign);

    let mut parts = Vec::new();
    for acc in &cert.partitions {
        parts.put_usize(acc.patterns);
        parts.put_usize(acc.masked_x);
        parts.put_usize(acc.leaked_x);
        parts.put_usize(acc.mask_cells);
        parts.put_f64(acc.cancel_bits);
        parts.put_usize(acc.histogram.len());
        for &(x_count, cells) in &acc.histogram {
            parts.put_usize(x_count);
            parts.put_usize(cells);
        }
    }
    w.section(SEC_CERT_PARTS, parts);

    if let Some(blocks) = &cert.blocks {
        let mut p = Vec::new();
        p.put_usize(blocks.len());
        for b in blocks {
            p.put_usize(b.patterns.0);
            p.put_usize(b.patterns.1);
            p.put_usize(b.num_x);
            p.put_usize(b.rank);
            p.put_usize(b.combinations);
            p.put_usize(b.control_bits);
            for &col in &b.pivot_cols {
                p.put_usize(col);
            }
            for &word in &b.dependency {
                p.put_u64(word);
            }
        }
        w.section(SEC_CERT_BLOCKS, p);
    }
    w.finish()
}

fn malformed(message: String) -> WireError {
    WireError::Malformed {
        context: CTX,
        message,
    }
}

/// Decodes a plan certificate.
///
/// Enforces structural canonicality: in-range assignment entries,
/// strictly-ascending non-empty histograms and pivot lists, zero
/// dependency tail bits, and counts bounded by bytes actually present
/// (an untrusted count never drives an allocation). The semantic claims
/// are validated by `xhc-verify`, not here.
///
/// # Errors
///
/// Returns [`WireError`] on any structural defect.
pub fn decode_certificate(bytes: &[u8]) -> Result<PlanCertificate, WireError> {
    let sections = Sections::parse(
        bytes,
        Kind::PlanCertificate,
        &[
            SEC_CERT_META,
            SEC_CERT_ASSIGN,
            SEC_CERT_PARTS,
            SEC_CERT_BLOCKS,
        ],
    )?;

    let mut meta = Reader::new(sections.require(SEC_CERT_META)?);
    let plan_hash = meta.u64()?;
    let num_patterns = meta.length("pattern count")?;
    let num_partitions = meta.length("partition count")?;
    let mask_bits = meta.length("mask width")?;
    let total_x = meta.length("total x")?;
    let m = meta.length("misr size")?;
    let q = meta.length("cancel q")?;
    expect_drained(&meta, SEC_CERT_META)?;
    if num_patterns == 0 || num_partitions == 0 {
        return Err(malformed(
            "need at least one pattern and one partition".into(),
        ));
    }
    if q == 0 || q >= m {
        return Err(WireError::cancel_params(CTX, m, q));
    }

    let mut assign_r = Reader::new(sections.require(SEC_CERT_ASSIGN)?);
    check_batch(&assign_r, num_patterns, 4, CTX)?;
    let mut assignment = Vec::with_capacity(num_patterns.min(1 << 20));
    for p in 0..num_patterns {
        let part = assign_r.u32()?;
        if part as usize >= num_partitions {
            return Err(malformed(format!(
                "pattern {p} assigned to partition {part} of {num_partitions}"
            )));
        }
        assignment.push(part);
    }
    expect_drained(&assign_r, SEC_CERT_ASSIGN)?;

    let mut parts_r = Reader::new(sections.require(SEC_CERT_PARTS)?);
    check_batch(&parts_r, num_partitions, 48, CTX)?;
    let mut partitions = Vec::with_capacity(num_partitions.min(1 << 20));
    for i in 0..num_partitions {
        let patterns = parts_r.length("partition cardinality")?;
        let masked_x = parts_r.length("masked x")?;
        let leaked_x = parts_r.length("leaked x")?;
        let mask_cells = parts_r.length("mask cells")?;
        let cancel_bits = parts_r.f64()?;
        if !cancel_bits.is_finite() || cancel_bits < 0.0 {
            return Err(malformed(format!(
                "partition {i} cancel_bits must be finite and non-negative, got {cancel_bits}"
            )));
        }
        let hist_len = parts_r.length("histogram length")?;
        check_batch(&parts_r, hist_len, 16, CTX)?;
        let mut histogram = Vec::with_capacity(hist_len.min(1 << 20));
        let mut prev = 0usize;
        for _ in 0..hist_len {
            let x_count = parts_r.length("histogram x count")?;
            let cells = parts_r.length("histogram cells")?;
            if x_count == 0 || cells == 0 {
                return Err(malformed(format!(
                    "partition {i} histogram entries must have x_count >= 1 and cells >= 1"
                )));
            }
            if x_count <= prev {
                return Err(malformed(format!(
                    "partition {i} histogram must be strictly ascending at x_count {x_count}"
                )));
            }
            prev = x_count;
            histogram.push((x_count, cells));
        }
        partitions.push(PartitionAccount {
            patterns,
            masked_x,
            leaked_x,
            mask_cells,
            cancel_bits,
            histogram,
        });
    }
    expect_drained(&parts_r, SEC_CERT_PARTS)?;

    let blocks = match sections.get(SEC_CERT_BLOCKS) {
        None => None,
        Some(payload) => {
            let mut r = Reader::new(payload);
            let count = r.length("block count")?;
            check_batch(&r, count, 48, CTX)?;
            let mut blocks = Vec::with_capacity(count.min(1 << 20));
            for i in 0..count {
                let start = r.length("block start")?;
                let end = r.length("block end")?;
                if start > end {
                    return Err(malformed(format!(
                        "block {i} range [{start}, {end}) is inverted"
                    )));
                }
                let num_x = r.length("block x count")?;
                let rank = r.length("block rank")?;
                let combinations = r.length("block combinations")?;
                let control_bits = r.length("block control bits")?;
                if rank > m.min(num_x) {
                    return Err(malformed(format!(
                        "block {i} rank {rank} exceeds min(m={m}, num_x={num_x})"
                    )));
                }
                check_batch(&r, rank, 8, CTX)?;
                let mut pivot_cols = Vec::with_capacity(rank.min(1 << 20));
                let mut prev: Option<usize> = None;
                for _ in 0..rank {
                    let col = r.length("pivot column")?;
                    if col >= num_x {
                        return Err(malformed(format!(
                            "block {i} pivot column {col} out of range for {num_x} X's"
                        )));
                    }
                    if prev.is_some_and(|p| p >= col) {
                        return Err(malformed(format!(
                            "block {i} pivot columns must be strictly ascending at {col}"
                        )));
                    }
                    prev = Some(col);
                    pivot_cols.push(col);
                }
                let words_per_row = num_x.div_ceil(64);
                let total_words = m.checked_mul(words_per_row).ok_or_else(|| {
                    malformed(format!(
                        "block {i} dependency {m} x {words_per_row} words overflows"
                    ))
                })?;
                check_batch(&r, total_words, 8, CTX)?;
                let mut dependency = Vec::with_capacity(total_words.min(1 << 20));
                for _ in 0..total_words {
                    dependency.push(r.u64()?);
                }
                let tail = num_x % 64;
                if tail != 0 && words_per_row > 0 {
                    for row in 0..m {
                        let last = dependency[row * words_per_row + words_per_row - 1];
                        if last >> tail != 0 {
                            return Err(malformed(format!(
                                "block {i} dependency row {row} has nonzero tail bits"
                            )));
                        }
                    }
                }
                blocks.push(BlockCertificate {
                    patterns: (start, end),
                    num_x,
                    rank,
                    pivot_cols,
                    combinations,
                    control_bits,
                    dependency,
                });
            }
            expect_drained(&r, SEC_CERT_BLOCKS)?;
            Some(blocks)
        }
    };

    Ok(PlanCertificate {
        plan_hash,
        num_patterns,
        num_partitions,
        mask_bits,
        total_x,
        m,
        q,
        assignment,
        partitions,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peek_kind;

    fn sample_cert(blocks: bool) -> PlanCertificate {
        PlanCertificate {
            plan_hash: 0xDEAD_BEEF_0123_4567,
            num_patterns: 8,
            num_partitions: 3,
            mask_bits: 15,
            total_x: 28,
            m: 10,
            q: 2,
            assignment: vec![1, 0, 0, 1, 1, 2, 0, 0],
            partitions: vec![
                PartitionAccount {
                    patterns: 4,
                    masked_x: 14,
                    leaked_x: 0,
                    mask_cells: 3,
                    cancel_bits: 0.0,
                    histogram: vec![(2, 1), (4, 3)],
                },
                PartitionAccount {
                    patterns: 3,
                    masked_x: 9,
                    leaked_x: 2,
                    mask_cells: 2,
                    cancel_bits: 5.0,
                    histogram: vec![(1, 2), (3, 3)],
                },
                PartitionAccount {
                    patterns: 1,
                    masked_x: 0,
                    leaked_x: 3,
                    mask_cells: 0,
                    cancel_bits: 7.5,
                    histogram: vec![(1, 3)],
                },
            ],
            blocks: blocks.then(|| {
                vec![
                    BlockCertificate {
                        patterns: (0, 3),
                        num_x: 5,
                        rank: 4,
                        pivot_cols: vec![0, 1, 3, 4],
                        combinations: 2,
                        control_bits: 20,
                        dependency: vec![0b1_1011; 10],
                    },
                    BlockCertificate {
                        patterns: (3, 8),
                        num_x: 0,
                        rank: 0,
                        pivot_cols: vec![],
                        combinations: 2,
                        control_bits: 20,
                        dependency: vec![],
                    },
                ]
            }),
        }
    }

    #[test]
    fn certificate_roundtrips_with_and_without_blocks() {
        for blocks in [false, true] {
            let cert = sample_cert(blocks);
            let bytes = encode_certificate(&cert);
            assert_eq!(peek_kind(&bytes).unwrap(), Kind::PlanCertificate);
            let back = decode_certificate(&bytes).unwrap();
            assert_eq!(back, cert);
            // Canonical: re-encoding the decoded value reproduces the bytes.
            assert_eq!(encode_certificate(&back), bytes);
        }
    }

    #[test]
    fn truncations_fail_cleanly_at_every_cut() {
        let bytes = encode_certificate(&sample_cert(true));
        for cut in 0..bytes.len() {
            assert!(decode_certificate(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn rejects_structural_defects() {
        // Out-of-range assignment.
        let mut cert = sample_cert(false);
        cert.assignment[2] = 9;
        assert!(matches!(
            decode_certificate(&encode_certificate(&cert)),
            Err(WireError::Malformed { .. })
        ));

        // Histogram not strictly ascending.
        let mut cert = sample_cert(false);
        cert.partitions[0].histogram = vec![(4, 1), (2, 1)];
        assert!(decode_certificate(&encode_certificate(&cert)).is_err());

        // Zero-cell histogram entry.
        let mut cert = sample_cert(false);
        cert.partitions[1].histogram = vec![(1, 0)];
        assert!(decode_certificate(&encode_certificate(&cert)).is_err());

        // Non-finite cancel bits.
        let mut cert = sample_cert(false);
        cert.partitions[2].cancel_bits = f64::NAN;
        assert!(decode_certificate(&encode_certificate(&cert)).is_err());

        // q out of range.
        let mut cert = sample_cert(false);
        cert.q = cert.m;
        let err = decode_certificate(&encode_certificate(&cert)).unwrap_err();
        assert_eq!(
            err.code(),
            Some(xhc_scan::LintCode::BadCancelConfig),
            "{err}"
        );

        // Rank above min(m, num_x).
        let mut cert = sample_cert(true);
        cert.blocks.as_mut().unwrap()[0].rank = 6;
        cert.blocks.as_mut().unwrap()[0].pivot_cols = vec![0, 1, 2, 3, 4, 4];
        assert!(decode_certificate(&encode_certificate(&cert)).is_err());

        // Pivot columns out of order.
        let mut cert = sample_cert(true);
        cert.blocks.as_mut().unwrap()[0].pivot_cols = vec![0, 3, 1, 4];
        assert!(decode_certificate(&encode_certificate(&cert)).is_err());

        // Nonzero dependency tail bits.
        let mut cert = sample_cert(true);
        cert.blocks.as_mut().unwrap()[0].dependency[0] |= 1 << 63;
        assert!(decode_certificate(&encode_certificate(&cert)).is_err());

        // Inverted block range.
        let mut cert = sample_cert(true);
        cert.blocks.as_mut().unwrap()[0].patterns = (3, 0);
        assert!(decode_certificate(&encode_certificate(&cert)).is_err());

        // Wrong kind.
        let spec = crate::encode_workload_spec(&xhc_workload::WorkloadSpec::default());
        assert!(matches!(
            decode_certificate(&spec),
            Err(WireError::WrongKind { .. })
        ));
    }
}
