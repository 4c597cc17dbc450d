//! Certificate emission: folds an engine outcome (and optionally a cancel
//! session report) into the witness the checker validates.
//!
//! Unlike the checker, the emitter is allowed to lean on workspace
//! primitives — it runs next to the engine and its output is *claims*,
//! not judgements. Anything it gets wrong, [`crate::verify`] rejects.

use std::collections::BTreeMap;

use xhc_core::PartitionOutcome;
use xhc_misr::{SessionReport, XCancelConfig};
use xhc_scan::XMap;
use xhc_wire::{content_hash, BlockCertificate, PartitionAccount, PlanCertificate};

/// Builds the certificate for a partition plan.
///
/// `plan_bytes` must be the canonical wire encoding of `outcome` (from
/// [`xhc_wire::encode_plan`]); its [`content_hash`] becomes the
/// certificate's plan link. Pass a [`SessionReport`] to embed per-block
/// Gauss rank certificates.
///
/// # Panics
///
/// Panics if the outcome's partitions do not form a disjoint cover of the
/// map's patterns (an engine invariant) or if mask widths disagree with
/// the scan topology.
pub fn certify_plan(
    xmap: &XMap,
    cancel: XCancelConfig,
    outcome: &PartitionOutcome,
    plan_bytes: &[u8],
    session: Option<&SessionReport>,
) -> PlanCertificate {
    let num_patterns = xmap.num_patterns();
    let num_partitions = outcome.partitions.len();
    assert_eq!(
        outcome.masks.len(),
        num_partitions,
        "one mask word per partition"
    );

    // Pattern -> partition assignment (the cover witness).
    let mut assignment = vec![u32::MAX; num_patterns];
    for (i, part) in outcome.partitions.iter().enumerate() {
        assert_eq!(part.as_bits().len(), num_patterns, "partition universe");
        for p in part.as_bits().iter_ones() {
            assert_eq!(assignment[p], u32::MAX, "partitions must be disjoint");
            assignment[p] = i as u32;
        }
    }
    assert!(
        assignment.iter().all(|&a| a != u32::MAX),
        "partitions must cover every pattern"
    );

    // One pass over the X map: restricted per-partition X counts feed the
    // histograms and the masked/leaked split.
    let mut masked = vec![0usize; num_partitions];
    let mut leaked = vec![0usize; num_partitions];
    let mut hists: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); num_partitions];
    let mut counts = vec![0usize; num_partitions];
    let mut touched: Vec<usize> = Vec::new();
    for pos in 0..xmap.num_x_cells() {
        let (cell, xset) = xmap.entry(pos);
        for p in xset.iter() {
            let a = assignment[p] as usize;
            if counts[a] == 0 {
                touched.push(a);
            }
            counts[a] += 1;
        }
        for &a in &touched {
            let c = counts[a];
            counts[a] = 0;
            *hists[a].entry(c).or_insert(0) += 1;
            if outcome.masks[a].masks(cell) {
                masked[a] += c;
            } else {
                leaked[a] += c;
            }
        }
        touched.clear();
    }

    let partitions: Vec<PartitionAccount> = (0..num_partitions)
        .map(|i| PartitionAccount {
            patterns: outcome.partitions[i].card(),
            masked_x: masked[i],
            leaked_x: leaked[i],
            mask_cells: outcome.masks[i].count(),
            cancel_bits: cancel.control_bits(leaked[i]),
            histogram: hists[i].iter().map(|(&c, &n)| (c, n)).collect(),
        })
        .collect();

    PlanCertificate {
        plan_hash: content_hash(plan_bytes),
        num_patterns,
        num_partitions,
        mask_bits: xmap.config().mask_word_bits(),
        total_x: xmap.total_x(),
        m: cancel.m(),
        q: cancel.q(),
        assignment,
        partitions,
        blocks: session.map(certify_blocks),
    }
}

/// Extracts per-block Gauss rank certificates from a cancel session run.
pub fn certify_blocks(report: &SessionReport) -> Vec<BlockCertificate> {
    report
        .blocks
        .iter()
        .map(|b| {
            let mut dependency = Vec::new();
            for r in 0..b.dependency.num_rows() {
                dependency.extend_from_slice(b.dependency.row(r).as_words());
            }
            BlockCertificate {
                patterns: b.patterns,
                num_x: b.num_x,
                rank: b.rank,
                pivot_cols: b.pivot_cols.clone(),
                combinations: b.combinations.len(),
                control_bits: b.control_bits,
                dependency,
            }
        })
        .collect()
}
