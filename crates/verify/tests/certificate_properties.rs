//! Property suite for plan certificates: every engine-produced plan's
//! certificate verifies (at any thread count, bit-identically), and any
//! single-field mutation of a valid certificate is rejected with the
//! typed error naming the violated invariant.

use xhc_bits::PatternSet;
use xhc_core::{BackendReport, PartitionEngine, PartitionOutcome, PlanOptions};
use xhc_logic::Trit;
use xhc_misr::{CancelSession, MaskWord, Taps, XCancelConfig};
use xhc_scan::samples::fig4_xmap;
use xhc_scan::{CellId, ResponseMatrix, ScanConfig, XMap};
use xhc_verify::{certify_plan, check, verify, PlanCertificate, VerifyError};
use xhc_wire::{decode_certificate, encode_certificate, encode_plan};
use xhc_workload::WorkloadSpec;

/// Responses with an X wherever the map says, known-zero elsewhere.
fn responses_for(xmap: &XMap) -> ResponseMatrix {
    let scan = xmap.config().clone();
    let mut resp = ResponseMatrix::filled(scan, xmap.num_patterns(), Trit::Zero);
    for (cell, xset) in xmap.iter() {
        for p in xset.iter() {
            resp.set(p, cell, Trit::X);
        }
    }
    resp
}

fn plan_and_certify(
    xmap: &XMap,
    cancel: XCancelConfig,
    threads: usize,
    blocks: bool,
) -> (PartitionOutcome, Vec<u8>, PlanCertificate) {
    let opts = PlanOptions {
        threads,
        ..PlanOptions::default()
    };
    let outcome = PartitionEngine::with_options(cancel, opts).run(xmap);
    let plan_bytes = encode_plan(&outcome, xmap.num_patterns());
    let session = blocks.then(|| {
        let session =
            CancelSession::new(xmap.config().clone(), cancel, Taps::default_for(cancel.m()));
        session.run(&responses_for(xmap))
    });
    let cert = certify_plan(xmap, cancel, &outcome, &plan_bytes, session.as_ref());
    (outcome, plan_bytes, cert)
}

#[test]
fn engine_certificates_verify_at_every_thread_count() {
    let specs = [
        WorkloadSpec::default(),
        WorkloadSpec {
            num_patterns: 96,
            total_cells: 600,
            num_chains: 8,
            x_density: 0.03,
            ..WorkloadSpec::default()
        },
    ];
    for spec in specs {
        let xmap = spec.generate();
        let cancel = XCancelConfig::new(32, 7);
        let mut reference: Option<Vec<u8>> = None;
        for threads in [1, 2, 8] {
            let (outcome, plan_bytes, cert) = plan_and_certify(&xmap, cancel, threads, false);
            assert_eq!(
                verify(&cert, &outcome, &plan_bytes, &xmap, cancel),
                vec![],
                "threads={threads}"
            );
            // Thread-count invariance carries through to the certificate:
            // the encoded witness is bit-identical at every width.
            let bytes = encode_certificate(&cert);
            match &reference {
                None => reference = Some(bytes),
                Some(r) => assert_eq!(r, &bytes, "threads={threads}"),
            }
        }
    }
}

#[test]
fn session_block_certificates_verify_and_roundtrip() {
    let xmap = fig4_xmap();
    let cancel = XCancelConfig::new(10, 2);
    let (outcome, plan_bytes, cert) = plan_and_certify(&xmap, cancel, 1, true);
    let blocks = cert.blocks.as_ref().expect("session blocks embedded");
    assert!(!blocks.is_empty());
    check(&cert, &outcome, &plan_bytes, &xmap, cancel).unwrap();

    // The wire trip preserves the verdict.
    let decoded = decode_certificate(&encode_certificate(&cert)).unwrap();
    assert_eq!(decoded, cert);
    check(&decoded, &outcome, &plan_bytes, &xmap, cancel).unwrap();
}

/// Applies `mutate` to a fresh valid certificate and asserts the checker
/// rejects it with an error for which `names_invariant` holds.
fn assert_rejected(
    label: &str,
    base: &(PartitionOutcome, Vec<u8>, PlanCertificate),
    xmap: &XMap,
    cancel: XCancelConfig,
    mutate: impl FnOnce(&mut PlanCertificate),
    names_invariant: impl Fn(&VerifyError) -> bool,
) {
    let (outcome, plan_bytes, cert) = base;
    let mut mutated = cert.clone();
    mutate(&mut mutated);
    let errors = verify(&mutated, outcome, plan_bytes, xmap, cancel);
    assert!(!errors.is_empty(), "{label}: mutation must be rejected");
    assert!(
        errors.iter().any(&names_invariant),
        "{label}: no error names the violated invariant, got {errors:?}"
    );
    // And the fail-fast form rejects too.
    assert!(check(&mutated, outcome, plan_bytes, xmap, cancel).is_err());
}

#[test]
fn every_single_field_mutation_is_rejected_with_a_typed_error() {
    let xmap = fig4_xmap();
    let cancel = XCancelConfig::new(10, 2);
    let base = plan_and_certify(&xmap, cancel, 1, true);
    assert!(
        check(&base.2, &base.0, &base.1, &xmap, cancel).is_ok(),
        "baseline certificate must be valid"
    );
    // The fig4 plan has 3 partitions and a known leak, so every mutated
    // field below is exercised against real nonzero accounting.
    assert!(base.2.partitions.iter().any(|p| p.leaked_x > 0));

    assert_rejected(
        "plan_hash",
        &base,
        &xmap,
        cancel,
        |c| c.plan_hash ^= 1,
        |e| matches!(e, VerifyError::PlanHashMismatch { .. }),
    );
    assert_rejected(
        "num_patterns",
        &base,
        &xmap,
        cancel,
        |c| c.num_patterns += 1,
        |e| matches!(e, VerifyError::PatternCountMismatch { .. }),
    );
    assert_rejected(
        "num_partitions",
        &base,
        &xmap,
        cancel,
        |c| c.num_partitions += 1,
        |e| matches!(e, VerifyError::PartitionCountMismatch { .. }),
    );
    assert_rejected(
        "mask_bits",
        &base,
        &xmap,
        cancel,
        |c| c.mask_bits += 1,
        |e| matches!(e, VerifyError::MaskWidthMismatch { .. }),
    );
    assert_rejected(
        "total_x",
        &base,
        &xmap,
        cancel,
        |c| c.total_x -= 1,
        |e| matches!(e, VerifyError::TotalXMismatch { .. }),
    );
    assert_rejected(
        "m",
        &base,
        &xmap,
        cancel,
        |c| c.m += 1,
        |e| matches!(e, VerifyError::CancelParamMismatch { .. }),
    );
    assert_rejected(
        "q",
        &base,
        &xmap,
        cancel,
        |c| c.q += 1,
        |e| matches!(e, VerifyError::CancelParamMismatch { .. }),
    );
    assert_rejected(
        "assignment",
        &base,
        &xmap,
        cancel,
        |c| {
            let old = c.assignment[0];
            c.assignment[0] = (old + 1) % c.num_partitions as u32;
        },
        |e| {
            matches!(
                e,
                VerifyError::AssignmentOutsidePartition { pattern: 0, .. }
                    | VerifyError::PartitionCardinalityMismatch { .. }
            )
        },
    );
    assert_rejected(
        "patterns",
        &base,
        &xmap,
        cancel,
        |c| c.partitions[0].patterns += 1,
        |e| {
            matches!(
                e,
                VerifyError::PartitionCardinalityMismatch { partition: 0, .. }
            )
        },
    );
    assert_rejected(
        "masked_x",
        &base,
        &xmap,
        cancel,
        |c| c.partitions[0].masked_x += 1,
        |e| matches!(e, VerifyError::MaskedXMismatch { partition: 0, .. }),
    );
    let leaky = base
        .2
        .partitions
        .iter()
        .position(|p| p.leaked_x > 0)
        .unwrap();
    assert_rejected(
        "leaked_x",
        &base,
        &xmap,
        cancel,
        |c| c.partitions[leaky].leaked_x -= 1,
        |e| matches!(e, VerifyError::LeakedXMismatch { .. }),
    );
    assert_rejected(
        "mask_cells",
        &base,
        &xmap,
        cancel,
        |c| c.partitions[0].mask_cells += 1,
        |e| matches!(e, VerifyError::MaskCellsMismatch { partition: 0, .. }),
    );
    assert_rejected(
        "cancel_bits",
        &base,
        &xmap,
        cancel,
        |c| c.partitions[leaky].cancel_bits += 0.5,
        |e| matches!(e, VerifyError::PartitionCancelBitsMismatch { .. }),
    );
    assert_rejected(
        "histogram",
        &base,
        &xmap,
        cancel,
        |c| {
            let hist = &mut c.partitions[0].histogram;
            assert!(!hist.is_empty());
            hist[0].1 += 1;
        },
        |e| matches!(e, VerifyError::HistogramMismatch { partition: 0 }),
    );
    // The histogram-sum invariant fires on its own when the histogram
    // stays self-consistent but disagrees with the masked/leaked split.
    {
        let (outcome, plan_bytes, cert) = &base;
        let mut mutated = cert.clone();
        let hist = &mut mutated.partitions[0].histogram;
        hist[0].0 += 1; // shifts sum(x_count * cells) off masked + leaked
        let errors = verify(&mutated, outcome, plan_bytes, &xmap, cancel);
        assert!(errors
            .iter()
            .any(|e| matches!(e, VerifyError::HistogramSumMismatch { partition: 0, .. })));
    }

    // Block-certificate mutations.
    let rank_block = base
        .2
        .blocks
        .as_ref()
        .unwrap()
        .iter()
        .position(|b| b.rank > 0)
        .expect("fig4 session has a ranked block");
    assert_rejected(
        "block rank",
        &base,
        &xmap,
        cancel,
        |c| c.blocks.as_mut().unwrap()[rank_block].rank -= 1,
        |e| matches!(e, VerifyError::BlockRankMismatch { .. }),
    );
    assert_rejected(
        "block pivots",
        &base,
        &xmap,
        cancel,
        |c| {
            let pivots = &mut c.blocks.as_mut().unwrap()[rank_block].pivot_cols;
            let last = pivots.last_mut().unwrap();
            *last += 1;
        },
        |e| matches!(e, VerifyError::BlockPivotMismatch { .. }),
    );
    assert_rejected(
        "block combinations",
        &base,
        &xmap,
        cancel,
        |c| c.blocks.as_mut().unwrap()[rank_block].combinations += 1,
        |e| matches!(e, VerifyError::BlockCombinationCountMismatch { .. }),
    );
    assert_rejected(
        "block control bits",
        &base,
        &xmap,
        cancel,
        |c| c.blocks.as_mut().unwrap()[rank_block].control_bits += 1,
        |e| matches!(e, VerifyError::BlockControlBitsMismatch { .. }),
    );
    assert_rejected(
        "block dependency",
        &base,
        &xmap,
        cancel,
        |c| {
            // Zeroing the matrix provably drops the rank to 0, so the
            // claimed (nonzero) rank certificate can no longer hold. (A
            // single bit flip may legitimately preserve rank and pivots —
            // the embedded matrix *is* the ground truth being certified.)
            let b = &mut c.blocks.as_mut().unwrap()[rank_block];
            b.dependency.iter_mut().for_each(|w| *w = 0);
        },
        |e| {
            matches!(
                e,
                VerifyError::BlockRankMismatch { .. } | VerifyError::BlockPivotMismatch { .. }
            )
        },
    );
    assert_rejected(
        "block shape",
        &base,
        &xmap,
        cancel,
        |c| {
            c.blocks.as_mut().unwrap()[rank_block].dependency.push(0);
        },
        |e| matches!(e, VerifyError::BlockShapeMismatch { .. }),
    );
}

#[test]
fn certificate_is_bound_to_its_exact_plan() {
    // A certificate for one plan must not validate a different plan, even
    // a structurally compatible one: the content-hash link pins it.
    let xmap = fig4_xmap();
    let cancel = XCancelConfig::new(10, 2);
    let (_, _, cert) = plan_and_certify(&xmap, cancel, 1, false);

    let other = PartitionEngine::with_options(
        cancel,
        PlanOptions {
            max_rounds: Some(1),
            ..PlanOptions::default()
        },
    )
    .run(&xmap);
    let other_bytes = encode_plan(&other, xmap.num_patterns());
    let errors = verify(&cert, &other, &other_bytes, &xmap, cancel);
    assert!(errors
        .iter()
        .any(|e| matches!(e, VerifyError::PlanHashMismatch { .. })));
}

#[test]
fn mis_shaped_plans_are_rejected_not_panicked_on() {
    // A plan broken after certification (its bytes, and so the hash link,
    // stay the certified ones) must come back as a typed shape error;
    // otherwise narrow masks on a 1,000-cell map are indexed past their
    // last word.
    let xmap = WorkloadSpec::default().generate();
    let cancel = XCancelConfig::new(32, 7);
    let (outcome, plan_bytes, cert) = plan_and_certify(&xmap, cancel, 1, false);
    let n = outcome.partitions.len();
    let verdict = |mutate: &dyn Fn(&mut PartitionOutcome)| {
        let mut plan = outcome.clone();
        mutate(&mut plan);
        check(&cert, &plan, &plan_bytes, &xmap, cancel)
    };

    let narrow = MaskWord::none(&ScanConfig::uniform(4, 4));
    assert_eq!(
        verdict(&|plan| plan.masks.fill(narrow.clone())),
        Err(VerifyError::PlanMaskWidthMismatch {
            partition: 0,
            width: 16,
            expected: 1000,
        })
    );
    assert_eq!(
        verdict(&|plan| {
            plan.masks.pop();
        }),
        Err(VerifyError::MaskCountMismatch {
            masks: n - 1,
            partitions: n,
        })
    );
    assert_eq!(
        verdict(&|plan| plan.partitions[0] = PatternSet::all(199)),
        Err(VerifyError::PartitionUniverseMismatch {
            partition: 0,
            universe: 199,
            expected: 200,
        })
    );
}

#[test]
fn a_mask_on_a_never_x_cell_is_reported_then_rejected() {
    // The hybrid report must account such a plan without panicking, as a
    // read of its cost; judging it is the checker's job (XL0404).
    let xmap = fig4_xmap();
    let cancel = XCancelConfig::new(10, 2);
    let (valid, ..) = plan_and_certify(&xmap, cancel, 1, false);
    let never_x = CellId::new(0, 1);
    assert_eq!(xmap.x_count(never_x), 0);
    let mut plan = valid.clone();
    plan.masks[0].mask(xmap.config(), never_x);

    let report = BackendReport::hybrid(plan.clone());
    let expected = BackendReport::hybrid(valid);
    assert_eq!(
        (report.control_bits, report.masked_x, report.leaked_x),
        (expected.control_bits, expected.masked_x, expected.leaked_x)
    );

    let plan_bytes = encode_plan(&plan, xmap.num_patterns());
    let cert = certify_plan(&xmap, cancel, &plan, &plan_bytes, None);
    let unsafe_mask = VerifyError::MaskUnsafe {
        partition: 0,
        cell: xmap.config().linear_index(never_x),
    };
    assert!(verify(&cert, &plan, &plan_bytes, &xmap, cancel).contains(&unsafe_mask));
    assert!(check(&cert, &plan, &plan_bytes, &xmap, cancel).is_err());
}
