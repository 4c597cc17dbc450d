//! Per-rule fixtures: every rule has a seeded-defect fixture on which it
//! fires (and only it fires) and a clean fixture on which it stays quiet.
//! Combinational loops, bad gate arity, unconnected flop D pins and
//! dangling references have no rule: `NetlistBuilder::finish` rejects
//! them, and `xhc-logic`'s netlist tests pin each rejection.

use xhc_bits::PatternSet;
use xhc_core::{PartitionEngine, PartitionOutcome};
use xhc_lint::{
    check_cancel_params, check_certificate, check_misr_taps, check_netlist, check_outcome,
    check_scan_config, check_xmap, check_xmap_facts, LintCode, LintConfig, LintReport, XMapFacts,
};
use xhc_logic::{FlopInit, GateKind, Netlist, NetlistBuilder};
use xhc_misr::{Taps, XCancelConfig};
use xhc_scan::samples::fig4_xmap;
use xhc_scan::{CellId, ScanConfig, XMap, XMapBuilder};

fn codes(report: &LintReport) -> Vec<LintCode> {
    let mut codes: Vec<LintCode> = report.diagnostics.iter().map(|d| d.code).collect();
    codes.dedup();
    codes
}

/// A small clean netlist: two inputs, a few gates, a flop in a feedback
/// loop (sequential, not combinational), everything observable.
fn clean_netlist() -> Netlist {
    let mut b = NetlistBuilder::new();
    let a = b.input();
    let c = b.input();
    let g1 = b.and2(a, c);
    let f = b.flop(FlopInit::Zero);
    let g2 = b.xor2(g1, f);
    b.connect_flop_d(f, g2);
    b.output(g2);
    b.finish().expect("fixture netlist is valid")
}

// ---------------------------------------------------------------- XL01xx

#[test]
fn xl01_clean_netlist_passes() {
    let report = check_netlist(&LintConfig::default(), &clean_netlist());
    assert!(report.is_empty(), "{}", report.render_human());
}

#[test]
fn xl01_wide_gates_pass() {
    let mut b = NetlistBuilder::new();
    let inputs: Vec<_> = (0..4).map(|_| b.input()).collect();
    let wide = b.gate(GateKind::And, inputs.clone());
    let sel = b.gate(GateKind::Mux, vec![inputs[0], inputs[1], wide]);
    b.output(sel);
    let report = check_netlist(
        &LintConfig::default(),
        &b.finish().expect("fixture netlist is valid"),
    );
    assert!(report.is_empty(), "{}", report.render_human());
}

// ---------------------------------------------------------------- XL0102

#[test]
fn xl0102_floating_net_fires() {
    // A bus with no tri-state driver builds, and floats.
    let mut b = NetlistBuilder::new();
    let bus = b.bus(vec![]);
    b.output(bus);
    let report = check_netlist(
        &LintConfig::default(),
        &b.finish().expect("a driverless bus builds"),
    );
    assert_eq!(codes(&report), vec![LintCode::FloatingNet]);
    assert_eq!(report.len(), 1);
    assert!(report.has_deny());
}

#[test]
fn xl0102_driven_bus_passes() {
    let mut b = NetlistBuilder::new();
    let en = b.input();
    let data = b.input();
    let t = b.tribuf(en, data);
    let bus = b.bus(vec![t]);
    b.output(bus);
    let report = check_netlist(
        &LintConfig::default(),
        &b.finish().expect("fixture netlist is valid"),
    );
    assert!(report.is_empty(), "{}", report.render_human());
}

// ---------------------------------------------------------------- XL0103

#[test]
fn xl0103_dead_logic_fires() {
    // A gate nothing observes.
    let mut b = NetlistBuilder::new();
    let a = b.input();
    let c = b.input();
    let live = b.or2(a, c);
    let _dead = b.and2(a, c);
    b.output(live);
    let report = check_netlist(
        &LintConfig::default(),
        &b.finish().expect("fixture netlist is valid"),
    );
    assert_eq!(codes(&report), vec![LintCode::DeadLogic]);
    assert!(!report.has_deny(), "dead logic is a warning by default");
}

#[test]
fn xl0103_logic_observed_through_flop_passes() {
    // Logic feeding only a flop D pin is still observable (next cycle).
    let mut b = NetlistBuilder::new();
    let a = b.input();
    let g = b.not(a);
    let f = b.flop(FlopInit::Zero);
    b.connect_flop_d(f, g);
    b.output(f);
    let report = check_netlist(
        &LintConfig::default(),
        &b.finish().expect("fixture netlist is valid"),
    );
    assert!(report.is_empty(), "{}", report.render_human());
}

// ---------------------------------------------------------------- XL0105

#[test]
fn xl0105_unreachable_flop_fires() {
    let mut b = NetlistBuilder::new();
    let a = b.input();
    let f = b.flop(FlopInit::Zero);
    b.connect_flop_d(f, a);
    // The flop is driven but nothing reads it; a separate path feeds the
    // output.
    let out = b.not(a);
    b.output(out);
    let report = check_netlist(
        &LintConfig::default(),
        &b.finish().expect("fixture netlist is valid"),
    );
    assert_eq!(codes(&report), vec![LintCode::UnreachableFlop]);
    assert!(!report.has_deny());
}

#[test]
fn xl0105_observed_flop_passes() {
    let report = check_netlist(&LintConfig::default(), &clean_netlist());
    assert!(report.is_empty(), "{}", report.render_human());
}

// ---------------------------------------------------------------- XL0201

#[test]
fn xl0201_chain_imbalance_fires() {
    // 300-bit mask word for 120 cells: 60% waste.
    let scan = ScanConfig::new(vec![100, 10, 10]);
    let report = check_scan_config(&LintConfig::default(), &scan);
    assert_eq!(codes(&report), vec![LintCode::ChainImbalance]);
}

#[test]
fn xl0201_balanced_chains_pass() {
    let report = check_scan_config(&LintConfig::default(), &ScanConfig::balanced(997, 7));
    assert!(report.is_empty(), "{}", report.render_human());
}

// ---------------------------------------------------------------- XL0202

#[test]
fn xl0202_out_of_range_fires() {
    let facts = XMapFacts {
        total_cells: 10,
        num_patterns: 6,
        entries: vec![(10, vec![0]), (4, vec![6])],
    };
    let report = check_xmap_facts(&LintConfig::default(), &facts);
    assert_eq!(codes(&report), vec![LintCode::XOutOfRange]);
    assert!(report.has_deny());
}

#[test]
fn xl0202_in_range_passes() {
    let facts = XMapFacts {
        total_cells: 10,
        num_patterns: 6,
        entries: vec![(9, vec![0, 5]), (4, vec![3])],
    };
    let report = check_xmap_facts(&LintConfig::default(), &facts);
    assert!(report.is_empty(), "{}", report.render_human());
}

// ---------------------------------------------------------------- XL0203

#[test]
fn xl0203_duplicates_fire() {
    let facts = XMapFacts {
        total_cells: 10,
        num_patterns: 6,
        entries: vec![(4, vec![1]), (4, vec![2]), (7, vec![3, 3])],
    };
    let report = check_xmap_facts(&LintConfig::default(), &facts);
    assert_eq!(codes(&report), vec![LintCode::DuplicateX]);
    assert_eq!(report.len(), 2);
}

#[test]
fn xl0203_builder_output_passes() {
    let mut b = XMapBuilder::new(ScanConfig::uniform(2, 5), 6);
    // add_x twice for the same (cell, pattern) coalesces in the builder.
    b.add_x(CellId::new(0, 3), 2).unwrap();
    b.add_x(CellId::new(0, 3), 2).unwrap();
    let report = check_xmap(&LintConfig::default(), &b.finish());
    assert!(report.is_empty(), "{}", report.render_human());
}

// ---------------------------------------------------------------- XL0304

#[test]
fn xl0304_degenerate_misr_fires() {
    let lc = LintConfig::default();
    // No x^m feedback term (m-1 missing): deny.
    assert!(check_misr_taps(&lc, 8, &Taps::new(vec![0, 3])).has_deny());
    // Tap out of range: deny.
    assert!(check_misr_taps(&lc, 4, &Taps::new(vec![3, 7])).has_deny());
    // Non-primitive but structurally sound: warn only.
    let report = check_misr_taps(&lc, 4, &Taps::new(vec![1, 3]));
    assert_eq!(codes(&report), vec![LintCode::DegenerateMisr]);
    assert!(!report.has_deny());
}

#[test]
fn xl0304_primitive_taps_pass() {
    let lc = LintConfig::default();
    // x^4 + x + 1 and x^8 + x^4 + x^3 + x^2 + 1, both primitive.
    assert!(check_misr_taps(&lc, 4, &Taps::new(vec![2, 3])).is_empty());
    assert!(check_misr_taps(&lc, 8, &Taps::new(vec![3, 4, 5, 7])).is_empty());
}

// ---------------------------------------------------------------- XL0305

#[test]
fn xl0305_bad_cancel_config_fires() {
    let lc = LintConfig::default();
    assert!(check_cancel_params(&lc, 0, 0).has_deny());
    assert!(check_cancel_params(&lc, 8, 0).has_deny());
    assert!(check_cancel_params(&lc, 8, 8).has_deny());
    // q > m/2: warn.
    let report = check_cancel_params(&lc, 8, 5);
    assert_eq!(codes(&report), vec![LintCode::BadCancelConfig]);
    assert!(!report.has_deny());
}

#[test]
fn xl0305_paper_config_passes() {
    let cancel = XCancelConfig::paper_default();
    let report = check_cancel_params(&LintConfig::default(), cancel.m(), cancel.q());
    assert!(report.is_empty(), "{}", report.render_human());
}

// ---------------------------------------------------------------- XL04xx

fn two_cell_xmap() -> XMap {
    let mut b = XMapBuilder::new(ScanConfig::uniform(1, 2), 4);
    // Cell 0 is X everywhere; cell 1 only under pattern 0.
    for p in 0..4 {
        b.add_x(CellId::new(0, 0), p).unwrap();
    }
    b.add_x(CellId::new(0, 1), 0).unwrap();
    b.finish()
}

/// Certifies the engine's Fig. 4 plan, then breaks the *plan* (not its
/// certificate) and lints the pair. The plan bytes stay the certified
/// ones, so the hash link (XL0401) holds and only the broken invariant
/// fires. `mutate` gets the plan and the index of the partition that
/// holds a given pattern.
fn lint_broken_fig4_plan(
    mutate: impl FnOnce(&mut PartitionOutcome, &dyn Fn(usize) -> usize),
) -> LintReport {
    let xmap = fig4_xmap();
    let cancel = XCancelConfig::new(10, 2);
    let mut outcome = PartitionEngine::new(cancel).run(&xmap);
    let plan_bytes = xhc_wire::encode_plan(&outcome, xmap.num_patterns());
    let cert = xhc_verify::certify_plan(&xmap, cancel, &outcome, &plan_bytes, None);
    let parts = outcome.partitions.clone();
    let holding = move |p: usize| parts.iter().position(|s| s.contains(p)).unwrap();
    mutate(&mut outcome, &holding);
    check_certificate(
        &LintConfig::default(),
        &cert,
        &outcome,
        &plan_bytes,
        &xmap,
        cancel,
    )
}

#[test]
fn xl0402_overlapping_plan_fires() {
    // Pattern 0 also joins {1,2,6,7}; SC4[2] stays X under all of them,
    // so the mask is still safe and only the cover breaks.
    let report = lint_broken_fig4_plan(|plan, holding| plan.partitions[holding(1)].insert(0));
    assert_eq!(codes(&report), vec![LintCode::CertCover]);
    assert!(report.has_deny());
}

#[test]
fn xl0402_plan_with_a_hole_fires() {
    // Pattern 3 leaves {0,3,4}; every masked cell is still X under {0,4}.
    let report = lint_broken_fig4_plan(|plan, holding| plan.partitions[holding(3)].remove(3));
    assert_eq!(codes(&report), vec![LintCode::CertCover]);
    assert!(report.render_human().contains("pattern 3"));
}

#[test]
fn xl0406_empty_plan_fires() {
    let report = lint_broken_fig4_plan(|plan, _| {
        plan.partitions.clear();
        plan.masks.clear();
    });
    assert_eq!(codes(&report), vec![LintCode::CertScanMismatch]);
}

#[test]
fn xl0406_wrong_universe_fires() {
    let report = lint_broken_fig4_plan(|plan, holding| {
        plan.partitions[holding(5)] = PatternSet::from_patterns(6, [5]);
    });
    assert_eq!(codes(&report), vec![LintCode::CertScanMismatch]);
    assert!(report.render_human().contains("over 6 patterns"));
}

#[test]
fn xl0404_unsafe_mask_fires() {
    // SC5[1] is X under 0,1,3,4,6,7 but known under pattern 2.
    let scan = fig4_xmap().config().clone();
    let report = lint_broken_fig4_plan(|plan, holding| {
        plan.masks[holding(2)].mask(&scan, CellId::new(4, 1));
    });
    assert_eq!(codes(&report), vec![LintCode::CertAccounting]);
    assert!(report.render_human().contains("SC5[1]"));
}

#[test]
fn xl0406_mask_count_mismatch_fires() {
    let report = lint_broken_fig4_plan(|plan, _| {
        plan.masks.pop();
    });
    assert_eq!(codes(&report), vec![LintCode::CertScanMismatch]);
    assert!(report
        .render_human()
        .contains("2 mask words for 3 partitions"));
}

#[test]
fn xl0404_tampered_cost_fires() {
    let report = lint_broken_fig4_plan(|plan, _| {
        plan.cost.masking_bits += 2;
        plan.cost.canceling_bits += 0.5;
    });
    assert_eq!(codes(&report), vec![LintCode::CertAccounting]);
    let text = report.render_human();
    assert!(text.contains("masking bits") && text.contains("canceling bits"));
}

#[test]
fn xl0303_engine_cost_passes() {
    // `check_outcome` certifies a fresh engine plan and checks it.
    let xmap = two_cell_xmap();
    let cancel = XCancelConfig::new(4, 1);
    let outcome = PartitionEngine::new(cancel).run(&xmap);
    let report = check_outcome(&LintConfig::default(), &xmap, &outcome, cancel);
    assert!(report.is_empty(), "{}", report.render_human());
}

/// A certified two-cell plan: engine outcome, its wire bytes and a valid
/// certificate to mutate per-rule.
fn certified_two_cell() -> (
    XMap,
    XCancelConfig,
    xhc_core::PartitionOutcome,
    Vec<u8>,
    xhc_verify::PlanCertificate,
) {
    let xmap = two_cell_xmap();
    let cancel = XCancelConfig::new(4, 1);
    let outcome = PartitionEngine::new(cancel).run(&xmap);
    let plan_bytes = xhc_wire::encode_plan(&outcome, xmap.num_patterns());
    let cert = xhc_verify::certify_plan(&xmap, cancel, &outcome, &plan_bytes, None);
    (xmap, cancel, outcome, plan_bytes, cert)
}

#[test]
fn xl04_valid_certificate_passes() {
    let (xmap, cancel, outcome, plan_bytes, cert) = certified_two_cell();
    let report = check_certificate(
        &LintConfig::default(),
        &cert,
        &outcome,
        &plan_bytes,
        &xmap,
        cancel,
    );
    assert!(report.is_empty(), "{}", report.render_human());
}

#[test]
fn xl0401_broken_plan_link_fires() {
    let (xmap, cancel, outcome, plan_bytes, mut cert) = certified_two_cell();
    cert.plan_hash ^= 0xFF;
    let report = check_certificate(
        &LintConfig::default(),
        &cert,
        &outcome,
        &plan_bytes,
        &xmap,
        cancel,
    );
    assert_eq!(codes(&report), vec![LintCode::CertPlanHash]);
    assert!(report.has_deny());
}

#[test]
fn xl0402_cover_witness_fires() {
    let (xmap, cancel, outcome, plan_bytes, mut cert) = certified_two_cell();
    cert.partitions[0].patterns += 1;
    let report = check_certificate(
        &LintConfig::default(),
        &cert,
        &outcome,
        &plan_bytes,
        &xmap,
        cancel,
    );
    assert_eq!(codes(&report), vec![LintCode::CertCover]);
}

#[test]
fn xl0403_histogram_fires() {
    let (xmap, cancel, outcome, plan_bytes, mut cert) = certified_two_cell();
    let hist = &mut cert.partitions[0].histogram;
    assert!(!hist.is_empty(), "two-cell fixture partition has X classes");
    hist[0].1 += 1;
    let report = check_certificate(
        &LintConfig::default(),
        &cert,
        &outcome,
        &plan_bytes,
        &xmap,
        cancel,
    );
    assert!(codes(&report).contains(&LintCode::CertHistogram));
}

#[test]
fn xl0404_accounting_fires() {
    let (xmap, cancel, outcome, plan_bytes, mut cert) = certified_two_cell();
    cert.partitions[0].mask_cells += 1;
    let report = check_certificate(
        &LintConfig::default(),
        &cert,
        &outcome,
        &plan_bytes,
        &xmap,
        cancel,
    );
    assert_eq!(codes(&report), vec![LintCode::CertAccounting]);
}

#[test]
fn xl0405_rank_bound_fires() {
    let (xmap, cancel, outcome, plan_bytes, mut cert) = certified_two_cell();
    // A hand-built block whose claimed rank overstates its dependency
    // matrix (m = 4 rows, 2 X columns, only one independent row).
    cert.blocks = Some(vec![xhc_verify::BlockCertificate {
        patterns: (0, 4),
        num_x: 2,
        rank: 2,
        pivot_cols: vec![0, 1],
        combinations: 1,
        control_bits: 4,
        dependency: vec![0b01, 0b01, 0, 0],
    }]);
    let report = check_certificate(
        &LintConfig::default(),
        &cert,
        &outcome,
        &plan_bytes,
        &xmap,
        cancel,
    );
    assert!(codes(&report).contains(&LintCode::CertRankBound));

    // And the matching honest block passes.
    let (xmap, cancel, outcome, plan_bytes, mut cert) = certified_two_cell();
    cert.blocks = Some(vec![xhc_verify::BlockCertificate {
        patterns: (0, 4),
        num_x: 2,
        rank: 1,
        pivot_cols: vec![0],
        combinations: 1,
        control_bits: 4,
        dependency: vec![0b01, 0b01, 0, 0],
    }]);
    let report = check_certificate(
        &LintConfig::default(),
        &cert,
        &outcome,
        &plan_bytes,
        &xmap,
        cancel,
    );
    assert!(report.is_empty(), "{}", report.render_human());
}

#[test]
fn xl0406_scan_mismatch_fires() {
    let (xmap, cancel, outcome, plan_bytes, mut cert) = certified_two_cell();
    cert.total_x += 1;
    let report = check_certificate(
        &LintConfig::default(),
        &cert,
        &outcome,
        &plan_bytes,
        &xmap,
        cancel,
    );
    assert_eq!(codes(&report), vec![LintCode::CertScanMismatch]);
}

#[test]
fn xl04_artifact_dataflow_pass_roundtrips() {
    // The wire-level entry point: encode all three artifacts, lint them.
    let (xmap, _, _, plan_bytes, cert) = certified_two_cell();
    let cert_bytes = xhc_wire::encode_certificate(&cert);
    let xmap_bytes = xhc_wire::encode_xmap(&xmap);
    let lc = LintConfig::default();
    let report =
        xhc_lint::check_certificate_artifacts(&lc, &cert_bytes, &plan_bytes, &xmap_bytes).unwrap();
    assert!(report.is_empty(), "{}", report.render_human());

    // A certificate re-pointed at a different plan hash fires XL0401.
    let mut bad = cert.clone();
    bad.plan_hash ^= 1;
    let bad_bytes = xhc_wire::encode_certificate(&bad);
    let report =
        xhc_lint::check_certificate_artifacts(&lc, &bad_bytes, &plan_bytes, &xmap_bytes).unwrap();
    assert_eq!(codes(&report), vec![LintCode::CertPlanHash]);

    // Garbage artifacts are a transport error, not a finding.
    assert!(xhc_lint::check_certificate_artifacts(&lc, b"junk", &plan_bytes, &xmap_bytes).is_err());
}

// ------------------------------------------------------- severity plumbing

#[test]
fn overrides_change_exit_semantics() {
    // Demote a deny rule: report still fires but is no longer fatal.
    let facts = XMapFacts {
        total_cells: 5,
        num_patterns: 5,
        entries: vec![(7, vec![0])],
    };
    let demoted = LintConfig::default().warn(LintCode::XOutOfRange);
    let report = check_xmap_facts(&demoted, &facts);
    assert_eq!(report.len(), 1);
    assert!(!report.has_deny());
    // Suppress it entirely.
    let allowed = LintConfig::default().allow(LintCode::XOutOfRange);
    assert!(check_xmap_facts(&allowed, &facts).is_empty());
    // Escalate a warn rule.
    let escalated = LintConfig::default().deny(LintCode::ChainImbalance);
    let scan = ScanConfig::new(vec![100, 10, 10]);
    assert!(check_scan_config(&escalated, &scan).has_deny());
}
