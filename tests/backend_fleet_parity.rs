//! The backend fleet's numbers are pinned: every [`BackendId::plan`]'s
//! `control_bits` and observed-X account (masked / leaked / lost) are
//! golden values on the paper's Fig. 4 worked example and on scaled
//! CKT-A/B/C industrial profiles, and the uniform report's internal
//! accounting holds on arbitrary maps.

mod common;

use common::certified;
use xhc_prng::XhcRng;
use xhybrid::prelude::*;
use xhybrid::scan::samples::fig4_xmap;

/// Shrinks a paper-scale profile so the suite stays fast while keeping
/// its correlation structure (mirrors `xhybrid gen --scale`).
fn scaled(mut spec: WorkloadSpec, scale: usize) -> XMap {
    spec.total_cells = (spec.total_cells / scale).max(spec.num_chains.max(4));
    spec.num_chains = (spec.num_chains / scale).max(4);
    spec.num_patterns = (spec.num_patterns / scale).max(20);
    spec.generate()
}

fn test_maps() -> Vec<(&'static str, XMap, XCancelConfig)> {
    vec![
        ("fig4", fig4_xmap(), XCancelConfig::new(10, 2)),
        (
            "ckt-a",
            scaled(WorkloadSpec::ckt_a(), 60),
            XCancelConfig::new(32, 7),
        ),
        (
            "ckt-b",
            scaled(WorkloadSpec::ckt_b(), 60),
            XCancelConfig::new(32, 7),
        ),
        (
            "ckt-c",
            scaled(WorkloadSpec::ckt_c(), 60),
            XCancelConfig::new(32, 7),
        ),
    ]
}

/// One backend's report; a backend that exposes its partition plan (the
/// hybrid) has that plan certified and checked too.
fn report(backend: BackendId, xmap: &XMap, cancel: XCancelConfig) -> BackendReport {
    let r = backend.plan(xmap, cancel, &PlanOptions::default());
    if let Some(outcome) = &r.outcome {
        certified(xmap, cancel, outcome);
    }
    r
}

/// One backend's account: `(control_bits, masked_x, leaked_x,
/// lost_observability)`.
type Account = (f64, usize, usize, usize);

/// Golden accounts per backend, in [`BackendId::ALL`] order, for each of
/// [`test_maps`]. Superset bits are rounded to 1/1000 bit; the X-code
/// compactor spends none.
const GOLDEN: [(&str, [Account; 5]); 4] = [
    (
        "fig4",
        [
            (57.5, 23, 5, 0),
            (120.0, 28, 0, 0),
            (70.0, 0, 28, 0),
            (17.5, 0, 28, 28),
            (0.0, 0, 28, 10),
        ],
    ),
    (
        "ckt-a",
        [
            (9910.4, 0, 165, 0),
            (421600.0, 165, 0, 0),
            (1478.4, 0, 165, 0),
            (958.72, 0, 165, 91),
            (0.0, 0, 165, 7),
        ],
    ),
    (
        "ckt-b",
        [
            (7332.96, 0, 751, 0),
            (30200.0, 751, 0, 0),
            (6728.96, 0, 751, 0),
            (2428.16, 0, 751, 1236),
            (0.0, 0, 751, 20),
        ],
    ),
    (
        "ckt-c",
        [
            (16636.0, 0, 1675, 0),
            (81400.0, 1675, 0, 0),
            (15008.0, 0, 1675, 0),
            (3279.36, 0, 1675, 3775),
            (0.0, 0, 1675, 172),
        ],
    ),
];

#[test]
fn every_backend_matches_its_golden_accounting() {
    for ((name, xmap, cancel), (golden_name, golden)) in test_maps().into_iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        for (backend, (bits, masked, leaked, lost)) in BackendId::ALL.into_iter().zip(golden) {
            let r = report(backend, &xmap, cancel);
            assert_eq!(r.control_bits, bits, "{backend} control bits on {name}");
            assert_eq!(r.masked_x, masked, "{backend} masked X's on {name}");
            assert_eq!(r.leaked_x, leaked, "{backend} leaked X's on {name}");
            assert_eq!(
                r.lost_observability, lost,
                "{backend} lost observability on {name}"
            );
        }
    }
}

#[test]
fn fig4_pins_the_paper_numbers_across_the_fleet() {
    let xmap = fig4_xmap();
    let cancel = XCancelConfig::new(10, 2);
    assert_eq!(
        report(BackendId::MaskingOnly, &xmap, cancel).control_bits,
        120.0
    );
    assert_eq!(
        report(BackendId::CancelingOnly, &xmap, cancel).control_bits,
        70.0
    );
    let hybrid = report(BackendId::Hybrid, &xmap, cancel);
    assert_eq!(hybrid.control_bits, 57.5);
    assert_eq!(hybrid.masked_x, 23);
    assert_eq!(hybrid.leaked_x, 5);
    assert_eq!(hybrid.outcome.as_ref().map(|o| o.partitions.len()), Some(3));
}

/// An arbitrary small X map: up to 12 cells x 24 patterns.
fn random_xmap(rng: &mut XhcRng) -> XMap {
    let cfg = ScanConfig::uniform(3, 4);
    let mut b = XMapBuilder::new(cfg, 24);
    for _ in 0..rng.gen_range(0..120) {
        let cell = rng.gen_index(12);
        b.add_x(CellId::new(cell / 4, cell % 4), rng.gen_index(24))
            .unwrap();
    }
    b.finish()
}

#[test]
fn uniform_reports_account_for_every_x_on_arbitrary_maps() {
    let mut rng = XhcRng::seed_from_u64(0xBAC_0001);
    for _ in 0..32 {
        let xmap = random_xmap(&mut rng);
        let m = rng.gen_range(4..=16);
        let q = rng.gen_range(1..=3usize).min(m - 1);
        let cancel = XCancelConfig::new(m, q);
        for &backend in &BackendId::ALL {
            let r = report(backend, &xmap, cancel);
            assert_eq!(r.backend, backend);
            assert_eq!(
                r.masked_x + r.leaked_x,
                xmap.total_x(),
                "{backend}: masked + leaked must partition the X count"
            );
            if backend.caps().lossless {
                assert_eq!(r.lost_observability, 0, "{backend} is lossless");
            }
            if backend.caps().partitions {
                assert!(r.outcome.is_some(), "{backend} must expose its plan");
            } else {
                assert!(r.outcome.is_none(), "{backend} has no partition plan");
            }
        }
    }
}
