//! The analyzer's soundness property: artifacts produced by the
//! workspace's own validated builders and engines lint clean — every
//! finding on generator output would be a false positive (deterministic
//! seeded loops).
//!
//! The only tolerated finding is the XL0304 primitivity *warning* when a
//! fixture uses `Taps::default_for` (documented as not primitivity-tuned)
//! — those runs suppress the rule explicitly.

use xhc_core::PartitionEngine;
use xhc_lint::{check_netlist, check_outcome, check_xmap_facts, LintCode, LintConfig, XMapFacts};
use xhc_logic::generate::CircuitSpec;
use xhc_misr::XCancelConfig;
use xhc_prng::XhcRng;
use xhc_scan::{ScanConfig, XMapBuilder};
use xhc_workload::WorkloadSpec;

/// Random generated circuits produce netlists with no structural
/// findings: generators only emit connected, acyclic, observable logic.
#[test]
fn generated_netlists_lint_clean() {
    let mut rng = XhcRng::seed_from_u64(0x11D7);
    for _ in 0..32 {
        let spec = CircuitSpec {
            num_inputs: rng.gen_range(2..8),
            num_outputs: rng.gen_range(1..4),
            num_gates: rng.gen_range(10..90),
            num_scan_flops: rng.gen_range(0..10),
            num_shadow_flops: rng.gen_range(0..3),
            num_buses: rng.gen_range(0..3),
            max_fanin: 4,
            seed: rng.next_u64(),
        };
        let circuit = spec.generate();
        // Generated circuits may legitimately contain logic that ends up
        // unobservable (random fan-out) — the structural Deny rules are
        // what must never fire on builder-accepted netlists.
        let config = LintConfig::default()
            .allow(LintCode::DeadLogic)
            .allow(LintCode::UnreachableFlop);
        let report = check_netlist(&config, &circuit.netlist);
        assert!(
            report.is_empty(),
            "spec {spec:?} produced findings:\n{}",
            report.render_human()
        );
    }
}

/// Random valid X maps (builder-produced) never trip the raw-facts X-map
/// rules: XL0202/XL0203 are constructor invariants, which is why
/// `check_xmap` does not re-run them on a built map.
#[test]
fn built_xmaps_lint_clean() {
    let mut rng = XhcRng::seed_from_u64(0x11D8);
    for _ in 0..48 {
        let chains = rng.gen_range(1..6);
        let len = rng.gen_range(1..8);
        let patterns = rng.gen_range(1..30);
        let config = ScanConfig::uniform(chains, len);
        let mut b = XMapBuilder::new(config.clone(), patterns);
        for _ in 0..rng.gen_range(0..80) {
            let cell = rng.gen_index(config.total_cells());
            b.add_x(config.cell_at(cell), rng.gen_index(patterns))
                .unwrap();
        }
        let xmap = b.finish();
        let facts = XMapFacts {
            total_cells: config.total_cells(),
            num_patterns: xmap.num_patterns(),
            entries: xmap
                .iter()
                .map(|(cell, xs)| (config.linear_index(cell), xs.iter().collect()))
                .collect(),
        };
        let report = check_xmap_facts(&LintConfig::default(), &facts);
        assert!(report.is_empty(), "{}", report.render_human());
    }
}

/// End to end: random workloads through the partition engine produce
/// plans with zero diagnostics — cover, mask safety and cost accounting
/// all hold by construction.
#[test]
fn engine_outcomes_lint_clean() {
    let mut rng = XhcRng::seed_from_u64(0x11D9);
    for _ in 0..12 {
        let spec = WorkloadSpec {
            total_cells: rng.gen_range(60..300),
            num_chains: rng.gen_range(2..6),
            num_patterns: rng.gen_range(16..64),
            x_density: rng.gen_range(0.005..0.05),
            seed: rng.next_u64(),
            ..WorkloadSpec::default()
        };
        let xmap = spec.generate();
        let m = rng.gen_range(6..=16);
        let q = rng.gen_range(1..=2usize);
        let cancel = XCancelConfig::new(m, q);
        let outcome = PartitionEngine::new(cancel).run(&xmap);
        let report = check_outcome(&LintConfig::default(), &xmap, &outcome, cancel);
        assert!(
            report.is_empty(),
            "workload {spec:?} with (m={m}, q={q}) produced findings:\n{}",
            report.render_human()
        );
    }
}
