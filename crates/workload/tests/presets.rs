//! The CKT presets must keep matching the paper's published statistics —
//! these tests pin the workload generator to §3 and Table 1.

use xhc_workload::WorkloadSpec;

#[test]
fn ckt_b_matches_section3_statistics() {
    let spec = WorkloadSpec::ckt_b();
    let xmap = spec.generate();
    // 36,075 scan cells; ~3,903 capture X's (paper: exactly 3,903).
    assert_eq!(xmap.config().total_cells(), 36_075);
    let x_cells = xmap.num_x_cells();
    assert!(
        (3_500..=4_300).contains(&x_cells),
        "X-capturing cells {x_cells} out of band (paper: 3,903)"
    );
    // Density within 10% of the 2.75% target.
    let density = xmap.x_density();
    assert!(
        (density - 0.0275).abs() < 0.00275,
        "density {density} off target"
    );
}

#[test]
fn ckt_a_low_density_profile() {
    let spec = WorkloadSpec::ckt_a();
    let xmap = spec.generate();
    assert_eq!(xmap.config().total_cells(), 505_050);
    assert_eq!(xmap.config().num_chains(), 1000);
    let density = xmap.x_density();
    assert!(
        (density - 0.0005).abs() < 0.0002,
        "density {density} off the 0.05% target"
    );
}

#[test]
fn ckt_c_profile_shape() {
    let spec = WorkloadSpec::ckt_c();
    let xmap = spec.generate();
    assert_eq!(xmap.config().total_cells(), 97_643);
    assert_eq!(xmap.config().num_chains(), 203);
    // 97,643 = 203 * 481: perfectly balanced chains.
    assert_eq!(xmap.config().max_chain_len(), 481);
    let density = xmap.x_density();
    assert!((density - 0.0238).abs() < 0.004, "density {density}");
}

#[test]
fn presets_have_identical_set_groups() {
    // The §3 property the partitioning pivot needs: a large group of
    // cells sharing one identical X pattern set.
    let xmap = WorkloadSpec::ckt_b().generate();
    let mut by_set: std::collections::HashMap<xhc_bits::PatternRow<'_>, usize> =
        std::collections::HashMap::new();
    for (_, xs) in xmap.iter() {
        *by_set.entry(xs).or_insert(0) += 1;
    }
    let largest = by_set.values().copied().max().unwrap_or(0);
    assert!(
        largest >= 100,
        "largest identical group {largest}; paper's example had 172"
    );
}

#[test]
fn presets_are_deterministic() {
    // Table 1 must regenerate bit-for-bit.
    let a = WorkloadSpec::ckt_b().generate();
    let b = WorkloadSpec::ckt_b().generate();
    assert_eq!(a, b);
}
