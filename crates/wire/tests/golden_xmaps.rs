//! Golden digests of the generated workload maps.
//!
//! Table 1 is computed from these maps, so they must regenerate
//! bit-for-bit across builds, not only within one: the `xhc-prng` draw
//! order of `WorkloadSpec::generate` is part of the map contract. Each
//! row pins the content hash of the map's canonical wire encoding, with
//! its X-cell and X counts so a mismatch says which way it moved.

use xhc_core::inter_correlation_stats;
use xhc_wire::{content_hash, encode_xmap, hash_hex};
use xhc_workload::WorkloadSpec;

#[test]
fn generated_maps_match_their_golden_digests() {
    // (label, spec, num_x_cells, total_x, digest), one row per line.
    #[rustfmt::skip]
    let golden = [
        ("CKT-A", WorkloadSpec::ckt_a(), 2020, 729_802, "0676020ce0b72e52"),
        ("CKT-B", WorkloadSpec::ckt_b(), 3896, 2_821_638, "607dca49f8aa0435"),
        ("CKT-C", WorkloadSpec::ckt_c(), 7811, 6_116_320, "521d2c7c00d2e365"),
        ("CKT-A /20", WorkloadSpec::ckt_a().scaled(20), 100, 1_760, "db1a2a5251c4ea1a"),
        ("CKT-B /20", WorkloadSpec::ckt_b().scaled(20), 195, 6_901, "fa195b02e052e64f"),
        ("CKT-C /20", WorkloadSpec::ckt_c().scaled(20), 391, 15_270, "957607acb29a9f6a"),
        ("demo", WorkloadSpec::default(), 92, 1_844, "0d8bad8e3dff462c"),
        ("scattered pool", scattered_pool(), 195, 6_928, "a930f64ad298cea8"),
        ("groups fill pool", groups_fill_pool(), 10, 805, "f236e28ca2aeec29"),
        ("no groups", no_groups(), 390, 10_001, "e5e70d2fe813302a"),
        ("one-cell noise pool", one_cell_pool(), 1, 77, "1c5ee8bfa1fa6333"),
        ("two-cell noise pool", two_cell_pool(), 2, 88, "b8c088a5861b2bcf"),
    ];
    let mut moved = Vec::new();
    for (label, spec, num_x_cells, total_x, digest) in golden {
        let xmap = spec.generate();
        let got = (
            xmap.num_x_cells(),
            xmap.total_x(),
            hash_hex(content_hash(&encode_xmap(&xmap))),
        );
        if got != (num_x_cells, total_x, digest.to_string()) {
            moved.push(format!(
                "{label}: want ({num_x_cells}, {total_x}, {digest}), got {got:?}"
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "generated maps moved:\n{}",
        moved.join("\n")
    );
}

/// The §3 inter-correlation profile of each full-size circuit. The
/// digests above say *that* a map moved; these say what the move cost
/// the profile the synthetic circuits stand in for (the paper's CKT-B:
/// 90% of X's in 4.9% of cells, 172 of 177 cells with one pattern set,
/// 177 cells with 406 X's each).
#[test]
fn full_maps_keep_their_sec3_profile() {
    // (label, spec, [x cells, total X, cells holding 90% of the X's,
    // largest identical-set group, largest count class's cells, that
    // class's X count]), one row per line.
    #[rustfmt::skip]
    let golden = [
        ("CKT-A", WorkloadSpec::ckt_a(), [2020, 729_802, 1168, 178, 178, 956]),
        ("CKT-B", WorkloadSpec::ckt_b(), [3896, 2_821_638, 2235, 430, 430, 1266]),
        ("CKT-C", WorkloadSpec::ckt_c(), [7811, 6_116_320, 5262, 844, 846, 908]),
    ];
    let mut moved = Vec::new();
    for (label, spec, want) in golden {
        let s = inter_correlation_stats(&spec.generate());
        // `cells_for_90pct` is that count over `total_cells`: pin the
        // count itself.
        let cells_for_90pct = (s.cells_for_90pct * s.total_cells as f64).round() as usize;
        let got = [
            s.x_cells,
            s.total_x,
            cells_for_90pct,
            s.largest_identical_group,
            s.largest_count_class,
            s.largest_count_class_count,
        ];
        if got != want {
            moved.push(format!("{label}: want {want:?}, got {got:?}"));
        }
    }
    assert!(moved.is_empty(), "§3 profiles moved:\n{}", moved.join("\n"));
}

// Edge paths of the generator that the presets do not reach.

/// `spatial_clustering: 0.0`: the pool is sampled uniformly and then
/// shuffled.
fn scattered_pool() -> WorkloadSpec {
    WorkloadSpec {
        spatial_clustering: 0.0,
        seed: 0x5C,
        ..WorkloadSpec::ckt_b().scaled(20)
    }
}

/// The correlated groups use up the whole pool, so noise is spread over
/// the group cells themselves (`noise_start = 0`).
fn groups_fill_pool() -> WorkloadSpec {
    WorkloadSpec {
        x_cell_fraction: 0.01,
        x_density: 0.02,
        seed: 0xF1,
        ..WorkloadSpec::default()
    }
}

/// No correlated groups: every placed X is noise.
fn no_groups() -> WorkloadSpec {
    WorkloadSpec {
        num_groups: 0,
        seed: 0x06,
        ..WorkloadSpec::ckt_c().scaled(20)
    }
}

/// A pool of one cell and no groups: every noise X lands on the same
/// cell, through the smallest weighted-cell table (one weight).
fn one_cell_pool() -> WorkloadSpec {
    WorkloadSpec {
        num_groups: 0,
        correlated_fraction: 0.0,
        x_cell_fraction: 0.0,
        x_density: 0.0005,
        seed: 0x01,
        ..WorkloadSpec::default()
    }
}

/// A pool of two cells and no groups: the smallest table with a
/// cumulative weight strictly inside the pick range.
fn two_cell_pool() -> WorkloadSpec {
    WorkloadSpec {
        num_groups: 0,
        correlated_fraction: 0.0,
        x_cell_fraction: 0.002,
        x_density: 0.0005,
        seed: 0x02,
        ..WorkloadSpec::default()
    }
}
