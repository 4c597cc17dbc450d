//! Golden digests of the generated workload maps.
//!
//! Table 1 is computed from these maps, so they must regenerate
//! bit-for-bit across builds, not only within one: the `xhc-prng` draw
//! order of `WorkloadSpec::generate` is part of the map contract. Each
//! row pins the content hash of the map's canonical wire encoding, with
//! its X-cell and X counts so a mismatch says which way it moved.

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
