//! **Ablation: baseline landscape.** Compares, on one workload, every
//! X-handling scheme the paper discusses: conventional X-masking \[5\],
//! X-canceling MISR only \[12\], a superset-X-canceling-style reuse
//! baseline \[17, 18\] (at several merge-slack settings, with its
//! observability cost made explicit), and the proposed hybrid.
//!
//! Run with: `cargo run --release -p xhc-bench --bin ablation_baselines`

use xhc_core::{superset_report, toggle_masking, BackendId, PlanOptions, TogglePolicy};
use xhc_misr::XCancelConfig;
use xhc_workload::WorkloadSpec;

fn main() {
    let spec = WorkloadSpec {
        name: "CKT-B (1/15 scale)",
        total_cells: 2405,
        num_chains: 5,
        num_patterns: 600,
        ..WorkloadSpec::ckt_b()
    };
    let xmap = spec.generate();
    let cancel = XCancelConfig::paper_default();
    let [masking, canceling, hybrid] = [
        BackendId::MaskingOnly,
        BackendId::CancelingOnly,
        BackendId::Hybrid,
    ]
    .map(|id| id.plan(&xmap, cancel, &PlanOptions::default()));

    println!(
        "workload {}: {} cells, {} patterns, {} X's ({:.2}%)",
        spec.name,
        spec.total_cells,
        spec.num_patterns,
        xmap.total_x(),
        100.0 * xmap.x_density()
    );
    println!(
        "{:<34} {:>14} {:>22}",
        "scheme", "control bits", "non-X values lost"
    );
    println!(
        "{:<34} {:>14.0} {:>22}",
        "X-masking only [5]", masking.control_bits, 0
    );
    println!(
        "{:<34} {:>14.0} {:>22}",
        "X-canceling MISR only [12]", canceling.control_bits, 0
    );
    for slack in [0.0, 0.25, 0.5, 1.0] {
        let sup = superset_report(&xmap, cancel, slack);
        println!(
            "{:<34} {:>14.0} {:>22}",
            format!("superset-style [17,18], slack {slack}"),
            sup.control_bits,
            sup.lost_observability
        );
    }
    for (label, policy) in [
        ("toggle masking [15,16], safe", TogglePolicy::Conservative),
        ("toggle masking [15,16], greedy", TogglePolicy::Aggressive),
    ] {
        let t = toggle_masking(&xmap, cancel, policy);
        println!(
            "{:<34} {:>14.0} {:>22}",
            label,
            t.total(),
            t.lost_observability
        );
    }
    println!(
        "{:<34} {:>14.0} {:>22}",
        "proposed hybrid (this paper)", hybrid.control_bits, 0
    );
    println!(
        "\nthe hybrid and the baselines [5]/[12] lose nothing; superset-style reuse trades \
         observability (and hence fault-simulation effort) for control bits."
    );
}
