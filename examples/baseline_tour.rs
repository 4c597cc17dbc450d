//! A guided tour of every X-handling scheme in the paper's design space,
//! evaluated on one workload: what each costs, what each sacrifices, and
//! where the proposed hybrid sits.
//!
//! Run with: `cargo run --release --example baseline_tour`

#![deny(deprecated)]

use xhybrid::core::{toggle_masking, BackendId, PlanOptions, SplitStrategy, TogglePolicy};
use xhybrid::misr::{shadow_cancel_report, XCancelConfig};
use xhybrid::workload::WorkloadSpec;

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
    println!(
        "workload: {} — {} cells, {} patterns, {} X's ({:.2}%)\n",
        spec.name,
        spec.total_cells,
        spec.num_patterns,
        xmap.total_x(),
        100.0 * xmap.x_density()
    );
    println!(
        "{:<44} {:>12} {:>10} {:>12}",
        "scheme", "ctrl bits", "time", "sacrifice"
    );
    let plan = |id: BackendId, opts| id.plan(&xmap, cancel, &opts);
    let row = |name: &str, bits: f64, time: String, sacrifice: String| {
        println!("{name:<44} {bits:>12.0} {time:>10} {sacrifice:>12}");
    };

    // [5] conventional per-pattern masking: cheap time, huge data.
    row(
        "X-masking only [5]",
        plan(BackendId::MaskingOnly, PlanOptions::default()).control_bits,
        "1.000".into(),
        "-".into(),
    );

    // [12] X-canceling MISR only.
    let canceling = plan(BackendId::CancelingOnly, PlanOptions::default());
    row(
        "X-canceling MISR only [12]",
        canceling.control_bits,
        format!("{:.3}", canceling.normalized_test_time(&xmap, cancel)),
        "-".into(),
    );

    // [11] shadow-register variant: no time cost, needs extra channels.
    let shadow = shadow_cancel_report(xmap.config(), xmap.num_patterns(), xmap.total_x(), cancel);
    row(
        "shadow-register X-canceling [11]",
        shadow.control_bits,
        "1.000".into(),
        format!("+{}ch", shadow.extra_channels),
    );

    // [17,18] superset-style reuse.
    let sup = plan(BackendId::Superset, PlanOptions::default());
    row(
        "superset-style X-canceling [17,18]",
        sup.control_bits,
        "~".into(),
        format!("{} obs", sup.lost_observability),
    );

    // [15,16] toggle masking.
    for (name, policy) in [
        (
            "toggle masking [15,16], no-loss",
            TogglePolicy::Conservative,
        ),
        ("toggle masking [15,16], greedy", TogglePolicy::Aggressive),
    ] {
        let t = toggle_masking(&xmap, cancel, policy);
        row(
            name,
            t.total(),
            "~".into(),
            if t.lost_observability == 0 {
                "-".into()
            } else {
                format!("{} obs", t.lost_observability)
            },
        );
    }

    // The paper's hybrid, both split strategies.
    let hybrid = plan(BackendId::Hybrid, PlanOptions::default());
    row(
        "proposed hybrid (paper, LargestClass)",
        hybrid.control_bits,
        format!("{:.3}", hybrid.normalized_test_time(&xmap, cancel)),
        "-".into(),
    );
    let best = plan(
        BackendId::Hybrid,
        PlanOptions {
            strategy: SplitStrategy::BestCost,
            ..PlanOptions::default()
        },
    );
    row(
        "proposed hybrid + BestCost extension",
        best.control_bits,
        "~".into(),
        "-".into(),
    );

    println!("\nthe schemes marked '-' under sacrifice preserve every observable value and");
    println!("need no fault-simulation loops; 'N obs' = non-X response bits given up;");
    println!("'+Nch' = extra tester channels (the paper's reason to exclude [11]).");
}
