//! Quickstart: the paper's worked example (Figs. 4–6) end to end.
//!
//! Builds the 8-pattern, 5-chain × 3-cell X map of Fig. 4, runs the
//! pattern-partitioning engine, and prints the partitions, the shared mask
//! words and the control-bit accounting — reproducing every number in the
//! paper's §4.
//!
//! Run with: `cargo run --example quickstart`

#![deny(deprecated)]

use xhybrid::core::{BackendId, BackendReport, PlanOptions};
use xhybrid::misr::XCancelConfig;
use xhybrid::scan::{CellId, ScanConfig, XMap, XMapBuilder};

fn fig4_xmap() -> XMap {
    let cfg = ScanConfig::uniform(5, 3);
    let mut b = XMapBuilder::new(cfg, 8);
    // Three inter-correlated cells with 4 X's under the same patterns.
    for p in [0, 3, 4, 5] {
        b.add_x(CellId::new(0, 0), p).unwrap();
        b.add_x(CellId::new(1, 0), p).unwrap();
        b.add_x(CellId::new(2, 0), p).unwrap();
    }
    for p in [0, 4] {
        b.add_x(CellId::new(1, 2), p).unwrap();
    }
    for p in [0, 1, 2, 3, 4, 6, 7] {
        b.add_x(CellId::new(3, 2), p).unwrap();
    }
    for p in [0, 1, 3, 4, 6, 7] {
        b.add_x(CellId::new(4, 1), p).unwrap();
    }
    b.add_x(CellId::new(4, 2), 5).unwrap();
    b.finish()
}

fn plan(id: BackendId, xmap: &XMap, cancel: XCancelConfig) -> BackendReport {
    id.plan(xmap, cancel, &PlanOptions::default())
}

fn main() {
    let xmap = fig4_xmap();
    println!("== Fig. 4: X-value correlation analysis input ==");
    println!(
        "{} scan cells ({} chains x {} cells), {} patterns, {} X's ({:.1}% density)",
        xmap.config().total_cells(),
        xmap.config().num_chains(),
        xmap.config().max_chain_len(),
        xmap.num_patterns(),
        xmap.total_x(),
        100.0 * xmap.x_density()
    );
    for (cell, xs) in xmap.iter() {
        let pats: Vec<String> = xs.iter().map(|p| format!("P{}", p + 1)).collect();
        println!("  {cell}: {} X's under {}", xs.card(), pats.join(", "));
    }

    println!("\n== Figs. 5-6: partitioning with an (m=10, q=2) X-canceling MISR ==");
    let cancel = XCancelConfig::new(10, 2);
    let hybrid = plan(BackendId::Hybrid, &xmap, cancel);
    let outcome = hybrid
        .outcome
        .as_ref()
        .expect("the hybrid carries its plan");
    println!(
        "initial (1 partition): {:.1} control bits",
        outcome.initial_cost.total()
    );
    for r in &outcome.rounds {
        println!(
            "round {}: split on cell #{} (class: {} cells with {} X's) -> {:.1} bits",
            r.round,
            r.pivot_cell,
            r.class_size,
            r.class_count,
            r.cost_after.total()
        );
    }
    for (i, (part, mask)) in outcome.partitions.iter().zip(&outcome.masks).enumerate() {
        let pats: Vec<String> = part.iter().map(|p| format!("P{}", p + 1)).collect();
        println!(
            "partition {}: {{{}}} masks {} cell(s)",
            i + 1,
            pats.join(", "),
            mask.count()
        );
    }
    println!(
        "masked {} / {} X's; {} leak into the X-canceling MISR",
        hybrid.masked_x,
        xmap.total_x(),
        hybrid.leaked_x
    );

    println!("\n== Control-bit comparison (the paper's accounting) ==");
    let masking = plan(BackendId::MaskingOnly, &xmap, cancel);
    let canceling = plan(BackendId::CancelingOnly, &xmap, cancel);
    println!(
        "X-masking only [5]     : {:>6} bits (L*C*P = 3*5*8)",
        masking.control_bits
    );
    println!(
        "X-canceling only [12]  : {:>6.1} bits (m*q*X/(m-q))",
        canceling.control_bits
    );
    println!(
        "proposed hybrid        : {:>6.1} bits -> {} (rounded up, as the paper reports)",
        hybrid.control_bits,
        outcome.cost.total_ceil()
    );
    println!(
        "improvement            : {:.2}x over [5], {:.2}x over [12]",
        masking.control_bits / hybrid.control_bits,
        canceling.control_bits / hybrid.control_bits
    );
    let time_canceling_only = canceling.normalized_test_time(&xmap, cancel);
    let time_proposed = hybrid.normalized_test_time(&xmap, cancel);
    println!(
        "normalized test time   : {:.3} (canceling only) -> {:.3} (hybrid), {:.2}x better",
        time_canceling_only,
        time_proposed,
        time_canceling_only / time_proposed
    );

    // The paper's alternate configuration: m=10, q=1 stops after round 1.
    println!("\n== Same example with (m=10, q=1): the cost function stops earlier ==");
    let q1 = plan(BackendId::Hybrid, &xmap, XCancelConfig::new(10, 1))
        .outcome
        .expect("the hybrid carries its plan");
    println!(
        "{} partitions, {} total bits (paper: 2 partitions, 44 bits)",
        q1.partitions.len(),
        q1.cost.total_ceil()
    );
}
