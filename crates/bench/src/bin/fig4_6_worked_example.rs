//! Regenerates the paper's **Figs. 4–6** worked example: the X-value
//! correlation analysis, the two partitioning rounds, the per-partition
//! control-bit generation, and the cost-function traces for both MISR
//! configurations (m=10, q=2) and (m=10, q=1).
//!
//! Run with: `cargo run --release -p xhc-bench --bin fig4_6_worked_example`

use xhc_bits::PatternSet;
use xhc_core::{CorrelationAnalysis, PartitionEngine};
use xhc_misr::XCancelConfig;
use xhc_scan::samples::fig4_xmap;

fn main() {
    let xmap = fig4_xmap();

    println!("== Fig. 4: X-value correlation analysis ==");
    let analysis = CorrelationAnalysis::analyze(&xmap, &PatternSet::all(8));
    for (count, cells) in analysis.classes() {
        println!(
            "  {} scan cell(s) capture {} X's: {:?}",
            cells.len(),
            count,
            cells
        );
    }
    println!("  total X's: {}", analysis.total_x());

    for (m, q, label) in [
        (10, 2, "Fig. 5/6 main configuration"),
        (10, 1, "Fig. 6 alternate"),
    ] {
        println!("\n== {label}: m={m}, q={q} ==");
        let outcome = PartitionEngine::new(XCancelConfig::new(m, q)).run(&xmap);
        println!(
            "  round 0: 1 partition, {:.1} bits",
            outcome.initial_cost.total()
        );
        for r in &outcome.rounds {
            println!(
                "  round {}: split partition {} on cell {} -> {} partitions, {:.1} bits ({} masked / {} leaked)",
                r.round,
                r.split_partition,
                r.pivot_cell,
                r.cost_after.num_partitions,
                r.cost_after.total(),
                r.cost_after.masked_x,
                r.cost_after.leaked_x,
            );
        }
        for (i, (part, mask)) in outcome.partitions.iter().zip(&outcome.masks).enumerate() {
            let pats: Vec<String> = part.iter().map(|p| format!("P{}", p + 1)).collect();
            println!(
                "  partition {}: {{{}}} -> mask {} cell(s)",
                i + 1,
                pats.join(","),
                mask.count()
            );
        }
        println!(
            "  final: {} control bits (ceil {}), masking-only would be {}",
            outcome.cost.total(),
            outcome.cost.total_ceil(),
            xmap.config().mask_word_bits() * xmap.num_patterns(),
        );
    }
    println!("\nPaper reference: (10,2) -> partitions {{P2,P3,P7,P8}},{{P1,P4,P5}},{{P6}}, 23/28 masked, 57.5->58 bits;");
    println!("                 (10,1) -> stops after round 1 at 43.3->44 bits.");
}
