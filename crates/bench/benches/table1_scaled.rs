//! Bench: the full Table-1 evaluation pipeline (workload generation +
//! planning the hybrid and both baselines) on 1/15-scale CKT profiles.
//! The `table1` binary prints the actual table; this measures its cost.

use xhc_bench::timing::{black_box, Harness};
use xhc_core::{BackendId, PlanOptions};
use xhc_misr::XCancelConfig;
use xhc_workload::WorkloadSpec;

fn scaled(mut spec: WorkloadSpec) -> WorkloadSpec {
    spec.total_cells /= 15;
    spec.num_chains = (spec.num_chains / 15).max(4);
    spec.num_patterns /= 15;
    spec
}

fn main() {
    let mut h = Harness::from_args("table1");

    for spec in [
        scaled(WorkloadSpec::ckt_a()),
        scaled(WorkloadSpec::ckt_b()),
        scaled(WorkloadSpec::ckt_c()),
    ] {
        let xmap = spec.generate();
        h.bench(&format!("table1_row/{}", spec.name), || {
            let cancel = XCancelConfig::paper_default();
            [
                BackendId::MaskingOnly,
                BackendId::CancelingOnly,
                BackendId::Hybrid,
            ]
            .map(|id| black_box(id.plan(black_box(&xmap), cancel, &PlanOptions::default())))
        });
    }

    let spec = scaled(WorkloadSpec::ckt_b());
    h.bench(&format!("workload_generation/{}", spec.name), || {
        black_box(spec.generate())
    });
}
