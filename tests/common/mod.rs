//! Helpers shared by the integration tests.

use xhybrid::core::PartitionOutcome;
use xhybrid::misr::XCancelConfig;
use xhybrid::scan::XMap;

/// Certifies `outcome` against `xmap` and checks the certificate with
/// `xhc-verify`, the checker that shares no code with the engine: the
/// partitions must be a disjoint cover, every masked cell X under its
/// whole partition, and the cost `L·C·|π| + m·q·leakedX/(m−q)`.
///
/// # Panics
///
/// Panics with the first violated invariant.
pub fn certified(xmap: &XMap, cancel: XCancelConfig, outcome: &PartitionOutcome) {
    let plan_bytes = xhybrid::wire::encode_plan(outcome, xmap.num_patterns());
    let cert = xhybrid::verify::certify_plan(xmap, cancel, outcome, &plan_bytes, None);
    if let Err(e) = xhybrid::verify::check(&cert, outcome, &plan_bytes, xmap, cancel) {
        panic!("the plan fails its certificate: {e}");
    }
}
