//! The paper's contribution: reducing control-bit overhead for the hybrid
//! X-masking / X-canceling MISR architecture via test-pattern partitioning
//! (Kang, Touba, Yang — DAC 2016).
//!
//! Pipeline:
//!
//! 1. [`CorrelationAnalysis`] — per-cell X counts within a pattern subset,
//!    grouped into count classes (§3's inter-correlation analysis);
//! 2. [`PartitionEngine`] — iterative binary partitioning of the pattern
//!    set on inter-correlated pivot cells, gated by the control-bit cost
//!    function (§4, Algorithm 1);
//! 3. [`hybrid_cost`] — the §4 total-control-bit formula
//!    `L·C·#partitions + m·q·leakedX/(m−q)`;
//! 4. [`backend`] — [`BackendId::plan`], one planning call over the
//!    hybrid, both Table-1 baselines (X-masking-only \[5\] and
//!    X-canceling-only \[12\]), a superset-X-canceling comparison point
//!    (\[17, 18\]) and a weight-3 X-code compactor, each returning a
//!    uniform [`BackendReport`]. A Table-1 row is three reports — masking,
//!    canceling, hybrid — compared on control bits and on
//!    [`BackendReport::normalized_test_time`];
//! 5. [`apply_partition_masks`] — operational gating of real captured
//!    responses, feeding `xhc-misr`'s [`CancelSession`] for end-to-end
//!    validation.
//!
//! The central invariant, enforced by construction and property-tested: a
//! cell is masked in a partition **only if it captures X under every
//! pattern of that partition**, so no observable response bit is ever
//! lost and fault coverage is preserved without fault simulation.
//!
//! # Examples
//!
//! ```
//! use xhc_core::{BackendId, PlanOptions};
//! use xhc_misr::XCancelConfig;
//! use xhc_scan::{CellId, ScanConfig, XMapBuilder};
//!
//! // A tiny workload: one inter-correlated cell group.
//! let cfg = ScanConfig::uniform(4, 4);
//! let mut b = XMapBuilder::new(cfg, 16);
//! for p in [0, 2, 4, 6, 8, 10] {
//!     b.add_x(CellId::new(0, 0), p).unwrap();
//!     b.add_x(CellId::new(1, 1), p).unwrap();
//! }
//! let xmap = b.finish();
//!
//! let plan = |id: BackendId| id.plan(&xmap, XCancelConfig::new(8, 2), &PlanOptions::default());
//! let (hybrid, masking) = (plan(BackendId::Hybrid), plan(BackendId::MaskingOnly));
//! // The correlated X's are fully masked by two shared mask words.
//! assert_eq!(hybrid.leaked_x, 0);
//! assert!(masking.control_bits / hybrid.control_bits > 1.0);
//! ```
//!
//! [`CancelSession`]: xhc_misr::CancelSession

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod correlation;
mod cost;
mod hybrid;
mod partition;
mod schedule;
mod toggle;

pub use backend::{superset_report, BackendCaps, BackendId, BackendReport};
pub use correlation::{
    inter_correlation_stats, intra_correlation_stats, CorrelationAnalysis, InterCorrelationStats,
    IntraCorrelationStats,
};
pub use cost::{hybrid_cost, HybridCost};
pub use hybrid::apply_partition_masks;
pub use partition::{
    CellSelection, PartitionEngine, PartitionOutcome, PlanOptions, RoundRecord, SplitStrategy,
};
pub use schedule::{mask_switches, pattern_order, schedule_hybrid, ScheduleOptions, TestSchedule};
pub use toggle::{toggle_masking, ToggleMaskReport, TogglePolicy};
