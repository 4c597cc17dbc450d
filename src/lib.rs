//! # xhybrid
//!
//! A from-scratch reproduction of *"Reducing Control Bit Overhead for
//! X-Masking/X-Canceling Hybrid Architecture via Pattern Partitioning"*
//! (Kang, Touba, Yang — DAC 2016), together with every substrate the paper
//! depends on: three-valued gate-level simulation, scan infrastructure,
//! stuck-at fault simulation, PODEM ATPG, MISR compaction with symbolic
//! X-canceling, and synthetic industrial workloads.
//!
//! This crate is a facade: it re-exports the workspace's subsystem crates
//! under stable module names.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`bits`] | `xhc-bits` | bit vectors, pattern sets, GF(2) Gaussian elimination |
//! | [`logic`] | `xhc-logic` | netlists, 0/1/X simulation, X sources, circuit generation |
//! | [`scan`] | `xhc-scan` | scan chains, capture harness, sparse X maps, ATE model |
//! | [`fault`] | `xhc-fault` | stuck-at faults, fault simulation, coverage |
//! | [`atpg`] | `xhc-atpg` | PODEM + random-pattern test generation |
//! | [`misr`] | `xhc-misr` | MISR, symbolic simulation, X-masking, X-canceling |
//! | [`core`] | `xhc-core` | **the paper's contribution**: correlation analysis, pattern partitioning, hybrid cost model, baselines |
//! | [`workload`] | `xhc-workload` | synthetic CKT-A/B/C industrial X profiles |
//! | [`par`] | `xhc-par` | scoped-thread work pool (deterministic `par_map_threads`, one fan-out floor) |
//! | [`trace`] | `xhc-trace` | zero-dependency structured tracing: spans, counters, chrome://tracing export |
//! | [`wire`] | `xhc-wire` | versioned binary wire format + content addressing for artifacts |
//! | [`verify`] | `xhc-verify` | plan certificates + engine-independent static checker |
//! | [`serve`] | `xhc-serve` | HTTP planning daemon with a content-addressed plan cache |
//!
//! The [`prelude`] re-exports the handful of types nearly every user
//! touches, so the common pipeline is one import.
//!
//! # Quickstart
//!
//! Reproduce the paper's Fig. 5/6 worked example:
//!
//! ```
//! use xhybrid::prelude::*;
//!
//! // The Fig. 4 X map: 8 patterns, 5 chains x 3 cells, 28 X's.
//! let cfg = ScanConfig::uniform(5, 3);
//! let mut b = XMapBuilder::new(cfg, 8);
//! for p in [0, 3, 4, 5] {
//!     b.add_x(CellId::new(0, 0), p).unwrap();
//!     b.add_x(CellId::new(1, 0), p).unwrap();
//!     b.add_x(CellId::new(2, 0), p).unwrap();
//! }
//! for p in [0, 4] { b.add_x(CellId::new(1, 2), p).unwrap(); }
//! for p in [0, 1, 2, 3, 4, 6, 7] { b.add_x(CellId::new(3, 2), p).unwrap(); }
//! for p in [0, 1, 3, 4, 6, 7] { b.add_x(CellId::new(4, 1), p).unwrap(); }
//! b.add_x(CellId::new(4, 2), 5).unwrap();
//! let xmap = b.finish();
//!
//! let plan = |id: BackendId| id.plan(&xmap, XCancelConfig::new(10, 2), &PlanOptions::default());
//! let hybrid = plan(BackendId::Hybrid);
//! let outcome = hybrid.outcome.as_ref().expect("the hybrid carries its plan");
//! assert_eq!(outcome.partitions.len(), 3);       // Fig. 5's final state
//! assert_eq!(hybrid.masked_x, 23);               // 23 of 28 X's masked
//! assert_eq!(outcome.cost.total_ceil(), 58);     // 57.5 -> 58 bits
//! assert_eq!(plan(BackendId::MaskingOnly).control_bits, 120.0); // conventional masking
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use xhc_atpg as atpg;
pub use xhc_bits as bits;
pub use xhc_core as core;
pub use xhc_fault as fault;
pub use xhc_logic as logic;
pub use xhc_misr as misr;
pub use xhc_par as par;
pub use xhc_scan as scan;
pub use xhc_serve as serve;
pub use xhc_trace as trace;
pub use xhc_verify as verify;
pub use xhc_wire as wire;
pub use xhc_workload as workload;

pub mod prelude {
    //! The one-line import for the common pipeline: build (or generate)
    //! an X map, configure the canceler, run the partition engine.
    //!
    //! ```
    //! use xhybrid::prelude::*;
    //!
    //! let xmap = WorkloadSpec::default().generate();
    //! let outcome = PartitionEngine::with_options(
    //!     XCancelConfig::new(32, 7),
    //!     PlanOptions::default(),
    //! )
    //! .run(&xmap);
    //! assert!(!outcome.partitions.is_empty());
    //! ```
    pub use xhc_core::{
        BackendCaps, BackendId, BackendReport, CellSelection, HybridCost, PartitionEngine,
        PartitionOutcome, PlanOptions, SplitStrategy,
    };
    pub use xhc_misr::XCancelConfig;
    pub use xhc_scan::{CellId, ScanConfig, ScanError, XMap, XMapBuilder};
    pub use xhc_workload::WorkloadSpec;
}
