//! Synthetic industrial workloads with controlled X statistics.
//!
//! The paper's industrial circuits (CKT-A/B/C) are proprietary; this crate
//! substitutes statistically equivalent X profiles (see `DESIGN.md`):
//! identical cell counts, pattern counts and X-densities, and the §3
//! inter-correlation structure (groups of cells sharing identical X
//! pattern sets, X's concentrated in a small cell pool).
//!
//! * [`WorkloadSpec`] — declarative profile with [`WorkloadSpec::ckt_a`],
//!   [`WorkloadSpec::ckt_b`], [`WorkloadSpec::ckt_c`] presets;
//! * [`materialize_responses`] — expands a (small) X map into concrete
//!   0/1/X responses for operational end-to-end runs.
//!
//! # Examples
//!
//! ```
//! use xhc_workload::WorkloadSpec;
//!
//! let xmap = WorkloadSpec {
//!     total_cells: 300,
//!     num_chains: 3,
//!     num_patterns: 50,
//!     x_density: 0.02,
//!     ..WorkloadSpec::default()
//! }
//! .generate();
//! assert!(xmap.total_x() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod responses;
mod spec;

pub use responses::materialize_responses;
pub use spec::{WorkloadSpec, MAX_SPEC_WORDS};
