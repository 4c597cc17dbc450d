//! Scan-chain infrastructure: topology, pattern application and captured
//! responses.
//!
//! This crate connects gate-level circuits (`xhc-logic`) to the X-handling
//! compactor architectures (`xhc-misr`, `xhc-core`). It provides:
//!
//! * [`ScanConfig`] / [`CellId`] — chain topology, chain-major linear cell
//!   indexing, the paper's `L` (longest chain length) and `C` (chain
//!   count);
//! * [`ScanHarness`] / [`TestPattern`] — load–capture application of scan
//!   patterns to a netlist, with unmapped (shadow) flops re-entering every
//!   pattern uninitialized;
//! * [`ResponseMatrix`] — dense captured responses;
//! * [`XMap`] / [`XMapBuilder`] — the sparse X-location map that all of the
//!   paper's control-bit and test-time accounting operates on;
//! * [`AteConfig`] — tester channel/cycle accounting;
//! * [`samples`] — the paper's Fig. 4 X map.
//!
//! # Examples
//!
//! ```
//! use xhc_scan::{ScanConfig, XMapBuilder, CellId};
//!
//! // Record the paper's Fig. 4 cell with 7 X's.
//! let cfg = ScanConfig::uniform(5, 3);
//! let mut b = XMapBuilder::new(cfg, 8);
//! for p in [0, 1, 2, 3, 4, 6, 7] {
//!     b.add_x(CellId::new(3, 2), p).unwrap();
//! }
//! let xmap = b.finish();
//! assert_eq!(xmap.x_count(CellId::new(3, 2)), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ate;
mod config;
mod error;
mod harness;
mod io;
mod response;
mod rule;
pub mod samples;
mod stream;
mod xmap;

pub use ate::AteConfig;
pub use config::{CellId, ScanConfig};
pub use error::ScanError;
pub use harness::{HarnessError, ScanHarness, TestPattern};
pub use io::{read_xmap, write_xmap, ReadXMapError};
pub use response::ResponseMatrix;
pub use rule::{LintCode, Rule, Severity, RULES};
pub use stream::{unload_cell, unload_stream};
pub use xmap::{XMap, XMapBuilder};
