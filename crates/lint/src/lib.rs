//! `xhc-lint`: a design-rule static analyzer for the X-masking /
//! X-canceling hybrid pipeline.
//!
//! The crate checks the artifacts the workspace produces and consumes —
//! netlists, scan topologies, X maps, partition plans, mask words, cost
//! accounting, MISR configurations and plan certificates — against
//! fourteen rules grouped by pipeline stage:
//!
//! | Codes | Stage | Rules |
//! |-------|-------|-------|
//! | `XL01xx` | netlist | driverless buses, dead logic, unreachable flops |
//! | `XL02xx` | scan / X map | chain imbalance, out-of-range X entries, duplicate X entries |
//! | `XL03xx` | hybrid | MISR feedback (XL0304), `(m, q)` sanity (XL0305) |
//! | `XL04xx` | certificate | plan-hash link, cover witness, X-class histograms, control-bit accounting and mask safety, Gauss rank bounds, plan and scan-config shape (cross-artifact, via `xhc-verify`) |
//!
//! A partition plan has one judge: [`check_outcome`] certifies it and
//! runs `xhc-verify`'s engine-independent checker, so a bad cover is
//! reported as XL0402, an unsafe mask or wrong cost as XL0404, and a
//! mis-shaped plan as XL0406.
//!
//! Each rule is one row of [`RULES`]: its id, slug, default
//! [`Severity`] (`Deny` for correctness violations, `Warn` for quality
//! findings) and one-line summary. A check names its findings by their
//! [`LintCode`] where it finds them: these rule functions, the checker's
//! `VerifyError::code()`, and the decoders' `WireError::code()` and
//! `ReadXMapError::code()`. A [`LintConfig`] can override a severity per
//! rule. Findings accumulate in a [`LintReport`] with
//! `rustc`-style human and line-oriented JSON renderers.
//!
//! A netlist has one judge of its structure too:
//! `xhc_logic::NetlistBuilder::finish`, the only way to make a
//! `Netlist`, rejects combinational loops, bad gate arity, unconnected
//! flop D pins and dangling references. [`check_netlist`] runs on a
//! built netlist and finds only what one can still hold: driverless
//! buses (XL0102), dead logic (XL0103) and unobservable flops (XL0105).
//! Likewise [`check_xmap`] runs only the scan-config rule (XL0201): a
//! built `XMap` cannot hold an out-of-range or duplicate X
//! (XL0202/XL0203), whose decoder rejections name those rules. Raw X
//! entry lists go through [`check_xmap_facts`], on the plain-data
//! [`XMapFacts`] view the decoders' tests use as their reference.
//!
//! The `xhc-lint` binary lints the repo's bundled workload presets end to
//! end and exits nonzero iff any `Deny` finding fires.
//!
//! # Examples
//!
//! ```
//! use xhc_lint::{check_cancel_params, LintConfig};
//!
//! let config = LintConfig::default();
//! assert!(check_cancel_params(&config, 32, 7).is_empty());
//! assert!(check_cancel_params(&config, 8, 8).has_deny()); // q >= m
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cert_rules;
mod diag;
mod hybrid_rules;
mod netlist_rules;
mod poly;
mod scan_rules;

pub use cert_rules::{check_certificate, check_certificate_artifacts};
pub use diag::{Diagnostic, LintCode, LintConfig, LintReport, Rule, Severity, RULES};
pub use hybrid_rules::{check_cancel_params, check_misr_taps};
pub use netlist_rules::check_netlist;
pub use poly::taps_primitive;
pub use scan_rules::{check_scan_config, check_xmap, check_xmap_facts, XMapFacts};

use xhc_core::{PartitionEngine, PartitionOutcome};
use xhc_misr::{Taps, XCancelConfig};
use xhc_scan::XMap;
use xhc_workload::WorkloadSpec;

/// Lints a freshly made partition plan: encodes it, certifies it with
/// [`xhc_verify::certify_plan`] and runs [`check_certificate`] on the
/// result (cover XL0402, accounting and mask safety XL0404, shape
/// XL0406).
///
/// # Panics
///
/// Panics where [`xhc_verify::certify_plan`] does: if the partitions are
/// not a disjoint cover of the map's patterns, or if the mask words do
/// not fit the partitions and the scan topology. To judge a plan made
/// elsewhere, lint its own certificate with [`check_certificate`].
pub fn check_outcome(
    config: &LintConfig,
    xmap: &XMap,
    outcome: &PartitionOutcome,
    cancel: XCancelConfig,
) -> LintReport {
    let plan_bytes = xhc_wire::encode_plan(outcome, xmap.num_patterns());
    let cert = xhc_verify::certify_plan(xmap, cancel, outcome, &plan_bytes, None);
    check_certificate(config, &cert, outcome, &plan_bytes, xmap, cancel)
}

/// Lints a workload end to end: generates its X map, checks the scan
/// topology, runs the [`PartitionEngine`], and checks the resulting plan
/// plus the MISR/cancel configuration.
pub fn lint_workload(
    config: &LintConfig,
    spec: &WorkloadSpec,
    cancel: XCancelConfig,
    taps: &Taps,
) -> LintReport {
    let xmap = spec.generate();
    let mut report = check_xmap(config, &xmap);
    report.merge(check_cancel_params(config, cancel.m(), cancel.q()));
    report.merge(check_misr_taps(config, cancel.m(), taps));
    let outcome = PartitionEngine::new(cancel).run(&xmap);
    report.merge(check_outcome(config, &xmap, &outcome, cancel));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_workload_lints_clean_modulo_default_taps() {
        let spec = WorkloadSpec {
            total_cells: 200,
            num_chains: 4,
            num_patterns: 40,
            ..WorkloadSpec::default()
        };
        let cancel = XCancelConfig::new(10, 2);
        let report = lint_workload(
            &LintConfig::default(),
            &spec,
            cancel,
            &Taps::default_for(10),
        );
        // Taps::default_for is documented as not primitivity-tuned, so the
        // only acceptable finding is the XL0304 warning.
        assert!(!report.has_deny(), "{}", report.render_human());
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.code == LintCode::DegenerateMisr));
    }
}
