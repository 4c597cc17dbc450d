//! Cross-artifact certificate rules (XL04xx): a decoded plan certificate
//! checked against its plan, X map and scan configuration.
//!
//! The heavy lifting is `xhc-verify`'s engine-independent checker; this
//! module is the dataflow glue that decodes the artifacts, runs the
//! checker once, and reports each typed [`VerifyError`] under the rule
//! its [`VerifyError::code`] names:
//!
//! | code | invariant |
//! |---|---|
//! | XL0401 | content-hash link between certificate and plan |
//! | XL0402 | cover/disjointness witness |
//! | XL0403 | per-partition X-class histograms |
//! | XL0404 | mask safety, control-bit accounting and cost totals |
//! | XL0405 | per-block Gauss rank certificates |
//! | XL0406 | plan and certificate shape vs the scan config / X map |

use crate::diag::{LintConfig, LintReport};
use xhc_core::PartitionOutcome;
use xhc_misr::XCancelConfig;
use xhc_scan::XMap;
use xhc_verify::{verify, PlanCertificate, VerifyError};
use xhc_wire::WireError;

/// Per-rule cap mirroring the other rule families: a corrupt certificate
/// can violate one invariant thousands of times (e.g. every pattern's
/// assignment), and ten witnesses tell the story.
const MAX_INSTANCES: usize = 10;

/// XL0401–XL0406: validates a plan certificate against its plan and X
/// map, reporting each violated invariant under its rule code (capped at
/// ten findings per code, with a summary line for the overflow).
pub fn check_certificate(
    config: &LintConfig,
    cert: &PlanCertificate,
    plan: &PartitionOutcome,
    plan_bytes: &[u8],
    xmap: &XMap,
    cancel: XCancelConfig,
) -> LintReport {
    let mut report = LintReport::new();
    let errors = verify(cert, plan, plan_bytes, xmap, cancel);
    let mut emitted = std::collections::BTreeMap::new();
    for e in &errors {
        let code = e.code();
        let count = emitted.entry(code).or_insert(0usize);
        *count += 1;
        if *count <= MAX_INSTANCES {
            // The checker rejects a mask wider than the topology before it
            // judges any of its cells, so `cell_at` cannot panic.
            let location = match e {
                VerifyError::MaskUnsafe { partition, cell } => {
                    format!(
                        "partition {partition}, cell {}",
                        xmap.config().cell_at(*cell)
                    )
                }
                _ => "plan certificate".to_string(),
            };
            report.push(config, code, location, e.to_string(), code.rule().summary);
        }
    }
    for (code, count) in emitted {
        if count > MAX_INSTANCES {
            report.push(
                config,
                code,
                "plan certificate",
                format!(
                    "... and {} more violation(s) of this invariant",
                    count - MAX_INSTANCES
                ),
                code.rule().summary,
            );
        }
    }
    report
}

/// The wire-level entry point: decodes the three artifacts (certificate,
/// plan, X map), then runs [`check_certificate`] with the cancel
/// configuration the certificate itself claims — the one dataflow pass
/// `xhc-serve` and the CLI share.
///
/// # Errors
///
/// Returns the [`WireError`] of the first artifact that fails to decode
/// (a malformed artifact is a transport problem, not a lint finding).
pub fn check_certificate_artifacts(
    config: &LintConfig,
    cert_bytes: &[u8],
    plan_bytes: &[u8],
    xmap_bytes: &[u8],
) -> Result<LintReport, WireError> {
    let cert = xhc_wire::decode_certificate(cert_bytes)?;
    let (plan, _) = xhc_wire::decode_plan(plan_bytes)?;
    let xmap = xhc_wire::decode_xmap(xmap_bytes)?;
    // The decoder guarantees 0 < q < m, so this cannot panic.
    let cancel = XCancelConfig::new(cert.m, cert.q);
    Ok(check_certificate(
        config, &cert, &plan, plan_bytes, &xmap, cancel,
    ))
}
