//! Hybrid-architecture rules (XL03xx): MISR feedback and X-canceling
//! `(m, q)`. A finished plan's cover, mask safety and cost are judged by
//! `xhc-verify` (XL04xx).

use crate::diag::{LintCode, LintConfig, LintReport, Severity};
use crate::poly::taps_primitive;
use xhc_misr::Taps;

/// XL0304: degenerate or non-primitive MISR feedback.
pub fn check_misr_taps(config: &LintConfig, m: usize, taps: &Taps) -> LintReport {
    let mut report = LintReport::new();
    let idx = taps.indices();
    if let Some(&bad) = idx.iter().find(|&&t| t >= m) {
        // Structural defect — deny-by-base even though the rule's default
        // (tuned for the primitivity advisory) is warn.
        report.push_at(
            config,
            LintCode::DegenerateMisr,
            Severity::Deny,
            format!("MISR taps {idx:?}"),
            format!("tap {bad} is out of range for a {m}-bit MISR"),
            "taps must index state bits 0..m",
        );
        return report;
    }
    if !idx.contains(&(m - 1)) {
        report.push_at(
            config,
            LintCode::DegenerateMisr,
            Severity::Deny,
            format!("MISR taps {idx:?}"),
            format!(
                "highest state bit {} never feeds back: the register is \
                 singular and forgets its top bit every cycle",
                m - 1
            ),
            "include m-1 in the tap set (the x^m feedback term)",
        );
        return report;
    }
    if taps_primitive(m, idx) == Some(false) {
        report.push(
            config,
            LintCode::DegenerateMisr,
            format!("MISR taps {idx:?}"),
            format!("feedback polynomial of the {m}-bit MISR is not primitive"),
            "a primitive polynomial maximizes state mixing and error \
             coverage; pick taps realizing one",
        );
    }
    report
}

/// XL0305: X-canceling `(m, q)` sanity. Runs on raw integers so that
/// configurations [`xhc_misr::XCancelConfig::new`] would reject are also lintable.
pub fn check_cancel_params(config: &LintConfig, m: usize, q: usize) -> LintReport {
    let mut report = LintReport::new();
    let location = format!("X-cancel config (m={m}, q={q})");
    // `m < 2` leaves no q with 0 < q < m: one message names every
    // rejected (m, q).
    if q == 0 || q >= m {
        report.push(
            config,
            LintCode::BadCancelConfig,
            location,
            format!("q must satisfy 0 < q < m, got q={q}"),
            "q X-free combinations are extracted per halt; q >= m leaves \
             no X budget (blocks of m-q = 0 X's never close)",
        );
    } else if q * 2 > m {
        // Advisory — warn-by-base even though the rule's default (tuned
        // for the hard consistency violations above) is deny.
        report.push_at(
            config,
            LintCode::BadCancelConfig,
            Severity::Warn,
            location,
            format!("q={q} exceeds m/2: control bits m*q/(m-q) per X blow up"),
            "the paper's regime is q << m (32, 7); shrink q or grow m",
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(report: &LintReport) -> Vec<LintCode> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn primitive_taps_pass_and_defaults_warn() {
        let lc = LintConfig::default();
        // x^4 + x + 1 (primitive) realized as taps {2, 3}.
        assert!(check_misr_taps(&lc, 4, &Taps::new(vec![2, 3])).is_empty());
        // Taps::default_for documents that it is not primitivity-tuned.
        let report = check_misr_taps(&lc, 16, &Taps::default_for(16));
        assert_eq!(codes(&report), vec![LintCode::DegenerateMisr]);
        assert!(!report.has_deny(), "non-primitive is a warning");
    }

    #[test]
    fn missing_top_tap_fires() {
        let report = check_misr_taps(&LintConfig::default(), 8, &Taps::new(vec![2]));
        assert_eq!(codes(&report), vec![LintCode::DegenerateMisr]);
        assert!(report.render_human().contains("singular"));
    }

    #[test]
    fn out_of_range_tap_fires() {
        let report = check_misr_taps(&LintConfig::default(), 4, &Taps::new(vec![3, 9]));
        assert_eq!(codes(&report), vec![LintCode::DegenerateMisr]);
    }

    #[test]
    fn cancel_params_checked() {
        let lc = LintConfig::default();
        assert!(check_cancel_params(&lc, 32, 7).is_empty());
        assert!(check_cancel_params(&lc, 10, 10).has_deny());
        assert!(check_cancel_params(&lc, 10, 0).has_deny());
        assert!(check_cancel_params(&lc, 1, 0).has_deny());
        let report = check_cancel_params(&lc, 10, 7);
        assert_eq!(codes(&report), vec![LintCode::BadCancelConfig]);
        assert!(!report.has_deny(), "q > m/2 is a warning");
    }
}
