//! The workspace's finding codes: one row per `XLxxxx` rule.
//!
//! Every check that can find a design-rule defect names it by a
//! [`LintCode`]: the `xhc-lint` rules, `xhc-verify`'s certificate
//! checker, and the wire and text decoders that reject an X map or an
//! `(m, q)` outright. The codes live here, in the lowest crate that finds
//! one (the text X-map reader), so each of those crates declares its
//! findings' codes where it finds them. Each rule is one line of the
//! `rules!` table below: its variant, id, slug, default severity and
//! one-line summary (the `xhc-lint --list` row).

use std::fmt;

/// How seriously a finding is treated.
///
/// `Deny` findings fail the CLI (nonzero exit); `Warn` findings are
/// reported but non-fatal; `Allow` suppresses the rule entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suppressed: the rule still runs but its findings are dropped.
    Allow,
    /// Reported, never fatal.
    Warn,
    /// Reported and fatal.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// One rule's row in [`RULES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// The rule.
    pub code: LintCode,
    /// The stable `XLxxxx` identifier.
    pub id: &'static str,
    /// The human-facing slug (used for CLI severity overrides).
    pub slug: &'static str,
    /// The severity the rule carries unless overridden.
    pub severity: Severity,
    /// What the rule finds, in one line.
    pub summary: &'static str,
}

/// Declares each [`LintCode`] variant and its row in [`RULES`] from one
/// line, in one order, so a code's row sits at the index of its variant.
macro_rules! rules {
    ($($code:ident: $id:literal, $slug:literal, $severity:ident, $summary:literal;)*) => {
        /// Every rule the workspace checks, with a stable `XLxxxx`
        /// identifier.
        ///
        /// The numbering is grouped by pipeline stage: `XL01xx` netlist,
        /// `XL02xx` scan / X-map, `XL03xx` hybrid configuration (MISR,
        /// `(m, q)`), `XL04xx` plan certificate. Retired identifiers
        /// (`XL0101`, `XL0104`, `XL0301`–`XL0303`, `XL0306`, `XL0501`)
        /// are never reused.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum LintCode {
            $(#[doc = concat!($id, " `", $slug, "`: ", $summary, ".")] $code,)*
        }

        /// Every rule, in code order.
        pub const RULES: &[Rule] = &[$(Rule {
            code: LintCode::$code,
            id: $id,
            slug: $slug,
            severity: Severity::$severity,
            summary: $summary,
        },)*];
    };
}

rules! {
    FloatingNet: "XL0102", "floating-net", Deny, "bus with no tri-state driver";
    DeadLogic: "XL0103", "dead-logic", Warn, "combinational logic no output observes";
    UnreachableFlop: "XL0105", "unreachable-flop", Warn, "flop no primary output observes";
    ChainImbalance: "XL0201", "chain-imbalance", Warn, "ragged scan chains waste mask-word bits";
    XOutOfRange: "XL0202", "x-out-of-range", Deny, "X entry references no cell/pattern";
    DuplicateX: "XL0203", "duplicate-x", Warn, "duplicate X entries";
    DegenerateMisr: "XL0304", "degenerate-misr", Warn, "degenerate / non-primitive MISR feedback";
    BadCancelConfig: "XL0305", "bad-cancel-config", Deny, "inconsistent X-canceling (m, q)";
    CertPlanHash: "XL0401", "cert-plan-hash", Deny, "certificate not linked to this plan";
    CertCover: "XL0402", "cert-cover", Deny, "certificate cover witness disagrees with plan";
    CertHistogram: "XL0403", "cert-histogram", Deny, "certificate histograms disagree with X map";
    CertAccounting: "XL0404", "cert-accounting", Deny, "unsafe mask or control-bit accounting wrong";
    CertRankBound: "XL0405", "cert-rank-bound", Deny, "block rank certificate fails re-elimination";
    CertScanMismatch: "XL0406", "cert-scan-mismatch", Deny, "plan or certificate shape disagrees with the map";
}

impl LintCode {
    /// The rule's row in [`RULES`].
    pub fn rule(self) -> &'static Rule {
        &RULES[self as usize]
    }

    /// The stable `XLxxxx` identifier.
    pub fn id(self) -> &'static str {
        self.rule().id
    }

    /// Parses an `XLxxxx` id or a rule slug.
    pub fn parse(s: &str) -> Option<LintCode> {
        RULES
            .iter()
            .find(|r| r.id.eq_ignore_ascii_case(s) || r.slug == s)
            .map(|r| r.code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_parse_roundtrips() {
        let ids: std::collections::BTreeSet<&str> = RULES.iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), RULES.len());
        for (i, r) in RULES.iter().enumerate() {
            assert_eq!(r.code as usize, i);
            assert_eq!(LintCode::parse(r.id), Some(r.code));
            assert_eq!(LintCode::parse(r.slug), Some(r.code));
        }
        assert_eq!(LintCode::parse("nope"), None);
    }
}
