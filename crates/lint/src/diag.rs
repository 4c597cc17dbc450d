//! The diagnostics engine: structured diagnostics, per-rule severity
//! overrides and renderers. The rules themselves are the rows of
//! [`xhc_scan::RULES`].

use std::collections::BTreeMap;
pub use xhc_scan::{LintCode, Rule, Severity, RULES};

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub code: LintCode,
    /// Effective severity (after config overrides).
    pub severity: Severity,
    /// Where in the artifact the finding points (e.g. `netlist node 17`,
    /// `SC4[2]`, `partition 1`).
    pub location: String,
    /// What is wrong.
    pub message: String,
    /// How to fix or interpret it.
    pub help: String,
}

/// Per-rule severity overrides.
///
/// # Examples
///
/// ```
/// use xhc_lint::{LintCode, LintConfig, Severity};
///
/// let config = LintConfig::default()
///     .deny(LintCode::DeadLogic)
///     .allow(LintCode::ChainImbalance);
/// assert_eq!(config.severity(LintCode::DeadLogic), Severity::Deny);
/// assert_eq!(config.severity(LintCode::ChainImbalance), Severity::Allow);
/// assert_eq!(config.severity(LintCode::FloatingNet), Severity::Deny);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig {
    overrides: BTreeMap<LintCode, Severity>,
}

impl LintConfig {
    /// The effective severity of a rule.
    pub fn severity(&self, code: LintCode) -> Severity {
        self.severity_or(code, code.rule().severity)
    }

    /// The effective severity when the rule itself proposes a `base` for
    /// a particular finding (e.g. an advisory emitted under a
    /// deny-by-default code): an explicit override still wins.
    pub fn severity_or(&self, code: LintCode, base: Severity) -> Severity {
        self.overrides.get(&code).copied().unwrap_or(base)
    }

    /// Sets an explicit severity for a rule.
    pub fn set(mut self, code: LintCode, severity: Severity) -> Self {
        self.overrides.insert(code, severity);
        self
    }

    /// Escalates a rule to `Deny`.
    pub fn deny(self, code: LintCode) -> Self {
        self.set(code, Severity::Deny)
    }

    /// Demotes a rule to `Warn`.
    pub fn warn(self, code: LintCode) -> Self {
        self.set(code, Severity::Warn)
    }

    /// Suppresses a rule.
    pub fn allow(self, code: LintCode) -> Self {
        self.set(code, Severity::Allow)
    }
}

/// An ordered collection of diagnostics with rendering and exit-status
/// helpers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// The findings, in rule-execution order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> Self {
        LintReport::default()
    }

    /// Records a finding under `config`'s severity for `code`; findings of
    /// `Allow`ed rules are dropped.
    pub fn push(
        &mut self,
        config: &LintConfig,
        code: LintCode,
        location: impl Into<String>,
        message: impl Into<String>,
        help: impl Into<String>,
    ) {
        let base = code.rule().severity;
        self.push_at(config, code, base, location, message, help);
    }

    /// Like [`push`](Self::push), but the finding carries `base` severity
    /// unless `config` overrides the rule explicitly. Used for findings
    /// whose weight differs from their rule's default (e.g. a structural
    /// defect under a warn-by-default rule, or an advisory under a
    /// deny-by-default one).
    pub fn push_at(
        &mut self,
        config: &LintConfig,
        code: LintCode,
        base: Severity,
        location: impl Into<String>,
        message: impl Into<String>,
        help: impl Into<String>,
    ) {
        let severity = config.severity_or(code, base);
        if severity == Severity::Allow {
            return;
        }
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            location: location.into(),
            message: message.into(),
            help: help.into(),
        });
    }

    /// Appends every finding of `other`.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Whether the report is clean.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Number of `Deny` findings (the CLI's exit status is nonzero iff
    /// this is).
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Whether any finding is fatal.
    pub fn has_deny(&self) -> bool {
        self.deny_count() > 0
    }

    /// `rustc`-style human rendering, one block per finding.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}[{}]: {}\n  --> {}\n  = help: {}\n",
                d.severity,
                d.code.id(),
                d.message,
                d.location,
                d.help
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str(&format!(
                "{} finding(s): {} deny, {} warn\n",
                self.len(),
                self.deny_count(),
                self.len() - self.deny_count()
            ));
        }
        out
    }

    /// JSON rendering: an array of objects with `code`, `rule`,
    /// `severity`, `location`, `message`, `help` keys.
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"code\":\"{}\",\"rule\":\"{}\",\"severity\":\"{}\",\"location\":{},\"message\":{},\"help\":{}}}",
                d.code.id(),
                d.code.rule().slug,
                d.severity,
                json_string(&d.location),
                json_string(&d.message),
                json_string(&d.help)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }

    /// SARIF 2.1.0 rendering (one run, one result per finding), the
    /// interchange format code-scanning UIs ingest. `Deny` maps to SARIF
    /// `error`, `Warn` to `warning`; the artifact location lands in the
    /// result message (lint findings point at artifact structure, not
    /// files), and every fired rule is declared in the tool's rule table.
    pub fn render_sarif(&self) -> String {
        let mut rules: Vec<LintCode> = self.diagnostics.iter().map(|d| d.code).collect();
        rules.sort();
        rules.dedup();
        let mut out = String::from(
            "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
             \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
             \"driver\": {\n          \"name\": \"xhc-lint\",\n          \"rules\": [",
        );
        for (i, code) in rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n            {{\"id\": {}, \"name\": {}}}",
                json_string(code.id()),
                json_string(code.rule().slug)
            ));
        }
        if !rules.is_empty() {
            out.push_str("\n          ");
        }
        out.push_str("]\n        }\n      },\n      \"results\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let level = match d.severity {
                Severity::Deny => "error",
                Severity::Warn => "warning",
                Severity::Allow => "none",
            };
            out.push_str(&format!(
                "\n        {{\"ruleId\": {}, \"level\": {}, \"message\": {{\"text\": {}}}}}",
                json_string(d.code.id()),
                json_string(level),
                json_string(&format!(
                    "{} [at {}] help: {}",
                    d.message, d.location, d.help
                ))
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }\n  ]\n}\n");
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_overrides_apply() {
        let config = LintConfig::default().allow(LintCode::FloatingNet);
        let mut report = LintReport::new();
        report.push(&config, LintCode::FloatingNet, "x", "y", "z");
        assert!(report.is_empty(), "allowed rule must be dropped");
        report.push(&config, LintCode::DeadLogic, "x", "y", "z");
        assert_eq!(report.diagnostics[0].severity, Severity::Warn);
        assert!(!report.has_deny());
        let config = LintConfig::default().deny(LintCode::DeadLogic);
        report.push(&config, LintCode::DeadLogic, "x", "y", "z");
        assert!(report.has_deny());
    }

    #[test]
    fn human_rendering_mentions_code_and_help() {
        let mut report = LintReport::new();
        report.push(
            &LintConfig::default(),
            LintCode::CertAccounting,
            "partition 0",
            "mask covers a non-X value",
            "unmask the cell",
        );
        let text = report.render_human();
        assert!(text.contains("deny[XL0404]"));
        assert!(text.contains("partition 0"));
        assert!(text.contains("help: unmask the cell"));
        assert!(text.contains("1 deny, 0 warn"));
    }

    #[test]
    fn sarif_rendering_declares_rules_and_levels() {
        let mut report = LintReport::new();
        report.push(
            &LintConfig::default(),
            LintCode::CertPlanHash,
            "plan certificate",
            "hash mismatch",
            "re-certify",
        );
        report.push(
            &LintConfig::default(),
            LintCode::ChainImbalance,
            "chain 3",
            "ragged chain",
            "rebalance",
        );
        let sarif = report.render_sarif();
        assert!(sarif.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(sarif.contains("\"name\": \"xhc-lint\""));
        // Fired rules are declared once each in the driver's rule table.
        assert_eq!(sarif.matches("{\"id\": \"XL0401\"").count(), 1);
        assert_eq!(sarif.matches("{\"id\": \"XL0201\"").count(), 1);
        // Deny -> error, Warn -> warning.
        assert!(sarif.contains("\"ruleId\": \"XL0401\", \"level\": \"error\""));
        assert!(sarif.contains("\"ruleId\": \"XL0201\", \"level\": \"warning\""));
        assert!(sarif.contains("hash mismatch [at plan certificate] help: re-certify"));
        // Empty report is still a valid single-run document.
        let empty = LintReport::new().render_sarif();
        assert!(empty.contains("\"results\": []"));
    }

    #[test]
    fn json_rendering_escapes() {
        let mut report = LintReport::new();
        report.push(
            &LintConfig::default(),
            LintCode::DuplicateX,
            "cell \"7\"",
            "line1\nline2",
            "h",
        );
        let json = report.render_json();
        assert!(json.contains("\\\"7\\\""));
        assert!(json.contains("line1\\nline2"));
        assert!(json.contains("\"rule\":\"duplicate-x\""));
        assert!(LintReport::new().render_json().starts_with("[]"));
    }
}
