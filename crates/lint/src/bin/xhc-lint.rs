//! End-to-end linter for the repo's bundled workloads.
//!
//! ```text
//! xhc-lint [OPTIONS] [PRESET...]
//! ```
//!
//! Lints each named preset (`fig4`, `ckt-a`, `ckt-b`, `ckt-c`, or `all`,
//! the default) end to end and exits `1` if any `deny` finding fired,
//! `0` otherwise (`2` on usage errors). Workload presets are scaled down
//! by `--scale` (default 50) so a lint run stays interactive; pass
//! `--full` for paper-size runs.

use std::process::ExitCode;

use xhc_core::PartitionEngine;
use xhc_lint::{
    check_cancel_params, check_misr_taps, check_outcome, check_xmap, lint_workload, LintCode,
    LintConfig, LintReport, Severity, RULES,
};
use xhc_misr::{Taps, XCancelConfig};
use xhc_scan::samples::fig4_xmap;
use xhc_workload::WorkloadSpec;

const USAGE: &str = "\
Usage: xhc-lint [OPTIONS] [PRESET...]

Lints bundled workloads end to end: X map extraction, MISR and (m, q)
configuration, then partition planning. Each plan is certified and judged
by the engine-independent checker: cover (XL0402), mask safety and cost
accounting (XL0404), plan shape (XL0406).

Presets:
  fig4      the paper's Fig. 4 worked example (15 cells, 8 patterns)
  ckt-a     CKT-A industrial profile
  ckt-b     CKT-B industrial profile
  ckt-c     CKT-C industrial profile
  all       every preset (default)

Options:
  --format FMT   output format: human (default), json, or sarif
                 (sarif merges all presets into one SARIF 2.1.0 document)
  --json         shorthand for --format json
  --full         run workload presets at paper size (slow)
  --scale N      divide workload dimensions by N (default 50)
  --deny CODE    escalate a rule (XLxxxx id or slug) to deny
  --warn CODE    demote a rule to warn
  --allow CODE   suppress a rule
  --list         list all rules and exit
  -h, --help     show this help

Exit status: 0 clean (warnings allowed), 1 any deny finding, 2 usage error.";

/// Shrinks a workload spec by `scale` while keeping its statistical shape.
fn scaled(spec: WorkloadSpec, scale: usize) -> WorkloadSpec {
    if scale <= 1 {
        return spec;
    }
    let num_chains = (spec.num_chains / scale).max(1);
    WorkloadSpec {
        total_cells: (spec.total_cells / scale).max(num_chains),
        num_chains,
        num_patterns: (spec.num_patterns / scale).max(8),
        ..spec
    }
}

fn lint_fig4(config: &LintConfig) -> LintReport {
    let xmap = fig4_xmap();
    let cancel = XCancelConfig::new(10, 2);
    let taps = Taps::default_for(10);
    let mut report = check_xmap(config, &xmap);
    report.merge(check_cancel_params(config, cancel.m(), cancel.q()));
    report.merge(check_misr_taps(config, cancel.m(), &taps));
    let outcome = PartitionEngine::new(cancel).run(&xmap);
    report.merge(check_outcome(config, &xmap, &outcome, cancel));
    report
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Sarif,
}

struct Options {
    format: Format,
    scale: usize,
    config: LintConfig,
    presets: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        format: Format::Human,
        scale: 50,
        config: LintConfig::default(),
        presets: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--list" => {
                println!("{:<8} {:<18} {:<6} description", "code", "rule", "level");
                for rule in RULES {
                    println!(
                        "{:<8} {:<18} {:<6} {}",
                        rule.id,
                        rule.slug,
                        rule.severity.to_string(),
                        rule.summary
                    );
                }
                return Ok(None);
            }
            "--json" => opts.format = Format::Json,
            "--format" => {
                let value = iter.next().ok_or("--format needs a value")?;
                opts.format = match value.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format '{other}'")),
                };
            }
            "--full" => opts.scale = 1,
            "--scale" => {
                let value = iter.next().ok_or("--scale needs a value")?;
                opts.scale = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| format!("invalid --scale value '{value}'"))?;
            }
            "--deny" | "--warn" | "--allow" => {
                let value = iter.next().ok_or_else(|| format!("{arg} needs a rule"))?;
                let code = LintCode::parse(value)
                    .ok_or_else(|| format!("unknown rule '{value}' (try --list)"))?;
                let severity = match arg.as_str() {
                    "--deny" => Severity::Deny,
                    "--warn" => Severity::Warn,
                    _ => Severity::Allow,
                };
                opts.config = opts.config.clone().set(code, severity);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option '{other}'"));
            }
            preset => opts.presets.push(preset.to_string()),
        }
    }
    if opts.presets.is_empty() {
        opts.presets.push("all".to_string());
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("xhc-lint: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut targets: Vec<&str> = Vec::new();
    for preset in &opts.presets {
        match preset.as_str() {
            "all" => targets.extend(["fig4", "ckt-a", "ckt-b", "ckt-c"]),
            "fig4" | "ckt-a" | "ckt-b" | "ckt-c" => targets.push(preset),
            other => {
                eprintln!("xhc-lint: unknown preset '{other}'\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    targets.dedup();

    let cancel = XCancelConfig::paper_default();
    let taps = Taps::default_for(cancel.m());
    let mut any_deny = false;
    let mut combined = LintReport::new();
    for target in targets {
        let report = match target {
            "fig4" => lint_fig4(&opts.config),
            name => {
                let spec = match name {
                    "ckt-a" => WorkloadSpec::ckt_a(),
                    "ckt-b" => WorkloadSpec::ckt_b(),
                    _ => WorkloadSpec::ckt_c(),
                };
                lint_workload(&opts.config, &scaled(spec, opts.scale), cancel, &taps)
            }
        };
        any_deny |= report.has_deny();
        match opts.format {
            Format::Json => {
                println!("{{\"preset\":\"{target}\",\"findings\":{}}}", {
                    let json = report.render_json();
                    json.trim_end().to_string()
                });
            }
            Format::Sarif => combined.merge(report),
            Format::Human => {
                println!("== {target} ==");
                if report.is_empty() {
                    println!("clean: no findings\n");
                } else {
                    println!("{}", report.render_human());
                }
            }
        }
    }
    if opts.format == Format::Sarif {
        print!("{}", combined.render_sarif());
    }
    if any_deny {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
