//! Hybrid-architecture rules (XL03xx): MISR feedback, X-canceling
//! `(m, q)` and the BestCost planning-latency budget. A finished plan's
//! cover, mask safety and cost are judged by `xhc-verify` (XL04xx).

use crate::diag::{LintCode, LintConfig, LintReport, Severity};
use crate::poly::taps_primitive;
use xhc_misr::Taps;
use xhc_workload::WorkloadSpec;

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

/// XL0306: estimated packed-kernel word operations one worker retires
/// per millisecond. The 4-wide lane-unrolled sweep retires ~2 word
/// visits per nanosecond (measured on the full-size CKT benches).
const EST_WORDS_PER_MS: f64 = 2.0e6;

/// XL0306: intra-candidate shard workers the latency model assumes. The
/// engine shards a candidate's row sweep across the worker pool whenever
/// candidates alone cannot keep it busy, so paper-scale sweeps see the
/// pool width (the DESIGN target machine: 8 threads).
const EST_SHARD_WORKERS: f64 = 8.0;

/// XL0306: BestCost planning-latency budget in milliseconds. Roughly the
/// point past which a plan request stops feeling interactive on the
/// daemon path.
const BEST_COST_BUDGET_MS: f64 = 10.0;

/// XL0306: workload shapes whose pattern count and X profile make
/// BestCost candidate search slower than the `BEST_COST_BUDGET_MS`
/// interactive budget.
///
/// Uses the packed-kernel cost model (DESIGN.md §5): the engine runs
/// ~`num_groups` split rounds; each round prices up to
/// `min(active, num_patterns)` candidate pivots; pricing one candidate
/// sweeps every active cell's packed X row over `ceil(num_patterns/64)`
/// words. Active cells are bounded by both the X cell pool and the total
/// X count. The word visits are divided by the unrolled kernel's
/// per-worker throughput (`EST_WORDS_PER_MS`) times the assumed
/// intra-candidate shard parallelism (`EST_SHARD_WORKERS`) — the
/// sharded sweep keeps the pool busy even when few candidates survive
/// pruning. The estimate is deliberately spec-only (no X map is
/// generated) so the rule is free to run on paper-scale specs.
pub fn check_plan_latency(config: &LintConfig, spec: &WorkloadSpec) -> LintReport {
    let mut report = LintReport::new();
    let pool = ((spec.total_cells as f64 * spec.x_cell_fraction).round() as usize)
        .clamp(1, spec.total_cells.max(1));
    let active = pool.min(spec.target_x());
    let candidates = active.min(spec.num_patterns);
    let words = spec.num_patterns.div_ceil(64);
    let rounds = spec.num_groups.max(1);
    let est_ops = rounds as f64 * candidates as f64 * active as f64 * words as f64;
    let est_ms = est_ops / (EST_WORDS_PER_MS * EST_SHARD_WORKERS);
    if est_ms > BEST_COST_BUDGET_MS {
        report.push(
            config,
            LintCode::BestCostLatency,
            format!("workload '{}'", spec.name),
            format!(
                "estimated BestCost planning latency {est_ms:.0} ms exceeds the \
                 {BEST_COST_BUDGET_MS:.0} ms budget ({} patterns, {:.2}% X-density, \
                 ~{active} active cells)",
                spec.num_patterns,
                spec.x_density * 100.0,
            ),
            "the candidate search scales with active-cells * patterns per round; \
             plan with `--strategy largest-class` (one pivot per round) or shrink \
             the pattern set",
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
    fn plan_latency_fires_on_paper_scale_only() {
        let lc = LintConfig::default();
        assert!(check_plan_latency(&lc, &WorkloadSpec::default()).is_empty());
        let report = check_plan_latency(&lc, &WorkloadSpec::ckt_b());
        assert_eq!(codes(&report), vec![LintCode::BestCostLatency]);
        assert!(!report.has_deny(), "latency estimate is advisory");
        assert!(report.render_human().contains("largest-class"));
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
