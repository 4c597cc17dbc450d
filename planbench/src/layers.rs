//! Per-layer probes: calls into each layer's public functions, timed
//! from outside, plus the counters and spans `xhc_trace` already
//! records. Nothing here changes what the program does.

use std::time::{Duration, Instant};

use xhc_bits::PatternSet;
use xhc_core::{CorrelationAnalysis, PartitionEngine, PartitionOutcome, PlanOptions};
use xhc_misr::XCancelConfig;
use xhc_scan::XMap;
use xhc_trace::TraceSession;

use crate::report::Report;
use crate::stats::median;

/// The cancel configuration of every plan: the paper's m = 32, q = 7.
pub fn cancel() -> XCancelConfig {
    XCancelConfig::new(32, 7)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A plan, its wire encoding and its certificate.
pub struct Certified {
    pub outcome: PartitionOutcome,
    pub bytes: Vec<u8>,
    pub cert: xhc_wire::PlanCertificate,
}

/// The operation a user waits for: plan, encode, certify.
pub fn certified_plan(engine: &PartitionEngine, xmap: &XMap) -> Certified {
    let outcome = engine.run(xmap);
    let bytes = xhc_wire::encode_plan(&outcome, xmap.num_patterns());
    let cert = xhc_verify::certify_plan(xmap, engine.cancel_config(), &outcome, &bytes, None);
    Certified {
        outcome,
        bytes,
        cert,
    }
}

/// Re-checks a certified plan with the independent checker.
pub fn verify(xmap: &XMap, c: &Certified) -> Result<(), String> {
    xhc_verify::check(&c.cert, &c.outcome, &c.bytes, xmap, cancel()).map_err(|e| e.to_string())
}

/// Repeats `f` at least `min` times and until `budget` has passed.
pub fn repeat(min: usize, budget: Duration, mut f: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed() < budget {
        f();
        n += 1;
    }
}

/// Layer timings and counts of one circuit's certified plan.
#[derive(Default)]
struct Probe {
    op: Vec<f64>,
    traced_op: Vec<f64>,
    to_bitmatrix: Vec<f64>,
    engine: Vec<f64>,
    analyze: Vec<f64>,
    analyze_children: Vec<f64>,
    rounds_ms: Vec<f64>,
    encode: Vec<f64>,
    certify: Vec<f64>,
}

/// What [`probe_circuit`] hands back besides its metrics.
pub struct Probed {
    /// Median untraced and traced operation times in ms.
    pub untraced_ms: f64,
    pub traced_ms: f64,
    /// The last untraced plan.
    pub plan: Certified,
}

/// Probes one circuit's plan under `opts` and reports its `.ckt_x`
/// metrics.
pub fn probe_circuit(
    report: &mut Report,
    suffix: &str,
    xmap: &XMap,
    opts: PlanOptions,
    budget: Duration,
) -> Probed {
    let engine = PartitionEngine::with_options(cancel(), opts);
    let threads = xhc_par::max_threads();
    let packs_matrix = matches!(opts.strategy, xhc_core::SplitStrategy::BestCost);
    let mut p = Probe::default();
    let mut trace = None;
    let mut last = None;
    repeat(3, budget, || {
        let t = Instant::now();
        let plain = certified_plan(&engine, xmap);
        p.op.push(ms_since(t));

        let session = TraceSession::begin().expect("no other trace session is active");
        let t = Instant::now();
        let traced = certified_plan(&engine, xmap);
        p.traced_op.push(ms_since(t));
        let recorded = session.finish();
        assert_eq!(plain.bytes, traced.bytes, "tracing changed the plan");
        p.rounds_ms.extend(
            recorded
                .spans("partition.round")
                .map(|e| e.dur_ns as f64 / 1e6),
        );
        trace = Some(recorded);

        let t = Instant::now();
        let matrix = xmap.to_bitmatrix();
        p.to_bitmatrix.push(ms_since(t));

        let t = Instant::now();
        let outcome = engine.run_with_matrix(xmap, Some(&matrix));
        p.engine.push(ms_since(t));
        assert_eq!(outcome, plain.outcome, "shared matrix changed the plan");

        let t = Instant::now();
        let root = CorrelationAnalysis::analyze(xmap, &PatternSet::all(xmap.num_patterns()));
        p.analyze.push(ms_since(t));

        // Round 1 splits the root on its pivot cell; without an
        // accepted round, take the root's pivot-class head instead.
        let pivot = outcome
            .rounds
            .first()
            .map(|r| r.pivot_cell)
            .or_else(|| root.pivot_class().map(|(_, cells)| cells[0]));
        if let Some(with) = pivot.and_then(|c| xmap.xset_linear(c)) {
            let t = Instant::now();
            std::hint::black_box(root.analyze_children(xmap, with, threads));
            p.analyze_children.push(ms_since(t));
        }

        let t = Instant::now();
        let bytes = xhc_wire::encode_plan(&outcome, xmap.num_patterns());
        p.encode.push(ms_since(t));

        let t = Instant::now();
        std::hint::black_box(xhc_verify::certify_plan(
            xmap,
            cancel(),
            &outcome,
            &bytes,
            None,
        ));
        p.certify.push(ms_since(t));
        last = Some(plain);
    });
    let trace = trace.expect("at least one traced run");
    let counter = |name: &str| trace.counter(name).unwrap_or(0) as f64;

    let op = median(&p.op);
    let layers = if packs_matrix {
        median(&p.to_bitmatrix)
    } else {
        0.0
    } + median(&p.engine)
        + median(&p.encode)
        + median(&p.certify);
    let m = |name: &str| format!("{name}.{suffix}");
    report.put(m("scan.to_bitmatrix_ms"), median(&p.to_bitmatrix), "ms");
    report.put(m("core.engine_ms"), median(&p.engine), "ms");
    report.put(m("core.analyze_ms"), median(&p.analyze), "ms");
    report.put(
        m("core.analyze_children_ms"),
        median(&p.analyze_children),
        "ms",
    );
    report.put(m("core.round_ms"), median(&p.rounds_ms), "ms");
    report.put(m("verify.certify_ms"), median(&p.certify), "ms");
    report.put(m("wire.encode_plan_ms"), median(&p.encode), "ms");
    report.put(
        m("offline.unattributed_pct"),
        (op - layers) / op * 100.0,
        "%",
    );

    // Counts from the last traced run; they repeat exactly.
    let rounds = trace.spans("partition.round").count() as f64;
    let candidates = counter("partition.candidates");
    let pruned = counter("partition.pruned");
    let calls = counter("xbm.superset_calls");
    let rows = counter("xbm.rows_tested");
    let lane_words = counter("xbm.lane_words");
    // `xbm.lane_words` is bumped once per kernel row band, and a call
    // sharded over the whole pool has one band per thread.
    let shards = counter("xbm.shards");
    let bands = calls + shards - shards / threads as f64;
    report.put(m("core.rounds"), rounds, "count");
    report.put(m("core.candidates"), candidates, "count");
    report.put(m("core.pruned"), pruned, "count");
    report.put(
        m("core.prune_ratio"),
        if candidates > 0.0 {
            pruned / candidates
        } else {
            0.0
        },
        "ratio",
    );
    report.put(m("bits.superset_calls"), calls, "count");
    report.put(m("bits.rows_tested"), rows, "count");
    report.put(m("bits.lane_words"), lane_words, "count");
    report.put(
        m("bits.bytes_computed"),
        if bands > 0.0 {
            8.0 * rows * lane_words / bands
        } else {
            0.0
        },
        "B",
    );
    Probed {
        untraced_ms: op,
        traced_ms: median(&p.traced_op),
        plan: last.expect("at least one run"),
    }
}

/// One distinct request body as the daemon would see it.
pub struct ReplayItem<'a> {
    pub body: &'a [u8],
    pub opts: PlanOptions,
}

/// Times, in process, each call the daemon's LargestClass route makes
/// on every distinct body, and reports the per-body means (median over
/// repeats).
pub fn replay(report: &mut Report, items: &[ReplayItem], budget: Duration) {
    let mut rounds: [Vec<f64>; 7] = Default::default();
    let lint_config = xhc_lint::LintConfig::default();
    let cancel = cancel();
    repeat(3, budget, || {
        let mut sums = [0.0f64; 7];
        for item in items {
            let t = Instant::now();
            let xmap = xhc_wire::decode_xmap(item.body).expect("benchmark bodies decode");
            sums[0] += ms_since(t);

            let t = Instant::now();
            std::hint::black_box(xhc_lint::check_xmap(&lint_config, &xmap));
            sums[1] += ms_since(t);

            let t = Instant::now();
            let canonical = xhc_wire::encode_xmap(&xmap);
            sums[2] += ms_since(t);

            let t = Instant::now();
            std::hint::black_box(xhc_wire::plan_request_hash_with_options(
                &canonical, 32, 7, &item.opts,
            ));
            sums[3] += ms_since(t);

            let largest = PlanOptions {
                strategy: xhc_core::SplitStrategy::LargestClass,
                ..item.opts
            };
            let t = Instant::now();
            let outcome = PartitionEngine::with_options(cancel, largest).run(&xmap);
            sums[4] += ms_since(t);

            let t = Instant::now();
            let bytes = xhc_wire::encode_plan(&outcome, xmap.num_patterns());
            sums[6] += ms_since(t);

            let t = Instant::now();
            std::hint::black_box(xhc_verify::certify_plan(
                &xmap, cancel, &outcome, &bytes, None,
            ));
            sums[5] += ms_since(t);
        }
        for (r, s) in rounds.iter_mut().zip(sums) {
            r.push(s / items.len() as f64);
        }
    });
    let names = [
        "wire.decode_xmap_ms",
        "lint.check_xmap_ms",
        "wire.encode_xmap_ms",
        "wire.hash_ms",
        "core.largest_class_ms",
        "verify.certify_ms",
        "wire.encode_plan_ms",
    ];
    for (name, r) in names.into_iter().zip(&rounds) {
        report.put(name, median(r), "ms");
    }
}
