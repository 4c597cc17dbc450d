//! `offline_full`: one caller plans the paper's full-size CKT-A, CKT-B
//! and CKT-C maps with BestCost in a closed loop, calling the engine
//! directly (no HTTP, wire decode, lint or store).

use std::sync::Arc;
use std::time::{Duration, Instant};

use xhc_core::{PartitionEngine, PlanOptions, SplitStrategy};
use xhc_prng::XhcRng;
use xhc_scan::XMap;
use xhc_workload::WorkloadSpec;

use crate::daemon::{self, Daemon};
use crate::layers::{self, certified_plan, ms_since, Certified};
use crate::loadgen::Op;
use crate::report::Report;
use crate::stats::{median, tail};
use crate::{serve, Args, CIRCUITS};

/// Table 1 at m = 32, q = 7 with BestCost: `(ceil(control bits),
/// partitions)` per circuit.
pub const PINNED: [(u128, usize); 3] = [(5_523_031, 3), (10_950_920, 8), (34_997_395, 8)];

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

fn best_cost() -> PlanOptions {
    PlanOptions {
        strategy: SplitStrategy::BestCost,
        ..PlanOptions::default()
    }
}

/// Generates the three full-size maps; returns them with each one's
/// generation time in ms.
fn generate() -> (Vec<XMap>, Vec<f64>) {
    CIRCUITS
        .iter()
        .map(|name| {
            let spec = WorkloadSpec::profile(name).expect("known profile");
            let t = Instant::now();
            let xmap = spec.generate();
            (xmap, ms_since(t))
        })
        .unzip()
}

/// Checks a full-size plan against the certificate checker and the
/// pinned Table 1 numbers.
fn check(c: usize, xmap: &XMap, plan: &Certified) -> Result<(), String> {
    layers::verify(xmap, plan).map_err(|e| format!("{}: certificate: {e}", CIRCUITS[c]))?;
    let got = (
        plan.outcome.cost.total_ceil(),
        plan.outcome.partitions.len(),
    );
    if got != PINNED[c] {
        return Err(format!(
            "{}: (bits, partitions) = {got:?}, pinned {:?}",
            CIRCUITS[c], PINNED[c]
        ));
    }
    Ok(())
}

/// Plans the circuits pass after pass, each pass in a seeded order,
/// for `seconds` (and at least three passes); returns each circuit's
/// operation times in ms. Every plan is checked, outside the timing.
fn closed_loop(report: &mut Report, maps: &[XMap], seed: u64, seconds: f64) -> [Vec<f64>; 3] {
    let engine = PartitionEngine::with_options(layers::cancel(), best_cost());
    let plan_checked = |report: &mut Report, c: usize| -> f64 {
        let t = Instant::now();
        let plan = certified_plan(&engine, &maps[c]);
        let ms = ms_since(t);
        report.attempted += 1;
        if let Err(e) = check(c, &maps[c], &plan) {
            report.failed += 1;
            report.fail_check(&e);
        }
        ms
    };
    // One untimed pass lets lazy set-up and caches settle.
    for c in 0..CIRCUITS.len() {
        plan_checked(report, c);
    }
    let mut rng = XhcRng::seed_from_u64(seed);
    let mut per: [Vec<f64>; 3] = Default::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || per[0].len() < 3 {
        let mut order = [0usize, 1, 2];
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_index(i + 1));
        }
        for c in order {
            let ms = plan_checked(report, c);
            per[c].push(ms);
        }
    }
    per
}

/// The latency figures of a closed loop: each circuit's median and
/// the median over all plans, as `(name, ms)`.
fn latencies(per: &[Vec<f64>; 3]) -> Vec<(String, f64)> {
    let all: Vec<f64> = per.iter().flatten().copied().collect();
    eprintln!(
        "planbench: ckt_x_ms are medians of {} samples each",
        per[0].len()
    );
    let mut out: Vec<(String, f64)> = per
        .iter()
        .enumerate()
        .map(|(c, samples)| (format!("{}_ms", crate::SUFFIXES[c]), median(samples)))
        .collect();
    out.push(("p50_ms".to_string(), median(&all)));
    out
}

pub fn run(args: &Args, report: &mut Report) {
    let mut setups = Vec::new();
    let mut maps = Vec::new();
    for _ in 0..SETUPS {
        // Free the previous maps first, so that `peak_rss_mb` holds one
        // set of maps, as a single caller would.
        maps.clear();
        let t = Instant::now();
        maps = generate().0;
        setups.push(t.elapsed().as_secs_f64());
    }
    let per = closed_loop(report, &maps, args.seed, args.seconds);
    report.put("setup_s", median(&setups), "s");
    report.put(
        "peak_rss_mb",
        daemon::peak_rss_mb(std::process::id()),
        "MiB",
    );
    // Too unsteady on a shared host to bound (see README.md); the traced
    // run reports them.
    for (name, ms) in latencies(&per) {
        report.note(name, ms, "ms");
    }
}

pub fn run_traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let (maps, gen_ms) = generate();
    for (c, ms) in gen_ms.iter().enumerate() {
        report.put(
            format!("workload.generate_ms.{}", crate::SUFFIXES[c]),
            *ms,
            "ms",
        );
    }
    // A shorter closed loop gives the latencies and the throughput.
    let per = closed_loop(report, &maps, args.seed, args.seconds / 2.0);
    for (name, ms) in latencies(&per) {
        report.put(name, ms, "ms");
    }
    let all: Vec<f64> = per.iter().flatten().copied().collect();
    let (tail_ms, pct) = tail(&all);
    eprintln!("planbench: p99_ms is the p{pct} of {} plans", all.len());
    report.put("p99_ms", tail_ms, "ms");
    report.put(
        "max_rps",
        all.len() as f64 / (all.iter().sum::<f64>() / 1e3),
        "1/s",
    );

    let budget = Duration::from_secs_f64(args.seconds / 8.0);
    let mut untraced = 0.0;
    let mut traced = 0.0;
    let mut expected = Vec::new();
    for (c, xmap) in maps.iter().enumerate() {
        let probed = layers::probe_circuit(report, crate::SUFFIXES[c], xmap, best_cost(), budget);
        untraced += probed.untraced_ms;
        traced += probed.traced_ms;
        report.attempted += 1;
        if let Err(e) = check(c, xmap, &probed.plan) {
            report.failed += 1;
            report.fail_check(&e);
        }
        expected.push(probed.plan.bytes);
    }
    report.put(
        "trace.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        "%",
    );

    let bodies: Vec<Vec<u8>> = maps.iter().map(xhc_wire::encode_xmap).collect();
    let items: Vec<layers::ReplayItem> = bodies
        .iter()
        .map(|b| layers::ReplayItem {
            body: b,
            opts: PlanOptions::default(),
        })
        .collect();
    layers::replay(report, &items, Duration::ZERO);

    // The same three plans through the daemon, for its stage breakdown
    // at full size.
    let daemon = Daemon::start(&args.daemon, &args.work_dir.join("store-offline"))?;
    let ops: Vec<Op> = bodies
        .into_iter()
        .zip(expected)
        .enumerate()
        .map(|(c, (body, plan))| Op {
            method: "POST",
            path: "/v1/plan?strategy=best-cost".to_string(),
            body: Arc::from(body),
            expected: Arc::from(plan),
            tag: c,
        })
        .collect();
    let refs: Vec<&Op> = ops.iter().collect();
    let before = daemon.metrics()?;
    let step =
        crate::loadgen::run_step(daemon.addr, &refs, &[0, 0, 0], 1, Duration::from_secs(120));
    let delta = daemon.metrics()?.delta(&before);
    serve::report_serve_layers(report, &delta, &step);
    serve::report_pipelined_pair(report, daemon.addr)?;
    report.attempted += refs.len() as u64;
    report.failed += step.tally.failed();
    if step.tally.mismatches > 0 {
        report.fail_check("daemon plan differs from the offline engine");
    }
    Ok(())
}
