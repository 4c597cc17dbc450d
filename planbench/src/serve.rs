//! `serve_cold` and `serve_hot`: open-loop traffic against an
//! out-of-process `xhybrid serve`, over wire-encoded scaled CKT-A/B/C
//! maps planned with the paper's LargestClass rule.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xhc_core::{CellSelection, PartitionEngine, PlanOptions};
use xhc_prng::{splitmix64_mix, XhcRng};
use xhc_scan::XMap;
use xhc_workload::WorkloadSpec;

use crate::daemon::Daemon;
use crate::layers;
use crate::loadgen::{poisson_schedule, run_step, Op, StepResult};
use crate::metrics_page::Page;
use crate::report::Report;
use crate::stats::{mean, median, tail, windowed_p99};
use crate::{Args, CIRCUITS, SUFFIXES};

/// Cells, chains and patterns of every full-size profile are divided by
/// this. An arbitrary choice: nothing in the repository states the map
/// sizes the daemon's users submit.
const SCALE: usize = 20;
/// `serve_hot`: plans warmed per circuit during set-up. Arbitrary.
const WARM_SEEDS_PER_MAP: usize = 16;
/// `serve_cold`: cold requests sent during set-up to warm the process.
const COLD_WARMUP: usize = 30;
/// Requests per rate-ladder step: at least ten lie beyond the p99.
const STEP_SAMPLES: usize = 1000;
/// Shortest rate-ladder step, in seconds of the schedule.
const STEP_MIN_S: f64 = 1.0;
/// Rate-ladder steps tried per run, repeats included.
const MAX_LADDER_STEPS: usize = 8;
/// Highest rate a cold pool is sized for.
const COLD_POOL_MAX_RPS: f64 = 2500.0;
/// The ladder's rates are `fixed_rps * LADDER_RATIO^k` per second; the
/// fixed-rate step is rung 0.
const LADDER_RATIO: f64 = 1.1;
/// Ladder rungs climbed per passing step before the first failure.
const GALLOP: i64 = 8;
/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Pipelined pairs timed for `loadgen.pipelined_pair_ms`.
const PAIR_TRIALS: usize = 15;
/// Windows the traced run's `p99_ms` is taken over (see
/// [`windowed_p99`]); each window holds [`STEP_SAMPLES`] requests.
const P99_WINDOWS: usize = 3;

/// What distinguishes the two serve workloads.
#[derive(Clone, Copy)]
pub struct Profile {
    /// Every request a cache hit (after set-up) rather than a miss.
    hot: bool,
    /// The fixed offered rate `p50_ms`/`p99_ms` are measured at, an
    /// arbitrary choice well below the daemon's capacity.
    fixed_rps: f64,
    /// A ladder step passes only with its p99 within this.
    p99_limit_ms: f64,
}

pub const COLD: Profile = Profile {
    hot: false,
    fixed_rps: 100.0,
    p99_limit_ms: 200.0,
};

pub const HOT: Profile = Profile {
    hot: true,
    fixed_rps: 800.0,
    p99_limit_ms: 100.0,
};

fn largest_class(seed: u64) -> PlanOptions {
    PlanOptions {
        policy: CellSelection::Seeded(seed),
        ..PlanOptions::default()
    }
}

/// One distinct wire-encoded map.
struct Map {
    tag: usize,
    xmap: XMap,
    body: Arc<[u8]>,
    gen_ms: f64,
}

/// Everything a run sends, with the bodies it must get back.
struct Inputs {
    maps: Vec<Map>,
    /// Requests sent during set-up.
    warm: Vec<Op>,
    /// `serve_cold`: distinct cold requests, consumed in order.
    /// `serve_hot`: for each warmed plan, its re-submission then its
    /// fetch, drawn at random: one of each per plan, as in the
    /// README's `xhybrid fetch` loop (submit, re-submit, fetch by hash).
    pool: Vec<Op>,
    /// Next unused entry of a cold pool.
    cursor: usize,
    /// The policy seed of each map's first request.
    first_seed: Vec<u64>,
}

impl Inputs {
    /// `n` requests for the next step.
    fn take(&mut self, rng: &mut XhcRng, hot: bool, n: usize) -> Vec<&Op> {
        if hot {
            (0..n)
                .map(|_| &self.pool[rng.gen_index(self.pool.len())])
                .collect()
        } else {
            let end = (self.cursor + n).min(self.pool.len());
            let ops = self.pool[self.cursor..end].iter().collect();
            self.cursor = end;
            ops
        }
    }
}

/// The paper's circuits scaled down by [`SCALE`], one map each, from
/// each profile's own generator seed: the same maps for every workload
/// seed, so that a run's latencies do not depend on which map sizes the
/// seed happened to draw.
fn generate_maps() -> Vec<Map> {
    CIRCUITS
        .iter()
        .enumerate()
        .map(|(tag, name)| {
            let spec = WorkloadSpec::profile(name)
                .expect("known profile")
                .scaled(SCALE);
            let t = Instant::now();
            let xmap = spec.generate();
            let gen_ms = layers::ms_since(t);
            let body = Arc::from(xhc_wire::encode_xmap(&xmap));
            Map {
                tag,
                xmap,
                body,
                gen_ms,
            }
        })
        .collect()
}

/// Plans `(map, policy seed)` pairs offline on two threads; identical
/// plans share one buffer.
fn expected_plans(maps: &[Map], pairs: &[(usize, u64)]) -> Vec<Arc<[u8]>> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = pairs.len().div_ceil(threads).max(1);
    let raw: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&(m, seed)| {
                            let opts = PlanOptions {
                                threads: 1,
                                ..largest_class(seed)
                            };
                            let xmap = &maps[m].xmap;
                            let outcome =
                                PartitionEngine::with_options(layers::cancel(), opts).run(xmap);
                            xhc_wire::encode_plan(&outcome, xmap.num_patterns())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("planning thread panicked"))
            .collect()
    });
    let mut shared: HashMap<Vec<u8>, Arc<[u8]>> = HashMap::new();
    raw.into_iter()
        .map(|bytes| {
            shared
                .entry(bytes)
                .or_insert_with_key(|b| Arc::from(b.as_slice()))
                .clone()
        })
        .collect()
}

fn post(maps: &[Map], m: usize, seed: u64, expected: Arc<[u8]>) -> Op {
    Op {
        method: "POST",
        path: format!("/v1/plan?policy=seeded&seed={seed}"),
        body: maps[m].body.clone(),
        expected,
        tag: maps[m].tag,
    }
}

/// Builds the inputs; `cold_requests` sizes a cold pool.
fn build_inputs(seed: u64, profile: Profile, cold_requests: usize) -> Inputs {
    let maps = generate_maps();
    let mut rng = XhcRng::seed_from_u64(splitmix64_mix(seed ^ 0x5EED));
    // Policy seeds count up from a random start per map, so every
    // (map, seed) pair is distinct.
    let mut next_seed: Vec<u64> = maps.iter().map(|_| rng.next_u64() >> 1).collect();
    let first_seed = next_seed.iter().map(|s| s + 1).collect();
    let mut fresh = |m: usize| {
        next_seed[m] += 1;
        (m, next_seed[m])
    };
    if profile.hot {
        let pairs: Vec<(usize, u64)> = (0..maps.len())
            .flat_map(|m| (0..WARM_SEEDS_PER_MAP).map(move |_| m))
            .map(&mut fresh)
            .collect();
        let plans = expected_plans(&maps, &pairs);
        let mut pool = Vec::new();
        for (&(m, s), p) in pairs.iter().zip(&plans) {
            pool.push(post(&maps, m, s, p.clone()));
            let key =
                xhc_wire::plan_request_hash_with_options(&maps[m].body, 32, 7, &largest_class(s));
            pool.push(Op {
                method: "GET",
                path: format!("/v1/plan/{}", xhc_wire::hash_hex(key)),
                body: Arc::from(Vec::new()),
                expected: p.clone(),
                tag: maps[m].tag,
            });
        }
        // Warming walks the pool in order: each plan is computed by
        // its POST and then fetched by its GET.
        Inputs {
            maps,
            warm: pool.clone(),
            pool,
            cursor: 0,
            first_seed,
        }
    } else {
        let pairs: Vec<(usize, u64)> = (0..COLD_WARMUP + cold_requests)
            .map(|_| fresh(rng.gen_index(maps.len())))
            .collect();
        let plans = expected_plans(&maps, &pairs);
        let mut ops: Vec<Op> = pairs
            .iter()
            .zip(plans)
            .map(|(&(m, s), p)| post(&maps, m, s, p))
            .collect();
        let pool = ops.split_off(COLD_WARMUP);
        Inputs {
            maps,
            warm: ops,
            pool,
            cursor: 0,
            first_seed,
        }
    }
}

/// Sends the set-up requests one at a time and checks each answer.
fn warm_up(addr: SocketAddr, ops: &[Op]) -> Result<(), String> {
    for op in ops {
        let r = match op.method {
            "GET" => xhc_serve::client::get(addr, &op.path),
            _ => xhc_serve::client::post(addr, &op.path, "application/octet-stream", &op.body),
        }
        .map_err(|e| format!("warm-up {}: {e}", op.path))?;
        if r.status != 200 || r.body[..] != op.expected[..] {
            return Err(format!(
                "warm-up {} answered {} with a body that is not the offline plan",
                op.path, r.status
            ));
        }
    }
    Ok(())
}

/// One timed set-up: inputs, daemon boot, warm-up.
fn set_up(
    args: &Args,
    profile: Profile,
    cold_requests: usize,
) -> Result<(Inputs, Daemon, f64), String> {
    let t = Instant::now();
    let inputs = build_inputs(args.seed, profile, cold_requests);
    let built = layers::ms_since(t);
    let daemon = Daemon::start(&args.daemon, &args.work_dir.join("store"))?;
    let booted = layers::ms_since(t);
    warm_up(daemon.addr, &inputs.warm)?;
    let secs = t.elapsed().as_secs_f64();
    eprintln!(
        "planbench: set-up {:.1} ms: inputs {built:.1}, boot {:.1}, warm-up {:.1}",
        secs * 1e3,
        booted - built,
        secs * 1e3 - booted
    );
    Ok((inputs, daemon, secs))
}

/// Requests in the untraced run's fixed-rate step: all of `--seconds`,
/// and never fewer than a ladder step.
fn fixed_len(args: &Args, profile: Profile) -> usize {
    STEP_SAMPLES.max((profile.fixed_rps * args.seconds).ceil() as usize)
}

/// Requests a run needs from a cold pool: the untraced run's fixed-rate
/// step, or the traced run's reference step, p99 windows and ladder.
fn cold_requests(args: &Args, profile: Profile) -> usize {
    if args.trace {
        (1 + P99_WINDOWS) * STEP_SAMPLES + MAX_LADDER_STEPS * step_len(COLD_POOL_MAX_RPS)
    } else {
        fixed_len(args, profile)
    }
}

/// Requests in a ladder step at `rate`.
fn step_len(rate: f64) -> usize {
    STEP_SAMPLES.max((rate * STEP_MIN_S).ceil() as usize)
}

/// Sends `n` requests at `rate`. A response that differs from the
/// offline plan fails the run's output check in any step, but only
/// fixed-rate steps (`counted`) add to `attempted` and `failed`: a
/// ladder rung overloads the daemon on purpose, so its sheds and
/// timeouts only decide whether the rung passes.
#[allow(clippy::too_many_arguments)]
fn step(
    addr: SocketAddr,
    inputs: &mut Inputs,
    rng: &mut XhcRng,
    profile: Profile,
    rate: f64,
    n: usize,
    counted: bool,
    report: &mut Report,
) -> StepResult {
    let ops = inputs.take(rng, profile.hot, n);
    let schedule = poisson_schedule(rng, rate, ops.len());
    let result = run_step(
        addr,
        &ops,
        &schedule,
        load_threads(),
        Duration::from_secs(30),
    );
    if counted {
        report.attempted += ops.len() as u64;
        report.failed += result.tally.failed();
    }
    if result.tally.mismatches > 0 {
        report.fail_check(&format!(
            "{} responses differ from the offline engine's plan",
            result.tally.mismatches
        ));
    }
    result
}

/// Load threads and connections: one per available core.
fn load_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether a ladder step at `rate` met the latency limit with no
/// failures and no growing backlog.
fn passes(profile: Profile, rate: f64, r: &StepResult) -> bool {
    let (p99, _) = tail(&r.latency_ms);
    let slack = (rate * 0.02).ceil() as u64 + 2 * load_threads() as u64;
    let pass = r.tally.failed() == 0 && p99 <= profile.p99_limit_ms && !r.backlog_grew(slack);
    eprintln!(
        "planbench: ladder {rate:8.1}/s p99 {p99:8.2} ms backlog {}->{} failed {} => {}",
        r.backlog_mid,
        r.backlog_end,
        r.tally.failed(),
        if pass { "pass" } else { "fail" }
    );
    pass
}

/// The highest ladder rate whose step [`passes`]: gallop up from the
/// fixed-rate step (rung 0, already run), then bisect between the last
/// pass and the first failure. A failed step is repeated once, so that
/// one stall of the machine does not end the climb.
fn max_rps(
    addr: SocketAddr,
    inputs: &mut Inputs,
    rng: &mut XhcRng,
    profile: Profile,
    fixed: &StepResult,
    report: &mut Report,
) -> f64 {
    let rate = |k: i64| profile.fixed_rps * LADDER_RATIO.powi(k as i32);
    let (mut lo, mut hi): (Option<i64>, Option<i64>) = if passes(profile, rate(0), fixed) {
        (Some(0), None)
    } else {
        (None, Some(0))
    };
    let mut steps = 0;
    loop {
        let k = match (lo, hi) {
            (Some(l), Some(h)) if h - l <= 1 => break,
            (Some(l), Some(h)) => (l + h).div_euclid(2_i64),
            (Some(l), None) => l + GALLOP,
            (None, Some(h)) => h - GALLOP,
            (None, None) => unreachable!("rung 0 passed or failed"),
        };
        let mut pass = false;
        for _ in 0..2 {
            if steps == MAX_LADDER_STEPS {
                eprintln!("planbench: ladder step budget spent");
                return lo.map_or(0.0, rate);
            }
            let n = step_len(rate(k));
            if !profile.hot && inputs.pool.len() - inputs.cursor < n {
                eprintln!("planbench: cold pool exhausted; the ladder stops here");
                return lo.map_or(0.0, rate);
            }
            steps += 1;
            let r = step(addr, inputs, rng, profile, rate(k), n, false, report);
            pass = passes(profile, rate(k), &r);
            if pass {
                break;
            }
        }
        if pass {
            lo = Some(k);
        } else {
            hi = Some(k);
        }
    }
    lo.map_or(0.0, rate)
}

/// Reports the daemon-side per-layer metrics of a timed phase from its
/// `/metrics` delta, plus what the load generator saw.
pub fn report_serve_layers(report: &mut Report, delta: &Page, step: &StepResult) {
    let queue_wait = delta.stage_mean_ms("queue_wait");
    let total = delta.stage_mean_ms("total");
    report.put("serve.queue_wait_ms", queue_wait, "ms");
    report.put(
        "serve.queue_wait_p99_ms",
        delta.stage_quantile_ms("queue_wait", 0.99),
        "ms",
    );
    for stage in ["decode", "lint", "plan", "encode", "store", "total"] {
        report.put(
            format!("serve.{stage}_ms"),
            delta.stage_mean_ms(stage),
            "ms",
        );
    }
    report.put(
        "serve.unattributed_ms",
        mean(&step.service_ms) - queue_wait - total,
        "ms",
    );
    let hits = delta.get("xhc_cache_hits_total");
    let misses = delta.get("xhc_cache_misses_total");
    report.put(
        "serve.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
        "ratio",
    );
    report.put("serve.shed", delta.get("xhc_shed_total"), "count");
    report.put("serve.timeouts", delta.get("xhc_timeouts_total"), "count");
    report.put("loadgen.lag_p99_ms", tail(&step.lag_ms).0, "ms");
    report.put("loadgen.sent", step.tally.sent as f64, "count");
    report.put("loadgen.failed", step.tally.failed() as f64, "count");
    report.put("loadgen.backlog_end", step.backlog_end as f64, "count");
}

/// Sends two `GET /healthz` requests in one write on a keep-alive
/// connection with the client's default delayed ACKs, and reports the
/// median time until both answers are in. The timed traffic acknowledges
/// every read at once (see `sock::quickack`); this figure shows what a
/// pipelining client that does not would wait.
pub fn report_pipelined_pair(report: &mut Report, addr: SocketAddr) -> Result<(), String> {
    let ms = crate::loadgen::pipelined_pair_ms(addr, "/healthz", PAIR_TRIALS)
        .map_err(|e| format!("pipelined pair of GET /healthz: {e}"))?;
    report.put("loadgen.pipelined_pair_ms", ms, "ms");
    Ok(())
}

/// The latency figures of a fixed-rate step: each circuit's median and
/// the median over all requests, as `(name, ms)`.
fn latencies(fixed: &StepResult) -> Vec<(String, f64)> {
    eprintln!(
        "planbench: fixed-rate step of {} samples",
        fixed.latency_ms.len()
    );
    let mut out: Vec<(String, f64)> = fixed
        .by_tag
        .iter()
        .enumerate()
        .map(|(c, samples)| (format!("{}_ms", SUFFIXES[c]), median(samples)))
        .collect();
    out.push(("p50_ms".to_string(), median(&fixed.latency_ms)));
    out
}

pub fn run(args: &Args, profile: Profile, report: &mut Report) -> Result<(), String> {
    let need = cold_requests(args, profile);
    let mut setups = Vec::new();
    let mut current = None;
    for _ in 0..SETUPS {
        // Stop the previous daemon before timing the next boot.
        drop(current.take());
        let (inputs, daemon, secs) = set_up(args, profile, need)?;
        setups.push(secs);
        current = Some((inputs, daemon));
    }
    let (mut inputs, daemon) = current.expect("at least one set-up");
    let mut rng = XhcRng::seed_from_u64(splitmix64_mix(args.seed ^ 0x10AD));
    let n = fixed_len(args, profile);
    let rate = profile.fixed_rps;
    let fixed = step(
        daemon.addr,
        &mut inputs,
        &mut rng,
        profile,
        rate,
        n,
        true,
        report,
    );
    report.put("setup_s", median(&setups), "s");
    report.put("peak_rss_mb", daemon.peak_rss_mb(), "MiB");
    // Too unsteady on a shared host to bound (see README.md); the traced
    // run reports them.
    for (name, ms) in latencies(&fixed) {
        report.note(name, ms, "ms");
    }
    Ok(())
}

pub fn run_traced(args: &Args, profile: Profile, report: &mut Report) -> Result<(), String> {
    let need = cold_requests(args, profile);
    let (mut inputs, daemon, _) = set_up(args, profile, need)?;
    for (c, suffix) in SUFFIXES.iter().enumerate() {
        let gen: Vec<f64> = inputs
            .maps
            .iter()
            .filter(|m| m.tag == c)
            .map(|m| m.gen_ms)
            .collect();
        report.put(format!("workload.generate_ms.{suffix}"), median(&gen), "ms");
    }
    let mut rng = XhcRng::seed_from_u64(splitmix64_mix(args.seed ^ 0x10AD));
    let rate = profile.fixed_rps;
    let addr = daemon.addr;
    let plain = step(
        addr,
        &mut inputs,
        &mut rng,
        profile,
        rate,
        STEP_SAMPLES,
        true,
        report,
    );
    let before = daemon.metrics()?;
    let n = P99_WINDOWS * STEP_SAMPLES;
    let traced = step(addr, &mut inputs, &mut rng, profile, rate, n, true, report);
    let delta = daemon.metrics()?.delta(&before);
    report_serve_layers(report, &delta, &traced);
    for (name, ms) in latencies(&traced) {
        report.put(name, ms, "ms");
    }
    let (p50_plain, p50_traced) = (median(&plain.latency_ms), median(&traced.latency_ms));
    report.put(
        "trace.overhead_pct",
        (p50_traced - p50_plain) / p50_plain * 100.0,
        "%",
    );
    report.put(
        "p99_ms",
        windowed_p99(&traced.latency_ms, &traced.intended_ns, P99_WINDOWS),
        "ms",
    );
    report_pipelined_pair(report, addr)?;
    let max = max_rps(addr, &mut inputs, &mut rng, profile, &traced, report);
    report.put("max_rps", max, "1/s");
    drop(daemon);

    // In-process views of the same requests: each map's first policy
    // seed stands for all of its requests.
    let budget = Duration::from_secs_f64(args.seconds / 20.0);
    let items: Vec<layers::ReplayItem> = inputs
        .maps
        .iter()
        .zip(&inputs.first_seed)
        .map(|(m, &seed)| layers::ReplayItem {
            body: &m.body,
            opts: largest_class(seed),
        })
        .collect();
    layers::replay(report, &items, budget);
    for ((map, &seed), suffix) in inputs.maps.iter().zip(&inputs.first_seed).zip(SUFFIXES) {
        layers::probe_circuit(report, suffix, &map.xmap, largest_class(seed), budget);
    }
    Ok(())
}
