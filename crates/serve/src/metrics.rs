//! Lock-free daemon counters and fixed-bucket latency histograms.
//!
//! Each series is declared once, as a row of [`SERIES`]. Both exporters
//! are loops over that table: [`Metrics::render`] (the `GET /metrics`
//! exposition page) and [`Metrics::render_line_protocol`] (the
//! `--push-metrics` body). Adding a metric is one field plus one row,
//! and neither exporter can leave it out. A daemon stage is timed once,
//! by a [`StageTimer`]: one clock reading at each end feeds both the
//! stage's histogram and its `xhc-trace` span.

use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bucket bounds in nanoseconds; the final implicit bucket is
/// `+Inf`. Spans 10 µs to 5 s, which covers decode-only requests through
/// cold plans on the paper-scale workloads.
const BOUNDS_NS: [u64; 12] = [
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
    5_000_000_000,
];

/// A fixed-bucket latency histogram with atomic counters.
#[derive(Debug, Default)]
pub(crate) struct Histogram {
    buckets: [AtomicU64; BOUNDS_NS.len() + 1],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Starts timing one stage, under the trace span `span`.
    pub fn start(&self, span: &'static str) -> StageTimer<'_> {
        let start_ns = xhc_trace::now_ns();
        StageTimer {
            hist: self,
            span: xhc_trace::span_at(span, start_ns),
            start_ns,
        }
    }

    /// Records one observation in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let idx = BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(BOUNDS_NS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The approximate `q`-quantile in nanoseconds: the upper bound of
    /// the bucket holding the target rank (twice the last finite bound
    /// for the `+Inf` bucket), or 0 when empty. Bucket resolution is
    /// deliberately coarse — this feeds the `Retry-After` estimate, not
    /// a benchmark.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (idx, &bound) in BOUNDS_NS.iter().enumerate() {
            cumulative += self.buckets[idx].load(Ordering::Relaxed);
            if cumulative >= target {
                return bound;
            }
        }
        BOUNDS_NS[BOUNDS_NS.len() - 1] * 2
    }

    /// Writes this stage's cumulative buckets, sum and count of the
    /// [`STAGE_FAMILY`] histogram.
    fn render(&self, out: &mut String, stage: &str) {
        let mut cumulative = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let le = BOUNDS_NS
                .get(idx)
                .map_or("+Inf".to_string(), u64::to_string);
            let _ = writeln!(
                out,
                "{STAGE_FAMILY}_bucket{{stage=\"{stage}\",le=\"{le}\"}} {cumulative}"
            );
        }
        let sum = self.sum_ns.load(Ordering::Relaxed);
        let _ = writeln!(out, "{STAGE_FAMILY}_sum{{stage=\"{stage}\"}} {sum}");
        let _ = writeln!(
            out,
            "{STAGE_FAMILY}_count{{stage=\"{stage}\"}} {cumulative}"
        );
    }
}

/// One stage being timed into a [`Histogram`] and an `xhc-trace` span.
#[must_use = "a stage records its latency only when stopped"]
pub(crate) struct StageTimer<'a> {
    hist: &'a Histogram,
    span: xhc_trace::Span,
    start_ns: u64,
}

impl StageTimer<'_> {
    /// Ends the stage: one clock reading closes the span and records the
    /// same interval in the histogram. Returns the elapsed nanoseconds.
    /// A timer dropped unstopped (an error path) closes its span but
    /// records no sample.
    pub fn stop(self) -> u64 {
        let end_ns = xhc_trace::now_ns();
        let ns = end_ns.saturating_sub(self.start_ns);
        self.span.close_at(end_ns);
        self.hist.record_ns(ns);
        ns
    }
}

/// HTTP status classes the daemon tracks individually.
const TRACKED_STATUS: [u16; 10] = [200, 202, 400, 404, 405, 408, 422, 429, 500, 503];

/// Every counter the daemon exposes; [`SERIES`] names and orders them.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    /// Requests received: each one a worker routes, plus each one the
    /// event loop answers inline (400, 408, 429, 501, 503). On a quiesced
    /// daemon it equals the sum of `responses`.
    pub requests_total: AtomicU64,
    /// Responses, bucketed by status code (same order as `TRACKED_STATUS`;
    /// the extra slot counts everything else).
    responses: [AtomicU64; TRACKED_STATUS.len() + 1],
    /// Plan requests answered from the content-addressed store.
    pub cache_hits: AtomicU64,
    /// Plan requests that ran the partition engine.
    pub cache_misses: AtomicU64,
    /// Requests admitted but not yet picked up by a worker.
    pub queue_depth: AtomicU64,
    /// Requests rejected by admission control (answered 429).
    pub shed_total: AtomicU64,
    /// Connections answered 408 for idling mid-request past the read
    /// deadline (the slow-loris defence firing).
    pub timeouts_total: AtomicU64,
    /// Wall time connections spent queued between `accept` and a worker.
    pub queue_wait_ns: Histogram,
    /// Wall time spent decoding request bodies.
    pub decode_ns: Histogram,
    /// Wall time spent in the lint gate.
    pub lint_ns: Histogram,
    /// Wall time spent in the partition engine (cache misses only); its
    /// sum and count are also exported as `xhc_plan_engine_seconds`.
    pub plan_ns: Histogram,
    /// Wall time spent encoding responses.
    pub encode_ns: Histogram,
    /// Wall time spent persisting cold plans into the store.
    pub store_ns: Histogram,
    /// Certificate verifications run (verify-on-write plus
    /// `GET /v1/plan/{hash}/verify`).
    pub verify_total: AtomicU64,
    /// Certificate verifications that found at least one violation.
    pub verify_failures: AtomicU64,
    /// Wall time spent in the certificate checker.
    pub verify_ns: Histogram,
    /// End-to-end request handling time, of every request but a
    /// `GET /metrics` scrape.
    pub total_ns: Histogram,
    /// `--push-metrics` POSTs that failed.
    pub push_errors: AtomicU64,
}

/// How a scalar row's counter is printed.
#[derive(Clone, Copy)]
enum Format {
    /// The integer itself (`u`-suffixed in line protocol).
    Int,
    /// A nanosecond counter shown as seconds, to the nanosecond.
    SecsFromNs,
}

/// One declared series, in `/metrics` order.
enum Series {
    /// An unlabelled series read from one counter.
    Scalar(&'static str, Format, fn(&Metrics) -> &AtomicU64),
    /// The per-status response family: one series per `status` label.
    Statuses(&'static str),
    /// One stage of the [`STAGE_FAMILY`] latency histogram.
    Stage(&'static str, fn(&Metrics) -> &Histogram),
}

use Format::{Int, SecsFromNs};
use Series::{Scalar, Stage, Statuses};

/// The stage latency histogram family on `/metrics`.
const STAGE_FAMILY: &str = "xhc_stage_latency_ns";

/// A stage's count, sum and p95 (the `Retry-After` p95) in the push body.
const STAGE_PUSH: [&str; 3] = ["xhc_stage_count", "xhc_stage_sum_ns", "xhc_stage_p95_ns"];

/// Every daemon series, declared once. Both exporters render this table.
const SERIES: [Series; 20] = [
    Scalar("xhc_requests_total", Int, |m| &m.requests_total),
    Statuses("xhc_responses_total"),
    Scalar("xhc_cache_hits_total", Int, |m| &m.cache_hits),
    Scalar("xhc_cache_misses_total", Int, |m| &m.cache_misses),
    Scalar("xhc_queue_depth", Int, |m| &m.queue_depth),
    Scalar("xhc_shed_total", Int, |m| &m.shed_total),
    Scalar("xhc_timeouts_total", Int, |m| &m.timeouts_total),
    Scalar("xhc_verify_total", Int, |m| &m.verify_total),
    Scalar("xhc_verify_failures_total", Int, |m| &m.verify_failures),
    Scalar("xhc_plan_engine_seconds_sum", SecsFromNs, |m| {
        &m.plan_ns.sum_ns
    }),
    Scalar("xhc_plan_engine_seconds_count", Int, |m| &m.plan_ns.count),
    Scalar("xhc_push_errors_total", Int, |m| &m.push_errors),
    Stage("queue_wait", |m| &m.queue_wait_ns),
    Stage("decode", |m| &m.decode_ns),
    Stage("lint", |m| &m.lint_ns),
    Stage("plan", |m| &m.plan_ns),
    Stage("encode", |m| &m.encode_ns),
    Stage("store", |m| &m.store_ns),
    Stage("verify", |m| &m.verify_ns),
    Stage("total", |m| &m.total_ns),
];

impl Format {
    /// `raw` as `/metrics` prints it; line protocol marks integers `u`.
    fn show(self, raw: u64, line_protocol: bool) -> String {
        match self {
            Int if line_protocol => format!("{raw}u"),
            Int => raw.to_string(),
            SecsFromNs => format!("{:.9}", raw as f64 / 1e9),
        }
    }
}

impl Metrics {
    /// Counts one response with the given status code.
    pub fn count_status(&self, status: u16) {
        let idx = TRACKED_STATUS
            .iter()
            .position(|&s| s == status)
            .unwrap_or(TRACKED_STATUS.len());
        self.responses[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// `(status label, responses)` per slot: tracked codes, then `other`.
    fn statuses(&self) -> impl Iterator<Item = (String, u64)> + '_ {
        let labels = TRACKED_STATUS.iter().map(u16::to_string);
        let labels = labels.chain(["other".to_string()]);
        labels.zip(self.responses.iter().map(|n| n.load(Ordering::Relaxed)))
    }

    /// Renders the full plaintext exposition page.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(8192);
        for series in &SERIES {
            match *series {
                Scalar(name, format, get) => {
                    let value = format.show(get(self).load(Ordering::Relaxed), false);
                    let _ = writeln!(out, "{name} {value}");
                }
                Statuses(name) => {
                    for (status, n) in self.statuses() {
                        let _ = writeln!(out, "{name}{{status=\"{status}\"}} {n}");
                    }
                }
                Stage(stage, get) => get(self).render(&mut out, stage),
            }
        }
        out
    }

    /// Renders every series in Influx-style line protocol —
    /// `name,instance=<addr>[,tag=<v>] value=<v> <ts_ns>` — which is what
    /// the `--push-metrics` exporter POSTs on every interval. Statuses
    /// with no responses are left out; a stage contributes its count,
    /// sum and p95.
    pub fn render_line_protocol(&self, instance: &str, ts_ns: u128) -> String {
        let mut out = String::with_capacity(4096);
        let mut line = |name: &str, tag: String, value: String| {
            let _ = writeln!(out, "{name},instance={instance}{tag} value={value} {ts_ns}");
        };
        for series in &SERIES {
            match *series {
                Scalar(name, format, get) => {
                    let value = format.show(get(self).load(Ordering::Relaxed), true);
                    line(name, String::new(), value);
                }
                Statuses(name) => {
                    for (status, n) in self.statuses().filter(|&(_, n)| n > 0) {
                        line(name, format!(",status={status}"), format!("{n}u"));
                    }
                }
                Stage(stage, get) => {
                    let h = get(self);
                    let values = [
                        h.count(),
                        h.sum_ns.load(Ordering::Relaxed),
                        h.quantile_ns(0.95),
                    ];
                    for (name, v) in STAGE_PUSH.into_iter().zip(values) {
                        line(name, format!(",stage={stage}"), format!("{v}u"));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Metrics` with every counter, status slot (plus one untracked
    /// status) and stage histogram set to a distinct value.
    fn populated() -> Metrics {
        let m = Metrics::default();
        for (counter, value) in [
            (&m.requests_total, 101),
            (&m.cache_hits, 102),
            (&m.cache_misses, 103),
            (&m.queue_depth, 104),
            (&m.shed_total, 105),
            (&m.timeouts_total, 106),
            (&m.verify_total, 110),
            (&m.verify_failures, 111),
            (&m.push_errors, 112),
        ] {
            counter.store(value, Ordering::Relaxed);
        }
        for (i, &status) in TRACKED_STATUS.iter().enumerate() {
            for _ in 0..=i {
                m.count_status(status);
            }
        }
        for _ in 0..11 {
            m.count_status(418);
        }
        for (i, hist) in [
            &m.queue_wait_ns,
            &m.decode_ns,
            &m.lint_ns,
            &m.plan_ns,
            &m.encode_ns,
            &m.store_ns,
            &m.verify_ns,
            &m.total_ns,
        ]
        .into_iter()
        .enumerate()
        {
            for k in 0..=i as u64 {
                hist.record_ns(3_000 + k.pow(3) * 20_000_000 + i as u64);
            }
        }
        m
    }

    /// `GET /metrics` is parsed by scrapers and the benchmark harness,
    /// so its bytes are pinned: series, order, labels and formatting.
    #[test]
    fn render_matches_golden_exposition() {
        assert_eq!(
            populated().render(),
            include_str!("../tests/fixtures/metrics_golden.txt")
        );
    }

    /// Every series on `/metrics` is in the push body under the same
    /// name and value. A stage's buckets map to its count/sum/p95
    /// triple, a `status` label to the `status` tag.
    #[test]
    fn push_body_carries_every_exposed_series() {
        let m = populated();
        let body = m.render_line_protocol("i", 1);
        for line in m.render().lines() {
            let (series, value) = line.split_once(' ').unwrap();
            let (name, labels) = series.split_once('{').unwrap_or((series, ""));
            let label = |key: &str| {
                labels
                    .trim_end_matches('}')
                    .split(',')
                    .find_map(|kv| kv.strip_prefix(key)?.strip_prefix("=\""))
                    .map(|v| v.trim_end_matches('"'))
            };
            let expected: Vec<String> = match (label("stage"), label("status")) {
                (Some(stage), _) => match name {
                    "xhc_stage_latency_ns_bucket" => {
                        ["xhc_stage_count", "xhc_stage_sum_ns", "xhc_stage_p95_ns"]
                            .iter()
                            .map(|push| format!("{push},instance=i,stage={stage} value="))
                            .collect()
                    }
                    "xhc_stage_latency_ns_sum" => {
                        vec![format!(
                            "xhc_stage_sum_ns,instance=i,stage={stage} value={value}u"
                        )]
                    }
                    "xhc_stage_latency_ns_count" => {
                        vec![format!(
                            "xhc_stage_count,instance=i,stage={stage} value={value}u"
                        )]
                    }
                    other => panic!("unexpected stage series {other}"),
                },
                (None, Some(status)) => {
                    vec![format!("{name},instance=i,status={status} value={value}")]
                }
                (None, None) => vec![format!("{name},instance=i value={value}")],
            };
            for want in expected {
                assert!(
                    body.contains(&want),
                    "push body lacks `{want}` for `{line}`"
                );
            }
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::default();
        h.record_ns(5_000); // first bucket
        h.record_ns(40_000_000); // le 50ms
        h.record_ns(u64::MAX / 2); // +Inf
        assert_eq!(h.count(), 3);
        let mut page = String::new();
        h.render(&mut page, "t");
        assert!(page.contains("le=\"10000\"} 1"));
        assert!(page.contains("le=\"50000000\"} 2"));
        assert!(page.contains("le=\"+Inf\"} 3"));
        assert!(page.contains("xhc_stage_latency_ns_count{stage=\"t\"} 3"));
    }

    #[test]
    fn quantile_tracks_bucket_bounds() {
        let h = Histogram::default();
        assert_eq!(h.quantile_ns(0.95), 0);
        for _ in 0..95 {
            h.record_ns(30_000); // le 50_000 bucket
        }
        for _ in 0..5 {
            h.record_ns(2_000_000_000); // le 5s bucket
        }
        assert_eq!(h.quantile_ns(0.50), 50_000);
        assert_eq!(h.quantile_ns(0.95), 50_000);
        assert_eq!(h.quantile_ns(1.0), 5_000_000_000);
        // The +Inf bucket reports twice the last finite bound.
        let inf = Histogram::default();
        inf.record_ns(u64::MAX / 2);
        assert_eq!(inf.quantile_ns(0.5), 10_000_000_000);
    }

    #[test]
    fn line_protocol_carries_instance_and_timestamp() {
        let m = Metrics::default();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.shed_total.fetch_add(1, Ordering::Relaxed);
        m.count_status(429);
        m.queue_wait_ns.record_ns(42_000);
        let body = m.render_line_protocol("127.0.0.1:9", 123_456);
        assert!(body.contains("xhc_requests_total,instance=127.0.0.1:9 value=3u 123456"));
        assert!(body.contains("xhc_shed_total,instance=127.0.0.1:9 value=1u 123456"));
        assert!(body.contains("xhc_responses_total,instance=127.0.0.1:9,status=429 value=1u"));
        assert!(body.contains("xhc_stage_p95_ns,instance=127.0.0.1:9,stage=queue_wait"));
        // Zero-valued statuses are elided; zero-valued scalars are not.
        assert!(!body.contains("status=200"));
        assert!(body.contains("xhc_cache_hits_total,instance=127.0.0.1:9 value=0u"));
    }

    #[test]
    fn render_includes_every_counter() {
        let m = Metrics::default();
        m.requests_total.fetch_add(2, Ordering::Relaxed);
        m.count_status(200);
        m.count_status(418);
        m.cache_hits.fetch_add(1, Ordering::Relaxed);
        m.plan_ns.record_ns(1_500_000_000);
        m.plan_ns.record_ns(500_000_000);
        let page = m.render();
        assert!(page.contains("xhc_plan_engine_seconds_sum 2.000000000"));
        assert!(page.contains("xhc_plan_engine_seconds_count 2"));
        assert!(page.contains("xhc_requests_total 2"));
        assert!(page.contains("xhc_responses_total{status=\"200\"} 1"));
        assert!(page.contains("xhc_responses_total{status=\"other\"} 1"));
        assert!(page.contains("xhc_cache_hits_total 1"));
        assert!(page.contains("xhc_cache_misses_total 0"));
        assert!(page.contains("stage=\"plan\""));
        assert!(page.contains("stage=\"queue_wait\""));
        assert!(page.contains("stage=\"store\""));
        assert!(page.contains("stage=\"verify\""));
        assert!(page.contains("xhc_verify_total 0"));
        assert!(page.contains("xhc_verify_failures_total 0"));
        assert!(page.contains("xhc_push_errors_total 0"));
    }

    #[test]
    fn stage_timer_records_the_interval_it_returns() {
        let h = Histogram::default();
        let ns = h.start("unit.stage").stop();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum_ns.load(Ordering::Relaxed), ns);
        // An unstopped timer records nothing.
        drop(h.start("unit.stage"));
        assert_eq!(h.count(), 1);
    }
}
