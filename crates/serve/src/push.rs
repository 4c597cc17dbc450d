//! Push-mode metrics export: the daemon POSTs its counters as Influx
//! line protocol to an HTTP collector on a fixed interval (and once
//! more on shutdown, so short-lived runs still land).
//!
//! The body is the daemon's metric table followed by the trace stats:
//! - [`Metrics::render_line_protocol`] renders every series `GET
//!   /metrics` shows, under the same names: request, response, cache,
//!   admission, job and verify counters, the engine time, and each
//!   stage histogram as its count, sum and p95;
//! - the process-lifetime [`xhc_trace`] stat registry (`xbm.stream_rows`,
//!   `serve.push_errors`, …) follows, with dots mapped to underscores
//!   and an `xhc_trace_` prefix.
//!
//! The collector derives rates from the totals. The serve layer counts
//! a daemon fact in the table only, never again as a trace stat; the
//! one overlap left is `serve.batched`, the matrix pool's own trace
//! counter, which a daemon bumps in step with `xhc_batched_total`.
//! Failures are counted but never retried in-line; the next interval is
//! the retry.
//!
//! [`Metrics::render_line_protocol`]: crate::metrics::Metrics::render_line_protocol

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::{client, ServerState};

/// Default push interval, overridable via `XHC_PUSH_INTERVAL_MS`.
const DEFAULT_INTERVAL_MS: u64 = 2_000;

/// How often the exporter checks the shutdown flag while sleeping.
const SLEEP_SLICE_MS: u64 = 50;

/// Splits a `http://host:port/path` collector URL into a dial address
/// and a request path. Only plain `http` is supported (the daemon has
/// no TLS stack by design); the port defaults to 80, the path to
/// `/write`, which is the Influx line-protocol ingest convention.
pub(crate) fn parse_push_url(url: &str) -> Result<(String, String), String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("`{url}` is not an http:// URL (https is not supported)"))?;
    if rest.is_empty() {
        return Err(format!("`{url}` has no host"));
    }
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/write"),
    };
    if authority.is_empty() {
        return Err(format!("`{url}` has no host"));
    }
    let addr = if authority.contains(':') {
        authority.to_string()
    } else {
        format!("{authority}:80")
    };
    Ok((addr, path.to_string()))
}

/// Nanoseconds since the Unix epoch — the line-protocol timestamp.
fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0)
}

/// One full export body: server metrics plus trace stat totals.
fn render_body(state: &ServerState, instance: &str) -> String {
    let ts = unix_ns();
    let mut body = state.metrics.render_line_protocol(instance, ts);
    for (name, value) in xhc_trace::stats_snapshot() {
        let metric = name.replace('.', "_");
        body.push_str(&format!(
            "xhc_trace_{metric},instance={instance} value={value}u {ts}\n"
        ));
    }
    body
}

/// Starts the exporter thread if the config asks for one. Enables the
/// always-on trace stat registry (so `xbm.stream_rows` and friends
/// accumulate without a trace session) and pushes every interval until
/// shutdown, plus one final flush. Returns `None` (and logs to stderr)
/// when the URL does not parse — a misconfigured exporter must not take
/// the daemon down.
pub(crate) fn spawn_exporter(
    state: &Arc<ServerState>,
    server_addr: SocketAddr,
) -> Option<thread::JoinHandle<()>> {
    let url = state.config.push_metrics.clone()?;
    let (addr, path) = match parse_push_url(&url) {
        Ok(parts) => parts,
        Err(e) => {
            eprintln!("xhc-serve: ignoring --push-metrics: {e}");
            return None;
        }
    };
    xhc_trace::enable_stats();
    let interval_ms = std::env::var("XHC_PUSH_INTERVAL_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(DEFAULT_INTERVAL_MS);
    let state = Arc::clone(state);
    let instance = server_addr.to_string();
    Some(thread::spawn(move || loop {
        // Sliced sleep so shutdown is observed within ~50 ms.
        let mut slept = 0;
        while slept < interval_ms && !state.shutdown.load(Ordering::SeqCst) {
            let slice = SLEEP_SLICE_MS.min(interval_ms - slept);
            thread::sleep(Duration::from_millis(slice));
            slept += slice;
        }
        let body = render_body(&state, &instance);
        if client::post(&addr, &path, "text/plain; charset=utf-8", body.as_bytes()).is_err() {
            xhc_trace::stat_add("serve.push_errors", 1);
        }
        if state.shutdown.load(Ordering::SeqCst) {
            break; // the loop body above already did the final flush
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_push_url_accepts_common_shapes() {
        assert_eq!(
            parse_push_url("http://127.0.0.1:8086/write?db=xhc").unwrap(),
            ("127.0.0.1:8086".to_string(), "/write?db=xhc".to_string())
        );
        assert_eq!(
            parse_push_url("http://collector/ingest").unwrap(),
            ("collector:80".to_string(), "/ingest".to_string())
        );
        assert_eq!(
            parse_push_url("http://collector:9009").unwrap(),
            ("collector:9009".to_string(), "/write".to_string())
        );
    }

    #[test]
    fn parse_push_url_rejects_bad_urls() {
        assert!(parse_push_url("https://secure/ingest").is_err());
        assert!(parse_push_url("collector:8086").is_err());
        assert!(parse_push_url("http://").is_err());
        assert!(parse_push_url("http:///nohost").is_err());
    }
}
