//! Push-mode metrics export: the daemon POSTs its counters as Influx
//! line protocol to an HTTP collector on a fixed interval (and once
//! more on shutdown, so short-lived runs still land).
//!
//! The body is exactly the daemon's metric table:
//! [`Metrics::render_line_protocol`] renders every series `GET /metrics`
//! shows, under the same names (request, response, cache, admission,
//! job, verify and push-error counters, the engine time, and each stage
//! histogram as its count, sum and p95), and nothing else.
//!
//! The collector derives rates from the totals. A failed push is counted
//! in `xhc_push_errors_total`, which `/metrics` shows at once and the
//! next successful push carries; it is never retried in-line, since the
//! next interval is the retry.
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

/// Starts the exporter thread if the config asks for one, pushing every
/// interval until shutdown, plus one final flush. Returns `None` (and
/// logs to stderr) when the URL does not parse — a misconfigured
/// exporter must not take the daemon down.
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
        let body = state.metrics.render_line_protocol(&instance, unix_ns());
        if client::post(&addr, &path, "text/plain; charset=utf-8", body.as_bytes()).is_err() {
            state.metrics.push_errors.fetch_add(1, Ordering::Relaxed);
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
