//! End-to-end push export: a daemon started with `with_push_metrics`
//! POSTs its line-protocol body to an in-test collector. The final flush
//! on shutdown carries the request it served, names only series that
//! `/metrics` also shows, and counts a push the collector dropped.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use xhc_serve::{client, Server, ServerConfig};
use xhc_wire::encode_xmap;
use xhc_workload::WorkloadSpec;

/// Accepts POSTs until a connection closes without sending a request.
/// The first `unanswered` bodies are read and then dropped without an answer;
/// every later one is forwarded to `bodies` and answered `204`.
fn collect(listener: TcpListener, bodies: mpsc::Sender<String>, mut unanswered: usize) {
    for stream in listener.incoming() {
        let mut stream = stream.expect("accept push connection");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut content_length = None;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("read head") == 0 {
                return; // the shutdown signal: a bare connect-and-close
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = Some(value.trim().parse::<usize>().expect("length"));
                }
            }
        }
        let mut body = vec![0; content_length.expect("push POST has a Content-Length")];
        reader.read_exact(&mut body).expect("read body");
        if unanswered > 0 {
            unanswered -= 1;
            continue; // closes the connection unanswered
        }
        bodies
            .send(String::from_utf8(body).expect("utf-8 body"))
            .unwrap();
        stream
            .write_all(b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
            .expect("answer push");
    }
}

/// Runs a daemon that pushes, at the default interval, to a collector
/// dropping its first `unanswered` pushes. `drive` talks to the daemon before
/// shutdown. Returns the daemon's address, what `drive` returned, and
/// the final flush.
fn push_session<T>(
    tag: &str,
    unanswered: usize,
    drive: impl FnOnce(SocketAddr) -> T,
) -> (SocketAddr, T, String) {
    let collector = TcpListener::bind("127.0.0.1:0").expect("bind collector");
    let collector_addr = collector.local_addr().unwrap();
    let (tx, rx) = mpsc::channel();
    let collector_thread = thread::spawn(move || collect(collector, tx, unanswered));

    let store_dir = std::env::temp_dir().join(format!("xhc-push-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let config =
        ServerConfig::new(&store_dir).with_push_metrics(format!("http://{collector_addr}/write"));
    let server = Server::bind("127.0.0.1:0", config).expect("bind daemon");
    let addr = server.local_addr();
    let handle = server.handle();
    let daemon = thread::spawn(move || server.run());

    let driven = drive(addr);
    handle.shutdown();
    daemon.join().unwrap().expect("daemon exits cleanly");
    // `run` joins the exporter, so the final flush has been answered.
    drop(std::net::TcpStream::connect(collector_addr).expect("stop collector"));
    collector_thread.join().unwrap();
    let _ = std::fs::remove_dir_all(&store_dir);

    let last = rx
        .try_iter()
        .last()
        .expect("the final flush reached the collector");
    (addr, driven, last)
}

/// The value of an unlabelled counter on `/metrics`, if it is there.
fn scrape(addr: SocketAddr, name: &str) -> Option<u64> {
    let page = client::get(addr, "/metrics").expect("scrape metrics");
    page.body_text()
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn final_flush_pushes_the_served_request() {
    let (addr, (), last) = push_session("served", 0, |addr| {
        let health = client::get(addr, "/healthz").expect("GET /healthz");
        assert_eq!(health.status, 200);
    });
    let instance = format!("instance={addr}");
    assert!(last.lines().all(|l| l.contains(&instance)), "{last}");
    let requests: u64 = last
        .lines()
        .find_map(|l| l.strip_prefix(&format!("xhc_requests_total,{instance} value=")))
        .and_then(|rest| rest.split_once('u'))
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or_else(|| panic!("no xhc_requests_total in\n{last}"));
    assert!(requests >= 1, "{last}");
}

/// The push body is the `/metrics` table and nothing else, even after a
/// plan that runs the packed superset kernel's counters.
#[test]
fn final_flush_names_only_series_metrics_shows() {
    let body = encode_xmap(
        &WorkloadSpec {
            total_cells: 300,
            num_chains: 6,
            num_patterns: 48,
            seed: 0xCAFE,
            ..WorkloadSpec::default()
        }
        .generate(),
    );
    let (_, page, last) = push_session("parity", 0, |addr| {
        let plan = client::post(
            addr,
            "/v1/plan?m=32&q=7&strategy=best-cost",
            "application/octet-stream",
            &body,
        )
        .expect("POST plan");
        assert_eq!(plan.status, 200, "{}", plan.body_text());
        client::get(addr, "/metrics")
            .expect("scrape metrics")
            .body_text()
    });
    for line in last.lines() {
        let (series, _) = line.split_once(' ').expect("line-protocol line");
        let mut tags = series.split(',');
        let name = tags.next().unwrap();
        let tag = |key: &str| {
            tags.clone()
                .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
        };
        // A stage's count/sum/p95 triple stands for its histogram.
        let exposed = match (tag("stage"), tag("status")) {
            (Some(stage), _) => format!("xhc_stage_latency_ns_count{{stage=\"{stage}\"}} "),
            (None, Some(status)) => format!("{name}{{status=\"{status}\"}} "),
            (None, None) => format!("{name} "),
        };
        assert!(
            page.lines().any(|l| l.starts_with(&exposed)),
            "push line `{line}` names no series on /metrics:\n{page}"
        );
    }
}

/// A push the collector drops is counted on `/metrics` at once and
/// carried by the next push that lands (here the final flush).
#[test]
fn a_dropped_push_is_counted_and_reported_by_the_final_flush() {
    let (addr, (), last) = push_session("dropped", 1, |addr| {
        // The first interval push fires after the default 2 s.
        let deadline = Instant::now() + Duration::from_secs(30);
        while scrape(addr, "xhc_push_errors_total") != Some(1) {
            assert!(
                Instant::now() < deadline,
                "the dropped push was never counted"
            );
            thread::sleep(Duration::from_millis(50));
        }
    });
    let want = format!("xhc_push_errors_total,instance={addr} value=1u ");
    assert!(last.lines().any(|l| l.starts_with(&want)), "{last}");
}
