//! Front-end robustness tests for the event loop: fragmented and
//! pipelined requests must produce the golden response bytes (a captured
//! head plus the offline engine's plan) at every engine thread count;
//! concurrent same-workload best-cost submissions must each get the
//! offline engine's plan at their own options; overload must shed with `429` + `Retry-After` while 1000
//! keep-alive clients under headroom all get the offline plan; a
//! slow-loris sender must be timed out with `408`; every request the
//! event loop answers inline must be counted once; and a shutdown issued
//! before `run` must still stop it.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{mpsc, Barrier};
use std::thread;
use std::time::Duration;

use xhc_core::{PartitionEngine, PlanOptions, SplitStrategy};
use xhc_misr::XCancelConfig;
use xhc_scan::XMap;
use xhc_serve::{client, Server, ServerConfig};
use xhc_wire::{encode_plan, encode_xmap};
use xhc_workload::WorkloadSpec;

/// A small but nontrivial workload (a few hundred X's).
fn test_spec() -> WorkloadSpec {
    WorkloadSpec {
        total_cells: 300,
        num_chains: 6,
        num_patterns: 48,
        seed: 0xCAFE,
        ..WorkloadSpec::default()
    }
}

/// A heavier workload, for tests that need the engine busy long enough
/// for concurrency to be observable.
fn slow_spec() -> WorkloadSpec {
    WorkloadSpec {
        total_cells: 4000,
        num_chains: 8,
        num_patterns: 96,
        seed: 0xBEEF,
        ..WorkloadSpec::default()
    }
}

struct TestServer {
    addr: std::net::SocketAddr,
    handle: xhc_serve::ServerHandle,
    join: Option<thread::JoinHandle<std::io::Result<()>>>,
    store_dir: PathBuf,
}

impl TestServer {
    /// Starts a daemon with `configure` applied to the test defaults.
    fn start(tag: &str, configure: impl FnOnce(ServerConfig) -> ServerConfig) -> TestServer {
        let store_dir =
            std::env::temp_dir().join(format!("xhc-fragmented-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&store_dir);
        let config = configure(ServerConfig::new(&store_dir).with_workers(8));
        let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
        let addr = server.local_addr();
        let handle = server.handle();
        let join = thread::spawn(move || server.run());
        TestServer {
            addr,
            handle,
            join: Some(join),
            store_dir,
        }
    }

    /// Plans `xmap` once so later requests for it are cache hits (a
    /// cold miss carries its engine wall time, which no golden can
    /// pin). The miss itself must already carry the offline plan.
    fn prime(&self, xmap: &XMap) {
        let r = client::post(
            self.addr,
            PLAN_PATH,
            "application/octet-stream",
            &encode_xmap(xmap),
        )
        .expect("prime");
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert!(
            r.body == offline_plan(xmap),
            "cold plan differs from the offline engine"
        );
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        let _ = fs::remove_dir_all(&self.store_dir);
    }
}

/// Serializes a POST to [`PLAN_PATH`]; `close` controls the
/// `Connection` header.
fn render_plan_request(body: &[u8], close: bool) -> Vec<u8> {
    let mut head = format!(
        "POST {PLAN_PATH} HTTP/1.1\r\nHost: xhc-serve\r\nContent-Type: application/octet-stream\r\nContent-Length: {}\r\n",
        body.len()
    );
    if close {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    let mut buf = head.into_bytes();
    buf.extend_from_slice(body);
    buf
}

/// Writes `wire` in `chunk`-byte fragments with a pause between each —
/// many TCP segments for one request — then reads the response to EOF.
fn send_fragmented(addr: std::net::SocketAddr, wire: &[u8], chunk: usize) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for piece in wire.chunks(chunk) {
        stream.write_all(piece).expect("write fragment");
        stream.flush().unwrap();
        thread::sleep(Duration::from_millis(1));
    }
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    response
}

/// Writes `wire` in one segment and reads the response(s) to EOF.
fn send_whole(addr: std::net::SocketAddr, wire: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(wire).expect("write request");
    stream.flush().unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    response
}

/// Splits one HTTP response off the front of `buf` using its
/// `Content-Length`, returning `(response, rest)`.
fn split_response(buf: &[u8]) -> (&[u8], &[u8]) {
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head terminator")
        + 4;
    let head = std::str::from_utf8(&buf[..head_end]).expect("ASCII head");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .map(String::from)
        })
        .expect("Content-Length header")
        .parse()
        .expect("integer Content-Length");
    buf.split_at(head_end + content_length)
}

/// The plan route every golden exchange uses.
const PLAN_PATH: &str = "/v1/plan?m=32&q=7";

/// The response head the retired blocking front end sent for a primed
/// `test_spec` plan hit on [`PLAN_PATH`] with `Connection: close`,
/// captured at engine threads 1, 2 and 8 (all identical). Kept as raw
/// CRLF bytes.
const PLAN_HIT_HEAD: &[u8] = include_bytes!("fixtures/plan_hit_close_head.http");

/// The offline engine's plan bytes for `xmap` at `m=32, q=7` — the
/// daemon must answer exactly these.
fn offline_plan(xmap: &XMap) -> Vec<u8> {
    let outcome = PartitionEngine::new(XCancelConfig::new(32, 7)).run(xmap);
    encode_plan(&outcome, xmap.num_patterns())
}

/// The byte-exact answer to a primed `test_spec` plan hit: the golden
/// head (with its `Connection` header switched for `keep_alive`) and the
/// offline engine's plan as the body.
fn golden_plan_hit(keep_alive: bool) -> Vec<u8> {
    let head = std::str::from_utf8(PLAN_HIT_HEAD).expect("ASCII golden head");
    let head = if keep_alive {
        head.replace("Connection: close\r\n", "Connection: keep-alive\r\n")
    } else {
        head.to_string()
    };
    let mut expected = head.into_bytes();
    expected.extend_from_slice(&offline_plan(&test_spec().generate()));
    expected
}

/// Reads one counter line off `/metrics`.
fn scrape(addr: std::net::SocketAddr, name: &str) -> u64 {
    let page = client::get(addr, "/metrics").expect("scrape metrics");
    page.body_text()
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing from /metrics"))
        .parse()
        .expect("integer counter")
}

/// Checks that every request the daemon counted got a counted response.
/// Call it once the daemon is quiet: the scrape is then the only request
/// in flight, counted in `xhc_requests_total` but not yet answered.
fn assert_requests_balance(addr: std::net::SocketAddr) {
    let page = client::get(addr, "/metrics").expect("scrape metrics");
    let page = page.body_text();
    let value = |line: &str| -> u64 {
        let (_, n) = line.rsplit_once(' ').expect("metric line");
        n.parse().expect("integer counter")
    };
    let requests = page
        .lines()
        .find(|l| l.starts_with("xhc_requests_total "))
        .map(value)
        .expect("xhc_requests_total on /metrics");
    let responses: u64 = page
        .lines()
        .filter(|l| l.starts_with("xhc_responses_total{"))
        .map(value)
        .sum();
    assert_eq!(requests, responses + 1, "{page}");
}

#[test]
fn fragmented_requests_match_the_golden_response() {
    let xmap = test_spec().generate();
    let body = encode_xmap(&xmap);
    let golden = golden_plan_hit(false);
    let wire = render_plan_request(&body, true);
    for engine_threads in [1usize, 2, 8] {
        let server = TestServer::start(&format!("frag-{engine_threads}"), |c| {
            c.with_threads(engine_threads)
        });
        server.prime(&xmap);
        // One request over many small TCP segments, and the same request
        // in one segment: the framing must not change a byte.
        let fragmented = send_fragmented(server.addr, &wire, 64);
        let whole = send_whole(server.addr, &wire);
        assert!(
            fragmented == golden,
            "fragmented response differs from the golden at {engine_threads} engine threads:\n{}",
            String::from_utf8_lossy(&fragmented)
        );
        assert!(
            whole == golden,
            "whole-segment response differs from the golden at {engine_threads} engine threads:\n{}",
            String::from_utf8_lossy(&whole)
        );
    }
}

#[test]
fn pipelined_requests_match_the_golden_response() {
    let xmap = test_spec().generate();
    let body = encode_xmap(&xmap);
    for engine_threads in [1usize, 2, 8] {
        let server = TestServer::start(&format!("pipe-{engine_threads}"), |c| {
            c.with_threads(engine_threads)
        });
        server.prime(&xmap);
        // Two requests in ONE segment: a keep-alive plan fetch, then a
        // closing plan fetch. The event loop must answer both, in
        // order, on the one connection.
        let mut wire = render_plan_request(&body, false);
        wire.extend_from_slice(&render_plan_request(&body, true));
        let combined = send_whole(server.addr, &wire);
        let (first, rest) = split_response(&combined);
        let (second, tail) = split_response(rest);
        assert!(tail.is_empty(), "unexpected trailing bytes");
        // The keep-alive response differs from the golden only in its
        // Connection header.
        assert!(
            first == golden_plan_hit(true),
            "pipelined response 1 differs at {engine_threads} engine threads:\n{}",
            String::from_utf8_lossy(first)
        );
        assert!(
            second == golden_plan_hit(false),
            "pipelined response 2 differs at {engine_threads} engine threads:\n{}",
            String::from_utf8_lossy(second)
        );
    }
}

#[test]
fn concurrent_best_cost_submissions_match_the_offline_engine() {
    // The big workload: its BestCost engine run takes tens of
    // milliseconds, so barrier-released submissions overlap in the
    // engine, each sweeping its own decoded map's rows.
    let xmap = slow_spec().generate();
    let body = encode_xmap(&xmap);
    let server = TestServer::start("concurrent", |c| c.with_threads(2));
    const CLIENTS: usize = 4;
    let barrier = Barrier::new(CLIENTS);
    let responses: Vec<(usize, client::HttpResponse)> = thread::scope(|scope| {
        let mut joins = Vec::new();
        for i in 0..CLIENTS {
            let body = &body;
            let addr = server.addr;
            let barrier = &barrier;
            // Distinct options: distinct cache keys, so no single-flight
            // merge; every submission runs the engine.
            let rounds = 40 + i;
            joins.push(scope.spawn(move || {
                barrier.wait();
                let path = format!("/v1/plan?m=32&q=7&strategy=best-cost&max_rounds={rounds}");
                let r =
                    client::post(addr, &path, "application/octet-stream", body).expect("post plan");
                (rounds, r)
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    for (rounds, r) in responses {
        assert_eq!(r.status, 200, "max_rounds={rounds}: {}", r.body_text());
        let opts = PlanOptions {
            strategy: SplitStrategy::BestCost,
            max_rounds: Some(rounds),
            ..PlanOptions::default()
        };
        let outcome = PartitionEngine::with_options(XCancelConfig::new(32, 7), opts).run(&xmap);
        assert!(
            r.body == encode_plan(&outcome, xmap.num_patterns()),
            "max_rounds={rounds}: daemon plan differs from the offline engine"
        );
    }
}

#[test]
fn overload_sheds_with_retry_after() {
    let body = encode_xmap(&slow_spec().generate());
    let server = TestServer::start("shed", |c| {
        c.with_threads(1)
            .with_workers(1)
            .with_max_inflight(1)
            .with_queue_depth(1)
    });
    const CLIENTS: usize = 6;
    let barrier = Barrier::new(CLIENTS);
    let responses: Vec<_> = thread::scope(|scope| {
        let mut joins = Vec::new();
        for i in 0..CLIENTS {
            let body = body.clone();
            let addr = server.addr;
            let barrier = &barrier;
            joins.push(scope.spawn(move || {
                barrier.wait();
                // Distinct cache keys so single-flight cannot collapse
                // the load before admission control sees it.
                let path = format!("/v1/plan?m=32&q=7&max_rounds={}", 50 + i);
                client::post(addr, &path, "application/octet-stream", &body).expect("post plan")
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let ok = responses.iter().filter(|r| r.status == 200).count();
    let shed = responses.iter().filter(|r| r.status == 429).count();
    assert_eq!(ok + shed, CLIENTS, "only 200 or 429 expected");
    assert!(ok >= 1, "at least one request must be admitted");
    assert!(
        shed >= 1,
        "a 1-deep daemon under 6 concurrent plans must shed"
    );
    for r in responses.iter().filter(|r| r.status == 429) {
        let retry: u64 = r
            .header("retry-after")
            .expect("429 must carry Retry-After")
            .parse()
            .expect("Retry-After is integral seconds");
        assert!(
            (1..=60).contains(&retry),
            "Retry-After {retry} out of range"
        );
    }
    // The shed counter made it to /metrics.
    assert_eq!(scrape(server.addr, "xhc_shed_total"), shed as u64);
}

#[test]
fn a_thousand_keep_alive_clients_all_get_the_offline_plan() {
    // Headroom: admission limits sit above the offered load, so every
    // request must be planned (a cache hit after priming), answered
    // 200 with the offline engine's bytes, and nothing may be shed.
    const CLIENTS: usize = 1000;
    const REQUESTS: usize = 5;
    let xmap = WorkloadSpec {
        total_cells: 800,
        num_chains: 8,
        num_patterns: 96,
        seed: 0xBEEF,
        ..WorkloadSpec::default()
    }
    .generate();
    let body = encode_xmap(&xmap);
    let expected = offline_plan(&xmap);
    let server = TestServer::start("headroom", |c| {
        c.with_threads(2)
            .with_max_inflight(2 * CLIENTS)
            .with_queue_depth(2 * CLIENTS)
    });
    server.prime(&xmap);
    let barrier = Barrier::new(CLIENTS);
    let failures: Vec<String> = thread::scope(|scope| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (addr, barrier, body, expected) = (server.addr, &barrier, &body, &expected);
                thread::Builder::new()
                    .stack_size(256 * 1024)
                    .spawn_scoped(scope, move || {
                        let mut c = client::Client::new(addr);
                        barrier.wait();
                        let mut failures = Vec::new();
                        for _ in 0..REQUESTS {
                            match c.post(PLAN_PATH, "application/octet-stream", body) {
                                Ok(r) if r.status == 200 && r.body == *expected => {}
                                Ok(r) => failures.push(format!(
                                    "status {} with {} body bytes",
                                    r.status,
                                    r.body.len()
                                )),
                                Err(e) => failures.push(format!("transport: {e}")),
                            }
                        }
                        failures
                    })
                    .expect("spawn client")
            })
            .collect();
        joins.into_iter().flat_map(|j| j.join().unwrap()).collect()
    });
    assert!(
        failures.is_empty(),
        "{} of {} requests failed; first: {}",
        failures.len(),
        CLIENTS * REQUESTS,
        failures[0]
    );
    assert_eq!(scrape(server.addr, "xhc_shed_total"), 0);
}

#[test]
fn shutdown_before_run_returns_promptly() {
    let store_dir =
        std::env::temp_dir().join(format!("xhc-fragmented-early-stop-{}", std::process::id()));
    let _ = fs::remove_dir_all(&store_dir);
    let server = Server::bind("127.0.0.1:0", ServerConfig::new(&store_dir)).expect("bind");
    server.handle().shutdown();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(server.run());
    });
    let result = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("run() must return within 5 s of a shutdown issued before it started");
    result.expect("clean exit");
    let _ = fs::remove_dir_all(&store_dir);
}

#[test]
fn chunked_transfer_encoding_is_rejected_with_501() {
    // Bodies are Content-Length framed only: a chunked request gets an
    // explicit 501 with a diagnostic body instead of a generic parse
    // failure.
    let server = TestServer::start("chunked", |c| c.with_threads(1));
    let wire: &[u8] = b"POST /v1/plan?m=32&q=7 HTTP/1.1\r\n\
        Host: xhc-serve\r\n\
        Transfer-Encoding: chunked\r\n\
        Connection: close\r\n\r\n\
        4\r\nBODY\r\n0\r\n\r\n";
    let response = send_whole(server.addr, wire);
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 501 Not Implemented\r\n"),
        "{text}"
    );
    assert!(text.contains("chunked"), "{text}");
    assert!(text.contains("Content-Length"), "{text}");
    assert_requests_balance(server.addr);
}

#[test]
fn malformed_request_lines_are_answered_400_and_counted() {
    let server = TestServer::start("malformed", |c| c.with_threads(1));
    let response = send_whole(server.addr, b"NOT-A-REQUEST-LINE\r\n\r\n");
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{text}");
    assert_requests_balance(server.addr);
}

#[test]
fn slow_loris_senders_get_408() {
    let server = TestServer::start("loris", |c| c.with_threads(1).with_read_timeout_ms(150));
    // A partial request head, then silence: the daemon must answer 408
    // instead of holding the connection forever.
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /v1/plan HTTP/1.1\r\nHost: xhc-serve\r\n")
        .unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read 408");
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
        "{text}"
    );
    assert_requests_balance(server.addr);
}

#[test]
fn idle_connections_are_closed_silently() {
    let server = TestServer::start("idle", |c| c.with_threads(1).with_read_timeout_ms(100));
    // A connection that never sends a byte is not a slow loris — it is
    // just idle keep-alive, and is closed without a response.
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read EOF");
    assert!(response.is_empty(), "idle close must not send bytes");
}

#[test]
fn keep_alive_client_reuses_its_connection() {
    let server = TestServer::start("client", |c| c.with_threads(1));
    let mut c = client::Client::new(server.addr);
    assert!(!c.is_connected());
    let first = c.get("/healthz").expect("first get");
    assert_eq!(first.status, 200);
    assert!(c.is_connected(), "keep-alive connection must be cached");
    let second = c.get("/metrics").expect("second get");
    assert_eq!(second.status, 200);
    assert!(c.is_connected());
    // POST over the same connection works too.
    let body = encode_xmap(&test_spec().generate());
    let planned = c
        .post(PLAN_PATH, "application/octet-stream", &body)
        .expect("post plan");
    assert_eq!(planned.status, 200, "{}", planned.body_text());
    assert!(c.is_connected());
}
