//! End-to-end loopback tests: a real daemon on 127.0.0.1, real sockets,
//! concurrent clients, and bit-identical agreement with the offline
//! engine at every thread count.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use xhc_core::{PartitionEngine, PlanOptions, SplitStrategy};
use xhc_misr::XCancelConfig;
use xhc_scan::{write_xmap, CellId, ScanConfig, XMapBuilder};
use xhc_serve::{client, Server, ServerConfig};
use xhc_wire::{
    encode_plan, encode_plan_request, encode_workload_spec, encode_xmap, hash_hex,
    plan_request_hash_with_options, PlanRequest,
};
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

struct TestServer {
    addr: std::net::SocketAddr,
    handle: xhc_serve::ServerHandle,
    join: Option<thread::JoinHandle<std::io::Result<()>>>,
    store_dir: PathBuf,
}

impl TestServer {
    fn start(tag: &str, engine_threads: usize) -> TestServer {
        TestServer::start_with(tag, engine_threads, false)
    }

    fn start_with(tag: &str, engine_threads: usize, verify_on_write: bool) -> TestServer {
        let store_dir = std::env::temp_dir().join(format!(
            "xhc-loopback-{tag}-{}-{engine_threads}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&store_dir);
        let config = ServerConfig::new(&store_dir)
            .with_threads(engine_threads)
            .with_workers(8)
            .with_verify_on_write(verify_on_write);
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

    fn metric(&self, name: &str) -> u64 {
        let page = client::get(self.addr, "/metrics").expect("scrape metrics");
        assert_eq!(page.status, 200);
        page.body_text()
            .lines()
            .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .expect("metric value")
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

#[test]
fn concurrent_identical_submissions_single_flight() {
    // The acceptance criterion: at every engine thread count, N
    // concurrent clients submitting the same workload get byte-identical
    // wire-encoded plans matching the offline engine, with exactly one
    // cache miss recorded.
    let spec = test_spec();
    let xmap = spec.generate();
    let offline = PartitionEngine::with_options(
        XCancelConfig::new(32, 7),
        PlanOptions {
            strategy: SplitStrategy::LargestClass,
            ..PlanOptions::default()
        },
    )
    .run(&xmap);
    let expected_plan = encode_plan(&offline, xmap.num_patterns());
    let expected_key =
        plan_request_hash_with_options(&encode_xmap(&xmap), 32, 7, &PlanOptions::default());

    for engine_threads in [1, 2, 8] {
        let server = TestServer::start("single-flight", engine_threads);
        let body = encode_xmap(&xmap);
        const CLIENTS: usize = 4;
        let results: Vec<_> = thread::scope(|scope| {
            let mut joins = Vec::new();
            for _ in 0..CLIENTS {
                let body = body.clone();
                let addr = server.addr;
                joins.push(scope.spawn(move || {
                    client::post(
                        addr,
                        "/v1/plan?m=32&q=7&strategy=largest",
                        "application/octet-stream",
                        &body,
                    )
                    .expect("post plan")
                }));
            }
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });

        let mut misses = 0;
        for response in &results {
            assert_eq!(response.status, 200, "{}", response.body_text());
            assert_eq!(
                response.body, expected_plan,
                "daemon plan differs from offline engine at {engine_threads} threads"
            );
            assert_eq!(
                response.header("x-xhc-plan-hash"),
                Some(hash_hex(expected_key).as_str())
            );
            match response.header("x-xhc-cache") {
                Some("miss") => {
                    misses += 1;
                    // A cold plan reports its engine wall time.
                    let ns: u64 = response
                        .header("x-xhc-engine-ns")
                        .expect("miss carries engine time")
                        .parse()
                        .expect("engine ns is an integer");
                    assert!(ns > 0);
                }
                Some("hit") => {
                    assert_eq!(response.header("x-xhc-engine-ns"), None);
                }
                other => panic!("unexpected cache header {other:?}"),
            }
        }
        assert_eq!(misses, 1, "expected exactly one computing client");
        assert_eq!(server.metric("xhc_cache_misses_total"), 1);
        assert_eq!(server.metric("xhc_cache_hits_total"), (CLIENTS - 1) as u64);
        // The engine-seconds summary counts one run per miss, and it is
        // the `plan` stage histogram's count and sum, to the nanosecond.
        assert_eq!(server.metric("xhc_plan_engine_seconds_count"), 1);
        let page = client::get(server.addr, "/metrics").unwrap().body_text();
        let value = |name: &str| {
            page.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
                .unwrap_or_else(|| panic!("metric {name} missing"))
        };
        assert_eq!(
            value("xhc_plan_engine_seconds_count"),
            value("xhc_stage_latency_ns_count{stage=\"plan\"}")
        );
        // Seconds to nine places, so dropping the point gives whole ns.
        let engine_ns: u64 = value("xhc_plan_engine_seconds_sum")
            .replace('.', "")
            .parse()
            .expect("engine seconds");
        let plan_ns: u64 = value("xhc_stage_latency_ns_sum{stage=\"plan\"}")
            .parse()
            .expect("plan stage sum");
        assert_eq!(engine_ns, plan_ns);

        // A resubmission is a pure cache hit.
        let again = client::post(
            server.addr,
            "/v1/plan?m=32&q=7",
            "application/octet-stream",
            &body,
        )
        .unwrap();
        assert_eq!(again.status, 200);
        assert_eq!(again.header("x-xhc-cache"), Some("hit"));
        assert_eq!(again.body, expected_plan);
        assert_eq!(server.metric("xhc_cache_misses_total"), 1);

        // And the plan is addressable by its content hash.
        let fetched =
            client::get(server.addr, &format!("/v1/plan/{}", hash_hex(expected_key))).unwrap();
        assert_eq!(fetched.status, 200);
        assert_eq!(fetched.body, expected_plan);
    }
}

#[test]
fn a_query_parameter_the_route_does_not_read_is_rejected() {
    let server = TestServer::start("query-names", 1);
    let body = encode_xmap(&test_spec().generate());
    let post = |path: &str| {
        let r = client::post(server.addr, path, "application/octet-stream", &body).unwrap();
        (r.status, r.body_text())
    };
    // No route reads `mode`; `max-rounds` is the CLI's spelling of
    // `max_rounds`, so planning it would drop the round cap; `backends`
    // belongs to the race route, and `trace` to the plan route.
    for (route, name, value) in [
        ("/v1/plan", "mode", "async"),
        ("/v1/plan/race", "mode", "async"),
        ("/v1/plan", "max-rounds", "1"),
        ("/v1/plan", "backends", "masking"),
        ("/v1/plan/race", "trace", "1"),
    ] {
        let path = format!("{route}?m=32&q=7&{name}={value}");
        let (status, text) = post(&path);
        assert_eq!(status, 400, "{path}: {text}");
        assert!(
            text.starts_with(&format!("`{name}` is not a parameter of ")),
            "{path}: {text}"
        );
    }
    // Every parameter the scripts, these tests and planbench send.
    for path in [
        "/v1/plan?m=32&q=7&trace=0",
        "/v1/plan?strategy=best-cost",
        "/v1/plan?policy=seeded&seed=3",
        "/v1/plan?policy=global-max-x&cost_stop=0",
        "/v1/plan?m=32&q=7&strategy=best-cost&max_rounds=1",
        "/v1/plan?m=16&q=3&backend=masking",
        "/v1/plan/race?m=16&q=3&backends=masking,hybrid",
    ] {
        let (status, text) = post(path);
        assert_eq!(status, 200, "{path}: {text}");
    }
}

#[test]
fn stage_counts_cover_the_same_requests() {
    // Every plan runs inside the request that asked for it, so after a
    // mix of plans, a race and a non-hybrid report, one engine run is
    // one cache miss and one `total` sample is one routed request: the
    // stage means cover one set of requests.
    let server = TestServer::start("ledger", 1);
    let xmap = encode_xmap(&test_spec().generate());
    let spec = encode_workload_spec(&test_spec());
    for (path, body) in [
        ("/v1/plan?m=32&q=7", &xmap),
        ("/v1/plan?m=32&q=7", &xmap),
        ("/v1/plan?m=16&q=3&policy=seeded&seed=2", &xmap),
        ("/v1/plan?m=16&q=3", &spec),
        ("/v1/plan/race?m=8&q=3", &xmap),
        ("/v1/plan/race?m=32&q=7&backends=hybrid,xcode", &xmap),
        ("/v1/plan?m=32&q=7&backend=canceling", &xmap),
    ] {
        let r = client::post(server.addr, path, "application/octet-stream", body).unwrap();
        assert_eq!(r.status, 200, "{path}: {}", r.body_text());
    }
    assert_eq!(client::get(server.addr, "/healthz").unwrap().status, 200);
    let misses = server.metric("xhc_cache_misses_total");
    assert_eq!(misses, 4, "two maps at two (m, q), one seeded, one race");
    assert_eq!(
        server.metric("xhc_stage_latency_ns_count{stage=\"plan\"}"),
        misses
    );
    // The scrapes count as requests but are not `total` samples: the
    // three above, and this one.
    let total = server.metric("xhc_stage_latency_ns_count{stage=\"total\"}");
    assert_eq!(total, 8);
    assert_eq!(server.metric("xhc_requests_total"), total + 4);
}

#[test]
fn text_and_wire_submissions_share_a_cache_entry() {
    let spec = test_spec();
    let xmap = spec.generate();
    let server = TestServer::start("text-vs-wire", 2);

    let mut text = Vec::new();
    write_xmap(&mut text, &xmap).unwrap();
    let first = client::post(server.addr, "/v1/plan", "text/plain", &text).unwrap();
    assert_eq!(first.status, 200, "{}", first.body_text());
    assert_eq!(first.header("x-xhc-cache"), Some("miss"));
    // A text submission still stores the canonical wire bytes.
    let hash = first.header("x-xhc-plan-hash").unwrap();
    assert_eq!(
        fs::read(server.store_dir.join(format!("{hash}.xmap"))).unwrap(),
        encode_xmap(&xmap)
    );

    // The same X map in wire form hits the same cache entry: the key is
    // computed over the canonical wire bytes, not the submitted ones.
    let wire = encode_xmap(&xmap);
    let second = client::post(server.addr, "/v1/plan", "application/octet-stream", &wire).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-xhc-cache"), Some("hit"));
    assert_eq!(second.body, first.body);
    assert_eq!(
        first.header("x-xhc-plan-hash"),
        second.header("x-xhc-plan-hash")
    );
}

#[test]
fn workload_spec_submissions_plan_the_generated_xmap() {
    let spec = test_spec();
    let server = TestServer::start("spec-body", 2);
    let body = encode_workload_spec(&spec);
    let response = client::post(
        server.addr,
        "/v1/plan?m=16&q=3",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body_text());

    let xmap = spec.generate();
    let offline = PartitionEngine::new(XCancelConfig::new(16, 3)).run(&xmap);
    assert_eq!(response.body, encode_plan(&offline, xmap.num_patterns()));
}

#[test]
fn a_workload_spec_too_large_to_generate_is_refused() {
    // 117 bytes asking for 2^40 cells: the daemon used to call
    // `generate` on it and abort on the failed 8 TiB allocation.
    let server = TestServer::start("huge-spec", 1);
    let huge = WorkloadSpec {
        total_cells: 1 << 40,
        num_chains: 1,
        num_patterns: 1,
        x_cell_fraction: 1.0,
        spatial_clustering: 0.0,
        ..WorkloadSpec::ckt_b()
    };
    let body = encode_workload_spec(&huge);
    assert_eq!(body.len(), 117);
    let r = client::post(
        server.addr,
        "/v1/plan?m=32&q=7",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    assert!((400..500).contains(&r.status), "{}", r.status);
    assert!(r.body_text().contains("word"), "{}", r.body_text());

    // The daemon is still there, and still plans.
    assert_eq!(client::get(server.addr, "/healthz").unwrap().status, 200);
    let r = client::post(
        server.addr,
        "/v1/plan?m=32&q=7",
        "application/octet-stream",
        &encode_workload_spec(&test_spec()),
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body_text());
}

#[test]
fn bad_inputs_map_to_http_errors() {
    let server = TestServer::start("errors", 1);

    // Empty body.
    let r = client::post(server.addr, "/v1/plan", "text/plain", b"").unwrap();
    assert_eq!(r.status, 400);

    // Garbage text.
    let r = client::post(server.addr, "/v1/plan", "text/plain", b"not an xmap").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body_text().contains("bad xmap text"));

    // Wire garbage behind a valid magic.
    let r = client::post(
        server.addr,
        "/v1/plan",
        "application/octet-stream",
        b"XHCW\xFF\xFF\x00\x00",
    )
    .unwrap();
    assert_eq!(r.status, 400);

    // Bad (m, q): lint gate denies q >= m with rendered diagnostics.
    let spec = test_spec();
    let body = encode_xmap(&spec.generate());
    let r = client::post(
        server.addr,
        "/v1/plan?m=8&q=8",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    assert_eq!(r.status, 422);
    assert!(
        r.body_text().contains("XL0305"),
        "expected the (m, q) design rule in: {}",
        r.body_text()
    );

    // Bad query parameter.
    let r = client::post(
        server.addr,
        "/v1/plan?m=zebra",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    assert_eq!(r.status, 400);

    // Unknown plan hash.
    let r = client::get(server.addr, "/v1/plan/0000000000000000").unwrap();
    assert_eq!(r.status, 404);

    // Malformed plan hash.
    let r = client::get(server.addr, "/v1/plan/zzz").unwrap();
    assert_eq!(r.status, 400);

    // Unknown route and wrong method.
    assert_eq!(client::get(server.addr, "/nope").unwrap().status, 404);
    assert_eq!(client::get(server.addr, "/v1/plan").unwrap().status, 405);

    // Health check still fine after all that.
    let r = client::get(server.addr, "/healthz").unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body_text(), "ok\n");
}

#[test]
fn plan_request_bodies_override_query_params() {
    let spec = test_spec();
    let xmap = spec.generate();
    let server = TestServer::start("plan-request", 2);
    let body = encode_plan_request(&PlanRequest {
        m: 16,
        q: 3,
        options: PlanOptions::default(),
        artifact: encode_xmap(&xmap),
    });
    // The query string says (32, 7); the embedded request wins.
    let response = client::post(
        server.addr,
        "/v1/plan?m=32&q=7",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body_text());
    let offline = PartitionEngine::new(XCancelConfig::new(16, 3)).run(&xmap);
    assert_eq!(response.body, encode_plan(&offline, xmap.num_patterns()));
    // Default options collapse to the pre-options cache key, so old
    // store entries stay addressable.
    let expected_key =
        plan_request_hash_with_options(&encode_xmap(&xmap), 16, 3, &PlanOptions::default());
    assert_eq!(
        response.header("x-xhc-plan-hash"),
        Some(hash_hex(expected_key).as_str())
    );
}

#[test]
fn traced_requests_return_plan_bytes_plus_chrome_json() {
    let spec = test_spec();
    let xmap = spec.generate();
    let server = TestServer::start("trace", 2);
    let body = encode_xmap(&xmap);
    let response = client::post(
        server.addr,
        "/v1/plan?m=32&q=7&trace=1",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body_text());
    assert_eq!(response.header("x-xhc-cache"), Some("miss"));
    let plan_len: usize = response
        .header("x-xhc-plan-bytes")
        .expect("traced responses carry the boundary header")
        .parse()
        .expect("boundary is an integer");
    let (plan, json) = response.body.split_at(plan_len);
    let offline = PartitionEngine::new(XCancelConfig::new(32, 7)).run(&xmap);
    assert_eq!(plan, encode_plan(&offline, xmap.num_patterns()).as_slice());
    let json = std::str::from_utf8(json).expect("chrome export is UTF-8");
    assert!(
        json.trim_start().starts_with('['),
        "not a JSON array: {json}"
    );
    assert!(json.contains("\"serve.plan\""), "missing serve span");
    assert!(json.contains("\"partition.run\""), "missing engine span");
    // The stored plan is the untouched first part.
    let hash = response.header("x-xhc-plan-hash").unwrap().to_string();
    let fetched = client::get(server.addr, &format!("/v1/plan/{hash}")).unwrap();
    assert_eq!(fetched.status, 200);
    assert_eq!(fetched.body, plan);
    // An untraced replay of the same request is a plain cache hit with
    // no boundary header.
    let again = client::post(
        server.addr,
        "/v1/plan?m=32&q=7",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    assert_eq!(again.header("x-xhc-cache"), Some("hit"));
    assert_eq!(again.header("x-xhc-plan-bytes"), None);
    assert_eq!(again.body, plan);
}

#[test]
fn verify_route_checks_stored_certificates() {
    let spec = test_spec();
    let xmap = spec.generate();
    let server = TestServer::start_with("verify", 2, true);
    let body = encode_xmap(&xmap);
    let r = client::post(
        server.addr,
        "/v1/plan?m=32&q=7",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    // verify-on-write ran inline and passed, or this would be a 500.
    assert_eq!(r.status, 200, "{}", r.body_text());
    let hash = r.header("x-xhc-plan-hash").unwrap().to_string();
    // The miss stored the canonical X map: exactly `encode_xmap` bytes.
    assert_eq!(
        fs::read(server.store_dir.join(format!("{hash}.xmap"))).unwrap(),
        body
    );

    // The cached plan re-verifies from its stored .cert/.xmap siblings.
    let v = client::get(server.addr, &format!("/v1/plan/{hash}/verify")).unwrap();
    assert_eq!(v.status, 200, "{}", v.body_text());
    assert!(v.body_text().contains("verified"));
    assert_eq!(v.header("x-xhc-plan-hash"), Some(hash.as_str()));

    // Both the write-time and the GET-time checks were counted.
    assert_eq!(server.metric("xhc_verify_total"), 2);
    assert_eq!(server.metric("xhc_verify_failures_total"), 0);

    // Unknown hash 404s; malformed hash 400s.
    let missing = client::get(server.addr, "/v1/plan/0000000000000001/verify").unwrap();
    assert_eq!(missing.status, 404);
    let bad = client::get(server.addr, "/v1/plan/zzz/verify").unwrap();
    assert_eq!(bad.status, 400);

    // Tamper with the stored certificate (re-point its plan hash): the
    // checker must reject it under the XL0401 cross-artifact rule.
    let cert_path = server.store_dir.join(format!("{hash}.cert"));
    let mut cert = xhc_wire::decode_certificate(&fs::read(&cert_path).unwrap()).unwrap();
    cert.plan_hash ^= 1;
    fs::write(&cert_path, xhc_wire::encode_certificate(&cert)).unwrap();
    let v = client::get(server.addr, &format!("/v1/plan/{hash}/verify")).unwrap();
    assert_eq!(v.status, 422, "{}", v.body_text());
    assert!(v.body_text().contains("XL0401"), "{}", v.body_text());
    assert_eq!(server.metric("xhc_verify_failures_total"), 1);

    // A certificate that no longer decodes is a malformed-store 500, not
    // a lint finding.
    fs::write(&cert_path, b"garbage").unwrap();
    let v = client::get(server.addr, &format!("/v1/plan/{hash}/verify")).unwrap();
    assert_eq!(v.status, 500);
}

#[test]
fn distinct_params_get_distinct_cache_entries() {
    let spec = test_spec();
    let xmap = spec.generate();
    let server = TestServer::start("params", 1);
    let body = encode_xmap(&xmap);

    let a = client::post(
        server.addr,
        "/v1/plan?m=32&q=7",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    let b = client::post(
        server.addr,
        "/v1/plan?m=16&q=3",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    let c = client::post(
        server.addr,
        "/v1/plan?m=32&q=7&strategy=best-cost",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    let d = client::post(
        server.addr,
        "/v1/plan?m=32&q=7&policy=global-max-x&cost_stop=0",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    assert_eq!(a.status, 200);
    assert_eq!(b.status, 200);
    assert_eq!(c.status, 200);
    assert_eq!(d.status, 200);
    for r in [&a, &b, &c, &d] {
        assert_eq!(r.header("x-xhc-cache"), Some("miss"));
    }
    assert_ne!(
        a.header("x-xhc-plan-hash"),
        b.header("x-xhc-plan-hash"),
        "(m, q) must be part of the cache key"
    );
    assert_ne!(
        a.header("x-xhc-plan-hash"),
        c.header("x-xhc-plan-hash"),
        "the strategy must be part of the cache key"
    );
    assert_ne!(
        a.header("x-xhc-plan-hash"),
        d.header("x-xhc-plan-hash"),
        "non-default engine options must be part of the cache key"
    );
    assert_eq!(server.metric("xhc_cache_misses_total"), 4);
}

#[test]
fn backends_listing_and_single_backend_reports() {
    use xhc_core::BackendId;

    let xmap = test_spec().generate();
    let body = encode_xmap(&xmap);
    let server = TestServer::start("backends", 2);

    // The roster endpoint lists every backend, with hybrid as the default.
    let listing = client::get(server.addr, "/v1/backends").unwrap();
    assert_eq!(listing.status, 200);
    let text = listing.body_text();
    for id in BackendId::ALL {
        assert!(
            text.contains(&format!("\"id\":\"{id}\"")),
            "missing {id}: {text}"
        );
    }
    assert_eq!(text.matches("\"default\":true").count(), 1, "{text}");
    let method = client::post(server.addr, "/v1/backends", "text/plain", b"x").unwrap();
    assert_eq!(method.status, 405);

    // A non-hybrid backend on /v1/plan answers with its uniform JSON report,
    // matching an in-process run of the same backend bit for bit.
    let response = client::post(
        server.addr,
        "/v1/plan?m=32&q=7&backend=masking",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body_text());
    let text = response.body_text();
    let expected =
        BackendId::MaskingOnly.plan(&xmap, XCancelConfig::new(32, 7), &PlanOptions::default());
    assert!(text.contains("\"backend\":\"masking\""), "{text}");
    assert!(
        text.contains(&format!("\"control_bits\":{:.3}", expected.control_bits)),
        "{text}"
    );

    let bogus = client::post(
        server.addr,
        "/v1/plan?backend=bogus",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    assert_eq!(bogus.status, 400);
    assert!(
        bogus.body_text().contains("backend"),
        "{}",
        bogus.body_text()
    );
}

#[test]
fn race_fans_out_and_hybrid_leg_is_byte_identical_to_single_backend_path() {
    use xhc_core::BackendId;

    let xmap = test_spec().generate();
    let body = encode_xmap(&xmap);
    let expected_key = plan_request_hash_with_options(&body, 32, 7, &PlanOptions::default());
    let offline = PartitionEngine::new(XCancelConfig::new(32, 7)).run(&xmap);
    let offline_bytes = encode_plan(&offline, xmap.num_patterns());
    // Every race row must read what an in-process `BackendId::plan` of the
    // same request reports, number for number.
    let rows: Vec<String> = BackendId::ALL
        .iter()
        .map(|&id| {
            let r = id.plan(&xmap, XCancelConfig::new(32, 7), &PlanOptions::default());
            format!(
                "{{\"backend\":\"{id}\",\"control_bits\":{:.3},\"masked_x\":{},\"leaked_x\":{},\
                 \"lost_observability\":{},\"latency_ns\":",
                r.control_bits, r.masked_x, r.leaked_x, r.lost_observability
            )
        })
        .collect();

    for engine_threads in [1, 2, 8] {
        let server = TestServer::start("race", engine_threads);

        // Race first: the hybrid leg computes cold, persists, and reports
        // the same hash the single-backend path would.
        let race = client::post(
            server.addr,
            "/v1/plan/race?m=32&q=7",
            "application/octet-stream",
            &body,
        )
        .unwrap();
        assert_eq!(race.status, 200, "{}", race.body_text());
        let text = race.body_text();
        for row in &rows {
            assert!(
                text.contains(row.as_str()),
                "threads={engine_threads} cold race lacks {row}: {text}"
            );
        }
        assert!(
            text.contains(&format!("\"plan_hash\":\"{}\"", hash_hex(expected_key))),
            "{text}"
        );
        assert!(text.contains("\"cache\":\"miss\""), "{text}");
        assert!(text.contains("\"pareto\":true"), "{text}");
        assert!(
            text.contains(&format!("\"control_bits\":{:.3}", offline.cost.total())),
            "hybrid leg must report the offline engine's cost: {text}"
        );
        assert_eq!(
            race.header("x-xhc-plan-hash"),
            Some(hash_hex(expected_key).as_str())
        );

        // The plan the race stored IS the single-backend plan: the follow-up
        // /v1/plan submission hits the cache and returns identical bytes.
        let single = client::post(
            server.addr,
            "/v1/plan?m=32&q=7",
            "application/octet-stream",
            &body,
        )
        .unwrap();
        assert_eq!(single.status, 200);
        assert_eq!(
            single.header("x-xhc-cache"),
            Some("hit"),
            "threads={engine_threads}: race must persist the hybrid plan under the plan key"
        );
        assert_eq!(single.body, offline_bytes, "threads={engine_threads}");
        let fetched =
            client::get(server.addr, &format!("/v1/plan/{}", hash_hex(expected_key))).unwrap();
        assert_eq!(fetched.status, 200);
        assert_eq!(fetched.body, offline_bytes);

        // A second race reads the hybrid plan from the cache and reports
        // the same rows.
        let again = client::post(
            server.addr,
            "/v1/plan/race?m=32&q=7",
            "application/octet-stream",
            &body,
        )
        .unwrap();
        assert_eq!(again.status, 200, "{}", again.body_text());
        let text = again.body_text();
        assert!(text.contains("\"cache\":\"hit\""), "{text}");
        for row in &rows {
            assert!(
                text.contains(row.as_str()),
                "threads={engine_threads} cached race lacks {row}: {text}"
            );
        }
    }
}

#[test]
fn race_roster_selection_and_error_paths() {
    let xmap = test_spec().generate();
    let body = encode_xmap(&xmap);
    let server = TestServer::start("race-roster", 2);

    // An explicit roster restricts and dedups the fan-out.
    let race = client::post(
        server.addr,
        "/v1/plan/race?m=32&q=7&backends=masking,canceling,masking",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    assert_eq!(race.status, 200, "{}", race.body_text());
    let text = race.body_text();
    assert_eq!(text.matches("\"backend\":\"masking\"").count(), 1, "{text}");
    assert!(text.contains("\"backend\":\"canceling\""), "{text}");
    assert!(!text.contains("\"backend\":\"hybrid\""), "{text}");

    let bogus = client::post(
        server.addr,
        "/v1/plan/race?backends=bogus",
        "application/octet-stream",
        &body,
    )
    .unwrap();
    assert_eq!(bogus.status, 400);
    assert!(
        bogus.body_text().contains("backend"),
        "{}",
        bogus.body_text()
    );

    let method = client::get(server.addr, "/v1/plan/race").unwrap();
    assert_eq!(method.status, 405);
}

/// A text X map whose only entry addresses cell 9 of a 4-cell design.
const OUT_OF_RANGE_TEXT: &[u8] = b"xmap v1\nchains 2 2\npatterns 4\nx 9 : 0\n";

#[test]
fn rejection_bodies_match_their_goldens() {
    // Byte-for-byte goldens: where lint rules run may change, the
    // answers may not.
    let server = TestServer::start("goldens", 1);
    let body = encode_xmap(&test_spec().generate());
    for path in ["/v1/plan?m=8&q=8", "/v1/plan/race?m=8&q=8"] {
        let r = client::post(server.addr, path, "application/octet-stream", &body).unwrap();
        assert_eq!(r.status, 422, "{path}: {}", r.body_text());
        assert_eq!(
            r.body_text(),
            include_str!("fixtures/lint_422_m8_q8.txt"),
            "{path}"
        );
    }
    let r = client::post(server.addr, "/v1/plan", "text/plain", OUT_OF_RANGE_TEXT).unwrap();
    assert_eq!(r.status, 422);
    assert_eq!(
        r.body_text(),
        include_str!("fixtures/text_422_cell_out_of_range.txt")
    );
}

/// [`OUT_OF_RANGE_TEXT`] in wire form: the canonical encoding of the
/// same map with its X at cell 3, its one cell index then patched to 9.
fn out_of_range_wire() -> Vec<u8> {
    let mut b = XMapBuilder::new(ScanConfig::uniform(2, 2), 4);
    b.add_x(CellId::new(1, 1), 0).unwrap();
    let mut bytes = encode_xmap(&b.finish());
    // 12-byte header, 4 section entries of 12 bytes, the 24-byte chains
    // and meta sections, then the cells section.
    let cells = 12 + 4 * 12 + 24 + 24;
    assert_eq!(bytes[cells..cells + 4], 3u32.to_le_bytes());
    bytes[cells..cells + 4].copy_from_slice(&9u32.to_le_bytes());
    bytes
}

/// A wire map whose cell list repeats cell 2: the canonical encoding of
/// X's at cells 2 and 3, its second cell index then patched to 2.
fn repeated_cell_wire() -> Vec<u8> {
    let mut b = XMapBuilder::new(ScanConfig::uniform(2, 2), 4);
    b.add_x(CellId::new(1, 0), 0).unwrap();
    b.add_x(CellId::new(1, 1), 1).unwrap();
    let mut bytes = encode_xmap(&b.finish());
    let second = 12 + 4 * 12 + 24 + 24 + 4;
    assert_eq!(bytes[second..second + 4], 3u32.to_le_bytes());
    bytes[second..second + 4].copy_from_slice(&2u32.to_le_bytes());
    bytes
}

#[test]
fn text_and_wire_forms_of_a_defect_get_one_status_and_code() {
    let server = TestServer::start("one-code", 1);
    let post = |path: &str, body: &[u8]| {
        let r = client::post(server.addr, path, "application/octet-stream", body).unwrap();
        (r.status, r.body_text())
    };
    let expect = |(status, body): (u16, String), code: &str| {
        assert_eq!(status, 422, "{body}");
        assert!(body.starts_with(&format!("deny[{code}]: ")), "{body}");
    };

    // An X at cell 9 of a 4-cell design, as text and as a wire map.
    expect(post("/v1/plan", OUT_OF_RANGE_TEXT), "XL0202");
    expect(post("/v1/plan", &out_of_range_wire()), "XL0202");

    // Cell 2 listed twice, a pattern listed twice for one cell, and the
    // wire map whose cell list repeats cell 2.
    let repeated_cell = b"xmap v1\nchains 2 2\npatterns 4\nx 2 : 0\nx 2 : 1\n";
    expect(post("/v1/plan", repeated_cell), "XL0203");
    let repeated_pattern = b"xmap v1\nchains 2 2\npatterns 4\nx 2 : 1 1\n";
    expect(post("/v1/plan", repeated_pattern), "XL0203");
    expect(post("/v1/plan", &repeated_cell_wire()), "XL0203");

    // q >= m in the query, and inside a wire plan request.
    let xmap = encode_xmap(&test_spec().generate());
    expect(post("/v1/plan?m=8&q=8", &xmap), "XL0305");
    let request = encode_plan_request(&PlanRequest {
        m: 8,
        q: 8,
        options: PlanOptions::default(),
        artifact: xmap,
    });
    expect(post("/v1/plan", &request), "XL0305");
}

/// Sends `count` `GET /healthz` requests in one write on `stream` and
/// returns how long all `count` responses took to arrive.
fn healthz_burst(stream: &mut TcpStream, count: usize) -> Duration {
    let request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".repeat(count);
    let started = Instant::now();
    stream.write_all(&request).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    while buf.windows(7).filter(|w| w == b"\r\n\r\nok\n").count() < count {
        let n = stream.read(&mut chunk).expect("read healthz responses");
        assert!(n > 0, "closed early: {}", String::from_utf8_lossy(&buf));
        buf.extend_from_slice(&chunk[..n]);
    }
    started.elapsed()
}

#[test]
fn pipelined_pair_is_not_held_by_nagle() {
    // The second response of a pipelined pair is a small write behind an
    // unacknowledged first one. With Nagle on, it waits for this
    // client's delayed ACK (~40 ms); with TCP_NODELAY it leaves at once.
    let server = TestServer::start("nodelay", 1);
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Single requests first, so the connection leaves the kernel's
    // initial quick-ACK phase and delays ACKs like a long-lived client.
    for _ in 0..4 {
        healthz_burst(&mut stream, 1);
    }
    let mut times: Vec<Duration> = (0..5).map(|_| healthz_burst(&mut stream, 2)).collect();
    times.sort();
    assert!(
        times[2] < Duration::from_millis(20),
        "median pipelined pair took {:?} (all: {times:?})",
        times[2]
    );
}
