//! Bench: end-to-end plan latency through the xhc-serve daemon over a
//! loopback socket — a cold request (engine runs), a cache hit (plan
//! served from the content-addressed store), and a raw fetch by hash.
//!
//! The cold case deletes the cached plan file before every iteration so
//! each request pays the full decode + lint + plan + encode pipeline;
//! the spread between cold and hit is what the cache buys.

use std::thread;

use xhc_bench::timing::{black_box, Harness};
use xhc_core::PlanOptions;
use xhc_serve::{client, PlanStore, Server, ServerConfig};
use xhc_wire::{encode_xmap, hash_hex, plan_request_hash_with_options};
use xhc_workload::WorkloadSpec;

fn main() {
    let mut h = Harness::from_args("serve_latency");

    let store_dir = std::env::temp_dir().join(format!("xhc-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let config = ServerConfig::new(&store_dir).with_workers(4);
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = thread::spawn(move || server.run());

    let spec = WorkloadSpec {
        total_cells: 800,
        num_chains: 8,
        num_patterns: 96,
        seed: 0xBEEF,
        ..WorkloadSpec::default()
    };
    let body = encode_xmap(&spec.generate());
    let key = plan_request_hash_with_options(&body, 32, 7, &PlanOptions::default());
    let cached = PlanStore::open(&store_dir)
        .expect("open store")
        .path_for(key);
    let path = "/v1/plan?m=32&q=7&strategy=largest";

    h.bench("plan/cold", || {
        let _ = std::fs::remove_file(&cached);
        let r = client::post(addr, path, "application/octet-stream", black_box(&body))
            .expect("post plan");
        assert_eq!(r.status, 200, "{}", r.body_text());
        black_box(r.body.len())
    });

    // Warm the cache once, then every request is a pure store read.
    let warm = client::post(addr, path, "application/octet-stream", &body).expect("warm cache");
    assert_eq!(warm.status, 200);
    h.bench("plan/cache_hit", || {
        let r = client::post(addr, path, "application/octet-stream", black_box(&body))
            .expect("post plan");
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-xhc-cache"), Some("hit"));
        black_box(r.body.len())
    });

    let fetch_path = format!("/v1/plan/{}", hash_hex(key));
    h.bench("fetch/by_hash", || {
        let r = client::get(addr, black_box(&fetch_path)).expect("fetch plan");
        assert_eq!(r.status, 200);
        black_box(r.body.len())
    });

    handle.shutdown();
    let _ = join.join();
    let _ = std::fs::remove_dir_all(&store_dir);
}
