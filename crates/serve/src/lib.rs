//! `xhc-serve`: the planning daemon.
//!
//! A std-only HTTP/1.1 service that turns X maps (or workload specs)
//! into partition plans, caches every plan in a content-addressed
//! on-disk store keyed by [`xhc_wire::plan_request_hash`], and exposes
//! plaintext metrics. Zero external dependencies: an `xhc-aio` event
//! loop over `std::net` sockets, a fixed worker pool, and the
//! workspace's own crates for everything else.
//!
//! # Front end
//!
//! [`Server::run`] drives a single event-loop thread (epoll on Linux, a
//! portable polling fallback elsewhere) that owns every connection:
//! nonblocking accept, incremental request parsing with HTTP/1.1
//! keep-alive and pipelining, per-connection read/write deadlines on a
//! timer wheel (a stalled request answers `408`), and graceful drain on
//! shutdown (in-flight requests finish, new ones answer `503`).
//! Complete requests pass admission control — a bounded job queue plus
//! an in-flight ceiling — and are executed by the worker pool; an
//! overloaded daemon sheds with `429` and a `Retry-After` derived from
//! the observed queue-wait p95 instead of queueing without bound.
//! [`Server::run_blocking`] keeps the original thread-per-request
//! front end (one blocking read with [`ServerConfig::read_timeout_ms`]
//! as the socket timeout, `Connection: close` semantics) behind the
//! same routing and planning stack.
//!
//! Concurrent submissions that share a workload but differ in engine
//! options additionally share one packed bit-matrix build (the
//! dominant setup cost of a `best-cost` plan): the first arrival packs,
//! the rest reuse the same in-memory matrix, observable as
//! `xhc_batched_total` on `/metrics` and the `serve.batched` trace
//! counter. With [`ServerConfig::with_push_metrics`] the daemon also
//! pushes its counters as Influx line protocol to an HTTP collector on
//! an interval (`XHC_PUSH_INTERVAL_MS`, default 2000).
//!
//! # Routes
//!
//! | Route | Method | Behaviour |
//! |-------|--------|-----------|
//! | `/v1/plan?m=&q=&strategy=&policy=&seed=&max_rounds=&cost_stop=&backend=&mode=&trace=` | POST | Body is a wire-encoded X map, workload spec or plan request, or `xmap v1` text. Lints it, plans it (or serves the cached plan) and returns the wire-encoded plan. `mode=async` returns `202` and a job id instead. A non-hybrid `backend=` answers with that backend's uniform JSON report. |
//! | `/v1/plan/race?...&backends=` | POST | Same body and parameters as `/v1/plan`; fans the submission across the requested backend set (`backends=` comma list, default all) and returns the JSON control-bit/latency table with Pareto-frontier flags. The hybrid leg shares the plan store, single-flight set and matrix pool with `/v1/plan`, so its plan is byte-identical and cached under the same address. |
//! | `/v1/backends` | GET | JSON capability listing of every planning backend. |
//! | `/v1/plan/{hash}` | GET | Fetches a cached plan by its 16-hex content address. |
//! | `/v1/plan/{hash}/verify` | GET | Re-checks the cached plan against its stored certificate and X map with the `xhc-verify` static checker: `200` when clean, `422` with the rendered XL04xx findings otherwise. |
//! | `/v1/jobs/{id}` | GET | Status of an async job. |
//! | `/healthz` | GET | Liveness probe. |
//! | `/metrics` | GET | Plaintext counters and latency histograms. |
//!
//! Every plan response carries `X-Xhc-Plan-Hash` (the cache key) and
//! `X-Xhc-Cache: hit|miss`; a miss additionally carries
//! `X-Xhc-Engine-Ns`, the partition-engine wall time of that cold plan
//! (the cumulative figure is `xhc_plan_engine_seconds` on `/metrics`).
//! Identical concurrent submissions are
//! *single-flighted*: one computes, the rest wait and read the store, so
//! the cache-miss counter increments exactly once per distinct request.
//!
//! A wire-encoded [`xhc_wire::PlanRequest`] body carries its own cancel
//! parameters and [`xhc_core::PlanOptions`], which override the query
//! string (the engine thread count stays server-controlled). Every other
//! body takes its options from the query: `policy` is `first`, `seeded`
//! (with `seed=<u64>`) or `global-max-x`; `max_rounds` caps the round
//! count; `cost_stop=0` disables the cost-based stop; `backend` picks the
//! planning backend by its stable token (default `hybrid`).
//!
//! Bodies are framed by `Content-Length` only: a request declaring
//! `Transfer-Encoding: chunked` (or any other transfer coding) is
//! rejected with an explicit `501 Not Implemented` and a diagnostic body
//! on both front ends, instead of surfacing as a generic parse failure.
//!
//! `trace=1` on a synchronous request records the request under the
//! process-wide [`xhc_trace`] session (first caller wins; concurrent
//! traced requests proceed untraced). The response body is then the plan
//! bytes followed by the chrome://tracing JSON export, with
//! `X-Xhc-Plan-Bytes` giving the byte offset of the boundary; the stored
//! plan bytes are unchanged.
//!
//! Decoded artifacts pass through the `xhc-lint` gate before planning —
//! any `Deny` finding short-circuits into HTTP `422` with the rendered
//! diagnostics, so the engine only ever sees inputs it cannot panic on.
//!
//! Every cold plan is *certified*: the daemon emits a
//! [`xhc_wire::PlanCertificate`] alongside the plan and persists it (plus
//! the canonical X map) as `.cert` / `.xmap` siblings in the store, so
//! the verify route can re-check any cached plan offline. With
//! [`ServerConfig::with_verify_on_write`] the checker additionally runs
//! inline before the plan is stored or returned — a failed check becomes
//! HTTP `500` (it indicates an engine/certifier bug, not a client error)
//! and increments `xhc_verify_failures_total`.
//!
//! # Example
//!
//! ```no_run
//! use std::path::Path;
//! use xhc_serve::{Server, ServerConfig};
//!
//! let config = ServerConfig::new(Path::new("/tmp/plans"));
//! let server = Server::bind("127.0.0.1:0", config).unwrap();
//! println!("listening on {}", server.local_addr());
//! server.run().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod event_loop;
mod http;
mod jobs;
mod metrics;
mod push;
mod store;

pub mod client;

pub use batch::MatrixPool;
pub use http::{ParseError, ReadRequestError, Request, Response, MAX_BODY_BYTES};
pub use jobs::{JobRegistry, JobStatus};
pub use store::PlanStore;

use metrics::Metrics;

use std::collections::HashSet;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use xhc_aio::queue::JobQueue;
use xhc_aio::Waker;
use xhc_bits::XBitMatrix;

use xhc_core::{
    backend_for, BackendId, CellSelection, HybridBackend, PartitionEngine, PlanOptions,
    SplitStrategy, WorkloadInput,
};
use xhc_lint::{check_cancel_params, check_xmap, LintConfig, LintReport};
use xhc_misr::XCancelConfig;
use xhc_scan::{read_xmap, XMap};
use xhc_wire::{
    decode_plan, decode_plan_request, decode_workload_spec, decode_xmap, encode_plan, encode_xmap,
    hash_hex, parse_hash_hex, peek_kind, plan_request_hash_with_options, Kind, MAGIC,
};

/// How the daemon is configured.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory of the content-addressed plan store.
    pub store_dir: PathBuf,
    /// Engine threads per plan (`0` = [`xhc_par::max_threads`]).
    pub threads: usize,
    /// HTTP worker threads.
    pub workers: usize,
    /// Run the `xhc-verify` checker on every fresh plan's certificate
    /// before it is stored or returned (off by default: certificates are
    /// always emitted and persisted; this adds the inline check).
    pub verify_on_write: bool,
    /// How long a connection may sit between bytes of a request before
    /// it is timed out (`408`); also the idle keep-alive lifetime.
    pub read_timeout_ms: u64,
    /// Admission ceiling: requests simultaneously queued or executing
    /// before the daemon sheds with `429`.
    pub max_inflight: usize,
    /// Bounded job-queue depth between the event loop and the workers.
    pub queue_depth: usize,
    /// Push-metrics collector (`http://host:port/path`); `None` = off.
    pub push_metrics: Option<String>,
}

impl ServerConfig {
    /// A config with defaults: engine threads from `XHC_THREADS`, four
    /// HTTP workers, 10 s read timeout, 256 in-flight requests over a
    /// 128-deep job queue, no metrics push.
    pub fn new(store_dir: &Path) -> ServerConfig {
        ServerConfig {
            store_dir: store_dir.to_path_buf(),
            threads: 0,
            workers: 4,
            verify_on_write: false,
            read_timeout_ms: 10_000,
            max_inflight: 256,
            queue_depth: 128,
            push_metrics: None,
        }
    }

    /// Overrides the engine thread count (`0` = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> ServerConfig {
        self.threads = threads;
        self
    }

    /// Overrides the HTTP worker count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> ServerConfig {
        self.workers = workers.max(1);
        self
    }

    /// Enables (or disables) verifying every fresh plan's certificate
    /// inline before it is stored.
    #[must_use]
    pub fn with_verify_on_write(mut self, verify_on_write: bool) -> ServerConfig {
        self.verify_on_write = verify_on_write;
        self
    }

    /// Overrides the per-connection read timeout (clamped to ≥ 10 ms so
    /// a handshake always has a chance to land).
    #[must_use]
    pub fn with_read_timeout_ms(mut self, read_timeout_ms: u64) -> ServerConfig {
        self.read_timeout_ms = read_timeout_ms.max(10);
        self
    }

    /// Overrides the admission ceiling (clamped to at least 1).
    #[must_use]
    pub fn with_max_inflight(mut self, max_inflight: usize) -> ServerConfig {
        self.max_inflight = max_inflight.max(1);
        self
    }

    /// Overrides the job-queue depth (clamped to at least 1).
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> ServerConfig {
        self.queue_depth = queue_depth.max(1);
        self
    }

    /// Pushes metrics as Influx line protocol to `url`
    /// (`http://host:port/path`) every `XHC_PUSH_INTERVAL_MS`
    /// milliseconds (default 2000) while the server runs.
    #[must_use]
    pub fn with_push_metrics(mut self, url: impl Into<String>) -> ServerConfig {
        self.push_metrics = Some(url.into());
        self
    }
}

/// The stable wire code of a split strategy (persisted inside cache keys,
/// so the mapping must never change). Delegates to
/// [`xhc_wire::strategy_code`], which owns the pinned table.
pub fn strategy_code(strategy: SplitStrategy) -> u8 {
    xhc_wire::strategy_code(strategy)
}

/// Parses the strategy names the CLI and the query string share.
pub fn parse_strategy(s: &str) -> Option<SplitStrategy> {
    match s {
        "largest" => Some(SplitStrategy::LargestClass),
        "best-cost" => Some(SplitStrategy::BestCost),
        _ => None,
    }
}

/// Parses the cell-selection policy names the CLI and the query string
/// share; `seed` is the stream seed a `seeded` policy binds.
pub fn parse_policy(s: &str, seed: u64) -> Option<CellSelection> {
    match s {
        "first" => Some(CellSelection::First),
        "seeded" => Some(CellSelection::Seeded(seed)),
        "global-max-x" => Some(CellSelection::GlobalMaxX),
        _ => None,
    }
}

/// Parses the backend tokens the CLI and the query string share — the
/// stable [`BackendId::name`] values (`hybrid`, `masking`, `canceling`,
/// `superset`, `xcode`).
pub fn parse_backend(s: &str) -> Option<BackendId> {
    BackendId::parse(s)
}

/// The `expected one of ...` tail of a bad-backend diagnostic.
fn backend_name_list() -> String {
    let names: Vec<&str> = BackendId::ALL.iter().map(|b| b.name()).collect();
    names.join(", ")
}

/// A parsed request travelling from the event loop to the worker pool.
struct Job {
    /// Connection slot in the event loop's table.
    slot: usize,
    /// Slot generation, so a recycled slot never sees a stale response.
    generation: u64,
    request: Request,
    /// Whether the client asked to keep the connection open.
    keep_alive: bool,
    queued_at: Instant,
}

/// Rendered response bytes travelling back from a worker.
struct Completion {
    slot: usize,
    generation: u64,
    bytes: Vec<u8>,
    /// Close the connection after writing (client sent
    /// `Connection: close`).
    close: bool,
}

/// Shared mutable state behind every worker.
struct ServerState {
    config: ServerConfig,
    metrics: Metrics,
    store: PlanStore,
    jobs: JobRegistry,
    inflight: Mutex<HashSet<u64>>,
    inflight_cv: Condvar,
    shutdown: AtomicBool,
    /// Event-loop → worker job queue (bounded: its capacity is the
    /// backpressure signal admission control keys off).
    jobs_queue: JobQueue<Job>,
    /// Worker → event-loop completions, drained after every poll.
    completions: Mutex<Vec<Completion>>,
    /// The event loop's waker, present while [`Server::run`] is live; a
    /// shutdown pokes it so the loop observes the flag immediately.
    waker: Mutex<Option<Waker>>,
    /// Requests currently queued or executing (admission ceiling).
    inflight_jobs: AtomicU64,
    /// Shared packed-matrix builds for concurrent same-workload plans.
    matrix_pool: MatrixPool,
}

/// A handle for observing and stopping a running [`Server`] from another
/// thread.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the serving loop to stop. Idempotent; returns once the flag
    /// is set. The event loop is woken directly and drains gracefully;
    /// the blocking accept loop is unblocked with a throwaway
    /// connection.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        let waker = self
            .state
            .waker
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        if let Some(waker) = waker {
            waker.wake();
        }
        // Unblock a blocking accept loop with a throwaway connection (a
        // no-op for the event loop, which sheds it during drain).
        let _ = TcpStream::connect(self.addr);
    }
}

/// The planning daemon: a bound listener plus its shared state.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds to `addr` and opens the plan store.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the bind or the store-open
    /// fails.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let store = PlanStore::open(&config.store_dir)?;
        let jobs_queue = JobQueue::new(config.queue_depth.max(1));
        let state = Arc::new(ServerState {
            config,
            metrics: Metrics::default(),
            store,
            jobs: JobRegistry::default(),
            inflight: Mutex::new(HashSet::new()),
            inflight_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs_queue,
            completions: Mutex::new(Vec::new()),
            waker: Mutex::new(None),
            inflight_jobs: AtomicU64::new(0),
            matrix_pool: MatrixPool::default(),
        });
        Ok(Server {
            listener,
            addr,
            state,
        })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for shutting the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            state: Arc::clone(&self.state),
        }
    }

    /// Runs the event-loop front end until [`ServerHandle::shutdown`] is
    /// called: one loop thread multiplexes every connection (keep-alive,
    /// pipelining, read/write deadlines, admission control) while the
    /// worker pool plans. Shutdown drains gracefully: in-flight requests
    /// finish, new ones answer `503`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the poller or the listener
    /// fails.
    pub fn run(self) -> io::Result<()> {
        let pusher = push::spawn_exporter(&self.state, self.addr);
        let result = event_loop::run_event_loop(self.listener, Arc::clone(&self.state));
        if let Some(pusher) = pusher {
            let _ = pusher.join();
        }
        result
    }

    /// Runs the original blocking front end: one connection per worker,
    /// one request per connection (`Connection: close`). Kept as the
    /// reference implementation the event loop is tested against, and
    /// as the conservative fallback for unusual platforms.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if `accept` fails.
    pub fn run_blocking(self) -> io::Result<()> {
        let pusher = push::spawn_exporter(&self.state, self.addr);
        let (tx, rx) = mpsc::channel::<(TcpStream, Instant)>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(self.state.config.workers);
        for _ in 0..self.state.config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            workers.push(thread::spawn(move || loop {
                let (stream, queued_at) = match rx.lock().expect("worker queue poisoned").recv() {
                    Ok(s) => s,
                    Err(_) => break, // accept loop gone
                };
                state.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                state
                    .metrics
                    .queue_wait_ns
                    .record_ns(queued_at.elapsed().as_nanos() as u64);
                handle_connection(&state, stream);
            }));
        }
        for incoming in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = incoming?;
            self.state
                .metrics
                .queue_depth
                .fetch_add(1, Ordering::Relaxed);
            if tx.send((stream, Instant::now())).is_err() {
                break;
            }
        }
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        if let Some(pusher) = pusher {
            let _ = pusher.join();
        }
        Ok(())
    }
}

/// Spawns the planning workers behind the event loop's job queue. Each
/// worker pops, plans, renders, hands the bytes back through the
/// completion list and pokes the loop; they exit when the queue is
/// closed and drained.
fn spawn_workers(state: &Arc<ServerState>, waker: &Waker) -> Vec<thread::JoinHandle<()>> {
    let mut workers = Vec::with_capacity(state.config.workers.max(1));
    for _ in 0..state.config.workers.max(1) {
        let state = Arc::clone(state);
        let waker = waker.clone();
        workers.push(thread::spawn(move || {
            while let Some(job) = state.jobs_queue.pop() {
                state.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                state
                    .metrics
                    .queue_wait_ns
                    .record_ns(job.queued_at.elapsed().as_nanos() as u64);
                let response = process_request(&state, &job.request);
                let close = !job.keep_alive;
                let bytes = http::render_response(&response, !close);
                state.inflight_jobs.fetch_sub(1, Ordering::Relaxed);
                state
                    .completions
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(Completion {
                        slot: job.slot,
                        generation: job.generation,
                        bytes,
                        close,
                    });
                waker.wake();
                // Hand this thread's spans to any live trace session so
                // in-process tests and `trace=1` recordings see them.
                xhc_trace::flush_thread();
            }
        }));
    }
    workers
}

/// Routes one parsed request and accounts for it — the front-end-neutral
/// core shared by the event loop's workers and the blocking path.
fn process_request(state: &Arc<ServerState>, request: &Request) -> Response {
    state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    let response = match route(state, request) {
        Ok(r) => r,
        Err(e) => Response::text(e.status, format!("{}\n", e.message.trim_end())),
    };
    state
        .metrics
        .total_ns
        .record_ns(started.elapsed().as_nanos() as u64);
    state.metrics.count_status(response.status);
    response
}

/// How long a shed client should back off: the observed queue-wait p95
/// times the work currently ahead of it, spread over the workers,
/// clamped to `1..=60` seconds (`Retry-After` on `429`).
fn retry_after_secs(state: &ServerState) -> u64 {
    let p95_ns = state.metrics.queue_wait_ns.quantile_ns(0.95);
    let pending = state.jobs_queue.len() as u64 + 1;
    let workers = state.config.workers.max(1) as u64;
    let estimate_ns = p95_ns.saturating_mul(pending) / workers;
    estimate_ns.div_ceil(1_000_000_000).clamp(1, 60)
}

/// A routing failure carrying the HTTP status it maps to.
struct HandlerError {
    status: u16,
    message: String,
}

impl HandlerError {
    fn new(status: u16, message: impl Into<String>) -> HandlerError {
        HandlerError {
            status,
            message: message.into(),
        }
    }
}

fn handle_connection(state: &Arc<ServerState>, mut stream: TcpStream) {
    // The blocking front end's slow-loris defence: a socket timeout, so
    // a stalled sender costs one worker at most `read_timeout_ms`.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        state.config.read_timeout_ms.max(10),
    )));
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(http::ReadRequestError::Closed) => return,
        Err(http::ReadRequestError::Bad(e)) => {
            // 400 for malformed bytes, 501 for valid HTTP using an
            // unsupported feature (chunked transfer coding) — the same
            // split the event-loop front end applies.
            state.metrics.count_status(e.status);
            let _ = http::write_response(&mut stream, &Response::text(e.status, format!("{e}\n")));
            return;
        }
        Err(http::ReadRequestError::Io(e))
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            state.metrics.timeouts_total.fetch_add(1, Ordering::Relaxed);
            state.metrics.count_status(408);
            let _ = http::write_response(
                &mut stream,
                &Response::text(408, "request timed out waiting for bytes\n"),
            );
            return;
        }
        Err(http::ReadRequestError::Io(_)) => return,
    };
    let response = process_request(state, &request);
    let _ = http::write_response(&mut stream, &response);
}

fn route(state: &Arc<ServerState>, request: &Request) -> Result<Response, HandlerError> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Ok(Response::text(200, "ok\n")),
        ("GET", "/metrics") => Ok(Response::text(200, state.metrics.render())),
        ("POST", "/v1/plan") => plan_endpoint(state, request),
        ("POST", "/v1/plan/race") => race_endpoint(state, request),
        ("GET", "/v1/backends") => Ok(backends_endpoint()),
        // Before the `/v1/plan/` prefix arms: `race` is not a plan hash.
        (_, "/v1/plan/race") | (_, "/v1/backends") => {
            Err(HandlerError::new(405, "method not allowed"))
        }
        ("GET", path) if path.starts_with("/v1/plan/") && path.ends_with("/verify") => {
            verify_endpoint(
                state,
                &path["/v1/plan/".len()..path.len() - "/verify".len()],
            )
        }
        ("GET", path) if path.starts_with("/v1/plan/") => {
            fetch_endpoint(state, &path["/v1/plan/".len()..])
        }
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            jobs_endpoint(state, &path["/v1/jobs/".len()..])
        }
        (_, "/v1/plan") | (_, "/healthz") | (_, "/metrics") => {
            Err(HandlerError::new(405, "method not allowed"))
        }
        _ => Err(HandlerError::new(404, "no such route")),
    }
}

fn fetch_endpoint(state: &ServerState, hex: &str) -> Result<Response, HandlerError> {
    let key = parse_hash_hex(hex)
        .ok_or_else(|| HandlerError::new(400, format!("`{hex}` is not a 16-hex plan hash")))?;
    let bytes = state
        .store
        .load(key)
        .map_err(|e| HandlerError::new(500, format!("store read failed: {e}")))?
        .ok_or_else(|| HandlerError::new(404, format!("no plan stored under {hex}")))?;
    Ok(Response::new(200, "application/octet-stream", bytes)
        .with_header("X-Xhc-Plan-Hash", hash_hex(key)))
}

/// `GET /v1/plan/{hash}/verify`: re-checks a cached plan against its
/// stored certificate and canonical X map. The checker shares no code
/// with the engine, so a clean pass is independent evidence the stored
/// plan is what its certificate claims.
fn verify_endpoint(state: &ServerState, hex: &str) -> Result<Response, HandlerError> {
    let key = parse_hash_hex(hex)
        .ok_or_else(|| HandlerError::new(400, format!("`{hex}` is not a 16-hex plan hash")))?;
    let store_err = |e: io::Error| HandlerError::new(500, format!("store read failed: {e}"));
    let plan_bytes = state
        .store
        .load(key)
        .map_err(store_err)?
        .ok_or_else(|| HandlerError::new(404, format!("no plan stored under {hex}")))?;
    let cert_bytes = state
        .store
        .load_ext(key, "cert")
        .map_err(store_err)?
        .ok_or_else(|| HandlerError::new(404, format!("no certificate stored under {hex}")))?;
    let xmap_bytes = state
        .store
        .load_ext(key, "xmap")
        .map_err(store_err)?
        .ok_or_else(|| HandlerError::new(404, format!("no X map stored under {hex}")))?;
    let started = Instant::now();
    state.metrics.verify_total.fetch_add(1, Ordering::Relaxed);
    let report = xhc_lint::check_certificate_artifacts(
        &LintConfig::default(),
        &cert_bytes,
        &plan_bytes,
        &xmap_bytes,
    )
    .map_err(|e| HandlerError::new(500, format!("stored artifacts are malformed: {e}")))?;
    state
        .metrics
        .verify_ns
        .record_ns(started.elapsed().as_nanos() as u64);
    if report.has_deny() {
        state
            .metrics
            .verify_failures
            .fetch_add(1, Ordering::Relaxed);
        return Err(HandlerError::new(422, report.render_human()));
    }
    Ok(Response::text(
        200,
        "verified: certificate matches plan, X map and cost model\n",
    )
    .with_header("X-Xhc-Plan-Hash", hash_hex(key)))
}

fn jobs_endpoint(state: &ServerState, raw_id: &str) -> Result<Response, HandlerError> {
    let id: u64 = raw_id
        .parse()
        .map_err(|_| HandlerError::new(400, format!("`{raw_id}` is not a job id")))?;
    let status = state
        .jobs
        .get(id)
        .ok_or_else(|| HandlerError::new(404, format!("no job {id}")))?;
    Ok(Response::new(
        200,
        "application/json",
        status.render(id).into_bytes(),
    ))
}

/// The validated parameters of one plan request. `options.threads` is
/// always left at `0` here: the engine thread count belongs to the
/// server, not the client (see [`run_engine`]).
struct PlanParams {
    m: usize,
    q: usize,
    options: PlanOptions,
    asynchronous: bool,
    trace: bool,
}

fn parse_plan_params(request: &Request) -> Result<PlanParams, HandlerError> {
    let parse_num = |name: &str, default: usize| -> Result<usize, HandlerError> {
        match request.query_param(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| HandlerError::new(400, format!("`{raw}` is not a valid `{name}`"))),
        }
    };
    let m = parse_num("m", 32)?;
    let q = parse_num("q", 7)?;
    let strategy = match request.query_param("strategy") {
        None => SplitStrategy::LargestClass,
        Some(raw) => parse_strategy(raw).ok_or_else(|| {
            HandlerError::new(
                400,
                format!("`{raw}` is not a strategy (expected `largest` or `best-cost`)"),
            )
        })?,
    };
    let seed = match request.query_param("seed") {
        None => None,
        Some(raw) => Some(
            raw.parse::<u64>()
                .map_err(|_| HandlerError::new(400, format!("`{raw}` is not a valid `seed`")))?,
        ),
    };
    let policy = match request.query_param("policy") {
        None => CellSelection::First,
        Some(raw) => parse_policy(raw, seed.unwrap_or(0)).ok_or_else(|| {
            HandlerError::new(
                400,
                format!("`{raw}` is not a policy (expected `first`, `seeded` or `global-max-x`)"),
            )
        })?,
    };
    if seed.is_some() && !matches!(policy, CellSelection::Seeded(_)) {
        return Err(HandlerError::new(
            400,
            "`seed` requires `policy=seeded`".to_string(),
        ));
    }
    let max_rounds =
        match request.query_param("max_rounds") {
            None => None,
            Some(raw) => Some(raw.parse::<usize>().map_err(|_| {
                HandlerError::new(400, format!("`{raw}` is not a valid `max_rounds`"))
            })?),
        };
    let cost_stop = match request.query_param("cost_stop") {
        None | Some("1") => true,
        Some("0") => false,
        Some(raw) => {
            return Err(HandlerError::new(
                400,
                format!("`{raw}` is not a valid `cost_stop` (expected `0` or `1`)"),
            ))
        }
    };
    let backend = match request.query_param("backend") {
        None => BackendId::default(),
        Some(raw) => parse_backend(raw).ok_or_else(|| {
            HandlerError::new(
                400,
                format!(
                    "`{raw}` is not a backend (expected one of {})",
                    backend_name_list()
                ),
            )
        })?,
    };
    let asynchronous = match request.query_param("mode") {
        None | Some("sync") => false,
        Some("async") => true,
        Some(raw) => {
            return Err(HandlerError::new(
                400,
                format!("`{raw}` is not a mode (expected `sync` or `async`)"),
            ))
        }
    };
    let trace = match request.query_param("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(raw) => {
            return Err(HandlerError::new(
                400,
                format!("`{raw}` is not a valid `trace` (expected `0` or `1`)"),
            ))
        }
    };
    Ok(PlanParams {
        m,
        q,
        options: PlanOptions {
            strategy,
            policy,
            max_rounds,
            cost_stop,
            backend,
            ..PlanOptions::default()
        },
        asynchronous,
        trace,
    })
}

/// Decodes a nested plan-request artifact (already kind-checked by
/// `decode_plan_request` to be an X map or workload spec).
fn decode_nested_artifact(artifact: &[u8]) -> Result<XMap, HandlerError> {
    match peek_kind(artifact) {
        Ok(Kind::XMap) => decode_xmap(artifact)
            .map_err(|e| HandlerError::new(400, format!("bad nested xmap: {e}"))),
        Ok(Kind::WorkloadSpec) => decode_workload_spec(artifact)
            .map(|spec| spec.generate())
            .map_err(|e| HandlerError::new(400, format!("bad nested workload spec: {e}"))),
        Ok(kind) => Err(HandlerError::new(
            400,
            format!("cannot plan from a nested {kind} artifact"),
        )),
        Err(e) => Err(HandlerError::new(400, format!("bad nested artifact: {e}"))),
    }
}

/// Decodes a plan-request body into an X map: wire-encoded X map,
/// wire-encoded workload spec (generated deterministically from its
/// seed), wire-encoded plan request (whose embedded `(m, q)` and engine
/// options overwrite `params`), or `xmap v1` text.
fn decode_request_xmap(
    state: &ServerState,
    body: &[u8],
    params: &mut PlanParams,
) -> Result<XMap, HandlerError> {
    let started = Instant::now();
    let span = xhc_trace::span("serve.decode");
    let result = if body.starts_with(&MAGIC) {
        match peek_kind(body) {
            Ok(Kind::XMap) => decode_xmap(body)
                .map_err(|e| HandlerError::new(400, format!("bad xmap buffer: {e}"))),
            Ok(Kind::WorkloadSpec) => decode_workload_spec(body)
                .map(|spec| spec.generate())
                .map_err(|e| HandlerError::new(400, format!("bad workload-spec buffer: {e}"))),
            Ok(Kind::PlanRequest) => decode_plan_request(body)
                .map_err(|e| HandlerError::new(400, format!("bad plan-request buffer: {e}")))
                .and_then(|req| {
                    params.m = req.m;
                    params.q = req.q;
                    // The thread count stays server-side even when the
                    // request carries one: the outcome is thread-count
                    // invariant, and worker sizing is an operator concern.
                    params.options = PlanOptions {
                        threads: 0,
                        ..req.options
                    };
                    decode_nested_artifact(&req.artifact)
                }),
            Ok(kind) => Err(HandlerError::new(
                400,
                format!("cannot plan from a {kind} artifact"),
            )),
            Err(e) => Err(HandlerError::new(400, format!("bad wire buffer: {e}"))),
        }
    } else {
        read_xmap(body).map_err(|e| HandlerError::new(400, format!("bad xmap text: {e}")))
    };
    drop(span);
    state
        .metrics
        .decode_ns
        .record_ns(started.elapsed().as_nanos() as u64);
    result
}

/// Runs the lint gate; `Deny` findings become HTTP 422 with the rendered
/// diagnostics as the body.
fn lint_gate(state: &ServerState, xmap: &XMap, m: usize, q: usize) -> Result<(), HandlerError> {
    let started = Instant::now();
    let span = xhc_trace::span("serve.lint");
    let lint_config = LintConfig::default();
    let mut report: LintReport = check_xmap(&lint_config, xmap);
    report.merge(check_cancel_params(&lint_config, m, q));
    drop(span);
    state
        .metrics
        .lint_ns
        .record_ns(started.elapsed().as_nanos() as u64);
    if report.has_deny() {
        return Err(HandlerError::new(422, report.render_human()));
    }
    Ok(())
}

fn plan_endpoint(state: &Arc<ServerState>, request: &Request) -> Result<Response, HandlerError> {
    let mut params = parse_plan_params(request)?;
    if request.body.is_empty() {
        return Err(HandlerError::new(400, "empty request body"));
    }
    // Claim the process-wide trace session before decoding so every stage
    // span of this request lands in the recording. Busy (another traced
    // request is in flight) or async mode -> proceed untraced.
    let trace_session = if params.trace && !params.asynchronous {
        xhc_trace::TraceSession::begin()
    } else {
        None
    };
    let xmap = decode_request_xmap(state, &request.body, &mut params)?;
    lint_gate(state, &xmap, params.m, params.q)?;

    let canonical = encode_xmap(&xmap);
    let key = plan_request_hash_with_options(&canonical, params.m, params.q, &params.options);
    // The workload key ignores the engine options: requests that share
    // an X map share one packed-matrix build even when their full cache
    // keys differ.
    let wkey = xhc_wire::content_hash(&canonical);

    // A non-hybrid backend produces accounting, not a storable partition
    // plan: answer with its uniform JSON report, computed in-process.
    if params.options.backend != BackendId::Hybrid {
        if params.asynchronous {
            return Err(HandlerError::new(
                400,
                "`mode=async` supports only the hybrid backend",
            ));
        }
        let cancel = XCancelConfig::new(params.m, params.q);
        let leg = race_leg(
            state,
            params.options.backend,
            &canonical,
            &xmap,
            &params,
            cancel,
            wkey,
            None,
        )?;
        return Ok(Response::new(
            200,
            "application/json",
            format!("{}\n", leg_json(&leg, None)).into_bytes(),
        ));
    }

    if params.asynchronous {
        let id = state.jobs.submit();
        state.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        // The job thread owns its own handle to the shared state.
        let state_ref = Arc::clone(state);
        thread::spawn(move || {
            let outcome = compute_plan(&state_ref, key, wkey, &xmap, &params);
            let status = match outcome {
                Ok((_, engine_ns)) => JobStatus::Done {
                    plan_hash: key,
                    cache_hit: engine_ns.is_none(),
                },
                Err(e) => JobStatus::Failed {
                    status: e.status,
                    message: e.message,
                },
            };
            state_ref.jobs.finish(id, status);
            state_ref
                .metrics
                .jobs_completed
                .fetch_add(1, Ordering::Relaxed);
            // If a concurrent traced request is recording, hand it this
            // thread's spans before the thread exits and they are lost.
            xhc_trace::flush_thread();
        });
        return Ok(Response::new(
            202,
            "application/json",
            format!("{{\"id\":{id},\"status\":\"running\"}}\n").into_bytes(),
        )
        .with_header("X-Xhc-Plan-Hash", hash_hex(key))
        .with_header("X-Xhc-Job", id.to_string()));
    }

    let (bytes, engine_ns) = compute_plan(state, key, wkey, &xmap, &params)?;
    let plan_len = bytes.len();
    let mut body = bytes;
    let traced = trace_session.is_some();
    if let Some(session) = trace_session {
        // Two-part body: the untouched plan bytes, then the chrome JSON.
        // `X-Xhc-Plan-Bytes` below marks the boundary.
        body.extend_from_slice(session.finish().to_chrome_json().as_bytes());
    }
    let mut response = Response::new(200, "application/octet-stream", body)
        .with_header("X-Xhc-Plan-Hash", hash_hex(key))
        .with_header(
            "X-Xhc-Cache",
            if engine_ns.is_none() { "hit" } else { "miss" }.to_string(),
        );
    if traced {
        response = response.with_header("X-Xhc-Plan-Bytes", plan_len.to_string());
    }
    if let Some(ns) = engine_ns {
        // Engine time of this cold plan, so clients can decompose
        // cold-vs-hit latency without scraping /metrics.
        response = response.with_header("X-Xhc-Engine-Ns", ns.to_string());
    }
    Ok(response)
}

/// `GET /v1/backends`: capability discovery for the planning fleet —
/// one JSON entry per registered [`BackendId`], in racing order.
fn backends_endpoint() -> Response {
    let mut body = String::from("[");
    for (i, id) in BackendId::ALL.into_iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let caps = id.caps();
        body.push_str(&format!(
            "{{\"id\":\"{}\",\"default\":{},\"caps\":{{\"partitions\":{},\"masking\":{},\
             \"canceling\":{},\"lossless\":{},\"uses_matrix\":{}}}}}",
            id.name(),
            id == BackendId::Hybrid,
            caps.partitions,
            caps.masking,
            caps.canceling,
            caps.lossless,
            caps.uses_matrix,
        ));
    }
    body.push_str("]\n");
    Response::new(200, "application/json", body.into_bytes())
}

/// Parses the `backends=` comma list of a race request: backend tokens,
/// deduplicated, in request order. Absent means every backend.
fn parse_race_roster(request: &Request) -> Result<Vec<BackendId>, HandlerError> {
    let Some(raw) = request.query_param("backends") else {
        return Ok(BackendId::ALL.to_vec());
    };
    let mut roster = Vec::new();
    for token in raw.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let id = parse_backend(token).ok_or_else(|| {
            HandlerError::new(
                400,
                format!(
                    "`{token}` is not a backend (expected one of {})",
                    backend_name_list()
                ),
            )
        })?;
        if !roster.contains(&id) {
            roster.push(id);
        }
    }
    if roster.is_empty() {
        return Err(HandlerError::new(400, "`backends` names no backend"));
    }
    Ok(roster)
}

/// One backend's finished race leg: its uniform report, the wall time it
/// took, and — for the hybrid leg only — the stored plan's address and
/// whether it was a cache hit.
struct RaceLeg {
    backend: BackendId,
    report: xhc_core::BackendReport,
    latency_ns: u64,
    plan: Option<(u64, bool)>,
}

/// Runs one backend of a race (or a non-hybrid single-backend plan).
///
/// The hybrid leg routes through [`compute_plan`] with the *same* cache
/// key `POST /v1/plan` would derive, so its plan bytes are byte-identical
/// to the single-backend route, persisted under the same address, and
/// single-flighted against concurrent submissions; the report is then
/// accounted from the decoded plan without re-running the engine. Every
/// other backend is pure accounting run in-process, handed the pooled
/// packed matrix when its capabilities claim one.
#[allow(clippy::too_many_arguments)]
fn race_leg(
    state: &ServerState,
    backend: BackendId,
    canonical: &[u8],
    xmap: &XMap,
    params: &PlanParams,
    cancel: XCancelConfig,
    wkey: u64,
    shared_matrix: Option<&XBitMatrix>,
) -> Result<RaceLeg, HandlerError> {
    let started = Instant::now();
    if backend == BackendId::Hybrid {
        let options = PlanOptions {
            backend: BackendId::Hybrid,
            ..params.options
        };
        let key = plan_request_hash_with_options(canonical, params.m, params.q, &options);
        let leg_params = PlanParams {
            m: params.m,
            q: params.q,
            options,
            asynchronous: false,
            trace: false,
        };
        let (bytes, engine_ns) = compute_plan(state, key, wkey, xmap, &leg_params)?;
        let (outcome, _) = decode_plan(&bytes)
            .map_err(|e| HandlerError::new(500, format!("stored plan failed to decode: {e}")))?;
        let report = HybridBackend::report_for(xmap, cancel, outcome);
        Ok(RaceLeg {
            backend,
            report,
            latency_ns: started.elapsed().as_nanos() as u64,
            plan: Some((key, engine_ns.is_none())),
        })
    } else {
        let mut input = WorkloadInput::new(xmap, cancel);
        if let Some(matrix) = shared_matrix.filter(|_| backend.caps().uses_matrix) {
            input = input.with_matrix(matrix);
        }
        let report = backend_for(backend).plan(&input, &params.options);
        Ok(RaceLeg {
            backend,
            report,
            latency_ns: started.elapsed().as_nanos() as u64,
            plan: None,
        })
    }
}

/// Renders one race leg as a JSON object; `pareto` is present only on
/// race responses (a single-backend report has no frontier to sit on).
fn leg_json(leg: &RaceLeg, pareto: Option<bool>) -> String {
    let mut s = format!(
        "{{\"backend\":\"{}\",\"control_bits\":{:.3},\"masked_x\":{},\"leaked_x\":{},\
         \"lost_observability\":{},\"latency_ns\":{}",
        leg.backend.name(),
        leg.report.control_bits,
        leg.report.masked_x,
        leg.report.leaked_x,
        leg.report.lost_observability,
        leg.latency_ns,
    );
    if let Some(p) = pareto {
        s.push_str(&format!(",\"pareto\":{p}"));
    }
    if let Some((key, hit)) = leg.plan {
        s.push_str(&format!(
            ",\"plan_hash\":\"{}\",\"cache\":\"{}\"",
            hash_hex(key),
            if hit { "hit" } else { "miss" }
        ));
    }
    s.push('}');
    s
}

/// `POST /v1/plan/race`: fans one submission across a requested backend
/// set and returns the control-bit/latency table with Pareto flags.
///
/// One decode and one lint gate serve every leg; the legs then run
/// concurrently (scoped threads on the worker that claimed the request).
/// The hybrid leg shares the plan store, the single-flight set and the
/// matrix pool with `POST /v1/plan` — see [`race_leg`].
fn race_endpoint(state: &Arc<ServerState>, request: &Request) -> Result<Response, HandlerError> {
    let mut params = parse_plan_params(request)?;
    if params.asynchronous {
        return Err(HandlerError::new(
            400,
            "`mode=async` is not supported on /v1/plan/race",
        ));
    }
    if request.body.is_empty() {
        return Err(HandlerError::new(400, "empty request body"));
    }
    let roster = parse_race_roster(request)?;
    let xmap = decode_request_xmap(state, &request.body, &mut params)?;
    lint_gate(state, &xmap, params.m, params.q)?;
    let canonical = encode_xmap(&xmap);
    let wkey = xhc_wire::content_hash(&canonical);
    let cancel = XCancelConfig::new(params.m, params.q);

    // Matrix-consuming accounting backends share one pooled build, keyed
    // by workload exactly like the engine's own (the hybrid leg reaches
    // the same pool through `run_engine`).
    let shared_matrix: Option<Arc<XBitMatrix>> = if roster
        .iter()
        .any(|id| *id != BackendId::Hybrid && id.caps().uses_matrix)
    {
        let (matrix, reused) = state.matrix_pool.get_or_build(wkey, || xmap.to_bitmatrix());
        if reused {
            state.metrics.batched_total.fetch_add(1, Ordering::Relaxed);
        }
        Some(matrix)
    } else {
        None
    };

    let state_ref: &ServerState = state;
    let leg_results: Vec<Result<RaceLeg, HandlerError>> = thread::scope(|scope| {
        let handles: Vec<_> = roster
            .iter()
            .map(|&backend| {
                let canonical = &canonical;
                let xmap = &xmap;
                let params = &params;
                let shared_matrix = shared_matrix.as_deref();
                scope.spawn(move || {
                    race_leg(
                        state_ref,
                        backend,
                        canonical,
                        xmap,
                        params,
                        cancel,
                        wkey,
                        shared_matrix,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(HandlerError::new(500, "race leg panicked")))
            })
            .collect()
    });
    let mut legs = Vec::with_capacity(leg_results.len());
    for leg in leg_results {
        legs.push(leg?);
    }

    // A leg is off the frontier iff another leg is no worse on both axes
    // and strictly better on one; exact ties keep both.
    let dominated = |i: usize| {
        legs.iter().enumerate().any(|(j, b)| {
            j != i
                && b.report.control_bits <= legs[i].report.control_bits
                && b.latency_ns <= legs[i].latency_ns
                && (b.report.control_bits < legs[i].report.control_bits
                    || b.latency_ns < legs[i].latency_ns)
        })
    };
    let mut body = format!(
        "{{\"m\":{},\"q\":{},\"workload\":\"{}\",\"entries\":[",
        params.m,
        params.q,
        hash_hex(wkey)
    );
    for (i, leg) in legs.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&leg_json(leg, Some(!dominated(i))));
    }
    body.push_str("]}\n");
    let mut response = Response::new(200, "application/json", body.into_bytes());
    if let Some((key, _)) = legs.iter().find_map(|l| l.plan) {
        response = response.with_header("X-Xhc-Plan-Hash", hash_hex(key));
    }
    Ok(response)
}

/// Plans (or fetches) the request with single-flight dedup: for any key,
/// exactly one caller runs the engine while concurrent identical
/// requests block and then read the store. Returns the wire-encoded plan
/// and, for a cache miss, the engine wall time in nanoseconds (`None`
/// means the plan came from the cache).
fn compute_plan(
    state: &ServerState,
    key: u64,
    wkey: u64,
    xmap: &XMap,
    params: &PlanParams,
) -> Result<(Vec<u8>, Option<u64>), HandlerError> {
    let store_err = |e: io::Error| HandlerError::new(500, format!("plan store failed: {e}"));
    // Fast path: already cached.
    if let Some(bytes) = state.store.load(key).map_err(store_err)? {
        state.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        return Ok((bytes, None));
    }
    // Claim the key or wait for whoever holds it.
    {
        let mut inflight = state.inflight.lock().expect("inflight set poisoned");
        loop {
            if !inflight.contains(&key) {
                // Re-check the store under the lock: a racing computer may
                // have finished between our miss above and this claim.
                if let Some(bytes) = state.store.load(key).map_err(store_err)? {
                    state.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((bytes, None));
                }
                inflight.insert(key);
                break;
            }
            inflight = state
                .inflight_cv
                .wait(inflight)
                .expect("inflight set poisoned");
        }
    }
    // We own the computation. The plan must be persisted *before* the
    // claim is released: waiters re-check the store the moment the key
    // leaves the in-flight set, and an unsaved plan at that instant
    // would make them recompute (a duplicated miss).
    let result =
        run_engine(state, wkey, xmap, params).and_then(|(bytes, cert_bytes, engine_ns)| {
            let store_started = Instant::now();
            let span = xhc_trace::span("serve.store");
            // Persist the certificate and the canonical X map first: the
            // `.plan` file is the cache-hit signal, so a reader that sees it
            // can rely on the siblings being complete.
            state
                .store
                .save_ext(key, "cert", &cert_bytes)
                .map_err(store_err)?;
            state
                .store
                .save_ext(key, "xmap", &encode_xmap(xmap))
                .map_err(store_err)?;
            state.store.save(key, &bytes).map_err(store_err)?;
            drop(span);
            state
                .metrics
                .store_ns
                .record_ns(store_started.elapsed().as_nanos() as u64);
            state.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
            Ok((bytes, Some(engine_ns)))
        });
    // Always release the claim, success or error.
    {
        let mut inflight = state.inflight.lock().expect("inflight set poisoned");
        inflight.remove(&key);
    }
    state.inflight_cv.notify_all();
    result
}

/// Runs the partition engine, encodes the plan and certifies it,
/// converting panics into HTTP 500 instead of poisoning the worker.
/// Returns the wire-encoded plan, its wire-encoded certificate, and the
/// engine wall time in nanoseconds (also accumulated into
/// `xhc_plan_engine_seconds`).
fn run_engine(
    state: &ServerState,
    wkey: u64,
    xmap: &XMap,
    params: &PlanParams,
) -> Result<(Vec<u8>, Vec<u8>, u64), HandlerError> {
    // The server owns worker sizing: its configured count replaces
    // whatever the request carried, and `0` stays `0` — the engine
    // resolves auto-threading itself.
    let opts = PlanOptions {
        threads: state.config.threads,
        ..params.options
    };
    let cancel = XCancelConfig::new(params.m, params.q);
    let engine = PartitionEngine::with_options(cancel, opts);
    let plan_started = Instant::now();
    let span = xhc_trace::span("serve.plan");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // Only a best-cost run packs the bit matrix; concurrent requests
        // for the same workload (any options) share one build through
        // the pool. Inside the catch so a packing panic is a clean 500
        // and the pool's claim is released.
        let shared: Option<Arc<XBitMatrix>> = if matches!(opts.strategy, SplitStrategy::BestCost) {
            let (matrix, reused) = state.matrix_pool.get_or_build(wkey, || xmap.to_bitmatrix());
            if reused {
                state.metrics.batched_total.fetch_add(1, Ordering::Relaxed);
            }
            Some(matrix)
        } else {
            None
        };
        engine.run_with_matrix(xmap, shared.as_deref())
    }))
    .map_err(|_| HandlerError::new(500, "partition engine panicked"))?;
    drop(span);
    let engine_ns = plan_started.elapsed().as_nanos() as u64;
    state.metrics.plan_ns.record_ns(engine_ns);
    state.metrics.record_engine_ns(engine_ns);
    let encode_started = Instant::now();
    let span = xhc_trace::span("serve.encode");
    let bytes = encode_plan(&outcome, xmap.num_patterns());
    let cert = xhc_verify::certify_plan(xmap, cancel, &outcome, &bytes, None);
    let cert_bytes = xhc_wire::encode_certificate(&cert);
    drop(span);
    state
        .metrics
        .encode_ns
        .record_ns(encode_started.elapsed().as_nanos() as u64);
    if state.config.verify_on_write {
        let verify_started = Instant::now();
        let span = xhc_trace::span("serve.verify");
        state.metrics.verify_total.fetch_add(1, Ordering::Relaxed);
        let result = xhc_verify::check(&cert, &outcome, &bytes, xmap, cancel);
        drop(span);
        state
            .metrics
            .verify_ns
            .record_ns(verify_started.elapsed().as_nanos() as u64);
        if let Err(e) = result {
            // Can only mean an engine or certifier bug — refuse to cache
            // or serve the plan.
            state
                .metrics
                .verify_failures
                .fetch_add(1, Ordering::Relaxed);
            return Err(HandlerError::new(
                500,
                format!("plan failed verify-on-write: {e}"),
            ));
        }
    }
    Ok((bytes, cert_bytes, engine_ns))
}
