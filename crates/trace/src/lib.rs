//! Dependency-free structured tracing for the xhybrid workspace.
//!
//! The partition engine's headline numbers — control-bit volume and
//! normalized test time — are per-round aggregates; this crate makes the
//! *inside* of a run observable: where candidate evaluation time goes,
//! how often the bound pruner fires, which pivot each round chose, and
//! where the canceling session halts. It provides
//!
//! * **spans** — named intervals with monotonic-nanosecond timestamps and
//!   small integer arguments, recorded via an RAII [`Span`] guard,
//! * **counters** — named sums for hot paths too cheap to span (e.g. the
//!   packed bit-matrix kernel's row sweeps), kept per session,
//! * **histograms** — a log-bucket [`Histogram`] used by the text
//!   summary for per-span duration percentiles,
//! * a per-thread **ring buffer** so recording never takes a lock; the
//!   runtime drains it deterministically at join points
//!   ([`flush_thread`], called by `xhc-par` when a worker finishes), and
//! * two exporters: [`Trace::to_chrome_json`] (load the file in
//!   `chrome://tracing` / Perfetto) and [`Trace::summary`] (human text).
//!
//! # Zero cost when disabled
//!
//! Tracing is off unless a [`TraceSession`] is active. Every recording
//! entry point starts with one relaxed atomic load ([`enabled`]); when
//! it is `false`, [`span`] returns an inert guard without reading the
//! clock and [`counter_add`] returns immediately. The workspace bench
//! gate runs with tracing compiled in but disabled and is the standing
//! proof that this path stays free.
//!
//! # Sessions are process-global
//!
//! One session records at a time ([`TraceSession::begin`] returns `None`
//! while another is active). While a session is recording, *any* thread
//! that hits an instrumented path contributes events; in a concurrent
//! server this means a trace can include activity from neighbouring
//! requests — by design, exactly what a timeline viewer wants.
//!
//! Nothing outlives its session: spans and counters are recorded only
//! while one is active and handed over by [`TraceSession::finish`]. A
//! long-running process keeps its lifetime totals in its own metric
//! registry (the daemon's is the `SERIES` table in `xhc-serve`), not
//! here.
//!
//! # Examples
//!
//! ```
//! let session = xhc_trace::TraceSession::begin().expect("no other session");
//! {
//!     let _span = xhc_trace::span("demo.work").arg("items", 3);
//!     xhc_trace::counter_add("demo.items", 3);
//! }
//! let trace = session.finish();
//! assert_eq!(trace.spans("demo.work").count(), 1);
//! assert_eq!(trace.counter("demo.items"), Some(3));
//! assert!(trace.to_chrome_json().starts_with('['));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Per-thread ring capacity in events. A full ring overwrites the oldest
/// event and counts it in [`Trace::dropped`].
const RING_CAPACITY: usize = 1 << 14;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static SINK: Mutex<Sink> = Mutex::new(Sink::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Whether a trace session is currently recording.
///
/// One relaxed atomic load — the entire cost of instrumentation on a
/// disabled path. Instrumented code may use this to skip argument
/// computation that only feeds a span.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Monotonic nanoseconds since the process trace epoch (the first call
/// into this crate's clock).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded interval: a named span with start, duration, the small
/// integer arguments attached while it was open, and the recording
/// thread's trace-local id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Span name (static, dot-separated by convention, e.g.
    /// `partition.round`).
    pub name: &'static str,
    /// Start, in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Trace-local id of the recording thread (stable within a process,
    /// dense, starts at 1).
    pub tid: u32,
    /// Attached `key = value` arguments, in attachment order.
    pub args: Vec<(&'static str, u64)>,
}

struct ThreadBuf {
    generation: u64,
    tid: u32,
    events: Vec<Event>,
    /// Oldest-event index once the ring is full.
    write: usize,
    dropped: u64,
    counters: Vec<(&'static str, u64)>,
}

impl ThreadBuf {
    fn new() -> ThreadBuf {
        ThreadBuf {
            generation: 0,
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Vec::new(),
            write: 0,
            dropped: 0,
            counters: Vec::new(),
        }
    }

    /// Discards anything recorded under an older session.
    fn sync_generation(&mut self) {
        let current = GENERATION.load(Ordering::Relaxed);
        if self.generation != current {
            self.generation = current;
            self.events.clear();
            self.write = 0;
            self.dropped = 0;
            self.counters.clear();
        }
    }

    fn push(&mut self, event: Event) {
        if self.events.len() < RING_CAPACITY {
            self.events.push(event);
        } else {
            self.events[self.write] = event;
            self.write = (self.write + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }

    fn bump(&mut self, name: &'static str, delta: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 += delta,
            None => self.counters.push((name, delta)),
        }
    }

    /// Events in recording order (oldest first, honouring ring wrap).
    fn drain_events(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.write..]);
        out.extend_from_slice(&self.events[..self.write]);
        self.events.clear();
        self.write = 0;
        out
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

struct Sink {
    events: Vec<Event>,
    counters: Vec<(&'static str, u64)>,
    dropped: u64,
}

impl Sink {
    const fn new() -> Sink {
        Sink {
            events: Vec::new(),
            counters: Vec::new(),
            dropped: 0,
        }
    }

    fn clear(&mut self) {
        self.events.clear();
        self.counters.clear();
        self.dropped = 0;
    }

    fn merge_counter(&mut self, name: &'static str, delta: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 += delta,
            None => self.counters.push((name, delta)),
        }
    }
}

fn sink() -> MutexGuard<'static, Sink> {
    SINK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// An open span. Records one [`Event`] covering its lifetime when
/// dropped; inert (no clock read, no allocation) when tracing is
/// disabled.
#[must_use = "a span records its duration when dropped; binding it to _ drops it immediately"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, u64)>,
    live: bool,
}

/// Opens a span named `name`, closing (and recording) when the returned
/// guard drops.
#[inline]
pub fn span(name: &'static str) -> Span {
    let live = enabled();
    Span {
        name,
        start_ns: if live { now_ns() } else { 0 },
        args: Vec::new(),
        live,
    }
}

/// Opens a span that started at `start_ns`, a [`now_ns`] reading the
/// caller already took. Pair it with [`Span::close_at`] when the caller
/// times the same interval for its own use, so both read one clock.
#[inline]
pub fn span_at(name: &'static str, start_ns: u64) -> Span {
    Span {
        name,
        start_ns,
        args: Vec::new(),
        live: enabled(),
    }
}

impl Span {
    /// Attaches a `key = value` argument (builder form).
    #[inline]
    pub fn arg(mut self, key: &'static str, value: u64) -> Span {
        self.set_arg(key, value);
        self
    }

    /// Attaches a `key = value` argument to an already-bound span —
    /// useful for results only known near the end of the interval.
    #[inline]
    pub fn set_arg(&mut self, key: &'static str, value: u64) {
        if self.live {
            self.args.push((key, value));
        }
    }

    /// Closes the span at `end_ns`, a [`now_ns`] reading the caller
    /// already took. Dropping a span closes it at the current time.
    #[inline]
    pub fn close_at(mut self, end_ns: u64) {
        self.close(end_ns);
    }

    fn close(&mut self, end_ns: u64) {
        if !self.live {
            return;
        }
        self.live = false;
        let event = Event {
            name: self.name,
            start_ns: self.start_ns,
            dur_ns: end_ns.saturating_sub(self.start_ns),
            tid: 0,
            args: std::mem::take(&mut self.args),
        };
        BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.sync_generation();
            let tid = buf.tid;
            buf.push(Event { tid, ..event });
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.live {
            self.close(now_ns());
        }
    }
}

/// Adds `delta` to the named counter of the recording session. One
/// relaxed load and an early return when no session is recording; no
/// lock on that path.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.sync_generation();
        buf.bump(name, delta);
    });
}

/// Moves the calling thread's buffered events and counters into the
/// global sink.
///
/// `xhc-par` calls this at the end of every worker closure, so parallel
/// sections drain deterministically at their join points; code that
/// spawns threads outside `xhc-par` must call it before the thread
/// exits, or the thread's events are discarded. A no-op when nothing is
/// buffered.
pub fn flush_thread() {
    BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.sync_generation();
        if buf.events.is_empty() && buf.counters.is_empty() && buf.dropped == 0 {
            return;
        }
        let events = buf.drain_events();
        let counters = std::mem::take(&mut buf.counters);
        let dropped = std::mem::replace(&mut buf.dropped, 0);
        let mut sink = sink();
        sink.events.extend(events);
        for (name, delta) in counters {
            sink.merge_counter(name, delta);
        }
        sink.dropped += dropped;
    });
}

/// An exclusive recording session. At most one exists per process;
/// [`TraceSession::begin`] hands out the claim and
/// [`TraceSession::finish`] releases it and returns the collected
/// [`Trace`].
#[derive(Debug)]
pub struct TraceSession {
    start_ns: u64,
    finished: bool,
}

impl TraceSession {
    /// Starts recording. Returns `None` if another session is active
    /// (callers should proceed untraced rather than block).
    pub fn begin() -> Option<TraceSession> {
        if ACTIVE
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        // A new generation invalidates whatever unflushed leftovers idle
        // threads still hold from earlier sessions.
        GENERATION.fetch_add(1, Ordering::Relaxed);
        sink().clear();
        let start_ns = now_ns();
        ENABLED.store(true, Ordering::Relaxed);
        Some(TraceSession {
            start_ns,
            finished: false,
        })
    }

    /// Stops recording, flushes the calling thread, and returns the
    /// collected trace. Events are sorted by `(start_ns, tid, name)` so
    /// equal inputs yield byte-identical exports; counters are merged
    /// across threads and sorted by name.
    pub fn finish(mut self) -> Trace {
        self.finished = true;
        ENABLED.store(false, Ordering::Relaxed);
        flush_thread();
        let end_ns = now_ns();
        let (mut events, mut counters, dropped) = {
            let mut sink = sink();
            (
                std::mem::take(&mut sink.events),
                std::mem::take(&mut sink.counters),
                std::mem::replace(&mut sink.dropped, 0),
            )
        };
        ACTIVE.store(false, Ordering::Release);
        events.sort_by(|a, b| (a.start_ns, a.tid, a.name).cmp(&(b.start_ns, b.tid, b.name)));
        counters.sort_by_key(|&(name, _)| name);
        Trace {
            start_ns: self.start_ns,
            end_ns,
            events,
            counters,
            dropped,
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if !self.finished {
            ENABLED.store(false, Ordering::Relaxed);
            ACTIVE.store(false, Ordering::Release);
        }
    }
}

/// A finished recording: every event and merged counter a session
/// collected, ready for export.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Session start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Session end, nanoseconds since the process trace epoch.
    pub end_ns: u64,
    /// All events, sorted by `(start_ns, tid, name)`.
    pub events: Vec<Event>,
    /// Merged counters, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Events overwritten because a thread's ring buffer filled between
    /// drains.
    pub dropped: u64,
}

impl Trace {
    /// Session wall time in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The events with the given span name, in time order.
    pub fn spans<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// The merged value of the named counter, if it was ever bumped.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Serializes the trace in the Chrome Trace Event format (a JSON
    /// array of complete `"ph":"X"` events plus `"ph":"C"` counter
    /// samples), loadable in `chrome://tracing` or Perfetto.
    ///
    /// Timestamps are microseconds relative to the session start.
    pub fn to_chrome_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push('[');
        let mut first = true;
        for event in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            let ts = event.start_ns.saturating_sub(self.start_ns) as f64 / 1000.0;
            let dur = event.dur_ns as f64 / 1000.0;
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":{}",
                escape_json(event.name),
                event.tid
            );
            out.push_str(",\"args\":{");
            for (i, &(key, value)) in event.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{value}", escape_json(key));
            }
            out.push_str("}}");
        }
        let end_ts = self.duration_ns() as f64 / 1000.0;
        for &(name, value) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{end_ts:.3},\"pid\":1,\"tid\":0,\"args\":{{\"value\":{value}}}}}",
                escape_json(name)
            );
        }
        out.push_str("\n]\n");
        out
    }

    /// Renders a human-readable summary: per-span duration statistics
    /// (count, total, p50/p95 from a log-bucket [`Histogram`], max) and
    /// every counter.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events, {} counters, {} dropped, wall {}",
            self.events.len(),
            self.counters.len(),
            self.dropped,
            format_ns(self.duration_ns())
        );
        let mut names: Vec<&'static str> = self.events.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        if !names.is_empty() {
            let _ = writeln!(
                out,
                "  {:<24} {:>7} {:>10} {:>10} {:>10} {:>10}",
                "span", "count", "total", "p50", "p95", "max"
            );
        }
        for name in names {
            let mut hist = Histogram::new();
            let mut total = 0u64;
            for event in self.spans(name) {
                hist.record(event.dur_ns);
                total += event.dur_ns;
            }
            let _ = writeln!(
                out,
                "  {:<24} {:>7} {:>10} {:>10} {:>10} {:>10}",
                name,
                hist.count(),
                format_ns(total),
                format_ns(hist.quantile(0.50)),
                format_ns(hist.quantile(0.95)),
                format_ns(hist.max())
            );
        }
        for &(name, value) in &self.counters {
            let _ = writeln!(out, "  counter {name} = {value}");
        }
        out
    }
}

/// A log₂-bucket histogram of `u64` samples (64 buckets, one per bit
/// position), with exact count/sum/min/max and approximate quantiles.
///
/// # Examples
///
/// ```
/// let mut h = xhc_trace::Histogram::new();
/// for v in [100u64, 200, 400, 100_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.quantile(0.5) <= h.quantile(0.95));
/// assert_eq!(h.max(), 100_000);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = 63 - value.max(1).leading_zeros() as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The approximate `q`-quantile (0.0 ..= 1.0): the geometric
    /// midpoint of the bucket holding the target rank, clamped to the
    /// observed `[min, max]`. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let lo = 1u64 << idx;
                let mid = lo + lo / 2;
                return mid.clamp(self.min(), self.max);
            }
        }
        self.max
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sessions are process-global, so tests that need one must not run
    /// concurrently; a shared mutex serialises them.
    fn session_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_by_default_and_spans_are_inert() {
        let _guard = session_lock();
        assert!(!enabled());
        {
            let _span = span("never.recorded").arg("k", 1);
            counter_add("never.counted", 5);
        }
        flush_thread();
        let session = TraceSession::begin().expect("claim");
        let trace = session.finish();
        assert!(trace.events.is_empty(), "{:?}", trace.events);
        assert!(trace.counters.is_empty());
    }

    #[test]
    fn session_records_spans_counters_and_args() {
        let _guard = session_lock();
        let session = TraceSession::begin().expect("claim");
        assert!(enabled());
        {
            let mut s = span("unit.outer").arg("a", 1);
            s.set_arg("b", 2);
            let _inner = span("unit.inner");
        }
        counter_add("unit.count", 2);
        counter_add("unit.count", 3);
        let trace = session.finish();
        assert!(!enabled());
        assert_eq!(trace.events.len(), 2);
        // Sorted by start time: outer opened first.
        assert_eq!(trace.events[0].name, "unit.outer");
        assert_eq!(trace.events[0].args, vec![("a", 1), ("b", 2)]);
        assert_eq!(trace.events[1].name, "unit.inner");
        assert!(trace.events[0].dur_ns >= trace.events[1].dur_ns);
        assert_eq!(trace.counter("unit.count"), Some(5));
        assert_eq!(trace.counter("unit.absent"), None);
    }

    #[test]
    fn span_at_and_close_at_cover_the_callers_interval() {
        let _guard = session_lock();
        let session = TraceSession::begin().expect("claim");
        span_at("unit.explicit", 100).arg("k", 1).close_at(350);
        let trace = session.finish();
        assert_eq!(trace.events.len(), 1);
        let event = &trace.events[0];
        assert_eq!((event.start_ns, event.dur_ns), (100, 250));
        assert_eq!(event.args, vec![("k", 1)]);
    }

    #[test]
    fn only_one_session_at_a_time() {
        let _guard = session_lock();
        let first = TraceSession::begin().expect("claim");
        assert!(TraceSession::begin().is_none());
        let _ = first.finish();
        let second = TraceSession::begin().expect("released");
        let _ = second.finish();
    }

    #[test]
    fn dropping_an_unfinished_session_releases_the_claim() {
        let _guard = session_lock();
        {
            let _session = TraceSession::begin().expect("claim");
        }
        assert!(!enabled());
        let next = TraceSession::begin().expect("released by drop");
        let _ = next.finish();
    }

    #[test]
    fn worker_threads_contribute_via_flush() {
        let _guard = session_lock();
        let session = TraceSession::begin().expect("claim");
        std::thread::scope(|scope| {
            for i in 0..3u64 {
                scope.spawn(move || {
                    {
                        let _span = span("worker.item").arg("i", i);
                        counter_add("worker.items", 1);
                    }
                    flush_thread();
                });
            }
        });
        let trace = session.finish();
        assert_eq!(trace.spans("worker.item").count(), 3);
        assert_eq!(trace.counter("worker.items"), Some(3));
        // Three distinct worker tids.
        let mut tids: Vec<u32> = trace.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3);
    }

    #[test]
    fn unflushed_thread_events_do_not_leak_into_later_sessions() {
        let _guard = session_lock();
        let first = TraceSession::begin().expect("claim");
        let handle = {
            let (ready_tx, ready_rx) = std::sync::mpsc::channel();
            let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
            let handle = std::thread::spawn(move || {
                {
                    let _span = span("stale.event");
                }
                ready_tx.send(()).unwrap();
                // Park (unflushed) until the second session is live,
                // then flush: the stale event must be discarded.
                go_rx.recv().unwrap();
                flush_thread();
            });
            ready_rx.recv().unwrap();
            (handle, go_tx)
        };
        let _ = first.finish();
        let second = TraceSession::begin().expect("claim");
        handle.1.send(()).unwrap();
        handle.0.join().unwrap();
        let trace = second.finish();
        assert_eq!(trace.spans("stale.event").count(), 0, "{:?}", trace.events);
    }

    #[test]
    fn ring_overflow_counts_dropped_events() {
        let _guard = session_lock();
        let session = TraceSession::begin().expect("claim");
        for _ in 0..RING_CAPACITY + 10 {
            let _span = span("flood");
        }
        let trace = session.finish();
        assert_eq!(trace.dropped, 10);
        assert_eq!(trace.spans("flood").count(), RING_CAPACITY);
        // Drain order survives the wrap: starts stay non-decreasing.
        for pair in trace.events.windows(2) {
            assert!(pair[0].start_ns <= pair[1].start_ns);
        }
    }

    #[test]
    fn chrome_json_shape_and_escaping() {
        let _guard = session_lock();
        let session = TraceSession::begin().expect("claim");
        {
            let _span = span("chrome.span").arg("round", 7);
        }
        counter_add("chrome.counter", 42);
        let trace = session.finish();
        let json = trace.to_chrome_json();
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\":\"chrome.span\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"round\":7"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"value\":42"));
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn summary_lists_spans_and_counters() {
        let _guard = session_lock();
        let session = TraceSession::begin().expect("claim");
        for _ in 0..4 {
            let _span = span("sum.step");
        }
        counter_add("sum.hits", 9);
        let trace = session.finish();
        let text = trace.summary();
        assert!(text.contains("sum.step"), "{text}");
        assert!(text.contains("counter sum.hits = 9"), "{text}");
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        for v in [1u64, 2, 4, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1039);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1024);
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        assert!(p50 <= p95, "{p50} > {p95}");
        assert!((1..=1024).contains(&p50));
        assert_eq!(h.quantile(1.0), 1024);
        h.record(0); // clamps to the first bucket
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(999), "999ns");
        assert_eq!(format_ns(1_500), "1.5us");
        assert_eq!(format_ns(2_500_000), "2.50ms");
        assert_eq!(format_ns(3_000_000_000), "3.00s");
    }
}
