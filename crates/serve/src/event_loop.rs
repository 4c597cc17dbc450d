//! The nonblocking front end: one event-loop thread multiplexing every
//! connection over an [`xhc_aio::Poller`], with the worker pool behind a
//! bounded job queue.
//!
//! Per-connection life cycle:
//!
//! 1. **Accept** — nonblocking accept drains the listener backlog; each
//!    connection gets a slot, a generation (so recycled slots never see
//!    a stale completion or deadline), and a read deadline on the timer
//!    wheel.
//! 2. **Read** — whenever the poller reports readable, the loop drains
//!    the socket into the connection buffer and feeds the incremental
//!    parser. Fragmented requests accumulate across ticks; the read
//!    deadline is armed at request start and *not* extended per byte,
//!    which is the slow-loris defence (expiry answers 408).
//! 3. **Dispatch** — a complete request passes admission control (job
//!    counter + bounded queue; rejection answers 429 with a
//!    `Retry-After` computed from the queue-wait histogram) and is
//!    pushed to the worker pool. While a request is in flight the loop
//!    keeps reading but does not parse — pipelined requests wait their
//!    turn, which also guarantees responses leave in request order.
//! 4. **Write** — workers push rendered response bytes through the
//!    completion list and wake the loop; the loop writes as much as the
//!    socket accepts, arms a write deadline for the rest, and on
//!    completion either closes (`Connection: close`) or re-arms the
//!    read deadline and parses the next pipelined request.
//! 5. **Drain** — shutdown stops accepting, closes idle connections,
//!    lets in-flight responses finish (bounded by a drain deadline),
//!    then closes the queue so workers exit.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xhc_aio::{timer::TimerWheel, Events, Interest, Poller, Token};

use crate::http::{self, ParseStatus, Response};
use crate::{retry_after_secs, Completion, Job, ServerState};

/// The listener's poller token; connection slots start right after.
const LISTENER: Token = Token(0);
const CONN_BASE: usize = 1;

/// Readiness events drained per poll.
const EVENT_BATCH: usize = 256;

/// Slot indices are packed into the low bits of timer keys.
const SLOT_BITS: u32 = 20;
const MAX_SLOTS: usize = 1 << SLOT_BITS;

/// How long a response may sit partially written before the connection
/// is declared stalled and closed.
const WRITE_TIMEOUT_MS: u64 = 30_000;

/// How long shutdown waits for in-flight responses before hard-closing.
const DRAIN_MS: u64 = 5_000;

/// Hard cap on bytes buffered from one connection (head + body + a
/// pipelined follow-up head).
const MAX_CONN_BUF: usize = http::MAX_BODY_BYTES + 2 * http::MAX_HEAD_BYTES;

fn timer_key(slot: usize, generation: u64) -> u64 {
    (generation << SLOT_BITS) | slot as u64
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum ConnState {
    /// Between requests: bytes are parsed as they arrive.
    AwaitingRequest,
    /// A request is with the worker pool; reads continue, parsing waits.
    Processing,
}

struct Conn {
    stream: TcpStream,
    generation: u64,
    state: ConnState,
    buf_in: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    /// Currently registered poller interest (to skip no-op reregisters).
    interest: Interest,
    read_deadline: Option<u64>,
    write_deadline: Option<u64>,
    /// Deadline of the earliest pending wheel entry for this conn
    /// (`u64::MAX` = none); later entries are only added when an
    /// earlier deadline appears.
    timer_at: u64,
    close_after_write: bool,
    read_closed: bool,
}

impl Conn {
    fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

pub(crate) fn run_event_loop(listener: TcpListener, state: Arc<ServerState>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    let waker = poller.waker();
    *state.waker.lock().unwrap_or_else(|p| p.into_inner()) = Some(waker.clone());
    poller.register(&listener, LISTENER, Interest::READABLE)?;
    let workers = crate::spawn_workers(&state, &waker);

    let mut lp = EventLoop {
        state: Arc::clone(&state),
        poller,
        conns: Vec::new(),
        free: Vec::new(),
        wheel: TimerWheel::new(0),
        epoch: Instant::now(),
        next_generation: 1,
        draining: false,
        drain_deadline: 0,
    };
    let mut events = Events::with_capacity(EVENT_BATCH);
    let result = lp.run(&listener, &mut events);

    // Stop the workers: close the queue, let them drain, join.
    state.jobs_queue.close();
    for worker in workers {
        let _ = worker.join();
    }
    *state.waker.lock().unwrap_or_else(|p| p.into_inner()) = None;
    result
}

struct EventLoop {
    state: Arc<ServerState>,
    poller: Poller,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    wheel: TimerWheel,
    epoch: Instant,
    next_generation: u64,
    draining: bool,
    drain_deadline: u64,
}

impl EventLoop {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn run(&mut self, listener: &TcpListener, events: &mut Events) -> io::Result<()> {
        loop {
            let timeout = self.poll_timeout(self.now_ms());
            self.poller.wait(events, timeout)?;
            let now = self.now_ms();
            if !self.draining && self.state.shutdown.load(Ordering::SeqCst) {
                self.begin_drain(listener, now);
            }
            for event in events.iter() {
                if event.token() == LISTENER {
                    if !self.draining {
                        self.accept_all(listener, now);
                    }
                } else {
                    let slot = event.token().0 - CONN_BASE;
                    if event.readable() {
                        self.handle_readable(slot, now);
                    }
                    if event.writable() {
                        self.flush_out(slot, now);
                    }
                }
            }
            self.drain_completions(now);
            for key in self.wheel.expire(now) {
                self.handle_deadline(key, now);
            }
            if self.draining {
                let live = self.conns.iter().filter(|c| c.is_some()).count();
                if live == 0 || now >= self.drain_deadline {
                    return Ok(());
                }
            }
        }
    }

    fn poll_timeout(&self, now: u64) -> Option<Duration> {
        let mut next = self.wheel.next_deadline();
        if self.draining {
            next = Some(next.map_or(self.drain_deadline, |d| d.min(self.drain_deadline)));
        }
        next.map(|deadline| Duration::from_millis(deadline.saturating_sub(now).max(1)))
    }

    fn begin_drain(&mut self, listener: &TcpListener, now: u64) {
        self.draining = true;
        self.drain_deadline = now + DRAIN_MS;
        let _ = self.poller.deregister(listener, LISTENER);
        // Idle connections close now; in-flight requests and queued
        // responses get the drain window to finish.
        for slot in 0..self.conns.len() {
            let close_now = match &self.conns[slot] {
                Some(conn) => conn.state == ConnState::AwaitingRequest && !conn.has_output(),
                None => false,
            };
            if close_now {
                self.close_conn(slot);
            }
        }
    }

    fn accept_all(&mut self, listener: &TcpListener, now: u64) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.install(stream, now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn install(&mut self, stream: TcpStream, now: u64) {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None if self.conns.len() < MAX_SLOTS => {
                self.conns.push(None);
                self.conns.len() - 1
            }
            // Slot space exhausted: shed the connection outright.
            None => return,
        };
        let generation = self.next_generation;
        self.next_generation += 1;
        let read_deadline = now + self.state.config.read_timeout_ms;
        if self
            .poller
            .register(&stream, Token(slot + CONN_BASE), Interest::READABLE)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.wheel
            .insert(read_deadline, timer_key(slot, generation));
        self.conns[slot] = Some(Conn {
            stream,
            generation,
            state: ConnState::AwaitingRequest,
            buf_in: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            interest: Interest::READABLE,
            read_deadline: Some(read_deadline),
            write_deadline: None,
            timer_at: read_deadline,
            close_after_write: false,
            read_closed: false,
        });
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self
                .poller
                .deregister(&conn.stream, Token(slot + CONN_BASE));
            self.free.push(slot);
            // Stale wheel entries for this conn fire harmlessly: the
            // generation check in handle_deadline ignores them.
        }
    }

    /// Drains the socket into the connection buffer, then advances the
    /// parse/dispatch state machine.
    fn handle_readable(&mut self, slot: usize, now: u64) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let mut fatal = false;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.buf_in.extend_from_slice(&buf[..n]);
                    if conn.buf_in.len() > MAX_CONN_BUF {
                        fatal = true;
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    fatal = true;
                    break;
                }
            }
        }
        if fatal {
            self.close_conn(slot);
            return;
        }
        self.advance(slot, now);
    }

    /// Parses and dispatches as many buffered requests as the
    /// serialization rule allows, then flushes queued output.
    fn advance(&mut self, slot: usize, now: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.state != ConnState::AwaitingRequest || conn.close_after_write {
                break;
            }
            match http::parse_request(&conn.buf_in) {
                Err(e) => {
                    // 400 for malformed bytes, 501 for valid HTTP using
                    // an unsupported feature (chunked transfer coding).
                    self.respond_inline(slot, Response::text(e.status, format!("{e}\n")), true);
                    break;
                }
                Ok(ParseStatus::Partial) => {
                    if conn.read_closed {
                        // EOF between requests (clean) or mid-request
                        // (nothing useful to answer): close either way
                        // once pending output is flushed.
                        if conn.has_output() {
                            conn.close_after_write = true;
                        } else {
                            self.close_conn(slot);
                            return;
                        }
                    }
                    break;
                }
                Ok(ParseStatus::Complete { request, consumed }) => {
                    conn.buf_in.drain(..consumed);
                    let keep_alive = request.wants_keep_alive();
                    if self.draining {
                        let metrics = &self.state.metrics;
                        metrics.requests_total.fetch_add(1, Ordering::Relaxed);
                        self.respond_inline(
                            slot,
                            Response::text(503, "draining for shutdown\n"),
                            true,
                        );
                        break;
                    }
                    if self.try_dispatch(slot, request, keep_alive) {
                        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                            return;
                        };
                        conn.state = ConnState::Processing;
                        // No read deadline while the request computes;
                        // pipelined bytes just sit in the buffer.
                        conn.read_deadline = None;
                        break;
                    }
                    // Shed: answer 429 inline with backoff advice and
                    // keep parsing pipelined requests (each gets its
                    // own verdict).
                    let metrics = &self.state.metrics;
                    metrics.requests_total.fetch_add(1, Ordering::Relaxed);
                    metrics.shed_total.fetch_add(1, Ordering::Relaxed);
                    let retry = retry_after_secs(&self.state);
                    self.respond_inline(
                        slot,
                        Response::text(429, "overloaded, retry later\n")
                            .with_header("Retry-After", retry.to_string()),
                        !keep_alive,
                    );
                }
            }
        }
        self.flush_out(slot, now);
    }

    /// Admission control: a job-count ceiling plus the bounded queue.
    /// Returns whether the request was accepted.
    fn try_dispatch(&mut self, slot: usize, request: http::Request, keep_alive: bool) -> bool {
        let state = &self.state;
        let max = state.config.max_inflight as u64;
        if state.inflight_jobs.load(Ordering::Relaxed) >= max {
            return false;
        }
        let generation = match self.conns.get(slot).and_then(Option::as_ref) {
            Some(conn) => conn.generation,
            None => return false,
        };
        let job = Job {
            slot,
            generation,
            request,
            keep_alive,
            queued_at: Instant::now(),
        };
        match state.jobs_queue.try_push(job) {
            Ok(()) => {
                state.inflight_jobs.fetch_add(1, Ordering::Relaxed);
                state.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
    }

    /// Queues an event-loop-generated response (400/408/429/501/503). The
    /// worker-path metrics equivalents live in `process_request`; inline
    /// responders count their own statuses.
    fn respond_inline(&mut self, slot: usize, response: Response, close: bool) {
        self.state.metrics.count_status(response.status);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let keep_alive = !close && !conn.read_closed;
        conn.out
            .extend_from_slice(&http::render_response(&response, keep_alive));
        conn.close_after_write |= !keep_alive;
    }

    /// Applies one worker completion: append the rendered bytes, restore
    /// the connection to parsing, and let pipelined requests proceed.
    fn handle_completion(&mut self, completion: Completion, now: u64) {
        let Completion {
            slot,
            generation,
            bytes,
            close,
        } = completion;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.generation != generation {
            return; // the slot was recycled; the requester is long gone
        }
        conn.out.extend_from_slice(&bytes);
        conn.state = ConnState::AwaitingRequest;
        if close {
            conn.close_after_write = true;
        } else {
            let deadline = now + self.state.config.read_timeout_ms;
            conn.read_deadline = Some(deadline);
            self.arm_timer(slot, deadline);
        }
        self.advance(slot, now);
    }

    fn drain_completions(&mut self, now: u64) {
        let completions = {
            let mut pending = self
                .state
                .completions
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut *pending)
        };
        for completion in completions {
            self.handle_completion(completion, now);
        }
    }

    /// Writes queued output until the socket pushes back, maintaining
    /// the write deadline and the poller's writable interest.
    fn flush_out(&mut self, slot: usize, now: u64) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let mut fatal = false;
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    fatal = true;
                    break;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    fatal = true;
                    break;
                }
            }
        }
        if fatal {
            self.close_conn(slot);
            return;
        }
        if conn.has_output() {
            if conn.write_deadline.is_none() {
                let deadline = now + WRITE_TIMEOUT_MS;
                conn.write_deadline = Some(deadline);
                self.arm_timer(slot, deadline);
            }
        } else {
            conn.out.clear();
            conn.out_pos = 0;
            conn.write_deadline = None;
            if conn.close_after_write {
                self.close_conn(slot);
                return;
            }
        }
        self.update_interest(slot);
    }

    /// Keeps the poller's interest in sync: always readable, writable
    /// only while output is pending (level-triggered writable interest
    /// on an idle socket would busy-loop).
    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let desired = if conn.has_output() {
            Interest::BOTH
        } else {
            Interest::READABLE
        };
        if desired != conn.interest
            && self
                .poller
                .reregister(&conn.stream, Token(slot + CONN_BASE), desired)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    /// Ensures a wheel entry exists no later than `deadline`.
    fn arm_timer(&mut self, slot: usize, deadline: u64) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if deadline < conn.timer_at {
            self.wheel
                .insert(deadline, timer_key(slot, conn.generation));
            conn.timer_at = deadline;
        }
    }

    /// A wheel entry fired: check the connection's actual deadlines
    /// (entries are lazily cancelled — a stale generation or an armed-
    /// then-cleared deadline is simply ignored) and re-arm as needed.
    fn handle_deadline(&mut self, key: u64, now: u64) {
        let slot = (key & (MAX_SLOTS as u64 - 1)) as usize;
        let generation = key >> SLOT_BITS;
        let mut timed_out = false;
        let mut hard_close = false;
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.generation & ((1 << (64 - SLOT_BITS)) - 1) != generation {
                return;
            }
            conn.timer_at = u64::MAX;
            if let Some(deadline) = conn.read_deadline {
                if now >= deadline && conn.state == ConnState::AwaitingRequest {
                    conn.read_deadline = None;
                    if conn.buf_in.is_empty() && !conn.has_output() {
                        // Idle keep-alive connection: close quietly.
                        hard_close = true;
                    } else {
                        // Mid-request stall: the slow-loris answer.
                        timed_out = true;
                    }
                }
            }
            if let Some(deadline) = conn.write_deadline {
                if now >= deadline && conn.has_output() {
                    hard_close = true;
                }
            }
        }
        if hard_close {
            self.close_conn(slot);
            return;
        }
        if timed_out {
            self.state
                .metrics
                .timeouts_total
                .fetch_add(1, Ordering::Relaxed);
            self.respond_inline(
                slot,
                Response::text(408, "request timed out waiting for bytes\n"),
                true,
            );
            self.flush_out(slot, now);
            return;
        }
        // Still-armed future deadlines need a fresh wheel entry.
        let next = {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            match (conn.read_deadline, conn.write_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        };
        if let Some(deadline) = next {
            self.arm_timer(slot, deadline.max(now + 1));
        }
    }
}
