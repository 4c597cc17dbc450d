//! Open-loop load generator for an out-of-process daemon.
//!
//! Requests go out on a seeded Poisson schedule, whatever the daemon's
//! speed, over `conns` keep-alive connections (one thread each) with
//! pipelining. Each request is timed from its *intended* send time, so
//! a stall also charges the requests queued behind it, and the
//! generator reports how late it ran. Every `200` body is compared
//! byte-for-byte with the expected plan; `429`, `5xx`, other statuses,
//! timeouts, I/O errors and mismatches all count as failures.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xhc_prng::XhcRng;

use crate::stats::median;
use crate::{http, sock};

/// Single requests sent before the pairs [`pipelined_pair_ms`] times,
/// so that the connection has left the kernel's initial quick-ACK
/// phase and acknowledges as a long-lived client would.
const PAIR_WARM_SINGLES: usize = 4;

/// One request and the response body it must produce.
#[derive(Debug, Clone)]
pub struct Op {
    pub method: &'static str,
    pub path: String,
    pub body: Arc<[u8]>,
    pub expected: Arc<[u8]>,
    /// Which circuit (0 = CKT-A, 1 = CKT-B, 2 = CKT-C) the request
    /// derives from.
    pub tag: usize,
}

/// Outcome counts of one step.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub server_errors: u64,
    pub other_status: u64,
    pub timeouts: u64,
    pub io_errors: u64,
    pub mismatches: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.shed
            + self.server_errors
            + self.other_status
            + self.timeouts
            + self.io_errors
            + self.mismatches
    }

    fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.shed += o.shed;
        self.server_errors += o.server_errors;
        self.other_status += o.other_status;
        self.timeouts += o.timeouts;
        self.io_errors += o.io_errors;
        self.mismatches += o.mismatches;
    }
}

/// What one step measured. Latencies are in milliseconds and cover the
/// requests answered `200` with the expected body.
#[derive(Debug, Default)]
pub struct StepResult {
    /// Completion minus intended send time.
    pub latency_ms: Vec<f64>,
    /// Intended send time, ns from the step start, of each
    /// `latency_ms` entry.
    pub intended_ns: Vec<u64>,
    /// Completion minus actual send time.
    pub service_ms: Vec<f64>,
    /// `latency_ms` split by [`Op::tag`].
    pub by_tag: [Vec<f64>; 3],
    /// Actual minus intended send time, for every request sent.
    pub lag_ms: Vec<f64>,
    pub tally: Tally,
    /// Requests due but not yet answered at the schedule's midpoint.
    pub backlog_mid: u64,
    /// Requests due but not yet answered when the schedule ends.
    pub backlog_end: u64,
}

impl StepResult {
    /// Whether the backlog grew over the second half of the schedule by
    /// more than `slack` requests.
    pub fn backlog_grew(&self, slack: u64) -> bool {
        self.backlog_end > self.backlog_mid + slack
    }

    fn merge(&mut self, o: StepResult) {
        self.latency_ms.extend(o.latency_ms);
        self.intended_ns.extend(o.intended_ns);
        self.service_ms.extend(o.service_ms);
        for (a, b) in self.by_tag.iter_mut().zip(o.by_tag) {
            a.extend(b);
        }
        self.lag_ms.extend(o.lag_ms);
        self.tally.add(&o.tally);
        self.backlog_mid += o.backlog_mid;
        self.backlog_end += o.backlog_end;
    }
}

/// Intended send offsets, in nanoseconds from the step start, of `n`
/// Poisson arrivals at `rate` per second.
pub fn poisson_schedule(rng: &mut XhcRng, rate: f64, n: usize) -> Vec<u64> {
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // 1 - U lies in (0, 1], so the logarithm is finite.
            t += -(1.0 - rng.next_f64()).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// Sends `ops[i]` at `intended_ns[i]` (ascending) over `conns`
/// connections, request `i` on connection `i % conns`, and waits for
/// every answer until `grace` past the last intended send.
pub fn run_step(
    addr: SocketAddr,
    ops: &[&Op],
    intended_ns: &[u64],
    conns: usize,
    grace: Duration,
) -> StepResult {
    assert_eq!(ops.len(), intended_ns.len());
    let conns = conns.max(1);
    let end_ns = intended_ns.last().copied().unwrap_or(0);
    let marks = [end_ns / 2, end_ns];
    let deadline_ns = end_ns + grace.as_nanos() as u64;
    let start = Instant::now();
    let mut total = StepResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<usize> = (c..ops.len()).step_by(conns).collect();
                scope.spawn(move || {
                    Conn::new(addr, start, ops, intended_ns, mine, marks, deadline_ns).run()
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("load generator thread panicked"));
        }
    });
    total
}

/// One connection's share of a step.
struct Conn<'a> {
    addr: SocketAddr,
    start: Instant,
    ops: &'a [&'a Op],
    intended: &'a [u64],
    mine: Vec<usize>,
    marks: [u64; 2],
    marks_taken: [bool; 2],
    deadline_ns: u64,
    stream: Option<TcpStream>,
    /// `(op index, actual send ns)` of requests awaiting a response.
    inflight: VecDeque<(usize, u64)>,
    completed: usize,
    buf: Vec<u8>,
    out: StepResult,
}

impl<'a> Conn<'a> {
    fn new(
        addr: SocketAddr,
        start: Instant,
        ops: &'a [&'a Op],
        intended: &'a [u64],
        mine: Vec<usize>,
        marks: [u64; 2],
        deadline_ns: u64,
    ) -> Self {
        Conn {
            addr,
            start,
            ops,
            intended,
            mine,
            marks,
            marks_taken: [false; 2],
            deadline_ns,
            stream: None,
            inflight: VecDeque::new(),
            completed: 0,
            buf: Vec::new(),
            out: StepResult::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn run(mut self) -> StepResult {
        let mut next = 0usize;
        let mut request = Vec::new();
        let mut chunk = vec![0u8; 256 * 1024];
        loop {
            let mut now = self.now_ns();
            self.take_marks(now);
            while next < self.mine.len() && self.intended[self.mine[next]] <= now {
                let i = self.mine[next];
                next += 1;
                self.send(i, &mut request);
                now = self.now_ns();
            }
            if next == self.mine.len() && self.inflight.is_empty() {
                self.take_marks(u64::MAX);
                break;
            }
            if now >= self.deadline_ns {
                self.out.tally.timeouts += (self.inflight.len() + self.mine.len() - next) as u64;
                self.take_marks(u64::MAX);
                break;
            }
            let mut until = self.deadline_ns;
            if next < self.mine.len() {
                until = until.min(self.intended[self.mine[next]]);
            }
            for (k, &mark) in self.marks.iter().enumerate() {
                if !self.marks_taken[k] {
                    until = until.min(mark);
                }
            }
            let wait = Duration::from_nanos(until.saturating_sub(now));
            if self.inflight.is_empty() {
                std::thread::sleep(wait);
                continue;
            }
            self.receive(&mut chunk, wait);
        }
        self.out
    }

    /// Records, at each mark, how many of this connection's requests
    /// were due by it but not yet answered.
    fn take_marks(&mut self, now: u64) {
        for k in 0..2 {
            if !self.marks_taken[k] && now >= self.marks[k] {
                let mark = self.marks[k];
                let due = self.mine.partition_point(|&i| self.intended[i] <= mark);
                let backlog = due.saturating_sub(self.completed) as u64;
                if k == 0 {
                    self.out.backlog_mid = backlog;
                } else {
                    self.out.backlog_end = backlog;
                }
                self.marks_taken[k] = true;
            }
        }
    }

    fn send(&mut self, i: usize, request: &mut Vec<u8>) {
        let op = self.ops[i];
        http::render(request, op.method, &op.path, &op.body);
        if self.stream.is_none() {
            self.stream = TcpStream::connect(self.addr)
                .and_then(|s| s.set_nodelay(true).map(|()| s))
                .ok();
        }
        let Some(stream) = self.stream.as_mut() else {
            self.out.tally.io_errors += 1;
            self.completed += 1;
            return;
        };
        let written = stream.write_all(request);
        let sent = self.now_ns();
        self.out.tally.sent += 1;
        self.out
            .lag_ms
            .push(sent.saturating_sub(self.intended[i]) as f64 / 1e6);
        match written {
            Ok(()) => self.inflight.push_back((i, sent)),
            Err(_) => {
                self.out.tally.io_errors += 1;
                self.completed += 1;
                self.reset();
            }
        }
    }

    fn receive(&mut self, chunk: &mut [u8], wait: Duration) {
        let Some(stream) = self.stream.as_mut() else {
            self.reset();
            return;
        };
        match sock::readable(stream, wait) {
            Ok(true) => {}
            Ok(false) => return,
            Err(_) => {
                self.reset();
                return;
            }
        }
        match stream.read(chunk) {
            Ok(0) => self.reset(),
            Ok(n) => {
                let _ = sock::quickack(stream);
                self.buf.extend_from_slice(&chunk[..n]);
                self.parse();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => self.reset(),
        }
    }

    fn parse(&mut self) {
        let mut used = 0;
        loop {
            match http::parse_response(&self.buf[used..]) {
                Ok(Some((response, n))) => {
                    used += n;
                    let done = self.now_ns();
                    let Some((i, sent)) = self.inflight.pop_front() else {
                        // An answer nobody asked for: the stream is out
                        // of step, so nothing on it can be trusted.
                        self.out.tally.other_status += 1;
                        self.reset();
                        return;
                    };
                    self.record(i, sent, done, &response);
                }
                Ok(None) => break,
                Err(_) => {
                    self.reset();
                    return;
                }
            }
        }
        self.buf.drain(..used);
    }

    fn record(&mut self, i: usize, sent: u64, done: u64, response: &http::Response) {
        self.completed += 1;
        let t = &mut self.out.tally;
        match response.status {
            200 if response.body[..] == self.ops[i].expected[..] => {
                t.ok += 1;
                let latency = done.saturating_sub(self.intended[i]) as f64 / 1e6;
                self.out.latency_ms.push(latency);
                self.out.intended_ns.push(self.intended[i]);
                self.out.by_tag[self.ops[i].tag].push(latency);
                self.out
                    .service_ms
                    .push(done.saturating_sub(sent) as f64 / 1e6);
            }
            200 => t.mismatches += 1,
            429 => t.shed += 1,
            500..=599 => t.server_errors += 1,
            _ => t.other_status += 1,
        }
    }

    /// Drops the connection; every request still awaiting an answer on
    /// it failed.
    fn reset(&mut self) {
        self.out.tally.io_errors += self.inflight.len() as u64;
        self.completed += self.inflight.len();
        self.inflight.clear();
        self.buf.clear();
        self.stream = None;
    }
}

/// Times `trials` pairs of `GET path` requests, each pair sent in one
/// write on one keep-alive connection that keeps the kernel's default
/// delayed ACKs, and returns the median time in ms until both answers
/// are in. Any answer other than `200` is an error.
pub fn pipelined_pair_ms(addr: SocketAddr, path: &str, trials: usize) -> io::Result<f64> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut one = Vec::new();
    http::render(&mut one, "GET", path, &[]);
    let pair = [one.as_slice(), one.as_slice()].concat();
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut exchange = |request: &[u8], answers: usize| -> io::Result<f64> {
        let t = Instant::now();
        stream.write_all(request)?;
        let mut got = 0;
        while got < answers {
            if let Some((response, used)) = http::parse_response(&buf)? {
                buf.drain(..used);
                if response.status != 200 {
                    return Err(io::Error::other(format!("answered {}", response.status)));
                }
                got += 1;
                continue;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        Ok(t.elapsed().as_secs_f64() * 1e3)
    };
    for _ in 0..PAIR_WARM_SINGLES {
        exchange(&one, 1)?;
    }
    let times = (0..trials)
        .map(|_| exchange(&pair, 2))
        .collect::<io::Result<Vec<f64>>>()?;
    Ok(median(&times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    /// A fake daemon on one connection: sleeps `stall` before reading
    /// anything, then answers every request `200` with `body`. Returns
    /// the number of requests answered once the client hangs up.
    fn fake_server(stall: Duration, body: &'static [u8]) -> (SocketAddr, JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(stall);
            let mut out = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut served = 0;
            loop {
                let mut len = 0;
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap() == 0 {
                        return served;
                    }
                    if line == "\r\n" {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        len = v.trim().parse().unwrap();
                    }
                }
                let mut request_body = vec![0; len];
                reader.read_exact(&mut request_body).unwrap();
                write!(
                    out,
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .unwrap();
                out.write_all(body).unwrap();
                served += 1;
            }
        });
        (addr, handle)
    }

    fn op(body_len: usize, expected: &[u8]) -> Op {
        Op {
            method: "POST",
            path: "/v1/plan".to_string(),
            body: Arc::from(vec![7u8; body_len]),
            expected: Arc::from(expected),
            tag: 1,
        }
    }

    #[test]
    fn wrong_plan_body_is_a_failure() {
        let (addr, server) = fake_server(Duration::ZERO, b"WRONG");
        let ops = [op(10, b"PLAN"), op(10, b"PLAN"), op(10, b"PLAN")];
        let refs: Vec<&Op> = ops.iter().collect();
        let r = run_step(
            addr,
            &refs,
            &[0, 1_000_000, 2_000_000],
            1,
            Duration::from_secs(5),
        );
        assert_eq!(server.join().unwrap(), 3);
        assert_eq!(r.tally.sent, 3);
        assert_eq!(r.tally.mismatches, 3);
        assert_eq!(r.tally.failed(), 3);
        assert_eq!(r.tally.ok, 0);
        assert!(r.latency_ms.is_empty());

        let (addr, server) = fake_server(Duration::ZERO, b"PLAN");
        let r = run_step(
            addr,
            &refs,
            &[0, 1_000_000, 2_000_000],
            1,
            Duration::from_secs(5),
        );
        assert_eq!(server.join().unwrap(), 3);
        assert_eq!((r.tally.ok, r.tally.failed()), (3, 0));
        assert_eq!(r.by_tag[1].len(), 3);
    }

    #[test]
    fn pipelined_pairs_are_timed_until_both_answers_arrive() {
        let (addr, server) = fake_server(Duration::ZERO, b"OK");
        let ms = pipelined_pair_ms(addr, "/healthz", 3).unwrap();
        assert!(ms > 0.0);
        // Four warm-up singles and three pairs.
        assert_eq!(server.join().unwrap(), 4 + 2 * 3);
    }

    #[test]
    fn stalled_server_is_charged_from_intended_send_times() {
        let stall = Duration::from_millis(300);
        let (addr, server) = fake_server(stall, b"PLAN");
        let ops: Vec<Op> = (0..5).map(|_| op(10, b"PLAN")).collect();
        let refs: Vec<&Op> = ops.iter().collect();
        let intended: Vec<u64> = (0..5).map(|i| i * 10_000_000).collect();
        let r = run_step(addr, &refs, &intended, 1, Duration::from_secs(5));
        assert_eq!(server.join().unwrap(), 5);
        assert_eq!((r.tally.ok, r.tally.failed()), (5, 0));
        // Open loop: small requests still leave on time while the
        // server stalls, and each one waits out the rest of the stall.
        assert!(r.lag_ms.iter().all(|&l| l < 50.0), "{:?}", r.lag_ms);
        for (i, &l) in r.latency_ms.iter().enumerate() {
            assert!(l >= 300.0 - 10.0 * i as f64 - 1.0, "{i}: {l}");
        }
        // Nothing was answered by the middle or the end of the schedule.
        assert_eq!((r.backlog_mid, r.backlog_end), (3, 5));
    }

    #[test]
    fn blocked_sends_show_as_lag() {
        // Bodies far larger than the socket buffers: the first write
        // cannot finish until the stalled server reads, so the later
        // requests leave late.
        let stall = Duration::from_millis(300);
        let (addr, server) = fake_server(stall, b"PLAN");
        let ops: Vec<Op> = (0..3).map(|_| op(32 << 20, b"PLAN")).collect();
        let refs: Vec<&Op> = ops.iter().collect();
        let r = run_step(
            addr,
            &refs,
            &[0, 1_000_000, 2_000_000],
            1,
            Duration::from_secs(30),
        );
        assert_eq!(server.join().unwrap(), 3);
        assert_eq!((r.tally.ok, r.tally.failed()), (3, 0));
        assert!(r.lag_ms[1] >= 200.0, "{:?}", r.lag_ms);
        for ((&lat, &svc), &lag) in r.latency_ms.iter().zip(&r.service_ms).zip(&r.lag_ms) {
            assert!(
                lat + 1e-9 >= svc + lag,
                "latency {lat} < service {svc} + lag {lag}"
            );
        }
    }
}
