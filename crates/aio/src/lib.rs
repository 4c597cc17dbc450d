//! `xhc-aio`: a dependency-free readiness event loop for the planning
//! daemon.
//!
//! The workspace builds fully offline, so instead of mio/tokio this
//! crate provides the smallest useful subset of a reactor:
//!
//! * [`Poller`] — register sockets with a [`Token`] and an [`Interest`],
//!   then [`Poller::wait`] for readiness [`Event`]s. On Linux the
//!   backend is **epoll** via raw syscalls, confined to the one
//!   `unsafe` module (`sys`, crate-internal); everywhere else a
//!   **portable nonblocking-poll fallback** reports every registered
//!   source as maybe-ready on each tick, which is correct — if slower —
//!   as long as all I/O is nonblocking. The platform alone picks the
//!   backend; on Linux the fallback is compiled only for this crate's
//!   unit tests, which drive it directly.
//! * [`Waker`] — wakes a blocked [`Poller::wait`] from any thread
//!   (eventfd on epoll, an atomic flag on the fallback).
//! * [`timer::TimerWheel`] — coarse hashed-wheel deadlines for
//!   slow-loris protection and graceful drain.
//! * [`queue::JobQueue`] — a bounded MPMC queue whose `Full` rejection
//!   is the admission-control signal.
//!
//! # Examples
//!
//! ```
//! use std::net::TcpListener;
//! use xhc_aio::{Events, Interest, Poller, Token};
//!
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! listener.set_nonblocking(true).unwrap();
//! let mut poller = Poller::new().unwrap();
//! poller.register(&listener, Token(0), Interest::READABLE).unwrap();
//!
//! // A connection attempt makes the listener readable.
//! let _client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
//! let mut events = Events::with_capacity(8);
//! poller
//!     .wait(&mut events, Some(std::time::Duration::from_secs(5)))
//!     .unwrap();
//! assert!(events.iter().any(|e| e.token() == Token(0) && e.readable()));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;
pub mod timer;

#[cfg(target_os = "linux")]
mod sys;

use std::io;
use std::os::fd::{AsRawFd, RawFd};
#[cfg(any(test, not(target_os = "linux")))]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An opaque registration id, echoed back on every [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub usize);

/// Which readiness directions a registration cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Readable readiness only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable readiness only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Whether this interest includes readable readiness.
    pub fn is_readable(self) -> bool {
        self.readable
    }

    /// Whether this interest includes writable readiness.
    pub fn is_writable(self) -> bool {
        self.writable
    }
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    token: Token,
    readable: bool,
    writable: bool,
    closed: bool,
    error: bool,
}

impl Event {
    /// The token the source was registered with.
    pub fn token(&self) -> Token {
        self.token
    }

    /// The source is (maybe) readable; a nonblocking read decides.
    pub fn readable(&self) -> bool {
        self.readable
    }

    /// The source is (maybe) writable.
    pub fn writable(&self) -> bool {
        self.writable
    }

    /// The peer closed (hang-up); usually also reported readable so the
    /// final EOF can be read.
    pub fn closed(&self) -> bool {
        self.closed
    }

    /// The source is in an error state; read/write to collect it.
    pub fn is_error(&self) -> bool {
        self.error
    }
}

/// A reusable buffer of [`Event`]s filled by [`Poller::wait`].
#[derive(Debug)]
pub struct Events {
    list: Vec<Event>,
    capacity: usize,
}

impl Events {
    /// A buffer that reports at most `capacity` events per wait (clamped
    /// to at least 1).
    pub fn with_capacity(capacity: usize) -> Events {
        let capacity = capacity.max(1);
        Events {
            list: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Iterates the events of the last wait.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.list.iter()
    }

    /// Number of events delivered by the last wait.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether the last wait delivered nothing (timeout or wakeup).
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.list.iter()
    }
}

/// Wakes a blocked [`Poller::wait`] from any thread. Cheap to clone;
/// usable after the poller is gone (wakes become no-ops).
#[derive(Debug, Clone)]
pub struct Waker {
    inner: WakerInner,
}

#[derive(Debug, Clone)]
enum WakerInner {
    #[cfg(target_os = "linux")]
    Eventfd(Arc<OwnedEventFd>),
    #[cfg(any(test, not(target_os = "linux")))]
    Flag(Arc<AtomicBool>),
}

impl Waker {
    /// Makes the poller's next (or current) wait return promptly.
    pub fn wake(&self) {
        match &self.inner {
            #[cfg(target_os = "linux")]
            WakerInner::Eventfd(fd) => {
                let _ = sys::eventfd_write(fd.0);
            }
            #[cfg(any(test, not(target_os = "linux")))]
            WakerInner::Flag(flag) => flag.store(true, Ordering::Release),
        }
    }
}

/// An eventfd that closes on drop (shared by the poller and its wakers).
#[cfg(target_os = "linux")]
#[derive(Debug)]
struct OwnedEventFd(RawFd);

#[cfg(target_os = "linux")]
impl Drop for OwnedEventFd {
    fn drop(&mut self) {
        sys::close_fd(self.0);
    }
}

/// The readiness selector. See the crate docs for the backend split.
#[derive(Debug)]
pub struct Poller {
    backend: Backend,
}

#[derive(Debug)]
enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(EpollBackend),
    #[cfg(any(test, not(target_os = "linux")))]
    Fallback(FallbackBackend),
}

impl Poller {
    /// Opens a poller on this platform's backend: epoll on Linux, the
    /// portable fallback elsewhere.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the epoll instance or its
    /// wakeup eventfd cannot be created.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        let backend = Backend::Epoll(EpollBackend::new()?);
        #[cfg(not(target_os = "linux"))]
        let backend = Backend::Fallback(FallbackBackend::new());
        Ok(Poller { backend })
    }

    /// The active backend, for logs and tests: `"epoll"` or
    /// `"fallback"`.
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
            #[cfg(any(test, not(target_os = "linux")))]
            Backend::Fallback(_) => "fallback",
        }
    }

    /// A handle that wakes this poller from other threads.
    pub fn waker(&self) -> Waker {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => Waker {
                inner: WakerInner::Eventfd(Arc::clone(&e.wake_fd)),
            },
            #[cfg(any(test, not(target_os = "linux")))]
            Backend::Fallback(f) => Waker {
                inner: WakerInner::Flag(Arc::clone(&f.woken)),
            },
        }
    }

    /// Starts watching `source` under `token`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (e.g. the fd is already
    /// registered on the epoll backend).
    pub fn register(
        &mut self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        let fd = source.as_raw_fd();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.control(sys::EPOLL_CTL_ADD, fd, token, interest),
            #[cfg(any(test, not(target_os = "linux")))]
            Backend::Fallback(f) => {
                f.registry.retain(|(t, _)| *t != token);
                f.registry.push((token, interest));
                Ok(())
            }
        }
    }

    /// Changes the interest of an already-registered source.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (e.g. the fd is not registered).
    pub fn reregister(
        &mut self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        let fd = source.as_raw_fd();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.control(sys::EPOLL_CTL_MOD, fd, token, interest),
            #[cfg(any(test, not(target_os = "linux")))]
            Backend::Fallback(f) => {
                f.registry.retain(|(t, _)| *t != token);
                f.registry.push((token, interest));
                Ok(())
            }
        }
    }

    /// Stops watching `source`. On the fallback backend the token is
    /// what identifies the registration.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error from `epoll_ctl` (the fallback
    /// never fails).
    pub fn deregister(&mut self, source: &impl AsRawFd, token: Token) -> io::Result<()> {
        let fd = source.as_raw_fd();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.control(sys::EPOLL_CTL_DEL, fd, token, Interest::READABLE),
            #[cfg(any(test, not(target_os = "linux")))]
            Backend::Fallback(f) => {
                f.registry.retain(|(t, _)| *t != token);
                Ok(())
            }
        }
    }

    /// Blocks until readiness, a wakeup, or `timeout` (`None` = forever),
    /// filling `events`. Wakeups and timeouts leave `events` empty.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error from the kernel wait.
    pub fn wait(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        events.list.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.wait(events, timeout),
            #[cfg(any(test, not(target_os = "linux")))]
            Backend::Fallback(f) => {
                f.wait(events, timeout);
                Ok(())
            }
        }
    }
}

#[cfg(target_os = "linux")]
struct EpollBackend {
    epfd: RawFd,
    wake_fd: Arc<OwnedEventFd>,
    buf: Vec<sys::EpollEvent>,
}

// Hand-written because `sys::EpollEvent` is repr(packed) and cannot
// derive Debug; the raw buffer is transient scratch anyway.
#[cfg(target_os = "linux")]
impl std::fmt::Debug for EpollBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpollBackend")
            .field("epfd", &self.epfd)
            .field("wake_fd", &self.wake_fd)
            .finish_non_exhaustive()
    }
}

/// The reserved token value the wakeup eventfd is registered under;
/// never reported to callers.
const WAKE_TOKEN: u64 = u64::MAX;

#[cfg(target_os = "linux")]
impl EpollBackend {
    fn new() -> io::Result<EpollBackend> {
        let epfd = sys::epoll_create()?;
        let wake = match sys::eventfd_create() {
            Ok(fd) => fd,
            Err(e) => {
                sys::close_fd(epfd);
                return Err(e);
            }
        };
        let backend = EpollBackend {
            epfd,
            wake_fd: Arc::new(OwnedEventFd(wake)),
            buf: Vec::new(),
        };
        sys::epoll_control(epfd, sys::EPOLL_CTL_ADD, wake, sys::EPOLLIN, WAKE_TOKEN)?;
        Ok(backend)
    }

    fn control(&mut self, op: i32, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        let mut events = sys::EPOLLRDHUP;
        if interest.is_readable() {
            events |= sys::EPOLLIN;
        }
        if interest.is_writable() {
            events |= sys::EPOLLOUT;
        }
        sys::epoll_control(self.epfd, op, fd, events, token.0 as u64)
    }

    fn wait(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 100µs deadline does not busy-spin at 0ms.
            Some(d) => d
                .as_millis()
                .max(u128::from(!d.is_zero()))
                .min(i32::MAX as u128) as i32,
        };
        self.buf
            .resize(events.capacity, sys::EpollEvent { events: 0, u64: 0 });
        let n = loop {
            match sys::epoll_wait_events(self.epfd, &mut self.buf, timeout_ms) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        for raw in &self.buf[..n] {
            let (bits, token) = (raw.events, raw.u64);
            if token == WAKE_TOKEN {
                sys::eventfd_drain(self.wake_fd.0);
                continue;
            }
            let closed = bits & (sys::EPOLLRDHUP | sys::EPOLLHUP) != 0;
            let error = bits & sys::EPOLLERR != 0;
            events.list.push(Event {
                token: Token(token as usize),
                // Error/hangup conditions surface through reads/writes,
                // so report both directions ready when they fire.
                readable: bits & sys::EPOLLIN != 0 || closed || error,
                writable: bits & sys::EPOLLOUT != 0 || closed || error,
                closed,
                error,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollBackend {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
        // wake_fd closes when the last Waker clone drops.
    }
}

/// The portable backend: no OS selector at all. Every registered source
/// is reported maybe-ready on each tick (capped at
/// [`FallbackBackend::TICK`]), so callers' nonblocking reads/writes do
/// the actual readiness test. Strictly correct, strictly slower.
#[cfg(any(test, not(target_os = "linux")))]
#[derive(Debug)]
struct FallbackBackend {
    registry: Vec<(Token, Interest)>,
    woken: Arc<AtomicBool>,
    /// Rotating scan offset so that when more sources are registered
    /// than the event buffer holds, every source is still reported
    /// within a bounded number of ticks (no starvation).
    next_start: usize,
}

#[cfg(any(test, not(target_os = "linux")))]
impl FallbackBackend {
    /// Poll cadence when sources are registered but idle.
    const TICK: Duration = Duration::from_millis(1);

    fn new() -> FallbackBackend {
        FallbackBackend {
            registry: Vec::new(),
            woken: Arc::new(AtomicBool::new(false)),
            next_start: 0,
        }
    }

    fn wait(&mut self, events: &mut Events, timeout: Option<Duration>) {
        // A pending wakeup short-circuits the sleep entirely.
        if !self.woken.swap(false, Ordering::Acquire) {
            let nap = match (timeout, self.registry.is_empty()) {
                // Nothing registered: honour the timeout in waker-checked
                // slices so wakes stay prompt.
                (t, true) => t.unwrap_or(Duration::from_secs(3600)),
                (Some(t), false) => t.min(Self::TICK),
                (None, false) => Self::TICK,
            };
            let deadline = std::time::Instant::now() + nap;
            loop {
                if self.woken.swap(false, Ordering::Acquire) {
                    break;
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    break;
                }
                std::thread::sleep((deadline - now).min(Self::TICK));
            }
        }
        let n = self.registry.len();
        if n == 0 {
            return;
        }
        let start = self.next_start % n;
        for i in 0..n {
            let (token, interest) = self.registry[(start + i) % n];
            events.list.push(Event {
                token,
                readable: interest.is_readable(),
                writable: interest.is_writable(),
                closed: false,
                error: false,
            });
            if events.list.len() >= events.capacity {
                break;
            }
        }
        self.next_start = (start + events.list.len()) % n;
    }
}

/// The fallback backend, driven directly through the [`Poller`] facade
/// (on Linux `Poller::new` never picks it).
#[cfg(test)]
mod fallback_tests {
    use super::*;
    use std::collections::HashSet;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn fallback() -> Poller {
        Poller {
            backend: Backend::Fallback(FallbackBackend::new()),
        }
    }

    #[test]
    fn listener_is_readable_after_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = fallback();
        assert_eq!(poller.backend_name(), "fallback");
        poller
            .register(&listener, Token(7), Interest::READABLE)
            .unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Events::with_capacity(8);
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let event = events.iter().find(|e| e.token() == Token(7)).unwrap();
        assert!(event.readable() && !event.writable());
        // Maybe-ready: the nonblocking accept decides, and here it
        // succeeds once the connection has landed.
        let start = Instant::now();
        while listener.accept().is_err() {
            assert!(start.elapsed() < Duration::from_secs(5), "never accepted");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn waker_interrupts_a_wait_with_nothing_registered() {
        let mut poller = fallback();
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Events::with_capacity(4);
        let start = Instant::now();
        poller.wait(&mut events, None).unwrap();
        assert!(start.elapsed() < Duration::from_secs(10), "wake was lost");
        assert!(events.is_empty());
        handle.join().unwrap();
        // A wake posted before the wait is not lost either.
        poller.waker().wake();
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(30)))
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "pre-posted wake lost"
        );
    }

    #[test]
    fn rotation_reports_every_source_when_they_outnumber_the_buffer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut poller = fallback();
        for t in 0..5 {
            poller
                .register(&listener, Token(t), Interest::BOTH)
                .unwrap();
        }
        let mut events = Events::with_capacity(2);
        let mut seen = HashSet::new();
        for _ in 0..3 {
            poller
                .wait(&mut events, Some(Duration::from_millis(1)))
                .unwrap();
            assert_eq!(events.len(), 2, "a full tick fills the buffer");
            seen.extend(events.iter().map(Event::token));
        }
        // Three ticks of two cover all five sources: none is starved.
        assert_eq!(seen.len(), 5, "starved sources: {seen:?}");
    }
}
