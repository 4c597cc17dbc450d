//! Loopback-socket tests for the `Poller` facade on this platform's
//! backend: epoll on Linux (real kernel readiness), the portable
//! fallback elsewhere (the maybe-ready contract: every registered source
//! reported, nonblocking ops decide). The crate's unit tests drive the
//! fallback directly on Linux too.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use xhc_aio::{Events, Interest, Poller, Token};

fn new_poller() -> Poller {
    Poller::new().expect("poller")
}

fn wait_for(
    poller: &mut Poller,
    events: &mut Events,
    pred: impl Fn(&xhc_aio::Event) -> bool,
    deadline: Duration,
) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        poller
            .wait(events, Some(Duration::from_millis(50)))
            .expect("wait");
        if events.iter().any(&pred) {
            return true;
        }
    }
    false
}

#[test]
fn listener_becomes_readable_on_connect() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let mut poller = new_poller();
    poller
        .register(&listener, Token(7), Interest::READABLE)
        .unwrap();

    let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let mut events = Events::with_capacity(8);
    assert!(
        wait_for(
            &mut poller,
            &mut events,
            |e| e.token() == Token(7) && e.readable(),
            Duration::from_secs(5),
        ),
        "pending connection never reported readable on {}",
        poller.backend_name()
    );
    let (conn, _) = listener.accept().unwrap();
    drop(conn);
}

#[test]
fn stream_reports_readable_when_bytes_arrive() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut client = TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();
    server.set_nonblocking(true).unwrap();

    let mut poller = new_poller();
    poller
        .register(&server, Token(1), Interest::READABLE)
        .unwrap();

    client.write_all(b"ping").unwrap();
    let mut events = Events::with_capacity(8);
    assert!(wait_for(
        &mut poller,
        &mut events,
        |e| e.token() == Token(1) && e.readable(),
        Duration::from_secs(5),
    ));

    // The maybe-ready contract: a nonblocking read settles it.
    let mut server = server;
    let mut buf = [0u8; 16];
    let n = server.read(&mut buf).unwrap();
    assert_eq!(&buf[..n], b"ping");
}

#[test]
fn reregister_to_writable_and_deregister() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = TcpStream::connect(addr).unwrap();
    client.set_nonblocking(true).unwrap();
    let (_server, _) = listener.accept().unwrap();

    let mut poller = new_poller();
    poller
        .register(&client, Token(3), Interest::READABLE)
        .unwrap();
    poller
        .reregister(&client, Token(3), Interest::WRITABLE)
        .unwrap();

    // An idle connected socket has send-buffer space: writable.
    let mut events = Events::with_capacity(8);
    assert!(wait_for(
        &mut poller,
        &mut events,
        |e| e.token() == Token(3) && e.writable(),
        Duration::from_secs(5),
    ));

    poller.deregister(&client, Token(3)).unwrap();
    // After deregistration the token must not appear again.
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(200) {
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(
            events.iter().all(|e| e.token() != Token(3)),
            "deregistered token still reported on {}",
            poller.backend_name()
        );
    }
}

#[test]
fn waker_interrupts_a_long_wait() {
    let mut poller = new_poller();
    // Register something so the fallback backend takes its sliced-sleep
    // path too.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    poller
        .register(&listener, Token(0), Interest::READABLE)
        .unwrap();

    let waker = poller.waker();
    let handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        waker.wake();
    });

    let mut events = Events::with_capacity(4);
    let start = Instant::now();
    poller
        .wait(&mut events, Some(Duration::from_secs(30)))
        .unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "wake did not interrupt the wait"
    );
    handle.join().unwrap();
}

#[test]
fn wake_before_wait_is_not_lost() {
    let mut poller = new_poller();
    let waker = poller.waker();
    waker.wake();
    let mut events = Events::with_capacity(4);
    let start = Instant::now();
    poller
        .wait(&mut events, Some(Duration::from_secs(30)))
        .unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "pre-posted wake was lost"
    );
}

#[test]
fn peer_close_is_reported() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();
    server.set_nonblocking(true).unwrap();

    let mut poller = new_poller();
    poller
        .register(&server, Token(9), Interest::READABLE)
        .unwrap();
    drop(client);

    // Both backends must let a reader discover the close: epoll reports
    // RDHUP/readable; the fallback reports maybe-readable and the
    // nonblocking read returns Ok(0).
    let mut events = Events::with_capacity(8);
    assert!(wait_for(
        &mut poller,
        &mut events,
        |e| e.token() == Token(9) && e.readable(),
        Duration::from_secs(5),
    ));
    let mut server = server;
    let mut buf = [0u8; 8];
    assert_eq!(server.read(&mut buf).unwrap(), 0, "expected EOF");
}

#[test]
fn backend_follows_the_platform() {
    let expected = if cfg!(target_os = "linux") {
        "epoll"
    } else {
        "fallback"
    };
    assert_eq!(new_poller().backend_name(), expected);
}
