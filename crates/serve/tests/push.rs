//! End-to-end push export: a daemon started with `with_push_metrics`
//! POSTs its line-protocol body to an in-test collector, and the final
//! flush on shutdown carries the request it served.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::thread;

use xhc_serve::{client, Server, ServerConfig};

/// Accepts POSTs until a connection closes without sending a request,
/// forwarding each body to `bodies` before answering `204`.
fn collect(listener: TcpListener, bodies: mpsc::Sender<String>) {
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
        bodies
            .send(String::from_utf8(body).expect("utf-8 body"))
            .unwrap();
        stream
            .write_all(b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
            .expect("answer push");
    }
}

#[test]
fn final_flush_pushes_the_served_request() {
    let collector = TcpListener::bind("127.0.0.1:0").expect("bind collector");
    let collector_addr = collector.local_addr().unwrap();
    let (tx, rx) = mpsc::channel();
    let collector_thread = thread::spawn(move || collect(collector, tx));

    let store_dir = std::env::temp_dir().join(format!("xhc-push-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let config =
        ServerConfig::new(&store_dir).with_push_metrics(format!("http://{collector_addr}/write"));
    let server = Server::bind("127.0.0.1:0", config).expect("bind daemon");
    let addr = server.local_addr();
    let handle = server.handle();
    let daemon = thread::spawn(move || server.run());

    let health = client::get(addr, "/healthz").expect("GET /healthz");
    assert_eq!(health.status, 200);
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
