//! A minimal blocking HTTP client for the daemon, used by the
//! `xhybrid fetch` subcommand, the loopback tests and the latency
//! benches. The free functions ([`request`], [`get`], [`post`]) open a
//! fresh `Connection: close` socket per call; [`Client`] keeps one
//! connection alive across calls, which is what anything
//! latency-sensitive should use.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

/// A parsed HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The first value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Whether the server asked for the connection to be closed.
    fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Serializes a request head plus body into one buffer (one write per
/// request keeps a keep-alive exchange to a single segment when small).
fn render_request(
    method: &str,
    path_and_query: &str,
    content_type: Option<&str>,
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut head = format!("{method} {path_and_query} HTTP/1.1\r\nHost: xhc-serve\r\n");
    if let Some(ct) = content_type {
        head.push_str(&format!("Content-Type: {ct}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    if !keep_alive {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    let mut buf = head.into_bytes();
    buf.extend_from_slice(body);
    buf
}

/// Reads one response off `reader`. With `to_eof_ok`, a missing
/// `Content-Length` falls back to read-to-EOF (only sound on a
/// `Connection: close` exchange); without it the header is required.
fn read_response(reader: &mut impl BufRead, to_eof_ok: bool) -> io::Result<HttpResponse> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let mut parts = status_line.split_ascii_whitespace();
    let version = parts.next().ok_or_else(|| bad("empty response"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unexpected protocol `{version}`")));
    }
    let status: u16 = parts
        .next()
        .ok_or_else(|| bad("missing status code"))?
        .parse()
        .map_err(|_| bad("malformed status code"))?;

    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("truncated response headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            buf
        }
        None if to_eof_ok => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
        None => {
            return Err(bad(
                "response without Content-Length on a keep-alive exchange",
            ))
        }
    };
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Sends one request and reads the response (`Connection: close`
/// framing; the body is read to EOF or `Content-Length`).
///
/// # Errors
///
/// Returns transport errors and malformed-response errors.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path_and_query: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&render_request(
        method,
        path_and_query,
        content_type,
        body,
        false,
    ))?;
    stream.flush()?;
    read_response(&mut BufReader::new(stream), true)
}

/// `GET path` against the daemon at `addr`.
///
/// # Errors
///
/// Returns transport errors and malformed-response errors.
pub fn get(addr: impl ToSocketAddrs, path_and_query: &str) -> io::Result<HttpResponse> {
    request(addr, "GET", path_and_query, None, &[])
}

/// `POST path` with a body against the daemon at `addr`.
///
/// # Errors
///
/// Returns transport errors and malformed-response errors.
pub fn post(
    addr: impl ToSocketAddrs,
    path_and_query: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<HttpResponse> {
    request(addr, "POST", path_and_query, Some(content_type), body)
}

/// A keep-alive HTTP client: one TCP connection reused across requests,
/// reconnecting transparently when the server closes it (an explicit
/// `Connection: close` response, a timed-out idle connection, a daemon
/// restart). One request is in flight at a time.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for the daemon at `addr`. No connection is opened until
    /// the first request.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    /// The address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a live connection is currently cached.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Sends `method path` with an optional body over the cached
    /// connection, reconnecting (and retrying once) if the server
    /// dropped it between requests.
    ///
    /// # Errors
    ///
    /// Returns transport errors and malformed-response errors.
    pub fn request(
        &mut self,
        method: &str,
        path_and_query: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> io::Result<HttpResponse> {
        let wire = render_request(method, path_and_query, content_type, body, true);
        let reused = self.stream.is_some();
        match self.exchange(&wire) {
            Ok(response) => Ok(response),
            // A dead cached connection (server idle-timeout, restart) is
            // indistinguishable from a send/read error; retry exactly
            // once on a fresh connection, but only if we were reusing —
            // a fresh connection's failure is real.
            Err(_) if reused => {
                self.stream = None;
                self.exchange(&wire)
            }
            Err(e) => Err(e),
        }
    }

    fn exchange(&mut self, wire: &[u8]) -> io::Result<HttpResponse> {
        if self.stream.is_none() {
            self.stream = Some(TcpStream::connect(self.addr)?);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let result = (|| {
            stream.write_all(wire)?;
            stream.flush()?;
            read_response(&mut BufReader::new(&mut *stream), false)
        })();
        match result {
            Ok(response) => {
                if response.wants_close() {
                    self.stream = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// `GET path` over the kept-alive connection.
    ///
    /// # Errors
    ///
    /// Returns transport errors and malformed-response errors.
    pub fn get(&mut self, path_and_query: &str) -> io::Result<HttpResponse> {
        self.request("GET", path_and_query, None, &[])
    }

    /// `POST path` with a body over the kept-alive connection.
    ///
    /// # Errors
    ///
    /// Returns transport errors and malformed-response errors.
    pub fn post(
        &mut self,
        path_and_query: &str,
        content_type: &str,
        body: &[u8],
    ) -> io::Result<HttpResponse> {
        self.request("POST", path_and_query, Some(content_type), body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn connection_close_drops_the_cached_stream_and_reconnects() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A stub that serves one request per connection, twice, and
        // answers each with `Connection: close`.
        let stub = thread::spawn(move || {
            let mut peers = Vec::new();
            for _ in 0..2 {
                let (stream, peer) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
                    line.clear();
                }
                reader
                    .get_mut()
                    .write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nok\n",
                    )
                    .unwrap();
                peers.push(peer);
            }
            peers
        });
        let mut c = Client::new(addr);
        for _ in 0..2 {
            let r = c.get("/healthz").expect("get");
            assert_eq!((r.status, r.body.as_slice()), (200, &b"ok\n"[..]));
            assert!(
                !c.is_connected(),
                "a Connection: close response must drop the cached stream"
            );
        }
        let peers = stub.join().unwrap();
        assert_ne!(
            peers[0], peers[1],
            "the second request needs a new connection"
        );
    }
}
