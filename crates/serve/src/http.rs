//! A deliberately small HTTP/1.1 subset on top of `std::net`: enough for
//! the daemon's routes and its loopback clients, with hard limits on
//! header and body sizes.
//!
//! [`parse_request`] is incremental, for the nonblocking event loop: it
//! takes whatever bytes have arrived so far and answers
//! [`ParseStatus::Partial`] (keep reading) or [`ParseStatus::Complete`]
//! with how many bytes the request consumed, which is what makes
//! fragmented *and* pipelined requests work. Responses render through
//! [`render_response`], with keep-alive or `Connection: close` framing.

/// Upper bound on the request line plus all headers.
pub(crate) const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Upper bound on a request body (a CKT-A scale X map encodes well under
/// this).
pub const MAX_BODY_BYTES: usize = 256 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// The path component of the request target, without the query.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client wants the connection kept open after the
    /// response. HTTP/1.1 default is yes; an explicit
    /// `Connection: close` opts out.
    pub fn wants_keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A parse-time rejection: the bytes can never become a request this
/// server executes, and `status`/`message` are what it answers with.
/// Malformed framing is `400`; syntactically-valid HTTP that uses a
/// feature outside the spoken subset (chunked transfer coding) is `501`.
#[derive(Debug)]
pub struct ParseError {
    /// HTTP status of the rejection response.
    pub status: u16,
    /// Human-readable diagnostic, used as the response body.
    pub message: String,
}

impl From<String> for ParseError {
    fn from(message: String) -> Self {
        ParseError {
            status: 400,
            message,
        }
    }
}

impl From<&str> for ParseError {
    fn from(message: &str) -> Self {
        ParseError::from(message.to_string())
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Bodies are framed by `Content-Length` only. A request
/// declaring a transfer coding would be silently mis-framed if treated
/// as malformed, so it gets an explicit `501 Not Implemented` telling
/// the client what to do instead.
fn reject_transfer_encoding(headers: &[(String, String)]) -> Result<(), ParseError> {
    let Some((_, value)) = headers.iter().find(|(n, _)| n == "transfer-encoding") else {
        return Ok(());
    };
    Err(ParseError {
        status: 501,
        message: format!(
            "Transfer-Encoding: {value} is not supported; \
             send a Content-Length framed body"
        ),
    })
}

/// What [`parse_request`] concluded from the bytes seen so far.
#[derive(Debug)]
pub enum ParseStatus {
    /// No complete request yet; read more and call again.
    Partial,
    /// One complete request, which occupied the first `consumed` bytes
    /// of the buffer. Anything after `consumed` is the start of the
    /// next pipelined request.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request consumed (head + body).
        consumed: usize,
    },
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

/// Parses a complete header block (request line + headers, without the
/// trailing blank line's framing requirements) into request parts.
#[allow(clippy::type_complexity)]
fn parse_head(
    head: &[u8],
) -> Result<(String, String, Vec<(String, String)>, Vec<(String, String)>), String> {
    let head_str =
        std::str::from_utf8(head).map_err(|_| "header block is not UTF-8".to_string())?;
    let mut lines = head_str.split("\r\n").flat_map(|l| l.split('\n'));
    let request_line = lines
        .next()
        .ok_or_else(|| "missing request line".to_string())?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| "missing method".to_string())?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| "missing request target".to_string())?;
    let version = parts
        .next()
        .ok_or_else(|| "missing HTTP version".to_string())?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version}"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header `{line}`"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((method, path, query, headers))
}

fn content_length(headers: &[(String, String)]) -> Result<usize, String> {
    let Some((_, v)) = headers.iter().find(|(n, _)| n == "content-length") else {
        return Ok(0);
    };
    let n: usize = v.parse().map_err(|_| format!("bad content-length `{v}`"))?;
    if n > MAX_BODY_BYTES {
        return Err(format!(
            "body of {n} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        ));
    }
    Ok(n)
}

/// Finds the end of the header block (index one past the blank line), if
/// the buffer contains one. Accepts both CRLFCRLF and bare LFLF framing.
fn head_end(buf: &[u8]) -> Option<usize> {
    // A valid head ends within MAX_HEAD_BYTES, so never scan past it —
    // re-parses of a connection buffering a large body stay cheap.
    let buf = &buf[..buf.len().min(MAX_HEAD_BYTES + 4)];
    // The earliest terminator wins, whichever framing it uses.
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2);
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Incrementally parses one request from the bytes received so far.
///
/// Never blocks and never consumes: the caller drains `consumed` bytes
/// from its buffer after a [`ParseStatus::Complete`], leaving any
/// pipelined follow-up request in place for the next call.
///
/// # Errors
///
/// A [`ParseError`] when the bytes can never become a request this
/// server executes — malformed framing, oversized head or body (status
/// 400), or chunked transfer coding (status 501) — the caller should
/// answer with its status and close.
pub fn parse_request(buf: &[u8]) -> Result<ParseStatus, ParseError> {
    let Some(head_end) = head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err("header block too large".into());
        }
        return Ok(ParseStatus::Partial);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err("header block too large".into());
    }
    let (method, path, query, headers) = parse_head(&buf[..head_end]).map_err(ParseError::from)?;
    reject_transfer_encoding(&headers)?;
    let body_len = content_length(&headers).map_err(ParseError::from)?;
    let consumed = head_end + body_len;
    if buf.len() < consumed {
        return Ok(ParseStatus::Partial);
    }
    Ok(ParseStatus::Complete {
        request: Request {
            method,
            path,
            query,
            headers,
            body: buf[head_end..consumed].to_vec(),
        },
        consumed,
    })
}

/// A response about to be written.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the framing set (`(name, value)`).
    pub headers: Vec<(&'static str, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a content type and body.
    pub fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type", content_type.to_string())],
            body,
        }
    }

    /// A plaintext response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response::new(
            status,
            "text/plain; charset=utf-8",
            body.into().into_bytes(),
        )
    }

    /// Attaches an extra header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.headers.push((name, value));
        self
    }
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Serializes a response to wire bytes. `keep_alive` only switches the
/// `Connection` header.
pub fn render_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\n",
        response.status,
        reason_phrase(response.status)
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(&format!("Content-Length: {}\r\n", response.body.len()));
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    let mut out = head.into_bytes();
    out.extend_from_slice(&response.body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw`, which must hold one complete request.
    fn complete(raw: &[u8]) -> Request {
        match parse_request(raw).unwrap() {
            ParseStatus::Complete { request, .. } => request,
            ParseStatus::Partial => panic!("complete request expected"),
        }
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = complete(
            b"POST /v1/plan?m=32&q=7&strategy=best-cost HTTP/1.1\r\n\
              Host: x\r\nContent-Type: application/octet-stream\r\n\
              Content-Length: 4\r\n\r\nBODY",
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/plan");
        assert_eq!(req.query_param("m"), Some("32"));
        assert_eq!(req.query_param("strategy"), Some("best-cost"));
        assert_eq!(req.header("content-type"), Some("application/octet-stream"));
        assert_eq!(req.body, b"BODY");
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn rejects_garbage_and_eof() {
        // No bytes yet is not an error; the event loop closes an idle
        // connection silently.
        assert!(matches!(parse_request(b""), Ok(ParseStatus::Partial)));
        for garbage in [
            &b"NOT A REQUEST\r\n\r\n"[..],
            b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            assert_eq!(parse_request(garbage).unwrap_err().status, 400);
        }
    }

    #[test]
    fn incremental_parse_grows_byte_by_byte() {
        let raw: &[u8] = b"POST /v1/plan?m=8 HTTP/1.1\r\nContent-Length: 4\r\n\r\nBODYnext";
        // Every strict prefix short of head+body is Partial; the full
        // buffer parses and reports the pipelined tail via `consumed`.
        let complete_at = raw.len() - 4; // "next" belongs to the next request
        for cut in 0..complete_at {
            match parse_request(&raw[..cut]).unwrap() {
                ParseStatus::Partial => {}
                ParseStatus::Complete { .. } => panic!("complete at {cut} bytes"),
            }
        }
        match parse_request(raw).unwrap() {
            ParseStatus::Complete { request, consumed } => {
                assert_eq!(consumed, complete_at);
                assert_eq!(request.body, b"BODY");
                assert_eq!(request.query_param("m"), Some("8"));
            }
            ParseStatus::Partial => panic!("full request not recognised"),
        }
    }

    #[test]
    fn incremental_parse_rejects_bad_requests() {
        assert!(parse_request(b"NOT A REQUEST\r\n\r\n").is_err());
        assert!(parse_request(b"GET / HTTP/9.9\r\n\r\n").is_err());
        assert!(parse_request(b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n").is_err());
        let oversized = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert!(parse_request(&oversized).is_err());
    }

    #[test]
    fn chunked_transfer_encoding_answers_501() {
        let raw: &[u8] = b"POST /v1/plan HTTP/1.1\r\n\
              Transfer-Encoding: chunked\r\n\r\n\
              4\r\nBODY\r\n0\r\n\r\n";
        // A typed 501, not a generic parse failure.
        let err = parse_request(raw).unwrap_err();
        assert_eq!(err.status, 501);
        assert!(err.message.contains("chunked"), "{}", err.message);
        assert!(err.message.contains("Content-Length"), "{}", err.message);
        // Malformed framing stays 400.
        let err = parse_request(b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n").unwrap_err();
        assert_eq!(err.status, 400);
        assert_eq!(reason_phrase(501), "Not Implemented");
    }

    #[test]
    fn connection_close_header_is_honoured() {
        assert!(!complete(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").wants_keep_alive());
        assert!(complete(b"GET / HTTP/1.1\r\nConnection: Keep-Alive\r\n\r\n").wants_keep_alive());
    }

    #[test]
    fn render_keep_alive_differs_only_in_connection_header() {
        let resp = Response::text(200, "ok\n").with_header("X-Test", "1".to_string());
        let close = String::from_utf8(render_response(&resp, false)).unwrap();
        let keep = String::from_utf8(render_response(&resp, true)).unwrap();
        assert_eq!(
            close.replace("Connection: close", "Connection: keep-alive"),
            keep
        );
        assert!(close.contains("Content-Length: 3\r\n"));
    }
}
