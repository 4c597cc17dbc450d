//! Just enough HTTP/1.1 for the pipelining load generator: request
//! rendering and an incremental `Content-Length` response parser that
//! handles pipelined responses. One-shot requests (set-up, scrapes) use
//! `xhc_serve::client`.

use std::io;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    /// `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

/// Renders a keep-alive request into `out` (cleared first); `body` is
/// sent only for `POST`.
pub fn render(out: &mut Vec<u8>, method: &str, path: &str, body: &[u8]) {
    out.clear();
    out.extend_from_slice(format!("{method} {path} HTTP/1.1\r\nHost: planbench\r\n").as_bytes());
    if method == "POST" {
        out.extend_from_slice(
            format!(
                "Content-Type: application/octet-stream\r\nContent-Length: {}\r\n",
                body.len()
            )
            .as_bytes(),
        );
    }
    out.extend_from_slice(b"\r\n");
    if method == "POST" {
        out.extend_from_slice(body);
    }
}

/// Parses one complete response off the front of `buf`, returning it
/// and the number of bytes it used, or `None` if more bytes are needed.
pub fn parse_response(buf: &[u8]) -> io::Result<Option<(Response, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let len: usize = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => v.parse().map_err(|_| bad("bad content-length"))?,
        None => 0,
    };
    let start = head_end + 4;
    if buf.len() < start + len {
        return Ok(None);
    }
    let response = Response {
        status,
        headers,
        body: buf[start..start + len].to_vec(),
    };
    Ok(Some((response, start + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_in_order() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nX-Xhc-Cache: hit\r\n\r\nabcHTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n\r\n";
        let (first, used) = parse_response(raw).unwrap().unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, b"abc");
        assert_eq!(first.headers[1], ("x-xhc-cache".into(), "hit".into()));
        let (second, rest) = parse_response(&raw[used..]).unwrap().unwrap();
        assert_eq!(second.status, 429);
        assert_eq!(used + rest, raw.len());
        assert!(parse_response(&raw[..used - 1]).unwrap().is_none());
    }
}
