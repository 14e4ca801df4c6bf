//! A minimal HTTP/1.1 layer over `std::io` streams — just enough for the
//! daemon's JSON protocol, with explicit limits instead of dependencies.
//!
//! Supported: request line + headers + `Content-Length` bodies, and
//! responses with a status line, fixed headers, and a body. Not
//! supported (and answered with a clean 4xx rather than undefined
//! behaviour): chunked transfer encoding, continuation lines, pipelined
//! requests. Every response carries `Connection: close`; one connection
//! serves one exchange, which keeps the daemon's concurrency model
//! trivially auditable.

use std::io::{BufRead, BufReader, Read, Write};

/// Largest accepted header block (request line + all headers).
pub const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The body as UTF-8, or an error message for the 400 response.
    ///
    /// # Errors
    /// When the body is not valid UTF-8.
    pub fn body_utf8(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not valid UTF-8".to_string())
    }
}

/// Why a request could not be parsed; each variant maps to one status.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The peer closed before sending a full request line.
    ConnectionClosed,
    /// Malformed request line or header (400).
    Malformed(String),
    /// Header block exceeds [`MAX_HEADER_BYTES`] (431).
    HeadersTooLarge,
    /// Body exceeds [`MAX_BODY_BYTES`] (413).
    BodyTooLarge,
    /// The socket read timeout expired mid-request (408) — a stalled
    /// client must not pin a connection thread forever.
    Timeout,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::ConnectionClosed => write!(f, "connection closed"),
            ParseError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            ParseError::HeadersTooLarge => {
                write!(f, "header block exceeds {MAX_HEADER_BYTES} bytes")
            }
            ParseError::BodyTooLarge => write!(f, "body exceeds {MAX_BODY_BYTES} bytes"),
            ParseError::Timeout => write!(f, "client stalled past the read timeout"),
        }
    }
}

impl ParseError {
    /// The HTTP status this parse failure maps to.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::ConnectionClosed | ParseError::Malformed(_) => 400,
            ParseError::HeadersTooLarge => 431,
            ParseError::BodyTooLarge => 413,
            ParseError::Timeout => 408,
        }
    }
}

/// Classifies a stream read failure: a tripped `set_read_timeout` surfaces
/// as `WouldBlock`/`TimedOut` and becomes [`ParseError::Timeout`];
/// anything else is malformed input from this parser's point of view.
fn read_failure(e: &std::io::Error, what: &str) -> ParseError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ParseError::Timeout,
        _ => ParseError::Malformed(format!("{what}: {e}")),
    }
}

/// Reads one request from the stream.
///
/// # Errors
/// [`ParseError`] on close, malformed input, or an exceeded limit.
pub fn read_request<R: Read>(stream: R) -> Result<Request, ParseError> {
    let mut reader = BufReader::new(stream);
    let mut header_bytes = 0usize;

    let mut line = String::new();
    read_line(&mut reader, &mut line, &mut header_bytes)?;
    if line.is_empty() {
        return Err(ParseError::ConnectionClosed);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("request line has no target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::Malformed("request line has no version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length: Option<usize> = None;
    loop {
        line.clear();
        read_line(&mut reader, &mut line, &mut header_bytes)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed(format!(
                "header without colon: {line:?}"
            )));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            // RFC 9112 §6.3: a value that is not all digits, or a second
            // value that differs from the first, leaves the body's length
            // unknown, so the framing is invalid.
            let bad = || ParseError::Malformed(format!("bad content-length {value:?}"));
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad());
            }
            let n = value.parse::<usize>().map_err(|_| bad())?;
            if content_length.is_some_and(|first| first != n) {
                return Err(ParseError::Malformed(
                    "conflicting content-length headers".into(),
                ));
            }
            content_length = Some(n);
        } else if name == "transfer-encoding" {
            return Err(ParseError::Malformed(
                "chunked transfer encoding is not supported".into(),
            ));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::BodyTooLarge);
    }

    // The body must match its declared length exactly: a short read is a
    // client that lied about (or never finished) its Content-Length, and
    // a timeout mid-body is a stalled client — each gets its own status
    // instead of a silently truncated body reaching a handler.
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ParseError::Malformed("body shorter than content-length".into())
        } else {
            read_failure(&e, "body read")
        }
    })?;

    Ok(Request { method, path, body })
}

/// Reads one CRLF (or LF) terminated line into `line`, stripped of the
/// terminator, enforcing the cumulative header budget.
fn read_line<R: BufRead>(
    reader: &mut R,
    line: &mut String,
    consumed: &mut usize,
) -> Result<(), ParseError> {
    line.clear();
    let mut buf = Vec::new();
    loop {
        let chunk = reader.fill_buf().map_err(|e| read_failure(&e, "read"))?;
        if chunk.is_empty() {
            break; // EOF
        }
        let (taken, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos + 1, true),
            None => (chunk.len(), false),
        };
        *consumed += taken;
        if *consumed > MAX_HEADER_BYTES {
            return Err(ParseError::HeadersTooLarge);
        }
        buf.extend_from_slice(&chunk[..taken]);
        reader.consume(taken);
        if done {
            break;
        }
    }
    while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
        buf.pop();
    }
    *line = String::from_utf8(buf)
        .map_err(|_| ParseError::Malformed("non-UTF-8 header bytes".into()))?;
    Ok(())
}

/// The canonical reason phrase for the statuses the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete `Connection: close` response with a JSON body.
///
/// # Errors
/// Propagates the underlying I/O error (the peer may have vanished).
pub fn write_json<W: Write>(stream: &mut W, status: u16, body: &str) -> std::io::Result<()> {
    write_json_with(stream, status, &[], body)
}

/// [`write_json`] with extra response headers (e.g. `Retry-After` on a
/// shed 429). Header names/values are caller-controlled constants, not
/// client input, so no escaping is attempted.
///
/// # Errors
/// Propagates the underlying I/O error (the peer may have vanished).
pub fn write_json_with<W: Write>(
    stream: &mut W,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
        reason(status),
        body.len(),
    )?;
    for (name, value) in extra_headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    write!(stream, "\r\n{body}")?;
    stream.flush()
}

/// Renders `{"error": msg}` with correct JSON string escaping.
pub fn error_body(msg: &str) -> String {
    let value = serde::Value::Object(vec![(
        "error".to_string(),
        serde::Value::Str(msg.to_string()),
    )]);
    serde_json::to_string(&value).expect("a string-only object always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/jobs?verbose=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_bare_lf_line_endings() {
        let raw = b"GET /healthz HTTP/1.1\nHost: x\n\n";
        let req = read_request(&raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(matches!(
            read_request(&b"not-http\r\n\r\n"[..]),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            read_request(&b""[..]),
            Err(ParseError::ConnectionClosed)
        ));
        let huge = format!(
            "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            read_request(huge.as_bytes()),
            Err(ParseError::BodyTooLarge)
        ));
        let mut headers = String::from("GET / HTTP/1.1\r\n");
        while headers.len() <= MAX_HEADER_BYTES {
            headers.push_str("x-filler: yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy\r\n");
        }
        headers.push_str("\r\n");
        assert!(matches!(
            read_request(headers.as_bytes()),
            Err(ParseError::HeadersTooLarge)
        ));
    }

    #[test]
    fn rejects_a_content_length_that_is_not_all_digits() {
        for value in ["+4", "-4", "4 4", "0x4", "4,4", "", "four"] {
            let raw = format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: {value}\r\n\r\nabcd");
            assert!(
                matches!(read_request(raw.as_bytes()), Err(ParseError::Malformed(_))),
                "{value:?} framed a body"
            );
        }
        let raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 0004\r\n\r\nabcd";
        assert_eq!(read_request(&raw[..]).unwrap().body, b"abcd");
    }

    #[test]
    fn rejects_repeated_content_lengths_that_differ() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd";
        assert!(matches!(
            read_request(&raw[..]),
            Err(ParseError::Malformed(_))
        ));
        // Repeating the same value frames the body the same way.
        let raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n\r\nabcd";
        assert_eq!(read_request(&raw[..]).unwrap().body, b"abcd");
    }

    #[test]
    fn truncated_body_is_malformed() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(
            read_request(&raw[..]),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn response_writer_emits_content_length() {
        let mut out = Vec::new();
        write_json(&mut out, 200, "{\"ok\":true}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn error_body_escapes_quotes() {
        let body = error_body("bad \"thing\"");
        assert_eq!(body, "{\"error\":\"bad \\\"thing\\\"\"}");
    }

    /// Serves `head` then fails every further read like a tripped socket
    /// read timeout.
    struct StallingReader {
        head: std::io::Cursor<Vec<u8>>,
    }

    impl Read for StallingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.head.read(buf)?;
            if n == 0 {
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            Ok(n)
        }
    }

    #[test]
    fn a_stalled_client_is_a_timeout_not_a_bad_request() {
        // Stall mid-headers.
        let r = StallingReader {
            head: std::io::Cursor::new(b"POST /v1/jobs HTTP/1.1\r\nContent-".to_vec()),
        };
        assert!(matches!(read_request(r), Err(ParseError::Timeout)));
        // Stall mid-body: the declared Content-Length never arrives.
        let r = StallingReader {
            head: std::io::Cursor::new(
                b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc".to_vec(),
            ),
        };
        assert!(matches!(read_request(r), Err(ParseError::Timeout)));
        assert_eq!(ParseError::Timeout.status(), 408);
        assert_eq!(reason(408), "Request Timeout");
    }

    #[test]
    fn extra_headers_are_emitted_between_fixed_headers_and_body() {
        let mut out = Vec::new();
        write_json_with(
            &mut out,
            429,
            &[("retry-after", "1".to_string())],
            "{\"error\":\"shed\"}",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("\r\nretry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"shed\"}"));
    }
}
