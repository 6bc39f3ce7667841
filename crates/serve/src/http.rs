//! Minimal HTTP/1.1 on `std::net`: request parsing and response writing.
//!
//! Deliberately small surface, sized to what the serving API needs:
//!
//! - request line + headers + `Content-Length` bodies (no chunked encoding,
//!   no TLS, no HTTP/2);
//! - any `Transfer-Encoding` header is refused as malformed (400): chunked
//!   coding is unsupported, and honouring `Content-Length` beside it is the
//!   CL.TE request-smuggling shape (RFC 9112 §6.1);
//! - each response leaves in one `write` (see
//!   [`write_response_with_headers`]);
//! - keep-alive with pipelining: a connection handler calls
//!   [`read_request`] in a loop until the peer closes or sends
//!   `Connection: close`;
//! - every malformed input is a typed [`HttpError`] carrying the 4xx status
//!   the server should answer with — the parser itself never panics, which
//!   the `no-panic-lib` invariant and the parser test-suite both enforce.
//!
//! A tiny client-side [`read_response`] lives here too, shared by the
//! `loadgen` binary and the integration tests.

use std::io::{BufRead, Write};

/// Hard ceiling on header-section size (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target (before `?`).
    pub path: String,
    /// Raw query string (after `?`, empty if none).
    pub query: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
    /// True when the client asked to keep the connection open after this
    /// exchange (HTTP/1.1 default, overridable with `Connection: close`).
    pub keep_alive: bool,
}

impl Request {
    /// First value of a (lowercased) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Outcome of one [`read_request`] call.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was parsed.
    Request(Request),
    /// The peer closed the connection cleanly before sending another request.
    Closed,
}

/// Parse failures, each knowing the HTTP status it maps to.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request line, header, or length field → 400.
    Malformed {
        /// Human-readable description.
        reason: String,
    },
    /// A body-bearing method arrived without `Content-Length` → 411.
    LengthRequired,
    /// Declared `Content-Length` exceeds the configured ceiling → 413.
    PayloadTooLarge {
        /// Declared body size.
        declared: usize,
        /// Configured maximum.
        limit: usize,
    },
    /// Socket failure or mid-message EOF; no response can be delivered.
    Io(std::io::Error),
}

impl HttpError {
    /// `(status code, reason phrase)` for the error response.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::Malformed { .. } => (400, "Bad Request"),
            HttpError::LengthRequired => (411, "Length Required"),
            HttpError::PayloadTooLarge { .. } => (413, "Payload Too Large"),
            HttpError::Io(_) => (400, "Bad Request"),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed { reason } => write!(f, "malformed request: {reason}"),
            HttpError::LengthRequired => write!(f, "Content-Length required"),
            HttpError::PayloadTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds limit {limit}")
            }
            HttpError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Extracts and validates the request `Content-Length` **without trusting it
/// for anything** until it clears the `max_body` ceiling:
///
/// - strictly digits (no sign, no whitespace tricks) → otherwise 400;
/// - duplicate headers must agree (request-smuggling vector) → otherwise 400;
/// - values that overflow `u64` never reach a `usize` conversion or an
///   allocation — they are over-limit by definition → 413;
/// - in-range values above `max_body` → 413.
///
/// Callers only read body bytes after this returns `Ok`, so a hostile length
/// can neither size an allocation nor force a read.
fn parse_content_length(
    headers: &[(String, String)],
    max_body: usize,
) -> Result<Option<usize>, HttpError> {
    let mut values = headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .map(|(_, v)| v.as_str());
    let Some(first) = values.next() else {
        return Ok(None);
    };
    if values.any(|v| v != first) {
        return Err(malformed("conflicting Content-Length headers"));
    }
    if first.is_empty() || !first.bytes().all(|b| b.is_ascii_digit()) {
        return Err(malformed(format!("unparseable Content-Length {first:?}")));
    }
    let declared = match first.parse::<u64>() {
        Ok(n) => n,
        // All-digit but beyond u64: astronomically over any real limit.
        Err(_) => {
            return Err(HttpError::PayloadTooLarge {
                declared: usize::MAX,
                limit: max_body,
            })
        }
    };
    if declared > max_body as u64 {
        return Err(HttpError::PayloadTooLarge {
            // Saturating: on 32-bit targets the declared value may not fit.
            declared: usize::try_from(declared).unwrap_or(usize::MAX),
            limit: max_body,
        });
    }
    // Bounded by max_body, which is a usize, so the cast is lossless.
    Ok(Some(declared as usize))
}

fn malformed(reason: impl Into<String>) -> HttpError {
    HttpError::Malformed {
        reason: reason.into(),
    }
}

/// Reads one line terminated by `\n`, enforcing the header-size budget.
/// Returns `Ok(None)` on clean EOF at a line boundary.
fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof mid-line",
                )));
            }
            Ok(_) => {
                if *budget == 0 {
                    return Err(malformed("header section exceeds 16 KiB"));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| malformed("non-UTF-8 header bytes"))
}

/// Reads and validates one request from `reader`.
///
/// `max_body` bounds accepted `Content-Length` values; larger declarations
/// fail with [`HttpError::PayloadTooLarge`] *before* any body byte is read.
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<ReadOutcome, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = match read_line(reader, &mut budget)? {
        Some(line) => line,
        None => return Ok(ReadOutcome::Closed),
    };
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("").to_string();
    if method.is_empty()
        || target.is_empty()
        || parts.next().is_some()
        || !method.chars().all(|c| c.is_ascii_uppercase())
        || !target.starts_with('/')
    {
        return Err(malformed(format!("bad request line {request_line:?}")));
    }
    let keep_alive_default = match version.as_str() {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(malformed(format!("unsupported version {version:?}"))),
    };

    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, &mut budget)? {
            Some(line) => line,
            None => {
                return Err(HttpError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside header section",
                )))
            }
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(malformed(format!("header without colon: {line:?}")));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(malformed(format!("bad header name in {line:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut keep_alive = keep_alive_default;
    if let Some(conn) = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase())
    {
        if conn == "close" {
            keep_alive = false;
        } else if conn == "keep-alive" {
            keep_alive = true;
        }
    }

    // Without this check a TE request would be framed by Content-Length (or
    // as bodiless), leaving its chunk bytes to be read as the next request.
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(malformed("Transfer-Encoding is not supported"));
    }
    let content_length = parse_content_length(&headers, max_body)?;

    let body = match content_length {
        // `parse_content_length` already bounded `len` by `max_body`, so this
        // allocation cannot be sized by an untrusted declaration.
        Some(len) => {
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).map_err(HttpError::Io)?;
            body
        }
        None => {
            if method == "POST" || method == "PUT" || method == "PATCH" {
                // Without a length we cannot frame the body (chunked encoding
                // is unsupported), so we must refuse rather than desync.
                return Err(HttpError::LengthRequired);
            }
            Vec::new()
        }
    };

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };

    Ok(ReadOutcome::Request(Request {
        method,
        path,
        query,
        headers,
        body,
        keep_alive,
    }))
}

/// Writes a complete response with `Content-Length` framing.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    write_response_with_headers(writer, status, reason, content_type, body, keep_alive, &[])
}

/// [`write_response`] plus caller-supplied extra headers (e.g. the
/// `x-rll-trace` trace-id header). Header names and values must already be
/// wire-safe; this writer does no escaping.
///
/// The whole response is rendered into one buffer and handed to `writer`
/// with a single `write_all`. The server's sockets are unbuffered with
/// `TCP_NODELAY` set, so formatting straight into one would issue one
/// `write` syscall per format fragment (17 for a small `/embed` answer),
/// each free to leave as its own segment and wake the client separately.
pub fn write_response_with_headers(
    writer: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    // 160 bytes covers the status line, the fixed headers and a trace id.
    let mut wire = Vec::with_capacity(160 + body.len());
    write!(
        wire,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for (name, value) in extra_headers {
        write!(wire, "{name}: {value}\r\n")?;
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(body);
    writer.write_all(&wire)?;
    writer.flush()
}

/// A parsed response (client side: tests and `loadgen`).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of a (lowercased) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Largest response body [`read_response`] will buffer. The server never
/// emits anything close to this; it exists so a hostile or corrupted peer
/// cannot make the client allocate an arbitrary amount from one header.
pub const MAX_RESPONSE_BODY: usize = 16 * 1024 * 1024;

/// Reads one `Content-Length`-framed response.
pub fn read_response(reader: &mut impl BufRead) -> Result<Response, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let status_line = read_line(reader, &mut budget)?
        .ok_or_else(|| HttpError::Io(std::io::ErrorKind::UnexpectedEof.into()))?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| malformed(format!("bad status line {status_line:?}")))?;
    let mut content_length = 0usize;
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, &mut budget)?
            .ok_or_else(|| HttpError::Io(std::io::ErrorKind::UnexpectedEof.into()))?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| malformed("bad Content-Length in response"))?;
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    if content_length > MAX_RESPONSE_BODY {
        return Err(HttpError::PayloadTooLarge {
            declared: content_length,
            limit: MAX_RESPONSE_BODY,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(HttpError::Io)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<ReadOutcome, HttpError> {
        read_request(&mut BufReader::new(raw), 1024)
    }

    fn parse_ok(raw: &[u8]) -> Request {
        match parse(raw).unwrap() {
            ReadOutcome::Request(r) => r,
            ReadOutcome::Closed => panic!("expected a request"),
        }
    }

    #[test]
    fn parses_get_with_query() {
        let r = parse_ok(b"GET /metrics?format=text HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/metrics");
        assert_eq!(r.query, "format=text");
        assert_eq!(r.header("host"), Some("x"));
        assert!(r.keep_alive);
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse_ok(b"POST /embed HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd");
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn bare_lf_line_endings_accepted() {
        let r = parse_ok(b"GET / HTTP/1.1\nHost: x\n\n");
        assert_eq!(r.path, "/");
    }

    #[test]
    fn clean_eof_is_closed() {
        assert!(matches!(parse(b"").unwrap(), ReadOutcome::Closed));
    }

    #[test]
    fn malformed_request_lines_are_400() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / FTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed { .. })),
                "{raw:?} should be malformed"
            );
        }
    }

    #[test]
    fn post_without_length_is_411() {
        assert!(matches!(
            parse(b"POST /embed HTTP/1.1\r\n\r\n"),
            Err(HttpError::LengthRequired)
        ));
    }

    #[test]
    fn oversized_length_is_413_before_reading_body() {
        let err = parse(b"POST /embed HTTP/1.1\r\nContent-Length: 4096\r\n\r\n").unwrap_err();
        assert!(matches!(
            err,
            HttpError::PayloadTooLarge {
                declared: 4096,
                limit: 1024
            }
        ));
        assert_eq!(err.status().0, 413);
    }

    #[test]
    fn unparseable_length_is_400() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(HttpError::Malformed { .. })
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n"),
            Err(HttpError::Malformed { .. })
        ));
        // A sign is not a digit even though Rust's `parse` would accept it.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\n"),
            Err(HttpError::Malformed { .. })
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length:\r\n\r\n"),
            Err(HttpError::Malformed { .. })
        ));
    }

    #[test]
    fn overflowing_length_is_413_not_400() {
        // Regression: a length too large for the integer type used to fall
        // through the generic parse-failure path (400). It is all digits and
        // over any limit, so it must be 413 — and must never reach an
        // allocation or a body read.
        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999999\r\n\r\n")
            .unwrap_err();
        assert!(matches!(
            err,
            HttpError::PayloadTooLarge {
                declared: usize::MAX,
                limit: 1024
            }
        ));
        assert_eq!(err.status().0, 413);
    }

    #[test]
    fn conflicting_duplicate_lengths_are_400() {
        // Two disagreeing Content-Length headers are the classic request
        // smuggling vector; picking either one silently is wrong.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nhihi"),
            Err(HttpError::Malformed { .. })
        ));
        // Identical repeats are merely redundant and stay accepted.
        let r = parse_ok(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi");
        assert_eq!(r.body, b"hi");
    }

    #[test]
    fn leading_zero_lengths_are_accepted() {
        let r = parse_ok(b"POST / HTTP/1.1\r\nContent-Length: 0004\r\n\r\nabcd");
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn header_without_colon_is_400() {
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nnocolonhere\r\n\r\n"),
            Err(HttpError::Malformed { .. })
        ));
    }

    #[test]
    fn truncated_body_is_io_error() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::Io(_))
        ));
    }

    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let raw: &[u8] =
            b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(raw);
        let first = match read_request(&mut reader, 1024).unwrap() {
            ReadOutcome::Request(r) => r,
            ReadOutcome::Closed => panic!("expected first request"),
        };
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"hi");
        assert!(first.keep_alive);
        let second = match read_request(&mut reader, 1024).unwrap() {
            ReadOutcome::Request(r) => r,
            ReadOutcome::Closed => panic!("expected second request"),
        };
        assert_eq!(second.path, "/b");
        assert!(!second.keep_alive);
        assert!(matches!(
            read_request(&mut reader, 1024).unwrap(),
            ReadOutcome::Closed
        ));
    }

    #[test]
    fn http10_defaults_to_close() {
        let r = parse_ok(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!r.keep_alive);
        let r = parse_ok(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(r.keep_alive);
    }

    #[test]
    fn giant_header_section_is_400() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 20 * 1024));
        assert!(matches!(parse(&raw), Err(HttpError::Malformed { .. })));
    }

    #[test]
    fn transfer_encoding_beside_content_length_is_400() {
        // CL.TE: framing by Content-Length here while a front end frames by
        // chunks would let the rest of the body smuggle a second request.
        let err = parse(
            b"POST /embed HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\n0\r\n\r\n",
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::Malformed { .. }), "{err}");
        assert_eq!(err.status().0, 400);
    }

    #[test]
    fn transfer_encoding_on_bodiless_get_is_400() {
        // Taken as bodiless, the chunk bytes would be parsed as the next
        // pipelined request ("bad request line \"5\"").
        let err = parse(
            b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::Malformed { .. }), "{err}");
        // Header names are matched case-insensitively, whatever the coding.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ntransfer-ENCODING: identity\r\nContent-Length: 0\r\n\r\n"),
            Err(HttpError::Malformed { .. })
        ));
    }

    /// The response formatter as it was before responses were buffered:
    /// `write!` straight into the writer. Kept as the byte oracle for
    /// [`write_response_with_headers`].
    fn write_response_unbuffered(
        writer: &mut impl Write,
        status: u16,
        reason: &str,
        content_type: &str,
        body: &[u8],
        keep_alive: bool,
        extra_headers: &[(&str, String)],
    ) -> std::io::Result<()> {
        write!(
            writer,
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in extra_headers {
            write!(writer, "{name}: {value}\r\n")?;
        }
        writer.write_all(b"\r\n")?;
        writer.write_all(body)?;
        writer.flush()
    }

    /// A writer that keeps the bytes and counts the `write` calls that
    /// carried them, as a socket would see them.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_is_one_write_with_the_oracle_bytes() {
        let trace = [("x-rll-trace", "00000000deadbeef".to_string())];
        let embed = br#"{"embeddings":[[0.125,-0.5,0.75,1.0]],"dim":4}"#;
        // (status, reason, body, keep_alive, traced); untraced cases go
        // through `write_response`, as the server's parse-error path does.
        let cases: [(u16, &str, &[u8], bool, bool); 5] = [
            (200, "OK", embed, true, true),
            (200, "OK", embed, false, true),
            (400, "Bad Request", br#"{"error":"bad"}"#, false, false),
            (404, "Not Found", br#"{"error":"no route"}"#, true, false),
            (200, "OK", b"", true, true),
        ];
        for (status, reason, body, keep_alive, traced) in cases {
            let extra = if traced { &trace[..] } else { &[] };
            let mut counted = CountingWriter::default();
            if traced {
                write_response_with_headers(
                    &mut counted,
                    status,
                    reason,
                    "application/json",
                    body,
                    keep_alive,
                    extra,
                )
                .unwrap();
            } else {
                write_response(
                    &mut counted,
                    status,
                    reason,
                    "application/json",
                    body,
                    keep_alive,
                )
                .unwrap();
            }
            let mut oracle = CountingWriter::default();
            write_response_unbuffered(
                &mut oracle,
                status,
                reason,
                "application/json",
                body,
                keep_alive,
                extra,
            )
            .unwrap();
            assert_eq!(
                counted.writes, 1,
                "status {status}, keep_alive {keep_alive}"
            );
            assert_eq!(
                counted.bytes, oracle.bytes,
                "status {status}, keep_alive {keep_alive}"
            );
            // The oracle really is fragmented, so the one write above is the
            // buffering, not a formatter that happened to emit one piece.
            assert!(oracle.writes > 1);
        }
    }

    #[test]
    fn response_round_trip() {
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            200,
            "OK",
            "application/json",
            b"{\"ok\":1}",
            true,
        )
        .unwrap();
        let resp = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"{\"ok\":1}");
    }

    #[test]
    fn extra_headers_round_trip_to_the_client() {
        let mut wire = Vec::new();
        write_response_with_headers(
            &mut wire,
            200,
            "OK",
            "application/json",
            b"{}",
            true,
            &[("X-RLL-Trace", "00000000deadbeef".to_string())],
        )
        .unwrap();
        let resp = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(resp.status, 200);
        // Header names are lowercased client-side, values kept verbatim.
        assert_eq!(resp.header("x-rll-trace"), Some("00000000deadbeef"));
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.header("missing"), None);
        assert_eq!(resp.body, b"{}");
    }

    #[test]
    fn response_length_over_client_cap_is_rejected() {
        // The client must not size a buffer from an arbitrary peer-declared
        // length either.
        let wire = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_RESPONSE_BODY + 1
        );
        assert!(matches!(
            read_response(&mut BufReader::new(wire.as_bytes())),
            Err(HttpError::PayloadTooLarge { .. })
        ));
    }
}
