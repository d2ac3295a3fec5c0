//! A deliberately small HTTP/1.1 subset — just enough wire protocol for
//! the four endpoints, on std only.
//!
//! One request per connection (`Connection: close` is always returned):
//! the service's unit of work is a whole scheduling request, so
//! keep-alive would buy latency only for `/healthz` pollers while
//! complicating the drain logic. Requests are parsed from a buffered
//! reader with hard limits on request-line, header, and body sizes;
//! anything outside the subset — including `Transfer-Encoding`, which
//! is refused with `501` because bodies are Content-Length-only — gets
//! a clean error response instead of a hang.

use std::collections::HashMap;
use std::io::{BufRead, Write};

/// Longest accepted request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most header bytes accepted per request.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted request body (inline instances can be sizable).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed request: method, path (query string stripped and kept
/// separately), lower-cased headers, raw body bytes.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method, e.g. `GET`.
    pub method: String,
    /// Decoded path, e.g. `/v1/schedule`.
    pub path: String,
    /// The raw query string after `?`, if any (unparsed; no endpoint
    /// takes query parameters today).
    pub query: Option<String>,
    /// Header map with lower-cased names; values are trimmed.
    pub headers: HashMap<String, String>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// How reading a request failed: either a protocol error (answer 4xx)
/// or an I/O error/timeout (drop the connection).
#[derive(Debug)]
pub enum ReadError {
    /// The bytes violate the accepted HTTP subset; respond with the
    /// given status and message.
    Bad(u16, String),
    /// The connection died or timed out mid-request.
    Io(std::io::Error),
}

impl Request {
    /// Reads one request from `reader`. `Err(ReadError::Bad)` means the
    /// caller should answer with that status; `Io` means hang up.
    pub fn read_from(reader: &mut impl BufRead) -> Result<Request, ReadError> {
        let line = read_line_limited(reader, MAX_REQUEST_LINE)?;
        let mut parts = line.split_whitespace();
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(ReadError::Bad(
                400,
                format!("malformed request line '{line}'"),
            ));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(ReadError::Bad(
                505,
                format!("unsupported version '{version}'"),
            ));
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), Some(q.to_string())),
            None => (target.to_string(), None),
        };

        let mut headers = HashMap::new();
        let mut header_bytes = 0usize;
        loop {
            let line = read_line_limited(reader, MAX_HEADER_BYTES)?;
            if line.is_empty() {
                break;
            }
            header_bytes += line.len();
            if header_bytes > MAX_HEADER_BYTES {
                return Err(ReadError::Bad(431, "header section too large".to_string()));
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(ReadError::Bad(400, format!("malformed header '{line}'")));
            };
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }

        // The subset is Content-Length-only. A chunked body would be
        // silently treated as empty and left unread on the socket, and
        // closing with unread bytes makes the kernel RST the response
        // away — so refuse the encoding loudly instead.
        if headers.contains_key("transfer-encoding") {
            return Err(ReadError::Bad(
                501,
                "Transfer-Encoding is not supported; send a Content-Length body".to_string(),
            ));
        }
        let body = match headers.get("content-length") {
            None => Vec::new(),
            Some(v) => {
                let len: usize = v
                    .parse()
                    .map_err(|_| ReadError::Bad(400, format!("bad Content-Length '{v}'")))?;
                if len > MAX_BODY_BYTES {
                    return Err(ReadError::Bad(
                        413,
                        format!("body of {len} bytes exceeds the {MAX_BODY_BYTES} limit"),
                    ));
                }
                let mut body = vec![0u8; len];
                reader.read_exact(&mut body).map_err(ReadError::Io)?;
                body
            }
        };
        Ok(Request {
            method: method.to_ascii_uppercase(),
            path,
            query,
            headers,
            body,
        })
    }
}

/// Reads one CRLF- (or LF-) terminated line, rejecting lines past `max`.
/// Scans the reader's buffer a fill at a time rather than pulling the
/// line out byte by byte.
fn read_line_limited(reader: &mut impl BufRead, max: usize) -> Result<String, ReadError> {
    let mut buf = Vec::new();
    loop {
        let available = reader.fill_buf().map_err(ReadError::Io)?;
        if available.is_empty() {
            if buf.is_empty() {
                return Err(ReadError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before a request",
                )));
            }
            break;
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(available.len());
        if buf.len() + take > max {
            return Err(ReadError::Bad(431, "line too long".to_string()));
        }
        buf.extend_from_slice(&available[..take]);
        match newline {
            Some(_) => {
                reader.consume(take + 1);
                break;
            }
            None => reader.consume(take),
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| ReadError::Bad(400, "non-UTF-8 header bytes".to_string()))
}

/// An outgoing response; [`Response::write_to`] serializes it.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers, e.g. `Retry-After`.
    pub extra_headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A 200 response with a JSON body.
    pub fn json(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// A 200 response with a plain-text body.
    pub fn text(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// An error response carrying `{"error": …}` JSON.
    pub fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: format!("{{\"error\": \"{}\"}}\n", sweep_json::escape(message)),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: String) -> Response {
        self.extra_headers.push((name.to_string(), value));
        self
    }

    /// The standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            505 => "HTTP Version Not Supported",
            _ => "Unknown",
        }
    }

    /// Serializes status line, headers, and body to `w` with one
    /// `write_all` of one buffer. Over an unbuffered `TcpStream` each
    /// separate write is its own `send`, so formatting field by field
    /// would cost a syscall per piece.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(
            128 + self
                .extra_headers
                .iter()
                .map(|(name, value)| name.len() + value.len() + 4)
                .sum::<usize>()
                + self.body.len(),
        );
        // Formatting into a `Vec` cannot fail.
        let _ = write!(
            buf,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            let _ = write!(buf, "{name}: {value}\r\n");
        }
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(self.body.as_bytes());
        w.write_all(&buf)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        Request::read_from(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = parse(
            "POST /v1/schedule?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/schedule");
        assert_eq!(req.query.as_deref(), Some("x=1"));
        assert_eq!(req.headers["host"], "localhost");
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn rejects_malformed_and_oversized() {
        assert!(matches!(
            parse("NONSENSE\r\n\r\n"),
            Err(ReadError::Bad(400, _))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(ReadError::Bad(505, _))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbadheader\r\n\r\n"),
            Err(ReadError::Bad(400, _))
        ));
        let huge = format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(matches!(parse(&huge), Err(ReadError::Bad(413, _))));
    }

    #[test]
    fn transfer_encoding_is_refused_not_ignored() {
        let res = parse(
            "POST /v1/schedule HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nbody\r\n0\r\n\r\n",
        );
        assert!(matches!(res, Err(ReadError::Bad(501, _))), "{res:?}");
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(ReadError::Io(_))
        ));
    }

    fn wire(response: &Response) -> String {
        let mut out = Vec::new();
        response.write_to(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// Byte-exact wire pins for the four response shapes the server
    /// sends, read off the field-by-field serializer.
    #[test]
    fn wire_bytes_are_pinned() {
        let hit = Response::json("{\"cache\": \"hit\"}\n".to_string())
            .with_header("X-Sweep-Request-Id", "0123456789abcdef".to_string())
            .with_header(
                "Server-Timing",
                sweep_telemetry::server_timing_value([12, 3, 0, 1500, 4]),
            );
        assert_eq!(
            wire(&hit),
            concat!(
                "HTTP/1.1 200 OK\r\n",
                "Content-Type: application/json\r\n",
                "Content-Length: 17\r\n",
                "Connection: close\r\n",
                "X-Sweep-Request-Id: 0123456789abcdef\r\n",
                "Server-Timing: parse;dur=0.012, cache;dur=0.003, induce;dur=0.000, ",
                "schedule;dur=1.500, serialize;dur=0.004\r\n",
                "\r\n",
                "{\"cache\": \"hit\"}\n",
            )
        );
        let shed = Response::error(429, "server is at its in-flight request limit")
            .with_header("Retry-After", "2".to_string());
        assert_eq!(
            wire(&shed),
            concat!(
                "HTTP/1.1 429 Too Many Requests\r\n",
                "Content-Type: application/json\r\n",
                "Content-Length: 54\r\n",
                "Connection: close\r\n",
                "Retry-After: 2\r\n",
                "\r\n",
                "{\"error\": \"server is at its in-flight request limit\"}\n",
            )
        );
        assert_eq!(
            wire(&Response::text(String::new())),
            concat!(
                "HTTP/1.1 200 OK\r\n",
                "Content-Type: text/plain; charset=utf-8\r\n",
                "Content-Length: 0\r\n",
                "Connection: close\r\n",
                "\r\n",
            )
        );
        let metrics = Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            extra_headers: Vec::new(),
            body: "# TYPE sweep_serve_http_requests_total counter\nsweep_serve_http_requests_total 3\n"
                .to_string(),
        };
        assert_eq!(
            wire(&metrics),
            concat!(
                "HTTP/1.1 200 OK\r\n",
                "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n",
                "Content-Length: 81\r\n",
                "Connection: close\r\n",
                "\r\n",
                "# TYPE sweep_serve_http_requests_total counter\n",
                "sweep_serve_http_requests_total 3\n",
            )
        );
    }

    /// A `Write` that counts its `write` calls: over a `TcpStream` each
    /// one is a `send`.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
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
    fn every_response_leaves_in_one_write() {
        let big = "x".repeat(1 << 20);
        let responses = [
            Response::json(big.clone())
                .with_header("X-Sweep-Request-Id", "0123456789abcdef".to_string())
                .with_header(
                    "Server-Timing",
                    sweep_telemetry::server_timing_value([1, 2, 3, 4, 5]),
                ),
            Response::error(429, "busy").with_header("Retry-After", "4".to_string()),
            Response::error(404, "no such endpoint '/x'"),
            Response::text(String::new()),
        ];
        for response in &responses {
            let mut w = CountingWriter::default();
            response.write_to(&mut w).unwrap();
            assert_eq!(w.writes, 1, "{} response", response.status);
            assert_eq!(w.bytes, wire(response).into_bytes());
        }
        assert!(wire(&responses[0]).ends_with(&big));
    }

    /// A `BufRead` that counts every call the parser makes on it.
    struct CountingReader<'a> {
        inner: BufReader<&'a [u8]>,
        calls: usize,
    }

    impl std::io::Read for CountingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.inner.read(buf)
        }
    }

    impl BufRead for CountingReader<'_> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            self.calls += 1;
            self.inner.fill_buf()
        }

        fn consume(&mut self, amt: usize) {
            self.inner.consume(amt)
        }
    }

    const SCHEDULE_REQUEST: &str = concat!(
        "POST /v1/schedule HTTP/1.1\r\n",
        "Host: 127.0.0.1:7469\r\n",
        "User-Agent: curl/8.5.0\r\n",
        "Accept: */*\r\n",
        "Content-Type: application/json\r\n",
        "Content-Length: 53\r\n",
        "\r\n",
        "{\"preset\": \"tetonly\", \"scale\": 0.01, \"sn\": 2, \"m\": 4}",
    );

    #[test]
    fn a_request_is_scanned_a_buffer_at_a_time() {
        let mut reader = CountingReader {
            inner: BufReader::new(SCHEDULE_REQUEST.as_bytes()),
            calls: 0,
        };
        let req = Request::read_from(&mut reader).unwrap();
        assert_eq!(req.body.len(), 53);
        // One fill per line and one read for the body; a byte per call
        // would take 142 calls on this request.
        assert!(reader.calls <= 8, "{} calls", reader.calls);
    }

    #[test]
    fn lines_split_across_buffer_fills_parse_the_same() {
        let whole = parse(SCHEDULE_REQUEST).unwrap();
        for capacity in [1, 2, 3, 7, 16] {
            let mut reader = BufReader::with_capacity(capacity, SCHEDULE_REQUEST.as_bytes());
            let req = Request::read_from(&mut reader).unwrap();
            assert_eq!(
                (&req.method, &req.path, &req.headers, &req.body),
                (&whole.method, &whole.path, &whole.headers, &whole.body),
                "capacity {capacity}"
            );
        }
        // The limit counts every byte before the LF, CR included, also
        // when the line spans fills.
        for capacity in [2, 8192] {
            let line = |max| {
                read_line_limited(
                    &mut BufReader::with_capacity(capacity, &b"abcdef\r\nrest"[..]),
                    max,
                )
            };
            assert_eq!(line(7).unwrap(), "abcdef");
            assert!(matches!(line(6), Err(ReadError::Bad(431, _))));
        }
    }

    #[test]
    fn response_serializes_with_extra_headers() {
        let mut out = Vec::new();
        Response::error(429, "busy")
            .with_header("Retry-After", "2".to_string())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close"));
        assert!(text.ends_with("{\"error\": \"busy\"}\n"));
    }
}
