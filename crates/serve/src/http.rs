//! Minimal HTTP/1.1 on raw [`TcpStream`]s: exactly what the service
//! needs, nothing more.
//!
//! One request per connection (`Connection: close`), a read deadline so
//! a stalled client cannot wedge a worker, and a declared-body-size
//! guard checked *before* any body byte is read so an oversized upload
//! is refused for the price of its headers.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request line + headers. 16 KiB is far beyond any
/// legitimate client of this API.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request: method, path (query string stripped),
/// headers (names lowercased), body.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    /// `(name, value)` pairs in arrival order, names lowercased and
    /// values trimmed. Duplicates are kept; [`Request::header`] returns
    /// the first.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First value of the named header (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant maps onto one response
/// status in the worker loop.
#[derive(Debug)]
pub enum HttpError {
    /// Unparseable request line/headers, or a missing/garbled
    /// `Content-Length` → `400`.
    BadRequest(String),
    /// Declared or actual body beyond the configured cap → `413`.
    PayloadTooLarge { declared: usize, limit: usize },
    /// The client stalled past the read deadline → `408`.
    Timeout,
    /// The socket died; no response is possible.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::PayloadTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
            HttpError::Timeout => f.write_str("timed out reading the request"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

fn io_error(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

/// Read and parse one request from `stream`, enforcing the read
/// deadline and the body-size cap.
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    read_timeout: Duration,
) -> Result<Request, HttpError> {
    stream
        .set_read_timeout(Some(read_timeout))
        .map_err(HttpError::Io)?;

    // Accumulate until the blank line ending the head. Reads are small
    // and bounded; the deadline covers a byte-at-a-time trickler. Each
    // search starts where the previous one could no longer match.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let mut searched = 0;
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf, searched) {
            break pos;
        }
        searched = buf.len().saturating_sub(3);
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let n = stream.read(&mut chunk).map_err(io_error)?;
        if n == 0 {
            return Err(HttpError::BadRequest(
                "connection closed before the request head completed".into(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing method".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".into()))?;
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(HttpError::BadRequest("not an HTTP/1.x request".into())),
    }
    // Strip any query string; the API carries everything in the body.
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| HttpError::BadRequest("unparseable Content-Length".into()))?;
        }
        headers.push((name, value));
    }
    // The guard: reject a too-large declaration before reading a single
    // body byte.
    if content_length > max_body {
        return Err(HttpError::PayloadTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }

    // Past the guard, the declared length is the body's size: keep what
    // arrived with the head and read the rest straight into place.
    let early = &buf[head_end + 4..];
    let early = &early[..early.len().min(content_length)];
    let mut body = Vec::with_capacity(content_length);
    body.extend_from_slice(early);
    body.resize(content_length, 0);
    stream
        .read_exact(&mut body[early.len()..])
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => {
                HttpError::BadRequest("connection closed mid-body".into())
            }
            _ => io_error(e),
        })?;

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Byte offset of the `\r\n\r\n` head terminator, if one starts at or
/// after `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| from + p)
}

/// An HTTP response about to be written. Extra headers ride in
/// `headers`; `Content-Length` and `Connection: close` are added by
/// [`write_response`].
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    pub headers: Vec<(String, String)>,
}

impl Response {
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            headers: Vec::new(),
        }
    }

    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            headers: Vec::new(),
        }
    }

    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }
}

pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Serialize and send `resp`; errors are swallowed (the client may
/// already be gone, and there is nobody left to tell).
pub fn write_response(stream: &mut TcpStream, resp: &Response) {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        status_reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (name, value) in &resp.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // Head and body in one buffer, so the response is one write.
    let mut wire = head.into_bytes();
    wire.extend_from_slice(&resp.body);
    let _ = stream.write_all(&wire);
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Run `read_request` against bytes written from a paired socket.
    fn parse(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        parse_in_writes(&[raw], max_body)
    }

    /// Run `read_request` against `pieces` written one `write` each,
    /// with a pause between them so they arrive as separate reads.
    fn parse_in_writes(pieces: &[&[u8]], max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pieces: Vec<Vec<u8>> = pieces.iter().map(|p| p.to_vec()).collect();
        let writer = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.set_nodelay(true).unwrap();
            for (i, piece) in pieces.iter().enumerate() {
                if i > 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                c.write_all(piece).unwrap();
            }
            // Keep the socket open briefly so a short read sees EOF
            // only after all bytes arrived.
            c.shutdown(std::net::Shutdown::Write).unwrap();
            let mut sink = Vec::new();
            let _ = c.read_to_end(&mut sink);
        });
        let (mut conn, _) = listener.accept().unwrap();
        let out = read_request(&mut conn, max_body, Duration::from_millis(500));
        drop(conn);
        writer.join().unwrap();
        out
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            b"POST /v1/solve?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/solve");
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.header("host"), Some("h"));
    }

    #[test]
    fn headers_are_case_insensitive_and_trimmed() {
        let req = parse(
            b"POST /v1/jobs HTTP/1.1\r\nX-Qrel-Tenant:  acme \r\nContent-Length: 0\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(req.header("x-qrel-tenant"), Some("acme"));
        assert_eq!(req.header("X-Qrel-Tenant"), Some("acme"));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn body_arriving_in_many_small_writes_is_read_whole() {
        let body: Vec<u8> = (0..3000u32).map(|i| b'a' + (i % 26) as u8).collect();
        let head = format!(
            "POST /v1/solve HTTP/1.1\r\nContent-Length: {}\r\n\r",
            body.len()
        );
        // The head terminator straddles two writes; the body follows in
        // 40-byte writes.
        let mut pieces: Vec<&[u8]> = vec![head.as_bytes(), b"\n"];
        pieces.extend(body.chunks(40));
        let req = parse_in_writes(&pieces, 4096).unwrap();
        assert_eq!(req.path, "/v1/solve");
        assert_eq!(req.body, body);
    }

    #[test]
    fn bytes_past_the_declared_length_are_dropped_and_a_short_body_is_an_error() {
        let req = parse(b"POST / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcdef", 128).unwrap();
        assert_eq!(req.body, b"abc");
        let err = parse_in_writes(
            &[b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nab", b"cd"],
            128,
        )
        .unwrap_err();
        assert!(
            matches!(&err, HttpError::BadRequest(m) if m.contains("mid-body")),
            "{err}"
        );
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n", 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn declared_oversize_is_rejected_without_reading_the_body() {
        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n", 128).unwrap_err();
        assert!(matches!(
            err,
            HttpError::PayloadTooLarge {
                declared: 999999,
                limit: 128
            }
        ));
    }

    #[test]
    fn garbage_is_bad_request() {
        assert!(matches!(
            parse(b"NOT-HTTP\r\n\r\n", 128),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n", 128),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn stalled_client_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            // Send half a head, then stall past the deadline.
            c.write_all(b"GET /healthz HT").unwrap();
            std::thread::sleep(Duration::from_millis(300));
            drop(c);
        });
        let (mut conn, _) = listener.accept().unwrap();
        let err = read_request(&mut conn, 128, Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, HttpError::Timeout), "{err}");
        client.join().unwrap();
    }

    #[test]
    fn response_wire_bytes_are_head_then_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            let mut wire = Vec::new();
            c.read_to_end(&mut wire).unwrap();
            wire
        });
        let (mut conn, _) = listener.accept().unwrap();
        let resp = Response::json(429, "{}").with_header("Retry-After", "3");
        write_response(&mut conn, &resp);
        drop(conn);
        assert_eq!(
            String::from_utf8(reader.join().unwrap()).unwrap(),
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
             Content-Length: 2\r\nConnection: close\r\nRetry-After: 3\r\n\r\n{}"
        );
    }
}
