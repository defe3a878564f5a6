//! A one-request-per-connection HTTP/1.1 client, matching the server's
//! `Connection: close` model. Latency runs from `connect` to the last
//! response byte; the request bytes are assembled before the clock
//! starts.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A complete response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    /// `X-Qrel-Cache` was `hit`.
    pub cache_hit: bool,
    /// `X-Qrel-Elapsed-Us`, when present.
    pub elapsed_us: Option<u64>,
    pub body: Vec<u8>,
    pub latency: Duration,
}

/// Request bytes ready to send.
pub fn encode(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// A request written to the server whose response is not read yet.
pub struct Sent {
    conn: TcpStream,
    started: Instant,
}

/// Connect and write one encoded request.
pub fn start(addr: SocketAddr, raw: &[u8]) -> std::io::Result<Sent> {
    let started = Instant::now();
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(60)))?;
    conn.write_all(raw)?;
    Ok(Sent { conn, started })
}

impl Sent {
    /// Read the whole response.
    pub fn finish(mut self) -> std::io::Result<Reply> {
        let mut buf = Vec::with_capacity(4096);
        self.conn.read_to_end(&mut buf)?;
        parse(&buf, self.started.elapsed())
    }
}

/// Send one encoded request and read the whole response.
pub fn send(addr: SocketAddr, raw: &[u8]) -> std::io::Result<Reply> {
    start(addr, raw)?.finish()
}

fn parse(raw: &[u8], latency: Duration) -> std::io::Result<Reply> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response without a header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut cache_hit = false;
    let mut elapsed_us = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("x-qrel-cache") {
                cache_hit = value == "hit";
            } else if name.eq_ignore_ascii_case("x-qrel-elapsed-us") {
                elapsed_us = value.parse().ok();
            }
        }
    }
    Ok(Reply {
        status,
        cache_hit,
        elapsed_us,
        body: raw[split + 4..].to_vec(),
        latency,
    })
}

/// `GET path`, body as text; `None` unless the status is 200.
pub fn get_text(addr: SocketAddr, path: &str) -> Option<String> {
    let reply = send(addr, &encode("GET", path, b"")).ok()?;
    (reply.status == 200).then(|| String::from_utf8_lossy(&reply.body).into_owned())
}
