//! Shared harness for the qrel experiments.
//!
//! Each experiment in `DESIGN.md` §7 is a binary in `src/bin/` that
//! prints a table; `EXPERIMENTS.md` records the outputs next to the
//! paper's claims. This library provides the common pieces: table
//! rendering, timing, workload generators, and the HTTP client the
//! serve experiments share.

pub mod perf;

use qrel_arith::BigRational;
use qrel_db::{Database, DatabaseBuilder, Fact};
use qrel_prob::UnreliableDatabase;
use qrel_serve::{DrainReport, ServeError, Server, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::Rng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Instant;

/// Render a fixed-width table to stdout.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::from("|");
            for (c, w) in cells.iter().zip(&widths) {
                s.push_str(&format!(" {c:<w$} |"));
            }
            s
        };
        let sep = {
            let mut s = String::from("|");
            for w in &widths {
                s.push_str(&format!("{}|", "-".repeat(w + 2)));
            }
            s
        };
        println!("{}", line(&self.headers));
        println!("{sep}");
        for row in &self.rows {
            println!("{}", line(row));
        }
    }
}

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Format seconds human-readably.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// The `p`-quantile of an ascending slice, by nearest rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Boot `config` on an ephemeral loopback port with the committed
/// `data/uncertain16.json` (2^16 worlds) preloaded. Returns the address,
/// the shutdown handle, and the thread running the server.
pub fn serve_uncertain16(
    config: ServerConfig,
) -> (
    SocketAddr,
    ServerHandle,
    JoinHandle<Result<DrainReport, ServeError>>,
) {
    let dataset = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/uncertain16.json");
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        preload: vec![PathBuf::from(dataset)],
        ..config
    })
    .unwrap();
    let (addr, handle) = (server.local_addr(), server.handle());
    (addr, handle, std::thread::spawn(move || server.run()))
}

/// One HTTP/1.1 request on its own connection, read until the server
/// closes it. Returns `(status, body)`; the status is 0 when no status
/// line came back.
pub fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String) {
    let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
    for (k, v) in headers {
        raw.push_str(&format!("{k}: {v}\r\n"));
    }
    raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(raw.as_bytes()).unwrap();
    let mut text = String::new();
    conn.read_to_string(&mut text).unwrap();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The value of the `/metrics` series named exactly `name` (labels
/// included), or 0 when the server does not export it.
pub fn scrape_counter(addr: SocketAddr, name: &str) -> u64 {
    let (_, text) = http(addr, "GET", "/metrics", &[], "");
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// A random database over the standard experiment schema
/// `E/2, S/1` with edge density `p_edge` and mark density `p_mark`.
pub fn random_graph_db(n: usize, p_edge: f64, p_mark: f64, rng: &mut StdRng) -> Database {
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in 0..n as u32 {
            if a != b && rng.gen_bool(p_edge) {
                edges.push(vec![a, b]);
            }
        }
    }
    let marks: Vec<Vec<u32>> = (0..n as u32)
        .filter(|_| rng.gen_bool(p_mark))
        .map(|v| vec![v])
        .collect();
    DatabaseBuilder::new()
        .universe_size(n)
        .relation("E", 2)
        .relation("S", 1)
        .tuples("E", edges)
        .tuples("S", marks)
        .build()
}

/// Give every fact of `db` the same error probability.
pub fn with_uniform_error(db: Database, num: i64, den: u64) -> UnreliableDatabase {
    let mut ud = UnreliableDatabase::reliable(db);
    ud.set_uniform_error(BigRational::from_ratio(num, den))
        .unwrap();
    ud
}

/// Make exactly `count` randomly chosen facts uncertain with random
/// error probabilities drawn from the given denominators.
pub fn with_random_errors(
    db: Database,
    count: usize,
    denominators: &[u64],
    rng: &mut StdRng,
) -> UnreliableDatabase {
    let mut ud = UnreliableDatabase::reliable(db);
    let indexer = ud.indexer().clone();
    let total = indexer.total();
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < count.min(total) {
        chosen.insert(rng.gen_range(0..total));
    }
    for fi in chosen {
        let d = denominators[rng.gen_range(0..denominators.len())];
        let n = rng.gen_range(1..d) as i64;
        ud.set_error(&indexer.fact_at(fi), BigRational::from_ratio(n, d))
            .unwrap();
    }
    ud
}

/// Set error probability `num/den` on exactly `count` random facts.
pub fn with_fixed_errors(
    db: Database,
    count: usize,
    num: i64,
    den: u64,
    rng: &mut StdRng,
) -> UnreliableDatabase {
    let mut ud = UnreliableDatabase::reliable(db);
    let indexer = ud.indexer().clone();
    let total = indexer.total();
    let mut chosen = std::collections::HashSet::new();
    while chosen.len() < count.min(total) {
        chosen.insert(rng.gen_range(0..total));
    }
    for fi in chosen {
        ud.set_error(&indexer.fact_at(fi), BigRational::from_ratio(num, den))
            .unwrap();
    }
    ud
}

/// Random kDNF over `num_vars` variables with exactly `num_terms` terms.
pub fn random_kdnf(
    num_vars: usize,
    num_terms: usize,
    k: usize,
    rng: &mut StdRng,
) -> qrel_logic::prop::Dnf {
    use qrel_logic::prop::{Dnf, Lit};
    let mut d = Dnf::new();
    while d.num_terms() < num_terms {
        let len = rng.gen_range(1..=k);
        let lits: Vec<Lit> = (0..len)
            .map(|_| {
                let v = rng.gen_range(0..num_vars) as u32;
                if rng.gen() {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                }
            })
            .collect();
        d.push_term_checked(lits);
    }
    d
}

/// Log-log slope between two (x, y) measurements — the empirical
/// polynomial degree.
pub fn loglog_slope(x0: f64, y0: f64, x1: f64, y1: f64) -> f64 {
    ((y1 / y0).ln()) / ((x1 / x0).ln())
}

/// Shorthand for building a fact.
pub fn fact(rel: usize, tuple: Vec<u32>) -> Fact {
    Fact::new(rel, tuple)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["n", "time"]);
        t.row(&["8".to_string(), "1.2ms".to_string()]);
        t.print();
    }

    #[test]
    fn generators_produce_requested_sizes() {
        let mut rng = StdRng::seed_from_u64(1);
        let db = random_graph_db(10, 0.3, 0.5, &mut rng);
        assert_eq!(db.size(), 10);
        let ud = with_random_errors(db, 7, &[2, 3, 4], &mut rng);
        assert_eq!(ud.uncertain_facts().len(), 7);
        let d = random_kdnf(12, 6, 3, &mut rng);
        assert_eq!(d.num_terms(), 6);
        assert!(d.width() <= 3);
    }

    #[test]
    fn slope_math() {
        // y = x²: slope 2.
        assert!((loglog_slope(2.0, 4.0, 8.0, 64.0) - 2.0).abs() < 1e-9);
    }
}
