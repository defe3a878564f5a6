//! Integration tests for the serving layer: an in-process server hit
//! over real TCP sockets, plus a binary-level graceful-shutdown check.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use qrel::prelude::*;
use qrel::prob::UnreliableDatabaseSpec;
use qrel::serve::{protocol, Server, ServerConfig, ServerHandle};

fn data_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/data")).join(name)
}

/// One-shot HTTP client: returns (status, headers, body).
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    http_raw(addr, raw.as_bytes())
}

/// Send raw bytes, read the full response.
fn http_raw(addr: SocketAddr, raw: &[u8]) -> (u16, Vec<(String, String)>, String) {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(raw).unwrap();
    let mut text = String::new();
    conn.read_to_string(&mut text).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("complete response");
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    let headers = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    (status, headers, body.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn boot(config: ServerConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run().unwrap();
    });
    (addr, handle, join)
}

fn uncertain16_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        preload: vec![data_path("uncertain16.json")],
        ..ServerConfig::default()
    }
}

/// Scrape one un-labelled counter value from Prometheus text.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn solve_matches_the_library_oracle_bit_for_bit() {
    let (addr, handle, join) = boot(uncertain16_config());
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/solve",
        r#"{"dataset":"uncertain16","query":"exists x. S(x)","method":"exact"}"#,
    );
    assert_eq!(status, 200, "{body}");

    // Reproduce the server's solve exactly: same method, accuracy,
    // seed, thread count, and an untripped deadline budget — then the
    // response body must equal the library report's serialization
    // byte for byte.
    let text = std::fs::read_to_string(data_path("uncertain16.json")).unwrap();
    let spec: UnreliableDatabaseSpec = serde_json::from_str(&text).unwrap();
    let ud = spec.build().unwrap();
    let q = FoQuery::parse("exists x. S(x)").unwrap();
    let budget = Budget::with_deadline_from_now(Duration::from_millis(30_000));
    let report = Solver::new()
        .with_method(Method::Exact)
        .with_accuracy(0.05, 0.05)
        .with_seed(0)
        .with_threads(1)
        .solve(&ud, &q, &budget)
        .unwrap();
    let expected = String::from_utf8(protocol::solve_response_body(&report)).unwrap();
    assert_eq!(body, expected);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn cache_hit_is_bit_identical_and_visible_in_metrics() {
    let (addr, handle, join) = boot(uncertain16_config());
    let req = r#"{"dataset":"uncertain16","query":"exists x. S(x)","method":"fptras","seed":7}"#;

    let (s1, h1, b1) = http(addr, "POST", "/v1/solve", req);
    assert_eq!(s1, 200, "{b1}");
    assert_eq!(header(&h1, "X-Qrel-Cache"), Some("miss"));

    let (s2, h2, b2) = http(addr, "POST", "/v1/solve", req);
    assert_eq!(s2, 200);
    assert_eq!(header(&h2, "X-Qrel-Cache"), Some("hit"));
    assert_eq!(
        b1, b2,
        "cache hit must be byte-identical to the fresh solve"
    );

    // A different seed is a different cache entry, and a different answer
    // stream — it must not alias.
    let other = r#"{"dataset":"uncertain16","query":"exists x. S(x)","method":"fptras","seed":8}"#;
    let (s3, h3, _) = http(addr, "POST", "/v1/solve", other);
    assert_eq!(s3, 200);
    assert_eq!(header(&h3, "X-Qrel-Cache"), Some("miss"));

    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "qrel_cache_hits_total"), 1);
    assert_eq!(metric(&metrics, "qrel_cache_misses_total"), 2);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn every_method_name_is_served_never_a_500() {
    // Breaker slots and solve counters come from the method table, so
    // no method — `plan` included — can miss its slot and panic a worker.
    let (addr, handle, join) = boot(ServerConfig {
        workers: 2,
        preload: vec![data_path("example.json")],
        ..ServerConfig::default()
    });
    for m in Method::ALL {
        let req = format!(
            r#"{{"dataset":"example","query":"exists x. Knows(x,'carol')","method":"{}"}}"#,
            m.name()
        );
        let (status, _, body) = http(addr, "POST", "/v1/solve", &req);
        assert!(matches!(status, 200 | 422), "{m}: {status} {body}");
    }
    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("qrel_circuit_state{method=\"plan\"} 0\n"),
        "{metrics}"
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn inline_db_and_preloaded_dataset_share_cache_entries() {
    // Every source is keyed by the store's db-hash of the built model,
    // so posting the dataset file's contents inline must hit the entry
    // a named solve populated.
    let (addr, handle, join) = boot(uncertain16_config());
    let named = r#"{"dataset":"uncertain16","query":"exists x. S(x)","method":"exact"}"#;
    let (s1, h1, b1) = http(addr, "POST", "/v1/solve", named);
    assert_eq!(s1, 200, "{b1}");
    assert_eq!(header(&h1, "X-Qrel-Cache"), Some("miss"));

    let spec_text = std::fs::read_to_string(data_path("uncertain16.json")).unwrap();
    let inline = format!(
        r#"{{"db":{},"query":"exists x. S(x)","method":"exact"}}"#,
        spec_text
    );
    let (s2, h2, b2) = http(addr, "POST", "/v1/solve", &inline);
    assert_eq!(s2, 200, "{b2}");
    assert_eq!(header(&h2, "X-Qrel-Cache"), Some("hit"));
    assert_eq!(b1, b2);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn inline_preloaded_and_stored_datasets_share_one_db_hash() {
    // The same model gets one cache key whatever its source: an inline
    // spec, a preloaded file, or a store entry. The stored copy uses its
    // own name, because a stored entry shadows a preload of the same name.
    let dir = std::env::temp_dir().join(format!("qrel-serve-onehash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec_text = std::fs::read_to_string(data_path("example.json")).unwrap();
    let spec: UnreliableDatabaseSpec = serde_json::from_str(&spec_text).unwrap();
    let ingested = qrel::store::Store::init(&dir)
        .unwrap()
        .ingest_spec("stored", &spec)
        .unwrap();
    let (addr, handle, join) = boot(ServerConfig {
        workers: 2,
        preload: vec![data_path("example.json")],
        store: Some(dir.clone()),
        ..ServerConfig::default()
    });

    let query = r#""query":"exists x. Knows(x,'carol')","method":"exact","seed":3"#;
    let (s1, h1, b1) = http(
        addr,
        "POST",
        "/v1/solve",
        &format!(r#"{{"db":{spec_text},{query}}}"#),
    );
    assert_eq!(s1, 200, "{b1}");
    assert_eq!(header(&h1, "X-Qrel-Cache"), Some("miss"));
    for name in ["example", "stored"] {
        let (s, h, b) = http(
            addr,
            "POST",
            "/v1/solve",
            &format!(r#"{{"dataset":"{name}",{query}}}"#),
        );
        assert_eq!(s, 200, "{name}: {b}");
        assert_eq!(header(&h, "X-Qrel-Cache"), Some("hit"), "{name}");
        assert_eq!(b, b1, "{name}: a hit must be byte-identical");
    }

    let (status, _, list) = http(addr, "GET", "/v1/datasets", "");
    assert_eq!(status, 200, "{list}");
    let hash = format!(r#""db_hash":"{:016x}""#, ingested.db_hash);
    assert_eq!(list.matches(r#""db_hash":""#).count(), 2, "{list}");
    assert_eq!(list.matches(&hash).count(), 2, "{list}");

    handle.shutdown();
    join.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A churn-shaped store dataset (5 elements, `E/2`, 10 uncertain
/// facts, dyadic μ): the observed graph is the directed 5-cycle, so the
/// 2-cycle sentence has no certain witness and its reliability is
/// strictly between 0 and 1. Each forward edge may drop out and each
/// backward edge may appear.
fn two_cycle_spec() -> UnreliableDatabaseSpec {
    let cycle: Vec<Vec<u32>> = (0..5).map(|a| vec![a, (a + 1) % 5]).collect();
    let database = DatabaseBuilder::new()
        .universe_size(5)
        .relation("E", 2)
        .tuples("E", cycle.clone())
        .build();
    let mus = [
        "1/8", "1/4", "3/8", "1/2", "1/8", "1/4", "3/8", "1/2", "1/8", "1/4",
    ];
    let edges = cycle
        .iter()
        .cloned()
        .chain(cycle.iter().map(|t| vec![t[1], t[0]]));
    UnreliableDatabaseSpec {
        database,
        model: "full".into(),
        errors: edges
            .zip(mus)
            .map(|(tuple, mu)| qrel::prob::ErrorSpec {
                relation: "E".into(),
                tuple,
                mu: mu.into(),
            })
            .collect(),
    }
}

#[test]
fn exact_answers_on_a_graph_without_a_certain_witness_are_pinned() {
    // Every answer of the churn benchmark is 1, which cannot catch a
    // wrong count; this graph's answer is not. The pinned rationals
    // are also refereed by the oracle's reference interpreter over the
    // product-weighted worlds.
    const QUERY: &str = "exists x y. (E(x, y) & E(y, x))";
    const BEFORE: &str = "2371875/8388608";
    const AFTER: &str = "664125/2097152";
    let reference = |spec: &UnreliableDatabaseSpec| {
        let f = parse_formula(QUERY).unwrap();
        let (_, r, worlds) =
            qrel::oracle::reference::exact_reliability(&spec.build().unwrap(), &f, &[]).unwrap();
        assert_eq!(worlds, 1024);
        r.to_string()
    };
    let mut spec = two_cycle_spec();
    assert_eq!(reference(&spec), BEFORE);

    let dir = std::env::temp_dir().join(format!("qrel-serve-twocycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    qrel::store::Store::init(&dir)
        .unwrap()
        .ingest_spec("churn", &spec)
        .unwrap();
    let (addr, handle, join) = boot(ServerConfig {
        workers: 2,
        store: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let solve = |method: &str| {
        let (status, _, body) = http(
            addr,
            "POST",
            "/v1/solve",
            &format!(r#"{{"dataset":"churn","query":"{QUERY}","method":"{method}"}}"#),
        );
        assert_eq!(status, 200, "{body}");
        body
    };
    for method in ["auto", "exact"] {
        let body = solve(method);
        assert!(
            body.contains(&format!(r#""exact":"{BEFORE}""#)),
            "{method}: {body}"
        );
        assert!(body.contains(r#""method":"exact""#), "{method}: {body}");
        assert!(
            body.contains(r#""spent":{"worlds":1024,"#),
            "{method}: {body}"
        );
    }

    // Re-weight the observed edge 0 → 1: the answer must follow.
    let (status, _, body) = http(
        addr,
        "POST",
        "/v1/datasets/churn/facts",
        r#"{"facts":[{"relation":"E","tuple":[0,1],"mu":"1/2"}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    spec.errors[0].mu = "1/2".into();
    assert_eq!(reference(&spec), AFTER);
    for method in ["auto", "exact"] {
        let body = solve(method);
        assert!(
            body.contains(&format!(r#""exact":"{AFTER}""#)),
            "{method}: {body}"
        );
        assert!(
            body.contains(r#""spent":{"worlds":1024,"#),
            "{method}: {body}"
        );
    }

    handle.shutdown();
    join.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An inline `R/1, S/2, T/1` spec with three uncertain facts (8 worlds).
/// `exists x y. (R(x) & S(x, y) & T(y))` over it is the non-hierarchical
/// H0 shape: the plan rung declines, naming the query's variables, and
/// the exact rung answers.
fn h0_solve_body(var: &str, seed: u64) -> String {
    let database = DatabaseBuilder::new()
        .universe_size(3)
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .tuples("R", [vec![0], vec![1]])
        .tuples("S", [vec![0, 1], vec![1, 2]])
        .tuples("T", [vec![1], vec![2]])
        .build();
    let errors = [
        ("R", vec![0], "1/4"),
        ("S", vec![0, 1], "1/3"),
        ("T", vec![2], "1/5"),
    ]
    .into_iter()
    .map(|(relation, tuple, mu)| qrel::prob::ErrorSpec {
        relation: relation.into(),
        tuple,
        mu: mu.into(),
    })
    .collect();
    let spec = UnreliableDatabaseSpec {
        database,
        model: "full".into(),
        errors,
    };
    format!(
        r#"{{"db":{},"query":"exists {var} y. (R({var}) & S({var}, y) & T(y))","method":"auto","seed":{seed}}}"#,
        serde_json::to_string(&spec).unwrap()
    )
}

#[test]
fn a_variable_named_panicked_never_trips_the_auto_breaker() {
    // The plan decline quotes the variable names, so every trace below
    // contains "panicked". Breakers count typed panic steps only: six
    // fresh solves (distinct seeds, so none is a cache hit) stay 200
    // past the five-failure threshold.
    let (addr, handle, join) = boot(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    for seed in 0..6 {
        let (status, headers, body) =
            http(addr, "POST", "/v1/solve", &h0_solve_body("panicked", seed));
        assert_eq!(status, 200, "solve {seed}: {body}");
        assert_eq!(
            header(&headers, "X-Qrel-Cache"),
            Some("miss"),
            "solve {seed}"
        );
        assert!(body.contains(r#""method":"exact""#), "{body}");
        assert!(
            body.contains("no root variable among {panicked, y}"),
            "{body}"
        );
    }
    let (status, _, health) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains(r#""status":"ok""#), "{health}");
    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("qrel_circuit_state{method=\"auto\"} 0"),
        "{metrics}"
    );
    assert_eq!(metric(&metrics, "qrel_circuit_opens_total"), 0);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn a_variable_named_deadline_is_cached_like_any_other() {
    // The trace quotes the variable `deadline`, but no step tripped on
    // the clock: the report is deterministic and the repeat is a hit.
    let (addr, handle, join) = boot(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let body = h0_solve_body("deadline", 7);
    let (s1, h1, b1) = http(addr, "POST", "/v1/solve", &body);
    assert_eq!(s1, 200, "{b1}");
    assert_eq!(header(&h1, "X-Qrel-Cache"), Some("miss"));
    assert!(b1.contains("no root variable among {deadline, y}"), "{b1}");
    let (s2, h2, b2) = http(addr, "POST", "/v1/solve", &body);
    assert_eq!(s2, 200, "{b2}");
    assert_eq!(header(&h2, "X-Qrel-Cache"), Some("hit"));
    assert_eq!(b1, b2, "a hit must be byte-identical");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn malformed_oversized_and_unroutable_requests() {
    let (addr, handle, join) = boot(uncertain16_config());

    // 400: not JSON, bad fields, unknown dataset, bad query syntax.
    assert_eq!(http(addr, "POST", "/v1/solve", "not json").0, 400);
    assert_eq!(
        http(addr, "POST", "/v1/solve", r#"{"query":"S(x)"}"#).0,
        400
    );
    let (s, _, b) = http(
        addr,
        "POST",
        "/v1/solve",
        r#"{"dataset":"nope","query":"exists x. S(x)"}"#,
    );
    assert_eq!(s, 400);
    assert!(b.contains("unknown dataset"), "{b}");
    assert_eq!(
        http(
            addr,
            "POST",
            "/v1/solve",
            r#"{"dataset":"uncertain16","query":"exists x. ("}"#
        )
        .0,
        400
    );

    // 413: a declared body beyond the cap is refused from its headers
    // alone — no body bytes are sent at all.
    let (s, _, b) = http_raw(
        addr,
        b"POST /v1/solve HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999\r\n\r\n",
    );
    assert_eq!(s, 413, "{b}");

    // 404 / 405.
    assert_eq!(http(addr, "GET", "/v2/solve", "").0, 404);
    assert_eq!(http(addr, "DELETE", "/v1/solve", "").0, 405);
    assert_eq!(http(addr, "POST", "/metrics", "").0, 405);

    handle.shutdown();
    join.join().unwrap();
}

/// A request guaranteed to hold a worker for ~`timeout_ms`: forced
/// exact enumeration over 2^28 worlds trips its deadline and answers
/// with a partial.
fn slow_solve_body(timeout_ms: u64, seed: u64) -> String {
    let names: Vec<String> = (0..28).map(|i| format!("\"e{i}\"")).collect();
    let tuples: Vec<String> = (0..28).map(|i| format!("[{i}]")).collect();
    let errors: Vec<String> = (0..28)
        .map(|i| format!("{{\"relation\":\"S\",\"tuple\":[{i}],\"mu\":\"1/2\"}}"))
        .collect();
    format!(
        "{{\"db\":{{\"database\":{{\"vocab\":{{\"symbols\":[{{\"name\":\"S\",\"arity\":1}}]}},\
         \"universe\":{{\"names\":[{}]}},\
         \"relations\":[{{\"arity\":1,\"tuples\":[{}]}}]}},\
         \"model\":\"full\",\"errors\":[{}]}},\
         \"query\":\"exists x. S(x)\",\"method\":\"exact\",\
         \"timeout_ms\":{timeout_ms},\"seed\":{seed}}}",
        names.join(","),
        tuples.join(","),
        errors.join(",")
    )
}

#[test]
fn saturation_produces_429_and_counts_rejections() {
    let (addr, handle, join) = boot(ServerConfig {
        workers: 1,
        queue_cap: 1,
        ..uncertain16_config()
    });
    let clients: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || http(addr, "POST", "/v1/solve", &slow_solve_body(700, i)))
        })
        .collect();
    let results: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let rejected = results.iter().filter(|(s, _, _)| *s == 429).count();
    assert!(rejected >= 1, "no 429 under saturation: {results:?}");
    assert!(
        results.iter().any(|(s, _, _)| *s == 200),
        "nothing served: {results:?}"
    );
    for (status, headers, _) in &results {
        if *status == 429 {
            // Dynamic backpressure hint: queue depth over drain rate,
            // clamped to 1..=30 — the contract is the range, not a
            // hardcoded constant.
            let secs: u64 = header(headers, "Retry-After")
                .expect("429 carries Retry-After")
                .parse()
                .expect("Retry-After is an integer");
            assert!((1..=30).contains(&secs), "Retry-After = {secs}");
        }
    }

    // The queue has drained; the rejections are on the meter.
    let (_, _, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "qrel_rejected_total"), rejected as u64);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn metrics_are_monotone_across_requests() {
    let (addr, handle, join) = boot(uncertain16_config());
    let (_, _, before) = http(addr, "GET", "/metrics", "");
    let misses_before = metric(&before, "qrel_cache_misses_total");
    let count_before = metric(&before, "qrel_solve_latency_seconds_count");

    for _ in 0..3 {
        let (s, _, _) = http(
            addr,
            "POST",
            "/v1/solve",
            r#"{"dataset":"uncertain16","query":"S(x)","method":"qf"}"#,
        );
        assert_eq!(s, 200);
    }

    let (_, _, after) = http(addr, "GET", "/metrics", "");
    // One miss (first solve), then hits; exactly one real solve ran.
    assert_eq!(metric(&after, "qrel_cache_misses_total"), misses_before + 1);
    assert_eq!(metric(&after, "qrel_cache_hits_total"), 2);
    assert_eq!(
        metric(&after, "qrel_solve_latency_seconds_count"),
        count_before + 1
    );
    assert!(
        after.contains("qrel_solve_total{method=\"qf\"} 1"),
        "{after}"
    );
    assert!(
        after.contains("qrel_http_requests_total{endpoint=\"/v1/solve\",status=\"200\"} 3"),
        "{after}"
    );

    handle.shutdown();
    join.join().unwrap();
}

/// A spawned `qrel serve` that is killed and reaped when dropped, so a
/// failed assertion cannot leave the server running (its inherited
/// stderr would keep a piped test runner's output open).
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Binary-level check: `qrel serve` on an ephemeral port answers
/// `/healthz` and exits cleanly (status 0) on SIGTERM.
#[cfg(unix)]
#[test]
fn binary_serves_and_shuts_down_on_sigterm() {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_qrel"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--preload",
            data_path("example.json").to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");

    // The first stdout line announces the bound address.
    let stdout = child.stdout.take().unwrap();
    let mut child = KillOnDrop(child);
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr: SocketAddr = banner
        .rsplit("http://")
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("unparseable banner: {banner}"));

    let (status, _, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("example"), "{body}");

    // SIGTERM → graceful drain → exit 0.
    let term = Command::new("kill")
        .args(["-TERM", &child.0.id().to_string()])
        .status()
        .unwrap();
    assert!(term.success());
    let mut waited = Duration::ZERO;
    let status = loop {
        if let Some(status) = child.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            waited < Duration::from_secs(10),
            "server did not exit on SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(50));
        waited += Duration::from_millis(50);
    };
    assert!(status.success(), "exit status: {status:?}");
}

/// Binary-level forced-drain check: SIGTERM lands while a long solve is
/// in flight and the shutdown grace is too short for it to finish
/// gracefully — the drain escalates (hard-cancel), the solve still
/// answers, and the process exits 3 instead of 0 so operators can tell
/// a clean drain from a forced one.
#[cfg(unix)]
#[test]
fn binary_sigterm_during_long_solve_forces_drain_and_exits_3() {
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_qrel"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--shutdown-grace-ms",
            "200",
            "--watchdog-ms",
            "100",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");

    let stdout = child.stdout.take().unwrap();
    let mut child = KillOnDrop(child);
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr: SocketAddr = banner
        .rsplit("http://")
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("unparseable banner: {banner}"));

    // Occupy the single worker with a solve that wants ~5s.
    let slow =
        std::thread::spawn(move || http(addr, "POST", "/v1/solve", &slow_solve_body(5000, 0)));
    std::thread::sleep(Duration::from_millis(300));

    let term = Command::new("kill")
        .args(["-TERM", &child.0.id().to_string()])
        .status()
        .unwrap();
    assert!(term.success());

    // The in-flight solve is hard-cancelled past the grace period but
    // still gets an explicit response — degraded 200 or tagged 422,
    // never a dropped connection.
    let (status, _, body) = slow.join().unwrap();
    assert!(status == 200 || status == 422, "{status}: {body}");

    let mut waited = Duration::ZERO;
    let status = loop {
        if let Some(status) = child.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            waited < Duration::from_secs(10),
            "server did not exit after forced drain"
        );
        std::thread::sleep(Duration::from_millis(50));
        waited += Duration::from_millis(50);
    };
    // Exit 3 = forced drain, distinguishing it from the clean SIGTERM
    // exit (0) the idle test above observes.
    assert_eq!(status.code(), Some(3), "exit status: {status:?}");
}

/// `ServerHandle::shutdown` wakes an acceptor that is waiting for a
/// connection: `Server::run` returns promptly instead of after a poll
/// period. The watchdog is off so its sleep does not pad the drain.
#[test]
fn shutdown_of_an_idle_server_returns_from_run_within_a_second() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        self_heal: false,
        ..ServerConfig::default()
    })
    .unwrap();
    let handle = server.handle();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let join = std::thread::spawn(move || {
        let report = server.run();
        let _ = done_tx.send(());
        report
    });
    // Let the acceptor settle into its wait.
    std::thread::sleep(Duration::from_millis(200));
    handle.shutdown();
    done_rx
        .recv_timeout(Duration::from_secs(1))
        .expect("Server::run did not return within 1 s of shutdown");
    let report = join.join().unwrap().unwrap();
    assert!(!report.forced, "{report:?}");
}

/// Utime + stime of `pid` in clock ticks (fields 14 and 15 of
/// `/proc/<pid>/stat`, counted after the parenthesised command name).
#[cfg(target_os = "linux")]
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    let after_comm = &stat[stat.rfind(')').unwrap() + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // `after_comm` starts at field 3 (state), so field k is at k - 3.
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

/// Out of descriptors, `accept` fails while the connection stays
/// pending, so the listener stays readable: the acceptor must back off
/// instead of burning a core, and serve again once descriptors free up.
#[cfg(target_os = "linux")]
#[test]
fn binary_backs_off_when_accept_runs_out_of_descriptors() {
    use std::process::{Command, Stdio};
    use std::time::Instant;

    const FD_LIMIT: usize = 64;
    let mut child = Command::new("sh")
        .args([
            "-c",
            &format!("ulimit -n {FD_LIMIT}; exec \"$0\" serve --addr 127.0.0.1:0 --workers 1 --queue-cap 256"),
            env!("CARGO_BIN_EXE_qrel"),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let pid = child.id();
    let stdout = child.stdout.take().unwrap();
    let mut child = KillOnDrop(child);
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr: SocketAddr = banner
        .rsplit("http://")
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("unparseable banner: {banner}"));

    // Idle connections: the one worker blocks reading the first, the
    // queue holds the rest, and the server's descriptor table fills.
    let held: Vec<TcpStream> = (0..FD_LIMIT + 32)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    let fd_dir = format!("/proc/{pid}/fd");
    let deadline = Instant::now() + Duration::from_secs(5);
    while std::fs::read_dir(&fd_dir).unwrap().count() < FD_LIMIT {
        assert!(
            Instant::now() < deadline,
            "server never ran out of descriptors"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // Now every accept fails with EMFILE and a connection is pending.
    let before = cpu_ticks(pid);
    std::thread::sleep(Duration::from_secs(1));
    let spent = cpu_ticks(pid) - before;
    // Clock ticks are 1/100 s: half a second of CPU in one second of
    // wall time would be a spinning acceptor.
    assert!(spent < 50, "acceptor spun: {spent} ticks of CPU in 1 s");

    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, body) = http(addr, "GET", "/healthz", "");
        if status == 200 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "/healthz never recovered: {status} {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let term = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .unwrap();
    assert!(term.success());
    let status = child.0.wait().unwrap();
    assert!(status.success(), "exit status: {status:?}");
}
