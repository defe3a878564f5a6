//! E16 — availability under a seeded fault storm, before vs after
//! self-healing.
//!
//! Infrastructure experiment (no paper claim): arms one deterministic
//! `FaultPlan` — rung panics, rung stalls, worker panics, poisoned
//! cache replies — and drives the same sequential exact workload
//! through `qrel-serve` twice: once with self-healing disabled (no
//! rung retries, no breakers, no watchdog) and once with the defaults.
//! The storm schedule is a pure function of `(seed, point, hit index)`,
//! so both configurations face the same adversary.
//!
//! Reported per configuration: availability (fraction of `200`s), the
//! error taxonomy (`500` = surfaced rung/worker panic, `422` =
//! degradation the budget could not hide), p50/p99 latency, and the
//! self-healing counters scraped from `/metrics` (watchdog cancels,
//! poisoned cache replies detected). The headline is availability:
//! with retries on, a panicked rung usually heals on the second
//! attempt, bit-identical to a first-try answer, so requests that were
//! `500`s/`422`s become `200`s without touching the numeric path.

use std::net::{SocketAddr, TcpStream};

use qrel_bench::{http, percentile, scrape_counter, serve_uncertain16, timed, Table};
use qrel_faults::{points, FaultPlan};
use qrel_serve::ServerConfig;

const REQUESTS: usize = 200;
const SEED_POOL: u64 = 10;
const TIMEOUT_MS: u64 = 2_000;

fn storm() -> FaultPlan {
    FaultPlan::new(16)
        .with_rule(&points::rung_panic("exact"), 0.25, 0, 0)
        .with_rule(&points::rung_stall("exact"), 0.10, 100, 0)
        .with_rule(points::SERVE_WORKER_PANIC, 0.05, 0, 0)
        .with_rule(points::CACHE_REPLY_POISON, 0.50, 0, 0)
}

fn http_solve(addr: SocketAddr, seed: u64) -> (u16, f64) {
    let body = format!(
        "{{\"dataset\":\"uncertain16\",\"query\":\"exists x. S(x)\",\
         \"method\":\"exact\",\"seed\":{seed},\"timeout_ms\":{TIMEOUT_MS}}}"
    );
    timed(|| http(addr, "POST", "/v1/solve", &[], &body).0)
}

fn run_config(self_heal: bool) -> Vec<String> {
    let (addr, handle, join) = serve_uncertain16(ServerConfig {
        workers: 1,
        self_heal,
        ..ServerConfig::default()
    });

    // Same storm for both configurations: decisions are a pure function
    // of (seed, point, hit index), not of wall clock or thread timing.
    let guard = storm().arm();
    let mut latencies = Vec::with_capacity(REQUESTS);
    let mut ok = 0u64;
    let mut e422 = 0u64;
    let mut e500 = 0u64;
    let mut other = 0u64;
    for i in 0..REQUESTS {
        let (status, latency) = http_solve(addr, i as u64 % SEED_POOL);
        latencies.push(latency);
        match status {
            200 => ok += 1,
            422 => e422 += 1,
            500 => e500 += 1,
            _ => other += 1,
        }
    }
    drop(guard);
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let watchdog = scrape_counter(addr, "qrel_watchdog_cancels_total");
    let poison = scrape_counter(addr, "qrel_cache_poison_detected_total");
    handle.shutdown();
    let _ = TcpStream::connect(addr);
    let _ = join.join();

    vec![
        if self_heal { "on" } else { "off" }.to_string(),
        format!("{:.1}%", 100.0 * ok as f64 / REQUESTS as f64),
        e422.to_string(),
        e500.to_string(),
        other.to_string(),
        format!("{:.2}", percentile(&latencies, 0.50) * 1e3),
        format!("{:.2}", percentile(&latencies, 0.99) * 1e3),
        watchdog.to_string(),
        poison.to_string(),
    ]
}

fn main() {
    println!("E16 — availability under a seeded fault storm (infrastructure experiment)\n");
    println!(
        "storm (seed 16): rung panic p=0.25, rung stall p=0.10/100ms, \
         worker panic p=0.05, cache poison p=0.50"
    );
    println!(
        "workload: {REQUESTS} sequential exact solves on uncertain16, \
         {SEED_POOL} distinct seeds, timeout {TIMEOUT_MS}ms\n"
    );
    let mut table = Table::new(&[
        "self-heal",
        "availability",
        "422",
        "500",
        "other",
        "p50 ms",
        "p99 ms",
        "watchdog",
        "poison-det",
    ]);
    for self_heal in [false, true] {
        table.row(&run_config(self_heal));
    }
    table.print();
    println!("\navailability = 200s / {REQUESTS}; 500 = surfaced panic, 422 = tagged degradation;");
    println!("watchdog / poison-det scraped from /metrics after the storm.");
}
