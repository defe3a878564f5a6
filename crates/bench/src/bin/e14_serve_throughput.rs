//! E14 — serving-layer throughput and latency.
//!
//! Infrastructure experiment (no paper claim): measures the `qrel-serve`
//! HTTP layer end to end — worker-pool scaling and the effect of the
//! result cache — against the in-process server on an ephemeral port.
//! The workload is the FPTRAS rung on the `uncertain16` dataset with a
//! small seed pool, so with the cache enabled most requests repeat a
//! (query, seed) pair the cache has already answered.

use std::net::SocketAddr;
use std::time::Instant;

use qrel_bench::{http, percentile, scrape_counter, serve_uncertain16, timed, Table};
use qrel_serve::ServerConfig;

const CLIENT_THREADS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 50;
const SEED_POOL: u64 = 10;

fn http_solve(addr: SocketAddr, seed: u64) -> (u16, f64) {
    let body = format!(
        "{{\"dataset\":\"uncertain16\",\"query\":\"exists x. S(x)\",\
         \"method\":\"fptras\",\"eps\":0.2,\"delta\":0.1,\"seed\":{seed}}}"
    );
    timed(|| http(addr, "POST", "/v1/solve", &[], &body).0)
}

fn run_config(workers: usize, cache: bool) -> Vec<String> {
    let (addr, handle, join) = serve_uncertain16(ServerConfig {
        workers,
        queue_cap: 256,
        cache_bytes: if cache { 64 * 1024 * 1024 } else { 0 },
        ..ServerConfig::default()
    });

    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENT_THREADS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(REQUESTS_PER_CLIENT);
                for i in 0..REQUESTS_PER_CLIENT {
                    let seed = ((c * REQUESTS_PER_CLIENT + i) as u64) % SEED_POOL;
                    let (status, latency) = http_solve(addr, seed);
                    assert_eq!(status, 200, "solve failed");
                    latencies.push(latency);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = clients
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let hits = scrape_counter(addr, "qrel_cache_hits_total");
    handle.shutdown();
    join.join().unwrap().unwrap();

    let total = latencies.len();
    vec![
        workers.to_string(),
        if cache { "on" } else { "off" }.to_string(),
        total.to_string(),
        format!("{:.0}", total as f64 / wall),
        format!("{:.2}", percentile(&latencies, 0.50) * 1e3),
        format!("{:.2}", percentile(&latencies, 0.99) * 1e3),
        hits.to_string(),
    ]
}

fn main() {
    println!("E14 — qrel-serve throughput/latency (infrastructure experiment)\n");
    println!(
        "workload: {CLIENT_THREADS} client threads x {REQUESTS_PER_CLIENT} requests, \
         fptras(eps=0.2, delta=0.1) on uncertain16, {SEED_POOL} distinct seeds\n"
    );
    let mut table = Table::new(&[
        "workers",
        "cache",
        "requests",
        "rps",
        "p50 ms",
        "p99 ms",
        "cache hits",
    ]);
    for workers in [1usize, 4] {
        for cache in [false, true] {
            table.row(&run_config(workers, cache));
        }
    }
    table.print();
    println!(
        "\nexpected shape: cache-on turns repeated (query, seed) pairs into \
         O(lookup) hits, collapsing p50 and multiplying rps; extra workers \
         help most when the cache is off (solves dominate) and the machine \
         has cores to spare."
    );
}
