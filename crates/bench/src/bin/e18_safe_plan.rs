//! E18 — safe-plan compilation: exact answers in polynomial time.
//!
//! The Dalvi–Suciu safe-plan rung computes the *exact* query probability
//! from an extensional plan over fact probabilities — no worlds, no
//! lineage. Part 1 cross-checks the plan against the Gray-code world
//! enumerator where enumeration is feasible, then races it against the
//! FPTRAS sampler where it is not: the plan must stay exact, beat the
//! sampler by ≥ 50x from a few hundred facts on, and keep its time per
//! fact within a constant factor across sizes. Part 2 times reliability
//! of the three one-free-variable safe queries that servebench's
//! inline_plan workload sends, one row each, on a graph of its size.
//! Part 3 drives the serve layer with a distinct-seed request train and
//! scrapes `/metrics`: one plan-cache miss (the single compile),
//! everything else hits.

use std::net::SocketAddr;

use qrel_arith::BigRational;
use qrel_bench::{
    fmt_secs, http, percentile, random_graph_db, scrape_counter, serve_uncertain16, timed,
    with_uniform_error, Table,
};
use qrel_core::exact::exact_probability;
use qrel_core::existential::{existential_probability_fptras, Route};
use qrel_eval::FoQuery;
use qrel_logic::parser::parse_formula;
use qrel_prob::UnreliableDatabase;
use qrel_serve::ServerConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const REQUESTS: usize = 40;

/// The one-free-variable safe queries of servebench's inline_plan
/// workload, and its instance: 30 elements, 600 uncertain facts, error
/// rates with small prime denominators.
const SAFE_QUERIES: [&str; 3] = [
    "exists y. (S(x) & E(x, y))",
    "exists y. (E(x, y) & S(y))",
    "S(x) & exists y. E(y, x)",
];
const INLINE_ELEMENTS: usize = 30;
const INLINE_FACTS: usize = 600;
const PRIME_MU: [(i64, u64); 5] = [(1, 3), (2, 7), (1, 11), (3, 13), (1, 10)];

/// Median wall time of up to `TIMING_RUNS` runs of `run`, returning the
/// last run's result. Runs stop early once they total `TIMING_FLOOR`
/// seconds: a single microsecond-scale run is dominated by allocator and
/// scheduler noise, while a second-scale one is not.
const TIMING_RUNS: usize = 5;
const TIMING_FLOOR: f64 = 0.25;

fn median_secs<T>(mut run: impl FnMut() -> T) -> (T, f64) {
    let (mut out, first) = timed(&mut run);
    let mut secs = vec![first];
    while secs.len() < TIMING_RUNS && secs.iter().sum::<f64>() < TIMING_FLOOR {
        let (o, t) = timed(&mut run);
        out = o;
        secs.push(t);
    }
    secs.sort_by(f64::total_cmp);
    (out, secs[secs.len() / 2])
}

fn http_solve(addr: SocketAddr, seed: u64) -> (u16, f64) {
    let body = format!(
        "{{\"dataset\":\"uncertain16\",\"query\":\"exists x. S(x)\",\
         \"method\":\"auto\",\"seed\":{seed}}}"
    );
    timed(|| http(addr, "POST", "/v1/solve", &[], &body).0)
}

fn main() {
    println!("E18 — safe-plan compilation (Dalvi–Suciu dichotomy, sjf fragment)\n");
    let f = parse_formula("exists x y. (S(x) & E(x, y))").unwrap();
    let plan = qrel_plan::compile(&f).unwrap();
    println!(
        "ψ = {f}   (hierarchical: safe plan, {} nodes)\n",
        plan.node_count()
    );

    println!("part 1: plan vs world enumeration vs FPTRAS sampling");
    let mut table = Table::new(&[
        "n",
        "facts",
        "plan ν(ψ)",
        "plan time",
        "enum time",
        "fptras time",
        "speedup",
    ]);
    let mut rng = StdRng::seed_from_u64(18);
    let mut worst_speedup = f64::INFINITY;
    let mut per_fact: Vec<f64> = Vec::new();
    for n in [4usize, 6, 16, 32] {
        let db = random_graph_db(n, 0.3, 0.6, &mut rng);
        let ud = with_uniform_error(db, 1, 8);
        let facts = ud.uncertain_facts().len();
        let (via_plan, t_plan) =
            median_secs(|| qrel_plan::sentence_probability(&ud, &plan).unwrap());
        // World enumeration is 2^facts — only run it where that fits.
        let t_enum = if facts <= 20 {
            let (via_worlds, t) =
                timed(|| exact_probability(&ud, &FoQuery::new(f.clone())).unwrap());
            assert_eq!(
                via_plan, via_worlds,
                "plan must be bit-equal to the enumerator"
            );
            fmt_secs(t)
        } else {
            "—".to_string()
        };
        // Every timed sampler run draws from a clone of the instance
        // stream, so the runs repeat the same work and the stream then
        // advances exactly as one run would: later instances do not
        // depend on the number of runs.
        let mut after = rng.clone();
        let (est, t_fptras) = median_secs(|| {
            after = rng.clone();
            existential_probability_fptras(&ud, &f, 0.1, 0.1, Route::Direct, &mut after).unwrap()
        });
        rng = after;
        assert!(
            (est - via_plan.to_f64()).abs() <= 0.1 + 1e-9,
            "sampler left its envelope"
        );
        // Past the enumerator's 2^20-world reach sampling is the only
        // alternative, and the plan's time per fact is bounded there. The
        // ≥50x gate applies from a few hundred facts on: at n = 6 (42
        // facts) the stopping-rule sampler draws ~3k samples and the
        // plan's lead is ≈ 30–50x, so that row is held by the per-fact
        // bound alone. The smallest row exists for the bit-equality
        // cross-check.
        if facts > 20 {
            per_fact.push(t_plan / facts as f64);
        }
        if facts > 100 {
            worst_speedup = worst_speedup.min(t_fptras / t_plan);
        }
        table.row(&[
            n.to_string(),
            facts.to_string(),
            format!("{:.6}", via_plan.to_f64()),
            fmt_secs(t_plan),
            t_enum,
            fmt_secs(t_fptras),
            format!("{:.0}x", t_fptras / t_plan),
        ]);
    }
    table.print();
    assert!(
        worst_speedup >= 50.0,
        "plan rung must beat sampling by ≥50x (worst {worst_speedup:.0}x)"
    );
    // The plan looks each fact up a bounded number of times, so its time is
    // linear in the facts: per-fact times across sizes stay within 4x.
    let spread = per_fact.iter().cloned().fold(0.0, f64::max)
        / per_fact.iter().cloned().fold(f64::INFINITY, f64::min);
    println!("plan time per fact varies {spread:.1}x across the rows past the enumerator");
    assert!(
        spread <= 4.0,
        "plan time per fact must stay within 4x across sizes (spread {spread:.1}x)"
    );

    println!("\npart 2: the one-free-variable safe queries, timed one by one");
    let mut rng = StdRng::seed_from_u64(1818);
    let mut ud = UnreliableDatabase::reliable(random_graph_db(INLINE_ELEMENTS, 0.5, 0.5, &mut rng));
    let mut chosen: Vec<usize> = (0..ud.indexer().total()).collect();
    for i in 0..INLINE_FACTS {
        let j = rng.gen_range(i..chosen.len());
        chosen.swap(i, j);
        let (num, den) = PRIME_MU[rng.gen_range(0..PRIME_MU.len())];
        let fact = ud.indexer().fact_at(chosen[i]);
        ud.set_error(&fact, BigRational::from_ratio(num, den))
            .unwrap();
    }
    let mut table = Table::new(&["query", "nodes", "reliability", "plan time"]);
    for src in SAFE_QUERIES {
        let q = FoQuery::parse(src).unwrap();
        let plan = qrel_plan::compile(q.formula()).unwrap();
        let (rep, t) =
            median_secs(|| qrel_plan::reliability(&ud, &plan, q.formula(), q.free_vars()).unwrap());
        table.row(&[
            src.to_string(),
            plan.node_count().to_string(),
            format!("{:.6}", rep.reliability.to_f64()),
            fmt_secs(t),
        ]);
    }
    table.print();

    println!("\npart 3: serve-layer plan cache under a distinct-seed train");
    let (addr, handle, join) = serve_uncertain16(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    let mut latencies = Vec::with_capacity(REQUESTS);
    for seed in 0..REQUESTS as u64 {
        // Distinct seeds defeat the result memo (seed is part of its
        // key) so every request reaches the plan cache.
        let (status, latency) = http_solve(addr, seed);
        assert_eq!(status, 200, "solve failed");
        latencies.push(latency);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let plan_hits = scrape_counter(addr, "qrel_plan_cache_hits_total");
    let plan_misses = scrape_counter(addr, "qrel_plan_cache_misses_total");
    let plan_solves = scrape_counter(addr, "qrel_solve_total{method=\"plan\"}");
    handle.shutdown();
    join.join().unwrap().unwrap();

    println!(
        "  {} solves over 2^16-world dataset: plan cache {} hits / {} misses \
         ({:.1}% hit rate), qrel_solve_total{{method=\"plan\"}} = {}",
        REQUESTS,
        plan_hits,
        plan_misses,
        100.0 * plan_hits as f64 / (plan_hits + plan_misses) as f64,
        plan_solves,
    );
    println!(
        "  p50 end-to-end {} / p99 {}",
        fmt_secs(percentile(&latencies, 0.50)),
        fmt_secs(percentile(&latencies, 0.99)),
    );
    assert_eq!(
        plan_misses, 1,
        "exactly one compile for one (query, schema)"
    );
    assert_eq!(plan_hits as usize, REQUESTS - 1);

    println!(
        "\nexpected shape: the plan evaluates in microseconds and is bit-equal \
         to the enumerator where 2^facts fits; the sampler pays thousands of \
         world draws for an ε-estimate, so past the enumerator's reach the \
         exact plan wins, by 50x or more from a few hundred facts on and \
         widening with n, while its time per fact stays flat. On the serve path \
         one compile serves the whole train — the plan cache is keyed on \
         (query, schema), so distinct seeds and even fact mutations never \
         re-compile."
    );
}
