//! E6 — Theorem 5.4 and Corollary 5.5: existential-query probabilities
//! and absolute-error reliability.
//!
//! Sweeps the database size for a conjunctive query: grounded-DNF size
//! must grow polynomially (≈ n^{quantified vars}) with constant width,
//! both FPTRAS routes must land within ε of the exact value (small n),
//! and the k-ary budget split must keep the total reliability error ≤ ε.

use qrel_bench::{fmt_secs, random_graph_db, with_uniform_error, Table};
use qrel_core::exact::exact_reliability;
use qrel_core::existential::{
    existential_probability_exact, existential_probability_fptras, Route,
};
use qrel_core::reliability_approx::approximate_reliability;
use qrel_eval::{ground_existential, FoQuery};
use qrel_logic::parser::parse_formula;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn main() {
    println!("E6 — existential FPTRAS and reliability (Thm 5.4, Cor 5.5)\n");
    let f = parse_formula("exists x y. E(x,y) & S(x) & S(y)").unwrap();
    println!("ψ = {f}\n");

    println!("part 1: grounding growth and FPTRAS accuracy");
    let mut table = Table::new(&[
        "n",
        "ground terms",
        "width k",
        "exact ν(ψ)",
        "direct est",
        "counting est",
        "time (direct)",
    ]);
    // Instances come from their own stream, so a change in how many
    // draws a sampler takes never changes the databases it is run on.
    let mut instances = StdRng::seed_from_u64(6);
    let mut rng = StdRng::seed_from_u64(60);
    for n in [4usize, 6, 8, 12, 16] {
        let db = random_graph_db(n, 0.3, 0.6, &mut instances);
        let ud = with_uniform_error(db, 1, 8);
        let g = ground_existential(ud.observed(), &f, &HashMap::new(), 1_000_000).unwrap();
        let exact = if n <= 8 {
            format!(
                "{:.5}",
                existential_probability_exact(&ud, &f).unwrap().to_f64()
            )
        } else {
            "—".to_string()
        };
        let (direct, secs) = qrel_bench::timed(|| {
            existential_probability_fptras(&ud, &f, 0.05, 0.05, Route::Direct, &mut rng).unwrap()
        });
        let counting = if n <= 8 {
            format!(
                "{:.5}",
                existential_probability_fptras(&ud, &f, 0.05, 0.05, Route::ViaCounting, &mut rng)
                    .unwrap()
            )
        } else {
            "—".to_string()
        };
        table.row(&[
            n.to_string(),
            g.dnf.num_terms().to_string(),
            g.width().to_string(),
            exact,
            format!("{direct:.5}"),
            counting,
            fmt_secs(secs),
        ]);
    }
    table.print();

    println!("\npart 2: k-ary reliability with per-tuple budget split (Cor 5.5)");
    let unary = parse_formula("exists y. E(x,y) & S(y)").unwrap();
    let free = vec!["x".to_string()];
    let mut table2 = Table::new(&["n", "tuples", "exact R_ψ", "approx R̂_ψ", "|err|", "time"]);
    for n in [3usize, 4] {
        let db = random_graph_db(n, 0.4, 0.6, &mut instances);
        let ud = with_uniform_error(db, 1, 10);
        let exact = exact_reliability(&ud, &FoQuery::with_free_order(unary.clone(), free.clone()))
            .unwrap()
            .reliability
            .to_f64();
        let (rep, secs) = qrel_bench::timed(|| {
            approximate_reliability(&ud, &unary, &free, 0.15, 0.15, &mut rng).unwrap()
        });
        table2.row(&[
            n.to_string(),
            rep.tuples.to_string(),
            format!("{exact:.5}"),
            format!("{:.5}", rep.reliability),
            format!("{:.5}", (rep.reliability - exact).abs()),
            fmt_secs(secs),
        ]);
    }
    table2.print();
    println!("\npaper: grounding is kDNF with constant k, size poly(n); |err| ≤ ε = 0.15.");
}
