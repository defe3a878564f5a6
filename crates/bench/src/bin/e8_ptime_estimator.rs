//! E8 — Theorem 5.12: the padding estimator for all PTIME queries.
//!
//! Verifies the exact identity `ν(ψ′) = ξ² + (ξ−ξ²)·ν(ψ)` with
//! rationals, sweeps ξ and (ε, δ) to compare the Lemma 5.11 sample
//! budget with the estimator's measured error, and runs the estimator on
//! a Datalog (transitive closure) query — the query class that motivates
//! the theorem.

use qrel_arith::BigRational;
use qrel_bench::{random_graph_db, with_fixed_errors, Table};
use qrel_core::exact::exact_probability;
use qrel_core::ptime_estimator::{direct_probability, PaddingEstimator};
use qrel_count::bounds::hoeffding_samples;
use qrel_eval::{DatalogQuery, FnQuery, Query};
use qrel_par::DEFAULT_SHARDS;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("E8 — absolute-error MC for PTIME queries (Thm 5.12)\n");
    let mut rng = StdRng::seed_from_u64(8);

    // The Boolean Datalog query: node n−1 reachable from node 0.
    let reach = FnQuery::boolean(|db| {
        DatalogQuery::parse("T(y) :- E(0,y). T(z) :- T(y), E(y,z).", "T")
            .unwrap()
            .eval(db, &[5])
            .unwrap()
    });
    // Draw seeded instances until the adversary's flips actually matter
    // (0 < ν(ψ) < 1) — a degenerate instance would make every estimator
    // look perfect and the sweep uninformative.
    let (ud, exact) = loop {
        let db = random_graph_db(6, 0.35, 0.0, &mut rng);
        let ud = with_fixed_errors(db, 12, 1, 5, &mut rng);
        let exact = exact_probability(&ud, &reach).unwrap();
        if exact.to_f64() > 0.05 && exact.to_f64() < 0.95 {
            break (ud, exact);
        }
    };
    println!(
        "query: Datalog reachability 0→5; exact ν(ψ) = {} (≈ {:.5})\n",
        exact,
        exact.to_f64()
    );

    println!("part 1: the padded-expectation identity (exact rationals)");
    let mut t1 = Table::new(&["ξ", "ν(ψ')", "ξ²", "ξ", "identity holds"]);
    for (n, d) in [(1i64, 8u64), (1, 4), (3, 8)] {
        let xi = BigRational::from_ratio(n, d);
        let est = PaddingEstimator::new(xi.clone());
        let padded = est.padded_expectation(&exact);
        let xi2 = xi.mul_ref(&xi);
        let holds = padded == xi2.add_ref(&xi.sub_ref(&xi2).mul_ref(&exact))
            && padded >= xi2
            && padded <= xi;
        t1.row(&[
            xi.to_string(),
            format!("{:.6}", padded.to_f64()),
            format!("{:.6}", xi2.to_f64()),
            format!("{:.6}", xi.to_f64()),
            if holds { "✓".into() } else { "✗".into() },
        ]);
    }
    t1.print();

    println!("\npart 2: (ε, δ) sweep — measured |α − ν(ψ)| vs the budget");
    let mut t2 = Table::new(&[
        "ξ",
        "ε",
        "δ",
        "t (Lemma 5.11)",
        "estimate",
        "|err|",
        "within 2ε",
    ]);
    for (xn, xd) in [(1i64, 8u64), (1, 4), (3, 8)] {
        for (eps, delta) in [(0.1f64, 0.05f64), (0.05, 0.05)] {
            let est = PaddingEstimator::new(BigRational::from_ratio(xn, xd));
            let rep = est
                .estimate_probability(&ud, &reach, eps, delta, &mut rng)
                .unwrap();
            let err = (rep.estimate - exact.to_f64()).abs();
            t2.row(&[
                format!("{xn}/{xd}"),
                eps.to_string(),
                delta.to_string(),
                rep.samples.to_string(),
                format!("{:.5}", rep.estimate),
                format!("{err:.5}"),
                if err <= eps {
                    "✓".into()
                } else {
                    "✗ (prob < δ)".into()
                },
            ]);
        }
    }
    t2.print();

    println!("\npart 3: ablation — padding construction vs plain Hoeffding sampling");
    let mut t3 = Table::new(&["estimator", "samples", "estimate", "|err|"]);
    let (eps, delta) = (0.05, 0.05);
    let padding = PaddingEstimator::default_xi();
    let rep = padding
        .estimate_probability(&ud, &reach, eps, delta, &mut rng)
        .unwrap();
    t3.row(&[
        "Thm 5.12 padding (ξ=1/4)".into(),
        rep.samples.to_string(),
        format!("{:.5}", rep.estimate),
        format!("{:.5}", (rep.estimate - exact.to_f64()).abs()),
    ]);
    let dir = direct_probability(&ud, &reach, eps, delta, &mut rng).unwrap();
    t3.row(&[
        "direct Hoeffding".into(),
        dir.samples.to_string(),
        format!("{:.5}", dir.estimate),
        format!("{:.5}", (dir.estimate - exact.to_f64()).abs()),
    ]);
    t3.print();
    println!(
        "\npadding premium: {}x more samples than Hoeffding for the same (ε, δ) \
         — the construction exists to route through Lemma 5.11's relative \
         bound, not to be sample-optimal.",
        rep.samples / hoeffding_samples(eps, delta).max(1)
    );

    println!("\npart 4: parallel speedup at the fixed Lemma 5.11 budget (sharded engine)");
    let mut t4 = Table::new(&["threads", "estimate", "time", "speedup", "bit-identical"]);
    let mut serial: Option<(f64, f64)> = None;
    for threads in [1usize, 2, 4, 8] {
        let (rep, secs) = qrel_bench::timed(|| {
            padding
                .estimate_probability_sharded(&ud, &reach, eps, delta, 0xE8, threads)
                .unwrap()
        });
        let (base_est, base_secs) = *serial.get_or_insert((rep.estimate, secs));
        assert_eq!(rep.estimate.to_bits(), base_est.to_bits());
        t4.row(&[
            threads.to_string(),
            format!("{:.5}", rep.estimate),
            qrel_bench::fmt_secs(secs),
            format!("{:.2}x", base_secs / secs),
            (rep.estimate.to_bits() == base_est.to_bits()).to_string(),
        ]);
    }
    t4.print();
    println!(
        "\nfixed shard count ({DEFAULT_SHARDS}) + per-shard seed-split RNGs: the estimate \
         is required to be bit-identical across the threads column."
    );
}
