//! One integration test per theorem of the paper: each asserts the
//! theorem's *claim* on concrete instances (the miniature version of the
//! experiments in `EXPERIMENTS.md`).

use qrel::core::reductions::four_col::{lemma_query, reduce as reduce_graph, Graph};
use qrel::core::reductions::mon2sat::{recover_count, reduce};
use qrel::count::bounds::{hoeffding_samples, karp_luby_t};
use qrel::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

fn r(n: i64, d: u64) -> BigRational {
    BigRational::from_ratio(n, d)
}

/// Proposition 3.1: quantifier-free reliability scales polynomially —
/// growing the database must not blow up the per-tuple atom count, and
/// the runtime across a doubling of n stays near the n^k trend.
#[test]
fn prop_3_1_qf_polynomial_scaling() {
    let f = parse_formula("E(x,y) & S(x) & !S(y)").unwrap();
    let free = vec!["x".to_string(), "y".to_string()];
    let mut timings = Vec::new();
    for n in [4usize, 8, 16] {
        let db = DatabaseBuilder::new()
            .universe_size(n)
            .relation("E", 2)
            .relation("S", 1)
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_uniform_error(r(1, 7)).unwrap();
        let start = Instant::now();
        let rep = qf_reliability(&ud, &f, &free).unwrap();
        timings.push(start.elapsed().as_secs_f64());
        // The 2^{n(ψ)} constant never grows with the database.
        assert_eq!(rep.max_atoms_per_tuple, 3);
    }
    // Quadratic query: 4x tuples per doubling; allow up to ~12x wall
    // time per step to absorb noise, which still rules out exponential
    // growth in n (which would be ≥ 2^{48} across these sizes).
    assert!(timings[2] < timings[0].max(1e-4) * 400.0);
}

/// Proposition 3.2: the expected error of the fixed conjunctive query
/// counts monotone-2-SAT models exactly.
#[test]
fn prop_3_2_reduction_counts_exactly() {
    let mut rng = StdRng::seed_from_u64(32);
    for _ in 0..5 {
        let f = Monotone2Sat::random(6, 7, &mut rng);
        let inst = reduce(&f);
        let q = FoQuery::new(inst.query.clone());
        let h = exact_reliability(&inst.ud, &q).unwrap().expected_error;
        assert_eq!(recover_count(&inst, &h).to_u64(), Some(count_mon2sat(&f)));
    }
}

/// Theorem 4.2: the g-normalized accepting-path count is integral, and
/// the world space size matches 2^{uncertain}.
#[test]
fn thm_4_2_counting_certificate() {
    let db = DatabaseBuilder::new()
        .universe_size(2)
        .relation("E", 2)
        .build();
    let mut ud = UnreliableDatabase::reliable(db);
    ud.set_error(&Fact::new(0, vec![0, 1]), r(1, 3)).unwrap();
    ud.set_error(&Fact::new(0, vec![1, 0]), r(2, 7)).unwrap();
    ud.set_error(&Fact::new(0, vec![0, 0]), r(5, 12)).unwrap();
    let q = FoQuery::new(parse_formula("exists x y. E(x,y)").unwrap());
    let cert = counting_certificate(&ud, &q).unwrap();
    // g = 3·7·12 (denominators of ν per fact; μ=0 facts contribute 1).
    assert_eq!(cert.g, BigUint::from_u64(3 * 7 * 12));
    let p = exact_probability(&ud, &q).unwrap();
    let recovered = BigRational::new(
        BigInt::from_biguint(cert.accepting_paths.clone()),
        BigInt::from_biguint(cert.g.clone()),
    );
    assert_eq!(p, recovered);
    assert_eq!(ud.worlds().count(), 8);
}

/// Theorem 5.2/5.3: Karp–Luby and the Prob-kDNF reduction hit relative
/// accuracy on an instance whose probability is far too small for naive
/// Monte-Carlo with the same budget.
#[test]
fn thm_5_3_fptras_beats_naive_mc_on_small_probabilities() {
    use qrel::logic::prop::{Dnf, Lit};
    // Pr[φ] = 2·(1/4)^10 − (1/4)^20 ≈ 1.9e-6.
    let d = Dnf::from_terms([
        (0..10).map(Lit::pos).collect::<Vec<_>>(),
        (10..20).map(Lit::pos).collect::<Vec<_>>(),
    ]);
    let probs = vec![r(1, 4); 20];
    let exact = dnf_probability_shannon(&d, &probs).to_f64();
    let mut rng = StdRng::seed_from_u64(53);

    let kl = KarpLuby::new(&d, &probs);
    let report = kl.run(0.05, 0.01, &mut rng);
    let rel_err = (report.estimate - exact).abs() / exact;
    assert!(rel_err < 0.1, "Karp–Luby rel err {rel_err}");

    // Naive MC with the same sample budget sees ~0 hits.
    let naive = qrel::count::naive_mc::naive_mc_probability_with_samples(
        &d,
        &probs,
        report.samples,
        &mut rng,
    );
    let naive_rel_err = (naive - exact).abs() / exact;
    assert!(
        naive_rel_err > 0.5,
        "naive MC unexpectedly accurate: {naive_rel_err}"
    );
}

/// Theorem 5.4 + Corollary 5.5: the existential FPTRAS drives an
/// absolute-error reliability estimate for a binary query.
#[test]
fn thm_5_4_cor_5_5_reliability_estimate() {
    let db = DatabaseBuilder::new()
        .universe_size(3)
        .relation("E", 2)
        .tuples("E", [vec![0, 1], vec![1, 2]])
        .build();
    let mut ud = UnreliableDatabase::reliable(db);
    ud.set_relation_error("E", r(1, 6)).unwrap();
    let f = parse_formula("exists z. E(x,z) & E(z,y)").unwrap();
    let free = vec!["x".to_string(), "y".to_string()];
    let exact = exact_reliability(&ud, &FoQuery::with_free_order(f.clone(), free.clone()))
        .unwrap()
        .reliability
        .to_f64();
    let mut rng = StdRng::seed_from_u64(54);
    let rep = approximate_reliability(&ud, &f, &free, 0.1, 0.1, &mut rng).unwrap();
    assert!((rep.reliability - exact).abs() <= 0.1);
}

/// Lemma 5.9: the 4-colourability reduction decides correctly on both a
/// positive and a negative instance.
#[test]
fn lemma_5_9_four_colourability() {
    let q = FoQuery::new(lemma_query());
    let yes = reduce_graph(&Graph::complete(4));
    assert!(!is_absolutely_reliable(&yes, &q).unwrap());
    let no = reduce_graph(&Graph::complete(5));
    assert!(is_absolutely_reliable(&no, &q).unwrap());
}

/// Theorem 5.12: the padding estimator achieves its absolute-error bound
/// on a Datalog query, its sample count matches Lemma 5.11's formula,
/// and the padded-expectation identity holds exactly.
#[test]
fn thm_5_12_padding_estimator() {
    let db = DatabaseBuilder::new()
        .universe_size(4)
        .relation("E", 2)
        .tuples("E", [vec![0, 1], vec![1, 2], vec![2, 3]])
        .build();
    let mut ud = UnreliableDatabase::reliable(db);
    ud.set_relation_error("E", r(1, 8)).unwrap();

    // Boolean: "3 is reachable from 0".
    let reach = FnQuery::boolean(|db| {
        DatalogQuery::parse("T(y) :- E(0,y). T(z) :- T(y), E(y,z).", "T")
            .unwrap()
            .eval(db, &[3])
            .unwrap()
    });
    let exact = exact_probability(&ud, &reach).unwrap();

    let est = PaddingEstimator::new(r(1, 4));
    // Identity ν(ψ') = ξ² + (ξ−ξ²)ν(ψ), checked with exact rationals.
    let padded = est.padded_expectation(&exact);
    let xi = r(1, 4);
    assert_eq!(
        padded,
        xi.mul_ref(&xi)
            .add_ref(&xi.sub_ref(&xi.mul_ref(&xi)).mul_ref(&exact))
    );

    // Sample formula: t = ⌈9/(2ξ(ε/2)²)·ln(1/δ)⌉.
    assert_eq!(est.samples_for(0.2, 0.1), karp_luby_t(0.25, 0.1, 0.1));
    // The padding premium over Hoeffding is real.
    assert!(est.samples_for(0.2, 0.1) > hoeffding_samples(0.2, 0.1));

    let mut rng = StdRng::seed_from_u64(55);
    let rep = est
        .estimate_probability(&ud, &reach, 0.08, 0.05, &mut rng)
        .unwrap();
    assert!(
        (rep.estimate - exact.to_f64()).abs() <= 0.08,
        "estimate {} vs exact {}",
        rep.estimate,
        exact.to_f64()
    );
}

/// Theorem 6.2: metafinite quantifier-free reliability matches the
/// exhaustive engine, and aggregate reliability is computable exactly.
#[test]
fn thm_6_2_metafinite() {
    use qrel::metafinite::reliability::{
        exact_reliability as meta_exact, qf_reliability as meta_qf,
    };
    let mut db = FunctionalDatabase::new(3);
    db.add_function_values("f", 1, vec![r(1, 1), r(2, 1), r(3, 1)]);
    let mut ud = UnreliableFunctionalDatabase::reliable(db);
    ud.set_distribution(
        "f",
        &[1],
        EntryDistribution::new(vec![(r(2, 1), r(1, 2)), (r(5, 1), r(1, 2))]).unwrap(),
    );
    let t = MTerm::apply(
        ROp::CharLe,
        [MTerm::func("f", ["x"]), MTerm::constant(2, 1)],
    );
    let fast = meta_qf(&ud, &t, &["x".to_string()]).unwrap();
    let slow = meta_exact(&ud, &t, &["x".to_string()]).unwrap();
    assert_eq!(fast, slow);
    assert_eq!(fast.expected_error, r(1, 2)); // only entry f(1) flips the flag

    let agg = MTerm::multiset(MultisetOp::Sum, ["x"], MTerm::func("f", ["x"]));
    let rep = meta_exact(&ud, &agg, &[]).unwrap();
    assert_eq!(rep.expected_error, r(1, 2));
}

/// The grounding of Theorem 5.4 is a kDNF with k independent of n.
#[test]
fn thm_5_4_grounding_width_constant() {
    let f = parse_formula("exists x y. E(x,y) & S(x) & !S(y)").unwrap();
    let mut widths = Vec::new();
    for n in [2usize, 4, 6] {
        let db = DatabaseBuilder::new()
            .universe_size(n)
            .relation("E", 2)
            .relation("S", 1)
            .build();
        let g = ground_existential(&db, &f, &HashMap::new(), 1_000_000).unwrap();
        widths.push(g.width());
    }
    assert!(widths.iter().all(|&w| w == widths[0] && w <= 3));
}
