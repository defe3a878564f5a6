//! Statistical-guarantee harness: the (ε, δ) contracts of the sampling
//! estimators are *testable claims*, not documentation. Each test runs
//! many independently seeded trials of one estimator at its own
//! theorem-dictated sample budget, counts the trials whose error
//! exceeds ε, and requires the empirical failure rate to stay at or
//! below δ plus binomial slack.
//!
//! Every trial goes through the sharded (parallel) engine, so the suite
//! certifies the guarantee on exactly the code path the solver runs —
//! the deterministic seed-split sampling path — not on a serial twin.

use qrel::arith::BigRational;
use qrel::count::bounds::hoeffding_samples;
use qrel::count::naive_mc::naive_mc_probability_sharded;
use qrel::count::{dnf_probability_shannon, KarpLuby};
use qrel::logic::prop::{Dnf, Lit};
use qrel::prelude::{
    exact_probability, Budget, DatabaseBuilder, Fact, FoQuery, PaddingEstimator, UnreliableDatabase,
};
use qrel_par::split_seed;

fn r(n: i64, d: u64) -> BigRational {
    BigRational::from_ratio(n, d)
}

/// Maximum failures tolerated in `trials` Bernoulli(δ) draws: the mean
/// plus three standard deviations. A correct estimator trips this with
/// probability < 0.2% — and the theorems' constants are conservative
/// enough that observed failure counts sit far below even the mean.
fn binomial_threshold(trials: u64, delta: f64) -> u64 {
    let n = trials as f64;
    (n * delta + 3.0 * (n * delta * (1.0 - delta)).sqrt()).ceil() as u64
}

/// A 6-variable, 3-term DNF at p = 1/3 — small enough that each trial
/// is cheap, non-trivial enough that the estimate actually varies.
fn test_dnf() -> (Dnf, Vec<BigRational>) {
    let d = Dnf::from_terms([
        vec![Lit::pos(0), Lit::pos(1)],
        vec![Lit::pos(2), Lit::neg(3)],
        vec![Lit::pos(4), Lit::pos(5)],
    ]);
    let probs = vec![r(1, 3); 6];
    (d, probs)
}

/// Three disjoint two-literal terms at p = 1/5: the terms rarely
/// overlap, so nearly every coverage sample hits (rate ≈ 0.96).
fn disjoint_dnf() -> (Dnf, Vec<BigRational>) {
    let d = Dnf::from_terms((0..3).map(|i| vec![Lit::pos(2 * i), Lit::pos(2 * i + 1)]));
    (d, vec![r(1, 5); 6])
}

/// Eight terms `x0 ∧ yᵢ` with `ν(yᵢ) = 19/20`: every term is nearly the
/// event `x0`, so the hit rate sits just above its `1/m` floor.
fn overlapping_dnf() -> (Dnf, Vec<BigRational>) {
    let d = Dnf::from_terms((1..9).map(|i| vec![Lit::pos(0), Lit::pos(i)]));
    let mut probs = vec![r(19, 20); 9];
    probs[0] = r(1, 3);
    (d, probs)
}

/// Runs `trials` seeded `(ε, δ)` Karp–Luby estimates on the sharded
/// engine and asserts the relative-ε failures stay within the binomial
/// slack of δ. Returns how many trials the cap branch answered.
fn karp_luby_contract(dnf: (Dnf, Vec<BigRational>), eps: f64, delta: f64, stream: u64) -> u64 {
    let (d, probs) = dnf;
    let exact = dnf_probability_shannon(&d, &probs).to_f64();
    let kl = KarpLuby::new(&d, &probs);
    let cap = kl.samples_for(eps, delta / 2.0);
    let trials = 80u64;
    let mut failures = 0u64;
    let mut capped = 0u64;
    for i in 0..trials {
        let seed = split_seed(stream, i);
        let (rep, _) = kl.run_eps_delta(eps, delta, &Budget::unlimited(), seed, 4);
        assert!(
            rep.samples <= cap,
            "{} samples past the cap {cap}",
            rep.samples
        );
        capped += u64::from(!rep.stopped);
        failures += u64::from((rep.estimate - exact).abs() / exact > eps);
    }
    let allowed = binomial_threshold(trials, delta);
    assert!(
        failures <= allowed,
        "Karp–Luby missed its relative-ε bound in {failures}/{trials} trials \
         (δ = {delta} allows at most {allowed})"
    );
    capped
}

#[test]
fn karp_luby_sharded_meets_its_relative_epsilon_delta_contract() {
    // A mixed DNF and a high-hit-rate one: the stopping rule answers.
    assert_eq!(karp_luby_contract(test_dnf(), 0.1, 0.2, 0x5747_0001), 0);
    assert_eq!(karp_luby_contract(disjoint_dnf(), 0.1, 0.2, 0x5747_0003), 0);
    // At the hit-rate floor and ε = 1/2 the threshold (≈ 53 hits) is
    // above the ≈ 51 hits expected by the cap, so the cap branch
    // answers a share of the trials and must keep the contract too.
    let capped = karp_luby_contract(overlapping_dnf(), 0.5, 0.2, 0x5747_0004);
    assert!(capped > 0, "the cap branch answered no trial");
}

#[test]
fn naive_mc_sharded_meets_its_hoeffding_contract() {
    let (d, probs) = test_dnf();
    let exact = dnf_probability_shannon(&d, &probs).to_f64();
    let (eps, delta) = (0.1, 0.2);
    let samples = hoeffding_samples(eps, delta);
    let trials = 200u64;
    let failures = (0..trials)
        .filter(|&i| {
            let est =
                naive_mc_probability_sharded(&d, &probs, samples, split_seed(0x5747_0002, i), 4);
            (est - exact).abs() > eps
        })
        .count() as u64;
    let allowed = binomial_threshold(trials, delta);
    assert!(
        failures <= allowed,
        "naive MC missed its absolute-ε bound in {failures}/{trials} trials \
         (δ = {delta} allows at most {allowed})"
    );
}

#[test]
fn padding_estimator_sharded_meets_its_absolute_epsilon_delta_contract() {
    // Two uncertain E-facts over a 2-element universe, each present with
    // probability 1/2: the closed query below holds iff both edges are
    // in, so ν(ψ) = 1/4 — mid-range, and each Monte-Carlo world costs
    // almost nothing, so the Lemma 5.11 budget × trials stays fast.
    let db = DatabaseBuilder::new()
        .universe_size(2)
        .relation("E", 2)
        .tuples("E", [vec![0, 1], vec![1, 0]])
        .build();
    let mut ud = UnreliableDatabase::reliable(db);
    ud.set_error(&Fact::new(0, vec![0, 1]), r(1, 2)).unwrap();
    ud.set_error(&Fact::new(0, vec![1, 0]), r(1, 2)).unwrap();
    let query = FoQuery::parse("exists x y. E(x,y) & E(y,x)").unwrap();
    let exact = exact_probability(&ud, &query).unwrap().to_f64();
    assert!((exact - 0.25).abs() < 1e-12);

    let (eps, delta) = (0.2, 0.2);
    let est = PaddingEstimator::default_xi();
    let trials = 40u64;
    let failures = (0..trials)
        .filter(|&i| {
            let rep = est
                .estimate_probability_sharded(
                    &ud,
                    &query,
                    eps,
                    delta,
                    split_seed(0x5747_0003, i),
                    4,
                )
                .unwrap();
            (rep.estimate - exact).abs() > eps
        })
        .count() as u64;
    let allowed = binomial_threshold(trials, delta);
    assert!(
        failures <= allowed,
        "padding estimator missed its absolute-ε bound in {failures}/{trials} trials \
         (δ = {delta} allows at most {allowed})"
    );
}
