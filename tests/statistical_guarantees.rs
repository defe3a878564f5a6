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

#[test]
fn karp_luby_sharded_meets_its_relative_epsilon_delta_contract() {
    let (d, probs) = test_dnf();
    let exact = dnf_probability_shannon(&d, &probs).to_f64();
    let kl = KarpLuby::new(&d, &probs);
    let (eps, delta) = (0.1, 0.2);
    let samples = kl.samples_for(eps, delta);
    let trials = 80u64;
    let failures = (0..trials)
        .filter(|&i| {
            let seed = split_seed(0x5747_0001, i);
            let (rep, _) = kl.run_budgeted(samples, &Budget::unlimited(), seed, 4);
            (rep.estimate - exact).abs() / exact > eps
        })
        .count() as u64;
    let allowed = binomial_threshold(trials, delta);
    assert!(
        failures <= allowed,
        "Karp–Luby missed its relative-ε bound in {failures}/{trials} trials \
         (δ = {delta} allows at most {allowed})"
    );
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
