//! Sample-size bounds for the randomized estimators.
//!
//! * [`karp_luby_t`] — the paper's Lemma 5.11 bound
//!   `t(ξ, ε, δ) = ⌈9/(2ξε²) · ln(1/δ)⌉` used by the Theorem 5.12
//!   estimator (the `ξ` is the padding parameter that keeps the
//!   expectation in `[ξ², ξ]`);
//! * [`hoeffding_samples`] — additive two-sided Hoeffding bound for
//!   `[0,1]`-valued means, `t = ⌈ln(2/δ)/(2ε²)⌉`;
//! * [`zero_one_estimator_samples`] — the zero-one estimator theorem
//!   bound `t = ⌈4m · ln(2/δ)/ε²⌉` for the Karp–Luby coverage estimator
//!   whose indicator has mean `≥ 1/m`;
//! * [`stopping_rule_hits`] — the Dagum–Karp–Luby–Ross stopping-rule
//!   threshold `Υ₁ = 1 + (1+ε)·4(e−2)·ln(4/δ)/ε²`: draw until the hit
//!   count reaches `⌈Υ₁⌉` (at `δ/2`, so that capping the run at the
//!   zero-one count taken at `δ/2` keeps the overall failure `≤ δ`).

/// Lemma 5.11 / Theorem 5.12: samples for relative error `ε` at mean
/// `p ≥ ξ²` after the padding construction.
///
/// # Panics
/// Panics unless `0 < ξ < 1/2`, `ε > 0`, `0 < δ < 1`.
pub fn karp_luby_t(xi: f64, eps: f64, delta: f64) -> u64 {
    assert!(xi > 0.0 && xi < 0.5, "ξ must be in (0, 1/2)");
    assert!(eps > 0.0, "ε must be positive");
    assert!(delta > 0.0 && delta < 1.0, "δ must be in (0, 1)");
    let t = 9.0 / (2.0 * xi * eps * eps) * (1.0 / delta).ln();
    t.ceil() as u64
}

/// Two-sided Hoeffding: `Pr[|X̄ − p| > ε] < δ` for i.i.d. `[0,1]` samples.
pub fn hoeffding_samples(eps: f64, delta: f64) -> u64 {
    assert!(eps > 0.0, "ε must be positive");
    assert!(delta > 0.0 && delta < 1.0, "δ must be in (0, 1)");
    ((2.0 / delta).ln() / (2.0 * eps * eps)).ceil() as u64
}

/// Zero-one estimator theorem (Karp–Luby): samples for relative error `ε`
/// with confidence `1 − δ` when the indicator mean is at least `1/m`.
pub fn zero_one_estimator_samples(m: f64, eps: f64, delta: f64) -> u64 {
    assert!(m >= 1.0, "m must be at least 1");
    assert!(eps > 0.0, "ε must be positive");
    assert!(delta > 0.0 && delta < 1.0, "δ must be in (0, 1)");
    (4.0 * m * (2.0 / delta).ln() / (eps * eps)).ceil() as u64
}

/// Stopping-rule threshold (Dagum, Karp, Luby, Ross, *An Optimal
/// Algorithm for Monte Carlo Estimation*, SIAM J. Comput. 2000):
/// `Υ₁ = 1 + (1+ε)·4(e−2)·ln(4/δ)/ε²`. Drawing `[0,1]` indicators until
/// their sum reaches `Υ₁` at draw `N` and reporting `Υ₁/N` is within
/// relative error `ε` of the mean with probability `≥ 1 − δ/2` for
/// `0 < ε < 1` — without knowing the mean in advance. The `4/δ` (rather
/// than the rule's own `2/δ`) spends half of `δ` here, leaving the other
/// half for the fixed-count cap the Karp–Luby sampler falls back on.
pub fn stopping_rule_hits(eps: f64, delta: f64) -> f64 {
    assert!(eps > 0.0, "ε must be positive");
    assert!(delta > 0.0 && delta < 1.0, "δ must be in (0, 1)");
    let upsilon = 4.0 * (std::f64::consts::E - 2.0) * (4.0 / delta).ln() / (eps * eps);
    1.0 + (1.0 + eps) * upsilon
}

/// The Lemma 5.11 tail bound itself: for i.i.d. `[0,1]` variables with
/// mean `p < 1/2`, `Pr[|X̄ − p| > εp] < 2·exp(−2ε²tp / (9(1−p)))`.
/// Returns the right-hand side (useful for plotting the envelope in the
/// experiments).
pub fn karp_luby_tail(p: f64, eps: f64, t: u64) -> f64 {
    assert!((0.0..0.5).contains(&p), "p must be in [0, 1/2)");
    2.0 * (-2.0 * eps * eps * t as f64 * p / (9.0 * (1.0 - p))).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn karp_luby_t_matches_formula() {
        // ξ = 1/4, ε = 0.1, δ = 0.05: 9/(2·0.25·0.01)·ln(20) = 1800·ln 20.
        let t = karp_luby_t(0.25, 0.1, 0.05);
        let expected = (1800.0 * 20f64.ln()).ceil() as u64;
        assert_eq!(t, expected);
    }

    #[test]
    fn stopping_rule_hits_matches_formula() {
        // ε = δ = 0.1: 1 + 1.1·4(e−2)·ln(40)/0.01 ≈ 1166.87, so the rule
        // stops at the 1167th hit.
        let y = stopping_rule_hits(0.1, 0.1);
        let expected = 1.0 + 1.1 * 4.0 * (std::f64::consts::E - 2.0) * 40f64.ln() / 0.01;
        assert!((y - expected).abs() < 1e-9, "{y} vs {expected}");
        assert_eq!(y.ceil() as u64, 1167);
        // Stricter ε or δ need more hits.
        assert!(stopping_rule_hits(0.05, 0.1) > y);
        assert!(stopping_rule_hits(0.1, 0.01) > y);
        // Quadratic in 1/ε (up to the (1+ε) factor), logarithmic in 1/δ.
        let ratio = (stopping_rule_hits(0.05, 0.1) - 1.0) / (y - 1.0);
        assert!((ratio - 4.0 * 1.05 / 1.1).abs() < 1e-9);
    }

    #[test]
    fn monotonicity() {
        // Stricter ε, δ, or smaller ξ all require more samples.
        assert!(karp_luby_t(0.25, 0.05, 0.05) > karp_luby_t(0.25, 0.1, 0.05));
        assert!(karp_luby_t(0.25, 0.1, 0.01) > karp_luby_t(0.25, 0.1, 0.05));
        assert!(karp_luby_t(0.125, 0.1, 0.05) > karp_luby_t(0.25, 0.1, 0.05));
        assert!(hoeffding_samples(0.01, 0.05) > hoeffding_samples(0.02, 0.05));
        assert!(
            zero_one_estimator_samples(8.0, 0.1, 0.1) > zero_one_estimator_samples(2.0, 0.1, 0.1)
        );
    }

    #[test]
    fn polynomial_in_inverse_eps_delta() {
        // t is polynomial in 1/ε (quadratic) and logarithmic in 1/δ.
        let t1 = karp_luby_t(0.25, 0.1, 0.1);
        let t2 = karp_luby_t(0.25, 0.05, 0.1);
        assert!((t2 as f64 / t1 as f64 - 4.0).abs() < 0.01);
        let d1 = karp_luby_t(0.25, 0.1, 0.1);
        let d2 = karp_luby_t(0.25, 0.1, 0.01);
        assert!((d2 as f64 / d1 as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn tail_bound_decreases_with_t() {
        let a = karp_luby_tail(0.1, 0.5, 100);
        let b = karp_luby_tail(0.1, 0.5, 1000);
        assert!(b < a);
        // With t from the lemma, the tail is below δ: plug t(ξ,ε,δ) with
        // p = ξ² (worst case allowed by the construction)… the lemma is
        // stated with εp relative accuracy; here just sanity-check decay.
        assert!(karp_luby_tail(0.25, 0.5, 10_000) < 1e-50);
    }

    #[test]
    #[should_panic(expected = "ξ must be in")]
    fn xi_range_enforced() {
        karp_luby_t(0.6, 0.1, 0.1);
    }

    #[test]
    #[should_panic(expected = "δ must be in")]
    fn delta_range_enforced() {
        hoeffding_samples(0.1, 1.5);
    }
}
