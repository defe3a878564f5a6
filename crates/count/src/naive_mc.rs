//! Naive Monte-Carlo estimation of formula probabilities — the baseline
//! Karp–Luby dominates.
//!
//! Sampling assignments from the product distribution and averaging the
//! indicator gives an *additive* (ε, δ) guarantee with Hoeffding's
//! `t = ⌈ln(2/δ)/(2ε²)⌉` samples, but its *relative* accuracy collapses
//! when `Pr[φ]` is small: detecting `p ≈ 0` at relative error ε needs on
//! the order of `1/p` samples. Experiment E10 measures this crossover.

use qrel_arith::BigRational;
use qrel_logic::prop::{Dnf, PackedDnf};
use qrel_par::{run_shards, shard_counts, split_seed, DEFAULT_SHARDS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Estimate `Pr[φ]` by naive sampling with an explicit sample count.
///
/// # Panics
/// Panics if `samples == 0`: the mean of zero samples is undefined, and
/// silently reporting `0.0` would be indistinguishable from a genuine
/// all-miss run.
pub fn naive_mc_probability_with_samples<R: Rng>(
    dnf: &Dnf,
    probs: &[BigRational],
    samples: u64,
    rng: &mut R,
) -> f64 {
    assert!(
        dnf.var_bound() <= probs.len(),
        "probability vector does not cover all variables"
    );
    assert!(samples > 0, "naive MC needs at least one sample");
    let pf: Vec<f64> = probs.iter().map(|p| p.to_f64()).collect();
    // Packed assignments: the term scan is lane-masked (64 vars per
    // word); the per-variable RNG draw order is unchanged, so estimates
    // are bit-identical to the historical Vec<bool> path.
    let packed = PackedDnf::new(dnf, pf.len());
    let mut hits = 0u64;
    let mut assignment = vec![0u64; packed.num_words()];
    for _ in 0..samples {
        for (v, p) in pf.iter().enumerate() {
            PackedDnf::set_bit(&mut assignment, v, rng.gen::<f64>() < *p);
        }
        if packed.eval_words(&assignment) {
            hits += 1;
        }
    }
    hits as f64 / samples as f64
}

/// Sharded deterministic naive MC: the sample count is cut into
/// [`DEFAULT_SHARDS`] fixed pieces, each drawn on an independent
/// seed-split `StdRng`, and integer hit counts are merged exactly — the
/// result depends on `(samples, seed)` but never on `threads`.
///
/// # Panics
/// Panics if `samples == 0`.
pub fn naive_mc_probability_sharded(
    dnf: &Dnf,
    probs: &[BigRational],
    samples: u64,
    seed: u64,
    threads: usize,
) -> f64 {
    assert!(
        dnf.var_bound() <= probs.len(),
        "probability vector does not cover all variables"
    );
    assert!(samples > 0, "naive MC needs at least one sample");
    let pf: Vec<f64> = probs.iter().map(|p| p.to_f64()).collect();
    let packed = PackedDnf::new(dnf, pf.len());
    let counts = shard_counts(samples, DEFAULT_SHARDS);
    let shard_hits = run_shards(DEFAULT_SHARDS, threads, |s| {
        let mut rng = StdRng::seed_from_u64(split_seed(seed, s as u64));
        let mut assignment = vec![0u64; packed.num_words()];
        let mut hits = 0u64;
        for _ in 0..counts[s] {
            for (v, p) in pf.iter().enumerate() {
                PackedDnf::set_bit(&mut assignment, v, rng.gen::<f64>() < *p);
            }
            if packed.eval_words(&assignment) {
                hits += 1;
            }
        }
        hits
    });
    shard_hits.iter().sum::<u64>() as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::hoeffding_samples;
    use crate::exact_dnf::dnf_probability_shannon;
    use qrel_logic::prop::Lit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    #[test]
    fn additive_accuracy_on_moderate_probability() {
        let d = Dnf::from_terms([vec![Lit::pos(0)], vec![Lit::pos(1), Lit::neg(2)]]);
        let probs = vec![r(1, 3), r(1, 2), r(1, 4)];
        let exact = dnf_probability_shannon(&d, &probs).to_f64();
        let mut rng = StdRng::seed_from_u64(21);
        let samples = hoeffding_samples(0.02, 0.01);
        let est = naive_mc_probability_with_samples(&d, &probs, samples, &mut rng);
        assert!((est - exact).abs() < 0.02, "est {est} vs exact {exact}");
    }

    #[test]
    fn misses_tiny_probability_with_few_samples() {
        // Pr[φ] = (1/4)^10 ≈ 1e-6: a few thousand naive samples will
        // essentially always report exactly 0 — the failure mode that
        // motivates Karp–Luby.
        let d = Dnf::from_terms([(0..10).map(Lit::pos).collect::<Vec<_>>()]);
        let probs = vec![r(1, 4); 10];
        let mut rng = StdRng::seed_from_u64(22);
        let est = naive_mc_probability_with_samples(&d, &probs, 2000, &mut rng);
        assert_eq!(est, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_is_an_error_not_a_fake_zero() {
        // Regression: this used to return 0.0 via `samples.max(1)`,
        // indistinguishable from a genuine all-miss estimate.
        let d = Dnf::from_terms([vec![Lit::pos(0)]]);
        let probs = vec![r(1, 2)];
        let mut rng = StdRng::seed_from_u64(24);
        naive_mc_probability_with_samples(&d, &probs, 0, &mut rng);
    }

    #[test]
    fn sharded_is_thread_count_invariant_and_accurate() {
        let d = Dnf::from_terms([vec![Lit::pos(0)], vec![Lit::pos(1), Lit::neg(2)]]);
        let probs = vec![r(1, 3), r(1, 2), r(1, 4)];
        let exact = dnf_probability_shannon(&d, &probs).to_f64();
        let serial = naive_mc_probability_sharded(&d, &probs, 40_000, 26, 1);
        for threads in [2usize, 4, 8] {
            let par = naive_mc_probability_sharded(&d, &probs, 40_000, 26, threads);
            assert_eq!(par.to_bits(), serial.to_bits());
        }
        assert!((serial - exact).abs() < 0.02, "est {serial} vs {exact}");
    }

    #[test]
    fn zero_and_one_formulas() {
        let probs = vec![r(1, 2); 2];
        let mut rng = StdRng::seed_from_u64(23);
        assert_eq!(
            naive_mc_probability_with_samples(&Dnf::new(), &probs, 100, &mut rng),
            0.0
        );
        let mut top = Dnf::new();
        top.push_term_checked(vec![]);
        assert_eq!(
            naive_mc_probability_with_samples(&top, &probs, 100, &mut rng),
            1.0
        );
    }
}
