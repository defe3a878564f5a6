//! The reduction from Prob-kDNF to #DNF (Theorem 5.3).
//!
//! Given a kDNF `φ` and a rational probability `ν(X) = p/q` per variable,
//! the reduction introduces, for each variable `X`, fresh bits
//! `Ȳ = Y_{ℓ-1}…Y₀` with `ℓ = len(q)`, and substitutes
//!
//! * `X   ↦ "val(Ȳ) < p"`
//! * `¬X  ↦ "val(Ȳ) ≥ p"`
//!
//! (both O(ℓ²)-size DNFs, see `qrel_logic::threshold`), re-normalizing to
//! DNF — blowup exponential in `k` but polynomial in `|φ|` and the bit
//! length of the probabilities. An assignment to `Ȳ` is *legal* when
//! `val(Ȳ) < q`; the final formula
//!
//! ```text
//! φ'' = φ' ∨ ⋁_X "val(Ȳ_X) ≥ q_X"
//! ```
//!
//! is satisfied by all illegal assignments plus exactly the legal
//! assignments satisfying `φ'`, so with `Q = ∏ q_X` (the number of legal
//! assignments) and `L = Σ ℓ_X` bits in total:
//!
//! ```text
//! ν(φ) = (#φ'' − (2^L − Q)) / Q .
//! ```
//!
//! In the dyadic case (`q = 2^ℓ`) there are no illegal assignments and
//! `φ'' = φ'`. Applying the Karp–Luby #DNF FPTRAS to `φ''` yields the
//! FPTRAS for Prob-kDNF claimed by the theorem.
//!
//! # Two estimation paths
//!
//! The *counting* identity above is exact, but it is **not**
//! approximation-preserving in the non-dyadic case: a relative-error
//! estimate of `#φ''` (whose bulk is the `2^L − Q` illegal assignments)
//! is divided by `Q` after subtracting that known bulk, amplifying the
//! error by `2^L / Q`. [`ProbDnfReduction::estimate_full_space`] keeps
//! this literal path for demonstration; the default
//! [`ProbDnfReduction::estimate`] instead runs the coverage sampler
//! *restricted to legal assignments* (the private `LegalCoverage`
//! sampler): uniform-over-
//! legal is a product measure (each `X` uniform on `[0, q_X)`), under
//! which `Pr[φ'] = ν(φ)` exactly, so the zero-one estimator theorem
//! applies with no amplification. In the dyadic case the two paths
//! coincide.

use qrel_arith::{BigRational, BigUint};
use qrel_count::bounds::zero_one_estimator_samples;
use qrel_count::exact_dnf::dnf_count_models;
use qrel_count::KarpLuby;
use qrel_logic::prop::{Dnf, Lit, VarId};
use qrel_logic::threshold::{bit_len, BitCounter};
use rand::Rng;
use std::fmt;

/// Errors from building the reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReductionError {
    /// A probability whose numerator/denominator exceeds `u64` (the
    /// threshold encodings index bits by machine integers).
    ProbabilityTooWide { var: VarId },
    /// Probability vector does not cover all formula variables.
    MissingProbability { var: VarId },
}

impl fmt::Display for ReductionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReductionError::ProbabilityTooWide { var } => {
                write!(f, "probability of variable x{var} does not fit in u64/u64")
            }
            ReductionError::MissingProbability { var } => {
                write!(f, "no probability given for variable x{var}")
            }
        }
    }
}

impl From<ReductionError> for qrel_budget::QrelError {
    fn from(e: ReductionError) -> Self {
        qrel_budget::QrelError::Unsupported(e.to_string())
    }
}

impl std::error::Error for ReductionError {}

/// `val(Ȳ) < b`, handling the saturated bound `b ≥ 2^ℓ` (tautology).
fn less_dnf(counter: &BitCounter, b: u64) -> Dnf {
    if counter.len() < 64 && b >= (1u64 << counter.len()) {
        Dnf::from_terms([Vec::<Lit>::new()])
    } else {
        counter.less_than(b)
    }
}

/// `val(Ȳ) ≥ b`, handling the saturated bound `b ≥ 2^ℓ` (unsatisfiable).
fn geq_dnf(counter: &BitCounter, b: u64) -> Dnf {
    if counter.len() < 64 && b >= (1u64 << counter.len()) {
        Dnf::new()
    } else {
        counter.at_least(b)
    }
}

/// `#{v ∈ [0, bound) : v & mask == val}` over an `ell`-bit value space.
///
/// Standard digit DP from the MSB: each position where `bound` has a `1`
/// contributes the assignments that agree with `bound` above it, drop to
/// `0` there, and fill the unmasked positions below freely.
fn count_matching_below(mask: u64, val: u64, bound: u64, ell: usize) -> u64 {
    if ell < 64 && bound >= (1u64 << ell) {
        // The bound saturates the value space (dyadic q = 2^ℓ): every
        // pattern-matching value qualifies.
        return 1u64 << (ell as u32 - mask.count_ones());
    }
    let mut count = 0u64;
    for i in (0..ell).rev() {
        if (bound >> i) & 1 == 1 && ((mask >> i) & 1 == 0 || (val >> i) & 1 == 0) {
            let free = i as u32 - (mask & ((1u64 << i) - 1)).count_ones();
            count += 1u64 << free;
        }
        // Stay on the tight path (v agrees with bound at position i).
        if (mask >> i) & 1 == 1 && (val >> i) & 1 != (bound >> i) & 1 {
            return count;
        }
    }
    count // v == bound itself is excluded (strict <)
}

/// The rank-`r` (0-based, ascending) element of
/// `{v ∈ [0, bound) : v & mask == val}`.
///
/// # Panics
/// Panics if `r ≥ count_matching_below(mask, val, bound, ell)`.
fn select_matching(mask: u64, val: u64, bound: u64, ell: usize, mut r: u64) -> u64 {
    let mut acc = 0u64;
    'bits: for i in (0..ell).rev() {
        for b in 0..=1u64 {
            if (mask >> i) & 1 == 1 && (val >> i) & 1 != b {
                continue;
            }
            let pref = acc | (b << i);
            let bound_pref = (bound >> i) << i;
            let completions = if pref > bound_pref {
                0
            } else if pref < bound_pref {
                let free = i as u32 - (mask & ((1u64 << i) - 1)).count_ones();
                1u64 << free
            } else {
                let low = (1u64 << i) - 1;
                count_matching_below(mask & low, val & low, bound & low, i)
            };
            if r < completions {
                acc = pref;
                continue 'bits;
            }
            r -= completions;
        }
        panic!("rank exceeds the number of matching values");
    }
    debug_assert_eq!(r, 0);
    acc
}

/// One `φ'` term's footprint on one original variable: the forced bit
/// pattern over its counter, and how many legal values match it.
#[derive(Debug, Clone)]
struct TermPattern {
    var: usize,
    mask: u64,
    val: u64,
    /// `#{v < q_var : v & mask == val}` — positive (zero-weight terms are
    /// dropped at construction).
    matching: u64,
}

/// Karp–Luby coverage sampler over `φ'` under the uniform-over-legal
/// product measure (each variable uniform on `[0, q_X)`), under which
/// `Pr[φ'] = ν(φ)` exactly. This is the approximation-preserving route
/// through the Theorem 5.3 encoding: no `2^L / Q` error amplification.
#[derive(Debug, Clone)]
struct LegalCoverage {
    /// Per `φ'` term, its per-variable patterns (zero-weight terms dropped).
    terms: Vec<Vec<TermPattern>>,
    /// `q_X` per original variable.
    qs: Vec<u64>,
    /// Counter width `ℓ_X` per original variable.
    ells: Vec<usize>,
    /// Exact total term weight `U = Σ_t ∏_X matching / q` (≥ `ν(φ)`).
    total_weight: BigRational,
    /// Cumulative f64 weights for term sampling.
    cumulative: Vec<f64>,
}

impl LegalCoverage {
    /// Samples sufficient for relative error `ε` at failure rate `δ`
    /// (zero-one estimator theorem with `E[Y] ≥ 1/m`).
    fn samples_for(&self, eps: f64, delta: f64) -> u64 {
        zero_one_estimator_samples(self.terms.len().max(1) as f64, eps, delta)
    }

    fn run<R: Rng>(&self, samples: u64, rng: &mut R) -> f64 {
        if self.terms.is_empty() {
            return 0.0;
        }
        if self.terms.iter().any(|t| t.is_empty()) {
            return 1.0; // a tautological term: ν(φ) = 1 exactly
        }
        assert!(samples > 0, "legal-coverage sampler needs ≥ 1 sample");
        let u = *self.cumulative.last().unwrap();
        let mut values = vec![0u64; self.qs.len()];
        let mut hits = 0u64;
        for _ in 0..samples {
            if self.sample_once(u, &mut values, rng) {
                hits += 1;
            }
        }
        let hit_rate = hits as f64 / samples as f64;
        (self.total_weight.to_f64() * hit_rate).clamp(0.0, 1.0)
    }

    /// One coverage draw; returns the indicator `Y` (chosen term is the
    /// first satisfied one).
    fn sample_once<R: Rng>(&self, u: f64, values: &mut [u64], rng: &mut R) -> bool {
        // Term ∝ weight, with the same degenerate-cumulative fallback as
        // the plain Karp–Luby sampler.
        let ti = if u.is_finite() && u > 0.0 {
            let x = rng.gen::<f64>() * u;
            match self.cumulative.binary_search_by(|c| c.total_cmp(&x)) {
                Ok(i) => (i + 1).min(self.terms.len() - 1),
                Err(i) => i.min(self.terms.len() - 1),
            }
        } else {
            rng.gen_range(0..self.terms.len())
        };
        // Unconditioned variables: uniform legal value.
        for (v, slot) in values.iter_mut().enumerate() {
            *slot = rng.gen_range(0..self.qs[v]);
        }
        // Conditioned variables: uniform among legal values matching the
        // term's pattern, by rank selection.
        for pat in &self.terms[ti] {
            let r = rng.gen_range(0..pat.matching);
            values[pat.var] =
                select_matching(pat.mask, pat.val, self.qs[pat.var], self.ells[pat.var], r);
        }
        let first = self
            .terms
            .iter()
            .position(|t| t.iter().all(|p| values[p.var] & p.mask == p.val))
            .expect("sampled values satisfy term ti");
        first == ti
    }
}

/// The constructed reduction for one `(φ, ν)` instance.
#[derive(Debug, Clone)]
pub struct ProbDnfReduction {
    /// `φ''` — the #DNF instance over the counter bits.
    pub phi2: Dnf,
    /// Total counter bits `L` (the variable count of `φ''`).
    pub total_bits: usize,
    /// `Q = ∏ q_X` — the number of legal assignments.
    pub legal_total: BigUint,
    /// Per original variable: `(p, q)` of its probability.
    bounds: Vec<(u64, u64)>,
    /// The legal-restricted coverage sampler over `φ'`.
    coverage: LegalCoverage,
}

impl ProbDnfReduction {
    /// Build the reduction.
    ///
    /// `probs[v] = Pr[x_v = 1]`, one per variable `0..probs.len()`; all
    /// variables of `dnf` must be covered.
    pub fn new(dnf: &Dnf, probs: &[BigRational]) -> Result<Self, ReductionError> {
        if dnf.var_bound() > probs.len() {
            return Err(ReductionError::MissingProbability {
                var: probs.len() as VarId,
            });
        }
        // Allocate counters: variable v gets bits [offset[v], offset[v]+ℓ).
        let mut bounds = Vec::with_capacity(probs.len());
        let mut counters = Vec::with_capacity(probs.len());
        let mut next_bit: VarId = 0;
        for (v, p) in probs.iter().enumerate() {
            assert!(p.is_probability(), "probability of x{v} out of range");
            let num = p
                .numer()
                .magnitude()
                .to_u64()
                .ok_or(ReductionError::ProbabilityTooWide { var: v as VarId })?;
            let den = p
                .denom()
                .to_u64()
                .ok_or(ReductionError::ProbabilityTooWide { var: v as VarId })?;
            // ℓ bits so that q ≤ 2^ℓ with equality exactly in the dyadic
            // case (so dyadic denominators produce no illegal assignments,
            // as in the paper's "we are done" branch).
            let ell = if den <= 1 { 1 } else { bit_len(den - 1) };
            let bits: Vec<VarId> = (next_bit..next_bit + ell as VarId).collect();
            next_bit += ell as VarId;
            counters.push(BitCounter::new(bits));
            bounds.push((num, den));
        }

        // Map each global bit back to (variable, value-bit index) for the
        // legal-coverage patterns. `counter.vars()` lists bits MSB first.
        let mut bit_owner = vec![(0usize, 0usize); next_bit as usize];
        for (v, counter) in counters.iter().enumerate() {
            let ell = counter.len();
            for (j, &g) in counter.vars().iter().enumerate() {
                bit_owner[g as usize] = (v, ell - 1 - j);
            }
        }

        // φ': substitute each literal by its threshold DNF; per-term
        // distribution (disjoint counters ⇒ merges always consistent).
        // Alongside φ'' we assemble the legal-restricted coverage sampler
        // from the same terms.
        let mut phi2 = Dnf::new();
        let mut cov_terms: Vec<Vec<TermPattern>> = Vec::new();
        let mut cov_weights: Vec<BigRational> = Vec::new();
        let ells: Vec<usize> = counters.iter().map(|c| c.len()).collect();
        for term in dnf.terms() {
            let mut acc: Vec<Vec<Lit>> = vec![vec![]];
            for lit in term {
                let counter = &counters[lit.var as usize];
                let (p, _q) = bounds[lit.var as usize];
                let replacement = if lit.positive {
                    less_dnf(counter, p)
                } else {
                    geq_dnf(counter, p)
                };
                let mut next = Vec::with_capacity(acc.len() * replacement.num_terms());
                for a in &acc {
                    for t in replacement.terms() {
                        let mut merged = a.clone();
                        merged.extend_from_slice(t);
                        next.push(merged);
                    }
                }
                acc = next;
                if acc.is_empty() {
                    break; // a literal with an unsatisfiable threshold (p = 0)
                }
            }
            for t in acc {
                // Fold the bit literals into per-variable patterns.
                let mut patterns: Vec<TermPattern> = Vec::new();
                for l in &t {
                    let (v, bit) = bit_owner[l.var as usize];
                    let pat = match patterns.iter_mut().find(|p| p.var == v) {
                        Some(p) => p,
                        None => {
                            patterns.push(TermPattern {
                                var: v,
                                mask: 0,
                                val: 0,
                                matching: 0,
                            });
                            patterns.last_mut().unwrap()
                        }
                    };
                    pat.mask |= 1u64 << bit;
                    if l.positive {
                        pat.val |= 1u64 << bit;
                    }
                }
                let mut num = BigUint::one();
                let mut den = BigUint::one();
                let mut dead = false;
                for pat in &mut patterns {
                    let q = bounds[pat.var].1;
                    pat.matching = count_matching_below(pat.mask, pat.val, q, ells[pat.var]);
                    if pat.matching == 0 {
                        dead = true; // only illegal values match: weight 0
                        break;
                    }
                    num = num.mul_ref(&BigUint::from_u64(pat.matching));
                    den = den.mul_ref(&BigUint::from_u64(q));
                }
                if !dead {
                    cov_weights.push(BigRational::new(
                        qrel_arith::BigInt::from_biguint(num),
                        qrel_arith::BigInt::from_biguint(den),
                    ));
                    cov_terms.push(patterns);
                }
                phi2.push_term_checked(t);
            }
        }
        let mut cov_total = BigRational::zero();
        let mut cov_cumulative = Vec::with_capacity(cov_weights.len());
        let mut cov_acc = 0f64;
        for w in &cov_weights {
            cov_total = cov_total.add_ref(w);
            cov_acc += w.to_f64();
            cov_cumulative.push(cov_acc);
        }
        let coverage = LegalCoverage {
            terms: cov_terms,
            qs: bounds.iter().map(|&(_, q)| q).collect(),
            ells,
            total_weight: cov_total,
            cumulative: cov_cumulative,
        };

        // φ'' = φ' ∨ ⋁_X "val(Ȳ_X) ≥ q_X" (the illegal assignments).
        let mut legal_total = BigUint::one();
        for (v, counter) in counters.iter().enumerate() {
            let (_p, q) = bounds[v];
            legal_total = legal_total.mul_ref(&BigUint::from_u64(q));
            let illegal = geq_dnf(counter, q);
            phi2.or_with(&illegal);
        }

        Ok(ProbDnfReduction {
            phi2,
            total_bits: next_bit as usize,
            legal_total,
            bounds,
            coverage,
        })
    }

    /// True iff every probability is dyadic (no illegal assignments).
    pub fn all_dyadic(&self) -> bool {
        self.bounds.iter().all(|&(_, q)| q.is_power_of_two())
    }

    /// The number of illegal assignments `2^L − Q`.
    pub fn illegal_count(&self) -> BigUint {
        let two_l = BigUint::one().shl_bits(self.total_bits as u64);
        two_l.checked_sub(&self.legal_total).expect("Q ≤ 2^L")
    }

    /// Recover `ν(φ)` exactly from a #φ'' model count.
    pub fn probability_from_count(&self, models: &BigUint) -> BigRational {
        let legal_sat = models
            .checked_sub(&self.illegal_count())
            .expect("model count below illegal floor");
        BigRational::new(
            qrel_arith::BigInt::from_biguint(legal_sat),
            qrel_arith::BigInt::from_biguint(self.legal_total.clone()),
        )
    }

    /// Exact `ν(φ)` by exact #DNF on `φ''` (oracle path; exponential).
    pub fn exact_probability(&self) -> BigRational {
        let models = dnf_count_models(&self.phi2, self.total_bits);
        self.probability_from_count(&models)
    }

    /// Estimate `ν(φ)` with a relative `(ε, δ)` guarantee: Karp–Luby
    /// coverage sampling over `φ'` restricted to legal assignments (the
    /// approximation-preserving reading of Theorem 5.3 — see the module
    /// docs). Dyadic instances coincide with the plain #DNF FPTRAS.
    pub fn estimate<R: Rng>(&self, eps: f64, delta: f64, rng: &mut R) -> f64 {
        let samples = self.coverage.samples_for(eps, delta);
        self.coverage.run(samples, rng)
    }

    /// The literal Theorem 5.3 pipeline: Karp–Luby #DNF FPTRAS on the
    /// *full* `φ''`, then recover `ν(φ) = (#̂φ'' − (2^L − Q)) / Q`.
    ///
    /// **Not approximation-preserving in the non-dyadic case**: the
    /// relative error on `#φ''` is amplified by `2^L / Q` after the
    /// illegal mass is subtracted, so for small `Q / 2^L` the result is
    /// effectively noise clamped to `[0, 1]`. Kept as the negative
    /// control for the statistical-guarantee harness; use
    /// [`ProbDnfReduction::estimate`] for a sound estimate.
    pub fn estimate_full_space<R: Rng>(&self, eps: f64, delta: f64, rng: &mut R) -> f64 {
        let kl = KarpLuby::for_counting(&self.phi2, self.total_bits);
        let report = kl.run(eps, delta, rng);
        let models_est = report.estimate * (self.total_bits as f64).exp2();
        let illegal = self.illegal_count().to_f64();
        let legal = self.legal_total.to_f64();
        ((models_est - illegal) / legal).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrel_count::dnf_probability_shannon;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    #[test]
    fn dyadic_case_single_variable() {
        // φ = x0, ν(x0) = 3/8: φ'' = "val < 3" over 3 bits, no illegal.
        let d = Dnf::from_terms([vec![Lit::pos(0)]]);
        let red = ProbDnfReduction::new(&d, &[r(3, 8)]).unwrap();
        assert!(red.all_dyadic());
        assert_eq!(red.total_bits, 3);
        assert_eq!(red.illegal_count(), BigUint::zero());
        assert_eq!(red.exact_probability(), r(3, 8));
    }

    #[test]
    fn non_dyadic_case_single_variable() {
        // ν(x0) = 2/3: ℓ = len(3) = 2 bits, Q = 3, illegal = 1.
        let d = Dnf::from_terms([vec![Lit::pos(0)]]);
        let red = ProbDnfReduction::new(&d, &[r(2, 3)]).unwrap();
        assert!(!red.all_dyadic());
        assert_eq!(red.total_bits, 2);
        assert_eq!(red.legal_total, BigUint::from_u32(3));
        assert_eq!(red.illegal_count(), BigUint::one());
        assert_eq!(red.exact_probability(), r(2, 3));
    }

    #[test]
    fn negative_literal() {
        // φ = ¬x0 with ν(x0) = 2/5: ν(φ) = 3/5.
        let d = Dnf::from_terms([vec![Lit::neg(0)]]);
        let red = ProbDnfReduction::new(&d, &[r(2, 5)]).unwrap();
        assert_eq!(red.exact_probability(), r(3, 5));
    }

    #[test]
    fn matches_exact_prob_dnf_on_mixed_formulas() {
        // Cross-validate the whole reduction against the independent
        // Shannon-expansion oracle on the *original* formula.
        let cases: Vec<(Dnf, Vec<BigRational>)> = vec![
            (
                Dnf::from_terms([vec![Lit::pos(0), Lit::neg(1)], vec![Lit::pos(1)]]),
                vec![r(1, 3), r(2, 7)],
            ),
            (
                Dnf::from_terms([
                    vec![Lit::pos(0), Lit::pos(1)],
                    vec![Lit::neg(0), Lit::pos(2)],
                ]),
                vec![r(5, 12), r(1, 2), r(3, 5)],
            ),
            (
                Dnf::from_terms([vec![Lit::pos(0)], vec![Lit::pos(1)], vec![Lit::pos(2)]]),
                vec![r(1, 6), r(1, 6), r(1, 6)],
            ),
        ];
        for (i, (d, probs)) in cases.iter().enumerate() {
            let red = ProbDnfReduction::new(d, probs).unwrap();
            let direct = dnf_probability_shannon(d, probs);
            assert_eq!(red.exact_probability(), direct, "case {i}");
        }
    }

    #[test]
    fn extreme_probabilities() {
        let d = Dnf::from_terms([vec![Lit::pos(0), Lit::pos(1)]]);
        // ν(x0) = 0 kills the positive literal: probability 0.
        let red = ProbDnfReduction::new(&d, &[r(0, 1), r(1, 2)]).unwrap();
        assert_eq!(red.exact_probability(), BigRational::zero());
        // ν(x0) = 1: "val < 1" over len(1)=1 bit is val=0 — prob 1·(1/2)…
        let red1 = ProbDnfReduction::new(&d, &[r(1, 1), r(1, 2)]).unwrap();
        assert_eq!(red1.exact_probability(), r(1, 2));
    }

    #[test]
    fn estimate_close_to_exact() {
        let d = Dnf::from_terms([
            vec![Lit::pos(0), Lit::neg(1)],
            vec![Lit::pos(1), Lit::pos(2)],
        ]);
        let probs = vec![r(1, 3), r(2, 5), r(1, 2)];
        let red = ProbDnfReduction::new(&d, &probs).unwrap();
        let exact = red.exact_probability().to_f64();
        let mut rng = StdRng::seed_from_u64(42);
        let est = red.estimate(0.02, 0.02, &mut rng);
        assert!(
            (est - exact).abs() < 0.05,
            "estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn estimate_accurate_on_amplified_non_dyadic_instance() {
        // Regression: many certain (q = 1) variables inflate 2^L while the
        // legal count Q stays tiny (Q/2^L ≈ 1/607 here). The full-space
        // path amplifies its relative error by that factor and clamps to
        // {0, 1}; the legal-restricted sampler must stay accurate on
        // every seed.
        let d = Dnf::from_terms([
            vec![Lit::pos(0), Lit::pos(2)],
            vec![Lit::neg(4), Lit::pos(8)],
            vec![Lit::pos(11), Lit::neg(2)],
        ]);
        let probs = vec![
            r(1, 1),
            r(0, 1),
            r(1, 2),
            r(0, 1),
            r(1, 3),
            r(1, 1),
            r(0, 1),
            r(0, 1),
            r(1, 3),
            r(0, 1),
            r(1, 1),
            r(2, 3),
        ];
        let red = ProbDnfReduction::new(&d, &probs).unwrap();
        let exact = red.exact_probability().to_f64();
        assert!(exact > 0.0 && exact < 1.0, "instance must be nontrivial");
        for seed in [303u64, 1, 2, 3, 4, 5] {
            let mut rng = StdRng::seed_from_u64(seed);
            let est = red.estimate(0.05, 0.02, &mut rng);
            assert!(
                (est - exact).abs() <= 0.05 * exact + 0.02,
                "seed {seed}: estimate {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn estimate_matches_exact_on_mixed_formulas() {
        // The legal-restricted sampler against the exact oracle on the
        // same mixed dyadic/non-dyadic instances as the exact test.
        let cases: Vec<(Dnf, Vec<BigRational>)> = vec![
            (
                Dnf::from_terms([vec![Lit::pos(0), Lit::neg(1)], vec![Lit::pos(1)]]),
                vec![r(1, 3), r(2, 7)],
            ),
            (
                Dnf::from_terms([
                    vec![Lit::pos(0), Lit::pos(1)],
                    vec![Lit::neg(0), Lit::pos(2)],
                ]),
                vec![r(5, 12), r(1, 2), r(3, 5)],
            ),
        ];
        let mut rng = StdRng::seed_from_u64(77);
        for (i, (d, probs)) in cases.iter().enumerate() {
            let red = ProbDnfReduction::new(d, probs).unwrap();
            let exact = red.exact_probability().to_f64();
            let est = red.estimate(0.05, 0.02, &mut rng);
            assert!(
                (est - exact).abs() <= 0.05 * exact + 0.02,
                "case {i}: estimate {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn count_matching_below_brute_force() {
        for ell in 1..=6usize {
            let space = 1u64 << ell;
            for bound in 0..=space {
                for mask in 0..space {
                    let val = mask & 0b101101; // arbitrary sub-pattern
                    let expect = (0..bound).filter(|v| v & mask == val).count() as u64;
                    assert_eq!(
                        count_matching_below(mask, val, bound, ell),
                        expect,
                        "ell={ell} bound={bound} mask={mask} val={val}"
                    );
                }
            }
        }
    }

    #[test]
    fn select_matching_enumerates_in_order() {
        let (mask, val, bound, ell) = (0b01010u64, 0b01000u64, 27u64, 5usize);
        let members: Vec<u64> = (0..bound).filter(|v| v & mask == val).collect();
        assert_eq!(
            count_matching_below(mask, val, bound, ell),
            members.len() as u64
        );
        for (r, &m) in members.iter().enumerate() {
            assert_eq!(select_matching(mask, val, bound, ell, r as u64), m);
        }
    }

    #[test]
    fn missing_probability_rejected() {
        let d = Dnf::from_terms([vec![Lit::pos(3)]]);
        assert!(matches!(
            ProbDnfReduction::new(&d, &[r(1, 2)]),
            Err(ReductionError::MissingProbability { .. })
        ));
    }

    #[test]
    fn empty_formula() {
        let red = ProbDnfReduction::new(&Dnf::new(), &[r(1, 2)]).unwrap();
        assert_eq!(red.exact_probability(), BigRational::zero());
    }

    #[test]
    fn tautology_via_complementary_literals() {
        // φ = x0 ∨ ¬x0: probability 1 regardless of ν.
        let d = Dnf::from_terms([vec![Lit::pos(0)], vec![Lit::neg(0)]]);
        let red = ProbDnfReduction::new(&d, &[r(3, 7)]).unwrap();
        assert_eq!(red.exact_probability(), BigRational::one());
    }
}
