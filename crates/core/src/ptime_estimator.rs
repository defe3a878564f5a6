//! Absolute-error Monte-Carlo reliability estimation for *all*
//! polynomial-time evaluable queries (Theorem 5.12).
//!
//! Direct sampling of the indicator `X = ψ^𝔅` estimates `ν(ψ)` with
//! additive error, but the paper routes through Lemma 5.11 — a
//! *relative*-error bound that degenerates as `E[X] → 0`. The fix is the
//! padding construction: add a fresh unary relation `R` (empty in the
//! observed database) and two fresh constants `c ≠ d`, set
//! `μ'(Rc) = μ'(Rd) = ξ` for a fixed rational `ξ ∈ (0, 1/2)`, and
//! estimate the modified query
//!
//! ```text
//! ψ' = (ψ ∨ Rc) ∧ Rd,       ν(ψ') = ξ² + (ξ − ξ²)·ν(ψ),
//! ```
//!
//! whose expectation is trapped in `[ξ², ξ] ⊂ (0, 1/2)`. With
//! `t = ⌈9/(2ξε²)·ln(1/δ)⌉` samples (Lemma 5.11) the de-biased estimate
//! `α = (X̃ − ξ²)/(ξ − ξ²)` satisfies `Pr[|α − ν(ψ)| > 2ε] < δ`; the
//! public API takes the target `ε` and internally runs at `ε/2`, exactly
//! as the proof does.
//!
//! [`direct_reliability_budgeted`] (plain Hoeffding sampling, the
//! solver's cheapest rung) and its Boolean entry [`direct_probability`]
//! are also provided — the ablation experiment compares the two
//! samplers' budgets.

use qrel_arith::BigRational;
use qrel_budget::{Budget, Exhausted, Resource};
use qrel_count::bounds::{hoeffding_samples, karp_luby_t};
use qrel_eval::{rank_difference, EvalError, Query};
use qrel_par::{run_settled, run_shards, shard_counts, split_seed, DEFAULT_SHARDS};
use qrel_prob::sampler::bernoulli;
use qrel_prob::{UnreliableDatabase, WorldSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a Theorem 5.12 estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct PtimeEstimate {
    /// The de-biased estimate (of `ν(ψ)`, or of `R_ψ` for the reliability
    /// wrappers).
    pub estimate: f64,
    /// Total samples drawn.
    pub samples: u64,
    /// The raw sample mean (diagnostic): the padded-query mean `X̃` of
    /// the Boolean padding estimator (in `[ξ², ξ]` in expectation), the
    /// mean normalized error of the direct sampler, `NaN` for the padding
    /// reliability estimate.
    pub padded_mean: f64,
}

/// The Theorem 5.12 estimator with a fixed padding parameter `ξ`.
///
/// `ξ` is chosen *before* seeing the database or the accuracy targets
/// (footnote 3 of the paper); `1/4` is a reasonable default.
///
/// ```
/// use qrel_core::ptime_estimator::PaddingEstimator;
/// use qrel_arith::BigRational;
/// use qrel_db::{DatabaseBuilder, Fact};
/// use qrel_eval::FoQuery;
/// use qrel_prob::UnreliableDatabase;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let db = DatabaseBuilder::new().universe_size(1).relation("S", 1).build();
/// let mut ud = UnreliableDatabase::reliable(db);
/// ud.set_error(&Fact::new(0, vec![0]), BigRational::from_ratio(1, 2)).unwrap();
///
/// let q = FoQuery::parse("exists x. S(x)").unwrap(); // true w.p. 1/2
/// let est = PaddingEstimator::default_xi();
/// let mut rng = StdRng::seed_from_u64(1);
/// let rep = est.estimate_probability(&ud, &q, 0.1, 0.05, &mut rng).unwrap();
/// assert!((rep.estimate - 0.5).abs() <= 0.1);
/// assert_eq!(rep.samples, est.samples_for(0.1, 0.05));
/// ```
#[derive(Debug, Clone)]
pub struct PaddingEstimator {
    xi: BigRational,
}

impl PaddingEstimator {
    /// # Panics
    /// Panics unless `0 < ξ < 1/2`.
    pub fn new(xi: BigRational) -> Self {
        assert!(
            xi > BigRational::zero() && xi < BigRational::from_ratio(1, 2),
            "ξ must be in (0, 1/2)"
        );
        PaddingEstimator { xi }
    }

    /// The default `ξ = 1/4`.
    pub fn default_xi() -> Self {
        Self::new(BigRational::from_ratio(1, 4))
    }

    pub fn xi(&self) -> &BigRational {
        &self.xi
    }

    /// Lemma 5.11 sample count for target absolute error `ε` (run at
    /// `ε/2` as in the proof) and confidence `1 − δ`.
    pub fn samples_for(&self, eps: f64, delta: f64) -> u64 {
        karp_luby_t(self.xi.to_f64(), eps / 2.0, delta)
    }

    /// The exact padded expectation `ν(ψ') = ξ² + (ξ−ξ²)·ν(ψ)` — the
    /// algebraic identity the de-biasing inverts (exposed for the
    /// verification tests and experiments).
    pub fn padded_expectation(&self, nu_psi: &BigRational) -> BigRational {
        let xi2 = self.xi.mul_ref(&self.xi);
        xi2.add_ref(&self.xi.sub_ref(&xi2).mul_ref(nu_psi))
    }

    /// Estimate `ν(ψ)` for a Boolean query with `Pr[|α − ν(ψ)| > ε] < δ`:
    /// one seed drawn from `rng`, then
    /// [`Self::estimate_probability_sharded`] on one thread.
    pub fn estimate_probability<R: Rng>(
        &self,
        ud: &UnreliableDatabase,
        query: &(dyn Query + Sync),
        eps: f64,
        delta: f64,
        rng: &mut R,
    ) -> Result<PtimeEstimate, EvalError> {
        self.estimate_probability_sharded(ud, query, eps, delta, rng.gen(), 1)
    }

    /// Seeded, sharded estimate of `ν(ψ)` for a Boolean query.
    ///
    /// Each sample draws two independent `ξ`-Bernoullis for the padding
    /// facts `Rc`, `Rd` and, only when `Rd ∧ ¬Rc`, a world `𝔅 ~ ν`, and
    /// evaluates `X = (ψ^𝔅 ∨ Rc) ∧ Rd` — the padded query on the extended
    /// database, with `ψ` relativized to the original universe (the fresh
    /// constants are, by construction, irrelevant to `ψ`).
    ///
    /// The Lemma 5.11 sample count is cut into [`DEFAULT_SHARDS`] fixed
    /// pieces, each drawn on an independent seed-split `StdRng` with its
    /// own [`WorldSampler`] and its own [`Query::bind`], and the integer
    /// hit counts are merged exactly — the result depends on
    /// `(eps, delta, seed)` but never on `threads`.
    pub fn estimate_probability_sharded(
        &self,
        ud: &UnreliableDatabase,
        query: &(dyn Query + Sync),
        eps: f64,
        delta: f64,
        seed: u64,
        threads: usize,
    ) -> Result<PtimeEstimate, EvalError> {
        assert_eq!(
            query.arity(),
            0,
            "estimate_probability requires a Boolean query"
        );
        let t = self.samples_for(eps, delta);
        let counts = shard_counts(t, DEFAULT_SHARDS);
        let parts = run_shards(DEFAULT_SHARDS, threads, |s| {
            let mut rng = StdRng::seed_from_u64(split_seed(seed, s as u64));
            let sampler = WorldSampler::new(ud);
            let mut bound = query.bind(ud.observed());
            let mut answers = Vec::new();
            let mut hits = 0u64;
            for _ in 0..counts[s] {
                let rc = bernoulli(&self.xi, &mut rng);
                let rd = bernoulli(&self.xi, &mut rng);
                // A Boolean query answers `[0]` when it holds.
                let x = rd
                    && (rc || {
                        bound.answer_ranks(&sampler.sample(&mut rng), &mut answers)?;
                        !answers.is_empty()
                    });
                if x {
                    hits += 1;
                }
            }
            Ok::<u64, EvalError>(hits)
        });
        let mut hits = 0u64;
        for part in parts {
            hits += part?;
        }
        let padded_mean = hits as f64 / t as f64;
        let xi = self.xi.to_f64();
        let estimate = ((padded_mean - xi * xi) / (xi - xi * xi)).clamp(0.0, 1.0);
        Ok(PtimeEstimate {
            estimate,
            samples: t,
            padded_mean,
        })
    }

    /// Estimate the reliability of a k-ary polynomial-time query with
    /// absolute error `ε` at confidence `1 − δ`: one seed drawn from
    /// `rng`, then [`Self::estimate_reliability_budgeted`] on one thread
    /// under [`Budget::unlimited`].
    pub fn estimate_reliability<R: Rng>(
        &self,
        ud: &UnreliableDatabase,
        query: &(dyn Query + Sync),
        eps: f64,
        delta: f64,
        rng: &mut R,
    ) -> Result<PtimeEstimate, EvalError> {
        self.estimate_reliability_budgeted(
            ud,
            query,
            eps,
            delta,
            &Budget::unlimited(),
            rng.gen(),
            1,
        )
        .map(PaddingOutcome::unwrap_complete)
    }
}

/// Outcome of a budgeted world-sampling estimation: the padding
/// estimator or the direct sampler.
#[derive(Debug, Clone, PartialEq)]
pub enum PaddingOutcome {
    Complete(PtimeEstimate),
    /// The budget tripped mid-sampling; `partial_estimate` is the
    /// reliability over the worlds drawn so far (guarantee-free but
    /// bounded in `[0, 1]`).
    Exhausted {
        partial_estimate: f64,
        samples: u64,
        cause: Exhausted,
    },
}

impl PaddingOutcome {
    /// The report of a run under [`Budget::unlimited`], which cannot trip.
    fn unwrap_complete(self) -> PtimeEstimate {
        match self {
            PaddingOutcome::Complete(rep) => rep,
            PaddingOutcome::Exhausted { .. } => unreachable!("unlimited budget cannot trip"),
        }
    }
}

impl PaddingEstimator {
    /// Seeded, sharded reliability estimate under a cooperative
    /// [`Budget`]: each sampled world charges one [`Resource::Samples`],
    /// and on a trip the partial per-tuple means are de-biased and
    /// returned instead of being discarded.
    ///
    /// The theorem's k-ary clause splits the budget per tuple (`ε/n^k`,
    /// `δ/n^k`). Each sampled world is evaluated *once* and reused for
    /// every tuple: the per-tuple error estimators become correlated
    /// across tuples, but each remains marginally a valid Lemma 5.11
    /// estimator and the union bound over per-tuple deviations does not
    /// require independence — so the `(ε, δ)` guarantee holds with `t`
    /// query evaluations instead of `n^k · t`.
    ///
    /// The sample count is cut into [`DEFAULT_SHARDS`] fixed pieces,
    /// each drawn on an independent seed-split RNG against its own child
    /// of the [`Budget::split`] parent; per-tuple hit vectors merge
    /// element-wise and the children settle back in shard order. A
    /// sample-capped run therefore draws exactly the capped number of
    /// worlds and returns a bit-identical estimate for every thread
    /// count (wall-clock and cancellation trips remain
    /// scheduling-dependent). The first trip cause *in shard order* is
    /// reported, restated against the parent budget's cap and spend.
    #[allow(clippy::too_many_arguments)]
    pub fn estimate_reliability_budgeted(
        &self,
        ud: &UnreliableDatabase,
        query: &(dyn Query + Sync),
        eps: f64,
        delta: f64,
        budget: &Budget,
        seed: u64,
        threads: usize,
    ) -> Result<PaddingOutcome, EvalError> {
        let db = ud.observed();
        let tuple_count = db.universe().tuple_count(query.arity());
        let nk = tuple_count.max(1);
        let per_eps = (eps / nk as f64).max(1e-9);
        let per_delta = (delta / nk as f64).min(0.5);
        let t = self.samples_for(per_eps, per_delta);
        let counts = shard_counts(t, DEFAULT_SHARDS);

        let mut observed = Vec::new();
        query.bind(db).answer_ranks(db, &mut observed)?;
        let (parts, first_cause) = run_settled(
            budget.split(DEFAULT_SHARDS),
            threads,
            |child| budget.settle(child),
            |s, child: &Budget| {
                let mut rng = StdRng::seed_from_u64(split_seed(seed, s as u64));
                let sampler = WorldSampler::new(ud);
                let mut bound = query.bind(db);
                let mut answers = Vec::new();
                let mut hits = vec![0u64; nk];
                let mut drawn = 0u64;
                let mut cause = None;
                for _ in 0..counts[s] {
                    if let Err(e) = child.charge(Resource::Samples, 1) {
                        cause = Some(e);
                        break;
                    }
                    if let Err(e) = bound.answer_ranks(&sampler.sample(&mut rng), &mut answers) {
                        return ((hits, drawn, Some(e)), cause);
                    }
                    // Padding coins are drawn independently per tuple
                    // (they are cheap); only the world is shared. Both
                    // rank lists ascend, so one merge walk reads off
                    // each tuple's membership.
                    let mut in_world = answers.iter().copied().peekable();
                    let mut in_observed = observed.iter().copied().peekable();
                    for (i, slot) in hits.iter_mut().enumerate().take(tuple_count) {
                        let rc = bernoulli(&self.xi, &mut rng);
                        let rd = bernoulli(&self.xi, &mut rng);
                        let wrong = in_world.next_if_eq(&i).is_some()
                            != in_observed.next_if_eq(&i).is_some();
                        if rd && (rc || wrong) {
                            *slot += 1;
                        }
                    }
                    drawn += 1;
                }
                ((hits, drawn, None), cause)
            },
        );
        let mut hits = vec![0u64; nk];
        let mut drawn = 0u64;
        let mut first_failure: Option<EvalError> = None;
        for (part_hits, part_drawn, failure) in parts {
            for (slot, shard_hits) in hits.iter_mut().zip(part_hits) {
                *slot += shard_hits;
            }
            drawn += part_drawn;
            if first_failure.is_none() {
                first_failure = failure;
            }
        }
        if let Some(e) = first_failure {
            return Err(e);
        }
        let xi = self.xi.to_f64();
        let mut h = 0.0f64;
        for &count in &hits {
            let mean = count as f64 / drawn.max(1) as f64;
            h += ((mean - xi * xi) / (xi - xi * xi)).clamp(0.0, 1.0);
        }
        let reliability = (1.0 - h / nk as f64).clamp(0.0, 1.0);
        match first_cause {
            Some(cause) => Ok(PaddingOutcome::Exhausted {
                partial_estimate: reliability,
                samples: drawn,
                cause: budget.settled_cause(cause),
            }),
            None => Ok(PaddingOutcome::Complete(PtimeEstimate {
                estimate: reliability,
                samples: drawn,
                padded_mean: f64::NAN,
            })),
        }
    }
}

/// Direct Monte-Carlo reliability: sample worlds, count the per-world
/// symmetric difference `|ψ^𝔄 Δ ψ^𝔅|/n^k ∈ [0, 1]`, and average. One
/// world serves every tuple at once and the per-world statistic is
/// already the normalized error, so a single Hoeffding bound on `t`
/// samples gives `±ε` on the reliability itself — no per-tuple `ε/n^k`
/// split, which is what makes this the solver's cheapest rung. The
/// report's `padded_mean` is the mean normalized error.
///
/// Sharded like the padding estimator: the sample budget splits across
/// [`DEFAULT_SHARDS`] seed-split workers, each charging one
/// [`Resource::Samples`] per world to its own child of the
/// [`Budget::split`] parent, and the *integer* symmetric-difference
/// totals merge exactly, so the estimate never depends on the thread
/// count.
#[allow(clippy::too_many_arguments)]
pub fn direct_reliability_budgeted(
    ud: &UnreliableDatabase,
    query: &(dyn Query + Sync),
    eps: f64,
    delta: f64,
    budget: &Budget,
    seed: u64,
    threads: usize,
) -> Result<PaddingOutcome, EvalError> {
    let db = ud.observed();
    let nk = db.universe().tuple_count(query.arity()).max(1);
    let mut observed = Vec::new();
    query.bind(db).answer_ranks(db, &mut observed)?;
    let t = hoeffding_samples(eps, delta);
    let counts = shard_counts(t, DEFAULT_SHARDS);

    let (parts, cause) = run_settled(
        budget.split(DEFAULT_SHARDS),
        threads,
        |child| budget.settle(child),
        |s, child: &Budget| {
            let mut rng = StdRng::seed_from_u64(split_seed(seed, s as u64));
            let sampler = WorldSampler::new(ud);
            let mut bound = query.bind(db);
            let mut answers = Vec::new();
            let mut diff_total = 0u64;
            let mut drawn = 0u64;
            let mut cause = None;
            for _ in 0..counts[s] {
                if let Err(e) = child.charge(Resource::Samples, 1) {
                    cause = Some(e);
                    break;
                }
                if let Err(e) = bound.answer_ranks(&sampler.sample(&mut rng), &mut answers) {
                    return ((diff_total, drawn, Some(e)), cause);
                }
                diff_total += rank_difference(&answers, &observed) as u64;
                drawn += 1;
            }
            ((diff_total, drawn, None), cause)
        },
    );
    let mut diff_total = 0u64;
    let mut drawn = 0u64;
    let mut failure: Option<EvalError> = None;
    for (part_diff, part_drawn, part_failure) in parts {
        diff_total += part_diff;
        drawn += part_drawn;
        if failure.is_none() {
            failure = part_failure;
        }
    }
    if let Some(e) = failure {
        return Err(e);
    }
    let mean = diff_total as f64 / nk as f64 / drawn.max(1) as f64;
    let estimate = (1.0 - mean).clamp(0.0, 1.0);
    Ok(match cause {
        None => PaddingOutcome::Complete(PtimeEstimate {
            estimate,
            samples: drawn,
            padded_mean: mean,
        }),
        Some(cause) => PaddingOutcome::Exhausted {
            partial_estimate: estimate,
            samples: drawn,
            cause: budget.settled_cause(cause),
        },
    })
}

/// Baseline: estimate `ν(ψ)` by direct world sampling with the Hoeffding
/// additive bound (no padding). Same guarantee as the theorem's
/// construction, usually with far fewer samples — the experiments
/// quantify the gap. One seed drawn from `rng`, then
/// [`direct_reliability_budgeted`] on one thread: its mean error
/// indicator `[ψ^𝔅 ≠ ψ^𝔄]` is `ν(ψ)` or `1 − ν(ψ)` as `ψ^𝔄` is false
/// or true.
pub fn direct_probability<R: Rng>(
    ud: &UnreliableDatabase,
    query: &(dyn Query + Sync),
    eps: f64,
    delta: f64,
    rng: &mut R,
) -> Result<PtimeEstimate, EvalError> {
    assert_eq!(
        query.arity(),
        0,
        "direct_probability requires a Boolean query"
    );
    let observed = query.eval_sentence(ud.observed())?;
    let rep =
        direct_reliability_budgeted(ud, query, eps, delta, &Budget::unlimited(), rng.gen(), 1)?
            .unwrap_complete();
    let nu = if observed {
        1.0 - rep.padded_mean
    } else {
        rep.padded_mean
    };
    Ok(PtimeEstimate {
        estimate: nu,
        samples: rep.samples,
        padded_mean: nu,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_probability, exact_reliability};
    use qrel_db::{DatabaseBuilder, Fact};
    use qrel_eval::{DatalogQuery, FoQuery};
    use rand::rngs::StdRng;

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    fn setup() -> UnreliableDatabase {
        let db = DatabaseBuilder::new()
            .universe_size(3)
            .relation("E", 2)
            .tuples("E", [vec![0, 1], vec![1, 2]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_relation_error("E", r(1, 6)).unwrap();
        ud
    }

    #[test]
    fn padded_expectation_identity() {
        // ν(ψ') = ξ² + (ξ−ξ²)ν(ψ) exactly, for several ξ and ν.
        for xi in [r(1, 8), r(1, 4), r(3, 8)] {
            let est = PaddingEstimator::new(xi.clone());
            for nu in [r(0, 1), r(1, 3), r(1, 2), r(1, 1)] {
                let padded = est.padded_expectation(&nu);
                // Independent hand computation: ξ·(ν + ξ(1−ν)).
                let expect = xi.mul_ref(&nu.add_ref(&xi.mul_ref(&nu.one_minus())));
                assert_eq!(padded, expect);
                // Bounds ξ² ≤ ν(ψ') ≤ ξ of the proof.
                assert!(padded >= xi.mul_ref(&xi) && padded <= xi);
            }
        }
    }

    #[test]
    fn estimates_fo_probability_within_bounds() {
        let ud = setup();
        let q = FoQuery::parse("exists x y z. E(x,y) & E(y,z)").unwrap();
        let exact = exact_probability(&ud, &q).unwrap().to_f64();
        let est = PaddingEstimator::default_xi();
        let mut rng = StdRng::seed_from_u64(7);
        let rep = est
            .estimate_probability(&ud, &q, 0.08, 0.05, &mut rng)
            .unwrap();
        assert!(
            (rep.estimate - exact).abs() <= 0.08,
            "estimate {} vs exact {exact}",
            rep.estimate
        );
        assert_eq!(rep.samples, est.samples_for(0.08, 0.05));
    }

    #[test]
    fn estimates_datalog_reliability() {
        // Reachability reliability — a genuinely non-first-order PTIME
        // query, the case that motivates Theorem 5.12.
        let ud = setup();
        let q = DatalogQuery::parse("T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).", "T").unwrap();
        let exact = exact_reliability(&ud, &q).unwrap().reliability.to_f64();
        let est = PaddingEstimator::default_xi();
        let mut rng = StdRng::seed_from_u64(8);
        let rep = est
            .estimate_reliability(&ud, &q, 0.15, 0.1, &mut rng)
            .unwrap();
        assert!(
            (rep.estimate - exact).abs() <= 0.15,
            "estimate {} vs exact {exact}",
            rep.estimate
        );
    }

    #[test]
    fn shared_worlds_variant_agrees_with_exact() {
        let ud = setup();
        let q = DatalogQuery::parse("T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).", "T").unwrap();
        let exact = exact_reliability(&ud, &q).unwrap().reliability.to_f64();
        let est = PaddingEstimator::default_xi();
        let rep = match est
            .estimate_reliability_budgeted(&ud, &q, 0.15, 0.1, &Budget::unlimited(), 18, 1)
            .unwrap()
        {
            PaddingOutcome::Complete(rep) => rep,
            other => panic!("expected Complete, got {other:?}"),
        };
        assert!(
            (rep.estimate - exact).abs() <= 0.15,
            "estimate {} vs exact {exact}",
            rep.estimate
        );
        // The serial entry shares worlds too: it evaluates the query t
        // times total, not n^k·t.
        let mut rng = StdRng::seed_from_u64(18);
        let serial = est
            .estimate_reliability(&ud, &q, 0.15, 0.1, &mut rng)
            .unwrap();
        assert_eq!(serial.samples, rep.samples);
    }

    #[test]
    fn direct_estimator_agrees() {
        let ud = setup();
        let q = FoQuery::parse("exists x y. E(x,y)").unwrap();
        let exact = exact_probability(&ud, &q).unwrap().to_f64();
        let mut rng = StdRng::seed_from_u64(9);
        let rep = direct_probability(&ud, &q, 0.03, 0.02, &mut rng).unwrap();
        assert!((rep.estimate - exact).abs() <= 0.03);
    }

    #[test]
    fn padding_needs_more_samples_than_hoeffding() {
        // The quantified ablation claim: the paper's construction pays a
        // constant-factor sample premium over direct Hoeffding sampling.
        let est = PaddingEstimator::default_xi();
        assert!(est.samples_for(0.1, 0.05) > hoeffding_samples(0.1, 0.05));
    }

    #[test]
    fn extreme_probabilities_debiased_correctly() {
        // ψ ≡ false and ψ ≡ true: sampling noise only enters through the
        // padding coins; the de-bias map must stay in [0,1].
        let db = DatabaseBuilder::new()
            .universe_size(1)
            .relation("S", 1)
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(1, 2)).unwrap();
        let est = PaddingEstimator::default_xi();
        let mut rng = StdRng::seed_from_u64(10);
        let f = FoQuery::parse("exists x. S(x) & !S(x)").unwrap();
        let rep = est
            .estimate_probability(&ud, &f, 0.1, 0.05, &mut rng)
            .unwrap();
        assert!(
            rep.estimate <= 0.12,
            "false query estimated {}",
            rep.estimate
        );
        let t = FoQuery::parse("exists x. S(x) | !S(x)").unwrap();
        let rep = est
            .estimate_probability(&ud, &t, 0.1, 0.05, &mut rng)
            .unwrap();
        assert!(
            rep.estimate >= 0.88,
            "true query estimated {}",
            rep.estimate
        );
    }

    #[test]
    fn sharded_probability_is_thread_count_invariant_and_accurate() {
        let ud = setup();
        let q = FoQuery::parse("exists x y. E(x,y)").unwrap();
        let exact = exact_probability(&ud, &q).unwrap().to_f64();
        let est = PaddingEstimator::default_xi();
        let serial = est
            .estimate_probability_sharded(&ud, &q, 0.08, 0.05, 31, 1)
            .unwrap();
        for threads in [2usize, 4, 8] {
            let par = est
                .estimate_probability_sharded(&ud, &q, 0.08, 0.05, 31, threads)
                .unwrap();
            assert_eq!(par.estimate.to_bits(), serial.estimate.to_bits());
            assert_eq!(par.samples, serial.samples);
        }
        assert!(
            (serial.estimate - exact).abs() <= 0.08,
            "estimate {} vs exact {exact}",
            serial.estimate
        );
    }

    #[test]
    fn sharded_reliability_is_thread_count_invariant_and_accurate() {
        // A small k-ary query keeps the per-tuple sample count modest:
        // invariance is a structural property of the seed-split/merge, so
        // an expensive query would buy nothing here.
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("E", 2)
            .tuples("E", [vec![0, 1]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_relation_error("E", r(1, 6)).unwrap();
        let q = FoQuery::parse("E(x,y)").unwrap();
        let exact = exact_reliability(&ud, &q).unwrap().reliability.to_f64();
        let est = PaddingEstimator::default_xi();
        let run = |threads: usize| {
            let budget = Budget::unlimited();
            match est
                .estimate_reliability_budgeted(&ud, &q, 0.25, 0.2, &budget, 32, threads)
                .unwrap()
            {
                PaddingOutcome::Complete(rep) => {
                    assert_eq!(budget.spent(Resource::Samples), rep.samples);
                    rep
                }
                other => panic!("expected Complete, got {other:?}"),
            }
        };
        let serial = run(1);
        let par = run(4);
        assert_eq!(par.estimate.to_bits(), serial.estimate.to_bits());
        assert_eq!(par.samples, serial.samples);
        assert!(
            (serial.estimate - exact).abs() <= 0.25,
            "estimate {} vs exact {exact}",
            serial.estimate
        );
    }

    #[test]
    fn budgeted_sharded_conserves_the_sample_cap() {
        let ud = setup();
        let q = FoQuery::parse("exists x y. E(x,y)").unwrap();
        let est = PaddingEstimator::default_xi();
        let run = |threads: usize| {
            let budget = Budget::unlimited().with_max_samples(50);
            let outcome = est
                .estimate_reliability_budgeted(&ud, &q, 0.05, 0.05, &budget, 33, threads)
                .unwrap();
            (outcome, budget.spent(Resource::Samples))
        };
        let (base, base_spent) = run(1);
        assert_eq!(base_spent, 50);
        match &base {
            PaddingOutcome::Exhausted {
                partial_estimate,
                samples,
                cause,
            } => {
                assert_eq!(*samples, 50);
                assert_eq!(cause.resource, Resource::Samples);
                assert!((0.0..=1.0).contains(partial_estimate));
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        for threads in [2usize, 4] {
            assert_eq!(run(threads), (base.clone(), base_spent));
        }
    }

    #[test]
    fn budgeted_without_tripping_matches_unlimited() {
        let ud = setup();
        let q = FoQuery::parse("exists x y. E(x,y)").unwrap();
        let est = PaddingEstimator::default_xi();
        let run = |budget: &Budget| match est
            .estimate_reliability_budgeted(&ud, &q, 0.15, 0.1, budget, 34, 4)
            .unwrap()
        {
            PaddingOutcome::Complete(rep) => rep,
            other => panic!("expected Complete, got {other:?}"),
        };
        let plain = run(&Budget::unlimited());
        // A cap of exactly the sample count never trips.
        let budget = Budget::unlimited().with_max_samples(plain.samples);
        let capped = run(&budget);
        assert_eq!(capped.estimate.to_bits(), plain.estimate.to_bits());
        assert_eq!(capped.samples, plain.samples);
        assert_eq!(budget.spent(Resource::Samples), plain.samples);
    }

    /// `StdRng::seed_from_u64(s).gen::<u64>()`: the seed a serial entry
    /// point draws from a fresh `StdRng::seed_from_u64(s)`.
    fn drawn_seed(s: u64) -> u64 {
        StdRng::seed_from_u64(s).gen()
    }

    #[test]
    fn serial_probability_is_the_sharded_run_at_a_drawn_seed() {
        let ud = setup();
        let q = FoQuery::parse("exists x y. E(x,y)").unwrap();
        let est = PaddingEstimator::default_xi();
        for s in [0u64, 7] {
            let serial = est
                .estimate_probability(&ud, &q, 0.2, 0.1, &mut StdRng::seed_from_u64(s))
                .unwrap();
            for threads in [1usize, 4] {
                let prod = est
                    .estimate_probability_sharded(&ud, &q, 0.2, 0.1, drawn_seed(s), threads)
                    .unwrap();
                assert_eq!(prod.estimate.to_bits(), serial.estimate.to_bits());
                assert_eq!(prod.padded_mean.to_bits(), serial.padded_mean.to_bits());
                assert_eq!(prod.samples, serial.samples);
            }
        }
    }

    #[test]
    fn serial_reliability_is_the_budgeted_run_at_a_drawn_seed() {
        let ud = setup();
        let q = FoQuery::parse("exists y. E(x,y)").unwrap();
        let est = PaddingEstimator::default_xi();
        for s in [0u64, 7] {
            let serial = est
                .estimate_reliability(&ud, &q, 0.3, 0.2, &mut StdRng::seed_from_u64(s))
                .unwrap();
            for threads in [1usize, 4] {
                let budget = Budget::unlimited();
                let prod = match est
                    .estimate_reliability_budgeted(
                        &ud,
                        &q,
                        0.3,
                        0.2,
                        &budget,
                        drawn_seed(s),
                        threads,
                    )
                    .unwrap()
                {
                    PaddingOutcome::Complete(rep) => rep,
                    other => panic!("expected Complete, got {other:?}"),
                };
                assert_eq!(prod.estimate.to_bits(), serial.estimate.to_bits());
                assert_eq!(prod.samples, serial.samples);
            }
        }
    }

    #[test]
    fn direct_probability_is_the_direct_sampler_at_a_drawn_seed() {
        // ψ holds on the observed database, so its mean error indicator
        // [ψ^𝔅 ≠ ψ^𝔄] estimates 1 − ν(ψ).
        let ud = setup();
        let q = FoQuery::parse("exists x y. E(x,y)").unwrap();
        assert!(q.eval_sentence(ud.observed()).unwrap());
        for s in [0u64, 9] {
            let serial =
                direct_probability(&ud, &q, 0.05, 0.05, &mut StdRng::seed_from_u64(s)).unwrap();
            for threads in [1usize, 4] {
                let budget = Budget::unlimited();
                let prod = match direct_reliability_budgeted(
                    &ud,
                    &q,
                    0.05,
                    0.05,
                    &budget,
                    drawn_seed(s),
                    threads,
                )
                .unwrap()
                {
                    PaddingOutcome::Complete(rep) => rep,
                    other => panic!("expected Complete, got {other:?}"),
                };
                assert_eq!(
                    serial.estimate.to_bits(),
                    (1.0 - prod.padded_mean).to_bits()
                );
                assert_eq!(serial.samples, prod.samples);
                assert_eq!(budget.spent(Resource::Samples), prod.samples);
            }
        }
    }

    #[test]
    #[should_panic(expected = "ξ must be in")]
    fn xi_validated() {
        PaddingEstimator::new(r(1, 2));
    }

    #[test]
    fn sample_count_matches_lemma() {
        let est = PaddingEstimator::new(r(1, 4));
        // t = ⌈9/(2·(1/4)·(ε/2)²)·ln(1/δ)⌉ with ε = 0.2, δ = 0.1.
        let expected = (9.0 / (2.0 * 0.25 * 0.01) * 10f64.ln()).ceil() as u64;
        assert_eq!(est.samples_for(0.2, 0.1), expected);
    }
}
