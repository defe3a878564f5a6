//! Exact reliability for arbitrary queries by weighted world enumeration
//! — the executable content of Theorem 4.2.
//!
//! The FP^#P algorithm of the theorem enumerates all truth assignments to
//! the atomic statements (the worlds `𝔅 ∈ Ω(𝔇)`), splits each leaf
//! `ν(𝔅)·g` times for the normalizer `g`, evaluates `ψ` at each leaf, and
//! reads `g · Pr[𝔅 ⊨ ψ]` off the accepting-path count. We execute exactly
//! this computation: worlds are enumerated with their integer weights
//! `ν(𝔅)·g`, the query is bound once per solve ([`Query::bind`]) and
//! evaluated on each world (any [`Query`] — first-order, second-order via
//! enumeration, Datalog, or a closure), and the weighted counts are
//! divided by `g` once at the end; the accepting-path count itself is
//! the integer certificate. Exponential in the number of uncertain
//! facts, as the theorem's placement in FP^#P (and Prop 3.2's hardness)
//! says it must be.

use qrel_arith::{BigInt, BigRational, BigUint, FastNat};
use qrel_budget::{Budget, Exhausted, Resource};
use qrel_eval::{rank_difference, BoundQuery, EvalError, Query};
use qrel_par::{run_settled, shard_ranges, DEFAULT_SHARDS};
use qrel_prob::normalizer::sound_g;
use qrel_prob::{UnreliableDatabase, WorldWalk};

/// Exact reliability computation result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactReport {
    /// `H_ψ(𝔇)` — the expected Hamming distance.
    pub expected_error: BigRational,
    /// `R_ψ(𝔇) = 1 − H_ψ/n^k`.
    pub reliability: BigRational,
    /// Number of worlds enumerated (`2^u`).
    pub worlds: u64,
}

/// Outcome of a budgeted exact computation: either the full answer or
/// the partial sums accumulated before the budget tripped.
///
/// In the `Exhausted` case `partial_expected_error` is an exact *lower*
/// bound on `H_ψ(𝔇)` (every unvisited world can only add error mass),
/// and `mass_visited` is the total probability of the worlds already
/// enumerated — so `H_ψ` is also bounded above by
/// `partial_expected_error + (1 − mass_visited) · n^k`, which the
/// runtime uses to report a bracketed degraded answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactOutcome {
    Complete(ExactReport),
    Exhausted {
        /// Exact error mass over the worlds visited so far.
        partial_expected_error: BigRational,
        /// Total probability of the visited worlds (`≤ 1`).
        mass_visited: BigRational,
        /// Worlds enumerated before the trip.
        worlds: u64,
        /// What tripped.
        cause: Exhausted,
    },
}

/// The Theorem 4.2 counting certificate: a natural number `g` and the
/// accepting-path count `g · Pr[𝔅 ⊨ ψ]`, which is guaranteed integral.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingCertificate {
    /// The (corrected — see `qrel_prob::normalizer`) normalizer.
    pub g: BigUint,
    /// `g · Pr[𝔅 ⊨ ψ] ∈ ℕ` — the number of accepting paths of the
    /// nondeterministic machine in the proof.
    pub accepting_paths: BigUint,
}

/// Exact `Pr[𝔅 ⊨ ψ]` for a Boolean query by full world enumeration.
pub fn exact_probability(
    ud: &UnreliableDatabase,
    query: &dyn Query,
) -> Result<BigRational, EvalError> {
    Ok(over_g(&accepting_weight(ud, query)?, &sound_g(ud)))
}

/// `g · Pr[𝔅 ⊨ ψ]`: the summed weights `ν(𝔅)·g` of the worlds that
/// satisfy the Boolean query — the accepting-path count of Theorem 4.2.
fn accepting_weight(ud: &UnreliableDatabase, query: &dyn Query) -> Result<FastNat, EvalError> {
    assert_eq!(
        query.arity(),
        0,
        "exact_probability requires a Boolean query"
    );
    let mut bound = query.bind(ud.observed());
    let mut ranks = Vec::new();
    let mut accepted = FastNat::zero();
    let mut failure: Option<EvalError> = None;
    // Gray-code traversal: one fact flip and one integer update per world.
    ud.visit_worlds(
        |world, weight| match bound.answer_ranks(world, &mut ranks) {
            Ok(()) => {
                if !ranks.is_empty() {
                    accepted.add_assign(weight);
                }
                true
            }
            Err(e) => {
                failure = Some(e);
                false
            }
        },
    );
    match failure {
        Some(e) => Err(e),
        None => Ok(accepted),
    }
}

/// `sum / g` for a sum of world weights `ν(𝔅)·g`.
fn over_g(sum: &FastNat, g: &BigUint) -> BigRational {
    BigRational::new(
        BigInt::from_biguint(sum.to_biguint()),
        BigInt::from_biguint(g.clone()),
    )
}

/// Exact expected error and reliability for an arbitrary k-ary query.
///
/// `H_ψ = Σ_𝔅 ν(𝔅) · |ψ^𝔄 Δ ψ^𝔅|`, accumulated in the integer weights
/// `ν(𝔅)·g` and divided by `g` once.
///
/// ```
/// use qrel_core::exact::exact_reliability;
/// use qrel_arith::BigRational;
/// use qrel_db::{DatabaseBuilder, Fact};
/// use qrel_eval::FoQuery;
/// use qrel_prob::UnreliableDatabase;
///
/// let db = DatabaseBuilder::new()
///     .universe_size(2)
///     .relation("E", 2)
///     .tuples("E", [vec![0, 1]])
///     .build();
/// let mut ud = UnreliableDatabase::reliable(db);
/// ud.set_error(&Fact::new(0, vec![0, 1]), BigRational::from_ratio(1, 5)).unwrap();
///
/// let q = FoQuery::parse("exists x y. E(x, y)").unwrap();
/// let report = exact_reliability(&ud, &q).unwrap();
/// // The sentence flips exactly when the single uncertain edge flips.
/// assert_eq!(report.expected_error, BigRational::from_ratio(1, 5));
/// assert_eq!(report.worlds, 2);
/// ```
pub fn exact_reliability(
    ud: &UnreliableDatabase,
    query: &dyn Query,
) -> Result<ExactReport, EvalError> {
    let mut bound = query.bind(ud.observed());
    let mut observed = Vec::new();
    bound.answer_ranks(ud.observed(), &mut observed)?;
    let walk = WorldWalk::new(ud);
    let (sums, failure, _) = sweep(&walk, bound.as_mut(), &observed, 0, walk.len(), || Ok(()));
    if let Some(e) = failure {
        return Err(e);
    }
    let h = over_g(&sums.error, &sound_g(ud));
    Ok(report(ud, query.arity(), h, sums.worlds))
}

/// Weighted sums over a slice of the Gray-code world sequence.
#[derive(Debug, Default)]
struct Sums {
    /// `Σ ν(𝔅)·g · |ψ^𝔄 Δ ψ^𝔅|`.
    error: FastNat,
    /// `Σ ν(𝔅)·g`.
    mass: FastNat,
    worlds: u64,
}

/// Sweep the worlds `[start, end)` of the Gray-code sequence, charging
/// each world before evaluating it. Stops at the first evaluation error
/// or charge trip and returns the sums so far with the cause.
fn sweep(
    walk: &WorldWalk,
    bound: &mut dyn BoundQuery,
    observed: &[usize],
    start: u64,
    end: u64,
    mut charge: impl FnMut() -> Result<(), Exhausted>,
) -> (Sums, Option<EvalError>, Option<Exhausted>) {
    let mut sums = Sums::default();
    let mut ranks = Vec::new();
    let mut failure = None;
    let mut cause = None;
    walk.visit_range(start, end, |world, weight| {
        if let Err(e) = charge() {
            cause = Some(e);
            return false;
        }
        sums.worlds += 1;
        match bound.answer_ranks(world, &mut ranks) {
            Ok(()) => {
                let diff = rank_difference(&ranks, observed);
                if diff > 0 {
                    sums.error
                        .add_assign(&weight.mul(&FastNat::Small(diff as u128)));
                }
                sums.mass.add_assign(weight);
                true
            }
            Err(e) => {
                failure = Some(e);
                false
            }
        }
    });
    (sums, failure, cause)
}

/// The report for expected error `h` of a k-ary query:
/// `R = 1 − H/n^k`, or `1` over an empty tuple space.
fn report(ud: &UnreliableDatabase, k: usize, h: BigRational, worlds: u64) -> ExactReport {
    let total = BigRational::from_int(ud.observed().universe().tuple_count(k) as i64);
    let reliability = if total.is_zero() {
        BigRational::one()
    } else {
        h.div_ref(&total).one_minus()
    };
    ExactReport {
        expected_error: h,
        reliability,
        worlds,
    }
}

/// [`exact_reliability`] under a cooperative [`Budget`], sharded over
/// `threads` workers. One [`Resource::Worlds`] is charged per
/// enumerated world, and a shard stops at its first trip, returning the
/// exact partial sums instead of discarding the work done.
///
/// The Gray-code sequence `[0, 2^u)` of one [`WorldWalk`] is tiled into
/// [`DEFAULT_SHARDS`] contiguous ranges, each swept by its own binding
/// of the query. The parent budget is [`Budget::split`] into one child
/// per shard, and the integer partial sums plus child spends are
/// settled back in shard order, then divided by `g` once. Integer
/// addition is associative and counter caps divide deterministically
/// across shards, so both a complete and a world-capped run are
/// identical for every thread count; only wall-clock and cancellation
/// trips remain scheduling-dependent. The first trip cause *in shard
/// order* is reported, restated against the parent budget's cap and
/// spend.
pub fn exact_reliability_budgeted(
    ud: &UnreliableDatabase,
    query: &(dyn Query + Sync),
    budget: &Budget,
    threads: usize,
) -> Result<ExactOutcome, EvalError> {
    let mut observed = Vec::new();
    query
        .bind(ud.observed())
        .answer_ranks(ud.observed(), &mut observed)?;
    let k = query.arity();
    let walk = WorldWalk::new(ud);
    let ranges = shard_ranges(walk.len(), DEFAULT_SHARDS);
    let (parts, first_cause) = run_settled(
        budget.split(DEFAULT_SHARDS),
        threads,
        |child| budget.settle(child),
        |s, child: &Budget| {
            let (start, end) = ranges[s];
            let mut bound = query.bind(ud.observed());
            let (sums, failure, cause) =
                sweep(&walk, bound.as_mut(), &observed, start, end, || {
                    child.charge(Resource::Worlds, 1)
                });
            ((sums, failure), cause)
        },
    );
    let mut sums = Sums::default();
    let mut first_failure: Option<EvalError> = None;
    for (part, failure) in parts {
        sums.error.add_assign(&part.error);
        sums.mass.add_assign(&part.mass);
        sums.worlds += part.worlds;
        if first_failure.is_none() {
            first_failure = failure;
        }
    }
    if let Some(e) = first_failure {
        return Err(e);
    }
    let g = sound_g(ud);
    let h = over_g(&sums.error, &g);
    if let Some(cause) = first_cause {
        return Ok(ExactOutcome::Exhausted {
            partial_expected_error: h,
            mass_visited: over_g(&sums.mass, &g),
            worlds: sums.worlds,
            cause: budget.settled_cause(cause),
        });
    }
    Ok(ExactOutcome::Complete(report(ud, k, h, sums.worlds)))
}

/// Exact per-tuple answer marginals: for every `ā ∈ A^k`, the probability
/// `Pr[ā ∈ ψ^𝔅]` that the tuple belongs to the query answer on the
/// actual database — the "probabilistic relation" view of probabilistic
/// database systems. Exponential in the number of uncertain facts.
pub fn answer_marginals(
    ud: &UnreliableDatabase,
    query: &dyn Query,
) -> Result<Vec<(Vec<u32>, BigRational)>, EvalError> {
    let k = query.arity();
    let tuples: Vec<Vec<u32>> = ud.observed().universe().tuples(k).collect();
    let mut bound = query.bind(ud.observed());
    let mut ranks = Vec::new();
    let mut marginals = vec![FastNat::zero(); tuples.len()];
    let mut failure: Option<EvalError> = None;
    ud.visit_worlds(
        |world, weight| match bound.answer_ranks(world, &mut ranks) {
            Ok(()) => {
                for &rank in &ranks {
                    marginals[rank].add_assign(weight);
                }
                true
            }
            Err(e) => {
                failure = Some(e);
                false
            }
        },
    );
    if let Some(e) = failure {
        return Err(e);
    }
    let g = sound_g(ud);
    Ok(tuples
        .into_iter()
        .zip(marginals.iter().map(|m| over_g(m, &g)))
        .collect())
}

/// Produce the Theorem 4.2 certificate for a Boolean query: the
/// accepting-path count `g · Pr[𝔅 ⊨ ψ]` as an exact natural number,
/// summed directly from the integer world weights `ν(𝔅)·g`.
pub fn counting_certificate(
    ud: &UnreliableDatabase,
    query: &dyn Query,
) -> Result<CountingCertificate, EvalError> {
    Ok(CountingCertificate {
        accepting_paths: accepting_weight(ud, query)?.to_biguint(),
        g: sound_g(ud),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrel_db::{DatabaseBuilder, Fact};
    use qrel_eval::{DatalogQuery, FnQuery, FoQuery};
    use qrel_prob::UnreliableDatabase;

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    fn coin_db(p: (i64, u64)) -> UnreliableDatabase {
        let db = DatabaseBuilder::new()
            .universe_size(1)
            .relation("S", 1)
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(p.0, p.1)).unwrap();
        ud
    }

    #[test]
    fn boolean_probability_single_fact() {
        let ud = coin_db((1, 3));
        let q = FoQuery::parse("exists x. S(x)").unwrap();
        // S(0) observed false, μ = 1/3 → Pr[∃x S(x)] = 1/3.
        assert_eq!(exact_probability(&ud, &q).unwrap(), r(1, 3));
        let rep = exact_reliability(&ud, &q).unwrap();
        assert_eq!(rep.expected_error, r(1, 3));
        assert_eq!(rep.reliability, r(2, 3));
        assert_eq!(rep.worlds, 2);
    }

    #[test]
    fn independent_facts_multiply() {
        // Two uncertain S-facts, ψ = ∃x S(x): Pr[ψ] = 1 − (1−ν0)(1−ν1).
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("S", 1)
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(1, 3)).unwrap();
        ud.set_error(&Fact::new(0, vec![1]), r(1, 4)).unwrap();
        let q = FoQuery::parse("exists x. S(x)").unwrap();
        assert_eq!(
            exact_probability(&ud, &q).unwrap(),
            r(2, 3).mul_ref(&r(3, 4)).one_minus()
        );
    }

    #[test]
    fn kary_reliability_sums_per_tuple() {
        // ψ(x) = S(x) is QF, so the Thm 4.2 engine must agree with the
        // per-atom formula H = Σ μ.
        let db = DatabaseBuilder::new()
            .universe_size(3)
            .relation("S", 1)
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(1, 5)).unwrap();
        ud.set_error(&Fact::new(0, vec![2]), r(1, 7)).unwrap();
        let q = FoQuery::parse("S(x)").unwrap();
        let rep = exact_reliability(&ud, &q).unwrap();
        assert_eq!(rep.expected_error, r(1, 5).add_ref(&r(1, 7)));
        assert_eq!(
            rep.reliability,
            r(1, 5).add_ref(&r(1, 7)).div_ref(&r(3, 1)).one_minus()
        );
    }

    #[test]
    fn datalog_reachability_reliability() {
        // Path 0→1→2 with the middle edge uncertain; query: 2 reachable
        // from 0. Pr[reachable] = ν(E(1,2)) = 1/2; H = 1/2 (observed yes).
        let db = DatabaseBuilder::new()
            .universe_size(3)
            .relation("E", 2)
            .tuples("E", [vec![0, 1], vec![1, 2]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![1, 2]), r(1, 2)).unwrap();
        let q = DatalogQuery::parse("T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).", "T").unwrap();
        let rep = exact_reliability(&ud, &q).unwrap();
        // Only tuple (0,2) and (1,2) flip with the edge: H = 1/2 + 1/2.
        assert_eq!(rep.expected_error, r(1, 1));
        assert_eq!(rep.reliability, r(1, 9).one_minus());
    }

    #[test]
    fn closure_query_supported() {
        let ud = coin_db((1, 2));
        let q = FnQuery::boolean(|db| db.relation_by_name("S").unwrap().len() % 2 == 1);
        assert_eq!(exact_probability(&ud, &q).unwrap(), r(1, 2));
    }

    #[test]
    fn certificate_is_integral_and_consistent() {
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("S", 1)
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(1, 3)).unwrap();
        ud.set_error(&Fact::new(0, vec![1]), r(2, 5)).unwrap();
        let q = FoQuery::parse("exists x. S(x)").unwrap();
        let cert = counting_certificate(&ud, &q).unwrap();
        // g = 3 · 5 = 15; Pr = 1 − (2/3)(3/5) = 3/5 → paths = 9.
        assert_eq!(cert.g, BigUint::from_u32(15));
        assert_eq!(cert.accepting_paths, BigUint::from_u32(9));
    }

    #[test]
    fn answer_marginals_decompose_expected_error() {
        // H_ψ = Σ_ā [ā ∈ ψ^𝔄] · (1 − m(ā)) + [ā ∉ ψ^𝔄] · m(ā), where
        // m(ā) is the answer marginal.
        let db = DatabaseBuilder::new()
            .universe_size(3)
            .relation("E", 2)
            .tuples("E", [vec![0, 1], vec![1, 2]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0, 1]), r(1, 4)).unwrap();
        ud.set_error(&Fact::new(0, vec![2, 0]), r(1, 3)).unwrap();
        let q = {
            use qrel_logic::parser::parse_formula;
            FoQuery::with_free_order(
                parse_formula("exists z. E(x,z) & E(z,y)").unwrap(),
                vec!["x".into(), "y".into()],
            )
        };
        let marginals = answer_marginals(&ud, &q).unwrap();
        let observed = q.answers(ud.observed()).unwrap();
        let mut h = BigRational::zero();
        for (t, m) in &marginals {
            h = h.add_ref(&if observed.contains(t) {
                m.one_minus()
            } else {
                m.clone()
            });
        }
        let rep = exact_reliability(&ud, &q).unwrap();
        assert_eq!(h, rep.expected_error);
        // Marginals are probabilities.
        for (_, m) in marginals {
            assert!(m >= BigRational::zero() && m <= BigRational::one());
        }
    }

    #[test]
    fn budgeted_exact_complete_matches_unbudgeted() {
        let ud = coin_db((1, 3));
        let q = FoQuery::parse("exists x. S(x)").unwrap();
        let full = exact_reliability(&ud, &q).unwrap();
        let outcome =
            exact_reliability_budgeted(&ud, &q, &qrel_budget::Budget::unlimited(), 1).unwrap();
        assert_eq!(outcome, ExactOutcome::Complete(full));
    }

    #[test]
    fn budgeted_exact_partial_sums_are_bounds() {
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("S", 1)
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(1, 3)).unwrap();
        ud.set_error(&Fact::new(0, vec![1]), r(1, 4)).unwrap();
        let q = FoQuery::parse("exists x. S(x)").unwrap();
        let budget = qrel_budget::Budget::unlimited().with_max_worlds(2);
        let outcome = exact_reliability_budgeted(&ud, &q, &budget, 1).unwrap();
        match outcome {
            ExactOutcome::Exhausted {
                partial_expected_error,
                mass_visited,
                worlds,
                cause,
            } => {
                assert_eq!(worlds, 2);
                assert_eq!(cause.resource, qrel_budget::Resource::Worlds);
                let full = exact_reliability(&ud, &q).unwrap();
                // Partial error is a lower bound on the true H.
                assert!(partial_expected_error <= full.expected_error);
                assert!(mass_visited < BigRational::one());
                assert!(mass_visited > BigRational::zero());
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    fn four_fact_db() -> UnreliableDatabase {
        let db = DatabaseBuilder::new()
            .universe_size(4)
            .relation("S", 1)
            .tuples("S", [vec![1]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(1, 3)).unwrap();
        ud.set_error(&Fact::new(0, vec![1]), r(1, 4)).unwrap();
        ud.set_error(&Fact::new(0, vec![2]), r(2, 5)).unwrap();
        ud.set_error(&Fact::new(0, vec![3]), r(1, 7)).unwrap();
        ud
    }

    #[test]
    fn budgeted_sharded_complete_matches_serial_and_settles_spend() {
        let ud = four_fact_db();
        for src in ["exists x. S(x)", "S(x)"] {
            let q = FoQuery::parse(src).unwrap();
            let serial = exact_reliability(&ud, &q).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let budget = Budget::unlimited();
                let outcome = exact_reliability_budgeted(&ud, &q, &budget, threads).unwrap();
                assert_eq!(outcome, ExactOutcome::Complete(serial.clone()), "{src}");
                assert_eq!(budget.spent(Resource::Worlds), 16);
            }
        }
    }

    #[test]
    fn budgeted_sharded_world_cap_is_thread_count_invariant() {
        let ud = four_fact_db();
        let q = FoQuery::parse("exists x. S(x)").unwrap();
        let run = |threads: usize| {
            let budget = Budget::unlimited().with_max_worlds(10);
            let outcome = exact_reliability_budgeted(&ud, &q, &budget, threads).unwrap();
            (outcome, budget.spent(Resource::Worlds))
        };
        let (base_outcome, base_spent) = run(1);
        assert_eq!(base_spent, 10);
        match &base_outcome {
            ExactOutcome::Exhausted { worlds, cause, .. } => {
                assert_eq!(*worlds, 10);
                assert_eq!(cause.resource, Resource::Worlds);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        for threads in [2usize, 4, 8] {
            assert_eq!(run(threads), (base_outcome.clone(), base_spent));
        }
    }

    #[test]
    fn reliability_probability_duality_for_boolean() {
        // For Boolean ψ with 𝔄 ⊨ ψ: H = 1 − Pr[ψ]; with 𝔄 ⊭ ψ: H = Pr[ψ].
        let db = DatabaseBuilder::new()
            .universe_size(1)
            .relation("S", 1)
            .tuples("S", [vec![0]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(1, 4)).unwrap();
        let q = FoQuery::parse("exists x. S(x)").unwrap(); // observed true
        let p = exact_probability(&ud, &q).unwrap();
        let rep = exact_reliability(&ud, &q).unwrap();
        assert_eq!(rep.expected_error, p.one_minus());
    }
}
