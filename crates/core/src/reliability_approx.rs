//! Absolute-error approximation of reliability for existential and
//! universal queries (Corollary 5.5).
//!
//! For a Boolean existential `ψ`: `H_ψ = ν(ψ)` or `1 − ν(ψ)` depending on
//! whether the observed database satisfies `ψ`, so the Theorem 5.4 FPTRAS
//! for `ν(ψ)` directly yields an absolute-(ε, δ) estimate of `R_ψ`
//! (relative error on a `[0,1]` quantity implies absolute error).
//! Universal queries go through their existential negation:
//! `ν(ψ) = 1 − ν(¬ψ)`.
//!
//! For k-ary queries the corollary splits the budget: estimate each
//! per-tuple error `H_{ψ(ā)}` to within `ε/n^k` at confidence
//! `1 − δ/n^k`, sum, and a union bound gives `|R̂ − R_ψ| ≤ ε` with
//! probability `≥ 1 − δ`.

use crate::existential::{ground_with_probabilities_budgeted, DEFAULT_MAX_TERMS};
use qrel_budget::{Budget, Exhausted, QrelError};
use qrel_count::KarpLuby;
use qrel_eval::eval_formula;
use qrel_logic::{Formula, Fragment};
use qrel_par::split_seed;
use qrel_prob::UnreliableDatabase;
use rand::Rng;
use std::collections::HashMap;

/// Result of the Corollary 5.5 estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxReport {
    /// Estimated expected error `Ĥ_ψ`.
    pub expected_error: f64,
    /// Estimated reliability `R̂_ψ = 1 − Ĥ_ψ/n^k`.
    pub reliability: f64,
    /// Number of per-tuple estimations performed (`n^k`).
    pub tuples: usize,
}

/// Estimate the reliability of an existential **or universal** query with
/// absolute error `ε` at confidence `1 − δ`: one seed drawn from `rng`,
/// then [`approximate_reliability_budgeted`] on one thread under
/// [`Budget::unlimited`].
///
/// `free_vars` fixes the tuple order for k-ary queries (pass `&[]` for
/// sentences).
pub fn approximate_reliability<R: Rng>(
    ud: &UnreliableDatabase,
    formula: &Formula,
    free_vars: &[String],
    eps: f64,
    delta: f64,
    rng: &mut R,
) -> Result<ApproxReport, QrelError> {
    match approximate_reliability_budgeted(
        ud,
        formula,
        free_vars,
        eps,
        delta,
        &Budget::unlimited(),
        rng.gen(),
        1,
    )? {
        ApproxOutcome::Complete(report) => Ok(report),
        ApproxOutcome::Exhausted { .. } => unreachable!("unlimited budget cannot trip"),
    }
}

/// Outcome of a budgeted Corollary 5.5 estimation.
#[derive(Debug, Clone, PartialEq)]
pub enum ApproxOutcome {
    Complete(ApproxReport),
    /// The budget tripped mid-run. `partial_expected_error` sums the
    /// fully-estimated tuples plus a guarantee-free partial estimate for
    /// the tuple in flight; each of the remaining
    /// `tuples_total − tuples_done − 1` tuples contributes at most 1.
    Exhausted {
        partial_expected_error: f64,
        tuples_done: usize,
        tuples_total: usize,
        cause: Exhausted,
    },
}

/// [`approximate_reliability`] under a cooperative [`Budget`], via the
/// direct Karp–Luby route. Grounding charges
/// [`qrel_budget::Resource::Terms`], sampling charges
/// [`qrel_budget::Resource::Samples`]; on a trip the tuples estimated so
/// far are returned instead of being discarded.
///
/// Grounding and the per-tuple loop stay serial (they are cheap
/// relative to sampling), but each tuple's Karp–Luby run is sharded
/// across `threads` workers via [`KarpLuby::run_eps_delta`], with the
/// tuple's sampling seed derived as `split_seed(seed, tuple_index)`. The
/// result therefore depends only on `(eps, delta, seed)` and the
/// budget's counter caps — never on the thread count.
#[allow(clippy::too_many_arguments)]
pub fn approximate_reliability_budgeted(
    ud: &UnreliableDatabase,
    formula: &Formula,
    free_vars: &[String],
    eps: f64,
    delta: f64,
    budget: &Budget,
    seed: u64,
    threads: usize,
) -> Result<ApproxOutcome, QrelError> {
    {
        let mut sorted = free_vars.to_vec();
        sorted.sort();
        assert_eq!(sorted, formula.free_vars(), "free-variable order mismatch");
    }
    let (work_formula, flipped) = match formula.fragment() {
        Fragment::Universal => (Formula::not(formula.clone()).to_nnf(), true),
        _ => (formula.clone(), false),
    };

    let db = ud.observed();
    let k = free_vars.len();
    let tuples: Vec<Vec<u32>> = db.universe().tuples(k).collect();
    let nk = tuples.len().max(1);
    let per_eps = (eps / nk as f64).max(1e-9);
    let per_delta = (delta / nk as f64).min(0.5);

    let mut h = 0.0f64;
    for (done, tuple) in tuples.iter().enumerate() {
        let bindings: HashMap<String, u32> = free_vars
            .iter()
            .cloned()
            .zip(tuple.iter().copied())
            .collect();
        let observed = eval_formula(db, formula, &bindings)?;
        let (grounding, probs) = match ground_with_probabilities_budgeted(
            ud,
            &work_formula,
            &bindings,
            DEFAULT_MAX_TERMS,
            budget,
        ) {
            Ok(x) => x,
            Err(
                QrelError::BudgetExhausted(cause)
                | QrelError::Timeout(cause)
                | QrelError::Cancelled(cause),
            ) => {
                return Ok(ApproxOutcome::Exhausted {
                    partial_expected_error: h,
                    tuples_done: done,
                    tuples_total: nk,
                    cause,
                });
            }
            Err(e) => return Err(e),
        };
        let kl = KarpLuby::new(&grounding.dnf, &probs);
        let (rep, exhausted) = kl.run_eps_delta(
            per_eps,
            per_delta,
            budget,
            split_seed(seed, done as u64),
            threads,
        );
        let nu_hat = rep.estimate.clamp(0.0, 1.0);
        let nu_psi = if flipped { 1.0 - nu_hat } else { nu_hat };
        let h_tuple = if observed { 1.0 - nu_psi } else { nu_psi };
        h += h_tuple.clamp(0.0, 1.0);
        if let Some(cause) = exhausted {
            return Ok(ApproxOutcome::Exhausted {
                partial_expected_error: h,
                tuples_done: done,
                tuples_total: nk,
                cause,
            });
        }
    }

    Ok(ApproxOutcome::Complete(ApproxReport {
        expected_error: h,
        reliability: 1.0 - h / nk as f64,
        tuples: nk,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_reliability;
    use qrel_arith::BigRational;
    use qrel_db::DatabaseBuilder;
    use qrel_eval::FoQuery;
    use qrel_logic::parser::parse_formula;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    fn setup() -> UnreliableDatabase {
        let db = DatabaseBuilder::new()
            .universe_size(3)
            .relation("E", 2)
            .relation("S", 1)
            .tuples("E", [vec![0, 1], vec![1, 2]])
            .tuples("S", [vec![0], vec![2]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_relation_error("S", r(1, 5)).unwrap();
        ud.set_relation_error("E", r(1, 10)).unwrap();
        ud
    }

    fn check(src: &str, free: &[&str]) {
        let ud = setup();
        let f = parse_formula(src).unwrap();
        let free: Vec<String> = free.iter().map(|s| s.to_string()).collect();
        let exact =
            exact_reliability(&ud, &FoQuery::with_free_order(f.clone(), free.clone())).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let approx = approximate_reliability(&ud, &f, &free, 0.05, 0.05, &mut rng).unwrap();
        let exact_rel = exact.reliability.to_f64();
        assert!(
            (approx.reliability - exact_rel).abs() <= 0.05,
            "{src}: approx {} vs exact {exact_rel}",
            approx.reliability
        );
    }

    #[test]
    fn boolean_existential() {
        check("exists x y. E(x,y) & S(x)", &[]);
    }

    #[test]
    fn boolean_universal() {
        check("forall x y. E(x,y) -> (S(x) | S(y))", &[]);
        check("forall x y. E(x,y) -> x != y", &[]);
    }

    #[test]
    fn mixed_quantifiers_rejected() {
        // ∀x (S(x) ∨ ∃y E(x,y)) is neither existential nor universal —
        // the corollary does not apply and the pipeline must say so.
        let ud = setup();
        let f = parse_formula("forall x. S(x) | exists y. E(x,y)").unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        assert!(approximate_reliability(&ud, &f, &[], 0.1, 0.1, &mut rng).is_err());
    }

    #[test]
    fn unary_existential_query() {
        check("exists y. E(x,y) & S(y)", &["x"]);
    }

    #[test]
    fn binary_query_budget_split() {
        let ud = setup();
        let f = parse_formula("exists z. E(x,z) & E(z,y)").unwrap();
        let free = vec!["x".to_string(), "y".to_string()];
        let mut rng = StdRng::seed_from_u64(3);
        let rep = approximate_reliability(&ud, &f, &free, 0.1, 0.1, &mut rng).unwrap();
        assert_eq!(rep.tuples, 9);
        let exact = exact_reliability(&ud, &FoQuery::with_free_order(f, free)).unwrap();
        assert!((rep.reliability - exact.reliability.to_f64()).abs() <= 0.1);
    }

    #[test]
    fn deterministic_database_gives_exact_answer() {
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("S", 1)
            .tuples("S", [vec![0]])
            .build();
        let ud = UnreliableDatabase::reliable(db);
        let f = parse_formula("exists x. S(x)").unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let rep = approximate_reliability(&ud, &f, &[], 0.01, 0.01, &mut rng).unwrap();
        assert_eq!(rep.reliability, 1.0);
        assert_eq!(rep.expected_error, 0.0);
    }

    #[test]
    fn budgeted_is_thread_count_invariant() {
        let ud = setup();
        let f = parse_formula("exists y. E(x,y) & S(y)").unwrap();
        let free = vec!["x".to_string()];
        let run = |threads: usize| {
            approximate_reliability_budgeted(
                &ud,
                &f,
                &free,
                0.1,
                0.1,
                &Budget::unlimited(),
                77,
                threads,
            )
            .unwrap()
        };
        let base = run(1);
        match &base {
            ApproxOutcome::Complete(rep) => {
                assert_eq!(rep.tuples, 3);
                assert!((0.0..=1.0).contains(&rep.reliability));
            }
            other => panic!("expected completion, got {other:?}"),
        }
        for threads in [2usize, 4] {
            assert_eq!(run(threads), base);
        }
    }

    #[test]
    fn serial_is_the_budgeted_run_at_a_drawn_seed() {
        use rand::Rng;
        let ud = setup();
        let f = parse_formula("exists y. E(x,y) & S(y)").unwrap();
        let free = vec!["x".to_string()];
        for s in [0u64, 5] {
            let serial =
                approximate_reliability(&ud, &f, &free, 0.2, 0.2, &mut StdRng::seed_from_u64(s))
                    .unwrap();
            let seed = StdRng::seed_from_u64(s).gen::<u64>();
            for threads in [1usize, 4] {
                let budget = Budget::unlimited();
                let prod = match approximate_reliability_budgeted(
                    &ud, &f, &free, 0.2, 0.2, &budget, seed, threads,
                )
                .unwrap()
                {
                    ApproxOutcome::Complete(rep) => rep,
                    other => panic!("expected Complete, got {other:?}"),
                };
                assert_eq!(prod.reliability.to_bits(), serial.reliability.to_bits());
                assert_eq!(
                    prod.expected_error.to_bits(),
                    serial.expected_error.to_bits()
                );
                assert_eq!(prod.tuples, serial.tuples);
            }
        }
    }

    #[test]
    fn budgeted_sample_cap_trips_deterministically() {
        let ud = setup();
        let f = parse_formula("exists y. E(x,y) & S(y)").unwrap();
        let free = vec!["x".to_string()];
        let run = |threads: usize| {
            let budget = Budget::unlimited().with_max_samples(100);
            approximate_reliability_budgeted(&ud, &f, &free, 0.05, 0.05, &budget, 78, threads)
                .unwrap()
        };
        let base = run(1);
        match &base {
            ApproxOutcome::Exhausted {
                partial_expected_error,
                tuples_done,
                tuples_total,
                cause,
            } => {
                // The per-tuple (ε/n, δ/n) split needs thousands of
                // samples; the cap trips partway with partial sums intact.
                assert!(tuples_done < tuples_total);
                assert_eq!(*tuples_total, 3);
                assert!((0.0..=*tuples_total as f64).contains(partial_expected_error));
                assert_eq!(cause.resource, qrel_budget::Resource::Samples);
            }
            other => panic!("sample cap should have tripped, got {other:?}"),
        }
        for threads in [2usize, 4] {
            assert_eq!(run(threads), base);
        }
    }

    #[test]
    #[should_panic(expected = "free-variable order mismatch")]
    fn free_var_validation() {
        let ud = setup();
        let f = parse_formula("exists y. E(x,y)").unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let _ = approximate_reliability(&ud, &f, &[], 0.1, 0.1, &mut rng);
    }
}
