//! FPTRAS for the probability of existential sentences (Theorem 5.4).
//!
//! The pipeline is exactly the proof's: ground the existential sentence
//! over the database (`qrel_eval::ground_existential`, quantifiers →
//! disjunctions, equalities → constants, facts → propositional
//! variables), obtaining a kDNF `ψ''` whose variables carry the
//! probabilities `ν(Rā)`; then approximate `ν(ψ'')`:
//!
//! * [`Route::ViaCounting`] — the paper's route: the Theorem 5.3
//!   reduction to #DNF followed by Karp–Luby counting;
//! * [`Route::Direct`] — the weighted Karp–Luby coverage estimator run
//!   directly on `ψ''` (equivalent guarantee, no counter blowup; used as
//!   a cross-check and in the ablation experiment).
//!
//! An exact (exponential-time) evaluation path is provided as the test
//! oracle.

use crate::prob_dnf::ProbDnfReduction;
use qrel_arith::BigRational;
use qrel_budget::{Budget, QrelError};
use qrel_count::{dnf_probability_bitslice, dnf_probability_shannon, KarpLuby};
use qrel_eval::{ground_existential_budgeted, Grounding};
use qrel_logic::Formula;
use qrel_prob::UnreliableDatabase;
use rand::Rng;
use std::collections::HashMap;

/// Default budget for the grounded DNF size. The grounding of a fixed
/// existential query has polynomially many terms in `n`; this cap only
/// trips on adversarial formula/database combinations.
pub const DEFAULT_MAX_TERMS: usize = 1_000_000;

/// Which algorithm approximates the grounded kDNF probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Weighted Karp–Luby directly on the grounded DNF.
    Direct,
    /// The paper's Theorem 5.3 reduction to #DNF, then Karp–Luby counting.
    ViaCounting,
}

/// Ground a (possibly non-sentence) existential formula and pair each
/// propositional variable with its fact probability `ν`.
pub fn ground_with_probabilities(
    ud: &UnreliableDatabase,
    formula: &Formula,
    bindings: &HashMap<String, u32>,
    max_terms: usize,
) -> Result<(Grounding, Vec<BigRational>), QrelError> {
    ground_with_probabilities_budgeted(ud, formula, bindings, max_terms, &Budget::unlimited())
}

/// [`ground_with_probabilities`] under a cooperative [`Budget`].
pub fn ground_with_probabilities_budgeted(
    ud: &UnreliableDatabase,
    formula: &Formula,
    bindings: &HashMap<String, u32>,
    max_terms: usize,
    budget: &Budget,
) -> Result<(Grounding, Vec<BigRational>), QrelError> {
    let grounding =
        ground_existential_budgeted(ud.observed(), formula, bindings, max_terms, budget)?;
    let probs = grounding.facts.iter().map(|f| ud.nu(f)).collect();
    Ok((grounding, probs))
}

/// Exact `ν(ψ)` — probability that the existential sentence holds in the
/// actual database — via grounding + exact Prob-DNF. Exponential-time
/// oracle for the FPTRAS.
pub fn existential_probability_exact(
    ud: &UnreliableDatabase,
    formula: &Formula,
) -> Result<BigRational, QrelError> {
    let (grounding, probs) =
        ground_with_probabilities(ud, formula, &HashMap::new(), DEFAULT_MAX_TERMS)?;
    Ok(dnf_probability_shannon(&grounding.dnf, &probs))
}

/// Exact `ν(ψ)` via grounding + bit-sliced world enumeration
/// (`qrel_count::bitslice`): 64 worlds per instruction, dyadic fixed-width
/// arithmetic promoting to `BigRational` on overflow. Bit-identical to
/// [`existential_probability_exact`] — an independent exact engine, and
/// the fast path for lineages up to ~30 fact-variables.
pub fn existential_probability_bitslice(
    ud: &UnreliableDatabase,
    formula: &Formula,
) -> Result<BigRational, QrelError> {
    let (grounding, probs) =
        ground_with_probabilities(ud, formula, &HashMap::new(), DEFAULT_MAX_TERMS)?;
    Ok(dnf_probability_bitslice(&grounding.dnf, &probs))
}

/// The Theorem 5.4 FPTRAS: estimate `ν(ψ)` for an existential sentence
/// with relative error `ε` at confidence `1 − δ`.
pub fn existential_probability_fptras<R: Rng>(
    ud: &UnreliableDatabase,
    formula: &Formula,
    eps: f64,
    delta: f64,
    route: Route,
    rng: &mut R,
) -> Result<f64, QrelError> {
    let (grounding, probs) =
        ground_with_probabilities(ud, formula, &HashMap::new(), DEFAULT_MAX_TERMS)?;
    estimate_grounding(&grounding, &probs, eps, delta, route, rng)
}

/// Estimate the probability of an already-grounded formula.
pub fn estimate_grounding<R: Rng>(
    grounding: &Grounding,
    probs: &[BigRational],
    eps: f64,
    delta: f64,
    route: Route,
    rng: &mut R,
) -> Result<f64, QrelError> {
    match route {
        Route::Direct => {
            let kl = KarpLuby::new(&grounding.dnf, probs);
            Ok(kl.run(eps, delta, rng).estimate.clamp(0.0, 1.0))
        }
        Route::ViaCounting => {
            let red = ProbDnfReduction::new(&grounding.dnf, probs)?;
            Ok(red.estimate(eps, delta, rng))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrel_db::{DatabaseBuilder, Fact};
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
            .tuples("S", [vec![0]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_relation_error("E", r(1, 8)).unwrap();
        ud.set_relation_error("S", r(1, 4)).unwrap();
        ud
    }

    #[test]
    fn exact_matches_world_enumeration() {
        // The grounding-based exact probability must equal the Thm 4.2
        // world-enumeration probability — two completely different paths.
        let ud = setup();
        for src in [
            "exists x. S(x)",
            "exists x y. E(x,y) & S(x)",
            "exists x y. E(x,y) & !S(y) & x != y",
            "exists x y z. E(x,y) & E(y,z) & S(z)",
        ] {
            let f = parse_formula(src).unwrap();
            let via_ground = existential_probability_exact(&ud, &f).unwrap();
            let q = FoQuery::new(f);
            let via_worlds = crate::exact::exact_probability(&ud, &q).unwrap();
            assert_eq!(via_ground, via_worlds, "query {src}");
        }
    }

    #[test]
    fn bitslice_matches_exact_bit_for_bit() {
        // The bit-sliced enumerator is a third independent exact path;
        // it must reproduce the Shannon result structurally
        // (gcd-normalized rationals compare equal).
        let ud = setup();
        for src in [
            "exists x. S(x)",
            "exists x y. E(x,y) & S(x)",
            "exists x y. E(x,y) & !S(y) & x != y",
            "exists x y z. E(x,y) & E(y,z) & S(z)",
        ] {
            let f = parse_formula(src).unwrap();
            let exact = existential_probability_exact(&ud, &f).unwrap();
            assert_eq!(
                existential_probability_bitslice(&ud, &f).unwrap(),
                exact,
                "bitslice vs shannon, query {src}"
            );
        }
    }

    #[test]
    fn fptras_both_routes_close_to_exact() {
        let ud = setup();
        let f = parse_formula("exists x y. E(x,y) & S(x)").unwrap();
        let exact = existential_probability_exact(&ud, &f).unwrap().to_f64();
        let mut rng = StdRng::seed_from_u64(77);
        for route in [Route::Direct, Route::ViaCounting] {
            let est = existential_probability_fptras(&ud, &f, 0.05, 0.02, route, &mut rng).unwrap();
            assert!(
                (est - exact).abs() <= 0.05 * exact + 0.02,
                "{route:?}: estimate {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn deterministic_sentence_probability_zero_or_one() {
        // No uncertainty at all: probabilities collapse to truth values.
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("S", 1)
            .tuples("S", [vec![0]])
            .build();
        let ud = UnreliableDatabase::reliable(db);
        let t = parse_formula("exists x. S(x)").unwrap();
        assert_eq!(
            existential_probability_exact(&ud, &t).unwrap(),
            BigRational::one()
        );
        let f = parse_formula("exists x. S(x) & !S(x)").unwrap();
        assert_eq!(
            existential_probability_exact(&ud, &f).unwrap(),
            BigRational::zero()
        );
    }

    #[test]
    fn conjunctive_query_prob_matches_hand_computation() {
        // ψ = ∃x S(x) on a 1-element db with ν(S(0)) = 1/4 (observed off,
        // μ = 1/4): Pr = 1/4.
        let db = DatabaseBuilder::new()
            .universe_size(1)
            .relation("S", 1)
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(1, 4)).unwrap();
        let f = parse_formula("exists x. S(x)").unwrap();
        assert_eq!(existential_probability_exact(&ud, &f).unwrap(), r(1, 4));
    }

    #[test]
    fn universal_rejected() {
        let ud = setup();
        let f = parse_formula("forall x. S(x)").unwrap();
        assert!(matches!(
            existential_probability_exact(&ud, &f),
            Err(QrelError::Unsupported(_))
        ));
    }

    #[test]
    fn budgeted_grounding_is_a_hard_error_when_terms_capped() {
        use qrel_budget::Resource;
        let ud = setup();
        let f = parse_formula("exists x y. E(x,y) & S(x)").unwrap();
        // One term of grounding budget: trips before any estimate exists.
        let budget = Budget::unlimited().with_max_terms(1);
        match ground_with_probabilities_budgeted(
            &ud,
            &f,
            &HashMap::new(),
            DEFAULT_MAX_TERMS,
            &budget,
        ) {
            Err(QrelError::BudgetExhausted(e)) => assert_eq!(e.resource, Resource::Terms),
            other => panic!("expected terms exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn bindings_flow_through() {
        let ud = setup();
        let f = parse_formula("exists y. E(x, y)").unwrap();
        let mut b = HashMap::new();
        b.insert("x".to_string(), 2u32);
        let (g, probs) = ground_with_probabilities(&ud, &f, &b, DEFAULT_MAX_TERMS).unwrap();
        // Row x=2 has no observed out-edges; each of 3 candidate facts has
        // ν = 1/8: Pr = 1 − (7/8)³.
        let p = dnf_probability_shannon(&g.dnf, &probs);
        assert_eq!(p, r(7, 8).pow(3).one_minus());
    }
}
