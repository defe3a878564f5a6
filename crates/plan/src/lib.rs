//! # qrel-plan — the safe-plan compiler
//!
//! The dichotomy literature (Amarilli–Kimelfeld, building on
//! Dalvi–Suciu) splits self-join-free queries into *hierarchical*
//! shapes, whose probability factors through independence into a
//! polynomial-time extensional plan, and everything else, which is
//! #P-hard. This crate implements the tractable side for the
//! unreliable-database model of Grädel–Gurevich–Hirsch:
//!
//! * [`compile()`][fn@compile] detects hierarchical, self-join-free shapes (including
//!   negation, `∀` via complement, disjunction, and equality atoms) and
//!   emits a symbolic [`Plan`] — independent join/union/project plus
//!   complement over atom leaves;
//! * [`eval::sentence_probability`]/[`eval::reliability`] evaluate a
//!   plan *exactly* straight over the fact marginals `ν`, never
//!   materializing worlds or lineage: each call binds the plan to the
//!   database (relation ids, dense fact offsets, variable slots), then
//!   walks it in `u128` ratios that fall back to `BigRational` once a
//!   product overflows; [`eval::reliability_until`] stops at a caller's
//!   signal with an exact partial sum;
//! * [`Unsafe`] reports *why* a declined query is outside the safe
//!   class, so `Method::Auto` can fall back to the enumeration/sampling
//!   ladder with a diagnosable trace;
//! * [`pairwise_hierarchical`] is an independent implementation of the
//!   classical hierarchy condition, kept deliberately separate from the
//!   compiler so the differential harness can cross-check safety
//!   classifications.

pub mod compile;
pub mod eval;
pub mod hierarchy;
pub mod ir;
#[cfg(test)]
mod referee;

pub use compile::{compile, Unsafe};
pub use eval::{reliability, reliability_until, sentence_probability, PlanOutcome, PlanReport};
pub use hierarchy::pairwise_hierarchical;
pub use ir::Plan;

#[cfg(test)]
mod tests {
    use super::*;
    use qrel_arith::BigRational;
    use qrel_core::{exact_probability, exact_reliability};
    use qrel_db::{Database, DatabaseBuilder, Fact};
    use qrel_eval::FoQuery;
    use qrel_logic::parser::parse_formula;
    use qrel_prob::UnreliableDatabase;

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    /// 3 elements; S = {0, 2}, T = {1}, E = {(0,1), (1,2)}; every S/T/E
    /// fact uncertain with assorted error rates — 3 + 3 + 9 = 15
    /// uncertain facts would be 2^15 worlds for the enumerator, so keep
    /// only a handful uncertain.
    fn fixture() -> UnreliableDatabase {
        let db: Database = DatabaseBuilder::new()
            .universe_size(3)
            .relation("S", 1)
            .relation("T", 1)
            .relation("E", 2)
            .tuples("S", [vec![0], vec![2]])
            .tuples("T", [vec![1]])
            .tuples("E", [vec![0, 1], vec![1, 2]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(1, 4)).unwrap();
        ud.set_error(&Fact::new(0, vec![1]), r(1, 3)).unwrap();
        ud.set_error(&Fact::new(1, vec![1]), r(1, 5)).unwrap();
        ud.set_error(&Fact::new(2, vec![0, 1]), r(1, 2)).unwrap();
        ud.set_error(&Fact::new(2, vec![2, 0]), r(1, 7)).unwrap();
        ud
    }

    /// Probability and reliability from the plan must be bit-equal to
    /// the Theorem 4.2 world enumerator on every safe query.
    fn assert_matches_enumerator(src: &str) {
        let ud = fixture();
        let q = FoQuery::parse(src).unwrap();
        let plan = compile(q.formula()).unwrap_or_else(|u| panic!("{src}: declined: {u}"));
        let rep = reliability(&ud, &plan, q.formula(), q.free_vars()).unwrap();
        let oracle = exact_reliability(&ud, &q).unwrap();
        assert_eq!(
            rep.reliability, oracle.reliability,
            "{src}: plan reliability diverges from enumerator"
        );
        assert_eq!(rep.expected_error, oracle.expected_error, "{src}");
        if q.free_vars().is_empty() {
            let p = sentence_probability(&ud, &plan).unwrap();
            let p_oracle = exact_probability(&ud, &q).unwrap();
            assert_eq!(p, p_oracle, "{src}: plan probability diverges");
        }
    }

    #[test]
    fn safe_queries_match_the_enumerator() {
        for src in [
            "exists x. S(x)",
            "exists x y. (S(x) & E(x, y))",
            "exists x y. (E(x, y) & T(y))",
            "exists x y z. (S(x) & E(y, z))",
            "exists x. (S(x) | T(x))",
            "exists x. (S(x) & !T(x))",
            "forall x. S(x)",
            "forall x. (S(x) | T(x))",
            "exists x. (S(x) & (forall y. E(x, y)))",
            "!(exists x. S(x))",
            "exists x. (S(x) & x = 'e1')",
            "exists x y. (E(x, y) & x = y)",
            "exists x. (T('e1') & S(x))",
            "S(x)",
            "S(x) & !T(y)",
            "exists y. E(x, y)",
            "true",
            "false",
        ] {
            assert_matches_enumerator(src);
        }
    }

    #[test]
    fn unsafe_shapes_are_declined_with_reasons() {
        // The H₀ pattern — the dichotomy theorem's hard query.
        let h0 = parse_formula("exists x y. (S(x) & E(x, y) & T(y))").unwrap();
        assert!(matches!(compile(&h0), Err(Unsafe::NonHierarchical { .. })));
        // Self-join.
        let sj = parse_formula("exists x y. (S(x) & S(y))").unwrap();
        assert!(matches!(compile(&sj), Err(Unsafe::SelfJoin { rel }) if rel == "S"));
        // Second-order.
        let so = qrel_logic::Formula::ExistsRel(
            "X".into(),
            1,
            Box::new(parse_formula("exists x. X(x)").unwrap()),
        );
        assert_eq!(compile(&so), Err(Unsafe::SecondOrder));
    }

    #[test]
    fn declined_queries_fail_the_independent_hierarchy_test_too() {
        let h0 = parse_formula("exists x y. (S(x) & E(x, y) & T(y))").unwrap();
        assert_eq!(pairwise_hierarchical(&h0), Some(false));
        let chain = parse_formula("exists x y. (S(x) & E(x, y))").unwrap();
        assert_eq!(pairwise_hierarchical(&chain), Some(true));
        // Star: one root variable shared by all atoms.
        let star = parse_formula("exists x y z. (E(x, y) & E2(x, z))").unwrap();
        assert_eq!(pairwise_hierarchical(&star), Some(true));
        assert!(compile(&star).is_ok());
        // Out of fragment: the pairwise test abstains.
        let dj = parse_formula("exists x. (S(x) | T(x))").unwrap();
        assert_eq!(pairwise_hierarchical(&dj), None);
    }

    #[test]
    fn plan_render_is_deterministic_and_readable() {
        let f = parse_formula("exists x y. (S(x) & E(x, y))").unwrap();
        let plan = compile(&f).unwrap();
        assert_eq!(
            plan.render(),
            "project x\n  join\n    atom S(x)\n    project y\n      atom E(x, y)"
        );
        let neg = parse_formula("forall x. S(x)").unwrap();
        assert_eq!(
            compile(&neg).unwrap().render(),
            "complement\n  project x\n    neg-atom S(x)"
        );
    }

    #[test]
    fn vacuous_quantifiers_and_empty_universes() {
        // ∃x ⊤ is true iff the universe is nonempty.
        let f = parse_formula("exists x. true").unwrap();
        let plan = compile(&f).unwrap();
        assert!(matches!(plan, Plan::Guard(_)));
        let ud = fixture();
        assert_eq!(sentence_probability(&ud, &plan).unwrap(), r(1, 1));
        let empty = UnreliableDatabase::reliable(
            DatabaseBuilder::new()
                .universe_size(0)
                .relation("S", 1)
                .build(),
        );
        assert_eq!(sentence_probability(&empty, &plan).unwrap(), r(0, 1));
        // ∃x S(c) — vacuous x next to a real atom.
        let g = parse_formula("exists x. S('e1')").unwrap();
        assert!(compile(&g).is_ok());
    }

    #[test]
    fn certain_facts_pin_leaf_probabilities() {
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("S", 1)
            .tuples("S", [vec![0]])
            .build();
        let ud = UnreliableDatabase::reliable(db);
        let plan = compile(&parse_formula("exists x. S(x)").unwrap()).unwrap();
        assert_eq!(sentence_probability(&ud, &plan).unwrap(), r(1, 1));
        let plan_neg = compile(&parse_formula("forall x. !S(x)").unwrap()).unwrap();
        assert_eq!(sentence_probability(&ud, &plan_neg).unwrap(), r(0, 1));
    }

    #[test]
    fn node_count_counts_every_node() {
        let f = parse_formula("exists x y. (S(x) & E(x, y))").unwrap();
        // project x → join → (atom S, project y → atom E) = 5 nodes.
        assert_eq!(compile(&f).unwrap().node_count(), 5);
    }
}
