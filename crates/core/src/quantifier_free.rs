//! Exact polynomial-time reliability for quantifier-free queries
//! (Proposition 3.1, due to de Rougemont).
//!
//! For a k-ary quantifier-free `ψ`, linearity of expectation gives
//! `H_ψ = Σ_ā H_{ψ(ā)}`. Each instantiated `ψ(ā)` mentions only a fixed
//! number `n(ψ)` of atomic statements (independent of the database), so
//! `H_{ψ(ā)}` is computed exactly by enumerating the `2^{n(ψ)}` truth
//! assignments to those atoms, weighting each by its probability under
//! `ν` — constant work per tuple, `O(n^k)` overall.

use qrel_arith::BigRational;
use qrel_budget::{Budget, Exhausted, Resource};
use qrel_db::{Element, Fact};
use qrel_eval::{resolve_const, EvalError};
use qrel_logic::{Formula, Term};
use qrel_prob::UnreliableDatabase;
use std::collections::HashMap;

/// Exact expected error and reliability of a quantifier-free query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QfReport {
    /// `H_ψ(𝔇)` — expected Hamming distance between `ψ^𝔄` and `ψ^𝔅`.
    pub expected_error: BigRational,
    /// `R_ψ(𝔇) = 1 − H_ψ/n^k`.
    pub reliability: BigRational,
    /// Arity of the query.
    pub arity: usize,
    /// Distinct atomic statements per instantiated tuple, maximized over
    /// tuples (the `n(ψ)` of the proof; drives the `2^{n(ψ)}` constant).
    pub max_atoms_per_tuple: usize,
}

/// Outcome of a budgeted quantifier-free computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QfOutcome {
    Complete(QfReport),
    /// The budget tripped mid-run. `partial_expected_error` is the exact
    /// error mass over the `tuples_done` fully-processed tuples — a
    /// lower bound on `H_ψ`, with each unprocessed tuple contributing at
    /// most 1.
    Exhausted {
        partial_expected_error: BigRational,
        tuples_done: usize,
        tuples_total: usize,
        cause: Exhausted,
    },
}

/// Compute the exact reliability of a quantifier-free query (free
/// variables in the given order).
///
/// ```
/// use qrel_core::quantifier_free::qf_reliability;
/// use qrel_arith::BigRational;
/// use qrel_db::{DatabaseBuilder, Fact};
/// use qrel_logic::parser::parse_formula;
/// use qrel_prob::UnreliableDatabase;
///
/// let db = DatabaseBuilder::new()
///     .universe_size(2)
///     .relation("S", 1)
///     .tuples("S", [vec![0]])
///     .build();
/// let mut ud = UnreliableDatabase::reliable(db);
/// ud.set_error(&Fact::new(0, vec![0]), BigRational::from_ratio(1, 4)).unwrap();
///
/// // ψ(x) = S(x): the expected error is Σ μ = 1/4, over n = 2 tuples.
/// let f = parse_formula("S(x)").unwrap();
/// let report = qf_reliability(&ud, &f, &["x".to_string()]).unwrap();
/// assert_eq!(report.expected_error, BigRational::from_ratio(1, 4));
/// assert_eq!(report.reliability, BigRational::from_ratio(7, 8));
/// ```
///
/// # Errors
/// Returns an error for unknown relations/constants or arity mismatches.
///
/// # Panics
/// Panics if `formula` is not quantifier-free or `free_vars` does not
/// cover its free variables.
pub fn qf_reliability(
    ud: &UnreliableDatabase,
    formula: &Formula,
    free_vars: &[String],
) -> Result<QfReport, EvalError> {
    match qf_reliability_budgeted(ud, formula, free_vars, &Budget::unlimited())? {
        QfOutcome::Complete(report) => Ok(report),
        QfOutcome::Exhausted { .. } => unreachable!("unlimited budget cannot trip"),
    }
}

/// [`qf_reliability`] under a cooperative [`Budget`]: each of the
/// `2^{n(ψ)}` per-tuple atom assignments charges one
/// [`Resource::Worlds`] (they are the local possible worlds of the
/// Proposition 3.1 proof), and the loop stops at the first trip with
/// exact partial sums.
pub fn qf_reliability_budgeted(
    ud: &UnreliableDatabase,
    formula: &Formula,
    free_vars: &[String],
    budget: &Budget,
) -> Result<QfOutcome, EvalError> {
    assert!(formula.is_quantifier_free(), "query is not quantifier-free");
    {
        let mut sorted = free_vars.to_vec();
        sorted.sort();
        assert_eq!(sorted, formula.free_vars(), "free-variable order mismatch");
    }
    let db = ud.observed();
    let k = free_vars.len();
    let tuples_total = db.universe().tuple_count(k);
    let mut tuples_done = 0usize;
    let mut h = BigRational::zero();
    let mut max_atoms = 0usize;

    for tuple in db.universe().tuples(k) {
        let bindings: HashMap<String, Element> = free_vars
            .iter()
            .cloned()
            .zip(tuple.iter().copied())
            .collect();
        // Collect the distinct ground atomic statements of ψ(ā).
        let mut facts: Vec<Fact> = Vec::new();
        collect_facts(ud, formula, &bindings, &mut facts)?;
        max_atoms = max_atoms.max(facts.len());

        // Truth value on the observed database.
        let observed: Vec<bool> = facts.iter().map(|f| db.holds(f)).collect();
        let value_observed = eval_qf(ud, formula, &bindings, &facts, &observed)?;

        // Enumerate the 2^{n(ψ)} assignments to the atoms of ψ(ā).
        let nu: Vec<BigRational> = facts.iter().map(|f| ud.nu(f)).collect();
        let mut err_prob = BigRational::zero();
        let mut assignment = vec![false; facts.len()];
        for mask in 0u64..(1u64 << facts.len()) {
            if let Err(cause) = budget.charge(Resource::Worlds, 1) {
                return Ok(QfOutcome::Exhausted {
                    partial_expected_error: h,
                    tuples_done,
                    tuples_total,
                    cause,
                });
            }
            let mut weight = BigRational::one();
            for (i, slot) in assignment.iter_mut().enumerate() {
                let bit = (mask >> i) & 1 == 1;
                *slot = bit;
                let p = if bit {
                    nu[i].clone()
                } else {
                    nu[i].one_minus()
                };
                if p.is_zero() {
                    weight = BigRational::zero();
                    break;
                }
                weight = weight.mul_ref(&p);
            }
            if weight.is_zero() {
                continue;
            }
            let value_actual = eval_qf(ud, formula, &bindings, &facts, &assignment)?;
            if value_actual != value_observed {
                err_prob = err_prob.add_ref(&weight);
            }
        }
        h = h.add_ref(&err_prob);
        tuples_done += 1;
    }

    let total_tuples = BigRational::from_int(tuples_total as i64);
    let reliability = if total_tuples.is_zero() {
        BigRational::one()
    } else {
        h.div_ref(&total_tuples).one_minus()
    };
    Ok(QfOutcome::Complete(QfReport {
        expected_error: h,
        reliability,
        arity: k,
        max_atoms_per_tuple: max_atoms,
    }))
}

/// Collect the distinct ground facts mentioned by a QF formula under the
/// bindings.
fn collect_facts(
    ud: &UnreliableDatabase,
    f: &Formula,
    bindings: &HashMap<String, Element>,
    out: &mut Vec<Fact>,
) -> Result<(), EvalError> {
    match f {
        Formula::True | Formula::False | Formula::Eq(..) => Ok(()),
        Formula::Atom { rel, args } => {
            let fact = resolve_atom(ud, rel, args, bindings)?;
            if !out.contains(&fact) {
                out.push(fact);
            }
            Ok(())
        }
        Formula::Not(g) => collect_facts(ud, g, bindings, out),
        Formula::And(gs) | Formula::Or(gs) => {
            for g in gs {
                collect_facts(ud, g, bindings, out)?;
            }
            Ok(())
        }
        _ => unreachable!("quantifier-free checked by caller"),
    }
}

fn resolve_term(
    ud: &UnreliableDatabase,
    t: &Term,
    bindings: &HashMap<String, Element>,
) -> Result<Element, EvalError> {
    match t {
        Term::Var(v) => bindings
            .get(v)
            .copied()
            .ok_or_else(|| EvalError::UnboundVariable(v.clone())),
        Term::Const(c) => resolve_const(ud.observed(), c),
    }
}

fn resolve_atom(
    ud: &UnreliableDatabase,
    rel: &str,
    args: &[Term],
    bindings: &HashMap<String, Element>,
) -> Result<Fact, EvalError> {
    let vocab = ud.observed().vocabulary();
    let rel_ix = vocab
        .index_of(rel)
        .ok_or_else(|| EvalError::UnknownRelation(rel.to_string()))?;
    let expected = vocab.symbols()[rel_ix].arity();
    if expected != args.len() {
        return Err(EvalError::ArityMismatch {
            rel: rel.to_string(),
            expected,
            got: args.len(),
        });
    }
    let tuple = args
        .iter()
        .map(|t| resolve_term(ud, t, bindings))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Fact::new(rel_ix, tuple))
}

/// Evaluate a ground QF formula under a truth assignment to its facts.
fn eval_qf(
    ud: &UnreliableDatabase,
    f: &Formula,
    bindings: &HashMap<String, Element>,
    facts: &[Fact],
    assignment: &[bool],
) -> Result<bool, EvalError> {
    match f {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Eq(a, b) => Ok(resolve_term(ud, a, bindings)? == resolve_term(ud, b, bindings)?),
        Formula::Atom { rel, args } => {
            let fact = resolve_atom(ud, rel, args, bindings)?;
            let i = facts.iter().position(|g| g == &fact).expect("collected");
            Ok(assignment[i])
        }
        Formula::Not(g) => Ok(!eval_qf(ud, g, bindings, facts, assignment)?),
        Formula::And(gs) => {
            for g in gs {
                if !eval_qf(ud, g, bindings, facts, assignment)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(gs) => {
            for g in gs {
                if eval_qf(ud, g, bindings, facts, assignment)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        _ => unreachable!("quantifier-free checked by caller"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrel_db::DatabaseBuilder;
    use qrel_logic::parser::parse_formula;

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    fn simple_ud() -> UnreliableDatabase {
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("S", 1)
            .relation("T", 1)
            .tuples("S", [vec![0]])
            .build();
        UnreliableDatabase::reliable(db)
    }

    #[test]
    fn fully_reliable_database_has_reliability_one() {
        let ud = simple_ud();
        let f = parse_formula("S(x) & !T(x)").unwrap();
        let rep = qf_reliability(&ud, &f, &["x".to_string()]).unwrap();
        assert_eq!(rep.expected_error, BigRational::zero());
        assert_eq!(rep.reliability, BigRational::one());
        assert_eq!(rep.max_atoms_per_tuple, 2);
    }

    #[test]
    fn single_atom_error_is_mu() {
        // ψ(x) = S(x): H_{ψ(a)} = μ(S(a)), so H = Σ μ.
        let mut ud = simple_ud();
        ud.set_error(&Fact::new(0, vec![0]), r(1, 4)).unwrap();
        ud.set_error(&Fact::new(0, vec![1]), r(1, 8)).unwrap();
        let f = parse_formula("S(x)").unwrap();
        let rep = qf_reliability(&ud, &f, &["x".to_string()]).unwrap();
        assert_eq!(rep.expected_error, r(3, 8));
        assert_eq!(rep.reliability, r(3, 8).div_ref(&r(2, 1)).one_minus()); // 1 - (3/8)/2
    }

    #[test]
    fn conjunction_of_independent_atoms() {
        // ψ(x) = S(x) & T(x) at tuple 0: observed S=1,T=0 → ψ^𝔄 = false.
        // Error iff actual S ∧ T: ν(S0)·ν(T0) = (3/4)(1/3) = 1/4.
        let mut ud = simple_ud();
        ud.set_error(&Fact::new(0, vec![0]), r(1, 4)).unwrap(); // S(0): ν = 3/4
        ud.set_error(&Fact::new(1, vec![0]), r(1, 3)).unwrap(); // T(0): ν = 1/3
        let f = parse_formula("S(x) & T(x)").unwrap();
        let rep = qf_reliability(&ud, &f, &["x".to_string()]).unwrap();
        assert_eq!(rep.expected_error, r(1, 4));
    }

    #[test]
    fn boolean_qf_query() {
        // Nullary relation P with μ = 1/3: ψ = P(), H = 1/3.
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("P", 0)
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![]), r(1, 3)).unwrap();
        let f = parse_formula("P()").unwrap();
        let rep = qf_reliability(&ud, &f, &[]).unwrap();
        assert_eq!(rep.expected_error, r(1, 3));
        assert_eq!(rep.reliability, r(2, 3));
    }

    #[test]
    fn repeated_atom_not_double_counted() {
        // ψ(x) = S(x) & S(x): same single atom, H = μ.
        let mut ud = simple_ud();
        ud.set_error(&Fact::new(0, vec![0]), r(1, 4)).unwrap();
        let f = parse_formula("S(x) & S(x)").unwrap();
        let rep = qf_reliability(&ud, &f, &["x".to_string()]).unwrap();
        assert_eq!(rep.max_atoms_per_tuple, 1);
        assert_eq!(rep.expected_error, r(1, 4));
    }

    #[test]
    fn tautology_and_contradiction_are_perfectly_reliable() {
        let mut ud = simple_ud();
        ud.set_uniform_error(r(1, 2)).unwrap();
        for src in ["S(x) | !S(x)", "S(x) & !S(x)", "x = x", "true", "false"] {
            let f = parse_formula(src).unwrap();
            let rep = qf_reliability(&ud, &f, &f.free_vars()).unwrap();
            assert_eq!(rep.reliability, BigRational::one(), "query {src}");
        }
    }

    #[test]
    fn binary_query_with_equality() {
        // ψ(x,y) = E(x,y) & x != y on a 2-element db.
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("E", 2)
            .tuples("E", [vec![0, 1]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_uniform_error(r(1, 10)).unwrap();
        let f = parse_formula("E(x,y) & x != y").unwrap();
        let rep = qf_reliability(&ud, &f, &["x".to_string(), "y".to_string()]).unwrap();
        // Diagonal tuples: equality false → ψ constant false → no error.
        // Off-diagonal: error iff the E-fact flips: μ = 1/10 each, 2 tuples.
        assert_eq!(rep.expected_error, r(2, 10));
        assert_eq!(rep.reliability, r(1, 5).div_ref(&r(4, 1)).one_minus());
    }

    #[test]
    fn agrees_with_world_enumeration() {
        // Cross-check against the exact Ω(𝔇) enumeration on a small case.
        let mut ud = simple_ud();
        ud.set_uniform_error(r(1, 3)).unwrap();
        let f = parse_formula("S(x) | T(x)").unwrap();
        let rep = qf_reliability(&ud, &f, &["x".to_string()]).unwrap();

        // Direct enumeration: H = Σ_worlds ν(B) · |ψ^𝔄 Δ ψ^𝔅|.
        let q = qrel_eval::FoQuery::with_free_order(f, vec!["x".into()]);
        use qrel_eval::Query as _;
        let observed_ans = q.answers(ud.observed()).unwrap();
        let mut h = BigRational::zero();
        for (world, p) in ud.worlds() {
            let ans = q.answers(&world).unwrap();
            let diff = ans.difference(&observed_ans).len() + observed_ans.difference(&ans).len();
            h = h.add_ref(&p.mul_ref(&BigRational::from_int(diff as i64)));
        }
        assert_eq!(rep.expected_error, h);
    }

    #[test]
    fn budgeted_qf_trips_and_reports_partial() {
        let mut ud = simple_ud();
        ud.set_uniform_error(r(1, 3)).unwrap();
        let f = parse_formula("S(x) | T(x)").unwrap();
        // Each tuple enumerates 2² = 4 assignments; cap at 3 so the
        // budget trips inside the first tuple.
        let budget = Budget::unlimited().with_max_worlds(3);
        match qf_reliability_budgeted(&ud, &f, &["x".to_string()], &budget).unwrap() {
            QfOutcome::Exhausted {
                tuples_done,
                tuples_total,
                cause,
                partial_expected_error,
            } => {
                assert_eq!(tuples_done, 0);
                assert_eq!(tuples_total, 2);
                assert_eq!(cause.resource, Resource::Worlds);
                assert_eq!(partial_expected_error, BigRational::zero());
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        // And with room to spare, Complete matches the plain entry point.
        let roomy = Budget::unlimited().with_max_worlds(100);
        let full = qf_reliability(&ud, &f, &["x".to_string()]).unwrap();
        assert_eq!(
            qf_reliability_budgeted(&ud, &f, &["x".to_string()], &roomy).unwrap(),
            QfOutcome::Complete(full)
        );
    }

    #[test]
    #[should_panic(expected = "not quantifier-free")]
    fn rejects_quantified_query() {
        let ud = simple_ud();
        let f = parse_formula("exists x. S(x)").unwrap();
        let _ = qf_reliability(&ud, &f, &[]);
    }

    #[test]
    fn unknown_relation_error() {
        let ud = simple_ud();
        let f = parse_formula("Z(x)").unwrap();
        assert!(matches!(
            qf_reliability(&ud, &f, &["x".to_string()]),
            Err(EvalError::UnknownRelation(_))
        ));
    }
}
