//! The reference model checker: a direct tree-walking interpreter with
//! a `HashMap` environment, kept independent of the compiled evaluator
//! in `qrel_eval::fo` so the oracle can referee it. It is the
//! interpreter the workspace used before evaluation was compiled, its
//! evaluation code (constant rule included) unchanged; production code
//! does not call it.
//!
//! [`exact_reliability`] pairs it with the independent product weights
//! of [`UnreliableDatabase::worlds`] to referee the Theorem 4.2
//! enumerator (`qrel_core::exact_reliability`), which runs on the
//! compiled evaluator and the integer Gray-code weights.

use qrel_arith::BigRational;
use qrel_db::{Database, Element, Relation};
use qrel_eval::EvalError;
use qrel_logic::{Formula, Term};
use qrel_prob::UnreliableDatabase;
use std::collections::HashMap;

/// Guard: a second-order quantifier enumerates `2^(n^arity)` relations;
/// refuse beyond this many candidate tuples (i.e. `n^arity > guard`).
const SO_GUARD_TUPLES: usize = 20;

/// Resolve a constant name to an element: first as a universe element
/// name, then as a numeric index.
fn resolve_const(db: &Database, name: &str) -> Result<Element, EvalError> {
    if let Some(e) = db.universe().lookup(name) {
        return Ok(e);
    }
    if let Ok(i) = name.parse::<u32>() {
        if (i as usize) < db.size() {
            return Ok(i);
        }
    }
    Err(EvalError::UnknownConstant(name.to_string()))
}

struct Evaluator<'a> {
    db: &'a Database,
    /// First-order environment.
    env: HashMap<String, Element>,
    /// Second-order environment: relation variables bound by ∃X/∀X.
    rel_env: HashMap<String, Relation>,
}

impl<'a> Evaluator<'a> {
    fn term(&self, t: &Term) -> Result<Element, EvalError> {
        match t {
            Term::Var(v) => self
                .env
                .get(v)
                .copied()
                .ok_or_else(|| EvalError::UnboundVariable(v.clone())),
            Term::Const(c) => resolve_const(self.db, c),
        }
    }

    fn eval(&mut self, f: &Formula) -> Result<bool, EvalError> {
        match f {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::Eq(a, b) => Ok(self.term(a)? == self.term(b)?),
            Formula::Atom { rel, args } => {
                let tuple: Vec<Element> = args
                    .iter()
                    .map(|t| self.term(t))
                    .collect::<Result<_, _>>()?;
                if let Some(r) = self.rel_env.get(rel) {
                    if r.arity() != tuple.len() {
                        return Err(EvalError::ArityMismatch {
                            rel: rel.clone(),
                            expected: r.arity(),
                            got: tuple.len(),
                        });
                    }
                    return Ok(r.contains(&tuple));
                }
                match self.db.vocabulary().index_of(rel) {
                    Some(i) => {
                        let r = self.db.relation(i);
                        if r.arity() != tuple.len() {
                            return Err(EvalError::ArityMismatch {
                                rel: rel.clone(),
                                expected: r.arity(),
                                got: tuple.len(),
                            });
                        }
                        Ok(r.contains(&tuple))
                    }
                    None => Err(EvalError::UnknownRelation(rel.clone())),
                }
            }
            Formula::Not(g) => Ok(!self.eval(g)?),
            Formula::And(gs) => {
                for g in gs {
                    if !self.eval(g)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(gs) => {
                for g in gs {
                    if self.eval(g)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Formula::Exists(vars, body) => self.eval_fo_quant(vars, body, true),
            Formula::Forall(vars, body) => self.eval_fo_quant(vars, body, false),
            Formula::ExistsRel(x, k, body) => self.eval_so_quant(x, *k, body, true),
            Formula::ForallRel(x, k, body) => self.eval_so_quant(x, *k, body, false),
        }
    }

    /// Quantifier over element tuples: short-circuiting search.
    fn eval_fo_quant(
        &mut self,
        vars: &[String],
        body: &Formula,
        existential: bool,
    ) -> Result<bool, EvalError> {
        let shadowed: Vec<(String, Option<Element>)> = vars
            .iter()
            .map(|v| (v.clone(), self.env.get(v).copied()))
            .collect();
        let mut result = !existential;
        for tuple in self.db.universe().tuples(vars.len()) {
            for (v, e) in vars.iter().zip(tuple.iter()) {
                self.env.insert(v.clone(), *e);
            }
            let b = self.eval(body)?;
            if b == existential {
                result = existential;
                break;
            }
        }
        for (v, old) in shadowed {
            match old {
                Some(e) => {
                    self.env.insert(v, e);
                }
                None => {
                    self.env.remove(&v);
                }
            }
        }
        Ok(result)
    }

    /// Second-order quantifier: enumerate all relations of the arity.
    fn eval_so_quant(
        &mut self,
        x: &str,
        arity: usize,
        body: &Formula,
        existential: bool,
    ) -> Result<bool, EvalError> {
        let n = self.db.size();
        let tuples: Vec<Vec<Element>> = self.db.universe().tuples(arity).collect();
        if tuples.len() > SO_GUARD_TUPLES {
            return Err(EvalError::SecondOrderTooLarge {
                rel: x.to_string(),
                arity,
                universe: n,
            });
        }
        let old = self.rel_env.remove(x);
        let mut result = !existential;
        for mask in 0u64..(1u64 << tuples.len()) {
            let rel = Relation::from_tuples(
                arity,
                tuples
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (mask >> i) & 1 == 1)
                    .map(|(_, t)| t.clone()),
            );
            self.rel_env.insert(x.to_string(), rel);
            let b = self.eval(body)?;
            if b == existential {
                result = existential;
                break;
            }
        }
        match old {
            Some(r) => {
                self.rel_env.insert(x.to_string(), r);
            }
            None => {
                self.rel_env.remove(x);
            }
        }
        Ok(result)
    }
}

/// Evaluate a formula under an explicit variable binding.
fn eval_formula(
    db: &Database,
    formula: &Formula,
    bindings: &HashMap<String, Element>,
) -> Result<bool, EvalError> {
    let mut ev = Evaluator {
        db,
        env: bindings.clone(),
        rel_env: HashMap::new(),
    };
    ev.eval(formula)
}

/// Compute the answer set `ψ^𝔄 = {ā ∈ A^k : 𝔄 ⊨ ψ(ā)}` where the free
/// variables are taken in the given order (the query's tuple order).
pub fn query_answers(
    db: &Database,
    formula: &Formula,
    free_vars: &[String],
) -> Result<Relation, EvalError> {
    let mut out = Relation::new(free_vars.len());
    let mut bindings = HashMap::new();
    for tuple in db.universe().tuples(free_vars.len()) {
        bindings.clear();
        for (v, e) in free_vars.iter().zip(tuple.iter()) {
            bindings.insert(v.clone(), *e);
        }
        if eval_formula(db, formula, &bindings)? {
            out.insert(tuple);
        }
    }
    Ok(out)
}

/// `(H, R, worlds)` for the query `formula` with free variables `free`:
/// `H = Σ_𝔅 ν(𝔅)·|ψ^𝔄 Δ ψ^𝔅|` over [`UnreliableDatabase::worlds`] (each
/// world's probability an independent product of its facts' `ν`), with
/// answer sets from [`query_answers`], and `R = 1 − H/n^k`.
pub fn exact_reliability(
    ud: &UnreliableDatabase,
    formula: &Formula,
    free: &[String],
) -> Result<(BigRational, BigRational, u64), EvalError> {
    let observed = query_answers(ud.observed(), formula, free)?;
    let mut h = BigRational::zero();
    let mut worlds = 0u64;
    for (world, prob) in ud.worlds() {
        worlds += 1;
        let answers = query_answers(&world, formula, free)?;
        let diff = answers.difference(&observed).len() + observed.difference(&answers).len();
        h = h.add_ref(&prob.mul_ref(&BigRational::from_int(diff as i64)));
    }
    let total = BigRational::from_int(ud.observed().universe().tuple_count(free.len()) as i64);
    let reliability = if total.is_zero() {
        BigRational::one()
    } else {
        h.div_ref(&total).one_minus()
    };
    Ok((h, reliability, worlds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrel_db::{DatabaseBuilder, Fact};
    use qrel_eval::CompiledFormula;
    use qrel_logic::parser::parse_formula;

    fn graph() -> Database {
        // Path 0 -> 1 -> 2, node 3 isolated; S = {0, 2}.
        DatabaseBuilder::new()
            .universe_size(4)
            .relation("E", 2)
            .relation("S", 1)
            .tuples("E", [vec![0, 1], vec![1, 2]])
            .tuples("S", [vec![0], vec![2]])
            .build()
    }

    /// Compiled and reference evaluation of `f` on `db`, answers and
    /// errors both.
    fn agree(db: &Database, f: &Formula, free: &[&str]) -> Result<Relation, EvalError> {
        let free: Vec<String> = free.iter().map(|v| v.to_string()).collect();
        let reference = query_answers(db, f, &free);
        let compiled = CompiledFormula::new(db, f, &free).answers(db);
        assert_eq!(compiled, reference, "{f}");
        compiled
    }

    fn so(existential: bool, x: &str, arity: usize, body: &str) -> Formula {
        let body = Box::new(parse_formula(body).unwrap());
        if existential {
            Formula::ExistsRel(x.into(), arity, body)
        } else {
            Formula::ForallRel(x.into(), arity, body)
        }
    }

    #[test]
    fn second_order_quantifiers_agree() {
        let db = graph();
        for f in [
            so(true, "X", 1, "forall x. (X(x) -> S(x)) & (S(x) -> X(x))"),
            so(
                true,
                "X",
                1,
                "(exists x. X(x)) & (exists x. !X(x)) & (forall x y. X(x) & E(x,y) -> X(y))",
            ),
            so(false, "X", 1, "exists x. X(x)"),
            // A relation variable shadows the vocabulary symbol.
            so(true, "S", 1, "forall x. !S(x)"),
            // Arity mismatch against the relation variable.
            so(true, "X", 1, "exists x y. X(x, y)"),
        ] {
            let _ = agree(&db, &f, &[]);
        }
        let open = so(true, "X", 1, "X(y) & E(x, y)");
        assert_eq!(agree(&db, &open, &["x", "y"]).unwrap().len(), 2);
    }

    #[test]
    fn constants_agree() {
        let db = DatabaseBuilder::new()
            .universe_names(["ann", "bob", "cy"])
            .relation("E", 2)
            .tuples("E", [vec![0, 1], vec![1, 2]])
            .build();
        for src in [
            "E('ann', 'bob')",
            "exists x. E(x, 'cy')",
            "exists x. E(x, 2)",
            "E(0, 1) & E('bob', 2)",
            "exists x. x = 'nobody'",
            "E(x, 'cy')",
            "E(x, 7)",
        ] {
            let f = parse_formula(src).unwrap();
            let free = f.free_vars();
            let free: Vec<&str> = free.iter().map(String::as_str).collect();
            let _ = agree(&db, &f, &free);
        }
        assert_eq!(
            agree(&db, &parse_formula("E(x, 'nobody')").unwrap(), &["x"]),
            Err(EvalError::UnknownConstant("nobody".into()))
        );
    }

    #[test]
    fn second_order_guard_agrees() {
        let db = DatabaseBuilder::new()
            .universe_size(6)
            .relation("E", 2)
            .build();
        let f = so(true, "X", 2, "exists x y. X(x,y)");
        assert!(matches!(
            agree(&db, &f, &[]),
            Err(EvalError::SecondOrderTooLarge { .. })
        ));
        // Guarded only when reached: a false left conjunct skips it.
        let g = Formula::And(vec![Formula::False, f]);
        assert!(agree(&db, &g, &[]).unwrap().is_empty());
    }

    #[test]
    fn unknown_relation_behind_a_disjunction_raises_only_when_reached() {
        let f = parse_formula("exists x. (S(x) | Nope(x))").unwrap();
        // S(0) holds, so the search stops before Nope is ever read.
        assert_eq!(agree(&graph(), &f, &[]).unwrap().len(), 1);
        // With S empty the disjunction reaches Nope and raises.
        let empty = DatabaseBuilder::new()
            .universe_size(2)
            .relation("S", 1)
            .build();
        assert_eq!(
            agree(&empty, &f, &[]),
            Err(EvalError::UnknownRelation("Nope".into()))
        );
    }

    #[test]
    fn referee_matches_the_enumerator() {
        let db = graph();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![1, 2]), BigRational::from_ratio(1, 3))
            .unwrap();
        ud.set_error(&Fact::new(1, vec![3]), BigRational::from_ratio(2, 7))
            .unwrap();
        for (src, free) in [
            ("exists x y. E(x, y) & S(y)", vec![]),
            ("exists y. E(x, y)", vec!["x".to_string()]),
        ] {
            let f = parse_formula(src).unwrap();
            let (h, r, worlds) = exact_reliability(&ud, &f, &free).unwrap();
            let q = qrel_eval::FoQuery::with_free_order(f, free);
            let rep = qrel_core::exact_reliability(&ud, &q).unwrap();
            assert_eq!(
                (rep.expected_error, rep.reliability, rep.worlds),
                (h, r, worlds)
            );
        }
    }
}
