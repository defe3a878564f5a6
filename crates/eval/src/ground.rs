//! Grounding existential queries to propositional kDNF (Theorem 5.4).
//!
//! The proof of Theorem 5.4 replaces the quantifiers of an existential
//! sentence `ψ = ∃ȳ φ(ȳ)` by disjunctions over all element tuples,
//! evaluates equalities away, and reads the remaining atomic statements as
//! propositional variables. The result `ψ''` is a kDNF formula — `k`
//! bounded by the size of `φ`, *independent of the database* — of length
//! polynomial in `n`, whose probability under `ν` equals the probability
//! that `ψ` holds in a random actual database.
//!
//! Facts whose truth is fixed (`ν ∈ {0, 1}`) are constants, not random
//! variables: the grounder takes a classifier and folds such atoms to
//! `⊤`/`⊥` as it visits them. DNF conversion and simplification then
//! drop true literals and false terms, so only uncertain facts become
//! variables — and a term built only from certain facts makes `ψ''`
//! trivially true.

use qrel_budget::{Budget, Exhausted, Resource};
use qrel_db::{Database, Fact, FactIndexer};
use qrel_logic::prop::{AtomTable, Dnf, PackedDnf, PropFormula, VarId};
use qrel_logic::{Formula, Term};
use std::collections::HashMap;
use std::fmt;

use crate::fo::{resolve_const, EvalError};

/// Errors from grounding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroundError {
    /// The formula's NNF contains a universal quantifier or second-order
    /// quantifier — not an existential query.
    NotExistential,
    /// DNF conversion exceeded the supplied term budget.
    TooLarge { max_terms: usize },
    /// A cooperative [`Budget`] tripped mid-grounding.
    Budget(Exhausted),
    /// Underlying evaluation error (unknown relation/constant, arity).
    Eval(EvalError),
}

impl fmt::Display for GroundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroundError::NotExistential => {
                write!(
                    f,
                    "formula is not existential (universal or second-order quantifier)"
                )
            }
            GroundError::TooLarge { max_terms } => {
                write!(f, "grounded DNF exceeds {max_terms} terms")
            }
            GroundError::Budget(e) => write!(f, "grounding interrupted: {e}"),
            GroundError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GroundError {}

impl From<EvalError> for GroundError {
    fn from(e: EvalError) -> Self {
        GroundError::Eval(e)
    }
}

/// The result of grounding: a DNF over fact-variables.
#[derive(Debug, Clone)]
pub struct Grounding {
    /// The grounded formula `ψ''` in DNF.
    pub dnf: Dnf,
    /// Human-readable names for the variables (`R(a,b)` strings).
    pub atoms: AtomTable,
    /// The fact each propositional variable stands for, indexed by `VarId`.
    pub facts: Vec<Fact>,
}

impl Grounding {
    /// The `k` of the kDNF (maximum literals per term).
    pub fn width(&self) -> usize {
        self.dnf.width()
    }

    /// Number of distinct fact-variables.
    pub fn num_vars(&self) -> usize {
        self.facts.len()
    }

    /// Evaluate the grounded formula on a concrete database of the same
    /// format (each variable takes the truth value of its fact).
    ///
    /// A grounding folded under a classifier (see
    /// [`ground_existential_budgeted`]) no longer mentions its fixed
    /// facts, so it agrees with the sentence only on databases that give
    /// every fixed fact its classified value — for the UD it was folded
    /// for, exactly the worlds of positive probability.
    pub fn eval_on(&self, db: &Database) -> bool {
        let assignment: Vec<bool> = self.facts.iter().map(|f| db.holds(f)).collect();
        self.dnf.eval(&assignment)
    }

    /// Compile the grounded DNF to its bit-mask form (for lane-masked
    /// evaluation over packed fact assignments).
    pub fn packed_dnf(&self) -> PackedDnf {
        PackedDnf::new(&self.dnf, self.num_vars())
    }

    /// The packed counterpart of [`Self::eval_on`]'s assignment: one bit
    /// per fact-variable in [`PackedDnf`] layout.
    pub fn packed_assignment(&self, db: &Database) -> Vec<u64> {
        let mut packed = vec![0u64; self.num_vars().div_ceil(64).max(1)];
        for (v, f) in self.facts.iter().enumerate() {
            PackedDnf::set_bit(&mut packed, v, db.holds(f));
        }
        packed
    }
}

struct Grounder<'a> {
    db: &'a Database,
    budget: &'a Budget,
    /// Fixed truth of a fact (`Some(true)`/`Some(false)`), or `None`
    /// for an uncertain fact that becomes a variable.
    fixed: &'a dyn Fn(&Fact) -> Option<bool>,
    indexer: FactIndexer,
    atoms: AtomTable,
    facts: Vec<Fact>,
    by_fact_index: HashMap<usize, VarId>,
    env: HashMap<String, u32>,
}

impl<'a> Grounder<'a> {
    fn term(&self, t: &Term) -> Result<u32, GroundError> {
        match t {
            Term::Var(v) => self
                .env
                .get(v)
                .copied()
                .ok_or_else(|| GroundError::Eval(EvalError::UnboundVariable(v.clone()))),
            Term::Const(c) => resolve_const(self.db, c).map_err(GroundError::Eval),
        }
    }

    fn var_for_fact(&mut self, fact: Fact) -> VarId {
        let idx = self.indexer.index_of(&fact);
        if let Some(&v) = self.by_fact_index.get(&idx) {
            return v;
        }
        let name = fact.display(self.db.vocabulary()).to_string();
        let v = self.atoms.intern(name);
        debug_assert_eq!(v as usize, self.facts.len());
        self.facts.push(fact);
        self.by_fact_index.insert(idx, v);
        v
    }

    /// Expand an NNF existential formula into a propositional formula.
    fn expand(&mut self, f: &Formula) -> Result<PropFormula, GroundError> {
        // One checkpoint per node visit covers the n^k tuple loop of the
        // Exists case — the part of grounding that can run away.
        self.budget.checkpoint().map_err(GroundError::Budget)?;
        match f {
            Formula::True => Ok(PropFormula::Const(true)),
            Formula::False => Ok(PropFormula::Const(false)),
            Formula::Eq(a, b) => Ok(PropFormula::Const(self.term(a)? == self.term(b)?)),
            Formula::Atom { rel, args } => {
                let rel_ix =
                    self.db.vocabulary().index_of(rel).ok_or_else(|| {
                        GroundError::Eval(EvalError::UnknownRelation(rel.clone()))
                    })?;
                let expected = self.db.vocabulary().symbols()[rel_ix].arity();
                if expected != args.len() {
                    return Err(GroundError::Eval(EvalError::ArityMismatch {
                        rel: rel.clone(),
                        expected,
                        got: args.len(),
                    }));
                }
                let tuple: Vec<u32> = args
                    .iter()
                    .map(|t| self.term(t))
                    .collect::<Result<_, _>>()?;
                let fact = Fact::new(rel_ix, tuple);
                Ok(match (self.fixed)(&fact) {
                    Some(truth) => PropFormula::Const(truth),
                    None => PropFormula::Var(self.var_for_fact(fact)),
                })
            }
            Formula::Not(inner) => match inner.as_ref() {
                Formula::Atom { .. } => Ok(PropFormula::not(self.expand(inner)?)),
                Formula::Eq(a, b) => Ok(PropFormula::Const(self.term(a)? != self.term(b)?)),
                Formula::True => Ok(PropFormula::Const(false)),
                Formula::False => Ok(PropFormula::Const(true)),
                _ => Err(GroundError::NotExistential), // NNF guarantees this is dead
            },
            Formula::And(fs) => Ok(PropFormula::and(
                fs.iter()
                    .map(|g| self.expand(g))
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            Formula::Or(fs) => Ok(PropFormula::or(
                fs.iter()
                    .map(|g| self.expand(g))
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            Formula::Exists(vars, body) => {
                // ∃ȳ φ ⟼ ⋁_b̄ φ[b̄] — the quantifier elimination of Thm 5.4.
                let mut disjuncts = Vec::new();
                let shadowed: Vec<(String, Option<u32>)> = vars
                    .iter()
                    .map(|v| (v.clone(), self.env.get(v).copied()))
                    .collect();
                for tuple in self.db.universe().tuples(vars.len()) {
                    for (v, e) in vars.iter().zip(tuple.iter()) {
                        self.env.insert(v.clone(), *e);
                    }
                    disjuncts.push(self.expand(body)?);
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
                Ok(PropFormula::or(disjuncts))
            }
            Formula::Forall(..) | Formula::ExistsRel(..) | Formula::ForallRel(..) => {
                Err(GroundError::NotExistential)
            }
        }
    }
}

/// Ground an existential sentence over `db` into DNF, with free variables
/// pre-bound via `bindings` (empty for sentences).
///
/// `max_terms` bounds the DNF size; for an existential query with `k`
/// quantified variables the grounding has O(c·n^k) terms for a
/// formula-dependent constant `c`, so pass something comfortably above
/// that.
pub fn ground_existential(
    db: &Database,
    formula: &Formula,
    bindings: &HashMap<String, u32>,
    max_terms: usize,
) -> Result<Grounding, GroundError> {
    ground_existential_budgeted(
        db,
        formula,
        bindings,
        max_terms,
        &|_| None,
        &Budget::unlimited(),
    )
}

/// [`ground_existential`] with fixed facts folded out, under a
/// cooperative [`Budget`].
///
/// Every atom whose fact `fixed` classifies as `Some(b)` grounds to the
/// constant `b` and never becomes a variable; a classifier that fixes
/// nothing reproduces [`ground_existential`] exactly. The expansion
/// recursion checkpoints the deadline/cancellation on every node, the
/// DNF size is additionally clamped to the budget's remaining
/// [`Resource::Terms`], and the produced terms (after folding) are
/// charged against it.
pub fn ground_existential_budgeted(
    db: &Database,
    formula: &Formula,
    bindings: &HashMap<String, u32>,
    max_terms: usize,
    fixed: &dyn Fn(&Fact) -> Option<bool>,
    budget: &Budget,
) -> Result<Grounding, GroundError> {
    let nnf = formula.to_nnf();
    let mut g = Grounder {
        db,
        budget,
        fixed,
        indexer: db.fact_indexer(),
        atoms: AtomTable::new(),
        facts: Vec::new(),
        by_fact_index: HashMap::new(),
        env: bindings.clone(),
    };
    let prop = g.expand(&nnf)?;
    let effective_max = match budget.remaining(Resource::Terms) {
        Some(r) => max_terms.min(usize::try_from(r).unwrap_or(usize::MAX)),
        None => max_terms,
    };
    let mut dnf = match prop.to_dnf(effective_max) {
        Some(d) => d,
        // Blowup past the caller's cap is `TooLarge`; blowup past the
        // (tighter) budget cap is a budget trip, recorded by charging
        // one term past the remainder.
        None if effective_max < max_terms => {
            let e = budget
                .charge(Resource::Terms, effective_max as u64 + 1)
                .expect_err("terms budget known exhausted");
            return Err(GroundError::Budget(e));
        }
        None => return Err(GroundError::TooLarge { max_terms }),
    };
    dnf.simplify();
    budget
        .charge(Resource::Terms, dnf.num_terms() as u64)
        .map_err(GroundError::Budget)?;
    // Compact: expansion interns a variable for every uncertain atom it
    // *visits*, including ones eliminated by equality constants, folded
    // siblings or simplification.
    // Keep only variables the final DNF mentions, renumbering densely.
    let used = dnf.vars();
    let mut remap: HashMap<VarId, VarId> = HashMap::new();
    let mut atoms = AtomTable::new();
    let mut facts = Vec::with_capacity(used.len());
    for v in used {
        let nv = atoms.intern(g.atoms.name(v));
        remap.insert(v, nv);
        facts.push(g.facts[v as usize].clone());
    }
    let dnf = Dnf::from_terms(dnf.terms().iter().map(|t| {
        t.iter()
            .map(|l| qrel_logic::prop::Lit {
                var: remap[&l.var],
                positive: l.positive,
            })
            .collect::<Vec<_>>()
    }));
    Ok(Grounding { dnf, atoms, facts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fo::eval_sentence;
    use qrel_db::DatabaseBuilder;
    use qrel_logic::parser::parse_formula;
    use qrel_logic::prop::Lit;

    fn graph() -> Database {
        DatabaseBuilder::new()
            .universe_size(3)
            .relation("E", 2)
            .relation("S", 1)
            .tuples("E", [vec![0, 1], vec![1, 2]])
            .tuples("S", [vec![0]])
            .build()
    }

    #[test]
    fn grounding_agrees_with_direct_eval() {
        // On the *observed* database, the grounded DNF must evaluate to the
        // same truth value as the original sentence.
        let db = graph();
        for src in [
            "exists x y. E(x,y) & S(x)",
            "exists x. S(x) & !E(x,x)",
            "exists x y. E(x,y) & x != y",
            "exists x. !S(x)",
            "exists x y z. E(x,y) & E(y,z) & S(z)",
        ] {
            let f = parse_formula(src).unwrap();
            let g = ground_existential(&db, &f, &HashMap::new(), 10_000).unwrap();
            assert_eq!(
                g.eval_on(&db),
                eval_sentence(&db, &f).unwrap(),
                "mismatch for {src}"
            );
        }
    }

    #[test]
    fn grounding_agrees_on_all_small_worlds() {
        // Strong check: the grounded DNF tracks the sentence on *every*
        // database of the same format, not just the observed one.
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("E", 2)
            .relation("S", 1)
            .build();
        let f = parse_formula("exists x y. E(x,y) & S(y) & x != y").unwrap();
        let g = ground_existential(&db, &f, &HashMap::new(), 10_000).unwrap();
        let ix = db.fact_indexer();
        let total = ix.total(); // 4 + 2 = 6 facts
        for mask in 0u64..(1 << total) {
            let mut world = db.clone();
            for i in 0..total {
                world.set_fact(&ix.fact_at(i), (mask >> i) & 1 == 1);
            }
            assert_eq!(
                g.eval_on(&world),
                eval_sentence(&world, &f).unwrap(),
                "world {mask}"
            );
        }
    }

    #[test]
    fn packed_eval_matches_plain_on_all_small_worlds() {
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("E", 2)
            .relation("S", 1)
            .build();
        let f = parse_formula("exists x y. E(x,y) & S(y) & x != y").unwrap();
        let g = ground_existential(&db, &f, &HashMap::new(), 10_000).unwrap();
        let packed = g.packed_dnf();
        let ix = db.fact_indexer();
        let total = ix.total();
        for mask in 0u64..(1 << total) {
            let mut world = db.clone();
            for i in 0..total {
                world.set_fact(&ix.fact_at(i), (mask >> i) & 1 == 1);
            }
            assert_eq!(
                packed.eval_words(&g.packed_assignment(&world)),
                g.eval_on(&world),
                "world {mask}"
            );
        }
    }

    #[test]
    fn width_independent_of_database_size() {
        let f = parse_formula("exists x y. E(x,y) & S(x) & S(y)").unwrap();
        let mut widths = Vec::new();
        for n in [2usize, 4, 8] {
            let db = DatabaseBuilder::new()
                .universe_size(n)
                .relation("E", 2)
                .relation("S", 1)
                .build();
            let g = ground_existential(&db, &f, &HashMap::new(), 100_000).unwrap();
            widths.push(g.width());
            // Term count grows like n^2 (num quantified vars), not more.
            assert!(g.dnf.num_terms() <= n * n);
        }
        assert!(widths.iter().all(|&w| w == widths[0]));
        assert_eq!(widths[0], 3); // E(x,y), S(x), S(y)
    }

    #[test]
    fn free_variables_via_bindings() {
        let db = graph();
        let f = parse_formula("exists y. E(x, y)").unwrap();
        let mut b = HashMap::new();
        b.insert("x".to_string(), 0u32);
        let g = ground_existential(&db, &f, &b, 1000).unwrap();
        assert!(g.eval_on(&db));
        b.insert("x".to_string(), 2u32);
        let g2 = ground_existential(&db, &f, &b, 1000).unwrap();
        assert!(!g2.eval_on(&db));
    }

    #[test]
    fn equalities_resolved_away() {
        let db = graph();
        let f = parse_formula("exists x y. x = y & E(x,y)").unwrap();
        let g = ground_existential(&db, &f, &HashMap::new(), 1000).unwrap();
        // Only the diagonal E facts survive; no equality variables exist.
        for fact in &g.facts {
            assert_eq!(fact.tuple[0], fact.tuple[1]);
        }
    }

    #[test]
    fn rejects_universal() {
        let db = graph();
        let f = parse_formula("forall x. S(x)").unwrap();
        assert_eq!(
            ground_existential(&db, &f, &HashMap::new(), 1000).unwrap_err(),
            GroundError::NotExistential
        );
        // Negated existential is universal after NNF.
        let f2 = parse_formula("!(exists x. S(x))").unwrap();
        assert_eq!(
            ground_existential(&db, &f2, &HashMap::new(), 1000).unwrap_err(),
            GroundError::NotExistential
        );
    }

    #[test]
    fn term_budget_enforced() {
        let db = DatabaseBuilder::new()
            .universe_size(10)
            .relation("S", 1)
            .build();
        let f = parse_formula("exists x y z. S(x) & S(y) & S(z)").unwrap();
        assert!(matches!(
            ground_existential(&db, &f, &HashMap::new(), 10),
            Err(GroundError::TooLarge { .. })
        ));
    }

    /// Ground `src` over [`graph`] with the facts named in `fixed`
    /// (`"S(0)"` style) folded to the given truth values.
    fn ground_fixing(src: &str, fixed: &[(&str, bool)]) -> Grounding {
        let db = graph();
        let f = parse_formula(src).unwrap();
        let classify = |fact: &Fact| {
            let name = fact.display(db.vocabulary()).to_string();
            fixed.iter().find(|(n, _)| *n == name).map(|&(_, b)| b)
        };
        ground_existential_budgeted(
            &db,
            &f,
            &HashMap::new(),
            1000,
            &classify,
            &Budget::unlimited(),
        )
        .unwrap()
    }

    fn names(g: &Grounding) -> Vec<&str> {
        (0..g.num_vars() as VarId)
            .map(|v| g.atoms.name(v))
            .collect()
    }

    #[test]
    fn certain_true_literal_drops_out() {
        let g = ground_fixing("exists x. S(x) & E(x,x)", &[("S(1)", true)]);
        // Term x=1 keeps only E(1,1); the other terms keep both atoms.
        assert_eq!(g.dnf.num_terms(), 3);
        assert!(!names(&g).contains(&"S(1)"));
        assert!(g
            .dnf
            .terms()
            .iter()
            .any(|t| t.len() == 1 && g.atoms.name(t[0].var) == "E(1,1)"));
    }

    #[test]
    fn term_with_certain_false_literal_drops_out() {
        let g = ground_fixing("exists x. S(x) & E(x,x)", &[("E(2,2)", false)]);
        assert_eq!(g.dnf.num_terms(), 2);
        assert!(!names(&g).contains(&"S(2)"));
        assert!(!names(&g).contains(&"E(2,2)"));
        // A negated atom over a certainly-true fact is certainly false.
        let g = ground_fixing("exists x. S(x) & !E(x,x)", &[("E(0,0)", true)]);
        assert_eq!(g.dnf.num_terms(), 2);
        assert!(!names(&g).contains(&"S(0)"));
        assert!(!names(&g).contains(&"E(0,0)"));
    }

    #[test]
    fn term_of_certain_facts_makes_lineage_true() {
        let g = ground_fixing(
            "exists x y. E(x,y) & !S(y)",
            &[("E(0,1)", true), ("S(1)", false)],
        );
        assert!(g.dnf.is_trivially_true());
        // ⊤ subsumes every other term: nothing is left to sample.
        assert_eq!(g.dnf.num_terms(), 1);
        assert_eq!(g.num_vars(), 0);
    }

    #[test]
    fn classifier_that_fixes_nothing_is_plain_grounding() {
        // Every visited fact is a variable, interned in visit order.
        let g = ground_fixing("exists x. S(x) & !E(x,x)", &[]);
        assert_eq!(
            names(&g),
            ["S(0)", "E(0,0)", "S(1)", "E(1,1)", "S(2)", "E(2,2)"]
        );
        let expected = Dnf::from_terms((0..3).map(|i| [Lit::pos(2 * i), Lit::neg(2 * i + 1)]));
        assert_eq!(g.dnf, expected);
        for src in [
            "exists x y. E(x,y) & S(x)",
            "exists x. S(x) & !E(x,x)",
            "exists x y z. E(x,y) & E(y,z) & S(z) & x != z",
        ] {
            let plain = ground_existential(
                &graph(),
                &parse_formula(src).unwrap(),
                &HashMap::new(),
                1000,
            )
            .unwrap();
            let folded = ground_fixing(src, &[]);
            assert_eq!(folded.dnf, plain.dnf, "{src}");
            assert_eq!(names(&folded), names(&plain), "{src}");
            assert_eq!(folded.facts, plain.facts, "{src}");
        }
    }

    #[test]
    fn variable_names_are_fact_names() {
        let db = graph();
        let f = parse_formula("exists x. S(x)").unwrap();
        let g = ground_existential(&db, &f, &HashMap::new(), 1000).unwrap();
        assert_eq!(g.num_vars(), 3);
        assert_eq!(g.atoms.name(0), "S(0)");
    }
}
