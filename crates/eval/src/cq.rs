//! Conjunctive-query evaluation via relational algebra with greedy join
//! ordering.
//!
//! The paper's hardness frontier is drawn at conjunctive queries
//! (`∃x̄ (α₁ ∧ … ∧ α_ℓ)`, Prop 3.2), which are also the workhorse class
//! in practice. The generic FO evaluator handles them by nested
//! quantifier search — `O(n^{vars})` always. This module compiles a
//! conjunctive query into σ/π/⋈ plans over `qrel_db::algebra`: per-atom
//! selections first, then hash joins in a greedy order (most shared
//! variables, smallest intermediate first), then a final projection.
//! Output is identical to the naive evaluator (tested), usually far
//! faster on selective queries.

use qrel_db::algebra::{self, Selection};
use qrel_db::{Database, Element, Relation};
use qrel_logic::{Formula, Term};
use std::collections::HashMap;
use std::fmt;

use crate::fo::{resolve_const, EvalError};

/// Errors from conjunctive-query compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CqError {
    /// The formula is not conjunctive (see [`Formula::is_conjunctive`]).
    NotConjunctive,
    /// The query text failed to parse (from [`crate::query::CqQuery::parse`]).
    Parse(String),
    Eval(EvalError),
}

impl fmt::Display for CqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CqError::NotConjunctive => write!(f, "formula is not a conjunctive query"),
            CqError::Parse(m) => write!(f, "{m}"),
            CqError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CqError {}

impl From<EvalError> for CqError {
    fn from(e: EvalError) -> Self {
        CqError::Eval(e)
    }
}

/// A compiled conjunctive query.
#[derive(Debug, Clone)]
pub struct ConjunctiveQuery {
    /// Relational atoms, with arguments canonicalized through the
    /// equality classes.
    atoms: Vec<(String, Vec<Term>)>,
    /// Free variables in output order (canonicalized).
    free: Vec<String>,
    /// Original free variable names (pre-canonicalization), for arity.
    output_arity: usize,
    /// Variable → canonical representative.
    canon: HashMap<String, Term>,
    /// True if the equalities were contradictory (query ≡ ∅ / ⊤ issues).
    unsatisfiable: bool,
}

impl ConjunctiveQuery {
    /// Compile from a conjunctive formula. `free` fixes the output
    /// column order.
    pub fn compile(formula: &Formula, free: &[String]) -> Result<Self, CqError> {
        if !formula.is_conjunctive() {
            return Err(CqError::NotConjunctive);
        }
        {
            let mut sorted = free.to_vec();
            sorted.sort();
            assert_eq!(sorted, formula.free_vars(), "free-variable order mismatch");
        }
        // Strip quantifiers, flatten the matrix.
        let mut cur = formula;
        while let Formula::Exists(_, inner) = cur {
            cur = inner;
        }
        let mut atoms = Vec::new();
        let mut equalities = Vec::new();
        collect_matrix(cur, &mut atoms, &mut equalities);

        // Union-find over terms for the equality constraints. Constants
        // are roots; two distinct constant roots = unsatisfiable.
        let mut uf: HashMap<String, Term> = HashMap::new();
        let mut unsatisfiable = false;
        fn find(uf: &mut HashMap<String, Term>, t: &Term) -> Term {
            match t {
                Term::Const(_) => t.clone(),
                Term::Var(v) => {
                    let parent = uf.get(v).cloned();
                    match parent {
                        None => t.clone(),
                        Some(p) => {
                            let root = find(uf, &p);
                            uf.insert(v.clone(), root.clone());
                            root
                        }
                    }
                }
            }
        }
        for (a, b) in &equalities {
            let ra = find(&mut uf, a);
            let rb = find(&mut uf, b);
            if ra == rb {
                continue;
            }
            match (&ra, &rb) {
                (Term::Const(_), Term::Const(_)) => unsatisfiable = true,
                (Term::Var(v), _) => {
                    uf.insert(v.clone(), rb.clone());
                }
                (_, Term::Var(v)) => {
                    uf.insert(v.clone(), ra.clone());
                }
            }
        }
        // Canonicalize atoms and free variables.
        let canon_atoms: Vec<(String, Vec<Term>)> = atoms
            .into_iter()
            .map(|(rel, args)| (rel, args.iter().map(|t| find(&mut uf, t)).collect()))
            .collect();
        let canon_free: Vec<String> = free.to_vec();
        let canon: HashMap<String, Term> = {
            let mut all_vars: Vec<String> = free.to_vec();
            for (_, args) in &canon_atoms {
                for t in args {
                    if let Term::Var(v) = t {
                        all_vars.push(v.clone());
                    }
                }
            }
            all_vars
                .into_iter()
                .map(|v| {
                    let r = find(&mut uf, &Term::Var(v.clone()));
                    (v, r)
                })
                .collect()
        };
        Ok(ConjunctiveQuery {
            atoms: canon_atoms,
            free: canon_free,
            output_arity: free.len(),
            canon,
            unsatisfiable,
        })
    }

    /// Number of relational atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// True iff the equality constraints are contradictory (two distinct
    /// constants identified) — the query evaluates to ∅ on every database.
    pub fn is_unsatisfiable(&self) -> bool {
        self.unsatisfiable
    }

    pub fn arity(&self) -> usize {
        self.output_arity
    }

    /// Evaluate by the σ/π/⋈ plan.
    pub fn evaluate(&self, db: &Database) -> Result<Relation, CqError> {
        if self.unsatisfiable {
            return Ok(Relation::new(self.output_arity));
        }
        // Per-atom: load, select, project to distinct variables.
        struct Piece {
            rel: Relation,
            cols: Vec<String>, // variable name per column
        }
        let mut pieces: Vec<Piece> = Vec::new();
        for (rel_name, args) in &self.atoms {
            let rel_ix = db
                .vocabulary()
                .index_of(rel_name)
                .ok_or_else(|| EvalError::UnknownRelation(rel_name.clone()))?;
            let stored = db.relation(rel_ix);
            if stored.arity() != args.len() {
                return Err(CqError::Eval(EvalError::ArityMismatch {
                    rel: rel_name.clone(),
                    expected: stored.arity(),
                    got: args.len(),
                }));
            }
            let mut predicates = Vec::new();
            let mut var_first_col: HashMap<&str, usize> = HashMap::new();
            let mut keep_cols = Vec::new();
            let mut keep_vars = Vec::new();
            for (i, t) in args.iter().enumerate() {
                match t {
                    Term::Const(c) => {
                        let e = resolve_const(db, c)?;
                        predicates.push(Selection::ColEqConst(i, e));
                    }
                    Term::Var(v) => match var_first_col.get(v.as_str()) {
                        Some(&j) => predicates.push(Selection::ColEqCol(j, i)),
                        None => {
                            var_first_col.insert(v, i);
                            keep_cols.push(i);
                            keep_vars.push(v.clone());
                        }
                    },
                }
            }
            let selected = algebra::select(stored, &predicates);
            let projected = algebra::project(&selected, &keep_cols);
            pieces.push(Piece {
                rel: projected,
                cols: keep_vars,
            });
        }

        // Seed: atoms sorted greedily — start from the smallest.
        let mut current = match pieces.iter().enumerate().min_by_key(|(_, p)| p.rel.len()) {
            None => {
                // No atoms at all: the matrix was equalities only. The
                // answer is the full cross product over free variables,
                // filtered by canon (a free var bound to a constant or to
                // another free var restricts it).
                return Ok(self.all_free_tuples(db));
            }
            Some((i, _)) => pieces.swap_remove(i),
        };

        while !pieces.is_empty() {
            // Pick the piece sharing the most variables (break ties by
            // smaller relation); product only if nothing shares.
            let (best_i, _) = pieces
                .iter()
                .enumerate()
                .max_by_key(|(_, p)| {
                    let shared = p.cols.iter().filter(|v| current.cols.contains(v)).count();
                    (shared, usize::MAX - p.rel.len())
                })
                .expect("nonempty");
            let piece = pieces.swap_remove(best_i);
            let on: Vec<(usize, usize)> = piece
                .cols
                .iter()
                .enumerate()
                .filter_map(|(j, v)| current.cols.iter().position(|u| u == v).map(|i| (i, j)))
                .collect();
            let joined = if on.is_empty() {
                algebra::product(&current.rel, &piece.rel)
            } else {
                algebra::join(&current.rel, &piece.rel, &on)
            };
            // New columns: current's plus piece's unseen ones.
            let mut cols = current.cols.clone();
            let mut keep: Vec<usize> = (0..current.cols.len()).collect();
            for (j, v) in piece.cols.iter().enumerate() {
                if !current.cols.contains(v) {
                    cols.push(v.clone());
                    keep.push(current.cols.len() + j);
                }
            }
            current = Piece {
                rel: algebra::project(&joined, &keep),
                cols,
            };
        }

        // Final projection to the free variables (through canon).
        let mut out = Relation::new(self.output_arity);
        'tuples: for t in current.rel.iter() {
            let mut row = Vec::with_capacity(self.output_arity);
            for v in &self.free {
                match self.canon.get(v) {
                    Some(Term::Const(c)) => row.push(resolve_const(db, c)?),
                    Some(Term::Var(rep)) => {
                        match current.cols.iter().position(|u| u == rep) {
                            Some(i) => row.push(t[i]),
                            None => {
                                // Free variable not constrained by any atom:
                                // ranges over the whole universe.
                                let view = PieceView {
                                    rel: &current.rel,
                                    cols: &current.cols,
                                };
                                return self.expand_unconstrained(db, &view);
                            }
                        }
                    }
                    None => continue 'tuples,
                }
            }
            out.insert(row);
        }
        Ok(out)
    }

    /// Slow path: some free variable is unconstrained — fall back to
    /// expanding it over the universe via the generic evaluator shape.
    fn expand_unconstrained(
        &self,
        db: &Database,
        current: &PieceView<'_>,
    ) -> Result<Relation, CqError> {
        let mut out = Relation::new(self.output_arity);
        for base in current.tuples() {
            // Determine, per free var, either a fixed value or "all".
            let mut slots: Vec<Option<Element>> = Vec::with_capacity(self.output_arity);
            for v in &self.free {
                match self.canon.get(v) {
                    Some(Term::Const(c)) => slots.push(Some(resolve_const(db, c)?)),
                    Some(Term::Var(rep)) => slots.push(current.position(rep).map(|i| base[i])),
                    None => slots.push(None),
                }
            }
            // Fill the None slots with every universe element, but
            // identical unconstrained representatives must agree.
            let mut reps: Vec<&str> = Vec::new();
            for (v, s) in self.free.iter().zip(&slots) {
                if s.is_none() {
                    if let Some(Term::Var(rep)) = self.canon.get(v) {
                        if !reps.contains(&rep.as_str()) {
                            reps.push(rep);
                        }
                    }
                }
            }
            let k = reps.len();
            for assignment in db.universe().tuples(k) {
                let mut row = Vec::with_capacity(self.output_arity);
                for (v, s) in self.free.iter().zip(&slots) {
                    match s {
                        Some(e) => row.push(*e),
                        None => {
                            let rep = match self.canon.get(v) {
                                Some(Term::Var(r)) => r.as_str(),
                                _ => unreachable!(),
                            };
                            let i = reps.iter().position(|r| *r == rep).unwrap();
                            row.push(assignment[i]);
                        }
                    }
                }
                out.insert(row);
            }
        }
        Ok(out)
    }

    /// Atom-free query: equalities only.
    fn all_free_tuples(&self, db: &Database) -> Relation {
        let mut out = Relation::new(self.output_arity);
        for tuple in db.universe().tuples(self.output_arity) {
            // Check canon consistency: identical representatives must
            // receive identical values; constant reps are fixed.
            let mut ok = true;
            let mut rep_val: HashMap<&str, Element> = HashMap::new();
            for (v, &e) in self.free.iter().zip(tuple.iter()) {
                match self.canon.get(v) {
                    Some(Term::Const(c))
                        if resolve_const(db, c).map(|x| x != e).unwrap_or(true) =>
                    {
                        ok = false;
                        break;
                    }
                    Some(Term::Const(_)) => {}
                    Some(Term::Var(rep)) => match rep_val.get(rep.as_str()) {
                        Some(&prev) => {
                            if prev != e {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            rep_val.insert(rep, e);
                        }
                    },
                    None => {}
                }
            }
            if ok {
                out.insert(tuple);
            }
        }
        out
    }
}

/// Borrowed view of the current intermediate for the slow path.
struct PieceView<'a> {
    rel: &'a Relation,
    cols: &'a [String],
}

impl PieceView<'_> {
    fn tuples(&self) -> impl Iterator<Item = &Vec<Element>> {
        self.rel.iter()
    }
    fn position(&self, var: &str) -> Option<usize> {
        self.cols.iter().position(|c| c == var)
    }
}

fn collect_matrix(
    f: &Formula,
    atoms: &mut Vec<(String, Vec<Term>)>,
    equalities: &mut Vec<(Term, Term)>,
) {
    match f {
        Formula::Atom { rel, args } => atoms.push((rel.clone(), args.clone())),
        Formula::Eq(a, b) => equalities.push((a.clone(), b.clone())),
        Formula::And(fs) => {
            for g in fs {
                collect_matrix(g, atoms, equalities);
            }
        }
        Formula::True => {}
        _ => unreachable!("conjunctive shape checked by compile"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fo::query_answers;
    use qrel_db::DatabaseBuilder;
    use qrel_logic::parser::parse_formula;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn graph(n: usize, seed: u64) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                if a != b && rng.gen_bool(0.3) {
                    edges.push(vec![a, b]);
                }
            }
        }
        let marks: Vec<Vec<u32>> = (0..n as u32)
            .filter(|_| rng.gen_bool(0.5))
            .map(|v| vec![v])
            .collect();
        DatabaseBuilder::new()
            .universe_size(n)
            .relation("E", 2)
            .relation("S", 1)
            .tuples("E", edges)
            .tuples("S", marks)
            .build()
    }

    fn check_against_naive(src: &str, free: &[&str], db: &Database) {
        let f = parse_formula(src).unwrap();
        let free: Vec<String> = free.iter().map(|s| s.to_string()).collect();
        let cq = ConjunctiveQuery::compile(&f, &free).unwrap();
        let fast = cq.evaluate(db).unwrap();
        let naive = query_answers(db, &f, &free).unwrap();
        assert_eq!(fast, naive, "query {src}");
    }

    #[test]
    fn matches_naive_on_standard_queries() {
        let db = graph(6, 1);
        check_against_naive("exists z. E(x,z) & E(z,y)", &["x", "y"], &db);
        check_against_naive("E(x,y) & S(x) & S(y)", &["x", "y"], &db);
        check_against_naive("exists y z. E(x,y) & E(y,z) & S(z)", &["x"], &db);
        check_against_naive("exists x y z. E(x,y) & E(y,z) & S(x)", &[], &db);
    }

    #[test]
    fn constants_and_equalities() {
        let db = graph(5, 2);
        check_against_naive("E(x, 2)", &["x"], &db);
        check_against_naive("E(x,y) & x = y", &["x", "y"], &db);
        check_against_naive("exists y. E(x,y) & y = 3", &["x"], &db);
        check_against_naive("E(x,y) & x = 1 & y = 2", &["x", "y"], &db);
    }

    #[test]
    fn self_join_and_repeated_vars() {
        let db = graph(5, 3);
        check_against_naive("E(x, x)", &["x"], &db);
        check_against_naive("E(x,y) & E(y,x)", &["x", "y"], &db);
        check_against_naive("exists y. E(y, y) & S(x)", &["x"], &db);
    }

    #[test]
    fn contradictory_equalities_yield_empty() {
        let db = graph(4, 4);
        let f = parse_formula("E(x,y) & x = 1 & x = 2").unwrap();
        let cq = ConjunctiveQuery::compile(&f, &["x".to_string(), "y".to_string()]).unwrap();
        assert!(cq.is_unsatisfiable());
        assert!(cq.evaluate(&db).unwrap().is_empty());
    }

    #[test]
    fn equalities_only_query() {
        let db = graph(3, 5);
        check_against_naive("x = y", &["x", "y"], &db);
        check_against_naive("x = 1", &["x"], &db);
    }

    #[test]
    fn unconstrained_free_variable() {
        let db = graph(4, 6);
        // y is free but only x is constrained by an atom.
        check_against_naive("S(x) & y = y", &["x", "y"], &db);
    }

    #[test]
    fn cartesian_product_when_no_shared_vars() {
        let db = graph(4, 7);
        check_against_naive("S(x) & E(y, z)", &["x", "y", "z"], &db);
    }

    #[test]
    fn rejects_non_conjunctive() {
        let f = parse_formula("S(x) | E(x,x)").unwrap();
        assert_eq!(
            ConjunctiveQuery::compile(&f, &["x".to_string()]).unwrap_err(),
            CqError::NotConjunctive
        );
    }

    #[test]
    fn randomized_equivalence_sweep() {
        // Many random CQs on random databases: planner == naive.
        let mut rng = StdRng::seed_from_u64(8);
        let patterns: [(&str, &[&str]); 5] = [
            ("exists z. E(x,z) & E(z,y) & S(z)", &["x", "y"]),
            ("E(x,y) & E(y,z)", &["x", "y", "z"]),
            ("exists a b. E(a,b) & E(b,x) & S(a)", &["x"]),
            ("S(x) & S(y) & E(x,y)", &["x", "y"]),
            ("exists a. E(a,a) & E(a, x)", &["x"]),
        ];
        for trial in 0..6 {
            let db = graph(rng.gen_range(3..7), 100 + trial);
            for (src, free) in patterns {
                check_against_naive(src, free, &db);
            }
        }
    }

    #[test]
    fn planner_is_fast_on_selective_query() {
        // Not a strict benchmark — just confirms the plan path touches far
        // fewer tuples than n^3 nested loops would (smoke check via size).
        let db = graph(30, 9);
        let f = parse_formula("exists z. E(x,z) & E(z,y) & S(z)").unwrap();
        let free = vec!["x".to_string(), "y".to_string()];
        let cq = ConjunctiveQuery::compile(&f, &free).unwrap();
        let fast = cq.evaluate(&db).unwrap();
        let naive = query_answers(&db, &f, &free).unwrap();
        assert_eq!(fast, naive);
    }

    #[test]
    fn use_via_query_trait() {
        let db = graph(5, 10);
        let q = crate::query::CqQuery::parse("E(x,y) & S(y)", &["x", "y"]).unwrap();
        use crate::query::Query as _;
        let ans = q.answers(&db).unwrap();
        let expect = query_answers(
            &db,
            &parse_formula("E(x,y) & S(y)").unwrap(),
            &["x".to_string(), "y".to_string()],
        )
        .unwrap();
        assert_eq!(ans, expect);
        let first = ans.iter().next().cloned();
        if let Some(t) = first {
            assert!(q.eval(&db, &t).unwrap());
        }
    }
}
