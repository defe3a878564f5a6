//! The [`Query`] abstraction: anything that maps a database and a tuple to
//! a truth value.
//!
//! Theorem 5.12 applies to *all polynomial-time evaluable queries*, not
//! just logically defined ones, so the reliability machinery in
//! `qrel-core` is written against this trait. First-order queries,
//! Datalog queries and arbitrary Rust closures all implement it.

use crate::fo::{self, tuple_rank, CompiledFormula, EvalError};
use qrel_db::datalog::DatalogProgram;
use qrel_db::{Database, Element, Relation};
use qrel_logic::Formula;
use std::sync::Arc;

/// A k-ary query: a (polynomial-time) map from databases to k-ary
/// relations, exposed pointwise.
pub trait Query {
    /// The arity `k` (0 for Boolean queries).
    fn arity(&self) -> usize;

    /// Does `ā ∈ ψ^𝔄`?
    fn eval(&self, db: &Database, tuple: &[Element]) -> Result<bool, EvalError>;

    /// The full answer set `ψ^𝔄`. The default enumerates all `n^k` tuples;
    /// implementations with better strategies may override.
    fn answers(&self, db: &Database) -> Result<Relation, EvalError> {
        let mut out = Relation::new(self.arity());
        for t in db.universe().tuples(self.arity()) {
            if self.eval(db, &t)? {
                out.insert(t);
            }
        }
        Ok(out)
    }

    /// Convenience for Boolean queries.
    fn eval_sentence(&self, db: &Database) -> Result<bool, EvalError> {
        assert_eq!(self.arity(), 0, "eval_sentence requires a 0-ary query");
        self.eval(db, &[])
    }

    /// Bind the query once for repeated evaluation over databases that
    /// share `db`'s vocabulary and universe — the worlds of one
    /// unreliable database. The default re-runs [`Query::answers`] on
    /// every call; [`FoQuery`] compiles its formula here.
    fn bind(&self, _db: &Database) -> Box<dyn BoundQuery + '_> {
        Box::new(ViaAnswers(self))
    }
}

/// A query bound to one vocabulary and universe by [`Query::bind`].
pub trait BoundQuery {
    /// The answer set on `db` as ascending tuple ranks
    /// ([`fo::tuple_rank`], the position in `Universe::tuples` order),
    /// written into `out` (cleared first). A Boolean query answers
    /// `[0]` when it holds and `[]` when it does not.
    fn answer_ranks(&mut self, db: &Database, out: &mut Vec<usize>) -> Result<(), EvalError>;
}

/// The default binding: [`Query::answers`] per world.
struct ViaAnswers<'q, Q: ?Sized>(&'q Q);

impl<Q: Query + ?Sized> BoundQuery for ViaAnswers<'_, Q> {
    fn answer_ranks(&mut self, db: &Database, out: &mut Vec<usize>) -> Result<(), EvalError> {
        let answers = self.0.answers(db)?;
        out.clear();
        // Relations iterate in lexicographic order, so ranks ascend.
        out.extend(answers.iter().map(|t| tuple_rank(t, db.size())));
        Ok(())
    }
}

impl BoundQuery for CompiledFormula {
    fn answer_ranks(&mut self, db: &Database, out: &mut Vec<usize>) -> Result<(), EvalError> {
        CompiledFormula::answer_ranks(self, db, out)
    }
}

/// `|a Δ b|` for two ascending rank lists — the Hamming distance
/// between two answer sets.
pub fn rank_difference(a: &[usize], b: &[usize]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    a.len() + b.len() - 2 * common
}

/// A first-order (or second-order) query given by a formula and an
/// ordering of its free variables.
#[derive(Debug, Clone)]
pub struct FoQuery {
    formula: Formula,
    free: Vec<String>,
}

impl FoQuery {
    /// Build with the free-variable order taken from
    /// [`Formula::free_vars`] (sorted).
    pub fn new(formula: Formula) -> Self {
        let free = formula.free_vars();
        FoQuery { formula, free }
    }

    /// Build with an explicit free-variable order.
    ///
    /// # Panics
    /// Panics if `free` does not cover exactly the formula's free variables.
    pub fn with_free_order(formula: Formula, free: Vec<String>) -> Self {
        let mut sorted = free.clone();
        sorted.sort();
        assert_eq!(sorted, formula.free_vars(), "free-variable order mismatch");
        FoQuery { formula, free }
    }

    /// Parse from the concrete syntax.
    pub fn parse(src: &str) -> Result<Self, qrel_logic::parser::ParseError> {
        Ok(FoQuery::new(qrel_logic::parser::parse_formula(src)?))
    }

    pub fn formula(&self) -> &Formula {
        &self.formula
    }

    pub fn free_vars(&self) -> &[String] {
        &self.free
    }
}

impl Query for FoQuery {
    fn arity(&self) -> usize {
        self.free.len()
    }

    fn eval(&self, db: &Database, tuple: &[Element]) -> Result<bool, EvalError> {
        CompiledFormula::new(db, &self.formula, &self.free).eval(db, tuple)
    }

    fn answers(&self, db: &Database) -> Result<Relation, EvalError> {
        fo::query_answers(db, &self.formula, &self.free)
    }

    fn bind(&self, db: &Database) -> Box<dyn BoundQuery + '_> {
        Box::new(CompiledFormula::new(db, &self.formula, &self.free))
    }
}

/// A Datalog query: a program plus a designated output predicate. The
/// tuple is checked for membership in the output IDB relation.
#[derive(Debug, Clone)]
pub struct DatalogQuery {
    program: DatalogProgram,
    output: String,
    arity: usize,
}

impl DatalogQuery {
    /// Build from a program and output predicate name.
    ///
    /// # Panics
    /// Panics if `output` is not a head predicate of the program.
    pub fn new(program: DatalogProgram, output: &str) -> Self {
        let arity = program
            .rules
            .iter()
            .find(|r| r.head.rel == output)
            .unwrap_or_else(|| panic!("output predicate {output:?} not defined by program"))
            .head
            .args
            .len();
        DatalogQuery {
            program,
            output: output.to_string(),
            arity,
        }
    }

    /// Parse a program and select an output predicate.
    pub fn parse(src: &str, output: &str) -> Result<Self, qrel_db::datalog::DatalogError> {
        Ok(DatalogQuery::new(DatalogProgram::parse(src)?, output))
    }

    pub fn program(&self) -> &DatalogProgram {
        &self.program
    }
}

impl Query for DatalogQuery {
    fn arity(&self) -> usize {
        self.arity
    }

    fn eval(&self, db: &Database, tuple: &[Element]) -> Result<bool, EvalError> {
        // Datalog errors are schema-level; surface them as unknown-relation.
        let out = self
            .program
            .evaluate(db)
            .map_err(|e| EvalError::UnknownRelation(e.to_string()))?;
        Ok(out[&self.output].contains(tuple))
    }

    fn answers(&self, db: &Database) -> Result<Relation, EvalError> {
        let mut out = self
            .program
            .evaluate(db)
            .map_err(|e| EvalError::UnknownRelation(e.to_string()))?;
        Ok(out
            .remove(&self.output)
            .expect("validated output predicate"))
    }
}

/// The boxed evaluation function inside an [`FnQuery`].
pub type QueryFn = Arc<dyn Fn(&Database, &[Element]) -> bool + Send + Sync>;

/// A query given by an arbitrary evaluation function — the "any
/// polynomial-time evaluable query" of Theorem 5.12.
#[derive(Clone)]
pub struct FnQuery {
    arity: usize,
    f: QueryFn,
}

impl FnQuery {
    pub fn new(
        arity: usize,
        f: impl Fn(&Database, &[Element]) -> bool + Send + Sync + 'static,
    ) -> Self {
        FnQuery {
            arity,
            f: Arc::new(f),
        }
    }

    /// A Boolean (0-ary) closure query.
    pub fn boolean(f: impl Fn(&Database) -> bool + Send + Sync + 'static) -> Self {
        FnQuery::new(0, move |db, _| f(db))
    }
}

impl std::fmt::Debug for FnQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FnQuery(arity={})", self.arity)
    }
}

impl Query for FnQuery {
    fn arity(&self) -> usize {
        self.arity
    }

    fn eval(&self, db: &Database, tuple: &[Element]) -> Result<bool, EvalError> {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        Ok((self.f)(db, tuple))
    }
}

/// Object-safe boxed query for heterogeneous collections.
pub type BoxedQuery = Box<dyn Query + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;
    use qrel_db::DatabaseBuilder;

    fn graph() -> Database {
        DatabaseBuilder::new()
            .universe_size(4)
            .relation("E", 2)
            .tuples("E", [vec![0, 1], vec![1, 2], vec![2, 3]])
            .build()
    }

    #[test]
    fn fo_query_answers() {
        let q = FoQuery::parse("exists y. E(x, y)").unwrap();
        assert_eq!(q.arity(), 1);
        let ans = q.answers(&graph()).unwrap();
        assert_eq!(ans.len(), 3);
        assert!(q.eval(&graph(), &[0]).unwrap());
        assert!(!q.eval(&graph(), &[3]).unwrap());
    }

    #[test]
    fn fo_query_boolean() {
        let q = FoQuery::parse("exists x. E(x, x)").unwrap();
        assert_eq!(q.arity(), 0);
        assert!(!q.eval_sentence(&graph()).unwrap());
    }

    #[test]
    fn with_free_order_changes_tuple_layout() {
        let f = qrel_logic::parser::parse_formula("E(x, y)").unwrap();
        let q_xy = FoQuery::with_free_order(f.clone(), vec!["x".into(), "y".into()]);
        let q_yx = FoQuery::with_free_order(f, vec!["y".into(), "x".into()]);
        assert!(q_xy.eval(&graph(), &[0, 1]).unwrap());
        assert!(!q_yx.eval(&graph(), &[0, 1]).unwrap());
        assert!(q_yx.eval(&graph(), &[1, 0]).unwrap());
    }

    #[test]
    #[should_panic(expected = "free-variable order mismatch")]
    fn with_free_order_validates() {
        let f = qrel_logic::parser::parse_formula("E(x, y)").unwrap();
        FoQuery::with_free_order(f, vec!["x".into()]);
    }

    #[test]
    fn datalog_query_transitive_closure() {
        let q = DatalogQuery::parse("T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).", "T").unwrap();
        assert_eq!(q.arity(), 2);
        assert!(q.eval(&graph(), &[0, 3]).unwrap());
        assert!(!q.eval(&graph(), &[3, 0]).unwrap());
        assert_eq!(q.answers(&graph()).unwrap().len(), 6);
    }

    #[test]
    #[should_panic(expected = "not defined by program")]
    fn datalog_output_must_exist() {
        DatalogQuery::parse("T(x,y) :- E(x,y).", "U").unwrap();
    }

    #[test]
    fn fn_query_counts_edges() {
        // Boolean query "the graph has at least 3 edges" — not first-order
        // definable without counting, trivial as a closure.
        let q = FnQuery::boolean(|db| db.relation_by_name("E").unwrap().len() >= 3);
        assert!(q.eval_sentence(&graph()).unwrap());
        let small = DatabaseBuilder::new()
            .universe_size(2)
            .relation("E", 2)
            .tuples("E", [vec![0, 1]])
            .build();
        assert!(!q.eval_sentence(&small).unwrap());
    }

    #[test]
    fn boxed_queries_heterogeneous() {
        let qs: Vec<BoxedQuery> = vec![
            Box::new(FoQuery::parse("exists x y. E(x,y)").unwrap()),
            Box::new(FnQuery::boolean(|db| db.size() > 2)),
        ];
        for q in &qs {
            assert!(q.eval(&graph(), &[]).unwrap());
        }
    }
}
