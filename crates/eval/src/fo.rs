//! First-order (and bounded second-order) model checking.
//!
//! A formula is compiled once per database vocabulary and universe into a
//! [`CompiledFormula`] and then evaluated world by world; the free
//! functions [`eval_formula`], [`eval_sentence`] and [`query_answers`]
//! compile and evaluate in one call.

use qrel_db::{Database, Element, Relation};
use qrel_logic::{Formula, Term};
use std::collections::HashMap;
use std::fmt;

/// Errors raised during evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A relational atom refers to a symbol neither in the vocabulary nor
    /// bound by a second-order quantifier.
    UnknownRelation(String),
    /// Atom arity disagrees with the vocabulary/quantifier declaration.
    ArityMismatch {
        rel: String,
        expected: usize,
        got: usize,
    },
    /// A constant name that is neither a universe element name nor a
    /// numeric element index.
    UnknownConstant(String),
    /// A free variable was encountered without a binding.
    UnboundVariable(String),
    /// Second-order quantification whose search space exceeds the guard.
    SecondOrderTooLarge {
        rel: String,
        arity: usize,
        universe: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownRelation(r) => write!(f, "unknown relation {r:?}"),
            EvalError::ArityMismatch { rel, expected, got } => {
                write!(
                    f,
                    "relation {rel:?} expects {expected} arguments, got {got}"
                )
            }
            EvalError::UnknownConstant(c) => write!(f, "unknown constant {c:?}"),
            EvalError::UnboundVariable(v) => write!(f, "unbound variable {v:?}"),
            EvalError::SecondOrderTooLarge {
                rel,
                arity,
                universe,
            } => write!(
                f,
                "second-order quantifier over {rel:?}/{arity} on a universe of {universe} \
                 elements exceeds the enumeration guard"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Guard: a second-order quantifier enumerates `2^(n^arity)` relations;
/// refuse beyond this many candidate tuples (i.e. `n^arity > guard`).
const SO_GUARD_TUPLES: usize = 20;

/// Atoms of at most this arity build their lookup tuple on the stack.
const STACK_TUPLE: usize = 8;

/// Resolve a constant name to an element: first as a universe element
/// name, then as a numeric index. The one constant rule of every
/// evaluator in the workspace (model checking, grounding, the safe-plan
/// and quantifier-free engines).
pub fn resolve_const(db: &Database, name: &str) -> Result<Element, EvalError> {
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

/// The position of `tuple` in the lexicographic order of
/// `Universe::tuples` over a universe of `n` elements.
pub fn tuple_rank(tuple: &[Element], n: usize) -> usize {
    tuple.iter().fold(0, |r, &e| r * n + e as usize)
}

/// A resolved term: a variable slot, an element, or the error that
/// evaluating the term raises.
#[derive(Debug, Clone)]
enum Arg {
    Var(usize),
    Elem(Element),
    Fail(EvalError),
}

/// What an atom looks up once its tuple is built.
#[derive(Debug, Clone)]
enum Target {
    /// A vocabulary relation, by index.
    Rel(usize),
    /// A relation variable bound by a second-order quantifier, by index.
    RelVar(usize),
    /// Unknown symbol or arity mismatch, raised after the terms.
    Fail(EvalError),
}

#[derive(Debug, Clone)]
enum Node {
    Const(bool),
    /// An error raised on reaching the node (the second-order guard).
    Fail(EvalError),
    Eq(Arg, Arg),
    Atom(Vec<Arg>, Target),
    Not(Box<Node>),
    And(Vec<Node>),
    Or(Vec<Node>),
    /// `∃`/`∀` over the slots `first..first + count`.
    Quant {
        first: usize,
        count: usize,
        existential: bool,
        body: Box<Node>,
    },
    /// `∃X`/`∀X` over the `2^tuples` relations held by relation variable
    /// `var` (bit `i` of its mask is the tuple of rank `i`).
    RelQuant {
        var: usize,
        tuples: usize,
        existential: bool,
        body: Box<Node>,
    },
}

/// Lexical scopes of the compiler: variable names to slots, relation
/// variable names to (index, arity). Inner bindings shadow outer ones.
struct Compiler<'a> {
    db: &'a Database,
    vars: Vec<(&'a str, usize)>,
    rel_vars: Vec<(&'a str, usize, usize)>,
    slots: usize,
    relation_vars: usize,
}

impl<'a> Compiler<'a> {
    fn term(&self, t: &Term) -> Arg {
        match t {
            Term::Var(v) => match self.vars.iter().rev().find(|(name, _)| name == v) {
                Some(&(_, slot)) => Arg::Var(slot),
                None => Arg::Fail(EvalError::UnboundVariable(v.clone())),
            },
            Term::Const(c) => match resolve_const(self.db, c) {
                Ok(e) => Arg::Elem(e),
                Err(e) => Arg::Fail(e),
            },
        }
    }

    fn target(&self, rel: &str, got: usize) -> Target {
        let mismatch = |expected: usize| {
            Target::Fail(EvalError::ArityMismatch {
                rel: rel.to_string(),
                expected,
                got,
            })
        };
        if let Some(&(_, var, arity)) = self.rel_vars.iter().rev().find(|(name, ..)| *name == rel) {
            return if arity == got {
                Target::RelVar(var)
            } else {
                mismatch(arity)
            };
        }
        match self.db.vocabulary().index_of(rel) {
            Some(i) if self.db.relation(i).arity() == got => Target::Rel(i),
            Some(i) => mismatch(self.db.relation(i).arity()),
            None => Target::Fail(EvalError::UnknownRelation(rel.to_string())),
        }
    }

    fn compile(&mut self, f: &'a Formula) -> Node {
        match f {
            Formula::True => Node::Const(true),
            Formula::False => Node::Const(false),
            Formula::Eq(a, b) => Node::Eq(self.term(a), self.term(b)),
            Formula::Atom { rel, args } => Node::Atom(
                args.iter().map(|t| self.term(t)).collect(),
                self.target(rel, args.len()),
            ),
            Formula::Not(g) => Node::Not(Box::new(self.compile(g))),
            Formula::And(gs) => Node::And(gs.iter().map(|g| self.compile(g)).collect()),
            Formula::Or(gs) => Node::Or(gs.iter().map(|g| self.compile(g)).collect()),
            Formula::Exists(vars, body) => self.quant(vars, body, true),
            Formula::Forall(vars, body) => self.quant(vars, body, false),
            Formula::ExistsRel(x, k, body) => self.rel_quant(x, *k, body, true),
            Formula::ForallRel(x, k, body) => self.rel_quant(x, *k, body, false),
        }
    }

    fn quant(&mut self, vars: &'a [String], body: &'a Formula, existential: bool) -> Node {
        let first = self.slots;
        self.slots += vars.len();
        let scope = self.vars.len();
        self.vars.extend(
            vars.iter()
                .enumerate()
                .map(|(i, v)| (v.as_str(), first + i)),
        );
        let body = Box::new(self.compile(body));
        self.vars.truncate(scope);
        Node::Quant {
            first,
            count: vars.len(),
            existential,
            body,
        }
    }

    fn rel_quant(
        &mut self,
        x: &'a str,
        arity: usize,
        body: &'a Formula,
        existential: bool,
    ) -> Node {
        let n = self.db.size();
        let tuples = match n.checked_pow(arity as u32) {
            Some(t) if t <= SO_GUARD_TUPLES => t,
            _ => {
                return Node::Fail(EvalError::SecondOrderTooLarge {
                    rel: x.to_string(),
                    arity,
                    universe: n,
                })
            }
        };
        let var = self.relation_vars;
        self.relation_vars += 1;
        self.rel_vars.push((x, var, arity));
        let body = Box::new(self.compile(body));
        self.rel_vars.pop();
        Node::RelQuant {
            var,
            tuples,
            existential,
            body,
        }
    }
}

/// Evaluation state: one element per variable slot, one mask per
/// relation variable.
#[derive(Debug, Clone)]
struct State {
    n: usize,
    slots: Vec<Element>,
    masks: Vec<u64>,
}

impl State {
    fn term(&self, t: &Arg) -> Result<Element, EvalError> {
        match t {
            Arg::Var(s) => Ok(self.slots[*s]),
            Arg::Elem(e) => Ok(*e),
            Arg::Fail(e) => Err(e.clone()),
        }
    }

    fn eval(&mut self, db: &Database, node: &Node) -> Result<bool, EvalError> {
        match node {
            Node::Const(b) => Ok(*b),
            Node::Fail(e) => Err(e.clone()),
            Node::Eq(a, b) => Ok(self.term(a)? == self.term(b)?),
            Node::Atom(args, target) => {
                let mut stack = [0; STACK_TUPLE];
                let mut heap = Vec::new();
                let tuple = if args.len() <= STACK_TUPLE {
                    &mut stack[..args.len()]
                } else {
                    heap.resize(args.len(), 0);
                    &mut heap[..]
                };
                for (e, t) in tuple.iter_mut().zip(args) {
                    *e = self.term(t)?;
                }
                match target {
                    Target::Rel(i) => Ok(db.relation(*i).contains(tuple)),
                    Target::RelVar(v) => Ok((self.masks[*v] >> tuple_rank(tuple, self.n)) & 1 == 1),
                    Target::Fail(e) => Err(e.clone()),
                }
            }
            Node::Not(g) => Ok(!self.eval(db, g)?),
            Node::And(gs) => {
                for g in gs {
                    if !self.eval(db, g)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Node::Or(gs) => {
                for g in gs {
                    if self.eval(db, g)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Node::Quant {
                first,
                count,
                existential,
                body,
            } => {
                let slots = *first..*first + *count;
                if self.n == 0 && *count > 0 {
                    return Ok(!existential);
                }
                self.slots[slots.clone()].fill(0);
                loop {
                    if self.eval(db, body)? == *existential {
                        return Ok(*existential);
                    }
                    if !self.advance(slots.clone()) {
                        return Ok(!existential);
                    }
                }
            }
            Node::RelQuant {
                var,
                tuples,
                existential,
                body,
            } => {
                for mask in 0u64..(1u64 << tuples) {
                    self.masks[*var] = mask;
                    if self.eval(db, body)? == *existential {
                        return Ok(*existential);
                    }
                }
                Ok(!existential)
            }
        }
    }

    /// Step the tuple held in `slots` to its lexicographic successor
    /// (last position fastest); `false` once every tuple was visited.
    fn advance(&mut self, slots: std::ops::Range<usize>) -> bool {
        for s in slots.rev() {
            self.slots[s] += 1;
            if (self.slots[s] as usize) < self.n {
                return true;
            }
            self.slots[s] = 0;
        }
        false
    }
}

/// A formula compiled once against one database's vocabulary and
/// universe, then evaluated against any database that shares them (the
/// worlds of an unreliable database): variables are slot indices,
/// relation names are vocabulary indices or relation-variable masks,
/// constants are elements. Lookups build their tuple on the stack and
/// the slot buffer is reused, so evaluation does not allocate.
///
/// Errors keep their dynamic semantics: an unknown relation, a bad
/// arity, an unknown constant or an unbound variable is raised only when
/// evaluation reaches it, exactly as a tree-walking interpreter would.
#[derive(Debug, Clone)]
pub struct CompiledFormula {
    root: Node,
    free: usize,
    state: State,
}

impl CompiledFormula {
    /// Compile `formula` against `db`, with its free variables bound, in
    /// order, by the tuples later passed to [`Self::eval`].
    pub fn new(db: &Database, formula: &Formula, free: &[String]) -> Self {
        let mut c = Compiler {
            db,
            vars: free
                .iter()
                .enumerate()
                .map(|(i, v)| (v.as_str(), i))
                .collect(),
            rel_vars: Vec::new(),
            slots: free.len(),
            relation_vars: 0,
        };
        let root = c.compile(formula);
        CompiledFormula {
            root,
            free: free.len(),
            state: State {
                n: db.size(),
                slots: vec![0; c.slots],
                masks: vec![0; c.relation_vars],
            },
        }
    }

    /// Does `db ⊨ φ(tuple)`?
    pub fn eval(&mut self, db: &Database, tuple: &[Element]) -> Result<bool, EvalError> {
        assert_eq!(tuple.len(), self.free, "tuple arity mismatch");
        debug_assert_eq!(db.size(), self.state.n, "compiled for another universe");
        self.state.slots[..self.free].copy_from_slice(tuple);
        self.state.eval(db, &self.root)
    }

    /// The ranks ([`tuple_rank`]) of the answer set on `db`, ascending,
    /// written into `out` (cleared first).
    pub fn answer_ranks(&mut self, db: &Database, out: &mut Vec<usize>) -> Result<(), EvalError> {
        out.clear();
        self.visit_answers(db, |rank, _| out.push(rank))
    }

    /// The answer set `φ^db` as a relation.
    pub fn answers(&mut self, db: &Database) -> Result<Relation, EvalError> {
        let mut out = Relation::new(self.free);
        self.visit_answers(db, |_, tuple| {
            out.insert(tuple.to_vec());
        })?;
        Ok(out)
    }

    /// Evaluate every tuple of `A^k` in lexicographic order, calling
    /// `visit(rank, tuple)` on each answer.
    fn visit_answers(
        &mut self,
        db: &Database,
        mut visit: impl FnMut(usize, &[Element]),
    ) -> Result<(), EvalError> {
        debug_assert_eq!(db.size(), self.state.n, "compiled for another universe");
        if self.state.n == 0 && self.free > 0 {
            return Ok(());
        }
        let free = 0..self.free;
        self.state.slots[free.clone()].fill(0);
        let mut rank = 0;
        loop {
            if self.state.eval(db, &self.root)? {
                visit(rank, &self.state.slots[free.clone()]);
            }
            if !self.state.advance(free.clone()) {
                return Ok(());
            }
            rank += 1;
        }
    }
}

/// Evaluate a formula under an explicit variable binding.
pub fn eval_formula(
    db: &Database,
    formula: &Formula,
    bindings: &HashMap<String, Element>,
) -> Result<bool, EvalError> {
    let (free, tuple): (Vec<String>, Vec<Element>) =
        bindings.iter().map(|(v, &e)| (v.clone(), e)).unzip();
    CompiledFormula::new(db, formula, &free).eval(db, &tuple)
}

/// Evaluate a sentence (no free variables).
pub fn eval_sentence(db: &Database, sentence: &Formula) -> Result<bool, EvalError> {
    CompiledFormula::new(db, sentence, &[]).eval(db, &[])
}

/// Compute the answer set `ψ^𝔄 = {ā ∈ A^k : 𝔄 ⊨ ψ(ā)}` where the free
/// variables are taken in the given order (the query's tuple order).
pub fn query_answers(
    db: &Database,
    formula: &Formula,
    free_vars: &[String],
) -> Result<Relation, EvalError> {
    CompiledFormula::new(db, formula, free_vars).answers(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrel_db::DatabaseBuilder;
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

    fn holds(src: &str) -> bool {
        eval_sentence(&graph(), &parse_formula(src).unwrap()).unwrap()
    }

    #[test]
    fn sentences() {
        assert!(holds("exists x y. E(x,y)"));
        assert!(!holds("forall x. S(x)"));
        assert!(holds("exists x. S(x) & !E(x,x)"));
        assert!(holds("forall x y. E(x,y) -> !E(y,x)"));
        assert!(holds("exists x y. E(x,y) & S(x) & !S(y)"));
        // Every edge source is in S or has an incoming edge.
        assert!(holds(
            "forall x. (exists y. E(x,y)) -> (S(x) | exists z. E(z,x))"
        ));
    }

    #[test]
    fn equality_and_constants() {
        assert!(holds("exists x. x = 'e3' & !S(x)"));
        assert!(holds("exists x. x = 2 & S(x)"));
        assert!(!holds("exists x. x = 1 & S(x)"));
        assert!(holds("forall x y. E(x,y) -> x != y"));
    }

    #[test]
    fn answer_sets() {
        let f = parse_formula("exists y. E(x, y)").unwrap();
        let ans = query_answers(&graph(), &f, &["x".to_string()]).unwrap();
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&[0]) && ans.contains(&[1]));

        // Binary query: pairs at distance exactly 2.
        let f2 = parse_formula("exists z. E(x, z) & E(z, y)").unwrap();
        let ans2 = query_answers(&graph(), &f2, &["x".to_string(), "y".to_string()]).unwrap();
        assert_eq!(ans2.len(), 1);
        assert!(ans2.contains(&[0, 2]));
    }

    #[test]
    fn nullary_answer_set() {
        let f = parse_formula("exists x. S(x)").unwrap();
        let ans = query_answers(&graph(), &f, &[]).unwrap();
        assert_eq!(ans.len(), 1); // the empty tuple: sentence holds
        let f2 = parse_formula("forall x. S(x)").unwrap();
        let ans2 = query_answers(&graph(), &f2, &[]).unwrap();
        assert!(ans2.is_empty());
    }

    #[test]
    fn errors() {
        let db = graph();
        assert!(matches!(
            eval_sentence(&db, &parse_formula("exists x. T(x)").unwrap()),
            Err(EvalError::UnknownRelation(_))
        ));
        assert!(matches!(
            eval_sentence(&db, &parse_formula("exists x. E(x)").unwrap()),
            Err(EvalError::ArityMismatch { .. })
        ));
        assert!(matches!(
            eval_sentence(&db, &parse_formula("exists x. x = 'nobody'").unwrap()),
            Err(EvalError::UnknownConstant(_))
        ));
        assert!(matches!(
            eval_formula(&db, &parse_formula("S(x)").unwrap(), &HashMap::new()),
            Err(EvalError::UnboundVariable(_))
        ));
    }

    #[test]
    fn second_order_quantification() {
        // ∃X ∀x (X(x) ↔ S(x)) — trivially true (take X = S).
        let db = graph();
        let f = Formula::ExistsRel(
            "X".into(),
            1,
            Box::new(parse_formula("forall x. (X(x) -> S(x)) & (S(x) -> X(x))").unwrap()),
        );
        assert!(eval_sentence(&db, &f).unwrap());

        // ∃X: X is a proper nonempty subset closed under E-successors.
        // For our path graph {2} works (2 has no successors).
        let g = Formula::ExistsRel(
            "X".into(),
            1,
            Box::new(
                parse_formula(
                    "(exists x. X(x)) & (exists x. !X(x)) & \
                     (forall x y. X(x) & E(x,y) -> X(y))",
                )
                .unwrap(),
            ),
        );
        assert!(eval_sentence(&db, &g).unwrap());

        // ∀X (∃x X(x)) is false (take X = ∅).
        let h = Formula::ForallRel(
            "X".into(),
            1,
            Box::new(parse_formula("exists x. X(x)").unwrap()),
        );
        assert!(!eval_sentence(&db, &h).unwrap());
    }

    #[test]
    fn second_order_guard() {
        let db = DatabaseBuilder::new()
            .universe_size(6)
            .relation("E", 2)
            .build();
        let f = Formula::ExistsRel(
            "X".into(),
            2,
            Box::new(parse_formula("exists x y. X(x,y)").unwrap()),
        );
        assert!(matches!(
            eval_sentence(&db, &f),
            Err(EvalError::SecondOrderTooLarge { .. })
        ));
    }

    #[test]
    fn quantifier_shadowing_restores_env() {
        // After evaluating ∃x inside, the outer binding of x must be intact.
        let f = parse_formula("S(x) & (exists x. !S(x)) & S(x)").unwrap();
        let mut b = HashMap::new();
        b.insert("x".to_string(), 0);
        assert!(eval_formula(&graph(), &f, &b).unwrap());
    }

    #[test]
    fn compiled_once_evaluates_every_world() {
        // Compile against the observed graph, then evaluate worlds that
        // share its vocabulary and universe.
        let db = graph();
        let f = parse_formula("exists y. E(x, y) & S(y)").unwrap();
        let mut compiled = CompiledFormula::new(&db, &f, &["x".to_string()]);
        let mut ranks = Vec::new();
        compiled.answer_ranks(&db, &mut ranks).unwrap();
        assert_eq!(ranks, vec![1]);
        let mut world = db.clone();
        world.set_fact(&qrel_db::Fact::new(0, vec![3, 0]), true);
        world.set_fact(&qrel_db::Fact::new(0, vec![1, 2]), false);
        compiled.answer_ranks(&world, &mut ranks).unwrap();
        assert_eq!(ranks, vec![3]);
        assert!(compiled.eval(&world, &[3]).unwrap());
        assert_eq!(
            compiled.answers(&world).unwrap(),
            query_answers(&world, &f, &["x".to_string()]).unwrap()
        );
        assert_eq!(tuple_rank(&[2, 3], 4), 11);
    }

    #[test]
    fn empty_universe_quantifiers() {
        let db = DatabaseBuilder::new()
            .universe_size(0)
            .relation("S", 1)
            .build();
        assert!(!eval_sentence(&db, &parse_formula("exists x. S(x)").unwrap()).unwrap());
        assert!(eval_sentence(&db, &parse_formula("forall x. S(x)").unwrap()).unwrap());
    }
}
