//! Exact plan evaluation over fact probabilities.
//!
//! A compiled [`Plan`] is database-independent. Each call first *binds*
//! it to one [`UnreliableDatabase`]: relation names become vocabulary
//! indexes and dense fact offsets, variables become slots of one
//! element array, constants become elements. Every name-resolution error
//! (`UnknownRelation`, `ArityMismatch`, `UnknownConstant`,
//! `UnboundVariable`) is raised there, so the walk that follows cannot
//! fail. The walk reads `μ` by dense index ([`UnreliableDatabase::mu_at`])
//! and observed truth through [`qrel_db::Relation::contains`] on one
//! reused tuple buffer; inner nodes combine child probabilities with the
//! independence rules the compiler proved applicable. No worlds are
//! enumerated and no lineage is built: cost is `O(|plan| · n^d)` for
//! projection depth `d`, polynomial where the world enumerator is
//! exponential.
//!
//! Each node's probability is an unreduced `u128` numerator/denominator
//! pair until a product overflows; from there that node continues in
//! reduced [`BigRational`] arithmetic. Both are exact and every result is
//! reduced once at the end, so answers are bit-identical to an
//! all-`BigRational` walk.

use crate::ir::Plan;
use qrel_arith::BigRational;
use qrel_db::Element;
use qrel_eval::{resolve_const, CompiledFormula, EvalError};
use qrel_logic::{Formula, Term};
use qrel_prob::UnreliableDatabase;
use std::convert::Infallible;

/// Exact reliability computed from a plan — same fields and semantics
/// as the Theorem 4.2 enumerator's `ExactReport`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReport {
    /// `H_ψ(𝔇)` — the expected Hamming distance.
    pub expected_error: BigRational,
    /// `R_ψ(𝔇) = 1 − H_ψ/n^k`.
    pub reliability: BigRational,
}

/// How a stoppable reliability run ([`reliability_until`]) ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanOutcome<C> {
    Complete(PlanReport),
    /// The stop callback returned `Err(cause)`. `partial_expected_error`
    /// is the exact `H` summed over the first `tuples_done` answer
    /// tuples; each of the others adds at most 1.
    Stopped {
        partial_expected_error: BigRational,
        tuples_done: usize,
        tuples_total: usize,
        cause: C,
    },
}

/// Project iterations between two polls of the stop callback, so a
/// Boolean query (a single answer tuple) stops too.
const STOP_PERIOD: u32 = 4096;

/// A term resolved at bind time.
#[derive(Debug, Clone, Copy)]
enum Arg {
    Slot(usize),
    Elem(Element),
}

/// A plan node bound to one database: [`Plan`] with names resolved.
#[derive(Debug)]
enum Node {
    Const(bool),
    Literal {
        positive: bool,
        rel: usize,
        /// Dense index of the relation's first fact.
        offset: usize,
        args: Vec<Arg>,
    },
    Equality {
        positive: bool,
        lhs: Arg,
        rhs: Arg,
    },
    Join(Vec<Node>),
    Union(Vec<Node>),
    Project {
        slot: usize,
        child: Box<Node>,
    },
    Complement(Box<Node>),
    Guard(Box<Node>),
}

/// The bind pass: lexical scope of variable names to slots (inner
/// bindings shadow outer ones).
struct Binder<'a> {
    ud: &'a UnreliableDatabase,
    scope: Vec<(&'a str, usize)>,
    slots: usize,
}

impl<'a> Binder<'a> {
    fn term(&self, t: &Term) -> Result<Arg, EvalError> {
        match t {
            Term::Var(v) => self
                .scope
                .iter()
                .rev()
                .find(|(name, _)| name == v)
                .map(|&(_, slot)| Arg::Slot(slot))
                .ok_or_else(|| EvalError::UnboundVariable(v.clone())),
            Term::Const(c) => resolve_const(self.ud.observed(), c).map(Arg::Elem),
        }
    }

    fn bind(&mut self, plan: &'a Plan) -> Result<Node, EvalError> {
        Ok(match plan {
            Plan::Const(b) => Node::Const(*b),
            Plan::Literal {
                positive,
                rel,
                args,
            } => {
                let db = self.ud.observed();
                let rel_ix = db
                    .vocabulary()
                    .index_of(rel)
                    .ok_or_else(|| EvalError::UnknownRelation(rel.clone()))?;
                let arity = db.relation(rel_ix).arity();
                if arity != args.len() {
                    return Err(EvalError::ArityMismatch {
                        rel: rel.clone(),
                        expected: arity,
                        got: args.len(),
                    });
                }
                Node::Literal {
                    positive: *positive,
                    rel: rel_ix,
                    offset: self.ud.indexer().offset(rel_ix),
                    args: args
                        .iter()
                        .map(|t| self.term(t))
                        .collect::<Result<_, _>>()?,
                }
            }
            Plan::Equality { positive, lhs, rhs } => Node::Equality {
                positive: *positive,
                lhs: self.term(lhs)?,
                rhs: self.term(rhs)?,
            },
            Plan::Join(cs) => Node::Join(self.bind_all(cs)?),
            Plan::Union(cs) => Node::Union(self.bind_all(cs)?),
            Plan::Project { var, child } => {
                let slot = self.slots;
                self.slots += 1;
                self.scope.push((var, slot));
                let child = self.bind(child);
                self.scope.pop();
                Node::Project {
                    slot,
                    child: Box::new(child?),
                }
            }
            Plan::Complement(c) => Node::Complement(Box::new(self.bind(c)?)),
            Plan::Guard(c) => Node::Guard(Box::new(self.bind(c)?)),
        })
    }

    fn bind_all(&mut self, plans: &'a [Plan]) -> Result<Vec<Node>, EvalError> {
        plans.iter().map(|p| self.bind(p)).collect()
    }
}

/// A probability in exact arithmetic: an unreduced `u128` pair while its
/// products fit, a reduced [`BigRational`] after.
#[derive(Debug, Clone)]
enum Prob {
    Ratio(u128, u128),
    Big(BigRational),
}

impl Prob {
    const ZERO: Prob = Prob::Ratio(0, 1);
    const ONE: Prob = Prob::Ratio(1, 1);

    fn certain(holds: bool) -> Prob {
        if holds {
            Prob::ONE
        } else {
            Prob::ZERO
        }
    }

    fn of(r: &BigRational) -> Prob {
        match (r.numer().magnitude().to_u128(), r.denom().to_u128()) {
            (Some(n), Some(d)) => Prob::Ratio(n, d),
            _ => Prob::Big(r.clone()),
        }
    }

    fn is_zero(&self) -> bool {
        match self {
            Prob::Ratio(n, _) => *n == 0,
            Prob::Big(b) => b.is_zero(),
        }
    }

    fn one_minus(self) -> Prob {
        match self {
            // A probability's numerator never exceeds its denominator.
            Prob::Ratio(n, d) => Prob::Ratio(d - n, d),
            Prob::Big(b) => Prob::Big(b.one_minus()),
        }
    }

    fn mul(self, other: Prob) -> Prob {
        match (self, other) {
            (Prob::Ratio(a, b), Prob::Ratio(c, d)) => match (a.checked_mul(c), b.checked_mul(d)) {
                (Some(n), Some(m)) => Prob::Ratio(n, m),
                _ => Prob::Big(
                    BigRational::from_u128_ratio(a, b).mul_ref(&BigRational::from_u128_ratio(c, d)),
                ),
            },
            // A certain factor leaves a wide product as it is.
            (Prob::Big(x), Prob::Ratio(c, d)) | (Prob::Ratio(c, d), Prob::Big(x)) if c == d => {
                Prob::Big(x)
            }
            (x, y) => Prob::Big(x.into_rational().mul_ref(&y.into_rational())),
        }
    }

    fn into_rational(self) -> BigRational {
        match self {
            Prob::Ratio(n, d) => BigRational::from_u128_ratio(n, d),
            Prob::Big(b) => b,
        }
    }
}

/// The walk over a bound plan: one slot array, one tuple buffer, and
/// the stop callback polled every [`STOP_PERIOD`] project iterations.
struct Walk<'a, S> {
    ud: &'a UnreliableDatabase,
    n: usize,
    slots: Vec<Element>,
    tuple: Vec<Element>,
    steps: u32,
    stop: S,
}

impl<'a, C, S: FnMut() -> Result<(), C>> Walk<'a, S> {
    fn new(ud: &'a UnreliableDatabase, slots: usize, stop: S) -> Self {
        Walk {
            ud,
            n: ud.size(),
            slots: vec![0; slots],
            tuple: Vec::new(),
            steps: 0,
            stop,
        }
    }

    fn arg(&self, a: Arg) -> Element {
        match a {
            Arg::Slot(s) => self.slots[s],
            Arg::Elem(e) => e,
        }
    }

    /// `Pr[𝔅 ⊨ node]` under the current slots.
    fn prob(&mut self, node: &Node) -> Result<Prob, C> {
        Ok(match node {
            Node::Const(b) => Prob::certain(*b),
            Node::Literal {
                positive,
                rel,
                offset,
                args,
            } => {
                self.tuple.clear();
                let mut rank = 0;
                for &a in args {
                    let e = self.arg(a);
                    self.tuple.push(e);
                    rank = rank * self.n + e as usize;
                }
                let mu = Prob::of(self.ud.mu_at(offset + rank));
                // ν = 1 − μ for an observed fact, μ for an absent one;
                // a negated literal takes 1 − ν.
                let observed = self.ud.observed().relation(*rel).contains(&self.tuple);
                if observed == *positive {
                    mu.one_minus()
                } else {
                    mu
                }
            }
            Node::Equality { positive, lhs, rhs } => {
                Prob::certain((self.arg(*lhs) == self.arg(*rhs)) == *positive)
            }
            Node::Join(children) => {
                let mut p = Prob::ONE;
                for c in children {
                    p = p.mul(self.prob(c)?);
                    if p.is_zero() {
                        break;
                    }
                }
                p
            }
            Node::Union(children) => {
                let mut miss = Prob::ONE;
                for c in children {
                    miss = miss.mul(self.prob(c)?.one_minus());
                    if miss.is_zero() {
                        break;
                    }
                }
                miss.one_minus()
            }
            Node::Project { slot, child } => {
                let mut miss = Prob::ONE;
                for a in 0..self.n as Element {
                    self.steps += 1;
                    if self.steps == STOP_PERIOD {
                        self.steps = 0;
                        (self.stop)()?;
                    }
                    self.slots[*slot] = a;
                    miss = miss.mul(self.prob(child)?.one_minus());
                    if miss.is_zero() {
                        break;
                    }
                }
                miss.one_minus()
            }
            Node::Complement(child) => self.prob(child)?.one_minus(),
            Node::Guard(child) => {
                if self.n == 0 {
                    Prob::ZERO
                } else {
                    self.prob(child)?
                }
            }
        })
    }
}

/// Bind `plan` to `ud` with `free` in slots `0..k`; returns the root and
/// the slot count.
fn bind(ud: &UnreliableDatabase, plan: &Plan, free: &[String]) -> Result<(Node, usize), EvalError> {
    let mut binder = Binder {
        ud,
        scope: free.iter().map(String::as_str).zip(0..).collect(),
        slots: free.len(),
    };
    let root = binder.bind(plan)?;
    Ok((root, binder.slots))
}

/// `Pr[𝔅 ⊨ ψ]` for a Boolean query's plan.
pub fn sentence_probability(
    ud: &UnreliableDatabase,
    plan: &Plan,
) -> Result<BigRational, EvalError> {
    let (root, slots) = bind(ud, plan, &[])?;
    let mut walk = Walk::new(ud, slots, || Ok::<(), Infallible>(()));
    match walk.prob(&root) {
        Ok(p) => Ok(p.into_rational()),
        Err(never) => match never {},
    }
}

/// Exact reliability from a plan: per tuple `t̄`, the probability that
/// the actual answer disagrees with the observed one is `1 − p_t̄` when
/// `t̄ ∈ ψ^𝔄` and `p_t̄` otherwise; summing gives the expected Hamming
/// distance `H_ψ` by linearity, identically to the Theorem 4.2
/// enumerator.
pub fn reliability(
    ud: &UnreliableDatabase,
    plan: &Plan,
    formula: &Formula,
    free: &[String],
) -> Result<PlanReport, EvalError> {
    match reliability_until(ud, plan, formula, free, || Ok::<(), Infallible>(()))? {
        PlanOutcome::Complete(report) => Ok(report),
        PlanOutcome::Stopped { cause, .. } => match cause {},
    }
}

/// [`reliability`] that polls `stop` before every answer tuple and every
/// few thousand project iterations, and ends with the exact partial sum
/// at the first `Err`.
pub fn reliability_until<C>(
    ud: &UnreliableDatabase,
    plan: &Plan,
    formula: &Formula,
    free: &[String],
    stop: impl FnMut() -> Result<(), C>,
) -> Result<PlanOutcome<C>, EvalError> {
    let (root, slots) = bind(ud, plan, free)?;
    let db = ud.observed();
    let mut observed = CompiledFormula::new(db, formula, free);
    let k = free.len();
    let tuples_total = db.universe().tuple_count(k);
    let mut walk = Walk::new(ud, slots, stop);
    let mut h = BigRational::zero();
    for (tuples_done, tuple) in db.universe().tuples(k).enumerate() {
        let p = match (walk.stop)().and_then(|()| {
            walk.slots[..k].copy_from_slice(&tuple);
            walk.prob(&root)
        }) {
            Ok(p) => p,
            Err(cause) => {
                return Ok(PlanOutcome::Stopped {
                    partial_expected_error: h,
                    tuples_done,
                    tuples_total,
                    cause,
                })
            }
        };
        let miss = if observed.eval(db, &tuple)? {
            p.one_minus()
        } else {
            p
        };
        h = h.add_ref(&miss.into_rational());
    }
    let total = BigRational::from_int(tuples_total as i64);
    let reliability = if total.is_zero() {
        BigRational::one()
    } else {
        h.div_ref(&total).one_minus()
    };
    Ok(PlanOutcome::Complete(PlanReport {
        expected_error: h,
        reliability,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, referee};
    use qrel_db::DatabaseBuilder;
    use qrel_eval::FoQuery;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Error rates for the sweep: pinned facts, small primes, and
    /// 30–40-bit denominators that overflow a `u128` product within a
    /// few factors.
    const MUS: [&str; 10] = [
        "0",
        "1",
        "1/2",
        "1/3",
        "2/7",
        "3/13",
        "1/10",
        "999999937/1000000007",
        "1/1099511627791",
        "12345678901/98765432109",
    ];

    /// Safe queries over `S/1, T/1, E/2, F/2` with k = 0, 1 and 2 free
    /// variables: negated literals, equalities, unions, complements
    /// (`∀`), the nonempty-universe guard and constants.
    const QUERIES: [&str; 30] = [
        "true",
        "false",
        "exists x. true",
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
        "exists x y. (E(x, y) & !(x = y))",
        "exists x. (T('e1') & S(x))",
        "exists x. S('0')",
        "S(x)",
        "!S(x) | T(x)",
        "exists y. E(x, y)",
        "exists y. (S(x) & E(x, y))",
        "exists y. (E(x, y) & S(y))",
        "S(x) & exists y. E(y, x)",
        "forall y. (E(x, y) | F(x, y))",
        "x = 'e0' | S(x)",
        "S(x) & !T(y)",
        "E(x, y) & x = y",
        "exists z. (E(x, z) & F(y, z))",
        "!E(x, y) & exists z. F(z, x)",
    ];

    /// A random instance over `S/1, T/1, E/2, F/2` with `n ≤ 4`
    /// elements (sometimes none), each fact observed with probability
    /// 1/2 and given a `μ` from [`MUS`].
    fn instance(rng: &mut StdRng) -> UnreliableDatabase {
        let n = rng.gen_range(0..5usize);
        let mut observed = DatabaseBuilder::new()
            .universe_size(n)
            .relation("S", 1)
            .relation("T", 1)
            .relation("E", 2)
            .relation("F", 2)
            .build();
        let indexer = observed.fact_indexer();
        for fact in indexer.iter() {
            observed.set_fact(&fact, rng.gen_bool(0.5));
        }
        let mut ud = UnreliableDatabase::reliable(observed);
        for fact in indexer.iter() {
            let mu = BigRational::parse(MUS[rng.gen_range(0..MUS.len())]).unwrap();
            ud.set_error(&fact, mu).unwrap();
        }
        ud
    }

    /// The bound walk equals the referee bit for bit on random
    /// instances, and the sweep reaches answers whose denominators are
    /// wider than a `u128`, so the overflow path is exercised.
    #[test]
    fn bound_walk_equals_the_referee_bit_for_bit() {
        let queries: Vec<(FoQuery, Plan)> = QUERIES
            .iter()
            .map(|src| {
                let q = FoQuery::parse(src).unwrap();
                let plan = compile(q.formula()).unwrap_or_else(|u| panic!("{src}: {u}"));
                (q, plan)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(29);
        let mut widest = 0;
        let mut compared = 0;
        for _ in 0..150 {
            let ud = instance(&mut rng);
            for (q, plan) in &queries {
                let free = q.free_vars();
                let fast = reliability(&ud, plan, q.formula(), free);
                let slow = referee::reliability(&ud, plan, q.formula(), free);
                match (&fast, &slow) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a, b, "{} on n = {}", q.formula(), ud.size());
                        widest = widest.max(a.expected_error.denom().bit_length());
                        compared += 1;
                    }
                    // Binding resolves every constant up front; the
                    // referee meets one only where its walk gets to it.
                    (Err(EvalError::UnknownConstant(_)), Ok(_)) => {}
                    _ => assert_eq!(fast, slow, "{} on n = {}", q.formula(), ud.size()),
                }
                if free.is_empty() {
                    match (
                        sentence_probability(&ud, plan),
                        referee::sentence_probability(&ud, plan),
                    ) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a, b, "{} on n = {}", q.formula(), ud.size());
                            widest = widest.max(a.denom().bit_length());
                        }
                        (Err(EvalError::UnknownConstant(_)), Ok(_)) => {}
                        (a, b) => assert_eq!(a, b, "{} on n = {}", q.formula(), ud.size()),
                    }
                }
            }
        }
        assert!(compared > 1000, "only {compared} comparisons");
        assert!(
            widest > 128,
            "no answer overflowed u128 (widest {widest} bits)"
        );
    }

    /// Names resolve at bind, before the walk: a plan naming an unknown
    /// relation fails even where the walk would never read it, as under
    /// an empty universe (the referee answers 0 there).
    #[test]
    fn unknown_names_fail_at_bind_even_under_an_empty_universe() {
        let empty = UnreliableDatabase::reliable(
            DatabaseBuilder::new()
                .universe_size(0)
                .relation("S", 1)
                .build(),
        );
        let plan = compile(&qrel_logic::parser::parse_formula("exists x. Q(x)").unwrap()).unwrap();
        assert_eq!(
            sentence_probability(&empty, &plan),
            Err(EvalError::UnknownRelation("Q".into()))
        );
        assert_eq!(
            referee::sentence_probability(&empty, &plan),
            Ok(BigRational::zero())
        );
        let bad =
            compile(&qrel_logic::parser::parse_formula("exists x. S(x, x)").unwrap()).unwrap();
        assert!(matches!(
            sentence_probability(&empty, &bad),
            Err(EvalError::ArityMismatch { .. })
        ));
        let unbound = Plan::Literal {
            positive: true,
            rel: "S".into(),
            args: vec![Term::Var("x".into())],
        };
        assert_eq!(
            sentence_probability(&empty, &unbound),
            Err(EvalError::UnboundVariable("x".into()))
        );
    }

    /// The stop callback ends a run with the exact partial sum of the
    /// tuples it finished, and a Boolean query stops inside its projects.
    #[test]
    fn a_stop_keeps_the_exact_partial_sum() {
        let mut rng = StdRng::seed_from_u64(7);
        let ud = loop {
            let ud = instance(&mut rng);
            if ud.size() == 4 {
                break ud;
            }
        };
        let q = FoQuery::parse("exists y. (E(x, y) & S(y))").unwrap();
        let plan = compile(q.formula()).unwrap();
        let full = reliability(&ud, &plan, q.formula(), q.free_vars()).unwrap();
        let mut polls = 0;
        let out = reliability_until(&ud, &plan, q.formula(), q.free_vars(), || {
            polls += 1;
            if polls > 2 {
                Err("stop")
            } else {
                Ok(())
            }
        })
        .unwrap();
        let PlanOutcome::Stopped {
            partial_expected_error,
            tuples_done,
            tuples_total,
            cause,
        } = out
        else {
            panic!("did not stop");
        };
        assert_eq!((tuples_done, tuples_total, cause), (2, 4, "stop"));
        assert!(partial_expected_error <= full.expected_error);

        // 4^3 = 64 project iterations per tuple never reach the period on
        // this instance, so a Boolean query over a wider universe: the
        // only tuple is the empty one, and the stop lands mid-walk.
        let wide = UnreliableDatabase::reliable(
            DatabaseBuilder::new()
                .universe_size(80)
                .relation("E", 2)
                .build(),
        );
        let b = FoQuery::parse("exists x y. E(x, y)").unwrap();
        let plan = compile(b.formula()).unwrap();
        let mut polls = 0;
        let out = reliability_until(&wide, &plan, b.formula(), &[], || {
            polls += 1;
            if polls > 1 {
                Err(())
            } else {
                Ok(())
            }
        })
        .unwrap();
        assert!(matches!(
            out,
            PlanOutcome::Stopped {
                tuples_done: 0,
                tuples_total: 1,
                ..
            }
        ));
    }
}
