//! The referee for [`crate::eval`]: the plain plan walk, kept for tests.
//!
//! It re-resolves every name on every visit, keeps its environment in a
//! `HashMap`, builds a [`Fact`] per literal and computes in reduced
//! [`BigRational`] throughout. It is slow and obviously right, which is
//! what a referee for the bound `u128` walk should be.

use crate::eval::PlanReport;
use crate::ir::Plan;
use qrel_arith::BigRational;
use qrel_db::{Element, Fact};
use qrel_eval::{query_answers, resolve_const, EvalError};
use qrel_logic::{Formula, Term};
use qrel_prob::UnreliableDatabase;
use std::collections::HashMap;

fn resolve_term(
    ud: &UnreliableDatabase,
    env: &HashMap<String, Element>,
    t: &Term,
) -> Result<Element, EvalError> {
    match t {
        Term::Var(v) => env
            .get(v)
            .copied()
            .ok_or_else(|| EvalError::UnboundVariable(v.clone())),
        Term::Const(c) => resolve_const(ud.observed(), c),
    }
}

/// `Pr[𝔅 ⊨ plan]` under `env`. The environment must bind every free
/// variable of the plan's leaves.
pub fn probability(
    ud: &UnreliableDatabase,
    plan: &Plan,
    env: &mut HashMap<String, Element>,
) -> Result<BigRational, EvalError> {
    match plan {
        Plan::Const(b) => Ok(if *b {
            BigRational::one()
        } else {
            BigRational::zero()
        }),
        Plan::Literal {
            positive,
            rel,
            args,
        } => {
            let vocab = ud.observed().vocabulary();
            let rel_ix = vocab
                .index_of(rel)
                .ok_or_else(|| EvalError::UnknownRelation(rel.clone()))?;
            let arity = ud.observed().relation(rel_ix).arity();
            if arity != args.len() {
                return Err(EvalError::ArityMismatch {
                    rel: rel.clone(),
                    expected: arity,
                    got: args.len(),
                });
            }
            let tuple: Vec<Element> = args
                .iter()
                .map(|t| resolve_term(ud, env, t))
                .collect::<Result<_, _>>()?;
            let nu = ud.nu(&Fact::new(rel_ix, tuple));
            Ok(if *positive { nu } else { nu.one_minus() })
        }
        Plan::Equality { positive, lhs, rhs } => {
            let holds = resolve_term(ud, env, lhs)? == resolve_term(ud, env, rhs)?;
            Ok(if holds == *positive {
                BigRational::one()
            } else {
                BigRational::zero()
            })
        }
        Plan::Join(children) => {
            let mut p = BigRational::one();
            for c in children {
                p = p.mul_ref(&probability(ud, c, env)?);
                if p.is_zero() {
                    break;
                }
            }
            Ok(p)
        }
        Plan::Union(children) => {
            let mut miss = BigRational::one();
            for c in children {
                miss = miss.mul_ref(&probability(ud, c, env)?.one_minus());
                if miss.is_zero() {
                    break;
                }
            }
            Ok(miss.one_minus())
        }
        Plan::Project { var, child } => {
            let shadowed = env.get(var).copied();
            let n = ud.size() as Element;
            let mut miss = BigRational::one();
            let mut failure = None;
            for a in 0..n {
                env.insert(var.clone(), a);
                match probability(ud, child, env) {
                    Ok(p) => {
                        miss = miss.mul_ref(&p.one_minus());
                        if miss.is_zero() {
                            break;
                        }
                    }
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            match shadowed {
                Some(e) => {
                    env.insert(var.clone(), e);
                }
                None => {
                    env.remove(var);
                }
            }
            match failure {
                Some(e) => Err(e),
                None => Ok(miss.one_minus()),
            }
        }
        Plan::Complement(child) => Ok(probability(ud, child, env)?.one_minus()),
        Plan::Guard(child) => {
            if ud.size() == 0 {
                Ok(BigRational::zero())
            } else {
                probability(ud, child, env)
            }
        }
    }
}

/// `Pr[𝔅 ⊨ ψ]` for a Boolean query's plan.
pub fn sentence_probability(
    ud: &UnreliableDatabase,
    plan: &Plan,
) -> Result<BigRational, EvalError> {
    probability(ud, plan, &mut HashMap::new())
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
    let observed = query_answers(ud.observed(), formula, free)?;
    let k = free.len();
    let mut h = BigRational::zero();
    let mut env = HashMap::new();
    for tuple in ud.observed().universe().tuples(k) {
        env.clear();
        for (v, e) in free.iter().zip(tuple.iter()) {
            env.insert(v.clone(), *e);
        }
        let p = probability(ud, plan, &mut env)?;
        let miss = if observed.contains(&tuple) {
            p.one_minus()
        } else {
            p
        };
        h = h.add_ref(&miss);
    }
    let total = BigRational::from_int(ud.observed().universe().tuple_count(k) as i64);
    let reliability = if total.is_zero() {
        BigRational::one()
    } else {
        h.div_ref(&total).one_minus()
    };
    Ok(PlanReport {
        expected_error: h,
        reliability,
    })
}
