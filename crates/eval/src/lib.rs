//! Query evaluation over finite relational structures.
//!
//! * [`fo`] — model checking for first-order formulas (with bounded
//!   second-order quantification by relation enumeration), compiled once
//!   per vocabulary and universe, and answer-set computation
//!   `ψ^𝔄 = {ā : 𝔄 ⊨ ψ(ā)}`;
//! * [`ground`] — the propositionalization step of Theorem 5.4: an
//!   existential sentence over a database becomes a kDNF formula whose
//!   variables are atomic facts;
//! * [`query`] — the [`query::Query`] trait unifying first-order queries,
//!   Datalog queries and arbitrary polynomial-time evaluable predicates
//!   (the generality Theorem 5.12 needs).

pub mod fo;
pub mod ground;
pub mod query;

pub use fo::{
    eval_formula, eval_sentence, query_answers, resolve_const, tuple_rank, CompiledFormula,
    EvalError,
};
pub use ground::{ground_existential, ground_existential_budgeted, GroundError, Grounding};
pub use query::{rank_difference, BoundQuery, BoxedQuery, DatalogQuery, FnQuery, FoQuery, Query};

use qrel_budget::{Exhausted, QrelError, Resource};

// The conversions into the workspace error taxonomy live here (next to
// the error types they consume) because `qrel-budget` sits below this
// crate and cannot name them.
impl From<EvalError> for QrelError {
    fn from(e: EvalError) -> Self {
        QrelError::Eval(e.to_string())
    }
}

impl From<GroundError> for QrelError {
    fn from(e: GroundError) -> Self {
        match e {
            GroundError::NotExistential => QrelError::Unsupported(
                "formula is not existential (universal or second-order quantifier)".into(),
            ),
            // The caller-supplied term cap is a terms budget in all but
            // name; report it as one so retry logic treats them alike.
            GroundError::TooLarge { max_terms } => QrelError::BudgetExhausted(Exhausted {
                resource: Resource::Terms,
                spent: max_terms as u64,
                limit: Some(max_terms as u64),
            }),
            // Route by resource: deadline and cancel trips become
            // Timeout/Cancelled, counter overruns stay BudgetExhausted.
            GroundError::Budget(x) => QrelError::from(x),
            GroundError::Eval(e) => QrelError::Eval(e.to_string()),
        }
    }
}
