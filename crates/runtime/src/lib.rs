//! Budgeted solver runtime: deadlines, cancellation, and a graceful
//! degradation ladder over the paper's reliability methods.
//!
//! The complexity landscape of Grädel, Gurevich & Hirsch makes every
//! entry point in this workspace a potential cliff: exact reliability is
//! FP^#P-complete (Thm 4.2, `2^u` worlds), grounding an existential
//! query can blow up a DNF, and the FPTRAS sampling loops run for
//! `O(m·ε⁻²·ln(1/δ))` iterations. The [`Solver`] here makes all of that
//! callable from a service:
//!
//! - a cooperative [`Budget`] (wall-clock deadline + caps on worlds,
//!   samples, and DNF terms + a thread-safe [`CancelToken`]) that the
//!   core hot loops observe via cheap `charge`/`checkpoint` calls;
//! - fragment-based routing plus a **degradation ladder**
//!   ([`Method::Auto`]): safe plan → qf fast path → exact enumeration
//!   (when `2^u` fits a cap) → FPTRAS → direct Monte-Carlo, where a
//!   budget trip falls through to the next rung instead of failing and
//!   the final answer carries an explicit [`Confidence`] tag;
//! - the structured [`QrelError`] taxonomy shared by the whole
//!   workspace; and
//! - panic isolation: each rung runs under `catch_unwind`, so a solver
//!   bug degrades the answer instead of aborting the process.
//!
//! ```
//! use qrel_arith::BigRational;
//! use qrel_db::DatabaseBuilder;
//! use qrel_eval::FoQuery;
//! use qrel_prob::UnreliableDatabase;
//! use qrel_runtime::{Budget, Confidence, Solver};
//! use std::time::Duration;
//!
//! let db = DatabaseBuilder::new()
//!     .universe_size(2)
//!     .relation("S", 1)
//!     .tuples("S", [vec![0]])
//!     .build();
//! let mut ud = UnreliableDatabase::reliable(db);
//! ud.set_relation_error("S", BigRational::from_ratio(1, 3)).unwrap();
//!
//! let query = FoQuery::parse("exists x. S(x)").unwrap();
//! let budget = Budget::unlimited().with_deadline(Duration::from_secs(5));
//! let report = Solver::new().solve(&ud, &query, &budget).unwrap();
//! assert_eq!(report.confidence, Confidence::Exact);
//! ```

mod report;
mod solver;

pub use qrel_budget::{Budget, CancelToken, Exhausted, QrelError, Resource};
pub use report::{Completion, Confidence, Method, RungOutcome, Skip, SolveReport, TraceStep};
pub use solver::{
    PlanHint, ProgressEvent, ProgressHook, Solver, DEFAULT_MAX_EXACT_WORLDS, MAX_RUNG_RETRIES,
};
