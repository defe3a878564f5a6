//! # qrel — The Complexity of Query Reliability
//!
//! A Rust implementation of the model and algorithms of
//!
//! > Erich Grädel, Yuri Gurevich, Colin Hirsch.
//! > *The Complexity of Query Reliability.* PODS 1998.
//!
//! An *unreliable database* `𝔇 = (𝔄, μ)` is an observed finite relational
//! structure `𝔄` plus an error probability `μ(Rā)` per atomic fact. It
//! induces a distribution `ν` over possible actual databases; the
//! *reliability* of a k-ary query `ψ` is
//! `R_ψ(𝔇) = 1 − E|ψ^𝔄 Δ ψ^𝔅| / n^k`.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`arith`] — exact big-integer / big-rational arithmetic;
//! * [`logic`] — FO/SO formulas, a query parser, propositional normal
//!   forms, threshold encodings, monotone 2-CNF;
//! * [`db`] — finite structures, fact indexing, stratified Datalog;
//! * [`eval`] — model checking, existential grounding, the [`eval::Query`] trait;
//! * [`prob`] — the `(𝔄, μ)` model, possible worlds, sampling, the `g` normalizer;
//! * [`count`] — exact #SAT / Prob-DNF oracles, Karp–Luby FPTRAS, sample bounds;
//! * [`core`] — the paper's reliability algorithms and hardness reductions;
//! * [`plan`] — the safe-plan compiler: hierarchical self-join-free
//!   queries answered exactly in PTIME over fact probabilities, never
//!   enumerating worlds;
//! * [`budget`] — cooperative work budgets, cancellation, [`budget::QrelError`];
//! * [`runtime`] — the budgeted [`runtime::Solver`] with the graceful
//!   degradation ladder;
//! * [`metafinite`] — functional databases with aggregates (Section 6);
//! * [`serve`] — the engine as a networked service: std-only HTTP/1.1
//!   with admission control, result caching, and Prometheus metrics.
//!
//! ## Quick example
//!
//! ```
//! use qrel::prelude::*;
//!
//! // An observed friendship graph with one dubious edge.
//! let db = DatabaseBuilder::new()
//!     .universe_names(["ann", "bob", "cal"])
//!     .relation("Friend", 2)
//!     .tuples("Friend", [vec![0, 1], vec![1, 2]])
//!     .build();
//! let mut ud = UnreliableDatabase::reliable(db);
//! ud.set_error(&Fact::new(0, vec![1, 2]), BigRational::from_ratio(1, 10))
//!     .unwrap();
//!
//! // ψ = "someone is friends with cal"
//! let q = FoQuery::parse("exists x. Friend(x, 'cal')").unwrap();
//! let report = exact_reliability(&ud, &q).unwrap();
//! assert_eq!(report.reliability, BigRational::from_ratio(9, 10));
//! ```

pub use qrel_arith as arith;
pub use qrel_budget as budget;
pub use qrel_core as core;
pub use qrel_count as count;
pub use qrel_db as db;
pub use qrel_eval as eval;
pub use qrel_logic as logic;
pub use qrel_metafinite as metafinite;
pub use qrel_oracle as oracle;
pub use qrel_plan as plan;
pub use qrel_prob as prob;
pub use qrel_runtime as runtime;
pub use qrel_serve as serve;
pub use qrel_store as store;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use qrel_arith::{BigInt, BigRational, BigUint};
    pub use qrel_core::{
        absolute::{find_unreliability_witness, is_absolutely_reliable},
        exact::{counting_certificate, exact_probability, exact_reliability},
        existential::{existential_probability_exact, existential_probability_fptras, Route},
        prob_dnf::ProbDnfReduction,
        ptime_estimator::{direct_probability, PaddingEstimator},
        quantifier_free::qf_reliability,
        reductions,
        reliability_approx::approximate_reliability,
    };
    pub use qrel_count::{
        count_mon2sat, dnf_probability_shannon, naive_mc_probability_with_samples, KarpLuby,
    };
    pub use qrel_db::{
        datalog::DatalogProgram, Database, DatabaseBuilder, Element, Fact, Relation, Universe,
    };
    pub use qrel_eval::{eval_sentence, ground_existential, DatalogQuery, FnQuery, FoQuery, Query};
    pub use qrel_logic::{
        mon2sat::Monotone2Sat, parser::parse_formula, Formula, Fragment, Term, Vocabulary,
    };
    pub use qrel_metafinite::{
        EntryDistribution, FunctionalDatabase, MTerm, MultisetOp, ROp, UnreliableFunctionalDatabase,
    };
    pub use qrel_plan::{compile as compile_plan, pairwise_hierarchical, Plan};
    pub use qrel_prob::{ErrorModel, UnreliableDatabase, WorldSampler};
    pub use qrel_runtime::{
        Budget, CancelToken, Confidence, Method, QrelError, Resource, SolveReport, Solver,
    };
}
