//! `qrel-oracle` — seeded differential & metamorphic fuzzing across
//! every reliability engine in the workspace.
//!
//! The repo computes the same quantity — `Pr[ψ]` over the world
//! distribution `Ω(𝔇)`, and the reliability `R_ψ(𝔇)` derived from it —
//! through many independent code paths: the Prop 3.1 quantifier-free
//! fast path, the Thm 4.2 Gray-code world enumerator (serial, parallel,
//! budgeted-sharded, and behind the budgeted [`Solver`]), the Thm 5.4
//! grounding + Shannon pipeline and its Karp–Luby FPTRAS, the Thm 5.12
//! padding estimator, naive Monte Carlo, and for propositional DNF
//! events the Shannon / inclusion–exclusion / ROBDD / #SAT quartet. This
//! crate turns that redundancy into a test oracle:
//!
//! * [`gen`] — deterministic seeded generators for structured instances,
//!   clustered near the paper's hard/easy boundary;
//! * [`diff`] — the differential runner: exact engines must agree
//!   bit-for-bit, samplers are Bernoulli trials against their (ε, δ)
//!   envelopes, aggregated run-wide;
//! * [`meta`] — metamorphic laws from the paper, checked exactly
//!   (complement, factorization, monotonicity, the Thm 5.12 padding
//!   identity built end-to-end, the §3-Remark model restriction);
//! * [`reference`](mod@reference) — the reference `HashMap` interpreter and the
//!   product-weight world sum, independent of the compiled evaluator and
//!   the integer Gray-code weights they referee;
//! * [`shrink`](mod@shrink) — greedy delta-debugging to a locally
//!   minimal repro;
//! * [`runner`] — the fuzz loop gluing the above, serializing shrunk
//!   repros as JSON for `tests/corpus/`;
//! * [`serve_path`] — round-trips cases through a live `POST /v1/solve`
//!   and demands HTTP ≡ library bit-equality;
//! * [`chaos`] — the same round trip with a seeded [`FaultPlan`] armed,
//!   demanding the fail-closed invariant: answers are bit-identical to
//!   fault-free or explicitly tagged, errors are explicit, and nothing
//!   outlives its deadline past the watchdog + injected-stall budget.
//!
//! [`FaultPlan`]: qrel_faults::FaultPlan
//!
//! [`Solver`]: qrel_runtime::Solver

pub mod case;
pub mod chaos;
pub mod diff;
pub mod gen;
pub mod meta;
pub mod reference;
pub mod runner;
pub mod serve_path;
pub mod shrink;

pub use case::{DnfEventSpec, FuzzCase};
pub use chaos::{run_chaos, sample_plan, ChaosConfig, ChaosReport, ChaosViolation};
pub use diff::{check_case, CheckOutcome, Failure, SamplerTrial};
pub use gen::{generate, FAMILIES};
pub use meta::check_metamorphic;
pub use runner::{run_fuzz, EngineStats, FuzzConfig, FuzzReport, Repro};
pub use serve_path::{serve_round_trip, ServeReport};
pub use shrink::shrink;
