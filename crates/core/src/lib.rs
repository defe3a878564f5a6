//! Query reliability on unreliable databases — the algorithms of
//! Grädel, Gurevich & Hirsch, *The Complexity of Query Reliability*
//! (PODS 1998).
//!
//! For an unreliable database `𝔇 = (𝔄, μ)` and a k-ary query `ψ`, the
//! *expected error* is `H_ψ(𝔇) = E|ψ^𝔄 Δ ψ^𝔅|` over random actual
//! databases `𝔅 ∈ Ω(𝔇)`, and the *reliability* is
//! `R_ψ(𝔇) = 1 − H_ψ(𝔇)/n^k`.
//!
//! Each constructive result of the paper is a module here:
//!
//! | Paper | Module | Content |
//! |---|---|---|
//! | Prop 3.1 | [`quantifier_free`] | exact reliability of quantifier-free queries in PTIME |
//! | Prop 3.2 | [`reductions::mon2sat`] | #MONOTONE-2SAT ≤ `H_ψ` for a fixed conjunctive `ψ` |
//! | Thm 4.2 | [`exact`] | exact reliability of arbitrary queries by weighted world enumeration, with the `g`-normalized integer-count certificate |
//! | Thm 5.3 | [`prob_dnf`] | Prob-kDNF → #DNF reduction (binary counters, legal-assignment accounting) and the resulting FPTRAS |
//! | Thm 5.4 | [`existential`] | FPTRAS for probabilities of existential sentences (ground → kDNF → Karp–Luby) |
//! | Cor 5.5 | [`reliability_approx`] | absolute-error reliability estimation for existential/universal queries, k-ary budget splitting |
//! | Lem 5.7–5.9 | [`absolute`], [`reductions::four_col`] | absolute reliability `AR_ψ`: decision procedures and the 4-colourability hardness reduction |
//! | Thm 5.12 | [`ptime_estimator`] | absolute-error Monte-Carlo estimation for *all* polynomial-time evaluable queries via the `(ψ ∨ Rc) ∧ Rd` padding construction |
//! | Thm 4.1 | [`so_counting`] | the Regan–Schwentick one-bit-of-#P window arithmetic, simulated with explicit junk |
//! | Lem 5.10 | [`approx_hardness`] | the majority-vote decision procedure showing (ε,δ)-approximation of NP-hard-positivity functions implies NP ⊆ BPP |

pub mod absolute;
pub mod approx_hardness;
pub mod exact;
pub mod existential;
pub mod prob_dnf;
pub mod ptime_estimator;
pub mod quantifier_free;
pub mod reductions;
pub mod reliability_approx;
pub mod so_counting;

pub use absolute::is_absolutely_reliable;
pub use exact::{
    exact_probability, exact_reliability, exact_reliability_budgeted, ExactOutcome, ExactReport,
};
pub use existential::{
    existential_probability_bitslice, existential_probability_exact,
    existential_probability_fptras, Route,
};
pub use prob_dnf::ProbDnfReduction;
pub use ptime_estimator::{
    direct_reliability_budgeted, PaddingEstimator, PaddingOutcome, PtimeEstimate,
};
pub use quantifier_free::{qf_reliability, qf_reliability_budgeted, QfOutcome};
pub use reliability_approx::{
    approximate_reliability, approximate_reliability_budgeted, ApproxOutcome,
};
