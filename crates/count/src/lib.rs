//! Counting and estimation substrate.
//!
//! The paper's algorithmic results lean on three computational
//! primitives, all provided here:
//!
//! * **exact #SAT** ([`sharp_sat`]) — a DPLL model counter used as the
//!   independent oracle for the #MONOTONE-2SAT reduction of
//!   Proposition 3.2 (Valiant's #P-complete problem);
//! * **exact DNF probability** ([`exact_dnf`], [`bdd`]) — three
//!   independent exact algorithms (Shannon expansion,
//!   inclusion–exclusion, and ROBDD compilation) for `Prob-DNF`, the
//!   ground truth against which the randomized approximation schemes are
//!   validated;
//! * **Karp–Luby coverage sampling** ([`karp_luby`]) — the FPTRAS for
//!   #DNF (Theorem 5.2) and its weighted variant for Prob-DNF, plus the
//!   [`naive_mc`] baseline it dominates, and the sample-size
//!   [`bounds`] including Lemma 5.11's `t(ξ, ε, δ)`.

pub mod bdd;
pub mod bitslice;
pub mod bounds;
pub mod exact_dnf;
pub mod karp_luby;
pub mod naive_mc;
pub mod sharp_sat;

pub use bdd::{dnf_probability_bdd, Bdd};
pub use bitslice::{dnf_count_models_bitslice, dnf_probability_bitslice};
pub use exact_dnf::{dnf_probability_enum, dnf_probability_ie, dnf_probability_shannon};
pub use karp_luby::{KarpLuby, KarpLubyReport};
pub use naive_mc::naive_mc_probability_with_samples;
pub use sharp_sat::{count_models, count_mon2sat};
