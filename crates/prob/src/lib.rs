//! The probabilistic model of unreliable databases (Section 2 of the
//! paper).
//!
//! An unreliable database is a pair `𝔇 = (𝔄, μ)`: an observed finite
//! relational structure `𝔄` together with an error probability `μ(Rā)`
//! for every atomic statement. It induces a probability space `Ω(𝔇)` of
//! databases of the same format, with
//!
//! ```text
//! ν(Rā) = 1 − μ(Rā)   if 𝔄 ⊨ Rā        (probability the fact holds
//! ν(Rā) = μ(Rā)       if 𝔄 ⊨ ¬Rā        in the actual database)
//! ν(𝔅)  = ∏_{φ ∈ Lit(𝔅)} ν(φ)
//! ```
//!
//! This crate implements the model exactly (rational arithmetic
//! end-to-end):
//!
//! * [`UnreliableDatabase`] — the pair `(𝔄, μ)`, built row by row
//!   ([`UnreliableDatabase::from_rows`]) through the one [`FactRule`],
//!   including de Rougemont's positive-only restricted model;
//! * [`WorldIter`]/[`WorldWalk`]/[`world`] — exact enumeration of the
//!   possible worlds that have nonzero probability, with their exact
//!   probabilities (iterator) or their integer Theorem 4.2 weights
//!   `ν(𝔅)·g` (Gray-code walk);
//! * [`WorldSampler`] — exact-Bernoulli sampling of worlds (the substrate
//!   for every Monte-Carlo algorithm in the paper);
//! * [`normalizer`] — the `g` normalizer from the proof of Theorem 4.2
//!   that turns world probabilities into integer counts.

pub mod model;
pub mod normalizer;
pub mod sampler;
pub mod spec;
pub mod world;

pub use model::{ErrorModel, FactRow, FactRule, ModelError, UnreliableDatabase};
pub use sampler::WorldSampler;
pub use spec::{ErrorSpec, UnreliableDatabaseSpec};
pub use world::{WorldIter, WorldWalk};
