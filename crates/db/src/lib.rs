//! Relational database substrate: finite structures, storage, Datalog.
//!
//! A database in the paper's sense is a finite relational structure
//! `𝔄 = (A, R₁, …, R_m)`. This crate provides:
//!
//! * [`Database`] — the structure itself, with a named finite [`Universe`]
//!   and one [`Relation`] instance per vocabulary symbol;
//! * [`Fact`] and dense fact indexing — the bijection between atomic
//!   statements `R(ā)` and indices `0..Σ n^arity(R)`, which is the
//!   coordinate system of the possible-world space Ω(𝔇);
//! * [`datalog`] — a stratified Datalog engine with semi-naive evaluation,
//!   since the paper explicitly covers Datalog and fixed-point queries
//!   (they are polynomial-time evaluable, hence Theorem 5.12 applies).

pub mod database;
pub mod datalog;
pub mod fact;
pub mod relation;
pub mod universe;

pub use database::{Database, DatabaseBuilder};
pub use fact::{Fact, FactIndexer};
pub use relation::Relation;
pub use universe::{Element, Universe};
