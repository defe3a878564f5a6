//! Logic substrate for query reliability.
//!
//! Provides the syntactic objects the paper's algorithms manipulate:
//!
//! * relational vocabularies ([`Vocabulary`], [`RelationSymbol`]);
//! * first-order and second-order formulas ([`Formula`], [`Term`]) with
//!   fragment checkers for the classes the paper distinguishes
//!   (quantifier-free, conjunctive, existential, universal);
//! * a recursive-descent [`parser`] for a concrete query syntax;
//! * propositional formulas ([`prop::PropFormula`]) and normal forms
//!   ([`prop::Dnf`], [`prop::Cnf`]) over an interned atom table, which is
//!   where existential queries land after grounding (Theorem 5.4);
//! * the threshold encodings `val(Ȳ) < b` / `val(Ȳ) ≥ b` used by the
//!   reduction from Prob-kDNF to #DNF (Theorem 5.3);
//! * monotone 2-CNF instances for the #MONOTONE-2SAT reduction
//!   (Proposition 3.2).

pub mod fol;
pub mod mon2sat;
pub mod parser;
pub mod prop;
pub mod threshold;
pub mod vocab;

pub use fol::{Formula, Fragment, Term};
pub use vocab::{RelationSymbol, Vocabulary};
