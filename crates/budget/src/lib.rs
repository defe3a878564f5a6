//! Cooperative runtime budgets, cancellation, and the workspace error
//! taxonomy.
//!
//! Every algorithm in this repository can cross from polynomial into
//! exponential work: exact reliability enumerates `2^u` worlds
//! (Theorem 4.2 puts it in FP^#P, and Proposition 3.2 says nothing
//! cheaper is likely), grounding can blow up a DNF, and the sampling
//! loops run for `O(m·ε⁻²·ln(1/δ))` iterations. A caller that needs an
//! answer *by a deadline* therefore needs three things, provided here:
//!
//! * [`Budget`] — a wall-clock deadline plus per-resource work caps
//!   (worlds enumerated, samples drawn, DNF terms grounded), charged
//!   cooperatively from the hot loops via [`Budget::charge`] /
//!   [`Budget::checkpoint`]. Checks are cheap: counters are plain cells,
//!   the clock is consulted only every few dozen charges, and no thread
//!   is ever killed mid-`BigRational` operation.
//! * [`CancelToken`] — a cloneable, thread-safe cancellation flag so an
//!   external supervisor can stop a solve that is no longer wanted.
//! * [`QrelError`] — the structured error taxonomy shared by the solver
//!   crates and the CLI, replacing stringly-typed results so callers can
//!   distinguish user error (bad query, bad spec) from budget exhaustion
//!   and solver degradation.
//!
//! This crate sits at the bottom of the workspace: it has no
//! dependencies, and `qrel-prob`, `qrel-count`, `qrel-eval`, and
//! `qrel-core` all accept `&Budget` in their budgeted entry points. The
//! `qrel-runtime` crate re-exports everything here and adds the
//! graceful-degradation ladder on top.

mod budget;
mod error;

pub use budget::{Budget, CancelToken, Exhausted, Resource};
pub use error::QrelError;
