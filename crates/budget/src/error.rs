//! The structured error taxonomy shared across the workspace.

use crate::budget::Exhausted;
use std::fmt;

/// Workspace-wide error type for solver entry points and the CLI.
///
/// Replaces the stringly `Result<_, String>` plumbing so callers can
/// route on the *kind* of failure: user errors (`Parse`, `Spec`,
/// `Unsupported`) are terminal, `BudgetExhausted` invites retrying with
/// a larger budget or a cheaper method, and `Internal` marks a bug
/// (e.g. a panic caught at a ladder rung) that should never be
/// swallowed silently.
///
/// Conversions from the concrete error types of the solver crates
/// (`EvalError`, `GroundError`, `ModelError`, ...) live next to those
/// types; this crate stays dependency-free at the bottom of the
/// workspace, so the variants carry rendered messages rather than the
/// source enums.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QrelError {
    /// The query text could not be parsed.
    Parse(String),
    /// The database spec is malformed (unknown relation, bad
    /// probability, arity mismatch, ...).
    Spec(String),
    /// Evaluating a formula against a world failed (free variable,
    /// arity mismatch, second-order construct in an FO evaluator, ...).
    Eval(String),
    /// The requested method cannot handle this query (e.g. the FPTRAS
    /// asked to run on a universal sentence).
    Unsupported(String),
    /// A cooperative *work* budget (worlds, samples, DNF terms) tripped
    /// before any answer — even a degraded one — was available. Distinct
    /// from [`QrelError::Timeout`]: work caps are deterministic, so the
    /// same request fails the same way again and retrying is pointless
    /// without a larger budget or cheaper method.
    BudgetExhausted(Exhausted),
    /// The wall-clock deadline expired (`Resource::WallClock`).
    Timeout(Exhausted),
    /// The solve was cancelled from outside via its `CancelToken`
    /// (`Resource::Cancelled`) — the caller stopped wanting the answer;
    /// nobody should retry on its behalf.
    Cancelled(Exhausted),
    /// A ladder rung panicked and was caught at the rung boundary. The
    /// message carries the panic payload. This is the one transient
    /// failure: a panic says nothing about the next attempt, so the
    /// ladder retries a panicked rung while deadline remains.
    RungPanic(String),
    /// Every rung of the degradation ladder failed; the message records
    /// the per-rung causes.
    Degraded(String),
    /// A solver broke an internal invariant (non-panic bug path).
    Internal(String),
}

impl QrelError {
    /// Stable snake_case tag for metrics and error-taxonomy reporting.
    pub fn kind(&self) -> &'static str {
        match self {
            QrelError::Parse(_) => "parse",
            QrelError::Spec(_) => "spec",
            QrelError::Eval(_) => "eval",
            QrelError::Unsupported(_) => "unsupported",
            QrelError::BudgetExhausted(_) => "budget_exhausted",
            QrelError::Timeout(_) => "timeout",
            QrelError::Cancelled(_) => "cancelled",
            QrelError::RungPanic(_) => "rung_panic",
            QrelError::Degraded(_) => "degraded",
            QrelError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for QrelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QrelError::Parse(m) => write!(f, "parse error: {m}"),
            QrelError::Spec(m) => write!(f, "invalid spec: {m}"),
            QrelError::Eval(m) => write!(f, "evaluation error: {m}"),
            QrelError::Unsupported(m) => write!(f, "unsupported: {m}"),
            QrelError::BudgetExhausted(e) => write!(f, "budget exhausted: {e}"),
            QrelError::Timeout(e) => write!(f, "timeout: {e}"),
            QrelError::Cancelled(e) => write!(f, "{e}"),
            QrelError::RungPanic(m) => write!(f, "rung panicked: {m}"),
            QrelError::Degraded(m) => write!(f, "all methods failed: {m}"),
            QrelError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for QrelError {}

impl From<Exhausted> for QrelError {
    /// Route by cause: a deadline trip, an external cancel, and a spent
    /// work counter are different events with different retry semantics,
    /// so they become different variants.
    fn from(e: Exhausted) -> Self {
        match e.resource {
            crate::budget::Resource::WallClock => QrelError::Timeout(e),
            crate::budget::Resource::Cancelled => QrelError::Cancelled(e),
            _ => QrelError::BudgetExhausted(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Resource;

    #[test]
    fn display_includes_kind_and_message() {
        let e = QrelError::Parse("unexpected token `)`".into());
        assert_eq!(format!("{e}"), "parse error: unexpected token `)`");
        let e = QrelError::from(Exhausted {
            resource: Resource::Samples,
            spent: 1001,
            limit: Some(1000),
        });
        assert_eq!(
            format!("{e}"),
            "budget exhausted: budget of 1000 samples exhausted after 1001"
        );
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(QrelError::Internal("oops".into()));
        assert!(e.to_string().contains("internal error"));
    }

    #[test]
    fn exhausted_routes_by_resource() {
        let timeout = QrelError::from(Exhausted {
            resource: Resource::WallClock,
            spent: 204,
            limit: Some(200),
        });
        assert!(matches!(timeout, QrelError::Timeout(_)));
        assert_eq!(timeout.kind(), "timeout");
        assert!(format!("{timeout}").contains("deadline"));

        let cancel = QrelError::from(Exhausted {
            resource: Resource::Cancelled,
            spent: 12,
            limit: None,
        });
        assert!(matches!(cancel, QrelError::Cancelled(_)));
        assert_eq!(cancel.kind(), "cancelled");
        assert!(format!("{cancel}").contains("cancelled"));

        let work = QrelError::from(Exhausted {
            resource: Resource::Worlds,
            spent: 9,
            limit: Some(8),
        });
        assert!(matches!(work, QrelError::BudgetExhausted(_)));
        assert_eq!(work.kind(), "budget_exhausted");
    }
}
