//! Solve reports: which method answered, with what guarantee, and the
//! degradation trace of everything tried along the way.

use std::fmt;
use std::time::Duration;

use qrel_arith::BigRational;

/// A solving method — one rung of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Route by fragment and world count, degrading on budget trips.
    Auto,
    /// Safe-plan compiler: hierarchical self-join-free shapes evaluated
    /// extensionally over fact probabilities (exact, PTIME).
    Plan,
    /// Prop 3.1 quantifier-free fast path (exact, PTIME).
    Qf,
    /// Thm 4.2 weighted world enumeration (exact, `2^u` worlds).
    Exact,
    /// Cor 5.5 FPTRAS via grounding + Karp–Luby (existential/universal).
    Fptras,
    /// Thm 5.12 padding estimator (any PTIME-evaluable query).
    Padding,
    /// Naive Monte-Carlo over worlds with the Hoeffding bound — the
    /// cheapest rung: one shared world estimates all `n^k` tuples at
    /// once, with no per-tuple `ε` split.
    NaiveMc,
}

impl Method {
    /// Every method: `Auto` first, then the rungs in ladder order. The
    /// one list of methods — the `Auto` ladder, the serve breakers and
    /// counters, usage lines and the differential oracle all iterate it.
    pub const ALL: [Method; 7] = [
        Method::Auto,
        Method::Plan,
        Method::Qf,
        Method::Exact,
        Method::Fptras,
        Method::Padding,
        Method::NaiveMc,
    ];

    /// The concrete ladder rungs (everything but `Auto`), in ladder order.
    pub const RUNGS: &'static [Method] = Method::ALL.split_at(1).1;

    /// Position in [`Method::ALL`]. Exhaustive on purpose: a new variant
    /// does not compile until it has a place in the table.
    pub const fn index(self) -> usize {
        match self {
            Method::Auto => 0,
            Method::Plan => 1,
            Method::Qf => 2,
            Method::Exact => 3,
            Method::Fptras => 4,
            Method::Padding => 5,
            Method::NaiveMc => 6,
        }
    }

    /// The method names joined by `|`, for usage lines and errors.
    pub fn names() -> String {
        Method::ALL.map(Method::name).join("|")
    }

    pub fn name(self) -> &'static str {
        match self {
            Method::Auto => "auto",
            Method::Plan => "plan",
            Method::Qf => "qf",
            Method::Exact => "exact",
            Method::Fptras => "fptras",
            Method::Padding => "padding",
            Method::NaiveMc => "mc",
        }
    }

    /// Parse a CLI method name (`approx` is accepted as an alias for
    /// `fptras`, matching the pre-runtime CLI).
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "auto" => Some(Method::Auto),
            "plan" => Some(Method::Plan),
            "qf" => Some(Method::Qf),
            "exact" => Some(Method::Exact),
            "fptras" | "approx" => Some(Method::Fptras),
            "padding" => Some(Method::Padding),
            "mc" | "naive-mc" => Some(Method::NaiveMc),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The guarantee attached to a [`SolveReport`], mapping onto the paper's
/// results: `Exact` answers carry a Thm 4.2 / Prop 3.1 rational, `Fptras`
/// answers carry a Cor 5.5 / Thm 5.12 `(ε, δ)` absolute-error bound, and
/// `Partial` answers are whatever a tripped budget left behind.
#[derive(Debug, Clone, PartialEq)]
pub enum Confidence {
    /// The answer is an exact rational (also in [`SolveReport::exact`]).
    Exact,
    /// `Pr[|answer − truth| > eps] < delta`.
    Fptras { eps: f64, delta: f64 },
    /// Best-effort estimate with no statistical guarantee; `reason`
    /// explains which budget tripped.
    Partial { reason: String },
}

impl Confidence {
    /// True unless this is a guarantee-free `Partial` answer.
    pub fn is_guaranteed(&self) -> bool {
        !matches!(self, Confidence::Partial { .. })
    }
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Confidence::Exact => f.write_str("exact"),
            Confidence::Fptras { eps, delta } => write!(f, "(ε={eps}, δ={delta})"),
            Confidence::Partial { reason } => write!(f, "partial: {reason}"),
        }
    }
}

/// One rung attempt in the degradation trace.
#[derive(Debug, Clone)]
pub struct TraceStep {
    pub method: Method,
    /// What happened: "completed …", a budget-exhaustion message, a
    /// skip reason, or a caught panic.
    pub note: String,
}

/// The result of a [`crate::Solver::solve`] call.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// Best point estimate of the reliability `R_ψ(𝔇)`, in `[0, 1]`.
    pub reliability: f64,
    /// The exact rational, when [`Confidence::Exact`].
    pub exact: Option<BigRational>,
    /// Hard bounds `[lo, hi]` on the true reliability, when a tripped
    /// exact/qf enumeration left provable partial sums behind.
    pub bounds: Option<(f64, f64)>,
    pub confidence: Confidence,
    /// The rung that produced the answer.
    pub method: Method,
    /// Every rung tried, in order.
    pub trace: Vec<TraceStep>,
    pub elapsed: Duration,
    /// Worlds enumerated across all rungs.
    pub worlds: u64,
    /// Monte-Carlo samples drawn across all rungs.
    pub samples: u64,
    /// Ground DNF terms produced across all rungs.
    pub terms: u64,
}

impl SolveReport {
    /// True if the answer carries no `Exact`/`Fptras` guarantee — the
    /// CLI maps this to the "degraded" exit code.
    pub fn is_degraded(&self) -> bool {
        !self.confidence.is_guaranteed()
    }

    /// Human-readable degradation trace:
    /// `tried exact → budget of 16384 worlds exhausted after 16385 →
    /// fell back to fptras → completed`.
    pub fn trace_line(&self) -> String {
        let mut parts = Vec::new();
        for (i, step) in self.trace.iter().enumerate() {
            if i == 0 {
                parts.push(format!("tried {}", step.method));
            } else {
                parts.push(format!("fell back to {}", step.method));
            }
            parts.push(step.note.clone());
        }
        parts.join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_table_round_trips() {
        for m in Method::ALL {
            assert_eq!(Method::ALL[m.index()], m);
            assert_eq!(Method::parse(m.name()), Some(m));
        }
        assert_eq!(Method::RUNGS, &Method::ALL[1..]);
        assert_eq!(Method::parse("approx"), Some(Method::Fptras));
        assert_eq!(Method::parse("nope"), None);
    }

    #[test]
    fn trace_line_reads_like_a_story() {
        let report = SolveReport {
            reliability: 0.5,
            exact: None,
            bounds: None,
            confidence: Confidence::Partial {
                reason: "deadline of 200ms exceeded after 204ms".into(),
            },
            method: Method::Fptras,
            trace: vec![
                TraceStep {
                    method: Method::Exact,
                    note: "budget of 16384 worlds exhausted after 16385".into(),
                },
                TraceStep {
                    method: Method::Fptras,
                    note: "completed".into(),
                },
            ],
            elapsed: Duration::from_millis(250),
            worlds: 16385,
            samples: 100,
            terms: 3,
        };
        assert_eq!(
            report.trace_line(),
            "tried exact → budget of 16384 worlds exhausted after 16385 → \
             fell back to fptras → completed"
        );
    }
}
