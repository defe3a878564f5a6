//! Solve reports: which method answered, with what guarantee, and the
//! degradation trace of everything tried along the way.

use std::fmt;
use std::time::Duration;

use qrel_arith::BigRational;
use qrel_budget::{Exhausted, QrelError, Resource};
use qrel_plan::Unsafe;

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
    /// Thm 5.12 padding estimator (any PTIME-evaluable query). Explicit
    /// only: `Auto` skips it, since `NaiveMc` earns the same label.
    Padding,
    /// Naive Monte-Carlo over worlds with the Hoeffding bound — `Auto`'s
    /// last resort: one shared world estimates all `n^k` tuples at
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

    /// The concrete methods (everything but `Auto`), in ladder order;
    /// `Auto`'s ladder keeps the ones that apply, never `Padding`.
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
    /// Best-effort estimate with no statistical guarantee, left behind
    /// by the budget trip it carries.
    Partial(Exhausted),
}

impl Confidence {
    /// True unless this is a guarantee-free `Partial` answer.
    pub fn is_guaranteed(&self) -> bool {
        !matches!(self, Confidence::Partial(_))
    }
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Confidence::Exact => f.write_str("exact"),
            Confidence::Fptras { eps, delta } => write!(f, "(ε={eps}, δ={delta})"),
            Confidence::Partial(cause) => write!(f, "partial: {cause}"),
        }
    }
}

/// What a rung that answered with its full guarantee did: one variant
/// per rung, carrying the work figure its trace note reports.
#[derive(Debug, Clone, PartialEq)]
pub enum Completion {
    /// The safe plan evaluated exactly; `nodes` is its size.
    Plan { nodes: usize },
    /// Prop 3.1 evaluated every tuple exactly.
    Qf { atoms_per_tuple: usize },
    /// Thm 4.2 enumerated every world.
    Exact { worlds: u64 },
    /// Cor 5.5 met `(ε, δ)` on every tuple.
    Fptras { eps: f64, delta: f64, tuples: usize },
    /// Thm 5.12 met `(ε, δ)` over `worlds` sampled worlds.
    Padding { eps: f64, delta: f64, worlds: u64 },
    /// Naive Monte-Carlo met the Hoeffding `(ε, δ)` bound over `worlds`
    /// sampled worlds.
    NaiveMc { eps: f64, delta: f64, worlds: u64 },
}

impl fmt::Display for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Completion::Plan { nodes } => {
                write!(f, "completed exactly (safe plan, {nodes} nodes)")
            }
            Completion::Qf { atoms_per_tuple } => {
                write!(f, "completed exactly ({atoms_per_tuple} atoms/tuple)")
            }
            Completion::Exact { worlds } => write!(f, "completed exactly ({worlds} worlds)"),
            Completion::Fptras { eps, delta, tuples } => write!(
                f,
                "completed with (ε={eps}, δ={delta}) guarantee ({tuples} tuples)"
            ),
            Completion::Padding { eps, delta, worlds } => write!(
                f,
                "completed with (ε={eps}, δ={delta}) guarantee ({worlds} worlds)"
            ),
            Completion::NaiveMc { eps, delta, worlds } => write!(
                f,
                "completed with (ε={eps}, δ={delta}) Hoeffding guarantee ({worlds} worlds)"
            ),
        }
    }
}

/// Why a rung does not apply to the query.
#[derive(Debug, Clone, PartialEq)]
pub enum Skip {
    /// The safe-plan compiler declined the query's shape.
    NoSafePlan(Unsafe),
    /// The Prop 3.1 fast path needs a quantifier-free query.
    NotQuantifierFree,
    /// The rung's engine does not handle the query: the message of the
    /// engine's [`QrelError::Unsupported`].
    Unsupported(String),
}

impl fmt::Display for Skip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Skip::NoSafePlan(reason) => write!(f, "no safe plan: {reason}"),
            Skip::NotQuantifierFree => f.write_str("query is not quantifier-free"),
            Skip::Unsupported(reason) => f.write_str(reason),
        }
    }
}

/// What one rung attempt did. Its `Display` is the trace note that
/// [`SolveReport::trace_line`], job progress and error messages print.
#[derive(Debug, Clone, PartialEq)]
pub enum RungOutcome {
    /// The rung answered with its full guarantee.
    Completed(Completion),
    /// The rung does not apply to this query.
    Skipped(Skip),
    /// A budget tripped inside the rung.
    Exhausted(Exhausted),
    /// The rung returned an error.
    Failed(QrelError),
    /// The rung panicked; the panic payload's message.
    Panicked(String),
    /// The ladder retries a panicked rung after `pause`; `attempt` is
    /// the attempt about to run, of `of` in all.
    Retrying {
        pause: Duration,
        attempt: u32,
        of: u32,
    },
}

impl fmt::Display for RungOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RungOutcome::Completed(done) => write!(f, "{done}"),
            RungOutcome::Skipped(skip) => write!(f, "skipped: {skip}"),
            RungOutcome::Exhausted(cause) => write!(f, "{cause}"),
            RungOutcome::Failed(e) => write!(f, "failed: {e}"),
            RungOutcome::Panicked(msg) => write!(f, "panicked: {msg}"),
            RungOutcome::Retrying { pause, attempt, of } => write!(
                f,
                "retrying after {}ms (attempt {attempt} of {of})",
                pause.as_millis()
            ),
        }
    }
}

/// One rung attempt in the degradation trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStep {
    pub method: Method,
    pub outcome: RungOutcome,
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

    /// True when the report is not a function of (database, query,
    /// method, ε, δ, seed) alone: some step tripped on wall-clock time
    /// or cancellation, or caught a panic. Work-counter trips (worlds,
    /// samples, terms) land on the same point on every run. A healed
    /// panic leaves the answer bit-identical, but its trace records the
    /// fault, and a cached copy would replay it to fault-free clients.
    /// Serve caches only reports for which this is false.
    pub fn is_machine_dependent(&self) -> bool {
        self.trace.iter().any(|s| match &s.outcome {
            RungOutcome::Exhausted(cause) => {
                matches!(cause.resource, Resource::WallClock | Resource::Cancelled)
            }
            RungOutcome::Failed(e) => matches!(e, QrelError::Timeout(_) | QrelError::Cancelled(_)),
            RungOutcome::Panicked(_) => true,
            RungOutcome::Completed(_) | RungOutcome::Skipped(_) | RungOutcome::Retrying { .. } => {
                false
            }
        })
    }

    /// True when some rung attempt panicked, healed by a retry or not.
    pub fn panicked(&self) -> bool {
        self.trace
            .iter()
            .any(|s| matches!(s.outcome, RungOutcome::Panicked(_)))
    }

    /// Human-readable degradation trace:
    /// `tried exact → budget of 16384 worlds exhausted after 16385 →
    /// fell back to fptras → completed`.
    pub fn trace_line(&self) -> String {
        let steps: Vec<String> = self
            .trace
            .iter()
            .enumerate()
            .map(|(i, step)| {
                let verb = if i == 0 { "tried" } else { "fell back to" };
                format!("{verb} {} → {}", step.method, step.outcome)
            })
            .collect();
        steps.join(" → ")
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

    fn exhausted(resource: Resource, spent: u64, limit: Option<u64>) -> Exhausted {
        Exhausted {
            resource,
            spent,
            limit,
        }
    }

    fn report(trace: Vec<TraceStep>) -> SolveReport {
        SolveReport {
            reliability: 0.5,
            exact: None,
            bounds: None,
            confidence: Confidence::Partial(exhausted(Resource::WallClock, 204, Some(200))),
            method: Method::Fptras,
            trace,
            elapsed: Duration::from_millis(250),
            worlds: 16385,
            samples: 100,
            terms: 3,
        }
    }

    fn step(outcome: RungOutcome) -> TraceStep {
        TraceStep {
            method: Method::Fptras,
            outcome,
        }
    }

    #[test]
    fn trace_line_reads_like_a_story() {
        let report = report(vec![
            TraceStep {
                method: Method::Exact,
                outcome: RungOutcome::Exhausted(exhausted(Resource::Worlds, 16385, Some(16384))),
            },
            step(RungOutcome::Completed(Completion::Fptras {
                eps: 0.1,
                delta: 0.05,
                tuples: 1,
            })),
        ]);
        assert_eq!(
            report.trace_line(),
            "tried exact → budget of 16384 worlds exhausted after 16385 → \
             fell back to fptras → completed with (ε=0.1, δ=0.05) guarantee (1 tuples)"
        );
        assert_eq!(
            report.confidence.to_string(),
            "partial: deadline of 200ms exceeded after 204ms"
        );
    }

    #[test]
    fn outcomes_render_the_trace_notes() {
        let cases = [
            (
                RungOutcome::Completed(Completion::Plan { nodes: 7 }),
                "completed exactly (safe plan, 7 nodes)",
            ),
            (
                RungOutcome::Completed(Completion::Qf { atoms_per_tuple: 2 }),
                "completed exactly (2 atoms/tuple)",
            ),
            (
                RungOutcome::Completed(Completion::Exact { worlds: 8 }),
                "completed exactly (8 worlds)",
            ),
            (
                RungOutcome::Completed(Completion::Padding {
                    eps: 0.1,
                    delta: 0.05,
                    worlds: 9,
                }),
                "completed with (ε=0.1, δ=0.05) guarantee (9 worlds)",
            ),
            (
                RungOutcome::Completed(Completion::NaiveMc {
                    eps: 0.1,
                    delta: 0.05,
                    worlds: 9,
                }),
                "completed with (ε=0.1, δ=0.05) Hoeffding guarantee (9 worlds)",
            ),
            (
                RungOutcome::Skipped(Skip::NoSafePlan(Unsafe::SecondOrder)),
                "skipped: no safe plan: second-order quantification",
            ),
            (
                RungOutcome::Skipped(Skip::NotQuantifierFree),
                "skipped: query is not quantifier-free",
            ),
            (
                RungOutcome::Skipped(Skip::Unsupported("no FPTRAS here".into())),
                "skipped: no FPTRAS here",
            ),
            (
                RungOutcome::Exhausted(exhausted(Resource::Cancelled, 0, None)),
                "cancelled by caller",
            ),
            (
                RungOutcome::Failed(QrelError::Eval("free variable x".into())),
                "failed: evaluation error: free variable x",
            ),
            (RungOutcome::Panicked("boom".into()), "panicked: boom"),
            (
                RungOutcome::Retrying {
                    pause: Duration::from_millis(4),
                    attempt: 2,
                    of: 3,
                },
                "retrying after 4ms (attempt 2 of 3)",
            ),
        ];
        for (outcome, note) in cases {
            assert_eq!(outcome.to_string(), note);
        }
    }

    #[test]
    fn machine_dependence_is_read_from_typed_steps() {
        let dependent = [
            RungOutcome::Exhausted(exhausted(Resource::WallClock, 204, Some(200))),
            RungOutcome::Exhausted(exhausted(Resource::Cancelled, 3, None)),
            RungOutcome::Failed(QrelError::Timeout(exhausted(
                Resource::WallClock,
                5,
                Some(4),
            ))),
            RungOutcome::Failed(QrelError::Cancelled(exhausted(
                Resource::Cancelled,
                0,
                None,
            ))),
            RungOutcome::Panicked("injected fault: runtime.rung.exact.panic".into()),
        ];
        for outcome in dependent {
            let r = report(vec![step(outcome.clone())]);
            assert!(r.is_machine_dependent(), "{outcome}");
            assert_eq!(r.panicked(), matches!(outcome, RungOutcome::Panicked(_)));
        }
        // Notes that quote user text containing `deadline`, `cancelled`
        // or `panicked` (say, a variable so named) stay deterministic:
        // only the step's kind counts.
        let words = ["deadline", "cancelled", "panicked"];
        let independent = [
            RungOutcome::Exhausted(exhausted(Resource::Worlds, 101, Some(100))),
            RungOutcome::Exhausted(exhausted(Resource::Samples, 11, Some(10))),
            RungOutcome::Exhausted(exhausted(Resource::Terms, 3, Some(2))),
            RungOutcome::Failed(QrelError::BudgetExhausted(exhausted(
                Resource::Samples,
                2,
                Some(1),
            ))),
            RungOutcome::Failed(QrelError::Eval("deadline cancelled panicked".into())),
            RungOutcome::Skipped(Skip::NoSafePlan(Unsafe::NonHierarchical {
                vars: words.map(String::from).to_vec(),
            })),
            RungOutcome::Skipped(Skip::NoSafePlan(Unsafe::SelfJoin {
                rel: "panicked".into(),
            })),
            RungOutcome::Skipped(Skip::Unsupported("deadline cancelled panicked".into())),
            RungOutcome::Retrying {
                pause: Duration::from_millis(4),
                attempt: 2,
                of: 3,
            },
            RungOutcome::Completed(Completion::Exact { worlds: 8 }),
        ];
        for outcome in independent {
            let r = report(vec![step(outcome.clone())]);
            assert!(!r.is_machine_dependent(), "{outcome}");
            assert!(!r.panicked(), "{outcome}");
        }
        // A healed panic: the retry completes, but the report still
        // records the fault.
        let healed = report(vec![
            step(RungOutcome::Panicked("boom".into())),
            step(RungOutcome::Retrying {
                pause: Duration::from_millis(4),
                attempt: 2,
                of: 3,
            }),
            step(RungOutcome::Completed(Completion::Exact { worlds: 8 })),
        ]);
        assert!(healed.is_machine_dependent() && healed.panicked());
    }
}
