//! The budgeted solver: fragment-based routing plus a graceful
//! degradation ladder over every reliability method in the workspace.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use qrel_arith::BigRational;
use qrel_budget::{Budget, Exhausted, QrelError, Resource};
use qrel_core::{
    approximate_reliability_budgeted, direct_reliability_budgeted, exact_reliability_budgeted,
    qf_reliability_budgeted, ApproxOutcome, ExactOutcome, PaddingEstimator, PaddingOutcome,
    QfOutcome,
};
use qrel_eval::{FoQuery, Query};
use qrel_logic::Fragment;
use qrel_par::{resolve_threads, split_seed};
use qrel_plan::PlanOutcome;
use qrel_prob::UnreliableDatabase;
use std::sync::Arc;

use crate::report::{Completion, Confidence, Method, RungOutcome, Skip, SolveReport, TraceStep};

/// Default cap on `2^u` below which `Method::Auto` runs the exact
/// enumeration. `2^14` worlds evaluate in well under a second for the
/// databases in `data/`.
pub const DEFAULT_MAX_EXACT_WORLDS: u64 = 1 << 14;

/// A progress event emitted by the ladder while a solve is in flight.
///
/// Events fire at the start of every rung attempt and after its
/// outcome, so an observer (the serve job scheduler, a CLI spinner)
/// can report where a long solve currently is without polling.
#[derive(Debug, Clone)]
pub struct ProgressEvent {
    /// Zero-based position in this solve's ladder (not [`Method::index`]).
    pub rung: usize,
    /// Ladder length.
    pub of: usize,
    pub method: Method,
    /// 1-based attempt number (retries increment this).
    pub attempt: u32,
    /// `None` when the attempt starts; then each step it adds to the
    /// trace.
    pub outcome: Option<RungOutcome>,
}

/// A shareable observer for [`ProgressEvent`]s.
///
/// Wraps the callback in an [`Arc`](std::sync::Arc) so [`Solver`] stays `Clone`, with a
/// manual `Debug` (closures have none). The hook runs on the solving
/// thread — keep it cheap.
#[derive(Clone)]
pub struct ProgressHook(std::sync::Arc<dyn Fn(ProgressEvent) + Send + Sync>);

impl ProgressHook {
    pub fn new(f: impl Fn(ProgressEvent) + Send + Sync + 'static) -> Self {
        ProgressHook(std::sync::Arc::new(f))
    }

    fn emit(&self, event: ProgressEvent) {
        (self.0)(event)
    }
}

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// A candidate answer produced by one ladder rung.
#[derive(Debug, Clone)]
struct Answer {
    estimate: f64,
    exact: Option<BigRational>,
    bounds: Option<(f64, f64)>,
    confidence: Confidence,
}

impl Answer {
    /// A full-guarantee exact rational.
    fn exact(reliability: BigRational) -> Self {
        Answer {
            estimate: reliability.to_f64(),
            exact: Some(reliability),
            bounds: None,
            confidence: Confidence::Exact,
        }
    }

    /// An estimate carrying the sampling rungs' `(ε, δ)` guarantee.
    fn sampled(estimate: f64, eps: f64, delta: f64) -> Self {
        Answer {
            estimate: estimate.clamp(0.0, 1.0),
            exact: None,
            bounds: None,
            confidence: Confidence::Fptras { eps, delta },
        }
    }

    /// A guarantee-free estimate left behind by a tripped budget.
    fn partial(estimate: f64, bounds: Option<(f64, f64)>, cause: &Exhausted) -> Self {
        Answer {
            estimate: estimate.clamp(0.0, 1.0),
            exact: None,
            bounds,
            confidence: Confidence::Partial(*cause),
        }
    }
}

/// What a rung did with its budget slice.
enum Rung {
    /// Finished with a full-guarantee answer.
    Done(Answer, Completion),
    /// Budget tripped; carries the partial answer (if any estimate was
    /// accumulated) for the ladder's last-resort report.
    Degraded(Option<Answer>, Exhausted),
    /// Method does not apply to this query.
    Skip(Skip),
}

/// The plan rung's verdict, computed ahead of the solve (the serve
/// layer's plan cache holds one per query and schema): a compiled safe
/// plan, or the compiler's decline.
#[derive(Debug, Clone)]
pub struct PlanHint(pub Result<Arc<qrel_plan::Plan>, qrel_plan::Unsafe>);

impl From<Arc<qrel_plan::Plan>> for PlanHint {
    fn from(plan: Arc<qrel_plan::Plan>) -> Self {
        PlanHint(Ok(plan))
    }
}

/// The budgeted reliability solver.
///
/// Wraps every method in the workspace behind one
/// [`Solver::solve`] call: routing (for [`Method::Auto`]) follows the
/// classify-then-solve pattern — safe quantified shapes take the plan,
/// quantifier-free queries the Prop 3.1 fast path, small world counts
/// the Thm 4.2 exact enumeration, groundable queries the Cor 5.5
/// FPTRAS, and everything else falls to direct Monte-Carlo — while a
/// tripped [`Budget`] degrades to the next rung instead of failing, and
/// a panicking rung is caught and skipped.
#[derive(Debug, Clone)]
pub struct Solver {
    method: Method,
    eps: f64,
    delta: f64,
    max_exact_worlds: u64,
    seed: u64,
    threads: Option<usize>,
    rung_retries: u32,
    progress: Option<ProgressHook>,
    plan_hint: Option<PlanHint>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            method: Method::Auto,
            eps: 0.1,
            delta: 0.05,
            max_exact_worlds: DEFAULT_MAX_EXACT_WORLDS,
            seed: 0x5EED,
            threads: None,
            rung_retries: MAX_RUNG_RETRIES,
            progress: None,
            plan_hint: None,
        }
    }
}

impl Solver {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Accuracy targets for the sampling rungs.
    pub fn with_accuracy(mut self, eps: f64, delta: f64) -> Self {
        assert!(
            eps > 0.0 && delta > 0.0 && delta < 1.0,
            "need ε > 0, δ ∈ (0,1)"
        );
        self.eps = eps;
        self.delta = delta;
        self
    }

    /// World-count cap under which `Method::Auto` picks the exact
    /// enumeration.
    pub fn with_max_exact_worlds(mut self, cap: u64) -> Self {
        self.max_exact_worlds = cap;
        self
    }

    /// Seed for the sampling rungs (deterministic by default).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker-thread count for the sharded engines. Unset, the
    /// `RAYON_NUM_THREADS` environment variable and then the machine's
    /// available parallelism decide. The answer never depends on this
    /// knob: every rung runs on a fixed shard count with per-shard
    /// seed-split RNGs, so any thread count reproduces `threads = 1`
    /// bit for bit (see `qrel_par`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Retries per rung after a transient (caught-panic) failure, on
    /// top of the first attempt. Defaults to [`MAX_RUNG_RETRIES`]; `0`
    /// disables rung self-healing entirely (the E16 "before" arm).
    pub fn with_rung_retries(mut self, retries: u32) -> Self {
        self.rung_retries = retries;
        self
    }

    /// Observe [`ProgressEvent`]s while a solve is in flight (rung
    /// starts and outcomes). The hook never affects the answer.
    pub fn with_progress(mut self, hook: ProgressHook) -> Self {
        self.progress = Some(hook);
        self
    }

    /// Reuse the plan rung's verdict instead of recompiling (the serve
    /// layer's plan cache passes one in): a compiled plan is evaluated,
    /// a decline skips the rung. The verdict must come from compiling
    /// this solve's query.
    pub fn with_plan_hint(mut self, hint: impl Into<PlanHint>) -> Self {
        self.plan_hint = Some(hint.into());
        self
    }

    /// Solve for the reliability of `query` on `ud` within `budget`.
    ///
    /// Returns `Err` only when *no* rung produced even a partial
    /// estimate — a malformed query, an unsupported fragment for an
    /// explicitly requested method, or a budget so small nothing ran.
    /// Every other outcome, including exhaustion, is an `Ok` report
    /// whose [`Confidence`] says what the number means.
    pub fn solve(
        &self,
        ud: &UnreliableDatabase,
        query: &FoQuery,
        budget: &Budget,
    ) -> Result<SolveReport, QrelError> {
        let ladder = self.ladder(ud, query, budget);
        let threads = resolve_threads(self.threads);
        let mut trace: Vec<TraceStep> = Vec::new();
        let mut best_partial: Option<(Answer, Method)> = None;
        let mut first_error: Option<QrelError> = None;

        'ladder: for (i, &method) in ladder.iter().enumerate() {
            let last = i + 1 == ladder.len();
            // Every method gets its own seed stream, keyed on its table
            // index: a rung's sampling depends on neither earlier rungs'
            // draws nor the rungs the ladder kept, so `--method X` equals
            // what `Auto` gets from rung X. Retries reuse the same seed
            // (and draw their backoff jitter from it): a retried rung
            // that completes gives the same answer a first try would.
            let rung_seed = split_seed(self.seed, method.index() as u64);
            let mut at = ProgressEvent {
                rung: i,
                of: ladder.len(),
                method,
                attempt: 1,
                outcome: None,
            };
            loop {
                self.emit_progress(|| at.clone());
                let slice = slice_budget(budget, last);
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    self.run_rung(method, ud, query, &slice, rung_seed, threads)
                }));
                settle(budget, &slice);
                match ran {
                    Ok(Ok(Rung::Done(answer, done))) => {
                        self.record(&mut trace, &at, RungOutcome::Completed(done));
                        return Ok(self.report(answer, method, trace, budget));
                    }
                    Ok(Ok(Rung::Degraded(answer, cause))) => {
                        self.record(&mut trace, &at, RungOutcome::Exhausted(cause));
                        if let Some(a) = answer {
                            best_partial = Some(match best_partial.take() {
                                Some(b) if width(&b.0) <= width(&a) => b,
                                _ => (a, method),
                            });
                        }
                    }
                    Ok(Ok(Rung::Skip(skip))) => {
                        self.record(&mut trace, &at, RungOutcome::Skipped(skip));
                    }
                    Ok(Err(e)) => {
                        first_error.get_or_insert(e.clone());
                        self.record(&mut trace, &at, RungOutcome::Failed(e));
                    }
                    Err(panic) => {
                        // `&*panic`, not `&panic`: coercing the Box
                        // itself to `dyn Any` would hide the payload.
                        let msg = panic_message(&*panic);
                        self.record(&mut trace, &at, RungOutcome::Panicked(msg.clone()));
                        // Self-healing: a caught panic is the one
                        // transient failure — retry the rung with
                        // jittered backoff while deadline remains,
                        // instead of burning the whole rung.
                        if at.attempt <= self.rung_retries {
                            if let Some(pause) = retry_backoff(rung_seed, at.attempt - 1, budget) {
                                let retry = RungOutcome::Retrying {
                                    pause,
                                    attempt: at.attempt + 1,
                                    of: self.rung_retries + 1,
                                };
                                self.record(&mut trace, &at, retry);
                                std::thread::sleep(pause);
                                at.attempt += 1;
                                continue;
                            }
                        }
                        first_error.get_or_insert(QrelError::RungPanic(msg));
                    }
                }
                continue 'ladder;
            }
        }

        match best_partial {
            Some((answer, method)) => Ok(self.report(answer, method, trace, budget)),
            None => Err(first_error.unwrap_or_else(|| {
                QrelError::Degraded(
                    trace
                        .iter()
                        .map(|s| format!("{}: {}", s.method, s.outcome))
                        .collect::<Vec<_>>()
                        .join("; "),
                )
            })),
        }
    }

    /// Add one step to the trace and report it to the progress hook:
    /// the one place a rung attempt's outcome is recorded.
    fn record(&self, trace: &mut Vec<TraceStep>, at: &ProgressEvent, outcome: RungOutcome) {
        self.emit_progress(|| ProgressEvent {
            outcome: Some(outcome.clone()),
            ..at.clone()
        });
        trace.push(TraceStep {
            method: at.method,
            outcome,
        });
    }

    /// Emit a progress event, built only when a hook is installed.
    fn emit_progress(&self, event: impl FnOnce() -> ProgressEvent) {
        if let Some(hook) = &self.progress {
            hook.emit(event());
        }
    }

    /// Build the rung sequence for this query. Explicit methods get a
    /// one-rung ladder; `Auto` keeps the [`Method::RUNGS`] that apply to
    /// the query's fragment and world count, in table order. A rung's
    /// `split_seed` stream is keyed on its [`Method::index`], not on its
    /// position here, so filtering never moves a stream.
    fn ladder(&self, ud: &UnreliableDatabase, query: &FoQuery, budget: &Budget) -> Vec<Method> {
        if self.method != Method::Auto {
            return vec![self.method];
        }
        let fragment = query.formula().fragment();
        let qf = fragment == Fragment::QuantifierFree;
        let u = ud.uncertain_facts().len();
        let world_cap = self
            .max_exact_worlds
            .min(budget.remaining(Resource::Worlds).unwrap_or(u64::MAX));
        let fits = u < 64 && (1u64 << u) <= world_cap;
        let groundable = matches!(
            fragment,
            Fragment::QuantifierFree
                | Fragment::Conjunctive
                | Fragment::Existential
                | Fragment::Universal
        );
        Method::RUNGS
            .iter()
            .copied()
            .filter(|&m| match m {
                Method::Auto => false,
                // Rung 0 for every quantified query: the safe-plan
                // compiler answers hierarchical self-join-free shapes
                // exactly in PTIME and skips (cheaply, with the decline
                // reason in the trace) when the shape is provably unsafe.
                Method::Plan => !qf,
                // The QF fast path is already exact and PTIME.
                Method::Qf => qf,
                Method::Exact => !qf && fits,
                Method::Fptras => groundable,
                // Thm 5.12's padding earns the absolute (ε, δ) label of
                // direct Monte-Carlo, the last resort, from more samples.
                Method::Padding => false,
                Method::NaiveMc => true,
            })
            .collect()
    }

    fn run_rung(
        &self,
        method: Method,
        ud: &UnreliableDatabase,
        query: &FoQuery,
        budget: &Budget,
        seed: u64,
        threads: usize,
    ) -> Result<Rung, QrelError> {
        // Chaos hooks: an armed plan can panic this rung (caught at the
        // ladder's catch_unwind, classified transient, retried) or stall
        // it (eating wall-clock so the deadline machinery degrades it).
        // One relaxed load each when disarmed.
        if qrel_faults::armed() {
            qrel_faults::maybe_panic(&qrel_faults::points::rung_panic(method.name()));
            qrel_faults::maybe_stall(&qrel_faults::points::rung_stall(method.name()));
        }
        match method {
            Method::Auto => unreachable!("Auto expands into concrete rungs"),
            Method::Plan => self.run_plan(ud, query, budget),
            Method::Qf => self.run_qf(ud, query, budget),
            Method::Exact => self.run_exact(ud, query, budget, threads),
            Method::Fptras => self.run_fptras(ud, query, budget, seed, threads),
            Method::Padding | Method::NaiveMc => {
                self.run_worlds(method, ud, query, budget, seed, threads)
            }
        }
    }

    fn run_plan(
        &self,
        ud: &UnreliableDatabase,
        query: &FoQuery,
        budget: &Budget,
    ) -> Result<Rung, QrelError> {
        // A cancelled/expired budget degrades before any work is done.
        // The plan enumerates no worlds and draws no samples, so the
        // world/sample budgets don't apply; the walk polls the deadline
        // and the cancel token before every answer tuple and every few
        // thousand project steps.
        if let Err(cause) = budget.probe() {
            return Ok(Rung::Degraded(None, cause));
        }
        let verdict = match &self.plan_hint {
            Some(PlanHint(verdict)) => verdict.clone(),
            None => qrel_plan::compile(query.formula()).map(Arc::new),
        };
        let plan = match verdict {
            Ok(plan) => plan,
            Err(reason) => return Ok(Rung::Skip(Skip::NoSafePlan(reason))),
        };
        let outcome =
            qrel_plan::reliability_until(ud, &plan, query.formula(), query.free_vars(), || {
                budget.probe()
            })?;
        match outcome {
            PlanOutcome::Complete(rep) => {
                let done = Completion::Plan {
                    nodes: plan.node_count(),
                };
                Ok(Rung::Done(Answer::exact(rep.reliability), done))
            }
            PlanOutcome::Stopped {
                partial_expected_error,
                tuples_done,
                tuples_total,
                cause,
            } => Ok(degraded_by_tuples(
                &partial_expected_error,
                tuples_done,
                tuples_total,
                cause,
            )),
        }
    }

    fn run_qf(
        &self,
        ud: &UnreliableDatabase,
        query: &FoQuery,
        budget: &Budget,
    ) -> Result<Rung, QrelError> {
        if !query.formula().is_quantifier_free() {
            return Ok(Rung::Skip(Skip::NotQuantifierFree));
        }
        match qf_reliability_budgeted(ud, query.formula(), query.free_vars(), budget)? {
            QfOutcome::Complete(rep) => {
                let done = Completion::Qf {
                    atoms_per_tuple: rep.max_atoms_per_tuple,
                };
                Ok(Rung::Done(Answer::exact(rep.reliability), done))
            }
            QfOutcome::Exhausted {
                partial_expected_error,
                tuples_done,
                tuples_total,
                cause,
            } => Ok(degraded_by_tuples(
                &partial_expected_error,
                tuples_done,
                tuples_total,
                cause,
            )),
        }
    }

    fn run_exact(
        &self,
        ud: &UnreliableDatabase,
        query: &FoQuery,
        budget: &Budget,
        threads: usize,
    ) -> Result<Rung, QrelError> {
        match exact_reliability_budgeted(ud, query, budget, threads)? {
            ExactOutcome::Complete(rep) => {
                let done = Completion::Exact { worlds: rep.worlds };
                Ok(Rung::Done(Answer::exact(rep.reliability), done))
            }
            ExactOutcome::Exhausted {
                partial_expected_error,
                mass_visited,
                worlds,
                cause,
            } => {
                let k = query.arity() as i32;
                let n = ud.observed().size() as f64;
                let nk = n.powi(k).max(1.0);
                let lo_h = partial_expected_error.to_f64();
                let hi_h = lo_h + (1.0 - mass_visited.to_f64()).max(0.0) * nk;
                let answer = (worlds > 0).then(|| bracketed(lo_h, hi_h, nk, &cause));
                Ok(Rung::Degraded(answer, cause))
            }
        }
    }

    fn run_fptras(
        &self,
        ud: &UnreliableDatabase,
        query: &FoQuery,
        budget: &Budget,
        seed: u64,
        threads: usize,
    ) -> Result<Rung, QrelError> {
        let outcome = approximate_reliability_budgeted(
            ud,
            query.formula(),
            query.free_vars(),
            self.eps,
            self.delta,
            budget,
            seed,
            threads,
        );
        match outcome {
            Ok(ApproxOutcome::Complete(rep)) => {
                let done = Completion::Fptras {
                    eps: self.eps,
                    delta: self.delta,
                    tuples: rep.tuples,
                };
                Ok(Rung::Done(
                    Answer::sampled(rep.reliability, self.eps, self.delta),
                    done,
                ))
            }
            Ok(ApproxOutcome::Exhausted {
                partial_expected_error,
                tuples_done,
                tuples_total,
                cause,
            }) => {
                // The in-flight tuple's estimate is guarantee-free, so
                // these bounds are advisory, not hard — bounds stay None.
                let nk = tuples_total.max(1) as f64;
                let hi_h = partial_expected_error + (tuples_total - tuples_done) as f64;
                let estimate = 1.0 - (partial_expected_error + hi_h) / (2.0 * nk);
                let answer = (tuples_done > 0 || partial_expected_error > 0.0)
                    .then(|| Answer::partial(estimate, None, &cause));
                Ok(Rung::Degraded(answer, cause))
            }
            Err(QrelError::Unsupported(reason)) => Ok(Rung::Skip(Skip::Unsupported(reason))),
            Err(
                QrelError::BudgetExhausted(cause)
                | QrelError::Timeout(cause)
                | QrelError::Cancelled(cause),
            ) => Ok(Rung::Degraded(None, cause)),
            Err(e) => Err(e),
        }
    }

    /// A world-sampling rung: Thm 5.12 padding, or direct Monte-Carlo
    /// ([`direct_reliability_budgeted`]), where one sampled world serves
    /// every tuple, so a single Hoeffding bound covers the reliability.
    fn run_worlds(
        &self,
        method: Method,
        ud: &UnreliableDatabase,
        query: &FoQuery,
        budget: &Budget,
        seed: u64,
        threads: usize,
    ) -> Result<Rung, QrelError> {
        let (eps, delta) = (self.eps, self.delta);
        let outcome = if method == Method::Padding {
            PaddingEstimator::default_xi()
                .estimate_reliability_budgeted(ud, query, eps, delta, budget, seed, threads)?
        } else {
            direct_reliability_budgeted(ud, query, eps, delta, budget, seed, threads)?
        };
        Ok(match outcome {
            PaddingOutcome::Complete(rep) => {
                let worlds = rep.samples;
                let done = if method == Method::Padding {
                    Completion::Padding { eps, delta, worlds }
                } else {
                    Completion::NaiveMc { eps, delta, worlds }
                };
                Rung::Done(Answer::sampled(rep.estimate, eps, delta), done)
            }
            PaddingOutcome::Exhausted {
                partial_estimate,
                samples,
                cause,
            } => {
                let answer = (samples > 0).then(|| Answer::partial(partial_estimate, None, &cause));
                Rung::Degraded(answer, cause)
            }
        })
    }

    fn report(
        &self,
        answer: Answer,
        method: Method,
        trace: Vec<TraceStep>,
        budget: &Budget,
    ) -> SolveReport {
        SolveReport {
            reliability: answer.estimate.clamp(0.0, 1.0),
            exact: answer.exact,
            bounds: answer.bounds,
            confidence: answer.confidence,
            method,
            trace,
            elapsed: budget.elapsed(),
            worlds: budget.spent(Resource::Worlds),
            samples: budget.spent(Resource::Samples),
            terms: budget.spent(Resource::Terms),
        }
    }
}

/// A per-tuple rung (`qf`, `plan`) stopped after `tuples_done` of
/// `tuples_total` answer tuples with exact partial `H`: each remaining
/// tuple adds at most 1 to `H`. No answer when no tuple finished.
fn degraded_by_tuples(
    partial_expected_error: &BigRational,
    tuples_done: usize,
    tuples_total: usize,
    cause: Exhausted,
) -> Rung {
    let nk = tuples_total.max(1) as f64;
    let lo_h = partial_expected_error.to_f64();
    let hi_h = lo_h + (tuples_total - tuples_done) as f64;
    let answer = (tuples_done > 0).then(|| bracketed(lo_h, hi_h, nk, &cause));
    Rung::Degraded(answer, cause)
}

/// Reliability bracket from hard bounds on the expected error `H`.
fn bracketed(lo_h: f64, hi_h: f64, nk: f64, cause: &Exhausted) -> Answer {
    let lo = (1.0 - hi_h / nk).clamp(0.0, 1.0);
    let hi = (1.0 - lo_h / nk).clamp(0.0, 1.0);
    Answer::partial((lo + hi) / 2.0, Some((lo, hi)), cause)
}

/// Width of a partial answer's bracket (1 when there are no bounds),
/// used to keep the most informative partial across rungs.
fn width(a: &Answer) -> f64 {
    a.bounds.map(|(lo, hi)| hi - lo).unwrap_or(1.0)
}

/// Retries per rung after a transient (caught-panic) failure, on top of
/// the first attempt.
pub const MAX_RUNG_RETRIES: u32 = 2;

/// Deadline-aware jittered backoff before retrying a panicked rung.
///
/// The pause doubles per attempt from a 4ms base and carries a
/// deterministic jitter drawn from `split_seed` over (rung seed,
/// attempt) — same inputs, same pause, so a replayed chaos run sleeps
/// identically. Returns `None` (don't retry) when the budget is already
/// tripped or the pause would eat more than half the remaining deadline.
fn retry_backoff(rung_seed: u64, attempt: u32, budget: &Budget) -> Option<Duration> {
    if budget.probe().is_err() {
        return None;
    }
    let base = 4u64 << attempt.min(6);
    let jitter = split_seed(split_seed(rung_seed, 0x9A5E), attempt as u64) % base;
    let pause = Duration::from_millis(base + jitter);
    if let Some(left) = budget.time_left() {
        if pause > left / 2 {
            return None;
        }
    }
    Some(pause)
}

/// Derive a rung budget from the parent: half the remaining time and
/// counters for a non-final rung (so a trip leaves room to degrade),
/// everything left for the final rung. The cancel token is shared.
fn slice_budget(parent: &Budget, last: bool) -> Budget {
    let halve = |n: u64| if last { n } else { n.div_ceil(2) };
    let mut b = Budget::unlimited().with_cancel_token(parent.cancel_token());
    if let Some(left) = parent.time_left() {
        b = b.with_deadline(if last { left } else { left / 2 });
    }
    if let Some(n) = parent.remaining(Resource::Worlds) {
        b = b.with_max_worlds(halve(n));
    }
    if let Some(n) = parent.remaining(Resource::Samples) {
        b = b.with_max_samples(halve(n));
    }
    if let Some(n) = parent.remaining(Resource::Terms) {
        b = b.with_max_terms(halve(n));
    }
    b
}

/// Charge a finished rung's spend back into the parent budget (the
/// trip, if any, is already recorded — the `Err` here is irrelevant).
fn settle(parent: &Budget, slice: &Budget) {
    for r in [Resource::Worlds, Resource::Samples, Resource::Terms] {
        let _ = parent.charge(r, slice.spent(r));
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrel_budget::CancelToken;
    use qrel_core::exact_reliability;
    use qrel_db::{DatabaseBuilder, Fact};
    use std::time::Duration;

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    /// Three uncertain S-facts over a 3-element universe (8 worlds).
    fn small_ud() -> UnreliableDatabase {
        let db = DatabaseBuilder::new()
            .universe_size(3)
            .relation("S", 1)
            .tuples("S", [vec![0], vec![2]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_relation_error("S", r(1, 4)).unwrap();
        ud
    }

    /// Sixteen uncertain facts (65536 worlds) — past the test cap below.
    fn wide_ud() -> UnreliableDatabase {
        let db = DatabaseBuilder::new()
            .universe_size(16)
            .relation("S", 1)
            .tuples("S", (0..8).map(|i| vec![i]))
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        for i in 0..16 {
            ud.set_error(&Fact::new(0, vec![i]), r(1, 10)).unwrap();
        }
        ud
    }

    #[test]
    fn auto_routes_qf_and_matches_oracle() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let ud = small_ud();
        let q = FoQuery::parse("S(x)").unwrap();
        let report = Solver::new().solve(&ud, &q, &Budget::unlimited()).unwrap();
        assert_eq!(report.method, Method::Qf);
        assert_eq!(report.confidence, Confidence::Exact);
        let oracle = exact_reliability(&ud, &q).unwrap().reliability;
        assert_eq!(report.exact.unwrap(), oracle);
    }

    #[test]
    fn auto_routes_plan_for_safe_queries() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let ud = small_ud();
        let q = FoQuery::parse("exists x. S(x)").unwrap();
        let report = Solver::new().solve(&ud, &q, &Budget::unlimited()).unwrap();
        assert_eq!(report.method, Method::Plan);
        assert_eq!(report.confidence, Confidence::Exact);
        let oracle = exact_reliability(&ud, &q).unwrap().reliability;
        assert_eq!(report.exact.as_ref().unwrap(), &oracle);
        assert!(
            report.trace_line().contains("safe plan"),
            "trace: {}",
            report.trace_line()
        );
    }

    #[test]
    fn plan_skips_unsafe_shapes_with_reason_in_trace() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let ud = small_ud();
        let q = FoQuery::parse("exists x y. (S(x) & S(y))").unwrap();
        let report = Solver::new().solve(&ud, &q, &Budget::unlimited()).unwrap();
        assert_eq!(report.method, Method::Exact);
        let line = report.trace_line();
        assert!(line.contains("no safe plan"), "trace: {line}");
        assert!(line.contains("self-join"), "trace: {line}");
    }

    #[test]
    fn explicit_plan_on_unsafe_query_is_degraded() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let ud = small_ud();
        let q = FoQuery::parse("exists x y. (S(x) & E(x, y) & T(y))").unwrap();
        let err = Solver::new()
            .with_method(Method::Plan)
            .solve(&ud, &q, &Budget::unlimited())
            .unwrap_err();
        assert!(matches!(err, QrelError::Degraded(_)), "got: {err}");
    }

    #[test]
    fn plan_hint_is_honored() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let ud = small_ud();
        let q = FoQuery::parse("exists x. S(x)").unwrap();
        let hint = Arc::new(qrel_plan::compile(q.formula()).unwrap());
        let report = Solver::new()
            .with_plan_hint(Arc::clone(&hint))
            .solve(&ud, &q, &Budget::unlimited())
            .unwrap();
        assert_eq!(report.method, Method::Plan);
        let fresh = Solver::new().solve(&ud, &q, &Budget::unlimited()).unwrap();
        assert_eq!(report.exact, fresh.exact);
    }

    #[test]
    fn a_declining_plan_hint_skips_without_compiling() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let ud = small_ud();
        // A first-order safe query: compiling it would succeed, so the
        // second-order decline in the trace can only come from the hint.
        let q = FoQuery::parse("exists x. S(x)").unwrap();
        let report = Solver::new()
            .with_plan_hint(PlanHint(Err(qrel_plan::Unsafe::SecondOrder)))
            .solve(&ud, &q, &Budget::unlimited())
            .unwrap();
        assert_eq!(report.method, Method::Exact);
        assert_eq!(
            report.trace[0],
            TraceStep {
                method: Method::Plan,
                outcome: RungOutcome::Skipped(Skip::NoSafePlan(qrel_plan::Unsafe::SecondOrder)),
            }
        );
        assert_eq!(
            report.trace[0].outcome.to_string(),
            "skipped: no safe plan: second-order quantification"
        );
    }

    #[test]
    fn auto_routes_exact_when_worlds_fit() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let ud = small_ud();
        let q = FoQuery::parse("exists x y. (S(x) & S(y))").unwrap();
        let report = Solver::new().solve(&ud, &q, &Budget::unlimited()).unwrap();
        assert_eq!(report.method, Method::Exact);
        let oracle = exact_reliability(&ud, &q).unwrap().reliability;
        assert_eq!(report.exact.unwrap(), oracle);
    }

    #[test]
    fn auto_degrades_to_fptras_when_worlds_capped() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let ud = small_ud();
        let q = FoQuery::parse("exists x y. (S(x) & S(y))").unwrap();
        let report = Solver::new()
            .with_max_exact_worlds(4)
            .solve(&ud, &q, &Budget::unlimited())
            .unwrap();
        assert_eq!(report.method, Method::Fptras);
        assert!(report.confidence.is_guaranteed());
        let oracle = exact_reliability(&ud, &q).unwrap().reliability.to_f64();
        assert!(
            (report.reliability - oracle).abs() <= 0.1,
            "fptras answer {} vs oracle {oracle}",
            report.reliability
        );
    }

    #[test]
    fn an_explicit_method_equals_autos_answer_from_that_rung() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        // The Exact filter drops a rung ahead of each sampling rung, so
        // their ladder positions differ from their explicit ones; the
        // seed stream follows the method, so the answers are the same.
        let ud = wide_ud();
        for (query, rung) in [
            ("exists x y. (S(x) & S(y))", Method::Fptras),
            ("exists x. forall y. (S(x) | !S(y))", Method::NaiveMc),
        ] {
            let q = FoQuery::parse(query).unwrap();
            let solve = |method| {
                Solver::new()
                    .with_method(method)
                    .with_accuracy(0.05, 0.05)
                    .with_max_exact_worlds(100)
                    .with_seed(7)
                    .solve(&ud, &q, &Budget::unlimited())
                    .unwrap()
            };
            let (auto, explicit) = (solve(Method::Auto), solve(rung));
            assert_eq!(auto.method, rung, "{query}: {}", auto.trace_line());
            assert_eq!(explicit.method, rung);
            assert_eq!(auto.reliability.to_bits(), explicit.reliability.to_bits());
            assert_eq!(auto.confidence, explicit.confidence);
            assert_eq!(auto.samples, explicit.samples, "{query}");
        }
    }

    #[test]
    fn auto_answers_a_non_groundable_query_from_mc_not_padding() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        // ∃∀ is neither existential nor universal, so no FPTRAS: direct
        // Monte-Carlo earns the (ε, δ) label from one Hoeffding count,
        // where Thm 5.12's padding drew 86,278 samples on this instance.
        let ud = wide_ud();
        let q = FoQuery::parse("exists x. forall y. (S(x) | !S(y))").unwrap();
        let report = Solver::new()
            .with_accuracy(0.05, 0.05)
            .with_max_exact_worlds(100)
            .solve(&ud, &q, &Budget::unlimited())
            .unwrap();
        assert_eq!(report.method, Method::NaiveMc, "{}", report.trace_line());
        assert!(report.confidence.is_guaranteed());
        assert!(report.samples <= 86_278 / 50, "{} samples", report.samples);
        assert!(report.trace.iter().all(|s| s.method != Method::Padding));
        let oracle = exact_reliability(&ud, &q).unwrap().reliability.to_f64();
        assert!((report.reliability - oracle).abs() <= 0.05);
    }

    #[test]
    fn exhausted_budget_returns_partial_with_trace() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let ud = wide_ud();
        let q = FoQuery::parse("exists x y. (S(x) & S(y))").unwrap();
        // Worlds run out mid-enumeration, samples run out mid-sampling:
        // every rung degrades and the best partial survives.
        let budget = Budget::unlimited()
            .with_max_worlds(100)
            .with_max_samples(40);
        let report = Solver::new().solve(&ud, &q, &budget).unwrap();
        assert!(report.is_degraded());
        assert!((0.0..=1.0).contains(&report.reliability));
        assert!(report.trace.len() >= 2, "trace: {}", report.trace_line());
        let line = report.trace_line();
        assert!(line.starts_with("tried "), "trace: {line}");
        assert!(line.contains("fell back to "), "trace: {line}");
        if let Some((lo, hi)) = report.bounds {
            assert!(lo <= report.reliability && report.reliability <= hi);
        }
    }

    #[test]
    fn cancelled_before_start_yields_error_not_panic() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let ud = small_ud();
        let q = FoQuery::parse("exists x. S(x)").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel_token(token);
        let err = Solver::new().solve(&ud, &q, &budget).unwrap_err();
        assert!(
            matches!(err, QrelError::Cancelled(_) | QrelError::Degraded(_)),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn explicit_exact_without_budget_is_exact() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let ud = wide_ud();
        let q = FoQuery::parse("exists x. S(x)").unwrap();
        let report = Solver::new()
            .with_method(Method::Exact)
            .solve(&ud, &q, &Budget::unlimited())
            .unwrap();
        assert_eq!(report.confidence, Confidence::Exact);
        assert_eq!(report.worlds, 1 << 16);
        let oracle = exact_reliability(&ud, &q).unwrap().reliability;
        assert_eq!(report.exact.unwrap(), oracle);
    }

    #[test]
    fn explicit_qf_on_quantified_query_is_unsupported() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let ud = small_ud();
        let q = FoQuery::parse("exists x. S(x)").unwrap();
        let err = Solver::new()
            .with_method(Method::Qf)
            .solve(&ud, &q, &Budget::unlimited())
            .unwrap_err();
        assert!(matches!(err, QrelError::Degraded(_)), "got: {err}");
    }

    #[test]
    fn naive_mc_agrees_with_oracle() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let ud = small_ud();
        let q = FoQuery::parse("exists x. S(x)").unwrap();
        let report = Solver::new()
            .with_method(Method::NaiveMc)
            .with_accuracy(0.05, 0.02)
            .solve(&ud, &q, &Budget::unlimited())
            .unwrap();
        let oracle = exact_reliability(&ud, &q).unwrap().reliability.to_f64();
        assert!(
            (report.reliability - oracle).abs() <= 0.05,
            "mc answer {} vs oracle {oracle}",
            report.reliability
        );
    }

    #[test]
    fn answer_is_thread_count_invariant() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        // The determinism contract at the solver level: the sampling
        // rungs run on fixed shard counts with seed-split RNGs, so the
        // reported reliability is bit-identical for every --threads.
        let ud = small_ud();
        let q = FoQuery::parse("exists x y. (S(x) & S(y))").unwrap();
        let solve = |threads: usize| {
            Solver::new()
                .with_max_exact_worlds(4) // force the FPTRAS rung
                .with_threads(threads)
                .solve(&ud, &q, &Budget::unlimited())
                .unwrap()
        };
        let base = solve(1);
        assert_eq!(base.method, Method::Fptras);
        for threads in [2usize, 4, 8] {
            let rep = solve(threads);
            assert_eq!(rep.method, base.method);
            assert_eq!(rep.reliability.to_bits(), base.reliability.to_bits());
            assert_eq!(rep.samples, base.samples);
        }
    }

    #[test]
    fn fptras_on_certain_witness_is_one_without_sampling() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        // S(0) is observed and certain (μ = 0): grounding folds the term
        // x = y = 0 to ⊤, so the lineage is trivially true and Karp–Luby
        // answers exactly 1 without drawing a sample.
        let mut ud = small_ud();
        ud.set_error(&Fact::new(0, vec![0]), BigRational::zero())
            .unwrap();
        let q = FoQuery::parse("exists x y. (S(x) & S(y))").unwrap();
        for threads in [1usize, 2, 4] {
            let report = Solver::new()
                .with_method(Method::Fptras)
                .with_threads(threads)
                .solve(&ud, &q, &Budget::unlimited())
                .unwrap();
            assert_eq!(report.method, Method::Fptras);
            assert!(report.confidence.is_guaranteed());
            assert_eq!(report.reliability.to_bits(), 1.0f64.to_bits());
            assert_eq!(report.samples, 0, "threads = {threads}");
        }
    }

    #[test]
    fn deadline_is_respected_within_slack() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let ud = wide_ud();
        let q = FoQuery::parse("exists x y. (S(x) & S(y))").unwrap();
        let budget = Budget::unlimited().with_deadline(Duration::from_millis(200));
        let started = std::time::Instant::now();
        let result = Solver::new()
            .with_max_exact_worlds(1 << 20)
            .solve(&ud, &q, &budget);
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(1000),
            "solve took {elapsed:?} against a 200ms deadline"
        );
        // Whatever came back, it must be well-formed.
        if let Ok(report) = result {
            assert!((0.0..=1.0).contains(&report.reliability));
        }
    }

    #[test]
    fn progress_hook_observes_rung_attempts() {
        // Serialize against fault-armed tests (arming is process-global).
        let _quiet = qrel_faults::quiesce();
        let ud = small_ud();
        let q = FoQuery::parse("exists x. S(x)").unwrap();
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::<ProgressEvent>::new()));
        let sink = std::sync::Arc::clone(&events);
        let report = Solver::new()
            .with_progress(ProgressHook::new(move |e| sink.lock().unwrap().push(e)))
            .solve(&ud, &q, &Budget::unlimited())
            .unwrap();
        assert_eq!(report.method, Method::Plan);
        let events = events.lock().unwrap();
        // One start event (outcome: None) and one outcome event per rung
        // attempt; the single plan rung completes on its first try.
        assert_eq!(events.len(), 2, "events: {events:?}");
        assert_eq!(events[0].attempt, 1);
        assert!(events[0].outcome.is_none());
        assert_eq!(events[1].method, Method::Plan);
        assert!(events[1]
            .outcome
            .as_ref()
            .unwrap()
            .to_string()
            .contains("completed"));
    }

    #[test]
    fn injected_rung_panic_is_retried_and_heals() {
        let ud = small_ud();
        let q = FoQuery::parse("exists x y. (S(x) & S(y))").unwrap();
        let clean = Solver::new().solve(&ud, &q, &Budget::unlimited()).unwrap();
        assert_eq!(clean.method, Method::Exact);

        // One injected panic on the exact rung: the ladder must retry
        // the rung (transient class), then complete with an answer
        // bit-identical to the fault-free solve.
        let plan = qrel_faults::FaultPlan::new(3).with_rule(
            &qrel_faults::points::rung_panic(Method::Exact.name()),
            1.0,
            0,
            1, // fire once, then heal
        );
        let _guard = plan.arm();
        let healed = Solver::new().solve(&ud, &q, &Budget::unlimited()).unwrap();
        assert_eq!(healed.method, Method::Exact);
        assert_eq!(healed.reliability.to_bits(), clean.reliability.to_bits());
        assert_eq!(healed.exact, clean.exact);
        let notes: Vec<String> = healed.trace.iter().map(|s| s.outcome.to_string()).collect();
        assert!(
            notes.iter().any(|n| n.contains("injected fault")),
            "trace must record the caught panic: {notes:?}"
        );
        assert!(
            notes.iter().any(|n| n.contains("retrying after")),
            "trace must record the retry: {notes:?}"
        );
    }

    #[test]
    fn persistent_rung_panic_falls_through_the_ladder() {
        let ud = small_ud();
        let q = FoQuery::parse("exists x y. (S(x) & S(y))").unwrap();
        // The exact rung panics on every attempt; retries exhaust and
        // the ladder falls through to a sampling rung instead of
        // failing the whole solve.
        let plan = qrel_faults::FaultPlan::new(5).with_rule(
            &qrel_faults::points::rung_panic(Method::Exact.name()),
            1.0,
            0,
            0, // unlimited fires
        );
        let _guard = plan.arm();
        let report = Solver::new().solve(&ud, &q, &Budget::unlimited()).unwrap();
        assert_ne!(report.method, Method::Exact);
        assert!((0.0..=1.0).contains(&report.reliability));
    }

    #[test]
    fn stalled_rung_degrades_within_the_deadline() {
        let ud = small_ud();
        let q = FoQuery::parse("exists x y. (S(x) & S(y))").unwrap();
        let plan = qrel_faults::FaultPlan::new(9).with_rule(
            &qrel_faults::points::rung_stall(Method::Exact.name()),
            1.0,
            300, // stall past the whole deadline
            0,
        );
        let _guard = plan.arm();
        let budget = Budget::unlimited().with_deadline(Duration::from_millis(150));
        let started = std::time::Instant::now();
        let result = Solver::new().solve(&ud, &q, &budget);
        // The stall eats the exact rung's slice; whatever the outcome,
        // the solve returns promptly after it (deadline + injected
        // stall bound) and never hangs.
        assert!(
            started.elapsed() < Duration::from_millis(300 * 4 + 1000),
            "stalled solve took {:?}",
            started.elapsed()
        );
        if let Ok(report) = result {
            assert!((0.0..=1.0).contains(&report.reliability));
        }
    }
}
