//! The budgeted solver: fragment-based routing plus a graceful
//! degradation ladder over every reliability method in the workspace.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use qrel_arith::BigRational;
use qrel_budget::{Budget, Exhausted, QrelError, Resource};
use qrel_core::{
    approximate_reliability_budgeted, exact_reliability_budgeted, qf_reliability_budgeted,
    ApproxOutcome, ExactOutcome, PaddingEstimator, PaddingOutcome, QfOutcome,
};
use qrel_count::bounds::hoeffding_samples;
use qrel_eval::{FoQuery, Query};
use qrel_logic::Fragment;
use qrel_par::{resolve_threads, run_settled, shard_counts, split_seed, DEFAULT_SHARDS};
use qrel_prob::{UnreliableDatabase, WorldSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::report::{Confidence, Method, SolveReport, TraceStep};

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
    /// Zero-based rung index in the ladder.
    pub rung: usize,
    /// Ladder length.
    pub of: usize,
    pub method: Method,
    /// 1-based attempt number (retries increment this).
    pub attempt: u32,
    /// `None` when the attempt starts; the trace note once it ends.
    pub note: Option<String>,
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

/// What a rung did with its budget slice.
enum Rung {
    /// Finished with a full-guarantee answer; `String` is the trace note.
    Done(Answer, String),
    /// Budget tripped; carries the partial answer (if any estimate was
    /// accumulated) for the ladder's last-resort report.
    Degraded(Option<Answer>, Exhausted),
    /// Method does not apply to this query.
    Skip(String),
}

/// The budgeted reliability solver.
///
/// Wraps every method in the workspace behind one
/// [`Solver::solve`] call: routing (for [`Method::Auto`]) follows the
/// classify-then-solve pattern — quantifier-free queries take the
/// Prop 3.1 fast path, small world counts take the Thm 4.2 exact
/// enumeration, existential/universal queries take the Cor 5.5 FPTRAS,
/// and everything else falls to the Thm 5.12 padding estimator — while
/// a tripped [`Budget`] degrades to the next-cheaper method instead of
/// failing, and a panicking rung is caught and skipped.
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
    plan_hint: Option<Arc<qrel_plan::Plan>>,
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

    /// Reuse an already-compiled safe plan for the plan rung instead of
    /// recompiling (the serve layer's plan cache passes one in). The
    /// plan must have been compiled from this solve's query.
    pub fn with_plan_hint(mut self, plan: Arc<qrel_plan::Plan>) -> Self {
        self.plan_hint = Some(plan);
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
            // Every rung gets its own seed stream, so a rung's sampling
            // never depends on how much earlier rungs drew — the answer
            // is a function of (query, seed, accuracy) alone, not of
            // thread count or of which rungs happened to run. Retries
            // reuse the same rung seed: a retried rung that completes
            // gives the same answer a first-try completion would.
            let rung_seed = split_seed(self.seed, i as u64);
            let mut attempt: u32 = 0;
            loop {
                self.emit_progress(i, ladder.len(), method, attempt + 1, None);
                let slice = slice_budget(budget, last);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    self.run_rung(method, ud, query, &slice, rung_seed, threads)
                }));
                settle(budget, &slice);
                match outcome {
                    Ok(Ok(Rung::Done(answer, note))) => {
                        self.emit_progress(i, ladder.len(), method, attempt + 1, Some(&note));
                        trace.push(TraceStep { method, note });
                        return Ok(self.report(answer, method, trace, budget));
                    }
                    Ok(Ok(Rung::Degraded(answer, cause))) => {
                        self.emit_progress(
                            i,
                            ladder.len(),
                            method,
                            attempt + 1,
                            Some(&cause.to_string()),
                        );
                        trace.push(TraceStep {
                            method,
                            note: cause.to_string(),
                        });
                        if let Some(mut a) = answer {
                            a.confidence = Confidence::Partial {
                                reason: cause.to_string(),
                            };
                            best_partial = Some(match best_partial.take() {
                                Some(b) if width(&b.0) <= width(&a) => b,
                                _ => (a, method),
                            });
                        }
                        continue 'ladder;
                    }
                    Ok(Ok(Rung::Skip(reason))) => {
                        trace.push(TraceStep {
                            method,
                            note: format!("skipped: {reason}"),
                        });
                        continue 'ladder;
                    }
                    Ok(Err(e)) => {
                        trace.push(TraceStep {
                            method,
                            note: format!("failed: {e}"),
                        });
                        first_error.get_or_insert(e);
                        continue 'ladder;
                    }
                    Err(panic) => {
                        // `&*panic`, not `&panic`: coercing the Box
                        // itself to `dyn Any` would hide the payload.
                        let msg = panic_message(&*panic);
                        self.emit_progress(
                            i,
                            ladder.len(),
                            method,
                            attempt + 1,
                            Some(&format!("panicked: {msg}")),
                        );
                        trace.push(TraceStep {
                            method,
                            note: format!("panicked: {msg}"),
                        });
                        let err = QrelError::RungPanic(msg);
                        // Self-healing: a caught panic is the one
                        // transient failure class — retry the rung with
                        // jittered backoff while deadline remains,
                        // instead of burning the whole rung.
                        if err.is_transient() && attempt < self.rung_retries {
                            if let Some(pause) = retry_backoff(self.seed, i as u64, attempt, budget)
                            {
                                trace.push(TraceStep {
                                    method,
                                    note: format!(
                                        "retrying after {}ms (attempt {} of {})",
                                        pause.as_millis(),
                                        attempt + 2,
                                        self.rung_retries + 1
                                    ),
                                });
                                std::thread::sleep(pause);
                                attempt += 1;
                                continue;
                            }
                        }
                        first_error.get_or_insert(err);
                        continue 'ladder;
                    }
                }
            }
        }

        match best_partial {
            Some((answer, method)) => Ok(self.report(answer, method, trace, budget)),
            None => Err(first_error.unwrap_or_else(|| {
                QrelError::Degraded(
                    trace
                        .iter()
                        .map(|s| format!("{}: {}", s.method, s.note))
                        .collect::<Vec<_>>()
                        .join("; "),
                )
            })),
        }
    }

    fn emit_progress(
        &self,
        rung: usize,
        of: usize,
        method: Method,
        attempt: u32,
        note: Option<&str>,
    ) {
        if let Some(hook) = &self.progress {
            hook.emit(ProgressEvent {
                rung,
                of,
                method,
                attempt,
                note: note.map(str::to_string),
            });
        }
    }

    /// Build the rung sequence for this query. Explicit methods get a
    /// one-rung ladder; `Auto` routes by fragment and world count, then
    /// appends the universal sampling fallbacks.
    fn ladder(&self, ud: &UnreliableDatabase, query: &FoQuery, budget: &Budget) -> Vec<Method> {
        if self.method != Method::Auto {
            return vec![self.method];
        }
        let fragment = query.formula().fragment();
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

        let mut ladder = Vec::new();
        if fragment == Fragment::QuantifierFree {
            // The QF fast path is already exact and PTIME; keep it first.
            ladder.push(Method::Qf);
        } else {
            // Rung 0 for every quantified query: the safe-plan compiler
            // answers hierarchical self-join-free shapes exactly in
            // PTIME and skips (cheaply, with the decline reason in the
            // trace) when the shape is provably unsafe.
            ladder.push(Method::Plan);
            if fits {
                ladder.push(Method::Exact);
            }
        }
        if groundable && !ladder.contains(&Method::Fptras) {
            ladder.push(Method::Fptras);
        }
        ladder.push(Method::Padding);
        ladder.push(Method::NaiveMc);
        ladder
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
            Method::Padding => self.run_padding(ud, query, budget, seed, threads),
            Method::NaiveMc => self.run_naive_mc(ud, query, budget, seed, threads),
        }
    }

    fn run_plan(
        &self,
        ud: &UnreliableDatabase,
        query: &FoQuery,
        budget: &Budget,
    ) -> Result<Rung, QrelError> {
        // A cancelled/expired budget degrades before any work is done;
        // past that point the plan evaluates in one uninterruptible
        // polynomial pass (it enumerates no worlds and draws no
        // samples, so the world/sample budgets don't apply).
        if let Err(cause) = budget.probe() {
            return Ok(Rung::Degraded(None, cause));
        }
        let plan = match &self.plan_hint {
            Some(hint) => Arc::clone(hint),
            None => match qrel_plan::compile(query.formula()) {
                Ok(plan) => Arc::new(plan),
                Err(reason) => {
                    return Ok(Rung::Skip(format!("no safe plan: {reason}")));
                }
            },
        };
        let rep = qrel_plan::reliability(ud, &plan, query.formula(), query.free_vars())?;
        let note = format!("completed exactly (safe plan, {} nodes)", plan.node_count());
        Ok(Rung::Done(
            Answer {
                estimate: rep.reliability.to_f64(),
                exact: Some(rep.reliability),
                bounds: None,
                confidence: Confidence::Exact,
            },
            note,
        ))
    }

    fn run_qf(
        &self,
        ud: &UnreliableDatabase,
        query: &FoQuery,
        budget: &Budget,
    ) -> Result<Rung, QrelError> {
        if !query.formula().is_quantifier_free() {
            return Ok(Rung::Skip("query is not quantifier-free".into()));
        }
        match qf_reliability_budgeted(ud, query.formula(), query.free_vars(), budget)? {
            QfOutcome::Complete(rep) => {
                let note = format!(
                    "completed exactly ({} atoms/tuple)",
                    rep.max_atoms_per_tuple
                );
                Ok(Rung::Done(
                    Answer {
                        estimate: rep.reliability.to_f64(),
                        exact: Some(rep.reliability),
                        bounds: None,
                        confidence: Confidence::Exact,
                    },
                    note,
                ))
            }
            QfOutcome::Exhausted {
                partial_expected_error,
                tuples_done,
                tuples_total,
                cause,
            } => {
                let nk = tuples_total.max(1) as f64;
                let lo_h = partial_expected_error.to_f64();
                let hi_h = lo_h + (tuples_total - tuples_done) as f64;
                let answer = (tuples_done > 0).then(|| bracketed(lo_h, hi_h, nk));
                Ok(Rung::Degraded(answer, cause))
            }
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
                let note = format!("completed exactly ({} worlds)", rep.worlds);
                Ok(Rung::Done(
                    Answer {
                        estimate: rep.reliability.to_f64(),
                        exact: Some(rep.reliability),
                        bounds: None,
                        confidence: Confidence::Exact,
                    },
                    note,
                ))
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
                let answer = (worlds > 0).then(|| bracketed(lo_h, hi_h, nk));
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
                let note = format!(
                    "completed with (ε={}, δ={}) guarantee ({} tuples)",
                    self.eps, self.delta, rep.tuples
                );
                Ok(Rung::Done(
                    Answer {
                        estimate: rep.reliability.clamp(0.0, 1.0),
                        exact: None,
                        bounds: None,
                        confidence: Confidence::Fptras {
                            eps: self.eps,
                            delta: self.delta,
                        },
                    },
                    note,
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
                let answer = (tuples_done > 0 || partial_expected_error > 0.0).then(|| Answer {
                    estimate: estimate.clamp(0.0, 1.0),
                    exact: None,
                    bounds: None,
                    confidence: Confidence::Exact, // overwritten by the ladder
                });
                Ok(Rung::Degraded(answer, cause))
            }
            Err(QrelError::Unsupported(reason)) => Ok(Rung::Skip(reason)),
            Err(
                QrelError::BudgetExhausted(cause)
                | QrelError::Timeout(cause)
                | QrelError::Cancelled(cause),
            ) => Ok(Rung::Degraded(None, cause)),
            Err(e) => Err(e),
        }
    }

    fn run_padding(
        &self,
        ud: &UnreliableDatabase,
        query: &FoQuery,
        budget: &Budget,
        seed: u64,
        threads: usize,
    ) -> Result<Rung, QrelError> {
        let est = PaddingEstimator::default_xi();
        match est
            .estimate_reliability_budgeted(ud, query, self.eps, self.delta, budget, seed, threads)?
        {
            PaddingOutcome::Complete(rep) => {
                let note = format!(
                    "completed with (ε={}, δ={}) guarantee ({} worlds)",
                    self.eps, self.delta, rep.samples
                );
                Ok(Rung::Done(
                    Answer {
                        estimate: rep.estimate.clamp(0.0, 1.0),
                        exact: None,
                        bounds: None,
                        confidence: Confidence::Fptras {
                            eps: self.eps,
                            delta: self.delta,
                        },
                    },
                    note,
                ))
            }
            PaddingOutcome::Exhausted {
                partial_estimate,
                samples,
                cause,
            } => {
                let answer = (samples > 0).then(|| Answer {
                    estimate: partial_estimate.clamp(0.0, 1.0),
                    exact: None,
                    bounds: None,
                    confidence: Confidence::Exact, // overwritten by the ladder
                });
                Ok(Rung::Degraded(answer, cause))
            }
        }
    }

    /// Direct Monte-Carlo: sample worlds, count the per-world symmetric
    /// difference `|ψ^𝔄 Δ ψ^𝔅|/n^k ∈ [0, 1]`, and average. One world
    /// serves every tuple at once and the per-world statistic is already
    /// the normalized error, so a single Hoeffding bound on `t` samples
    /// gives `±ε` on the reliability itself — no per-tuple `ε/n^k`
    /// split, which is what makes this the cheapest rung.
    ///
    /// Sharded like the other sampling rungs: the sample budget splits
    /// across [`DEFAULT_SHARDS`] seed-split workers and the *integer*
    /// symmetric-difference totals merge exactly, so the estimate never
    /// depends on the thread count.
    fn run_naive_mc(
        &self,
        ud: &UnreliableDatabase,
        query: &FoQuery,
        budget: &Budget,
        seed: u64,
        threads: usize,
    ) -> Result<Rung, QrelError> {
        let k = query.arity();
        let db = ud.observed();
        let tuples: Vec<Vec<u32>> = db.universe().tuples(k).collect();
        let nk = tuples.len().max(1);
        let observed = query.answers(db)?;
        let t = hoeffding_samples(self.eps, self.delta);
        let counts = shard_counts(t, DEFAULT_SHARDS);

        let (parts, cause) = run_settled(
            budget.split(DEFAULT_SHARDS),
            threads,
            |child| budget.settle(child),
            |s, child: &Budget| {
                let mut rng = StdRng::seed_from_u64(split_seed(seed, s as u64));
                let sampler = WorldSampler::new(ud);
                let mut diff_total = 0u64;
                let mut drawn = 0u64;
                let mut cause = None;
                for _ in 0..counts[s] {
                    if let Err(e) = child.charge(Resource::Samples, 1) {
                        cause = Some(e);
                        break;
                    }
                    let answers = match query.answers(&sampler.sample(&mut rng)) {
                        Ok(a) => a,
                        Err(e) => return ((diff_total, drawn, Some(e)), cause),
                    };
                    diff_total += tuples
                        .iter()
                        .filter(|tuple| answers.contains(tuple) != observed.contains(tuple))
                        .count() as u64;
                    drawn += 1;
                }
                ((diff_total, drawn, None), cause)
            },
        );
        let mut diff_total = 0u64;
        let mut drawn = 0u64;
        let mut failure: Option<qrel_eval::EvalError> = None;
        for (part_diff, part_drawn, part_failure) in parts {
            diff_total += part_diff;
            drawn += part_drawn;
            if failure.is_none() {
                failure = part_failure;
            }
        }
        if let Some(e) = failure {
            return Err(e.into());
        }
        let mean = diff_total as f64 / nk as f64 / drawn.max(1) as f64;
        let estimate = (1.0 - mean).clamp(0.0, 1.0);
        match cause {
            None => Ok(Rung::Done(
                Answer {
                    estimate,
                    exact: None,
                    bounds: None,
                    confidence: Confidence::Fptras {
                        eps: self.eps,
                        delta: self.delta,
                    },
                },
                format!(
                    "completed with (ε={}, δ={}) Hoeffding guarantee ({drawn} worlds)",
                    self.eps, self.delta
                ),
            )),
            Some(cause) => {
                let answer = (drawn > 0).then_some(Answer {
                    estimate,
                    exact: None,
                    bounds: None,
                    confidence: Confidence::Exact, // overwritten by the ladder
                });
                Ok(Rung::Degraded(answer, cause))
            }
        }
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

/// Reliability bracket from hard bounds on the expected error `H`.
fn bracketed(lo_h: f64, hi_h: f64, nk: f64) -> Answer {
    let lo = (1.0 - hi_h / nk).clamp(0.0, 1.0);
    let hi = (1.0 - lo_h / nk).clamp(0.0, 1.0);
    Answer {
        estimate: (lo + hi) / 2.0,
        exact: None,
        bounds: Some((lo, hi)),
        confidence: Confidence::Exact, // overwritten by the ladder
    }
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
/// deterministic jitter drawn from `split_seed` over (solver seed, rung
/// index, attempt) — same inputs, same pause, so a replayed chaos run
/// sleeps identically. Returns `None` (don't retry) when the budget is
/// already tripped or the pause would eat more than half the remaining
/// deadline.
fn retry_backoff(seed: u64, rung: u64, attempt: u32, budget: &Budget) -> Option<Duration> {
    if budget.probe().is_err() {
        return None;
    }
    let base = 4u64 << attempt.min(6);
    let jitter = split_seed(split_seed(seed, 0x9A5E ^ rung), attempt as u64) % base;
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
        // One start event (note: None) and one outcome event per rung
        // attempt; the single plan rung completes on its first try.
        assert_eq!(events.len(), 2, "events: {events:?}");
        assert_eq!(events[0].attempt, 1);
        assert!(events[0].note.is_none());
        assert_eq!(events[1].method, Method::Plan);
        assert!(events[1].note.as_deref().unwrap().contains("completed"));
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
        let notes: Vec<&str> = healed.trace.iter().map(|s| s.note.as_str()).collect();
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
