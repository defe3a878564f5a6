//! The traced run: a workload's requests replayed single-threaded
//! through the same public functions the server calls, in pipeline
//! order, one span per call. Nothing inside the program is
//! instrumented; the server's own result and plan caches are emulated
//! with the same keys so the replay does the work a served request
//! would.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use qrel_budget::Budget;
use qrel_eval::FoQuery;
use qrel_plan::Plan;
use qrel_prob::UnreliableDatabase;
use qrel_runtime::{Method, Solver};
use qrel_serve::protocol::parse_solve_request;
use qrel_serve::{canonical_db_hash, solve_response_body, DbRef};
use serde_json::ParseLimits;

use crate::harness;
use crate::stats::median;
use crate::trace::{Tracer, REQUEST};

/// What one replayed `Solver::solve` did.
pub struct SolveSample {
    pub method: Method,
    pub us: f64,
    pub worlds: u64,
    pub samples: u64,
}

/// A served dataset: its model and the db-hash the server keys it by.
pub type Named = HashMap<String, (Arc<UnreliableDatabase>, u64)>;

/// JSON nesting depth the server parses request bodies under.
const MAX_DEPTH: usize = 64;

pub struct Replay {
    pub tr: Tracer,
    /// Body limit and default deadline of the served configuration.
    max_body_bytes: usize,
    default_timeout_ms: u64,
    /// Safe plans by (canonical query, schema); `None` is a cached
    /// decline.
    plans: HashMap<(String, String), Option<Arc<Plan>>>,
    /// Rendered bodies by the server's result-cache key.
    results: HashMap<(u64, String, u64, u64, u64), Vec<u8>>,
    pub solves: Vec<SolveSample>,
    pub body_bytes: Vec<f64>,
    next_request: u64,
}

/// The serve layer's plan-cache schema key: relation symbols in
/// declaration order.
fn schema_fingerprint(ud: &UnreliableDatabase) -> String {
    ud.observed()
        .vocabulary()
        .symbols()
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// A replay with the body limit and default deadline of the
/// configuration the workloads serve with.
impl Default for Replay {
    fn default() -> Replay {
        let config = harness::config(vec![], None);
        Replay {
            tr: Tracer::default(),
            max_body_bytes: config.max_body_bytes,
            default_timeout_ms: config.default_timeout_ms,
            plans: HashMap::new(),
            results: HashMap::new(),
            solves: Vec::new(),
            body_bytes: Vec::new(),
            next_request: 0,
        }
    }
}

impl Replay {
    /// Replay one `POST /v1/solve` body; returns the response body the
    /// server would send.
    pub fn solve(&mut self, body: &[u8], named: &Named) -> Result<Vec<u8>, String> {
        let id = self.next_request;
        self.next_request += 1;
        self.body_bytes.push(body.len() as f64);
        let root = self.tr.begin(REQUEST, None, id);
        let out = self.pipeline(root, id, body, named);
        self.tr.end(root);
        out
    }

    fn pipeline(
        &mut self,
        root: usize,
        id: u64,
        body: &[u8],
        named: &Named,
    ) -> Result<Vec<u8>, String> {
        let at = Some(root);
        let limits = ParseLimits {
            max_depth: MAX_DEPTH,
            max_bytes: self.max_body_bytes,
        };
        let tr = &mut self.tr;
        let sreq = tr.span("serve.protocol.parse", at, id, || {
            parse_solve_request(body, limits)
        })?;
        let (ud, db_hash) = match &sreq.db {
            DbRef::Named(name) => named
                .get(name)
                .map(|(ud, hash)| (Arc::clone(ud), *hash))
                .ok_or_else(|| format!("unknown dataset {name:?}"))?,
            DbRef::Inline(spec) => {
                let ud = tr
                    .span("prob.spec_build", at, id, || spec.build())
                    .map_err(|e| e.to_string())?;
                let hash = tr.span("serve.db_hash", at, id, || canonical_db_hash(&ud));
                // Reference only: the store's hash of the same model.
                tr.span("store.db_hash_of", None, id, || qrel_store::db_hash_of(&ud));
                (Arc::new(ud), hash)
            }
        };
        let formula = tr
            .span("logic.parse_formula", at, id, || {
                qrel_logic::parser::parse_formula(&sreq.query)
            })
            .map_err(|e| e.to_string())?;
        let free = sreq.free.clone().unwrap_or_else(|| formula.free_vars());
        let key = (
            db_hash,
            formula.to_string(),
            sreq.seed,
            sreq.eps.to_bits(),
            sreq.delta.to_bits(),
        );
        if let Some(hit) = self.results.get(&key) {
            return Ok(hit.clone());
        }
        let plan_key = (key.1.clone(), schema_fingerprint(&ud));
        if !self.plans.contains_key(&plan_key) {
            let compiled = tr.span("plan.compile", at, id, || qrel_plan::compile(&formula));
            self.plans
                .insert(plan_key.clone(), compiled.ok().map(Arc::new));
        }
        let plan = self.plans[&plan_key].clone();
        if let Some(plan) = &plan {
            // Reference only: the plan evaluation the solver's plan rung
            // performs inside `runtime.solve`.
            tr.span("plan.eval", None, id, || {
                qrel_plan::reliability(&ud, plan, &formula, &free)
            })
            .map_err(|e| e.to_string())?;
        }
        let query = FoQuery::with_free_order(formula, free);
        let mut solver = Solver::new()
            .with_method(sreq.method)
            .with_accuracy(sreq.eps, sreq.delta)
            .with_seed(sreq.seed)
            .with_threads(1);
        if let Some(plan) = plan {
            solver = solver.with_plan_hint(plan);
        }
        let timeout_ms = sreq.timeout_ms.unwrap_or(self.default_timeout_ms);
        let budget = Budget::with_deadline_from_now(Duration::from_millis(timeout_ms));
        let solve = tr.begin("runtime.solve", at, id);
        let report = solver.solve(&ud, &query, &budget);
        tr.end(solve);
        let report = report.map_err(|e| e.to_string())?;
        self.solves.push(SolveSample {
            method: report.method,
            us: tr.duration_ns(solve) as f64 / 1e3,
            worlds: report.worlds,
            samples: report.samples,
        });
        let rendered = tr.span("serve.render", at, id, || solve_response_body(&report));
        self.results.insert(key, rendered.clone());
        Ok(rendered)
    }

    /// Per-layer metrics of the replayed requests: median self time per
    /// layer, per-rung solve time, and the work counters.
    pub fn layer_metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        let selfs = self.tr.median_self_us();
        for (span, metric) in [
            ("serve.protocol.parse", "serve.protocol.parse_us"),
            ("prob.spec_build", "prob.spec_build_us"),
            ("serve.db_hash", "serve.db_hash_us"),
            ("store.db_hash_of", "store.db_hash_of_us"),
            ("logic.parse_formula", "logic.parse_formula_us"),
            ("plan.compile", "plan.compile_us"),
            ("plan.eval", "plan.eval_us"),
            ("serve.render", "serve.render_us"),
        ] {
            out.insert(metric, selfs.get(span).copied().unwrap_or(0.0));
        }
        for (method, metric) in [
            (Method::Plan, "runtime.solve.plan_us"),
            (Method::Exact, "runtime.solve.exact_us"),
            (Method::Fptras, "runtime.solve.fptras_us"),
        ] {
            let us: Vec<f64> = self
                .solves
                .iter()
                .filter(|s| s.method == method)
                .map(|s| s.us)
                .collect();
            out.insert(metric, median(&us).unwrap_or(0.0));
        }
        let rate = |per: &dyn Fn(&SolveSample) -> u64, method: Method| {
            let (work, us) = self
                .solves
                .iter()
                .filter(|s| s.method == method)
                .fold((0u64, 0.0), |(w, t), s| (w + per(s), t + s.us));
            let counts: Vec<f64> = self
                .solves
                .iter()
                .filter(|s| s.method == method)
                .map(|s| per(s) as f64)
                .collect();
            let per_s = if us > 0.0 {
                work as f64 / (us / 1e6)
            } else {
                0.0
            };
            (median(&counts).unwrap_or(0.0), per_s)
        };
        let (worlds, worlds_per_s) = rate(&|s| s.worlds, Method::Exact);
        out.insert("core.exact.worlds", worlds);
        out.insert("core.exact.worlds_per_s", worlds_per_s);
        let (samples, samples_per_s) = rate(&|s| s.samples, Method::Fptras);
        out.insert("core.fptras.samples", samples);
        out.insert("core.fptras.samples_per_s", samples_per_s);
        out.insert("serve.body_bytes", median(&self.body_bytes).unwrap_or(0.0));
        out
    }
}
