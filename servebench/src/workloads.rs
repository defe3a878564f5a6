//! The three workloads. Each generates its inputs from the seed,
//! computes reference answers before the clock starts, drives the
//! server with the closed loop, checks every reply, asserts the
//! `/metrics` counters its shape implies, and — when traced — replays
//! its requests through the layers' public functions.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qrel_budget::Budget;
use qrel_eval::FoQuery;
use qrel_logic::parser::parse_formula;
use qrel_prob::UnreliableDatabase;
use qrel_runtime::{Method, Solver};
use qrel_serve::{canonical_db_hash, solve_response_body};
use qrel_store::{Mutation, Store};
use rand::Rng;
use serde::Value;

use crate::client;
use crate::gen::{self, SAFE_QUERIES, SAMPLED_QUERIES, SELF_JOIN_QUERIES};
use crate::harness::{self, Bin, Live, Meter};
use crate::replay::{Named, Replay};
use crate::sys::{self, filesystem_of, restart_peak_rss};
use crate::tally::{OpKind, Tally};

/// Servers booted per run to sample set-up time on the workloads whose
/// set-up is sub-millisecond.
const SETUP_BOOTS: usize = 51;
/// Operations each client makes after the warm-up at least, however
/// slow the box, so that a p99 always has ten samples beyond it.
const MIN_MEASURED_OPS: u64 = 520;

/// When a client of a timed window stops starting operations: after the
/// warm-up and `seconds` of measurement, once it has also made
/// [`MIN_MEASURED_OPS`] measured operations.
struct Pace {
    warm_end: Instant,
    deadline: Instant,
    measured: u64,
}

impl Pace {
    fn new(seconds: f64) -> Pace {
        let warm_end = Instant::now() + harness::WARMUP;
        Pace {
            warm_end,
            deadline: warm_end + Duration::from_secs_f64(seconds),
            measured: 0,
        }
    }

    fn more(&self) -> bool {
        self.measured < MIN_MEASURED_OPS || Instant::now() < self.deadline
    }

    /// Count an operation that just ended.
    fn tick(&mut self) {
        if Instant::now() >= self.warm_end {
            self.measured += 1;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InlinePlan,
    ChurnExact,
    SampleCache,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::InlinePlan,
        Workload::ChurnExact,
        Workload::SampleCache,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InlinePlan => "inline_plan",
            Workload::ChurnExact => "churn_exact",
            Workload::SampleCache => "sample_cache",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's parameters.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run (datasets, store copies).
    pub dir: PathBuf,
}

/// What a run measured.
pub struct Measured {
    pub tally: Tally,
    pub bins: Vec<Bin>,
    pub setup_s: Vec<f64>,
    /// Answer or counter problems found outside single operations.
    pub errors: Vec<String>,
    /// The last `/metrics` scrape.
    pub counters: BTreeMap<String, f64>,
    pub replay: Option<Replay>,
    /// Store-layer metrics of the traced replay (`churn_exact` only).
    pub store_layers: BTreeMap<&'static str, f64>,
    /// Filesystem the store lives on, when the workload has one.
    pub store_fs: Option<String>,
    /// How far the resident set rose, in MiB, above where it stood once
    /// the inputs were generated: the served part of the run at its peak,
    /// read after a fixed amount of work (the first round on
    /// `churn_exact`, [`harness::RSS_AT_OPS`] operations on the others).
    pub peak_rss_mb: f64,
}

pub fn run(workload: Workload, ctx: &Ctx) -> Result<Measured, String> {
    match workload {
        Workload::InlinePlan => inline_plan(ctx),
        Workload::ChurnExact => churn_exact(ctx),
        Workload::SampleCache => sample_cache(ctx),
    }
}

/// Judge a solve response body: the answering rung, a guaranteed
/// answer, and the exact value — one of `exact`, or none at all.
pub fn check_body(body: &[u8], method: &str, exact: Option<&[String]>) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON body: {e}"))?;
    let got = v.get("method").and_then(Value::as_str);
    if got != Some(method) {
        return Err(format!("answered by {got:?}, expected {method:?}: {text}"));
    }
    if !matches!(v.get("guaranteed"), Some(Value::Bool(true))) {
        return Err(format!("answer carries no guarantee: {text}"));
    }
    match (exact, v.get("exact")) {
        (Some(allowed), Some(Value::Str(s))) if allowed.contains(s) => Ok(()),
        (None, Some(Value::Null)) => Ok(()),
        (_, got) => Err(format!("exact value {got:?}, expected one of {exact:?}")),
    }
}

fn parse_all(queries: &[&str]) -> Result<Vec<qrel_logic::Formula>, String> {
    queries
        .iter()
        .map(|q| parse_formula(q).map_err(|e| format!("query {q:?}: {e}")))
        .collect()
}

fn solve_json(db: &str, query: &str, extra: &str, seed: u64) -> Vec<u8> {
    format!("{{{db},\"query\":\"{query}\",\"method\":\"auto\"{extra},\"seed\":{seed}}}")
        .into_bytes()
}

// ---------------------------------------------------------------------------
// inline_plan

/// Specs in the inline pool, all over the same `E/2, S/1` schema.
const INLINE_POOL: usize = 4;
const INLINE_ELEMENTS: u32 = 30;
const INLINE_FACTS: usize = 600;
/// Shape seed of the first inline spec; spec `k` uses this plus `k`.
const INLINE_SHAPE: u64 = 1;
/// Requests replayed by the traced run.
const INLINE_REPLAY: u64 = 120;

struct Inline {
    specs: Vec<String>,
    /// Exact reliability per (spec, query), from the plan engine.
    refs: Vec<Vec<String>>,
}

impl Inline {
    fn generate(ctx: &Ctx) -> Result<Inline, String> {
        let mut rng = gen::stream(ctx.seed, 1);
        let formulas = parse_all(&SAFE_QUERIES)?;
        let plans = formulas
            .iter()
            .map(|f| qrel_plan::compile(f).map_err(|e| format!("{f} has no safe plan: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut specs = Vec::with_capacity(INLINE_POOL);
        let mut refs = Vec::with_capacity(INLINE_POOL);
        for k in 0..INLINE_POOL {
            let shape = gen::Shape {
                seed: INLINE_SHAPE + k as u64,
                elements: INLINE_ELEMENTS,
                with_s: true,
                observed_p: 0.5,
                uncertain: INLINE_FACTS,
                mus: &gen::PRIME_MU,
            };
            let spec = gen::relabel(&gen::graph_spec(&shape), &mut rng);
            let ud = spec.build().map_err(|e| e.to_string())?;
            refs.push(
                formulas
                    .iter()
                    .zip(&plans)
                    .map(|(f, p)| {
                        qrel_plan::reliability(&ud, p, f, &f.free_vars())
                            .map(|r| r.reliability.to_string())
                            .map_err(|e| e.to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            );
            specs.push(serde_json::to_string(&spec).map_err(|e| e.to_string())?);
        }
        Ok(Inline { specs, refs })
    }

    /// Client `c`'s `i`-th request: body, spec index, query index.
    fn request(&self, c: usize, i: u64) -> (Vec<u8>, usize, usize) {
        let spec = (i as usize + c) % INLINE_POOL;
        let query = (i as usize / INLINE_POOL + c) % SAFE_QUERIES.len();
        let seed = (c as u64) << 40 | i;
        let db = format!("\"db\":{}", self.specs[spec]);
        (solve_json(&db, SAFE_QUERIES[query], "", seed), spec, query)
    }
}

fn inline_plan(ctx: &Ctx) -> Result<Measured, String> {
    let inputs = Inline::generate(ctx)?;
    let base_mb = restart_peak_rss()?;
    let mut setup_s = harness::setup_samples(SETUP_BOOTS, || harness::config(vec![], None))?;
    let (live, setup) = Live::boot(harness::config(vec![], None))?;
    setup_s.push(setup);

    let used_queries = Mutex::new(BTreeSet::new());
    let (window, _) = harness::closed_loop(Some(harness::BIN), harness::WARMUP, |c, meter| {
        let mut pace = Pace::new(ctx.seconds);
        let mut tally = Tally::default();
        let mut i = 0;
        while pace.more() {
            let (body, spec, query) = inputs.request(c, i);
            used_queries
                .lock()
                .expect("query set poisoned")
                .insert(query);
            let raw = client::encode("POST", "/v1/solve", &body);
            let (record, _) = harness::op(live.addr, OpKind::Solve, &raw, |r| {
                if r.cache_hit {
                    return Err("distinct seed hit the result cache".into());
                }
                check_body(&r.body, "plan", Some(&inputs.refs[spec][query..=query]))
            });
            meter.record(&mut tally, record);
            pace.tick();
            i += 1;
        }
        (tally, ())
    });

    let counters = harness::scrape(live.addr)?;
    live.join()?;
    let peak_rss_mb = window
        .peak_rss_mb
        .ok_or("the window ended before its peak RSS reading")?
        - base_mb;
    let solves = window.tally.attempted;
    let compiles = used_queries.into_inner().expect("query set poisoned").len() as u64;
    let mut errors = Vec::new();
    harness::expect_counters(
        &counters,
        &[
            ("qrel_cache_hits_total", 0),
            ("qrel_cache_misses_total", solves),
            ("qrel_plan_cache_misses_total", compiles),
            (
                "qrel_plan_cache_hits_total",
                solves.saturating_sub(compiles),
            ),
            ("qrel_plan_unsafe_total", 0),
            ("qrel_solve_total{method=\"plan\"}", solves),
            ("qrel_sched_coalesce_hits_total", 0),
        ],
        &mut errors,
    );

    let replay = if ctx.trace {
        let mut replay = Replay::default();
        for i in 0..INLINE_REPLAY {
            let (body, spec, query) = inputs.request(0, i);
            let out = replay.solve(&body, &Named::new())?;
            check_body(&out, "plan", Some(&inputs.refs[spec][query..=query]))
                .map_err(|e| format!("replayed request {i}: {e}"))?;
        }
        Some(replay)
    } else {
        None
    };
    Ok(Measured {
        tally: window.tally,
        bins: window.bins,
        setup_s,
        errors,
        counters,
        replay,
        store_layers: BTreeMap::new(),
        store_fs: None,
        peak_rss_mb,
    })
}

// ---------------------------------------------------------------------------
// churn_exact

const CHURN_DATASET: &str = "churn";
const CHURN_ELEMENTS: u32 = 5;
const CHURN_FACTS: usize = 10;
const CHURN_SHAPE: u64 = 2;
/// μ versions the re-weighted fact cycles through; version 0 is stored.
const MU_VERSIONS: [&str; 4] = ["1/8", "1/4", "3/8", "1/2"];
/// Client 0's operations per round, alternating solve and re-weight.
const CHURN_OPS: u64 = 240;
/// Client 1's solves per round, so every round does the same work.
const CHURN_READS: u64 = 120;
/// Rounds run at least: a write p99 needs 1000 writes.
const CHURN_MIN_ROUNDS: u64 = 1000_u64.div_ceil(CHURN_OPS / 2);
/// Wall time of one round on the 2-vCPU box the bounds were set on. A
/// run makes one round per this much of `--seconds`.
const CHURN_ROUND_SECONDS: f64 = 1.6;

fn churn_rounds(seconds: f64) -> u64 {
    ((seconds / CHURN_ROUND_SECONDS).ceil() as u64).max(CHURN_MIN_ROUNDS)
}
/// Segments of a freshly built store: the churn ingest and the scale
/// batch.
const TEMPLATE_SEGMENTS: u64 = 2;

struct Churn {
    /// The re-weighted fact and whether it is observed present.
    fact: Vec<u32>,
    present: bool,
    /// Exact reliability per (query, μ version), by world enumeration.
    refs: Vec<Vec<String>>,
    template: PathBuf,
}

impl Churn {
    fn generate(ctx: &Ctx) -> Result<Churn, String> {
        let mut rng = gen::stream(ctx.seed, 2);
        let shape = gen::Shape {
            seed: CHURN_SHAPE,
            elements: CHURN_ELEMENTS,
            with_s: false,
            observed_p: 0.5,
            uncertain: CHURN_FACTS,
            mus: &gen::DYADIC_MU,
        };
        // Fixed labels: the enumerator's per-world query evaluation stops
        // at the first witness it meets, so renaming elements would make
        // the cost of a solve depend on the seed. The seed picks the
        // re-weighted fact instead.
        let mut spec = gen::graph_spec(&shape);
        spec.errors.swap(0, rng.gen_range(0..CHURN_FACTS));
        spec.errors[0].mu = MU_VERSIONS[0].to_string();
        let fact = spec.errors[0].tuple.clone();
        let present = spec
            .database
            .relation_by_name("E")
            .is_some_and(|r| r.contains(&fact));
        let formulas = parse_all(&SELF_JOIN_QUERIES)?;
        for f in &formulas {
            if qrel_plan::compile(f).is_ok() {
                return Err(format!("{f} unexpectedly has a safe plan"));
            }
        }
        let versions = MU_VERSIONS
            .iter()
            .map(|mu| {
                let mut v = spec.clone();
                v.errors[0].mu = mu.to_string();
                v.build().map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let refs = formulas
            .iter()
            .map(|f| {
                versions
                    .iter()
                    .map(|ud| {
                        qrel_core::exact::exact_reliability(ud, &FoQuery::new(f.clone()))
                            .map(|r| r.reliability.to_string())
                            .map_err(|e| e.to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let template = ctx.dir.join("template");
        let mut store = Store::init(&template).map_err(|e| e.to_string())?;
        store
            .ingest_spec(CHURN_DATASET, &spec)
            .map_err(|e| e.to_string())?;
        store
            .create_dataset(
                "scale",
                (0..gen::SCALE_SIDE).map(|i| format!("e{i}")).collect(),
                vec![("R".to_string(), 2)],
                "full",
            )
            .map_err(|e| e.to_string())?;
        store
            .commit("scale", &gen::scale_batch())
            .map_err(|e| e.to_string())?;
        Ok(Churn {
            fact,
            present,
            refs,
            template,
        })
    }

    /// Solve `i` of client `c` in `round`: body and query index.
    fn solve(&self, round: u64, c: usize, i: u64) -> (Vec<u8>, usize) {
        let query = (i / 2 + c as u64 + round) as usize % SELF_JOIN_QUERIES.len();
        let seed = round << 32 | (c as u64) << 28 | i;
        let db = format!("\"dataset\":\"{CHURN_DATASET}\"");
        (solve_json(&db, SELF_JOIN_QUERIES[query], "", seed), query)
    }

    fn write(&self, version: usize) -> Vec<u8> {
        format!(
            "{{\"facts\":[{{\"relation\":\"E\",\"tuple\":[{},{}],\"present\":{},\"mu\":\"{}\"}}]}}",
            self.fact[0], self.fact[1], self.present, MU_VERSIONS[version]
        )
        .into_bytes()
    }

    fn mutation(&self, version: usize) -> Mutation {
        Mutation::set("E", self.fact.clone(), self.present, MU_VERSIONS[version])
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(|e| e.to_string())?;
            // Flush the copy now, so the server's first commit does not
            // pay for writing it back inside the measured window.
            std::fs::File::open(&target)
                .and_then(|f| f.sync_all())
                .map_err(|e| format!("sync {}: {e}", target.display()))?;
        }
    }
    Ok(())
}

/// Client 0 of a churn round: `CHURN_OPS` operations alternating a
/// solve (answer must match the μ version it last wrote) with a
/// re-weight to the next version.
fn churn_writer(inputs: &Churn, addr: SocketAddr, round: u64, meter: &Meter) -> Tally {
    let mut tally = Tally::default();
    let mut version = 0;
    for i in 0..CHURN_OPS {
        let record = if i % 2 == 0 {
            let (body, query) = inputs.solve(round, 0, i);
            let raw = client::encode("POST", "/v1/solve", &body);
            let want = &inputs.refs[query][version..=version];
            harness::op(addr, OpKind::Solve, &raw, |r| {
                if r.cache_hit {
                    return Err("distinct seed hit the result cache".into());
                }
                check_body(&r.body, "exact", Some(want))
            })
            .0
        } else {
            version = (version + 1) % MU_VERSIONS.len();
            let path = format!("/v1/datasets/{CHURN_DATASET}/facts");
            let raw = client::encode("POST", &path, &inputs.write(version));
            harness::op(addr, OpKind::Write, &raw, |r| {
                let text = String::from_utf8_lossy(&r.body);
                if text.contains(&format!("\"dataset\":\"{CHURN_DATASET}\"")) {
                    Ok(())
                } else {
                    Err(format!("unexpected write reply: {text}"))
                }
            })
            .0
        };
        meter.record(&mut tally, record);
    }
    tally
}

/// Client 1 of a churn round: `CHURN_READS` solves; any of the μ
/// versions is a right answer.
fn churn_reader(inputs: &Churn, addr: SocketAddr, round: u64, meter: &Meter) -> Tally {
    let mut tally = Tally::default();
    for i in 0..CHURN_READS {
        let (body, query) = inputs.solve(round, 1, i);
        let raw = client::encode("POST", "/v1/solve", &body);
        let (record, _) = harness::op(addr, OpKind::Solve, &raw, |r| {
            if r.cache_hit {
                return Err("distinct seed hit the result cache".into());
            }
            check_body(&r.body, "exact", Some(&inputs.refs[query]))
        });
        meter.record(&mut tally, record);
    }
    tally
}

fn churn_exact(ctx: &Ctx) -> Result<Measured, String> {
    let inputs = Churn::generate(ctx)?;
    let mut tally = Tally::default();
    let mut bins = Vec::new();
    let mut setup_s = Vec::new();
    let mut errors = Vec::new();
    let mut counters = BTreeMap::new();
    // Peak memory is that of the first round's server, measured from
    // what is resident once the 100k-fact template is built. Later
    // rounds inherit arenas the earlier servers fragmented, and their
    // peaks drift by several MiB from run to run.
    let base_mb = restart_peak_rss()?;
    let mut peak_rss_mb = 0.0;
    // Every round starts from a fresh copy of the store and performs a
    // fixed number of re-weights, so the segment count a commit or
    // rebuild reads never depends on how fast the box is; the number of
    // rounds is fixed by `--seconds`, not by the clock.
    for round in 0..churn_rounds(ctx.seconds) {
        let dir = ctx.dir.join(format!("round-{round}"));
        copy_dir(&inputs.template, &dir)?;
        let (live, setup) = Live::boot(harness::config(vec![], Some(dir.clone())))?;
        setup_s.push(setup);
        // One bin per round: every round does the same operations.
        let (window, _) = harness::closed_loop(None, Duration::ZERO, |c, meter| {
            let t = if c == 0 {
                churn_writer(&inputs, live.addr, round, meter)
            } else {
                churn_reader(&inputs, live.addr, round, meter)
            };
            (t, ())
        });
        counters = harness::scrape(live.addr)?;
        live.join()?;
        if round == 0 {
            peak_rss_mb = sys::peak_rss_mb() - base_mb;
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        let writes = CHURN_OPS / 2;
        let solves = window.tally.attempted - writes;
        harness::expect_counters(
            &counters,
            &[
                ("qrel_cache_hits_total", 0),
                ("qrel_cache_misses_total", solves),
                ("qrel_solve_total{method=\"exact\"}", solves),
                ("qrel_plan_unsafe_total", solves),
                ("qrel_sched_coalesce_hits_total", 0),
                ("qrel_store_segments", TEMPLATE_SEGMENTS + writes),
            ],
            &mut errors,
        );
        bins.extend(window.bins);
        tally.merge(window.tally);
    }

    let (replay, store_layers) = if ctx.trace {
        let mut replay = Replay::default();
        let layers = replay_churn(ctx, &inputs, &mut replay)?;
        (Some(replay), layers)
    } else {
        (None, BTreeMap::new())
    };
    Ok(Measured {
        tally,
        bins,
        setup_s,
        errors,
        counters,
        replay,
        store_layers,
        store_fs: Some(filesystem_of(&ctx.dir)),
        peak_rss_mb,
    })
}

/// Replay client 0's round-0 operations on a fresh store copy: open
/// and load/build every dataset as the server boots, then each solve
/// through the pipeline and each re-weight as commit plus rebuild.
fn replay_churn(
    ctx: &Ctx,
    inputs: &Churn,
    replay: &mut Replay,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let dir = ctx.dir.join("replay");
    copy_dir(&inputs.template, &dir)?;
    let tr = &mut replay.tr;
    let open = tr.begin("store.open", None, 0);
    let store = Store::open(&dir).map_err(|e| e.to_string());
    tr.end(open);
    let mut store = store?;
    let mut named = Named::new();
    let mut load_build_ns = 0;
    for name in store.dataset_names() {
        let span = tr.begin("store.load_build", None, 0);
        let ud = store.load(&name).and_then(|mut ds| ds.build());
        tr.end(span);
        load_build_ns += tr.duration_ns(span);
        let hash = store.dataset(&name).map_or(0, |e| e.db_hash);
        named.insert(name, (Arc::new(ud.map_err(|e| e.to_string())?), hash));
    }
    let open_ns = tr.duration_ns(open);

    let mut commit_ms = Vec::new();
    let mut rebuild_ms = Vec::new();
    let (mut written, mut user_bytes) = (0u64, 0u64);
    let manifest = qrel_store::manifest::manifest_path(&dir);
    let mut version = 0;
    for i in 0..CHURN_OPS {
        if i % 2 == 0 {
            let (body, query) = inputs.solve(0, 0, i);
            let out = replay.solve(&body, &named)?;
            check_body(&out, "exact", Some(&inputs.refs[query][version..=version]))
                .map_err(|e| format!("replayed solve {i}: {e}"))?;
            continue;
        }
        version = (version + 1) % MU_VERSIONS.len();
        user_bytes += inputs.write(version).len() as u64;
        let bytes_before = store.total_bytes();
        let tr = &mut replay.tr;
        let root = tr.begin("write", None, i);
        let commit = tr.begin("store.commit", Some(root), i);
        let stats = store
            .commit(CHURN_DATASET, &[inputs.mutation(version)])
            .map_err(|e| e.to_string());
        tr.end(commit);
        let rebuild = tr.begin("store.rebuild", Some(root), i);
        let ud = store.load(CHURN_DATASET).and_then(|mut ds| ds.build());
        tr.end(rebuild);
        tr.end(root);
        let stats = stats?;
        commit_ms.push(tr.duration_ns(commit) as f64 / 1e6);
        rebuild_ms.push(tr.duration_ns(rebuild) as f64 / 1e6);
        let manifest_bytes = std::fs::metadata(&manifest).map_or(0, |m| m.len());
        written += store.total_bytes() - bytes_before + manifest_bytes;
        named.insert(
            CHURN_DATASET.to_string(),
            (Arc::new(ud.map_err(|e| e.to_string())?), stats.db_hash),
        );
    }
    let median = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    Ok(BTreeMap::from([
        ("store.open_ms", open_ns as f64 / 1e6),
        ("store.load_build_ms", load_build_ns as f64 / 1e6),
        ("store.commit_ms", median(&commit_ms)),
        ("store.rebuild_ms", median(&rebuild_ms)),
        ("store.segments_end", store.total_segments() as f64),
        (
            "store.bytes_written_per_user_byte",
            written as f64 / user_bytes.max(1) as f64,
        ),
    ]))
}

// ---------------------------------------------------------------------------
// sample_cache

/// Uncertain facts, universe size and shape seed of the two preloaded
/// datasets.
const SAMPLE_SETS: [(usize, u32, u64); 2] = [(42, 9, 2), (56, 10, 1)];
const SAMPLE_ACCURACY: f64 = 0.1;
/// Every this many fresh requests, one is re-solved in process and
/// compared byte for byte.
const SAMPLE_CHECK_EVERY: u64 = 8;
/// Operations replayed by the traced run (groups of four).
const SAMPLE_REPLAY: usize = 160;

struct Sample {
    names: Vec<String>,
    files: Vec<PathBuf>,
    uds: Vec<Arc<UnreliableDatabase>>,
}

/// A fresh (never repeated before) request.
struct Fresh {
    dataset: usize,
    query: usize,
    seed: u64,
    body: Vec<u8>,
    raw: Vec<u8>,
}

impl Sample {
    fn generate(ctx: &Ctx) -> Result<Sample, String> {
        let mut rng = gen::stream(ctx.seed, 3);
        for f in &parse_all(&SAMPLED_QUERIES)? {
            if qrel_plan::compile(f).is_ok() {
                return Err(format!("{f} unexpectedly has a safe plan"));
            }
        }
        let mut sample = Sample {
            names: Vec::new(),
            files: Vec::new(),
            uds: Vec::new(),
        };
        for (facts, elements, seed) in SAMPLE_SETS {
            let shape = gen::Shape {
                seed,
                elements,
                with_s: true,
                observed_p: 0.4,
                uncertain: facts,
                mus: &gen::DYADIC_MU,
            };
            let spec = gen::relabel(&gen::graph_spec(&shape), &mut rng);
            let name = format!("sample{facts}");
            let file = ctx.dir.join(format!("{name}.json"));
            let text = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
            std::fs::write(&file, text).map_err(|e| format!("write {}: {e}", file.display()))?;
            sample
                .uds
                .push(Arc::new(spec.build().map_err(|e| e.to_string())?));
            sample.names.push(name);
            sample.files.push(file);
        }
        Ok(sample)
    }

    /// Client `c`'s `j`-th fresh request; clients never share a seed.
    fn fresh(&self, c: usize, j: u64) -> Fresh {
        let dataset = (j as usize + c) % self.names.len();
        let query = (j as usize / self.names.len() + c) % SAMPLED_QUERIES.len();
        let seed = (c as u64) << 40 | j;
        let db = format!("\"dataset\":\"{}\"", self.names[dataset]);
        let extra = format!(",\"eps\":{SAMPLE_ACCURACY},\"delta\":{SAMPLE_ACCURACY}");
        let body = solve_json(&db, SAMPLED_QUERIES[query], &extra, seed);
        Fresh {
            dataset,
            query,
            seed,
            raw: client::encode("POST", "/v1/solve", &body),
            body,
        }
    }

    /// Client `c`'s operation sequence: in every group of four, three
    /// fresh requests then a repeat of one of its own earlier ones.
    /// Yields `(fresh index, true)` for a fresh request and `(index of
    /// the repeated fresh request, false)` for a repeat.
    fn sequence(&self, ctx: &Ctx, c: usize) -> impl Iterator<Item = (usize, bool)> {
        let mut rng = gen::stream(ctx.seed, 100 + c as u64);
        let mut fresh = 0usize;
        (0..).map(move |op| {
            if op % 4 == 3 {
                (rng.gen_range(0..fresh), false)
            } else {
                fresh += 1;
                (fresh - 1, true)
            }
        })
    }

    fn named(&self) -> Named {
        self.names
            .iter()
            .zip(&self.uds)
            .map(|(n, ud)| (n.clone(), (Arc::clone(ud), canonical_db_hash(ud))))
            .collect()
    }
}

/// The body an in-process solver produces for a fresh request, with
/// the settings the server solves with.
fn local_body(ud: &UnreliableDatabase, query: &FoQuery, seed: u64) -> Result<Vec<u8>, String> {
    let report = Solver::new()
        .with_method(Method::Auto)
        .with_accuracy(SAMPLE_ACCURACY, SAMPLE_ACCURACY)
        .with_seed(seed)
        .with_threads(1)
        .solve(
            ud,
            query,
            &Budget::with_deadline_from_now(Duration::from_millis(
                harness::config(vec![], None).default_timeout_ms,
            )),
        )
        .map_err(|e| e.to_string())?;
    Ok(solve_response_body(&report))
}

fn sample_cache(ctx: &Ctx) -> Result<Measured, String> {
    let inputs = Sample::generate(ctx)?;
    let base_mb = restart_peak_rss()?;
    let make = || harness::config(inputs.files.clone(), None);
    let mut setup_s = harness::setup_samples(SETUP_BOOTS, make)?;
    let (live, setup) = Live::boot(make())?;
    setup_s.push(setup);

    // Per client: fresh requests to re-check in process, and repeats.
    let (window, extras) = harness::closed_loop(Some(harness::BIN), harness::WARMUP, |c, meter| {
        let mut pace = Pace::new(ctx.seconds);
        let mut tally = Tally::default();
        let mut sent: Vec<(Fresh, Vec<u8>)> = Vec::new();
        let mut repeats = 0u64;
        let mut ops = inputs.sequence(ctx, c);
        // Whole groups only, so exactly one operation in four repeats.
        while pace.more() {
            for (index, is_fresh) in ops.by_ref().take(4) {
                pace.tick();
                if is_fresh {
                    let req = inputs.fresh(c, index as u64);
                    let (record, reply) = harness::op(live.addr, OpKind::Solve, &req.raw, |r| {
                        if r.cache_hit {
                            return Err("fresh request hit the result cache".into());
                        }
                        check_body(&r.body, "fptras", None)
                    });
                    meter.record(&mut tally, record);
                    sent.push((req, reply.map(|r| r.body).unwrap_or_default()));
                } else {
                    repeats += 1;
                    let (req, first) = &sent[index];
                    let (record, _) = harness::op(live.addr, OpKind::Solve, &req.raw, |r| {
                        match (r.cache_hit, r.body == *first) {
                            (true, true) => Ok(()),
                            (false, _) => Err("repeated request missed the result cache".into()),
                            (true, false) => Err("cached body differs from the first reply".into()),
                        }
                    });
                    meter.record(&mut tally, record);
                }
            }
        }
        (tally, (sent, repeats))
    });
    let counters = harness::scrape(live.addr)?;
    live.join()?;
    let peak_rss_mb = window
        .peak_rss_mb
        .ok_or("the window ended before its peak RSS reading")?
        - base_mb;

    let mut tally = window.tally;
    let repeats: u64 = extras.iter().map(|(_, r)| r).sum();
    let fresh = tally.attempted - repeats;
    let mut errors = Vec::new();
    harness::expect_counters(
        &counters,
        &[
            ("qrel_cache_hits_total", repeats),
            ("qrel_cache_misses_total", fresh),
            ("qrel_solve_total{method=\"fptras\"}", fresh),
            ("qrel_plan_unsafe_total", fresh),
            ("qrel_plan_cache_misses_total", 0),
            ("qrel_sched_coalesce_hits_total", 0),
        ],
        &mut errors,
    );

    // Outside the window: a deterministic subset of fresh answers must
    // be bit-identical to an in-process solve with the same settings.
    let queries: Vec<FoQuery> = parse_all(&SAMPLED_QUERIES)?
        .into_iter()
        .map(FoQuery::new)
        .collect();
    for (sent, _) in &extras {
        for (j, (req, body)) in sent.iter().enumerate() {
            if !(j as u64).is_multiple_of(SAMPLE_CHECK_EVERY) || body.is_empty() {
                continue;
            }
            let want = local_body(&inputs.uds[req.dataset], &queries[req.query], req.seed)?;
            if want != *body {
                tally.failed += 1;
                errors.push(format!(
                    "fresh request {j} (seed {}): served {} but the in-process solver gives {}",
                    req.seed,
                    String::from_utf8_lossy(body),
                    String::from_utf8_lossy(&want)
                ));
            }
        }
    }

    let replay = if ctx.trace {
        let mut replay = Replay::default();
        let named = inputs.named();
        for (index, is_fresh) in inputs.sequence(ctx, 0).take(SAMPLE_REPLAY) {
            let req = inputs.fresh(0, index as u64);
            let out = replay.solve(&req.body, &named)?;
            if is_fresh {
                check_body(&out, "fptras", None)
                    .map_err(|e| format!("replayed request {index}: {e}"))?;
            }
        }
        Some(replay)
    } else {
        None
    };
    Ok(Measured {
        tally,
        bins: window.bins,
        setup_s,
        errors,
        counters,
        replay,
        store_layers: BTreeMap::new(),
        store_fs: None,
        peak_rss_mb,
    })
}
