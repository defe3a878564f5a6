//! The server: accept loop, bounded admission queue, worker pool,
//! request routing, and graceful shutdown.
//!
//! ## Threading model
//!
//! - The acceptor (the caller of [`Server::run`]) accepts connections
//!   as they arrive (it blocks in `poll(2)` between them) and offers
//!   them to the bounded admission queue, without parsing. A full queue
//!   gets `429 Too Many Requests` (with `Retry-After`) and a close —
//!   backpressure instead of unbounded buffering.
//! - `workers` HTTP threads pop connections, read each request under a
//!   read deadline (a stalled client trips `408`), route it, and write
//!   the response. Solves go to the scheduler; the synchronous facade
//!   blocks until its job is terminal.
//! - The [`Scheduler`] pool (`sched_workers` threads) executes solves.
//!   Each running group owns a cancel token wired into its [`Budget`]
//!   and a hard deadline (budget deadline + one watchdog period).
//! - The watchdog thread (`self_heal` on) calls
//!   [`Scheduler::cancel_overdue`] every `watchdog_period`.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] (or SIGTERM/ctrl-c once
//! [`install_shutdown_signals`] ran) flips a flag the acceptor checks
//! between accepts; the handle also wakes the acceptor's wait, and the
//! wait's timeout bounds how late a signal is seen. The acceptor then
//! stops accepting, closes the queue, and workers drain what was
//! already admitted — nobody is killed mid-solve. If the drain outlives
//! `shutdown_grace`, [`Scheduler::abort`] cancels the queued jobs and
//! fires every running solve's token; the solves unwind cooperatively
//! through the latched-trip machinery, still producing (degraded)
//! responses.

use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use qrel_budget::{Budget, QrelError};
use qrel_eval::FoQuery;
use qrel_prob::UnreliableDatabase;
use qrel_runtime::{Method, PlanHint, ProgressHook, Solver};
use qrel_sched::{CancelOutcome, JobCtx, JobState, Priority, SchedConfig, Scheduler, SubmitError};
use qrel_store::decode::member;
use qrel_store::{
    db_hash_of, decode_text, live_fact_count, DecodeError, DecodedSpec, FactRows, Mutation,
    RowShape, Store, StoreError,
};
use serde::Value;
use serde_json::ParseLimits;

use crate::accept::{self, Wake};
use crate::cache::{CacheKey, PlanCache, PlanStatus, ResultCache};
use crate::health::{compute_retry_after, Admission, Breakers, HealthState, RateEstimator};
use crate::http::{read_request, write_response, HttpError, Request, Response};
use crate::metrics::{render_sched, Metrics};
use crate::protocol::{
    error_body, job_accepted_body, job_list_body, job_status_body, parse_solve_request,
    solve_response_body, DbRef, ErrorEnvelope,
};

/// Server configuration. `Default` gives sane local-service values;
/// the CLI maps its flags onto the fields it exposes.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (printed by the
    /// CLI, exposed via [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it get `429`.
    pub queue_cap: usize,
    /// Result-cache capacity in bytes (`0` disables caching).
    pub cache_bytes: usize,
    /// Maximum request-body size; larger declarations get `413`.
    pub max_body_bytes: usize,
    /// Per-connection read deadline; slower clients get `408`.
    pub read_timeout: Duration,
    /// Budget deadline applied when a request carries no `timeout_ms`.
    pub default_timeout_ms: u64,
    /// How long a graceful shutdown waits for in-flight solves before
    /// cancelling their budgets.
    pub shutdown_grace: Duration,
    /// Dataset files (`UnreliableDatabaseSpec` JSON) loaded at startup
    /// and addressable by file stem in `/v1/solve`.
    pub preload: Vec<PathBuf>,
    /// Consecutive breaker-relevant failures (rung panics, internal
    /// errors) that open a method's circuit. `0` disables breakers.
    pub breaker_threshold: u32,
    /// How long an open circuit rejects before admitting a probe.
    pub breaker_cooldown: Duration,
    /// Scan period of the stuck-worker watchdog; a solve that overstays
    /// its deadline by more than one period is hard-cancelled.
    pub watchdog_period: Duration,
    /// Master switch for the self-healing plane (breakers, watchdog,
    /// solver rung retries). `false` is the E16 "before" arm.
    pub self_heal: bool,
    /// Scheduler worker threads executing solves. `0` means "match
    /// `workers`", so the synchronous facade can never wait on a job no
    /// scheduler worker is free to run.
    pub sched_workers: usize,
    /// Maximum queued+running jobs one tenant may hold; submits beyond
    /// it get `429`.
    pub per_tenant_cap: usize,
    /// Scheduler workers that skip `low`-priority jobs, so a flood of
    /// batch work cannot starve short interactive solves.
    pub reserved_workers: usize,
    /// Terminal job records retained for `GET /v1/jobs/{id}` replay
    /// before the oldest are evicted.
    pub job_retain_cap: usize,
    /// Directory of a persistent [`qrel_store::Store`]. When set, its
    /// datasets are served alongside the preloads and the fact-mutation
    /// endpoints (`POST`/`DELETE /v1/datasets/{name}/facts`) go live.
    pub store: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            queue_cap: 64,
            cache_bytes: 64 * 1024 * 1024,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            default_timeout_ms: 30_000,
            shutdown_grace: Duration::from_secs(30),
            preload: Vec::new(),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(2),
            watchdog_period: Duration::from_millis(250),
            self_heal: true,
            sched_workers: 0,
            per_tenant_cap: 64,
            reserved_workers: 1,
            job_retain_cap: 1024,
            store: None,
        }
    }
}

/// How [`Server::run`] ended, for the CLI's exit code: a clean drain
/// exits 0, a forced one (grace expired or the watchdog had to kill
/// work) exits 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// The drain outlived `shutdown_grace` and in-flight budgets were
    /// hard-cancelled.
    pub forced: bool,
    /// Solves hard-cancelled by the stuck-worker watchdog over the
    /// server's lifetime.
    pub watchdog_cancels: u64,
}

/// Errors surfaced while bringing the server up.
#[derive(Debug)]
pub enum ServeError {
    Io(std::io::Error),
    /// A preload file failed to read, parse, or build.
    BadDataset {
        path: PathBuf,
        reason: String,
    },
    /// The `--store` directory failed to open or a stored dataset
    /// failed to rebuild.
    BadStore {
        path: PathBuf,
        reason: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "{e}"),
            ServeError::BadDataset { path, reason } => {
                write!(f, "cannot preload {}: {reason}", path.display())
            }
            ServeError::BadStore { path, reason } => {
                write!(f, "cannot open store {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// A live dataset: the built model plus its db-hash (computed when the
/// dataset is loaded or mutated, shared by every request that names it)
/// and the live-fact count `/healthz` reports. Every source uses the
/// store's hash: preloads compute [`db_hash_of`] once at startup, and
/// store-backed datasets carry the store's incrementally maintained
/// value, so a fact mutation moves exactly this dataset's cache keys
/// and nobody else's.
struct PreparedDb {
    ud: Arc<UnreliableDatabase>,
    hash: u64,
    facts: u64,
    /// `true` when the dataset lives in the persistent store (and is
    /// therefore mutable via `/v1/datasets/{name}/facts`).
    stored: bool,
}

// ---------------------------------------------------------------------------
// Admission queue

struct QueueInner {
    conns: VecDeque<TcpStream>,
    closed: bool,
}

/// Bounded MPMC connection queue with close-and-drain semantics.
struct AdmissionQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    cap: usize,
}

impl AdmissionQueue {
    fn new(cap: usize) -> Self {
        AdmissionQueue {
            inner: Mutex::new(QueueInner {
                conns: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap,
        }
    }

    /// Offer a connection; `Err` hands it back when the queue is full
    /// or closed. `Ok` carries the new depth for the gauge.
    fn try_push(&self, conn: TcpStream) -> Result<usize, TcpStream> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed || inner.conns.len() >= self.cap {
            return Err(conn);
        }
        inner.conns.push_back(conn);
        let depth = inner.conns.len();
        drop(inner);
        self.cv.notify_one();
        Ok(depth)
    }

    /// Block until a connection is available or the queue is closed
    /// *and* drained. Returns the connection plus the remaining depth.
    fn pop(&self) -> Option<(TcpStream, usize)> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(conn) = inner.conns.pop_front() {
                return Some((conn, inner.conns.len()));
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).expect("queue poisoned");
        }
    }

    /// Refuse new work; workers drain what is queued, then exit.
    fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.cv.notify_all();
    }

    /// Current backlog (for the dynamic `Retry-After`).
    fn depth(&self) -> usize {
        self.inner.lock().expect("queue poisoned").conns.len()
    }
}

// ---------------------------------------------------------------------------
// Solve jobs

/// The payload of one scheduled solve: everything [`execute_solve`]
/// needs, fully resolved at admission time so scheduler workers never
/// parse or validate anything.
struct SolveTask {
    ud: Arc<UnreliableDatabase>,
    query: FoQuery,
    method: Method,
    eps: f64,
    delta: f64,
    seed: u64,
    timeout_ms: u64,
    cache_key: CacheKey,
    /// The plan cache's verdict for this query/schema (a safe plan or a
    /// decline), for the methods whose ladder has a plan rung. The
    /// solver's plan rung uses it instead of recompiling.
    plan: Option<PlanHint>,
}

/// The terminal outcome of a solve job: the exact HTTP `(status, body)`
/// the synchronous facade returns, stored once per job group and
/// replayed verbatim by every result fetch — bit-identical responses by
/// construction, coalesced duplicates included.
struct SolveOutcome {
    status: u16,
    body: Vec<u8>,
    /// `X-Qrel-Cache` header value ("hit" or "miss").
    cache: &'static str,
    elapsed_us: u64,
}

/// State the scheduler's executor needs. Kept in its own `Arc`,
/// separate from [`Shared`] (which owns the scheduler), so the executor
/// closure does not create an `Arc` cycle through the scheduler it runs
/// inside.
struct ExecCtx {
    cache: ResultCache,
    /// Compiled safe plans keyed by (query, schema) — db-independent,
    /// so fact mutations never touch it (unlike the result cache).
    plan_cache: PlanCache,
    metrics: Metrics,
    /// Per-method circuit breakers (no-ops when `self_heal` is off).
    breakers: Breakers,
    self_heal: bool,
}

/// Run one solve job on a scheduler worker: budget wired to the job
/// group's cancel token (which the scheduler fires on a client cancel,
/// a watchdog overrun, or a forced drain), breaker accounting, and
/// result caching.
fn execute_solve(ctx: &ExecCtx, task: &SolveTask, job: &JobCtx) -> SolveOutcome {
    // Under concurrent load parallelism comes from the worker pool, not
    // from intra-solve sharding (the answer is identical either way —
    // see `qrel_par`).
    const SOLVER_THREADS: usize = 1;
    let budget = Budget::with_deadline_from_now(Duration::from_millis(task.timeout_ms))
        .with_cancel_token(job.token().clone());
    let reporter = job.progress_reporter();
    let mut solver = Solver::new()
        .with_method(task.method)
        .with_accuracy(task.eps, task.delta)
        .with_seed(task.seed)
        .with_threads(SOLVER_THREADS)
        .with_progress(ProgressHook::new(move |ev| {
            reporter(format!(
                "rung {}/{} {} attempt {}: {}",
                ev.rung + 1,
                ev.of,
                ev.method,
                ev.attempt,
                ev.outcome
                    .as_ref()
                    .map_or_else(|| "started".into(), ToString::to_string)
            ))
        }));
    if !ctx.self_heal {
        solver = solver.with_rung_retries(0);
    }
    if let Some(plan) = &task.plan {
        solver = solver.with_plan_hint(plan.clone());
    }
    let started = Instant::now();
    match solver.solve(&task.ud, &task.query, &budget) {
        Ok(report) => {
            let elapsed = started.elapsed();
            ctx.metrics.record_solve(report.method, elapsed);
            // Breaker accounting: a healed rung panic still answers
            // correctly, but a flapping rung is flapping — it counts
            // toward opening the circuit.
            if report.panicked() {
                ctx.breakers.record_failure(task.method);
            } else {
                ctx.breakers.record_success(task.method);
            }
            let bytes = solve_response_body(&report);
            if !report.is_machine_dependent() {
                ctx.cache
                    .insert(task.cache_key.clone(), Arc::new(bytes.clone()));
            }
            SolveOutcome {
                status: 200,
                body: bytes,
                cache: "miss",
                elapsed_us: elapsed.as_micros() as u64,
            }
        }
        // The solver errors only when *nothing* produced an estimate —
        // an unsupported fragment, a hard eval failure, or a budget too
        // small to start. The request was well-formed JSON, so: 422.
        Err(e) => {
            if matches!(e, QrelError::RungPanic(_)) {
                ctx.breakers.record_failure(task.method);
            } else {
                // Deadline trips, cancellations, and user-fault errors
                // say nothing about the rung's health.
                ctx.breakers.record_neutral(task.method);
            }
            SolveOutcome {
                status: 422,
                body: error_body(422, &e.to_string(), None),
                cache: "miss",
                elapsed_us: started.elapsed().as_micros() as u64,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared state & handle

struct Shared {
    config: ServerConfig,
    /// Live dataset registry. A `RwLock` because fact mutations swap
    /// entries at runtime; solves only ever take the read side.
    datasets: RwLock<HashMap<String, PreparedDb>>,
    /// The persistent store behind the mutable datasets, when `--store`
    /// was given. Commits serialize on the mutex; reads go through the
    /// registry and never touch it.
    store: Option<Mutex<Store>>,
    queue: AdmissionQueue,
    shutdown: AtomicBool,
    /// Ends the acceptor's wait when `shutdown` is set.
    wake: Wake,
    /// Recent connection drain rate, for the dynamic `Retry-After`.
    drain_rate: RateEstimator,
    exec: Arc<ExecCtx>,
    /// The job scheduler every solve — synchronous facade or job API —
    /// runs on.
    sched: Scheduler<SolveTask, SolveOutcome>,
}

/// Cloneable control handle: request shutdown, inspect metrics.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin a graceful shutdown: stop accepting, drain, return from
    /// [`Server::run`].
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.wake();
        self.shared.queue.close();
    }

    /// Rendered Prometheus metrics (same text `/metrics` serves).
    pub fn metrics_text(&self) -> String {
        render_metrics(&self.shared)
    }

    /// The current `/healthz` status string: `ok`, `degraded`, or
    /// `draining`.
    pub fn health(&self) -> &'static str {
        HealthState::derive(
            self.shared.shutdown.load(Ordering::SeqCst),
            self.shared.exec.breakers.any_open(),
        )
        .as_str()
    }

    /// Solves hard-cancelled by the stuck-worker watchdog so far.
    pub fn watchdog_cancels(&self) -> u64 {
        self.shared.exec.metrics.watchdog_cancel_count()
    }
}

/// The full `/metrics` text: core registry, breaker series, scheduler
/// series, and the cache's poison-detection counter.
fn render_metrics(shared: &Shared) -> String {
    let mut text = shared.exec.metrics.render();
    text.push_str(&shared.exec.breakers.render());
    text.push_str(&render_sched(&shared.sched.stats()));
    text.push_str("# HELP qrel_cache_poison_detected_total Cache replies rejected by checksum.\n");
    text.push_str("# TYPE qrel_cache_poison_detected_total counter\n");
    text.push_str(&format!(
        "qrel_cache_poison_detected_total {}\n",
        shared.exec.cache.poison_detected_count()
    ));
    text.push_str("# HELP qrel_plan_cache_hits_total Safe plans served from the plan cache.\n");
    text.push_str("# TYPE qrel_plan_cache_hits_total counter\n");
    text.push_str(&format!(
        "qrel_plan_cache_hits_total {}\n",
        shared.exec.plan_cache.hit_count()
    ));
    text.push_str("# HELP qrel_plan_cache_misses_total Safe plans compiled fresh.\n");
    text.push_str("# TYPE qrel_plan_cache_misses_total counter\n");
    text.push_str(&format!(
        "qrel_plan_cache_misses_total {}\n",
        shared.exec.plan_cache.miss_count()
    ));
    text.push_str(
        "# HELP qrel_plan_unsafe_total Plan lookups that resolved to a provably unsafe query.\n",
    );
    text.push_str("# TYPE qrel_plan_unsafe_total counter\n");
    text.push_str(&format!(
        "qrel_plan_unsafe_total {}\n",
        shared.exec.plan_cache.unsafe_count()
    ));
    if let Some(store) = &shared.store {
        let store = store.lock().expect("store poisoned");
        for (name, help, value) in [
            (
                "qrel_store_segments",
                "Segment files referenced by the store manifest.",
                store.total_segments(),
            ),
            (
                "qrel_store_live_facts",
                "Facts in a non-default state across all stored datasets.",
                store.total_live_facts(),
            ),
            (
                "qrel_store_dead_rows",
                "Shadowed/tombstone segment rows compaction would reclaim.",
                store.total_dead_rows(),
            ),
            (
                "qrel_store_bytes",
                "Total bytes of referenced segment files.",
                store.total_bytes(),
            ),
            (
                "qrel_store_last_commit_ms",
                "Latency of the most recent store commit, in milliseconds.",
                store.last_commit_ms(),
            ),
        ] {
            text.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        }
    }
    text
}

// ---------------------------------------------------------------------------
// Signal handling (std-only: link directly against libc's `signal`)

#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set from the signal handler; the accept loop reads it at least
    /// every `accept::SIGNAL_CHECK`.
    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        // A store on an atomic is async-signal-safe.
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        // libc's signal(2); std already links libc on unix, so this
        // adds no dependency.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: registering an async-signal-safe handler for two
        // standard termination signals.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

/// Register SIGINT/SIGTERM handlers that trigger a graceful shutdown
/// of every server whose accept loop is running in this process.
pub fn install_shutdown_signals() {
    signals::install();
}

// ---------------------------------------------------------------------------
// Server

pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener and preload datasets. The server is not
    /// serving until [`Server::run`] is called.
    pub fn bind(config: ServerConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let mut datasets = HashMap::new();
        for path in &config.preload {
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.display().to_string());
            let prepared = Self::load_dataset(path).map_err(|reason| ServeError::BadDataset {
                path: path.clone(),
                reason,
            })?;
            datasets.insert(name, prepared);
        }
        // Open (or initialize) the persistent store and register every
        // dataset it holds. Store-backed entries shadow a preload of the
        // same name: the durable copy is the source of truth.
        let store = match &config.store {
            Some(dir) => {
                let bad = |reason: String| ServeError::BadStore {
                    path: dir.clone(),
                    reason,
                };
                let store = if qrel_store::manifest::manifest_path(dir).exists() {
                    Store::open(dir).map_err(|e| bad(e.to_string()))?
                } else {
                    Store::init(dir).map_err(|e| bad(e.to_string()))?
                };
                for name in store.dataset_names() {
                    let mut ds = store.load(&name).map_err(|e| bad(e.to_string()))?;
                    let ud = ds.build().map_err(|e| bad(e.to_string()))?;
                    let entry = ds.entry();
                    datasets.insert(
                        name,
                        PreparedDb {
                            ud: Arc::new(ud),
                            hash: entry.db_hash,
                            facts: entry.live_facts,
                            stored: true,
                        },
                    );
                }
                Some(Mutex::new(store))
            }
            None => None,
        };
        let cache = ResultCache::new(config.cache_bytes);
        let queue = AdmissionQueue::new(config.queue_cap.max(1));
        let breakers = Breakers::new(
            if config.self_heal {
                config.breaker_threshold
            } else {
                0
            },
            config.breaker_cooldown,
        );
        let exec = Arc::new(ExecCtx {
            cache,
            plan_cache: PlanCache::new(),
            metrics: Metrics::new(),
            breakers,
            self_heal: config.self_heal,
        });
        // `sched_workers == 0` mirrors the HTTP pool so a facade worker
        // always has a scheduler worker to wait on.
        let sched_workers = if config.sched_workers == 0 {
            config.workers.max(1)
        } else {
            config.sched_workers
        };
        let sched = {
            let exec = Arc::clone(&exec);
            Scheduler::new(
                SchedConfig {
                    workers: sched_workers,
                    per_tenant_cap: config.per_tenant_cap,
                    retain_cap: config.job_retain_cap,
                    reserved_workers: config.reserved_workers,
                },
                move |task: &SolveTask, job: &JobCtx| execute_solve(&exec, task, job),
            )
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                config,
                datasets: RwLock::new(datasets),
                store,
                queue,
                shutdown: AtomicBool::new(false),
                wake: Wake::new()?,
                drain_rate: RateEstimator::new(),
                exec,
                sched,
            }),
        })
    }

    fn load_dataset(path: &PathBuf) -> Result<PreparedDb, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let spec = DecodedSpec::parse(&text).map_err(|e| format!("bad spec JSON: {e}"))?;
        let ud = spec.build().map_err(|e| format!("invalid spec: {e}"))?;
        let hash = db_hash_of(&ud);
        let facts = live_fact_count(&ud);
        Ok(PreparedDb {
            ud: Arc::new(ud),
            hash,
            facts,
            stored: false,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Names of the served datasets (preloaded and store-backed),
    /// sorted.
    pub fn dataset_names(&self) -> Vec<String> {
        let datasets = self.shared.datasets.read().expect("registry poisoned");
        let mut names: Vec<String> = datasets.keys().cloned().collect();
        names.sort();
        names
    }

    /// Serve until shutdown is requested, then drain and return a
    /// [`DrainReport`] saying whether the drain was clean or forced.
    pub fn run(self) -> Result<DrainReport, ServeError> {
        let shared = self.shared;
        let workers: Vec<_> = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qrel-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        // Stuck-worker watchdog: every period, the scheduler hard-cancels
        // any running solve past its hard deadline (budget deadline +
        // one period of slack, see `run_limit`). Cancellation is
        // cooperative — the solve unwinds through the budget's latched
        // trip and still answers — but the watchdog guarantees no
        // request outlives its deadline by more than ~one period, even
        // when an injected stall wedges a rung.
        let stopped = Arc::new(AtomicBool::new(false));
        let watchdog = if shared.config.self_heal && !shared.config.watchdog_period.is_zero() {
            let shared = Arc::clone(&shared);
            let stopped = Arc::clone(&stopped);
            Some(
                std::thread::Builder::new()
                    .name("qrel-watchdog".into())
                    .spawn(move || {
                        while !stopped.load(Ordering::SeqCst) {
                            std::thread::sleep(shared.config.watchdog_period);
                            let shot = shared.sched.cancel_overdue(Instant::now());
                            shared.exec.metrics.record_watchdog_cancels(shot);
                        }
                    })
                    .expect("spawn watchdog"),
            )
        } else {
            None
        };

        // Accept loop. The listener is non-blocking: take every pending
        // connection, then wait in `accept::wait` until the next one
        // lands or `ServerHandle::shutdown` fires the wake, so a request
        // is accepted the moment it arrives and an idle acceptor sleeps.
        loop {
            if shared.shutdown.load(Ordering::SeqCst) || signals::requested() {
                break;
            }
            match self.listener.accept() {
                Ok((conn, _peer)) => match shared.queue.try_push(conn) {
                    Ok(depth) => shared.exec.metrics.set_queue_depth(depth),
                    Err(conn) => reject_connection(&shared, conn),
                },
                Err(e) => match e.kind() {
                    ErrorKind::WouldBlock => {
                        accept::wait(&self.listener, &shared.wake, accept::SIGNAL_CHECK);
                    }
                    // A handshake the client reset, or an interrupted
                    // call: accept again.
                    ErrorKind::ConnectionAborted | ErrorKind::Interrupted => {}
                    // Out of descriptors or memory: the connection stays
                    // pending, so back off instead of spinning on it.
                    _ => std::thread::sleep(accept::ERROR_PAUSE),
                },
            }
        }

        // Drain: refuse new work, let workers finish what was admitted.
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.queue.close();
        let cancels_before_drain = shared.exec.metrics.watchdog_cancel_count();
        let (drained_tx, drained_rx) = std::sync::mpsc::channel::<()>();
        let forced = Arc::new(AtomicBool::new(false));
        let grace_guard = {
            let shared = Arc::clone(&shared);
            let forced = Arc::clone(&forced);
            let grace = shared.config.shutdown_grace;
            std::thread::spawn(move || {
                // Disconnected means the drain finished (the sender is
                // dropped after the workers join); only an actual
                // timeout escalates.
                if matches!(
                    drained_rx.recv_timeout(grace),
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout)
                ) {
                    // The drain is overstaying its welcome: abort the
                    // scheduler, which cancels queued jobs, refuses new
                    // ones and fires every running solve's token; solves
                    // unwind via the latched trip cause and still answer
                    // (degraded).
                    forced.store(true, Ordering::SeqCst);
                    shared.sched.abort();
                }
            })
        };
        for w in workers {
            let _ = w.join();
        }
        // Facade waiters are gone; drain what the job API enqueued.
        // Still under the grace guard: an overdue scheduler drain gets
        // aborted the same way an overdue connection drain does.
        shared.sched.close();
        shared.sched.join();
        drop(drained_tx); // disconnects the grace guard's recv — drain done
        let _ = grace_guard.join();
        stopped.store(true, Ordering::SeqCst);
        if let Some(w) = watchdog {
            let _ = w.join();
        }
        // "Forced" means the drain itself was not clean: the grace
        // period expired, or the watchdog had to shoot in-flight work
        // while draining. Watchdog cancels during normal serving are
        // routine self-healing and do not taint the exit code.
        let watchdog_cancels = shared.exec.metrics.watchdog_cancel_count();
        Ok(DrainReport {
            forced: forced.load(Ordering::SeqCst) || watchdog_cancels > cancels_before_drain,
            watchdog_cancels,
        })
    }
}

/// Dynamic `Retry-After`: connection backlog plus scheduler backlog
/// over the recently observed drain rate, clamped to 1..=30s — a deep
/// queue behind a slow drain tells clients to back off longer than a
/// blip does.
fn retry_after_hint(shared: &Shared) -> u64 {
    compute_retry_after(
        shared.queue.depth() as u64,
        shared.sched.backlog(),
        shared.drain_rate.per_second(),
        shared.config.workers,
    )
}

/// Write the backpressure response in the acceptor thread (bounded
/// work: a fixed ~120-byte write with a short timeout).
fn reject_connection(shared: &Shared, mut conn: TcpStream) {
    use std::io::Read;
    shared.exec.metrics.record_rejected();
    shared.exec.metrics.record_request("other", 429);
    let _ = conn.set_write_timeout(Some(Duration::from_millis(200)));
    let retry_after = retry_after_hint(shared);
    let resp = Response::json(
        429,
        error_body(
            429,
            "admission queue full; retry shortly",
            Some(retry_after),
        ),
    )
    .with_header("Retry-After", retry_after.to_string());
    write_response(&mut conn, &resp);
    // Signal end-of-response, then drain what the client already sent:
    // closing a socket with unread bytes in the receive buffer sends
    // RST, which can destroy the 429 before the client reads it. Both
    // the timeout and the iteration count are small so a trickling
    // client cannot pin the acceptor.
    let _ = conn.shutdown(std::net::Shutdown::Write);
    let _ = conn.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 4096];
    for _ in 0..8 {
        match conn.read(&mut sink) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some((mut conn, depth)) = shared.queue.pop() {
        shared.exec.metrics.set_queue_depth(depth);
        shared.drain_rate.record();
        // Chaos hook: a slow/stalled client connection. Sits in front
        // of `read_request` so the read deadline machinery is what gets
        // exercised, exactly as a real trickling client would.
        if qrel_faults::armed() {
            qrel_faults::maybe_stall(qrel_faults::points::SERVE_CONN_SLOW_READ);
        }
        let req = match read_request(
            &mut conn,
            shared.config.max_body_bytes,
            shared.config.read_timeout,
        ) {
            Ok(req) => req,
            Err(err) => {
                let (status, message) = match &err {
                    HttpError::BadRequest(m) => (400, m.clone()),
                    HttpError::PayloadTooLarge { .. } => (413, err.to_string()),
                    HttpError::Timeout => (408, err.to_string()),
                    HttpError::Io(_) => continue, // socket died; nothing to say
                };
                shared.exec.metrics.record_request("other", status);
                write_response(
                    &mut conn,
                    &Response::json(status, error_body(status, &message, None)),
                );
                continue;
            }
        };
        // A panicking route must never take the worker down with it.
        let path = req.path.clone();
        let resp = catch_unwind(AssertUnwindSafe(|| {
            // Chaos hook: a worker panicking mid-request. Inside the
            // catch so the contract under test is "panic becomes a
            // tagged 500, worker survives".
            if qrel_faults::armed() {
                qrel_faults::maybe_panic(qrel_faults::points::SERVE_WORKER_PANIC);
            }
            route(shared, &req)
        }))
        .unwrap_or_else(|_| Response::json(500, error_body(500, "internal error", None)));
        shared.exec.metrics.record_request(&path, resp.status);
        write_response(&mut conn, &resp);
    }
}

fn route(shared: &Shared, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/metrics") => Response::text(200, render_metrics(shared)),
        ("POST", "/v1/solve") => solve(shared, req),
        ("POST", "/v1/jobs") => job_submit(shared, req),
        ("GET", "/v1/jobs") => job_list(shared, req),
        (_, path) if path.starts_with("/v1/jobs/") => job_instance(shared, req),
        ("GET", "/v1/datasets") => datasets_list(shared),
        (_, path) if path.starts_with("/v1/datasets/") => dataset_facts(shared, req),
        (_, "/healthz")
        | (_, "/metrics")
        | (_, "/v1/solve")
        | (_, "/v1/jobs")
        | (_, "/v1/datasets") => Response::json(405, error_body(405, "method not allowed", None)),
        _ => Response::json(404, error_body(404, "not found", None)),
    }
}

fn healthz(shared: &Shared) -> Response {
    // The registry, not boot-time config, is the source of truth: a
    // dataset mutated (or created) after startup reports its live fact
    // count here.
    let datasets = shared.datasets.read().expect("registry poisoned");
    let mut entries: Vec<(&String, &PreparedDb)> = datasets.iter().collect();
    entries.sort_by_key(|(name, _)| name.as_str());
    let state = HealthState::derive(
        shared.shutdown.load(Ordering::SeqCst),
        shared.exec.breakers.any_open(),
    );
    let body = Value::Object(vec![
        ("status".into(), Value::Str(state.as_str().into())),
        (
            "datasets".into(),
            Value::Array(
                entries
                    .into_iter()
                    .map(|(name, p)| {
                        Value::Object(vec![
                            ("name".into(), Value::Str(name.clone())),
                            ("facts".into(), Value::Int(p.facts as i128)),
                            ("stored".into(), Value::Bool(p.stored)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("workers".into(), Value::Int(shared.config.workers as i128)),
        (
            "queue_cap".into(),
            Value::Int(shared.config.queue_cap as i128),
        ),
    ]);
    Response::json(
        200,
        serde_json::to_string(&body)
            .expect("value serialization is infallible")
            .into_bytes(),
    )
}

/// What admission produced for a solve-shaped request: a cache hit
/// served without touching the scheduler, or a fully resolved task
/// ready to enqueue (plus its coalesce key).
#[allow(clippy::large_enum_variant)] // short-lived; one per admitted request
enum Admitted {
    Hit(Arc<Vec<u8>>),
    Enqueue { task: SolveTask, key: u64 },
}

struct SolveAdmission {
    tenant: String,
    priority: Priority,
    outcome: Admitted,
    /// Plan-cache consultation outcome, when the method involves the
    /// plan rung and a solve is actually enqueued (`X-Qrel-Plan`).
    plan: Option<PlanStatus>,
}

/// Schema fingerprint for the plan-cache key: relation symbols in
/// declaration order, e.g. `"S/1,T/1,E/2"`. Declaration order is stable
/// for a given spec, and two schemas that differ in any name or arity
/// must not share plan entries (arity errors surface at eval time).
fn schema_fingerprint(ud: &UnreliableDatabase) -> String {
    ud.observed()
        .vocabulary()
        .symbols()
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// The shared front half of `POST /v1/solve` and `POST /v1/jobs`:
/// parse, resolve the database, canonicalize the query, consult the
/// cache and the breakers. `Err` carries the finished error response.
fn admit_solve(shared: &Shared, req: &Request) -> Result<SolveAdmission, Response> {
    let limits = ParseLimits {
        max_depth: 64,
        max_bytes: shared.config.max_body_bytes,
    };
    let sreq = match parse_solve_request(&req.body, limits) {
        Ok(r) => r,
        Err(m) => return Err(Response::json(400, error_body(400, &m, None))),
    };

    // Tenant scoping: the request body wins, then the `X-Qrel-Tenant`
    // header, then the shared default bucket.
    let tenant = match sreq
        .tenant
        .clone()
        .or_else(|| req.header("x-qrel-tenant").map(str::to_string))
    {
        Some(t) => {
            if t.is_empty() || t.len() > 64 {
                return Err(Response::json(
                    400,
                    error_body(400, "tenant must be 1..=64 characters", None),
                ));
            }
            t
        }
        None => "default".to_string(),
    };

    // Resolve the database: preloaded or stored (hash already computed)
    // or inline (built and hashed per request, with the same db-hash).
    let (ud, db_hash): (Arc<UnreliableDatabase>, u64) = match &sreq.db {
        DbRef::Named(name) => {
            let datasets = shared.datasets.read().expect("registry poisoned");
            match datasets.get(name) {
                Some(p) => (Arc::clone(&p.ud), p.hash),
                None => {
                    let mut known: Vec<&String> = datasets.keys().collect();
                    known.sort();
                    return Err(Response::json(
                        400,
                        error_body(
                            400,
                            &format!("unknown dataset {name:?} (loaded: {known:?})"),
                            None,
                        ),
                    ));
                }
            }
        }
        DbRef::Inline(spec) => match spec.build() {
            Ok(b) => {
                let hash = db_hash_of(&b);
                (Arc::new(b), hash)
            }
            Err(e) => {
                return Err(Response::json(
                    400,
                    error_body(400, &format!("invalid spec: {e}"), None),
                ))
            }
        },
    };

    // Canonicalize the query exactly the way the CLI does, so the same
    // logical query always maps to the same cache key.
    let formula = match qrel_logic::parser::parse_formula(&sreq.query) {
        Ok(f) => f,
        Err(e) => {
            return Err(Response::json(
                400,
                error_body(400, &format!("bad query: {e}"), None),
            ))
        }
    };
    let free = match &sreq.free {
        Some(f) => f.clone(),
        None => formula.free_vars(),
    };
    {
        let mut sorted = free.clone();
        sorted.sort();
        if sorted != formula.free_vars() {
            return Err(Response::json(
                400,
                error_body(
                    400,
                    &format!(
                        "\"free\" {:?} does not match the query's free variables {:?}",
                        free,
                        formula.free_vars()
                    ),
                    None,
                ),
            ));
        }
    }
    let cache_key = CacheKey {
        db_hash,
        query: formula.to_string(),
        free: free.clone(),
        method: sreq.method.to_string(),
        eps_bits: crate::cache::canonical_f64_bits(sreq.eps),
        delta_bits: crate::cache::canonical_f64_bits(sreq.delta),
        seed: sreq.seed,
    };

    if let Some(hit) = shared.exec.cache.get(&cache_key) {
        shared.exec.metrics.record_cache(true);
        return Ok(SolveAdmission {
            tenant,
            priority: sreq.priority,
            outcome: Admitted::Hit(hit),
            plan: None,
        });
    }
    shared.exec.metrics.record_cache(false);

    // Consult the plan cache for the methods whose ladder includes the
    // plan rung. Declines are cached too ("unsafe"); the solver then
    // skips the rung with the cached reason, without recompiling.
    let (plan, plan_status) = if matches!(sreq.method, Method::Auto | Method::Plan) {
        let schema = schema_fingerprint(&ud);
        let (outcome, status) =
            shared
                .exec
                .plan_cache
                .get_or_compile(&cache_key.query, &schema, || qrel_plan::compile(&formula));
        (Some(PlanHint(outcome)), Some(status))
    } else {
        (None, None)
    };

    // Circuit breaker: while this method's rung is known-bad, refuse up
    // front with 503 instead of burning a scheduler slot on it. (Cache
    // hits are served above regardless — they involve no solve.)
    if let Admission::Rejected { retry_after_secs } = shared.exec.breakers.admit(sreq.method) {
        return Err(Response::json(
            503,
            error_body(
                503,
                &format!(
                    "circuit open for method \"{}\"; retry shortly",
                    sreq.method.name()
                ),
                Some(retry_after_secs),
            ),
        )
        .with_header("Retry-After", retry_after_secs.to_string()));
    }

    let timeout_ms = sreq.timeout_ms.unwrap_or(shared.config.default_timeout_ms);
    // The cache key's stable fingerprint doubles as the coalesce key:
    // cache-equivalent requests in flight at the same time share one
    // execution and one stored result.
    let key = cache_key.fingerprint();
    Ok(SolveAdmission {
        tenant,
        priority: sreq.priority,
        outcome: Admitted::Enqueue {
            task: SolveTask {
                ud,
                query: FoQuery::with_free_order(formula, free),
                method: sreq.method,
                eps: sreq.eps,
                delta: sreq.delta,
                seed: sreq.seed,
                timeout_ms,
                cache_key,
                plan,
            },
            key,
        },
        plan: plan_status,
    })
}

/// Map a scheduler submit rejection onto the wire: per-tenant
/// saturation is backpressure (429 + dynamic `Retry-After`), a draining
/// scheduler is 503.
fn submit_error_response(shared: &Shared, err: &SubmitError) -> Response {
    match err {
        SubmitError::QueueFull { .. } => {
            shared.exec.metrics.record_rejected();
            let retry_after = retry_after_hint(shared);
            Response::json(429, error_body(429, &err.to_string(), Some(retry_after)))
                .with_header("Retry-After", retry_after.to_string())
        }
        SubmitError::Closed => Response::json(503, error_body(503, &err.to_string(), Some(1)))
            .with_header("Retry-After", "1"),
    }
}

/// How long a solve may run before the watchdog's
/// [`Scheduler::cancel_overdue`] shoots it: the request's budget
/// deadline plus one watchdog period of slack, so a solve legitimately
/// degrading *at* its deadline is never shot.
fn run_limit(shared: &Shared, task: &SolveTask) -> Option<Duration> {
    Some(Duration::from_millis(task.timeout_ms) + shared.config.watchdog_period)
}

/// Replay a stored [`SolveOutcome`] as the HTTP response (used by the
/// facade and `GET /v1/jobs/{id}/result`). The body is the stored bytes
/// verbatim — bit-identical across fetches by construction.
fn outcome_response(outcome: &SolveOutcome) -> Response {
    Response::json(outcome.status, outcome.body.clone())
        .with_header("X-Qrel-Cache", outcome.cache)
        .with_header("X-Qrel-Elapsed-Us", outcome.elapsed_us.to_string())
}

/// `POST /v1/solve`: the synchronous facade over the job scheduler —
/// admit, then [`Scheduler::run`]: enqueue (coalescing with any
/// equivalent in-flight job) and block until the job is terminal, its
/// record pinned against retention eviction until read. Existing
/// clients see exactly the old contract, bit-identical bodies included.
fn solve(shared: &Shared, req: &Request) -> Response {
    let admission = match admit_solve(shared, req) {
        Ok(a) => a,
        Err(resp) => return resp,
    };
    let (task, key) = match admission.outcome {
        Admitted::Hit(hit) => {
            return Response::json(200, hit.as_ref().clone())
                .with_header("X-Qrel-Cache", "hit")
                .with_header("X-Qrel-Elapsed-Us", "0")
        }
        Admitted::Enqueue { task, key } => (task, key),
    };
    let snap = match shared.sched.run(
        &admission.tenant,
        admission.priority,
        Some(key),
        run_limit(shared, &task),
        task,
    ) {
        Ok(s) => s,
        Err(e) => return submit_error_response(shared, &e),
    };
    match snap.state {
        JobState::Done => {
            let resp = outcome_response(&snap.result.expect("done job has a result"));
            match admission.plan {
                Some(status) => resp.with_header("X-Qrel-Plan", status.as_str()),
                None => resp,
            }
        }
        JobState::Cancelled => Response::json(
            503,
            error_body(
                503,
                "job cancelled while the server was shutting down",
                None,
            ),
        ),
        // `run` returns only terminal snapshots, so this is `Failed`.
        _ => Response::json(
            500,
            error_body(500, snap.error.as_deref().unwrap_or("job failed"), None),
        ),
    }
}

/// Tenant scoping for job routes without a request body: the
/// `X-Qrel-Tenant` header or the shared default bucket.
fn header_tenant(req: &Request) -> String {
    match req.header("x-qrel-tenant") {
        Some(t) if !t.is_empty() => t.to_string(),
        _ => "default".to_string(),
    }
}

/// `POST /v1/jobs`: enqueue asynchronously and return a receipt. A
/// cache hit still creates a job record (born `done`, result stored) so
/// the client's poll loop is uniform.
fn job_submit(shared: &Shared, req: &Request) -> Response {
    let admission = match admit_solve(shared, req) {
        Ok(a) => a,
        Err(resp) => return resp,
    };
    let submitted = match admission.outcome {
        Admitted::Hit(hit) => shared.sched.submit_completed(
            &admission.tenant,
            admission.priority,
            Arc::new(SolveOutcome {
                status: 200,
                body: hit.as_ref().clone(),
                cache: "hit",
                elapsed_us: 0,
            }),
        ),
        Admitted::Enqueue { task, key } => shared.sched.submit(
            &admission.tenant,
            admission.priority,
            Some(key),
            run_limit(shared, &task),
            task,
        ),
    };
    match submitted {
        Ok(sub) => {
            let state = shared
                .sched
                .status(&admission.tenant, sub.job_id)
                .map(|s| s.state.name())
                .unwrap_or("queued");
            Response::json(202, job_accepted_body(sub.job_id, sub.coalesced, state))
        }
        Err(e) => submit_error_response(shared, &e),
    }
}

/// `/v1/jobs/{id}` and `/v1/jobs/{id}/result`: parse the id, dispatch
/// on method and suffix.
fn job_instance(shared: &Shared, req: &Request) -> Response {
    let rest = &req.path["/v1/jobs/".len()..];
    let (id_text, want_result) = match rest.strip_suffix("/result") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let id: u64 = match id_text.parse() {
        Ok(id) => id,
        Err(_) => {
            return Response::json(
                404,
                error_body(404, &format!("no such job {id_text:?}"), None),
            )
        }
    };
    let tenant = header_tenant(req);
    match (req.method.as_str(), want_result) {
        ("GET", false) => job_status(shared, &tenant, id),
        ("GET", true) => job_result(shared, &tenant, id),
        ("DELETE", false) => job_cancel(shared, &tenant, id),
        _ => Response::json(405, error_body(405, "method not allowed", None)),
    }
}

/// The envelope embedded in a job-status body for terminal failures.
fn job_error_envelope(state: JobState, detail: Option<&str>) -> Option<ErrorEnvelope> {
    match state {
        JobState::Failed => Some(ErrorEnvelope {
            code: "internal".into(),
            message: detail.unwrap_or("job failed").into(),
            retryable: true,
            retry_after_ms: None,
        }),
        JobState::Cancelled => Some(ErrorEnvelope {
            code: "cancelled".into(),
            message: detail.unwrap_or("job cancelled").into(),
            retryable: false,
            retry_after_ms: None,
        }),
        _ => None,
    }
}

fn job_status(shared: &Shared, tenant: &str, id: u64) -> Response {
    let snap = match shared.sched.status(tenant, id) {
        Some(s) => s,
        None => return Response::json(404, error_body(404, &format!("no such job {id}"), None)),
    };
    let env = job_error_envelope(snap.state, snap.error.as_deref());
    let body = job_status_body(
        snap.id,
        &snap.tenant,
        snap.state.name(),
        snap.priority.name(),
        snap.coalesced,
        &snap.progress,
        snap.result.as_ref().map(|o| (o.status, o.body.as_slice())),
        env.as_ref(),
    );
    Response::json(200, body)
}

/// `GET /v1/jobs/{id}/result`: replay the stored outcome exactly as the
/// synchronous facade would have returned it.
fn job_result(shared: &Shared, tenant: &str, id: u64) -> Response {
    let snap = match shared.sched.status(tenant, id) {
        Some(s) => s,
        None => return Response::json(404, error_body(404, &format!("no such job {id}"), None)),
    };
    match snap.state {
        JobState::Done => outcome_response(&snap.result.expect("done job has a result")),
        JobState::Failed => Response::json(
            500,
            error_body(500, snap.error.as_deref().unwrap_or("job failed"), None),
        ),
        JobState::Cancelled => Response::json(
            409,
            error_body(409, snap.error.as_deref().unwrap_or("job cancelled"), None),
        ),
        JobState::Queued | JobState::Running => Response::json(
            409,
            ErrorEnvelope {
                code: "not_ready".into(),
                message: format!("job {id} is {}; poll again shortly", snap.state.name()),
                retryable: true,
                retry_after_ms: Some(1000),
            }
            .to_body(),
        )
        .with_header("Retry-After", "1"),
    }
}

fn job_cancel(shared: &Shared, tenant: &str, id: u64) -> Response {
    match shared.sched.cancel(tenant, id) {
        CancelOutcome::Cancelled => Response::json(200, job_accepted_body(id, false, "cancelled")),
        CancelOutcome::AlreadyTerminal(state) => Response::json(
            409,
            error_body(409, &format!("job {id} already {}", state.name()), None),
        ),
        CancelOutcome::NotFound => {
            Response::json(404, error_body(404, &format!("no such job {id}"), None))
        }
    }
}

fn job_list(shared: &Shared, req: &Request) -> Response {
    let tenant = header_tenant(req);
    let items: Vec<(u64, String, String, bool)> = shared
        .sched
        .list(&tenant)
        .into_iter()
        .map(|s| {
            (
                s.id,
                s.state.name().to_string(),
                s.priority.name().to_string(),
                s.coalesced,
            )
        })
        .collect();
    Response::json(200, job_list_body(&tenant, &items))
}

// ---------------------------------------------------------------------------
// Dataset routes (persistent store)

/// `GET /v1/datasets`: every served dataset with its live aggregates
/// and db-hash (hex, so clients can watch cache keys move).
fn datasets_list(shared: &Shared) -> Response {
    let datasets = shared.datasets.read().expect("registry poisoned");
    let mut entries: Vec<(&String, &PreparedDb)> = datasets.iter().collect();
    entries.sort_by_key(|(name, _)| name.as_str());
    let body = Value::Object(vec![(
        "datasets".into(),
        Value::Array(
            entries
                .into_iter()
                .map(|(name, p)| {
                    Value::Object(vec![
                        ("name".into(), Value::Str(name.clone())),
                        ("facts".into(), Value::Int(p.facts as i128)),
                        ("db_hash".into(), Value::Str(format!("{:016x}", p.hash))),
                        ("stored".into(), Value::Bool(p.stored)),
                    ])
                })
                .collect(),
        ),
    )]);
    Response::json(
        200,
        serde_json::to_string(&body)
            .expect("value serialization is infallible")
            .into_bytes(),
    )
}

/// Map a store failure onto the wire. Validation problems are the
/// client's (400), a missing dataset is 404, and I/O, corruption, or an
/// injected fault is a tagged 500 — retryable, since the commit left
/// the manifest untouched.
fn store_error_response(e: &StoreError) -> Response {
    let status = match e {
        StoreError::UnknownDataset(_) => 404,
        StoreError::DatasetExists(_) => 409,
        StoreError::Invalid(_) => 400,
        StoreError::Io(_) | StoreError::Corrupt(_) | StoreError::Injected(_) => 500,
    };
    Response::json(status, error_body(status, &e.to_string(), None))
}

/// Parse a fact-mutation batch: `{"facts":[{"relation":…,"tuple":[…],
/// "present":…,"mu":…}]}`, its rows read by [`FactRows`]. Deletes
/// (`delete == true`) take only `relation` and `tuple` and become Reset
/// tombstones.
fn parse_fact_batch(
    body: &[u8],
    limits: ParseLimits,
    delete: bool,
) -> Result<Vec<Mutation>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let shape = if delete {
        RowShape::Delete
    } else {
        RowShape::Upsert
    };
    let rows = decode_text(text, limits, |r| {
        let mut facts = None;
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            if key != "facts" {
                return Err(DecodeError::Spec(format!("unknown field {key:?}")));
            }
            facts = Some(member(r, |r| FactRows::read(r, shape))?);
        }
        match facts {
            Some(rows) => rows.map_err(|m| DecodeError::Spec(format!("facts: {m}"))),
            None => Err(DecodeError::Spec("missing array field \"facts\"".into())),
        }
    })
    .map_err(|e| match e {
        DecodeError::Json(e) => format!("bad JSON: {e}"),
        DecodeError::Spec(m) => m,
    })?;
    Ok(rows
        .iter()
        .map(|row| match row.present {
            Some(present) => Mutation::set(row.relation, row.tuple.to_vec(), present, row.mu),
            None => Mutation::reset(row.relation, row.tuple.to_vec()),
        })
        .collect())
}

/// `POST`/`DELETE /v1/datasets/{name}/facts`: batched fact mutations
/// against the persistent store. The batch commits atomically (one
/// segment, one manifest publish); on success the in-memory registry
/// entry is swapped for a rebuild, so subsequent solves see the new
/// model under its new db-hash — old cache entries for this dataset
/// become unreachable, every other dataset's entries are untouched.
fn dataset_facts(shared: &Shared, req: &Request) -> Response {
    let rest = &req.path["/v1/datasets/".len()..];
    let name = match rest.strip_suffix("/facts") {
        Some(n) if !n.is_empty() && !n.contains('/') => n,
        _ => return Response::json(404, error_body(404, "not found", None)),
    };
    let delete = match req.method.as_str() {
        "POST" => false,
        "DELETE" => true,
        _ => return Response::json(405, error_body(405, "method not allowed", None)),
    };
    let store = match &shared.store {
        Some(s) => s,
        None => {
            return Response::json(
                409,
                error_body(
                    409,
                    "server has no persistent store; start it with --store to mutate facts",
                    None,
                ),
            )
        }
    };
    let limits = ParseLimits {
        max_depth: 64,
        max_bytes: shared.config.max_body_bytes,
    };
    let batch = match parse_fact_batch(&req.body, limits, delete) {
        Ok(b) => b,
        Err(m) => return Response::json(400, error_body(400, &m, None)),
    };
    // Commit and rebuild under the store lock so two racing batches
    // cannot interleave their registry swaps out of commit order.
    let (stats, ud) = {
        let mut store = store.lock().expect("store poisoned");
        let stats = match store.commit(name, &batch) {
            Ok(s) => s,
            Err(e) => return store_error_response(&e),
        };
        let ud = match store.load(name).and_then(|mut ds| ds.build()) {
            Ok(ud) => ud,
            Err(e) => return store_error_response(&e),
        };
        (stats, ud)
    };
    {
        let mut datasets = shared.datasets.write().expect("registry poisoned");
        datasets.insert(
            name.to_string(),
            PreparedDb {
                ud: Arc::new(ud),
                hash: stats.db_hash,
                facts: stats.live_facts,
                stored: true,
            },
        );
    }
    let body = Value::Object(vec![
        ("dataset".into(), Value::Str(name.to_string())),
        ("rows".into(), Value::Int(stats.rows as i128)),
        ("live_facts".into(), Value::Int(stats.live_facts as i128)),
        (
            "db_hash".into(),
            Value::Str(format!("{:016x}", stats.db_hash)),
        ),
        (
            "segment".into(),
            match &stats.segment {
                Some(s) => Value::Str(s.clone()),
                None => Value::Null,
            },
        ),
    ]);
    Response::json(
        200,
        serde_json::to_string(&body)
            .expect("value serialization is infallible")
            .into_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrel_prob::UnreliableDatabaseSpec;
    use std::io::{Read, Write};

    /// Raw one-shot HTTP client against a local server.
    fn http(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &str,
    ) -> (u16, Vec<(String, String)>, String) {
        http_with(addr, method, path, &[], body)
    }

    /// Like [`http`] but with extra request headers (tenant scoping).
    fn http_with(
        addr: SocketAddr,
        method: &str,
        path: &str,
        extra: &[(&str, &str)],
        body: &str,
    ) -> (u16, Vec<(String, String)>, String) {
        let mut conn = TcpStream::connect(addr).unwrap();
        let extra_lines: String = extra.iter().map(|(k, v)| format!("{k}: {v}\r\n")).collect();
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\n{extra_lines}Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        conn.write_all(req.as_bytes()).unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("complete response");
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .unwrap()
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let headers = lines
            .filter_map(|l| l.split_once(": "))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        (status, headers, body.to_string())
    }

    fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
        headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn boot(config: ServerConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..config
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || {
            server.run().unwrap();
        });
        (addr, handle, join)
    }

    fn boot_drain(
        config: ServerConfig,
    ) -> (
        SocketAddr,
        ServerHandle,
        std::thread::JoinHandle<DrainReport>,
    ) {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..config
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().unwrap());
        (addr, handle, join)
    }

    fn example_config() -> ServerConfig {
        ServerConfig {
            workers: 2,
            preload: vec![PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../data/example.json"
            ))],
            ..ServerConfig::default()
        }
    }

    /// Extract an unsigned integer JSON field from a flat body.
    fn json_u64(body: &str, field: &str) -> u64 {
        let tag = format!("\"{field}\":");
        let at = body
            .find(&tag)
            .unwrap_or_else(|| panic!("no {field:?} in {body}"))
            + tag.len();
        body[at..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap()
    }

    /// Poll `GET /v1/jobs/{id}` until the job is terminal.
    fn poll_job(
        addr: SocketAddr,
        headers: &[(&str, &str)],
        id: u64,
    ) -> (u16, Vec<(String, String)>, String) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (s, h, b) = http_with(addr, "GET", &format!("/v1/jobs/{id}"), headers, "");
            assert_eq!(s, 200, "{b}");
            if ["done", "failed", "cancelled"]
                .iter()
                .any(|t| b.contains(&format!("\"state\":\"{t}\"")))
            {
                return (s, h, b);
            }
            assert!(Instant::now() < deadline, "job {id} never terminal: {b}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn healthz_and_metrics_respond() {
        // Hold the fault session so a concurrently running
        // fault-armed test cannot inject into this server.
        let _quiet = qrel_faults::quiesce();
        let (addr, handle, join) = boot(example_config());
        let (status, _, body) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("example"), "{body}");
        let (status, _, text) = http(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(text.contains("qrel_http_requests_total"), "{text}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn solve_and_cache_round_trip() {
        // Hold the fault session so a concurrently running
        // fault-armed test cannot inject into this server.
        let _quiet = qrel_faults::quiesce();
        let (addr, handle, join) = boot(example_config());
        let body = r#"{"dataset":"example","query":"exists x. Admin(x)","method":"exact"}"#;
        let (s1, h1, b1) = http(addr, "POST", "/v1/solve", body);
        assert_eq!(s1, 200, "{b1}");
        assert_eq!(header(&h1, "X-Qrel-Cache"), Some("miss"));
        assert!(b1.contains("\"exact\":"), "{b1}");
        let (s2, h2, b2) = http(addr, "POST", "/v1/solve", body);
        assert_eq!(s2, 200);
        assert_eq!(header(&h2, "X-Qrel-Cache"), Some("hit"));
        assert_eq!(b1, b2, "cached body must be byte-identical");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn unknown_paths_and_methods() {
        // Hold the fault session so a concurrently running
        // fault-armed test cannot inject into this server.
        let _quiet = qrel_faults::quiesce();
        let (addr, handle, join) = boot(example_config());
        assert_eq!(http(addr, "GET", "/nope", "").0, 404);
        assert_eq!(http(addr, "GET", "/v1/solve", "").0, 405);
        assert_eq!(http(addr, "POST", "/healthz", "").0, 405);
        assert_eq!(http(addr, "POST", "/v1/solve", "not json").0, 400);
        handle.shutdown();
        join.join().unwrap();
    }

    /// A request guaranteed to occupy a worker for ~`timeout_ms`: a
    /// forced exact enumeration over 2^28 worlds cannot finish, so its
    /// deadline trips and the ladder answers with a partial (200).
    fn slow_solve_body(timeout_ms: u64, seed: u64) -> String {
        let names: Vec<String> = (0..28).map(|i| format!("\"e{i}\"")).collect();
        let tuples: Vec<String> = (0..28).map(|i| format!("[{i}]")).collect();
        let errors: Vec<String> = (0..28)
            .map(|i| format!("{{\"relation\":\"S\",\"tuple\":[{i}],\"mu\":\"1/2\"}}"))
            .collect();
        format!(
            "{{\"db\":{{\"database\":{{\"vocab\":{{\"symbols\":[{{\"name\":\"S\",\"arity\":1}}]}},\
             \"universe\":{{\"names\":[{}]}},\
             \"relations\":[{{\"arity\":1,\"tuples\":[{}]}}]}},\
             \"model\":\"full\",\"errors\":[{}]}},\
             \"query\":\"exists x. S(x)\",\"method\":\"exact\",\
             \"timeout_ms\":{timeout_ms},\"seed\":{seed}}}",
            names.join(","),
            tuples.join(","),
            errors.join(",")
        )
    }

    #[test]
    fn graceful_shutdown_drains_in_flight_requests() {
        // Hold the fault session so a concurrently running
        // fault-armed test cannot inject into this server.
        let _quiet = qrel_faults::quiesce();
        // One worker so the in-flight request is unambiguous.
        let (addr, handle, join) = boot(ServerConfig {
            workers: 1,
            ..example_config()
        });
        let slow =
            std::thread::spawn(move || http(addr, "POST", "/v1/solve", &slow_solve_body(400, 0)));
        std::thread::sleep(Duration::from_millis(100));
        handle.shutdown();
        // The in-flight request still completes with an answer.
        let (status, _, body) = slow.join().unwrap();
        assert_eq!(status, 200, "{body}");
        join.join().unwrap();
    }

    #[test]
    fn backpressure_rejects_with_429_when_saturated() {
        // Hold the fault session so a concurrently running
        // fault-armed test cannot inject into this server.
        let _quiet = qrel_faults::quiesce();
        let (addr, handle, join) = boot(ServerConfig {
            workers: 1,
            queue_cap: 1,
            ..example_config()
        });
        // Six near-simultaneous slow solves against one worker and one
        // queue slot: at most two are admitted before the first solve's
        // ~800ms deadline trips, so several must be turned away with
        // 429 regardless of accept interleaving.
        let clients: Vec<_> = (0..6)
            .map(|i| {
                std::thread::spawn(move || {
                    http(addr, "POST", "/v1/solve", &slow_solve_body(800, i))
                })
            })
            .collect();
        let results: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let rejected = results.iter().filter(|(s, _, _)| *s == 429).count();
        let served = results.iter().filter(|(s, _, _)| *s == 200).count();
        assert!(
            rejected >= 1,
            "never saw a 429 under saturation: {results:?}"
        );
        assert!(served >= 1, "nothing was served: {results:?}");
        for (status, headers, _) in &results {
            if *status == 429 {
                // Retry-After is computed from queue depth and drain
                // rate, not hardcoded; the contract is the clamp range.
                let secs: u64 = header(headers, "Retry-After")
                    .expect("429 carries Retry-After")
                    .parse()
                    .expect("Retry-After is an integer");
                assert!((1..=30).contains(&secs), "Retry-After = {secs}");
            }
        }
        handle.shutdown();
        join.join().unwrap();
        // The rejection is visible in the metrics text.
        assert!(handle.metrics_text().contains("qrel_rejected_total"));
        assert!(handle.shared.exec.metrics.rejected_count() >= 1);
    }

    #[test]
    fn worker_panic_fault_becomes_tagged_500_and_worker_survives() {
        let plan = qrel_faults::FaultPlan::new(0xFA17).with_rule(
            qrel_faults::points::SERVE_WORKER_PANIC,
            1.0,
            0,
            2, // exactly the first two requests panic
        );
        let guard = plan.arm();
        let (addr, handle, join) = boot(ServerConfig {
            workers: 1,
            ..example_config()
        });
        // Both injected panics come back as explicit 500s...
        assert_eq!(http(addr, "GET", "/healthz", "").0, 500);
        assert_eq!(http(addr, "GET", "/healthz", "").0, 500);
        // ...and the single worker is still alive to serve the third.
        let (status, _, body) = http(addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "{body}");
        drop(guard);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn persistent_rung_panics_open_the_circuit_and_healthz_degrades() {
        let plan = qrel_faults::FaultPlan::new(0xB12E).with_rule(
            &qrel_faults::points::rung_panic("exact"),
            1.0,
            0,
            0,
        );
        let _guard = plan.arm();
        let (addr, handle, join) = boot(ServerConfig {
            workers: 1,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(60),
            ..example_config()
        });
        // Retries are exhausted by the always-on panic fault, the exact
        // rung has no fallback under a forced method, so each request
        // fails; two of them trip the breaker.
        let body = r#"{"dataset":"example","query":"exists x. Admin(x)","method":"exact"}"#;
        for want_seed in 0..2u64 {
            let body = format!(
                r#"{{"dataset":"example","query":"exists x. Admin(x)","method":"exact","seed":{want_seed}}}"#
            );
            let (status, _, resp) = http(addr, "POST", "/v1/solve", &body);
            assert_eq!(status, 422, "{resp}");
            assert!(resp.contains("panicked"), "{resp}");
        }
        // Circuit open: refused up front with 503 + Retry-After.
        let (status, headers, resp) = http(addr, "POST", "/v1/solve", body);
        assert_eq!(status, 503, "{resp}");
        assert!(header(&headers, "Retry-After").is_some());
        assert!(resp.contains("circuit open"), "{resp}");
        // The health surface reflects it.
        let (_, _, health) = http(addr, "GET", "/healthz", "");
        assert!(health.contains("\"status\":\"degraded\""), "{health}");
        assert_eq!(handle.health(), "degraded");
        // Other methods are unaffected by the exact rung's circuit.
        let (status, _, resp) = http(
            addr,
            "POST",
            "/v1/solve",
            r#"{"dataset":"example","query":"exists x. Admin(x)","method":"mc"}"#,
        );
        assert_eq!(status, 200, "{resp}");
        let metrics = handle.metrics_text();
        assert!(
            metrics.contains("qrel_circuit_state{method=\"exact\"} 1"),
            "{metrics}"
        );
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn watchdog_hard_cancels_a_stuck_solve() {
        // A 900ms injected stall inside the exact rung wedges the solve
        // well past its 100ms deadline; the watchdog (50ms period) must
        // shoot it, and the request still gets an answer instead of
        // hanging until the stall ends... the stall itself is not
        // interruptible, but the budget observes the cancellation at
        // the next probe, so the response arrives right after.
        let plan = qrel_faults::FaultPlan::new(0x57A1).with_rule(
            &qrel_faults::points::rung_stall("exact"),
            1.0,
            900,
            1,
        );
        let _guard = plan.arm();
        let (addr, handle, join) = boot_drain(ServerConfig {
            workers: 1,
            watchdog_period: Duration::from_millis(50),
            ..example_config()
        });
        let started = Instant::now();
        let (status, _, body) = http(
            addr,
            "POST",
            "/v1/solve",
            r#"{"dataset":"example","query":"exists x. Admin(x)","method":"exact","timeout_ms":100}"#,
        );
        let elapsed = started.elapsed();
        // The answer is an explicit outcome (degraded 200 or tagged
        // 422), never a hang: the stall bounds the response time.
        assert!(status == 200 || status == 422, "{status}: {body}");
        assert!(elapsed < Duration::from_secs(5), "request took {elapsed:?}");
        assert!(handle.watchdog_cancels() >= 1, "watchdog never fired");
        handle.shutdown();
        let report = join.join().unwrap();
        assert_eq!(report.watchdog_cancels, handle.watchdog_cancels());
        // The cancel happened during serving, not during the drain.
        assert!(!report.forced, "{report:?}");
    }

    #[test]
    fn clean_drain_reports_unforced() {
        // Hold the fault session so a concurrently running
        // fault-armed test cannot inject into this server.
        let _quiet = qrel_faults::quiesce();
        let (addr, handle, join) = boot_drain(example_config());
        assert_eq!(http(addr, "GET", "/healthz", "").0, 200);
        handle.shutdown();
        let report = join.join().unwrap();
        assert!(!report.forced);
        assert_eq!(report.watchdog_cancels, 0);
    }

    #[test]
    fn self_heal_off_disables_breakers_and_watchdog() {
        let plan = qrel_faults::FaultPlan::new(0x0FF).with_rule(
            &qrel_faults::points::rung_panic("exact"),
            1.0,
            0,
            0,
        );
        let _guard = plan.arm();
        let (addr, handle, join) = boot(ServerConfig {
            workers: 1,
            self_heal: false,
            breaker_threshold: 1,
            ..example_config()
        });
        // Every request fails (no retries), but the breaker never
        // opens: the "before" arm keeps failing loudly instead.
        let body = r#"{"dataset":"example","query":"exists x. Admin(x)","method":"exact"}"#;
        for _ in 0..3 {
            let (status, _, resp) = http(addr, "POST", "/v1/solve", body);
            assert_eq!(status, 422, "{resp}");
        }
        let (_, _, health) = http(addr, "GET", "/healthz", "");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn job_round_trip_result_is_bit_identical_and_replayable() {
        let _quiet = qrel_faults::quiesce();
        let (addr, handle, join) = boot(example_config());
        let body =
            r#"{"dataset":"example","query":"exists x. Admin(x)","method":"exact","seed":7}"#;
        let (s, _, accepted) = http(addr, "POST", "/v1/jobs", body);
        assert_eq!(s, 202, "{accepted}");
        let id = json_u64(&accepted, "job_id");
        assert!(accepted.contains("\"coalesced\":false"), "{accepted}");
        let (_, _, status) = poll_job(addr, &[], id);
        assert!(status.contains("\"state\":\"done\""), "{status}");
        assert!(status.contains("\"result\":{\"status\":200,"), "{status}");
        assert!(status.contains("\"error\":null"), "{status}");
        // The stored result replays bit-identically on every fetch...
        let (s1, h1, r1) = http(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
        let (s2, _, r2) = http(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
        assert_eq!((s1, s2), (200, 200), "{r1}");
        assert_eq!(r1, r2, "result fetches must be byte-identical");
        assert!(header(&h1, "X-Qrel-Cache").is_some());
        // ...and matches what the synchronous facade returns for the
        // same request (served from cache, as the job already solved).
        let (s3, h3, facade) = http(addr, "POST", "/v1/solve", body);
        assert_eq!(s3, 200);
        assert_eq!(header(&h3, "X-Qrel-Cache"), Some("hit"));
        assert_eq!(facade, r1, "facade body must equal the job result");
        // The job shows up in the tenant's list.
        let (s4, _, list) = http(addr, "GET", "/v1/jobs", "");
        assert_eq!(s4, 200);
        assert!(list.contains(&format!("\"job_id\":{id}")), "{list}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn job_cancel_before_start_marks_cancelled() {
        let _quiet = qrel_faults::quiesce();
        // One scheduler worker, several HTTP workers: occupy the solve
        // slot so a second job is queued and can be cancelled unstarted.
        let (addr, handle, join) = boot(ServerConfig {
            workers: 2,
            sched_workers: 1,
            ..example_config()
        });
        let occupier =
            std::thread::spawn(move || http(addr, "POST", "/v1/jobs", &slow_solve_body(600, 0)));
        std::thread::sleep(Duration::from_millis(100));
        let (s, _, accepted) = http(addr, "POST", "/v1/jobs", &slow_solve_body(600, 1));
        assert_eq!(s, 202, "{accepted}");
        assert!(accepted.contains("\"state\":\"queued\""), "{accepted}");
        let id = json_u64(&accepted, "job_id");
        let (s, _, cancelled) = http(addr, "DELETE", &format!("/v1/jobs/{id}"), "");
        assert_eq!(s, 200, "{cancelled}");
        assert!(cancelled.contains("\"state\":\"cancelled\""), "{cancelled}");
        let (_, _, status) = poll_job(addr, &[], id);
        assert!(status.contains("\"state\":\"cancelled\""), "{status}");
        assert!(status.contains("\"code\":\"cancelled\""), "{status}");
        // Its result is refused with a conflict, not invented.
        let (s, _, result) = http(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
        assert_eq!(s, 409, "{result}");
        // Cancelling again reports the terminal state.
        let (s, _, again) = http(addr, "DELETE", &format!("/v1/jobs/{id}"), "");
        assert_eq!(s, 409, "{again}");
        assert!(again.contains("already cancelled"), "{again}");
        // The occupying job was untouched.
        let (s, _, first) = occupier.join().unwrap();
        assert_eq!(s, 202, "{first}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn job_cancel_mid_solve_frees_the_worker() {
        let _quiet = qrel_faults::quiesce();
        let (addr, handle, join) = boot(ServerConfig {
            workers: 2,
            sched_workers: 1,
            ..example_config()
        });
        let (s, _, accepted) = http(addr, "POST", "/v1/jobs", &slow_solve_body(2_000, 2));
        assert_eq!(s, 202, "{accepted}");
        let id = json_u64(&accepted, "job_id");
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        let (s, _, cancelled) = http(addr, "DELETE", &format!("/v1/jobs/{id}"), "");
        assert_eq!(s, 200, "{cancelled}");
        let (_, _, status) = poll_job(addr, &[], id);
        assert!(status.contains("\"state\":\"cancelled\""), "{status}");
        // The cancel propagated into the running solve's budget: the
        // worker frees up well before the job's 2s deadline.
        let (s, _, quick) = http(
            addr,
            "POST",
            "/v1/solve",
            r#"{"dataset":"example","query":"exists x. Admin(x)","method":"exact"}"#,
        );
        assert_eq!(s, 200, "{quick}");
        assert!(
            started.elapsed() < Duration::from_millis(1_900),
            "cancelled solve pinned the worker for {:?}",
            started.elapsed()
        );
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn coalesced_duplicate_survives_cancelling_the_other_member() {
        let _quiet = qrel_faults::quiesce();
        let (addr, handle, join) = boot(ServerConfig {
            workers: 3,
            sched_workers: 1,
            ..example_config()
        });
        // Occupy the single scheduler worker so the duplicates coalesce
        // while their shared group is still queued.
        let occupier =
            std::thread::spawn(move || http(addr, "POST", "/v1/jobs", &slow_solve_body(500, 8)));
        std::thread::sleep(Duration::from_millis(100));
        let body = slow_solve_body(400, 9);
        let (sa, _, a) = http(addr, "POST", "/v1/jobs", &body);
        let (sb, _, b) = http(addr, "POST", "/v1/jobs", &body);
        assert_eq!((sa, sb), (202, 202), "{a} / {b}");
        assert!(a.contains("\"coalesced\":false"), "{a}");
        assert!(b.contains("\"coalesced\":true"), "{b}");
        let (id_a, id_b) = (json_u64(&a, "job_id"), json_u64(&b, "job_id"));
        assert_ne!(id_a, id_b, "coalesced members keep distinct ids");
        // Cancelling one member must not take the other down with it.
        let (s, _, cancelled) = http(addr, "DELETE", &format!("/v1/jobs/{id_a}"), "");
        assert_eq!(s, 200, "{cancelled}");
        let (_, _, status_b) = poll_job(addr, &[], id_b);
        assert!(status_b.contains("\"state\":\"done\""), "{status_b}");
        let (s1, _, r1) = http(addr, "GET", &format!("/v1/jobs/{id_b}/result"), "");
        let (s2, _, r2) = http(addr, "GET", &format!("/v1/jobs/{id_b}/result"), "");
        assert_eq!((s1, s2), (200, 200), "{r1}");
        assert_eq!(r1, r2, "shared group result must replay identically");
        let (_, _, status_a) = poll_job(addr, &[], id_a);
        assert!(status_a.contains("\"state\":\"cancelled\""), "{status_a}");
        let _ = occupier.join().unwrap();
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn facade_answers_survive_a_one_record_retention_cap() {
        let _quiet = qrel_faults::quiesce();
        // Four scheduler workers retire records concurrently while
        // `job_retain_cap: 1` keeps only the newest: a facade waiter must
        // still receive its own job's outcome, never "job record lost".
        let (addr, handle, join) = boot(ServerConfig {
            workers: 4,
            job_retain_cap: 1,
            cache_bytes: 0,
            ..example_config()
        });
        let clients: Vec<_> = (0..4u64)
            .map(|c| {
                std::thread::spawn(move || {
                    (0..50u64)
                        .map(|i| {
                            let body = format!(
                                r#"{{"dataset":"example","query":"exists x. Admin(x)","method":"exact","seed":{}}}"#,
                                c * 1000 + i
                            );
                            let (s, _, b) = http(addr, "POST", "/v1/solve", &body);
                            (s, b)
                        })
                        .filter(|(s, _)| *s != 200)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let failed: Vec<_> = clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        assert!(
            failed.is_empty(),
            "{} of 200 failed: {:?}",
            failed.len(),
            failed.first()
        );
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn unknown_job_ids_get_envelope_404s() {
        let _quiet = qrel_faults::quiesce();
        let (addr, handle, join) = boot(example_config());
        for path in [
            "/v1/jobs/999999",
            "/v1/jobs/999999/result",
            "/v1/jobs/bogus",
        ] {
            let (s, _, body) = http(addr, "GET", path, "");
            assert_eq!(s, 404, "{path}: {body}");
            let env = crate::protocol::ErrorEnvelope::from_body(body.as_bytes())
                .unwrap_or_else(|e| panic!("{path}: {e}: {body}"));
            assert_eq!(env.code, "not_found", "{path}");
            assert!(!env.retryable, "{path}");
        }
        let (s, _, body) = http(addr, "DELETE", "/v1/jobs/999999", "");
        assert_eq!(s, 404, "{body}");
        // PATCH on a job id is a method problem, not a missing job.
        assert_eq!(http(addr, "PATCH", "/v1/jobs/1", "").0, 405);
        handle.shutdown();
        join.join().unwrap();
    }

    /// A two-dataset store on disk for the store-backed server tests.
    fn build_store(dir: &std::path::Path) {
        let _ = std::fs::remove_dir_all(dir);
        let mut store = Store::init(dir).unwrap();
        let db = qrel_db::DatabaseBuilder::new()
            .universe_size(3)
            .relation("Admin", 1)
            .tuples("Admin", [vec![0u32]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(
            &qrel_db::Fact::new(0, vec![0]),
            qrel_arith::BigRational::from_ratio(1, 10),
        )
        .unwrap();
        let spec = UnreliableDatabaseSpec::from_model(&ud);
        store.ingest_spec("alpha", &spec).unwrap();
        // beta gets a different error probability so the two datasets
        // have distinct content hashes (the cache is content-addressed).
        ud.set_error(
            &qrel_db::Fact::new(0, vec![0]),
            qrel_arith::BigRational::from_ratio(1, 5),
        )
        .unwrap();
        let spec = UnreliableDatabaseSpec::from_model(&ud);
        store.ingest_spec("beta", &spec).unwrap();
    }

    #[test]
    fn store_mutations_update_health_and_invalidate_precisely() {
        let _quiet = qrel_faults::quiesce();
        let dir = std::env::temp_dir().join(format!("qrel-serve-store-{}", std::process::id()));
        build_store(&dir);
        let (addr, handle, join) = boot(ServerConfig {
            workers: 2,
            store: Some(dir.clone()),
            ..ServerConfig::default()
        });
        // `/healthz` reports the stored datasets with live fact counts.
        let (s, _, health) = http(addr, "GET", "/healthz", "");
        assert_eq!(s, 200);
        assert!(
            health.contains(r#"{"name":"alpha","facts":1,"stored":true}"#),
            "{health}"
        );
        // Warm the cache on both datasets.
        let alpha = r#"{"dataset":"alpha","query":"exists x. Admin(x)","method":"exact"}"#;
        let beta = r#"{"dataset":"beta","query":"exists x. Admin(x)","method":"exact"}"#;
        let (_, h, alpha_before) = http(addr, "POST", "/v1/solve", alpha);
        assert_eq!(header(&h, "X-Qrel-Cache"), Some("miss"));
        let (_, h, _) = http(addr, "POST", "/v1/solve", alpha);
        assert_eq!(header(&h, "X-Qrel-Cache"), Some("hit"));
        let (_, h, _) = http(addr, "POST", "/v1/solve", beta);
        assert_eq!(header(&h, "X-Qrel-Cache"), Some("miss"));
        let (_, h, _) = http(addr, "POST", "/v1/solve", beta);
        assert_eq!(header(&h, "X-Qrel-Cache"), Some("hit"));
        // Mutate alpha: a batched upsert lands a new uncertain fact.
        let (s, _, commit) = http(
            addr,
            "POST",
            "/v1/datasets/alpha/facts",
            r#"{"facts":[{"relation":"Admin","tuple":[1],"present":true,"mu":"1/4"}]}"#,
        );
        assert_eq!(s, 200, "{commit}");
        assert!(commit.contains("\"rows\":1"), "{commit}");
        assert!(commit.contains("\"live_facts\":2"), "{commit}");
        // The health surface reflects the mutation immediately.
        let (_, _, health) = http(addr, "GET", "/healthz", "");
        assert!(
            health.contains(r#"{"name":"alpha","facts":2,"stored":true}"#),
            "{health}"
        );
        // Exactly the mutated dataset's cache entries invalidate: alpha
        // misses (and answers differently)...
        let (_, h, alpha_after) = http(addr, "POST", "/v1/solve", alpha);
        assert_eq!(header(&h, "X-Qrel-Cache"), Some("miss"), "{alpha_after}");
        assert_ne!(alpha_before, alpha_after);
        // ...while beta's entry stays hot.
        let (_, h, _) = http(addr, "POST", "/v1/solve", beta);
        assert_eq!(header(&h, "X-Qrel-Cache"), Some("hit"));
        // Deleting the fact restores the original model — and, by the
        // XOR hash algebra, the original db-hash, so the pre-mutation
        // cache entry becomes reachable again: an immediate hit with
        // the original bytes.
        let (s, _, del) = http(
            addr,
            "DELETE",
            "/v1/datasets/alpha/facts",
            r#"{"facts":[{"relation":"Admin","tuple":[1]}]}"#,
        );
        assert_eq!(s, 200, "{del}");
        let (_, h, alpha_restored) = http(addr, "POST", "/v1/solve", alpha);
        assert_eq!(header(&h, "X-Qrel-Cache"), Some("hit"), "{alpha_restored}");
        assert_eq!(alpha_before, alpha_restored);
        // `GET /v1/datasets` lists both with their hashes, and the
        // store gauges render.
        let (s, _, list) = http(addr, "GET", "/v1/datasets", "");
        assert_eq!(s, 200);
        assert!(list.contains("\"name\":\"alpha\""), "{list}");
        assert!(list.contains("\"db_hash\":\""), "{list}");
        let metrics = handle.metrics_text();
        assert!(metrics.contains("qrel_store_segments"), "{metrics}");
        assert!(metrics.contains("qrel_store_live_facts"), "{metrics}");
        handle.shutdown();
        join.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plan_cache_survives_fact_mutations_result_memo_does_not() {
        let _quiet = qrel_faults::quiesce();
        let dir = std::env::temp_dir().join(format!("qrel-serve-plan-{}", std::process::id()));
        build_store(&dir);
        let (addr, handle, join) = boot(ServerConfig {
            workers: 2,
            store: Some(dir.clone()),
            ..ServerConfig::default()
        });
        // Cold solve under auto: the safe query routes to the plan rung
        // — freshly compiled ("miss"), answered exactly.
        let alpha = r#"{"dataset":"alpha","query":"exists x. Admin(x)","method":"auto"}"#;
        let beta = r#"{"dataset":"beta","query":"exists x. Admin(x)","method":"auto"}"#;
        let (s, h, alpha_before) = http(addr, "POST", "/v1/solve", alpha);
        assert_eq!(s, 200, "{alpha_before}");
        assert_eq!(header(&h, "X-Qrel-Cache"), Some("miss"));
        assert_eq!(header(&h, "X-Qrel-Plan"), Some("miss"));
        assert!(
            alpha_before.contains("\"method\":\"plan\""),
            "{alpha_before}"
        );
        assert!(
            alpha_before.contains("\"confidence\":\"exact\""),
            "{alpha_before}"
        );
        // Repeat: served from the result memo; no solve, no plan lookup.
        let (_, h, b) = http(addr, "POST", "/v1/solve", alpha);
        assert_eq!(header(&h, "X-Qrel-Cache"), Some("hit"));
        assert_eq!(header(&h, "X-Qrel-Plan"), None);
        assert_eq!(alpha_before, b, "memo hit must be byte-identical");
        // beta shares the query text and schema, so its first solve is
        // already a *plan* hit even though its result memo misses.
        let (_, h, _) = http(addr, "POST", "/v1/solve", beta);
        assert_eq!(header(&h, "X-Qrel-Cache"), Some("miss"));
        assert_eq!(header(&h, "X-Qrel-Plan"), Some("hit"));
        // Mutate one fact in alpha. The store's incremental db-hash
        // moves alpha's memo keys; the plan is db-independent.
        let (s, _, commit) = http(
            addr,
            "POST",
            "/v1/datasets/alpha/facts",
            r#"{"facts":[{"relation":"Admin","tuple":[1],"present":true,"mu":"1/4"}]}"#,
        );
        assert_eq!(s, 200, "{commit}");
        // Result memo misses and recomputes; plan cache still hits.
        let (_, h, alpha_after) = http(addr, "POST", "/v1/solve", alpha);
        assert_eq!(header(&h, "X-Qrel-Cache"), Some("miss"), "{alpha_after}");
        assert_eq!(header(&h, "X-Qrel-Plan"), Some("hit"));
        assert_ne!(alpha_before, alpha_after, "mutation must change the answer");
        // The re-memoized answer replays the recompute bit-for-bit.
        let (_, h, b) = http(addr, "POST", "/v1/solve", alpha);
        assert_eq!(header(&h, "X-Qrel-Cache"), Some("hit"));
        assert_eq!(alpha_after, b);
        // Other datasets are untouched: beta's memo entry stays hot.
        let (_, h, _) = http(addr, "POST", "/v1/solve", beta);
        assert_eq!(header(&h, "X-Qrel-Cache"), Some("hit"));
        // An unsafe shape under auto: declined ("unsafe"), answered by
        // the enumeration ladder instead.
        let sj =
            r#"{"dataset":"alpha","query":"exists x y. (Admin(x) & Admin(y))","method":"auto"}"#;
        let (s, h, body) = http(addr, "POST", "/v1/solve", sj);
        assert_eq!(s, 200, "{body}");
        assert_eq!(header(&h, "X-Qrel-Plan"), Some("unsafe"));
        assert!(body.contains("\"method\":\"exact\""), "{body}");
        // The /metrics counters saw all of it: one fresh compile, plan
        // hits from the re-solves, one unsafe lookup.
        let metrics = handle.metrics_text();
        assert!(
            metrics.contains("qrel_plan_cache_misses_total 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("qrel_plan_cache_hits_total 2"),
            "{metrics}"
        );
        assert!(metrics.contains("qrel_plan_unsafe_total 1"), "{metrics}");
        assert!(
            metrics.contains("qrel_solve_total{method=\"plan\"} 3"),
            "{metrics}"
        );
        handle.shutdown();
        join.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_mutation_error_paths() {
        let _quiet = qrel_faults::quiesce();
        // Without a store, mutations are refused with a conflict.
        let (addr, handle, join) = boot(example_config());
        let (s, _, body) = http(
            addr,
            "POST",
            "/v1/datasets/example/facts",
            r#"{"facts":[]}"#,
        );
        assert_eq!(s, 409, "{body}");
        assert!(body.contains("--store"), "{body}");
        handle.shutdown();
        join.join().unwrap();
        // With a store: 404 for unknown datasets, 400 for bad batches,
        // 405 for wrong methods.
        let dir = std::env::temp_dir().join(format!("qrel-serve-store-err-{}", std::process::id()));
        build_store(&dir);
        let (addr, handle, join) = boot(ServerConfig {
            workers: 1,
            store: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let good = r#"{"facts":[{"relation":"Admin","tuple":[1]}]}"#;
        assert_eq!(http(addr, "POST", "/v1/datasets/nope/facts", good).0, 404);
        let (_, _, listed) = http(addr, "GET", "/v1/datasets", "");
        for bad in [
            "not json",
            r#"{"facts":7}"#,
            r#"{"facts":[{"relation":"Zed","tuple":[0]}]}"#,
            r#"{"facts":[{"relation":"Admin","tuple":[0,1]}]}"#,
            r#"{"facts":[{"relation":"Admin","tuple":[99]}]}"#,
            r#"{"facts":[{"relation":"Admin","tuple":[0],"mu":"3/2"}]}"#,
            r#"{"facts":[{"relation":"Admin","tuple":[0],"mu":"-1/2"}]}"#,
            r#"{"facts":[{"relation":"Admin","tuple":[0],"mu":"nope"}]}"#,
            r#"{"facts":[{"relation":"Admin","tuple":[0],"surprise":1}]}"#,
        ] {
            let (s, _, body) = http(addr, "POST", "/v1/datasets/alpha/facts", bad);
            assert_eq!(s, 400, "accepted {bad}: {body}");
        }
        // Nothing a rejected batch carried was committed, and the store
        // still takes a good batch.
        assert_eq!(http(addr, "GET", "/v1/datasets", "").2, listed);
        let (s, _, body) = http(addr, "POST", "/v1/datasets/alpha/facts", good);
        assert_eq!(s, 200, "{body}");
        // DELETE items must not carry upsert fields.
        let (s, _, body) = http(
            addr,
            "DELETE",
            "/v1/datasets/alpha/facts",
            r#"{"facts":[{"relation":"Admin","tuple":[0],"mu":"1/2"}]}"#,
        );
        assert_eq!(s, 400, "{body}");
        assert_eq!(http(addr, "PATCH", "/v1/datasets/alpha/facts", good).0, 405);
        assert_eq!(http(addr, "DELETE", "/v1/datasets", "").0, 405);
        assert_eq!(http(addr, "GET", "/v1/datasets/alpha", "").0, 404);
        handle.shutdown();
        join.join().unwrap();
        // The store boots again.
        let (_, handle, join) = boot(ServerConfig {
            workers: 1,
            store: Some(dir.clone()),
            ..ServerConfig::default()
        });
        handle.shutdown();
        join.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn jobs_are_tenant_scoped() {
        let _quiet = qrel_faults::quiesce();
        let (addr, handle, join) = boot(example_config());
        let alice = [("X-Qrel-Tenant", "alice")];
        let bob = [("X-Qrel-Tenant", "bob")];
        let body = r#"{"dataset":"example","query":"exists x. Admin(x)","method":"exact"}"#;
        let (s, _, accepted) = http_with(addr, "POST", "/v1/jobs", &alice, body);
        assert_eq!(s, 202, "{accepted}");
        let id = json_u64(&accepted, "job_id");
        poll_job(addr, &alice, id);
        // Another tenant can neither see nor cancel it.
        let (s, _, b) = http_with(addr, "GET", &format!("/v1/jobs/{id}"), &bob, "");
        assert_eq!(s, 404, "{b}");
        let (s, _, b) = http_with(addr, "DELETE", &format!("/v1/jobs/{id}"), &bob, "");
        assert_eq!(s, 404, "{b}");
        let (_, _, list) = http_with(addr, "GET", "/v1/jobs", &bob, "");
        assert!(list.contains("\"jobs\":[]"), "{list}");
        let (_, _, list) = http_with(addr, "GET", "/v1/jobs", &alice, "");
        assert!(list.contains(&format!("\"job_id\":{id}")), "{list}");
        handle.shutdown();
        join.join().unwrap();
    }
}
