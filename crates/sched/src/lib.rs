//! In-memory job scheduler for the serve path.
//!
//! The serve front end parses and validates a request, then enqueues a
//! typed job here; a pool of scheduler workers executes jobs and
//! reports progress and terminal state back through the job record.
//! The scheduler is generic over the payload `P` handed to the
//! executor and the result `R` it produces, so it carries no solver
//! dependencies of its own.
//!
//! Guarantees:
//!
//! - **Bounded per-tenant queues.** Each tenant may hold at most
//!   `per_tenant_cap` non-terminal jobs; submits past the cap are
//!   rejected (the server maps this to `429` + `Retry-After`).
//! - **Priorities, FIFO within priority.** Three bands
//!   (`high`/`normal`/`low`); a worker always drains the highest
//!   non-empty band, and jobs within a band run in submit order.
//!   `reserved_workers` workers skip the `low` band entirely so a
//!   flood of long batch jobs can never starve short interactive ones.
//! - **Coalescing.** Submits carrying the same coalesce key (the
//!   canonical `(db-hash, query, method, eps, delta, seed)` cache key
//!   fingerprint upstream) while an equivalent job is still queued or
//!   running join that job's *group*: one execution, many job records,
//!   every member receiving the same shared [`Arc`] result — N
//!   identical requests cost one solve.
//! - **Cancellation.** Every group owns a [`CancelToken`], and only
//!   the scheduler fires it. Cancelling a queued job removes it
//!   immediately; cancelling the *last* live member of a running group
//!   fires the token so the executor's budget machinery can stop the
//!   solve. Other members of a coalesced group are unaffected by one
//!   member's cancellation. A group submitted with a run limit gets a
//!   hard deadline (start instant + limit) when a worker picks it up;
//!   [`Scheduler::cancel_overdue`] fires the token of every running
//!   group past it (the serve watchdog), and [`Scheduler::abort`] fires
//!   every running group's token (the forced drain).
//! - **State machine.** `queued → running → done | failed`, plus
//!   `queued → cancelled` and `running → cancelled`. Every transition
//!   is counted and surfaced via [`Scheduler::stats`] for `/metrics`.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use qrel_budget::CancelToken;

/// Names of the scheduler's fault-injection points (re-exported from
/// the `qrel-faults` registry): `sched.queue.spurious_full` makes a
/// submit report a full queue despite capacity remaining, and
/// `sched.worker.stall` stalls a worker just before it executes a job.
pub mod points {
    pub use qrel_faults::points::{SCHED_QUEUE_SPURIOUS_FULL, SCHED_WORKER_STALL};
}

/// Priority band. FIFO within a band; higher bands always drain first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    High,
    #[default]
    Normal,
    Low,
}

impl Priority {
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    fn band(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Job lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// Scheduler sizing knobs.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum non-terminal jobs a single tenant may hold.
    pub per_tenant_cap: usize,
    /// Terminal job records retained for `GET /v1/jobs/{id}` before the
    /// oldest are evicted.
    pub retain_cap: usize,
    /// Workers that never pick up `low`-priority jobs (starvation
    /// guard). Clamped to `workers - 1` so at least one worker serves
    /// every band.
    pub reserved_workers: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            workers: 4,
            per_tenant_cap: 64,
            retain_cap: 1024,
            reserved_workers: 1,
        }
    }
}

/// Why a submit was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant is at its non-terminal job cap (or an armed
    /// `sched.queue.spurious_full` fault fired).
    QueueFull { tenant: String, cap: usize },
    /// The scheduler is draining; no new work is accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { tenant, cap } => {
                write!(f, "tenant {tenant:?} queue is full (cap {cap})")
            }
            SubmitError::Closed => write!(f, "scheduler is shutting down"),
        }
    }
}

/// Receipt for an accepted job.
#[derive(Debug, Clone, Copy)]
pub struct Submission {
    pub job_id: u64,
    /// True when this submit joined an existing queued/running group
    /// instead of scheduling a fresh execution.
    pub coalesced: bool,
}

/// Outcome of a cancel request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was cancelled (it was queued or running).
    Cancelled,
    /// The job had already reached the given terminal state.
    AlreadyTerminal(JobState),
    /// No such job for this tenant.
    NotFound,
}

/// A point-in-time view of one job.
#[derive(Debug, Clone)]
pub struct JobSnapshot<R> {
    pub id: u64,
    pub tenant: String,
    pub state: JobState,
    pub priority: Priority,
    pub coalesced: bool,
    /// Last progress string the executor reported ("" once terminal).
    pub progress: String,
    /// Shared result, present once `state == Done`.
    pub result: Option<Arc<R>>,
    /// Failure/cancellation detail, present for `Failed`/`Cancelled`.
    pub error: Option<String>,
}

/// Counter snapshot for `/metrics`.
#[derive(Debug, Clone, Default)]
pub struct SchedStats {
    /// Distinct executions (groups) waiting for a worker.
    pub queued_groups: u64,
    /// Job records in `Queued` (members of queued groups).
    pub queued_jobs: u64,
    /// Job records in `Running`.
    pub running_jobs: u64,
    /// Submits that joined an existing group.
    pub coalesce_hits: u64,
    /// Submits rejected at the per-tenant cap.
    pub rejected_full: u64,
    pub enqueued_total: u64,
    /// queued → running transitions.
    pub started_total: u64,
    /// running → done transitions.
    pub done_total: u64,
    /// running → failed transitions (executor panicked).
    pub failed_total: u64,
    /// queued → cancelled transitions.
    pub cancelled_queued_total: u64,
    /// running → cancelled transitions.
    pub cancelled_running_total: u64,
    /// Non-terminal jobs per tenant, sorted by tenant name.
    pub per_tenant: Vec<(String, u64)>,
}

/// Handed to the executor for one job group.
pub struct JobCtx {
    token: CancelToken,
    progress: Arc<dyn Fn(String) + Send + Sync>,
}

impl JobCtx {
    /// The group's cancellation token. Wire it into the job's `Budget`
    /// so cancelling the last member stops the solve cooperatively.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Report a progress string, visible in job status responses.
    pub fn progress(&self, msg: impl Into<String>) {
        (self.progress)(msg.into())
    }

    /// A cloneable handle to the progress sink, for executors that
    /// report from `'static` callbacks (e.g. a solver progress hook)
    /// where borrowing the `JobCtx` is impossible.
    pub fn progress_reporter(&self) -> Arc<dyn Fn(String) + Send + Sync> {
        Arc::clone(&self.progress)
    }
}

struct Group<P> {
    /// Taken by the worker when execution starts.
    payload: Option<P>,
    token: CancelToken,
    /// Live (non-cancelled) member job ids.
    members: Vec<u64>,
    key: Option<u64>,
    running: bool,
    /// Run limit, and the hard deadline (pick instant + limit) a worker
    /// stamps on start; see [`Scheduler::cancel_overdue`].
    limit: Option<Duration>,
    deadline: Option<Instant>,
    /// Last progress string the executor reported.
    progress: String,
}

struct JobRec<R> {
    tenant: String,
    state: JobState,
    priority: Priority,
    group: u64,
    coalesced: bool,
    result: Option<Arc<R>>,
    error: Option<String>,
    /// Submit order, for stable `list` output.
    seq: u64,
    /// Held out of retention eviction until [`Scheduler::run`]'s waiter
    /// has read the terminal record.
    pinned: bool,
}

struct State<P, R> {
    next_id: u64,
    next_group: u64,
    seq: u64,
    jobs: HashMap<u64, JobRec<R>>,
    groups: HashMap<u64, Group<P>>,
    /// Group ids per priority band. May contain ids whose group was
    /// already removed (all members cancelled while queued); workers
    /// skip those lazily.
    queues: [VecDeque<u64>; 3],
    /// Coalesce key → live (queued or running) group.
    by_key: HashMap<u64, u64>,
    /// Non-terminal job count per tenant.
    tenants: HashMap<String, u64>,
    /// Terminal job ids in completion order, for retention eviction.
    done_order: VecDeque<u64>,
    closed: bool,
    stats: StatsInner,
}

#[derive(Default)]
struct StatsInner {
    queued_groups: u64,
    queued_jobs: u64,
    running_jobs: u64,
    coalesce_hits: u64,
    rejected_full: u64,
    enqueued_total: u64,
    started_total: u64,
    done_total: u64,
    failed_total: u64,
    cancelled_queued_total: u64,
    cancelled_running_total: u64,
}

struct Inner<P, R> {
    config: SchedConfig,
    state: Mutex<State<P, R>>,
    /// Wakes workers: queue became non-empty, or the scheduler closed.
    work_cv: Condvar,
    /// Broadcast on every terminal transition, for [`Scheduler::wait`].
    done_cv: Condvar,
}

type Exec<P, R> = Arc<dyn Fn(&P, &JobCtx) -> R + Send + Sync>;

/// The scheduler. Dropping it closes the queue, finishes queued work,
/// and joins the worker threads.
pub struct Scheduler<P, R> {
    inner: Arc<Inner<P, R>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<P: Send + 'static, R: Send + Sync + 'static> Scheduler<P, R> {
    /// Start the worker pool. `exec` runs each job group's payload and
    /// produces the shared result; panics inside it mark the group's
    /// members `Failed` without killing the worker.
    pub fn new<F>(mut config: SchedConfig, exec: F) -> Self
    where
        F: Fn(&P, &JobCtx) -> R + Send + Sync + 'static,
    {
        config.workers = config.workers.max(1);
        config.per_tenant_cap = config.per_tenant_cap.max(1);
        config.retain_cap = config.retain_cap.max(1);
        // At least one worker must serve every band.
        config.reserved_workers = config.reserved_workers.min(config.workers - 1);
        let inner = Arc::new(Inner {
            config: config.clone(),
            state: Mutex::new(State {
                next_id: 1,
                next_group: 1,
                seq: 0,
                jobs: HashMap::new(),
                groups: HashMap::new(),
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                by_key: HashMap::new(),
                tenants: HashMap::new(),
                done_order: VecDeque::new(),
                closed: false,
                stats: StatsInner::default(),
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let exec: Exec<P, R> = Arc::new(exec);
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let exec = Arc::clone(&exec);
                let reserved = i < config.reserved_workers;
                std::thread::Builder::new()
                    .name(format!("qrel-sched-{i}"))
                    .spawn(move || worker_loop(inner, exec, reserved))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Enqueue a job. With a coalesce key, an equivalent queued/running
    /// group absorbs the submit (one execution, shared result) and keeps
    /// its own run `limit` (see [`Scheduler::cancel_overdue`]).
    pub fn submit(
        &self,
        tenant: &str,
        priority: Priority,
        key: Option<u64>,
        limit: Option<Duration>,
        payload: P,
    ) -> Result<Submission, SubmitError> {
        self.enqueue(tenant, priority, key, limit, payload, false)
    }

    /// Submit and block until the job is terminal. Unlike
    /// [`Scheduler::submit`] + [`Scheduler::wait`], the record is pinned
    /// against retention eviction until this call has read it, so the
    /// caller always receives its own job's outcome, however small
    /// `retain_cap` is.
    pub fn run(
        &self,
        tenant: &str,
        priority: Priority,
        key: Option<u64>,
        limit: Option<Duration>,
        payload: P,
    ) -> Result<JobSnapshot<R>, SubmitError> {
        let id = self
            .enqueue(tenant, priority, key, limit, payload, true)?
            .job_id;
        let snap = self
            .wait(tenant, id, None)
            .expect("a pinned record is never evicted");
        let mut st = self.lock();
        st.jobs.get_mut(&id).expect("pinned record").pinned = false;
        st.done_order.push_back(id);
        evict_terminal(&mut st, self.inner.config.retain_cap);
        Ok(snap)
    }

    fn enqueue(
        &self,
        tenant: &str,
        priority: Priority,
        key: Option<u64>,
        limit: Option<Duration>,
        payload: P,
        pinned: bool,
    ) -> Result<Submission, SubmitError> {
        let mut st = self.lock();
        if st.closed {
            return Err(SubmitError::Closed);
        }
        let cap = self.inner.config.per_tenant_cap as u64;
        let spurious =
            qrel_faults::armed() && qrel_faults::hit(points::SCHED_QUEUE_SPURIOUS_FULL).is_some();
        if spurious || st.tenants.get(tenant).copied().unwrap_or(0) >= cap {
            st.stats.rejected_full += 1;
            return Err(SubmitError::QueueFull {
                tenant: tenant.to_string(),
                cap: cap as usize,
            });
        }
        let id = st.next_id;
        st.next_id += 1;
        st.seq += 1;
        let seq = st.seq;

        // Coalesce onto a live group when the key matches.
        let coalesced_group = key.and_then(|k| st.by_key.get(&k).copied());
        let (group, coalesced) = match coalesced_group {
            Some(g) => {
                st.stats.coalesce_hits += 1;
                (g, true)
            }
            None => {
                let g = st.next_group;
                st.next_group += 1;
                st.groups.insert(
                    g,
                    Group {
                        payload: Some(payload),
                        token: CancelToken::new(),
                        members: Vec::new(),
                        key,
                        running: false,
                        limit,
                        deadline: None,
                        progress: String::new(),
                    },
                );
                if let Some(k) = key {
                    st.by_key.insert(k, g);
                }
                st.queues[priority.band()].push_back(g);
                st.stats.queued_groups += 1;
                (g, false)
            }
        };
        let grp = st.groups.get_mut(&group).expect("group just resolved");
        grp.members.push(id);
        let state = if grp.running {
            JobState::Running
        } else {
            JobState::Queued
        };
        st.jobs.insert(
            id,
            JobRec {
                tenant: tenant.to_string(),
                state,
                priority,
                group,
                coalesced,
                result: None,
                error: None,
                seq,
                pinned,
            },
        );
        *st.tenants.entry(tenant.to_string()).or_insert(0) += 1;
        st.stats.enqueued_total += 1;
        match state {
            JobState::Running => st.stats.running_jobs += 1,
            _ => st.stats.queued_jobs += 1,
        }
        drop(st);
        self.inner.work_cv.notify_all();
        Ok(Submission {
            job_id: id,
            coalesced,
        })
    }

    /// Record an already-finished job (e.g. a result-cache hit at
    /// submit time): the record is born terminal, no execution happens.
    pub fn submit_completed(
        &self,
        tenant: &str,
        priority: Priority,
        result: Arc<R>,
    ) -> Result<Submission, SubmitError> {
        let mut st = self.lock();
        if st.closed {
            return Err(SubmitError::Closed);
        }
        let id = st.next_id;
        st.next_id += 1;
        st.seq += 1;
        let seq = st.seq;
        st.jobs.insert(
            id,
            JobRec {
                tenant: tenant.to_string(),
                state: JobState::Done,
                priority,
                group: 0,
                coalesced: false,
                result: Some(result),
                error: None,
                seq,
                pinned: false,
            },
        );
        st.stats.enqueued_total += 1;
        st.stats.done_total += 1;
        st.done_order.push_back(id);
        evict_terminal(&mut st, self.inner.config.retain_cap);
        Ok(Submission {
            job_id: id,
            coalesced: false,
        })
    }

    /// Cancel a job owned by `tenant`. Cancelling one member of a
    /// coalesced group leaves the other members (and the execution)
    /// untouched; only the last member's cancellation fires the
    /// group's [`CancelToken`].
    pub fn cancel(&self, tenant: &str, id: u64) -> CancelOutcome {
        let mut st = self.lock();
        let Some(rec) = st.jobs.get(&id) else {
            return CancelOutcome::NotFound;
        };
        if rec.tenant != tenant {
            return CancelOutcome::NotFound;
        }
        if rec.state.is_terminal() {
            return CancelOutcome::AlreadyTerminal(rec.state);
        }
        let was = rec.state;
        let group = rec.group;
        let rec = st.jobs.get_mut(&id).expect("record just observed");
        rec.state = JobState::Cancelled;
        rec.error = Some("cancelled by client".to_string());
        match was {
            JobState::Queued => {
                st.stats.queued_jobs -= 1;
                st.stats.cancelled_queued_total += 1;
            }
            _ => {
                st.stats.running_jobs -= 1;
                st.stats.cancelled_running_total += 1;
            }
        }
        let tenant_key = tenant.to_string();
        decrement_tenant(&mut st, &tenant_key);
        retire(&mut st, id);
        if let Some(grp) = st.groups.get_mut(&group) {
            grp.members.retain(|&m| m != id);
            if grp.members.is_empty() {
                if grp.running {
                    // Last member of a running group: stop the solve.
                    grp.token.cancel();
                } else {
                    // Still queued: drop the group now; the stale queue
                    // entry is skipped when a worker reaches it.
                    if let Some(k) = grp.key {
                        st.by_key.remove(&k);
                    }
                    st.groups.remove(&group);
                    st.stats.queued_groups -= 1;
                }
            }
        }
        evict_terminal(&mut st, self.inner.config.retain_cap);
        drop(st);
        self.inner.done_cv.notify_all();
        CancelOutcome::Cancelled
    }

    /// Snapshot one job (tenant-scoped; other tenants' jobs are
    /// invisible, reported as absent).
    pub fn status(&self, tenant: &str, id: u64) -> Option<JobSnapshot<R>> {
        let st = self.lock();
        snapshot(&st, tenant, id)
    }

    /// Snapshot every retained job of `tenant`, in submit order.
    pub fn list(&self, tenant: &str) -> Vec<JobSnapshot<R>> {
        let st = self.lock();
        let mut ids: Vec<(u64, u64)> = st
            .jobs
            .iter()
            .filter(|(_, r)| r.tenant == tenant)
            .map(|(&id, r)| (r.seq, id))
            .collect();
        ids.sort_unstable();
        ids.into_iter()
            .filter_map(|(_, id)| snapshot(&st, tenant, id))
            .collect()
    }

    /// Block until the job reaches a terminal state or the timeout
    /// elapses (`None` waits indefinitely). Returns the latest
    /// snapshot, or `None` for an unknown job.
    pub fn wait(&self, tenant: &str, id: u64, timeout: Option<Duration>) -> Option<JobSnapshot<R>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut st = self.lock();
        loop {
            let snap = snapshot(&st, tenant, id)?;
            if snap.state.is_terminal() {
                return Some(snap);
            }
            let wait_for = match deadline {
                None => Duration::from_secs(3600),
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(left) => left,
                    None => return Some(snap), // timed out, non-terminal
                },
            };
            let (guard, _timeout) = self
                .inner
                .done_cv
                .wait_timeout(st, wait_for)
                .expect("scheduler state poisoned");
            st = guard;
        }
    }

    /// Jobs that still need work (queued + running) — the scheduler
    /// backlog folded into the dynamic `Retry-After` estimate.
    pub fn backlog(&self) -> u64 {
        let st = self.lock();
        st.stats.queued_jobs + st.stats.running_jobs
    }

    /// Counter snapshot for `/metrics`.
    pub fn stats(&self) -> SchedStats {
        let st = self.lock();
        let mut per_tenant: Vec<(String, u64)> = st
            .tenants
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(t, &n)| (t.clone(), n))
            .collect();
        per_tenant.sort();
        SchedStats {
            queued_groups: st.stats.queued_groups,
            queued_jobs: st.stats.queued_jobs,
            running_jobs: st.stats.running_jobs,
            coalesce_hits: st.stats.coalesce_hits,
            rejected_full: st.stats.rejected_full,
            enqueued_total: st.stats.enqueued_total,
            started_total: st.stats.started_total,
            done_total: st.stats.done_total,
            failed_total: st.stats.failed_total,
            cancelled_queued_total: st.stats.cancelled_queued_total,
            cancelled_running_total: st.stats.cancelled_running_total,
            per_tenant,
        }
    }

    /// Stop accepting submits. Workers finish everything already
    /// queued, then exit (graceful drain).
    pub fn close(&self) {
        self.lock().closed = true;
        self.inner.work_cv.notify_all();
        self.inner.done_cv.notify_all();
    }

    /// Forced drain: close, cancel every queued job, and fire the
    /// cancel token of every running group.
    pub fn abort(&self) {
        let mut st = self.lock();
        st.closed = true;
        let queued: Vec<u64> = st
            .jobs
            .iter()
            .filter(|(_, r)| r.state == JobState::Queued)
            .map(|(&id, _)| id)
            .collect();
        for id in queued {
            let rec = st.jobs.get_mut(&id).expect("id from scan");
            rec.state = JobState::Cancelled;
            rec.error = Some("server shutting down".to_string());
            st.stats.queued_jobs -= 1;
            st.stats.cancelled_queued_total += 1;
            let tenant = st.jobs[&id].tenant.clone();
            decrement_tenant(&mut st, &tenant);
            retire(&mut st, id);
        }
        for g in st.queues.iter().flatten().copied().collect::<Vec<_>>() {
            if let Some(grp) = st.groups.remove(&g) {
                if let Some(k) = grp.key {
                    st.by_key.remove(&k);
                }
                st.stats.queued_groups -= 1;
            }
        }
        for q in &mut st.queues {
            q.clear();
        }
        for grp in st.groups.values() {
            grp.token.cancel();
        }
        drop(st);
        self.inner.work_cv.notify_all();
        self.inner.done_cv.notify_all();
    }

    /// Fire the token of every running group past its hard deadline at
    /// `now`, clearing the deadline so a group fires once. Returns how
    /// many fired; a token that had already fired is not counted.
    pub fn cancel_overdue(&self, now: Instant) -> u64 {
        let mut st = self.lock();
        let mut fired = 0;
        for grp in st.groups.values_mut() {
            let overdue = grp.deadline.take_if(|d| now >= *d).is_some();
            if overdue && !grp.token.is_cancelled() {
                grp.token.cancel();
                fired += 1;
            }
        }
        fired
    }

    /// Join the worker threads (after [`Scheduler::close`]/`abort`).
    pub fn join(&self) {
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker handles poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State<P, R>> {
        self.inner.state.lock().expect("scheduler state poisoned")
    }
}

impl<P, R> Drop for Scheduler<P, R> {
    fn drop(&mut self) {
        if let Ok(mut st) = self.inner.state.lock() {
            st.closed = true;
        }
        self.inner.work_cv.notify_all();
        self.inner.done_cv.notify_all();
        if let Ok(mut handles) = self.workers.lock() {
            for h in handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

fn snapshot<P, R>(st: &State<P, R>, tenant: &str, id: u64) -> Option<JobSnapshot<R>> {
    let rec = st.jobs.get(&id)?;
    if rec.tenant != tenant {
        return None;
    }
    let progress = if rec.state.is_terminal() {
        String::new()
    } else {
        st.groups
            .get(&rec.group)
            .map(|g| g.progress.clone())
            .unwrap_or_default()
    };
    Some(JobSnapshot {
        id,
        tenant: rec.tenant.clone(),
        state: rec.state,
        priority: rec.priority,
        coalesced: rec.coalesced,
        progress,
        result: rec.result.clone(),
        error: rec.error.clone(),
    })
}

fn decrement_tenant<P, R>(st: &mut State<P, R>, tenant: &str) {
    if let Some(n) = st.tenants.get_mut(tenant) {
        *n = n.saturating_sub(1);
        if *n == 0 {
            st.tenants.remove(tenant);
        }
    }
}

/// Queue a record that just turned terminal for retention eviction,
/// unless [`Scheduler::run`] pinned it (its waiter queues it after
/// reading it).
fn retire<P, R>(st: &mut State<P, R>, id: u64) {
    if !st.jobs[&id].pinned {
        st.done_order.push_back(id);
    }
}

/// Drop the oldest terminal records past the retention cap.
fn evict_terminal<P, R>(st: &mut State<P, R>, retain_cap: usize) {
    while st.done_order.len() > retain_cap {
        let Some(old) = st.done_order.pop_front() else {
            break;
        };
        // Only remove if still terminal (it always is: ids are never
        // reused, and only terminal ids enter done_order).
        if st.jobs.get(&old).is_some_and(|r| r.state.is_terminal()) {
            st.jobs.remove(&old);
        }
    }
}

fn worker_loop<P: Send + 'static, R: Send + Sync + 'static>(
    inner: Arc<Inner<P, R>>,
    exec: Exec<P, R>,
    reserved: bool,
) {
    loop {
        let (group_id, payload, token) = {
            let mut st = inner.state.lock().expect("scheduler state poisoned");
            let picked = loop {
                match pick_group(&mut st, reserved) {
                    Some(g) => break Some(g),
                    None if st.closed => break None,
                    None => st = inner.work_cv.wait(st).expect("scheduler state poisoned"),
                }
            };
            let Some(g) = picked else {
                return;
            };
            let grp = st.groups.get_mut(&g).expect("picked group exists");
            grp.running = true;
            grp.deadline = grp.limit.and_then(|l| Instant::now().checked_add(l));
            let payload = grp.payload.take().expect("group not yet started");
            let token = grp.token.clone();
            let members = grp.members.clone();
            st.stats.queued_groups -= 1;
            for m in members {
                let rec = st.jobs.get_mut(&m).expect("member record exists");
                rec.state = JobState::Running;
                st.stats.queued_jobs -= 1;
                st.stats.running_jobs += 1;
                st.stats.started_total += 1;
            }
            (g, payload, token)
        };

        // Chaos hook: stall this worker before it executes the job.
        if qrel_faults::armed() {
            qrel_faults::maybe_stall(points::SCHED_WORKER_STALL);
        }

        let progress_inner = Arc::clone(&inner);
        let ctx = JobCtx {
            token,
            progress: Arc::new(move |msg: String| {
                let mut st = progress_inner
                    .state
                    .lock()
                    .expect("scheduler state poisoned");
                if let Some(grp) = st.groups.get_mut(&group_id) {
                    grp.progress = msg;
                }
                // No `done_cv` notify: `wait` returns only on a terminal
                // state, so waking its callers here would wake them for
                // nothing. Status reads see the message under the lock.
            }),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| exec(&payload, &ctx)));

        let mut st = inner.state.lock().expect("scheduler state poisoned");
        let grp = st.groups.remove(&group_id).expect("running group exists");
        if let Some(k) = grp.key {
            st.by_key.remove(&k);
        }
        let (result, error) = match outcome {
            Ok(r) => (Some(Arc::new(r)), None),
            Err(panic) => {
                let msg = if let Some(s) = panic.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = panic.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                (None, Some(format!("job executor panicked: {msg}")))
            }
        };
        for m in grp.members {
            let Some(rec) = st.jobs.get_mut(&m) else {
                continue;
            };
            if rec.state != JobState::Running {
                continue; // member cancelled mid-solve
            }
            match (&result, &error) {
                (Some(r), _) => {
                    rec.state = JobState::Done;
                    rec.result = Some(Arc::clone(r));
                    st.stats.done_total += 1;
                }
                (None, err) => {
                    rec.state = JobState::Failed;
                    rec.error = err.clone();
                    st.stats.failed_total += 1;
                }
            }
            st.stats.running_jobs -= 1;
            let tenant = st.jobs[&m].tenant.clone();
            decrement_tenant(&mut st, &tenant);
            retire(&mut st, m);
        }
        evict_terminal(&mut st, inner.config.retain_cap);
        drop(st);
        inner.done_cv.notify_all();
    }
}

/// Pop the next runnable group id, skipping stale entries whose group
/// was removed (all members cancelled while queued). Reserved workers
/// skip the `low` band until the scheduler is draining.
fn pick_group<P, R>(st: &mut State<P, R>, reserved: bool) -> Option<u64> {
    let bands = if reserved && !st.closed { 2 } else { 3 };
    for band in 0..bands {
        while let Some(g) = st.queues[band].pop_front() {
            if st.groups.contains_key(&g) {
                return Some(g);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;

    /// A scheduler whose executor sleeps for the payload's millis and
    /// returns the payload; cancellation short-circuits the sleep.
    fn sleepy(config: SchedConfig) -> Scheduler<u64, u64> {
        Scheduler::new(config, |&ms: &u64, ctx: &JobCtx| {
            let step = Duration::from_millis(5);
            let deadline = Instant::now() + Duration::from_millis(ms);
            while Instant::now() < deadline && !ctx.token().is_cancelled() {
                std::thread::sleep(step);
            }
            ms
        })
    }

    fn one_worker() -> SchedConfig {
        SchedConfig {
            workers: 1,
            reserved_workers: 0,
            ..SchedConfig::default()
        }
    }

    #[test]
    fn submit_execute_and_wait_round_trip() {
        let _quiet = qrel_faults::quiesce();
        let sched = sleepy(one_worker());
        let sub = sched.submit("t", Priority::Normal, None, None, 0).unwrap();
        assert!(!sub.coalesced);
        let snap = sched
            .wait("t", sub.job_id, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(*snap.result.unwrap(), 0);
        let stats = sched.stats();
        assert_eq!(stats.enqueued_total, 1);
        assert_eq!(stats.done_total, 1);
        assert_eq!(stats.queued_jobs + stats.running_jobs, 0);
    }

    #[test]
    fn coalesced_submits_share_one_execution() {
        let _quiet = qrel_faults::quiesce();
        let executions = Arc::new(AtomicU64::new(0));
        let execs = Arc::clone(&executions);
        let sched: Scheduler<u64, u64> = Scheduler::new(one_worker(), move |&p, _ctx| {
            execs.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(30));
            p
        });
        // A long head-of-line job keeps the key-7 group queued long
        // enough for the duplicates to coalesce deterministically.
        let head = sched.submit("t", Priority::Normal, None, None, 1).unwrap();
        let a = sched
            .submit("t", Priority::Normal, Some(7), None, 42)
            .unwrap();
        let b = sched
            .submit("t", Priority::Normal, Some(7), None, 42)
            .unwrap();
        let c = sched
            .submit("t", Priority::Normal, Some(7), None, 42)
            .unwrap();
        assert!(!a.coalesced && b.coalesced && c.coalesced);
        for id in [head.job_id, a.job_id, b.job_id, c.job_id] {
            let snap = sched.wait("t", id, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(snap.state, JobState::Done);
        }
        // 2 executions: the head job and ONE solve for the three
        // coalesced submits.
        assert_eq!(executions.load(Ordering::SeqCst), 2);
        assert_eq!(sched.stats().coalesce_hits, 2);
    }

    #[test]
    fn cancel_before_start_skips_execution() {
        let _quiet = qrel_faults::quiesce();
        let executions = Arc::new(AtomicU64::new(0));
        let execs = Arc::clone(&executions);
        let sched: Scheduler<u64, u64> = Scheduler::new(one_worker(), move |&p, _ctx| {
            execs.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(20));
            p
        });
        let head = sched.submit("t", Priority::Normal, None, None, 1).unwrap();
        let doomed = sched.submit("t", Priority::Normal, None, None, 2).unwrap();
        assert_eq!(sched.cancel("t", doomed.job_id), CancelOutcome::Cancelled);
        let snap = sched.status("t", doomed.job_id).unwrap();
        assert_eq!(snap.state, JobState::Cancelled);
        sched.wait("t", head.job_id, Some(Duration::from_secs(5)));
        sched.close();
        sched.join();
        // Only the head job ever ran.
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        assert_eq!(sched.stats().cancelled_queued_total, 1);
    }

    #[test]
    fn cancel_mid_solve_fires_the_group_token() {
        let _quiet = qrel_faults::quiesce();
        let sched = sleepy(one_worker());
        // Long enough that the test would time out if cancel didn't
        // interrupt the sleep loop.
        let sub = sched
            .submit("t", Priority::Normal, None, None, 30_000)
            .unwrap();
        // Wait until it is actually running.
        let started = Instant::now();
        while sched.status("t", sub.job_id).unwrap().state == JobState::Queued {
            assert!(started.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(sched.cancel("t", sub.job_id), CancelOutcome::Cancelled);
        let snap = sched.status("t", sub.job_id).unwrap();
        assert_eq!(snap.state, JobState::Cancelled);
        // The worker must come free promptly (the token interrupted the
        // sleep): a follow-up job completes fast.
        let next = sched.submit("t", Priority::Normal, None, None, 0).unwrap();
        let snap = sched
            .wait("t", next.job_id, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(sched.stats().cancelled_running_total, 1);
    }

    #[test]
    fn cancelling_one_coalesced_member_leaves_the_other_intact() {
        let _quiet = qrel_faults::quiesce();
        let sched = sleepy(one_worker());
        let head = sched.submit("t", Priority::Normal, None, None, 30).unwrap();
        let a = sched
            .submit("t", Priority::Normal, Some(9), None, 10)
            .unwrap();
        let b = sched
            .submit("t", Priority::Normal, Some(9), None, 10)
            .unwrap();
        assert!(b.coalesced);
        assert_eq!(sched.cancel("t", a.job_id), CancelOutcome::Cancelled);
        // b still completes with the shared result.
        let snap = sched
            .wait("t", b.job_id, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(*snap.result.unwrap(), 10);
        // a stays cancelled even though the execution went on.
        assert_eq!(
            sched.status("t", a.job_id).unwrap().state,
            JobState::Cancelled
        );
        let _ = head;
    }

    #[test]
    fn per_tenant_cap_rejects_and_other_tenants_are_unaffected() {
        let _quiet = qrel_faults::quiesce();
        let config = SchedConfig {
            workers: 1,
            per_tenant_cap: 2,
            reserved_workers: 0,
            ..SchedConfig::default()
        };
        let sched = sleepy(config);
        let _a = sched
            .submit("t", Priority::Normal, None, None, 200)
            .unwrap();
        let _b = sched
            .submit("t", Priority::Normal, None, None, 200)
            .unwrap();
        let err = sched
            .submit("t", Priority::Normal, None, None, 0)
            .unwrap_err();
        assert!(matches!(err, SubmitError::QueueFull { cap: 2, .. }));
        // A different tenant still gets in.
        assert!(sched.submit("u", Priority::Normal, None, None, 0).is_ok());
        assert_eq!(sched.stats().rejected_full, 1);
        sched.abort();
    }

    #[test]
    fn priorities_drain_high_before_low() {
        let _quiet = qrel_faults::quiesce();
        let (tx, rx) = mpsc::channel::<u64>();
        let tx = Mutex::new(tx);
        let sched: Scheduler<u64, u64> = Scheduler::new(one_worker(), move |&p, _ctx| {
            std::thread::sleep(Duration::from_millis(10));
            tx.lock().unwrap().send(p).unwrap();
            p
        });
        // Head job occupies the worker while we stack the bands.
        let head = sched.submit("t", Priority::Normal, None, None, 0).unwrap();
        let started = Instant::now();
        while sched.status("t", head.job_id).unwrap().state == JobState::Queued {
            assert!(started.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_millis(1));
        }
        let lo = sched.submit("t", Priority::Low, None, None, 1).unwrap();
        let hi = sched.submit("t", Priority::High, None, None, 2).unwrap();
        let mid = sched.submit("t", Priority::Normal, None, None, 3).unwrap();
        for id in [head.job_id, lo.job_id, hi.job_id, mid.job_id] {
            sched.wait("t", id, Some(Duration::from_secs(5)));
        }
        let order: Vec<u64> = rx.try_iter().collect();
        assert_eq!(order, vec![0, 2, 3, 1], "high drains first, low last");
    }

    #[test]
    fn tenant_scoping_hides_foreign_jobs() {
        let _quiet = qrel_faults::quiesce();
        let sched = sleepy(one_worker());
        let sub = sched
            .submit("alice", Priority::Normal, None, None, 0)
            .unwrap();
        sched.wait("alice", sub.job_id, Some(Duration::from_secs(5)));
        assert!(sched.status("bob", sub.job_id).is_none());
        assert_eq!(sched.cancel("bob", sub.job_id), CancelOutcome::NotFound);
        assert_eq!(sched.list("bob").len(), 0);
        assert_eq!(sched.list("alice").len(), 1);
    }

    #[test]
    fn executor_panic_marks_the_job_failed_and_worker_survives() {
        let _quiet = qrel_faults::quiesce();
        let sched: Scheduler<u64, u64> = Scheduler::new(one_worker(), |&p, _ctx| {
            if p == 13 {
                panic!("boom");
            }
            p
        });
        let bad = sched.submit("t", Priority::Normal, None, None, 13).unwrap();
        let snap = sched
            .wait("t", bad.job_id, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(snap.state, JobState::Failed);
        assert!(snap.error.unwrap().contains("boom"));
        // The worker lives on.
        let ok = sched.submit("t", Priority::Normal, None, None, 1).unwrap();
        let snap = sched
            .wait("t", ok.job_id, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(sched.stats().failed_total, 1);
    }

    #[test]
    fn submit_completed_is_born_terminal() {
        let _quiet = qrel_faults::quiesce();
        let sched = sleepy(one_worker());
        let sub = sched
            .submit_completed("t", Priority::Normal, Arc::new(99))
            .unwrap();
        let snap = sched.status("t", sub.job_id).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(*snap.result.unwrap(), 99);
    }

    #[test]
    fn retention_evicts_oldest_terminal_records() {
        let _quiet = qrel_faults::quiesce();
        let config = SchedConfig {
            workers: 1,
            retain_cap: 3,
            reserved_workers: 0,
            ..SchedConfig::default()
        };
        let sched = sleepy(config);
        let ids: Vec<u64> = (0..6)
            .map(|_| {
                let sub = sched.submit("t", Priority::Normal, None, None, 0).unwrap();
                sched.wait("t", sub.job_id, Some(Duration::from_secs(5)));
                sub.job_id
            })
            .collect();
        assert!(sched.status("t", ids[0]).is_none(), "oldest evicted");
        assert!(sched.status("t", ids[5]).is_some(), "newest retained");
        assert!(sched.list("t").len() <= 3);
    }

    #[test]
    fn close_finishes_queued_work_and_abort_cancels_it() {
        let _quiet = qrel_faults::quiesce();
        // Graceful close: queued jobs still complete.
        let sched = sleepy(one_worker());
        let a = sched.submit("t", Priority::Normal, None, None, 20).unwrap();
        let b = sched.submit("t", Priority::Normal, None, None, 0).unwrap();
        sched.close();
        assert_eq!(
            sched
                .submit("t", Priority::Normal, None, None, 0)
                .unwrap_err(),
            SubmitError::Closed
        );
        sched.join();
        assert_eq!(sched.status("t", a.job_id).unwrap().state, JobState::Done);
        assert_eq!(sched.status("t", b.job_id).unwrap().state, JobState::Done);

        // Forced abort: queued jobs are cancelled, running ones
        // interrupted via their tokens. This executor reports whether
        // its token had fired when it returned.
        let sched: Scheduler<u64, bool> = Scheduler::new(one_worker(), |&ms, ctx| {
            let deadline = Instant::now() + Duration::from_millis(ms);
            while Instant::now() < deadline && !ctx.token().is_cancelled() {
                std::thread::sleep(Duration::from_millis(5));
            }
            ctx.token().is_cancelled()
        });
        let long = sched
            .submit("t", Priority::Normal, None, None, 30_000)
            .unwrap();
        let queued = sched.submit("t", Priority::Normal, None, None, 0).unwrap();
        let started = Instant::now();
        while sched.status("t", long.job_id).unwrap().state == JobState::Queued {
            assert!(started.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_millis(2));
        }
        sched.abort();
        // Nothing is admitted after an abort, so no solve can start
        // once the running tokens have been fired.
        assert_eq!(
            sched
                .submit("t", Priority::Normal, None, None, 0)
                .unwrap_err(),
            SubmitError::Closed
        );
        sched.join();
        assert_eq!(
            sched.status("t", queued.job_id).unwrap().state,
            JobState::Cancelled
        );
        // The running job completed (token interrupted the sleep loop;
        // the executor returned normally, so the record is Done), and
        // its executor saw the fired token.
        let snap = sched.status("t", long.job_id).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert!(*snap.result.unwrap(), "executor never saw the abort");
    }

    /// Spin until `id` has left the queue.
    fn await_running<R>(sched: &Scheduler<u64, R>, id: u64)
    where
        R: Send + Sync + 'static,
    {
        let started = Instant::now();
        while sched.status("t", id).unwrap().state == JobState::Queued {
            assert!(started.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn cancel_overdue_fires_each_overdue_running_group_once() {
        let _quiet = qrel_faults::quiesce();
        let sched = sleepy(SchedConfig {
            workers: 3,
            reserved_workers: 0,
            ..SchedConfig::default()
        });
        let ms = Duration::from_millis;
        let over = sched.submit("t", Priority::Normal, None, Some(ms(10)), 30_000);
        let within = sched.submit("t", Priority::Normal, None, Some(ms(60_000)), 30_000);
        let unlimited = sched.submit("t", Priority::Normal, None, None, 30_000);
        let (over, within, unlimited) = (
            over.unwrap().job_id,
            within.unwrap().job_id,
            unlimited.unwrap().job_id,
        );
        for id in [over, within, unlimited] {
            await_running(&sched, id);
        }
        // Every worker is busy, so this one stays queued: its limit has
        // no deadline until a worker picks it up.
        let queued = sched
            .submit("t", Priority::Normal, None, Some(ms(1)), 0)
            .unwrap()
            .job_id;
        std::thread::sleep(ms(30));
        // Repeated scans fire the overdue group exactly once; the queued
        // group, past its limit if that counted from submit, is not.
        let fired: u64 = (0..3).map(|_| sched.cancel_overdue(Instant::now())).sum();
        assert_eq!(fired, 1);
        let snap = sched.wait("t", over, Some(ms(5_000))).unwrap();
        assert_eq!(snap.state, JobState::Done, "the fired token ends the solve");
        // The freed worker runs the queued job; the group within its
        // limit and the one without a limit are untouched.
        let snap = sched.wait("t", queued, Some(ms(5_000))).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(sched.status("t", within).unwrap().state, JobState::Running);
        assert_eq!(
            sched.status("t", unlimited).unwrap().state,
            JobState::Running
        );
        // Far in the future only the limited running group is overdue.
        let later = Instant::now() + ms(120_000);
        assert_eq!(sched.cancel_overdue(later), 1);
        assert_eq!(sched.cancel_overdue(later), 0);
        let snap = sched.wait("t", within, Some(ms(5_000))).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(
            sched.status("t", unlimited).unwrap().state,
            JobState::Running
        );
        sched.abort();
    }

    #[test]
    fn cancel_overdue_counts_a_coalesced_group_once() {
        let _quiet = qrel_faults::quiesce();
        let sched = sleepy(one_worker());
        let limit = Some(Duration::from_millis(10));
        let a = sched.submit("t", Priority::Normal, Some(5), limit, 30_000);
        let b = sched.submit("t", Priority::Normal, Some(5), limit, 30_000);
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(b.coalesced);
        await_running(&sched, a.job_id);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(sched.cancel_overdue(Instant::now()), 1);
        for id in [a.job_id, b.job_id] {
            let snap = sched.wait("t", id, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(snap.state, JobState::Done);
        }
        assert_eq!(sched.cancel_overdue(Instant::now()), 0);
    }

    #[test]
    fn run_returns_its_own_outcome_under_a_one_record_retention_cap() {
        let _quiet = qrel_faults::quiesce();
        let sched = Arc::new(sleepy(SchedConfig {
            workers: 4,
            retain_cap: 1,
            reserved_workers: 0,
            ..SchedConfig::default()
        }));
        let clients: Vec<_> = (0..4u64)
            .map(|c| {
                let sched = Arc::clone(&sched);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        // 0–2 ms jobs keep every worker retiring records.
                        let ms = (c * 50 + i) % 3;
                        let snap = sched.run("t", Priority::Normal, None, None, ms).unwrap();
                        assert_eq!(snap.state, JobState::Done);
                        assert_eq!(*snap.result.unwrap(), ms);
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        // Once read, the pinned records are evicted as usual.
        assert!(sched.list("t").len() <= 1);
    }

    #[test]
    fn spurious_full_fault_rejects_submit() {
        let plan = qrel_faults::FaultPlan::new(11).with_rule(
            points::SCHED_QUEUE_SPURIOUS_FULL,
            1.0,
            0,
            1, // one spurious rejection, then heal
        );
        let sched = sleepy(one_worker());
        {
            let _guard = plan.arm();
            let err = sched
                .submit("t", Priority::Normal, None, None, 0)
                .unwrap_err();
            assert!(matches!(err, SubmitError::QueueFull { .. }));
            // The single fire is spent; the next submit goes through.
            let ok = sched.submit("t", Priority::Normal, None, None, 0).unwrap();
            let snap = sched
                .wait("t", ok.job_id, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(snap.state, JobState::Done);
        }
        assert_eq!(sched.stats().rejected_full, 1);
    }

    #[test]
    fn reserved_workers_keep_serving_high_under_low_flood() {
        let _quiet = qrel_faults::quiesce();
        let config = SchedConfig {
            workers: 2,
            reserved_workers: 1,
            per_tenant_cap: 64,
            ..SchedConfig::default()
        };
        let sched = sleepy(config);
        // Flood the low band with long jobs; only the non-reserved
        // worker may pick them up.
        for _ in 0..4 {
            sched.submit("t", Priority::Low, None, None, 300).unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        // A high-priority job lands while the flood is in progress; the
        // reserved worker must take it immediately.
        let started = Instant::now();
        let hi = sched.submit("t", Priority::High, None, None, 0).unwrap();
        let snap = sched
            .wait("t", hi.job_id, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "high-priority job starved for {:?}",
            started.elapsed()
        );
        sched.abort();
    }
}
