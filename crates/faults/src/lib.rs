//! `qrel-faults` — a seeded, deterministic fault-injection plane.
//!
//! Production traffic over the Grädel–Gurevich–Hirsch dichotomy mixes
//! sub-millisecond safe queries with #P-hard solves that trip budgets,
//! stall shards, or (when a bug slips in) panic a ladder rung. The serve
//! path is supposed to *degrade, never lie, never hang* under all of
//! that — but an invariant nobody exercises is a hope, not a property.
//! This crate makes failure a first-class, replayable input:
//!
//! * **Named injection points** ([`points`]) are compiled into the
//!   runtime, parallel, budget, and serve crates. Each hook is a single
//!   relaxed atomic load when no plan is armed — the disarmed fault
//!   plane costs one predictable-branch per call site and allocates
//!   nothing.
//! * **A [`FaultPlan`]** `{ seed, rules }` arms the plane. Every rule
//!   names a point and a per-hit firing probability; each point draws
//!   from its own SplitMix64-derived stream, so the decision for the
//!   i-th hit of point `p` is a pure function of `(seed, p, i)` — a
//!   `(seed, plan)` pair replays bit-identically, on any thread count,
//!   because threads only change *which worker asks*, never the answer
//!   for a given hit index.
//! * **Arming is scoped**: [`FaultPlan::arm`] returns a guard holding a
//!   process-wide session lock; dropping it disarms. Concurrent tests
//!   serialize instead of contaminating each other.
//!
//! The semantics of a fired fault live at the call site (a `*.panic`
//! point panics, a `*.stall` point sleeps `delay_ms`, `cache.reply.poison`
//! flips a byte, `budget.charge.spurious_trip` rejects a charge); this
//! crate only decides *whether* hit `i` fires and with what magnitude.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use serde::{Deserialize, Serialize};

/// The registry of injection-point names threaded through the stack.
/// Points are plain strings so a plan can name per-method rungs
/// (`runtime.rung.exact.panic`) without this crate depending on the
/// runtime's `Method` enum; these constants document the fixed surface.
pub mod points {
    /// Panic inside a serve worker's request handler.
    pub const SERVE_WORKER_PANIC: &str = "serve.worker.panic";
    /// Stall the connection read path in a serve worker.
    pub const SERVE_CONN_SLOW_READ: &str = "serve.conn.slow_read";
    /// Panic at the start of ladder rung `<method>`:
    /// `runtime.rung.<method>.panic`, where `<method>` is the name of any
    /// rung in the runtime's `Method::RUNGS` (`plan` included).
    pub const RUNTIME_RUNG_PANIC_PREFIX: &str = "runtime.rung.";
    /// Stall ladder rung `<method>` for `delay_ms`:
    /// `runtime.rung.<method>.stall`.
    pub const RUNTIME_RUNG_STALL_PREFIX: &str = "runtime.rung.";
    /// Stall one shard of a parallel fan-out for `delay_ms`.
    pub const PAR_SHARD_STALL: &str = "par.shard.stall";
    /// Corrupt a cached serve reply before it is returned.
    pub const CACHE_REPLY_POISON: &str = "cache.reply.poison";
    /// Reject a budget charge that should have been admitted.
    pub const BUDGET_SPURIOUS_TRIP: &str = "budget.charge.spurious_trip";
    /// Make a scheduler submit report a full queue despite capacity
    /// remaining (spurious 429 upstream).
    pub const SCHED_QUEUE_SPURIOUS_FULL: &str = "sched.queue.spurious_full";
    /// Stall a scheduler worker for `delay_ms` just before it executes
    /// a job.
    pub const SCHED_WORKER_STALL: &str = "sched.worker.stall";
    /// Tear a store segment write: persist a prefix of the file, then
    /// fail the write. The commit must abort with the manifest
    /// untouched — the torn file is never referenced.
    pub const STORE_SEGMENT_TORN_WRITE: &str = "store.segment.torn_write";
    /// Crash a store commit after the segment file is published but
    /// before the manifest is — reopen must recover the previous state
    /// and garbage-collect the orphan segment.
    pub const STORE_COMMIT_CRASH: &str = "store.commit.crash";

    /// The full point name for a runtime rung panic.
    pub fn rung_panic(method: &str) -> String {
        format!("runtime.rung.{method}.panic")
    }

    /// The full point name for a runtime rung stall.
    pub fn rung_stall(method: &str) -> String {
        format!("runtime.rung.{method}.stall")
    }
}

/// One rule of a [`FaultPlan`]: fire at `point` with per-hit
/// probability `prob`, at most `max_fires` times, stalling `delay_ms`
/// where the point's semantics involve a delay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    /// Exact injection-point name (see [`points`]).
    pub point: String,
    /// Per-hit firing probability in `[0, 1]`. The draw for hit `i` is
    /// `splitmix(seed ⊕ fnv(point), i)` mapped to `[0, 1)` — pure, so
    /// replay is bit-exact.
    pub prob: f64,
    /// Stall duration for `*.stall` / `*.slow_read` points; ignored by
    /// panic/poison/trip points.
    #[serde(default)]
    pub delay_ms: u64,
    /// Stop firing after this many fires (`0` = unlimited).
    #[serde(default)]
    pub max_fires: u64,
}

/// A seeded fault schedule: which points misbehave, how often, and from
/// which deterministic stream.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Master seed for all per-point decision streams.
    pub seed: u64,
    /// The armed rules. Multiple rules for one point are allowed; the
    /// first matching rule wins (keep plans one-rule-per-point).
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Builder-style rule addition.
    pub fn with_rule(mut self, point: &str, prob: f64, delay_ms: u64, max_fires: u64) -> Self {
        self.rules.push(FaultRule {
            point: point.to_string(),
            prob,
            delay_ms,
            max_fires,
        });
        self
    }

    /// Arm this plan process-wide. The returned guard holds the global
    /// fault-session lock — concurrent armers block — and disarms on
    /// drop. Per-point hit counters start from zero on every arm, so
    /// the schedule replays from the top.
    pub fn arm(&self) -> FaultGuard {
        let session = session_lock().lock().unwrap_or_else(|e| e.into_inner());
        let armed = Arc::new(ArmedPlan::new(self.clone()));
        *plan_slot().lock().expect("fault plan slot poisoned") = Some(armed);
        ARMED.store(true, Ordering::Release);
        FaultGuard { _session: session }
    }

    /// The deterministic fire/no-fire decision sequence a rule's point
    /// would see for its first `n` hits (ignoring `max_fires`). This is
    /// the replayable "fault schedule" — byte-identical for a given
    /// `(seed, point, prob)` on every run and thread count.
    pub fn schedule_preview(&self, point: &str, n: u64) -> Vec<bool> {
        let Some(rule) = self.rules.iter().find(|r| r.point == point) else {
            return vec![false; n as usize];
        };
        (0..n)
            .map(|i| decision(self.seed, point, i, rule.prob))
            .collect()
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plan serialization is infallible")
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("bad fault plan JSON: {e}"))
    }

    /// Largest `delay_ms` any rule can inject — the term a latency
    /// invariant must budget for on top of deadlines and watchdog
    /// periods.
    pub fn max_delay_ms(&self) -> u64 {
        self.rules.iter().map(|r| r.delay_ms).max().unwrap_or(0)
    }
}

/// Hold the fault session exclusively while injecting *nothing*: arms
/// an empty plan, so `armed()` is true but no point ever fires. Tests
/// that must not observe another test's injected faults take this guard
/// — it serializes them with fault-armed tests through the session
/// lock, which is the whole point of arming being process-global.
pub fn quiesce() -> FaultGuard {
    FaultPlan::new(0).arm()
}

/// RAII guard for an armed plan; disarms (and releases the session
/// lock) on drop.
pub struct FaultGuard {
    _session: MutexGuard<'static, ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::Release);
        *plan_slot().lock().expect("fault plan slot poisoned") = None;
    }
}

/// A fired fault, carrying the magnitude the call site should apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fired {
    pub delay_ms: u64,
}

// ---------------------------------------------------------------------------
// Armed state

struct RuleState {
    rule: FaultRule,
    hits: AtomicU64,
    fires: AtomicU64,
}

struct ArmedPlan {
    seed: u64,
    states: Vec<RuleState>,
}

impl ArmedPlan {
    fn new(plan: FaultPlan) -> Self {
        ArmedPlan {
            seed: plan.seed,
            states: plan
                .rules
                .into_iter()
                .map(|rule| RuleState {
                    rule,
                    hits: AtomicU64::new(0),
                    fires: AtomicU64::new(0),
                })
                .collect(),
        }
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn plan_slot() -> &'static Mutex<Option<Arc<ArmedPlan>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<ArmedPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn session_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// True iff a plan is armed. The single relaxed load every hook pays
/// when the fault plane is dormant.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// FNV-1a over the point name, folded into the seed so each point gets
/// an unrelated SplitMix64 stream.
fn point_hash(point: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in point.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer — the same stream generator `qrel-par` uses for
/// shard seeds, reproduced here so this crate stays at the bottom of
/// the workspace.
fn splitmix(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pure per-hit decision: does hit `i` of `point` fire under
/// `(seed, prob)`? 53 mantissa bits of the stream value mapped to
/// `[0, 1)` and compared against `prob`.
fn decision(seed: u64, point: &str, hit: u64, prob: f64) -> bool {
    if prob <= 0.0 {
        return false;
    }
    if prob >= 1.0 {
        return true;
    }
    let u = splitmix(seed ^ point_hash(point), hit) >> 11;
    (u as f64) * (1.0 / (1u64 << 53) as f64) < prob
}

/// Record a hit at `point` and return the fired fault, if the armed
/// plan says this hit fires. `None` when disarmed, when no rule names
/// the point, when the stream says "pass", or when the rule's
/// `max_fires` is spent.
pub fn hit(point: &str) -> Option<Fired> {
    if !armed() {
        return None;
    }
    let plan = plan_slot()
        .lock()
        .expect("fault plan slot poisoned")
        .clone()?;
    let state = plan.states.iter().find(|s| s.rule.point == point)?;
    let i = state.hits.fetch_add(1, Ordering::Relaxed);
    if !decision(plan.seed, point, i, state.rule.prob) {
        return None;
    }
    if state.rule.max_fires > 0 {
        // Claim a fire slot; back out if the cap is spent.
        let prev = state.fires.fetch_add(1, Ordering::Relaxed);
        if prev >= state.rule.max_fires {
            return None;
        }
    } else {
        state.fires.fetch_add(1, Ordering::Relaxed);
    }
    Some(Fired {
        delay_ms: state.rule.delay_ms,
    })
}

/// Like [`hit`] but with a caller-supplied index instead of the global
/// hit counter — for call sites with a natural deterministic index (a
/// shard number, a rung index), making the fired set independent of
/// thread interleaving, not just the decision stream. `max_fires` caps
/// by counting firing indices below `index`, so the cap is deterministic
/// too (indices are expected to be small, e.g. `< DEFAULT_SHARDS`).
pub fn hit_at(point: &str, index: u64) -> Option<Fired> {
    if !armed() {
        return None;
    }
    let plan = plan_slot()
        .lock()
        .expect("fault plan slot poisoned")
        .clone()?;
    let state = plan.states.iter().find(|s| s.rule.point == point)?;
    if !decision(plan.seed, point, index, state.rule.prob) {
        return None;
    }
    if state.rule.max_fires > 0 {
        let earlier = (0..index)
            .filter(|&j| decision(plan.seed, point, j, state.rule.prob))
            .count() as u64;
        if earlier >= state.rule.max_fires {
            return None;
        }
    }
    Some(Fired {
        delay_ms: state.rule.delay_ms,
    })
}

/// Sleep the rule's `delay_ms` if the armed plan fires at `point` for
/// the deterministic `index` (see [`hit_at`]). Returns the injected
/// delay in milliseconds.
#[inline]
pub fn stall_at(point: &str, index: u64) -> u64 {
    if !armed() {
        return 0;
    }
    match hit_at(point, index) {
        Some(f) if f.delay_ms > 0 => {
            std::thread::sleep(std::time::Duration::from_millis(f.delay_ms));
            f.delay_ms
        }
        Some(_) | None => 0,
    }
}

/// Panic if the armed plan fires at `point`. The panic message carries
/// the point name so caught panics are attributable in traces.
#[inline]
pub fn maybe_panic(point: &str) {
    if armed() && hit(point).is_some() {
        panic!("injected fault: {point}");
    }
}

/// Sleep the rule's `delay_ms` if the armed plan fires at `point`.
/// Returns the injected delay (0 when nothing fired) so call sites can
/// account for it.
#[inline]
pub fn maybe_stall(point: &str) -> u64 {
    if !armed() {
        return 0;
    }
    match hit(point) {
        Some(f) if f.delay_ms > 0 => {
            std::thread::sleep(std::time::Duration::from_millis(f.delay_ms));
            f.delay_ms
        }
        Some(_) | None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::new(0xC0FFEE)
            .with_rule(points::SERVE_WORKER_PANIC, 0.5, 0, 0)
            .with_rule(points::PAR_SHARD_STALL, 0.25, 40, 2)
    }

    #[test]
    fn disarmed_plane_is_inert() {
        assert!(!armed());
        assert!(hit(points::SERVE_WORKER_PANIC).is_none());
        maybe_panic(points::SERVE_WORKER_PANIC); // must not panic
        assert_eq!(maybe_stall(points::PAR_SHARD_STALL), 0);
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_point_index() {
        let p = plan();
        let a = p.schedule_preview(points::SERVE_WORKER_PANIC, 256);
        let b = p.schedule_preview(points::SERVE_WORKER_PANIC, 256);
        assert_eq!(a, b);
        // Distinct points see unrelated streams.
        let c = p.schedule_preview(points::PAR_SHARD_STALL, 256);
        assert_ne!(a, c);
        // A different seed reshuffles the schedule.
        let mut p2 = p.clone();
        p2.seed ^= 1;
        assert_ne!(a, p2.schedule_preview(points::SERVE_WORKER_PANIC, 256));
        // prob=0.5 actually mixes fires and passes.
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
    }

    #[test]
    fn armed_plan_replays_its_preview_and_disarms_on_drop() {
        let p = plan();
        let preview = p.schedule_preview(points::SERVE_WORKER_PANIC, 64);
        {
            let _guard = p.arm();
            assert!(armed());
            let lived: Vec<bool> = (0..64)
                .map(|_| hit(points::SERVE_WORKER_PANIC).is_some())
                .collect();
            assert_eq!(lived, preview);
            // Unlisted points never fire.
            assert!(hit("no.such.point").is_none());
        }
        assert!(!armed());
        // Re-arming restarts the per-point counters: same schedule again.
        let _guard = p.arm();
        let relived: Vec<bool> = (0..64)
            .map(|_| hit(points::SERVE_WORKER_PANIC).is_some())
            .collect();
        assert_eq!(relived, preview);
    }

    #[test]
    fn decisions_are_thread_count_invariant() {
        // The per-hit decision depends only on (seed, point, index) —
        // asking from many threads cannot change any answer, so the
        // multiset of decisions over a fixed hit range is fixed.
        let p = plan();
        let serial: Vec<bool> = (0..96)
            .map(|i| decision(p.seed, points::PAR_SHARD_STALL, i, 0.25))
            .collect();
        for threads in [2usize, 4, 8] {
            let chunk = 96 / threads;
            let par: Vec<bool> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|w| {
                        let seed = p.seed;
                        s.spawn(move || {
                            ((w * chunk) as u64..((w + 1) * chunk) as u64)
                                .map(|i| decision(seed, points::PAR_SHARD_STALL, i, 0.25))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn max_fires_caps_the_burst() {
        let p = FaultPlan::new(7).with_rule(points::BUDGET_SPURIOUS_TRIP, 1.0, 0, 3);
        let _guard = p.arm();
        let fired = (0..100)
            .filter(|_| hit(points::BUDGET_SPURIOUS_TRIP).is_some())
            .count();
        assert_eq!(fired, 3);
    }

    #[test]
    fn plan_json_round_trips() {
        let p = plan();
        let back = FaultPlan::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.max_delay_ms(), 40);
        assert!(FaultPlan::from_json("not json").is_err());
    }

    #[test]
    fn prob_extremes() {
        let p = FaultPlan::new(1)
            .with_rule("always", 1.0, 0, 0)
            .with_rule("never", 0.0, 0, 0);
        assert!(p.schedule_preview("always", 32).iter().all(|&f| f));
        assert!(p.schedule_preview("never", 32).iter().all(|&f| !f));
    }

    #[test]
    fn rung_point_names() {
        assert_eq!(points::rung_panic("exact"), "runtime.rung.exact.panic");
        assert_eq!(points::rung_stall("mc"), "runtime.rung.mc.stall");
    }
}
