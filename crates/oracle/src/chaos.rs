//! The chaos mode: round-trip query cases through a live server *while a
//! seeded [`FaultPlan`] is armed* and assert the fail-closed invariant:
//!
//! * every `200` carries either the bit-identical fault-free answer
//!   (trace/spent may differ when a rung healed through a retry — the
//!   *answer fields* up to `guaranteed` must match) or an explicitly
//!   tagged degradation (`partial` confidence, or a trace recording the
//!   deadline/cancellation/panic that degraded it);
//! * every non-`200` is an explicit, tagged error body — the server may
//!   refuse, it may never silently return garbage;
//! * no request outlives its deadline by more than the watchdog period
//!   plus the stall budget the plan itself injected ([`latency_bound`]).
//!
//! Faults are sampled deterministically from the pair seed
//! ([`sample_plan`]), so a chaos sweep is as replayable as the plain
//! differential fuzzer: same `(seed, plan)` → same fires → same verdict,
//! on any thread count. On a violation the repro is shrunk twice over —
//! first the plan (drop rules, clamp magnitudes), then the instance
//! (the ordinary [`shrink`] pass with the minimal plan pinned).
//!
//! The fault-free reference is computed *before* arming: arming is
//! process-global, and a reference computed under an armed plan could
//! itself absorb an injected fault.

use crate::case::FuzzCase;
use crate::gen;
use crate::serve_path::post_solve;
use crate::shrink::shrink;
use qrel_budget::Budget;
use qrel_eval::FoQuery;
use qrel_faults::{points, FaultPlan};
use qrel_runtime::{Method, Solver, MAX_RUNG_RETRIES};
use qrel_serve::{protocol, Server, ServerConfig};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Watchdog period used by chaos servers — short, so the hang bound is
/// tight without making the sweep flaky on a loaded machine.
const WATCHDOG_MS: u64 = 100;

/// Fixed scheduling slack added to every latency bound, on top of the
/// deadline, the watchdog period, and the plan's own stall budget.
const SLACK_MS: u64 = 2_000;

/// Chaos sweep configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of `(case, plan)` pairs to run.
    pub pairs: u64,
    /// First pair seed; pair `i` uses seed `start_seed + i`.
    pub start_seed: u64,
    /// Per-request `timeout_ms` sent to the server.
    pub timeout_ms: u64,
    /// Where shrunk repros are written (`None` = don't write).
    pub corpus_dir: Option<PathBuf>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            pairs: 500,
            start_seed: 0,
            timeout_ms: 2_000,
            corpus_dir: None,
        }
    }
}

/// One fail-closed violation, shrunk to a locally minimal `(case, plan)`.
#[derive(Debug, Clone)]
pub struct ChaosViolation {
    /// Violation class: `chaos-bitflip`, `chaos-untagged-error`,
    /// `chaos-hang`, `chaos-transport`, or `chaos-store`.
    pub kind: String,
    pub detail: String,
    pub case: FuzzCase,
    pub plan: FaultPlan,
    pub path: Option<PathBuf>,
}

/// Outcome of a chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Pairs actually round-tripped (cases without an HTTP surface are
    /// regenerated, so this equals the configured pair count).
    pub pairs: u64,
    pub violations: Vec<ChaosViolation>,
    /// One compact line per pair (`seed plan-points round-verdicts`),
    /// stable across runs — two sweeps with the same config must produce
    /// identical outcome vectors or replay determinism is broken.
    pub outcomes: Vec<String>,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e9b5);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Deterministically sample a fault plan from `seed`: one to three rules
/// over the injection points a pinned-`exact` solve can reach, with
/// probabilities, stall delays, and fire caps drawn from small menus.
/// Stall points get bounded `max_fires` so [`latency_bound`] stays finite.
pub fn sample_plan(seed: u64) -> FaultPlan {
    const PROBS: [f64; 3] = [0.25, 0.5, 1.0];
    const DELAYS: [u64; 3] = [25, 100, 400];
    let mut s = splitmix(seed ^ 0xc4a0_5f4a);
    let mut draw = |n: u64| {
        s = splitmix(s);
        s % n
    };
    // (point, is_stall) menu; `exact` is the only rung chaos requests run.
    // The store points never fire on the solve path — they are exercised
    // by the durability probe [`run_pair`] appends for plans that draw
    // them.
    let menu: [(String, bool); 11] = [
        (points::SERVE_WORKER_PANIC.into(), false),
        (points::SERVE_CONN_SLOW_READ.into(), true),
        (points::rung_panic("exact"), false),
        (points::rung_stall("exact"), true),
        (points::PAR_SHARD_STALL.into(), true),
        (points::CACHE_REPLY_POISON.into(), false),
        (points::BUDGET_SPURIOUS_TRIP.into(), false),
        (points::SCHED_QUEUE_SPURIOUS_FULL.into(), false),
        (points::SCHED_WORKER_STALL.into(), true),
        (points::STORE_SEGMENT_TORN_WRITE.into(), false),
        (points::STORE_COMMIT_CRASH.into(), false),
    ];
    let mut plan = FaultPlan::new(seed);
    let rules = 1 + draw(3);
    let mut used = [false; 11];
    for _ in 0..rules {
        let idx = draw(11) as usize;
        if used[idx] {
            continue;
        }
        used[idx] = true;
        let (point, is_stall) = &menu[idx];
        let prob = PROBS[draw(3) as usize];
        let delay = if *is_stall {
            DELAYS[draw(3) as usize]
        } else {
            0
        };
        // Stalls are uncancellable sleeps: cap their fires so the hang
        // bound is a property of the plan, not of instance size.
        let max_fires = if *is_stall { 1 + draw(2) } else { draw(3) };
        plan = plan.with_rule(point, prob, delay, max_fires);
    }
    plan
}

/// The hang bound for one request under `plan`: deadline + watchdog
/// period + the stall budget the plan itself can legally inject + fixed
/// slack. A *correct* server stalls at most once per rung attempt, and
/// only retries a rung when a panic rule exists to make it transient —
/// so a server that retries non-retryable failures (or loops) overshoots
/// this bound and is flagged as a hang.
pub fn latency_bound(plan: &FaultPlan, timeout_ms: u64) -> u64 {
    let has_panic = plan
        .rules
        .iter()
        .any(|r| r.point.ends_with(".panic") && r.prob > 0.0);
    let attempts = if has_panic {
        1 + MAX_RUNG_RETRIES as u64
    } else {
        1
    };
    let mut bound = timeout_ms + WATCHDOG_MS + SLACK_MS;
    for r in &plan.rules {
        if r.prob <= 0.0 || r.delay_ms == 0 {
            continue;
        }
        let cap = |per_attempt: u64| {
            let legit = per_attempt * attempts;
            if r.max_fires == 0 {
                legit
            } else {
                r.max_fires.min(legit)
            }
        };
        if r.point == points::SERVE_CONN_SLOW_READ {
            // Fires once per connection, before the solve even starts.
            bound += r.delay_ms * cap(1).max(1);
        } else if r.point == points::PAR_SHARD_STALL {
            // Shards run serially under solver_threads=1; bounded by the
            // rule's fire cap (the sampler never leaves this unlimited).
            bound += r.delay_ms * if r.max_fires == 0 { 8 } else { r.max_fires };
        } else if r.point.ends_with(".stall") {
            bound += r.delay_ms * cap(1);
        }
    }
    bound
}

/// Does this plan contain a rule on a store durability point? Only such
/// plans run the store probe: the solve path never reaches those points,
/// so probing under store-free plans would only burn fsyncs.
fn has_store_rule(plan: &FaultPlan) -> bool {
    plan.rules.iter().any(|r| r.point.starts_with("store."))
}

/// Durability probe run while the plan is armed: commit a short batch
/// sequence into a scratch store and hold it to the crash-safety
/// contract — every commit either succeeds and passes `verify`, or
/// aborts with an injected fault leaving the published state bit-
/// identical; after the sweep a cold reopen must GC the debris and
/// verify clean. Returns one mark per attempt (`c` committed, `f`
/// fault-aborted and recovered) or a violation detail.
fn store_probe(seed: u64) -> Result<String, String> {
    use qrel_store::{Mutation, Store, StoreError};
    let dir = std::env::temp_dir().join(format!("qrel-chaos-store-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut marks = String::new();
    let mut store = Store::init(&dir).map_err(|e| format!("store init: {e}"))?;
    store
        .create_dataset(
            "probe",
            (0..4).map(|i| format!("e{i}")).collect(),
            vec![("S".to_string(), 1)],
            "full",
        )
        .map_err(|e| format!("create_dataset: {e}"))?;
    for round in 0..3u32 {
        let batch = [Mutation::set("S", vec![round], true, "1/2")];
        let before = store.dataset("probe").expect("probe exists").db_hash;
        match store.commit("probe", &batch) {
            Ok(_) => {
                store
                    .verify("probe")
                    .map_err(|e| format!("verify after commit {round}: {e}"))?;
                marks.push('c');
            }
            Err(StoreError::Injected(point)) => {
                // The published state must be exactly what it was before
                // the aborted commit — reopen from disk to prove it.
                let reopened =
                    Store::open(&dir).map_err(|e| format!("reopen after injected {point}: {e}"))?;
                let after = reopened
                    .dataset("probe")
                    .ok_or_else(|| format!("dataset lost after injected {point}"))?
                    .db_hash;
                if after != before {
                    return Err(format!(
                        "injected {point} mutated published state: \
                         db-hash {before:016x} -> {after:016x}"
                    ));
                }
                store = reopened;
                marks.push('f');
            }
            Err(e) => return Err(format!("commit {round}: unexpected error: {e}")),
        }
    }
    let reopened = Store::open(&dir).map_err(|e| format!("final reopen: {e}"))?;
    reopened
        .verify("probe")
        .map_err(|e| format!("verify after recovery: {e}"))?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(marks)
}

/// The answer fields of a solve body: everything up to `spent`. Retried
/// rungs re-charge the budget and record the panic in the trace, so a
/// *healed* response legitimately differs after this prefix — but the
/// numbers (`reliability`, `exact`, `bounds`, `method`, `confidence`,
/// `guaranteed`) must be bit-identical to fault-free.
fn answer_prefix(body: &str) -> &str {
    body.find(",\"spent\":").map_or(body, |i| &body[..i])
}

/// Is a non-identical `200` explicitly tagged as degraded? `partial`
/// comes from [`Confidence::Partial`]'s display; the rest are the
/// load-bearing trace substrings the serve path keys caching on.
///
/// [`Confidence::Partial`]: qrel_runtime::Confidence::Partial
fn is_tagged_degraded(body: &str) -> bool {
    ["partial", "deadline", "cancelled", "panicked", "budget"]
        .iter()
        .any(|m| body.contains(m))
}

/// Verdict for one round: `None` = invariant held, else `(kind, detail)`.
fn classify(
    status: u16,
    body: &str,
    expected: &str,
    elapsed_ms: u64,
    bound_ms: u64,
) -> Option<(String, String)> {
    if elapsed_ms > bound_ms {
        return Some((
            "chaos-hang".into(),
            format!("request took {elapsed_ms}ms, bound {bound_ms}ms (HTTP {status})"),
        ));
    }
    if status == 200 {
        if body == expected || answer_prefix(body) == answer_prefix(expected) {
            return None;
        }
        if is_tagged_degraded(body) {
            return None;
        }
        return Some((
            "chaos-bitflip".into(),
            format!("untagged 200 differs from fault-free: {body} vs {expected}"),
        ));
    }
    if body.contains("\"error\"") {
        return None;
    }
    Some((
        "chaos-untagged-error".into(),
        format!("HTTP {status} without a tagged error body: {body}"),
    ))
}

/// Per-round verdict marks for the determinism fingerprint.
fn verdict_mark(status: u16, body: &str, expected: &str) -> &'static str {
    if status == 200 {
        if body == expected {
            "="
        } else if answer_prefix(body) == answer_prefix(expected) {
            "~"
        } else {
            "d"
        }
    } else {
        "e"
    }
}

/// Run one `(case, plan)` pair: compute the fault-free reference, boot a
/// self-healing server, arm the plan, round-trip the case twice (miss +
/// cache round), and check every round against the fail-closed
/// invariant. Returns `(fingerprint, violation)`.
pub fn run_pair(
    case: &FuzzCase,
    plan: &FaultPlan,
    timeout_ms: u64,
) -> Result<(String, Option<(String, String)>), String> {
    let (Some(spec), Some(query)) = (&case.db, &case.query) else {
        return Err("case has no HTTP surface (db/query missing)".into());
    };

    // Fault-free reference — MUST run before `plan.arm()`, and under
    // the fault session so no concurrently armed plan fires inside it.
    // The session is released before `plan.arm()` takes it again.
    let expected = {
        let _quiet = qrel_faults::quiesce();
        let ud = spec.build().map_err(|e| e.to_string())?;
        let q = FoQuery::parse(query).map_err(|e| e.to_string())?;
        let solve = Solver::new()
            .with_method(Method::Exact)
            .with_accuracy(0.05, 0.05)
            .with_seed(case.seed)
            .with_threads(1)
            .solve(&ud, &q, &Budget::unlimited())
            .map_err(|e| format!("fault-free solve failed: {e}"))?;
        String::from_utf8(protocol::solve_response_body(&solve)).map_err(|e| e.to_string())?
    };

    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        watchdog_period: Duration::from_millis(WATCHDOG_MS),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        let _ = server.run();
    });

    let body = format!(
        "{{\"db\":{},\"query\":{},\"method\":\"exact\",\"seed\":{},\"timeout_ms\":{timeout_ms}}}",
        serde_json::to_string(spec).map_err(|e| e.to_string())?,
        serde_json::to_string(query).map_err(|e| e.to_string())?,
        case.seed
    );
    let bound_ms = latency_bound(plan, timeout_ms);

    let guard = plan.arm();
    let mut marks = String::new();
    let mut violation = None;
    for round in 0..2 {
        let started = Instant::now();
        match post_solve(addr, &body) {
            Ok((status, got, _)) => {
                let elapsed_ms = started.elapsed().as_millis() as u64;
                marks.push_str(verdict_mark(status, &got, &expected));
                if violation.is_none() {
                    violation = classify(status, &got, &expected, elapsed_ms, bound_ms)
                        .map(|(k, d)| (k, format!("round {round}: {d}")));
                }
            }
            Err(e) => {
                marks.push('x');
                if violation.is_none() {
                    violation = Some((
                        "chaos-transport".into(),
                        format!("round {round}: transport failure under faults: {e}"),
                    ));
                }
            }
        }
    }
    // Durability probe, still under the armed plan, after the HTTP
    // rounds (fixed hit order keeps the fingerprint replayable).
    if has_store_rule(plan) {
        marks.push('|');
        match store_probe(plan.seed) {
            Ok(probe_marks) => marks.push_str(&probe_marks),
            Err(detail) => {
                marks.push('X');
                if violation.is_none() {
                    violation = Some(("chaos-store".into(), detail));
                }
            }
        }
    }
    drop(guard);

    handle.shutdown();
    let _ = TcpStream::connect(addr);
    let _ = join.join();

    let rule_points: Vec<&str> = plan.rules.iter().map(|r| r.point.as_str()).collect();
    Ok((format!("[{}] {marks}", rule_points.join(",")), violation))
}

/// Does `(case, plan)` still reproduce violation class `kind`?
fn still_fails(case: &FuzzCase, plan: &FaultPlan, timeout_ms: u64, kind: &str) -> bool {
    matches!(run_pair(case, plan, timeout_ms), Ok((_, Some((k, _)))) if k == kind)
}

/// Shrink the *plan* of a failing pair: drop rules one at a time, then
/// clamp surviving rules' `delay_ms`/`max_fires`/`prob` toward minimal
/// values, keeping every step that still reproduces `kind`.
pub fn shrink_plan(case: &FuzzCase, plan: &FaultPlan, timeout_ms: u64, kind: &str) -> FaultPlan {
    let mut best = plan.clone();
    // Pass 1: drop whole rules.
    let mut i = 0;
    while i < best.rules.len() {
        if best.rules.len() == 1 {
            break;
        }
        let mut candidate = best.clone();
        candidate.rules.remove(i);
        if still_fails(case, &candidate, timeout_ms, kind) {
            best = candidate;
        } else {
            i += 1;
        }
    }
    // Pass 2: clamp magnitudes on the survivors.
    for i in 0..best.rules.len() {
        for mutate in [
            |r: &mut qrel_faults::FaultRule| r.prob = 1.0,
            |r: &mut qrel_faults::FaultRule| r.max_fires = 1,
            |r: &mut qrel_faults::FaultRule| r.delay_ms = r.delay_ms.min(25),
        ] {
            let mut candidate = best.clone();
            mutate(&mut candidate.rules[i]);
            if candidate != best && still_fails(case, &candidate, timeout_ms, kind) {
                best = candidate;
            }
        }
    }
    best
}

fn write_chaos_repro(dir: &Path, kind: &str, case: &FuzzCase, plan: &FaultPlan) -> Option<PathBuf> {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create corpus dir {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("chaos-{}-{}.json", kind, plan.seed));
    let text = format!(
        "{{\"check\":{:?},\"plan\":{},\"case\":{}}}\n",
        kind,
        plan.to_json(),
        serde_json::to_string(case).ok()?
    );
    match std::fs::write(&path, text) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write repro {}: {e}", path.display());
            None
        }
    }
}

/// The chaos sweep: for pair `i`, generate a query case and a fault plan
/// from `start_seed + i`, run the pair, and on a violation shrink plan
/// then instance before recording it.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let mut report = ChaosReport {
        pairs: 0,
        violations: Vec::new(),
        outcomes: Vec::new(),
    };
    // DNF-event families have no HTTP surface; cycle the query families.
    let families = ["qf", "sjf-cq", "efo", "universal"];
    for i in 0..cfg.pairs {
        let seed = cfg.start_seed + i;
        let case = gen::generate(seed, families[(seed % families.len() as u64) as usize]);
        let plan = sample_plan(seed);
        report.pairs += 1;
        match run_pair(&case, &plan, cfg.timeout_ms) {
            Ok((fingerprint, verdict)) => {
                report.outcomes.push(format!("{seed} {fingerprint}"));
                if let Some((kind, detail)) = verdict {
                    eprintln!("chaos violation [{kind}] seed {seed}: {detail}");
                    let small_plan = shrink_plan(&case, &plan, cfg.timeout_ms, &kind);
                    let small_case = shrink(&case, &|c: &FuzzCase| {
                        still_fails(c, &small_plan, cfg.timeout_ms, &kind)
                    });
                    let path = cfg
                        .corpus_dir
                        .as_deref()
                        .and_then(|d| write_chaos_repro(d, &kind, &small_case, &small_plan));
                    report.violations.push(ChaosViolation {
                        kind,
                        detail,
                        case: small_case,
                        plan: small_plan,
                        path,
                    });
                }
            }
            Err(e) => {
                // Setup failures (bad generator case, bind failure) are
                // violations too: chaos must never silently skip pairs.
                report.outcomes.push(format!("{seed} setup-error"));
                report.violations.push(ChaosViolation {
                    kind: "chaos-setup".into(),
                    detail: e,
                    case,
                    plan,
                    path: None,
                });
            }
        }
    }
    report
}

/// Render the one-line summary the CLI prints.
pub fn summarize(report: &ChaosReport) -> String {
    format!(
        "chaos: {} pairs, {} violations",
        report.pairs,
        report.violations.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sampling_is_deterministic_and_bounded() {
        for seed in 0..50 {
            let a = sample_plan(seed);
            let b = sample_plan(seed);
            assert_eq!(a, b, "plan for seed {seed} not deterministic");
            assert!(!a.rules.is_empty() && a.rules.len() <= 3);
            for r in &a.rules {
                if r.delay_ms > 0 {
                    assert!(r.max_fires >= 1, "unbounded stall rule in {a:?}");
                }
            }
        }
    }

    #[test]
    fn latency_bound_accounts_for_plan_stalls() {
        let quiet = FaultPlan::new(1);
        assert_eq!(latency_bound(&quiet, 1_000), 1_000 + WATCHDOG_MS + SLACK_MS);
        let stall = FaultPlan::new(1).with_rule(&points::rung_stall("exact"), 1.0, 400, 0);
        assert_eq!(
            latency_bound(&stall, 1_000),
            1_000 + WATCHDOG_MS + SLACK_MS + 400
        );
        // A capped rule never exceeds its own max_fires...
        let capped = FaultPlan::new(1).with_rule(&points::rung_stall("exact"), 1.0, 400, 1);
        let with_panic = capped
            .clone()
            .with_rule(&points::rung_panic("exact"), 1.0, 0, 0);
        assert_eq!(
            latency_bound(&with_panic, 1_000),
            1_000 + WATCHDOG_MS + SLACK_MS + 400
        );
        // ...but an uncapped stall buys one fire per retry attempt once a
        // panic rule makes the rung transient.
        let both = stall.with_rule(&points::rung_panic("exact"), 1.0, 0, 0);
        assert_eq!(
            latency_bound(&both, 1_000),
            1_000 + WATCHDOG_MS + SLACK_MS + 400 * (1 + MAX_RUNG_RETRIES as u64)
        );
    }

    #[test]
    fn classify_accepts_identical_healed_and_tagged_only() {
        let full = r#"{"reliability":0.5,"exact":"1/2","bounds":[0.5,0.5],"method":"exact","confidence":"full","guaranteed":true,"spent":{"x":1},"trace":[]}"#;
        let healed = r#"{"reliability":0.5,"exact":"1/2","bounds":[0.5,0.5],"method":"exact","confidence":"full","guaranteed":true,"spent":{"x":2},"trace":["rung exact panicked (attempt 1)"]}"#;
        let wrong = r#"{"reliability":0.7,"exact":"7/10","bounds":[0.7,0.7],"method":"exact","confidence":"full","guaranteed":true,"spent":{"x":1},"trace":[]}"#;
        assert!(classify(200, full, full, 10, 100).is_none());
        assert!(classify(200, healed, full, 10, 100).is_none());
        assert!(matches!(
            classify(200, wrong, full, 10, 100),
            Some((k, _)) if k == "chaos-bitflip"
        ));
        assert!(classify(
            422,
            r#"{"error":"budget exhausted: deadline"}"#,
            full,
            10,
            100
        )
        .is_none());
        assert!(matches!(
            classify(500, "oops", full, 10, 100),
            Some((k, _)) if k == "chaos-untagged-error"
        ));
        assert!(matches!(
            classify(200, full, full, 500, 100),
            Some((k, _)) if k == "chaos-hang"
        ));
    }

    #[test]
    fn chaos_sweep_holds_and_replays_bit_identically() {
        let cfg = ChaosConfig {
            pairs: 6,
            start_seed: 9_000,
            timeout_ms: 2_000,
            corpus_dir: None,
        };
        let first = run_chaos(&cfg);
        assert_eq!(first.pairs, 6);
        assert!(
            first.violations.is_empty(),
            "fail-closed invariant broken: {:#?}",
            first.violations
        );
        let second = run_chaos(&cfg);
        assert_eq!(
            first.outcomes, second.outcomes,
            "chaos replay is not deterministic"
        );
    }

    #[test]
    fn worker_panic_storm_stays_fail_closed() {
        // Every request panics its worker: both rounds must come back as
        // tagged 500s, never as silent garbage, and the sweep must say so.
        let case = gen::generate(42, "qf");
        let plan = FaultPlan::new(7).with_rule(points::SERVE_WORKER_PANIC, 1.0, 0, 0);
        let (fingerprint, verdict) = run_pair(&case, &plan, 2_000).unwrap();
        assert!(verdict.is_none(), "{verdict:?}");
        assert!(fingerprint.ends_with("ee"), "{fingerprint}");
    }

    #[test]
    fn cache_poison_is_detected_not_served() {
        // Poison the cached reply on the hit round: the server must
        // detect the checksum mismatch, recompute, and still answer with
        // fault-free bytes.
        let case = gen::generate(43, "qf");
        let plan = FaultPlan::new(8).with_rule(points::CACHE_REPLY_POISON, 1.0, 0, 0);
        let (fingerprint, verdict) = run_pair(&case, &plan, 2_000).unwrap();
        assert!(verdict.is_none(), "{verdict:?}");
        assert!(
            fingerprint.ends_with("=="),
            "poisoned cache changed bytes: {fingerprint}"
        );
    }

    #[test]
    fn store_probe_recovers_under_injected_faults() {
        // Each durability point fires exactly once at full probability:
        // the first commit aborts fail-closed (`f`), the retries land
        // (`cc`), and the final cold reopen verifies clean.
        for (seed, point) in [
            (1_001, points::STORE_SEGMENT_TORN_WRITE),
            (1_002, points::STORE_COMMIT_CRASH),
        ] {
            let plan = FaultPlan::new(seed).with_rule(point, 1.0, 0, 1);
            let guard = plan.arm();
            let marks = store_probe(seed).unwrap();
            drop(guard);
            assert_eq!(marks, "fcc", "{point}");
        }
    }

    #[test]
    fn store_rules_trigger_the_probe_in_run_pair() {
        let case = gen::generate(45, "qf");
        let plan = FaultPlan::new(11).with_rule(points::STORE_SEGMENT_TORN_WRITE, 1.0, 0, 1);
        let (fingerprint, verdict) = run_pair(&case, &plan, 2_000).unwrap();
        assert!(verdict.is_none(), "{verdict:?}");
        // Two HTTP rounds untouched by store faults, then the probe:
        // one aborted commit, two clean ones.
        assert!(fingerprint.ends_with("==|fcc"), "{fingerprint}");
    }

    #[test]
    fn plan_shrinking_drops_irrelevant_rules() {
        // A synthetic "violation": treat any pair whose plan contains the
        // worker-panic rule as failing, and check the shrinker strips the
        // two bystander rules. Exercises the shrink loop without needing
        // a real handler bug in the tree.
        let case = gen::generate(44, "qf");
        let plan = FaultPlan::new(9)
            .with_rule(points::SERVE_WORKER_PANIC, 1.0, 0, 0)
            .with_rule(points::PAR_SHARD_STALL, 0.5, 25, 1)
            .with_rule(points::BUDGET_SPURIOUS_TRIP, 0.25, 0, 1);
        // Shrink against a predicate that only needs the panic rule. We
        // can't use `still_fails` (no real violation), so inline the
        // same passes via a local copy of the predicate contract.
        let mut best = plan.clone();
        let fails = |p: &FaultPlan| {
            p.rules
                .iter()
                .any(|r| r.point == points::SERVE_WORKER_PANIC)
        };
        let mut i = 0;
        while i < best.rules.len() {
            if best.rules.len() == 1 {
                break;
            }
            let mut candidate = best.clone();
            candidate.rules.remove(i);
            if fails(&candidate) {
                best = candidate;
            } else {
                i += 1;
            }
        }
        assert_eq!(best.rules.len(), 1, "{best:?}");
        assert_eq!(best.rules[0].point, points::SERVE_WORKER_PANIC);
        let _ = case; // the instance is irrelevant to this pass
    }
}
