//! Self-healing control plane for the serve path: per-method circuit
//! breakers, the server health state machine, and the drain-rate
//! estimator behind the dynamic `Retry-After` header.
//!
//! ## Circuit breaker
//!
//! One breaker per entry of [`Method::ALL`] (including `auto`), slotted
//! by [`Method::index`]. Classic three-state machine:
//!
//! ```text
//!            N consecutive failures
//!   Closed ──────────────────────────▶ Open
//!     ▲                                 │ cooldown elapses
//!     │ probe succeeds                  ▼
//!     └────────────────────────────  HalfOpen ──▶ Open (probe fails)
//! ```
//!
//! A *failure* is a solve that panicked (even if the retry ladder then
//! healed it — a flapping rung is still flapping) or errored with a
//! non-user-fault kind; user errors (bad query, bad spec) never trip a
//! breaker. While a method's breaker is open, requests for it are
//! refused up front with `503` + `Retry-After` instead of burning a
//! worker on a rung that is currently known-bad. After `cooldown`, one
//! probe request is let through; its outcome closes or re-opens the
//! circuit.
//!
//! ## Health states
//!
//! `/healthz` reports `ok` (all circuits closed), `degraded` (at least
//! one circuit open or half-open), or `draining` (shutdown in
//! progress). The status string is the machine-readable contract;
//! load balancers route on it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qrel_runtime::Method;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

impl BreakerState {
    /// Numeric encoding for the `/metrics` gauge.
    fn as_gauge(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// What the breaker says about an incoming request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Circuit closed — serve normally.
    Allowed,
    /// Circuit half-open — this request is the probe; its outcome
    /// decides the next state.
    Probe,
    /// Circuit open — refuse with `503`; `retry_after_secs` is the
    /// remaining cooldown, rounded up (at least 1).
    Rejected { retry_after_secs: u64 },
}

#[derive(Debug)]
struct BreakerSlot {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    /// A half-open probe is in flight; concurrent requests stay
    /// rejected until it reports back.
    probe_in_flight: bool,
}

impl Default for BreakerSlot {
    fn default() -> Self {
        BreakerSlot {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: None,
            probe_in_flight: false,
        }
    }
}

/// Per-method circuit breakers. One instance per server; all methods
/// take `&self` (a short mutex hold per decision — the solve itself
/// dwarfs it).
#[derive(Debug)]
pub struct Breakers {
    /// One slot per [`Method::ALL`] entry.
    slots: [Mutex<BreakerSlot>; Method::ALL.len()],
    threshold: u32,
    cooldown: Duration,
    opens_total: AtomicU64,
}

impl Breakers {
    /// `threshold` consecutive failures open a circuit; it stays open
    /// for `cooldown` before a probe is admitted. A zero threshold
    /// disables the breakers entirely (every admission is `Allowed`).
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        Breakers {
            slots: Default::default(),
            threshold,
            cooldown,
            opens_total: AtomicU64::new(0),
        }
    }

    fn slot(&self, method: Method) -> std::sync::MutexGuard<'_, BreakerSlot> {
        self.slots[method.index()]
            .lock()
            .expect("breaker slot poisoned")
    }

    /// Gate an incoming request for `method`.
    pub fn admit(&self, method: Method) -> Admission {
        if self.threshold == 0 {
            return Admission::Allowed;
        }
        let mut slot = self.slot(method);
        match slot.state {
            BreakerState::Closed => Admission::Allowed,
            BreakerState::Open => {
                let elapsed = slot.opened_at.map(|t| t.elapsed()).unwrap_or_default();
                if elapsed >= self.cooldown {
                    slot.state = BreakerState::HalfOpen;
                    slot.probe_in_flight = true;
                    Admission::Probe
                } else {
                    let left = self.cooldown.saturating_sub(elapsed);
                    Admission::Rejected {
                        retry_after_secs: (left.as_secs_f64().ceil() as u64).max(1),
                    }
                }
            }
            BreakerState::HalfOpen => {
                if slot.probe_in_flight {
                    Admission::Rejected {
                        retry_after_secs: 1,
                    }
                } else {
                    slot.probe_in_flight = true;
                    Admission::Probe
                }
            }
        }
    }

    /// Record a healthy solve for `method`: closes a half-open circuit,
    /// resets the failure streak.
    pub fn record_success(&self, method: Method) {
        if self.threshold == 0 {
            return;
        }
        let mut slot = self.slot(method);
        slot.state = BreakerState::Closed;
        slot.consecutive_failures = 0;
        slot.opened_at = None;
        slot.probe_in_flight = false;
    }

    /// Record an outcome that is neither a health signal nor a failure
    /// (a user error: bad query, unsupported fragment). Releases a
    /// half-open probe without moving the state, so the next request
    /// probes again; never touches the failure streak.
    pub fn record_neutral(&self, method: Method) {
        if self.threshold == 0 {
            return;
        }
        self.slot(method).probe_in_flight = false;
    }

    /// Record a breaker-relevant failure for `method` (a rung panic or
    /// an internal error — never a user error).
    pub fn record_failure(&self, method: Method) {
        if self.threshold == 0 {
            return;
        }
        let mut slot = self.slot(method);
        match slot.state {
            BreakerState::HalfOpen => {
                // The probe failed: straight back to Open, fresh cooldown.
                slot.state = BreakerState::Open;
                slot.opened_at = Some(Instant::now());
                slot.probe_in_flight = false;
                self.opens_total.fetch_add(1, Ordering::Relaxed);
            }
            BreakerState::Open => {}
            BreakerState::Closed => {
                slot.consecutive_failures += 1;
                if slot.consecutive_failures >= self.threshold {
                    slot.state = BreakerState::Open;
                    slot.opened_at = Some(Instant::now());
                    self.opens_total.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    pub fn state(&self, method: Method) -> BreakerState {
        self.slot(method).state
    }

    /// True iff any circuit is not closed (the server is degraded).
    pub fn any_open(&self) -> bool {
        Method::ALL
            .iter()
            .any(|&m| self.state(m) != BreakerState::Closed)
    }

    /// Prometheus text for the breaker series, appended to the main
    /// metrics render.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(
            "# HELP qrel_circuit_state Circuit state per method (0=closed, 1=open, 2=half-open).\n",
        );
        out.push_str("# TYPE qrel_circuit_state gauge\n");
        for m in Method::ALL {
            out.push_str(&format!(
                "qrel_circuit_state{{method=\"{}\"}} {}\n",
                m.name(),
                self.state(m).as_gauge()
            ));
        }
        out.push_str("# HELP qrel_circuit_opens_total Circuit open transitions.\n");
        out.push_str("# TYPE qrel_circuit_opens_total counter\n");
        out.push_str(&format!(
            "qrel_circuit_opens_total {}\n",
            self.opens_total.load(Ordering::Relaxed)
        ));
        out
    }
}

/// The server-level health state surfaced in `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    Healthy,
    Degraded,
    Draining,
}

impl HealthState {
    pub fn as_str(self) -> &'static str {
        match self {
            // "ok" (not "healthy") is the wire value existing monitors
            // already match on.
            HealthState::Healthy => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Draining => "draining",
        }
    }

    /// healthy → degraded → draining; draining dominates.
    pub fn derive(shutting_down: bool, any_circuit_open: bool) -> HealthState {
        if shutting_down {
            HealthState::Draining
        } else if any_circuit_open {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        }
    }
}

/// Sliding-window drain-rate estimator: counts events (connections a
/// worker picked up) in per-second ring buckets, so the recent rate is
/// the sum over the last few full seconds. Lock-free; staleness is
/// handled by re-zeroing a bucket the first time its second comes
/// around again.
#[derive(Debug)]
pub struct RateEstimator {
    /// `buckets[sec % WINDOW]` = (sec, count) packed as two u32s worth
    /// of info in two atomics.
    seconds: [AtomicU64; Self::WINDOW],
    counts: [AtomicU64; Self::WINDOW],
    epoch: Instant,
}

impl Default for RateEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl RateEstimator {
    const WINDOW: usize = 8;

    pub fn new() -> Self {
        RateEstimator {
            seconds: Default::default(),
            counts: Default::default(),
            epoch: Instant::now(),
        }
    }

    fn now_sec(&self) -> u64 {
        // 1-based so second 0 never collides with the empty-bucket
        // sentinel, and the first wall-clock second is a full bucket.
        self.epoch.elapsed().as_secs() + 1
    }

    /// Record one drained connection.
    pub fn record(&self) {
        let sec = self.now_sec();
        let i = (sec % Self::WINDOW as u64) as usize;
        if self.seconds[i].swap(sec, Ordering::Relaxed) != sec {
            // First event of this bucket's new second: restart its count.
            // (A racing recorder may lose one increment; the estimate
            // only feeds a clamped hint, so that is fine.)
            self.counts[i].store(0, Ordering::Relaxed);
        }
        self.counts[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Events per second over the last full window seconds (excluding
    /// the current, partial second).
    pub fn per_second(&self) -> f64 {
        let now = self.now_sec();
        let mut total = 0u64;
        let mut span = 0u64;
        for i in 0..Self::WINDOW {
            let sec = self.seconds[i].load(Ordering::Relaxed);
            if sec != 0 && sec < now && now - sec <= Self::WINDOW as u64 {
                total += self.counts[i].load(Ordering::Relaxed);
                span = span.max(now - sec);
            }
        }
        if span == 0 {
            return 0.0;
        }
        total as f64 / span as f64
    }
}

/// The `Retry-After` a backpressure rejection should carry: total
/// backlog (connections waiting in the admission queue *plus* jobs
/// queued or running in the scheduler — both must drain before a
/// retried request gets a worker) over the recent drain rate, floored
/// by assuming at least the worker pool drains in parallel, clamped to
/// `1..=30` seconds.
pub fn compute_retry_after(
    queue_depth: u64,
    sched_backlog: u64,
    drain_per_sec: f64,
    workers: usize,
) -> u64 {
    let rate = drain_per_sec.max(workers.max(1) as f64 * 0.1).max(0.1);
    let secs = ((queue_depth + sched_backlog + 1) as f64 / rate).ceil() as u64;
    secs.clamp(1, 30)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_after_cooldown() {
        let b = Breakers::new(3, Duration::from_millis(30));
        assert_eq!(b.admit(Method::Exact), Admission::Allowed);
        b.record_failure(Method::Exact);
        b.record_failure(Method::Exact);
        assert_eq!(b.state(Method::Exact), BreakerState::Closed);
        b.record_failure(Method::Exact);
        assert_eq!(b.state(Method::Exact), BreakerState::Open);
        assert!(matches!(
            b.admit(Method::Exact),
            Admission::Rejected { retry_after_secs } if retry_after_secs >= 1
        ));
        // Other methods are unaffected.
        assert_eq!(b.admit(Method::Fptras), Admission::Allowed);
        // After the cooldown, exactly one probe goes through; the rest
        // keep being rejected until it reports.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(b.admit(Method::Exact), Admission::Probe);
        assert!(matches!(b.admit(Method::Exact), Admission::Rejected { .. }));
        // Probe success closes the circuit.
        b.record_success(Method::Exact);
        assert_eq!(b.state(Method::Exact), BreakerState::Closed);
        assert_eq!(b.admit(Method::Exact), Admission::Allowed);
    }

    #[test]
    fn failed_probe_reopens() {
        let b = Breakers::new(1, Duration::from_millis(10));
        b.record_failure(Method::NaiveMc);
        assert_eq!(b.state(Method::NaiveMc), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(b.admit(Method::NaiveMc), Admission::Probe);
        b.record_failure(Method::NaiveMc);
        assert_eq!(b.state(Method::NaiveMc), BreakerState::Open);
        assert!(matches!(
            b.admit(Method::NaiveMc),
            Admission::Rejected { .. }
        ));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = Breakers::new(3, Duration::from_secs(5));
        b.record_failure(Method::Auto);
        b.record_failure(Method::Auto);
        b.record_success(Method::Auto);
        b.record_failure(Method::Auto);
        b.record_failure(Method::Auto);
        assert_eq!(b.state(Method::Auto), BreakerState::Closed);
    }

    #[test]
    fn zero_threshold_disables_breakers() {
        let b = Breakers::new(0, Duration::from_secs(1));
        for _ in 0..100 {
            b.record_failure(Method::Exact);
        }
        assert_eq!(b.admit(Method::Exact), Admission::Allowed);
        assert!(!b.any_open());
    }

    #[test]
    fn breaker_metrics_render() {
        let b = Breakers::new(1, Duration::from_secs(60));
        b.record_failure(Method::Padding);
        let text = b.render();
        assert!(
            text.contains("qrel_circuit_state{method=\"padding\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("qrel_circuit_state{method=\"exact\"} 0"),
            "{text}"
        );
        assert!(text.contains("qrel_circuit_opens_total 1"), "{text}");
    }

    #[test]
    fn health_state_machine() {
        assert_eq!(HealthState::derive(false, false), HealthState::Healthy);
        assert_eq!(HealthState::derive(false, true), HealthState::Degraded);
        assert_eq!(HealthState::derive(true, false), HealthState::Draining);
        assert_eq!(HealthState::derive(true, true), HealthState::Draining);
        assert_eq!(HealthState::Healthy.as_str(), "ok");
    }

    #[test]
    fn retry_after_scales_with_depth_and_rate() {
        // Shallow queue, healthy drain: bottom of the clamp.
        assert_eq!(compute_retry_after(0, 0, 50.0, 4), 1);
        // Deep queue, slow drain: grows, but clamps at 30.
        let deep = compute_retry_after(64, 0, 2.0, 4);
        assert!((30..=33).contains(&deep), "deep = {deep}");
        assert_eq!(compute_retry_after(10_000, 0, 0.0, 1), 30);
        // Moderate backlog lands strictly between the clamp ends.
        let mid = compute_retry_after(20, 0, 4.0, 4);
        assert!((2..=10).contains(&mid), "mid = {mid}");
    }

    #[test]
    fn retry_after_folds_scheduler_backlog_and_stays_clamped() {
        // Same connection backlog, deeper scheduler backlog: the hint
        // must not shrink, and a heavy backlog must grow it.
        let base = compute_retry_after(4, 0, 4.0, 4);
        let loaded = compute_retry_after(4, 40, 4.0, 4);
        assert!(loaded >= base, "loaded {loaded} < base {base}");
        assert!(loaded > base, "scheduler backlog had no effect");
        // Every corner of the input space respects the 1..=30 clamp.
        for &conn in &[0u64, 1, 64, 10_000] {
            for &jobs in &[0u64, 1, 100, 1_000_000] {
                for &rate in &[0.0, 0.5, 50.0] {
                    for &workers in &[1usize, 4, 32] {
                        let secs = compute_retry_after(conn, jobs, rate, workers);
                        assert!((1..=30).contains(&secs), "retry_after = {secs}");
                    }
                }
            }
        }
    }

    #[test]
    fn rate_estimator_counts_recent_seconds() {
        let r = RateEstimator::new();
        assert_eq!(r.per_second(), 0.0);
        for _ in 0..10 {
            r.record();
        }
        // Events land in the current (partial) second, which per_second
        // excludes; wait for the second boundary.
        std::thread::sleep(Duration::from_millis(1100));
        assert!(r.per_second() > 0.0);
    }
}
