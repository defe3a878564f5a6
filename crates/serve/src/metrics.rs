//! Service metrics: lock-free atomic counters rendered in the
//! Prometheus text exposition format.
//!
//! Every series the ISSUE asks for is here: request counts by
//! endpoint/status, per-rung solve counts, a solve-latency histogram,
//! cache hits/misses, live queue depth, and the rejected-request
//! (backpressure) count. Label sets are fixed at compile time so the
//! hot path is a single `fetch_add` — no allocation, no locking.

use std::sync::atomic::{AtomicU64, Ordering};

use qrel_runtime::Method;

/// Endpoints tracked as label values (everything else is `other`).
/// Job-instance paths are canonicalized to the `/v1/jobs/{id}` label and
/// dataset-instance paths to `/v1/datasets/{name}` so the cardinality
/// stays fixed no matter how many jobs or datasets exist.
pub const ENDPOINTS: [&str; 8] = [
    "/v1/solve",
    "/v1/jobs",
    "/v1/jobs/{id}",
    "/v1/datasets",
    "/v1/datasets/{name}",
    "/healthz",
    "/metrics",
    "other",
];

/// Statuses tracked as label values. Anything else lands in a
/// catch-all `other` column — under fault injection a novel status must
/// count somewhere, never panic the worker's metrics path.
pub const STATUSES: [u16; 12] = [200, 202, 400, 404, 405, 408, 409, 413, 422, 429, 500, 503];

/// Column count for the per-status axis: every tracked status plus the
/// `other` catch-all.
const STATUS_COLS: usize = STATUSES.len() + 1;

/// Histogram bucket upper bounds, in seconds.
pub const LATENCY_BUCKETS: [f64; 9] = [0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 30.0];

/// Collapse a request path onto its endpoint label: exact matches keep
/// their own label, any `/v1/jobs/...` instance path becomes
/// `/v1/jobs/{id}`, everything else is `other`.
pub fn canonical_endpoint(path: &str) -> &'static str {
    if let Some(i) = ENDPOINTS.iter().position(|&e| e == path) {
        return ENDPOINTS[i];
    }
    if path.starts_with("/v1/jobs/") {
        return "/v1/jobs/{id}";
    }
    if path.starts_with("/v1/datasets/") {
        return "/v1/datasets/{name}";
    }
    "other"
}

fn endpoint_index(path: &str) -> usize {
    let label = canonical_endpoint(path);
    ENDPOINTS
        .iter()
        .position(|&e| e == label)
        .unwrap_or(ENDPOINTS.len() - 1)
}

fn status_index(status: u16) -> usize {
    STATUSES
        .iter()
        .position(|&s| s == status)
        .unwrap_or(STATUSES.len())
}

/// The metrics registry. One instance per server, shared by reference
/// across workers; all methods take `&self`.
#[derive(Debug, Default)]
pub struct Metrics {
    /// `requests[endpoint][status]`; the last status column is `other`.
    requests: [[AtomicU64; STATUS_COLS]; ENDPOINTS.len()],
    /// Completed solves by answering rung, indexed by [`Method::index`]
    /// (the `auto` slot stays zero: a report always names a rung).
    solves: [AtomicU64; Method::ALL.len()],
    /// Solve latency histogram: cumulative-style counts are computed at
    /// render time; these are per-bucket (non-cumulative) counts, with
    /// one extra slot for `+Inf`.
    latency_buckets: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    latency_sum_micros: AtomicU64,
    latency_count: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Live admission-queue depth (gauge).
    queue_depth: AtomicU64,
    /// Requests refused with `429` because the queue was full.
    rejected: AtomicU64,
    /// In-flight solves hard-cancelled by the stuck-worker watchdog.
    watchdog_cancels: AtomicU64,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record_request(&self, path: &str, status: u16) {
        self.requests[endpoint_index(path)][status_index(status)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_solve(&self, rung: Method, latency: std::time::Duration) {
        self.solves[rung.index()].fetch_add(1, Ordering::Relaxed);
        let secs = latency.as_secs_f64();
        let bucket = LATENCY_BUCKETS
            .iter()
            .position(|&ub| secs <= ub)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_micros
            .fetch_add(latency.as_micros() as u64, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_cache(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_watchdog_cancels(&self, solves: u64) {
        self.watchdog_cancels.fetch_add(solves, Ordering::Relaxed);
    }

    pub fn watchdog_cancel_count(&self) -> u64 {
        self.watchdog_cancels.load(Ordering::Relaxed)
    }

    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth as u64, Ordering::Relaxed);
    }

    pub fn rejected_count(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Render the whole registry in the Prometheus text format.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);

        out.push_str(
            "# HELP qrel_http_requests_total HTTP requests served, by endpoint and status.\n",
        );
        out.push_str("# TYPE qrel_http_requests_total counter\n");
        for (e, endpoint) in ENDPOINTS.iter().enumerate() {
            for s in 0..STATUS_COLS {
                let n = self.requests[e][s].load(Ordering::Relaxed);
                if n > 0 {
                    let status = STATUSES
                        .get(s)
                        .map(|s| s.to_string())
                        .unwrap_or_else(|| "other".to_string());
                    out.push_str(&format!(
                        "qrel_http_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {n}\n"
                    ));
                }
            }
        }

        out.push_str("# HELP qrel_solve_total Completed solves, by answering ladder rung.\n");
        out.push_str("# TYPE qrel_solve_total counter\n");
        for &rung in Method::RUNGS {
            let n = self.solves[rung.index()].load(Ordering::Relaxed);
            out.push_str(&format!("qrel_solve_total{{method=\"{rung}\"}} {n}\n"));
        }

        out.push_str("# HELP qrel_solve_latency_seconds Solve latency (cache misses only).\n");
        out.push_str("# TYPE qrel_solve_latency_seconds histogram\n");
        let mut cumulative = 0u64;
        for (i, ub) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += self.latency_buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "qrel_solve_latency_seconds_bucket{{le=\"{ub}\"}} {cumulative}\n"
            ));
        }
        cumulative += self.latency_buckets[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        out.push_str(&format!(
            "qrel_solve_latency_seconds_bucket{{le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!(
            "qrel_solve_latency_seconds_sum {}\n",
            self.latency_sum_micros.load(Ordering::Relaxed) as f64 / 1e6
        ));
        out.push_str(&format!(
            "qrel_solve_latency_seconds_count {}\n",
            self.latency_count.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP qrel_cache_hits_total Result-cache hits.\n");
        out.push_str("# TYPE qrel_cache_hits_total counter\n");
        out.push_str(&format!(
            "qrel_cache_hits_total {}\n",
            self.cache_hits.load(Ordering::Relaxed)
        ));
        out.push_str("# HELP qrel_cache_misses_total Result-cache misses.\n");
        out.push_str("# TYPE qrel_cache_misses_total counter\n");
        out.push_str(&format!(
            "qrel_cache_misses_total {}\n",
            self.cache_misses.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP qrel_queue_depth Connections waiting in the admission queue.\n");
        out.push_str("# TYPE qrel_queue_depth gauge\n");
        out.push_str(&format!(
            "qrel_queue_depth {}\n",
            self.queue_depth.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP qrel_rejected_total Requests refused with 429 (queue full).\n");
        out.push_str("# TYPE qrel_rejected_total counter\n");
        out.push_str(&format!(
            "qrel_rejected_total {}\n",
            self.rejected.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP qrel_watchdog_cancels_total Solves hard-cancelled by the stuck-worker watchdog.\n",
        );
        out.push_str("# TYPE qrel_watchdog_cancels_total counter\n");
        out.push_str(&format!(
            "qrel_watchdog_cancels_total {}\n",
            self.watchdog_cancels.load(Ordering::Relaxed)
        ));

        out
    }
}

/// Render a scheduler counter snapshot in the Prometheus text format,
/// appended to the main registry render. Depth gauges, per-tenant
/// occupancy, coalesce hits, and every job-state transition counter.
pub fn render_sched(stats: &qrel_sched::SchedStats) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("# HELP qrel_sched_queued_jobs Job records waiting for a worker.\n");
    out.push_str("# TYPE qrel_sched_queued_jobs gauge\n");
    out.push_str(&format!("qrel_sched_queued_jobs {}\n", stats.queued_jobs));
    out.push_str(
        "# HELP qrel_sched_queued_groups Distinct executions waiting (coalesced jobs share one).\n",
    );
    out.push_str("# TYPE qrel_sched_queued_groups gauge\n");
    out.push_str(&format!(
        "qrel_sched_queued_groups {}\n",
        stats.queued_groups
    ));
    out.push_str("# HELP qrel_sched_running_jobs Job records currently executing.\n");
    out.push_str("# TYPE qrel_sched_running_jobs gauge\n");
    out.push_str(&format!("qrel_sched_running_jobs {}\n", stats.running_jobs));
    out.push_str(
        "# HELP qrel_sched_tenant_jobs Non-terminal jobs per tenant (bounded by the tenant cap).\n",
    );
    out.push_str("# TYPE qrel_sched_tenant_jobs gauge\n");
    for (tenant, n) in &stats.per_tenant {
        out.push_str(&format!(
            "qrel_sched_tenant_jobs{{tenant=\"{tenant}\"}} {n}\n"
        ));
    }
    out.push_str(
        "# HELP qrel_sched_coalesce_hits_total Submits absorbed by an equivalent live job.\n",
    );
    out.push_str("# TYPE qrel_sched_coalesce_hits_total counter\n");
    out.push_str(&format!(
        "qrel_sched_coalesce_hits_total {}\n",
        stats.coalesce_hits
    ));
    out.push_str("# HELP qrel_sched_rejected_total Submits refused at the per-tenant queue cap.\n");
    out.push_str("# TYPE qrel_sched_rejected_total counter\n");
    out.push_str(&format!(
        "qrel_sched_rejected_total {}\n",
        stats.rejected_full
    ));
    out.push_str("# HELP qrel_sched_jobs_total Job-state transitions, by transition.\n");
    out.push_str("# TYPE qrel_sched_jobs_total counter\n");
    for (transition, n) in [
        ("enqueued", stats.enqueued_total),
        ("started", stats.started_total),
        ("done", stats.done_total),
        ("failed", stats.failed_total),
        ("cancelled_queued", stats.cancelled_queued_total),
        ("cancelled_running", stats.cancelled_running_total),
    ] {
        out.push_str(&format!(
            "qrel_sched_jobs_total{{transition=\"{transition}\"}} {n}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_land_in_the_right_series() {
        let m = Metrics::new();
        m.record_request("/v1/solve", 200);
        m.record_request("/v1/solve", 200);
        m.record_request("/healthz", 200);
        m.record_request("/nope", 404);
        m.record_rejected();
        m.record_cache(true);
        m.record_cache(false);
        m.set_queue_depth(3);
        m.record_solve(Method::Exact, Duration::from_millis(2));
        let text = m.render();
        assert!(text.contains("qrel_http_requests_total{endpoint=\"/v1/solve\",status=\"200\"} 2"));
        assert!(text.contains("qrel_http_requests_total{endpoint=\"other\",status=\"404\"} 1"));
        assert!(text.contains("qrel_solve_total{method=\"exact\"} 1"));
        assert!(text.contains("qrel_cache_hits_total 1"));
        assert!(text.contains("qrel_cache_misses_total 1"));
        assert!(text.contains("qrel_queue_depth 3"));
        assert!(text.contains("qrel_rejected_total 1"));
        assert!(text.contains("qrel_solve_latency_seconds_count 1"));
    }

    #[test]
    fn untracked_status_lands_in_other_bucket_without_panicking() {
        let m = Metrics::new();
        // Under fault injection novel statuses appear; the metrics path
        // must absorb them, not kill the worker.
        m.record_request("/v1/solve", 418);
        m.record_request("/v1/solve", 599);
        m.record_request("/nope", 301);
        let text = m.render();
        assert!(
            text.contains("qrel_http_requests_total{endpoint=\"/v1/solve\",status=\"other\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("qrel_http_requests_total{endpoint=\"other\",status=\"other\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn job_paths_canonicalize_onto_fixed_labels() {
        assert_eq!(canonical_endpoint("/v1/jobs"), "/v1/jobs");
        assert_eq!(canonical_endpoint("/v1/jobs/17"), "/v1/jobs/{id}");
        assert_eq!(canonical_endpoint("/v1/jobs/17/result"), "/v1/jobs/{id}");
        assert_eq!(canonical_endpoint("/v1/solve"), "/v1/solve");
        assert_eq!(canonical_endpoint("/v1/jobsx"), "other");
        assert_eq!(canonical_endpoint("/v1/datasets"), "/v1/datasets");
        assert_eq!(
            canonical_endpoint("/v1/datasets/census/facts"),
            "/v1/datasets/{name}"
        );
        assert_eq!(canonical_endpoint("/v1/datasetsx"), "other");
        let m = Metrics::new();
        m.record_request("/v1/jobs", 202);
        m.record_request("/v1/jobs/1", 200);
        m.record_request("/v1/jobs/2", 200);
        m.record_request("/v1/jobs/2/result", 409);
        let text = m.render();
        assert!(
            text.contains("qrel_http_requests_total{endpoint=\"/v1/jobs\",status=\"202\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("qrel_http_requests_total{endpoint=\"/v1/jobs/{id}\",status=\"200\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("qrel_http_requests_total{endpoint=\"/v1/jobs/{id}\",status=\"409\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn sched_stats_render_every_series() {
        let stats = qrel_sched::SchedStats {
            queued_groups: 2,
            queued_jobs: 3,
            running_jobs: 1,
            coalesce_hits: 4,
            rejected_full: 5,
            enqueued_total: 9,
            started_total: 6,
            done_total: 5,
            failed_total: 1,
            cancelled_queued_total: 2,
            cancelled_running_total: 1,
            per_tenant: vec![("acme".into(), 3), ("default".into(), 1)],
        };
        let text = render_sched(&stats);
        assert!(text.contains("qrel_sched_queued_jobs 3"), "{text}");
        assert!(text.contains("qrel_sched_queued_groups 2"), "{text}");
        assert!(text.contains("qrel_sched_running_jobs 1"), "{text}");
        assert!(
            text.contains("qrel_sched_tenant_jobs{tenant=\"acme\"} 3"),
            "{text}"
        );
        assert!(text.contains("qrel_sched_coalesce_hits_total 4"), "{text}");
        assert!(text.contains("qrel_sched_rejected_total 5"), "{text}");
        assert!(
            text.contains("qrel_sched_jobs_total{transition=\"enqueued\"} 9"),
            "{text}"
        );
        assert!(
            text.contains("qrel_sched_jobs_total{transition=\"cancelled_running\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.record_solve(Method::Qf, Duration::from_micros(100)); // ≤ 0.0005
        m.record_solve(Method::Qf, Duration::from_millis(50)); // ≤ 0.1
        m.record_solve(Method::Qf, Duration::from_secs(60)); // +Inf
        let text = m.render();
        assert!(text.contains("qrel_solve_latency_seconds_bucket{le=\"0.0005\"} 1"));
        assert!(text.contains("qrel_solve_latency_seconds_bucket{le=\"0.1\"} 2"));
        assert!(text.contains("qrel_solve_latency_seconds_bucket{le=\"30\"} 2"));
        assert!(text.contains("qrel_solve_latency_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("qrel_solve_latency_seconds_count 3"));
    }
}
