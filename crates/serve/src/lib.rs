//! `qrel-serve`: the query-reliability engine as a networked service.
//!
//! A std-only HTTP/1.1 server (no new dependencies — raw
//! [`std::net::TcpListener`], a fixed worker thread pool) exposing:
//!
//! - `POST /v1/jobs` — enqueue a reliability solve as an asynchronous
//!   job on the [`qrel_sched`] scheduler (bounded per-tenant queues,
//!   priorities, coalescing of cache-equivalent requests), answered
//!   with a `202` receipt carrying the job id;
//! - `GET /v1/jobs` / `GET /v1/jobs/{id}` / `GET /v1/jobs/{id}/result`
//!   / `DELETE /v1/jobs/{id}` — tenant-scoped list, status (with live
//!   progress), stored-result replay, and cancellation;
//! - `POST /v1/solve` — the synchronous facade over the same
//!   scheduler: enqueue and block until terminal. Solves run in
//!   [`qrel_runtime::Solver`] under a per-request
//!   [`qrel_budget::Budget`] deadline;
//! - `GET /healthz` — liveness plus the loaded dataset names;
//! - `GET /metrics` — Prometheus text: request/status counts, per-rung
//!   solve counts, latency histogram, cache hits/misses, queue depth,
//!   scheduler depth/occupancy/transitions, backpressure rejections.
//!
//! Every failure, on every endpoint, is one structured envelope:
//! `{"error":{"code","message","retryable","retry_after_ms"}}` (see
//! [`protocol::ErrorEnvelope`]), with `retry_after_ms` mirroring the
//! `Retry-After` header whenever one is sent.
//!
//! Operational properties, in the same spirit as the solver's
//! degradation ladder (overload degrades service *predictably* instead
//! of failing chaotically):
//!
//! - **Admission control**: a bounded queue between the acceptor and
//!   the workers; when it is full new connections get `429` +
//!   `Retry-After` instead of queueing without bound.
//! - **Result caching**: a sharded, byte-capped LRU keyed by the
//!   store's database hash, canonical query, method, ε/δ bits, and
//!   seed. Only deterministic reports are cached (wall-clock or
//!   cancellation trips are machine-dependent), so a cache hit is
//!   *bit-identical* to the fresh solve it replaces.
//! - **Input hardening**: connection read deadline, maximum body size
//!   checked before the body is read, JSON nesting-depth limits.
//! - **Graceful shutdown**: SIGTERM/ctrl-c stops accepting, drains the
//!   admitted queue, and — only past the grace period — cancels
//!   in-flight budgets through the shared
//!   [`qrel_budget::CancelToken`].

pub mod cache;
pub mod health;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use cache::{canonical_f64_bits, CacheKey, ResultCache};
pub use health::{compute_retry_after, Admission, BreakerState, Breakers, HealthState};
pub use metrics::{canonical_endpoint, render_sched, Metrics};
pub use protocol::{
    error_body, error_code_for_status, job_accepted_body, job_list_body, job_status_body,
    solve_response_body, status_is_retryable, DbRef, ErrorEnvelope, SolveRequest,
};
pub use qrel_sched::Priority;
/// The cache key's db-hash under its historical name, kept because the
/// serve benchmark (`servebench/`) imports it.
pub use qrel_store::db_hash_of as canonical_db_hash;
pub use server::{
    install_shutdown_signals, DrainReport, ServeError, Server, ServerConfig, ServerHandle,
};
