//! Booting the in-process server, the closed loop of client threads,
//! and `/metrics` scraping.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qrel_serve::{DrainReport, ServeError, Server, ServerConfig, ServerHandle};

use crate::client;
use crate::sys::{peak_rss_mb, process_cpu};
use crate::tally::{OpKind, OpRecord, Tally};

/// Closed-loop client threads: one per hardware thread of the box the
/// benchmark was sized on.
pub const CLIENTS: usize = 2;
/// HTTP workers; scheduler workers follow them (`sched_workers = 0`).
pub const WORKERS: usize = 2;

/// The configuration every workload serves with: defaults apart from
/// an ephemeral port, the worker count, and the datasets.
pub fn config(preload: Vec<PathBuf>, store: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        sched_workers: 0,
        preload,
        store,
        ..ServerConfig::default()
    }
}

/// A running server.
pub struct Live {
    pub addr: SocketAddr,
    handle: ServerHandle,
    join: JoinHandle<Result<DrainReport, ServeError>>,
}

impl Live {
    /// Bind, start serving, and wait for the first `200` on `/healthz`.
    /// Returns the server and that set-up time in seconds.
    pub fn boot(config: ServerConfig) -> Result<(Live, f64), String> {
        let started = Instant::now();
        let server = Server::bind(config).map_err(|e| format!("server failed to bind: {e}"))?;
        let addr = server.local_addr();
        // Queue the first probe in the listen backlog before the accept
        // loop starts, so the set-up time does not depend on where the
        // acceptor's idle poll happens to be when the probe arrives.
        let first = client::start(addr, &client::encode("GET", "/healthz", b""));
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let ready = first
            .and_then(client::Sent::finish)
            .is_ok_and(|r| r.status == 200);
        while !ready && client::get_text(addr, "/healthz").is_none() {
            if started.elapsed() > Duration::from_secs(60) {
                handle.shutdown();
                let _ = join.join();
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let setup = started.elapsed().as_secs_f64();
        Ok((Live { addr, handle, join }, setup))
    }

    /// Ask the server to drain; [`Live::join`] waits for it.
    pub fn request_stop(&self) {
        self.handle.shutdown();
    }

    pub fn join(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.join.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Pause between set-up samples.
const DRAIN_PAUSE: Duration = Duration::from_millis(20);

/// Set-up time of `boots` fresh servers, each stopped right after it
/// first answers; all of them are joined before returning.
pub fn setup_samples(boots: usize, make: impl Fn() -> ServerConfig) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(boots);
    let mut stopping = Vec::with_capacity(boots);
    for _ in 0..boots {
        let (live, setup) = Live::boot(make())?;
        live.request_stop();
        stopping.push(live);
        samples.push(setup);
        // Let the stopped server's threads wind down (only its watchdog
        // sleeps on) before the next boot competes with them for CPU.
        std::thread::sleep(DRAIN_PAUSE);
    }
    for live in stopping {
        live.join()?;
    }
    Ok(samples)
}

/// Completed operations after which a window reads the peak resident
/// set. Every distinct request adds a result-cache entry, so memory
/// read at the end of a timed window would grow with how fast the box
/// happened to be; this reads it after a fixed amount of served work,
/// which every timed window reaches (each client makes at least 520
/// operations after its warm-up).
pub const RSS_AT_OPS: u64 = 1000;

/// Counts completed operations while the loop runs, so the window can
/// be cut into bins.
#[derive(Default)]
pub struct Meter {
    completed: AtomicU64,
    /// `VmHWM` in MiB once [`RSS_AT_OPS`] operations had completed.
    peak_rss_mb: OnceLock<f64>,
}

impl Meter {
    /// Record `op` in the client's tally and, if it completed, count it.
    pub fn record(&self, tally: &mut Tally, op: OpRecord) {
        if op.outcome.is_ok() {
            // A statistic read by the sampling thread; publishes nothing.
            let completed = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
            if completed == RSS_AT_OPS {
                let _ = self.peak_rss_mb.set(peak_rss_mb());
            }
        }
        tally.record(op);
    }

    fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }
}

/// One stretch of a measurement window.
#[derive(Debug, Clone, Copy)]
pub struct Bin {
    pub secs: f64,
    /// Operations completed in it.
    pub ops: u64,
    /// Process CPU time spent in it.
    pub cpu: Duration,
}

/// Length of the bins a timed window is cut into. Rates are reported
/// as medians over bins, so a burst of load from outside the process
/// that covers less than half of a run barely moves them.
pub const BIN: Duration = Duration::from_secs(1);
/// Start of a timed window left out of the metrics: a fresh server's
/// first seconds run measurably slower while caches and the allocator
/// warm up.
pub const WARMUP: Duration = Duration::from_secs(2);

/// What one closed-loop window measured.
pub struct Window {
    pub tally: Tally,
    /// Consecutive stretches of the window. A trailing partial bin is
    /// dropped; a window shorter than one bin is one bin.
    pub bins: Vec<Bin>,
    /// `VmHWM` in MiB once [`RSS_AT_OPS`] operations had completed, if
    /// as many did.
    pub peak_rss_mb: Option<f64>,
}

/// Run `CLIENTS` client threads from a common start until each returns
/// its tally (plus whatever the workload collects per client). The
/// window is the wall time from the start until the last client
/// finishes, cut into bins of `bin` (or kept whole for `None`); CPU is
/// the whole process's. Bins and solve latencies of the first `warmup`
/// are dropped (operations still count as attempted and failed).
pub fn closed_loop<T, F>(bin: Option<Duration>, warmup: Duration, client: F) -> (Window, Vec<T>)
where
    T: Send,
    F: Fn(usize, &Meter) -> (Tally, T) + Sync,
{
    let start = Barrier::new(CLIENTS + 1);
    let meter = Meter::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (start, client, meter) = (&start, &client, &meter);
                s.spawn(move || {
                    start.wait();
                    let out = client(c, meter);
                    (out, Instant::now())
                })
            })
            .collect();
        let cpu0 = process_cpu();
        start.wait();
        let t0 = Instant::now();
        let mut bins = Vec::new();
        let (mut at, mut ops, mut cpu) = (t0, 0, cpu0);
        if let Some(bin) = bin {
            while !handles.iter().all(|h| h.is_finished()) {
                let now = Instant::now();
                if now < at + bin {
                    std::thread::sleep((at + bin - now).min(Duration::from_millis(50)));
                    continue;
                }
                let (ops_now, cpu_now) = (meter.completed(), process_cpu());
                bins.push(Bin {
                    secs: now.duration_since(at).as_secs_f64(),
                    ops: ops_now - ops,
                    cpu: cpu_now.saturating_sub(cpu),
                });
                (at, ops, cpu) = (now, ops_now, cpu_now);
            }
        }
        let mut tally = Tally::default();
        let mut extras = Vec::with_capacity(CLIENTS);
        let mut end = t0;
        for h in handles {
            let ((t, extra), finished) = h.join().expect("client thread panicked");
            tally.merge(t);
            extras.push(extra);
            end = end.max(finished);
        }
        tally.window_s = end.duration_since(t0).as_secs_f64();
        tally.drop_solves_before(t0 + warmup);
        let warm_bins = bin.map_or(0, |b| {
            (warmup.as_secs_f64() / b.as_secs_f64()).ceil() as usize
        });
        bins.drain(..warm_bins.min(bins.len()));
        if bins.is_empty() {
            bins.push(Bin {
                secs: tally.window_s,
                ops: meter.completed(),
                cpu: process_cpu().saturating_sub(cpu0),
            });
        }
        let peak_rss_mb = meter.peak_rss_mb.get().copied();
        (
            Window {
                tally,
                bins,
                peak_rss_mb,
            },
            extras,
        )
    })
}

/// Send one request and judge the reply: a transport error or a
/// non-200 status fails the operation, and so does `check`.
pub fn op(
    addr: SocketAddr,
    kind: OpKind,
    raw: &[u8],
    check: impl FnOnce(&client::Reply) -> Result<(), String>,
) -> (OpRecord, Option<client::Reply>) {
    match client::send(addr, raw) {
        Err(e) => (
            OpRecord {
                kind,
                latency_ms: 0.0,
                outcome: Err(format!("transport: {e}")),
                cache_hit: false,
                elapsed_us: None,
                finished: Instant::now(),
            },
            None,
        ),
        Ok(reply) => {
            let outcome = if reply.status != 200 {
                Err(format!(
                    "status {}: {}",
                    reply.status,
                    String::from_utf8_lossy(&reply.body)
                ))
            } else {
                check(&reply)
            };
            let record = OpRecord {
                kind,
                latency_ms: reply.latency.as_secs_f64() * 1e3,
                outcome,
                cache_hit: reply.cache_hit,
                elapsed_us: reply.elapsed_us,
                finished: Instant::now(),
            };
            (record, Some(reply))
        }
    }
}

/// `/metrics` as `series → value`, the series keeping its labels
/// (`qrel_solve_total{method="plan"}`).
pub fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let text = client::get_text(addr, "/metrics").ok_or("GET /metrics failed")?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Compare scraped counters with the values the workload's shape
/// implies; each mismatch becomes one message.
pub fn expect_counters(
    counters: &BTreeMap<String, f64>,
    expected: &[(&str, u64)],
    errors: &mut Vec<String>,
) {
    for &(series, want) in expected {
        let got = counters.get(series).copied().unwrap_or(0.0);
        if got != want as f64 {
            errors.push(format!("/metrics {series} = {got}, expected {want}"));
        }
    }
}
