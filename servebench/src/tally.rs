//! Closed-loop operation accounting.
//!
//! Every operation a client starts is attempted; it either completes
//! (right status, right answer) or fails. Only completed operations
//! contribute latency samples.

use std::time::Instant;

/// What one closed-loop operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `POST /v1/solve`.
    Solve,
    /// `POST /v1/datasets/{name}/facts`.
    Write,
}

/// The outcome of one operation as the client saw it.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub kind: OpKind,
    /// Connect to last response byte.
    pub latency_ms: f64,
    /// `Err` carries why the operation counts as failed: a non-2xx
    /// status, a refused connection, or a wrong answer.
    pub outcome: Result<(), String>,
    /// The server answered from its result cache (`X-Qrel-Cache: hit`).
    pub cache_hit: bool,
    /// The server's own solve time (`X-Qrel-Elapsed-Us`) for misses.
    pub elapsed_us: Option<u64>,
    /// When the operation ended.
    pub finished: Instant,
}

/// Failure messages kept for the diagnostic output.
const KEPT_FAILURES: usize = 8;

/// Aggregated operations of one or more clients over one or more
/// measurement windows.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Completed solves, warm-up included.
    pub solves: u64,
    /// Latency of every completed solve, hits included.
    pub solve_ms: Vec<f64>,
    /// Completion time of each entry of `solve_ms`.
    pub solve_at: Vec<Instant>,
    pub write_ms: Vec<f64>,
    /// Latency of completed solves answered from the result cache.
    pub hit_ms: Vec<f64>,
    /// Server solve time of completed cache-missing solves.
    pub elapsed_us: Vec<f64>,
    /// Client latency minus server solve time, per cache-missing solve:
    /// HTTP, admission and scheduler hand-off.
    pub outside_ms: Vec<f64>,
    /// Summed wall time of the measurement windows.
    pub window_s: f64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, op: OpRecord) {
        self.attempted += 1;
        if let Err(why) = op.outcome {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(why);
            }
            return;
        }
        match op.kind {
            OpKind::Write => self.write_ms.push(op.latency_ms),
            OpKind::Solve => {
                self.solves += 1;
                self.solve_ms.push(op.latency_ms);
                self.solve_at.push(op.finished);
                if op.cache_hit {
                    self.hit_ms.push(op.latency_ms);
                } else if let Some(us) = op.elapsed_us {
                    self.elapsed_us.push(us as f64);
                    self.outside_ms.push(op.latency_ms - us as f64 / 1e3);
                }
            }
        }
    }

    /// Fold another tally (another client, or another window) in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.solves += other.solves;
        self.solve_ms.extend(other.solve_ms);
        self.solve_at.extend(other.solve_at);
        self.write_ms.extend(other.write_ms);
        self.hit_ms.extend(other.hit_ms);
        self.elapsed_us.extend(other.elapsed_us);
        self.outside_ms.extend(other.outside_ms);
        self.window_s += other.window_s;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Failed over attempted operations.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Forget the latency of solves that completed before `at`.
    pub fn drop_solves_before(&mut self, at: Instant) {
        let keep: Vec<bool> = self.solve_at.iter().map(|&t| t >= at).collect();
        let mut flags = keep.iter();
        self.solve_ms
            .retain(|_| *flags.next().expect("one flag per sample"));
        self.solve_at.retain(|&t| t >= at);
    }

    /// Solve latencies in the order the solves completed, across
    /// clients.
    pub fn solve_ms_by_completion(&self) -> Vec<f64> {
        let mut order: Vec<usize> = (0..self.solve_ms.len()).collect();
        order.sort_by_key(|&i| self.solve_at[i]);
        order.into_iter().map(|i| self.solve_ms[i]).collect()
    }

    /// Completed solves served from the result cache, over completed
    /// solves.
    pub fn hit_ratio(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.hit_ms.len() as f64 / self.solves as f64
        }
    }
}
