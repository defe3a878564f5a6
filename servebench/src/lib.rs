//! End-to-end benchmark of the qrel serving stack.
//!
//! One process boots an in-process `qrel_serve::Server` on loopback and
//! drives it with a closed loop of client threads, checking every
//! answer against references computed before the clock starts. A
//! separate traced run replays each workload's requests through the
//! layers' public functions and reports per-layer self times. See
//! `README.md` beside this crate for the workloads and which metric
//! each layer should move, and `BENCHMARK.json` at the repository root
//! for the contract.

pub mod client;
pub mod gen;
pub mod harness;
pub mod replay;
pub mod report;
pub mod stats;
pub mod sys;
pub mod tally;
pub mod trace;
pub mod workloads;
