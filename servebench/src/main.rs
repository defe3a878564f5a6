//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against an in-process server and prints, as its
//! last line, one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Lines before it, each starting with `#`, record the
//! run environment, sample counts and every metric in readable form.
//! Scratch files live under `.bench_work/` in the working directory.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qrel_servebench::harness::{CLIENTS, WORKERS};
use qrel_servebench::report::{self, END_TO_END, PER_LAYER};
use qrel_servebench::workloads::{self, Ctx, Measured, Workload};
use qrel_servebench::{stats, sys};
use serde::Value;

/// The store's durability policy, which has no setting to record.
const FLUSH_POLICY: &str = "fsync of segment, directory and manifest on every commit";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn env_record(args: &Args, root: &Path, run_dir: &Path, m: &Measured) -> String {
    let store = match &m.store_fs {
        Some(fs) => format!(
            "\"store_dir\": \"{}\", \"store_fs\": \"{fs}\", \"flush\": \"{FLUSH_POLICY}\"",
            run_dir.strip_prefix(root).unwrap_or(run_dir).display()
        ),
        None => "\"store_dir\": null, \"store_fs\": null, \"flush\": null".into(),
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"clients\": {CLIENTS}, \"workers\": {WORKERS}, \"sched_workers\": {WORKERS}, \
         \"commit\": \"{}\", \"profile\": \"{}\", {store}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        sys::nproc(),
        sys::git_commit(root),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

fn run(args: &Args, root: &Path, work: &Path, run_dir: &Path) -> Result<String, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: run_dir.to_path_buf(),
    };
    let m = workloads::run(args.workload, &ctx)?;
    let (metrics, values) = if args.trace {
        (&PER_LAYER[..], report::per_layer(&m)?)
    } else {
        (&END_TO_END[..], report::end_to_end(&m)?)
    };
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    if let Some(replay) = &m.replay {
        let spans = work.join(format!("spans-{tag}.jsonl"));
        replay
            .tr
            .write_jsonl(&spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
    }

    let env = env_record(args, root, run_dir, &m);
    let t = &m.tally;
    let samples = format!(
        "{{\"solves\": {}, \"highest_supported_percentile\": {}, \"writes\": {}, \"cache_hits\": {}, \
         \"setups\": {}, \"window_s\": {}, \"fail_ratio\": {}}}",
        t.solve_ms.len(),
        stats::highest_percentile(t.solve_ms.len()).map_or("null".into(), |p| p.to_string()),
        t.write_ms.len(),
        t.hit_ms.len(),
        m.setup_s.len(),
        t.window_s,
        t.fail_ratio()
    );
    // The last `/metrics` scrape, histogram buckets left out.
    let counters = serde_json::to_string(&Value::Object(
        m.counters
            .iter()
            .filter(|(series, _)| !series.contains("_bucket"))
            .map(|(series, v)| (series.clone(), Value::Float(*v)))
            .collect(),
    ))
    .map_err(|e| e.to_string())?;
    println!("# env {env}");
    println!("# samples {samples}");
    println!("# counters {counters}");
    for ((name, unit), v) in metrics.iter().zip(&values) {
        println!("#   {name:<36} {v:>14.4} {unit}");
    }
    for e in t.failures.iter().chain(&m.errors) {
        eprintln!("servebench: {e}");
    }
    let correct = t.failed == 0 && m.errors.is_empty();
    let line = report::result_line(correct, t.attempted, t.failed, metrics, &values);
    let record = work.join(format!("result-{tag}.json"));
    std::fs::write(
        &record,
        format!(
            "{{\"env\": {env}, \"samples\": {samples}, \"counters\": {counters}, \"result\": {line}}}\n"
        ),
    )
    .map_err(|e| format!("write {}: {e}", record.display()))?;
    Ok(line)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let root: PathBuf = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("servebench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work = root.join(".bench_work");
    let run_dir = work.join(format!(
        "run-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("servebench: cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args, &root, &work, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
