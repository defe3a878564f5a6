//! `steadiness [--runs N] [--seconds S] [--first-seed K]`
//!
//! Runs each workload `N` times on one build (seeds `K .. K+N`, one
//! after another) with the `servebench` binary beside this one, and
//! prints for every (metric, workload) the median, the quartiles, and
//! the spread — interquartile distance over median, as Python's
//! `statistics.quantiles(values, n=4)` gives it — against the metric's
//! bound in `BENCHMARK.json`, for the end-to-end metrics. Run it from
//! the repository root.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use qrel_servebench::report::END_TO_END;
use qrel_servebench::stats::{median, quartiles, spread};
use qrel_servebench::workloads::Workload;
use serde::Value;

struct Args {
    runs: u64,
    seconds: String,
    first_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        runs: 10,
        seconds: "10".into(),
        first_seed: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value:?}");
        match flag.as_str() {
            "--runs" => args.runs = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.clone(),
            "--first-seed" => args.first_seed = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.runs < 2 {
        return Err("--runs must be at least 2 for quartiles".into());
    }
    Ok(args)
}

/// End-to-end bounds by metric name, from `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    Ok(metrics
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            let bound = match m.get("bound")? {
                Value::Float(b) => *b,
                Value::Int(b) => *b as f64,
                _ => return None,
            };
            Some((name, bound))
        })
        .collect())
}

/// One run: the metrics of its result line, and whether it was correct.
fn run_once(
    args: &Args,
    workload: Workload,
    seed: u64,
) -> Result<(bool, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bench = exe.with_file_name("servebench");
    let out = Command::new(&bench)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("run {}: {e}", bench.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited {}: {}",
            workload.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let v: Value = serde_json::from_str(last).map_err(|e| format!("result line: {e}"))?;
    let correct = matches!(v.get("correct"), Some(Value::Bool(true)));
    let metrics = v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| {
            let value = match m.get("value")? {
                Value::Float(x) => *x,
                Value::Int(x) => *x as f64,
                _ => return None,
            };
            Some((name.clone(), value))
        })
        .collect();
    Ok((correct, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("steadiness: {e}");
            return ExitCode::from(2);
        }
    };
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("steadiness: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    if let Some(name) = names.iter().find(|n| !bounds.contains_key(**n)) {
        eprintln!("steadiness: BENCHMARK.json gives {name} no bound");
        return ExitCode::FAILURE;
    }
    let mut loose = 0;
    println!(
        "{} runs per workload, seeds {}..{}, --seconds {}\n",
        args.runs,
        args.first_seed,
        args.first_seed + args.runs - 1,
        args.seconds,
    );
    println!("| metric | workload | median | q1 | q3 | spread | bound | spread/bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for workload in Workload::ALL {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for seed in args.first_seed..args.first_seed + args.runs {
            match run_once(&args, workload, seed) {
                Ok((correct, metrics)) => {
                    if !correct {
                        eprintln!(
                            "steadiness: {} seed {seed} reported correct=false",
                            workload.name()
                        );
                        loose += 1;
                    }
                    for name in &names {
                        if let Some(v) = metrics.get(*name) {
                            values.entry(name).or_default().push(*v);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("steadiness: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        for name in &names {
            let v = values.get(name).cloned().unwrap_or_default();
            let (Some((q1, _, q3)), Some(med)) = (quartiles(&v), median(&v)) else {
                continue;
            };
            let s = spread(&v).unwrap_or(0.0);
            let b = bounds[*name];
            let verdict = if s < b / 3.0 {
                "steady"
            } else if s <= b {
                "within bound"
            } else {
                loose += 1;
                "LOOSE"
            };
            println!(
                "| {name} | {} | {med:.6} | {q1:.6} | {q3:.6} | {s:.4} | {b} | {:.2} | {verdict} |",
                workload.name(),
                s / b
            );
        }
    }
    if loose > 0 {
        eprintln!("steadiness: {loose} loose or incorrect result(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
