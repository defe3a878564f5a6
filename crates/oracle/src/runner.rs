//! The fuzz loop: generate → differential check → metamorphic check →
//! envelope accounting → shrink → serialize repros.

use crate::case::FuzzCase;
use crate::diff::{check_case, check_case_salted};
use crate::gen::{self, FAMILIES};
use crate::meta::check_metamorphic;
use crate::shrink::shrink;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Configuration for one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of generated cases.
    pub seeds: u64,
    /// First seed; case `i` uses seed `start_seed + i`.
    pub start_seed: u64,
    /// Wall-clock cap; the loop stops cleanly once exceeded.
    pub budget_ms: Option<u64>,
    /// Sampler envelope ε.
    pub eps: f64,
    /// Sampler envelope δ.
    pub delta: f64,
    /// Where to serialize shrunk repros (`None` = don't write).
    pub corpus_dir: Option<PathBuf>,
    /// Families to draw from, round-robin.
    pub families: Vec<String>,
    /// Run the sampler engines too (slower ~100×, but covers the
    /// stochastic half of the engine zoo).
    pub sample: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seeds: 100,
            start_seed: 1,
            budget_ms: None,
            eps: 0.25,
            delta: 0.2,
            corpus_dir: None,
            families: FAMILIES.iter().map(|s| s.to_string()).collect(),
            sample: true,
        }
    }
}

/// Per-sampler-engine envelope accounting across a whole run.
#[derive(Debug, Clone)]
pub struct EngineStats {
    pub engine: String,
    pub trials: u64,
    pub failures: u64,
    /// Largest envelope-normalized error seen (1.0 = at the boundary).
    pub worst_err: f64,
    /// The case that produced `worst_err`.
    pub worst_case: Option<FuzzCase>,
}

/// A confirmed discrepancy, shrunk and (optionally) written to disk.
#[derive(Debug, Clone)]
pub struct Repro {
    pub check: String,
    pub case: FuzzCase,
    pub path: Option<PathBuf>,
}

/// Outcome of a fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    pub cases: u64,
    pub repros: Vec<Repro>,
    pub engines: Vec<EngineStats>,
    /// Cases each referee check ran on.
    pub referees: BTreeMap<&'static str, u64>,
    /// `true` if the wall-clock budget stopped the loop early.
    pub stopped_early: bool,
    pub elapsed_ms: u128,
}

impl FuzzReport {
    /// No discrepancies of any kind.
    pub fn clean(&self) -> bool {
        self.repros.is_empty()
    }

    /// Multi-line human summary for the CLI.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fuzz: {} cases in {} ms{}",
            self.cases,
            self.elapsed_ms,
            if self.stopped_early {
                " (stopped by --budget-ms)"
            } else {
                ""
            }
        );
        for (check, cases) in &self.referees {
            let _ = writeln!(s, "  referee {check:>13}: {cases} cases");
        }
        for e in &self.engines {
            let _ = writeln!(
                s,
                "  sampler {:>12}: {} trials, {} envelope misses (worst {:.3}x)",
                e.engine, e.trials, e.failures, e.worst_err
            );
        }
        if self.repros.is_empty() {
            let _ = writeln!(s, "  no discrepancies");
        }
        for r in &self.repros {
            let _ = writeln!(
                s,
                "  DISCREPANCY [{}] {} -> {}",
                r.check,
                r.case,
                r.path
                    .as_ref()
                    .map_or("(not written)".to_string(), |p| p.display().to_string())
            );
        }
        s
    }
}

/// The `n·δ + 3σ` binomial tolerance from `tests/statistical_guarantees.rs`:
/// an engine honoring its δ stays under this with overwhelming probability.
fn binomial_threshold(trials: u64, delta: f64) -> u64 {
    let n = trials as f64;
    (n * delta + 3.0 * (n * delta * (1.0 - delta)).sqrt()).ceil() as u64
}

/// A deterministic failure predicate for the shrinker: the case still
/// produces a failure with the same check name (differential or
/// metamorphic), without any sampler runs.
fn deterministic_fails(case: &FuzzCase, check: &str, eps: f64, delta: f64) -> bool {
    let diff_hit = match check_case(case, eps, delta, false) {
        Ok(out) => out.failures.iter().any(|f| f.check == check),
        Err(_) => false,
    };
    if diff_hit {
        return true;
    }
    match check_metamorphic(case) {
        Ok(fails) => fails.iter().any(|f| f.check == check),
        Err(_) => false,
    }
}

/// Majority predicate for sampler failures: the suspect engine must miss
/// its envelope under at least 5 of 6 fresh seed salts. A correct engine
/// at δ = 0.2 passes this with probability ≈ 1 − 1.6·10⁻³; a hard-broken
/// one fails every salt.
fn sampler_fails(case: &FuzzCase, engine: &str, eps: f64, delta: f64) -> bool {
    let mut misses = 0u32;
    for salt in 1..=6u64 {
        match check_case_salted(case, eps, delta, true, salt) {
            Ok(out) => {
                let trial = out.trials.iter().find(|t| t.engine == engine);
                match trial {
                    Some(t) if !t.ok => misses += 1,
                    Some(_) => {}
                    None => return false,
                }
            }
            Err(_) => return false,
        }
    }
    misses >= 5
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

fn write_repro(dir: &Path, check: &str, case: &FuzzCase) -> Option<PathBuf> {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create corpus dir {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!(
        "repro-{}-{}-{}.json",
        sanitize(check),
        sanitize(&case.family),
        case.seed
    ));
    match std::fs::write(&path, case.to_json()) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Run the full fuzz loop described by `cfg`.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let start = Instant::now();
    let mut repros: Vec<Repro> = Vec::new();
    let mut engines: BTreeMap<String, EngineStats> = BTreeMap::new();
    let mut referees: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut cases = 0u64;
    let mut stopped_early = false;

    for i in 0..cfg.seeds {
        if let Some(ms) = cfg.budget_ms {
            if start.elapsed().as_millis() >= ms as u128 {
                stopped_early = true;
                break;
            }
        }
        let family = &cfg.families[(i % cfg.families.len() as u64) as usize];
        let seed = cfg.start_seed + i;
        let case = gen::generate(seed, family);
        cases += 1;

        let mut failures = Vec::new();
        match check_case(&case, cfg.eps, cfg.delta, cfg.sample) {
            Ok(out) => {
                failures.extend(out.failures);
                for check in out.refereed {
                    *referees.entry(check).or_default() += 1;
                }
                for t in out.trials {
                    let e = engines.entry(t.engine).or_insert_with_key(|k| EngineStats {
                        engine: k.clone(),
                        trials: 0,
                        failures: 0,
                        worst_err: 0.0,
                        worst_case: None,
                    });
                    e.trials += 1;
                    if !t.ok {
                        e.failures += 1;
                    }
                    if t.err > e.worst_err {
                        e.worst_err = t.err;
                        e.worst_case = Some(case.clone());
                    }
                }
            }
            Err(e) => failures.push(crate::diff::Failure {
                check: "harness".to_string(),
                detail: e,
            }),
        }
        match check_metamorphic(&case) {
            Ok(meta) => failures.extend(meta),
            Err(e) => failures.push(crate::diff::Failure {
                check: "harness-meta".to_string(),
                detail: e,
            }),
        }

        // One repro per case: the first failure is the one we shrink —
        // further failures on the same case are almost always the same
        // root cause seen through a different check.
        if let Some(first) = failures.first() {
            eprintln!("fuzz: [{}] {} :: {}", first.check, case, first.detail);
            let check = first.check.clone();
            let (eps, delta) = (cfg.eps, cfg.delta);
            let pred = |c: &FuzzCase| deterministic_fails(c, &check, eps, delta);
            let mut small = if pred(&case) {
                shrink(&case, &pred)
            } else {
                case.clone()
            };
            small.note = format!(
                "found by qrel fuzz: check {check} failed; {}",
                first.detail.chars().take(200).collect::<String>()
            );
            let path = cfg
                .corpus_dir
                .as_deref()
                .and_then(|d| write_repro(d, &check, &small));
            repros.push(Repro {
                check,
                case: small,
                path,
            });
        }
    }

    // Envelope accounting: only flag an engine whose failure count
    // breaches the binomial tolerance for its own δ.
    for stats in engines.values() {
        if stats.trials == 0 || stats.failures <= binomial_threshold(stats.trials, cfg.delta) {
            continue;
        }
        let check = format!("envelope-{}", stats.engine);
        let Some(worst) = &stats.worst_case else {
            continue;
        };
        eprintln!(
            "fuzz: [{}] {}/{} trials missed the envelope",
            check, stats.failures, stats.trials
        );
        let engine = stats.engine.clone();
        let (eps, delta) = (cfg.eps, cfg.delta);
        let pred = |c: &FuzzCase| sampler_fails(c, &engine, eps, delta);
        let mut small = if pred(worst) {
            shrink(worst, &pred)
        } else {
            worst.clone()
        };
        small.note = format!(
            "found by qrel fuzz: sampler {} missed its (eps, delta) envelope in {}/{} trials",
            stats.engine, stats.failures, stats.trials
        );
        let path = cfg
            .corpus_dir
            .as_deref()
            .and_then(|d| write_repro(d, &check, &small));
        repros.push(Repro {
            check,
            case: small,
            path,
        });
    }

    FuzzReport {
        cases,
        repros,
        engines: engines.into_values().collect(),
        referees,
        stopped_early,
        elapsed_ms: start.elapsed().as_millis(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_over_all_families() {
        // The differential layer runs the fault-instrumented solver rungs;
        // keep this crate's concurrently armed chaos plans out.
        let _quiet = qrel_faults::quiesce();
        let cfg = FuzzConfig {
            seeds: 16,
            sample: false,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg);
        assert_eq!(report.cases, 16);
        assert!(report.clean(), "{}", report.summary());
        assert!(!report.stopped_early);
        // Both referees ran, and the summary names them.
        for check in ["eval-compiled", "exact-referee"] {
            assert!(report.referees.get(check) > Some(&0), "{check} never ran");
            assert!(report.summary().contains(check));
        }
    }

    #[test]
    fn budget_stops_the_loop() {
        let cfg = FuzzConfig {
            seeds: u64::MAX / 2,
            budget_ms: Some(1),
            sample: false,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg);
        assert!(report.stopped_early);
        assert!(report.cases < 1_000_000);
    }

    #[test]
    fn binomial_threshold_matches_reference() {
        // Same closed form as tests/statistical_guarantees.rs.
        assert_eq!(binomial_threshold(100, 0.2), 32);
        assert!(binomial_threshold(10, 0.2) >= 2);
    }
}
