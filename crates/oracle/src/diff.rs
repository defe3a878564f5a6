//! The differential layer: run one case through every applicable engine.
//!
//! Two referee checks come first and hold the oracle itself to code it
//! does not share: `eval-compiled` compares the compiled evaluator with
//! the reference interpreter of [`crate::reference`] (answers and
//! `Ok`/`Err`), and `exact-referee` compares `exact_reliability` with
//! the sum over the product-weighted worlds of `ud.worlds()` evaluated by
//! that interpreter, bit for bit.
//!
//! Exact engines must agree **bit-for-bit** in exact rationals — the
//! serial Gray-code enumerator (`exact_probability`, Thm 4.2) is the
//! oracle, and the safe-plan evaluator, Shannon expansion on the
//! unfolded Thm 5.4 grounding (every visited fact a variable), and the
//! bit-sliced world enumerator (64 worlds per word, dyadic fast-path
//! arithmetic) on the folded one (certain facts turned into constants)
//! are all held to exact equality against it — one referee per
//! lineage. For DNF events, Shannon expansion is the oracle and
//! inclusion–exclusion, the ROBDD, the bit-sliced enumerator, and the
//! model counters must match.
//!
//! Every rung in [`Method::RUNGS`] also runs alone through
//! [`Solver::with_method`], judged by one exhaustive `match`
//! (`rung_rule`), so a new rung cannot ship without oracle coverage.
//!
//! Samplers (Karp–Luby, naive MC, the Thm 5.12 padding estimator, the
//! sampling rungs) are *allowed* to miss: each run is one
//! Bernoulli trial whose failure probability is bounded by δ. Trials are
//! therefore returned to the caller, which aggregates failure counts per
//! engine across the whole fuzz run and only flags an engine whose
//! empirical failure rate breaches the `n·δ + 3σ` binomial threshold —
//! the same accounting as `tests/statistical_guarantees.rs`.

use crate::case::FuzzCase;
use crate::reference;
use qrel_arith::BigRational;
use qrel_budget::Budget;
use qrel_core::existential::DEFAULT_MAX_TERMS;
use qrel_core::{
    exact_probability, exact_reliability, existential_probability_bitslice,
    existential_probability_fptras, ExactReport, PaddingEstimator, Route,
};
use qrel_count::exact_dnf::dnf_count_models;
use qrel_count::naive_mc::naive_mc_probability_sharded;
use qrel_count::{
    bounds::hoeffding_samples, dnf_count_models_bitslice, dnf_probability_bdd,
    dnf_probability_bitslice, dnf_probability_ie, dnf_probability_shannon, Bdd, KarpLuby,
};
use qrel_eval::{ground_existential, FoQuery, Query};
use qrel_logic::{Formula, Fragment};
use qrel_par::split_seed;
use qrel_prob::UnreliableDatabase;
use qrel_runtime::{Confidence, Method, Solver};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// A deterministic disagreement between two engines. Always a bug in
/// one of them (or in the oracle harness itself) — never noise.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which cross-check failed, e.g. `"rung-exact"`, `"dnf-ie"`.
    pub check: String,
    /// Human-readable detail carrying both values.
    pub detail: String,
}

/// One sampler run, judged against its (ε, δ) envelope.
#[derive(Debug, Clone)]
pub struct SamplerTrial {
    /// Engine name, e.g. `"karp-luby"`, `"padding"`, `"rung-mc"`.
    pub engine: String,
    /// Whether the estimate landed inside the envelope.
    pub ok: bool,
    /// Envelope-normalized error (1.0 = exactly at the boundary).
    pub err: f64,
}

/// Everything the differential layer observed about one case.
#[derive(Debug, Clone, Default)]
pub struct CheckOutcome {
    pub failures: Vec<Failure>,
    pub trials: Vec<SamplerTrial>,
    /// The solver rungs that answered the case rather than declining.
    pub answered: Vec<Method>,
    /// The referee checks that ran on the case (whether or not they
    /// failed).
    pub refereed: Vec<&'static str>,
}

impl CheckOutcome {
    fn fail(&mut self, check: &str, detail: String) {
        self.failures.push(Failure {
            check: check.to_string(),
            detail,
        });
    }

    fn trial(&mut self, engine: impl Into<String>, ok: bool, err: f64) {
        let engine = engine.into();
        self.trials.push(SamplerTrial { engine, ok, err });
    }
}

/// Run every applicable engine on `case` and cross-check.
///
/// `eps`/`delta` parameterize the sampler envelopes; `sample` toggles
/// the sampler trials (the shrinker turns them off — shrinking chases a
/// *deterministic* failure and sampling would slow each probe ~100×).
pub fn check_case(
    case: &FuzzCase,
    eps: f64,
    delta: f64,
    sample: bool,
) -> Result<CheckOutcome, String> {
    check_case_salted(case, eps, delta, sample, 0)
}

/// [`check_case`] with an extra seed salt folded into every sampler
/// stream. The envelope-shrinking majority predicate re-runs a suspect
/// engine under several salts — a genuinely broken sampler fails them
/// all, a statistical fluke does not.
pub fn check_case_salted(
    case: &FuzzCase,
    eps: f64,
    delta: f64,
    sample: bool,
    salt: u64,
) -> Result<CheckOutcome, String> {
    let mut out = CheckOutcome::default();
    let base = split_seed(case.seed, salt);
    if let Some(ud) = case.build_db()? {
        let text = case.query.as_deref().expect("validated by build_db");
        let query = FoQuery::parse(text).map_err(|e| format!("bad query {text:?}: {e}"))?;
        if !query.formula().free_vars().is_empty() {
            return Err(format!("query {text:?} is not a sentence"));
        }
        check_query_case(base, &ud, &query, eps, delta, sample, &mut out);
    } else {
        let spec = case.dnf.as_ref().expect("validated by build_db");
        let (dnf, probs) = spec.build()?;
        check_dnf_case(base, &dnf, &probs, eps, delta, sample, &mut out);
    }
    Ok(out)
}

fn check_query_case(
    base: u64,
    ud: &UnreliableDatabase,
    query: &FoQuery,
    eps: f64,
    delta: f64,
    sample: bool,
    out: &mut CheckOutcome,
) {
    let formula = query.formula();
    check_compiled_eval(ud, formula, out);
    // Oracle: serial Gray-code world enumeration (Thm 4.2).
    let p = match exact_probability(ud, query) {
        Ok(p) => p,
        Err(e) => {
            out.fail("exact-serial", format!("oracle evaluation failed: {e}"));
            return;
        }
    };

    // Reliability side: R = 1 − H (Boolean query).
    let rel = match exact_reliability(ud, query) {
        Ok(r) => {
            check_exact_referee(ud, query, &r, out);
            r.reliability
        }
        Err(e) => {
            out.fail("exact-reliability", format!("evaluation failed: {e}"));
            return;
        }
    };

    // Safe-plan compiler (the dichotomy's PTIME side). Where the shape
    // compiles, the extensional plan's probability must match the Thm 4.2
    // enumerator bit-for-bit (its reliability is the `plan` rung's, judged
    // below); where it declines, the decline must be legitimate —
    // cross-checked against the *independent* pairwise hierarchy test,
    // which must never contradict the compiler on the fragment where it
    // is decisive.
    let compiled = qrel_plan::compile(formula);
    match &compiled {
        Ok(plan) => {
            match qrel_plan::sentence_probability(ud, plan) {
                Ok(q) if q == p => {}
                Ok(q) => out.fail(
                    "safe-plan",
                    format!("plan probability {q} != enumerator {p}"),
                ),
                Err(e) => out.fail("safe-plan", format!("plan evaluation failed: {e}")),
            }
            if qrel_plan::pairwise_hierarchical(formula) == Some(false) {
                out.fail(
                    "safe-plan-safety",
                    "compiler accepted a query the pairwise hierarchy test rejects".to_string(),
                );
            }
        }
        Err(reason) => {
            if qrel_plan::pairwise_hierarchical(formula) == Some(true) {
                out.fail(
                    "safe-plan-safety",
                    format!("compiler declined a hierarchical sjf-CQ: {reason}"),
                );
            }
        }
    }

    // Consistency between the two exact quantities for a sentence:
    // H = μ-mass of worlds where the truth value flips, so
    // R = Pr[ψ] if 𝔄 ⊨ ψ, else 1 − Pr[ψ].
    let observed = match query.eval_sentence(ud.observed()) {
        Ok(b) => b,
        Err(e) => {
            out.fail("observed-eval", format!("failed: {e}"));
            return;
        }
    };
    let expected_rel = if observed { p.clone() } else { p.one_minus() };
    if rel != expected_rel {
        out.fail(
            "prob-vs-reliability",
            format!("R = {rel} but Pr[ψ] = {p} with 𝔄 ⊨ ψ = {observed} implies R = {expected_rel}"),
        );
    }

    // Every rung alone, as an explicit `method` request runs it, under an
    // unlimited budget: an exact answer must be the Thm 4.2 rational, an
    // (ε, δ) answer is one absolute-error trial, and a partial answer or
    // an error fails `rung-<name>` unless the rung may decline.
    for &rung in Method::RUNGS {
        let (samples, may_decline) = rung_rule(rung, formula, compiled.is_err());
        if samples && !sample {
            continue;
        }
        let check = format!("rung-{rung}");
        let report = match Solver::new()
            .with_method(rung)
            .with_accuracy(eps, delta)
            .with_seed(split_seed(base, 0x2E60 + rung.index() as u64))
            .with_threads(3)
            .solve(ud, query, &Budget::unlimited())
        {
            Ok(report) => report,
            Err(_) if may_decline => continue,
            Err(e) => {
                out.fail(&check, format!("failed: {e}"));
                continue;
            }
        };
        out.answered.push(rung);
        match (&report.confidence, &report.exact) {
            (Confidence::Exact, Some(r)) if *r == rel => {}
            (Confidence::Fptras { eps, .. }, _) => {
                let err = (report.reliability - rel.to_f64()).abs() / eps;
                out.trial(check, err <= 1.0, err);
            }
            (confidence, exact) => out.fail(
                &check,
                format!("{confidence} answer {exact:?} != enumerator {rel}"),
            ),
        }
    }

    // Thm 5.4 grounding + Shannon (existential fragment, incl. QF), on
    // the *unfolded* lineage: every visited fact is a variable, certain
    // ones included. It checks the grounding itself; `exact-bitslice`
    // below checks the folded lineage.
    let existential = matches!(
        formula.fragment(),
        Fragment::QuantifierFree | Fragment::Existential | Fragment::Conjunctive
    );
    if existential {
        match ground_existential(ud.observed(), formula, &HashMap::new(), DEFAULT_MAX_TERMS) {
            Ok(g) => {
                let probs: Vec<BigRational> = g.facts.iter().map(|f| ud.nu(f)).collect();
                let q = dnf_probability_shannon(&g.dnf, &probs);
                if q != p {
                    out.fail(
                        "grounding-shannon",
                        format!("grounded Shannon {q} != enumerator {p}"),
                    );
                }
            }
            Err(e) => out.fail("grounding-shannon", format!("failed: {e}")),
        }

        // Folded grounding + bit-sliced world enumeration: the lineage
        // over uncertain facts only, counted by the fixed-width dyadic
        // fast path with BigRational promotion, must be exactly the
        // Thm 4.2 value, bit for bit.
        match existential_probability_bitslice(ud, formula) {
            Ok(q) if q == p => {}
            Ok(q) => out.fail(
                "exact-bitslice",
                format!("bit-sliced enumerator {q} != enumerator {p}"),
            ),
            Err(e) => out.fail("exact-bitslice", format!("failed: {e}")),
        }
    }

    if !sample {
        return;
    }
    let pf = p.to_f64();

    // Thm 5.12 padding estimator: absolute (ε, δ) on ν(ψ).
    let pad_seed = split_seed(base, 0x9AD);
    match PaddingEstimator::default_xi()
        .estimate_probability_sharded(ud, query, eps, delta, pad_seed, 2)
    {
        Ok(est) => {
            let err = (est.estimate - pf).abs() / eps;
            out.trial("padding", err <= 1.0, err);
        }
        Err(e) => out.fail("padding", format!("estimator failed: {e}")),
    }

    // Thm 5.4 FPTRAS: relative (ε, δ) on ν(ψ).
    if existential {
        let mut rng = StdRng::seed_from_u64(split_seed(base, 0xF9A5));
        match existential_probability_fptras(ud, formula, eps, delta, Route::Direct, &mut rng) {
            Ok(est) => {
                if pf == 0.0 {
                    // Karp–Luby total weight is 0, so the estimate must be too.
                    out.trial(
                        "fptras",
                        est == 0.0,
                        if est == 0.0 { 0.0 } else { f64::MAX },
                    );
                } else {
                    let err = (est - pf).abs() / (eps * pf);
                    out.trial("fptras", err <= 1.0, err);
                }
            }
            Err(e) => out.fail("fptras", format!("failed: {e}")),
        }
    }
}

/// Worlds of `ud.worlds()` on which `eval-compiled` re-evaluates.
const REFEREE_WORLDS: usize = 16;

/// `eval-compiled`: the compiled evaluator against the reference
/// interpreter on the observed database and the first
/// [`REFEREE_WORLDS`] worlds — the sentence itself, and the answer set
/// of its body opened at the outermost quantifier block (a k-ary query).
fn check_compiled_eval(ud: &UnreliableDatabase, formula: &Formula, out: &mut CheckOutcome) {
    out.refereed.push("eval-compiled");
    let mut probes = vec![(formula, Vec::new())];
    if let Formula::Exists(vars, body) | Formula::Forall(vars, body) = formula {
        probes.push((&**body, vars.clone()));
    }
    let worlds = ud.worlds().take(REFEREE_WORLDS).map(|(w, _)| w);
    for db in std::iter::once(ud.observed().clone()).chain(worlds) {
        for (f, free) in &probes {
            let compiled = qrel_eval::query_answers(&db, f, free);
            let reference = reference::query_answers(&db, f, free);
            if compiled != reference {
                out.fail(
                    "eval-compiled",
                    format!("{f} over {free:?}: compiled {compiled:?} != reference {reference:?}"),
                );
                return;
            }
        }
    }
}

/// `exact-referee`: the Thm 4.2 enumerator's report against the
/// reference sum over the product-weighted worlds, bit for bit.
fn check_exact_referee(
    ud: &UnreliableDatabase,
    query: &FoQuery,
    report: &ExactReport,
    out: &mut CheckOutcome,
) {
    out.refereed.push("exact-referee");
    let engine = (
        report.expected_error.clone(),
        report.reliability.clone(),
        report.worlds,
    );
    match reference::exact_reliability(ud, query.formula(), query.free_vars()) {
        Ok(referee) if referee == engine => {}
        Ok(referee) => out.fail(
            "exact-referee",
            format!("enumerator (H, R, worlds) = {engine:?} != referee {referee:?}"),
        ),
        Err(e) => out.fail(
            "exact-referee",
            format!("referee failed ({e}) where the enumerator answered {engine:?}"),
        ),
    }
}

/// How the oracle judges `rung` on `formula`: `(samples, may_decline)`.
/// A sampling rung answers with an `(ε, δ)` estimate, so it runs only
/// when sampling is on. Exhaustive with no `_` arm, so a new rung does
/// not compile until it is judged here. `Plan` declines exactly when the
/// compiler does: the sjf-CQ dichotomy puts every unsafe shape outside
/// the extensional class, and `safe-plan-safety` referees those declines.
fn rung_rule(rung: Method, formula: &Formula, plan_declines: bool) -> (bool, bool) {
    match rung {
        Method::Auto => unreachable!("Auto is not a rung"),
        Method::Plan => (false, plan_declines),
        Method::Qf => (false, !formula.is_quantifier_free()),
        Method::Exact => (false, false),
        Method::Fptras => (
            true,
            !matches!(
                formula.fragment(),
                Fragment::QuantifierFree
                    | Fragment::Conjunctive
                    | Fragment::Existential
                    | Fragment::Universal
            ),
        ),
        Method::Padding | Method::NaiveMc => (true, false),
    }
}

fn check_dnf_case(
    base: u64,
    dnf: &qrel_logic::prop::Dnf,
    probs: &[BigRational],
    eps: f64,
    delta: f64,
    sample: bool,
    out: &mut CheckOutcome,
) {
    let num_vars = probs.len();
    // Oracle: Shannon expansion.
    let p = dnf_probability_shannon(dnf, probs);

    let q = dnf_probability_ie(dnf, probs);
    if q != p {
        out.fail("dnf-ie", format!("inclusion-exclusion {q} != Shannon {p}"));
    }

    let q = dnf_probability_bdd(dnf, probs);
    if q != p {
        out.fail("dnf-bdd", format!("ROBDD {q} != Shannon {p}"));
    }

    // Bit-sliced world enumeration.
    let q = dnf_probability_bitslice(dnf, probs);
    if q != p {
        out.fail(
            "dnf-bitslice",
            format!("bit-sliced enumerator {q} != Shannon {p}"),
        );
    }

    // Model counters: recursive counter vs ROBDD vs brute force.
    let brute = dnf.count_models_brute(num_vars);
    let counted = dnf_count_models(dnf, num_vars);
    if counted.to_string() != brute.to_string() {
        out.fail(
            "dnf-count",
            format!("dnf_count_models {counted} != brute force {brute}"),
        );
    }
    let mut bdd = Bdd::new();
    let node = bdd.from_dnf(dnf);
    let via_bdd = bdd.count_models(node, num_vars);
    if via_bdd.to_string() != brute.to_string() {
        out.fail(
            "bdd-count",
            format!("BDD model count {via_bdd} != brute force {brute}"),
        );
    }
    if num_vars <= 26 {
        let via_bits = dnf_count_models_bitslice(dnf, num_vars);
        if via_bits.to_string() != brute.to_string() {
            out.fail(
                "dnf-count-bitslice",
                format!("bit-sliced model count {via_bits} != brute force {brute}"),
            );
        }
    }

    if !sample {
        return;
    }
    let pf = p.to_f64();

    // Karp–Luby: relative (ε, δ).
    let kl = KarpLuby::new(dnf, probs);
    let (report, _) = kl.run_eps_delta(eps, delta, &Budget::unlimited(), split_seed(base, 0x5B), 2);
    if pf == 0.0 {
        out.trial(
            "karp-luby",
            report.estimate == 0.0,
            if report.estimate == 0.0 {
                0.0
            } else {
                f64::MAX
            },
        );
    } else {
        let err = (report.estimate - pf).abs() / (eps * pf);
        out.trial("karp-luby", err <= 1.0, err);
    }

    // Naive MC: absolute (ε, δ) by Hoeffding.
    let est = naive_mc_probability_sharded(
        dnf,
        probs,
        hoeffding_samples(eps, delta).max(1),
        split_seed(base, 0x3C),
        2,
    );
    let err = (est - pf).abs() / eps;
    out.trial("naive-mc", err <= 1.0, err);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn clean_engines_agree_on_every_family() {
        // The rungs run fault-instrumented solver code, and this crate's
        // chaos tests arm process-global fault plans: hold the plane quiet.
        let _quiet = qrel_faults::quiesce();
        // Sampling on, so every rung runs; the loose envelope keeps the
        // samplers cheap (their accuracy is the next test's business).
        let mut answered = Vec::new();
        for family in gen::FAMILIES {
            for seed in 0..8 {
                let case = gen::generate(seed, family);
                let out = check_case(&case, 0.5, 0.5, true)
                    .unwrap_or_else(|e| panic!("{family}/{seed}: {e}"));
                assert!(
                    out.failures.is_empty(),
                    "{family}/{seed}: {:?}",
                    out.failures
                );
                answered.extend(out.answered);
            }
        }
        // No rung passes vacuously by declining every generated case.
        for rung in Method::RUNGS {
            assert!(answered.contains(rung), "{rung} never answered a case");
        }
    }

    #[test]
    fn sampler_trials_mostly_pass() {
        let _quiet = qrel_faults::quiesce();
        // δ = 0.2 across a handful of trials: a single failure is
        // tolerable, systematic failure is not.
        let mut failures = 0u32;
        let mut trials = 0u32;
        let mut rung_trials = 0u32;
        for (i, family) in ["dnf", "qf", "sjf-cq"].iter().enumerate() {
            let case = gen::generate(100 + i as u64, family);
            let out = check_case(&case, 0.25, 0.2, true).unwrap();
            assert!(out.failures.is_empty(), "{family}: {:?}", out.failures);
            for t in &out.trials {
                trials += 1;
                if t.engine.starts_with("rung-") {
                    rung_trials += 1;
                }
                if !t.ok {
                    failures += 1;
                }
            }
        }
        assert!(trials >= 4, "expected sampler trials to run");
        // Two query cases × the three sampling rungs.
        assert_eq!(rung_trials, 6, "expected one trial per sampling rung");
        assert!(
            failures * 3 <= trials,
            "sampler failure rate too high: {failures}/{trials}"
        );
    }
}
