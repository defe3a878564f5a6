//! The differential layer: run one case through every applicable engine.
//!
//! Exact engines must agree **bit-for-bit** in exact rationals — the
//! serial Gray-code enumerator (`exact_probability`, Thm 4.2) is the
//! oracle, and the sharded budgeted enumerator, the budgeted solver's
//! exact route, the Prop 3.1 quantifier-free fast path, the Thm 5.4
//! grounding + Shannon pipeline, and the bit-sliced world enumerator
//! (64 worlds per word, dyadic fast-path arithmetic) are all held to
//! exact equality against it. For DNF events, Shannon expansion is the
//! oracle and inclusion–exclusion, the ROBDD, the bit-sliced enumerator,
//! and the model counters must match.
//!
//! Samplers (Karp–Luby, naive MC, the Thm 5.12 padding estimator, the
//! Cor 5.5 reliability estimator) are *allowed* to miss: each run is one
//! Bernoulli trial whose failure probability is bounded by δ. Trials are
//! therefore returned to the caller, which aggregates failure counts per
//! engine across the whole fuzz run and only flags an engine whose
//! empirical failure rate breaches the `n·δ + 3σ` binomial threshold —
//! the same accounting as `tests/statistical_guarantees.rs`.

use crate::case::FuzzCase;
use qrel_arith::BigRational;
use qrel_budget::Budget;
use qrel_core::{
    exact_probability, exact_reliability, exact_reliability_budgeted,
    existential_probability_bitslice, existential_probability_exact,
    existential_probability_fptras, qf_reliability, ExactOutcome, PaddingEstimator, Route,
};
use qrel_count::exact_dnf::dnf_count_models;
use qrel_count::naive_mc::naive_mc_probability_sharded;
use qrel_count::{
    bounds::hoeffding_samples, dnf_count_models_bitslice, dnf_probability_bdd,
    dnf_probability_bitslice, dnf_probability_ie, dnf_probability_shannon, Bdd, KarpLuby,
};
use qrel_eval::{FoQuery, Query};
use qrel_logic::Fragment;
use qrel_par::split_seed;
use qrel_prob::UnreliableDatabase;
use qrel_runtime::{Method, Solver};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic disagreement between two engines. Always a bug in
/// one of them (or in the oracle harness itself) — never noise.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Which cross-check failed, e.g. `"exact-reliability-parallel"`,
    /// `"dnf-ie"`.
    pub check: String,
    /// Human-readable detail carrying both values.
    pub detail: String,
}

/// One sampler run, judged against its (ε, δ) envelope.
#[derive(Debug, Clone)]
pub struct SamplerTrial {
    /// Engine name, e.g. `"karp-luby"`, `"padding"`.
    pub engine: &'static str,
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
}

impl CheckOutcome {
    fn fail(&mut self, check: &str, detail: String) {
        self.failures.push(Failure {
            check: check.to_string(),
            detail,
        });
    }

    fn trial(&mut self, engine: &'static str, ok: bool, err: f64) {
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
        check_query_case(case, base, &ud, &query, eps, delta, sample, &mut out);
    } else {
        let spec = case.dnf.as_ref().expect("validated by build_db");
        let (dnf, probs) = spec.build()?;
        check_dnf_case(base, &dnf, &probs, eps, delta, sample, &mut out);
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn check_query_case(
    case: &FuzzCase,
    base: u64,
    ud: &UnreliableDatabase,
    query: &FoQuery,
    eps: f64,
    delta: f64,
    sample: bool,
    out: &mut CheckOutcome,
) {
    let formula = query.formula();
    // Oracle: serial Gray-code world enumeration (Thm 4.2).
    let p = match exact_probability(ud, query) {
        Ok(p) => p,
        Err(e) => {
            out.fail("exact-serial", format!("oracle evaluation failed: {e}"));
            return;
        }
    };

    // Reliability side: R = 1 − H (Boolean query), serial vs parallel vs
    // the budgeted solver's exact route.
    let rel = match exact_reliability(ud, query) {
        Ok(r) => r,
        Err(e) => {
            out.fail("exact-reliability", format!("evaluation failed: {e}"));
            return;
        }
    };
    match exact_reliability_budgeted(ud, query, &Budget::unlimited(), 3) {
        Ok(ExactOutcome::Complete(r)) if r.reliability == rel.reliability => {}
        Ok(ExactOutcome::Complete(r)) => out.fail(
            "exact-reliability-parallel",
            format!("parallel {} != serial {}", r.reliability, rel.reliability),
        ),
        Ok(other) => out.fail(
            "exact-reliability-parallel",
            format!("unlimited budget tripped: {other:?}"),
        ),
        Err(e) => out.fail("exact-reliability-parallel", format!("failed: {e}")),
    }

    match Solver::new()
        .with_method(Method::Exact)
        .with_threads(2)
        .with_seed(case.seed)
        .solve(ud, query, &Budget::unlimited())
    {
        Ok(report) => match &report.exact {
            Some(r) if *r == rel.reliability => {}
            Some(r) => out.fail(
                "solver-exact",
                format!("solver exact {} != library {}", r, rel.reliability),
            ),
            None => out.fail(
                "solver-exact",
                "Method::Exact produced no exact rational".to_string(),
            ),
        },
        Err(e) => out.fail("solver-exact", format!("solver failed: {e}")),
    }

    // Safe-plan compiler (the dichotomy's PTIME side). Where the shape
    // compiles, the extensional plan must match the Thm 4.2 enumerator
    // bit-for-bit on both quantities; where it declines, the decline
    // must be legitimate — cross-checked against the *independent*
    // pairwise hierarchy test, which must never contradict the
    // compiler on the fragment where it is decisive.
    match qrel_plan::compile(formula) {
        Ok(plan) => {
            match qrel_plan::sentence_probability(ud, &plan) {
                Ok(q) if q == p => {}
                Ok(q) => out.fail(
                    "safe-plan",
                    format!("plan probability {q} != enumerator {p}"),
                ),
                Err(e) => out.fail("safe-plan", format!("plan evaluation failed: {e}")),
            }
            match qrel_plan::reliability(ud, &plan, formula, query.free_vars()) {
                Ok(r) if r.reliability == rel.reliability => {}
                Ok(r) => out.fail(
                    "safe-plan-reliability",
                    format!(
                        "plan reliability {} != enumerator {}",
                        r.reliability, rel.reliability
                    ),
                ),
                Err(e) => out.fail("safe-plan-reliability", format!("failed: {e}")),
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
    if rel.reliability != expected_rel {
        out.fail(
            "prob-vs-reliability",
            format!(
                "R = {} but Pr[ψ] = {p} with 𝔄 ⊨ ψ = {observed} implies R = {expected_rel}",
                rel.reliability
            ),
        );
    }

    // Prop 3.1 fast path (quantifier-free sentences).
    if formula.is_quantifier_free() {
        match qf_reliability(ud, formula, &[]) {
            Ok(r) if r.reliability == rel.reliability => {}
            Ok(r) => out.fail(
                "qf-fast-path",
                format!(
                    "Prop 3.1 reliability {} != enumerator {}",
                    r.reliability, rel.reliability
                ),
            ),
            Err(e) => out.fail("qf-fast-path", format!("failed: {e}")),
        }
    }

    // Thm 5.4 grounding + Shannon (existential fragment, incl. QF).
    let existential = matches!(
        formula.fragment(),
        Fragment::QuantifierFree | Fragment::Existential | Fragment::Conjunctive
    );
    if existential {
        match existential_probability_exact(ud, formula) {
            Ok(q) if q == p => {}
            Ok(q) => out.fail(
                "grounding-shannon",
                format!("grounded Shannon {q} != enumerator {p}"),
            ),
            Err(e) => out.fail("grounding-shannon", format!("failed: {e}")),
        }

        // Grounding + bit-sliced world enumeration: the fixed-width
        // dyadic fast path with BigRational promotion must be exactly
        // the Thm 4.2 value, bit for bit.
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
    let samples = kl.samples_for(eps, delta);
    let (report, _) = kl.run_budgeted(
        samples.max(1),
        &Budget::unlimited(),
        split_seed(base, 0x5B),
        2,
    );
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
        for family in gen::FAMILIES {
            for seed in 0..8 {
                let case = gen::generate(seed, family);
                let out = check_case(&case, 0.2, 0.2, false)
                    .unwrap_or_else(|e| panic!("{family}/{seed}: {e}"));
                assert!(
                    out.failures.is_empty(),
                    "{family}/{seed}: {:?}",
                    out.failures
                );
            }
        }
    }

    #[test]
    fn sampler_trials_mostly_pass() {
        // δ = 0.2 across a handful of trials: a single failure is
        // tolerable, systematic failure is not.
        let mut failures = 0u32;
        let mut trials = 0u32;
        for (i, family) in ["dnf", "qf", "sjf-cq"].iter().enumerate() {
            let case = gen::generate(100 + i as u64, family);
            let out = check_case(&case, 0.25, 0.2, true).unwrap();
            assert!(out.failures.is_empty(), "{family}: {:?}", out.failures);
            for t in &out.trials {
                trials += 1;
                if !t.ok {
                    failures += 1;
                }
            }
        }
        assert!(trials >= 4, "expected sampler trials to run");
        assert!(
            failures * 3 <= trials,
            "sampler failure rate too high: {failures}/{trials}"
        );
    }
}
