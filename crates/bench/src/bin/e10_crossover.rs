//! E10 — Ablation: exact Shannon vs Karp–Luby vs naive Monte-Carlo.
//!
//! Sweeps formula size and probability magnitude to locate the regimes:
//! exact wins on small instances, naive MC is fine while Pr\[φ\] is large,
//! Karp–Luby dominates as Pr\[φ\] → 0 and instances outgrow exact methods.

use qrel_arith::BigRational;
use qrel_bench::perf::BenchReport;
use qrel_bench::{fmt_secs, random_kdnf, Table};
use qrel_budget::Budget;
use qrel_count::naive_mc::{naive_mc_probability_sharded, naive_mc_probability_with_samples};
use qrel_count::{
    dnf_probability_bdd, dnf_probability_bitslice, dnf_probability_enum, dnf_probability_shannon,
    KarpLuby,
};
use qrel_logic::prop::{Dnf, Lit};
use qrel_par::DEFAULT_SHARDS;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The generator state at the start of part 3 in the run that recorded
/// the committed `BENCH_E10.json`. Parts 3–4 resume from it, so they time
/// the baseline's instances however many draws the samplers of parts 1–2
/// take from the shared stream.
const BASELINE_STATE: [u64; 4] = [
    17_654_819_237_580_600_521,
    9_779_728_173_122_687_472,
    8_823_751_867_425_277_736,
    1_795_695_661_617_286_216,
];

fn baseline_rng() -> StdRng {
    let mut seed = [0u8; 32];
    for (chunk, word) in seed.chunks_exact_mut(8).zip(BASELINE_STATE) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    StdRng::from_seed(seed)
}

fn main() {
    println!("E10 — estimator crossovers\n");
    let mut rng = StdRng::seed_from_u64(10);

    println!("part 1: runtime crossover on growing random 3DNF (p = 1/2)");
    let mut t1 = Table::new(&[
        "vars",
        "terms",
        "Shannon time",
        "BDD time",
        "KL time",
        "KL rel err",
        "exacts agree",
    ]);
    for (vars, terms) in [(15usize, 10usize), (25, 20), (35, 40), (45, 80)] {
        let d = random_kdnf(vars, terms, 3, &mut rng);
        let probs = vec![BigRational::from_ratio(1, 2); vars];
        let (exact, te) = qrel_bench::timed(|| dnf_probability_shannon(&d, &probs));
        let (exact_bdd, tb) = qrel_bench::timed(|| dnf_probability_bdd(&d, &probs));
        let kl = KarpLuby::new(&d, &probs);
        let (rep, tk) = qrel_bench::timed(|| kl.run(0.05, 0.05, &mut rng));
        let rel = (rep.estimate - exact.to_f64()).abs() / exact.to_f64().max(1e-300);
        t1.row(&[
            vars.to_string(),
            terms.to_string(),
            fmt_secs(te),
            fmt_secs(tb),
            fmt_secs(tk),
            format!("{rel:.4}"),
            if exact == exact_bdd {
                "✓".into()
            } else {
                "✗".into()
            },
        ]);
        assert_eq!(exact, exact_bdd, "BDD oracle disagreed with Shannon");
    }
    t1.print();

    println!("\npart 2: accuracy collapse of naive MC as Pr[φ] shrinks (equal budgets)");
    let mut t2 = Table::new(&["Pr[φ]", "budget", "KL rel err", "naive rel err"]);
    for width in [4usize, 8, 12, 16] {
        let d = Dnf::from_terms([
            (0..width as u32).map(Lit::pos).collect::<Vec<_>>(),
            (width as u32..2 * width as u32)
                .map(Lit::pos)
                .collect::<Vec<_>>(),
        ]);
        let probs = vec![BigRational::from_ratio(1, 3); 2 * width];
        let exact = dnf_probability_shannon(&d, &probs).to_f64();
        let kl = KarpLuby::new(&d, &probs);
        let budget = 30_000u64;
        let rep = kl.run_with_samples(budget, &mut rng);
        let naive = naive_mc_probability_with_samples(&d, &probs, budget, &mut rng);
        t2.row(&[
            format!("{exact:.2e}"),
            budget.to_string(),
            format!("{:.4}", (rep.estimate - exact).abs() / exact),
            format!("{:.4}", (naive - exact).abs() / exact),
        ]);
    }
    t2.print();
    println!(
        "\nexpected shape: exact blows up in formula size; naive MC's relative \
         error goes to 1.0 (it reports 0) once Pr[φ] ≪ 1/budget; Karp–Luby \
         stays flat in both sweeps."
    );

    println!("\npart 3: parallel speedup of both samplers at a fixed budget (sharded engines)");
    let mut rng = baseline_rng();
    let d = random_kdnf(45, 80, 3, &mut rng);
    let probs = vec![BigRational::from_ratio(1, 2); 45];
    let kl = KarpLuby::new(&d, &probs);
    let samples = 1_000_000u64;
    let mut t3 = Table::new(&["threads", "KL time", "KL speedup", "MC time", "MC speedup"]);
    let mut base: Option<(f64, f64, f64, f64)> = None;
    for threads in [1usize, 2, 4, 8] {
        let (kl_rep, kl_secs) = qrel_bench::timed(|| {
            kl.run_budgeted(samples, &Budget::unlimited(), 0x10, threads)
                .0
        });
        let (mc_est, mc_secs) =
            qrel_bench::timed(|| naive_mc_probability_sharded(&d, &probs, samples, 0x10, threads));
        let (kl_base_est, kl_base, mc_base_est, mc_base) =
            *base.get_or_insert((kl_rep.estimate, kl_secs, mc_est, mc_secs));
        assert_eq!(kl_rep.estimate.to_bits(), kl_base_est.to_bits());
        assert_eq!(mc_est.to_bits(), mc_base_est.to_bits());
        t3.row(&[
            threads.to_string(),
            fmt_secs(kl_secs),
            format!("{:.2}x", kl_base / kl_secs),
            fmt_secs(mc_secs),
            format!("{:.2}x", mc_base / mc_secs),
        ]);
    }
    t3.print();
    println!(
        "\nboth samplers shard the {samples}-sample budget over {DEFAULT_SHARDS} fixed \
         shards; estimates are asserted bit-identical across the threads column."
    );

    println!("\npart 4: exact-enumeration frontier — where bit-parallel evaluation moves it");
    let mut report = BenchReport::new("E10");
    let mut t4 = Table::new(&[
        "vars",
        "terms",
        "enum time",
        "bitslice time",
        "Shannon time",
        "enum/bitslice",
    ]);
    for (vars, terms) in [(14usize, 16usize), (18, 24), (22, 32)] {
        let d = random_kdnf(vars, terms, 3, &mut rng);
        let probs: Vec<BigRational> = (0..vars)
            .map(|i| BigRational::from_ratio(1 + (i as i64 % 3), [4u64, 8, 16][i % 3]))
            .collect();
        // Per-world enumeration is 2^vars sequential steps: past ~18
        // variables it is the method being retired, not a baseline
        // worth waiting on every CI run.
        let enum_out = (vars <= 18).then(|| {
            report.timed(&format!("enum_v{vars}"), 3, || {
                dnf_probability_enum(&d, &probs)
            })
        });
        let (fast, fast_secs) = report.timed(&format!("bitslice_v{vars}"), 5, || {
            dnf_probability_bitslice(&d, &probs)
        });
        let (shannon, sh_secs) = qrel_bench::timed(|| dnf_probability_shannon(&d, &probs));
        assert_eq!(
            fast, shannon,
            "bitslice disagreed with Shannon at {vars} vars"
        );
        let (enum_cell, ratio_cell) = match &enum_out {
            Some((p, secs)) => {
                assert_eq!(*p, fast, "enum disagreed with bitslice at {vars} vars");
                (fmt_secs(*secs), format!("{:.1}x", secs / fast_secs))
            }
            None => ("(skipped)".to_string(), "—".to_string()),
        };
        if let Some((_, secs)) = &enum_out {
            report.value(&format!("bitslice_speedup_v{vars}"), secs / fast_secs);
        }
        t4.row(&[
            vars.to_string(),
            terms.to_string(),
            enum_cell,
            fmt_secs(fast_secs),
            fmt_secs(sh_secs),
            ratio_cell,
        ]);
    }
    t4.print();
    println!(
        "\n64 worlds per machine word: the exhaustive-enumeration frontier moves \
         out by ~6 variables at equal wall time, with exact rationals throughout."
    );
    if let Some(path) = report.write_if_requested() {
        println!("bench report written to {}", path.display());
    }
}
