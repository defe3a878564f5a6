//! E4 — Theorem 5.2: the Karp–Luby #DNF FPTRAS.
//!
//! Random kDNFs across sizes: relative error vs the exact count under
//! the (ε, δ) stopping rule and its zero-one cap; then the adversarial
//! low-probability family where naive Monte-Carlo collapses but
//! Karp–Luby stays accurate; then a fixed-count run across thread
//! counts; then the `(ε, δ)` entry against the fixed zero-one count
//! across thread counts. Every part asserts its claim, so the binary is
//! a CI guard: relative error ≤ ε on every row of parts 1–2, samples
//! within the `δ/2` zero-one cap, and bit-identical estimates across
//! threads in parts 3–4.

use qrel_arith::BigRational;
use qrel_bench::{fmt_secs, random_kdnf, timed, Table};
use qrel_budget::Budget;
use qrel_count::exact_dnf::dnf_count_models;
use qrel_count::naive_mc::naive_mc_probability_with_samples;
use qrel_count::{dnf_probability_shannon, KarpLuby};
use qrel_logic::prop::{Dnf, Lit};
use qrel_par::DEFAULT_SHARDS;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("E4 — Karp–Luby #DNF FPTRAS (Thm 5.2)\n");
    let (eps, delta) = (0.05, 0.02);
    println!("part 1: random kDNF, ε = {eps}, δ = {delta}");
    let mut table = Table::new(&[
        "vars",
        "terms",
        "k",
        "exact #models",
        "KL estimate",
        "rel err",
        "samples",
        "cap",
        "time",
    ]);
    // Instances come from their own stream, so a change in how many
    // draws a sampler takes never changes the formulas it is run on.
    let mut instances = StdRng::seed_from_u64(4);
    let mut rng = StdRng::seed_from_u64(40);
    let mut part1 = Vec::new();
    for (vars, terms, k) in [
        (20usize, 8usize, 2usize),
        (30, 12, 3),
        (40, 16, 3),
        (60, 20, 3),
    ] {
        let d = random_kdnf(vars, terms, k, &mut instances);
        let exact = dnf_count_models(&d, vars).to_f64();
        let kl = KarpLuby::for_counting(&d, vars);
        let (report, secs) = qrel_bench::timed(|| kl.run(eps, delta, &mut rng));
        let estimate = report.estimate * (vars as f64).exp2();
        let rel = (estimate - exact).abs() / exact;
        let cap = kl.samples_for(eps, delta / 2.0);
        assert!(rel <= eps, "{vars} vars: relative error {rel} > ε = {eps}");
        assert!(
            report.samples <= cap,
            "{vars} vars: {} samples > cap {cap}",
            report.samples
        );
        table.row(&[
            vars.to_string(),
            terms.to_string(),
            k.to_string(),
            format!("{exact:.3e}"),
            format!("{estimate:.3e}"),
            format!("{:.4}", rel),
            report.samples.to_string(),
            cap.to_string(),
            fmt_secs(secs),
        ]);
        part1.push((vars, kl));
    }
    table.print();

    println!("\npart 2: adversarially small Pr[φ] — KL vs naive MC at equal budget");
    let mut table2 = Table::new(&[
        "Pr[φ] (exact)",
        "KL rel err",
        "naive MC estimate",
        "naive rel err",
        "samples (each)",
    ]);
    for width in [6usize, 9, 12, 15] {
        // Two disjoint all-positive terms at p = 1/4 ⇒ Pr ≈ 2·4^-width.
        let d = Dnf::from_terms([
            (0..width as u32).map(Lit::pos).collect::<Vec<_>>(),
            (width as u32..2 * width as u32)
                .map(Lit::pos)
                .collect::<Vec<_>>(),
        ]);
        let probs = vec![BigRational::from_ratio(1, 4); 2 * width];
        let exact = dnf_probability_shannon(&d, &probs).to_f64();
        let kl = KarpLuby::new(&d, &probs);
        let report = kl.run(eps, delta, &mut rng);
        let kl_rel = (report.estimate - exact).abs() / exact;
        assert!(
            kl_rel <= eps,
            "Pr[φ] = {exact:.3e}: KL relative error {kl_rel} > ε"
        );
        let naive = naive_mc_probability_with_samples(&d, &probs, report.samples, &mut rng);
        let naive_rel = (naive - exact).abs() / exact;
        table2.row(&[
            format!("{exact:.3e}"),
            format!("{kl_rel:.4}"),
            format!("{naive:.3e}"),
            format!("{naive_rel:.3}"),
            report.samples.to_string(),
        ]);
    }
    table2.print();
    println!(
        "\npaper: KL needs O(m·ε⁻²·ln 1/δ) samples regardless of Pr[φ] (the stopping \
         rule needs O(U/Pr[φ]·ε⁻²·ln 1/δ), fewer when terms rarely overlap); naive MC \
         needs ~1/Pr[φ] — the rows above show exactly that divergence."
    );

    println!("\npart 3: parallel speedup at a fixed sample budget (sharded engine)");
    let d = random_kdnf(60, 20, 3, &mut instances);
    let kl = KarpLuby::for_counting(&d, 60);
    let samples = 2_000_000u64;
    let mut table3 = Table::new(&["threads", "estimate", "time", "speedup", "bit-identical"]);
    let mut serial: Option<(f64, f64)> = None;
    for threads in [1usize, 2, 4, 8] {
        let (report, secs) = qrel_bench::timed(|| {
            kl.run_budgeted(samples, &Budget::unlimited(), 0xE4, threads)
                .0
        });
        let (base_est, base_secs) = *serial.get_or_insert((report.estimate, secs));
        assert_eq!(
            report.estimate.to_bits(),
            base_est.to_bits(),
            "{threads} threads diverged from threads=1"
        );
        table3.row(&[
            threads.to_string(),
            format!("{:.6e}", report.estimate),
            fmt_secs(secs),
            format!("{:.2}x", base_secs / secs),
            (report.estimate.to_bits() == base_est.to_bits()).to_string(),
        ]);
    }
    table3.print();
    println!(
        "\nthe shard count is fixed at {DEFAULT_SHARDS} regardless of threads, with one \
         seed-split RNG per shard and exact integer hit merging — every row above is \
         required to be bit-identical to threads=1 ({} samples each).",
        samples
    );

    println!("\npart 4: the (ε, δ) entry vs the zero-one count across thread counts");
    // Each cell is the median of RUNS seeded runs. The zero-one column is
    // the fixed count `samples_for(ε, δ)`, what every (ε, δ) run drew
    // before the stopping rule. Multi-threaded stopping-rule runs read
    // rounds of several blocks, one fan-out each; one thread reads one
    // block at a time and stops on the stopping sample.
    const RUNS: u64 = 5;
    let median = |mut secs: Vec<f64>| {
        secs.sort_by(f64::total_cmp);
        secs[secs.len() / 2]
    };
    let mut table4 = Table::new(&[
        "vars",
        "threads",
        "rule samples",
        "rule time",
        "zero-one samples",
        "zero-one time",
        "zero-one / rule",
    ]);
    for (vars, kl) in part1.iter().take(2) {
        let zero_one = kl.samples_for(eps, delta);
        let mut serial = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let (mut rule_secs, mut fixed_secs, mut samples) = (Vec::new(), Vec::new(), 0);
            for seed in 0..RUNS {
                let (report, secs) = timed(|| {
                    kl.run_eps_delta(eps, delta, &Budget::unlimited(), seed, threads)
                        .0
                });
                if threads == 1 {
                    serial.push(report.estimate.to_bits());
                }
                assert_eq!(
                    report.estimate.to_bits(),
                    serial[seed as usize],
                    "{vars} vars, seed {seed}: {threads} threads diverged from threads=1"
                );
                rule_secs.push(secs);
                samples += report.samples;
                fixed_secs.push(
                    timed(|| kl.run_budgeted(zero_one, &Budget::unlimited(), seed, threads)).1,
                );
            }
            let (rule, fixed) = (median(rule_secs), median(fixed_secs));
            table4.row(&[
                vars.to_string(),
                threads.to_string(),
                (samples / RUNS).to_string(),
                fmt_secs(rule),
                zero_one.to_string(),
                fmt_secs(fixed),
                format!("{:.2}x", fixed / rule),
            ]);
        }
    }
    table4.print();
}
