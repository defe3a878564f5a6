//! E4 — Theorem 5.2: the Karp–Luby #DNF FPTRAS.
//!
//! Random kDNFs across sizes: relative error vs the exact count, at the
//! (ε, δ)-dictated sample budget; then the adversarial low-probability
//! family where naive Monte-Carlo collapses but Karp–Luby stays accurate.

use qrel_arith::BigRational;
use qrel_bench::{fmt_secs, random_kdnf, Table};
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
        "time",
    ]);
    let mut rng = StdRng::seed_from_u64(4);
    for (vars, terms, k) in [
        (20usize, 8usize, 2usize),
        (30, 12, 3),
        (40, 16, 3),
        (60, 20, 3),
    ] {
        let d = random_kdnf(vars, terms, k, &mut rng);
        let exact = dnf_count_models(&d, vars).to_f64();
        let kl = KarpLuby::for_counting(&d, vars);
        let (report, secs) = qrel_bench::timed(|| kl.run(eps, delta, &mut rng));
        let estimate = report.estimate * (vars as f64).exp2();
        let rel = (estimate - exact).abs() / exact;
        table.row(&[
            vars.to_string(),
            terms.to_string(),
            k.to_string(),
            format!("{exact:.3e}"),
            format!("{estimate:.3e}"),
            format!("{:.4}", rel),
            report.samples.to_string(),
            fmt_secs(secs),
        ]);
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
        "\npaper: KL needs O(m·ε⁻²·ln 1/δ) samples regardless of Pr[φ]; naive MC \
         needs ~1/Pr[φ] — the rows above show exactly that divergence."
    );

    println!("\npart 3: parallel speedup at a fixed sample budget (sharded engine)");
    let d = random_kdnf(60, 20, 3, &mut rng);
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
}
