//! E3 — Theorem 4.2: exact reliability via weighted world counting.
//!
//! Sweeps the number of uncertain facts `u` with mixed rational error
//! probabilities; verifies the integrality identity `g·Pr[𝔅 ⊨ ψ] ∈ ℕ`
//! (with the *sound* normalizer) on every instance, demonstrates the
//! published lcm normalizer failing, and shows runtime ~2^u.

use qrel_arith::{BigInt, BigRational};
use qrel_bench::perf::BenchReport;
use qrel_bench::{fmt_secs, random_graph_db, with_random_errors, Table};
use qrel_core::exact::{counting_certificate, exact_probability};
use qrel_core::existential::DEFAULT_MAX_TERMS;
use qrel_core::existential_probability_bitslice;
use qrel_count::dnf_probability_bitslice;
use qrel_eval::{ground_existential, FoQuery};
use qrel_prob::normalizer::{paper_g, sound_g};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn main() {
    println!("E3 — weighted world counting and the g normalizer (Thm 4.2)\n");
    let q = FoQuery::parse("exists x y. E(x,y) & S(y)").unwrap();
    let mut table = Table::new(&[
        "u (uncertain)",
        "worlds",
        "Pr[ψ]",
        "bits(g)",
        "g·Pr ∈ ℕ",
        "Σν = 1",
        "time",
    ]);
    let mut rng = StdRng::seed_from_u64(3);
    let mut paper_g_failures = 0usize;
    let mut instances = 0usize;
    for u in [2usize, 4, 6, 8, 10, 12, 14, 16] {
        let db = random_graph_db(4, 0.4, 0.5, &mut rng);
        let ud = with_random_errors(db, u, &[2, 3, 4, 5, 8, 12], &mut rng);
        let ((p, cert), secs) = qrel_bench::timed(|| {
            (
                exact_probability(&ud, &q).unwrap(),
                counting_certificate(&ud, &q).unwrap(),
            )
        });
        // Integrality with the sound g: the enumerator counts accepting
        // paths in the integer weights ν(𝔅)·g, and g·Pr must be exactly
        // that count; completeness of the distribution.
        let scaled = p.mul_ref(&BigRational::new(
            BigInt::from_biguint(sound_g(&ud)),
            BigInt::one(),
        ));
        assert!(
            scaled.is_integer() && scaled.numer().magnitude() == &cert.accepting_paths,
            "g·Pr = {scaled} is not the accepting-path count {}",
            cert.accepting_paths
        );
        let total = ud
            .worlds()
            .fold(BigRational::zero(), |acc, (_, w)| acc.add_ref(&w));
        // Does the published lcm-g also clear denominators?
        let pg = paper_g(&ud);
        let pg_ok = p
            .mul_ref(&BigRational::new(BigInt::from_biguint(pg), BigInt::one()))
            .is_integer();
        instances += 1;
        if !pg_ok {
            paper_g_failures += 1;
        }
        table.row(&[
            u.to_string(),
            format!("2^{u}"),
            format!("{:.6}", p.to_f64()),
            sound_g(&ud).bit_length().to_string(),
            "✓".into(),
            if total.is_one() {
                "✓".into()
            } else {
                "✗".into()
            },
            fmt_secs(secs),
        ]);
    }
    table.print();
    println!(
        "\nerratum check: published lcm-normalizer cleared denominators on \
         {}/{} instances (sound product-normalizer: {}/{}).",
        instances - paper_g_failures,
        instances,
        instances,
        instances
    );
    println!("paper: FP^#P membership — runtime doubles per uncertain fact.");

    println!("\npart 2: bit-parallel exact engine vs per-world enumeration (dyadic errors)");
    let mut report = BenchReport::new("E3");
    let u = 16usize;
    let db = random_graph_db(4, 0.4, 0.5, &mut rng);
    let ud = with_random_errors(db, u, &[2, 4, 8, 16], &mut rng);
    let (serial, serial_secs) = report.timed("exact_serial_u16", 3, || {
        exact_probability(&ud, &q).unwrap()
    });
    // The gated kernel workload: the *unfolded* lineage (every visited
    // fact a variable, certain ones included), its ν lookup and the
    // bit-sliced count, all inside the timed closure — the fixed work
    // the enumerator's 8x bound below is measured against.
    let (fast, fast_secs) = report.timed("exact_bitslice_u16", 5, || {
        let g = ground_existential(
            ud.observed(),
            q.formula(),
            &HashMap::new(),
            DEFAULT_MAX_TERMS,
        )
        .unwrap();
        let probs: Vec<BigRational> = g.facts.iter().map(|f| ud.nu(f)).collect();
        dnf_probability_bitslice(&g.dnf, &probs)
    });
    assert_eq!(
        serial, fast,
        "bit-sliced engine disagreed with world enumeration"
    );
    let speedup = serial_secs / fast_secs;
    println!(
        "u = {u}: enumeration {} vs bitslice {} — {speedup:.1}x, results bit-identical",
        fmt_secs(serial_secs),
        fmt_secs(fast_secs)
    );
    // The production path folds certain facts out of the lineage first,
    // so it counts over the uncertain facts only. Reported, not gated.
    let (folded, folded_secs) =
        qrel_bench::timed(|| existential_probability_bitslice(&ud, q.formula()).unwrap());
    assert_eq!(
        serial, folded,
        "bit-sliced engine on folded lineage disagreed with world enumeration"
    );
    println!(
        "u = {u}: folded lineage + bitslice {} — {:.1}x faster than enumeration (not gated)",
        fmt_secs(folded_secs),
        serial_secs / folded_secs
    );
    // The enumerator evaluates a compiled query and counts in integer
    // weights ν(𝔅)·g, so per-world overhead no longer separates it from
    // the 64-worlds-per-word kernel: the two now run within a small
    // factor of each other (≈ 1.1–1.5x here, ≈ 20–33x before). The claim
    // is on the enumerator's side; the kernel's own speed is gated by
    // its score in BENCH_E3.json.
    assert!(
        speedup < 8.0,
        "world enumeration must stay within 8x of the bit-parallel engine on \
         dyadic instances (got {speedup:.1}x)"
    );
    report.value("bitslice_speedup_u16", speedup);
    if let Some(path) = report.write_if_requested() {
        println!("bench report written to {}", path.display());
    }
}
