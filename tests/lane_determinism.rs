//! The determinism contract for the bit-parallel world engine: packing
//! 64 worlds into a machine word may change only wall-clock time —
//! never a bit of the answer. Exact rational addition is associative,
//! so every configuration below must be structurally equal, not merely
//! close.

use qrel::arith::{BigRational, BigUint};
use qrel::count::naive_mc::naive_mc_probability_sharded;
use qrel::count::{
    dnf_count_models_bitslice, dnf_probability_bitslice, dnf_probability_enum,
    dnf_probability_shannon, KarpLuby,
};
use qrel::logic::prop::{Dnf, Lit};
use qrel::prelude::Budget;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn r(n: i64, d: u64) -> BigRational {
    BigRational::from_ratio(n, d)
}

fn random_dnf(rng: &mut StdRng, num_vars: usize, num_terms: usize, k: usize) -> Dnf {
    let mut d = Dnf::new();
    while d.num_terms() < num_terms {
        let len = rng.gen_range(1..=k);
        let lits: Vec<Lit> = (0..len)
            .map(|_| {
                let v = rng.gen_range(0..num_vars) as u32;
                if rng.gen() {
                    Lit::pos(v)
                } else {
                    Lit::neg(v)
                }
            })
            .collect();
        d.push_term_checked(lits);
    }
    d
}

/// Sizes chosen to cover every block shape: entirely inside one partial
/// block (n < 6), exactly one full block (n = 6), and multi-block with
/// both dyadic (fast-path) and non-dyadic (promoted) probabilities.
fn instances() -> Vec<(Dnf, Vec<BigRational>)> {
    let mut rng = StdRng::seed_from_u64(0x1a7e);
    let mut out = Vec::new();
    for (n, dens) in [
        (3usize, [2u64, 4, 8]),
        (6, [2, 4, 16]),
        (9, [2, 8, 16]),
        (11, [3, 5, 12]),
        (13, [2, 3, 4]),
    ] {
        let nt = rng.gen_range(2..8);
        let d = random_dnf(&mut rng, n, nt, 3);
        let probs: Vec<BigRational> = (0..n)
            .map(|_| {
                let q = dens[rng.gen_range(0..dens.len())];
                r(rng.gen_range(1..q) as i64, q)
            })
            .collect();
        out.push((d, probs));
    }
    out
}

#[test]
fn bitslice_equals_shannon_and_enumeration_bit_for_bit() {
    for (i, (d, probs)) in instances().iter().enumerate() {
        let shannon = dnf_probability_shannon(d, probs);
        let sliced = dnf_probability_bitslice(d, probs);
        let stepped = dnf_probability_enum(d, probs);
        assert_eq!(sliced, shannon, "instance {i}: bitslice vs Shannon");
        assert_eq!(stepped, shannon, "instance {i}: enumeration vs Shannon");
    }
}

#[test]
fn model_counting_matches_the_uniform_shannon_identity() {
    // Under p = 1/2 everywhere, #models = Pr[φ] · 2^n exactly.
    let mut rng = StdRng::seed_from_u64(0xc0de);
    for n in [4usize, 6, 10, 14] {
        let nt = rng.gen_range(2..9);
        let d = random_dnf(&mut rng, n, nt, 3);
        let half = vec![r(1, 2); n];
        let count = dnf_count_models_bitslice(&d, n);
        let pr = dnf_probability_shannon(&d, &half);
        let two_n = BigUint::from_u64(1).shl_bits(n as u64);
        let expected = pr.mul_ref(&BigRational::new(
            qrel::arith::BigInt::from_biguint(two_n),
            qrel::arith::BigInt::one(),
        ));
        assert!(expected.is_integer(), "n={n}: Pr·2^n must be integral");
        assert_eq!(
            BigRational::new(
                qrel::arith::BigInt::from_biguint(count),
                qrel::arith::BigInt::one()
            ),
            expected,
            "n={n}: bitslice model count vs Shannon identity"
        );
    }
}

#[test]
fn packed_samplers_are_bit_identical_across_thread_counts() {
    // Wide formulas (> 64 variables) force the packed assignment onto
    // multiple words; the sampling estimates must still be independent
    // of the thread count, exactly as tests/determinism.rs pins for the
    // narrow case.
    let mut rng = StdRng::seed_from_u64(0xbeef);
    let wide = random_dnf(&mut rng, 70, 12, 3);
    let probs: Vec<BigRational> = (0..70).map(|i| r(1 + (i as i64 % 3), 5)).collect();
    let kl = KarpLuby::new(&wide, &probs);
    let kl_base = kl
        .run_budgeted(20_000, &Budget::unlimited(), 9, 1)
        .0
        .estimate;
    let mc_base = naive_mc_probability_sharded(&wide, &probs, 20_000, 9, 1);
    for threads in [2usize, 4, 8] {
        let kl_est = kl
            .run_budgeted(20_000, &Budget::unlimited(), 9, threads)
            .0
            .estimate;
        let mc_est = naive_mc_probability_sharded(&wide, &probs, 20_000, 9, threads);
        assert_eq!(
            kl_est.to_bits(),
            kl_base.to_bits(),
            "KL at {threads} threads on a 70-variable packed assignment"
        );
        assert_eq!(
            mc_est.to_bits(),
            mc_base.to_bits(),
            "MC at {threads} threads on a 70-variable packed assignment"
        );
    }
}
