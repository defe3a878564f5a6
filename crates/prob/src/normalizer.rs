//! The `g` normalizer from the proof of Theorem 4.2.
//!
//! The FP^#P algorithm needs a natural number `g` with `ν(𝔅)·g ∈ ℕ` for
//! every world `𝔅`, so that each leaf of the nondeterministic computation
//! tree can be split `ν(𝔅)·g` times and the accepting-path count becomes
//! `g · Pr[𝔅 ⊨ ψ]`.
//!
//! **Erratum note.** The paper computes `g` as the *lcm* of the
//! denominators of the individual fact probabilities `ν(Rā)` (the gcd
//! loop in the proof of Theorem 4.2 is exactly lcm accumulation). That is
//! not sufficient: `ν(𝔅)` is a *product* over all facts, so its
//! denominator can be the product of the per-fact denominators, not their
//! lcm. Smallest counterexample: two facts with `ν = 1/2` give a world of
//! probability `1/4`, but `lcm(2,2) = 2` and `2 · 1/4 ∉ ℕ`. The sound
//! normalizer is the *product* of the per-fact denominators (still
//! polynomially many bits, so the complexity argument is unaffected).
//! We implement both: [`paper_g`] (the published algorithm, for the
//! record) and [`sound_g`] (the corrected one used by `qrel-core`), and
//! test the discrepancy explicitly.

use crate::model::UnreliableDatabase;
use qrel_arith::BigUint;

/// The paper's `g`: the least common multiple of the denominators of the
/// normalized fact probabilities `ν(Rā)`, computed with the gcd loop from
/// the proof of Theorem 4.2. **Insufficient in general** — see the module
/// docs; retained to document the erratum.
pub fn paper_g(ud: &UnreliableDatabase) -> BigUint {
    let mut g = BigUint::one();
    for i in 0..ud.indexer().total() {
        let d = ud.nu_at(i).denom().clone();
        // gcd loop verbatim: b = gcd(g', d); if b = d, continue; else
        // g' := g'·d/b.
        let b = g.gcd(&d);
        if b != d {
            let (q, r) = d.div_rem(&b);
            debug_assert!(r.is_zero());
            g = g.mul_ref(&q);
        }
    }
    g
}

/// The corrected `g`: the product of the denominators of the normalized
/// fact probabilities. Satisfies `ν(𝔅)·g ∈ ℕ` for every world `𝔅`,
/// because each world probability is a product of factors `ν` or `1−ν`
/// whose (normalized) denominators divide the per-fact denominators.
/// Pinned facts (`ν ∈ {0, 1}`) contribute denominator 1, so the product
/// runs over the uncertain facts only; it is the sum of the world
/// weights of [`UnreliableDatabase::visit_worlds`].
pub fn sound_g(ud: &UnreliableDatabase) -> BigUint {
    let mut g = BigUint::one();
    for i in ud.uncertain_facts() {
        g = g.mul_ref(ud.nu_at(i).denom());
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrel_arith::{BigInt, BigRational};
    use qrel_db::{DatabaseBuilder, Fact};

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    fn two_coin_db() -> UnreliableDatabase {
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("S", 1)
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(1, 2)).unwrap();
        ud.set_error(&Fact::new(0, vec![1]), r(1, 2)).unwrap();
        ud
    }

    /// Check `g · ν(𝔅) ∈ ℕ` for all worlds.
    fn g_normalizes(ud: &UnreliableDatabase, g: &BigUint) -> bool {
        ud.worlds().all(|(_, p)| {
            let scaled = p.mul_ref(&BigRational::new(
                BigInt::from_biguint(g.clone()),
                BigInt::one(),
            ));
            scaled.is_integer()
        })
    }

    #[test]
    fn paper_g_insufficient_on_two_coins() {
        // The erratum: lcm(2,2) = 2 but the worlds have probability 1/4.
        let ud = two_coin_db();
        let pg = paper_g(&ud);
        assert_eq!(pg, BigUint::from_u32(2));
        assert!(!g_normalizes(&ud, &pg), "paper g unexpectedly sufficient");
    }

    #[test]
    fn sound_g_normalizes_two_coins() {
        let ud = two_coin_db();
        let sg = sound_g(&ud);
        assert_eq!(sg, BigUint::from_u32(4));
        assert!(g_normalizes(&ud, &sg));
    }

    #[test]
    fn sound_g_normalizes_mixed_denominators() {
        let db = DatabaseBuilder::new()
            .universe_size(3)
            .relation("S", 1)
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(1, 3)).unwrap();
        ud.set_error(&Fact::new(0, vec![1]), r(2, 5)).unwrap();
        ud.set_error(&Fact::new(0, vec![2]), r(5, 12)).unwrap();
        let sg = sound_g(&ud);
        assert!(g_normalizes(&ud, &sg));
        // And the scaled values over all worlds sum to exactly g.
        let total = ud
            .worlds()
            .fold(BigRational::zero(), |acc, (_, p)| acc.add_ref(&p));
        assert_eq!(total, BigRational::one());
    }

    #[test]
    fn reliable_database_g_is_one() {
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("S", 1)
            .build();
        let ud = UnreliableDatabase::reliable(db);
        assert_eq!(paper_g(&ud), BigUint::one());
        assert_eq!(sound_g(&ud), BigUint::one());
    }

    #[test]
    fn paper_g_agrees_when_one_uncertain_fact() {
        // With a single uncertain fact the lcm *is* sufficient.
        let db = DatabaseBuilder::new()
            .universe_size(1)
            .relation("S", 1)
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(2, 7)).unwrap();
        let pg = paper_g(&ud);
        assert_eq!(pg, BigUint::from_u32(7));
        assert!(g_normalizes(&ud, &pg));
    }
}
