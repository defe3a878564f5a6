//! Exact enumeration of the possible-world space `Ω(𝔇)`.

use crate::model::UnreliableDatabase;
use qrel_arith::{BigRational, FastNat};
use qrel_db::{Database, Fact};

/// Iterator over all worlds with nonzero probability, with their exact
/// probabilities. There are `2^u` of them for `u` uncertain facts — this
/// is the exponential enumeration at the heart of the FP^#P algorithm of
/// Theorem 4.2, usable in practice for small `u` and as a ground-truth
/// oracle for the approximation algorithms.
pub struct WorldIter<'a> {
    ud: &'a UnreliableDatabase,
    /// Base world: observed database with `μ = 1` facts pre-flipped.
    base: Database,
    uncertain: Vec<usize>,
    /// For each uncertain fact: (ν, 1−ν) — probability of true / false.
    nu: Vec<(BigRational, BigRational)>,
    next_mask: u64,
    done: bool,
}

impl<'a> WorldIter<'a> {
    /// Create the iterator.
    ///
    /// # Panics
    /// Panics if there are more than 63 uncertain facts (the enumeration
    /// would not terminate in any case).
    pub fn new(ud: &'a UnreliableDatabase) -> Self {
        let uncertain = ud.uncertain_facts();
        assert!(
            uncertain.len() < 64,
            "world enumeration limited to 63 uncertain facts (got {})",
            uncertain.len()
        );
        let base = ud.mode_world_base();
        let nu = uncertain
            .iter()
            .map(|&i| {
                let nu = ud.nu_at(i);
                let co = nu.one_minus();
                (nu, co)
            })
            .collect();
        WorldIter {
            ud,
            base,
            uncertain,
            nu,
            next_mask: 0,
            done: false,
        }
    }

    /// Number of worlds this iterator will yield.
    pub fn len(&self) -> u64 {
        1u64 << self.uncertain.len()
    }

    pub fn is_empty(&self) -> bool {
        false // always at least the base world
    }
}

impl UnreliableDatabase {
    /// Observed database with every `μ = 1` fact flipped (the deterministic
    /// part of each world).
    pub(crate) fn mode_world_base(&self) -> Database {
        let mut base = self.observed().clone();
        let one = BigRational::one();
        for i in 0..self.indexer().total() {
            if self.mu_at(i) == &one {
                let fact = self.indexer().fact_at(i);
                let observed = self.observed().holds(&fact);
                base.set_fact(&fact, !observed);
            }
        }
        base
    }

    /// Iterate all nonzero-probability worlds with exact probabilities.
    pub fn worlds(&self) -> WorldIter<'_> {
        WorldIter::new(self)
    }
}

/// The Gray-code walk over `Ω(𝔇)`, prepared once: the base world (the
/// observed database with every `μ = 1` fact flipped), the uncertain
/// facts, and each fact's integer weight factors. Between consecutive
/// worlds exactly one fact flips, so a visit pays one `set_fact` and one
/// integer divide/multiply per world instead of rebuilding the database
/// — the fast path for the exact engines. Shards share one walk and
/// each visits its own range.
///
/// A world's weight is its Theorem 4.2 weight `ν(𝔅)·g ∈ ℕ`, where `g`
/// is [`crate::normalizer::sound_g`]: with `ν = a/d` per uncertain fact,
/// it is the product of `a` (fact true) or `d − a` (fact false). The
/// weights sum to `g`, so callers divide once at the end.
#[derive(Debug, Clone)]
pub struct WorldWalk {
    base: Database,
    facts: Vec<Fact>,
    /// Per uncertain fact: the weight factors (a, d − a) of the fact
    /// being true / false. Both are positive.
    factors: Vec<(FastNat, FastNat)>,
}

impl WorldWalk {
    /// Prepare the walk.
    ///
    /// # Panics
    /// Panics beyond 63 uncertain facts.
    pub fn new(ud: &UnreliableDatabase) -> Self {
        let uncertain = ud.uncertain_facts();
        assert!(
            uncertain.len() < 64,
            "world enumeration limited to 63 uncertain facts (got {})",
            uncertain.len()
        );
        WorldWalk {
            base: ud.mode_world_base(),
            facts: uncertain.iter().map(|&i| ud.indexer().fact_at(i)).collect(),
            factors: uncertain
                .iter()
                .map(|&i| {
                    let nu = ud.nu_at(i);
                    let on = nu.numer().magnitude();
                    let off = nu.denom().checked_sub(on).expect("ν ≤ 1");
                    (
                        FastNat::from_biguint(on.clone()),
                        FastNat::from_biguint(off),
                    )
                })
                .collect(),
        }
    }

    /// Number of worlds (`2^u`).
    pub fn len(&self) -> u64 {
        1u64 << self.facts.len()
    }

    pub fn is_empty(&self) -> bool {
        false // always at least the base world
    }

    /// Visit the contiguous slice `[start, end)` of the Gray-code world
    /// sequence (world `k` is the Gray code of `k`), passing each world
    /// by reference with its weight; returning `false` stops early.
    /// Partitioning `[0, 2^u)` into ranges visits every world exactly
    /// once — the basis of the parallel exact engines: each range pays
    /// one base-world clone and `O(u)` integer work to seed its starting
    /// world, then one flip per step.
    ///
    /// # Panics
    /// Panics when the range exceeds `[0, 2^u]`.
    pub fn visit_range<F>(&self, start: u64, end: u64, mut visitor: F)
    where
        F: FnMut(&Database, &FastNat) -> bool,
    {
        let total = self.len();
        assert!(
            start <= end && end <= total,
            "world range [{start}, {end}) out of bounds for {total} worlds"
        );
        if start == end {
            return;
        }
        let mut world = self.base.clone();
        // Seed the state at position `start`: Gray code of the index.
        let gray = start ^ (start >> 1);
        let mut state = vec![false; self.facts.len()];
        let mut weight = FastNat::one();
        for (bit, fact) in self.facts.iter().enumerate() {
            let on = (gray >> bit) & 1 == 1;
            state[bit] = on;
            world.set_fact(fact, on);
            let (if_true, if_false) = &self.factors[bit];
            weight = weight.mul(if on { if_true } else { if_false });
        }
        if !visitor(&world, &weight) {
            return;
        }
        // Standard Gray code: step k flips the bit at trailing_zeros(k).
        for k in (start + 1)..end {
            let bit = k.trailing_zeros() as usize;
            let new_value = !state[bit];
            state[bit] = new_value;
            world.set_fact(&self.facts[bit], new_value);
            let (on, off) = &self.factors[bit];
            weight = if new_value {
                weight.div_exact(off).mul(on)
            } else {
                weight.div_exact(on).mul(off)
            };
            if !visitor(&world, &weight) {
                return;
            }
        }
    }
}

impl UnreliableDatabase {
    /// Visit every nonzero-probability world in Gray-code order with its
    /// integer weight `ν(𝔅)·g` (see [`WorldWalk`]); returning `false`
    /// stops early.
    ///
    /// # Panics
    /// Panics beyond 63 uncertain facts.
    pub fn visit_worlds<F>(&self, visitor: F)
    where
        F: FnMut(&Database, &FastNat) -> bool,
    {
        let walk = WorldWalk::new(self);
        walk.visit_range(0, walk.len(), visitor);
    }
}

impl Iterator for WorldIter<'_> {
    type Item = (Database, BigRational);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mask = self.next_mask;
        let mut world = self.base.clone();
        let mut prob = BigRational::one();
        for (bit, &fact_ix) in self.uncertain.iter().enumerate() {
            let fact = self.ud.indexer().fact_at(fact_ix);
            let set_true = (mask >> bit) & 1 == 1;
            world.set_fact(&fact, set_true);
            let (nu, co) = &self.nu[bit];
            prob = prob.mul_ref(if set_true { nu } else { co });
        }
        if mask + 1 == 1u64 << self.uncertain.len() {
            self.done = true;
        } else {
            self.next_mask += 1;
        }
        Some((world, prob))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalizer::sound_g;
    use qrel_arith::{BigInt, BigRational, BigUint};
    use qrel_db::{DatabaseBuilder, Fact};

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    fn setup() -> UnreliableDatabase {
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("S", 1)
            .tuples("S", [vec![0]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(1, 3)).unwrap();
        ud.set_error(&Fact::new(0, vec![1]), r(1, 4)).unwrap();
        ud
    }

    #[test]
    fn enumerates_all_worlds_with_correct_probabilities() {
        let ud = setup();
        let worlds: Vec<_> = ud.worlds().collect();
        assert_eq!(worlds.len(), 4);
        // Probabilities sum to exactly 1.
        let total = worlds
            .iter()
            .fold(BigRational::zero(), |acc, (_, p)| acc.add_ref(p));
        assert_eq!(total, BigRational::one());
        // Each enumerated probability matches the model's direct formula.
        for (w, p) in &worlds {
            assert_eq!(&ud.world_probability(w), p, "world:\n{w}");
        }
        // The observed world has probability (2/3)(3/4) = 1/2.
        let observed = ud.observed().clone();
        let (_, p_obs) = worlds
            .iter()
            .find(|(w, _)| *w == observed)
            .expect("observed world enumerated");
        assert_eq!(p_obs, &r(1, 2));
    }

    #[test]
    fn worlds_are_distinct() {
        let ud = setup();
        let worlds: Vec<_> = ud.worlds().map(|(w, _)| w).collect();
        for i in 0..worlds.len() {
            for j in (i + 1)..worlds.len() {
                assert_ne!(worlds[i], worlds[j]);
            }
        }
    }

    #[test]
    fn deterministic_facts_pinned_in_every_world() {
        let db = DatabaseBuilder::new()
            .universe_size(2)
            .relation("S", 1)
            .relation("T", 1)
            .tuples("S", [vec![0]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![1]), r(1, 2)).unwrap(); // S(1) uncertain
        ud.set_error(&Fact::new(1, vec![0]), r(1, 1)).unwrap(); // T(0) surely flipped
        for (w, p) in ud.worlds() {
            assert!(w.holds(&Fact::new(0, vec![0])), "S(0) stays true");
            assert!(w.holds(&Fact::new(1, vec![0])), "T(0) flipped on");
            assert!(!w.holds(&Fact::new(1, vec![1])), "T(1) stays false");
            assert_eq!(p, r(1, 2));
        }
        assert_eq!(ud.worlds().count(), 2);
    }

    #[test]
    fn fully_reliable_single_world() {
        let db = DatabaseBuilder::new()
            .universe_size(3)
            .relation("E", 2)
            .build();
        let ud = UnreliableDatabase::reliable(db.clone());
        let worlds: Vec<_> = ud.worlds().collect();
        assert_eq!(worlds.len(), 1);
        assert_eq!(worlds[0].0, db);
        assert_eq!(worlds[0].1, BigRational::one());
    }

    #[test]
    fn len_matches_count() {
        let ud = setup();
        assert_eq!(ud.worlds().len(), 4);
        assert_eq!(ud.worlds().count(), 4);
    }

    /// `weight / g` as a probability.
    fn scaled(weight: &FastNat, g: &BigUint) -> BigRational {
        BigRational::new(
            BigInt::from_biguint(weight.to_biguint()),
            BigInt::from_biguint(g.clone()),
        )
    }

    #[test]
    fn gray_code_visitor_matches_iterator() {
        let ud = setup();
        let g = sound_g(&ud);
        let mut expected: Vec<(qrel_db::Database, BigRational)> = ud.worlds().collect();
        let mut visited: Vec<(qrel_db::Database, BigRational)> = Vec::new();
        ud.visit_worlds(|w, weight| {
            visited.push((w.clone(), scaled(weight, &g)));
            true
        });
        assert_eq!(visited.len(), expected.len());
        // Same multiset of (world, probability) pairs, different order.
        let key = |(w, p): &(qrel_db::Database, BigRational)| (format!("{w}"), p.clone());
        expected.sort_by_key(key);
        visited.sort_by_key(key);
        assert_eq!(expected, visited);
    }

    #[test]
    fn gray_code_visitor_early_stop() {
        let ud = setup();
        let mut seen = 0;
        ud.visit_worlds(|_, _| {
            seen += 1;
            seen < 2
        });
        assert_eq!(seen, 2);
    }

    #[test]
    fn range_partition_matches_full_visit() {
        // Any partition of [0, 2^u) into contiguous ranges must visit
        // exactly the worlds of the full Gray-code sweep, in order.
        let db = DatabaseBuilder::new()
            .universe_size(3)
            .relation("S", 1)
            .tuples("S", [vec![0]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(1, 3)).unwrap();
        ud.set_error(&Fact::new(0, vec![1]), r(1, 4)).unwrap();
        ud.set_error(&Fact::new(0, vec![2]), r(2, 5)).unwrap();
        let mut full: Vec<(qrel_db::Database, FastNat)> = Vec::new();
        ud.visit_worlds(|w, p| {
            full.push((w.clone(), p.clone()));
            true
        });
        assert_eq!(full.len(), 8);
        let walk = WorldWalk::new(&ud);
        for cuts in [vec![0u64, 8], vec![0, 3, 8], vec![0, 1, 4, 6, 8]] {
            let mut pieced: Vec<(qrel_db::Database, FastNat)> = Vec::new();
            for pair in cuts.windows(2) {
                walk.visit_range(pair[0], pair[1], |w, p| {
                    pieced.push((w.clone(), p.clone()));
                    true
                });
            }
            assert_eq!(pieced, full, "partition {cuts:?}");
        }
    }

    #[test]
    fn empty_range_visits_nothing() {
        let ud = setup();
        let mut seen = 0;
        WorldWalk::new(&ud).visit_range(2, 2, |_, _| {
            seen += 1;
            true
        });
        assert_eq!(seen, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_range_rejected() {
        let ud = setup();
        WorldWalk::new(&ud).visit_range(0, 5, |_, _| true);
    }

    #[test]
    fn gray_code_visitor_pinned_facts() {
        let db = qrel_db::DatabaseBuilder::new()
            .universe_size(2)
            .relation("S", 1)
            .tuples("S", [vec![0]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(
            &qrel_db::Fact::new(0, vec![1]),
            BigRational::from_ratio(1, 1),
        )
        .unwrap(); // pinned flip
        let mut count = 0;
        ud.visit_worlds(|w, p| {
            assert!(w.holds(&qrel_db::Fact::new(0, vec![0])));
            assert!(w.holds(&qrel_db::Fact::new(0, vec![1])));
            assert_eq!(p, &FastNat::one());
            count += 1;
            true
        });
        assert_eq!(count, 1);
    }

    /// Check the weight invariants of the Gray-code walk against the
    /// independent product weights of [`UnreliableDatabase::worlds`]:
    /// every weight is `world_probability · g`, and the weights sum to
    /// `g`. Returns the weights in visit order.
    fn check_weights(ud: &UnreliableDatabase) -> Vec<(qrel_db::Database, FastNat)> {
        let g = sound_g(ud);
        let mut visited = Vec::new();
        let mut total = FastNat::zero();
        ud.visit_worlds(|w, weight| {
            total.add_assign(weight);
            visited.push((w.clone(), weight.clone()));
            true
        });
        assert_eq!(total.to_biguint(), g, "weights sum to g");
        assert_eq!(visited.len() as u64, ud.worlds().len());
        for (w, weight) in &visited {
            assert_eq!(scaled(weight, &g), ud.world_probability(w), "world:\n{w}");
        }
        let mut from_iter: Vec<(String, BigRational)> =
            ud.worlds().map(|(w, p)| (format!("{w}"), p)).collect();
        let mut from_walk: Vec<(String, BigRational)> = visited
            .iter()
            .map(|(w, weight)| (format!("{w}"), scaled(weight, &g)))
            .collect();
        from_iter.sort();
        from_walk.sort();
        assert_eq!(from_iter, from_walk);
        visited
    }

    #[test]
    fn weights_are_world_probabilities_times_g() {
        let db = DatabaseBuilder::new()
            .universe_size(3)
            .relation("S", 1)
            .tuples("S", [vec![0]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0]), r(1, 3)).unwrap();
        ud.set_error(&Fact::new(0, vec![1]), r(2, 5)).unwrap();
        ud.set_error(&Fact::new(0, vec![2]), r(5, 12)).unwrap();
        assert_eq!(sound_g(&ud), BigUint::from_u32(3 * 5 * 12));
        let visited = check_weights(&ud);
        assert!(visited.iter().all(|(_, w)| w.is_small()));
    }

    #[test]
    fn large_prime_denominators_promote_and_stay_exact() {
        // g = p1·p2·p3 has 157 bits, so most weights leave u128 and the
        // walk must promote to BigUint (and drop back for the small
        // all-true weight 1·2·3) without losing a bit.
        let primes = [
            18_446_744_073_709_551_557u64,
            2_305_843_009_213_693_951,
            4_294_967_291,
        ];
        let db = DatabaseBuilder::new()
            .universe_size(3)
            .relation("S", 1)
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        for (i, &p) in primes.iter().enumerate() {
            ud.set_error(&Fact::new(0, vec![i as u32]), r(i as i64 + 1, p))
                .unwrap();
        }
        let visited = check_weights(&ud);
        assert!(visited.iter().any(|(_, w)| !w.is_small()), "no promotion");
        assert!(visited.iter().any(|(_, w)| w.is_small()), "no demotion");
        // The Pr[S(0)] sum is bit-equal to the BigRational product sum.
        let g = sound_g(&ud);
        let s0 = Fact::new(0, vec![0]);
        let mut hits = FastNat::zero();
        for (w, weight) in &visited {
            if w.holds(&s0) {
                hits.add_assign(weight);
            }
        }
        let rational = ud
            .worlds()
            .filter(|(w, _)| w.holds(&s0))
            .fold(BigRational::zero(), |acc, (_, p)| acc.add_ref(&p));
        assert_eq!(scaled(&hits, &g), rational);
        assert_eq!(rational, r(1, primes[0]));
    }
}
