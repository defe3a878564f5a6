//! The incremental canonical db-hash.
//!
//! The hash of a dataset is
//!
//! ```text
//!   H(D) = base(universe, vocabulary, model)
//!          XOR_{f : state(f) ≠ default} h(f, state(f))
//! ```
//!
//! where a fact's *state* is `(present, μ)` and the default state is
//! `(absent, μ = 0)`. Three properties make this the right shape for a
//! mutable store:
//!
//! * **Order independence** — XOR is commutative and associative, so
//!   the hash is a pure function of the fact *set*, not of ingest or
//!   replay order.
//! * **Self-inverse updates** — changing one fact's state is
//!   `H ^= h(f, old) ^ h(f, new)`: a commit touches only the facts it
//!   mutates, never rescans the dataset.
//! * **Default transparency** — the default state hashes to `0`, so a
//!   dataset's hash never depends on the (astronomically many) facts
//!   nobody ever mentioned, and deleting a fact truly removes its
//!   contribution.
//!
//! Raw FNV-1a alone would be a weak combiner under XOR (related inputs
//! produce related outputs), so every per-fact hash is passed through a
//! SplitMix64-style finalizer for avalanche.

use qrel_arith::BigRational;
use qrel_prob::UnreliableDatabase;
use std::fmt::{self, Write as _};

/// Stable 64-bit FNV-1a over `bytes`: the db-hash's per-fact hasher
/// and the serve cache's key, fingerprint and checksum hash. Unlike
/// std's `DefaultHasher` it is fixed forever, so persisted and recorded
/// hashes replay.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.0
}

/// FNV-1a fed piecewise: hashing the parts of a byte string in order
/// equals [`fnv1a`] of their concatenation, with no buffer to build.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// SplitMix64-style finalizer: full-avalanche mixing so XOR-combining
/// many per-fact hashes does not cancel structure. Its first multiplier
/// is `0xbf58_476d_1ce4_e9b5`, not SplitMix64's `…e5b9`; db-hashes are
/// persisted, so the constant stays.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e9b5);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash of one fact in one state. The default state `(absent, μ = 0)`
/// hashes to `0` so it contributes nothing to the combine; `mu` must be
/// in canonical [`BigRational`] display form (`"0"`, `"1"`, `"p/q"`).
pub fn fact_state_hash(relation: &str, tuple: &[u32], present: bool, mu: &str) -> u64 {
    if !present && mu == "0" {
        return 0;
    }
    state_hash(relation, tuple, present, mu)
}

/// [`fact_state_hash`] of a non-default state, with `μ` hashed as its
/// display form is written rather than through a string.
fn state_hash(relation: &str, tuple: &[u32], present: bool, mu: impl fmt::Display) -> u64 {
    let mut h = Fnv1a::default();
    h.write(relation.as_bytes());
    h.write(&[0]);
    for &e in tuple {
        h.write(&e.to_le_bytes());
    }
    h.write(&[u8::from(present), 0]);
    write!(h, "{mu}").expect("hashing cannot fail");
    mix64(h.0)
}

/// Hash of everything a dataset is besides its facts: element names,
/// relation symbols (name and arity, in vocabulary order), and the
/// error model. Two datasets with different shapes never collide to
/// the same hash just because both are empty.
pub fn base_hash(universe: &[String], relations: &[(String, usize)], model: &str) -> u64 {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(universe.len() as u64).to_le_bytes());
    for name in universe {
        buf.extend_from_slice(name.as_bytes());
        buf.push(0);
    }
    for (name, arity) in relations {
        buf.extend_from_slice(name.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&(*arity as u64).to_le_bytes());
    }
    buf.extend_from_slice(model.as_bytes());
    mix64(fnv1a(&buf))
}

/// From-scratch recomputation of the incremental db-hash for an
/// in-memory model, in one pass over the facts. [`Store`] commits
/// maintain the same value without ever rescanning; tests pin the two
/// against each other.
///
/// [`Store`]: crate::Store
pub fn db_hash_of(ud: &UnreliableDatabase) -> u64 {
    let obs = ud.observed();
    let universe: Vec<String> = obs
        .universe()
        .elements()
        .map(|e| obs.universe().name(e).to_string())
        .collect();
    let relations: Vec<(String, usize)> = obs
        .vocabulary()
        .symbols()
        .iter()
        .map(|s| (s.name().to_string(), s.arity()))
        .collect();
    let mut h = base_hash(&universe, &relations, ud.model().name());
    for_each_live_fact(ud, |relation, tuple, present, mu| {
        h ^= state_hash(relation, tuple, present, mu);
    });
    h
}

/// Number of non-default facts in a model: observed tuples plus absent
/// facts with `μ ≠ 0`. This is the "live facts" figure the store tracks
/// per dataset and `/healthz` reports.
pub fn live_fact_count(ud: &UnreliableDatabase) -> u64 {
    let mut count = 0;
    for_each_live_fact(ud, |_, _, _, _| count += 1);
    count
}

/// Visit every non-default fact — observed, or absent with `μ ≠ 0` —
/// as `(relation, tuple, present, μ)`, in one walk of the dense fact
/// order. Each relation's block enumerates its tuples lexicographically,
/// the order its sorted tuple set iterates in, so presence is a merge
/// with that set rather than a lookup per fact.
fn for_each_live_fact(
    ud: &UnreliableDatabase,
    mut visit: impl FnMut(&str, &[u32], bool, &BigRational),
) {
    let obs = ud.observed();
    let n = obs.size();
    let mut index = 0;
    for (ri, sym) in obs.vocabulary().symbols().iter().enumerate() {
        let mut observed = obs.relation(ri).iter().peekable();
        let mut tuple = vec![0u32; sym.arity()];
        for _ in 0..n.pow(sym.arity() as u32) {
            let present = observed.next_if(|t| **t == tuple).is_some();
            let mu = ud.mu_at(index);
            if present || !mu.is_zero() {
                visit(sym.name(), &tuple, present, mu);
            }
            index += 1;
            for e in tuple.iter_mut().rev() {
                *e += 1;
                if (*e as usize) < n {
                    break;
                }
                *e = 0;
            }
        }
        debug_assert!(
            observed.next().is_none(),
            "an observed tuple outside the fact order"
        );
    }
    debug_assert_eq!(index, ud.indexer().total());
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use qrel_db::{DatabaseBuilder, Fact};
    use qrel_prob::{ErrorModel, ErrorSpec, UnreliableDatabaseSpec};

    /// Referee: the two-pass recomputation the one-pass [`db_hash_of`]
    /// replaced — observed tuples through a `μ` lookup each, then a
    /// scan of the whole domain for absent facts with `μ ≠ 0`, every
    /// `μ` printed to a string.
    fn two_pass_db_hash(ud: &UnreliableDatabase) -> u64 {
        let obs = ud.observed();
        let universe: Vec<String> = obs
            .universe()
            .elements()
            .map(|e| obs.universe().name(e).to_string())
            .collect();
        let relations: Vec<(String, usize)> = obs
            .vocabulary()
            .symbols()
            .iter()
            .map(|s| (s.name().to_string(), s.arity()))
            .collect();
        let mut h = base_hash(&universe, &relations, ud.model().name());
        for (ri, sym) in obs.vocabulary().symbols().iter().enumerate() {
            for tuple in obs.relation(ri).iter() {
                let mu = ud.mu(&Fact::new(ri, tuple.clone()));
                h ^= fact_state_hash(sym.name(), tuple, true, &mu.to_string());
            }
        }
        for i in 0..ud.indexer().total() {
            let mu = ud.mu_at(i);
            let fact = ud.indexer().fact_at(i);
            if !mu.is_zero() && !obs.holds(&fact) {
                let name = obs.vocabulary().symbols()[fact.relation].name();
                h ^= fact_state_hash(name, &fact.tuple, false, &mu.to_string());
            }
        }
        h
    }

    /// The referee's live-fact count: observed tuples plus a domain scan.
    fn two_pass_live_count(ud: &UnreliableDatabase) -> u64 {
        let absent = (0..ud.indexer().total())
            .filter(|&i| !ud.mu_at(i).is_zero() && !ud.observed().holds(&ud.indexer().fact_at(i)))
            .count();
        ud.observed().tuple_count() as u64 + absent as u64
    }

    /// μ strings drawn for the random models: the endpoints, values
    /// past a `u64`, and a non-reduced spelling.
    pub(crate) const MUS: [&str; 7] = [
        "0",
        "1",
        "1/3",
        "2/4",
        "18446744073709551617/36893488147419103233",
        "99999999999999999999/100000000000000000000",
        "3/13",
    ];

    /// A random spec over `E/2, S/1, P/0`: observed tuples, then error
    /// rows (which may repeat a fact; the later row wins), then
    /// `μ(P) = 1/2`. Under positive-only, rows that would put `μ > 0`
    /// on an absent fact are dropped and `P` is observed.
    pub(crate) fn random_spec(
        n: u32,
        observed: &[(bool, u32, u32)],
        errors: &[(bool, u32, u32, usize)],
        positive_only: bool,
    ) -> UnreliableDatabaseSpec {
        let tuple = |binary: bool, a: u32, b: u32| {
            if binary {
                vec![a % n, b % n]
            } else {
                vec![a % n]
            }
        };
        let db = DatabaseBuilder::new()
            .universe_size(n as usize)
            .relation("E", 2)
            .relation("S", 1)
            .relation("P", 0)
            .tuples(
                "E",
                observed
                    .iter()
                    .filter(|o| o.0)
                    .map(|&(_, a, b)| tuple(true, a, b)),
            )
            .tuples(
                "S",
                observed
                    .iter()
                    .filter(|o| !o.0)
                    .map(|&(_, a, b)| tuple(false, a, b)),
            )
            .tuples("P", positive_only.then(Vec::new))
            .build();
        let errors = errors
            .iter()
            .filter(|&&(binary, a, b, mu)| {
                let rel = usize::from(!binary);
                !positive_only || mu == 0 || db.holds(&Fact::new(rel, tuple(binary, a, b)))
            })
            .map(|&(binary, a, b, mu)| ErrorSpec {
                relation: if binary { "E" } else { "S" }.into(),
                tuple: tuple(binary, a, b),
                mu: MUS[mu].into(),
            })
            .chain([ErrorSpec {
                relation: "P".into(),
                tuple: vec![],
                mu: "1/2".into(),
            }])
            .collect();
        let model = if positive_only {
            ErrorModel::PositiveOnly
        } else {
            ErrorModel::Full
        };
        UnreliableDatabaseSpec {
            database: db,
            model: model.name().into(),
            errors,
        }
    }

    proptest! {
        #[test]
        fn one_pass_hash_matches_the_two_pass_referee(
            n in 1u32..6,
            observed in proptest::collection::vec((any::<bool>(), 0u32..6, 0u32..6), 0..12),
            errors in proptest::collection::vec(
                (any::<bool>(), 0u32..6, 0u32..6, 0usize..MUS.len()), 0..16),
            positive_only in any::<bool>(),
        ) {
            let ud = random_spec(n, &observed, &errors, positive_only).build().unwrap();
            prop_assert_eq!(db_hash_of(&ud), two_pass_db_hash(&ud));
            prop_assert_eq!(live_fact_count(&ud), two_pass_live_count(&ud));
        }
    }

    #[test]
    fn one_pass_hash_matches_the_referee_on_the_edge_states() {
        // Observed E(0,1) at μ = 0, absent E(1,1) at μ = 1, and S(2)
        // assigned twice: the later μ wins in both hashes.
        let spec = random_spec(
            3,
            &[(true, 0, 1), (false, 2, 0)],
            &[
                (true, 0, 1, 0),
                (true, 1, 1, 1),
                (false, 2, 0, 2),
                (false, 2, 0, 4),
            ],
            false,
        );
        let ud = spec.build().unwrap();
        assert_eq!(
            ud.mu(&Fact::new(1, vec![2])),
            &BigRational::parse(MUS[4]).unwrap()
        );
        assert_eq!(db_hash_of(&ud), two_pass_db_hash(&ud));
        // The later row wins: the hash is the one of the single final row.
        let single = random_spec(
            3,
            &[(true, 0, 1), (false, 2, 0)],
            &[(true, 0, 1, 0), (true, 1, 1, 1), (false, 2, 0, 4)],
            false,
        );
        assert_eq!(db_hash_of(&ud), db_hash_of(&single.build().unwrap()));
        // Positive-only: μ only on observed facts.
        let positive = random_spec(3, &[(true, 0, 1), (false, 2, 0)], &[(true, 0, 1, 2)], true);
        let ud = positive.build().unwrap();
        assert_eq!(db_hash_of(&ud), two_pass_db_hash(&ud));
        assert_eq!(live_fact_count(&ud), two_pass_live_count(&ud));
    }

    fn sample_ud() -> UnreliableDatabase {
        let db = DatabaseBuilder::new()
            .universe_size(3)
            .relation("E", 2)
            .relation("S", 1)
            .tuples("E", [vec![0, 1], vec![1, 2]])
            .tuples("S", [vec![2]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0, 1]), BigRational::from_ratio(1, 10))
            .unwrap();
        ud.set_error(&Fact::new(1, vec![0]), BigRational::from_ratio(1, 4))
            .unwrap();
        ud
    }

    #[test]
    fn default_state_hashes_to_zero() {
        assert_eq!(fact_state_hash("E", &[0, 1], false, "0"), 0);
        assert_ne!(fact_state_hash("E", &[0, 1], true, "0"), 0);
        assert_ne!(fact_state_hash("E", &[0, 1], false, "1/2"), 0);
    }

    #[test]
    fn state_hash_distinguishes_every_component() {
        let h = fact_state_hash("E", &[0, 1], true, "1/2");
        assert_ne!(h, fact_state_hash("S", &[0, 1], true, "1/2"));
        assert_ne!(h, fact_state_hash("E", &[1, 0], true, "1/2"));
        assert_ne!(h, fact_state_hash("E", &[0, 1], false, "1/2"));
        assert_ne!(h, fact_state_hash("E", &[0, 1], true, "1/3"));
    }

    #[test]
    fn incremental_update_is_self_inverse() {
        let ud = sample_ud();
        let h = db_hash_of(&ud);
        // Flip a fact's state and flip it back: XOR algebra restores h.
        let old = fact_state_hash("E", &[0, 1], true, "1/10");
        let new = fact_state_hash("E", &[0, 1], true, "1/3");
        let mutated = h ^ old ^ new;
        assert_ne!(mutated, h);
        assert_eq!(mutated ^ new ^ old, h);
    }

    #[test]
    fn hash_matches_a_rebuilt_model_regardless_of_insertion_order() {
        let ud = sample_ud();
        // Build the same model with the mutations applied in a different
        // order; the hash must agree because it is order-free.
        let db = DatabaseBuilder::new()
            .universe_size(3)
            .relation("E", 2)
            .relation("S", 1)
            .tuples("E", [vec![1, 2], vec![0, 1]])
            .tuples("S", [vec![2]])
            .build();
        let mut other = UnreliableDatabase::reliable(db);
        other
            .set_error(&Fact::new(1, vec![0]), BigRational::from_ratio(1, 4))
            .unwrap();
        other
            .set_error(&Fact::new(0, vec![0, 1]), BigRational::from_ratio(1, 10))
            .unwrap();
        assert_eq!(db_hash_of(&ud), db_hash_of(&other));
    }

    #[test]
    fn base_separates_shapes_and_models() {
        let u2: Vec<String> = vec!["e0".into(), "e1".into()];
        let rels = vec![("E".to_string(), 2)];
        assert_ne!(
            base_hash(&u2, &rels, "full"),
            base_hash(&u2, &rels, "positive-only")
        );
        assert_ne!(
            base_hash(&u2, &rels, "full"),
            base_hash(&u2, &[("E".to_string(), 1)], "full")
        );
    }

    #[test]
    fn live_fact_count_counts_absent_uncertain_facts() {
        let ud = sample_ud();
        // 3 observed tuples + S(0) absent-but-uncertain.
        assert_eq!(live_fact_count(&ud), 4);
    }
}
