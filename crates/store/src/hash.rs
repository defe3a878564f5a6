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
use qrel_db::Fact;
use qrel_prob::UnreliableDatabase;

/// Stable 64-bit FNV-1a over `bytes`: the db-hash's per-fact hasher
/// and the serve cache's key, fingerprint and checksum hash. Unlike
/// std's `DefaultHasher` it is fixed forever, so persisted and recorded
/// hashes replay.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    let mut buf = Vec::with_capacity(relation.len() + 4 * tuple.len() + mu.len() + 3);
    buf.extend_from_slice(relation.as_bytes());
    buf.push(0);
    for &e in tuple {
        buf.extend_from_slice(&e.to_le_bytes());
    }
    buf.push(u8::from(present));
    buf.push(0);
    buf.extend_from_slice(mu.as_bytes());
    mix64(fnv1a(&buf))
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
/// in-memory model. [`Store`] commits maintain the same value without
/// ever rescanning; tests pin the two against each other.
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
    for (ri, sym) in obs.vocabulary().symbols().iter().enumerate() {
        for tuple in obs.relation(ri).iter() {
            let mu = ud.mu(&Fact::new(ri, tuple.clone()));
            h ^= fact_state_hash(sym.name(), tuple, true, &mu.to_string());
        }
    }
    for (fact, mu) in absent_errors(ud) {
        let name = obs.vocabulary().symbols()[fact.relation].name();
        h ^= fact_state_hash(name, &fact.tuple, false, &mu.to_string());
    }
    h
}

/// Facts the observed database lacks but `μ ≠ 0` (uncertain, or
/// certainly present at `μ = 1`): non-default although absent.
fn absent_errors(ud: &UnreliableDatabase) -> impl Iterator<Item = (Fact, &BigRational)> {
    (0..ud.indexer().total()).filter_map(move |i| {
        let mu = ud.mu_at(i);
        if mu.is_zero() {
            return None;
        }
        let fact = ud.indexer().fact_at(i);
        (!ud.observed().holds(&fact)).then_some((fact, mu))
    })
}

/// Number of non-default facts in a model: observed tuples plus absent
/// facts with `μ ≠ 0`. This is the "live facts" figure the store tracks
/// per dataset and `/healthz` reports.
pub fn live_fact_count(ud: &UnreliableDatabase) -> u64 {
    ud.observed().tuple_count() as u64 + absent_errors(ud).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrel_db::DatabaseBuilder;

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
