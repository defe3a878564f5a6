//! Seeded input generation: graph specs, query pools and the
//! store-scale dataset. The same seed always yields the same inputs.

use qrel_db::DatabaseBuilder;
use qrel_prob::{ErrorSpec, UnreliableDatabaseSpec};
use qrel_store::Mutation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Error probabilities with small prime denominators: exact arithmetic
/// over them grows real big rationals.
pub const PRIME_MU: [&str; 5] = ["1/3", "2/7", "1/11", "3/13", "1/10"];
/// Dyadic error probabilities, cheap in exact arithmetic.
pub const DYADIC_MU: [&str; 5] = ["1/8", "1/4", "3/8", "1/2", "1/16"];

/// An independent, reproducible stream for one purpose of one run.
pub fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose)
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// The seed-independent structure of a generated graph over `elements`
/// elements with relations `E/2` (no loops) and, when `with_s`, `S/1`.
/// Each candidate fact is observed with probability `observed_p`;
/// exactly `uncertain` of the candidates, present or absent, get an
/// error probability drawn from `mus`. `seed` fixes all of it.
pub struct Shape {
    pub seed: u64,
    pub elements: u32,
    pub with_s: bool,
    pub observed_p: f64,
    pub uncertain: usize,
    pub mus: &'static [&'static str],
}

/// The graph of `shape`.
pub fn graph_spec(shape: &Shape) -> UnreliableDatabaseSpec {
    let mut rng = StdRng::seed_from_u64(shape.seed);
    let n = shape.elements;
    let mut candidates: Vec<(&str, Vec<u32>)> = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b {
                candidates.push(("E", vec![a, b]));
            }
        }
    }
    if shape.with_s {
        candidates.extend((0..n).map(|a| ("S", vec![a])));
    }
    assert!(
        shape.uncertain <= candidates.len(),
        "{} uncertain facts do not fit {} candidates",
        shape.uncertain,
        candidates.len()
    );
    let observed: Vec<bool> = candidates
        .iter()
        .map(|_| rng.gen_bool(shape.observed_p))
        .collect();
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    shuffle(&mut rng, &mut order);
    let mus: Vec<&str> = order[..shape.uncertain]
        .iter()
        .map(|_| shape.mus[rng.gen_range(0..shape.mus.len())])
        .collect();

    let mut builder = DatabaseBuilder::new()
        .universe_size(n as usize)
        .relation("E", 2);
    if shape.with_s {
        builder = builder.relation("S", 1);
    }
    for rel in ["E", "S"] {
        let tuples: Vec<Vec<u32>> = candidates
            .iter()
            .zip(&observed)
            .filter(|((r, _), &o)| *r == rel && o)
            .map(|((_, t), _)| t.clone())
            .collect();
        if rel == "E" || shape.with_s {
            builder = builder.tuples(rel, tuples);
        }
    }
    let errors = order[..shape.uncertain]
        .iter()
        .zip(mus)
        .map(|(&i, mu)| ErrorSpec {
            relation: candidates[i].0.to_string(),
            tuple: candidates[i].1.clone(),
            mu: mu.to_string(),
        })
        .collect();
    UnreliableDatabaseSpec {
        database: builder.build(),
        model: "full".into(),
        errors,
    }
}

/// `spec` with its elements renamed by a permutation drawn from
/// `labels`: a different but isomorphic spec per run seed, whose
/// requests cost the same work (for engines whose running time does not
/// depend on the order in which they meet the elements).
pub fn relabel(spec: &UnreliableDatabaseSpec, labels: &mut StdRng) -> UnreliableDatabaseSpec {
    let db = &spec.database;
    let mut perm: Vec<u32> = (0..db.size() as u32).collect();
    shuffle(labels, &mut perm);
    let rename = |t: &[u32]| t.iter().map(|&e| perm[e as usize]).collect::<Vec<u32>>();
    let mut builder = DatabaseBuilder::new().universe_size(db.size());
    for (i, sym) in db.vocabulary().symbols().iter().enumerate() {
        let tuples: Vec<Vec<u32>> = db.relation(i).iter().map(|t| rename(t)).collect();
        builder = builder
            .relation(sym.name(), sym.arity())
            .tuples(sym.name(), tuples);
    }
    UnreliableDatabaseSpec {
        database: builder.build(),
        model: spec.model.clone(),
        errors: spec
            .errors
            .iter()
            .map(|e| ErrorSpec {
                tuple: rename(&e.tuple),
                ..e.clone()
            })
            .collect(),
    }
}

/// Hierarchical, self-join-free queries over `E/2, S/1` with one free
/// variable (so reliability sums over every element): the safe-plan
/// compiler accepts all of them.
pub const SAFE_QUERIES: [&str; 3] = [
    "exists y. (S(x) & E(x, y))",
    "exists y. (E(x, y) & S(y))",
    "S(x) & exists y. E(y, x)",
];

/// Self-join sentences over `E/2`: the plan compiler declines them, so
/// `auto` enumerates worlds when they fit.
pub const SELF_JOIN_QUERIES: [&str; 3] = [
    "exists x y. (E(x, y) & E(y, x))",
    "exists x y z. (E(x, y) & E(y, z))",
    "exists x. (exists y. E(x, y) & exists z. E(z, x))",
];

/// Unsafe existential sentences over `E/2, S/1` for the sampling rung.
pub const SAMPLED_QUERIES: [&str; 3] = [
    "exists x y. (E(x, y) & E(y, x))",
    "exists x y. (S(x) & E(x, y) & S(y))",
    "exists x y. (S(x) & E(x, y) & E(y, x))",
];

/// Side of the square universe of the store-scale dataset.
pub const SCALE_SIDE: u32 = 317;
/// Facts in the store-scale dataset: `R/2` rows at μ = 1/2, row-major
/// over the grid, in the shape of experiment E17.
pub const SCALE_FACTS: usize = 100_000;

/// The store-scale dataset as one commit batch.
pub fn scale_batch() -> Vec<Mutation> {
    (0..SCALE_SIDE)
        .flat_map(|a| (0..SCALE_SIDE).map(move |b| (a, b)))
        .take(SCALE_FACTS)
        .map(|(a, b)| Mutation::set("R", vec![a, b], true, "1/2"))
        .collect()
}
