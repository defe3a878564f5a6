//! Store round-trip integration: write → close → reopen must reproduce
//! the in-memory model bit for bit — the canonical db-hash and the solve
//! wire bytes are both pinned — and injected mid-commit crashes must
//! recover to exactly the last published state.

use proptest::prelude::*;
use qrel::prelude::*;
use qrel::prob::{ErrorSpec, UnreliableDatabaseSpec};
use qrel::store::{db_hash_of, Mutation, Store, StoreError};
use qrel_faults::{points, FaultPlan};
use std::path::PathBuf;

fn r(n: i64, d: u64) -> BigRational {
    BigRational::from_ratio(n, d)
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qrel-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The exact wire bytes `POST /v1/solve` would return for this model —
/// the strongest possible round-trip pin: if any fact, probability, or
/// even relation ordering drifted through the store, these bytes change.
fn solve_bytes(ud: &UnreliableDatabase, query: &str) -> Vec<u8> {
    let q = FoQuery::parse(query).unwrap();
    let report = Solver::new()
        .with_method(Method::Exact)
        .with_seed(7)
        .with_threads(1)
        .solve(ud, &q, &Budget::unlimited())
        .unwrap();
    qrel::serve::solve_response_body(&report)
}

/// Random database over {E/2, S/1} with uncertain facts on both sides
/// of the observed/absent divide.
fn ud_strategy() -> impl Strategy<Value = UnreliableDatabase> {
    (
        2usize..4,
        proptest::collection::vec(any::<bool>(), 16),
        proptest::collection::vec(any::<bool>(), 4),
        proptest::collection::vec((0usize..20, 1u64..8, 1u64..8), 0..6),
    )
        .prop_map(|(n, adj, marks, errors)| {
            let mut edges = Vec::new();
            for a in 0..n {
                for b in 0..n {
                    if adj[a * n + b] {
                        edges.push(vec![a as u32, b as u32]);
                    }
                }
            }
            let s: Vec<Vec<u32>> = (0..n)
                .filter(|&i| marks[i])
                .map(|i| vec![i as u32])
                .collect();
            let db = DatabaseBuilder::new()
                .universe_size(n)
                .relation("E", 2)
                .relation("S", 1)
                .tuples("E", edges)
                .tuples("S", s)
                .build();
            let mut ud = UnreliableDatabase::reliable(db);
            let total = ud.indexer().total();
            let indexer = ud.indexer().clone();
            for (fi, num, den) in errors {
                let p = if num >= den {
                    r(1, 2)
                } else {
                    r(num as i64, den)
                };
                ud.set_error(&indexer.fact_at(fi % total), p).unwrap();
            }
            ud
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn reopen_is_bit_identical(ud in ud_strategy()) {
        // Commit under the fault session, so the kill test's armed
        // plan can never fire inside this test's commits.
        let _quiet = qrel_faults::quiesce();
        let dir = tmp("prop");
        let spec = UnreliableDatabaseSpec::from_model(&ud);
        let mut store = Store::init(&dir).unwrap();
        let stats = store.ingest_spec("d", &spec).unwrap();
        // The incrementally maintained hash equals the from-scratch one.
        prop_assert_eq!(stats.db_hash, db_hash_of(&ud));
        drop(store);

        let store = Store::open(&dir).unwrap();
        store.verify("d").unwrap();
        prop_assert_eq!(store.dataset("d").unwrap().db_hash, db_hash_of(&ud));
        let mut ds = store.load("d").unwrap();
        let rebuilt = ds.build().unwrap();
        prop_assert_eq!(db_hash_of(&rebuilt), db_hash_of(&ud));
        for q in [
            "exists x. S(x)",
            "exists x. exists y. E(x,y) & S(y)",
            "forall x. S(x) | exists y. E(x,y)",
        ] {
            prop_assert_eq!(solve_bytes(&rebuilt, q), solve_bytes(&ud, q));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_preserves_solve_bytes(ud in ud_strategy()) {
        let _quiet = qrel_faults::quiesce();
        let dir = tmp("compact");
        let spec = UnreliableDatabaseSpec::from_model(&ud);
        let mut store = Store::init(&dir).unwrap();
        store.ingest_spec("d", &spec).unwrap();
        // Churn: flip a fact on and back off so dead rows accumulate,
        // then compact down to the live set.
        // Snapshot S(0)'s current state so the undo restores it exactly
        // (it may already be present, uncertain, or default).
        let (was_present, was_mu) = store.load("d").unwrap().fact_state("S", &[0]).unwrap();
        let was_mu = if was_mu.is_empty() { "0".to_string() } else { was_mu };
        let batch = [Mutation::set("S", vec![0], true, "1/3")];
        let undo = [Mutation::set("S", vec![0], was_present, &was_mu)];
        let before = store.dataset("d").unwrap().db_hash;
        let with_fact = store.commit("d", &batch).unwrap().db_hash;
        let restored = store.commit("d", &undo).unwrap().db_hash;
        // XOR algebra: mutate-then-undo restores the original hash.
        prop_assert_eq!(restored, before);
        if !(was_present && was_mu == "1/3") {
            prop_assert_ne!(with_fact, before);
        }
        store.compact("d").unwrap();
        store.verify("d").unwrap();
        drop(store);
        let store = Store::open(&dir).unwrap();
        let rebuilt = store.load("d").unwrap().build().unwrap();
        prop_assert_eq!(solve_bytes(&rebuilt, "exists x. S(x)"),
                        solve_bytes(&ud, "exists x. S(x)"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A commit killed mid-flight — after the segment lands but before the
/// manifest publishes, or with only half the segment image written —
/// must leave the published state untouched, and a cold reopen must GC
/// the debris and verify clean. The two store fault points simulate the
/// kill at exactly the two distinct on-disk danger windows.
#[test]
fn killed_mid_commit_recovers_to_published_state() {
    for (tag, point) in [
        ("torn", points::STORE_SEGMENT_TORN_WRITE),
        ("crash", points::STORE_COMMIT_CRASH),
    ] {
        let dir = tmp(tag);
        let mut store = Store::init(&dir).unwrap();
        store
            .create_dataset(
                "d",
                vec!["a".into(), "b".into()],
                vec![("S".to_string(), 1)],
                "full",
            )
            .unwrap();
        let first = store
            .commit("d", &[Mutation::set("S", vec![0], true, "1/2")])
            .unwrap();
        store.verify("d").unwrap();

        // Arm the kill: the next commit must abort without publishing.
        let plan = FaultPlan::new(0xDEAD).with_rule(point, 1.0, 0, 1);
        let guard = plan.arm();
        let batch = [Mutation::set("S", vec![1], true, "1/4")];
        match store.commit("d", &batch) {
            Err(StoreError::Injected(_)) => {}
            other => panic!("{tag}: expected injected abort, got {other:?}"),
        }
        drop(guard);

        // Cold reopen: the aborted commit is invisible, debris is GC'd,
        // and the surviving state still verifies bit-identical.
        let mut store = Store::open(&dir).unwrap();
        store.verify("d").unwrap();
        let entry = store.dataset("d").unwrap();
        assert_eq!(entry.db_hash, first.db_hash, "{tag}");
        assert_eq!(entry.live_facts, 1, "{tag}");
        for leftover in std::fs::read_dir(dir.join("segments")).unwrap() {
            let name = leftover.unwrap().file_name();
            let name = name.to_string_lossy().into_owned();
            assert!(!name.ends_with(".tmp"), "{tag}: GC left debris {name}");
        }
        // The same batch lands cleanly once the faults are gone.
        let redo = store.commit("d", &batch).unwrap();
        assert_eq!(redo.live_facts, 2, "{tag}");
        store.verify("d").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// One fact rule for every dataset source: for each row, building a spec
/// that carries it rejects exactly when committing it to a store does,
/// with the same typed error, under both error models. A rejected commit
/// writes nothing.
#[test]
fn spec_build_and_store_commit_agree_on_every_row() {
    let _quiet = qrel_faults::quiesce();
    let db = DatabaseBuilder::new()
        .universe_size(3)
        .relation("Admin", 1)
        .relation("Knows", 2)
        .tuples("Admin", [vec![0]])
        .tuples("Knows", [vec![0, 1]])
        .build();
    let mut rows: Vec<(&str, Vec<u32>, &str)> = Vec::new();
    for mu in ["-1/2", "3/2", "1/0", "x", "0", "1", "2/4"] {
        rows.push(("Admin", vec![0], mu)); // observed
        rows.push(("Admin", vec![2], mu)); // absent
    }
    rows.push(("Zed", vec![0], "1/2"));
    rows.push(("Knows", vec![0], "1/2"));
    rows.push(("Admin", vec![9], "1/2"));
    for model in [ErrorModel::Full, ErrorModel::PositiveOnly] {
        let dir = tmp(&format!("agree-{}", model.name()));
        let base = UnreliableDatabaseSpec {
            database: db.clone(),
            model: model.name().to_string(),
            errors: Vec::new(),
        };
        let mut store = Store::init(&dir).unwrap();
        store.ingest_spec("d", &base).unwrap();
        let mut rejected = 0;
        for (relation, tuple, mu) in &rows {
            let mut spec = base.clone();
            spec.errors.push(ErrorSpec {
                relation: relation.to_string(),
                tuple: tuple.clone(),
                mu: mu.to_string(),
            });
            let built = spec.build().err();
            let present = relation == &"Knows" || tuple == &[0];
            let before = store.dataset("d").unwrap().clone();
            let committed =
                match store.commit("d", &[Mutation::set(relation, tuple.clone(), present, mu)]) {
                    Ok(_) => None,
                    Err(StoreError::Invalid(e)) => Some(e),
                    Err(e) => panic!("{relation}{tuple:?} μ={mu}: {e}"),
                };
            assert_eq!(built, committed, "{model:?}: {relation}{tuple:?} μ={mu}");
            if committed.is_some() {
                rejected += 1;
                assert_eq!(store.dataset("d").unwrap(), &before);
            }
        }
        // -1/2, 3/2, 1/0 and x on both facts, the three shape errors,
        // and under positive-only the absent fact at μ ∈ {1, 2/4}.
        let expected = if model == ErrorModel::Full { 11 } else { 13 };
        assert_eq!(rejected, expected, "{model:?}");
        store.verify("d").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
