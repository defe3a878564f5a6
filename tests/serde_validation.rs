//! Regression tests for the code-review findings: serde deserialization
//! must not be a back door around type invariants, and fact indexing
//! must hard-fail on malformed facts. Untrusted input reaches these
//! types through the CLI's user-edited JSON spec files.

use qrel::prelude::*;

#[test]
fn biguint_deserialize_canonicalizes_trailing_zeros() {
    let x: BigUint = serde_json::from_str(r#"{"limbs":[0]}"#).unwrap();
    assert!(x.is_zero());
    assert_eq!(x, BigUint::zero());
    let y: BigUint = serde_json::from_str(r#"{"limbs":[7,0,0]}"#).unwrap();
    assert_eq!(y, BigUint::from_u32(7));
    assert_eq!(y.bit_length(), 3);
}

#[test]
fn bigint_deserialize_renormalizes_zero() {
    // sign Negative with zero magnitude must collapse to canonical zero.
    let x: BigInt = serde_json::from_str(r#"{"sign":"Negative","mag":{"limbs":[]}}"#).unwrap();
    assert!(x.is_zero());
    assert_eq!(x, BigInt::zero());
    // Zero sign with nonzero magnitude is repaired to positive.
    let y: BigInt = serde_json::from_str(r#"{"sign":"Zero","mag":{"limbs":[3]}}"#).unwrap();
    assert_eq!(y, BigInt::from_i64(3));
}

#[test]
fn bigrational_deserialize_rejects_zero_denominator() {
    let bad = r#"{"numer":{"sign":"Positive","mag":{"limbs":[1]}},"denom":{"limbs":[]}}"#;
    assert!(serde_json::from_str::<BigRational>(bad).is_err());
    // Unnormalized 2/4 is reduced to 1/2.
    let raw = r#"{"numer":{"sign":"Positive","mag":{"limbs":[2]}},"denom":{"limbs":[4]}}"#;
    let x: BigRational = serde_json::from_str(raw).unwrap();
    assert_eq!(x, BigRational::from_ratio(1, 2));
}

#[test]
fn dnf_deserialize_renormalizes_terms() {
    use qrel::logic::prop::Dnf;
    // A contradictory term (x0 ∧ ¬x0) must be dropped, not kept.
    let raw = r#"{"terms":[[{"var":0,"positive":true},{"var":0,"positive":false}]]}"#;
    let d: Dnf = serde_json::from_str(raw).unwrap();
    assert!(d.is_false());
    // An unsorted term is sorted (binary-search-based subsumption relies
    // on it).
    let raw2 = r#"{"terms":[[{"var":5,"positive":true},{"var":1,"positive":true}]]}"#;
    let d2: Dnf = serde_json::from_str(raw2).unwrap();
    assert!(d2.terms()[0].windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn relation_deserialize_rejects_arity_mismatch() {
    let raw = r#"{"arity":2,"tuples":[[0,1,2]]}"#;
    assert!(serde_json::from_str::<Relation>(raw).is_err());
    let ok = r#"{"arity":2,"tuples":[[0,1]]}"#;
    assert!(serde_json::from_str::<Relation>(ok).is_ok());
}

#[test]
fn database_deserialize_cross_validates() {
    let good = DatabaseBuilder::new()
        .universe_size(2)
        .relation("E", 2)
        .tuples("E", [vec![0, 1]])
        .build();
    let mut v: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(&good).unwrap()).unwrap();
    // Out-of-universe element.
    v["relations"][0]["tuples"] = serde_json::json!([[0, 9]]);
    assert!(serde_json::from_value::<Database>(v.clone()).is_err());
    // Arity disagreeing with the vocabulary.
    v["relations"][0] = serde_json::json!({"arity": 1, "tuples": [[0]]});
    assert!(serde_json::from_value::<Database>(v.clone()).is_err());
    // Missing relation instance.
    v["relations"] = serde_json::json!([]);
    assert!(serde_json::from_value::<Database>(v).is_err());
}

#[test]
fn universe_and_vocabulary_deserialize_reject_duplicates() {
    assert!(serde_json::from_str::<Universe>(r#"{"names":["a","a"]}"#).is_err());
    assert!(serde_json::from_str::<Vocabulary>(
        r#"{"symbols":[{"name":"E","arity":2},{"name":"E","arity":1}]}"#
    )
    .is_err());
}

#[test]
fn cli_spec_with_malformed_database_is_rejected_end_to_end() {
    // The whole point: the CLI's spec loader must reject, not mis-answer.
    let good = DatabaseBuilder::new()
        .universe_size(3)
        .relation("E", 2)
        .tuples("E", [vec![0, 1]])
        .build();
    let spec = qrel::prob::UnreliableDatabaseSpec {
        database: good,
        model: "full".into(),
        errors: vec![],
    };
    let mut v: serde_json::Value =
        serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
    v["database"]["relations"][0]["tuples"] = serde_json::json!([[0, 1, 2]]);
    assert!(
        serde_json::from_value::<qrel::prob::UnreliableDatabaseSpec>(v).is_err(),
        "wrong-arity tuple must not deserialize"
    );
}

#[test]
#[should_panic(expected = "out of universe")]
fn fact_indexer_rejects_out_of_range_in_release_too() {
    let db = DatabaseBuilder::new()
        .universe_size(2)
        .relation("E", 2)
        .relation("S", 1)
        .build();
    let ix = db.fact_indexer();
    // Previously a silent alias of S(0)'s index in release builds.
    let _ = ix.index_of(&Fact::new(0, vec![1, 2]));
}

#[test]
fn atom_table_fresh_never_aliases() {
    use qrel::logic::prop::AtomTable;
    let mut t = AtomTable::new();
    let user = t.intern("Y#1"); // adversarially shaped user atom
    let f1 = t.fresh("Y");
    let f2 = t.fresh("Y");
    assert_ne!(f1, user);
    assert_ne!(f2, user);
    assert_ne!(f1, f2);
}

#[test]
fn nested_field_errors_keep_their_path_and_message() {
    let spec = r#"{"database":{"vocab":{"symbols":[{"name":"E","arity":2}]},
        "universe":{"names":["a","b"]},"relations":[{"arity":2,"tuples":[[0,1]]}]},
        "errors":[{"relation":"E","tuple":[0,1],"mu":"1/2"},
                  {"relation":"E","tuple":"x","mu":"1/3"}]}"#;
    let err = serde_json::from_str::<qrel::prob::UnreliableDatabaseSpec>(spec).unwrap_err();
    assert_eq!(
        err.to_string(),
        "errors: [1]: tuple: expected array, got string"
    );
    // A shadow type's refusal is wrapped in the same path.
    let bad_tuple = spec
        .replace(r#""tuples":[[0,1]]"#, r#""tuples":[[0,1,1]]"#)
        .replace(r#""tuple":"x""#, r#""tuple":[1,0]"#);
    let err = serde_json::from_str::<qrel::prob::UnreliableDatabaseSpec>(&bad_tuple).unwrap_err();
    assert_eq!(
        err.to_string(),
        "database: relations: [0]: tuple of length 3 in a relation of arity 2"
    );
    let missing = r#"{"errors":[]}"#;
    let err = serde_json::from_str::<qrel::prob::UnreliableDatabaseSpec>(missing).unwrap_err();
    assert_eq!(err.to_string(), "missing field `database`");
}

#[test]
fn duplicate_object_keys_resolve_last_wins() {
    // The earlier value is never decoded, even when it is malformed.
    let rel: Relation =
        serde_json::from_str(r#"{"arity":"x","tuples":[[0]],"arity":2,"tuples":[[0,1]]}"#).unwrap();
    assert_eq!(rel.arity(), 2);
    assert!(rel.contains(&[0, 1]));
    let e: qrel::prob::ErrorSpec =
        serde_json::from_str(r#"{"relation":"E","tuple":[0],"mu":"1/2","mu":"1/3"}"#).unwrap();
    assert_eq!(e.mu, "1/3");
    // The later value decides failure too.
    assert!(serde_json::from_str::<Relation>(r#"{"arity":2,"tuples":[[0,1]],"arity":1}"#).is_err());
}

#[test]
fn try_from_shadows_reject_malformed_values_through_from_value() {
    let good = DatabaseBuilder::new()
        .universe_size(2)
        .relation("E", 2)
        .tuples("E", [vec![0, 1]])
        .build();
    let mut v = serde_json::json!({
        "vocab": {"symbols": [{"name": "E", "arity": 2}]},
        "universe": {"names": ["e0", "e1"]},
        "relations": [{"arity": 2, "tuples": [[0, 1]]}]
    });
    assert_eq!(serde_json::from_value::<Database>(v.clone()).unwrap(), good);
    v["relations"][0]["tuples"] = serde_json::json!([[0, 2]]);
    let err = serde_json::from_value::<Database>(v).unwrap_err();
    assert!(
        err.to_string().contains("outside the universe of size 2"),
        "{err}"
    );

    let zero = serde_json::json!({
        "numer": {"sign": "Positive", "mag": {"limbs": [1]}},
        "denom": {"limbs": [0, 0]}
    });
    let err = serde_json::from_value::<BigRational>(zero).unwrap_err();
    assert_eq!(err.to_string(), "rational with zero denominator");
    let reduced = serde_json::json!({
        "numer": {"sign": "Negative", "mag": {"limbs": [6]}},
        "denom": {"limbs": [4]}
    });
    let x = serde_json::from_value::<BigRational>(reduced).unwrap();
    assert_eq!(x, BigRational::from_ratio(-3, 2));
}
