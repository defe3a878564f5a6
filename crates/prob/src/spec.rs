//! A serializable interchange format for unreliable databases.
//!
//! `UnreliableDatabase` itself is optimized for computation (dense `μ`
//! vector, fact indexer); this module provides a human-editable
//! JSON-friendly *spec* — the observed database plus a sparse list of
//! error assignments with rational probabilities as strings — and the
//! conversions in both directions. The CLI and the examples use it.
//!
//! ```json
//! {
//!   "database": { ... qrel_db::Database ... },
//!   "model": "full",
//!   "errors": [
//!     { "relation": "E", "tuple": [0, 1], "mu": "1/10" },
//!     { "relation": "S", "tuple": [2],    "mu": "1/4"  }
//!   ]
//! }
//! ```

use crate::model::{ErrorModel, FactRow, ModelError, UnreliableDatabase};
use qrel_db::Database;
use serde::{Deserialize, Serialize};

/// One error assignment in the spec.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorSpec {
    /// Relation name.
    pub relation: String,
    /// Element indices.
    pub tuple: Vec<u32>,
    /// Error probability as `"p/q"` (or an integer string).
    pub mu: String,
}

/// Serializable unreliable-database spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnreliableDatabaseSpec {
    /// The observed database.
    pub database: Database,
    /// `"full"` (default) or `"positive-only"`.
    #[serde(default = "default_model")]
    pub model: String,
    /// Sparse error assignments; unmentioned facts have `μ = 0`.
    #[serde(default)]
    pub errors: Vec<ErrorSpec>,
}

fn default_model() -> String {
    ErrorModel::Full.name().to_string()
}

impl UnreliableDatabaseSpec {
    /// Build the computational model from the spec: the observed
    /// database plus one [`FactRule`](crate::FactRule)-checked row per
    /// error assignment (a later assignment to the same fact wins).
    pub fn build(&self) -> Result<UnreliableDatabase, ModelError> {
        let rows = self.errors.iter().map(|e| FactRow {
            relation: &e.relation,
            tuple: &e.tuple,
            present: None,
            mu: &e.mu,
        });
        UnreliableDatabase::from_rows(self.database.clone(), ErrorModel::parse(&self.model)?, rows)
    }

    /// Extract the spec back out of a model (sparse: only `μ ≠ 0`).
    pub fn from_model(ud: &UnreliableDatabase) -> Self {
        let vocab = ud.observed().vocabulary();
        let indexer = ud.indexer();
        let mut errors = Vec::new();
        for i in 0..indexer.total() {
            let mu = ud.mu_at(i);
            if !mu.is_zero() {
                let fact = indexer.fact_at(i);
                errors.push(ErrorSpec {
                    relation: vocab.symbols()[fact.relation].name().to_string(),
                    tuple: fact.tuple.clone(),
                    mu: mu.to_string(),
                });
            }
        }
        UnreliableDatabaseSpec {
            database: ud.observed().clone(),
            model: ud.model().name().to_string(),
            errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrel_arith::BigRational;
    use qrel_db::{DatabaseBuilder, Fact};

    fn sample_spec() -> UnreliableDatabaseSpec {
        let db = DatabaseBuilder::new()
            .universe_size(3)
            .relation("E", 2)
            .relation("S", 1)
            .tuples("E", [vec![0, 1]])
            .tuples("S", [vec![2]])
            .build();
        UnreliableDatabaseSpec {
            database: db,
            model: "full".into(),
            errors: vec![
                ErrorSpec {
                    relation: "E".into(),
                    tuple: vec![0, 1],
                    mu: "1/10".into(),
                },
                ErrorSpec {
                    relation: "S".into(),
                    tuple: vec![0],
                    mu: "1/4".into(),
                },
            ],
        }
    }

    #[test]
    fn build_and_roundtrip() {
        let spec = sample_spec();
        let ud = spec.build().unwrap();
        assert_eq!(
            ud.mu(&Fact::new(0, vec![0, 1])),
            &BigRational::from_ratio(1, 10)
        );
        assert_eq!(
            ud.mu(&Fact::new(1, vec![0])),
            &BigRational::from_ratio(1, 4)
        );
        assert_eq!(ud.uncertain_facts().len(), 2);
        let back = UnreliableDatabaseSpec::from_model(&ud);
        assert_eq!(back, spec);
    }

    #[test]
    fn json_roundtrip() {
        let spec = sample_spec();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let parsed: UnreliableDatabaseSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.build().unwrap().uncertain_facts().len(), 2);
    }

    #[test]
    fn defaults_in_json() {
        // model and errors are optional.
        let db = DatabaseBuilder::new()
            .universe_size(1)
            .relation("S", 1)
            .build();
        let json = format!("{{\"database\": {}}}", serde_json::to_string(&db).unwrap());
        let spec: UnreliableDatabaseSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec.model, "full");
        assert!(spec.errors.is_empty());
        assert!(spec.build().unwrap().uncertain_facts().is_empty());
    }

    #[test]
    fn validation_errors() {
        let mut spec = sample_spec();
        spec.errors[0].relation = "Z".into();
        assert!(matches!(spec.build(), Err(ModelError::UnknownRelation(_))));

        let mut spec = sample_spec();
        spec.errors[0].tuple = vec![0];
        assert!(matches!(
            spec.build(),
            Err(ModelError::ArityMismatch { .. })
        ));

        let mut spec = sample_spec();
        spec.errors[0].tuple = vec![0, 9];
        assert!(matches!(
            spec.build(),
            Err(ModelError::ElementOutOfRange { .. })
        ));

        let mut spec = sample_spec();
        spec.errors[0].mu = "3/2".into();
        assert!(matches!(
            spec.build(),
            Err(ModelError::NotAProbability { .. })
        ));

        let mut spec = sample_spec();
        spec.errors[0].mu = "-1/2".into();
        assert!(matches!(
            spec.build(),
            Err(ModelError::NotAProbability { .. })
        ));

        let mut spec = sample_spec();
        spec.errors[0].mu = "x".into();
        assert!(matches!(
            spec.build(),
            Err(ModelError::BadProbability { .. })
        ));

        let mut spec = sample_spec();
        spec.model = "weird".into();
        assert!(matches!(spec.build(), Err(ModelError::UnknownModel(_))));
    }

    #[test]
    fn positive_only_spec() {
        let mut spec = sample_spec();
        spec.model = "positive-only".into();
        // S(0) is not observed — positive-only must reject its error.
        assert!(matches!(
            spec.build(),
            Err(ModelError::NegativeFactError { .. })
        ));
        spec.errors[1].tuple = vec![2]; // S(2) is observed
        let ud = spec.build().unwrap();
        assert_eq!(ud.model(), ErrorModel::PositiveOnly);
    }
}
