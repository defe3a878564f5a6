//! The pair `𝔇 = (𝔄, μ)`, the induced fact probabilities `ν`, and the
//! one fact rule every dataset source builds `𝔇` through.

use qrel_arith::{BigRational, ParseNumError};
use qrel_db::{Database, Fact, FactIndexer};
use qrel_logic::Vocabulary;
use std::collections::HashMap;
use std::fmt;

/// Which facts are allowed to carry positive error probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorModel {
    /// The paper's model: any atomic statement may be erroneous.
    #[default]
    Full,
    /// de Rougemont's restricted model \[9\] (Remark in Section 3): only
    /// *positive* observed facts are unreliable, i.e. `𝔄 ⊨ ¬Rā` forces
    /// `μ(Rā) = 0`.
    PositiveOnly,
}

/// The one table of model names, as specs and store manifests spell
/// them, in discriminant order.
const MODEL_NAMES: [(ErrorModel, &str); 2] = [
    (ErrorModel::Full, "full"),
    (ErrorModel::PositiveOnly, "positive-only"),
];

impl ErrorModel {
    /// The model's name in specs and manifests.
    pub fn name(self) -> &'static str {
        MODEL_NAMES[self as usize].1
    }

    /// The model a spec or manifest names.
    pub fn parse(name: &str) -> Result<ErrorModel, ModelError> {
        MODEL_NAMES
            .iter()
            .find(|(_, n)| *n == name)
            .map(|(m, _)| *m)
            .ok_or_else(|| ModelError::UnknownModel(name.to_string()))
    }
}

/// Why a fact row, or a whole dataset, is not an unreliable database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A model name other than `"full"` or `"positive-only"`.
    UnknownModel(String),
    /// A relation the vocabulary does not declare.
    UnknownRelation(String),
    ArityMismatch {
        relation: String,
        expected: usize,
        got: usize,
    },
    /// A tuple element `≥ |A|`.
    ElementOutOfRange { relation: String, element: u32 },
    /// An error probability that does not parse as a rational.
    BadProbability {
        fact: String,
        mu: String,
        reason: String,
    },
    /// An error probability outside `[0, 1]`.
    NotAProbability { fact: String, value: String },
    /// Positive-only model violated: error probability on a negative fact.
    NegativeFactError { fact: String },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownModel(m) => {
                let names: Vec<_> = MODEL_NAMES.iter().map(|(_, n)| format!("{n:?}")).collect();
                write!(f, "unknown model {m:?} (use {})", names.join(" or "))
            }
            ModelError::UnknownRelation(r) => write!(f, "unknown relation {r:?}"),
            ModelError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "relation {relation:?} expects arity {expected}, got {got}"
            ),
            ModelError::ElementOutOfRange { relation, element } => {
                write!(f, "element {element} out of range in a {relation:?} tuple")
            }
            ModelError::BadProbability { fact, mu, reason } => {
                write!(f, "μ({fact}) = {mu:?} is not a rational ({reason})")
            }
            ModelError::NotAProbability { fact, value } => {
                write!(f, "μ({fact}) = {value} is not a probability in [0,1]")
            }
            ModelError::NegativeFactError { fact } => write!(
                f,
                "positive-only model: μ({fact}) > 0 but the fact is false in the observed database"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// The one fact rule of `𝔇 = (𝔄, μ)`: the format and error model a
/// `(relation, tuple, present, μ)` row is checked against. Specs, store
/// commits, store rebuilds and [`UnreliableDatabase::set_error`] all
/// decide validity here.
#[derive(Debug, Clone, Copy)]
pub struct FactRule<'a> {
    pub vocab: &'a Vocabulary,
    /// `|A|`.
    pub universe: usize,
    pub model: ErrorModel,
}

impl FactRule<'_> {
    /// Check one row: the relation is declared, the tuple has its arity,
    /// every element is `< |A|`, `μ` parses and `0 ≤ μ ≤ 1`, and under
    /// positive-only an absent fact has `μ = 0`. `present` is asked only
    /// for that last check. Returns the fact and the parsed `μ`.
    pub fn check(
        &self,
        relation: &str,
        tuple: &[u32],
        present: impl FnOnce(&Fact) -> bool,
        mu: &str,
    ) -> Result<(Fact, BigRational), ModelError> {
        self.check_parsed(relation, tuple, present, mu, || BigRational::parse(mu))
    }

    /// [`FactRule::check`] with `μ`'s text parsed by `parse`, which is
    /// called after the relation, arity and range checks pass.
    fn check_parsed(
        &self,
        relation: &str,
        tuple: &[u32],
        present: impl FnOnce(&Fact) -> bool,
        mu: &str,
        parse: impl FnOnce() -> Result<BigRational, ParseNumError>,
    ) -> Result<(Fact, BigRational), ModelError> {
        let rel = self
            .vocab
            .index_of(relation)
            .ok_or_else(|| ModelError::UnknownRelation(relation.to_string()))?;
        let expected = self.vocab.symbols()[rel].arity();
        if tuple.len() != expected {
            return Err(ModelError::ArityMismatch {
                relation: relation.to_string(),
                expected,
                got: tuple.len(),
            });
        }
        if let Some(&element) = tuple.iter().find(|&&e| e as usize >= self.universe) {
            return Err(ModelError::ElementOutOfRange {
                relation: relation.to_string(),
                element,
            });
        }
        let fact = Fact::new(rel, tuple.to_vec());
        let p = parse().map_err(|e| ModelError::BadProbability {
            fact: fact.display(self.vocab).to_string(),
            mu: mu.to_string(),
            reason: e.to_string(),
        })?;
        self.check_mu(&fact, || present(&fact), &p)?;
        Ok((fact, p))
    }

    /// The `μ` half of [`FactRule::check`], for a fact already resolved.
    fn check_mu(
        &self,
        fact: &Fact,
        present: impl FnOnce() -> bool,
        p: &BigRational,
    ) -> Result<(), ModelError> {
        if !p.is_probability() {
            return Err(ModelError::NotAProbability {
                fact: fact.display(self.vocab).to_string(),
                value: p.to_string(),
            });
        }
        if self.model == ErrorModel::PositiveOnly && !p.is_zero() && !present() {
            return Err(ModelError::NegativeFactError {
                fact: fact.display(self.vocab).to_string(),
            });
        }
        Ok(())
    }
}

/// One `(relation, tuple, present, μ)` row for [`UnreliableDatabase::from_rows`].
#[derive(Debug, Clone, Copy)]
pub struct FactRow<'a> {
    pub relation: &'a str,
    pub tuple: &'a [u32],
    /// Whether the fact is in `𝔄`; `None` keeps the observed value.
    pub present: Option<bool>,
    pub mu: &'a str,
}

/// An unreliable database `𝔇 = (𝔄, μ)`.
///
/// `μ` is stored densely, one rational per atomic fact in
/// [`FactIndexer`] order; facts never touched keep `μ = 0` (fully
/// reliable), so sparse workloads stay cheap to build.
#[derive(Debug, Clone)]
pub struct UnreliableDatabase {
    observed: Database,
    indexer: FactIndexer,
    mu: Vec<BigRational>,
    model: ErrorModel,
}

impl UnreliableDatabase {
    /// Wrap an observed database with all error probabilities zero.
    pub fn reliable(observed: Database) -> Self {
        let indexer = observed.fact_indexer();
        let mu = vec![BigRational::zero(); indexer.total()];
        UnreliableDatabase {
            observed,
            indexer,
            mu,
            model: ErrorModel::Full,
        }
    }

    /// Build `𝔇` from an observed database and fact rows, every row
    /// through the [`FactRule`]. A row with `present: Some(_)` also sets
    /// the fact's truth value in `𝔄`; a later row for the same fact
    /// wins. Specs and store datasets are both built here.
    pub fn from_rows<'r>(
        observed: Database,
        model: ErrorModel,
        rows: impl IntoIterator<Item = FactRow<'r>>,
    ) -> Result<Self, ModelError> {
        let mut ud = UnreliableDatabase::reliable(observed);
        ud.model = model;
        // Rows repeat a few μ literals: parse each distinct text once.
        let mut parsed: HashMap<&str, BigRational> = HashMap::new();
        for row in rows {
            let observed = &ud.observed;
            let (fact, mu) = ud.rule().check_parsed(
                row.relation,
                row.tuple,
                |f| row.present.unwrap_or_else(|| observed.holds(f)),
                row.mu,
                || match parsed.get(row.mu) {
                    Some(mu) => Ok(mu.clone()),
                    None => {
                        let mu = BigRational::parse(row.mu)?;
                        parsed.insert(row.mu, mu.clone());
                        Ok(mu)
                    }
                },
            )?;
            let i = ud.indexer.index_of(&fact);
            ud.mu[i] = mu;
            if let Some(present) = row.present {
                ud.observed
                    .relation_mut(fact.relation)
                    .set(fact.tuple, present);
            }
        }
        Ok(ud)
    }

    /// The [`FactRule`] for this database's format and model.
    fn rule(&self) -> FactRule<'_> {
        FactRule {
            vocab: self.observed.vocabulary(),
            universe: self.observed.size(),
            model: self.model,
        }
    }

    /// The alternative presentation from the Remark in Section 2: instead
    /// of an observed database plus error probabilities, give directly the
    /// marginal probability `ν(Rā)` that each fact holds in the actual
    /// database. The observed database is taken to be the most likely
    /// value per fact (`ν > 1/2` → observed true), which reproduces the
    /// same distribution `Ω(𝔇)` with `μ = min(ν, 1 − ν)`.
    ///
    /// `marginals` lists `(fact, ν)`; unmentioned facts get `ν = 0`
    /// (certainly absent). A `ν` outside `[0, 1]` yields a `μ` outside it.
    pub fn from_marginals(
        format: Database,
        marginals: impl IntoIterator<Item = (Fact, BigRational)>,
    ) -> Result<Self, ModelError> {
        let mut observed = format;
        // Clear all relations: the observed content is derived from ν.
        for i in 0..observed.vocabulary().len() {
            observed.relation_mut(i).clear();
        }
        let half = BigRational::from_ratio(1, 2);
        let collected: Vec<(Fact, BigRational)> = marginals.into_iter().collect();
        for (fact, nu) in &collected {
            if *nu > half {
                observed.set_fact(fact, true);
            }
        }
        let mut ud = UnreliableDatabase::reliable(observed);
        for (fact, nu) in collected {
            let mu = if ud.observed.holds(&fact) {
                nu.one_minus()
            } else {
                nu
            };
            ud.set_error(&fact, mu)?;
        }
        Ok(ud)
    }

    /// Restrict to de Rougemont's positive-only model; existing and future
    /// error assignments on negative facts are rejected.
    pub fn with_model(mut self, model: ErrorModel) -> Result<Self, ModelError> {
        self.model = model;
        let rule = self.rule();
        for (i, mu) in self.mu.iter().enumerate() {
            if !mu.is_zero() {
                let fact = self.indexer.fact_at(i);
                rule.check_mu(&fact, || self.observed.holds(&fact), mu)?;
            }
        }
        Ok(self)
    }

    /// The observed database `𝔄`.
    pub fn observed(&self) -> &Database {
        &self.observed
    }

    /// The fact indexer for this format.
    pub fn indexer(&self) -> &FactIndexer {
        &self.indexer
    }

    /// The error model in force.
    pub fn model(&self) -> ErrorModel {
        self.model
    }

    /// Universe cardinality `n`.
    pub fn size(&self) -> usize {
        self.observed.size()
    }

    /// Set `μ(fact) = p`.
    pub fn set_error(&mut self, fact: &Fact, p: BigRational) -> Result<(), ModelError> {
        self.rule()
            .check_mu(fact, || self.observed.holds(fact), &p)?;
        self.mu[self.indexer.index_of(fact)] = p;
        Ok(())
    }

    /// Set `μ = p` on every fact of the named relation.
    pub fn set_relation_error(&mut self, rel: &str, p: BigRational) -> Result<(), ModelError> {
        let rel_ix = self
            .observed
            .vocabulary()
            .index_of(rel)
            .unwrap_or_else(|| panic!("unknown relation {rel:?}"));
        let arity = self.observed.vocabulary().symbols()[rel_ix].arity();
        for tuple in self.observed.universe().tuples(arity) {
            self.set_error(&Fact::new(rel_ix, tuple), p.clone())?;
        }
        Ok(())
    }

    /// Set `μ = p` on every fact of every relation.
    pub fn set_uniform_error(&mut self, p: BigRational) -> Result<(), ModelError> {
        for i in 0..self.mu.len() {
            let fact = self.indexer.fact_at(i);
            self.set_error(&fact, p.clone())?;
        }
        Ok(())
    }

    /// `μ(fact)` — probability that the observed truth value is wrong.
    pub fn mu(&self, fact: &Fact) -> &BigRational {
        &self.mu[self.indexer.index_of(fact)]
    }

    /// `μ` by dense fact index.
    pub fn mu_at(&self, index: usize) -> &BigRational {
        &self.mu[index]
    }

    /// `ν(fact)` — probability that the fact holds in the actual database.
    pub fn nu(&self, fact: &Fact) -> BigRational {
        self.nu_of(fact, self.mu(fact))
    }

    /// `ν` by dense fact index.
    pub fn nu_at(&self, index: usize) -> BigRational {
        self.nu_of(&self.indexer.fact_at(index), &self.mu[index])
    }

    /// `ν(fact)` given `μ(fact)`: `1 − μ` for an observed fact, else `μ`.
    fn nu_of(&self, fact: &Fact, mu: &BigRational) -> BigRational {
        if self.observed.holds(fact) {
            mu.one_minus()
        } else {
            mu.clone()
        }
    }

    /// The actual truth value of a fact that is not random: the observed
    /// value when `μ = 0`, its negation when `μ = 1` (i.e. `ν ∈ {0, 1}`).
    /// `None` for an uncertain fact (`0 < μ < 1`).
    pub fn fixed_truth(&self, fact: &Fact) -> Option<bool> {
        let mu = self.mu(fact);
        if mu.is_zero() {
            Some(self.observed.holds(fact))
        } else if mu.is_one() {
            Some(!self.observed.holds(fact))
        } else {
            None
        }
    }

    /// Dense indices of facts whose actual truth value is genuinely random
    /// (`0 < μ < 1`). These are the dimensions of the world space; facts
    /// with `μ = 0` are pinned to the observed value and facts with
    /// `μ = 1` are pinned to its negation.
    pub fn uncertain_facts(&self) -> Vec<usize> {
        let one = BigRational::one();
        (0..self.mu.len())
            .filter(|&i| !self.mu[i].is_zero() && self.mu[i] != one)
            .collect()
    }

    /// The most probable world: every fact pinned or set to its likelier
    /// value (ties resolve to the observed value). With all `μ < 1/2` this
    /// is the observed database with `μ = 1` facts flipped.
    pub fn mode_world(&self) -> Database {
        let mut world = self.observed.clone();
        let half = BigRational::from_ratio(1, 2);
        for i in 0..self.mu.len() {
            if self.mu[i] > half {
                let fact = self.indexer.fact_at(i);
                let observed = self.observed.holds(&fact);
                world.set_fact(&fact, !observed);
            }
        }
        world
    }

    /// Exact probability `ν(𝔅)` that the actual database is `world`.
    ///
    /// # Panics
    /// Panics if `world` has a different format (size/vocabulary).
    pub fn world_probability(&self, world: &Database) -> BigRational {
        assert_eq!(world.size(), self.observed.size(), "universe size mismatch");
        assert_eq!(
            world.vocabulary(),
            self.observed.vocabulary(),
            "vocabulary mismatch"
        );
        let mut p = BigRational::one();
        for i in 0..self.mu.len() {
            let fact = self.indexer.fact_at(i);
            let nu = self.nu_at(i);
            let factor = if world.holds(&fact) {
                nu
            } else {
                nu.one_minus()
            };
            if factor.is_zero() {
                return BigRational::zero();
            }
            p = p.mul_ref(&factor);
        }
        p
    }

    /// Number of possible worlds with nonzero probability: `2^u` where
    /// `u = |uncertain_facts()|`. `None` if it overflows `u64`.
    pub fn world_count(&self) -> Option<u64> {
        let u = self.uncertain_facts().len();
        if u >= 64 {
            None
        } else {
            Some(1u64 << u)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrel_db::DatabaseBuilder;

    fn r(n: i64, d: u64) -> BigRational {
        BigRational::from_ratio(n, d)
    }

    fn db() -> Database {
        DatabaseBuilder::new()
            .universe_size(2)
            .relation("E", 2)
            .relation("S", 1)
            .tuples("E", [vec![0, 1]])
            .tuples("S", [vec![0]])
            .build()
    }

    #[test]
    fn reliable_database_has_zero_mu() {
        let ud = UnreliableDatabase::reliable(db());
        assert!(ud.uncertain_facts().is_empty());
        assert_eq!(ud.world_count(), Some(1));
        assert_eq!(ud.world_probability(&db()), BigRational::one());
    }

    #[test]
    fn nu_flips_with_observation() {
        let mut ud = UnreliableDatabase::reliable(db());
        let present = Fact::new(0, vec![0, 1]); // E(0,1) observed true
        let absent = Fact::new(0, vec![1, 0]); // E(1,0) observed false
        ud.set_error(&present, r(1, 4)).unwrap();
        ud.set_error(&absent, r(1, 4)).unwrap();
        assert_eq!(ud.nu(&present), r(3, 4));
        assert_eq!(ud.nu(&absent), r(1, 4));
    }

    #[test]
    fn probability_validation() {
        let mut ud = UnreliableDatabase::reliable(db());
        let f = Fact::new(1, vec![0]);
        assert!(ud.set_error(&f, r(3, 2)).is_err());
        assert!(ud.set_error(&f, r(-1, 2)).is_err());
        assert!(ud.set_error(&f, r(1, 1)).is_ok());
        assert!(ud.set_error(&f, r(0, 1)).is_ok());
    }

    #[test]
    fn positive_only_model_enforced() {
        let mut ud = UnreliableDatabase::reliable(db())
            .with_model(ErrorModel::PositiveOnly)
            .unwrap();
        // E(0,1) is observed true: error allowed.
        assert!(ud.set_error(&Fact::new(0, vec![0, 1]), r(1, 2)).is_ok());
        // E(1,0) is observed false: error rejected.
        assert!(matches!(
            ud.set_error(&Fact::new(0, vec![1, 0]), r(1, 2)),
            Err(ModelError::NegativeFactError { .. })
        ));
        // Retrofitting the model onto a violating database is also caught.
        let mut bad = UnreliableDatabase::reliable(db());
        bad.set_error(&Fact::new(0, vec![1, 0]), r(1, 2)).unwrap();
        assert!(bad.with_model(ErrorModel::PositiveOnly).is_err());
    }

    #[test]
    fn world_probability_of_observed() {
        let mut ud = UnreliableDatabase::reliable(db());
        ud.set_error(&Fact::new(1, vec![0]), r(1, 3)).unwrap();
        ud.set_error(&Fact::new(1, vec![1]), r(1, 4)).unwrap();
        // Observed world: both S-facts as observed → (1-1/3)(1-1/4) = 1/2.
        assert_eq!(ud.world_probability(&db()), r(1, 2));
        // Flip S(1) on: (2/3)(1/4) = 1/6.
        let mut w = db();
        w.set_fact(&Fact::new(1, vec![1]), true);
        assert_eq!(ud.world_probability(&w), r(1, 6));
    }

    #[test]
    fn pinned_facts_zero_out_contradicting_worlds() {
        let ud = UnreliableDatabase::reliable(db());
        let mut w = db();
        w.set_fact(&Fact::new(1, vec![1]), true); // contradicts μ=0
        assert_eq!(ud.world_probability(&w), BigRational::zero());
    }

    #[test]
    fn mu_one_pins_to_flip() {
        let mut ud = UnreliableDatabase::reliable(db());
        ud.set_error(&Fact::new(1, vec![1]), r(1, 1)).unwrap();
        // S(1) observed false, μ=1 → actual surely true.
        assert!(ud.uncertain_facts().is_empty());
        assert_eq!(ud.world_probability(&db()), BigRational::zero());
        let mut w = db();
        w.set_fact(&Fact::new(1, vec![1]), true);
        assert_eq!(ud.world_probability(&w), BigRational::one());
        assert!(ud.mode_world().holds(&Fact::new(1, vec![1])));
    }

    #[test]
    fn relation_and_uniform_setters() {
        let mut ud = UnreliableDatabase::reliable(db());
        ud.set_relation_error("S", r(1, 2)).unwrap();
        assert_eq!(ud.uncertain_facts().len(), 2);
        ud.set_uniform_error(r(1, 8)).unwrap();
        assert_eq!(ud.uncertain_facts().len(), 6);
        assert_eq!(ud.mu(&Fact::new(0, vec![1, 1])), &r(1, 8));
    }

    #[test]
    fn world_count() {
        let mut ud = UnreliableDatabase::reliable(db());
        ud.set_relation_error("S", r(1, 2)).unwrap();
        assert_eq!(ud.world_count(), Some(4));
    }

    #[test]
    fn marginal_presentation_reproduces_distribution() {
        // Remark in Section 2: specifying ν directly gives the same Ω(𝔇).
        let format = db();
        let ud = UnreliableDatabase::from_marginals(
            format,
            [
                (Fact::new(0, vec![0, 1]), r(3, 4)), // likely present
                (Fact::new(1, vec![0]), r(1, 3)),    // likely absent
                (Fact::new(1, vec![1]), r(1, 1)),    // certainly present
            ],
        )
        .unwrap();
        // Observed database = mode: E(0,1) ∈ 𝔄, S(0) ∉ 𝔄, S(1) ∈ 𝔄.
        assert!(ud.observed().holds(&Fact::new(0, vec![0, 1])));
        assert!(!ud.observed().holds(&Fact::new(1, vec![0])));
        assert!(ud.observed().holds(&Fact::new(1, vec![1])));
        // Marginals are reproduced exactly.
        assert_eq!(ud.nu(&Fact::new(0, vec![0, 1])), r(3, 4));
        assert_eq!(ud.nu(&Fact::new(1, vec![0])), r(1, 3));
        assert_eq!(ud.nu(&Fact::new(1, vec![1])), r(1, 1));
        // Unmentioned facts are certainly absent.
        assert_eq!(ud.nu(&Fact::new(0, vec![1, 0])), BigRational::zero());
        // μ is the minority mass.
        assert_eq!(ud.mu(&Fact::new(0, vec![0, 1])), &r(1, 4));
        assert_eq!(ud.mu(&Fact::new(1, vec![0])), &r(1, 3));
    }

    #[test]
    fn marginal_presentation_validates() {
        assert!(
            UnreliableDatabase::from_marginals(db(), [(Fact::new(1, vec![0]), r(3, 2))],).is_err()
        );
    }
}
