//! Finite relational structures (the "databases" of the paper).

use crate::fact::{Fact, FactIndexer};
use crate::relation::Relation;
use crate::universe::{Element, Universe};
use qrel_logic::{RelationSymbol, Vocabulary};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A finite relational structure `𝔄 = (A, R₁^𝔄, …, R_m^𝔄)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "RawDatabase")]
pub struct Database {
    vocab: Vocabulary,
    universe: Universe,
    relations: Vec<Relation>,
}

/// Deserialization shadow: cross-validates the three components —
/// one relation instance per vocabulary symbol, matching arities, and
/// every tuple element inside the universe — so hand-edited spec files
/// cannot smuggle in a malformed structure.
#[derive(Deserialize)]
struct RawDatabase {
    vocab: Vocabulary,
    universe: Universe,
    relations: Vec<Relation>,
}

impl TryFrom<RawDatabase> for Database {
    type Error = String;

    fn try_from(raw: RawDatabase) -> Result<Self, String> {
        Database::from_parts(raw.vocab, raw.universe, raw.relations)
    }
}

impl Database {
    /// The database of the three components, cross-validated: one
    /// relation instance per vocabulary symbol, matching arities, and
    /// every tuple element inside the universe. Decoders of untrusted
    /// text build through here.
    pub fn from_parts(
        vocab: Vocabulary,
        universe: Universe,
        relations: Vec<Relation>,
    ) -> Result<Self, String> {
        if relations.len() != vocab.len() {
            return Err(format!(
                "{} relation instances for {} vocabulary symbols",
                relations.len(),
                vocab.len()
            ));
        }
        let n = universe.len() as u32;
        for (sym, rel) in vocab.symbols().iter().zip(&relations) {
            if rel.arity() != sym.arity() {
                return Err(format!(
                    "relation instance for {} has arity {}",
                    sym,
                    rel.arity()
                ));
            }
            for t in rel.iter() {
                if t.iter().any(|&e| e >= n) {
                    return Err(format!(
                        "tuple in {} mentions element {} outside the universe of size {n}",
                        sym.name(),
                        t.iter().max().unwrap()
                    ));
                }
            }
        }
        Ok(Database {
            vocab,
            universe,
            relations,
        })
    }

    /// Empty database (all relations empty) over the given format.
    pub fn empty(vocab: Vocabulary, universe: Universe) -> Self {
        let relations = vocab
            .symbols()
            .iter()
            .map(|s| Relation::new(s.arity()))
            .collect();
        Database {
            vocab,
            universe,
            relations,
        }
    }

    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Universe cardinality `n`.
    pub fn size(&self) -> usize {
        self.universe.len()
    }

    /// Relation instance by vocabulary index.
    pub fn relation(&self, index: usize) -> &Relation {
        &self.relations[index]
    }

    /// Mutable relation instance by vocabulary index.
    pub fn relation_mut(&mut self, index: usize) -> &mut Relation {
        &mut self.relations[index]
    }

    /// Relation instance by name.
    pub fn relation_by_name(&self, name: &str) -> Option<&Relation> {
        self.vocab.index_of(name).map(|i| &self.relations[i])
    }

    /// Truth value of a fact in this database.
    pub fn holds(&self, fact: &Fact) -> bool {
        self.relations[fact.relation].contains(&fact.tuple)
    }

    /// Set the truth value of a fact.
    pub fn set_fact(&mut self, fact: &Fact, value: bool) {
        let rel = &mut self.relations[fact.relation];
        if value {
            rel.insert(fact.tuple.clone());
        } else {
            rel.remove(&fact.tuple);
        }
    }

    /// Insert a tuple into a named relation.
    ///
    /// # Panics
    /// Panics if the relation does not exist or the arity mismatches.
    pub fn insert(&mut self, rel: &str, tuple: Vec<Element>) {
        let i = self
            .vocab
            .index_of(rel)
            .unwrap_or_else(|| panic!("unknown relation {rel:?}"));
        for &e in &tuple {
            assert!(
                (e as usize) < self.universe.len(),
                "element out of universe"
            );
        }
        self.relations[i].insert(tuple);
    }

    /// A [`FactIndexer`] for this database's format.
    pub fn fact_indexer(&self) -> FactIndexer {
        FactIndexer::new(&self.vocab, self.universe.len())
    }

    /// Total number of atomic facts over this format.
    pub fn fact_count(&self) -> usize {
        self.vocab.fact_count(self.universe.len())
    }

    /// Total number of *stored* tuples across relations.
    pub fn tuple_count(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "universe: {{{}}}", {
            let mut s = String::new();
            for e in self.universe.elements() {
                if !s.is_empty() {
                    s.push_str(", ");
                }
                s.push_str(self.universe.name(e));
            }
            s
        })?;
        for (sym, rel) in self.vocab.symbols().iter().zip(&self.relations) {
            write!(f, "{} = {{", sym.name())?;
            for (i, t) in rel.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "(")?;
                for (j, e) in t.iter().enumerate() {
                    if j > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", self.universe.name(*e))?;
                }
                write!(f, ")")?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

/// Fluent builder for [`Database`].
///
/// ```
/// use qrel_db::DatabaseBuilder;
/// let db = DatabaseBuilder::new()
///     .universe_size(3)
///     .relation("E", 2)
///     .relation("S", 1)
///     .tuples("E", [vec![0, 1], vec![1, 2]])
///     .tuples("S", [vec![0]])
///     .build();
/// assert_eq!(db.size(), 3);
/// assert_eq!(db.relation_by_name("E").unwrap().len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct DatabaseBuilder {
    universe: Option<Universe>,
    vocab: Vocabulary,
    pending: Vec<(String, Vec<Vec<Element>>)>,
}

impl DatabaseBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Anonymous universe of `n` elements.
    pub fn universe_size(mut self, n: usize) -> Self {
        self.universe = Some(Universe::of_size(n));
        self
    }

    /// Named universe.
    pub fn universe_names<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.universe = Some(Universe::from_names(names));
        self
    }

    /// Declare a relation symbol.
    pub fn relation(mut self, name: &str, arity: usize) -> Self {
        self.vocab.add(RelationSymbol::new(name, arity));
        self
    }

    /// Queue tuples for a declared relation.
    pub fn tuples<I>(mut self, name: &str, tuples: I) -> Self
    where
        I: IntoIterator<Item = Vec<Element>>,
    {
        self.pending
            .push((name.to_string(), tuples.into_iter().collect()));
        self
    }

    /// Finalize.
    ///
    /// # Panics
    /// Panics if the universe was not set, a queued relation is undeclared,
    /// or a tuple is out of range.
    pub fn build(self) -> Database {
        let universe = self.universe.expect("universe not set");
        let mut db = Database::empty(self.vocab, universe);
        for (name, tuples) in self.pending {
            for t in tuples {
                db.insert(&name, t);
            }
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Database {
        DatabaseBuilder::new()
            .universe_size(3)
            .relation("E", 2)
            .relation("S", 1)
            .tuples("E", [vec![0, 1], vec![1, 2]])
            .tuples("S", [vec![2]])
            .build()
    }

    #[test]
    fn builder_and_lookup() {
        let db = sample();
        assert_eq!(db.size(), 3);
        assert!(db.relation_by_name("E").unwrap().contains(&[0, 1]));
        assert!(!db.relation_by_name("E").unwrap().contains(&[1, 0]));
        assert_eq!(db.tuple_count(), 3);
        assert_eq!(db.fact_count(), 9 + 3);
    }

    #[test]
    fn facts_roundtrip_with_storage() {
        let mut db = sample();
        let ix = db.fact_indexer();
        let f = Fact::new(0, vec![2, 2]);
        assert!(!db.holds(&f));
        db.set_fact(&f, true);
        assert!(db.holds(&f));
        db.set_fact(&f, false);
        assert!(!db.holds(&f));
        // Index consistency.
        assert_eq!(ix.fact_at(ix.index_of(&f)), f);
    }

    #[test]
    #[should_panic(expected = "unknown relation")]
    fn unknown_relation_panics() {
        let mut db = sample();
        db.insert("T", vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn out_of_universe_panics() {
        let mut db = sample();
        db.insert("S", vec![7]);
    }

    #[test]
    fn serde_roundtrip() {
        let db = sample();
        let json = serde_json::to_string(&db).unwrap();
        let back: Database = serde_json::from_str(&json).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn display_is_readable() {
        let s = sample().to_string();
        assert!(s.contains("E = {(e0,e1), (e1,e2)}"));
        assert!(s.contains("S = {(e2)}"));
    }
}
