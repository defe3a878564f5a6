//! Relational vocabularies.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A relation symbol: a name together with an arity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RelationSymbol {
    name: String,
    arity: usize,
}

impl RelationSymbol {
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        RelationSymbol {
            name: name.into(),
            arity,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn arity(&self) -> usize {
        self.arity
    }
}

impl fmt::Display for RelationSymbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.arity)
    }
}

/// A finite relational vocabulary (signature): an ordered set of relation
/// symbols with unique names. The order is significant — it fixes the
/// enumeration order of atomic facts everywhere in the system, which keeps
/// world enumeration, sampling and fact indexing consistent.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "RawVocabulary")]
pub struct Vocabulary {
    symbols: Vec<RelationSymbol>,
}

/// Deserialization shadow: rejects duplicate relation names (lookups by
/// name would silently resolve to the first occurrence).
#[derive(Deserialize)]
struct RawVocabulary {
    symbols: Vec<RelationSymbol>,
}

impl TryFrom<RawVocabulary> for Vocabulary {
    type Error = String;

    fn try_from(raw: RawVocabulary) -> Result<Self, String> {
        Vocabulary::from_symbols(raw.symbols)
    }
}

impl Vocabulary {
    /// The vocabulary of `symbols`, in order; fails on a repeated name.
    /// Decoders of untrusted text build through here.
    pub fn from_symbols(symbols: Vec<RelationSymbol>) -> Result<Self, String> {
        let mut names: Vec<&str> = symbols.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != symbols.len() {
            return Err("duplicate relation names in vocabulary".to_string());
        }
        Ok(Vocabulary { symbols })
    }

    pub fn new() -> Self {
        Vocabulary {
            symbols: Vec::new(),
        }
    }

    /// Build from `(name, arity)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate relation names.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, usize)>,
        S: Into<String>,
    {
        let mut v = Vocabulary::new();
        for (name, arity) in pairs {
            v.add(RelationSymbol::new(name, arity));
        }
        v
    }

    /// Add a symbol.
    ///
    /// # Panics
    /// Panics if a symbol with the same name already exists.
    pub fn add(&mut self, sym: RelationSymbol) {
        assert!(
            self.get(sym.name()).is_none(),
            "duplicate relation symbol {:?}",
            sym.name()
        );
        self.symbols.push(sym);
    }

    /// Look up a symbol by name.
    pub fn get(&self, name: &str) -> Option<&RelationSymbol> {
        self.symbols.iter().find(|s| s.name() == name)
    }

    /// Index of a symbol by name (position in declaration order).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.symbols.iter().position(|s| s.name() == name)
    }

    /// Symbols in declaration order.
    pub fn symbols(&self) -> &[RelationSymbol] {
        &self.symbols
    }

    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Total number of atomic facts over a universe of size `n`:
    /// `Σ_R n^arity(R)`. This is the dimension of the possible-world space.
    pub fn fact_count(&self, n: usize) -> usize {
        self.symbols
            .iter()
            .map(|s| {
                n.checked_pow(s.arity() as u32)
                    .expect("fact count overflow")
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let v = Vocabulary::from_pairs([("E", 2), ("S", 1)]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get("E").unwrap().arity(), 2);
        assert_eq!(v.index_of("S"), Some(1));
        assert_eq!(v.get("T"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_name_panics() {
        Vocabulary::from_pairs([("E", 2), ("E", 1)]);
    }

    #[test]
    fn fact_count() {
        let v = Vocabulary::from_pairs([("E", 2), ("S", 1), ("C", 0)]);
        assert_eq!(v.fact_count(4), 16 + 4 + 1);
        assert_eq!(v.fact_count(0), 1);
    }

    #[test]
    fn display() {
        assert_eq!(RelationSymbol::new("E", 2).to_string(), "E/2");
    }
}
