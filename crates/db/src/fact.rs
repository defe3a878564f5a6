//! Atomic facts and dense fact indexing.
//!
//! An atomic statement `R(ā)` over a database format (vocabulary + universe
//! size) is a *fact*. The possible-world space Ω(𝔇) assigns a truth value
//! to every fact, so we need a fast bijection between facts and dense
//! indices `0..total`: relation blocks in vocabulary order, tuples ranked
//! lexicographically (mixed-radix) within each block.

use crate::universe::Element;
use qrel_logic::Vocabulary;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An atomic fact `R(ā)`, with `R` identified by its vocabulary index.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Fact {
    pub relation: usize,
    pub tuple: Vec<Element>,
}

impl Fact {
    pub fn new(relation: usize, tuple: Vec<Element>) -> Self {
        Fact { relation, tuple }
    }

    /// Render with the vocabulary's relation names.
    pub fn display<'a>(&'a self, vocab: &'a Vocabulary) -> FactDisplay<'a> {
        FactDisplay { fact: self, vocab }
    }
}

/// Helper for [`Fact::display`].
pub struct FactDisplay<'a> {
    fact: &'a Fact,
    vocab: &'a Vocabulary,
}

impl fmt::Display for FactDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.vocab.symbols()[self.fact.relation].name();
        write!(f, "{name}(")?;
        for (i, e) in self.fact.tuple.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

/// Bijection between facts and dense indices for a fixed format.
#[derive(Debug, Clone)]
pub struct FactIndexer {
    n: usize,
    /// Arity of each relation, in vocabulary order.
    arities: Vec<usize>,
    /// Start offset of each relation's block; one extra entry = total.
    offsets: Vec<usize>,
}

impl FactIndexer {
    /// Build for a vocabulary over a universe of size `n`.
    pub fn new(vocab: &Vocabulary, n: usize) -> Self {
        let arities: Vec<usize> = vocab.symbols().iter().map(|s| s.arity()).collect();
        let mut offsets = Vec::with_capacity(arities.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &a in &arities {
            acc = acc
                .checked_add(n.checked_pow(a as u32).expect("tuple count overflow"))
                .expect("fact count overflow");
            offsets.push(acc);
        }
        FactIndexer {
            n,
            arities,
            offsets,
        }
    }

    /// Total number of facts.
    pub fn total(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Universe size this indexer was built for.
    pub fn universe_size(&self) -> usize {
        self.n
    }

    /// Dense index of the first fact of `relation`'s block: the fact
    /// `R(ā)` sits at `offset(R)` plus the mixed-radix rank of `ā`.
    pub fn offset(&self, relation: usize) -> usize {
        self.offsets[relation]
    }

    /// Dense index of a fact.
    ///
    /// # Panics
    /// Panics on arity mismatch or out-of-universe elements — a silent
    /// wrong index would corrupt another fact's `μ`, so this is a hard
    /// check even in release builds (`Fact` fields are public).
    pub fn index_of(&self, fact: &Fact) -> usize {
        assert_eq!(
            fact.tuple.len(),
            self.arities[fact.relation],
            "fact arity mismatch"
        );
        let mut rank = 0usize;
        for &e in &fact.tuple {
            assert!((e as usize) < self.n, "fact element out of universe");
            rank = rank * self.n + e as usize;
        }
        self.offsets[fact.relation] + rank
    }

    /// Fact at a dense index.
    pub fn fact_at(&self, mut index: usize) -> Fact {
        assert!(index < self.total(), "fact index out of range");
        // Find the relation block (few relations — linear scan is fine).
        let mut rel = 0;
        while index >= self.offsets[rel + 1] {
            rel += 1;
        }
        index -= self.offsets[rel];
        let arity = self.arities[rel];
        let mut tuple = vec![0 as Element; arity];
        for i in (0..arity).rev() {
            tuple[i] = (index % self.n) as Element;
            index /= self.n;
        }
        Fact {
            relation: rel,
            tuple,
        }
    }

    /// Iterate all facts in index order.
    pub fn iter(&self) -> impl Iterator<Item = Fact> + '_ {
        (0..self.total()).map(|i| self.fact_at(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocabulary {
        Vocabulary::from_pairs([("E", 2), ("S", 1), ("P", 0)])
    }

    #[test]
    fn total_counts() {
        let ix = FactIndexer::new(&vocab(), 3);
        assert_eq!(ix.total(), 9 + 3 + 1);
    }

    #[test]
    fn roundtrip_all() {
        let ix = FactIndexer::new(&vocab(), 3);
        for i in 0..ix.total() {
            let f = ix.fact_at(i);
            assert_eq!(ix.index_of(&f), i);
        }
    }

    #[test]
    fn block_layout() {
        let ix = FactIndexer::new(&vocab(), 2);
        // E-block: indices 0..4 in lexicographic tuple order.
        assert_eq!(ix.fact_at(0), Fact::new(0, vec![0, 0]));
        assert_eq!(ix.fact_at(1), Fact::new(0, vec![0, 1]));
        assert_eq!(ix.fact_at(2), Fact::new(0, vec![1, 0]));
        assert_eq!(ix.fact_at(3), Fact::new(0, vec![1, 1]));
        // S-block.
        assert_eq!(ix.fact_at(4), Fact::new(1, vec![0]));
        assert_eq!(ix.fact_at(5), Fact::new(1, vec![1]));
        // P-block (nullary).
        assert_eq!(ix.fact_at(6), Fact::new(2, vec![]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let ix = FactIndexer::new(&vocab(), 2);
        ix.fact_at(7);
    }

    #[test]
    fn display_uses_names() {
        let v = vocab();
        let f = Fact::new(0, vec![1, 2]);
        assert_eq!(f.display(&v).to_string(), "E(1,2)");
        assert_eq!(Fact::new(2, vec![]).display(&v).to_string(), "P()");
    }

    #[test]
    fn iter_is_exhaustive_and_ordered() {
        let ix = FactIndexer::new(&vocab(), 2);
        let all: Vec<_> = ix.iter().collect();
        assert_eq!(all.len(), ix.total());
        for (i, f) in all.iter().enumerate() {
            assert_eq!(ix.index_of(f), i);
        }
    }
}
