//! Relation instances: finite sets of tuples.

use crate::universe::Element;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A relation instance of fixed arity over a universe of elements.
///
/// Storage is a sorted set of tuples, which gives deterministic iteration
/// (important for reproducible sampling and hashing) and O(log n) point
/// lookups; the workloads here are dominated by scans, where the BTree's
/// cache behaviour is adequate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "RawRelation")]
pub struct Relation {
    arity: usize,
    tuples: BTreeSet<Vec<Element>>,
}

/// Deserialization shadow: rejects tuples whose length differs from the
/// declared arity, so the invariant cannot be bypassed through serde
/// (e.g. a hand-edited CLI spec file).
#[derive(Deserialize)]
struct RawRelation {
    arity: usize,
    tuples: BTreeSet<Vec<Element>>,
}

impl TryFrom<RawRelation> for Relation {
    type Error = String;

    fn try_from(raw: RawRelation) -> Result<Self, String> {
        Relation::try_from_set(raw.arity, raw.tuples)
    }
}

impl Relation {
    /// The relation of `arity` holding `tuples`; fails on a tuple of
    /// another length. Decoders of untrusted text build through here.
    pub fn try_from_set(arity: usize, tuples: BTreeSet<Vec<Element>>) -> Result<Self, String> {
        if let Some(t) = tuples.iter().find(|t| t.len() != arity) {
            return Err(format!(
                "tuple of length {} in a relation of arity {arity}",
                t.len()
            ));
        }
        Ok(Relation { arity, tuples })
    }

    /// Empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            tuples: BTreeSet::new(),
        }
    }

    /// Build from tuples.
    ///
    /// # Panics
    /// Panics if a tuple's length differs from `arity`.
    pub fn from_tuples<I>(arity: usize, tuples: I) -> Self
    where
        I: IntoIterator<Item = Vec<Element>>,
    {
        let mut r = Relation::new(arity);
        for t in tuples {
            r.insert(t);
        }
        r
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Element]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        self.tuples.contains(tuple)
    }

    /// Insert a tuple; returns true if it was new.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn insert(&mut self, tuple: Vec<Element>) -> bool {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        self.tuples.insert(tuple)
    }

    /// Remove a tuple; returns true if it was present.
    pub fn remove(&mut self, tuple: &[Element]) -> bool {
        self.tuples.remove(tuple)
    }

    /// Set membership of `tuple` to `present`.
    pub fn set(&mut self, tuple: Vec<Element>, present: bool) {
        if present {
            self.insert(tuple);
        } else {
            self.remove(&tuple);
        }
    }

    /// Iterate tuples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<Element>> {
        self.tuples.iter()
    }

    /// Clear all tuples.
    pub fn clear(&mut self) {
        self.tuples.clear();
    }

    /// Union in all tuples of `other` (same arity); returns the number of
    /// new tuples added.
    pub fn union_with(&mut self, other: &Relation) -> usize {
        assert_eq!(self.arity, other.arity, "arity mismatch in union");
        let before = self.tuples.len();
        for t in &other.tuples {
            self.tuples.insert(t.clone());
        }
        self.tuples.len() - before
    }

    /// Tuples in `self` that are not in `other`.
    pub fn difference(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity, "arity mismatch in difference");
        Relation {
            arity: self.arity,
            tuples: self.tuples.difference(&other.tuples).cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut r = Relation::new(2);
        assert!(r.insert(vec![0, 1]));
        assert!(!r.insert(vec![0, 1]));
        assert!(r.contains(&[0, 1]));
        assert!(!r.contains(&[1, 0]));
        assert!(r.remove(&[0, 1]));
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_enforced() {
        let mut r = Relation::new(2);
        r.insert(vec![0]);
    }

    #[test]
    fn sorted_iteration() {
        let r = Relation::from_tuples(2, vec![vec![1, 0], vec![0, 1], vec![0, 0]]);
        let ts: Vec<_> = r.iter().cloned().collect();
        assert_eq!(ts, vec![vec![0, 0], vec![0, 1], vec![1, 0]]);
    }

    #[test]
    fn set_and_union_difference() {
        let mut a = Relation::from_tuples(1, vec![vec![0], vec![1]]);
        let b = Relation::from_tuples(1, vec![vec![1], vec![2]]);
        assert_eq!(a.union_with(&b), 1);
        assert_eq!(a.len(), 3);
        let d = a.difference(&b);
        assert_eq!(d.len(), 1);
        assert!(d.contains(&[0]));
        a.set(vec![5], true);
        assert!(a.contains(&[5]));
        a.set(vec![5], false);
        assert!(!a.contains(&[5]));
    }

    #[test]
    fn nullary_relation() {
        // A 0-ary relation is a proposition: empty = false, {()} = true.
        let mut r = Relation::new(0);
        assert!(!r.contains(&[]));
        r.insert(vec![]);
        assert!(r.contains(&[]));
        assert_eq!(r.len(), 1);
    }
}
