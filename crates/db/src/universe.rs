//! Finite universes of named elements.

use serde::{Deserialize, Serialize};

/// A domain element: a dense index into a [`Universe`].
pub type Element = u32;

/// A finite universe `A = {a₀, …, a_{n-1}}` with optional human-readable
/// element names.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "RawUniverse")]
pub struct Universe {
    names: Vec<String>,
}

/// Deserialization shadow: rejects duplicate element names (name-based
/// lookups would silently resolve to the first).
#[derive(Deserialize)]
struct RawUniverse {
    names: Vec<String>,
}

impl TryFrom<RawUniverse> for Universe {
    type Error = String;

    fn try_from(raw: RawUniverse) -> Result<Self, String> {
        Universe::try_from_names(raw.names)
    }
}

impl Universe {
    /// The universe of `names`, in order; fails on a repeated name.
    /// Decoders of untrusted text build through here.
    pub fn try_from_names(names: Vec<String>) -> Result<Self, String> {
        let mut sorted: Vec<&str> = names.iter().map(String::as_str).collect();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != names.len() {
            return Err("duplicate element names in universe".to_string());
        }
        Ok(Universe { names })
    }

    /// Universe of `n` anonymous elements named `e0..e{n-1}`.
    pub fn of_size(n: usize) -> Self {
        Universe {
            names: (0..n).map(|i| format!("e{i}")).collect(),
        }
    }

    /// Universe with the given element names.
    ///
    /// # Panics
    /// Panics on duplicate names.
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate element names");
        Universe { names }
    }

    /// Number of elements `n = |A|`.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Elements as a range iterator.
    pub fn elements(&self) -> impl Iterator<Item = Element> + '_ {
        0..self.names.len() as Element
    }

    /// Name of an element.
    pub fn name(&self, e: Element) -> &str {
        &self.names[e as usize]
    }

    /// Element by name.
    pub fn lookup(&self, name: &str) -> Option<Element> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| i as Element)
    }

    /// All tuples of the given arity, in lexicographic order. The 0-ary
    /// case yields exactly the empty tuple.
    pub fn tuples(&self, arity: usize) -> TupleIter {
        TupleIter {
            n: self.len(),
            current: Some(vec![0; arity]),
            started: false,
        }
    }

    /// Number of tuples of the given arity: `n^arity`.
    ///
    /// # Panics
    /// Panics on overflow (consistent with [`crate::FactIndexer`]).
    pub fn tuple_count(&self, arity: usize) -> usize {
        self.len()
            .checked_pow(arity as u32)
            .expect("tuple count overflow")
    }
}

/// Lexicographic iterator over all tuples `A^k`.
#[derive(Debug)]
pub struct TupleIter {
    n: usize,
    current: Option<Vec<Element>>,
    started: bool,
}

impl Iterator for TupleIter {
    type Item = Vec<Element>;

    fn next(&mut self) -> Option<Vec<Element>> {
        let cur = self.current.as_mut()?;
        if !self.started {
            // Nonempty tuples over an empty universe do not exist.
            if self.n == 0 && !cur.is_empty() {
                self.current = None;
                return None;
            }
            self.started = true;
            return Some(cur.clone());
        }
        // Increment as a base-n counter, last position fastest.
        for i in (0..cur.len()).rev() {
            if (cur[i] as usize) + 1 < self.n {
                cur[i] += 1;
                for slot in cur.iter_mut().skip(i + 1) {
                    *slot = 0;
                }
                return Some(cur.clone());
            }
        }
        self.current = None;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_names() {
        let u = Universe::of_size(3);
        assert_eq!(u.len(), 3);
        assert_eq!(u.name(1), "e1");
        assert_eq!(u.lookup("e2"), Some(2));
        assert_eq!(u.lookup("zz"), None);

        let v = Universe::from_names(["alice", "bob"]);
        assert_eq!(v.lookup("bob"), Some(1));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_panics() {
        Universe::from_names(["a", "a"]);
    }

    #[test]
    fn tuple_enumeration() {
        let u = Universe::of_size(3);
        let ts: Vec<_> = u.tuples(2).collect();
        assert_eq!(ts.len(), 9);
        assert_eq!(ts[0], vec![0, 0]);
        assert_eq!(ts[1], vec![0, 1]);
        assert_eq!(ts[8], vec![2, 2]);
        // Lexicographic order.
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn nullary_tuple() {
        let u = Universe::of_size(5);
        let ts: Vec<_> = u.tuples(0).collect();
        assert_eq!(ts, vec![Vec::<Element>::new()]);
        assert_eq!(u.tuple_count(0), 1);
    }

    #[test]
    fn empty_universe() {
        let u = Universe::of_size(0);
        assert_eq!(u.tuples(2).count(), 0);
        assert_eq!(u.tuples(0).count(), 1);
        assert_eq!(u.tuple_count(3), 0);
    }

    #[test]
    fn tuple_count_matches_iterator() {
        let u = Universe::of_size(4);
        for k in 0..4 {
            assert_eq!(u.tuples(k).count(), u.tuple_count(k));
        }
    }
}
