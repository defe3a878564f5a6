//! Vendored, offline subset of the `serde` data model used by this
//! workspace.
//!
//! Instead of serde's visitor-based zero-copy architecture, this stub
//! routes everything through one owned [`Value`] tree (the same shape
//! `serde_json::Value` exposes): `Serialize` renders a type into a
//! `Value`, `Deserialize` rebuilds a type from one, taking the tree by
//! value so strings and vectors move out of it instead of being
//! copied. The `derive` feature re-exports proc macros from the local
//! `serde_derive` crate that generate impls with serde's
//! externally-tagged conventions, plus
//! the container attributes `#[serde(from = "...")]` /
//! `#[serde(try_from = "...")]` and the field attributes
//! `#[serde(default)]` / `#[serde(default = "path")]` that this
//! repository relies on.

use std::collections::BTreeSet;
use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree — the single interchange representation.
///
/// Numbers keep integer/float identity: integers parse into `Int`
/// (covering the full `u64`/`i64` domains via `i128`), everything else
/// into `Float`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i128),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered key/value pairs (duplicate keys: last wins on
    /// lookup, mirroring serde_json's map semantics closely enough for
    /// our specs).
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|pairs| field(pairs, key))
    }

    /// Human-readable type name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Last-wins field lookup in an object's pair list.
fn field<'a>(pairs: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::IndexMut<&str> for Value {
    fn index_mut(&mut self, key: &str) -> &mut Value {
        if matches!(self, Value::Null) {
            *self = Value::Object(Vec::new());
        }
        let Value::Object(pairs) = self else {
            panic!("cannot index {} with a string key", self.kind());
        };
        let pos = pairs.iter().rposition(|(k, _)| k == key);
        let pos = match pos {
            Some(p) => p,
            None => {
                pairs.push((key.to_string(), Value::Null));
                pairs.len() - 1
            }
        };
        &mut pairs[pos].1
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl std::ops::IndexMut<usize> for Value {
    fn index_mut(&mut self, i: usize) -> &mut Value {
        let Value::Array(items) = self else {
            panic!("cannot index {} with a usize", self.kind());
        };
        &mut items[i]
    }
}

/// Deserialization error: a message plus an outermost-first path of the
/// fields/elements that led to it.
#[derive(Debug, Clone)]
pub struct DeError {
    msg: String,
}

impl DeError {
    pub fn custom(msg: impl fmt::Display) -> Self {
        DeError {
            msg: msg.to_string(),
        }
    }

    /// Prefix a path segment (used by generated code while unwinding).
    pub fn in_context(self, segment: &str) -> Self {
        DeError {
            msg: format!("{segment}: {}", self.msg),
        }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for DeError {}

/// Render `self` into the interchange [`Value`].
pub trait Serialize {
    fn serialize_value(&self) -> Value;

    /// `Some` when `self` already is a [`Value`], so a printer can walk
    /// it in place instead of through the copy `serialize_value` makes.
    #[doc(hidden)]
    fn as_value(&self) -> Option<&Value> {
        None
    }
}

/// Rebuild `Self` from the interchange [`Value`], consuming it.
pub trait Deserialize: Sized {
    fn deserialize_value(v: Value) -> Result<Self, DeError>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }

    fn as_value(&self) -> Option<&Value> {
        (**self).as_value()
    }
}

impl Serialize for Value {
    fn serialize_value(&self) -> Value {
        self.clone()
    }

    fn as_value(&self) -> Option<&Value> {
        Some(self)
    }
}

impl Deserialize for Value {
    fn deserialize_value(v: Value) -> Result<Self, DeError> {
        Ok(v)
    }
}

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize_value(v: Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(b),
            other => Err(DeError::custom(format!(
                "expected bool, got {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: Value) -> Result<Self, DeError> {
                match v {
                    Value::Int(i) => <$t>::try_from(i).map_err(|_| {
                        DeError::custom(format!(
                            "integer {} out of range for {}", i, stringify!($t)
                        ))
                    }),
                    other => Err(DeError::custom(format!(
                        "expected integer, got {}", other.kind()
                    ))),
                }
            }
        }
    )*};
}
int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for u128 {
    fn serialize_value(&self) -> Value {
        Value::Int(*self as i128)
    }
}

impl Deserialize for u128 {
    fn deserialize_value(v: Value) -> Result<Self, DeError> {
        match v {
            Value::Int(i) if i >= 0 => Ok(i as u128),
            Value::Int(i) => Err(DeError::custom(format!(
                "integer {i} out of range for u128"
            ))),
            other => Err(DeError::custom(format!(
                "expected integer, got {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for f64 {
    fn serialize_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize_value(v: Value) -> Result<Self, DeError> {
        match v {
            Value::Float(x) => Ok(x),
            Value::Int(i) => Ok(i as f64),
            other => Err(DeError::custom(format!(
                "expected number, got {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for f32 {
    fn serialize_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn deserialize_value(v: Value) -> Result<Self, DeError> {
        f64::deserialize_value(v).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize_value(v: Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s),
            other => Err(DeError::custom(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(v: Value) -> Result<Self, DeError> {
        let Value::Array(items) = v else {
            return Err(DeError::custom(format!("expected array, got {}", v.kind())));
        };
        items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                T::deserialize_value(item).map_err(|e| e.in_context(&format!("[{i}]")))
            })
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize_value(v: Value) -> Result<Self, DeError> {
        Ok(Vec::<T>::deserialize_value(v)?.into_iter().collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            Some(x) => x.serialize_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(v: Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize_value(v: Value) -> Result<Self, DeError> {
        T::deserialize_value(v).map(Box::new)
    }
}

macro_rules! tuple_impls {
    ($(($($name:ident : $idx:tt),+) with $len:expr;)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize_value(v: Value) -> Result<Self, DeError> {
                let Value::Array(items) = v else {
                    return Err(DeError::custom(format!("expected array, got {}", v.kind())));
                };
                if items.len() != $len {
                    return Err(DeError::custom(format!(
                        "expected tuple of {} elements, got {}", $len, items.len()
                    )));
                }
                let mut items = items.into_iter();
                Ok(($($name::deserialize_value(items.next().expect("length checked"))
                    .map_err(|e| e.in_context(&format!("[{}]", $idx)))?,)+))
            }
        }
    )*};
}
tuple_impls! {
    (A: 0) with 1;
    (A: 0, B: 1) with 2;
    (A: 0, B: 1, C: 2) with 3;
    (A: 0, B: 1, C: 2, D: 3) with 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u32::deserialize_value(7u32.serialize_value()).unwrap(), 7);
        assert_eq!(
            String::deserialize_value("hi".serialize_value()).unwrap(),
            "hi"
        );
        assert!(bool::deserialize_value(Value::Int(1)).is_err());
        assert!(u8::deserialize_value(Value::Int(300)).is_err());
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![(1u32, true), (2, false)];
        let round: Vec<(u32, bool)> = Deserialize::deserialize_value(v.serialize_value()).unwrap();
        assert_eq!(round, v);
        let s: BTreeSet<u64> = [3, 1, 2].into_iter().collect();
        let round: BTreeSet<u64> = Deserialize::deserialize_value(s.serialize_value()).unwrap();
        assert_eq!(round, s);
        assert_eq!(Option::<u32>::deserialize_value(Value::Null).unwrap(), None);
    }

    #[test]
    fn index_and_index_mut() {
        let mut v = Value::Object(vec![(
            "a".into(),
            Value::Array(vec![Value::Int(1), Value::Int(2)]),
        )]);
        assert_eq!(v["a"][1], Value::Int(2));
        assert_eq!(v["missing"], Value::Null);
        v["a"][0] = Value::Int(9);
        assert_eq!(v["a"][0], Value::Int(9));
        v["b"] = Value::Bool(true);
        assert_eq!(v["b"], Value::Bool(true));
    }
}
