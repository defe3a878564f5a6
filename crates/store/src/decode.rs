//! The one decoder from spec text to a model.
//!
//! [`DecodedSpec`] reads an [`UnreliableDatabaseSpec`]-shaped JSON
//! object straight off a [`Reader`]: the observed [`Database`] is built
//! as its members arrive, in any key order, and the error rows are kept
//! in a [`FactRows`] arena (names and `μ` as spans of one string, tuples
//! as spans of one `Vec<u32>`). No [`serde::Value`] tree and no
//! per-row `String` or `Vec` is made on the way. The CLI, `serve
//! --preload` and inline `/v1/solve` specs all decode here, and fact
//! batches read their rows with the same [`FactRows`] code.
//!
//! It accepts and rejects what `serde_json::from_str::<UnreliableDatabaseSpec>`
//! does: unknown keys are skipped, a repeated key's last value wins and
//! an earlier one is never checked, a missing `model` or `errors` takes
//! its default, and the database passes the same checks as its
//! deserialization shadows ([`Vocabulary::from_symbols`],
//! [`Universe::try_from_names`], [`Relation::try_from_set`],
//! [`Database::from_parts`]). Malformed text beats a wrong shape, as
//! when a whole tree is parsed first. The rows meet the
//! [`FactRule`](qrel_prob::FactRule) in [`DecodedSpec::build`], through
//! [`UnreliableDatabase::from_rows`].
//!
//! [`UnreliableDatabaseSpec`]: qrel_prob::UnreliableDatabaseSpec

use qrel_db::{Database, Relation, Universe};
use qrel_logic::{RelationSymbol, Vocabulary};
use qrel_prob::{ErrorModel, FactRow, ModelError, UnreliableDatabase};
use serde_json::{ParseLimits, Reader};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

/// Why JSON text did not decode.
#[derive(Debug, Clone)]
pub enum DecodeError {
    /// Malformed JSON, or text over a [`ParseLimits`] cap.
    Json(serde_json::Error),
    /// Well-formed JSON of the wrong shape: a wrong type, a missing or
    /// unknown field, or a database that fails its checks. The message
    /// leads with the path to the offending member.
    Spec(String),
}

impl DecodeError {
    /// Lead a shape failure's message with one more path segment.
    fn in_context(self, segment: &str) -> Self {
        match self {
            DecodeError::Spec(m) => DecodeError::Spec(format!("{segment}: {m}")),
            json => json,
        }
    }
}

impl From<serde_json::Error> for DecodeError {
    fn from(e: serde_json::Error) -> Self {
        if e.is_data() {
            DecodeError::Spec(e.to_string())
        } else {
            DecodeError::Json(e)
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Json(e) => write!(f, "{e}"),
            DecodeError::Spec(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for DecodeError {}

type Decoded<T> = Result<T, DecodeError>;

/// One member's value, read by `read`. A shape failure is kept as the
/// member's `Err` and its value stepped over, so a later duplicate key
/// can replace it and malformed text further on still wins; malformed
/// text fails at once.
pub fn member<'a, T>(
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Decoded<T>,
) -> Result<Result<T, String>, serde_json::Error> {
    let mark = r.clone();
    match read(r) {
        Ok(v) => Ok(Ok(v)),
        Err(DecodeError::Json(e)) => Err(e),
        Err(DecodeError::Spec(m)) => {
            *r = mark;
            r.skip()?;
            Ok(Err(m))
        }
    }
}

/// Decode a whole text with `read` under `limits`. Malformed JSON
/// anywhere in the text wins over a wrong shape, as when the text is
/// parsed into a tree first.
pub fn decode_text<T>(
    text: &str,
    limits: ParseLimits,
    read: impl FnOnce(&mut Reader<'_>) -> Decoded<T>,
) -> Decoded<T> {
    let mut r = Reader::new(text, limits)?;
    let outcome = member(&mut r, read)?;
    r.finish()?;
    outcome.map_err(DecodeError::Spec)
}

/// A member slot's outcome once the object is read: absent, its value,
/// or its kept failure under the member's name.
fn field<T>(slot: Option<Result<T, String>>, name: &str) -> Decoded<Option<T>> {
    slot.transpose()
        .map_err(|m| DecodeError::Spec(format!("{name}: {m}")))
}

fn required<T>(slot: Option<Result<T, String>>, name: &str) -> Decoded<T> {
    field(slot, name)?.ok_or_else(|| DecodeError::Spec(format!("missing field `{name}`")))
}

/// Read the object that comes next, handing each key to `on_key`, which
/// reads or skips its value.
fn object<'a>(
    r: &mut Reader<'a>,
    mut on_key: impl FnMut(&str, &mut Reader<'a>) -> Decoded<()>,
) -> Decoded<()> {
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        on_key(&key, r)?;
    }
    Ok(())
}

/// Read the array that comes next, handing each item to `item`; the
/// first failing item fails the array under its index.
fn array<'a>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Decoded<()>,
) -> Decoded<()> {
    r.begin_array()?;
    let mut i = 0usize;
    while r.next_item()? {
        item(r).map_err(|e| e.in_context(&format!("[{i}]")))?;
        i += 1;
    }
    Ok(())
}

/// Read the array that comes next into a `Vec`, one `item` each.
fn list<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<Vec<T>> {
    let mut out = Vec::new();
    array(r, |r| {
        out.push(item(r)?);
        Ok(())
    })?;
    Ok(out)
}

fn string(r: &mut Reader<'_>) -> Decoded<String> {
    Ok(r.str()?.into_owned())
}

fn usize_of(r: &mut Reader<'_>) -> Decoded<usize> {
    let n = r.u64()?;
    usize::try_from(n).map_err(|_| DecodeError::Spec(format!("integer {n} out of range for usize")))
}

/// Which members a fact row takes, and what becomes of the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowShape {
    /// A spec's error assignment: `relation`, `tuple` and `mu`, all
    /// required; other keys are skipped.
    SpecError,
    /// A fact-batch upsert: `relation` and `tuple` required, `present`
    /// (default `true`) and `mu` (default `"0"`) optional; any other key
    /// is refused.
    Upsert,
    /// A fact-batch delete: `relation` and `tuple` only.
    Delete,
}

#[derive(Debug, Clone)]
struct RowSpans {
    relation: Range<usize>,
    tuple: Range<usize>,
    present: Option<bool>,
    mu: Option<Range<usize>>,
}

/// Fact rows read from JSON into one arena: relation names and `μ`
/// strings as spans of one string, tuples as spans of one `Vec<u32>`.
#[derive(Debug, Clone, Default)]
pub struct FactRows {
    text: String,
    elements: Vec<u32>,
    rows: Vec<RowSpans>,
}

impl FactRows {
    /// Read the array of `shape` rows that comes next.
    pub fn read(r: &mut Reader<'_>, shape: RowShape) -> Decoded<FactRows> {
        let mut rows = FactRows::default();
        array(r, |r| rows.read_row(r, shape))?;
        Ok(rows)
    }

    fn push_text(&mut self, r: &mut Reader<'_>) -> Decoded<Range<usize>> {
        let start = self.text.len();
        self.text.push_str(&r.str()?);
        Ok(start..self.text.len())
    }

    fn push_tuple(&mut self, r: &mut Reader<'_>) -> Decoded<Range<usize>> {
        let start = self.elements.len();
        array(r, |r| {
            self.elements.push(r.u32()?);
            Ok(())
        })?;
        Ok(start..self.elements.len())
    }

    fn read_row(&mut self, r: &mut Reader<'_>, shape: RowShape) -> Decoded<()> {
        let (mut relation, mut tuple, mut present, mut mu) = (None, None, None, None);
        let takes_state = shape != RowShape::Delete;
        object(r, |key, r| {
            match key {
                "relation" => relation = Some(member(r, |r| self.push_text(r))?),
                "tuple" => tuple = Some(member(r, |r| self.push_tuple(r))?),
                "mu" if takes_state => mu = Some(member(r, |r| self.push_text(r))?),
                "present" if shape == RowShape::Upsert => {
                    present = Some(member(r, |r| match r.value()? {
                        serde::Value::Bool(b) => Ok(b),
                        other => Err(DecodeError::Spec(format!(
                            "expected bool, got {}",
                            other.kind()
                        ))),
                    })?)
                }
                _ if shape == RowShape::SpecError => r.skip()?,
                _ => return Err(DecodeError::Spec(format!("unknown field {key:?}"))),
            }
            Ok(())
        })?;
        let relation = required(relation, "relation")?;
        let tuple = required(tuple, "tuple")?;
        let present = field(present, "present")?;
        let mu = match shape {
            RowShape::SpecError => Some(required(mu, "mu")?),
            _ => field(mu, "mu")?,
        };
        self.rows.push(RowSpans {
            relation,
            tuple,
            present: (shape == RowShape::Upsert).then(|| present.unwrap_or(true)),
            mu,
        });
        Ok(())
    }

    /// The rows in order. An upsert row's `present` is `Some`; a spec
    /// row's is `None` (it keeps the observed value). A row without `μ`
    /// reads `"0"`.
    pub fn iter(&self) -> impl Iterator<Item = FactRow<'_>> + '_ {
        self.rows.iter().map(|row| FactRow {
            relation: &self.text[row.relation.clone()],
            tuple: &self.elements[row.tuple.clone()],
            present: row.present,
            mu: row.mu.clone().map_or("0", |m| &self.text[m]),
        })
    }
}

/// An unreliable-database spec decoded straight from JSON text: the
/// observed database, the model name, and the error rows, not yet put
/// through the fact rule.
#[derive(Debug, Clone)]
pub struct DecodedSpec {
    database: Database,
    model: String,
    errors: FactRows,
}

impl DecodedSpec {
    /// Decode a whole text that holds one spec, under
    /// [`ParseLimits::default`].
    pub fn parse(text: &str) -> Decoded<DecodedSpec> {
        decode_text(text, ParseLimits::default(), read_spec)
    }

    /// Decode the spec object that comes next. On a
    /// [`DecodeError::Spec`] the reader has still stepped over the whole
    /// value, having checked it is well-formed.
    pub fn read(r: &mut Reader<'_>) -> Decoded<DecodedSpec> {
        member(r, read_spec)?.map_err(DecodeError::Spec)
    }

    /// Build `𝔇`: the observed database plus one fact-rule-checked row
    /// per error assignment (a later one for the same fact wins).
    pub fn build(&self) -> Result<UnreliableDatabase, ModelError> {
        let model = ErrorModel::parse(&self.model)?;
        UnreliableDatabase::from_rows(self.database.clone(), model, self.errors.iter())
    }
}

fn read_spec(r: &mut Reader<'_>) -> Decoded<DecodedSpec> {
    let (mut database, mut model, mut errors) = (None, None, None);
    object(r, |key, r| {
        match key {
            "database" => database = Some(member(r, read_database)?),
            "model" => model = Some(member(r, string)?),
            "errors" => errors = Some(member(r, |r| FactRows::read(r, RowShape::SpecError))?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(DecodedSpec {
        database: required(database, "database")?,
        model: field(model, "model")?.unwrap_or_else(|| ErrorModel::Full.name().to_string()),
        errors: field(errors, "errors")?.unwrap_or_default(),
    })
}

fn read_database(r: &mut Reader<'_>) -> Decoded<Database> {
    let (mut vocab, mut universe, mut relations) = (None, None, None);
    object(r, |key, r| {
        match key {
            "vocab" => vocab = Some(member(r, read_vocab)?),
            "universe" => universe = Some(member(r, read_universe)?),
            "relations" => relations = Some(member(r, |r| list(r, read_relation))?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Database::from_parts(
        required(vocab, "vocab")?,
        required(universe, "universe")?,
        required(relations, "relations")?,
    )
    .map_err(DecodeError::Spec)
}

fn read_vocab(r: &mut Reader<'_>) -> Decoded<Vocabulary> {
    let mut symbols = None;
    object(r, |key, r| {
        match key {
            "symbols" => symbols = Some(member(r, |r| list(r, read_symbol))?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Vocabulary::from_symbols(required(symbols, "symbols")?).map_err(DecodeError::Spec)
}

fn read_symbol(r: &mut Reader<'_>) -> Decoded<RelationSymbol> {
    let (mut name, mut arity) = (None, None);
    object(r, |key, r| {
        match key {
            "name" => name = Some(member(r, string)?),
            "arity" => arity = Some(member(r, usize_of)?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(RelationSymbol::new(
        required(name, "name")?,
        required(arity, "arity")?,
    ))
}

fn read_universe(r: &mut Reader<'_>) -> Decoded<Universe> {
    let mut names = None;
    object(r, |key, r| {
        match key {
            "names" => names = Some(member(r, |r| list(r, string))?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Universe::try_from_names(required(names, "names")?).map_err(DecodeError::Spec)
}

fn read_relation(r: &mut Reader<'_>) -> Decoded<Relation> {
    let (mut arity, mut tuples) = (None, None);
    object(r, |key, r| {
        match key {
            "arity" => arity = Some(member(r, usize_of)?),
            "tuples" => {
                tuples = Some(member(r, |r| {
                    let tuples = list(r, |r| list(r, |r| Ok(r.u32()?)))?;
                    Ok(tuples.into_iter().collect::<BTreeSet<_>>())
                })?)
            }
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Relation::try_from_set(required(arity, "arity")?, required(tuples, "tuples")?)
        .map_err(DecodeError::Spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db_hash_of;
    use crate::hash::tests::{random_spec, MUS};
    use proptest::prelude::*;
    use qrel_prob::UnreliableDatabaseSpec;
    use serde::Value;

    /// The referee: the tree path every spec took before this decoder.
    fn via_tree(text: &str) -> Result<UnreliableDatabase, String> {
        let spec: UnreliableDatabaseSpec =
            serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
        spec.build().map_err(|e| format!("invalid spec: {e}"))
    }

    fn via_decoder(text: &str) -> Result<UnreliableDatabase, String> {
        let spec = DecodedSpec::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
        spec.build().map_err(|e| format!("invalid spec: {e}"))
    }

    /// Fact for fact: the same observed database, model and `μ` vector,
    /// and so the same db-hash.
    fn assert_same_model(a: &UnreliableDatabase, b: &UnreliableDatabase) {
        assert_eq!(a.observed(), b.observed());
        assert_eq!(a.model(), b.model());
        assert_eq!(a.indexer().total(), b.indexer().total());
        for i in 0..a.indexer().total() {
            assert_eq!(a.mu_at(i), b.mu_at(i), "μ of fact {i}");
        }
        assert_eq!(db_hash_of(a), db_hash_of(b));
    }

    /// Every object's keys in reverse order, all the way down.
    fn reversed(v: Value) -> Value {
        match v {
            Value::Object(pairs) => Value::Object(
                pairs
                    .into_iter()
                    .rev()
                    .map(|(k, v)| (k, reversed(v)))
                    .collect(),
            ),
            Value::Array(items) => Value::Array(items.into_iter().map(reversed).collect()),
            other => other,
        }
    }

    proptest! {
        #[test]
        fn decoder_builds_the_model_the_tree_path_builds(
            n in 1u32..6,
            observed in proptest::collection::vec((any::<bool>(), 0u32..6, 0u32..6), 0..12),
            errors in proptest::collection::vec(
                (any::<bool>(), 0u32..6, 0u32..6, 0usize..MUS.len()), 0..16),
            positive_only in any::<bool>(),
        ) {
            let ud = random_spec(n, &observed, &errors, positive_only).build().unwrap();
            let spec = UnreliableDatabaseSpec::from_model(&ud);
            let compact = serde_json::to_string(&spec).unwrap();
            let shuffled =
                serde_json::to_string_pretty(&reversed(serde_json::from_str(&compact).unwrap()))
                    .unwrap();
            for text in [&compact, &shuffled] {
                let reference = via_tree(text).unwrap();
                assert_same_model(&via_decoder(text).unwrap(), &reference);
                assert_same_model(&reference, &ud);
            }
        }
    }

    const SPEC: &str = r#"{"database":{"vocab":{"symbols":[{"name":"E","arity":2},{"name":"S","arity":1}]},
        "universe":{"names":["a","b","c"]},
        "relations":[{"arity":2,"tuples":[[0,1],[1,2]]},{"arity":1,"tuples":[[2]]}]},
        "model":"full",
        "errors":[{"relation":"E","tuple":[0,1],"mu":"1/3"},{"relation":"S","tuple":[0],"mu":"1/4"}]}"#;

    #[test]
    fn errors_before_database_and_escapes_decode_to_the_same_model() {
        let plain = via_tree(SPEC).unwrap();
        let errors_first = r#"{"errors":[{"mu":"1/3","tuple":[0,1],"relation":"E"},
            {"relation":"S","tuple":[0],"mu":"1/4"}],
            "model":"full",
            "database":{"relations":[{"tuples":[[0,1],[1,2]],"arity":2},{"arity":1,"tuples":[[2]]}],
                "universe":{"names":["a","b","c"]},
                "vocab":{"symbols":[{"arity":2,"name":"E"},{"name":"S","arity":1}]}}}"#;
        let escaped = SPEC
            .replace(r#""mu":"1/3""#, r#""mu":"1\/3""#)
            .replace(r#""relation":"E""#, r#""relation":"\u0045""#)
            .replace(r#""names":["a""#, r#""names":["\u0061""#);
        assert_ne!(escaped, SPEC);
        for text in [SPEC, errors_first, escaped.as_str()] {
            assert_same_model(&via_decoder(text).unwrap(), &plain);
            assert_same_model(&via_tree(text).unwrap(), &plain);
        }
    }

    #[test]
    fn repeated_keys_resolve_last_wins_and_unknown_keys_are_skipped() {
        // The earlier value is never checked, even when it is malformed
        // as a spec; unknown members may hold anything well-formed.
        let text = SPEC
            .replace(
                r#""model":"full""#,
                r#""model":7,"model":"full","extra":{"x":[1,{}]}"#,
            )
            .replace(
                r#"{"arity":1,"tuples":[[2]]}"#,
                r#"{"arity":"x","tuples":[[2,2]],"arity":1,"tuples":[[2]]}"#,
            );
        assert_same_model(&via_decoder(&text).unwrap(), &via_tree(SPEC).unwrap());
        assert_same_model(&via_tree(&text).unwrap(), &via_tree(SPEC).unwrap());
        // The later value decides failure too.
        let text = SPEC.replace(r#""model":"full""#, r#""model":"full","model":[]"#);
        assert!(via_decoder(&text).is_err());
        assert!(via_tree(&text).is_err());
    }

    #[test]
    fn shape_errors_keep_the_tree_paths_path_and_message() {
        for (edit, message) in [
            (
                (r#""tuple":[0],"mu":"1/4""#, r#""tuple":"x","mu":"1/4""#),
                "errors: [1]: tuple: expected array, got string",
            ),
            (
                (r#""tuples":[[0,1],[1,2]]"#, r#""tuples":[[0,1,1]]"#),
                "database: relations: [0]: tuple of length 3 in a relation of arity 2",
            ),
            (
                (r#""names":["a","b","c"]"#, r#""names":["a","b","a"]"#),
                "database: universe: duplicate element names in universe",
            ),
            (
                (r#""tuples":[[2]]"#, r#""tuples":[[7]]"#),
                "database: tuple in S mentions element 7 outside the universe of size 3",
            ),
            (
                (r#""tuple":[0],"mu":"1/4""#, r#""tuple":[-1],"mu":"1/4""#),
                "errors: [1]: tuple: [0]: integer -1 out of range for u32",
            ),
            (
                (r#""model":"full""#, r#""model":null"#),
                "model: expected string, got null",
            ),
        ] {
            let text = SPEC.replace(edit.0, edit.1);
            assert_ne!(text, SPEC, "{edit:?} does not apply");
            let tree = serde_json::from_str::<UnreliableDatabaseSpec>(&text).unwrap_err();
            assert_eq!(tree.to_string(), message);
            match DecodedSpec::parse(&text) {
                Err(DecodeError::Spec(m)) => assert_eq!(m, message),
                other => panic!("{edit:?}: {other:?}"),
            }
        }
        match DecodedSpec::parse(r#"{"errors":[]}"#) {
            Err(DecodeError::Spec(m)) => assert_eq!(m, "missing field `database`"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_text_beats_a_wrong_shape() {
        // A shape error early, then a syntax error late: the tree path
        // never got to the shape, and neither does the decoder.
        let text = SPEC.replace(r#""tuple":[0,1]"#, r#""tuple":"x""#) + ",";
        assert!(matches!(
            DecodedSpec::parse(&text),
            Err(DecodeError::Json(_))
        ));
        let text = SPEC.replace(r#""model":"full""#, r#""model":7,"x":[1,]"#);
        assert!(matches!(
            DecodedSpec::parse(&text),
            Err(DecodeError::Json(_))
        ));
    }

    #[test]
    fn fact_rows_read_batch_shapes() {
        let read = |text: &str, shape| {
            decode_text(text, ParseLimits::default(), |r| FactRows::read(r, shape))
        };
        let rows = read(
            r#"[{"relation":"E","tuple":[0,1]},{"tuple":[2],"mu":"1/2","present":false,"relation":"S"}]"#,
            RowShape::Upsert,
        )
        .unwrap();
        let got: Vec<_> = rows
            .iter()
            .map(|r| (r.relation, r.tuple.to_vec(), r.present, r.mu))
            .collect();
        assert_eq!(
            got,
            vec![
                ("E", vec![0, 1], Some(true), "0"),
                ("S", vec![2], Some(false), "1/2")
            ]
        );
        let rows = read(r#"[{"relation":"E","tuple":[0,1]}]"#, RowShape::Delete).unwrap();
        assert_eq!(rows.iter().next().unwrap().present, None);
        for (text, shape) in [
            (
                r#"[{"relation":"E","tuple":[0],"mu":"1/2"}]"#,
                RowShape::Delete,
            ),
            (
                r#"[{"relation":"E","tuple":[0],"surprise":1}]"#,
                RowShape::Upsert,
            ),
            (
                r#"[{"relation":"E","tuple":[0],"present":1}]"#,
                RowShape::Upsert,
            ),
            (r#"[{"relation":"E"}]"#, RowShape::Upsert),
            (r#"[{"relation":"E","tuple":[0]}]"#, RowShape::SpecError),
        ] {
            assert!(
                matches!(read(text, shape), Err(DecodeError::Spec(_))),
                "{text} as {shape:?}"
            );
        }
    }
}
