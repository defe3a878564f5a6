//! Vendored, offline subset of `serde_json`: a strict JSON text layer
//! over the [`serde::Value`] interchange tree.
//!
//! Provides exactly the API surface this workspace uses: [`from_str`],
//! [`from_value`], [`to_string`], [`to_string_pretty`], [`Value`] and
//! the [`json!`] macro. Parsing is strict RFC 8259 (with `\uXXXX`
//! escapes and surrogate pairs); printing matches serde_json's compact
//! and 2-space-indented pretty conventions.

use std::borrow::Cow;
use std::fmt;

pub use serde::Value;
use serde::{DeError, Deserialize, Serialize};

// The `json!` macro expands in downstream crates that may not depend on
// `serde` directly; route through this re-export.
#[doc(hidden)]
pub use serde as __serde;

/// Error type for both parse and conversion failures.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, Error>;

/// Default nesting-depth cap applied by [`from_str`]. Deep enough for
/// any legitimate spec (ours nest ≤ 8 levels), shallow enough that the
/// recursive-descent parser cannot be driven into a stack overflow by
/// adversarial input like `[[[[…]]]]`.
pub const DEFAULT_MAX_DEPTH: usize = 128;

/// Default total-size cap applied by [`from_str`]: 256 MiB. A guard
/// against pathological allocation, not a tuning knob — network-facing
/// callers should pass a much smaller [`ParseLimits::max_bytes`].
pub const DEFAULT_MAX_BYTES: usize = 256 * 1024 * 1024;

/// Resource limits enforced while parsing untrusted JSON text.
///
/// `from_str` applies [`ParseLimits::default`]; callers that face raw
/// network bytes (the `qrel-serve` HTTP server) tighten both knobs via
/// [`from_str_with_limits`].
#[derive(Debug, Clone, Copy)]
pub struct ParseLimits {
    /// Maximum array/object nesting depth before parsing aborts.
    pub max_depth: usize,
    /// Maximum input length in bytes; longer inputs are rejected before
    /// any parsing work happens.
    pub max_bytes: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_depth: DEFAULT_MAX_DEPTH,
            max_bytes: DEFAULT_MAX_BYTES,
        }
    }
}

/// Parse JSON text into any deserializable type.
///
/// Enforces [`ParseLimits::default`] — a [`DEFAULT_MAX_DEPTH`] nesting
/// cap and a [`DEFAULT_MAX_BYTES`] size cap — so even the trusting
/// entry point cannot be crashed by deeply nested or enormous input.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    from_str_with_limits(s, ParseLimits::default())
}

/// Parse JSON text under explicit [`ParseLimits`] — the entry point for
/// adversarial input (HTTP request bodies).
pub fn from_str_with_limits<T: Deserialize>(s: &str, limits: ParseLimits) -> Result<T> {
    let value = parse_value_complete(s, limits)?;
    Ok(T::deserialize_value(value)?)
}

/// Convert an already-parsed [`Value`] into a deserializable type,
/// moving its strings and vectors rather than copying them.
pub fn from_value<T: Deserialize>(v: Value) -> Result<T> {
    Ok(T::deserialize_value(v)?)
}

/// The value tree to print: borrowed when `x` already is a [`Value`].
fn value_of<T: Serialize + ?Sized>(x: &T) -> Cow<'_, Value> {
    x.as_value()
        .map_or_else(|| Cow::Owned(x.serialize_value()), Cow::Borrowed)
}

/// Serialize to compact JSON text.
#[allow(clippy::unnecessary_wraps)] // upstream-compatible signature
pub fn to_string<T: Serialize + ?Sized>(x: &T) -> Result<String> {
    let mut out = String::new();
    write_compact(&value_of(x), &mut out);
    Ok(out)
}

/// Serialize to 2-space-indented JSON text.
#[allow(clippy::unnecessary_wraps)] // upstream-compatible signature
pub fn to_string_pretty<T: Serialize + ?Sized>(x: &T) -> Result<String> {
    let mut out = String::new();
    write_pretty(&value_of(x), 0, &mut out);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Printing

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(x) => write_float(*x, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

fn push_indent(levels: usize, out: &mut String) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// serde_json always keeps a float distinguishable from an integer.
fn write_float(x: f64, out: &mut String) {
    if x.is_finite() {
        let s = format!("{x}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // serde_json emits null for non-finite floats.
        out.push_str("null");
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current array/object nesting depth (see [`ParseLimits`]).
    depth: usize,
    max_depth: usize,
}

fn parse_value_complete(s: &str, limits: ParseLimits) -> Result<Value> {
    if s.len() > limits.max_bytes {
        return Err(Error::new(format!(
            "input of {} bytes exceeds the {}-byte limit",
            s.len(),
            limits.max_bytes
        )));
    }
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
        max_depth: limits.max_depth,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::new(format!("invalid token at byte {}", self.pos)))
                }
            }
            Some(b't') => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::new(format!("invalid token at byte {}", self.pos)))
                }
            }
            Some(b'f') => {
                if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::new(format!("invalid token at byte {}", self.pos)))
                }
            }
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                c as char, self.pos
            ))),
        }
    }

    /// Enter one nesting level, erroring past the depth limit. The
    /// matching `depth -= 1` lives at each container's exit points.
    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(Error::new(format!(
                "nesting depth exceeds the limit of {}",
                self.max_depth
            )));
        }
        Ok(())
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(pairs));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole. Both
            // are ASCII, so a run never splits a UTF-8 character.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            if run > 0 {
                let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + run])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                out.push_str(text);
                self.pos += run;
            }
            let Some(b) = self.peek() else {
                return Err(Error::new("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::new("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !self.eat_keyword("\\u") {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::new("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                                    .ok_or_else(|| Error::new("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => unreachable!("a run stops only at a quote or a backslash"),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::new("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::new("invalid \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer digits accumulate in a `u64` while they fit.
        let digits = self.pos;
        let mut small = Some(0u64);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            small = small.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if let (false, true, Some(v)) = (is_float, self.pos > digits, small) {
            let v = i128::from(v);
            return Ok(Value::Int(if negative { -v } else { v }));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number `{text}` at byte {start}")))
    }
}

// ---------------------------------------------------------------------------
// json! macro

/// Build a [`Value`] from JSON-ish literal syntax. Supports the forms
/// this workspace uses: literals, arrays, objects with string keys, and
/// interpolated Rust expressions (which must be `Serialize`).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([ $($item:tt),* $(,)? ]) => {
        $crate::Value::Array(::std::vec![ $( $crate::json!($item) ),* ])
    };
    ({ $($key:literal : $val:tt),* $(,)? }) => {
        $crate::Value::Object(::std::vec![
            $( (::std::string::String::from($key), $crate::json!($val)) ),*
        ])
    };
    ($other:expr) => {
        $crate::__serde::Serialize::serialize_value(&$other)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_is_printed_in_place() {
        let v = json!({"a": [1, "x"]});
        assert!(matches!(value_of(&v), Cow::Borrowed(b) if std::ptr::eq(b, &v)));
        assert!(matches!(value_of(&&v), Cow::Borrowed(b) if std::ptr::eq(b, &v)));
        assert!(matches!(value_of(&7u32), Cow::Owned(Value::Int(7))));
    }

    #[test]
    fn roundtrip_basic_values() {
        for text in [
            "null",
            "true",
            "[1,2,3]",
            r#"{"a":1,"b":[true,"x"],"c":{"d":null}}"#,
            r#""esc \" \\ \n é""#,
            "-42",
            "3.5",
        ] {
            let v: Value = from_str(text).unwrap();
            let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
            assert_eq!(v, back);
        }
    }

    #[test]
    fn rejects_malformed() {
        for text in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(from_str::<Value>(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn integers_and_floats_distinguished() {
        assert_eq!(from_str::<Value>("7").unwrap(), Value::Int(7));
        assert_eq!(from_str::<Value>("7.0").unwrap(), Value::Float(7.0));
        assert_eq!(to_string(&Value::Float(2.0)).unwrap(), "2.0");
        assert_eq!(to_string(&Value::Int(2)).unwrap(), "2");
    }

    #[test]
    fn json_macro_forms() {
        assert_eq!(json!([]), Value::Array(vec![]));
        assert_eq!(
            json!([[0, 9]]),
            Value::Array(vec![Value::Array(vec![Value::Int(0), Value::Int(9)])])
        );
        let v = json!({"arity": 1, "tuples": [[0]]});
        assert_eq!(v["arity"], Value::Int(1));
        assert_eq!(v["tuples"][0][0], Value::Int(0));
        let x = 5u32;
        assert_eq!(json!(x), Value::Int(5));
    }

    #[test]
    fn pretty_formatting() {
        let v: Value = from_str(r#"{"a":[1,2],"b":{}}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(pretty, "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {}\n}");
    }

    #[test]
    fn string_runs_and_escapes_interleave() {
        let v: Value = from_str(r#""plain é run\"q\\b\u00e9\n end😀""#).unwrap();
        assert_eq!(v, Value::Str("plain é run\"q\\bé\n end😀".to_string()));
        assert_eq!(
            from_str::<Value>(r#""""#).unwrap(),
            Value::Str(String::new())
        );
        assert!(from_str::<Value>(r#""open run"#).is_err());
        assert!(from_str::<Value>(r#""bad \q escape""#).is_err());
    }

    #[test]
    fn integers_on_both_sides_of_u64() {
        let int = |text: &str| from_str::<Value>(text).unwrap();
        assert_eq!(int("18446744073709551615"), Value::Int(u64::MAX as i128));
        assert_eq!(int("18446744073709551616"), Value::Int(1 << 64));
        assert_eq!(
            int("-18446744073709551615"),
            Value::Int(-(u64::MAX as i128))
        );
        assert_eq!(int("-18446744073709551616"), Value::Int(-(1 << 64)));
        assert_eq!(int("-0"), Value::Int(0));
        assert_eq!(int("007"), Value::Int(7));
        assert_eq!(int("1e2"), Value::Float(100.0));
        assert_eq!(int(&"9".repeat(40)), Value::Float(1e40));
        assert!(from_str::<Value>("-").is_err());
        assert!(from_str::<Value>("[-]").is_err());
    }

    #[test]
    fn surrogate_pairs() {
        let v: Value = from_str(r#""😀""#).unwrap();
        assert_eq!(v, Value::Str("😀".to_string()));
    }

    #[test]
    fn deep_array_nesting_is_rejected_not_a_crash() {
        // 100k levels would overflow the stack without the depth guard.
        let depth = 100_000;
        let text = "[".repeat(depth) + &"]".repeat(depth);
        let err = from_str::<Value>(&text).unwrap_err();
        assert!(err.to_string().contains("nesting depth"), "{err}");
    }

    #[test]
    fn deep_object_nesting_is_rejected_not_a_crash() {
        let depth = 100_000;
        let text = "{\"a\":".repeat(depth) + "null" + &"}".repeat(depth);
        let err = from_str::<Value>(&text).unwrap_err();
        assert!(err.to_string().contains("nesting depth"), "{err}");
    }

    #[test]
    fn nesting_exactly_at_the_limit_parses() {
        let limits = ParseLimits {
            max_depth: 10,
            max_bytes: 1024,
        };
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(from_str_with_limits::<Value>(&ok, limits).is_ok());
        let too_deep = "[".repeat(11) + &"]".repeat(11);
        assert!(from_str_with_limits::<Value>(&too_deep, limits).is_err());
        // Depth is net nesting, not total containers: wide siblings at
        // the same level never trip the limit.
        let wide = format!("[{}]", vec!["[]"; 300].join(","));
        assert!(from_str_with_limits::<Value>(&wide, limits).is_ok());
    }

    #[test]
    fn size_limit_rejects_before_parsing() {
        let limits = ParseLimits {
            max_depth: 10,
            max_bytes: 16,
        };
        assert!(from_str_with_limits::<Value>("[1,2,3]", limits).is_ok());
        let big = format!("[{}]", vec!["0"; 100].join(","));
        let err = from_str_with_limits::<Value>(&big, limits).unwrap_err();
        assert!(err.to_string().contains("byte limit"), "{err}");
    }

    #[test]
    fn realistic_specs_fit_default_limits() {
        // The shipped data files must stay parseable under from_str's
        // built-in caps.
        let nested = r#"{"database":{"vocab":{"symbols":[{"name":"S","arity":1}]},
            "universe":{"names":["a"]},"relations":[{"arity":1,"tuples":[[0]]}]}}"#;
        assert!(from_str::<Value>(nested).is_ok());
    }
}
