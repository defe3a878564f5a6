//! Vendored, offline subset of `serde_json`: a strict JSON text layer
//! over the [`serde::Value`] interchange tree.
//!
//! Provides exactly the API surface this workspace uses: [`from_str`],
//! [`from_value`], [`to_string`], [`to_string_pretty`], [`Value`], the
//! [`json!`] macro, and the pull [`Reader`] that [`from_str`] is built
//! on (callers that decode large documents walk it directly, without a
//! [`Value`] tree). Parsing is strict RFC 8259 (with `\uXXXX` escapes
//! and surrogate pairs); printing matches serde_json's compact and
//! 2-space-indented pretty conventions.

use std::borrow::Cow;
use std::fmt;

pub use serde::Value;
use serde::{DeError, Deserialize, Serialize};

// The `json!` macro expands in downstream crates that may not depend on
// `serde` directly; route through this re-export.
#[doc(hidden)]
pub use serde as __serde;

/// Error type for both parse and conversion failures. One pointer wide,
/// so the reader's `Result`s stay small on the success path.
#[derive(Debug, Clone)]
pub struct Error(Box<ErrorImpl>);

#[derive(Debug, Clone)]
struct ErrorImpl {
    msg: String,
    /// Well-formed JSON of the wrong shape, not malformed text.
    data: bool,
}

impl Error {
    #[cold]
    fn new(msg: impl Into<String>) -> Self {
        Error(Box::new(ErrorImpl {
            msg: msg.into(),
            data: false,
        }))
    }

    #[cold]
    fn data(msg: impl Into<String>) -> Self {
        Error(Box::new(ErrorImpl {
            msg: msg.into(),
            data: true,
        }))
    }

    /// Whether the text was well-formed JSON of the wrong type or value
    /// (a data error), rather than malformed or over a [`ParseLimits`]
    /// cap (a syntax error).
    pub fn is_data(&self) -> bool {
        self.0.data
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.msg)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::data(e.to_string())
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
/// network bytes (the `qrel-serve` HTTP server) tighten both knobs and
/// walk the text with a [`Reader`].
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
    let value = parse_value_complete(s, ParseLimits::default())?;
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

/// A pull reader over JSON text: the one grammar behind [`from_str`].
///
/// The caller walks the text member by member: [`Reader::begin_object`]
/// then [`Reader::next_key`] until it returns `None`, or
/// [`Reader::begin_array`] then [`Reader::next_item`] until it returns
/// `false`, reading each value with a typed call ([`Reader::str`],
/// [`Reader::u32`], [`Reader::u64`]), as a small [`Value`]
/// ([`Reader::value`]), or not at all ([`Reader::skip`]). Strings that
/// hold no escape are borrowed from the input. [`ParseLimits`] hold as
/// in [`from_str`]: the byte cap at [`Reader::new`], the depth cap at
/// every container.
///
/// A typed call that meets a well-formed value of another type fails
/// with a *data* error ([`Error::is_data`]) and consumes nothing, so a
/// caller that wants syntax errors to win can clone the reader first,
/// and [`Reader::skip`] from the clone.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Current array/object nesting depth (see [`ParseLimits`]).
    depth: usize,
    max_depth: usize,
    /// Set when a container was just opened: its first member takes no
    /// separating comma.
    first: bool,
}

fn parse_value_complete(s: &str, limits: ParseLimits) -> Result<Value> {
    let mut r = Reader::new(s, limits)?;
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`; fails when `text` is longer
    /// than `limits.max_bytes`.
    pub fn new(text: &'a str, limits: ParseLimits) -> Result<Self> {
        if text.len() > limits.max_bytes {
            return Err(Error::new(format!(
                "input of {} bytes exceeds the {}-byte limit",
                text.len(),
                limits.max_bytes
            )));
        }
        Ok(Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            max_depth: limits.max_depth,
            first: false,
        })
    }

    /// Check that only whitespace follows the value just read.
    pub fn finish(mut self) -> Result<()> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Error::new(format!(
                "trailing characters at byte {}",
                self.pos
            )));
        }
        Ok(())
    }

    /// Open the object that comes next.
    #[inline]
    pub fn begin_object(&mut self) -> Result<()> {
        self.begin(b'{', "object")
    }

    /// The key of the object's next member, with the reader placed at
    /// its value; `None` once the object is closed.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>> {
        if !self.next_member(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// Open the array that comes next.
    #[inline]
    pub fn begin_array(&mut self) -> Result<()> {
        self.begin(b'[', "array")
    }

    /// Whether the array has another item, with the reader placed at it;
    /// `false` once the array is closed.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool> {
        self.next_member(b']')
    }

    /// The string that comes next, borrowed when it holds no escape.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.type_error("string"));
        }
        self.string()
    }

    /// The non-negative integer that comes next.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        let i = self.integer()?;
        u64::try_from(i).map_err(|_| Error::data(format!("integer {i} out of range for u64")))
    }

    /// The non-negative integer below 2³² that comes next.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        let i = self.integer()?;
        u32::try_from(i).map_err(|_| Error::data(format!("integer {i} out of range for u32")))
    }

    /// The value that comes next, as a tree (meant for small members).
    pub fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    let value = self.value()?;
                    pairs.push((key.into_owned(), value));
                }
                Ok(Value::Object(pairs))
            }
            _ => self.scalar(),
        }
    }

    /// Check the value that comes next against the grammar and the
    /// limits, and step over it without building anything.
    pub fn skip(&mut self) -> Result<()> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'[') => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
            _ => self.scalar().map(drop),
        }
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
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

    /// A literal or a number; the error for anything else.
    fn scalar(&mut self) -> Result<Value> {
        let keyword = |r: &mut Self, kw: &str, v: Value| {
            if r.eat_keyword(kw) {
                Ok(v)
            } else {
                Err(Error::new(format!("invalid token at byte {}", r.pos)))
            }
        };
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => keyword(self, "null", Value::Null),
            Some(b't') => keyword(self, "true", Value::Bool(true)),
            Some(b'f') => keyword(self, "false", Value::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                c as char, self.pos
            ))),
        }
    }

    /// Why the value that comes next is not a `want`: a data error when
    /// it is a well-formed value of another type, else the syntax error.
    fn type_error(&self, want: &str) -> Error {
        let got = match self.peek() {
            Some(b'"') => "string",
            Some(b'[') => "array",
            Some(b'{') => "object",
            Some(b'-' | b'0'..=b'9') => match self.clone().number() {
                Ok(Value::Int(_)) => "integer",
                Ok(_) => "number",
                Err(e) => return e,
            },
            Some(b'n' | b't' | b'f') => match self.clone().scalar() {
                Ok(Value::Null) => "null",
                Ok(_) => "bool",
                Err(e) => return e,
            },
            _ => return self.clone().scalar().expect_err("not a value start"),
        };
        Error::data(format!("expected {want}, got {got}"))
    }

    #[inline]
    fn integer(&mut self) -> Result<i128> {
        self.skip_ws();
        let mark = self.pos;
        // Fast path: up to 19 digits (always a `u64`) that no further
        // digit, fraction or exponent follows. Anything else goes
        // through the full number grammar.
        let mut v = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            if self.pos - mark == 19 {
                break;
            }
            v = v * 10 + u64::from(d - b'0');
            self.pos += 1;
        }
        if self.pos > mark && !matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
            return Ok(i128::from(v));
        }
        self.pos = mark;
        if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            if let Value::Int(i) = self.number()? {
                return Ok(i);
            }
            self.pos = mark;
        }
        Err(self.type_error("integer"))
    }

    #[inline]
    fn begin(&mut self, open: u8, want: &str) -> Result<()> {
        self.skip_ws();
        if self.peek() != Some(open) {
            return Err(self.type_error(want));
        }
        self.pos += 1;
        self.enter()?;
        self.first = true;
        Ok(())
    }

    /// Enter one nesting level, erroring past the depth limit. The
    /// matching `depth -= 1` is in [`Reader::next_member`].
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

    /// Step to the open container's next member, or past its `close`.
    #[inline]
    fn next_member(&mut self, close: u8) -> Result<bool> {
        let first = std::mem::replace(&mut self.first, false);
        self.skip_ws();
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            _ if first => Ok(true),
            _ => Err(Error::new(format!(
                "expected `,` or `{}` at byte {}",
                close as char, self.pos
            ))),
        }
    }

    /// The run of string text from the reader up to the next quote or
    /// backslash (or the end). Both are ASCII, so a run never splits a
    /// UTF-8 character.
    #[inline]
    fn run(&mut self) -> &'a str {
        let start = self.pos;
        let len = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(self.bytes.len() - start);
        self.pos += len;
        &self.text[start..self.pos]
    }

    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>> {
        self.expect(b'"')?;
        let text = self.run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(text));
        }
        self.escaped_string(text.to_string())
    }

    /// The rest of a string that holds an escape, after its first run
    /// `out`.
    fn escaped_string(&mut self, mut out: String) -> Result<Cow<'a, str>> {
        loop {
            let Some(b) = self.peek() else {
                return Err(Error::new("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(Cow::Owned(out));
            }
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
                        char::from_u32(cp).ok_or_else(|| Error::new("invalid surrogate pair"))?
                    } else {
                        char::from_u32(hi).ok_or_else(|| Error::new("invalid \\u escape"))?
                    };
                    out.push(c);
                }
                other => return Err(Error::new(format!("invalid escape `\\{}`", other as char))),
            }
            out.push_str(self.run());
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

    fn number(&mut self) -> Result<Value> {
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
        assert!(parse_value_complete(&ok, limits).is_ok());
        let too_deep = "[".repeat(11) + &"]".repeat(11);
        assert!(parse_value_complete(&too_deep, limits).is_err());
        // Depth is net nesting, not total containers: wide siblings at
        // the same level never trip the limit.
        let wide = format!("[{}]", vec!["[]"; 300].join(","));
        assert!(parse_value_complete(&wide, limits).is_ok());
    }

    #[test]
    fn size_limit_rejects_before_parsing() {
        let limits = ParseLimits {
            max_depth: 10,
            max_bytes: 16,
        };
        assert!(parse_value_complete("[1,2,3]", limits).is_ok());
        let big = format!("[{}]", vec!["0"; 100].join(","));
        let err = parse_value_complete(&big, limits).unwrap_err();
        assert!(err.to_string().contains("byte limit"), "{err}");
    }

    #[test]
    fn reader_walks_members_and_borrows_plain_strings() {
        let text = r#" {"a": [1, 2], "b\u0021": "x\ny", "c": "plain", "d": {"e": null}} "#;
        let mut r = Reader::new(text, ParseLimits::default()).unwrap();
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
        r.begin_array().unwrap();
        let mut items = Vec::new();
        while r.next_item().unwrap() {
            items.push(r.u32().unwrap());
        }
        assert_eq!(items, [1, 2]);
        assert_eq!(r.next_key().unwrap().as_deref(), Some("b!"));
        assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "x\ny"));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("c"));
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("plain")));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("d"));
        assert_eq!(r.value().unwrap(), json!({"e": null}));
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn reader_integers_follow_the_tree_grammar() {
        let read = |text: &str| Reader::new(text, ParseLimits::default()).unwrap().u64();
        assert_eq!(read("007").unwrap(), 7);
        assert_eq!(read("-0").unwrap(), 0);
        assert_eq!(read("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(read(" 42").unwrap(), 42);
        for data in [
            "-1",
            "18446744073709551616",
            "1.0",
            "1e2",
            "\"1\"",
            "null",
            "[1]",
        ] {
            let err = read(data).unwrap_err();
            assert!(err.is_data(), "{data}: {err}");
        }
        for syntax in ["-", "", "x", "nul"] {
            let err = read(syntax).unwrap_err();
            assert!(!err.is_data(), "{syntax}: {err}");
        }
        let mut r = Reader::new("4294967296", ParseLimits::default()).unwrap();
        assert_eq!(
            r.u32().unwrap_err().to_string(),
            "integer 4294967296 out of range for u32"
        );
    }

    #[test]
    fn a_type_mismatch_consumes_nothing_and_skip_checks_the_grammar() {
        let mut r = Reader::new(r#"["a", [1, {"b": tru}]]"#, ParseLimits::default()).unwrap();
        r.begin_array().unwrap();
        assert!(r.next_item().unwrap());
        let err = r.u32().unwrap_err();
        assert!(err.is_data());
        assert_eq!(err.to_string(), "expected integer, got string");
        assert_eq!(r.str().unwrap(), "a");
        assert!(r.next_item().unwrap());
        let err = r.skip().unwrap_err();
        assert!(!err.is_data(), "{err}");
        // Skipping enforces the depth cap like a full parse.
        let limits = ParseLimits {
            max_depth: 2,
            max_bytes: 64,
        };
        let mut r = Reader::new("[[[]]]", limits).unwrap();
        assert!(r.skip().unwrap_err().to_string().contains("nesting depth"));
        assert!(Reader::new(&" ".repeat(65), limits).is_err());
    }

    #[test]
    fn errors_keep_their_texts() {
        for (text, message) in [
            ("[1,]", "unexpected character `]` at byte 3"),
            ("[1 2]", "expected `,` or `]` at byte 3"),
            (r#"{"a" 1}"#, "expected `:` at byte 5"),
            (r#"{"a":1,}"#, "expected `\"` at byte 7"),
            (r#"{"a":1 "b":2}"#, "expected `,` or `}` at byte 7"),
            ("[1] x", "trailing characters at byte 4"),
            ("[", "unexpected end of input"),
        ] {
            assert_eq!(from_str::<Value>(text).unwrap_err().to_string(), message);
        }
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
