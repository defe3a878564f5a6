//! Vendored `#[derive(Serialize, Deserialize)]` macros for the offline
//! serde stub.
//!
//! Built directly on the `proc_macro` token API (no `syn`/`quote`): the
//! item is parsed with a small hand-rolled cursor, and the impl is
//! emitted as a source string re-parsed into a `TokenStream`. Supported
//! shapes are exactly the ones this workspace uses:
//!
//! - structs with named fields;
//! - enums with unit, newtype, tuple and struct variants, serialized
//!   with serde's externally-tagged convention (`"Variant"` for unit,
//!   `{"Variant": content}` otherwise);
//! - container attributes `#[serde(from = "T")]` and
//!   `#[serde(try_from = "T")]` (with `TryFrom::Error: Display`);
//! - field attributes `#[serde(default)]` and
//!   `#[serde(default = "path")]`.
//!
//! Anything else (generics, tuple structs, renames, skips) is rejected
//! with a `compile_error!` so misuse fails loudly at build time.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let source = match parse_item(input) {
        Ok(item) => match mode {
            Mode::Serialize => gen_serialize(&item),
            Mode::Deserialize => gen_deserialize(&item),
        },
        Err(msg) => format!("compile_error!({:?});", msg),
    };
    source
        .parse()
        .unwrap_or_else(|e| panic!("serde_derive produced invalid Rust: {e}\n{source}"))
}

// ---------------------------------------------------------------------------
// Parsed item model

struct Item {
    name: String,
    from: Option<String>,
    try_from: Option<String>,
    kind: Kind,
}

enum Kind {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
    default: Option<FieldDefault>,
}

enum FieldDefault {
    /// `#[serde(default)]` — `Default::default()`.
    Std,
    /// `#[serde(default = "path")]` — call `path()`.
    Path(String),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Shape {
    Unit,
    /// Tuple variant with this many fields (1 = serde newtype variant).
    Tuple(usize),
    Struct(Vec<Field>),
}

// ---------------------------------------------------------------------------
// Token-level parsing

struct Cursor {
    toks: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Self {
        Cursor {
            toks: stream.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<TokenTree> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, ch: char) -> bool {
        if let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() == ch {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if let Some(TokenTree::Ident(id)) = self.peek() {
            if id.to_string() == word {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    /// Consume a leading attribute (`#[...]` / `#![...]`), returning the
    /// serde metas it contains (empty for non-serde attributes).
    fn eat_attr(&mut self) -> Option<Vec<(String, Option<String>)>> {
        if !matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            return None;
        }
        self.pos += 1;
        self.eat_punct('!');
        let Some(TokenTree::Group(g)) = self.bump() else {
            return Some(Vec::new());
        };
        let mut inner = Cursor::new(g.stream());
        if inner.eat_ident("serde") {
            if let Some(TokenTree::Group(args)) = inner.peek() {
                if args.delimiter() == Delimiter::Parenthesis {
                    return Some(parse_metas(args.stream()));
                }
            }
        }
        Some(Vec::new())
    }

    /// Skip `pub` / `pub(crate)` / `pub(in ...)`.
    fn eat_visibility(&mut self) {
        if self.eat_ident("pub") {
            if let Some(TokenTree::Group(g)) = self.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    self.pos += 1;
                }
            }
        }
    }
}

/// Parse `key`, `key = "value"` pairs separated by commas.
fn parse_metas(stream: TokenStream) -> Vec<(String, Option<String>)> {
    let mut cur = Cursor::new(stream);
    let mut metas = Vec::new();
    while let Some(tok) = cur.bump() {
        let TokenTree::Ident(key) = tok else { continue };
        let mut value = None;
        if cur.eat_punct('=') {
            if let Some(TokenTree::Literal(lit)) = cur.bump() {
                value = Some(strip_quotes(&lit.to_string()));
            }
        }
        metas.push((key.to_string(), value));
        cur.eat_punct(',');
    }
    metas
}

fn strip_quotes(lit: &str) -> String {
    lit.trim_matches('"').to_string()
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut cur = Cursor::new(input);
    let mut from = None;
    let mut try_from = None;

    // Leading attributes and visibility.
    loop {
        if let Some(metas) = cur.eat_attr() {
            for (key, value) in metas {
                match (key.as_str(), value) {
                    ("from", Some(v)) => from = Some(v),
                    ("try_from", Some(v)) => try_from = Some(v),
                    ("default", _) => {}
                    (other, _) => {
                        return Err(format!(
                            "serde stub: unsupported container attribute `{other}`"
                        ))
                    }
                }
            }
            continue;
        }
        if matches!(cur.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            cur.eat_visibility();
            continue;
        }
        break;
    }

    let is_enum = if cur.eat_ident("struct") {
        false
    } else if cur.eat_ident("enum") {
        true
    } else {
        return Err("serde stub: expected `struct` or `enum`".to_string());
    };

    let name = match cur.bump() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("serde stub: expected type name".to_string()),
    };

    if matches!(cur.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!("serde stub: generic type `{name}` not supported"));
    }

    let body = match cur.bump() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis && !is_enum => {
            return Err(format!("serde stub: tuple struct `{name}` not supported"));
        }
        _ => return Err(format!("serde stub: unit struct `{name}` not supported")),
    };

    let kind = if is_enum {
        Kind::Enum(parse_variants(body)?)
    } else {
        Kind::Struct(parse_named_fields(body)?)
    };

    Ok(Item {
        name,
        from,
        try_from,
        kind,
    })
}

/// Split a token sequence at top-level commas (commas inside `<...>`
/// still count as nested: angle brackets are not token groups, so track
/// their depth explicitly).
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut segments = vec![Vec::new()];
    let mut angle_depth = 0i32;
    for tok in stream {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    segments.push(Vec::new());
                    continue;
                }
                _ => {}
            }
        }
        segments.last_mut().unwrap().push(tok);
    }
    segments.retain(|seg| !seg.is_empty());
    segments
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    for segment in split_top_level(stream) {
        let mut cur = Cursor {
            toks: segment,
            pos: 0,
        };
        let mut default = None;
        while let Some(metas) = cur.eat_attr() {
            for (key, value) in metas {
                match (key.as_str(), value) {
                    ("default", None) => default = Some(FieldDefault::Std),
                    ("default", Some(path)) => default = Some(FieldDefault::Path(path)),
                    (other, _) => {
                        return Err(format!("serde stub: unsupported field attribute `{other}`"))
                    }
                }
            }
        }
        cur.eat_visibility();
        let name = match cur.bump() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => return Err("serde stub: expected field name".to_string()),
        };
        if !cur.eat_punct(':') {
            return Err(format!("serde stub: expected `:` after field `{name}`"));
        }
        fields.push(Field { name, default });
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    for segment in split_top_level(stream) {
        let mut cur = Cursor {
            toks: segment,
            pos: 0,
        };
        while cur.eat_attr().is_some() {}
        let name = match cur.bump() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => return Err("serde stub: expected variant name".to_string()),
        };
        let shape = match cur.bump() {
            None => Shape::Unit,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(split_top_level(g.stream()).len())
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Struct(parse_named_fields(g.stream())?)
            }
            Some(other) => {
                return Err(format!(
                    "serde stub: unsupported token `{other}` in variant `{name}`"
                ))
            }
        };
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.kind {
        Kind::Struct(fields) => {
            let pairs = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from({n:?}), \
                         ::serde::Serialize::serialize_value(&self.{n})),",
                        n = f.name
                    )
                })
                .collect::<String>();
            format!("::serde::Value::Object(::std::vec![{pairs}])")
        }
        Kind::Enum(variants) => {
            let arms = variants
                .iter()
                .map(|v| gen_serialize_arm(name, v))
                .collect::<String>();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn serialize_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_serialize_arm(name: &str, v: &Variant) -> String {
    let vn = &v.name;
    let tag = format!("::std::string::String::from({vn:?})");
    match &v.shape {
        Shape::Unit => format!("{name}::{vn} => ::serde::Value::Str({tag}),"),
        Shape::Tuple(1) => format!(
            "{name}::{vn}(f0) => ::serde::Value::Object(::std::vec![\
             ({tag}, ::serde::Serialize::serialize_value(f0))]),"
        ),
        Shape::Tuple(n) => {
            let binders = (0..*n).map(|i| format!("f{i},")).collect::<String>();
            let items = (0..*n)
                .map(|i| format!("::serde::Serialize::serialize_value(f{i}),"))
                .collect::<String>();
            format!(
                "{name}::{vn}({binders}) => ::serde::Value::Object(::std::vec![\
                 ({tag}, ::serde::Value::Array(::std::vec![{items}]))]),"
            )
        }
        Shape::Struct(fields) => {
            let binders = fields
                .iter()
                .map(|f| format!("{},", f.name))
                .collect::<String>();
            let pairs = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from({n:?}), \
                         ::serde::Serialize::serialize_value({n})),",
                        n = f.name
                    )
                })
                .collect::<String>();
            format!(
                "{name}::{vn} {{ {binders} }} => ::serde::Value::Object(::std::vec![\
                 ({tag}, ::serde::Value::Object(::std::vec![{pairs}]))]),"
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    // `from` / `try_from` route through the shadow type's Deserialize.
    if let Some(raw) = &item.from {
        return format!(
            "#[automatically_derived]\n\
             impl ::serde::Deserialize for {name} {{\n\
                 fn deserialize_value(v: ::serde::Value) \
                     -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                     let raw: {raw} = ::serde::Deserialize::deserialize_value(v)?;\n\
                     ::std::result::Result::Ok(\
                         <{name} as ::std::convert::From<{raw}>>::from(raw))\n\
                 }}\n\
             }}"
        );
    }
    if let Some(raw) = &item.try_from {
        return format!(
            "#[automatically_derived]\n\
             impl ::serde::Deserialize for {name} {{\n\
                 fn deserialize_value(v: ::serde::Value) \
                     -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                     let raw: {raw} = ::serde::Deserialize::deserialize_value(v)?;\n\
                     <{name} as ::std::convert::TryFrom<{raw}>>::try_from(raw)\
                         .map_err(::serde::DeError::custom)\n\
                 }}\n\
             }}"
        );
    }
    let body = match &item.kind {
        Kind::Struct(fields) => {
            let build = gen_struct_build(name, fields, "pairs");
            format!(
                "let pairs = match v {{\n\
                     ::serde::Value::Object(pairs) => pairs,\n\
                     other => return ::std::result::Result::Err(::serde::DeError::custom(\
                         ::std::format!(\"expected object for struct {name}, got {{}}\", \
                             other.kind()))),\n\
                 }};\n\
                 {build}"
            )
        }
        Kind::Enum(variants) => gen_enum_deserialize(name, variants),
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn deserialize_value(v: ::serde::Value) \
                 -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}

/// `Ok(Path { f: ..., ... })` from the owned object pair list named by
/// `pairs_var`: one pass moves each known key's value into its field's
/// slot (a later duplicate key replaces an earlier one, so the last
/// wins), then the fields deserialize in declaration order.
fn gen_struct_build(path: &str, fields: &[Field], pairs_var: &str) -> String {
    let slots = (0..fields.len())
        .map(|i| {
            format!(
                "let mut __slot{i}: ::std::option::Option<::serde::Value> = \
                 ::std::option::Option::None;\n"
            )
        })
        .collect::<String>();
    let arms = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "{n:?} => __slot{i} = ::std::option::Option::Some(fv),\n",
                n = f.name
            )
        })
        .collect::<String>();
    let inits = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let n = &f.name;
            let missing = match &f.default {
                None => format!(
                    "return ::std::result::Result::Err(::serde::DeError::custom(\
                     \"missing field `{n}`\"))"
                ),
                Some(FieldDefault::Std) => "::std::default::Default::default()".to_string(),
                Some(FieldDefault::Path(p)) => format!("{p}()"),
            };
            format!(
                "{n}: match __slot{i} {{\n\
                     ::std::option::Option::Some(fv) => \
                         ::serde::Deserialize::deserialize_value(fv)\
                             .map_err(|e| e.in_context({n:?}))?,\n\
                     ::std::option::Option::None => {missing},\n\
                 }},"
            )
        })
        .collect::<String>();
    format!(
        "{slots}\
         for (key, fv) in {pairs_var} {{\n\
             match key.as_str() {{\n\
                 {arms}\
                 _ => {{}}\n\
             }}\n\
         }}\n\
         ::std::result::Result::Ok({path} {{ {inits} }})"
    )
}

fn gen_enum_deserialize(name: &str, variants: &[Variant]) -> String {
    let unit_arms = variants
        .iter()
        .filter(|v| matches!(v.shape, Shape::Unit))
        .map(|v| {
            format!(
                "{vn:?} => ::std::result::Result::Ok({name}::{vn}),",
                vn = v.name
            )
        })
        .collect::<String>();
    let content_arms = variants
        .iter()
        .filter(|v| !matches!(v.shape, Shape::Unit))
        .map(|v| gen_enum_content_arm(name, v))
        .collect::<String>();
    // Avoid an unused-variable warning in all-unit enums.
    let content_binder = if content_arms.is_empty() {
        "_"
    } else {
        "content"
    };
    format!(
        "match v {{\n\
             ::serde::Value::Str(s) => match s.as_str() {{\n\
                 {unit_arms}\n\
                 other => ::std::result::Result::Err(::serde::DeError::custom(\
                     ::std::format!(\"unknown variant `{{other}}` of {name}\"))),\n\
             }},\n\
             ::serde::Value::Object(pairs) if pairs.len() == 1 => {{\n\
                 let (tag, {content_binder}) = pairs.into_iter().next().expect(\"one pair\");\n\
                 match tag.as_str() {{\n\
                     {content_arms}\n\
                     other => ::std::result::Result::Err(::serde::DeError::custom(\
                         ::std::format!(\"unknown variant `{{other}}` of {name}\"))),\n\
                 }}\n\
             }}\n\
             other => ::std::result::Result::Err(::serde::DeError::custom(\
                 ::std::format!(\"expected variant of {name}, got {{}}\", other.kind()))),\n\
         }}"
    )
}

fn gen_enum_content_arm(name: &str, v: &Variant) -> String {
    let vn = &v.name;
    match &v.shape {
        Shape::Unit => unreachable!("unit variants handled in the string arm"),
        Shape::Tuple(1) => format!(
            "{vn:?} => ::std::result::Result::Ok({name}::{vn}(\
                 ::serde::Deserialize::deserialize_value(content)\
                     .map_err(|e| e.in_context({vn:?}))?)),"
        ),
        Shape::Tuple(n) => {
            let items = (0..*n)
                .map(|_| {
                    format!(
                        "::serde::Deserialize::deserialize_value(\
                             items.next().expect(\"length checked\"))\
                         .map_err(|e| e.in_context({vn:?}))?,"
                    )
                })
                .collect::<String>();
            format!(
                "{vn:?} => {{\n\
                     let ::serde::Value::Array(items) = content else {{\n\
                         return ::std::result::Result::Err(::serde::DeError::custom(\
                             \"expected array for tuple variant `{vn}`\"));\n\
                     }};\n\
                     if items.len() != {n} {{\n\
                         return ::std::result::Result::Err(::serde::DeError::custom(\
                             ::std::format!(\
                                 \"expected {n} elements for variant `{vn}`, got {{}}\",\
                                 items.len())));\n\
                     }}\n\
                     let mut items = items.into_iter();\n\
                     ::std::result::Result::Ok({name}::{vn}({items}))\n\
                 }}"
            )
        }
        Shape::Struct(fields) => {
            let build = gen_struct_build(&format!("{name}::{vn}"), fields, "inner");
            format!(
                "{vn:?} => {{\n\
                     let ::serde::Value::Object(inner) = content else {{\n\
                         return ::std::result::Result::Err(::serde::DeError::custom(\
                             \"expected object for struct variant `{vn}`\"));\n\
                     }};\n\
                     {build}\n\
                 }}"
            )
        }
    }
}
