//! A small self-describing value model with TOML-subset and JSON parsers.
//!
//! The workspace's vendored `serde` stand-in only serializes (it renders
//! JSON directly and has no `Deserialize` half), so the spec loader and
//! the result-store reader parse into this [`Value`] enum by hand. The
//! TOML dialect covers what experiment specs need: `[section]` headers
//! (dotted), dotted keys, basic and literal strings, integers (with `_`
//! separators), floats, booleans, single- and multi-line arrays, inline
//! tables, and `#` comments. `[[array-of-tables]]` headers are an error.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML or JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    Array(Vec<Value>),
    Table(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric accessor: integers coerce to floats (TOML `load = 1` and
    /// `load = 1.0` mean the same sweep point).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// Member lookup on tables (`None` on non-tables or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_table().and_then(|t| t.get(key))
    }

    /// Dotted-path lookup: `get_path("experiment.name")`.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        path.split('.').try_fold(self, |v, k| v.get(k))
    }

    /// Appends `self` as JSON. Strings escape through the same encoder as
    /// result rows; floats use the shortest round-trip form, so
    /// `parse_json(v.to_json_string())` reproduces `v` exactly.
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Str(s) => serde::Serialize::to_json(s.as_str(), out),
            Value::Int(i) => serde::Serialize::to_json(i, out),
            Value::Float(x) => serde::Serialize::to_json(x, out),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Array(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_json(out);
                }
                out.push(']');
            }
            Value::Table(t) => {
                out.push('{');
                for (i, (k, v)) in t.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    serde::Serialize::to_json(k.as_str(), out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }

    /// JSON rendering of `self` (see [`Value::write_json`]).
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Table(t) => {
                write!(f, "{{")?;
                for (i, (k, v)) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} = {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

// ---------------------------------------------------------------- JSON --

/// Appends `{"name":value,...}` to `out`, every value through the encoder
/// result rows use. Names are spliced as they are: plain identifiers only.
pub(crate) fn write_json_object(out: &mut String, members: &[(&str, &dyn serde::Serialize)]) {
    out.push('{');
    for (i, (name, v)) in members.iter().enumerate() {
        out.push_str(if i == 0 { "\"" } else { ",\"" });
        out.push_str(name);
        out.push_str("\":");
        v.to_json(out);
    }
    out.push('}');
}

/// Deepest nesting of arrays and objects the JSON descent follows: ten
/// times what any spec or row uses, and shallow enough that a payload of
/// a million `[` is an error instead of a stack overflow.
pub(crate) const MAX_JSON_DEPTH: usize = 64;

/// Parses a JSON document into a [`Value`].
pub fn parse_json(src: &str) -> Result<Value, String> {
    JsonParser::new(src, None).document()
}

/// Whether [`parse_json`] would accept `src`, learned by the same descent
/// without building anything: no tree, no strings, no allocation.
pub fn well_formed(src: &str) -> bool {
    JsonParser::new(src, None).document::<()>().is_ok()
}

/// The `key` member of the JSON object `src` (the last one, as
/// [`parse_json`] would keep), with the rest of the document checked but
/// not built. `Err` when `src` is not JSON or not an object.
pub fn object_member(src: &str, key: &str) -> Result<Option<Value>, String> {
    let mut p = JsonParser::new(src, Some(key));
    p.document::<()>()?;
    // A well-formed document leads with nothing but whitespace.
    if !src.trim_start().starts_with('{') {
        return Err("the top-level value is not an object".to_string());
    }
    p.found.map(|span| parse_json(&src[span])).transpose()
}

/// What the one JSON descent makes of a document: a [`Value`] tree, or
/// `()` — nothing but the verdict.
trait Doc: Sized {
    /// An object under construction.
    type Members: Default;
    /// Whether string contents are kept; otherwise they are only checked.
    const KEEPS_STRINGS: bool;
    fn scalar(v: Value) -> Self;
    fn array(items: Vec<Self>) -> Self;
    fn insert(members: &mut Self::Members, key: String, v: Self);
    fn object(members: Self::Members) -> Self;
}

impl Doc for Value {
    type Members = BTreeMap<String, Value>;
    const KEEPS_STRINGS: bool = true;
    fn scalar(v: Value) -> Value {
        v
    }
    fn array(items: Vec<Value>) -> Value {
        Value::Array(items)
    }
    fn insert(members: &mut Self::Members, key: String, v: Value) {
        members.insert(key, v);
    }
    fn object(members: Self::Members) -> Value {
        Value::Table(members)
    }
}

impl Doc for () {
    type Members = ();
    const KEEPS_STRINGS: bool = false;
    fn scalar(_: Value) {}
    // A `Vec<()>` never allocates.
    fn array(_: Vec<()>) {}
    fn insert(_: &mut (), _: String, _: ()) {}
    fn object(_: ()) {}
}

struct JsonParser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
    /// The top-level member [`object_member`] asked for, and the span of
    /// its value once seen.
    want: Option<&'a str>,
    found: Option<std::ops::Range<usize>>,
}

impl<'a> JsonParser<'a> {
    fn new(src: &'a str, want: Option<&'a str>) -> Self {
        JsonParser {
            src,
            pos: 0,
            depth: 0,
            want,
            found: None,
        }
    }

    fn document<D: Doc>(&mut self) -> Result<D, String> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value<D: Doc>(&mut self) -> Result<D, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_JSON_DEPTH => Err(format!(
                "nested deeper than {MAX_JSON_DEPTH} at byte {}",
                self.pos
            )),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(D::scalar(Value::Str(self.string(D::KEEPS_STRINGS)?))),
            Some(b't') | Some(b'f') => self.boolean().map(D::scalar),
            Some(b'n') => {
                // JSON null has no TOML analogue; surface it as an error so
                // specs can't silently carry holes.
                Err(format!("null is not a supported value (byte {})", self.pos))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(D::scalar),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object<D: Doc>(&mut self) -> Result<D, String> {
        self.expect(b'{')?;
        let mut t = D::Members::default();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(D::object(t));
        }
        let wanted = self.want.filter(|_| self.depth == 1);
        loop {
            self.skip_ws();
            let key = self.string(D::KEEPS_STRINGS || wanted.is_some())?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let start = self.pos;
            let v = self.value()?;
            if wanted == Some(key.as_str()) {
                self.found = Some(start..self.pos);
            }
            D::insert(&mut t, key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(D::object(t));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array<D: Doc>(&mut self) -> Result<D, String> {
        self.expect(b'[')?;
        let mut a = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(D::array(a));
        }
        loop {
            self.skip_ws();
            a.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(D::array(a));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    /// One string, unescaped into the result when `keep` (else the result
    /// stays empty and unallocated; the checks are the same).
    fn string(&mut self, keep: bool) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Everything up to the next quote or backslash is one run: it
            // starts after an ASCII byte and ends before one, so it is whole
            // UTF-8 scalars and is copied at once.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            if keep {
                s.push_str(&self.src[run..self.pos]);
            }
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                _ => self.pos += 1,
            }
            let esc = self.peek();
            self.pos += 1;
            let c = match esc {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'u') => {
                    let hex = self
                        .src
                        .as_bytes()
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                        16,
                    )
                    .map_err(|e| e.to_string())?;
                    self.pos += 4;
                    char::from_u32(code).ok_or("bad \\u escape")?
                }
                other => return Err(format!("bad escape \\{:?}", other.map(|c| c as char))),
            };
            if keep {
                s.push(c);
            }
        }
    }

    fn boolean(&mut self) -> Result<Value, String> {
        if self.src[self.pos..].starts_with("true") {
            self.pos += 4;
            Ok(Value::Bool(true))
        } else if self.src[self.pos..].starts_with("false") {
            self.pos += 5;
            Ok(Value::Bool(false))
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse()
                .map(Value::Float)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse()
                .map(Value::Int)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }
}

// ---------------------------------------------------------------- TOML --

/// Parses a TOML-subset document (see module docs) into a table [`Value`].
pub(crate) fn parse_toml(src: &str) -> Result<Value, String> {
    let mut root = BTreeMap::new();
    // Key path of the section the parser is currently filling.
    let mut current: Vec<String> = Vec::new();

    let mut lines = src.lines().enumerate().peekable();
    while let Some((lineno, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);

        if line.starts_with("[[") {
            return Err(err(format!(
                "{line}: [[array-of-tables]] headers are not supported"
            )));
        } else if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let path = parse_key_path(header.trim()).map_err(&err)?;
            ensure_table(&mut root, &path).map_err(&err)?;
            current = path;
        } else if let Some(eq) = find_top_level_eq(&line) {
            let key_part = line[..eq].trim();
            let mut value_text = line[eq + 1..].trim().to_string();
            // Multi-line arrays: keep consuming lines until brackets
            // balance outside of strings.
            while bracket_balance(&value_text) > 0 {
                let Some((_, next)) = lines.next() else {
                    return Err(err("unterminated array".into()));
                };
                value_text.push(' ');
                value_text.push_str(strip_comment(next).trim());
            }
            let key_path = parse_key_path(key_part).map_err(&err)?;
            let value = parse_toml_value(value_text.trim(), 0).map_err(&err)?;
            let mut full = current.clone();
            full.extend(key_path);
            let (name, parents) = full.split_last().expect("non-empty key path");
            let table = ensure_table(&mut root, parents).map_err(&err)?;
            if table.insert(name.clone(), value).is_some() {
                return Err(err(format!("duplicate key {name:?}")));
            }
        } else {
            return Err(err(format!("cannot parse {line:?}")));
        }
    }
    Ok(Value::Table(root))
}

/// Walks (creating as needed) to the table at `path`.
fn ensure_table<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
) -> Result<&'a mut BTreeMap<String, Value>, String> {
    let mut cur = root;
    for k in path {
        let entry = cur
            .entry(k.clone())
            .or_insert_with(|| Value::Table(BTreeMap::new()));
        let Value::Table(t) = entry else {
            return Err(format!("{k:?} is not a table"));
        };
        cur = t;
    }
    Ok(cur)
}

/// Removes a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_basic = false;
    let mut in_literal = false;
    let mut escape = false;
    for (i, c) in line.char_indices() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_basic => escape = true,
            '"' if !in_literal => in_basic = !in_basic,
            '\'' if !in_basic => in_literal = !in_literal,
            '#' if !in_basic && !in_literal => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Finds the first `=` outside any quoted string.
fn find_top_level_eq(line: &str) -> Option<usize> {
    let mut in_basic = false;
    let mut in_literal = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !in_literal => in_basic = !in_basic,
            '\'' if !in_basic => in_literal = !in_literal,
            '=' if !in_basic && !in_literal => return Some(i),
            _ => {}
        }
    }
    None
}

/// Net `[`/`{` depth outside strings (positive means unterminated).
fn bracket_balance(text: &str) -> i32 {
    let mut depth = 0;
    let mut in_basic = false;
    let mut in_literal = false;
    let mut escape = false;
    for c in text.chars() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_basic => escape = true,
            '"' if !in_literal => in_basic = !in_basic,
            '\'' if !in_basic => in_literal = !in_literal,
            '[' | '{' if !in_basic && !in_literal => depth += 1,
            ']' | '}' if !in_basic && !in_literal => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// Parses a (possibly dotted) key: `a.b."c d"`.
fn parse_key_path(text: &str) -> Result<Vec<String>, String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' | '\'' => {
                let quote = c;
                for q in chars.by_ref() {
                    if q == quote {
                        break;
                    }
                    cur.push(q);
                }
            }
            '.' => {
                parts.push(std::mem::take(&mut cur).trim().to_string());
            }
            c => cur.push(c),
        }
    }
    parts.push(cur.trim().to_string());
    if parts.iter().any(|p| p.is_empty()) {
        return Err(format!("bad key {text:?}"));
    }
    Ok(parts)
}

/// Parses a single TOML value (scalar, array, or inline table) sitting
/// inside `depth` arrays and tables; the JSON cap bounds this recursion too.
fn parse_toml_value(text: &str, depth: usize) -> Result<Value, String> {
    let text = text.trim();
    if text.is_empty() {
        return Err("missing value".into());
    }
    if depth > MAX_JSON_DEPTH {
        return Err(format!("nested deeper than {MAX_JSON_DEPTH}"));
    }
    if let Some(inner) = text.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
        // Basic string with escapes; reuse the JSON string machinery.
        return parse_json(&format!("\"{inner}\""));
    }
    if let Some(inner) = text.strip_prefix('\'').and_then(|s| s.strip_suffix('\'')) {
        return Ok(Value::Str(inner.to_string()));
    }
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if text.starts_with('[') {
        if !text.ends_with(']') {
            return Err(format!("unterminated array {text:?}"));
        }
        let mut items = Vec::new();
        for part in split_top_level(&text[1..text.len() - 1]) {
            let part = part.trim();
            if !part.is_empty() {
                items.push(parse_toml_value(part, depth + 1)?);
            }
        }
        return Ok(Value::Array(items));
    }
    if text.starts_with('{') {
        if !text.ends_with('}') {
            return Err(format!("unterminated inline table {text:?}"));
        }
        let mut table = BTreeMap::new();
        for part in split_top_level(&text[1..text.len() - 1]) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let eq = find_top_level_eq(part).ok_or_else(|| format!("bad entry {part:?}"))?;
            let key = parse_key_path(part[..eq].trim())?;
            if key.len() != 1 {
                return Err(format!("dotted keys unsupported in inline table: {part:?}"));
            }
            table.insert(
                key[0].clone(),
                parse_toml_value(part[eq + 1..].trim(), depth + 1)?,
            );
        }
        return Ok(Value::Table(table));
    }
    // Number: integers may use `_` separators.
    let clean: String = text.chars().filter(|&c| c != '_').collect();
    if clean.contains(['.', 'e', 'E']) || clean == "inf" || clean == "nan" {
        clean
            .parse()
            .map(Value::Float)
            .map_err(|e| format!("bad value {text:?}: {e}"))
    } else {
        clean
            .parse()
            .map(Value::Int)
            .map_err(|e| format!("bad value {text:?}: {e}"))
    }
}

/// Splits on top-level commas (outside strings/brackets).
fn split_top_level(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut depth = 0;
    let mut in_basic = false;
    let mut in_literal = false;
    let mut escape = false;
    for c in text.chars() {
        if escape {
            escape = false;
            cur.push(c);
            continue;
        }
        match c {
            '\\' if in_basic => {
                escape = true;
                cur.push(c);
            }
            '"' if !in_literal => {
                in_basic = !in_basic;
                cur.push(c);
            }
            '\'' if !in_basic => {
                in_literal = !in_literal;
                cur.push(c);
            }
            '[' | '{' if !in_basic && !in_literal => {
                depth += 1;
                cur.push(c);
            }
            ']' | '}' if !in_basic && !in_literal => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 && !in_basic && !in_literal => {
                parts.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_shapes() {
        let v = parse_json(r#"{"a":1,"b":[1.5,"x",true],"c":{"d":-2}}"#).unwrap();
        assert_eq!(v.get_path("a").unwrap().as_i64(), Some(1));
        assert_eq!(v.get_path("c.d").unwrap().as_i64(), Some(-2));
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.5));
        assert_eq!(arr[1].as_str(), Some("x"));
        assert_eq!(arr[2].as_bool(), Some(true));
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("null").is_err());
        assert!(parse_json("{\"a\":1} x").is_err());
    }

    /// A frame's payload is a peer's to choose: nesting past the cap is
    /// an error from either walk, not a stack overflow.
    #[test]
    fn nesting_is_capped_for_both_walks() {
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let at_cap = nested(MAX_JSON_DEPTH);
        assert!(parse_json(&at_cap).is_ok() && well_formed(&at_cap));
        let past_cap = nested(MAX_JSON_DEPTH + 1);
        assert!(parse_json(&past_cap).unwrap_err().contains("nested deeper"));
        assert!(!well_formed(&past_cap));
        let objects = "{\"a\":".repeat(MAX_JSON_DEPTH + 1) + "1" + &"}".repeat(MAX_JSON_DEPTH + 1);
        assert!(parse_json(&objects).is_err() && !well_formed(&objects));
        // What used to abort the process, on a thread with a small stack.
        std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| {
                let hostile = "[".repeat(1 << 20);
                assert!(parse_json(&hostile).is_err() && !well_formed(&hostile));
                let toml = format!("a = {}{}", "[".repeat(100_000), "]".repeat(100_000));
                assert!(parse_toml(&toml).unwrap_err().contains("nested deeper"));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn object_member_checks_everything_and_builds_one_member() {
        let row = r#" {"a":{"digest":"inner"},"digest":"x","b":[1,"é"],"digest":"last"} "#;
        assert_eq!(
            object_member(row, "digest"),
            Ok(Some(Value::Str("last".into())))
        );
        assert_eq!(object_member(row, "missing"), Ok(None));
        assert_eq!(
            object_member(r#"{"digest":7}"#, "digest"),
            Ok(Some(Value::Int(7)))
        );
        assert!(object_member(r#"[{"digest":"x"}]"#, "digest").is_err());
        assert!(object_member(r#""digest""#, "digest").is_err());
        assert!(object_member(r#"{"digest":"x","b":nope}"#, "digest").is_err());
    }

    #[test]
    fn toml_sections_keys_arrays() {
        let v = parse_toml(
            r#"
# top comment
title = "demo"

[experiment]
name = "fig6"   # trailing comment
kind = "steady"

[axes]
algo = ["DOR", "DimWAR"]
load = [
  0.1, 0.2,
  0.3,
]
seed = [1]

[sim]
num_vcs = 8
atomic_queue_alloc = false
stability = 0.12
big = 1_000_000
"#,
        )
        .unwrap();
        assert_eq!(v.get("title").unwrap().as_str(), Some("demo"));
        assert_eq!(
            v.get_path("experiment.name").unwrap().as_str(),
            Some("fig6")
        );
        let loads: Vec<f64> = v
            .get_path("axes.load")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(loads, vec![0.1, 0.2, 0.3]);
        assert_eq!(v.get_path("sim.big").unwrap().as_i64(), Some(1_000_000));
        assert_eq!(v.get_path("sim.stability").unwrap().as_f64(), Some(0.12));
        assert_eq!(
            v.get_path("sim.atomic_queue_alloc").unwrap().as_bool(),
            Some(false)
        );
    }

    #[test]
    fn toml_array_of_tables_header_is_an_error_naming_its_line() {
        let err = parse_toml("a = 1\n\n[[x]]\nb = 2").unwrap_err();
        assert!(err.starts_with("line 3: [[x]]"), "{err}");
    }

    #[test]
    fn toml_duplicate_key_rejected() {
        assert!(parse_toml("a = 1\na = 2").is_err());
    }

    #[test]
    fn toml_dotted_keys() {
        let v = parse_toml("a.b = 1\n[c]\nd.e = \"x\"").unwrap();
        assert_eq!(v.get_path("a.b").unwrap().as_i64(), Some(1));
        assert_eq!(v.get_path("c.d.e").unwrap().as_str(), Some("x"));
    }
}
