//! The crate's one JSON module: a minimal recursive-descent parser and a
//! small pretty-printer over the same [`Value`] tree, deliberately
//! dependency-free. The resume manifest and `BENCH_perf.json` are both read
//! through [`parse`]; `perf_report` writes the latter with
//! [`Value::to_pretty`].
//!
//! Numbers keep their source text, so a writer chooses each field's
//! precision ([`Value::fixed`]) and a parsed file re-renders the digits it
//! was written with. Strings support the standard escape set including
//! `\uXXXX`.

use std::fmt::Write as _;

/// A parsed (or to-be-written) JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its JSON text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// A number rendered with exactly `decimals` digits after the point.
    #[must_use]
    pub fn fixed(x: f64, decimals: usize) -> Value {
        Value::Num(format!("{x:.decimals$}"))
    }

    /// An object from `(key, value)` pairs, in the given order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Nested object lookup: `v.at(&["a", "b"])` is `v.a.b`.
    #[must_use]
    pub fn at(&self, path: &[&str]) -> Option<&Value> {
        path.iter().try_fold(self, |v, key| v.get(key))
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The number, if this is a non-negative integer no larger than 2^53.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self.as_f64()? {
            n if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) =>
            {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The `(key, value)` pairs, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(kv) => Some(kv),
            _ => None,
        }
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline. Containers nested two or more levels deep whose members
    /// are all scalars go on one line (`{ "p50": 35, "p99": 126 }`), so
    /// table-like sections read as one row per line.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Value::Arr(_) | Value::Obj(_))
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let items: Vec<(Option<&str>, &Value)> = match self {
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::Num(text) => return out.push_str(text),
            Value::Str(s) => return out.push_str(&quote(s)),
            Value::Arr(v) => v.iter().map(|x| (None, x)).collect(),
            Value::Obj(kv) => kv.iter().map(|(k, x)| (Some(k.as_str()), x)).collect(),
        };
        let (open, close) = if matches!(self, Value::Arr(_)) {
            ('[', ']')
        } else {
            ('{', '}')
        };
        if items.is_empty() {
            out.push(open);
            out.push(close);
            return;
        }
        let inline = depth >= 2 && items.iter().all(|(_, x)| x.is_scalar());
        out.push(open);
        for (i, (key, x)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if inline {
                out.push(' ');
            } else {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            }
            if let Some(k) = key {
                out.push_str(&quote(k));
                out.push_str(": ");
            }
            x.write_pretty(out, depth + 1);
        }
        if inline {
            out.push(' ');
        } else {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n.to_string())
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n.to_string())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

/// Escapes a string as a JSON string literal, quotes included.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// A message naming the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
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

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut kv = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(kv));
        }
        loop {
            self.skip_ws();
            let k = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value()?;
            kv.push((k, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(kv));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| "non-ASCII \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for manifest
                            // content; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("unknown escape \\{}", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (strings are valid UTF-8
                    // because the input is a &str).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().ok_or("empty scalar")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(|_| Value::Num(text.to_string()))
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_output_parses_back_to_the_same_tree() {
        let doc = Value::object([
            ("name", Value::from("a \"quoted\"\nline")),
            ("count", Value::from(3u64)),
            ("ratio", Value::fixed(2.0 / 3.0, 3)),
            ("missing", Value::Null),
            (
                "nested",
                Value::object([(
                    "row",
                    Value::object([("p50", Value::from(35u64)), ("ok", Value::Bool(true))]),
                )]),
            ),
            (
                "list",
                Value::Arr(vec![Value::from(1u64), Value::Arr(vec![])]),
            ),
        ]);
        let text = doc.to_pretty();
        assert!(text.contains("\"ratio\": 0.667,\n"), "{text}");
        assert!(
            text.contains("\"row\": { \"p50\": 35, \"ok\": true }"),
            "depth-2 scalar rows go on one line: {text}"
        );
        assert_eq!(parse(&text).expect("parses"), doc);
    }

    #[test]
    fn numbers_keep_their_text_and_read_as_numbers() {
        let v = parse("[2.357, 1e3, -4, 7]").expect("parses");
        let items = v.as_array().expect("array");
        assert_eq!(items[0], Value::Num("2.357".into()));
        assert_eq!(items[0].as_f64(), Some(2.357));
        assert_eq!(items[1].as_u64(), Some(1000));
        assert_eq!(items[2].as_u64(), None, "negative is not a u64");
        assert_eq!(items[3].as_u64(), Some(7));
        assert!(parse("[1.2.3]").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
    }

    #[test]
    fn key_paths_walk_nested_objects() {
        let v = parse(r#"{"a": {"b": {"c": 1}}, "a2": 2}"#).expect("parses");
        assert_eq!(v.at(&["a", "b", "c"]).and_then(Value::as_u64), Some(1));
        assert_eq!(v.at(&[]), Some(&v));
        assert!(v.at(&["a", "missing"]).is_none());
        assert!(v.at(&["a2", "b"]).is_none(), "a number has no fields");
    }
}
