//! A minimal JSON reader, the inverse of the [`crate::json`] writers.
//!
//! The workspace has no crates.io access, so the analysis tools that read
//! telemetry back — `dmig obs diff`, `dmig obs gate`, `dmig obs
//! export-trace`, history replay — parse with this hand-rolled recursive
//! descent parser instead of `serde_json`. It accepts standard JSON (RFC
//! 8259) minus two deliberate simplifications: numbers are parsed as `f64`
//! (fine for metrics; counters stay exact up to 2^53) and `\uXXXX` escapes
//! outside the BMP surrogate-pair range are decoded individually.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as an `f64`.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Key order is not preserved (sorted).
    Object(BTreeMap<String, Value>),
}

/// Where and why parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Value {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] locating the first offending byte.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// The value at a `.`-separated path of object keys (`None` when any
    /// step is missing or not an object).
    #[must_use]
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for step in path.split('.') {
            match cur {
                Value::Object(map) => cur = map.get(step)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// This value as an `f64` (`Number` only; booleans map to 0/1).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Bool(b) => Some(f64::from(u8::from(*b))),
            _ => None,
        }
    }

    /// This value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// This value as an object map.
    #[must_use]
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Flattens every numeric leaf into `out` under `.`-joined keys
    /// (array elements are indexed: `solve_even.0.n`). Booleans flatten
    /// to 0/1; nulls and strings are skipped — a `"speedup": null` written
    /// by a host that could not measure simply yields no metric, so gate
    /// rules conditioned on it skip cleanly.
    pub fn flatten_into(&self, prefix: &str, out: &mut BTreeMap<String, f64>) {
        match self {
            Value::Number(_) | Value::Bool(_) => {
                if let Some(n) = self.as_f64() {
                    out.insert(prefix.to_string(), n);
                }
            }
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    let key = if prefix.is_empty() {
                        i.to_string()
                    } else {
                        format!("{prefix}.{i}")
                    };
                    item.flatten_into(&key, out);
                }
            }
            Value::Object(map) => {
                for (k, v) in map {
                    let key = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    v.flatten_into(&key, out);
                }
            }
            Value::Null | Value::String(_) => {}
        }
    }

    /// All numeric leaves as a flat `path -> value` map.
    #[must_use]
    pub fn flatten(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        self.flatten_into("", &mut out);
        out
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one whole UTF-8 scalar. The input is a &str
                    // and `pos` only ever moves by whole scalars, so this
                    // decodes just the next one instead of re-validating
                    // the rest of the document.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.err("bad UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Number)
            .ok_or_else(|| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("-2.5e2").unwrap(), Value::Number(-250.0));
        assert_eq!(
            Value::parse("\"a\\n\\u0041\"").unwrap(),
            Value::String("a\nA".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a": [1, {"b": 2}], "c": null}"#).unwrap();
        assert_eq!(v.get_path("c"), Some(&Value::Null));
        let a = v.get_path("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get_path("b").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn roundtrips_own_writer_output() {
        let escaped = crate::json::string("quote \" backslash \\ tab \t");
        let v = Value::parse(&escaped).unwrap();
        assert_eq!(v.as_str(), Some("quote \" backslash \\ tab \t"));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,", "tru", "1 2", "{\"a\" 1}", "\"\\x\""] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
        let e = Value::parse("[1, ]").unwrap_err();
        assert!(e.to_string().contains("byte"));
    }

    #[test]
    fn flatten_indexes_arrays_and_skips_nulls() {
        let v = Value::parse(
            r#"{"solve_even": [{"n": 100, "speedup": 6.7}, {"n": 1000, "speedup": null}],
                "smoke": false, "name": "x"}"#,
        )
        .unwrap();
        let flat = v.flatten();
        assert_eq!(flat["solve_even.0.n"], 100.0);
        assert_eq!(flat["solve_even.0.speedup"], 6.7);
        assert_eq!(flat["smoke"], 0.0);
        assert!(!flat.contains_key("solve_even.1.speedup"), "null skipped");
        assert!(!flat.contains_key("name"), "strings skipped");
    }
}
