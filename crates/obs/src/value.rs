//! A minimal JSON reader, the inverse of the [`crate::json`] writers.
//!
//! The workspace has no crates.io access, so the analysis tools that read
//! telemetry back — `dmig obs diff`, `dmig obs gate`, `dmig obs
//! export-trace`, history replay — parse with this hand-rolled reader
//! instead of `serde_json`. It accepts standard JSON (RFC 8259) minus two
//! deliberate simplifications: numbers are parsed as `f64` (fine for
//! metrics; counters stay exact up to 2^53) and `\uXXXX` escapes outside
//! the BMP surrogate-pair range are decoded individually. Containers nest
//! at most [`MAX_DEPTH`] levels deep, so a hostile document is an error,
//! never a stack overflow.
//!
//! There is one grammar and two ways to consume it. [`Value::parse`]
//! builds a tree; [`Reader`] is the pull reader the tree is built on,
//! handing out one [`Token`] at a time with strings and numbers borrowed
//! from the input, for decoders that go straight into typed state (the
//! executor's checkpoint records).

use std::borrow::Cow;
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
        let mut r = Reader::new(text);
        let first = r.value()?;
        let v = Value::build(&mut r, first)?;
        r.finish()?;
        Ok(v)
    }

    /// The value that starts with `token`. Recursion is bounded by the
    /// reader's nesting limit.
    fn build(r: &mut Reader<'_>, token: Token<'_>) -> Result<Value, ParseError> {
        Ok(match token {
            Token::Null => Value::Null,
            Token::Bool(b) => Value::Bool(b),
            Token::Number(n) => Value::Number(n.as_f64()),
            Token::String(s) => Value::String(s.into_owned()),
            Token::BeginArray => {
                let mut items = Vec::new();
                while r.next_element()? {
                    let t = r.value()?;
                    items.push(Value::build(r, t)?);
                }
                Value::Array(items)
            }
            Token::BeginObject => {
                let mut map = BTreeMap::new();
                while let Some(key) = r.next_key()? {
                    let t = r.value()?;
                    map.insert(key.into_owned(), Value::build(r, t)?);
                }
                Value::Object(map)
            }
        })
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

/// How deep [`Reader`] (and so [`Value::parse`]) lets containers nest.
/// The deepest document the tools write nests 16 levels; the limit keeps
/// a hostile `[[[[…` an error instead of a stack overflow in whatever
/// walks the result.
pub const MAX_DEPTH: usize = 512;

/// One step of a [`Reader`]: a scalar, or the opening of a container the
/// reader has entered.
#[derive(Clone, Debug, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, still as its source text.
    Number(Number<'a>),
    /// A string: borrowed from the input unless it holds escapes.
    String(Cow<'a, str>),
    /// `[`: read the elements with [`Reader::next_element`].
    BeginArray,
    /// `{`: read the members with [`Reader::next_key`].
    BeginObject,
}

/// A JSON number as its source text, already checked to denote a finite
/// `f64`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Number<'a>(&'a str);

impl<'a> Number<'a> {
    /// The number's text as it appears in the input.
    #[must_use]
    pub fn text(self) -> &'a str {
        self.0
    }

    /// The number's value (what `str::parse::<f64>` gives for its text).
    #[must_use]
    pub fn as_f64(self) -> f64 {
        let digits = self.0.strip_prefix('-').unwrap_or(self.0);
        if let Some(n) = small_uint(digits) {
            #[allow(clippy::cast_precision_loss)]
            let x = n as f64;
            return if digits.len() < self.0.len() { -x } else { x };
        }
        self.0
            .parse()
            .expect("the reader only hands out numbers that parse")
    }

    /// The number's value when its text is a run of at most 15 digits (no
    /// sign, fraction or exponent), which an `f64` holds exactly; `None`
    /// for any other text, whose value [`as_f64`](Self::as_f64) gives.
    #[must_use]
    pub fn as_small_uint(self) -> Option<u64> {
        small_uint(self.0)
    }
}

/// The value of a run of 1 to 15 ASCII digits: the common case of a
/// number, and the cheap one to convert.
fn small_uint(digits: &str) -> Option<u64> {
    if digits.is_empty() || digits.len() > 15 {
        return None;
    }
    digits.bytes().try_fold(0u64, |n, b| {
        b.is_ascii_digit().then(|| n * 10 + u64::from(b - b'0'))
    })
}

/// A pull reader over one JSON document.
///
/// [`value`](Self::value) reads the next value's first token. A scalar
/// is then complete; after [`Token::BeginArray`] call
/// [`next_element`](Self::next_element) until it returns `false`, reading
/// each element with `value`, and after [`Token::BeginObject`] call
/// [`next_key`](Self::next_key) until it returns `None`, reading each
/// member's value with `value`. [`skip`](Self::skip) discards the rest of
/// a value, and [`finish`](Self::finish) checks that nothing but
/// whitespace follows the document. The reader enforces the whole
/// grammar, so a document it reads to the end is one [`Value::parse`]
/// accepts, and both fail at the same byte with the same message.
///
/// Two fast paths read the common array elements without a [`Token`]:
/// [`small_uint_element`](Self::small_uint_element) and
/// [`plain_str_element`](Self::plain_str_element). Each consumes an
/// element only where `value` would decode it identically, and leaves any
/// other element unread for `value`, so they change no result and no
/// error.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
    /// Bit `d` is set when the container at depth `d + 1` is an object.
    objects: [u64; MAX_DEPTH / 64],
    /// The innermost container was just opened: no element or member has
    /// been read from it yet.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the document in `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            objects: [0; MAX_DEPTH / 64],
            fresh: false,
        }
    }

    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
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

    fn literal(&mut self, text: &str, token: Token<'a>) -> Result<Token<'a>, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(token)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn open(&mut self, object: bool) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("containers nest deeper than {MAX_DEPTH} levels")));
        }
        let (word, bit) = (self.depth / 64, self.depth % 64);
        if object {
            self.objects[word] |= 1 << bit;
        } else {
            self.objects[word] &= !(1 << bit);
        }
        self.depth += 1;
        self.pos += 1;
        self.fresh = true;
        Ok(())
    }

    #[inline]
    fn close(&mut self) {
        self.depth -= 1;
        self.pos += 1;
        self.fresh = false;
    }

    fn in_object(&self) -> bool {
        let d = self.depth - 1;
        self.objects[d / 64] >> (d % 64) & 1 == 1
    }

    /// Reads the first token of the next value, entering it if it is a
    /// container.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] at the first byte that breaks the grammar, or at
    /// the bracket that opens container [`MAX_DEPTH`] + 1.
    pub fn value(&mut self) -> Result<Token<'a>, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.open(true)?;
                Ok(Token::BeginObject)
            }
            Some(b'[') => {
                self.open(false)?;
                Ok(Token::BeginArray)
            }
            Some(b'"') => Ok(Token::String(self.string()?)),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'n') => self.literal("null", Token::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Inside an array: whether another element follows (read it with
    /// [`value`](Self::value)); `false` consumes the closing `]`.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] when neither `,` nor `]` follows an element.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, ParseError> {
        debug_assert!(self.depth > 0 && !self.in_object(), "not in an array");
        self.skip_ws();
        let fresh = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            _ if fresh => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.err("expected `,` or `]` in array")),
        }
    }

    /// After [`next_element`](Self::next_element) returned `true`: the
    /// element's value when it is a run of 1 to 15 digits not followed by
    /// `.`, `e` or `E` — the common case of a count, read in one loop.
    /// Any other element is left unread (`None`), for
    /// [`value`](Self::value) to read at the same byte, so an error in it
    /// has the generic path's offset and message.
    #[inline]
    pub fn small_uint_element(&mut self) -> Option<u64> {
        debug_assert!(self.depth > 0 && !self.in_object(), "not in an array");
        let start = self.ws_end();
        let (mut i, mut n) = (start, 0u64);
        while let Some(&b) = self.bytes.get(i) {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            // A 16th digit ends the fast path, so `n` stays below 10^15.
            if i - start == 15 {
                return None;
            }
            n = n * 10 + u64::from(d);
            i += 1;
        }
        if i == start || matches!(self.bytes.get(i), Some(b'.' | b'e' | b'E')) {
            return None;
        }
        self.pos = i;
        Some(n)
    }

    /// After [`next_element`](Self::next_element) returned `true`: the
    /// element when it is a string without escapes, borrowed from the
    /// input. Any other element is left unread (`None`), for
    /// [`value`](Self::value) to read at the same byte.
    #[inline]
    pub fn plain_str_element(&mut self) -> Option<&'a str> {
        debug_assert!(self.depth > 0 && !self.in_object(), "not in an array");
        let start = self.ws_end();
        if self.bytes.get(start) != Some(&b'"') {
            return None;
        }
        let body = start + 1;
        // As in `string`: a byte scan slices on scalar boundaries.
        let n = self.bytes[body..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')?;
        if self.bytes[body + n] != b'"' {
            return None;
        }
        self.pos = body + n + 1;
        Some(&self.text[body..body + n])
    }

    /// Where the whitespace at `pos` ends, without consuming it.
    #[inline]
    fn ws_end(&self) -> usize {
        let mut i = self.pos;
        while matches!(self.bytes.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            i += 1;
        }
        i
    }

    /// Inside an object: the next member's key, with the reader placed
    /// before its value; `None` consumes the closing `}`.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] when the member is malformed or neither `,` nor
    /// `}` follows the previous one.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        debug_assert!(self.depth > 0 && self.in_object(), "not in an object");
        self.skip_ws();
        let fresh = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            _ if fresh => {}
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
            }
            _ => return Err(self.err("expected `,` or `}` in object")),
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads past the rest of the value `token` began: nothing for a
    /// scalar, everything up to the matching bracket for a container.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] when the skipped text breaks the grammar.
    pub fn skip(&mut self, token: &Token<'a>) -> Result<(), ParseError> {
        if !matches!(token, Token::BeginArray | Token::BeginObject) {
            return Ok(());
        }
        let outer = self.depth - 1;
        while self.depth > outer {
            let more = if self.in_object() {
                self.next_key()?.is_some()
            } else {
                self.next_element()?
            };
            if more {
                self.value()?;
            }
        }
        Ok(())
    }

    /// Checks that only whitespace follows the document.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] at the first trailing character.
    pub fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after document"))
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        // `"` and `\` are ASCII, and no byte of a multi-byte UTF-8 scalar
        // is, so a byte scan finds them and slices on scalar boundaries.
        match self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
        {
            Some(n) if self.bytes[start + n] == b'"' => {
                self.pos = start + n + 1;
                Ok(Cow::Borrowed(&self.text[start..start + n]))
            }
            Some(n) => {
                self.pos = start + n;
                let mut out = self.text[start..self.pos].to_string();
                self.escaped(&mut out)?;
                Ok(Cow::Owned(out))
            }
            None => {
                self.pos = self.bytes.len();
                Err(self.err("unterminated string"))
            }
        }
    }

    /// Decodes the rest of a string that holds escapes into `out`.
    fn escaped(&mut self, out: &mut String) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
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
                    // Copy the run up to the next quote or escape whole.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Token<'a>, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let plain = self.pos > int;
        let mut rest = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            rest = true;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            rest = true;
        }
        let text = &self.text[start..self.pos];
        // A plain integer of up to 308 digits is a finite f64; anything
        // else is whatever `str::parse::<f64>` makes of the lexed text.
        let finite = if plain && !rest && self.pos - int <= 308 {
            true
        } else {
            text.parse::<f64>().is_ok_and(f64::is_finite)
        };
        if finite {
            Ok(Token::Number(Number(text)))
        } else {
            Err(self.err("bad number"))
        }
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
    fn nesting_is_bounded() {
        let deep = "[".repeat(100_000);
        let e = Value::parse(&deep).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH, "{e}");
        assert!(e.message.contains("deeper than 512"), "{e}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&ok).is_ok());
        let over = format!("{{\"a\": {ok}}}");
        assert_eq!(Value::parse(&over).unwrap_err().offset, 6 + MAX_DEPTH - 1);
    }

    #[test]
    fn reader_borrows_strings_and_numbers() {
        let text = r#"{"a": "x", "b": [1, {"c": [true, null]}], "d": "e\n", "n": -2.5e1}"#;
        let mut r = Reader::new(text);
        assert_eq!(r.value().unwrap(), Token::BeginObject);
        let mut seen = Vec::new();
        while let Some(key) = r.next_key().unwrap() {
            assert!(matches!(key, Cow::Borrowed(_)), "{key}");
            let t = r.value().unwrap();
            match &*key {
                "a" => assert!(matches!(t, Token::String(Cow::Borrowed("x")))),
                "d" => assert_eq!(t, Token::String(Cow::Owned("e\n".to_string()))),
                "n" => {
                    let Token::Number(n) = t else { panic!("{t:?}") };
                    assert_eq!((n.text(), n.as_f64()), ("-2.5e1", -25.0));
                }
                _ => r.skip(&t).unwrap(),
            }
            seen.push(key.into_owned());
        }
        r.finish().unwrap();
        assert_eq!(seen, ["a", "b", "d", "n"]);
    }

    #[test]
    fn reader_and_tree_fail_alike() {
        for bad in [
            "[1,]",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\" 1}",
            "[\"x",
            "[-]",
            "[1e999]",
        ] {
            let tree = Value::parse(bad).unwrap_err();
            let mut r = Reader::new(bad);
            let skipped = r.value().and_then(|t| r.skip(&t)).and_then(|()| r.finish());
            assert_eq!(skipped.unwrap_err(), tree, "{bad}");
        }
    }

    /// Reads the array `text` element by element, trying the fast paths
    /// first when `fast`, and returns what it read up to the first error.
    fn elements(text: &str, fast: bool) -> (Vec<String>, Option<ParseError>) {
        let mut r = Reader::new(text);
        let mut seen = Vec::new();
        let mut read = || -> Result<(), ParseError> {
            assert_eq!(r.value()?, Token::BeginArray);
            while r.next_element()? {
                if fast {
                    if let Some(n) = r.small_uint_element() {
                        seen.push(format!("number {}", n as f64));
                        continue;
                    }
                    if let Some(s) = r.plain_str_element() {
                        seen.push(format!("string {s}"));
                        continue;
                    }
                }
                let t = r.value()?;
                seen.push(match &t {
                    Token::Number(n) => format!("number {}", n.as_f64()),
                    Token::String(s) => format!("string {s}"),
                    other => format!("{other:?}"),
                });
                r.skip(&t)?;
            }
            r.finish()
        };
        let err = read().err();
        (seen, err)
    }

    #[test]
    fn element_fast_paths_read_what_value_reads() {
        for text in [
            "[1,22,333]",
            "[ 007 ,\t0,\n12,\r3]",
            "[123456789012345, 1234567890123456, 99999999999999999999]",
            "[1.5, 2e3, 4E1, 5.]",
            "[-1, -0, 0]",
            "[\"a\", \"\", \"de\\u006civered\", \"x\\\"y\", \"\u{e9}t\u{e9}\"]",
            "[[1, 2], {\"a\": 3}, null, true]",
            "[1x]",
            "[12",
            "[1,,2]",
            "[1 2]",
            "[\"open",
            "[\"a\\q\"]",
            "[1e999]",
            "[12345678901234567890123]",
        ] {
            assert_eq!(elements(text, true), elements(text, false), "{text}");
        }
        let mut r = Reader::new("[12.5, \"a\\n\", \"b\"]");
        r.value().unwrap();
        assert!(r.next_element().unwrap());
        assert_eq!(
            (r.small_uint_element(), r.pos),
            (None, 1),
            "consumes nothing"
        );
        assert_eq!(r.plain_str_element(), None);
        r.value().unwrap();
        assert!(r.next_element().unwrap());
        assert_eq!(
            (r.plain_str_element(), r.pos),
            (None, 6),
            "escapes fall back"
        );
        r.value().unwrap();
        assert!(r.next_element().unwrap());
        assert_eq!(r.plain_str_element(), Some("b"));
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
