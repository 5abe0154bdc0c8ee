//! Minimal JSON encoding and decoding helpers shared by the trace,
//! metrics and manifest writers — and by the [`crate::report`] trace
//! reducer, which parses JSONL traces and manifest siblings back in.
//!
//! The container pins all external dependencies to offline stand-ins,
//! so JSON is emitted — and parsed — by hand; the same convention
//! `cws-service` and `cws-bench` already follow on the write side.
//! Floats are printed as their shortest round-trip decimal and parsed
//! with `str::parse::<f64>`, which is correctly rounded, so a value
//! written by [`json_f64`] is recovered **bit-exactly** — the property
//! the trace-report reconciliation gate (`--check`) relies on.
//!
//! Every document is read by one iterative pull [`Reader`]: [`parse`]
//! builds a [`Value`] tree on it with an explicit stack, and the
//! cws-dag interchange reads workflows through it with no tree at all.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Encode a string as a JSON string literal (quotes included).
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Append `s` to `out` as a JSON string literal (quotes included), the
/// bytes [`json_str`] returns.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    // Every byte that needs escaping is ASCII, so each run between
    // them ends on a character boundary.
    for (i, b) in s.bytes().enumerate() {
        if b == b'"' || b == b'\\' || b < 0x20 {
            out.push_str(&s[plain..i]);
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                _ => {
                    let _ = write!(out, "\\u{b:04x}");
                }
            }
            plain = i + 1;
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Encode a float as its shortest round-trip decimal; non-finite
/// values become `null` (JSON has no NaN/Inf).
#[must_use]
pub fn json_f64(x: f64) -> String {
    let mut out = String::new();
    push_json_f64(&mut out, x);
    out
}

/// Append `x` to `out` as [`json_f64`] encodes it.
pub fn push_json_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// A parsed JSON value.
///
/// Objects keep their fields in document order (a `Vec`, not a map):
/// the writers in this workspace emit deterministic field orders, and
/// the reducer only ever looks fields up by name.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also produced for the non-finite floats [`json_f64`]
    /// cannot represent).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, bit-exact for values written
    /// by [`json_f64`] and exact for integers up to 2⁵³).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Field `key` of an object (`None` for other variants or missing
    /// keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as a `u64`, if it is a non-negative integer below
    /// 2^64. `u64::MAX as f64` rounds up to 2^64, which `as u64` would
    /// saturate, so the bound is strict.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields, if this is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects a [`Reader`] accepts. A
/// deeper document is an error, so no input can make a consumer's own
/// bookkeeping grow without bound.
pub const MAX_DEPTH: usize = 128;

/// What [`Reader::value`] found where a value starts: a scalar, read
/// whole, or the opening bracket of a container, now entered.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string literal, borrowed from the source unless it holds an
    /// escape.
    Str(Cow<'a, str>),
    /// An array was entered: step through it with [`Reader::next_item`].
    Arr,
    /// An object was entered: step through it with [`Reader::next_key`].
    Obj,
}

/// A pull reader over one JSON document: the workspace's only JSON
/// lexer. [`parse`] builds a [`Value`] tree with it; the cws-dag
/// interchange reads workflows through it with no tree at all.
///
/// The reader never recurses. It keeps a count of the containers open
/// around it, at most [`MAX_DEPTH`], and one bit per level saying
/// which of them are objects. Every error is a message with a byte
/// offset, the same for a given input whichever consumer reads it.
///
/// # Examples
/// ```
/// use cws_obs::json::{Reader, Token};
///
/// let mut r = Reader::new(r#"{"a": [1, 2], "b": "x"}"#);
/// assert_eq!(r.value(), Ok(Token::Obj));
/// assert_eq!(r.next_key().unwrap().as_deref(), Some("a"));
/// assert_eq!(r.skim(), Ok(Token::Arr));
/// assert_eq!(r.next_key().unwrap().as_deref(), Some("b"));
/// assert_eq!(r.value(), Ok(Token::Str("x".into())));
/// assert_eq!(r.next_key(), Ok(None));
/// assert_eq!(r.finish(), Ok(()));
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
    /// Bit `d` is set when the container at depth `d + 1` is an object.
    objects: u128,
    /// The innermost container was just entered: its first element
    /// takes no comma.
    entered: bool,
}

// One bit of `objects` per level.
const _: () = assert!(MAX_DEPTH <= u128::BITS as usize);

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    #[must_use]
    pub fn new(src: &'a str) -> Self {
        Reader {
            src,
            pos: 0,
            depth: 0,
            objects: 0,
            entered: false,
        }
    }

    /// Read the start of the next value: a scalar whole, or the opening
    /// bracket of an array or object, which is entered.
    ///
    /// # Errors
    /// On malformed input, or an array or object that would open more
    /// than [`MAX_DEPTH`] levels deep.
    pub fn value(&mut self) -> Result<Token<'a>, String> {
        self.skip_ws();
        match self.src.as_bytes().get(self.pos) {
            Some(&open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.pos += 1;
                let bit = 1u128 << self.depth;
                self.depth += 1;
                self.entered = true;
                if open == b'{' {
                    self.objects |= bit;
                    Ok(Token::Obj)
                } else {
                    self.objects &= !bit;
                    Ok(Token::Arr)
                }
            }
            Some(b'"') => self.string().map(Token::Str),
            Some(b't') => self.keyword("true", Token::Bool(true)),
            Some(b'f') => self.keyword("false", Token::Bool(false)),
            Some(b'n') => self.keyword("null", Token::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number().map(Token::Num),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// In an entered object: read the next key and its `:`, or consume
    /// the closing `}` and return `None`.
    ///
    /// # Errors
    /// On malformed input.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        let next = self.src.as_bytes().get(self.pos);
        if std::mem::take(&mut self.entered) {
            if next == Some(&b'}') {
                self.leave();
                return Ok(None);
            }
        } else {
            match next {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.leave();
                    return Ok(None);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// In an entered array: `true` when another item follows (read it
    /// with [`Reader::value`]), `false` once the closing `]` is
    /// consumed.
    ///
    /// # Errors
    /// On malformed input.
    pub fn next_item(&mut self) -> Result<bool, String> {
        self.skip_ws();
        let next = self.src.as_bytes().get(self.pos);
        if std::mem::take(&mut self.entered) {
            if next == Some(&b']') {
                self.leave();
                return Ok(false);
            }
            return Ok(true);
        }
        match next {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                self.leave();
                Ok(false)
            }
            _ => Err(format!("expected ',' or ']' at byte {}", self.pos)),
        }
    }

    /// Read one value whole. A scalar comes back as itself; an array or
    /// object is read to its end and comes back as [`Token::Arr`] or
    /// [`Token::Obj`], its kind.
    ///
    /// # Errors
    /// As [`Reader::value`], anywhere inside the value.
    pub fn skim(&mut self) -> Result<Token<'a>, String> {
        let token = self.value()?;
        if matches!(token, Token::Arr | Token::Obj) {
            self.skip_container()?;
        }
        Ok(token)
    }

    /// Read the next value, entering it if it is an object and reading
    /// it whole otherwise. Returns whether it was entered.
    ///
    /// # Errors
    /// As [`Reader::value`], and anywhere inside a value read whole.
    pub fn enter_object(&mut self) -> Result<bool, String> {
        match self.value()? {
            Token::Obj => Ok(true),
            Token::Arr => self.skip_container().map(|()| false),
            _ => Ok(false),
        }
    }

    /// Read the rest of the innermost entered container, through its
    /// closing bracket, and discard it.
    ///
    /// # Errors
    /// As [`Reader::value`], anywhere before the closing bracket.
    pub fn skip_container(&mut self) -> Result<(), String> {
        let outer = self.depth.saturating_sub(1);
        while self.depth > outer {
            let more = if self.in_object() {
                self.next_key()?.is_some()
            } else {
                self.next_item()?
            };
            if more {
                self.value()?;
            }
        }
        Ok(())
    }

    /// Check that nothing but whitespace follows the document's value.
    ///
    /// # Errors
    /// `trailing content at byte N` otherwise.
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(format!("trailing content at byte {}", self.pos))
        }
    }

    fn in_object(&self) -> bool {
        self.depth > 0 && self.objects >> (self.depth - 1) & 1 == 1
    }

    /// Consume a closing bracket.
    fn leave(&mut self) {
        self.pos += 1;
        self.depth = self.depth.saturating_sub(1);
    }

    fn skip_ws(&mut self) {
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.src.as_bytes().get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn keyword(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, String> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.pos < bytes.len()
            && (bytes[self.pos].is_ascii_digit()
                || matches!(bytes[self.pos], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    /// A string literal. Borrowed up to its closing quote unless an
    /// escape comes first; from there on, copied.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let src = self.src;
        let bytes = src.as_bytes();
        let start = self.pos;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so the run before either ends on a
            // character boundary.
            let Some(run) = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                return Err("unterminated string".to_string());
            };
            let end = self.pos + run;
            let text = &src[self.pos..end];
            if bytes[end] == b'"' {
                let escaped = self.pos != start;
                self.pos = end + 1;
                if !escaped {
                    return Ok(Cow::Borrowed(text));
                }
                out.push_str(text);
                return Ok(Cow::Owned(out));
            }
            out.push_str(text);
            self.pos = end + 1;
            let Some(&esc) = bytes.get(self.pos) else {
                return Err("unterminated escape".to_string());
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = src
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| "truncated \\u escape".to_string())?;
                    let code = u32::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                    self.pos += 4;
                    // Surrogate pairs never occur in this workspace's
                    // writers; map lone surrogates to the replacement
                    // character.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("bad escape '\\{}'", other as char)),
            }
        }
    }
}

/// Parse one JSON document into a [`Value`] tree.
///
/// # Errors
/// Returns a human-readable message (with a byte offset) on malformed
/// input, trailing non-whitespace, or nesting deeper than
/// [`MAX_DEPTH`] levels.
pub fn parse(src: &str) -> Result<Value, String> {
    let mut r = Reader::new(src);
    // The containers still open, innermost last.
    let mut open: Vec<Open> = Vec::new();
    loop {
        let mut done = match r.value()? {
            Token::Arr => {
                open.push(Open::Arr(Vec::new()));
                None
            }
            Token::Obj => {
                open.push(Open::Obj(Vec::new(), String::new()));
                None
            }
            Token::Null => Some(Value::Null),
            Token::Bool(b) => Some(Value::Bool(b)),
            Token::Num(x) => Some(Value::Num(x)),
            Token::Str(s) => Some(Value::Str(s.into_owned())),
        };
        // Hand the finished value to its container, and close every
        // container that has no element left, until one has another
        // element to read or the document's own value is finished.
        while let Some(container) = open.last_mut() {
            if let Some(v) = done.take() {
                match container {
                    Open::Arr(items) => items.push(v),
                    Open::Obj(fields, key) => fields.push((std::mem::take(key), v)),
                }
            }
            let more = match container {
                Open::Arr(_) => r.next_item()?,
                Open::Obj(_, key) => match r.next_key()? {
                    Some(k) => {
                        *key = k.into_owned();
                        true
                    }
                    None => false,
                },
            };
            if more {
                break;
            }
            done = open.pop().map(|closed| match closed {
                Open::Arr(items) => Value::Arr(items),
                Open::Obj(fields, _) => Value::Obj(fields),
            });
        }
        // A value is left over only once no container is open.
        if let Some(v) = done {
            r.finish()?;
            return Ok(v);
        }
    }
}

/// A container [`parse`] has entered but not yet closed: its elements
/// so far and, for an object, the key of the element being read.
enum Open {
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>, String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_and_control_chars() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny"), "\"x\\u000ay\"");
    }

    #[test]
    fn floats_round_trip_or_null() {
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(3600.0), "3600");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-2.5e1").unwrap(), Value::Num(-25.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
        let v = parse("{\"k\":[1,2,{\"x\":false}]}").unwrap();
        let arr = v.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("x"), Some(&Value::Bool(false)));
    }

    #[test]
    fn as_u64_takes_only_integers_below_two_to_the_64() {
        let below = 2f64.powi(64).next_down();
        assert_eq!(Value::Num(below).as_u64(), Some(below as u64));
        // `u64::MAX` itself reads as 2^64, one past the range.
        for text in [
            "18446744073709551616",
            "18446744073709551615",
            "1e20",
            "-1",
            "0.5",
        ] {
            assert_eq!(parse(text).unwrap().as_u64(), None, "{text}");
        }
    }

    #[test]
    fn written_floats_parse_back_bit_exactly() {
        for x in [0.1, 1.0 / 3.0, 3600.0, 0.095, 7.25e-3, f64::MAX] {
            let Value::Num(y) = parse(&json_f64(x)).unwrap() else {
                panic!("number expected");
            };
            assert_eq!(x.to_bits(), y.to_bits(), "{x} did not round-trip");
        }
    }

    #[test]
    fn escaped_strings_round_trip() {
        for s in ["plain", "a\"b\\c", "x\ny", "unicode µ"] {
            assert_eq!(parse(&json_str(s)).unwrap(), Value::Str(s.to_string()));
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)),
            Err("nesting deeper than 128 levels at byte 128".to_string())
        );
        assert_eq!(
            parse(&"{\"a\":".repeat(MAX_DEPTH + 1)),
            Err("nesting deeper than 128 levels at byte 640".to_string())
        );
        // Regression: a megabyte of `[` used to overflow the stack and
        // abort the process.
        assert_eq!(
            parse(&"[".repeat(1_000_000)),
            Err("nesting deeper than 128 levels at byte 128".to_string())
        );
    }

    #[test]
    fn reader_borrows_strings_without_escapes() {
        let mut r = Reader::new(r#"["plain", "tab\there", "a\u0062"]"#);
        assert_eq!(r.value(), Ok(Token::Arr));
        let mut strings = Vec::new();
        while r.next_item().unwrap() {
            let Ok(Token::Str(s)) = r.value() else {
                panic!("string expected");
            };
            strings.push(s);
        }
        assert!(matches!(strings[0], Cow::Borrowed("plain")));
        assert!(matches!(&strings[1], Cow::Owned(s) if s == "tab\there"));
        assert!(matches!(&strings[2], Cow::Owned(s) if s == "ab"));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn reader_skims_whole_values_and_checks_them() {
        let mut r = Reader::new(r#"{"skip": {"a": [1, {"b": null}]}, "keep": 2} "#);
        assert_eq!(r.value(), Ok(Token::Obj));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("skip"));
        assert_eq!(r.skim(), Ok(Token::Obj));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("keep"));
        assert_eq!(r.skim(), Ok(Token::Num(2.0)));
        assert_eq!(r.next_key(), Ok(None));
        assert_eq!(r.finish(), Ok(()));
        // Skimming reads every byte of what it skips.
        let mut r = Reader::new(r#"[{"a": [1 2]}]"#);
        assert_eq!(r.skim(), Err("expected ',' or ']' at byte 10".to_string()));
    }

    #[test]
    fn errors_name_the_byte_they_stop_at() {
        for (doc, err) in [
            ("[1,]", "unexpected input at byte 3"),
            ("{\"a\":1,}", "expected '\"' at byte 7"),
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("[1 2]", "expected ',' or ']' at byte 3"),
            ("{\"a\":1 \"b\"}", "expected ',' or '}' at byte 7"),
            ("tru", "expected 'true' at byte 0"),
            ("-", "bad number at byte 0: invalid float literal"),
            ("\"\\q\"", "bad escape '\\q'"),
            ("\"\\u12zz\"", "bad \\u escape '12zz'"),
            ("\"\\u1", "truncated \\u escape"),
            ("\"open", "unterminated string"),
            ("1 2", "trailing content at byte 2"),
        ] {
            assert_eq!(parse(doc), Err(err.to_string()), "{doc}");
        }
        // Numbers and escapes at the edge of the grammar read as
        // `str::parse` and `u32::from_str_radix` read them.
        assert_eq!(parse("01"), Ok(Value::Num(1.0)));
        assert_eq!(parse("1."), Ok(Value::Num(1.0)));
        assert_eq!(parse("1e999"), Ok(Value::Num(f64::INFINITY)));
        assert_eq!(parse("\"\\u+abc\""), Ok(Value::Str("\u{abc}".into())));
    }

    #[test]
    fn writers_append_what_the_encoders_return() {
        for s in ["plain", "a\"b\\c", "x\ny\u{1}", "unicode µ", ""] {
            let mut out = String::from("[");
            push_json_str(&mut out, s);
            assert_eq!(out, format!("[{}", json_str(s)));
        }
        let mut out = String::new();
        push_json_f64(&mut out, 0.1);
        push_json_f64(&mut out, f64::NAN);
        assert_eq!(out, "0.1null");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "1 2", ""] {
            assert!(parse(bad).is_err(), "'{bad}' should not parse");
        }
    }
}
