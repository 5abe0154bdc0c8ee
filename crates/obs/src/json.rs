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

use std::fmt::Write as _;

/// Encode a string as a JSON string literal (quotes included).
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Encode a float as its shortest round-trip decimal; non-finite
/// values become `null` (JSON has no NaN/Inf).
#[must_use]
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
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

    /// The number as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
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

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, and a stack overflow aborts the process
/// where no caller can catch it, so a deeper document is an error.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document.
///
/// # Errors
/// Returns a human-readable message (with a byte offset) on malformed
/// input, trailing non-whitespace, or nesting deeper than
/// [`MAX_DEPTH`] levels.
pub fn parse(src: &str) -> Result<Value, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(src, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

/// Parse the value at `pos`, which sits inside `depth` open arrays and
/// objects.
fn parse_value(src: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(src, bytes, pos, depth + 1),
        Some(b'[') => parse_array(src, bytes, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(src, bytes, pos)?)),
        Some(b't') => parse_keyword(src, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(src, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(src, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(src, bytes, pos),
        _ => Err(format!("unexpected input at byte {}", *pos)),
    }
}

fn parse_keyword(src: &str, pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
    if src[*pos..].starts_with(word) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("expected '{word}' at byte {}", *pos))
    }
}

fn parse_number(src: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    src[start..*pos]
        .parse::<f64>()
        .map(Value::Num)
        .map_err(|e| format!("bad number at byte {start}: {e}"))
}

fn parse_string(src: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
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
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                        *pos += 4;
                        // Surrogate pairs never occur in this
                        // workspace's writers; map lone surrogates to
                        // the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape '\\{}'", other as char)),
                }
            }
            _ => {
                // Multi-byte UTF-8 sequences pass through verbatim.
                let ch_start = *pos;
                let ch = src[ch_start..]
                    .chars()
                    .next()
                    .ok_or_else(|| "invalid utf-8".to_string())?;
                *pos += ch.len_utf8();
                out.push(ch);
            }
        }
    }
}

fn parse_object(src: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(src, bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(src, bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(src: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(src, bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
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
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "\"open", "{\"a\" 1}", "1 2", ""] {
            assert!(parse(bad).is_err(), "'{bad}' should not parse");
        }
    }
}
