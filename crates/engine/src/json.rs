//! Minimal JSON reader/writer for scenario specs and run reports.
//!
//! The build environment cannot pull `serde`, so the engine carries its own
//! ~200-line JSON layer: a [`Value`] tree, a recursive-descent parser with
//! a nesting limit, and a writer. It supports exactly the JSON the engine
//! emits — objects, arrays, strings, finite numbers, booleans, and null —
//! which is sufficient for lossless `ScenarioSpec` round-trips.

use crate::error::EngineError;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document node. Object keys are sorted (`BTreeMap`), so encoding
/// is canonical and diffs are stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any finite number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object constructor from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Borrow a field of an object.
    ///
    /// # Errors
    /// Returns [`EngineError::Json`] when `self` is not an object or the
    /// field is absent.
    pub fn field(&self, name: &str) -> Result<&Value, EngineError> {
        match self {
            Value::Obj(m) => m
                .get(name)
                .ok_or_else(|| EngineError::Json(format!("missing field `{name}`"))),
            _ => Err(EngineError::Json(format!(
                "expected object with field `{name}`"
            ))),
        }
    }

    /// Optional field (absent or `null` → `None`).
    pub fn opt_field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => match m.get(name) {
                Some(Value::Null) | None => None,
                Some(v) => Some(v),
            },
            _ => None,
        }
    }

    /// Numeric value.
    ///
    /// # Errors
    /// Returns [`EngineError::Json`] when `self` is not a number.
    pub fn as_f64(&self) -> Result<f64, EngineError> {
        match self {
            Value::Num(x) => Ok(*x),
            _ => Err(EngineError::Json(format!("expected number, got {self:?}"))),
        }
    }

    /// Non-negative integer value.
    ///
    /// # Errors
    /// Returns [`EngineError::Json`] for non-numbers and numbers that are
    /// not exact non-negative integers.
    pub fn as_u64(&self) -> Result<u64, EngineError> {
        let x = self.as_f64()?;
        if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 {
            Ok(x as u64)
        } else {
            Err(EngineError::Json(format!(
                "expected unsigned integer, got {x}"
            )))
        }
    }

    /// Unsigned 32-bit value.
    ///
    /// # Errors
    /// Same as [`Value::as_u64`], plus range.
    pub fn as_u32(&self) -> Result<u32, EngineError> {
        let x = self.as_u64()?;
        u32::try_from(x).map_err(|_| EngineError::Json(format!("{x} exceeds u32")))
    }

    /// String value.
    ///
    /// # Errors
    /// Returns [`EngineError::Json`] when `self` is not a string.
    pub fn as_str(&self) -> Result<&str, EngineError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(EngineError::Json(format!("expected string, got {self:?}"))),
        }
    }

    /// Array elements.
    ///
    /// # Errors
    /// Returns [`EngineError::Json`] when `self` is not an array.
    pub fn as_arr(&self) -> Result<&[Value], EngineError> {
        match self {
            Value::Arr(items) => Ok(items),
            _ => Err(EngineError::Json(format!("expected array, got {self:?}"))),
        }
    }

    /// Boolean value.
    ///
    /// # Errors
    /// Returns [`EngineError::Json`] when `self` is not a boolean.
    pub fn as_bool(&self) -> Result<bool, EngineError> {
        match self {
            Value::Bool(b) => Ok(*b),
            _ => Err(EngineError::Json(format!("expected bool, got {self:?}"))),
        }
    }

    /// Serialize to a compact JSON string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => {
                // `{:?}` prints f64 with round-trip precision.
                let _ = write!(out, "{x:?}");
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document.
    ///
    /// # Errors
    /// Returns [`EngineError::Json`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Value, EngineError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(EngineError::Json(format!("trailing data at byte {pos}")));
        }
        Ok(v)
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn fail(pos: usize, what: &str) -> EngineError {
    EngineError::Json(format!("{what} at byte {pos}"))
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), EngineError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(fail(*pos, "unexpected token"))
    }
}

/// Deepest array/object nesting [`Value::parse`] accepts. Specs nest at
/// most 4 deep; the limit keeps a hostile document from exhausting the
/// stack of the recursive parser.
const MAX_DEPTH: usize = 128;

/// Parse one value whose enclosing arrays and objects number `depth`.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, EngineError> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(fail(
            *pos,
            &format!("array/object nesting deeper than {MAX_DEPTH}"),
        ));
    }
    match b.get(*pos) {
        None => Err(fail(*pos, "unexpected end of input")),
        Some(b'n') => expect(b, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(fail(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(fail(*pos, "expected `:`"));
                }
                *pos += 1;
                map.insert(key, parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(fail(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, EngineError> {
    if b.get(*pos) != Some(&b'"') {
        return Err(fail(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(fail(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        let c = if (0xD800..0xDC00).contains(&code) {
                            // High surrogate: a \uXXXX low surrogate must
                            // follow; combine the pair.
                            if b.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                                return Err(fail(*pos, "unpaired high surrogate"));
                            }
                            let low = parse_hex4(b, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(fail(*pos, "invalid low surrogate"));
                            }
                            *pos += 6;
                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                        } else {
                            code
                        };
                        out.push(char::from_u32(c).ok_or_else(|| fail(*pos, "bad code point"))?);
                    }
                    _ => return Err(fail(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character.
                let rest =
                    std::str::from_utf8(&b[*pos..]).map_err(|_| fail(*pos, "invalid UTF-8"))?;
                let c = rest
                    .chars()
                    .next()
                    .ok_or_else(|| fail(*pos, "empty char"))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Four hex digits starting at `at`, as a code unit.
fn parse_hex4(b: &[u8], at: usize) -> Result<u32, EngineError> {
    let hex = b
        .get(at..at + 4)
        .ok_or_else(|| fail(at, "truncated \\u escape"))?;
    u32::from_str_radix(
        std::str::from_utf8(hex).map_err(|_| fail(at, "bad \\u escape"))?,
        16,
    )
    .map_err(|_| fail(at, "bad \\u escape"))
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, EngineError> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| fail(start, "bad number"))?;
    let x: f64 = text.parse().map_err(|_| fail(start, "bad number"))?;
    if !x.is_finite() {
        return Err(fail(start, "non-finite number"));
    }
    Ok(Value::Num(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let src = r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\"y\n"}"#;
        let v = Value::parse(src).unwrap();
        let re = Value::parse(&v.encode()).unwrap();
        assert_eq!(v, re);
        assert_eq!(
            v.field("a").unwrap(),
            &Value::Arr(vec![Value::Num(1.0), Value::Num(2.5), Value::Num(-300.0)])
        );
        assert!(v.field("b").unwrap().field("c").unwrap().as_bool().unwrap());
        assert_eq!(v.field("e").unwrap().as_str().unwrap(), "x\"y\n");
    }

    #[test]
    fn integers_roundtrip_exactly() {
        for x in [0u64, 1, 42, 1_000_000, 1 << 52] {
            let v = Value::parse(&Value::Num(x as f64).encode()).unwrap();
            assert_eq!(v.as_u64().unwrap(), x);
        }
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [1.0 / 3.0, 2.07e-5, f64::MIN_POSITIVE, 1e300, -0.125] {
            let v = Value::parse(&Value::Num(x).encode()).unwrap();
            assert_eq!(v.as_f64().unwrap(), x);
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Value::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{1F600}");
        // unpaired or malformed surrogates are rejected
        assert!(Value::parse(r#""\ud83d""#).is_err());
        assert!(Value::parse(r#""\ud83dx""#).is_err());
        assert!(Value::parse(r#""\ud83d\u0041""#).is_err());
    }

    #[test]
    fn errors_on_malformed_input() {
        for bad in ["{", "[1,", "\"abc", "tru", "{\"a\" 1}", "1 2", "nan"] {
            assert!(Value::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_limited() {
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&nested(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Value::parse(&objects).is_err());
        assert!(Value::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn missing_field_reported() {
        let v = Value::parse("{}").unwrap();
        assert!(matches!(v.field("x"), Err(EngineError::Json(_))));
        assert!(v.opt_field("x").is_none());
        let v = Value::parse(r#"{"x": null}"#).unwrap();
        assert!(v.opt_field("x").is_none());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert!(Value::Num(1.5).as_u64().is_err());
        assert!(Value::Num(-1.0).as_u64().is_err());
        assert_eq!(Value::Num(7.0).as_u32().unwrap(), 7);
    }
}
