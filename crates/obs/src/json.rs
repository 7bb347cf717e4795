//! Hand-rolled JSON writing and parsing — enough for the trace format,
//! with correct string escaping in both directions and no external
//! crates.

use std::fmt::Write as _;

/// Escape `s` per RFC 8259 and append it, without surrounding quotes.
pub fn escape_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Append `v` so it round-trips through [`Value::parse`]. Rust's
/// shortest-representation `Display` is exact for finite values;
/// infinities are written as overflowing literals (`parse` saturates
/// them back to the infinity), and NaN, which datasets refuse, as
/// `null`.
pub fn fmt_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v > 0.0 {
        out.push_str("1e999");
    } else if v < 0.0 {
        out.push_str("-1e999");
    } else {
        out.push_str("null");
    }
}

/// One row of coordinates as a JSON array, each value via [`fmt_f64`].
pub fn row_json(row: &[f64]) -> String {
    let mut out = String::with_capacity(row.len() * 8 + 2);
    push_row(row, &mut out);
    out
}

/// Rows of coordinates as a JSON array of arrays, each value via
/// [`fmt_f64`].
pub fn rows_json<'a>(rows: impl IntoIterator<Item = &'a [f64]>) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_row(row, &mut out);
    }
    out.push(']');
    out
}

fn push_row(row: &[f64], out: &mut String) {
    out.push('[');
    for (i, &v) in row.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        fmt_f64(v, out);
    }
    out.push(']');
}

/// Incremental writer for a single-line JSON object.
///
/// ```
/// use skyline_obs::json::ObjectWriter;
/// let mut w = ObjectWriter::new();
/// w.str_field("type", "span_start").u64_field("ts_us", 12);
/// assert_eq!(w.finish(), r#"{"type":"span_start","ts_us":12}"#);
/// ```
#[derive(Debug)]
pub struct ObjectWriter {
    buf: String,
    first: bool,
}

impl Default for ObjectWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectWriter {
    /// Start an empty object.
    pub fn new() -> Self {
        ObjectWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(k, &mut self.buf);
        self.buf.push_str("\":");
    }

    /// Add a string field.
    pub fn str_field(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push('"');
        escape_into(v, &mut self.buf);
        self.buf.push('"');
        self
    }

    /// Add an unsigned integer field.
    pub fn u64_field(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a float field (finite values only; non-finite become `null`).
    pub fn f64_field(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Add a boolean field.
    pub fn bool_field(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add an array-of-integers field.
    pub fn u64_array_field(&mut self, k: &str, vs: &[u64]) -> &mut Self {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{v}");
        }
        self.buf.push(']');
        self
    }

    /// Add a nested object field (the value must already be valid JSON).
    pub fn raw_field(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    /// Close the object and return the JSON text.
    pub fn finish(self) -> String {
        let mut buf = self.buf;
        buf.push('}');
        buf
    }
}

/// A parsed JSON value.
///
/// Numbers are kept as `f64`; integers are exact up to 2^53, far beyond
/// any counter a single run produces.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number
    Num(f64),
    /// String (unescaped)
    Str(String),
    /// Array
    Arr(Vec<Value>),
    /// Object, in source order
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse one complete JSON document from `s`.
    pub fn parse(s: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(vs) => Some(vs),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected '{}' at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair handling for completeness.
                            if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                out.push(char::from_u32(combined).ok_or("invalid surrogate pair")?);
                            } else {
                                out.push(char::from_u32(cp).ok_or("invalid \\u escape")?);
                            }
                        }
                        _ => return Err(format!("bad escape '\\{}'", esc as char)),
                    }
                }
                _ => {
                    // Re-scan from the byte we consumed to keep UTF-8 intact.
                    let start = self.pos - 1;
                    while let Some(&nb) = self.bytes.get(self.pos) {
                        if nb == b'"' || nb == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8 in string")?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "invalid \\u escape")?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| format!("invalid \\u escape '{hex}'"))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut vs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(vs));
        }
        loop {
            self.skip_ws();
            vs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(vs));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_compact_objects() {
        let mut w = ObjectWriter::new();
        w.str_field("type", "run_start")
            .u64_field("n", 1000)
            .f64_field("sigma", 2.5)
            .bool_field("boost", true)
            .u64_array_field("hist", &[1, 0, 3]);
        assert_eq!(
            w.finish(),
            r#"{"type":"run_start","n":1000,"sigma":2.5,"boost":true,"hist":[1,0,3]}"#
        );
    }

    #[test]
    fn empty_object() {
        assert_eq!(ObjectWriter::new().finish(), "{}");
        assert_eq!(Value::parse("{}").unwrap(), Value::Obj(vec![]));
    }

    #[test]
    fn escaping_round_trips_through_the_parser() {
        let nasty = "quote:\" backslash:\\ newline:\n tab:\t ctrl:\u{01} unicode:σ→π 🦀";
        let mut w = ObjectWriter::new();
        w.str_field(nasty, nasty);
        let line = w.finish();
        let v = Value::parse(&line).unwrap();
        match &v {
            Value::Obj(fields) => {
                assert_eq!(fields.len(), 1);
                assert_eq!(fields[0].0, nasty);
                assert_eq!(fields[0].1.as_str(), Some(nasty));
            }
            _ => panic!("expected object"),
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v =
            Value::parse(r#"{"a": [1, 2.5, -3, true, null], "b": {"c": "d"}, "e": 1e3}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
        assert_eq!(v.get("e").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Value::parse(r#""🦀""#).unwrap();
        assert_eq!(v.as_str(), Some("🦀"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse(r#"{"a" 1}"#).is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("123 456").is_err());
        assert!(Value::parse(r#""\q""#).is_err());
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = ObjectWriter::new();
        w.f64_field("x", f64::NAN);
        let line = w.finish();
        assert_eq!(line, r#"{"x":null}"#);
        assert_eq!(Value::parse(&line).unwrap().get("x"), Some(&Value::Null));
    }
}
