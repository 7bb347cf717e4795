//! Hand-rolled JSON writing and parsing — enough for the trace format,
//! with correct string escaping in both directions and no external
//! crates — and the record codec: [`Field`] and [`json_records!`](crate::json_records)
//! declare each JSON-lines record once and derive its writer and reader.

use std::fmt::Write as _;
use std::net::SocketAddr;

use crate::histogram::{Histogram, BUCKETS};

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
    push_array(row, &mut out);
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
        push_array(row, &mut out);
    }
    out.push(']');
    out
}

fn push_array<T: Field>(items: &[T], out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write(out);
    }
    out.push(']');
}

fn push_str(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// How one value type is written as a JSON value and read back out: the
/// per-field half of [`json_records!`](crate::json_records). Reading is
/// strict: a value of the wrong JSON type or out of the type's range is
/// `None`, never coerced.
pub trait Field: Sized {
    /// Append `self` as one JSON value.
    fn write(&self, out: &mut String);
    /// The value [`Field::write`] wrote, or `None`.
    fn read(v: &Value) -> Option<Self>;
}

macro_rules! integer_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn read(v: &Value) -> Option<$t> {
                v.as_u64()?.try_into().ok()
            }
        }
    )*};
}

integer_fields!(u64, u32, usize);

/// Coordinates, via [`fmt_f64`]: ±∞ round-trip, NaN does not.
impl Field for f64 {
    fn write(&self, out: &mut String) {
        fmt_f64(*self, out);
    }
    fn read(v: &Value) -> Option<f64> {
        v.as_f64()
    }
}

impl Field for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn read(v: &Value) -> Option<bool> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        push_str(self, out);
    }
    fn read(v: &Value) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

/// A network address, as its `ip:port` string.
impl Field for SocketAddr {
    fn write(&self, out: &mut String) {
        push_str(&self.to_string(), out);
    }
    fn read(v: &Value) -> Option<SocketAddr> {
        v.as_str()?.parse().ok()
    }
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut String) {
        push_array(self, out);
    }
    fn read(v: &Value) -> Option<Vec<T>> {
        v.as_arr()?.iter().map(T::read).collect()
    }
}

/// A stage list, as one object of `"stage": microseconds` pairs in
/// order.
impl Field for Vec<(String, u64)> {
    fn write(&self, out: &mut String) {
        let mut w = ObjectWriter::new();
        for (name, us) in self {
            w.u64_field(name, *us);
        }
        out.push_str(&w.finish());
    }
    fn read(v: &Value) -> Option<Vec<(String, u64)>> {
        match v {
            Value::Obj(pairs) => pairs
                .iter()
                .map(|(k, val)| Some((k.clone(), val.as_u64()?)))
                .collect(),
            _ => None,
        }
    }
}

/// A histogram, as `{"count","sum","min","max","buckets"}`.
impl Field for Histogram {
    fn write(&self, out: &mut String) {
        let mut w = ObjectWriter::new();
        w.u64_field("count", self.count())
            .u64_field("sum", self.sum())
            .u64_field("min", self.min())
            .u64_field("max", self.max())
            .u64_array_field("buckets", self.buckets());
        out.push_str(&w.finish());
    }
    fn read(v: &Value) -> Option<Histogram> {
        let num = |key| v.get(key)?.as_u64();
        let buckets: [u64; BUCKETS] = Vec::<u64>::read(v.get("buckets")?)?.try_into().ok()?;
        Some(Histogram::from_parts(
            buckets,
            num("count")?,
            num("sum")?,
            num("min")?,
            num("max")?,
        ))
    }
}

/// Declare a tagged enum of JSON-lines records once: the enum, and from
/// the same declaration its tag, a writer and a reader.
///
/// Each variant names the tag value it is written under, and its
/// fields, whose types implement [`Field`](crate::json::Field). A record
/// is one JSON object: the tag under the enum's tag key, then the fields
/// in declaration order. A field declared `= ""` is left out when empty
/// and read back as empty when absent. The reader ignores keys the
/// variant does not declare, and returns `None` for an unknown tag or a
/// missing or ill-typed field.
///
/// The generated methods are private to the declaring module:
/// `tag(&self) -> &'static str`, `to_json_with(&self, head)` (the record
/// as one line, with whatever `head` writes between the tag and the
/// fields) and `read(&Value) -> Option<Self>`.
///
/// ```
/// skyline_obs::json_records! {
///     #[derive(Debug, PartialEq)]
///     enum Op: "op" {
///         /// Add a row.
///         Insert = "insert" { v: u64, row: Vec<f64> },
///         /// A note, often empty.
///         Note = "note" { text: String = "" },
///     }
/// }
/// use skyline_obs::json::Value;
///
/// let insert = Op::Insert { v: 2, row: vec![0.5, f64::INFINITY] };
/// let line = insert.to_json_with(|w| {
///     w.u64_field("ts", 9);
/// });
/// assert_eq!(line, r#"{"op":"insert","ts":9,"v":2,"row":[0.5,1e999]}"#);
/// assert_eq!(Op::read(&Value::parse(&line).unwrap()), Some(insert));
///
/// let note = Op::Note { text: String::new() };
/// assert_eq!(note.to_json_with(|_| {}), r#"{"op":"note"}"#);
/// assert_eq!(Op::read(&Value::parse(r#"{"op":"note"}"#).unwrap()), Some(note));
/// assert_eq!(Op::read(&Value::parse(r#"{"op":"insert","v":2.5,"row":[]}"#).unwrap()), None);
/// ```
#[macro_export]
macro_rules! json_records {
    (@write $w:ident, $field:ident) => {
        $w.field(stringify!($field), $field);
    };
    (@write $w:ident, $field:ident, $default:literal) => {
        if *$field != $default {
            $w.field(stringify!($field), $field);
        }
    };
    (@read $v:ident, $field:ident) => {
        $crate::json::Field::read($v.get(stringify!($field))?)?
    };
    (@read $v:ident, $field:ident, $default:literal) => {
        match $v.get(stringify!($field)) {
            Some(x) => $crate::json::Field::read(x)?,
            None => $default.into(),
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident: $key:literal {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal {
                    $( $(#[$fmeta:meta])* $field:ident: $ty:ty $(= $default:literal)? ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty, )* }, )*
        }

        impl $name {
            /// The tag this record is written under.
            fn tag(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => $tag, )*
                }
            }

            /// The record as one JSON object: the tag, whatever `head`
            /// writes, then the fields in declaration order.
            fn to_json_with(&self, head: impl FnOnce(&mut $crate::json::ObjectWriter)) -> String {
                let mut w = $crate::json::ObjectWriter::new();
                w.str_field($key, self.tag());
                head(&mut w);
                match self {
                    $( $name::$variant { $($field),* } => {
                        $( $crate::json_records!(@write w, $field $(, $default)?); )*
                    } )*
                }
                w.finish()
            }

            /// The record `v` holds, or `None` for an unknown tag or a
            /// missing or ill-typed field.
            fn read(v: &$crate::json::Value) -> Option<$name> {
                Some(match v.get($key)?.as_str()? {
                    $( $tag => $name::$variant {
                        $( $field: $crate::json_records!(@read v, $field $(, $default)?), )*
                    }, )*
                    _ => return None,
                })
            }
        }
    };
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

    /// Add a field of any [`Field`] type.
    pub fn field<T: Field>(&mut self, k: &str, v: &T) -> &mut Self {
        self.key(k);
        v.write(&mut self.buf);
        self
    }

    /// Add a string field.
    pub fn str_field(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        push_str(v, &mut self.buf);
        self
    }

    /// Add an unsigned integer field.
    pub fn u64_field(&mut self, k: &str, v: u64) -> &mut Self {
        self.field(k, &v)
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
        self.field(k, &v)
    }

    /// Add an array-of-integers field.
    pub fn u64_array_field(&mut self, k: &str, vs: &[u64]) -> &mut Self {
        self.key(k);
        push_array(vs, &mut self.buf);
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

    /// The numeric payload as `u64`, if this is a whole number in
    /// `0..2^64`: a fraction, a negative number or a larger one is
    /// `None`, never truncated.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64 itself.
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
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
    use std::net::{Ipv4Addr, Ipv6Addr};

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

    #[test]
    fn as_u64_takes_only_whole_numbers_in_range() {
        for (text, want) in [
            ("0", Some(0)),
            ("7", Some(7)),
            ("1e3", Some(1000)),
            ("9007199254740992", Some(1 << 53)),
            ("0.9", None),
            ("2.5", None),
            ("-1", None),
            ("18446744073709551616", None),
            ("1e30", None),
            ("1e999", None),
            ("\"7\"", None),
            ("true", None),
            ("null", None),
        ] {
            assert_eq!(Value::parse(text).unwrap().as_u64(), want, "{text}");
        }
    }

    crate::json_records! {
        /// Every [`Field`] type, for the codec's round-trip property.
        #[derive(Debug, PartialEq)]
        enum Sample: "kind" {
            Numbers = "numbers" {
                big: u64,
                handle: u32,
                dims: usize,
                flag: bool,
                ids: Vec<u64>,
                handles: Vec<u32>,
            },
            Texts = "texts" { text: String, note: String = "", addr: SocketAddr },
            Rows = "rows" { row: Vec<f64>, stages: Vec<(String, u64)>, hist: Histogram },
        }
    }

    /// xorshift64: enough randomness for a seeded property loop.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Below 2^53, so the value is exact as a JSON number.
        fn count(&mut self) -> u64 {
            self.next() >> 11
        }

        fn text(&mut self) -> String {
            const CHARS: [char; 12] = [
                'a', 'Z', ' ', '/', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', 'σ', '🦀',
            ];
            (0..self.below(8))
                .map(|_| CHARS[self.below(12) as usize])
                .collect()
        }

        fn coordinate(&mut self) -> f64 {
            match self.below(4) {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                2 => self.below(1000) as f64 / 8.0 - 50.0,
                _ => Some(f64::from_bits(self.next()))
                    .filter(|x| !x.is_nan())
                    .unwrap_or(0.0),
            }
        }

        fn sample(&mut self) -> Sample {
            let len = self.below(5);
            match self.below(3) {
                0 => Sample::Numbers {
                    big: self.count(),
                    handle: self.next() as u32,
                    dims: self.count() as usize,
                    flag: self.next() & 1 == 1,
                    ids: (0..len).map(|_| self.count()).collect(),
                    handles: (0..len).map(|_| self.next() as u32).collect(),
                },
                1 => Sample::Texts {
                    text: self.text(),
                    note: self.text(),
                    addr: match self.below(2) {
                        0 => (Ipv4Addr::from(self.next() as u32), self.next() as u16).into(),
                        _ => (Ipv6Addr::from(u128::from(self.next()) << 64), 9).into(),
                    },
                },
                _ => Sample::Rows {
                    row: (0..len).map(|_| self.coordinate()).collect(),
                    stages: (0..len).map(|_| (self.text(), self.count())).collect(),
                    hist: {
                        let mut h = Histogram::new();
                        for _ in 0..len {
                            h.record(self.below(1 << 30));
                        }
                        h
                    },
                },
            }
        }
    }

    fn read_obj(fields: &[(String, Value)]) -> Option<Sample> {
        Sample::read(&Value::Obj(fields.to_vec()))
    }

    #[test]
    fn every_record_round_trips_or_is_rejected() {
        const INTEGER_FIELDS: [&str; 3] = ["big", "handle", "dims"];
        let wrong_types = [
            Value::Null,
            Value::Bool(true),
            Value::Num(3.0),
            Value::Str("x".into()),
            Value::Arr(vec![]),
            Value::Obj(vec![]),
        ];
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for _ in 0..2000 {
            let record = rng.sample();
            let line = record.to_json_with(|_| {});
            let Value::Obj(fields) = Value::parse(&line).unwrap() else {
                panic!("not an object: {line}");
            };
            assert_eq!(read_obj(&fields).as_ref(), Some(&record), "{line}");

            let mut unknown = fields.clone();
            unknown[0].1 = Value::Str("mystery".into());
            assert_eq!(read_obj(&unknown), None, "unknown tag: {line}");
            for i in 1..fields.len() {
                let (key, value) = &fields[i];
                let mut dropped = fields.clone();
                dropped.remove(i);
                match read_obj(&dropped) {
                    // `note` is declared `= ""`: absent reads as empty.
                    Some(Sample::Texts { note, .. }) if key == "note" => assert!(note.is_empty()),
                    other => assert_eq!(other, None, "dropped {key:?}: {line}"),
                }
                for wrong in &wrong_types {
                    if std::mem::discriminant(wrong) != std::mem::discriminant(value) {
                        let mut retyped = fields.clone();
                        retyped[i].1 = wrong.clone();
                        assert_eq!(read_obj(&retyped), None, "{key:?} as {wrong:?}: {line}");
                    }
                }
                let too_big = match key.as_str() {
                    "handle" | "handles" => 2f64.powi(32),
                    _ => 2f64.powi(64),
                };
                for bad in [2.5, -1.0, too_big] {
                    let mut out_of_range = fields.clone();
                    match &mut out_of_range[i] {
                        (k, v @ Value::Num(_)) if INTEGER_FIELDS.contains(&k.as_str()) => {
                            *v = Value::Num(bad)
                        }
                        (k, Value::Arr(items)) if k == "ids" || k == "handles" => {
                            match items.first_mut() {
                                Some(first) => *first = Value::Num(bad),
                                None => continue,
                            }
                        }
                        _ => continue,
                    }
                    assert_eq!(
                        read_obj(&out_of_range),
                        None,
                        "{key:?} with {bad:?}: {line}"
                    );
                }
            }
        }
    }
}
