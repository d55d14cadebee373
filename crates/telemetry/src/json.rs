//! JSON for everything the workspace persists: a writer for the flat
//! (non-nested) objects of the event stream, the metrics serializer and
//! run records, and the one JSON reader, [`parse_json`].
//!
//! A flat object holds string, finite-number and null values only;
//! [`parse_flat_object`] reads one through [`parse_json`] and refuses
//! anything else. Strings are escaped on write and unescaped on read,
//! so both sides agree on every value. Both halves are deliberately
//! small so the workspace stays dependency-free.

use std::borrow::Cow;
use std::fmt::Write;

/// `s` with `"`, `\` and control characters escaped for a JSON string
/// (borrowed unchanged when it holds none, the common case).
pub(crate) fn escape(s: &str) -> Cow<'_, str> {
    if !s.contains(['"', '\\']) && !s.bytes().any(|b| b < 0x20) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Incrementally builds one flat JSON object.
///
/// ```
/// use coolpim_telemetry::json::JsonBuilder;
/// let mut b = JsonBuilder::new();
/// b.u64("t_ps", 12).str("phase", "Normal").f64("temp_c", 83.5);
/// assert_eq!(b.finish(), r#"{"t_ps":12,"phase":"Normal","temp_c":83.5}"#);
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonBuilder {
    buf: String,
}

impl JsonBuilder {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens field `key`: the separator, then `"key":`.
    fn key(&mut self, key: &str) {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\":");
    }

    /// Appends an unsigned integer field.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Appends a float field (`null` for non-finite values — JSON has no
    /// NaN/Inf). `{}` on f64 is Rust's shortest round-trippable decimal.
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Appends a string field, escaping it.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    /// Appends an integer field only when present.
    pub fn opt_u64(&mut self, key: &str, v: Option<u64>) -> &mut Self {
        if let Some(v) = v {
            self.u64(key, v);
        }
        self
    }

    /// Closes the object and returns it (an empty builder yields `{}`).
    pub fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

/// The fields of one flat JSON object, in document order; each value is
/// a [`JsonValue::Num`], [`JsonValue::Str`] or [`JsonValue::Null`].
#[derive(Debug, Clone)]
pub struct FlatObject {
    fields: Vec<(String, JsonValue)>,
}

impl FlatObject {
    /// The raw value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Iterates `(key, value)` pairs in document order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &JsonValue)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// String value of `key` (None if absent or not a string).
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// Float value of `key` (`null` reads back as NaN).
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            JsonValue::Null => Some(f64::NAN),
            v => v.as_f64(),
        }
    }

    /// Non-negative integer value of `key`.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }
}

/// Parses one flat object: `{"key":value,...}` with string, number, and
/// null values. Returns `None` on anything else (malformed JSON, a
/// non-object document, nested objects, arrays, booleans).
pub fn parse_flat_object(line: &str) -> Option<FlatObject> {
    let JsonValue::Obj(fields) = parse_json(line).ok()? else {
        return None;
    };
    fields
        .iter()
        .all(|(_, v)| matches!(v, JsonValue::Num(_) | JsonValue::Str(_) | JsonValue::Null))
        .then_some(FlatObject { fields })
}

/// A parsed JSON value. Nested values occur in the Chrome trace format
/// (arrays and an `args` object); everything else this crate persists
/// is a flat object, read through [`parse_flat_object`].
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as f64.
    Num(f64),
    /// A string (standard escapes interpreted).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Field `key` of an object (None otherwise).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses one JSON document (objects, arrays, strings with escapes,
/// numbers, booleans, null). Rejects trailing garbage.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let b = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    JsonValue::Str(s) => s,
                    _ => return Err(format!("object key at byte {pos} is not a string")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(JsonValue::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'u') => {
                                let hex =
                                    b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                    16,
                                )
                                .map_err(|_| "bad \\u escape")?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {pos}")),
                        }
                        *pos += 1;
                    }
                    Some(&lead) => {
                        // Advance over one UTF-8 scalar, decoding only its
                        // own bytes (the lead byte gives the width), so a
                        // long document parses in linear time.
                        let width = match lead {
                            0..=0x7f => 1,
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        let c = b
                            .get(*pos..*pos + width)
                            .and_then(|w| std::str::from_utf8(w).ok())
                            .and_then(|w| w.chars().next())
                            .ok_or_else(|| format!("invalid UTF-8 at byte {pos}"))?;
                        s.push(c);
                        *pos += width;
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let tok = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
            tok.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| format!("bad number {tok:?} at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_writes_all_value_kinds() {
        let mut b = JsonBuilder::new();
        b.u64("a", 7)
            .f64("b", 1.5)
            .f64("c", f64::NAN)
            .str("d", "x")
            .opt_u64("e", None)
            .opt_u64("f", Some(9));
        assert_eq!(b.finish(), r#"{"a":7,"b":1.5,"c":null,"d":"x","f":9}"#);
    }

    #[test]
    fn empty_builder_yields_empty_object() {
        assert_eq!(JsonBuilder::new().finish(), "{}");
    }

    #[test]
    fn parse_round_trips_builder_output() {
        let mut b = JsonBuilder::new();
        b.u64("n", 42).str("s", "hello").f64("x", -2.25);
        let o = parse_flat_object(&b.finish()).unwrap();
        assert_eq!(o.u64_field("n"), Some(42));
        assert_eq!(o.str_field("s"), Some("hello"));
        assert_eq!(o.f64_field("x"), Some(-2.25));
        assert!(o.get("missing").is_none());
        assert_eq!(o.iter().count(), 3);
    }

    #[test]
    fn quotes_and_backslashes_round_trip() {
        let tricky = r#"a "quoted" C:\path\ and \" end"#;
        let mut b = JsonBuilder::new();
        b.str("s", tricky).str(r#"k"\"#, "v").u64("n", 1);
        let json = b.finish();
        let o = parse_flat_object(&json).unwrap_or_else(|| panic!("rejected {json}"));
        assert_eq!(o.str_field("s"), Some(tricky));
        assert_eq!(o.str_field(r#"k"\"#), Some("v"));
        assert_eq!(o.u64_field("n"), Some(1));
        // A value without either character is written as is.
        assert_eq!(escape("plain"), Cow::Borrowed("plain"));
    }

    #[test]
    fn null_reads_back_as_nan() {
        let o = parse_flat_object(r#"{"x":null}"#).unwrap();
        assert!(o.f64_field("x").unwrap().is_nan());
        assert_eq!(o.u64_field("x"), None);
    }

    #[test]
    fn malformed_objects_are_rejected() {
        for bad in [
            "",
            "{",
            "not json",
            "[]",
            r#""s""#,
            r#"{"a":}"#,
            r#"{"a":1 "b":2}"#,
            r#"{"a":[1]}"#,
            r#"{"a":1,}"#,
            r#"{"a":true}"#,
            r#"{"a":{"b":1}}"#,
            r#"{"a":1} {"b":2}"#,
        ] {
            assert!(parse_flat_object(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn escaped_quotes_inside_strings_are_one_value() {
        let o = parse_flat_object(r#"{"a":"x\"y","b":2}"#).expect("valid flat JSON");
        assert_eq!(o.str_field("a"), Some("x\"y"));
        assert_eq!(o.u64_field("b"), Some(2));
    }

    #[test]
    fn fractional_numbers_are_not_u64() {
        let o = parse_flat_object(r#"{"x":1.5,"y":-3}"#).unwrap();
        assert_eq!(o.u64_field("x"), None);
        assert_eq!(o.u64_field("y"), None);
        assert_eq!(o.f64_field("y"), Some(-3.0));
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"s":"x\n\"y\"","o":{"b":true,"n":null}}"#)
            .expect("parses");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("o").unwrap().get("b"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("o").unwrap().get("n"), Some(&JsonValue::Null));
        // Multi-byte scalars of every width decode in place.
        assert_eq!(parse_json("\"aé→𝄞\"").unwrap().as_str(), Some("aé→𝄞"));
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("[1,").is_err());
    }
}
