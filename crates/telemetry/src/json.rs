//! The JSON reader: the counterpart of the [`JsonWriter`](crate::report::JsonWriter)
//! that renders run reports.
//!
//! [`parse`] turns text into a [`Value`] tree. It is total: every input,
//! however malformed, ends in a [`Value`] or a [`JsonError`] naming the
//! byte offset where reading stopped; it never panics, and nesting
//! deeper than [`MAX_DEPTH`] is an error rather than unbounded
//! recursion. A number must be finite as an `f64`, and a `\u` escape
//! must be four hex digits, with a high surrogate paired with a low one.
//!
//! Integers keep their exact value: a non-negative integer literal that
//! fits a `u64` reads as [`Value::U64`], a negative one that fits an
//! `i64` as [`Value::I64`], and anything else as [`Value::F64`].
//!
//! ```
//! use nm_telemetry::json::{parse, Value};
//!
//! let doc = parse(r#"{"schema_version": 2, "p99": 0.25}"#).unwrap();
//! assert_eq!(doc.get("schema_version"), Some(&Value::U64(2)));
//! assert_eq!(doc.get("p99"), Some(&Value::F64(0.25)));
//! assert!(parse("[[[1]]").is_err());
//! ```

use std::fmt;

/// Deepest nesting of arrays and objects [`parse`] accepts. Reports
/// nest four levels; anything past this is not a report.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
///
/// Objects keep their keys in document order, so a report's stable
/// section order survives the read.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer that fits a `u64`.
    U64(u64),
    /// A negative integer that fits an `i64`.
    I64(i64),
    /// Any other finite number.
    F64(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object as key/value pairs in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value of the first `key` field of an object (`None` for
    /// non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The pairs of an object (`None` otherwise).
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The items of an array (`None` otherwise).
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The text of a string (`None` otherwise).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Why [`parse`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The text ended inside a value.
    Eof,
    /// A character that cannot appear here.
    Unexpected,
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    TooDeep,
    /// A malformed number, or one that is not a finite `f64`.
    Number,
    /// An unknown escape, a `\u` that is not four hex digits, or an
    /// unpaired surrogate.
    Escape,
    /// Text after the top-level value.
    Trailing,
}

/// A [`parse`] failure and the byte offset it was found at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub kind: JsonErrorKind,
    /// Byte offset into the text.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            JsonErrorKind::Eof => f.write_str("unexpected end of input")?,
            JsonErrorKind::Unexpected => f.write_str("unexpected character")?,
            JsonErrorKind::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH} levels")?,
            JsonErrorKind::Number => f.write_str("invalid or non-finite number")?,
            JsonErrorKind::Escape => f.write_str("invalid escape")?,
            JsonErrorKind::Trailing => f.write_str("trailing characters")?,
        }
        write!(f, " at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document.
///
/// # Errors
///
/// A [`JsonError`] at the first byte that breaks the grammar, the depth
/// limit or the scalar rules above.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(p.error(JsonErrorKind::Trailing)),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    /// An error at the current byte: `Eof` past the end, `kind` otherwise.
    fn error(&self, kind: JsonErrorKind) -> JsonError {
        let kind = self.peek().map_or(JsonErrorKind::Eof, |_| kind);
        JsonError {
            kind,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Steps over `literal` if the text continues with it.
    fn eat(&mut self, literal: &str) -> bool {
        let found = self
            .text
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(literal));
        if found {
            self.pos += literal.len();
        }
        found
    }

    fn require(&mut self, literal: &str) -> Result<(), JsonError> {
        match self.eat(literal) {
            true => Ok(()),
            false => Err(self.error(JsonErrorKind::Unexpected)),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[' | b'{') if depth >= MAX_DEPTH => Err(self.error(JsonErrorKind::TooDeep)),
            Some(b'[') => self.items("]", |p| p.value(depth + 1)).map(Value::Array),
            Some(b'{') => self
                .items("}", |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.require(":")?;
                    p.skip_ws();
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Value::Object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error(JsonErrorKind::Unexpected)),
        }
    }

    /// Reads the comma-separated items of the container that opens at
    /// the current byte and ends with `close`.
    fn items<T>(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        self.skip_ws();
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            self.require(",")?;
            self.skip_ws();
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.require("\"")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The run stops at an ASCII byte or the end: a char boundary.
            out.push_str(self.text.get(start..self.pos).unwrap_or_default());
            if self.eat("\"") {
                return Ok(out);
            }
            self.require("\\")?;
            out.push(self.escape()?);
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let at = self.pos;
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    let low = if self.eat("\\u") { self.hex4()? } else { 0 };
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                // An unpaired surrogate is left without a `char`.
                return char::from_u32(code).ok_or(JsonError {
                    kind: JsonErrorKind::Escape,
                    offset: at,
                });
            }
            _ => return Err(self.error(JsonErrorKind::Escape)),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Four hex digits, no sign.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self.peek().and_then(|b| char::from(b).to_digit(16));
            code = code * 16 + digit.ok_or_else(|| self.error(JsonErrorKind::Escape))?;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.eat("-");
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = self.text.get(start..self.pos).unwrap_or_default();
        match (is_float, text.starts_with('-')) {
            (false, true) => text.parse().ok().map(Value::I64),
            (false, false) => text.parse().ok().map(Value::U64),
            (true, _) => None,
        }
        .or_else(|| {
            text.parse()
                .ok()
                .filter(|x: &f64| x.is_finite())
                .map(Value::F64)
        })
        .ok_or(JsonError {
            kind: JsonErrorKind::Number,
            offset: start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::JsonWriter;

    fn kind(text: &str) -> JsonErrorKind {
        match parse(text) {
            Ok(v) => panic!("{text:?} parsed as {v:?}"),
            Err(e) => e.kind,
        }
    }

    #[test]
    fn scalars() {
        assert_eq!(parse("18446744073709551615"), Ok(Value::U64(u64::MAX)));
        assert_eq!(parse("-7"), Ok(Value::I64(-7)));
        assert_eq!(parse("0.1"), Ok(Value::F64(0.1)));
        assert_eq!(parse("true"), Ok(Value::Bool(true)));
        assert_eq!(parse("\"a\\nb\""), Ok(Value::Str("a\nb".into())));
        // Integers past the exact types fall back to the nearest float.
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Value::F64(1.8446744073709552e19))
        );
        assert_eq!(
            parse("-9223372036854775809"),
            Ok(Value::F64(-9.223372036854776e18))
        );
        assert_eq!(
            parse(r#""\u00e9\ud83d\ude00""#),
            Ok(Value::Str("\u{e9}\u{1f600}".into()))
        );
    }

    #[test]
    fn floats_round_trip_exactly_through_the_writer() {
        for x in [
            0.1f64,
            1.0 / 3.0,
            1e-300,
            6.02214076e23,
            -0.0,
            42.0,
            f64::MAX,
        ] {
            let mut w = JsonWriter::new();
            w.f64(x);
            let text = w.finish();
            match parse(&text) {
                Ok(Value::F64(back)) => assert_eq!(back.to_bits(), x.to_bits(), "{text}"),
                other => panic!("{text}: {other:?}"),
            }
        }
    }

    #[test]
    fn containers() {
        let pair = |a, b| Value::Array(vec![Value::F64(a), Value::F64(b)]);
        assert_eq!(
            parse("[[1.5,2.0],[3.0,4.25]]"),
            Ok(Value::Array(vec![pair(1.5, 2.0), pair(3.0, 4.25)]))
        );
        assert_eq!(parse(" [ ] "), Ok(Value::Array(Vec::new())));
        assert_eq!(parse("{}"), Ok(Value::Object(Vec::new())));
        assert_eq!(parse("null"), Ok(Value::Null));
        assert_eq!(parse("3"), Ok(Value::U64(3)));
    }

    #[test]
    fn value_access() {
        let v = parse(r#"{"a": 1, "b": [true, null, "x"]}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Value::U64(1)));
        assert!(v.get("missing").is_none());
        assert_eq!(v.as_object().map(<[_]>::len), Some(2));
        let b = v.get("b").and_then(Value::as_array).unwrap();
        assert_eq!(b[2].as_str(), Some("x"));
        assert!(b[0].as_str().is_none() && b[0].get("a").is_none());
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        for bad in ["", "{", "[1,", "\"", "{\"a\"}", "tru", "1e", "[}", "nullx"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(kind("[1,"), JsonErrorKind::Eof);
        assert_eq!(kind("[1 2]"), JsonErrorKind::Unexpected);
        assert_eq!(kind("1 2"), JsonErrorKind::Trailing);
        assert_eq!(kind("\"a\u{1}\""), JsonErrorKind::Unexpected);
        assert_eq!(kind("\"\\x\""), JsonErrorKind::Escape);
        assert_eq!(parse("[1,]").unwrap_err().offset, 3);
    }

    #[test]
    fn non_finite_numbers_are_errors() {
        for bad in ["1e400", "-1e400", "[0.5, 1e999]", &"9".repeat(400)] {
            assert_eq!(kind(bad), JsonErrorKind::Number, "{bad:?}");
        }
        assert_eq!(parse("1e-400"), Ok(Value::F64(0.0)));
    }

    #[test]
    fn malformed_unicode_escapes_are_errors() {
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u00g1""#,
            r#""\u00""#,
        ] {
            assert_eq!(kind(bad), JsonErrorKind::Escape, "{bad}");
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.kind, err.offset), (JsonErrorKind::TooDeep, MAX_DEPTH));
        assert_eq!(kind(&nested(200_000)), JsonErrorKind::TooDeep);
        assert_eq!(kind(&"{\"a\":".repeat(200_000)), JsonErrorKind::TooDeep);
    }
}
