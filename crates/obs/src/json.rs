//! The workspace's one JSON reader.
//!
//! [`report::JsonObject`](crate::report::JsonObject) writes every
//! record; this module reads them back. [`Json::parse`] builds a plain
//! value tree, and typed readers (`FaultPlan::from_json`,
//! `ScenarioSpec::from_json`, era-lint's SARIF shape check, era-view's
//! verdict gate) walk it with the `as_*` accessors, whose errors carry
//! the byte offset of the offending value.
//!
//! Two choices follow from reading replay records and outside input:
//!
//! - Numbers keep their source text, and [`Json::as_u64`] parses that
//!   text exactly. Seeds are full-range `u64`; an `f64` would round any
//!   seed above 2^53.
//! - Nesting is capped at [`MAX_DEPTH`], so a hostile `[[[…` returns an
//!   error instead of overflowing the stack.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON document failed to parse or did not have the expected
/// shape: byte offset plus a static description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the JSON text where the problem was found (0
    /// for whole-document checks such as a spec's validation).
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// One parsed JSON value and the byte offset it starts at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Json {
    /// Byte offset of the value's first character.
    pub at: usize,
    /// The value itself.
    pub value: Value,
}

/// The six JSON value kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its (grammar-checked) source text.
    Num(String),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object's members in source order (duplicates kept; [`Json::get`]
    /// returns the last).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document; only whitespace may follow it.
    ///
    /// # Errors
    ///
    /// [`JsonError`] at the first malformed byte, at trailing input, or
    /// where nesting exceeds [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { s: text, i: 0 };
        let v = p.value(0)?;
        p.ws();
        if p.i != text.len() {
            return Err(p.err("trailing input"));
        }
        Ok(v)
    }

    /// An error located at this value.
    pub fn err(&self, msg: &'static str) -> JsonError {
        JsonError { at: self.at, msg }
    }

    /// The member `key` of an object (the last one, if repeated).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match &self.value {
            Value::Object(m) => m.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The members of an object, in source order; an error otherwise.
    pub fn as_object(&self) -> Result<&[(String, Json)], JsonError> {
        match &self.value {
            Value::Object(m) => Ok(m),
            _ => Err(self.err("expected an object")),
        }
    }

    /// The elements of an array; an error otherwise.
    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match &self.value {
            Value::Array(v) => Ok(v),
            _ => Err(self.err("expected an array")),
        }
    }

    /// The decoded text of a string; an error otherwise.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match &self.value {
            Value::Str(s) => Ok(s),
            _ => Err(self.err("expected a string")),
        }
    }

    /// A boolean; an error otherwise.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self.value {
            Value::Bool(b) => Ok(b),
            _ => Err(self.err("expected a boolean")),
        }
    }

    /// An unsigned integer, read exactly from the number's digits; an
    /// error for anything else (so `-1`, `1.5` and `1e3` fail) or a
    /// value that does not fit in a `u64`.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match &self.value {
            Value::Num(n) if n.bytes().all(|b| b.is_ascii_digit()) => {
                n.parse().map_err(|_| self.err("integer overflow"))
            }
            _ => Err(self.err("expected an unsigned integer")),
        }
    }
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { at: self.i, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.i += usize::from(hit);
        hit
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.i += 1;
        }
        self.i - start
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.ws();
        let at = self.i;
        let value = match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => return Err(self.err("nesting too deep")),
            Some(b'{') => Value::Object(self.seq(b'}', |p| p.member(depth + 1))?),
            Some(b'[') => Value::Array(self.seq(b']', |p| p.value(depth + 1))?),
            Some(b'"') => Value::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => self.number()?,
            _ => {
                let rest = &self.s[at..];
                let (lit, v) = [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ]
                .into_iter()
                .find(|(lit, _)| rest.starts_with(lit))
                .ok_or(self.err("expected a value"))?;
                self.i += lit.len();
                v
            }
        };
        Ok(Json { at, value })
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.i;
        self.eat(b'-');
        let int_at = self.i;
        let int_ok = match self.digits() {
            0 => false,
            n => n == 1 || self.s.as_bytes()[int_at] != b'0',
        };
        let frac_ok = !self.eat(b'.') || self.digits() > 0;
        let exp_ok = !(self.eat(b'e') || self.eat(b'E')) || {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits() > 0
        };
        if !(int_ok && frac_ok && exp_ok) {
            return Err(JsonError {
                at: start,
                msg: "malformed number",
            });
        }
        Ok(Value::Num(self.s[start..self.i].to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.i += 1; // '"'
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one go; all three are ASCII, so the slice is on a
            // char boundary.
            let run = self.s.as_bytes()[self.i..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or(self.err("unterminated string"))?;
            out.push_str(&self.s[self.i..self.i + run]);
            self.i += run;
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.i += 1,
                _ => return Err(self.err("control character in string")),
            }
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = self
                        .s
                        .get(self.i + 1..self.i + 5)
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or(self.err("bad \\u escape"))?;
                    self.i += 4;
                    char::from_u32(hex).unwrap_or('\u{fffd}')
                }
                _ => return Err(self.err("bad escape")),
            };
            out.push(c);
            self.i += 1;
        }
    }

    /// `item (',' item)*` between an opening bracket (the current
    /// byte) and `close`.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.i += 1;
        let mut out = Vec::new();
        self.ws();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.ws();
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or a closing bracket"));
            }
        }
    }

    fn member(&mut self, depth: usize) -> Result<(String, Json), JsonError> {
        self.ws();
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a member name"));
        }
        let key = self.string()?;
        self.ws();
        if !self.eat(b':') {
            return Err(self.err("expected ':'"));
        }
        Ok((key, self.value(depth)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_escapes_and_nesting() {
        let doc = Json::parse("{\"a\": [1, {\"b\": \"x\\n\\u0041é\"}, true, null]}").unwrap();
        let arr = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 4);
        assert_eq!(arr[1].get("b").unwrap().as_str(), Ok("x\nAé"));
        assert_eq!(arr[2].as_bool(), Ok(true));
        assert_eq!(arr[3].value, Value::Null);
        assert_eq!(arr[1].at, 10, "values carry their byte offset");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": 1,}",
            "[1 2]",
            "[1,]",
            "{\"a\" 1}",
            "{1: 2}",
            "tru",
            "\"open",
            "\"a\u{1}b\"",
            "\"\\x\"",
            "01",
            "1.",
            "1e",
            "-",
            "[] []",
            "{} trailing",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn last_duplicate_member_wins() {
        let doc = Json::parse("{\"k\": 1, \"k\": 2}").unwrap();
        assert_eq!(doc.get("k").unwrap().as_u64(), Ok(2));
        assert_eq!(doc.as_object().unwrap().len(), 2);
    }

    #[test]
    fn u64_is_exact_over_the_full_range() {
        let max = Json::parse("18446744073709551615").unwrap();
        assert_eq!(max.as_u64(), Ok(u64::MAX));
        // 2^53 + 1 is where an f64 would start rounding.
        assert_eq!(
            Json::parse("9007199254740993").unwrap().as_u64(),
            Ok(9_007_199_254_740_993)
        );
        let overflow = Json::parse("18446744073709551616").unwrap().as_u64();
        assert_eq!(overflow.unwrap_err().msg, "integer overflow");
        for not_u64 in ["-1", "1.5", "1e3", "-0", "\"7\"", "true"] {
            let v = Json::parse(not_u64).unwrap();
            assert!(v.as_u64().is_err(), "{not_u64:?} is not a u64");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert_eq!(Json::parse(&deep).unwrap_err().msg, "nesting too deep");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok(), "exactly MAX_DEPTH levels parse");
        let over = format!(
            "{}{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn errors_name_the_offset() {
        let err = Json::parse("{\"a\": [1, x]}").unwrap_err();
        assert_eq!(err.at, 10);
        assert_eq!(err.to_string(), "JSON error at byte 10: expected a value");
        let doc = Json::parse("{\"seed\": \"x\"}").unwrap();
        assert_eq!(doc.get("seed").unwrap().as_u64().unwrap_err().at, 9);
    }
}
