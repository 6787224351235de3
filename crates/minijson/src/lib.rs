//! A tiny, dependency-free JSON library: a [`Value`] model, a recursive
//! descent parser and compact/pretty writers.
//!
//! The workspace builds fully offline (no `serde`/`serde_json`), and its JSON
//! needs are small — persisting graph snapshots, statistics and experiment
//! reports — so this hand-rolled implementation covers exactly that: objects,
//! arrays, strings (with escape handling), finite numbers, booleans and
//! null.  Non-finite numbers serialise as `null`, matching `serde_json`.
//!
//! # Numbers
//!
//! A number is a finite `f64`.  [`Value::parse`] reads a number token as
//! `str::parse::<f64>` does, except that it refuses a token whose value
//! overflows to ±∞ (`1e400`), which the writers could only print back as
//! `null` (RFC 8259 lets a parser limit the range of numbers it accepts).
//! The writers print a finite `x` as `write!("{x}")` does — the shortest
//! decimal that reads back as `x`, never in exponent form — except that an
//! integral `|x| < 10^15` prints as the integer `x as i64` (no `.0`, like
//! serde_json; `-0.0` prints `0`).
//! Query reports are mostly counts and frequencies `k/2^j`, so each
//! direction has an exact fast path for them, with the same bits or bytes
//! as those standard-library calls:
//!
//! - **Parsing** (Clinger, "How to Read Floating Point Numbers
//!   Accurately", PLDI 1990).  A token of digits with at most one `.`
//!   (after an optional `-`), whose digits read as an integer `m ≤ 2^53`
//!   with `k ≤ 22` of them after the point, is `m / 10^k`, negated for
//!   the `-`.  Both operands are exact `f64`s (every integer up to 2^53
//!   is, and so is `10^k = 2^k·5^k` while `5^k < 2^53`), and IEEE division
//!   rounds their exact quotient — the token's value — correctly, as
//!   `str::parse` does.  Any other token (an exponent, a longer mantissa,
//!   more fraction digits) is scanned on from where that pass stopped and
//!   handed to `str::parse` whole, so token boundaries, accepted inputs,
//!   values and error offsets are those of a plain `str::parse` of it
//!   (less the overflows above).
//! - **Writing.**  An integral `|x| < 10^15` prints its digits.  A
//!   non-integral `x = ±m·2^-j` with `m` odd, `j ≤ 19` and `m·5^j < 10^15`
//!   *is* the decimal `m·5^j / 10^j`, which has at most 15 significant
//!   digits and no trailing zero (`m·5^j` is odd).  With
//!   `10^e ≤ |x| < 10^(e+1)`, every other decimal of at most 15
//!   significant digits lies at least `10^(e−14)` from `x`, more than half
//!   an ulp of `x` (at most `2^-53·|x| < 10^(e−14)`), so none of them reads
//!   back as `x`: the expansion is the unique shortest round-trip string,
//!   which is what `{x}` prints.  Every other finite `x` goes to `{x}`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// The deepest nesting of arrays and objects [`Value::parse`] accepts.  The
/// parser recurses once per level, so without a bound one line of `[`s
/// overflows the thread's stack and aborts the process; 128 is far above
/// any document this workspace reads or writes.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset at which parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Parses a JSON document.
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.parse_value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after document"));
        }
        Ok(value)
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders the value as pretty-printed JSON (two-space indent).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => write_number(out, *x),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, depth + 1)
            }),
            Value::Obj(entries) => {
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i| {
                    write_string(out, &entries[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    entries[i].1.write(out, indent, depth + 1)
                })
            }
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= usize::MAX as f64 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a slice of items, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: `get(key)` then [`Value::as_f64`].
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// Convenience: `get(key)` then [`Value::as_usize`].
    pub fn get_usize(&self, key: &str) -> Option<usize> {
        self.get(key)?.as_usize()
    }

    /// Convenience: `get(key)` then [`Value::as_str`].
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}
impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::Num(x as f64)
    }
}
impl From<bool> for Value {
    fn from(x: bool) -> Self {
        Value::Bool(x)
    }
}
impl From<&str> for Value {
    fn from(x: &str) -> Self {
        Value::Str(x.to_string())
    }
}
impl From<String> for Value {
    fn from(x: String) -> Self {
        Value::Str(x)
    }
}
impl From<Vec<Value>> for Value {
    fn from(x: Vec<Value>) -> Self {
        Value::Arr(x)
    }
}

/// Builder for [`Value::Obj`] preserving insertion order.
#[derive(Debug, Default, Clone)]
pub struct ObjBuilder {
    entries: Vec<(String, Value)>,
}

impl ObjBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a field.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.entries.push((key.to_string(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Value {
        Value::Obj(self.entries)
    }
}

/// The largest `j` of the writer's dyadic fast path.
const MAX_J: usize = 19;

/// `5^j` for `j ≤ MAX_J`.
const POW5: [u64; MAX_J + 1] = {
    let mut table = [1u64; MAX_J + 1];
    let mut j = 1;
    while j <= MAX_J {
        table[j] = table[j - 1] * 5;
        j += 1;
    }
    table
};

/// `10^15`: both writer fast paths print fewer significant digits.
const DIGITS_LIMIT: u64 = 1_000_000_000_000_000;

fn write_number(out: &mut String, x: f64) {
    use std::fmt::Write as _;
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let mut buf = [0u8; 24];
    match fast_number(x, &mut buf) {
        Some(at) => out.extend(buf[at..].iter().map(|&b| char::from(b))),
        None => {
            // Formatting into a `String` cannot fail.
            let _ = write!(out, "{x}");
        }
    }
}

/// Writes the text `write!("{x}")` prints for a finite `x` into the tail of
/// `buf` and returns where it starts, when one of the writer's fast paths
/// in the [crate docs](crate) covers `x`: an integral `|x| < 10^15` (the
/// text of `x as i64`, so `-0.0` prints `0`), or `x = ±m·2^-j` with `m`
/// odd, `1 ≤ j ≤ 19` and `m·5^j < 10^15` (the exact decimal `m·5^j / 10^j`).
fn fast_number(x: f64, buf: &mut [u8; 24]) -> Option<usize> {
    // A normal x is `mantissa · 2^(exponent − 1075)`; dropping the
    // mantissa's trailing zeros leaves `x = ±m · 2^e` with m odd.
    // Subnormals (exponent 0) have e ≤ −1023 and fall back.
    let bits = x.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as i32;
    let mantissa = (bits & ((1 << 52) - 1)) | (1 << 52);
    let zeros = mantissa.trailing_zeros();
    let e = exponent + zeros as i32 - 1075;
    let (mut digits, point) = if x == 0.0 || e >= 0 {
        (x.abs() as u64, 0)
    } else if e < -(MAX_J as i32) {
        return None;
    } else {
        let j = e.unsigned_abs() as usize;
        ((mantissa >> zeros).checked_mul(POW5[j])?, j)
    };
    if digits >= DIGITS_LIMIT {
        return None;
    }
    // Digits from the right, with a `.` after the `point` fractional ones
    // and a leading `0` before it when |x| < 1 (`m·5^j` is odd times a
    // power of 5, so it never ends in `0`).
    let mut at = buf.len();
    let mut written = 0;
    loop {
        if point > 0 && written == point {
            at -= 1;
            buf[at] = b'.';
        }
        at -= 1;
        buf[at] = b'0' + (digits % 10) as u8;
        digits /= 10;
        written += 1;
        if digits == 0 && written > point {
            break;
        }
    }
    if x < 0.0 {
        at -= 1;
        buf[at] = b'-';
    }
    Some(at)
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut write_item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        write_item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
}

/// The parser's fast path takes mantissas up to 2^53: each is an exact
/// `f64`.
const FAST_MANTISSA_MAX: u64 = 1 << 53;

/// `10^k` for `k ≤ 22`, each an exact `f64` (`5^22 < 2^53`).
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Whether `c` continues a number token.
fn is_number_byte(c: u8) -> bool {
    c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Value::Bool(true)),
            Some(b'f') => self.parse_literal("false", Value::Bool(false)),
            Some(b'n') => self.parse_literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_literal(&mut self, literal: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{literal}`")))
        }
    }

    /// A number token is an optional `-`, then every following digit, `.`,
    /// `e`, `E`, `+` and `-`; `str::parse` decides whether it is a number,
    /// and a number that overflows to ±∞ is refused.  The fast path of the
    /// [crate docs](crate) reads the leading digits and `.` first; unless
    /// they are the whole token and exact, the scan resumes where it
    /// stopped.
    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Once the mantissa passes 2^53 the fast path cannot apply, so the
        // pass stops there (leading zeros leave it 0 and cost nothing); a
        // mantissa of at most 2^53 · 10 + 9 fits a u64.
        let (mut mantissa, mut digits, mut point) = (0u64, 0usize, None);
        loop {
            match self.peek() {
                Some(c @ b'0'..=b'9') if mantissa <= FAST_MANTISSA_MAX => {
                    mantissa = mantissa * 10 + u64::from(c - b'0');
                    digits += 1;
                }
                Some(b'.') if point.is_none() => point = Some(digits),
                _ => break,
            }
            self.pos += 1;
        }
        let fraction = digits - point.unwrap_or(digits);
        if digits > 0
            && !self.peek().is_some_and(is_number_byte)
            && mantissa <= FAST_MANTISSA_MAX
            && fraction < POW10.len()
        {
            let x = mantissa as f64 / POW10[fraction];
            return Ok(Value::Num(if negative { -x } else { x }));
        }
        while self.peek().is_some_and(is_number_byte) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid utf-8 in number"))?;
        let message = match text.parse::<f64>() {
            Ok(x) if x.is_finite() => return Ok(Value::Num(x)),
            Ok(_) => format!("number {text:?} is out of range"),
            Err(_) => format!("invalid number {text:?}"),
        };
        Err(JsonError {
            offset: start,
            message,
        })
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.error("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by this
                            // workspace; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run of unescaped bytes at once and
                    // validate UTF-8 over just that run: a byte-at-a-time
                    // loop that re-validates the remaining input per scalar
                    // is quadratic, and protocol payloads (boundary
                    // records) put 100 KB+ strings through this path.
                    // Multi-byte UTF-8 units are all >= 0x80, so scanning
                    // for the `"` / `\` delimiters bytewise is safe.
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| {
                        JsonError {
                            offset: start,
                            message: "invalid utf-8 in string".to_string(),
                        }
                    })?;
                    out.push_str(run);
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let value = ObjBuilder::new()
            .field("name", "graph \"x\"\n")
            .field("n", 42usize)
            .field("p", 0.25)
            .field("ok", true)
            .field(
                "edges",
                Value::Arr(vec![
                    Value::Arr(vec![0usize.into(), 1usize.into(), 0.5.into()]),
                    Value::Arr(vec![1usize.into(), 2usize.into(), 0.125.into()]),
                ]),
            )
            .field("nothing", Value::Null)
            .build();
        for rendered in [value.render(), value.pretty()] {
            let back = Value::parse(&rendered).unwrap();
            assert_eq!(back, value, "{rendered}");
        }
    }

    #[test]
    fn accessors_extract_typed_values() {
        let v = Value::parse(r#"{"a": 3, "b": "x", "c": [1, 2], "d": true, "e": 1.5}"#).unwrap();
        assert_eq!(v.get_usize("a"), Some(3));
        assert_eq!(v.get_str("b"), Some("x"));
        assert_eq!(v.get("c").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get_f64("e"), Some(1.5));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get_usize("e"), None, "fractional numbers are not usize");
    }

    #[test]
    fn float_precision_survives_round_trip() {
        let x = 0.123_456_789_012_345_68_f64;
        let v = Value::Num(x);
        let back = Value::parse(&v.render()).unwrap();
        assert_eq!(back.as_f64(), Some(x), "shortest-round-trip formatting");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"abc",
            "{} extra",
            "[1,]",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Value::parse(&arrays(MAX_DEPTH)).is_ok());
        let objects = |depth: usize| "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
        assert!(Value::parse(&objects(MAX_DEPTH)).is_ok());
        for depth in [MAX_DEPTH + 1, 1_000_000] {
            for bad in [arrays(depth), objects(depth), "[".repeat(depth)] {
                let error = Value::parse(&bad).unwrap_err();
                assert_eq!(
                    error.message,
                    format!("nesting deeper than {MAX_DEPTH} levels"),
                    "depth {depth}"
                );
            }
        }
    }

    #[test]
    fn string_escapes_parse() {
        let v = Value::parse(r#""a\n\t\"\\A""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\A"));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
    }
}
