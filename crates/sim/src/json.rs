//! Minimal deterministic JSON document builder.
//!
//! The fault-injection campaign (and any other machine-readable report)
//! needs byte-stable output: two runs with the same seed must serialize
//! to identical text so reports can be diffed and golden-tested. This
//! module renders JSON with insertion-ordered object keys, two-space
//! indentation, and fixed-precision floats (no shortest-round-trip or
//! locale-dependent formatting).

use std::fmt::Write as _;

/// A JSON value. Objects preserve insertion order; floats carry an
/// explicit decimal precision so rendering is reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float rendered with a fixed number of decimals.
    Fixed(f64, usize),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// An empty object builder.
    pub fn object() -> ObjectBuilder {
        ObjectBuilder(Vec::new())
    }

    /// Parses a JSON document (accepts any JSON, not just this module's
    /// rendering). Integral numbers come back as [`Json::UInt`] /
    /// [`Json::Int`]; fractional ones as [`Json::Fixed`] with the decimal
    /// count they were written with.
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first syntax error, of
    /// the first container nested more than 64 levels deep, or of the
    /// first number outside the finite `f64` range.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a float (integers widen), when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            Json::Fixed(v, _) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, when it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the document with two-space indentation and a trailing
    /// newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the document on one line with no whitespace — the NDJSON
    /// form progress heartbeats stream (one object per line). Same
    /// deterministic number formatting as [`render`](Self::render).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Fixed(v, prec) => {
                // NaN/infinity are not representable in JSON: clamp to 0.
                let v = if v.is_finite() { *v } else { 0.0 };
                let _ = write!(out, "{v:.prec$}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

/// Incremental object construction preserving field order.
#[derive(Debug, Clone, Default)]
pub struct ObjectBuilder(Vec<(String, Json)>);

impl ObjectBuilder {
    /// Appends a field.
    #[must_use]
    pub fn field(mut self, key: &str, value: Json) -> Self {
        self.0.push((key.to_string(), value));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Json {
        Json::Object(self.0)
    }
}

/// Deepest container nesting [`Json::parse`] accepts. The parser recurses
/// once per level and its input comes from sockets and files, so without
/// a bound a frame of `[[[[…` overflows the stack and aborts the process.
/// The deepest document the product writes has 9 levels.
const MAX_DEPTH: usize = 64;

/// Recursive-descent parser over the raw bytes. Errors carry the byte
/// offset so malformed baselines are diagnosable.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object_value),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object_value(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
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
                            let code = self.hex4()?;
                            // Surrogate pairs join into one scalar; a lone
                            // surrogate degrades to the replacement char and
                            // whatever follows it is decoded on its own.
                            let mut c = char::from_u32(code);
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                let after_high = self.pos;
                                self.pos += 2;
                                let low = self.hex4()?;
                                if (0xDC00..0xE000).contains(&low) {
                                    c = char::from_u32(
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                                    );
                                } else {
                                    self.pos = after_high;
                                }
                            }
                            out.push(c.unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(&b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one full UTF-8 scalar (input is &str, so the
                    // byte boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| (b & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let text = std::str::from_utf8(chunk).map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        let mut frac_digits = 0usize;
        let mut fractional = false;
        if self.bytes.get(self.pos) == Some(&b'.') {
            fractional = true;
            self.pos += 1;
            while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
                frac_digits += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        // JSON has no infinity and `Fixed` never renders one: a literal
        // past `f64::MAX` is refused, not rounded to `inf`.
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Fixed(v, frac_digits.clamp(1, 17))),
            Ok(_) => Err(format!("number out of range at byte {start}")),
            Err(_) => Err(format!("invalid number at byte {start}")),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::Int(-3).render(), "-3\n");
        assert_eq!(Json::UInt(7).render(), "7\n");
        assert_eq!(Json::Fixed(1.5, 3).render(), "1.500\n");
        assert_eq!(Json::Fixed(f64::NAN, 2).render(), "0.00\n");
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let at_cap = format!("{}1{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
            assert!(Json::parse(&at_cap).is_ok(), "{open} at the cap");
            // The parser stops at the first container past the cap, so the
            // rest of the text does not matter.
            for depth in [MAX_DEPTH + 1, 1_000_000] {
                let err = Json::parse(&open.repeat(depth)).unwrap_err();
                assert!(
                    err.contains("nesting deeper than 64"),
                    "{open} x {depth}: {err}"
                );
                assert!(!err.contains('\n'));
            }
        }
        // Siblings do not count as depth.
        let wide = format!("[{}[]]", "[],".repeat(10_000));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::str("a\"b\\c\n").render(), "\"a\\\"b\\\\c\\n\"\n");
        assert_eq!(Json::str("\u{1}").render(), "\"\\u0001\"\n");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let doc = Json::object()
            .field("zeta", Json::UInt(1))
            .field("alpha", Json::Array(vec![Json::Int(1), Json::Int(2)]))
            .build();
        let text = doc.render();
        assert!(text.find("zeta").unwrap() < text.find("alpha").unwrap());
        assert_eq!(
            text,
            "{\n  \"zeta\": 1,\n  \"alpha\": [\n    1,\n    2\n  ]\n}\n"
        );
    }

    #[test]
    fn rendering_is_reproducible() {
        let mk = || {
            Json::object()
                .field("rate", Json::Fixed(0.05, 4))
                .field("runs", Json::Array(vec![Json::object().build()]))
                .build()
                .render()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = Json::object()
            .field("name", Json::str("uniform_random_4x4"))
            .field("cycles", Json::UInt(50_000))
            .field("delta", Json::Int(-3))
            .field("rate", Json::Fixed(0.0500, 4))
            .field("flag", Json::Bool(true))
            .field("nothing", Json::Null)
            .field("items", Json::Array(vec![Json::UInt(1), Json::UInt(2)]))
            .field("escaped", Json::str("a\"b\\c\n\u{1}"))
            .build();
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
        // Parse→render→parse is a fixed point.
        assert_eq!(Json::parse(&parsed.render()).unwrap(), parsed);
    }

    #[test]
    fn parse_accepts_foreign_json() {
        let parsed =
            Json::parse("{\"a\":[1,2.50,-7,1e3],\"b\":\"\\u0041\\ud83d\\ude00\"}").unwrap();
        assert_eq!(parsed.get("a").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(
            parsed.get("a").unwrap().as_array().unwrap()[0].as_u64(),
            Some(1)
        );
        assert_eq!(
            parsed.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(parsed.get("b").unwrap().as_str(), Some("A\u{1F600}"));
        // A high surrogate followed by a non-surrogate escape used to
        // underflow (a panic under debug assertions); the second escape
        // is kept, also when it opens a real pair.
        let lone = Json::parse("\"\\ud800\\u0041\"").unwrap();
        assert_eq!(lone.as_str(), Some("\u{FFFD}A"));
        let then_pair = Json::parse("\"\\ud800\\ud83d\\ude00\"").unwrap();
        assert_eq!(then_pair.as_str(), Some("\u{FFFD}\u{1F600}"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "\"unterminated",
            "{\"a\":1} trailing",
            "{\"a\":1,}",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains("byte"), "error for {bad:?} was {err:?}");
        }
    }

    #[test]
    fn parse_rejects_numbers_beyond_f64() {
        let huge = "9".repeat(400);
        for (doc, at) in [
            ("1e999", 0),
            ("-1e999", 0),
            (huge.as_str(), 0),
            ("{\"cycles_per_sec\":1e999}", 18),
        ] {
            assert_eq!(
                Json::parse(doc).unwrap_err(),
                format!("number out of range at byte {at}")
            );
        }
        // The edges of the finite range still parse.
        assert_eq!(
            Json::parse("1.7976931348623157e308").unwrap().as_f64(),
            Some(f64::MAX)
        );
        assert_eq!(Json::parse("1e-999").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn compact_rendering_round_trips_on_one_line() {
        let doc = Json::object()
            .field("cycle", Json::UInt(5000))
            .field("rate", Json::Fixed(0.25, 3))
            .field("tags", Json::Array(vec![Json::str("a"), Json::Null]))
            .field("empty", Json::object().build())
            .build();
        let line = doc.render_compact();
        assert!(!line.contains('\n'));
        assert!(!line.contains(' '));
        assert_eq!(Json::parse(&line).unwrap(), doc);
        assert_eq!(
            line,
            "{\"cycle\":5000,\"rate\":0.250,\"tags\":[\"a\",null],\"empty\":{}}"
        );
    }

    #[test]
    fn accessors_return_none_for_wrong_kinds() {
        let doc = Json::parse("{\"n\": 3, \"s\": \"x\"}").unwrap();
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("n").unwrap().as_str(), None);
        assert_eq!(doc.get("s").unwrap().as_u64(), None);
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::Int(-1).as_f64(), Some(-1.0));
        assert_eq!(Json::Bool(true).as_array(), None);
    }
}
