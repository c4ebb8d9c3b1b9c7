//! The workspace's one JSON codec: a [`Json`] value, its renderer, its
//! parser, and the pull [`Reader`] the parser is built on.
//!
//! The workspace vendors no serde, so everything that speaks JSON —
//! the `prorp-server` request/response bodies and event-stream reader,
//! `prorp-trace` (reading exported traces, writing `--json` reports),
//! [`parse_trace_jsonl`](crate::export::parse_trace_jsonl) and the
//! `results/*.json` records of the bench binaries — builds, renders and
//! parses this one type (`prorp_server::json` is a re-export of it).
//!
//! * **Rendering** is canonical: compact, keys in insertion order,
//!   floats in Rust's shortest round-trip form (non-finite values
//!   become `null`), strings escaping the JSON control set — so output
//!   is byte-stable across runs and machines.
//! * **Parsing** is a recursive descent over the full grammar with a
//!   depth limit of 32 instead of recursion-to-overflow, in time linear
//!   in the input: a string is copied a run of bytes at a time, never
//!   re-scanned per character.
//! * **Decoding** a document of known shape needs no tree: [`Reader`]
//!   exposes the parser's token routines — a string (borrowed from the
//!   input when it holds no escape), a number, an object or array walk,
//!   and a skip-any-value under the same depth limit — so a typed
//!   decoder (the `prorp-server` ingest body) accepts and rejects
//!   exactly what [`parse`] does, with the same messages.
//! * **Integers** keep all 64 bits in either direction and have one
//!   normal form: [`Json::Int`] whenever the value fits an `i64`,
//!   [`Json::UInt`] only above `i64::MAX`.  The parser produces it and
//!   [`Json::from`]`(u64)` constructs it, so `parse(render(v)) == v`.
//!
//! The byte-pinned `format!` writers in [`export`](crate::export) are
//! deliberately *not* built on [`Json`]: they are the golden surface
//! this codec is tested against, not a second codec.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 32;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer that fits an `i64`.
    Int(i64),
    /// An integer above `i64::MAX`; build unsigned values with
    /// [`Json::from`], which picks the normal form.
    UInt(u64),
    /// A non-integral number (`NaN`/`±inf` render as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, Json)>),
}

impl From<u64> for Json {
    /// The normal form of an unsigned integer: [`Json::Int`] when it
    /// fits, [`Json::UInt`] above `i64::MAX`.
    fn from(v: u64) -> Json {
        i64::try_from(v).map_or(Json::UInt(v), Json::Int)
    }
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn object(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `i64`, if this is an integer that fits one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
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

/// Parse one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut r = Reader::new(input);
    let value = r.value()?;
    r.end()?;
    Ok(value)
}

/// A pull reader over one JSON document: the token routines [`parse`]
/// is built on, for a caller that decodes a document of known shape
/// straight into its own types instead of through a [`Json`] tree.
///
/// Every read skips the whitespace before its token.  [`object`] and
/// [`array`] own a container's punctuation and hand the reader back
/// positioned at each member, which the callback must consume whole —
/// with a typed read ([`string`], [`number`]), or with [`skip_value`],
/// which validates a value of any type without building it.  The
/// grammar, the depth limit and every error message are [`parse`]'s, so
/// a decoder over this reader rejects exactly the documents `parse`
/// does, with the same text.  A reader that has returned an error is
/// spent.
///
/// [`object`]: Reader::object
/// [`array`]: Reader::array
/// [`string`]: Reader::string
/// [`number`]: Reader::number
/// [`skip_value`]: Reader::skip_value
pub struct Reader<'a> {
    text: &'a str,
    at: usize,
    /// Containers open around the reader's position.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            at: 0,
            depth: 0,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes().get(self.at) {
            self.at += 1;
        }
    }

    /// The next byte after whitespace, not consumed; `None` at the end.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes().get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.at))
        }
    }

    /// The end of the document: only whitespace may follow.
    ///
    /// # Errors
    ///
    /// Names the first trailing byte.
    pub fn end(mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing garbage at byte {}", self.at)),
        }
    }

    fn check_depth(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.at
            ));
        }
        Ok(())
    }

    /// Read one value into a [`Json`] tree.
    fn value(&mut self) -> Result<Json, String> {
        self.check_depth()?;
        match self.peek() {
            Some(b'{') => {
                let mut pairs = Vec::new();
                self.object(|r, key| {
                    pairs.push((key.into_owned(), r.value()?));
                    Ok(())
                })?;
                Ok(Json::Object(pairs))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?.into_owned())),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            _ => self.number(),
        }
    }

    /// Read one value and drop it, building nothing: the grammar and
    /// depth limit [`parse`] applies.
    ///
    /// # Errors
    ///
    /// The first syntax error, or nesting deeper than the limit.
    pub fn skip_value(&mut self) -> Result<(), String> {
        self.check_depth()?;
        match self.peek() {
            Some(b'{') => self.object(|r, _| r.skip_value()),
            Some(b'[') => self.array(Reader::skip_value),
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            _ => self.number().map(drop),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes()[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(())
        } else {
            Err(format!("malformed literal at byte {}", self.at))
        }
    }

    /// Read an object, calling `field(reader, key)` at each member with
    /// the reader positioned at its value, which `field` must consume.
    /// Keys arrive in document order, duplicates included.
    ///
    /// # Errors
    ///
    /// The first syntax error, or the first error `field` returns.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.check_depth()?;
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            self.skip_ws();
            field(self, key)?;
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    /// Read an array, calling `item(reader)` at each element, which
    /// `item` must consume.
    ///
    /// # Errors
    ///
    /// The first syntax error, or the first error `item` returns.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.check_depth()?;
        self.expect(b'[')?;
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.skip_ws();
            item(self)?;
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    /// Read a string.  One without escapes is borrowed from the input;
    /// either way the text is copied a run at a time — every byte up
    /// to the next `"` or `\` at once — so a string costs time linear
    /// in its length.
    ///
    /// # Errors
    ///
    /// A missing opening quote, a bad escape, or the input ending first.
    pub fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut run = self.run();
        if self.bytes().get(self.at) == Some(&b'"') {
            self.at += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so a run ends on a char boundary.
            out.push_str(run);
            match self.bytes().get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(_) => {
                    self.at += 1;
                    self.escape(&mut out)?;
                }
            }
            run = self.run();
        }
    }

    /// Advance over the bytes before the next `"` or `\` (or the end)
    /// and return them.
    fn run(&mut self) -> &'a str {
        let start = self.at;
        let len = self.bytes()[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(self.text.len() - start);
        self.at += len;
        &self.text[start..self.at]
    }

    /// Decode the escape whose backslash was just consumed.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        match self.bytes().get(self.at) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let hex = self
                    .bytes()
                    .get(self.at + 1..self.at + 5)
                    .ok_or_else(|| "truncated \\u escape".to_string())?;
                let hex =
                    std::str::from_utf8(hex).map_err(|_| "non-ascii \\u escape".to_string())?;
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|_| format!("bad \\u escape at byte {}", self.at))?;
                out.push(char::from_u32(code).ok_or_else(|| "surrogate \\u escape".to_string())?);
                self.at += 4;
            }
            _ => return Err(format!("bad escape at byte {}", self.at)),
        }
        self.at += 1;
        Ok(())
    }

    /// Read a number in [`Json`]'s integer normal form: [`Json::Int`],
    /// [`Json::UInt`] above `i64::MAX`, or [`Json::Float`].
    ///
    /// # Errors
    ///
    /// Anything that does not start a value, a malformed number, or an
    /// integer beyond 64 bits.
    pub fn number(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b) if b == b'-' || b.is_ascii_digit() => {}
            Some(b) => {
                return Err(format!(
                    "unexpected byte '{}' at {}",
                    char::from(b),
                    self.at
                ))
            }
            None => return Err("unexpected end of input".into()),
        }
        let start = self.at;
        let negative = self.bytes()[start] == b'-';
        if negative {
            self.at += 1;
        }
        self.digits();
        let mut float = false;
        if self.bytes().get(self.at) == Some(&b'.') {
            float = true;
            self.at += 1;
            self.digits();
        }
        if let Some(b'e' | b'E') = self.bytes().get(self.at) {
            float = true;
            self.at += 1;
            if let Some(b'+' | b'-') = self.bytes().get(self.at) {
                self.at += 1;
            }
            self.digits();
        }
        let text = &self.text[start..self.at];
        let overflow = |_| format!("integer overflow at byte {start}");
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad number at byte {start}"))
        } else if negative {
            text.parse::<i64>().map(Json::Int).map_err(overflow)
        } else {
            text.parse::<u64>().map(Json::from).map_err(overflow)
        }
    }

    fn digits(&mut self) {
        while self.bytes().get(self.at).is_some_and(u8::is_ascii_digit) {
            self.at += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// Strings over the characters the escaper distinguishes: quotes,
    /// backslashes, named and `\u` control escapes, ASCII, multi-byte.
    fn arb_string() -> impl Strategy<Value = String> {
        let ch = prop_oneof![
            4 => (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
            2 => (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            1 => Just('"'),
            1 => Just('\\'),
            1 => Just('/'),
            1 => Just('é'),
            1 => Just('\u{1f600}'),
        ];
        prop::collection::vec(ch, 0..6).prop_map(|cs| cs.into_iter().collect())
    }

    fn arb_scalar() -> impl Strategy<Value = Json> {
        prop_oneof![
            1 => Just(Json::Null),
            1 => any::<bool>().prop_map(Json::Bool),
            2 => any::<i64>().prop_map(Json::Int),
            2 => any::<u64>().prop_map(Json::from),
            1 => Just(Json::Int(i64::MIN)),
            1 => Just(Json::Int(i64::MAX)),
            1 => Just(Json::from(u64::MAX)),
            // A float without a fraction renders as an integer literal
            // and reads back as one (pinned separately below), so the
            // round-trip domain is the floats that have one.
            2 => any::<f64>().prop_map(|f| Json::Float(if f.fract() == 0.0 { 0.5 } else { f })),
            2 => arb_string().prop_map(Json::Str),
        ]
    }

    /// Arbitrary trees of bounded depth, empty containers included.
    struct ArbJson {
        depth: usize,
    }

    impl Strategy for ArbJson {
        type Value = Json;
        fn generate(&self, rng: &mut TestRng) -> Json {
            let kind = if self.depth == 0 {
                0
            } else {
                (0u8..4).generate(rng)
            };
            let child = ArbJson {
                depth: self.depth.saturating_sub(1),
            };
            match kind {
                0 | 1 => arb_scalar().generate(rng),
                2 => Json::Array(prop::collection::vec(child, 0..4).generate(rng)),
                _ => Json::Object(prop::collection::vec((arb_string(), child), 0..4).generate(rng)),
            }
        }
    }

    /// `levels` arrays around one `0`.
    fn nested(levels: usize) -> Json {
        (0..levels).fold(Json::Int(0), |inner, _| Json::Array(vec![inner]))
    }

    /// `text` cut after `cut` chars, or with the char at `at` replaced
    /// by one of the grammar's significant bytes (both modulo the char
    /// count, so every draw applies): what a truncated or corrupted
    /// body looks like, and still a `&str`.
    fn damage(text: &str, cut: Option<usize>, at: usize, with: char) -> String {
        let chars: Vec<char> = text.chars().collect();
        if chars.is_empty() {
            return String::new();
        }
        match cut {
            Some(cut) => chars[..cut % chars.len()].iter().collect(),
            None => {
                let at = at % chars.len();
                let mut out = chars;
                out[at] = with;
                out.into_iter().collect()
            }
        }
    }

    fn arb_damage() -> impl Strategy<Value = (Option<usize>, usize, char)> {
        let with = prop_oneof![
            Just('{'),
            Just('}'),
            Just('['),
            Just(']'),
            Just(','),
            Just(':'),
            Just('"'),
            Just('\\'),
            Just(' '),
            Just('-'),
            Just('.'),
            Just('e'),
            Just('0'),
            Just('9'),
            Just('u'),
            Just('n'),
            Just('x'),
        ];
        (prop::option::of(0usize..4096), 0usize..4096, with)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn skipping_a_value_accepts_and_rejects_what_parsing_does(
            v in ArbJson { depth: 4 },
            (cut, at, with) in arb_damage(),
        ) {
            let text = v.render();
            for text in [text.clone(), damage(&text, cut, at, with)] {
                let mut r = Reader::new(&text);
                let skipped = r.skip_value().and_then(|()| r.end());
                prop_assert_eq!(skipped, parse(&text).map(drop), "text: {}", text);
            }
        }

        #[test]
        fn parse_inverts_render_and_rendering_is_byte_stable(v in ArbJson { depth: 4 }) {
            let text = v.render();
            let back = parse(&text).map_err(TestCaseError::fail)?;
            prop_assert_eq!(&back, &v, "text: {}", text);
            prop_assert_eq!(back.render(), text);
        }

        #[test]
        fn unsigned_integers_have_one_normal_form(n in any::<u64>()) {
            let v = Json::from(n);
            prop_assert_eq!(matches!(v, Json::Int(_)), n <= i64::MAX as u64);
            prop_assert_eq!(v.as_u64(), Some(n));
            prop_assert_eq!(v.as_int(), i64::try_from(n).ok());
            prop_assert_eq!(parse(&n.to_string()), Ok(v));
        }
    }

    #[test]
    fn renders_nested_values_compactly() {
        let v = Json::object(vec![
            ("n", Json::from(3)),
            ("qos", Json::Float(99.5)),
            ("label", Json::Str("eu\"1\"".into())),
            ("rows", Json::Array(vec![Json::Int(-1), Json::Bool(true)])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"n":3,"qos":99.5,"label":"eu\"1\"","rows":[-1,true]}"#
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
        assert_eq!(Json::Float(0.25).render(), "0.25");
    }

    #[test]
    fn floats_without_a_fraction_read_back_as_integers() {
        assert_eq!(Json::Float(-0.0).render(), "-0");
        assert_eq!(parse("-0"), Ok(Json::Int(0)));
        assert_eq!(parse(&Json::Float(150.0).render()), Ok(Json::Int(150)));
    }

    #[test]
    fn control_characters_are_escaped() {
        let v = Json::Str("a\nb\u{1}".into());
        assert_eq!(v.render(), "\"a\\nb\\u0001\"");
        assert_eq!(parse(&v.render()), Ok(v));
        assert_eq!(
            parse(r#""\u0001\u00e9\/""#),
            Ok(Json::Str("\u{1}é/".into()))
        );
    }

    #[test]
    fn round_trips_the_ingest_body() {
        let body =
            r#"{"events":[{"db":3,"at":120,"kind":"login"},{"db":4,"at":130,"kind":"logout"}]}"#;
        let v = parse(body).unwrap();
        let events = v.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("db").unwrap().as_int(), Some(3));
        assert_eq!(events[1].get("kind").unwrap().as_str(), Some("logout"));
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn parses_escapes_floats_and_null() {
        let v = parse(r#"{"s":"a\"b\nc","f":1.5e2,"n":null,"b":true}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\nc"));
        assert_eq!(v.get("f"), Some(&Json::Float(150.0)));
        assert_eq!(v.get("n"), Some(&Json::Null));
        assert_eq!(v.get("b"), Some(&Json::Bool(true)));
    }

    #[test]
    fn integers_keep_all_64_bits() {
        assert_eq!(parse("-9223372036854775808"), Ok(Json::Int(i64::MIN)));
        assert_eq!(parse("9223372036854775807"), Ok(Json::Int(i64::MAX)));
        assert_eq!(parse("9223372036854775808"), Ok(Json::UInt(1 << 63)));
        assert_eq!(parse("18446744073709551615"), Ok(Json::UInt(u64::MAX)));
        assert_eq!(Json::UInt(u64::MAX).as_int(), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::Float(1.5).as_u64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a":}"#,
            "{} trailing",
            r#""unterminated"#,
            "99999999999999999999",
            "18446744073709551616",
            "-9223372036854775809",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn strings_without_escapes_are_borrowed() {
        let mut r = Reader::new(r#" "plain é" "a\tb""#);
        assert_eq!(r.string(), Ok(Cow::Borrowed("plain é")));
        assert_eq!(r.string(), Ok(Cow::Owned::<str>("a\tb".into())));
        assert_eq!(r.end(), Ok(()));
    }

    /// Parsing is linear in the input: a 1 MiB string — multi-byte
    /// chars and escapes included — takes milliseconds.  A parser that
    /// re-validates the rest of the input for every char takes minutes.
    #[test]
    fn a_mebibyte_string_parses_within_a_second() {
        let unit = r#"ab\"é\n"#;
        let units = (1 << 20) / unit.len();
        let text = format!("\"{}\"", unit.repeat(units));
        let t0 = std::time::Instant::now();
        let v = parse(&text).expect("parses");
        let took = t0.elapsed();
        assert_eq!(v, Json::Str("ab\"é\n".repeat(units)));
        assert!(took.as_secs_f64() < 1.0, "took {took:?}");
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(40) + &"]".repeat(40);
        assert!(parse(&deep).is_err());
        let at_limit = nested(MAX_DEPTH);
        assert_eq!(parse(&at_limit.render()), Ok(at_limit));
        assert!(parse(&nested(MAX_DEPTH + 1).render()).is_err());
        for levels in [MAX_DEPTH, MAX_DEPTH + 1] {
            let text = nested(levels).render();
            let mut r = Reader::new(&text);
            assert_eq!(r.skip_value(), parse(&text).map(drop));
        }
    }
}
