//! The workspace's one JSON codec: the string escaper, an
//! allocation-free writer, and (under `stats`) the value model and
//! parser.
//!
//! Every JSON producer renders through [`Writer`]: the stats, health
//! and profile snapshots, the heap dump and the bench `--stats-json`
//! records. Every consumer reads through `Json::parse`:
//! `analyze_dump`, `diff_dumps` and `lfstat`. Output is compact (no
//! whitespace) and keeps keys in the order the producer writes them.
//!
//! The writer allocates nothing itself. It renders into a [`Sink`],
//! which `String` implements and so does the crash path's fixed-buffer
//! `SigBuf`, so a heap dump can be rendered from a crash context.

/// A byte sink for [`Writer`].
pub trait Sink {
    /// Appends `s` verbatim.
    fn push_str(&mut self, s: &str);

    /// Appends `v` in decimal.
    fn push_dec(&mut self, v: u64) {
        let mut buf = [0u8; 20];
        self.push_str(dec(v, &mut buf));
    }
}

impl Sink for String {
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }
}

/// Formats `v` in decimal into the tail of `buf` and returns the digits.
pub(crate) fn dec(mut v: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    core::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII")
}

/// Appends `s` escaped for a JSON string literal, quotes not included.
/// `"` and `\` get a backslash; control characters use RFC 8259's short
/// escapes where one exists and `\u00XX` otherwise; everything else,
/// non-ASCII included, is copied through as UTF-8.
fn escape(out: &mut impl Sink, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    // Every byte that needs escaping is ASCII, so the unescaped runs
    // between them are always whole UTF-8 sequences.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let u = [b'\\', b'u', b'0', b'0', HEX[(b >> 4) as usize], HEX[(b & 0xf) as usize]];
            out.push_str(core::str::from_utf8(&u).expect("escape is ASCII"));
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Renders compact JSON into a [`Sink`], placing every brace, bracket,
/// comma and `"key":` itself.
///
/// Containers are opened and closed explicitly; the writer only tracks
/// whether the next item needs a leading comma, so it needs no stack and
/// never allocates. Keys are only meaningful directly inside objects.
pub struct Writer<W: Sink> {
    out: W,
    comma: bool,
}

impl<W: Sink> Writer<W> {
    /// A writer rendering into `out`.
    pub fn new(out: W) -> Self {
        Writer { out, comma: false }
    }

    /// The sink, e.g. to flush and clear a fixed buffer between lines.
    pub fn sink(&mut self) -> &mut W {
        &mut self.out
    }

    /// Returns the sink.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Starts an item of the enclosing container.
    fn item(&mut self) -> &mut W {
        if self.comma {
            self.out.push_str(",");
        }
        self.comma = true;
        &mut self.out
    }

    fn open(&mut self, c: &str) -> &mut Self {
        self.item().push_str(c);
        self.comma = false;
        self
    }

    fn close(&mut self, c: &str) -> &mut Self {
        self.out.push_str(c);
        self.comma = true;
        self
    }

    /// `{`
    pub fn obj(&mut self) -> &mut Self {
        self.open("{")
    }

    /// `}`
    pub fn end_obj(&mut self) -> &mut Self {
        self.close("}")
    }

    /// `[`
    pub fn arr(&mut self) -> &mut Self {
        self.open("[")
    }

    /// `]`
    pub fn end_arr(&mut self) -> &mut Self {
        self.close("]")
    }

    /// `"k":` — the next value written is the key's value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        let out = self.item();
        out.push_str("\"");
        escape(out, k);
        out.push_str("\":");
        self.comma = false;
        self
    }

    /// Writes one value (an array item, or the value of the last key).
    pub fn val(&mut self, v: impl Render) -> &mut Self {
        v.render(self);
        self
    }

    /// `"k":v`
    pub fn field(&mut self, k: &str, v: impl Render) -> &mut Self {
        self.key(k).val(v)
    }
}

/// Renders `v` into a new `String`.
pub fn to_string(v: impl Render) -> String {
    let mut w = Writer::new(String::new());
    w.val(v);
    w.out
}

/// A value [`Writer`] can render.
pub trait Render {
    /// Writes `self` as one JSON value.
    fn render<W: Sink>(&self, w: &mut Writer<W>);
}

impl<T: Render + ?Sized> Render for &T {
    fn render<W: Sink>(&self, w: &mut Writer<W>) {
        (**self).render(w);
    }
}

macro_rules! render_uint {
    ($($t:ty),*) => {$(
        impl Render for $t {
            fn render<W: Sink>(&self, w: &mut Writer<W>) {
                w.item().push_dec(*self as u64);
            }
        }
    )*};
}
render_uint!(u64, usize, u32, u16);

impl Render for bool {
    fn render<W: Sink>(&self, w: &mut Writer<W>) {
        w.item().push_str(if *self { "true" } else { "false" });
    }
}

/// Finite values in Rust's shortest round-trip form; NaN and the
/// infinities, which JSON cannot express, as `null`.
impl Render for f64 {
    fn render<W: Sink>(&self, w: &mut Writer<W>) {
        struct Adapter<'a, W>(&'a mut W);
        impl<W: Sink> core::fmt::Write for Adapter<'_, W> {
            fn write_str(&mut self, s: &str) -> core::fmt::Result {
                self.0.push_str(s);
                Ok(())
            }
        }
        let out = w.item();
        if self.is_finite() {
            let _ = core::fmt::Write::write_fmt(&mut Adapter(out), format_args!("{self}"));
        } else {
            out.push_str("null");
        }
    }
}

impl Render for str {
    fn render<W: Sink>(&self, w: &mut Writer<W>) {
        let out = w.item();
        out.push_str("\"");
        escape(out, self);
        out.push_str("\"");
    }
}

/// `None` is `null`.
impl<T: Render> Render for Option<T> {
    fn render<W: Sink>(&self, w: &mut Writer<W>) {
        match self {
            Some(v) => v.render(w),
            None => w.item().push_str("null"),
        }
    }
}

impl<T: Render> Render for [T] {
    fn render<W: Sink>(&self, w: &mut Writer<W>) {
        w.arr();
        for v in self {
            v.render(w);
        }
        w.end_arr();
    }
}

/// A parsed JSON value. Objects keep their keys in document order.
#[cfg(feature = "stats")]
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (the allocator's counters fit an `f64` exactly up to
    /// 2^53).
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as `(key, value)` pairs in document order.
    Obj(Vec<(String, Json)>),
}

#[cfg(feature = "stats")]
impl Json {
    /// Parses one JSON document (RFC 8259). Whitespace may surround the
    /// value; anything else after it is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text, pos: 0, depth: 0 };
        let v = p.value()?;
        match p.peek() {
            None => Ok(v),
            Some(_) => p.err("trailing input"),
        }
    }

    /// Walks a dotted path `a.b.c` through nested objects.
    pub fn get(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for key in path.split('.') {
            let Json::Obj(fields) = cur else { return None };
            cur = &fields.iter().find(|(k, _)| k == key)?.1;
        }
        Some(cur)
    }

    /// The number, truncated to `u64` (negatives saturate at 0).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| n as u64)
    }

    /// The number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array's items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The number at `path`, 0 when absent or not a number.
    pub fn u64_at(&self, path: &str) -> u64 {
        self.get(path).and_then(Json::as_u64).unwrap_or(0)
    }

    /// The number at `path`, 0.0 when absent or not a number.
    pub fn f64_at(&self, path: &str) -> f64 {
        self.get(path).and_then(Json::as_f64).unwrap_or(0.0)
    }

    /// The array at `path`, empty when absent or not an array.
    pub fn arr_at(&self, path: &str) -> &[Json] {
        self.get(path).and_then(Json::as_arr).unwrap_or(&[])
    }
}

/// Nesting bound: input comes from files, and the parser recurses once
/// per level.
#[cfg(feature = "stats")]
const MAX_DEPTH: usize = 128;

#[cfg(feature = "stats")]
struct Parser<'a> {
    s: &'a str,
    pos: usize,
    depth: usize,
}

#[cfg(feature = "stats")]
impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn byte(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    /// Skips whitespace and returns the next byte.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.byte()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(c @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return self.err("nesting too deep");
                }
                self.depth += 1;
                let v = if c == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected input"),
            None => self.err("unexpected end of input"),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err("bad literal")
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.byte(), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
            self.pos += 1;
        }
        match self.s[start..self.pos].parse() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => self.err("bad number"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte; those are ASCII, so the run is whole UTF-8.
            let run = self.pos;
            while matches!(self.byte(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.s[run..self.pos]);
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.unescape()?);
                }
                Some(_) => return self.err("control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// Decodes the escape after a backslash. A `\u` high surrogate
    /// followed by a `\u` low surrogate is one character; an unpaired
    /// surrogate decodes to U+FFFD.
    fn unescape(&mut self) -> Result<char, String> {
        let Some(c) = self.byte() else { return self.err("unterminated string") };
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let pair = (0xD800..0xDC00).contains(&hi)
                    && self.s[self.pos..].starts_with("\\u")
                    && self.s.get(self.pos + 2..self.pos + 6).and_then(hex).is_some_and(
                        |lo| (0xDC00..0xE000).contains(&lo),
                    );
                let code = if pair {
                    self.pos += 2;
                    0x10000 + ((hi - 0xD800) << 10) + (self.hex4()? - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).unwrap_or('\u{FFFD}')
            }
            _ => return self.err("bad escape"),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        match self.s.get(self.pos..self.pos + 4).and_then(hex) {
            Some(v) => {
                self.pos += 4;
                Ok(v)
            }
            None => self.err("bad \\u escape"),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.items(b'[', b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, String> {
        let mut fields = Vec::new();
        self.items(b'{', b'}', |p| {
            let key = p.string()?;
            p.eat(b':')?;
            fields.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    /// `open item (, item)* close`, or `open close`.
    fn items(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(open)?;
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return self.err(&format!("expected ',' or '{}'", close as char)),
            }
        }
    }
}

/// Four hex digits (no sign, unlike `from_str_radix`).
#[cfg(feature = "stats")]
fn hex(h: &str) -> Option<u32> {
    if h.bytes().all(|b| b.is_ascii_hexdigit()) {
        u32::from_str_radix(h, 16).ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        escape(&mut out, s);
        out
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escaped("plain/path.rs"), "plain/path.rs");
        assert_eq!(escaped("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escaped("x\ny"), "x\\ny");
    }

    #[test]
    fn writer_places_commas_keys_and_nulls() {
        let mut w = Writer::new(String::new());
        w.obj()
            .field("a", 1u64)
            .field("b", &[2u64, 3][..])
            .key("c")
            .obj()
            .field("d", None::<u64>)
            .field("e", Some(true))
            .end_obj()
            .key("f")
            .arr()
            .obj()
            .end_obj()
            .obj()
            .field("g", "h")
            .end_obj()
            .end_arr()
            .field("i", 0.5f64)
            .end_obj();
        assert_eq!(
            w.into_inner(),
            r#"{"a":1,"b":[2,3],"c":{"d":null,"e":true},"f":[{},{"g":"h"}],"i":0.5}"#
        );
    }

    #[cfg(feature = "stats")]
    mod parse {
        use super::super::*;

        #[test]
        fn json_parser_handles_escapes_and_nesting() {
            let v = Json::parse(r#"{"a\n\"b":[1,2.5,-3,true,false,null,{"x":"A"}]}"#).unwrap();
            let arr = v.get("a\n\"b").unwrap().as_arr().unwrap();
            assert_eq!(arr[0].as_u64(), Some(1));
            assert_eq!(arr[6].get("x").and_then(Json::as_str), Some("A"));
        }

        #[test]
        fn escape_then_parse_round_trips() {
            let mut s = String::from("\"\\café 漢字 🦀 /");
            s.extend((1u8..0x20).map(char::from));
            let text = to_string(s.as_str());
            assert!(!text.bytes().any(|b| b < 0x20), "control bytes escaped: {text:?}");
            assert_eq!(Json::parse(&text).unwrap(), Json::Str(s));
        }

        #[test]
        fn parses_every_rfc_8259_escape() {
            let v = Json::parse(r#""\b\f\/é\"\\\n\r\t🦀""#).unwrap();
            assert_eq!(v.as_str(), Some("\u{8}\u{c}/é\"\\\n\r\t🦀"));
            assert_eq!(Json::parse(r#""\ud800x""#).unwrap().as_str(), Some("\u{FFFD}x"));
            assert!(Json::parse(r#""\x""#).is_err());
            assert!(Json::parse(r#""\u+0041""#).is_err());
        }

        #[test]
        fn rejects_trailing_and_truncated_input() {
            assert!(Json::parse(" {\"a\":1}\n").is_ok());
            for bad in [
                "{\"a\":1} x",
                "{\"a\":1}}",
                "1 2",
                "{\"a\":1",
                "{\"a\":",
                "[1,2",
                "\"abc",
                "\"ab\\",
                "\"\\u00",
                "tru",
                "",
                "\"a\nb\"",
            ] {
                assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
            }
            let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
            assert!(Json::parse(&deep).is_err());
        }

        #[test]
        fn dotted_paths_and_defaults() {
            let v = Json::parse(r#"{"a":{"b":{"c":7,"s":"x","ok":true}},"l":[1]}"#).unwrap();
            assert_eq!(v.u64_at("a.b.c"), 7);
            assert_eq!(v.f64_at("a.b.c"), 7.0);
            assert_eq!(v.u64_at("a.b.missing"), 0);
            assert_eq!(v.get("a.b.s").and_then(Json::as_str), Some("x"));
            assert_eq!(v.get("a.b.ok").and_then(Json::as_bool), Some(true));
            assert_eq!(v.arr_at("l").len(), 1);
            assert!(v.arr_at("a").is_empty());
        }
    }
}
