//! A minimal, dependency-free JSON encoder.
//!
//! The workspace builds in air-gapped containers where no crate registry is
//! reachable, so telemetry serialization cannot lean on serde. This module is
//! the replacement: a tiny writer producing deterministic output — fields
//! appear exactly in the order they are written, floats use Rust's shortest
//! round-trip formatting — which is what makes byte-identical trace diffing
//! across runs possible.
//!
//! Two writers share the integer, float and string encoders below.
//! [`Obj`] takes keys at run time and appends field by field: manifests,
//! counter rollups and cache documents, written once per run. [`Line`] is
//! the per-event path under the JSONL and Perfetto sinks: the caller hands
//! it whole literal fragments (`,"ev":"pkt_enq","link":` is one copy), it
//! stages them with the numbers between in a fixed stack buffer, and the
//! finished line reaches the output in one `push_str`. A config's JSON is
//! not written here but by its leaf walk, `stats::leaves::write`, which
//! also reads it back.

use std::fmt::Write as _;

/// `"00" "01" … "99"`: two decimal digits per table step.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Decimal digits of `u64::MAX`.
const U64_DIGITS: usize = 20;

/// Number of decimal digits `v` prints as. The loop has a fixed bound, so
/// it compiles to a ladder of compares that short values — most trace
/// fields — leave early; `u64::ilog10` here made a traced run a fifth
/// slower.
#[inline]
fn digits(v: u64) -> usize {
    let mut n = 1;
    let mut bound: u64 = 10;
    while v >= bound {
        n += 1;
        if n == U64_DIGITS {
            break;
        }
        bound *= 10;
    }
    n
}

/// Fills `dst` — exactly `digits(v)` long — with `v` in decimal, two
/// digits per division.
#[inline]
fn put_digits(dst: &mut [u8], mut v: u64) {
    let mut end = dst.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        dst[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        end -= 2;
    }
    if v >= 10 {
        let pair = v as usize * 2;
        dst[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        dst[end - 1] = b'0' + v as u8;
    }
}

/// Bytes the encoders only ever assemble from `&str`s and ASCII digits.
fn staged_str(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("staged from &str fragments and ASCII digits")
}

/// Writes `v` in decimal into `out`.
pub fn write_u64(v: u64, out: &mut String) {
    let mut tmp = [0u8; U64_DIGITS];
    let dst = &mut tmp[..digits(v)];
    put_digits(dst, v);
    out.push_str(staged_str(dst));
}

/// Offset of the first byte of `s` that JSON requires escaped.
#[inline]
fn first_escape(s: &str) -> Option<usize> {
    s.bytes().position(|b| b < 0x20 || b == b'"' || b == b'\\')
}

/// Escapes `s` into `out` as the contents of a JSON string (no quotes).
pub fn escape_into(s: &str, out: &mut String) {
    let Some(first) = first_escape(s) else {
        out.push_str(s);
        return;
    };
    const HEX: &[u8; 16] = b"0123456789abcdef";
    // Every escaped byte is ASCII, so the cuts fall on char boundaries.
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate().skip(first) {
        let hex;
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => {
                let digit = |nibble: u8| HEX[nibble as usize];
                hex = [b'\\', b'u', b'0', b'0', digit(b >> 4), digit(b & 0xf)];
                staged_str(&hex)
            }
            _ => continue,
        };
        out.push_str(&s[clean_from..i]);
        out.push_str(escape);
        clean_from = i + 1;
    }
    out.push_str(&s[clean_from..]);
}

/// Writes `v` as a JSON number into `out` (`null` for NaN/infinite values,
/// which JSON cannot represent).
pub fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // `{}` prints integral floats without a fraction ("1"), which is
        // still a valid JSON number, so no fix-up is needed.
        write!(out, "{v}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Staging capacity of a [`Line`]: the longest line any telemetry event
/// renders to is under 250 bytes (every field at its maximum), so an event
/// reaches its sink's buffer in one copy. Longer content is still written
/// whole, in several.
pub const LINE_CAPACITY: usize = 256;

/// A line writer for per-event encoders: fragments and numbers are staged
/// in a stack buffer and appended to the output once, by
/// [`finish`](Line::finish). Nothing is escaped or separated for the caller
/// except by [`str`](Line::str) — the fragments carry the punctuation.
///
/// ```
/// let mut buf = String::new();
/// let mut w = telemetry::json::Line::new(&mut buf);
/// w.raw(r#"{"t":"#).u64(7).raw(r#","ev":"drop","ce":"#).bool(false).raw("}\n");
/// w.finish();
/// assert_eq!(buf, "{\"t\":7,\"ev\":\"drop\",\"ce\":false}\n");
/// ```
#[derive(Debug)]
pub struct Line<'a> {
    out: &'a mut String,
    staged: [u8; LINE_CAPACITY],
    len: usize,
}

impl<'a> Line<'a> {
    /// Starts an empty line that will be appended to `out`.
    #[inline]
    pub fn new(out: &'a mut String) -> Self {
        Line {
            out,
            staged: [0; LINE_CAPACITY],
            len: 0,
        }
    }

    /// Moves what is staged so far into the output.
    fn flush(&mut self) {
        self.out.push_str(staged_str(&self.staged[..self.len]));
        self.len = 0;
    }

    /// The next `n <= LINE_CAPACITY` staging bytes, after making room for
    /// them.
    #[inline]
    fn reserve(&mut self, n: usize) -> &mut [u8] {
        if n > LINE_CAPACITY - self.len {
            self.flush();
        }
        let start = self.len;
        self.len += n;
        &mut self.staged[start..start + n]
    }

    /// Appends `s` verbatim.
    #[inline]
    pub fn raw(&mut self, s: &str) -> &mut Self {
        if s.len() > LINE_CAPACITY {
            self.flush();
            self.out.push_str(s);
        } else {
            self.reserve(s.len()).copy_from_slice(s.as_bytes());
        }
        self
    }

    /// Appends `v` in decimal. Inlined into every call site: left to the
    /// optimiser it stays a call in the event encoders, at a tenth of their
    /// time.
    #[inline(always)]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        put_digits(self.reserve(digits(v)), v);
        self
    }

    /// Appends `true` or `false`.
    #[inline]
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.raw(if v { "true" } else { "false" })
    }

    /// Appends `v` as a JSON number (`null` if it is not finite).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.flush();
        write_f64(v, self.out);
        self
    }

    /// Appends `s` escaped as the contents of a JSON string (no quotes).
    #[inline]
    pub fn str(&mut self, s: &str) -> &mut Self {
        if first_escape(s).is_none() {
            return self.raw(s);
        }
        self.flush();
        escape_into(s, self.out);
        self
    }

    /// Appends the finished line to the output.
    #[inline]
    pub fn finish(mut self) {
        self.flush();
    }
}

/// An incremental JSON object writer appending to a borrowed buffer.
///
/// ```
/// let mut buf = String::new();
/// let mut o = telemetry::json::Obj::new(&mut buf);
/// o.u64("t", 7).str("ev", "drop").bool("ce", false);
/// o.finish();
/// assert_eq!(buf, r#"{"t":7,"ev":"drop","ce":false}"#);
/// ```
#[derive(Debug)]
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Obj<'a> {
    /// Starts an object (writes the opening brace).
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        Obj { out, first: true }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('"');
        escape_into(k, self.out);
        self.out.push_str("\":");
    }

    /// Writes an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        write_u64(v, self.out);
        self
    }

    /// Writes a signed integer field.
    pub fn i64(&mut self, k: &str, v: i64) -> &mut Self {
        self.key(k);
        if v < 0 {
            self.out.push('-');
        }
        write_u64(v.unsigned_abs(), self.out);
        self
    }

    /// Writes a float field (`null` for non-finite values).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        write_f64(v, self.out);
        self
    }

    /// Writes a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes a string field (escaped).
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.out.push('"');
        escape_into(v, self.out);
        self.out.push('"');
        self
    }

    /// Writes a pre-rendered JSON value verbatim (object, array, …).
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.out.push_str(json);
        self
    }

    /// Closes the object (writes the closing brace).
    pub fn finish(self) {
        self.out.push('}');
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn object_fields_in_order() {
        let mut buf = String::new();
        let mut o = Obj::new(&mut buf);
        o.u64("a", 1).str("b", "x").bool("c", true).f64("d", 2.5);
        o.finish();
        assert_eq!(buf, r#"{"a":1,"b":"x","c":true,"d":2.5}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let mut buf = String::new();
        let mut o = Obj::new(&mut buf);
        o.str("s", "a\"b\\c\nd\te\u{1}");
        o.finish();
        assert_eq!(buf, "{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut buf = String::new();
        let mut o = Obj::new(&mut buf);
        o.f64("nan", f64::NAN).f64("inf", f64::INFINITY);
        o.finish();
        assert_eq!(buf, r#"{"nan":null,"inf":null}"#);
    }

    #[test]
    fn integral_floats_are_valid_json() {
        let mut buf = String::new();
        write_f64(3.0, &mut buf);
        assert_eq!(buf, "3");
    }

    #[test]
    fn raw_values_are_verbatim() {
        let mut buf = String::new();
        let mut o = Obj::new(&mut buf);
        o.raw("inner", r#"{"x":1}"#);
        o.finish();
        assert_eq!(buf, r#"{"inner":{"x":1}}"#);
    }

    /// Every value at which the digit count changes, and its neighbours.
    pub(crate) fn digit_boundaries() -> Vec<u64> {
        let mut vs = vec![0, u32::MAX as u64, u64::MAX];
        let mut power: u64 = 1;
        for _ in 0..U64_DIGITS {
            vs.extend([power - 1, power, power + 1]);
            power = power.saturating_mul(10);
        }
        vs
    }

    #[test]
    fn integers_match_display_at_every_digit_count() {
        for v in digit_boundaries() {
            let mut buf = String::new();
            write_u64(v, &mut buf);
            assert_eq!(buf, v.to_string());
            let mut line = String::new();
            let mut w = Line::new(&mut line);
            w.u64(v);
            w.finish();
            assert_eq!(line, buf);
        }
        for v in [i64::MIN, -10, -1, 0, 1, i64::MAX] {
            let mut buf = String::new();
            let mut o = Obj::new(&mut buf);
            o.i64("v", v);
            o.finish();
            assert_eq!(buf, format!("{{\"v\":{v}}}"));
        }
    }

    /// The per-char encoder `escape_into` replaced.
    fn reference_escape(s: &str) -> String {
        let mut out = String::new();
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
        out
    }

    #[test]
    fn escaping_matches_the_per_char_reference() {
        let alphabet: Vec<char> = ('\0'..='\u{22}')
            .chain(['\\', 'a', 'z', '\u{7f}', 'é', '→', '🦀'])
            .collect();
        let mut rng = stats::Rng::new(7);
        for _ in 0..2000 {
            let len = rng.below(12) as usize;
            let s: String = (0..len)
                .map(|_| *rng.choose(&alphabet).expect("non-empty alphabet"))
                .collect();
            let mut out = String::new();
            escape_into(&s, &mut out);
            assert_eq!(out, reference_escape(&s), "{s:?}");
            let mut line = String::new();
            let mut w = Line::new(&mut line);
            w.raw("<").str(&s).raw(">");
            w.finish();
            assert_eq!(line, format!("<{out}>"), "{s:?}");
        }
    }

    #[test]
    fn line_spills_whole_without_reordering_or_truncating() {
        let long = "x".repeat(LINE_CAPACITY + 1);
        let fits = "y".repeat(LINE_CAPACITY);
        let mut line = String::from("kept:");
        let mut w = Line::new(&mut line);
        // Staged, then a fragment no staging buffer holds, then one that
        // fills it exactly, then numbers and a float that overflow it.
        w.raw("a").raw(&long).raw("b").raw(&fits).u64(u64::MAX);
        w.f64(0.5).bool(true).f64(f64::NAN).raw("\n");
        w.finish();
        assert_eq!(
            line,
            format!("kept:a{long}b{fits}{}0.5truenull\n", u64::MAX)
        );
    }

    #[test]
    fn empty_object() {
        let mut buf = String::new();
        Obj::new(&mut buf).finish();
        assert_eq!(buf, "{}");
    }
}
