//! One exhaustive walk over a value's leaves, and the one JSON text it
//! writes and reads back.
//!
//! A struct lists its fields once, in a [`leaves!`](crate::leaves!)
//! invocation that destructures it without `..`; an enum lists its variants
//! once, in a [`variants!`](crate::variants!) invocation that matches
//! without `_`. Either way a field or variant missing from the list does not
//! compile, and the list yields both halves of [`Leaves`]: the walk, which
//! everything that must see every leaf is a [`Visit`] over (the run cache's
//! fingerprint, the tests that keep hand-written perturbation lists honest),
//! and the read, its inverse.
//!
//! [`write`] / [`read`] are the text every config, cache key, cached result
//! and reproducer is in: JSON with every leaf in declaration order under
//! its field name — integers (times in picoseconds, durations in
//! nanoseconds) as digits, floats in Rust's shortest round-trip form (the
//! non-finite ones as `"NaN"`, `"inf"`, `"-inf"`), `None` as `null` and a
//! `Some` as its payload, a tuple as an object keyed by position, a `Vec`
//! as an array, an enum as its label or, with fields, an object whose
//! `kind` is the label. The reader accepts exactly that, in that order: an
//! unknown, missing, reordered or ill-typed leaf is a [`ConfigError`] at
//! its path — the `'static` names from the root down, joined by `.`
//! (`tcp.delayed_ack.timeout`, `faults.loss.2`; the root and sequence
//! elements are named `""`).
//!
//! [`set`] edits one leaf (or subtree) by that path, in that text: it
//! writes the value, swaps the new text in at the path and reads the
//! result back. [`edit`] takes the `path=value` form the command line and
//! sweep files spell it in. The reader skips JSON whitespace between tokens,
//! so a hand-written file may span lines; [`write`] never emits any.

use std::fmt::Write as _;
use std::ops::Range;
use std::time::Duration;

/// Receives a value's leaves in declaration order.
pub trait Visit {
    /// An integer leaf (every unsigned width; times in picoseconds).
    fn int(&mut self, name: &'static str, v: u64);
    /// A float leaf.
    fn float(&mut self, name: &'static str, v: f64);
    /// A string leaf.
    fn str(&mut self, name: &'static str, v: &str);
    /// An enum, by its variant's label. With `fields`, the variant's fields
    /// follow under `name` and a [`leave`](Visit::leave) closes them.
    fn variant(&mut self, name: &'static str, label: &'static str, fields: bool);
    /// An `Option`; when `some`, its payload follows under the same name.
    fn option(&mut self, name: &'static str, some: bool);
    /// Opens a struct or tuple; its fields follow, then a `leave`.
    fn enter(&mut self, _name: &'static str) {}
    /// Opens a sequence of `len` elements, each named `""`, then a `leave`.
    fn seq(&mut self, name: &'static str, _len: usize) {
        self.enter(name)
    }
    /// Closes the innermost `enter`, `seq` or fielded `variant`.
    fn leave(&mut self) {}
}

/// A value whose leaves can be walked, and read back from [`write`]'s text.
pub trait Leaves: Sized {
    /// Reports every leaf under `self` to `v`, `self` being named `name`.
    fn walk<V: Visit>(&self, name: &'static str, v: &mut V);
    /// Reads a value named `name` where `r` stands.
    fn read(name: &'static str, r: &mut Reader<'_>) -> Result<Self, ConfigError>;
}

/// Why a config, or a text claiming to be one, was rejected: the path of
/// the offending leaf (as the walk names it) and the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Dotted path of the leaf, e.g. `tcp.min_rto`.
    pub path: String,
    /// What is wrong with it.
    pub reason: String,
}

impl ConfigError {
    /// A rejection of the leaf at `path`.
    pub fn new(path: impl Into<String>, reason: impl Into<String>) -> Self {
        ConfigError {
            path: path.into(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// Implements [`Leaves`] for a struct from its field list,
/// `leaves!(Grouping: group_size, group_gap)`. The struct is destructured
/// without `..`, so a field left out does not compile; it is read back in
/// the same order.
#[macro_export]
macro_rules! leaves {
    ($ty:ident: $($field:ident),* $(,)?) => {
        impl $crate::Leaves for $ty {
            fn walk<V: $crate::Visit>(&self, name: &'static str, v: &mut V) {
                let $ty { $($field),* } = self;
                v.enter(name);
                $($crate::Leaves::walk($field, stringify!($field), v);)*
                v.leave();
            }

            fn read(
                name: &'static str,
                r: &mut $crate::leaves::Reader<'_>,
            ) -> Result<Self, $crate::ConfigError> {
                r.enter(name)?;
                let value = $ty { $($field: $crate::Leaves::read(stringify!($field), r)?),* };
                r.leave()?;
                Ok(value)
            }
        }
    };
}

/// Implements [`Leaves`] and a `label()` method for an enum of unit and
/// struct-like variants from its variant list, each with its label:
/// `variants!(TopologySpec { Dumbbell => "dumbbell", Clos { racks, spines } => "clos" })`.
/// The walk matches without `_`, so a variant left out does not compile.
#[macro_export]
macro_rules! variants {
    ($ty:ident { $($var:ident $({ $($field:ident),+ })? => $label:literal),+ $(,)? }) => {
        impl $ty {
            /// The variant's stable label (reports, manifests, the text).
            pub fn label(&self) -> &'static str {
                match self {
                    $($ty::$var { .. } => $label,)+
                }
            }
        }

        impl $crate::Leaves for $ty {
            fn walk<V: $crate::Visit>(&self, name: &'static str, v: &mut V) {
                match *self {
                    $($ty::$var $({ $($field),+ })? => {
                        let fields = !<[&str]>::is_empty(&[$($(stringify!($field)),+)?]);
                        v.variant(name, $label, fields);
                        $($($crate::Leaves::walk(&$field, stringify!($field), v);)+ v.leave();)?
                    })+
                }
            }

            fn read(
                name: &'static str,
                r: &mut $crate::leaves::Reader<'_>,
            ) -> Result<Self, $crate::ConfigError> {
                let labels = [$(($label, !<[&str]>::is_empty(&[$($(stringify!($field)),+)?]))),+];
                let (label, fields) = r.variant(name, &labels)?;
                let value = match label {
                    $($label => $ty::$var $({
                        $($field: $crate::Leaves::read(stringify!($field), r)?),+
                    })?,)+
                    _ => unreachable!("Reader::variant returns a listed label"),
                };
                if fields {
                    r.leave()?;
                }
                Ok(value)
            }
        }
    };
}

macro_rules! int_leaves {
    ($($t:ty),*) => {$(
        impl Leaves for $t {
            fn walk<V: Visit>(&self, name: &'static str, v: &mut V) {
                v.int(name, *self as u64);
            }

            fn read(name: &'static str, r: &mut Reader<'_>) -> Result<Self, ConfigError> {
                let v = r.int(name)?;
                <$t>::try_from(v).map_err(|_| r.error(name, "out of range"))
            }
        }
    )*};
}
int_leaves!(u32, u64, usize);

impl Leaves for f64 {
    fn walk<V: Visit>(&self, name: &'static str, v: &mut V) {
        v.float(name, *self);
    }

    fn read(name: &'static str, r: &mut Reader<'_>) -> Result<Self, ConfigError> {
        r.float(name)
    }
}

impl Leaves for String {
    fn walk<V: Visit>(&self, name: &'static str, v: &mut V) {
        v.str(name, self);
    }

    fn read(name: &'static str, r: &mut Reader<'_>) -> Result<Self, ConfigError> {
        r.str(name)
    }
}

/// One integer leaf, in nanoseconds (saturating past `u64::MAX`).
impl Leaves for Duration {
    fn walk<V: Visit>(&self, name: &'static str, v: &mut V) {
        v.int(name, u64::try_from(self.as_nanos()).unwrap_or(u64::MAX));
    }

    fn read(name: &'static str, r: &mut Reader<'_>) -> Result<Self, ConfigError> {
        Ok(Duration::from_nanos(r.int(name)?))
    }
}

impl<T: Leaves> Leaves for Option<T> {
    fn walk<V: Visit>(&self, name: &'static str, v: &mut V) {
        v.option(name, self.is_some());
        if let Some(x) = self {
            x.walk(name, v);
        }
    }

    fn read(name: &'static str, r: &mut Reader<'_>) -> Result<Self, ConfigError> {
        if r.option(name)? {
            T::read(name, r).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<T: Leaves> Leaves for Vec<T> {
    fn walk<V: Visit>(&self, name: &'static str, v: &mut V) {
        v.seq(name, self.len());
        for x in self {
            x.walk("", v);
        }
        v.leave();
    }

    fn read(name: &'static str, r: &mut Reader<'_>) -> Result<Self, ConfigError> {
        r.seq(name)?;
        let mut out = Vec::new();
        while r.more() {
            out.push(T::read("", r)?);
        }
        r.leave()?;
        Ok(out)
    }
}

macro_rules! tuple_leaves {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Leaves),+> Leaves for ($($t,)+) {
            fn walk<V: Visit>(&self, name: &'static str, v: &mut V) {
                v.enter(name);
                $(self.$i.walk(stringify!($i), v);)+
                v.leave();
            }

            fn read(name: &'static str, r: &mut Reader<'_>) -> Result<Self, ConfigError> {
                r.enter(name)?;
                let value = ($($t::read(stringify!($i), r)?,)+);
                r.leave()?;
                Ok(value)
            }
        }
    };
}
tuple_leaves!(A 0, B 1);
tuple_leaves!(A 0, B 1, C 2);
tuple_leaves!(A 0, B 1, C 2, D 3);

/// The text of `value`: its walk, as JSON (see the module docs).
pub fn write<T: Leaves>(value: &T) -> String {
    let mut w = Writer::default();
    value.walk("", &mut w);
    w.out
}

/// Reads a whole text [`write`] wrote; anything else is a [`ConfigError`]
/// at the path where it stops matching.
pub fn read<T: Leaves>(text: &str) -> Result<T, ConfigError> {
    let mut r = Reader {
        text,
        ..Reader::default()
    };
    let value = T::read("", &mut r)?;
    if r.pos < text.len() {
        return Err(r.error("", format!("trailing bytes, {}", r.found())));
    }
    Ok(value)
}

/// Reads a fieldless enum variant from its bare label, as a command line
/// gives it (`quic` for `TransportKind::Quic`); an unknown label's error
/// lists the known ones.
pub fn read_label<T: Leaves>(label: &str) -> Result<T, ConfigError> {
    read(&format!("\"{label}\""))
}

/// Sets the value at dotted `path` in `value` (a leaf, `tcp.mss`, or a
/// subtree, `tcp.cca`) to `text`, spelled as [`write`] spells it; a string
/// or a fieldless variant may be given bare (`quic` for `"quic"`). A `None`
/// is addressed by its own path, not by paths under it. An unknown path is
/// a [`ConfigError`] listing the valid ones, a value the reader rejects an
/// error at its path; either way `value` is left unchanged.
pub fn set<T: Leaves>(value: &mut T, path: &str, text: &str) -> Result<(), ConfigError> {
    let mut spans = Spans::default();
    value.walk("", &mut spans);
    let found = spans.found.iter().find(|s| !path.is_empty() && s.0 == path);
    let Some((_, at, bare)) = found.cloned() else {
        let paths: Vec<&str> = spans.found[1..].iter().map(|s| s.0.as_str()).collect();
        let reason = format!("unknown path; valid paths: {}", paths.join(", "));
        return Err(ConfigError::new(path, reason));
    };
    let mut quoted = Writer::default();
    let text = if bare && !text.starts_with(['"', '{']) {
        quoted.str("", text);
        &quoted.out
    } else {
        text
    };
    let mut out = spans.w.out;
    out.replace_range(at, text);
    *value = read(&out).map_err(|e| match e.path.strip_prefix(path) {
        Some(under) if under.is_empty() || under.starts_with('.') => e,
        _ => ConfigError::new(path, format!("`{text}` does not read here: {e}")),
    })?;
    Ok(())
}

/// [`set`] from one `path=value` edit, the form the command line's `--set`
/// and sweep files share.
pub fn edit<T: Leaves>(value: &mut T, edit: &str) -> Result<(), ConfigError> {
    let (path, text) = edit
        .split_once('=')
        .ok_or_else(|| ConfigError::new(edit, "expected path=value"))?;
    set(value, path, text)
}

/// The [`Visit`] behind [`set`]: [`write`]'s text, and where in it each
/// path's value stands. A sequence's elements are named by position.
#[derive(Default)]
struct Spans {
    w: Writer,
    /// Path, byte range of its value, and whether a bare word may stand for
    /// it (a string or a variant), in walk order; the root first.
    found: Vec<(String, Range<usize>, bool)>,
    /// Open containers: index into `found`, and for a sequence the next
    /// element's position.
    open: Vec<(usize, Option<usize>)>,
}

impl Spans {
    /// Records the value `name` is about to get, at the writer's next
    /// value; `write` then writes it and the range ends where it stopped.
    fn record(&mut self, name: &str, bare: bool, write: impl FnOnce(&mut Writer)) -> usize {
        let start = self.w.out.len()
            + self.w.started as usize
            + if name.is_empty() { 0 } else { name.len() + 3 };
        let path = match self.open.last_mut() {
            None => name.to_string(),
            Some((parent, index)) => {
                let name = match index {
                    Some(i) => {
                        *i += 1;
                        (*i - 1).to_string()
                    }
                    None => name.to_string(),
                };
                match self.found[*parent].0.as_str() {
                    "" => name,
                    parent => format!("{parent}.{name}"),
                }
            }
        };
        write(&mut self.w);
        self.found.push((path, start..self.w.out.len(), bare));
        self.found.len() - 1
    }

    fn open(&mut self, name: &str, seq: bool, bare: bool, write: impl FnOnce(&mut Writer)) {
        let at = self.record(name, bare, write);
        self.open.push((at, seq.then_some(0)));
    }
}

impl Visit for Spans {
    fn int(&mut self, name: &'static str, v: u64) {
        self.record(name, false, |w| w.int(name, v));
    }

    fn float(&mut self, name: &'static str, v: f64) {
        self.record(name, false, |w| w.float(name, v));
    }

    fn str(&mut self, name: &'static str, v: &str) {
        self.record(name, true, |w| w.str(name, v));
    }

    fn variant(&mut self, name: &'static str, label: &'static str, fields: bool) {
        if fields {
            self.open(name, false, true, |w| w.variant(name, label, true));
        } else {
            self.record(name, true, |w| w.variant(name, label, false));
        }
    }

    /// A `Some` writes nothing itself: its payload is the path's value.
    fn option(&mut self, name: &'static str, some: bool) {
        if !some {
            self.record(name, false, |w| w.option(name, false));
        }
    }

    fn enter(&mut self, name: &'static str) {
        self.open(name, false, false, |w| w.enter(name));
    }

    fn seq(&mut self, name: &'static str, len: usize) {
        self.open(name, true, false, |w| w.seq(name, len));
    }

    fn leave(&mut self) {
        self.w.leave();
        if let Some((at, _)) = self.open.pop() {
            self.found[at].1.end = self.w.out.len();
        }
    }
}

/// The [`Visit`] behind [`write`]. Names and labels are identifiers, so
/// they are written unescaped.
#[derive(Default)]
struct Writer {
    out: String,
    /// Something is written in the innermost object or array.
    started: bool,
    /// One bit per open container, innermost lowest: set for an array.
    arrays: u64,
}

impl Writer {
    /// Writes the separator and, unless `name` is empty (the root, a
    /// sequence element), `"name":`.
    fn key(&mut self, name: &str) {
        if std::mem::replace(&mut self.started, true) {
            self.out.push(',');
        }
        if !name.is_empty() {
            self.out.push('"');
            self.out.push_str(name);
            self.out.push_str("\":");
        }
    }

    fn open(&mut self, name: &str, array: bool) {
        self.key(name);
        self.out.push(if array { '[' } else { '{' });
        self.arrays = self.arrays << 1 | array as u64;
        self.started = false;
    }
}

impl Visit for Writer {
    fn int(&mut self, name: &'static str, v: u64) {
        self.key(name);
        let _ = write!(self.out, "{v}");
    }

    /// `{}` prints an integral float without a fraction ("1"), still a JSON
    /// number, and never an exponent; a non-finite one as `NaN`, `inf` or
    /// `-inf`, which is quoted.
    fn float(&mut self, name: &'static str, v: f64) {
        self.key(name);
        let _ = match v.is_finite() {
            true => write!(self.out, "{v}"),
            false => write!(self.out, "\"{v}\""),
        };
    }

    /// Quoted, with `"`, `\` and control characters escaped.
    fn str(&mut self, name: &'static str, v: &str) {
        self.key(name);
        self.out.push('"');
        for c in v.chars() {
            let _ = match c {
                '"' | '\\' => write!(self.out, "\\{c}"),
                c if c < ' ' => write!(self.out, "\\u{:04x}", c as u32),
                c => write!(self.out, "{c}"),
            };
        }
        self.out.push('"');
    }

    fn variant(&mut self, name: &'static str, label: &'static str, fields: bool) {
        if fields {
            self.open(name, false);
        }
        self.key(if fields { "kind" } else { name });
        self.out.push('"');
        self.out.push_str(label);
        self.out.push('"');
    }

    fn option(&mut self, name: &'static str, some: bool) {
        if !some {
            self.key(name);
            self.out.push_str("null");
        }
    }

    fn enter(&mut self, name: &'static str) {
        self.open(name, false);
    }

    fn seq(&mut self, name: &'static str, _len: usize) {
        self.open(name, true);
    }

    fn leave(&mut self) {
        self.out.push(if self.arrays & 1 == 1 { ']' } else { '}' });
        self.arrays >>= 1;
        self.started = true;
    }
}

/// A strict cursor over [`write`]'s text, what [`Leaves::read`] consumes:
/// each method takes exactly the production the writer emits for one leaf
/// or container, or fails with the leaf's path.
#[derive(Default)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Something is read in the innermost object or array.
    started: bool,
    /// The open containers: name, and the byte that closes it.
    open: Vec<(&'static str, &'static str)>,
}

impl<'a> Reader<'a> {
    /// A rejection of leaf `name` under the open containers (`""` names the
    /// innermost container itself).
    pub(crate) fn error(&self, name: &str, reason: impl Into<String>) -> ConfigError {
        let names = self.open.iter().map(|o| o.0).chain([name]);
        let path: Vec<&str> = names.filter(|n| !n.is_empty()).collect();
        ConfigError::new(path.join("."), reason)
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// Skips JSON whitespace, which [`write`] never emits but a
    /// hand-written text may put between tokens.
    fn ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\r' | b'\t') = self.text.as_bytes().get(self.pos) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.rest().starts_with(lit);
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    /// What stands at the cursor, for a reason.
    fn found(&self) -> String {
        match self.rest() {
            "" => "found the end of the text".to_string(),
            rest => format!("found `{}`", rest.chars().take(24).collect::<String>()),
        }
    }

    /// Takes the separator and `"name":` (just the separator for `""`),
    /// and the whitespace around them.
    fn key(&mut self, name: &'static str) -> Result<(), ConfigError> {
        let at = self.pos;
        self.ws();
        let separated = !std::mem::replace(&mut self.started, true) || self.eat(",");
        self.ws();
        let keyed = name.is_empty()
            || (self.eat("\"") && self.eat(name) && self.eat("\"") && {
                self.ws();
                self.eat(":")
            });
        self.ws();
        if separated && keyed {
            return Ok(());
        }
        self.pos = at;
        Err(self.error(name, format!("expected here, {}", self.found())))
    }

    /// An integer leaf.
    pub fn int(&mut self, name: &'static str) -> Result<u64, ConfigError> {
        self.key(name)?;
        let rest = self.rest();
        let len = rest.bytes().take_while(u8::is_ascii_digit).count();
        if len == 0 || (len > 1 && rest.starts_with('0')) {
            return Err(self.error(name, format!("expected an integer, {}", self.found())));
        }
        let v = rest[..len]
            .parse()
            .map_err(|_| self.error(name, "out of range"))?;
        self.pos += len;
        Ok(v)
    }

    /// A float leaf: a number, or a quoted non-finite one spelled as the
    /// writer spells it.
    pub(crate) fn float(&mut self, name: &'static str) -> Result<f64, ConfigError> {
        self.key(name)?;
        let rest = self.rest();
        let (token, quotes) = match rest.strip_prefix('"') {
            Some(quoted) => (quoted.split_once('"').map_or("", |q| q.0), 2),
            None => {
                let len = rest.bytes().take_while(|b| b"0123456789-.".contains(b));
                (&rest[..len.count()], 0)
            }
        };
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() == (quotes == 0) && (quotes == 0 || v.to_string() == token) => {
                self.pos += token.len() + quotes;
                Ok(v)
            }
            _ => Err(self.error(name, format!("expected a number, {}", self.found()))),
        }
    }

    /// A string leaf, unescaped as the writer escapes it.
    pub(crate) fn str(&mut self, name: &'static str) -> Result<String, ConfigError> {
        self.key(name)?;
        let bad = |r: &Self| r.error(name, format!("expected a string, {}", r.found()));
        let Some(body) = self.rest().strip_prefix('"') else {
            return Err(bad(self));
        };
        let mut out = String::new();
        let mut chars = body.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 2;
                    return Ok(out);
                }
                '\\' if body[i + 1..].starts_with(['"', '\\']) => {
                    out.extend(chars.next().map(|e| e.1))
                }
                '\\' => match body[i + 1..]
                    .strip_prefix("u00")
                    .and_then(|h| u8::from_str_radix(h.get(..2)?, 16).ok())
                {
                    Some(b) if b < 0x20 => {
                        out.push(b as char);
                        chars.nth(4);
                    }
                    _ => return Err(bad(self)),
                },
                c if c < ' ' => return Err(bad(self)),
                c => out.push(c),
            }
        }
        Err(bad(self))
    }

    /// Whether an `Option` named `name` is present; if so its payload, named
    /// the same, is next.
    pub(crate) fn option(&mut self, name: &'static str) -> Result<bool, ConfigError> {
        let (pos, started) = (self.pos, self.started);
        self.key(name)?;
        if self.eat("null") {
            return Ok(false);
        }
        (self.pos, self.started) = (pos, started);
        Ok(true)
    }

    /// An enum named `name` whose variants are `labels` (label, has
    /// fields): the label read, and whether its fields follow (closed by a
    /// [`leave`](Self::leave)).
    pub fn variant(
        &mut self,
        name: &'static str,
        labels: &[(&'static str, bool)],
    ) -> Result<(&'static str, bool), ConfigError> {
        self.key(name)?;
        let fields = self.eat("{");
        if fields {
            self.open.push((name, "}"));
            self.started = false;
            self.key("kind")?;
        }
        let leaf = if fields { "" } else { name };
        let text = self
            .rest()
            .strip_prefix('"')
            .and_then(|t| t.split_once('"'));
        match labels.iter().find(|l| Some(l.0) == text.map(|t| t.0)) {
            Some(&(label, has)) if has == fields => {
                self.pos += label.len() + 2;
                Ok((label, fields))
            }
            Some(_) if fields => Err(self.error(leaf, "this variant has no fields")),
            Some(_) => Err(self.error(leaf, "this variant's fields are missing")),
            None => {
                let known: Vec<&str> = labels.iter().map(|l| l.0).collect();
                let reason = format!(
                    "unknown variant, {}; expected {}",
                    self.found(),
                    known.join("|")
                );
                Err(self.error(leaf, reason))
            }
        }
    }

    fn begin(
        &mut self,
        name: &'static str,
        bracket: &str,
        close: &'static str,
    ) -> Result<(), ConfigError> {
        self.key(name)?;
        if !self.eat(bracket) {
            return Err(self.error(name, format!("expected `{bracket}`, {}", self.found())));
        }
        self.open.push((name, close));
        self.started = false;
        Ok(())
    }

    /// Opens a struct or tuple named `name`.
    pub fn enter(&mut self, name: &'static str) -> Result<(), ConfigError> {
        self.begin(name, "{", "}")
    }

    /// Opens a sequence named `name`; its elements are read, each named
    /// `""`, while [`more`](Self::more) says so.
    pub(crate) fn seq(&mut self, name: &'static str) -> Result<(), ConfigError> {
        self.begin(name, "[", "]")
    }

    /// Whether the open sequence has another element.
    pub(crate) fn more(&mut self) -> bool {
        self.ws();
        !self.rest().starts_with(']')
    }

    /// Closes the innermost container: its last leaf must have been read.
    pub fn leave(&mut self) -> Result<(), ConfigError> {
        self.ws();
        let close = self.open.last().map_or("", |o| o.1);
        if !self.eat(close) {
            return Err(self.error("", format!("expected `{close}`, {}", self.found())));
        }
        self.open.pop();
        self.started = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Inner {
        a: u32,
        b: Option<(u64, f64)>,
    }
    leaves!(Inner: a, b);

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        Dot,
        Line { len: u64 },
    }
    variants!(Shape { Dot => "dot", Line { len } => "line" });

    struct Outer {
        n: usize,
        inner: Inner,
        off: Option<u32>,
        shapes: Vec<Shape>,
        note: String,
    }
    leaves!(Outer: n, inner, off, shapes, note);

    fn outer() -> Outer {
        Outer {
            n: 3,
            inner: Inner {
                a: 7,
                b: Some((9, 0.5)),
            },
            off: None,
            shapes: vec![Shape::Dot, Shape::Line { len: 4 }],
            note: "a \"b\\\n\u{1}é".to_string(),
        }
    }

    /// Every leaf's dotted path and rendered value.
    #[derive(Default)]
    struct Paths {
        stack: Vec<&'static str>,
        out: Vec<String>,
    }

    impl Paths {
        fn push(&mut self, name: &str, value: String) {
            let mut path: Vec<&str> = self
                .stack
                .iter()
                .copied()
                .filter(|s| !s.is_empty())
                .collect();
            path.push(name);
            self.out.push(format!("{}={value}", path.join(".")));
        }
    }

    impl Visit for Paths {
        fn int(&mut self, name: &'static str, v: u64) {
            self.push(name, v.to_string());
        }
        fn float(&mut self, name: &'static str, v: f64) {
            self.push(name, v.to_string());
        }
        fn str(&mut self, name: &'static str, v: &str) {
            self.push(name, format!("{v:?}"));
        }
        fn variant(&mut self, name: &'static str, label: &'static str, fields: bool) {
            self.push(name, label.to_string());
            if fields {
                self.stack.push(name);
            }
        }
        fn option(&mut self, name: &'static str, some: bool) {
            self.push(name, if some { "some" } else { "none" }.to_string());
        }
        fn enter(&mut self, name: &'static str) {
            self.stack.push(name);
        }
        fn leave(&mut self) {
            self.stack.pop();
        }
    }

    #[test]
    fn walk_names_every_leaf_by_its_path_in_declaration_order() {
        let mut p = Paths::default();
        outer().walk("", &mut p);
        assert_eq!(
            p.out,
            [
                "n=3",
                "inner.a=7",
                "inner.b=some",
                "inner.b.0=9",
                "inner.b.1=0.5",
                "off=none",
                "shapes.=dot",
                "shapes.=line",
                "shapes.len=4",
                "note=\"a \\\"b\\\\\\n\\u{1}é\"",
            ]
        );
        assert!(p.stack.is_empty());
    }

    const OUTER: &str = r#"{"n":3,"inner":{"a":7,"b":{"0":9,"1":0.5}},"off":null,"shapes":["dot",{"kind":"line","len":4}],"note":"a \"b\\\u000a\u0001é"}"#;

    #[test]
    fn the_text_reads_back_what_it_writes() {
        assert_eq!(write(&outer()), OUTER);
        let back: Outer = read(OUTER).expect("reads");
        assert_eq!(write(&back), OUTER);
        assert_eq!(back.shapes, outer().shapes);
        assert_eq!(back.shapes[1].label(), "line");
        assert_eq!(back.note, outer().note);
        let empty: Vec<Shape> = read("[]").expect("empty sequence");
        assert!(empty.is_empty());
    }

    #[test]
    fn non_finite_and_signed_zero_floats_round_trip_by_bits() {
        for x in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            0.1 + 0.2,
            1e-300,
        ] {
            let text = write(&x);
            let back: f64 = read(&text).expect(&text);
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
        assert_eq!(
            write(&vec![f64::NAN, f64::INFINITY, -f64::INFINITY]),
            r#"["NaN","inf","-inf"]"#
        );
        let d = Duration::from_nanos(1_234_567);
        assert_eq!(read::<Duration>(&write(&d)), Ok(d));
    }

    #[test]
    fn the_reader_names_the_path_where_the_text_stops_matching() {
        let cases = [
            (OUTER.replace("\"a\":7", "\"z\":7"), "inner.a"),
            (OUTER.replace("\"a\":7,", ""), "inner.a"),
            (OUTER.replace("\"n\":3", "\"n\":\"3\""), "n"),
            (OUTER.replace("\"a\":7", "\"a\":4294967296"), "inner.a"),
            (OUTER.replace("\"dot\"", "\"blob\""), "shapes"),
            (OUTER.replace("\"dot\"", "{\"kind\":\"dot\"}"), "shapes"),
            (OUTER.replace(",\"len\":4", ""), "shapes.len"),
            (
                OUTER.replace("\"off\":null", "\"off\":null,\"x\":1"),
                "shapes",
            ),
            (OUTER.replace("0.5}}", "0.5,\"2\":1}}"), "inner.b"),
            (format!("{OUTER} "), ""),
        ];
        for (text, path) in cases {
            let err = read::<Outer>(&text)
                .err()
                .unwrap_or_else(|| panic!("accepted {text}"));
            assert_eq!(err.path, path, "{err} in {text}");
        }
    }

    #[test]
    fn a_bare_label_reads_its_variant_and_an_unknown_one_lists_the_labels() {
        assert_eq!(read_label::<Shape>("dot"), Ok(Shape::Dot));
        let err = read_label::<Shape>("dots").unwrap_err();
        assert_eq!(
            err.reason,
            "unknown variant, found `\"dots\"`; expected dot|line"
        );
        assert!(
            read_label::<Shape>("line").is_err(),
            "its fields are missing"
        );
    }

    #[test]
    fn set_edits_a_leaf_by_its_path() {
        let mut o = outer();
        set(&mut o, "inner.a", "12").expect("a plain leaf");
        assert_eq!(o.inner.a, 12);
        set(&mut o, "off", "5").expect("None to Some");
        assert_eq!(o.off, Some(5));
        set(&mut o, "inner.b", "null").expect("Some to None");
        assert!(o.inner.b.is_none());
        set(&mut o, "shapes.1.len", "9").expect("a variant's field");
        assert_eq!(o.shapes[1], Shape::Line { len: 9 });
        set(&mut o, "shapes.0", "line").unwrap_err();
        set(&mut o, "shapes.1", "dot").expect("a bare label");
        assert_eq!(o.shapes, [Shape::Dot, Shape::Dot]);
        set(&mut o, "note", "x\"y").expect("a bare string");
        assert_eq!(o.note, "x\"y");
        edit(&mut o, "shapes=[{\"kind\":\"line\",\"len\":2}]").expect("a subtree");
        assert_eq!(o.shapes, [Shape::Line { len: 2 }]);
    }

    #[test]
    fn a_failed_set_names_the_path_and_leaves_the_value_unchanged() {
        let mut o = outer();
        let before = write(&o);
        let err = set(&mut o, "inner.c", "1").unwrap_err();
        assert_eq!(err.path, "inner.c");
        assert!(
            err.reason.ends_with("valid paths: n, inner, inner.a, inner.b, inner.b.0, inner.b.1, off, shapes, shapes.0, shapes.1, shapes.1.len, note"),
            "{err}"
        );
        let err = set(&mut o, "off.0", "1").unwrap_err();
        assert!(
            err.reason.starts_with("unknown path"),
            "under a None: {err}"
        );
        let err = set(&mut o, "n", "\"3\"").unwrap_err();
        assert_eq!(
            (err.path.as_str(), &err.reason[..18]),
            ("n", "expected an intege")
        );
        let err = set(&mut o, "inner.a", "1,\"z\":2").unwrap_err();
        assert_eq!(err.path, "inner.a", "{err}");
        let err = set(&mut o, "shapes.1", "blob").unwrap_err();
        assert!(err.reason.ends_with("expected dot|line"), "{err}");
        assert!(edit(&mut o, "n").is_err(), "no `=`");
        assert_eq!(write(&o), before);
    }

    #[test]
    fn the_reader_skips_whitespace_between_tokens_and_write_emits_none() {
        let spaced = "{ \"n\" : 3,\n \"inner\": {\"a\":7, \"b\":{\"0\":9,\"1\":0.5} },\r\n\t\"off\": null,\n \"shapes\": [ \"dot\" , { \"kind\": \"line\", \"len\": 4 } ], \"note\": \"a \\\"b\\\\\\u000a\\u0001é\"\n}";
        let back: Outer = read(spaced).expect("reads");
        assert_eq!(write(&back), OUTER);
        let empty: Vec<u32> = read("[ ]").expect("an empty sequence");
        assert!(empty.is_empty());
    }

    #[test]
    fn config_error_renders_path_then_reason() {
        let e = ConfigError::new("tcp.mss", "must be positive");
        assert_eq!(e.to_string(), "tcp.mss: must be positive");
    }
}
