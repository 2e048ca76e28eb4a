//! Hand-written JSON for message payloads.
//!
//! Control and application messages travel typed
//! ([`acacia_simnet::packet::Payload::typed`]) and only their JSON
//! *length* goes on the wire, counted by [`encoded_len`] over the same
//! field lists the writer walks. The lengths are pinned rather than free
//! to change: a control packet is `max(spec, headers + JSON length)` bytes
//! long and a few messages outgrow their calibrated spec by the length of
//! their numbers, and an application packet is exactly as large as its
//! text. So the format is exactly the one the goldens were recorded with
//! (the pins live in `wire::tests` and `acacia::msg::tests`):
//!
//! - enums are externally tagged, `{"TAG":{...}}`, and unit variants are a
//!   bare `"TAG"`;
//! - struct fields come in declaration order; an `Option` is `null` when
//!   `None`, unless the type leaves it out ([`Writer::opt_field`]);
//! - id newtypes are bare numbers, tuples are arrays and addresses are
//!   quoted dotted quads;
//! - `f64` prints via `{:?}` (`null` when not finite), and strings escape
//!   `"`, `\` and control bytes, the common ones in short form.
//!
//! [`Writer`] appends to a text buffer, or only counts what it would
//! append. [`Reader`] is strict: it accepts exactly what the writer emits
//! (no whitespace, keys in order, canonical numbers and escapes), so
//! whatever it decodes re-encodes to the same bytes. No run writes or
//! reads text: [`encode`], [`decode`] and the [`Reader`] are the oracle of
//! the text pins and the reader fuzz tests, which hold the counted
//! lengths to the text they stand for.
//! [`json_codec!`](crate::json_codec) derives both sides of a struct or
//! enum from one list of its fields.

use crate::ids::{Ebi, Imsi, Teid};
use crate::qci::Qci;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A value with a JSON payload encoding.
pub trait Json: Sized {
    /// Append this value's encoding.
    fn write(&self, w: &mut Writer);
    /// Read one value; `None` on any text the writer would not emit.
    fn read(r: &mut Reader<'_>) -> Option<Self>;
}

/// `prefix` (framing bytes, or nothing) followed by `value`'s encoding.
pub fn encode<T: Json>(prefix: &[u8], value: &T) -> Vec<u8> {
    let mut w = Writer::new(Vec::with_capacity(prefix.len() + 128), false);
    value.write(w.raw(prefix));
    w.text
}

/// The length of `value`'s encoding, counted without writing it: the
/// writer walks the same fields and counts integer digits instead of
/// printing them.
pub fn encoded_len<T: Json>(value: &T) -> usize {
    let mut w = Writer::new(Vec::new(), true);
    value.write(&mut w);
    w.len
}

/// Decode all of `bytes` as one value; trailing bytes fail. Only the text
/// pins and fuzz tests read text.
pub fn decode<T: Json>(bytes: &[u8]) -> Option<T> {
    let mut r = Reader { bytes, pos: 0 };
    let value = T::read(&mut r)?;
    (r.pos == bytes.len()).then_some(value)
}

/// Implements [`Json`] for a struct or an enum from one list of its
/// fields in declaration order. `field as "key"` renames a key, and the
/// fields after a `;` are `Option`s left out when `None`. An enum variant
/// is `Name = "tag"`, followed by its fields in braces unless it is a unit
/// variant:
///
/// ```
/// use acacia_lte::json::{decode, encode};
///
/// #[derive(Debug, PartialEq)]
/// enum Action { Drop, Output { port: u16, queue: Option<u8> } }
/// acacia_lte::json_codec!(enum Action { Drop = "D", Output = "Out" { port as "p"; queue } });
///
/// let out = Action::Output { port: 2, queue: None };
/// assert_eq!(encode(b"", &out), br#"{"Out":{"p":2}}"#);
/// assert_eq!(encode(b"", &Action::Drop), br#""D""#);
/// assert_eq!(decode::<Action>(br#"{"Out":{"p":2}}"#), Some(out));
/// ```
#[macro_export]
macro_rules! json_codec {
    (struct $T:ident $fields:tt) => {
        impl $crate::json::Json for $T {
            fn write(&self, w: &mut $crate::json::Writer) {
                let $crate::json_codec!(@pat ($T) $fields) = self;
                w.begin();
                $crate::json_codec!(@fields w $fields);
                w.end();
            }

            fn read(r: &mut $crate::json::Reader<'_>) -> Option<Self> {
                r.object(|r| Some($crate::json_codec!(@build r ($T) $fields)))
            }
        }
    };
    (enum $T:ident { $($V:ident = $tag:literal $({ $($fields:tt)* })?),* $(,)? }) => {
        impl $crate::json::Json for $T {
            fn write(&self, w: &mut $crate::json::Writer) {
                match self {
                    $($crate::json_codec!(@pat ($T::$V) $({ $($fields)* })?) => {
                        $crate::json_codec!(@write w $tag $({ $($fields)* })?);
                    })*
                }
            }

            fn read(r: &mut $crate::json::Reader<'_>) -> Option<Self> {
                r.tagged(|_r, tag, unit| match tag {
                    $($tag => $crate::json_codec!(@read _r unit ($T::$V) $({ $($fields)* })?),)*
                    _ => None,
                })
            }
        }
    };
    (@pat ($($path:tt)*)) => { $($path)* };
    (@pat ($($path:tt)*) { $($f:ident $(as $k:literal)?),* $(; $($o:ident $(as $ok:literal)?),*)? }) => {
        $($path)* { $($f,)* $($($o,)*)? }
    };
    (@write $w:ident $tag:literal) => { $w.str($tag); };
    (@write $w:ident $tag:literal $fields:tt) => {
        $w.begin().key($tag).begin();
        $crate::json_codec!(@fields $w $fields);
        $w.end().end();
    };
    (@fields $w:ident { $($f:ident $(as $k:literal)?),* $(; $($o:ident $(as $ok:literal)?),*)? }) => {
        $($w.field($crate::json_codec!(@key $f $($k)?), $f);)*
        $($($w.opt_field($crate::json_codec!(@key $o $($ok)?), $o);)*)?
    };
    (@read $r:ident $unit:ident ($($path:tt)*)) => { $unit.then_some($($path)*) };
    (@read $r:ident $unit:ident ($($path:tt)*) $fields:tt) => {
        if $unit {
            None
        } else {
            Some($crate::json_codec!(@build $r ($($path)*) $fields))
        }
    };
    (@build $r:ident ($($path:tt)*) { $($f:ident $(as $k:literal)?),* $(; $($o:ident $(as $ok:literal)?),*)? }) => {
        $($path)* {
            $($f: $r.field($crate::json_codec!(@key $f $($k)?))?,)*
            $($($o: $r.opt_field($crate::json_codec!(@key $o $($ok)?))?,)*)?
        }
    };
    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident $k:literal) => { $k };
}

/// Short escapes, as (raw byte, letter after the backslash).
const ESCAPES: [(u8, u8); 7] = [
    (b'"', b'"'),
    (b'\\', b'\\'),
    (0x08, b'b'),
    (0x0c, b'f'),
    (b'\n', b'n'),
    (b'\r', b'r'),
    (b'\t', b't'),
];

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends JSON text to a buffer, or only counts its length.
pub struct Writer {
    /// The text so far; stays empty while counting.
    text: Vec<u8>,
    /// Bytes written (or counted) so far.
    len: usize,
    /// Count the bytes, write none.
    counting: bool,
    /// The last byte opened an object, so the next key takes no comma.
    open: bool,
}

impl Writer {
    fn new(text: Vec<u8>, counting: bool) -> Writer {
        Writer {
            text,
            len: 0,
            counting,
            open: false,
        }
    }

    fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.len += bytes.len();
        if !self.counting {
            self.text.extend_from_slice(bytes);
        }
        self.open = false;
        self
    }

    /// An unsigned decimal. Counting needs only its number of digits.
    fn uint(&mut self, n: u64) -> &mut Self {
        let digits = n.checked_ilog10().map_or(1, |l| l as usize + 1);
        let mut buf = [0u8; 20];
        if !self.counting {
            let mut rest = n;
            for d in buf[..digits].iter_mut().rev() {
                *d = b'0' + (rest % 10) as u8;
                rest /= 10;
            }
        }
        self.raw(&buf[..digits])
    }

    /// Open an object.
    pub fn begin(&mut self) -> &mut Self {
        self.raw(b"{");
        self.open = true;
        self
    }

    /// Close an object.
    pub fn end(&mut self) -> &mut Self {
        self.raw(b"}")
    }

    /// Write `"key":`, after a comma unless it opens the object.
    pub fn key(&mut self, key: &str) -> &mut Self {
        if !self.open {
            self.raw(b",");
        }
        self.raw(b"\"").raw(key.as_bytes()).raw(b"\":")
    }

    /// Write `"key":value`.
    pub fn field<T: Json>(&mut self, key: &str, value: &T) -> &mut Self {
        value.write(self.key(key));
        self
    }

    /// Write `"key":value` for `Some`, and nothing for `None`.
    pub fn opt_field<T: Json>(&mut self, key: &str, value: &Option<T>) -> &mut Self {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// Write an escaped string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.raw(b"\"");
        for &b in s.as_bytes() {
            if let Some(&(_, letter)) = ESCAPES.iter().find(|&&(raw, _)| raw == b) {
                self.raw(&[b'\\', letter]);
            } else if b < 0x20 {
                self.raw(b"\\u00")
                    .raw(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]]);
            } else {
                self.raw(&[b]);
            }
        }
        self.raw(b"\"")
    }

    /// Append (or count) the text `args` formats to.
    fn fmt(&mut self, args: fmt::Arguments<'_>) -> &mut Self {
        fmt::Write::write_fmt(self, args).expect("writing to a Writer cannot fail");
        self
    }
}

impl fmt::Write for Writer {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.raw(s.as_bytes());
        Ok(())
    }
}

/// Reads the JSON text a [`Writer`] emits, and nothing else.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// The next byte, not consumed.
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &[u8]) -> Option<()> {
        self.bytes[self.pos..]
            .starts_with(lit)
            .then(|| self.pos += lit.len())
    }

    /// An object: `{`, what `body` reads, `}`.
    pub fn object<T>(&mut self, body: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        self.eat(b"{")?;
        let value = body(self)?;
        self.eat(b"}")?;
        Some(value)
    }

    /// An enum value: a bare `"tag"` for a unit variant (`body` is told
    /// `unit`), or `{"tag":{`, what `body` reads, `}}`.
    pub fn tagged<T>(
        &mut self,
        body: impl FnOnce(&mut Self, &str, bool) -> Option<T>,
    ) -> Option<T> {
        if self.peek() == Some(b'"') {
            let tag = std::str::from_utf8(self.tag()?).ok()?;
            return body(self, tag, true);
        }
        self.object(|r| {
            let tag = std::str::from_utf8(r.key()?).ok()?;
            r.object(|r| body(r, tag, false))
        })
    }

    /// A quoted string without escapes: a key or a unit-variant tag.
    pub fn tag(&mut self) -> Option<&'a [u8]> {
        self.eat(b"\"")?;
        let rest = &self.bytes[self.pos..];
        let tag = &rest[..rest.iter().position(|&b| b == b'"')?];
        self.pos += tag.len() + 1;
        Some(tag)
    }

    /// `"key":`, after a comma unless it opens the object.
    fn key(&mut self) -> Option<&'a [u8]> {
        if self.bytes[..self.pos].last() != Some(&b'{') {
            self.eat(b",")?;
        }
        let key = self.tag()?;
        self.eat(b":")?;
        Some(key)
    }

    /// `"key":` for exactly this `key`.
    pub fn key_is(&mut self, key: &str) -> Option<()> {
        (self.key()? == key.as_bytes()).then_some(())
    }

    /// The value of the next field, which must be `key`.
    pub fn field<T: Json>(&mut self, key: &str) -> Option<T> {
        self.key_is(key)?;
        T::read(self)
    }

    /// The value of the next field if it is `key`: the reading side of
    /// [`Writer::opt_field`].
    pub fn opt_field<T: Json>(&mut self, key: &str) -> Option<Option<T>> {
        let at = self.pos;
        match self.key() {
            Some(k) if k == key.as_bytes() => T::read(self).map(Some),
            _ => {
                self.pos = at;
                Some(None)
            }
        }
    }

    /// A canonical unsigned decimal: no sign, no leading zero.
    fn uint(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut n = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            self.pos += 1;
        }
        match self.pos - start {
            0 => None,
            1 => Some(n),
            _ => (self.bytes[start] != b'0').then_some(n),
        }
    }

    /// The byte a `\` escape stands for.
    fn unescape(&mut self) -> Option<u8> {
        let letter = self.peek()?;
        self.pos += 1;
        if let Some(&(raw, _)) = ESCAPES.iter().find(|&&(_, l)| l == letter) {
            return Some(raw);
        }
        // `\u00xx`, only for the control bytes without a short escape.
        let hex = |d: u8| HEX.iter().position(|&h| h == d);
        match *self.bytes.get(self.pos..self.pos + 4)? {
            [b'0', b'0', hi, lo] if letter == b'u' => {
                let b = (hex(hi)? * 16 + hex(lo)?) as u8;
                self.pos += 4;
                (b < 0x20 && !ESCAPES.iter().any(|&(raw, _)| raw == b)).then_some(b)
            }
            _ => None,
        }
    }
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn write(&self, w: &mut Writer) {
                w.uint(*self as u64);
            }

            fn read(r: &mut Reader<'_>) -> Option<Self> {
                r.uint()?.try_into().ok()
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

macro_rules! newtype {
    ($($id:ident($t:ty)),*) => {$(
        impl Json for $id {
            fn write(&self, w: &mut Writer) {
                self.0.write(w);
            }

            fn read(r: &mut Reader<'_>) -> Option<Self> {
                <$t>::read(r).map($id)
            }
        }
    )*};
}
newtype!(Teid(u32), Ebi(u8), Imsi(u64), Qci(u8));

impl Json for i32 {
    fn write(&self, w: &mut Writer) {
        if *self < 0 {
            w.raw(b"-");
        }
        w.uint(u64::from(self.unsigned_abs()));
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let negative = r.eat(b"-").is_some();
        let n = i64::from(u32::try_from(r.uint()?).ok()?);
        match (negative, n) {
            (true, 0) => None,
            (true, n) => (-n).try_into().ok(),
            (false, n) => n.try_into().ok(),
        }
    }
}

impl Json for f64 {
    fn write(&self, w: &mut Writer) {
        if self.is_finite() {
            w.fmt(format_args!("{self:?}"));
        } else {
            w.raw(b"null");
        }
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let start = r.pos;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = r.peek() {
            r.pos += 1;
        }
        let text = &r.bytes[start..r.pos];
        let value: f64 = std::str::from_utf8(text).ok()?.parse().ok()?;
        // Canonical only: `text` must be exactly what `{:?}` prints.
        (format!("{value:?}").as_bytes() == text).then_some(value)
    }
}

impl Json for bool {
    fn write(&self, w: &mut Writer) {
        w.raw(if *self { b"true" } else { b"false" });
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        match r.eat(b"true") {
            Some(()) => Some(true),
            None => r.eat(b"false").map(|()| false),
        }
    }
}

impl Json for String {
    fn write(&self, w: &mut Writer) {
        w.str(self);
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        r.eat(b"\"")?;
        let mut out = Vec::new();
        loop {
            let b = r.peek()?;
            r.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => out.push(r.unescape()?),
                0..=0x1f => return None,
                _ => out.push(b),
            }
        }
    }
}

/// A shared string: the same text as a `String`, so sharing one changes
/// no length on the wire.
impl Json for Arc<str> {
    fn write(&self, w: &mut Writer) {
        w.str(self);
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        String::read(r).map(Arc::from)
    }
}

impl Json for Ipv4Addr {
    fn write(&self, w: &mut Writer) {
        let [a, b, c, d] = self.octets().map(u64::from);
        w.raw(b"\"").uint(a).raw(b".").uint(b).raw(b".").uint(c);
        w.raw(b".").uint(d).raw(b"\"");
    }

    /// The std parser takes exactly the dotted quads `Display` prints:
    /// four octets, no leading zeros.
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        std::str::from_utf8(r.tag()?).ok()?.parse().ok()
    }
}

impl<T: Json> Json for Option<T> {
    fn write(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write(w),
            None => {
                w.raw(b"null");
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        match r.eat(b"null") {
            Some(()) => Some(None),
            None => T::read(r).map(Some),
        }
    }
}

impl<T: Json> Json for Vec<T> {
    fn write(&self, w: &mut Writer) {
        for (i, item) in self.iter().enumerate() {
            item.write(w.raw(if i == 0 { b"[" } else { b"," }));
        }
        w.raw(if self.is_empty() { b"[]" } else { b"]" });
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        r.eat(b"[")?;
        let mut items = Vec::new();
        while r.eat(b"]").is_none() {
            if !items.is_empty() {
                r.eat(b",")?;
            }
            items.push(T::read(r)?);
        }
        Some(items)
    }
}

impl<A: Json, B: Json> Json for (A, B) {
    fn write(&self, w: &mut Writer) {
        self.0.write(w.raw(b"["));
        self.1.write(w.raw(b","));
        w.raw(b"]");
    }

    fn read(r: &mut Reader<'_>) -> Option<Self> {
        r.eat(b"[")?;
        let a = A::read(r)?;
        r.eat(b",")?;
        let b = B::read(r)?;
        r.eat(b"]")?;
        Some((a, b))
    }
}
