//! Binary encoding for the durability layer.
//!
//! The WAL ([`crate::wal`]) and snapshot pager ([`crate::pager`]) share one
//! hand-rolled, dependency-free binary codec. Integers are zigzag LEB128
//! varints; oids, class ids, shape and name ids, and every length and count
//! are unsigned LEB128 varints (seven bits a byte, low group first, the high
//! bit set on every byte but the last); floats are their eight-byte IEEE-754
//! bit patterns; an enum variant is one tag byte. The fixed-width put/take
//! methods remain for the files' headers. Decoding is **bounds-checked
//! everywhere** and returns [`OodbError::Corrupt`] with a context string
//! instead of panicking — a torn or foreign file must surface as a typed
//! error (the same discipline the dump loader follows): a varint longer than
//! ten bytes, or one that does not fit the integer it is read into, is
//! corrupt, and so is a count no remaining buffer could hold.
//!
//! A value is a tag byte and its payload. A string is tag 4 and the string
//! in place, except in a snapshot body, which numbers every string value it
//! holds at least twice: tag 9 and the string at its first use, which
//! defines the next number, then tag 10 and that number. The log and every
//! value encoded on its own write strings in place and refuse tags 9 and
//! 10 as corrupt.
//!
//! [`Symbol`]s serialize as their strings: symbol ids are process-local
//! intern indices and mean nothing across restarts. [`ClassId`]s serialize
//! as raw indices, which is sound because [`crate::Schema`] assigns
//! ids sequentially in creation order and both snapshot encode and WAL
//! replay walk classes in that same order.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::BuildHasher;
use std::sync::Arc;

use crate::error::{OodbError, Result};
use crate::expr::{AggFunc, BinOp, Expr, SelectExpr, UnOp};
use crate::ids::{ClassId, Oid};
use crate::schema::{AttrBody, AttrDef, AttrSig};
use crate::symbol::Symbol;
use crate::types::Type;
use crate::value::{Tuple, Value};

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, slicing-by-8)
// ---------------------------------------------------------------------------

/// Eight 256-entry lookup tables for the reflected IEEE polynomial
/// 0xEDB88320, built at compile time (8 KB). Table 0 is the classic
/// one-byte table; `CRC32_TABLES[k][b]` is the checksum state byte `b`
/// leaves after `k` further zero bytes, which is what lets one step fold
/// eight input bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE) of `bytes` — the checksum used by every durable structure
/// in this crate (WAL record frames, snapshot pages, checked dumps). Eight
/// bytes at a step, one table look-up each with no dependency between them;
/// the value is the one the bit-serial definition gives, for every input.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut steps = bytes.chunks_exact(8);
    for c in &mut steps {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in steps.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// An append-only byte buffer with typed little-endian put methods.
#[derive(Default, Debug)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends an unsigned LEB128 varint: one to ten bytes, seven bits
    /// each, low group first.
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a signed integer as a zigzag varint, so small magnitudes of
    /// either sign take few bytes.
    pub fn put_zigzag(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends a length or count as a varint.
    pub fn put_len(&mut self, n: usize) {
        self.put_varint(n as u64);
    }

    /// Appends a varint-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a symbol (as its string — intern ids are process-local).
    pub fn put_symbol(&mut self, s: Symbol) {
        self.put_str(s.as_str());
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over encoded bytes. Every take method returns
/// [`OodbError::Corrupt`] naming `context` when the buffer runs out.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'a str,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`; `context` names the structure being decoded in
    /// corruption errors (e.g. `"wal record"`).
    pub fn new(buf: &'a [u8], context: &'a str) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            context,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has the whole buffer been consumed?
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn short(&self, what: &str) -> OodbError {
        OodbError::corrupt(format!(
            "{}: truncated while reading {what} at offset {}",
            self.context, self.pos
        ))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.short(what));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads an unsigned LEB128 varint of at most ten bytes whose value
    /// fits a `u64`.
    pub fn take_varint(&mut self) -> Result<u64> {
        let start = self.pos;
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let Some(&b) = self.buf.get(self.pos) else {
                return Err(self.short("varint"));
            };
            self.pos += 1;
            let group = (b & 0x7F) as u64;
            if shift == 63 && group > 1 {
                return Err(self.bad_varint(start, "overflows u64"));
            }
            v |= group << shift;
            if b < 0x80 {
                return Ok(v);
            }
        }
        Err(self.bad_varint(start, "is longer than 10 bytes"))
    }

    /// Reads a varint whose value fits a `u32`.
    pub fn take_var_u32(&mut self) -> Result<u32> {
        let start = self.pos;
        let v = self.take_varint()?;
        u32::try_from(v).map_err(|_| self.bad_varint(start, "overflows u32"))
    }

    /// Reads a zigzag varint.
    pub fn take_zigzag(&mut self) -> Result<i64> {
        let v = self.take_varint()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
    }

    fn bad_varint(&self, start: usize, why: &str) -> OodbError {
        OodbError::corrupt(format!("{}: varint at offset {start} {why}", self.context))
    }

    /// Reads a varint-length-prefixed UTF-8 string, validated where it
    /// lies: the result borrows the buffer, so the caller's `Arc<str>` or
    /// interned symbol is the only copy made.
    pub fn take_str(&mut self) -> Result<&'a str> {
        let len = self.take_var_u32()? as usize;
        let bytes = self.take(len, "string body")?;
        std::str::from_utf8(bytes)
            .map_err(|_| OodbError::corrupt(format!("{}: string is not valid UTF-8", self.context)))
    }

    /// Reads a symbol (interning its string).
    pub fn take_symbol(&mut self) -> Result<Symbol> {
        Ok(Symbol::new(self.take_str()?))
    }

    /// Reads a varint count of elements that each take at least
    /// `elem_min_bytes` encoded bytes, validated against the remaining
    /// buffer so a corrupt count cannot drive an over-allocation.
    pub fn take_len(&mut self, elem_min_bytes: usize) -> Result<usize> {
        let start = self.pos;
        let n = self.take_var_u32()? as usize;
        if n.saturating_mul(elem_min_bytes.max(1)) > self.remaining() {
            return Err(OodbError::corrupt(format!(
                "{}: implausible element count {n} at offset {start}",
                self.context
            )));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

/// How a stream writes its string values. [`Inline`] writes each in place
/// (tag 4), as the log and every value encoded on its own do; a snapshot
/// body numbers the strings it holds more than once ([`StringIds`]).
pub(crate) trait PutStrings {
    /// Writes the string value `s`, tag byte included.
    fn put_str(&mut self, w: &mut Writer, s: &Arc<str>);
}

/// How a stream reads the tabled string tags (9, 10) that [`PutStrings`]
/// may write: [`Inline`] refuses them, [`StringList`] resolves them.
pub(crate) trait TakeStrings {
    /// Reads the payload of a value whose `tag` is 9 or 10.
    fn take_tabled(&mut self, r: &mut Reader<'_>, tag: u8) -> Result<Value>;
}

/// Strings written in place: tag 4 and the string. A stream of this kind
/// holds no tabled string, so tag 9 or 10 in it is corrupt.
#[derive(Default, Debug, PartialEq)]
pub(crate) struct Inline;

impl PutStrings for Inline {
    fn put_str(&mut self, w: &mut Writer, s: &Arc<str>) {
        w.put_u8(4);
        w.put_str(s);
    }
}

impl TakeStrings for Inline {
    fn take_tabled(&mut self, r: &mut Reader<'_>, tag: u8) -> Result<Value> {
        Err(bad_tag(r, "value", tag))
    }
}

/// The writer's side of a body's string table: every string value the body
/// holds at least twice, counted by content before the body is written,
/// then numbered in order of first use as it is written. A string held
/// once stays inline (tag 4); one held more often is defined at its first
/// use (tag 9 and the string) and referenced after that (tag 10 and its
/// number), as names and shapes are.
///
/// Most distinct strings of a store are held once (a name, a key), so the
/// count keeps no entry for those: a first pass marks the slot of each
/// string's hash in a bit table as seen once or seen again, and only the
/// strings whose slot was seen again are counted by content. A string held
/// once that shares a slot with another is counted, and found held once.
#[derive(Debug)]
pub(crate) struct StringIds<'a> {
    /// Per slot, two bits: seen once, seen again.
    seen: Vec<u64>,
    /// Slot count minus one (a power of two minus one).
    mask: u64,
    /// The strings of slots seen again: their count while counting, then
    /// [`StringIds::ONCE`], [`StringIds::UNDEFINED`] or their number.
    counted: HashMap<&'a Arc<str>, u32, Seeded>,
    /// Strings defined so far.
    defined: u32,
}

impl<'a> StringIds<'a> {
    const ONCE: u32 = u32::MAX;
    const UNDEFINED: u32 = u32::MAX - 1;

    /// Counts the strings of `tuples`' values, nested ones included.
    pub(crate) fn count<I>(tuples: I) -> StringIds<'a>
    where
        I: IntoIterator<Item = &'a Tuple>,
        I::IntoIter: Clone,
    {
        let tuples = tuples.into_iter();
        // Two bits a slot, about eight slots a tuple: a few string fields
        // each leave most slots empty, so few strings held once share one.
        let slots = (tuples.size_hint().0 * 8).next_power_of_two().max(32);
        let mut ids = StringIds {
            seen: vec![0; slots / 32],
            mask: slots as u64 - 1,
            counted: HashMap::with_hasher(Seeded::new()),
            defined: 0,
        };
        for t in tuples.clone() {
            each_str(t, &mut |s| {
                let (word, bit) = ids.slot(s);
                let again = (ids.seen[word] >> bit & 1) as u32;
                ids.seen[word] |= 1 << (bit + again);
            });
        }
        for t in tuples {
            each_str(t, &mut |s| {
                if ids.seen_again(s) {
                    *ids.counted.entry(s).or_insert(0) += 1;
                }
            });
        }
        for state in ids.counted.values_mut() {
            *state = if *state > 1 {
                Self::UNDEFINED
            } else {
                Self::ONCE
            };
        }
        ids
    }

    /// The word of `seen` that holds `s`'s slot, and the slot's first bit.
    fn slot(&self, s: &str) -> (usize, u32) {
        let slot = self.counted.hasher().hash_one(s) & self.mask;
        ((slot / 32) as usize, (slot % 32) as u32 * 2)
    }

    fn seen_again(&self, s: &str) -> bool {
        let (word, bit) = self.slot(s);
        self.seen[word] >> (bit + 1) & 1 == 1
    }
}

/// Calls `f` on each string of `t`'s values, nested ones included.
fn each_str<'a>(t: &'a Tuple, f: &mut impl FnMut(&'a Arc<str>)) {
    fn value<'a>(v: &'a Value, f: &mut impl FnMut(&'a Arc<str>)) {
        match v {
            Value::Str(s) => f(s),
            Value::Tuple(t) => each_str(t, f),
            Value::Set(s) => s.iter().for_each(|e| value(e, f)),
            Value::List(l) => l.iter().for_each(|e| value(e, f)),
            Value::Null | Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Oid(_) => {}
        }
    }
    for (_, v) in t.iter() {
        value(v, f);
    }
}

impl PutStrings for StringIds<'_> {
    fn put_str(&mut self, w: &mut Writer, s: &Arc<str>) {
        let counted = if self.seen_again(s) {
            self.counted.get_mut(s)
        } else {
            None
        };
        match counted {
            Some(state) if *state == Self::UNDEFINED => {
                *state = self.defined;
                self.defined += 1;
                w.put_u8(9);
                w.put_str(s);
            }
            Some(&mut id) if id != Self::ONCE => {
                w.put_u8(10);
                w.put_varint(id as u64);
            }
            // Held once, or not counted.
            _ => Inline.put_str(w, s),
        }
    }
}

/// The reader's side of a body's string table: the strings defined so far,
/// by number. Every reference to one clones its `Arc`, so equal strings of
/// a decoded body share one allocation.
#[derive(Default, Debug, PartialEq)]
pub(crate) struct StringList(Vec<Arc<str>>);

impl TakeStrings for StringList {
    fn take_tabled(&mut self, r: &mut Reader<'_>, tag: u8) -> Result<Value> {
        if tag == 9 {
            let s: Arc<str> = r.take_str()?.into();
            self.0.push(s.clone());
            return Ok(Value::Str(s));
        }
        let id = r.take_var_u32()? as usize;
        match self.0.get(id) {
            Some(s) => Ok(Value::Str(s.clone())),
            None => Err(OodbError::corrupt(format!(
                "{}: string {id} of {}",
                r.context,
                self.0.len()
            ))),
        }
    }
}

/// The hasher of [`StringIds`]'s count: a multiply-fold over eight bytes
/// at a time, keyed per count from [`RandomState`]. A body's strings are
/// short and number tens of thousands, where SipHash's rounds cost more
/// than the table saves; the key keeps a store's strings from being
/// chosen to collide. Bytes do not depend on it: strings are numbered in
/// order of first use.
///
/// [`RandomState`]: std::collections::hash_map::RandomState
#[derive(Clone, Debug)]
struct Seeded(u64);

impl Seeded {
    fn new() -> Seeded {
        use std::hash::Hasher;
        Seeded(
            std::collections::hash_map::RandomState::new()
                .build_hasher()
                .finish(),
        )
    }
}

impl BuildHasher for Seeded {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher(self.0)
    }
}

struct FoldHasher(u64);

impl FoldHasher {
    fn mix(&mut self, word: u64) {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let p = (self.0 ^ word) as u128 * K as u128;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }
}

impl std::hash::Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        // The length sets apart strings that pad to the same last word.
        self.0 ^= bytes.len() as u64;
        let mut words = bytes.chunks_exact(8);
        for c in &mut words {
            self.mix(u64::from_le_bytes(c.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(last));
        }
    }

    /// The terminator `str` hashes after its bytes: the length has set
    /// strings apart already, so it costs no multiply.
    fn write_u8(&mut self, b: u8) {
        self.0 ^= b as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Encodes a [`Value`] (one tag byte, then the payload), every string in
/// place.
pub fn put_value(w: &mut Writer, v: &Value) {
    put_value_in(w, v, &mut Inline)
}

fn put_value_in(w: &mut Writer, v: &Value, strings: &mut impl PutStrings) {
    match v {
        Value::Null => w.put_u8(0),
        Value::Bool(b) => {
            w.put_u8(1);
            w.put_u8(*b as u8);
        }
        Value::Int(i) => {
            w.put_u8(2);
            w.put_zigzag(*i);
        }
        Value::Float(x) => {
            w.put_u8(3);
            w.put_f64(*x);
        }
        Value::Str(s) => strings.put_str(w, s),
        Value::Oid(o) => {
            w.put_u8(5);
            w.put_varint(o.0);
        }
        Value::Tuple(t) => {
            w.put_u8(6);
            put_tuple_in(w, t, strings);
        }
        Value::Set(s) => {
            w.put_u8(7);
            w.put_len(s.len());
            for e in s {
                put_value_in(w, e, strings);
            }
        }
        Value::List(l) => {
            w.put_u8(8);
            w.put_len(l.len());
            for e in l {
                put_value_in(w, e, strings);
            }
        }
    }
}

/// Decodes a [`Value`] of a stream whose strings are in place.
pub fn take_value(r: &mut Reader<'_>) -> Result<Value> {
    take_value_in(r, &mut Inline)
}

fn take_value_in(r: &mut Reader<'_>, strings: &mut impl TakeStrings) -> Result<Value> {
    Ok(match r.take_u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.take_u8()? != 0),
        2 => Value::Int(r.take_zigzag()?),
        3 => Value::Float(r.take_f64()?),
        4 => Value::Str(r.take_str()?.into()),
        5 => Value::Oid(Oid(r.take_varint()?)),
        6 => Value::Tuple(take_tuple_in(r, strings)?),
        7 => {
            let n = r.take_len(1)?;
            let mut s = BTreeSet::new();
            for _ in 0..n {
                s.insert(take_value_in(r, strings)?);
            }
            Value::Set(s)
        }
        8 => {
            let n = r.take_len(1)?;
            let mut l = Vec::with_capacity(n);
            for _ in 0..n {
                l.push(take_value_in(r, strings)?);
            }
            Value::List(l)
        }
        tag @ (9 | 10) => strings.take_tabled(r, tag)?,
        tag => return Err(bad_tag(r, "value", tag)),
    })
}

/// Encodes a [`Tuple`] (field count, then name-ordered `(symbol, value)`
/// pairs — the tuple's iteration order, so encoding is deterministic).
pub fn put_tuple(w: &mut Writer, t: &Tuple) {
    put_tuple_in(w, t, &mut Inline)
}

fn put_tuple_in(w: &mut Writer, t: &Tuple, strings: &mut impl PutStrings) {
    w.put_len(t.len());
    for (name, v) in t.iter() {
        w.put_symbol(name);
        put_value_in(w, v, strings);
    }
}

/// Decodes a [`Tuple`].
pub fn take_tuple(r: &mut Reader<'_>) -> Result<Tuple> {
    take_tuple_in(r, &mut Inline)
}

fn take_tuple_in(r: &mut Reader<'_>, strings: &mut impl TakeStrings) -> Result<Tuple> {
    let n = r.take_len(2)?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.take_symbol()?;
        fields.push((name, take_value_in(r, strings)?));
    }
    Ok(Tuple::from_fields(fields))
}

// ---------------------------------------------------------------------------
// Name and shape tables
// ---------------------------------------------------------------------------

/// Names and tuple shapes numbered in order of first use, as the log (one
/// table per log since its last reset) and the snapshot body (one per
/// file) write them. The writer and the reader of one stream keep them
/// alike, so one rule serves both: a reference below a table's length
/// names an entry, one equal to it defines the next entry inline, and one
/// above it is corrupt.
///
/// ```text
/// name:          id varint [· string, when id is the table's length]
/// shaped tuple:  shape id varint
///                [· field count · count × name, when id is the table's length]
///                · one value per field of the shape
/// ```
///
/// `S` is how the stream's values write their strings: in place (the log)
/// or through a body's string table (the snapshot, [`StringIds`] and
/// [`StringList`]).
#[derive(Default, Debug, PartialEq)]
pub(crate) struct Tables<S = Inline> {
    names: Numbered<Symbol>,
    /// Each shape's field names, in name order.
    shapes: Numbered<Box<[Symbol]>>,
    /// Per shape, whether its names are strictly ascending (as every shape
    /// this build writes is): its tuples then need no sort.
    sorted: Vec<bool>,
    strings: S,
}

/// How long each table was: what [`Tables::rollback`] returns to.
pub(crate) type Mark = (usize, usize);

/// Entries numbered in order of first use, with the number of each.
#[derive(Debug, PartialEq)]
struct Numbered<K: Eq + std::hash::Hash> {
    list: Vec<K>,
    ids: HashMap<K, u32>,
}

impl<K: Eq + std::hash::Hash> Default for Numbered<K> {
    fn default() -> Numbered<K> {
        Numbered {
            list: Vec::new(),
            ids: HashMap::new(),
        }
    }
}

impl<K: Clone + Eq + std::hash::Hash> Numbered<K> {
    fn find<Q>(&self, key: &Q) -> Option<u32>
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + std::hash::Hash + ?Sized,
    {
        self.ids.get(key).copied()
    }

    /// Appends `key`. A key defined twice (only a hostile stream does so)
    /// keeps its first number.
    fn push(&mut self, key: K) {
        self.ids
            .entry(key.clone())
            .or_insert(self.list.len() as u32);
        self.list.push(key);
    }

    fn truncate(&mut self, len: usize) {
        for (key, at) in self
            .list
            .drain(len.min(self.list.len())..)
            .zip(len as u32..)
        {
            if self.ids.get(&key) == Some(&at) {
                self.ids.remove(&key);
            }
        }
    }
}

impl Tables {
    pub(crate) fn mark(&self) -> Mark {
        (self.names.list.len(), self.shapes.list.len())
    }

    /// Forgets every definition made since `mark`: those of a frame that
    /// did not reach the log, or did not decode.
    pub(crate) fn rollback(&mut self, (names, shapes): Mark) {
        self.names.truncate(names);
        self.shapes.truncate(shapes);
        self.sorted.truncate(shapes);
    }
}

impl<S> Tables<S> {
    /// Empty tables whose values write or read their strings by `strings`.
    pub(crate) fn with_strings(strings: S) -> Tables<S> {
        Tables {
            names: Numbered::default(),
            shapes: Numbered::default(),
            sorted: Vec::new(),
            strings,
        }
    }

    fn define_shape(&mut self, shape: Box<[Symbol]>, sorted: bool) {
        self.sorted.push(sorted);
        self.shapes.push(shape);
    }

    /// Writes `name` as its reference, defining it on first use.
    pub(crate) fn put_name(&mut self, w: &mut Writer, name: Symbol) {
        match self.names.find(&name) {
            Some(id) => w.put_varint(id as u64),
            None => {
                w.put_len(self.names.list.len());
                w.put_symbol(name);
                self.names.push(name);
            }
        }
    }

    /// Reads a name reference, adding the definition it carries.
    pub(crate) fn take_name(&mut self, r: &mut Reader<'_>) -> Result<Symbol> {
        let id = r.take_var_u32()? as usize;
        let defined = self.names.list.len();
        match id.cmp(&defined) {
            std::cmp::Ordering::Less => Ok(self.names.list[id]),
            std::cmp::Ordering::Equal => {
                let name = r.take_symbol()?;
                self.names.push(name);
                Ok(name)
            }
            std::cmp::Ordering::Greater => Err(OodbError::corrupt(format!(
                "{}: name {id} of {defined}",
                r.context
            ))),
        }
    }

    /// Writes `t` as its shape's reference, then one value per field.
    pub(crate) fn put_tuple(&mut self, w: &mut Writer, t: &Tuple)
    where
        S: PutStrings,
    {
        let fields: Vec<Symbol> = t.iter().map(|(name, _)| name).collect();
        match self.shapes.find(fields.as_slice()) {
            Some(id) => w.put_varint(id as u64),
            None => {
                w.put_len(self.shapes.list.len());
                w.put_len(fields.len());
                for &name in &fields {
                    self.put_name(w, name);
                }
                // A tuple's names are strictly ascending by construction.
                self.define_shape(fields.into_boxed_slice(), true);
            }
        }
        for (_, v) in t.iter() {
            put_value_in(w, v, &mut self.strings);
        }
    }

    /// Reads a shaped tuple, adding the definitions it carries.
    pub(crate) fn take_tuple(&mut self, r: &mut Reader<'_>) -> Result<Tuple>
    where
        S: TakeStrings,
    {
        let id = r.take_var_u32()? as usize;
        if id == self.shapes.list.len() {
            let n = r.take_len(1)?;
            let mut shape = Vec::with_capacity(n);
            for _ in 0..n {
                shape.push(self.take_name(r)?);
            }
            let sorted = shape.windows(2).all(|w| w[0] < w[1]);
            self.define_shape(shape.into_boxed_slice(), sorted);
        }
        let Some(shape) = self.shapes.list.get(id) else {
            return Err(OodbError::corrupt(format!(
                "{}: shape {id} of {}",
                r.context,
                self.shapes.list.len()
            )));
        };
        // Each field's value takes at least its tag byte.
        if shape.len() > r.remaining() {
            return Err(OodbError::corrupt(format!(
                "{}: {} values of shape {id} in {} bytes",
                r.context,
                shape.len(),
                r.remaining()
            )));
        }
        let mut fields = Vec::with_capacity(shape.len());
        for &name in shape.iter() {
            fields.push((name, take_value_in(r, &mut self.strings)?));
        }
        // `from_fields` orders and dedups, so even a hostile shape
        // (unsorted, repeated names) yields a well-formed tuple.
        Ok(if self.sorted[id] {
            Tuple::from_sorted_fields(fields)
        } else {
            Tuple::from_fields(fields)
        })
    }
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

/// Encodes a [`Type`].
pub fn put_type(w: &mut Writer, t: &Type) {
    match t {
        Type::Any => w.put_u8(0),
        Type::Nothing => w.put_u8(1),
        Type::Bool => w.put_u8(2),
        Type::Int => w.put_u8(3),
        Type::Float => w.put_u8(4),
        Type::Str => w.put_u8(5),
        Type::Class(c) => {
            w.put_u8(6);
            w.put_varint(c.0 as u64);
        }
        Type::Tuple(fields) => {
            w.put_u8(7);
            w.put_len(fields.len());
            for (name, ft) in fields {
                w.put_symbol(*name);
                put_type(w, ft);
            }
        }
        Type::Set(e) => {
            w.put_u8(8);
            put_type(w, e);
        }
        Type::List(e) => {
            w.put_u8(9);
            put_type(w, e);
        }
    }
}

/// Decodes a [`Type`].
pub fn take_type(r: &mut Reader<'_>) -> Result<Type> {
    Ok(match r.take_u8()? {
        0 => Type::Any,
        1 => Type::Nothing,
        2 => Type::Bool,
        3 => Type::Int,
        4 => Type::Float,
        5 => Type::Str,
        6 => Type::Class(ClassId(r.take_var_u32()?)),
        7 => {
            let n = r.take_len(2)?;
            let mut fields = BTreeMap::new();
            for _ in 0..n {
                let name = r.take_symbol()?;
                fields.insert(name, take_type(r)?);
            }
            Type::Tuple(fields)
        }
        8 => Type::set(take_type(r)?),
        9 => Type::list(take_type(r)?),
        tag => return Err(bad_tag(r, "type", tag)),
    })
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

fn bin_op_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Mod => 4,
        BinOp::Concat => 5,
        BinOp::Eq => 6,
        BinOp::Ne => 7,
        BinOp::Lt => 8,
        BinOp::Le => 9,
        BinOp::Gt => 10,
        BinOp::Ge => 11,
        BinOp::And => 12,
        BinOp::Or => 13,
        BinOp::In => 14,
        BinOp::Union => 15,
        BinOp::Intersect => 16,
        BinOp::Except => 17,
    }
}

fn bin_op_from_tag(r: &Reader<'_>, tag: u8) -> Result<BinOp> {
    Ok(match tag {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Mod,
        5 => BinOp::Concat,
        6 => BinOp::Eq,
        7 => BinOp::Ne,
        8 => BinOp::Lt,
        9 => BinOp::Le,
        10 => BinOp::Gt,
        11 => BinOp::Ge,
        12 => BinOp::And,
        13 => BinOp::Or,
        14 => BinOp::In,
        15 => BinOp::Union,
        16 => BinOp::Intersect,
        17 => BinOp::Except,
        t => return Err(bad_tag(r, "binary operator", t)),
    })
}

fn agg_tag(f: AggFunc) -> u8 {
    match f {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Min => 2,
        AggFunc::Max => 3,
        AggFunc::Avg => 4,
        AggFunc::Flatten => 5,
    }
}

fn agg_from_tag(r: &Reader<'_>, tag: u8) -> Result<AggFunc> {
    Ok(match tag {
        0 => AggFunc::Count,
        1 => AggFunc::Sum,
        2 => AggFunc::Min,
        3 => AggFunc::Max,
        4 => AggFunc::Avg,
        5 => AggFunc::Flatten,
        t => return Err(bad_tag(r, "aggregate function", t)),
    })
}

/// Encodes an [`Expr`].
pub fn put_expr(w: &mut Writer, e: &Expr) {
    match e {
        Expr::Lit(v) => {
            w.put_u8(0);
            put_value(w, v);
        }
        Expr::SelfRef => w.put_u8(1),
        Expr::Name(n) => {
            w.put_u8(2);
            w.put_symbol(*n);
        }
        Expr::Attr { recv, name, args } => {
            w.put_u8(3);
            put_expr(w, recv);
            w.put_symbol(*name);
            w.put_len(args.len());
            for a in args {
                put_expr(w, a);
            }
        }
        Expr::TupleCons(fields) => {
            w.put_u8(4);
            w.put_len(fields.len());
            for (n, fe) in fields {
                w.put_symbol(*n);
                put_expr(w, fe);
            }
        }
        Expr::SetCons(es) => {
            w.put_u8(5);
            w.put_len(es.len());
            for fe in es {
                put_expr(w, fe);
            }
        }
        Expr::ListCons(es) => {
            w.put_u8(6);
            w.put_len(es.len());
            for fe in es {
                put_expr(w, fe);
            }
        }
        Expr::Unary { op, expr } => {
            w.put_u8(7);
            w.put_u8(match op {
                UnOp::Not => 0,
                UnOp::Neg => 1,
            });
            put_expr(w, expr);
        }
        Expr::Binary { op, lhs, rhs } => {
            w.put_u8(8);
            w.put_u8(bin_op_tag(*op));
            put_expr(w, lhs);
            put_expr(w, rhs);
        }
        Expr::If { cond, then, els } => {
            w.put_u8(9);
            put_expr(w, cond);
            put_expr(w, then);
            put_expr(w, els);
        }
        Expr::Select(s) => {
            w.put_u8(10);
            put_select(w, s);
        }
        Expr::Exists(s) => {
            w.put_u8(11);
            put_select(w, s);
        }
        Expr::Aggregate { func, arg } => {
            w.put_u8(12);
            w.put_u8(agg_tag(*func));
            put_expr(w, arg);
        }
        Expr::IsA { expr, class } => {
            w.put_u8(13);
            put_expr(w, expr);
            w.put_symbol(*class);
        }
        Expr::Apply { name, args } => {
            w.put_u8(14);
            w.put_symbol(*name);
            w.put_len(args.len());
            for a in args {
                put_expr(w, a);
            }
        }
    }
}

/// Decodes an [`Expr`].
pub fn take_expr(r: &mut Reader<'_>) -> Result<Expr> {
    Ok(match r.take_u8()? {
        0 => Expr::Lit(take_value(r)?),
        1 => Expr::SelfRef,
        2 => Expr::Name(r.take_symbol()?),
        3 => {
            let recv = Box::new(take_expr(r)?);
            let name = r.take_symbol()?;
            let n = r.take_len(1)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(take_expr(r)?);
            }
            Expr::Attr { recv, name, args }
        }
        4 => {
            let n = r.take_len(2)?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.take_symbol()?;
                fields.push((name, take_expr(r)?));
            }
            Expr::TupleCons(fields)
        }
        5 => {
            let n = r.take_len(1)?;
            let mut es = Vec::with_capacity(n);
            for _ in 0..n {
                es.push(take_expr(r)?);
            }
            Expr::SetCons(es)
        }
        6 => {
            let n = r.take_len(1)?;
            let mut es = Vec::with_capacity(n);
            for _ in 0..n {
                es.push(take_expr(r)?);
            }
            Expr::ListCons(es)
        }
        7 => {
            let op = match r.take_u8()? {
                0 => UnOp::Not,
                1 => UnOp::Neg,
                t => return Err(bad_tag(r, "unary operator", t)),
            };
            Expr::Unary {
                op,
                expr: Box::new(take_expr(r)?),
            }
        }
        8 => {
            let tag = r.take_u8()?;
            let op = bin_op_from_tag(r, tag)?;
            Expr::Binary {
                op,
                lhs: Box::new(take_expr(r)?),
                rhs: Box::new(take_expr(r)?),
            }
        }
        9 => Expr::If {
            cond: Box::new(take_expr(r)?),
            then: Box::new(take_expr(r)?),
            els: Box::new(take_expr(r)?),
        },
        10 => Expr::Select(take_select(r)?),
        11 => Expr::Exists(take_select(r)?),
        12 => {
            let tag = r.take_u8()?;
            let func = agg_from_tag(r, tag)?;
            Expr::Aggregate {
                func,
                arg: Box::new(take_expr(r)?),
            }
        }
        13 => Expr::IsA {
            expr: Box::new(take_expr(r)?),
            class: r.take_symbol()?,
        },
        14 => {
            let name = r.take_symbol()?;
            let n = r.take_len(1)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(take_expr(r)?);
            }
            Expr::Apply { name, args }
        }
        tag => return Err(bad_tag(r, "expression", tag)),
    })
}

fn put_select(w: &mut Writer, s: &SelectExpr) {
    w.put_u8(s.distinct as u8);
    w.put_u8(s.the as u8);
    put_expr(w, &s.proj);
    w.put_len(s.bindings.len());
    for (var, coll) in &s.bindings {
        w.put_symbol(*var);
        put_expr(w, coll);
    }
    match &s.filter {
        None => w.put_u8(0),
        Some(f) => {
            w.put_u8(1);
            put_expr(w, f);
        }
    }
}

fn take_select(r: &mut Reader<'_>) -> Result<SelectExpr> {
    let distinct = r.take_u8()? != 0;
    let the = r.take_u8()? != 0;
    let proj = Box::new(take_expr(r)?);
    let n = r.take_len(2)?;
    let mut bindings = Vec::with_capacity(n);
    for _ in 0..n {
        let var = r.take_symbol()?;
        bindings.push((var, take_expr(r)?));
    }
    let filter = match r.take_u8()? {
        0 => None,
        1 => Some(Box::new(take_expr(r)?)),
        t => return Err(bad_tag(r, "select filter marker", t)),
    };
    Ok(SelectExpr {
        distinct,
        the,
        proj,
        bindings,
        filter,
    })
}

// ---------------------------------------------------------------------------
// Attribute definitions
// ---------------------------------------------------------------------------

/// Encodes an [`AttrDef`].
pub fn put_attr_def(w: &mut Writer, def: &AttrDef) {
    w.put_symbol(def.sig.name);
    w.put_len(def.sig.params.len());
    for (p, t) in &def.sig.params {
        w.put_symbol(*p);
        put_type(w, t);
    }
    put_type(w, &def.sig.ty);
    match &def.body {
        AttrBody::Stored => w.put_u8(0),
        AttrBody::Computed(e) => {
            w.put_u8(1);
            put_expr(w, e);
        }
        AttrBody::Abstract => w.put_u8(2),
    }
}

/// Decodes an [`AttrDef`].
pub fn take_attr_def(r: &mut Reader<'_>) -> Result<AttrDef> {
    let name = r.take_symbol()?;
    let n = r.take_len(2)?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        let p = r.take_symbol()?;
        params.push((p, take_type(r)?));
    }
    let ty = take_type(r)?;
    let body = match r.take_u8()? {
        0 => AttrBody::Stored,
        1 => AttrBody::Computed(Arc::new(take_expr(r)?)),
        2 => AttrBody::Abstract,
        t => return Err(bad_tag(r, "attribute body", t)),
    };
    Ok(AttrDef {
        sig: AttrSig { name, params, ty },
        body,
    })
}

fn bad_tag(r: &Reader<'_>, what: &str, tag: u8) -> OodbError {
    OodbError::corrupt(format!(
        "{}: unknown {what} tag {tag} at offset {}",
        r.context,
        r.pos - 1
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    /// One step of the reference the kernel is checked against: the
    /// reflected IEEE CRC32 by its bit-serial definition, one byte of input
    /// folded into the running state.
    fn bytewise_step(mut crc: u32, b: u8) -> u32 {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
        crc
    }

    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes
            .iter()
            .fold(0xFFFF_FFFF, |crc, &b| bytewise_step(crc, b))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
        // A fixed 1 KiB pattern, pinned to the value every earlier build
        // wrote into its page and frame checksums.
        let pattern: Vec<u8> = (0..1024u32).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(crc32(&pattern), 0x7C32_1B5D);
        assert_eq!(crc32_bytewise(&pattern), 0x7C32_1B5D);
    }

    /// The checksum does not move: eight bytes at a step gives what one
    /// byte at a step gives, at every length around the step and page
    /// boundaries and at every alignment of the first byte.
    #[test]
    fn crc32_equals_the_bytewise_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_C021);
        let buf: Vec<u8> = (0..4099 + 8)
            .map(|_| rng.gen_range(0u32..256) as u8)
            .collect();
        for start in 0..8 {
            // The reference state after `len` bytes, carried along.
            let mut state = 0xFFFF_FFFFu32;
            for len in 0..=4099 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), !state, "start {start}, len {len}");
                state = bytewise_step(state, buf[start + len]);
            }
        }
    }

    fn roundtrip_value(v: &Value) {
        let mut w = Writer::new();
        put_value(&mut w, v);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        let back = take_value(&mut r).unwrap();
        assert_eq!(&back, v);
        assert!(r.is_exhausted());
    }

    #[test]
    fn values_roundtrip() {
        roundtrip_value(&Value::Null);
        roundtrip_value(&Value::Bool(true));
        roundtrip_value(&Value::Int(-42));
        roundtrip_value(&Value::Float(f64::NAN)); // bit pattern preserved
        roundtrip_value(&Value::str("héllo"));
        roundtrip_value(&Value::Oid(Oid(crate::ids::IMAGINARY_OID_BASE + 7)));
        roundtrip_value(&Value::tuple([
            ("Name", Value::str("Maggy")),
            ("Pets", Value::set([Value::Oid(Oid(3)), Value::Int(1)])),
            ("L", Value::list([Value::Null, Value::Float(2.5)])),
        ]));
    }

    /// A rollback forgets exactly the entries past the mark, also when a
    /// hostile stream defined one name twice.
    #[test]
    fn a_rollback_forgets_exactly_the_entries_past_its_mark() {
        let names: Vec<Symbol> = (0..40).map(|i| sym(&format!("n{i}"))).collect();
        let mut table = Numbered::default();
        for &n in &names {
            table.push(n);
        }
        for at in [40, 20, 10, 0] {
            table.truncate(at);
            for (i, n) in names.iter().enumerate() {
                assert_eq!(table.find(n), (i < at).then_some(i as u32), "{at}: {n}");
            }
        }
        let twice = sym("twice");
        for n in [twice, sym("other"), twice] {
            table.push(n);
        }
        assert_eq!(table.find(&twice), Some(0));
        table.truncate(2);
        assert_eq!(table.find(&twice), Some(0));
        table.truncate(0);
        assert_eq!(table.find(&twice), None);
    }

    #[test]
    fn float_nan_bits_survive() {
        let v = Value::Float(f64::from_bits(0x7FF8_0000_0000_1234));
        let mut w = Writer::new();
        put_value(&mut w, &v);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        match take_value(&mut r).unwrap() {
            Value::Float(x) => assert_eq!(x.to_bits(), 0x7FF8_0000_0000_1234),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn types_roundtrip() {
        let t = Type::tuple([
            ("A", Type::set(Type::Class(ClassId(3)))),
            ("B", Type::list(Type::tuple([("X", Type::Int)]))),
            ("C", Type::Any),
            ("D", Type::Nothing),
        ]);
        let mut w = Writer::new();
        put_type(&mut w, &t);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        assert_eq!(take_type(&mut r).unwrap(), t);
    }

    #[test]
    fn exprs_roundtrip() {
        let q = Expr::Select(SelectExpr {
            distinct: true,
            the: false,
            proj: Box::new(Expr::TupleCons(vec![(
                sym("City"),
                Expr::self_attr("City"),
            )])),
            bindings: vec![(sym("P"), Expr::name("Person"))],
            filter: Some(Box::new(Expr::bin(
                BinOp::Ge,
                Expr::attr(Expr::name("P"), "Age"),
                Expr::lit(Value::Int(21)),
            ))),
        });
        let variants = vec![
            q.clone(),
            Expr::Exists(match q {
                Expr::Select(s) => s,
                _ => unreachable!(),
            }),
            Expr::If {
                cond: Box::new(Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(Expr::SelfRef),
                }),
                then: Box::new(Expr::Aggregate {
                    func: AggFunc::Flatten,
                    arg: Box::new(Expr::SetCons(vec![Expr::lit(Value::Int(1))])),
                }),
                els: Box::new(Expr::IsA {
                    expr: Box::new(Expr::name("x")),
                    class: sym("Person"),
                }),
            },
            Expr::Apply {
                name: sym("Resident"),
                args: vec![Expr::ListCons(vec![Expr::lit(Value::str("Paris"))])],
            },
        ];
        for e in variants {
            let mut w = Writer::new();
            put_expr(&mut w, &e);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes, "test");
            assert_eq!(take_expr(&mut r).unwrap(), e);
        }
    }

    #[test]
    fn attr_defs_roundtrip() {
        let defs = vec![
            AttrDef::stored(sym("Age"), Type::Int),
            AttrDef::computed(sym("Addr"), Type::Str, Expr::self_attr("City")),
            AttrDef::method(
                sym("Proj"),
                vec![(sym("years"), Type::Int)],
                Type::Float,
                Expr::self_attr("Balance"),
            ),
            AttrDef::abstract_sig(sym("Ghost"), Type::Any),
        ];
        for d in defs {
            let mut w = Writer::new();
            put_attr_def(&mut w, &d);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes, "test");
            assert_eq!(take_attr_def(&mut r).unwrap(), d);
        }
    }

    #[test]
    fn truncation_yields_typed_corrupt_errors() {
        let mut w = Writer::new();
        put_value(&mut w, &Value::str("hello world"));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut], "truncation test");
            match take_value(&mut r) {
                Err(OodbError::Corrupt { context }) => {
                    assert!(context.contains("truncation test"));
                }
                Ok(_) => panic!("decoded from a truncated prefix of len {cut}"),
                Err(other) => panic!("wrong error kind: {other:?}"),
            }
        }
    }

    #[test]
    fn a_bad_string_is_corrupt_not_a_panic_or_an_allocation() {
        // An invalid UTF-8 byte inside an otherwise well-framed string.
        let mut w = Writer::new();
        put_value(&mut w, &Value::str("hello"));
        let mut bytes = w.into_bytes();
        *bytes.last_mut().unwrap() = 0xFF;
        let mut r = Reader::new(&bytes, "utf8 test");
        match take_value(&mut r) {
            Err(OodbError::Corrupt { context }) => {
                assert_eq!(context, "utf8 test: string is not valid UTF-8")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A string whose length prefix runs past the buffer is refused by
        // the bounds check, before anything is copied or allocated for it.
        let mut w = Writer::new();
        w.put_u8(4); // string tag
        w.put_varint(u32::MAX as u64);
        w.put_bytes(b"short");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "len test");
        match take_value(&mut r) {
            Err(OodbError::Corrupt { context }) => assert_eq!(
                context,
                "len test: truncated while reading string body at offset 6"
            ),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // And an element count no buffer of this size could hold.
        let mut r = Reader::new(&bytes[1..], "len test");
        match r.take_len(1) {
            Err(OodbError::Corrupt { context }) => assert_eq!(
                context,
                "len test: implausible element count 4294967295 at offset 0"
            ),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bogus_tags_and_lengths_are_rejected() {
        let mut r = Reader::new(&[99u8], "tag test");
        assert!(matches!(take_value(&mut r), Err(OodbError::Corrupt { .. })));
        // A huge length prefix must not drive allocation.
        let mut w = Writer::new();
        w.put_u8(8); // list tag
        w.put_varint(u32::MAX as u64);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "len test");
        assert!(matches!(take_value(&mut r), Err(OodbError::Corrupt { .. })));
    }

    #[test]
    fn varints_roundtrip_at_every_width() {
        let mut unsigned = vec![0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        unsigned.extend((0..64).map(|k| 1u64 << k));
        let signed = [0i64, 1, -1, 63, -64, 64, -65, i64::MAX, i64::MIN];
        let mut w = Writer::new();
        for &v in &unsigned {
            w.put_varint(v);
        }
        for &v in &signed {
            w.put_zigzag(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "varint test");
        for &v in &unsigned {
            assert_eq!(r.take_varint().unwrap(), v);
        }
        for &v in &signed {
            assert_eq!(r.take_zigzag().unwrap(), v);
        }
        assert!(r.is_exhausted());
        // Widths: seven bits a byte; zigzag keeps small magnitudes small.
        let width = |f: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            f(&mut w);
            w.len()
        };
        assert_eq!(width(&|w| w.put_varint(127)), 1);
        assert_eq!(width(&|w| w.put_varint(128)), 2);
        assert_eq!(width(&|w| w.put_varint(u64::MAX)), 10);
        assert_eq!(width(&|w| w.put_zigzag(-64)), 1);
        assert_eq!(width(&|w| w.put_zigzag(i64::MIN)), 10);
    }

    /// A varint reads the same wherever it ends in the buffer: every width,
    /// ending in each of the buffer's last nine bytes, so a decoder that
    /// reads ahead (eight bytes at a load) must match the byte loop.
    #[test]
    fn a_varint_reads_the_same_at_every_distance_from_the_end() {
        let mut values: Vec<u64> = (1..64).map(|k| (1u64 << k) - 1).collect();
        values.extend([0, 0x5555_5555_5555_5555, 0xAAAA_AAAA_AAAA_AAAA, u64::MAX]);
        for v in values {
            let mut w = Writer::new();
            w.put_varint(v);
            let varint = w.into_bytes();
            for after in 0..9 {
                let mut buf = vec![0x7F, 0x00];
                buf.extend_from_slice(&varint);
                buf.extend(std::iter::repeat_n(0x01, after));
                let mut r = Reader::new(&buf, "varint test");
                assert_eq!(r.take_varint().unwrap(), 0x7F);
                assert_eq!(r.take_varint().unwrap(), 0);
                assert_eq!(r.take_varint().unwrap(), v, "{v:#x}, {after} after");
                assert_eq!(r.remaining(), after, "{v:#x}, {after} after");
            }
        }
        // A varint too long or too wide fails alike, with bytes after it
        // or without.
        let mut wide = vec![0xFFu8; 9];
        wide.push(0x02);
        for bad in [vec![0x80u8; 11], wide] {
            let alone = Reader::new(&bad, "varint test").take_varint().unwrap_err();
            for after in [1, 8, 9] {
                let mut buf = bad.clone();
                buf.extend(std::iter::repeat_n(0x80, after));
                let err = Reader::new(&buf, "varint test").take_varint().unwrap_err();
                assert_eq!(err.to_string(), alone.to_string(), "{bad:?} + {after}");
            }
        }
    }

    /// A varint longer than ten bytes, one whose value does not fit the
    /// integer it is read into, and a count no remaining buffer could hold
    /// are each corrupt, named by what is wrong.
    #[test]
    fn a_bad_varint_is_corrupt() {
        let corrupt =
            |bytes: &[u8], take: &dyn Fn(&mut Reader<'_>) -> Result<u64>, want: &str| match take(
                &mut Reader::new(bytes, "varint test"),
            ) {
                Err(OodbError::Corrupt { context }) => {
                    assert!(context.contains(want), "{bytes:?}: {context}")
                }
                other => panic!("{bytes:?}: expected Corrupt, got {other:?}"),
            };
        let u64_ = |r: &mut Reader<'_>| r.take_varint();
        let u32_ = |r: &mut Reader<'_>| r.take_var_u32().map(u64::from);
        let len = |r: &mut Reader<'_>| r.take_len(1).map(|n| n as u64);
        let mut eleven = vec![0x80u8; 10];
        eleven.push(0x00);
        corrupt(&eleven, &u64_, "longer than 10 bytes");
        corrupt(&[0x80; 12], &u64_, "longer than 10 bytes");
        // Ten bytes whose last carries more than the 64th bit.
        let mut wide = vec![0xFFu8; 9];
        wide.push(0x02);
        corrupt(&wide, &u64_, "overflows u64");
        // 2^32 fits a u64 but not a u32.
        let mut w = Writer::new();
        w.put_varint(1 << 32);
        let big = w.into_bytes();
        assert_eq!(
            u64_(&mut Reader::new(&big, "varint test")).unwrap(),
            1 << 32
        );
        corrupt(&big, &u32_, "overflows u32");
        corrupt(&big, &len, "overflows u32");
        corrupt(&[0x80, 0x80], &u64_, "truncated while reading varint");
        // A count of 200 one-byte elements with three bytes left.
        corrupt(
            &[0xC8, 0x01, 0, 0, 0],
            &len,
            "implausible element count 200 at offset 0",
        );
    }
}
