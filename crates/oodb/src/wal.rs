//! The write-ahead log: an append-only redo log of store mutations.
//!
//! Durability here follows the classic recipe the paper's platform (O₂,
//! like every disk-resident OODB) relied on: every mutation is encoded as a
//! [`WalRecord`] and **appended to the log before it is applied** to the
//! in-memory store, so the log is always a superset of volatile state and
//! replaying it after a crash recovers exactly the committed prefix.
//!
//! ## File format
//!
//! ```text
//! header:  magic "OVWALOG1" · format u32 · follows u64 · crc u32
//!                                                          (24 bytes)
//! frames:  ┌────────────┬─────────┬────────────┬──────────────┐
//!          │ len varint │ crc u32 │ lsn varint │ payload …    │
//!          └────────────┴─────────┴────────────┴──────────────┘
//! payload: tag u8 · the record's fields
//!   Insert          0 · oid · class · shaped tuple
//!   Update          1 · oid · shaped tuple
//!   SetField        2 · oid · name · value
//!   Remove          3 · oid
//!   CreateIndex     4 · class · name
//!   DropIndex       5 · class · name
//!   NameBind        6 · name · oid
//!   AddClass        7 · name · parents (count × class) · attr defs
//!   AddAttr         8 · class · attr def
//!   IdentityAssign  9 · view name · class name · shaped tuple · oid
//!   IdentityDrop   10 · view name · class name · shaped tuple
//! name:          id varint [· string, when id is the table's length]
//! shaped tuple:  shape id varint
//!                [· field count · count × name, when id is the table's length]
//!                · one value per field of the shape
//! ```
//!
//! Oids, class ids, lengths and counts are varints, integers zigzag
//! varints ([`crate::codec`]). The header is written when the log is
//! created, and [`Wal::reset`] cuts the log back to it; its `crc` is CRC32
//! over the bytes before it. `follows` is the number of the checkpoint
//! whose snapshot the log's records come after (0: none yet), so recovery
//! can tell this log from the one before it ([`WalScan::open`]). A log
//! whose format is not [`WAL_FORMAT`], older or newer, fails with
//! [`OodbError::UnsupportedFormat`] instead of misparsing, as the snapshot
//! does. A log longer than a header and without the magic is format 0:
//! what builds before the header wrote. Format 1 wrote fixed-width scalars
//! and every field name in every record; formats 1 and 2 wrote a 16-byte
//! header with no `follows`. There is no migration path. A file no longer
//! than a header that is not a whole one (a crash while the log was created
//! or reset: cut, zero-filled, or half rewritten) holds no frame and is an
//! empty log.
//!
//! A frame's `len` counts the lsn plus payload bytes; its `crc` is CRC32
//! (IEEE) over those same bytes. LSNs are **monotonic** starting at 1. On
//! open the log is scanned frame by frame; the first frame with a short
//! body, a checksum mismatch, a non-monotonic LSN or a payload that does
//! not decode marks the *torn tail* — everything from there on is truncated
//! away (a crash mid-append must lose at most the records that were never
//! acknowledged as synced). An append that fails mid-write leaves such a
//! tail too; the next append, or checkpoint, first cuts the file back to
//! the end of the last whole frame (`Wal::heal`), so no acknowledged
//! frame ever follows torn bytes.
//!
//! ## Name and shape tables
//!
//! The unique-root rule fixes an object's structure by its class (§4.2), so
//! a log holds few distinct tuple *shapes* (name-ordered field-name lists)
//! and few distinct names. The log numbers each in order of first use since
//! the last [`Wal::reset`]; a record refers to a name or a shape by that
//! number, and the record that uses one first carries its definition in the
//! same frame (a reference equal to the table's length). The scan rebuilds
//! both tables from the frames it keeps, and the opened log appends with
//! exactly those tables, so no frame appended after an open uses a
//! definition that a torn tail took away. [`WalRecord::encode`] is the
//! self-contained form — a record encoded against empty tables, as the
//! first frame of a log is. The snapshot body writes names and tuples by
//! the same rule, with one table per file ([`crate::pager`]).
//!
//! ## Sync policy
//!
//! [`Durability::WalSync`] fsyncs after every commit; [`Durability::Wal`]
//! groups commits and fsyncs every [`GROUP_COMMIT_INTERVAL`] records (and on
//! checkpoint/close), trading a bounded crash-loss window for throughput.
//!
//! Failpoint sites: `wal.append` (reject an append before any byte is
//! written), `wal.torn_write` (write a deliberately partial frame, then
//! error — simulates a crash mid-write), `wal.fsync` (fail the sync).

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::{self, crc32, Reader, Tables, Writer};
use crate::error::{OodbError, Result};
use crate::event::Event;
use crate::ids::{ClassId, Oid};
use crate::schema::AttrDef;
use crate::symbol::Symbol;
use crate::value::{Tuple, Value};

/// How many records may accumulate between fsyncs under
/// [`Durability::Wal`]. [`Durability::WalSync`] syncs every commit.
pub const GROUP_COMMIT_INTERVAL: u64 = 64;

/// Magic bytes opening every log.
pub const WAL_MAGIC: &[u8; 8] = b"OVWALOG1";

/// The log format version this build writes and reads.
pub const WAL_FORMAT: u32 = 3;

/// Bytes of the log header: magic, format, follows, crc.
const WAL_HEADER_LEN: usize = 24;

/// The header of a log of this build's format that follows checkpoint
/// `follows`.
fn header(follows: u64) -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[..8].copy_from_slice(WAL_MAGIC);
    h[8..12].copy_from_slice(&WAL_FORMAT.to_le_bytes());
    h[12..20].copy_from_slice(&follows.to_le_bytes());
    let crc = crc32(&h[..20]);
    h[20..].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Checks the header `raw` begins with: `Ok(Some(follows))` when the header
/// is whole and of this build's format; `Ok(None)` when the file is no
/// longer than a header and is not a whole one. Such a file holds no frame —
/// a crash while the log was created or reset, which may leave zeros where
/// the header went — so it is an empty log whose header must be written
/// again.
fn check_header(raw: &[u8]) -> Result<Option<u64>> {
    let word = |at: usize| u32::from_le_bytes(raw[at..at + 4].try_into().expect("4 bytes"));
    let magic = raw.starts_with(WAL_MAGIC);
    let sealed_at = |crc: usize| magic && raw.len() >= crc + 4 && crc32(&raw[..crc]) == word(crc);
    let sealed = sealed_at(WAL_HEADER_LEN - 4);
    if !sealed && sealed_at(12) {
        // The 16-byte header of formats 1 and 2.
        return Err(OodbError::UnsupportedFormat {
            found: word(8),
            supported: WAL_FORMAT,
        });
    }
    if raw.len() <= WAL_HEADER_LEN && !sealed {
        return Ok(None);
    }
    if !magic {
        return Err(OodbError::UnsupportedFormat {
            found: 0,
            supported: WAL_FORMAT,
        });
    }
    if !sealed {
        return Err(OodbError::corrupt("wal header: checksum mismatch"));
    }
    match word(8) {
        WAL_FORMAT => Ok(Some(u64::from_le_bytes(
            raw[12..20].try_into().expect("8 bytes"),
        ))),
        found => Err(OodbError::UnsupportedFormat {
            found,
            supported: WAL_FORMAT,
        }),
    }
}

/// Durability level of a database.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Durability {
    /// In-memory only: no WAL, no checkpoints (the pre-PR-9 behavior).
    #[default]
    None,
    /// Write-ahead logging with group fsync (every
    /// [`GROUP_COMMIT_INTERVAL`] records): a crash loses at most the
    /// unsynced tail.
    Wal,
    /// Write-ahead logging with an fsync per commit: a crash loses nothing
    /// that was acknowledged.
    WalSync,
}

impl Durability {
    /// Parses a durability level from its CLI spelling.
    pub fn parse(s: &str) -> Option<Durability> {
        Some(match s {
            "none" => Durability::None,
            "wal" => Durability::Wal,
            "walsync" | "wal-sync" | "wal_sync" => Durability::WalSync,
            _ => return None,
        })
    }

    /// The CLI spelling of this level.
    pub fn as_str(self) -> &'static str {
        match self {
            Durability::None => "none",
            Durability::Wal => "wal",
            Durability::WalSync => "walsync",
        }
    }
}

impl std::fmt::Display for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One redo record. Everything a [`crate::Store`]-backed database mutates is
/// represented: object mutations, schema DDL, index DDL, name bindings, and
/// — the paper-specific part — imaginary-identity assignments from the view
/// layer (§5.1's tuple→oid tables must survive restarts).
#[derive(Clone, PartialEq, Debug)]
pub enum WalRecord {
    /// An object was created with a pre-allocated oid.
    Insert {
        /// The allocated oid.
        oid: Oid,
        /// The class the object is real in.
        class: ClassId,
        /// The full stored tuple (after null-filling).
        value: Tuple,
    },
    /// An object's whole value was replaced.
    Update {
        /// The object.
        oid: Oid,
        /// The replacement tuple.
        value: Tuple,
    },
    /// One stored field was set.
    SetField {
        /// The object.
        oid: Oid,
        /// The field.
        name: Symbol,
        /// The new value.
        value: Value,
    },
    /// An object was removed.
    Remove {
        /// The removed oid.
        oid: Oid,
    },
    /// A secondary index was created on `(class, attr)`.
    CreateIndex {
        /// The indexed class (shallow extent).
        class: ClassId,
        /// The indexed stored attribute.
        attr: Symbol,
    },
    /// A secondary index was dropped.
    DropIndex {
        /// The class.
        class: ClassId,
        /// The attribute.
        attr: Symbol,
    },
    /// A persistent name was bound to an object.
    NameBind {
        /// The name.
        name: Symbol,
        /// The object it names.
        oid: Oid,
    },
    /// A class was added to the schema. Replay re-runs
    /// [`crate::Schema::add_class`], which assigns the same sequential
    /// [`ClassId`] — ids are deterministic in creation order.
    AddClass {
        /// The class name.
        name: Symbol,
        /// Direct superclasses (already existing at append time).
        parents: Vec<ClassId>,
        /// Own attribute definitions.
        attrs: Vec<AttrDef>,
    },
    /// An attribute was added to (or redefined on) an existing class.
    AddAttr {
        /// The class.
        class: ClassId,
        /// The definition.
        def: AttrDef,
    },
    /// A view assigned an imaginary oid to a core tuple (§5.1). Class is
    /// recorded *by name*: view-side class ids are rebuilt on every bind.
    IdentityAssign {
        /// The view that owns the identity table.
        view: Symbol,
        /// The imaginary class's name.
        class: Symbol,
        /// The core tuple keying the identity table.
        core: Tuple,
        /// The assigned imaginary oid.
        oid: Oid,
    },
    /// A view dropped an identity entry (GC of unreachable imaginaries).
    IdentityDrop {
        /// The view.
        view: Symbol,
        /// The imaginary class's name.
        class: Symbol,
        /// The dropped core tuple.
        core: Tuple,
    },
}

impl WalRecord {
    /// Encodes the record payload (tag byte + fields) in its self-contained
    /// form: against empty tables, so every name and shape it uses is
    /// defined inline, as in the first frame of a log.
    pub fn encode(&self, w: &mut Writer) {
        self.encode_in(w, &mut Tables::default());
    }

    /// Decodes a payload in the self-contained form [`WalRecord::encode`]
    /// writes.
    pub fn decode(r: &mut Reader<'_>) -> Result<WalRecord> {
        WalRecord::decode_in(r, &mut Tables::default())
    }

    /// Encodes the payload against a log's `tables`, defining each name and
    /// shape they do not hold yet.
    fn encode_in(&self, w: &mut Writer, t: &mut Tables) {
        match self {
            WalRecord::Insert { oid, class, value } => {
                w.put_u8(0);
                w.put_varint(oid.0);
                w.put_varint(class.0 as u64);
                t.put_tuple(w, value);
            }
            WalRecord::Update { oid, value } => {
                w.put_u8(1);
                w.put_varint(oid.0);
                t.put_tuple(w, value);
            }
            WalRecord::SetField { oid, name, value } => {
                w.put_u8(2);
                w.put_varint(oid.0);
                t.put_name(w, *name);
                codec::put_value(w, value);
            }
            WalRecord::Remove { oid } => {
                w.put_u8(3);
                w.put_varint(oid.0);
            }
            WalRecord::CreateIndex { class, attr } => {
                w.put_u8(4);
                w.put_varint(class.0 as u64);
                t.put_name(w, *attr);
            }
            WalRecord::DropIndex { class, attr } => {
                w.put_u8(5);
                w.put_varint(class.0 as u64);
                t.put_name(w, *attr);
            }
            WalRecord::NameBind { name, oid } => {
                w.put_u8(6);
                t.put_name(w, *name);
                w.put_varint(oid.0);
            }
            WalRecord::AddClass {
                name,
                parents,
                attrs,
            } => {
                w.put_u8(7);
                t.put_name(w, *name);
                w.put_len(parents.len());
                for p in parents {
                    w.put_varint(p.0 as u64);
                }
                w.put_len(attrs.len());
                for a in attrs {
                    codec::put_attr_def(w, a);
                }
            }
            WalRecord::AddAttr { class, def } => {
                w.put_u8(8);
                w.put_varint(class.0 as u64);
                codec::put_attr_def(w, def);
            }
            WalRecord::IdentityAssign {
                view,
                class,
                core,
                oid,
            } => {
                w.put_u8(9);
                t.put_name(w, *view);
                t.put_name(w, *class);
                t.put_tuple(w, core);
                w.put_varint(oid.0);
            }
            WalRecord::IdentityDrop { view, class, core } => {
                w.put_u8(10);
                t.put_name(w, *view);
                t.put_name(w, *class);
                t.put_tuple(w, core);
            }
        }
    }

    /// Decodes a payload against a log's `tables`, adding the definitions
    /// it carries. On an error the tables may hold some of them: the
    /// caller rolls back ([`Tables::rollback`]).
    fn decode_in(r: &mut Reader<'_>, t: &mut Tables) -> Result<WalRecord> {
        let oid = |r: &mut Reader<'_>| r.take_varint().map(Oid);
        let class = |r: &mut Reader<'_>| r.take_var_u32().map(ClassId);
        Ok(match r.take_u8()? {
            0 => WalRecord::Insert {
                oid: oid(r)?,
                class: class(r)?,
                value: t.take_tuple(r)?,
            },
            1 => WalRecord::Update {
                oid: oid(r)?,
                value: t.take_tuple(r)?,
            },
            2 => WalRecord::SetField {
                oid: oid(r)?,
                name: t.take_name(r)?,
                value: codec::take_value(r)?,
            },
            3 => WalRecord::Remove { oid: oid(r)? },
            4 => WalRecord::CreateIndex {
                class: class(r)?,
                attr: t.take_name(r)?,
            },
            5 => WalRecord::DropIndex {
                class: class(r)?,
                attr: t.take_name(r)?,
            },
            6 => WalRecord::NameBind {
                name: t.take_name(r)?,
                oid: oid(r)?,
            },
            7 => {
                let name = t.take_name(r)?;
                let np = r.take_len(1)?;
                let mut parents = Vec::with_capacity(np);
                for _ in 0..np {
                    parents.push(class(r)?);
                }
                let na = r.take_len(4)?;
                let mut attrs = Vec::with_capacity(na);
                for _ in 0..na {
                    attrs.push(codec::take_attr_def(r)?);
                }
                WalRecord::AddClass {
                    name,
                    parents,
                    attrs,
                }
            }
            8 => WalRecord::AddAttr {
                class: class(r)?,
                def: codec::take_attr_def(r)?,
            },
            9 => WalRecord::IdentityAssign {
                view: t.take_name(r)?,
                class: t.take_name(r)?,
                core: t.take_tuple(r)?,
                oid: oid(r)?,
            },
            10 => WalRecord::IdentityDrop {
                view: t.take_name(r)?,
                class: t.take_name(r)?,
                core: t.take_tuple(r)?,
            },
            tag => {
                return Err(OodbError::corrupt(format!(
                    "wal record: unknown record tag {tag}"
                )))
            }
        })
    }
}

/// An open write-ahead log file.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// The checkpoint the log follows: the one its header names.
    follows: u64,
    /// Does the file differ from what the log is: torn bytes past `bytes`
    /// that a failed write left, or the header of the checkpoint before
    /// that a failed reset left? `Wal::heal` mends it.
    stale: bool,
    /// The LSN the next append will carry.
    next_lsn: u64,
    /// Appended records not yet covered by an fsync.
    unsynced: u64,
    /// Records appended since the last [`Wal::reset`] (i.e. since the last
    /// checkpoint).
    records_since_reset: u64,
    /// Byte length of the log: its header and its whole frames.
    bytes: u64,
    /// The names and shapes the log's frames define.
    tables: Tables,
}

/// A log as read by [`Wal::scan`]: its valid records and where they end.
/// Scanning writes nothing; [`WalScan::open`] makes it the live log.
#[derive(Debug)]
pub struct WalScan {
    path: PathBuf,
    records: Vec<(u64, WalRecord)>,
    /// The names and shapes `records` define: the tables appends go on with.
    tables: Tables,
    next_lsn: u64,
    /// The checkpoint the header names; `None` if the header is not whole,
    /// and the file no longer than a header: empty, cut inside it, or
    /// zero-filled.
    follows: Option<u64>,
    /// End of the header and the last valid frame: where a torn tail begins.
    good: u64,
    /// The file's length as read.
    len: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, scanning and returning
    /// every valid record, and truncating any torn tail left by a crash
    /// mid-append: [`Wal::scan`], then [`WalScan::open`] after whichever
    /// checkpoint the log follows.
    pub fn open(path: &Path) -> Result<(Wal, Vec<(u64, WalRecord)>)> {
        let scan = Wal::scan(path)?;
        let follows = scan.follows.unwrap_or(0);
        scan.open(follows)
    }

    /// Reads and decodes the log at `path` without writing a byte (a
    /// missing file is an empty log). Fails on a header of another format
    /// or a damaged one; a damaged frame only ends the scan.
    pub fn scan(path: &Path) -> Result<WalScan> {
        let raw = match std::fs::read(path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(OodbError::io("wal read", e)),
        };
        let follows = check_header(&raw)?;
        let mut records = Vec::new();
        // Byte offset of the end of the last valid frame.
        let mut good = if follows.is_some() {
            WAL_HEADER_LEN
        } else {
            raw.len()
        };
        let mut next_lsn = 1u64;
        let mut tables = Tables::default();
        while good < raw.len() {
            // A frame whose header, body or payload does not read whole
            // marks the torn (or damaged) tail.
            let mut frame = Reader::new(&raw[good..], "wal frame");
            let (Ok(len), Ok(crc)) = (frame.take_var_u32(), frame.take_u32()) else {
                break;
            };
            let (len, head) = (len as usize, raw.len() - good - frame.remaining());
            if frame.remaining() < len {
                break;
            }
            let body = &raw[good + head..good + head + len];
            if crc32(body) != crc {
                break;
            }
            let mut r = Reader::new(body, "wal record");
            if r.take_varint().ok() != Some(next_lsn) {
                break; // non-monotonic LSN: treat as tail damage
            }
            let mark = tables.mark();
            match WalRecord::decode_in(&mut r, &mut tables) {
                Ok(rec) if r.is_exhausted() => records.push((next_lsn, rec)),
                // Bounds-checked decode error, or trailing garbage inside a
                // "valid" frame: its definitions go with it.
                _ => {
                    tables.rollback(mark);
                    break;
                }
            }
            next_lsn += 1;
            good += head + len;
        }
        Ok(WalScan {
            path: path.to_path_buf(),
            records,
            tables,
            next_lsn,
            follows,
            good: good as u64,
            len: raw.len() as u64,
        })
    }

    /// Appends one record, returning its LSN. The record is written (and
    /// buffered by the OS) but **not** fsynced — call [`Wal::commit`].
    ///
    /// If the `wal.append` failpoint fires, nothing is written. If
    /// `wal.torn_write` fires, a deliberately partial frame is written
    /// before the error — simulating a crash mid-write. Torn bytes, from
    /// the failpoint or a failed write, stay until the next append or
    /// checkpoint cuts them off (`Wal::heal`), or an open truncates
    /// them; if that cut fails, so does the append.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64> {
        let mut append = Event::WalAppend.open();
        append.field("lsn", self.next_lsn);
        crate::failpoint!("wal.append");
        self.heal()?;
        let lsn = self.next_lsn;
        let mark = self.tables.mark();
        let mut body = Writer::new();
        body.put_varint(lsn);
        rec.encode_in(&mut body, &mut self.tables);
        let body = body.into_bytes();
        let mut frame = Writer::new();
        frame.put_len(body.len());
        frame.put_u32(crc32(&body));
        let head = frame.len();
        frame.put_bytes(&body);
        let frame = frame.into_bytes();

        if crate::faults::hit("wal.torn_write").is_err() {
            // Write a partial frame (half the bytes, at least cutting into
            // the body) and report failure, as a crash mid-write would.
            let cut = (frame.len() / 2).max(head + 1).min(frame.len() - 1);
            let _ = self.file.write_all(&frame[..cut]);
            let _ = self.file.flush();
            self.stale = true;
            self.tables.rollback(mark);
            append.field("outcome", "torn_write");
            return Err(OodbError::Io {
                context: "wal append".to_string(),
                message: "injected torn write".to_string(),
            });
        }

        if let Err(e) = self.file.write_all(&frame) {
            self.stale = true;
            self.tables.rollback(mark);
            return Err(OodbError::io("wal append", e));
        }
        self.next_lsn += 1;
        self.unsynced += 1;
        self.records_since_reset += 1;
        self.bytes += frame.len() as u64;
        append.field("bytes", frame.len());
        append.close(1);
        Ok(lsn)
    }

    /// Makes appended records durable according to `durability`:
    /// [`Durability::WalSync`] fsyncs now, [`Durability::Wal`] fsyncs once
    /// [`GROUP_COMMIT_INTERVAL`] records have accumulated.
    pub fn commit(&mut self, durability: Durability) -> Result<()> {
        match durability {
            Durability::None => Ok(()),
            Durability::WalSync => self.sync(),
            Durability::Wal => {
                if self.unsynced >= GROUP_COMMIT_INTERVAL {
                    self.sync()
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Forces an fsync of everything appended so far.
    pub fn sync(&mut self) -> Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        crate::failpoint!("wal.fsync");
        let fsync = Event::WalFsync.open();
        self.file
            .sync_data()
            .map_err(|e| OodbError::io("wal fsync", e))?;
        fsync.close(1);
        self.unsynced = 0;
        Ok(())
    }

    /// Empties the log once the snapshot of checkpoint `checkpoint` is
    /// written: cuts it to its header, which then names that checkpoint,
    /// and empties its name and shape tables. LSNs restart at 1; the header
    /// tells this log from the one before. If the cut fails, the file is
    /// still the log of the checkpoint before, all of whose records the
    /// snapshot holds: an open resets it, and the next append or checkpoint
    /// first finishes the cut (`Wal::heal`).
    pub fn reset(&mut self, checkpoint: u64) -> Result<()> {
        self.follows = checkpoint;
        self.next_lsn = 1;
        self.unsynced = 0;
        self.records_since_reset = 0;
        self.bytes = WAL_HEADER_LEN as u64;
        self.tables = Tables::default();
        self.stale = true;
        self.heal()
    }

    /// Makes the file what the log is, if a failed write or reset left it
    /// otherwise: cuts it back to `bytes`, the end of the last whole frame,
    /// and writes an empty log's header again once the cut is durable (a
    /// header naming this checkpoint above frames of the one before would
    /// replay them twice).
    pub(crate) fn heal(&mut self) -> Result<()> {
        if !self.stale {
            return Ok(());
        }
        let io = |e| OodbError::io("wal: cutting back a failed write", e);
        self.file.set_len(self.bytes).map_err(io)?;
        if self.bytes == WAL_HEADER_LEN as u64 {
            self.file.sync_all().map_err(io)?;
            self.file.seek(SeekFrom::Start(0)).map_err(io)?;
            self.file.write_all(&header(self.follows)).map_err(io)?;
        }
        self.file.sync_all().map_err(io)?;
        self.file.seek(SeekFrom::End(0)).map_err(io)?;
        self.stale = false;
        Ok(())
    }

    /// The checkpoint the log follows.
    pub(crate) fn follows(&self) -> u64 {
        self.follows
    }

    /// The LSN the next append will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Records appended since the last reset (checkpoint).
    pub fn records_since_reset(&self) -> u64 {
        self.records_since_reset
    }

    /// The log's size in bytes: its header and its whole frames.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl WalScan {
    /// Makes the scanned log the live one, as the log after checkpoint
    /// `checkpoint` (0: no snapshot). A log that follows that checkpoint
    /// keeps its records, and a torn tail is truncated. A log that follows
    /// the checkpoint before holds only records its snapshot holds — a
    /// crash or failure came between the snapshot's rename and the log's
    /// reset — and is reset, as is a file without a whole header. Any other
    /// log is [`OodbError::Corrupt`]. Appends go on with the tables of the
    /// frames kept. Returns the log and the records to replay.
    pub fn open(self, checkpoint: u64) -> Result<(Wal, Vec<(u64, WalRecord)>)> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.path)
            .map_err(|e| OodbError::io("wal open", e))?;
        let mut wal = Wal {
            file,
            path: self.path,
            follows: checkpoint,
            stale: self.good < self.len,
            next_lsn: self.next_lsn,
            unsynced: 0,
            records_since_reset: self.records.len() as u64,
            bytes: self.good,
            tables: self.tables,
        };
        match self.follows {
            Some(follows) if follows == checkpoint => {
                if wal.stale {
                    crate::metric_counter!("wal.truncated_bytes").add(self.len - self.good);
                }
                wal.heal()?;
                wal.file
                    .seek(SeekFrom::End(0))
                    .map_err(|e| OodbError::io("wal seek", e))?;
                Ok((wal, self.records))
            }
            Some(follows) if checkpoint.checked_sub(1) != Some(follows) => {
                Err(OodbError::corrupt(format!(
                    "wal: the log follows checkpoint {follows}, the snapshot is checkpoint {checkpoint} (0: none)"
                )))
            }
            _ => {
                wal.reset(checkpoint)?;
                Ok((wal, Vec::new()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ov-wal-test-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.ovl")
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert {
                oid: Oid(1),
                class: ClassId(0),
                value: Tuple::from_fields([("Name", Value::str("Maggy"))]),
            },
            WalRecord::SetField {
                oid: Oid(1),
                name: sym("Age"),
                value: Value::Int(65),
            },
            WalRecord::IdentityAssign {
                view: sym("V"),
                class: sym("Addr"),
                core: Tuple::from_fields([("City", Value::str("Paris"))]),
                oid: Oid(crate::ids::IMAGINARY_OID_BASE + 4),
            },
            WalRecord::Remove { oid: Oid(1) },
        ]
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let path = tmp("roundtrip");
        let (mut wal, recs) = Wal::open(&path).unwrap();
        assert!(recs.is_empty());
        let originals = sample_records();
        for (i, rec) in originals.iter().enumerate() {
            assert_eq!(wal.append(rec).unwrap(), i as u64 + 1);
        }
        wal.sync().unwrap();
        drop(wal);
        let (wal, recs) = Wal::open(&path).unwrap();
        assert_eq!(wal.next_lsn(), 5);
        let got: Vec<WalRecord> = recs.iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(got, originals);
        let lsns: Vec<u64> = recs.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![1, 2, 3, 4]);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp("torn");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.sync().unwrap();
        let full = std::fs::metadata(&path).unwrap().len();
        drop(wal);
        // Chop bytes off the end: every cut point must recover a prefix.
        // The full image is restored before each cut (recovery itself
        // truncates the file to the good prefix).
        let full_bytes = std::fs::read(&path).unwrap();
        for cut in [1u64, 3, 7, 11] {
            std::fs::write(&path, &full_bytes[..(full - cut) as usize]).unwrap();
            let (wal, recs) = Wal::open(&path).unwrap();
            assert!(recs.len() < 4, "cut {cut} must lose the last record");
            // The file was physically truncated to the good prefix.
            assert_eq!(std::fs::metadata(&path).unwrap().len(), wal.bytes());
            drop(wal);
            // Reopening again is stable (idempotent truncation).
            let (_, recs2) = Wal::open(&path).unwrap();
            assert_eq!(recs.len(), recs2.len());
        }
    }

    #[test]
    fn corrupt_byte_in_tail_drops_only_the_tail() {
        let path = tmp("flip");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the last frame's payload.
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, recs) = Wal::open(&path).unwrap();
        assert_eq!(recs.len(), 3, "only the damaged record is lost");
    }

    #[test]
    fn group_commit_syncs_on_interval() {
        let path = tmp("group");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for _ in 0..GROUP_COMMIT_INTERVAL - 1 {
            wal.append(&WalRecord::Remove { oid: Oid(1) }).unwrap();
            wal.commit(Durability::Wal).unwrap();
        }
        assert_eq!(wal.unsynced, GROUP_COMMIT_INTERVAL - 1);
        wal.append(&WalRecord::Remove { oid: Oid(1) }).unwrap();
        wal.commit(Durability::Wal).unwrap();
        assert_eq!(wal.unsynced, 0, "interval reached → synced");
        wal.append(&WalRecord::Remove { oid: Oid(1) }).unwrap();
        wal.commit(Durability::WalSync).unwrap();
        assert_eq!(wal.unsynced, 0, "walsync syncs every commit");
    }

    #[test]
    fn reset_empties_the_log() {
        let path = tmp("reset");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        wal.reset(1).unwrap();
        assert_eq!(wal.records_since_reset(), 0);
        assert_eq!(wal.bytes(), WAL_HEADER_LEN as u64);
        assert_eq!(std::fs::read(&path).unwrap(), header(1));
        wal.append(&WalRecord::Remove { oid: Oid(5) }).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, recs) = Wal::open(&path).unwrap();
        assert_eq!(recs.len(), 1);
    }

    /// A log opens after the checkpoint it follows, with its records; after
    /// the next one it is the log a crash between that checkpoint's
    /// snapshot and its reset left, all of whose records the snapshot
    /// holds, and it opens empty, reset to follow it. After any other
    /// checkpoint it is corrupt, and left as it was.
    #[test]
    fn a_log_opens_after_the_checkpoint_it_follows() {
        let path = tmp("follows");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.reset(2).unwrap();
        wal.append(&WalRecord::Remove { oid: Oid(7) }).unwrap();
        drop(wal);
        let log = std::fs::read(&path).unwrap();
        let (wal, recs) = Wal::scan(&path).unwrap().open(2).unwrap();
        assert_eq!((wal.follows(), recs.len()), (2, 1));
        drop(wal);
        for checkpoint in [0, 1, 4] {
            match Wal::scan(&path).unwrap().open(checkpoint) {
                Err(OodbError::Corrupt { context }) => {
                    assert!(context.contains("follows checkpoint 2"), "{context}")
                }
                other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
            }
            assert_eq!(std::fs::read(&path).unwrap(), log, "a refusal wrote");
        }
        let (mut wal, recs) = Wal::scan(&path).unwrap().open(3).unwrap();
        assert!(recs.is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), header(3));
        wal.append(&WalRecord::Remove { oid: Oid(8) }).unwrap();
        drop(wal);
        let (wal, recs) = Wal::scan(&path).unwrap().open(3).unwrap();
        assert_eq!(recs, vec![(1, WalRecord::Remove { oid: Oid(8) })]);
        assert_eq!(wal.follows(), 3);
    }

    /// The header is the log's first bytes from creation on. A file cut
    /// anywhere inside it, or a header's length of zeros (the new length
    /// made durable before the bytes), is an empty log, whose header open
    /// writes again.
    #[test]
    fn a_log_cut_inside_its_header_is_empty() {
        let path = tmp("header-cut");
        let (wal, _) = Wal::open(&path).unwrap();
        assert_eq!(wal.bytes(), WAL_HEADER_LEN as u64);
        drop(wal);
        assert_eq!(std::fs::read(&path).unwrap(), header(0));
        let cuts = (0..WAL_HEADER_LEN).map(|cut| header(0)[..cut].to_vec());
        for torn in cuts.chain([vec![0u8; WAL_HEADER_LEN]]) {
            std::fs::write(&path, &torn).unwrap();
            let scan = Wal::scan(&path).unwrap();
            // Scanning wrote nothing.
            assert_eq!(std::fs::read(&path).unwrap(), torn);
            let (mut wal, recs) = scan.open(0).unwrap();
            assert!(recs.is_empty(), "{torn:?}");
            assert_eq!(std::fs::read(&path).unwrap(), header(0), "{torn:?}");
            wal.append(&WalRecord::Remove { oid: Oid(3) }).unwrap();
            wal.sync().unwrap();
            drop(wal);
            assert_eq!(Wal::open(&path).unwrap().1.len(), 1, "{torn:?}");
        }
    }

    /// A log of another format — a newer header, the 16-byte header of
    /// formats 1 and 2, or none at all as every build before the header
    /// wrote — is refused, typed, and left as it was; so is a damaged
    /// header.
    #[test]
    fn a_log_of_another_format_is_refused() {
        let path = tmp("format");
        let (mut wal, _) = Wal::open(&path).unwrap();
        // One record longer than a header, so the headerless log is not
        // taken for a cut header.
        wal.append(&person(1)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let ours = std::fs::read(&path).unwrap();
        let of_format = |format: u32| {
            let mut bytes = ours.clone();
            bytes[8..12].copy_from_slice(&format.to_le_bytes());
            let crc = crc32(&bytes[..20]);
            bytes[20..24].copy_from_slice(&crc.to_le_bytes());
            bytes
        };
        // Formats 1 and 2: magic, format and crc, then the frames.
        let sixteen = |format: u32| {
            let mut bytes = WAL_MAGIC.to_vec();
            bytes.extend_from_slice(&format.to_le_bytes());
            bytes.extend_from_slice(&crc32(&bytes).to_le_bytes());
            bytes.extend_from_slice(&ours[WAL_HEADER_LEN..]);
            bytes
        };
        let newer = of_format(WAL_FORMAT + 1);
        // A newer build's empty log is a whole header: refused too.
        let newer_empty = newer[..WAL_HEADER_LEN].to_vec();
        // Format 1: fixed-width scalars, field names in every record.
        let older = sixteen(1);
        // Format 2: the frames of this format, no `follows`; its empty log
        // is 16 bytes, shorter than a header of this format: refused too.
        let format_2 = sixteen(2);
        let format_2_empty = format_2[..16].to_vec();
        let headerless = ours[WAL_HEADER_LEN..].to_vec();
        let mut flipped = ours.clone();
        flipped[9] ^= 1;
        for (bytes, want) in [
            (newer, Some(WAL_FORMAT + 1)),
            (newer_empty, Some(WAL_FORMAT + 1)),
            (older, Some(1)),
            (format_2, Some(2)),
            (format_2_empty, Some(2)),
            (headerless, Some(0)),
            (flipped, None),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            match (Wal::open(&path), want) {
                (Err(OodbError::UnsupportedFormat { found, supported }), Some(want)) => {
                    assert_eq!((found, supported), (want, WAL_FORMAT));
                }
                (Err(OodbError::Corrupt { context }), None) => {
                    assert!(context.contains("checksum"), "{context}");
                }
                (other, _) => panic!("expected a typed refusal, got {:?}", other.map(|_| ())),
            }
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "a refusal wrote");
        }
    }

    /// A row of the benchmark's `Person` shape: six fields, about 43 bytes
    /// of user data.
    fn person(i: u64) -> WalRecord {
        const CITIES: [&str; 4] = ["Paris", "Lyon", "Marseille", "Toulouse"];
        WalRecord::Insert {
            oid: Oid(i),
            class: ClassId(0),
            value: Tuple::from_fields([
                ("Id", Value::Int(i as i64)),
                ("Name", Value::str(&format!("p{i}"))),
                ("Age", Value::Int(18 + (i % 70) as i64)),
                ("City", Value::str(CITIES[i as usize % 4])),
                ("Street", Value::str(&format!("{} St", i % 997))),
                ("Income", Value::Int(20_000 + (i * 7919 % 180_000) as i64)),
            ]),
        }
    }

    /// The size guard: names are per-log facts and scalars are varints, so
    /// a logged row costs its values plus a few bytes, not its field names
    /// and fixed-width integers (format 1: ≈ 145 B per record).
    #[test]
    fn a_logged_row_costs_at_most_64_bytes() {
        let path = tmp("size");
        let (mut wal, _) = Wal::open(&path).unwrap();
        let records: Vec<WalRecord> = (0..1000).map(person).collect();
        for rec in &records {
            wal.append(rec).unwrap();
        }
        let per_record = (wal.bytes() - WAL_HEADER_LEN as u64) as f64 / 1000.0;
        assert!(per_record <= 64.0, "{per_record} B per record");
        // The field names are written once, by the first record.
        let raw = std::fs::read(&path).unwrap();
        let hits = raw.windows(6).filter(|w| w == b"Income").count();
        assert_eq!(hits, 1);
        drop(wal);
        let (_, back) = Wal::open(&path).unwrap();
        let back: Vec<WalRecord> = back.into_iter().map(|(_, r)| r).collect();
        assert_eq!(back, records);
    }

    /// Every record kind in both forms: in sequence against one log's
    /// tables, and self-contained.
    #[test]
    fn every_record_roundtrips_in_both_forms() {
        let core = Tuple::from_fields([("City", Value::str("Paris"))]);
        let records = vec![
            WalRecord::AddClass {
                name: sym("Person"),
                parents: vec![ClassId(2)],
                attrs: vec![AttrDef::stored(sym("Age"), crate::types::Type::Int)],
            },
            WalRecord::AddAttr {
                class: ClassId(0),
                def: AttrDef::stored(sym("Nick"), crate::types::Type::Str),
            },
            person(7),
            person(8),
            WalRecord::Update {
                oid: Oid(7),
                value: Tuple::from_fields([("Age", Value::Int(-3)), ("Nick", Value::str("x"))]),
            },
            WalRecord::SetField {
                oid: Oid(8),
                name: sym("Age"),
                value: Value::Int(i64::MIN),
            },
            WalRecord::Remove { oid: Oid(u64::MAX) },
            WalRecord::CreateIndex {
                class: ClassId(0),
                attr: sym("Age"),
            },
            WalRecord::DropIndex {
                class: ClassId(0),
                attr: sym("Age"),
            },
            WalRecord::NameBind {
                name: sym("maggy"),
                oid: Oid(7),
            },
            WalRecord::IdentityAssign {
                view: sym("V"),
                class: sym("Addr"),
                core: core.clone(),
                oid: Oid(crate::ids::IMAGINARY_OID_BASE + 4),
            },
            WalRecord::IdentityDrop {
                view: sym("V"),
                class: sym("Addr"),
                core,
            },
        ];
        let (mut enc, mut dec) = (Tables::default(), Tables::default());
        for rec in &records {
            let mut w = Writer::new();
            rec.encode_in(&mut w, &mut enc);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes, "test");
            assert_eq!(&WalRecord::decode_in(&mut r, &mut dec).unwrap(), rec);
            assert!(r.is_exhausted());
            let mut w = Writer::new();
            rec.encode(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes, "test");
            assert_eq!(&WalRecord::decode(&mut r).unwrap(), rec);
            assert!(r.is_exhausted());
        }
        assert_eq!(enc, dec);
    }

    /// After an open the log appends with the tables of the frames it kept:
    /// a cut that takes a definition away takes every use of it too, and
    /// the next append defines it again. A reset empties the tables.
    #[test]
    fn appends_after_open_continue_the_surviving_tables() {
        let path = tmp("tables");
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&person(1)).unwrap();
        let one = wal.bytes();
        wal.append(&person(2)).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Cut inside the first frame (which defines the shape), then
        // inside the second (which uses it).
        for (cut, kept) in [(one as usize - 3, 0), (full.len() - 2, 1)] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (mut wal, recs) = Wal::open(&path).unwrap();
            assert_eq!(recs.len(), kept);
            assert_eq!(wal.tables.mark().1, kept);
            wal.append(&person(3)).unwrap();
            wal.append(&WalRecord::SetField {
                oid: Oid(3),
                name: sym("Name"),
                value: Value::str("q"),
            })
            .unwrap();
            drop(wal);
            let (mut wal, recs) = Wal::open(&path).unwrap();
            let got: Vec<WalRecord> = recs.into_iter().map(|(_, r)| r).collect();
            assert_eq!(got.len(), kept + 2);
            assert_eq!(got[kept], person(3));
            wal.reset(1).unwrap();
            assert_eq!(wal.tables.mark(), (0, 0));
            wal.append(&person(4)).unwrap();
            drop(wal);
            assert_eq!(Wal::open(&path).unwrap().1, vec![(1, person(4))]);
        }
    }

    /// A log that defines and reuses many names reads back whole.
    #[test]
    fn a_log_of_many_names_reads_back_whole() {
        let names: Vec<Symbol> = (0..40).map(|i| sym(&format!("n{i}"))).collect();
        let path = tmp("many-names");
        let (mut wal, _) = Wal::open(&path).unwrap();
        let records: Vec<WalRecord> = names
            .iter()
            .enumerate()
            .flat_map(|(i, &name)| {
                let oid = Oid(i as u64);
                [
                    WalRecord::NameBind { name, oid },
                    WalRecord::SetField {
                        oid,
                        name: names[i / 2],
                        value: Value::Int(i as i64),
                    },
                ]
            })
            .collect();
        for rec in &records {
            wal.append(rec).unwrap();
        }
        drop(wal);
        let (_, back) = Wal::open(&path).unwrap();
        let back: Vec<WalRecord> = back.into_iter().map(|(_, r)| r).collect();
        assert_eq!(back, records);
    }

    /// A reference past a table's end is corrupt, not a panic.
    #[test]
    fn a_reference_past_a_table_is_corrupt() {
        for (payload, want) in [
            (&[1u8, 0, 5][..], "shape 5 of 0"), // Update · oid 0 · shape 5
            (&[2, 0, 1][..], "name 1 of 0"),    // SetField · oid 0 · name 1
        ] {
            match WalRecord::decode(&mut Reader::new(payload, "test")) {
                Err(OodbError::Corrupt { context }) => assert!(context.contains(want), "{context}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn durability_parses_cli_spellings() {
        assert_eq!(Durability::parse("none"), Some(Durability::None));
        assert_eq!(Durability::parse("wal"), Some(Durability::Wal));
        assert_eq!(Durability::parse("walsync"), Some(Durability::WalSync));
        assert_eq!(Durability::parse("wal-sync"), Some(Durability::WalSync));
        assert_eq!(Durability::parse("bogus"), None);
        assert_eq!(Durability::WalSync.to_string(), "walsync");
    }
}
