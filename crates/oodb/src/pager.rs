//! Snapshot checkpoints: a versioned, checksummed page file.
//!
//! A checkpoint serializes the whole durable state of a database — schema,
//! objects, names, index definitions, and the view layer's imaginary
//! identity tables (§5.1) — into `snapshot.ovp`, after which the WAL can be
//! truncated: recovery is *snapshot + replay of the WAL tail*.
//!
//! ## File format
//!
//! ```text
//! header page:  magic "OVSNAP01" · format u32 · page_size u32 ·
//!               page_count u32 · body_len u64 · checkpoint u64 ·
//!               header crc u32
//! data pages:   page_count × ( crc u32 · chunk bytes )
//! ```
//!
//! Every page carries its own CRC32; a flipped bit anywhere surfaces as
//! [`OodbError::Corrupt`] naming the page. A foreign file fails the magic
//! check; any format version other than [`SNAPSHOT_FORMAT`], older or
//! newer, fails with [`OodbError::UnsupportedFormat`] instead of
//! misparsing.
//!
//! `checkpoint` numbers the snapshot: the first a database writes is 1, and
//! each next one is one past the checkpoint the log follows. The log's
//! header names the checkpoint it follows ([`crate::wal`]), so recovery
//! replays a log only after the snapshot it follows.
//!
//! ## Body (format 6)
//!
//! ```text
//! name · store_version · next_imaginary · next_oid
//! classes:  count × ( name ref · parents (count × class) · own attrs )
//! objects:  count × ( oid · class · shaped tuple )
//! names:    count × ( name ref · oid )
//! indexes:  count × ( class · name ref )
//! identity: count × ( view name ref · class name ref · shaped tuple · oid )
//! ```
//!
//! Every integer above is a varint and the database name a varint-length
//! string ([`crate::codec`]); values are the codec's. Name references and
//! shaped tuples are the log's ([`crate::wal`]), against one name and shape
//! table per body: a *shape* is the name-ordered list of field names of a
//! tuple, each distinct name and shape is numbered in order of first use,
//! and its first use carries its definition inline. The unique-root rule
//! fixes an object's structure by its class (§4.2), so a store has about
//! one shape per class, and an object costs its oid, class, shape
//! reference and one encoded value per field. The table is
//! self-describing: decoding needs no schema, and an object written before
//! an `add_attr` simply has another shape. Tuples nested inside values keep
//! the codec's `(name, value)` encoding.
//!
//! A string value the body holds at least twice, in an object's fields or
//! an identity core, nested or not, is numbered the same way: defined at
//! its first use (value tag 9 and the string), referenced by number after
//! (tag 10). A string held once stays in place (tag 4). The decoder keeps
//! one `Arc` per defined string, so equal strings of the recovered store
//! share one allocation. The log writes every string in place.
//!
//! Format 1 repeated every field name inside every object. Format 2 kept no
//! `next_oid`, so an oid deleted above the largest live one before a
//! checkpoint was handed out again after it. Format 3 wrote every scalar
//! fixed-width and the shape table up front. Format 4 wrote an LSN that
//! no one read in the body too. Format 5 wrote every string in place.
//!
//! ## Atomicity
//!
//! The snapshot is written to `snapshot.ovp.tmp`, fsynced, then renamed
//! over `snapshot.ovp` (atomic on POSIX), then the directory is fsynced. A
//! crash at any point leaves either the old snapshot or the new one, never
//! a mix. Failpoint sites: `checkpoint.write` (fail while writing the temp
//! file), `checkpoint.rename` (fail before the rename commits).

use std::fs;
use std::io::Write;
use std::path::Path;

use crate::codec::{self, crc32, Reader, StringIds, StringList, Tables, Writer};
use crate::error::{OodbError, Result};
use crate::ids::{ClassId, Oid};
use crate::schema::{AttrDef, Schema};
use crate::store::StoredObject;
use crate::symbol::Symbol;
use crate::value::Tuple;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"OVSNAP01";

/// The snapshot format version this build writes and reads.
pub const SNAPSHOT_FORMAT: u32 = 6;

/// Payload bytes per data page.
pub const PAGE_SIZE: usize = 8192;

/// File name of the snapshot within a database directory.
pub const SNAPSHOT_FILE: &str = "snapshot.ovp";

/// One durable identity-table entry: view × class name × core tuple → oid.
#[derive(Clone, PartialEq, Debug)]
pub struct IdentityEntry {
    /// The view owning the table.
    pub view: Symbol,
    /// The imaginary class's *name* (ids are rebuilt on every bind).
    pub class: Symbol,
    /// The core tuple keying the entry.
    pub core: Tuple,
    /// The imaginary oid assigned to it.
    pub oid: Oid,
}

/// The complete durable state captured by a checkpoint.
#[derive(Clone, Debug)]
pub struct SnapshotImage {
    /// The database name.
    pub name: Symbol,
    /// Store mutation counter at checkpoint time. Recovery re-seats
    /// `journal_floor` here (never back to 0).
    pub store_version: u64,
    /// The checkpoint's number, kept in the file's header: the log after
    /// this snapshot names it as the checkpoint it follows.
    pub checkpoint: u64,
    /// Classes in creation order: `(name, parents, own attrs)`.
    pub classes: Vec<(Symbol, Vec<ClassId>, Vec<AttrDef>)>,
    /// All objects (oid order for determinism).
    pub objects: Vec<StoredObject>,
    /// Named roots.
    pub names: Vec<(Symbol, Oid)>,
    /// Secondary index definitions (each index is built by its first probe).
    pub index_defs: Vec<(ClassId, Symbol)>,
    /// The imaginary identity tables, flattened.
    pub identity: Vec<IdentityEntry>,
    /// Lowest imaginary oid not yet assigned (allocator seed).
    pub next_imaginary: u64,
    /// The base-oid allocator's next oid: no oid below it is handed out
    /// again, also one whose object was deleted before the checkpoint.
    pub next_oid: u64,
}

impl Default for SnapshotImage {
    fn default() -> SnapshotImage {
        SnapshotImage {
            name: crate::symbol::sym(""),
            store_version: 0,
            checkpoint: 1,
            classes: Vec::new(),
            objects: Vec::new(),
            names: Vec::new(),
            index_defs: Vec::new(),
            identity: Vec::new(),
            next_imaginary: crate::ids::IMAGINARY_OID_BASE,
            next_oid: 0,
        }
    }
}

impl SnapshotImage {
    /// Flattens `schema` into the snapshot's class list. Parent edges whose
    /// id is ≥ the child's (added later via `add_superclass`) survive: the
    /// decoder re-applies them after all classes exist.
    pub fn capture_schema(&mut self, schema: &Schema) {
        self.classes = schema
            .classes()
            .map(|c| (c.name, c.parents.clone(), c.attrs.clone()))
            .collect();
    }

    /// Rebuilds a [`Schema`] from the captured class list.
    pub fn restore_schema(&self) -> Result<Schema> {
        let mut schema = Schema::new();
        let mut deferred: Vec<(ClassId, ClassId)> = Vec::new();
        for (i, (name, parents, attrs)) in self.classes.iter().enumerate() {
            let id = ClassId(i as u32);
            // Parents created before this class go through add_class (so
            // override checks see them); forward edges are re-applied after.
            let (early, late): (Vec<ClassId>, Vec<ClassId>) =
                parents.iter().partition(|p| (p.0 as usize) < i);
            let got = schema.add_class(*name, &early, attrs.clone())?;
            if got != id {
                return Err(OodbError::corrupt(format!(
                    "snapshot: class `{name}` restored with id {got:?}, expected {id:?}"
                )));
            }
            for p in late {
                deferred.push((id, p));
            }
        }
        for (class, parent) in deferred {
            if parent.0 as usize >= self.classes.len() {
                return Err(OodbError::corrupt(format!(
                    "snapshot: class {class:?} references unknown parent {parent:?}"
                )));
            }
            schema.add_superclass(class, parent)?;
        }
        Ok(schema)
    }

    /// Encodes the image body (the bytes that get paged and checksummed).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        // Counted first, then numbered in order of first use, so equal
        // images encode to equal bytes.
        let objects = self.objects.iter().map(|obj| &obj.value);
        let cores = self.identity.iter().map(|e| &e.core);
        let mut t = Tables::with_strings(StringIds::count(objects.chain(cores)));
        w.put_symbol(self.name);
        w.put_varint(self.store_version);
        w.put_varint(self.next_imaginary);
        w.put_varint(self.next_oid);
        w.put_len(self.classes.len());
        for (name, parents, attrs) in &self.classes {
            t.put_name(&mut w, *name);
            w.put_len(parents.len());
            for p in parents {
                w.put_varint(p.0 as u64);
            }
            w.put_len(attrs.len());
            for a in attrs {
                codec::put_attr_def(&mut w, a);
            }
        }
        w.put_len(self.objects.len());
        for obj in &self.objects {
            w.put_varint(obj.oid.0);
            w.put_varint(obj.class.0 as u64);
            t.put_tuple(&mut w, &obj.value);
        }
        w.put_len(self.names.len());
        for (name, oid) in &self.names {
            t.put_name(&mut w, *name);
            w.put_varint(oid.0);
        }
        w.put_len(self.index_defs.len());
        for (class, attr) in &self.index_defs {
            w.put_varint(class.0 as u64);
            t.put_name(&mut w, *attr);
        }
        w.put_len(self.identity.len());
        for e in &self.identity {
            t.put_name(&mut w, e.view);
            t.put_name(&mut w, e.class);
            t.put_tuple(&mut w, &e.core);
            w.put_varint(e.oid.0);
        }
        w.into_bytes()
    }

    /// Decodes an image body. The checkpoint's number is the header's, so
    /// it reads 0 here: [`read_snapshot`] sets it.
    pub fn decode(bytes: &[u8]) -> Result<SnapshotImage> {
        let mut r = Reader::new(bytes, "snapshot body");
        let mut t = Tables::with_strings(StringList::default());
        let name = r.take_symbol()?;
        let store_version = r.take_varint()?;
        let next_imaginary = r.take_varint()?;
        let next_oid = r.take_varint()?;
        let class = |r: &mut Reader<'_>| r.take_var_u32().map(ClassId);
        let oid = |r: &mut Reader<'_>| r.take_varint().map(Oid);
        // Each count is checked against the least bytes an element takes:
        // a class its name and two counts, an object its oid, class and
        // shape, an identity entry two names, a shape and an oid.
        let nc = r.take_len(3)?;
        let mut classes = Vec::with_capacity(nc);
        for _ in 0..nc {
            let cname = t.take_name(&mut r)?;
            let np = r.take_len(1)?;
            let mut parents = Vec::with_capacity(np);
            for _ in 0..np {
                parents.push(class(&mut r)?);
            }
            let na = r.take_len(4)?;
            let mut attrs = Vec::with_capacity(na);
            for _ in 0..na {
                attrs.push(codec::take_attr_def(&mut r)?);
            }
            classes.push((cname, parents, attrs));
        }
        let no = r.take_len(3)?;
        let mut objects = Vec::with_capacity(no);
        for _ in 0..no {
            objects.push(StoredObject {
                oid: oid(&mut r)?,
                class: class(&mut r)?,
                value: t.take_tuple(&mut r)?,
            });
        }
        let nn = r.take_len(2)?;
        let mut names = Vec::with_capacity(nn);
        for _ in 0..nn {
            let n = t.take_name(&mut r)?;
            names.push((n, oid(&mut r)?));
        }
        let ni = r.take_len(2)?;
        let mut index_defs = Vec::with_capacity(ni);
        for _ in 0..ni {
            let c = class(&mut r)?;
            index_defs.push((c, t.take_name(&mut r)?));
        }
        let ne = r.take_len(4)?;
        let mut identity = Vec::with_capacity(ne);
        for _ in 0..ne {
            identity.push(IdentityEntry {
                view: t.take_name(&mut r)?,
                class: t.take_name(&mut r)?,
                core: t.take_tuple(&mut r)?,
                oid: oid(&mut r)?,
            });
        }
        if !r.is_exhausted() {
            return Err(OodbError::corrupt(format!(
                "snapshot body: {} trailing bytes after image",
                r.remaining()
            )));
        }
        Ok(SnapshotImage {
            name,
            store_version,
            checkpoint: 0,
            classes,
            objects,
            names,
            index_defs,
            identity,
            next_imaginary,
            next_oid,
        })
    }
}

/// Writes `image` as the snapshot of the database directory `dir`,
/// atomically (temp file → fsync → rename → directory fsync).
pub fn write_snapshot(dir: &Path, image: &SnapshotImage) -> Result<()> {
    let mut write = crate::event::Event::CheckpointWrite.open();
    write.field("version", image.store_version);
    let body = image.encode();
    let pages: Vec<&[u8]> = if body.is_empty() {
        Vec::new()
    } else {
        body.chunks(PAGE_SIZE).collect()
    };

    let mut header = Writer::new();
    header.put_bytes(SNAPSHOT_MAGIC);
    header.put_u32(SNAPSHOT_FORMAT);
    header.put_u32(PAGE_SIZE as u32);
    header.put_u32(pages.len() as u32);
    header.put_u64(body.len() as u64);
    header.put_u64(image.checkpoint);
    let header_bytes = header.into_bytes();
    let header_crc = crc32(&header_bytes);

    let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    let fin = dir.join(SNAPSHOT_FILE);
    {
        crate::failpoint!("checkpoint.write");
        let mut f = fs::File::create(&tmp).map_err(|e| OodbError::io("checkpoint write", e))?;
        f.write_all(&header_bytes)
            .map_err(|e| OodbError::io("checkpoint write", e))?;
        f.write_all(&header_crc.to_le_bytes())
            .map_err(|e| OodbError::io("checkpoint write", e))?;
        for page in &pages {
            f.write_all(&crc32(page).to_le_bytes())
                .map_err(|e| OodbError::io("checkpoint write", e))?;
            f.write_all(page)
                .map_err(|e| OodbError::io("checkpoint write", e))?;
        }
        f.sync_all()
            .map_err(|e| OodbError::io("checkpoint fsync", e))?;
    }
    crate::failpoint!("checkpoint.rename");
    fs::rename(&tmp, &fin).map_err(|e| OodbError::io("checkpoint rename", e))?;
    // Make the rename itself durable.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    write.field("bytes", body.len());
    write.field("pages", pages.len());
    write.close(1);
    Ok(())
}

/// Reads the snapshot of `dir`, if one exists. `Ok(None)` when the
/// directory has never been checkpointed; typed errors for foreign,
/// truncated, or bit-rotted files.
pub fn read_snapshot(dir: &Path) -> Result<Option<SnapshotImage>> {
    let path = dir.join(SNAPSHOT_FILE);
    let raw = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(OodbError::io("snapshot read", e)),
    };
    // Header: magic(8) + format(4) + page_size(4) + page_count(4) +
    // body_len(8) + checkpoint(8) = 36, then its crc(4).
    const HEADER_LEN: usize = 36;
    if raw.len() < HEADER_LEN + 4 {
        return Err(OodbError::corrupt(format!(
            "snapshot header: file is only {} bytes",
            raw.len()
        )));
    }
    if &raw[..8] != SNAPSHOT_MAGIC {
        return Err(OodbError::corrupt(
            "snapshot header: bad magic (not an ov snapshot file)",
        ));
    }
    let stored_crc =
        u32::from_le_bytes(raw[HEADER_LEN..HEADER_LEN + 4].try_into().expect("4 bytes"));
    if crc32(&raw[..HEADER_LEN]) != stored_crc {
        return Err(OodbError::corrupt("snapshot header: checksum mismatch"));
    }
    let mut r = Reader::new(&raw[8..HEADER_LEN], "snapshot header");
    let format = r.take_u32()?;
    if format != SNAPSHOT_FORMAT {
        return Err(OodbError::UnsupportedFormat {
            found: format,
            supported: SNAPSHOT_FORMAT,
        });
    }
    let page_size = r.take_u32()? as usize;
    let page_count = r.take_u32()? as usize;
    let body_len = r.take_u64()? as usize;
    let checkpoint = r.take_u64()?;
    if page_size == 0 || page_size > (1 << 24) {
        return Err(OodbError::corrupt(format!(
            "snapshot header: implausible page size {page_size}"
        )));
    }
    let expected_pages = body_len.div_ceil(page_size);
    if page_count != expected_pages {
        return Err(OodbError::corrupt(format!(
            "snapshot header: {page_count} pages for {body_len} body bytes (expected {expected_pages})"
        )));
    }

    let mut body = Vec::with_capacity(body_len);
    let mut pos = HEADER_LEN + 4;
    for page_no in 0..page_count {
        let chunk_len = (body_len - body.len()).min(page_size);
        if raw.len() < pos + 4 + chunk_len {
            return Err(OodbError::corrupt(format!(
                "snapshot page {page_no}: truncated ({} of {} bytes present)",
                raw.len() - pos,
                4 + chunk_len
            )));
        }
        let page_crc = u32::from_le_bytes(raw[pos..pos + 4].try_into().expect("4 bytes"));
        let chunk = &raw[pos + 4..pos + 4 + chunk_len];
        if crc32(chunk) != page_crc {
            return Err(OodbError::corrupt(format!(
                "snapshot page {page_no}: checksum mismatch"
            )));
        }
        body.extend_from_slice(chunk);
        pos += 4 + chunk_len;
    }
    if pos != raw.len() {
        return Err(OodbError::corrupt(format!(
            "snapshot: {} trailing bytes after last page",
            raw.len() - pos
        )));
    }
    let mut image = SnapshotImage::decode(&body)?;
    image.checkpoint = checkpoint;
    Ok(Some(image))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;
    use crate::types::Type;
    use crate::value::Value;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ov-pager-test-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_image() -> SnapshotImage {
        let mut schema = Schema::new();
        let person = schema
            .add_class(
                sym("Person"),
                &[],
                vec![
                    AttrDef::stored(sym("Name"), Type::Str),
                    AttrDef::stored(sym("Age"), Type::Int),
                ],
            )
            .unwrap();
        schema
            .add_class(sym("Employee"), &[person], vec![])
            .unwrap();
        let mut img = SnapshotImage {
            name: sym("Staff"),
            store_version: 17,
            checkpoint: 42,
            next_imaginary: crate::ids::IMAGINARY_OID_BASE + 9,
            next_oid: 5,
            ..SnapshotImage::default()
        };
        img.capture_schema(&schema);
        img.objects = vec![StoredObject {
            oid: Oid(3),
            class: person,
            value: Tuple::from_fields([("Name", Value::str("Maggy")), ("Age", Value::Int(65))]),
        }];
        img.names = vec![(sym("maggy"), Oid(3))];
        img.index_defs = vec![(person, sym("Age"))];
        img.identity = vec![IdentityEntry {
            view: sym("V"),
            class: sym("Addr"),
            core: Tuple::from_fields([("City", Value::str("Paris"))]),
            oid: Oid(crate::ids::IMAGINARY_OID_BASE + 8),
        }];
        img
    }

    #[test]
    fn snapshot_roundtrips_through_disk() {
        let dir = tmpdir("roundtrip");
        let img = sample_image();
        write_snapshot(&dir, &img).unwrap();
        let back = read_snapshot(&dir).unwrap().unwrap();
        assert_eq!(back.name, img.name);
        assert_eq!(back.store_version, 17);
        assert_eq!(back.checkpoint, 42);
        assert_eq!(back.objects, img.objects);
        assert_eq!(back.names, img.names);
        assert_eq!(back.index_defs, img.index_defs);
        assert_eq!(back.identity, img.identity);
        assert_eq!(back.next_imaginary, img.next_imaginary);
        assert_eq!(back.next_oid, 5);
        let schema = back.restore_schema().unwrap();
        assert_eq!(schema.len(), 2);
        use crate::types::ClassGraph;
        assert!(schema.is_subclass(
            schema.class_by_name(sym("Employee")).unwrap(),
            schema.class_by_name(sym("Person")).unwrap()
        ));
    }

    #[test]
    fn missing_snapshot_is_none_not_error() {
        let dir = tmpdir("missing");
        assert!(read_snapshot(&dir).unwrap().is_none());
    }

    #[test]
    fn foreign_file_rejected_with_typed_error() {
        let dir = tmpdir("foreign");
        std::fs::write(
            dir.join(SNAPSHOT_FILE),
            b"#!/bin/sh\n# definitely not a snapshot file, but long enough to parse\nexit 1\n",
        )
        .unwrap();
        match read_snapshot(&dir) {
            Err(OodbError::Corrupt { context }) => assert!(context.contains("magic")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn future_format_version_rejected() {
        let dir = tmpdir("future");
        write_snapshot(&dir, &sample_image()).unwrap();
        let mut raw = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        raw[8..12].copy_from_slice(&99u32.to_le_bytes());
        // Re-seal the header CRC so only the version differs.
        let crc = crc32(&raw[..36]);
        raw[36..40].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(dir.join(SNAPSHOT_FILE), &raw).unwrap();
        match read_snapshot(&dir) {
            Err(OodbError::UnsupportedFormat {
                found: 99,
                supported,
            }) => {
                assert_eq!(supported, SNAPSHOT_FORMAT);
            }
            other => panic!("expected UnsupportedFormat, got {other:?}"),
        }
    }

    /// A file an older build wrote must not reach this format's decoder.
    /// The header is hand-built: zero pages, format 1 (names in every
    /// object), 3 (fixed-width scalars), 4 (an LSN in the body) or 5 (every
    /// string inline).
    #[test]
    fn older_format_version_rejected() {
        let dir = tmpdir("older");
        for format in [1, 3, 4, 5] {
            let mut header = Writer::new();
            header.put_bytes(SNAPSHOT_MAGIC);
            header.put_u32(format);
            header.put_u32(PAGE_SIZE as u32);
            header.put_u32(0); // page_count
            header.put_u64(0); // body_len
            header.put_u64(1); // checkpoint
            let mut raw = header.into_bytes();
            let crc = crc32(&raw);
            raw.extend_from_slice(&crc.to_le_bytes());
            std::fs::write(dir.join(SNAPSHOT_FILE), &raw).unwrap();
            match read_snapshot(&dir) {
                Err(OodbError::UnsupportedFormat { found, supported }) => {
                    assert_eq!((found, supported), (format, SNAPSHOT_FORMAT))
                }
                other => panic!("expected UnsupportedFormat, got {other:?}"),
            }
        }
    }

    /// An image whose objects have every kind of shape: two classes, an
    /// object written before an attribute was added and one after, an
    /// empty tuple, and values that nest tuples, sets and lists.
    fn mixed_shape_image() -> SnapshotImage {
        let mut img = sample_image();
        let nested = Value::tuple([
            ("Home", Value::tuple([("City", Value::str("Paris"))])),
            ("Tags", Value::set([Value::Int(1), Value::str("x")])),
            (
                "Path",
                Value::list([Value::Oid(Oid(3)), Value::Null, Value::Float(0.5)]),
            ),
        ]);
        img.objects = vec![
            StoredObject {
                oid: Oid(3),
                class: ClassId(0),
                value: Tuple::from_fields([("Name", Value::str("Maggy")), ("Age", Value::Int(65))]),
            },
            StoredObject {
                oid: Oid(4),
                class: ClassId(1),
                value: Tuple::new(),
            },
            // Written after `add_attr Person.Extra`: same class, wider shape.
            StoredObject {
                oid: Oid(5),
                class: ClassId(0),
                value: Tuple::from_fields([
                    ("Name", Value::str("Tony")),
                    ("Age", Value::Int(3)),
                    ("Extra", nested),
                ]),
            },
            StoredObject {
                oid: Oid(6),
                class: ClassId(0),
                value: Tuple::from_fields([("Name", Value::str("Ann")), ("Age", Value::Int(40))]),
            },
        ];
        img
    }

    #[test]
    fn mixed_shapes_roundtrip() {
        let img = mixed_shape_image();
        let body = img.encode();
        let back = SnapshotImage::decode(&body).unwrap();
        assert_eq!(back.objects, img.objects);
        assert_eq!(back.identity, img.identity);
        assert_eq!(back.names, img.names);
        // Deterministic: re-encoding the decoded image gives the same bytes.
        assert_eq!(back.encode(), body);

        let empty = SnapshotImage::default();
        let back = SnapshotImage::decode(&empty.encode()).unwrap();
        assert!(back.objects.is_empty());
    }

    /// Byte offset of the object count in `img.encode()`: everything before
    /// it is the preamble and the class list.
    fn object_count_offset(img: &SnapshotImage) -> usize {
        let mut head = img.clone();
        head.objects.clear();
        head.names.clear();
        head.index_defs.clear();
        head.identity.clear();
        // An image without objects ends in four one-byte zero counts:
        // objects, names, index definitions, identity entries.
        head.encode().len() - 4
    }

    #[test]
    fn shape_index_past_the_table_is_corrupt() {
        let img = mixed_shape_image();
        let mut body = img.encode();
        let at = object_count_offset(&img);
        assert_eq!(body[at], 4, "object count");
        // Count, oid 3, class 0, then the first object's shape reference,
        // which defines shape 0: the table is empty before it.
        let at = at + 3;
        assert_eq!(body[at], 0, "first shape reference");
        body[at] = 1;
        match SnapshotImage::decode(&body) {
            Err(OodbError::Corrupt { context }) => {
                assert!(context.contains("shape 1 of 0"), "got: {context}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_or_implausible_shape_table_is_corrupt() {
        let img = mixed_shape_image();
        let body = img.encode();
        let at = object_count_offset(&img);
        // The first object's shape definition: its field count at `at + 4`,
        // then `Age` defined as a name (reference, length, bytes).
        assert_eq!(&body[at + 3..at + 6], &[0, 2, 2][..]);
        // Cut inside the definition: after its field count, and inside a
        // field name.
        for cut in [at + 5, at + 8] {
            assert!(
                matches!(
                    SnapshotImage::decode(&body[..cut]),
                    Err(OodbError::Corrupt { .. })
                ),
                "cut at {cut}"
            );
        }
        // Counts no buffer of this size could hold are refused before
        // anything is allocated for them: the one-byte count is replaced
        // by the varint of `u32::MAX`.
        for (offset, what) in [(at, "object count"), (at + 4, "field count")] {
            let mut huge = Writer::new();
            huge.put_varint(u32::MAX as u64);
            let mut bad = body.clone();
            bad.splice(offset..offset + 1, huge.into_bytes());
            match SnapshotImage::decode(&bad) {
                Err(OodbError::Corrupt { context }) => {
                    assert!(context.contains("implausible"), "{what}: {context}")
                }
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
        let mut padded = body.clone();
        padded.push(0);
        assert!(matches!(
            SnapshotImage::decode(&padded),
            Err(OodbError::Corrupt { .. })
        ));
    }

    /// A hostile shape (names out of order, one repeated) still decodes to
    /// a well-formed tuple: name-ordered, later value winning.
    #[test]
    fn unsorted_shape_yields_a_well_formed_tuple() {
        let mut w = Writer::new();
        w.put_symbol(sym("D"));
        w.put_varint(0);
        w.put_varint(crate::ids::IMAGINARY_OID_BASE);
        w.put_varint(8); // next oid
        w.put_len(0); // classes
        w.put_len(1); // objects
        w.put_varint(7);
        w.put_varint(0);
        w.put_varint(0); // defines shape 0:
        w.put_len(3);
        w.put_varint(0); // defines name 0
        w.put_symbol(sym("Zed"));
        w.put_varint(1); // defines name 1
        w.put_symbol(sym("Abe"));
        w.put_varint(0); // name 0 again
        for i in 1..=3 {
            codec::put_value(&mut w, &Value::Int(i));
        }
        for _ in 0..3 {
            w.put_len(0); // names, index definitions, identity
        }
        let img = SnapshotImage::decode(&w.into_bytes()).unwrap();
        assert_eq!(
            img.objects[0].value,
            Tuple::from_fields([("Abe", Value::Int(2)), ("Zed", Value::Int(3))])
        );
    }

    /// The size pin: field names are per-shape facts, not per-object ones.
    #[test]
    fn field_names_occur_once_per_shape_not_once_per_object() {
        let mut img = SnapshotImage {
            name: sym("Pin"),
            ..SnapshotImage::default()
        };
        for i in 0..1000u64 {
            img.objects.push(StoredObject {
                oid: Oid(i),
                class: ClassId(0),
                value: Tuple::from_fields([
                    ("PinnedName", Value::str(&format!("p{i}"))),
                    ("PinnedAge", Value::Int(i as i64)),
                    ("PinnedCity", Value::str("Paris")),
                ]),
            });
        }
        let body = img.encode();
        for name in ["PinnedName", "PinnedAge", "PinnedCity"] {
            let hits = body
                .windows(name.len())
                .filter(|w| *w == name.as_bytes())
                .count();
            assert_eq!(hits, 1, "`{name}` occurs {hits} times in the body");
        }
        assert_eq!(SnapshotImage::decode(&body).unwrap().objects, img.objects);
    }

    /// A string held once is written in place; one held three times is
    /// written once, then referenced by number; and the decoded values
    /// share that one string.
    #[test]
    fn a_repeated_string_is_written_once() {
        let mut img = SnapshotImage {
            name: sym("Three"),
            ..SnapshotImage::default()
        };
        for (i, name) in ["Ann", "Bob", "Cyd"].into_iter().enumerate() {
            img.objects.push(StoredObject {
                oid: Oid(i as u64),
                class: ClassId(0),
                value: Tuple::from_fields([
                    ("Name", Value::str(name)),
                    ("City", Value::str("Paris")),
                ]),
            });
        }
        let body = img.encode();
        let at = |needle: &[u8]| {
            let hits: Vec<usize> = (0..body.len())
                .filter(|&i| body[i..].starts_with(needle))
                .collect();
            hits
        };
        // Each name in place: tag 4, its length, its bytes.
        for name in ["Ann", "Bob", "Cyd"] {
            assert_eq!(
                at(&[&[4, 3][..], name.as_bytes()].concat()).len(),
                1,
                "{name}"
            );
        }
        // `Paris` defined at its first use (tag 9), then string 0 (tag 10)
        // twice: the rows are `City` before `Name`, so each reference is
        // followed by the next row's name.
        assert_eq!(at(b"Paris").len(), 1);
        assert_eq!(at(b"\x09\x05Paris").len(), 1);
        assert_eq!(at(b"\x0a\x00\x04\x03").len(), 2);
        let back = SnapshotImage::decode(&body).unwrap();
        assert_eq!(back.objects, img.objects);
        let city = |o: &StoredObject| match o.value.get(sym("City")) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("City: {other:?}"),
        };
        let first = city(&back.objects[0]);
        assert!(back
            .objects
            .iter()
            .all(|o| std::sync::Arc::ptr_eq(&city(o), &first)));
    }

    /// A store of 1 000 rows of the benchmark's `Person` shape.
    fn person_image() -> SnapshotImage {
        const CITIES: [&str; 4] = ["Paris", "Lyon", "Marseille", "Toulouse"];
        let mut img = SnapshotImage {
            name: sym("Staff"),
            ..SnapshotImage::default()
        };
        for i in 0..1000u64 {
            img.objects.push(StoredObject {
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
            });
        }
        img
    }

    /// The size guard: an object costs its values plus a few varint bytes
    /// (format 3: ≈ 79 B per object).
    #[test]
    fn an_object_costs_at_most_48_bytes() {
        let img = person_image();
        let body = img.encode();
        let per_object = body.len() as f64 / img.objects.len() as f64;
        assert!(per_object <= 48.0, "{per_object} B per object");
        assert_eq!(SnapshotImage::decode(&body).unwrap().objects, img.objects);
    }

    #[test]
    fn bit_flip_in_page_detected() {
        let dir = tmpdir("bitflip");
        write_snapshot(&dir, &sample_image()).unwrap();
        let mut raw = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        let n = raw.len();
        raw[n - 1] ^= 0x01;
        std::fs::write(dir.join(SNAPSHOT_FILE), &raw).unwrap();
        match read_snapshot(&dir) {
            Err(OodbError::Corrupt { context }) => {
                assert!(context.contains("checksum"), "got: {context}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_snapshot_detected() {
        let dir = tmpdir("trunc");
        write_snapshot(&dir, &sample_image()).unwrap();
        let raw = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        std::fs::write(dir.join(SNAPSHOT_FILE), &raw[..raw.len() - 10]).unwrap();
        assert!(matches!(
            read_snapshot(&dir),
            Err(OodbError::Corrupt { .. })
        ));
    }

    #[test]
    fn multi_page_bodies_roundtrip() {
        let dir = tmpdir("large");
        let mut img = sample_image();
        // Blow past one page with many objects.
        for i in 0..2000u64 {
            img.objects.push(StoredObject {
                oid: Oid(100 + i),
                class: ClassId(0),
                value: Tuple::from_fields([("Name", Value::str(&format!("obj-{i}")))]),
            });
        }
        write_snapshot(&dir, &img).unwrap();
        assert!(std::fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len() > PAGE_SIZE as u64);
        let back = read_snapshot(&dir).unwrap().unwrap();
        assert_eq!(back.objects.len(), img.objects.len());
        assert_eq!(back.objects, img.objects);
    }
}
