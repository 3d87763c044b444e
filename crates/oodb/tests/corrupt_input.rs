//! Damaged input to the durable decoders stays typed. Seeded truncations
//! and byte flips of encoded WAL payloads, of whole logs (each damaged frame
//! re-sealed with a valid checksum, so its payload reaches the decoder) and
//! of snapshot bodies are decoded: every outcome is `Ok` or
//! [`OodbError::Corrupt`], never a panic or another error, and no single
//! allocation made while decoding exceeds a fixed multiple of the input's
//! length — a corrupt count or length cannot drive an over-allocation.
//!
//! A snapshot body writes a string it holds more than once as a definition
//! and then references to it; hand-built bodies check that a reference
//! past the strings defined so far, a definition that is not UTF-8 and a
//! count no buffer could hold are each corrupt, and that the log, whose
//! strings are always in place, refuses both tags.
//!
//! The allocator of this test binary notes, per thread, the largest
//! allocation asked for; each test runs on a thread of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use ov_oodb::codec::{crc32, Reader, Writer};
use ov_oodb::ids::IMAGINARY_OID_BASE;
use ov_oodb::{
    sym, AttrDef, BinOp, ClassId, Expr, Oid, OodbError, SnapshotImage, StoredObject, Tuple, Type,
    Value, Wal, WalRecord,
};
use ov_oodb::{IdentityEntry, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every call forwards to the system allocator unchanged; noting the
// size touches only a const-initialised thread-local without a destructor.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Bytes a decoder may ask for in one allocation per byte of its input:
/// the widest decoded element (an expression node) is well under this.
const BYTES_PER_INPUT_BYTE: usize = 128;

/// Bytes any one decode may ask for beyond that: the process's symbol
/// interner grows its tables by doubling as damaged names intern new text.
/// A count no input could hold asks for gigabytes.
const INTERNER_SLACK: usize = 1 << 20;

/// Decodes `input` with `decode`, requiring a typed outcome and a bounded
/// largest allocation. Returns whether it decoded.
fn check<T>(what: &str, input: &[u8], decode: impl FnOnce(&[u8]) -> ov_oodb::Result<T>) -> bool {
    LARGEST.with(|c| c.set(0));
    let outcome = decode(input);
    let largest = LARGEST.with(Cell::get);
    let bound = BYTES_PER_INPUT_BYTE * input.len() + INTERNER_SLACK;
    assert!(
        largest <= bound,
        "{what}: one allocation of {largest} B decoding {} B",
        input.len()
    );
    match outcome {
        Ok(_) => true,
        Err(OodbError::Corrupt { .. }) => false,
        Err(other) => panic!("{what}: expected Ok or Corrupt, got {other:?}"),
    }
}

/// Every truncation of `bytes`, then `flips` seeded single-byte flips.
fn damaged(bytes: &[u8], rng: &mut StdRng, flips: usize) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
    for _ in 0..flips {
        let mut b = bytes.to_vec();
        let at = rng.gen_range(0..b.len());
        b[at] ^= rng.gen_range(1u32..256) as u8;
        out.push(b);
    }
    out
}

fn person(i: i64, nick: Option<&str>) -> Tuple {
    let mut fields = vec![
        ("Age", Value::Int(i * 7 - 20)),
        ("Name", Value::str(&format!("p{i}"))),
    ];
    if let Some(nick) = nick {
        fields.push(("Nick", Value::str(nick)));
    }
    Tuple::from_fields(fields)
}

fn records() -> Vec<WalRecord> {
    let body = Expr::bin(BinOp::Add, Expr::self_attr("Age"), Expr::lit(Value::Int(1)));
    let nested = Value::tuple([
        ("Home", Value::tuple([("City", Value::str("Paris"))])),
        ("Tags", Value::set([Value::Int(1), Value::str("x")])),
        ("Path", Value::list([Value::Oid(Oid(3)), Value::Float(0.5)])),
    ]);
    vec![
        WalRecord::AddClass {
            name: sym("Person"),
            parents: vec![],
            attrs: vec![
                AttrDef::stored(sym("Age"), Type::Int),
                AttrDef::stored(sym("Name"), Type::Str),
                AttrDef::computed(sym("Next"), Type::Int, body),
            ],
        },
        WalRecord::Insert {
            oid: Oid(1),
            class: ClassId(0),
            value: person(1, None),
        },
        WalRecord::Insert {
            oid: Oid(300),
            class: ClassId(0),
            value: person(2, None),
        },
        WalRecord::AddAttr {
            class: ClassId(0),
            def: AttrDef::stored(sym("Nick"), Type::Any),
        },
        WalRecord::Insert {
            oid: Oid(301),
            class: ClassId(0),
            value: person(3, Some("three")),
        },
        WalRecord::Update {
            oid: Oid(1),
            value: person(4, Some("four")),
        },
        WalRecord::SetField {
            oid: Oid(300),
            name: sym("Nick"),
            value: nested,
        },
        WalRecord::CreateIndex {
            class: ClassId(0),
            attr: sym("Age"),
        },
        WalRecord::NameBind {
            name: sym("maggy"),
            oid: Oid(1),
        },
        WalRecord::IdentityAssign {
            view: sym("V"),
            class: sym("Home"),
            core: Tuple::from_fields([("City", Value::str("Paris"))]),
            oid: Oid(IMAGINARY_OID_BASE + 2),
        },
        WalRecord::IdentityDrop {
            view: sym("V"),
            class: sym("Home"),
            core: Tuple::from_fields([("City", Value::str("Paris"))]),
        },
        WalRecord::DropIndex {
            class: ClassId(0),
            attr: sym("Age"),
        },
        WalRecord::Remove { oid: Oid(301) },
    ]
}

fn image() -> SnapshotImage {
    let mut schema = Schema::new();
    let person_class = schema
        .add_class(
            sym("Person"),
            &[],
            vec![
                AttrDef::stored(sym("Age"), Type::Int),
                AttrDef::stored(sym("Name"), Type::Str),
                AttrDef::computed(sym("Next"), Type::Int, Expr::self_attr("Age")),
            ],
        )
        .unwrap();
    schema
        .add_class(sym("Employee"), &[person_class], vec![])
        .unwrap();
    let mut img = SnapshotImage {
        name: sym("Staff"),
        store_version: 900,
        checkpoint: 77,
        next_oid: 40,
        ..SnapshotImage::default()
    };
    img.capture_schema(&schema);
    for i in 0..24 {
        // Strings the body tables: a nickname and a city held by many rows,
        // one of them inside a set.
        let mut value = person(i, (i % 3 == 0).then_some("n"));
        let city = Value::str(["Paris", "Lyon", "Nice"][i as usize % 3]);
        value.set(sym("City"), Value::set([city, Value::Int(i % 2)]));
        img.objects.push(StoredObject {
            oid: Oid(i as u64 * 13),
            class: ClassId(i as u32 % 2),
            value,
        });
    }
    img.names = vec![(sym("maggy"), Oid(13))];
    img.index_defs = vec![(ClassId(0), sym("Age"))];
    img.identity = vec![IdentityEntry {
        view: sym("V"),
        class: sym("Home"),
        core: Tuple::from_fields([("City", Value::str("Lyon"))]),
        oid: Oid(IMAGINARY_OID_BASE + 5),
    }];
    img
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ov-corrupt-input-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Where each frame of the log `raw` lies: (start of its body, body length)
/// and the offset of its checksum.
fn frames(raw: &[u8]) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    let mut at = 24; // the header
    while at < raw.len() {
        let mut r = Reader::new(&raw[at..], "frame");
        let len = r.take_varint().unwrap() as usize;
        let crc_at = raw.len() - r.remaining();
        out.push((crc_at + 4, len, crc_at));
        at = crc_at + 4 + len;
    }
    out
}

#[test]
fn damaged_payloads_and_bodies_decode_typed_and_bounded() {
    let mut rng = StdRng::seed_from_u64(0x0DD_B17E);
    let records = records();

    // Self-contained payloads: every definition inline.
    let mut decoded = 0;
    for rec in &records {
        let mut w = Writer::new();
        rec.encode(&mut w);
        let bytes = w.into_bytes();
        for input in damaged(&bytes, &mut rng, 300) {
            decoded += check("wal payload", &input, |b| {
                WalRecord::decode(&mut Reader::new(b, "wal record"))
            }) as usize;
        }
    }
    assert!(decoded > 0, "some flips must still decode");

    // A whole log: later frames use the names and shapes earlier frames
    // define. A flipped frame keeps a valid checksum, so the scan decodes
    // it; whatever it decides, the frames before it survive.
    let dir = scratch();
    let path = dir.join("wal.ovl");
    let (mut wal, _) = Wal::open(&path).unwrap();
    for rec in &records {
        wal.append(rec).unwrap();
    }
    drop(wal);
    let log = std::fs::read(&path).unwrap();
    let frames = frames(&log);
    assert_eq!(frames.len(), records.len());
    for _ in 0..1500 {
        let (body, len, crc_at) = frames[rng.gen_range(0..frames.len())];
        let mut bad = log.clone();
        bad[body + rng.gen_range(0..len)] ^= rng.gen_range(1u32..256) as u8;
        let crc = crc32(&bad[body..body + len]);
        bad[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let kept_before = frames.iter().filter(|f| f.0 < body).count();
        check("wal log", &bad, |_| {
            let (_, got) = Wal::open(&path)?;
            assert!(
                got.len() >= kept_before,
                "a damaged frame took earlier ones"
            );
            let want: Vec<&WalRecord> = records[..kept_before].iter().collect();
            let got: Vec<&WalRecord> = got[..kept_before].iter().map(|(_, r)| r).collect();
            assert_eq!(got, want);
            Ok(())
        });
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A snapshot body: classes, three shapes, names, indexes, identity.
    let body = image().encode();
    for input in damaged(&body, &mut rng, 3000) {
        check("snapshot body", &input, SnapshotImage::decode);
    }
}

/// A body of one object whose one field, `City`, holds the value `value`
/// writes: the preamble and counts of [`SnapshotImage::encode`], by hand.
fn one_field_body(value: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_symbol(sym("D"));
    w.put_varint(0); // store version
    w.put_varint(IMAGINARY_OID_BASE);
    w.put_varint(1); // next oid
    w.put_len(0); // classes
    w.put_len(1); // objects
    w.put_varint(0); // oid
    w.put_varint(0); // class
    w.put_varint(0); // defines shape 0:
    w.put_len(1);
    w.put_varint(0); // defines name 0
    w.put_symbol(sym("City"));
    value(&mut w);
    for _ in 0..3 {
        w.put_len(0); // names, index definitions, identity
    }
    w.into_bytes()
}

fn corrupt(what: &str, input: &[u8], want: &str) {
    match SnapshotImage::decode(input) {
        Err(OodbError::Corrupt { context }) => assert!(context.contains(want), "{what}: {context}"),
        other => panic!("{what}: expected Corrupt, got {other:?}"),
    }
}

#[test]
fn hostile_tabled_strings_are_corrupt() {
    // Well formed: a set that defines `Paris` and then refers to it.
    let good = one_field_body(|w| {
        w.put_u8(8); // a list, so both elements stay
        w.put_len(2);
        w.put_u8(9);
        w.put_str("Paris");
        w.put_u8(10);
        w.put_varint(0);
    });
    let img = SnapshotImage::decode(&good).unwrap();
    assert_eq!(
        img.objects[0].value.get(sym("City")),
        Some(&Value::list([Value::str("Paris"), Value::str("Paris")]))
    );

    // A reference with no string defined, and one past the last defined.
    let none = one_field_body(|w| {
        w.put_u8(10);
        w.put_varint(0);
    });
    corrupt("reference before any definition", &none, "string 0 of 0");
    let past = one_field_body(|w| {
        w.put_u8(8);
        w.put_len(2);
        w.put_u8(9);
        w.put_str("Paris");
        w.put_u8(10);
        w.put_varint(1);
    });
    corrupt("reference past the definitions", &past, "string 1 of 1");

    // A definition that is not UTF-8.
    let bad_utf8 = one_field_body(|w| {
        w.put_u8(9);
        w.put_len(2);
        w.put_bytes(&[0xC3, 0x28]);
    });
    corrupt("definition not UTF-8", &bad_utf8, "not valid UTF-8");

    // Counts no buffer could hold: a definition's length, and the element
    // count of a set of references.
    let long = one_field_body(|w| {
        w.put_u8(9);
        w.put_varint(u32::MAX as u64);
        w.put_bytes(b"Paris");
    });
    corrupt(
        "definition length",
        &long,
        "truncated while reading string body",
    );
    let many = one_field_body(|w| {
        w.put_u8(7);
        w.put_varint(u32::MAX as u64);
        w.put_u8(9);
        w.put_str("Paris");
    });
    corrupt("set count", &many, "implausible element count");

    // The log writes every string in place: either tag in a frame's
    // payload is corrupt.
    let mut w = Writer::new();
    WalRecord::SetField {
        oid: Oid(1),
        name: sym("City"),
        value: Value::str("Paris"),
    }
    .encode(&mut w);
    let payload = w.into_bytes();
    let tag_at = payload.len() - "Paris".len() - 2;
    assert_eq!(payload[tag_at], 4, "the value's tag");
    for (tag, rest) in [(9u8, &payload[tag_at + 1..]), (10, &[0u8][..])] {
        let mut bad = payload[..tag_at].to_vec();
        bad.push(tag);
        bad.extend_from_slice(rest);
        match WalRecord::decode(&mut Reader::new(&bad, "wal record")) {
            Err(OodbError::Corrupt { context }) => {
                assert!(
                    context.contains(&format!("unknown value tag {tag}")),
                    "{context}"
                )
            }
            other => panic!("tag {tag} in a log frame: expected Corrupt, got {other:?}"),
        }
    }
}
