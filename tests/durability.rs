//! Durable-session integration tests: WAL + snapshot recovery through the
//! full stack (session → view → database → store), with the paper's
//! headline guarantee on top — **imaginary-object identity is stable
//! across process restarts**. An imaginary oid is a name a user may have
//! written down; reopening the session must hand back the same oid for the
//! same core tuple.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use objects_and_views::oodb::{Oid, OodbError};
use objects_and_views::prelude::*;

/// A fresh scratch directory under the system temp dir (no tempfile crate:
/// pid + tag keep concurrent test binaries apart).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ov-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds the standard fixture in a durable session: a `Staff` base with
/// people, and a view stacking a virtual class and an imaginary class.
fn build_fixture(session: &mut Session) {
    session
        .execute(
            r#"
            database Staff;
            class Person type [Name: string, Age: integer, City: string];
            object #0 in Person value [Name: "Ada", Age: 36, City: "London"];
            object #1 in Person value [Name: "Bob", Age: 17, City: "Paris"];
            object #2 in Person value [Name: "Cleo", Age: 64, City: "London"];
            name ada = #0;
            create view V;
            import all classes from database Staff;
            class Adult includes (select P from Person where P.Age >= 21);
            class CityTag includes imaginary (select [City: P.City] from P in Person);
            "#,
        )
        .unwrap();
}

/// The system's identity table for view `V`, as a comparable map. `(class
/// name, core tuple) → oid` is exactly the mapping that must survive a
/// restart: taken before one and after the reopen, the two must be equal.
fn identity_map(session: &Session) -> BTreeMap<(String, String), Oid> {
    session
        .system()
        .identity()
        .entries()
        .into_iter()
        .filter(|e| e.view == sym("V"))
        .map(|e| ((e.class.to_string(), format!("{:?}", e.core)), e.oid))
        .collect()
}

#[test]
fn durable_session_recovers_data_views_and_imaginary_identity() {
    let dir = scratch("headline");
    let (saved, identity_before, tags_before) = {
        let mut s = Session::open(&dir, Durability::Wal).unwrap();
        build_fixture(&mut s);
        // Materialize the imaginary extent so identity exists to persist.
        let tags: Vec<Oid> = s.view(sym("V")).unwrap().extent_of(sym("CityTag")).unwrap();
        assert_eq!(tags.len(), 2, "two distinct cities");
        (s.save(), identity_map(&s), tags)
        // Dropped without checkpoint: recovery must come from the WAL alone.
    };

    let mut s = Session::open(&dir, Durability::Wal).unwrap();
    // Base data, names, schema, and view definitions all round-tripped.
    assert_eq!(
        s.save(),
        saved,
        "recovered session diverged from the saved one"
    );
    // Queries over recovered base data work.
    let outcomes = s.execute("database Staff; count(Person);").unwrap();
    assert_eq!(outcomes.last(), Some(&Outcome::Value(Value::Int(3))));
    assert_eq!(s.query(sym("V"), "count(Adult)").unwrap(), Value::Int(2));
    // The imaginary identity table recovered bit-for-bit…
    assert_eq!(
        identity_map(&s),
        identity_before,
        "identity table changed across reopen"
    );
    // …and a fresh population hands back the *same* oids, in any order.
    let mut tags_after: Vec<Oid> = s.view(sym("V")).unwrap().extent_of(sym("CityTag")).unwrap();
    let mut tags_before = tags_before;
    tags_before.sort();
    tags_after.sort();
    assert_eq!(
        tags_after, tags_before,
        "imaginary oids changed across reopen"
    );
    // The recovered session keeps working: new writes land and propagate.
    s.execute(r#"database Staff; insert Person value [Name: "Dan", Age: 41, City: "Roma"];"#)
        .unwrap();
    assert_eq!(s.query(sym("V"), "count(Adult)").unwrap(), Value::Int(3));
    assert_eq!(
        s.view(sym("V"))
            .unwrap()
            .extent_of(sym("CityTag"))
            .unwrap()
            .len(),
        3
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_truncates_wal_and_recovers_identically() {
    let dir = scratch("checkpoint");
    let saved = {
        let mut s = Session::open(&dir, Durability::Wal).unwrap();
        build_fixture(&mut s);
        s.view(sym("V")).unwrap().extent_of(sym("CityTag")).unwrap();
        assert_eq!(s.checkpoint().unwrap(), 1, "one durable database");
        // Post-checkpoint writes land in the (now short) WAL tail.
        s.execute(r#"database Staff; insert Person value [Name: "Eve", Age: 29, City: "Oslo"];"#)
            .unwrap();
        s.save()
    };
    let wal = dir.join("databases/Staff").join("wal.ovl");
    assert!(wal.exists(), "WAL file missing after checkpoint");
    let s = Session::open(&dir, Durability::Wal).unwrap();
    assert_eq!(s.save(), saved, "snapshot + WAL tail recovery diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A database the typed catalog creates in a durable session is durable,
/// as one the `database` statement creates is: it, its object and a view
/// importing it come back on reopen.
#[test]
fn a_catalog_database_of_a_durable_session_is_durable() {
    let dir = scratch("catalog-db");
    {
        let mut s = Session::open(&dir, Durability::Wal).unwrap();
        let mut catalog = s.catalog();
        catalog.create_database("D").unwrap();
        catalog
            .define_class("D", "class Item type [N: integer];")
            .unwrap();
        s.execute(
            "database D; insert Item value [N: 7]; \
             create view W; import all classes from database D;",
        )
        .unwrap();
    }
    let s = Session::open(&dir, Durability::Wal).unwrap();
    assert!(s
        .system()
        .database(sym("D"))
        .unwrap()
        .read()
        .durable_core()
        .is_some());
    assert_eq!(
        s.query(sym("W"), "select I.N from I in Item").unwrap(),
        Value::set([Value::Int(7)])
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression: reopening a database must re-seat the journal
/// floor at the recovered version, **not** at zero. A dependent view
/// holding a pre-restart version must get `None` from `changes_since`
/// (forcing a full recompute) rather than a bogus empty delta.
#[test]
fn reopen_reseats_journal_floor_for_stale_view_deltas() {
    let dir = scratch("floor");
    let version_before = {
        let mut s = Session::open(&dir, Durability::Wal).unwrap();
        build_fixture(&mut s);
        let db = s.system().database(sym("Staff")).unwrap();
        let v = db.read().store.version();
        assert!(v > 0);
        v
    };
    let s = Session::open(&dir, Durability::Wal).unwrap();
    let db = s.system().database(sym("Staff")).unwrap();
    let db = db.read();
    assert_eq!(
        db.store.version(),
        version_before,
        "recovery must not rewind the store version"
    );
    // A stale pre-restart version (e.g. a view's remembered generation)
    // is below the recovered floor: no delta, full recompute.
    assert_eq!(
        db.store.changes_since(0),
        None,
        "journal floor was reset to 0 on reopen: stale readers would get an empty delta"
    );
    // The current version is a clean empty delta, as always.
    assert_eq!(db.store.changes_since(version_before), Some(Vec::new()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn walsync_session_survives_crash_without_checkpoint() {
    let dir = scratch("walsync");
    {
        let mut s = Session::open(&dir, Durability::WalSync).unwrap();
        build_fixture(&mut s);
        // No checkpoint, no clean shutdown: everything rides the WAL.
    }
    let mut s = Session::open(&dir, Durability::WalSync).unwrap();
    assert_eq!(s.query(sym("V"), "count(Adult)").unwrap(), Value::Int(2));
    assert_eq!(
        s.execute("database Staff; ada.Name;").unwrap().pop(),
        Some(Outcome::Value(Value::str("Ada")))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_truncated_on_reopen() {
    use std::io::Write as _;
    let dir = scratch("torn");
    let saved = {
        let mut s = Session::open(&dir, Durability::Wal).unwrap();
        build_fixture(&mut s);
        s.save()
    };
    // Simulate a crash mid-append: garbage bytes at the tail of the WAL.
    let wal = dir.join("databases/Staff").join("wal.ovl");
    let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
    drop(f);
    let s = Session::open(&dir, Durability::Wal).unwrap();
    assert_eq!(
        s.save(),
        saved,
        "torn tail must be truncated, committed prefix kept"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An open that fails writes nothing: with the snapshot damaged and the WAL
/// holding a torn tail, the snapshot's error is returned and `wal.ovl` is
/// byte-identical — the tail is not truncated by an open that did not load.
#[test]
fn a_failed_open_leaves_the_wal_byte_identical() {
    use std::io::Write as _;
    let dir = scratch("failed-open");
    {
        let mut s = Session::open(&dir, Durability::Wal).unwrap();
        build_fixture(&mut s);
        s.checkpoint().unwrap();
        s.execute(r#"database Staff; insert Person value [Name: "Eve", Age: 29, City: "Oslo"];"#)
            .unwrap();
    }
    let db_dir = dir.join("databases/Staff");
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(db_dir.join("wal.ovl"))
        .unwrap();
    f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
    drop(f);
    let snapshot = db_dir.join("snapshot.ovp");
    let mut raw = std::fs::read(&snapshot).unwrap();
    let last = raw.len() - 1;
    raw[last] ^= 0x01;
    std::fs::write(&snapshot, &raw).unwrap();
    let wal_before = std::fs::read(db_dir.join("wal.ovl")).unwrap();
    let err = Session::open(&dir, Durability::Wal).err();
    assert!(
        matches!(&err, Some(ViewError::Oodb(e)) if e.to_string().contains("checksum")),
        "the snapshot's error, got {err:?}"
    );
    assert_eq!(std::fs::read(db_dir.join("wal.ovl")).unwrap(), wal_before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_views_script_is_rejected_with_typed_error() {
    let dir = scratch("views-corrupt");
    {
        let mut s = Session::open(&dir, Durability::Wal).unwrap();
        build_fixture(&mut s);
    }
    // Flip view DDL behind the checksum's back.
    let path = dir.join("views.ovq");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.starts_with("-- ovdump"),
        "views.ovq must be a checked dump"
    );
    std::fs::write(&path, text.replace("Adult", "Adolt")).unwrap();
    let Err(err) = Session::open(&dir, Durability::Wal) else {
        panic!("corrupt views.ovq accepted");
    };
    let msg = err.to_string();
    assert!(msg.contains("checksum"), "untyped or wrong error: {msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_database_file_is_rejected_not_panicking() {
    let dir = scratch("foreign");
    let db_dir = dir.join("databases/Staff");
    std::fs::create_dir_all(&db_dir).unwrap();
    // A foreign snapshot file: recovery must refuse with a typed error.
    std::fs::write(
        db_dir.join("snapshot.ovp"),
        b"#!/bin/sh\n# definitely not a snapshot, but long enough to parse\nexit 1\n",
    )
    .unwrap();
    let Err(err) = Session::open(&dir, Durability::Wal) else {
        panic!("foreign snapshot accepted");
    };
    assert!(!err.to_string().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_of_an_older_format_is_rejected_with_a_typed_error() {
    use objects_and_views::oodb::{codec::crc32, OodbError};
    let dir = scratch("old-format");
    {
        let mut s = Session::open(&dir, Durability::Wal).unwrap();
        build_fixture(&mut s);
        s.checkpoint().unwrap();
    }
    // Relabel the snapshot as format 3 (fixed-width scalars) and re-seal
    // the header checksum, so only the version differs.
    let path = dir.join("databases/Staff/snapshot.ovp");
    let mut raw = std::fs::read(&path).unwrap();
    raw[8..12].copy_from_slice(&3u32.to_le_bytes());
    let crc = crc32(&raw[..36]);
    raw[36..40].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &raw).unwrap();
    let err = Session::open(&dir, Durability::Wal).err();
    assert!(
        matches!(
            err,
            Some(ViewError::Oodb(OodbError::UnsupportedFormat {
                found: 3,
                supported: 6
            }))
        ),
        "old snapshot must fail typed, got {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `script` against the durable root `dir` in an `ovq` process of its
/// own: the roots two processes make both number their objects from `#0`.
fn ovq_root(dir: &Path, script: &str) {
    let file = dir.with_extension("ovq");
    std::fs::write(&file, script).unwrap();
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_ovq"))
        .args(["--batch", "--data-dir"])
        .args([dir, &file])
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "ovq on {}", file.display());
    let _ = std::fs::remove_file(&file);
}

/// A copy of the directory tree at `from`, at `to`.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Two roots made by two processes both hold a `#0`. A database copied
/// from one into the other must not join it: a view importing both would
/// read `A`'s object for `B`'s `#0` (§3 needs every base oid to name one
/// object), and answer `{"a0"}` where `B` holds `"b0"`. The open is refused
/// with a typed error, and the root opens again without the copy.
#[test]
fn a_database_copied_from_another_root_is_refused_on_open() {
    let (r1, r2) = (scratch("join-r1"), scratch("join-r2"));
    ovq_root(
        &r1,
        r#"database A; class P type [Name: string];
           insert P value [Name: "a0"]; insert P value [Name: "a1"];"#,
    );
    ovq_root(
        &r2,
        r#"database B; class Q type [Name: string]; insert Q value [Name: "b0"];"#,
    );
    let copied = r1.join("databases").join("B");
    copy_tree(&r2.join("databases").join("B"), &copied);
    match Session::open(&r1, Durability::Wal) {
        Err(err) => assert_eq!(
            err,
            ViewError::Oodb(OodbError::SharedOid {
                joining: sym("B"),
                joined: sym("A"),
                oid: Oid(0),
            })
        ),
        Ok(mut s) => {
            s.execute(
                "create view V; import all classes from database A; \
                 import all classes from database B;",
            )
            .unwrap();
            let read = s.query(sym("V"), "select X.Name from X in Q");
            panic!("B joined A's root, and `Q` reads {read:?}");
        }
    }
    std::fs::remove_dir_all(&copied).unwrap();
    let s = Session::open(&r1, Durability::Wal).unwrap();
    assert_eq!(s.system().names(), vec![sym("A")]);
    for dir in [r1, r2] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Two databases of one durable root, filled by alternating inserts, draw
/// from the system's one allocator: their oids interleave, every oid lives
/// in exactly one store, a reopen (one database from a snapshot plus a WAL
/// tail, the other from its WAL) changes none, and inserts after it take
/// oids past all of them.
#[test]
fn alternating_inserts_into_two_databases_keep_their_oids_across_a_reopen() {
    let dir = scratch("alternating");
    let oids = |s: &Session| -> BTreeMap<Symbol, Vec<Oid>> {
        let sys = s.system();
        let stores = sys.names().into_iter();
        stores
            .map(|n| (n, sys.database(n).unwrap().read().store.sorted_oids()))
            .collect()
    };
    let insert = |s: &mut Session, n: usize| {
        s.execute(&format!(
            "database A; insert P value [N: {n}]; database B; insert Q value [N: {n}];"
        ))
        .unwrap();
    };
    let before = {
        let mut s = Session::open(&dir, Durability::Wal).unwrap();
        s.execute("database A; class P type [N: integer]; database B; class Q type [N: integer];")
            .unwrap();
        for n in 0..4 {
            insert(&mut s, n);
        }
        s.system()
            .database(sym("A"))
            .unwrap()
            .read()
            .checkpoint()
            .unwrap();
        for n in 4..6 {
            insert(&mut s, n);
        }
        oids(&s)
    };
    let (a, b) = (&before[&sym("A")], &before[&sym("B")]);
    let all: BTreeSet<Oid> = a.iter().chain(b).copied().collect();
    assert_eq!((a.len(), b.len(), all.len()), (6, 6, 12), "{before:?}");
    assert!(a[0] < b[0] && b[0] < a[1], "one allocator: {before:?}");
    let mut s = Session::open(&dir, Durability::Wal).unwrap();
    assert_eq!(oids(&s), before);
    insert(&mut s, 6);
    let after = oids(&s);
    let top = all.last().copied().unwrap();
    for name in [sym("A"), sym("B")] {
        let new = after[&name].last().copied().unwrap();
        assert!(new > top && !all.contains(&new), "{after:?}");
    }
    assert_ne!(after[&sym("A")].last(), after[&sym("B")].last());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint keeps the allocator's high-water mark: an oid deleted above
/// the largest live one before `.checkpoint` is not handed out again after
/// a reopen, so a value still naming it never reads a new object.
#[test]
fn a_deleted_oid_stays_retired_across_a_checkpoint_and_a_reopen() {
    let dir = scratch("retired-oid");
    let insert = |s: &mut Session, n: i64| -> Value {
        let out = s
            .execute(&format!("database A; insert P value [N: {n}];"))
            .unwrap();
        match out.last() {
            Some(Outcome::Value(v)) => v.clone(),
            other => panic!("insert printed {other:?}"),
        }
    };
    {
        let mut s = Session::open(&dir, Durability::Wal).unwrap();
        s.execute("database A; class P type [N: integer];").unwrap();
        assert_eq!(insert(&mut s, 0), Value::Oid(Oid(0)));
        assert_eq!(insert(&mut s, 1), Value::Oid(Oid(1)));
        s.execute("delete (select the X from X in P where X.N = 1);")
            .unwrap();
        s.checkpoint().unwrap();
    }
    let mut s = Session::open(&dir, Durability::Wal).unwrap();
    assert_eq!(insert(&mut s, 2), Value::Oid(Oid(2)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Identity in two durable databases of one root: `VA` reads `A`, `VB`
/// reads `B`, and `VAB` reads both. A checkpoint writes into each
/// database's snapshot exactly the entries of the views that read it, a
/// reopen gives every imaginary oid back, and a new core tuple takes an
/// oid past every recovered one.
#[test]
fn identity_in_two_durable_databases_is_checkpointed_by_the_views_that_read_each() {
    use objects_and_views::oodb::{pager, IdentityEntry};
    let dir = scratch("two-identities");
    let extents = |s: &Session| -> Vec<Vec<Oid>> {
        [("VA", "ATag"), ("VB", "BTag"), ("VAB", "Pair")]
            .map(|(view, class)| {
                let mut oids = s.view(sym(view)).unwrap().extent_of(sym(class)).unwrap();
                oids.sort();
                oids
            })
            .to_vec()
    };
    let (entries, before) = {
        let mut s = Session::open(&dir, Durability::Wal).unwrap();
        s.execute(
            r#"
            database A;
            class P type [City: string];
            insert P value [City: "Oslo"];
            insert P value [City: "Rome"];
            database B;
            class Q type [Town: string];
            insert Q value [Town: "Lima"];
            insert Q value [Town: "Kyiv"];
            insert Q value [Town: "Pune"];
            create view VA;
            import all classes from database A;
            class ATag includes imaginary (select [City: X.City] from X in P);
            create view VB;
            import all classes from database B;
            class BTag includes imaginary (select [Town: Y.Town] from Y in Q);
            create view VAB;
            import all classes from database A;
            import all classes from database B;
            class Pair includes imaginary (select [City: X.City, Town: Y.Town] from X in P, Y in Q);
            "#,
        )
        .unwrap();
        let before = extents(&s);
        assert_eq!(before.iter().map(Vec::len).collect::<Vec<_>>(), [2, 3, 6]);
        assert_eq!(s.checkpoint().unwrap(), 2);
        (s.system().identity().entries(), before)
    };
    let of_views = |views: [&str; 2]| -> Vec<IdentityEntry> {
        let views = views.map(sym);
        entries
            .iter()
            .filter(|e| views.contains(&e.view))
            .cloned()
            .collect()
    };
    for (db, views) in [("A", ["VA", "VAB"]), ("B", ["VB", "VAB"])] {
        let snapshot = pager::read_snapshot(&dir.join("databases").join(db))
            .unwrap()
            .unwrap();
        assert_eq!(snapshot.identity, of_views(views), "database {db}");
    }

    let mut s = Session::open(&dir, Durability::Wal).unwrap();
    assert_eq!(s.system().identity().entries(), entries);
    assert_eq!(extents(&s), before);
    s.execute(r#"database A; insert P value [City: "Nice"];"#)
        .unwrap();
    let tags = s.view(sym("VA")).unwrap().extent_of(sym("ATag")).unwrap();
    let new: Vec<Oid> = tags
        .into_iter()
        .filter(|o| !before[0].contains(o))
        .collect();
    let top = entries.iter().map(|e| e.oid).max().unwrap();
    assert!(new.len() == 1 && new[0] > top, "{new:?} after {top:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
