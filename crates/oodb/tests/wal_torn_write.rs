//! An injected torn WAL write. A process of its own: the failpoint registry
//! is process-wide, so `wal.torn_write` armed here would fire in whatever
//! other test appends to a WAL in the same process. The tests here take
//! one lock for the same reason.

use std::sync::{Mutex, MutexGuard};

use ov_oodb::faults::{self, FaultAction, FaultSchedule};
use ov_oodb::{sym, AttrDef, Database, Durability, Oid, OodbError, Type, Value, Wal, WalRecord};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ov-wal-torn-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Appends `rec` with `wal.torn_write` armed: a partial frame, then an
/// error.
fn torn_append(wal: &mut Wal, rec: &WalRecord) {
    faults::arm("wal.torn_write", FaultSchedule::Nth(1), FaultAction::Error);
    let err = wal.append(rec).unwrap_err();
    faults::clear();
    assert!(matches!(err, OodbError::Io { .. }));
}

/// The torn bytes stay in the file until something cuts them off: a
/// reopen truncates them and recovers the prefix, and an append after the
/// torn one cuts them first, so the frame it writes survives a reopen.
#[test]
fn injected_torn_write_recovers_prefix() {
    let _serial = serial();
    let dir = scratch("prefix");
    let path = dir.join("wal.ovl");
    let (mut wal, _) = Wal::open(&path).unwrap();
    wal.append(&WalRecord::Remove { oid: Oid(9) }).unwrap();
    let whole = wal.bytes();
    torn_append(&mut wal, &WalRecord::Remove { oid: Oid(10) });
    assert_eq!(wal.bytes(), whole, "a torn frame is not part of the log");
    wal.sync().unwrap();
    drop(wal);
    assert!(std::fs::metadata(&path).unwrap().len() > whole);
    let (mut wal, recs) = Wal::open(&path).unwrap();
    assert_eq!(recs, vec![(1, WalRecord::Remove { oid: Oid(9) })]);

    torn_append(&mut wal, &WalRecord::Remove { oid: Oid(10) });
    assert_eq!(wal.append(&WalRecord::Remove { oid: Oid(11) }).unwrap(), 2);
    wal.sync().unwrap();
    drop(wal);
    let (_, recs) = Wal::open(&path).unwrap();
    assert_eq!(
        recs,
        vec![
            (1, WalRecord::Remove { oid: Oid(9) }),
            (2, WalRecord::Remove { oid: Oid(11) })
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Through a database under `WalSync`: an insert acknowledged after a
/// torn one is there after a reopen.
#[test]
fn an_insert_acknowledged_after_a_torn_one_survives_a_reopen() {
    let _serial = serial();
    let dir = scratch("db");
    let row = |n: i64| Value::tuple([("N", Value::Int(n))]);
    {
        let mut db = Database::open(sym("D"), &dir, Durability::WalSync).unwrap();
        let def = AttrDef::stored(sym("N"), Type::Int);
        let p = db.create_class(sym("P"), &[], vec![def]).unwrap();
        db.create_object(p, row(1)).unwrap();
        faults::arm("wal.torn_write", FaultSchedule::Nth(1), FaultAction::Error);
        assert!(db.create_object(p, row(2)).is_err());
        faults::clear();
        assert_eq!(db.create_object(p, row(3)), Ok(Oid(2)));
        assert_eq!(db.store.len(), 2);
    }
    let db = Database::open(sym("D"), &dir, Durability::WalSync).unwrap();
    assert_eq!(db.store.len(), 2);
    assert!(db.store.get(Oid(2)).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
