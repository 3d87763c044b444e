//! An injected torn WAL write. A process of its own: the failpoint registry
//! is process-wide, so `wal.torn_write` armed here would fire in whatever
//! other test appends to a WAL in the same process.

use ov_oodb::faults::{self, FaultAction, FaultSchedule};
use ov_oodb::{Oid, OodbError, Wal, WalRecord};

#[test]
fn injected_torn_write_recovers_prefix() {
    let dir = std::env::temp_dir().join(format!("ov-wal-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wal.ovl");
    let (mut wal, _) = Wal::open(&path).unwrap();
    wal.append(&WalRecord::Remove { oid: Oid(9) }).unwrap();
    faults::arm("wal.torn_write", FaultSchedule::Nth(1), FaultAction::Error);
    let err = wal.append(&WalRecord::Remove { oid: Oid(10) }).unwrap_err();
    faults::clear();
    assert!(matches!(err, OodbError::Io { .. }));
    wal.sync().unwrap();
    drop(wal);
    let (_, recs) = Wal::open(&path).unwrap();
    assert_eq!(recs, vec![(1, WalRecord::Remove { oid: Oid(9) })]);
    let _ = std::fs::remove_dir_all(&dir);
}
