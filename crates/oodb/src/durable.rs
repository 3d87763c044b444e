//! The per-database durability core: a shared WAL handle, and what a
//! checkpoint writes of the §5.1 identity tables.
//!
//! A [`DurableCore`] is created by `Database::open` and threaded (as an
//! `Arc`) into the [`crate::Store`] and into every view bound over the
//! database. It owns the write-ahead log ([`crate::wal::Wal`]): every store
//! mutation is appended *before* it is applied in memory, so a crash
//! recovers exactly a prefix of committed work.
//!
//! It keeps no identity table of its own once its database joins a system.
//! Open builds an [`IdentityStore`] from the snapshot and the log tail; the
//! join ([`crate::System::add_database`]) seeds the system's store from it
//! and hands the core the system's instead. A view logs its assignments
//! and drops to the cores of the databases it reads, a population's as one
//! batch with one commit, and each core notes the view's name; a
//! checkpoint writes the store's current entries of the views it noted,
//! and the store's floor. The name is noted, and the checkpoint reads the
//! store, under the log's one lock, and no one holds the store's lock
//! while waiting for the log's. An entry made while a checkpoint runs is
//! in the snapshot or logged after it; replaying an identity record is
//! idempotent.

use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::Result;
use crate::identity::IdentityStore;
use crate::pager::{self, SnapshotImage};
use crate::symbol::Symbol;
use crate::wal::{Durability, Wal, WalRecord};

/// File name of the write-ahead log within a database directory.
pub const WAL_FILE: &str = "wal.ovl";

/// A point-in-time report of the durability layer, for the ovq `.wal`
/// command and tests.
#[derive(Clone, Debug)]
pub struct WalStatus {
    /// The database's on-disk directory.
    pub dir: PathBuf,
    /// The configured durability level.
    pub durability: Durability,
    /// Next LSN the WAL will assign.
    pub next_lsn: u64,
    /// Records appended since the last checkpoint truncated the log.
    pub records_since_reset: u64,
    /// Current WAL file size in bytes.
    pub wal_bytes: u64,
    /// The identity entries the next checkpoint writes.
    pub identity_entries: usize,
}

/// The shared durability core of one open database.
pub struct DurableCore {
    dir: PathBuf,
    durability: Durability,
    log: Mutex<Log>,
}

/// The log, and what a checkpoint reads beside it, under one lock.
struct Log {
    wal: Wal,
    /// The identity tables: the ones the database recovered until it joins
    /// a system, the system's after.
    identity: Arc<IdentityStore>,
    /// The views that logged identity here, or whose entries the database
    /// recovered: a checkpoint writes their tables.
    views: HashSet<Symbol>,
}

impl fmt::Debug for DurableCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableCore")
            .field("dir", &self.dir)
            .field("durability", &self.durability)
            .finish_non_exhaustive()
    }
}

/// What [`DurableCore::open`] recovers: the core itself, the latest
/// snapshot (if any), and the WAL tail — the records appended after that
/// snapshot — for the caller to replay.
pub type RecoveredCore = (
    Arc<DurableCore>,
    Option<SnapshotImage>,
    Vec<(u64, WalRecord)>,
);

impl DurableCore {
    /// Opens (creating if needed) the durability directory `dir`.
    ///
    /// When there is a snapshot, the WAL is read and decoded on a second
    /// thread while this one reads, checksums and decodes the snapshot
    /// (without one there is nothing to overlap, and a thread costs tens
    /// of µs); neither writes a byte. Only once the snapshot has loaded
    /// does this thread write to the log (a torn tail truncated, a missing
    /// header written), so an open that fails on either file leaves both
    /// as they were. When both are damaged, the snapshot's error is the one
    /// returned.
    pub fn open(dir: &Path, durability: Durability) -> Result<RecoveredCore> {
        std::fs::create_dir_all(dir)
            .map_err(|e| crate::error::OodbError::io("create database directory", e))?;
        let wal_path = dir.join(WAL_FILE);
        let (snapshot, scan) = if dir.join(pager::SNAPSHOT_FILE).exists() {
            std::thread::scope(|s| {
                let scan = s.spawn(|| Wal::scan(&wal_path));
                let snapshot = pager::read_snapshot(dir);
                let scan = scan.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                (snapshot, scan)
            })
        } else {
            (pager::read_snapshot(dir), Wal::scan(&wal_path))
        };
        let snapshot = snapshot?;
        let checkpoint = snapshot.as_ref().map_or(0, |img| img.checkpoint);
        let (wal, tail) = scan?.open(checkpoint)?;
        let (identity, views) = IdentityStore::recover(snapshot.as_ref(), &tail);
        let log = Log {
            wal,
            identity: Arc::new(identity),
            views,
        };
        let core = Arc::new(DurableCore {
            dir: dir.to_path_buf(),
            durability,
            log: Mutex::new(log),
        });
        Ok((core, snapshot, tail))
    }

    /// Appends a record and applies the configured commit policy. This is
    /// the strict path used by store mutations: the caller must *not*
    /// apply the mutation in memory if this fails.
    pub fn log(&self, rec: &WalRecord) -> Result<u64> {
        let mut log = self.log.lock();
        let lsn = log.wal.append(rec)?;
        log.wal.commit(self.durability)?;
        Ok(lsn)
    }

    /// Logs the identity assignments and drops view `view` made, as one
    /// batch: under the log's lock the view is noted, then each record is
    /// appended, then the batch commits once. A failure degrades (each
    /// failed append or commit counted in `identity.log_failures`, not
    /// raised): the entries stand in the store either way, and the view was
    /// noted before the first append, so the next checkpoint writes them.
    pub fn log_identity(&self, view: Symbol, records: &[WalRecord]) {
        if records.is_empty() {
            return;
        }
        let mut log = self.log.lock();
        log.views.insert(view);
        let mut failures = records
            .iter()
            .filter(|rec| log.wal.append(rec).is_err())
            .count();
        if log.wal.commit(self.durability).is_err() {
            failures += 1;
        }
        if failures > 0 {
            crate::metric_counter!("identity.log_failures").add(failures as u64);
        }
    }

    /// Joins, once, a system whose identity tables are `system`: seeds them
    /// from the tables this database recovered ([`IdentityStore::seed`]),
    /// which the core then drops for the system's.
    pub(crate) fn join(&self, system: &Arc<IdentityStore>) {
        let mut log = self.log.lock();
        system.seed(&log.identity);
        log.identity = Arc::clone(system);
    }

    /// Forces the WAL to disk regardless of durability level.
    pub fn sync(&self) -> Result<()> {
        self.log.lock().wal.sync()
    }

    /// Writes a checkpoint. The caller fills the image with store state via
    /// `fill`; the core contributes the identity tables of the views that
    /// logged here, the imaginary-oid floor and the checkpoint's number
    /// (one past the one the log follows), writes the snapshot atomically,
    /// then resets the WAL to follow it. The log's lock is held throughout,
    /// so no mutation can slip between the captured image and the reset.
    /// What a failed write or reset left of the log is cut back first, so
    /// the log on disk always follows the latest snapshot or the one
    /// before.
    pub fn checkpoint(&self, fill: impl FnOnce(&mut SnapshotImage)) -> Result<()> {
        let mut log = self.log.lock();
        log.wal.heal()?;
        log.wal.sync()?;
        let mut image = SnapshotImage::default();
        (image.identity, image.next_imaginary) = log.identity.image(&log.views);
        image.checkpoint = log.wal.follows().saturating_add(1);
        fill(&mut image);
        pager::write_snapshot(&self.dir, &image)?;
        log.wal.reset(image.checkpoint)
    }

    /// The database's on-disk directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured durability level.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Snapshot of the durability layer's current state.
    pub fn status(&self) -> WalStatus {
        let log = self.log.lock();
        WalStatus {
            dir: self.dir.clone(),
            durability: self.durability,
            next_lsn: log.wal.next_lsn(),
            records_since_reset: log.wal.records_since_reset(),
            wal_bytes: log.wal.bytes(),
            identity_entries: log.identity.count(&log.views),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::identity::ImaginaryObject;
    use crate::ids::Oid;
    use crate::symbol::sym;
    use crate::value::{Tuple, Value};

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ov-durable-test-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn core_tuple(city: &str) -> Tuple {
        Tuple::from_fields([("City", Value::str(city))])
    }

    /// A system's identity tables, which `core` joined as
    /// `System::add_database` joins a database.
    fn joined(core: &DurableCore) -> Arc<IdentityStore> {
        let system = Arc::new(IdentityStore::default());
        core.join(&system);
        system
    }

    /// Gives `city`'s core tuple an oid in `system` and logs it to `core`,
    /// as the declaring view does.
    fn assign(core: &DurableCore, system: &IdentityStore, city: &str) -> Oid {
        let (oids, new) = system.assign(sym("V"), sym("Addr"), vec![core_tuple(city)], false);
        let records: Vec<_> = new
            .into_iter()
            .map(|(core, oid)| WalRecord::IdentityAssign {
                view: sym("V"),
                class: sym("Addr"),
                core,
                oid,
            })
            .collect();
        core.log_identity(sym("V"), &records);
        oids.into_iter().next().unwrap()
    }

    /// The oid `store` assigns next.
    fn next_oid(store: &IdentityStore) -> Oid {
        let (oids, _) = store.assign(sym("W"), sym("Probe"), vec![core_tuple("Probe")], false);
        oids.into_iter().next().unwrap()
    }

    #[test]
    fn identity_survives_reopen_via_wal_tail() {
        let dir = tmpdir("identity-wal");
        let (oid, before) = {
            let (core, snap, tail) = DurableCore::open(&dir, Durability::Wal).unwrap();
            assert!(snap.is_none());
            assert!(tail.is_empty());
            let system = joined(&core);
            let oid = assign(&core, &system, "Paris");
            core.sync().unwrap();
            (oid, system.entries())
        };
        let (core, _, tail) = DurableCore::open(&dir, Durability::Wal).unwrap();
        assert_eq!(tail.len(), 1);
        let store = joined(&core);
        assert_eq!(store.entries(), before);
        let (got, new) = store.assign(sym("V"), sym("Addr"), vec![core_tuple("Paris")], false);
        assert_eq!((got, new), (BTreeSet::from([oid]), vec![]));
        assert_eq!(next_oid(&store), Oid(oid.0 + 1));
    }

    #[test]
    fn checkpoint_truncates_wal_and_keeps_identity() {
        let dir = tmpdir("identity-ckpt");
        let (oid, before) = {
            let (core, _, _) = DurableCore::open(&dir, Durability::Wal).unwrap();
            let system = joined(&core);
            let oid = assign(&core, &system, "Lyon");
            core.checkpoint(|img| {
                img.name = sym("Db");
                img.store_version = 5;
            })
            .unwrap();
            assert_eq!(core.status().records_since_reset, 0);
            (oid, system.entries())
        };
        let (core, snap, tail) = DurableCore::open(&dir, Durability::Wal).unwrap();
        assert!(tail.is_empty(), "WAL should be empty after checkpoint");
        let snap = snap.unwrap();
        assert_eq!(snap.store_version, 5);
        assert_eq!(snap.identity.len(), 1);
        let store = joined(&core);
        assert_eq!(store.entries(), before);
        let object = ImaginaryObject {
            view: sym("V"),
            class: sym("Addr"),
            core: core_tuple("Lyon"),
        };
        assert_eq!(store.object(oid, Clone::clone), Some(object));
    }

    #[test]
    fn drop_removes_entry_durably() {
        let dir = tmpdir("identity-drop");
        let (oid, before) = {
            let (core, _, _) = DurableCore::open(&dir, Durability::Wal).unwrap();
            let system = joined(&core);
            let oid = assign(&core, &system, "Nice");
            let drops: Vec<_> = system
                .drop_where(sym("V"), |_, _, _| true)
                .into_iter()
                .map(|(class, core)| WalRecord::IdentityDrop {
                    view: sym("V"),
                    class,
                    core,
                })
                .collect();
            core.log_identity(sym("V"), &drops);
            core.sync().unwrap();
            (oid, system.entries())
        };
        let (core, _, _) = DurableCore::open(&dir, Durability::Wal).unwrap();
        let store = joined(&core);
        assert_eq!(store.entries(), before);
        assert_eq!(store.len(sym("V"), sym("Addr")), 0);
        // The floor still clears the dropped oid: identity is never reused.
        assert_eq!(next_oid(&store), Oid(oid.0 + 1));
    }

    #[test]
    fn status_reports_progress() {
        let dir = tmpdir("status");
        let (core, _, _) = DurableCore::open(&dir, Durability::WalSync).unwrap();
        let s0 = core.status();
        assert_eq!(s0.next_lsn, 1);
        assert_eq!(s0.durability, Durability::WalSync);
        core.log(&WalRecord::Remove { oid: Oid(1) }).unwrap();
        let s1 = core.status();
        assert_eq!(s1.next_lsn, 2);
        assert_eq!(s1.records_since_reset, 1);
        assert!(s1.wal_bytes > s0.wal_bytes, "the append grew the log");
    }
}
