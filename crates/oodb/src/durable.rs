//! The per-database durability core: a shared WAL handle plus the durable
//! mirror of the view layer's imaginary identity tables.
//!
//! A [`DurableCore`] is created by `Database::open` and threaded (as an
//! `Arc`) into the [`crate::Store`] and into every view bound over the
//! database. It owns:
//!
//! * the write-ahead log ([`crate::wal::Wal`]) — every store mutation is
//!   appended *before* it is applied in memory, so a crash recovers exactly
//!   a prefix of committed work;
//! * the **identity mirror** — a durable copy of each view's
//!   tuple → imaginary-oid tables (§5.1 of the paper). The system's
//!   [`IdentityStore`] is the working copy; the mirror exists for
//!   durability only — it seeds the store once when the database joins a
//!   system, and is checkpointed without consulting live views.
//!
//! ## Lock discipline
//!
//! Checkpointing locks `wal` **then** `identity`. Identity logging locks
//! `identity`, *releases it*, then locks `wal` — no thread ever holds
//! `identity` while waiting for `wal`, so the two orders cannot deadlock.
//! The window between a mirror update and its WAL append is benign: if a
//! checkpoint interleaves, the snapshot already carries the mirror entry
//! and replaying the (idempotent) `IdentityAssign` record is a no-op.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::Result;
use crate::identity::IdentityStore;
use crate::ids::{Oid, IMAGINARY_OID_BASE};
use crate::pager::{self, IdentityEntry, SnapshotImage};
use crate::symbol::Symbol;
use crate::value::Tuple;
use crate::wal::{Durability, Wal, WalRecord};

/// File name of the write-ahead log within a database directory.
pub const WAL_FILE: &str = "wal.ovl";

/// The durable mirror of all imaginary identity tables, keyed by
/// `(view name, imaginary class name)`. Class *names* are the durable key:
/// class ids are rebuilt on every view bind. The system's
/// [`IdentityStore`] keeps its forward table in one too.
#[derive(Clone, Debug)]
pub struct IdentityMirror {
    pub(crate) tables: HashMap<(Symbol, Symbol), HashMap<Tuple, Oid>>,
    pub(crate) next_imaginary: u64,
}

impl Default for IdentityMirror {
    fn default() -> IdentityMirror {
        IdentityMirror {
            tables: HashMap::new(),
            next_imaginary: IMAGINARY_OID_BASE,
        }
    }
}

impl IdentityMirror {
    /// Records (or re-records) an assignment. Idempotent.
    pub fn assign(&mut self, view: Symbol, class: Symbol, core: Tuple, oid: Oid) {
        self.tables
            .entry((view, class))
            .or_default()
            .insert(core, oid);
        if oid.0 >= self.next_imaginary {
            self.next_imaginary = oid.0 + 1;
        }
    }

    /// Drops an assignment; `true` if it existed.
    pub fn drop_entry(&mut self, view: Symbol, class: Symbol, core: &Tuple) -> bool {
        self.tables
            .get_mut(&(view, class))
            .is_some_and(|t| t.remove(core).is_some())
    }

    /// Flattens the mirror for a snapshot, in a deterministic order.
    pub fn entries(&self) -> Vec<IdentityEntry> {
        let mut out: Vec<IdentityEntry> = self
            .tables
            .iter()
            .flat_map(|((view, class), table)| {
                table.iter().map(|(core, oid)| IdentityEntry {
                    view: *view,
                    class: *class,
                    core: core.clone(),
                    oid: *oid,
                })
            })
            .collect();
        out.sort_by_key(|e| e.oid);
        out
    }

    /// Number of live entries across all tables.
    pub fn len(&self) -> usize {
        self.tables.values().map(HashMap::len).sum()
    }

    /// Is the mirror empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lowest imaginary oid not yet assigned.
    pub fn next_imaginary(&self) -> u64 {
        self.next_imaginary
    }

    /// Raises the allocator floor to at least `floor`.
    pub fn raise_floor(&mut self, floor: u64) {
        if floor > self.next_imaginary {
            self.next_imaginary = floor;
        }
    }
}

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
    /// Live entries in the durable identity mirror.
    pub identity_entries: usize,
}

/// The shared durability core of one open database. See the module docs
/// for the lock discipline.
pub struct DurableCore {
    dir: PathBuf,
    durability: Durability,
    wal: Mutex<Wal>,
    identity: Mutex<IdentityMirror>,
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
        let (wal, tail) = scan?.open()?;
        let mut identity = IdentityMirror::default();
        if let Some(img) = &snapshot {
            for e in &img.identity {
                identity.assign(e.view, e.class, e.core.clone(), e.oid);
            }
            identity.raise_floor(img.next_imaginary);
        }
        // Identity records in the WAL tail are applied to the mirror here;
        // store records are left for the caller's replay loop.
        for (_, rec) in &tail {
            match rec {
                WalRecord::IdentityAssign {
                    view,
                    class,
                    core,
                    oid,
                } => {
                    identity.assign(*view, *class, core.clone(), *oid);
                }
                WalRecord::IdentityDrop { view, class, core } => {
                    identity.drop_entry(*view, *class, core);
                }
                _ => {}
            }
        }
        let core = Arc::new(DurableCore {
            dir: dir.to_path_buf(),
            durability,
            wal: Mutex::new(wal),
            identity: Mutex::new(identity),
        });
        Ok((core, snapshot, tail))
    }

    /// Appends a record and applies the configured commit policy. This is
    /// the strict path used by store mutations: the caller must *not*
    /// apply the mutation in memory if this fails.
    pub fn log(&self, rec: &WalRecord) -> Result<u64> {
        let mut wal = self.wal.lock();
        let lsn = wal.append(rec)?;
        wal.commit(self.durability)?;
        Ok(lsn)
    }

    /// Records an imaginary identity assignment: mirror first, then WAL.
    /// WAL failures degrade (counted, not raised) — the in-memory
    /// assignment stands either way, and identity records are idempotent,
    /// so a later retry or checkpoint heals the log.
    pub fn log_identity_assign(&self, view: Symbol, class: Symbol, core: Tuple, oid: Oid) {
        self.identity.lock().assign(view, class, core.clone(), oid);
        let rec = WalRecord::IdentityAssign {
            view,
            class,
            core,
            oid,
        };
        if self.log(&rec).is_err() {
            crate::metric_counter!("identity.log_failures").inc();
        }
    }

    /// Records an imaginary identity drop (mirror first, then WAL; WAL
    /// failures degrade as in [`Self::log_identity_assign`]).
    pub fn log_identity_drop(&self, view: Symbol, class: Symbol, core: &Tuple) {
        self.identity.lock().drop_entry(view, class, core);
        let rec = WalRecord::IdentityDrop {
            view,
            class,
            core: core.clone(),
        };
        if self.log(&rec).is_err() {
            crate::metric_counter!("identity.log_failures").inc();
        }
    }

    /// Seeds a system's identity store from this database's recovered
    /// mirror ([`IdentityStore::seed`]).
    pub fn seed(&self, store: &IdentityStore) {
        store.seed(&self.identity.lock());
    }

    /// Forces the WAL to disk regardless of durability level.
    pub fn sync(&self) -> Result<()> {
        self.wal.lock().sync()
    }

    /// Writes a checkpoint. The caller fills the image with store state via
    /// `fill`; the core contributes the identity mirror and the WAL
    /// watermark, writes the snapshot atomically, then truncates the WAL.
    /// The WAL lock is held throughout, so no mutation can slip between
    /// the captured image and the truncation.
    pub fn checkpoint(&self, fill: impl FnOnce(&mut SnapshotImage)) -> Result<()> {
        let mut wal = self.wal.lock();
        wal.sync()?;
        let mut image = SnapshotImage::default();
        {
            let identity = self.identity.lock();
            image.identity = identity.entries();
            image.next_imaginary = identity.next_imaginary();
        }
        image.checkpoint_lsn = wal.next_lsn();
        fill(&mut image);
        pager::write_snapshot(&self.dir, &image)?;
        wal.reset()?;
        Ok(())
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
        let wal = self.wal.lock();
        WalStatus {
            dir: self.dir.clone(),
            durability: self.durability,
            next_lsn: wal.next_lsn(),
            records_since_reset: wal.records_since_reset(),
            wal_bytes: wal.bytes(),
            identity_entries: self.identity.lock().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::identity::ImaginaryObject;
    use crate::symbol::sym;
    use crate::value::Value;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ov-durable-test-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn core_tuple(city: &str) -> Tuple {
        Tuple::from_fields([("City", Value::str(city))])
    }

    /// A store seeded from `core`, as a system the database joins.
    fn seeded(core: &DurableCore) -> IdentityStore {
        let store = IdentityStore::default();
        core.seed(&store);
        store
    }

    /// The oid `store` assigns next.
    fn next_oid(store: &IdentityStore) -> Oid {
        let (oids, _) = store.assign(sym("W"), sym("Probe"), vec![core_tuple("Probe")], false);
        oids.into_iter().next().unwrap()
    }

    #[test]
    fn identity_survives_reopen_via_wal_tail() {
        let dir = tmpdir("identity-wal");
        let oid = Oid(IMAGINARY_OID_BASE + 3);
        {
            let (core, snap, tail) = DurableCore::open(&dir, Durability::Wal).unwrap();
            assert!(snap.is_none());
            assert!(tail.is_empty());
            core.log_identity_assign(sym("V"), sym("Addr"), core_tuple("Paris"), oid);
            core.sync().unwrap();
        }
        let (core, _, tail) = DurableCore::open(&dir, Durability::Wal).unwrap();
        assert_eq!(tail.len(), 1);
        let store = seeded(&core);
        let (got, new) = store.assign(sym("V"), sym("Addr"), vec![core_tuple("Paris")], false);
        assert_eq!((got, new), (BTreeSet::from([oid]), vec![]));
        assert_eq!(next_oid(&store), Oid(oid.0 + 1));
    }

    #[test]
    fn checkpoint_truncates_wal_and_keeps_identity() {
        let dir = tmpdir("identity-ckpt");
        let oid = Oid(IMAGINARY_OID_BASE + 7);
        {
            let (core, _, _) = DurableCore::open(&dir, Durability::Wal).unwrap();
            core.log_identity_assign(sym("V"), sym("Addr"), core_tuple("Lyon"), oid);
            core.checkpoint(|img| {
                img.name = sym("Db");
                img.store_version = 5;
            })
            .unwrap();
            assert_eq!(core.status().records_since_reset, 0);
        }
        let (core, snap, tail) = DurableCore::open(&dir, Durability::Wal).unwrap();
        assert!(tail.is_empty(), "WAL should be empty after checkpoint");
        let snap = snap.unwrap();
        assert_eq!(snap.store_version, 5);
        assert_eq!(snap.identity.len(), 1);
        let object = ImaginaryObject {
            view: sym("V"),
            class: sym("Addr"),
            core: core_tuple("Lyon"),
        };
        assert_eq!(seeded(&core).object(oid, Clone::clone), Some(object));
    }

    #[test]
    fn drop_removes_entry_durably() {
        let dir = tmpdir("identity-drop");
        let oid = Oid(IMAGINARY_OID_BASE + 1);
        {
            let (core, _, _) = DurableCore::open(&dir, Durability::Wal).unwrap();
            core.log_identity_assign(sym("V"), sym("Addr"), core_tuple("Nice"), oid);
            core.log_identity_drop(sym("V"), sym("Addr"), &core_tuple("Nice"));
            core.sync().unwrap();
        }
        let (core, _, _) = DurableCore::open(&dir, Durability::Wal).unwrap();
        let store = seeded(&core);
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
