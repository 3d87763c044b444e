//! Property test for crash recovery: a random mutation sequence against a
//! durable database, a crash at a *random byte offset* of the WAL (the
//! file is truncated mid-frame, as a power cut would), then recovery. The
//! recovered database must equal the reference replay of **some prefix**
//! of the committed operations — never a mix, never a suffix, never a
//! corrupted hybrid — and longer surviving WALs must recover longer
//! prefixes (monotonicity). Recovery builds no index: each recovered index
//! must answer, when first probed, exactly as a scan of the recovered store
//! does — probed before any further write, and after writes.
//!
//! The histories add an attribute midway (so a second tuple shape appears
//! mid-log), write a string-valued field, and checkpoint (which empties the
//! log's name and shape tables). Writes made after a recovery must survive
//! the next reopen: the log appends with the tables of the frames it kept.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use ov_oodb::{sym, AttrDef, Database, Durability, Oid, Type, Value};
use proptest::prelude::*;

/// One store mutation, victim-addressed by *index* into the oid-sorted
/// extent so the same op sequence replays identically on any database
/// regardless of absolute oid allocation.
#[derive(Clone, Debug)]
enum Op {
    Insert {
        age: i64,
    },
    SetAge {
        idx: usize,
        age: i64,
    },
    SetName {
        idx: usize,
        name: String,
    },
    Remove {
        idx: usize,
    },
    IndexAge,
    /// Adds `Nick: string` to `Person` once: later inserts have a wider
    /// shape than earlier ones.
    AddNick,
    /// A checkpoint on a durable database; nothing on the reference.
    Checkpoint,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..100).prop_map(|age| Op::Insert { age }),
        (0i64..100).prop_map(|age| Op::Insert { age: age + 100 }),
        (0usize..64, 0i64..100).prop_map(|(idx, age)| Op::SetAge { idx, age }),
        (0usize..64, "[a-z]{0,6}").prop_map(|(idx, name)| Op::SetName { idx, name }),
        (0usize..64).prop_map(|idx| Op::Remove { idx }),
        Just(Op::IndexAge),
        Just(Op::AddNick),
        Just(Op::Checkpoint),
    ]
}

/// Applies `op` to `db`. Index-addressed ops on an empty (or shorter)
/// extent are no-ops, so the sequence is total on every database.
fn apply(db: &mut Database, class: ov_oodb::ClassId, op: &Op) {
    match op {
        Op::Insert { age } => {
            db.create_object(class, Value::tuple([(sym("Age"), Value::Int(*age))]))
                .unwrap();
        }
        Op::SetAge { idx, age } => {
            let oids = db.store.sorted_oids();
            if !oids.is_empty() {
                db.set_attr(oids[idx % oids.len()], sym("Age"), Value::Int(*age))
                    .unwrap();
            }
        }
        Op::SetName { idx, name } => {
            let oids = db.store.sorted_oids();
            if !oids.is_empty() {
                db.set_attr(oids[idx % oids.len()], sym("Name"), Value::str(name))
                    .unwrap();
            }
        }
        Op::Remove { idx } => {
            let oids = db.store.sorted_oids();
            if !oids.is_empty() {
                db.delete_object(oids[idx % oids.len()]).unwrap();
            }
        }
        Op::IndexAge => {
            if db.store.index_defs().is_empty() {
                db.store.create_index(class, sym("Age"));
            }
        }
        Op::AddNick => {
            if db.schema.class(class).own_attr(sym("Nick")).is_none() {
                db.add_attr(class, AttrDef::stored(sym("Nick"), Type::Str))
                    .unwrap();
            }
        }
        Op::Checkpoint => {
            if db.durable_core().is_some() {
                db.checkpoint().unwrap();
            }
        }
    }
}

/// A database's comparable fingerprint: the renumbered DDL dump (schema,
/// objects, names — position-independent) plus the persisted index defs.
fn fingerprint(db: &Database) -> (String, Vec<(ov_oodb::ClassId, ov_oodb::Symbol)>) {
    (ov_oodb::dump_database(db), db.store.index_defs())
}

/// Every index of `db` answers every key its extent holds, and `null`,
/// exactly as a scan of the extent does.
fn indexes_agree_with_a_scan(db: &Database) -> Result<(), TestCaseError> {
    for (class, attr) in db.store.index_defs() {
        let value = |oid: Oid| {
            let obj = db.store.get(oid).expect("an extent oid is live");
            obj.value.get(attr).cloned().unwrap_or(Value::Null)
        };
        let mut keys: BTreeSet<Value> = db.store.extent(class).map(value).collect();
        keys.insert(Value::Null);
        for key in keys {
            let scan: Vec<Oid> = db
                .store
                .extent(class)
                .filter(|&o| value(o) == key)
                .collect();
            prop_assert_eq!(db.store.index_lookup(class, attr, &key), Some(scan));
        }
    }
    Ok(())
}

/// Writes to a recovered database — an insert, updates of an integer and a
/// string field, a delete, the attribute added if it was not, and an insert
/// of the wider shape — or nothing when recovery stopped before `Person`
/// existed. The reopen after them must find them all.
fn write_after_recovery(db: &mut Database, dir: &std::path::Path) -> Result<(), TestCaseError> {
    if let Ok(class) = db.schema.require_class(sym("Person")) {
        for op in [
            Op::Insert { age: 7 },
            Op::SetAge { idx: 1, age: 7 },
            Op::SetName {
                idx: 3,
                name: "after".into(),
            },
            Op::Remove { idx: 2 },
            Op::AddNick,
            Op::Insert { age: 8 },
        ] {
            apply(db, class, &op);
        }
    }
    let written = fingerprint(db);
    let reopened = Database::open(sym("P"), dir, Durability::Wal).unwrap();
    prop_assert_eq!(
        fingerprint(&reopened),
        written,
        "writes after recovery lost on reopen"
    );
    Ok(())
}

/// A fresh scratch dir per case (proptest runs many cases per process).
fn scratch() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ov-prop-recovery-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn person_class(db: &mut Database) -> ov_oodb::ClassId {
    db.create_class(
        sym("Person"),
        &[],
        vec![
            AttrDef::stored(sym("Age"), Type::Int),
            AttrDef::stored(sym("Name"), Type::Str),
        ],
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crash anywhere in the WAL → recover exactly a prefix of the
    /// committed operation sequence.
    #[test]
    fn truncated_wal_recovers_an_exact_prefix(
        ops in prop::collection::vec(arb_op(), 1..40),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = scratch();
        // Durable run: every op WAL-logged, no checkpoint, no clean close.
        {
            let mut db = Database::open(sym("P"), &dir, Durability::Wal).unwrap();
            let class = person_class(&mut db);
            for op in &ops {
                apply(&mut db, class, op);
            }
        }
        // Reference replay: fingerprints of every committed prefix,
        // including the empty database (DDL record may be cut too).
        let mut prefixes = vec![fingerprint(&Database::new(sym("P")))];
        let mut reference = Database::new(sym("P"));
        let class = person_class(&mut reference);
        prefixes.push(fingerprint(&reference));
        for op in &ops {
            apply(&mut reference, class, op);
            prefixes.push(fingerprint(&reference));
        }
        // The crash: truncate the WAL at an arbitrary byte offset.
        let wal = dir.join("wal.ovl");
        let len = std::fs::metadata(&wal).unwrap().len();
        let cut = (len as f64 * cut_frac) as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(cut)
            .unwrap();
        // Recovery must succeed and land on exactly one reference prefix.
        let mut recovered = Database::open(sym("P"), &dir, Durability::Wal).unwrap();
        let got = fingerprint(&recovered);
        prop_assert!(
            prefixes.contains(&got),
            "recovered state (cut {cut}/{len}) matches no committed prefix:\n{}",
            got.0
        );
        // The first probe before any further write, then writes it maintains.
        indexes_agree_with_a_scan(&recovered)?;
        write_after_recovery(&mut recovered, &dir)?;
        indexes_agree_with_a_scan(&recovered)?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Monotonicity: keeping more of the WAL never recovers less. The
    /// recovered prefix index is non-decreasing in the truncation offset.
    #[test]
    fn longer_wal_survivals_recover_longer_prefixes(
        ops in prop::collection::vec(arb_op(), 1..25),
        cuts in prop::collection::vec(0.0f64..1.0, 2..4),
    ) {
        let dir = scratch();
        {
            let mut db = Database::open(sym("P"), &dir, Durability::Wal).unwrap();
            let class = person_class(&mut db);
            for op in &ops {
                apply(&mut db, class, op);
            }
        }
        let mut prefixes = vec![fingerprint(&Database::new(sym("P")))];
        let mut reference = Database::new(sym("P"));
        let class = person_class(&mut reference);
        prefixes.push(fingerprint(&reference));
        for op in &ops {
            apply(&mut reference, class, op);
            prefixes.push(fingerprint(&reference));
        }
        let wal_bytes = std::fs::read(dir.join("wal.ovl")).unwrap();
        let mut cuts = cuts;
        cuts.sort_by(f64::total_cmp);
        // States can repeat (insert + remove returns to a prior
        // fingerprint), so a recovered state may match several prefix
        // indices. Monotonicity holds iff a non-decreasing assignment of
        // indices exists; the greedy choice — smallest matching index not
        // below the previous pick — finds one exactly when it does.
        let mut last_idx = 0usize;
        for frac in cuts {
            let cut = (wal_bytes.len() as f64 * frac) as usize;
            // Restore the full WAL, then truncate to this cut.
            std::fs::write(dir.join("wal.ovl"), &wal_bytes[..cut]).unwrap();
            let mut recovered = Database::open(sym("P"), &dir, Durability::Wal).unwrap();
            let got = fingerprint(&recovered);
            let idx = prefixes
                .iter()
                .enumerate()
                .position(|(i, p)| i >= last_idx && *p == got);
            prop_assert!(
                idx.is_some(),
                "cut {cut}: no committed prefix at or beyond {last_idx} matches — \
                 a longer WAL survival recovered a shorter history"
            );
            last_idx = idx.unwrap();
            // Writes before the first probe, which builds from them.
            write_after_recovery(&mut recovered, &dir)?;
            indexes_agree_with_a_scan(&recovered)?;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
