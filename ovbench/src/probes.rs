//! Layer probes: public calls into one layer at a time, timed from
//! outside on the workload's own session, model and files. They run after
//! the measured window, so what they disturb (the plan cache, the WAL,
//! the view catalog) no longer matters.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use ov_oodb::codec::{Reader, Writer};
use ov_oodb::{
    sym, AttrDef, ClassId, Database, Durability, Expr, Oid, Symbol, Tuple, Type, Value, Wal,
    WalRecord,
};
use ov_query::{parse_program, EngineMode, Stmt};
use ov_views::Session;

use crate::model::{Model, Rng, Row};
use crate::setup;
use crate::stats::median_f64;
use crate::steps::{with_source, Step};
use crate::workloads::ProbeEnv;

/// Probe results by metric name: value and sample count.
pub type Probed = BTreeMap<&'static str, (f64, usize)>;

/// Wall-clock budget of one probe; every probe runs at least once.
const BUDGET: Duration = Duration::from_millis(150);
const MAX_SAMPLES: usize = 31;

/// Calls `f` until the budget or the sample cap is reached; `f` returns
/// how many units of work it did, or `None` to skip the sample. Returns
/// the median nanoseconds per unit and the number of samples.
fn per_unit(mut f: impl FnMut() -> Option<u64>) -> (f64, usize) {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MAX_SAMPLES && (samples.is_empty() || started.elapsed() < BUDGET) {
        let t0 = Instant::now();
        let units = f();
        let ns = t0.elapsed().as_nanos() as f64;
        match units {
            Some(u) if u > 0 => samples.push(ns / u as f64),
            _ => break,
        }
    }
    (median_f64(&samples), samples.len())
}

fn queries(steps: &[Step]) -> Vec<(Symbol, Expr)> {
    steps
        .iter()
        .filter_map(|s| match parse_program(&s.text).ok()?.pop()? {
            Stmt::Query(e) => Some((s.focus, e)),
            _ => None,
        })
        .collect()
}

fn staff(session: &Session) -> Result<ov_oodb::DbHandle, String> {
    session
        .system()
        .database(sym("Staff"))
        .map_err(|e| e.to_string())
}

fn class_id(db: &Database, name: &str) -> Result<ClassId, String> {
    db.schema
        .class_by_name(sym(name))
        .ok_or(format!("class {name} missing"))
}

fn row_tuple(r: &Row) -> Tuple {
    let mut fields = vec![
        ("Id", Value::Int(r.id)),
        ("Name", Value::str(&r.name())),
        ("Age", Value::Int(r.age)),
        ("City", Value::str(r.city())),
        ("Street", Value::str(&r.street())),
        ("Income", Value::Int(r.income)),
    ];
    if r.is_employee() {
        fields.push(("Salary", Value::Int(r.salary)));
    }
    Tuple::from_fields(fields)
}

/// Runs every probe. `steps` is one operation's statements; `rows` the
/// candidate rows its reads visit; `scratch` a directory of the probes'
/// own.
pub fn run(
    env: ProbeEnv<'_>,
    steps: &[Step],
    rows: u64,
    scratch: &Path,
    rng: &mut Rng,
) -> Result<Probed, String> {
    let ProbeEnv {
        session,
        model,
        data_dir,
    } = env;
    let mut out = Probed::new();
    let reads = queries(steps);
    let oids: Vec<Oid> = model.live().map(|r| r.oid).take(1000).collect();
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;

    pipeline(session, &reads, rows, &mut out);
    read_paths(session, model, &oids, &mut out)?;
    scratch_store(model, &mut out)?;
    wal_and_codec(model, scratch, &mut out)?;
    storage(session, data_dir, scratch, &mut out)?;
    write_path(session, model, rng, &mut out)?;
    cold_views(session, model, &mut out)?;
    let _ = std::fs::remove_dir_all(scratch);
    Ok(out)
}

/// The stages of the read pipeline the traced window cannot isolate:
/// type inference (off the run path), a plan-cache miss, and the
/// interpreter on the same inputs.
fn pipeline(session: &Session, reads: &[(Symbol, Expr)], rows: u64, out: &mut Probed) {
    let n = reads.len().max(1) as u64;
    out.insert(
        "typecheck.infer_ns",
        per_unit(|| {
            for (focus, e) in reads {
                with_source(session, *focus, |src| {
                    std::hint::black_box(ov_query::infer_expr(src, e).is_ok())
                });
            }
            Some(n)
        }),
    );
    let selects: Vec<(Symbol, Expr)> = reads
        .iter()
        .map(|(f, e)| (*f, ov_query::optimize_expr(e)))
        .filter(|(_, e)| matches!(e, Expr::Select(_)))
        .collect();
    let mut miss = Vec::new();
    let started = Instant::now();
    while !selects.is_empty() && miss.len() < MAX_SAMPLES && started.elapsed() < BUDGET {
        ov_query::clear_plan_cache();
        let mut ns = 0u64;
        for (focus, e) in &selects {
            let Expr::Select(q) = e else { continue };
            with_source(session, *focus, |src| {
                let t0 = Instant::now();
                std::hint::black_box(ov_query::planner::plan_select(src, e, q));
                ns += t0.elapsed().as_nanos() as u64;
            });
        }
        miss.push(ns as f64 / selects.len() as f64);
    }
    out.insert("planner.plan_miss_ns", (median_f64(&miss), miss.len()));
    out.insert(
        "eval.interp_ns_per_row",
        per_unit(|| {
            ov_query::with_engine_mode(EngineMode::Interp, || {
                for (focus, e) in reads {
                    with_source(session, *focus, |src| {
                        std::hint::black_box(ov_query::run_expr(src, e).is_ok())
                    });
                }
            });
            Some(rows.max(1))
        }),
    );
}

/// Attribute access through the view and in the store, extents, the
/// index, and schema resolution.
fn read_paths(
    session: &Session,
    model: &Model,
    oids: &[Oid],
    out: &mut Probed,
) -> Result<(), String> {
    let top = session.view(sym("Top")).ok_or("view Top missing")?;
    let per_oid = |attr: &'static str| {
        let attr = sym(attr);
        per_unit(|| {
            for &o in oids {
                std::hint::black_box(top.attr(o, attr).is_ok());
            }
            Some(oids.len() as u64)
        })
    };
    out.insert("view.attr_stored_ns", per_oid("Age"));
    out.insert("view.attr_computed_ns", per_oid("Address"));
    out.insert(
        "view.extent_hit_ns_per_oid",
        per_unit(|| top.extent_of(sym("Elite")).ok().map(|e| e.len() as u64)),
    );

    let db = staff(session)?;
    let db = db.read();
    let person = class_id(&db, "Person")?;
    let manager = class_id(&db, "Manager")?;
    let (name, age, id) = (sym("Name"), sym("Age"), sym("Id"));
    out.insert(
        "resolve.resolve_attr_ns",
        per_unit(|| {
            for _ in 0..1000 {
                // `Name` is declared three levels up from `Manager`.
                std::hint::black_box(ov_oodb::resolve_attr(&db.schema, manager, name));
            }
            Some(1000)
        }),
    );
    out.insert(
        "store.stored_attr_ns",
        per_unit(|| {
            for &o in oids {
                std::hint::black_box(db.stored_attr(o, age).is_ok());
            }
            Some(oids.len() as u64)
        }),
    );
    out.insert(
        "store.deep_extent_ns_per_oid",
        per_unit(|| Some(std::hint::black_box(db.deep_extent(person)).len() as u64)),
    );
    let keys: Vec<Value> = model.live().take(1000).map(|r| Value::Int(r.id)).collect();
    out.insert(
        "index.lookup_ns",
        per_unit(|| {
            for k in &keys {
                std::hint::black_box(db.indexed_deep_lookup(person, id, k));
            }
            Some(keys.len() as u64)
        }),
    );
    Ok(())
}

/// Store mutations on an in-memory database: no WAL, no views.
fn scratch_store(model: &Model, out: &mut Probed) -> Result<(), String> {
    const BATCH: usize = 2000;
    let tuples: Vec<Value> = model
        .rows
        .iter()
        .filter(|r| !matches!(r.kind, crate::model::Kind::Manager))
        .take(BATCH)
        .map(|r| {
            let mut t = row_tuple(r);
            t.remove(sym("Salary"));
            Value::Tuple(t)
        })
        .collect();
    let mut samples: [Vec<f64>; 4] = Default::default();
    for _ in 0..5 {
        let mut db = Database::new(sym("Scratch"));
        let person = db
            .create_class(
                sym("Person"),
                &[],
                ["Id", "Age", "Income"]
                    .map(|a| AttrDef::stored(sym(a), Type::Int))
                    .into_iter()
                    .chain(["Name", "City", "Street"].map(|a| AttrDef::stored(sym(a), Type::Str)))
                    .collect(),
            )
            .map_err(|e| e.to_string())?;
        let unit = tuples.len() as f64;
        let t0 = Instant::now();
        let oids: Vec<Oid> = tuples
            .iter()
            .filter_map(|t| db.create_object(person, t.clone()).ok())
            .collect();
        samples[0].push(t0.elapsed().as_nanos() as f64 / unit);
        let floor = db.version();
        let t0 = Instant::now();
        for (i, &o) in oids.iter().enumerate() {
            std::hint::black_box(
                db.set_attr(o, sym("Age"), Value::Int(i as i64 % 100))
                    .is_ok(),
            );
        }
        samples[1].push(t0.elapsed().as_nanos() as f64 / unit);
        let t0 = Instant::now();
        for _ in 0..100 {
            std::hint::black_box(db.store.changes_since(floor));
        }
        samples[3].push(t0.elapsed().as_nanos() as f64 / 100.0);
        let t0 = Instant::now();
        for &o in &oids {
            std::hint::black_box(db.delete_object(o).is_ok());
        }
        samples[2].push(t0.elapsed().as_nanos() as f64 / unit);
    }
    for (name, s) in [
        "store.insert_ns",
        "store.set_attr_ns",
        "store.delete_ns",
        "store.changes_since_ns",
    ]
    .into_iter()
    .zip(&samples)
    {
        out.insert(name, (median_f64(s), s.len()));
    }
    Ok(())
}

/// WAL appends on a scratch log, and the record codec alone.
fn wal_and_codec(model: &Model, scratch: &Path, out: &mut Probed) -> Result<(), String> {
    let records: Vec<WalRecord> = model
        .rows
        .iter()
        .take(2000)
        .map(|r| WalRecord::Insert {
            oid: r.oid,
            class: ClassId(0),
            value: row_tuple(r),
        })
        .collect();
    let unit = records.len() as f64;
    let mut append = Vec::new();
    let mut bytes_per_record = 0.0;
    for i in 0..5 {
        let path = scratch.join(format!("probe-{i}.ovl"));
        let (mut wal, _) = Wal::open(&path).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        for rec in &records {
            wal.append(rec).map_err(|e| e.to_string())?;
        }
        append.push(t0.elapsed().as_nanos() as f64 / unit);
        bytes_per_record = wal.bytes() as f64 / unit;
    }
    out.insert("wal.append_ns", (median_f64(&append), append.len()));
    out.insert("wal.bytes_per_record", (bytes_per_record, records.len()));

    let mut encoded: Vec<Vec<u8>> = Vec::new();
    out.insert(
        "codec.encode_ns",
        per_unit(|| {
            encoded = records
                .iter()
                .map(|rec| {
                    let mut w = Writer::new();
                    rec.encode(&mut w);
                    w.into_bytes()
                })
                .collect();
            Some(records.len() as u64)
        }),
    );
    out.insert(
        "codec.decode_ns",
        per_unit(|| {
            for bytes in &encoded {
                std::hint::black_box(WalRecord::decode(&mut Reader::new(bytes, "probe")).is_ok());
            }
            Some(encoded.len() as u64)
        }),
    );
    Ok(())
}

/// Recovery and checkpoint pieces on the workload's own files: replay of
/// a copy of its WAL, `Database::open` of a copy of its directory, then a
/// checkpoint of the live session and a read of the snapshot it wrote.
fn storage(
    session: &Session,
    data_dir: &Path,
    scratch: &Path,
    out: &mut Probed,
) -> Result<(), String> {
    const DB: &str = "databases/Staff";
    let mut replay = Vec::new();
    let mut open_ms = Vec::new();
    let mut replayed = 0.0;
    for i in 0..3 {
        let copy = scratch.join(format!("copy-{i}"));
        setup::copy_tree(&data_dir.join(DB), &copy).map_err(|e| e.to_string())?;
        let twin = scratch.join(format!("twin-{i}.ovl"));
        std::fs::copy(copy.join("wal.ovl"), &twin).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let (_, records) = Wal::open(&twin).map_err(|e| e.to_string())?;
        let ns = t0.elapsed().as_nanos() as f64;
        if !records.is_empty() {
            replay.push(ns / records.len() as f64);
        }
        let counter = ov_oodb::registry().counter("recovery.replayed_records");
        let before = counter.get();
        let t0 = Instant::now();
        let db = Database::open(sym("Staff"), &copy, Durability::Wal).map_err(|e| e.to_string())?;
        open_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        replayed = (counter.get() - before) as f64;
        drop(db);
    }
    out.insert(
        "wal.replay_ns_per_record",
        (median_f64(&replay), replay.len()),
    );
    out.insert("database.open_ms", (median_f64(&open_ms), open_ms.len()));
    out.insert("database.replayed_records", (replayed, 1));

    let db = staff(session)?;
    let root = session.durable_root().ok_or("session is not durable")?;
    let mut session_ms = Vec::new();
    let mut pager_ms = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        session.checkpoint().map_err(|e| e.to_string())?;
        session_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        db.read().checkpoint().map_err(|e| e.to_string())?;
        pager_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out.insert("session.checkpoint_ms", (median_f64(&session_ms), 3));
    out.insert("pager.checkpoint_ms", (median_f64(&pager_ms), 3));
    let snapshot = root.join(DB).join(ov_oodb::pager::SNAPSHOT_FILE);
    let bytes = std::fs::metadata(&snapshot)
        .map_err(|e| e.to_string())?
        .len();
    out.insert("pager.snapshot_bytes", (bytes as f64, 1));
    let mut read_ms = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let img = ov_oodb::pager::read_snapshot(&root.join(DB)).map_err(|e| e.to_string())?;
        read_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if img.is_none() {
            return Err("checkpoint left no snapshot".into());
        }
    }
    out.insert("pager.read_snapshot_ms", (median_f64(&read_ms), 3));
    Ok(())
}

/// A base write made directly on the database, then pushed through the
/// stack: `Session::propagate` as a whole on even rounds, each level's
/// `View::refresh` on odd ones.
fn write_path(
    session: &Session,
    model: &mut Model,
    rng: &mut Rng,
    out: &mut Probed,
) -> Result<(), String> {
    let db = staff(session)?;
    let mut propagate = Vec::new();
    let mut levels: [Vec<f64>; 3] = Default::default();
    let started = Instant::now();
    let mut round = 0;
    while round < 2 || (round < 2 * MAX_SAMPLES && started.elapsed() < 2 * BUDGET) {
        let idx = model.pick_live(rng);
        let age = rng.range(0, 100);
        db.write()
            .set_attr(model.rows[idx].oid, sym("Age"), Value::Int(age))
            .map_err(|e| e.to_string())?;
        model.rows[idx].age = age;
        if round % 2 == 0 {
            let t0 = Instant::now();
            session.propagate(sym("Staff"));
            propagate.push(t0.elapsed().as_nanos() as f64 / 1e3);
        } else {
            for (view, samples) in setup::STACK.iter().zip(&mut levels) {
                let v = session.view(sym(view)).ok_or("stack view missing")?;
                let t0 = Instant::now();
                v.refresh().map_err(|e| e.to_string())?;
                samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
            }
            session.propagate(sym("Staff"));
        }
        round += 1;
    }
    out.insert(
        "session.propagate_us",
        (median_f64(&propagate), propagate.len()),
    );
    for (name, s) in [
        "view.refresh_delta_us.adults",
        "view.refresh_delta_us.earners",
        "view.refresh_delta_us.top",
    ]
    .into_iter()
    .zip(&levels)
    {
        out.insert(name, (median_f64(s), s.len()));
    }
    Ok(())
}

/// Binding a new view and populating it cold, for a virtual and an
/// imaginary class. Last, because the extra views slow every later write.
fn cold_views(session: &mut Session, model: &Model, out: &mut Probed) -> Result<(), String> {
    let live = model.live_count() as f64;
    let households = model.households().len().max(1) as f64;
    let (mut bind, mut virt, mut imag) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let t0 = Instant::now();
        setup::run(
            session,
            "create view ProbeV; import all classes from database Staff;
             class ProbeAdult includes (select P from P in Person where P.Age >= 21);",
        )?;
        bind.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        setup::run(session, "count(ProbeAdult);")?;
        virt.push(t0.elapsed().as_nanos() as f64 / live);
        session
            .catalog()
            .drop_view("ProbeV")
            .map_err(|e| e.to_string())?;

        setup::run(
            session,
            "create view ProbeH; import all classes from database Staff;
             class ProbeHome includes imaginary (select [City: P.City, Street: P.Street] from P in Person where P.Age >= 90);",
        )?;
        let t0 = Instant::now();
        setup::run(session, "count(ProbeHome);")?;
        imag.push(t0.elapsed().as_nanos() as f64 / households);
        session
            .catalog()
            .drop_view("ProbeH")
            .map_err(|e| e.to_string())?;
    }
    out.insert("view.bind_ms", (median_f64(&bind), 3));
    out.insert("view.populate_cold_ns_per_row", (median_f64(&virt), 3));
    out.insert("view.imaginary_cold_ns_per_tuple", (median_f64(&imag), 3));
    Ok(())
}
