//! Seeded chaos suite: every failpoint site armed probabilistically while
//! a write/read workload hammers one view, then the robustness invariants
//! are checked:
//!
//! 1. **no escaped panics** — the armed sites inject typed errors, and
//!    every read and write runs on the test's thread, so a panic that
//!    reaches the `catch_unwind` around one is a bug;
//! 2. **typed errors only** — every failed write renders, and every failed
//!    read is one the failure model names: a `Degraded` whose `source()`
//!    chain ends in the injected fault, a raw fault, or a budget breach;
//! 3. **monotonic journal floor** — the store version never moves
//!    backwards, even across failed mutations;
//! 4. **identity stability** — imaginary oids are a function of their core
//!    tuple: two clean reads of an imaginary extent agree exactly, and the
//!    identity table never shrinks;
//! 5. **full recovery** — once faults clear there are no poisoned locks,
//!    and the next recompute agrees exactly with a direct base scan (a
//!    stale or generation-mixed population cannot linger).
//!
//! Seeds: two fixed defaults plus whatever `CHAOS_SEED` is set to, so CI
//! can roll a random one. On failure, if `OV_CHAOS_TRACE` names a file,
//! the flight-recorder span trace is dumped there for the artifact upload.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

use objects_and_views::oodb::faults::{self, FaultAction, FaultSchedule, InjectedFault};
use objects_and_views::oodb::OodbError;
use objects_and_views::prelude::*;
use objects_and_views::query::{budget, Budget, QueryError};

/// The fault registry is process-global: chaos tests must not interleave
/// with each other (cargo runs tests on threads). Poisoning is ignored —
/// a failed test must not wedge the rest of the suite.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    faults::clear();
    guard
}

/// Dumps the span trace to `$OV_CHAOS_TRACE` when the test fails, and
/// always disarms the registry so a failure can't poison later tests.
struct ChaosGuard;

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        faults::clear();
        objects_and_views::oodb::trace::set_enabled(false);
        if std::thread::panicking() {
            if let Ok(path) = std::env::var("OV_CHAOS_TRACE") {
                let dump = objects_and_views::oodb::recorder().dump_chrome_trace();
                match std::fs::write(&path, dump) {
                    Ok(()) => eprintln!("chaos: span trace written to {path}"),
                    Err(e) => eprintln!("chaos: could not write trace to {path}: {e}"),
                }
            }
        }
    }
}

const N_PEOPLE: i64 = 300;
const ROUNDS: usize = 200;

fn staff_system() -> System {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Staff;
        class Person type [Name: string, Age: integer, City: string];
        "#,
    )
    .unwrap();
    let handle = sys.database(sym("Staff")).unwrap();
    let mut db = handle.write();
    let person = db.schema.require_class(sym("Person")).unwrap();
    for i in 0..N_PEOPLE {
        db.create_object(
            person,
            Value::tuple([
                (sym("Name"), Value::str(&format!("p{i}"))),
                (sym("Age"), Value::Int(i % 90)),
                (
                    sym("City"),
                    Value::str(if i % 3 == 0 { "London" } else { "Paris" }),
                ),
            ]),
        )
        .unwrap();
    }
    drop(db);
    sys
}

fn chaos_view(sys: &System) -> View {
    // `Adult` exercises scan populations, `CityTag` imaginary identity.
    ViewDef::from_script(
        r#"
        create view Chaos;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        class CityTag includes imaginary (select [City: P.City] from P in Person);
        "#,
    )
    .unwrap()
    .binder(sys)
    .options(
        ViewOptions::builder()
            .materialization(Materialization::Incremental)
            .build(),
    )
    .bind()
    .unwrap()
}

type DynError = dyn std::error::Error + 'static;

/// The last error of `e`'s `source()` chain.
fn chain_tail(e: &DynError) -> &DynError {
    let mut cur = e;
    while let Some(next) = cur.source() {
        cur = next;
    }
    cur
}

/// Invariant 2 for reads: the only ways a read may fail under chaos — a
/// fault with no stale population to serve, typed as `Degraded` down to
/// the injected fault; a fault raised outside a population; a budget
/// breach.
fn is_typed_read_failure(e: &ViewError) -> bool {
    match e {
        ViewError::Degraded { .. } => chain_tail(e).is::<InjectedFault>(),
        ViewError::Oodb(OodbError::Fault(_)) => true,
        ViewError::Query(QueryError::ResourceExhausted(_) | QueryError::Cancelled(_)) => true,
        _ => false,
    }
}

/// One full seeded run. Panics (via `assert!`) on any invariant breach so
/// the failing seed appears in the test output.
fn run_chaos(seed: u64) {
    let _serial = chaos_lock();
    let _guard = ChaosGuard;
    let sys = staff_system();
    let view = chaos_view(&sys);
    let db = sys.database(sym("Staff")).unwrap();
    let person = {
        let d = db.read();
        d.schema.require_class(sym("Person")).unwrap()
    };
    let victims: Vec<Oid> = {
        let d = db.read();
        d.deep_extent(person).into_iter().take(16).collect()
    };
    // Warm both populations so degradation has a last-good generation.
    view.extent_of(sym("Adult")).unwrap();
    view.extent_of(sym("CityTag")).unwrap();

    faults::set_seed(seed);
    for site in [
        "store.insert",
        "store.update",
        "store.set_field",
        "store.remove",
        "store.index_lookup",
        "store.changes_since",
        "view.population_recompute",
    ] {
        faults::arm(site, FaultSchedule::Probability(0.08), FaultAction::Error);
    }

    let tight = Arc::new(Budget::new().with_max_steps(50));
    let mut journal_floor = 0u64;
    let mut identity_floor = 0usize;
    let mut created: Vec<Oid> = Vec::new();
    let mut escaped = None;
    for i in 0..ROUNDS {
        // Invariant 3: the journal floor is monotonic across every
        // mutation, including the ones a failpoint aborts.
        let v = db.read().store.version();
        assert!(
            v >= journal_floor,
            "seed {seed} round {i}: journal version moved backwards ({journal_floor} -> {v})"
        );
        journal_floor = v;

        let write = catch_unwind(AssertUnwindSafe(|| match i % 5 {
            3 => db
                .write()
                .create_object(
                    person,
                    Value::tuple([
                        (sym("Name"), Value::str(&format!("c{i}"))),
                        (sym("Age"), Value::Int((i % 90) as i64)),
                        (sym("City"), Value::str("Roma")),
                    ]),
                )
                .map(|o| created.push(o)),
            4 if !created.is_empty() => {
                let o = created.swap_remove(i % created.len());
                db.write().delete_object(o).map(|_| ())
            }
            _ => {
                let o = victims[i % victims.len()];
                db.write()
                    .set_attr(o, sym("Age"), Value::Int((i % 90) as i64))
            }
        }));
        match write {
            // Invariant 2: a failed write is a typed error that renders.
            Ok(Err(e)) => assert!(!e.to_string().is_empty()),
            Ok(Ok(())) => {}
            Err(_) => {
                escaped = Some(format!(
                    "seed {seed} round {i}: panic escaped a store write"
                ));
                break;
            }
        }

        // Reads rotate across plain scans, imaginary populations, and a
        // deliberately tight budget (breaches must stay typed too).
        let read = catch_unwind(AssertUnwindSafe(|| match i % 4 {
            1 => view.extent_of(sym("CityTag")).map(|e| e.len()),
            2 => budget::with(tight.clone(), || {
                view.query("count((select A from A in Adult where A.Age >= 65))")
                    .map(|_| 0usize)
            }),
            _ => view.extent_of(sym("Adult")).map(|e| e.len()),
        }));
        match read {
            Ok(Ok(_)) => {
                // Invariant 4 (first half): the identity table for the
                // imaginary class never shrinks.
                let len = view.identity_table_len(sym("CityTag"));
                assert!(
                    len >= identity_floor,
                    "seed {seed} round {i}: identity table shrank ({identity_floor} -> {len})"
                );
                identity_floor = len;
            }
            Ok(Err(e)) => assert!(
                is_typed_read_failure(&e),
                "seed {seed} round {i}: untyped read failure: {e:?}"
            ),
            Err(_) => {
                escaped = Some(format!("seed {seed} round {i}: panic escaped a view read"));
                break;
            }
        }
    }
    faults::clear();
    if let Some(msg) = escaped {
        panic!("{msg}");
    }

    // Invariant 5: full recovery. One more write must land, and the next
    // recompute must agree exactly with a direct base scan.
    db.write()
        .set_attr(victims[0], sym("Age"), Value::Int(30))
        .expect("post-chaos write failed: a fault leaked past clear()");
    let adults: BTreeSet<Oid> = view
        .extent_of(sym("Adult"))
        .expect("post-chaos read failed: poisoned state")
        .into_iter()
        .collect();
    let expected: BTreeSet<Oid> = {
        let d = db.read();
        d.deep_extent(person)
            .into_iter()
            .filter(|&o| matches!(d.stored_attr(o, sym("Age")), Ok(Value::Int(a)) if *a >= 21))
            .collect()
    };
    assert_eq!(
        adults, expected,
        "seed {seed}: post-chaos population diverged from a direct base scan"
    );

    // Invariant 4 (second half): imaginary identity is stable — two clean
    // reads agree oid-for-oid.
    let a: BTreeSet<Oid> = view
        .extent_of(sym("CityTag"))
        .unwrap()
        .into_iter()
        .collect();
    let b: BTreeSet<Oid> = view
        .extent_of(sym("CityTag"))
        .unwrap()
        .into_iter()
        .collect();
    assert_eq!(
        a, b,
        "seed {seed}: imaginary identity unstable across clean reads"
    );
}

/// A fault injected mid-revalidation must never leave the catalog half
/// updated: a redefinition stages every dependent rebind before committing
/// any of them, so the session either moves wholesale or not at all.
#[test]
fn chaos_fault_mid_revalidation_keeps_catalog_atomic() {
    let _serial = chaos_lock();
    let _guard = ChaosGuard;
    let mut s = Session::new();
    s.execute(
        r#"
        database Staff;
        class Person type [Name: string, Age: integer];
        object #1 in Person value [Name: "Maggy", Age: 66];
        create view Adults;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        create view Top;
        import all classes from view Adults;
        class Elder includes (select A from Adult where A.Age >= 60);
        "#,
    )
    .unwrap();
    let before = s.save();
    // Redefining Adults binds Adults first, then its dependent Top; fail
    // the second bind — the dependent, mid-revalidation.
    faults::arm("view.bind", FaultSchedule::Nth(2), FaultAction::Error);
    let candidate = ViewDef::from_script(
        "create view Adults; import all classes from database Staff; \
         class Adult includes (select P from Person where P.Age >= 18);",
    )
    .unwrap();
    let err = s.catalog().redefine_view(candidate).unwrap_err();
    assert!(
        matches!(err, ViewError::RevalidationFailed { .. }),
        "got: {err}"
    );
    let tail = chain_tail(&err).downcast_ref::<InjectedFault>();
    assert!(
        matches!(tail, Some(f) if f.site == "view.bind"),
        "chain should end in the view.bind fault: {err:?}"
    );
    faults::clear();
    // Nothing half-moved: definitions, dependency graph, and answers all
    // match the pre-fault session.
    assert_eq!(s.save(), before, "catalog changed despite the rollback");
    assert_eq!(s.query(sym("Top"), "count(Elder)").unwrap(), Value::Int(1));
    assert_eq!(
        s.dependency_graph()
            .transitive_dependents(DepTarget::View(sym("Adults"))),
        vec![sym("Top")]
    );
}

/// A fault injected after a base change was validated and applied — while
/// its dependents are bound again against the real base — unbinds the view
/// it hits and the views stacked on it, so none serves the old schema; the
/// other dependents follow the change.
#[test]
fn chaos_fault_after_a_base_change_applied_unbinds_its_view() {
    let _serial = chaos_lock();
    let _guard = ChaosGuard;
    let mut s = Session::new();
    s.execute(
        r#"
        database Staff;
        class Person type [Name: string, Age: integer];
        object #1 in Person value [Name: "Maggy", Age: 66];
        create view Solo;
        import all classes from database Staff;
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        create view W;
        import all classes from view V;
        class Elder includes (select A from Adult where A.Age >= 60);
        "#,
    )
    .unwrap();
    // The candidate binds Solo, V, W (hits 1–3); the second stage binds
    // Solo, then V: fail that one.
    faults::arm("view.bind", FaultSchedule::Nth(5), FaultAction::Error);
    let err = s
        .catalog()
        .define_class("Staff", "class Pet type [Name: string];")
        .unwrap_err();
    faults::clear();
    assert!(
        matches!(&err, ViewError::Unbound { view, .. } if *view == sym("V")),
        "{err}"
    );
    let unbound: Vec<Symbol> = s.unbound_views().iter().map(|u| u.def.name).collect();
    assert_eq!(unbound, vec![sym("V"), sym("W")]);
    assert_eq!(s.view_names(), vec![sym("Solo")]);
    assert_eq!(s.query(sym("Solo"), "count(Pet)").unwrap(), Value::Int(0));
    assert_eq!(s.query(sym("Staff"), "count(Pet)").unwrap(), Value::Int(0));
    assert!(s.query(sym("V"), "count(Adult)").is_err());
}

/// A fault injected while `Session::open` binds the saved views never
/// fails the open: each view it hits — and each view stacked on one — is
/// reported unbound with its cause, its definition is kept, and the next
/// clean open binds them all again.
#[test]
fn chaos_fault_while_binding_on_open_yields_a_report() {
    let _serial = chaos_lock();
    let _guard = ChaosGuard;
    let dir = std::env::temp_dir().join(format!("ov-chaos-open-bind-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut s = Session::open(&dir, Durability::Wal).unwrap();
        s.execute(
            r#"
            database Staff;
            class Person type [Name: string, Age: integer];
            object #1 in Person value [Name: "Maggy", Age: 66];
            create view Adults;
            import all classes from database Staff;
            class Adult includes (select P from Person where P.Age >= 21);
            create view Top;
            import all classes from view Adults;
            class Elder includes (select A from Adult where A.Age >= 60);
            create view Solo;
            import all classes from database Staff;
            "#,
        )
        .unwrap();
    }
    let views = std::fs::read(dir.join("views.ovq")).unwrap();
    // Every bind fails: every view is reported, none fails the open.
    faults::arm("view.bind", FaultSchedule::From(1), FaultAction::Error);
    let s = Session::open(&dir, Durability::Wal).expect("a view never fails the open");
    faults::clear();
    let report: Vec<(Symbol, bool)> = s
        .unbound_views()
        .iter()
        .map(|u| {
            let ends_in_fault = chain_tail(&u.cause)
                .downcast_ref::<InjectedFault>()
                .is_some_and(|f| f.site == "view.bind");
            (u.def.name, ends_in_fault)
        })
        .collect();
    assert_eq!(
        report,
        vec![
            (sym("Adults"), true),
            (sym("Solo"), true),
            (sym("Top"), true)
        ]
    );
    assert!(matches!(
        &s.unbound_views()[2].cause,
        ViewError::Unbound { view, .. } if *view == sym("Adults")
    ));
    assert!(s.view_names().is_empty());
    s.checkpoint().unwrap();
    assert_eq!(std::fs::read(dir.join("views.ovq")).unwrap(), views);
    drop(s);
    // The first bind fails: `Adults`, and `Top`, stacked on it, stay
    // unbound; `Solo` binds.
    faults::arm("view.bind", FaultSchedule::Nth(1), FaultAction::Error);
    let s = Session::open(&dir, Durability::Wal).unwrap();
    faults::clear();
    let unbound: Vec<Symbol> = s.unbound_views().iter().map(|u| u.def.name).collect();
    assert_eq!(unbound, vec![sym("Adults"), sym("Top")]);
    assert_eq!(s.view_names(), vec![sym("Solo")]);
    drop(s);
    let s = Session::open(&dir, Durability::Wal).unwrap();
    assert!(s.unbound_views().is_empty());
    assert_eq!(s.query(sym("Top"), "count(Elder)").unwrap(), Value::Int(1));
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Crash-recovery chaos: a durable session's workload interleaved with
// injected WAL failures and simulated kills (drop without checkpoint, torn
// tails, failed checkpoints). After every "crash" the session reopens and
// must recover the exact committed prefix:
//
// 6. **exact-prefix recovery** — recovered state equals the pre-crash
//    in-memory state (WAL-before-apply: a failed append never applied, an
//    applied mutation was always logged first);
// 7. **identity durability** — the imaginary identity table survives the
//    crash bit-for-bit, so imaginary oids stay valid names;
// 8. **floor re-seating** — the journal floor recovers to the pre-crash
//    version (never 0), so stale readers get FullRecompute, not an empty
//    delta.
// ---------------------------------------------------------------------------

/// xorshift64* — a deterministic op stream per seed, no external crates.
struct CrashRng(u64);

impl CrashRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn crash_scratch(seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ov-crash-chaos-{}-{seed:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The system's identity table for view `V` as a comparable map: `(class
/// name, core tuple) → oid` is exactly what must survive a crash, so the
/// map before one must equal the map after the reopen.
fn crash_identity(s: &Session) -> BTreeMap<(String, String), Oid> {
    s.system()
        .identity()
        .entries()
        .into_iter()
        .filter(|e| e.view == sym("V"))
        .map(|e| ((e.class.to_string(), format!("{:?}", e.core)), e.oid))
        .collect()
}

/// Simulates a kill: captures the in-memory (= committed) state, drops the
/// session, reopens from disk, and asserts exact-prefix recovery.
fn crash_and_reopen(s: Session, dir: &std::path::Path, seed: u64, label: &str) -> Session {
    let expected = s.save();
    let identity = crash_identity(&s);
    let version = {
        let db = s.system().database(sym("Staff")).unwrap();
        let v = db.read().store.version();
        v
    };
    drop(s);
    let s = Session::open(dir, Durability::Wal)
        .unwrap_or_else(|e| panic!("seed {seed} [{label}]: reopen failed: {e}"));
    // Invariant 6: exact committed prefix.
    assert_eq!(
        s.save(),
        expected,
        "seed {seed} [{label}]: recovered state diverged from the committed prefix"
    );
    // Invariant 7: identity table bit-for-bit.
    assert_eq!(
        crash_identity(&s),
        identity,
        "seed {seed} [{label}]: imaginary identity changed across the crash"
    );
    // Invariant 8: version preserved, floor re-seated above stale readers.
    let db = s.system().database(sym("Staff")).unwrap();
    {
        let d = db.read();
        assert_eq!(
            d.store.version(),
            version,
            "seed {seed} [{label}]: store version moved across recovery"
        );
        if version > 0 {
            assert_eq!(
                d.store.changes_since(0),
                None,
                "seed {seed} [{label}]: journal floor reset to 0 — stale readers \
                 would see an empty delta instead of FullRecompute"
            );
        }
    }
    drop(db);
    s
}

const CRASH_CYCLES: usize = 4;
const CRASH_ROUNDS: usize = 25;

/// One full seeded crash-recovery run.
fn run_crash_chaos(seed: u64) {
    let _serial = chaos_lock();
    let _guard = ChaosGuard;
    let dir = crash_scratch(seed);
    let mut s = Session::open(&dir, Durability::Wal).unwrap();
    s.execute(
        r#"
        database Staff;
        class Person type [Name: string, Age: integer, City: string];
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        class CityTag includes imaginary (select [City: P.City] from P in Person);
        "#,
    )
    .unwrap();
    let cities = ["London", "Paris", "Roma", "Oslo", "Quito"];
    let mut rng = CrashRng(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut next_name = 0usize;
    // Seed a base population (durably — these ride the WAL too).
    {
        let db = s.system().database(sym("Staff")).unwrap();
        let mut d = db.write();
        let person = d.schema.require_class(sym("Person")).unwrap();
        for i in 0..24 {
            next_name += 1;
            d.create_object(
                person,
                Value::tuple([
                    (sym("Name"), Value::str(&format!("p{next_name}"))),
                    (sym("Age"), Value::Int(i % 90)),
                    (sym("City"), Value::str(cities[(i % 3) as usize])),
                ]),
            )
            .unwrap();
        }
    }

    for cycle in 0..CRASH_CYCLES {
        // Populate the imaginary extent with faults clear: every identity
        // assignment reaches the WAL, so the system's tables and the log
        // agree when the crash comes.
        s.view(sym("V"))
            .unwrap()
            .extent_of(sym("CityTag"))
            .unwrap_or_else(|e| panic!("seed {seed} cycle {cycle}: clean read failed: {e}"));

        // Mutation storm under WAL append failures. A failed append must
        // leave memory untouched (that is what makes invariant 6 hold).
        faults::set_seed(seed.wrapping_add(cycle as u64));
        faults::arm(
            "wal.append",
            FaultSchedule::Probability(0.10),
            FaultAction::Error,
        );
        {
            let db = s.system().database(sym("Staff")).unwrap();
            let person = {
                let d = db.read();
                d.schema.require_class(sym("Person")).unwrap()
            };
            for _ in 0..CRASH_ROUNDS {
                let r = rng.next();
                let outcome = match r % 4 {
                    0 => {
                        next_name += 1;
                        db.write()
                            .create_object(
                                person,
                                Value::tuple([
                                    (sym("Name"), Value::str(&format!("p{next_name}"))),
                                    (sym("Age"), Value::Int((r % 90) as i64)),
                                    (
                                        sym("City"),
                                        Value::str(cities[(r % cities.len() as u64) as usize]),
                                    ),
                                ]),
                            )
                            .map(|_| ())
                    }
                    1 => {
                        let oids = db.read().store.sorted_oids();
                        // Keep a core population so extents stay non-trivial.
                        if oids.len() > 8 {
                            let victim = oids[(r % oids.len() as u64) as usize];
                            db.write().delete_object(victim).map(|_| ())
                        } else {
                            Ok(())
                        }
                    }
                    _ => {
                        let oids = db.read().store.sorted_oids();
                        let victim = oids[(r % oids.len() as u64) as usize];
                        db.write()
                            .set_attr(victim, sym("Age"), Value::Int((r % 90) as i64))
                    }
                };
                // Invariant 2 carries over: failures stay typed errors.
                if let Err(e) = outcome {
                    assert!(!e.to_string().is_empty());
                }
            }
        }
        faults::clear();

        // Every other cycle the "crash" is a torn WAL write: a partial
        // frame at the tail, exactly what a power cut mid-write leaves.
        if cycle % 2 == 0 {
            faults::arm("wal.torn_write", FaultSchedule::Nth(1), FaultAction::Error);
            let db = s.system().database(sym("Staff")).unwrap();
            let person = {
                let d = db.read();
                d.schema.require_class(sym("Person")).unwrap()
            };
            let torn = db.write().create_object(
                person,
                Value::tuple([
                    (sym("Name"), Value::str("torn")),
                    (sym("Age"), Value::Int(1)),
                    (sym("City"), Value::str("Atlantis")),
                ]),
            );
            assert!(
                torn.is_err(),
                "seed {seed} cycle {cycle}: torn write reported success"
            );
            faults::clear();
        }

        s = crash_and_reopen(s, &dir, seed, &format!("cycle {cycle}"));

        // Checkpoints under failpoints: a failed checkpoint must leave the
        // previous snapshot + WAL fully recoverable.
        match cycle {
            1 => {
                faults::arm(
                    "checkpoint.write",
                    FaultSchedule::Nth(1),
                    FaultAction::Error,
                );
                assert!(
                    s.checkpoint().is_err(),
                    "seed {seed}: checkpoint survived an injected write failure"
                );
                faults::clear();
                s = crash_and_reopen(s, &dir, seed, "after failed checkpoint.write");
            }
            2 => {
                faults::arm(
                    "checkpoint.rename",
                    FaultSchedule::Nth(1),
                    FaultAction::Error,
                );
                assert!(
                    s.checkpoint().is_err(),
                    "seed {seed}: checkpoint survived an injected rename failure"
                );
                faults::clear();
                // A clean checkpoint heals, and recovery now starts from
                // the fresh snapshot plus an (empty) WAL tail.
                s.checkpoint()
                    .unwrap_or_else(|e| panic!("seed {seed}: clean checkpoint failed: {e}"));
                s = crash_and_reopen(s, &dir, seed, "after healed checkpoint");
            }
            _ => {}
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Identity logging degrades: when every append fails during the first
/// population of an imaginary class, the assignments stand in the system's
/// tables and only `identity.log_failures` moves. The next checkpoint
/// writes them, so after a crash every imaginary oid is what it was.
#[test]
fn chaos_failed_identity_log_is_healed_by_the_next_checkpoint() {
    let _serial = chaos_lock();
    let _guard = ChaosGuard;
    let dir = crash_scratch(0x1d);
    let (identity, tags) = {
        let mut s = Session::open(&dir, Durability::Wal).unwrap();
        s.execute(
            r#"
            database Staff;
            class Person type [Name: string, City: string];
            object #0 in Person value [Name: "Ada", City: "London"];
            object #1 in Person value [Name: "Bob", City: "Paris"];
            object #2 in Person value [Name: "Cleo", City: "Roma"];
            create view V;
            import all classes from database Staff;
            class CityTag includes imaginary (select [City: P.City] from P in Person);
            "#,
        )
        .unwrap();
        let failures = objects_and_views::oodb::registry().counter("identity.log_failures");
        let before = failures.get();
        faults::arm("wal.append", FaultSchedule::From(1), FaultAction::Error);
        let tags = s.view(sym("V")).unwrap().extent_of(sym("CityTag"));
        faults::clear();
        let tags = tags.expect("identity logging degrades, the population stands");
        assert_eq!(tags.len(), 3);
        assert_eq!(
            failures.get() - before,
            3,
            "one failed append per assignment"
        );
        s.checkpoint().unwrap();
        (crash_identity(&s), tags)
    };
    let s = Session::open(&dir, Durability::Wal).unwrap();
    assert_eq!(crash_identity(&s), identity);
    let mut after = s.view(sym("V")).unwrap().extent_of(sym("CityTag")).unwrap();
    let mut tags = tags;
    tags.sort();
    after.sort();
    assert_eq!(after, tags, "imaginary oids moved across the crash");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A population's identity records reach each durable core as one batch:
/// under `WalSync`, the first population of 50 new tuples, through a view
/// that reads two durable databases, appends 50 records to each log and
/// syncs each log once, not once per tuple. A reopen hands back every oid.
/// (It sits here because the registry is process-wide and this binary's
/// tests run one at a time.)
#[test]
fn a_population_logs_its_identity_in_one_commit_per_durable_core() {
    let _serial = chaos_lock();
    let _guard = ChaosGuard;
    let dir = crash_scratch(0x50);
    let mut script = String::from("database A; class P type [City: string];\n");
    for i in 0..50 {
        script.push_str(&format!("insert P value [City: \"c{i}\"];\n"));
    }
    script.push_str(
        r#"database B; class Q type [Town: string]; insert Q value [Town: "Lima"];
        create view V;
        import all classes from database A;
        import all classes from database B;
        class Tag includes imaginary (select [City: X.City] from X in P);
        "#,
    );
    let records = |s: &Session| -> BTreeMap<Symbol, u64> {
        s.wal_status()
            .into_iter()
            .map(|(db, status)| (db, status.records_since_reset))
            .collect()
    };
    let registry = objects_and_views::oodb::registry();
    let (appends, fsyncs) = (
        registry.counter("wal.appends"),
        registry.counter("wal.fsyncs"),
    );
    let (identity, mut tags) = {
        let mut s = Session::open(&dir, Durability::WalSync).unwrap();
        s.execute(&script).unwrap();
        let before = (appends.get(), fsyncs.get(), records(&s));
        let tags = s.view(sym("V")).unwrap().extent_of(sym("Tag")).unwrap();
        assert_eq!(tags.len(), 50);
        assert_eq!(
            appends.get() - before.0,
            100,
            "50 records to each of two logs"
        );
        assert_eq!(fsyncs.get() - before.1, 2, "one commit per durable core");
        let logged: Vec<_> = records(&s)
            .into_iter()
            .map(|(db, n)| (db, n - before.2[&db]))
            .collect();
        assert_eq!(logged, [(sym("A"), 50), (sym("B"), 50)]);
        (crash_identity(&s), tags)
    };
    let s = Session::open(&dir, Durability::WalSync).unwrap();
    assert_eq!(crash_identity(&s), identity);
    let mut after = s.view(sym("V")).unwrap().extent_of(sym("Tag")).unwrap();
    tags.sort();
    after.sort();
    assert_eq!(after, tags, "imaginary oids moved across the reopen");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_chaos_fixed_seed_a() {
    run_crash_chaos(0x0b1ec75);
}

#[test]
fn crash_chaos_fixed_seed_b() {
    run_crash_chaos(1991);
}

/// CI rolls a random seed into `CHAOS_SEED`; locally this repeats seed A.
#[test]
fn crash_chaos_env_seed() {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x0b1ec75);
    println!("crash_chaos_env_seed: CHAOS_SEED={seed}");
    run_crash_chaos(seed);
}

#[test]
fn chaos_fixed_seed_a() {
    run_chaos(0x0b1ec75);
}

#[test]
fn chaos_fixed_seed_b() {
    run_chaos(1991);
}

/// CI rolls a random seed into `CHAOS_SEED`; locally this repeats seed A.
/// The seed is printed so a failure is reproducible.
#[test]
fn chaos_env_seed() {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x0b1ec75);
    println!("chaos_env_seed: CHAOS_SEED={seed}");
    run_chaos(seed);
}
