//! Fault injection through the view layer: retries, stale serving and
//! graceful degradation.
//!
//! Their own test binary, every test behind [`FaultGuard`]: the failpoint
//! registry is process-wide, so a site armed here fires in whatever else
//! runs in the process. Inside the library's unit-test binary that was any
//! test populating a class beside these.

use ov_oodb::faults::{self, FaultAction, FaultSchedule};
use ov_oodb::{sym, FieldValue, System, Value};
use ov_query::{execute_script, PopPath};
use ov_views::{Session, View, ViewDef, ViewError, ViewOptions};

/// Serializes the tests of this binary and scopes arming to its own
/// lifetime: the registry is clear when a test starts and when it ends,
/// however it ends.
struct FaultGuard {
    _serial: std::sync::MutexGuard<'static, ()>,
}

impl FaultGuard {
    fn take() -> FaultGuard {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _serial = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        faults::clear();
        FaultGuard { _serial }
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faults::clear();
    }
}

/// Six people, five of them adults; `maggy` is one of the five.
fn people_system() -> System {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Staff;
        class Person type [Name: string, Age: integer];
        object #1 in Person value [Name: "Maggy", Age: 66];
        object #2 in Person value [Name: "Denis", Age: 70];
        object #3 in Person value [Name: "Mark", Age: 12];
        object #4 in Person value [Name: "Tony", Age: 30];
        object #5 in Person value [Name: "Boss", Age: 50];
        object #6 in Person value [Name: "Julia", Age: 80];
        name maggy = #1;
        "#,
    )
    .unwrap();
    sys
}

fn adult_view(sys: &System, options: ViewOptions) -> View {
    ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap()
    .binder(sys)
    .options(options)
    .bind()
    .unwrap()
}

#[test]
fn transient_population_fault_is_retried() {
    let _guard = FaultGuard::take();
    let sys = people_system();
    let view = adult_view(&sys, ViewOptions::default());
    // First recompute attempt fails; the retry succeeds.
    faults::arm(
        "view.population_recompute",
        FaultSchedule::Nth(1),
        FaultAction::Error,
    );
    let v = view.query("count(Adult)").unwrap();
    assert_eq!(v, Value::Int(5));
    let stats = view.stats();
    assert_eq!(stats.fault_retries, 1, "{stats:?}");
    assert_eq!(stats.stale_serves, 0, "{stats:?}");
    assert_eq!(stats.recomputations, 2, "one failed + one good: {stats:?}");
}

#[test]
fn failed_recompute_serves_stale_population() {
    let _guard = FaultGuard::take();
    let sys = people_system();
    let view = adult_view(&sys, ViewOptions::default());
    // Warm the cache, then invalidate it with a base write that EVICTS an
    // adult (Maggy drops below the filter). The store keeps no journal, so
    // the write is a gap no delta can cross: the next request recomputes.
    assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(5));
    let db = sys.database(sym("Staff")).unwrap();
    let maggy = db.read().named(sym("maggy")).unwrap();
    db.write().store.set_journal_cap(0);
    db.write()
        .set_attr(maggy, sym("Age"), Value::Int(20))
        .unwrap();
    // Every recompute attempt now fails: the view serves the stale cached
    // population (still 5 members) with the marker visible in the trace.
    faults::arm(
        "view.population_recompute",
        FaultSchedule::From(1),
        FaultAction::Error,
    );
    let trace = view.explain_population(sym("Adult")).unwrap();
    assert_eq!(trace.path, PopPath::StaleServe { attempts: 3 }, "{trace}");
    assert_eq!(trace.rows, 5, "stale generation, not a blend: {trace}");
    assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(5));
    let stats = view.stats();
    assert!(stats.stale_serves >= 2, "{stats:?}");
    assert_eq!(stats.fault_retries, 4, "2 retries per request: {stats:?}");
    // Fault cleared: the next request recomputes and sees the eviction.
    faults::clear();
    assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(4));
}

#[test]
fn degraded_error_when_no_cached_population() {
    let _guard = FaultGuard::take();
    let sys = people_system();
    let view = adult_view(&sys, ViewOptions::default());
    // Cold cache + every attempt fails: nothing to serve stale.
    faults::arm(
        "view.population_recompute",
        FaultSchedule::From(1),
        FaultAction::Error,
    );
    let err = view.query("count(Adult)").unwrap_err();
    let ViewError::Degraded {
        class,
        attempts,
        ref cause,
    } = err
    else {
        panic!("expected Degraded, got {err}");
    };
    assert_eq!(class, sym("Adult"));
    assert_eq!(attempts, 3);
    assert!(cause.is_transient());
    assert!(err.is_transient());
    // The chain bottoms out in the injected fault.
    let mut cur: &dyn std::error::Error = &err;
    while let Some(next) = std::error::Error::source(cur) {
        cur = next;
    }
    assert!(
        cur.to_string().contains("view.population_recompute"),
        "chain tail: {cur}"
    );
    faults::clear();
    // The view recovers completely once the fault clears.
    assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(5));
}

/// A failed population's span says what failed and how often: the class,
/// `path=error` and the attempts made, as a served population's span does.
#[test]
fn a_failed_population_span_names_its_class_and_attempts() {
    let _guard = FaultGuard::take();
    let sys = people_system();
    let view = adult_view(&sys, ViewOptions::default());
    faults::arm(
        "view.population_recompute",
        FaultSchedule::From(1),
        FaultAction::Error,
    );
    // Tracing is process-wide; the guard keeps every other test of this
    // binary out while it is on.
    ov_oodb::recorder().clear();
    ov_oodb::trace::set_enabled(true);
    let err = view.query("count(Adult)").unwrap_err();
    ov_oodb::trace::set_enabled(false);
    assert!(matches!(err, ViewError::Degraded { .. }), "{err}");
    let spans: Vec<_> = ov_oodb::recorder()
        .snapshot()
        .into_iter()
        .filter(|s| s.name == "view.population")
        .collect();
    let [failed] = spans.as_slice() else {
        panic!("one population request, one span: {spans:?}");
    };
    let field = |key| failed.fields.iter().flatten().find(|(k, _)| *k == key);
    assert_eq!(
        field("class"),
        Some(&("class", FieldValue::Sym(sym("Adult"))))
    );
    assert_eq!(field("path"), Some(&("path", FieldValue::Str("error"))));
    assert_eq!(field("attempts"), Some(&("attempts", FieldValue::U64(3))));
}

/// Every way a statement reaches a view through a `Session` reports
/// exhausted degradation the same way: `Session::query`, a statement run by
/// `Session::execute`, and the traced run behind `.analyze`.
#[test]
fn session_statements_report_degradation_like_session_queries() {
    let _guard = FaultGuard::take();
    let mut session = Session::new();
    session
        .execute(
            r#"
            database Staff;
            class Person type [Name: string, Age: integer];
            object #1 in Person value [Name: "Maggy", Age: 66];
            create view V;
            import all classes from database Staff;
            class Adult includes (select P from Person where P.Age >= 21);
            "#,
        )
        .unwrap();
    // Cold cache + every attempt fails: nothing to serve stale.
    faults::arm(
        "view.population_recompute",
        FaultSchedule::From(1),
        FaultAction::Error,
    );
    let degraded = |r: Result<(), ViewError>| match r.unwrap_err() {
        ViewError::Degraded {
            class, attempts, ..
        } => (class, attempts),
        other => panic!("expected Degraded, got {other}"),
    };
    let by_query = degraded(session.query(sym("V"), "count(Adult)").map(drop));
    assert_eq!(by_query, (sym("Adult"), 3));
    assert_eq!(
        degraded(session.execute("count(Adult);").map(drop)),
        by_query
    );
    assert_eq!(
        degraded(session.analyze(sym("V"), "count(Adult)").map(drop)),
        by_query
    );
}

/// Populations nest on a two-level stack: `Rich` (view `Top`) is populated
/// from `Adult` (view `Base`). When both run out of retries, the outermost
/// exhausted population names the error, and the injected fault is still
/// the tail of its `source()` chain.
#[test]
fn nested_exhausted_populations_degrade_as_the_outermost() {
    let _guard = FaultGuard::take();
    let mut session = Session::new();
    session
        .execute(
            r#"
            database Staff;
            class Person type [Name: string, Age: integer, Income: integer];
            object #1 in Person value [Name: "Maggy", Age: 66, Income: 300];
            create view Base;
            import all classes from database Staff;
            class Adult includes (select P from Person where P.Age >= 21);
            create view Top;
            import all classes from view Base;
            class Rich includes (select A from Adult where A.Income >= 100);
            "#,
        )
        .unwrap();
    // `Rich`'s first recompute passes the failpoint and fails in `Adult`'s,
    // which fails all three of its own attempts; then every recompute
    // fails.
    faults::arm(
        "view.population_recompute",
        FaultSchedule::From(2),
        FaultAction::Error,
    );
    let err = session.query(sym("Top"), "count(Rich)").unwrap_err();
    let ViewError::Degraded {
        class,
        attempts,
        ref cause,
    } = err
    else {
        panic!("expected Degraded, got {err}");
    };
    assert_eq!((class, attempts), (sym("Rich"), 3));
    assert!(matches!(**cause, ViewError::Oodb(_)), "cause: {cause:?}");
    assert!(err.is_transient());
    let mut cur: &dyn std::error::Error = &err;
    while let Some(next) = std::error::Error::source(cur) {
        cur = next;
    }
    assert!(
        cur.to_string().contains("view.population_recompute"),
        "chain tail: {cur}"
    );
    // Each population retries in the view that declares it.
    for view in ["Base", "Top"] {
        let stats = session.view(sym(view)).unwrap().stats();
        assert_eq!(stats.fault_retries, 2, "two per population: {stats:?}");
    }
}

/// A panic that unwinds out of a computed body leaves the reading thread's
/// hides as they were: the body bracket is a scope of the execution
/// context, restored on unwind, in both engines.
#[test]
fn a_panicking_body_leaks_no_hide_privilege() {
    let _guard = FaultGuard::take();
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        attribute Adults in class Person has value count(Adult);
        hide attribute Age in class Person;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert!(view.query("maggy.Age").is_err(), "Age is hidden");
    // The cache is cold, so the body's `count(Adult)` recomputes — and
    // panics. The interpreter runs `maggy.Adults`; a scan compiles the
    // body.
    faults::arm(
        "view.population_recompute",
        FaultSchedule::From(1),
        FaultAction::Panic,
    );
    for query in [
        "maggy.Adults",
        "select P from P in Person where P.Adults > 0",
    ] {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| view.query(query)));
        assert!(caught.is_err(), "{query} panics");
        let seen = view.query("maggy.Age");
        assert!(seen.is_err(), "after {query}, Age reads {seen:?}");
    }
    faults::clear();
    assert_eq!(view.query("maggy.Adults").unwrap(), Value::Int(5));
}
