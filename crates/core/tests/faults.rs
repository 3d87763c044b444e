//! Fault injection through the view layer: one recompute attempt per
//! population request, stale serving and graceful degradation.
//!
//! Their own test binary, every test behind [`FaultGuard`]: the failpoint
//! registry is process-wide, so a site armed here fires in whatever else
//! runs in the process. Inside the library's unit-test binary that was any
//! test populating a class beside these.

use ov_oodb::faults::{self, FaultAction, FaultSchedule, InjectedFault};
use ov_oodb::{sym, FieldValue, OodbError, System, Value};
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

/// The last error of `err`'s `source()` chain.
fn chain_tail(err: &ViewError) -> &(dyn std::error::Error + 'static) {
    let mut cur: &(dyn std::error::Error + 'static) = err;
    while let Some(next) = cur.source() {
        cur = next;
    }
    cur
}

/// A population request makes one recompute attempt: a single fault on a
/// warm cache serves stale once, and the next request recomputes.
#[test]
fn one_population_fault_serves_stale_once() {
    let _guard = FaultGuard::take();
    let sys = people_system();
    let view = adult_view(&sys, ViewOptions::default());
    assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(5));
    // Invalidate the cache with a write no delta can cross (no journal),
    // so the next request recomputes.
    let db = sys.database(sym("Staff")).unwrap();
    let maggy = db.read().named(sym("maggy")).unwrap();
    db.write().store.set_journal_cap(0);
    db.write()
        .set_attr(maggy, sym("Age"), Value::Int(67))
        .unwrap();
    let before = view.stats();
    faults::arm(
        "view.population_recompute",
        FaultSchedule::Nth(1),
        FaultAction::Error,
    );
    let trace = view.explain_population(sym("Adult")).unwrap();
    assert_eq!(trace.path, PopPath::StaleServe, "{trace}");
    let stats = view.stats();
    assert_eq!(stats.recomputations, before.recomputations + 1, "{stats:?}");
    assert_eq!(stats.stale_serves, before.stale_serves + 1, "{stats:?}");
    // The fault fired once: the next request recomputes and answers.
    assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(5));
    let after = view.stats();
    assert_eq!(after.recomputations, stats.recomputations + 1, "{after:?}");
    assert_eq!(after.stale_serves, stats.stale_serves, "{after:?}");
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
    // Every recompute now fails: the view serves the stale cached
    // population (still 5 members) with the marker visible in the trace.
    let before = view.stats();
    faults::arm(
        "view.population_recompute",
        FaultSchedule::From(1),
        FaultAction::Error,
    );
    let trace = view.explain_population(sym("Adult")).unwrap();
    assert_eq!(trace.path, PopPath::StaleServe, "{trace}");
    assert_eq!(trace.rows, 5, "stale generation, not a blend: {trace}");
    assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(5));
    let stats = view.stats();
    assert!(stats.stale_serves >= 2, "{stats:?}");
    assert_eq!(
        stats.recomputations - before.recomputations,
        2,
        "one attempt per request: {stats:?}"
    );
    // Fault cleared: the next request recomputes and sees the eviction.
    faults::clear();
    assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(4));
}

#[test]
fn degraded_error_when_no_cached_population() {
    let _guard = FaultGuard::take();
    let sys = people_system();
    let view = adult_view(&sys, ViewOptions::default());
    // Cold cache + the recompute fails: nothing to serve stale.
    faults::arm(
        "view.population_recompute",
        FaultSchedule::From(1),
        FaultAction::Error,
    );
    let err = view.query("count(Adult)").unwrap_err();
    let ViewError::Degraded { class, ref cause } = err else {
        panic!("expected Degraded, got {err}");
    };
    assert_eq!(class, sym("Adult"));
    assert!(
        matches!(**cause, ViewError::Oodb(OodbError::Fault(_))),
        "cause: {cause:?}"
    );
    assert_eq!(view.stats().recomputations, 1, "one attempt");
    // The chain bottoms out in the injected fault.
    let tail = chain_tail(&err);
    assert!(
        tail.to_string().contains("view.population_recompute"),
        "chain tail: {tail}"
    );
    faults::clear();
    // The view recovers completely once the fault clears.
    assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(5));
}

/// A failed population's span says what failed: the class and
/// `path=error`, as a served population's span does. There is one span,
/// for one attempt, and no `attempts` field.
#[test]
fn a_failed_population_span_names_its_class() {
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
    assert_eq!(field("attempts"), None);
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
    // Cold cache + every recompute fails: nothing to serve stale.
    faults::arm(
        "view.population_recompute",
        FaultSchedule::From(1),
        FaultAction::Error,
    );
    let degraded = |r: Result<(), ViewError>| match r.unwrap_err() {
        err @ ViewError::Degraded { class, .. } => {
            let tail = chain_tail(&err);
            assert!(tail.is::<InjectedFault>(), "chain tail: {tail}");
            class
        }
        other => panic!("expected Degraded, got {other}"),
    };
    let by_query = degraded(session.query(sym("V"), "count(Adult)").map(drop));
    assert_eq!(by_query, sym("Adult"));
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
/// from `Adult` (view `Base`). When neither has a fallback, the outermost
/// population names the error, and the injected fault is still the tail
/// of its `source()` chain.
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
    // `Rich`'s recompute passes the failpoint and fails in `Adult`'s, its
    // one attempt; every later recompute fails too.
    faults::arm(
        "view.population_recompute",
        FaultSchedule::From(2),
        FaultAction::Error,
    );
    let err = session.query(sym("Top"), "count(Rich)").unwrap_err();
    let ViewError::Degraded { class, ref cause } = err else {
        panic!("expected Degraded, got {err}");
    };
    assert_eq!(class, sym("Rich"));
    assert!(
        matches!(**cause, ViewError::Oodb(OodbError::Fault(_))),
        "cause: {cause:?}"
    );
    let tail = chain_tail(&err);
    assert!(
        tail.to_string().contains("view.population_recompute"),
        "chain tail: {tail}"
    );
    // Each population recomputes once, in the view that declares it.
    for view in ["Base", "Top"] {
        let stats = session.view(sym(view)).unwrap().stats();
        assert_eq!(stats.recomputations, 1, "one per population: {stats:?}");
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
