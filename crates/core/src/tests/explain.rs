// ----------------------------------------------------------------------
// Explainable evaluation: population plans, traces, write-path fixes
// ----------------------------------------------------------------------

/// The engine override reaches top-level statements only: under
/// `EngineMode::Interp` the statement walks, but the population it asks
/// for still runs its row loop in bytecode — its scan reports
/// resolution-cache traffic, which only bytecode has — and answers the
/// same.
#[test]
fn the_engine_override_leaves_populations_compiled() {
    use ov_query::{Engine, EngineMode, PopPath};
    let sys = people_system();
    let view = ViewDef::from_script(
        "create view V; import all classes from database Staff; \
         class Adult includes (select P from Person where P.Age >= 21);",
    )
    .unwrap()
    .binder(&sys)
    .options(
        ViewOptions::builder()
            .materialization(Materialization::AlwaysRecompute)
            .build(),
    )
    .bind()
    .unwrap();
    for (mode, engine) in [
        (EngineMode::Interp, Engine::Interpreted),
        (EngineMode::Compiled, Engine::Compiled),
    ] {
        let (value, trace) =
            ov_query::with_engine_mode(mode, || view.explain("count(Adult)")).unwrap();
        assert_eq!(value, Value::Int(5), "{trace}");
        assert_eq!(trace.engine, Some(engine), "{trace}");
        let [adult] = trace.populations.as_slice() else {
            panic!("one population: {trace}");
        };
        let PopPath::FullRecompute { scans } = &adult.path else {
            panic!("a recompute: {trace}");
        };
        let cache = scans[0].actuals.cache_hits + scans[0].actuals.cache_misses;
        assert!(cache > 0, "{trace}");
    }
}

#[test]
fn explain_population_reports_all_three_paths() {
    use ov_query::{PlanStrategy, PopPath};
    let sys = people_system();
    let def = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap();

    // Cold cached view: the first request is a full recompute, and its one
    // include-term scan ran sequentially (the extent is tiny).
    let cached = def.binder(&sys).bind().unwrap();
    let cold = cached.explain_population(sym("Adult")).unwrap();
    let PopPath::FullRecompute { scans } = &cold.path else {
        panic!("cold population should recompute, got {cold}");
    };
    let [scan] = scans.as_slice() else {
        panic!("one include-term scan expected: {cold}");
    };
    assert_eq!(scan.kind, PlanStrategy::Seq, "{cold}");
    // The scan measured its own work: every Person row was scanned, the
    // five adults matched.
    assert_eq!(scan.actuals.rows_matched, 5, "{cold}");
    assert!(scan.actuals.rows_scanned >= 5, "{cold}");
    assert_eq!(cold.rows, 5);
    assert!(cold.nanos > 0, "timings must be recorded");

    // Warm: the version-keyed cache answers.
    let warm = cached.explain_population(sym("Adult")).unwrap();
    assert_eq!(warm.path, PopPath::CacheHit, "{warm}");
    assert_eq!(warm.rows, 5);
    assert!(warm.nanos > 0);

    // Incremental view, warmed, after exactly one base write: the delta
    // path re-tests exactly the one changed oid.
    let inc = def
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .materialization(Materialization::Incremental)
                .build(),
        )
        .bind()
        .unwrap();
    inc.extent_of(sym("Adult")).unwrap();
    let db = sys.database(sym("Staff")).unwrap();
    let maggy = db.read().named(sym("maggy")).unwrap();
    db.write()
        .set_attr(maggy, sym("Age"), Value::Int(67))
        .unwrap();
    let delta = inc.explain_population(sym("Adult")).unwrap();
    assert_eq!(delta.path, PopPath::Delta { retested: 1 }, "{delta}");
    assert_eq!(delta.rows, 5);

    // The rendering names the path — this is what `.plan` prints in ovq.
    assert!(delta.to_string().contains("Delta{retested=1}"));
}

#[test]
fn explain_population_reports_index_pushdown() {
    use ov_query::{PlanStrategy, PopPath};
    let sys = people_system();
    {
        let db = sys.database(sym("Staff")).unwrap();
        let mut db = db.write();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        db.create_index(person, sym("City")).unwrap();
    }
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Londoner includes (select P from Person where P.City = "London");
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let trace = view.explain_population(sym("Londoner")).unwrap();
    let PopPath::FullRecompute { scans } = &trace.path else {
        panic!("expected recompute, got {trace}");
    };
    let [scan] = scans.as_slice() else {
        panic!("one include-term scan expected: {trace}");
    };
    assert_eq!(
        scan.kind,
        PlanStrategy::IndexPushdown {
            class: sym("Person"),
            attr: sym("City"),
            value: Value::str("London"),
        },
        "{trace}"
    );
    // The index narrowed the scan to exactly the matching candidates.
    assert_eq!(scan.actuals.rows_scanned, 3, "{trace}");
    assert_eq!(scan.actuals.rows_matched, 3, "{trace}");
    assert_eq!(trace.rows, 3);
}

#[test]
fn explain_query_traces_stages_and_populations() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let (value, trace) = view.explain("select A.Name from A in Adult").unwrap();
    assert_eq!(value.as_set().unwrap().len(), 5);
    let names: Vec<_> = trace.stages.iter().map(|s| s.name).collect();
    assert_eq!(names, ["parse", "typecheck", "optimize", "execute"]);
    assert_eq!(trace.rows, Some(5));
    assert!(
        trace.populations.iter().any(|p| p.class == sym("Adult")),
        "execution should have populated Adult: {trace}"
    );
    // Re-running hits the cache, and the trace says so.
    let (_, warm) = view.explain("select A.Name from A in Adult").unwrap();
    assert!(
        warm.populations
            .iter()
            .any(|p| p.path == ov_query::PopPath::CacheHit),
        "{warm}"
    );
}

#[test]
fn hidden_attr_write_blocked_even_when_absent_from_visible_attrs() {
    // `hide attribute Salary in class Employee` and an object real in
    // *Person*: Salary has no visible definition at Person, so the old
    // code skipped the hide check entirely and forwarded the write to the
    // base store. The name check must still fire (§3: hides are
    // subclass-closed), and the error must be HiddenAttr — not the base
    // store's UnknownAttr — proving the view blocked it.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        hide attribute Salary in class Employee;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let maggy = DataSource::named_object(&view, sym("maggy")).unwrap();
    assert!(matches!(
        view.update_attr(maggy, sym("Salary"), Value::Int(1)),
        Err(ViewError::HiddenAttr { .. })
    ));
    // The hide also blocks the write on objects where Salary *is* visible.
    let tony = DataSource::named_object(&view, sym("tony")).unwrap();
    assert!(matches!(
        view.update_attr(tony, sym("Salary"), Value::Int(1)),
        Err(ViewError::HiddenAttr { .. })
    ));
}

#[test]
fn computed_attr_write_rejected_not_silently_stored() {
    // The view redefines the stored base attribute Income as computed.
    // Writing Income through the view used to fall through to the base
    // store: the write landed on an attribute the view never reads back.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        attribute Income in class Person has value self.Age * 1000;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let tony = DataSource::named_object(&view, sym("tony")).unwrap();
    let err = view
        .update_attr(tony, sym("Income"), Value::Int(1))
        .unwrap_err();
    assert!(matches!(err, ViewError::ComputedAttrUpdate { .. }), "{err}");
    // Nothing was written underneath the view.
    let db = sys.database(sym("Staff")).unwrap();
    assert_eq!(
        db.read().stored_attr(tony, sym("Income")).unwrap(),
        &Value::Int(50000)
    );
}

#[test]
fn delete_sweeps_identity_entries_referencing_the_dead_oid() {
    // Regression: `delete()` left identity-table entries whose core tuple
    // referenced the deleted oid, so under IdentityMode::Table the stale
    // entry (and its cached imaginary object) survived the base object.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Couple includes imaginary
            (select [Husband: W.Spouse, Wife: W] from W in Person
             where W.Name = "Maggy");
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let couples = view.extent_of(sym("Couple")).unwrap();
    assert_eq!(couples.len(), 1);
    assert_eq!(view.identity_table_len(sym("Couple")), 1);
    // Denis (Maggy's spouse) dies.
    let denis = DataSource::named_object(&view, sym("denis")).unwrap();
    view.delete(denis).unwrap();
    // The stale entry and its imaginary object are gone immediately —
    // no gc_identity call needed, no resurrection from the dead tuple.
    assert_eq!(
        view.identity_table_len(sym("Couple")),
        0,
        "stale identity entry survived the delete"
    );
    assert!(!DataSource::object_exists(&view, couples[0]));
    // Deletion leaves Maggy's Spouse dangling, so the recomputed core
    // tuple is *equal* to the dead one. Without the sweep, the stale
    // entry would hand the old oid back for it — resurrection from a
    // dead tuple. With it, the equal tuple gets a fresh oid.
    let after = view.extent_of(sym("Couple")).unwrap();
    assert_eq!(after.len(), 1);
    assert!(
        !after.contains(&couples[0]),
        "oid resurrected from a dead tuple"
    );
}
