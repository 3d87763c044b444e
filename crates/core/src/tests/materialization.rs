// Populations as materialized views (paper §6): snapshots, caching,
// incremental maintenance, and index-fed populations.

#[test]
fn materialize_snapshots_the_view() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        class Family includes imaginary
            (select [Husband: H, Wife: H.Spouse]
             from H in Person where H.Sex = "male" and H.Spouse != null);
        attribute Greeting in class Person has value "hi " ++ self.Name;
        hide attribute Salary in class Employee;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let db = view.materialize(sym("Snapshot")).unwrap();
    // Classes: Person, Employee, Manager, Adult, Family (hidden attr gone).
    assert!(db.schema.class_by_name(sym("Adult")).is_some());
    // Unique-root materialization: the three plain persons who are adults
    // become *real* in Adult. Tony and Boss are adults too, but Employee
    // and Adult are incomparable classes — an object can be real in only
    // one, so they stay employees. (Exactly the rigidity the paper's view
    // mechanism exists to escape: the overlap is representable in the view
    // but not in a materialized unique-root database.)
    let adult = db.schema.class_by_name(sym("Adult")).unwrap();
    assert_eq!(db.deep_extent(adult).len(), 3);
    let employee_cls = db.schema.class_by_name(sym("Employee")).unwrap();
    assert_eq!(db.deep_extent(employee_cls).len(), 2);
    let family = db.schema.class_by_name(sym("Family")).unwrap();
    assert_eq!(db.deep_extent(family).len(), 1);
    let employee = db.schema.class_by_name(sym("Employee")).unwrap();
    assert!(!db
        .schema
        .visible_attrs(employee)
        .contains_key(&sym("Salary")));
    // Computed attributes became stored values.
    let person = db.schema.class_by_name(sym("Person")).unwrap();
    let someone = db.deep_extent(person)[0];
    let greeting = db.stored_attr(someone, sym("Greeting")).unwrap();
    assert!(greeting.as_str().unwrap().starts_with("hi "));
    // The snapshot is a plain database: it can be registered and queried.
    let mut sys2 = System::new();
    sys2.add_database(db).unwrap();
    let handle = sys2.database(sym("Snapshot")).unwrap();
    let n = ov_query::run_query(&*handle.read(), "count((select A from A in Adult))").unwrap();
    assert_eq!(n, Value::Int(3));
    // And a second view stacks on top of it ("views on top of views").
    let stacked = ViewDef::from_script(
        r#"
        create view V2;
        import all classes from database Snapshot;
        class Elder includes (select A from Adult where A.Age >= 65);
        "#,
    )
    .unwrap()
    .binder(&sys2)
    .bind()
    .unwrap();
    assert_eq!(
        stacked.query("count((select E from E in Elder))").unwrap(),
        Value::Int(3) // Maggy, Denis, Julia — all real in Adult
    );
}

#[test]
fn population_caching_matches_recompute() {
    let sys = people_system();
    let def = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap();
    let cached = def.binder(&sys).bind().unwrap();
    let recompute = def
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .materialization(Materialization::AlwaysRecompute)
                .build(),
        )
        .bind()
        .unwrap();
    for _ in 0..3 {
        assert_eq!(
            cached.extent_of(sym("Adult")).unwrap(),
            recompute.extent_of(sym("Adult")).unwrap()
        );
    }
}

#[test]
fn incremental_materialization_tracks_updates() {
    let sys = people_system();
    let def = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        class Senior includes (select A from Adult where A.Age >= 65);
        "#,
    )
    .unwrap();
    let incremental = def
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .materialization(Materialization::Incremental)
                .build(),
        )
        .bind()
        .unwrap();
    let recompute = def
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .materialization(Materialization::AlwaysRecompute)
                .build(),
        )
        .bind()
        .unwrap();
    // Warm the cache.
    assert_eq!(
        incremental.extent_of(sym("Adult")).unwrap(),
        recompute.extent_of(sym("Adult")).unwrap()
    );
    let warm = incremental.stats();
    assert!(warm.recomputations >= 1);
    assert_eq!(warm.incremental_updates, 0);
    let db = sys.database(sym("Staff")).unwrap();
    // Update: Mark becomes an adult; delete: Julia leaves; insert: a baby.
    let mark = {
        let d = db.read();
        d.deep_extent(d.schema.class_by_name(sym("Person")).unwrap())
            .into_iter()
            .find(|&o| d.stored_attr(o, sym("Name")).unwrap() == &Value::str("Mark"))
            .unwrap()
    };
    db.write()
        .set_attr(mark, sym("Age"), Value::Int(30))
        .unwrap();
    assert_eq!(
        incremental.extent_of(sym("Adult")).unwrap(),
        recompute.extent_of(sym("Adult")).unwrap()
    );
    assert!(
        incremental.stats().incremental_updates >= 1,
        "delta path did not fire"
    );
    let julia = {
        let d = db.read();
        d.deep_extent(d.schema.class_by_name(sym("Person")).unwrap())
            .into_iter()
            .find(|&o| d.stored_attr(o, sym("Name")).unwrap() == &Value::str("Julia"))
            .unwrap()
    };
    db.write().delete_object(julia).unwrap();
    {
        let mut d = db.write();
        let person = d.schema.class_by_name(sym("Person")).unwrap();
        d.create_object(
            person,
            Value::tuple([("Name", Value::str("Baby")), ("Age", Value::Int(0))]),
        )
        .unwrap();
    }
    assert_eq!(
        incremental.extent_of(sym("Adult")).unwrap(),
        recompute.extent_of(sym("Adult")).unwrap()
    );
    // The chained class maintains through the virtual parent too.
    assert_eq!(
        incremental.extent_of(sym("Senior")).unwrap(),
        recompute.extent_of(sym("Senior")).unwrap()
    );
}

/// People database and an incremental view over it whose one class
/// divides by `Age`, so an object with `Age = 0` makes its retest error.
fn fit_view(sys: &System) -> crate::View {
    ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Fit includes (select P from Person where 100 / P.Age >= 2);
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

/// The patch contract, both halves. Nobody holds the cached set: a delta
/// patches that very allocation. A reader holds it: the reader's set stays
/// the pre-write population, the cache moves on to a patched copy, and
/// `views.delta_copies` counts the one copy. (No other test of this binary
/// holds a population across a write, so the process-wide counter moves
/// only here.)
#[test]
fn delta_patches_in_place_and_copies_only_under_a_reader() {
    let sys = people_system();
    let view = fit_view(&sys);
    let db = sys.database(sym("Staff")).unwrap();
    let maggy = db.read().named(sym("maggy")).unwrap(); // 66: 100 / 66 < 2
    let copies = || {
        ov_oodb::metrics::registry()
            .counter("views.delta_copies")
            .get()
    };
    let fit = sym("Fit");
    let cold = view.extent_of(fit).unwrap();
    assert!(!cold.contains(&maggy));
    let address = |view: &crate::View| {
        let (_, set) = view.cached_population(fit).unwrap();
        std::sync::Arc::as_ptr(&set)
    };
    let (cold_versions, _) = view.cached_population(fit).unwrap();
    let cold_address = address(&view);
    let copies_before = copies();

    // Unshared: maggy flips in, the set is patched where it lies.
    db.write()
        .set_attr(maggy, sym("Age"), Value::Int(40))
        .unwrap();
    let patched = view.extent_of(fit).unwrap();
    assert!(patched.contains(&maggy));
    assert_eq!(patched.len(), cold.len() + 1);
    assert_eq!(view.stats().incremental_updates, 1);
    assert_eq!(address(&view), cold_address, "unshared set was copied");
    assert_eq!(copies(), copies_before);
    let (versions, _) = view.cached_population(fit).unwrap();
    assert!(
        versions > cold_versions,
        "the patch stamps the new versions"
    );

    // Shared: a reader holds the set across the next write.
    let (_, held) = view.cached_population(fit).unwrap();
    db.write()
        .set_attr(maggy, sym("Age"), Value::Int(90))
        .unwrap();
    let after = view.extent_of(fit).unwrap();
    assert_eq!(after, cold, "the next read sees the write");
    assert_eq!(
        held.iter().copied().collect::<Vec<_>>(),
        patched,
        "a held population must not change under its reader"
    );
    assert_ne!(address(&view), std::sync::Arc::as_ptr(&held));
    assert_eq!(copies(), copies_before + 1);
    assert_eq!(view.stats().recomputations, 1, "only the cold populate");
}

/// All or nothing: a delta of two oids whose second retest errors leaves
/// the cached set *and* its versions untouched — the first oid's verdict
/// is not applied — and once the cause is gone the population equals a
/// fresh bind's.
#[test]
fn failed_retest_leaves_the_cached_population_untouched() {
    let sys = people_system();
    let view = fit_view(&sys);
    let db = sys.database(sym("Staff")).unwrap();
    let (maggy, denis) = {
        let d = db.read();
        (
            d.named(sym("maggy")).unwrap(),
            d.named(sym("denis")).unwrap(),
        )
    };
    assert!(maggy < denis, "retests run in oid order");
    let fit = sym("Fit");
    let cold = view.extent_of(fit).unwrap();
    let (cold_versions, cold_set) = view.cached_population(fit).unwrap();
    drop(cold_set);

    // maggy flips in (retested first, fine); denis divides by zero.
    db.write()
        .set_attr(maggy, sym("Age"), Value::Int(40))
        .unwrap();
    db.write()
        .set_attr(denis, sym("Age"), Value::Int(0))
        .unwrap();
    for _ in 0..2 {
        let err = view.extent_of(fit).unwrap_err();
        assert!(err.to_string().contains("division by zero"), "got: {err}");
        let (versions, set) = view.cached_population(fit).unwrap();
        assert_eq!(versions, cold_versions, "versions moved on a failed delta");
        assert_eq!(set.iter().copied().collect::<Vec<_>>(), cold);
    }

    db.write()
        .set_attr(denis, sym("Age"), Value::Int(50))
        .unwrap();
    let healed = view.extent_of(fit).unwrap();
    assert_eq!(healed, fit_view(&sys).extent_of(fit).unwrap());
    assert!(healed.contains(&maggy) && healed.contains(&denis));
    let stats = view.stats();
    assert_eq!(stats.recomputations, 1, "healed by a delta: {stats:?}");
    assert_eq!(stats.incremental_updates, 1);
}

/// The same contract under the degradation ladder: whatever step budget a
/// read of a two-oid delta runs under, it answers with the pre-write
/// population (a stale serve, cache untouched) or the fully patched one —
/// never with one verdict applied and the other not.
#[test]
fn budget_breach_mid_delta_serves_the_pre_write_population() {
    let mut stale_serves = 0;
    let mut patched = 0;
    for max_steps in 1..60 {
        let sys = people_system();
        let view = fit_view(&sys);
        let db = sys.database(sym("Staff")).unwrap();
        let (maggy, denis) = {
            let d = db.read();
            (
                d.named(sym("maggy")).unwrap(),
                d.named(sym("denis")).unwrap(),
            )
        };
        let cold = view.extent_of(sym("Fit")).unwrap().len() as i64;
        let (cold_versions, _) = view.cached_population(sym("Fit")).unwrap();
        for oid in [maggy, denis] {
            db.write()
                .set_attr(oid, sym("Age"), Value::Int(40))
                .unwrap();
        }
        let budget = std::sync::Arc::new(ov_query::Budget::new().with_max_steps(max_steps));
        match ov_query::run_query_with_budget(&view, "count(Fit)", budget) {
            Ok(Value::Int(n)) if n == cold => {
                stale_serves += 1;
                assert_eq!(view.stats().stale_serves, 1);
                let (versions, set) = view.cached_population(sym("Fit")).unwrap();
                assert_eq!(versions, cold_versions);
                assert_eq!(set.len() as i64, cold);
            }
            Ok(Value::Int(n)) if n == cold + 2 => patched += 1,
            // The breach can also land outside the population (in the
            // count itself), where nothing degrades.
            Err(ov_query::QueryError::ResourceExhausted(_)) => {}
            other => panic!("max_steps {max_steps}: blended or untyped answer {other:?}"),
        }
    }
    assert!(stale_serves > 0, "no budget breached inside the delta");
    assert!(patched > 0, "no budget was enough for the delta");
}

#[test]
fn incremental_falls_back_on_journal_gap() {
    let sys = people_system();
    // Shrink the journal so a burst of updates overflows it.
    {
        let db = sys.database(sym("Staff")).unwrap();
        db.write().store.set_journal_cap(2);
    }
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .options(
        ViewOptions::builder()
            .materialization(Materialization::Incremental)
            .build(),
    )
    .bind()
    .unwrap();
    let before = view.extent_of(sym("Adult")).unwrap().len();
    let db = sys.database(sym("Staff")).unwrap();
    // Ten updates blow past the two-entry journal.
    let oids = {
        let d = db.read();
        d.deep_extent(d.schema.class_by_name(sym("Person")).unwrap())
    };
    for (i, &o) in oids.iter().enumerate().take(5) {
        db.write()
            .set_attr(o, sym("Age"), Value::Int(30 + i as i64))
            .unwrap();
    }
    // Still correct (full recompute happened under the hood).
    let after = view.extent_of(sym("Adult")).unwrap().len();
    assert!(after >= before, "everyone updated is now an adult");
    assert_eq!(after, 6);
}

#[test]
fn incremental_with_imaginary_class_recomputes() {
    // Imaginary includes are opaque to delta maintenance; the mode must
    // still produce correct results by falling back.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Family includes imaginary
            (select [Husband: H] from H in Person where H.Sex = "male");
        "#,
    )
    .unwrap()
    .binder(&sys)
    .options(
        ViewOptions::builder()
            .materialization(Materialization::Incremental)
            .build(),
    )
    .bind()
    .unwrap();
    let before = view.extent_of(sym("Family")).unwrap();
    let db = sys.database(sym("Staff")).unwrap();
    let denis = db.read().named(sym("denis")).unwrap();
    db.write()
        .set_attr(denis, sym("Age"), Value::Int(71))
        .unwrap();
    // Unrelated update: same families, same oids (identity table).
    assert_eq!(view.extent_of(sym("Family")).unwrap(), before);
}

#[test]
fn index_pushdown_agrees_with_scan() {
    let sys = people_system();
    // Index City on Person (and subclasses) in the base database.
    {
        let db = sys.database(sym("Staff")).unwrap();
        let mut db = db.write();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        db.create_index(person, sym("City")).unwrap();
    }
    let def = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Londoner includes (select P from Person where P.City = "London");
        class Resident(X) includes (select P from Person where P.City = X);
        "#,
    )
    .unwrap();
    let view = def.binder(&sys).bind().unwrap();
    // Pushdown answers equal the scan-based query — and the counters prove
    // the index path actually ran.
    let indexed = view.extent_of(sym("Londoner")).unwrap();
    assert!(view.stats().index_pushdowns >= 1, "index path did not fire");
    let scanned = view
        .query(r#"select P from P in Person where P.City = "London""#)
        .unwrap();
    let scanned: Vec<_> = scanned
        .as_set()
        .unwrap()
        .iter()
        .map(|v| v.as_oid().unwrap())
        .collect();
    assert_eq!(indexed, scanned);
    assert_eq!(indexed.len(), 3);
    // Parameterized instances take the same fast path after substitution.
    assert_eq!(
        view.query(r#"count(Resident("Paris"))"#).unwrap(),
        Value::Int(2)
    );
    // Index maintenance: the population tracks updates through the index.
    let maggy = DataSource::named_object(&view, sym("maggy")).unwrap();
    view.update_attr(maggy, sym("City"), Value::str("Paris"))
        .unwrap();
    assert_eq!(view.extent_of(sym("Londoner")).unwrap().len(), 2);
    assert_eq!(
        view.query(r#"count(Resident("Paris"))"#).unwrap(),
        Value::Int(3)
    );
}

/// An index narrows the candidates, not the rows the population charges:
/// a row cap below the population's size stops it with the index and
/// without.
#[test]
fn index_fed_population_charges_its_rows() {
    for indexed in [false, true] {
        let sys = people_system();
        if indexed {
            let db = sys.database(sym("Staff")).unwrap();
            let mut db = db.write();
            let person = db.schema.class_by_name(sym("Person")).unwrap();
            db.create_index(person, sym("City")).unwrap();
        }
        let view = ViewDef::from_script(
            r#"
            create view V;
            import all classes from database Staff;
            class Londoner includes
                (select P from Person where P.City = "London" and P.Age >= 0);
            "#,
        )
        .unwrap()
        .binder(&sys)
        .bind()
        .unwrap();
        let count = |budget: ov_query::Budget| {
            ov_query::run_query_with_budget(&view, "count(Londoner)", budget.into())
        };
        let capped = count(ov_query::Budget::new().with_max_rows(2));
        assert!(
            matches!(capped, Err(ov_query::QueryError::ResourceExhausted(_))),
            "indexed={indexed}: {capped:?}"
        );
        assert_eq!(view.stats().index_pushdowns, u64::from(indexed));
        assert_eq!(count(ov_query::Budget::new()).unwrap(), Value::Int(3));
    }
}
