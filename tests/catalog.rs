//! Integration tests for the view dependency graph and the typed catalog
//! DDL API: views stacked on views, cycle rejection at bind time,
//! RESTRICT drops, atomic revalidation with rollback, and topological
//! (dependents-only) propagation of base schema changes.

use objects_and_views::oodb::sym;
use objects_and_views::prelude::*;
use objects_and_views::views::ViewError;

fn staff_session() -> Session {
    let mut s = Session::new();
    s.execute(
        r#"
        database Staff;
        class Person type [Name: string, Age: integer, Income: integer];
        object #1 in Person value [Name: "Maggy", Age: 66, Income: 120];
        object #2 in Person value [Name: "Bart", Age: 10, Income: 0];
        object #3 in Person value [Name: "Tony", Age: 30, Income: 80];
        "#,
    )
    .unwrap();
    s
}

/// Staff → Adults(Adult) → Earners(Rich) → Top(Elite): a 3-deep stack.
fn stacked_session() -> Session {
    let mut s = staff_session();
    s.execute(
        r#"
        create view Adults;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        create view Earners;
        import all classes from view Adults;
        class Rich includes (select A from Adult where A.Income >= 100);
        create view Top;
        import all classes from view Earners;
        class Elite includes (select R from Rich where R.Age >= 60);
        "#,
    )
    .unwrap();
    s
}

#[test]
fn views_stack_three_levels_deep() {
    let s = stacked_session();
    assert_eq!(
        s.query(sym("Adults"), "count(Adult)").unwrap(),
        Value::Int(2)
    );
    assert_eq!(
        s.query(sym("Earners"), "count(Rich)").unwrap(),
        Value::Int(1)
    );
    assert_eq!(
        s.query(sym("Top"), "select E.Name from E in Elite")
            .unwrap(),
        Value::set([Value::str("Maggy")])
    );
}

#[test]
fn dependency_graph_tracks_the_stack() {
    let s = stacked_session();
    let g = s.dependency_graph();
    assert_eq!(
        g.transitive_dependents(DepTarget::Database(sym("Staff"))),
        vec![sym("Adults"), sym("Earners"), sym("Top")]
    );
    assert_eq!(
        g.transitive_dependents(DepTarget::View(sym("Earners"))),
        vec![sym("Top")]
    );
    // Edges carry the class names actually read.
    let deps = s.view(sym("Earners")).unwrap().dependencies().to_vec();
    assert!(deps
        .iter()
        .any(|e| { e.on == DepTarget::View(sym("Adults")) && e.classes.contains(&sym("Adult")) }));
}

#[test]
fn describe_and_explain_surface_dependencies() {
    let s = stacked_session();
    let d = s.describe();
    assert!(d.contains("depends on database Staff"), "got: {d}");
    assert!(
        d.contains("depends on view Adults (reads Adult"),
        "got: {d}"
    );
    assert!(d.contains("health: healthy"), "got: {d}");
    let e = s.explain(sym("Earners"), "count(Rich)").unwrap();
    assert!(e.contains("depends:   view Adults"), "got: {e}");
}

#[test]
fn self_import_rejected() {
    let mut s = staff_session();
    s.execute("create view Loop;").unwrap();
    let err = s.execute("import all classes from view Loop;").unwrap_err();
    assert!(
        matches!(err, ViewError::CyclicViewDependency { view, .. } if view == sym("Loop")),
        "got: {err}"
    );
    // The failed statement rolled back; the session stays usable.
    s.execute("import all classes from database Staff;")
        .unwrap();
    assert_eq!(
        s.query(sym("Loop"), "count(Person)").unwrap(),
        Value::Int(3)
    );
}

#[test]
fn three_node_cycle_rejected_on_redefinition() {
    let mut s = stacked_session();
    // Redefine Adults to read Top: would close Adults → Top → Earners →
    // Adults.
    let candidate =
        ViewDef::from_script("create view Adults; import all classes from view Top;").unwrap();
    let err = s.catalog().redefine_view(candidate).unwrap_err();
    assert!(
        matches!(err, ViewError::CyclicViewDependency { .. }),
        "got: {err}"
    );
    // Nothing changed: the stack still answers.
    assert_eq!(s.query(sym("Top"), "count(Elite)").unwrap(), Value::Int(1));
}

#[test]
fn drop_view_is_restricted_by_dependents() {
    let mut s = stacked_session();
    let outcome = s.catalog().drop_view("Adults").unwrap();
    assert_eq!(
        outcome,
        DdlOutcome::Rejected {
            name: sym("Adults"),
            dependents: vec![sym("Earners")],
        }
    );
    // Rejected means untouched.
    assert_eq!(
        s.query(sym("Adults"), "count(Adult)").unwrap(),
        Value::Int(2)
    );
    // Dropping from the top down works.
    assert_eq!(
        s.catalog().drop_view("Top").unwrap(),
        DdlOutcome::Dropped(sym("Top"))
    );
    assert_eq!(
        s.catalog().drop_view("Earners").unwrap(),
        DdlOutcome::Dropped(sym("Earners"))
    );
    assert_eq!(
        s.catalog().drop_view("Adults").unwrap(),
        DdlOutcome::Dropped(sym("Adults"))
    );
    assert!(s.view(sym("Adults")).is_none());
    assert!(s.catalog().drop_view("Adults").is_err());
}

#[test]
fn redefinition_revalidates_dependents_atomically() {
    let mut s = stacked_session();
    // Renaming Adult → Grown breaks Earners (`select A from Adult …`), so
    // the whole redefinition must roll back.
    let bad = ViewDef::from_script(
        "create view Adults; \
         import all classes from database Staff; \
         class Grown includes (select P from Person where P.Age >= 21);",
    )
    .unwrap();
    let err = s.catalog().redefine_view(bad).unwrap_err();
    let ViewError::RevalidationFailed {
        changed, dependent, ..
    } = &err
    else {
        panic!("expected RevalidationFailed, got: {err}");
    };
    assert_eq!((*changed, *dependent), (sym("Adults"), sym("Earners")));
    // Rolled back: the old definition (and the whole stack) still serves.
    assert_eq!(
        s.query(sym("Adults"), "count(Adult)").unwrap(),
        Value::Int(2)
    );
    assert_eq!(s.query(sym("Top"), "count(Elite)").unwrap(), Value::Int(1));

    // A compatible redefinition commits and reports its blast radius.
    let good = ViewDef::from_script(
        "create view Adults; \
         import all classes from database Staff; \
         class Adult includes (select P from Person where P.Age >= 18);",
    )
    .unwrap();
    assert_eq!(
        s.catalog().redefine_view(good).unwrap(),
        DdlOutcome::Revalidated {
            changed: sym("Adults"),
            dependents: 2,
        }
    );
    assert_eq!(s.query(sym("Top"), "count(Elite)").unwrap(), Value::Int(1));
}

#[test]
fn define_class_revalidates_the_database_dependents() {
    let mut s = stacked_session();
    let outcome = s
        .catalog()
        .define_class(
            "Staff",
            "attribute Doubled in class Person has value self.Age * 2;",
        )
        .unwrap();
    assert_eq!(
        outcome,
        DdlOutcome::Revalidated {
            changed: sym("Staff"),
            dependents: 3,
        }
    );
    // The new attribute is visible through every level of the stack.
    assert_eq!(
        s.query(sym("Top"), "select E.Doubled from E in Elite")
            .unwrap(),
        Value::set([Value::Int(132)])
    );
    // Non-DDL statements are refused by the typed API.
    assert!(s
        .catalog()
        .define_class("Staff", "insert Person value [Name: \"X\"];")
        .is_err());
}

#[test]
fn unrelated_views_keep_their_caches_across_schema_changes() {
    let mut s = staff_session();
    s.execute(
        r#"
        database Extra;
        class Thing type [Label: string];
        "#,
    )
    .unwrap();
    s.execute(
        "create view VStaff; import all classes from database Staff; \
         class Adult includes (select P from Person where P.Age >= 21);",
    )
    .unwrap();
    // Warm VStaff's population cache.
    assert_eq!(
        s.query(sym("VStaff"), "count(Adult)").unwrap(),
        Value::Int(2)
    );
    let stats = s.view(sym("VStaff")).unwrap().stats();
    assert_eq!(stats.recomputations, 1);
    // A schema change on the *unrelated* database must not rebind VStaff:
    // its bound state (and warm cache) survives. Before the dependency
    // graph, every schema change rebound every view, zeroing this.
    s.focus(sym("Extra")).unwrap();
    s.execute("attribute Tag in class Thing has value self.Label;")
        .unwrap();
    let stats = s.view(sym("VStaff")).unwrap().stats();
    assert_eq!(stats.recomputations, 1, "VStaff was rebound unnecessarily");
    assert_eq!(
        s.query(sym("VStaff"), "count(Adult)").unwrap(),
        Value::Int(2)
    );
    let stats = s.view(sym("VStaff")).unwrap().stats();
    assert_eq!(stats.recomputations, 1);
    assert!(stats.cache_hits >= 1, "expected a warm cache hit");
    // A schema change on Staff *does* revalidate VStaff.
    s.focus(sym("Staff")).unwrap();
    s.execute("attribute Tripled in class Person has value self.Age * 3;")
        .unwrap();
    assert_eq!(
        s.query(
            sym("VStaff"),
            "select A.Tripled from A in Adult where A.Age > 60"
        )
        .unwrap(),
        Value::set([Value::Int(198)])
    );
}

#[test]
fn save_restores_stacked_views_in_dependency_order() {
    let s = stacked_session();
    let script = s.save();
    let mut restored = Session::new();
    restored
        .execute(&script)
        .unwrap_or_else(|e| panic!("restore failed: {e}\n{script}"));
    assert_eq!(
        restored.query(sym("Top"), "count(Elite)").unwrap(),
        Value::Int(1)
    );
    // Fixpoint: saving the restored session reproduces the same script.
    assert_eq!(restored.save(), script);
}

#[test]
fn catalog_defines_databases_classes_and_views() {
    let mut s = Session::new();
    assert_eq!(
        s.catalog().create_database("Navy").unwrap(),
        DdlOutcome::Defined(sym("Navy"))
    );
    // Idempotent.
    assert_eq!(
        s.catalog().create_database("Navy").unwrap(),
        DdlOutcome::Defined(sym("Navy"))
    );
    assert_eq!(
        s.catalog()
            .define_class("Navy", "class Ship type [Name: string];")
            .unwrap(),
        DdlOutcome::Revalidated {
            changed: sym("Navy"),
            dependents: 0,
        }
    );
    let def =
        ViewDef::from_script("create view Fleet; import all classes from database Navy;").unwrap();
    assert_eq!(
        s.catalog().define_view(def.clone()).unwrap(),
        DdlOutcome::Defined(sym("Fleet"))
    );
    // Duplicate definition is an error; so is redefining the unknown.
    assert!(s.catalog().define_view(def).is_err());
    let other = ViewDef::from_script("create view Ghost;").unwrap();
    assert!(s.catalog().redefine_view(other).is_err());
    // Read accessors.
    assert_eq!(
        s.catalog().dependents(DepTarget::Database(sym("Navy"))),
        vec![sym("Fleet")]
    );
    assert!(s.catalog().dependencies("Fleet").is_some());
    assert!(s.catalog().dependencies("Ghost").is_none());
}

#[test]
fn base_write_delta_propagates_through_the_stack() {
    let mut s = Session::new();
    s.execute(
        r#"
        database Staff;
        class Person type [Name: string, Age: integer, Income: integer];
        object #1 in Person value [Name: "Maggy", Age: 66, Income: 120];
        object #2 in Person value [Name: "Bart", Age: 10, Income: 0];
        object #3 in Person value [Name: "Tony", Age: 30, Income: 80];
        "#,
    )
    .unwrap();
    s.execute(
        r#"
        create view Adults;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        create view Earners;
        import all classes from view Adults;
        class Rich includes (select A from Adult where A.Income >= 100);
        create view Top;
        import all classes from view Earners;
        class Elite includes (select R from Rich where R.Age >= 60);
        "#,
    )
    .unwrap();
    // Warm every level.
    assert_eq!(s.query(sym("Top"), "count(Elite)").unwrap(), Value::Int(1));
    let warm = s.view(sym("Top")).unwrap().stats();
    assert_eq!(
        warm.recomputations, 3,
        "cold population of Elite/Rich/Adult"
    );
    // One base write: Tony gets a raise into Rich (but stays under 60).
    // The write itself refreshes nothing: no view counter moves.
    s.focus(sym("Staff")).unwrap();
    s.execute("name tony = #3; set tony.Income = 150;").unwrap();
    assert_eq!(
        s.view(sym("Top")).unwrap().stats(),
        warm,
        "the write moved a view"
    );
    // The read that needs `Rich` delta-retests the changed oid at each
    // level it reaches — `Rich` and the `Adult` it draws from — and
    // recomputes nothing anywhere in the stack.
    let e = s.explain(sym("Top"), "count(Rich)").unwrap();
    assert!(e.contains("population Rich: Delta{retested=1}"), "got: {e}");
    assert!(
        e.contains("population Adult: Delta{retested=1}"),
        "got: {e}"
    );
    assert!(!e.contains("FullRecompute"), "got: {e}");
    assert_eq!(s.query(sym("Top"), "count(Rich)").unwrap(), Value::Int(2));
    let stats = s.view(sym("Top")).unwrap().stats();
    assert_eq!(
        stats.incremental_updates,
        warm.incremental_updates + 2,
        "{stats:?}"
    );
    assert_eq!(stats.recomputations, 3, "no FullRecompute: {stats:?}");
    // `Elite` follows on its own first read, by the same one retest.
    assert_eq!(s.query(sym("Top"), "count(Elite)").unwrap(), Value::Int(1));
    let stats = s.view(sym("Top")).unwrap().stats();
    assert_eq!(
        (stats.incremental_updates, stats.recomputations),
        (warm.incremental_updates + 3, 3),
        "{stats:?}"
    );
}

/// A statement on the focused *database* refreshes no view: a query
/// leaves every view's counters where they were, and so does a write. The
/// next read through a view finds the write by delta, as it finds a write
/// made behind the session's back.
#[test]
fn a_database_statement_refreshes_no_view_and_the_next_read_does() {
    let mut s = Session::new();
    s.execute(
        r#"
        database Staff;
        class Person type [Id: integer, Name: string, Age: integer, Income: integer];
        object #1 in Person value [Id: 1, Name: "Maggy", Age: 66, Income: 120];
        object #2 in Person value [Id: 2, Name: "Bart", Age: 10, Income: 0];
        object #3 in Person value [Id: 3, Name: "Tony", Age: 30, Income: 150];
        create view Adults;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        create view Earners;
        import all classes from view Adults;
        class Rich includes (select A from Adult where A.Income >= 100);
        create view Top;
        import all classes from view Earners;
        class Elite includes (select R from Rich where R.Age >= 60);
        "#,
    )
    .unwrap();
    let stack = [sym("Adults"), sym("Earners"), sym("Top")];
    let stats = |s: &Session| stack.map(|v| s.view(v).unwrap().stats());
    let one = |s: &mut Session, stmt: &str| s.execute(stmt).unwrap().pop().unwrap();
    // Warm all six populations (one in `Adults`, two in `Earners`, three
    // in `Top`: a stacked view expands its upstream's classes) — the
    // explicit warm-up, which nothing calls on a write.
    assert_eq!(s.propagate(sym("Staff")), 3);
    assert_eq!(s.query(sym("Top"), "count(Elite)").unwrap(), Value::Int(1));

    // The read: every counter of every view stays put.
    let warm = stats(&s);
    s.focus(sym("Staff")).unwrap();
    assert_eq!(
        one(&mut s, "select P.Name from P in Person where P.Id = 3;"),
        Outcome::Value(Value::set([Value::str("Tony")]))
    );
    assert_eq!(stats(&s), warm, "a database read touched a view");

    // The write (`#3` goes through the session's oid map): Tony turns 61
    // and enters Elite. It touches no view either...
    assert_eq!(one(&mut s, "set #3.Age = 61;"), Outcome::Done);
    assert_eq!(stats(&s), warm, "a database write touched a view");
    // ...so the read through `Top` finds it: one delta per population it
    // needs (`Elite`, `Rich`, `Adult`), no recompute, and no other view
    // moves.
    s.focus(sym("Top")).unwrap();
    assert_eq!(one(&mut s, "count(Elite);"), Outcome::Value(Value::Int(2)));
    let [adults_read, earners_read, top_read] = stats(&s);
    let [adults_warm, earners_warm, top_warm] = warm;
    assert_eq!((adults_read, earners_read), (adults_warm, earners_warm));
    assert_eq!(
        (top_read.incremental_updates, top_read.recomputations),
        (top_warm.incremental_updates + 3, top_warm.recomputations),
        "{top_read:?}"
    );

    // A write made directly on the `Database`: a session read of the
    // database does not warm the views as a side effect, and the view's
    // own read still sees the write.
    let Value::Oid(bart) = s
        .query(sym("Staff"), "select the P from P in Person where P.Id = 2")
        .unwrap()
    else {
        panic!("Bart is an object");
    };
    let staff = s.system().database(sym("Staff")).unwrap();
    staff
        .write()
        .set_attr(bart, sym("Age"), Value::Int(40))
        .unwrap();
    let behind = stats(&s);
    s.focus(sym("Staff")).unwrap();
    assert_eq!(one(&mut s, "count(Person);"), Outcome::Value(Value::Int(3)));
    assert_eq!(stats(&s), behind);
    s.focus(sym("Top")).unwrap();
    assert_eq!(one(&mut s, "count(Adult);"), Outcome::Value(Value::Int(3)));
}

/// Regression for the stale-`Elite` defect: retesting `Rich`'s delta asks
/// "is the object an `Adult`?", which used to walk `Adult`'s virtual
/// subclasses in hash-map order and could populate `Elite` under `Rich`'s
/// cycle guard, caching a population that missed the object. Hash order
/// varies per bind, hence the fresh sessions.
#[test]
fn delta_retest_keeps_members_of_a_subclass_of_the_populating_class() {
    for bind in 0..32 {
        let mut s = Session::with_options(
            ViewOptions::builder()
                .materialization(Materialization::Incremental)
                .build(),
        );
        s.execute(
            r#"
            database Staff;
            class Person type [Name: string, Age: integer, Income: integer];
            object #1 in Person value [Name: "Maggy", Age: 66, Income: 120];
            object #2 in Person value [Name: "Bart", Age: 10, Income: 0];
            object #3 in Person value [Name: "Tony", Age: 30, Income: 80];
            name maggy = #1;
            create view Adults;
            import all classes from database Staff;
            class Adult includes (select P from Person where P.Age >= 21);
            create view Earners;
            import all classes from view Adults;
            class Rich includes (select A from Adult where A.Income >= 100);
            create view Top;
            import all classes from view Earners;
            class Elite includes (select R from Rich where R.Age >= 60);
            "#,
        )
        .unwrap();
        assert_eq!(s.query(sym("Top"), "count(Elite)").unwrap(), Value::Int(1));
        // Every write leaves Maggy in Adult, Rich and Elite.
        for write in [
            "set maggy.Age = 70;",
            "set maggy.Income = 130;",
            "set maggy.Age = 61;",
        ] {
            s.focus(sym("Staff")).unwrap();
            s.execute(write).unwrap();
            let recomputed = s
                .query(
                    sym("Top"),
                    "count((select P from P in Person \
                     where P.Age >= 21 and P.Income >= 100 and P.Age >= 60))",
                )
                .unwrap();
            assert_eq!(recomputed, Value::Int(1));
            assert_eq!(
                s.query(sym("Top"), "count(Elite)").unwrap(),
                recomputed,
                "bind {bind}, after `{write}`"
            );
        }
    }
}
