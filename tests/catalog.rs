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
    let stack = [sym("Adults"), sym("Earners"), sym("Top")];
    let stats = |s: &Session| stack.map(|v| s.view(v).unwrap().stats());
    let counts = |s: &Session| stats(s).map(|v| (v.incremental_updates, v.recomputations));
    // Warm every level: each class is populated once, by the view that
    // declares it — `Adult` in `Adults`, `Rich` in `Earners`, `Elite` in
    // `Top` — not once per view that reads it.
    assert_eq!(s.query(sym("Top"), "count(Elite)").unwrap(), Value::Int(1));
    let warm = stats(&s);
    assert_eq!(
        warm.map(|v| v.recomputations),
        [1, 1, 1],
        "one cold population of Adult/Rich/Elite per owner"
    );
    // One base write: Tony gets a raise into Rich (but stays under 60).
    // The write itself refreshes nothing: no view counter moves.
    s.focus(sym("Staff")).unwrap();
    s.execute("name tony = #3; set tony.Income = 150;").unwrap();
    assert_eq!(stats(&s), warm, "the write moved a view");
    // The read that needs `Rich` delta-retests the changed oid in each
    // view it reaches — `Rich` in `Earners` and the `Adult` it draws from
    // in `Adults` — and recomputes nothing anywhere in the stack.
    let e = s.explain(sym("Top"), "count(Rich)").unwrap();
    assert!(e.contains("population Rich: Delta{retested=1}"), "got: {e}");
    assert!(
        e.contains("population Adult: Delta{retested=1}"),
        "got: {e}"
    );
    assert!(!e.contains("FullRecompute"), "got: {e}");
    assert_eq!(s.query(sym("Top"), "count(Rich)").unwrap(), Value::Int(2));
    assert_eq!(counts(&s), [(1, 1), (1, 1), (0, 1)], "{:?}", stats(&s));
    // `Elite` follows on its own first read, by the same one retest: one
    // delta per view.
    assert_eq!(s.query(sym("Top"), "count(Elite)").unwrap(), Value::Int(1));
    assert_eq!(counts(&s), [(1, 1); 3], "{:?}", stats(&s));
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
    // Warm the three populations, one in each view, each by the view that
    // declares it — the explicit warm-up, which nothing calls on a write.
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
    // needs (`Elite`, `Rich`, `Adult`), each in the view that declares it,
    // and no recompute.
    s.focus(sym("Top")).unwrap();
    assert_eq!(one(&mut s, "count(Elite);"), Outcome::Value(Value::Int(2)));
    let read = stats(&s);
    for (read, warm) in read.iter().zip(&warm) {
        assert_eq!(
            (read.incremental_updates, read.recomputations),
            (warm.incremental_updates + 1, warm.recomputations),
            "{read:?}"
        );
    }

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

/// One identity table per imaginary class: `Home` is declared by `V`, and
/// `W` over `V` reads `V`'s table, so a core tuple has one oid through
/// either view — also after the durable session is closed and reopened.
/// `W` reads its own imaginary class first: two tables filled from the
/// same start in the same order would coincide by accident.
#[test]
fn an_imaginary_class_has_one_oid_per_tuple_through_the_stack() {
    let dir = std::env::temp_dir().join(format!("ov-catalog-{}-identity", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let homes = |s: &Session, view: &str| {
        s.query(sym(view), "select [O: H, City: H.City] from H in Home")
            .unwrap()
    };
    let before = {
        let mut s = Session::open(&dir, Durability::WalSync).unwrap();
        s.execute(
            r#"
            database Staff;
            class Person type [Name: string, City: string];
            object #1 in Person value [Name: "Maggy", City: "Paris"];
            object #2 in Person value [Name: "Tony", City: "Rome"];
            object #3 in Person value [Name: "Bart", City: "Paris"];
            create view V;
            import all classes from database Staff;
            class Home includes imaginary (select [City: P.City] from P in Person);
            create view W;
            import all classes from view V;
            class Tag includes imaginary (select [Name: P.Name] from P in Person);
            "#,
        )
        .unwrap();
        assert_eq!(s.query(sym("W"), "count(Tag)").unwrap(), Value::Int(3));
        let through_w = homes(&s, "W");
        assert_eq!(through_w.as_set().map(|h| h.len()), Some(2));
        assert_eq!(homes(&s, "V"), through_w);
        through_w
    };
    let s = Session::open(&dir, Durability::WalSync).unwrap();
    assert_eq!(s.query(sym("W"), "count(Tag)").unwrap(), Value::Int(3));
    assert_eq!(homes(&s, "W"), before, "through W, reopened");
    assert_eq!(homes(&s, "V"), before, "through V, reopened");
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A class reads the same through every view of a stack: by the
/// definitions of the view that declares it. `W` redefines `Grown`, which
/// `V`'s `Adult` filter reads; `Adult` through `W` is `V`'s `Adult`, while
/// `W`'s own reads of `Grown` take `W`'s definition.
#[test]
fn a_class_reads_by_the_definitions_of_the_view_that_declares_it() {
    let mut s = staff_session();
    s.execute(
        r#"
        create view V;
        import all classes from database Staff;
        attribute Grown in class Person has value self.Age >= 21;
        class Adult includes (select P from Person where P.Grown);
        create view W;
        import all classes from view V;
        attribute Grown in class Person has value self.Age >= 60;
        "#,
    )
    .unwrap();
    let adults = |view: &str| s.query(sym(view), "select A.Name from A in Adult").unwrap();
    let through_w = adults("W");
    assert_eq!(through_w, adults("V"));
    assert_eq!(
        through_w,
        Value::set([Value::str("Maggy"), Value::str("Tony")])
    );
    assert_eq!(
        s.query(sym("W"), "select P.Name from P in Person where P.Grown")
            .unwrap(),
        Value::set([Value::str("Maggy")])
    );
}

/// §5.1 identity is the system's, not the bound view's: in an in-memory
/// session, `Household` keeps every oid across each way its view is
/// rebound — a view statement, base DDL that revalidates it,
/// `redefine_view`, and a revalidation that fails and rolls back — and
/// `W`, stacked on `V`, reads `V`'s oids after `V` is redefined.
#[test]
fn a_rebind_keeps_every_imaginary_oid() {
    let mut s = staff_session();
    s.execute(
        r#"
        create view V;
        import all classes from database Staff;
        class Household includes imaginary (select [Age: P.Age] from P in Person);
        create view W;
        import all classes from view V;
        class Grown includes (select H from Household where H.Age >= 21);
        "#,
    )
    .unwrap();
    let households = |s: &Session, view: &str| {
        s.query(sym(view), "select [O: H, Age: H.Age] from H in Household")
            .unwrap()
    };
    let before = households(&s, "V");
    assert_eq!(before.as_set().map(|h| h.len()), Some(3));
    let unchanged = |s: &Session, after: &str| {
        assert_eq!(households(s, "V"), before, "through V, after {after}");
        assert_eq!(households(s, "W"), before, "through W, after {after}");
    };
    unchanged(&s, "binding W");

    s.focus(sym("V")).unwrap();
    s.execute("attribute Tag in class Person has value 1;")
        .unwrap();
    unchanged(&s, "a view statement");

    let outcome = s
        .catalog()
        .define_class("Staff", "class Pet type [Name: string];")
        .unwrap();
    assert!(matches!(
        outcome,
        DdlOutcome::Revalidated { dependents: 2, .. }
    ));
    unchanged(&s, "base DDL");

    let redefined = ViewDef::from_script(
        "create view V; \
         import all classes from database Staff; \
         class Household includes imaginary (select [Age: P.Age] from P in Person); \
         class Adult includes (select P from Person where P.Age >= 21);",
    )
    .unwrap();
    s.catalog().redefine_view(redefined).unwrap();
    unchanged(&s, "redefine_view");

    // `W` reads `Household`, so renaming it fails W's revalidation.
    let breaking = ViewDef::from_script(
        "create view V; \
         import all classes from database Staff; \
         class Home includes imaginary (select [Age: P.Age] from P in Person);",
    )
    .unwrap();
    let err = s.catalog().redefine_view(breaking).unwrap_err();
    assert!(matches!(err, ViewError::RevalidationFailed { .. }), "{err}");
    unchanged(&s, "a failed revalidation");
}

/// An imaginary oid is an object only through the view that declares its
/// class and the views stacked on that one. `U` and `W` declare `Home`
/// alike, and neither reads the other: `U`'s objects are not `W`'s.
#[test]
fn an_imaginary_oid_is_an_object_only_through_its_owners_stack() {
    let mut s = staff_session();
    s.execute(
        r#"
        create view U;
        import all classes from database Staff;
        class Home includes imaginary (select [Age: P.Age] from P in Person);
        create view W;
        import all classes from database Staff;
        class Home includes imaginary (select [Age: P.Age] from P in Person);
        "#,
    )
    .unwrap();
    let (u, w) = (s.view(sym("U")).unwrap(), s.view(sym("W")).unwrap());
    let theirs = u.extent_of(sym("Home")).unwrap();
    let mine = w.extent_of(sym("Home")).unwrap();
    assert_eq!((theirs.len(), mine.len()), (3, 3));
    for &oid in &mine {
        assert!(w.object_exists(oid));
        assert!(!theirs.contains(&oid), "two classes share {oid}");
    }
    for &oid in &theirs {
        assert!(u.object_exists(oid));
        assert!(!w.object_exists(oid), "{oid} is U's, not W's");
        assert!(w.attr(oid, sym("Age")).is_err());
    }
}

/// A base whose view reads `P.Age` as an integer.
const AGES: &str = r#"
database A;
class P type [Name: string, Age: integer];
insert P value [Name: "alice", Age: 30];
create view V;
import all classes from database A;
class Adult includes (select X from X in P where X.Age >= 21);
"#;

/// A run that `V` cannot follow: `Age` becomes a string-valued attribute.
const AGE_BECOMES_TEXT: &str = r#"database A; attribute Age in class P has value "old";"#;

/// Runs `AGE_BECOMES_TEXT` on a session loaded with `AGES`: the run is
/// refused, nothing of it applies, and the base and `V` agree.
fn refuse_the_change_to_age(s: &mut Session) {
    let err = s.execute(AGE_BECOMES_TEXT).unwrap_err();
    assert!(
        matches!(
            err,
            ViewError::RevalidationFailed { changed, base: true, dependent, .. }
                if (changed, dependent) == (sym("A"), sym("V"))
        ),
        "{err}"
    );
    assert!(
        err.to_string()
            .starts_with("change to database `A` refused: dependent view `V` failed"),
        "{err}"
    );
    let ages =
        |s: &Session, target: &str| s.query(sym(target), "select X.Age from X in P").unwrap();
    assert_eq!(ages(s, "A"), Value::set([Value::Int(30)]));
    assert_eq!(ages(s, "V"), ages(s, "A"));
    s.execute(r#"insert P value [Name: "bob", Age: 40];"#)
        .unwrap();
    assert_eq!(ages(s, "A"), Value::set([Value::Int(30), Value::Int(40)]));
    assert_eq!(ages(s, "V"), ages(s, "A"));
    assert_eq!(s.query(sym("V"), "count(Adult)").unwrap(), Value::Int(2));
}

/// A base schema change that a dependent view cannot follow is refused
/// before it applies, in memory: the base keeps its integer `Age` and
/// takes the insert, and the view reads what the base holds.
#[test]
fn a_base_change_a_dependent_cannot_follow_is_refused_whole() {
    let mut s = Session::new();
    s.execute(AGES).unwrap();
    refuse_the_change_to_age(&mut s);
    // A refused run applies none of its statements, data ones included.
    let err = s
        .execute(r#"database A; insert P value [Name: "carl", Age: 50]; attribute Age in class P has value "old";"#)
        .unwrap_err();
    assert!(matches!(err, ViewError::RevalidationFailed { .. }), "{err}");
    assert_eq!(s.query(sym("A"), "count(P)").unwrap(), Value::Int(2));
    // A run whose own declaration fails is refused whole too.
    let err = s
        .execute(r#"database A; insert P value [Name: "dora", Age: 60]; class Q inherits Nope type [N: integer];"#)
        .unwrap_err();
    assert!(err.to_string().contains("Nope"), "{err}");
    assert_eq!(s.query(sym("A"), "count(P)").unwrap(), Value::Int(2));
    // A view redefinition that a dependent cannot follow is rolled back,
    // and says so.
    s.execute("create view W; import all classes from view V; class Old includes (select X from Adult where X.Age >= 35);")
        .unwrap();
    let renamed = ViewDef::from_script(
        "create view V; import all classes from database A; \
         class Grown includes (select X from X in P where X.Age >= 21);",
    )
    .unwrap();
    let err = s.catalog().redefine_view(renamed).unwrap_err();
    assert!(
        err.to_string()
            .starts_with("redefinition of `V` rolled back: dependent view `W` failed"),
        "{err}"
    );
    assert_eq!(s.query(sym("W"), "count(Old)").unwrap(), Value::Int(1));
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ov-catalog-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The refused change of a durable session logs nothing — the WAL holds
/// as many records as before it — and the root reopens with `V` bound.
#[test]
fn a_refused_base_change_logs_nothing_and_the_root_reopens() {
    let dir = scratch("refused");
    {
        let mut s = Session::open(&dir, Durability::Wal).unwrap();
        s.execute(AGES).unwrap();
        let records = |s: &Session| s.wal_status()[0].1.records_since_reset;
        let before = records(&s);
        let err = s.execute(AGE_BECOMES_TEXT).unwrap_err();
        assert!(matches!(err, ViewError::RevalidationFailed { .. }), "{err}");
        assert_eq!(records(&s), before, "a refused run reached the WAL");
        refuse_the_change_to_age(&mut s);
    }
    let s = Session::open(&dir, Durability::Wal).expect("the root reopens");
    assert!(s.unbound_views().is_empty());
    let ages = |target: &str| s.query(sym(target), "select X.Age from X in P").unwrap();
    assert_eq!(ages("A"), Value::set([Value::Int(30), Value::Int(40)]));
    assert_eq!(ages("V"), ages("A"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A root whose `views.ovq` holds a view that no longer binds (written
/// here by hand, as a build without the refusal could leave it) opens: the
/// report names that view and the one stacked on it, the other views
/// bind, and both definitions survive a checkpoint and a reopen until a
/// `create view` replaces the first.
#[test]
fn a_root_with_a_view_that_no_longer_binds_opens_with_a_report() {
    let (dir, v, w) = root_with_unbound_views("unbound");
    let expected = vec![
        (
            sym("V"),
            "type error: cannot order string and integer".to_string(),
        ),
        (
            sym("W"),
            "view `V` is unbound: type error: cannot order string and integer".to_string(),
        ),
    ];
    {
        let s = Session::open(&dir, Durability::Wal).expect("a view never fails the open");
        assert_eq!(unbound(&s), expected);
        assert_eq!(s.view_names(), vec![sym("U")]);
        assert_eq!(s.query(sym("U"), "count(P)").unwrap(), Value::Int(1));
        assert!(s
            .describe()
            .contains("view W: unbound: view `V` is unbound"));
        s.checkpoint().unwrap();
    }
    let text = std::fs::read_to_string(dir.join("views.ovq")).unwrap();
    assert!(text.contains(&v) && text.contains(&w), "{text}");
    let mut s = Session::open(&dir, Durability::Wal).unwrap();
    assert_eq!(unbound(&s), expected);
    // `create view V` replaces the kept definition, and `W`, which imports
    // it, is staged again in the same commit: it binds and answers at once.
    s.execute(
        "create view V; import all classes from database A; \
         attribute Age in class P has value 70; \
         class Adult includes (select X from X in P where X.Age >= 21);",
    )
    .unwrap();
    assert_eq!(unbound(&s), vec![]);
    assert_eq!(s.query(sym("W"), "count(Old)").unwrap(), Value::Int(1));
    let text = std::fs::read_to_string(dir.join("views.ovq")).unwrap();
    assert!(!text.contains(&v) && text.contains(&w), "{text}");
    drop(s);
    let s = Session::open(&dir, Durability::Wal).unwrap();
    assert_eq!(unbound(&s), vec![]);
    assert_eq!(s.view_names(), vec![sym("U"), sym("V"), sym("W")]);
    assert_eq!(s.query(sym("W"), "count(Old)").unwrap(), Value::Int(1));
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable root whose `views.ovq` holds `V`, which no longer binds to
/// base `A`, `W`, which imports `V`, and `U`, which binds. Returns the root
/// and the scripts of `V` and `W`.
fn root_with_unbound_views(name: &str) -> (std::path::PathBuf, String, String) {
    let dir = scratch(name);
    {
        let mut s = Session::open(&dir, Durability::Wal).unwrap();
        s.execute(
            r#"database A; class P type [Name: string]; attribute Age in class P has value "old";
               insert P value [Name: "alice"];"#,
        )
        .unwrap();
    }
    let def = |src: &str| ViewDef::from_script(src).unwrap().to_script();
    let v = def("create view V; import all classes from database A; \
                 class Adult includes (select X from X in P where X.Age >= 21);");
    let w = def("create view W; import all classes from view V; \
                 class Old includes (select X from Adult where X.Age >= 60);");
    let u = def("create view U; import all classes from database A;");
    let script = format!("{v}{w}{u}");
    std::fs::write(
        dir.join("views.ovq"),
        objects_and_views::oodb::wrap_checked(&script),
    )
    .unwrap();
    (dir, v, w)
}

/// The kept unbound definitions of `s`, each with its cause.
fn unbound(s: &Session) -> Vec<(Symbol, String)> {
    s.unbound_views()
        .iter()
        .map(|u| (u.def.name, u.cause.to_string()))
        .collect()
}

/// A kept unbound definition is dropped like a bound view, RESTRICT: not
/// while another definition imports it. Once dropped it is not written
/// back, so a reopen reports neither view.
#[test]
fn a_kept_unbound_definition_drops_restrict() {
    let (dir, v, w) = root_with_unbound_views("drop-unbound");
    let mut s = Session::open(&dir, Durability::Wal).unwrap();
    assert_eq!(unbound(&s).len(), 2);
    assert_eq!(
        s.catalog().drop_view("V").unwrap(),
        DdlOutcome::Rejected {
            name: sym("V"),
            dependents: vec![sym("W")]
        }
    );
    assert_eq!(
        s.catalog().drop_view("W").unwrap(),
        DdlOutcome::Dropped(sym("W"))
    );
    assert_eq!(
        s.catalog().drop_view("V").unwrap(),
        DdlOutcome::Dropped(sym("V"))
    );
    assert!(s.catalog().drop_view("V").is_err(), "dropped twice");
    let text = std::fs::read_to_string(dir.join("views.ovq")).unwrap();
    assert!(!text.contains(&v) && !text.contains(&w), "{text}");
    drop(s);
    let s = Session::open(&dir, Durability::Wal).unwrap();
    assert_eq!(unbound(&s), vec![]);
    assert_eq!(s.view_names(), vec![sym("U")]);
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The candidate a base change is validated against keeps the named
/// objects: a dependent whose population reads one keeps binding across an
/// unrelated class declaration, which is not refused.
#[test]
fn a_dependent_reading_a_named_object_follows_an_unrelated_change() {
    let mut s = staff_session();
    s.execute(
        "database Staff; name maggy = #1; \
         create view V; import all classes from database Staff; \
         class Older includes (select P from Person where P.Age > maggy.Age - 40);",
    )
    .unwrap();
    assert_eq!(s.query(sym("V"), "count(Older)").unwrap(), Value::Int(2));
    let outcome = s
        .catalog()
        .define_class("Staff", "class Pet type [Name: string];")
        .unwrap();
    assert_eq!(
        outcome,
        DdlOutcome::Revalidated {
            changed: sym("Staff"),
            dependents: 1,
        }
    );
    assert_eq!(s.query(sym("V"), "count(Older)").unwrap(), Value::Int(2));
}

/// A stacked view types an upstream class as the view that declares it
/// bound it. `V` declares `C includes like P` over database `A`; `W`
/// imports `V` and database `B`, whose `Q` conforms to `P`. `C`'s
/// population is `V`'s, which holds no `Q` object, so in `W` a `Q` object
/// is not `isa C` either, and `Q` is not placed below `C`.
#[test]
fn a_stacked_view_types_an_upstream_class_as_its_owner_does() {
    let mut s = Session::new();
    s.execute(
        r#"
        database A;
        class P type [Name: string];
        insert P value [Name: "p"];
        database B;
        class Q type [Name: string, Size: integer];
        insert Q value [Name: "q", Size: 1];
        create view V;
        import all classes from database A;
        class C includes like P;
        create view W;
        import all classes from view V;
        import all classes from database B;
        "#,
    )
    .unwrap();
    let count = |q: &str| s.query(sym("W"), q).unwrap();
    assert_eq!(
        count("count(select X from X in C where X isa Q)"),
        Value::Int(0)
    );
    assert_eq!(
        count("count(select X from X in Q where X isa C)"),
        Value::Int(0)
    );
    assert_eq!(count("count(C)"), Value::Int(1));
    let w = s.view(sym("W")).unwrap();
    assert!(!w.parents_of(sym("Q")).unwrap().contains(&sym("C")));
    assert!(w.is_subclass_by_name(sym("P"), sym("C")).unwrap());
}

/// A template a view below declares is instantiated there and its instance
/// copied: through `W`, `Grown(21)` has the members and parents it has in
/// `V`, and another argument makes another instance.
#[test]
fn a_stacked_view_copies_an_upstream_template_instance() {
    let mut s = staff_session();
    s.execute(
        r#"
        create view V;
        import all classes from database Staff;
        class Grown(N) includes (select P from Person where P.Age >= N);
        create view W;
        import all classes from view V;
        "#,
    )
    .unwrap();
    let names = |view: &str| {
        s.query(sym(view), r#"select G.Name from G in Grown(21)"#)
            .unwrap()
    };
    assert_eq!(names("W"), names("V"));
    assert_eq!(
        names("W"),
        Value::set([Value::str("Maggy"), Value::str("Tony")])
    );
    let (v, w) = (s.view(sym("V")).unwrap(), s.view(sym("W")).unwrap());
    let class = sym("Grown(21)");
    assert_eq!(w.parents_of(class).unwrap(), v.parents_of(class).unwrap());
    assert_eq!(
        s.query(sym("W"), "count(Grown(60))").unwrap(),
        Value::Int(1)
    );
}
