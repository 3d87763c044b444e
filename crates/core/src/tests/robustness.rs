// ----------------------------------------------------------------------
// Robustness (the tests that arm failpoints live in `tests/faults.rs`: the
// registry is process-wide, and an armed site fires in whatever test runs
// beside the one that armed it)
// ----------------------------------------------------------------------

#[test]
fn budget_breach_during_population_stays_typed() {
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
    let budget = std::sync::Arc::new(ov_query::Budget::new().with_max_steps(3));
    let err = ov_query::run_query_with_budget(&view, "count(Adult)", budget).unwrap_err();
    assert!(
        matches!(err, ov_query::QueryError::ResourceExhausted(_)),
        "budget breaches must not be retried or masked: {err}"
    );
}

#[test]
fn binder_stacks_views_programmatically() {
    let sys = people_system();
    let base = ViewDef::from_script(
        r#"
        create view Adults;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap();
    let upper = ViewDef::from_script(
        r#"
        create view Seniors;
        import all classes from view Adults;
        class Senior includes (select A from Adult where A.Age >= 65);
        "#,
    )
    .unwrap();
    let base = std::sync::Arc::new(base.binder(&sys).bind().unwrap());
    let view = upper.binder(&sys).over(&base).bind().unwrap();
    assert_eq!(view.query("count(Senior)").unwrap(), Value::Int(3));
    // The stacked view's definition reads only the upstream view; its
    // reach to database Staff is mediated by Adults (the dependency graph
    // closes over view edges transitively).
    let deps = view.dependencies();
    assert!(deps
        .iter()
        .any(|e| e.on == crate::graph::DepTarget::View(sym("Adults"))
            && e.classes.contains(&sym("Adult"))));
    assert!(!deps
        .iter()
        .any(|e| e.on == crate::graph::DepTarget::Database(sym("Staff"))));
    // A view import must take all classes; cherry-picking is base-only.
    let bad = ViewDef::new(sym("Partial")).import_class(sym("Adults"), sym("Adult"));
    assert!(bad.binder(&sys).over(&base).bind().is_err());
    // Importing an unknown upstream still reads as an unknown database.
    assert!(upper.binder(&sys).bind().is_err());
}

/// A stacked view types each upstream class as the view that declares it
/// bound it. On two three-level stacks — the benchmark's (`Adults` adds a
/// computed `Address` to the imported `Person`, `Top` hides `Street`) and
/// `prop_views`' (with an imaginary class and a class drawn from it) —
/// every class a view below declares has, at every level, the parents, own
/// attributes and types, kind and hidden flag it has in its declaring
/// view, and that view's hides hold there too. An imported class has what
/// it has in the level below, the attributes declared on it included.
#[test]
fn a_stacked_view_types_each_upstream_class_as_its_declaring_view() {
    const BENCH: &str = r#"
        database Staff;
        class Person type [Id: integer, Name: string, Age: integer, City: string,
                           Street: string, Income: integer];
        class Employee inherits Person type [Salary: integer];
        class Manager inherits Employee type [Budget: integer];
        create view Adults;
        import all classes from database Staff;
        attribute Address in class Person has value [City: self.City, Street: self.Street];
        class Adult includes (select P from P in Person where P.Age >= 21);
        create view Earners;
        import all classes from view Adults;
        class Rich includes (select A from A in Adult where A.Income >= 100000);
        create view Top;
        import all classes from view Earners;
        class Elite includes (select R from R in Rich where R.Age >= 60);
        hide attribute Street in class Person;
    "#;
    const PROP: &str = r#"
        database Staff;
        class Person type [Age: integer, Income: integer];
        class Boss type [Age: integer];
        object #1 in Boss value [Age: 50];
        name boss = #1;
        create view Adults;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        class Junior includes (select P from Person where P.Age < boss.Age);
        class Band includes imaginary (select [Age: P.Age] from P in Person where P.Age >= 21);
        class Seasoned includes (select B from B in Band where B.Age >= 60);
        create view Earners;
        import all classes from view Adults;
        class Rich includes (select A from Adult where A.Income >= 100);
        create view Top;
        import all classes from view Earners;
        class Elite includes (select R from Rich where R.Age >= 60);
    "#;
    const LEVELS: [&str; 3] = ["Adults", "Earners", "Top"];
    for (script, copies) in [(BENCH, [0, 1, 2]), (PROP, [0, 4, 5])] {
        let mut s = crate::Session::new();
        s.execute(script).unwrap();
        let typing = |view: &str| s.view(sym(view)).unwrap().typing();
        for (level, view) in LEVELS.iter().enumerate() {
            let (classes, hides) = typing(view);
            let mut copied = 0;
            for (class, (declarer, entry)) in &classes {
                let owner = match declarer {
                    Some(owner) if owner.as_str() == *view => continue,
                    Some(owner) => owner.as_str(),
                    None if level == 0 => continue,
                    None => LEVELS[level - 1],
                };
                let (theirs, their_hides) = typing(owner);
                assert_eq!(&theirs[class].1, entry, "{class} in {view}, as in {owner}");
                assert!(their_hides.is_subset(&hides), "{view} keeps the hides of {owner}");
                copied += usize::from(declarer.is_some());
            }
            assert_eq!(copied, copies[level], "upstream classes in {view}");
        }
    }
}

/// One owner per population: on a three-level stack read wholly through
/// its top view, each view holds a cache entry or delta-decided flag only
/// for the classes it declares — the top view reads the others from the
/// views below — and the system's identity tables key each imaginary class
/// by the view that declares it.
#[test]
fn each_class_is_held_by_the_view_that_declares_it() {
    let mut s = crate::Session::new();
    s.execute(
        r#"
        database Staff;
        class Person type [Name: string, Age: integer, City: string, Income: integer];
        object #1 in Person value [Name: "Maggy", Age: 66, City: "Paris", Income: 120];
        object #2 in Person value [Name: "Bart", Age: 10, City: "Rome", Income: 0];
        object #3 in Person value [Name: "Tony", Age: 30, City: "Paris", Income: 80];
        create view Adults;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        class Home includes imaginary (select [City: P.City] from P in Person);
        create view Earners;
        import all classes from view Adults;
        class Rich includes (select A from Adult where A.Income >= 100);
        create view Top;
        import all classes from view Earners;
        class Elite includes (select R from Rich where R.Age >= 60);
        class Tag includes imaginary (select [Name: E.Name] from E in Elite);
        "#,
    )
    .unwrap();
    for q in [
        "count(Adult)",
        "count(Rich)",
        "count(Elite)",
        "count(Home)",
        "count(Tag)",
    ] {
        s.query(sym("Top"), q).unwrap();
    }
    let held = |view: &str| {
        let names = s.view(sym(view)).unwrap().held_classes();
        names.iter().map(|n| n.to_string()).collect::<Vec<_>>()
    };
    assert_eq!(held("Adults"), ["Adult", "Home"]);
    assert_eq!(held("Earners"), ["Rich"]);
    assert_eq!(held("Top"), ["Elite", "Tag"]);
    let tables: std::collections::BTreeSet<(String, String)> = s
        .system()
        .identity()
        .entries()
        .iter()
        .map(|e| (e.view.to_string(), e.class.to_string()))
        .collect();
    let owners = [("Adults", "Home"), ("Top", "Tag")];
    assert_eq!(tables, owners.map(|(v, c)| (v.into(), c.into())).into());
}
