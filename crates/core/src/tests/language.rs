// Typing through views, schema errors, methods with arguments, and
// parameterized imaginary classes.

#[test]
fn queries_through_views_typecheck() {
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
    let q = ov_query::parse_select("select A.Name from A in Adult").unwrap();
    let ty = ov_query::infer_select(&view, &q).unwrap();
    assert_eq!(ty, ov_oodb::Type::set(ov_oodb::Type::Str));
    // Hidden attributes are invisible to the type checker too.
    let view2 = ViewDef::from_script(
        r#"
        create view V2;
        import all classes from database Staff;
        hide attribute Salary in class Employee;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let q = ov_query::parse_select("select E.Salary from E in Employee").unwrap();
    assert!(ov_query::infer_select(&view2, &q).is_err());
}

#[test]
fn unknown_import_targets_error() {
    let sys = people_system();
    assert!(matches!(
        ViewDef::from_script("create view V; import all classes from database Nope;")
            .unwrap()
            .binder(&sys)
            .bind(),
        Err(ViewError::Oodb(OodbError::UnknownDatabase(_)))
    ));
    assert!(matches!(
        ViewDef::from_script("create view V; import class Ghost from database Staff;")
            .unwrap()
            .binder(&sys)
            .bind(),
        Err(ViewError::Oodb(OodbError::UnknownClass(_)))
    ));
    assert!(matches!(
        ViewDef::from_script(
            "create view V; import all classes from database Staff; \
             hide attribute Wings in class Person;"
        )
        .unwrap()
        .binder(&sys)
        .bind(),
        Err(ViewError::Oodb(OodbError::UnknownAttr { .. }))
    ));
}

#[test]
fn non_object_population_rejected() {
    let sys = people_system();
    let err = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Bad includes (select [N: P.Name] from P in Person);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap_err();
    assert!(matches!(err, ViewError::NonObjectPopulation { .. }));
    let err = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Bad includes imaginary (select P from P in Person);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap_err();
    assert!(matches!(err, ViewError::NonTuplePopulation { .. }));
    let err = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Bad includes Person, imaginary (select [N: P.Name] from P in Person);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap_err();
    assert!(matches!(err, ViewError::MixedImaginary(_)));
}

#[test]
fn methods_with_arguments_work_through_views() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        attribute OlderThan(n: integer) in class Person has value self.Age > n;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(
        view.query("maggy.OlderThan(60)").unwrap(),
        Value::Bool(true)
    );
    assert_eq!(
        view.query("maggy.OlderThan(70)").unwrap(),
        Value::Bool(false)
    );
    assert_eq!(
        view.query("select P.Name from P in Person where P.OlderThan(69)")
            .unwrap(),
        Value::set([Value::str("Denis"), Value::str("Julia")])
    );
}

#[test]
fn bodiless_attribute_decl_requires_existing_stored() {
    let sys = people_system();
    // Re-declaring an existing stored attribute is fine.
    assert!(ViewDef::from_script(
        "create view V; import all classes from database Staff; \
         attribute Salary in class Employee;"
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .is_ok());
    // Declaring a brand-new stored attribute is not: views store nothing.
    let err = ViewDef::from_script(
        "create view V; import all classes from database Staff; \
         attribute Wings of type integer in class Person;",
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap_err();
    assert!(matches!(err, ViewError::Definition(_)));
}

#[test]
fn isa_conjuncts_contribute_superclasses() {
    // Like `P in Beautiful`, an `isa` conjunct proves membership and adds a
    // superclass (§4.2's type-system detection, the other spelling).
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Rich includes (select P from Person where P.Income >= 90000);
        class RichEmployee includes (select P from Rich where P isa Employee);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let mut parents = view.parents_of(sym("RichEmployee")).unwrap();
    parents.sort();
    assert_eq!(parents, vec![sym("Employee"), sym("Rich")]);
    // Only Boss is both rich and an employee.
    assert_eq!(
        view.query("select P.Name from P in RichEmployee").unwrap(),
        Value::set([Value::str("Boss")])
    );
}

#[test]
fn parameterized_imaginary_classes() {
    // Parameter substitution reaches inside imaginary includes too.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class StreetsOf(C) includes imaginary
            (select [Street: P.Street] from P in Person where P.City = C);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(
        view.query(r#"count(StreetsOf("London"))"#).unwrap(),
        Value::Int(1) // everyone in London lives on 10 Downing
    );
    assert_eq!(
        view.query(r#"count(StreetsOf("Paris"))"#).unwrap(),
        Value::Int(1)
    );
    // Identity is stable per instance and distinct across instances.
    let london = view.query(r#"StreetsOf("London")"#).unwrap();
    assert_eq!(view.query(r#"StreetsOf("London")"#).unwrap(), london);
    let paris = view.query(r#"StreetsOf("Paris")"#).unwrap();
    assert_ne!(london, paris);
}
