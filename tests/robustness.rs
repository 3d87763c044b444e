//! Failure injection: every misuse must fail with a precise error and
//! leave the system in a usable state.

use objects_and_views::oodb::{sym, OodbError, System, Value};
use objects_and_views::query::{execute_script, QueryError};
use objects_and_views::views::{Session, ViewDef, ViewError};

fn base() -> System {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database D;
        class Person type [Name: string, Age: integer];
        object #1 in Person value [Name: "A", Age: 10];
        name a = #1;
        "#,
    )
    .unwrap();
    sys
}

#[test]
fn ill_typed_ddl_is_rejected() {
    let mut sys = System::new();
    // Unknown type name.
    let err = execute_script(&mut sys, "database X; class C type [F: wibble];").unwrap_err();
    assert!(err.to_string().contains("unknown class `wibble`"));
    // Unknown parent.
    let err = execute_script(&mut sys, "database X2; class C inherits Ghost;").unwrap_err();
    assert!(err.to_string().contains("unknown class `Ghost`"));
    // Ill-typed object value.
    let err = execute_script(
        &mut sys,
        r#"database X3; class C type [N: integer]; object #1 in C value [N: "nope"];"#,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        QueryError::Oodb(OodbError::TypeMismatch { .. })
    ));
}

#[test]
fn parse_errors_carry_positions() {
    let mut sys = System::new();
    let err = execute_script(&mut sys, "database D;\nclass C type [X integer];").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("parse error at 2:"), "got: {msg}");
}

#[test]
fn incompatible_override_is_rejected_and_rolled_back() {
    let mut sys = base();
    let err = execute_script(
        &mut sys,
        "database D; class Liar inherits Person type [Age: string];",
    )
    .unwrap_err();
    assert!(matches!(
        err,
        QueryError::Oodb(OodbError::IncompatibleOverride { .. })
    ));
    // Scripts are not transactional (standard for DDL): the class shell may
    // exist, but the offending attribute was rolled back and the schema is
    // still consistent and usable.
    let db = sys.database(sym("D")).unwrap();
    {
        let d = db.read();
        if let Some(liar) = d.schema.class_by_name(sym("Liar")) {
            assert!(d.schema.class(liar).own_attr(sym("Age")).is_none());
            // Inherited Age is still the integer one.
            let attrs = d.schema.visible_attrs(liar);
            assert_eq!(
                attrs[&sym("Age")].1.sig.ty,
                objects_and_views::oodb::Type::Int
            );
        }
    }
    execute_script(&mut sys, "database D; class Ok inherits Person;").unwrap();
}

#[test]
fn view_misuses_each_have_a_precise_error() {
    type Check = fn(&ViewError) -> bool;
    let sys = base();
    let cases: &[(&str, Check)] = &[
        (
            "create view V; import all classes from database Nowhere;",
            |e| matches!(e, ViewError::Oodb(OodbError::UnknownDatabase(_))),
        ),
        ("create view V; import class Ghost from database D;", |e| {
            matches!(e, ViewError::Oodb(OodbError::UnknownClass(_)))
        }),
        (
            "create view V; import all classes from database D; \
             hide attribute Wings in class Person;",
            |e| matches!(e, ViewError::Oodb(OodbError::UnknownAttr { .. })),
        ),
        (
            "create view V; import all classes from database D; \
             class Bad includes (select [N: P.Name] from P in Person);",
            |e| matches!(e, ViewError::NonObjectPopulation { .. }),
        ),
        (
            "create view V; import all classes from database D; \
             class Bad includes imaginary (select P from P in Person);",
            |e| matches!(e, ViewError::NonTuplePopulation { .. }),
        ),
        (
            "create view V; import all classes from database D; \
             class Bad includes Person, imaginary (select [N: P.Name] from P in Person);",
            |e| matches!(e, ViewError::MixedImaginary(_)),
        ),
        (
            "create view V; import all classes from database D; \
             attribute Fresh of type integer in class Person;",
            |e| matches!(e, ViewError::Definition(_)),
        ),
    ];
    for (script, check) in cases {
        let err = ViewDef::from_script(script)
            .unwrap()
            .binder(&sys)
            .bind()
            .expect_err(script);
        assert!(check(&err), "script {script:?} gave {err:?}");
    }
}

/// A view's own error raised while a population is computed — below the
/// `DataSource` methods the evaluator calls — comes out of every public
/// read as the variant it was raised as, not as its text.
#[test]
fn population_errors_come_back_typed() {
    let mut s = Session::new();
    s.execute(
        r#"
        database D;
        class Person type [Name: string, Age: integer];
        object #1 in Person value [Name: "A", Age: 30];
        name a = #1;
        create view V;
        import all classes from database D;
        class Over(N) includes (select P from Person where P.Age > N and P in Over(N));
        class Odd includes (select X from X in {1, a});
        "#,
    )
    .unwrap();
    type Check = fn(&ViewError) -> bool;
    let cases: [(&str, Check); 2] = [
        ("count(Over(20))", |e| {
            matches!(e, ViewError::CyclicVirtualClass(_))
        }),
        ("count(Odd)", |e| {
            matches!(e, ViewError::NonObjectPopulation { .. })
        }),
    ];
    for (query, check) in cases {
        let by_view = s.view(sym("V")).unwrap().query(query).unwrap_err();
        let by_session = s.query(sym("V"), query).unwrap_err();
        let by_statement = s.execute(&format!("{query};")).unwrap_err();
        for err in [by_view, by_session, by_statement] {
            assert!(check(&err), "{query} gave {err:?}");
        }
    }
}

#[test]
fn virtual_class_write_protections() {
    let sys = base();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database D;
        class Young includes (select P from Person where P.Age < 21);
        class Tag includes imaginary (select [N: P.Name] from P in Person);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert!(matches!(
        view.insert(sym("Young"), Value::empty_tuple()),
        Err(ViewError::VirtualInsert(_))
    ));
    assert!(matches!(
        view.insert(sym("Tag"), Value::empty_tuple()),
        Err(ViewError::VirtualInsert(_))
    ));
    let tag = view.extent_of(sym("Tag")).unwrap()[0];
    assert!(matches!(
        view.update_attr(tag, sym("N"), Value::str("x")),
        Err(ViewError::CoreAttrUpdate { .. })
    ));
    assert!(matches!(
        view.delete(tag),
        Err(ViewError::ImaginaryUpdate(_))
    ));
}

#[test]
fn parameterized_arity_and_unknown_template() {
    let sys = base();
    let view = ViewDef::from_script(
        "create view V; import all classes from database D; \
         class ByAge(A) includes (select P from Person where P.Age = A);",
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert!(view.query("count(ByAge(1, 2))").is_err());
    assert!(view.query("count(NotATemplate(1))").is_err());
    // The error did not poison later use.
    assert_eq!(view.query("count(ByAge(10))").unwrap(), Value::Int(1));
}

#[test]
fn sessions_survive_errors() {
    let mut s = Session::new();
    s.execute(
        r#"database D; class Person type [Name: string, Age: integer];
           object #1 in Person value [Name: "A", Age: 30];"#,
    )
    .unwrap();
    // A stream of bad statements…
    assert!(s.execute("select X from X in Nope;").is_err());
    assert!(s.execute("class Broken includes Person;").is_err()); // no view focused
    assert!(s.execute("insert Person value [Wings: 2];").is_err());
    // …and the session still works.
    assert_eq!(
        s.execute("count(Person);").unwrap(),
        vec![objects_and_views::views::Outcome::Value(Value::Int(1))]
    );
}

#[test]
fn journal_overflow_never_corrupts_populations() {
    use objects_and_views::views::{Materialization, ViewOptions};
    let sys = base();
    {
        let db = sys.database(sym("D")).unwrap();
        db.write().store.set_journal_cap(1);
    }
    let view = ViewDef::from_script(
        "create view V; import all classes from database D; \
         class Young includes (select P from Person where P.Age < 21);",
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
    let db = sys.database(sym("D")).unwrap();
    for i in 0..20 {
        {
            let mut d = db.write();
            let person = d.schema.class_by_name(sym("Person")).unwrap();
            d.create_object(
                person,
                Value::tuple([
                    ("Name", Value::str(&format!("p{i}"))),
                    ("Age", Value::Int(i)),
                ]),
            )
            .unwrap();
        }
        // Population always equals a fresh filter of the base.
        let expected = {
            let d = db.read();
            let person = d.schema.class_by_name(sym("Person")).unwrap();
            d.deep_extent(person)
                .into_iter()
                .filter(
                    |&o| matches!(d.stored_attr(o, sym("Age")).unwrap(), Value::Int(a) if *a < 21),
                )
                .count()
        };
        assert_eq!(view.extent_of(sym("Young")).unwrap().len(), expected);
    }
}

#[test]
fn deep_recursion_is_cut_off_not_a_stack_overflow() {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        "database R; class C type [X: integer]; \
         attribute Loop of type integer in class C has value self.Loop + 1; \
         object #1 in C value [X: 0]; name c = #1;",
    )
    .unwrap();
    let db = sys.database(sym("R")).unwrap();
    let err = objects_and_views::query::run_query(&*db.read(), "c.Loop").unwrap_err();
    assert!(err.to_string().contains("depth limit"));
}

#[test]
fn dangling_references_are_detectable_and_null_safe() {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database D;
        class Node type [Label: string, Next: Node];
        object #1 in Node value [Label: "a", Next: #2];
        object #2 in Node value [Label: "b"];
        name a = #1;
        name b = #2;
        "#,
    )
    .unwrap();
    let db = sys.database(sym("D")).unwrap();
    {
        let b = db.read().named(sym("b")).unwrap();
        db.write().delete_object(b).unwrap();
    }
    let d = db.read();
    assert_eq!(d.dangling_refs().len(), 1);
    // Dereferencing the dangling pointer is an error, not UB.
    let err = objects_and_views::query::run_query(&*d, "a.Next.Label").unwrap_err();
    assert!(matches!(err, QueryError::Oodb(OodbError::UnknownObject(_))));
}
