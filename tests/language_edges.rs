//! Edge-of-the-language tests: corners that real schemas hit but the paper
//! examples don't exercise.

use objects_and_views::oodb::{sym, ConflictPolicy, OodbError, System, Type, Value};
use objects_and_views::query::{
    execute_script, infer_expr, parse_expr, run_query, type_of_value, DataSource, QueryError,
};
use objects_and_views::views::{View, ViewDef, ViewOptions};

fn sys_with(script: &str) -> System {
    let mut sys = System::new();
    execute_script(&mut sys, script).unwrap();
    sys
}

#[test]
fn lists_are_ordered_and_concatenate() {
    let sys = sys_with(
        r#"
        database D;
        class Playlist type [Tracks: list(string)];
        object #1 in Playlist value [Tracks: list("a", "b", "a")];
        name p = #1;
        "#,
    );
    let db = sys.database(sym("D")).unwrap();
    let db = db.read();
    // Lists keep duplicates and order.
    assert_eq!(
        run_query(&*db, "p.Tracks").unwrap(),
        Value::list([Value::str("a"), Value::str("b"), Value::str("a")])
    );
    assert_eq!(
        run_query(&*db, r#"p.Tracks ++ list("c")"#).unwrap(),
        Value::list([
            Value::str("a"),
            Value::str("b"),
            Value::str("a"),
            Value::str("c")
        ])
    );
    // Selecting from a list yields a set (O₂ select semantics).
    assert_eq!(
        run_query(&*db, "select T from T in p.Tracks").unwrap(),
        Value::set([Value::str("a"), Value::str("b")])
    );
    assert_eq!(run_query(&*db, "count(p.Tracks)").unwrap(), Value::Int(3));
}

#[test]
fn multi_parameter_classes() {
    let sys = sys_with(
        r#"
        database D;
        class Person type [Name: string, Age: integer, City: string];
        object #1 in Person value [Name: "A", Age: 30, City: "London"];
        object #2 in Person value [Name: "B", Age: 30, City: "Paris"];
        object #3 in Person value [Name: "C", Age: 40, City: "London"];
        "#,
    );
    let view = ViewDef::from_script(
        "create view V; import all classes from database D; \
         class Cohort(A, C) includes \
            (select P from Person where P.Age = A and P.City = C);",
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(
        view.query(r#"count(Cohort(30, "London"))"#).unwrap(),
        Value::Int(1)
    );
    assert_eq!(
        view.query(r#"count(Cohort(30, "Paris"))"#).unwrap(),
        Value::Int(1)
    );
    assert_eq!(
        view.query(r#"count(Cohort(40, "Paris"))"#).unwrap(),
        Value::Int(0)
    );
}

#[test]
fn float_core_attributes_have_stable_identity() {
    // Identity tables key on tuples containing floats — the total order on
    // Value must keep them stable.
    let sys = sys_with(
        r#"
        database D;
        class Reading type [Temp: float];
        object #1 in Reading value [Temp: 21.5];
        object #2 in Reading value [Temp: 21.5];
        object #3 in Reading value [Temp: -0.0];
        "#,
    );
    let view = ViewDef::from_script(
        "create view V; import all classes from database D; \
         class TempGroup includes imaginary (select [T: R.Temp] from R in Reading);",
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // 21.5 appears twice → one group; -0.0 → another.
    assert_eq!(view.query("count(TempGroup)").unwrap(), Value::Int(2));
    let a = view.extent_of(sym("TempGroup")).unwrap();
    let b = view.extent_of(sym("TempGroup")).unwrap();
    assert_eq!(a, b);
}

#[test]
fn select_distinct_and_the_through_views() {
    let sys = sys_with(
        r#"
        database D;
        class P type [N: integer];
        object #1 in P value [N: 1];
        object #2 in P value [N: 1];
        object #3 in P value [N: 2];
        "#,
    );
    let db = sys.database(sym("D")).unwrap();
    let db = db.read();
    // distinct is redundant over set results but must parse and run.
    assert_eq!(
        run_query(&*db, "count((select distinct X.N from X in P))").unwrap(),
        Value::Int(2)
    );
    // `select the` over a one-element filtered set.
    assert_eq!(
        run_query(&*db, "select the X.N from X in P where X.N = 2").unwrap(),
        Value::Int(2)
    );
}

#[test]
fn virtual_class_over_aliased_import() {
    let sys = sys_with(
        r#"
        database Ford;
        class Person type [Name: string, Age: integer];
        object #1 in Person value [Name: "Henry", Age: 88];
        "#,
    );
    let view = ViewDef::from_script(
        r#"
        create view V;
        import class Person from database Ford as Ford_Person;
        class Old_Fordite includes (select P from Ford_Person where P.Age >= 80);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(view.query("count(Old_Fordite)").unwrap(), Value::Int(1));
    assert_eq!(
        view.parents_of(sym("Old_Fordite")).unwrap(),
        vec![sym("Ford_Person")]
    );
}

#[test]
fn aliased_subtree_import_keeps_subclass_names() {
    let sys = sys_with(
        r#"
        database D;
        class Animal type [Name: string];
        class Dog inherits Animal type [Breed: string];
        object #1 in Dog value [Name: "Rex", Breed: "Lab"];
        "#,
    );
    let view = ViewDef::from_script("create view V; import class Animal from database D as Beast;")
        .unwrap()
        .binder(&sys)
        .bind()
        .unwrap();
    // The root is renamed; the subclass keeps its name and its position.
    assert!(view.is_subclass_by_name(sym("Dog"), sym("Beast")).unwrap());
    assert_eq!(view.query("count(Beast)").unwrap(), Value::Int(1));
    assert_eq!(
        view.query("select D.Breed from D in Dog").unwrap(),
        Value::set([Value::str("Lab")])
    );
}

#[test]
fn methods_resolve_through_virtual_class_membership() {
    // A parameterized method defined on a virtual class, called on an
    // object whose real class knows nothing about it.
    let sys = sys_with(
        r#"
        database D;
        class Account type [Balance: integer];
        object #1 in Account value [Balance: 100];
        name acct = #1;
        "#,
    );
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database D;
        class Positive includes (select A from Account where A.Balance > 0);
        attribute Projected(years: integer) in class Positive
            has value self.Balance + years * 10;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(view.query("acct.Projected(3)").unwrap(), Value::Int(130));
    // Wrong arity is caught.
    assert!(view.query("acct.Projected()").is_err());
}

#[test]
fn deeply_nested_selects_evaluate() {
    let sys = sys_with(
        r#"
        database D;
        class P type [N: integer];
        object #1 in P value [N: 1];
        object #2 in P value [N: 2];
        object #3 in P value [N: 3];
        "#,
    );
    let db = sys.database(sym("D")).unwrap();
    let db = db.read();
    // Four levels of nesting, correlated through outer variables.
    let v = run_query(
        &*db,
        "select X.N from X in P where \
           exists(select Y from Y in P where Y.N > X.N and \
             exists(select Z from Z in P where Z.N > Y.N))",
    )
    .unwrap();
    assert_eq!(v, Value::set([Value::Int(1)]));
}

#[test]
fn empty_database_views_are_fine() {
    let sys = sys_with("database Empty; class Nothing_Here type [X: integer];");
    let view = ViewDef::from_script(
        "create view V; import all classes from database Empty; \
         class Sub includes (select N from Nothing_Here where N.X > 0); \
         class Im includes imaginary (select [V: N.X] from N in Nothing_Here);",
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(view.query("count(Sub)").unwrap(), Value::Int(0));
    assert_eq!(view.query("count(Im)").unwrap(), Value::Int(0));
    assert_eq!(view.identity_table_len(sym("Im")), 0);
}

#[test]
fn unicode_in_strings_and_comparison_operators() {
    let sys = sys_with(
        r#"
        database D;
        class P type [Name: string, Age: integer];
        object #1 in P value [Name: "Márgarèt Ⅱ", Age: 66];
        "#,
    );
    let db = sys.database(sym("D")).unwrap();
    let db = db.read();
    assert_eq!(
        run_query(&*db, "select X.Name from X in P where X.Age ≥ 66").unwrap(),
        Value::set([Value::str("Márgarèt Ⅱ")])
    );
}

/// `n` persons `p0…` with `Id` 0… and `n` employees `e0…` with `Salary`
/// 0…, and an index on `Person.Id` (and, as always, on its subclasses).
/// An employee's `Id` is stored (`n…`) — or, when `computed`, the
/// attribute `1000 + self.Salary`.
fn indexed_staff(n: i64, computed: bool) -> System {
    let mut script = String::from(
        "database D;\n\
         class Person type [Id: integer, Name: string];\n\
         class Employee inherits Person type [Salary: integer];\n",
    );
    if computed {
        script.push_str("attribute Id in class Employee has value 1000 + self.Salary;\n");
    }
    for i in 0..n {
        script.push_str(&format!("insert Person value [Id: {i}, Name: \"p{i}\"];\n"));
        let id = if computed {
            String::new()
        } else {
            format!("Id: {}, ", n + i)
        };
        script.push_str(&format!(
            "insert Employee value [{id}Name: \"e{i}\", Salary: {i}];\n"
        ));
    }
    let sys = sys_with(&script);
    {
        let db = sys.database(sym("D")).unwrap();
        let mut db = db.write();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        db.create_index(person, sym("Id")).unwrap();
    }
    sys
}

/// "The same attribute may be stored in one class and computed in a
/// subclass" (§2). An index covers the stored values only, so a probe of
/// `Person.Id` must not be answered from it once `Employee` computes `Id`:
/// the planner used to return `{}` here where the scan returns `{"e5"}`.
#[test]
fn an_index_probe_respects_a_computed_override_in_a_subclass() {
    let sys = indexed_staff(200, true);
    let db = sys.database(sym("D")).unwrap();
    let db = db.read();
    for (key, expected) in [(1005, vec!["e5"]), (5, vec!["p5"]), (205, vec![])] {
        let q = format!(r#"select P.Name from P in Person where P.Id = {key} and P.Name != """#);
        let expected = Value::set(expected.into_iter().map(Value::str));
        let off = objects_and_views::query::with_planner(false, || run_query(&*db, &q)).unwrap();
        let on = objects_and_views::query::with_planner(true, || run_query(&*db, &q)).unwrap();
        assert_eq!(off, expected, "planner off, Id = {key}");
        assert_eq!(on, expected, "planner on, Id = {key}");
    }
    // No subtree containing `Employee` is served from the index.
    let person = db.schema.class_by_name(sym("Person")).unwrap();
    assert_eq!(
        db.indexed_deep_lookup(person, sym("Id"), &Value::Int(5)),
        None
    );
}

/// The same rule through a view: the view overrides `Id` with a computed
/// attribute, so a population defined by `P.Id = 7` holds every object —
/// it used to be answered from the base index on the stored `Id` (one
/// object).
#[test]
fn a_population_probe_respects_a_computed_override_in_the_view() {
    let sys = indexed_staff(150, false);
    let def = ViewDef::from_script(
        "create view V; import all classes from database D; \
         attribute Id in class Person has value 7; \
         class Seven includes (select P from P in Person where P.Id = 7);",
    )
    .unwrap();
    let view = def.binder(&sys).bind().unwrap();
    assert_eq!(view.query("count(Seven)").unwrap(), Value::Int(300));
    assert_eq!(view.stats().index_pushdowns, 0);
    // Without the override the same population is an index probe.
    let plain = ViewDef::from_script(
        "create view W; import all classes from database D; \
         class Seven includes (select P from P in Person where P.Id = 7);",
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(plain.query("count(Seven)").unwrap(), Value::Int(1));
    assert_eq!(plain.stats().index_pushdowns, 1);
}

/// A population and a statement of one query take one access path, under
/// either planner setting: 400 members, `Kind` ∈ {0, 1}, indexes on `Kind`
/// and `Id`, and sketches warmed by one profiled scan. With the planner on
/// both veto the two-valued `Kind` and probe `Id`; with it off both scan
/// sequentially. The class has a name of its own: statistics and cached
/// plans are process-wide and keyed by class name and query shape.
#[test]
fn a_population_and_a_statement_take_one_access_path() {
    use objects_and_views::oodb::metrics;
    use objects_and_views::query::{plan, with_planner, PopPath};
    use objects_and_views::views::Materialization;
    let mut script =
        String::from("database Votes;\nclass Member type [Id: integer, Kind: integer];\n");
    for i in 0..400 {
        script.push_str(&format!(
            "insert Member value [Id: {i}, Kind: {}];\n",
            i % 2
        ));
    }
    let sys = sys_with(&script);
    let db = sys.database(sym("Votes")).unwrap();
    {
        let mut db = db.write();
        let member = db.schema.class_by_name(sym("Member")).unwrap();
        db.create_index(member, sym("Kind")).unwrap();
        db.create_index(member, sym("Id")).unwrap();
    }
    metrics::set_profiling(true);
    let warm = with_planner(false, || {
        run_query(
            &*db.read(),
            "select M from M in Member where M.Id >= 0 and M.Kind >= 0",
        )
    });
    metrics::set_profiling(false);
    warm.unwrap();
    let query = "select M from M in Member where M.Kind = 1 and M.Id = 7";
    let view = ViewDef::from_script(&format!(
        "create view V; import all classes from database Votes; class K includes ({query});"
    ))
    .unwrap()
    .binder(&sys)
    .options(
        ViewOptions::builder()
            .materialization(Materialization::AlwaysRecompute)
            .build(),
    )
    .bind()
    .unwrap();
    for (planner, path) in [(true, "index Member.Id"), (false, "seq")] {
        with_planner(planner, || {
            let population = view.explain_population(sym("K")).unwrap();
            let PopPath::FullRecompute { scans } = &population.path else {
                panic!("planner {planner}: a recompute: {population}");
            };
            let [population] = scans.as_slice() else {
                panic!("planner {planner}: one scan: {scans:?}");
            };
            let ((answer, statement), _) =
                plan::collect(|| plan::population_scans(|| view.query(query)));
            assert_eq!(answer.unwrap().as_set().map(|s| s.len()), Some(1));
            let [statement] = statement.as_slice() else {
                panic!("planner {planner}: one statement scan: {statement:?}");
            };
            assert_eq!(population.kind.to_string(), path, "planner {planner}");
            assert_eq!(statement.kind, population.kind, "planner {planner}");
            assert_eq!(statement.est_rows, population.est_rows, "planner {planner}");
            assert_eq!(population.est_rows.is_some(), planner);
        });
    }
}

// ----------------------------------------------------------------------
// One upward-resolution rule: static typing names the definition
// evaluation reads (§4.2 upward resolution, §4.3 "provide a default").
// ----------------------------------------------------------------------

/// `class E inherits C, B`, `B` created first, each of `B` and `C` defining
/// `X` at a different type, and one object `e` real in `E`. `B` computes
/// `1` or, when `b_stores`, stores an integer; `C` computes a string or,
/// when `b_stores`, the integer `2`.
fn two_definitions(b_stores: bool) -> System {
    let (b, c_x) = if b_stores {
        ("class B type [X: integer];", "2")
    } else {
        ("class B; attribute X in class B has value 1;", r#""c""#)
    };
    sys_with(&format!(
        "database D; {b} class C; attribute X in class C has value {c_x}; \
         class E inherits C, B; object #1 in E value []; name e = #1;"
    ))
}

fn view_over(sys: &System, script: &str, policy: ConflictPolicy) -> View {
    ViewDef::from_script(&format!(
        "create view V; import all classes from database D; {script}"
    ))
    .unwrap()
    .binder(sys)
    .options(ViewOptions::builder().policy(policy).build())
    .bind()
    .unwrap()
}

/// Asks `src` about `e.X` statically — `infer_expr`, `attr_sig` and the
/// `X` field of `class_type(E)` — and dynamically — `run_query`. Each
/// static answer must be the type of the value evaluation reads, or fail
/// where evaluation fails. Returns what evaluation read.
fn typing_matches_evaluation(src: &dyn DataSource) -> Result<Value, QueryError> {
    let e = src.class_by_name(sym("E")).unwrap();
    let inferred = infer_expr(src, &parse_expr("e.X").unwrap()).ok();
    let sig = src.attr_sig(e, sym("X")).map(|s| s.ty);
    let Type::Tuple(fields) = src.class_type(e) else {
        unreachable!("class types are tuples")
    };
    let value = run_query(src, "e.X");
    let evaluated = value.as_ref().ok().map(type_of_value);
    for (what, ty) in [
        ("infer_expr", inferred),
        ("attr_sig", sig),
        ("class_type", fields.get(&sym("X")).cloned()),
    ] {
        assert_eq!(ty, evaluated, "{what} against the value {value:?}");
    }
    value
}

#[test]
fn typing_follows_creation_order_like_evaluation() {
    let sys = two_definitions(false);
    let db = sys.database(sym("D")).unwrap();
    assert_eq!(typing_matches_evaluation(&*db.read()), Ok(Value::Int(1)));
}

#[test]
fn typing_reads_past_a_hidden_definition_like_evaluation() {
    let sys = two_definitions(false);
    let view = view_over(
        &sys,
        "hide attribute X in class C;",
        ConflictPolicy::CreationOrder,
    );
    assert_eq!(typing_matches_evaluation(&view), Ok(Value::Int(1)));
    // The hide covers `C`'s definition only: `E` still has `B`'s.
    let e = DataSource::class_by_name(&view, sym("E")).unwrap();
    assert_eq!(
        DataSource::class_type(&view, e),
        Type::tuple([("X", Type::Int)])
    );
}

#[test]
fn typing_follows_a_priority_list_like_evaluation() {
    let sys = two_definitions(false);
    let b_first = view_over(&sys, "", ConflictPolicy::Priority(vec![sym("B")]));
    assert_eq!(typing_matches_evaluation(&b_first), Ok(Value::Int(1)));
    let c_first = view_over(&sys, "", ConflictPolicy::Priority(vec![sym("C")]));
    assert_eq!(typing_matches_evaluation(&c_first), Ok(Value::str("c")));
}

#[test]
fn typing_refuses_a_conflict_the_error_policy_refuses() {
    let sys = two_definitions(false);
    let strict = view_over(&sys, "", ConflictPolicy::Error);
    let err = typing_matches_evaluation(&strict).unwrap_err();
    assert!(
        matches!(err, QueryError::Oodb(OodbError::Schizophrenia { .. })),
        "got {err:?}"
    );
}

/// `B` stores `X` and `C` computes it: creation order picks `B`'s stored
/// definition, so the stored shape of `E` holds `X` and a write lands
/// where reads look.
#[test]
fn a_write_lands_where_reads_look() {
    let sys = two_definitions(true);
    let db = sys.database(sym("D")).unwrap();
    let e = db.read().named(sym("e")).unwrap();
    db.write().set_attr(e, sym("X"), Value::Int(5)).unwrap();
    assert_eq!(db.read().stored_attr(e, sym("X")), Ok(&Value::Int(5)));
    assert_eq!(typing_matches_evaluation(&*db.read()), Ok(Value::Int(5)));
}
