// Virtual classes (paper §4): specialization, generalization, behavioral and
// parameterized classes, hierarchy inference, schizophrenia and the class
// verdicts a point read is served from.

#[test]
fn specialization_adult() {
    // §4.1: class Adult includes (select P from Person where P.Age >= 21).
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
    assert_eq!(
        view.query("count((select A from A in Adult))").unwrap(),
        Value::Int(5) // everyone but 12-year-old Mark
    );
    // Hierarchy inference: Person is the (only) parent of Adult.
    assert_eq!(view.parents_of(sym("Adult")).unwrap(), vec![sym("Person")]);
    // Inherited attributes flow down into the virtual class.
    assert_eq!(
        view.query(r#"select A.Name from A in Adult where A.Age > 75"#)
            .unwrap(),
        Value::set([Value::str("Julia")])
    );
}

#[test]
fn populations_track_base_updates() {
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
    assert_eq!(view.extent_of(sym("Adult")).unwrap().len(), 5);
    // Mark turns 21.
    let mark = {
        let db = sys.database(sym("Staff")).unwrap();
        let oid = {
            let d = db.read();
            d.deep_extent(d.schema.class_by_name(sym("Person")).unwrap())
                .into_iter()
                .find(|&o| d.stored_attr(o, sym("Name")).unwrap() == &Value::str("Mark"))
                .unwrap()
        };
        db.write()
            .set_attr(oid, sym("Age"), Value::Int(21))
            .unwrap();
        oid
    };
    assert_eq!(view.extent_of(sym("Adult")).unwrap().len(), 6);
    assert!(DataSource::is_member(
        &view,
        mark,
        DataSource::class_by_name(&view, sym("Adult")).unwrap()
    )
    .unwrap());
}

#[test]
fn example3_top_down_hierarchy() {
    // §4.2 Example 3: Adult/Minor, then Senior/Adolescent below them.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        class Minor includes (select P from Person where P.Age < 21);
        class Senior includes (select A from Adult where A.Age >= 65);
        class Adolescent includes (select M from Minor where M.Age >= 13);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(view.parents_of(sym("Senior")).unwrap(), vec![sym("Adult")]);
    assert_eq!(
        view.parents_of(sym("Adolescent")).unwrap(),
        vec![sym("Minor")]
    );
    assert!(view
        .is_subclass_by_name(sym("Senior"), sym("Person"))
        .unwrap());
    // Maggy (66), Denis (70), Julia (80) are seniors.
    assert_eq!(
        view.query("count((select S from S in Senior))").unwrap(),
        Value::Int(3)
    );
    // Mark is 12: a minor but not an adolescent.
    assert_eq!(
        view.query("count((select M from M in Minor))").unwrap(),
        Value::Int(1)
    );
    assert_eq!(
        view.query("count((select M from M in Adolescent))")
            .unwrap(),
        Value::Int(0)
    );
}

#[test]
fn example4_bottom_up_navy_and_ship_variation() {
    // §4.2: Merchant_Vessel/Military_Vessel inserted between Ship and its
    // subclasses.
    let sys = navy_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Navy;
        class Merchant_Vessel includes Tanker, Trawler;
        class Military_Vessel includes Frigate, Cruiser;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // R1: Ship is a superclass of the virtual classes.
    assert_eq!(
        view.parents_of(sym("Merchant_Vessel")).unwrap(),
        vec![sym("Ship")]
    );
    // R2: Tanker and Trawler became subclasses (direct superclass added).
    assert!(view
        .is_subclass_by_name(sym("Tanker"), sym("Merchant_Vessel"))
        .unwrap());
    assert!(view
        .is_subclass_by_name(sym("Trawler"), sym("Merchant_Vessel"))
        .unwrap());
    assert!(!view
        .is_subclass_by_name(sym("Frigate"), sym("Merchant_Vessel"))
        .unwrap());
    // Population = union of the included classes.
    assert_eq!(
        view.query("select V.Name from V in Merchant_Vessel")
            .unwrap(),
        Value::set([Value::str("Erika"), Value::str("Nellie")])
    );
    // §4.3 upward inheritance: Merchant_Vessel acquires Cargo.
    assert_eq!(
        view.query("select V.Cargo from V in Merchant_Vessel")
            .unwrap(),
        Value::set([Value::str("oil"), Value::str("fish")])
    );
    // But not Armament.
    assert!(view
        .query("select V.Armament from V in Merchant_Vessel")
        .is_err());
    // A fully bottom-up Boat over the two virtual classes.
    let view2 = ViewDef::from_script(
        r#"
        create view V2;
        import all classes from database Navy;
        class Merchant_Vessel includes Tanker, Trawler;
        class Military_Vessel includes Frigate, Cruiser;
        class Boat includes Merchant_Vessel, Military_Vessel;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(
        view2.query("count((select B from B in Boat))").unwrap(),
        Value::Int(4)
    );
    assert_eq!(view2.parents_of(sym("Boat")).unwrap(), vec![sym("Ship")]);
}

#[test]
fn example2_government_supported_mixed_population() {
    // §4.1 Example 2: generalization + specialization in one class, plus a
    // virtual attribute on the result.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        class Senior includes (select A from Adult where A.Age >= 65);
        class Student includes (select P from Person where P.Age < 21);
        class Government_Supported includes Senior, Student,
            (select A in Adult where A.Income < 5000);
        attribute Government_Support_Deduction in class Government_Supported
            has value 1200 + self.Age * 2;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // Seniors: Maggy, Denis, Julia. Students: Mark. Low-income adults:
    // Denis (4000), Julia (3000) — union: 4 people.
    assert_eq!(
        view.query("count((select G from G in Government_Supported))")
            .unwrap(),
        Value::Int(4)
    );
    // R2: Senior and Student are subclasses.
    assert!(view
        .is_subclass_by_name(sym("Senior"), sym("Government_Supported"))
        .unwrap());
    // R1: Person is the common superclass.
    assert_eq!(
        view.parents_of(sym("Government_Supported")).unwrap(),
        vec![sym("Person")]
    );
    // The virtual attribute works on members of the virtual class even
    // though their real classes know nothing about it.
    assert_eq!(
        view.query("maggy.Government_Support_Deduction").unwrap(),
        Value::Int(1200 + 66 * 2)
    );
}

#[test]
fn behavioral_generalization_on_sale() {
    // §4.1: class On_Sale includes like On_Sale_Spec.
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Market;
        class On_Sale_Spec type [Price: float, Discount: integer];
        class Car type [Price: float, Discount: integer, Brand: string];
        class House type [Price: float, Discount: integer, City: string];
        class Rock type [Price: float];
        object #1 in Car value [Price: 10000.0, Discount: 10, Brand: "2CV"];
        object #2 in House value [Price: 500000.0, Discount: 3, City: "Paris"];
        object #3 in Rock value [Price: 1.0];
        "#,
    )
    .unwrap();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Market;
        class On_Sale includes like On_Sale_Spec;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // Cars and houses conform; rocks lack Discount.
    assert_eq!(
        view.query("count((select X from X in On_Sale))").unwrap(),
        Value::Int(2)
    );
    // R2: conforming classes became subclasses.
    assert!(view
        .is_subclass_by_name(sym("Car"), sym("On_Sale"))
        .unwrap());
    assert!(!view
        .is_subclass_by_name(sym("Rock"), sym("On_Sale"))
        .unwrap());
    // Upward inheritance: Price and Discount are attributes of On_Sale.
    assert_eq!(
        view.query("min((select X.Discount from X in On_Sale))")
            .unwrap(),
        Value::Int(3)
    );
}

#[test]
fn rich_and_beautiful_multiple_inheritance() {
    // §4.2: class Rich&Beautiful includes (select P from Rich where P in
    // Beautiful) — both become superclasses.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Rich includes (select P from Person where P.Income >= 90000);
        class Beautiful includes (select P from Person where P.Age < 67);
        class Rich&Beautiful includes (select P from Rich where P in Beautiful);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let mut parents = view.parents_of(sym("Rich&Beautiful")).unwrap();
    parents.sort();
    assert_eq!(parents, vec![sym("Beautiful"), sym("Rich")]);
    // Maggy: income 90000, age 66 → rich and beautiful. Boss: income
    // 120000, age 50 → also. Denis: poor. Tony: income 50000 → no.
    assert_eq!(
        view.query("count((select P from P in Rich&Beautiful))")
            .unwrap(),
        Value::Int(2)
    );
}

#[test]
fn parameterized_resident_classes() {
    // §4.1: class Resident(X) includes (select P from Person where
    // P.Address.Country = X) — here keyed on City.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Resident(X) includes (select P from Person where P.City = X);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(
        view.query(r#"count(Resident("London"))"#).unwrap(),
        Value::Int(3)
    );
    assert_eq!(
        view.query(r#"select R.Name from R in Resident("Roma")"#)
            .unwrap(),
        Value::set([Value::str("Julia")])
    );
    // Distinct parameters are distinct classes.
    assert_eq!(
        view.query(r#"count(Resident("Paris") intersect Resident("London"))"#)
            .unwrap(),
        Value::Int(0)
    );
    // Unused parameters: empty class, not an error ("Only finitely many of
    // these classes will be non-empty").
    assert_eq!(
        view.query(r#"count(Resident("Atlantis"))"#).unwrap(),
        Value::Int(0)
    );
    // "As countries are removed … classes automatically disappear or are
    // created": Julia moves to Paris, Resident("Roma") empties.
    let julia = view
        .query(r#"select the P from P in Person where P.Name = "Julia""#)
        .unwrap();
    let Value::Oid(julia) = julia else { panic!() };
    view.update_attr(julia, sym("City"), Value::str("Paris"))
        .unwrap();
    assert_eq!(
        view.query(r#"count(Resident("Roma"))"#).unwrap(),
        Value::Int(0)
    );
    assert_eq!(
        view.query(r#"count(Resident("Paris"))"#).unwrap(),
        Value::Int(3)
    );
    // Arity errors are reported.
    assert!(view.query(r#"count(Resident("a", "b"))"#).is_err());
}

#[test]
fn schizophrenia_policies() {
    // §4.3: Rich and Senior both define Print; an object in both classes is
    // schizophrenic.
    let sys = people_system();
    let script = r#"
        create view V;
        import all classes from database Staff;
        class Rich includes (select P from Person where P.Income >= 90000);
        class Senior includes (select P from Person where P.Age >= 65);
        attribute Print in class Rich has value "rich " ++ self.Name;
        attribute Print in class Senior has value "senior " ++ self.Name;
    "#;
    let def = ViewDef::from_script(script).unwrap();
    // Maggy is in both Rich and Senior.
    // Policy Error: schizophrenia is reported.
    let strict = def
        .binder(&sys)
        .options(ViewOptions::builder().policy(ConflictPolicy::Error).build())
        .bind()
        .unwrap();
    let err = strict.query("maggy.Print").unwrap_err();
    assert!(
        matches!(err, ViewError::Oodb(OodbError::Schizophrenia { .. })),
        "got {err:?}"
    );
    // Denis is a senior but not rich: no conflict.
    assert_eq!(
        strict.query("denis.Print").unwrap(),
        Value::str("senior Denis")
    );
    // Default policy (creation order): Rich was defined first.
    let default = def.binder(&sys).bind().unwrap();
    assert_eq!(
        default.query("maggy.Print").unwrap(),
        Value::str("rich Maggy")
    );
    // Priority policy: Senior wins.
    let senior_first = def
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .policy(ConflictPolicy::Priority(vec![sym("Senior")]))
                .build(),
        )
        .bind()
        .unwrap();
    assert_eq!(
        senior_first.query("maggy.Print").unwrap(),
        Value::str("senior Maggy")
    );
}

#[test]
fn redefining_in_an_overlap_class_resolves_conflict() {
    // "inheritance conflicts can be resolved by assigning a class name to
    // overlapping classes … One can then redefine the conflicting methods
    // in the new class."
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Rich includes (select P from Person where P.Income >= 90000);
        class Senior includes (select P from Person where P.Age >= 65);
        attribute Print in class Rich has value "rich";
        attribute Print in class Senior has value "senior";
        class Rich&Senior includes (select P from Rich where P in Senior);
        attribute Print in class Rich&Senior has value "both";
        "#,
    )
    .unwrap()
    .binder(&sys)
    .options(ViewOptions::builder().policy(ConflictPolicy::Error).build())
    .bind()
    .unwrap();
    // Maggy is in Rich, Senior and Rich&Senior: the overlap class's own
    // definition is the unique most-specific one.
    assert_eq!(view.query("maggy.Print").unwrap(), Value::str("both"));
}

/// A view keeps one verdict per (class, attribute) on each side — read at
/// body depth 0, or inside a computed body — for one resolution
/// generation: a template instantiation drops both sides, and a population
/// bracket drops neither. A membership-dependent attribute and an error
/// never become one, a verdict of one side never answers the other, and a
/// read inside a population bracket reads and fills the side of its depth,
/// with the classes in flight filtered out of what it reads.
#[test]
fn a_resolution_generation_bump_drops_the_class_verdicts() {
    let sys = people_system();
    let def = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Rich includes (select P from Person where P.Income >= 90000);
        attribute Print in class Person has value "person";
        attribute Print in class Rich has value "rich";
        attribute Zone in class Person has value self.Zip_Code;
        attribute Nick in class Person has value "person";
        attribute Nick in class Employee has value "employee";
        hide attribute Zip_Code in class Person;
        hide attribute Nick in class Employee;
        class Resident(X) includes (select P from Person where P.City = X);
        "#,
    )
    .unwrap();
    let in_body = |view: &crate::View, oid, attr: &str| {
        let body = DataSource::frame_key(view).unwrap();
        ov_query::in_view(body, None, || view.attr(oid, sym(attr)))
    };
    // The bind decides whether a delta decides Rich: inside Rich's
    // population bracket, at body depth 1, it reads Income for Person,
    // Employee and Manager, and the bracket keeps those three verdicts.
    const BOUND: usize = 3;
    // Employee's own Nick is hidden at depth 0, where Person's shows; a
    // body sees Employee's. A verdict left on one side never answers the
    // other, whichever side fills first.
    for body_first in [false, true] {
        let view = def.binder(&sys).bind().unwrap();
        assert_eq!(view.served_verdicts(), (0, BOUND), "the bind's bracket leaves its verdicts");
        let tony = DataSource::named_object(&view, sym("tony")).unwrap();
        if body_first {
            assert_eq!(
                in_body(&view, tony, "Nick").unwrap(),
                Value::str("employee")
            );
            assert_eq!(
                view.served_verdicts(),
                (0, BOUND + 1),
                "an in-body read leaves its verdict"
            );
        }
        assert_eq!(view.attr(tony, sym("Nick")).unwrap(), Value::str("person"));
        assert_eq!(
            in_body(&view, tony, "Nick").unwrap(),
            Value::str("employee")
        );
        assert_eq!(view.attr(tony, sym("Nick")).unwrap(), Value::str("person"));
        assert_eq!(view.served_verdicts(), (1, BOUND + 1), "one verdict a side");
    }

    let view = def.binder(&sys).bind().unwrap();
    let person = DataSource::class_by_name(&view, sym("Person")).unwrap();
    let rich = DataSource::class_by_name(&view, sym("Rich")).unwrap();
    let maggy = DataSource::named_object(&view, sym("maggy")).unwrap();
    let denis = DataSource::named_object(&view, sym("denis")).unwrap();
    let read = |attr: &str| view.attr(maggy, sym(attr));
    // A first population reads Income in its bracket, where the bind
    // left it, and moves nothing.
    assert_eq!(view.query("count(Rich)").unwrap(), Value::Int(2));
    assert_eq!(view.served_verdicts(), (0, BOUND));
    assert_eq!(read("Name").unwrap(), Value::str("Maggy"));
    assert_eq!(view.served_verdicts(), (1, BOUND), "a depth-0 read leaves its verdict");
    assert_eq!(read("Name").unwrap(), Value::str("Maggy"));
    assert!(matches!(
        view.class_verdict(person, sym("Name")),
        Some(ov_query::ResolvedAttr::Stored)
    ));

    // Rich defines Print: membership decides, so there is no verdict on
    // either side.
    assert_eq!(read("Print").unwrap(), Value::str("rich"));
    assert_eq!(view.attr(denis, sym("Print")).unwrap(), Value::str("person"));
    assert_eq!(in_body(&view, maggy, "Print").unwrap(), Value::str("rich"));
    assert!(view.class_verdict(person, sym("Print")).is_none());
    // Errors are not kept: a hidden attribute, an unknown one.
    assert!(read("Zip_Code").is_err());
    assert!(read("Ghost").is_err());
    assert!(in_body(&view, maggy, "Ghost").is_err());
    assert!(view.class_verdict(person, sym("Zip_Code")).is_none());
    assert_eq!(view.served_verdicts(), (1, BOUND));
    // Zone's body reads the hidden Zip_Code through the hide: Zone leaves
    // a depth-0 verdict, Zip_Code an in-body one, and Zip_Code stays
    // hidden at depth 0.
    assert_eq!(read("Zone").unwrap(), Value::str("SW1"));
    assert_eq!(
        view.served_verdicts(),
        (2, BOUND + 1),
        "a body's read leaves an in-body verdict"
    );
    assert!(read("Zip_Code").is_err());
    assert_eq!(
        in_body(&view, maggy, "Zip_Code").unwrap(),
        Value::str("SW1")
    );
    assert_eq!(view.served_verdicts(), (2, BOUND + 1));

    // Inside a population bracket of Rich, Rich's definitions do not
    // count: Print is Person's for every person there, a class verdict
    // filtered out of the kept membership rule and not kept itself; Name
    // is read at body depth 1, and kept on that side.
    let key = DataSource::frame_key(&view).unwrap();
    ov_query::in_view(key, Some(rich), || {
        assert_eq!(read("Print").unwrap(), Value::str("person"));
        assert!(view.class_verdict(person, sym("Print")).is_some());
        assert_eq!(read("Name").unwrap(), Value::str("Maggy"));
        assert_eq!(read("Zip_Code").unwrap(), Value::str("SW1"));
    });
    assert_eq!(
        view.served_verdicts(),
        (2, BOUND + 2),
        "a population bracket reads and fills the side of its depth"
    );
    assert_eq!(read("Print").unwrap(), Value::str("rich"));
    assert_eq!(in_body(&view, maggy, "Print").unwrap(), Value::str("rich"));
    assert!(view.class_verdict(person, sym("Print")).is_none());

    // A recompute opens a population bracket: every verdict stays.
    view.update_attr(denis, sym("Income"), Value::Int(95000))
        .unwrap();
    assert_eq!(view.query("count(Rich)").unwrap(), Value::Int(3));
    assert_eq!(view.served_verdicts(), (2, BOUND + 2), "a population bracket");
    assert_eq!(read("Name").unwrap(), Value::str("Maggy"));
    assert_eq!(
        in_body(&view, maggy, "Zip_Code").unwrap(),
        Value::str("SW1")
    );
    assert_eq!(view.served_verdicts(), (2, BOUND + 2));
    // A template instantiation drops both sides.
    view.instantiate(sym("Resident"), &[Value::str("Paris")])
        .unwrap();
    assert_eq!(view.served_verdicts(), (0, 0), "a template instantiation");
    assert_eq!(read("Name").unwrap(), Value::str("Maggy"));
    assert_eq!(view.served_verdicts(), (1, 0), "the first fill empties both sides");
    assert!(read("Zip_Code").is_err());
}

/// The one case where the population in flight changes a rule: Rich
/// defines the Tier its own population query reads. Inside Rich's bracket
/// Rich is filtered out of the membership rule, so the query reads
/// Person's "low" for every person, while Top's query, with Rich not in
/// flight, reads Rich's "high" for Rich's members. Both engines answer
/// alike, before and after a write that moves Denis into Rich, and Person
/// keeps no class verdict for Tier.
#[test]
fn a_class_reading_its_own_attribute_in_its_population_sees_the_inherited_one() {
    let def = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        attribute Tier in class Person has value "low";
        class Rich includes (select P from P in Person where P.Income >= 90000 and P.Tier = "low");
        attribute Tier in class Rich has value "high";
        class Top includes (select R from R in Rich where R.Tier = "high");
        "#,
    )
    .unwrap();
    let answers = |view: &crate::View| {
        ["count(Rich)", "count(Top)", "maggy.Tier", "denis.Tier"].map(|q| view.query(q).unwrap())
    };
    use ov_query::EngineMode;
    for mode in [EngineMode::Interp, EngineMode::Compiled] {
        // Each engine writes to a system of its own.
        let sys = people_system();
        ov_query::with_engine_mode(mode, || {
            let view = def.binder(&sys).bind().unwrap();
            let person = DataSource::class_by_name(&view, sym("Person")).unwrap();
            let denis = DataSource::named_object(&view, sym("denis")).unwrap();
            assert_eq!(
                answers(&view),
                [Value::Int(2), Value::Int(2), Value::str("high"), Value::str("low")],
                "{mode:?}"
            );
            assert!(view.class_verdict(person, sym("Tier")).is_none(), "{mode:?}");
            view.update_attr(denis, sym("Income"), Value::Int(95000))
                .unwrap();
            assert_eq!(
                answers(&view),
                [Value::Int(3), Value::Int(3), Value::str("high"), Value::str("high")],
                "{mode:?}"
            );
            assert!(view.class_verdict(person, sym("Tier")).is_none(), "{mode:?}");
        });
    }
}

#[test]
fn no_direct_insertion_into_virtual_classes() {
    // §4.1: "it is not possible for a user to insert an object directly
    // into a virtual class. Thus, a Ship object can only be created
    // indirectly."
    let sys = navy_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Navy;
        class Merchant_Vessel includes Tanker, Trawler;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let err = view
        .insert(sym("Merchant_Vessel"), Value::empty_tuple())
        .unwrap_err();
    assert!(matches!(err, ViewError::VirtualInsert(_)));
    // Indirect creation: insert a Tanker, it shows up in Merchant_Vessel.
    view.insert(
        sym("Tanker"),
        Value::tuple([("Name", Value::str("Exxon")), ("Cargo", Value::str("oil"))]),
    )
    .unwrap();
    assert_eq!(
        view.query("count((select V from V in Merchant_Vessel))")
            .unwrap(),
        Value::Int(3)
    );
}

#[test]
fn cyclic_virtual_classes_error() {
    let sys = people_system();
    // B selects from A; then redefine A's population over B? We cannot
    // reference a class before it is defined, so build the cycle through a
    // membership conjunct on a later class: A over Person, B over A, and a
    // third class that queries itself via `in`.
    let def = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Selfish includes (select P from Person where P in Selfish);
        "#,
    )
    .unwrap();
    // Binding succeeds or fails depending on when the name resolves; the
    // population must error with a cycle either way.
    match def.binder(&sys).bind() {
        Err(e) => assert!(
            matches!(e, ViewError::CyclicVirtualClass(_) | ViewError::Query(_)),
            "got {e:?}"
        ),
        Ok(view) => {
            let err = view.query("count(Selfish)").unwrap_err();
            assert!(
                matches!(err, ViewError::CyclicVirtualClass(_)),
                "got {err:?}"
            );
        }
    }
}
