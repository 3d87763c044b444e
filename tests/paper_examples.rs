//! Integration tests: the paper's examples driven end-to-end through the
//! textual DDL, spanning all workspace crates.

use objects_and_views::oodb::{sym, System, Value};
use objects_and_views::query::{execute_script, run_query};
use objects_and_views::views::{Session, ViewDef};

fn load(script: &str) -> System {
    let mut sys = System::new();
    execute_script(&mut sys, script).expect("script loads");
    sys
}

const STAFF: &str = r#"
    database Staff;
    class Person type [Name: string, Age: integer, Sex: string,
                       City: string, Street: string, Zip_Code: string,
                       Income: integer, Spouse: Person, Children: {Person}];
    class Employee inherits Person type [Salary: integer];
    class Manager inherits Employee type [Budget: integer];
    object #1 in Person value [Name: "Maggy", Age: 66, Sex: "female",
                               City: "London", Street: "10 Downing", Zip_Code: "SW1",
                               Income: 90000, Spouse: #2];
    object #2 in Person value [Name: "Denis", Age: 70, Sex: "male",
                               City: "London", Street: "10 Downing", Zip_Code: "SW1",
                               Income: 4000, Spouse: #1, Children: {#3}];
    object #3 in Person value [Name: "Mark", Age: 12, Sex: "male",
                               City: "London", Street: "10 Downing", Zip_Code: "SW1"];
    object #4 in Employee value [Name: "Tony", Age: 30, Sex: "male", Salary: 50000,
                                 City: "Paris", Street: "Rivoli", Zip_Code: "75001",
                                 Income: 50000];
    object #5 in Manager value [Name: "Boss", Age: 50, Sex: "female", Salary: 120000,
                                City: "Paris", Street: "Rivoli", Zip_Code: "75001",
                                Income: 120000, Budget: 1000000];
    name maggy = #1;
    name denis = #2;
"#;

/// §2 Example 1 through the full pipeline, plus the restructuring the paper
/// sketches right after it (Home/Office → Addresses/Telephones).
#[test]
fn restructuring_attributes() {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database D;
        class Contact type [HomeAddress: string, HomePhone: string,
                            OfficeAddress: string, OfficePhone: string];
        object #1 in Contact value [HomeAddress: "10 Downing", HomePhone: "020",
                                    OfficeAddress: "INRIA", OfficePhone: "013"];
        name c = #1;
        "#,
    )
    .unwrap();
    let view = ViewDef::from_script(
        r#"
        create view Regrouped;
        import all classes from database D;
        attribute Addresses in class Contact has value
            [Home: self.HomeAddress, Office: self.OfficeAddress];
        attribute Telephones in class Contact has value
            [Home: self.HomePhone, Office: self.OfficePhone];
        hide attributes HomeAddress, HomePhone, OfficeAddress, OfficePhone
            in class Contact;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(
        view.query("c.Addresses").unwrap(),
        Value::tuple([
            ("Home", Value::str("10 Downing")),
            ("Office", Value::str("INRIA")),
        ])
    );
    assert_eq!(
        view.query("c.Telephones.Office").unwrap(),
        Value::str("013")
    );
    assert!(view.query("c.HomePhone").is_err(), "components are hidden");
}

/// §3's My_View: imports from two databases.
#[test]
fn my_view_imports_from_two_databases() {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Chrysler;
        class Car type [Model: string];
        class Person type [Name: string];
        object #1 in Car value [Model: "Voyager"];
        database Ford;
        class Person type [Name: string];
        object #2 in Person value [Name: "Henry"];
        "#,
    )
    .unwrap();
    let view = ViewDef::from_script(
        r#"
        create view My_View;
        import all classes from database Chrysler;
        import class Person from database Ford as Ford_Person;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(
        view.query("select C.Model from C in Car").unwrap(),
        Value::set([Value::str("Voyager")])
    );
    assert_eq!(
        view.query("select P.Name from P in Ford_Person").unwrap(),
        Value::set([Value::str("Henry")])
    );
    // The Chrysler Person class is empty but distinct from Ford's.
    assert_eq!(view.query("count(Person)").unwrap(), Value::Int(0));
}

/// The paper's general view structure (§3): imports, classes, attributes,
/// hides — all in one script, end to end.
#[test]
fn full_view_script() {
    let sys = load(STAFF);
    let view = ViewDef::from_script(
        r#"
        create view Tax_Office;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        class Senior includes (select A from Adult where A.Age >= 65);
        class Student includes (select P from Person where P.Age < 21);
        class Government_Supported includes Senior, Student,
            (select A in Adult where A.Income < 5000);
        attribute Government_Support_Deduction in class Government_Supported
            has value 1200;
        hide attribute Salary in class Employee;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // Membership: Maggy+Denis (senior), Mark (student), Denis again (low
    // income) → 3 distinct people.
    assert_eq!(
        view.query("select G.Name from G in Government_Supported")
            .unwrap(),
        Value::set([Value::str("Maggy"), Value::str("Denis"), Value::str("Mark")])
    );
    assert_eq!(
        view.query("maggy.Government_Support_Deduction").unwrap(),
        Value::Int(1200)
    );
    assert!(view.query("select E.Salary from E in Employee").is_err());
}

/// Dump → reload → view: serialization interoperates with the view layer,
/// and a session loads the same script.
#[test]
fn dump_reload_then_view() {
    let sys = load(STAFF);
    let dump = {
        let db = sys.database(sym("Staff")).unwrap();
        let db = db.read();
        objects_and_views::oodb::dump_database(&db)
    };
    let sys2 = load(&dump);
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap()
    .binder(&sys2)
    .bind()
    .unwrap();
    assert_eq!(
        view.query("count((select A from A in Adult))").unwrap(),
        Value::Int(4)
    );
    // Relationships survived the round-trip.
    assert_eq!(
        view.query("maggy.Spouse.Name").unwrap(),
        Value::str("Denis")
    );
    // A session loads the script as one run, so `#1`'s spouse resolves to
    // `#2`, declared after it.
    let mut session = Session::new();
    session.execute(STAFF).expect("script loads in a session");
    assert_eq!(
        session.query(sym("Staff"), "maggy.Spouse.Name").unwrap(),
        Value::str("Denis")
    );
}

/// Views stack through materialization: base → view → snapshot → view.
#[test]
fn stacked_views_via_materialization() {
    let sys = load(STAFF);
    let first = ViewDef::from_script(
        r#"
        create view First;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        attribute Greeting in class Person has value "hello " ++ self.Name;
        hide attribute Salary in class Employee;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let snapshot = first.materialize(sym("Level1")).unwrap();
    let mut sys2 = System::new();
    sys2.add_database(snapshot).unwrap();
    // In the snapshot the plain persons who were Adults are *real* in
    // Adult; Tony and Boss stay rooted in Employee/Manager (Adult and
    // Employee are incomparable, and unique root allows only one class).
    let second = ViewDef::from_script(
        r#"
        create view Second;
        import all classes from database Level1;
        class Greeter includes (select A from Adult where A.Age >= 65);
        "#,
    )
    .unwrap()
    .binder(&sys2)
    .bind()
    .unwrap();
    assert_eq!(
        second.query("select G.Greeting from G in Greeter").unwrap(),
        Value::set([Value::str("hello Maggy"), Value::str("hello Denis")])
    );
}

/// Querying base and view side by side: the view never copies data.
#[test]
fn views_share_base_storage() {
    let sys = load(STAFF);
    let view = ViewDef::from_script("create view V; import all classes from database Staff;")
        .unwrap()
        .binder(&sys)
        .bind()
        .unwrap();
    let before_base = {
        let db = sys.database(sym("Staff")).unwrap();
        let db = db.read();
        run_query(&*db, "count(Person)").unwrap()
    };
    let before_view = view.query("count(Person)").unwrap();
    assert_eq!(before_base, before_view);
    // Insert through the view; the base sees it immediately, and vice versa.
    view.insert(
        sym("Person"),
        Value::tuple([("Name", Value::str("New")), ("Age", Value::Int(1))]),
    )
    .unwrap();
    let after_base = {
        let db = sys.database(sym("Staff")).unwrap();
        let db = db.read();
        run_query(&*db, "count(Person)").unwrap()
    };
    assert_eq!(after_base, Value::Int(6));
    assert_eq!(view.query("count(Person)").unwrap(), Value::Int(6));
}

/// Concurrent readers over one system: views are per-thread, the bases are
/// shared behind `parking_lot` locks.
#[test]
fn concurrent_view_readers() {
    let sys = load(STAFF);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..4 {
            let sys_ref = &sys;
            handles.push(scope.spawn(move || {
                let view = ViewDef::from_script(
                    r#"
                    create view V;
                    import all classes from database Staff;
                    class Adult includes (select P from Person where P.Age >= 21);
                    "#,
                )
                .unwrap()
                .binder(sys_ref)
                .bind()
                .unwrap();
                for _ in 0..50 {
                    let n = view.query("count((select A from A in Adult))").unwrap();
                    assert_eq!(n, Value::Int(4));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    });
}

/// The umbrella crate re-exports compose: oodb + query + views + relational
/// in one flow (people stored relationally, joined against an object view).
#[test]
fn relational_and_object_worlds_compose() {
    use objects_and_views::relational::{bridge, Relation, RelationalDb};

    let mut rdb = RelationalDb::new(sym("HR"));
    rdb.create_relation(Relation::new(
        sym("Badge"),
        vec![
            (sym("Owner"), objects_and_views::oodb::Type::Str),
            (sym("Level"), objects_and_views::oodb::Type::Int),
        ],
    ))
    .unwrap();
    rdb.insert(sym("Badge"), vec![Value::str("Maggy"), Value::Int(9)])
        .unwrap();
    rdb.insert(sym("Badge"), vec![Value::str("Tony"), Value::Int(3)])
        .unwrap();
    let (sys, _) = bridge::stage(&rdb).unwrap();
    let view = bridge::object_view(&rdb, &sys).unwrap();
    assert_eq!(
        view.query("select B.Owner from B in Badge where B.Level > 5")
            .unwrap(),
        Value::set([Value::str("Maggy")])
    );
}

/// §5's application list includes "decomposing large objects into several
/// smaller objects": one wide Person splits into shareable NamePart and
/// AddressPart objects.
#[test]
fn decomposing_large_objects() {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Wide;
        class Person type [First: string, Last: string,
                           City: string, Street: string, Shoe_Size: integer];
        object #1 in Person value [First: "Maggy", Last: "T",
                                   City: "London", Street: "10 Downing", Shoe_Size: 37];
        object #2 in Person value [First: "Denis", Last: "T",
                                   City: "London", Street: "10 Downing", Shoe_Size: 44];
        name maggy = #1;
        "#,
    )
    .unwrap();
    let view = ViewDef::from_script(
        r#"
        create view Decomposed;
        import all classes from database Wide;
        class NamePart includes imaginary
            (select [First: P.First, Last: P.Last] from P in Person);
        class AddressPart includes imaginary
            (select [City: P.City, Street: P.Street] from P in Person);
        attribute TheName in class Person has value
            (select the N from N in NamePart
             where N.First = self.First and N.Last = self.Last);
        attribute TheAddress in class Person has value
            (select the A from A in AddressPart
             where A.City = self.City and A.Street = self.Street);
        hide attributes First, Last, City, Street in class Person;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // Two people, two distinct name parts, ONE shared address part.
    assert_eq!(view.query("count(NamePart)").unwrap(), Value::Int(2));
    assert_eq!(view.query("count(AddressPart)").unwrap(), Value::Int(1));
    assert_eq!(
        view.query("maggy.TheName.First").unwrap(),
        Value::str("Maggy")
    );
    assert_eq!(
        view.query("maggy.TheAddress.City").unwrap(),
        Value::str("London")
    );
    // The wide attributes are hidden; the decomposition is total.
    assert!(view.query("maggy.First").is_err());
    // Shoe_Size survives untouched.
    assert_eq!(view.query("maggy.Shoe_Size").unwrap(), Value::Int(37));
}

/// §4.1's flexibility argument for behavioral generalization: "the
/// introduction of a class Boat (with appropriate price and discount
/// attributes) would require the programmer to change the definition of
/// the class On_Sale_Bis. This is not needed with the behavioral
/// definition." Rebinding the same unchanged definition picks Boat up.
#[test]
fn behavioral_generalization_admits_later_classes_unchanged() {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Market;
        class On_Sale_Spec type [Price: float, Discount: integer];
        class Car type [Price: float, Discount: integer];
        object #1 in Car value [Price: 100.0, Discount: 5];
        "#,
    )
    .unwrap();
    let behavioral = ViewDef::from_script(
        "create view V; import all classes from database Market; \
         class On_Sale includes like On_Sale_Spec;",
    )
    .unwrap();
    let by_name = ViewDef::from_script(
        "create view V2; import all classes from database Market; \
         class On_Sale_Bis includes Car;",
    )
    .unwrap();
    assert_eq!(
        behavioral
            .binder(&sys)
            .bind()
            .unwrap()
            .query("count(On_Sale)")
            .unwrap(),
        Value::Int(1)
    );
    // The schema evolves: Boat appears.
    execute_script(
        &mut sys,
        r#"
        database Market;
        class Boat type [Price: float, Discount: integer, Draft: float];
        object #1 in Boat value [Price: 9.5, Discount: 1, Draft: 2.0];
        "#,
    )
    .unwrap();
    // Unchanged behavioral definition: Boat admitted automatically.
    assert_eq!(
        behavioral
            .binder(&sys)
            .bind()
            .unwrap()
            .query("count(On_Sale)")
            .unwrap(),
        Value::Int(2)
    );
    // The by-name definition misses it until someone edits it.
    assert_eq!(
        by_name
            .binder(&sys)
            .bind()
            .unwrap()
            .query("count(On_Sale_Bis)")
            .unwrap(),
        Value::Int(1)
    );
}

/// "In general, given n virtual classes, they may overlap in O(2^n)
/// different ways … an object may simultaneously belong to several
/// incomparable virtual classes" (§4.2).
#[test]
fn objects_belong_to_many_overlapping_virtual_classes() {
    let sys = load(STAFF);
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Rich includes (select P from Person where P.Income >= 90000);
        class Old includes (select P from Person where P.Age >= 60);
        class Londoner includes (select P from Person where P.City = "London");
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // Maggy is simultaneously in all three incomparable classes.
    for class in ["Rich", "Old", "Londoner"] {
        assert_eq!(
            view.query(&format!("maggy isa {class}")).unwrap(),
            Value::Bool(true),
            "maggy should be in {class}"
        );
    }
    // And the overlaps need not be declared as classes to be queried.
    assert_eq!(
        view.query("count((select P from P in Rich where P in Old and P in Londoner))")
            .unwrap(),
        Value::Int(1)
    );
}
