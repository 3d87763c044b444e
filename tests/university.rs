//! A kitchen-sink scenario: one university, two databases, every view
//! feature at once. This is the "would a downstream user's real schema
//! survive?" test.

use objects_and_views::oodb::{sym, System, Value};
use objects_and_views::query::{execute_script, DataSource};
use objects_and_views::views::{Materialization, ViewDef, ViewOptions};

fn university() -> System {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Registrar;
        class Course type [Code: string, Credits: integer];
        class Student type [Name: string, Age: integer, Major: string,
                            GPA: float, Courses: {Course}];
        class Grad inherits Student type [Advisor: string];
        object #10 in Course value [Code: "DB101", Credits: 6];
        object #11 in Course value [Code: "OS201", Credits: 4];
        object #12 in Course value [Code: "ML301", Credits: 8];
        object #1 in Student value [Name: "Ada", Age: 20, Major: "CS",
                                    GPA: 3.9, Courses: {#10, #12}];
        object #2 in Student value [Name: "Bob", Age: 23, Major: "Math",
                                    GPA: 2.1, Courses: {#11}];
        object #3 in Grad value [Name: "Cleo", Age: 27, Major: "CS",
                                 GPA: 3.6, Courses: {#10, #11, #12},
                                 Advisor: "Prof. X"];
        name ada = #1;

        database HR;
        class Staff type [Name: string, Age: integer, Salary: integer, Dept: string];
        object #20 in Staff value [Name: "Prof. X", Age: 55, Salary: 90000, Dept: "CS"];
        object #21 in Staff value [Name: "Dean", Age: 60, Salary: 120000, Dept: "Admin"];
        "#,
    )
    .unwrap();
    sys
}

const CAMPUS_VIEW: &str = r#"
    create view Campus;
    import all classes from database Registrar;
    import class Staff from database HR as Employee;

    -- §2: virtual attributes with inference, including an aggregate body.
    attribute Load in class Student has value
        sum((select C.Credits from C in self.Courses));
    attribute Standing in class Student has value
        if self.GPA >= 3.5 then "honors" else "regular";

    -- §4.1 specialization chain.
    class Honors includes (select S from Student where S.GPA >= 3.5);
    class SeniorHonors includes (select H from Honors where H.Age >= 25);

    -- §4.1 generalization across *databases*: students and staff.
    class CampusMember includes Student, Employee;

    -- §4.1 behavioral generalization over a spec defined in the base.
    -- (Both Student and Employee carry Name+Age.)
    class PersonLike_Spec includes (select S from Student where false);
    -- ^ a virtual spec would need attributes; use `like` against Employee
    --   instead: everything at least as specific as Employee's shape.
    class Payable includes like Employee;

    -- §4.1 parameterized classes.
    class ByMajor(M) includes (select S from Student where S.Major = M);

    -- §5 imaginary objects from a multi-binding query: one Enrollment
    -- object per (student, course) pair.
    class Enrollment includes imaginary
        (select [Who: S, What: C] from S in Student, C in S.Courses);
    attribute Heavy in class Enrollment has value self.What.Credits >= 6;

    -- §3 hides, late in the script.
    hide attribute Salary in class Employee;
"#;

#[test]
fn the_full_campus_view_works() {
    let sys = university();
    let view = ViewDef::from_script(CAMPUS_VIEW)
        .unwrap()
        .binder(&sys)
        .bind()
        .unwrap();

    // Virtual attributes with aggregates.
    assert_eq!(view.query("ada.Load").unwrap(), Value::Int(14));
    assert_eq!(view.query("ada.Standing").unwrap(), Value::str("honors"));

    // Specialization chain and hierarchy.
    assert_eq!(view.query("count(Honors)").unwrap(), Value::Int(2)); // Ada, Cleo
    assert_eq!(view.query("count(SeniorHonors)").unwrap(), Value::Int(1)); // Cleo
    assert!(view
        .is_subclass_by_name(sym("SeniorHonors"), sym("Student"))
        .unwrap());

    // Cross-database generalization: 3 students + 2 staff.
    assert_eq!(view.query("count(CampusMember)").unwrap(), Value::Int(5));
    // Upward inheritance: Name is common to Student and Employee.
    assert_eq!(
        view.query("count((select M.Name from M in CampusMember))")
            .unwrap(),
        Value::Int(5)
    );

    // Behavioral generalization admits nothing but Employee-shaped classes.
    assert_eq!(view.query("count(Payable)").unwrap(), Value::Int(2));

    // Parameterized classes.
    assert_eq!(
        view.query(r#"count(ByMajor("CS"))"#).unwrap(),
        Value::Int(2)
    );
    assert_eq!(
        view.query(r#"count(ByMajor("Math"))"#).unwrap(),
        Value::Int(1)
    );

    // Imaginary enrollments: Ada 2 + Bob 1 + Cleo 3 = 6 pairs.
    assert_eq!(view.query("count(Enrollment)").unwrap(), Value::Int(6));
    assert_eq!(
        view.query("count((select E from E in Enrollment where E.Heavy))")
            .unwrap(),
        Value::Int(4) // DB101 and ML301 are heavy; Ada(2) + Cleo(2)
    );
    // Join through the imaginary class back to base objects.
    assert_eq!(
        view.query(r#"select E.What.Code from E in Enrollment where E.Who = ada"#)
            .unwrap(),
        Value::set([Value::str("DB101"), Value::str("ML301")])
    );

    // Hides hold.
    assert!(view.query("select E.Salary from E in Employee").is_err());

    // O₂'s flatten: every course anyone is enrolled in.
    assert_eq!(
        view.query("count(flatten((select S.Courses from S in Student)))")
            .unwrap(),
        Value::Int(3)
    );
}

#[test]
fn campus_view_tracks_updates_under_all_materializations() {
    for materialization in [
        Materialization::AlwaysRecompute,
        Materialization::Incremental,
    ] {
        let sys = university();
        let view = ViewDef::from_script(CAMPUS_VIEW)
            .unwrap()
            .binder(&sys)
            .options(
                ViewOptions::builder()
                    .materialization(materialization)
                    .build(),
            )
            .bind()
            .unwrap();
        assert_eq!(view.query("count(Honors)").unwrap(), Value::Int(2));
        let enrollments_before = view.extent_of(sym("Enrollment")).unwrap();

        // Bob's grades improve.
        let bob = view
            .query(r#"select the S from S in Student where S.Name = "Bob""#)
            .unwrap();
        let Value::Oid(bob) = bob else { panic!() };
        view.update_attr(bob, sym("GPA"), Value::Float(3.8))
            .unwrap();
        assert_eq!(
            view.query("count(Honors)").unwrap(),
            Value::Int(3),
            "{materialization:?}"
        );
        // Unrelated to enrollments: identities stable.
        assert_eq!(
            view.extent_of(sym("Enrollment")).unwrap(),
            enrollments_before,
            "{materialization:?}"
        );
    }
}

#[test]
fn campus_view_round_trips_through_script_and_materialization() {
    let sys = university();
    let def = ViewDef::from_script(CAMPUS_VIEW).unwrap();
    // Script round-trip.
    let def2 = ViewDef::from_script(&def.to_script()).unwrap();
    assert_eq!(def, def2);
    let view = def2.binder(&sys).bind().unwrap();
    // Materialize and re-query the snapshot.
    let snapshot = view.materialize(sym("CampusSnapshot")).unwrap();
    let mut sys2 = System::new();
    sys2.add_database(snapshot).unwrap();
    let db = sys2.database(sym("CampusSnapshot")).unwrap();
    let db = db.read();
    // Imaginary enrollments became real objects with evaluated attributes.
    let n = objects_and_views::query::run_query(&*db, "count(Enrollment)").unwrap();
    assert_eq!(n, Value::Int(6));
    let heavy = objects_and_views::query::run_query(
        &*db,
        "count((select E from E in Enrollment where E.Heavy))",
    )
    .unwrap();
    assert_eq!(heavy, Value::Int(4));
    // The hidden Salary did not survive into the snapshot.
    let employee = db.schema.class_by_name(sym("Employee")).unwrap();
    assert!(!db
        .schema
        .visible_attrs(employee)
        .contains_key(&sym("Salary")));
}

#[test]
fn type_inference_works_through_the_whole_stack() {
    let sys = university();
    let view = ViewDef::from_script(CAMPUS_VIEW)
        .unwrap()
        .binder(&sys)
        .bind()
        .unwrap();
    // Load : integer (sum of integers); Standing : string.
    let student = DataSource::class_by_name(&view, sym("Student")).unwrap();
    assert_eq!(
        DataSource::attr_sig(&view, student, sym("Load"))
            .unwrap()
            .ty,
        objects_and_views::oodb::Type::Int
    );
    assert_eq!(
        DataSource::attr_sig(&view, student, sym("Standing"))
            .unwrap()
            .ty,
        objects_and_views::oodb::Type::Str
    );
    // Enrollment's core attributes are class-typed.
    let q =
        objects_and_views::query::parse_select("select E.Who.Name from E in Enrollment").unwrap();
    assert_eq!(
        objects_and_views::query::infer_select(&view, &q).unwrap(),
        objects_and_views::oodb::Type::set(objects_and_views::oodb::Type::Str)
    );
}
