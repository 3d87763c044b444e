//! A cached population follows its sources: after a base write, every
//! population read through a caching view equals the one a recomputing
//! view reads. A journal delta names only the objects a write changed, so
//! it may patch a class only when each changed object decides its own
//! membership and nothing else's. Each class below reads beyond its own
//! row — a named object, an aggregate over an extent, a reference path, a
//! computed attribute, another such class, an imaginary class — and so
//! must recompute when a source moves; `Adult` and `Senior` read only
//! their own row and keep their delta.

use ov_oodb::{sym, Symbol, System, Value};
use ov_query::{execute_script, PopPath};
use ov_views::{Materialization, View, ViewDef, ViewOptions};

const BASE: &str = r#"
    database Staff;
    class Person type [Name: string, Age: integer, City: string, Spouse: Person];
    object #1 in Person value [Name: "Boss", Age: 50, City: "Rome"];
    object #2 in Person value [Name: "Maggy", Age: 65, City: "London", Spouse: #3];
    object #3 in Person value [Name: "Bart", Age: 40, City: "London", Spouse: #2];
    object #4 in Person value [Name: "Tony", Age: 30, City: "Oslo"];
    object #5 in Person value [Name: "Lisa", Age: 8, City: "Oslo"];
    name boss = #1;
    name bart = #3;
    name tony = #4;
    name lisa = #5;
"#;

const VIEW: &str = r#"
    create view Shapes;
    import all classes from database Staff;
    attribute Gap in class Person has value boss.Age - self.Age;
    class Adult includes (select P from P in Person where P.Age >= 21);
    class Senior includes (select A from A in Adult where A.Age >= 60);
    class Older includes (select P from P in Person where P.Age > boss.Age);
    class AboveAverage includes
        (select P from P in Person where P.Age > avg(select Q.Age from Q in Person));
    class YoungSpouse includes (select P from P in Person where P.Spouse.Age < 50);
    class Junior includes (select P from P in Person where P.Gap > 0);
    class OlderToo includes Older;
    class OlderLiving includes (select P from P in Older where P.Age < 150);
    class AdultOlder includes (select P from P in Adult where P in Older);
    class Home includes imaginary (select [City: P.City] from P in Person);
    class ParisHome includes (select H from H in Home where H.City = "Paris");
"#;

/// The classes a delta decides.
const DECIDED: [&str; 2] = ["Adult", "Senior"];

/// The classes it cannot, one per shape.
const UNDECIDED: [&str; 8] = [
    "Older",
    "AboveAverage",
    "YoungSpouse",
    "Junior",
    "OlderToo",
    "OlderLiving",
    "AdultOlder",
    "ParisHome",
];

fn bind(sys: &System, materialization: Materialization) -> View {
    ViewDef::from_script(VIEW)
        .unwrap()
        .binder(sys)
        .options(
            ViewOptions::builder()
                .materialization(materialization)
                .build(),
        )
        .bind()
        .unwrap()
}

/// What a population reads as, independent of a view's imaginary oids.
fn read(view: &View, class: &str) -> Value {
    let field = if class == "ParisHome" { "City" } else { "Name" };
    view.query(&format!("select X.{field} from X in {class}"))
        .unwrap()
}

fn classes() -> impl Iterator<Item = &'static str> {
    DECIDED.into_iter().chain(UNDECIDED)
}

#[test]
fn every_cached_population_equals_a_recomputation_after_a_write() {
    let mut sys = System::new();
    execute_script(&mut sys, BASE).unwrap();
    let cached = bind(&sys, Materialization::Incremental);
    let oracle = bind(&sys, Materialization::AlwaysRecompute);
    for class in classes() {
        assert_eq!(read(&cached, class), read(&oracle, class), "{class} cold");
    }
    let db = sys.database(sym("Staff")).unwrap();
    let named = |name: &str| db.read().named(sym(name)).unwrap();
    // Each write changes one object that other objects' memberships read:
    // the boss every `boss.Age` reads (and every `avg` counts), the spouse
    // `Maggy`'s path reads, a city an imaginary tuple carries.
    let writes: [(&str, &str, Value); 3] = [
        ("boss", "Age", Value::Int(200)),
        ("bart", "Age", Value::Int(60)),
        ("tony", "City", Value::str("Paris")),
    ];
    let mut stale: Vec<String> = Vec::new();
    for (who, attr, value) in writes {
        let oid = named(who);
        db.write().set_attr(oid, sym(attr), value.clone()).unwrap();
        for class in classes() {
            let (got, want) = (read(&cached, class), read(&oracle, class));
            if got != want {
                stale.push(format!(
                    "after {who}.{attr} = {value}, {class}: cached {got}, recomputed {want}"
                ));
            }
        }
    }
    assert!(stale.is_empty(), "{stale:#?}");

    // One more write: each class a delta decides retests the one changed
    // object, and every other class recomputes.
    let lisa = named("lisa");
    db.write()
        .set_attr(lisa, sym("Age"), Value::Int(25))
        .unwrap();
    let path = |class: &str| cached.explain_population(Symbol::new(class)).unwrap().path;
    for class in DECIDED {
        assert_eq!(path(class), PopPath::Delta { retested: 1 }, "{class}");
    }
    for class in UNDECIDED {
        let path = path(class);
        assert!(
            matches!(path, PopPath::FullRecompute { .. }),
            "{class}: {path:?}"
        );
    }
}
