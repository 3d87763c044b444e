//! Imaginary objects: families over people, addresses as shared objects.
//!
//! Reproduces §5 end to end: the `Family` imaginary class, the crucial
//! "two seemingly equivalent queries" of §5.1 (stable identity vs. the
//! naive fresh-oid semantics), and Example 5's value→object conversion
//! with sharing.
//!
//! Run with: `cargo run --example families`

use objects_and_views::prelude::*;

fn main() {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Registry;
        class Person type [Name: string, Age: integer, Sex: string,
                           City: string, Street: string,
                           Spouse: Person, Children: {Person}, Kids: integer];
        object #1 in Person value [Name: "Denis", Age: 24, Sex: "male", Spouse: #2,
                                   City: "London", Street: "10 Downing",
                                   Children: {#5}, Kids: 6];
        object #2 in Person value [Name: "Maggy", Age: 66, Sex: "female", Spouse: #1,
                                   City: "London", Street: "10 Downing"];
        object #3 in Person value [Name: "Ron",   Age: 50, Sex: "male", Spouse: #4,
                                   City: "Washington", Street: "Penn Ave", Kids: 7];
        object #4 in Person value [Name: "Nancy", Age: 48, Sex: "female", Spouse: #3,
                                   City: "Washington", Street: "Penn Ave"];
        object #5 in Person value [Name: "Mark",  Age: 12, Sex: "male",
                                   City: "London", Street: "10 Downing"];
        name maggy = #2;
        name denis = #1;
        "#,
    )
    .expect("registry loads");

    // --- §5: the Family imaginary class --------------------------------
    let families = ViewDef::from_script(
        r#"
        create view Families;
        import all classes from database Registry;
        class Family includes imaginary
            (select [Husband: H, Wife: H.Spouse, Size: H.Kids]
             from H in Person where H.Sex = "male" and H.Spouse != null);
        attribute Children in class Family has value
            (select C from C in self.Husband.Children);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();

    println!("== families as imaginary objects (§5) ==");
    println!(
        "families: {}",
        families
            .query("select [H: F.Husband.Name, W: F.Wife.Name] from F in Family")
            .unwrap()
    );
    println!(
        "children of the Downing St family: {}",
        families
            .query(r#"select C.Name from F in Family, C in F.Children"#)
            .unwrap()
    );

    // --- §5.1: the two "seemingly equivalent" queries -------------------
    let flat = "select F from F in Family where F.Size > 5 and F.Husband.Age < 25";
    let nested = "select F from F in Family where F.Size > 5 \
                  and F in (select G from G in Family where G.Husband.Age < 25)";
    println!("\n== §5.1: identity across invocations ==");
    println!(
        "flat query:   {} object(s)",
        families.query(flat).unwrap().as_set().unwrap().len()
    );
    println!(
        "nested query: {} object(s)  (same objects — identity tables at work)",
        families.query(nested).unwrap().as_set().unwrap().len()
    );

    // The naive implementation the paper warns about.
    let naive = ViewDef::from_script(
        r#"
        create view Naive_Families;
        import all classes from database Registry;
        class Family includes imaginary
            (select [Husband: H, Wife: H.Spouse, Size: H.Kids]
             from H in Person where H.Sex = "male" and H.Spouse != null);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .options(
        ViewOptions::builder()
            .identity_mode(IdentityMode::Fresh)
            .materialization(Materialization::AlwaysRecompute)
            .build(),
    )
    .bind()
    .unwrap();
    println!(
        "nested query under FRESH oids: {} object(s)  (\"we may obtain an empty set\")",
        naive.query(nested).unwrap().as_set().unwrap().len()
    );

    // --- Example 5: values become shared objects ------------------------
    let addresses = ViewDef::from_script(
        r#"
        create view Value_to_Object;
        import all classes from database Registry;
        class Address includes imaginary
            (select [City: P.City, Street: P.Street] from P in Person);
        attribute Location in class Person has value
            (select the A from A in Address
             where A.City = self.City and A.Street = self.Street);
        hide attributes City, Street in class Person;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    println!("\n== Example 5: addresses as shared objects ==");
    println!(
        "distinct address objects: {}",
        addresses.query("count(Address)").unwrap()
    );
    let m = addresses.query("maggy.Location").unwrap();
    let d = addresses.query("denis.Location").unwrap();
    println!(
        "maggy.Location = {m}  denis.Location = {d}  (shared: {})",
        m == d
    );

    // Maggy moves (base update); her address becomes a *new* object, the
    // old one survives for Denis.
    {
        let reg = sys.database(sym("Registry")).unwrap();
        let mut reg = reg.write();
        let maggy = reg.named(sym("maggy")).unwrap();
        reg.set_attr(maggy, sym("City"), Value::str("Dulwich"))
            .unwrap();
        reg.set_attr(maggy, sym("Street"), Value::str("Hambledon Place"))
            .unwrap();
    }
    println!("\nafter Maggy moves:");
    println!(
        "maggy.Location = {}  (new object)",
        addresses.query("maggy.Location").unwrap()
    );
    println!(
        "denis.Location = {}  (the old address object survives)",
        addresses.query("denis.Location").unwrap()
    );
    println!(
        "distinct address objects: {}",
        addresses.query("count(Address)").unwrap()
    );
}
