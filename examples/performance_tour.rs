//! A tour of the performance machinery: materialization policies,
//! incremental maintenance, and index pushdown.
//!
//! These are this repository's extensions around the paper's §4.2
//! "Implementation Issues" and §6's remark that materialized views
//! "acquire a new dimension in the context of objects."
//!
//! Run with: `cargo run --release --example performance_tour`

use std::time::Instant;

use objects_and_views::prelude::*;

fn time<R>(label: &str, mut f: impl FnMut() -> R) -> R {
    // One warmup, then a measured run.
    f();
    let start = Instant::now();
    let r = f();
    println!("{label:<46} {:>12.1?}", start.elapsed());
    r
}

fn main() {
    let n = 50_000;
    println!("people database with {n} objects\n");

    let build = |materialization| {
        let mut sys = objects_and_views::oodb::System::new();
        objects_and_views::query::execute_script(
            &mut sys,
            "database Staff; class Person type [Name: string, Age: integer, City: string];",
        )
        .unwrap();
        {
            let db = sys.database(sym("Staff")).unwrap();
            let mut db = db.write();
            let person = db.schema.class_by_name(sym("Person")).unwrap();
            for i in 0..n {
                db.create_object(
                    person,
                    Value::tuple([
                        ("Name", Value::str(&format!("p{i}"))),
                        ("Age", Value::Int((i % 100) as i64)),
                        (
                            "City",
                            Value::str(["London", "Paris", "Roma", "Oslo"][i % 4]),
                        ),
                    ]),
                )
                .unwrap();
            }
        }
        let view = ViewDef::from_script(
            r#"
            create view V;
            import all classes from database Staff;
            class Adult includes (select P from Person where P.Age >= 21);
            class Londoner includes (select P from Person where P.City = "London");
            "#,
        )
        .unwrap()
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .materialization(materialization)
                .build(),
        )
        .bind()
        .unwrap();
        (sys, view)
    };

    println!("== materialization policies (Adult population) ==");
    let (_sys, recompute) = build(Materialization::AlwaysRecompute);
    time("AlwaysRecompute: extent", || {
        recompute.extent_of(sym("Adult")).unwrap().len()
    });
    let (_sys, cached) = build(Materialization::Incremental);
    cached.extent_of(sym("Adult")).unwrap();
    time("Incremental: repeated extent (cache hit)", || {
        cached.extent_of(sym("Adult")).unwrap().len()
    });

    println!("\n== update-heavy access: recomputation vs delta maintenance ==");
    let update_then_read =
        |sys: &objects_and_views::oodb::System, view: &objects_and_views::views::View, i: i64| {
            let db = sys.database(sym("Staff")).unwrap();
            let victim = {
                let d = db.read();
                let person = d.schema.class_by_name(sym("Person")).unwrap();
                d.deep_extent(person)[0]
            };
            db.write()
                .set_attr(victim, sym("Age"), Value::Int(i % 100))
                .unwrap();
            view.extent_of(sym("Adult")).unwrap().len()
        };
    let (sys_r, recompute) = build(Materialization::AlwaysRecompute);
    let mut i = 0;
    time("AlwaysRecompute: update + extent", || {
        i += 1;
        update_then_read(&sys_r, &recompute, i)
    });
    let (sys_i, incremental) = build(Materialization::Incremental);
    incremental.extent_of(sym("Adult")).unwrap();
    time("Incremental: update + extent (delta)", || {
        i += 1;
        update_then_read(&sys_i, &incremental, i)
    });

    println!("\n== index pushdown (Londoner population, 1/4 selectivity) ==");
    let (sys_s, scan_view) = build(Materialization::AlwaysRecompute);
    time("scan: extent", || {
        scan_view.extent_of(sym("Londoner")).unwrap().len()
    });
    {
        let db = sys_s.database(sym("Staff")).unwrap();
        let mut db = db.write();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        db.create_index(person, sym("City")).unwrap();
    }
    time("indexed: extent (same view, index added)", || {
        scan_view.extent_of(sym("Londoner")).unwrap().len()
    });
}
