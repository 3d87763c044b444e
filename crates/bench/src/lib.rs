//! # ov-bench — workloads and the experiment harness
//!
//! Deterministic synthetic workload generators for the experiment suite in
//! `EXPERIMENTS.md`, and the table-printing harness that runs them
//! (`cargo run -p ov-bench --bin harness`).
//!
//! The paper has no quantitative evaluation, so the workloads here are
//! sized to exercise the mechanisms the paper *argues* about: virtual
//! attribute indirection (§2), import/hide view construction (§3), virtual
//! class populations and hierarchy inference (§4), resolution with
//! schizophrenia (§4.3), and imaginary-object identity (§5).

pub mod baseline;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ov_oodb::{sym, AttrDef, ClassId, Database, System, Type, Value};
use ov_relational::{Relation, RelationalDb};
use ov_views::{View, ViewDef, ViewOptions};

/// Fixed seed: every generator is deterministic.
pub const SEED: u64 = 0x0b1ec75;

const CITIES: &[&str] = &[
    "London", "Paris", "Roma", "Berlin", "Madrid", "Wien", "Praha", "Oslo",
];

/// A people database: `Person` with `n` objects, roughly a third of which
/// are real in `Employee`, a ninth in `Manager`. Ages 0..100, incomes
/// 0..200_000, cities from a fixed pool, ~40% married into spouse pairs.
pub fn people(n: usize) -> System {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut sys = System::new();
    let mut db = Database::new(sym("Staff"));
    let person = db
        .create_class(
            sym("Person"),
            &[],
            vec![
                AttrDef::stored(sym("Name"), Type::Str),
                AttrDef::stored(sym("Age"), Type::Int),
                AttrDef::stored(sym("Sex"), Type::Str),
                AttrDef::stored(sym("City"), Type::Str),
                AttrDef::stored(sym("Street"), Type::Str),
                AttrDef::stored(sym("Income"), Type::Int),
                AttrDef::stored(sym("Spouse"), Type::Class(ClassId(0))),
                AttrDef::stored(sym("Kids"), Type::Int),
            ],
        )
        .unwrap();
    let employee = db
        .create_class(
            sym("Employee"),
            &[person],
            vec![AttrDef::stored(sym("Salary"), Type::Int)],
        )
        .unwrap();
    let manager = db
        .create_class(
            sym("Manager"),
            &[employee],
            vec![AttrDef::stored(sym("Budget"), Type::Int)],
        )
        .unwrap();
    let mut oids = Vec::with_capacity(n);
    for i in 0..n {
        let class = match i % 9 {
            0 => manager,
            1 | 2 => employee,
            _ => person,
        };
        let mut fields = vec![
            (sym("Name"), Value::str(&format!("p{i}"))),
            (sym("Age"), Value::Int(rng.gen_range(0..100))),
            (
                sym("Sex"),
                Value::str(if i % 2 == 0 { "male" } else { "female" }),
            ),
            (
                sym("City"),
                Value::str(CITIES[rng.gen_range(0..CITIES.len())]),
            ),
            (sym("Street"), Value::str(&format!("{} St", i % 97))),
            (sym("Income"), Value::Int(rng.gen_range(0..200_000))),
            (sym("Kids"), Value::Int(rng.gen_range(0..9))),
        ];
        if class != person {
            fields.push((sym("Salary"), Value::Int(rng.gen_range(20_000..150_000))));
        }
        if class == manager {
            fields.push((sym("Budget"), Value::Int(rng.gen_range(0..5_000_000))));
        }
        let oid = db
            .create_object(class, Value::Tuple(ov_oodb::Tuple::from_fields(fields)))
            .unwrap();
        oids.push(oid);
    }
    // Marry adjacent pairs (even index = husband).
    for pair in oids.chunks(2) {
        if let [h, w] = pair {
            if rng.gen_bool(0.4) {
                db.set_attr(*h, sym("Spouse"), Value::Oid(*w)).unwrap();
                db.set_attr(*w, sym("Spouse"), Value::Oid(*h)).unwrap();
            }
        }
    }
    sys.add_database(db).unwrap();
    sys
}

/// The first `k` person oids of a [`people`] system (deterministic order).
pub fn person_oids(sys: &System, k: usize) -> Vec<ov_oodb::Oid> {
    let db = sys.database(sym("Staff")).unwrap();
    let db = db.read();
    let person = db.schema.class_by_name(sym("Person")).unwrap();
    db.deep_extent(person).into_iter().take(k).collect()
}

/// A wide schema: `classes` sibling classes under one root, each carrying
/// `attrs_per_class` integer attributes plus `Price`/`Discount` on the
/// first half (for behavioral matching), with `objs_per_class` objects.
pub fn market(classes: usize, attrs_per_class: usize, objs_per_class: usize) -> System {
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    let mut sys = System::new();
    let mut db = Database::new(sym("Market"));
    let root = db
        .create_class(
            sym("Item"),
            &[],
            vec![AttrDef::stored(sym("Id"), Type::Int)],
        )
        .unwrap();
    db.create_class(
        sym("Sale_Spec"),
        &[],
        vec![
            AttrDef::stored(sym("Price"), Type::Float),
            AttrDef::stored(sym("Discount"), Type::Int),
        ],
    )
    .unwrap();
    for c in 0..classes {
        let mut attrs: Vec<AttrDef> = (0..attrs_per_class)
            .map(|a| AttrDef::stored(sym(&format!("A{a}")), Type::Int))
            .collect();
        let for_sale = c < classes / 2;
        if for_sale {
            attrs.push(AttrDef::stored(sym("Price"), Type::Float));
            attrs.push(AttrDef::stored(sym("Discount"), Type::Int));
        }
        let id = db
            .create_class(sym(&format!("Kind{c}")), &[root], attrs)
            .unwrap();
        for o in 0..objs_per_class {
            let mut fields = vec![(sym("Id"), Value::Int(o as i64))];
            if for_sale {
                fields.push((sym("Price"), Value::Float(rng.gen_range(1.0..1e5))));
                fields.push((sym("Discount"), Value::Int(rng.gen_range(0..50))));
            }
            db.create_object(id, Value::Tuple(ov_oodb::Tuple::from_fields(fields)))
                .unwrap();
        }
    }
    sys.add_database(db).unwrap();
    sys
}

/// An insurance database with `n` policies (for the E11 churn experiment).
pub fn insurance(n: usize) -> System {
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    let mut sys = System::new();
    let mut db = Database::new(sym("Insurance"));
    let policy = db
        .create_class(
            sym("Policy"),
            &[],
            vec![
                AttrDef::stored(sym("Policy_Number"), Type::Int),
                AttrDef::stored(sym("PName"), Type::Str),
                AttrDef::stored(sym("PAddress"), Type::Str),
                AttrDef::stored(sym("SS"), Type::Int),
                AttrDef::stored(sym("Cost"), Type::Int),
            ],
        )
        .unwrap();
    for i in 0..n {
        db.create_object(
            policy,
            Value::tuple([
                ("Policy_Number", Value::Int(i as i64)),
                ("PName", Value::str(&format!("client{i}"))),
                (
                    "PAddress",
                    Value::str(&format!("{} Main St", rng.gen_range(1..500))),
                ),
                ("SS", Value::Int(i as i64 + 10_000)),
                ("Cost", Value::Int(rng.gen_range(50..500))),
            ]),
        )
        .unwrap();
    }
    sys.add_database(db).unwrap();
    sys
}

/// A relational payroll with `n` employee rows over `depts` departments.
pub fn payroll(n: usize, depts: usize) -> RelationalDb {
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    let mut rdb = RelationalDb::new(sym("Payroll"));
    rdb.create_relation(Relation::new(
        sym("Emp"),
        vec![
            (sym("EName"), Type::Str),
            (sym("Dept"), Type::Str),
            (sym("Salary"), Type::Int),
        ],
    ))
    .unwrap();
    for i in 0..n {
        rdb.insert(
            sym("Emp"),
            vec![
                Value::str(&format!("e{i}")),
                Value::str(&format!("d{}", i % depts.max(1))),
                Value::Int(rng.gen_range(20_000..150_000)),
            ],
        )
        .unwrap();
    }
    rdb
}

/// Binds a standard "staff" view over a [`people`] system: a virtual
/// Address attribute, the Adult/Senior specialization chain, and a Family
/// imaginary class.
pub fn staff_view(sys: &System, options: ViewOptions) -> View {
    ViewDef::from_script(
        r#"
        create view Bench;
        import all classes from database Staff;
        attribute Address in class Person has value
            [City: self.City, Street: self.Street];
        class Adult includes (select P from Person where P.Age >= 21);
        class Senior includes (select A from Adult where A.Age >= 65);
        class Family includes imaginary
            (select [Husband: H, Wife: H.Spouse]
             from H in Person where H.Sex = "male" and H.Spouse != null);
        "#,
    )
    .unwrap()
    .binder(sys)
    .options(options)
    .bind()
    .unwrap()
}

/// Wall-clock nanoseconds per run of `f`: the fastest batch mean over up
/// to four batches of `iters / 4` runs (after one warmup). The minimum is
/// a robust estimator of the uncontended cost on shared or single-vCPU
/// machines, where scheduler steal inflates arbitrary batches and a plain
/// mean makes regression gates flaky. The perf gate takes a second
/// minimum on top of this one, over three runs (see [`baseline`]).
pub fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let batches = if iters >= 4 { 4 } else { 1 };
    let per = (iters / batches).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let start = std::time::Instant::now();
        for _ in 0..per {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(per));
    }
    best
}

/// Formats nanoseconds human-readably.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn people_generator_is_deterministic() {
        let a = people(50);
        let b = people(50);
        let da = a.database(sym("Staff")).unwrap();
        let db_ = b.database(sym("Staff")).unwrap();
        let (da, db_) = (da.read(), db_.read());
        assert_eq!(da.store.len(), 50);
        // Same ages in the same iteration order (oids differ: global
        // counter).
        let person = da.schema.class_by_name(sym("Person")).unwrap();
        let ages = |d: &Database| -> Vec<Value> {
            d.deep_extent(person)
                .iter()
                .map(|&o| d.stored_attr(o, sym("Age")).unwrap().clone())
                .collect()
        };
        assert_eq!(ages(&da), ages(&db_));
    }

    #[test]
    fn staff_view_binds_and_queries() {
        let sys = people(30);
        let view = staff_view(&sys, ViewOptions::default());
        let n = view.query("count((select A from A in Adult))").unwrap();
        assert!(matches!(n, Value::Int(k) if k > 0));
        let f = view.query("count(Family)").unwrap();
        assert!(matches!(f, Value::Int(_)));
    }

    #[test]
    fn market_generator_shapes() {
        let sys = market(8, 3, 5);
        let db = sys.database(sym("Market")).unwrap();
        let db = db.read();
        assert_eq!(db.schema.len(), 8 + 2);
        assert_eq!(db.store.len(), 8 * 5);
    }

    #[test]
    fn payroll_generator_shapes() {
        let rdb = payroll(20, 4);
        assert_eq!(rdb.relation(sym("Emp")).unwrap().len(), 20);
    }
}
