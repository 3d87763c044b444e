//! A key probe whose estimate is far from its one actual row must not
//! churn the plan cache: with cold statistics the planner guesses hundreds
//! of rows for `Id = k`, the probe returns one, and every execution used to
//! evict the plan, re-plan from the same sketches and drift again.
//!
//! Its own test binary: the plan-cache counters are process-wide.

use ov_oodb::{sym, AttrDef, Database, Type, Value};

#[test]
fn a_repeated_key_probe_is_planned_once() {
    let mut db = Database::new(sym("ChurnDb"));
    let item = db
        .create_class(
            sym("ChurnItem"),
            &[],
            vec![AttrDef::stored(sym("Id"), Type::Int)],
        )
        .unwrap();
    for i in 0..200i64 {
        db.create_object(item, Value::tuple([("Id", Value::Int(i))]))
            .unwrap();
    }
    db.create_index(item, sym("Id")).unwrap();

    let (hits0, misses0, replans0) = ov_query::planner::plan_cache_counters();
    for k in 0..1000i64 {
        let rows = ov_query::run_query(
            &db,
            &format!("select P from P in ChurnItem where P.Id = {}", k % 200),
        )
        .unwrap();
        assert_eq!(rows.as_set().map(|s| s.len()), Some(1));
    }
    let (hits1, misses1, replans1) = ov_query::planner::plan_cache_counters();
    let (hits, misses) = (hits1 - hits0, misses1 - misses0);
    assert!(replans1 - replans0 <= 1, "replans {}", replans1 - replans0);
    assert_eq!(hits + misses, 1000);
    assert!(hits >= 990, "hit ratio {hits}/1000");
}
