//! A key probe whose estimate is far from its one actual row must not
//! churn the plan cache: with cold statistics the planner guesses hundreds
//! of rows for `Id = k`, the probe returns one, and every execution used to
//! evict the plan, re-plan from the same sketches and drift again.
//!
//! Its own test binary: the plan-cache counters are process-wide.

use std::sync::Mutex;

use ov_oodb::{sym, AttrDef, Database, Type, Value};

/// The plan cache and its counters are process-wide: one test at a time.
static PLAN_CACHE: Mutex<()> = Mutex::new(());

#[test]
fn a_repeated_key_probe_is_planned_once() {
    let _serial = PLAN_CACHE.lock().unwrap_or_else(|e| e.into_inner());
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

/// The cache is bounded: a stream of distinct query shapes empties it at
/// `PLAN_CACHE_CAP` entries instead of growing it, and counts what it
/// dropped.
#[test]
fn a_stream_of_distinct_shapes_cannot_grow_the_cache_without_bound() {
    use ov_query::planner::{plan_select, PLAN_CACHE_CAP};
    let _serial = PLAN_CACHE.lock().unwrap_or_else(|e| e.into_inner());
    let db = Database::new(sym("BoundDb"));
    // Literals normalize away, attribute names do not: one fingerprint per
    // `i`. Returns whether the plan came from the cache.
    let plan = |i: usize, lit: i64| {
        let expr = ov_query::parse_expr(&format!(
            "select P from P in BoundItem where P.A{i} = {lit}"
        ))
        .unwrap();
        let ov_oodb::Expr::Select(q) = &expr else {
            unreachable!()
        };
        plan_select(&db, &expr, q).cache_hit
    };
    let evictions = || {
        ov_oodb::metrics::registry()
            .counter("planner.cache_evictions")
            .get()
    };
    let before = evictions();
    let last = PLAN_CACHE_CAP + 9;
    assert!((0..=last).all(|i| !plan(i, 1)), "every shape is new");
    // The other tests of this binary hold one entry each at most, so the
    // cap was reached, and emptied, exactly once.
    let dropped = evictions() - before;
    assert!(
        (PLAN_CACHE_CAP as u64..=PLAN_CACHE_CAP as u64 + 1).contains(&dropped),
        "dropped {dropped}"
    );
    // A shape planned after the overflow is served from the cache again.
    assert!(plan(last, 2));
}

/// Fingerprints normalize literals, so two probes that differ only in
/// their literal share one cache entry — which holds no literal: each
/// probes the index for its *own* value and gets its own row.
#[test]
fn probes_differing_only_in_their_literal_share_a_plan_and_probe_their_own_value() {
    use ov_query::planner::{plan_select, Strategy};
    let _serial = PLAN_CACHE.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = Database::new(sym("RebindDb"));
    let item = db
        .create_class(
            sym("RebindItem"),
            &[],
            vec![AttrDef::stored(sym("Id"), Type::Int)],
        )
        .unwrap();
    for i in 0..50i64 {
        db.create_object(item, Value::tuple([("Id", Value::Int(i))]))
            .unwrap();
    }
    db.create_index(item, sym("Id")).unwrap();
    let probe = |k: i64| {
        let expr = ov_query::parse_expr(&format!(
            "select P.Id from P in RebindItem where P.Id = {k}"
        ))
        .unwrap();
        let ov_oodb::Expr::Select(q) = &expr else {
            unreachable!()
        };
        let rows = ov_query::run_expr(&db, &expr).unwrap();
        assert_eq!(rows, Value::set([Value::Int(k)]), "probe {k}");
        plan_select(&db, &expr, q)
    };
    let pushdown = |k: i64| Strategy::IndexPushdown {
        class: sym("RebindItem"),
        attr: sym("Id"),
        value: Value::Int(k),
    };
    // The first probe's own run planned the shape; everything after hits.
    for k in [7, 9, 7, 31] {
        let d = probe(k);
        assert!(d.cache_hit, "probe {k} shares the entry");
        assert_eq!(d.strategy, pushdown(k), "probe {k} probes its own literal");
    }
}
