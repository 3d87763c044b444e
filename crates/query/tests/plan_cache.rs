//! The plan cache: one entry per statement shape, holding its plan and its
//! compiled code.
//!
//! A key probe whose estimate is far from its one actual row must not
//! churn the plan cache: with cold statistics the planner guesses hundreds
//! of rows for `Id = k`, the probe returns one, and every execution used to
//! evict the plan, re-plan from the same sketches and drift again. And a
//! shape compiles once: its other literal values bind their literals to
//! the cached code, which goes when the entry goes and is never served to
//! another shape.
//!
//! Its own test binary: the plan-cache and compile counters are
//! process-wide.

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
    // The other tests of this binary leave a few entries at most, so the
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

/// A database of `n` `class` objects with an indexed key `Id`.
fn keyed_db(name: &str, class: &str, n: i64) -> Database {
    let mut db = Database::new(sym(name));
    let item = db
        .create_class(
            sym(class),
            &[],
            vec![
                AttrDef::stored(sym("Id"), Type::Int),
                AttrDef::stored(sym("Age"), Type::Int),
            ],
        )
        .unwrap();
    for i in 0..n {
        db.create_object(
            item,
            Value::tuple([("Id", Value::Int(i)), ("Age", Value::Int(i % 7))]),
        )
        .unwrap();
    }
    db.create_index(item, sym("Id")).unwrap();
    db
}

/// Statement programs compiled so far (`compile.programs`).
fn compiles() -> u64 {
    ov_oodb::metrics::registry()
        .counter("compile.programs")
        .get()
}

/// A statement shape compiles once: every other literal value of it binds
/// its literals to the cached code — a canonical probe and a general
/// program (an aggregate over a select) alike — and answers for its own
/// literals.
#[test]
fn n_literal_values_of_one_shape_cost_one_compile() {
    let _serial = PLAN_CACHE.lock().unwrap_or_else(|e| e.into_inner());
    let db = keyed_db("OnceDb", "OnceItem", 40);
    ov_query::clear_plan_cache();
    let before = compiles();
    for k in 0..40i64 {
        let probe = ov_query::run_query(
            &db,
            &format!("select [I: P.Id, A: P.Age + {k}] from P in OnceItem where P.Id = {k}"),
        )
        .unwrap();
        let want = Value::tuple([("I", Value::Int(k)), ("A", Value::Int(k % 7 + k))]);
        assert_eq!(probe, Value::set([want]), "probe {k}");
        let older = ov_query::run_query(
            &db,
            &format!("count(select P from P in OnceItem where P.Id >= {k})"),
        )
        .unwrap();
        assert_eq!(older, Value::Int(40 - k), "count {k}");
    }
    assert_eq!(compiles() - before, 2, "two shapes, one compile each");
}

/// `clear_plan_cache` and a `PLAN_CACHE_CAP` eviction drop a shape's code
/// together with its plan: the next statement of the shape compiles and
/// plans again.
#[test]
fn clearing_or_evicting_the_cache_drops_code_with_plans() {
    use ov_query::planner::{plan_cache_counters, plan_select, PLAN_CACHE_CAP};
    let _serial = PLAN_CACHE.lock().unwrap_or_else(|e| e.into_inner());
    let db = keyed_db("DropDb", "DropItem", 20);
    let probe = |k: i64| {
        let before = (compiles(), plan_cache_counters().1);
        let rows = ov_query::run_query(
            &db,
            &format!("select P.Id from P in DropItem where P.Id = {k}"),
        )
        .unwrap();
        assert_eq!(rows, Value::set([Value::Int(k)]));
        (compiles() - before.0, plan_cache_counters().1 - before.1)
    };
    probe(1);
    assert_eq!(probe(2), (0, 0), "a warm shape neither compiles nor plans");
    ov_query::clear_plan_cache();
    assert_eq!(probe(3), (1, 1), "cleared: compiled and planned again");
    assert_eq!(probe(4), (0, 0));
    // Fill the cache past its bound with other shapes: the evict-all
    // drops this shape's entry, code and plan alike.
    for i in 0..PLAN_CACHE_CAP {
        let expr =
            ov_query::parse_expr(&format!("select P from P in DropItem where P.B{i} = 1")).unwrap();
        let ov_oodb::Expr::Select(q) = &expr else {
            unreachable!()
        };
        plan_select(&db, &expr, q);
    }
    assert_eq!(probe(5), (1, 1), "evicted: compiled and planned again");
}

/// Two shapes whose fingerprints collide share one cache entry but never
/// its code: a statement is served cached code only when it has the shape
/// the code was compiled from. The placeholder name `?` renders like a
/// literal in the literal-normalized fingerprint, so `P.Id = ?` and
/// `P.Id = 3` are planted under one key.
#[test]
fn two_shapes_planted_under_one_key_never_share_code() {
    use ov_oodb::Expr;
    use ov_query::fingerprint_hash;
    let _serial = PLAN_CACHE.lock().unwrap_or_else(|e| e.into_inner());
    let db = keyed_db("KeyDb", "KeyItem", 10);
    ov_query::clear_plan_cache();
    let placeholder = |e: &Expr| {
        ov_query::rewrite_expr(e, &mut |x| {
            matches!(x, Expr::Lit(_)).then(|| Expr::Name(sym("?")))
        })
    };
    for text in [
        "select P.Age from P in KeyItem where P.Id = 3",
        "count(select P from P in KeyItem where P.Id >= 3)",
    ] {
        let lit = ov_query::parse_expr(text).unwrap();
        let named = placeholder(&lit);
        assert_ne!(lit, named);
        assert_eq!(fingerprint_hash(&lit), fingerprint_hash(&named), "{text}");
        let walk = |e: &Expr| {
            ov_query::with_engine_mode(ov_query::EngineMode::Interp, || ov_query::run_expr(&db, e))
        };
        let (want_lit, want_named) = (walk(&lit), walk(&named));
        assert!(want_lit.is_ok() && want_named.is_err(), "{text}");
        let before = compiles();
        for _ in 0..2 {
            assert_eq!(ov_query::run_expr(&db, &lit), want_lit, "{text}");
            assert_eq!(ov_query::run_expr(&db, &named), want_named, "{text}");
        }
        // Each run met the other shape's code under the key and compiled
        // its own.
        assert_eq!(compiles() - before, 4, "{text}");
    }
}

/// One shape on a database and then on a view: the view reuses the code
/// the database's statement compiled — code names no source — but gets a
/// plan of its own, since plans are stamped with the source's resolution
/// generation.
#[test]
fn one_shape_on_a_database_and_a_view_reuses_its_code_but_plans_per_source() {
    use ov_query::planner::plan_cache_counters;
    let _serial = PLAN_CACHE.lock().unwrap_or_else(|e| e.into_inner());
    let mut sys = ov_oodb::System::new();
    sys.add_database(keyed_db("ShareDb", "ShareItem", 30))
        .unwrap();
    let view = ov_views::ViewDef::from_script(
        "create view ShareView;
         import all classes from database ShareDb;
         attribute Twice in class ShareItem has value self.Age * 2;
         class Young includes (select P from P in ShareItem where P.Age < 3);",
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // A view's resolution generation is never the base's, populated or not.
    assert_eq!(view.query("count(Young)").unwrap(), Value::Int(14));
    let db = sys.database(sym("ShareDb")).unwrap();
    let db = db.read();
    assert_ne!(
        ov_query::DataSource::resolution_generation(&view),
        ov_query::DataSource::resolution_generation(&*db)
    );
    ov_query::clear_plan_cache();
    let probe = |src: &dyn ov_query::DataSource, k: i64| {
        let before = (compiles(), plan_cache_counters().1);
        let rows = ov_query::run_query(
            src,
            &format!("select [I: P.Id, A: P.Age] from P in ShareItem where P.Id = {k}"),
        )
        .unwrap();
        let want = Value::tuple([("I", Value::Int(k)), ("A", Value::Int(k % 7))]);
        assert_eq!(rows, Value::set([want]), "probe {k}");
        (compiles() - before.0, plan_cache_counters().1 - before.1)
    };
    assert_eq!(
        probe(&*db, 4),
        (1, 1),
        "the first statement compiles and plans"
    );
    assert_eq!(probe(&*db, 5), (0, 0));
    assert_eq!(
        probe(&view, 6),
        (0, 1),
        "the view reuses the code, plans anew"
    );
    assert_eq!(probe(&view, 7), (0, 0));
    assert_eq!(
        probe(&*db, 8),
        (0, 1),
        "back on the base: its own plan again"
    );
}
