//! Property tests of the compiled predicate engine. Against the
//! tree-walking interpreter it answers alike: for random predicates over a
//! scan variable, the same value or the *same* error (`QueryError` is
//! `PartialEq`, so error variants and messages are compared exactly), and
//! injected faults surface identically. Against the budget's charge
//! formula (DESIGN.md §8) each engine is checked on its own: it is charged
//! what the plan touches — one step per row a loop binds and per computed
//! body run, one row per value an answer gains — and a step cap breaches
//! exactly when it is below that charge.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ov_oodb::{sym, AttrDef, BinOp, ClassId, Database, Expr, Oid, Symbol, Type, UnOp, Value};
use ov_query::{
    compile_predicate, Budget, DataSource, EngineMode, Env, Evaluator, QueryError, ResolvedAttr,
    Scan,
};
use proptest::prelude::*;

/// Serializes the tests that change process-wide state a concurrent test
/// would observe: the plan cache and the code in it (cleared between a
/// fill and its cached run, the cached run would be a fresh one), the
/// failpoint registry (an armed index probe fails in every test) and the
/// profiler switch (which feeds the sketches plans are chosen from).
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static PROCESS_STATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    PROCESS_STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// A small database with stored and computed attributes, so random
/// predicates exercise the slot-resolution cache on both kinds, plus what
/// free names and `isa` read: the named object `aa` (row `a`) and a
/// subclass `Clerk` with one member.
fn db() -> Database {
    let mut db = Database::new(sym("CompDb"));
    let person = db
        .create_class(
            sym("Person"),
            &[],
            vec![
                AttrDef::stored(sym("Name"), Type::Str),
                AttrDef::stored(sym("Age"), Type::Int),
                AttrDef::computed(
                    sym("Senior"),
                    Type::Bool,
                    Expr::bin(BinOp::Ge, Expr::self_attr("Age"), Expr::lit(Value::Int(65))),
                ),
            ],
        )
        .unwrap();
    for (n, a) in [("a", 10), ("b", 30), ("c", 70)] {
        db.create_object(
            person,
            Value::tuple([("Name", Value::str(n)), ("Age", Value::Int(a))]),
        )
        .unwrap();
    }
    let a = db.store.extent(person).next().unwrap();
    db.name_object(sym("aa"), a).unwrap();
    let clerk = db.create_class(sym("Clerk"), &[person], vec![]).unwrap();
    db.create_object(
        clerk,
        Value::tuple([("Name", Value::str("d")), ("Age", Value::Int(40))]),
    )
    .unwrap();
    db
}

/// The oids of the three Person rows.
fn rows(db: &Database) -> Vec<Value> {
    let person = db.schema.class_by_name(sym("Person")).unwrap();
    db.store.extent(person).map(Value::Oid).collect()
}

fn arb_lit() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(Expr::Lit(Value::Null)),
        any::<bool>().prop_map(|b| Expr::Lit(Value::Bool(b))),
        (-100i64..100).prop_map(|i| Expr::Lit(Value::Int(i))),
        (-10.0f64..10.0).prop_map(|f| Expr::Lit(Value::Float(f))),
        "[a-c]{0,3}".prop_map(|s| Expr::Lit(Value::str(&s))),
    ]
}

/// Random predicates over scan variable `V`: literals, the variable,
/// attribute access, free names (a named object, a class extent, an
/// unknown name), an unbound `self`, operators, `if`, `isa` (on a class,
/// a subclass, an unknown class), a parameterized-class application and
/// set constructors.
fn arb_pred() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_lit(),
        Just(Expr::name("V")),
        Just(Expr::attr(Expr::name("V"), "Age")),
        Just(Expr::attr(Expr::name("V"), "Name")),
        Just(Expr::attr(Expr::name("V"), "Senior")),
        Just(Expr::attr(Expr::name("V"), "NoSuchAttr")),
        Just(Expr::attr(Expr::lit(Value::Int(3)), "Age")),
        Just(Expr::name("aa")),
        Just(Expr::attr(Expr::name("aa"), "Age")),
        Just(Expr::name("Person")),
        Just(Expr::name("Ghost")),
        Just(Expr::SelfRef),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                    Just(BinOp::Mod),
                    Just(BinOp::Concat),
                    Just(BinOp::Eq),
                    Just(BinOp::Ne),
                    Just(BinOp::Lt),
                    Just(BinOp::Le),
                    Just(BinOp::Gt),
                    Just(BinOp::Ge),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::bin(op, l, r)),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
            }),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(e),
            }),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::If {
                cond: Box::new(c),
                then: Box::new(t),
                els: Box::new(e),
            }),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Expr::SetCons),
            (inner.clone(), 0usize..3).prop_map(|(e, class)| Expr::IsA {
                expr: Box::new(e),
                class: sym(["Person", "Clerk", "Ghost"][class]),
            }),
            inner.clone().prop_map(|e| Expr::Apply {
                name: sym("Older"),
                args: vec![e],
            }),
        ]
    })
}

/// The interpreter's verdict for `e` with `V` bound to `row`, under an
/// optional budget.
fn interp(
    db: &Database,
    e: &Expr,
    row: &Value,
    budget: Option<Arc<Budget>>,
) -> Result<Value, QueryError> {
    let run = || {
        let mut env = Env::new();
        env.bind(sym("V"), row.clone());
        Evaluator::new(db).eval(e, &mut env)
    };
    match budget {
        Some(b) => ov_query::budget::with(b, run),
        None => run(),
    }
}

/// The compiled engine's verdict.
fn compiled(
    db: &Database,
    e: &Expr,
    row: &Value,
    budget: Option<Arc<Budget>>,
) -> Result<Value, QueryError> {
    let prog = compile_predicate(e, &[sym("V")]);
    let run = || {
        let mut scan = Scan::new(&prog, db);
        scan.bind(0, row.clone());
        scan.run(0)
    };
    match budget {
        Some(b) => ov_query::budget::with(b, run),
        None => run(),
    }
}

/// Scans `rows` through the interpreter with one shared budget — the
/// sequential scan-loop shape — stopping at the first error.
fn interp_scan_all(
    db: &Database,
    e: &Expr,
    rows: &[Value],
    budget: Arc<Budget>,
) -> (Vec<Value>, Option<QueryError>) {
    ov_query::budget::with(budget, || {
        let ev = Evaluator::new(db);
        let mut vals = Vec::new();
        for row in rows {
            let mut env = Env::new();
            env.bind(sym("V"), row.clone());
            match ev.eval(e, &mut env) {
                Ok(v) => vals.push(v),
                Err(err) => return (vals, Some(err)),
            }
        }
        (vals, None)
    })
}

/// Scans `rows` through one compiled executor (so rows after the first
/// run on warm resolution caches), sharing one budget across the whole
/// scan.
fn compiled_scan_all(
    db: &Database,
    e: &Expr,
    rows: &[Value],
    budget: Arc<Budget>,
) -> (Vec<Value>, Option<QueryError>) {
    let prog = compile_predicate(e, &[sym("V")]);
    ov_query::budget::with(budget, || {
        let mut scan = Scan::new(&prog, db);
        let mut vals = Vec::new();
        for row in rows {
            scan.bind(0, row.clone());
            match scan.run(0) {
                Ok(v) => vals.push(v),
                Err(err) => return (vals, Some(err)),
            }
        }
        (vals, None)
    })
}

/// Runs `run` under an uncapped budget, then under a cap of `max_steps`.
/// A cap that covers the uncapped charge answers what the uncapped run
/// answered; a lower one breaches, typed, on the steps limit (`breach`
/// finds the error in an outcome). Returns the capped outcome.
fn governed<R: PartialEq + std::fmt::Debug>(
    run: impl Fn(Arc<Budget>) -> R,
    breach: fn(&R) -> Option<&QueryError>,
    max_steps: u64,
) -> Result<R, TestCaseError> {
    let uncapped = Arc::new(Budget::new());
    let want = run(uncapped.clone());
    let charge = uncapped.steps_used();
    let got = run(Arc::new(Budget::new().with_max_steps(max_steps)));
    if max_steps >= charge {
        prop_assert_eq!(
            &got,
            &want,
            "the cap {} covers the charge {}",
            max_steps,
            charge
        );
    } else {
        prop_assert!(
            matches!(breach(&got), Some(QueryError::ResourceExhausted(b)) if b.limit == "steps"),
            "the cap {} is below the charge {}: {:?}",
            max_steps,
            charge,
            got
        );
    }
    Ok(got)
}

/// The error a scan of several rows stopped on.
fn scan_error(outcome: &(Vec<Value>, Option<QueryError>)) -> Option<&QueryError> {
    outcome.1.as_ref()
}

/// The error a run stopped on.
fn run_error(outcome: &Result<Value, QueryError>) -> Option<&QueryError> {
    outcome.as_ref().err()
}

/// Scans `rows` with `e` under a `max_steps` cap: each engine is governed
/// by its own charge, and the two answer alike — the same values, the same
/// first error on the same row.
fn assert_scans_agree(
    db: &Database,
    e: &Expr,
    rows: &[Value],
    max_steps: u64,
) -> Result<(), TestCaseError> {
    let want = governed(|b| interp_scan_all(db, e, rows, b), scan_error, max_steps)?;
    let got = governed(|b| compiled_scan_all(db, e, rows, b), scan_error, max_steps)?;
    prop_assert_eq!(&got, &want, "expr: {} (max_steps={})", e, max_steps);
    Ok(())
}

/// [`db`] with `Person.Senior` made to count the bodies run: its body
/// reads `Tick(self.Age >= 65)`, and `Tick(v)` answers `v` and adds one to
/// `ticks`. One tick is one body run, whichever engine runs it and however
/// it reaches it — the walker through `resolve`, a compiled scan through
/// its class verdict.
struct Ticking {
    db: Database,
    senior: ResolvedAttr,
    ticks: AtomicU64,
}

impl Ticking {
    fn new() -> Ticking {
        let body = Expr::Apply {
            name: sym("Tick"),
            args: vec![Expr::bin(
                BinOp::Ge,
                Expr::self_attr("Age"),
                Expr::lit(Value::Int(65)),
            )],
        };
        Ticking {
            db: db(),
            senior: ResolvedAttr::Computed {
                params: vec![],
                body: Arc::new(body),
            },
            ticks: AtomicU64::new(0),
        }
    }

    /// The counting resolution, when `name` is `Senior`.
    fn ticking(&self, name: Symbol) -> Option<ResolvedAttr> {
        (name == sym("Senior")).then(|| self.senior.clone())
    }
}

impl ov_oodb::ClassGraph for Ticking {
    fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.db.is_subclass(sub, sup)
    }
    fn ancestors(&self, c: ClassId) -> Vec<ClassId> {
        self.db.ancestors(c)
    }
    fn class_name(&self, c: ClassId) -> Symbol {
        self.db.class_name(c)
    }
}

impl DataSource for Ticking {
    fn apply(&self, name: Symbol, args: &[Value]) -> ov_query::Result<Value> {
        match (name == sym("Tick"), args) {
            (true, [v]) => {
                self.ticks.fetch_add(1, Ordering::Relaxed);
                Ok(v.clone())
            }
            _ => DataSource::apply(&self.db, name, args),
        }
    }
    fn class_by_name(&self, name: Symbol) -> Option<ClassId> {
        DataSource::class_by_name(&self.db, name)
    }
    fn class_of(&self, oid: Oid) -> ov_query::Result<ClassId> {
        DataSource::class_of(&self.db, oid)
    }
    fn extent(&self, class: ClassId) -> ov_query::Result<Vec<Oid>> {
        DataSource::extent(&self.db, class)
    }
    fn is_member(&self, oid: Oid, class: ClassId) -> ov_query::Result<bool> {
        DataSource::is_member(&self.db, oid, class)
    }
    fn resolve(&self, oid: Oid, name: Symbol) -> ov_query::Result<ResolvedAttr> {
        match self.ticking(name) {
            Some(res) => Ok(res),
            None => DataSource::resolve(&self.db, oid, name),
        }
    }
    fn class_verdict(&self, class: ClassId, name: Symbol) -> Option<ResolvedAttr> {
        self.ticking(name)
            .or_else(|| self.db.class_verdict(class, name))
    }
    fn stored_field(&self, oid: Oid, name: Symbol) -> ov_query::Result<Value> {
        DataSource::stored_field(&self.db, oid, name)
    }
    fn named_object(&self, name: Symbol) -> Option<Oid> {
        DataSource::named_object(&self.db, name)
    }
    fn object_exists(&self, oid: Oid) -> bool {
        DataSource::object_exists(&self.db, oid)
    }
    fn attr_sig(&self, c: ClassId, name: Symbol) -> Option<ov_oodb::AttrSig> {
        DataSource::attr_sig(&self.db, c, name)
    }
    fn class_type(&self, c: ClassId) -> Type {
        DataSource::class_type(&self.db, c)
    }
    fn resolution_class_and_field(&self, oid: Oid, name: Symbol) -> Option<(ClassId, Value)> {
        DataSource::resolution_class_and_field(&self.db, oid, name)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A multi-row scan under a step cap: each engine answers in full when
    /// the cap covers its charge and breaches, typed, when it does not —
    /// and the two stop on the same row with the same error.
    #[test]
    fn multi_row_scans_breach_identically(e in arb_pred(), max_steps in 0u64..8) {
        let db = db();
        assert_scans_agree(&db, &e, &rows(&db), max_steps)?;
    }

    /// Same value, or the same error (variant and payload), on every row.
    #[test]
    fn compiled_matches_interpreter(e in arb_pred()) {
        let db = db();
        for row in rows(&db) {
            let want = interp(&db, &e, &row, None);
            let got = compiled(&db, &e, &row, None);
            prop_assert_eq!(&got, &want, "expr: {}", e);
        }
    }

    /// Under a step cap, both engines charge the bodies a predicate runs
    /// alike and breach at the same point with the same error.
    #[test]
    fn budget_accounting_is_bit_identical(e in arb_pred(), max_steps in 0u64..48) {
        let db = db();
        for row in rows(&db) {
            let bi = Arc::new(Budget::new().with_max_steps(max_steps));
            let want = interp(&db, &e, &row, Some(bi.clone()));
            let bc = Arc::new(Budget::new().with_max_steps(max_steps));
            let got = compiled(&db, &e, &row, Some(bc.clone()));
            prop_assert_eq!(&got, &want, "expr: {} (max_steps={})", e, max_steps);
            prop_assert_eq!(
                bc.steps_used(),
                bi.steps_used(),
                "step divergence on {} (max_steps={})",
                e,
                max_steps
            );
        }
    }

    /// With no cap, both engines still meter the same steps: the
    /// accounting itself, not just the breach, is alike.
    #[test]
    fn uncapped_step_counts_match(e in arb_pred()) {
        let db = db();
        for row in rows(&db) {
            let bi = Arc::new(Budget::new());
            let want = interp(&db, &e, &row, Some(bi.clone()));
            let bc = Arc::new(Budget::new());
            let got = compiled(&db, &e, &row, Some(bc.clone()));
            prop_assert_eq!(&got, &want, "expr: {}", e);
            prop_assert_eq!(bc.steps_used(), bi.steps_used(), "expr: {}", e);
        }
    }

    /// The charge formula, in each engine on its own: a select over
    /// `Person`, the predicate as its filter or as its projection, charges
    /// one step per row its loop binds (EXPLAIN's `scanned`) and one per
    /// `Senior` body it runs (the source's ticks), and one row per value
    /// of its answer — an error stops both counts on the same row.
    #[test]
    fn a_budget_charges_each_row_and_each_body(e in arb_pred(), as_filter in any::<bool>()) {
        let src = Ticking::new();
        let q = Expr::Select(ov_oodb::SelectExpr {
            distinct: false,
            the: false,
            proj: Box::new(if as_filter { Expr::name("V") } else { e.clone() }),
            bindings: vec![(sym("V"), Expr::name("Person"))],
            filter: as_filter.then(|| Box::new(e.clone())),
        });
        for mode in [EngineMode::Interp, EngineMode::Compiled] {
            src.ticks.store(0, Ordering::Relaxed);
            let budget = Arc::new(Budget::new());
            let (answer, actuals) = ov_query::budget::with(budget.clone(), || {
                ov_query::with_engine_mode(mode, || {
                    ov_query::plan::with_scan_actuals(|| ov_query::run_expr(&src, &q))
                })
            });
            let bodies = src.ticks.load(Ordering::Relaxed);
            prop_assert_eq!(
                budget.steps_used(),
                actuals.rows_scanned + bodies,
                "{:?}: steps of {} ({:?})",
                mode,
                q,
                answer
            );
            if let Ok(Value::Set(s)) = &answer {
                prop_assert_eq!(budget.rows_used(), s.len() as u64, "{:?}: rows of {}", mode, q);
            }
        }
    }

    /// EXPLAIN ANALYZE actuals are engine-invariant: for one query, the
    /// tree-walking interpreter and the compiled engine report identical
    /// rows-scanned, rows-matched, and budget-step actuals in the query
    /// trace (resolution-cache counters are compiled-engine diagnostics
    /// and legitimately differ).
    #[test]
    fn actuals_are_engine_invariant(
        threshold in -5i64..105,
        q_idx in 0usize..6,
    ) {
        use ov_query::run_query_traced;
        let db = db();
        let queries = [
            format!("select V.Name from V in Person where V.Age >= {threshold}"),
            format!("select V from V in Person where V.Age < {threshold}"),
            format!("select V.Age from V in Person where V.Senior and V.Age > {threshold}"),
            format!("count((select V from V in Person where V.Age != {threshold}))"),
            format!("sum(select V.Age from V in Person where V.Age >= {threshold})"),
            "count(Person)".to_string(),
        ];
        let q = &queries[q_idx];
        // Each run gets a fresh unlimited budget so the trace's `steps`
        // actual (a bracketed budget delta) is populated and comparable.
        let run = |mode: EngineMode| {
            ov_query::budget::with(Arc::new(Budget::new()), || {
                ov_query::with_engine_mode(mode, || run_query_traced(&db, q))
            })
            .unwrap()
        };
        let (v0, t0) = run(EngineMode::Interp);
        let (v, t) = run(EngineMode::Compiled);
        prop_assert_eq!(t.engine, Some(ov_query::Engine::Compiled), "`{}` must compile", q);
        prop_assert_eq!(&v, &v0, "result divergence on `{}`", q);
        prop_assert_eq!(t.actuals.rows_scanned, t0.actuals.rows_scanned, "rows_scanned on `{}`", q);
        prop_assert_eq!(t.actuals.rows_matched, t0.actuals.rows_matched, "rows_matched on `{}`", q);
        prop_assert_eq!(t.actuals.steps, t0.actuals.steps, "steps on `{}`", q);
        prop_assert_eq!(t.actuals.rows_charged, t0.actuals.rows_charged, "rows_charged on `{}`", q);
    }
}

/// Random predicates over two scan variables `a` and `b` — the raw
/// material for multi-binding filters and correlated sub-select filters.
fn arb_pred2(a: &'static str, b: &'static str) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_lit(),
        Just(Expr::name(a)),
        Just(Expr::attr(Expr::name(a), "Age")),
        Just(Expr::attr(Expr::name(a), "Name")),
        Just(Expr::attr(Expr::name(a), "Senior")),
        Just(Expr::name(b)),
        Just(Expr::attr(Expr::name(b), "Age")),
        Just(Expr::attr(Expr::name(b), "Name")),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Div),
                    Just(BinOp::Eq),
                    Just(BinOp::Ne),
                    Just(BinOp::Lt),
                    Just(BinOp::Ge),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::bin(op, l, r)),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
            }),
        ]
    })
}

/// A predicate over `V` that embeds a sub-select over `Q in Person` with a
/// (possibly correlated) random filter. `exists` picks `Exists` vs a value
/// comparison of the inner `Select`; `the` exercises the single-row
/// cardinality error path.
fn nested_pred(exists: bool, the: bool, filter: Expr) -> Expr {
    let q = ov_oodb::SelectExpr {
        distinct: false,
        the,
        proj: Box::new(Expr::attr(Expr::name("Q"), "Age")),
        bindings: vec![(sym("Q"), Expr::name("Person"))],
        filter: Some(Box::new(filter)),
    };
    if exists {
        Expr::Exists(q)
    } else {
        Expr::bin(BinOp::Ne, Expr::Select(q), Expr::Lit(Value::Null))
    }
}

/// A top-level two-binding select over `V, W in Person` with a random
/// filter and one of three projections (outer attr, inner attr, tuple of
/// both).
fn select2(the: bool, proj_idx: usize, filter: Expr) -> Expr {
    Expr::Select(ov_oodb::SelectExpr {
        distinct: false,
        the,
        proj: Box::new(match proj_idx {
            0 => Expr::attr(Expr::name("V"), "Name"),
            1 => Expr::attr(Expr::name("W"), "Age"),
            _ => Expr::TupleCons(vec![
                (sym("A"), Expr::attr(Expr::name("V"), "Age")),
                (sym("B"), Expr::attr(Expr::name("W"), "Name")),
            ]),
        }),
        bindings: vec![
            (sym("V"), Expr::name("Person")),
            (sym("W"), Expr::name("Person")),
        ],
        filter: Some(Box::new(filter)),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Nested sub-selects (correlated and not, `exists` and value-compared,
    /// `the` and plain): values and error variants are identical across
    /// engines, and each is governed by its own charge.
    #[test]
    fn nested_selects_are_bit_identical(
        filter in arb_pred2("Q", "V"),
        exists in any::<bool>(),
        the in any::<bool>(),
        max_steps in 0u64..48,
    ) {
        let db = db();
        let e = nested_pred(exists, the, filter);
        assert_scans_agree(&db, &e, &rows(&db), max_steps)?;
    }

    /// Aggregates (`count`/`sum`/`min`/`max`/`avg`) over correlated
    /// selects, free class and unknown names, and non-collections: values
    /// and error variants are identical across engines, and each is
    /// governed by its own charge.
    #[test]
    fn aggregates_are_bit_identical(
        filter in arb_pred2("Q", "V"),
        func_idx in 0usize..5,
        arg_idx in 0usize..7,
        max_steps in 0u64..48,
    ) {
        use ov_oodb::AggFunc;
        let db = db();
        let func = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg][func_idx];
        let select = |proj: Expr| {
            Expr::Select(ov_oodb::SelectExpr {
                distinct: false,
                the: false,
                proj: Box::new(proj),
                bindings: vec![(sym("Q"), Expr::name("Person"))],
                filter: Some(Box::new(filter.clone())),
            })
        };
        let arg = match arg_idx {
            0 => select(Expr::attr(Expr::name("Q"), "Age")),
            1 => select(Expr::attr(Expr::name("Q"), "Name")), // sum/avg error
            2 => select(Expr::name("Q")),
            3 => Expr::name("Person"),                        // free class name
            4 => Expr::name("Ghost"),                         // unknown free name
            5 => Expr::attr(Expr::name("V"), "Age"),          // not a collection
            _ => Expr::SetCons(vec![
                Expr::attr(Expr::name("V"), "Age"),
                Expr::lit(Value::Float(1.5)),
            ]),
        };
        let e = Expr::Aggregate { func, arg: Box::new(arg) };
        assert_scans_agree(&db, &e, &rows(&db), max_steps)?;
    }

    /// Top-level multi-binding selects: the compiled nested loop produces
    /// the same value, or the same error, as the interpreter, and each is
    /// governed by its own charge.
    #[test]
    fn multi_binding_selects_are_bit_identical(
        filter in arb_pred2("V", "W"),
        the in any::<bool>(),
        proj_idx in 0usize..3,
        max_steps in 0u64..48,
    ) {
        let db = db();
        let e = select2(the, proj_idx, filter);
        let walk = |b| ov_query::budget::with(b, || Evaluator::new(&db).eval(&e, &mut Env::new()));
        let want = governed(walk, run_error, max_steps)?;
        let prog = compile_predicate(&e, &[]);
        let run = |b| ov_query::budget::with(b, || Scan::new(&prog, &db).run(0));
        let got = governed(run, run_error, max_steps)?;
        prop_assert_eq!(&got, &want, "expr: {} (max_steps={})", e, max_steps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The planner's strategy choice (index pushdown vs sequential scan vs
    /// reordered join) never changes query results: planner-on, planner-off,
    /// and the forced interpreter agree on every error-free workload.
    #[test]
    fn planner_choice_never_changes_results(t in 0i64..100, pick in 0usize..4) {
        use ov_query::{run_query, with_planner};
        let _serial = serial();
        let mut db = Database::new(sym("PlanDb"));
        let person = db
            .create_class(
                sym("Person"),
                &[],
                vec![
                    AttrDef::stored(sym("Name"), Type::Str),
                    AttrDef::stored(sym("Age"), Type::Int),
                ],
            )
            .unwrap();
        for i in 0..48 {
            db.create_object(
                person,
                Value::tuple([
                    ("Name", Value::str(&format!("p{i}"))),
                    ("Age", Value::Int(i % 24)),
                ]),
            )
            .unwrap();
        }
        db.create_index(person, sym("Age")).unwrap();
        let queries = [
            format!("select P from P in Person where P.Age = {t}"),
            format!("select P.Name from P in Person where P.Age >= {t}"),
            format!(
                "select P.Name from P in Person, D in Person \
                 where P.Age = D.Age and P.Age >= {t}"
            ),
            format!(
                "select P.Name from P in Person \
                 where exists(select Q from Q in Person where Q.Age > P.Age + {t})"
            ),
        ];
        let q = &queries[pick];
        // Warm the statistics plane so planning runs from measured
        // cardinality/NDV, then compare every strategy's verdict, each run
        // under a budget: a plan runs budgeted as it runs unbudgeted.
        ov_oodb::metrics::set_profiling(true);
        let _ = run_query(&db, "select P.Name from P in Person where P.Age >= 0");
        ov_oodb::metrics::set_profiling(false);
        let charged = |planner: bool| {
            let budget = Arc::new(Budget::new());
            let answer = ov_query::budget::with(budget.clone(), || {
                with_planner(planner, || run_query(&db, q))
            });
            (answer, budget.steps_used())
        };
        let want = ov_query::with_engine_mode(EngineMode::Interp, || run_query(&db, q));
        let (on, on_steps) = charged(true);
        let (off, off_steps) = charged(false);
        prop_assert_eq!(&on, &want, "planner-on divergence on `{}`", q);
        prop_assert_eq!(&off, &want, "planner-off divergence on `{}`", q);
        // The planner's plan touches no more rows than the textual nested
        // loop — index postings, a join level its filter prunes — and is
        // charged what it touches.
        prop_assert!(on_steps <= off_steps, "`{}`: {} > {}", q, on_steps, off_steps);
    }
}

/// An injected fault mid-scan never changes an answer: a failed index
/// probe (`store.index_lookup`) is a forced miss, so the compiled select
/// falls back to scanning the extent and agrees with the tree walker,
/// armed or not.
#[test]
fn injected_faults_surface_identically() {
    use ov_oodb::faults::{arm, clear, status, FaultAction, FaultSchedule};

    let _serial = serial();
    let mut db = Database::new(sym("FaultDb"));
    let person = db
        .create_class(
            sym("Person"),
            &[],
            vec![AttrDef::stored(sym("Age"), Type::Int)],
        )
        .unwrap();
    for i in 0..64 {
        db.create_object(person, Value::tuple([("Age", Value::Int(i))]))
            .unwrap();
    }
    db.create_index(person, sym("Age")).unwrap();
    // The second query carries a nested sub-select in its filter, so the
    // fault also exercises the compiled sub-select path.
    for q in [
        "select P from P in Person where P.Age = 21",
        "select P from P in Person \
         where P.Age = 21 and exists(select Q from Q in Person where Q.Age > P.Age)",
    ] {
        let walked = ov_query::eval_expr(&db, &ov_query::parse_expr(q).unwrap());
        assert!(
            matches!(&walked, Ok(Value::Set(s)) if s.len() == 1),
            "{walked:?}"
        );
        assert_eq!(ov_query::run_query(&db, q), walked, "{q}");
        arm(
            "store.index_lookup",
            FaultSchedule::From(1),
            FaultAction::Error,
        );
        let faulted = ov_query::run_query(&db, q);
        let fired = status()
            .into_iter()
            .any(|(site, _, fired)| site == "store.index_lookup" && fired > 0);
        clear();
        assert!(fired, "the probe ran and failed: {q}");
        assert_eq!(faulted, walked, "{q}");
    }
}

// --- the code cache ---------------------------------------------------------
//
// A statement shape compiles once: its plan-cache entry holds the code, and
// every later statement of the shape binds its own literals to it. These
// tests run each random statement shape with two literal vectors, each
// first from the other vector's cached code and then from a fresh compile
// (the plan cache cleared), and require the same value or typed error and
// the same budget charges — over a base database, a view that caches its
// populations and a view that recomputes them on every request (so every
// read of a virtual class has a population in flight, moving the view's
// resolution generation mid-statement), and again after a generation bump.

/// The database `Firm`: eight `Staffer`s with an indexed key `Id`, a
/// computed `Senior`, and the named object `st`.
fn firm() -> ov_oodb::System {
    let mut db = Database::new(sym("Firm"));
    let staffer = db
        .create_class(
            sym("Staffer"),
            &[],
            vec![
                AttrDef::stored(sym("Id"), Type::Int),
                AttrDef::stored(sym("Name"), Type::Str),
                AttrDef::stored(sym("Age"), Type::Int),
                AttrDef::computed(
                    sym("Senior"),
                    Type::Bool,
                    Expr::bin(BinOp::Ge, Expr::self_attr("Age"), Expr::lit(Value::Int(50))),
                ),
            ],
        )
        .unwrap();
    for i in 0..8i64 {
        let row = Value::tuple([
            ("Id", Value::Int(i)),
            ("Name", Value::str(["ann", "bob", "cy"][i as usize % 3])),
            ("Age", Value::Int(15 + 7 * i)),
        ]);
        let oid = db.create_object(staffer, row).unwrap();
        if i == 2 {
            db.name_object(sym("st"), oid).unwrap();
        }
    }
    db.create_index(staffer, sym("Id")).unwrap();
    let mut sys = ov_oodb::System::new();
    sys.add_database(db).unwrap();
    sys
}

/// A view over [`firm`] with a virtual class `Adult`, a virtual attribute
/// `Twice`, and the given population policy.
fn firm_view(sys: &ov_oodb::System, materialization: ov_views::Materialization) -> ov_views::View {
    ov_views::ViewDef::from_script(
        "create view FirmView;
         import all classes from database Firm;
         attribute Twice in class Staffer has value self.Age * 2;
         class Adult includes (select P from P in Staffer where P.Age >= 21);
         class Older(N) includes (select P from P in Staffer where P.Age >= N);",
    )
    .unwrap()
    .binder(sys)
    .options(
        ov_views::ViewOptions::builder()
            .materialization(materialization)
            .build(),
    )
    .bind()
    .unwrap()
}

/// Random predicates over the scan variable `V` of a `Staffer` scan: its
/// stored and computed attributes, the view's virtual attribute (an error
/// on the base), the named object, and membership in the virtual class
/// (a population in flight on the view, an unknown name on the base).
fn arb_staff_pred() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_lit(),
        (0i64..10).prop_map(|i| Expr::lit(Value::Int(i))),
        Just(Expr::name("V")),
        Just(Expr::attr(Expr::name("V"), "Id")),
        Just(Expr::attr(Expr::name("V"), "Age")),
        Just(Expr::attr(Expr::name("V"), "Name")),
        Just(Expr::attr(Expr::name("V"), "Senior")),
        Just(Expr::attr(Expr::name("V"), "Twice")),
        Just(Expr::attr(Expr::name("st"), "Age")),
        Just(Expr::bin(BinOp::In, Expr::name("V"), Expr::name("Adult"))),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                    Just(BinOp::Eq),
                    Just(BinOp::Ne),
                    Just(BinOp::Lt),
                    Just(BinOp::Ge),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| Expr::bin(op, l, r)),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
            }),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::If {
                cond: Box::new(c),
                then: Box::new(t),
                els: Box::new(e),
            }),
        ]
    })
}

/// A select over `V in class` with the given projection and filter.
fn staff_select(class: &str, proj: Expr, filter: Option<Expr>) -> ov_oodb::SelectExpr {
    ov_oodb::SelectExpr {
        distinct: false,
        the: false,
        proj: Box::new(proj),
        bindings: vec![(sym("V"), Expr::name(class))],
        filter: filter.map(Box::new),
    }
}

/// Random statement shapes: canonical scans, point reads by the indexed
/// key (through the base class, through the virtual class, and with a
/// membership test that populates it mid-scan), and general programs
/// (aggregates over a select, a bare `exists`, a nested select).
fn arb_statement() -> impl Strategy<Value = Expr> {
    (0usize..8, arb_staff_pred(), arb_staff_pred(), 0i64..10).prop_map(|(shape, p, q, k)| {
        let key = || {
            Expr::bin(
                BinOp::Eq,
                Expr::attr(Expr::name("V"), "Id"),
                Expr::lit(Value::Int(k)),
            )
        };
        let pair = || {
            Expr::TupleCons(vec![
                (sym("A"), Expr::attr(Expr::name("V"), "Name")),
                (sym("B"), q.clone()),
            ])
        };
        match shape {
            0 => Expr::Select(staff_select("Staffer", q.clone(), Some(p))),
            1 => Expr::Select(staff_select(
                "Staffer",
                pair(),
                Some(Expr::bin(BinOp::And, key(), p)),
            )),
            2 => Expr::Select(staff_select("Adult", pair(), Some(key()))),
            3 => Expr::Select(staff_select(
                "Staffer",
                Expr::attr(Expr::name("V"), "Name"),
                Some(Expr::bin(
                    BinOp::And,
                    key(),
                    Expr::bin(BinOp::In, Expr::name("V"), Expr::name("Adult")),
                )),
            )),
            4 => Expr::Aggregate {
                func: ov_oodb::AggFunc::Count,
                arg: Box::new(Expr::Select(staff_select(
                    "Staffer",
                    Expr::name("V"),
                    Some(p),
                ))),
            },
            5 => Expr::Exists(staff_select("Adult", q.clone(), Some(p))),
            6 => Expr::Aggregate {
                func: ov_oodb::AggFunc::Sum,
                arg: Box::new(Expr::Select(staff_select(
                    "Staffer",
                    Expr::attr(Expr::name("V"), "Age"),
                    Some(p),
                ))),
            },
            _ => Expr::TupleCons(vec![
                (
                    sym("N"),
                    Expr::Select(staff_select("Staffer", q.clone(), Some(key()))),
                ),
                (
                    sym("M"),
                    Expr::Exists(staff_select("Adult", Expr::name("V"), Some(p))),
                ),
            ]),
        }
    })
}

/// `e` with its literals replaced, in order, by `vals` (cycled): the same
/// shape with another literal vector.
fn relit(e: &Expr, vals: &[Value]) -> Expr {
    let mut next = vals.iter().cycle();
    ov_query::rewrite_expr(e, &mut |x| {
        matches!(x, Expr::Lit(_)).then(|| Expr::Lit(next.next().expect("cycled").clone()))
    })
}

/// What a run is compared on: its value or typed error, and the steps and
/// rows its budget was charged.
type Charged = (Result<Value, QueryError>, u64, u64);

/// Runs the statement `e` under a fresh uncapped budget.
fn charged(src: &dyn DataSource, e: &Expr) -> Charged {
    let budget = Arc::new(Budget::new());
    let r = ov_query::budget::with(budget.clone(), || ov_query::run_expr(src, e));
    (r, budget.steps_used(), budget.rows_used())
}

/// Runs `e` compiled afresh: the plan cache, and the code in it, cleared.
fn fresh(src: &dyn DataSource, e: &Expr) -> Charged {
    ov_query::clear_plan_cache();
    charged(src, e)
}

/// On `src` (named `on` in a failure), each of `a` and `b` (one shape,
/// two literal vectors) run from the other's cached code answers and
/// charges as its fresh compile.
fn cached_runs_as_fresh(
    on: &str,
    src: &dyn DataSource,
    a: &Expr,
    b: &Expr,
) -> Result<(), TestCaseError> {
    let want_a = fresh(src, a);
    let got_b = charged(src, b);
    let want_b = fresh(src, b);
    prop_assert_eq!(&got_b, &want_b, "on {}: {} from the code of {}", on, b, a);
    let got_a = charged(src, a);
    prop_assert_eq!(&got_a, &want_a, "on {}: {} from the code of {}", on, a, b);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cached_code_runs_as_a_fresh_compile(
        e in arb_statement(),
        vals in prop::collection::vec(
            prop_oneof![(0i64..10).prop_map(Value::Int), arb_lit().prop_map(|l| match l {
                Expr::Lit(v) => v,
                _ => unreachable!(),
            })],
            1..6,
        ),
    ) {
        let _serial = serial();
        let other = relit(&e, &vals);
        let sys = firm();
        {
            let db = sys.database(sym("Firm")).unwrap();
            let db = db.read();
            cached_runs_as_fresh("the base", &*db, &e, &other)?;
        }
        // Populated before the runs: the statement that populates a caching
        // view's class is charged the population, the ones after it not.
        let cached = firm_view(&sys, ov_views::Materialization::Incremental);
        cached.extent_of(sym("Adult")).unwrap();
        cached_runs_as_fresh("a caching view", &cached, &e, &other)?;
        let recomputing = firm_view(&sys, ov_views::Materialization::AlwaysRecompute);
        cached_runs_as_fresh("a recomputing view", &recomputing, &e, &other)?;
        // A resolution-generation bump drops the plan, not the code.
        let gen = recomputing.resolution_generation();
        recomputing.instantiate(sym("Older"), &[Value::Int(30)]).unwrap();
        prop_assert!(recomputing.resolution_generation() > gen);
        let got = charged(&recomputing, &other);
        prop_assert_eq!(&got, &fresh(&recomputing, &other), "{} after a bump", other);
    }
}
