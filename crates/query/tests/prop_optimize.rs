//! Property test: the optimizer preserves semantics. For random expressions
//! evaluated against a small database, the optimized form produces the same
//! outcome (same value, or both error). And folding borrows: it copies a
//! tree only when something in it folds.

use std::borrow::Cow;

use ov_oodb::{sym, AttrDef, BinOp, Database, Expr, SelectExpr, Type, UnOp, Value};
use ov_query::{eval_expr, fold, optimize_expr};
use proptest::prelude::*;

fn db() -> Database {
    let mut db = Database::new(sym("OptDb"));
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
    for (n, a) in [("a", 10), ("b", 30), ("c", 70)] {
        let o = db
            .create_object(
                person,
                Value::tuple([("Name", Value::str(n)), ("Age", Value::Int(a))]),
            )
            .unwrap();
        db.name_object(sym(n), o).unwrap();
    }
    db
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

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_lit(),
        Just(Expr::name("a")),
        Just(Expr::name("b")),
        Just(Expr::name("Person")),
        Just(Expr::attr(Expr::name("a"), "Age")),
        Just(Expr::attr(Expr::name("b"), "Name")),
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
                    Just(BinOp::In),
                    Just(BinOp::Union),
                    Just(BinOp::Intersect),
                    Just(BinOp::Except),
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
            prop::collection::vec(inner.clone(), 0..3).prop_map(Expr::ListCons),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::TupleCons(vec![(sym("A"), a), (sym("B"), b),])),
            (inner.clone(), prop::collection::vec(inner.clone(), 0..2)).prop_map(|(r, args)| {
                Expr::Attr {
                    recv: Box::new(r),
                    name: sym("Age"),
                    args,
                }
            }),
            (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(proj, filter, exists)| {
                let q = SelectExpr {
                    distinct: false,
                    the: false,
                    proj: Box::new(proj),
                    bindings: vec![(sym("X"), Expr::name("Person"))],
                    filter: Some(Box::new(filter)),
                };
                if exists {
                    Expr::Exists(q)
                } else {
                    Expr::Select(q)
                }
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Optimization never changes the outcome: same value or same
    /// error-ness.
    #[test]
    fn optimizer_preserves_semantics(e in arb_expr()) {
        let db = db();
        let before = eval_expr(&db, &e);
        let optimized = optimize_expr(&e);
        let after = eval_expr(&db, &optimized);
        match (before, after) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "expr: {}", e),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(
                false,
                "divergence on {}: before={:?}, after={:?} (optimized: {})",
                e, a, b, optimized
            ),
        }
    }

    /// Optimization is idempotent.
    #[test]
    fn optimizer_is_idempotent(e in arb_expr()) {
        let once = optimize_expr(&e);
        let twice = optimize_expr(&once);
        prop_assert_eq!(once, twice);
    }

    /// `optimize_expr` is `fold` made owned, and `fold` borrows exactly
    /// when the tree has nothing to fold: a statement that folds nothing is
    /// never copied, and one that does is never mistaken for unchanged.
    #[test]
    fn fold_borrows_exactly_when_nothing_folds(e in arb_expr()) {
        let folded = fold(&e);
        let owned = optimize_expr(&e);
        prop_assert_eq!(&*folded, &owned, "expr: {}", e);
        prop_assert_eq!(
            matches!(folded, Cow::Borrowed(_)),
            owned == e,
            "expr: {} folds to {}",
            e,
            owned
        );
        if let Cow::Borrowed(b) = folded {
            prop_assert!(std::ptr::eq(b, &e), "a borrow of the tree itself: {}", e);
        }
    }
}
