//! Property tests: printing an expression and reparsing it yields the same
//! AST. This pins down operator precedence, associativity and literal
//! syntax in one stroke. And the fingerprint computed by streaming equals
//! the fingerprint of the rendered normalized text, on the same trees.

use ov_oodb::{sym, AggFunc, BinOp, Expr, SelectExpr, UnOp, Value};
use ov_query::parse_expr;
use proptest::prelude::*;

/// Scalar literals only: collection literals print as constructors
/// (`{1,2}` parses as a SetCons, not a Lit), which is correct but would
/// make naive AST equality fail.
fn arb_lit() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(Expr::Lit(Value::Null)),
        any::<bool>().prop_map(|b| Expr::Lit(Value::Bool(b))),
        any::<i64>().prop_map(|i| Expr::Lit(Value::Int(i))),
        // Printable floats. Negative ones (like negative integers) print
        // as unary minus — parenthesized in receiver position — and
        // re-fold into literals.
        (0.0f64..1e9).prop_map(|f| Expr::Lit(Value::Float(f))),
        (-1e9f64..-1e-6).prop_map(|f| Expr::Lit(Value::Float(f))),
        "[a-zA-Z0-9 _.,!?-]{0,10}".prop_map(|s| Expr::Lit(Value::str(&s))),
    ]
}

fn arb_name() -> impl Strategy<Value = Expr> {
    // Avoid the contextual keywords that can start/continue expressions.
    "[A-Z][a-zA-Z0-9_]{0,6}".prop_map(|s| Expr::Name(sym(&s)))
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
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
    ]
}

/// A select block over `inner` (explicit bindings); nests, since `inner`
/// may itself hold selects.
fn arb_select(inner: impl Strategy<Value = Expr> + Clone) -> impl Strategy<Value = SelectExpr> {
    (
        inner.clone(),
        prop::collection::vec(("[A-Z][a-z]{0,3}", inner.clone()), 1..3),
        prop::option::of(inner),
        any::<bool>(),
    )
        .prop_map(|(proj, bindings, filter, the)| SelectExpr {
            distinct: false,
            the,
            proj: Box::new(proj),
            bindings: bindings.into_iter().map(|(v, c)| (sym(&v), c)).collect(),
            filter: filter.map(Box::new),
        })
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![arb_lit(), arb_name(), Just(Expr::SelfRef)];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            // Attribute access, with and without arguments.
            (
                inner.clone(),
                "[A-Z][a-z]{0,5}",
                prop::collection::vec(inner.clone(), 0..2)
            )
                .prop_map(|(recv, name, args)| Expr::Attr {
                    recv: Box::new(recv),
                    name: sym(&name),
                    args,
                }),
            // Binary operators.
            (arb_binop(), inner.clone(), inner.clone()).prop_map(|(op, l, r)| Expr::Binary {
                op,
                lhs: Box::new(l),
                rhs: Box::new(r),
            }),
            // Unary operators (negation of literals folds in the parser, so
            // restrict Neg to non-literal operands).
            inner.clone().prop_filter_map("no-neg-literal", |e| {
                if matches!(e, Expr::Lit(Value::Int(_)) | Expr::Lit(Value::Float(_))) {
                    None
                } else {
                    Some(Expr::Unary {
                        op: UnOp::Neg,
                        expr: Box::new(e),
                    })
                }
            }),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
            }),
            // Tuple / set / list constructors.
            prop::collection::vec(("[A-Z][a-z]{0,4}", inner.clone()), 0..3).prop_map(|fs| {
                Expr::TupleCons(fs.into_iter().map(|(n, e)| (sym(&n), e)).collect())
            }),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Expr::SetCons),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Expr::ListCons),
            // Conditionals.
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::If {
                cond: Box::new(c),
                then: Box::new(t),
                els: Box::new(e),
            }),
            // Aggregates.
            (
                prop_oneof![
                    Just(AggFunc::Count),
                    Just(AggFunc::Sum),
                    Just(AggFunc::Min),
                    Just(AggFunc::Max),
                    Just(AggFunc::Avg)
                ],
                inner.clone()
            )
                .prop_map(|(f, e)| Expr::Aggregate {
                    func: f,
                    arg: Box::new(e),
                }),
            // isa.
            (inner.clone(), "[A-Z][a-z]{0,5}").prop_map(|(e, c)| Expr::IsA {
                expr: Box::new(e),
                class: sym(&c),
            }),
            // Parameterized-class application.
            (
                "[A-Z][a-z]{0,5}",
                prop::collection::vec(inner.clone(), 0..2)
            )
                .prop_map(|(n, args)| Expr::Apply {
                    name: sym(&n),
                    args
                }),
            // Selects and `exists`: both re-enter the printer.
            arb_select(inner.clone()).prop_map(Expr::Select),
            arb_select(inner.clone()).prop_map(Expr::Exists),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// print → parse is the identity on ASTs.
    #[test]
    fn print_parse_roundtrip(e in arb_expr()) {
        let printed = e.to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` failed to reparse: {err}"));
        prop_assert_eq!(e, reparsed, "printed form: `{}`", printed);
    }

    /// The streamed fingerprint is the rendered one: for every expression
    /// the hash equals FNV-1a of the normalized tree's text, and the display
    /// form is that hash in hex beside that text.
    #[test]
    fn streamed_fingerprint_equals_rendered(e in arb_expr()) {
        use ov_query::fingerprint::{fingerprint_hash, fnv1a, normalize_expr};
        let rendered = normalize_expr(&e).to_string();
        let hash = fingerprint_hash(&e);
        prop_assert_eq!(hash, fnv1a(rendered.as_bytes()), "normalized: `{}`", rendered);
        prop_assert_eq!(
            ov_query::fingerprint_expr(&e),
            (format!("{hash:016x}"), rendered)
        );
    }

    /// Negative numeric literals fold back into literals.
    #[test]
    fn negative_literals_fold(i in any::<i64>()) {
        // i64::MIN negates to itself modulo wrapping; skip that edge.
        prop_assume!(i != i64::MIN);
        let printed = Expr::Lit(Value::Int(i)).to_string();
        prop_assert_eq!(parse_expr(&printed).unwrap(), Expr::Lit(Value::Int(i)));
    }

    /// Lexing never panics on arbitrary input (it may error).
    #[test]
    fn lexer_is_total(s in "\\PC{0,60}") {
        let _ = ov_query::parse_expr(&s);
    }
}
