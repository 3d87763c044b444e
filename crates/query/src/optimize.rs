//! Query optimization: constant folding and boolean simplification.
//!
//! The view mechanism creates many *derived* queries — parameterized-class
//! instantiation substitutes literals into templates (`Resident("France")`
//! turns `P.City = X` into `P.City = "France"`), and population queries are
//! re-evaluated often. This pass cheapens them:
//!
//! * **constant folding** — any pure subexpression whose operands are
//!   literals is evaluated once, at optimization time, with *exactly* the
//!   evaluator's semantics (the folder literally runs the evaluator against
//!   an empty source, so the two can never disagree — property-tested in
//!   `tests/prop_optimize.rs`);
//! * **boolean absorption** — `false and e` → `false`, `true or e` →
//!   `true`, and `if` on a literal condition selects its branch. (Note
//!   `true and e` is *not* rewritten to `e`: `and` returns a boolean
//!   truth-value while `e` itself may be `null`.)
//!
//! The pass is safe on open terms: anything it cannot prove constant is
//! left untouched.
//!
//! It **borrows**. Every top-level statement is folded before it runs, and
//! most have nothing to fold, so [`fold`] returns `Cow::Borrowed` then: a
//! walk of the tree, not a copy of it. A subtree that folds is rebuilt with
//! its unchanged siblings cloned into it. [`optimize_expr`] and
//! [`optimize_select`] are the owned forms, for callers that keep the
//! result (a view's bodies and populations, at bind time).

use std::borrow::Cow;

use ov_oodb::types::NoClasses;
use ov_oodb::{AttrSig, BinOp, ClassId, Expr, Oid, SelectExpr, Symbol, Type, Value};

use crate::error::{QueryError, Result};
use crate::eval::{truthy, Env, Evaluator};
use crate::source::{DataSource, ResolvedAttr};

/// The empty class graph is the data source with nothing in it: every
/// lookup fails. Evaluating an expression against it succeeds exactly when
/// the expression is closed and pure — which is the test for foldability.
impl DataSource for NoClasses {
    fn class_by_name(&self, _name: Symbol) -> Option<ClassId> {
        None
    }
    fn class_of(&self, oid: Oid) -> Result<ClassId> {
        Err(QueryError::eval(format!("no object {oid}")))
    }
    fn extent(&self, _class: ClassId) -> Result<Vec<Oid>> {
        Ok(Vec::new())
    }
    fn is_member(&self, _oid: Oid, _class: ClassId) -> Result<bool> {
        Ok(false)
    }
    fn resolve(&self, oid: Oid, _name: Symbol) -> Result<ResolvedAttr> {
        Err(QueryError::eval(format!("no object {oid}")))
    }
    fn stored_field(&self, oid: Oid, _name: Symbol) -> Result<Value> {
        Err(QueryError::eval(format!("no object {oid}")))
    }
    fn named_object(&self, _name: Symbol) -> Option<Oid> {
        None
    }
    fn object_exists(&self, _oid: Oid) -> bool {
        false
    }
    fn attr_sig(&self, _c: ClassId, _name: Symbol) -> Option<AttrSig> {
        None
    }
    fn class_type(&self, _c: ClassId) -> Type {
        Type::Any
    }
}

/// Is this node foldable when all its children are literals? Conservative:
/// anything touching names, objects, classes or `self` is excluded, as is
/// division/modulo (fold-time errors must not replace run-time errors that
/// short-circuiting might skip).
fn pure_head(e: &Expr) -> bool {
    match e {
        Expr::Binary { op, .. } => !matches!(op, BinOp::Div | BinOp::Mod),
        Expr::Unary { .. } | Expr::TupleCons(_) | Expr::SetCons(_) | Expr::ListCons(_) => true,
        _ => false,
    }
}

fn all_literal_children(e: &Expr) -> bool {
    match e {
        Expr::Binary { lhs, rhs, .. } => {
            matches!(**lhs, Expr::Lit(_)) && matches!(**rhs, Expr::Lit(_))
        }
        Expr::Unary { expr, .. } => matches!(**expr, Expr::Lit(_)),
        Expr::TupleCons(fields) => fields.iter().all(|(_, e)| matches!(e, Expr::Lit(_))),
        Expr::SetCons(items) | Expr::ListCons(items) => {
            items.iter().all(|e| matches!(e, Expr::Lit(_)))
        }
        _ => false,
    }
}

/// Folds `e` (bottom-up, single pass), borrowing it when nothing folds:
/// `Cow::Borrowed(e)` exactly when the folded tree equals `e`, so a
/// statement with nothing to fold — the common case — is not copied.
/// Subtrees that fold are rebuilt; their unchanged siblings are cloned into
/// the new parent.
pub fn fold(e: &Expr) -> Cow<'_, Expr> {
    if !may_fold(e) {
        debug_assert!(
            matches!(fold_tree(e), Cow::Borrowed(_)),
            "may_fold missed {e}"
        );
        return Cow::Borrowed(e);
    }
    fold_tree(e)
}

/// Could [`fold_tree`] change `e`? `false` only when it cannot: no node
/// has a literal where folding decides something — an operand of a pure
/// operation, the left side of `and`/`or`, the condition of an `if`, a
/// `select` filter. A walk that builds nothing is ≈ 3× cheaper than one
/// that returns a `Cow` per node, and most statements fold nothing.
fn may_fold(e: &Expr) -> bool {
    let lit = |x: &Expr| matches!(x, Expr::Lit(_));
    match e {
        Expr::Lit(_) | Expr::SelfRef | Expr::Name(_) => false,
        Expr::Attr { recv, args, .. } => may_fold(recv) || args.iter().any(may_fold),
        Expr::TupleCons(fields) => {
            fields.iter().all(|(_, f)| lit(f)) || fields.iter().any(|(_, f)| may_fold(f))
        }
        Expr::SetCons(items) | Expr::ListCons(items) => {
            items.iter().all(lit) || items.iter().any(may_fold)
        }
        Expr::Apply { args, .. } => args.iter().any(may_fold),
        Expr::Unary { expr, .. } => lit(expr) || may_fold(expr),
        Expr::Binary { lhs, rhs, .. } => lit(lhs) || may_fold(lhs) || may_fold(rhs),
        Expr::If { cond, then, els } => {
            lit(cond) || may_fold(cond) || may_fold(then) || may_fold(els)
        }
        Expr::Select(q) | Expr::Exists(q) => {
            q.filter.as_deref().is_some_and(|f| lit(f) || may_fold(f))
                || may_fold(&q.proj)
                || q.bindings.iter().any(|(_, c)| may_fold(c))
        }
        Expr::Aggregate { arg: x, .. } | Expr::IsA { expr: x, .. } => may_fold(x),
    }
}

/// [`fold`] without its pre-walk: the rebuilding pass.
fn fold_tree(e: &Expr) -> Cow<'_, Expr> {
    let node: Cow<'_, Expr> = match e {
        Expr::Lit(_) | Expr::SelfRef | Expr::Name(_) => return Cow::Borrowed(e),
        Expr::Attr { recv, name, args } => {
            let r = fold(recv);
            let folded = fold_all(args, |a| a, |_, a| a);
            if matches!(r, Cow::Borrowed(_)) && folded.is_none() {
                Cow::Borrowed(e)
            } else {
                Cow::Owned(Expr::Attr {
                    recv: Box::new(r.into_owned()),
                    name: *name,
                    args: folded.unwrap_or_else(|| args.clone()),
                })
            }
        }
        Expr::TupleCons(fields) => rebuilt(
            e,
            fold_all(fields, |(_, f)| f, |(n, _), f| (*n, f)),
            Expr::TupleCons,
        ),
        Expr::SetCons(items) => rebuilt(e, fold_all(items, |i| i, |_, i| i), Expr::SetCons),
        Expr::ListCons(items) => rebuilt(e, fold_all(items, |i| i, |_, i| i), Expr::ListCons),
        Expr::Unary { op, expr } => rebuilt(e, changed(fold(expr)), |x| Expr::Unary {
            op: *op,
            expr: Box::new(x),
        }),
        Expr::Binary { op, lhs, rhs } => {
            let l = fold(lhs);
            // Boolean absorption, matching short-circuit semantics: a
            // literal-false lhs of `and` (resp. literal-true of `or`)
            // decides the result without evaluating rhs.
            match op {
                BinOp::And if matches!(&*l, Expr::Lit(v) if !truthy(v)) => {
                    return Cow::Owned(Expr::Lit(Value::Bool(false)));
                }
                BinOp::Or if matches!(&*l, Expr::Lit(v) if truthy(v)) => {
                    return Cow::Owned(Expr::Lit(Value::Bool(true)));
                }
                _ => {}
            }
            match (l, fold(rhs)) {
                (Cow::Borrowed(_), Cow::Borrowed(_)) => Cow::Borrowed(e),
                (l, r) => Cow::Owned(Expr::Binary {
                    op: *op,
                    lhs: Box::new(l.into_owned()),
                    rhs: Box::new(r.into_owned()),
                }),
            }
        }
        Expr::If { cond, then, els } => {
            let c = fold(cond);
            if let Expr::Lit(v) = &*c {
                // The node is replaced by a branch: owned even when the
                // branch itself folds to nothing new.
                let branch = if truthy(v) { then } else { els };
                return Cow::Owned(fold(branch).into_owned());
            }
            match (c, fold(then), fold(els)) {
                (Cow::Borrowed(_), Cow::Borrowed(_), Cow::Borrowed(_)) => Cow::Borrowed(e),
                (c, t, f) => Cow::Owned(Expr::If {
                    cond: Box::new(c.into_owned()),
                    then: Box::new(t.into_owned()),
                    els: Box::new(f.into_owned()),
                }),
            }
        }
        Expr::Select(q) => rebuilt(e, changed(fold_select(q)), Expr::Select),
        Expr::Exists(q) => rebuilt(e, changed(fold_select(q)), Expr::Exists),
        Expr::Aggregate { func, arg } => rebuilt(e, changed(fold(arg)), |a| Expr::Aggregate {
            func: *func,
            arg: Box::new(a),
        }),
        Expr::IsA { expr, class } => rebuilt(e, changed(fold(expr)), |x| Expr::IsA {
            expr: Box::new(x),
            class: *class,
        }),
        Expr::Apply { name, args } => rebuilt(e, fold_all(args, |a| a, |_, a| a), |args| {
            Expr::Apply { name: *name, args }
        }),
    };
    // Fold the node if it is a pure operation on literals.
    if pure_head(&node) && all_literal_children(&node) {
        if let Ok(v) = Evaluator::new(&NoClasses).eval(&node, &mut Env::new()) {
            return Cow::Owned(Expr::Lit(v));
        }
    }
    node
}

/// `e` itself when its folded children `folded` are unchanged (`None`),
/// else `wrap` of them.
fn rebuilt<T>(e: &Expr, folded: Option<T>, wrap: impl FnOnce(T) -> Expr) -> Cow<'_, Expr> {
    folded.map_or(Cow::Borrowed(e), |x| Cow::Owned(wrap(x)))
}

/// What folding changed: the rebuilt tree, or `None` when it borrowed.
fn changed<T: Clone>(c: Cow<'_, T>) -> Option<T> {
    match c {
        Cow::Owned(x) => Some(x),
        Cow::Borrowed(_) => None,
    }
}

/// Folds the expression `get` finds in each item, in order. `None` when
/// none folds; otherwise every item, the folded ones rebuilt by `put` and
/// the others cloned.
fn fold_all<T: Clone>(
    items: &[T],
    get: impl Fn(&T) -> &Expr,
    put: impl Fn(&T, Expr) -> T,
) -> Option<Vec<T>> {
    let mut out: Option<Vec<T>> = None;
    for (i, item) in items.iter().enumerate() {
        match (fold(get(item)), &mut out) {
            (Cow::Borrowed(_), None) => {}
            (Cow::Borrowed(_), Some(v)) => v.push(item.clone()),
            (Cow::Owned(x), Some(v)) => v.push(put(item, x)),
            (Cow::Owned(x), None) => {
                let mut v = Vec::with_capacity(items.len());
                v.extend_from_slice(&items[..i]);
                v.push(put(item, x));
                out = Some(v);
            }
        }
    }
    out
}

/// Folds a query: every sub-expression, plus dropping a literally-true
/// filter. Borrowed when nothing folds.
pub fn fold_select(q: &SelectExpr) -> Cow<'_, SelectExpr> {
    // A literally-true filter is dropped.
    let filter = q
        .filter
        .as_deref()
        .map(fold)
        .filter(|f| !matches!(&**f, Expr::Lit(v) if truthy(v)));
    let filter_kept = matches!(
        (&q.filter, &filter),
        (None, None) | (Some(_), Some(Cow::Borrowed(_)))
    );
    let proj = fold(&q.proj);
    let bindings = fold_all(&q.bindings, |(_, c)| c, |(v, _), c| (*v, c));
    if filter_kept && matches!(proj, Cow::Borrowed(_)) && bindings.is_none() {
        return Cow::Borrowed(q);
    }
    Cow::Owned(SelectExpr {
        distinct: q.distinct,
        the: q.the,
        proj: Box::new(proj.into_owned()),
        bindings: bindings.unwrap_or_else(|| q.bindings.clone()),
        filter: filter.map(|f| Box::new(f.into_owned())),
    })
}

/// Optimizes an expression: [`fold`], always owned.
pub fn optimize_expr(e: &Expr) -> Expr {
    fold(e).into_owned()
}

/// Optimizes a query: [`fold_select`], always owned.
pub fn optimize_select(q: &SelectExpr) -> SelectExpr {
    fold_select(q).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_select};

    fn opt(src: &str) -> String {
        optimize_expr(&parse_expr(src).unwrap()).to_string()
    }

    #[test]
    fn folds_arithmetic() {
        assert_eq!(opt("1 + 2 * 3"), "7");
        assert_eq!(opt("2 * 3 + x"), "6 + x");
        assert_eq!(opt(r#""a" ++ "b""#), r#""ab""#);
    }

    #[test]
    fn folds_comparisons_and_membership() {
        assert_eq!(opt("1 < 2"), "true");
        assert_eq!(opt("2 in {1, 2, 3}"), "true");
        assert_eq!(opt("{1, 2} union {3}"), "{1, 2, 3}");
    }

    #[test]
    fn division_is_never_folded() {
        // 1/0 must stay a run-time error, and even 4/2 is left alone (one
        // uniform rule beats a subtle one).
        assert_eq!(opt("4 / 2"), "4 / 2");
        assert_eq!(opt("1 / 0"), "1 / 0");
    }

    #[test]
    fn boolean_absorption_matches_short_circuit() {
        assert_eq!(opt("false and x.Oops"), "false");
        assert_eq!(opt("true or x.Oops"), "true");
        // Not rewritten: `true and e` must still coerce e to a boolean.
        assert_eq!(opt("true and x"), "true and x");
    }

    #[test]
    fn literal_conditionals_select_a_branch() {
        assert_eq!(opt("if 1 < 2 then x else y"), "x");
        assert_eq!(opt("if false then x else y + 0"), "y + 0");
    }

    #[test]
    fn open_terms_are_untouched() {
        for src in ["self.Age + 1", "P.City = X", "count(Person)"] {
            assert_eq!(opt(src), src);
        }
    }

    #[test]
    fn select_filters_simplify() {
        let q = parse_select("select P from P in Person where 1 < 2").unwrap();
        let o = optimize_select(&q);
        assert!(o.filter.is_none());
        let q = parse_select("select P from P in Person where P.Age >= 10 + 11").unwrap();
        let o = optimize_select(&q);
        assert_eq!(o.filter.unwrap().to_string(), "P.Age >= 21");
    }

    #[test]
    fn nested_folding_reaches_inside_selects() {
        let e = parse_expr("exists(select P from P in Person where P.X = 2 + 2)").unwrap();
        assert_eq!(
            optimize_expr(&e).to_string(),
            "exists(select P from P in Person where P.X = 4)"
        );
    }
}
