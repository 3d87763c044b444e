//! The query evaluator.
//!
//! A tree-walking evaluator over a [`DataSource`]. It is deliberately
//! source-agnostic: evaluating `select P from Person …` against a base
//! database reads stored extents; against a view, `extent` may trigger
//! virtual-class population (`ov-views`) — the evaluator neither knows nor
//! cares ("A view should be treated as a database", §6).
//!
//! Semantics decisions (the paper is informal; each is marked DECISION):
//! * `select` returns a **set** (O₂ semantics; duplicates collapse).
//! * `select the` errors unless the result has exactly one element.
//! * attribute access on `null` yields `null` (null-propagation), so paths
//!   like `P.Spouse.Name` are safe when `Spouse` is unset.
//! * `null` is falsy in boolean contexts (`where`, `and`, `or`, `not`, `if`).
//! * `=` compares values; ints and floats compare numerically; `null = null`
//!   is true.
//! * ordering comparisons on `null` or mixed non-numeric kinds are errors.

use std::collections::BTreeSet;

use ov_oodb::{AggFunc, BinOp, Expr, Oid, SelectExpr, Symbol, UnOp, Value};

use crate::error::{QueryError, Result};
use crate::source::{extent_value, DataSource, ResolvedAttr};

/// Maximum expression depth at which a computed-attribute body may start,
/// guarding against recursive virtual attributes (`attribute A … has value
/// self.A`). Depth counts expression nesting, across bodies: a body runs
/// one level below the attribute access that called it.
const MAX_DEPTH: usize = 128;

/// The error of `self` where no computed body binds it.
pub(crate) fn self_unbound() -> QueryError {
    QueryError::eval("`self` is not bound here")
}

/// A computed body about to run at `depth`: the depth checks, then the
/// body's one step ([`crate::budget`]'s charge rule). Both engines enter
/// every body through this.
pub(crate) fn enter_body(budget: Option<&crate::budget::Budget>, depth: usize) -> Result<()> {
    if depth > MAX_DEPTH {
        return Err(QueryError::eval(
            "evaluation depth limit exceeded (recursive computed attribute?)",
        ));
    }
    match budget {
        Some(b) => {
            b.check_depth(depth)?;
            b.step()
        }
        None => Ok(()),
    }
}

/// One row a binding loop binds: its step ([`crate::budget`]'s charge
/// rule). Every loop of both engines charges through this.
#[inline]
pub(crate) fn bind_row(budget: Option<&crate::budget::Budget>) -> Result<()> {
    match budget {
        Some(b) => b.step(),
        None => Ok(()),
    }
}

/// A name no variable binds: the named object, else the class extent, else
/// the unknown-name error.
pub(crate) fn free_name(src: &dyn DataSource, name: Symbol) -> Result<Value> {
    if let Some(oid) = src.named_object(name) {
        return Ok(Value::Oid(oid));
    }
    if let Some(class) = src.class_by_name(name) {
        return extent_value(src, class);
    }
    Err(QueryError::eval(format!(
        "unknown name `{name}` (not a variable, named object, or class)"
    )))
}

/// `v isa class`, with `v` already evaluated: the class is looked up by
/// name first (an unknown class is an error even for `null`), then `null`
/// is a member of nothing and an object asks the source.
pub(crate) fn isa(src: &dyn DataSource, v: Value, class: Symbol) -> Result<Value> {
    let class_id = src
        .class_by_name(class)
        .ok_or(ov_oodb::OodbError::UnknownClass(class))?;
    match v {
        Value::Null => Ok(Value::Bool(false)),
        Value::Oid(o) => Ok(Value::Bool(src.is_member(o, class_id)?)),
        other => Err(QueryError::eval(format!(
            "`isa` applies to objects, not {}",
            other.kind()
        ))),
    }
}

/// A variable environment: lexically scoped bindings plus the `self`
/// receiver.
#[derive(Clone, Debug, Default)]
pub struct Env {
    vars: Vec<(Symbol, Value)>,
    self_val: Option<Value>,
    /// Memo of the innermost binding index of the last name bound or looked
    /// up. Deep computed-attribute chains (the E5 shape) resolve the same
    /// parameter symbols over and over; the memo turns those repeat lookups
    /// into one index compare instead of a reverse scan. `Cell` keeps
    /// `lookup` callable through `&self`.
    hot: std::cell::Cell<Option<(Symbol, usize)>>,
}

impl Env {
    /// An empty environment (no variables, no `self`).
    pub fn new() -> Env {
        Env::default()
    }

    /// An environment with `self` bound.
    pub fn with_self(v: Value) -> Env {
        Env {
            vars: Vec::new(),
            self_val: Some(v),
            hot: std::cell::Cell::new(None),
        }
    }

    /// Binds a variable (innermost scope wins on lookup).
    pub fn bind(&mut self, name: Symbol, v: Value) {
        self.vars.push((name, v));
        // The new binding is the innermost one for `name` by construction,
        // so it may (and must, if `name` shadows the memoized entry)
        // replace the memo.
        self.hot.set(Some((name, self.vars.len() - 1)));
    }

    fn lookup(&self, name: Symbol) -> Option<&Value> {
        if let Some((n, i)) = self.hot.get() {
            if n == name {
                return Some(&self.vars[i].1);
            }
        }
        let i = self.vars.iter().rposition(|(n, _)| *n == name)?;
        self.hot.set(Some((name, i)));
        Some(&self.vars[i].1)
    }

    fn pop(&mut self, n: usize) {
        self.vars.truncate(self.vars.len() - n);
        // Drop the memo if it points past the truncation; survivors still
        // satisfy the innermost-binding invariant (anything that shadowed
        // them was bound later, i.e. at a higher — now removed — index).
        if let Some((_, i)) = self.hot.get() {
            if i >= self.vars.len() {
                self.hot.set(None);
            }
        }
    }
}

/// Evaluates `expr` against `src` with an empty environment.
pub fn eval_expr(src: &dyn DataSource, expr: &Expr) -> Result<Value> {
    let _span = ov_oodb::span!("query.execute");
    Evaluator::new(src).eval(expr, &mut Env::new())
}

/// Evaluates a query against `src`.
pub fn eval_select(src: &dyn DataSource, query: &SelectExpr) -> Result<Value> {
    let _span = ov_oodb::span!("query.select");
    Evaluator::new(src).select(query, &mut Env::new())
}

/// Evaluates attribute `name` of object `oid` (stored or computed) with the
/// given arguments. This is *the* way to read an attribute value — the
/// paper's point that `Maggy.City` and `Maggy.Address` use one notation
/// regardless of storage (§2).
pub fn eval_attr(src: &dyn DataSource, oid: Oid, name: Symbol, args: &[Value]) -> Result<Value> {
    let _span = ov_oodb::span!("query.eval_attr", attr = name);
    Evaluator::new(src).attr_of(oid, name, args.to_vec(), 0)
}

/// The evaluator; cheap to construct per query.
pub struct Evaluator<'a> {
    src: &'a dyn DataSource,
    /// The budget governing this thread when the evaluator was built
    /// (captured once — see [`crate::budget`] for the install discipline).
    pub(crate) budget: Option<std::sync::Arc<crate::budget::Budget>>,
}

impl<'a> Evaluator<'a> {
    /// An evaluator over `src`, governed by the thread's current
    /// [`Budget`](crate::Budget) (if one is installed).
    pub fn new(src: &'a dyn DataSource) -> Evaluator<'a> {
        Evaluator {
            src,
            budget: crate::budget::current(),
        }
    }

    /// Evaluates `expr` in `env`.
    pub fn eval(&self, expr: &Expr, env: &mut Env) -> Result<Value> {
        self.eval_depth(expr, env, 0)
    }

    pub(crate) fn eval_depth(&self, expr: &Expr, env: &mut Env, depth: usize) -> Result<Value> {
        match expr {
            Expr::Lit(v) => Ok(v.clone()),
            Expr::SelfRef => env.self_val.clone().ok_or_else(self_unbound),
            // Variable → named object → class extent.
            Expr::Name(n) => match env.lookup(*n) {
                Some(v) => Ok(v.clone()),
                None => free_name(self.src, *n),
            },
            Expr::Attr { recv, name, args } => {
                let recv_val = self.eval_depth(recv, env, depth + 1)?;
                let mut arg_vals = Vec::with_capacity(args.len());
                for a in args {
                    arg_vals.push(self.eval_depth(a, env, depth + 1)?);
                }
                self.access(&recv_val, *name, arg_vals, depth)
            }
            Expr::TupleCons(fields) => {
                let mut t = ov_oodb::Tuple::new();
                for (n, e) in fields {
                    t.set(*n, self.eval_depth(e, env, depth + 1)?);
                }
                Ok(Value::Tuple(t))
            }
            Expr::SetCons(items) => {
                let mut s = BTreeSet::new();
                for e in items {
                    s.insert(self.eval_depth(e, env, depth + 1)?);
                }
                Ok(Value::Set(s))
            }
            Expr::ListCons(items) => {
                let mut l = Vec::with_capacity(items.len());
                for e in items {
                    l.push(self.eval_depth(e, env, depth + 1)?);
                }
                Ok(Value::List(l))
            }
            Expr::Unary { op, expr } => {
                let v = self.eval_depth(expr, env, depth + 1)?;
                apply_unary(*op, v)
            }
            Expr::Binary { op, lhs, rhs } => self.binary(*op, lhs, rhs, env, depth),
            Expr::If { cond, then, els } => {
                let c = self.eval_depth(cond, env, depth + 1)?;
                if truthy(&c) {
                    self.eval_depth(then, env, depth + 1)
                } else {
                    self.eval_depth(els, env, depth + 1)
                }
            }
            Expr::Select(q) => self.select_depth(q, env, depth),
            Expr::Exists(q) => {
                let mut found = false;
                self.iterate(q, env, depth, &mut |_| {
                    found = true;
                    false // stop
                })?;
                Ok(Value::Bool(found))
            }
            Expr::Aggregate { func, arg } => {
                let v = self.eval_depth(arg, env, depth + 1)?;
                aggregate(*func, &v)
            }
            Expr::IsA { expr, class } => {
                let v = self.eval_depth(expr, env, depth + 1)?;
                isa(self.src, v, *class)
            }
            Expr::Apply { name, args } => {
                let mut arg_vals = Vec::with_capacity(args.len());
                for a in args {
                    arg_vals.push(self.eval_depth(a, env, depth + 1)?);
                }
                self.src.apply(*name, &arg_vals)
            }
        }
    }

    /// `recv.name(args)` — "The dot notation here combines both
    /// dereferencing … and field selection" (§2). Arguments are taken by
    /// value: they were just evaluated and are consumed exactly once (as
    /// computed-attribute parameter bindings), so ownership avoids a
    /// per-call clone of each argument.
    fn access(&self, recv: &Value, name: Symbol, args: Vec<Value>, depth: usize) -> Result<Value> {
        match recv {
            Value::Null => Ok(Value::Null),
            Value::Oid(oid) => self.attr_of(*oid, name, args, depth),
            Value::Tuple(t) => {
                if !args.is_empty() {
                    return Err(QueryError::eval(format!(
                        "tuple field `{name}` takes no arguments"
                    )));
                }
                t.get(name)
                    .cloned()
                    .ok_or_else(|| QueryError::eval(format!("tuple {t} has no field `{name}`")))
            }
            other => Err(QueryError::eval(format!(
                "cannot access attribute `{name}` of a {}",
                other.kind()
            ))),
        }
    }

    /// Attribute access on an object: resolve, then read or compute.
    fn attr_of(&self, oid: Oid, name: Symbol, args: Vec<Value>, depth: usize) -> Result<Value> {
        match self.src.resolve(oid, name)? {
            ResolvedAttr::Stored => {
                if !args.is_empty() {
                    return Err(QueryError::eval(format!(
                        "stored attribute `{name}` takes no arguments"
                    )));
                }
                self.src.stored_field(oid, name)
            }
            ResolvedAttr::Computed { params, body } => {
                self.run_computed(oid, name, &params, &body, args, depth)
            }
        }
    }

    /// Evaluates a computed-attribute body with `self` bound to `oid` and
    /// the parameters bound (by move) to `args`, one level below the
    /// access at `depth`. Shared with the compiled engine, which delegates
    /// the bodies it has no class verdict for here.
    pub(crate) fn run_computed(
        &self,
        oid: Oid,
        name: Symbol,
        params: &[Symbol],
        body: &Expr,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Value> {
        if params.len() != args.len() {
            return Err(QueryError::eval(format!(
                "attribute `{name}` expects {} argument(s), got {}",
                params.len(),
                args.len()
            )));
        }
        enter_body(self.budget.as_deref(), depth + 1)?;
        let mut env = Env::with_self(Value::Oid(oid));
        for (p, v) in params.iter().zip(args) {
            env.bind(*p, v);
        }
        crate::ctx::in_body(self.src.frame_key(), || {
            self.eval_depth(body, &mut env, depth + 1)
        })
    }

    fn binary(
        &self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        env: &mut Env,
        depth: usize,
    ) -> Result<Value> {
        // Short-circuit boolean operators first.
        match op {
            BinOp::And => {
                let l = self.eval_depth(lhs, env, depth + 1)?;
                if !truthy(&l) {
                    return Ok(Value::Bool(false));
                }
                let r = self.eval_depth(rhs, env, depth + 1)?;
                return Ok(Value::Bool(truthy(&r)));
            }
            BinOp::Or => {
                let l = self.eval_depth(lhs, env, depth + 1)?;
                if truthy(&l) {
                    return Ok(Value::Bool(true));
                }
                let r = self.eval_depth(rhs, env, depth + 1)?;
                return Ok(Value::Bool(truthy(&r)));
            }
            _ => {}
        }
        let l = self.eval_depth(lhs, env, depth + 1)?;
        let r = self.eval_depth(rhs, env, depth + 1)?;
        apply_binary(op, &l, &r)
    }

    /// Evaluates a select in `env`.
    pub fn select(&self, q: &SelectExpr, env: &mut Env) -> Result<Value> {
        self.select_depth(q, env, 0)
    }

    fn select_depth(&self, q: &SelectExpr, env: &mut Env, depth: usize) -> Result<Value> {
        let mut out = BTreeSet::new();
        let proj = &q.proj;
        let mut err: Option<QueryError> = None;
        self.iterate(q, env, depth, &mut |inner_env| match self.eval_depth(
            proj,
            inner_env,
            depth + 1,
        ) {
            Ok(v) => {
                if out.insert(v) {
                    if let Some(b) = &self.budget {
                        if let Err(e) = b.note_rows(1) {
                            err = Some(e);
                            return false;
                        }
                    }
                }
                true
            }
            Err(e) => {
                err = Some(e);
                false
            }
        })?;
        match err {
            Some(e) => Err(e),
            None => finish_select(q.the, out),
        }
    }

    /// Drives the binding loops of a select, calling `visit` with the
    /// environment extended for each tuple of bindings that passes the
    /// filter. `visit` returns `false` to stop early.
    ///
    /// This is the interpreter's scan driver, so it is also where the
    /// interpreter measures scan actuals: `rows_scanned` per completed
    /// binding tuple (before the filter runs), `rows_matched` per tuple
    /// that passes. The counters are plain locals, reported once per
    /// iterate — on success *and* on error, so a mid-scan breach reports
    /// exactly the rows it got through, matching the compiled driver.
    fn iterate(
        &self,
        q: &SelectExpr,
        env: &mut Env,
        depth: usize,
        visit: &mut dyn FnMut(&mut Env) -> bool,
    ) -> Result<()> {
        let mut actuals = crate::plan::ScanActuals::default();
        let r = self
            .iterate_bindings(
                &q.bindings,
                0,
                q.filter.as_deref(),
                env,
                depth,
                visit,
                &mut actuals,
            )
            .map(|_| ());
        crate::plan::add_actuals(&actuals);
        r
    }

    #[allow(clippy::too_many_arguments)]
    fn iterate_bindings(
        &self,
        bindings: &[(Symbol, Expr)],
        i: usize,
        filter: Option<&Expr>,
        env: &mut Env,
        depth: usize,
        visit: &mut dyn FnMut(&mut Env) -> bool,
        actuals: &mut crate::plan::ScanActuals,
    ) -> Result<bool> {
        if i == bindings.len() {
            actuals.rows_scanned += 1;
            if let Some(f) = filter {
                let keep = self.eval_depth(f, env, depth + 1)?;
                if !truthy(&keep) {
                    return Ok(true);
                }
            }
            actuals.rows_matched += 1;
            return Ok(visit(env));
        }
        let (var, coll_expr) = &bindings[i];
        let coll = self.eval_depth(coll_expr, env, depth + 1)?;
        let items: Vec<Value> = match coll {
            Value::Set(s) => s.into_iter().collect(),
            Value::List(l) => l,
            Value::Null => Vec::new(),
            other => {
                return Err(QueryError::eval(format!(
                    "`from {var} in …` needs a set or list, found {}",
                    other.kind()
                )))
            }
        };
        for item in items {
            bind_row(self.budget.as_deref())?;
            env.bind(*var, item);
            let cont =
                self.iterate_bindings(bindings, i + 1, filter, env, depth, visit, actuals)?;
            env.pop(1);
            if !cont {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// `select the` yields its single row (or the cardinality error); a plain
/// `select` yields the set.
pub(crate) fn finish_select(the: bool, out: BTreeSet<Value>) -> Result<Value> {
    if the {
        if out.len() == 1 {
            Ok(out.into_iter().next().expect("len checked"))
        } else {
            Err(QueryError::TheCardinality { got: out.len() })
        }
    } else {
        Ok(Value::Set(out))
    }
}

/// Truthiness: `true` is true; `false`, `null` are false; anything else is
/// an error-free false (filters with non-boolean conditions keep nothing).
pub fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

/// Value equality with numeric coercion: `2 = 2.0` holds, `null = null`
/// holds, everything else is structural.
pub fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(i), Value::Float(f)) | (Value::Float(f), Value::Int(i)) => *i as f64 == *f,
        _ => a == b,
    }
}

/// Applies a unary operator to an already-evaluated operand. Shared by the
/// interpreter and the compiled engine so the two cannot drift.
pub(crate) fn apply_unary(op: UnOp, v: Value) -> Result<Value> {
    match op {
        UnOp::Not => Ok(Value::Bool(!truthy(&v))),
        UnOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(QueryError::eval(format!(
                "cannot negate a {}",
                other.kind()
            ))),
        },
    }
}

/// Applies a non-short-circuit binary operator to already-evaluated
/// operands (`And`/`Or` never reach here — both engines thread their
/// short-circuit control flow before operand evaluation). Shared by the
/// interpreter and the compiled engine so the two cannot drift.
pub(crate) fn apply_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    match op {
        BinOp::And | BinOp::Or => unreachable!("short-circuit ops handled by the caller"),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arithmetic(op, l, r),
        BinOp::Concat => match (l, r) {
            (Value::Str(a), Value::Str(b)) => Ok(Value::Str(format!("{a}{b}").into())),
            (Value::List(a), Value::List(b)) => {
                let mut out = a.clone();
                out.extend(b.iter().cloned());
                Ok(Value::List(out))
            }
            _ => Err(QueryError::eval(format!(
                "`++` concatenates strings or lists, not {} and {}",
                l.kind(),
                r.kind()
            ))),
        },
        BinOp::Eq => Ok(Value::Bool(value_eq(l, r))),
        BinOp::Ne => Ok(Value::Bool(!value_eq(l, r))),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            // DECISION: ordering against null is false, not an error —
            // filters over partially-populated objects (the paper's
            // `P.Age >= 21` where some ages are unset) keep nothing for
            // the unset ones, like SQL's three-valued logic collapsed to
            // false.
            if l.is_null() || r.is_null() {
                return Ok(Value::Bool(false));
            }
            let ord = value_cmp(l, r)?;
            Ok(Value::Bool(match op {
                BinOp::Lt => ord.is_lt(),
                BinOp::Gt => ord.is_gt(),
                BinOp::Le => ord.is_le(),
                BinOp::Ge => ord.is_ge(),
                _ => unreachable!(),
            }))
        }
        BinOp::In => match r {
            Value::Set(s) => Ok(Value::Bool(
                s.contains(l) || s.iter().any(|v| value_eq(v, l)),
            )),
            Value::List(items) => Ok(Value::Bool(items.iter().any(|v| value_eq(v, l)))),
            Value::Null => Ok(Value::Bool(false)),
            other => Err(QueryError::eval(format!(
                "`in` needs a set or list on the right, found {}",
                other.kind()
            ))),
        },
        BinOp::Union | BinOp::Intersect | BinOp::Except => {
            let (Value::Set(a), Value::Set(b)) = (l, r) else {
                return Err(QueryError::eval(format!(
                    "`{}` needs sets, found {} and {}",
                    op.token(),
                    l.kind(),
                    r.kind()
                )));
            };
            let out: BTreeSet<Value> = match op {
                BinOp::Union => a.union(b).cloned().collect(),
                BinOp::Intersect => a.intersection(b).cloned().collect(),
                BinOp::Except => a.difference(b).cloned().collect(),
                _ => unreachable!(),
            };
            Ok(Value::Set(out))
        }
    }
}

/// Ordering for `<`/`<=`/`>`/`>=`: numerics (mixed int/float fine), strings,
/// booleans. Everything else — including `null` — is an error.
fn value_cmp(a: &Value, b: &Value) -> Result<std::cmp::Ordering> {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(x.cmp(y)),
        (Value::Str(x), Value::Str(y)) => Ok(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Ok(x.cmp(y)),
        _ => {
            let (Some(x), Some(y)) = (a.as_float(), b.as_float()) else {
                return Err(QueryError::eval(format!(
                    "cannot order {} and {}",
                    a.kind(),
                    b.kind()
                )));
            };
            x.partial_cmp(&y)
                .ok_or_else(|| QueryError::eval("NaN is not ordered"))
                .or(Ok(Ordering::Equal))
        }
    }
}

/// Applies an arithmetic operator with int/float promotion.
fn arithmetic(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        let (a, b) = (*a, *b);
        return match op {
            BinOp::Add => Ok(Value::Int(a.wrapping_add(b))),
            BinOp::Sub => Ok(Value::Int(a.wrapping_sub(b))),
            BinOp::Mul => Ok(Value::Int(a.wrapping_mul(b))),
            BinOp::Div => {
                if b == 0 {
                    Err(QueryError::eval("division by zero"))
                } else {
                    Ok(Value::Int(a.wrapping_div(b)))
                }
            }
            BinOp::Mod => {
                if b == 0 {
                    Err(QueryError::eval("modulo by zero"))
                } else {
                    Ok(Value::Int(a.wrapping_rem(b)))
                }
            }
            _ => unreachable!(),
        };
    }
    let (Some(a), Some(b)) = (l.as_float(), r.as_float()) else {
        return Err(QueryError::eval(format!(
            "arithmetic needs numbers, found {} and {}",
            l.kind(),
            r.kind()
        )));
    };
    Ok(Value::Float(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return Err(QueryError::eval("division by zero"));
            }
            a / b
        }
        BinOp::Mod => a % b,
        _ => unreachable!(),
    }))
}

/// Applies an aggregate to a collection value.
pub(crate) fn aggregate(func: AggFunc, v: &Value) -> Result<Value> {
    let items: Vec<&Value> = match v.elements() {
        Some(it) => it.collect(),
        None if v.is_null() => Vec::new(),
        None => {
            return Err(QueryError::eval(format!(
                "{}() needs a set or list, found {}",
                func.name(),
                v.kind()
            )))
        }
    };
    match func {
        AggFunc::Count => Ok(Value::Int(items.len() as i64)),
        AggFunc::Sum => {
            let mut int_sum: i64 = 0;
            let mut float_sum = 0.0;
            let mut any_float = false;
            for item in &items {
                match item {
                    Value::Int(i) => int_sum = int_sum.wrapping_add(*i),
                    Value::Float(f) => {
                        any_float = true;
                        float_sum += f;
                    }
                    Value::Null => {}
                    other => {
                        return Err(QueryError::eval(format!(
                            "sum() over non-numeric element ({})",
                            other.kind()
                        )))
                    }
                }
            }
            if any_float {
                Ok(Value::Float(float_sum + int_sum as f64))
            } else {
                Ok(Value::Int(int_sum))
            }
        }
        AggFunc::Min => Ok(items
            .iter()
            .filter(|v| !v.is_null())
            .min()
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null)),
        AggFunc::Max => Ok(items
            .iter()
            .filter(|v| !v.is_null())
            .max()
            .map(|v| (*v).clone())
            .unwrap_or(Value::Null)),
        AggFunc::Avg => {
            let nums: Vec<f64> = items.iter().filter_map(|v| v.as_float()).collect();
            if nums.is_empty() {
                Ok(Value::Null)
            } else {
                Ok(Value::Float(nums.iter().sum::<f64>() / nums.len() as f64))
            }
        }
        AggFunc::Flatten => {
            let mut out = std::collections::BTreeSet::new();
            for item in &items {
                match item {
                    Value::Set(s) => out.extend(s.iter().cloned()),
                    Value::List(l) => out.extend(l.iter().cloned()),
                    Value::Null => {}
                    other => {
                        return Err(QueryError::eval(format!(
                            "flatten() over non-collection element ({})",
                            other.kind()
                        )))
                    }
                }
            }
            Ok(Value::Set(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_select};
    use ov_oodb::{sym, AttrDef, Database, Type};

    fn staff() -> Database {
        let mut db = Database::new(sym("Staff"));
        let person = db
            .create_class(
                sym("Person"),
                &[],
                vec![
                    AttrDef::stored(sym("Name"), Type::Str),
                    AttrDef::stored(sym("Age"), Type::Int),
                    AttrDef::stored(sym("Spouse"), Type::Class(ov_oodb::ClassId(0))),
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
        let maggy = db
            .create_object(
                person,
                Value::tuple([("Name", Value::str("Maggy")), ("Age", Value::Int(65))]),
            )
            .unwrap();
        db.name_object(sym("maggy"), maggy).unwrap();
        let denis = db
            .create_object(
                person,
                Value::tuple([
                    ("Name", Value::str("Denis")),
                    ("Age", Value::Int(70)),
                    ("Spouse", Value::Oid(maggy)),
                ]),
            )
            .unwrap();
        db.name_object(sym("denis"), denis).unwrap();
        db.create_object(
            employee,
            Value::tuple([
                ("Name", Value::str("Tony")),
                ("Age", Value::Int(30)),
                ("Salary", Value::Int(50_000)),
            ]),
        )
        .unwrap();
        db
    }

    fn run(db: &Database, src: &str) -> Value {
        eval_expr(db, &parse_expr(src).unwrap()).unwrap()
    }

    #[test]
    fn selects_by_predicate() {
        let db = staff();
        let q = parse_select("select P.Name from P in Person where P.Age >= 65").unwrap();
        let v = eval_select(&db, &q).unwrap();
        assert_eq!(v, Value::set([Value::str("Maggy"), Value::str("Denis")]));
    }

    #[test]
    fn deep_extent_in_queries() {
        let db = staff();
        // Tony is real in Employee, virtual in Person.
        let v = run(&db, "count((select P from P in Person))");
        assert_eq!(v, Value::Int(3));
    }

    #[test]
    fn path_expressions_dereference() {
        let db = staff();
        assert_eq!(run(&db, "denis.Spouse.Name"), Value::str("Maggy"));
        // Null propagation: Maggy has no spouse.
        assert_eq!(run(&db, "maggy.Spouse.Name"), Value::Null);
    }

    #[test]
    fn computed_attribute_with_args() {
        let mut db = staff();
        let employee = db.schema.class_by_name(sym("Employee")).unwrap();
        db.schema
            .add_attr(
                employee,
                AttrDef::method(
                    sym("Raise"),
                    vec![(sym("amount"), Type::Int)],
                    Type::Int,
                    parse_expr("self.Salary + amount").unwrap(),
                ),
            )
            .unwrap();
        let v = run(&db, "select E.Raise(1000) from E in Employee");
        assert_eq!(v, Value::set([Value::Int(51_000)]));
    }

    #[test]
    fn wrong_arity_errors() {
        let mut db = staff();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        db.schema
            .add_attr(
                person,
                AttrDef::method(
                    sym("Plus"),
                    vec![(sym("x"), Type::Int)],
                    Type::Int,
                    parse_expr("self.Age + x").unwrap(),
                ),
            )
            .unwrap();
        let e = eval_expr(&db, &parse_expr("maggy.Plus()").unwrap()).unwrap_err();
        assert!(e.to_string().contains("expects 1 argument"));
    }

    #[test]
    fn select_the_cardinality() {
        let db = staff();
        let one = parse_select(r#"select the P from P in Person where P.Name = "Maggy""#).unwrap();
        assert!(matches!(eval_select(&db, &one).unwrap(), Value::Oid(_)));
        let none =
            parse_select(r#"select the P from P in Person where P.Name = "Nobody""#).unwrap();
        assert_eq!(
            eval_select(&db, &none).unwrap_err(),
            QueryError::TheCardinality { got: 0 }
        );
        let many = parse_select("select the P from P in Person").unwrap();
        assert!(matches!(
            eval_select(&db, &many).unwrap_err(),
            QueryError::TheCardinality { got: 3 }
        ));
    }

    #[test]
    fn exists_short_circuits() {
        let db = staff();
        assert_eq!(
            run(&db, "exists(select P from P in Person where P.Age > 69)"),
            Value::Bool(true)
        );
        assert_eq!(
            run(&db, "exists(select P from P in Person where P.Age > 100)"),
            Value::Bool(false)
        );
    }

    #[test]
    fn aggregates() {
        let db = staff();
        assert_eq!(
            run(&db, "sum((select P.Age from P in Person))"),
            Value::Int(165)
        );
        assert_eq!(
            run(&db, "min((select P.Age from P in Person))"),
            Value::Int(30)
        );
        assert_eq!(
            run(&db, "max((select P.Age from P in Person))"),
            Value::Int(70)
        );
        assert_eq!(
            run(&db, "avg((select P.Age from P in Person))"),
            Value::Float(55.0)
        );
        assert_eq!(run(&db, "count({})"), Value::Int(0));
    }

    #[test]
    fn flatten_unions_nested_collections() {
        let db = staff();
        assert_eq!(
            run(&db, "flatten({{1, 2}, {2, 3}})"),
            Value::set([Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(run(&db, "flatten({})"), Value::set([]));
        assert!(eval_expr(&db, &parse_expr("flatten({1})").unwrap()).is_err());
    }

    #[test]
    fn arithmetic_and_comparisons() {
        let db = staff();
        assert_eq!(run(&db, "2 + 3 * 4"), Value::Int(14));
        assert_eq!(run(&db, "7 / 2"), Value::Int(3));
        assert_eq!(run(&db, "7.0 / 2"), Value::Float(3.5));
        assert_eq!(run(&db, "2 = 2.0"), Value::Bool(true));
        assert_eq!(run(&db, "1 < 1.5"), Value::Bool(true));
        assert!(eval_expr(&db, &parse_expr("1 / 0").unwrap()).is_err());
        assert!(eval_expr(&db, &parse_expr(r#""a" < 1"#).unwrap()).is_err());
        assert_eq!(run(&db, r#""foo" ++ "bar""#), Value::str("foobar"));
    }

    #[test]
    fn null_semantics() {
        let db = staff();
        assert_eq!(run(&db, "null = null"), Value::Bool(true));
        assert_eq!(run(&db, "null = 1"), Value::Bool(false));
        assert_eq!(run(&db, "not null"), Value::Bool(true));
        assert_eq!(run(&db, "if null then 1 else 2"), Value::Int(2));
        // Ordering against null is false (not an error) so filters skip
        // objects with unset attributes.
        assert_eq!(run(&db, "null < 1"), Value::Bool(false));
        assert_eq!(run(&db, "null >= 1"), Value::Bool(false));
    }

    #[test]
    fn membership_and_set_ops() {
        let db = staff();
        assert_eq!(run(&db, "2 in {1, 2, 3}"), Value::Bool(true));
        assert_eq!(run(&db, "2.0 in {1, 2, 3}"), Value::Bool(true));
        assert_eq!(
            run(&db, "{1, 2} union {2, 3}"),
            Value::set([Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            run(&db, "{1, 2} intersect {2, 3}"),
            Value::set([Value::Int(2)])
        );
        assert_eq!(
            run(&db, "{1, 2} except {2, 3}"),
            Value::set([Value::Int(1)])
        );
        assert_eq!(
            run(&db, "maggy in (select P from P in Person)"),
            Value::Bool(true)
        );
    }

    #[test]
    fn isa_checks_membership() {
        let db = staff();
        assert_eq!(run(&db, "maggy isa Person"), Value::Bool(true));
        assert_eq!(run(&db, "maggy isa Employee"), Value::Bool(false));
        assert!(eval_expr(&db, &parse_expr("maggy isa Ghost").unwrap()).is_err());
    }

    #[test]
    fn multi_binding_cross_product() {
        let db = staff();
        let v = run(
            &db,
            "count((select [A: P, B: Q] from P in Person, Q in Person))",
        );
        assert_eq!(v, Value::Int(9));
    }

    #[test]
    fn later_bindings_see_earlier_variables() {
        let db = staff();
        // Bind Q to a collection computed from P.
        let v = run(&db, "select Q from P in Person, Q in {P.Age} where Q > 69");
        assert_eq!(v, Value::set([Value::Int(70)]));
    }

    #[test]
    fn recursive_computed_attribute_hits_depth_limit() {
        let mut db = staff();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        db.schema
            .add_attr(
                person,
                AttrDef::computed(sym("Loop"), Type::Int, parse_expr("self.Loop").unwrap()),
            )
            .unwrap();
        let e = eval_expr(&db, &parse_expr("maggy.Loop").unwrap()).unwrap_err();
        assert!(e.to_string().contains("depth limit"));
    }

    #[test]
    fn select_returns_set_semantics() {
        let db = staff();
        // Two people aged >= 65 but one distinct Age=65? Ages 65,70 distinct;
        // project a constant to verify collapse.
        let v = run(&db, "select 1 from P in Person");
        assert_eq!(v, Value::set([Value::Int(1)]));
    }

    #[test]
    fn unknown_name_errors() {
        let db = staff();
        let e = eval_expr(&db, &parse_expr("Nessie").unwrap()).unwrap_err();
        assert!(e.to_string().contains("unknown name"));
    }
}
