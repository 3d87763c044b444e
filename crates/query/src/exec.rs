//! Script execution against base databases.
//!
//! Executes the statement forms that target *databases* (schema DDL, object
//! loading, updates, queries). View-definition statements are interpreted by
//! `ov-views`; encountering one here is an error pointing you there.
//!
//! Object loading is two-phase so that dumps with forward references load
//! correctly (spouse pairs reference each other): pass 1 applies schema
//! statements and allocates every declared object empty; pass 2 fills in
//! values (with `#n` literals remapped to the allocated oids), binds names,
//! and runs updates/queries in order.
//!
//! [`execute_script`] and [`execute_stmts`] run a whole script. An
//! `ov_views::Session` runs each *run* of base statements — the stretch
//! between two `database` or view statements — through
//! [`execute_stmts_with_map`], so the passes see the whole run and a
//! single statement is a run of one.

use std::borrow::Cow;
use std::collections::HashMap;

use ov_oodb::{
    AttrDef, ClassId, DbHandle, Expr, Oid, Schema, SelectExpr, Symbol, System, Type, Value,
};

use crate::ast::{Stmt, TypeExpr};
use crate::error::{QueryError, Result};
use crate::eval::eval_expr;
use crate::parser::parse_program;
use crate::typecheck::{infer, TypeEnv};

/// Resolves a syntactic type against a schema. Builtin names: `string`,
/// `integer`/`int`, `float`/`real`, `boolean`/`bool`, `any`, `nothing`;
/// anything else must be a class name.
pub fn resolve_type(ty: &TypeExpr, schema: &Schema) -> Result<Type> {
    Ok(match ty {
        TypeExpr::Name(n) => match n.as_str() {
            "string" => Type::Str,
            "integer" | "int" => Type::Int,
            "float" | "real" => Type::Float,
            "boolean" | "bool" => Type::Bool,
            "any" => Type::Any,
            "nothing" => Type::Nothing,
            _ => Type::Class(schema.require_class(*n)?),
        },
        TypeExpr::Tuple(fields) => Type::Tuple(
            fields
                .iter()
                .map(|(n, t)| Ok((*n, resolve_type(t, schema)?)))
                .collect::<Result<_>>()?,
        ),
        TypeExpr::Set(t) => Type::set(resolve_type(t, schema)?),
        TypeExpr::List(t) => Type::list(resolve_type(t, schema)?),
    })
}

/// Executes a script against `system`; returns query/insert results in
/// statement order.
pub fn execute_script(system: &mut System, src: &str) -> Result<Vec<Value>> {
    let stmts = parse_program(src)?;
    execute_stmts(system, &stmts)
}

/// Executes pre-parsed statements against `system`.
pub fn execute_stmts(system: &mut System, stmts: &[Stmt]) -> Result<Vec<Value>> {
    let mut results = Vec::new();
    execute_stmts_with_map(system, None, stmts, &mut HashMap::new(), |v| {
        results.extend(v)
    })?;
    Ok(results)
}

/// Like [`execute_stmts`], starting in database `db` (if given), with the
/// `#n` literal bindings persisting in (and read from) the caller-supplied
/// map — this is what lets an interactive session refer to `#1` across
/// separately-executed statements. `each` receives, in order, one entry per
/// statement: the value it produced (a query's result, an insert's oid), or
/// `None`.
pub fn execute_stmts_with_map(
    system: &mut System,
    db: Option<Symbol>,
    stmts: &[Stmt],
    oid_map: &mut HashMap<u64, Oid>,
    each: impl FnMut(Option<Value>),
) -> Result<()> {
    let start = db.map(|db| system.database(db)).transpose()?;
    let mut exec = Executor {
        system,
        start,
        switched: None,
        oid_map,
    };
    exec.run(stmts, each)
}

/// Pass 2 of a data statement — a query, `insert`, `set` or `delete` —
/// on database `db`: the value it produces (a query's result, an insert's
/// oid). `#n` literals read `oid_map`.
fn run_data_stmt(db: &DbHandle, oid_map: &HashMap<u64, Oid>, stmt: &Stmt) -> Result<Option<Value>> {
    match stmt {
        Stmt::SetAttr {
            target,
            attr,
            value,
        } => {
            let Value::Oid(o) = eval_remapped(db, oid_map, target)? else {
                return Err(QueryError::eval("`set` target must evaluate to an object"));
            };
            let v = eval_remapped(db, oid_map, value)?;
            db.write().set_attr(o, *attr, v)?;
            Ok(None)
        }
        Stmt::Delete(e) => {
            let Value::Oid(o) = eval_remapped(db, oid_map, e)? else {
                return Err(QueryError::eval(
                    "`delete` target must evaluate to an object",
                ));
            };
            db.write().delete_object(o)?;
            Ok(None)
        }
        Stmt::Insert { class, value } => {
            let v = eval_remapped(db, oid_map, value)?;
            let mut db = db.write();
            let class_id = db.schema.require_class(*class)?;
            Ok(Some(Value::Oid(db.create_object(class_id, v)?)))
        }
        Stmt::Query(e) => {
            // `run_expr`, not `eval_expr`: the statement takes the
            // dispatch rule's engine and profiled runs feed the workload
            // registry, same as `run_query` on a text query.
            let e = remap_oids(e, oid_map);
            run_expr(&*db.read(), &e).map(Some)
        }
        _ => unreachable!("pass 2 runs only data statements here"),
    }
}

/// Evaluates `e` against `db` with its `#n` literals remapped.
fn eval_remapped(db: &DbHandle, oid_map: &HashMap<u64, Oid>, e: &Expr) -> Result<Value> {
    let e = remap_oids(e, oid_map);
    eval_expr(&*db.read(), &e)
}

struct Executor<'a> {
    system: &'a mut System,
    /// The database the statements start in, if the caller named one.
    start: Option<DbHandle>,
    /// The database a `database D;` statement of this pass switched to.
    switched: Option<DbHandle>,
    /// Script-local `#n` literal → allocated oid.
    oid_map: &'a mut HashMap<u64, Oid>,
}

impl Executor<'_> {
    fn current(&self) -> Result<&DbHandle> {
        self.switched
            .as_ref()
            .or(self.start.as_ref())
            .ok_or_else(|| QueryError::eval("no current database (start with `database D;`)"))
    }

    fn run(&mut self, stmts: &[Stmt], mut each: impl FnMut(Option<Value>)) -> Result<()> {
        // Pass 0: create every declared class (parents resolved, attributes
        // deferred) so that attribute types may reference classes declared
        // later in the script, including self-references like
        // `Spouse: Person`.
        for stmt in stmts {
            match stmt {
                Stmt::Database(name) => {
                    let handle = match self.system.database(*name) {
                        Ok(h) => h,
                        Err(_) => self.system.create_database(*name)?,
                    };
                    self.switched = Some(handle);
                }
                Stmt::ClassDecl { name, parents, .. } => {
                    let mut db = self.current()?.write();
                    let parent_ids: Vec<ClassId> = parents
                        .iter()
                        .map(|p| db.schema.require_class(*p))
                        .collect::<ov_oodb::Result<_>>()?;
                    db.create_class(*name, &parent_ids, Vec::new())?;
                }
                _ => {}
            }
        }
        // Pass 1: stored/computed attributes and empty-object allocation.
        // The database context is re-tracked so multi-database scripts
        // allocate into the right stores.
        self.switched = None;
        for stmt in stmts {
            match stmt {
                Stmt::Database(name) => {
                    self.switched = Some(self.system.database(*name)?);
                }
                Stmt::ClassDecl { name, stored, .. } => {
                    let mut db = self.current()?.write();
                    let class_id = db.schema.require_class(*name)?;
                    for (attr, t) in stored {
                        let ty = resolve_type(t, &db.schema)?;
                        // Through the database wrapper so durable sessions
                        // WAL-log the DDL.
                        db.add_attr(class_id, AttrDef::stored(*attr, ty))?;
                    }
                }
                Stmt::AttributeDecl {
                    name,
                    params,
                    ty,
                    class,
                    body,
                } => {
                    self.attribute_decl(*name, params, ty.as_ref(), *class, body.as_ref())?;
                }
                Stmt::ObjectDecl { oid, class, .. } => {
                    let real = {
                        let mut db = self.current()?.write();
                        let class_id = db.schema.require_class(*class)?;
                        db.create_object(class_id, Value::empty_tuple())?
                    };
                    if self.oid_map.insert(*oid, real).is_some() {
                        return Err(QueryError::eval(format!(
                            "object literal #{oid} declared twice"
                        )));
                    }
                }
                Stmt::CreateView(_)
                | Stmt::Import { .. }
                | Stmt::HideAttrs { .. }
                | Stmt::HideClass(_)
                | Stmt::VirtualClassDecl { .. } => {
                    return Err(QueryError::eval(
                        "view-definition statements must be executed through ov-views \
                         (ViewDef::from_script)",
                    ));
                }
                _ => {}
            }
        }
        // Pass 2: data and queries, in order.
        self.switched = None;
        for stmt in stmts {
            let value = match stmt {
                Stmt::Database(name) => {
                    self.switched = Some(self.system.database(*name)?);
                    None
                }
                Stmt::ClassDecl { .. } | Stmt::AttributeDecl { .. } => None,
                Stmt::ObjectDecl { oid, value, .. } => {
                    let real = self.oid_map[oid];
                    let db = self.current()?;
                    let Value::Tuple(t) = eval_remapped(db, self.oid_map, value)? else {
                        return Err(QueryError::eval("object value must be a tuple"));
                    };
                    let mut db = db.write();
                    for (field, v) in t.iter() {
                        db.set_attr(real, field, v.clone())?;
                    }
                    None
                }
                Stmt::NameDecl { name, oid } => {
                    let real = self.resolve_oid_lit(*oid);
                    self.current()?.write().name_object(*name, real)?;
                    None
                }
                Stmt::SetAttr { .. } | Stmt::Delete(_) | Stmt::Insert { .. } | Stmt::Query(_) => {
                    run_data_stmt(self.current()?, self.oid_map, stmt)?
                }
                Stmt::CreateView(_)
                | Stmt::Import { .. }
                | Stmt::HideAttrs { .. }
                | Stmt::HideClass(_)
                | Stmt::VirtualClassDecl { .. } => unreachable!("rejected in pass 1"),
            };
            each(value);
        }
        Ok(())
    }

    fn attribute_decl(
        &self,
        name: Symbol,
        params: &[(Symbol, TypeExpr)],
        ty: Option<&TypeExpr>,
        class: Symbol,
        body: Option<&Expr>,
    ) -> Result<()> {
        let mut db = self.current()?.write();
        let class_id = db.schema.require_class(class)?;
        let param_tys: Vec<(Symbol, Type)> = params
            .iter()
            .map(|(p, t)| Ok((*p, resolve_type(t, &db.schema)?)))
            .collect::<Result<_>>()?;
        let declared = ty.map(|t| resolve_type(t, &db.schema)).transpose()?;
        let def = match body {
            None => {
                // Stored: a type is mandatory (nothing to infer from).
                let ty = declared.ok_or_else(|| {
                    QueryError::ty(format!("stored attribute `{name}` needs an explicit type"))
                })?;
                if !param_tys.is_empty() {
                    return Err(QueryError::ty(format!(
                        "stored attribute `{name}` cannot take parameters"
                    )));
                }
                AttrDef::stored(name, ty)
            }
            Some(body) => {
                // Computed: infer the type when not declared ("the view
                // system should relieve the user of mundane tasks", §2).
                let ty = match declared {
                    Some(t) => t,
                    None => {
                        let mut env = TypeEnv::with_self(Type::Class(class_id));
                        for (p, t) in &param_tys {
                            env.bind(*p, t.clone());
                        }
                        infer(&*db, &mut env, body)?
                    }
                };
                AttrDef::method(name, param_tys, ty, body.clone())
            }
        };
        db.add_attr(class_id, def)?;
        Ok(())
    }

    /// `#n` appearing in a script refers to the object allocated for that
    /// literal if one was declared, otherwise to the raw oid.
    fn resolve_oid_lit(&self, n: u64) -> Oid {
        self.oid_map.get(&n).copied().unwrap_or(Oid(n))
    }
}

/// Rewrites `#n` oid literals through `map` (deeply, including literals
/// inside constructed values). With nothing declared there is nothing to
/// rewrite, and the expression is borrowed.
fn remap_oids<'e>(e: &'e Expr, map: &HashMap<u64, Oid>) -> Cow<'e, Expr> {
    if map.is_empty() {
        return Cow::Borrowed(e);
    }
    Cow::Owned(map_expr(e, &mut |expr| {
        if let Expr::Lit(v) = expr {
            let mut v2 = v.clone();
            remap_value(&mut v2, map);
            return Some(Expr::Lit(v2));
        }
        None
    }))
}

fn remap_value(v: &mut Value, map: &HashMap<u64, Oid>) {
    match v {
        Value::Oid(o) => {
            if let Some(real) = map.get(&o.0) {
                *o = *real;
            }
        }
        Value::Tuple(t) => {
            let entries: Vec<(Symbol, Value)> = t.iter().map(|(n, v)| (n, v.clone())).collect();
            for (n, mut val) in entries {
                remap_value(&mut val, map);
                t.set(n, val);
            }
        }
        Value::Set(s) => {
            let mut items: Vec<Value> = s.iter().cloned().collect();
            for item in &mut items {
                remap_value(item, map);
            }
            *s = items.into_iter().collect();
        }
        Value::List(l) => {
            for item in l {
                remap_value(item, map);
            }
        }
        _ => {}
    }
}

/// Structure-preserving expression rewrite: `f` returns `Some(replacement)`
/// to substitute a node (children of replaced nodes are not revisited).
fn map_expr(e: &Expr, f: &mut dyn FnMut(&Expr) -> Option<Expr>) -> Expr {
    if let Some(replaced) = f(e) {
        return replaced;
    }
    match e {
        Expr::Lit(_) | Expr::SelfRef | Expr::Name(_) => e.clone(),
        Expr::Attr { recv, name, args } => Expr::Attr {
            recv: Box::new(map_expr(recv, f)),
            name: *name,
            args: args.iter().map(|a| map_expr(a, f)).collect(),
        },
        Expr::TupleCons(fields) => {
            Expr::TupleCons(fields.iter().map(|(n, e)| (*n, map_expr(e, f))).collect())
        }
        Expr::SetCons(items) => Expr::SetCons(items.iter().map(|e| map_expr(e, f)).collect()),
        Expr::ListCons(items) => Expr::ListCons(items.iter().map(|e| map_expr(e, f)).collect()),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(map_expr(expr, f)),
        },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(map_expr(lhs, f)),
            rhs: Box::new(map_expr(rhs, f)),
        },
        Expr::If { cond, then, els } => Expr::If {
            cond: Box::new(map_expr(cond, f)),
            then: Box::new(map_expr(then, f)),
            els: Box::new(map_expr(els, f)),
        },
        Expr::Select(q) => Expr::Select(map_select(q, f)),
        Expr::Exists(q) => Expr::Exists(map_select(q, f)),
        Expr::Aggregate { func, arg } => Expr::Aggregate {
            func: *func,
            arg: Box::new(map_expr(arg, f)),
        },
        Expr::IsA { expr, class } => Expr::IsA {
            expr: Box::new(map_expr(expr, f)),
            class: *class,
        },
        Expr::Apply { name, args } => Expr::Apply {
            name: *name,
            args: args.iter().map(|a| map_expr(a, f)).collect(),
        },
    }
}

/// Structure-preserving select rewrite; see [`rewrite_expr`].
pub fn map_select(q: &SelectExpr, f: &mut dyn FnMut(&Expr) -> Option<Expr>) -> SelectExpr {
    SelectExpr {
        distinct: q.distinct,
        the: q.the,
        proj: Box::new(map_expr(&q.proj, f)),
        bindings: q
            .bindings
            .iter()
            .map(|(v, c)| (*v, map_expr(c, f)))
            .collect(),
        filter: q.filter.as_ref().map(|w| Box::new(map_expr(w, f))),
    }
}

/// Public re-export of the expression rewriter for downstream crates
/// (`ov-views` substitutes class parameters with it).
pub fn rewrite_expr(e: &Expr, f: &mut dyn FnMut(&Expr) -> Option<Expr>) -> Expr {
    map_expr(e, f)
}

/// Runs a single query string against any data source (database or view),
/// in the engine one rule picks: a statement that iterates (it contains a
/// `select`, an `exists` or an aggregate) runs compiled, any other walks,
/// with identical observable behavior.
///
/// When the profiler is on ([`ov_oodb::metrics::set_profiling`]) the run is
/// additionally fingerprinted and recorded in the process-wide workload
/// registry (and, past the threshold, the slow-query log). The profiled
/// path executes the *same* expression the unprofiled path would — it only
/// measures around it. Disabled cost: one relaxed atomic load.
pub fn run_query(src: &dyn crate::source::DataSource, query: &str) -> Result<Value> {
    let _span = ov_oodb::span!("query.run");
    let e = {
        let _parse = ov_oodb::span!("query.parse");
        crate::parser::parse_expr(query)?
    };
    run_parsed(src, &e, Some(query))
}

/// Runs a pre-parsed expression against any data source, in the engine
/// [`run_query`]'s rule picks. Callers that hold an [`Expr`] (e.g. a
/// session dispatching a parsed statement) should prefer this over
/// [`eval_expr`], which always walks.
pub fn run_expr(src: &dyn crate::source::DataSource, e: &Expr) -> Result<Value> {
    run_parsed(src, e, None)
}

/// The one choice of engine for a top-level statement `e` (already
/// constant-folded by the caller). A statement that iterates — it contains
/// a `select`, an `exists` or an aggregate — runs compiled. Anything else
/// touches a handful of objects, where compiling costs more than walking
/// the tree once, so it walks and counts in `compile.fallbacks`. Under
/// [`EngineMode::Interp`](crate::EngineMode) every statement walks: the
/// differential oracle.
pub(crate) fn dispatch(
    src: &dyn crate::source::DataSource,
    e: &Expr,
) -> (Result<Value>, crate::plan::Engine) {
    use crate::plan::Engine;
    if crate::compile::engine_mode() == crate::EngineMode::Compiled {
        if iterates(e) {
            return (crate::compile::run_compiled(src, e), Engine::Compiled);
        }
        ov_oodb::metric_counter!("compile.fallbacks").inc();
    }
    (eval_expr(src, e), Engine::Interpreted)
}

/// Does `e` loop: does it contain a `select`, an `exists` or an aggregate?
fn iterates(e: &Expr) -> bool {
    match e {
        Expr::Select(_) | Expr::Exists(_) | Expr::Aggregate { .. } => true,
        Expr::Lit(_) | Expr::SelfRef | Expr::Name(_) => false,
        Expr::Attr { recv, args, .. } => iterates(recv) || args.iter().any(iterates),
        Expr::TupleCons(fields) => fields.iter().any(|(_, e)| iterates(e)),
        Expr::SetCons(items) | Expr::ListCons(items) | Expr::Apply { args: items, .. } => {
            items.iter().any(iterates)
        }
        Expr::Unary { expr, .. } | Expr::IsA { expr, .. } => iterates(expr),
        Expr::Binary { lhs, rhs, .. } => iterates(lhs) || iterates(rhs),
        Expr::If { cond, then, els } => iterates(cond) || iterates(then) || iterates(els),
    }
}

/// What [`run_query`] and [`run_expr`] do once they hold an expression.
/// `text` is the source text when the caller has it (for the slow-query
/// log); pre-parsed callers pass `None` and the expression's rendering
/// stands in.
///
/// With the profiler on (and no EXPLAIN collecting) the statement runs
/// observed ([`crate::plan::observed`]), and its close is recorded: the
/// workload registry learns the query's fingerprint, latency, rows, engine,
/// plan-cache outcome and population-path mix, and the slow-query log keeps
/// the rendered trace when the run crosses the threshold. Only successful
/// runs are recorded.
fn run_parsed(src: &dyn crate::source::DataSource, e: &Expr, text: Option<&str>) -> Result<Value> {
    use crate::plan::{Engine, PopPath};
    if !ov_oodb::metrics::profiling_enabled() || crate::plan::tracing_active() {
        // Fold constants before planning/execution so literals substituted
        // by parameterized-class instantiation feed selectivity estimation.
        let folded = crate::optimize::fold(e);
        let _exec = ov_oodb::span!("query.execute");
        return dispatch(src, &folded).0;
    }
    let (value, trace) = crate::plan::observed(src, e, Vec::new());
    let value = value?;
    let nanos = trace.stages.iter().map(|s| s.nanos).sum();
    let entry = ov_oodb::metrics::workload().entry(&trace.fingerprint, &trace.normalized);
    entry.calls.inc();
    entry.rows.add(trace.rows.unwrap_or(0) as u64);
    entry.latency.record(nanos);
    match trace.engine {
        Some(Engine::Compiled) => entry.compiled.inc(),
        _ => entry.interpreted.inc(),
    }
    match &trace.planner {
        Some(p) if p.cache_hit => entry.plan_cache_hits.inc(),
        Some(_) => entry.plan_cache_misses.inc(),
        None => {}
    }
    for p in &trace.populations {
        match &p.path {
            PopPath::CacheHit => entry.pop_cache_hits.inc(),
            PopPath::Delta { .. } => entry.pop_deltas.inc(),
            PopPath::FullRecompute { .. } => entry.pop_recomputes.inc(),
            PopPath::StaleServe => entry.pop_stale_serves.inc(),
        }
    }
    let log = ov_oodb::metrics::slow_queries();
    if nanos >= log.threshold_ns() {
        log.record(ov_oodb::metrics::SlowQuery {
            query: text.map_or_else(|| e.to_string(), str::to_owned),
            fingerprint: trace.fingerprint.clone(),
            nanos,
            trace: trace.to_string(),
        });
    }
    Ok(value)
}

/// Runs a query governed by a cooperative [`Budget`](crate::Budget): the
/// budget is installed for the duration of the run (parse depth, steps,
/// rows, and the deadline all count against it) and breaches
/// surface as [`QueryError::Cancelled`] / [`QueryError::ResourceExhausted`].
pub fn run_query_with_budget(
    src: &dyn crate::source::DataSource,
    query: &str,
    budget: std::sync::Arc<crate::budget::Budget>,
) -> Result<Value> {
    crate::budget::with(budget, || run_query(src, query))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ov_oodb::sym;

    const STAFF: &str = r#"
        database Staff;
        class Person type [Name: string, Age: integer, Spouse: Person, Children: {Person}];
        class Employee inherits Person type [Salary: integer];
        class Manager inherits Employee type [Budget: integer];
        attribute Greeting in class Person has value "hello " ++ self.Name;
        object #1 in Person value [Name: "Maggy", Age: 65, Spouse: #2];
        object #2 in Person value [Name: "Denis", Age: 70, Spouse: #1];
        object #3 in Manager value [Name: "Boss", Age: 50, Salary: 90000, Budget: 1000000];
        name maggy = #1;
    "#;

    #[test]
    fn loads_schema_and_data() {
        let mut sys = System::new();
        execute_script(&mut sys, STAFF).unwrap();
        let db = sys.database(sym("Staff")).unwrap();
        let db = db.read();
        assert_eq!(db.schema.len(), 3);
        assert_eq!(db.store.len(), 3);
        let maggy = db.named(sym("maggy")).unwrap();
        assert_eq!(db.stored_attr(maggy, sym("Age")).unwrap(), &Value::Int(65));
    }

    #[test]
    fn forward_references_resolve() {
        let mut sys = System::new();
        execute_script(&mut sys, STAFF).unwrap();
        let db = sys.database(sym("Staff")).unwrap();
        let db = db.read();
        // #1 references #2 which is declared later.
        let v = run_query(&*db, "maggy.Spouse.Name").unwrap();
        assert_eq!(v, Value::str("Denis"));
        // And the cycle closes.
        assert_eq!(
            run_query(&*db, "maggy.Spouse.Spouse.Name").unwrap(),
            Value::str("Maggy")
        );
    }

    #[test]
    fn computed_attribute_type_is_inferred() {
        let mut sys = System::new();
        execute_script(&mut sys, STAFF).unwrap();
        let db = sys.database(sym("Staff")).unwrap();
        let db = db.read();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        let (_, def) = db.schema.visible_attrs(person)[&sym("Greeting")];
        assert_eq!(def.sig.ty, Type::Str);
        assert_eq!(
            run_query(&*db, "maggy.Greeting").unwrap(),
            Value::str("hello Maggy")
        );
    }

    #[test]
    fn queries_and_updates_execute_in_order() {
        let mut sys = System::new();
        let results = execute_script(
            &mut sys,
            r#"
            database D;
            class Counter type [N: integer];
            object #1 in Counter value [N: 1];
            name c = #1;
            c.N;
            set c.N = 2;
            c.N;
            insert Counter value [N: 9];
            count((select X from X in Counter));
            delete c;
            count((select X from X in Counter));
            "#,
        )
        .unwrap();
        assert_eq!(results[0], Value::Int(1));
        assert_eq!(results[1], Value::Int(2));
        assert!(matches!(results[2], Value::Oid(_))); // insert result
        assert_eq!(results[3], Value::Int(2));
        assert_eq!(results[4], Value::Int(1));
    }

    #[test]
    fn profiling_records_workload_and_slow_queries() {
        let mut sys = System::new();
        execute_script(&mut sys, STAFF).unwrap();
        let db = sys.database(sym("Staff")).unwrap();
        let db = db.read();
        // A query shape distinctive enough that no other test records it.
        let q = "select W.Name from W in Person where W.Age > 63";
        let (fp, _) = crate::fingerprint::fingerprint_query(q).unwrap();
        let log = ov_oodb::metrics::slow_queries();
        let threshold_was = log.threshold_ns();
        log.set_threshold_ns(0); // capture everything while enabled
        ov_oodb::metrics::set_profiling(true);
        let v = run_query(&*db, q).unwrap();
        let v2 = run_query(&*db, q).unwrap();
        ov_oodb::metrics::set_profiling(false);
        log.set_threshold_ns(threshold_was);
        assert_eq!(v, v2);
        assert_eq!(
            v,
            Value::set([Value::str("Maggy"), Value::str("Denis")]),
            "profiled execution returns the same result"
        );
        let entry = ov_oodb::metrics::workload().entry(&fp, "");
        assert!(entry.calls.get() >= 2, "calls: {}", entry.calls.get());
        assert!(entry.rows.get() >= 4, "rows: {}", entry.rows.get());
        assert!(entry.compiled.get() + entry.interpreted.get() >= 2);
        let slow = log.entries();
        let mine: Vec<_> = slow.iter().filter(|e| e.fingerprint == fp).collect();
        assert!(!mine.is_empty(), "slow-query log captured the run");
        assert!(
            mine[0].trace.contains("actuals:"),
            "trace is annotated: {}",
            mine[0].trace
        );
    }

    #[test]
    fn stored_attribute_decl_needs_type() {
        let mut sys = System::new();
        let err =
            execute_script(&mut sys, "database D; class C; attribute X in class C;").unwrap_err();
        assert!(err.to_string().contains("needs an explicit type"));
    }

    #[test]
    fn view_statements_are_rejected_here() {
        let mut sys = System::new();
        let err = execute_script(&mut sys, "database D; create view V;").unwrap_err();
        assert!(err.to_string().contains("ov-views"));
    }

    #[test]
    fn no_current_database_is_an_error() {
        let mut sys = System::new();
        assert!(execute_script(&mut sys, "class C;").is_err());
    }

    #[test]
    fn duplicate_object_literal_rejected() {
        let mut sys = System::new();
        let err = execute_script(
            &mut sys,
            "database D; class C; object #1 in C value []; object #1 in C value [];",
        )
        .unwrap_err();
        assert!(err.to_string().contains("declared twice"));
    }

    #[test]
    fn dump_load_roundtrip() {
        let mut sys = System::new();
        execute_script(&mut sys, STAFF).unwrap();
        let dump = {
            let db = sys.database(sym("Staff")).unwrap();
            let db = db.read();
            ov_oodb::dump_database(&db)
        };
        // Load the dump into a fresh system under the same name.
        let mut sys2 = System::new();
        execute_script(&mut sys2, &dump).unwrap();
        let db2 = sys2.database(sym("Staff")).unwrap();
        let db2 = db2.read();
        assert_eq!(db2.store.len(), 3);
        assert_eq!(
            run_query(&*db2, "maggy.Spouse.Name").unwrap(),
            Value::str("Denis")
        );
        // And the dump of the reload equals the dump of the original
        // (stable because loading preserves creation order).
        assert_eq!(ov_oodb::dump_database(&db2), dump);
    }

    #[test]
    fn multi_database_scripts() {
        let mut sys = System::new();
        execute_script(
            &mut sys,
            r#"
            database A;
            class X type [V: integer];
            object #1 in X value [V: 1];
            database B;
            class Y type [W: integer];
            object #2 in Y value [W: 2];
            "#,
        )
        .unwrap();
        assert_eq!(sys.database(sym("A")).unwrap().read().store.len(), 1);
        assert_eq!(sys.database(sym("B")).unwrap().read().store.len(), 1);
    }
}
