//! Static type inference.
//!
//! The paper leans on inference throughout: "the type declaration is not
//! compulsory because it is often the case that the type can be inferred by
//! the system" (§2), and for imaginary classes "by static type inference, it
//! declares that class Family has two attributes, Husband and Wife, both of
//! type Person" (§5). This module provides that inference for the view
//! layer and a static checker for ad-hoc queries.
//!
//! Inference runs against a [`DataSource`]'s schema-level methods, so it
//! works identically on base databases and on views.

use ov_oodb::{AggFunc, BinOp, Expr, SelectExpr, Symbol, Type, UnOp, Value};

use crate::error::{QueryError, Result};
use crate::source::DataSource;

/// A typing environment: variable types plus the type of `self`.
#[derive(Clone, Debug, Default)]
pub struct TypeEnv {
    vars: Vec<(Symbol, Type)>,
    self_ty: Option<Type>,
}

impl TypeEnv {
    /// An empty typing environment.
    pub fn new() -> TypeEnv {
        TypeEnv::default()
    }

    /// An environment where `self` has type `ty` (used when inferring the
    /// type of a computed attribute's body in a class).
    pub fn with_self(ty: Type) -> TypeEnv {
        TypeEnv {
            vars: Vec::new(),
            self_ty: Some(ty),
        }
    }

    /// Binds a variable's type (innermost scope wins on lookup).
    pub fn bind(&mut self, name: Symbol, ty: Type) {
        self.vars.push((name, ty));
    }

    fn lookup(&self, name: Symbol) -> Option<&Type> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| t)
    }

    fn pop(&mut self, n: usize) {
        self.vars.truncate(self.vars.len() - n);
    }
}

/// Infers the type of `expr` against `src` with an empty environment.
pub fn infer_expr(src: &dyn DataSource, expr: &Expr) -> Result<Type> {
    infer(src, &mut TypeEnv::new(), expr)
}

/// Infers the type of a query against `src`.
pub fn infer_select(src: &dyn DataSource, query: &SelectExpr) -> Result<Type> {
    infer_select_in(src, &mut TypeEnv::new(), query)
}

/// Infers the type of `expr` in `env`.
pub fn infer(src: &dyn DataSource, env: &mut TypeEnv, expr: &Expr) -> Result<Type> {
    match expr {
        Expr::Lit(v) => Ok(type_of_value(v)),
        Expr::SelfRef => env
            .self_ty
            .clone()
            .ok_or_else(|| QueryError::ty("`self` is not bound here")),
        Expr::Name(n) => {
            if let Some(t) = env.lookup(*n) {
                return Ok(t.clone());
            }
            if let Some(oid) = src.named_object(*n) {
                let c = src.class_of(oid)?;
                return Ok(Type::Class(c));
            }
            if let Some(c) = src.class_by_name(*n) {
                return Ok(Type::set(Type::Class(c)));
            }
            Err(QueryError::ty(format!(
                "unknown name `{n}` (not a variable, named object, or class)"
            )))
        }
        Expr::Attr { recv, name, args } => {
            let recv_ty = infer(src, env, recv)?;
            let mut arg_tys = Vec::with_capacity(args.len());
            for a in args {
                arg_tys.push(infer(src, env, a)?);
            }
            attr_type(src, &recv_ty, *name, &arg_tys)
        }
        Expr::TupleCons(fields) => {
            let mut out = std::collections::BTreeMap::new();
            for (n, e) in fields {
                out.insert(*n, infer(src, env, e)?);
            }
            Ok(Type::Tuple(out))
        }
        Expr::SetCons(items) => {
            let elem = lub_of_all(
                src,
                items
                    .iter()
                    .map(|e| infer(src, env, e))
                    .collect::<Result<Vec<_>>>()?,
            );
            Ok(Type::set(elem))
        }
        Expr::ListCons(items) => {
            let elem = lub_of_all(
                src,
                items
                    .iter()
                    .map(|e| infer(src, env, e))
                    .collect::<Result<Vec<_>>>()?,
            );
            Ok(Type::list(elem))
        }
        Expr::Unary { op, expr } => {
            let t = infer(src, env, expr)?;
            match op {
                UnOp::Not => {
                    require_boolish(&t, "operand of `not`")?;
                    Ok(Type::Bool)
                }
                UnOp::Neg => {
                    require_numeric(&t, "operand of `-`")?;
                    Ok(t)
                }
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let lt = infer(src, env, lhs)?;
            let rt = infer(src, env, rhs)?;
            binary_type(src, *op, &lt, &rt)
        }
        Expr::If { cond, then, els } => {
            let ct = infer(src, env, cond)?;
            require_boolish(&ct, "`if` condition")?;
            let tt = infer(src, env, then)?;
            let et = infer(src, env, els)?;
            Ok(tt.lub(&et, src).unwrap_or(Type::Any))
        }
        Expr::Select(q) => infer_select_in(src, env, q),
        Expr::Exists(q) => {
            infer_select_in(src, env, q)?;
            Ok(Type::Bool)
        }
        Expr::Aggregate { func, arg } => {
            let at = infer(src, env, arg)?;
            let elem = match &at {
                Type::Set(t) | Type::List(t) => (**t).clone(),
                Type::Any | Type::Nothing => Type::Any,
                other => {
                    return Err(QueryError::ty(format!(
                        "{}() needs a collection, found {other:?}",
                        func.name()
                    )))
                }
            };
            Ok(match func {
                AggFunc::Count => Type::Int,
                AggFunc::Avg => Type::Float,
                AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                    if matches!(func, AggFunc::Sum) {
                        require_numeric(&elem, "elements of sum()")?;
                    }
                    elem
                }
                AggFunc::Flatten => match elem {
                    Type::Set(inner) | Type::List(inner) => Type::Set(inner),
                    Type::Any | Type::Nothing => Type::set(Type::Any),
                    other => {
                        return Err(QueryError::ty(format!(
                            "flatten() needs a collection of collections, found {{{other:?}}}"
                        )))
                    }
                },
            })
        }
        Expr::IsA { expr, class } => {
            let t = infer(src, env, expr)?;
            if src.class_by_name(*class).is_none() {
                return Err(QueryError::from(ov_oodb::OodbError::UnknownClass(*class)));
            }
            match t {
                Type::Class(_) | Type::Any | Type::Nothing => Ok(Type::Bool),
                other => Err(QueryError::ty(format!(
                    "`isa` applies to objects, found {other:?}"
                ))),
            }
        }
        Expr::Apply { name, args } => {
            let mut tys = Vec::with_capacity(args.len());
            for a in args {
                tys.push(infer(src, env, a)?);
            }
            src.apply_type(*name, &tys)
        }
    }
}

/// Infers the type of a select in `env`: `Set(proj)` or, for `select the`,
/// the bare projection type.
pub fn infer_select_in(src: &dyn DataSource, env: &mut TypeEnv, q: &SelectExpr) -> Result<Type> {
    let mut bound = 0;
    for (var, coll) in &q.bindings {
        let coll_ty = infer(src, env, coll)?;
        let elem = match coll_ty {
            Type::Set(t) | Type::List(t) => *t,
            Type::Any => Type::Any,
            Type::Nothing => Type::Nothing,
            other => {
                return Err(QueryError::ty(format!(
                    "`from {var} in …` needs a collection, found {other:?}"
                )))
            }
        };
        env.bind(*var, elem);
        bound += 1;
    }
    if let Some(f) = &q.filter {
        let ft = infer(src, env, f)?;
        if let Err(e) = require_boolish(&ft, "`where` condition") {
            env.pop(bound);
            return Err(e);
        }
    }
    let proj_ty = infer(src, env, &q.proj);
    env.pop(bound);
    let proj_ty = proj_ty?;
    if q.the {
        Ok(proj_ty)
    } else {
        Ok(Type::set(proj_ty))
    }
}

/// Collects the names of classes `expr` reads from `src`, into `out`.
///
/// This is the dependency-extraction half of the typechecker: it walks the
/// expression with the same scoping rules as [`infer`] — a name is a class
/// reference only when no query variable shadows it and the source resolves
/// it as a class — but records names instead of types. The view layer runs
/// it at bind time to build the view dependency graph (which base classes
/// and which upstream virtual classes a definition reads).
pub fn referenced_classes(
    src: &dyn DataSource,
    env: &mut TypeEnv,
    expr: &Expr,
    out: &mut std::collections::BTreeSet<Symbol>,
) {
    match expr {
        Expr::Lit(_) | Expr::SelfRef => {}
        Expr::Name(n) => {
            if env.lookup(*n).is_none()
                && src.named_object(*n).is_none()
                && src.class_by_name(*n).is_some()
            {
                out.insert(*n);
            }
        }
        Expr::Attr { recv, args, .. } => {
            referenced_classes(src, env, recv, out);
            for a in args {
                referenced_classes(src, env, a, out);
            }
        }
        Expr::TupleCons(fields) => {
            for (_, e) in fields {
                referenced_classes(src, env, e, out);
            }
        }
        Expr::SetCons(items) | Expr::ListCons(items) => {
            for e in items {
                referenced_classes(src, env, e, out);
            }
        }
        Expr::Unary { expr, .. } => referenced_classes(src, env, expr, out),
        Expr::Binary { lhs, rhs, .. } => {
            referenced_classes(src, env, lhs, out);
            referenced_classes(src, env, rhs, out);
        }
        Expr::If { cond, then, els } => {
            referenced_classes(src, env, cond, out);
            referenced_classes(src, env, then, out);
            referenced_classes(src, env, els, out);
        }
        Expr::Select(q) | Expr::Exists(q) => referenced_classes_select(src, env, q, out),
        Expr::Aggregate { arg, .. } => referenced_classes(src, env, arg, out),
        Expr::IsA { expr, class } => {
            referenced_classes(src, env, expr, out);
            if src.class_by_name(*class).is_some() {
                out.insert(*class);
            }
        }
        Expr::Apply { name, args } => {
            // A parameterized-class application reads the template; record
            // the name so instantiations depend on wherever it came from.
            out.insert(*name);
            for a in args {
                referenced_classes(src, env, a, out);
            }
        }
    }
}

/// [`referenced_classes`] over a `select` block, honoring `from` scoping:
/// bound variables shadow class names for the filter and projection, and
/// later collections see earlier bindings.
pub fn referenced_classes_select(
    src: &dyn DataSource,
    env: &mut TypeEnv,
    q: &SelectExpr,
    out: &mut std::collections::BTreeSet<Symbol>,
) {
    let mut bound = 0;
    for (var, coll) in &q.bindings {
        referenced_classes(src, env, coll, out);
        // Only the scope matters here, not the element type.
        env.bind(*var, Type::Any);
        bound += 1;
    }
    if let Some(f) = &q.filter {
        referenced_classes(src, env, f, out);
    }
    referenced_classes(src, env, &q.proj, out);
    env.pop(bound);
}

/// The static type of a literal.
pub fn type_of_value(v: &Value) -> Type {
    match v {
        Value::Null => Type::Nothing,
        Value::Bool(_) => Type::Bool,
        Value::Int(_) => Type::Int,
        Value::Float(_) => Type::Float,
        Value::Str(_) => Type::Str,
        // The class of a raw oid literal is not statically known.
        Value::Oid(_) => Type::Any,
        Value::Tuple(t) => Type::Tuple(t.iter().map(|(n, v)| (n, type_of_value(v))).collect()),
        Value::Set(s) => Type::set(
            s.iter()
                .map(type_of_value)
                .reduce(|a, b| a.lub(&b, &ov_oodb::types::NoClasses).unwrap_or(Type::Any))
                .unwrap_or(Type::Nothing),
        ),
        Value::List(l) => Type::list(
            l.iter()
                .map(type_of_value)
                .reduce(|a, b| a.lub(&b, &ov_oodb::types::NoClasses).unwrap_or(Type::Any))
                .unwrap_or(Type::Nothing),
        ),
    }
}

fn attr_type(src: &dyn DataSource, recv: &Type, name: Symbol, args: &[Type]) -> Result<Type> {
    match recv {
        Type::Nothing => Ok(Type::Nothing),
        Type::Any => Ok(Type::Any),
        Type::Class(c) => {
            let sig = src
                .attr_sig(*c, name)
                .ok_or(ov_oodb::OodbError::UnknownAttr {
                    class: src.class_name(*c),
                    attr: name,
                })?;
            if sig.params.len() != args.len() {
                return Err(QueryError::ty(format!(
                    "attribute `{name}` expects {} argument(s), got {}",
                    sig.params.len(),
                    args.len()
                )));
            }
            for ((pname, pty), aty) in sig.params.iter().zip(args) {
                if !aty.is_subtype(pty, src) {
                    return Err(QueryError::ty(format!(
                        "argument `{pname}` of `{name}`: expected {pty:?}, found {aty:?}"
                    )));
                }
            }
            Ok(sig.ty)
        }
        Type::Tuple(fields) => {
            if !args.is_empty() {
                return Err(QueryError::ty(format!(
                    "tuple field `{name}` takes no arguments"
                )));
            }
            fields
                .get(&name)
                .cloned()
                .ok_or_else(|| QueryError::ty(format!("tuple type has no field `{name}`")))
        }
        other => Err(QueryError::ty(format!(
            "cannot access attribute `{name}` of {other:?}"
        ))),
    }
}

fn binary_type(src: &dyn DataSource, op: BinOp, lt: &Type, rt: &Type) -> Result<Type> {
    match op {
        BinOp::And | BinOp::Or => {
            require_boolish(lt, "boolean operand")?;
            require_boolish(rt, "boolean operand")?;
            Ok(Type::Bool)
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            require_numeric(lt, "arithmetic operand")?;
            require_numeric(rt, "arithmetic operand")?;
            if *lt == Type::Int && *rt == Type::Int {
                Ok(Type::Int)
            } else if matches!(lt, Type::Any) || matches!(rt, Type::Any) {
                Ok(Type::Any)
            } else {
                Ok(Type::Float)
            }
        }
        BinOp::Concat => match (lt, rt) {
            (Type::Str, Type::Str) => Ok(Type::Str),
            (Type::List(_), Type::List(_)) => Ok(lt.lub(rt, src).unwrap_or(Type::Any)),
            (Type::Any, _) | (_, Type::Any) => Ok(Type::Any),
            _ => Err(QueryError::ty(format!(
                "`++` concatenates strings or lists, found {lt:?} and {rt:?}"
            ))),
        },
        BinOp::Eq | BinOp::Ne => Ok(Type::Bool),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ok = (is_numeric(lt) && is_numeric(rt))
                || (*lt == Type::Str && *rt == Type::Str)
                || matches!(lt, Type::Any | Type::Nothing)
                || matches!(rt, Type::Any | Type::Nothing);
            if ok {
                Ok(Type::Bool)
            } else {
                Err(QueryError::ty(format!("cannot order {lt:?} and {rt:?}")))
            }
        }
        BinOp::In => match rt {
            Type::Set(_) | Type::List(_) | Type::Any | Type::Nothing => Ok(Type::Bool),
            other => Err(QueryError::ty(format!(
                "`in` needs a collection on the right, found {other:?}"
            ))),
        },
        BinOp::Union | BinOp::Intersect | BinOp::Except => match (lt, rt) {
            (Type::Set(_), Type::Set(_)) => Ok(lt.lub(rt, src).unwrap_or(Type::Any)),
            (Type::Any, _) | (_, Type::Any) => Ok(Type::Any),
            _ => Err(QueryError::ty(format!(
                "`{}` needs sets, found {lt:?} and {rt:?}",
                op.token()
            ))),
        },
    }
}

fn is_numeric(t: &Type) -> bool {
    matches!(t, Type::Int | Type::Float | Type::Any | Type::Nothing)
}

fn require_numeric(t: &Type, what: &str) -> Result<()> {
    if is_numeric(t) {
        Ok(())
    } else {
        Err(QueryError::ty(format!(
            "{what} must be numeric, found {t:?}"
        )))
    }
}

fn require_boolish(t: &Type, what: &str) -> Result<()> {
    if matches!(t, Type::Bool | Type::Any | Type::Nothing) {
        Ok(())
    } else {
        Err(QueryError::ty(format!(
            "{what} must be boolean, found {t:?}"
        )))
    }
}

fn lub_of_all(src: &dyn DataSource, tys: Vec<Type>) -> Type {
    tys.into_iter()
        .reduce(|a, b| a.lub(&b, src).unwrap_or(Type::Any))
        .unwrap_or(Type::Nothing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_select};
    use ov_oodb::{sym, AttrDef, Database};

    fn staff() -> Database {
        let mut db = Database::new(sym("Staff"));
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
        db.create_class(
            sym("Employee"),
            &[person],
            vec![AttrDef::stored(sym("Salary"), Type::Int)],
        )
        .unwrap();
        db
    }

    fn ty(db: &Database, src: &str) -> Type {
        infer_expr(db, &parse_expr(src).unwrap()).unwrap()
    }

    #[test]
    fn infers_paper_adult_query() {
        let db = staff();
        let q = parse_select("select P from Person where P.Age >= 21").unwrap();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        assert_eq!(
            infer_select(&db, &q).unwrap(),
            Type::set(Type::Class(person))
        );
    }

    #[test]
    fn infers_tuple_projection_types() {
        // The Family core type: Husband and Wife of type Person (§5).
        let db = staff();
        let q = parse_select("select [Husband: H, Wife: H] from H in Person").unwrap();
        let person = Type::Class(db.schema.class_by_name(sym("Person")).unwrap());
        assert_eq!(
            infer_select(&db, &q).unwrap(),
            Type::set(Type::tuple([("Husband", person.clone()), ("Wife", person)]))
        );
    }

    #[test]
    fn infers_example1_address_merge() {
        // attribute Address … has value [City: self.City, …] with self in a
        // class that stores the components as strings.
        let mut db = Database::new(sym("D"));
        let c = db
            .create_class(
                sym("Person"),
                &[],
                vec![
                    AttrDef::stored(sym("City"), Type::Str),
                    AttrDef::stored(sym("Street"), Type::Str),
                ],
            )
            .unwrap();
        let body = parse_expr("[City: self.City, Street: self.Street]").unwrap();
        let mut env = TypeEnv::with_self(Type::Class(c));
        let t = infer(&db, &mut env, &body).unwrap();
        assert_eq!(t, Type::tuple([("City", Type::Str), ("Street", Type::Str)]));
    }

    #[test]
    fn arithmetic_types() {
        let db = staff();
        assert_eq!(ty(&db, "1 + 2"), Type::Int);
        assert_eq!(ty(&db, "1 + 2.0"), Type::Float);
        assert!(infer_expr(&db, &parse_expr(r#"1 + "x""#).unwrap()).is_err());
    }

    #[test]
    fn where_must_be_boolean() {
        let db = staff();
        let q = parse_select("select P from P in Person where P.Age").unwrap();
        assert!(infer_select(&db, &q).is_err());
    }

    #[test]
    fn unknown_attribute_is_a_static_error() {
        let db = staff();
        let q = parse_select("select P.Wings from P in Person").unwrap();
        assert!(infer_select(&db, &q).is_err());
    }

    #[test]
    fn select_the_strips_the_set() {
        let db = staff();
        let q = parse_select("select the P.Age from P in Person").unwrap();
        assert_eq!(infer_select(&db, &q).unwrap(), Type::Int);
    }

    #[test]
    fn aggregates_type() {
        let db = staff();
        assert_eq!(ty(&db, "count((select P from P in Person))"), Type::Int);
        assert_eq!(ty(&db, "sum((select P.Age from P in Person))"), Type::Int);
        assert_eq!(ty(&db, "avg((select P.Age from P in Person))"), Type::Float);
        assert!(infer_expr(
            &db,
            &parse_expr("sum((select P.Name from P in Person))").unwrap()
        )
        .is_err());
    }

    #[test]
    fn set_literal_element_lub() {
        let db = staff();
        assert_eq!(ty(&db, "{1, 2.5}"), Type::set(Type::Float));
        assert_eq!(ty(&db, "{}"), Type::set(Type::Nothing));
    }

    #[test]
    fn isa_requires_known_class() {
        let db = staff();
        let q = parse_expr("P isa Ghost").unwrap();
        let mut env = TypeEnv::new();
        env.bind(
            sym("P"),
            Type::Class(db.schema.class_by_name(sym("Person")).unwrap()),
        );
        assert!(infer(&db, &mut env, &q).is_err());
    }

    #[test]
    fn if_branches_lub() {
        let db = staff();
        assert_eq!(ty(&db, "if true then 1 else 2.0"), Type::Float);
    }

    #[test]
    fn collects_referenced_classes() {
        let db = staff();
        let q = parse_select(
            "select P.Age from P in Person \
             where exists(select E from E in Employee where E.Age = P.Age)",
        )
        .unwrap();
        let mut out = std::collections::BTreeSet::new();
        referenced_classes_select(&db, &mut TypeEnv::new(), &q, &mut out);
        assert_eq!(out, [sym("Person"), sym("Employee")].into_iter().collect());
    }

    #[test]
    fn bound_variables_shadow_class_references() {
        let db = staff();
        // `Person` is a bound variable here, not a class read.
        let q = parse_select("select Person from Person in Employee").unwrap();
        let mut out = std::collections::BTreeSet::new();
        referenced_classes_select(&db, &mut TypeEnv::new(), &q, &mut out);
        assert_eq!(out, [sym("Employee")].into_iter().collect());
    }
}
