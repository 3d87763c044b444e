//! The expression AST.
//!
//! One expression language serves three roles in the paper:
//!
//! 1. bodies of computed attributes — `attribute Address in class Person has
//!    value [City: self.City, …]` (§2, Example 1);
//! 2. queries populating virtual classes — `class Adult includes (select P
//!    from Person where P.Age >= 21)` (§4.1);
//! 3. ad-hoc user queries against databases and views.
//!
//! The AST lives in `ov-oodb` (rather than `ov-query`) because class
//! definitions *contain* computed-attribute bodies; the parser, type
//! inference and evaluator live in `ov-query`.
//!
//! Expressions carry no source positions and are pretty-printable; the
//! printer output reparses to an equal AST (property-tested in `ov-query`).

use std::fmt;

use crate::symbol::Symbol;
use crate::value::Value;

/// A binary operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// Addition (`+`), with int/float promotion.
    Add,
    /// Subtraction (`-`).
    Sub,
    /// Multiplication (`*`).
    Mul,
    /// Division (`/`); by zero is a runtime error, int/int truncates.
    Div,
    /// Remainder (`%`).
    Mod,
    /// String (or list) concatenation (`++`).
    Concat,
    /// Equality (`=`), with numeric coercion and `null = null`.
    Eq,
    /// Inequality (`!=`).
    Ne,
    /// Less-than (`<`).
    Lt,
    /// Less-or-equal (`<=`).
    Le,
    /// Greater-than (`>`).
    Gt,
    /// Greater-or-equal (`>=`).
    Ge,
    /// Short-circuit conjunction.
    And,
    /// Short-circuit disjunction.
    Or,
    /// Set/list membership: `x in S`.
    In,
    /// Set union.
    Union,
    /// Set intersection.
    Intersect,
    /// Set difference.
    Except,
}

impl BinOp {
    /// Surface syntax of the operator.
    pub fn token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Concat => "++",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::In => "in",
            BinOp::Union => "union",
            BinOp::Intersect => "intersect",
            BinOp::Except => "except",
        }
    }

    /// Binding strength; higher binds tighter. Mirrors the parser's
    /// precedence climbing table in `ov-query`.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::In => 3,
            BinOp::Union | BinOp::Except => 4,
            BinOp::Intersect => 5,
            BinOp::Add | BinOp::Sub | BinOp::Concat => 6,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 7,
        }
    }
}

/// A unary operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnOp {
    /// Boolean negation (of truthiness).
    Not,
    /// Numeric negation.
    Neg,
}

/// An aggregate function over a collection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggFunc {
    /// Number of elements.
    Count,
    /// Numeric sum (int unless any element is a float).
    Sum,
    /// Least element (nulls skipped).
    Min,
    /// Greatest element (nulls skipped).
    Max,
    /// Arithmetic mean as a float.
    Avg,
    /// Union of a set/list of sets (O₂'s `flatten`).
    Flatten,
}

impl AggFunc {
    /// Surface-syntax name of the aggregate.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
            AggFunc::Flatten => "flatten",
        }
    }

    /// Parses an aggregate function name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            "flatten" => AggFunc::Flatten,
            _ => None?,
        })
    }
}

/// A `select … from … where …` query block.
#[derive(Clone, PartialEq, Debug)]
pub struct SelectExpr {
    /// `select distinct` — deduplicate the result (sets always deduplicate;
    /// this matters only for the list-producing form).
    pub distinct: bool,
    /// `select the` — the result must contain exactly one element, which is
    /// returned bare (paper's Example 5: "select the A in Address …").
    pub the: bool,
    /// The projected expression.
    pub proj: Box<Expr>,
    /// `from` bindings: `var in collection` pairs, evaluated left to right
    /// (later collections may refer to earlier variables).
    pub bindings: Vec<(Symbol, Expr)>,
    /// Optional `where` filter.
    pub filter: Option<Box<Expr>>,
}

/// An expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// The receiver of a computed attribute.
    SelfRef,
    /// A name: a query variable, or — if no variable is in scope — a class
    /// name denoting that class's (deep) extent, or a named object.
    Name(Symbol),
    /// Attribute access / method call: `recv.Attr` or `recv.Attr(args…)`.
    /// The dot "combines both dereferencing … and field selection" (§2):
    /// the receiver may be an oid (the attribute is resolved on its class)
    /// or a tuple (plain field selection).
    Attr {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Attribute (or tuple-field) name.
        name: Symbol,
        /// Call arguments, empty for plain attribute access.
        args: Vec<Expr>,
    },
    /// Tuple construction: `[Name: e1, …]`.
    TupleCons(Vec<(Symbol, Expr)>),
    /// Set construction: `{e1, …}`.
    SetCons(Vec<Expr>),
    /// List construction: `list(e1, …)`.
    ListCons(Vec<Expr>),
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `if c then a else b` (expression-level conditional).
    If {
        /// Condition (truthy test).
        cond: Box<Expr>,
        /// Value when the condition holds.
        then: Box<Expr>,
        /// Value otherwise.
        els: Box<Expr>,
    },
    /// A nested query.
    Select(SelectExpr),
    /// `exists(select …)` — true iff the subquery is non-empty.
    Exists(SelectExpr),
    /// Aggregate over a collection-valued expression: `count(e)`, `sum(e)`…
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// The collection-valued argument.
        arg: Box<Expr>,
    },
    /// Runtime class-membership test: `e isa ClassName`. Used internally by
    /// the view layer and available in the surface syntax.
    IsA {
        /// The object-valued expression to test.
        expr: Box<Expr>,
        /// The class name to test membership in.
        class: Symbol,
    },
    /// Application of a named, parameterized collection: `Resident(X)`
    /// denotes an instance of the parameterized virtual class `Resident`
    /// (§4.1). Only views give this meaning; in a base database it is an
    /// error.
    Apply {
        /// The parameterized class's name.
        name: Symbol,
        /// Argument values.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Literal helper.
    pub fn lit(v: Value) -> Expr {
        Expr::Lit(v)
    }

    /// `name` helper.
    pub fn name(n: &str) -> Expr {
        Expr::Name(Symbol::new(n))
    }

    /// `recv.name` helper (no arguments).
    pub fn attr(recv: Expr, name: &str) -> Expr {
        Expr::Attr {
            recv: Box::new(recv),
            name: Symbol::new(name),
            args: Vec::new(),
        }
    }

    /// `self.name` helper.
    pub fn self_attr(name: &str) -> Expr {
        Expr::attr(Expr::SelfRef, name)
    }

    /// Binary-operation helper.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }
}

// ---------------------------------------------------------------------------
// Pretty printing. The output is valid surface syntax for the `ov-query`
// parser.
// ---------------------------------------------------------------------------

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0, false)
    }
}

/// Writes `items` separated by `", "`.
fn comma_separated<W: fmt::Write, T>(
    f: &mut W,
    items: &[T],
    mut item: impl FnMut(&mut W, &T) -> fmt::Result,
) -> fmt::Result {
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        item(f, it)?;
    }
    Ok(())
}

impl Expr {
    /// Writes the expression's *shape*: its [`Display`](fmt::Display) text
    /// with every literal printed as `?`. This is the text query
    /// fingerprints hash; writing it into a hashing sink fingerprints an
    /// expression without building a string or a copy of the tree.
    pub fn write_normalized<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        self.fmt_prec(out, 0, true)
    }

    /// The printer. `normalized` prints literals as `?`; it travels as an
    /// argument because nested selects re-enter the printer, where a
    /// formatter flag would be lost.
    fn fmt_prec<W: fmt::Write>(&self, f: &mut W, parent_prec: u8, normalized: bool) -> fmt::Result {
        let sub = |f: &mut W, e: &Expr| e.fmt_prec(f, 0, normalized);
        match self {
            Expr::Lit(_) if normalized => f.write_str("?"),
            Expr::Lit(v) => {
                // A negative numeric literal prints with a leading minus; in
                // tight positions (`-1.A`) that would reparse as unary
                // negation of a path, so parenthesize it.
                let negative = matches!(v, Value::Int(i) if *i < 0)
                    || matches!(v, Value::Float(x) if *x < 0.0 || x.is_sign_negative());
                if negative && parent_prec > 8 {
                    write!(f, "({v})")
                } else {
                    write!(f, "{v}")
                }
            }
            Expr::SelfRef => f.write_str("self"),
            Expr::Name(n) => f.write_str(n.as_str()),
            Expr::Attr { recv, name, args } => {
                recv.fmt_prec(f, 10, normalized)?;
                f.write_str(".")?;
                f.write_str(name.as_str())?;
                if !args.is_empty() {
                    f.write_str("(")?;
                    comma_separated(f, args, sub)?;
                    f.write_str(")")?;
                }
                Ok(())
            }
            Expr::TupleCons(fields) => {
                f.write_str("[")?;
                comma_separated(f, fields, |f, (n, e)| {
                    f.write_str(n.as_str())?;
                    f.write_str(": ")?;
                    sub(f, e)
                })?;
                f.write_str("]")
            }
            Expr::SetCons(es) => {
                f.write_str("{")?;
                comma_separated(f, es, sub)?;
                f.write_str("}")
            }
            Expr::ListCons(es) => {
                f.write_str("list(")?;
                comma_separated(f, es, sub)?;
                f.write_str(")")
            }
            Expr::Unary { op, expr } => {
                // Unary binds between the multiplicative level (7) and
                // postfix attribute access (10).
                let parens = parent_prec > 8;
                if parens {
                    f.write_str("(")?;
                }
                f.write_str(match op {
                    UnOp::Not => "not ",
                    UnOp::Neg => "-",
                })?;
                expr.fmt_prec(f, 9, normalized)?;
                if parens {
                    f.write_str(")")?;
                }
                Ok(())
            }
            Expr::Binary { op, lhs, rhs } => {
                let p = op.precedence();
                let parens = p < parent_prec;
                if parens {
                    f.write_str("(")?;
                }
                lhs.fmt_prec(f, p, normalized)?;
                f.write_str(" ")?;
                f.write_str(op.token())?;
                f.write_str(" ")?;
                // Left associative: the rhs needs strictly higher precedence.
                rhs.fmt_prec(f, p + 1, normalized)?;
                if parens {
                    f.write_str(")")?;
                }
                Ok(())
            }
            Expr::If { cond, then, els } => {
                let parens = parent_prec > 0;
                if parens {
                    f.write_str("(")?;
                }
                f.write_str("if ")?;
                sub(f, cond)?;
                f.write_str(" then ")?;
                sub(f, then)?;
                f.write_str(" else ")?;
                sub(f, els)?;
                if parens {
                    f.write_str(")")?;
                }
                Ok(())
            }
            Expr::Select(s) => {
                f.write_str("(")?;
                s.fmt_with(f, normalized)?;
                f.write_str(")")
            }
            Expr::Exists(s) => {
                f.write_str("exists(")?;
                s.fmt_with(f, normalized)?;
                f.write_str(")")
            }
            Expr::Aggregate { func, arg } => {
                f.write_str(func.name())?;
                f.write_str("(")?;
                sub(f, arg)?;
                f.write_str(")")
            }
            Expr::Apply { name, args } => {
                f.write_str(name.as_str())?;
                f.write_str("(")?;
                comma_separated(f, args, sub)?;
                f.write_str(")")
            }
            Expr::IsA { expr, class } => {
                let parens = parent_prec > 3;
                if parens {
                    f.write_str("(")?;
                }
                expr.fmt_prec(f, 4, normalized)?;
                f.write_str(" isa ")?;
                f.write_str(class.as_str())?;
                if parens {
                    f.write_str(")")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for SelectExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with(f, false)
    }
}

impl SelectExpr {
    fn fmt_with<W: fmt::Write>(&self, f: &mut W, normalized: bool) -> fmt::Result {
        f.write_str("select ")?;
        if self.the {
            f.write_str("the ")?;
        }
        if self.distinct {
            f.write_str("distinct ")?;
        }
        // The projection position parses at the precedence just above `in`
        // (so the binding keyword is unambiguous); print accordingly.
        self.proj.fmt_prec(f, 4, normalized)?;
        f.write_str(" from ")?;
        comma_separated(f, &self.bindings, |f, (var, coll)| {
            f.write_str(var.as_str())?;
            f.write_str(" in ")?;
            coll.fmt_prec(f, 4, normalized)
        })?;
        if let Some(w) = &self.filter {
            f.write_str(" where ")?;
            w.fmt_prec(f, 0, normalized)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    fn adult_query() -> SelectExpr {
        SelectExpr {
            distinct: false,
            the: false,
            proj: Box::new(Expr::name("P")),
            bindings: vec![(sym("P"), Expr::name("Person"))],
            filter: Some(Box::new(Expr::bin(
                BinOp::Ge,
                Expr::attr(Expr::name("P"), "Age"),
                Expr::lit(Value::Int(21)),
            ))),
        }
    }

    #[test]
    fn displays_paper_example_query() {
        assert_eq!(
            adult_query().to_string(),
            "select P from P in Person where P.Age >= 21"
        );
    }

    #[test]
    fn displays_tuple_construction() {
        // Paper Example 1: merging City/Street/Zip_Code into Address.
        let e = Expr::TupleCons(vec![
            (sym("City"), Expr::self_attr("City")),
            (sym("Street"), Expr::self_attr("Street")),
        ]);
        assert_eq!(e.to_string(), "[City: self.City, Street: self.Street]");
    }

    #[test]
    fn precedence_parenthesizes_only_when_needed() {
        // (a + b) * c needs parens; a + b * c does not.
        let a = || Expr::name("a");
        let b = || Expr::name("b");
        let c = || Expr::name("c");
        let sum_first = Expr::bin(BinOp::Mul, Expr::bin(BinOp::Add, a(), b()), c());
        assert_eq!(sum_first.to_string(), "(a + b) * c");
        let mul_first = Expr::bin(BinOp::Add, a(), Expr::bin(BinOp::Mul, b(), c()));
        assert_eq!(mul_first.to_string(), "a + b * c");
    }

    #[test]
    fn left_associativity_prints_minimally() {
        let e = Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Sub, Expr::name("a"), Expr::name("b")),
            Expr::name("c"),
        );
        assert_eq!(e.to_string(), "a - b - c");
        let e2 = Expr::bin(
            BinOp::Sub,
            Expr::name("a"),
            Expr::bin(BinOp::Sub, Expr::name("b"), Expr::name("c")),
        );
        assert_eq!(e2.to_string(), "a - (b - c)");
    }

    #[test]
    fn select_the_displays() {
        let q = SelectExpr {
            distinct: false,
            the: true,
            proj: Box::new(Expr::name("A")),
            bindings: vec![(sym("A"), Expr::name("Address"))],
            filter: None,
        };
        assert_eq!(q.to_string(), "select the A from A in Address");
    }
}
