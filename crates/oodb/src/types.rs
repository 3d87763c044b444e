//! The type lattice: subtyping, least upper bounds, greatest lower bounds.
//!
//! Types in the paper's model combine **nominal** class types (ordered by the
//! class hierarchy) with **structural** tuple/set/list types (ordered by
//! width-and-depth subtyping). Three view-mechanism features are defined in
//! terms of this lattice:
//!
//! * *behavioral generalization* (§4.1): `like B` groups "all classes whose
//!   type is at least as specific as the type of B" — a structural
//!   subtype test;
//! * *upward inheritance* (§4.3): a virtual class acquires attribute `A`
//!   when the types of `A` across its contributors "have a least upper
//!   bound τ";
//! * *hierarchy inference* (§4.2): superclass relationships are derived with
//!   "standard type inference techniques".
//!
//! Subtype checks and bound computations are parameterized by a
//! [`ClassGraph`] so the same code runs against a base [`crate::Schema`] or
//! against a view's overlay hierarchy.

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::ClassId;
use crate::symbol::Symbol;

/// Access to a class hierarchy: which classes are above which.
///
/// [`crate::Schema`] answers from the ancestor list it keeps per class;
/// [`crate::Database`] and every query source (`ov_query::DataSource`
/// extends this trait; a view answers from its own schema) forward to a
/// schema. The two provided methods are the hierarchy's set operations,
/// the one place the minimal classes of a set and the ancestors of several
/// roots are computed.
pub trait ClassGraph {
    /// Is `sub` equal to, or a (transitive) subclass of, `sup`?
    fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool;

    /// `c`, then its strict ancestors breadth-first by its parents' order.
    fn ancestors(&self, c: ClassId) -> Vec<ClassId>;

    /// Resolves a class id to its name (for display).
    fn class_name(&self, c: ClassId) -> Symbol;

    /// The members of `set` that are no strict ancestor of another member,
    /// in `set`'s order: the most specific classes of the set. Linear in
    /// the members' ancestor lists.
    fn minimal(&self, set: &[ClassId]) -> Vec<ClassId> {
        let mut above: Vec<ClassId> = set
            .iter()
            .flat_map(|&c| self.ancestors(c).into_iter().skip(1))
            .collect();
        above.sort_unstable();
        above.dedup();
        set.iter()
            .copied()
            .filter(|c| above.binary_search(c).is_err())
            .collect()
    }

    /// `roots` and all their ancestors, in ascending id order.
    fn ancestors_of(&self, roots: &[ClassId]) -> Vec<ClassId> {
        let mut out: Vec<ClassId> = roots.iter().flat_map(|&r| self.ancestors(r)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A database type.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Type {
    /// Top: every value has this type.
    Any,
    /// Bottom: the type of `null` and of elements of the empty set; subtype
    /// of everything.
    Nothing,
    /// Booleans.
    Bool,
    /// 64-bit integers (`integer`); subtype of `Float`.
    Int,
    /// 64-bit floats (`float`).
    Float,
    /// Strings (`string`).
    Str,
    /// A nominal class type; its values are oids of objects (virtually)
    /// belonging to the class.
    Class(ClassId),
    /// A structural tuple type. Width subtyping: a tuple type with *more*
    /// fields is a subtype ("Such a class may have more attributes than B,
    /// but not fewer" — §4.1).
    Tuple(BTreeMap<Symbol, Type>),
    /// A set type `{T}` (covariant).
    Set(Box<Type>),
    /// A list type `list(T)` (covariant).
    List(Box<Type>),
}

impl Type {
    /// Builds a tuple type from `(name, type)` pairs.
    pub fn tuple<N: Into<Symbol>>(fields: impl IntoIterator<Item = (N, Type)>) -> Type {
        Type::Tuple(fields.into_iter().map(|(n, t)| (n.into(), t)).collect())
    }

    /// Builds a set type.
    pub fn set(elem: Type) -> Type {
        Type::Set(Box::new(elem))
    }

    /// Builds a list type.
    pub fn list(elem: Type) -> Type {
        Type::List(Box::new(elem))
    }

    /// Is `self` a subtype of `other` under hierarchy `g`?
    ///
    /// Reflexive and transitive. `Int <: Float` (numeric widening,
    /// DECISION: the paper is silent; O₂ allowed it).
    pub fn is_subtype(&self, other: &Type, g: &dyn ClassGraph) -> bool {
        use Type::*;
        match (self, other) {
            (Nothing, _) => true,
            (_, Any) => true,
            (Any, _) => false,
            (_, Nothing) => false,
            (Bool, Bool) | (Int, Int) | (Float, Float) | (Str, Str) => true,
            (Int, Float) => true,
            (Class(a), Class(b)) => g.is_subclass(*a, *b),
            (Tuple(a), Tuple(b)) => b
                .iter()
                .all(|(name, bt)| a.get(name).is_some_and(|at| at.is_subtype(bt, g))),
            (Set(a), Set(b)) => a.is_subtype(b, g),
            (List(a), List(b)) => a.is_subtype(b, g),
            _ => false,
        }
    }

    /// Least upper bound of two types, if a *unique least* one exists.
    ///
    /// Returns `None` only when the class-level bound is ambiguous (several
    /// incomparable minimal common superclasses under multiple inheritance);
    /// the paper's upward inheritance then leaves the attribute undefined.
    /// For types of different kinds the bound is `Any`, which is genuinely
    /// least because no smaller common supertype exists.
    pub fn lub(&self, other: &Type, g: &dyn ClassGraph) -> Option<Type> {
        use Type::*;
        if self == other {
            return Some(self.clone());
        }
        match (self, other) {
            (Nothing, t) | (t, Nothing) => Some(t.clone()),
            (Any, _) | (_, Any) => Some(Any),
            (Int, Float) | (Float, Int) => Some(Float),
            (Class(a), Class(b)) => match minimal_common_superclasses(*a, *b, g).as_slice() {
                [one] => Some(Class(*one)),
                [] => Some(Any),
                _ => None, // ambiguous: several incomparable bounds
            },
            (Tuple(a), Tuple(b)) => {
                // Width subtyping makes the lub the *intersection* of fields,
                // each at the lub of the two field types. A field whose types
                // have no unique bound is dropped (it is not common).
                let mut out = BTreeMap::new();
                for (name, at) in a {
                    if let Some(bt) = b.get(name) {
                        if let Some(t) = at.lub(bt, g) {
                            out.insert(*name, t);
                        } else {
                            return None;
                        }
                    }
                }
                Some(Tuple(out))
            }
            (Set(a), Set(b)) => Some(Set(Box::new(a.lub(b, g)?))),
            (List(a), List(b)) => Some(List(Box::new(a.lub(b, g)?))),
            _ => Some(Any),
        }
    }

    /// Greatest lower bound of two types, if one exists. Used when a query
    /// constrains a variable to lie in two classes at once (the paper's
    /// `Rich&Beautiful`).
    pub fn glb(&self, other: &Type, g: &dyn ClassGraph) -> Option<Type> {
        use Type::*;
        if self == other {
            return Some(self.clone());
        }
        match (self, other) {
            (Any, t) | (t, Any) => Some(t.clone()),
            (Nothing, _) | (_, Nothing) => Some(Nothing),
            (Int, Float) | (Float, Int) => Some(Int),
            (Class(a), Class(b)) => {
                if g.is_subclass(*a, *b) {
                    Some(Class(*a))
                } else if g.is_subclass(*b, *a) {
                    Some(Class(*b))
                } else {
                    // No common subclass is derivable in an open hierarchy;
                    // the intersection may still be non-empty at runtime, but
                    // as a *type* the glb is Nothing-or-unknown. DECISION:
                    // report no glb, callers fall back to runtime checks.
                    None
                }
            }
            (Tuple(a), Tuple(b)) => {
                // Union of fields; shared fields at the glb of their types.
                let mut out = a.clone();
                for (name, bt) in b {
                    match out.get(name) {
                        None => {
                            out.insert(*name, bt.clone());
                        }
                        Some(at) => {
                            let t = at.glb(bt, g)?;
                            out.insert(*name, t);
                        }
                    }
                }
                Some(Tuple(out))
            }
            (Set(a), Set(b)) => Some(Set(Box::new(a.glb(b, g)?))),
            (List(a), List(b)) => Some(List(Box::new(a.glb(b, g)?))),
            _ => None,
        }
    }

    /// Pretty form using class names from `g`.
    pub fn display<'a>(&'a self, g: &'a dyn ClassGraph) -> TypeDisplay<'a> {
        TypeDisplay { ty: self, g }
    }
}

/// The set of minimal elements (w.r.t. the subclass order) among the common
/// superclasses of `a` and `b`.
fn minimal_common_superclasses(a: ClassId, b: ClassId, g: &dyn ClassGraph) -> Vec<ClassId> {
    let common: Vec<ClassId> = g
        .ancestors(a)
        .into_iter()
        .filter(|&s| g.is_subclass(b, s))
        .collect();
    let mut minimal = g.minimal(&common);
    minimal.sort_unstable();
    minimal
}

/// Helper for rendering a type with class names resolved.
pub struct TypeDisplay<'a> {
    ty: &'a Type,
    g: &'a dyn ClassGraph,
}

impl fmt::Display for TypeDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_type(self.ty, Some(self.g), f)
    }
}

fn fmt_type(ty: &Type, g: Option<&dyn ClassGraph>, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match ty {
        Type::Any => write!(f, "any"),
        Type::Nothing => write!(f, "nothing"),
        Type::Bool => write!(f, "boolean"),
        Type::Int => write!(f, "integer"),
        Type::Float => write!(f, "float"),
        Type::Str => write!(f, "string"),
        Type::Class(c) => match g {
            Some(g) => write!(f, "{}", g.class_name(*c)),
            None => write!(f, "{c:?}"),
        },
        Type::Tuple(fields) => {
            write!(f, "[")?;
            for (i, (name, t)) in fields.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{name}: ")?;
                fmt_type(t, g, f)?;
            }
            write!(f, "]")
        }
        Type::Set(t) => {
            write!(f, "{{")?;
            fmt_type(t, g, f)?;
            write!(f, "}}")
        }
        Type::List(t) => {
            write!(f, "list(")?;
            fmt_type(t, g, f)?;
            write!(f, ")")
        }
    }
}

impl fmt::Debug for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_type(self, None, f)
    }
}

/// An empty class graph, for purely structural settings (no classes).
pub struct NoClasses;

impl ClassGraph for NoClasses {
    fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        sub == sup
    }
    fn ancestors(&self, c: ClassId) -> Vec<ClassId> {
        vec![c]
    }
    fn class_name(&self, _c: ClassId) -> Symbol {
        Symbol::new("?")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms_subtype_reflexively() {
        let g = NoClasses;
        for t in [Type::Bool, Type::Int, Type::Float, Type::Str] {
            assert!(t.is_subtype(&t, &g));
        }
        assert!(Type::Int.is_subtype(&Type::Float, &g));
        assert!(!Type::Float.is_subtype(&Type::Int, &g));
        assert!(!Type::Str.is_subtype(&Type::Int, &g));
    }

    #[test]
    fn nothing_and_any_bound_the_lattice() {
        let g = NoClasses;
        for t in [Type::Bool, Type::Str, Type::set(Type::Int)] {
            assert!(Type::Nothing.is_subtype(&t, &g));
            assert!(t.is_subtype(&Type::Any, &g));
            assert!(!t.is_subtype(&Type::Nothing, &g));
            assert!(!Type::Any.is_subtype(&t, &g));
        }
    }

    #[test]
    fn tuple_width_subtyping() {
        // "Such a class may have more attributes than B, but not fewer."
        let g = NoClasses;
        let spec = Type::tuple([("Price", Type::Float), ("Discount", Type::Int)]);
        let car = Type::tuple([
            ("Price", Type::Float),
            ("Discount", Type::Int),
            ("Brand", Type::Str),
        ]);
        let cheap = Type::tuple([("Price", Type::Float)]);
        assert!(car.is_subtype(&spec, &g));
        assert!(!cheap.is_subtype(&spec, &g));
        assert!(!spec.is_subtype(&car, &g));
    }

    #[test]
    fn tuple_depth_subtyping() {
        let g = NoClasses;
        let a = Type::tuple([("x", Type::Int)]);
        let b = Type::tuple([("x", Type::Float)]);
        assert!(a.is_subtype(&b, &g));
        assert!(!b.is_subtype(&a, &g));
    }

    #[test]
    fn set_and_list_are_covariant() {
        let g = NoClasses;
        assert!(Type::set(Type::Int).is_subtype(&Type::set(Type::Float), &g));
        assert!(Type::list(Type::Nothing).is_subtype(&Type::list(Type::Str), &g));
        assert!(!Type::set(Type::Int).is_subtype(&Type::list(Type::Int), &g));
    }

    #[test]
    fn lub_of_tuples_intersects_fields() {
        let g = NoClasses;
        let a = Type::tuple([("x", Type::Int), ("y", Type::Str)]);
        let b = Type::tuple([("x", Type::Float), ("z", Type::Bool)]);
        let lub = a.lub(&b, &g).unwrap();
        assert_eq!(lub, Type::tuple([("x", Type::Float)]));
    }

    #[test]
    fn glb_of_tuples_unions_fields() {
        let g = NoClasses;
        let a = Type::tuple([("x", Type::Int)]);
        let b = Type::tuple([("y", Type::Str)]);
        let glb = a.glb(&b, &g).unwrap();
        assert_eq!(glb, Type::tuple([("x", Type::Int), ("y", Type::Str)]));
    }

    #[test]
    fn lub_is_an_upper_bound() {
        let g = NoClasses;
        let pairs = [
            (Type::Int, Type::Float),
            (Type::Int, Type::Str),
            (Type::set(Type::Int), Type::set(Type::Float)),
            (
                Type::tuple([("a", Type::Int)]),
                Type::tuple([("a", Type::Int), ("b", Type::Str)]),
            ),
        ];
        for (a, b) in pairs {
            let l = a.lub(&b, &g).unwrap();
            assert!(a.is_subtype(&l, &g), "{a:?} </: lub {l:?}");
            assert!(b.is_subtype(&l, &g), "{b:?} </: lub {l:?}");
        }
    }

    #[test]
    fn mixed_kind_lub_is_any() {
        let g = NoClasses;
        assert_eq!(Type::Str.lub(&Type::Int, &g), Some(Type::Any));
        assert_eq!(Type::set(Type::Int).lub(&Type::Bool, &g), Some(Type::Any));
    }

    #[test]
    fn display_renders_structural_types() {
        let t = Type::set(Type::tuple([("City", Type::Str)]));
        assert_eq!(format!("{t:?}"), "{[City: string]}");
    }
}
