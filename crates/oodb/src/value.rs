//! Runtime values.
//!
//! The O₂ model of the paper assumes that "the value of an object is a tuple"
//! (§2) and that attribute values range over atoms, tuples, sets, lists and
//! object identifiers. The paper's §5.1 identity semantics for imaginary
//! objects requires a *function mapping tuples to oids* — i.e. tuples must be
//! usable as map keys — so [`Value`] implements a **total** `Eq`/`Ord`/`Hash`,
//! including for floats (via `f64::total_cmp` / bit hashing, which are
//! mutually coherent).

use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::ids::Oid;
use crate::symbol::Symbol;

/// A tuple value: a finite map from attribute names to values.
///
/// The fields sit in one vector sorted by (string-ordered) name, so
/// iteration order, display, equality, ordering and hashing are those of the
/// name-ordered field list and all deterministic — which is what makes
/// tuples usable as keys in the imaginary-object identity tables. A lookup
/// matches the symbol's intern id: no strings are compared.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tuple(Vec<(Symbol, Value)>);

/// Tuples wider than this are binary-searched by name instead of scanned.
const SCAN_MAX: usize = 16;

impl Tuple {
    /// The empty tuple.
    pub fn new() -> Tuple {
        Tuple(Vec::new())
    }

    /// Builds a tuple from `(name, value)` pairs; of two pairs with one
    /// name the later wins.
    pub fn from_fields<N: Into<Symbol>>(fields: impl IntoIterator<Item = (N, Value)>) -> Tuple {
        let mut fields: Vec<(Symbol, Value)> =
            fields.into_iter().map(|(n, v)| (n.into(), v)).collect();
        // Stable, so equal names stay in arrival order.
        fields.sort_by_key(|field| field.0);
        fields.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        Tuple(fields)
    }

    /// Wraps fields already in strictly ascending name order: what
    /// [`Tuple::from_fields`] builds from them, without its sort. The
    /// caller checked the order (the snapshot decoder, once per shape).
    pub(crate) fn from_sorted_fields(fields: Vec<(Symbol, Value)>) -> Tuple {
        debug_assert!(fields.windows(2).all(|w| w[0].0 < w[1].0));
        Tuple(fields)
    }

    /// Position of field `name`.
    fn find(&self, name: Symbol) -> Option<usize> {
        if self.0.len() <= SCAN_MAX {
            self.0.iter().position(|(n, _)| *n == name)
        } else {
            self.0.binary_search_by(|(n, _)| n.cmp(&name)).ok()
        }
    }

    /// The value of field `name`, if present.
    pub fn get(&self, name: Symbol) -> Option<&Value> {
        self.find(name).map(|i| &self.0[i].1)
    }

    /// Sets field `name` to `value`, returning the previous value if any.
    pub fn set(&mut self, name: Symbol, value: Value) -> Option<Value> {
        match self.find(name) {
            Some(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            None => {
                let at = self.0.partition_point(|(n, _)| *n < name);
                self.0.insert(at, (name, value));
                None
            }
        }
    }

    /// Removes field `name`, returning its value if it was present.
    pub fn remove(&mut self, name: Symbol) -> Option<Value> {
        self.find(name).map(|i| self.0.remove(i).1)
    }

    /// Does the tuple have a field called `name`?
    pub fn has(&self, name: Symbol) -> bool {
        self.find(name).is_some()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is this the empty tuple?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates fields in name order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Value)> {
        self.0.iter().map(|(k, v)| (*k, v))
    }

    /// A new tuple containing only the fields in `names` (missing names are
    /// silently dropped). Used by the view layer to project core attributes.
    pub fn project(&self, names: impl IntoIterator<Item = Symbol>) -> Tuple {
        Tuple::from_fields(
            names
                .into_iter()
                .filter_map(|n| self.get(n).map(|v| (n, v.clone()))),
        )
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {:?}", k, v)?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A runtime value.
#[derive(Clone)]
pub enum Value {
    /// The absence of a value; member of every type.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// Floats carry a total order (`f64::total_cmp`), so `Value` is `Ord`.
    Float(f64),
    /// An immutable string (cheaply clonable).
    Str(Arc<str>),
    /// A reference to an object (base or imaginary).
    Oid(Oid),
    /// A tuple of named fields.
    Tuple(Tuple),
    /// A set (deduplicated by [`Value`]'s total order).
    Set(BTreeSet<Value>),
    /// An ordered list.
    List(Vec<Value>),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// Convenience constructor for tuple values from `(name, value)` pairs.
    pub fn tuple<N: Into<Symbol>>(fields: impl IntoIterator<Item = (N, Value)>) -> Value {
        Value::Tuple(Tuple::from_fields(fields))
    }

    /// The empty tuple value.
    pub fn empty_tuple() -> Value {
        Value::Tuple(Tuple::new())
    }

    /// Convenience constructor for set values.
    pub fn set(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Set(items.into_iter().collect())
    }

    /// Convenience constructor for list values.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        Value::List(items.into_iter().collect())
    }

    /// A short name for the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Oid(_) => "oid",
            Value::Tuple(_) => "tuple",
            Value::Set(_) => "set",
            Value::List(_) => "list",
        }
    }

    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric coercion: ints widen to floats.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object reference, if this is an `Oid`.
    pub fn as_oid(&self) -> Option<Oid> {
        match self {
            Value::Oid(o) => Some(*o),
            _ => None,
        }
    }

    /// The tuple payload, if this is a `Tuple`.
    pub fn as_tuple(&self) -> Option<&Tuple> {
        match self {
            Value::Tuple(t) => Some(t),
            _ => None,
        }
    }

    /// The set payload, if this is a `Set`.
    pub fn as_set(&self) -> Option<&BTreeSet<Value>> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// Is this value null?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Iterates the elements of a set or list; `None` for other kinds.
    pub fn elements(&self) -> Option<Box<dyn Iterator<Item = &Value> + '_>> {
        match self {
            Value::Set(s) => Some(Box::new(s.iter())),
            Value::List(l) => Some(Box::new(l.iter())),
            _ => None,
        }
    }

    /// All oids reachable in this value (shallow traversal of the value
    /// structure, no dereferencing). Used for referential-integrity checks.
    pub fn collect_oids(&self, out: &mut Vec<Oid>) {
        match self {
            Value::Oid(o) => out.push(*o),
            Value::Tuple(t) => {
                for (_, v) in t.iter() {
                    v.collect_oids(out);
                }
            }
            Value::Set(s) => {
                for v in s {
                    v.collect_oids(out);
                }
            }
            Value::List(l) => {
                for v in l {
                    v.collect_oids(out);
                }
            }
            _ => {}
        }
    }

    /// Rank used to order values of different kinds; gives `Value` a total
    /// order across kinds (null < bool < numbers < string < oid < tuple <
    /// set < list).
    fn kind_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Oid(_) => 4,
            Value::Tuple(_) => 5,
            Value::Set(_) => 6,
            Value::List(_) => 7,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            // Numbers form one ordered kind: compare through f64's total
            // order. An i64 survives the f64 round-trip only approximately
            // above 2^53; for schema-level data that is acceptable, and
            // equal ints still compare equal because the mapping is
            // deterministic.
            (Int(a), Float(b)) => (*a as f64).total_cmp(b).then(Ordering::Less),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)).then(Ordering::Greater),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Oid(a), Oid(b)) => a.cmp(b),
            (Tuple(a), Tuple(b)) => a.cmp(b),
            (Set(a), Set(b)) => a.cmp(b),
            (List(a), List(b)) => a.cmp(b),
            _ => self.kind_rank().cmp(&other.kind_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must agree with Eq: Int(2) == Float(2.0) is *false* (they differ by
        // the Int-before-Float tiebreak), so hashing ints and floats
        // differently is fine; each kind hashes its own discriminant.
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Oid(o) => o.hash(state),
            Value::Tuple(t) => t.hash(state),
            Value::Set(s) => s.hash(state),
            Value::List(l) => l.hash(state),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Oid(o) => write!(f, "{o}"),
            Value::Tuple(t) => write!(f, "{t:?}"),
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, "}}")
            }
            Value::List(l) => {
                write!(f, "list(")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    #[test]
    fn tuple_fields_are_name_ordered() {
        let t = Tuple::from_fields([("Zip", Value::str("75001")), ("City", Value::str("Paris"))]);
        let names: Vec<_> = t.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["City", "Zip"]);
    }

    #[test]
    fn tuple_equality_ignores_insertion_order() {
        let a = Tuple::from_fields([("A", Value::Int(1)), ("B", Value::Int(2))]);
        let b = Tuple::from_fields([("B", Value::Int(2)), ("A", Value::Int(1))]);
        assert_eq!(a, b);
    }

    #[test]
    fn project_keeps_only_requested_fields() {
        let t = Tuple::from_fields([
            ("City", Value::str("Paris")),
            ("Street", Value::str("Rivoli")),
            ("Zip", Value::str("75001")),
        ]);
        let p = t.project([sym("City"), sym("Zip"), sym("Missing")]);
        assert_eq!(p.len(), 2);
        assert!(p.has(sym("City")) && p.has(sym("Zip")));
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        assert_eq!(nan.cmp(&nan), std::cmp::Ordering::Equal);
        assert_ne!(nan.cmp(&one), std::cmp::Ordering::Equal);
    }

    #[test]
    fn cross_kind_ordering_is_total_and_antisymmetric() {
        let vals = vec![
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::Float(0.5),
            Value::str("a"),
            Value::Oid(Oid(1)),
            Value::tuple([("x", Value::Int(1))]),
            Value::set([Value::Int(1)]),
            Value::list([Value::Int(1)]),
        ];
        for a in &vals {
            for b in &vals {
                assert_eq!(a.cmp(b), b.cmp(a).reverse());
            }
        }
    }

    #[test]
    fn int_float_interleave_consistently() {
        // 1 < 1.5 < 2 and Int(2) vs Float(2.0) is deterministic (Int first).
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(1.5) < Value::Int(2));
        assert!(Value::Int(2) < Value::Float(2.0));
        assert_ne!(Value::Int(2), Value::Float(2.0));
    }

    #[test]
    fn sets_deduplicate() {
        let s = Value::set([Value::Int(1), Value::Int(1), Value::Int(2)]);
        assert_eq!(s.as_set().unwrap().len(), 2);
    }

    #[test]
    fn collect_oids_traverses_nested_structure() {
        let v = Value::tuple([
            ("a", Value::Oid(Oid(1))),
            (
                "b",
                Value::set([Value::Oid(Oid(2)), Value::list([Value::Oid(Oid(3))])]),
            ),
        ]);
        let mut oids = Vec::new();
        v.collect_oids(&mut oids);
        oids.sort();
        assert_eq!(oids, vec![Oid(1), Oid(2), Oid(3)]);
    }

    #[test]
    fn display_is_readable() {
        let v = Value::tuple([("Name", Value::str("Maggy")), ("Age", Value::Int(65))]);
        assert_eq!(v.to_string(), r#"[Age: 65, Name: "Maggy"]"#);
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
    }

    #[test]
    fn hash_agrees_with_eq_for_tuples() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        let a = Tuple::from_fields([("H", Value::Oid(Oid(10))), ("W", Value::Oid(Oid(11)))]);
        let b = Tuple::from_fields([("W", Value::Oid(Oid(11))), ("H", Value::Oid(Oid(10)))]);
        m.insert(a, 42);
        assert_eq!(m.get(&b), Some(&42));
    }
}
