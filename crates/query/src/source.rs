//! The `DataSource` abstraction.
//!
//! The paper's first design principle: "A view should be treated as a
//! database" (§6). Operationally that means the *same* evaluator and type
//! checker must run against a base [`Database`] and against a view. This
//! trait is the seam: it exposes exactly the primitives the language layer
//! needs — class lookup, extents, membership, attribute resolution, stored
//! field access — and both `ov_oodb::Database` and `ov_views::View`
//! implement it. The hierarchy is not among them: it is the supertrait
//! [`ClassGraph`], which a database's schema and a view's answer from the
//! ancestor lists they keep.

use std::sync::Arc;

use ov_oodb::resolve::{concrete, resolve_in};
use ov_oodb::{
    AttrBody, AttrDef, AttrSig, ClassGraph, ClassId, ConflictPolicy, Database, Expr, Oid,
    OodbError, Symbol, Type, Value,
};

use crate::error::{QueryError, Result};

/// How an attribute, once resolved for a given object, is to be obtained.
#[derive(Clone, Debug, PartialEq)]
pub enum ResolvedAttr {
    /// Read the object's stored tuple field of the same name.
    Stored,
    /// Evaluate `body` with `self` bound to the object and `params` bound to
    /// the call arguments.
    Computed {
        /// Parameter names to bind, in order.
        params: Vec<Symbol>,
        /// The body expression, shared with the definition it came from.
        body: Arc<Expr>,
    },
}

impl From<&AttrDef> for ResolvedAttr {
    /// How to obtain a definition evaluation resolved to. Evaluation's
    /// filter ([`concrete`]) never lets an abstract signature through.
    fn from(def: &AttrDef) -> ResolvedAttr {
        match &def.body {
            AttrBody::Stored => ResolvedAttr::Stored,
            AttrBody::Computed(body) => ResolvedAttr::Computed {
                params: def.sig.params.iter().map(|(p, _)| *p).collect(),
                body: body.clone(),
            },
            AttrBody::Abstract => unreachable!("evaluation skips abstract signatures"),
        }
    }
}

/// A queryable source of objects: a database or a view.
///
/// Extents are *deep* (a class denotes objects real in it or any subclass),
/// matching the paper's query semantics. A source is a [`ClassGraph`]:
/// its hierarchy (names, subclassing, ancestors) is the one the type
/// lattice reads, so a `&dyn DataSource` is passed where a
/// `&dyn ClassGraph` is asked for.
pub trait DataSource: ClassGraph {
    /// Resolves a class name.
    fn class_by_name(&self, name: Symbol) -> Option<ClassId>;

    /// The class an object belongs to, for typing purposes: its real class
    /// in a database; in a view, the class the view presents it under.
    fn class_of(&self, oid: Oid) -> Result<ClassId>;

    /// The deep extent of `class`, in oid order.
    fn extent(&self, class: ClassId) -> Result<Vec<Oid>>;

    /// Is `oid` a (possibly virtual, possibly view-derived) member of
    /// `class`?
    fn is_member(&self, oid: Oid, class: ClassId) -> Result<bool>;

    /// Resolves attribute `name` for the specific object `oid` (using its
    /// real class, the hierarchy, and — in views — virtual class
    /// memberships and hiding).
    fn resolve(&self, oid: Oid, name: Symbol) -> Result<ResolvedAttr>;

    /// Reads stored field `name` of `oid`'s value (after [`DataSource::resolve`]
    /// said it is stored).
    fn stored_field(&self, oid: Oid, name: Symbol) -> Result<Value>;

    /// A named root object, if bound.
    fn named_object(&self, name: Symbol) -> Option<Oid>;

    /// Does `oid` denote a live object?
    fn object_exists(&self, oid: Oid) -> bool;

    // --- schema-level information, used by static type inference ------

    /// The signature of attribute `name` as seen from class `c`, if any
    /// (conflicts resolved by the source's policy).
    fn attr_sig(&self, c: ClassId, name: Symbol) -> Option<AttrSig>;

    /// The structural type of class `c` (visible zero-parameter attributes).
    fn class_type(&self, c: ClassId) -> Type;

    /// Evaluates `Name(args)` — an instance of a parameterized virtual class
    /// (§4.1). Only views implement this; the default is an error.
    fn apply(&self, name: Symbol, _args: &[Value]) -> Result<Value> {
        Err(QueryError::eval(format!(
            "`{name}(…)` is not a parameterized class here"
        )))
    }

    /// Static type of `Name(args)`; see [`DataSource::apply`].
    fn apply_type(&self, name: Symbol, _args: &[Type]) -> Result<Type> {
        Err(QueryError::ty(format!(
            "`{name}(…)` is not a parameterized class here"
        )))
    }

    // --- the per-class verdict ------------------------------------------

    /// The resolution of attribute `name` that every object presenting as
    /// `class` (the key [`DataSource::resolution_class_and_field`] returns)
    /// gets, when that resolution depends on the class alone while the
    /// source's resolution state (schema, populations in flight, body
    /// depth) is held fixed. `None` when it does not — a view where some
    /// virtual class specializes `name` decides per object, by membership —
    /// or when resolving fails: [`DataSource::resolve`] then decides per
    /// object and raises the error. A compiled scan asks once per (slot,
    /// class); a view's own `resolve` asks it first. Defaults to `None`.
    fn class_verdict(&self, _class: ClassId, _name: Symbol) -> Option<ResolvedAttr> {
        None
    }

    /// One object lookup serving both halves of a compiled attribute
    /// access: a cheap per-object class key under which
    /// [`DataSource::resolve`] results may be cached for the duration of
    /// one scan — for a database the object's stored class; for a view, the
    /// raw class the view maps the object to *before* any
    /// membership-dependent adjustment — together with the raw stored field
    /// `name` of its value (`Null` when the field is absent — exactly what
    /// [`DataSource::stored_field`] would return). `None` when the object
    /// is unknown or the source provides no such key (the default: caching
    /// stays off); the scan then falls back to the uncached resolve path,
    /// which reproduces the interpreter's error byte for byte. The value
    /// half is meaningful only if resolution later says the attribute is
    /// stored; callers discard it otherwise.
    fn resolution_class_and_field(&self, _oid: Oid, _name: Symbol) -> Option<(ClassId, Value)> {
        None
    }

    /// A counter the source bumps whenever resolution state can change —
    /// for a view: instantiating a template, which grows its schema.
    /// Compiled scans capture the generation when created and drop their
    /// per-(slot, class) caches when it moves, and a view keeps its own
    /// verdicts for one generation, so a verdict computed under one schema
    /// is never served under another. Sources whose resolution state cannot
    /// change under a shared reference (a base `Database` behind `&self`)
    /// keep the default constant `0`; a view's starts at its token shifted
    /// 32 bits up, so no two sources share one, nor the plans it stamps.
    fn resolution_generation(&self) -> u64 {
        0
    }

    /// The oids whose stored attribute `attr` equals `value`, within the
    /// deep extent of `class`, served from an equality index, in oid
    /// order. The contract is **exactness**: a source answers `Some` only
    /// when [`DataSource::resolve`] yields [`ResolvedAttr::Stored`] for
    /// `attr` on every object of that deep extent — the stored/computed
    /// distinction is erased for queries (§2: "the same attribute may be
    /// stored in one class and computed in a subclass") but an index
    /// covers stored values only — and every class contributing objects
    /// has the index. Then the answer is exactly the objects a sequential
    /// scan would keep on the conjunct `V.attr = value`. Anything else —
    /// no index, a computed override somewhere in the subtree, a hidden
    /// attribute, a class whose members the source computes — is `None`,
    /// and the planner demotes the pushdown plan to a sequential scan
    /// (which also raises whatever error the attribute access raises).
    /// The guard is evaluated per call, so DDL after a plan was cached
    /// cannot make the cached plan unsound. Callers still re-test
    /// candidates against the full filter.
    fn indexed_lookup(&self, _class: ClassId, _attr: Symbol, _value: &Value) -> Option<Vec<Oid>> {
        None
    }

    /// The key of this source's frame in the execution context
    /// ([`crate::ViewFrame`]). Both engines evaluate the body of a computed
    /// attribute inside one more body bracket of that frame
    /// ([`crate::in_view`]), restored on unwind too. Views use it to give
    /// attribute bodies *privileged* visibility: an attribute hidden by the
    /// view is still readable from the bodies of the view's own computed
    /// attributes (the paper's Example 5 defines `Address` over
    /// `City`/`Street` and then hides them). `None`, the default: the
    /// source keeps no evaluation state, and a body opens no bracket.
    fn frame_key(&self) -> Option<u64> {
        None
    }
}

impl DataSource for Database {
    fn class_by_name(&self, name: Symbol) -> Option<ClassId> {
        self.schema.class_by_name(name)
    }

    fn class_of(&self, oid: Oid) -> Result<ClassId> {
        Ok(self.store.require(oid)?.class)
    }

    fn extent(&self, class: ClassId) -> Result<Vec<Oid>> {
        Ok(self.deep_extent(class))
    }

    fn is_member(&self, oid: Oid, class: ClassId) -> Result<bool> {
        Ok(Database::is_member(self, oid, class))
    }

    fn resolve(&self, oid: Oid, name: Symbol) -> Result<ResolvedAttr> {
        let class = self.store.require(oid)?.class;
        Ok(resolve_by_class(self, class, name)?)
    }

    fn class_verdict(&self, class: ClassId, name: Symbol) -> Option<ResolvedAttr> {
        // Base-database resolution walks only the schema from the object's
        // class, so it is always the class's; only an error is left to
        // `resolve`.
        resolve_by_class(self, class, name).ok()
    }

    fn stored_field(&self, oid: Oid, name: Symbol) -> Result<Value> {
        let obj = self.store.require(oid)?;
        Ok(obj.value.get(name).cloned().unwrap_or(Value::Null))
    }

    fn named_object(&self, name: Symbol) -> Option<Oid> {
        self.named(name).ok()
    }

    fn object_exists(&self, oid: Oid) -> bool {
        self.store.get(oid).is_some()
    }

    fn attr_sig(&self, c: ClassId, name: Symbol) -> Option<AttrSig> {
        self.schema
            .visible_attrs(c)
            .get(&name)
            .map(|(_, def)| def.sig.clone())
    }

    fn class_type(&self, c: ClassId) -> Type {
        self.schema.class_type(c)
    }

    fn resolution_class_and_field(&self, oid: Oid, name: Symbol) -> Option<(ClassId, Value)> {
        let obj = self.store.get(oid)?;
        Some((
            obj.class,
            obj.value.get(name).cloned().unwrap_or(Value::Null),
        ))
    }

    fn indexed_lookup(&self, class: ClassId, attr: Symbol, value: &Value) -> Option<Vec<Oid>> {
        self.indexed_deep_lookup(class, attr, value)
    }
}

/// How `name` resolves for an object of `class` in a base database.
fn resolve_by_class(db: &Database, class: ClassId, name: Symbol) -> ov_oodb::Result<ResolvedAttr> {
    // Base databases resolve conflicts by creation order, as their typing
    // does (`Schema::visible_attrs`); views make it configurable.
    let creation_order = ConflictPolicy::CreationOrder;
    let (_, def) = resolve_in(&db.schema, &[class], name, &concrete, &creation_order)?;
    Ok(def.into())
}

/// Helper shared by trait impls: the extent of a class name, as a value.
pub(crate) fn extent_value(src: &dyn DataSource, class: ClassId) -> Result<Value> {
    let oids = src.extent(class)?;
    Ok(Value::Set(oids.into_iter().map(Value::Oid).collect()))
}

/// Convenience: look a class up or fail with a language-level error.
pub fn require_class(src: &dyn DataSource, name: Symbol) -> Result<ClassId> {
    src.class_by_name(name)
        .ok_or_else(|| QueryError::from(OodbError::UnknownClass(name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ov_oodb::{sym, AttrDef};

    fn db() -> (Database, ClassId) {
        let mut db = Database::new(sym("D"));
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
        db.schema
            .add_attr(
                person,
                AttrDef::computed(
                    sym("Doubled"),
                    Type::Int,
                    ov_oodb::Expr::bin(
                        ov_oodb::BinOp::Add,
                        ov_oodb::Expr::self_attr("Age"),
                        ov_oodb::Expr::self_attr("Age"),
                    ),
                ),
            )
            .unwrap();
        (db, person)
    }

    #[test]
    fn database_resolves_stored_and_computed() {
        let (mut d, person) = db();
        let o = d
            .create_object(person, Value::tuple([("Age", Value::Int(30))]))
            .unwrap();
        assert!(matches!(
            DataSource::resolve(&d, o, sym("Age")).unwrap(),
            ResolvedAttr::Stored
        ));
        assert!(matches!(
            DataSource::resolve(&d, o, sym("Doubled")).unwrap(),
            ResolvedAttr::Computed { .. }
        ));
        assert!(DataSource::resolve(&d, o, sym("Ghost")).is_err());
        // The class answers for its objects; an error is left to `resolve`.
        assert!(matches!(
            d.class_verdict(person, sym("Age")),
            Some(ResolvedAttr::Stored)
        ));
        assert!(d.class_verdict(person, sym("Ghost")).is_none());
    }

    #[test]
    fn attr_sig_and_class_type() {
        let (d, person) = db();
        let sig = DataSource::attr_sig(&d, person, sym("Doubled")).unwrap();
        assert_eq!(sig.ty, Type::Int);
        assert!(matches!(DataSource::class_type(&d, person), Type::Tuple(_)));
    }
}
