//! Materializing a view into a database.
//!
//! The paper closes by noting that "important issues such as materialized
//! views … acquire a new dimension in the context of objects" (§6). This
//! module provides the snapshot half of that story: [`View::materialize`]
//! exports the view's visible contents as a fresh, self-contained
//! [`Database`] — every visible class becomes a real class, every visible
//! object (including imaginary ones) becomes a real object, and every
//! zero-parameter attribute is evaluated and stored.
//!
//! A snapshot is a database like any other: register it in a
//! [`ov_oodb::System`] and a view can be defined over it. Views stack
//! without it — `import all classes from view V` reads `V` live (see
//! [`crate::Binder`]) — so a snapshot is for keeping a view's state, not
//! for building on it.

use std::collections::{BTreeSet, HashMap};

use ov_oodb::{AttrDef, ClassGraph, ClassId, Database, Oid, Symbol, Type, Value};
use ov_query::DataSource;

use crate::error::Result;
use crate::view::View;

impl View {
    /// Snapshots the view into a database named `name`.
    ///
    /// * Visible classes become real classes with the view's inferred
    ///   hierarchy (hidden classes and attributes are gone for good).
    /// * All zero-parameter attributes — stored, computed, upward-inherited
    ///   — are **evaluated per object and stored**; parameterized
    ///   attributes (methods) are dropped, since their bodies may reference
    ///   view machinery.
    /// * Imaginary objects become real objects; object references are
    ///   rewritten to the new oids. References to objects outside the view
    ///   become `null`.
    pub fn materialize(&self, name: Symbol) -> Result<Database> {
        let mut db = Database::new(name);
        // 1. Classes, in id order (parents precede children by
        //    construction), skipping hidden ones. Attribute *types* are
        //    taken from the view's class type; everything becomes stored.
        let class_names: Vec<Symbol> = self.class_names();
        let mut class_map: HashMap<ClassId, ClassId> = HashMap::new();
        // Gather (view id, name) sorted by view id to respect topology.
        let mut classes: Vec<(ClassId, Symbol)> = class_names
            .iter()
            .filter_map(|&n| DataSource::class_by_name(self, n).map(|c| (c, n)))
            .collect();
        classes.sort();
        for (view_id, cname) in &classes {
            let parents: Vec<ClassId> = self
                .ancestors(*view_id)
                .into_iter()
                .filter(|&a| a != *view_id)
                .filter_map(|a| class_map.get(&a).copied())
                .collect();
            // Reduce to direct-most parents: keep minimal ones.
            let direct = db.minimal(&parents);
            // Own attributes: fields of the class type not provided by any
            // materialized parent.
            let Type::Tuple(fields) = DataSource::class_type(self, *view_id) else {
                unreachable!("class types are tuples")
            };
            let mut own: Vec<AttrDef> = Vec::new();
            for (aname, aty) in fields {
                let inherited = direct
                    .iter()
                    .any(|&p| db.schema.visible_attrs(p).contains_key(&aname));
                if !inherited {
                    own.push(AttrDef::stored(aname, remap_class_types(&aty, &class_map)));
                }
            }
            let new_id = db.create_class(*cname, &direct, own)?;
            class_map.insert(*view_id, new_id);
        }
        // 2. Objects: every object visible through any visible class, created
        //    real in (the image of) its presenting class.
        let mut all_oids: BTreeSet<Oid> = BTreeSet::new();
        for (view_id, _) in &classes {
            all_oids.extend(DataSource::extent(self, *view_id).map_err(crate::ViewError::from)?);
        }
        let mut oid_map: HashMap<Oid, Oid> = HashMap::new();
        let mut presenting: Vec<(Oid, ClassId)> = Vec::new();
        for &oid in &all_oids {
            // Unique-root rule meets virtual membership: the snapshot makes
            // each object real in its *most specific* visible class — the
            // unique minimal element of its membership set when one exists
            // (an Adult becomes real in Adult), falling back to the
            // presenting class when memberships are incomparable
            // (an object in both Rich and Beautiful stays real in Person;
            // overlaps cannot survive materialization under unique root).
            let presented = DataSource::class_of(self, oid).map_err(crate::ViewError::from)?;
            let memberships = self
                .membership_roots(oid, None)
                .map_err(crate::ViewError::from)?;
            let root = match self.minimal(&memberships).as_slice() {
                [one] => *one,
                _ => presented,
            };
            let Some(&target) = class_map.get(&root).or_else(|| class_map.get(&presented)) else {
                continue; // presents under a hidden class with no visible image
            };
            let new = db.create_object(target, Value::empty_tuple())?;
            oid_map.insert(oid, new);
            presenting.push((oid, target));
        }
        // 3. Attribute values: evaluate through the view, rewrite
        //    references, store.
        for (old_oid, target) in presenting {
            let new_oid = oid_map[&old_oid];
            let fields: Vec<Symbol> = db.schema.visible_attrs(target).keys().copied().collect();
            for field in fields {
                let v = match ov_query::eval_attr(self, old_oid, field, &[]) {
                    Ok(v) => v,
                    // A hidden or conflicting attribute that slipped through
                    // resolution is simply left null in the snapshot.
                    Err(_) => continue,
                };
                let rewritten = rewrite_refs(&v, &oid_map);
                db.store.set_field(new_oid, field, rewritten)?;
            }
        }
        Ok(db)
    }
}

/// Rewrites oid references through the materialization map; unknown
/// references become `null`.
fn rewrite_refs(v: &Value, map: &HashMap<Oid, Oid>) -> Value {
    match v {
        Value::Oid(o) => match map.get(o) {
            Some(n) => Value::Oid(*n),
            None => Value::Null,
        },
        Value::Tuple(t) => Value::Tuple(ov_oodb::Tuple::from_fields(
            t.iter().map(|(n, fv)| (n, rewrite_refs(fv, map))),
        )),
        Value::Set(s) => Value::Set(s.iter().map(|e| rewrite_refs(e, map)).collect()),
        Value::List(l) => Value::List(l.iter().map(|e| rewrite_refs(e, map)).collect()),
        other => other.clone(),
    }
}

/// Class types cannot cross the materialization boundary structurally (ids
/// differ); map them, degrading unknown classes to `any`.
fn remap_class_types(ty: &Type, map: &HashMap<ClassId, ClassId>) -> Type {
    match ty {
        Type::Class(c) => map.get(c).map(|&n| Type::Class(n)).unwrap_or(Type::Any),
        Type::Tuple(fields) => Type::Tuple(
            fields
                .iter()
                .map(|(n, t)| (*n, remap_class_types(t, map)))
                .collect(),
        ),
        Type::Set(t) => Type::set(remap_class_types(t, map)),
        Type::List(t) => Type::list(remap_class_types(t, map)),
        other => other.clone(),
    }
}
