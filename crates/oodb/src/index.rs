//! Secondary attribute indexes.
//!
//! The paper's §4.2 "Implementation Issues" motivates the unique root rule
//! with storage efficiency: objects of one class "can be stored uniformly
//! along with similar objects." This module adds the natural companion: a
//! hash index per `(class, stored attribute)` mapping values to the oids
//! real in that class, maintained on every mutation. The view layer uses
//! these to push equality predicates of specialization queries down into
//! the store (see `ov-views`), turning population evaluation from a scan
//! into a lookup.

use std::collections::{BTreeSet, HashMap};

use crate::ids::{ClassId, Oid};
use crate::symbol::Symbol;
use crate::value::Value;

/// A value → oids index for one `(class, attribute)` pair.
#[derive(Clone, Debug, Default)]
pub struct AttrIndex {
    map: HashMap<Value, BTreeSet<Oid>>,
}

impl AttrIndex {
    /// All oids whose indexed attribute equals `value`.
    pub fn get(&self, value: &Value) -> impl Iterator<Item = Oid> + '_ {
        self.map.get(value).into_iter().flatten().copied()
    }

    pub(crate) fn insert(&mut self, value: Value, oid: Oid) {
        self.map.entry(value).or_default().insert(oid);
    }

    pub(crate) fn remove(&mut self, value: &Value, oid: Oid) {
        if let Some(set) = self.map.get_mut(value) {
            set.remove(&oid);
            if set.is_empty() {
                self.map.remove(value);
            }
        }
    }
}

/// The index registry of a store: `(real class, attribute)` → index.
#[derive(Clone, Debug, Default)]
pub struct IndexSet {
    indexes: HashMap<(ClassId, Symbol), AttrIndex>,
}

impl IndexSet {
    /// Registers an (empty) index; the caller backfills it.
    pub(crate) fn create(&mut self, class: ClassId, attr: Symbol) -> &mut AttrIndex {
        self.indexes.entry((class, attr)).or_default()
    }

    /// Drops an index.
    pub(crate) fn drop_index(&mut self, class: ClassId, attr: Symbol) -> bool {
        self.indexes.remove(&(class, attr)).is_some()
    }

    /// The index for `(class, attr)`, if one exists.
    pub fn get(&self, class: ClassId, attr: Symbol) -> Option<&AttrIndex> {
        self.indexes.get(&(class, attr))
    }

    /// Is `(class, attr)` indexed?
    pub fn contains(&self, class: ClassId, attr: Symbol) -> bool {
        self.indexes.contains_key(&(class, attr))
    }

    /// All `(class, attr)` pairs currently indexed, in a deterministic
    /// order (checkpoints persist these so recovery can rebuild).
    pub fn defs(&self) -> Vec<(ClassId, Symbol)> {
        let mut v: Vec<(ClassId, Symbol)> = self.indexes.keys().copied().collect();
        v.sort();
        v
    }

    /// All attributes indexed for `class`.
    pub(crate) fn attrs_of(&self, class: ClassId) -> Vec<Symbol> {
        self.indexes
            .keys()
            .filter(|(c, _)| *c == class)
            .map(|(_, a)| *a)
            .collect()
    }

    /// Called on object insertion: adds entries for every indexed attribute
    /// of `class`.
    pub(crate) fn on_insert(&mut self, class: ClassId, oid: Oid, value: &crate::Tuple) {
        for attr in self.attrs_of(class) {
            let v = value.get(attr).cloned().unwrap_or(Value::Null);
            self.create(class, attr).insert(v, oid);
        }
    }

    /// Called on object removal.
    pub(crate) fn on_remove(&mut self, class: ClassId, oid: Oid, value: &crate::Tuple) {
        for attr in self.attrs_of(class) {
            let v = value.get(attr).cloned().unwrap_or(Value::Null);
            if let Some(ix) = self.indexes.get_mut(&(class, attr)) {
                ix.remove(&v, oid);
            }
        }
    }

    /// Called on a single-field update.
    pub(crate) fn on_set_field(
        &mut self,
        class: ClassId,
        oid: Oid,
        attr: Symbol,
        old: &Value,
        new: &Value,
    ) {
        if let Some(ix) = self.indexes.get_mut(&(class, attr)) {
            ix.remove(old, oid);
            ix.insert(new.clone(), oid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Index lookups (`get`, `candidates`) take `&self` and may run from
    /// many threads at once; maintenance hooks take `&mut self`.
    #[test]
    fn indexes_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AttrIndex>();
        assert_send_sync::<IndexSet>();
    }

    #[test]
    fn index_tracks_inserts_and_removals() {
        let mut set = IndexSet::default();
        set.create(ClassId(0), Symbol::new("City"));
        let t1 = crate::Tuple::from_fields([("City", Value::str("Paris"))]);
        let t2 = crate::Tuple::from_fields([("City", Value::str("Paris"))]);
        set.on_insert(ClassId(0), Oid(1), &t1);
        set.on_insert(ClassId(0), Oid(2), &t2);
        let ix = set.get(ClassId(0), Symbol::new("City")).unwrap();
        assert_eq!(ix.get(&Value::str("Paris")).count(), 2);
        set.on_remove(ClassId(0), Oid(1), &t1);
        let ix = set.get(ClassId(0), Symbol::new("City")).unwrap();
        assert_eq!(ix.get(&Value::str("Paris")).count(), 1);
    }

    #[test]
    fn set_field_moves_entries() {
        let mut set = IndexSet::default();
        set.create(ClassId(0), Symbol::new("City"));
        let t = crate::Tuple::from_fields([("City", Value::str("Paris"))]);
        set.on_insert(ClassId(0), Oid(1), &t);
        set.on_set_field(
            ClassId(0),
            Oid(1),
            Symbol::new("City"),
            &Value::str("Paris"),
            &Value::str("Roma"),
        );
        let ix = set.get(ClassId(0), Symbol::new("City")).unwrap();
        assert_eq!(ix.get(&Value::str("Paris")).count(), 0);
        assert_eq!(ix.get(&Value::str("Roma")).count(), 1);
    }

    #[test]
    fn missing_fields_index_as_null() {
        let mut set = IndexSet::default();
        set.create(ClassId(0), Symbol::new("City"));
        set.on_insert(ClassId(0), Oid(7), &crate::Tuple::new());
        let ix = set.get(ClassId(0), Symbol::new("City")).unwrap();
        assert_eq!(ix.get(&Value::Null).count(), 1);
    }

    #[test]
    fn unindexed_classes_are_untouched() {
        let mut set = IndexSet::default();
        set.on_insert(ClassId(3), Oid(1), &crate::Tuple::new());
        assert!(set.get(ClassId(3), Symbol::new("X")).is_none());
    }
}
