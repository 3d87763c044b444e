//! Secondary attribute indexes.
//!
//! The paper's §4.2 "Implementation Issues" motivates the unique root rule
//! with storage efficiency: objects of one class "can be stored uniformly
//! along with similar objects." This module adds the natural companion: a
//! hash index per `(class, stored attribute)` mapping values to the oids
//! real in that class. The view layer uses these to push equality
//! predicates of specialization queries down into the store (see
//! `ov-views`), turning population evaluation from a scan into a lookup.
//!
//! An index is built by the first probe that reads it, not when it is
//! defined: creating one, recovering its definition from a checkpoint and
//! replaying writes from the WAL build nothing (`Store::index_lookup` owns
//! the build). Once built, it is maintained on every mutation.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

use crate::ids::{ClassId, Oid};
use crate::store::StoredObject;
use crate::symbol::Symbol;
use crate::value::{Tuple, Value};

/// The oids one key maps to. A key that one object holds keeps its oid
/// inline; only a key two or more objects share has a set (`Many` never
/// holds fewer than two).
#[derive(Clone, Debug)]
pub(crate) enum Posting {
    One(Oid),
    Many(BTreeSet<Oid>),
}

impl Posting {
    fn add(&mut self, oid: Oid) {
        match self {
            Posting::One(only) if *only != oid => {
                *self = Posting::Many(BTreeSet::from([*only, oid]))
            }
            Posting::One(_) => {}
            Posting::Many(set) => {
                set.insert(oid);
            }
        }
    }

    /// Removes `oid`; `true` when no oid is left.
    fn remove(&mut self, oid: Oid) -> bool {
        match self {
            Posting::One(only) => *only == oid,
            Posting::Many(set) => {
                set.remove(&oid);
                if let (1, Some(&last)) = (set.len(), set.first()) {
                    *self = Posting::One(last);
                }
                false
            }
        }
    }
}

/// The map of a built index: value → oids holding it.
pub(crate) type Postings = HashMap<Value, Posting>;

/// The map of an index on `attr` over `objects`, the `len` objects of the
/// indexed extent.
pub(crate) fn build<'a>(
    attr: Symbol,
    len: usize,
    objects: impl Iterator<Item = &'a StoredObject>,
) -> Postings {
    let mut map = Postings::with_capacity(len);
    for obj in objects {
        add(&mut map, key(&obj.value, attr), obj.oid);
    }
    // Sized for a unique key; a key many objects share needs far fewer
    // slots (and when the size was right, this copies nothing).
    map.shrink_to_fit();
    map
}

fn add(map: &mut Postings, value: Value, oid: Oid) {
    match map.entry(value) {
        Entry::Occupied(mut e) => e.get_mut().add(oid),
        Entry::Vacant(e) => {
            e.insert(Posting::One(oid));
        }
    }
}

fn remove(map: &mut Postings, value: &Value, oid: Oid) {
    if map.get_mut(value).is_some_and(|p| p.remove(oid)) {
        map.remove(value);
    }
}

/// The value an object is indexed under: its field `attr`, `null` when it
/// has none.
fn key(tuple: &Tuple, attr: Symbol) -> Value {
    tuple.get(attr).cloned().unwrap_or(Value::Null)
}

/// A value → oids index for one `(class, attribute)` pair. Its map exists
/// once a probe has read the index.
#[derive(Clone, Debug, Default)]
pub(crate) struct AttrIndex {
    map: OnceLock<Postings>,
}

impl AttrIndex {
    /// All oids whose indexed attribute equals `value`, ascending. The first
    /// read builds the map with `build`; concurrent first reads build once,
    /// the others waiting for it.
    pub(crate) fn get(&self, value: &Value, build: impl FnOnce() -> Postings) -> Vec<Oid> {
        match self.map.get_or_init(build).get(value) {
            None => Vec::new(),
            Some(Posting::One(oid)) => vec![*oid],
            Some(Posting::Many(set)) => set.iter().copied().collect(),
        }
    }
}

/// The index registry of a store: `(real class, attribute)` → index.
#[derive(Clone, Debug, Default)]
pub(crate) struct IndexSet {
    indexes: HashMap<(ClassId, Symbol), AttrIndex>,
}

impl IndexSet {
    /// Registers an unbuilt index, unless `(class, attr)` has one.
    pub(crate) fn create(&mut self, class: ClassId, attr: Symbol) {
        self.indexes.entry((class, attr)).or_default();
    }

    /// Drops an index.
    pub(crate) fn drop_index(&mut self, class: ClassId, attr: Symbol) -> bool {
        self.indexes.remove(&(class, attr)).is_some()
    }

    /// The index for `(class, attr)`, if one exists.
    pub(crate) fn get(&self, class: ClassId, attr: Symbol) -> Option<&AttrIndex> {
        self.indexes.get(&(class, attr))
    }

    /// All `(class, attr)` pairs currently indexed, in a deterministic
    /// order (checkpoints persist these so recovery can register them).
    pub(crate) fn defs(&self) -> Vec<(ClassId, Symbol)> {
        let mut v: Vec<(ClassId, Symbol)> = self.indexes.keys().copied().collect();
        v.sort();
        v
    }

    /// The built maps of `class`'s indexes, with their attributes. An
    /// unbuilt index has nothing to maintain: its first probe reads the
    /// store as it is then.
    fn built_of(&mut self, class: ClassId) -> impl Iterator<Item = (Symbol, &mut Postings)> {
        self.indexes
            .iter_mut()
            .filter(move |((c, _), _)| *c == class)
            .filter_map(|((_, attr), ix)| Some((*attr, ix.map.get_mut()?)))
    }

    /// Called on object insertion.
    pub(crate) fn on_insert(&mut self, class: ClassId, oid: Oid, value: &Tuple) {
        for (attr, map) in self.built_of(class) {
            add(map, key(value, attr), oid);
        }
    }

    /// Called on object removal.
    pub(crate) fn on_remove(&mut self, class: ClassId, oid: Oid, value: &Tuple) {
        for (attr, map) in self.built_of(class) {
            remove(map, &key(value, attr), oid);
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
        let index = self.indexes.get_mut(&(class, attr));
        if let Some(map) = index.and_then(|ix| ix.map.get_mut()) {
            remove(map, old, oid);
            add(map, new.clone(), oid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use crate::symbol::sym;

    fn city(name: &str) -> Tuple {
        Tuple::from_fields([("City", Value::str(name))])
    }

    fn lookup(st: &Store, class: ClassId, value: &Value) -> Option<Vec<Oid>> {
        st.index_lookup(class, sym("City"), value)
    }

    /// Index lookups take `&self` and may run from many threads at once
    /// (the first of them builds); maintenance hooks take `&mut self`.
    #[test]
    fn indexes_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AttrIndex>();
        assert_send_sync::<IndexSet>();
    }

    /// Writes before the first probe are read by its build; writes after
    /// it are maintained, through a key shared by two objects and back.
    #[test]
    fn index_tracks_inserts_and_removals() {
        let mut st = Store::new();
        st.create_index(ClassId(0), sym("City"));
        let a = st.insert(ClassId(0), city("Paris")).unwrap();
        let b = st.insert(ClassId(0), city("Paris")).unwrap();
        st.remove(b).unwrap();
        assert_eq!(lookup(&st, ClassId(0), &Value::str("Paris")), Some(vec![a]));
        let c = st.insert(ClassId(0), city("Paris")).unwrap();
        assert_eq!(
            lookup(&st, ClassId(0), &Value::str("Paris")),
            Some(vec![a, c])
        );
        st.remove(a).unwrap();
        assert_eq!(lookup(&st, ClassId(0), &Value::str("Paris")), Some(vec![c]));
        st.remove(c).unwrap();
        assert_eq!(lookup(&st, ClassId(0), &Value::str("Paris")), Some(vec![]));
    }

    #[test]
    fn set_field_moves_entries() {
        let mut st = Store::new();
        st.create_index(ClassId(0), sym("City"));
        let a = st.insert(ClassId(0), city("Paris")).unwrap();
        st.set_field(a, sym("City"), Value::str("Lyon")).unwrap();
        assert_eq!(lookup(&st, ClassId(0), &Value::str("Lyon")), Some(vec![a]));
        st.set_field(a, sym("City"), Value::str("Roma")).unwrap();
        assert_eq!(lookup(&st, ClassId(0), &Value::str("Lyon")), Some(vec![]));
        assert_eq!(lookup(&st, ClassId(0), &Value::str("Roma")), Some(vec![a]));
    }

    #[test]
    fn missing_fields_index_as_null() {
        let mut st = Store::new();
        st.create_index(ClassId(0), sym("City"));
        let a = st.insert(ClassId(0), Tuple::new()).unwrap();
        assert_eq!(lookup(&st, ClassId(0), &Value::Null), Some(vec![a]));
        let b = st.insert(ClassId(0), Tuple::new()).unwrap();
        assert_eq!(lookup(&st, ClassId(0), &Value::Null), Some(vec![a, b]));
    }

    /// Another class's objects neither enter an index nor get one.
    #[test]
    fn unindexed_classes_are_untouched() {
        let mut st = Store::new();
        st.create_index(ClassId(0), sym("City"));
        st.insert(ClassId(3), city("Paris")).unwrap();
        assert_eq!(lookup(&st, ClassId(3), &Value::str("Paris")), None);
        assert_eq!(lookup(&st, ClassId(0), &Value::str("Paris")), Some(vec![]));
    }
}
