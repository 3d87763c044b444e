//! Model check of the store's oid-ordered object table: random inserts
//! (fresh oids and replayed ones — sparse, far apart, out of order),
//! updates, field writes, removes and checkpoint restores against a
//! `BTreeMap<Oid, StoredObject>`. After every step the store must answer
//! like the map — lookups, `len`, iteration order, extents, index contents
//! — and hold exactly one page per run of `PAGE_SLOTS` oids with a live
//! object. Indexes are probed only from a random step on: an index is built
//! by its first probe, so the writes before it must reach the build and
//! the writes after it the maintenance.
//!
//! The model also numbers fresh oids: a store's allocator hands out one
//! past the largest oid it allocated or replayed, so replays reach the
//! topmost base oid, after which a fresh insert is a typed error.

use std::collections::{BTreeMap, BTreeSet};

use ov_oodb::ids::IMAGINARY_OID_BASE;
use ov_oodb::store::PAGE_SLOTS;
use ov_oodb::{sym, ClassId, Oid, OodbError, Store, StoredObject, Tuple, Value};
use proptest::prelude::*;

/// Where replayed oids land: each region is pages away from the next, and
/// an offset within one spans three pages. The last ends at the topmost
/// base oid.
const REGIONS: [u64; 4] = [
    1 << 20,
    1 << 33,
    (1 << 33) + 5 * PAGE_SLOTS,
    IMAGINARY_OID_BASE - 3 * PAGE_SLOTS,
];
const CLASSES: u32 = 3;

#[derive(Clone, Debug)]
enum Op {
    /// `insert`: a fresh oid off the store's allocator.
    Insert {
        class: u32,
        x: Option<i64>,
    },
    /// `insert_with_oid`, as WAL replay does. Skipped if the oid is live.
    Replay {
        region: usize,
        offset: u64,
        class: u32,
        x: Option<i64>,
    },
    Update {
        pick: usize,
        x: Option<i64>,
    },
    SetField {
        pick: usize,
        x: i64,
    },
    Remove {
        pick: usize,
    },
    /// Removes every object on the page of the picked one.
    RemovePage {
        pick: usize,
    },
    /// `restore` into a new store from the model's image, then the index
    /// definitions — what `Database::open` does with a snapshot.
    Restore,
    CreateIndex {
        class: u32,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let x = || prop::option::of(0i64..4);
    prop_oneof![
        (0..CLASSES, x()).prop_map(|(class, x)| Op::Insert { class, x }),
        (0..REGIONS.len(), 0..3 * PAGE_SLOTS, 0..CLASSES, x()).prop_map(
            |(region, offset, class, x)| Op::Replay {
                region,
                offset,
                class,
                x
            }
        ),
        (0..REGIONS.len(), 0..3 * PAGE_SLOTS, 0..CLASSES, x()).prop_map(
            |(region, offset, class, x)| Op::Replay {
                region,
                offset,
                class,
                x
            }
        ),
        (0usize..64, x()).prop_map(|(pick, x)| Op::Update { pick, x }),
        (0usize..64, 0i64..4).prop_map(|(pick, x)| Op::SetField { pick, x }),
        (0usize..64).prop_map(|pick| Op::Remove { pick }),
        (0usize..64).prop_map(|pick| Op::Remove { pick }),
        (0usize..64).prop_map(|pick| Op::RemovePage { pick }),
        Just(Op::Restore),
        (0..CLASSES).prop_map(|class| Op::CreateIndex { class }),
        // The last region, one draw in 16 at the topmost base oid: every
        // fresh insert after it fails.
        (0..16u64, 0..CLASSES, x()).prop_map(|(n, class, x)| Op::Replay {
            region: REGIONS.len() - 1,
            offset: if n == 0 { 3 * PAGE_SLOTS - 1 } else { n },
            class,
            x
        }),
    ]
}

/// A tuple with field `X`, or without it (indexed as null).
fn tuple(x: Option<i64>) -> Tuple {
    Tuple::from_fields(x.map(|x| ("X", Value::Int(x))))
}

fn picked(model: &BTreeMap<Oid, StoredObject>, pick: usize) -> Option<Oid> {
    model.keys().nth(pick % model.len().max(1)).copied()
}

fn check(store: &Store, model: &BTreeMap<Oid, StoredObject>, gone: &BTreeSet<Oid>, probe: bool) {
    assert_eq!(store.len(), model.len());
    assert_eq!(store.is_empty(), model.is_empty());
    assert!(store.iter().eq(model.values()), "iteration is the map's");
    assert!(store.sorted_oids().iter().eq(model.keys()));
    for (&oid, obj) in model {
        assert_eq!(store.get(oid), Some(obj));
        // Neighbouring slots of a live object are not it.
        for near in [oid.0.wrapping_sub(1), oid.0 + 1] {
            assert_eq!(store.get(Oid(near)), model.get(&Oid(near)));
        }
    }
    for &oid in gone {
        assert_eq!(store.get(oid), model.get(&oid));
    }
    let indexed: Vec<ClassId> = store.index_defs().iter().map(|&(c, _)| c).collect();
    for class in (0..CLASSES).map(ClassId) {
        let real = |o: &&StoredObject| o.class == class;
        let extent: Vec<Oid> = model.values().filter(real).map(|o| o.oid).collect();
        assert_eq!(store.extent(class).collect::<Vec<_>>(), extent);
        assert_eq!(store.extent_len(class), extent.len());
        if !indexed.contains(&class) {
            assert_eq!(store.index_lookup(class, sym("X"), &Value::Null), None);
            continue;
        }
        if !probe {
            continue;
        }
        for key in (0..4).map(Value::Int).chain([Value::Null]) {
            let expected: Vec<Oid> = model
                .values()
                .filter(real)
                .filter(|o| *o.value.get(sym("X")).unwrap_or(&Value::Null) == key)
                .map(|o| o.oid)
                .collect();
            assert_eq!(store.index_lookup(class, sym("X"), &key), Some(expected));
        }
    }
    let live_pages: BTreeSet<u64> = model.keys().map(|o| o.0 / PAGE_SLOTS).collect();
    assert_eq!(store.pages(), live_pages.len(), "one page per live run");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_object_table_is_an_ordered_map(
        ops in prop::collection::vec(arb_op(), 1..80),
        first_probe in 0usize..80,
    ) {
        let mut store = Store::new();
        let mut model: BTreeMap<Oid, StoredObject> = BTreeMap::new();
        // The oid the store's allocator hands out next.
        let mut next = 0u64;
        // Oids that were live once: their slots must read as vacant.
        let mut gone: BTreeSet<Oid> = BTreeSet::new();
        // A step of this sequence: every case probes from it to the last step.
        let first_probe = first_probe % ops.len();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert { class, x } => {
                    let (class, version) = (ClassId(class), store.version());
                    let inserted = store.insert(class, tuple(x));
                    if next == IMAGINARY_OID_BASE {
                        prop_assert_eq!(inserted, Err(OodbError::BaseOidsExhausted));
                        prop_assert_eq!(store.version(), version);
                    } else {
                        let oid = inserted.unwrap();
                        prop_assert_eq!(oid, Oid(next));
                        next += 1;
                        let seated = model.insert(oid, StoredObject { oid, class, value: tuple(x) });
                        prop_assert!(seated.is_none(), "fresh oid {oid} was already live");
                    }
                }
                Op::Replay { region, offset, class, x } => {
                    let (oid, class) = (Oid(REGIONS[region] + offset), ClassId(class));
                    if let std::collections::btree_map::Entry::Vacant(free) = model.entry(oid) {
                        store.insert_with_oid(oid, class, tuple(x)).unwrap();
                        free.insert(StoredObject { oid, class, value: tuple(x) });
                        next = next.max(oid.0 + 1);
                    }
                }
                Op::Update { pick, x } => match picked(&model, pick) {
                    Some(oid) => {
                        store.update(oid, tuple(x)).unwrap();
                        model.get_mut(&oid).unwrap().value = tuple(x);
                    }
                    None => prop_assert!(store.update(Oid(7), tuple(x)).is_err()),
                },
                Op::SetField { pick, x } => match picked(&model, pick) {
                    Some(oid) => {
                        store.set_field(oid, sym("X"), Value::Int(x)).unwrap();
                        model.get_mut(&oid).unwrap().value.set(sym("X"), Value::Int(x));
                    }
                    None => prop_assert!(store.set_field(Oid(7), sym("X"), Value::Null).is_err()),
                },
                Op::Remove { pick } => match picked(&model, pick) {
                    Some(oid) => {
                        prop_assert_eq!(store.remove(oid).ok(), model.remove(&oid));
                        prop_assert!(store.remove(oid).is_err(), "removed twice");
                        gone.insert(oid);
                    }
                    None => prop_assert!(store.remove(Oid(7)).is_err()),
                },
                Op::RemovePage { pick } => {
                    let page = picked(&model, pick).map(|o| o.0 / PAGE_SLOTS);
                    let on_page: Vec<Oid> =
                        model.keys().filter(|o| Some(o.0 / PAGE_SLOTS) == page).copied().collect();
                    for oid in on_page {
                        prop_assert_eq!(store.remove(oid).ok(), model.remove(&oid));
                        gone.insert(oid);
                    }
                }
                Op::Restore => {
                    let mut restored = Store::new();
                    // Any order: the image is a list, not a sorted one.
                    let image: Vec<StoredObject> = model.values().rev().cloned().collect();
                    restored.restore(image, store.version(), 0).unwrap();
                    for (class, attr) in store.index_defs() {
                        restored.create_index(class, attr);
                    }
                    prop_assert_eq!(restored.version(), store.version());
                    store = restored;
                    // A new store's allocator: raised past the image only.
                    next = model.keys().next_back().map_or(0, |o| o.0 + 1);
                }
                Op::CreateIndex { class } => store.create_index(ClassId(class), sym("X")),
            }
            check(&store, &model, &gone, step >= first_probe);
        }
        // Deleting everything gives every page back.
        for oid in store.sorted_oids() {
            store.remove(oid).unwrap();
        }
        prop_assert_eq!((store.len(), store.pages()), (0, 0));
    }
}
