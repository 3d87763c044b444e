//! Property tests: total order and hash coherence of `Value`, tuple
//! semantics. These invariants underpin the imaginary-object identity
//! tables (tuples as map keys, §5.1 of the paper).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use ov_oodb::{Oid, Tuple, Value};
use proptest::prelude::*;

/// A generator for arbitrary (bounded-depth) values.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN payloads are ordered by total_cmp but we
        // keep printable values for debugging ease.
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,12}".prop_map(|s| Value::str(&s)),
        (0u64..1000).prop_map(|n| Value::Oid(Oid(n))),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::set),
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::list),
            prop::collection::vec(("[A-Z][a-z]{0,6}", inner), 0..4).prop_map(|fields| {
                Value::Tuple(Tuple::from_fields(
                    fields
                        .into_iter()
                        .map(|(n, v)| (ov_oodb::sym(n.as_str()), v)),
                ))
            }),
        ]
    })
}

fn hash_of(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

proptest! {
    /// Antisymmetry: cmp(a,b) is the reverse of cmp(b,a).
    #[test]
    fn ordering_is_antisymmetric(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
    }

    /// Transitivity over sorted triples.
    #[test]
    fn ordering_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        let mut v = [a, b, c];
        v.sort();
        prop_assert!(v[0] <= v[1] && v[1] <= v[2] && v[0] <= v[2]);
    }

    /// Reflexivity / Eq-consistency.
    #[test]
    fn equality_is_reflexive(a in arb_value()) {
        prop_assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
        prop_assert_eq!(&a, &a.clone());
    }

    /// Hash agrees with Eq (clone hashes identically; used for tuple→oid
    /// identity tables).
    #[test]
    fn hash_consistent_with_eq(a in arb_value()) {
        let b = a.clone();
        prop_assert_eq!(hash_of(&a), hash_of(&b));
    }

    /// Sets deduplicate by the same equality used everywhere else.
    #[test]
    fn set_insertion_is_idempotent(a in arb_value()) {
        let s = Value::set([a.clone(), a.clone()]);
        prop_assert_eq!(s.as_set().unwrap().len(), 1);
    }

    /// Tuple field order never matters.
    #[test]
    fn tuple_equality_ignores_insertion_order(
        fields in prop::collection::btree_map("[A-Z][a-z]{0,6}", any::<i64>(), 0..6)
    ) {
        let fields: Vec<_> = fields.into_iter().collect();
        let fwd = Tuple::from_fields(
            fields.iter().map(|(n, v)| (ov_oodb::sym(n.as_str()), Value::Int(*v))),
        );
        let rev = Tuple::from_fields(
            fields.iter().rev().map(|(n, v)| (ov_oodb::sym(n.as_str()), Value::Int(*v))),
        );
        prop_assert_eq!(fwd, rev);
    }

    /// Projection is contained in the original and keeps values intact.
    #[test]
    fn projection_is_a_sub_tuple(
        fields in prop::collection::vec(("[A-Z][a-z]{0,4}", any::<i64>()), 0..6),
        keep in prop::collection::vec("[A-Z][a-z]{0,4}", 0..4),
    ) {
        let t = Tuple::from_fields(
            fields.iter().map(|(n, v)| (ov_oodb::sym(n.as_str()), Value::Int(*v))),
        );
        let p = t.project(keep.iter().map(|k| ov_oodb::sym(k.as_str())));
        for (name, v) in p.iter() {
            prop_assert_eq!(t.get(name), Some(v));
        }
        prop_assert!(p.len() <= t.len());
    }

    /// A tuple is observably the `BTreeMap<Symbol, Value>` it used to be:
    /// lookups, name-ordered iteration, display, `Ord`, `Hash` and the
    /// encoded bytes, on narrow tuples and on ones wide enough (> 16
    /// fields) to be searched rather than scanned. Names repeat, so later
    /// fields overwrite earlier ones, as map inserts did.
    #[test]
    fn tuple_behaves_like_the_name_ordered_map(
        a in prop::collection::vec(("[a-e][a-h]?", 0i64..4), 0..48),
        b in prop::collection::vec(("[a-e][a-h]?", 0i64..4), 0..48),
        edits in prop::collection::vec(("[a-e][a-h]?", prop::option::of(0i64..4)), 0..8),
    ) {
        use std::collections::BTreeMap;
        use ov_oodb::codec::{put_tuple, put_value, take_tuple, Reader, Writer};
        use ov_oodb::Symbol;
        type Map = BTreeMap<Symbol, Value>;
        let fields = |f: &[(String, i64)]| -> Vec<(Symbol, Value)> {
            f.iter().map(|(n, v)| (ov_oodb::sym(n), Value::Int(*v))).collect()
        };
        let (mut ta, tb) = (Tuple::from_fields(fields(&a)), Tuple::from_fields(fields(&b)));
        let (mut ma, mb): (Map, Map) =
            (fields(&a).into_iter().collect(), fields(&b).into_iter().collect());
        prop_assert_eq!(ta.cmp(&tb), ma.cmp(&mb));
        prop_assert_eq!(ta == tb, ma == mb);
        for (name, v) in &edits {
            let name = ov_oodb::sym(name);
            match v {
                Some(v) => prop_assert_eq!(
                    ta.set(name, Value::Int(*v)),
                    ma.insert(name, Value::Int(*v))
                ),
                None => prop_assert_eq!(ta.remove(name), ma.remove(&name)),
            }
        }
        prop_assert_eq!(ta.len(), ma.len());
        prop_assert!(ta.iter().eq(ma.iter().map(|(k, v)| (*k, v))));
        for x in 'a'..='e' {
            for y in ["", "a", "d", "h", "z"] {
                let name = ov_oodb::sym(&format!("{x}{y}"));
                prop_assert_eq!(ta.get(name), ma.get(&name));
                prop_assert_eq!(ta.has(name), ma.contains_key(&name));
            }
        }
        let hash = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        prop_assert_eq!(hash(&|s| ta.hash(s)), hash(&|s| ma.hash(s)));
        let shown: Vec<String> = ma.iter().map(|(k, v)| format!("{k}: {v}")).collect();
        prop_assert_eq!(ta.to_string(), format!("[{}]", shown.join(", ")));
        // The byte stream the codec wrote off the map: count, then
        // name-ordered (symbol, value) pairs.
        let mut expected = Writer::new();
        expected.put_len(ma.len());
        for (k, v) in &ma {
            expected.put_symbol(*k);
            put_value(&mut expected, v);
        }
        let mut got = Writer::new();
        put_tuple(&mut got, &ta);
        let bytes = got.into_bytes();
        prop_assert_eq!(&bytes, &expected.into_bytes());
        prop_assert_eq!(take_tuple(&mut Reader::new(&bytes, "tuple")).unwrap(), ta);
    }

    /// collect_oids finds exactly the oids that Display renders.
    #[test]
    fn collect_oids_matches_display(v in arb_value()) {
        let mut oids = Vec::new();
        v.collect_oids(&mut oids);
        let shown = v.to_string();
        for oid in &oids {
            prop_assert!(shown.contains(&oid.to_string()));
        }
    }
}
