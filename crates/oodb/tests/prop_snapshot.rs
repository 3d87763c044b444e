//! Property test for the snapshot body's string table: an image whose
//! values mix a small pool of repeated strings with unique ones, nest
//! strings in sets, lists and tuples, and key its identity entries by cores
//! that hold strings too, decodes to itself; re-encoding the decoded image
//! gives the same bytes; and each pool string it holds, however often, is
//! written into the body once.

use ov_oodb::ids::IMAGINARY_OID_BASE;
use ov_oodb::{sym, ClassId, IdentityEntry, Oid, SnapshotImage, StoredObject, Tuple, Value};
use proptest::collection::vec;
use proptest::prelude::*;

/// Strings that repeat. None can occur inside a generated unique string
/// (lower case and digits) or a name (upper case, one letter).
const POOL: [&str; 4] = ["Paris", "Lyon", "Nice", "Toulouse et Montauban"];

fn arb_value() -> impl Strategy<Value = Value> {
    let pool = || (0..POOL.len()).prop_map(|i| Value::str(POOL[i]));
    let leaf = prop_oneof![
        pool(),
        pool(),
        "[a-z0-9]{0,10}".prop_map(|s| Value::str(&s)),
        any::<i64>().prop_map(Value::Int),
        (0u64..1000).prop_map(|n| Value::Oid(Oid(n))),
        Just(Value::Null),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..4).prop_map(Value::set),
            vec(inner.clone(), 0..4).prop_map(Value::list),
            arb_fields(inner).prop_map(Value::Tuple),
        ]
    })
}

fn arb_fields(value: impl Strategy<Value = Value>) -> impl Strategy<Value = Tuple> {
    vec(("[A-E]", value), 0..5)
        .prop_map(|fields| Tuple::from_fields(fields.into_iter().map(|(n, v)| (sym(&n), v))))
}

fn arb_image() -> impl Strategy<Value = SnapshotImage> {
    (
        vec(arb_fields(arb_value()), 0..12),
        vec(arb_fields(arb_value()), 0..4),
    )
        .prop_map(|(objects, cores)| SnapshotImage {
            name: sym("Pool"),
            objects: (0..)
                .zip(objects)
                .map(|(i, value)| StoredObject {
                    oid: Oid(i),
                    class: ClassId(0),
                    value,
                })
                .collect(),
            identity: (0..)
                .zip(cores)
                .map(|(i, core)| IdentityEntry {
                    view: sym("V"),
                    class: sym("Home"),
                    core,
                    oid: Oid(IMAGINARY_OID_BASE + i),
                })
                .collect(),
            ..SnapshotImage::default()
        })
}

/// Does `v` hold the string `s`, at any depth?
fn holds(v: &Value, s: &str) -> bool {
    match v {
        Value::Str(x) => &**x == s,
        Value::Tuple(t) => t.iter().any(|(_, v)| holds(v, s)),
        Value::Set(e) => e.iter().any(|v| holds(v, s)),
        Value::List(e) => e.iter().any(|v| holds(v, s)),
        _ => false,
    }
}

proptest! {
    #[test]
    fn a_body_decodes_to_its_image_and_re_encodes_to_its_bytes(img in arb_image()) {
        let body = img.encode();
        let back = SnapshotImage::decode(&body).unwrap();
        prop_assert_eq!(&back.objects, &img.objects);
        prop_assert_eq!(&back.identity, &img.identity);
        prop_assert_eq!(back.encode(), body.clone());

        let tuples = || img.objects.iter().map(|o| &o.value).chain(img.identity.iter().map(|e| &e.core));
        for s in POOL {
            let held = tuples().any(|t| t.iter().any(|(_, v)| holds(v, s)));
            let written = body.windows(s.len()).filter(|w| *w == s.as_bytes()).count();
            prop_assert_eq!(written, held as usize, "`{}`", s);
        }
    }
}
