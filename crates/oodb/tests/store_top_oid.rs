//! The top of the base oid range. A process of its own: replaying the
//! topmost base oid raises the process-wide allocator to the imaginary
//! range, after which no store in the process can allocate a fresh oid.

use ov_oodb::ids::IMAGINARY_OID_BASE;
use ov_oodb::{ClassId, Oid, OodbError, Store, StoredObject, Tuple};

#[test]
fn the_topmost_base_oid_costs_one_page_and_the_imaginary_range_is_refused() {
    let top = Oid(IMAGINARY_OID_BASE - 1);
    let object = |oid| StoredObject {
        oid,
        class: ClassId(0),
        value: Tuple::new(),
    };
    let mut store = Store::new();
    store
        .insert_with_oid(Oid(3), ClassId(0), Tuple::new())
        .unwrap();
    store
        .insert_with_oid(top, ClassId(0), Tuple::new())
        .unwrap();
    assert_eq!((store.len(), store.pages()), (2, 2));
    assert_eq!(store.get(top), Some(&object(top)));
    assert_eq!(store.sorted_oids(), vec![Oid(3), top]);
    store.remove(top).unwrap();
    assert_eq!((store.len(), store.pages()), (1, 1));

    // A WAL or snapshot naming an imaginary oid is a damaged file, not a
    // reason to seat a view's object in a base store.
    for imaginary in [Oid(IMAGINARY_OID_BASE), Oid(u64::MAX)] {
        let replayed = store.insert_with_oid(imaginary, ClassId(0), Tuple::new());
        assert!(
            matches!(replayed, Err(OodbError::Corrupt { .. })),
            "{replayed:?}"
        );
        let restored = Store::new().restore(vec![object(imaginary)], 1);
        assert!(
            matches!(restored, Err(OodbError::Corrupt { .. })),
            "{restored:?}"
        );
    }
    assert_eq!((store.len(), store.pages()), (1, 1));
    let mut restored = Store::new();
    restored
        .restore(vec![object(top), object(Oid(3))], 9)
        .unwrap();
    assert_eq!(
        (restored.len(), restored.pages(), restored.version()),
        (2, 2, 9)
    );
}
