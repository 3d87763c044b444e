//! The statistics plane's per-scan sample: a profiled sequential scan
//! sketches the attributes its filter and projection read off the scanned
//! row, over the first 4096 rows, whatever the filter decides. The expected
//! numbers were recorded from the batch-prefetch implementation this sample
//! replaced, so plans built from the sketches did not move with it.
//!
//! Its own test binary: the profiling switch is process-wide.

use ov_oodb::{sym, AttrDef, Database, Type, Value};

#[test]
fn profiled_scan_sketches_the_same_sample_as_the_batch_layer_did() {
    let mut db = Database::new(sym("SketchDb"));
    let person = db
        .create_class(
            sym("SketchPerson"),
            &[],
            vec![
                AttrDef::stored(sym("Id"), Type::Int),
                AttrDef::stored(sym("Age"), Type::Int),
                AttrDef::stored(sym("Nick"), Type::Str),
            ],
        )
        .unwrap();
    for i in 0..5000i64 {
        let nick = if i % 4 == 0 {
            Value::Null
        } else {
            Value::str(&format!("n{}", i % 7))
        };
        db.create_object(
            person,
            Value::tuple([
                ("Id", Value::Int(i)),
                ("Age", Value::Int(i % 90)),
                ("Nick", nick),
            ]),
        )
        .unwrap();
    }
    ov_oodb::metrics::set_profiling(true);
    // Planner off: the sample belongs to the sequential scan. The filter
    // rejects more than half the rows; the projection column must not be
    // biased towards the ones that pass.
    let result = ov_query::with_planner(false, || {
        ov_query::run_query(
            &db,
            "select P.Nick from P in SketchPerson where P.Age >= 50 and P.Id >= 0",
        )
    });
    ov_oodb::metrics::set_profiling(false);
    assert_eq!(result.unwrap().as_set().map(|s| s.len()), Some(8));

    let stats = ov_oodb::stats::stats()
        .class(sym("SketchPerson"))
        .snapshot();
    assert_eq!(stats.cardinality, Some(5000));
    // (rows, nulls, ndv, min, max) per sketched attribute.
    let expected = [
        ("Age", 4096, 0, 133, Value::Int(0), Value::Int(89)),
        ("Id", 4096, 0, 3483, Value::Int(0), Value::Int(4095)),
        ("Nick", 4096, 1024, 7, Value::str("n0"), Value::str("n6")),
    ];
    assert_eq!(stats.attrs.len(), expected.len(), "{stats:?}");
    for (name, rows, nulls, ndv, min, max) in expected {
        let a = &stats.attrs[&sym(name)];
        assert_eq!(
            (a.rows, a.nulls, a.ndv, &a.min, &a.max),
            (rows, nulls, ndv, &Some(min), &Some(max)),
            "{name}"
        );
        assert_eq!(a.null_fraction, nulls as f64 / rows as f64, "{name}");
    }
}
