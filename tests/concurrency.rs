//! The concurrent read path, end to end: `View` is `Send + Sync`, N reader
//! threads sharing one view agree with a sequential baseline, and the
//! population cache counts hits under contention. Each reader runs
//! its scans on its own thread.

use objects_and_views::prelude::*;

const N_PEOPLE: i64 = 400;
const N_READERS: usize = 8;

fn staff_system() -> System {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Staff;
        class Person type [Name: string, Age: integer, Income: integer];
        "#,
    )
    .unwrap();
    let handle = sys.database(sym("Staff")).unwrap();
    let mut db = handle.write();
    let person = db.schema.require_class(sym("Person")).unwrap();
    for i in 0..N_PEOPLE {
        db.create_object(
            person,
            Value::tuple([
                (sym("Name"), Value::str(&format!("p{i}"))),
                (sym("Age"), Value::Int(i % 90)),
                (sym("Income"), Value::Int((i * 997) % 150_000)),
            ]),
        )
        .unwrap();
    }
    drop(db);
    sys
}

fn adult_view(sys: &System, options: ViewOptions) -> View {
    ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 18);
        class Rich includes (select P from Person where P.Income >= 100000);
        attribute Label in class Adult has value "adult";
        "#,
    )
    .unwrap()
    .binder(sys)
    .options(options)
    .bind()
    .unwrap()
}

/// The tentpole guarantee, checked at compile time: a view can be shared
/// across threads by reference.
#[test]
fn view_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<View>();
    assert_send_sync::<ViewStats>();
    assert_send_sync::<ViewOptions>();
}

/// N reader threads hammer one shared view — extents, queries, attribute
/// resolution — and every thread must observe exactly the sequential
/// baseline's answers.
#[test]
fn concurrent_readers_agree_with_sequential_baseline() {
    let sys = staff_system();
    let view = adult_view(&sys, ViewOptions::default());

    // Sequential baseline, computed before any concurrency.
    let base_adults = view.extent_of(sym("Adult")).unwrap();
    let base_rich = view.extent_of(sym("Rich")).unwrap();
    let base_q = view
        .query("select P.Name from P in Adult where P.Income >= 100000")
        .unwrap();
    let expected_adults = (0..N_PEOPLE).filter(|i| i % 90 >= 18).count();
    assert_eq!(base_adults.len(), expected_adults);

    std::thread::scope(|s| {
        for _ in 0..N_READERS {
            s.spawn(|| {
                for _ in 0..10 {
                    assert_eq!(view.extent_of(sym("Adult")).unwrap(), base_adults);
                    assert_eq!(view.extent_of(sym("Rich")).unwrap(), base_rich);
                    assert_eq!(
                        view.query("select P.Name from P in Adult where P.Income >= 100000")
                            .unwrap(),
                        base_q
                    );
                }
            });
        }
    });
}

/// Cold-start contention: many threads request the same population at
/// once. Whoever wins the race computes; everyone gets the same answer,
/// and the stats account for every request as either a hit or a miss.
#[test]
fn cold_start_race_converges_and_stats_account() {
    let sys = staff_system();
    let view = adult_view(&sys, ViewOptions::default());
    let results: Vec<Vec<Oid>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..N_READERS)
            .map(|_| s.spawn(|| view.extent_of(sym("Adult")).unwrap()))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &results[1..] {
        assert_eq!(r, &results[0]);
    }
    let st = view.stats();
    // Every thread's first read either hit the cache or recomputed; later
    // reads of the warm cache are hits. Nothing is double-counted.
    assert!(st.recomputations >= 1, "someone must have computed");
    assert!(
        st.cache_hits + st.cache_misses >= N_READERS as u64,
        "each reader accounted: hits={} misses={}",
        st.cache_hits,
        st.cache_misses
    );
}

/// An index is built by the first probe that reads it, once: four readers
/// probing one unbuilt index at once cause one build and read the same
/// answers. A write made before the first probe is in the build; one made
/// after it is maintained. (No other test in this binary indexes, so the
/// process-wide counter moves for this test alone.)
#[test]
fn concurrent_first_probes_build_an_index_once() {
    use std::sync::Barrier;
    let sys = staff_system();
    let handle = sys.database(sym("Staff")).unwrap();
    let person = handle.read().schema.require_class(sym("Person")).unwrap();
    let late = |name: &str| {
        Value::tuple([
            (sym("Name"), Value::str(name)),
            (sym("Age"), Value::Int(200)),
            (sym("Income"), Value::Int(0)),
        ])
    };
    let before = {
        let mut db = handle.write();
        db.create_index(person, sym("Age")).unwrap();
        db.create_object(person, late("before")).unwrap()
    };
    let builds = objects_and_views::oodb::registry().counter("oodb.index.builds");
    let built = builds.get();
    let ages = [Value::Int(17), Value::Int(89), Value::Int(200), Value::Null];
    let barrier = Barrier::new(4);
    let answers: Vec<Vec<Vec<Oid>>> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let db = handle.read();
                    ages.iter()
                        .map(|age| db.indexed_deep_lookup(person, sym("Age"), age).unwrap())
                        .collect()
                })
            })
            .collect();
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_eq!(builds.get() - built, 1, "one build for four first probes");
    let db = handle.read();
    for (age, got) in ages.iter().zip(&answers[0]) {
        let scan: Vec<Oid> = db
            .deep_extent(person)
            .into_iter()
            .filter(|&o| db.stored_attr(o, sym("Age")).unwrap() == age)
            .collect();
        assert_eq!(got, &scan, "age {age}");
    }
    assert_eq!(answers[0][2], vec![before], "the write before the probe");
    assert!(answers.iter().all(|a| a == &answers[0]));
    drop(db);
    let after = handle.write().create_object(person, late("after")).unwrap();
    let db = handle.read();
    let found = db.indexed_deep_lookup(person, sym("Age"), &Value::Int(200));
    assert_eq!(
        found,
        Some(vec![before, after]),
        "the write after the probe"
    );
    assert_eq!(builds.get() - built, 1, "maintained, not rebuilt");
}

/// Warm-cache reads are all hits, and every thread's are counted.
#[test]
fn warm_cache_hits_count_per_thread() {
    let sys = staff_system();
    let view = adult_view(&sys, ViewOptions::default());
    view.extent_of(sym("Adult")).unwrap(); // warm
    let before = view.stats();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..5 {
                    view.extent_of(sym("Adult")).unwrap();
                }
            });
        }
    });
    let after = view.stats();
    assert_eq!(after.cache_hits - before.cache_hits, 20);
    assert_eq!(after.recomputations, before.recomputations);
}

/// Virtual attributes resolve correctly from reader threads: resolution
/// walks populations (privileged visibility, cycle guards) whose state is
/// now thread-local.
#[test]
fn attribute_resolution_across_threads() {
    let sys = staff_system();
    let view = adult_view(&sys, ViewOptions::default());
    let adults = view.extent_of(sym("Adult")).unwrap();
    let sample: Vec<Oid> = adults.into_iter().take(32).collect();
    std::thread::scope(|s| {
        for _ in 0..N_READERS {
            s.spawn(|| {
                for &o in &sample {
                    let v =
                        objects_and_views::query::eval_attr(&view, o, sym("Label"), &[]).unwrap();
                    assert_eq!(v, Value::str("adult"));
                }
            });
        }
    });
}

/// §5.1 under a cold-start race: eight threads released together populate
/// one fresh imaginary class, every one recomputing, and each reads a core
/// attribute of every oid it was handed. The identity table hands a
/// tuple's oid to whichever thread maps that tuple next, so the object
/// must exist by then: a read never answers `UnknownObject`, and the
/// threads agree on one oid per tuple.
#[test]
fn an_imaginary_oid_is_an_object_as_soon_as_any_thread_holds_it() {
    let sys = staff_system();
    let distinct_ages = N_PEOPLE.min(90) as usize;
    for round in 0..20 {
        let view = ViewDef::from_script(
            r#"
            create view V;
            import all classes from database Staff;
            class AgeGroup includes imaginary (select [Age: P.Age] from P in Person);
            "#,
        )
        .unwrap()
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .materialization(Materialization::AlwaysRecompute)
                .build(),
        )
        .bind()
        .unwrap();
        let start = std::sync::Barrier::new(N_READERS);
        let by_thread: Vec<Vec<(Value, Oid)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..N_READERS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let groups = view.extent_of(sym("AgeGroup")).unwrap();
                        groups
                            .into_iter()
                            .map(|g| {
                                let age = view.attr(g, sym("Age")).unwrap_or_else(|e| {
                                    panic!("round {round}: {g} unreadable: {e}")
                                });
                                (age, g)
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(by_thread[0].len(), distinct_ages);
        for seen in &by_thread[1..] {
            assert_eq!(seen, &by_thread[0], "round {round}: one oid per tuple");
        }
        assert_eq!(view.identity_table_len(sym("AgeGroup")), distinct_ages);
    }
}

/// An incremental view whose cached version falls behind a trimmed journal
/// must fall back to full recomputation — and still agree, under concurrent
/// writers, with a freshly-bound view's population.
#[test]
fn journal_gap_under_concurrent_writers_forces_recompute() {
    let sys = staff_system();
    let handle = sys.database(sym("Staff")).unwrap();
    // A tiny journal: a handful of writes outrun the retained window.
    const JOURNAL_CAP: usize = 8;
    handle.write().store.set_journal_cap(JOURNAL_CAP);

    let view = adult_view(
        &sys,
        ViewOptions::builder()
            .materialization(Materialization::Incremental)
            .build(),
    );
    // Warm the cache at the current version.
    let warm = view.extent_of(sym("Adult")).unwrap();
    assert!(!warm.is_empty());
    let stats_before = view.stats();

    // Concurrent writers push far more than JOURNAL_CAP mutations, so the
    // cached version predates the journal floor by the time readers look.
    let person = {
        let db = handle.read();
        db.schema.require_class(sym("Person")).unwrap()
    };
    const WRITERS: usize = 4;
    const WRITES_EACH: usize = 16;
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let handle = &handle;
            scope.spawn(move || {
                for i in 0..WRITES_EACH {
                    let mut db = handle.write();
                    db.create_object(
                        person,
                        Value::tuple([
                            (sym("Name"), Value::str(&format!("w{w}-{i}"))),
                            (sym("Age"), Value::Int(30)),
                            (sym("Income"), Value::Int(0)),
                        ]),
                    )
                    .unwrap();
                }
            });
        }
    });

    // The gap is real: the store cannot serve a delta from the cached
    // version any more.
    let cached_version_gone = {
        let db = handle.read();
        db.store.changes_since(0).is_none()
    };
    assert!(cached_version_gone, "journal should have trimmed past v0");

    let after = view.extent_of(sym("Adult")).unwrap();
    let stats_after = view.stats();
    assert!(
        stats_after.recomputations > stats_before.recomputations,
        "journal gap must force the full-recompute path, got {stats_after:?}"
    );
    assert_eq!(
        stats_after.incremental_updates, stats_before.incremental_updates,
        "no delta can be served across a journal gap"
    );
    // And the fallback is correct: identical to a view bound fresh now.
    let fresh = adult_view(&sys, ViewOptions::default());
    assert_eq!(after, fresh.extent_of(sym("Adult")).unwrap());
    assert_eq!(after.len(), warm.len() + WRITERS * WRITES_EACH);

    // The plan layer reports the same story.
    let trace = view.explain_population(sym("Adult")).unwrap();
    assert!(
        matches!(trace.path, objects_and_views::query::PopPath::CacheHit),
        "population is cached again after the recompute: {trace}"
    );
}

/// Delta patches under readers: one writer flips an object across the
/// `Adult` and `Senior` boundaries a thousand times while four threads
/// refresh and read the incrementally maintained populations. A population
/// is patched in place when only the cache holds it and copied first when a
/// reader does, and a patch computed against versions the entry no longer
/// has is dropped — so every extent a reader observes is one of the two
/// legal states, never a blend, and the end state equals a fresh bind's.
#[test]
fn readers_see_only_legal_states_while_a_writer_flips_a_boundary() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    const FLIPS: i64 = 1_000;
    const READERS: usize = 4;

    let sys = staff_system();
    let stacked = |options: ViewOptions| {
        ViewDef::from_script(
            r#"
            create view V;
            import all classes from database Staff;
            class Adult includes (select P from Person where P.Age >= 18);
            class Senior includes (select A from Adult where A.Age >= 65);
            "#,
        )
        .unwrap()
        .binder(&sys)
        .options(options)
        .bind()
        .unwrap()
    };
    let view = stacked(
        ViewOptions::builder()
            .materialization(Materialization::Incremental)
            .build(),
    );
    let handle = sys.database(sym("Staff")).unwrap();
    // The flipped object: 17 (neither class) <-> 70 (both classes).
    let target = {
        let db = handle.read();
        let person = db.schema.require_class(sym("Person")).unwrap();
        db.deep_extent(person)
            .into_iter()
            .find(|&o| db.stored_attr(o, sym("Age")).unwrap() == &Value::Int(17))
            .unwrap()
    };
    let legal = |class: &str| {
        let without = view.extent_of(sym(class)).unwrap();
        assert!(!without.contains(&target));
        let mut with = without.clone();
        with.insert(with.partition_point(|&o| o < target), target);
        [without, with]
    };
    let legal_adults = legal("Adult");
    let legal_seniors = legal("Senior");

    let done = AtomicBool::new(false);
    // Reads completed by all readers. The writer holds each flip back until
    // a read has completed since the last one, so the flips are spread over
    // the readers' work instead of landing in one scheduler quantum.
    let progress = AtomicUsize::new(0);
    let start = std::sync::Barrier::new(READERS + 1);
    let observed: Vec<usize> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let (view, done, start, progress) = (&view, &done, &start, &progress);
                let (legal_adults, legal_seniors) = (&legal_adults, &legal_seniors);
                scope.spawn(move || {
                    start.wait();
                    let mut reads = 0;
                    while !done.load(Ordering::Acquire) {
                        if (reads + r) % 2 == 0 {
                            view.refresh().unwrap();
                        }
                        let seniors = view.extent_of(sym("Senior")).unwrap();
                        let adults = view.extent_of(sym("Adult")).unwrap();
                        assert!(legal_adults.contains(&adults), "blended Adult extent");
                        assert!(legal_seniors.contains(&seniors), "blended Senior extent");
                        reads += 1;
                        progress.fetch_add(1, Ordering::Release);
                    }
                    reads
                })
            })
            .collect();
        start.wait();
        for flip in 0..FLIPS {
            let age = if flip % 2 == 0 { 70 } else { 17 };
            let seen = progress.load(Ordering::Acquire);
            handle
                .write()
                .set_attr(target, sym("Age"), Value::Int(age))
                .unwrap();
            while progress.load(Ordering::Acquire) == seen {
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::Release);
        readers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(observed.iter().sum::<usize>() >= FLIPS as usize);

    // FLIPS is even: the object ends where it began, and the maintained
    // populations equal those of a view bound fresh now.
    let fresh = stacked(ViewOptions::default());
    for (class, legal) in [("Adult", &legal_adults), ("Senior", &legal_seniors)] {
        let end = view.extent_of(sym(class)).unwrap();
        assert_eq!(end, fresh.extent_of(sym(class)).unwrap());
        assert_eq!(end, legal[0]);
    }
    let stats = view.stats();
    assert!(stats.incremental_updates > 0, "no delta fired: {stats:?}");
}

/// Point reads through the `Adults → Earners → Top` stack while a writer
/// forces recomputes. Two readers read `boss.Name`, `boss.Address.City`
/// (whose body reads `City` and the hidden `Street` inside a body bracket)
/// and `boss.Street` (hidden at depth 0) in both engines, and `boss.Street`
/// and `boss.Address.Street` inside a body bracket of their own, where
/// `Street` is visible; a third thread flips other people across the
/// `Adult` and `Elite` boundaries and repopulates the stack, so population
/// brackets open and close beside the readers' class verdicts of both
/// sides, which they leave under the one resolution generation. Every
/// answer equals a fresh bind's, read at the same depth.
#[test]
fn point_reads_agree_with_a_fresh_bind_while_recomputes_leave_the_generation() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    const FLIPS: i64 = 500;
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Staff;
        class Person type [Name: string, Age: integer, City: string, Street: string,
                           Income: integer];
        object #1 in Person value [Name: "Boss", Age: 64, City: "Paris", Street: "Rivoli",
                                   Income: 250000];
        object #2 in Person value [Name: "Ann", Age: 17, City: "Roma", Street: "Appia",
                                   Income: 150000];
        object #3 in Person value [Name: "Bob", Age: 40, City: "Oslo", Street: "Karl Johan",
                                   Income: 20000];
        name boss = #1;
        name ann = #2;
        "#,
    )
    .unwrap();
    let defs = [
        "create view Adults;
         import all classes from database Staff;
         attribute Address in class Person has value [City: self.City, Street: self.Street];
         class Adult includes (select P from P in Person where P.Age >= 21);",
        "create view Earners;
         import all classes from view Adults;
         class Rich includes (select A from A in Adult where A.Income >= 100000);",
        "create view Top;
         import all classes from view Earners;
         class Elite includes (select R from R in Rich where R.Age >= 60);
         hide attribute Street in class Person;",
    ]
    .map(|d| ViewDef::from_script(d).unwrap());
    // Each level bound over the one below, which populates what it declares.
    let bind = || {
        let adults = std::sync::Arc::new(defs[0].binder(&sys).bind().unwrap());
        let earners = std::sync::Arc::new(defs[1].binder(&sys).over(&adults).bind().unwrap());
        defs[2].binder(&sys).over(&earners).bind().unwrap()
    };
    let reads = [
        "boss.Name",
        "boss.Address.City",
        "boss.Street",
        "select P.Address.City from P in {boss}",
    ];
    let body_reads = ["boss.Street", "boss.Address.Street"];
    let answers = |view: &View| {
        let key = DataSource::frame_key(view).unwrap();
        let in_body = ov_query::in_view(key, None, || {
            body_reads.map(|q| view.query(q).map_err(|e| e.to_string()))
        });
        (
            reads.map(|q| view.query(q).map_err(|e| e.to_string())),
            in_body,
        )
    };
    let expected = answers(&bind());
    assert_eq!(expected.0[0], Ok(Value::str("Boss")));
    assert_eq!(expected.0[1], Ok(Value::str("Paris")));
    assert!(expected.0[2].is_err(), "Street is hidden at depth 0");
    assert_eq!(
        expected.1,
        [Ok(Value::str("Rivoli")), Ok(Value::str("Rivoli"))]
    );

    let view = bind();
    let handle = sys.database(sym("Staff")).unwrap();
    let ann = DataSource::named_object(&view, sym("ann")).unwrap();
    let generation = DataSource::resolution_generation(&view);
    let done = AtomicBool::new(false);
    let progress = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    assert_eq!(answers(&view), expected);
                    progress.fetch_add(1, Ordering::Release);
                }
            });
        }
        s.spawn(|| {
            for flip in 0..FLIPS {
                let age = if flip % 2 == 0 { 70 } else { 17 };
                handle
                    .write()
                    .set_attr(ann, sym("Age"), Value::Int(age))
                    .unwrap();
                let elite = view.extent_of(sym("Elite")).unwrap();
                assert_eq!(elite.contains(&ann), age == 70);
                // Hold the next flip until a read ran since this one.
                let seen = progress.load(Ordering::Acquire);
                while progress.load(Ordering::Acquire) == seen {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::Release);
        });
    });
    assert_eq!(
        DataSource::resolution_generation(&view),
        generation,
        "no recompute moves the generation"
    );
    assert_eq!(answers(&view), answers(&bind()));
    assert_eq!(answers(&view), expected);
}
