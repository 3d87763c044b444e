//! Property tests for the view layer's core guarantees:
//!
//! * imaginary identity (§5.1): same core tuple ⇒ same oid, across
//!   arbitrary interleavings of updates and recomputations; distinct
//!   tuples ⇒ distinct oids;
//! * specialization populations always agree with re-filtering the base;
//! * hiding an attribute makes it unreachable from every user query path;
//! * hierarchy inference produces an acyclic hierarchy respecting R1/R2;
//! * static typing names the definition evaluation reads, over random
//!   multiple inheritance, hides and conflict policies;
//! * an equality index never changes an answer: probes and
//!   equality-defined populations agree across planner on / planner off /
//!   interpreter / no indexes, whatever overrides, hides, virtual-class
//!   definitions and partial imports stand between the query and the
//!   stored field;
//! * a point read through a view reads the same cold, warm (from the view's
//!   class verdict) and on a fresh bind, in both engines, and a read inside
//!   a computed body sees through the hides whatever depth 0 keeps;
//! * a population is the same set whatever feeds its row loop — the whole
//!   extent, index postings, the journal delta — and a
//!   budget governs every one of those sources by the same charge formula,
//!   one step per candidate and one row per member;
//! * an imaginary class of the canonical shape goes through that row loop
//!   and comes out as the tree walker's answer mapped to oids in set order:
//!   same population, same core tuples, same identity table.

use ov_oodb::{sym, ClassId, Database, Oid, OodbError, Symbol, System, Type, Value};
use ov_query::{Budget, DataSource, PopPath, QueryError, ResolvedAttr};
use ov_views::{IdentityMode, Materialization, View, ViewDef, ViewError, ViewOptions};
use proptest::prelude::*;

/// Reads the population of `class` and checks it against its own trace:
/// when the read recomputed, the last scan event of the class matched as
/// many rows as the population holds — plus, when `nested`, whatever the
/// populations that ran inside its row test matched (an actuals frame
/// includes the frames nested in it).
fn population(view: &View, class: &str, nested: bool) -> Result<Vec<Oid>, String> {
    let (oids, traces) = ov_query::plan::collect(|| view.extent_of(sym(class)));
    let oids = oids.map_err(|e| e.to_string())?;
    let trace = traces.iter().rev().find(|t| t.class == sym(class));
    if let Some(PopPath::FullRecompute { scans }) = trace.map(|t| &t.path) {
        let matched = scans
            .last()
            .expect("one scan per include")
            .actuals
            .rows_matched;
        let members = oids.len() as u64;
        assert!(
            matched == members || (nested && matched > members),
            "{class} has {members} members: {scans:?}"
        );
    }
    Ok(oids)
}

/// Builds a people database with the given (name, age) rows.
fn people_db(rows: &[(String, i64)]) -> System {
    let mut sys = System::new();
    let mut db = Database::new(sym("P"));
    let person = db
        .create_class(
            sym("Person"),
            &[],
            vec![
                ov_oodb::AttrDef::stored(sym("Name"), Type::Str),
                ov_oodb::AttrDef::stored(sym("Age"), Type::Int),
            ],
        )
        .unwrap();
    for (name, age) in rows {
        db.create_object(
            person,
            Value::tuple([("Name", Value::str(name)), ("Age", Value::Int(*age))]),
        )
        .unwrap();
    }
    sys.add_database(db).unwrap();
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A specialization class's population equals re-filtering the base —
    /// after any sequence of age updates.
    #[test]
    fn specialization_tracks_base(
        rows in prop::collection::vec(("[a-z]{1,6}", 0i64..100), 1..10),
        updates in prop::collection::vec((any::<prop::sample::Index>(), 0i64..100), 0..6),
        threshold in 0i64..100,
    ) {
        let sys = people_db(
            &rows.iter().map(|(n, a)| (n.clone(), *a)).collect::<Vec<_>>(),
        );
        let def = ViewDef::from_script(&format!(
            "create view V; import all classes from database P; \
             class Old includes (select X from Person where X.Age >= {threshold});"
        ))
        .unwrap();
        let view = def.binder(&sys).bind().unwrap();
        let incremental = def
            .binder(&sys).options(ViewOptions::builder()
                    .materialization(Materialization::Incremental)
                    .build()).bind()
            .unwrap();
        // Warm the incremental cache so deltas actually apply.
        incremental.extent_of(sym("Old")).unwrap();
        let db = sys.database(sym("P")).unwrap();
        for (ix, new_age) in &updates {
            let oids = {
                let d = db.read();
                d.deep_extent(d.schema.class_by_name(sym("Person")).unwrap())
            };
            let target = oids[ix.index(oids.len())];
            db.write().set_attr(target, sym("Age"), Value::Int(*new_age)).unwrap();
            // Check agreement after each update.
            let expected: usize = {
                let d = db.read();
                oids.iter()
                    .filter(|&&o| {
                        matches!(d.stored_attr(o, sym("Age")).unwrap(),
                                 Value::Int(a) if *a >= threshold)
                    })
                    .count()
            };
            let got = view.extent_of(sym("Old")).unwrap().len();
            prop_assert_eq!(got, expected);
            // Incremental maintenance agrees with recomputation.
            let inc = incremental.extent_of(sym("Old")).unwrap();
            prop_assert_eq!(inc, view.extent_of(sym("Old")).unwrap());
        }
    }

    /// Incremental maintenance agrees with recomputation through a
    /// three-level view stack, whether a write is pushed through the stack
    /// eagerly (`Session::propagate`) or found by the next lazy read: after
    /// every insert, update and delete, each delta-decided population, read
    /// through every level above the view that declares it, equals that of
    /// a stack bound always recomputing, and so does each level's read of
    /// two classes a delta cannot decide — one reads a named object the
    /// writes also change, one draws from an imaginary class. The imaginary
    /// class `Band` defines `Age`, which a base object never reads through
    /// it, so `Adult` stays delta-decided; read through the top view it has
    /// the oids it has in the bottom one. No delta-decided population
    /// recomputes after its cold read, which its declaring view makes.
    #[test]
    fn stacked_incremental_agrees_with_recomputation(
        rows in prop::collection::vec((0i64..100, 0i64..200), 1..10),
        writes in prop::collection::vec(
            (0u8..5, any::<prop::sample::Index>(), 0i64..100, 0i64..200, any::<bool>()),
            1..12,
        ),
    ) {
        const STACK: [&str; 3] = [
            "create view Adults; import all classes from database Staff; \
             class Adult includes (select P from Person where P.Age >= 21); \
             class Junior includes (select P from Person where P.Age < boss.Age); \
             class Band includes imaginary \
                 (select [Age: P.Age] from P in Person where P.Age >= 21); \
             class Seasoned includes (select B from B in Band where B.Age >= 60);",
            "create view Earners; import all classes from view Adults; \
             class Rich includes (select A from Adult where A.Income >= 100);",
            "create view Top; import all classes from view Earners; \
             class Elite includes (select R from Rich where R.Age >= 60);",
        ];
        const POPULATIONS: [(usize, &str); 6] = [
            (0, "Adult"), (1, "Adult"), (1, "Rich"), (2, "Adult"), (2, "Rich"), (2, "Elite"),
        ];
        // Declared at level 0 and read through every level; each with the
        // attribute it reads.
        const UNDECIDED: [(&str, &str); 2] = [("Junior", "Age"), ("Seasoned", "Age")];
        // The delta-decided recomputes among `traces`.
        let recomputes = |traces: &[ov_query::PopulationTrace]| {
            traces
                .iter()
                .filter(|t| POPULATIONS.iter().any(|&(_, c)| t.class == sym(c)))
                .filter(|t| matches!(t.path, PopPath::FullRecompute { .. }))
                .count()
        };
        let mut session = ov_views::Session::new();
        session
            .execute(
                "database Staff; class Person type [Age: integer, Income: integer]; \
                 class Boss type [Age: integer]; object #1 in Boss value [Age: 50]; \
                 name boss = #1;",
            )
            .unwrap();
        session.execute(&STACK.concat()).unwrap();
        let db = session.system().database(sym("Staff")).unwrap();
        let person = db.read().schema.class_by_name(sym("Person")).unwrap();
        let boss = db.read().named(sym("boss")).unwrap();
        let row = |age: i64, income: i64| {
            Value::tuple([("Age", Value::Int(age)), ("Income", Value::Int(income))])
        };
        for (age, income) in &rows {
            db.write().create_object(person, row(*age, *income)).unwrap();
        }
        let defs: Vec<ViewDef> = STACK.iter().map(|s| ViewDef::from_script(s).unwrap()).collect();
        // Always recomputing, by a sequential scan, at every level: each
        // level is bound over the one below.
        let mut recomputing: Vec<std::sync::Arc<View>> = Vec::new();
        for def in &defs {
            let view = def
                .binder(session.system())
                .over_all(&recomputing)
                .options(
                    ViewOptions::builder()
                        .materialization(Materialization::AlwaysRecompute)
                        .build(),
                )
                .bind()
                .unwrap();
            recomputing.push(std::sync::Arc::new(view));
        }
        let maintained = |level: usize| {
            session.view(defs[level].name).expect("view of the stack")
        };
        // Warm every population, so every write below is a delta in the
        // view that declares each delta-decided class: its cold read is its
        // one recompute, and the levels above read it from there.
        for level in 0..3 {
            let ((), traces) = ov_query::plan::collect(|| {
                for (_, class) in POPULATIONS.iter().filter(|&&(l, _)| l == level) {
                    maintained(level).extent_of(sym(class)).unwrap();
                }
                for (class, _) in UNDECIDED {
                    maintained(level).extent_of(sym(class)).unwrap();
                }
            });
            prop_assert_eq!(recomputes(&traces), 1, "cold populates only");
        }
        // The writes go to the database directly, and the property picks
        // whether the stack is warmed eagerly before the reads.
        for (kind, target, age, income, eager) in &writes {
            let oids = db.read().deep_extent(person);
            let target = (!oids.is_empty()).then(|| oids[target.index(oids.len())]);
            match (kind, target) {
                (1, Some(oid)) => db.write().set_attr(oid, sym("Age"), Value::Int(*age)).unwrap(),
                (2, Some(oid)) => {
                    db.write().set_attr(oid, sym("Income"), Value::Int(*income)).unwrap()
                }
                (3, Some(oid)) => {
                    db.write().delete_object(oid).unwrap();
                }
                (4, _) => db.write().set_attr(boss, sym("Age"), Value::Int(*age)).unwrap(),
                _ => {
                    db.write().create_object(person, row(*age, *income)).unwrap();
                }
            }
            if *eager {
                let (refreshed, traces) =
                    ov_query::plan::collect(|| session.propagate(sym("Staff")));
                prop_assert_eq!(refreshed, 3);
                prop_assert_eq!(recomputes(&traces), 0, "a delta-decided class recomputed");
            }
            // Both sources hold the same set: the delta and the sequential
            // scan.
            for (level, class) in POPULATIONS {
                let (delta, traces) =
                    ov_query::plan::collect(|| maintained(level).extent_of(sym(class)).unwrap());
                prop_assert_eq!(recomputes(&traces), 0, "{} recomputed", class);
                prop_assert_eq!(
                    population(&recomputing[level], class, false).as_ref(),
                    Ok(&delta),
                    "{} in view {}",
                    class,
                    defs[level].name
                );
            }
            // One identity table: the top view reads `Band`'s objects from
            // the bottom one.
            prop_assert_eq!(
                maintained(2).extent_of(sym("Band")).unwrap(),
                maintained(0).extent_of(sym("Band")).unwrap()
            );
            for level in 0..3 {
                for (class, attr) in UNDECIDED {
                    let read = |view: &View| {
                        view.query(&format!("select X.{attr} from X in {class}")).unwrap()
                    };
                    prop_assert_eq!(
                        read(maintained(level)),
                        read(&recomputing[level]),
                        "{} in view {}",
                        class,
                        defs[level].name
                    );
                }
            }
        }
        for level in 0..3 {
            let stats = maintained(level).stats();
            prop_assert!(stats.incremental_updates >= writes.len() as u64);
        }
        // One thread never holds a population across its own write, so
        // every patch above was in place. (Process-wide counter: nothing
        // else in this binary reads a view from two threads.)
        prop_assert_eq!(
            ov_oodb::metrics::registry().counter("views.delta_copies").get(),
            0
        );
    }

    /// Imaginary identity: equal core tuples keep their oid across
    /// arbitrary unrelated updates and across rebinds of the view against
    /// the same system; distinct tuples get distinct oids.
    #[test]
    fn imaginary_identity_is_a_function(
        rows in prop::collection::vec(("[a-z]{1,6}", 0i64..5), 1..8),
        updates in prop::collection::vec(
            (any::<prop::sample::Index>(), 0i64..5, any::<bool>()),
            0..6,
        ),
    ) {
        let sys = people_db(
            &rows.iter().map(|(n, a)| (n.clone(), *a)).collect::<Vec<_>>(),
        );
        let def = ViewDef::from_script(
            "create view V; import all classes from database P; \
             class AgeGroup includes imaginary (select [Age: X.Age] from X in Person);",
        )
        .unwrap();
        let mut view = def.binder(&sys).bind().unwrap();
        // Record the oid of each distinct age currently present.
        let mut seen: std::collections::HashMap<i64, ov_oodb::Oid> =
            std::collections::HashMap::new();
        let db = sys.database(sym("P")).unwrap();
        let oids = {
            let d = db.read();
            d.deep_extent(d.schema.class_by_name(sym("Person")).unwrap())
        };
        let mut observe = |view: &ov_views::View| -> Result<(), TestCaseError> {
            let groups = view.extent_of(sym("AgeGroup")).unwrap();
            for g in groups {
                let age = view.attr(g, sym("Age")).unwrap().as_int().unwrap();
                match seen.get(&age) {
                    None => {
                        // New age value: must be a brand-new oid.
                        prop_assert!(!seen.values().any(|&o| o == g));
                        seen.insert(age, g);
                    }
                    Some(&prev) => prop_assert_eq!(prev, g, "age {} changed oid", age),
                }
            }
            Ok(())
        };
        observe(&view)?;
        for (ix, new_age, rebind) in &updates {
            if *rebind {
                view = def.binder(&sys).bind().unwrap();
            }
            let target = oids[ix.index(oids.len())];
            db.write().set_attr(target, sym("Age"), Value::Int(*new_age)).unwrap();
            observe(&view)?;
        }
    }

    /// Hide makes the attribute unreachable via direct access, selects, and
    /// type inference — for the class and any subclass.
    #[test]
    fn hidden_attributes_are_unreachable(
        rows in prop::collection::vec(("[a-z]{1,6}", 0i64..100), 1..6),
    ) {
        let sys = people_db(
            &rows.iter().map(|(n, a)| (n.clone(), *a)).collect::<Vec<_>>(),
        );
        let view = ViewDef::from_script(
            "create view V; import all classes from database P; \
             class Old includes (select X from Person where X.Age >= 0); \
             hide attribute Age in class Person;",
        )
        .unwrap()
        .binder(&sys).bind()
        .unwrap();
        // Unreachable through the base class and through the virtual
        // subclass alike.
        prop_assert!(view.query("select P.Age from P in Person").is_err());
        prop_assert!(view.query("select O.Age from O in Old").is_err());
        let person = DataSource::class_by_name(&view, sym("Person")).unwrap();
        prop_assert!(DataSource::attr_sig(&view, person, sym("Age")).is_none());
        let q = ov_query::parse_select("select P.Age from P in Person").unwrap();
        prop_assert!(ov_query::infer_select(&view, &q).is_err());
        // Direct object access fails too.
        let db = sys.database(sym("P")).unwrap();
        let oid = {
            let d = db.read();
            d.deep_extent(d.schema.class_by_name(sym("Person")).unwrap())[0]
        };
        match view.attr(oid, sym("Age")) {
            Err(ViewError::Oodb(OodbError::UnknownAttr { .. })) => {}
            other => prop_assert!(false, "expected UnknownAttr, got {other:?}"),
        }
    }
}

/// A random lattice: a class count `n` and one to three subsets, each a
/// flag per class.
fn lattice() -> impl Strategy<Value = (usize, Vec<Vec<bool>>)> {
    (
        2usize..6,
        prop::collection::vec(prop::collection::vec(any::<bool>(), 6), 1..4),
    )
}

/// The attribute type of the definition class `Ki` gives a name when
/// `tags` are `i` and every ancestor of `Ki` that defines it: a tuple with
/// one integer field per tag, so each definition has a type of its own and
/// every override is covariant (width subtyping).
fn tag_type(tags: &[usize]) -> Type {
    Type::Tuple(
        tags.iter()
            .map(|t| (sym(&format!("K{t}")), Type::Int))
            .collect(),
    )
}

/// A value of a tag type, and the class whose definition has that type.
fn tag_value(ty: &Type) -> (Value, usize) {
    let Type::Tuple(fields) = ty else {
        unreachable!("tag types are tuples")
    };
    let own = fields
        .keys()
        .map(|f| f.as_str()[1..].parse::<usize>().unwrap())
        .max();
    (
        Value::tuple(fields.keys().map(|&f| (f, Value::Int(0)))),
        own.expect("a tag type names its class"),
    )
}

/// Static typing's answer about `obj.name` on `src`, where `obj` is real
/// in `class`: `attr_sig`, the field of `class_type` and `infer_expr`
/// must give one type or all fail.
fn static_type(
    src: &dyn DataSource,
    class: ClassId,
    obj: &str,
    name: Symbol,
) -> Result<Option<Type>, TestCaseError> {
    let sig = src.attr_sig(class, name).map(|s| s.ty);
    let Type::Tuple(fields) = src.class_type(class) else {
        unreachable!("class types are tuples")
    };
    let inferred = ov_query::infer_expr(
        src,
        &ov_query::parse_expr(&format!("{obj}.{name}")).unwrap(),
    );
    prop_assert_eq!(
        fields.get(&name),
        sig.as_ref(),
        "class_type of {} against attr_sig",
        obj
    );
    prop_assert_eq!(
        inferred.ok(),
        sig.clone(),
        "infer_expr of {}.{} against attr_sig",
        obj,
        name
    );
    Ok(sig)
}

/// Evaluation's answer about `obj.name` on `src` against `typed`, static
/// typing's answer — after the caller stored `typed`'s tag value in the
/// field. Both fail, or `resolve` reads the kind of definition `typed`
/// names and `run_query` a value of that type.
fn evaluation_agrees(
    src: &dyn DataSource,
    oid: Oid,
    obj: &str,
    name: Symbol,
    typed: Option<&Type>,
    stored: impl Fn(usize) -> bool,
) -> Result<(), TestCaseError> {
    let value = ov_query::run_query(src, &format!("{obj}.{name}"));
    let resolved = src.resolve(oid, name);
    match typed {
        None => {
            prop_assert!(
                value.is_err(),
                "{}.{} typed nothing but read {:?}",
                obj,
                name,
                value
            );
            prop_assert!(resolved.is_err());
        }
        Some(ty) => {
            let (_, class) = tag_value(ty);
            prop_assert_eq!(
                value.as_ref().map(ov_query::type_of_value).ok().as_ref(),
                Some(ty)
            );
            prop_assert_eq!(
                matches!(resolved, Ok(ResolvedAttr::Stored)),
                stored(class),
                "{}.{} typed as K{}'s definition",
                obj,
                name,
                class
            );
        }
    }
    Ok(())
}

/// What a point read of an attribute through a view sees.
#[derive(Debug, PartialEq)]
struct PointRead {
    /// The walker's value.
    walked: Result<Value, String>,
    /// What `resolve` reads.
    resolved: Result<ResolvedAttr, String>,
    /// The compiled engine's answer to the one-object `select`.
    compiled: Result<Value, String>,
}

/// The point read of `name` on `oid` through `view`, at body depth 0 or
/// inside one of the view's computed bodies, where its hides are
/// see-through.
fn point_read(view: &View, oid: Oid, name: Symbol, in_body: bool) -> PointRead {
    let read = || PointRead {
        walked: view.attr(oid, name).map_err(|e| e.to_string()),
        resolved: DataSource::resolve(view, oid, name).map_err(|e| e.to_string()),
        compiled: view
            .query(&format!("select O.{name} from O in {{{oid}}}"))
            .map_err(|e| e.to_string()),
    };
    if in_body {
        ov_query::in_view(DataSource::frame_key(view).unwrap(), None, read)
    } else {
        read()
    }
}

/// The point read of `name` on `oid`, first on `view`, then again there
/// (served from the view's class verdict when it has one), then on
/// `other`, another bind of the same definition: one answer, whose two
/// engines agree.
fn point_reads_agree(
    view: &View,
    other: &View,
    oid: Oid,
    name: Symbol,
    in_body: bool,
) -> Result<PointRead, TestCaseError> {
    let first = point_read(view, oid, name, in_body);
    prop_assert_eq!(
        &point_read(view, oid, name, in_body),
        &first,
        "warm {}.{}",
        oid,
        name
    );
    prop_assert_eq!(
        &point_read(other, oid, name, in_body),
        &first,
        "other bind {}.{}",
        oid,
        name
    );
    match (&first.walked, &first.compiled) {
        (Ok(walked), Ok(compiled)) => {
            prop_assert_eq!(compiled, &Value::set([walked.clone()]), "{}.{}", oid, name)
        }
        (walked, compiled) => prop_assert_eq!(walked.is_err(), compiled.is_err()),
    }
    Ok(first)
}

// Random generalization lattices: define virtual classes over random
// subsets of base classes; R1/R2 and acyclicity must hold.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn inferred_hierarchies_are_sound(
        // Base: a root with `n` children; virtual classes over random
        // non-empty subsets of the children.
        lattice in lattice(),
    ) {
        let (n, subsets) = lattice;
        let mut sys = System::new();
        let mut db = Database::new(sym("B"));
        let root = db.create_class(sym("Root"), &[], vec![]).unwrap();
        let children: Vec<(Symbol, ClassId)> = (0..n)
            .map(|i| {
                let name = sym(&format!("Leaf{i}"));
                (name, db.create_class(name, &[root], vec![]).unwrap())
            })
            .collect();
        sys.add_database(db).unwrap();

        let mut script = String::from("create view V; import all classes from database B;\n");
        let mut virtuals = Vec::new();
        for (vi, subset) in subsets.iter().enumerate() {
            let picked: Vec<&str> = children
                .iter()
                .enumerate()
                .filter(|(i, _)| subset[*i % subset.len()] || *i == 0)
                .map(|(_, (name, _))| name.as_str())
                .collect();
            let vname = format!("V{vi}_{n}");
            script.push_str(&format!("class {} includes {};\n", vname, picked.join(", ")));
            virtuals.push((vname, picked));
        }
        let view = ViewDef::from_script(&script).unwrap().binder(&sys).bind().unwrap();
        for (vname, picked) in &virtuals {
            // R2: every included class is a subclass of the virtual class.
            for p in picked {
                prop_assert!(view.is_subclass_by_name(sym(p), sym(vname)).unwrap());
                // Acyclicity: the reverse must NOT hold.
                prop_assert!(!view.is_subclass_by_name(sym(vname), sym(p)).unwrap());
            }
            // R1: Root is a superclass.
            prop_assert!(view.is_subclass_by_name(sym(vname), sym("Root")).unwrap());
        }
    }

    /// Static typing reads the definition evaluation reads. Class `Ki`
    /// inherits the earlier classes its lattice flags pick and defines
    /// each of `X` and `Y` or not, stored or computed, at its own tag type
    /// (see [`tag_type`]). For an object real in every class and each
    /// name, the type static typing gives is the type of what `run_query`
    /// reads and names the kind of definition `resolve` reads, or both
    /// fail: on the base database, and through a view with a random
    /// generalization, random hides and a random conflict policy.
    #[test]
    fn typing_reads_the_definition_evaluation_reads(
        lattice in lattice(),
        // Per class and name: 0 or 1 none, 2 stored, 3 computed.
        defs in prop::collection::vec((0u8..4, 0u8..4), 6),
        general in prop::collection::vec(any::<bool>(), 6),
        hides in prop::collection::vec((0usize..6, any::<bool>()), 0..3),
        policy in 0u8..3,
        priority in prop::collection::vec(0usize..6, 0..3),
    ) {
        use ov_oodb::ClassGraph;
        let (n, subsets) = lattice;
        let names = [sym("X"), sym("Y")];
        let mut db = Database::new(sym("L"));
        let mut ids: Vec<ClassId> = Vec::new();
        // kinds[i][a]: does `Ki` define `names[a]`, and is it stored?
        let mut kinds: Vec<[Option<bool>; 2]> = Vec::new();
        for i in 0..n {
            let parents: Vec<ClassId> =
                (0..i).filter(|&j| subsets[i % subsets.len()][j]).map(|j| ids[j]).collect();
            let own = [defs[i].0, defs[i].1].map(|d| (d >= 2).then_some(d == 2));
            let mut attrs = Vec::new();
            for (a, name) in names.iter().enumerate() {
                let Some(stored) = own[a] else { continue };
                let mut tags: Vec<usize> = parents
                    .iter()
                    .flat_map(|&p| db.schema.ancestors(p))
                    .map(|c| c.0 as usize)
                    .filter(|&j| kinds[j][a].is_some())
                    .chain([i])
                    .collect();
                tags.sort();
                tags.dedup();
                let ty = tag_type(&tags);
                attrs.push(if stored {
                    ov_oodb::AttrDef::stored(*name, ty)
                } else {
                    let (value, _) = tag_value(&ty);
                    ov_oodb::AttrDef::computed(*name, ty, ov_oodb::Expr::lit(value))
                });
            }
            ids.push(db.create_class(sym(&format!("K{i}")), &parents, attrs).unwrap());
            kinds.push(own);
        }
        let oids: Vec<Oid> = ids
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let oid = db.create_object(c, Value::empty_tuple()).unwrap();
                db.name_object(sym(&format!("o{i}")), oid).unwrap();
                oid
            })
            .collect();
        // The base database, under its creation-order default.
        for (i, &oid) in oids.iter().enumerate() {
            let obj = format!("o{i}");
            for (a, &name) in names.iter().enumerate() {
                let typed = static_type(&db, ids[i], &obj, name)?;
                if let Some(ty) = &typed {
                    db.store.set_field(oid, name, tag_value(ty).0).unwrap();
                }
                evaluation_agrees(&db, oid, &obj, name, typed.as_ref(), |k| kinds[k][a] == Some(true))?;
            }
        }

        // A view with a generalization over some classes (which become its
        // subclasses and may give it abstract signatures), hides after it
        // (on classes that can see the name) and a policy.
        let mut script = String::from("create view V; import all classes from database L;\n");
        let included: Vec<String> = (0..n).filter(|&i| general[i]).map(|i| format!("K{i}")).collect();
        if !included.is_empty() {
            script.push_str(&format!("class G includes {};\n", included.join(", ")));
        }
        for &(h, y) in &hides {
            let (class, name) = (h % n, names[usize::from(y)]);
            if db.schema.visible_attrs(ids[class]).contains_key(&name) {
                script.push_str(&format!("hide attribute {name} in class K{class};\n"));
            }
        }
        let policy = match policy {
            0 => ov_oodb::ConflictPolicy::Error,
            1 => ov_oodb::ConflictPolicy::CreationOrder,
            _ => ov_oodb::ConflictPolicy::Priority(
                priority.iter().map(|p| sym(&format!("K{}", p % n))).collect(),
            ),
        };
        let mut sys = System::new();
        sys.add_database(db).unwrap();
        let handle = sys.database(sym("L")).unwrap();
        let bind = || {
            ViewDef::from_script(&script)
                .unwrap()
                .binder(&sys)
                .options(ViewOptions::builder().policy(policy.clone()).build())
                .bind()
                .unwrap()
        };
        let view = bind();
        for (i, &oid) in oids.iter().enumerate() {
            let obj = format!("o{i}");
            let class = DataSource::class_by_name(&view, sym(&format!("K{i}"))).unwrap();
            for (a, &name) in names.iter().enumerate() {
                let typed = static_type(&view, class, &obj, name)?;
                if let Some(ty) = &typed {
                    handle.write().store.set_field(oid, name, tag_value(ty).0).unwrap();
                }
                point_reads_agree(&view, &bind(), oid, name, false)?;
                evaluation_agrees(&view, oid, &obj, name, typed.as_ref(), |k| {
                    kinds[k][a] == Some(true)
                })?;
            }
        }
    }
}

// ----------------------------------------------------------------------
// Index exactness (the `DataSource::indexed_lookup` contract)
// ----------------------------------------------------------------------

/// What stands between a query on `Id` and the stored field.
#[derive(Clone, Debug)]
struct IndexShape {
    /// The base computes `Employee.Id` (so employees store none).
    base_override: bool,
    /// The upstream view computes `Manager.Id`.
    upstream_override: bool,
    /// The top view computes `Employee.Id`.
    view_override: bool,
    /// `hide attribute Id` in the top view: nowhere / in Employee / in the
    /// scanned root.
    hide: u8,
    /// Overlapping virtual classes of the top view that define `Id`.
    virtual_defs: u8,
    /// The upstream view imports the `Employee` subtree only.
    partial: bool,
    /// After the views are bound the base gains `Intern inherits Person`:
    /// a subclass the views did not import.
    late_subclass: bool,
}

fn index_shape() -> impl Strategy<Value = IndexShape> {
    // Each obstacle is rarer than its absence, so that a good share of the
    // cases has none and the index is actually used.
    let rare = || (0u8..4).prop_map(|x| x == 0);
    (
        (rare(), rare(), rare()),
        (0u8..6, 0u8..6),
        (rare(), any::<bool>()),
    )
        .prop_map(
            |((b, u, v), (hide, virtual_defs), (partial, late))| IndexShape {
                base_override: b,
                upstream_override: u,
                view_override: v,
                hide: hide.saturating_sub(3),
                virtual_defs: virtual_defs.saturating_sub(3),
                partial,
                late_subclass: late,
            },
        )
}

#[derive(Clone, Debug)]
enum IndexStep {
    /// Create the `Id` index on one class of the subtree if it is
    /// missing, drop it if it is there.
    ToggleIndex(usize),
    /// `create_index(Person, Id)`: the whole subtree at once.
    IndexAll,
    Insert {
        class: usize,
        id: i64,
        name: String,
    },
    Set {
        target: prop::sample::Index,
        attr: usize,
        value: i64,
    },
    Delete(prop::sample::Index),
    /// Probe `class.Id = key` and check every agreement.
    Probe {
        class: usize,
        key: i64,
    },
}

fn index_step() -> impl Strategy<Value = IndexStep> {
    prop_oneof![
        (0usize..4).prop_map(IndexStep::ToggleIndex),
        Just(IndexStep::IndexAll),
        (0usize..4, 0i64..6, "[a-z]{1,3}").prop_map(|(class, id, name)| IndexStep::Insert {
            class,
            id,
            name
        }),
        (any::<prop::sample::Index>(), 0usize..2, 0i64..6).prop_map(|(target, attr, value)| {
            IndexStep::Set {
                target,
                attr,
                value,
            }
        }),
        any::<prop::sample::Index>().prop_map(IndexStep::Delete),
        (0usize..4, 0i64..6).prop_map(|(class, key)| IndexStep::Probe { class, key }),
        (0usize..4, 0i64..6).prop_map(|(class, key)| IndexStep::Probe { class, key }),
    ]
}

const STAFF_CLASSES: [&str; 4] = ["Person", "Employee", "Manager", "Intern"];

fn insert_staff(db: &mut Database, shape: &IndexShape, class: usize, id: i64, name: &str) {
    let Some(c) = db.schema.class_by_name(sym(STAFF_CLASSES[class])) else {
        return; // Intern before it exists
    };
    let mut fields = vec![("Name", Value::str(name))];
    if !(shape.base_override && matches!(class, 1 | 2)) {
        fields.push(("Id", Value::Int(id)));
    }
    if matches!(class, 1 | 2) {
        fields.push(("Salary", Value::Int(id)));
    }
    db.create_object(c, Value::tuple(fields)).unwrap();
}

/// Every way of asking the same question must give the same answer — or
/// the same error.
fn agree(what: &str, ask: impl Fn() -> Result<Value, String>) {
    let off = ov_query::with_planner(false, &ask);
    // Cached plans are process-wide and keyed by fingerprint: start cold so
    // the planner-on run really plans (and probes) under *this* schema.
    ov_query::clear_plan_cache();
    let on = ov_query::with_planner(true, &ask);
    let interp = ov_query::with_engine_mode(ov_query::EngineMode::Interp, || {
        ov_query::with_planner(false, &ask)
    });
    assert_eq!(on, off, "planner on vs off: {what}");
    assert_eq!(interp, off, "interpreter vs compiled: {what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn an_index_never_changes_an_answer(
        shape in index_shape(),
        rows in prop::collection::vec((0usize..3, 0i64..6, "[a-z]{1,3}"), 1..10),
        steps in prop::collection::vec(index_step(), 4..24),
    ) {
        let mut sys = System::new();
        let mut db = Database::new(sym("B"));
        let int = || Type::Int;
        let person = db
            .create_class(
                sym("Person"),
                &[],
                vec![
                    ov_oodb::AttrDef::stored(sym("Id"), int()),
                    ov_oodb::AttrDef::stored(sym("Name"), Type::Str),
                ],
            )
            .unwrap();
        let employee = db
            .create_class(
                sym("Employee"),
                &[person],
                vec![ov_oodb::AttrDef::stored(sym("Salary"), int())],
            )
            .unwrap();
        db.create_class(sym("Manager"), &[employee], vec![]).unwrap();
        if shape.base_override {
            let body = ov_query::parse_expr("self.Salary").unwrap();
            db.add_attr(employee, ov_oodb::AttrDef::computed(sym("Id"), int(), body))
                .unwrap();
        }
        for (class, id, name) in &rows {
            insert_staff(&mut db, &shape, *class, *id, name);
        }
        sys.add_database(db).unwrap();

        let root = if shape.partial { "Employee" } else { "Person" };
        let mut upstream = String::from("create view U;\n");
        upstream.push_str(if shape.partial {
            "import class Employee from database B;\n"
        } else {
            "import all classes from database B;\n"
        });
        if shape.upstream_override {
            upstream.push_str("attribute Id in class Manager has value 3;\n");
        }
        let mut top = String::from("create view V;\nimport all classes from view U;\n");
        if shape.view_override {
            top.push_str("attribute Id in class Employee has value self.Salary + 1;\n");
        }
        if shape.virtual_defs >= 1 {
            top.push_str(&format!(
                "class Late includes (select P from P in {root} where P.Name >= \"h\");\n\
                 attribute Id in class Late has value 4;\n"
            ));
        }
        if shape.virtual_defs >= 2 {
            top.push_str(&format!(
                "class Early includes (select P from P in {root} where P.Name < \"q\");\n\
                 attribute Id in class Early has value 5;\n"
            ));
        }
        // `Ident`'s body reads `Id` through any hide.
        top.push_str(&format!(
            "class Hit includes (select P from P in {root} where P.Id = 3);\n\
             class Tag includes imaginary (select [Key: P.Id] from P in {root});\n\
             attribute Ident in class {root} has value self.Id;\n"
        ));
        let unhidden = top.clone();
        match shape.hide {
            1 => top.push_str("hide attribute Id in class Employee;\n"),
            2 => top.push_str(&format!("hide attribute Id in class {root};\n")),
            _ => {}
        }
        // Every request recomputes, so every request meets the indexes of
        // the moment.
        let recompute = || {
            ViewOptions::builder()
                .materialization(Materialization::AlwaysRecompute)
                .build()
        };
        let upstream = std::sync::Arc::new(
            ViewDef::from_script(&upstream)
                .unwrap()
                .binder(&sys)
                .options(recompute())
                .bind()
                .unwrap(),
        );
        let bind = |script: &str| {
            ViewDef::from_script(script)
                .unwrap()
                .binder(&sys)
                .over(&upstream)
                .options(recompute())
                .bind()
                .unwrap()
        };
        let view = bind(&top);

        let handle = sys.database(sym("B")).unwrap();
        if shape.late_subclass {
            let mut d = handle.write();
            d.create_class(sym("Intern"), &[person], vec![]).unwrap();
            insert_staff(&mut d, &shape, 3, 3, "late");
        }
        let id = sym("Id");
        for step in &steps {
            match step {
                IndexStep::ToggleIndex(class) => {
                    let mut d = handle.write();
                    if let Some(c) = d.schema.class_by_name(sym(STAFF_CLASSES[*class])) {
                        if !d.store.drop_index(c, id) {
                            d.store.create_index(c, id);
                        }
                    }
                }
                IndexStep::IndexAll => handle.write().create_index(person, id).unwrap(),
                IndexStep::Insert { class, id, name } => {
                    insert_staff(&mut handle.write(), &shape, *class, *id, name);
                }
                IndexStep::Set { target, attr, value } => {
                    let mut d = handle.write();
                    let oids = d.deep_extent(person);
                    if !oids.is_empty() {
                        // Refused where the attribute is not stored.
                        let attr = [id, sym("Salary")][*attr];
                        let _ = d.set_attr(oids[target.index(oids.len())], attr, Value::Int(*value));
                    }
                }
                IndexStep::Delete(target) => {
                    let mut d = handle.write();
                    let oids = d.deep_extent(person);
                    if oids.len() > 1 {
                        d.delete_object(oids[target.index(oids.len())]).unwrap();
                    }
                }
                IndexStep::Probe { class, key } => {
                    let through = |q: String| {
                        let view = &view;
                        move || view.query(&q).map_err(|e| e.to_string())
                    };
                    // Through the view stack: the drawn class and key, and
                    // every key on the root class…
                    let probes = std::iter::once((STAFF_CLASSES[*class], *key))
                        .chain((0..6).map(|k| (root, k)));
                    for (class, key) in probes {
                        let q = format!("select P.Name from P in {class} where P.Id = {key}");
                        agree(&q, through(q.clone()));
                    }
                    // …an imaginary class (never indexed)…
                    let q = format!("select T.Key from T in Tag where T.Key = {key}");
                    agree(&q, through(q.clone()));
                    // …and on the base itself.
                    let q = format!(
                        "select P.Name from P in {} where P.Id = {key} and P.Name != \"\"",
                        STAFF_CLASSES[*class]
                    );
                    agree(&q, || {
                        let d = handle.read();
                        ov_query::run_query(&*d, &q).map_err(|e| e.to_string())
                    });
                    // The equality-defined population: the same set from
                    // index postings and from the scan (the indexes of the
                    // moment, then none). Resolving `Id` populates the
                    // overlapping classes that define it.
                    let hit = || population(&view, "Hit", shape.virtual_defs > 0);
                    let with_indexes = hit();
                    let defs = handle.read().store.index_defs();
                    for (c, a) in &defs {
                        handle.write().store.drop_index(*c, *a);
                    }
                    let scanned = hit();
                    prop_assert_eq!(with_indexes, scanned, "population Hit, indexes {:?}", defs);
                    for (c, a) in defs {
                        handle.write().store.create_index(c, a);
                    }
                    // Point reads of every object, cold, warm and on fresh
                    // binds. `view` reads at depth 0 only; `body_first`
                    // reads inside a body before it reads at depth 0, so a
                    // verdict left by a body read would show there. A body
                    // read sees through the hides: it is the depth-0 read
                    // of a bind without them.
                    let top_first = bind(&top);
                    let body_first = bind(&top);
                    let open = bind(&unhidden);
                    // Objects of a class bound after the view are not in it,
                    // but they are in a fresh bind.
                    let oids = handle.read().deep_extent(person);
                    for oid in oids.into_iter().filter(|&o| DataSource::class_of(&view, o).is_ok()) {
                        let at_top = point_reads_agree(&view, &top_first, oid, id, false)?;
                        let inside = point_reads_agree(&body_first, &top_first, oid, id, true)?;
                        prop_assert_eq!(&point_read(&body_first, oid, id, false), &at_top);
                        prop_assert_eq!(&inside, &point_read(&open, oid, id, false), "{} in a body", oid);
                        point_reads_agree(&body_first, &top_first, oid, sym("Ident"), false)?;
                    }
                    // A virtual class that defines `Id` makes it a matter of
                    // membership: never a class verdict.
                    if shape.virtual_defs > 0 {
                        let c = DataSource::class_by_name(&view, sym(root)).unwrap();
                        prop_assert!(DataSource::class_verdict(&view, c, id).is_none());
                    }
                }
            }
        }
    }
}

/// EXPLAIN golden: a unique-key probe through a three-level view stack is
/// an index probe, planned once and still one on the cached plan.
#[test]
fn a_key_probe_through_a_view_stack_explains_as_an_index_probe() {
    let mut sys = System::new();
    let mut db = Database::new(sym("P"));
    let person = db
        .create_class(
            sym("Person"),
            &[],
            vec![
                ov_oodb::AttrDef::stored(sym("Id"), Type::Int),
                ov_oodb::AttrDef::stored(sym("Age"), Type::Int),
            ],
        )
        .unwrap();
    for i in 0..40 {
        db.create_object(
            person,
            Value::tuple([("Id", Value::Int(i)), ("Age", Value::Int(20 + i))]),
        )
        .unwrap();
    }
    db.create_index(person, sym("Id")).unwrap();
    sys.add_database(db).unwrap();
    let adults = ViewDef::from_script(
        "create view Adults; import all classes from database P; \
         class Adult includes (select X from Person where X.Age >= 21);",
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let earners = ViewDef::from_script(
        "create view Earners; import all classes from view Adults; \
         class Senior includes (select A from Adult where A.Age >= 50);",
    )
    .unwrap()
    .binder(&sys)
    .over(&std::sync::Arc::new(adults))
    .bind()
    .unwrap();
    let top = ViewDef::from_script(
        "create view Top; import all classes from view Earners; \
         class Elder includes (select S from Senior where S.Age >= 58);",
    )
    .unwrap()
    .binder(&sys)
    .over(&std::sync::Arc::new(earners))
    .bind()
    .unwrap();
    for id in [13, 37] {
        // A projection no other test of this binary uses: cached plans are
        // process-wide and keyed by fingerprint.
        let (value, trace) = top
            .explain(&format!(
                "select [A: P.Age] from P in Person where P.Id = {id}"
            ))
            .unwrap();
        assert_eq!(value.as_set().map(|s| s.len()), Some(1));
        let trace = trace.to_string();
        assert!(
            trace.contains("planner: strategy=index Person.Id est_rows="),
            "{trace}"
        );
        assert!(trace.contains("actuals: scanned=1 matched=1"), "{trace}");
    }
}

// ----------------------------------------------------------------------
// The row loop ≡ the walker, for imaginary classes
// ----------------------------------------------------------------------

/// `Group`'s query: canonical, an equality conjunct an index on
/// `Person.Kind` serves, and core fields that repeat and go `null`.
const GROUP_QUERY: &str = "select [Name: P.Name, Age: P.Age] from P in Person where P.Kind = 1";

/// `Ratio`'s query: filter and projection both fail on a row whose `Div`
/// is 0.
const RATIO_QUERY: &str = "select [Q: 10 / P.Div] from P in Person where 10 / P.Div >= 0";

/// One `Person` row of the imaginary-class properties; `None` is `null`.
type GroupRow = (Option<String>, Option<i64>, i64, Option<i64>);

fn group_row() -> impl Strategy<Value = GroupRow> {
    (
        prop::option::of("[ab]"),
        prop::option::of(0i64..3),
        0i64..3,
        prop::option::of(0i64..4),
    )
}

fn group_system(rows: &[GroupRow], indexed: bool) -> System {
    let mut sys = System::new();
    let mut db = Database::new(sym("P"));
    let attr = |name, ty| ov_oodb::AttrDef::stored(sym(name), ty);
    let attrs = vec![
        attr("Name", Type::Str),
        attr("Age", Type::Int),
        attr("Kind", Type::Int),
        attr("Div", Type::Int),
    ];
    let person = db.create_class(sym("Person"), &[], attrs).unwrap();
    let int = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
    for (name, age, kind, div) in rows {
        let name = name.as_deref().map_or(Value::Null, Value::str);
        let fields = [
            ("Name", name),
            ("Age", int(*age)),
            ("Kind", Value::Int(*kind)),
            ("Div", int(*div)),
        ];
        db.create_object(person, Value::tuple(fields)).unwrap();
    }
    if indexed {
        db.create_index(person, sym("Kind")).unwrap();
    }
    sys.add_database(db).unwrap();
    sys
}

fn group_view(sys: &System, options: ViewOptions) -> View {
    ViewDef::from_script(&format!(
        "create view V; import all classes from database P; \
         class Group includes imaginary ({GROUP_QUERY}); \
         class Ratio includes imaginary ({RATIO_QUERY});"
    ))
    .unwrap()
    .binder(sys)
    .options(options)
    .bind()
    .unwrap()
}

/// The tree walker's answer to `query` on the base database.
fn walked(sys: &System, query: &str) -> Result<Vec<Value>, QueryError> {
    let db = sys.database(sym("P")).unwrap();
    let db = db.read();
    let q = ov_query::parse_select(query).unwrap();
    let answer = ov_query::eval_select(&*db, &q)?;
    Ok(answer.as_set().unwrap().iter().cloned().collect())
}

/// §5.1's table as the parent builds it: the walker's distinct tuples, in
/// set order, each new one taking the next oid.
#[derive(Default)]
struct IdentityModel {
    table: std::collections::BTreeMap<Value, Oid>,
}

impl IdentityModel {
    fn populate(&mut self, tuples: &[Value]) -> Vec<Oid> {
        let mut oids: Vec<Oid> = Vec::new();
        for tuple in tuples {
            let next = Oid(ov_oodb::ids::IMAGINARY_OID_BASE + self.table.len() as u64);
            oids.push(*self.table.entry(tuple.clone()).or_insert(next));
        }
        oids.sort();
        oids
    }
}

/// Reads `Group` and checks population, core tuples, identity table and
/// the scan's own account of itself against the walker and `model`.
fn check_group(view: &View, sys: &System, model: &mut IdentityModel, what: &str) {
    let tuples = walked(sys, GROUP_QUERY).unwrap();
    let expected = model.populate(&tuples);
    let (oids, traces) = ov_query::plan::collect(|| view.extent_of(sym("Group")));
    assert_eq!(oids.unwrap(), expected, "{what}: population");
    for tuple in &tuples {
        let oid = model.table[tuple];
        let core = tuple.as_tuple().unwrap();
        for field in ["Name", "Age"] {
            let stored = view.attr(oid, sym(field)).unwrap();
            assert_eq!(
                Some(&stored),
                core.get(sym(field)),
                "{what}: {field} of {oid}"
            );
        }
    }
    assert_eq!(
        view.identity_table_len(sym("Group")),
        model.table.len(),
        "{what}: identity table"
    );
    // One measured scan: the candidates it was fed, the rows it admitted.
    let trace = traces.iter().rev().find(|t| t.class == sym("Group"));
    let Some(PopPath::FullRecompute { scans }) = trace.map(|t| &t.path) else {
        panic!("{what}: an imaginary class recomputes: {traces:?}")
    };
    let [scan] = scans.as_slice() else {
        panic!("{what}: one scan per include: {scans:?}")
    };
    let admitted = walked(sys, "select P from P in Person where P.Kind = 1").unwrap();
    assert_eq!(scan.actuals.rows_matched, admitted.len() as u64, "{what}");
    assert!(
        scan.actuals.rows_scanned >= scan.actuals.rows_matched,
        "{what}"
    );
}

/// Reads `Ratio`: the walker's answer, or the walker's error with no oid
/// assigned.
fn check_ratio(view: &View, sys: &System, model: &mut IdentityModel, what: &str) {
    match walked(sys, RATIO_QUERY) {
        Ok(tuples) => {
            // `Group` and `Ratio` draw oids from one counter; which oid a
            // ratio gets is `check_group`'s subject, so here: one object
            // per distinct tuple, stable across reads, carrying its tuple.
            let oids = view.extent_of(sym("Ratio")).unwrap();
            assert_eq!(oids.len(), tuples.len(), "{what}: Ratio");
            for oid in &oids {
                let q = view.attr(*oid, sym("Q")).unwrap();
                let tuple = Value::tuple([("Q", q)]);
                assert!(tuples.contains(&tuple), "{what}: {tuple} is no ratio");
                assert_eq!(*model.table.entry(tuple).or_insert(*oid), *oid, "{what}");
            }
        }
        Err(expected) => {
            let before = view.identity_table_len(sym("Ratio"));
            match view.extent_of(sym("Ratio")) {
                Err(ViewError::Query(e)) => assert_eq!(e.to_string(), expected.to_string()),
                other => panic!("{what}: expected `{expected}`, got {other:?}"),
            }
            assert_eq!(view.identity_table_len(sym("Ratio")), before, "{what}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An imaginary class of the canonical shape, populated by the row
    /// loop from each of its candidate sources, is the tree walker's answer
    /// mapped to oids in set order — before and after every write — and a
    /// filter that fails on some row fails the population with the
    /// walker's error.
    #[test]
    fn an_imaginary_row_loop_is_the_walker(
        rows in prop::collection::vec(group_row(), 1..12),
        writes in prop::collection::vec(
            (any::<prop::sample::Index>(), 0usize..4, prop::option::of(0i64..3)),
            0..5,
        ),
    ) {
        for indexed in [false, true] {
            let what = format!("index {indexed}");
            let sys = group_system(&rows, indexed);
            let view = group_view(&sys, ViewOptions::default());
            let (mut groups, mut ratios) = (IdentityModel::default(), IdentityModel::default());
            let db = sys.database(sym("P")).unwrap();
            let person = db.read().schema.class_by_name(sym("Person")).unwrap();
            let people = db.read().deep_extent(person);
            check_group(&view, &sys, &mut groups, &what);
            for (target, attr, value) in &writes {
                let target = people[target.index(people.len())];
                let attr = ["Name", "Age", "Kind", "Div"][*attr];
                let value = match (attr, value) {
                    ("Kind", v) => Value::Int(v.unwrap_or(1)),
                    (_, None) => Value::Null,
                    ("Name", Some(v)) => Value::str(["a", "b", "c"][*v as usize]),
                    (_, Some(v)) => Value::Int(*v),
                };
                db.write().set_attr(target, sym(attr), value).unwrap();
                check_group(&view, &sys, &mut groups, &what);
            }
            let stats = view.stats();
            prop_assert_eq!(stats.incremental_updates, 0, "opaque to deltas");
            if indexed {
                prop_assert!(stats.index_pushdowns > 0, "{}: {:?}", what, stats);
            }
            // `Ratio` last, on a view of its own: its oids come
            // from the counter `Group`'s model assumes it owns.
            let view = group_view(&sys, ViewOptions::default());
            check_ratio(&view, &sys, &mut ratios, &what);
            check_ratio(&view, &sys, &mut ratios, &what);
        }
    }
}

/// The shapes and settings the row loop stands aside for behave as they
/// always did: a named object shadowing the collection name fails the
/// population with the whole query's error, a two-binding query is
/// run whole, and `IdentityMode::Fresh` hands out one new object
/// per distinct tuple on every population.
#[test]
fn the_imaginary_row_loop_stands_aside() {
    let rows: Vec<GroupRow> = [(0, 1), (1, 1), (0, 1), (2, 0), (1, 1)]
        .iter()
        .map(|&(age, kind)| (Some("a".to_string()), Some(age), kind, Some(1)))
        .collect();
    let recompute = || {
        ViewOptions::builder()
            .materialization(Materialization::AlwaysRecompute)
            .build()
    };
    // Shadowed: `from P in Person` now ranges over an object.
    let sys = group_system(&rows, false);
    let view = group_view(&sys, recompute());
    assert_eq!(view.extent_of(sym("Group")).unwrap().len(), 2);
    let db = sys.database(sym("P")).unwrap();
    let person = db.read().schema.class_by_name(sym("Person")).unwrap();
    let first = db.read().deep_extent(person)[0];
    db.write().name_object(sym("Person"), first).unwrap();
    let expected = walked(&sys, GROUP_QUERY).unwrap_err();
    match view.extent_of(sym("Group")) {
        Err(ViewError::Query(e)) => assert_eq!(e.to_string(), expected.to_string()),
        other => panic!("shadowed: {other:?}"),
    }
    assert_eq!(view.identity_table_len(sym("Group")), 2);

    // Two bindings: pairs of equal age, run whole.
    let pairs = "select [A: P.Age, B: Q.Age] from P in Person, Q in Person \
                 where P.Age = Q.Age and P.Kind = 1";
    let sys = group_system(&rows, false);
    let view = ViewDef::from_script(&format!(
        "create view V; import all classes from database P; \
         class Pair includes imaginary ({pairs});"
    ))
    .unwrap()
    .binder(&sys)
    .options(recompute())
    .bind()
    .unwrap();
    let expected = IdentityModel::default().populate(&walked(&sys, pairs).unwrap());
    assert_eq!(expected.len(), 2);
    assert_eq!(view.extent_of(sym("Pair")).unwrap(), expected);
    assert_eq!(view.extent_of(sym("Pair")).unwrap(), expected);
    assert_eq!(view.stats().index_pushdowns, 0);

    // Fresh oids: two objects per population, never the same two.
    let sys = group_system(&rows, false);
    let options = ViewOptions::builder().identity_mode(IdentityMode::Fresh);
    let view = group_view(
        &sys,
        options
            .materialization(Materialization::AlwaysRecompute)
            .build(),
    );
    let base = ov_oodb::ids::IMAGINARY_OID_BASE;
    let first = view.extent_of(sym("Group")).unwrap();
    let second = view.extent_of(sym("Group")).unwrap();
    assert_eq!(first, [Oid(base), Oid(base + 1)]);
    assert_eq!(second, [Oid(base + 2), Oid(base + 3)]);
    assert_eq!(view.attr(second[0], sym("Age")).unwrap(), Value::Int(0));
    assert_eq!(view.identity_table_len(sym("Group")), 0);
}

// ----------------------------------------------------------------------
// One charge rule, three candidate sources, two sinks
// ----------------------------------------------------------------------

const AGES: [i64; 12] = [5, 30, 40, 17, 65, 21, 40, 80, 3, 40, 55, 19];

/// The fixed dataset of the budget sweeps, with or without an index on
/// `Person.Age`.
fn sweep_system(indexed: bool) -> System {
    let sys = people_db(&AGES.map(|age| (format!("p{age}"), age)));
    if indexed {
        let handle = sys.database(sym("P")).unwrap();
        let mut db = handle.write();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        db.create_index(person, sym("Age")).unwrap();
    }
    sys
}

/// A view over [`sweep_system`], bound with `options`.
fn sweep_view(sys: &System, options: ViewOptions) -> View {
    ViewDef::from_script(
        "create view V; import all classes from database P; \
         class Adult includes (select X from Person where X.Age >= 21); \
         class Forty includes (select X from Person where X.Age = 40 and X.Name != \"\"); \
         class Named includes imaginary \
           (select [N: X.Name] from X in Person where X.Age = 40 and X.Name != \"\");",
    )
    .unwrap()
    .binder(sys)
    .options(options)
    .bind()
    .unwrap()
}

/// One budgeted read of `class`: the answer, and the steps and rows the
/// budget was charged.
fn governed(view: &View, class: &str, budget: Budget) -> (Result<Vec<Oid>, ViewError>, u64, u64) {
    let budget = std::sync::Arc::new(budget);
    let answer = ov_query::budget::with(budget.clone(), || view.extent_of(sym(class)));
    (answer, budget.steps_used(), budget.rows_used())
}

/// Every candidate source is governed, and by the same rule. Each source
/// is swept with every step cap from 1 to the sequential scan's cost and
/// every row cap up to the population's size: the answer is the whole
/// population exactly when the cap covers what the source charges
/// unbudgeted, and a typed `ResourceExhausted` otherwise — never another
/// set. What a source charges is the rule's formula: one step per
/// candidate — the whole extent, or the postings of `Age = 40` — and one
/// row per member. The imaginary class `Named` — three admitted rows, one
/// distinct tuple — goes through the same sources under the same rule: its
/// tuple is charged once per scan, however many rows produce it.
#[test]
fn every_population_source_is_governed_by_one_charge_rule() {
    let options = ViewOptions::builder()
        .materialization(Materialization::AlwaysRecompute)
        .build();
    // (source, class, index on Person.Age)
    let sources = [
        ("sequential", "Adult", false),
        ("sequential", "Forty", false),
        ("index", "Forty", true),
        ("sequential", "Named", false),
        ("index", "Named", true),
    ];
    let mut costs = Vec::new();
    for (source, class, indexed) in sources {
        // A fresh bind per read: a view that has answered once answers a
        // breach with that population, as a stale serve. The binds share
        // the system's imaginary-oid allocator, so each gives `Named`'s
        // object another oid: it is compared by its core.
        let sys = sweep_system(indexed);
        let read = |budget: Budget| {
            let view = sweep_view(&sys, options.clone());
            let (answer, steps, rows) = governed(&view, class, budget);
            let member = |oid: Oid| match oid.is_imaginary() {
                true => view.attr(oid, sym("N")).unwrap(),
                false => Value::Oid(oid),
            };
            let answer = answer.map(|oids| oids.into_iter().map(member).collect::<Vec<_>>());
            (answer, steps, rows, view.stats())
        };
        let (full, steps, rows, stats) = read(Budget::new());
        let full = full.unwrap();
        assert_eq!(
            rows,
            full.len() as u64,
            "{source} {class}: one row per member"
        );
        assert_eq!(stats.index_pushdowns > 0, source == "index", "{stats:?}");
        costs.push((steps, rows));
        let caps = (1..=steps + 1)
            .map(|cap| ("steps", cap, steps))
            .chain((0..=rows).map(|cap| ("rows", cap, rows)));
        for (unit, cap, cost) in caps {
            let enough = cap >= cost;
            let what = format!("{source} {class} under max_{unit} {cap}");
            let budget = match unit {
                "steps" => Budget::new().with_max_steps(cap),
                _ => Budget::new().with_max_rows(cap),
            };
            match read(budget).0 {
                Ok(oids) => assert!(enough && oids == full, "{what}: {oids:?}"),
                Err(ViewError::Query(QueryError::ResourceExhausted(_))) => {
                    assert!(!enough, "{what}: breached")
                }
                Err(other) => panic!("{what}: {other}"),
            }
        }
    }
    let extent = AGES.len() as u64;
    let forties = AGES.iter().filter(|&&age| age == 40).count() as u64;
    let adults = AGES.iter().filter(|&&age| age >= 21).count() as u64;
    assert_eq!(
        costs,
        [
            (extent, adults),
            (extent, forties),
            (forties, forties),
            (extent, 1),
            (forties, 1),
        ],
        "(steps, rows) per source: {sources:?}"
    );
}

/// The journal delta as a candidate source, under the same sweep: a
/// maintained population read after a write that moves one object in
/// answers with the patched set, or — the budget breached inside the delta
/// — with the pre-write set as a counted stale serve, or with the typed
/// breach; never with anything else.
#[test]
fn a_governed_delta_is_all_or_nothing() {
    let incremental = || {
        ViewOptions::builder()
            .materialization(Materialization::Incremental)
            .build()
    };
    let mut outcomes = [0; 3];
    // The delta retests one changed row: one step. Cap 0 breaches inside
    // the delta, any other cap patches.
    for cap in 0..40 {
        let sys = sweep_system(false);
        let view = sweep_view(&sys, incremental());
        let before = view.extent_of(sym("Adult")).unwrap();
        let db = sys.database(sym("P")).unwrap();
        let person = db.read().schema.class_by_name(sym("Person")).unwrap();
        let child = db.read().deep_extent(person)[0];
        assert!(!before.contains(&child));
        db.write()
            .set_attr(child, sym("Age"), Value::Int(50))
            .unwrap();
        let mut after = before.clone();
        after.push(child);
        after.sort();
        let budget = Budget::new().with_max_steps(cap);
        let (answer, ..) = governed(&view, "Adult", budget);
        let stats = view.stats();
        match answer {
            Ok(oids) if oids == after => {
                outcomes[0] += 1;
                assert_eq!((stats.incremental_updates, stats.stale_serves), (1, 0));
            }
            Ok(oids) if oids == before => {
                outcomes[1] += 1;
                assert_eq!((stats.incremental_updates, stats.stale_serves), (0, 1));
            }
            Err(ViewError::Query(QueryError::ResourceExhausted(_))) => outcomes[2] += 1,
            other => panic!("max_steps {cap}: {other:?}"),
        }
    }
    assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
}
