//! One event, every surface. A population request and an include-term scan
//! each close once, and the registry counter, the flight-recorder span and
//! the EXPLAIN event are all read off that close — so, step by step through
//! a seeded random run of reads, writes, `explain`s and `propagate`s over a
//! three-level stack and an imaginary class, with tracing on and a
//! collector open, they count the same things. A write counts nothing: the
//! read after it makes the requests.
//!
//! The registry, the recorder and the profiler switch are process-wide:
//! this binary holds these tests only, and they take [`serial`].

use std::collections::BTreeMap;
use std::sync::Arc;

use objects_and_views::oodb::event::Event;
use objects_and_views::oodb::{metrics, recorder, sym, trace, FieldValue, Value};
use objects_and_views::query::{plan, run_query, run_query_with_budget, Budget, PopPath};
use objects_and_views::query::{PlanStrategy, PopulationTrace, QueryTrace};
use objects_and_views::views::Session;

/// Each population path: its `path` span field and its registry counter.
const PATHS: [(&str, &str); 4] = [
    ("cache_hit", "views.cache_hits"),
    ("delta", "views.incremental_updates"),
    ("recompute", "views.recomputations"),
    ("stale_serve", "views.degraded_serves"),
];

/// Each counted scan kind: its `kind` span field and its registry counter.
const SCANS: [(&str, &str); 1] = [("index", "views.index_pushdowns")];

const PEOPLE: u64 = 24;

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// xorshift64*: the run is a function of its seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// `Adults` → `Earners` → `Top`; `First` is populated from the
/// index on `Person.Id` and `CityTag` is imaginary. `Elder` defines
/// `City`, so `Londoner`'s filter asks of every person whether `Elder`
/// holds them: its scan requests `Elder`'s population from inside the row
/// loop, and that population's events reach EXPLAIN like any other.
/// (`CityTag` defines `City` too, but no person is a member of an
/// imaginary class, so no scan of persons asks for it.)
fn stack() -> Session {
    let mut s = Session::new();
    let mut script = String::from(
        "database Staff;
         class Person type [Id: integer, Age: integer, Income: integer, City: string];",
    );
    for i in 1..=PEOPLE {
        let city = ["London", "Paris", "Rome"][(i % 3) as usize];
        script.push_str(&format!(
            "object #{i} in Person value [Id: {i}, Age: {}, Income: {}, City: \"{city}\"];",
            10 + i * 3 % 70,
            i * 17 % 200,
        ));
    }
    s.execute(&script).unwrap();
    {
        let db = s.system().database(sym("Staff")).unwrap();
        let mut db = db.write();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        db.create_index(person, sym("Id")).unwrap();
    }
    s.execute(
        r#"
        create view Adults;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        class First includes (select P from Person where P.Id = 1);
        class Elder includes (select P from Person where P.Age >= 70);
        attribute City in class Elder has value "Elsewhere";
        class Londoner includes (select P from Person where P.City = "London");
        class CityTag includes imaginary (select [City: P.City] from P in Person where P.Age >= 30);
        create view Earners;
        import all classes from view Adults;
        class Rich includes (select A from Adult where A.Income >= 100);
        create view Top;
        import all classes from view Earners;
        class Elite includes (select R from Rich where R.Age >= 60);
        "#,
    )
    .unwrap();
    s
}

/// What one surface counted, by `path` or `kind` label.
type Tally = BTreeMap<&'static str, u64>;

/// The EXPLAIN events: populations by path, their scans by kind.
fn explained(events: &[PopulationTrace]) -> Tally {
    let mut tally = Tally::new();
    for e in events {
        let (path, scans) = match &e.path {
            PopPath::CacheHit => ("cache_hit", &[][..]),
            PopPath::Delta { .. } => ("delta", &[][..]),
            PopPath::FullRecompute { scans } => ("recompute", &scans[..]),
            PopPath::StaleServe => ("stale_serve", &[][..]),
        };
        *tally.entry(path).or_default() += 1;
        for scan in scans {
            let kind = match scan.kind {
                PlanStrategy::Seq => "seq",
                PlanStrategy::IndexPushdown { .. } => "index",
                PlanStrategy::Join { .. } => panic!("a scan ran a join: {e}"),
            };
            *tally.entry(kind).or_default() += 1;
        }
    }
    tally
}

/// The spans: `view.population` by path, `view.scan` by kind; and, as
/// `nested`, the populations a scan's row loop requested.
fn spanned() -> Tally {
    let spans = recorder().snapshot();
    let up: BTreeMap<u64, (&str, u64)> = spans.iter().map(|s| (s.id, (s.name, s.parent))).collect();
    let in_scan = |mut parent| {
        while let Some(&(name, grandparent)) = up.get(&parent) {
            if name == "view.scan" {
                return true;
            }
            parent = grandparent;
        }
        false
    };
    let mut tally = Tally::new();
    for span in &spans {
        if span.name == "view.population" && in_scan(span.parent) {
            *tally.entry("nested").or_default() += 1;
        }
        let key = match span.name {
            "view.population" => "path",
            "view.scan" => "kind",
            _ => continue,
        };
        let label = span.fields.iter().flatten().find(|(k, _)| *k == key);
        let Some((_, FieldValue::Str(label))) = label else {
            panic!("a {} span without its {key}: {span:?}", span.name);
        };
        *tally.entry(label).or_default() += 1;
    }
    tally
}

/// The registry counters that moved since `before`, by the label they count.
fn counted(before: &metrics::MetricsSnapshot) -> Tally {
    let after = metrics::registry().snapshot();
    let counter = |snapshot: &metrics::MetricsSnapshot, name: &str| {
        snapshot.counters.get(name).copied().unwrap_or(0)
    };
    PATHS
        .iter()
        .chain(&SCANS)
        .map(|&(label, name)| (label, counter(&after, name) - counter(before, name)))
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// One random step; the traces of the `explain`s it ran come back, since
/// each closes into a collector of its own.
fn step(s: &mut Session, rng: &mut Rng) -> Vec<QueryTrace> {
    let view = [sym("Adults"), sym("Earners"), sym("Top")][rng.below(3) as usize];
    let class = match view.as_str() {
        "Adults" => ["Adult", "First", "Londoner", "CityTag"][rng.below(4) as usize],
        "Earners" => ["Adult", "Rich"][rng.below(2) as usize],
        _ => ["Rich", "Elite", "CityTag"][rng.below(3) as usize],
    };
    let oid = 1 + rng.below(PEOPLE);
    match rng.below(5) {
        0 => {
            s.query(view, &format!("count({class})")).unwrap();
        }
        1 => {
            let (attr, value) = match rng.below(3) {
                0 => ("Age", (10 + rng.below(70)).to_string()),
                1 => ("Income", rng.below(200).to_string()),
                _ => (
                    "City",
                    format!("\"{}\"", ["London", "Paris"][rng.below(2) as usize]),
                ),
            };
            s.focus(sym("Staff")).unwrap();
            let before = metrics::registry().snapshot();
            s.execute(&format!("set #{oid}.{attr} = {value};")).unwrap();
            assert_eq!(
                counted(&before),
                Tally::new(),
                "a write moved a view counter"
            );
        }
        2 => {
            // Behind the session's back: the next read patches lazily.
            let db = s.system().database(sym("Staff")).unwrap();
            let find = format!("select the P from P in Person where P.Id = {oid}");
            let target = run_query(&*db.read(), &find).unwrap();
            let age = Value::Int(10 + rng.below(70) as i64);
            db.write()
                .set_attr(target.as_oid().unwrap(), sym("Age"), age)
                .unwrap();
        }
        3 => {
            let query = format!("select X from X in {class}");
            let (_, trace) = s.view(view).unwrap().explain(&query).unwrap();
            return vec![trace];
        }
        _ => {
            s.propagate(sym("Staff"));
        }
    }
    Vec::new()
}

#[test]
fn counters_spans_and_explain_events_agree_per_path_and_scan_kind() {
    let _serial = serial();
    let mut seen = Tally::new();
    for seed in [7u64, 41, 1_000_003] {
        let mut s = stack();
        let mut rng = Rng(seed);
        trace::set_enabled(true);
        for i in 0..40 {
            recorder().clear();
            let before = metrics::registry().snapshot();
            let (traces, events) = plan::collect(|| step(&mut s, &mut rng));
            let mut events = events;
            events.extend(traces.into_iter().flat_map(|t| t.populations));
            let explain = explained(&events);
            let spans = spanned();
            let counters = counted(&before);
            let labels = PATHS.iter().chain(&SCANS).map(|&(label, _)| label);
            for label in labels.chain(["seq"]) {
                let e = explain.get(label).copied().unwrap_or(0);
                let sp = spans.get(label).copied().unwrap_or(0);
                assert_eq!(e, sp, "seed {seed} step {i}: `{label}` events vs spans");
                if label != "seq" {
                    let c = counters.get(label).copied().unwrap_or(0);
                    assert_eq!(c, sp, "seed {seed} step {i}: `{label}` counter vs spans");
                }
                *seen.entry(label).or_default() += sp;
            }
            *seen.entry("nested").or_default() += spans.get("nested").copied().unwrap_or(0);
        }
        trace::set_enabled(false);
    }
    // Every path and kind but the stale serve (no faults here) was met, and
    // so were populations a scan's row loop requested.
    for label in ["cache_hit", "delta", "recompute", "index", "seq", "nested"] {
        assert!(
            seen.get(label) > Some(&0),
            "no `{label}` in the run: {seen:?}"
        );
    }
}

/// Observing a statement changes neither its answer nor what it charges:
/// the profiled run dispatches the same folded statement, inside its
/// actuals frame and collector, as the unprofiled one.
#[test]
fn a_profiled_run_charges_the_budget_what_an_unprofiled_run_does() {
    let _serial = serial();
    let s = stack();
    let view = s.view(sym("Top")).unwrap();
    for q in [
        "count(Elite)",
        "select R.Income from R in Rich where R.Age > 40",
        "select C from C in CityTag",
    ] {
        let run = |profiled: bool| {
            metrics::set_profiling(profiled);
            let budget = Arc::new(Budget::new());
            let value = run_query_with_budget(view, q, budget.clone()).unwrap();
            metrics::set_profiling(false);
            (value, budget.steps_used(), budget.rows_used())
        };
        // Warm the populations, so both runs read the same caches.
        run(false);
        assert_eq!(run(true), run(false), "{q}");
    }
}

/// A close hands one duration to the span and to the histogram of its row,
/// so the span says exactly what the histogram holds; a request dropped
/// unclosed (it failed) records its span and nothing else.
#[test]
fn a_close_gives_its_span_and_its_histogram_one_duration() {
    let _serial = serial();
    recorder().clear();
    let before = metrics::registry().snapshot();
    trace::set_enabled(true);
    drop(Event::Population.open());
    let nanos = Event::Population.open().close_as(Event::PopulationDelta, 1);
    trace::set_enabled(false);
    let moved = |(name, h): (&String, &metrics::HistogramSnapshot)| {
        let (count, sum) = before
            .histograms
            .get(name)
            .map_or((0, 0), |b| (b.count, b.sum));
        (name.clone(), h.count - count, h.sum - sum)
    };
    let recorded: Vec<_> = metrics::registry()
        .snapshot()
        .histograms
        .iter()
        .map(moved)
        .filter(|(name, count, _)| name.starts_with("views.population.") && *count > 0)
        .collect();
    assert_eq!(recorded, [("views.population.delta_ns".into(), 1, nanos)]);
    let spans: Vec<_> = recorder()
        .snapshot()
        .into_iter()
        .filter(|s| s.name == "view.population")
        .map(|s| s.dur_ns)
        .collect();
    assert_eq!(
        spans.len(),
        2,
        "the failed request's span, then the closed one's"
    );
    assert_eq!(spans[1], nanos);
}

/// A run of base statements is one `session.execute_stmt` span, and a run
/// that declares classes rebinds the dependents of its database once: two
/// declarations in one run make one `session.rebind_dependents` span, the
/// same two split by a `database` statement make two.
#[test]
fn a_run_is_one_span_and_rebinds_its_dependents_once() {
    let _serial = serial();
    let mut s = Session::new();
    s.execute(
        "database D; class A type [N: integer]; \
         create view V; import all classes from database D;",
    )
    .unwrap();
    let mut spans = |script: &str, name: &str| {
        recorder().clear();
        trace::set_enabled(true);
        let run = s.execute(script);
        trace::set_enabled(false);
        run.unwrap();
        recorder()
            .snapshot()
            .iter()
            .filter(|span| span.name == name)
            .count()
    };
    let one_run = "database D; class B type [N: integer]; class C type [N: integer];";
    assert_eq!(spans(one_run, "session.rebind_dependents"), 1);
    let two_runs = "database D; class E type [N: integer]; database D; class F type [N: integer];";
    assert_eq!(spans(two_runs, "session.rebind_dependents"), 2);
    // `database D;`, then one run of three statements.
    let statements = "database D; class G type [N: integer]; insert G value [N: 1]; count(G);";
    assert_eq!(spans(statements, "session.execute_stmt"), 2);
}
