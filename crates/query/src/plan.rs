//! Plan introspection and structured tracing (the `EXPLAIN` substrate).
//!
//! A population request resolves by one of three paths — cache hit, delta
//! update from the store's change journal, full recompute — and a recompute
//! runs its include-term scans sequentially or from an index. This module
//! is the record of those decisions: every scan closes through
//! [`measure_scan`] into the innermost population frame, the view layer
//! closes each population request into the thread's collector
//! ([`record_population`]), and a statement's
//! observed run ([`run_query_traced`], the profiler) closes with per-stage
//! timings ([`Stage`]) plus every population event it triggered.
//!
//! The collector is ambient on purpose: population happens deep inside
//! `DataSource::deep_extent` calls whose signatures know nothing about
//! tracing. The explaining caller brackets the work with [`collect`]; a
//! population request runs inside [`population_scans`], which gives its
//! scans a frame of their own. The collector, the open scan frame and the
//! open actuals frame are fields of the thread's one execution context
//! (`ctx.rs`). With no collector installed every record is a thread-local
//! read and a no-op. Every scan runs on the thread that requested it, so
//! what a statement triggers lands in its collector in completion order.

use std::borrow::Cow;
use std::fmt;

use ov_oodb::{Expr, Symbol, Value};

use crate::ctx;
use crate::error::Result;
use crate::planner::{Decision, Strategy};
use crate::source::DataSource;

/// Which evaluation engine ran a top-level statement (`exec::dispatch`'s
/// rule). Row loops always run compiled, so scans do not record one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The statement iterates and ran compiled ([`crate::compile`]).
    Compiled,
    /// The statement walked: it does not iterate, or
    /// [`crate::EngineMode::Interp`] asked for the oracle.
    Interpreted,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Engine::Compiled => write!(f, "compiled"),
            Engine::Interpreted => write!(f, "interp"),
        }
    }
}

/// Measured execution counters for one scan (or one whole traced query).
///
/// `rows_scanned`, `rows_matched`, and the budget charges (`steps`,
/// `rows_charged`) are **engine-invariant**: they are the plan's, so the
/// compiled engine and the tree-walking interpreter report identical
/// numbers for one plan — the differential proptest suite gates this.
/// `cache_hits` and `cache_misses` are compiled-engine diagnostics (the
/// interpreter has no resolution-slot caches and reports 0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanActuals {
    /// Rows the scan considered (binding tuples completed, before the
    /// filter ran).
    pub rows_scanned: u64,
    /// Rows that passed the filter.
    pub rows_matched: u64,
    /// Budget steps charged while the scan ran (0 when no
    /// [`crate::Budget`] was installed). Measured as a before/after delta
    /// on the thread's budget, so it is engine-agnostic by construction.
    pub steps: u64,
    /// Budget rows charged while the scan ran (same bracketing).
    pub rows_charged: u64,
    /// Resolution-slot cache hits (compiled engine only).
    pub cache_hits: u64,
    /// Resolution-slot cache misses (compiled engine only).
    pub cache_misses: u64,
}

impl ScanActuals {
    /// Are all counters zero (nothing measured)?
    pub fn is_zero(&self) -> bool {
        *self == ScanActuals::default()
    }

    /// Folds `other`'s **work counters** (rows, cache traffic)
    /// into `self`. Budget charges are deliberately excluded: each frame's
    /// `steps`/`rows_charged` come from its own bracketing delta, which
    /// already includes every nested frame's charges — folding them too
    /// would double-count.
    pub fn absorb(&mut self, other: &ScanActuals) {
        self.rows_scanned += other.rows_scanned;
        self.rows_matched += other.rows_matched;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }
}

impl fmt::Display for ScanActuals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scanned={} matched={} steps={} rows_charged={} cache={}/{}",
            self.rows_scanned,
            self.rows_matched,
            self.steps,
            self.rows_charged,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
        )
    }
}

/// One scan, closed by [`measure_scan`]: the access path it ran, plus the
/// counters it measured while running.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanEvent {
    /// The access path the scan ran: sequential or an index probe.
    pub kind: Strategy,
    /// What the scan measured.
    pub actuals: ScanActuals,
    /// The row estimate of the planner's decision for this scan; `None`
    /// when no decision was made (the planner is off, or the query ran
    /// whole).
    pub est_rows: Option<u64>,
}

impl fmt::Display for ScanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.kind)?;
        if let Some(est) = self.est_rows {
            write!(f, " est_rows={est}")?;
        }
        if !self.actuals.is_zero() {
            write!(f, " ({})", self.actuals)?;
        }
        Ok(())
    }
}

/// Which of the three population paths resolved a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PopPath {
    /// The version-keyed cache was current; no evaluation happened.
    CacheHit,
    /// The cached population was patched from the store change journal.
    Delta {
        /// Number of changed oids whose membership was re-tested.
        retested: usize,
    },
    /// The population was evaluated from scratch.
    FullRecompute {
        /// How each include-term scan was executed, in evaluation order.
        scans: Vec<ScanEvent>,
    },
    /// Recomputation failed (fault, timeout) and the last good cached
    /// population was served instead — the result is explicitly stale.
    StaleServe,
}

impl fmt::Display for PopPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PopPath::CacheHit => write!(f, "CacheHit"),
            PopPath::Delta { retested } => write!(f, "Delta{{retested={retested}}}"),
            PopPath::FullRecompute { scans } => {
                write!(f, "FullRecompute")?;
                for s in scans {
                    write!(f, " {s}")?;
                }
                Ok(())
            }
            PopPath::StaleServe => write!(f, "StaleServe"),
        }
    }
}

/// One population request: which class, which path, how many members, how
/// long.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PopulationTrace {
    /// The virtual (or imaginary) class whose population was requested.
    pub class: Symbol,
    /// The resolution path taken.
    pub path: PopPath,
    /// Number of members in the resulting population.
    pub rows: usize,
    /// Wall-clock time of the request, in nanoseconds.
    pub nanos: u64,
}

impl fmt::Display for PopulationTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "population {}: {} (rows={}, {})",
            self.class,
            self.path,
            self.rows,
            fmt_ns(self.nanos)
        )
    }
}

/// One timed stage of a traced query (parse, typecheck, optimize, execute).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stage {
    /// Stage name.
    pub name: &'static str,
    /// Wall-clock time, in nanoseconds.
    pub nanos: u64,
    /// Stage-specific detail (inferred type, rewritten expression, …).
    pub detail: String,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<10} {:>9}", self.name, fmt_ns(self.nanos))?;
        if !self.detail.is_empty() {
            write!(f, "  {}", self.detail)?;
        }
        Ok(())
    }
}

/// The full trace of one query: per-stage timings plus every population
/// request the execution triggered.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Timed stages, in order.
    pub stages: Vec<Stage>,
    /// Population requests fired during execution, in completion order.
    pub populations: Vec<PopulationTrace>,
    /// Result cardinality, when the result is a set or list.
    pub rows: Option<usize>,
    /// Measured totals for the whole execution: every scan's work counters
    /// folded together, plus the budget charges of the execute stage.
    pub actuals: ScanActuals,
    /// The engine that ran the top-level expression.
    pub engine: Option<Engine>,
    /// The query's literal-normalized fingerprint (16 hex digits; see
    /// [`crate::fingerprint`]). Stable across processes for the same
    /// normalized query text.
    pub fingerprint: String,
    /// The literal-normalized query text the fingerprint hashes.
    pub normalized: String,
    /// The planner's decision for the top-level scan, when the cost-based
    /// planner ran (see [`crate::planner`]).
    pub planner: Option<PlanChoice>,
}

/// The planner decision a traced query surfaces: chosen strategy, row
/// estimate, and whether the plan came from the fingerprint-keyed cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanChoice {
    /// Rendered strategy (`seq`, `index Class.Attr`, `join(…)`).
    pub strategy: String,
    /// Estimated result rows at planning time.
    pub est_rows: u64,
    /// Whether the plan was served from the plan cache.
    pub cache_hit: bool,
}

impl From<Decision> for PlanChoice {
    fn from(d: Decision) -> PlanChoice {
        PlanChoice {
            strategy: d.strategy.to_string(),
            est_rows: d.est_rows,
            cache_hit: d.cache_hit,
        }
    }
}

impl fmt::Display for PlanChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "strategy={} est_rows={} plan_cache={}",
            self.strategy,
            self.est_rows,
            if self.cache_hit { "h" } else { "m" }
        )
    }
}

impl fmt::Display for QueryTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.stages {
            writeln!(f, "{s}")?;
        }
        for p in &self.populations {
            writeln!(f, "{p}")?;
        }
        if let Some(engine) = self.engine {
            writeln!(f, "engine: {engine}")?;
        }
        if let Some(planner) = &self.planner {
            writeln!(f, "planner: {planner}")?;
        }
        if !self.actuals.is_zero() {
            writeln!(f, "actuals: {}", self.actuals)?;
        }
        if !self.fingerprint.is_empty() {
            writeln!(f, "fingerprint: {}  {}", self.fingerprint, self.normalized)?;
        }
        if let Some(rows) = self.rows {
            writeln!(f, "rows: {rows}")?;
        }
        Ok(())
    }
}

/// Renders a nanosecond duration with a human unit (`870ns`, `12.4µs`,
/// `3.1ms`, `2.05s`).
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// What one [`collect`] scope observed.
#[derive(Default)]
pub(crate) struct Collector {
    /// Population events, in completion order.
    events: Vec<PopulationTrace>,
    /// The decision of the planned query that ran in the scope
    /// ([`note_decision`]).
    decision: Option<Decision>,
}

/// Folds measured work counters into the innermost open actuals frame.
/// No-op when no frame is open (the untraced, unprofiled hot path).
pub fn add_actuals(actuals: &ScanActuals) {
    ctx::with(|c| {
        if let Some(frame) = &mut c.actuals {
            frame.absorb(actuals);
        }
    });
}

/// Runs `f` with a fresh actuals frame on this thread and returns its
/// result together with everything measured while it ran: work counters
/// reported by engine drivers via [`add_actuals`] (folded up from nested
/// frames too), plus the thread budget's step/row charges as a
/// before/after delta (0 when no [`crate::Budget`] is installed). The
/// budget delta is measured here — outside both engines — so compiled and
/// interpreted runs of the same work are identical by construction.
///
/// On return the closed frame's work counters are folded into the frame
/// that is innermost again (if one is open); budget charges are not (that
/// frame's own delta already covers them). A frame `f` unwinds out of is
/// dropped.
pub fn with_scan_actuals<R>(f: impl FnOnce() -> R) -> (R, ScanActuals) {
    let budget = crate::budget::current();
    let charged = || {
        budget
            .as_ref()
            .map_or((0, 0), |b| (b.steps_used(), b.rows_used()))
    };
    let before = charged();
    let (r, frame) = ctx::scoped(|c| &mut c.actuals, Some(ScanActuals::default()), f);
    let mut actuals = frame.unwrap_or_default();
    add_actuals(&actuals);
    let after = charged();
    actuals.steps = after.0.saturating_sub(before.0);
    actuals.rows_charged = after.1.saturating_sub(before.1);
    (r, actuals)
}

/// Runs one scan, `run`, which counts its rows into the actuals it is
/// handed, and reports what it counted — on error too: folded into the
/// enclosing actuals frame and, only while a collector is open, closed into
/// the innermost population frame as a [`ScanEvent`] of the access path
/// `kind` with the estimate `est_rows`. An unobserved scan opens no frame
/// and builds no event.
pub fn measure_scan<R>(
    kind: &Strategy,
    est_rows: Option<u64>,
    run: impl FnOnce(&mut ScanActuals) -> R,
) -> R {
    let counted = || {
        let mut counted = ScanActuals::default();
        let r = run(&mut counted);
        add_actuals(&counted);
        r
    };
    if !tracing_active() {
        return counted();
    }
    let (r, actuals) = with_scan_actuals(counted);
    record_scan(ScanEvent {
        kind: kind.clone(),
        actuals,
        est_rows,
    });
    r
}

/// Is a trace collector installed on this thread? The view layer may use
/// this to skip building detail strings on the untraced path.
pub fn tracing_active() -> bool {
    ctx::with(|c| c.collector.is_some())
}

/// Runs `f` on the open collector; no-op without one.
fn collecting(f: impl FnOnce(&mut Collector)) {
    ctx::with(|c| {
        if let Some(collector) = &mut c.collector {
            f(collector);
        }
    });
}

/// Runs `f`, one population request, with a scan frame of its own when a
/// collector is open, and returns `f`'s result with the scans recorded into
/// the frame ([`measure_scan`]), in order. The enclosing request's frame is
/// innermost again afterwards, on unwind too.
pub fn population_scans<R>(f: impl FnOnce() -> R) -> (R, Vec<ScanEvent>) {
    if !tracing_active() {
        return (f(), Vec::new());
    }
    let (r, scans) = ctx::scoped(|c| &mut c.scans, Some(Vec::new()), f);
    (r, scans.unwrap_or_default())
}

/// Records a closed scan in the innermost population frame. No-op without
/// one.
fn record_scan(scan: ScanEvent) {
    ctx::with(|c| {
        if let Some(frame) = &mut c.scans {
            frame.push(scan);
        }
    });
}

/// Records a closed population request in the open collector. No-op
/// without one.
pub fn record_population(population: PopulationTrace) {
    collecting(|col| col.events.push(population));
}

/// Notes the decision of the planned query that just ran. No-op without a
/// collector: an unobserved statement records nothing.
pub(crate) fn note_decision(decision: Decision) {
    collecting(|col| col.decision = Some(decision));
}

/// Runs `f` with a trace collector installed on this thread and returns its
/// result together with every population event it emitted. Nests: a
/// `collect` inside a `collect` captures its own events only, then restores
/// the outer collector — as does a panic unwinding out of `f`.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Vec<PopulationTrace>) {
    let (r, observed) = observe(f);
    (r, observed.events)
}

/// [`collect`], returning everything the collector observed: the population
/// events and the planner's decision.
fn observe<R>(f: impl FnOnce() -> R) -> (R, Collector) {
    let (r, collector) = ctx::scoped(|c| &mut c.collector, Some(Collector::default()), f);
    (r, collector.unwrap_or_default())
}

/// Runs a query like [`run_query`](crate::run_query) but returns, alongside
/// the value, a [`QueryTrace`] with parse / typecheck / optimize / execute
/// timings and every population event execution triggered. Typecheck
/// failure is recorded in the trace but does not abort the run (the
/// evaluator is dynamically typed, matching `run_query`).
pub fn run_query_traced(src: &dyn DataSource, query: &str) -> Result<(Value, QueryTrace)> {
    let _span = ov_oodb::span!("query.run");
    let mut stages = Vec::new();
    let parse = || crate::parser::parse_expr(query);
    let expr = stage(&mut stages, "query.parse", parse, |e| {
        e.as_ref().map_or_else(|_| String::new(), Expr::to_string)
    })?;
    let infer = || match crate::typecheck::infer_expr(src, &expr) {
        Ok(t) => format!("{t:?}"),
        Err(e) => format!("error: {e}"),
    };
    stage(&mut stages, "query.typecheck", infer, String::clone);
    let (value, trace) = observed(src, &expr, stages);
    Ok((value?, trace))
}

/// Runs the statement `e` observed, after the `stages` its caller already
/// ran, and closes it into the one [`QueryTrace`] every consumer reads:
/// EXPLAIN renders it, the profiler records it in the workload registry and
/// the slow-query log. The folded statement goes through the same engine
/// dispatch as an unobserved run, inside an actuals frame and a collector,
/// so observing changes neither the answer nor the budget charges.
pub(crate) fn observed(
    src: &dyn DataSource,
    e: &Expr,
    mut stages: Vec<Stage>,
) -> (Result<Value>, QueryTrace) {
    let (fingerprint, normalized) = crate::fingerprint::fingerprint_expr(e);
    let fold = || crate::optimize::fold(e);
    let folded = stage(&mut stages, "query.optimize", fold, |f| match f {
        Cow::Borrowed(_) => "(unchanged)".to_owned(),
        Cow::Owned(f) => f.to_string(),
    });
    let run = || with_scan_actuals(|| observe(|| crate::exec::dispatch(src, &folded)));
    let (((value, engine), collector), actuals) = stage(
        &mut stages,
        "query.execute",
        run,
        |(((_, engine), _), _)| format!("engine={engine}"),
    );
    let rows = match &value {
        Ok(Value::Set(s)) => Some(s.len()),
        Ok(Value::List(l)) => Some(l.len()),
        _ => None,
    };
    let trace = QueryTrace {
        stages,
        populations: collector.events,
        rows,
        actuals,
        engine: Some(engine),
        fingerprint,
        normalized,
        planner: collector.decision.map(PlanChoice::from),
    };
    (value, trace)
}

/// Runs one stage of an observed statement under its span (`query.<stage>`)
/// and notes it in `stages`: the span's own duration, and the detail
/// `describe` renders from the stage's output.
fn stage<T>(
    stages: &mut Vec<Stage>,
    span: &'static str,
    run: impl FnOnce() -> T,
    describe: impl FnOnce(&T) -> String,
) -> T {
    let guard = ov_oodb::span!(span);
    let t0 = std::time::Instant::now();
    let out = run();
    let nanos = t0.elapsed().as_nanos() as u64;
    guard.finish(nanos);
    stages.push(Stage {
        name: span.trim_start_matches("query."),
        nanos,
        detail: describe(&out),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ov_oodb::sym;

    /// A sequential scan, the common test fixture.
    fn seq() -> Strategy {
        Strategy::Seq
    }

    /// An index probe of `Person.City`.
    fn city_index() -> Strategy {
        Strategy::IndexPushdown {
            class: sym("Person"),
            attr: sym("City"),
            value: Value::str("London"),
        }
    }

    /// Wraps a kind in a zero-actuals [`ScanEvent`].
    fn ev(kind: Strategy) -> ScanEvent {
        ScanEvent {
            kind,
            actuals: ScanActuals::default(),
            est_rows: None,
        }
    }

    /// Closes a population request of `class` the way the view layer does.
    fn close(class: &str, path: PopPath, rows: usize) {
        record_population(PopulationTrace {
            class: sym(class),
            path,
            rows,
            nanos: 1,
        });
    }

    #[test]
    fn hooks_are_noops_without_a_collector() {
        assert!(!tracing_active());
        let ((), scans) = population_scans(|| record_scan(ev(seq())));
        assert!(scans.is_empty(), "no frame without a collector");
        close("X", PopPath::FullRecompute { scans }, 0);
    }

    #[test]
    fn collect_captures_population_events() {
        let index = city_index();
        let ((), events) = collect(|| {
            assert!(tracing_active());
            let ((), scans) = population_scans(|| {
                record_scan(ev(index.clone()));
                record_scan(ev(seq()));
            });
            close("Adult", PopPath::FullRecompute { scans }, 12);
        });
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].class, sym("Adult"));
        assert_eq!(events[0].rows, 12);
        assert_eq!(
            events[0].path,
            PopPath::FullRecompute {
                scans: vec![ev(index), ev(seq())]
            }
        );
        assert!(!tracing_active());
    }

    #[test]
    fn nested_frames_attach_scans_to_the_right_population() {
        let index = city_index();
        let ((), events) = collect(|| {
            let ((), outer) = population_scans(|| {
                record_scan(ev(seq()));
                let ((), inner) = population_scans(|| record_scan(ev(index.clone())));
                close("Inner", PopPath::FullRecompute { scans: inner }, 1);
            });
            close("Outer", PopPath::FullRecompute { scans: outer }, 2);
        });
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].class, sym("Inner"));
        assert_eq!(
            events[0].path,
            PopPath::FullRecompute {
                scans: vec![ev(index)]
            }
        );
        assert_eq!(
            events[1].path,
            PopPath::FullRecompute {
                scans: vec![ev(seq())]
            }
        );
    }

    /// A failed request is not closed into the collector, and the frame a
    /// panic unwinds out of is gone: the enclosing request takes what is
    /// recorded next.
    #[test]
    fn abort_closes_a_frame_without_an_event() {
        let ((), events) = collect(|| {
            let ((), outer) = population_scans(|| {
                let ((), _failed) = population_scans(|| record_scan(ev(seq())));
                let unwound = std::panic::catch_unwind(|| {
                    population_scans(|| {
                        record_scan(ev(seq()));
                        panic!("boom")
                    })
                });
                assert!(unwound.is_err());
                record_scan(ev(seq()));
            });
            assert_eq!(outer, vec![ev(seq())]);
        });
        assert!(events.is_empty());
    }

    #[test]
    fn actuals_frames_fold_into_parents_without_double_counting_budget() {
        let ((), outer) = with_scan_actuals(|| {
            let ((), inner) = with_scan_actuals(|| {
                add_actuals(&ScanActuals {
                    rows_scanned: 10,
                    rows_matched: 4,
                    cache_hits: 2,
                    cache_misses: 1,
                    ..ScanActuals::default()
                });
            });
            assert_eq!(inner.rows_scanned, 10);
            assert_eq!(inner.rows_matched, 4);
            add_actuals(&ScanActuals {
                rows_scanned: 5,
                ..ScanActuals::default()
            });
        });
        // Work counters fold up: 10 from the inner frame + 5 direct.
        assert_eq!(outer.rows_scanned, 15);
        assert_eq!(outer.rows_matched, 4);
        assert_eq!(outer.cache_hits, 2);
        assert_eq!(outer.cache_misses, 1);
        // No budget installed → no charges measured.
        assert_eq!(outer.steps, 0);
        assert_eq!(outer.rows_charged, 0);
    }

    #[test]
    fn actuals_budget_charges_come_from_the_bracketing_delta() {
        let budget = std::sync::Arc::new(crate::Budget::new());
        crate::budget::with(budget, || {
            let ((), outer) = with_scan_actuals(|| {
                let b = crate::budget::current().unwrap();
                b.step().unwrap();
                b.step().unwrap();
                let ((), inner) = with_scan_actuals(|| {
                    let b = crate::budget::current().unwrap();
                    b.step().unwrap();
                    b.note_rows(7).unwrap();
                });
                assert_eq!(inner.steps, 1);
                assert_eq!(inner.rows_charged, 7);
            });
            // The outer delta covers its own charges AND the nested frame's
            // (inclusive bracketing — nothing is double-counted by folding).
            assert_eq!(outer.steps, 3);
            assert_eq!(outer.rows_charged, 7);
        });
    }

    #[test]
    fn nested_collect_restores_the_outer_collector() {
        let ((), outer) = collect(|| {
            close("A", PopPath::CacheHit, 1);
            let ((), inner) = collect(|| close("B", PopPath::CacheHit, 2));
            assert_eq!(inner.len(), 1);
            assert_eq!(inner[0].class, sym("B"));
            close("C", PopPath::CacheHit, 3);
        });
        let classes: Vec<_> = outer.iter().map(|e| e.class).collect();
        assert_eq!(classes, vec![sym("A"), sym("C")]);
    }

    #[test]
    fn display_rendering() {
        let p = PopulationTrace {
            class: sym("Adult"),
            path: PopPath::Delta { retested: 3 },
            rows: 41,
            nanos: 12_400,
        };
        assert_eq!(
            p.to_string(),
            "population Adult: Delta{retested=3} (rows=41, 12.4µs)"
        );
        let full = PopPath::FullRecompute {
            scans: vec![ev(city_index()), ev(seq())],
        };
        assert_eq!(full.to_string(), "FullRecompute [index Person.City] [seq]");
        assert_eq!(fmt_ns(870), "870ns");
        assert_eq!(fmt_ns(3_100_000), "3.1ms");
    }

    /// Every scan runs bytecode, so a scan marker names its strategy and
    /// nothing else; the engine is the statement's (`engine:`).
    #[test]
    fn scan_markers_name_the_strategy_alone() {
        assert_eq!(ev(seq()).to_string(), "[seq]");
        assert_eq!(ev(city_index()).to_string(), "[index Person.City]");
    }

    #[test]
    fn scan_events_render_actuals_only_when_measured() {
        assert_eq!(ev(seq()).to_string(), "[seq]");
        let measured = ScanEvent {
            kind: Strategy::Seq,
            actuals: ScanActuals {
                rows_scanned: 6,
                rows_matched: 2,
                steps: 20,
                rows_charged: 2,
                cache_hits: 5,
                cache_misses: 1,
            },
            est_rows: None,
        };
        assert_eq!(
            measured.to_string(),
            "[seq] (scanned=6 matched=2 steps=20 rows_charged=2 cache=5/6)"
        );
    }
}
