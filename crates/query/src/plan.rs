//! Plan introspection and structured tracing (the `EXPLAIN` substrate).
//!
//! PR 1 gave population requests three resolution paths — cache hit, delta
//! update from the store's change journal, full recompute — plus parallel
//! scans and index pushdown inside a recompute. Nothing reported *which*
//! path fired. This module is the record of that decision: the view layer
//! emits [`PopulationTrace`] events through a thread-local collector while
//! it evaluates, and [`run_query_traced`] wraps a query with per-stage
//! timings ([`Stage`]) plus every population event the evaluation triggered.
//!
//! The collector is ambient on purpose: population happens deep inside
//! `DataSource::deep_extent` calls whose signatures know nothing about
//! tracing, and threading a context through every evaluator frame would
//! infect the whole query layer. Instead, the explaining caller brackets
//! the work with [`collect`], and the view layer calls
//! [`begin_population`] / [`record_scan_est`] / [`end_population`] at the
//! decision points. The collector and the open actuals frame are fields of
//! the thread's one execution context (`ctx.rs`). When no collector is
//! installed every hook is a cheap thread-local read followed by a no-op,
//! so the untraced hot path stays untraced. Worker threads spawned *inside*
//! a traced evaluation (parallel scans) do not see the parent's collector —
//! the chunk count is recorded by the coordinating thread, which is the one
//! making the plan decision.

use std::fmt;

use ov_oodb::Symbol;

use crate::ctx;
use crate::error::Result;
use crate::planner::Decision;
use crate::source::DataSource;

/// Which evaluation engine ran a scan's per-row predicate work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The scan ran the compiled predicate engine ([`crate::compile`]).
    Compiled,
    /// The scan ran the tree-walking interpreter (either by choice — see
    /// [`crate::EngineMode`] — or because the expression fell outside the
    /// compiler's covered subset).
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
/// `rows_charged`) are **engine-invariant**: the compiled engine and the
/// tree-walking interpreter report identical numbers for semantically
/// identical work — the differential proptest suite gates this.
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

/// How one include-term scan inside a full recompute was executed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScanKind {
    /// Plain single-threaded evaluation over the source extent.
    Sequential {
        /// Which engine evaluated the predicate per row.
        engine: Engine,
    },
    /// The extent was split across worker threads.
    Parallel {
        /// Number of chunks the extent was split into.
        chunks: usize,
        /// Which engine evaluated the predicate per row.
        engine: Engine,
    },
    /// An equality conjunct was answered from a secondary index.
    IndexPushdown {
        /// The index used, as `Class.Attr`.
        index: String,
        /// Which engine re-checked the full filter per candidate.
        engine: Engine,
    },
}

impl fmt::Display for ScanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Interpreted scans keep the pre-engine rendering ("[seq]" …) so
        // existing EXPLAIN consumers are unaffected; compiled scans append
        // the marker.
        let (body, engine) = match self {
            ScanKind::Sequential { engine } => ("seq".to_owned(), engine),
            ScanKind::Parallel { chunks, engine } => (format!("parallel ×{chunks}"), engine),
            ScanKind::IndexPushdown { index, engine } => (format!("index {index}"), engine),
        };
        match engine {
            Engine::Interpreted => write!(f, "[{body}]"),
            compiled => write!(f, "[{body} {compiled}]"),
        }
    }
}

/// One include-term scan inside a full recompute: how it was executed,
/// plus the counters it measured while running.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanEvent {
    /// How the scan was executed.
    pub kind: ScanKind,
    /// What the scan measured ([`ScanActuals::default`] when the scan ran
    /// without an actuals frame, e.g. from a pre-actuals caller).
    pub actuals: ScanActuals,
    /// The planner's row estimate for this scan, when one was produced
    /// (`None` for pre-planner callers or cold statistics).
    pub est_rows: Option<u64>,
}

impl fmt::Display for ScanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
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
    StaleServe {
        /// How many recompute attempts (initial + retries) failed before
        /// the view fell back to the cached population.
        attempts: u32,
    },
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
            PopPath::StaleServe { attempts } => write!(f, "StaleServe{{attempts={attempts}}}"),
        }
    }
}

/// The path outcome the view layer reports to [`end_population`]; the
/// collector grafts the recorded scans onto `FullRecompute` itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopOutcome {
    /// See [`PopPath::CacheHit`].
    CacheHit,
    /// See [`PopPath::Delta`].
    Delta {
        /// Number of changed oids re-tested.
        retested: usize,
    },
    /// See [`PopPath::FullRecompute`].
    FullRecompute,
    /// See [`PopPath::StaleServe`].
    StaleServe {
        /// Failed recompute attempts before the stale fallback.
        attempts: u32,
    },
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

/// One in-flight population frame: the scans recorded since its
/// [`begin_population`].
type ScanFrame = Vec<ScanEvent>;

/// What one [`collect`] scope observed.
#[derive(Default)]
pub(crate) struct Collector {
    /// Population events, in completion order.
    pub(crate) events: Vec<PopulationTrace>,
    /// The decision of the planned query that ran in the scope
    /// ([`note_decision`]).
    pub(crate) decision: Option<Decision>,
    /// Stack of open population frames (populations can nest when a view
    /// body mentions another virtual class).
    frames: Vec<ScanFrame>,
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

/// Opens a population frame. Every call must be paired with exactly one
/// [`end_population`] or [`abort_population`]. No-op without a collector.
pub fn begin_population() {
    collecting(|col| col.frames.push(Vec::new()));
}

/// Records how an include-term scan of the current population frame was
/// executed, together with what it measured and the planner's row estimate
/// for it when one was produced. No-op without a collector or an open
/// frame.
pub fn record_scan_est(kind: ScanKind, actuals: ScanActuals, est_rows: Option<u64>) {
    collecting(|col| {
        if let Some(frame) = col.frames.last_mut() {
            frame.push(ScanEvent {
                kind,
                actuals,
                est_rows,
            });
        }
    });
}

/// Closes the current population frame as `outcome` and emits its event.
/// No-op without a collector.
pub fn end_population(class: Symbol, outcome: PopOutcome, rows: usize, nanos: u64) {
    collecting(|col| {
        let scans = col.frames.pop().unwrap_or_default();
        let path = match outcome {
            PopOutcome::CacheHit => PopPath::CacheHit,
            PopOutcome::Delta { retested } => PopPath::Delta { retested },
            PopOutcome::FullRecompute => PopPath::FullRecompute { scans },
            PopOutcome::StaleServe { attempts } => PopPath::StaleServe { attempts },
        };
        col.events.push(PopulationTrace {
            class,
            path,
            rows,
            nanos,
        });
    });
}

/// Closes the current population frame without emitting an event (the
/// population failed). No-op without a collector.
pub fn abort_population() {
    collecting(|col| {
        col.frames.pop();
    });
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
pub(crate) fn observe<R>(f: impl FnOnce() -> R) -> (R, Collector) {
    let (r, collector) = ctx::scoped(|c| &mut c.collector, Some(Collector::default()), f);
    (r, collector.unwrap_or_default())
}

/// Runs a query like [`run_query`](crate::run_query) but returns, alongside
/// the value, a [`QueryTrace`] with parse / typecheck / optimize / execute
/// timings and every population event execution triggered. Typecheck
/// failure is recorded in the trace but does not abort the run (the
/// evaluator is dynamically typed, matching `run_query`).
pub fn run_query_traced(src: &dyn DataSource, query: &str) -> Result<(ov_oodb::Value, QueryTrace)> {
    use std::time::Instant;
    let _span = ov_oodb::span!("query.run");
    let mut trace = QueryTrace::default();

    let t0 = Instant::now();
    let expr = {
        let _s = ov_oodb::span!("query.parse");
        crate::parser::parse_expr(query)?
    };
    trace.stages.push(Stage {
        name: "parse",
        nanos: t0.elapsed().as_nanos() as u64,
        detail: expr.to_string(),
    });

    let t0 = Instant::now();
    let detail = {
        let _s = ov_oodb::span!("query.typecheck");
        match crate::typecheck::infer_expr(src, &expr) {
            Ok(t) => format!("{t:?}"),
            Err(e) => format!("error: {e}"),
        }
    };
    trace.stages.push(Stage {
        name: "typecheck",
        nanos: t0.elapsed().as_nanos() as u64,
        detail,
    });

    let t0 = Instant::now();
    let optimized = {
        let _s = ov_oodb::span!("query.optimize");
        crate::optimize::optimize_expr(&expr)
    };
    trace.stages.push(Stage {
        name: "optimize",
        nanos: t0.elapsed().as_nanos() as u64,
        detail: if optimized == expr {
            "(unchanged)".to_owned()
        } else {
            optimized.to_string()
        },
    });

    let (fp, normalized) = crate::fingerprint::fingerprint_expr(&expr);
    trace.fingerprint = fp;
    trace.normalized = normalized;

    let t0 = Instant::now();
    let (((value, engine), observed), actuals) =
        with_scan_actuals(|| observe(|| crate::exec::dispatch(src, &optimized)));
    trace.stages.push(Stage {
        name: "execute",
        nanos: t0.elapsed().as_nanos() as u64,
        detail: format!("engine={engine}"),
    });
    trace.populations = observed.events;
    trace.actuals = actuals;
    trace.engine = Some(engine);
    trace.planner = observed.decision.map(PlanChoice::from);
    let value = value?;
    trace.rows = match &value {
        ov_oodb::Value::Set(s) => Some(s.len()),
        ov_oodb::Value::List(l) => Some(l.len()),
        _ => None,
    };
    Ok((value, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ov_oodb::sym;

    /// A sequential interpreted scan, the common test fixture.
    fn seq() -> ScanKind {
        ScanKind::Sequential {
            engine: Engine::Interpreted,
        }
    }

    /// Wraps a kind in a zero-actuals [`ScanEvent`].
    fn ev(kind: ScanKind) -> ScanEvent {
        ScanEvent {
            kind,
            actuals: ScanActuals::default(),
            est_rows: None,
        }
    }

    #[test]
    fn hooks_are_noops_without_a_collector() {
        assert!(!tracing_active());
        begin_population();
        record_scan_est(seq(), ScanActuals::default(), None);
        end_population(sym("X"), PopOutcome::FullRecompute, 0, 1);
        abort_population();
        // Nothing to observe: the point is simply that none of it panics.
    }

    #[test]
    fn collect_captures_population_events() {
        let ((), events) = collect(|| {
            assert!(tracing_active());
            begin_population();
            record_scan_est(
                ScanKind::Parallel {
                    chunks: 4,
                    engine: Engine::Compiled,
                },
                ScanActuals::default(),
                None,
            );
            record_scan_est(seq(), ScanActuals::default(), None);
            end_population(sym("Adult"), PopOutcome::FullRecompute, 12, 5_000);
        });
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].class, sym("Adult"));
        assert_eq!(events[0].rows, 12);
        assert_eq!(
            events[0].path,
            PopPath::FullRecompute {
                scans: vec![
                    ev(ScanKind::Parallel {
                        chunks: 4,
                        engine: Engine::Compiled
                    }),
                    ev(seq())
                ]
            }
        );
        assert!(!tracing_active());
    }

    #[test]
    fn nested_frames_attach_scans_to_the_right_population() {
        let ((), events) = collect(|| {
            begin_population(); // outer
            record_scan_est(seq(), ScanActuals::default(), None);
            begin_population(); // inner
            record_scan_est(
                ScanKind::IndexPushdown {
                    index: "Person.City".into(),
                    engine: Engine::Interpreted,
                },
                ScanActuals::default(),
                None,
            );
            end_population(sym("Inner"), PopOutcome::FullRecompute, 1, 10);
            end_population(sym("Outer"), PopOutcome::FullRecompute, 2, 20);
        });
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].class, sym("Inner"));
        assert_eq!(
            events[0].path,
            PopPath::FullRecompute {
                scans: vec![ev(ScanKind::IndexPushdown {
                    index: "Person.City".into(),
                    engine: Engine::Interpreted,
                })]
            }
        );
        assert_eq!(
            events[1].path,
            PopPath::FullRecompute {
                scans: vec![ev(seq())]
            }
        );
    }

    #[test]
    fn abort_closes_a_frame_without_an_event() {
        let ((), events) = collect(|| {
            begin_population();
            record_scan_est(seq(), ScanActuals::default(), None);
            abort_population();
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
                b.step(0).unwrap();
                b.step(0).unwrap();
                let ((), inner) = with_scan_actuals(|| {
                    let b = crate::budget::current().unwrap();
                    b.step(0).unwrap();
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
            begin_population();
            end_population(sym("A"), PopOutcome::CacheHit, 1, 1);
            let ((), inner) = collect(|| {
                begin_population();
                end_population(sym("B"), PopOutcome::CacheHit, 2, 2);
            });
            assert_eq!(inner.len(), 1);
            assert_eq!(inner[0].class, sym("B"));
            begin_population();
            end_population(sym("C"), PopOutcome::CacheHit, 3, 3);
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
            scans: vec![
                ev(ScanKind::IndexPushdown {
                    index: "Person.City".into(),
                    engine: Engine::Interpreted,
                }),
                ev(ScanKind::Parallel {
                    chunks: 8,
                    engine: Engine::Interpreted,
                }),
            ],
        };
        assert_eq!(
            full.to_string(),
            "FullRecompute [index Person.City] [parallel ×8]"
        );
        assert_eq!(fmt_ns(870), "870ns");
        assert_eq!(fmt_ns(3_100_000), "3.1ms");
    }

    #[test]
    fn compiled_scans_carry_the_engine_marker() {
        assert_eq!(seq().to_string(), "[seq]");
        assert_eq!(
            ScanKind::Sequential {
                engine: Engine::Compiled
            }
            .to_string(),
            "[seq compiled]"
        );
        assert_eq!(
            ScanKind::Parallel {
                chunks: 4,
                engine: Engine::Compiled
            }
            .to_string(),
            "[parallel ×4 compiled]"
        );
        assert_eq!(
            ScanKind::IndexPushdown {
                index: "Person.City".into(),
                engine: Engine::Compiled
            }
            .to_string(),
            "[index Person.City compiled]"
        );
    }

    #[test]
    fn scan_events_render_actuals_only_when_measured() {
        assert_eq!(ev(seq()).to_string(), "[seq]");
        let measured = ScanEvent {
            kind: ScanKind::Sequential {
                engine: Engine::Compiled,
            },
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
            "[seq compiled] (scanned=6 matched=2 steps=20 rows_charged=2 cache=5/6)"
        );
    }
}
