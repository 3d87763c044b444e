//! Parallel query execution.
//!
//! Single-binding `select … from V in C [where F]` queries iterate a
//! collection and evaluate the filter and projection independently per
//! element — an embarrassingly parallel loop. [`eval_select_parallel`]
//! splits the collection into chunks and evaluates them on a scoped thread
//! pool, merging the per-chunk sets. Everything else (multi-binding
//! queries, small collections) runs the compiled select sequentially, so
//! results are always identical to [`crate::eval_select`].
//!
//! This requires the data source to be shareable across threads, hence the
//! `DataSource + Sync` bound — satisfied by `ov_oodb::Database` and (since
//! its caches moved to sharded locks) `ov_views::View`.

use std::collections::BTreeSet;

use ov_oodb::{SelectExpr, Value};

use crate::compile::{compile_predicate, run_select};
use crate::error::{QueryError, Result};
use crate::eval::{finish_select, Env, Evaluator};
use crate::plan::ScanActuals;
use crate::rowtest::{scan_rows, RowSpec, RowTest};
use crate::source::DataSource;

/// Knobs for parallel scans.
///
/// The default is sequential (`threads == 1`): parallelism is opt-in, and
/// collections smaller than `threshold` are never split — for small extents
/// the thread spawn/merge overhead dwarfs the scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker thread count. `1` disables parallel execution entirely; `0`
    /// is treated as `1`.
    pub threads: usize,
    /// Minimum collection size before a scan is split across threads.
    pub threshold: usize,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig {
            threads: 1,
            threshold: ParallelConfig::DEFAULT_THRESHOLD,
        }
    }
}

impl ParallelConfig {
    /// Default minimum collection size for going parallel.
    pub const DEFAULT_THRESHOLD: usize = 1024;

    /// A config using `threads` workers and the default threshold.
    pub fn with_threads(threads: usize) -> ParallelConfig {
        ParallelConfig {
            threads,
            ..ParallelConfig::default()
        }
    }

    /// Should a scan over `len` elements be split?
    pub fn should_split(&self, len: usize) -> bool {
        self.threads > 1 && len >= self.threshold.max(2)
    }

    /// The strategy choice for a scan over `len` elements: the cost-based
    /// planner weighs the split's fixed overhead (~one threshold's worth of
    /// rows) against the per-worker share; with the planner off, the fixed
    /// threshold of [`Self::should_split`] decides.
    pub fn chooses_split(&self, len: usize) -> bool {
        if crate::planner::planner_enabled() {
            crate::planner::choose_split(len, self.workers_for(len), self.threshold)
        } else {
            self.should_split(len)
        }
    }

    /// Worker count for a scan over `len` elements (≥ 1, ≤ `len`).
    pub fn workers_for(&self, len: usize) -> usize {
        self.threads.max(1).min(len.max(1))
    }

    /// Chunk length of a split scan over `len` elements: one chunk per
    /// worker.
    pub fn chunk_len(&self, len: usize) -> usize {
        len.div_ceil(self.workers_for(len))
    }
}

/// Evaluates a select with chunked parallel iteration when profitable;
/// exact same results as [`crate::eval_select`].
pub fn eval_select_parallel(
    src: &(dyn DataSource + Sync),
    cfg: &ParallelConfig,
    q: &SelectExpr,
) -> Result<Value> {
    // Only the single-binding form parallelizes: later bindings may refer
    // to earlier variables, which forces the sequential nested loop.
    let [(var, coll_expr)] = q.bindings.as_slice() else {
        return run_select(src, q);
    };
    // The binding collection itself is evaluated sequentially — this keeps
    // the name-resolution order (variable → named object → class extent)
    // byte-for-byte identical to the sequential path.
    let coll = Evaluator::new(src).eval(coll_expr, &mut Env::new())?;
    let items: Vec<Value> = match coll {
        Value::Set(s) => s.into_iter().collect(),
        Value::List(l) => l,
        Value::Null => Vec::new(),
        other => {
            return Err(QueryError::eval(format!(
                "`from {var} in …` needs a set or list, found {}",
                other.kind()
            )))
        }
    };
    if !cfg.chooses_split(items.len()) {
        return run_select(src, q);
    }
    // Compile the filter and projection once on the coordinator; every
    // chunk then builds its own row test.
    let filter = q.filter.as_deref().map(|f| compile_predicate(f, &[*var]));
    let proj = compile_predicate(&q.proj, &[*var]);
    let spec = RowSpec {
        filter: filter.as_ref(),
        proj: Some(&proj),
    };
    let out = filter_map_chunked(cfg, "query.scan_chunk", &items, |chunk, keep| {
        let mut test = RowTest::new(src, spec);
        let mut actuals = ScanActuals::default();
        let rows = chunk.iter().cloned();
        let r = scan_rows(rows, &mut test, &mut actuals, |v| keep.insert(v));
        crate::plan::add_actuals(&actuals);
        r
    })?;
    finish_select(q.the, out)
}

/// Runs a query string, executing top-level selects through
/// [`eval_select_parallel`]. Any other statement — and, under
/// [`crate::EngineMode::Interp`], a select too — runs like
/// [`crate::run_expr`]'s.
pub fn run_query_parallel(
    src: &(dyn DataSource + Sync),
    cfg: &ParallelConfig,
    query: &str,
) -> Result<Value> {
    let e = crate::parser::parse_expr(query)?;
    match &e {
        ov_oodb::Expr::Select(q) if crate::engine_mode() == crate::EngineMode::Compiled => {
            eval_select_parallel(src, cfg, q)
        }
        _ => crate::run_expr(src, &e),
    }
}

/// Splits `items` into one chunk per worker and runs `per_chunk` on each
/// chunk on a scoped thread pool, merging the per-chunk result sets — the
/// one fan-out, shared by [`eval_select_parallel`] and the view layer's
/// split population scans. `site` names the per-chunk failpoint and span
/// and labels a caught worker panic ([`QueryError::Panicked`]). Every
/// worker runs under the coordinator's engine mode, planner switch, budget
/// and view frames, and checks the deadline before it starts; rows are
/// charged by `per_chunk`'s row loop. The first error (in chunk order)
/// wins.
pub fn filter_map_chunked<T, K, F>(
    cfg: &ParallelConfig,
    site: &'static str,
    items: &[T],
    per_chunk: F,
) -> Result<BTreeSet<K>>
where
    T: Sync,
    K: Ord + Send,
    F: Fn(&[T], &mut BTreeSet<K>) -> Result<()> + Sync,
{
    let chunk_len = cfg.chunk_len(items.len());
    let _span = ov_oodb::span!(
        "query.parallel_scan",
        items = items.len(),
        chunks = items.len().div_ceil(chunk_len)
    );
    // Workers inherit the coordinator's engine, planner switch, budget
    // (shared, so all chunks drain the same step/row counters) and view
    // frames. They cannot see its actuals frame or its collector, so each
    // measures its chunk in a frame of its own, observes in a collector of
    // its own, and hands both back with its chunk; the coordinator folds the
    // *work counters* into its own frame (a no-op when it has none open)
    // and the population events into its collector, in chunk order. Budget
    // charges are deliberately not folded — worker-side budget deltas
    // overlap under concurrency, and the coordinator's own bracketing delta
    // already covers every worker's charges.
    let fork = crate::ctx::fork();
    let mut results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .enumerate()
            .map(|(i, chunk)| {
                let (per_chunk, fork) = (&per_chunk, &fork);
                scope.spawn(move || {
                    // Emitted on the worker, so the flight recorder sees
                    // the chunk under the worker's own thread id.
                    let _chunk_span = ov_oodb::span!(site, chunk = i, len = chunk.len());
                    fork.run(|| -> Result<BTreeSet<K>> {
                        ov_oodb::faults::hit(site).map_err(ov_oodb::OodbError::Fault)?;
                        if let Some(b) = crate::budget::current() {
                            b.check_deadline()?;
                        }
                        let mut keep = BTreeSet::new();
                        per_chunk(chunk, &mut keep)?;
                        Ok(keep)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // A panicking chunk (an injected panic, a bug in an
                // attribute body) becomes a typed per-chunk error instead
                // of tearing down the coordinator.
                h.join().unwrap_or_else(|payload| {
                    let msg = panic_message(&payload);
                    (
                        Err(QueryError::Panicked { site, msg }),
                        ScanActuals::default(),
                        Vec::new(),
                    )
                })
            })
            .collect()
    });
    for (_, counted, events) in &mut results {
        crate::plan::add_actuals(counted);
        events.drain(..).for_each(crate::plan::record_population);
    }
    let mut out = BTreeSet::new();
    for (r, _, _) in results {
        out.extend(r?);
    }
    Ok(out)
}

/// Renders a caught panic payload (the `&str` / `String` conventions cover
/// `panic!` and `assert!`; anything else is opaque). Public so other layers
/// converting caught worker panics into [`QueryError::Panicked`] render
/// payloads the same way.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string panic payload>".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_script;
    use ov_oodb::{sym, System};

    fn setup(n: i64) -> System {
        let mut sys = System::new();
        execute_script(
            &mut sys,
            r#"
            database D;
            class Person type [Name: string, Age: integer];
        "#,
        )
        .unwrap();
        let handle = sys.database(sym("D")).unwrap();
        let mut db = handle.write();
        let class = db.schema.require_class(sym("Person")).unwrap();
        for i in 0..n {
            db.create_object(
                class,
                Value::tuple([
                    (sym("Name"), Value::str(&format!("p{i}"))),
                    (sym("Age"), Value::Int(i % 90)),
                ]),
            )
            .unwrap();
        }
        drop(db);
        sys
    }

    #[test]
    fn parallel_matches_sequential() {
        let sys = setup(500);
        let handle = sys.database(sym("D")).unwrap();
        let db = handle.read();
        let q = "select P from P in Person where P.Age >= 21";
        let seq = crate::run_query(&*db, q).unwrap();
        let cfg = ParallelConfig {
            threads: 4,
            threshold: 1,
        };
        let par = run_query_parallel(&*db, &cfg, q).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn projection_and_the_forms_match() {
        let sys = setup(100);
        let handle = sys.database(sym("D")).unwrap();
        let db = handle.read();
        let cfg = ParallelConfig {
            threads: 3,
            threshold: 1,
        };
        let q = "select P.Name from P in Person where P.Age = 5";
        assert_eq!(
            crate::run_query(&*db, q).unwrap(),
            run_query_parallel(&*db, &cfg, q).unwrap()
        );
        let q = "select the P from P in Person where P.Name = \"p7\"";
        assert_eq!(
            crate::run_query(&*db, q).unwrap(),
            run_query_parallel(&*db, &cfg, q).unwrap()
        );
    }

    #[test]
    fn below_threshold_stays_sequential() {
        let sys = setup(10);
        let handle = sys.database(sym("D")).unwrap();
        let db = handle.read();
        let cfg = ParallelConfig {
            threads: 4,
            threshold: 1_000,
        };
        let q = "select P from P in Person";
        assert_eq!(
            crate::run_query(&*db, q).unwrap(),
            run_query_parallel(&*db, &cfg, q).unwrap()
        );
    }
}
