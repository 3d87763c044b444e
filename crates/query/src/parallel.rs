//! Parallel query execution.
//!
//! Single-binding `select … from V in C [where F]` queries iterate a
//! collection and evaluate the filter and projection independently per
//! element — an embarrassingly parallel loop. [`eval_select_parallel`]
//! splits the collection into chunks and evaluates them on a scoped thread
//! pool, merging the per-chunk sets. Everything else (multi-binding
//! queries, small collections, non-select expressions) falls back to the
//! sequential evaluator, so results are always identical to
//! [`crate::eval_select`].
//!
//! This requires the data source to be shareable across threads, hence the
//! `DataSource + Sync` bound — satisfied by `ov_oodb::Database` and (since
//! its caches moved to sharded locks) `ov_views::View`.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use ov_oodb::{SelectExpr, Value};

use crate::error::{QueryError, Result};
use crate::eval::{eval_expr, truthy, Env, Evaluator};
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

    /// Worker count for a scan over `len` elements (≥ 1, ≤ `len`).
    pub fn workers_for(&self, len: usize) -> usize {
        self.threads.max(1).min(len.max(1))
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
        return Evaluator::new(src).select(q, &mut Env::new());
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
    // Strategy choice: the cost-based planner weighs the split's fixed
    // overhead (~one threshold's worth of rows) against the per-worker
    // share; with the planner off, the fixed threshold heuristic decides.
    let split = if crate::planner::planner_enabled() {
        crate::planner::choose_split(items.len(), cfg.workers_for(items.len()), cfg.threshold)
    } else {
        cfg.should_split(items.len())
    };
    if !split {
        return Evaluator::new(src).select(q, &mut Env::new());
    }
    // Compile the filter and projection once on the coordinator; every
    // chunk then builds its own executor (register file, value stack, and
    // resolution caches are per-thread state). Any uncovered expression —
    // or `.engine interp` — drops the whole scan to the interpreter.
    let compiled = if crate::compile::compiled_enabled() {
        let vars = [*var];
        let filter = match q.filter.as_deref() {
            Some(f) => crate::compile::compile_predicate(f, &vars).map(Some),
            None => Some(None),
        };
        match (filter, crate::compile::compile_predicate(&q.proj, &vars)) {
            (Some(f), Some(p)) => Some((f, p)),
            _ => None,
        }
    } else {
        None
    };
    let out = match &compiled {
        Some((filter, proj)) => filter_map_chunked(cfg, &items, |chunk, keep| {
            let mut fscan = filter.as_ref().map(|p| crate::compile::Scan::new(p, src));
            let mut pscan = crate::compile::Scan::new(proj, src);
            let mut actuals = crate::plan::ScanActuals::default();
            let r = (|| {
                for item in chunk {
                    actuals.rows_scanned += 1;
                    if let Some(f) = &mut fscan {
                        f.bind(0, item.clone());
                        if !truthy(&f.run(0)?) {
                            continue;
                        }
                    }
                    actuals.rows_matched += 1;
                    pscan.bind(0, item.clone());
                    keep.insert(pscan.run(0)?);
                }
                Ok(())
            })();
            if let Some(f) = &mut fscan {
                actuals.absorb(&f.take_actuals());
            }
            actuals.absorb(&pscan.take_actuals());
            crate::plan::add_actuals(&actuals);
            r
        })?,
        None => filter_map_chunked(cfg, &items, |chunk, keep| {
            let ev = Evaluator::new(src);
            let mut actuals = crate::plan::ScanActuals::default();
            let r = (|| {
                for item in chunk {
                    let mut env = Env::new();
                    env.bind(*var, item.clone());
                    actuals.rows_scanned += 1;
                    if let Some(f) = q.filter.as_deref() {
                        if !truthy(&ev.eval(f, &mut env)?) {
                            continue;
                        }
                    }
                    actuals.rows_matched += 1;
                    keep.insert(ev.eval(&q.proj, &mut env)?);
                }
                Ok(())
            })();
            crate::plan::add_actuals(&actuals);
            r
        })?,
    };
    crate::compile::finish_select(q.the, out)
}

/// Runs a query string, executing top-level selects through
/// [`eval_select_parallel`]. Non-select expressions evaluate sequentially.
pub fn run_query_parallel(
    src: &(dyn DataSource + Sync),
    cfg: &ParallelConfig,
    query: &str,
) -> Result<Value> {
    let e = crate::parser::parse_expr(query)?;
    match &e {
        ov_oodb::Expr::Select(q) => eval_select_parallel(src, cfg, q),
        _ => eval_expr(src, &e),
    }
}

/// Splits `items` into one chunk per worker and runs `per_chunk` on each
/// chunk on a scoped thread pool, merging the per-chunk result sets.
/// The first error (in chunk order) wins.
fn filter_map_chunked<T, F>(
    cfg: &ParallelConfig,
    items: &[T],
    per_chunk: F,
) -> Result<BTreeSet<Value>>
where
    T: Sync,
    F: Fn(&[T], &mut BTreeSet<Value>) -> Result<()> + Sync,
{
    let workers = cfg.workers_for(items.len());
    let chunk_len = items.len().div_ceil(workers);
    let _span = ov_oodb::span!(
        "query.parallel_scan",
        items = items.len(),
        chunks = items.len().div_ceil(chunk_len)
    );
    // The coordinator's budget is re-installed on every worker so all
    // chunks drain the same shared step/row counters.
    let budget = crate::budget::current();
    // Workers cannot see the coordinator's thread-local actuals frame, so
    // when one is open each worker measures its chunk in a frame of its
    // own and folds the *work counters* into these shared cells; the
    // coordinator reports them once after the scope. Budget charges are
    // deliberately not folded — worker-side budget deltas overlap under
    // concurrency, and the coordinator's own bracketing delta already
    // covers every worker's charges (the budget is shared).
    let track = crate::plan::actuals_active();
    let shared: [AtomicU64; 4] = std::array::from_fn(|_| AtomicU64::new(0));
    let results: Vec<Result<BTreeSet<Value>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .enumerate()
            .map(|(i, chunk)| {
                let per_chunk = &per_chunk;
                let budget = budget.clone();
                let shared = &shared;
                scope.spawn(move || {
                    // Emitted on the worker, so the flight recorder sees
                    // the chunk under the worker's own thread id.
                    let _chunk_span =
                        ov_oodb::span!("query.scan_chunk", chunk = i, len = chunk.len());
                    let work = || -> Result<BTreeSet<Value>> {
                        ov_oodb::faults::hit("query.scan_chunk")
                            .map_err(ov_oodb::OodbError::Fault)?;
                        if let Some(b) = &budget {
                            b.check_deadline()?;
                        }
                        let mut keep = BTreeSet::new();
                        per_chunk(chunk, &mut keep)?;
                        if let Some(b) = &budget {
                            b.note_rows(keep.len() as u64)?;
                        }
                        Ok(keep)
                    };
                    let work = || match &budget {
                        Some(b) => crate::budget::with(b.clone(), work),
                        None => work(),
                    };
                    if track {
                        let (r, a) = crate::plan::with_scan_actuals(work);
                        let cells = [a.rows_scanned, a.rows_matched, a.cache_hits, a.cache_misses];
                        for (cell, n) in shared.iter().zip(cells) {
                            cell.fetch_add(n, Ordering::Relaxed);
                        }
                        r
                    } else {
                        work()
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // A panicking chunk (an injected panic, a bug in an
                // attribute body) becomes a typed per-chunk error instead
                // of tearing down the coordinator.
                Err(payload) => Err(QueryError::Panicked {
                    site: "query.scan_chunk",
                    msg: panic_message(&payload),
                }),
            })
            .collect()
    });
    if track {
        crate::plan::add_actuals(&crate::plan::ScanActuals {
            rows_scanned: shared[0].load(Ordering::Relaxed),
            rows_matched: shared[1].load(Ordering::Relaxed),
            cache_hits: shared[2].load(Ordering::Relaxed),
            cache_misses: shared[3].load(Ordering::Relaxed),
            ..Default::default()
        });
    }
    let mut out = BTreeSet::new();
    for r in results {
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
