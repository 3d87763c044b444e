//! Cooperative resource governance for query evaluation.
//!
//! Nothing in the language stops a query (or a virtual-attribute body) from
//! running arbitrarily long or materializing arbitrarily many rows. A
//! [`Budget`] is the caller's contract with the engine: a wall-clock
//! **deadline**, a **max-steps** cap, a **max-rows** cap on materialized
//! results, and a **recursion-depth** cap (shared with the parser, which
//! counts its nesting against the same limit). Breaches surface as typed
//! [`QueryError::Cancelled`] / [`QueryError::ResourceExhausted`] errors
//! instead of running away.
//!
//! A budget charges what the plan touches, not how an engine walks it
//! (DESIGN.md §8): **one step per row a binding loop binds** (each
//! candidate of a scan, each item of every level of a nested loop), **one
//! step per computed body run** (so a recursive body stays governed on one
//! row), and **one row per value a `select` adds to its answer**. Nothing
//! else is charged, so the charge is a function of (plan, rows touched):
//! one plan charges alike in either engine, and a plan that touches fewer
//! rows charges fewer.
//!
//! The budget is part of the thread's ambient execution context
//! (`ctx.rs`): threading it through every evaluator frame would infect each
//! `DataSource` signature, so the governing caller brackets the work with
//! [`with`] and each executor captures the current budget once at
//! construction. Counters (`steps`, `rows`) are atomics, so readers on
//! several threads that install the same budget (`Arc` clones of it) drain
//! one allowance rather than one each.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::ctx;
use crate::error::QueryError;

/// How often (in steps) the deadline is re-checked. Reading the clock every
/// row would dominate a scan's cost; every 64th step bounds the overshoot
/// to 64 rows or bodies.
const DEADLINE_STRIDE: u64 = 64;

/// One breached budget dimension — the `source()` of a
/// [`QueryError::Cancelled`] / [`QueryError::ResourceExhausted`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BudgetBreach {
    /// The dimension that was exhausted (`"deadline"`, `"steps"`, …).
    pub limit: &'static str,
    /// The configured allowance (milliseconds for the deadline, a count
    /// otherwise).
    pub allowed: u64,
}

impl fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget {} limit exceeded (allowed {})",
            self.limit, self.allowed
        )
    }
}

impl std::error::Error for BudgetBreach {}

/// A cooperative resource budget for one evaluation.
///
/// Cheap to share: counters are relaxed atomics, limits are immutable after
/// construction. Build with the `with_*` methods, install with [`with`].
#[derive(Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    /// The original allowance, for error messages.
    deadline_ms: u64,
    max_steps: Option<u64>,
    max_rows: Option<u64>,
    max_depth: Option<usize>,
    steps: AtomicU64,
    rows: AtomicU64,
}

impl Budget {
    /// An unlimited budget (every check passes).
    pub fn new() -> Budget {
        Budget::default()
    }

    /// Caps wall-clock time, measured from this call.
    pub fn with_deadline_ms(mut self, ms: u64) -> Budget {
        self.deadline = Some(Instant::now() + Duration::from_millis(ms));
        self.deadline_ms = ms;
        self
    }

    /// Caps the number of steps: rows bound plus computed bodies run.
    pub fn with_max_steps(mut self, steps: u64) -> Budget {
        self.max_steps = Some(steps);
        self
    }

    /// Caps the number of rows materialized into results.
    pub fn with_max_rows(mut self, rows: u64) -> Budget {
        self.max_rows = Some(rows);
        self
    }

    /// Caps recursion depth — evaluation nesting *and* parser nesting
    /// (tighter than the evaluator's built-in hard cap if lower).
    pub fn with_max_depth(mut self, depth: usize) -> Budget {
        self.max_depth = Some(depth);
        self
    }

    /// Steps charged so far (across all threads sharing this budget).
    pub fn steps_used(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Rows materialized so far (across all threads sharing this budget).
    pub fn rows_used(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// The recursion-depth cap, if one is set.
    pub fn depth_cap(&self) -> Option<usize> {
        self.max_depth
    }

    /// Charges one step — a row bound or a body run; errs on a breached
    /// step cap or, every 64 steps, a passed deadline.
    /// The hot path: one `fetch_add` plus a compare.
    pub fn step(&self) -> Result<(), QueryError> {
        let steps = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(max) = self.max_steps {
            if steps > max {
                ov_oodb::metric_counter!("query.budget_exhausted").inc();
                return Err(QueryError::ResourceExhausted(BudgetBreach {
                    limit: "steps",
                    allowed: max,
                }));
            }
        }
        if steps.is_multiple_of(DEADLINE_STRIDE) {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Errs when `depth` exceeds the recursion-depth cap.
    pub fn check_depth(&self, depth: usize) -> Result<(), QueryError> {
        match self.max_depth {
            Some(max) if depth > max => {
                ov_oodb::metric_counter!("query.budget_exhausted").inc();
                Err(QueryError::ResourceExhausted(BudgetBreach {
                    limit: "recursion depth",
                    allowed: max as u64,
                }))
            }
            _ => Ok(()),
        }
    }

    /// Checks the deadline *now* (the step stride).
    pub fn check_deadline(&self) -> Result<(), QueryError> {
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                ov_oodb::metric_counter!("query.budget_cancelled").inc();
                return Err(QueryError::Cancelled(BudgetBreach {
                    limit: "deadline",
                    allowed: self.deadline_ms,
                }));
            }
        }
        Ok(())
    }

    /// Accounts `n` materialized rows; errs when the row cap is exceeded.
    pub fn note_rows(&self, n: u64) -> Result<(), QueryError> {
        let rows = self.rows.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(max) = self.max_rows {
            if rows > max {
                ov_oodb::metric_counter!("query.budget_exhausted").inc();
                return Err(QueryError::ResourceExhausted(BudgetBreach {
                    limit: "rows",
                    allowed: max,
                }));
            }
        }
        Ok(())
    }
}

/// Runs `f` with `budget` installed as this thread's current budget,
/// restoring the previous one after, on unwind too (budgets nest; the
/// innermost governs).
pub fn with<R>(budget: Arc<Budget>, f: impl FnOnce() -> R) -> R {
    ctx::scoped(|c| &mut c.budget, Some(budget), f).0
}

/// The budget governing this thread, if any.
pub fn current() -> Option<Arc<Budget>> {
    ctx::with(|c| c.budget.clone())
}

/// The effective parser nesting cap: the installed budget's depth cap,
/// bounded by `hard_cap` (the parser's own stack-safety limit).
pub fn parse_depth_cap(hard_cap: usize) -> usize {
    current()
        .and_then(|b| b.depth_cap())
        .map_or(hard_cap, |d| d.min(hard_cap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_passes_every_check() {
        let b = Budget::new();
        for d in 0..10_000 {
            b.step().unwrap();
            b.check_depth(d % 64).unwrap();
        }
        b.note_rows(1 << 40).unwrap();
        b.check_deadline().unwrap();
    }

    #[test]
    fn step_cap_trips_exactly_at_the_limit() {
        let b = Budget::new().with_max_steps(10);
        for _ in 0..10 {
            b.step().unwrap();
        }
        match b.step() {
            Err(QueryError::ResourceExhausted(breach)) => {
                assert_eq!(breach.limit, "steps");
                assert_eq!(breach.allowed, 10);
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
    }

    #[test]
    fn row_cap_counts_cumulatively() {
        let b = Budget::new().with_max_rows(100);
        b.note_rows(60).unwrap();
        assert!(matches!(
            b.note_rows(60),
            Err(QueryError::ResourceExhausted(_))
        ));
    }

    #[test]
    fn depth_cap_trips() {
        let b = Budget::new().with_max_depth(5);
        b.check_depth(5).unwrap();
        assert!(matches!(
            b.check_depth(6),
            Err(QueryError::ResourceExhausted(_))
        ));
    }

    #[test]
    fn expired_deadline_cancels() {
        let b = Budget::new().with_deadline_ms(0);
        std::thread::sleep(Duration::from_millis(2));
        match b.check_deadline() {
            Err(QueryError::Cancelled(breach)) => assert_eq!(breach.limit, "deadline"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn install_is_scoped_and_nests() {
        assert!(current().is_none());
        let outer = Arc::new(Budget::new().with_max_steps(1));
        with(outer.clone(), || {
            assert!(Arc::ptr_eq(&current().unwrap(), &outer));
            let inner = Arc::new(Budget::new());
            with(inner.clone(), || {
                assert!(Arc::ptr_eq(&current().unwrap(), &inner));
            });
            assert!(Arc::ptr_eq(&current().unwrap(), &outer));
        });
        assert!(current().is_none());
    }

    #[test]
    fn install_restores_after_panic() {
        let r = std::panic::catch_unwind(|| {
            with(Arc::new(Budget::new()), || panic!("boom"));
        });
        assert!(r.is_err());
        assert!(current().is_none());
    }

    #[test]
    fn shared_counters_govern_across_threads() {
        let b = Arc::new(Budget::new().with_max_steps(100));
        let hit_limit = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        if b.step().is_err() {
                            hit_limit.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                });
            }
        });
        assert!(
            hit_limit.load(Ordering::Relaxed),
            "4×50 steps must breach 100"
        );
    }

    #[test]
    fn parse_depth_cap_is_min_of_budget_and_hard_cap() {
        assert_eq!(parse_depth_cap(96), 96);
        with(Arc::new(Budget::new().with_max_depth(10)), || {
            assert_eq!(parse_depth_cap(96), 10);
        });
        with(Arc::new(Budget::new().with_max_depth(500)), || {
            assert_eq!(parse_depth_cap(96), 96);
        });
    }
}
