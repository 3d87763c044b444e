//! The ambient execution context: everything a statement's evaluation
//! reads that is not an argument.
//!
//! `DataSource` signatures know nothing about engines, budgets or tracing,
//! and `&View` *is* the data source, so the governing caller cannot hand
//! these down the read path; it brackets the work instead and the layers
//! below read the bracket. All of it lives here, in one [`ExecCtx`] behind
//! the crate's one `thread_local!`: the engine and planner overrides, the
//! budget, the trace collector (population events and the planner's
//! decision), the open population request's scans and the open actuals
//! frame. The public entry points keep their homes —
//! [`crate::with_engine_mode`], [`crate::with_planner`],
//! [`crate::budget::with`], [`crate::plan::collect`],
//! [`crate::plan::population_scans`], [`crate::plan::with_scan_actuals`] —
//! and are each a [`scoped`] call on one field.
//!
//! Two rules hold for every field alike:
//!
//! * **A scope restores on unwind.** [`scoped`] is the only install/restore
//!   sequence; a panic caught above it (the chaos suites do this on the
//!   reading thread) leaves the thread reading what it read before.
//! * **Workers inherit through [`fork`].** A scan that fans out hands its
//!   workers the engine, the planner switch and the budget, and each worker
//!   measures in an actuals frame of its own. The collector stays with the
//!   coordinator: it is the thread making the plan decision.
//!
//! Borrows of the cell are short by construction: [`with`] runs a closure
//! that must not call back into the engine, and [`scoped`] releases the
//! cell before the scoped work starts. Per-row code never comes here —
//! `Scan::new`, `Evaluator::new` and `RowTest::new` capture the budget once
//! per scan.

use std::cell::RefCell;
use std::sync::Arc;

use crate::budget::Budget;
use crate::compile::EngineMode;
use crate::plan::{Collector, ScanActuals, ScanEvent};

/// One thread's execution context. Every field is the *innermost* open
/// scope's value; the enclosing scopes' values wait in their [`scoped`]
/// calls, so the call stack is the stack.
pub(crate) struct ExecCtx {
    /// [`crate::with_engine_mode`]'s override; `None` is the default engine.
    pub engine: Option<EngineMode>,
    /// [`crate::with_planner`]'s override; `None` is "on".
    pub planner: Option<bool>,
    /// The governing budget ([`crate::budget::with`]).
    pub budget: Option<Arc<Budget>>,
    /// The open trace collector ([`crate::plan::collect`]).
    pub collector: Option<Collector>,
    /// The innermost population request's scans, while a collector is open
    /// ([`crate::plan::population_scans`]).
    pub scans: Option<Vec<ScanEvent>>,
    /// The open actuals frame ([`crate::plan::with_scan_actuals`]).
    pub actuals: Option<ScanActuals>,
}

impl ExecCtx {
    const fn new() -> ExecCtx {
        ExecCtx {
            engine: None,
            planner: None,
            budget: None,
            collector: None,
            scans: None,
            actuals: None,
        }
    }
}

thread_local! {
    static CTX: RefCell<ExecCtx> = const { RefCell::new(ExecCtx::new()) };
}

/// Reads or edits this thread's context. `f` must not call back into the
/// engine: it runs with the cell borrowed.
pub(crate) fn with<R>(f: impl FnOnce(&mut ExecCtx) -> R) -> R {
    CTX.with(|c| f(&mut c.borrow_mut()))
}

/// Where one setting lives in the context.
type Slot<T> = fn(&mut ExecCtx) -> &mut T;

/// Runs `f` with `value` in `slot` and returns its result together with
/// what the slot held when it finished; the slot's previous content is put
/// back on the way out, on unwind too. The cell is not borrowed while `f`
/// runs.
pub(crate) fn scoped<T: 'static, R>(slot: Slot<T>, value: T, f: impl FnOnce() -> R) -> (R, T) {
    struct Restore<T: 'static> {
        slot: Slot<T>,
        outer: Option<T>,
    }
    impl<T> Restore<T> {
        /// Puts the outer value back (once) and hands out the scope's own.
        fn leave(&mut self) -> Option<T> {
            let outer = self.outer.take()?;
            Some(with(|c| std::mem::replace((self.slot)(c), outer)))
        }
    }
    impl<T> Drop for Restore<T> {
        fn drop(&mut self) {
            self.leave();
        }
    }
    let outer = with(|c| std::mem::replace(slot(c), value));
    let mut restore = Restore {
        slot,
        outer: Some(outer),
    };
    let r = f();
    let inner = restore.leave().expect("a scope is left once");
    (r, inner)
}

/// What a coordinating thread hands the workers of a scan it splits.
pub(crate) struct Fork {
    engine: Option<EngineMode>,
    planner: Option<bool>,
    budget: Option<Arc<Budget>>,
}

/// The inheritable part of this thread's context: the engine, the planner
/// switch, and the budget — shared, so every worker drains the
/// coordinator's counters.
pub(crate) fn fork() -> Fork {
    with(|c| Fork {
        engine: c.engine,
        planner: c.planner,
        budget: c.budget.clone(),
    })
}

impl Fork {
    /// Runs `f` on the calling (worker) thread under the forked settings,
    /// in an actuals frame of its own, and returns what the frame measured
    /// with the result. No collector: workers emit no population events.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> (R, ScanActuals) {
        let worker = ExecCtx {
            engine: self.engine,
            planner: self.planner,
            budget: self.budget.clone(),
            ..ExecCtx::new()
        };
        scoped(|c| c, worker, || crate::plan::with_scan_actuals(f)).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{add_actuals, with_scan_actuals};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn scanned(rows_scanned: u64) -> ScanActuals {
        ScanActuals {
            rows_scanned,
            ..ScanActuals::default()
        }
    }

    #[test]
    fn a_scope_hands_back_what_it_held_and_restores_the_outer_value() {
        let ((), inner) = scoped(
            |c| &mut c.planner,
            Some(false),
            || {
                assert_eq!(with(|c| c.planner), Some(false));
                with(|c| c.planner = Some(true));
            },
        );
        assert_eq!(inner, Some(true), "the scope's own value comes back");
        assert_eq!(with(|c| c.planner), None, "the outer value is restored");
    }

    #[test]
    fn the_actuals_stack_is_as_deep_after_a_caught_panic_as_before() {
        assert!(with(|c| c.actuals.is_none()));
        let caught = catch_unwind(|| with_scan_actuals(|| panic!("boom")));
        assert!(caught.is_err());
        assert!(with(|c| c.actuals.is_none()), "no frame leaked");

        // Under an open frame, the frame a panic abandoned is gone and the
        // open one is innermost again: it, not a leaked frame, takes what
        // is counted next.
        let ((), outer) = with_scan_actuals(|| {
            add_actuals(&scanned(2));
            let caught = catch_unwind(AssertUnwindSafe(|| {
                with_scan_actuals(|| {
                    add_actuals(&scanned(100));
                    panic!("boom")
                })
            }));
            assert!(caught.is_err());
            assert_eq!(with(|c| c.actuals), Some(scanned(2)));
            add_actuals(&scanned(3));
        });
        assert_eq!(outer.rows_scanned, 5);
        assert!(with(|c| c.actuals.is_none()));
    }

    #[test]
    fn a_fork_carries_settings_and_budget_but_no_collector() {
        let budget = Arc::new(Budget::new());
        let fork = crate::budget::with(budget.clone(), || {
            crate::with_engine_mode(EngineMode::Interp, || {
                crate::with_planner(false, || crate::plan::collect(fork).0)
            })
        });
        let (seen, actuals) = std::thread::spawn(move || {
            fork.run(|| {
                add_actuals(&scanned(7));
                (
                    crate::engine_mode(),
                    crate::planner_enabled(),
                    crate::budget::current(),
                    crate::plan::tracing_active(),
                )
            })
        })
        .join()
        .unwrap();
        assert_eq!(seen.0, EngineMode::Interp);
        assert!(!seen.1);
        assert!(Arc::ptr_eq(&seen.2.unwrap(), &budget));
        assert!(!seen.3, "workers do not collect population events");
        assert_eq!(actuals.rows_scanned, 7, "the worker's own frame");
    }
}
