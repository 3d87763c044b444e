//! The ambient execution context: everything a statement's evaluation
//! reads that is not an argument.
//!
//! `DataSource` signatures know nothing about engines, budgets or tracing,
//! and `&View` *is* the data source, so the governing caller cannot hand
//! these down the read path; it brackets the work instead and the layers
//! below read the bracket. All of it lives here, in one [`ExecCtx`] behind
//! the one `thread_local!` of the query and view layers: the engine and
//! planner overrides, the budget, the trace collector (population events
//! and the planner's decision), the open population request's scans, the
//! open actuals frame, and the open view brackets, which add up to each
//! view's [`ViewFrame`] (its cycle guard and its body depth). The public
//! entry points keep their homes — [`crate::with_engine_mode`],
//! [`crate::with_planner`], [`crate::budget::with`],
//! [`crate::plan::collect`], [`crate::plan::population_scans`],
//! [`crate::plan::with_scan_actuals`], [`in_view`] — and are each a
//! [`scope`] over the context.
//!
//! One rule holds for every field alike: **a scope restores on unwind.**
//! [`scope`] is the only install/restore sequence; a panic caught above it
//! (the chaos suites do this on the reading thread) leaves the thread
//! reading what it read before — a view's hides included. Every scan runs
//! on the thread that asked for it, so nothing here is ever handed to
//! another thread: a second reader of the same view has a context of its
//! own.
//!
//! Borrows of the cell are short by construction: [`with`] runs a closure
//! that must not call back into the engine, and [`scope`] releases the
//! cell before the scoped work starts. Per-row code never comes here —
//! `Scan::new`, `Evaluator::new` and `RowTest::new` capture the budget once
//! per scan.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Arc;

use ov_oodb::ClassId;

use crate::budget::Budget;
use crate::compile::EngineMode;
use crate::plan::{Collector, ScanActuals, ScanEvent};

/// One view's evaluation state on one thread — what the paper's view
/// evaluation keeps on the call stack — as the thread's open brackets of
/// that view add it up ([`view_frame`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ViewFrame {
    /// Classes whose population is in flight, innermost last: the cycle
    /// guard (`A includes select … from B`, `B includes select … from A`).
    pub populating: Vec<ClassId>,
    /// Computed-attribute bodies and population queries open. While
    /// positive, the view's own definitions see through its hides (paper
    /// Example 5).
    pub body_depth: u32,
}

/// One thread's execution context. Every field is the *innermost* open
/// scope's value; the enclosing scopes' values wait in their [`scope`]
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
    /// The open view brackets ([`in_view`]), innermost last: the view's
    /// [`crate::DataSource::frame_key`] and the class the bracket
    /// populates, `None` for a computed body.
    pub views: Vec<(u64, Option<ClassId>)>,
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
            views: Vec::new(),
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

/// The one install/restore sequence: `enter` edits the context and returns
/// what it displaced, `f` runs, and `leave` puts that back and hands out
/// what the scope leaves behind — after `f` returns, or as it unwinds. The
/// cell is not borrowed while `f` runs.
fn scope<S, V, R>(
    enter: impl FnOnce(&mut ExecCtx) -> S,
    leave: impl FnOnce(&mut ExecCtx, S) -> V,
    f: impl FnOnce() -> R,
) -> (R, V) {
    struct Pending<S, V, L: FnOnce(&mut ExecCtx, S) -> V>(Option<(S, L)>, PhantomData<V>);
    impl<S, V, L: FnOnce(&mut ExecCtx, S) -> V> Pending<S, V, L> {
        /// Leaves the scope (once).
        fn leave(&mut self) -> Option<V> {
            let (held, leave) = self.0.take()?;
            Some(with(|c| leave(c, held)))
        }
    }
    impl<S, V, L: FnOnce(&mut ExecCtx, S) -> V> Drop for Pending<S, V, L> {
        fn drop(&mut self) {
            self.leave();
        }
    }
    let held = with(enter);
    let mut pending = Pending(Some((held, leave)), PhantomData);
    let r = f();
    (r, pending.leave().expect("a scope is left once"))
}

/// Where one setting lives in the context.
type Slot<T> = fn(&mut ExecCtx) -> &mut T;

/// Runs `f` with `value` in `slot` and returns its result together with
/// what the slot held when it finished; the slot's previous content is put
/// back on the way out, on unwind too.
pub(crate) fn scoped<T, R>(slot: Slot<T>, value: T, f: impl FnOnce() -> R) -> (R, T) {
    let replace = move |c: &mut ExecCtx, v: T| std::mem::replace(slot(c), v);
    scope(|c| replace(c, value), replace, f)
}

/// Runs `f` inside one more bracket of the view keyed `key`: a computed
/// body, or, with `populating`, the population query of that class, which
/// is in flight meanwhile. The bracket closes on the way out, on unwind
/// too.
pub fn in_view<R>(key: u64, populating: Option<ClassId>, f: impl FnOnce() -> R) -> R {
    let enter = |c: &mut ExecCtx| {
        c.views.push((key, populating));
        c.views.len() - 1
    };
    scope(enter, |c, held| c.views.truncate(held), f).0
}

/// Runs `f`, the body of a computed attribute of a source keyed `key`, in
/// one more bracket of that source — in none for a source without a key.
pub(crate) fn in_body<R>(key: Option<u64>, f: impl FnOnce() -> R) -> R {
    match key {
        Some(key) => in_view(key, None, f),
        None => f(),
    }
}

/// The frame of the view keyed `key` on this thread: what its open
/// brackets add up to, the default when none is open.
pub fn view_frame(key: u64) -> ViewFrame {
    with(|c| {
        let mut frame = ViewFrame::default();
        for &(_, populating) in c.views.iter().filter(|(k, _)| *k == key) {
            frame.body_depth += 1;
            frame.populating.extend(populating);
        }
        frame
    })
}

/// How many brackets of the view keyed `key` are open on this thread: the
/// `body_depth` of its [`view_frame`], read without building the frame.
pub fn view_depth(key: u64) -> u32 {
    with(|c| c.views.iter().filter(|(k, _)| *k == key).count() as u32)
}

/// Is a population bracket of the view keyed `key` open on this thread —
/// is its [`view_frame`]'s `populating` non-empty? Read without building
/// the frame.
pub fn view_populating(key: u64) -> bool {
    with(|c| c.views.iter().any(|&(k, p)| k == key && p.is_some()))
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
}
