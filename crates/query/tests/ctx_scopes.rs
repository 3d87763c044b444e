//! The ambient execution context's promise, through the public API: every
//! scope restores what the thread read before it — also when a panic
//! unwinds out of it and is caught above.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ov_oodb::ClassId;
use ov_query::plan::{collect, tracing_active};
use ov_query::{
    budget, engine_mode, in_view, planner_enabled, view_depth, view_frame, with_engine_mode,
    with_planner, Budget, EngineMode, ViewFrame,
};

/// The key of a view's frame, as a view would hand it out.
const VIEW: u64 = 41;

/// This thread's frame of [`VIEW`].
fn frame() -> ViewFrame {
    view_frame(VIEW)
}

/// Runs `scope` around a panic, catches it, and hands back whether it was
/// one.
fn panics_inside(scope: impl FnOnce(&dyn Fn())) -> bool {
    catch_unwind(AssertUnwindSafe(|| scope(&|| panic!("boom")))).is_err()
}

#[test]
fn a_budget_scope_restores_after_a_caught_panic() {
    assert!(budget::current().is_none());
    assert!(panics_inside(|boom| budget::with(
        Arc::new(Budget::new()),
        boom
    )));
    assert!(budget::current().is_none());
}

#[test]
fn an_engine_scope_restores_after_a_caught_panic() {
    let before = engine_mode();
    assert_ne!(before, EngineMode::Interp);
    assert!(panics_inside(|boom| with_engine_mode(
        EngineMode::Interp,
        boom
    )));
    assert_eq!(engine_mode(), before);
}

#[test]
fn a_planner_scope_restores_after_a_caught_panic() {
    assert!(planner_enabled());
    assert!(panics_inside(|boom| with_planner(false, boom)));
    assert!(planner_enabled(), "the override outlived its scope");
}

#[test]
fn a_collector_scope_restores_after_a_caught_panic() {
    assert!(!tracing_active());
    assert!(panics_inside(|boom| collect(boom).0));
    assert!(!tracing_active(), "the collector outlived its scope");
}

#[test]
fn a_view_frame_restores_after_a_caught_panic() {
    assert_eq!(frame(), ViewFrame::default());
    assert!(panics_inside(|boom| in_view(VIEW, Some(ClassId(1)), boom)));
    assert_eq!(
        frame(),
        ViewFrame::default(),
        "the frame outlived its scope"
    );

    // Under an open population, the body a panic abandoned is closed and
    // the population is innermost again.
    in_view(VIEW, Some(ClassId(1)), || {
        assert!(panics_inside(|boom| in_view(VIEW, None, boom)));
        let open = ViewFrame {
            populating: vec![ClassId(1)],
            body_depth: 1,
        };
        assert_eq!(frame(), open);
        assert_eq!(view_depth(VIEW), open.body_depth, "the depth-only reader");
    });
    assert_eq!(view_depth(VIEW), 0);
    in_view(VIEW, None, || {
        assert!(frame().populating.is_empty(), "a body alone")
    });
}
