//! Executing one operation's statements against a session, plain or
//! traced, and checking the outcomes against the oracle's expectations.

use ov_oodb::{sym, Expr, Symbol, Value};
use ov_query::{parse_program, DataSource, Stmt};
use ov_views::{Outcome, Session};

use crate::calib::Calibrator;
use crate::trace::Tracer;

/// What the oracle expects a statement to return.
#[derive(Clone, Debug)]
pub enum Expect {
    /// A query result, compared for equality.
    Value(Value),
    /// An `insert`: some oid.
    Oid,
    /// A `set` / `delete`: nothing.
    Done,
}

/// One statement of an operation: where the prompt must point, the text,
/// and the expected outcome.
#[derive(Clone, Debug)]
pub struct Step {
    pub focus: Symbol,
    pub text: String,
    pub expect: Expect,
}

impl Step {
    pub fn query(focus: &'static str, text: String, expect: Value) -> Step {
        Step {
            focus: sym(focus),
            text,
            expect: Expect::Value(expect),
        }
    }
}

/// The outcome of running one step.
pub struct StepRun {
    /// Time inside the session: `execute` untraced, the sum of the
    /// `parse_program` and `execute_stmt` spans traced.
    pub ns: u64,
    pub outcome: Result<Outcome, String>,
}

impl StepRun {
    /// Did the step return what the oracle expects?
    pub fn ok(&self, expect: &Expect) -> bool {
        match (&self.outcome, expect) {
            (Ok(Outcome::Value(got)), Expect::Value(want)) => got == want,
            (Ok(Outcome::Value(Value::Oid(_))), Expect::Oid) => true,
            (Ok(Outcome::Done), Expect::Done) => true,
            _ => false,
        }
    }
}

fn single(outcomes: Vec<Outcome>) -> Result<Outcome, String> {
    let mut it = outcomes.into_iter();
    match (it.next(), it.next()) {
        (Some(o), None) => Ok(o),
        _ => Err("expected exactly one statement".into()),
    }
}

/// Runs `steps` in order. Untraced, each is one timed `Session::execute`.
/// Traced, the benchmark does what `execute` does, stepwise —
/// `parse_program`, then `Session::execute_stmt` — under an `op` span, and
/// then repeats each read's pipeline as isolated calls on the same input
/// (`fingerprint_expr`, `optimize_expr`, `plan_select`,
/// `compile_select_scan`, `run_expr`), recorded as root spans of the same
/// op so they never count towards the op's own time. The caller has
/// already told the tracer which op this is. Untraced, `cal` is ticked
/// before every step (outside the timers), so an operation of many long
/// statements is calibrated by readings taken all along it; traced passes
/// feed no calibrated metric, and a reading would sit inside the `op` span.
pub fn exec_steps(
    session: &mut Session,
    steps: &[Step],
    tracer: Option<&mut Tracer>,
    cal: &mut Calibrator,
) -> Vec<StepRun> {
    let Some(t) = tracer else {
        return steps
            .iter()
            .map(|s| {
                cal.tick();
                run_plain(session, s)
            })
            .collect();
    };
    let mut reads: Vec<(Symbol, Expr)> = Vec::new();
    let (runs, _) = t.span("op", |t| {
        steps
            .iter()
            .map(|s| run_traced(session, s, t, &mut reads))
            .collect::<Vec<_>>()
    });
    for (focus, expr) in &reads {
        with_source(session, *focus, |src| isolated_read(t, src, expr));
    }
    runs
}

fn run_plain(session: &mut Session, step: &Step) -> StepRun {
    if let Err(e) = session.focus(step.focus) {
        return StepRun {
            ns: 0,
            outcome: Err(e.to_string()),
        };
    }
    let t0 = std::time::Instant::now();
    let r = session.execute(&step.text);
    let ns = t0.elapsed().as_nanos() as u64;
    StepRun {
        ns,
        outcome: r.map_err(|e| e.to_string()).and_then(single),
    }
}

fn run_traced(
    session: &mut Session,
    step: &Step,
    t: &mut Tracer,
    reads: &mut Vec<(Symbol, Expr)>,
) -> StepRun {
    if let Err(e) = session.focus(step.focus) {
        return StepRun {
            ns: 0,
            outcome: Err(e.to_string()),
        };
    }
    let (parsed, parse_ns) = t.span("parser.parse", |_| parse_program(&step.text));
    let stmt = match parsed {
        Err(e) => {
            return StepRun {
                ns: parse_ns,
                outcome: Err(e.to_string()),
            }
        }
        Ok(mut stmts) if stmts.len() == 1 => stmts.pop().expect("one statement"),
        Ok(_) => {
            return StepRun {
                ns: parse_ns,
                outcome: Err("expected exactly one statement".into()),
            }
        }
    };
    if let Stmt::Query(e) = &stmt {
        reads.push((step.focus, e.clone()));
    }
    let (r, exec_ns) = t.span("session.execute_stmt", |_| session.execute_stmt(stmt));
    StepRun {
        ns: parse_ns + exec_ns,
        outcome: r.map_err(|e| e.to_string()),
    }
}

/// Calls `f` with the data source the prompt `focus` stands for: a view
/// of that name, else the database.
pub fn with_source<R>(
    session: &Session,
    focus: Symbol,
    f: impl FnOnce(&dyn DataSource) -> R,
) -> Option<R> {
    if let Some(view) = session.view(focus) {
        return Some(f(view));
    }
    let db = session.system().database(focus).ok()?;
    let db = db.read();
    Some(f(&*db))
}

/// One read's pipeline as separate public calls, each under its own span.
fn isolated_read(t: &mut Tracer, src: &dyn DataSource, expr: &Expr) {
    t.span("fingerprint.fingerprint", |_| {
        std::hint::black_box(ov_query::fingerprint_expr(expr));
    });
    let (folded, _) = t.span("optimize.fold", |_| ov_query::optimize_expr(expr));
    if let Expr::Select(q) = &folded {
        t.span("planner.plan", |_| {
            std::hint::black_box(ov_query::planner::plan_select(src, &folded, q));
        });
        t.span("compile.compile", |_| {
            std::hint::black_box(ov_query::compile_select_scan(src, q).is_some());
        });
    }
    t.span("exec.run_expr", |_| {
        std::hint::black_box(ov_query::run_expr(src, &folded).is_ok());
    });
}
