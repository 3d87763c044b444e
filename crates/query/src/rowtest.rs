//! The row test: the one executable form of "does this row pass the
//! filter, and what does it project", and the one loop that feeds it.
//!
//! Every single-binding scan runs [`scan_rows`] over a [`RowTest`]: the
//! compiled top-level select and its index pushdown, a chunk of
//! [`crate::eval_select_parallel`], and every source of a view population
//! — the whole extent, a worker's chunk of it, index postings, the journal
//! delta. They differ only in where the candidates come from.
//!
//! ## The charge rule
//!
//! Per candidate: the filter's own steps. Per admitted row: the
//! projection's steps (one, for a bare scan variable) and one
//! `note_rows(1)` when the sink did not already hold the result. Filter and
//! projection root at depth 1, where the interpreter's `select_depth`
//! evaluates them, and rows run and charge strictly in order, so a budget
//! breach or an error stops at the row the interpreter would stop at. The
//! steps for the nodes around the rows (the `select`, the collection name)
//! belong to whoever produced the candidates: [`RowTest::step`].

use ov_oodb::{Expr, Symbol, Value};

use crate::compile::{Program, Scan};
use crate::error::Result;
use crate::eval::{truthy, Env, Evaluator};
use crate::plan::{Engine, ScanActuals};
use crate::source::DataSource;

/// One expression of a scan, in the form it will run: the bind-time
/// program, or the expression itself for the interpreter.
#[derive(Clone, Copy)]
pub enum Code<'a> {
    /// Run the compiled program.
    Compiled(&'a Program),
    /// Walk the expression.
    Interp(&'a Expr),
}

impl<'a> Code<'a> {
    /// `prog` when there is one — the caller passes `None` when the
    /// compiler did not cover `expr` or [`crate::compiled_enabled`] is off —
    /// else `expr`.
    pub fn of(expr: &'a Expr, prog: Option<&'a Program>) -> Code<'a> {
        prog.map_or(Code::Interp(expr), Code::Compiled)
    }
}

/// What a scan does per row, as plain shared data: decided once, before
/// any fan-out, so an expression compiles once per scan and not once per
/// chunk; every worker builds its own [`RowTest`] from it.
#[derive(Clone, Copy)]
pub struct RowSpec<'a> {
    /// The scan variable.
    pub var: Symbol,
    /// The filter; `None` admits every row.
    pub filter: Option<Code<'a>>,
    /// The projection; `None` projects the scan variable itself (a
    /// population's `select V from V in C …`): one step, no evaluation.
    pub proj: Option<Code<'a>>,
}

impl RowSpec<'_> {
    /// The engine EXPLAIN reports for the scan: compiled when a program
    /// runs per row.
    pub fn engine(&self) -> Engine {
        let compiled = |c: &Option<Code>| matches!(c, Some(Code::Compiled(_)));
        if compiled(&self.filter) || compiled(&self.proj) {
            Engine::Compiled
        } else {
            Engine::Interpreted
        }
    }
}

/// [`Code`] with its per-thread execution state. A scan owns one or two,
/// inline: boxing the executor would put a pointer chase under every row.
#[allow(clippy::large_enum_variant)]
enum Runner<'a> {
    Compiled(Scan<'a>),
    Interp(&'a Expr),
}

impl<'a> Runner<'a> {
    fn new(code: Code<'a>, src: &'a dyn DataSource) -> Runner<'a> {
        match code {
            Code::Compiled(prog) => Runner::Compiled(Scan::new(prog, src)),
            Code::Interp(expr) => Runner::Interp(expr),
        }
    }

    fn run(&mut self, ev: &Evaluator<'_>, var: Symbol, item: &Value) -> Result<Value> {
        match self {
            Runner::Compiled(scan) => {
                scan.bind(0, item.clone());
                scan.run(1)
            }
            Runner::Interp(expr) => {
                let mut env = Env::new();
                env.bind(var, item.clone());
                ev.eval_depth(expr, &mut env, 1)
            }
        }
    }
}

/// A per-thread executor for one [`RowSpec`]: register files, value stacks
/// and resolution caches are thread state (`Scan` is not `Send`), and the
/// thread's budget is captured once, as `Evaluator::new` does. Build one
/// per scan or per chunk, then [`scan_rows`].
pub struct RowTest<'a> {
    var: Symbol,
    ev: Evaluator<'a>,
    filter: Option<Runner<'a>>,
    proj: Option<Runner<'a>>,
}

impl<'a> RowTest<'a> {
    /// An executor for `spec` over `src`, governed by the thread's current
    /// budget.
    pub fn new(src: &'a dyn DataSource, spec: RowSpec<'a>) -> RowTest<'a> {
        RowTest {
            var: spec.var,
            ev: Evaluator::new(src),
            filter: spec.filter.map(|c| Runner::new(c, src)),
            proj: spec.proj.map(|c| Runner::new(c, src)),
        }
    }

    /// One interpreter-equivalent node entry outside the rows — the
    /// `select` node, the collection name — charged as the tree walker
    /// would.
    pub fn step(&self, depth: usize) -> Result<()> {
        self.ev.step(depth)
    }

    /// Runs the filter on `item` and, when it passes, the projection.
    /// `None`: the filter rejected the row.
    fn admit(&mut self, item: Value) -> Result<Option<Value>> {
        if let Some(f) = &mut self.filter {
            if !truthy(&f.run(&self.ev, self.var, &item)?) {
                return Ok(None);
            }
        }
        match &mut self.proj {
            Some(p) => p.run(&self.ev, self.var, &item).map(Some),
            None => {
                self.ev.step(1)?;
                Ok(Some(item))
            }
        }
    }

    /// Drains the compiled runners' resolution-cache counters.
    fn take_actuals(&mut self) -> ScanActuals {
        let mut out = ScanActuals::default();
        for runner in self.filter.iter_mut().chain(&mut self.proj) {
            if let Runner::Compiled(scan) = runner {
                out.absorb(&scan.take_actuals());
            }
        }
        out
    }
}

/// The row loop. Feeds `candidates` to `test` in order, hands each
/// projected row to `sink` — which answers whether the row was new to it —
/// and charges by the module's rule. `actuals` gains the rows scanned and
/// matched and the test's cache traffic, on success and on error alike, so
/// a scan that breaches mid-way reports exactly the rows it got through.
pub fn scan_rows(
    candidates: impl IntoIterator<Item = Value>,
    test: &mut RowTest<'_>,
    actuals: &mut ScanActuals,
    mut sink: impl FnMut(Value) -> bool,
) -> Result<()> {
    let r = (|| {
        for item in candidates {
            actuals.rows_scanned += 1;
            if let Some(row) = test.admit(item)? {
                actuals.rows_matched += 1;
                if sink(row) {
                    if let Some(b) = &test.ev.budget {
                        b.note_rows(1)?;
                    }
                }
            }
        }
        Ok(())
    })();
    actuals.absorb(&test.take_actuals());
    r
}
