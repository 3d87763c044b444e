//! The row test: the one executable form of "does this row pass the
//! filter, and what does it project", and the one loop that feeds it.
//!
//! Every single-binding scan runs [`scan_rows`] over a [`RowTest`]: the
//! compiled top-level select and its index pushdown, and every source of a
//! view population — the whole extent, index postings, the journal delta.
//! They differ only in where the candidates come from. Every scan runs on
//! the reading thread, and every row runs bytecode.
//!
//! ## The charge rule
//!
//! [`crate::budget`]'s rule, applied to one loop: one step per candidate,
//! before its filter runs; one step per computed body the filter or the
//! projection runs; one `note_rows(1)` per projected value the sink did not
//! already hold. Nothing around the rows is charged, so a source's charge
//! is its candidate count plus its bodies — index postings charge fewer
//! steps than the whole extent because they are fewer rows. Filter and
//! projection root at depth 1, where the interpreter's `select_depth`
//! evaluates them, and rows run and charge strictly in order. The sink is
//! the scan's whole answer, so a projected value is charged once per scan,
//! however many rows produce it — a population's imaginary tuple like any
//! other source's row.

use std::sync::Arc;

use ov_oodb::Value;

use crate::budget::Budget;
use crate::compile::{Program, Scan};
use crate::error::Result;
use crate::eval::truthy;
use crate::plan::ScanActuals;
use crate::source::DataSource;

/// What a scan does per row, as plain data: compiled once — at bind time
/// for a view's population — and turned into a [`RowTest`] per scan. The
/// programs bind the scan variable in register 0.
#[derive(Clone, Copy)]
pub struct RowSpec<'a> {
    /// The filter; `None` admits every row.
    pub filter: Option<&'a Program>,
    /// The projection; `None` projects the scan variable itself (a
    /// population's `select V from V in C …`): no evaluation.
    pub proj: Option<&'a Program>,
}

/// A per-thread executor for one [`RowSpec`]: register files, value stacks
/// and resolution caches are thread state (`Scan` is not `Send`), and the
/// thread's budget is captured once, as `Evaluator::new` does. Build one
/// per scan, then [`scan_rows`]. A scan owns its executors
/// inline: boxing them would put a pointer chase under every row.
pub struct RowTest<'a> {
    budget: Option<Arc<Budget>>,
    filter: Option<Scan<'a>>,
    proj: Option<Scan<'a>>,
}

impl<'a> RowTest<'a> {
    /// An executor for `spec` over `src`, governed by the thread's current
    /// budget.
    pub fn new(src: &'a dyn DataSource, spec: RowSpec<'a>) -> RowTest<'a> {
        RowTest {
            budget: crate::budget::current(),
            filter: spec.filter.map(|p| Scan::new(p, src)),
            proj: spec.proj.map(|p| Scan::new(p, src)),
        }
    }

    /// Runs the filter on `item` and, when it passes, the projection.
    /// `None`: the filter rejected the row.
    fn admit(&mut self, item: Value) -> Result<Option<Value>> {
        if let Some(f) = &mut self.filter {
            f.bind(0, item.clone());
            if !truthy(&f.run(1)?) {
                return Ok(None);
            }
        }
        match &mut self.proj {
            Some(p) => {
                p.bind(0, item);
                p.run(1).map(Some)
            }
            None => Ok(Some(item)),
        }
    }

    /// Drains the executors' resolution-cache counters.
    fn take_actuals(&mut self) -> ScanActuals {
        let mut out = ScanActuals::default();
        for scan in self.filter.iter_mut().chain(&mut self.proj) {
            out.absorb(&scan.take_actuals());
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
            crate::eval::bind_row(test.budget.as_deref())?;
            if let Some(row) = test.admit(item)? {
                actuals.rows_matched += 1;
                if sink(row) {
                    if let Some(b) = &test.budget {
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
