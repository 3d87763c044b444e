//! The compiled predicate engine.
//!
//! The tree-walking evaluator pays per row for work that is invariant
//! across a scan: expression-tree dispatch, environment pushes/pops and
//! reverse-scan variable lookups, and — dominating everything on view
//! scans — re-running attribute *resolution* (`DataSource::resolve`) for
//! every object even though objects of one class resolve identically.
//! This module lowers an expression once, before the scan, into a flat
//! instruction stream over a small value stack:
//!
//! * scan variables become **registers** (`Reg`), written once per row;
//! * `And`/`Or`/`if` short-circuiting becomes **jump threading**, decided
//!   at compile time instead of re-discovered per row;
//! * attribute accesses become **slots** carrying a per-scan inline cache
//!   of the source's per-class verdicts ([`DataSource::class_verdict`]),
//!   keyed by the object's presentation class; where the source has no
//!   verdict (resolution depends on more than the class) the slot
//!   re-resolves every row;
//! * **computed-attribute bodies compile too**: when a slot's verdict is
//!   a computed attribute, the body is lowered once into its own
//!   [`Program`] (`self` in register 0, parameters after it) and invoked
//!   as a bytecode frame, inside the source's body bracket as
//!   `run_computed` opens it, instead of round-tripping through
//!   `Evaluator::run_computed` per row;
//! * every attribute access is **one lazy probe**
//!   ([`DataSource::resolution_class_and_field`]): the object lookup that
//!   yields the cache key also yields the stored field, and it happens only
//!   for the attributes a row actually evaluates — a row the filter rejects
//!   never touches its projection attributes.
//!
//! The contract is the interpreter's **values and errors**: same values,
//! same error variants and messages, same depth limit. A [`crate::Budget`]
//! is charged by the plan, not by the instruction stream: one step per row
//! a binding loop binds and per computed body run, one row per value a
//! `select` adds ([`crate::budget`]), so no instruction exists to charge a
//! step and the charge of a plan is the same whichever engine runs it.
//! Coverage is total: every [`Expr`] compiles, free names, `isa`,
//! parameterized-class applications and an unbound `self` included, so
//! every row loop has one executable form. Only computed bodies the source
//! has no class verdict for still delegate to the interpreter
//! (`Evaluator::run_computed`). Which engine runs a top-level statement is
//! decided once, in `exec::dispatch`.
//!
//! **Code and literals.** A [`Program`] is two halves: its code (`Code`:
//! instructions, slots, tuple shapes, sub-selects), shared through an
//! `Arc`, and the literal vector `Inst::Const` reads, in emit order. A
//! top-level statement's code is cached per statement shape, in the
//! plan-cache entry of its fingerprint ([`crate::planner`]): `run_compiled`
//! serves a statement of a cached shape by binding the statement's own
//! literals to that code, and compiles only in the code-cache fill, on a
//! miss. The code names no source — slots are attribute names, and per-class
//! verdicts live in each [`Scan`] — so it outlives the resolution-generation
//! change that drops a plan. A statement is served code only when its
//! folded tree equals the one the code was compiled from but for literal
//! values, so a fingerprint collision never runs another shape's code.
//!
//! **Consistency model.** Slot caches are guarded by
//! [`DataSource::resolution_generation`]: a source that invalidates
//! scan-visible resolution state (a view opening or closing a population
//! bracket, template instantiation) bumps its generation and the scan
//! drops its cached verdicts.

use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use ov_oodb::{AggFunc, BinOp, ClassId, Expr, Oid, SelectExpr, Symbol, UnOp, Value};

use crate::budget::{self, Budget};
use crate::ctx;
use crate::error::{QueryError, Result};
use crate::eval::{self, finish_select, truthy, Evaluator};
use crate::planner::{Decision, Strategy};
use crate::rowtest::{scan_rows, RowSpec, RowTest};
use crate::source::{DataSource, ResolvedAttr};

// --- engine selection -----------------------------------------------------

/// The oracle override: how `exec::dispatch` runs top-level statements on
/// this thread. Row loops — populations, scans — always run
/// bytecode; only the engine of a whole statement can be overridden, so
/// the differential suites can run the tree walker as the oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// The dispatch rule: a statement that iterates compiles, anything
    /// else walks (the default).
    #[default]
    Compiled,
    /// Every top-level statement walks.
    Interp,
}

/// The engine mode governing this thread: the innermost
/// [`with_engine_mode`] scope, else the default.
pub fn engine_mode() -> EngineMode {
    ctx::with(|c| c.engine).unwrap_or_default()
}

/// Runs `f` with `mode` as this thread's engine mode, restoring the
/// previous one on the way out (also on unwind). Nothing outside the
/// closure — other threads — sees the setting.
pub fn with_engine_mode<R>(mode: EngineMode, f: impl FnOnce() -> R) -> R {
    ctx::scoped(|c| &mut c.engine, Some(mode), f).0
}

/// Top-level statements that walked by the dispatch rule — they contain no
/// `select`, `exists` or aggregate — under [`EngineMode::Compiled`]. Each
/// one paid the tree walker where a compiled run would have paid a
/// compile.
pub fn compile_fallbacks() -> u64 {
    ov_oodb::metric_counter!("compile.fallbacks").get()
}

// --- programs -------------------------------------------------------------

/// One instruction. The stream is laid out in evaluation order; a node's
/// depth below the program root (`rel`) is kept only where it matters —
/// on an attribute access, whose body runs one level below it, and on a
/// sub-select, whose pieces do.
#[derive(Clone, Copy, Debug)]
enum Inst {
    /// Push the `i`-th literal of the program being run.
    Const(usize),
    /// Push a register: a scan variable, or — in a body program — `self`
    /// (register 0) or a parameter.
    Reg(usize),
    /// Pop `nargs` arguments and a receiver; perform attribute access via
    /// resolution slot `slot` (mirrors `Evaluator::access`/`attr_of`); a
    /// computed body runs at `base + rel + 1`.
    Attr {
        slot: usize,
        nargs: usize,
        rel: usize,
    },
    /// Pop one operand, apply a unary operator.
    Unary(UnOp),
    /// Pop two operands, apply a non-short-circuit binary operator.
    Binary(BinOp),
    /// `And` threading: pop the lhs; if falsy, push `false` and jump to
    /// `to` (past the rhs). Otherwise fall through into the rhs.
    AndShort { to: usize },
    /// `Or` threading: pop the lhs; if truthy, push `true` and jump.
    OrShort { to: usize },
    /// Pop a value, push its truthiness (normalizes an `And`/`Or` rhs).
    Booleanize,
    /// Pop the `if` condition; jump to `to` (the else arm) when falsy.
    BranchFalsy { to: usize },
    /// Unconditional jump (end of an `if` then-arm).
    Jump { to: usize },
    /// Pop the shape's field count of values, build a tuple in field order
    /// (mirrors `Expr::TupleCons`: later duplicates overwrite).
    MakeTuple { shape: usize },
    /// Pop `n` values, build a set.
    MakeSet { n: usize },
    /// Pop `n` values, build a list.
    MakeList { n: usize },
    /// Run sub-select `sub` (of the program's [`Program::subs`] table) as
    /// a subroutine at depth `base + rel`, pushing its result: a set (or
    /// bare element for `select the`), or a boolean for `exists`. The
    /// subroutine drives its binding loops row-at-a-time in the
    /// interpreter's order, charging each row it binds.
    Select { sub: usize, rel: usize },
    /// Push a name no variable binds — named object, else class extent,
    /// else the unknown-name error — resolved per execution, so a rebind
    /// or a repopulation mid-scan is observed as the interpreter observes
    /// it (the evaluator's own [`eval::free_name`]).
    FreeName(Symbol),
    /// Pop a collection, push the aggregate over it (the interpreter's own
    /// `aggregate`, so values and error variants are its).
    Aggregate(AggFunc),
    /// Pop a value, push whether it is a member of the named class (the
    /// evaluator's own [`eval::isa`], class looked up per execution).
    IsA(Symbol),
    /// Pop `nargs` arguments, push the parameterized class `name` applied
    /// to them ([`DataSource::apply`]).
    Apply { name: Symbol, nargs: usize },
    /// `self` where no body binds it: the interpreter's error.
    SelfUnbound,
}

/// The shape half of a compiled expression: flat instructions, one
/// resolution slot per attribute-access site, tuple shapes and compiled
/// sub-selects. It holds no literal — `Inst::Const(i)` reads the `i`-th
/// literal of the [`Program`] it runs for — and names no source: slots are
/// attribute names, and their verdicts live in each [`Scan`]. So one `Code`
/// serves every literal value of a statement shape, over any source.
#[derive(Debug)]
struct Code {
    insts: Vec<Inst>,
    /// Attribute name per resolution slot, in slot order.
    slots: Vec<Symbol>,
    /// For each slot, the register its receiver reads directly (the
    /// receiver expression is that register and nothing else) — the
    /// attributes of the scanned row itself, which the statistics sample
    /// sketches. `None` for computed receivers (path tails like
    /// `P.Spouse.Name`).
    slot_recv: Vec<Option<usize>>,
    /// Field-name shapes for `MakeTuple`, in shape order.
    shapes: Vec<Vec<Symbol>>,
    /// Compiled sub-selects, indexed by [`Inst::Select`].
    subs: Vec<Arc<SubSelect>>,
    n_regs: usize,
}

/// A compiled expression: its code (`Code`), shared through an `Arc`, and
/// the literal vector `Inst::Const` reads, in the compiler's emit order.
/// Compile once per scan, per view bind or per statement shape; execute
/// per row via [`Scan`]. A statement whose shape is cached gets its
/// `Program` by binding its own literals to the cached code, not by
/// compiling.
#[derive(Clone, Debug)]
pub struct Program {
    code: Arc<Code>,
    lits: Vec<Value>,
}

/// One `var in collection` binding of a compiled sub-select.
#[derive(Debug)]
struct SubBinding {
    var: Symbol,
    /// The frame-relative register the variable binds into (past the
    /// enclosing program's registers; the file grows on demand).
    reg: usize,
    /// The collection, run once per enclosing iteration (the interpreter
    /// re-evaluates collections each time the outer bindings advance).
    coll: Arc<Code>,
}

/// A nested `select` (or `exists`) compiled as a subroutine: collection
/// plans per binding, a compiled filter, and a compiled projection —
/// `None` for `exists`, which only probes for a first match.
#[derive(Debug)]
struct SubSelect {
    the: bool,
    bindings: Vec<SubBinding>,
    filter: Option<Arc<Code>>,
    proj: Option<Arc<Code>>,
}

impl Program {
    /// Number of registers (scan variables; in a body program, `self`
    /// plus the parameters).
    pub fn n_regs(&self) -> usize {
        self.code.n_regs
    }

    /// The attributes this program reads off the object in register 0,
    /// when that is all it reads: no free name, sub-select, aggregate,
    /// `in`, `isa`, application, attribute with arguments or path tail.
    /// `None` when it reaches beyond that object. Whether each attribute
    /// is stored is the source's to say ([`DataSource::class_verdict`]).
    pub fn row_attrs(&self) -> Option<Vec<Symbol>> {
        let code = &*self.code;
        let mut attrs = Vec::new();
        for inst in &code.insts {
            match *inst {
                Inst::Attr { slot, nargs: 0, .. } if code.slot_recv[slot] == Some(0) => {
                    attrs.push(code.slots[slot])
                }
                Inst::Binary(BinOp::In) => return None,
                Inst::Const(_)
                | Inst::Reg(0)
                | Inst::Unary(_)
                | Inst::Binary(_)
                | Inst::AndShort { .. }
                | Inst::OrShort { .. }
                | Inst::Booleanize
                | Inst::BranchFalsy { .. }
                | Inst::Jump { .. }
                | Inst::MakeTuple { .. }
                | Inst::MakeSet { .. }
                | Inst::MakeList { .. } => {}
                _ => return None,
            }
        }
        Some(attrs)
    }
}

/// Lowers `expr` to a [`Program`] with the scan variables `vars` mapped to
/// registers `0..vars.len()` (innermost binding wins, like `Env::lookup`).
pub fn compile_predicate(expr: &Expr, vars: &[Symbol]) -> Program {
    let mut c = Compiler::new(vars.to_vec(), 0, None);
    c.emit(expr, 0);
    c.finish()
}

/// Lowers a computed-attribute body to a [`Program`] with `self` in
/// register 0 and `params` in registers `1..`; [`Scan::run_body`] runs it
/// inside the body bracket `Evaluator::run_computed` opens.
fn compile_body(params: &[Symbol], body: &Expr) -> Program {
    let mut c = Compiler::new(params.to_vec(), 1, Some(0));
    c.emit(body, 0);
    c.finish()
}

/// Runs the select `q` compiled, its bindings, filter and projection at
/// depth 1 as in [`crate::eval_select`]. The one form of a query the row
/// loop does not cover — a view's non-canonical population, a
/// multi-binding select.
pub fn run_select(src: &dyn DataSource, q: &SelectExpr) -> Result<Value> {
    let mut c = Compiler::new(Vec::new(), 0, None);
    let sub = c.compile_sub(q, false);
    c.insts.push(Inst::Select { sub, rel: 0 });
    run_program(src, &c.finish())
}

struct Compiler {
    insts: Vec<Inst>,
    /// The literals, in emit order — one vector for a program and every
    /// sub-select child compiled inside it.
    lits: Vec<Value>,
    slots: Vec<Symbol>,
    slot_recv: Vec<Option<usize>>,
    shapes: Vec<Vec<Symbol>>,
    subs: Vec<Arc<SubSelect>>,
    /// In-scope variables, innermost last: the program's own scan
    /// variables (or body parameters), extended transiently with
    /// sub-select binding variables while their filter/projection
    /// compile.
    vars: Vec<Symbol>,
    /// First register for `vars` (1 in body programs, where register 0 is
    /// `self`).
    reg_base: usize,
    /// The register holding `self`, when compiling a body.
    self_reg: Option<usize>,
}

impl Compiler {
    fn new(vars: Vec<Symbol>, reg_base: usize, self_reg: Option<usize>) -> Compiler {
        Compiler {
            insts: Vec::new(),
            lits: Vec::new(),
            slots: Vec::new(),
            slot_recv: Vec::new(),
            shapes: Vec::new(),
            subs: Vec::new(),
            vars,
            reg_base,
            self_reg,
        }
    }

    /// Seals the compiled state into a [`Program`]. `n_regs` counts only
    /// the program's *own* registers — sub-select variables bind past
    /// this count into a register file that grows on demand and is
    /// truncated back at every [`Scan::run`].
    fn finish(self) -> Program {
        let (code, lits) = self.seal();
        Program {
            code: Arc::new(code),
            lits,
        }
    }

    /// Splits the compiled state into its [`Code`] and its literals.
    fn seal(self) -> (Code, Vec<Value>) {
        let code = Code {
            insts: self.insts,
            slots: self.slots,
            slot_recv: self.slot_recv,
            shapes: self.shapes,
            subs: self.subs,
            n_regs: self.reg_base + self.vars.len(),
        };
        (code, self.lits)
    }

    /// Compiles `e` as a standalone child [`Code`] (a sub-select
    /// collection, filter, or projection) sharing this compiler's
    /// frame-relative register layout: same `reg_base`/`self_reg`, and
    /// the current variable scope — including enclosing sub-select
    /// variables — resolves to the same registers. Its literals continue
    /// this compiler's vector: a child runs with its parent's.
    fn compile_child(&mut self, e: &Expr) -> Arc<Code> {
        let mut c = Compiler::new(self.vars.clone(), self.reg_base, self.self_reg);
        c.lits = std::mem::take(&mut self.lits);
        c.emit(e, 0);
        let (code, lits) = c.seal();
        self.lits = lits;
        Arc::new(code)
    }

    /// Compiles a nested `select`/`exists` into a [`SubSelect`] table
    /// entry. Binding collections compile before their variable enters
    /// scope (matching `iterate_bindings`: later collections may refer
    /// to earlier variables); the filter and projection see every
    /// binding.
    fn compile_sub(&mut self, q: &SelectExpr, exists: bool) -> usize {
        let outer = self.vars.len();
        let mut bindings = Vec::with_capacity(q.bindings.len());
        for (var, coll) in &q.bindings {
            let coll = self.compile_child(coll);
            let reg = self.reg_base + self.vars.len();
            self.vars.push(*var);
            bindings.push(SubBinding {
                var: *var,
                reg,
                coll,
            });
        }
        let filter = q.filter.as_deref().map(|f| self.compile_child(f));
        let proj = (!exists).then(|| self.compile_child(&q.proj));
        self.vars.truncate(outer);
        self.subs.push(Arc::new(SubSelect {
            the: q.the,
            bindings,
            filter,
            proj,
        }));
        self.subs.len() - 1
    }

    /// The register `e` reads directly, if `e` is exactly a register read.
    fn reg_of(&self, e: &Expr) -> Option<usize> {
        match e {
            Expr::Name(n) => self
                .vars
                .iter()
                .rposition(|v| v == n)
                .map(|i| self.reg_base + i),
            Expr::SelfRef => self.self_reg,
            _ => None,
        }
    }

    /// Emits code for `e` at depth `rel` relative to the program root.
    /// Every node nets exactly one value on the stack (or raises).
    fn emit(&mut self, e: &Expr, rel: usize) {
        match e {
            Expr::Lit(v) => {
                self.insts.push(Inst::Const(self.lits.len()));
                self.lits.push(v.clone());
            }
            // A variable is a register (innermost binding wins, like
            // `Env::lookup`); any other name resolves per execution, since
            // a named object or class extent can change mid-scan.
            Expr::Name(n) => self.insts.push(match self.reg_of(e) {
                Some(reg) => Inst::Reg(reg),
                None => Inst::FreeName(*n),
            }),
            // `self` is a register only inside a body program.
            Expr::SelfRef => self.insts.push(match self.self_reg {
                Some(reg) => Inst::Reg(reg),
                None => Inst::SelfUnbound,
            }),
            Expr::Attr { recv, name, args } => {
                let recv_reg = self.reg_of(recv);
                self.emit(recv, rel + 1);
                for a in args {
                    self.emit(a, rel + 1);
                }
                let slot = self.slots.len();
                self.slots.push(*name);
                self.slot_recv.push(recv_reg);
                self.insts.push(Inst::Attr {
                    slot,
                    nargs: args.len(),
                    rel,
                });
            }
            Expr::TupleCons(fields) => {
                for (_, fe) in fields {
                    self.emit(fe, rel + 1);
                }
                let shape = self.shapes.len();
                self.shapes.push(fields.iter().map(|(n, _)| *n).collect());
                self.insts.push(Inst::MakeTuple { shape });
            }
            Expr::SetCons(items) => {
                for it in items {
                    self.emit(it, rel + 1);
                }
                self.insts.push(Inst::MakeSet { n: items.len() });
            }
            Expr::ListCons(items) => {
                for it in items {
                    self.emit(it, rel + 1);
                }
                self.insts.push(Inst::MakeList { n: items.len() });
            }
            Expr::Unary { op, expr } => {
                self.emit(expr, rel + 1);
                self.insts.push(Inst::Unary(*op));
            }
            Expr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                lhs,
                rhs,
            } => {
                self.emit(lhs, rel + 1);
                let patch = self.insts.len();
                self.insts.push(match op {
                    BinOp::And => Inst::AndShort { to: 0 },
                    _ => Inst::OrShort { to: 0 },
                });
                self.emit(rhs, rel + 1);
                self.insts.push(Inst::Booleanize);
                let end = self.insts.len();
                self.insts[patch] = match op {
                    BinOp::And => Inst::AndShort { to: end },
                    _ => Inst::OrShort { to: end },
                };
            }
            Expr::Binary { op, lhs, rhs } => {
                self.emit(lhs, rel + 1);
                self.emit(rhs, rel + 1);
                self.insts.push(Inst::Binary(*op));
            }
            Expr::If { cond, then, els } => {
                self.emit(cond, rel + 1);
                let branch = self.insts.len();
                self.insts.push(Inst::BranchFalsy { to: 0 });
                self.emit(then, rel + 1);
                let jump = self.insts.len();
                self.insts.push(Inst::Jump { to: 0 });
                let else_start = self.insts.len();
                self.insts[branch] = Inst::BranchFalsy { to: else_start };
                self.emit(els, rel + 1);
                let end = self.insts.len();
                self.insts[jump] = Inst::Jump { to: end };
            }
            Expr::Select(q) => {
                let sub = self.compile_sub(q, false);
                self.insts.push(Inst::Select { sub, rel });
            }
            Expr::Exists(q) => {
                let sub = self.compile_sub(q, true);
                self.insts.push(Inst::Select { sub, rel });
            }
            Expr::Aggregate { func, arg } => {
                self.emit(arg, rel + 1);
                self.insts.push(Inst::Aggregate(*func));
            }
            Expr::IsA { expr, class } => {
                self.emit(expr, rel + 1);
                self.insts.push(Inst::IsA(*class));
            }
            Expr::Apply { name, args } => {
                for a in args {
                    self.emit(a, rel + 1);
                }
                self.insts.push(Inst::Apply {
                    name: *name,
                    nargs: args.len(),
                });
            }
        }
    }
}

// --- execution ------------------------------------------------------------

/// Per-class verdict for one resolution slot, decided lazily on the first
/// object of each class the scan meets. A verdict is a function of the
/// class, not of the row, so it is plain `Copy` data: serving one touches
/// no reference count.
#[derive(Clone, Copy, Debug)]
enum Verdict {
    /// The class's verdict is stored: the probe's raw field is the value.
    Stored,
    /// The class's verdict is computed: run `Scan::bodies[i]`, compiled
    /// once.
    Body(usize),
    /// The source has no verdict for the class: re-resolve every row (and
    /// run computed bodies through the interpreter — compiling per row
    /// would cost more than it saves).
    Impure,
}

/// A computed-attribute body compiled inside a scan. Scan-local, hence
/// `Rc`: a frame holds its program without an atomic.
struct Body {
    prog: Rc<Program>,
    nparams: usize,
    /// Base of the body's resolution slots in [`Scan::caches`].
    slot_base: usize,
}

/// A per-scan executor for one [`Program`]: the reusable value stack, the
/// register file, the captured [`Budget`] and the per-slot resolution
/// caches. Create one per scan (caches are not shared across threads),
/// then `bind` + `run` per row.
pub struct Scan<'a> {
    prog: &'a Program,
    src: &'a dyn DataSource,
    /// Delegate for computed-attribute bodies the source has no class
    /// verdict for (captures the same budget).
    ev: Evaluator<'a>,
    budget: Option<Arc<Budget>>,
    /// Register file: the outer program's registers first, then one frame
    /// per in-flight body invocation (`self`, params).
    regs: Vec<Value>,
    stack: Vec<Value>,
    /// Resolution caches, one per *global* slot: the outer program's slots
    /// first, then a contiguous range per registered body program. Body
    /// slots get their own entries (never shared with outer slots of the
    /// same name) because resolution inside a body-privilege bracket can
    /// legitimately differ from resolution outside it.
    /// A scan meets a handful of classes, so each slot's entries are a
    /// short list searched by class id.
    caches: Vec<Vec<(ClassId, Verdict)>>,
    /// Bodies compiled by this scan, indexed by [`Verdict::Body`]. Entries
    /// are never removed, so frames in flight across a generation bump
    /// keep their slot ranges.
    bodies: Vec<Body>,
    /// Registered sub-select code — a scan runs a handful — each with its
    /// global-slot base, found by `Arc` identity. Holding the `Arc` keeps
    /// the address from being reused while registered.
    child_bases: Vec<(Arc<Code>, usize)>,
    /// The source's resolution generation when the caches were last
    /// (re)filled; a bump drops every cached verdict.
    gen: u64,
    /// Resolution-slot cache hits (see [`Scan::take_actuals`]).
    cache_hits: u64,
    /// Resolution-slot cache misses (see [`Scan::take_actuals`]).
    cache_misses: u64,
}

impl<'a> Scan<'a> {
    /// An executor for `prog` over `src`, governed by the thread's current
    /// budget (captured once, like `Evaluator::new`).
    pub fn new(prog: &'a Program, src: &'a dyn DataSource) -> Scan<'a> {
        Scan {
            prog,
            src,
            ev: Evaluator::new(src),
            budget: budget::current(),
            regs: vec![Value::Null; prog.code.n_regs],
            stack: Vec::with_capacity(8),
            caches: prog.code.slots.iter().map(|_| Vec::new()).collect(),
            bodies: Vec::new(),
            child_bases: Vec::new(),
            gen: src.resolution_generation(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Drains the executor's measured diagnostics — resolution-cache
    /// hits/misses — as a [`ScanActuals`](crate::plan::ScanActuals)
    /// fragment (the row counters stay zero: drivers count rows
    /// themselves). Resets the internal counters.
    pub fn take_actuals(&mut self) -> crate::plan::ScanActuals {
        crate::plan::ScanActuals {
            cache_hits: std::mem::take(&mut self.cache_hits),
            cache_misses: std::mem::take(&mut self.cache_misses),
            ..Default::default()
        }
    }

    /// Writes the scan variable in register `reg` for the next `run`.
    pub fn bind(&mut self, reg: usize, v: Value) {
        self.regs[reg] = v;
    }

    /// Writes a register, growing the file as needed — sub-select
    /// variables live past the program's own `n_regs` (and past any body
    /// frame in flight) and are dropped by the truncation in
    /// [`Scan::run`] / [`Scan::run_body`].
    fn set_reg(&mut self, reg: usize, v: Value) {
        if reg >= self.regs.len() {
            self.regs.resize(reg + 1, Value::Null);
        }
        self.regs[reg] = v;
    }

    /// Executes the program with the expression root at depth `base`
    /// (matching the depth the interpreter would evaluate the same
    /// expression at in this position).
    pub fn run(&mut self, base: usize) -> Result<Value> {
        let prog = self.prog;
        self.stack.clear();
        self.regs.truncate(prog.code.n_regs);
        self.exec(&prog.code, &prog.lits, base, 0, 0)
    }

    /// The bytecode loop over `code` with its program's literals `lits`.
    /// `frame` is the base of this invocation's registers, `slot_base` the
    /// base of its resolution slots; the outer program runs at (0, 0), body
    /// programs at their pushed frame and registered slot range.
    fn exec(
        &mut self,
        code: &Code,
        lits: &[Value],
        base: usize,
        frame: usize,
        slot_base: usize,
    ) -> Result<Value> {
        let mut pc = 0;
        while pc < code.insts.len() {
            match code.insts[pc] {
                Inst::Const(i) => self.stack.push(lits[i].clone()),
                Inst::Reg(i) => self.stack.push(self.regs[frame + i].clone()),
                Inst::Attr { slot, nargs, rel } => {
                    let args = self.stack.split_off(self.stack.len() - nargs);
                    let recv = self.stack.pop().expect("receiver on stack");
                    let name = code.slots[slot];
                    let v = self.attr(recv, slot_base + slot, name, args, base + rel)?;
                    self.stack.push(v);
                }
                Inst::Unary(op) => {
                    let v = self.stack.pop().expect("operand on stack");
                    self.stack.push(eval::apply_unary(op, v)?);
                }
                Inst::Binary(op) => {
                    let r = self.stack.pop().expect("rhs on stack");
                    let l = self.stack.pop().expect("lhs on stack");
                    self.stack.push(eval::apply_binary(op, &l, &r)?);
                }
                Inst::AndShort { to } => {
                    let l = self.stack.pop().expect("lhs on stack");
                    if !truthy(&l) {
                        self.stack.push(Value::Bool(false));
                        pc = to;
                        continue;
                    }
                }
                Inst::OrShort { to } => {
                    let l = self.stack.pop().expect("lhs on stack");
                    if truthy(&l) {
                        self.stack.push(Value::Bool(true));
                        pc = to;
                        continue;
                    }
                }
                Inst::Booleanize => {
                    let v = self.stack.pop().expect("operand on stack");
                    self.stack.push(Value::Bool(truthy(&v)));
                }
                Inst::BranchFalsy { to } => {
                    let c = self.stack.pop().expect("condition on stack");
                    if !truthy(&c) {
                        pc = to;
                        continue;
                    }
                }
                Inst::Jump { to } => {
                    pc = to;
                    continue;
                }
                Inst::MakeTuple { shape } => {
                    let fields = &code.shapes[shape];
                    let vals = self.stack.split_off(self.stack.len() - fields.len());
                    let t = ov_oodb::Tuple::from_fields(fields.iter().copied().zip(vals));
                    self.stack.push(Value::Tuple(t));
                }
                Inst::MakeSet { n } => {
                    let vals = self.stack.split_off(self.stack.len() - n);
                    self.stack.push(Value::Set(vals.into_iter().collect()));
                }
                Inst::MakeList { n } => {
                    let vals = self.stack.split_off(self.stack.len() - n);
                    self.stack.push(Value::List(vals));
                }
                Inst::Select { sub, rel } => {
                    let v = self.run_sub(&code.subs[sub], lits, base + rel, frame)?;
                    self.stack.push(v);
                }
                Inst::FreeName(name) => self.stack.push(eval::free_name(self.src, name)?),
                Inst::Aggregate(func) => {
                    let v = self.stack.pop().expect("aggregate argument on stack");
                    self.stack.push(eval::aggregate(func, &v)?);
                }
                Inst::IsA(class) => {
                    let v = self.stack.pop().expect("`isa` operand on stack");
                    self.stack.push(eval::isa(self.src, v, class)?);
                }
                Inst::Apply { name, nargs } => {
                    let args = self.stack.split_off(self.stack.len() - nargs);
                    self.stack.push(self.src.apply(name, &args)?);
                }
                Inst::SelfUnbound => return Err(eval::self_unbound()),
            }
            pc += 1;
        }
        Ok(self.stack.pop().expect("program nets exactly one value"))
    }

    /// Runs a compiled sub-select with its `select`/`exists` node at
    /// `depth`, mirroring the interpreter's `select_depth`/`iterate`/
    /// `iterate_bindings` chain: the same evaluation order, hence the same
    /// rows bound and charged, the same actuals frame (reported on success
    /// *and* error, like `iterate`), and the same error surfaces — filter
    /// and collection errors propagate immediately, projection errors and
    /// `note_rows` breaches stop the iteration and surface after the
    /// actuals are folded in.
    fn run_sub(
        &mut self,
        sub: &SubSelect,
        lits: &[Value],
        depth: usize,
        frame: usize,
    ) -> Result<Value> {
        let mut actuals = crate::plan::ScanActuals::default();
        let mut out = BTreeSet::new();
        let mut err: Option<QueryError> = None;
        let mut found = false;
        let r = self.sub_bindings(
            sub,
            lits,
            0,
            depth,
            frame,
            &mut actuals,
            &mut out,
            &mut err,
            &mut found,
        );
        crate::plan::add_actuals(&actuals);
        r?;
        if let Some(e) = err {
            return Err(e);
        }
        if sub.proj.is_none() {
            // `exists`: the interpreter never looks at `the` or the
            // projection — a first match is the whole answer.
            return Ok(Value::Bool(found));
        }
        finish_select(sub.the, out)
    }

    /// The binding loops of a compiled sub-select, recursion mirroring
    /// `iterate_bindings`: collections re-evaluate per enclosing
    /// iteration at `depth + 1`, every item bound charges one step, the
    /// leaf runs the filter and projection at `depth + 1`, and `Ok(false)`
    /// short-circuits the whole nest (first `exists` match, captured
    /// projection error, row-budget breach).
    #[allow(clippy::too_many_arguments)]
    fn sub_bindings(
        &mut self,
        sub: &SubSelect,
        lits: &[Value],
        i: usize,
        depth: usize,
        frame: usize,
        actuals: &mut crate::plan::ScanActuals,
        out: &mut BTreeSet<Value>,
        err: &mut Option<QueryError>,
        found: &mut bool,
    ) -> Result<bool> {
        if i == sub.bindings.len() {
            actuals.rows_scanned += 1;
            if let Some(f) = &sub.filter {
                let keep = self.run_child(f, lits, depth + 1, frame)?;
                if !truthy(&keep) {
                    return Ok(true);
                }
            }
            actuals.rows_matched += 1;
            return match &sub.proj {
                None => {
                    *found = true;
                    Ok(false)
                }
                Some(p) => match self.run_child(p, lits, depth + 1, frame) {
                    Ok(v) => {
                        if out.insert(v) {
                            if let Some(b) = &self.budget {
                                if let Err(e) = b.note_rows(1) {
                                    *err = Some(e);
                                    return Ok(false);
                                }
                            }
                        }
                        Ok(true)
                    }
                    Err(e) => {
                        *err = Some(e);
                        Ok(false)
                    }
                },
            };
        }
        let b = &sub.bindings[i];
        let (var, reg) = (b.var, b.reg);
        let coll = self.run_child(&b.coll, lits, depth + 1, frame)?;
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
        for item in items {
            eval::bind_row(self.budget.as_deref())?;
            self.set_reg(frame + reg, item);
            let cont =
                self.sub_bindings(sub, lits, i + 1, depth, frame, actuals, out, err, found)?;
            if !cont {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Executes a child's code (a sub-select piece) with its parent's
    /// literals and its root at depth `base`, sharing this scan's register
    /// file at `frame` and registering the code's resolution slots on first
    /// use.
    fn run_child(
        &mut self,
        code: &Arc<Code>,
        lits: &[Value],
        base: usize,
        frame: usize,
    ) -> Result<Value> {
        let slot_base = self.slot_base_for(code);
        self.exec(code, lits, base, frame, slot_base)
    }

    /// Attribute access, mirroring `Evaluator::access`/`attr_of` — with the
    /// resolve call routed through the slot cache.
    fn attr(
        &mut self,
        recv: Value,
        gslot: usize,
        name: Symbol,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Value> {
        match recv {
            Value::Null => Ok(Value::Null),
            Value::Oid(oid) => {
                // One fused object lookup yields the cache key *and* the raw
                // stored field; the field half is used only when resolution
                // says the attribute is stored (it never depends on
                // membership, so the early read is safe).
                let Some((class, raw)) = self.src.resolution_class_and_field(oid, name) else {
                    // No cache key (unknown object, unimportable class):
                    // uncached resolve reproduces the interpreter's error.
                    let res = self.src.resolve(oid, name)?;
                    return self.run_resolved(&res, oid, name, None, args, depth);
                };
                let (verdict, fresh) = self.verdict(oid, class, gslot, name)?;
                match verdict {
                    Verdict::Stored => no_args(name, &args).map(|()| raw),
                    Verdict::Body(i) => self.run_body(i, oid, name, args, depth),
                    Verdict::Impure => {
                        let res = match fresh {
                            Some(res) => res,
                            None => self.src.resolve(oid, name)?,
                        };
                        self.run_resolved(&res, oid, name, Some(raw), args, depth)
                    }
                }
            }
            Value::Tuple(t) => {
                if !args.is_empty() {
                    return Err(QueryError::eval(format!(
                        "tuple field `{name}` takes no arguments"
                    )));
                }
                t.get(name)
                    .cloned()
                    .ok_or_else(|| QueryError::eval(format!("tuple {t} has no field `{name}`")))
            }
            other => Err(QueryError::eval(format!(
                "cannot access attribute `{name}` of a {}",
                other.kind()
            ))),
        }
    }

    /// Serves a resolution the scan does not cache per class: a stored
    /// field (`raw` when the probe already fetched it), or a computed body
    /// through the interpreter.
    fn run_resolved(
        &self,
        res: &ResolvedAttr,
        oid: Oid,
        name: Symbol,
        raw: Option<Value>,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Value> {
        match res {
            ResolvedAttr::Stored => {
                no_args(name, &args)?;
                match raw {
                    Some(v) => Ok(v),
                    None => self.src.stored_field(oid, name),
                }
            }
            ResolvedAttr::Computed { params, body } => {
                self.ev.run_computed(oid, name, params, body, args, depth)
            }
        }
    }

    /// Invokes compiled body `body`: arity check, the body's entry charge,
    /// a fresh register frame (`self`, then the arguments by move), and the
    /// body's own slot range. As `Evaluator::run_computed` does it — same
    /// arity error, same entry, and the program runs inside the same body
    /// bracket, which closes however the body ends.
    fn run_body(
        &mut self,
        body: usize,
        oid: Oid,
        name: Symbol,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Value> {
        let Body {
            ref prog,
            nparams,
            slot_base,
        } = self.bodies[body];
        if nparams != args.len() {
            return Err(QueryError::eval(format!(
                "attribute `{name}` expects {nparams} argument(s), got {}",
                args.len()
            )));
        }
        eval::enter_body(self.budget.as_deref(), depth + 1)?;
        let prog = Rc::clone(prog);
        let frame = self.regs.len();
        self.regs.push(Value::Oid(oid));
        self.regs.extend(args);
        let result = ctx::in_body(self.src.frame_key(), || {
            self.exec(&prog.code, &prog.lits, depth + 1, frame, slot_base)
        });
        self.regs.truncate(frame);
        result
    }

    /// Appends one verdict list per slot of `code`, returning their base.
    fn alloc_slots(&mut self, code: &Code) -> usize {
        let base = self.caches.len();
        self.caches.extend(code.slots.iter().map(|_| Vec::new()));
        base
    }

    /// The global-slot base for a sub-select's code, registering it (and
    /// allocating its slot caches) on first use.
    fn slot_base_for(&mut self, code: &Arc<Code>) -> usize {
        if let Some((_, base)) = self.child_bases.iter().find(|(c, _)| Arc::ptr_eq(c, code)) {
            return *base;
        }
        let base = self.alloc_slots(code);
        self.child_bases.push((code.clone(), base));
        base
    }

    /// The slot's verdict for objects of the already-fetched resolution
    /// `class`: the source's [`DataSource::class_verdict`], asked once per
    /// (slot, class) per scan — dropped and re-asked whenever the source
    /// bumps its resolution generation. A computed verdict gets its body
    /// compiled here, once. Without a verdict the slot re-resolves every
    /// row; the row that finds that out gets back the resolution it just
    /// paid for, so it does not resolve twice, and its error is never
    /// cached (the first error aborts the scan anyway).
    ///
    /// Slot-cache soundness across body depths: a given slot only ever
    /// executes at one body-privilege polarity — outer-program slots
    /// outside any body bracket this scan opened, body-program
    /// slots always inside one (nesting depth may vary, but visibility is
    /// a binary in-body/not-in-body distinction) — so one verdict per
    /// (slot, class) cannot be observed from the other polarity.
    fn verdict(
        &mut self,
        oid: Oid,
        class: ClassId,
        gslot: usize,
        name: Symbol,
    ) -> Result<(Verdict, Option<ResolvedAttr>)> {
        let gen_now = self.src.resolution_generation();
        if gen_now != self.gen {
            // Scan-visible resolution state changed (population bracket,
            // template instantiation): every cached verdict is suspect.
            // Lists are cleared in place — body programs keep their slot
            // ranges so in-flight frames stay valid.
            for m in &mut self.caches {
                m.clear();
            }
            self.gen = gen_now;
        }
        if let Some((_, v)) = self.caches[gslot].iter().find(|(c, _)| *c == class) {
            // `Impure` ("re-resolve every row") is itself a cached verdict
            // — a hit, even though a fresh resolve follows.
            self.cache_hits += 1;
            return Ok((*v, None));
        }
        self.cache_misses += 1;
        let Some(res) = self.src.class_verdict(class, name) else {
            let res = self.src.resolve(oid, name)?;
            self.caches[gslot].push((class, Verdict::Impure));
            return Ok((Verdict::Impure, Some(res)));
        };
        let v = match &res {
            ResolvedAttr::Stored => Verdict::Stored,
            ResolvedAttr::Computed { params, body } => {
                let prog = compile_body(params, body);
                let slot_base = self.alloc_slots(&prog.code);
                self.bodies.push(Body {
                    prog: Rc::new(prog),
                    nparams: params.len(),
                    slot_base,
                });
                Verdict::Body(self.bodies.len() - 1)
            }
        };
        self.caches[gslot].push((class, v));
        Ok((v, None))
    }
}

/// The interpreter's argument check on a stored attribute.
fn no_args(name: Symbol, args: &[Value]) -> Result<()> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(QueryError::eval(format!(
            "stored attribute `{name}` takes no arguments"
        )))
    }
}

// --- whole-query driver ---------------------------------------------------

/// The compiled pieces of a canonical single-binding class scan
/// (`select [the] proj from V in Class [where filter]`): what [`run_scan`]
/// runs, whoever holds it — a statement, bound from its shape's cached code,
/// or a view population, compiled at bind. The programs bind the scan
/// variable in register 0.
#[derive(Debug)]
pub struct SelectScan {
    /// The scanned class.
    pub class: ClassId,
    /// The filter; `None` admits every row.
    pub filter: Option<Program>,
    /// The projection; `None` projects the scan variable itself.
    pub proj: Option<Program>,
}

impl SelectScan {
    /// Compiles the scan of the canonical select `q` over `class`: its
    /// filter, and its projection unless that is the scan variable.
    pub fn compile(class: ClassId, q: &SelectExpr) -> SelectScan {
        let var = q.bindings[0].0;
        let compile = |e: &Expr| compile_predicate(e, &[var]);
        SelectScan {
            class,
            filter: q.filter.as_deref().map(compile),
            proj: (*q.proj != Expr::Name(var)).then(|| compile(&q.proj)),
        }
    }

    /// What the row loop runs per candidate.
    pub fn row_spec(&self) -> RowSpec<'_> {
        RowSpec {
            filter: self.filter.as_ref(),
            proj: self.proj.as_ref(),
        }
    }
}

/// Compiles the scan pieces of `q` when it has the canonical shape: one
/// binding whose collection is a plain class name (not shadowed by a named
/// object). Always compiles; a statement gets its scan from its shape's
/// cached code instead (`run_compiled`).
pub fn compile_select_scan(src: &dyn DataSource, q: &SelectExpr) -> Option<SelectScan> {
    Some(SelectScan::compile(scan_class(src, q)?, q))
}

/// The class a canonical scan of `q` reads, when `q` has that shape on
/// `src`: one binding whose collection is a plain class name. Asked per
/// statement, since cached code names no class.
fn scan_class(src: &dyn DataSource, q: &SelectExpr) -> Option<ClassId> {
    let [(_, Expr::Name(coll_name))] = q.bindings.as_slice() else {
        return None;
    };
    // resolve_name order is variable → named object → class extent; a
    // named object shadowing the class would change the collection.
    if src.named_object(*coll_name).is_some() {
        return None;
    }
    src.class_by_name(*coll_name)
}

/// The access path of a scan no decision chose.
static SEQ: Strategy = Strategy::Seq;

/// The one scan driver: runs the canonical scan `scan` by the access path
/// of `decision` — `None`, the planner is off: sequential — feeding each
/// projected row to `sink`, which answers whether the row was new to it. A
/// statement (`run_compiled`) and a view population run it alike. An index
/// probe the source cannot answer scans sequentially instead, and a
/// sequential scan samples the statistics plane while the profiler is on.
/// The row loop is reported through [`crate::plan::measure_scan`] with the
/// decision's estimate — what fetching the candidates measured, a
/// population the extent asked for, is not the scan's. Returns the access
/// path the scan ran, on error too.
pub fn run_scan<'d>(
    src: &dyn DataSource,
    scan: &SelectScan,
    decision: Option<&'d Decision>,
    sink: impl FnMut(Value) -> bool,
) -> (&'d Strategy, Result<()>) {
    let probe = match decision.map(|d| &d.strategy) {
        Some(probe @ Strategy::IndexPushdown { attr, value, .. }) => src
            .indexed_lookup(scan.class, *attr, value)
            .map(|postings| (probe, postings)),
        _ => None,
    };
    let (path, candidates) = match probe {
        Some((probe, postings)) => (probe, Ok(postings)),
        None => {
            let extent = src.extent(scan.class);
            if ov_oodb::metrics::profiling_enabled() {
                if let Ok(extent) = &extent {
                    feed_scan_stats(src, scan, extent);
                }
            }
            (&SEQ, extent)
        }
    };
    let r = crate::plan::measure_scan(path, decision.map(|d| d.est_rows), |counted| {
        let rows = candidates?.into_iter().map(Value::Oid);
        scan_rows(rows, &mut RowTest::new(src, scan.row_spec()), counted, sink)
    });
    (path, r)
}

// --- statement code -------------------------------------------------------

/// The compiled code of one statement shape, held by the plan-cache entry
/// of its fingerprint beside the plan ([`crate::planner`]). It names no
/// source, so it outlives the resolution-generation change that drops the
/// plan. `template` is the folded statement it was compiled from: a
/// statement is served this code only when it has the template's shape
/// ([`bind_shape`]), so a fingerprint collision never runs another shape's
/// code.
pub(crate) struct StmtCode {
    template: Expr,
    kind: CodeKind,
}

enum CodeKind {
    /// A canonical single-binding class scan: filter and projection over
    /// the scan variable in register 0, as [`SelectScan`] holds them.
    Scan {
        filter: Option<Arc<Code>>,
        proj: Option<Arc<Code>>,
    },
    /// A general program with no scan variables.
    Program(Arc<Code>),
}

/// Is `e` the tree `t` but for the values of its literals — so that it
/// compiles to the same [`Code`]? If so, `out` has gained `e`'s literals in
/// the compiler's emit order: the vector a [`Program`] compiled from `e`
/// reads. The walk visits what `emit` visits, in its order; an `exists`
/// projection is never compiled, so it is compared and its literals go
/// nowhere.
fn bind_shape(t: &Expr, e: &Expr, out: &mut Vec<Value>) -> bool {
    let all = |t: &[Expr], e: &[Expr], out: &mut Vec<Value>| {
        t.len() == e.len() && t.iter().zip(e).all(|(x, y)| bind_shape(x, y, out))
    };
    match (t, e) {
        (Expr::Lit(_), Expr::Lit(v)) => {
            out.push(v.clone());
            true
        }
        (Expr::SelfRef, Expr::SelfRef) => true,
        (Expr::Name(x), Expr::Name(y)) => x == y,
        (
            Expr::Attr { recv, name, args },
            Expr::Attr {
                recv: r,
                name: n,
                args: a,
            },
        ) => name == n && bind_shape(recv, r, out) && all(args, a, out),
        (Expr::TupleCons(f), Expr::TupleCons(g)) => {
            f.len() == g.len()
                && (f.iter().zip(g)).all(|((m, x), (n, y))| m == n && bind_shape(x, y, out))
        }
        (Expr::SetCons(x), Expr::SetCons(y)) | (Expr::ListCons(x), Expr::ListCons(y)) => {
            all(x, y, out)
        }
        (Expr::Unary { op, expr }, Expr::Unary { op: o, expr: x }) => {
            op == o && bind_shape(expr, x, out)
        }
        (
            Expr::Binary { op, lhs, rhs },
            Expr::Binary {
                op: o,
                lhs: l,
                rhs: r,
            },
        ) => op == o && bind_shape(lhs, l, out) && bind_shape(rhs, r, out),
        (
            Expr::If { cond, then, els },
            Expr::If {
                cond: c,
                then: t,
                els: e,
            },
        ) => bind_shape(cond, c, out) && bind_shape(then, t, out) && bind_shape(els, e, out),
        (Expr::Select(p), Expr::Select(q)) => {
            bind_select_head(p, q, out) && bind_shape(&p.proj, &q.proj, out)
        }
        (Expr::Exists(p), Expr::Exists(q)) => {
            bind_select_head(p, q, out) && bind_shape(&p.proj, &q.proj, &mut Vec::new())
        }
        (Expr::Aggregate { func, arg }, Expr::Aggregate { func: f, arg: a }) => {
            func == f && bind_shape(arg, a, out)
        }
        (Expr::IsA { expr, class }, Expr::IsA { expr: x, class: c }) => {
            class == c && bind_shape(expr, x, out)
        }
        (Expr::Apply { name, args }, Expr::Apply { name: n, args: a }) => {
            name == n && all(args, a, out)
        }
        _ => false,
    }
}

/// [`bind_shape`] over a select's flags, bindings and filter — all of it
/// but the projection, which the compiler emits last.
fn bind_select_head(t: &SelectExpr, e: &SelectExpr, out: &mut Vec<Value>) -> bool {
    t.distinct == e.distinct
        && t.the == e.the
        && t.bindings.len() == e.bindings.len()
        && (t.bindings.iter().zip(&e.bindings))
            .all(|((v, c), (w, d))| v == w && bind_shape(c, d, out))
        && match (&t.filter, &e.filter) {
            (None, None) => true,
            (Some(f), Some(g)) => bind_shape(f, g, out),
            _ => false,
        }
}

/// The canonical scan of the statement `expr` (the select `q`) over
/// `class`: `code`, the cached code of the statement's fingerprint `fp`,
/// with the statement's literals bound when it is a scan of this shape,
/// else compiled and cached.
fn statement_scan(
    fp: u64,
    code: Option<&StmtCode>,
    expr: &Expr,
    q: &SelectExpr,
    class: ClassId,
) -> SelectScan {
    if let Some(StmtCode {
        template: Expr::Select(t),
        kind: CodeKind::Scan { filter, proj },
    }) = code
    {
        // The binding is a class name, so every literal of the head is the
        // filter's.
        let (mut filter_lits, mut proj_lits) = (Vec::new(), Vec::new());
        if bind_select_head(t, q, &mut filter_lits) && bind_shape(&t.proj, &q.proj, &mut proj_lits)
        {
            let bound = |code: &Arc<Code>, lits| Program {
                code: Arc::clone(code),
                lits,
            };
            return SelectScan {
                class,
                filter: filter.as_ref().map(|code| bound(code, filter_lits)),
                proj: proj.as_ref().map(|code| bound(code, proj_lits)),
            };
        }
    }
    fill_scan_code(fp, expr, q, class)
}

/// The general program of the statement `expr`: the cached `code` of its
/// fingerprint `fp` with the statement's literals bound, else compiled and
/// cached.
fn statement_program(fp: u64, code: Option<&StmtCode>, expr: &Expr) -> Program {
    if let Some(StmtCode {
        template,
        kind: CodeKind::Program(code),
    }) = code
    {
        let mut lits = Vec::new();
        if bind_shape(template, expr, &mut lits) {
            return Program {
                code: Arc::clone(code),
                lits,
            };
        }
    }
    fill_program_code(fp, expr)
}

/// The code-cache fill for a canonical scan: compiles the scan of `q` and
/// caches its code under `fp`.
fn fill_scan_code(fp: u64, expr: &Expr, q: &SelectExpr, class: ClassId) -> SelectScan {
    let scan = SelectScan::compile(class, q);
    debug_assert!(
        (scan.filter.iter().zip(q.filter.as_deref())).all(|(p, f)| emit_order_holds(p, f))
    );
    debug_assert!(scan.proj.iter().all(|p| emit_order_holds(p, &q.proj)));
    let code = |p: &Program| Arc::clone(&p.code);
    let kind = CodeKind::Scan {
        filter: scan.filter.as_ref().map(code),
        proj: scan.proj.as_ref().map(code),
    };
    store_code(fp, expr, kind);
    scan
}

/// The code-cache fill for a general program: compiles `expr` and caches
/// its code under `fp`.
fn fill_program_code(fp: u64, expr: &Expr) -> Program {
    let prog = compile_predicate(expr, &[]);
    debug_assert!(emit_order_holds(&prog, expr));
    store_code(fp, expr, CodeKind::Program(Arc::clone(&prog.code)));
    prog
}

/// Counts a statement compile in `compile.programs` and caches its code
/// under `fp`, with the statement `expr` as its template — replacing
/// whatever code the entry held.
fn store_code(fp: u64, expr: &Expr, kind: CodeKind) {
    ov_oodb::metric_counter!("compile.programs").inc();
    let code = StmtCode {
        template: expr.clone(),
        kind,
    };
    crate::planner::store_code(fp, Arc::new(code));
}

/// Does [`bind_shape`] list `e`'s literals as the compiler emitted them
/// into `prog`? What makes binding a cached shape's literals sound.
fn emit_order_holds(prog: &Program, e: &Expr) -> bool {
    let mut lits = Vec::new();
    bind_shape(e, e, &mut lits) && lits == prog.lits
}

/// Runs a whole top-level expression compiled. The result is what
/// `eval_expr` would have produced (values, errors), with one documented
/// exception: when the cost-based planner reorders a multi-binding select
/// (independent class-extent bindings), the *values* are identical but a
/// filter that errors on some rows may surface a different row's error
/// (standard predicate-reorder semantics; see `planner`), and the budget
/// is charged the rows the reordered plan binds.
///
/// The statement's fingerprint keys one plan-cache entry, read under one
/// lock, that holds both the plan and the compiled code of its shape. A
/// statement of a cached shape compiles nothing: it binds its literals.
/// What stays per statement is what depends on the source — the class
/// lookup, the named-object shadow check — and the index probe value. A
/// planned join still compiles per run.
///
/// A canonical scan runs through [`run_scan`], as a view population does;
/// what is the statement's alone is the plan cache around it: the decision
/// comes from the cache, a probe the source could not answer demotes the
/// cached plan, and the outcome feeds drift correction and EXPLAIN.
pub(crate) fn run_compiled(src: &dyn DataSource, expr: &Expr) -> Result<Value> {
    let fp = crate::fingerprint::fingerprint_hash(expr);
    let planned = crate::planner::planner_enabled();
    if let Expr::Select(q) = expr {
        if let Some(class) = scan_class(src, q) {
            let generation = planned.then(|| src.resolution_generation());
            let (plan, code) = crate::planner::lookup(fp, generation);
            let scan = statement_scan(fp, code.as_deref(), expr, q, class);
            let decision = generation.map(|g| crate::planner::plan_select_with(fp, q, g, plan));
            let _span = ov_oodb::span!("query.compiled_scan");
            let mut out = BTreeSet::new();
            let (path, r) = run_scan(src, &scan, decision.as_ref(), |v| out.insert(v));
            let probed = *path != SEQ;
            let r = r.and_then(|()| finish_select(q.the, out));
            if let Some(decision) = decision {
                if !probed && matches!(decision.strategy, Strategy::IndexPushdown { .. }) {
                    // The plan assumed an index that isn't there (cold
                    // statistics, dropped index): later executions skip
                    // the doomed probe.
                    crate::planner::demote_to_seq(fp);
                }
                let rows = match &r {
                    Ok(Value::Set(s)) => Some(s.len() as u64),
                    Ok(_) => Some(1),
                    Err(_) => None,
                };
                crate::planner::record_outcome(fp, decision, rows);
            }
            return r;
        }
        // Multi-binding over independent class extents: the planner may
        // pick a cheapest-first binding order.
        if planned {
            if let Some(r) = try_run_planned_join(src, fp, q) {
                return r;
            }
        }
    }
    // General shapes — multi-binding and nested selects, aggregates, a
    // bare `exists(...)` — compile into one program (selects as
    // subroutines) with the interpreter's exact semantics.
    let (_, code) = crate::planner::lookup(fp, None);
    run_program(src, &statement_program(fp, code.as_deref(), expr))
}

/// Runs a general program with no scan variables (multi-binding or nested
/// selects, a bare `exists`): the program roots at depth 0, sub-selects
/// do their own row accounting and actuals reporting, and the scan's
/// cache counters fold into the actuals frame.
pub(crate) fn run_program(src: &dyn DataSource, prog: &Program) -> Result<Value> {
    let _span = ov_oodb::span!("query.compiled_scan");
    let mut scan = Scan::new(prog, src);
    let r = scan.run(0);
    crate::plan::add_actuals(&scan.take_actuals());
    r
}

/// Attempts the planner's reordered nested-loop join for a multi-binding
/// select (fingerprint `fp`). Applicability is strict — every collection a free class name
/// (independent extents, so order cannot change the result set),
/// distinct variables, every filter leg analyzable and free of nested
/// selects / free names / `self`, everything compiles — and `None`
/// falls through to the exact-order compiled path. Filter legs are
/// pushed down to the outermost binding level that has all their
/// variables in scope, so a selective leg prunes whole subtrees of the
/// loop nest. Charged like any loop: one step per row each level binds,
/// one row per value the answer gains.
fn try_run_planned_join(src: &dyn DataSource, fp: u64, q: &SelectExpr) -> Option<Result<Value>> {
    use crate::planner::{mentioned_vars, plan_join, record_outcome};
    if q.bindings.len() < 2 {
        return None;
    }
    let vars: Vec<Symbol> = q.bindings.iter().map(|(v, _)| *v).collect();
    for (i, v) in vars.iter().enumerate() {
        if vars[..i].contains(v) {
            return None; // shadowed variables need exact-order scoping
        }
    }
    let mut classes = Vec::with_capacity(vars.len());
    for (_, coll) in &q.bindings {
        let Expr::Name(n) = coll else { return None };
        if vars.contains(n) || src.named_object(*n).is_some() {
            return None;
        }
        classes.push((*n, src.class_by_name(*n)?));
    }
    // Every leg must be reorder-safe, and we need its variable set to
    // assign it a level.
    let legs: Vec<&Expr> = q
        .filter
        .as_deref()
        .map(crate::planner::conjuncts)
        .unwrap_or_default();
    let mut leg_vars = Vec::with_capacity(legs.len());
    for leg in &legs {
        leg_vars.push(mentioned_vars(leg, &vars)?);
    }
    // Extents are fetched once (the exact path re-evaluates per
    // iteration; with independent class extents and a shared snapshot
    // the sets are identical).
    let mut extents = Vec::with_capacity(classes.len());
    let mut cards = Vec::with_capacity(classes.len());
    for (_, class) in &classes {
        let ext = src.extent(*class).ok()?;
        cards.push(ext.len() as u64);
        extents.push(ext);
    }
    let class_names: Vec<Symbol> = classes.iter().map(|(n, _)| *n).collect();
    let decision = plan_join(src, fp, q, &class_names, &cards);
    let Strategy::Join { order } = &decision.strategy else {
        return None;
    };
    // A cached plan could in principle disagree with this query's shape
    // (fingerprint collision): validate it is a permutation of our
    // binding indices before trusting it.
    let mut seen = vec![false; vars.len()];
    let valid = order.len() == vars.len()
        && order
            .iter()
            .all(|&i| i < vars.len() && !std::mem::replace(&mut seen[i], true));
    if !valid {
        return None;
    }
    // Reordered scopes: position p in the nest binds original binding
    // order[p] into register p.
    let order_vars: Vec<Symbol> = order.iter().map(|&i| vars[i]).collect();
    let pos_of = |orig: usize| order.iter().position(|&i| i == orig).expect("permutation");
    // Assign each leg to the innermost nest position that completes its
    // variable set (legs with no variables run at position 0).
    let mut level_filters: Vec<Option<Expr>> = vec![None; vars.len()];
    for (leg, lv) in legs.iter().zip(&leg_vars) {
        let level = lv.iter().map(|&orig| pos_of(orig)).max().unwrap_or(0);
        level_filters[level] = Some(match level_filters[level].take() {
            None => (*leg).clone(),
            Some(acc) => Expr::bin(BinOp::And, acc, (*leg).clone()),
        });
    }
    let filter_progs: Vec<Option<Program>> = level_filters
        .iter()
        .enumerate()
        .map(|(p, f)| f.as_ref().map(|f| compile_predicate(f, &order_vars[..=p])))
        .collect();
    let proj_prog = compile_predicate(&q.proj, &order_vars);
    // Execute the nest.
    let _span = ov_oodb::span!("query.compiled_scan");
    let mut filter_scans: Vec<Option<Scan>> = filter_progs
        .iter()
        .map(|p| p.as_ref().map(|p| Scan::new(p, src)))
        .collect();
    let mut proj_scan = Scan::new(&proj_prog, src);
    let ordered_extents: Vec<&[Oid]> = order.iter().map(|&i| extents[i].as_slice()).collect();
    let mut actuals = crate::plan::ScanActuals::default();
    let mut out = BTreeSet::new();
    let mut row: Vec<Value> = Vec::with_capacity(vars.len());
    let result = join_nest(
        &ordered_extents,
        &mut filter_scans,
        &mut row,
        &mut proj_scan,
        &mut out,
        &mut actuals,
        budget::current().as_deref(),
    );
    for f in filter_scans.iter_mut().flatten() {
        actuals.absorb(&f.take_actuals());
    }
    actuals.absorb(&proj_scan.take_actuals());
    crate::plan::add_actuals(&actuals);
    let rows = out.len() as u64;
    let r = result.and_then(|()| finish_select(q.the, out));
    record_outcome(fp, decision, r.as_ref().ok().map(|_| rows));
    Some(r)
}

/// One level of the reordered join nest: iterate this level's extent,
/// charging each row bound, apply the level's pushed-down filter with
/// registers `0..=level` bound, and recurse. Leaves project with every
/// register bound; a value new to the answer is a row charged.
fn join_nest(
    extents: &[&[Oid]],
    filters: &mut [Option<Scan>],
    row: &mut Vec<Value>,
    proj: &mut Scan,
    out: &mut BTreeSet<Value>,
    actuals: &mut crate::plan::ScanActuals,
    budget: Option<&Budget>,
) -> Result<()> {
    let Some((ext, rest_ext)) = extents.split_first() else {
        actuals.rows_matched += 1;
        for (r, v) in row.iter().enumerate() {
            proj.bind(r, v.clone());
        }
        let v = proj.run(1)?;
        if out.insert(v) {
            if let Some(b) = budget {
                b.note_rows(1)?;
            }
        }
        return Ok(());
    };
    let (filter, rest_f) = filters
        .split_first_mut()
        .expect("one filter slot per level");
    for &oid in *ext {
        eval::bind_row(budget)?;
        row.push(Value::Oid(oid));
        let keep = match filter {
            None => true,
            Some(scan) => {
                actuals.rows_scanned += 1;
                for (r, v) in row.iter().enumerate() {
                    scan.bind(r, v.clone());
                }
                truthy(&scan.run(1)?)
            }
        };
        if keep {
            join_nest(rest_ext, rest_f, row, proj, out, actuals, budget)?;
        }
        row.pop();
    }
    Ok(())
}

/// Rows at the head of a profiled sequential scan whose attributes feed
/// the statistics plane — enough for a useful sample, cheap enough to
/// never dominate a scan.
const STATS_SAMPLE_ROWS: usize = 4096;

/// Feeds the statistics plane from the first [`STATS_SAMPLE_ROWS`] rows of
/// `extent`, under the scanned class's name: the extent's cardinality, and
/// one sketch column per attribute the filter or projection reads directly
/// off the scanned row, probed with the same fused
/// [`DataSource::resolution_class_and_field`] the scan uses. Every sampled
/// row contributes to every column whatever the filter decides, so the
/// sketches are not biased towards matching rows.
fn feed_scan_stats(src: &dyn DataSource, scan: &SelectScan, extent: &[Oid]) {
    let gen = src.resolution_generation();
    let stats = ov_oodb::stats::stats().class(src.class_name(scan.class));
    stats.note_cardinality(gen, extent.len() as u64);
    let sample = &extent[..extent.len().min(STATS_SAMPLE_ROWS)];
    let mut names: Vec<Symbol> = Vec::new();
    for prog in scan.filter.iter().chain(&scan.proj) {
        for (name, recv) in prog.code.slots.iter().zip(&prog.code.slot_recv) {
            if *recv == Some(0) && !names.contains(name) {
                names.push(*name);
            }
        }
    }
    for name in names {
        let column: Vec<Option<Value>> = sample
            .iter()
            .map(|&oid| src.resolution_class_and_field(oid, name).map(|(_, v)| v))
            .collect();
        stats.observe_column(gen, name, column.iter().map(Option::as_ref));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Env;
    use crate::parser::parse_expr;
    use ov_oodb::{sym, AttrDef, Database, Type};
    use std::sync::atomic::Ordering;

    fn staff() -> Database {
        let mut db = Database::new(sym("Staff"));
        let person = db
            .create_class(
                sym("Person"),
                &[],
                vec![
                    AttrDef::stored(sym("Name"), Type::Str),
                    AttrDef::stored(sym("Age"), Type::Int),
                ],
            )
            .unwrap();
        db.schema
            .add_attr(
                person,
                AttrDef::computed(
                    sym("Doubled"),
                    Type::Int,
                    parse_expr("self.Age + self.Age").unwrap(),
                ),
            )
            .unwrap();
        db.schema
            .add_attr(
                person,
                AttrDef::method(
                    sym("Plus"),
                    vec![(sym("x"), Type::Int)],
                    Type::Int,
                    parse_expr("self.Age + x").unwrap(),
                ),
            )
            .unwrap();
        for (name, age) in [("Maggy", 65), ("Denis", 70), ("Tony", 30)] {
            db.create_object(
                person,
                Value::tuple([("Name", Value::str(name)), ("Age", Value::Int(age))]),
            )
            .unwrap();
        }
        db
    }

    /// `staff` plus what one-shot shapes read: `maggy` names Maggy, Denis's
    /// `Spouse` is Maggy, Eve is an `Employee`, and `Older(n)` is a
    /// parameterized class (the people older than `n`).
    fn family() -> GenSource {
        let mut db = staff();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        db.schema
            .add_attr(person, AttrDef::stored(sym("Spouse"), Type::Class(person)))
            .unwrap();
        let employee = db.create_class(sym("Employee"), &[person], vec![]).unwrap();
        let people = db.deep_extent(person);
        let (maggy, denis) = (people[0], people[1]);
        db.name_object(sym("maggy"), maggy).unwrap();
        db.set_attr(denis, sym("Spouse"), Value::Oid(maggy))
            .unwrap();
        db.create_object(
            employee,
            Value::tuple([("Name", Value::str("Eve")), ("Age", Value::Int(40))]),
        )
        .unwrap();
        GenSource::over(db)
    }

    /// Runs `src` both ways against every Person and asserts agreement.
    fn assert_differential(db: &dyn DataSource, src: &str) {
        let expr = parse_expr(src).unwrap();
        let p = sym("P");
        let prog = compile_predicate(&expr, &[p]);
        let mut scan = Scan::new(&prog, db);
        let ev = Evaluator::new(db);
        let person = db.class_by_name(sym("Person")).unwrap();
        for oid in db.extent(person).unwrap() {
            let mut env = Env::new();
            env.bind(p, Value::Oid(oid));
            let interpreted = ev.eval(&expr, &mut env);
            scan.bind(0, Value::Oid(oid));
            let compiled = scan.run(0);
            assert_eq!(compiled, interpreted, "divergence on `{src}`");
        }
    }

    #[test]
    fn covered_expressions_agree_with_interpreter() {
        let db = staff();
        for src in [
            "P.Age >= 65",
            r#"P.Name = "Maggy""#,
            "P.Age + 1 * 2 - 3",
            "P.Age >= 30 and P.Age < 70",
            r#"P.Name = "Tony" or P.Age > 65"#,
            "not (P.Age = 30)",
            "if P.Age > 50 then P.Name else P.Age",
            "P.Doubled = 140",
            "P.Plus(5) > 40",
            "-P.Age < 0",
            "P.Age / 2 >= 15",
            "{P.Age, 1} = {1}",
            "[A: P.Name, B: P.Age].B",
            "[X: 1, Y: {P.Age}] = [X: 1]",
        ] {
            assert_differential(&db, src);
        }
    }

    #[test]
    fn errors_agree_with_interpreter() {
        let db = staff();
        for src in [
            "P.Age / 0",            // division by zero
            "P.Age % 0",            // modulo by zero
            r#"P.Name < 1"#,        // unordered kinds
            "-P.Name",              // cannot negate
            "P.Ghost = 1",          // unknown attribute
            r#"P.Name ++ 1 = "x""#, // concat kind error
            "P.Plus() = 1",         // arity error through a compiled body
            "P.Plus(1, 2) = 1",     // arity error the other way
            r#"P.Plus("x") = 1"#,   // body errors on a bad argument
            "P.Age(1) = 1",         // stored attribute with arguments
        ] {
            assert_differential(&db, src);
        }
    }

    /// The shapes that once fell back to the interpreter compile, and
    /// agree with it value for value and error for error.
    #[test]
    fn every_shape_compiles() {
        let src = family();
        for text in [
            "P in Person",      // free class name
            "maggy.Age",        // named object
            "P.Spouse = maggy", // named object beside a stored reference
            "Ghost",            // unknown name
            "P isa Employee",
            "P isa Person and P.Age > 50",
            "P isa Ghost",         // unknown class
            "P.Spouse isa Person", // `null isa …`
            "P.Age isa Person",    // not an object
            "P in Older(60)",      // parameterized class
            "count(Older(P.Age))",
            "Ghost(1)", // not a parameterized class
            "self",     // no body binds `self`
            "self.Age",
        ] {
            assert_differential(&src, text);
        }
    }

    #[test]
    fn nested_selects_agree_with_interpreter() {
        let db = staff();
        for src in [
            "exists(select Q from Q in Person where Q.Age > P.Age)",
            "exists(select Q from Q in Person where Q.Age > 100)",
            "(select the Q.Age from Q in Person where Q.Name = P.Name) = P.Age",
            "(select Q.Name from Q in Person where Q.Age >= P.Age) = {P.Name}",
            // `the` over a non-singleton errors; error must match bit-for-bit.
            "(select the Q.Name from Q in Person) = P.Name",
            // Sub-select over a sub-select (free class name two levels down).
            "exists(select Q from Q in (select R from R in Person where R.Age > 60) \
             where Q.Age > P.Age)",
            // Correlated inner collection: the outer row's value drives it.
            "exists(select X from X in {P.Age, 1} where X > 50)",
        ] {
            assert_differential(&db, src);
        }
    }

    #[test]
    fn aggregates_agree_with_interpreter() {
        let db = staff();
        for src in [
            "count((select Q from Q in Person))",
            "count(Person)", // free class name as the argument
            "count(P.Age)",  // not a collection
            "sum(select Q.Age from Q in Person where Q.Age >= P.Age)",
            "sum(select Q.Name from Q in Person)", // non-numeric element
            "min(select Q.Age from Q in Person) = P.Age",
            "max(select Q.Doubled from Q in Person)",
            "avg(select Q.Age from Q in Person where Q.Age > 100)", // empty
            "avg({P.Age, 1})",
            "count(Ghost)", // unknown free name
        ] {
            assert_differential(&db, src);
        }
    }

    #[test]
    fn multi_binding_and_nested_selects_run_compiled_at_top_level() {
        let db = staff();
        for src in [
            "select P.Name from P in Person, Q in Person where P.Age < Q.Age",
            "select [A: P.Name, B: Q.Name] from P in Person, Q in Person \
             where P.Age + Q.Age = 135",
            "select P.Name from P in Person \
             where exists(select Q from Q in Person where Q.Age > P.Age)",
            "select P.Name from P in Person, Q in Person",
            "sum(select P.Age from P in Person where P.Age >= 65)",
            "count(Person)",
        ] {
            let expr = parse_expr(src).unwrap();
            let interp = crate::eval::eval_expr(&db, &expr);
            let on = crate::planner::with_planner(true, || run_compiled(&db, &expr));
            let off = crate::planner::with_planner(false, || run_compiled(&db, &expr));
            assert_eq!(on, interp, "planner-on divergence on `{src}`");
            assert_eq!(off, interp, "planner-off divergence on `{src}`");
        }
    }

    /// The charge formula, by hand: one step per row a loop binds and per
    /// computed body run, one row per value an answer gains — the same
    /// whichever engine runs the statement and whether the planner runs it.
    #[test]
    fn budget_charges_follow_the_plan() {
        // Person's deep extent, in oid order: Maggy 65, Denis 70, Tony 30,
        // Eve 40 (an Employee). `Doubled` and `Plus` are computed.
        let db = family();
        for (src, steps, rows) in [
            // 4 rows bound, 4 `Doubled` bodies; 4 distinct values.
            ("select P.Doubled from P in Person where P.Age >= 30", 8, 4),
            (
                "sum(select P.Doubled from P in Person where P.Age >= 30)",
                8,
                4,
            ),
            // An extent read as a value binds nothing.
            ("count(Person)", 0, 0),
            ("count(Older(60))", 0, 0),
            // 4 outer rows, 4 × 4 inner rows; Maggy, Tony and Eve.
            (
                "select P.Name from P in Person, Q in Person where P.Age < Q.Age",
                20,
                3,
            ),
            // `exists` binds until its first match: 2 + 4 + 1 + 1 inner rows.
            (
                "select P.Name from P in Person \
                 where exists(select Q from Q in Person where Q.Age > P.Age)",
                12,
                3,
            ),
            // A dependent collection: one inner row per outer row.
            (
                "select P.Name from P in Person, X in {P.Age} where X > 60",
                8,
                2,
            ),
            // Two bodies per row, `Plus` and its argument's `Doubled`.
            (
                "select P from P in Person where P.Plus(P.Doubled) > 0",
                12,
                4,
            ),
            // One-shot statements: the bodies they run, nothing else.
            ("maggy.Age", 0, 0),
            ("maggy.Doubled", 1, 0),
            ("maggy.Plus(1) + maggy.Doubled", 2, 0),
            // An error stops the charge where it stops the scan.
            ("select P.Name from P in Person where P isa Ghost", 1, 0),
        ] {
            let expr = parse_expr(src).unwrap();
            let charged = |run: &dyn Fn() -> Result<Value>| {
                let b = Arc::new(Budget::new());
                let v = budget::with(b.clone(), run);
                (v, b.steps_used(), b.rows_used())
            };
            let walked = crate::eval::eval_expr(&db, &expr);
            for (engine, run) in [
                ("walker", charged(&|| crate::eval::eval_expr(&db, &expr))),
                (
                    "compiled",
                    charged(&|| crate::planner::with_planner(false, || run_compiled(&db, &expr))),
                ),
                (
                    "planned",
                    charged(&|| crate::planner::with_planner(true, || run_compiled(&db, &expr))),
                ),
            ] {
                assert_eq!(run.0, walked, "{engine}: value of `{src}`");
                assert_eq!((run.1, run.2), (steps, rows), "{engine}: charge of `{src}`");
            }
        }
    }

    /// Both engines follow the one formula, so a top-level statement
    /// charges the walker's steps and rows when it runs compiled.
    #[test]
    fn top_level_budget_charges_match_the_interpreter() {
        let db = family();
        for src in [
            "select P.Doubled from P in Person where P.Age >= 30",
            "sum(select P.Doubled from P in Person where P.Age >= 30)",
            "count(Person)",
            "select P.Name from P in Person, Q in Person where P.Age < Q.Age",
            "select P.Name from P in Person \
             where exists(select Q from Q in Person where Q.Age > P.Age)",
            "select P.Name from P in Person where P.Spouse = maggy",
            "select P.Name from P in Person where P isa Employee",
            "select P.Name from P in Person where P isa Ghost",
            "select P.Name from P in Person where P in Older(P.Age - 1)",
            "count(Older(60))",
            "select self from P in Person",
        ] {
            let expr = parse_expr(src).unwrap();
            let interp_budget = Arc::new(Budget::new());
            let interp = budget::with(interp_budget.clone(), || crate::eval::eval_expr(&db, &expr));
            let comp_budget = Arc::new(Budget::new());
            let compiled = budget::with(comp_budget.clone(), || run_compiled(&db, &expr));
            assert_eq!(compiled, interp, "value divergence on `{src}`");
            assert_eq!(
                comp_budget.steps_used(),
                interp_budget.steps_used(),
                "step-charge divergence on `{src}`"
            );
            assert_eq!(
                comp_budget.rows_used(),
                interp_budget.rows_used(),
                "row-charge divergence on `{src}`"
            );
        }
    }

    /// The dispatch rule: a statement that iterates compiles, any other
    /// walks, and `compile.fallbacks` counts exactly the statements that
    /// walked.
    #[test]
    fn the_compiled_engine_counts_interpreter_fallbacks() {
        use crate::plan::Engine;
        let src = family();
        for (text, engine, walked) in [
            (
                "select P from P in Person where P isa Person",
                Engine::Compiled,
                0,
            ),
            ("maggy.Age", Engine::Interpreted, 1),
            ("[N: maggy.Name]", Engine::Interpreted, 1),
        ] {
            let expr = parse_expr(text).unwrap();
            // The counter is process-wide and other tests walk statements
            // concurrently, which can only add to it: retry until a run
            // sees no one else's.
            let seen = (0..1_000).find_map(|_| {
                let before = compile_fallbacks();
                let (value, ran) = crate::exec::dispatch(&src, &expr);
                assert_eq!(value, crate::eval::eval_expr(&src, &expr), "`{text}`");
                assert_eq!(ran, engine, "`{text}`");
                (compile_fallbacks() - before == walked).then_some(())
            });
            assert!(seen.is_some(), "`{text}` must count {walked} fallback(s)");
        }
    }

    #[test]
    fn short_circuit_skips_rhs_like_the_interpreter() {
        let db = staff();
        // The rhs errors (division by zero) but the lhs decides: `and`
        // with falsy lhs and `or` with truthy lhs must not touch it.
        assert_differential(&db, "P.Age < 0 and 1 / 0 = 1");
        assert_differential(&db, "P.Age > 0 or 1 / 0 = 1");
    }

    #[test]
    fn recursive_body_hits_the_same_depth_limit() {
        let mut db = staff();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        db.schema
            .add_attr(
                person,
                AttrDef::computed(sym("Loop"), Type::Int, parse_expr("self.Loop").unwrap()),
            )
            .unwrap();
        assert_differential(&db, "P.Loop = 1");
    }

    /// A predicate scanned row by row charges the bodies it runs: the
    /// `Doubled` body of every row past the `Age` test, in either engine.
    #[test]
    fn budget_steps_match_the_interpreter_exactly() {
        let db = staff();
        let expr = parse_expr("P.Age >= 30 and P.Doubled < 200").unwrap();
        let p = sym("P");
        let prog = compile_predicate(&expr, &[p]);
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        let oids = db.deep_extent(person);

        let count_steps = |compiled: bool| -> u64 {
            let b = Arc::new(Budget::new());
            budget::with(b.clone(), || {
                if compiled {
                    let mut scan = Scan::new(&prog, &db);
                    for &oid in &oids {
                        scan.bind(0, Value::Oid(oid));
                        scan.run(0).unwrap();
                    }
                } else {
                    let ev = Evaluator::new(&db);
                    for &oid in &oids {
                        let mut env = Env::new();
                        env.bind(p, Value::Oid(oid));
                        ev.eval(&expr, &mut env).unwrap();
                    }
                }
            });
            b.steps_used()
        };
        assert_eq!(count_steps(true), count_steps(false));
    }

    /// `P.Doubled > 100` on one row charges one step, its body: every cap
    /// from 1 up answers, cap 0 breaches, in both engines alike.
    #[test]
    fn budget_breach_trips_at_the_same_step() {
        let db = staff();
        let expr = parse_expr("P.Doubled > 100").unwrap();
        let p = sym("P");
        let prog = compile_predicate(&expr, &[p]);
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        let oid = db.deep_extent(person)[0];

        for max in 0..4 {
            let run_with = |compiled: bool| {
                let b = Arc::new(Budget::new().with_max_steps(max));
                let r = budget::with(b.clone(), || {
                    if compiled {
                        let mut scan = Scan::new(&prog, &db);
                        scan.bind(0, Value::Oid(oid));
                        scan.run(0)
                    } else {
                        let ev = Evaluator::new(&db);
                        let mut env = Env::new();
                        env.bind(p, Value::Oid(oid));
                        ev.eval(&expr, &mut env)
                    }
                });
                (r, b.steps_used())
            };
            let walked = run_with(false);
            assert_eq!(run_with(true), walked, "max_steps = {max}");
            match walked.0 {
                Ok(v) => assert!(max >= 1 && v == Value::Bool(true), "max_steps = {max}"),
                Err(QueryError::ResourceExhausted(_)) => assert_eq!(max, 0),
                Err(e) => panic!("max_steps = {max}: {e}"),
            }
        }
    }

    #[test]
    fn resolution_cache_reuses_pure_resolutions() {
        let db = staff();
        let expr = parse_expr("P.Age >= 65").unwrap();
        let prog = compile_predicate(&expr, &[sym("P")]);
        let mut scan = Scan::new(&prog, &db);
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        for oid in db.deep_extent(person) {
            scan.bind(0, Value::Oid(oid));
            scan.run(0).unwrap();
        }
        // One slot (P.Age), one class, its verdict asked on the first row.
        assert_eq!(scan.caches.len(), 1);
        assert!(matches!(
            scan.caches[0].as_slice(),
            [(c, Verdict::Stored)] if *c == person
        ));
    }

    #[test]
    fn computed_bodies_compile_into_the_scan() {
        let db = staff();
        let expr = parse_expr("P.Doubled").unwrap();
        let prog = compile_predicate(&expr, &[sym("P")]);
        let mut scan = Scan::new(&prog, &db);
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        let ages = [65, 70, 30];
        for (i, oid) in db.deep_extent(person).into_iter().enumerate() {
            scan.bind(0, Value::Oid(oid));
            assert_eq!(scan.run(0).unwrap(), Value::Int(2 * ages[i]));
        }
        // The Doubled slot cached a computed verdict's compiled body, and
        // the body program registered its own slot range (self.Age twice
        // → two body slots appended after the outer slot).
        assert!(matches!(
            scan.caches[0].as_slice(),
            [(c, Verdict::Body(0))] if *c == person
        ));
        assert_eq!(scan.bodies.len(), 1);
        assert_eq!(scan.caches.len(), 3);
    }

    #[test]
    fn top_level_select_agrees_with_interpreter() {
        let db = staff();
        for src in [
            "select P.Name from P in Person where P.Age >= 65",
            "select P from P in Person",
            "select the P from P in Person where P.Age = 30",
            "select the P from P in Person",     // cardinality error
            "select P.Age / 0 from P in Person", // projection error
            "select [N: P.Name, D: P.Doubled] from P in Person",
        ] {
            let expr = parse_expr(src).unwrap();
            let compiled = run_compiled(&db, &expr);
            let interpreted = crate::eval::eval_expr(&db, &expr);
            assert_eq!(compiled, interpreted, "divergence on `{src}`");
        }
    }

    /// `run_select` — a view's non-canonical population — charges what
    /// `eval_select` charges for the same plan: the rows its loops bind.
    #[test]
    fn run_select_charges_like_eval_select() {
        let src = family();
        for text in [
            "select P.Name from P in Person where P.Age >= 65",
            "select [A: P.Name, B: Q.Name] from P in Person, Q in Person where P.Spouse = Q",
            "select X from P in Person, X in {P.Age} where X > 60",
            "select the P from P in Person",
            "select P from P in maggy",
        ] {
            let q = crate::parser::parse_select(text).unwrap();
            let charged = |run: &dyn Fn() -> Result<Value>| {
                let b = Arc::new(Budget::new());
                let v = budget::with(b.clone(), run);
                (v, b.steps_used(), b.rows_used())
            };
            assert_eq!(
                charged(&|| run_select(&src, &q)),
                charged(&|| crate::eval::eval_select(&src, &q)),
                "`{text}`"
            );
        }
    }

    #[test]
    fn interp_mode_disables_compilation() {
        use crate::plan::Engine;
        let db = staff();
        let expr = parse_expr("select P from P in Person").unwrap();
        let engine = |mode| with_engine_mode(mode, || crate::exec::dispatch(&db, &expr).1);
        assert_eq!(engine(EngineMode::Interp), Engine::Interpreted);
        assert_eq!(engine(EngineMode::Compiled), Engine::Compiled);
    }

    #[test]
    fn engine_mode_override_scopes_to_the_thread() {
        assert_eq!(engine_mode(), EngineMode::Compiled);
        with_engine_mode(EngineMode::Interp, || {
            assert_eq!(engine_mode(), EngineMode::Interp);
            // Nested overrides stack…
            with_engine_mode(EngineMode::Compiled, || {
                assert_eq!(engine_mode(), EngineMode::Compiled);
            });
            assert_eq!(engine_mode(), EngineMode::Interp);
            // …and another thread sees the default, not our override.
            std::thread::spawn(|| assert_eq!(engine_mode(), EngineMode::Compiled))
                .join()
                .unwrap();
        });
        assert_eq!(engine_mode(), EngineMode::Compiled);
    }

    /// A source whose resolution can change mid-scan, announced via the
    /// generation counter — the shape of a view's population brackets. It
    /// also logs every fused object probe, by attribute name, and knows one
    /// parameterized class, `Older(n)`.
    struct GenSource {
        db: Database,
        probes: std::sync::Mutex<Vec<Symbol>>,
        generation: std::sync::atomic::AtomicU64,
        /// When set, `Age` resolves to a computed constant instead of the
        /// stored field.
        redefined: std::sync::atomic::AtomicBool,
    }

    impl GenSource {
        fn over(db: Database) -> GenSource {
            GenSource {
                db,
                probes: Default::default(),
                generation: Default::default(),
                redefined: Default::default(),
            }
        }

        /// `Age`'s resolution while it is redefined.
        fn redefinition(&self, name: Symbol) -> Option<ResolvedAttr> {
            (name == sym("Age") && self.redefined.load(Ordering::Relaxed)).then(|| {
                ResolvedAttr::Computed {
                    params: vec![],
                    body: Arc::new(parse_expr("999").unwrap()),
                }
            })
        }
    }

    impl DataSource for GenSource {
        fn apply(&self, name: Symbol, args: &[Value]) -> Result<Value> {
            let (true, [Value::Int(n)]) = (name == sym("Older"), args) else {
                return DataSource::apply(&self.db, name, args);
            };
            let person = self.db.schema.class_by_name(sym("Person")).unwrap();
            let older = self.db.deep_extent(person).into_iter().filter(
                |&o| matches!(self.db.stored_attr(o, sym("Age")), Ok(Value::Int(a)) if a > n),
            );
            Ok(Value::Set(older.map(Value::Oid).collect()))
        }
        fn class_by_name(&self, name: Symbol) -> Option<ClassId> {
            DataSource::class_by_name(&self.db, name)
        }
        fn class_name(&self, c: ClassId) -> Symbol {
            DataSource::class_name(&self.db, c)
        }
        fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
            DataSource::is_subclass(&self.db, sub, sup)
        }
        fn ancestors(&self, c: ClassId) -> Vec<ClassId> {
            DataSource::ancestors(&self.db, c)
        }
        fn class_of(&self, oid: Oid) -> Result<ClassId> {
            DataSource::class_of(&self.db, oid)
        }
        fn extent(&self, class: ClassId) -> Result<Vec<Oid>> {
            DataSource::extent(&self.db, class)
        }
        fn is_member(&self, oid: Oid, class: ClassId) -> Result<bool> {
            DataSource::is_member(&self.db, oid, class)
        }
        fn resolve(&self, oid: Oid, name: Symbol) -> Result<ResolvedAttr> {
            match self.redefinition(name) {
                Some(res) => Ok(res),
                None => DataSource::resolve(&self.db, oid, name),
            }
        }
        fn class_verdict(&self, class: ClassId, name: Symbol) -> Option<ResolvedAttr> {
            self.redefinition(name)
                .or_else(|| self.db.class_verdict(class, name))
        }
        fn stored_field(&self, oid: Oid, name: Symbol) -> Result<Value> {
            DataSource::stored_field(&self.db, oid, name)
        }
        fn named_object(&self, name: Symbol) -> Option<Oid> {
            DataSource::named_object(&self.db, name)
        }
        fn object_exists(&self, oid: Oid) -> bool {
            DataSource::object_exists(&self.db, oid)
        }
        fn attr_sig(&self, c: ClassId, name: Symbol) -> Option<ov_oodb::AttrSig> {
            DataSource::attr_sig(&self.db, c, name)
        }
        fn class_type(&self, c: ClassId) -> Type {
            DataSource::class_type(&self.db, c)
        }
        fn resolution_class_and_field(&self, oid: Oid, name: Symbol) -> Option<(ClassId, Value)> {
            self.probes.lock().unwrap().push(name);
            DataSource::resolution_class_and_field(&self.db, oid, name)
        }
        fn resolution_generation(&self) -> u64 {
            self.generation.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn generation_bump_invalidates_warm_slot_caches() {
        let src = GenSource::over(staff());
        let expr = parse_expr("P.Age").unwrap();
        let prog = compile_predicate(&expr, &[sym("P")]);
        let mut scan = Scan::new(&prog, &src);
        let person = src.class_by_name(sym("Person")).unwrap();
        let oid = DataSource::extent(&src, person).unwrap()[0];
        scan.bind(0, Value::Oid(oid));
        assert_eq!(scan.run(0).unwrap(), Value::Int(65)); // warm the cache

        // Redefine without announcing: the warm `Stored` verdict is
        // (by design) served for the rest of the scan.
        src.redefined.store(true, Ordering::Relaxed);
        assert_eq!(scan.run(0).unwrap(), Value::Int(65));

        // Announce via the generation counter: the cache drops, `Age`
        // re-resolves, and the redefinition takes effect mid-scan.
        src.generation.fetch_add(1, Ordering::Relaxed);
        assert_eq!(scan.run(0).unwrap(), Value::Int(999));
    }

    #[test]
    fn a_scan_probes_each_row_once_per_attribute_it_evaluates() {
        let src = GenSource::over(staff());
        // Three rows, one match: the filter attribute is probed per row,
        // the projection attribute only for the row that passed.
        let expr = parse_expr("select P.Name from P in Person where P.Age = 30").unwrap();
        let got = crate::planner::with_planner(false, || run_compiled(&src, &expr)).unwrap();
        assert_eq!(got, Value::set([Value::str("Tony")]));
        let probes = src.probes.lock().unwrap();
        let count = |name: &str| probes.iter().filter(|p| **p == sym(name)).count();
        assert_eq!(count("Age"), 3, "one filter probe per scanned row");
        assert_eq!(count("Name"), 1, "one projection probe per matching row");
        assert_eq!(probes.len(), 4, "and nothing else");
    }
}
