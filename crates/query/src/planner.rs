//! Cost-based planning for compiled scans.
//!
//! PR 8 grew a statistics plane (`ov_oodb::stats`: cardinality, NDV via
//! HLL, min–max, null fraction) that nothing consumed; scans picked
//! their strategy — index pushdown or sequential compiled scan — by fixed
//! shape heuristics. This module closes the loop: it estimates per-scan
//! row counts from the sketches (conjunct splitting, so each `and` leg is
//! costed independently), chooses a [`Strategy`] per scan, and caches
//! chosen plans keyed by the PR 8 query fingerprint (its `u64` form,
//! [`fingerprint_hash`]). The paper's view mechanism multiplies derived
//! queries (parameterized-class instantiation, stacked-view repopulation),
//! so one planning decision is amortized across thousands of
//! re-evaluations.
//!
//! The entry of a fingerprint also holds the shape's compiled code
//! (`compile::StmtCode`), so one lock acquisition per statement serves
//! both: the plan when it was made under the source's resolution
//! generation, the code whatever the generation — code names no source.
//! Both live and die together: [`PLAN_CACHE_CAP`]'s evict-all and
//! [`clear_plan_cache`] drop an entry whole.
//!
//! Two invariants keep estimation honest:
//!
//! - **Estimates never affect correctness.** Every choice is validated
//!   at execution time: a pushdown plan whose index turns out not to
//!   exist is demoted to a sequential scan; a reordered join is only
//!   attempted when reordering provably cannot change the result set
//!   (independent class-extent bindings). A budget does not block it: the
//!   reordered nest is charged the rows it binds, like any loop.
//! - **Plans expire, estimates learn.** A cached plan is invalidated when
//!   the source's `resolution_generation` moves. When a query's measured
//!   rows diverge from the cached estimate by more than [`DRIFT_FACTOR`]×
//!   in either direction, the entry adopts the measured rows (counted in
//!   `planner.replans`): planning again from the same sketches would only
//!   repeat the same misestimate on every execution.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use ov_oodb::stats::{stats, ClassStatistics};
use ov_oodb::{metric_counter, BinOp, Expr, SelectExpr, Symbol, UnOp, Value};

use crate::compile::StmtCode;
use crate::ctx;
use crate::fingerprint::fingerprint_hash;
use crate::source::DataSource;

/// Selectivity assumed for a predicate leg the model cannot analyze.
pub const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;

/// Cardinality assumed for a class no scan has measured yet.
pub const DEFAULT_CARDINALITY: u64 = 1024;

/// An equality probe is only worth an index round-trip when the expected
/// candidate set is a fraction of the extent: `ndv` must exceed this.
/// (At NDV 2 — a boolean-ish column — the "index" hands back half the
/// extent and the sequential scan wins.)
pub const PUSHDOWN_MIN_NDV: u64 = 4;

/// Estimate-vs-actual divergence (either direction) at which a cached
/// plan's estimate is replaced by the measured rows.
pub const DRIFT_FACTOR: u64 = 10;

// ---------------------------------------------------------------------
// Enablement: a thread-scoped setting in the ambient execution context,
// same shape as the engine mode in `compile.rs`. Off is the E19 baseline:
// every canonical scan — a statement's or a view population's — runs
// sequentially with no estimate, and a multi-binding select keeps its
// written binding order.
// ---------------------------------------------------------------------

/// Is the planner consulted for strategy choices on this thread?
pub fn planner_enabled() -> bool {
    ctx::with(|c| c.planner).unwrap_or(true)
}

/// Runs `f` with the planner forced on or off on this thread, restoring
/// the previous setting on the way out (also on unwind).
pub fn with_planner<R>(on: bool, f: impl FnOnce() -> R) -> R {
    ctx::scoped(|c| &mut c.planner, Some(on), f).0
}

// ---------------------------------------------------------------------
// Decisions
// ---------------------------------------------------------------------

/// An access path: the one the planner chose for a scan, and the one a scan
/// ran ([`crate::plan::ScanEvent::kind`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Sequential scan over the extent.
    Seq,
    /// Probe an equality index on `attr` for `value`, then re-test the
    /// candidates. Demoted to [`Strategy::Seq`] at execution time if the
    /// source has no such index.
    IndexPushdown {
        /// The scanned class, as the query names it.
        class: Symbol,
        /// The attribute whose equality conjunct drives the probe.
        attr: Symbol,
        /// The literal being probed for.
        value: Value,
    },
    /// Multi-binding nested loop with bindings iterated in `order`
    /// (indices into the select's binding list), cheapest first.
    Join {
        /// Binding order by estimated output rows, ascending.
        order: Vec<usize>,
    },
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Seq => write!(f, "seq"),
            Strategy::IndexPushdown { class, attr, .. } => write!(f, "index {class}.{attr}"),
            Strategy::Join { order } => {
                write!(f, "join(")?;
                for (i, b) in order.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// One planning outcome: the strategy, its row estimate, and whether it
/// came out of the plan cache.
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// The chosen access path.
    pub strategy: Strategy,
    /// Estimated result rows (cardinality × selectivity, floored at 1
    /// for non-empty extents).
    pub est_rows: u64,
    /// `true` when the plan was served from the fingerprint-keyed cache.
    pub cache_hit: bool,
}

// ---------------------------------------------------------------------
// The plan cache
// ---------------------------------------------------------------------

/// A cached access path, without its literal: fingerprints are
/// literal-normalized, so one entry serves every literal value of a query
/// shape, and a pushdown's probe value always comes from the query being
/// planned.
#[derive(Clone, Debug)]
pub(crate) enum CachedStrategy {
    Seq,
    IndexPushdown { class: Symbol, attr: Symbol },
    Join { order: Vec<usize> },
}

/// A plan served from the cache: its strategy and row estimate.
pub(crate) type PlanHit = (CachedStrategy, u64);

#[derive(Debug)]
struct CachedPlan {
    strategy: CachedStrategy,
    est_rows: u64,
    /// `resolution_generation` of the source the plan was made under; a
    /// moved generation invalidates the plan.
    generation: u64,
}

/// Everything cached for one statement shape, under its fingerprint: the
/// plan, valid for one resolution generation, and the compiled code,
/// valid for any source (it names none).
#[derive(Default)]
struct Entry {
    plan: Option<CachedPlan>,
    code: Option<Arc<StmtCode>>,
}

fn cache() -> MutexGuard<'static, HashMap<u64, Entry>> {
    static CACHE: OnceLock<Mutex<HashMap<u64, Entry>>> = OnceLock::new();
    CACHE
        .get_or_init(Mutex::default)
        .lock()
        .expect("plan cache poisoned")
}

/// Drops every cached plan and the code cached with it (tests and
/// benchmarks use this to start from a cold planner).
pub fn clear_plan_cache() {
    cache().clear();
}

/// What the entry under `fp` holds for one statement, read under one lock:
/// the plan, asked for only when `generation` is given (a planned
/// statement) and served only if made under it — counted as a hit or a
/// miss — and the code, served whatever the generation.
pub(crate) fn lookup(fp: u64, generation: Option<u64>) -> (Option<PlanHit>, Option<Arc<StmtCode>>) {
    let guard = cache();
    let entry = guard.get(&fp);
    let code = entry.and_then(|e| e.code.clone());
    let Some(generation) = generation else {
        return (None, code);
    };
    let plan = match entry.and_then(|e| e.plan.as_ref()) {
        Some(c) if c.generation == generation => {
            metric_counter!("planner.plan_cache.hits").inc();
            Some((c.strategy.clone(), c.est_rows))
        }
        _ => {
            metric_counter!("planner.plan_cache.misses").inc();
            None
        }
    };
    (plan, code)
}

/// Entries the cache holds before a new fingerprint empties it (counted
/// per dropped entry in `planner.cache_evictions`). Fingerprints
/// normalize literals, so a workload's set of shapes is small; a stream
/// of distinct shapes (generated queries) must not grow the map forever,
/// and re-planning and re-compiling a dropped shape costs one miss.
pub const PLAN_CACHE_CAP: usize = 4096;

/// The entry under `fp`, created if new — after emptying the whole cache
/// when it already holds [`PLAN_CACHE_CAP`] entries.
fn entry(map: &mut HashMap<u64, Entry>, fp: u64) -> &mut Entry {
    if map.len() >= PLAN_CACHE_CAP && !map.contains_key(&fp) {
        metric_counter!("planner.cache_evictions").add(map.len() as u64);
        map.clear();
    }
    map.entry(fp).or_default()
}

fn cache_store(fp: u64, plan: CachedPlan) {
    entry(&mut cache(), fp).plan = Some(plan);
}

/// Caches the compiled code of the statement shape `fp`, beside its plan.
pub(crate) fn store_code(fp: u64, code: Arc<StmtCode>) {
    entry(&mut cache(), fp).code = Some(code);
}

/// Rewrites the plan cached under fingerprint `fp` to a sequential scan —
/// called when execution discovers a pushdown plan's index does not
/// exist, so later queries skip the doomed probe.
pub fn demote_to_seq(fp: u64) {
    if let Some(c) = cache().get_mut(&fp).and_then(|e| e.plan.as_mut()) {
        c.strategy = CachedStrategy::Seq;
    }
}

/// Feeds a query's measured result rows back into the plan cached under
/// fingerprint `fp`: when they diverge from the cached estimate by more
/// than [`DRIFT_FACTOR`]× in either direction, the entry takes the
/// measured rows as its estimate (counted in `planner.replans`). Evicting
/// instead would re-plan from the same sketches, reach the same estimate
/// and drift again on every execution of the shape.
pub fn observe_actual(fp: u64, actual_rows: u64) {
    if let Some(c) = cache().get_mut(&fp).and_then(|e| e.plan.as_mut()) {
        if drifts(c.est_rows, actual_rows) {
            c.est_rows = actual_rows;
            metric_counter!("planner.replans").inc();
        }
    }
}

/// Are `est` and `actual` rows more than [`DRIFT_FACTOR`]× apart, in
/// either direction?
fn drifts(est: u64, actual: u64) -> bool {
    let (est, act) = (est.max(1), actual.max(1));
    est / act >= DRIFT_FACTOR || act / est >= DRIFT_FACTOR
}

// ---------------------------------------------------------------------
// Selectivity estimation
// ---------------------------------------------------------------------

/// Splits a filter into its top-level `and` legs, in evaluation order.
/// `truthy(a and b)` ⇔ `truthy(a) && truthy(b)`, so the legs can be
/// costed (and, where provably safe, evaluated) independently.
pub(crate) fn conjuncts(e: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        match e {
            Expr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                walk(lhs, out);
                walk(rhs, out);
            }
            _ => out.push(e),
        }
    }
    walk(e, &mut out);
    out
}

/// `var.Attr = literal` (either orientation) with no call arguments —
/// the shape an equality index can serve.
fn eq_conjunct(leg: &Expr, var: Symbol) -> Option<(Symbol, &Value)> {
    let Expr::Binary {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = leg
    else {
        return None;
    };
    let attr_of = |e: &Expr| -> Option<Symbol> {
        if let Expr::Attr { recv, name, args } = e {
            if args.is_empty() && matches!(recv.as_ref(), Expr::Name(n) if *n == var) {
                return Some(*name);
            }
        }
        None
    };
    if let (Some(attr), Expr::Lit(v)) = (attr_of(lhs), rhs.as_ref()) {
        return Some((attr, v));
    }
    if let (Some(attr), Expr::Lit(v)) = (attr_of(rhs), lhs.as_ref()) {
        return Some((attr, v));
    }
    None
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// Fraction of the `[min, max]` range selected by `op lit` (for `var.A
/// op lit`), assuming a uniform distribution.
fn range_fraction(op: BinOp, lit: f64, min: f64, max: f64) -> f64 {
    let width = max - min;
    if width <= 0.0 {
        // Degenerate (single-valued) range: the comparison either takes
        // everything or nothing; split the difference like an unknown.
        return DEFAULT_SELECTIVITY;
    }
    let below = ((lit - min) / width).clamp(0.0, 1.0);
    match op {
        BinOp::Lt | BinOp::Le => below,
        BinOp::Gt | BinOp::Ge => 1.0 - below,
        _ => DEFAULT_SELECTIVITY,
    }
}

/// Selectivity of one predicate leg over `var`, from the class's
/// sketches. Unknown shapes and unmeasured attributes cost
/// [`DEFAULT_SELECTIVITY`].
fn leg_selectivity(cs: &ClassStatistics, var: Symbol, leg: &Expr) -> f64 {
    // var.Attr op literal (either orientation), no call arguments.
    let attr_cmp = |lhs: &Expr, rhs: &Expr| -> Option<(Symbol, Value, bool)> {
        let attr_of = |e: &Expr| -> Option<Symbol> {
            if let Expr::Attr { recv, name, args } = e {
                if args.is_empty() && matches!(recv.as_ref(), Expr::Name(n) if *n == var) {
                    return Some(*name);
                }
            }
            None
        };
        if let (Some(a), Expr::Lit(v)) = (attr_of(lhs), rhs) {
            return Some((a, v.clone(), false));
        }
        if let (Some(a), Expr::Lit(v)) = (attr_of(rhs), lhs) {
            return Some((a, v.clone(), true));
        }
        None
    };
    match leg {
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::And => leg_selectivity(cs, var, lhs) * leg_selectivity(cs, var, rhs),
            BinOp::Or => {
                let a = leg_selectivity(cs, var, lhs);
                let b = leg_selectivity(cs, var, rhs);
                (a + b - a * b).clamp(0.0, 1.0)
            }
            BinOp::Eq | BinOp::Ne => {
                let Some((attr, _, _)) = attr_cmp(lhs, rhs) else {
                    return DEFAULT_SELECTIVITY;
                };
                let Some(s) = cs.attrs.get(&attr) else {
                    return DEFAULT_SELECTIVITY;
                };
                // Column sketches come from a *sample* of each scan, so the HLL
                // NDV is bounded by the sample size, not the extent. When
                // the sample is (nearly) all-distinct, the column is a key
                // as far as we can tell — extrapolate NDV to the full
                // class cardinality instead of the sample's ceiling
                // (the textbook distinct-value estimator's key case).
                let observed = s.rows.saturating_sub(s.nulls).max(1);
                let ndv = if s.ndv.saturating_mul(10) >= observed.saturating_mul(9) {
                    cs.cardinality.unwrap_or(s.ndv).max(s.ndv).max(1) as f64
                } else {
                    s.ndv.max(1) as f64
                };
                let non_null = 1.0 - s.null_fraction;
                if *op == BinOp::Eq {
                    (non_null / ndv).clamp(0.0, 1.0)
                } else {
                    (non_null * (1.0 - 1.0 / ndv)).clamp(0.0, 1.0)
                }
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let Some((attr, lit, flipped)) = attr_cmp(lhs, rhs) else {
                    return DEFAULT_SELECTIVITY;
                };
                let Some(s) = cs.attrs.get(&attr) else {
                    return DEFAULT_SELECTIVITY;
                };
                let (Some(lit), Some(min), Some(max)) = (
                    as_f64(&lit),
                    s.min.as_ref().and_then(as_f64),
                    s.max.as_ref().and_then(as_f64),
                ) else {
                    return DEFAULT_SELECTIVITY;
                };
                // `lit op var.A` mirrors to `var.A flip(op) lit`.
                let op = if flipped {
                    match op {
                        BinOp::Lt => BinOp::Gt,
                        BinOp::Le => BinOp::Ge,
                        BinOp::Gt => BinOp::Lt,
                        BinOp::Ge => BinOp::Le,
                        other => *other,
                    }
                } else {
                    *op
                };
                (range_fraction(op, lit, min, max) * (1.0 - s.null_fraction)).clamp(0.0, 1.0)
            }
            _ => DEFAULT_SELECTIVITY,
        },
        Expr::Unary {
            op: UnOp::Not,
            expr,
        } => (1.0 - leg_selectivity(cs, var, expr)).clamp(0.0, 1.0),
        Expr::Lit(Value::Bool(true)) => 1.0,
        Expr::Lit(Value::Bool(false)) => 0.0,
        _ => DEFAULT_SELECTIVITY,
    }
}

/// Combined selectivity of a filter over `var`: the product of its
/// conjunct legs' selectivities.
fn filter_selectivity(cs: &ClassStatistics, var: Symbol, filter: Option<&Expr>) -> f64 {
    let Some(f) = filter else { return 1.0 };
    conjuncts(f)
        .iter()
        .map(|leg| leg_selectivity(cs, var, leg))
        .product::<f64>()
        .clamp(0.0, 1.0)
}

fn est_rows_from(card: u64, selectivity: f64) -> u64 {
    if card == 0 {
        return 0;
    }
    ((card as f64 * selectivity).round() as u64).max(1)
}

// ---------------------------------------------------------------------
// Strategy choice
// ---------------------------------------------------------------------

/// Is an equality-index probe on `class.attr` expected to beat the
/// sequential scan? `true` when statistics are absent (the
/// probe itself is cheap and execution validates), `false` when the
/// sketch says the column is low-NDV — the candidate set would be a
/// large slice of the extent and per-candidate retests lose to the
/// scan.
fn index_worthwhile(class: Symbol, attr: Symbol) -> bool {
    let cs = stats().class(class).snapshot();
    match cs.attrs.get(&attr) {
        Some(s) if s.rows > 0 => s.ndv > PUSHDOWN_MIN_NDV,
        _ => true,
    }
}

/// Plans a canonical single-binding class scan by [`choose_scan`]'s rule,
/// through the fingerprint-keyed plan cache: consults it and fills it.
pub fn plan_select(src: &dyn DataSource, expr: &Expr, q: &SelectExpr) -> Decision {
    let fp = fingerprint_hash(expr);
    let generation = src.resolution_generation();
    let (cached, _) = lookup(fp, Some(generation));
    plan_select_with(fp, q, generation, cached)
}

/// The `(attr, literal)` of the first equality conjunct of `q`'s filter
/// over its variable that `accept`s — the conjunct an index probe serves.
fn pushdown_conjunct(
    q: &SelectExpr,
    mut accept: impl FnMut(Symbol) -> bool,
) -> Option<(Symbol, &Value)> {
    let var = q.bindings[0].0;
    conjuncts(q.filter.as_deref()?)
        .into_iter()
        .filter_map(|leg| eq_conjunct(leg, var))
        .find(|(attr, _)| accept(*attr))
}

/// [`plan_select`] for a caller that already looked up the query's
/// fingerprint `fp`: `cached` is the plan the entry held for the source's
/// resolution `generation`, if any; a miss plans and fills the entry.
pub(crate) fn plan_select_with(
    fp: u64,
    q: &SelectExpr,
    generation: u64,
    cached: Option<PlanHit>,
) -> Decision {
    if let Some((cached, est_rows)) = cached {
        let strategy = match cached {
            // The probe value is this query's own literal. A query that has
            // no such conjunct is not the shape that was planned (only a
            // fingerprint collision gets here): scan, which is always right.
            CachedStrategy::IndexPushdown { class, attr } => {
                match pushdown_conjunct(q, |a| a == attr) {
                    Some((_, value)) => Strategy::IndexPushdown {
                        class,
                        attr,
                        value: value.clone(),
                    },
                    None => Strategy::Seq,
                }
            }
            CachedStrategy::Seq => Strategy::Seq,
            CachedStrategy::Join { order } => Strategy::Join { order },
        };
        return Decision {
            strategy,
            est_rows,
            cache_hit: true,
        };
    }
    let decision = choose_scan(q);
    let strategy = match &decision.strategy {
        Strategy::IndexPushdown { class, attr, .. } => CachedStrategy::IndexPushdown {
            class: *class,
            attr: *attr,
        },
        _ => CachedStrategy::Seq,
    };
    cache_store(
        fp,
        CachedPlan {
            strategy,
            est_rows: decision.est_rows,
            generation,
        },
    );
    decision
}

/// The access-path rule for a canonical single-binding class scan
/// (`select E from V in C [where F]`), from statistics alone: an index probe
/// on the first equality conjunct over `V` whose attribute is worth one
/// (`index_worthwhile`), else sequential, with the estimated rows. A
/// statement asks it through the plan cache ([`plan_select`]); a view
/// population asks it directly, so both pick one path for one query.
pub fn choose_scan(q: &SelectExpr) -> Decision {
    let (var, coll) = &q.bindings[0];
    let class = match coll {
        Expr::Name(n) => *n,
        _ => Symbol::from("?"),
    };
    let cs = stats().class(class).snapshot();
    let card = cs.cardinality.unwrap_or(DEFAULT_CARDINALITY);
    let est_rows = est_rows_from(card, filter_selectivity(&cs, *var, q.filter.as_deref()));
    let strategy = match pushdown_conjunct(q, |attr| index_worthwhile(class, attr)) {
        Some((attr, value)) => Strategy::IndexPushdown {
            class,
            attr,
            value: value.clone(),
        },
        None => Strategy::Seq,
    };
    Decision {
        strategy,
        est_rows,
        cache_hit: false,
    }
}

/// Orders a multi-binding select's bindings by estimated per-binding
/// output rows (extent cardinality × the selectivity of the legs that
/// mention only that binding), cheapest first. `classes[i]` names the
/// collection of binding `i`; `cards[i]` is its measured extent size.
/// Consults and fills the plan cache; `est_rows` is the product of the
/// per-binding estimates discounted by [`DEFAULT_SELECTIVITY`] per
/// cross-binding leg. `fp` is the query's fingerprint.
pub fn plan_join(
    src: &dyn DataSource,
    fp: u64,
    q: &SelectExpr,
    classes: &[Symbol],
    cards: &[u64],
) -> Decision {
    let generation = src.resolution_generation();
    if let (Some((CachedStrategy::Join { order }, est_rows)), _) = lookup(fp, Some(generation)) {
        return Decision {
            strategy: Strategy::Join { order },
            est_rows,
            cache_hit: true,
        };
    }
    let vars: Vec<Symbol> = q.bindings.iter().map(|(v, _)| *v).collect();
    let legs: Vec<&Expr> = q.filter.as_deref().map(conjuncts).unwrap_or_default();
    let mut per_binding: Vec<f64> = Vec::with_capacity(vars.len());
    let mut cross_legs = 0usize;
    let mut counted = vec![false; legs.len()];
    for (i, var) in vars.iter().enumerate() {
        let cs = stats().class(classes[i]).snapshot();
        let mut sel = 1.0f64;
        for (li, leg) in legs.iter().enumerate() {
            let mentioned = mentioned_vars(leg, &vars);
            if mentioned == Some(vec![i]) {
                sel *= leg_selectivity(&cs, *var, leg);
                counted[li] = true;
            }
        }
        per_binding.push((cards[i] as f64 * sel).max(if cards[i] == 0 { 0.0 } else { 1.0 }));
    }
    for (li, leg) in legs.iter().enumerate() {
        if !counted[li] && mentioned_vars(leg, &vars).is_some_and(|m| m.len() > 1) {
            cross_legs += 1;
        }
    }
    let mut order: Vec<usize> = (0..vars.len()).collect();
    order.sort_by(|&a, &b| {
        per_binding[a]
            .partial_cmp(&per_binding[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let est = per_binding.iter().product::<f64>() * DEFAULT_SELECTIVITY.powi(cross_legs as i32);
    let est_rows = (est.round() as u64).max(if cards.contains(&0) { 0 } else { 1 });
    cache_store(
        fp,
        CachedPlan {
            strategy: CachedStrategy::Join {
                order: order.clone(),
            },
            est_rows,
            generation,
        },
    );
    Decision {
        strategy: Strategy::Join { order },
        est_rows,
        cache_hit: false,
    }
}

/// The set of select-variable indices a leg mentions, or `None` when
/// the leg contains anything the reorderer must not touch: a free name,
/// `self`, a nested select, an aggregate, or a parameterized-class
/// application. (Those shapes may shadow variables or depend on
/// evaluation context, so the leg — and with it the whole join — stays
/// on the exact-order path.)
pub fn mentioned_vars(e: &Expr, vars: &[Symbol]) -> Option<Vec<usize>> {
    fn walk(e: &Expr, vars: &[Symbol], seen: &mut Vec<bool>) -> bool {
        match e {
            Expr::Lit(_) => true,
            Expr::Name(n) => match vars.iter().rposition(|v| v == n) {
                Some(i) => {
                    seen[i] = true;
                    true
                }
                None => false,
            },
            Expr::Attr { recv, args, .. } => {
                walk(recv, vars, seen) && args.iter().all(|a| walk(a, vars, seen))
            }
            Expr::Unary { expr, .. } => walk(expr, vars, seen),
            Expr::Binary { lhs, rhs, .. } => walk(lhs, vars, seen) && walk(rhs, vars, seen),
            Expr::If { cond, then, els } => {
                walk(cond, vars, seen) && walk(then, vars, seen) && walk(els, vars, seen)
            }
            Expr::TupleCons(fields) => fields.iter().all(|(_, e)| walk(e, vars, seen)),
            Expr::SetCons(items) | Expr::ListCons(items) => {
                items.iter().all(|e| walk(e, vars, seen))
            }
            Expr::IsA { expr, .. } => walk(expr, vars, seen),
            Expr::SelfRef
            | Expr::Select(_)
            | Expr::Exists(_)
            | Expr::Aggregate { .. }
            | Expr::Apply { .. } => false,
        }
    }
    let mut seen = vec![false; vars.len()];
    if !walk(e, vars, &mut seen) {
        return None;
    }
    Some(
        seen.iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(i))
            .collect(),
    )
}

/// Feeds the measured row count of the query (fingerprint `fp`) that just
/// executed back for drift detection — on success — and notes its decision
/// in the open trace collector, if one is observing (EXPLAIN, the profiler).
/// The decision carries the estimate the entry held, so the cache is locked
/// again only when that estimate drifted: a statement of a settled shape
/// takes the lock once, for its lookup.
pub fn record_outcome(fp: u64, decision: Decision, result_rows: Option<u64>) {
    if let Some(rows) = result_rows.filter(|&rows| drifts(decision.est_rows, rows)) {
        observe_actual(fp, rows);
    }
    crate::plan::note_decision(decision);
}

/// Plan-cache hit/miss/replan counters, as ovq's `.planner` reports them.
pub fn plan_cache_counters() -> (u64, u64, u64) {
    (
        metric_counter!("planner.plan_cache.hits").get(),
        metric_counter!("planner.plan_cache.misses").get(),
        metric_counter!("planner.replans").get(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use ov_oodb::sym;

    fn leg(src: &str) -> Expr {
        parse_expr(src).expect("parse")
    }

    /// Estimated rows of a scan of `class` over `var` filtered by `filter`;
    /// `None` while no scan has measured the class.
    fn estimate_select(class: Symbol, var: Symbol, filter: Option<&Expr>) -> Option<u64> {
        let cs = stats().class(class).snapshot();
        let card = cs.cardinality?;
        Some(est_rows_from(card, filter_selectivity(&cs, var, filter)))
    }

    fn measured(card: u64, attr: &str, values: impl IntoIterator<Item = Value>) -> Symbol {
        // A unique class name per call keeps global-registry tests
        // independent of each other and of execution order.
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let class = sym(&format!("PlannerT{}", N.fetch_add(1, Ordering::SeqCst)));
        let cs = stats().class(class);
        cs.note_cardinality(0, card);
        let vals: Vec<Value> = values.into_iter().collect();
        cs.observe_column(0, sym(attr), vals.iter().map(Some));
        class
    }

    #[test]
    fn conjuncts_split_only_top_level_ands() {
        let e = leg("P.Age > 1 and (P.Age < 9 or P.Age = 4) and P.Name = \"x\"");
        assert_eq!(conjuncts(&e).len(), 3);
        let single = leg("P.Age > 1 or P.Age < 9");
        assert_eq!(conjuncts(&single).len(), 1);
    }

    #[test]
    fn eq_selectivity_uses_ndv_and_null_fraction() {
        // 100 observed rows cycling through 10 cities: a genuinely
        // repeating column, so NDV is used as-is (no key extrapolation).
        let class = measured(
            100,
            "City",
            (0..100).map(|i| Value::str(&format!("c{}", i % 10))),
        );
        let est = estimate_select(class, sym("P"), Some(&leg("P.City = \"c3\""))).unwrap();
        // 100 rows / ndv≈10 ≈ 10 rows.
        assert!((5..=20).contains(&est), "est={est}");
    }

    #[test]
    fn all_distinct_samples_extrapolate_to_a_key() {
        // The sample saw 200 rows, all distinct — but the class holds
        // 100_000. A key column's equality estimate must extrapolate NDV
        // to the cardinality (est ≈ 1), not stop at the sample's ceiling
        // (est ≈ 500), or the drift canary would evict every key probe.
        let class = measured(
            100_000,
            "Name",
            (0..200).map(|i| Value::str(&format!("p{i}"))),
        );
        let est = estimate_select(class, sym("P"), Some(&leg("P.Name = \"p7\""))).unwrap();
        assert!(est <= 5, "est={est}");
    }

    #[test]
    fn range_selectivity_uses_min_max() {
        let class = measured(1000, "Age", (0..100).map(Value::Int));
        let est = estimate_select(class, sym("P"), Some(&leg("P.Age >= 90"))).unwrap();
        assert!((50..=200).contains(&est), "est={est}");
        let half = estimate_select(class, sym("P"), Some(&leg("P.Age < 50"))).unwrap();
        assert!((300..=700).contains(&half), "half={half}");
    }

    #[test]
    fn conjunction_multiplies_and_cold_stats_are_none() {
        let class = measured(1000, "Age", (0..100).map(Value::Int));
        let both =
            estimate_select(class, sym("P"), Some(&leg("P.Age >= 90 and P.Age >= 90"))).unwrap();
        assert!(both < 50, "both={both}");
        assert_eq!(
            estimate_select(sym("NoSuchClassEver"), sym("P"), None),
            None
        );
    }

    #[test]
    fn low_ndv_vetoes_the_index_and_unknown_allows_it() {
        let class = measured(
            100,
            "Sex",
            (0..100).map(|i| Value::str(if i % 2 == 0 { "m" } else { "f" })),
        );
        assert!(!index_worthwhile(class, sym("Sex")));
        assert!(index_worthwhile(class, sym("NeverObserved")));
        let unique = measured(100, "Name", (0..100).map(|i| Value::str(&format!("p{i}"))));
        assert!(index_worthwhile(unique, sym("Name")));
    }

    #[test]
    fn mentioned_vars_classifies_legs() {
        let vars = [sym("P"), sym("Q")];
        assert_eq!(mentioned_vars(&leg("P.Age > 5"), &vars), Some(vec![0]));
        assert_eq!(
            mentioned_vars(&leg("P.Age > Q.Age"), &vars),
            Some(vec![0, 1])
        );
        assert_eq!(mentioned_vars(&leg("1 = 1"), &vars), Some(vec![]));
        assert_eq!(
            mentioned_vars(&leg("maggy.Age > 5"), &vars),
            None,
            "free name"
        );
        assert_eq!(
            mentioned_vars(&leg("exists(select R from R in Person)"), &vars),
            None,
            "nested select"
        );
    }

    #[test]
    fn with_planner_scopes_to_the_thread() {
        let default = planner_enabled();
        with_planner(!default, || assert_eq!(planner_enabled(), !default));
        assert_eq!(planner_enabled(), default);
    }

    #[test]
    fn drift_corrects_the_estimate_in_place() {
        let fp_expr = leg("select P from P in PlannerDriftClass where P.Age = 1");
        // Manufacture a cached plan with a wild estimate, then observe.
        let fp = fingerprint_hash(&fp_expr);
        cache_store(
            fp,
            CachedPlan {
                strategy: CachedStrategy::Seq,
                est_rows: 1000,
                generation: 0,
            },
        );
        let est = || {
            cache()
                .get(&fp)
                .and_then(|e| e.plan.as_ref())
                .map(|c| c.est_rows)
        };
        observe_actual(fp, 150); // within 10x: left alone
        assert_eq!(est(), Some(1000));
        observe_actual(fp, 1); // 1000x off: the plan stays, the estimate learns
        assert_eq!(est(), Some(1));
        observe_actual(fp, 1);
        assert_eq!(est(), Some(1));
    }

    #[test]
    fn cache_hit_rebinds_the_pushdown_literal() {
        // Fingerprints normalize literals, so `Age = 6` and `Age = 21`
        // share one cache entry; the served plan must probe the *current*
        // query's literal, not the one that planned first.
        let db = ov_oodb::Database::new(sym("PlannerRebind"));
        for lit in [6, 21] {
            let expr = parse_expr(&format!(
                "select P from P in PlannerRebindClass where P.Age = {lit}"
            ))
            .unwrap();
            let Expr::Select(q) = &expr else {
                unreachable!()
            };
            let d = plan_select(&db, &expr, q);
            if lit == 6 {
                // Seed the shared entry with a pushdown plan.
                cache_store(
                    fingerprint_hash(&expr),
                    CachedPlan {
                        strategy: CachedStrategy::IndexPushdown {
                            class: sym("PlannerRebindClass"),
                            attr: sym("Age"),
                        },
                        est_rows: d.est_rows,
                        generation: db.resolution_generation(),
                    },
                );
            } else {
                assert!(d.cache_hit, "second literal should hit the shared entry");
                assert_eq!(
                    d.strategy,
                    Strategy::IndexPushdown {
                        class: sym("PlannerRebindClass"),
                        attr: sym("Age"),
                        value: Value::Int(21)
                    },
                    "probe value must come from the current query"
                );
            }
        }
    }
}
