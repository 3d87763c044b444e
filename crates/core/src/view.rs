//! Bound views.
//!
//! A [`View`] is a [`crate::ViewDef`] bound against a
//! [`ov_oodb::System`]: imports are resolved (the view gets its own schema
//! — "a view has a schema, like all databases, but no proper data of its
//! own", §3), virtual classes are positioned by hierarchy inference, and the
//! whole thing implements [`ov_query::DataSource`] so the standard query
//! evaluator runs against it unchanged ("A view should be treated as a
//! database", §6).
//!
//! ## Laziness and caching
//!
//! Virtual-class populations are evaluated lazily, on the read that needs
//! them, under one of two [`Materialization`] policies.
//! [`Materialization::Incremental`] (the default) caches each population
//! keyed on the versions of the source databases. When a source moves, a
//! *delta-decided* class (see `View::decide_delta`) is patched: only the
//! oids in the stores' change journals are re-tested. Any other class, or
//! a journal gap, recomputes. [`Materialization::AlwaysRecompute`] skips
//! caching entirely (the relational baseline the benchmarks compare
//! against, and the oracle the tests compare with). Nothing is pushed on a
//! write: `View::refresh` is an explicit warm-up.
//! `View::explain_population` reports which path resolved a given request.
//! The **identity tables** of imaginary classes are *not* keyed: they are
//! the system's ([`ov_oodb::IdentityStore`]), not the bound view's, so they
//! survive recomputation, updates *and rebinds*, which is precisely the
//! paper's §5.1 identity semantics ("we are guaranteed that the same tuple
//! will be assigned the same oid each time the class C is invoked").
//!
//! ## Stacking: one owner per population and per derived schema
//!
//! A view bound over upstream views (`import all classes from view V`,
//! [`Binder::over`]) copies each class an upstream declares as that view
//! bound it: position, kind, own attributes, and the upstream's hides. It
//! derives nothing of it again, so a class types the same through every
//! view of a stack, by the schema its declaring view saw. Each virtual or
//! imaginary class is populated, delta-patched and — if imaginary — given
//! oids by exactly that view too: a stacked view holds nothing for an
//! upstream's class but its schema entry and the view to ask
//! (`Populated::Upstream`). W ∘ V reads V's output; it does not re-run V's
//! body or re-derive V's hierarchy, so a k-level stack keeps k populations,
//! not k(k+1)/2, and a bind derives only the view's own classes.
//!
//! ## One row loop
//!
//! A population query of the shape `select E from V in C [where F]` is
//! bound once (`ScanInclude`: filter and projection compiled at bind) and
//! populated by one row loop, [`ov_query::scan_rows`], fed from one of
//! three candidate sources — index postings, the sequential scan, the
//! journal delta. The first two are a scan, which a view population runs
//! as a statement does: through [`ov_query::run_scan`], by the planner's
//! rule. A specialization (`E` is `V`) keeps the admitted oids; an
//! imaginary class keeps the distinct projected tuples and then maps them
//! to oids in set order, so the identity table fills exactly as if the
//! query had been run whole.
//! Only a specialization whose filter reads nothing but its own row is
//! delta-decided: an imaginary tuple may be produced by many rows, so a
//! write recomputes the class — through the same loop. Every other shape
//! runs whole, as one compiled program: no population runs in the tree
//! walker.
//!
//! ## Concurrency
//!
//! A bound view is `Send + Sync`: shared state lives behind `RwLock`s (the
//! population cache is one map, read-locked by every cache hit), counters
//! are atomics, and the two pieces of *call-stack* state — the population
//! cycle guard and the privileged-visibility depth — are the view's frame
//! in `ov_query`'s execution context ([`ov_query::ViewFrame`]), keyed by a
//! per-view token and restored on unwind like every other field of it.
//! Any number of threads may query one view concurrently; each scan runs
//! on the thread that reads, from start to end.
//!
//! A view's own errors cross the `DataSource` boundary typed
//! ([`ov_query::QueryError::Source`]) and come back out of every public
//! read as the [`ViewError`] they were raised as.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use ov_oodb::event::Event;
use ov_oodb::{
    resolve, AttrDef, AttrSig, ClassGraph, ClassId, ConflictPolicy, DbHandle, DurableCore, Expr,
    IdentityStore, Oid, OodbError, Schema, SelectExpr, Symbol, System, Tuple, Type, Value,
};
use ov_query::{
    infer_select_in, plan, resolve_type, DataSource, IncludeSpec, PlanStrategy, QueryError,
    ResolvedAttr, RowTest, SelectScan, TypeEnv,
};

use crate::def::{AttrDecl, Hide, Import, ViewDef, ViewElement};
use crate::error::{Result, ViewError};
use crate::graph::DepEdge;
use crate::infer::{conforms_to, infer_position, upward_attrs};

mod bind;
mod degrade;
mod identity;
pub use bind::Binder;

/// Source of per-view tokens. A monotonically increasing counter (never an
/// address, which could be reused) keys the view's evaluation frame.
static NEXT_VIEW_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Times [`View::try_incremental`] starts over because another thread
/// advanced the cached entry between its retests and its patch, before it
/// gives up and lets the caller recompute.
const PATCH_ROUNDS: u32 = 3;

/// How virtual-class populations are (re)computed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Materialization {
    /// Cache each population and follow its sources: on the first read
    /// after a source changed, a delta-decided class re-tests only the
    /// oids in the stores' change journals; any other class, or a journal
    /// gap, recomputes. This is our answer to the paper's closing remark
    /// that materialized views "acquire a new dimension in the context of
    /// objects" (§6).
    #[default]
    Incremental,
    /// Recompute on every access (the relational-view baseline; used by the
    /// benchmarks to quantify what caching buys, and by the tests as the
    /// oracle a cached population must equal).
    AlwaysRecompute,
}

/// How imaginary objects receive oids (§5.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IdentityMode {
    /// The paper's semantics: a persistent table maps each core tuple to an
    /// oid, so identity is stable across invocations and updates.
    #[default]
    Table,
    /// The naive semantics the paper warns about: fresh oids on every
    /// recomputation ("the result is implementation dependent, and we may
    /// obtain an empty set"). Kept as an executable baseline.
    Fresh,
}

/// How an imported class relates to its source.
#[derive(Clone, Debug)]
enum ClassKind {
    Imported { source: usize, orig: ClassId },
    Virtual,
    Imaginary { core: Vec<Symbol> },
}

/// One include of a virtual class, bound — decided once, in
/// [`View::define_virtual_class`], and read by every population path.
#[derive(Debug)]
enum Include {
    /// Wholly-included class (generalization).
    Class(ClassId),
    /// The canonical specialization `select V from V in C [where F]`:
    /// membership is a test per object, so this is the shape the row loop
    /// runs — its sink the admitted oids — and a delta maintains.
    Filter(ScanInclude),
    /// Behavioral spec — re-scanned at population time so classes defined
    /// *after* this one are admitted automatically (§4.1's flexibility
    /// argument).
    Like { spec: ClassId },
    /// Any other population query: run whole, on recompute only.
    Query(SelectExpr),
    /// Imaginary population (§5) of the canonical shape `select E from V in
    /// C [where F]`: bound like a [`Include::Filter`] and populated by the
    /// same row loop from the same candidate sources, its sink the distinct
    /// projected tuples, which then map to oids in set order
    /// ([`View::adopt_tuples`]). Still opaque to deltas: a row's tuple may
    /// be shared with other rows, so one changed row decides nothing about
    /// its tuple's membership — a write recomputes the class.
    Imaginary(ScanInclude),
    /// Any other imaginary population query: run whole.
    ImaginaryQuery(SelectExpr),
}

/// A population query of the shape `select E from V in C [where F]`, bound
/// for the row loop. See [`Include::Filter`] (`E` is `V`) and
/// [`Include::Imaginary`].
#[derive(Debug)]
struct ScanInclude {
    /// The scan of `C`, `F` and `E` compiled at bind time; a specialization
    /// projects its scan variable and so has no projection to run.
    scan: SelectScan,
    /// `C` as the query spells it.
    coll: Symbol,
    /// The constant-folded query: its filter is `F`, its projection `E`;
    /// the planner's rule reads it, and the whole of it runs when a named
    /// object shadows `coll`.
    query: SelectExpr,
}

/// What a population keeps of each row its scan admits: the row's oid for a
/// specialization, the projected value for an imaginary class.
trait Kept: Ord + Sized {
    /// What is kept of a row the loop projected.
    fn of_row(row: Value) -> Self;

    /// The answer of the whole query `q` populating class `c`, for when
    /// the row loop cannot stand for it.
    fn of_query(view: &View, c: ClassId, q: &SelectExpr) -> ov_query::Result<BTreeSet<Self>>;
}

impl Kept for Oid {
    fn of_row(row: Value) -> Oid {
        row.as_oid().expect("a specialization projects its oids")
    }

    fn of_query(view: &View, c: ClassId, q: &SelectExpr) -> ov_query::Result<BTreeSet<Oid>> {
        view.eval_query(c, q)
    }
}

impl Kept for Value {
    fn of_row(row: Value) -> Value {
        row
    }

    fn of_query(view: &View, _: ClassId, q: &SelectExpr) -> ov_query::Result<BTreeSet<Value>> {
        view.eval_whole(q)
    }
}

/// A parameterized class template (`class Adult(A) includes …`). The view
/// that declares it substitutes its includes and defines each instance; a
/// view stacked above has the instance made there and copies it.
#[derive(Clone, Debug)]
struct ParamTemplate {
    params: Vec<Symbol>,
    includes: Vec<IncludeSpec>,
    /// The upstream view that declares the template (an index into
    /// [`View::upstreams`]), which instantiates it; `None`: this view.
    upstream: Option<usize>,
}

/// Who populates a virtual or imaginary class of a view.
#[derive(Clone, Debug)]
enum Populated {
    /// The view itself, from these bound includes: it declares the class.
    Here(Arc<[Include]>),
    /// The upstream view that declares the class (an index into
    /// [`View::upstreams`]), under the class's id there; the class here
    /// is a copy of that view's.
    Upstream(usize, ClassId),
}

/// The per-(class, attribute) rules [`View::class_rule`] computed with no
/// population in flight, all under one resolution generation. A side per
/// body depth that resolves alike: depth 0, and inside a computed body,
/// where the hides are see-through.
#[derive(Debug, Default)]
struct Verdicts {
    /// The generation every entry of both sides was computed under.
    gen: u64,
    /// `[depth 0, in a body]`.
    sides: [HashMap<(ClassId, Symbol), Rule>; 2],
}

/// How objects presenting as one class resolve one attribute
/// ([`View::class_rule`]).
#[derive(Clone, Debug)]
enum Rule {
    /// The class decides: every such object resolves this way.
    Class(ResolvedAttr),
    /// Membership decides: the object's base roots, joined by those of
    /// `virtuals` whose population holds it. No roots: it is not visible.
    Membership {
        roots: Vec<ClassId>,
        virtuals: Vec<ClassId>,
    },
}

#[derive(Clone, Debug)]
struct CachedPop {
    versions: Vec<u64>,
    schema_len: usize,
    oids: Arc<BTreeSet<Oid>>,
}

/// A bound, queryable view. `Send + Sync`: any number of threads may read
/// through it concurrently (see the module docs).
#[derive(Debug)]
pub struct View {
    /// Unique token keying this view's evaluation frame.
    token: u64,
    name: Symbol,
    /// The view's own schema: copies of imported classes plus virtual
    /// classes. Grows when parameterized classes instantiate, hence the
    /// lock.
    schema: RwLock<Schema>,
    kinds: RwLock<HashMap<ClassId, ClassKind>>,
    /// Every virtual and imaginary class, with who populates it.
    virt: RwLock<HashMap<ClassId, Populated>>,
    /// The definition the view was bound from.
    def: ViewDef,
    /// The views that declare the classes this view imports from views,
    /// each once and each after the views it was bound over: the bound
    /// views this one was bound over and, through them, theirs.
    upstreams: Vec<Arc<View>>,
    sources: Vec<DbHandle>,
    /// Durability cores of durable sources (deduplicated). Imaginary
    /// identity assignments are logged here so §5.1 identity survives
    /// restarts; empty for purely in-memory sources.
    durable: Vec<Arc<DurableCore>>,
    /// Per source, the view class each source class presents as, indexed
    /// by source class id; `None` for a class that was not imported.
    import_maps: Vec<Vec<Option<ClassId>>>,
    hidden_attrs: Vec<(ClassId, Symbol)>,
    hidden_classes: HashSet<ClassId>,
    templates: HashMap<Symbol, ParamTemplate>,
    instances: RwLock<HashMap<(Symbol, Vec<Value>), ClassId>>,
    /// Population cache, keyed by class.
    pop_cache: RwLock<HashMap<ClassId, CachedPop>>,
    /// The system's identity tables ([`System::identity`]).
    identity: Arc<IdentityStore>,
    policy: ConflictPolicy,
    materialization: Materialization,
    identity_mode: IdentityMode,
    stats: StatCells,
    /// Attribute-resolution generation ([`DataSource::resolution_generation`]):
    /// from the view's token shifted 32 bits up (no view or base shares it),
    /// moved only by a template instantiation, which grows the schema and
    /// drops the warm slot caches of `ov_query::Scan` and [`View::verdicts`].
    res_gen: AtomicU64,
    /// The class verdicts of depth 0 and of computed bodies, for one
    /// resolution generation (see [`View::class_rule`]).
    verdicts: RwLock<Verdicts>,
    /// Dependency edges recorded at bind time: which databases and which
    /// upstream views this definition reads, with the class names read.
    deps: Vec<DepEdge>,
    /// The delta-decided classes ([`View::decide_delta`]), each with the
    /// imported classes its members come from.
    delta_decided: RwLock<HashMap<ClassId, Vec<ClassId>>>,
}

/// The population counters, one row each: the [`Stat`] that names the
/// counter at its bump site, its public [`ViewStats`] field, and its name in
/// the process-wide registry (`ViewStats` is the per-view picture, the
/// registry the cross-view aggregate the harness and shell report).
macro_rules! view_stats {
    ($($(#[$doc:meta])* $stat:ident, $field:ident, $metric:literal;)*) => {
        /// Observability counters for a view's population machinery
        /// (monotonic; snapshot with [`View::stats`]). Used by tests and
        /// benchmarks to assert that the intended code path — cache hit,
        /// delta update, index pushdown — actually ran.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct ViewStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        /// One counter of [`ViewStats`].
        #[derive(Clone, Copy)]
        enum Stat {
            $($stat,)*
        }

        /// Atomic storage behind [`ViewStats`]. Relaxed ordering: the
        /// counters are monotonic observability data, never synchronization.
        #[derive(Debug, Default)]
        struct StatCells {
            $($field: AtomicU64,)*
        }

        impl StatCells {
            /// Counts one `stat`, here and in the registry.
            fn bump(&self, stat: Stat) {
                match stat {
                    $(Stat::$stat => {
                        self.$field.fetch_add(1, Ordering::Relaxed);
                        ov_oodb::metric_counter!($metric).inc();
                    })*
                }
            }

            fn snapshot(&self) -> ViewStats {
                ViewStats {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

view_stats! {
    /// Population served from the version-keyed cache.
    CacheHit, cache_hits, "views.cache_hits";
    /// Population requests the cache could not serve (cold, stale, or
    /// schema-invalidated). Each miss proceeds to a delta update or a full
    /// recomputation.
    CacheMiss, cache_misses, "views.cache_misses";
    /// Population recomputed from scratch.
    Recomputation, recomputations, "views.recomputations";
    /// Population delta-updated from change journals.
    IncrementalUpdate, incremental_updates, "views.incremental_updates";
    /// Population queries answered from a secondary index.
    IndexPushdown, index_pushdowns, "views.index_pushdowns";
    /// Population requests answered from a stale cached population after
    /// recomputation failed (graceful degradation).
    StaleServe, stale_serves, "views.degraded_serves";
}

/// Tunable view behaviors. Construct with [`ViewOptions::builder`] — the
/// struct is `#[non_exhaustive]`, so it cannot be built literally outside
/// this crate and new knobs can be added compatibly.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct ViewOptions {
    /// Method-resolution conflict policy (schizophrenia handling, §4.3).
    pub policy: ConflictPolicy,
    /// Population caching policy.
    pub materialization: Materialization,
    /// Imaginary identity semantics (§5.1).
    pub identity_mode: IdentityMode,
}

impl ViewOptions {
    /// A builder starting from the default options.
    pub fn builder() -> ViewOptionsBuilder {
        ViewOptionsBuilder {
            opts: ViewOptions::default(),
        }
    }
}

/// Builder for [`ViewOptions`].
#[derive(Clone, Debug)]
pub struct ViewOptionsBuilder {
    opts: ViewOptions,
}

impl ViewOptionsBuilder {
    /// Sets the method-resolution conflict policy (§4.3).
    pub fn policy(mut self, policy: ConflictPolicy) -> Self {
        self.opts.policy = policy;
        self
    }

    /// Sets the population caching policy.
    pub fn materialization(mut self, materialization: Materialization) -> Self {
        self.opts.materialization = materialization;
        self
    }

    /// Sets the imaginary identity semantics (§5.1).
    pub fn identity_mode(mut self, mode: IdentityMode) -> Self {
        self.opts.identity_mode = mode;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> ViewOptions {
        self.opts
    }
}

impl View {
    /// The view's name.
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// The dependency edges recorded at bind time: which databases and
    /// which upstream views this definition reads, with the class names
    /// read through each edge.
    pub fn dependencies(&self) -> &[DepEdge] {
        &self.deps
    }

    /// The definition the view was bound from.
    pub fn def(&self) -> &ViewDef {
        &self.def
    }

    /// The view that declares class `c` and `c`'s id there, when that is
    /// an upstream view; `None` for a class this view declares or imports
    /// from a database. A view over no view answers without a lock: every
    /// population request asks.
    fn upstream_of(&self, c: ClassId) -> Option<(&View, ClassId)> {
        if self.upstreams.is_empty() {
            return None;
        }
        match self.virt.read().get(&c)? {
            Populated::Upstream(up, class) => Some((&self.upstreams[*up], *class)),
            Populated::Here(_) => None,
        }
    }

    /// Eagerly refreshes every virtual and imaginary population this view
    /// declares, in class creation order (dependencies before dependents
    /// within this view), and returns how many were refreshed: each is the
    /// request the next read would make — a delta retest of the
    /// journal-changed oids for a delta-decided class. The classes of an
    /// upstream view are that view's to refresh. A warm-up only; a read
    /// never needs it.
    pub fn refresh(&self) -> Result<usize> {
        let mut ids: Vec<ClassId> = self
            .virt
            .read()
            .iter()
            .filter(|(_, p)| matches!(p, Populated::Here(_)))
            .map(|(c, _)| *c)
            .collect();
        ids.sort();
        for &c in &ids {
            self.population(c)?;
        }
        Ok(ids.len())
    }

    /// A snapshot of the population-machinery counters, aggregated across
    /// all threads.
    pub fn stats(&self) -> ViewStats {
        self.stats.snapshot()
    }

    // ------------------------------------------------------------------
    // Evaluation frame (cycle guard + privileged depth)
    // ------------------------------------------------------------------

    /// This thread's body depth in this view: the frame's `body_depth`,
    /// read without building the frame. While positive, the view's own
    /// definitions see through its hides and hidden classes.
    fn depth(&self) -> u32 {
        ov_query::view_depth(self.token)
    }

    /// Runs `f`, a step of populating `c`, with `c` in flight (the cycle
    /// guard) and the view's hides see-through: population queries are
    /// view-internal definitions, like attribute bodies (paper Example 5
    /// hides the very attributes its imaginary Address class selects). The
    /// bracket closes on unwind too, so a panicking recompute leaks no
    /// privilege into later queries on this thread. It moves no generation:
    /// `c` only filters the memoised rules ([`Self::class_rule`]).
    fn in_population<R>(&self, c: ClassId, f: impl FnOnce() -> R) -> R {
        ov_query::in_view(self.token, Some(c), f)
    }

    /// The cached entry of class `name`: the source versions it is stamped
    /// with and the set itself — held, not copied, so a test can be the
    /// reader a patch must not disturb.
    #[cfg(test)]
    pub(crate) fn cached_population(&self, name: Symbol) -> Option<(Vec<u64>, Arc<BTreeSet<Oid>>)> {
        let c = self.lookup_class(name)?;
        let cache = self.pop_cache.read();
        cache.get(&c).map(|p| (p.versions.clone(), p.oids.clone()))
    }

    /// The classes this view holds population state for — a cache entry
    /// or a delta-decided flag — by name.
    #[cfg(test)]
    pub(crate) fn held_classes(&self) -> BTreeSet<Symbol> {
        let mut held: BTreeSet<ClassId> = self.delta_decided.read().keys().copied().collect();
        held.extend(self.pop_cache.read().keys());
        let schema = self.schema.read();
        held.into_iter().map(|c| schema.class(c).name).collect()
    }

    /// All class names visible in the view, sorted.
    pub fn class_names(&self) -> Vec<Symbol> {
        let schema = self.schema.read();
        let mut out: Vec<Symbol> = schema
            .classes()
            .filter(|c| !self.is_hidden_class(c.id))
            .map(|c| c.name)
            .collect();
        out.sort();
        out
    }

    /// Direct superclasses of a (visible) class, by name — exposes the
    /// inferred hierarchy for inspection and tests.
    pub fn parents_of(&self, name: Symbol) -> Result<Vec<Symbol>> {
        let schema = self.schema.read();
        let c = schema.require_class(name)?;
        Ok(schema
            .class(c)
            .parents
            .iter()
            .map(|&p| schema.class(p).name)
            .collect())
    }

    /// Is `sub` (transitively) a subclass of `sup` in the view's inferred
    /// hierarchy?
    pub fn is_subclass_by_name(&self, sub: Symbol, sup: Symbol) -> Result<bool> {
        let schema = self.schema.read();
        let s = schema.require_class(sub)?;
        let p = schema.require_class(sup)?;
        Ok(schema.is_subclass(s, p))
    }

    /// The population of a named class, in oid order (forces evaluation).
    pub fn extent_of(&self, name: Symbol) -> Result<Vec<Oid>> {
        let c = self
            .lookup_class(name)
            .ok_or(OodbError::UnknownClass(name))?;
        Ok(DataSource::extent(self, c)?)
    }

    /// Evaluates attribute `attr` of `oid` through the view.
    pub fn attr(&self, oid: Oid, attr: Symbol) -> Result<Value> {
        Ok(ov_query::eval_attr(self, oid, attr, &[])?)
    }

    /// Runs a query string against the view.
    pub fn query(&self, src: &str) -> Result<Value> {
        Ok(ov_query::run_query(self, src)?)
    }

    /// Runs a query like [`Self::query`] and additionally returns its
    /// [`ov_query::QueryTrace`]: parse / typecheck / optimize / execute
    /// timings plus, for every population request execution triggered,
    /// which path resolved it (cache hit, delta, full recompute) and how
    /// each scan ran (sequential or index pushdown).
    pub fn explain(&self, src: &str) -> Result<(Value, ov_query::QueryTrace)> {
        Ok(ov_query::run_query_traced(self, src)?)
    }

    /// Requests the population of virtual (or imaginary) class `class` and
    /// reports how the request was resolved: `CacheHit`, `Delta {
    /// retested }`, or `FullRecompute` with its scans, plus row count and
    /// wall-clock time. The population genuinely runs — the plan is a
    /// record of what happened, not a prediction.
    pub fn explain_population(&self, class: Symbol) -> Result<plan::PopulationTrace> {
        let c = self
            .lookup_class(class)
            .ok_or(OodbError::UnknownClass(class))?;
        match self.kinds.read().get(&c) {
            Some(ClassKind::Virtual) | Some(ClassKind::Imaginary { .. }) => {}
            _ => {
                return Err(ViewError::Definition(format!(
                    "`{class}` is not a virtual or imaginary class; only computed populations \
                     have plans"
                )))
            }
        }
        let (result, events) = plan::collect(|| self.population(c));
        result?;
        let name = self.schema.read().class(c).name;
        // The requested class's event completes last (nested populations of
        // other virtual classes finish before it).
        events
            .into_iter()
            .rev()
            .find(|e| e.class == name)
            .ok_or_else(|| {
                ViewError::Definition(format!("population of `{class}` emitted no trace"))
            })
    }

    /// The view's filter for the one resolution rule
    /// ([`ov_oodb::resolve`]): a definition counts unless a hide covers it
    /// — `hide attribute A in class C` hides the definitions of `A` "in
    /// class C **and all its subclasses**" (§3) — and is not an abstract
    /// signature, which counts only when `abstract_ok` (typing a virtual
    /// class, [`Self::types_abstractly`]).
    fn counts<'a>(
        &'a self,
        schema: &'a Schema,
        abstract_ok: bool,
    ) -> impl Fn(ClassId, &AttrDef) -> bool + 'a {
        // Privileged: the view's own computed-attribute bodies see through
        // hides (Example 5 hides City/Street *after* defining the Address
        // attribute over them).
        let hides: &[_] = if self.hidden_attrs.is_empty() || self.depth() > 0 {
            &[]
        } else {
            &self.hidden_attrs
        };
        move |def_in, def| {
            (abstract_ok || !def.is_abstract())
                && !hides
                    .iter()
                    .any(|&(c, a)| a == def.sig.name && schema.is_subclass(def_in, c))
        }
    }

    /// Does typing class `c` count abstract signatures? Only for a virtual
    /// class: objects are real in imported or imaginary classes, which type
    /// through the concrete definitions their objects evaluate.
    fn types_abstractly(&self, c: ClassId) -> bool {
        matches!(self.kinds.read().get(&c), Some(ClassKind::Virtual))
    }

    /// The definition of `name` for an object whose resolution starts at
    /// `roots`, read through the view's rule: its hides, its conflict
    /// policy, and body-depth privilege.
    fn definition<'s>(
        &self,
        schema: &'s Schema,
        roots: &[ClassId],
        name: Symbol,
        abstract_ok: bool,
    ) -> ov_oodb::Result<(ClassId, &'s AttrDef)> {
        let keep = self.counts(schema, abstract_ok);
        resolve::resolve_in(schema, roots, name, &keep, &self.policy)
    }

    fn is_hidden_class(&self, c: ClassId) -> bool {
        self.hidden_classes.contains(&c)
    }

    fn lookup_class(&self, name: Symbol) -> Option<ClassId> {
        let schema = self.schema.read();
        let c = schema.class_by_name(name)?;
        // View-internal definitions (attribute bodies, population queries)
        // may reference hidden classes — the relational bridge hides its
        // staging classes while its imaginary populations select from them.
        if self.is_hidden_class(c) && self.depth() == 0 {
            None
        } else {
            Some(c)
        }
    }

    // ------------------------------------------------------------------
    // Populations and identity
    // ------------------------------------------------------------------

    /// Current versions of all source databases (the population cache key).
    fn source_versions(&self) -> Vec<u64> {
        self.sources.iter().map(|h| h.read().version()).collect()
    }

    /// One attempt of [`Self::population`]: resolves the request and reports
    /// which of the three paths did it — a recompute with no scans, which
    /// the close attaches.
    fn population_inner(
        &self,
        c: ClassId,
    ) -> ov_query::Result<(Arc<BTreeSet<Oid>>, plan::PopPath)> {
        let versions = self.source_versions();
        let schema_len = self.schema.read().len();
        if self.materialization == Materialization::Incremental {
            if let Some(cached) = self.pop_cache.read().get(&c) {
                if cached.versions == versions && cached.schema_len == schema_len {
                    return Ok((cached.oids.clone(), plan::PopPath::CacheHit));
                }
            }
            self.stats.bump(Stat::CacheMiss);
            if let Some((oids, retested)) = self.try_incremental(c, &versions, schema_len)? {
                return Ok((oids, plan::PopPath::Delta { retested }));
            }
        }
        self.stats.bump(Stat::Recomputation);
        let oids = Arc::new(self.in_population(c, || self.compute_population(c))?);
        self.store_pop(c, versions, schema_len, oids.clone());
        Ok((oids, plan::PopPath::FullRecompute { scans: Vec::new() }))
    }

    /// The bound includes of virtual class `c`, which this view declares
    /// (a pointer clone).
    fn includes_of(&self, c: ClassId) -> Arc<[Include]> {
        match self.virt.read().get(&c) {
            Some(Populated::Here(includes)) => includes.clone(),
            _ => unreachable!("includes requested for a class this view does not declare"),
        }
    }

    fn store_pop(
        &self,
        c: ClassId,
        versions: Vec<u64>,
        schema_len: usize,
        oids: Arc<BTreeSet<Oid>>,
    ) {
        self.pop_cache.write().insert(
            c,
            CachedPop {
                versions,
                schema_len,
                oids,
            },
        );
    }

    /// Attempts a delta update of `c`'s cached population, patching the
    /// cached set in place. Returns the patched population together with
    /// how many changed oids were re-tested, or `Ok(None)` when a full
    /// recompute is required (no cache, journal gap, schema change, a class
    /// that is not delta-decided, or [`PATCH_ROUNDS`] lost races).
    ///
    /// The order is retest, then lock, then patch. Retests run with no lock
    /// held (population is re-entrant), so an error in any of them leaves
    /// the entry — set *and* versions — exactly as it was, which is what
    /// [`Self::degrade`] then serves. The verdicts are applied under the
    /// cache's write lock only if the entry still carries the versions the
    /// journal was read against; an entry another thread advanced means
    /// the delta is against a state the set no longer has, so the round
    /// starts over from the new entry. `Arc::make_mut` patches the set
    /// itself when the cache holds the only reference — O(|delta| · log n)
    /// — and copies it once when a reader still holds the old one, so a
    /// caller that has a population never sees it change.
    ///
    /// The entry is stamped with `versions`, read by the caller before any
    /// retest: a write that lands after that read is retested again next
    /// time. Retesting an oid is idempotent, so a stamp older than the
    /// state the set reflects costs work, never correctness.
    fn try_incremental(
        &self,
        c: ClassId,
        versions: &[u64],
        schema_len: usize,
    ) -> ov_query::Result<Option<(Arc<BTreeSet<Oid>>, usize)>> {
        if !self.delta_decided.read().contains_key(&c) {
            return Ok(None);
        }
        let includes = self.includes_of(c);
        for _ in 0..PATCH_ROUNDS {
            let base = match self.pop_cache.read().get(&c) {
                Some(entry) if entry.schema_len == schema_len => entry.versions.clone(),
                _ => return Ok(None),
            };
            // Collect the changed oids from every source's journal.
            let mut changed: BTreeSet<Oid> = BTreeSet::new();
            for (idx, handle) in self.sources.iter().enumerate() {
                match handle.read().store.changes_since(base[idx]) {
                    Some(oids) => changed.extend(oids),
                    None => {
                        // Journal gap: the store trimmed past our cached
                        // version, so the delta is unrecoverable.
                        ov_oodb::metric_counter!("views.journal_gap_fallbacks").inc();
                        return Ok(None);
                    }
                }
            }
            // Re-test membership only for the changed oids, with the same
            // privileged visibility and cycle guards as a full computation.
            // An empty delta (another source of a multi-source view moved)
            // only restamps the entry.
            let admitted = if changed.is_empty() {
                BTreeSet::new()
            } else {
                self.in_population(c, || self.delta_admits(&includes, &changed))?
            };
            let mut cache = self.pop_cache.write();
            let Some(entry) = cache.get_mut(&c) else {
                return Ok(None);
            };
            if entry.versions != base || entry.schema_len != schema_len {
                continue;
            }
            if !changed.is_empty() {
                // Resolved on every patch, so the counter is listed (at 0)
                // as soon as one delta ran, not only after the first copy.
                let copies = ov_oodb::metric_counter!("views.delta_copies");
                let held = Arc::as_ptr(&entry.oids);
                let set = Arc::make_mut(&mut entry.oids);
                if !std::ptr::eq(held, set) {
                    copies.inc();
                }
                for oid in &changed {
                    if admitted.contains(oid) {
                        set.insert(*oid);
                    } else {
                        set.remove(oid);
                    }
                }
            }
            entry.versions.copy_from_slice(versions);
            return Ok(Some((entry.oids.clone(), changed.len())));
        }
        Ok(None)
    }

    /// The `changed` oids some include admits right now. The journal delta
    /// as a candidate source: per include, the changed oids no earlier
    /// include admitted that are members of its class go through the row
    /// loop, charged by [`ov_query::rowtest`]'s rule. There is no access
    /// path to choose among them, and the retest is no scan EXPLAIN reports.
    fn delta_admits(
        &self,
        includes: &[Include],
        changed: &BTreeSet<Oid>,
    ) -> ov_query::Result<BTreeSet<Oid>> {
        // A deleted base object is a member of nothing.
        let live: Vec<Oid> = changed
            .iter()
            .copied()
            .filter(|&oid| DataSource::object_exists(self, oid))
            .collect();
        let mut admitted = BTreeSet::new();
        for inc in includes {
            let (class, filter) = match inc {
                Include::Class(class) => (*class, None),
                Include::Filter(f) => (f.scan.class, Some(&f.scan)),
                _ => unreachable!("a delta-decided class has no other include"),
            };
            let mut candidates = Vec::new();
            for &oid in &live {
                if !admitted.contains(&oid) && DataSource::is_member(self, oid, class)? {
                    candidates.push(oid);
                }
            }
            match filter {
                Some(scan) if !candidates.is_empty() => {
                    let mut test = RowTest::new(self, scan.row_spec());
                    let rows = candidates.into_iter().map(Value::Oid);
                    let mut unreported = plan::ScanActuals::default();
                    ov_query::scan_rows(rows, &mut test, &mut unreported, |row| {
                        admitted.insert(Oid::of_row(row))
                    })?
                }
                _ => admitted.extend(candidates),
            }
        }
        Ok(admitted)
    }

    /// Decides once whether a journal delta decides virtual class `c`, and
    /// if so records it in [`View::delta_decided`]. Run when the view's
    /// definitions are complete: at the end of bind, and for each template
    /// instance as it is defined.
    ///
    /// DECISION: a delta patches a population only when one changed object
    /// decides its own membership and nothing else's. That holds when each
    /// include is a whole class, or a canonical `select V from V in C
    /// where F`, over a `C` that is imported or itself delta-decided, and
    /// `F` reads only stored attributes of `V` ([`ov_query::Program::row_attrs`],
    /// each with the class verdict `Stored` for every imported class whose
    /// objects can be in `C`). A free name (a named object, a class
    /// extent), a sub-select, an aggregate, `in`, `isa`, an application, a
    /// path tail or a computed attribute can read objects the journal does
    /// not name, so a class with one recomputes when a source moves. The
    /// verdicts are taken inside `c`'s population bracket, as the retest
    /// sees them; a nested population excludes more virtual classes, which
    /// can only keep a verdict `Stored`.
    fn decide_delta(&self, c: ClassId) {
        let includes = self.includes_of(c);
        let stored = |d, a| matches!(self.class_rule(d, a), Ok(Rule::Class(ResolvedAttr::Stored)));
        let members = self.in_population(c, || {
            let mut members = Vec::new();
            for inc in includes.iter() {
                let (class, filter) = match inc {
                    Include::Class(class) => (*class, None),
                    Include::Filter(f) => (f.scan.class, f.scan.filter.as_ref()),
                    _ => return None,
                };
                let attrs = match filter {
                    Some(program) => program.row_attrs()?,
                    None => Vec::new(),
                };
                let from = self.member_classes(class)?;
                if !from.iter().all(|&d| attrs.iter().all(|&a| stored(d, a))) {
                    return None;
                }
                members.extend(from);
            }
            Some(members)
        });
        if let Some(members) = members {
            self.delta_decided.write().insert(c, members);
        }
    }

    /// The imported classes whose objects can be members of `class`: an
    /// imported class and its imported subclasses, or what a delta-decided
    /// class's includes draw from — as the declaring view decides it, for
    /// a class of an upstream view. `None` for any other class.
    fn member_classes(&self, class: ClassId) -> Option<Vec<ClassId>> {
        if let Some((up, theirs)) = self.upstream_of(class) {
            // The upstream imported the same classes under the same names.
            let names: Vec<Symbol> = {
                let from = up.member_classes(theirs)?;
                let schema = up.schema.read();
                from.iter().map(|&d| schema.class(d).name).collect()
            };
            let schema = self.schema.read();
            return names.iter().map(|&n| schema.class_by_name(n)).collect();
        }
        let kinds = self.kinds.read();
        match kinds.get(&class)? {
            ClassKind::Imported { .. } => {
                let schema = self.schema.read();
                let below = std::iter::once(class).chain(schema.strict_descendants(class));
                Some(
                    below
                        .filter(|d| matches!(kinds.get(d), Some(ClassKind::Imported { .. })))
                        .collect(),
                )
            }
            ClassKind::Virtual => self.delta_decided.read().get(&class).cloned(),
            ClassKind::Imaginary { .. } => None,
        }
    }

    fn compute_population(&self, c: ClassId) -> ov_query::Result<BTreeSet<Oid>> {
        // Failpoint: lets the chaos harness fail (or delay, or panic) a
        // recompute as a whole, exercising the stale-serve and degraded
        // paths.
        if ov_oodb::faults::enabled() {
            ov_oodb::faults::hit("view.population_recompute").map_err(OodbError::Fault)?;
        }
        let mut out = BTreeSet::new();
        for inc in self.includes_of(c).iter() {
            match inc {
                Include::Class(ci) => out.extend(DataSource::extent(self, *ci)?),
                Include::Filter(f) => out.append(&mut self.scan_filter(c, f)?),
                Include::Query(q) => out.append(&mut self.eval_query(c, q)?),
                Include::Like { spec } => {
                    // Re-scan: classes defined after this one are admitted
                    // automatically.
                    let populating = ov_query::view_frame(self.token).populating;
                    let matches: Vec<ClassId> = {
                        let schema = self.schema.read();
                        schema
                            .classes()
                            .filter(|cl| {
                                cl.id != c
                                    && !self.is_hidden_class(cl.id)
                                    && !populating.contains(&cl.id)
                                    && conforms_to(&schema, cl.id, *spec)
                            })
                            .map(|cl| cl.id)
                            .collect()
                    };
                    for m in matches {
                        out.extend(DataSource::extent(self, m)?);
                    }
                }
                Include::Imaginary(f) => {
                    out.append(&mut self.adopt_tuples(c, self.scan_filter(c, f)?)?)
                }
                Include::ImaginaryQuery(q) => {
                    out.append(&mut self.adopt_tuples(c, self.eval_whole(q)?)?)
                }
            }
        }
        Ok(out)
    }

    /// Populates a canonical include — a specialization's oids or an
    /// imaginary class's distinct tuples — through the one scan driver a
    /// statement runs too, [`ov_query::run_scan`], by the planner's rule:
    /// one guard, then index postings or the sequential scan. What is the
    /// view's own is around the call: the `view.scan` span and its counter.
    fn scan_filter<K: Kept>(&self, c: ClassId, inc: &ScanInclude) -> ov_query::Result<BTreeSet<K>> {
        // The guard: the row loop scans `class`, which is what the query
        // means only while no named object shadows the collection name
        // (`resolve_name` order; objects can be named after bind).
        if DataSource::named_object(self, inc.coll).is_some() {
            return K::of_query(self, c, &inc.query);
        }
        // The rule, asked directly: a population is not a statement, so
        // it keeps no plan (`choose_scan` is what a statement's plan
        // caches).
        let decision =
            ov_query::planner_enabled().then(|| ov_query::planner::choose_scan(&inc.query));
        let mut span = ov_oodb::span!("view.scan");
        let mut out = BTreeSet::new();
        let (path, r) = ov_query::run_scan(self, &inc.scan, decision.as_ref(), |row| {
            out.insert(K::of_row(row))
        });
        let kind = match path {
            PlanStrategy::IndexPushdown { .. } => {
                self.stats.bump(Stat::IndexPushdown);
                "index"
            }
            _ => "seq",
        };
        span.field("kind", kind);
        r.map(|()| out)
    }

    /// The answer of a query the row loop does not cover — another shape,
    /// or a shadowed collection name — run whole as one compiled program,
    /// as one sequential scan with no decision behind it.
    fn eval_whole(&self, q: &SelectExpr) -> ov_query::Result<BTreeSet<Value>> {
        let mut span = ov_oodb::span!("view.scan");
        span.field("kind", "seq");
        match plan::measure_scan(&PlanStrategy::Seq, None, |_| ov_query::run_select(self, q))? {
            Value::Set(items) => Ok(items),
            _ => unreachable!("select returns a set"),
        }
    }

    /// Populates a specialization from [`Self::eval_whole`]: its answer
    /// must be objects.
    fn eval_query(&self, c: ClassId, q: &SelectExpr) -> ov_query::Result<BTreeSet<Oid>> {
        let mut out = BTreeSet::new();
        for item in self.eval_whole(q)? {
            match item {
                Value::Oid(o) => {
                    out.insert(o);
                }
                Value::Null => {}
                other => {
                    let name = self.schema.read().class(c).name;
                    return Err(ViewError::NonObjectPopulation {
                        class: name,
                        found: other.kind().to_string(),
                    }
                    .into());
                }
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Object-level plumbing
    // ------------------------------------------------------------------

    /// The virtual classes passing `keep`, in `ClassId` (definition) order
    /// so the outcome never depends on hash-map order.
    fn virtuals_where(&self, keep: impl Fn(&Schema, ClassId) -> bool) -> Vec<ClassId> {
        let virt = self.virt.read();
        let schema = self.schema.read();
        let mut out: Vec<ClassId> = virt.keys().copied().filter(|&v| keep(&schema, v)).collect();
        out.sort_unstable();
        out
    }

    /// `virtuals` without the classes in flight on this thread (the cycle
    /// guard) and their subclasses, whose populations would retest against
    /// the guard's "not a member" and cache it. Nothing is lost: an object
    /// one holds got there through the classes its definition reads.
    fn drop_in_flight(&self, mut virtuals: Vec<ClassId>) -> Vec<ClassId> {
        let populating = ov_query::view_frame(self.token).populating;
        let schema = self.schema.read();
        virtuals.retain(|&v| !populating.iter().any(|&p| schema.is_subclass(v, p)));
        virtuals
    }

    /// Reads imaginary object `oid` — its class, as this view names it, and
    /// its core — from the system's identity tables. It is an object here
    /// when the view that declares its class is this one or an upstream.
    /// Base stores allocate strictly below
    /// [`ov_oodb::ids::IMAGINARY_OID_BASE`] and views strictly at or above
    /// it, so a base oid — every row of an ordinary scan — skips the table
    /// lock and the hash probe.
    fn imaginary_object<R>(&self, oid: Oid, read: impl FnOnce(ClassId, &Tuple) -> R) -> Option<R> {
        if !oid.is_imaginary() {
            return None;
        }
        self.identity
            .object(oid, |im| {
                let owner =
                    im.view == self.name || self.upstreams.iter().any(|u| u.name == im.view);
                let class = owner.then(|| self.schema.read().class_by_name(im.class))??;
                Some(read(class, &im.core))
            })
            .flatten()
    }

    /// The view class that class `class` of source `source` was imported as.
    fn imported_class(&self, source: usize, class: ClassId) -> Option<ClassId> {
        *self.import_maps[source].get(class.0 as usize)?
    }

    /// The view class an object presents as: its imaginary class, or its
    /// real class mapped through the imports. Errors if the class was not
    /// imported.
    fn view_class_of(&self, oid: Oid) -> ov_query::Result<ClassId> {
        if let Some(class) = self.imaginary_object(oid, |class, _| class) {
            return Ok(class);
        }
        for (idx, handle) in self.sources.iter().enumerate() {
            let db = handle.read();
            if let Some(obj) = db.store.get(oid) {
                return self
                    .imported_class(idx, obj.class)
                    .ok_or_else(|| ViewError::NotVisible(oid).into());
            }
        }
        Err(QueryError::from(OodbError::UnknownObject(oid)))
    }

    /// The nearest visible ancestors of hidden class `class`: what its
    /// objects present as. Empty when every ancestor is hidden too.
    fn nearest_visible_ancestors(&self, schema: &Schema, class: ClassId) -> Vec<ClassId> {
        let mut visible = schema.ancestors(class);
        visible.retain(|&a| !self.is_hidden_class(a));
        schema.minimal(&visible)
    }

    /// The classes resolution starts from for an object presenting as
    /// `class`, before virtual memberships: `class` itself, or — outside
    /// the view's own definitions — its nearest visible ancestors when it
    /// is hidden. Empty: the object is not visible at all.
    fn base_roots(&self, class: ClassId) -> Vec<ClassId> {
        if self.is_hidden_class(class) && self.depth() == 0 {
            self.nearest_visible_ancestors(&self.schema.read(), class)
        } else {
            vec![class]
        }
    }

    /// The virtual classes whose population decides how `attr` resolves for an
    /// object with base roots `roots` (`None`: every attribute), in definition
    /// order, by the schema alone (the caller drops what is in flight). Classes
    /// that cannot contribute a definition of `attr` the base chain does not
    /// already reach are out: membership only matters to resolution when some
    /// ancestor actually provides one, and skipping the rest avoids both wasted
    /// work and spurious population cycles. So, for base roots, are the classes
    /// only imaginary objects can belong to — an imaginary class and the
    /// classes positioned below one: a base object is never a member of them.
    /// None for no roots: such an object is not visible, whatever it is a
    /// member of.
    fn relevant_virtuals(&self, roots: &[ClassId], attr: Option<Symbol>) -> Vec<ClassId> {
        if roots.is_empty() {
            return Vec::new();
        }
        let imaginary: Vec<ClassId> = {
            let kinds = self.kinds.read();
            let base = roots
                .iter()
                .all(|r| matches!(kinds.get(r), Some(ClassKind::Imported { .. })));
            kinds
                .iter()
                .filter(|(_, k)| base && matches!(k, ClassKind::Imaginary { .. }))
                .map(|(&c, _)| c)
                .collect()
        };
        let base_defs = match attr {
            None => Vec::new(),
            Some(_) => self.schema.read().ancestors_of(roots),
        };
        self.virtuals_where(|schema, v| {
            if roots.contains(&v) {
                return false;
            }
            let above = schema.ancestors(v);
            !above.iter().any(|a| imaginary.contains(a))
                && match attr {
                    None => true,
                    Some(attr) => above.iter().any(|&a| {
                        base_defs.binary_search(&a).is_err()
                            && schema
                                .class(a)
                                .own_attr(attr)
                                .is_some_and(|d| !d.is_abstract())
                    }),
                }
        })
    }

    /// All classes from which attribute resolution may start for `oid`:
    /// its presented class (or nearest visible ancestors if that class is
    /// hidden) plus every virtual class (overlapping classes, §4.2)
    /// relevant to `relevant_to` whose population contains it.
    pub(crate) fn membership_roots(
        &self,
        oid: Oid,
        relevant_to: Option<Symbol>,
    ) -> ov_query::Result<Vec<ClassId>> {
        let roots = self.base_roots(self.view_class_of(oid)?);
        let virtuals = self.drop_in_flight(self.relevant_virtuals(&roots, relevant_to));
        self.joined(oid, roots, virtuals)
    }

    /// `roots` joined by each of `virtuals` whose population holds `oid`,
    /// sorted; no roots is [`ViewError::NotVisible`].
    fn joined(
        &self,
        oid: Oid,
        mut roots: Vec<ClassId>,
        virtuals: Vec<ClassId>,
    ) -> ov_query::Result<Vec<ClassId>> {
        if roots.is_empty() {
            return Err(ViewError::NotVisible(oid).into());
        }
        for v in virtuals {
            if self.population(v)?.contains(&oid) {
                roots.push(v);
            }
        }
        roots.sort();
        roots.dedup();
        Ok(roots)
    }

    /// How objects presenting as `class` (the raw class
    /// [`DataSource::resolution_class_and_field`] keys on) resolve `name`,
    /// by the one rule: their base roots, the relevant virtual classes,
    /// then [`Self::definition`]. With no relevant virtual class the class
    /// decides, and that [`Rule::Class`] is the view's verdict for both
    /// engines ([`DataSource::resolve`] asks here first, a compiled scan
    /// through [`DataSource::class_verdict`]).
    ///
    /// The rule with no population in flight is memoised in
    /// [`View::verdicts`] for its generation, on the side of its body depth
    /// (0, or inside a body: hides see-through); errors are not. A bracket
    /// open on this thread only filters a membership rule's virtual classes
    /// ([`Self::drop_in_flight`]): with none left, the class decides.
    fn class_rule(&self, class: ClassId, name: Symbol) -> ov_query::Result<Rule> {
        let side = usize::from(self.depth() > 0);
        // Read before the rule is computed: a rule computed across a bump
        // is stamped with the generation it may not match.
        let gen = self.res_gen.load(Ordering::Acquire);
        let key = (class, name);
        let memo = self.verdicts.read();
        let hit = memo.sides[side].get(&key).filter(|_| memo.gen == gen);
        if let Some(Rule::Class(res)) = hit {
            return Ok(Rule::Class(res.clone()));
        }
        let hit = hit.cloned();
        drop(memo);
        let rule = match hit {
            Some(rule) => rule,
            None => {
                let roots = self.base_roots(class);
                let virtuals = self.relevant_virtuals(&roots, Some(name));
                let rule = self.settle(name, Rule::Membership { roots, virtuals })?;
                let mut memo = self.verdicts.write();
                if gen > memo.gen {
                    memo.sides.iter_mut().for_each(HashMap::clear);
                    memo.gen = gen;
                }
                if gen == memo.gen {
                    memo.sides[side].insert(key, rule.clone());
                }
                rule
            }
        };
        let Rule::Membership { roots, virtuals } = rule else {
            return Ok(rule);
        };
        let virtuals = self.drop_in_flight(virtuals);
        self.settle(name, Rule::Membership { roots, virtuals })
    }

    /// `rule`, or, for a membership rule with roots and no virtual class,
    /// the class's verdict by [`Self::definition`].
    fn settle(&self, name: Symbol, rule: Rule) -> ov_query::Result<Rule> {
        match rule {
            Rule::Membership { roots, virtuals } if !roots.is_empty() && virtuals.is_empty() => {
                let schema = self.schema.read();
                let def = self.definition(&schema, &roots, name, false)?.1;
                Ok(Rule::Class(def.into()))
            }
            rule => Ok(rule),
        }
    }

    /// How many class verdicts [`Self::class_rule`] would serve from its
    /// memo right now, per side: (body depth 0, inside a computed body).
    #[cfg(test)]
    pub(crate) fn served_verdicts(&self) -> (usize, usize) {
        let memo = self.verdicts.read();
        let count = |s: &HashMap<_, _>| s.values().filter(|r| matches!(r, Rule::Class(_))).count();
        if memo.gen == self.res_gen.load(Ordering::Acquire) {
            (count(&memo.sides[0]), count(&memo.sides[1]))
        } else {
            (0, 0)
        }
    }

    // ------------------------------------------------------------------
    // Updates through the view
    // ------------------------------------------------------------------

    /// Creates an object through the view. Rejected for virtual and
    /// imaginary classes ("it is not possible for a user to insert an
    /// object directly into a virtual class", §4.1); imported classes
    /// delegate to their source database.
    pub fn insert(&self, class: Symbol, value: Value) -> Result<Oid> {
        let c = self
            .lookup_class(class)
            .ok_or(OodbError::UnknownClass(class))?;
        let kind = self.kinds.read().get(&c).cloned();
        match kind {
            Some(ClassKind::Imported { source, orig }) => {
                let mut db = self.sources[source].write();
                Ok(db.create_object(orig, value)?)
            }
            Some(ClassKind::Virtual) | Some(ClassKind::Imaginary { .. }) => {
                Err(ViewError::VirtualInsert(class))
            }
            None => Err(OodbError::UnknownClass(class).into()),
        }
    }

    /// Updates a stored attribute through the view. Hidden attributes are
    /// not assignable; imaginary objects' core attributes are immutable
    /// (§5.1).
    pub fn update_attr(&self, oid: Oid, attr: Symbol, value: Value) -> Result<()> {
        if let Some(class) = self.imaginary_object(oid, |class, _| class) {
            let class = self.schema.read().class(class).name;
            return Err(ViewError::CoreAttrUpdate { class, attr });
        }
        let view_class = self.view_class_of(oid).map_err(ViewError::from)?;
        let schema = self.schema.read();
        let class = schema.class(view_class).name;
        match self.definition(&schema, &[view_class], attr, false) {
            // A computed definition shadows any stored base attribute of
            // the same name; forwarding the write would store a base value
            // the view never reads back.
            Ok((_, def)) if !def.is_stored() => {
                return Err(ViewError::ComputedAttrUpdate { class, attr })
            }
            Ok(_) => {}
            // No definition counts here — but the write still reaches the
            // base store below, so a hide must still block it. Any hide
            // whose root is related to `view_class` suppresses the name
            // along this object's resolution chain (§3: a hide in C covers
            // C and all its subclasses).
            Err(OodbError::UnknownAttr { .. })
                if self.depth() == 0
                    && self.hidden_attrs.iter().any(|&(c, a)| {
                        a == attr
                            && (schema.is_subclass(view_class, c)
                                || schema.is_subclass(c, view_class))
                    }) =>
            {
                return Err(ViewError::HiddenAttr { class, attr })
            }
            // Unknown here: the base store below says so.
            Err(OodbError::UnknownAttr { .. }) => {}
            Err(e) => return Err(e.into()),
        }
        drop(schema);
        for handle in &self.sources {
            let mut db = handle.write();
            if db.store.get(oid).is_some() {
                return Ok(db.set_attr(oid, attr, value)?);
            }
        }
        Err(OodbError::UnknownObject(oid).into())
    }

    /// Deletes a base object through the view. Identity-table entries whose
    /// core tuple references the deleted oid are swept immediately — in
    /// this view and in every upstream view it reads, each the owner of
    /// its own tables: under [`IdentityMode::Table`] a stale entry would
    /// otherwise resurrect its imaginary oid from a dead tuple if an equal
    /// tuple ever reappeared.
    pub fn delete(&self, oid: Oid) -> Result<()> {
        if let Some(class) = self.imaginary_object(oid, |class, _| class) {
            let class = self.schema.read().class(class).name;
            return Err(ViewError::ImaginaryUpdate(class));
        }
        for handle in &self.sources {
            let mut db = handle.write();
            if db.store.get(oid).is_some() {
                db.delete_object(oid)?;
                drop(db);
                self.purge_dead_identity(oid);
                for up in &self.upstreams {
                    up.purge_dead_identity(oid);
                }
                return Ok(());
            }
        }
        Err(OodbError::UnknownObject(oid).into())
    }
}
// ----------------------------------------------------------------------
// DataSource: the view *is* a database to the query layer.
// ----------------------------------------------------------------------

impl ClassGraph for View {
    fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.schema.read().is_subclass(sub, sup)
    }

    fn ancestors(&self, c: ClassId) -> Vec<ClassId> {
        self.schema.read().ancestors(c)
    }

    fn class_name(&self, c: ClassId) -> Symbol {
        self.schema.read().class(c).name
    }
}

impl DataSource for View {
    fn class_by_name(&self, name: Symbol) -> Option<ClassId> {
        self.lookup_class(name)
    }

    fn class_of(&self, oid: Oid) -> ov_query::Result<ClassId> {
        let c = self.view_class_of(oid)?;
        if self.is_hidden_class(c) {
            // Present the object under its nearest visible ancestor.
            self.nearest_visible_ancestors(&self.schema.read(), c)
                .first()
                .copied()
                .ok_or_else(|| ViewError::NotVisible(oid).into())
        } else {
            Ok(c)
        }
    }

    fn extent(&self, class: ClassId) -> ov_query::Result<Vec<Oid>> {
        let kind = self.kinds.read().get(&class).cloned();
        match kind {
            Some(ClassKind::Virtual) | Some(ClassKind::Imaginary { .. }) => {
                Ok(self.population(class)?.iter().copied().collect())
            }
            Some(ClassKind::Imported { .. }) | None => {
                // Union of the source extents of all imported descendants.
                // Virtual descendants are provably redundant here: their
                // populations are drawn from classes already below `class`.
                let descendants: Vec<ClassId> = {
                    let schema = self.schema.read();
                    let mut d = vec![class];
                    d.extend(schema.strict_descendants(class));
                    d
                };
                // Each per-class extent is sorted and an object has one
                // real class: the concatenation is a few sorted runs, which
                // the stable sort detects and merges in linear time (the
                // unstable one would quicksort them). `dedup` only matters
                // when two sources reuse an oid.
                let mut out = Vec::new();
                let kinds = self.kinds.read();
                for d in descendants {
                    if let Some(ClassKind::Imported { source, orig }) = kinds.get(&d) {
                        let db = self.sources[*source].read();
                        out.extend(db.store.extent(*orig));
                    }
                }
                out.sort();
                out.dedup();
                Ok(out)
            }
        }
    }

    fn is_member(&self, oid: Oid, class: ClassId) -> ov_query::Result<bool> {
        let vc = match self.view_class_of(oid) {
            Ok(c) => c,
            Err(_) => return Ok(false),
        };
        if self.schema.read().is_subclass(vc, class) {
            return Ok(true);
        }
        // Membership through an overlapping virtual class below `class`.
        let below = self.virtuals_where(|schema, v| schema.is_subclass(v, class));
        for v in self.drop_in_flight(below) {
            if self.population(v)?.contains(&oid) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn resolve(&self, oid: Oid, name: Symbol) -> ov_query::Result<ResolvedAttr> {
        // Hide-resolution happens here: hidden definitions are filtered
        // from the candidate set below, so the span covers the full
        // membership + upward-resolution walk.
        let _span = ov_oodb::span!("view.resolve", attr = name);
        let (roots, virtuals) = match self.class_rule(self.view_class_of(oid)?, name)? {
            Rule::Class(res) => return Ok(res),
            Rule::Membership { roots, virtuals } => (roots, virtuals),
        };
        let roots = self.joined(oid, roots, virtuals)?;
        let schema = self.schema.read();
        let (_, def) = self.definition(&schema, &roots, name, false)?;
        Ok(def.into())
    }

    fn stored_field(&self, oid: Oid, name: Symbol) -> ov_query::Result<Value> {
        if let Some(v) = self.imaginary_object(oid, |_, core| core.get(name).cloned()) {
            return Ok(v.unwrap_or(Value::Null));
        }
        for handle in &self.sources {
            let db = handle.read();
            if let Some(obj) = db.store.get(oid) {
                return Ok(obj.value.get(name).cloned().unwrap_or(Value::Null));
            }
        }
        Err(QueryError::from(OodbError::UnknownObject(oid)))
    }

    fn resolution_class_and_field(&self, oid: Oid, name: Symbol) -> Option<(ClassId, Value)> {
        // One source-store probe for the class key and the field, which
        // matters at a lock acquisition and a hash lookup per scanned row.
        // The key is the *raw* presented class, not `class_of`: hidden
        // classes map to visible ancestors only at body depth 0, so two
        // oids of one hidden class must not share a cache key with oids of
        // the ancestor.
        if let Some(hit) = self.imaginary_object(oid, |class, core| {
            (class, core.get(name).cloned().unwrap_or(Value::Null))
        }) {
            return Some(hit);
        }
        for (idx, handle) in self.sources.iter().enumerate() {
            let db = handle.read();
            if let Some(obj) = db.store.get(oid) {
                let class = self.imported_class(idx, obj.class)?;
                return Some((class, obj.value.get(name).cloned().unwrap_or(Value::Null)));
            }
        }
        None
    }

    fn resolution_generation(&self) -> u64 {
        self.res_gen.load(Ordering::Acquire)
    }

    fn class_verdict(&self, class: ClassId, name: Symbol) -> Option<ResolvedAttr> {
        // A template instantiated mid-scan (through `apply` in a filter)
        // bumps the generation, which drops the scan's slots and the memo.
        match self.class_rule(class, name) {
            Ok(Rule::Class(res)) => Some(res),
            _ => None,
        }
    }

    fn indexed_lookup(&self, class: ClassId, attr: Symbol, value: &Value) -> Option<Vec<Oid>> {
        // The deep extent of an imported class is the union of its imported
        // descendants' source extents (see `extent`): probe exactly those
        // classes, each in its own source — the source's deep lookup would
        // also return objects of subclasses this view did not import.
        let mut parts: Vec<(ClassId, usize, ClassId)> = Vec::new();
        {
            let kinds = self.kinds.read();
            let Some(ClassKind::Imported { .. }) = kinds.get(&class) else {
                return None;
            };
            let schema = self.schema.read();
            for d in std::iter::once(class).chain(schema.strict_descendants(class)) {
                match kinds.get(&d)? {
                    ClassKind::Virtual => {} // adds no objects
                    ClassKind::Imaginary { .. } => return None,
                    ClassKind::Imported { source, orig } => {
                        // A hidden class resolves through its visible
                        // ancestors, not through itself.
                        if self.is_hidden_class(d) && self.depth() == 0 {
                            return None;
                        }
                        parts.push((d, *source, *orig));
                    }
                }
            }
        }
        // Every object of every part reads the stored field: the class
        // verdict, which no override and no virtual class's membership
        // stands against.
        let stored = |d| matches!(self.class_verdict(d, attr), Some(ResolvedAttr::Stored));
        if !parts.iter().all(|&(d, ..)| stored(d)) {
            return None;
        }
        let mut out = Vec::new();
        for (_, source, orig) in parts {
            let db = self.sources[source].read();
            out.extend(db.store.index_lookup(orig, attr, value)?);
        }
        out.sort();
        out.dedup();
        Some(out)
    }

    fn named_object(&self, name: Symbol) -> Option<Oid> {
        self.sources.iter().find_map(|h| h.read().named(name).ok())
    }

    fn object_exists(&self, oid: Oid) -> bool {
        self.imaginary_object(oid, |_, _| ()).is_some()
            || self
                .sources
                .iter()
                .any(|h| h.read().store.get(oid).is_some())
    }

    fn attr_sig(&self, c: ClassId, name: Symbol) -> Option<AttrSig> {
        let abstract_ok = self.types_abstractly(c);
        let schema = self.schema.read();
        let (_, def) = self.definition(&schema, &[c], name, abstract_ok).ok()?;
        Some(def.sig.clone())
    }

    fn class_type(&self, c: ClassId) -> Type {
        let abstract_ok = self.types_abstractly(c);
        let schema = self.schema.read();
        let keep = self.counts(&schema, abstract_ok);
        resolve::class_type_in(&schema, c, &keep, &self.policy)
    }

    fn apply(&self, name: Symbol, args: &[Value]) -> ov_query::Result<Value> {
        let class = self.instantiate(name, args)?;
        let oids = DataSource::extent(self, class)?;
        Ok(Value::Set(oids.into_iter().map(Value::Oid).collect()))
    }

    fn frame_key(&self) -> Option<u64> {
        Some(self.token)
    }

    fn apply_type(&self, name: Symbol, args: &[Type]) -> ov_query::Result<Type> {
        let template = self
            .templates
            .get(&name)
            .ok_or_else(|| QueryError::ty(format!("`{name}` is not a parameterized class")))?;
        if template.params.len() != args.len() {
            return Err(ViewError::ParamArity {
                class: name,
                expected: template.params.len(),
                got: args.len(),
            }
            .into());
        }
        // The instance class depends on argument *values*, unknown
        // statically; members are objects of unknowable class.
        Ok(Type::set(Type::Any))
    }
}

#[cfg(test)]
#[path = "tests/view_typing.rs"]
mod typing;
