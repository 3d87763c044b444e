//! Interactive sessions: databases and views under one prompt.
//!
//! A [`Session`] owns a [`System`] of databases and a set of named views,
//! and executes statements the way the paper's programmer works: build a
//! base database, `create view`, add imports / virtual classes /
//! attributes incrementally, and query either world at any point. Views
//! rebind automatically as their definitions grow, so each definition
//! statement is checked the moment it is entered.
//!
//! Base statements on a focused database run in *runs* (see
//! [`Session::execute`]): each stretch between two `database` or view
//! statements goes to `ov_query`'s script executor in one call, so its
//! passes resolve forward references within the run — a saved session
//! ([`Session::save`]) reloads. Every other statement runs alone.
//!
//! This is the engine behind the `ovq` REPL binary (workspace root).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ov_oodb::{sym, Durability, Expr, Oid, OodbError, Symbol, System, Value, WalStatus};
use ov_query::{execute_stmts_with_map, parse_program, Stmt};

use crate::def::{AttrDecl, Hide, Import, ViewDef, ViewElement, VirtualClassDef};
use crate::error::{Result, ViewError};
use crate::graph::{DepTarget, DependencyGraph};
use crate::view::{View, ViewOptions};

/// What the prompt currently points at.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Focus {
    Nothing,
    Database(Symbol),
    View(Symbol),
}

/// The result of executing one statement.
#[derive(Clone, PartialEq, Debug)]
pub enum Outcome {
    /// Statement executed; nothing to show.
    Done,
    /// A query (or insert) produced a value.
    Value(Value),
    /// A human-readable notice (context switches etc.).
    Notice(String),
}

/// An interactive session over a system of databases and named views.
pub struct Session {
    pub(crate) system: System,
    /// The bound views, each keeping the definition it was bound from; a
    /// view stacked on another holds that one too, so the `Arc` is shared.
    pub(crate) views: HashMap<Symbol, Arc<View>>,
    options: ViewOptions,
    focus: Focus,
    /// Which databases and views each view's definition reads; kept in
    /// lockstep with `views` so DDL can propagate changes topologically.
    pub(crate) graph: DependencyGraph,
    /// Session-persistent `#n` literal → oid bindings, so interactive
    /// statements can refer to objects declared earlier.
    oid_map: HashMap<u64, Oid>,
    /// This session's cost-based-planner switch. `None` inherits what
    /// governs the calling thread ([`ov_query::planner_enabled`]); `Some`
    /// scopes the choice to this session's statements via the thread-scoped
    /// override, so concurrent sessions with different settings never race.
    planner: Option<bool>,
    /// Root directory of a durable session ([`Session::open`]); `None` for
    /// in-memory sessions. Databases live under `<root>/databases/<name>/`,
    /// view definitions in `<root>/views.ovq`.
    durable_root: Option<PathBuf>,
    /// Durability level applied to every database this session opens or
    /// creates. Irrelevant (always `None`) for in-memory sessions.
    durability: Durability,
    /// The view definitions kept unbound, in the order they became so.
    unbound: Vec<UnboundView>,
}

/// A view definition the session keeps but could not bind: a definition of
/// `views.ovq` that fails against the recovered bases on open, one that
/// reads a view that does, or a view that could not follow a base change
/// that had already applied (only an injected fault gets there). It is not
/// a view of the session until a `create view` of its name replaces it,
/// and every rewrite of `views.ovq` writes it back as it was read.
#[derive(Clone, Debug)]
pub struct UnboundView {
    /// The definition, as it was read.
    pub def: ViewDef,
    /// Why it does not bind.
    pub cause: ViewError,
}

/// File (under the durable root) holding the session's view definitions as
/// a checked DDL script, rewritten atomically after every view-DDL change.
const VIEWS_FILE: &str = "views.ovq";

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// An empty session with default view options.
    pub fn new() -> Session {
        Session {
            system: System::new(),
            views: HashMap::new(),
            options: ViewOptions::default(),
            focus: Focus::Nothing,
            graph: DependencyGraph::new(),
            oid_map: HashMap::new(),
            planner: None,
            durable_root: None,
            durability: Durability::None,
            unbound: Vec::new(),
        }
    }

    /// Opens (or creates) a durable session rooted at `dir`.
    ///
    /// Recovery order: every subdirectory of `<dir>/databases/` is opened
    /// via [`ov_oodb::Database::open`] (snapshot + WAL replay, in name
    /// order), then `<dir>/views.ovq` — the checked script of view
    /// definitions — is verified and split at each `create view`, and each
    /// definition is bound once against the recovered bases and committed,
    /// in file order. A definition that fails, or reads a view that did,
    /// does not fail the open: it is kept unbound, and
    /// [`Session::unbound_views`] reports it with its cause. Imaginary-object
    /// identity is restored from the databases' durable identity tables as
    /// each database joins the session's system, before any view binds, so
    /// imaginary oids are stable across open/close cycles.
    ///
    /// `durability` applies to every database the session opens here or
    /// creates later (`database D;` statements create durable databases
    /// under the root).
    pub fn open(dir: &Path, durability: Durability) -> Result<Session> {
        Session::open_with_options(dir, durability, ViewOptions::default())
    }

    /// [`Session::open`] with non-default view options.
    pub fn open_with_options(
        dir: &Path,
        durability: Durability,
        options: ViewOptions,
    ) -> Result<Session> {
        let mut session = Session::with_options(options);
        let dbs_dir = dir.join("databases");
        std::fs::create_dir_all(&dbs_dir)
            .map_err(|e| ViewError::Oodb(OodbError::io("session.open: creating root", e)))?;
        let mut names: Vec<String> = std::fs::read_dir(&dbs_dir)
            .map_err(|e| ViewError::Oodb(OodbError::io("session.open: listing databases", e)))?
            .filter_map(|entry| {
                let entry = entry.ok()?;
                if entry.file_type().ok()?.is_dir() {
                    entry.file_name().into_string().ok()
                } else {
                    None
                }
            })
            .collect();
        names.sort();
        for name in &names {
            let db = ov_oodb::Database::open(sym(name), &dbs_dir.join(name), durability)
                .map_err(ViewError::Oodb)?;
            session.system.add_database(db).map_err(ViewError::Oodb)?;
        }
        match std::fs::read_to_string(dir.join(VIEWS_FILE)) {
            Ok(text) => {
                let script = ov_oodb::read_checked(&text).map_err(ViewError::Oodb)?;
                let stmts = parse_program(script).map_err(ViewError::from)?;
                for def in stmts.chunk_by(|_, next| !matches!(next, Stmt::CreateView(_))) {
                    session.open_view(ViewDef::from_stmts(def)?);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(ViewError::Oodb(OodbError::io(
                    "session.open: reading views.ovq",
                    e,
                )))
            }
        }
        session.durable_root = Some(dir.to_path_buf());
        session.durability = durability;
        Ok(session)
    }

    /// Binds and commits one saved definition on open. One that fails, or
    /// imports a view kept unbound, is kept unbound with its cause.
    fn open_view(&mut self, def: ViewDef) {
        let upstream = def
            .imports
            .iter()
            .find_map(|i| self.unbound.iter().find(|u| u.def.name == i.db));
        let bound = match upstream {
            Some(up) => Err(ViewError::Unbound {
                view: up.def.name,
                cause: Box::new(up.cause.clone()),
            }),
            None => self.put_view(def.clone()).map(drop),
        };
        if let Err(cause) = bound {
            self.unbound.push(UnboundView { def, cause });
        }
    }

    /// The view definitions this session keeps but could not bind, in the
    /// order they became unbound (see [`UnboundView`]). `ovq --data-dir`
    /// prints them on open.
    pub fn unbound_views(&self) -> &[UnboundView] {
        &self.unbound
    }

    /// The durable root directory, if this session was opened with
    /// [`Session::open`].
    pub fn durable_root(&self) -> Option<&Path> {
        self.durable_root.as_deref()
    }

    /// The durability level this session's databases run at.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Turns the cost-based planner on or off for this session's statements
    /// and queries — and only for those: it is installed as a thread-scoped
    /// override around each run, so other sessions (even on other threads)
    /// are unaffected. `None` reverts to whatever governs the calling
    /// thread.
    pub fn set_planner(&mut self, on: Option<bool>) {
        self.planner = on;
    }

    /// This session's planner override, if any (`None` = the thread's).
    pub fn planner(&self) -> Option<bool> {
        self.planner
    }

    /// A session with non-default view options (conflict policy etc.).
    pub fn with_options(options: ViewOptions) -> Session {
        Session {
            options,
            ..Session::new()
        }
    }

    /// The typed DDL API over this session's catalog: define and drop
    /// databases, classes, and views with dependency-aware outcomes
    /// (RESTRICT on drops; every change stages its dependents, then
    /// commits them all or none). See
    /// [`crate::catalog::CatalogTxn`].
    pub fn catalog(&mut self) -> crate::catalog::CatalogTxn<'_> {
        crate::catalog::CatalogTxn::new(self)
    }

    /// The session's view dependency graph: which databases and which
    /// other views each view's definition reads.
    pub fn dependency_graph(&self) -> &DependencyGraph {
        &self.graph
    }

    /// Read access to the underlying system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The bound view called `name`, if any.
    pub fn view(&self, name: Symbol) -> Option<&View> {
        self.views.get(&name).map(|v| &**v)
    }

    /// The DDL text of view `name`'s current definition (see
    /// [`ViewDef::to_script`]).
    pub fn view_script(&self, name: Symbol) -> Option<String> {
        self.views.get(&name).map(|v| v.def().to_script())
    }

    /// Names of all defined views, sorted.
    pub fn view_names(&self) -> Vec<Symbol> {
        let mut v: Vec<Symbol> = self.views.keys().copied().collect();
        v.sort();
        v
    }

    /// Switches the prompt to database or view `name` (used by the REPL's
    /// `use` handling and by tests).
    pub fn focus(&mut self, name: Symbol) -> Result<Outcome> {
        if self.views.contains_key(&name) {
            self.focus = Focus::View(name);
            return Ok(Outcome::Notice(format!("focused on view {name}")));
        }
        if self.system.database(name).is_ok() {
            self.focus = Focus::Database(name);
            return Ok(Outcome::Notice(format!("focused on database {name}")));
        }
        Err(ViewError::Definition(format!(
            "`{name}` is neither a database nor a view in this session"
        )))
    }

    /// Parses and executes a script. On a focused database, base
    /// statements execute in *runs*: a maximal stretch of `class`,
    /// `attribute`, `object`, `name`, `insert`, `set`, `delete` and
    /// queries, ended by a `database` or a view statement, goes to the
    /// script executor in one call, so a reference resolves anywhere within
    /// its run (a class type naming a later class, an `object` value naming
    /// a later object) and a run that changes the schema revalidates the
    /// database's dependents once — before it applies, so a run that a
    /// dependent cannot follow is refused whole (see
    /// [`ViewError::RevalidationFailed`]). Every other statement executes
    /// alone.
    /// Returns one outcome per statement, in order; stops at the first
    /// error, leaving earlier runs applied.
    pub fn execute(&mut self, src: &str) -> Result<Vec<Outcome>> {
        let stmts = parse_program(src).map_err(ViewError::from)?;
        let mut out = Vec::with_capacity(stmts.len());
        let mut rest = &stmts[..];
        while !rest.is_empty() {
            let n = match self.focus {
                Focus::Database(_) => rest.iter().take_while(|s| is_base(s)).count().max(1),
                _ => 1,
            };
            let (run, tail) = rest.split_at(n);
            self.execute_run(run, |o| out.push(o))?;
            rest = tail;
        }
        Ok(out)
    }

    /// Executes a single pre-parsed statement: a run of one.
    pub fn execute_stmt(&mut self, stmt: Stmt) -> Result<Outcome> {
        let mut outcome = Outcome::Done;
        self.execute_run(std::slice::from_ref(&stmt), |o| outcome = o)?;
        Ok(outcome)
    }

    /// Executes `stmts` — a run of base statements on the focused
    /// database, or one other statement — handing `each` one outcome per
    /// statement.
    fn execute_run(&mut self, stmts: &[Stmt], mut each: impl FnMut(Outcome)) -> Result<()> {
        let _span = ov_oodb::span!("session.execute_stmt");
        let outcome = match &stmts[0] {
            Stmt::Database(name) => {
                self.create_database(*name)?;
                self.focus = Focus::Database(*name);
                Outcome::Notice(format!("database {name}"))
            }
            Stmt::CreateView(name) => {
                self.define_view(ViewDef::new(*name))?;
                self.focus = Focus::View(*name);
                Outcome::Notice(format!("view {name}"))
            }
            Stmt::Import { what, db } => self.extend_view(|def| {
                def.imports.push(Import {
                    db: *db,
                    what: what.clone(),
                });
            })?,
            Stmt::HideAttrs { attrs, class } => self.extend_view(|def| {
                def.elements.push(ViewElement::Hide(Hide::Attrs {
                    attrs: attrs.clone(),
                    class: *class,
                }));
            })?,
            Stmt::HideClass(class) => self.extend_view(|def| {
                def.elements.push(ViewElement::Hide(Hide::Class(*class)));
            })?,
            Stmt::VirtualClassDecl {
                name,
                params,
                includes,
            } => self.extend_view(|def| {
                def.elements
                    .push(ViewElement::VirtualClass(VirtualClassDef {
                        name: *name,
                        params: params.clone(),
                        includes: includes.clone(),
                    }));
            })?,
            Stmt::AttributeDecl {
                name,
                params,
                ty,
                class,
                body,
            } if matches!(self.focus, Focus::View(_)) => self.extend_view(|def| {
                def.elements.push(ViewElement::Attribute(AttrDecl {
                    name: *name,
                    params: params.clone(),
                    ty: ty.clone(),
                    class: *class,
                    body: body.clone(),
                }));
            })?,
            // Base statements run on the focused database or view, under
            // the session's planner override (if any).
            stmt => match self.focus {
                Focus::Database(db) => return self.run_on_database(db, stmts, each).map(drop),
                Focus::View(vname) => {
                    under_planner(self.planner, || self.run_on_view(vname, stmt))?
                }
                Focus::Nothing => return Err(no_focus()),
            },
        };
        each(outcome);
        Ok(())
    }

    /// Applies `patch` to the focused view's definition and rebinds it; a
    /// failing statement changes nothing, so the session view stays usable.
    fn extend_view(&mut self, patch: impl FnOnce(&mut ViewDef)) -> Result<Outcome> {
        let Focus::View(name) = self.focus else {
            return Err(ViewError::Definition(
                "view-definition statements need a focused view (`create view V;` first)".into(),
            ));
        };
        // Unreachable expect: `focus` is only ever set to a key of
        // `views`, and entries are never removed through this path.
        let mut candidate = self.views[&name].def().clone();
        patch(&mut candidate);
        let _span = ov_oodb::span!("session.rebind_view", view = name);
        self.put_view(candidate)?;
        Ok(Outcome::Done)
    }

    /// Creates database `name` unless it exists. A durable session
    /// creates a durable database — a directory under the root, opened
    /// with the session's durability so every write WAL-logs.
    pub(crate) fn create_database(&mut self, name: Symbol) -> Result<()> {
        if self.system.database(name).is_ok() {
            return Ok(());
        }
        match &self.durable_root {
            Some(root) => {
                let dir = root.join("databases").join(name.to_string());
                let db = ov_oodb::Database::open(name, &dir, self.durability)?;
                self.system.add_database(db)?;
            }
            None => {
                self.system.create_database(name)?;
            }
        }
        Ok(())
    }

    /// Defines a new view — `create view` and
    /// [`crate::CatalogTxn::define_view`] both — refusing a name the
    /// session already binds.
    pub(crate) fn define_view(&mut self, def: ViewDef) -> Result<()> {
        if self.views.contains_key(&def.name) {
            return Err(ViewError::Definition(format!(
                "view `{}` already exists in this session",
                def.name
            )));
        }
        self.put_view(def).map(drop)
    }

    /// (Re)defines view `def.name`: stages `def` and every transitive
    /// dependent over it, then commits them all, or, on error, none.
    /// Returns the number of dependents revalidated.
    pub(crate) fn put_view(&mut self, def: ViewDef) -> Result<usize> {
        let staged = self.stage(&self.system, Some(&def), DepTarget::View(def.name))?;
        let dependents = staged.len() - 1;
        self.commit(staged);
        Ok(dependents)
    }

    /// Stages a catalog change against `system`, the state the change
    /// produces: binds `def`, when the change (re)defines a view, then every
    /// transitive dependent of `changed` in topological order, each over the
    /// views staged before it, so a view stacked on a restaged one reads the
    /// new one. Nothing is installed ([`Self::commit`] does that), so an
    /// error leaves the session as it was. A dependent that fails to bind
    /// fails the stage with [`ViewError::RevalidationFailed`] naming it.
    fn stage(
        &self,
        system: &System,
        def: Option<&ViewDef>,
        changed: DepTarget,
    ) -> Result<Vec<Arc<View>>> {
        let mut staged = Vec::new();
        if let Some(def) = def {
            staged.push(Arc::new(self.bind_over(system, def, &[])?));
        }
        let (name, base) = match changed {
            DepTarget::Database(n) => (n, true),
            DepTarget::View(n) => (n, false),
        };
        for dependent in self.graph.transitive_dependents(changed) {
            // A *full* rebind over the staged upstreams: each staged
            // dependent's own includes are recompiled, and the classes it
            // reads from upstream views are read from the new ones — a
            // dependent never serves an old definition after a
            // redefinition commits (regression-tested in
            // `redefining_an_upstream_view_recompiles_dependents`).
            let def = self.views[&dependent].def();
            let view = self.bind_over(system, def, &staged).map_err(|e| {
                ViewError::RevalidationFailed {
                    changed: name,
                    base,
                    dependent,
                    cause: Box::new(e),
                }
            })?;
            staged.push(Arc::new(view));
        }
        Ok(staged)
    }

    /// Binds `def` against `system` over every *other* view of the session
    /// (so `import all classes from V` resolves and views stack), each as
    /// `staged` holds it if it is there.
    fn bind_over(&self, system: &System, def: &ViewDef, staged: &[Arc<View>]) -> Result<View> {
        // `over_all` keeps the last view of each name: the staged one.
        let upstreams = self.views.values().chain(staged);
        def.binder(system)
            .options(self.options.clone())
            .over_all(upstreams.filter(|v| v.name() != def.name))
            .bind()
    }

    /// Installs the views one catalog change staged, sets their dependency
    /// edges and rewrites `views.ovq` once. A committed view replaces the
    /// kept unbound definition of its name, if there is one. A kept
    /// definition that imports a view committed here is staged again, in
    /// dependency order (each once its imports are all bound), and
    /// committed in the same step if it binds; if not, it stays kept with
    /// the cause this attempt gave.
    fn commit(&mut self, staged: Vec<Arc<View>>) {
        let mut committed = Vec::new();
        self.install(staged, &mut committed);
        let imports =
            |def: &ViewDef, names: &[Symbol]| def.imports.iter().any(|i| names.contains(&i.db));
        let mut tried = Vec::new();
        loop {
            let kept: Vec<Symbol> = self.unbound.iter().map(|u| u.def.name).collect();
            let Some(at) = self.unbound.iter().position(|u| {
                !tried.contains(&u.def.name)
                    && imports(&u.def, &committed)
                    && !imports(&u.def, &kept)
            }) else {
                break;
            };
            let def = self.unbound[at].def.clone();
            tried.push(def.name);
            match self.stage(&self.system, Some(&def), DepTarget::View(def.name)) {
                Ok(staged) => self.install(staged, &mut committed),
                Err(cause) => self.unbound[at].cause = cause,
            }
        }
        self.persist_views_best_effort();
    }

    /// Installs `staged` into the views map and the dependency graph, in
    /// place of any kept definition of the same name, noting each name in
    /// `committed`.
    fn install(&mut self, staged: Vec<Arc<View>>, committed: &mut Vec<Symbol>) {
        for view in staged {
            let name = view.name();
            self.unbound.retain(|u| u.def.name != name);
            self.graph.set(name, view.dependencies().to_vec());
            self.views.insert(name, view);
            committed.push(name);
        }
    }

    /// Every definition, bound or kept unbound, that imports `name`: the
    /// views a RESTRICT drop of `name` must not orphan.
    pub(crate) fn importers(&self, name: Symbol) -> Vec<Symbol> {
        let mut out = self.graph.direct_dependents(DepTarget::View(name));
        let kept = self.unbound.iter().map(|u| &u.def);
        out.extend(
            kept.filter(|d| d.imports.iter().any(|i| i.db == name))
                .map(|d| d.name),
        );
        out
    }

    /// Forgets the kept unbound definition `name`, if there is one.
    pub(crate) fn forget_unbound(&mut self, name: Symbol) {
        self.unbound.retain(|u| u.def.name != name);
    }

    /// Removes `name` from the session (views map, dependency graph, and
    /// focus if it was focused), returning its view. Callers enforce
    /// RESTRICT first, and rewrite `views.ovq`.
    pub(crate) fn remove_view(&mut self, name: Symbol) -> Option<Arc<View>> {
        self.graph.remove(name);
        if self.focus == Focus::View(name) {
            self.focus = Focus::Nothing;
        }
        self.views.remove(&name)
    }

    /// Moves view `name` and every view stacked on it out of the catalog
    /// and keeps their definitions unbound: `name` for `cause`, the others
    /// because they read it. Returns the error that says `name` is unbound.
    fn unbind(&mut self, name: Symbol, cause: ViewError) -> ViewError {
        let unbound = ViewError::Unbound {
            view: name,
            cause: Box::new(cause.clone()),
        };
        let causes = std::iter::once(cause).chain(std::iter::repeat(unbound.clone()));
        let stacked = self.graph.transitive_dependents(DepTarget::View(name));
        for (view, cause) in std::iter::once(name).chain(stacked).zip(causes) {
            if let Some(removed) = self.remove_view(view) {
                let def = removed.def().clone();
                self.unbound.push(UnboundView { def, cause });
            }
        }
        unbound
    }

    /// Runs `stmts`, a run of base statements, on database `db`: the
    /// session's one caller of the script executor, whose passes see the
    /// whole run. `each` receives one outcome per statement.
    ///
    /// A run that declares a class or an attribute on a database with
    /// dependents is validated before it applies: its declarations run
    /// against a candidate system ([`System::with_schema_only`]), and every
    /// transitive dependent of `db` is staged over it. If one fails — or a
    /// declaration does — the run is refused, and none of its statements
    /// applies. Otherwise the run applies, and the dependents are staged
    /// again against the real system and committed, in dependency order —
    /// also when a later statement failed, since what the run applied stays
    /// applied; unrelated views keep their bound state and warm caches. A
    /// run on a database with no dependents builds no candidate. A data
    /// write refreshes no view: each population follows its sources on the
    /// read that needs it. Returns the number of dependents rebound.
    pub(crate) fn run_on_database(
        &mut self,
        db: Symbol,
        stmts: &[Stmt],
        mut each: impl FnMut(Outcome),
    ) -> Result<usize> {
        let declares = |s: &&Stmt| matches!(s, Stmt::ClassDecl { .. } | Stmt::AttributeDecl { .. });
        let follow = stmts.iter().any(|s| declares(&s))
            && !self
                .graph
                .direct_dependents(DepTarget::Database(db))
                .is_empty();
        let _span = follow.then(|| ov_oodb::span!("session.rebind_dependents"));
        if follow {
            let decls: Vec<Stmt> = stmts.iter().filter(declares).cloned().collect();
            let mut candidate = self.system.with_schema_only(db)?;
            execute_stmts_with_map(&mut candidate, Some(db), &decls, &mut HashMap::new(), drop)?;
            self.stage(&candidate, None, DepTarget::Database(db))?;
        }
        let ran = under_planner(self.planner, || {
            execute_stmts_with_map(&mut self.system, Some(db), stmts, &mut self.oid_map, |v| {
                each(v.map_or(Outcome::Done, Outcome::Value))
            })
        });
        let rebound = if follow { self.follow(db) } else { Ok(0) };
        ran.map_err(ViewError::from)?;
        rebound
    }

    /// Stages the transitive dependents of database `db` against the
    /// system after a run changed its schema, and commits them. The
    /// candidate admitted the change, so a dependent fails here only by an
    /// injected fault: it is unbound with every view stacked on it, so none
    /// serves state the base no longer has, and the rest are staged again
    /// without it. Returns the number committed, or the first unbound
    /// view's [`ViewError::Unbound`].
    fn follow(&mut self, db: Symbol) -> Result<usize> {
        let mut unbound = Ok(());
        loop {
            match self.stage(&self.system, None, DepTarget::Database(db)) {
                Ok(staged) => {
                    let n = staged.len();
                    self.commit(staged);
                    return unbound.map(|()| n);
                }
                Err(ViewError::RevalidationFailed {
                    dependent, cause, ..
                }) => unbound = unbound.and(Err(self.unbind(dependent, *cause))),
                Err(e) => return Err(e),
            }
        }
    }

    /// Warms every transitive dependent of database `db` after a base
    /// write, in topological order (upstream views before the views
    /// stacked on them): each [`View::refresh`] makes the requests the next
    /// reads would make. Nothing calls it on a write — a read needs no
    /// warm-up — so it is for callers that want the cost paid up front.
    /// Failures are skipped — the lazy read path (with its degradation
    /// ladder) recovers on next access. Returns the number of views
    /// refreshed.
    pub fn propagate(&self, db: Symbol) -> usize {
        let mut refreshed = 0;
        for name in self.graph.transitive_dependents(DepTarget::Database(db)) {
            if let Some(view) = self.views.get(&name) {
                if view.refresh().is_ok() {
                    refreshed += 1;
                }
            }
        }
        refreshed
    }

    fn run_on_view(&self, vname: Symbol, stmt: &Stmt) -> Result<Outcome> {
        let view = &*self.views[&vname];
        let eval = |e: &Expr| ov_query::eval_expr(view, e);
        match stmt {
            Stmt::Query(e) => {
                // `run_expr`, not `eval_expr`: a statement on the focused
                // view takes the dispatch rule's engine, same as
                // `Session::query` and the database path.
                Ok(Outcome::Value(ov_query::run_expr(view, e)?))
            }
            Stmt::Insert { class, value } => {
                let v = eval(value)?;
                let oid = view.insert(*class, v)?;
                Ok(Outcome::Value(Value::Oid(oid)))
            }
            Stmt::SetAttr {
                target,
                attr,
                value,
            } => {
                let Value::Oid(oid) = eval(target)? else {
                    return Err(ViewError::Definition(
                        "`set` target must evaluate to an object".into(),
                    ));
                };
                let v = eval(value)?;
                view.update_attr(oid, *attr, v)?;
                Ok(Outcome::Done)
            }
            Stmt::Delete(e) => {
                let Value::Oid(oid) = eval(e)? else {
                    return Err(ViewError::Definition(
                        "`delete` target must evaluate to an object".into(),
                    ));
                };
                view.delete(oid)?;
                Ok(Outcome::Done)
            }
            Stmt::ObjectDecl { .. } | Stmt::NameDecl { .. } | Stmt::ClassDecl { .. } => {
                Err(ViewError::Definition(
                    "base-data statements need a focused database, not a view".into(),
                ))
            }
            _ => unreachable!("handled by execute_run"),
        }
    }

    /// Serializes the whole session — every database (schema + data) and
    /// every view definition — as one script that [`Session::execute`] (or
    /// the `ovq` shell) replays into an equivalent session. View
    /// definitions are emitted in dependency order, so a view stacked on
    /// another view restores after the views it imports; a definition kept
    /// unbound comes last, and its replay fails as its bind did. Imaginary
    /// identity tables are *not* part of the saved state: they repopulate
    /// deterministically on first use in the restored session.
    pub fn save(&self) -> String {
        let mut out = String::new();
        let mut offset = 0u64;
        for db_name in self.system.names() {
            let db = self.system.database(db_name).expect("listed");
            let db = db.read();
            out.push_str(&ov_oodb::dump_database_with_offset(&db, offset));
            offset += db.store.len() as u64;
        }
        out.push_str(&self.views_script());
        out
    }

    /// Every view definition as DDL, in the order a replay needs: the bound
    /// views in dependency order, so a view stacked on another follows the
    /// views it imports, then the unbound ones as they were kept.
    fn views_script(&self) -> String {
        let bound = self.graph.topo_order(self.view_names());
        let bound = bound.into_iter().map(|v| self.views[&v].def());
        let unbound = self.unbound.iter().map(|u| &u.def);
        bound.chain(unbound).map(ViewDef::to_script).collect()
    }

    /// Rewrites `<root>/views.ovq` — the checked script of every view
    /// definition, bound or kept unbound — atomically (temp file, fsync,
    /// rename). A no-op for in-memory sessions.
    pub fn persist_views(&self) -> Result<()> {
        let Some(root) = &self.durable_root else {
            return Ok(());
        };
        let text = ov_oodb::wrap_checked(&self.views_script());
        let write = || -> std::io::Result<()> {
            use std::io::Write as _;
            let tmp = root.join("views.ovq.tmp");
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
            drop(f);
            std::fs::rename(&tmp, root.join(VIEWS_FILE))?;
            if let Ok(d) = std::fs::File::open(root) {
                let _ = d.sync_all();
            }
            Ok(())
        };
        write().map_err(|e| ViewError::Oodb(OodbError::io("session: persisting views.ovq", e)))
    }

    /// [`Session::persist_views`], degrading on failure: view DDL already
    /// committed in memory stays committed; the miss is counted
    /// (`session.views_persist_failures`) and the next successful rewrite
    /// or [`Session::checkpoint`] heals the file.
    pub(crate) fn persist_views_best_effort(&self) {
        if self.persist_views().is_err() {
            ov_oodb::metric_counter!("session.views_persist_failures").inc();
        }
    }

    /// Checkpoints every durable database (snapshot + WAL truncation) and
    /// strictly rewrites `views.ovq`. Returns the number of databases
    /// checkpointed. Errors if any checkpoint or the view rewrite fails;
    /// an error leaves earlier checkpoints in place (they are independent).
    pub fn checkpoint(&self) -> Result<usize> {
        let mut n = 0;
        for db_name in self.system.names() {
            let db = self.system.database(db_name).expect("listed");
            let db = db.read();
            if db.durable_core().is_some() {
                db.checkpoint().map_err(ViewError::Oodb)?;
                n += 1;
            }
        }
        self.persist_views()?;
        Ok(n)
    }

    /// Per-database WAL status (durable databases only, in name order) —
    /// behind the `ovq` shell's `.wal` command.
    pub fn wal_status(&self) -> Vec<(Symbol, WalStatus)> {
        let mut out = Vec::new();
        for db_name in self.system.names() {
            let db = self.system.database(db_name).expect("listed");
            let db = db.read();
            if let Some(core) = db.durable_core() {
                out.push((db_name, core.status()));
            }
        }
        out
    }

    /// A short description of what's in the session (for the REPL's
    /// `.schema`): databases with their classes, then views with their
    /// classes, dependency edges, and health.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for db_name in self.system.names() {
            let db = self.system.database(db_name).expect("listed");
            let db = db.read();
            let _ = writeln!(
                out,
                "database {db_name}: {} classes, {} objects",
                db.schema.len(),
                db.store.len()
            );
            for class in db.schema.classes() {
                let _ = writeln!(
                    out,
                    "  class {} ({} objects)",
                    class.name,
                    db.store.extent_len(class.id)
                );
            }
        }
        for vname in self.view_names() {
            let view = &self.views[&vname];
            let _ = writeln!(out, "view {vname}: classes {:?}", view.class_names());
            for edge in view.dependencies() {
                if edge.classes.is_empty() {
                    let _ = writeln!(out, "  depends on {}", edge.on);
                } else {
                    let reads: Vec<String> = edge.classes.iter().map(|c| c.to_string()).collect();
                    let _ = writeln!(out, "  depends on {} (reads {})", edge.on, reads.join(", "));
                }
            }
            let _ = match view.stats().stale_serves {
                0 => writeln!(out, "  health: healthy"),
                n => writeln!(out, "  health: {n} stale serve(s)"),
            };
        }
        for unbound in &self.unbound {
            let _ = writeln!(out, "view {}: unbound: {}", unbound.def.name, unbound.cause);
        }
        out
    }
}

/// Runs `f` under the session's `planner` override, where it has one. A
/// free function (not a method) so callers can pass `&mut self` closures
/// without a borrow conflict.
fn under_planner<R>(planner: Option<bool>, f: impl FnOnce() -> R) -> R {
    match planner {
        Some(on) => ov_query::with_planner(on, f),
        None => f(),
    }
}

/// Does `stmt` join a run on the focused database — is it anything but
/// `database D;` or a view statement?
fn is_base(stmt: &Stmt) -> bool {
    !matches!(
        stmt,
        Stmt::Database(_)
            | Stmt::CreateView(_)
            | Stmt::Import { .. }
            | Stmt::HideAttrs { .. }
            | Stmt::HideClass(_)
            | Stmt::VirtualClassDecl { .. }
    )
}

fn no_focus() -> ViewError {
    ViewError::Definition(
        "no focused database or view (start with `database D;` or `create view V;`)".into(),
    )
}

// DataSource passthrough so a session's focused view can be queried
// through generic code paths if desired.
impl Session {
    /// Runs a query against a named view or database (under the session's
    /// planner override, if any).
    pub fn query(&self, target: Symbol, query: &str) -> Result<Value> {
        under_planner(self.planner, || {
            if let Some(view) = self.views.get(&target) {
                return view.query(query);
            }
            let db = self.system.database(target)?;
            let db = db.read();
            ov_query::run_query(&*db, query).map_err(ViewError::from)
        })
    }

    /// Explains a query against a named view or database: the parsed form,
    /// the statically inferred type, and the optimized form. Drives the
    /// REPL's `.explain`.
    pub fn explain(&self, target: Symbol, query: &str) -> Result<String> {
        use std::fmt::Write as _;
        let expr = ov_query::parse_expr(query).map_err(ViewError::from)?;
        let mut out = String::new();
        let _ = writeln!(out, "parsed:    {expr}");
        let ty = if let Some(view) = self.views.get(&target) {
            ov_query::infer_expr(&**view, &expr)
        } else {
            let db = self.system.database(target)?;
            let db = db.read();
            ov_query::infer_expr(&*db, &expr)
        };
        match ty {
            Ok(t) => {
                let _ = writeln!(out, "type:      {t:?}");
            }
            Err(e) => {
                let _ = writeln!(out, "type:      error: {e}");
            }
        }
        let optimized = ov_query::optimize_expr(&expr);
        if optimized != expr {
            let _ = writeln!(out, "optimized: {optimized}");
        } else {
            let _ = writeln!(out, "optimized: (unchanged)");
        }
        // For a view target, surface its place in the dependency graph.
        if let Some(view) = self.views.get(&target) {
            if !view.dependencies().is_empty() {
                let deps: Vec<String> = view
                    .dependencies()
                    .iter()
                    .map(|e| e.on.to_string())
                    .collect();
                let _ = writeln!(out, "depends:   {}", deps.join("; "));
            }
        }
        // Execute with tracing: per-stage timings plus, for every
        // population request, which path resolved it (cache hit / delta /
        // full recompute with its scans). Same rendering as
        // `View::explain`.
        match self.run_traced(target, query) {
            Ok((_, trace)) => {
                let _ = write!(out, "{trace}");
            }
            Err(e) => {
                let _ = writeln!(out, "execution: error: {e}");
            }
        }
        Ok(out)
    }

    /// EXPLAIN ANALYZE: executes `query` with the actuals collector armed
    /// and returns the annotated trace — per-stage timings, per-population
    /// scan events with their measured counters, the query-level actuals
    /// roll-up, engine, and fingerprint — followed by the result value.
    /// `.explain` without the static prelude; drives the REPL's `.analyze`.
    pub fn analyze(&self, target: Symbol, query: &str) -> Result<String> {
        let (value, trace) = self.run_traced(target, query)?;
        Ok(format!("{trace}result: {value}\n"))
    }

    /// Runs `query` traced against a named view or database.
    fn run_traced(&self, target: Symbol, query: &str) -> Result<(Value, ov_query::QueryTrace)> {
        under_planner(self.planner, || {
            if let Some(view) = self.views.get(&target) {
                return view.explain(query);
            }
            let db = self.system.database(target)?;
            let db = db.read();
            ov_query::run_query_traced(&*db, query).map_err(ViewError::from)
        })
    }

    /// Explains how the population of virtual class `class` of view `view`
    /// is resolved right now (see `View::explain_population`), rendered as
    /// one line.
    pub fn explain_population(&self, view: Symbol, class: Symbol) -> Result<String> {
        let v = self
            .views
            .get(&view)
            .ok_or(ViewError::Oodb(ov_oodb::OodbError::UnknownDatabase(view)))?;
        // The explain may trigger the population recompute it then reports,
        // so it must run under the session's settings like any other read.
        under_planner(self.planner, || {
            Ok(format!("{}\n", v.explain_population(class)?))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::Materialization;
    use ov_oodb::sym;

    fn loaded_session() -> Session {
        let mut s = Session::new();
        s.execute(
            r#"
            database Staff;
            class Person type [Name: string, Age: integer];
            class Employee inherits Person type [Salary: integer];
            object #1 in Person value [Name: "Maggy", Age: 66];
            object #2 in Employee value [Name: "Tony", Age: 30, Salary: 50000];
            name maggy = #1;
            "#,
        )
        .unwrap();
        s
    }

    #[test]
    fn database_then_view_then_query() {
        let mut s = loaded_session();
        let outcomes = s
            .execute(
                r#"
                create view V;
                import all classes from database Staff;
                class Adult includes (select P from Person where P.Age >= 21);
                select A.Name from A in Adult;
                "#,
            )
            .unwrap();
        assert_eq!(
            outcomes.last().unwrap(),
            &Outcome::Value(Value::set([Value::str("Maggy"), Value::str("Tony")]))
        );
    }

    #[test]
    fn incremental_view_definition_rebinds() {
        let mut s = loaded_session();
        s.execute("create view V; import all classes from database Staff;")
            .unwrap();
        // First query: no Adult yet.
        assert!(s.execute("select A from A in Adult;").is_err());
        // Add the class, query again.
        s.execute("class Adult includes (select P from Person where P.Age >= 21);")
            .unwrap();
        let v = s.execute("count((select A from A in Adult));").unwrap();
        assert_eq!(v[0], Outcome::Value(Value::Int(2)));
    }

    #[test]
    fn failing_view_statement_rolls_back() {
        let mut s = loaded_session();
        s.execute("create view V; import all classes from database Staff;")
            .unwrap();
        // A bad virtual class must not poison the session.
        assert!(s
            .execute("class Bad includes (select [X: P.Name] from P in Person);")
            .is_err());
        let v = s.execute("count(Person);").unwrap();
        assert_eq!(v[0], Outcome::Value(Value::Int(2)));
        // And the definition no longer contains the failed statement.
        s.execute("class Adult includes (select P from Person where P.Age >= 21);")
            .unwrap();
    }

    #[test]
    fn focus_switching() {
        let mut s = loaded_session();
        s.execute("create view V; import all classes from database Staff;")
            .unwrap();
        // Switch back to the database and mutate it.
        s.focus(sym("Staff")).unwrap();
        s.execute(r#"insert Person value [Name: "New", Age: 50];"#)
            .unwrap();
        // The view sees the new person.
        s.focus(sym("V")).unwrap();
        let v = s.execute("count(Person);").unwrap();
        assert_eq!(v[0], Outcome::Value(Value::Int(3)));
    }

    #[test]
    fn updates_through_focused_view() {
        let mut s = loaded_session();
        s.execute(
            "create view V; import all classes from database Staff; \
             hide attribute Salary in class Employee;",
        )
        .unwrap();
        s.execute("set maggy.Age = 67;").unwrap();
        let v = s.execute("maggy.Age;").unwrap();
        assert_eq!(v[0], Outcome::Value(Value::Int(67)));
        // Hidden attributes reject assignment through the view.
        assert!(s.execute(r#"set maggy.Salary = 1;"#).is_err());
    }

    #[test]
    fn base_schema_changes_rebind_views() {
        let mut s = loaded_session();
        s.execute("create view V; import all classes from database Staff;")
            .unwrap();
        s.focus(sym("Staff")).unwrap();
        s.execute("attribute Doubled in class Person has value self.Age * 2;")
            .unwrap();
        s.focus(sym("V")).unwrap();
        let v = s.execute("maggy.Doubled;").unwrap();
        assert_eq!(v[0], Outcome::Value(Value::Int(132)));
    }

    #[test]
    fn statements_need_focus() {
        let mut s = Session::new();
        assert!(s.execute("select 1 from X in {1};").is_err());
        assert!(s.execute("class C type [X: integer];").is_err());
    }

    #[test]
    fn duplicate_view_rejected() {
        let mut s = loaded_session();
        s.execute("create view V;").unwrap();
        assert!(s.execute("create view V;").is_err());
    }

    #[test]
    fn describe_lists_everything() {
        let mut s = loaded_session();
        s.execute("create view V; import all classes from database Staff;")
            .unwrap();
        let d = s.describe();
        assert!(d.contains("database Staff"));
        assert!(d.contains("class Person"));
        assert!(d.contains("view V"));
    }

    #[test]
    fn explain_reports_type_and_optimization() {
        let mut s = loaded_session();
        s.execute(
            "create view V; import all classes from database Staff; \
             class Adult includes (select P from Person where P.Age >= 21);",
        )
        .unwrap();
        let e = s
            .explain(sym("V"), "select A.Name from A in Adult")
            .unwrap();
        assert!(e.contains("type:      {string}"), "got: {e}");
        let e = s.explain(sym("V"), "1 + 2 * 3").unwrap();
        assert!(e.contains("optimized: 7"), "got: {e}");
        let e = s.explain(sym("Staff"), "maggy.Ghost").unwrap();
        assert!(e.contains("type:      error"), "got: {e}");
        // Execution failures are reported, not fatal.
        assert!(e.contains("execution: error"), "got: {e}");
    }

    #[test]
    fn explain_renders_population_plans() {
        let mut s = loaded_session();
        s.execute(
            "create view V; import all classes from database Staff; \
             class Adult includes (select P from Person where P.Age >= 21);",
        )
        .unwrap();
        // Cold: the trace shows the executed stages and the recompute path.
        let e = s
            .explain(sym("V"), "select A.Name from A in Adult")
            .unwrap();
        assert!(e.contains("execute"), "got: {e}");
        assert!(e.contains("population Adult: FullRecompute"), "got: {e}");
        // Warm: same query now reports the cache hit — the exact rendering
        // `View::explain` produces, surfaced through `.explain` in ovq.
        let e = s
            .explain(sym("V"), "select A.Name from A in Adult")
            .unwrap();
        assert!(e.contains("population Adult: CacheHit"), "got: {e}");
        assert!(e.contains("rows: "), "got: {e}");
        // And `.plan` renders a single population line.
        let p = s.explain_population(sym("V"), sym("Adult")).unwrap();
        assert!(p.starts_with("population Adult: CacheHit"), "got: {p}");
    }

    #[test]
    fn save_and_restore_a_whole_session() {
        let mut s = loaded_session();
        s.execute(
            r#"
            database Extra;
            class Thing type [Label: string];
            -- Session-persistent `#k` literals are global to the session,
            -- so this must not reuse Staff's #1/#2.
            object #10 in Thing value [Label: "t"];
            "#,
        )
        .unwrap();
        // A spouse pair made by `insert` and `set`, and a stored attribute
        // typed by a class declared after its own: the saved script names
        // each before it is declared, so it restores only as one run.
        s.execute(
            r#"
            database Firm;
            class Dept type [Title: string];
            class Emp type [Name: string, Spouse: Emp];
            attribute Head of type Emp in class Dept;
            insert Emp value [Name: "Ann"];
            insert Emp value [Name: "Bob"];
            set (select the E from E in Emp where E.Name = "Ann").Spouse =
                (select the E from E in Emp where E.Name = "Bob");
            set (select the E from E in Emp where E.Name = "Bob").Spouse =
                (select the E from E in Emp where E.Name = "Ann");
            insert Dept value [Title: "R&D"];
            set (select the D from D in Dept).Head = (select the E from E in Emp where E.Name = "Bob");
            "#,
        )
        .unwrap();
        s.execute(
            "create view V; import all classes from database Staff;              class Adult includes (select P from Person where P.Age >= 21);",
        )
        .unwrap();
        let script = s.save();
        // Restore into a brand-new session.
        let mut restored = Session::new();
        restored.execute(&script).unwrap_or_else(|e| {
            panic!(
                "restore failed: {e}
{script}"
            )
        });
        assert_eq!(
            restored.query(sym("V"), "count(Adult)").unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            restored.query(sym("Staff"), "maggy.Age").unwrap(),
            Value::Int(66)
        );
        assert_eq!(
            restored.query(sym("Extra"), "count(Thing)").unwrap(),
            Value::Int(1)
        );
        // The restored spouses read back their names.
        let ann = r#"(select the E from E in Emp where E.Name = "Ann")"#;
        for (path, name) in [("Spouse", "Bob"), ("Spouse.Spouse", "Ann")] {
            assert_eq!(
                restored
                    .query(sym("Firm"), &format!("{ann}.{path}.Name"))
                    .unwrap(),
                Value::str(name)
            );
        }
        assert_eq!(
            restored
                .query(sym("Firm"), "(select the D from D in Dept).Head.Name")
                .unwrap(),
            Value::str("Bob")
        );
        // Saving the restored session reproduces the same script (fixpoint).
        assert_eq!(restored.save(), script);
    }

    /// A script's base statements execute in runs that end at a `database`
    /// or view statement: a failing statement stops the script with its own
    /// error, earlier runs stay applied, and a reference resolves within
    /// its run only.
    #[test]
    fn a_script_executes_base_statements_in_runs() {
        let mut s = Session::new();
        let err = s
            .execute(
                "database D; class T type [N: integer]; insert T value [N: 1]; \
                 database E; insert Nope value [N: 2]; class U type [N: integer];",
            )
            .unwrap_err();
        assert!(err.to_string().contains("Nope"), "{err}");
        assert_eq!(s.query(sym("D"), "count(T)").unwrap(), Value::Int(1));
        // Pass 0 of the failing run declared `U` before pass 2 stopped.
        assert_eq!(s.query(sym("E"), "count(U)").unwrap(), Value::Int(0));
        // Within one run a class type and an object value may name what the
        // run declares later ...
        s.execute(
            "database F; class A type [B: Bee]; class Bee type [A: A]; \
             object #1 in A value [B: #2]; object #2 in Bee value [A: #1]; name a = #1;",
        )
        .unwrap();
        assert_eq!(s.query(sym("F"), "a.B.A = a").unwrap(), Value::Bool(true));
        // ... but not across a `database` or a view statement.
        for script in [
            "database G; class A type [B: Bee]; database G; class Bee type [X: integer];",
            "database H; class A type [B: Bee]; create view W; database H; \
             class Bee type [X: integer];",
            // (An unmapped `#k` stands for the raw oid `k`: the literals are
            // high so that no object of this process has that oid.)
            "database F; object #900001 in A value [B: #900002]; database F; \
             object #900002 in Bee value [];",
        ] {
            assert!(s.execute(script).is_err(), "{script}");
        }
        assert!(s.view(sym("W")).is_none());
    }

    /// The planner switch is a session setting: it governs this session's
    /// reads and leaves the thread's own setting alone.
    #[test]
    fn the_planner_switch_scopes_to_the_session() {
        let mut s = loaded_session();
        let q = "select P from P in Person where P.Age > 1";
        let planned = |s: &Session| s.explain(sym("Staff"), q).unwrap().contains("planner:");
        assert!(planned(&s));
        s.set_planner(Some(false));
        assert!(!planned(&s));
        assert!(ov_query::planner_enabled());
        s.set_planner(None);
        assert!(planned(&s));
    }

    /// Two sessions on two threads with *different* planner switches run
    /// concurrently; each session's statements see its own switch (visible
    /// as the EXPLAIN `planner:` line, present or not) and the spawning
    /// thread's switch is untouched afterwards.
    #[test]
    fn concurrent_sessions_scope_their_planner_switches() {
        let default_before = ov_query::planner_enabled();
        let run = |on: bool| {
            // AlwaysRecompute so every explain records a fresh scan.
            let mut s = Session::with_options(
                ViewOptions::builder()
                    .materialization(Materialization::AlwaysRecompute)
                    .build(),
            );
            s.execute(
                r#"
                database Staff;
                class Person type [Name: string, Age: integer];
                object #1 in Person value [Name: "Maggy", Age: 66];
                create view V;
                import all classes from database Staff;
                class Adult includes (select P from Person where P.Age >= 21);
                "#,
            )
            .unwrap();
            s.set_planner(Some(on));
            let q = "select A from A in Adult where A.Age > 30";
            for _ in 0..20 {
                assert_eq!(s.query(sym("V"), "count(Adult)").unwrap(), Value::Int(1));
                let e = s.explain(sym("V"), q).unwrap();
                assert_eq!(e.contains("planner:"), on, "planner {on}: got {e}");
            }
        };
        std::thread::scope(|scope| {
            scope.spawn(|| run(true));
            scope.spawn(|| run(false));
        });
        assert_eq!(ov_query::planner_enabled(), default_before);
    }

    /// Satellite regression (stale upstream): redefining an upstream view
    /// must rebind the dependent over the new definition, not leave it
    /// reading the old one's populations.
    #[test]
    fn redefining_an_upstream_view_recompiles_dependents() {
        let mut s = loaded_session();
        // A (Adult: Age >= 21) feeds B (Named: a virtual class over A's
        // Adult). Both predicates compile at bind.
        s.execute(
            "create view A; import all classes from database Staff; \
             class Adult includes (select P from Person where P.Age >= 21);",
        )
        .unwrap();
        s.execute(
            "create view B; import all classes from view A; \
             class Senior includes (select X from Adult where X.Age >= 21);",
        )
        .unwrap();
        assert_eq!(s.query(sym("B"), "count(Senior)").unwrap(), Value::Int(2));
        // Redefine A through the catalog: Adult's threshold moves 21 → 60.
        // B reads Adult from the A it was bound over, so B must be rebound
        // over the new A — read from the old one, Senior would still
        // admit Tony (30).
        let mut def = s.views[&sym("A")].def().clone();
        for el in &mut def.elements {
            if let ViewElement::VirtualClass(vc) = el {
                vc.includes = vec![ov_query::IncludeSpec::Query(
                    ov_query::parse_select("select P from Person where P.Age >= 60").unwrap(),
                )];
            }
        }
        s.catalog().redefine_view(def).unwrap();
        assert_eq!(s.query(sym("A"), "count(Adult)").unwrap(), Value::Int(1));
        assert_eq!(s.query(sym("B"), "count(Senior)").unwrap(), Value::Int(1));
    }

    /// Satellite regression (resolution-cache staleness): a compiled scan
    /// warmed before a mid-session `hide` must not serve the stale
    /// resolution afterwards. (The within-one-`View` half — warm slot
    /// caches across a template instantiation — is covered by the
    /// resolution generation counter; see `View::res_gen` and the
    /// `generation_bump_invalidates_warm_slot_caches` test in `ov-query`.)
    #[test]
    fn hide_then_rescan_does_not_serve_stale_resolution() {
        let mut s = loaded_session();
        s.execute("create view V; import all classes from database Staff;")
            .unwrap();
        // Warm the compiled scan path over Employee.Salary.
        assert_eq!(
            s.query(sym("V"), "select E.Salary from E in Employee")
                .unwrap(),
            Value::set([Value::Int(50000)])
        );
        // Hide it mid-session, then rescan the exact same query.
        s.focus(sym("V")).unwrap();
        s.execute("hide attribute Salary in class Employee;")
            .unwrap();
        let after = s.query(sym("V"), "select E.Salary from E in Employee");
        assert!(
            after.is_err(),
            "hidden attribute must not resolve from a warm cache: {after:?}"
        );
    }

    #[test]
    fn query_by_target_name() {
        let mut s = loaded_session();
        s.execute(
            "create view V; import all classes from database Staff; \
             class Adult includes (select P from Person where P.Age >= 21);",
        )
        .unwrap();
        assert_eq!(s.query(sym("V"), "count(Adult)").unwrap(), Value::Int(2));
        assert_eq!(
            s.query(sym("Staff"), "count(Person)").unwrap(),
            Value::Int(2)
        );
    }
}
