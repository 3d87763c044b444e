//! Typed DDL over a session's catalog: databases, classes, and views.
//!
//! A session never hands out its [`ov_oodb::System`] mutably
//! ([`Session::system`](crate::Session::system) is a shared reference):
//! every definition, redefinition, and drop goes through a
//! [`CatalogTxn`], which consults the session's
//! [dependency graph](crate::graph::DependencyGraph) and returns a typed
//! [`DdlOutcome`]:
//!
//! * **acyclic** — a view definition that would close a dependency cycle
//!   is rejected at bind time ([`crate::ViewError::CyclicViewDependency`]);
//! * **RESTRICT** — dropping a view another view reads returns
//!   [`DdlOutcome::Rejected`] with the dependents, and nothing changes;
//! * **stage, then commit** — a change first binds every view it touches
//!   (a redefined view, then each transitive dependent in topological
//!   order) against the state it would produce, then installs them all or
//!   none: a dependent that fails leaves the session as it was
//!   ([`crate::ViewError::RevalidationFailed`]). A view redefinition is
//!   rolled back; a base schema change is refused before it applies, its
//!   declarations having run against a schema-only candidate
//!   ([`ov_oodb::System::with_schema_only`]).
//!
//! ```
//! use ov_views::{DdlOutcome, Session, ViewDef};
//!
//! let mut session = Session::new();
//! session.catalog().create_database("Staff").unwrap();
//! session
//!     .catalog()
//!     .define_class("Staff", "class Person type [Name: string, Age: integer];")
//!     .unwrap();
//! let def = ViewDef::from_script(
//!     "create view Grown_Ups; \
//!      import all classes from database Staff; \
//!      class Adult includes (select P from Person where P.Age >= 21);",
//! )
//! .unwrap();
//! assert!(matches!(
//!     session.catalog().define_view(def).unwrap(),
//!     DdlOutcome::Defined(_)
//! ));
//! ```

use ov_oodb::Symbol;
use ov_query::{parse_program, Stmt};

use crate::def::ViewDef;
use crate::error::{Result, ViewError};
use crate::graph::{DepEdge, DepTarget};
use crate::session::Session;

/// What a DDL operation did — the typed result of every [`CatalogTxn`]
/// mutation, so callers branch on outcomes instead of parsing notices.
#[derive(Clone, PartialEq, Debug)]
pub enum DdlOutcome {
    /// The database, class, or view was created.
    Defined(Symbol),
    /// The view was dropped (it had no dependents).
    Dropped(Symbol),
    /// The drop was refused: these views still read the target
    /// (RESTRICT semantics). Nothing was changed.
    Rejected {
        /// What the caller tried to drop.
        name: Symbol,
        /// The views that read it, sorted.
        dependents: Vec<Symbol>,
    },
    /// The (re)definition committed, and this many transitive dependents
    /// were atomically rebound against the new state.
    Revalidated {
        /// The database or view that changed.
        changed: Symbol,
        /// How many dependent views were rebound.
        dependents: usize,
    },
}

/// A handle for typed DDL against one [`Session`]'s catalog.
///
/// Obtained from [`Session::catalog`]; each operation is self-contained
/// (validate → apply → revalidate dependents) and leaves the session
/// unchanged on error.
pub struct CatalogTxn<'s> {
    session: &'s mut Session,
}

impl<'s> CatalogTxn<'s> {
    pub(crate) fn new(session: &'s mut Session) -> CatalogTxn<'s> {
        CatalogTxn { session }
    }

    /// Creates database `name` as the `database` statement does — durable
    /// in a durable session (idempotent: an existing database of that name
    /// is left untouched).
    pub fn create_database(&mut self, name: impl Into<Symbol>) -> Result<DdlOutcome> {
        let name = name.into();
        self.session.create_database(name)?;
        Ok(DdlOutcome::Defined(name))
    }

    /// Runs schema DDL (`class …;` / `attribute …;` declarations only)
    /// against database `db`, revalidating the database's transitive
    /// dependents in topological order. The declarations run against a
    /// schema-only candidate first: if a dependent would no longer bind,
    /// the change is refused with [`ViewError::RevalidationFailed`] before
    /// any of it applies, and the views keep their bound state.
    pub fn define_class(&mut self, db: impl Into<Symbol>, script: &str) -> Result<DdlOutcome> {
        let db = db.into();
        let stmts = parse_program(script).map_err(ViewError::from)?;
        for stmt in &stmts {
            if !matches!(stmt, Stmt::ClassDecl { .. } | Stmt::AttributeDecl { .. }) {
                return Err(ViewError::Definition(
                    "catalog define_class accepts only `class` and `attribute` declarations".into(),
                ));
            }
        }
        let n = self.session.run_on_database(db, &stmts, |_| {})?;
        Ok(DdlOutcome::Revalidated {
            changed: db,
            dependents: n,
        })
    }

    /// Defines a new view from `def`, binding it against the session's
    /// databases and existing views (so `import all classes from V`
    /// stacks). Rejects a duplicate name and any definition that would
    /// close a dependency cycle.
    pub fn define_view(&mut self, def: ViewDef) -> Result<DdlOutcome> {
        let name = def.name;
        self.session.define_view(def)?;
        Ok(DdlOutcome::Defined(name))
    }

    /// Replaces the definition of an existing view, atomically
    /// revalidating every transitive dependent: either the new definition
    /// and all rebound dependents commit together, or nothing changes and
    /// the error says which dependent refused
    /// ([`ViewError::RevalidationFailed`]).
    pub fn redefine_view(&mut self, def: ViewDef) -> Result<DdlOutcome> {
        let name = def.name;
        if !self.session.views.contains_key(&name) {
            return Err(ViewError::Definition(format!(
                "view `{name}` does not exist (use `define_view` to create it)"
            )));
        }
        let n = self.session.put_view(def)?;
        Ok(DdlOutcome::Revalidated {
            changed: name,
            dependents: n,
        })
    }

    /// Drops view `name`, bound or kept unbound
    /// ([`crate::UnboundView`]) — RESTRICT: if another definition, bound or
    /// kept, imports it, returns [`DdlOutcome::Rejected`] listing them and
    /// changes nothing.
    pub fn drop_view(&mut self, name: impl Into<Symbol>) -> Result<DdlOutcome> {
        let name = name.into();
        let kept = self
            .session
            .unbound_views()
            .iter()
            .any(|u| u.def.name == name);
        if !kept && !self.session.views.contains_key(&name) {
            return Err(ViewError::Definition(format!(
                "view `{name}` does not exist"
            )));
        }
        let dependents = self.session.importers(name);
        if !dependents.is_empty() {
            return Ok(DdlOutcome::Rejected { name, dependents });
        }
        if kept {
            self.session.forget_unbound(name);
        } else {
            self.session.remove_view(name);
        }
        self.session.persist_views_best_effort();
        Ok(DdlOutcome::Dropped(name))
    }

    /// The dependency edges of view `name`, if it exists.
    pub fn dependencies(&self, name: impl Into<Symbol>) -> Option<Vec<DepEdge>> {
        self.session.graph.deps_of(name.into()).map(<[_]>::to_vec)
    }

    /// Every view that (transitively) reads `target`, in topological
    /// order.
    pub fn dependents(&self, target: DepTarget) -> Vec<Symbol> {
        self.session.graph.transitive_dependents(target)
    }
}
