//! # objects-and-views — umbrella crate
//!
//! A faithful, from-scratch Rust reproduction of **“Objects and Views”**
//! (Serge Abiteboul & Anthony Bonner, SIGMOD 1991): a view mechanism for
//! object-oriented databases with virtual attributes, import/hide, virtual
//! classes (specialization, generalization, behavioral generalization,
//! parameterized classes), inferred class hierarchies, and imaginary objects
//! with stable identity.
//!
//! This crate re-exports the workspace's public API:
//!
//! * [`oodb`] — the O₂-style data model and object store;
//! * [`query`] — the query/DDL language (parser, type inference, evaluator);
//! * [`views`] — the paper's view mechanism (the core contribution);
//! * [`relational`] — a minimal relational engine bridged into views.
//!
//! For application code, [`prelude`] flattens the common surface of all
//! four layers into one import, and [`Error`] unifies their error enums:
//!
//! ```
//! use objects_and_views::prelude::*;
//!
//! fn demo() -> Result<(), objects_and_views::Error> {
//!     let mut sys = System::new();
//!     execute_script(&mut sys, r#"
//!         database Staff;
//!         class Person type [Name: string, Age: integer];
//!         object #1 in Person value [Name: "Maggy", Age: 65];
//!     "#)?;
//!     let view = ViewDef::new("V")
//!         .import_all("Staff")
//!         .binder(&sys)
//!         .options(
//!             ViewOptions::builder()
//!                 .materialization(Materialization::AlwaysRecompute)
//!                 .build(),
//!         )
//!         .bind()?;
//!     assert_eq!(run_query(&view, "count(Person)")?, Value::Int(1));
//!     Ok(())
//! }
//! demo().unwrap();
//! ```
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the reproduction experiments.

pub use ov_oodb as oodb;
pub use ov_query as query;
pub use ov_relational as relational;
pub use ov_views as views;

mod error;

pub use error::Error;

/// One-stop imports: the surface that examples, tests, and typical
/// applications touch, flattened from all four layers.
pub mod prelude {
    pub use crate::oodb::{
        sym, ClassId, ConflictPolicy, Durability, Oid, Symbol, System, Type, Value,
    };
    pub use crate::query::{execute_script, run_query, DataSource};
    pub use crate::relational::{bridge, Relation, RelationalDb};
    pub use crate::views::{
        Binder, CatalogTxn, DdlOutcome, DepEdge, DepTarget, DependencyGraph, IdentityMode,
        Materialization, Outcome, Session, View, ViewDef, ViewError, ViewHealth, ViewOptions,
        ViewOptionsBuilder, ViewStats,
    };
    pub use crate::Error;
}
