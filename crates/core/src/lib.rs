//! # ov-views — the view mechanism of *Objects and Views* (SIGMOD 1991)
//!
//! This crate is the paper's contribution: a view mechanism for
//! object-oriented databases. A view is defined by a [`ViewDef`] — imports,
//! hides, virtual attributes, virtual classes — and bound against a
//! [`ov_oodb::System`] to produce a [`View`], which implements
//! [`ov_query::DataSource`] and is therefore queryable exactly like a
//! database.
//!
//! Feature map (paper section → API):
//!
//! | Paper | Here |
//! |---|---|
//! | §2 virtual attributes, overloading | [`ViewDef::virtual_attr`], `attribute … has value …` |
//! | §3 import / hide | [`ViewDef::import_all`], [`ViewDef::hide_attr`], [`ViewDef::hide_class`] |
//! | §4.1 specialization / generalization / behavioral | `class C includes …` with queries, class names, `like B` |
//! | §4.1 parameterized classes | `class C(X) includes …`, [`View::instantiate`] |
//! | §4.2 hierarchy inference (R1/R2) | [`infer::infer_position`] |
//! | §4.2 upward resolution, one rule for typing and evaluation | [`ov_oodb::resolve`] |
//! | §4.3 upward inheritance, schizophrenia | [`infer::upward_attrs`], [`ov_oodb::ConflictPolicy`] |
//! | §5 imaginary objects | `class C includes imaginary (select …)` |
//! | §5.1 identity tables | [`IdentityMode::Table`] (and the naive [`IdentityMode::Fresh`] baseline) |
//!
//! ## Quick taste
//!
//! ```
//! use ov_oodb::{System, sym, Value};
//! use ov_query::execute_script;
//! use ov_views::ViewDef;
//!
//! let mut sys = System::new();
//! execute_script(&mut sys, r#"
//!     database People;
//!     class Person type [Name: string, Age: integer];
//!     object #1 in Person value [Name: "Maggy", Age: 65];
//!     object #2 in Person value [Name: "Bart", Age: 10];
//! "#).unwrap();
//!
//! let view = ViewDef::from_script(r#"
//!     create view Grown_Ups;
//!     import all classes from database People;
//!     class Adult includes (select P from Person where P.Age >= 21);
//! "#).unwrap().binder(&sys).bind().unwrap();
//!
//! let names = view.query("select A.Name from A in Adult").unwrap();
//! assert_eq!(names, Value::set([Value::str("Maggy")]));
//! ```

#![warn(missing_docs)]

#[deny(missing_docs)]
pub mod catalog;
pub mod def;
pub mod error;
#[deny(missing_docs)]
pub mod graph;
pub mod infer;
pub mod materialize;
pub mod session;
pub mod view;

pub use catalog::{CatalogTxn, DdlOutcome};
pub use def::{AttrDecl, Hide, Import, ViewDef, ViewElement, VirtualClassDef};
pub use error::{Result, ViewError};
pub use graph::{DepEdge, DepTarget, DependencyGraph};
pub use session::{Outcome, Session};
pub use view::{
    Binder, IdentityMode, Materialization, View, ViewHealth, ViewOptions, ViewOptionsBuilder,
    ViewStats,
};

#[cfg(test)]
mod tests;
