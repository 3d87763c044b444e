//! # ov-oodb — an O₂-style object-oriented database engine
//!
//! This crate is the storage and data-model substrate for the reproduction of
//! *Objects and Views* (Abiteboul & Bonner, SIGMOD 1991). The paper presents
//! its view mechanism "in the context of the O₂ model" (§2); this crate
//! implements that model from the paper's description:
//!
//! * a database is a **hierarchy of classes** with multiple inheritance;
//! * each class has an associated **type**; every object in a class has a
//!   value of that type (assumed to be a tuple, per the paper);
//! * classes have **attributes** attached, where — following the paper's
//!   central simplification — stored values and methods are *not*
//!   distinguished: an attribute may be stored or computed, and may take
//!   arguments ("These virtual attributes may have zero or more arguments
//!   (besides the receiver)");
//! * **inheritance of types and methods** and **method overloading**;
//! * the **unique root rule**: an object is *real* in exactly one class and
//!   virtual in every superclass;
//! * **upward resolution** of attributes along the class hierarchy, with
//!   detection of multiple-inheritance conflicts (the paper's
//!   *schizophrenia*).
//!
//! The crate deliberately contains no query language and no view mechanism:
//! those live in `ov-query` and `ov-views` respectively. What it does export
//! is everything those layers need — an interned [`Symbol`] type, total-ordered
//! [`Value`]s, a structural+nominal [`Type`] lattice with subtyping and
//! least-upper-bound computation, a [`Schema`] of classes, a versioned object
//! [`Store`], and a multi-database [`System`] catalog.
//!
//! ## Quick taste
//!
//! ```
//! use ov_oodb::{Database, Type, Value, AttrDef, sym};
//!
//! let mut db = Database::new(sym("Staff"));
//! let person = db
//!     .create_class(sym("Person"), &[], vec![
//!         AttrDef::stored(sym("Name"), Type::Str),
//!         AttrDef::stored(sym("Age"), Type::Int),
//!     ])
//!     .unwrap();
//! let maggy = db
//!     .create_object(person, Value::tuple([("Name", Value::str("Maggy")), ("Age", Value::Int(65))]))
//!     .unwrap();
//! assert_eq!(db.stored_attr(maggy, sym("Age")).unwrap(), &Value::Int(65));
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod codec;
pub mod database;
pub mod dump;
pub mod durable;
pub mod error;
pub mod event;
pub mod expr;
pub mod faults;
pub mod identity;
pub mod ids;
mod index;
pub mod metrics;
pub mod pager;
pub mod resolve;
pub mod schema;
pub mod stats;
pub mod store;
pub mod symbol;
pub mod trace;
pub mod types;
pub mod value;
pub mod wal;

pub use catalog::{DbHandle, System};
pub use database::Database;
pub use dump::{
    dump_database, dump_database_with_offset, read_checked, wrap_checked, DUMP_FORMAT, DUMP_MAGIC,
};
pub use durable::{DurableCore, WalStatus};
pub use error::{OodbError, Result};
pub use expr::{AggFunc, BinOp, Expr, SelectExpr, UnOp};
pub use faults::{FaultAction, FaultSchedule, InjectedFault};
pub use identity::{IdentityStore, ImaginaryObject};
pub use ids::{ClassId, DbId, Oid};
pub use metrics::{
    profiling_enabled, registry, set_profiling, slow_queries, workload, Counter, Histogram,
    MetricsRegistry, MetricsSnapshot, SlowQuery, SlowQueryLog, WorkloadEntry, WorkloadRegistry,
};
pub use pager::{IdentityEntry, SnapshotImage};
pub use resolve::{resolve_attr, ConflictPolicy, Resolution};
pub use schema::{AttrBody, AttrDef, AttrSig, Class, Schema};
pub use stats::{stats, AttrStatistics, ClassStatistics, ClassStats, Statistics, StatsRegistry};
pub use store::{Store, StoredObject};
pub use symbol::{sym, Symbol};
pub use trace::{recorder, FieldValue, SpanGuard, SpanRecord, TraceRecorder};
pub use types::{ClassGraph, Type};
pub use value::{Tuple, Value};
pub use wal::{Durability, Wal, WalRecord};
