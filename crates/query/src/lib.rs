//! # ov-query — the O₂-style query and DDL language
//!
//! The language layer of the *Objects and Views* reproduction: a lexer, a
//! recursive-descent parser for expressions / queries / schema DDL / view
//! DDL, static type inference, and two engines that run against any
//! [`DataSource`] — a base `ov_oodb::Database` or an `ov_views::View` ("A
//! view should be treated as a database", paper §6): a bytecode compiler
//! that runs every loop, and a tree-walking evaluator for statements that
//! touch a few objects.
//!
//! ## Quick taste
//!
//! ```
//! use ov_oodb::{System, Value, sym};
//! use ov_query::{execute_script, run_query};
//!
//! let mut sys = System::new();
//! execute_script(&mut sys, r#"
//!     database Staff;
//!     class Person type [Name: string, Age: integer];
//!     object #1 in Person value [Name: "Maggy", Age: 65];
//! "#).unwrap();
//! let db = sys.database(sym("Staff")).unwrap();
//! let v = run_query(&*db.read(), "select P.Name from P in Person where P.Age >= 21").unwrap();
//! assert_eq!(v, Value::set([Value::str("Maggy")]));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod budget;
pub mod compile;
mod ctx;
pub mod error;
pub mod eval;
pub mod exec;
pub mod fingerprint;
pub mod lexer;
pub mod optimize;
pub mod parser;
pub mod plan;
pub mod planner;
pub mod rowtest;
pub mod source;
pub mod typecheck;

pub use ast::{ImportWhat, IncludeSpec, Stmt, TypeExpr};
pub use budget::{Budget, BudgetBreach};
pub use compile::{
    compile_fallbacks, compile_predicate, compile_select_scan, engine_mode, run_scan, run_select,
    with_engine_mode, EngineMode, Program, Scan, SelectScan,
};
pub use ctx::{in_view, view_depth, view_frame, view_populating, ViewFrame};
pub use error::{Pos, QueryError, Result, SourceError};
pub use eval::{eval_attr, eval_expr, eval_select, truthy, value_eq, Env, Evaluator};
pub use exec::{
    execute_script, execute_stmts, execute_stmts_with_map, map_select, resolve_type, rewrite_expr,
    run_expr, run_query, run_query_with_budget,
};
pub use fingerprint::{fingerprint_expr, fingerprint_hash, fingerprint_query};
pub use optimize::{fold, optimize_expr, optimize_select};
pub use parser::{parse_expr, parse_program, parse_select, parse_type};
pub use plan::{
    run_query_traced, Engine, PlanChoice, PopPath, PopulationTrace, QueryTrace, ScanActuals,
    ScanEvent, Stage,
};
pub use planner::{
    clear_plan_cache, planner_enabled, with_planner, Decision as PlanDecision,
    Strategy as PlanStrategy,
};
pub use rowtest::{scan_rows, RowSpec, RowTest};
pub use source::{require_class, DataSource, ResolvedAttr, SourceGraph};
pub use typecheck::{
    infer, infer_expr, infer_select, infer_select_in, referenced_classes,
    referenced_classes_select, type_of_value, TypeEnv,
};
