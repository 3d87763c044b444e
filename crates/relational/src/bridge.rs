//! The relational → object bridge.
//!
//! "Creating an object-oriented view of a relational database. Typically,
//! this means creating new objects from database tuples" (§5). The bridge
//! works in two steps:
//!
//! 1. [`stage`] loads the relational database into a *staging* object
//!    database: one class `<R>_Rows` per relation `R`, one (real) object
//!    per row — pure plumbing, invisible to end users;
//! 2. [`object_view`] builds a view over the staging database with, per
//!    relation, one **imaginary class** `R` whose core attributes are the
//!    relation's columns. The §5.1 identity tables then guarantee that the
//!    same row keeps the same object identity across re-staging — the
//!    relational world's value semantics is lifted into object identity
//!    exactly the way the paper prescribes.
//!
//! [`restage`] refreshes the staging database after relational updates;
//! unchanged rows keep their imaginary oids.

use std::fmt::Write as _;

use ov_oodb::{AttrDef, Database, DbHandle, Symbol, System, Tuple, Value};
use ov_views::{View, ViewDef, ViewError};

use crate::db::RelationalDb;
use crate::relation::RelError;

/// Errors from the bridge.
#[derive(Debug)]
pub enum BridgeError {
    /// From the relational layer.
    Rel(RelError),
    /// From the view layer.
    View(ViewError),
    /// From the data-model layer.
    Oodb(ov_oodb::OodbError),
}

impl std::fmt::Display for BridgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BridgeError::Rel(e) => write!(f, "{e}"),
            BridgeError::View(e) => write!(f, "{e}"),
            BridgeError::Oodb(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BridgeError {}

impl From<RelError> for BridgeError {
    fn from(e: RelError) -> Self {
        BridgeError::Rel(e)
    }
}
impl From<ViewError> for BridgeError {
    fn from(e: ViewError) -> Self {
        BridgeError::View(e)
    }
}
impl From<ov_oodb::OodbError> for BridgeError {
    fn from(e: ov_oodb::OodbError) -> Self {
        BridgeError::Oodb(e)
    }
}

/// The staging database's name for a relational database.
pub fn staging_name(rdb: &RelationalDb) -> Symbol {
    Symbol::new(&format!("{}_Staged", rdb.name))
}

/// The staging class name for relation `r`.
pub fn rows_class(r: Symbol) -> Symbol {
    Symbol::new(&format!("{r}_Rows"))
}

/// Creates a staging object database from `rdb` and registers it in a fresh
/// [`System`]. Returns the system and the staging handle.
pub fn stage(rdb: &RelationalDb) -> Result<(System, DbHandle), BridgeError> {
    let mut sys = System::new();
    let mut db = Database::new(staging_name(rdb));
    load_into(rdb, &mut db)?;
    sys.add_database(db)?;
    let handle = sys.database(staging_name(rdb))?;
    Ok((sys, handle))
}

/// (Re)loads the staging database in `system` from the current contents of
/// `rdb`: existing row objects are deleted and fresh ones inserted. Views
/// over the staging database see the change through their version-keyed
/// caches; imaginary identity tables keep unchanged rows' oids stable.
pub fn restage(rdb: &RelationalDb, system: &System) -> Result<(), BridgeError> {
    let handle = system.database(staging_name(rdb))?;
    let mut db = handle.write();
    // Remove all existing row objects.
    let all: Vec<ov_oodb::Oid> = db.store.sorted_oids();
    for oid in all {
        db.delete_object(oid)?;
    }
    // Reinsert from the relational store (classes already exist).
    for rel_name in rdb.relation_names() {
        let rel = rdb.relation(rel_name)?;
        let class = db.schema.require_class(rows_class(rel_name))?;
        for row in rel.scan() {
            let tuple = row_tuple(rel.columns(), row);
            db.create_object(class, Value::Tuple(tuple))?;
        }
    }
    Ok(())
}

fn load_into(rdb: &RelationalDb, db: &mut Database) -> Result<(), BridgeError> {
    for rel_name in rdb.relation_names() {
        let rel = rdb.relation(rel_name)?;
        let attrs: Vec<AttrDef> = rel
            .columns()
            .iter()
            .map(|(c, t)| AttrDef::stored(*c, t.clone()))
            .collect();
        let class = db.create_class(rows_class(rel_name), &[], attrs)?;
        for row in rel.scan() {
            let tuple = row_tuple(rel.columns(), row);
            db.create_object(class, Value::Tuple(tuple))?;
        }
    }
    Ok(())
}

fn row_tuple(columns: &[(Symbol, ov_oodb::Type)], row: &[Value]) -> Tuple {
    Tuple::from_fields(
        columns
            .iter()
            .zip(row)
            .filter(|(_, v)| !v.is_null())
            .map(|((c, _), v)| (*c, v.clone())),
    )
}

/// Generates the view-definition script that presents each relation as an
/// imaginary class named after it.
pub fn view_script(rdb: &RelationalDb) -> Result<String, BridgeError> {
    let mut out = String::new();
    let _ = writeln!(out, "create view {}_Objects;", rdb.name);
    let _ = writeln!(
        out,
        "import all classes from database {};",
        staging_name(rdb)
    );
    for rel_name in rdb.relation_names() {
        let rel = rdb.relation(rel_name)?;
        let _ = write!(out, "class {rel_name} includes imaginary (select [");
        for (i, (c, _)) in rel.columns().iter().enumerate() {
            if i > 0 {
                let _ = write!(out, ", ");
            }
            let _ = write!(out, "{c}: T.{c}");
        }
        let _ = writeln!(out, "] from T in {});", rows_class(rel_name));
        // The staging class is plumbing: hide it from view users.
        let _ = writeln!(out, "hide class {};", rows_class(rel_name));
    }
    Ok(out)
}

/// Builds and binds the object view of `rdb` over a system that already
/// contains its staging database (see [`stage`]).
pub fn object_view(rdb: &RelationalDb, system: &System) -> Result<View, BridgeError> {
    let script = view_script(rdb)?;
    let def = ViewDef::from_script(&script)?;
    Ok(def.binder(system).bind()?)
}

/// The inverse direction: flattens an object database into relations
/// (first normal form). Per class, one relation over the class's *stored*
/// attributes with atomic types; object references become integer
/// `<Attr>_oid` columns; set/list/tuple-valued attributes are dropped
/// (they do not fit 1NF — export a materialized view that restructures
/// them first if you need them). Rows come from shallow extents, so the
/// unique-root rule maps to disjoint relations.
pub fn export(db: &Database, name: Symbol) -> Result<RelationalDb, BridgeError> {
    use ov_oodb::{Type, Value};
    let mut rdb = RelationalDb::new(name);
    for class in db.schema.classes() {
        let stored = db.schema.stored_attr_types(class.id);
        let mut columns: Vec<(Symbol, Type)> = Vec::new();
        // (attribute, as-oid-column) in a deterministic order.
        let mut picked: Vec<(Symbol, bool)> = Vec::new();
        for (attr, ty) in &stored {
            match ty {
                Type::Bool | Type::Int | Type::Float | Type::Str => {
                    columns.push((*attr, ty.clone()));
                    picked.push((*attr, false));
                }
                Type::Class(_) | Type::Any => {
                    columns.push((Symbol::new(&format!("{attr}_oid")), Type::Int));
                    picked.push((*attr, true));
                }
                _ => {} // non-1NF: dropped
            }
        }
        rdb.create_relation(crate::relation::Relation::new(class.name, columns))?;
        for oid in db.store.extent(class.id) {
            let obj = db.store.require(oid)?;
            let row: Vec<Value> = picked
                .iter()
                .map(|(attr, as_oid)| {
                    let v = obj.value.get(*attr).cloned().unwrap_or(Value::Null);
                    if *as_oid {
                        match v {
                            Value::Oid(o) => Value::Int(o.0 as i64),
                            _ => Value::Null,
                        }
                    } else {
                        v
                    }
                })
                .collect();
            rdb.insert(class.name, row)?;
        }
    }
    Ok(rdb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use ov_oodb::{sym, Type};

    fn payroll() -> RelationalDb {
        let mut rdb = RelationalDb::new(sym("Payroll"));
        rdb.create_relation(Relation::new(
            sym("Emp"),
            vec![
                (sym("EName"), Type::Str),
                (sym("Dept"), Type::Str),
                (sym("Salary"), Type::Int),
            ],
        ))
        .unwrap();
        rdb.create_relation(Relation::new(
            sym("Dept"),
            vec![(sym("DName"), Type::Str), (sym("Head"), Type::Str)],
        ))
        .unwrap();
        rdb.insert(
            sym("Emp"),
            vec![Value::str("Tony"), Value::str("DB"), Value::Int(100)],
        )
        .unwrap();
        rdb.insert(
            sym("Emp"),
            vec![Value::str("Ann"), Value::str("OS"), Value::Int(120)],
        )
        .unwrap();
        rdb.insert(sym("Dept"), vec![Value::str("DB"), Value::str("Ann")])
            .unwrap();
        rdb
    }

    #[test]
    fn tuples_become_imaginary_objects() {
        let rdb = payroll();
        let (sys, _) = stage(&rdb).unwrap();
        let view = object_view(&rdb, &sys).unwrap();
        let emps = view.extent_of(sym("Emp")).unwrap();
        assert_eq!(emps.len(), 2);
        assert!(emps.iter().all(|o| o.is_imaginary()));
        assert_eq!(
            view.query("select E.EName from E in Emp where E.Salary > 110")
                .unwrap(),
            Value::set([Value::str("Ann")])
        );
        // The staging plumbing is hidden.
        assert!(view.query("select R from R in Emp_Rows").is_err());
    }

    #[test]
    fn identity_stable_across_restaging() {
        let mut rdb = payroll();
        let (sys, _) = stage(&rdb).unwrap();
        let view = object_view(&rdb, &sys).unwrap();
        let before = view.extent_of(sym("Emp")).unwrap();
        // Add a row and re-stage: old rows keep their oids.
        rdb.insert(
            sym("Emp"),
            vec![Value::str("Zoe"), Value::str("DB"), Value::Int(90)],
        )
        .unwrap();
        restage(&rdb, &sys).unwrap();
        let after = view.extent_of(sym("Emp")).unwrap();
        assert_eq!(after.len(), 3);
        for o in &before {
            assert!(after.contains(o), "pre-existing row changed identity");
        }
        // The identity tables are the system's: a second view over it
        // reads the same oids.
        let again = object_view(&rdb, &sys).unwrap();
        assert_eq!(again.extent_of(sym("Emp")).unwrap(), after);
    }

    #[test]
    fn updated_rows_change_identity() {
        // Row contents *are* the core attributes: updating a row is a new
        // imaginary object — the relational world has value semantics.
        let mut rdb = payroll();
        let (sys, _) = stage(&rdb).unwrap();
        let view = object_view(&rdb, &sys).unwrap();
        let before = view.extent_of(sym("Emp")).unwrap();
        rdb.relation_mut(sym("Emp"))
            .unwrap()
            .update(
                |r| r[0] == Value::str("Tony"),
                sym("Salary"),
                Value::Int(101),
            )
            .unwrap();
        restage(&rdb, &sys).unwrap();
        let after = view.extent_of(sym("Emp")).unwrap();
        assert_eq!(after.len(), 2);
        assert_ne!(before, after);
        // Ann's row is untouched and keeps its oid.
        let ann_kept = before.iter().filter(|o| after.contains(o)).count();
        assert_eq!(ann_kept, 1);
    }

    #[test]
    fn multiple_relations_multiple_classes() {
        let rdb = payroll();
        let (sys, _) = stage(&rdb).unwrap();
        let view = object_view(&rdb, &sys).unwrap();
        assert_eq!(view.extent_of(sym("Dept")).unwrap().len(), 1);
        // Imaginary classes per relation are distinct: no oid overlap.
        let emps = view.extent_of(sym("Emp")).unwrap();
        let depts = view.extent_of(sym("Dept")).unwrap();
        assert!(emps.iter().all(|o| !depts.contains(o)));
    }

    #[test]
    fn joins_across_imaginary_classes() {
        let rdb = payroll();
        let (sys, _) = stage(&rdb).unwrap();
        let view = object_view(&rdb, &sys).unwrap();
        // Who works in a department headed by Ann?
        let v = view
            .query(
                "select E.EName from E in Emp, D in Dept \
                 where E.Dept = D.DName and D.Head = \"Ann\"",
            )
            .unwrap();
        assert_eq!(v, Value::set([Value::str("Tony")]));
    }

    #[test]
    fn export_flattens_objects_to_relations() {
        let mut db = Database::new(sym("Obj"));
        let person = db
            .create_class(
                sym("Person"),
                &[],
                vec![
                    ov_oodb::AttrDef::stored(sym("Name"), Type::Str),
                    ov_oodb::AttrDef::stored(sym("Age"), Type::Int),
                    ov_oodb::AttrDef::stored(sym("Spouse"), Type::Class(ov_oodb::ClassId(0))),
                    ov_oodb::AttrDef::stored(sym("Kids"), Type::set(Type::Str)),
                ],
            )
            .unwrap();
        let a = db
            .create_object(
                person,
                Value::tuple([("Name", Value::str("A")), ("Age", Value::Int(1))]),
            )
            .unwrap();
        db.create_object(
            person,
            Value::tuple([
                ("Name", Value::str("B")),
                ("Age", Value::Int(2)),
                ("Spouse", Value::Oid(a)),
            ]),
        )
        .unwrap();
        let rdb = export(&db, sym("Flat")).unwrap();
        let rel = rdb.relation(sym("Person")).unwrap();
        // Kids (a set) is dropped; Spouse becomes Spouse_oid: integer.
        let cols: Vec<&str> = rel.columns().iter().map(|(c, _)| c.as_str()).collect();
        assert_eq!(cols, vec!["Age", "Name", "Spouse_oid"]);
        assert_eq!(rel.len(), 2);
        let b_row: Vec<_> = rel
            .select(|r| r[1] == Value::str("B"))
            .next()
            .unwrap()
            .to_vec();
        assert_eq!(b_row[2], Value::Int(a.0 as i64));
    }

    #[test]
    fn roundtrip_relational_object_relational() {
        let rdb = payroll();
        let (sys, handle) = stage(&rdb).unwrap();
        let _ = sys;
        // Export the staging database back out: same rows.
        let back = export(&handle.read(), sym("Back")).unwrap();
        let rel = back.relation(sym("Emp_Rows")).unwrap();
        assert_eq!(rel.len(), rdb.relation(sym("Emp")).unwrap().len());
        // Every original row survives (column order may differ).
        let names: std::collections::BTreeSet<Value> = rel
            .project(&[sym("EName")])
            .unwrap()
            .into_iter()
            .map(|mut r| r.remove(0))
            .collect();
        assert!(names.contains(&Value::str("Tony")));
        assert!(names.contains(&Value::str("Ann")));
    }

    #[test]
    fn view_script_is_readable_ddl() {
        let rdb = payroll();
        let script = view_script(&rdb).unwrap();
        assert!(script.contains("create view Payroll_Objects;"));
        assert!(script.contains("class Emp includes imaginary"));
        assert!(script.contains("hide class Emp_Rows;"));
    }
}
