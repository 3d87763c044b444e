//! A database: a named schema plus an object store plus named roots.
//!
//! This is the unit the view mechanism imports from: "In general, there can
//! be many databases in a system. … one database can use data from other
//! databases via *import* statements" (§3).

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use crate::durable::DurableCore;
use crate::error::{OodbError, Result};
use crate::ids::{ClassId, Oid};
use crate::resolve::{resolve_with_policy, ConflictPolicy};
use crate::schema::{AttrDef, Schema};
use crate::store::{Store, StoredObject};
use crate::symbol::Symbol;
use crate::types::{ClassGraph, Type};
use crate::value::{Tuple, Value};
use crate::wal::{Durability, WalRecord};

/// A named database.
#[derive(Clone, Debug)]
pub struct Database {
    /// The database's name (how imports refer to it).
    pub name: Symbol,
    /// The class schema.
    pub schema: Schema,
    /// The object store.
    pub store: Store,
    /// Named root objects (O₂'s persistence roots; handy in examples).
    names: HashMap<Symbol, Oid>,
}

impl Database {
    /// An empty database called `name`.
    pub fn new(name: Symbol) -> Database {
        Database {
            name,
            schema: Schema::new(),
            store: Store::new(),
            names: HashMap::new(),
        }
    }

    /// Opens (or creates) a **durable** database rooted at the directory
    /// `dir`: loads the latest snapshot if one exists (the WAL is scanned
    /// beside it, see [`DurableCore::open`]), seats the store in bulk,
    /// registers the secondary-index definitions, replays the WAL tail,
    /// re-seats the journal floor at the recovered version, and attaches
    /// the durability core so every subsequent mutation is redo-logged.
    /// The database numbers fresh objects past every oid it recovered and
    /// past the next oid its snapshot recorded (a deleted oid stays
    /// retired), from an allocator of its own until it joins a system
    /// ([`crate::System::add_database`]), which checks that its oids are
    /// disjoint from those of the databases already there. The §5.1
    /// imaginary identity tables recovered alongside (from the snapshot and
    /// the tail's identity records) seed the system's identity store when
    /// it joins, and the core keeps no copy of them after.
    ///
    /// No index is built here, nor by the replay: each is built by its
    /// first probe (see [`Store::create_index`]), whose statement it
    /// charges no rows and no steps.
    pub fn open(name: Symbol, dir: &Path, durability: Durability) -> Result<Database> {
        let mut replay = crate::event::Event::RecoveryReplay.open();
        replay.field("db", name);
        let (core, snapshot, tail) = DurableCore::open(dir, durability)?;
        let mut db = Database::new(name);
        if let Some(img) = snapshot {
            db.schema = img.restore_schema()?;
            db.store
                .restore(img.objects, img.store_version, img.next_oid)?;
            db.names = img.names.into_iter().collect();
            // Indexes are derived: register the persisted definitions, for
            // the first probe of each to build. The durability core is not
            // attached yet, so nothing re-logs.
            for (class, attr) in img.index_defs {
                db.store.create_index(class, attr);
            }
        }
        let mut replayed = 0u64;
        for (lsn, rec) in tail {
            db.apply_wal_record(rec).map_err(|e| {
                OodbError::corrupt(format!("recovery: replay of LSN {lsn} failed: {e}"))
            })?;
            replayed += 1;
        }
        // A Remove in the WAL tail does not carry the name-map cleanup its
        // original `delete_object` performed; drop bindings to dead oids.
        let store = &db.store;
        db.names.retain(|_, oid| store.get(*oid).is_some());
        db.store.seal_recovery();
        db.store.attach_durable(core);
        replay.field("replayed", replayed);
        replay.field("version", db.store.version());
        replay.close(replayed);
        Ok(db)
    }

    /// Applies one WAL record during recovery replay (never re-logged:
    /// the durability core is attached only after replay finishes).
    /// Identity records are a no-op here — [`DurableCore::open`] already
    /// built the recovered identity tables from them.
    fn apply_wal_record(&mut self, rec: WalRecord) -> Result<()> {
        match rec {
            WalRecord::Insert { oid, class, value } => {
                self.store.insert_with_oid(oid, class, value)?;
            }
            WalRecord::Update { oid, value } => self.store.update(oid, value)?,
            WalRecord::SetField { oid, name, value } => self.store.set_field(oid, name, value)?,
            WalRecord::Remove { oid } => {
                self.store.remove(oid)?;
            }
            WalRecord::CreateIndex { class, attr } => self.store.create_index(class, attr),
            WalRecord::DropIndex { class, attr } => {
                self.store.drop_index(class, attr);
            }
            WalRecord::NameBind { name, oid } => {
                self.names.insert(name, oid);
            }
            WalRecord::AddClass {
                name,
                parents,
                attrs,
            } => {
                self.schema.add_class(name, &parents, attrs)?;
            }
            WalRecord::AddAttr { class, def } => self.schema.add_attr(class, def)?,
            WalRecord::IdentityAssign { .. } | WalRecord::IdentityDrop { .. } => {}
        }
        Ok(())
    }

    /// A copy of this database that keeps what a schema change and a view
    /// bind read of it: the schema, the names and the objects they name
    /// (the typechecker reads a named object's class). It holds no other
    /// object and no durability core, so nothing done to it is logged.
    pub fn schema_only(&self) -> Result<Database> {
        let mut copy = Database::new(self.name);
        copy.schema = self.schema.clone();
        for (&name, &oid) in &self.names {
            if copy.store.get(oid).is_none() {
                let obj = self.store.require(oid)?;
                copy.store
                    .insert_with_oid(oid, obj.class, obj.value.clone())?;
            }
            copy.names.insert(name, oid);
        }
        Ok(copy)
    }

    /// The durability core, when this database was opened with
    /// [`Database::open`]. Views hold a clone to log identity assignments.
    pub fn durable_core(&self) -> Option<Arc<DurableCore>> {
        self.store.durable().cloned()
    }

    /// Writes a snapshot checkpoint of the current state and truncates the
    /// WAL behind it. Errors if the database is not durable.
    pub fn checkpoint(&self) -> Result<()> {
        let core = self.store.durable().ok_or_else(|| OodbError::Io {
            context: "checkpoint".to_string(),
            message: "database was not opened durably".to_string(),
        })?;
        core.checkpoint(|img| {
            img.name = self.name;
            img.store_version = self.store.version();
            img.next_oid = self.store.oids.next();
            img.capture_schema(&self.schema);
            img.objects = self.store.iter().cloned().collect();
            img.names = self.names();
            img.index_defs = self.store.index_defs();
        })
    }

    /// Creates a class; see [`Schema::add_class`].
    ///
    /// On a durable database the DDL is validated against a trial copy of
    /// the schema, WAL-logged, and only then applied — the log never
    /// contains a record that would fail to replay, and a failed append
    /// leaves the schema untouched.
    pub fn create_class(
        &mut self,
        name: Symbol,
        parents: &[ClassId],
        attrs: Vec<AttrDef>,
    ) -> Result<ClassId> {
        if let Some(core) = self.store.durable().cloned() {
            let mut trial = self.schema.clone();
            let id = trial.add_class(name, parents, attrs.clone())?;
            core.log(&WalRecord::AddClass {
                name,
                parents: parents.to_vec(),
                attrs,
            })?;
            self.schema = trial;
            Ok(id)
        } else {
            self.schema.add_class(name, parents, attrs)
        }
    }

    /// Adds (or redefines) an attribute on a class; see
    /// [`Schema::add_attr`]. WAL-logged on durable databases — callers
    /// should prefer this over mutating [`Database::schema`] directly so
    /// schema DDL survives a crash.
    pub fn add_attr(&mut self, class: ClassId, def: AttrDef) -> Result<()> {
        if let Some(core) = self.store.durable().cloned() {
            let mut trial = self.schema.clone();
            trial.add_attr(class, def.clone())?;
            core.log(&WalRecord::AddAttr { class, def })?;
            self.schema = trial;
            Ok(())
        } else {
            self.schema.add_attr(class, def)
        }
    }

    /// Creates an object *real* in `class` (unique root rule) with the given
    /// stored attribute values. Fields are validated against the class's
    /// stored attribute types; missing stored attributes are filled with
    /// `null` (DECISION: the paper is silent on partial objects; O₂ allowed
    /// undefined values), unknown fields are rejected.
    pub fn create_object(&mut self, class: ClassId, value: Value) -> Result<Oid> {
        let tuple = match value {
            Value::Tuple(t) => t,
            other => {
                // "When the value is not a tuple … it can be treated as a
                // tuple with a single field" (§2); we follow that literally
                // with a field named `Value`.
                Tuple::from_fields([(Symbol::new("Value"), other)])
            }
        };
        let stored = self.schema.stored_attr_types(class);
        for (name, v) in tuple.iter() {
            let ty = stored.get(&name).ok_or(OodbError::UnknownAttr {
                class: self.schema.class(class).name,
                attr: name,
            })?;
            self.check_value(v, ty, &format!("attribute `{name}`"))?;
        }
        let mut full = tuple;
        for name in stored.keys() {
            if !full.has(*name) {
                full.set(*name, Value::Null);
            }
        }
        // Before the insert: a firing failpoint rejects the creation with
        // no store state touched. A WAL append failure behaves the same
        // way (redo logging happens before the in-memory apply).
        crate::failpoint!("store.insert");
        self.store.insert(class, full)
    }

    /// Reads a stored attribute of `oid`, resolving the attribute name along
    /// the hierarchy. Computed attributes cannot be read here — evaluate
    /// them with `ov-query`.
    pub fn stored_attr(&self, oid: Oid, name: Symbol) -> Result<&Value> {
        let obj = self.store.require(oid)?;
        self.stored_def(obj.class, name)?;
        Ok(obj.value.get(name).unwrap_or(&Value::Null))
    }

    /// Updates a stored attribute of `oid`, type-checked.
    pub fn set_attr(&mut self, oid: Oid, name: Symbol, value: Value) -> Result<()> {
        let class = self.store.require(oid)?.class;
        let def = self.stored_def(class, name)?;
        self.check_value(&value, &def.sig.ty, &format!("attribute `{name}`"))?;
        self.store.set_field(oid, name, value)
    }

    /// The stored definition `name` resolves to on `class` (else
    /// [`OodbError::NotStored`]) — by creation order, as the query path and
    /// [`Schema::stored_attr_types`] resolve it.
    fn stored_def(&self, class: ClassId, name: Symbol) -> Result<&AttrDef> {
        let (_, def) =
            resolve_with_policy(&self.schema, class, name, &ConflictPolicy::CreationOrder)?;
        if !def.is_stored() {
            return Err(OodbError::NotStored {
                class: self.schema.class(class).name,
                attr: name,
            });
        }
        Ok(def)
    }

    /// Deletes an object. References to it elsewhere become dangling
    /// (DECISION: the paper does not define deletion semantics; we expose
    /// [`Database::dangling_refs`] as an integrity check).
    pub fn delete_object(&mut self, oid: Oid) -> Result<StoredObject> {
        self.names.retain(|_, &mut o| o != oid);
        self.store.remove(oid)
    }

    /// Binds a persistent name to an object.
    pub fn name_object(&mut self, name: Symbol, oid: Oid) -> Result<()> {
        self.store.require(oid)?;
        if self.names.contains_key(&name) {
            return Err(OodbError::DuplicateName(name));
        }
        if let Some(core) = self.store.durable() {
            core.log(&WalRecord::NameBind { name, oid })?;
        }
        self.names.insert(name, oid);
        Ok(())
    }

    /// Resolves a persistent name.
    pub fn named(&self, name: Symbol) -> Result<Oid> {
        self.names
            .get(&name)
            .copied()
            .ok_or(OodbError::UnknownName(name))
    }

    /// All `(name, oid)` bindings, name-ordered.
    pub fn names(&self) -> Vec<(Symbol, Oid)> {
        let mut v: Vec<(Symbol, Oid)> = self.names.iter().map(|(n, o)| (*n, *o)).collect();
        v.sort();
        v
    }

    /// The *deep* extent of `class`: objects real in it or in any
    /// (transitive) subclass, in oid order. This is what a class denotes in
    /// a query.
    pub fn deep_extent(&self, class: ClassId) -> Vec<Oid> {
        let mut out: Vec<Oid> = self.store.extent(class).collect();
        for sub in self.schema.strict_descendants(class) {
            out.extend(self.store.extent(sub));
        }
        out.sort();
        out
    }

    /// Is `oid` a (possibly virtual) member of `class`?
    pub fn is_member(&self, oid: Oid, class: ClassId) -> bool {
        self.store
            .get(oid)
            .is_some_and(|o| self.schema.is_subclass(o.class, class))
    }

    /// The database's mutation version (see [`Store::version`]).
    pub fn version(&self) -> u64 {
        self.store.version()
    }

    /// Checks `value` against `ty`, including class-membership of oid
    /// references.
    pub fn check_value(&self, value: &Value, ty: &Type, context: &str) -> Result<()> {
        if self.value_conforms(value, ty) {
            Ok(())
        } else {
            Err(OodbError::TypeMismatch {
                context: context.to_string(),
                expected: format!("{}", ty.display(&self.schema)),
                found: format!("{value} ({})", value.kind()),
            })
        }
    }

    /// Does `value` inhabit `ty`? `null` inhabits every type.
    pub fn value_conforms(&self, value: &Value, ty: &Type) -> bool {
        match (value, ty) {
            (Value::Null, _) => true,
            (_, Type::Any) => true,
            (_, Type::Nothing) => false,
            (Value::Bool(_), Type::Bool) => true,
            (Value::Int(_), Type::Int) | (Value::Int(_), Type::Float) => true,
            (Value::Float(_), Type::Float) => true,
            (Value::Str(_), Type::Str) => true,
            (Value::Oid(o), Type::Class(c)) => self.is_member(*o, *c),
            (Value::Tuple(t), Type::Tuple(fields)) => fields
                .iter()
                .all(|(name, ft)| t.get(*name).is_none_or(|v| self.value_conforms(v, ft))),
            (Value::Set(s), Type::Set(et)) => s.iter().all(|v| self.value_conforms(v, et)),
            (Value::List(l), Type::List(et)) => l.iter().all(|v| self.value_conforms(v, et)),
            _ => false,
        }
    }

    /// Creates secondary indexes on `attr` for `class` **and every
    /// subclass** (indexes cover shallow extents; deep lookups combine
    /// them). The attribute must be stored on the class.
    pub fn create_index(&mut self, class: ClassId, attr: Symbol) -> Result<()> {
        self.stored_def(class, attr)?;
        self.store.create_index(class, attr);
        for sub in self.schema.strict_descendants(class) {
            self.store.create_index(sub, attr);
        }
        Ok(())
    }

    /// Indexed lookup over the **deep** extent of `class`: all objects
    /// (real in the class or a subclass) whose stored `attr` equals
    /// `value`, in oid order. `None` when any class in the subtree lacks
    /// the index — or does not resolve `attr` to the stored field: "the
    /// same attribute may be stored in one class and computed in a
    /// subclass" (§2), and an index covers stored values only, so the
    /// answer would miss (or wrongly include) the overriding class's
    /// objects.
    pub fn indexed_deep_lookup(
        &self,
        class: ClassId,
        attr: Symbol,
        value: &Value,
    ) -> Option<Vec<Oid>> {
        let mut out = Vec::new();
        for c in std::iter::once(class).chain(self.schema.strict_descendants(class)) {
            self.stored_def(c, attr).ok()?;
            out.extend(self.store.index_lookup(c, attr, value)?);
        }
        out.sort();
        out.dedup();
        Some(out)
    }

    /// Returns every `(holder, referenced)` pair where `holder`'s value
    /// references an oid that is no longer in the store.
    pub fn dangling_refs(&self) -> Vec<(Oid, Oid)> {
        let mut out = Vec::new();
        for obj in self.store.iter() {
            let mut oids = Vec::new();
            for (_, v) in obj.value.iter() {
                v.collect_oids(&mut oids);
            }
            for r in oids {
                if !r.is_imaginary() && self.store.get(r).is_none() {
                    out.push((obj.oid, r));
                }
            }
        }
        out.sort();
        out
    }
}

/// A database's hierarchy is its schema's.
impl ClassGraph for Database {
    fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.schema.is_subclass(sub, sup)
    }

    fn ancestors(&self, c: ClassId) -> Vec<ClassId> {
        self.schema.ancestors(c)
    }

    fn class_name(&self, c: ClassId) -> Symbol {
        self.schema.class(c).name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    /// Concurrent readers may share a `&Database` (or hold simultaneous
    /// read guards on a `DbHandle`); all mutation takes `&mut self`.
    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<crate::catalog::DbHandle>();
    }

    fn staff_db() -> (Database, ClassId, ClassId) {
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
        let employee = db
            .create_class(
                sym("Employee"),
                &[person],
                vec![AttrDef::stored(sym("Salary"), Type::Int)],
            )
            .unwrap();
        (db, person, employee)
    }

    /// The checkpoint image lists objects in the table's own order, so it
    /// is a function of the store's contents, not of how they got there: a
    /// store filled by inserts and deletes and the equal store recovery
    /// rebuilt from its snapshot write the same pages. (The header numbers
    /// the checkpoint, which does count how the store got there.)
    #[test]
    fn checkpoints_of_equal_stores_are_byte_identical() {
        let dir = std::env::temp_dir().join(format!("ov-db-test-{}-ckpt", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The pages: what follows the 36-byte header and its crc.
        let snapshot =
            || std::fs::read(dir.join(crate::pager::SNAPSHOT_FILE)).unwrap()[40..].to_vec();
        let first = {
            let mut db = Database::open(sym("Staff"), &dir, Durability::Wal).unwrap();
            let item = db
                .create_class(sym("Item"), &[], vec![AttrDef::stored(sym("N"), Type::Int)])
                .unwrap();
            let oids: Vec<Oid> = (0..700)
                .map(|n| {
                    db.create_object(item, Value::tuple([("N", Value::Int(n))]))
                        .unwrap()
                })
                .collect();
            for oid in oids.iter().rev().step_by(3) {
                db.delete_object(*oid).unwrap();
            }
            db.set_attr(oids[1], sym("N"), Value::Int(-1)).unwrap();
            db.checkpoint().unwrap();
            snapshot()
        };
        let db = Database::open(sym("Staff"), &dir, Durability::Wal).unwrap();
        assert_eq!(db.store.len(), 466);
        db.checkpoint().unwrap();
        assert!(first == snapshot(), "snapshot bytes differ");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash after a checkpoint's snapshot is renamed into place and
    /// before its log is reset — or a reset that failed — leaves the log of
    /// the checkpoint before beside the new snapshot. The snapshot holds
    /// every record of that log, so the open resets it instead of
    /// replaying them a second time, and the log then follows the snapshot.
    #[test]
    fn a_log_its_snapshot_already_holds_is_not_replayed() {
        let dir = std::env::temp_dir().join(format!("ov-db-test-{}-reset", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = dir.join(crate::durable::WAL_FILE);
        let open = || Database::open(sym("Staff"), &dir, Durability::WalSync).unwrap();
        let row = |n: i64| Value::tuple([("N", Value::Int(n))]);
        let class = {
            let mut db = open();
            let def = AttrDef::stored(sym("N"), Type::Int);
            let class = db.create_class(sym("P"), &[], vec![def]).unwrap();
            db.create_object(class, row(1)).unwrap();
            let before = std::fs::read(&wal).unwrap();
            db.checkpoint().unwrap();
            std::fs::write(&wal, before).unwrap();
            class
        };
        {
            let mut db = open();
            assert_eq!(db.store.len(), 1);
            db.create_object(class, row(2)).unwrap();
        }
        assert_eq!(open().store.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_and_read_object() {
        let (mut db, person, _) = staff_db();
        let o = db
            .create_object(
                person,
                Value::tuple([("Name", Value::str("Maggy")), ("Age", Value::Int(65))]),
            )
            .unwrap();
        assert_eq!(db.stored_attr(o, sym("Age")).unwrap(), &Value::Int(65));
    }

    #[test]
    fn missing_stored_fields_default_to_null() {
        let (mut db, person, _) = staff_db();
        let o = db
            .create_object(person, Value::tuple([("Name", Value::str("X"))]))
            .unwrap();
        assert_eq!(db.stored_attr(o, sym("Age")).unwrap(), &Value::Null);
    }

    #[test]
    fn unknown_field_rejected() {
        let (mut db, person, _) = staff_db();
        let err = db
            .create_object(person, Value::tuple([("Wings", Value::Int(2))]))
            .unwrap_err();
        assert!(matches!(err, OodbError::UnknownAttr { .. }));
    }

    #[test]
    fn type_mismatch_rejected_on_create_and_set() {
        let (mut db, person, _) = staff_db();
        let err = db
            .create_object(person, Value::tuple([("Age", Value::str("old"))]))
            .unwrap_err();
        assert!(matches!(err, OodbError::TypeMismatch { .. }));
        let o = db
            .create_object(person, Value::tuple([("Age", Value::Int(1))]))
            .unwrap();
        let err = db.set_attr(o, sym("Age"), Value::Bool(true)).unwrap_err();
        assert!(matches!(err, OodbError::TypeMismatch { .. }));
    }

    #[test]
    fn deep_extent_includes_subclasses() {
        let (mut db, person, employee) = staff_db();
        let p = db
            .create_object(person, Value::tuple([("Age", Value::Int(30))]))
            .unwrap();
        let e = db
            .create_object(employee, Value::tuple([("Salary", Value::Int(100))]))
            .unwrap();
        assert_eq!(db.deep_extent(person), vec![p, e]);
        assert_eq!(db.deep_extent(employee), vec![e]);
        // Unique root: e is *real* only in Employee.
        assert_eq!(db.store.extent(person).collect::<Vec<_>>(), vec![p]);
    }

    #[test]
    fn membership_is_virtual_upward() {
        let (mut db, person, employee) = staff_db();
        let e = db
            .create_object(employee, Value::tuple([("Age", Value::Int(3))]))
            .unwrap();
        assert!(db.is_member(e, person));
        assert!(db.is_member(e, employee));
    }

    #[test]
    fn class_typed_references_are_checked() {
        let mut db = Database::new(sym("D"));
        let person = db.create_class(sym("Person"), &[], vec![]).unwrap();
        let dog = db.create_class(sym("Dog"), &[], vec![]).unwrap();
        let friendly = db
            .create_class(
                sym("Owner"),
                &[],
                vec![AttrDef::stored(sym("Pet"), Type::Class(dog))],
            )
            .unwrap();
        let fido = db.create_object(dog, Value::empty_tuple()).unwrap();
        let alice = db.create_object(person, Value::empty_tuple()).unwrap();
        assert!(db
            .create_object(friendly, Value::tuple([("Pet", Value::Oid(fido))]))
            .is_ok());
        let err = db
            .create_object(friendly, Value::tuple([("Pet", Value::Oid(alice))]))
            .unwrap_err();
        assert!(matches!(err, OodbError::TypeMismatch { .. }));
    }

    #[test]
    fn named_roots() {
        let (mut db, person, _) = staff_db();
        let o = db.create_object(person, Value::empty_tuple()).unwrap();
        db.name_object(sym("maggy"), o).unwrap();
        assert_eq!(db.named(sym("maggy")).unwrap(), o);
        assert!(db.name_object(sym("maggy"), o).is_err());
        db.delete_object(o).unwrap();
        assert!(db.named(sym("maggy")).is_err(), "deleting clears names");
    }

    #[test]
    fn set_attr_rejects_computed() {
        let (mut db, person, _) = staff_db();
        db.schema
            .add_attr(
                person,
                AttrDef::computed(
                    sym("Greeting"),
                    Type::Str,
                    crate::Expr::lit(Value::str("hi")),
                ),
            )
            .unwrap();
        let o = db.create_object(person, Value::empty_tuple()).unwrap();
        let err = db
            .set_attr(o, sym("Greeting"), Value::str("x"))
            .unwrap_err();
        assert!(matches!(err, OodbError::NotStored { .. }));
    }

    #[test]
    fn dangling_refs_detected() {
        let mut db = Database::new(sym("D"));
        let c = db
            .create_class(
                sym("Node"),
                &[],
                vec![AttrDef::stored(sym("Next"), Type::Class(ClassId(0)))],
            )
            .unwrap();
        let a = db.create_object(c, Value::empty_tuple()).unwrap();
        let b = db
            .create_object(c, Value::tuple([("Next", Value::Oid(a))]))
            .unwrap();
        assert!(db.dangling_refs().is_empty());
        // Bypass set_attr's check by deleting after linking.
        db.delete_object(a).unwrap();
        assert_eq!(db.dangling_refs(), vec![(b, a)]);
    }

    #[test]
    fn indexed_deep_lookup_spans_subclasses() {
        let (mut db, person, employee) = staff_db();
        let p = db
            .create_object(person, Value::tuple([("Age", Value::Int(30))]))
            .unwrap();
        let e = db
            .create_object(
                employee,
                Value::tuple([("Age", Value::Int(30)), ("Salary", Value::Int(1))]),
            )
            .unwrap();
        db.create_object(person, Value::tuple([("Age", Value::Int(31))]))
            .unwrap();
        db.create_index(person, sym("Age")).unwrap();
        let hits = db
            .indexed_deep_lookup(person, sym("Age"), &Value::Int(30))
            .unwrap();
        assert_eq!(hits, vec![p, e]);
        // Index maintained under updates.
        db.set_attr(p, sym("Age"), Value::Int(31)).unwrap();
        let hits = db
            .indexed_deep_lookup(person, sym("Age"), &Value::Int(30))
            .unwrap();
        assert_eq!(hits, vec![e]);
        // Unindexed attribute: no answer.
        assert!(db
            .indexed_deep_lookup(person, sym("Name"), &Value::str("x"))
            .is_none());
    }

    #[test]
    fn index_requires_stored_attribute() {
        let (mut db, person, _) = staff_db();
        assert!(matches!(
            db.create_index(person, sym("Wings")),
            Err(OodbError::UnknownAttr { .. })
        ));
        db.schema
            .add_attr(
                person,
                AttrDef::computed(sym("Virt"), Type::Int, crate::Expr::lit(Value::Int(1))),
            )
            .unwrap();
        assert!(matches!(
            db.create_index(person, sym("Virt")),
            Err(OodbError::NotStored { .. })
        ));
    }

    #[test]
    fn non_tuple_values_wrap_in_a_single_field() {
        let mut db = Database::new(sym("D"));
        let c = db
            .create_class(
                sym("Tag"),
                &[],
                vec![AttrDef::stored(sym("Value"), Type::Str)],
            )
            .unwrap();
        let o = db.create_object(c, Value::str("hello")).unwrap();
        assert_eq!(
            db.stored_attr(o, sym("Value")).unwrap(),
            &Value::str("hello")
        );
    }
}
