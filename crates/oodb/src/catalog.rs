//! The system catalog: many named databases in one system.
//!
//! "In general, there can be many databases in a system. In such systems,
//! one database can use data from other databases via *import* statements"
//! (§3). The [`System`] is what a view binds against: it resolves database
//! names, hands out shared, lock-protected handles, and owns the identity
//! of every object: the base-oid allocator its databases share, and the
//! §5.1 identity of every imaginary class ([`IdentityStore`]).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::database::Database;
use crate::error::{OodbError, Result};
use crate::identity::IdentityStore;
use crate::ids::DbId;
use crate::symbol::Symbol;

/// A shared handle to a database.
pub type DbHandle = Arc<RwLock<Database>>;

/// A catalog of named databases. Clones share the databases' handles, the
/// base-oid allocator and the identity tables.
#[derive(Clone, Default)]
pub struct System {
    databases: Vec<DbHandle>,
    by_name: HashMap<Symbol, DbId>,
    /// The base-oid allocator of every database that joined: no two of
    /// them hand out one oid.
    oids: crate::store::OidAllocator,
    /// The identity tables of every imaginary class (§5.1). Every bind of a
    /// view against this system reads them, so a rebind keeps every oid
    /// and no two views hand out the same oid.
    identity: Arc<IdentityStore>,
}

impl System {
    /// An empty catalog.
    pub fn new() -> System {
        System::default()
    }

    /// The identity tables of this system's imaginary classes.
    pub fn identity(&self) -> &Arc<IdentityStore> {
        &self.identity
    }

    /// Registers a database under its own name. It is refused with
    /// [`OodbError::SharedOid`] if it holds an oid a joined database holds
    /// too: databases filled by two systems (two roots, two processes)
    /// both number from `#0`. Once it joins, it draws fresh oids from the
    /// system's allocator, raised past its own. A durable database seeds
    /// the identity tables with the assignments it recovered, and from then
    /// on checkpoints the system's tables ([`crate::DurableCore`]).
    pub fn add_database(&mut self, mut db: Database) -> Result<DbId> {
        let name = db.name;
        if self.by_name.contains_key(&name) {
            return Err(OodbError::DuplicateDatabase(name));
        }
        // Raised before the check: an insert into a joined database from
        // here on cannot take one of the joining database's oids.
        self.oids.raise_past(&db.store.oids);
        for joined in &self.databases {
            let joined = joined.read();
            if let Some(oid) = db.store.shared_oid(&joined.store) {
                return Err(OodbError::SharedOid {
                    joining: name,
                    joined: joined.name,
                    oid,
                });
            }
        }
        db.store.oids = self.oids.clone();
        if let Some(core) = db.durable_core() {
            core.join(&self.identity);
        }
        // Unreachable expect: 2^32 databases would exhaust memory first.
        let id = DbId(u32::try_from(self.databases.len()).expect("catalog overflow"));
        self.databases.push(Arc::new(RwLock::new(db)));
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Creates and registers an empty database.
    pub fn create_database(&mut self, name: Symbol) -> Result<DbHandle> {
        let id = self.add_database(Database::new(name))?;
        Ok(self.databases[id.0 as usize].clone())
    }

    /// The handle for database `name`.
    pub fn database(&self, name: Symbol) -> Result<DbHandle> {
        let id = self
            .by_name
            .get(&name)
            .copied()
            .ok_or(OodbError::UnknownDatabase(name))?;
        Ok(self.databases[id.0 as usize].clone())
    }

    /// The system a schema change to database `name` is validated against
    /// before it applies: a clone of this one in which `name` is replaced
    /// by its [`Database::schema_only`] copy. The other databases, the oid
    /// allocator and the identity tables are shared, as in any clone.
    pub fn with_schema_only(&self, name: Symbol) -> Result<System> {
        let id = self
            .by_name
            .get(&name)
            .copied()
            .ok_or(OodbError::UnknownDatabase(name))?;
        let copy = self.databases[id.0 as usize].read().schema_only()?;
        let mut candidate = self.clone();
        candidate.databases[id.0 as usize] = Arc::new(RwLock::new(copy));
        Ok(candidate)
    }

    /// All database names, sorted.
    pub fn names(&self) -> Vec<Symbol> {
        let mut v: Vec<Symbol> = self.by_name.keys().copied().collect();
        v.sort();
        v
    }

    /// Number of databases.
    pub fn len(&self) -> usize {
        self.databases.len()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.databases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Oid;
    use crate::schema::AttrDef;
    use crate::symbol::sym;
    use crate::types::Type;
    use crate::value::Value;
    use crate::wal::Durability;

    /// A class `class` with one string attribute `attr`, and one object per
    /// value.
    fn fill(db: &mut Database, class: &str, attr: &str, values: &[&str]) -> Vec<Oid> {
        let def = AttrDef::stored(sym(attr), Type::Str);
        let class = db.create_class(sym(class), &[], vec![def]).unwrap();
        let object = |v: &&str| Value::tuple([(attr, Value::str(v))]);
        let values: Vec<Value> = values.iter().map(object).collect();
        values
            .into_iter()
            .map(|v| db.create_object(class, v).unwrap())
            .collect()
    }

    /// Each system numbers its objects from its own history: the first
    /// object of either is `#0`, whatever the other did.
    #[test]
    fn two_systems_each_number_their_first_object_zero() {
        let (mut one, mut two) = (System::new(), System::new());
        let a = one.create_database(sym("A")).unwrap();
        let b = two.create_database(sym("B")).unwrap();
        assert_eq!(fill(&mut a.write(), "P", "Name", &["a0"]), vec![Oid(0)]);
        assert_eq!(fill(&mut b.write(), "Q", "Label", &["b0"]), vec![Oid(0)]);
        let c = one.create_database(sym("C")).unwrap();
        assert_eq!(fill(&mut c.write(), "R", "Tag", &["c1"]), vec![Oid(1)]);
        // A clone shares the allocator.
        let d = one.clone().create_database(sym("D")).unwrap();
        assert_eq!(fill(&mut d.write(), "S", "Tag", &["d2"]), vec![Oid(2)]);
    }

    /// Two durable databases filled apart both number from `#0`: the second
    /// to join a system is refused with a typed error naming both and the
    /// oid, and the system is as it was. A database whose oids are disjoint
    /// joins, and numbers past every oid it holds.
    #[test]
    fn a_database_whose_oids_meet_a_joined_one_is_refused() {
        let root = std::env::temp_dir().join(format!("ov-catalog-join-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let open = |name: &str| Database::open(sym(name), &root.join(name), Durability::Wal);
        let mut a = open("A").unwrap();
        assert_eq!(fill(&mut a, "P", "Name", &["a0", "a1"]), [Oid(0), Oid(1)]);
        let mut b = open("B").unwrap();
        assert_eq!(fill(&mut b, "Q", "Label", &["b0", "b1"]), [Oid(0), Oid(1)]);
        let mut c = open("C").unwrap();
        fill(&mut c, "R", "Tag", &["c0", "c1", "c2"]);
        c.delete_object(Oid(0)).unwrap();
        c.delete_object(Oid(1)).unwrap();
        drop((a, b, c));

        let mut sys = System::new();
        sys.add_database(open("A").unwrap()).unwrap();
        let refused = sys.add_database(open("B").unwrap());
        assert_eq!(
            refused,
            Err(OodbError::SharedOid {
                joining: sym("B"),
                joined: sym("A"),
                oid: Oid(0),
            })
        );
        assert_eq!(sys.names(), vec![sym("A")]);
        sys.add_database(open("C").unwrap()).unwrap();
        let a = sys.database(sym("A")).unwrap();
        let class = a.read().schema.class_by_name(sym("P")).unwrap();
        let next = a
            .write()
            .create_object(class, Value::tuple([("Name", Value::str("a3"))]));
        assert_eq!(next, Ok(Oid(3)));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The candidate keeps the schema, the names and the named objects of
    /// the database it copies, and nothing else of it: a class declared on
    /// it stays off the real database, and the other databases are shared.
    #[test]
    fn a_schema_only_candidate_keeps_names_and_shares_the_rest() {
        let mut sys = System::new();
        let a = sys.create_database(sym("A")).unwrap();
        let b = sys.create_database(sym("B")).unwrap();
        let oids = fill(&mut a.write(), "P", "Name", &["a0", "a1"]);
        a.write().name_object(sym("first"), oids[0]).unwrap();
        let mut candidate = sys.with_schema_only(sym("A")).unwrap();
        let copy = candidate.database(sym("A")).unwrap();
        assert_eq!(copy.read().store.sorted_oids(), vec![oids[0]]);
        assert_eq!(copy.read().named(sym("first")), Ok(oids[0]));
        assert!(copy.read().durable_core().is_none());
        copy.write().create_class(sym("Q"), &[], vec![]).unwrap();
        assert!(a.read().schema.class_by_name(sym("Q")).is_none());
        assert!(Arc::ptr_eq(&candidate.database(sym("B")).unwrap(), &b));
        assert!(candidate.create_database(sym("A")).is_err());
        assert!(sys.with_schema_only(sym("Z")).is_err());
    }

    #[test]
    fn register_and_resolve() {
        let mut sys = System::new();
        sys.add_database(Database::new(sym("Chrysler"))).unwrap();
        sys.add_database(Database::new(sym("Ford"))).unwrap();
        assert_eq!(sys.len(), 2);
        assert_eq!(sys.database(sym("Ford")).unwrap().read().name, sym("Ford"));
        assert!(matches!(
            sys.database(sym("GM")),
            Err(OodbError::UnknownDatabase(_))
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut sys = System::new();
        sys.add_database(Database::new(sym("Navy"))).unwrap();
        assert!(matches!(
            sys.add_database(Database::new(sym("Navy"))),
            Err(OodbError::DuplicateDatabase(_))
        ));
    }

    #[test]
    fn handles_share_mutations() {
        let mut sys = System::new();
        let h1 = sys.create_database(sym("D")).unwrap();
        let h2 = sys.database(sym("D")).unwrap();
        let c = h1.write().create_class(sym("C"), &[], vec![]).unwrap();
        assert_eq!(h2.read().schema.class(c).name, sym("C"));
    }

    #[test]
    fn names_are_sorted() {
        let mut sys = System::new();
        sys.create_database(sym("Zeta")).unwrap();
        sys.create_database(sym("Alpha")).unwrap();
        let names: Vec<&str> = sys.names().iter().map(|n| n.as_str()).collect();
        assert_eq!(names, vec!["Alpha", "Zeta"]);
    }
}
