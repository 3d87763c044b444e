//! The system catalog: many named databases in one system.
//!
//! "In general, there can be many databases in a system. In such systems,
//! one database can use data from other databases via *import* statements"
//! (§3). The [`System`] is what a view binds against: it resolves database
//! names and hands out shared, lock-protected handles.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::database::Database;
use crate::error::{OodbError, Result};
use crate::ids::{DbId, IMAGINARY_OID_BASE};
use crate::symbol::Symbol;

/// A shared handle to a database.
pub type DbHandle = Arc<RwLock<Database>>;

/// A catalog of named databases.
#[derive(Clone)]
pub struct System {
    databases: Vec<DbHandle>,
    by_name: HashMap<Symbol, DbId>,
    /// The next imaginary oid (§5.1). Every view bound against this system
    /// draws from it, so no two views hand out the same oid.
    imaginary_oids: Arc<AtomicU64>,
}

impl Default for System {
    fn default() -> System {
        System {
            databases: Vec::new(),
            by_name: HashMap::new(),
            imaginary_oids: Arc::new(AtomicU64::new(IMAGINARY_OID_BASE)),
        }
    }
}

impl System {
    /// An empty catalog.
    pub fn new() -> System {
        System::default()
    }

    /// The imaginary-oid allocator of this system: it starts at
    /// [`IMAGINARY_OID_BASE`], and each view bound against the system
    /// takes its imaginary oids from it.
    pub fn imaginary_oids(&self) -> Arc<AtomicU64> {
        self.imaginary_oids.clone()
    }

    /// Registers a database under its own name.
    pub fn add_database(&mut self, db: Database) -> Result<DbId> {
        let name = db.name;
        if self.by_name.contains_key(&name) {
            return Err(OodbError::DuplicateDatabase(name));
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
    use crate::symbol::sym;

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
