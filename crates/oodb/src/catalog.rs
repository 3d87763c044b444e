//! The system catalog: many named databases in one system.
//!
//! "In general, there can be many databases in a system. In such systems,
//! one database can use data from other databases via *import* statements"
//! (§3). The [`System`] is what a view binds against: it resolves database
//! names, hands out shared, lock-protected handles, and owns the §5.1
//! identity of every imaginary class ([`IdentityStore`]).

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

/// A catalog of named databases.
#[derive(Clone, Default)]
pub struct System {
    databases: Vec<DbHandle>,
    by_name: HashMap<Symbol, DbId>,
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

    /// Registers a database under its own name. A durable database seeds
    /// the identity tables with the assignments it recovered.
    pub fn add_database(&mut self, db: Database) -> Result<DbId> {
        let name = db.name;
        if self.by_name.contains_key(&name) {
            return Err(OodbError::DuplicateDatabase(name));
        }
        if let Some(core) = db.durable_core() {
            core.seed(&self.identity);
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
