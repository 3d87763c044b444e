//! The §5.1 identity of one [`crate::System`]: "a table giving the mapping
//! between the tuples and oid's", so that "the same tuple will be assigned
//! the same oid each time the class C is invoked".
//!
//! A view is a function of base state, not of the bound instance that
//! evaluates it, so the tables live as long as the system: every bind of a
//! view name reads the same table, and a rebind keeps every oid. The
//! forward table is keyed as the durable mirror is — (declaring view name,
//! class name) → core tuple → oid — and is one ([`IdentityMirror`]), whose
//! floor is the system's imaginary-oid allocator. The reverse map says what
//! each oid is. Both sit under one lock, so an oid a thread is handed
//! already reads as an object. A recovered database's mirror seeds the
//! store once, when the database joins the system.

use std::collections::{BTreeSet, HashMap};

use parking_lot::RwLock;

use crate::durable::IdentityMirror;
use crate::ids::Oid;
use crate::pager::IdentityEntry;
use crate::symbol::Symbol;
use crate::value::Tuple;

/// What an imaginary oid is: an object of class `class`, declared by view
/// `view`, with core tuple `core`.
#[derive(Clone, Debug, PartialEq)]
pub struct ImaginaryObject {
    /// The view that declares the class.
    pub view: Symbol,
    /// The imaginary class, by name.
    pub class: Symbol,
    /// The core tuple the oid stands for.
    pub core: Tuple,
}

/// The identity tables of one system (see the module docs).
#[derive(Debug, Default)]
pub struct IdentityStore {
    tables: RwLock<Tables>,
}

#[derive(Debug, Default)]
struct Tables {
    forward: IdentityMirror,
    reverse: HashMap<Oid, ImaginaryObject>,
}

impl IdentityStore {
    /// Adopts a recovered mirror: each entry whose key and oid are both
    /// still free (one that collides keeps the assignment already made),
    /// and the mirror's floor.
    pub fn seed(&self, mirror: &IdentityMirror) {
        let mut tables = self.tables.write();
        let Tables { forward, reverse } = &mut *tables;
        for (&(view, class), table) in &mirror.tables {
            let mine = forward.tables.entry((view, class)).or_default();
            for (core, &oid) in table {
                if !mine.contains_key(core) && !reverse.contains_key(&oid) {
                    mine.insert(core.clone(), oid);
                    let core = core.clone();
                    reverse.insert(oid, ImaginaryObject { view, class, core });
                }
            }
        }
        forward.raise_floor(mirror.next_imaginary());
    }

    /// Maps each core tuple of class `class` of view `view` to its oid. A
    /// tuple the table does not hold takes the next oid, in order — and,
    /// when `fresh`, so does every tuple, recorded in the reverse map only
    /// (the naive semantics §5.1 warns about). Returns every tuple's oid
    /// and the table entries made here.
    pub fn assign(
        &self,
        view: Symbol,
        class: Symbol,
        cores: Vec<Tuple>,
        fresh: bool,
    ) -> (BTreeSet<Oid>, Vec<(Tuple, Oid)>) {
        let mut tables = self.tables.write();
        let Tables { forward, reverse } = &mut *tables;
        let table = forward.tables.entry((view, class)).or_default();
        let (mut oids, mut new) = (BTreeSet::new(), Vec::new());
        for core in cores {
            if !fresh {
                if let Some(&oid) = table.get(&core) {
                    oids.insert(oid);
                    continue;
                }
            }
            let oid = Oid(forward.next_imaginary);
            forward.next_imaginary += 1;
            oids.insert(oid);
            if !fresh {
                table.insert(core.clone(), oid);
                new.push((core.clone(), oid));
            }
            reverse.insert(oid, ImaginaryObject { view, class, core });
        }
        (oids, new)
    }

    /// Reads what imaginary oid `oid` is, if anything.
    pub fn object<R>(&self, oid: Oid, read: impl FnOnce(&ImaginaryObject) -> R) -> Option<R> {
        self.tables.read().reverse.get(&oid).map(read)
    }

    /// Drops each entry of view `view`'s tables that `dead` picks, by class,
    /// core and oid. Returns the class and core of each.
    pub fn drop_where(
        &self,
        view: Symbol,
        dead: impl Fn(Symbol, &Tuple, Oid) -> bool,
    ) -> Vec<(Symbol, Tuple)> {
        let mut tables = self.tables.write();
        let Tables { forward, reverse } = &mut *tables;
        let mut dropped = Vec::new();
        for (&(_, class), table) in forward.tables.iter_mut().filter(|(k, _)| k.0 == view) {
            table.retain(|core, &mut oid| {
                let drop = dead(class, core, oid);
                if drop {
                    reverse.remove(&oid);
                    dropped.push((class, core.clone()));
                }
                !drop
            });
        }
        dropped
    }

    /// The number of entries of class `class` of view `view`.
    pub fn len(&self, view: Symbol, class: Symbol) -> usize {
        let tables = self.tables.read();
        tables
            .forward
            .tables
            .get(&(view, class))
            .map_or(0, HashMap::len)
    }

    /// Every table entry, in oid order (the snapshot's layout).
    pub fn entries(&self) -> Vec<IdentityEntry> {
        self.tables.read().forward.entries()
    }
}
