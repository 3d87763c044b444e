//! The §5.1 identity of one [`crate::System`]: "a table giving the mapping
//! between the tuples and oid's", so that "the same tuple will be assigned
//! the same oid each time the class C is invoked".
//!
//! A view is a function of base state, not of the bound instance that
//! evaluates it, so the tables live as long as the system: every bind of a
//! view name reads the same table, and a rebind keeps every oid. The
//! forward table is keyed (declaring view name, class name) → core tuple →
//! oid, names because view-side class ids are rebuilt on every bind; its
//! floor is the system's imaginary-oid allocator. The reverse map says what
//! each oid is. All three sit under one lock, so an oid a thread is handed
//! already reads as an object. A recovered database's tables seed the
//! store once, when the database joins the system.

use std::collections::{BTreeSet, HashMap, HashSet};

use parking_lot::RwLock;

use crate::ids::{Oid, IMAGINARY_OID_BASE};
use crate::pager::{IdentityEntry, SnapshotImage};
use crate::symbol::Symbol;
use crate::value::Tuple;
use crate::wal::WalRecord;

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

#[derive(Debug)]
struct Tables {
    forward: HashMap<(Symbol, Symbol), HashMap<Tuple, Oid>>,
    reverse: HashMap<Oid, ImaginaryObject>,
    /// The lowest imaginary oid not handed out yet.
    floor: u64,
}

impl Default for Tables {
    fn default() -> Tables {
        Tables {
            forward: HashMap::new(),
            reverse: HashMap::new(),
            floor: IMAGINARY_OID_BASE,
        }
    }
}

impl Tables {
    /// Maps `core` to `oid` in the table of class `class` of view `view`,
    /// replacing the oid the key had, and keeps the floor past `oid`.
    fn put(&mut self, view: Symbol, class: Symbol, core: Tuple, oid: Oid) {
        let table = self.forward.entry((view, class)).or_default();
        if let Some(old) = table.insert(core.clone(), oid) {
            self.reverse.remove(&old);
        }
        self.reverse
            .insert(oid, ImaginaryObject { view, class, core });
        self.floor = self.floor.max(oid.0.saturating_add(1));
    }

    /// Every entry of the tables whose view `keep` picks, in oid order.
    fn entries(&self, keep: impl Fn(Symbol) -> bool) -> Vec<IdentityEntry> {
        let mut out: Vec<IdentityEntry> = self
            .forward
            .iter()
            .filter(|((view, _), _)| keep(*view))
            .flat_map(|(&(view, class), table)| {
                table.iter().map(move |(core, &oid)| IdentityEntry {
                    view,
                    class,
                    core: core.clone(),
                    oid,
                })
            })
            .collect();
        out.sort_by_key(|e| e.oid);
        out
    }
}

impl IdentityStore {
    /// The tables a durable database recovers: its snapshot's entries and
    /// floor, then the identity records of its log tail, in log order; and
    /// the views they are of.
    pub(crate) fn recover(
        snapshot: Option<&SnapshotImage>,
        tail: &[(u64, WalRecord)],
    ) -> (IdentityStore, HashSet<Symbol>) {
        let mut t = Tables::default();
        if let Some(img) = snapshot {
            for e in &img.identity {
                t.put(e.view, e.class, e.core.clone(), e.oid);
            }
            t.floor = t.floor.max(img.next_imaginary);
        }
        for (_, rec) in tail {
            match rec {
                WalRecord::IdentityAssign {
                    view,
                    class,
                    core,
                    oid,
                } => t.put(*view, *class, core.clone(), *oid),
                WalRecord::IdentityDrop { view, class, core } => {
                    let table = t.forward.get_mut(&(*view, *class));
                    if let Some(oid) = table.and_then(|m| m.remove(core)) {
                        t.reverse.remove(&oid);
                    }
                }
                _ => {}
            }
        }
        let views = t.forward.keys().map(|k| k.0).collect();
        let tables = RwLock::new(t);
        (IdentityStore { tables }, views)
    }

    /// Adopts the entries of `recovered` (a joining database's tables)
    /// whose key and oid are both still free — one that collides keeps the
    /// assignment already made — and its floor.
    pub(crate) fn seed(&self, recovered: &IdentityStore) {
        let from = recovered.tables.read();
        let mut t = self.tables.write();
        for (&(view, class), table) in &from.forward {
            for (core, &oid) in table {
                let mine = t.forward.get(&(view, class));
                if !mine.is_some_and(|m| m.contains_key(core)) && !t.reverse.contains_key(&oid) {
                    t.put(view, class, core.clone(), oid);
                }
            }
        }
        t.floor = t.floor.max(from.floor);
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
        let t = &mut *self.tables.write();
        let table = t.forward.entry((view, class)).or_default();
        let (mut oids, mut new) = (BTreeSet::new(), Vec::new());
        for core in cores {
            if !fresh {
                if let Some(&oid) = table.get(&core) {
                    oids.insert(oid);
                    continue;
                }
            }
            let oid = Oid(t.floor);
            t.floor += 1;
            oids.insert(oid);
            if !fresh {
                table.insert(core.clone(), oid);
                new.push((core.clone(), oid));
            }
            t.reverse.insert(oid, ImaginaryObject { view, class, core });
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
        let t = &mut *self.tables.write();
        let mut dropped = Vec::new();
        for (&(_, class), table) in t.forward.iter_mut().filter(|(k, _)| k.0 == view) {
            table.retain(|core, &mut oid| {
                let drop = dead(class, core, oid);
                if drop {
                    t.reverse.remove(&oid);
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
        tables.forward.get(&(view, class)).map_or(0, HashMap::len)
    }

    /// Every table entry, in oid order (the snapshot's layout).
    pub fn entries(&self) -> Vec<IdentityEntry> {
        self.tables.read().entries(|_| true)
    }

    /// What a checkpoint writes: the entries of the tables of views
    /// `views`, in oid order, and the floor.
    pub(crate) fn image(&self, views: &HashSet<Symbol>) -> (Vec<IdentityEntry>, u64) {
        let tables = self.tables.read();
        (tables.entries(|v| views.contains(&v)), tables.floor)
    }

    /// The number of entries [`Self::image`] writes for `views`.
    pub(crate) fn count(&self, views: &HashSet<Symbol>) -> usize {
        let tables = self.tables.read();
        let of_views = tables.forward.iter().filter(|(k, _)| views.contains(&k.0));
        of_views.map(|(_, table)| table.len()).sum()
    }
}
