//! The object store.
//!
//! Implements the paper's **unique root rule**: "An object is real in only
//! one class" (§4.2). The store keeps, per class, the extent of objects
//! *real* in it; membership in superclasses (and, later, in virtual classes)
//! is always derived, never stored. The paper motivates this: "under this
//! rule, the structure of an object is fixed: It has a fixed set of
//! attributes and it can be stored uniformly along with similar objects."
//!
//! The store is **versioned**: every mutation bumps a counter. The view
//! layer keys its population caches on this version, which is how
//! "materialized views … acquire a new dimension" (§6) is handled here.
//!
//! Oids are the system's: a store draws fresh oids from an allocator it
//! shares with every other database of its [`crate::System`] (one of its
//! own until it joins one), and recovery raises that allocator past every
//! oid it seats, so no fresh oid is one a store of the system holds.
//!
//! Concurrency: apart from that allocator (an atomic) the store has no
//! interior mutability — every read accessor takes `&self` and every
//! mutation takes `&mut self`, so `Store` is `Send + Sync` and any number
//! of threads may read one concurrently. Writers are serialized by the
//! `RwLock` in [`crate::catalog::DbHandle`].

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::durable::DurableCore;
use crate::error::{OodbError, Result};
use crate::event::Event;
use crate::ids::{ClassId, Oid, IMAGINARY_OID_BASE};
use crate::index::{self, IndexSet, Postings};
use crate::value::Tuple;
use crate::wal::WalRecord;

/// A base-oid allocator: the next oid it hands out. Clones share it. A
/// standalone store has its own; the stores of one [`crate::System`] share
/// the system's, so an oid names one object across every database a view
/// imports from (§3).
#[derive(Clone, Debug, Default)]
pub(crate) struct OidAllocator(Arc<AtomicU64>);

impl OidAllocator {
    /// The next oid. Once the base range is used up — only a file holding
    /// its topmost oid gets a store there — every call is
    /// [`OodbError::BaseOidsExhausted`].
    fn allocate(&self) -> Result<Oid> {
        let next = self.0.fetch_update(Relaxed, Relaxed, |n| {
            (n < IMAGINARY_OID_BASE).then_some(n + 1)
        });
        next.map(Oid).map_err(|_| OodbError::BaseOidsExhausted)
    }

    /// Never hands out an oid below the one `other` hands out next.
    pub(crate) fn raise_past(&self, other: &OidAllocator) {
        self.0.fetch_max(other.next(), Relaxed);
    }

    /// The oid the next allocation hands out.
    pub(crate) fn next(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Base stores hold base oids only: the imaginary range belongs to views,
/// and an oid from a WAL or snapshot that lies in it is a damaged file.
fn require_base_oid(oid: Oid) -> Result<()> {
    if oid.is_imaginary() {
        return Err(OodbError::corrupt(format!(
            "imaginary oid {oid} in a base store"
        )));
    }
    Ok(())
}

/// An object as stored: its oid, the single class it is *real* in, and its
/// tuple of stored attribute values.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredObject {
    /// The object's identifier.
    pub oid: Oid,
    /// The single class the object is *real* in.
    pub class: ClassId,
    /// The stored attribute values.
    pub value: Tuple,
}

/// Slots per page of the store's object table: a page of neighbouring oids
/// is ≈ 10 KB.
pub const PAGE_SLOTS: u64 = 256;

/// Pages per chunk of the table's page directory: a chunk covers 2^18
/// consecutive oids with a directory of at most 16 KB.
const CHUNK_PAGES: u64 = 1024;

/// One page of the object table: `PAGE_SLOTS` consecutive oids, each at
/// slot `oid % PAGE_SLOTS`.
#[derive(Clone)]
struct Page {
    live: usize,
    slots: Box<[Option<StoredObject>; PAGE_SLOTS as usize]>,
}

/// The page directory of chunk `no`: `pages[i]` is page
/// `no * CHUNK_PAGES + i`, allocated on first use, freed with its last
/// object, and absent past the highest page the chunk ever held.
#[derive(Clone)]
struct Chunk {
    no: u64,
    live: usize,
    pages: Vec<Option<Page>>,
}

/// The oid-ordered object table. The paper's unique-root rule is what lets
/// an object "be stored uniformly along with similar objects" (§4.2); here
/// that means by position. An oid is an address — chunk, page in the
/// chunk, slot in the page — so a lookup is two indexed loads, objects with
/// neighbouring oids are neighbours in memory, and a scan in oid order
/// reads memory in order (a hash map scatters them: one cache miss per row).
///
/// The stores of one system share one allocator, and recovery re-seats
/// oids from files, so a store's oids are neither dense nor zero-based.
/// Only chunks that hold an object exist, sorted by number (a store lives
/// in a handful, so finding one is a short search); memory is one page per
/// run of `PAGE_SLOTS` oids with a live object plus at most one small
/// directory per chunk, whatever the largest oid.
#[derive(Clone, Default)]
struct ObjectTable {
    chunks: Vec<Chunk>,
    len: usize,
    pages: usize,
}

/// Splits `oid` into chunk number, page within the chunk, slot in the page.
fn address(oid: Oid) -> (u64, usize, usize) {
    let page = oid.0 / PAGE_SLOTS;
    (
        page / CHUNK_PAGES,
        (page % CHUNK_PAGES) as usize,
        (oid.0 % PAGE_SLOTS) as usize,
    )
}

impl ObjectTable {
    /// Position of chunk `no` in the directory, or where it would go.
    fn chunk(&self, no: u64) -> std::result::Result<usize, usize> {
        self.chunks.binary_search_by_key(&no, |c| c.no)
    }

    fn get(&self, oid: Oid) -> Option<&StoredObject> {
        let (chunk, page, slot) = address(oid);
        let chunk = &self.chunks[self.chunk(chunk).ok()?];
        chunk.pages.get(page)?.as_ref()?.slots[slot].as_ref()
    }

    fn get_mut(&mut self, oid: Oid) -> Option<&mut StoredObject> {
        let (chunk, page, slot) = address(oid);
        let at = self.chunk(chunk).ok()?;
        self.chunks[at].pages.get_mut(page)?.as_mut()?.slots[slot].as_mut()
    }

    /// Seats `obj` at its oid's slot, allocating chunk and page on first
    /// use.
    fn insert(&mut self, obj: StoredObject) -> &StoredObject {
        let (no, page, slot) = address(obj.oid);
        let at = self.chunk(no).unwrap_or_else(|at| {
            let chunk = Chunk {
                no,
                live: 0,
                pages: Vec::new(),
            };
            self.chunks.insert(at, chunk);
            at
        });
        let chunk = &mut self.chunks[at];
        if chunk.pages.len() <= page {
            chunk.pages.resize_with(page + 1, || None);
        }
        if chunk.pages[page].is_none() {
            chunk.live += 1;
            self.pages += 1;
        }
        let page = chunk.pages[page].get_or_insert_with(|| Page {
            live: 0,
            slots: Box::new([const { None }; PAGE_SLOTS as usize]),
        });
        if page.slots[slot].is_none() {
            page.live += 1;
            self.len += 1;
        }
        page.slots[slot].insert(obj)
    }

    /// Vacates `oid`'s slot. A page left without objects is freed, and so
    /// is a chunk left without pages.
    fn remove(&mut self, oid: Oid) -> Option<StoredObject> {
        let (no, page_at, slot) = address(oid);
        let at = self.chunk(no).ok()?;
        let chunk = &mut self.chunks[at];
        let page = chunk.pages.get_mut(page_at)?.as_mut()?;
        let obj = page.slots[slot].take()?;
        page.live -= 1;
        self.len -= 1;
        if page.live == 0 {
            chunk.pages[page_at] = None;
            chunk.live -= 1;
            self.pages -= 1;
            if chunk.live == 0 {
                self.chunks.remove(at);
            }
        }
        Some(obj)
    }

    /// Every object, in oid order.
    fn iter(&self) -> impl Iterator<Item = &StoredObject> {
        let pages = self.chunks.iter().flat_map(|c| c.pages.iter().flatten());
        pages.flat_map(|p| p.slots.iter().flatten())
    }
}

impl std::fmt::Debug for ObjectTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A versioned object store with per-class extents.
#[derive(Clone, Debug, Default)]
pub struct Store {
    objects: ObjectTable,
    extents: HashMap<ClassId, BTreeSet<Oid>>,
    version: u64,
    /// Bounded change journal: `(version, oid)` per mutation, newest at the
    /// back. Lets views maintain cached populations *incrementally* instead
    /// of recomputing (the "new dimension" of materialized views the paper
    /// flags in §6).
    journal: VecDeque<(u64, Oid)>,
    /// Every change at or below this version has been dropped from the
    /// journal; requests older than it must fall back to a full recompute.
    journal_floor: u64,
    journal_cap: usize,
    /// Secondary attribute indexes: each built by its first probe, then
    /// maintained on every mutation.
    indexes: IndexSet,
    /// When attached, every mutation is appended to the WAL *before* it is
    /// applied in memory (redo logging): a failed append leaves the store
    /// untouched, so a crash recovers exactly a prefix of committed work.
    durable: Option<Arc<DurableCore>>,
    /// Where fresh oids come from: the store's own until its database joins
    /// a system, the system's after. Replay raises it past each oid it
    /// seats.
    pub(crate) oids: OidAllocator,
}

/// Default number of retained journal entries.
pub const DEFAULT_JOURNAL_CAP: usize = 4096;

impl Store {
    /// An empty store with the default journal retention and an oid
    /// allocator of its own.
    pub fn new() -> Store {
        Store {
            journal_cap: DEFAULT_JOURNAL_CAP,
            ..Store::default()
        }
    }

    /// Sets the journal retention (entries), for tests and tuning.
    pub fn set_journal_cap(&mut self, cap: usize) {
        self.journal_cap = cap;
        self.trim_journal();
    }

    /// Attaches a durability core: from now on every mutation is logged to
    /// the WAL before it is applied. Called by `Database::open` *after*
    /// recovery replay, so replay itself is never re-logged.
    pub fn attach_durable(&mut self, core: Arc<DurableCore>) {
        self.durable = Some(core);
    }

    /// The attached durability core, if any.
    pub fn durable(&self) -> Option<&Arc<DurableCore>> {
        self.durable.as_ref()
    }

    /// Appends `rec` to the WAL when a durability core is attached. The
    /// strict redo-logging path: on `Err` the caller must not apply the
    /// mutation in memory.
    fn log_wal(&self, rec: &WalRecord) -> Result<()> {
        if let Some(core) = &self.durable {
            core.log(rec)?;
        }
        Ok(())
    }

    fn record(&mut self, oid: Oid) {
        self.version += 1;
        self.journal.push_back((self.version, oid));
        self.trim_journal();
        crate::metric_counter!("oodb.store.mutations").inc();
    }

    fn trim_journal(&mut self) {
        while self.journal.len() > self.journal_cap {
            let (v, _) = self.journal.pop_front().expect("len checked");
            self.journal_floor = v;
        }
    }

    /// Defines a secondary index on `(class, attr)`. Idempotent. Indexes
    /// cover the *shallow* extent (objects real in `class`); deep lookups
    /// combine per-class indexes.
    ///
    /// Nothing is built here. The first [`Store::index_lookup`] of the index
    /// builds it from the extent as it is then, under the read lock that
    /// probe already holds (concurrent first probes build once). The build
    /// is not the query's scan: it charges the probing statement no rows and
    /// no steps, and a deadline that passes meanwhile breaches, as a typed
    /// `Cancelled`, at that statement's next deadline check. Writes maintain an
    /// index only once it is built.
    pub fn create_index(&mut self, class: ClassId, attr: crate::Symbol) {
        if self.indexes.get(class, attr).is_some() {
            return;
        }
        // Index definitions are logged so recovery registers them; a failed
        // append degrades (the data is unaffected, only lookup speed) and
        // the next checkpoint persists the definition anyway.
        if self
            .log_wal(&WalRecord::CreateIndex { class, attr })
            .is_err()
        {
            crate::metric_counter!("oodb.index.log_failures").inc();
        }
        self.indexes.create(class, attr);
    }

    /// Drops a secondary index; returns whether it existed.
    pub fn drop_index(&mut self, class: ClassId, attr: crate::Symbol) -> bool {
        if self.indexes.get(class, attr).is_some()
            && self.log_wal(&WalRecord::DropIndex { class, attr }).is_err()
        {
            crate::metric_counter!("oodb.index.log_failures").inc();
        }
        self.indexes.drop_index(class, attr)
    }

    /// The `(class, attr)` pairs currently indexed, for checkpointing.
    pub fn index_defs(&self) -> Vec<(ClassId, crate::Symbol)> {
        self.indexes.defs()
    }

    /// Indexed lookup over the shallow extent of `class`: the oids whose
    /// stored `attr` equals `value`, or `None` if no index exists. The first
    /// lookup of an index builds it (see [`Store::create_index`]).
    pub fn index_lookup(
        &self,
        class: ClassId,
        attr: crate::Symbol,
        value: &crate::Value,
    ) -> Option<Vec<Oid>> {
        let mut lookup = Event::IndexLookup.open();
        lookup.field("attr", attr);
        // Injected fault = forced index miss: callers already treat `None`
        // as "no index, scan instead", so degradation is exercised for free.
        let hits = if crate::faults::hit("store.index_lookup").is_err() {
            lookup.field("outcome", "injected_miss");
            None
        } else {
            self.indexes.get(class, attr).map(|index| {
                let hits = index.get(value, || self.build_index(class, attr));
                crate::metric_counter!("oodb.index.hits").inc();
                lookup.field("hits", hits.len());
                hits
            })
        };
        lookup.close(1);
        hits
    }

    /// The map of the index on `(class, attr)`, from the extent as it is.
    fn build_index(&self, class: ClassId, attr: crate::Symbol) -> Postings {
        let rows = self.extent_len(class);
        let mut build = Event::IndexBuild.open();
        build.field("class", u64::from(class.0));
        build.field("rows", rows);
        let objects = self.extent(class).filter_map(|oid| self.objects.get(oid));
        let postings = index::build(attr, rows, objects);
        build.close(1);
        postings
    }

    /// The oids changed (created, updated, or removed) after `version`, or
    /// `None` if the journal no longer reaches back that far. An empty list
    /// means the store is unchanged since `version`.
    pub fn changes_since(&self, version: u64) -> Option<Vec<Oid>> {
        let mut span = crate::span!("store.changes_since", since = version);
        // Injected fault = forced journal gap: `None` is the documented
        // "recompute from scratch" signal, so delta-serving faults drive the
        // same recovery path as genuine journal overflow.
        if crate::faults::hit("store.changes_since").is_err() {
            crate::metric_counter!("oodb.journal.gaps").inc();
            span.field("outcome", "injected_gap");
            return None;
        }
        if version == self.version {
            crate::metric_counter!("oodb.journal.delta_served").inc();
            span.field("outcome", "unchanged");
            return Some(Vec::new());
        }
        if version < self.journal_floor {
            crate::metric_counter!("oodb.journal.gaps").inc();
            span.field("outcome", "gap");
            return None;
        }
        crate::metric_counter!("oodb.journal.delta_served").inc();
        span.field("outcome", "delta");
        // The journal is version-ordered: everything after `version` is a
        // suffix.
        let from = self.journal.partition_point(|&(v, _)| v <= version);
        let mut out: Vec<Oid> = self.journal.range(from..).map(|&(_, o)| o).collect();
        out.sort();
        out.dedup();
        Some(out)
    }

    /// The store's mutation counter. Any insert/update/delete increments it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len
    }

    /// Pages the object table holds ([`PAGE_SLOTS`] slots each): one per
    /// run of `PAGE_SLOTS` oids that has a live object, none for an empty
    /// store.
    pub fn pages(&self) -> usize {
        self.objects.pages
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.objects.len == 0
    }

    /// Allocates a fresh oid and inserts an object real in `class`. On `Err`
    /// — a failed WAL append, or [`OodbError::BaseOidsExhausted`] — the
    /// store is unchanged (an oid burned by a failed append is never
    /// visible).
    pub fn insert(&mut self, class: ClassId, value: Tuple) -> Result<Oid> {
        let _span = crate::span!("store.insert");
        let oid = self.oids.allocate()?;
        if self.durable.is_some() {
            self.log_wal(&WalRecord::Insert {
                oid,
                class,
                value: value.clone(),
            })?;
        }
        self.seat(StoredObject { oid, class, value });
        Ok(oid)
    }

    /// An oid live in both `self` and `other`, if any: the smaller store's
    /// oids probed in the larger, so an empty store costs nothing.
    pub(crate) fn shared_oid(&self, other: &Store) -> Option<Oid> {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .iter()
            .map(|o| o.oid)
            .find(|&oid| large.get(oid).is_some())
    }

    /// Seats a new object in the table, its extent and the indexes.
    fn seat(&mut self, obj: StoredObject) {
        let (oid, class) = (obj.oid, obj.class);
        let obj = self.objects.insert(obj);
        self.extents.entry(class).or_default().insert(oid);
        self.indexes.on_insert(class, oid, &obj.value);
        self.record(oid);
    }

    /// Replays an insert with its original oid (crash recovery only — no
    /// WAL logging; the record being replayed *is* the log entry). The oid
    /// comes from a file: one in the imaginary range is refused. The store's
    /// allocator is raised past it.
    pub fn insert_with_oid(&mut self, oid: Oid, class: ClassId, value: Tuple) -> Result<()> {
        require_base_oid(oid)?;
        self.oids.0.fetch_max(oid.0 + 1, Relaxed);
        self.seat(StoredObject { oid, class, value });
        Ok(())
    }

    /// Bulk-loads the store from a checkpoint image: objects and extents
    /// are seated wholesale, the version counter jumps to the checkpoint
    /// version, and the journal starts empty with its floor at that
    /// version (so `changes_since` older than the checkpoint reports a gap
    /// instead of a silently empty delta). Indexes are *not* touched — the
    /// caller registers the persisted definitions, and each is built by its
    /// first probe. An image holding an oid in the imaginary range is
    /// refused.
    ///
    /// A checkpoint lists objects in oid order, so each class's oids arrive
    /// sorted and its extent is built in one pass (any order is still
    /// correct, only slower). The store's oid allocator is raised once, to
    /// `next_oid` — the allocator's value the checkpoint recorded — or past
    /// the largest oid, whichever is higher, so an oid deleted before the
    /// checkpoint is not handed out again.
    pub fn restore(
        &mut self,
        objects: Vec<StoredObject>,
        version: u64,
        next_oid: u64,
    ) -> Result<()> {
        if next_oid > IMAGINARY_OID_BASE {
            return Err(OodbError::corrupt(format!(
                "next base oid {next_oid} lies in the imaginary range"
            )));
        }
        self.objects = ObjectTable::default();
        let mut extents: HashMap<ClassId, Vec<Oid>> = HashMap::new();
        let mut top = None;
        for obj in objects {
            require_base_oid(obj.oid)?;
            top = top.max(Some(obj.oid));
            extents.entry(obj.class).or_default().push(obj.oid);
            self.objects.insert(obj);
        }
        let top = top.map_or(0, |top| top.0 + 1);
        self.oids.0.fetch_max(top.max(next_oid), Relaxed);
        self.extents = extents
            .into_iter()
            .map(|(class, oids)| (class, BTreeSet::from_iter(oids)))
            .collect();
        self.version = version;
        self.journal.clear();
        self.journal_floor = version;
        Ok(())
    }

    /// Finishes recovery: drops the journal entries produced by replay and
    /// re-seats the floor at the recovered version. Incremental callers
    /// holding pre-crash versions get `None` (full recompute), never an
    /// empty delta.
    pub fn seal_recovery(&mut self) {
        self.journal.clear();
        self.journal_floor = self.version;
    }

    /// The object with oid `oid`, if present.
    pub fn get(&self, oid: Oid) -> Option<&StoredObject> {
        self.objects.get(oid)
    }

    /// Like [`Store::get`] but returns an error.
    pub fn require(&self, oid: Oid) -> Result<&StoredObject> {
        self.get(oid).ok_or(OodbError::UnknownObject(oid))
    }

    /// Replaces the stored value of `oid`.
    pub fn update(&mut self, oid: Oid, value: Tuple) -> Result<()> {
        let _span = crate::span!("store.update", oid = oid.0);
        crate::failpoint!("store.update");
        if self.objects.get(oid).is_none() {
            return Err(OodbError::UnknownObject(oid));
        }
        if self.durable.is_some() {
            self.log_wal(&WalRecord::Update {
                oid,
                value: value.clone(),
            })?;
        }
        let obj = self
            .objects
            .get_mut(oid)
            .ok_or(OodbError::UnknownObject(oid))?;
        let class = obj.class;
        let old = std::mem::replace(&mut obj.value, value);
        let new = obj.value.clone();
        self.indexes.on_remove(class, oid, &old);
        self.indexes.on_insert(class, oid, &new);
        self.record(oid);
        Ok(())
    }

    /// Sets one stored field of `oid`.
    pub fn set_field(&mut self, oid: Oid, name: crate::Symbol, value: crate::Value) -> Result<()> {
        let _span = crate::span!("store.set_field", oid = oid.0, attr = name);
        crate::failpoint!("store.set_field");
        if self.objects.get(oid).is_none() {
            return Err(OodbError::UnknownObject(oid));
        }
        if self.durable.is_some() {
            self.log_wal(&WalRecord::SetField {
                oid,
                name,
                value: value.clone(),
            })?;
        }
        let obj = self
            .objects
            .get_mut(oid)
            .ok_or(OodbError::UnknownObject(oid))?;
        let class = obj.class;
        let old = obj
            .value
            .set(name, value.clone())
            .unwrap_or(crate::Value::Null);
        self.indexes.on_set_field(class, oid, name, &old, &value);
        self.record(oid);
        Ok(())
    }

    /// Removes `oid`, returning the object.
    pub fn remove(&mut self, oid: Oid) -> Result<StoredObject> {
        let _span = crate::span!("store.remove", oid = oid.0);
        crate::failpoint!("store.remove");
        if self.objects.get(oid).is_none() {
            return Err(OodbError::UnknownObject(oid));
        }
        if self.durable.is_some() {
            self.log_wal(&WalRecord::Remove { oid })?;
        }
        let obj = self
            .objects
            .remove(oid)
            .ok_or(OodbError::UnknownObject(oid))?;
        if let Some(ext) = self.extents.get_mut(&obj.class) {
            ext.remove(&oid);
        }
        self.indexes.on_remove(obj.class, oid, &obj.value);
        self.record(oid);
        Ok(obj)
    }

    /// The *shallow* extent of `class`: oids real in exactly that class, in
    /// oid order.
    pub fn extent(&self, class: ClassId) -> impl Iterator<Item = Oid> + '_ {
        self.extents
            .get(&class)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Number of objects real in `class`.
    pub fn extent_len(&self, class: ClassId) -> usize {
        self.extents.get(&class).map_or(0, |s| s.len())
    }

    /// Iterates all objects in oid order.
    pub fn iter(&self) -> impl Iterator<Item = &StoredObject> {
        self.objects.iter()
    }

    /// All oids in ascending order (deterministic iteration for dumps).
    pub fn sorted_oids(&self) -> Vec<Oid> {
        self.iter().map(|o| o.oid).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;
    use crate::value::Value;

    /// The read path is lock-free shared state: a `&Store` can be handed to
    /// any number of threads (all mutation goes through `&mut self`).
    #[test]
    fn store_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Store>();
        assert_send_sync::<StoredObject>();
    }

    /// The table itself, below the oid allocator: pages and chunks exist
    /// exactly while they hold an object, wherever in the base range.
    #[test]
    fn pages_and_chunks_come_and_go_with_their_objects() {
        let object = |n: u64| StoredObject {
            oid: Oid(n),
            class: ClassId(0),
            value: Tuple::new(),
        };
        let top = IMAGINARY_OID_BASE - 1;
        let oids = [5, 6, PAGE_SLOTS + 5, PAGE_SLOTS * CHUNK_PAGES, top];
        let mut table = ObjectTable::default();
        // Seated out of order; two neighbours share a page, the next page,
        // the next chunk and the topmost base oid cost one page each.
        for n in [3, 0, 4, 2, 1].map(|i| oids[i]) {
            table.insert(object(n));
        }
        assert_eq!((table.len, table.pages, table.chunks.len()), (5, 4, 3));
        assert!(table.iter().map(|o| o.oid.0).eq(oids));
        assert_eq!(table.get(Oid(top)), Some(&object(top)));
        assert_eq!(table.get(Oid(7)), None);
        assert_eq!(table.get(Oid(top - PAGE_SLOTS)), None);
        assert_eq!(table.remove(Oid(6)), Some(object(6)));
        assert_eq!(table.remove(Oid(6)), None);
        assert_eq!((table.len, table.pages, table.chunks.len()), (4, 4, 3));
        for n in [5, top, PAGE_SLOTS + 5] {
            table.remove(Oid(n));
        }
        assert_eq!((table.len, table.pages, table.chunks.len()), (1, 1, 1));
        table.remove(Oid(PAGE_SLOTS * CHUNK_PAGES));
        assert_eq!((table.len, table.pages, table.chunks.len()), (0, 0, 0));
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut st = Store::new();
        let c = ClassId(0);
        let oid = st
            .insert(c, Tuple::from_fields([("Name", Value::str("Maggy"))]))
            .unwrap();
        let obj = st.get(oid).unwrap();
        assert_eq!(obj.class, c);
        assert_eq!(obj.value.get(sym("Name")), Some(&Value::str("Maggy")));
    }

    #[test]
    fn extents_track_real_class_only() {
        let mut st = Store::new();
        let a = ClassId(0);
        let b = ClassId(1);
        let o1 = st.insert(a, Tuple::new()).unwrap();
        let o2 = st.insert(b, Tuple::new()).unwrap();
        assert_eq!(st.extent(a).collect::<Vec<_>>(), vec![o1]);
        assert_eq!(st.extent(b).collect::<Vec<_>>(), vec![o2]);
        assert_eq!(st.extent_len(ClassId(9)), 0);
    }

    #[test]
    fn every_mutation_bumps_version() {
        let mut st = Store::new();
        let v0 = st.version();
        let oid = st.insert(ClassId(0), Tuple::new()).unwrap();
        let v1 = st.version();
        assert!(v1 > v0);
        st.set_field(oid, sym("X"), Value::Int(1)).unwrap();
        let v2 = st.version();
        assert!(v2 > v1);
        st.remove(oid).unwrap();
        assert!(st.version() > v2);
    }

    #[test]
    fn remove_clears_extent() {
        let mut st = Store::new();
        let oid = st.insert(ClassId(0), Tuple::new()).unwrap();
        st.remove(oid).unwrap();
        assert_eq!(st.extent(ClassId(0)).count(), 0);
        assert!(st.get(oid).is_none());
        assert!(matches!(st.remove(oid), Err(OodbError::UnknownObject(_))));
    }

    #[test]
    fn journal_reports_changes_since_version() {
        let mut st = Store::new();
        let v0 = st.version();
        let a = st.insert(ClassId(0), Tuple::new()).unwrap();
        let b = st.insert(ClassId(0), Tuple::new()).unwrap();
        let v2 = st.version();
        st.set_field(b, sym("X"), Value::Int(1)).unwrap();
        // Since v0: both objects (b deduplicated).
        let mut since0 = st.changes_since(v0).unwrap();
        since0.sort();
        assert_eq!(since0, {
            let mut v = vec![a, b];
            v.sort();
            v
        });
        // Since v2: only b.
        assert_eq!(st.changes_since(v2).unwrap(), vec![b]);
        // Up to date: empty.
        assert_eq!(st.changes_since(st.version()).unwrap(), Vec::<Oid>::new());
    }

    #[test]
    fn journal_gap_forces_recompute_signal() {
        let mut st = Store::new();
        st.set_journal_cap(2);
        let v0 = st.version();
        for _ in 0..5 {
            st.insert(ClassId(0), Tuple::new()).unwrap();
        }
        // v0 predates the retained window.
        assert_eq!(st.changes_since(v0), None);
        // But a recent version is still servable.
        let v_recent = st.version() - 1;
        assert_eq!(st.changes_since(v_recent).unwrap().len(), 1);
    }

    #[test]
    fn removed_objects_appear_in_the_journal() {
        let mut st = Store::new();
        let a = st.insert(ClassId(0), Tuple::new()).unwrap();
        let v = st.version();
        st.remove(a).unwrap();
        assert_eq!(st.changes_since(v).unwrap(), vec![a]);
    }

    #[test]
    fn oids_are_never_reused() {
        let mut st = Store::new();
        let o1 = st.insert(ClassId(0), Tuple::new()).unwrap();
        st.remove(o1).unwrap();
        let o2 = st.insert(ClassId(0), Tuple::new()).unwrap();
        assert_ne!(o1, o2);
    }

    /// The top of the base range: the topmost base oid costs one page, the
    /// imaginary range is refused from a file, and once the topmost base
    /// oid is replayed a fresh insert is a typed error that changes
    /// nothing — in that store only.
    #[test]
    fn the_topmost_base_oid_costs_one_page_and_the_imaginary_range_is_refused() {
        let top = Oid(IMAGINARY_OID_BASE - 1);
        let object = |oid| StoredObject {
            oid,
            class: ClassId(0),
            value: Tuple::new(),
        };
        let mut store = Store::new();
        store
            .insert_with_oid(Oid(3), ClassId(0), Tuple::new())
            .unwrap();
        store
            .insert_with_oid(top, ClassId(0), Tuple::new())
            .unwrap();
        assert_eq!((store.len(), store.pages()), (2, 2));
        assert_eq!(store.get(top), Some(&object(top)));
        assert_eq!(store.sorted_oids(), vec![Oid(3), top]);
        let version = store.version();
        for _ in 0..2 {
            let fresh = store.insert(ClassId(0), Tuple::new());
            assert_eq!(fresh, Err(OodbError::BaseOidsExhausted));
        }
        assert_eq!((store.len(), store.version()), (2, version));
        store.remove(top).unwrap();
        assert_eq!((store.len(), store.pages()), (1, 1));
        // Removing the top object does not lower the allocator.
        assert_eq!(
            store.insert(ClassId(0), Tuple::new()),
            Err(OodbError::BaseOidsExhausted)
        );

        // A WAL or snapshot naming an imaginary oid is a damaged file, not a
        // reason to seat a view's object in a base store.
        for imaginary in [Oid(IMAGINARY_OID_BASE), Oid(u64::MAX)] {
            let replayed = store.insert_with_oid(imaginary, ClassId(0), Tuple::new());
            assert!(
                matches!(replayed, Err(OodbError::Corrupt { .. })),
                "{replayed:?}"
            );
            let restored = Store::new().restore(vec![object(imaginary)], 1, 0);
            assert!(
                matches!(restored, Err(OodbError::Corrupt { .. })),
                "{restored:?}"
            );
            let next = imaginary.0.saturating_add(1);
            let restored = Store::new().restore(Vec::new(), 1, next);
            assert!(
                matches!(restored, Err(OodbError::Corrupt { .. })),
                "{restored:?}"
            );
        }
        assert_eq!((store.len(), store.pages()), (1, 1));
        let mut restored = Store::new();
        restored
            .restore(vec![object(top), object(Oid(3))], 9, 0)
            .unwrap();
        assert_eq!(
            (restored.len(), restored.pages(), restored.version()),
            (2, 2, 9)
        );
        assert_eq!(
            restored.insert(ClassId(0), Tuple::new()),
            Err(OodbError::BaseOidsExhausted)
        );
        // Every other store still numbers from its own history.
        assert_eq!(Store::new().insert(ClassId(0), Tuple::new()), Ok(Oid(0)));
    }

    /// A store numbers from its own history. Two stores sharing one
    /// allocator, as a system's databases do, number past each other, and
    /// a replay into one raises both. `shared_oid` finds an oid two stores
    /// both hold, whichever is larger.
    #[test]
    fn each_store_numbers_from_its_own_history() {
        let (mut a, mut b) = (Store::new(), Store::new());
        for _ in 0..3 {
            a.insert(ClassId(0), Tuple::new()).unwrap();
        }
        assert_eq!(b.insert(ClassId(0), Tuple::new()), Ok(Oid(0)));
        assert_eq!(a.shared_oid(&b), Some(Oid(0)));
        assert_eq!(b.shared_oid(&a), Some(Oid(0)));
        b.oids = a.oids.clone();
        b.remove(Oid(0)).unwrap();
        assert_eq!(b.insert(ClassId(0), Tuple::new()), Ok(Oid(3)));
        assert_eq!(a.insert(ClassId(0), Tuple::new()), Ok(Oid(4)));
        assert_eq!(a.shared_oid(&b), None);
        assert_eq!(Store::new().shared_oid(&a), None);
        b.insert_with_oid(Oid(9), ClassId(0), Tuple::new()).unwrap();
        assert_eq!(a.insert(ClassId(0), Tuple::new()), Ok(Oid(10)));
    }
}
