//! Imaginary identity (§5.1): the tables that map each imaginary class's
//! core tuples to oids, kept across recomputations, deletes and restarts.
//! A class has one table, kept — and logged to the durable cores — by the
//! view that declares it; a view stacked above reads the table there, so a
//! tuple has one oid through every view of a stack. Oids come from the
//! system's one allocator. A child of `view` so it can reach the view's
//! private tables.

use super::*;

impl View {
    /// Maps the distinct tuples an imaginary population query produced to
    /// the class's objects, assigning oids in set order. Anything but a
    /// tuple is [`ViewError::NonTuplePopulation`].
    pub(super) fn adopt_tuples(
        &self,
        c: ClassId,
        tuples: BTreeSet<Value>,
    ) -> ov_query::Result<BTreeSet<Oid>> {
        let mut out = BTreeSet::new();
        for item in tuples {
            match item {
                Value::Tuple(t) => {
                    out.insert(self.imaginary_oid(c, t));
                }
                other => {
                    let name = self.schema.read().class(c).name;
                    return Err(ViewError::NonTuplePopulation {
                        class: name,
                        found: other.kind().to_string(),
                    }
                    .into());
                }
            }
        }
        Ok(out)
    }

    /// Maps a core tuple to its imaginary oid (§5.1): "there could be a
    /// table giving the mapping between the tuples and oid's. In this way,
    /// we are guaranteed that the same tuple will be assigned the same oid
    /// each time the class C is invoked. (Note that a tuple will generate a
    /// different oid when used in a different class.)"
    fn imaginary_oid(&self, class: ClassId, core: Tuple) -> Oid {
        if self.identity_mode == IdentityMode::Table {
            // Resolve the durable class *name* before the identity lock:
            // names are the durable key (ids are rebuilt per bind), and
            // taking the schema lock later would invert lock orders.
            let durable_name = if self.durable.is_empty() {
                None
            } else {
                Some(self.schema.read().class(class).name)
            };
            // Check-and-assign under one write lock: two threads mapping
            // the same tuple concurrently must agree on its oid.
            let mut identity = self.identity.write();
            let table = identity.entry(class).or_default();
            if let Some(&oid) = table.get(&core) {
                return oid;
            }
            let oid = Oid(self.next_imaginary.fetch_add(1, Ordering::Relaxed));
            table.insert(core.clone(), oid);
            // The object goes in before the identity lock is released
            // (lock order identity → imaginary): the table hands the oid
            // to the next thread that maps this tuple, and an oid it hands
            // out must already read as an object.
            self.imaginary.write().insert(
                oid,
                ImaginaryObject {
                    class,
                    core: core.clone(),
                },
            );
            drop(identity);
            // Only the winning assignment reaches the WAL; losers returned
            // early above. Logging happens outside every lock.
            if let Some(name) = durable_name {
                for d in &self.durable {
                    d.log_identity_assign(self.name, name, core.clone(), oid);
                }
            }
            oid
        } else {
            let oid = Oid(self.next_imaginary.fetch_add(1, Ordering::Relaxed));
            self.imaginary
                .write()
                .insert(oid, ImaginaryObject { class, core });
            oid
        }
    }

    /// The core attribute names of a named imaginary class (§5), sorted.
    pub fn core_attrs(&self, name: Symbol) -> Option<Vec<Symbol>> {
        let c = self.lookup_class(name)?;
        match self.kinds.read().get(&c) {
            Some(ClassKind::Imaginary { core }) => Some(core.clone()),
            _ => None,
        }
    }

    /// Garbage-collects the identity table of imaginary class `name`:
    /// entries whose core tuple is no longer produced by the population
    /// query are dropped (with their cached imaginary objects). Live
    /// entries keep their oids.
    ///
    /// DECISION: the paper keeps the table abstract ("there could be a
    /// table giving the mapping"); unbounded growth under churn (Example 6)
    /// is real, so we expose collection as an explicit, user-invoked
    /// choice — collecting implicitly would *change identity semantics*
    /// for tuples that disappear and later reappear.
    ///
    /// Returns the number of entries removed.
    pub fn gc_identity(&self, name: Symbol) -> Result<usize> {
        let class = self
            .lookup_class(name)
            .ok_or(OodbError::UnknownClass(name))?;
        self.gc_class(class)
    }

    /// [`Self::gc_identity`] of class `class`, by the view that declares it.
    fn gc_class(&self, class: ClassId) -> Result<usize> {
        if let Some((up, theirs)) = self.upstream_of(class) {
            return up.gc_class(theirs);
        }
        // Force a fresh population so the live-oid set is current.
        let live = self.population(class)?;
        let mut identity = self.identity.write();
        let Some(table) = identity.get_mut(&class) else {
            return Ok(0);
        };
        let dead: Vec<(Tuple, Oid)> = table
            .iter()
            .filter(|(_, o)| !live.contains(o))
            .map(|(t, o)| (t.clone(), *o))
            .collect();
        table.retain(|_, oid| live.contains(oid));
        let mut imaginary = self.imaginary.write();
        for (_, o) in &dead {
            imaginary.remove(o);
        }
        drop(imaginary);
        drop(identity);
        if !self.durable.is_empty() && !dead.is_empty() {
            let class_name = self.schema.read().class(class).name;
            for (tuple, _) in &dead {
                for d in &self.durable {
                    d.log_identity_drop(self.name, class_name, tuple);
                }
            }
        }
        Ok(dead.len())
    }

    /// Number of identity-table entries for a named imaginary class
    /// (observability for tests and benchmarks).
    pub fn identity_table_len(&self, name: Symbol) -> usize {
        let Some(c) = self.lookup_class(name) else {
            return 0;
        };
        self.table_len(c)
    }

    /// The size of class `c`'s identity table, in the view that declares it.
    fn table_len(&self, c: ClassId) -> usize {
        match self.upstream_of(c) {
            Some((up, theirs)) => up.table_len(theirs),
            None => self.identity.read().get(&c).map_or(0, |t| t.len()),
        }
    }

    /// Drops every entry of this view's own identity tables whose core
    /// tuple references `dead` (with its cached imaginary object). Lock
    /// order identity → imaginary, matching [`Self::gc_identity`] and
    /// [`Self::imaginary_oid`].
    pub(super) fn purge_dead_identity(&self, dead: Oid) {
        let mut purged: Vec<(ClassId, Tuple, Oid)> = Vec::new();
        let mut identity = self.identity.write();
        for (&class, table) in identity.iter_mut() {
            table.retain(|tuple, &mut im_oid| {
                let mut refs = Vec::new();
                for (_, v) in tuple.iter() {
                    v.collect_oids(&mut refs);
                }
                if refs.contains(&dead) {
                    purged.push((class, tuple.clone(), im_oid));
                    false
                } else {
                    true
                }
            });
        }
        let mut imaginary = self.imaginary.write();
        for (_, _, o) in &purged {
            imaginary.remove(o);
        }
        drop(imaginary);
        drop(identity);
        if !purged.is_empty() {
            ov_oodb::metric_counter!("views.identity_purged").add(purged.len() as u64);
            if !self.durable.is_empty() {
                let schema = self.schema.read();
                for (class, tuple, _) in &purged {
                    let class_name = schema.class(*class).name;
                    for d in &self.durable {
                        d.log_identity_drop(self.name, class_name, tuple);
                    }
                }
            }
        }
    }

    /// Re-seats identity assignments persisted by an earlier incarnation
    /// of this view (recovered by the sources' durability cores): each
    /// durable `(class name, core tuple) → oid` entry whose class is still
    /// an imaginary class this view declares is installed in the in-memory
    /// tables, and the system's imaginary-oid allocator moves above every
    /// recovered oid. An entry for a class an upstream view declares —
    /// older builds logged one per view a class was spliced into — is not
    /// this view's and is ignored. Called once at the end of bind.
    pub(super) fn adopt_durable_identity(&self) {
        if self.durable.is_empty() {
            return;
        }
        let schema = self.schema.read();
        let kinds = self.kinds.read();
        let virt = self.virt.read();
        let mut identity = self.identity.write();
        let mut imaginary = self.imaginary.write();
        let mut floor = IMAGINARY_OID_BASE;
        let mut adopted = 0u64;
        for core in &self.durable {
            floor = floor.max(core.next_imaginary());
            for (class_name, tuple, oid) in core.identity_for_view(self.name) {
                let Some(cid) = schema.class_by_name(class_name) else {
                    continue; // class no longer in the view definition
                };
                if !matches!(kinds.get(&cid), Some(ClassKind::Imaginary { .. }))
                    || !matches!(virt.get(&cid), Some(Populated::Here(_)))
                {
                    continue;
                }
                let table = identity.entry(cid).or_default();
                if table.contains_key(&tuple) {
                    continue;
                }
                table.insert(tuple.clone(), oid);
                imaginary.insert(
                    oid,
                    ImaginaryObject {
                        class: cid,
                        core: tuple,
                    },
                );
                floor = floor.max(oid.0 + 1);
                adopted += 1;
            }
        }
        self.next_imaginary.fetch_max(floor, Ordering::Relaxed);
        if adopted > 0 {
            ov_oodb::metric_counter!("views.identity_adopted").add(adopted);
        }
    }
}
