//! Imaginary identity (§5.1): how a view maps each imaginary class's core
//! tuples to oids. The tables are the system's ([`IdentityStore`]), kept
//! across recomputations, deletes, rebinds and restarts: each assignment
//! and drop is logged to the durable cores of the databases the view
//! reads, whose checkpoints write the system's tables, and a recovered
//! database seeds them when it joins. A class's entries are assigned, and
//! logged, only by the view that declares it; a view stacked above reads
//! the same entries, so a tuple has one oid through every view of a stack.
//! A child of `view` so it can reach the view's private state.

use ov_oodb::wal::WalRecord;

use super::*;

impl View {
    /// Maps the distinct tuples an imaginary population query produced to
    /// the class's objects (§5.1): "there could be a table giving the
    /// mapping between the tuples and oid's. In this way, we are guaranteed
    /// that the same tuple will be assigned the same oid each time the
    /// class C is invoked. (Note that a tuple will generate a different oid
    /// when used in a different class.)" New tuples take oids in set order,
    /// under one lock for the whole population; only those assignments are
    /// logged, after it is released, as one batch per durable core.
    /// Anything but a tuple is [`ViewError::NonTuplePopulation`].
    pub(super) fn adopt_tuples(
        &self,
        c: ClassId,
        tuples: BTreeSet<Value>,
    ) -> ov_query::Result<BTreeSet<Oid>> {
        let class = self.schema.read().class(c).name;
        let mut cores = Vec::with_capacity(tuples.len());
        for item in tuples {
            match item {
                Value::Tuple(t) => cores.push(t),
                other => {
                    return Err(ViewError::NonTuplePopulation {
                        class,
                        found: other.kind().to_string(),
                    }
                    .into());
                }
            }
        }
        let fresh = self.identity_mode == IdentityMode::Fresh;
        let (oids, new) = self.identity.assign(self.name, class, cores, fresh);
        self.log_identity(
            new.into_iter()
                .map(|(core, oid)| WalRecord::IdentityAssign {
                    view: self.name,
                    class,
                    core,
                    oid,
                }),
        );
        Ok(oids)
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
        let class = self.schema.read().class(class).name;
        let dead = self
            .identity
            .drop_where(self.name, |c, _, oid| c == class && !live.contains(&oid));
        let n = dead.len();
        self.log_drops(dead);
        Ok(n)
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
            None => self
                .identity
                .len(self.name, self.schema.read().class(c).name),
        }
    }

    /// Drops every entry of this view's own identity tables whose core
    /// tuple references `dead`, with its imaginary object.
    pub(super) fn purge_dead_identity(&self, dead: Oid) {
        let purged = self.identity.drop_where(self.name, |_, core, _| {
            let mut refs = Vec::new();
            for (_, v) in core.iter() {
                v.collect_oids(&mut refs);
            }
            refs.contains(&dead)
        });
        if !purged.is_empty() {
            ov_oodb::metric_counter!("views.identity_purged").add(purged.len() as u64);
        }
        self.log_drops(purged);
    }

    /// Logs dropped identity entries to the durable cores.
    fn log_drops(&self, dropped: Vec<(Symbol, Tuple)>) {
        let view = self.name;
        self.log_identity(
            dropped
                .into_iter()
                .map(|(class, core)| WalRecord::IdentityDrop { view, class, core }),
        );
    }

    /// Logs identity records to each durable core the view logs to, one
    /// batch (one commit) per core.
    fn log_identity(&self, records: impl Iterator<Item = WalRecord>) {
        if self.durable.is_empty() {
            return;
        }
        let records: Vec<WalRecord> = records.collect();
        for d in &self.durable {
            d.log_identity(self.name, &records);
        }
    }
}
