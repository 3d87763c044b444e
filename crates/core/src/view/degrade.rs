//! The stale-serve ladder of a population request: one recompute attempt,
//! and a faulted or budget-stopped one serves the last good population;
//! one close reports the outcome to every surface. A child of `view` so it
//! can reach the view's caches and counters.

use super::*;

impl View {
    /// The population of a virtual/imaginary class, cached — by the view
    /// that declares it: the population of an upstream view's class is
    /// that view's, with its cache, counters and events.
    ///
    /// Concurrency: two threads may find the cache cold and compute the
    /// same population simultaneously. That is benign — both compute the
    /// same set (the computation only reads source data at the cached
    /// versions) and cache insertion is last-writer-wins with equal values.
    /// We deliberately do NOT hold the cache lock across the computation:
    /// population is re-entrant (computing A may populate B), and blocking
    /// readers of other classes for the whole computation would serialize
    /// concurrent readers of the view.
    pub(super) fn population(&self, c: ClassId) -> ov_query::Result<Arc<BTreeSet<Oid>>> {
        if let Some((up, theirs)) = self.upstream_of(c) {
            return up.population(theirs);
        }
        if ov_query::view_frame(self.token).populating.contains(&c) {
            let name = self.schema.read().class(c).name;
            return Err(ViewError::CyclicVirtualClass(name).into());
        }
        let request = Event::Population.open();
        // One attempt: a population is a function of in-memory base state,
        // so a recompute run again over the same state fails again.
        let (resolved, scans) = plan::population_scans(|| self.population_inner(c));
        let resolved = resolved.or_else(|e| self.degrade(c, e));
        self.close_population(c, request, resolved, scans)
    }

    /// The one close of a population request, which every surface reads:
    /// the span (fields and duration), the histogram and view counter of the
    /// path that resolved it, the EXPLAIN event — a recompute's carrying
    /// `scans` — and the statistics plane. A failed request closes its span
    /// only, naming the class.
    fn close_population(
        &self,
        c: ClassId,
        mut request: ov_oodb::event::Open,
        resolved: ov_query::Result<(Arc<BTreeSet<Oid>>, plan::PopPath)>,
        scans: Vec<plan::ScanEvent>,
    ) -> ov_query::Result<Arc<BTreeSet<Oid>>> {
        use plan::PopPath;
        let (event, label) = match resolved.as_ref().map(|(_, path)| path) {
            Ok(PopPath::CacheHit) => (Event::PopulationCacheHit, "cache_hit"),
            Ok(PopPath::Delta { .. }) => (Event::PopulationDelta, "delta"),
            Ok(PopPath::FullRecompute { .. }) => (Event::PopulationRecompute, "recompute"),
            Ok(PopPath::StaleServe) => (Event::PopulationStaleServe, "stale_serve"),
            Err(_) => (Event::Population, "error"),
        };
        // `population_inner` bumps `recomputations` and `cache_misses`.
        match event {
            Event::PopulationCacheHit => self.stats.bump(Stat::CacheHit),
            Event::PopulationDelta => self.stats.bump(Stat::IncrementalUpdate),
            Event::PopulationStaleServe => self.stats.bump(Stat::StaleServe),
            _ => {}
        }
        let name = || self.schema.read().class(c).name;
        if request.is_recording() {
            request.field("class", name());
            request.field("path", label);
            if let Ok((oids, _)) = &resolved {
                request.field("rows", oids.len());
            }
        }
        let nanos = request.close_as(event, 1);
        let (oids, path) = resolved?;
        if plan::tracing_active() {
            let path = match path {
                PopPath::FullRecompute { .. } => PopPath::FullRecompute { scans },
                path => path,
            };
            plan::record_population(plan::PopulationTrace {
                class: name(),
                rows: oids.len(),
                path,
                nanos,
            });
        }
        // Opportunistic statistics: a population that was computed now is an
        // exact cardinality observation for the virtual class, keyed to the
        // resolution generation it was computed under.
        if event != Event::PopulationStaleServe && ov_oodb::metrics::profiling_enabled() {
            ov_oodb::stats::stats().class(name()).note_cardinality(
                ov_query::DataSource::resolution_generation(self),
                oids.len() as u64,
            );
        }
        Ok(oids)
    }

    /// The failure tail of [`Self::population`]: serves the last good
    /// cached population (any version — it is by definition stale) when the
    /// failure is a fault or a budget breach, else lets the typed error
    /// propagate — as [`ViewError::Degraded`] when the failure was a fault.
    /// A nested population with no fallback hands its fault up, so the
    /// outermost population with no fallback names the error, with the
    /// innermost fault as its cause.
    ///
    /// A stale serve can never mix generations. The cache holds one
    /// `Arc<BTreeSet<Oid>>` per class, cloned out under the cache's read
    /// lock. A recompute swaps the pointer and a delta patches the set,
    /// both under the cache's write lock, and a delta applies all of its
    /// verdicts or none; a set some caller still holds is copied before it
    /// is patched ([`Self::try_incremental`]). So callers see either the
    /// old population or the new one in full — never a blend.
    fn degrade(
        &self,
        c: ClassId,
        e: QueryError,
    ) -> ov_query::Result<(Arc<BTreeSet<Oid>>, plan::PopPath)> {
        let e = match ViewError::from(e) {
            ViewError::Degraded { cause, .. } => *cause,
            e => e,
        };
        let fault_induced = matches!(e, ViewError::Oodb(OodbError::Fault(_)));
        let degradable = fault_induced
            || matches!(
                e,
                ViewError::Query(QueryError::Cancelled(_) | QueryError::ResourceExhausted(_))
            );
        if degradable {
            let stale = self.pop_cache.read().get(&c).map(|p| p.oids.clone());
            if let Some(oids) = stale {
                return Ok((oids, plan::PopPath::StaleServe));
            }
        }
        if !fault_induced {
            return Err(e.into());
        }
        Err(ViewError::Degraded {
            class: self.schema.read().class(c).name,
            cause: Box::new(e),
        }
        .into())
    }
}
