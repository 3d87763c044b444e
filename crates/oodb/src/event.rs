//! The event table: one row per event, naming the span it records and the
//! counter and histogram its close derives.
//!
//! A site opens an event where the occurrence starts ([`Event::open`]) and
//! closes it once where it completes ([`Open::close`]). The close adds to
//! the row's counter, records the duration in the row's histogram and
//! closes the span with that same duration, so the three agree by
//! construction. An event dropped unclosed — its occurrence failed — records
//! its span and counts nothing. Every process-wide histogram is a row here.

use std::time::Instant;

use crate::trace::{FieldValue, SpanGuard};

macro_rules! events {
    ($($(#[$doc:meta])* $event:ident = $span:literal
        $(, counter $counter:literal)? $(, histogram $histogram:literal)?;)*) => {
        /// A row of the event table (see the [module docs](self)).
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Event {
            $($(#[$doc])* $event,)*
        }

        impl Event {
            /// The name of the span the event records.
            fn span(self) -> &'static str {
                match self {
                    $(Event::$event => $span,)*
                }
            }

            /// Does the row name a histogram?
            fn has_histogram(self) -> bool {
                match self {
                    $(Event::$event => !stringify!($($histogram)?).is_empty(),)*
                }
            }

            /// Adds `n` to the row's counter and records `nanos` in its
            /// histogram, each if the row has one.
            fn derive(self, n: u64, nanos: u64) {
                match self {
                    $(Event::$event => {
                        $($crate::metric_counter!($counter).add(n);)?
                        $($crate::metric_histogram!($histogram).record(nanos);)?
                    })*
                }
            }
        }
    };
}

events! {
    /// A secondary-index probe, answered or not (`oodb.index.hits` counts
    /// the answered ones).
    IndexLookup = "store.index_lookup", counter "oodb.index.lookups";
    /// A secondary index built by its first probe.
    IndexBuild = "store.index_build", counter "oodb.index.builds";
    /// One record appended to the WAL.
    WalAppend = "wal.append", counter "wal.appends";
    /// One fsync of the WAL.
    WalFsync = "wal.fsync", counter "wal.fsyncs", histogram "wal_fsync_ns";
    /// One snapshot written by a checkpoint.
    CheckpointWrite = "checkpoint.write", counter "checkpoint.writes";
    /// One durable database opened; its close counts the records replayed.
    RecoveryReplay = "recovery.replay", counter "recovery.replayed_records",
        histogram "recovery_ns";
    /// One firing of an armed failpoint.
    FaultInjected = "fault.injected", counter "faults.injected";
    /// A request for a virtual or imaginary class's population: opened as
    /// this row, closed as the row of its path, or as this one if it failed.
    Population = "view.population";
    /// A population served from the version-keyed cache.
    PopulationCacheHit = "view.population", histogram "views.population.cache_hit_ns";
    /// A population patched from the store change journals.
    PopulationDelta = "view.population", histogram "views.population.delta_ns";
    /// A population computed from scratch.
    PopulationRecompute = "view.population", histogram "views.population.recompute_ns";
    /// A stale population served after its recomputation failed.
    PopulationStaleServe = "view.population", histogram "views.population.stale_serve_ns";
    /// A bind's walk over its view imports: the base imports and the
    /// upstream views it reaches.
    BindExpand = "view.bind.expand";
    /// A bind's base imports.
    BindImport = "view.bind.import";
    /// A bind's copies of the classes its upstream views declare.
    BindCopy = "view.bind.copy";
    /// A view's own definitions, or one template instance; its close counts
    /// the classes derived from their includes.
    BindDefine = "view.bind.define", counter "views.classes_defined";
    /// A bind's decisions of which of its own classes a delta decides.
    BindDecideDelta = "view.bind.decide_delta";
}

impl Event {
    /// Opens the event: its span (one relaxed load when tracing is off) and,
    /// for a row with a histogram, a clock. A population request reads one
    /// too: it learns its row, and so its histogram, at the close.
    #[inline]
    pub fn open(self) -> Open {
        let timed = self == Event::Population || self.has_histogram();
        Open {
            event: self,
            span: SpanGuard::begin(self.span()),
            start: timed.then(Instant::now),
        }
    }
}

/// An event between its open and its one close.
#[must_use = "an event is reported by its close"]
pub struct Open {
    event: Event,
    span: SpanGuard,
    start: Option<Instant>,
}

impl Open {
    /// Attaches a field to the event's span; see [`SpanGuard::field`].
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        self.span.field(key, value);
    }

    /// Is the event's span recording?
    pub fn is_recording(&self) -> bool {
        self.span.is_recording()
    }

    /// Closes the event as the row it was opened as; see [`Open::close_as`].
    pub fn close(self, n: u64) -> u64 {
        let event = self.event;
        self.close_as(event, n)
    }

    /// Closes the event as `event`, a row of the same span: adds `n` to the
    /// row's counter, records the duration in its histogram and as the
    /// span's, and returns it (0 for an untimed row).
    pub fn close_as(self, event: Event, n: u64) -> u64 {
        debug_assert_eq!(event.span(), self.event.span(), "a row of another span");
        let nanos = self.start.map_or(0, |t| t.elapsed().as_nanos() as u64);
        event.derive(n, nanos);
        if self.start.is_some() {
            self.span.finish(nanos);
        }
        nanos
    }
}
