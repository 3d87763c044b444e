//! Optimizer statistics: per-class cardinality and per-attribute
//! NDV / min–max / null-fraction sketches.
//!
//! The statistics plane is fed *opportunistically*: nothing ever scans the
//! store just to build statistics. Instead, the one scan driver of the
//! query layer — a statement's or a view population's sequential scan,
//! work that is already touching every row — samples the head of the
//! extent into this registry when profiling is enabled
//! ([`crate::metrics::profiling_enabled`]). The sketches are deliberately
//! cheap: NDV is a 64-register HyperLogLog over an FNV-1a hash of the
//! value's canonical rendering (≈ 13% relative error, 64 bytes per
//! attribute), min/max ride on [`Value`]'s total order, and null fraction
//! is two integers.
//!
//! Staleness is handled the same way as the compiled engine's resolution
//! caches: every observation carries the source's generation, and a
//! generation mismatch resets the class's statistics before the new
//! observation lands. The query planner reads the typed [`Statistics`]
//! snapshot to choose access paths and join orders and to estimate rows;
//! `ovq .stats` and `harness` surface it for humans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::symbol::Symbol;
use crate::value::Value;

/// HyperLogLog register count (m). 64 registers ⇒ ~13% NDV error — plenty
/// for join-ordering-class decisions at 64 bytes per attribute.
const HLL_REGS: usize = 64;
/// Bias-correction constant α for m = 64: 0.7213 / (1 + 1.079/64).
const HLL_ALPHA: f64 = 0.709_2;

/// FNV-1a 64 (same algorithm as `ov_query::fingerprint`; duplicated here
/// because the dependency points the other way).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A cheap per-attribute sketch: sampled rows, nulls, HLL registers for
/// NDV, and the running min/max.
#[derive(Clone, Debug, PartialEq)]
pub struct AttrSketch {
    /// Values observed (the sketch's sample size, not the class
    /// cardinality).
    pub rows: u64,
    /// Observed values that were `Null`.
    pub nulls: u64,
    /// HyperLogLog registers over non-null values.
    regs: [u8; HLL_REGS],
    /// Smallest non-null value observed.
    pub min: Option<Value>,
    /// Largest non-null value observed.
    pub max: Option<Value>,
}

impl Default for AttrSketch {
    fn default() -> AttrSketch {
        AttrSketch {
            rows: 0,
            nulls: 0,
            regs: [0; HLL_REGS],
            min: None,
            max: None,
        }
    }
}

impl AttrSketch {
    /// Folds one observed value into the sketch.
    pub fn observe(&mut self, v: &Value) {
        self.rows += 1;
        if matches!(v, Value::Null) {
            self.nulls += 1;
            return;
        }
        let h = fnv1a(v.to_string().as_bytes());
        let reg = (h & (HLL_REGS as u64 - 1)) as usize;
        // Rank of the first set bit in the remaining 58 bits (+1), capped
        // so the u8 register never overflows.
        let rest = h >> 6;
        let rank = (rest.trailing_zeros() + 1).min(58) as u8;
        if rank > self.regs[reg] {
            self.regs[reg] = rank;
        }
        let better_min = self.min.as_ref().is_none_or(|m| v < m);
        if better_min {
            self.min = Some(v.clone());
        }
        let better_max = self.max.as_ref().is_none_or(|m| v > m);
        if better_max {
            self.max = Some(v.clone());
        }
    }

    /// The estimated number of distinct non-null values.
    pub fn ndv(&self) -> u64 {
        let m = HLL_REGS as f64;
        let mut sum = 0.0f64;
        let mut zeros = 0u32;
        for &r in &self.regs {
            sum += 2f64.powi(-(r as i32));
            if r == 0 {
                zeros += 1;
            }
        }
        let raw = HLL_ALPHA * m * m / sum;
        let est = if raw <= 2.5 * m && zeros > 0 {
            // Small-range correction: linear counting over empty registers.
            m * (m / zeros as f64).ln()
        } else {
            raw
        };
        est.round() as u64
    }

    /// The fraction of observed values that were null (0.0 when nothing
    /// was observed).
    pub fn null_fraction(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nulls as f64 / self.rows as f64
        }
    }
}

/// Mutable statistics state for one class, guarded by its generation.
#[derive(Clone, Debug, Default, PartialEq)]
struct ClassStatsInner {
    /// The source generation the statistics were observed under.
    generation: u64,
    /// Last observed extent size, if any scan reported one.
    cardinality: Option<u64>,
    /// Per-attribute sketches.
    attrs: BTreeMap<Symbol, AttrSketch>,
}

/// Statistics for one class. Observations carry the source's resolution
/// generation; a mismatch resets everything first (same invalidation
/// discipline as the compiled engine's resolution caches).
#[derive(Debug, Default)]
pub struct ClassStats {
    inner: RwLock<ClassStatsInner>,
}

impl ClassStats {
    fn fresh<'a>(
        inner: &'a mut parking_lot::RwLockWriteGuard<'_, ClassStatsInner>,
        generation: u64,
    ) -> &'a mut ClassStatsInner {
        if inner.generation != generation {
            **inner = ClassStatsInner {
                generation,
                ..ClassStatsInner::default()
            };
        }
        inner
    }

    /// Records the class's extent size as seen by a full scan or a
    /// completed population.
    pub fn note_cardinality(&self, generation: u64, n: u64) {
        let mut inner = self.inner.write();
        Self::fresh(&mut inner, generation).cardinality = Some(n);
    }

    /// Folds a column of observed attribute values into the class's
    /// sketch for `attr`. `None` entries (rows the scan could not probe)
    /// are skipped, not counted as nulls.
    pub fn observe_column<'v>(
        &self,
        generation: u64,
        attr: Symbol,
        values: impl IntoIterator<Item = Option<&'v Value>>,
    ) {
        let mut inner = self.inner.write();
        let fresh = Self::fresh(&mut inner, generation);
        let sketch = fresh.attrs.entry(attr).or_default();
        for v in values.into_iter().flatten() {
            sketch.observe(v);
        }
    }

    /// A point-in-time copy of this class's statistics.
    pub fn snapshot(&self) -> ClassStatistics {
        let inner = self.inner.read();
        ClassStatistics {
            generation: inner.generation,
            cardinality: inner.cardinality,
            attrs: inner
                .attrs
                .iter()
                .map(|(name, s)| {
                    (
                        *name,
                        AttrStatistics {
                            rows: s.rows,
                            nulls: s.nulls,
                            ndv: s.ndv(),
                            null_fraction: s.null_fraction(),
                            min: s.min.clone(),
                            max: s.max.clone(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// The process-wide statistics registry, keyed by class name.
#[derive(Debug, Default)]
pub struct StatsRegistry {
    classes: RwLock<BTreeMap<Symbol, Arc<ClassStats>>>,
}

impl StatsRegistry {
    /// An empty registry (the process normally uses [`stats`]).
    pub fn new() -> StatsRegistry {
        StatsRegistry::default()
    }

    /// The statistics slot for `class`, created on first use. Hot call
    /// sites should hold the returned `Arc` for the duration of a scan.
    pub fn class(&self, class: Symbol) -> Arc<ClassStats> {
        if let Some(c) = self.classes.read().get(&class) {
            return c.clone();
        }
        self.classes.write().entry(class).or_default().clone()
    }

    /// Drops every class's statistics.
    pub fn clear(&self) {
        self.classes.write().clear();
    }

    /// A typed point-in-time copy of everything observed so far.
    pub fn snapshot(&self) -> Statistics {
        Statistics {
            classes: self
                .classes
                .read()
                .iter()
                .map(|(name, c)| (*name, c.snapshot()))
                .collect(),
        }
    }
}

/// The process-wide statistics registry.
pub fn stats() -> &'static StatsRegistry {
    static GLOBAL: OnceLock<StatsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(StatsRegistry::default)
}

/// A typed snapshot of the statistics plane — the interface a cost model
/// consumes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Statistics {
    /// Per-class statistics by class name.
    pub classes: BTreeMap<Symbol, ClassStatistics>,
}

/// Point-in-time statistics for one class.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClassStatistics {
    /// The source generation the statistics were observed under.
    pub generation: u64,
    /// Last observed extent size, when a scan reported one.
    pub cardinality: Option<u64>,
    /// Per-attribute estimates.
    pub attrs: BTreeMap<Symbol, AttrStatistics>,
}

/// Point-in-time estimates for one attribute of one class.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AttrStatistics {
    /// Values the sketch observed (sample size).
    pub rows: u64,
    /// Observed nulls.
    pub nulls: u64,
    /// Estimated distinct non-null values.
    pub ndv: u64,
    /// `nulls / rows` (0.0 when nothing observed).
    pub null_fraction: f64,
    /// Smallest non-null value observed.
    pub min: Option<Value>,
    /// Largest non-null value observed.
    pub max: Option<Value>,
}

impl Statistics {
    /// Serializes the statistics as a JSON document keyed by class name.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (class, c)) in self.classes.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  \"{class}\": {{\"generation\": {}, \"cardinality\": {}, \"attrs\": {{",
                c.generation,
                match c.cardinality {
                    Some(n) => n.to_string(),
                    None => "null".to_owned(),
                },
            );
            for (j, (attr, a)) in c.attrs.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(
                    out,
                    "{sep}\"{attr}\": {{\"rows\": {}, \"nulls\": {}, \"ndv\": {}, \
                     \"null_fraction\": {:.4}, \"min\": {}, \"max\": {}}}",
                    a.rows,
                    a.nulls,
                    a.ndv,
                    a.null_fraction,
                    json_value(&a.min),
                    json_value(&a.max),
                );
            }
            out.push_str("}}");
        }
        out.push_str("\n}\n");
        out
    }
}

/// Renders an optional min/max value as a JSON string (or `null`).
fn json_value(v: &Option<Value>) -> String {
    match v {
        Some(v) => {
            let rendered = v.to_string();
            let mut out = String::with_capacity(rendered.len() + 2);
            out.push('"');
            for c in rendered.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        None => "null".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::sym;

    #[test]
    fn sketch_tracks_min_max_nulls() {
        let mut s = AttrSketch::default();
        for v in [
            Value::Int(5),
            Value::Int(2),
            Value::Null,
            Value::Int(9),
            Value::Int(2),
        ] {
            s.observe(&v);
        }
        assert_eq!(s.rows, 5);
        assert_eq!(s.nulls, 1);
        assert_eq!(s.min, Some(Value::Int(2)));
        assert_eq!(s.max, Some(Value::Int(9)));
        assert!((s.null_fraction() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn ndv_estimate_is_in_the_right_ballpark() {
        let mut s = AttrSketch::default();
        for i in 0..1_000 {
            // 100 distinct values, observed 10× each.
            s.observe(&Value::Int(i % 100));
        }
        let ndv = s.ndv();
        assert!(
            (60..=150).contains(&ndv),
            "NDV estimate {ndv} too far from 100"
        );
        // Low-cardinality attributes estimate (near-)exactly via the
        // small-range correction.
        let mut s2 = AttrSketch::default();
        for i in 0..1_000 {
            s2.observe(&Value::Int(i % 3));
        }
        assert_eq!(s2.ndv(), 3);
        assert_eq!(AttrSketch::default().ndv(), 0);
    }

    #[test]
    fn generation_mismatch_resets_class_stats() {
        let c = ClassStats::default();
        c.note_cardinality(1, 100);
        c.observe_column(1, sym("Age"), [Some(&Value::Int(1))]);
        let snap = c.snapshot();
        assert_eq!(snap.cardinality, Some(100));
        assert_eq!(snap.attrs[&sym("Age")].rows, 1);
        // A new generation wipes the old observations before landing.
        c.observe_column(2, sym("Age"), [Some(&Value::Int(7))]);
        let snap = c.snapshot();
        assert_eq!(snap.generation, 2);
        assert_eq!(snap.cardinality, None, "stale cardinality dropped");
        assert_eq!(snap.attrs[&sym("Age")].rows, 1);
        assert_eq!(snap.attrs[&sym("Age")].min, Some(Value::Int(7)));
    }

    #[test]
    fn none_entries_are_skipped_not_null() {
        let c = ClassStats::default();
        c.observe_column(1, sym("Age"), [Some(&Value::Int(1)), None, None]);
        let a = &c.snapshot().attrs[&sym("Age")];
        assert_eq!(a.rows, 1);
        assert_eq!(a.nulls, 0);
    }

    #[test]
    fn registry_snapshot_and_json() {
        let r = StatsRegistry::new();
        r.class(sym("Person")).note_cardinality(1, 42);
        r.class(sym("Person")).observe_column(
            1,
            sym("Name"),
            [Some(&Value::str("a")), Some(&Value::Null)],
        );
        let snap = r.snapshot();
        assert_eq!(snap.classes[&sym("Person")].cardinality, Some(42));
        let json = snap.to_json();
        assert!(json.contains("\"cardinality\": 42"), "got: {json}");
        assert!(json.contains("\"Name\""), "got: {json}");
        assert!(json.contains("\"null_fraction\": 0.5000"), "got: {json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        r.clear();
        assert!(r.snapshot().classes.is_empty());
    }
}
