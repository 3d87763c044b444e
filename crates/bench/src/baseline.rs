//! Bench snapshots, the ledger, and the perf gate.
//!
//! The harness records one nanoseconds sample per timed table cell under a
//! stable `"Experiment/label/column"` key (e.g. `"E1/10000/computed@view"`).
//! A *snapshot* is the flat JSON object of those keys, written with sorted
//! keys so snapshots diff cleanly:
//!
//! ```json
//! {
//!   "E1/1000/computed@view": 1234.5,
//!   "E1/1000/stored@base": 210.0
//! }
//! ```
//!
//! Three things are done with snapshots, and values are only ever compared
//! between runs on one machine:
//!
//! * `harness --save-baseline FILE` writes the snapshot of a run.
//! * `harness --ledger FILE` checks the *key set* of a run against the
//!   committed ledger (`BENCH_latest.json`): a cell the ledger names and
//!   the run did not produce, or the reverse, fails the run
//!   ([`key_diff`]). The ledger's values are a record, not a threshold.
//! * `harness --compare OLD[,OLD…] NEW[,NEW…]` is the gate
//!   (`crates/bench/perf-gate.sh` feeds it three alternating runs of two
//!   builds, six to confirm a failure): each side is reduced to its per-key minimum ([`min_of`]),
//!   which absorbs a burst of scheduler steal in any one run, and a cell
//!   regresses when `new/old` exceeds [`GATE_RATIO`] AND the absolute
//!   delta clears [`NOISE_FLOOR_NS`] ([`compare`]).

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Ratio (new/old) above which a cell counts as regressed. On a quiet
/// machine the per-key minima of three runs a side of one binary stay
/// inside it on every cell, and a 1.3× handicap of one cell does not
/// (EXPERIMENTS.md, "Flight recorder & baselines"; on a busy machine
/// `perf-gate.sh` confirms a failure with three more rounds).
pub const GATE_RATIO: f64 = 1.25;

/// Absolute delta (ns) below which a ratio blowup is ignored as noise:
/// a 30 ns → 90 ns cell is a 3× "regression" that means nothing.
pub const NOISE_FLOOR_NS: f64 = 1_000.0;

/// One run's cells: `"Experiment/label/column"` → ns.
pub type Snapshot = BTreeMap<String, f64>;

static RECORDS: Mutex<Option<Snapshot>> = Mutex::new(None);

/// Records one timed cell under `experiment/label/column`.
///
/// Always on: recording a few hundred keys per harness run costs nothing
/// next to the experiments themselves, and keeps the call sites free of
/// mode checks.
pub fn record(experiment: &str, label: &str, column: &str, ns: f64) {
    let key = format!("{experiment}/{label}/{column}");
    RECORDS
        .lock()
        .expect("baseline records poisoned")
        .get_or_insert_with(BTreeMap::new)
        .insert(key, ns);
}

/// All records so far, keyed `"Experiment/label/column"` → mean ns.
pub fn snapshot() -> Snapshot {
    RECORDS
        .lock()
        .expect("baseline records poisoned")
        .clone()
        .unwrap_or_default()
}

/// Renders a snapshot as pretty JSON with sorted keys (BTreeMap order).
pub fn to_json(map: &Snapshot) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!("  \"{}\": {:.1}", escape(k), v));
    }
    out.push_str("\n}\n");
    out
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c => vec![c],
        })
        .collect()
}

/// Parses a flat `{"key": number, ...}` JSON object (the only shape
/// [`to_json`] produces). Rejects anything nested; good errors, no deps.
pub fn parse_json(src: &str) -> Result<Snapshot, String> {
    let mut map = BTreeMap::new();
    let s = src.trim();
    let inner = s
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| "baseline file is not a JSON object".to_string())?;
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let (key, after_key) = parse_string(rest)?;
        let after_colon = after_key
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("expected `:` after key {key:?}"))?;
        let t = after_colon.trim_start();
        let num_len = t
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(t.len());
        let ns: f64 = t[..num_len]
            .parse()
            .map_err(|e| format!("bad number for key {key:?}: {e}"))?;
        map.insert(key, ns);
        rest = t[num_len..].trim_start();
        match rest.strip_prefix(',') {
            Some(r) => rest = r.trim_start(),
            None if rest.is_empty() => break,
            None => return Err(format!("expected `,` or end of object near {rest:.20?}")),
        }
    }
    Ok(map)
}

/// Parses one leading JSON string, returning (contents, remainder).
fn parse_string(s: &str) -> Result<(String, &str), String> {
    let body = s
        .trim_start()
        .strip_prefix('"')
        .ok_or_else(|| format!("expected a string near {s:.20?}"))?;
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &body[i + 1..])),
            '\\' => match chars.next() {
                Some((_, e @ ('"' | '\\' | '/'))) => out.push(e),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                other => return Err(format!("unsupported escape {other:?} in baseline key")),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string in baseline file".into())
}

/// The per-key minimum over several snapshots of one build.
pub fn min_of(snapshots: &[Snapshot]) -> Snapshot {
    let mut out = BTreeMap::new();
    for snap in snapshots {
        for (key, &ns) in snap {
            out.entry(key.clone())
                .and_modify(|best: &mut f64| *best = best.min(ns))
                .or_insert(ns);
        }
    }
    out
}

/// How two key sets differ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyDiff {
    /// Keys of `expected` that `got` lacks.
    pub missing: Vec<String>,
    /// Keys of `got` that `expected` lacks.
    pub added: Vec<String>,
}

impl KeyDiff {
    /// Do the two sides hold exactly the same keys?
    pub fn is_empty(&self) -> bool {
        self.missing.is_empty() && self.added.is_empty()
    }
}

impl std::fmt::Display for KeyDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for k in &self.missing {
            writeln!(f, "  - {k}")?;
        }
        for k in &self.added {
            writeln!(f, "  + {k}")?;
        }
        Ok(())
    }
}

/// The keys `got` lacks and the keys it adds, against `expected`.
pub fn key_diff(expected: &Snapshot, got: &Snapshot) -> KeyDiff {
    let only_in =
        |a: &Snapshot, b: &Snapshot| a.keys().filter(|k| !b.contains_key(*k)).cloned().collect();
    KeyDiff {
        missing: only_in(expected, got),
        added: only_in(got, expected),
    }
}

/// One compared key.
#[derive(Clone, Debug)]
pub struct Delta {
    /// `"Experiment/label/column"`.
    pub key: String,
    /// Old build, ns.
    pub old_ns: f64,
    /// New build, ns.
    pub new_ns: f64,
    /// `new / old` (∞-safe: old ≤ 0 counts as ratio 1).
    pub ratio: f64,
    /// Did this key regress past [`GATE_RATIO`] and the noise floor?
    pub regressed: bool,
}

/// The result of comparing a new build against an old one.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// One row per key present on both sides, sorted by key.
    pub rows: Vec<Delta>,
    /// Keys the old build produced and the new one did not (a failure),
    /// and keys only the new build produced (reported, not a failure).
    pub keys: KeyDiff,
}

impl Comparison {
    /// Number of regressed rows.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|d| d.regressed).count()
    }

    /// Does the gate pass? No regressed cell, and no cell lost.
    pub fn passes(&self) -> bool {
        self.regressions() == 0 && self.keys.missing.is_empty()
    }
}

/// Compares `new` against `old` (each already reduced by [`min_of`]). A
/// key regresses when `new/old > GATE_RATIO` AND `new - old >
/// NOISE_FLOOR_NS`.
pub fn compare(old: &Snapshot, new: &Snapshot) -> Comparison {
    let rows = old
        .iter()
        .filter_map(|(key, &old_ns)| {
            let new_ns = *new.get(key)?;
            let ratio = if old_ns > 0.0 { new_ns / old_ns } else { 1.0 };
            Some(Delta {
                key: key.clone(),
                old_ns,
                new_ns,
                ratio,
                regressed: ratio > GATE_RATIO && (new_ns - old_ns) > NOISE_FLOOR_NS,
            })
        })
        .collect();
    Comparison {
        rows,
        keys: key_diff(old, new),
    }
}

/// Renders a comparison as the per-experiment delta report the gate
/// prints. Keys share sort order with the snapshots, so rows group by
/// experiment naturally; a blank line separates experiments.
pub fn render(cmp: &Comparison) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# perf gate ({} keys, fails above {GATE_RATIO}x and +{})\n",
        cmp.rows.len(),
        crate::fmt_ns(NOISE_FLOOR_NS)
    ));
    let mut last_exp = "";
    for d in &cmp.rows {
        let exp = d.key.split('/').next().unwrap_or("");
        if exp != last_exp {
            out.push('\n');
            last_exp = exp;
        }
        let flag = if d.regressed {
            "  REGRESSED"
        } else if d.ratio < 1.0 / GATE_RATIO {
            "  (improved)"
        } else {
            ""
        };
        out.push_str(&format!(
            "{:<44} {:>12} -> {:>12}  {:>6.2}x{}\n",
            d.key,
            crate::fmt_ns(d.old_ns),
            crate::fmt_ns(d.new_ns),
            d.ratio,
            flag
        ));
    }
    if !cmp.keys.is_empty() {
        out.push_str("\ncells lost (-) and gained (+) by the new build:\n");
        out.push_str(&cmp.keys.to_string());
    }
    out.push_str(&format!(
        "\nregressions: {}  cells lost: {}\n",
        cmp.regressions(),
        cmp.keys.missing.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reset() {
        *RECORDS.lock().unwrap() = None;
    }

    #[test]
    fn json_round_trips_with_sorted_keys() {
        reset();
        record("E2", "b", "col", 2_000.0);
        record("E1", "a", "col with \"quote\"", 1_500.5);
        let snap = snapshot();
        let json = to_json(&snap);
        // Sorted: E1 before E2.
        assert!(json.find("E1/a").unwrap() < json.find("E2/b").unwrap());
        let back = parse_json(&json).unwrap();
        assert_eq!(back, snap);
        reset();
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_json("[1,2]").is_err());
        assert!(parse_json("{\"k\": }").is_err());
        assert!(parse_json("{\"k: 1}").is_err());
        assert!(parse_json("").is_err());
    }

    /// A snapshot of five cells, ms-scale down to tens of ns.
    fn base() -> Snapshot {
        [
            ("E14/100000/compiled", 9_000_000.0),
            ("E14/100000/interp", 25_000_000.0),
            ("E15/100000/delta", 76_000.0),
            ("E20/fingerprint/hash", 30.0),
            ("E5/depth32/resolve+eval", 194.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }

    /// `snap` with `key` multiplied by `factor`.
    fn scaled(snap: &Snapshot, key: &str, factor: f64) -> Snapshot {
        let mut out = snap.clone();
        *out.get_mut(key).expect("key exists") *= factor;
        out
    }

    fn gate(old: &[Snapshot], new: &[Snapshot]) -> Comparison {
        compare(&min_of(old), &min_of(new))
    }

    fn flagged(cmp: &Comparison) -> Vec<&str> {
        cmp.rows
            .iter()
            .filter(|d| d.regressed)
            .map(|d| d.key.as_str())
            .collect()
    }

    #[test]
    fn a_cell_slowed_in_every_head_run_is_the_only_row_flagged() {
        let old = vec![base(); 3];
        let new = vec![scaled(&base(), "E14/100000/compiled", 1.3); 3];
        let cmp = gate(&old, &new);
        assert_eq!(flagged(&cmp), ["E14/100000/compiled"]);
        assert!(!cmp.passes());
        let report = render(&cmp);
        assert!(report.contains("REGRESSED"));
        assert!(report.contains("regressions: 1  cells lost: 0"));

        let new = vec![scaled(&base(), "E14/100000/compiled", 1.2); 3];
        assert!(gate(&old, &new).passes(), "1.2x is inside the gate");
    }

    #[test]
    fn the_minimum_absorbs_a_burst_in_one_run() {
        let old = vec![base(); 3];
        let new = vec![base(), scaled(&base(), "E15/100000/delta", 1.3), base()];
        assert!(gate(&old, &new).passes());
        // A slow run on the old side must not hide a regression either.
        let old = vec![scaled(&base(), "E15/100000/delta", 2.0), base(), base()];
        let new = vec![scaled(&base(), "E15/100000/delta", 1.3); 3];
        assert_eq!(flagged(&gate(&old, &new)), ["E15/100000/delta"]);
    }

    #[test]
    fn a_ratio_under_the_noise_floor_passes() {
        let old = vec![base(); 3];
        let new = vec![scaled(&base(), "E20/fingerprint/hash", 3.0); 3];
        let cmp = gate(&old, &new);
        assert!(cmp.passes(), "30 -> 90 ns is noise");
        assert!(cmp.rows.iter().any(|d| d.ratio > 2.9));
    }

    #[test]
    fn a_cell_lost_by_the_head_side_fails_and_a_new_one_does_not() {
        let old = vec![base(); 3];
        let mut without = base();
        without.remove("E15/100000/delta");
        let cmp = gate(&old, &vec![without; 3]);
        assert_eq!(cmp.regressions(), 0);
        assert!(!cmp.passes());
        assert_eq!(cmp.keys.missing, ["E15/100000/delta"]);
        assert!(render(&cmp).contains("  - E15/100000/delta"));

        let mut with = base();
        with.insert("E22/new/cell".into(), 1.0);
        let cmp = gate(&old, &vec![with; 3]);
        assert!(cmp.passes());
        assert_eq!(cmp.keys.added, ["E22/new/cell"]);
    }

    #[test]
    fn the_ledger_check_names_a_missing_and_an_added_key() {
        let ledger = base();
        assert!(key_diff(&ledger, &scaled(&base(), "E14/100000/interp", 50.0)).is_empty());
        let mut run = base();
        run.remove("E14/100000/interp");
        run.insert("E16/100000/batched".into(), 1.0);
        let diff = key_diff(&ledger, &run);
        assert_eq!(diff.missing, ["E14/100000/interp"]);
        assert_eq!(diff.added, ["E16/100000/batched"]);
        let shown = diff.to_string();
        assert!(shown.contains("  - E14/100000/interp"));
        assert!(shown.contains("  + E16/100000/batched"));
    }
}
