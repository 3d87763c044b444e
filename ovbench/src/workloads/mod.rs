//! The four workloads and what the measuring loop needs from each.

use std::path::Path;

use ov_views::Session;

use crate::calib::Calibrator;
use crate::model::{Model, Rng};
use crate::steps::Step;
use crate::trace::Tracer;

pub mod point_query;
pub mod recover;
pub mod view_scan;
pub mod write_propagate;

/// A workload's name (why it exists is in `BENCHMARK.json` and
/// `README.md`), its default dataset size, and the
/// metrics its two operation parts are reported under (with the
/// nanoseconds that make one unit), if it has parts.
pub struct Spec {
    pub name: &'static str,
    pub default_n: usize,
    pub parts: Option<([&'static str; 2], f64)>,
    /// Sets the workload up under a fresh directory of its own.
    pub setup: Setup,
}

type Setup = fn(&Path, usize, &mut Rng, &mut Calibrator) -> Result<Box<dyn Workload>, String>;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "view_scan",
        default_n: 50_000,
        parts: None,
        setup: |d, n, r, c| Ok(Box::new(view_scan::ViewScan::setup(d, n, r, c)?)),
    },
    Spec {
        name: "point_query",
        default_n: 50_000,
        parts: None,
        setup: |d, n, r, c| Ok(Box::new(point_query::PointQuery::setup(d, n, r, c)?)),
    },
    Spec {
        name: "write_propagate",
        default_n: 50_000,
        parts: Some((["write_p50_us", "fresh_read_p50_us"], 1e3)),
        setup: |d, n, r, c| {
            Ok(Box::new(write_propagate::WritePropagate::setup(
                d, n, r, c,
            )?))
        },
    },
    Spec {
        name: "recover_first_query",
        default_n: 25_000,
        parts: Some((["recovery_p50_ms", "first_query_p50_ms"], 1e6)),
        setup: |d, n, r, c| Ok(Box::new(recover::Recover::setup(d, n, r, c)?)),
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One measured operation.
#[derive(Clone, Copy, Default, Debug)]
pub struct OpSample {
    /// Latency of the whole operation: the time spent inside the session.
    pub ns: u64,
    /// Workload-specific parts of `ns` (write / fresh read; recovery /
    /// first query). Zero where the workload has no such part.
    pub parts: [u64; 2],
    /// Candidate-extent rows the operation's reads had to visit.
    pub rows: u64,
    /// No error and every outcome equal to the oracle's.
    pub ok: bool,
    /// Time of the checkpoint this operation hosted, if it hosted one
    /// (included in `ns`).
    pub checkpoint_ns: u64,
    /// The machine's slowdown while the operation ran (see `calib`); set
    /// by the measuring loop.
    pub slowdown: f64,
}

impl OpSample {
    /// The operation's latency at the reference machine speed.
    pub fn calibrated_ns(&self) -> f64 {
        self.ns as f64 / self.slowdown
    }
}

/// Monotonic counters a workload accumulates over its life.
#[derive(Clone, Copy, Default, Debug)]
pub struct Totals {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub recomputations: u64,
    pub incremental_updates: u64,
    pub stale_serves: u64,
    /// Bytes appended to the WAL by the workload's own write statements.
    pub wal_bytes: u64,
    /// User bytes those statements carried.
    pub user_bytes_written: u64,
    pub writes: u64,
}

impl Totals {
    /// Adds the population counters of every view of `session`.
    pub fn add_session(&mut self, session: &Session) {
        for name in session.view_names() {
            let Some(s) = session.view(name).map(|v| v.stats()) else {
                continue;
            };
            self.cache_hits += s.cache_hits;
            self.cache_misses += s.cache_misses;
            self.recomputations += s.recomputations;
            self.incremental_updates += s.incremental_updates;
            self.stale_serves += s.stale_serves;
        }
    }
}

/// What the layer probes run against: the workload's own session, model
/// and files.
pub struct ProbeEnv<'a> {
    pub session: &'a mut Session,
    pub model: &'a mut Model,
    /// The session directory whose files the storage probes copy and open.
    pub data_dir: &'a Path,
}

pub trait Workload {
    /// Generates the next operation from `rng`, runs it (stepwise under a
    /// tracer), checks it, and returns the sample.
    fn run_op(
        &mut self,
        rng: &mut Rng,
        tracer: Option<&mut Tracer>,
        cal: &mut Calibrator,
    ) -> OpSample;

    /// Called when a pass of `seconds` starts.
    fn start_pass(&mut self, _seconds: f64) {}

    fn totals(&self) -> Totals;

    /// `(bytes on disk, live user bytes)` of the workload's session now.
    fn space(&self) -> (u64, u64);

    /// One operation's statements, generated but not run: the inputs the
    /// query-pipeline probes time.
    fn sample_steps(&mut self, rng: &mut Rng) -> Vec<Step>;

    fn probe_env(&mut self) -> Result<ProbeEnv<'_>, String>;
}

/// Runs `steps` as one operation of a long-lived session.
pub fn run_steps(
    session: &mut Session,
    steps: &[Step],
    mut tracer: Option<&mut Tracer>,
    cal: &mut Calibrator,
    rows: u64,
) -> (OpSample, Vec<crate::steps::StepRun>) {
    if let Some(t) = tracer.as_deref_mut() {
        t.next_op();
    }
    let runs = crate::steps::exec_steps(session, steps, tracer, cal);
    (fold(steps, &runs, rows), runs)
}

/// Folds step runs into a sample: latency is the sum, correctness the
/// conjunction. The first disagreement of the run is described on stderr.
fn fold(steps: &[Step], runs: &[crate::steps::StepRun], rows: u64) -> OpSample {
    static REPORTED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    let bad = steps.iter().zip(runs).find(|(s, r)| !r.ok(&s.expect));
    if let Some((step, run)) = bad {
        if !REPORTED.swap(true, std::sync::atomic::Ordering::Relaxed) {
            let clip = |s: String| s.chars().take(300).collect::<String>();
            eprintln!(
                "ovbench: first failed statement `{}` in {}: expected {}, got {}",
                step.text.trim_end(),
                step.focus,
                clip(format!("{:?}", step.expect)),
                clip(format!("{:?}", run.outcome)),
            );
        }
    }
    OpSample {
        ns: runs.iter().map(|r| r.ns).sum(),
        rows,
        ok: bad.is_none(),
        ..OpSample::default()
    }
}
