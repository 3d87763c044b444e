//! The measured window: a closed loop with one client and no think time
//! (the system is an embedded library whose caller waits), split into
//! three passes. Every reported number is the median of the per-pass
//! values, so a noisy phase shorter than a pass does not move it.

use std::time::{Duration, Instant};

use crate::calib::Calibrator;
use crate::metrics::Values;
use crate::model::Rng;
use crate::stats::{median_f64, percentile, supported_percentile};
use crate::trace::Tracer;
use crate::workloads::{OpSample, Spec, Totals, Workload};

pub const PASSES: usize = 3;
/// Share of the window spent on discarded warm-up operations first.
const WARMUP_SHARE: f64 = 0.05;

/// Process-wide counters of the program under test, read before and after.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    plan_hits: u64,
    plan_misses: u64,
    replans: u64,
    compile_fallbacks: u64,
    wal_fsyncs: u64,
}

impl Counters {
    pub fn read() -> Counters {
        let (plan_hits, plan_misses, replans) = ov_query::planner::plan_cache_counters();
        Counters {
            plan_hits,
            plan_misses,
            replans,
            compile_fallbacks: ov_query::compile_fallbacks(),
            wal_fsyncs: ov_oodb::registry().counter("wal.fsyncs").get(),
        }
    }
}

pub struct Pass {
    pub traced: bool,
    pub samples: Vec<OpSample>,
}

/// Everything one window produced.
pub struct Window {
    pub passes: Vec<Pass>,
    pub attempted: u64,
    pub failed: u64,
    /// Counter and total deltas over the passes that feed the per-layer
    /// numbers: the traced ones when tracing, else all.
    pub counters: (Counters, Counters),
    pub totals: (Totals, Totals),
}

/// Runs the window. With `trace`, the first pass runs untraced (the
/// baseline for the tracing overhead and the source of the user-visible
/// numbers) and the other two stepwise under `tracer`.
pub fn window(
    w: &mut dyn Workload,
    rng: &mut Rng,
    seconds: f64,
    trace: bool,
    tracer: &mut Tracer,
    calibrator: &mut Calibrator,
) -> Window {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut note = |s: &OpSample| {
        attempted += 1;
        failed += !s.ok as u64;
    };
    let warm_until = Instant::now() + Duration::from_secs_f64(seconds * WARMUP_SHARE);
    loop {
        note(&w.run_op(rng, None, calibrator));
        if Instant::now() >= warm_until {
            break;
        }
    }
    let pass_seconds = seconds / PASSES as f64;
    let mut passes = Vec::with_capacity(PASSES);
    let mut before = (Counters::read(), w.totals());
    for i in 0..PASSES {
        let traced = trace && i > 0;
        if trace && i == 1 {
            before = (Counters::read(), w.totals());
        }
        w.start_pass(pass_seconds);
        let until = Instant::now() + Duration::from_secs_f64(pass_seconds);
        let mut samples = Vec::new();
        loop {
            let (mut s, slowdown) =
                calibrator.around(|cal| w.run_op(rng, traced.then_some(&mut *tracer), cal));
            s.slowdown = slowdown;
            note(&s);
            samples.push(s);
            if Instant::now() >= until {
                break;
            }
        }
        passes.push(Pass { traced, samples });
    }
    let stale = w.totals().stale_serves - before.1.stale_serves;
    Window {
        passes,
        attempted,
        failed: failed + stale,
        counters: (before.0, Counters::read()),
        totals: (before.1, w.totals()),
    }
}

fn latencies(samples: &[OpSample], f: impl Fn(&OpSample) -> u64) -> Vec<u64> {
    let mut v: Vec<u64> = samples.iter().map(f).collect();
    v.sort_unstable();
    v
}

fn p50_of(samples: &[OpSample], f: impl Fn(&OpSample) -> u64) -> f64 {
    percentile(&latencies(samples, f), 50.0).unwrap_or(0) as f64
}

/// Correct operations per second of time spent inside the session, with
/// each operation's time taken from `ns_of`.
fn ops_per_s(samples: &[OpSample], ns_of: impl Fn(&OpSample) -> f64) -> f64 {
    let busy_ns: f64 = samples.iter().map(ns_of).sum();
    let ok = samples.iter().filter(|s| s.ok).count();
    ok as f64 / (busy_ns.max(1.0) / 1e9)
}

fn raw_ops_per_s(samples: &[OpSample]) -> f64 {
    ops_per_s(samples, |s| s.ns as f64)
}

fn median_calibrated_ns(samples: &[OpSample]) -> f64 {
    median_f64(
        &samples
            .iter()
            .map(OpSample::calibrated_ns)
            .collect::<Vec<_>>(),
    )
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Window {
    fn untraced(&self) -> impl Iterator<Item = &Pass> {
        self.passes.iter().filter(|p| !p.traced)
    }

    fn median_over_untraced(&self, f: impl Fn(&[OpSample]) -> f64) -> f64 {
        median_f64(&self.untraced().map(|p| f(&p.samples)).collect::<Vec<_>>())
    }

    fn untraced_ops(&self) -> usize {
        self.untraced().map(|p| p.samples.len()).sum()
    }

    /// The end-to-end numbers the window itself yields, calibrated: every
    /// operation's time is divided by the machine's slowdown around it.
    pub fn end_to_end(&self, v: &mut Values) {
        let n = self.untraced_ops();
        let p50 = self.median_over_untraced(median_calibrated_ns);
        v.insert("op_p50_us", (p50 / 1e3, n));
        let rate = self.median_over_untraced(|s| ops_per_s(s, OpSample::calibrated_ns));
        v.insert("ops_per_s", (rate, n));
    }

    /// The user-visible numbers that only some workloads have, from the
    /// untraced passes; 0 where the workload has no such part.
    pub fn particular(&self, spec: &Spec, v: &mut Values) {
        let n = self.untraced_ops();
        v.insert("window_ops", (n as f64, n));
        let raw_p50 = self.median_over_untraced(|s| p50_of(s, |o| o.ns));
        v.insert("op_p50_raw_us", (raw_p50 / 1e3, n));
        let slowdown = self.median_over_untraced(|s| {
            median_f64(&s.iter().map(|o| o.slowdown).collect::<Vec<_>>())
        });
        v.insert("calibration.slowdown", (slowdown, n));
        v.insert(
            "failed_ops_share",
            (ratio(self.failed, self.attempted), self.attempted as usize),
        );
        // The highest percentile is reported only where at least ten
        // samples lie beyond it in every pass that reports it.
        let p99: Vec<f64> = self
            .untraced()
            .filter_map(|p| supported_percentile(&latencies(&p.samples, |o| o.ns), 99.0))
            .map(|ns| ns as f64 / 1e3)
            .collect();
        v.insert("op_p99_us", (median_f64(&p99), n));
        let per_row = self.median_over_untraced(|s| {
            ratio(s.iter().map(|o| o.ns).sum(), s.iter().map(|o| o.rows).sum())
        });
        v.insert("scan_ns_per_row", (per_row, n));
        for name in [
            "write_p50_us",
            "fresh_read_p50_us",
            "recovery_p50_ms",
            "first_query_p50_ms",
        ] {
            v.insert(name, (0.0, 0));
        }
        if let Some((names, ns_per_unit)) = spec.parts {
            for (i, name) in names.into_iter().enumerate() {
                let p50 = self.median_over_untraced(|s| p50_of(s, |o| o.parts[i]));
                v.insert(name, (p50 / ns_per_unit, n));
            }
        }
        let t = self.totals.1;
        v.insert(
            "wal_bytes_per_user_byte",
            (ratio(t.wal_bytes, t.user_bytes_written), t.writes as usize),
        );
    }

    /// Per-layer numbers from the traced passes: span self-times, counter
    /// deltas, and the two ratios that qualify the trace itself.
    pub fn layers(&self, tracer: &Tracer, stmts_per_op: usize, v: &mut Values) {
        let traced: Vec<&OpSample> = self
            .passes
            .iter()
            .filter(|p| p.traced)
            .flat_map(|p| &p.samples)
            .collect();
        v.insert("stmts_per_op", (stmts_per_op as f64, 1));
        for (metric, span) in [
            ("parser.parse_ns", "parser.parse"),
            ("session.execute_stmt_ns", "session.execute_stmt"),
            ("fingerprint.fingerprint_ns", "fingerprint.fingerprint"),
            ("optimize.fold_ns", "optimize.fold"),
            ("planner.plan_hit_ns", "planner.plan"),
            ("compile.compile_ns", "compile.compile"),
            ("exec.run_expr_ns", "exec.run_expr"),
        ] {
            let n = tracer.self_times(span).len();
            v.insert(metric, (ratio(tracer.self_total(span), n as u64), n));
        }
        let rows: u64 = traced.iter().map(|s| s.rows).sum();
        v.insert(
            "exec.scan_ns_per_row",
            (
                ratio(tracer.self_total("exec.run_expr"), rows),
                traced.len(),
            ),
        );

        let (c0, c1) = self.counters;
        let hits = c1.plan_hits - c0.plan_hits;
        let lookups = hits + c1.plan_misses - c0.plan_misses;
        v.insert(
            "planner.cache_hit_ratio",
            (ratio(hits, lookups), lookups as usize),
        );
        v.insert("planner.replans", ((c1.replans - c0.replans) as f64, 1));
        v.insert(
            "compile.fallbacks",
            ((c1.compile_fallbacks - c0.compile_fallbacks) as f64, 1),
        );
        let (t0, t1) = self.totals;
        let pop_hits = t1.cache_hits - t0.cache_hits;
        let pops = pop_hits + t1.cache_misses - t0.cache_misses;
        v.insert(
            "view.pop_cache_hit_ratio",
            (ratio(pop_hits, pops), pops as usize),
        );
        v.insert(
            "view.recomputations",
            ((t1.recomputations - t0.recomputations) as f64, 1),
        );
        v.insert(
            "view.incremental_updates",
            ((t1.incremental_updates - t0.incremental_updates) as f64, 1),
        );
        v.insert(
            "view.stale_serves",
            ((t1.stale_serves - t0.stale_serves) as f64, 1),
        );
        let stalls = traced.iter().filter(|s| s.checkpoint_ns > 0).count();
        v.insert("session.checkpoint_stalls", (stalls as f64, traced.len()));
        let writes = t1.writes - t0.writes;
        v.insert(
            "wal.fsyncs_per_1k_writes",
            (
                1000.0 * ratio(c1.wal_fsyncs - c0.wal_fsyncs, writes),
                writes as usize,
            ),
        );

        let traced_rate = median_f64(
            &self
                .passes
                .iter()
                .filter(|p| p.traced)
                .map(|p| raw_ops_per_s(&p.samples))
                .collect::<Vec<_>>(),
        );
        let plain_rate = self.median_over_untraced(raw_ops_per_s);
        v.insert(
            "trace.overhead_ratio",
            (
                if plain_rate > 0.0 {
                    traced_rate / plain_rate
                } else {
                    0.0
                },
                traced.len(),
            ),
        );
        // Stepwise execution must account for the op: the share of the
        // `op` spans' time that their child spans cover.
        let op_self = tracer.self_total("op");
        let op_children =
            tracer.self_total("parser.parse") + tracer.self_total("session.execute_stmt");
        v.insert(
            "trace.stepwise_ratio",
            (
                ratio(op_children, op_self + op_children),
                tracer.self_times("op").len(),
            ),
        );
    }
}
