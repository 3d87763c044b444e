//! `ovbench`: the end-to-end benchmark of the Objects-and-Views
//! reproduction. Four workloads, each in a process of its own; every
//! result checked against an oracle computed from the generated rows;
//! end-to-end metrics from untraced passes, per-layer metrics from a
//! traced run and from probes. See `README.md`.

mod calib;
mod measure;
mod metrics;
mod model;
mod probes;
mod setup;
mod stats;
mod steps;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use metrics::{Metric, Values};
use model::Rng;
use workloads::{Spec, SPECS};

const USAGE: &str =
    "usage: ovbench [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--traced]
               [--n N] [--out DIR] [--smoke]

  --workload W   view_scan | point_query | write_propagate | recover_first_query;
                 without it, all four run, each as a child process
  --seed S       seed of the input generator (default 1)
  --seconds T    length of the measured window (default 15)
  --trace 0|1    0: end-to-end metrics from untraced passes (default);
                 1: per-layer metrics from a traced run and layer probes
  --traced       with all workloads: run each a second time with --trace 1
  --n N          dataset rows (default: per workload, see README.md)
  --out DIR      where trace-<workload>.jsonl and ovbench.json go
                 (default .ovbench_work/out)
  --smoke        n = 2000, 1 s per workload, all four untraced plus one traced;
                 exits non-zero on any failed operation";

/// Where every file the benchmark writes lives, relative to the working
/// directory (the root of the checkout).
const WORK_ROOT: &str = ".ovbench_work";
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;
const MIN_ROWS: usize = 500;

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced_too: bool,
    n: Option<usize>,
    out: PathBuf,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        traced_too: false,
        n: None,
        out: Path::new(WORK_ROOT).join("out"),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(workloads::spec(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let v = value()?;
                out.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                out.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && (0.1..=600.0).contains(&s) => s,
                    _ => return Err(format!("bad seconds `{v}` (0.1 to 600)")),
                };
            }
            "--trace" => {
                out.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace `{v}` (0 or 1)")),
                };
            }
            "--traced" => out.traced_too = true,
            "--n" => {
                let v = value()?;
                out.n = match v.parse::<usize>() {
                    Ok(n) if (MIN_ROWS..=10_000_000).contains(&n) => Some(n),
                    _ => return Err(format!("bad n `{v}` ({MIN_ROWS} to 10000000)")),
                };
            }
            "--out" => out.out = PathBuf::from(value()?),
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.smoke {
        out.n = Some(2000);
        out.seconds = 1.0;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ovbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(spec) => run_one(spec, &args),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        // Failed operations: the result line says so; only `--smoke` and
        // the all-workloads run turn them into an exit code.
        Ok(false) if args.workload.is_some() && !args.smoke => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ovbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Sets the workload up and returns it with the set-up's time at the
/// reference machine speed: its wall time over the mean slowdown read
/// while it ran.
fn timed_setup(
    spec: &Spec,
    dir: &Path,
    n: usize,
    rng: &mut Rng,
    cal: &mut calib::Calibrator,
) -> Result<(Box<dyn workloads::Workload>, f64), String> {
    let ((w, seconds), slowdown) = cal.around(|cal| {
        let t0 = Instant::now();
        let w = (spec.setup)(dir, n, rng, cal);
        (w, t0.elapsed().as_secs_f64())
    });
    Ok((w?, seconds / slowdown))
}

/// One workload, in this process. Prints one line per metric and, last,
/// the result object. `Ok(false)` when an operation failed.
fn run_one(spec: &'static Spec, args: &Args) -> Result<bool, String> {
    let n = args.n.unwrap_or(spec.default_n);
    let scratch = Scratch(Path::new(WORK_ROOT).join(format!("run-{}", std::process::id())));
    let dir = |tag: &str| scratch.0.join(tag);
    let mut rng = Rng::new(args.seed);
    let mut values = Values::new();
    let mut tracer = trace::Tracer::new();

    let mut cal = calib::Calibrator::new();
    let (mut w, first_setup) = timed_setup(spec, &dir("w0"), n, &mut rng, &mut cal)?;
    let window = measure::window(
        w.as_mut(),
        &mut rng,
        args.seconds,
        args.trace,
        &mut tracer,
        &mut cal,
    );

    let list: &[(&str, &str)] = if args.trace {
        values.insert("dataset_rows", (n as f64, 1));
        window.particular(spec, &mut values);
        let steps = w.sample_steps(&mut rng);
        window.layers(&tracer, steps.len(), &mut values);
        let rows = window.passes[0].samples.first().map_or(1, |s| s.rows);
        values.extend(probes::run(
            w.probe_env()?,
            &steps,
            rows,
            &dir("probes"),
            &mut rng,
        )?);
        std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
        tracer
            .write_jsonl(&args.out.join(format!("trace-{}.jsonl", spec.name)))
            .map_err(|e| e.to_string())?;
        &metrics::PER_LAYER
    } else {
        window.end_to_end(&mut values);
        let (disk, user) = w.space();
        values.insert(
            "disk_bytes_per_user_byte",
            (disk as f64 / user.max(1) as f64, 1),
        );
        values.insert("peak_rss_mb", (peak_rss_mb()?, 1));
        drop(w);
        // Set-up again, timing only: the window above ran on the state a
        // fresh process builds, and `setup_s` is the median of several.
        let mut setup_s = vec![first_setup];
        for i in 1..if args.smoke { 1 } else { SETUPS } {
            let _ = std::fs::remove_dir_all(dir(&format!("w{}", i - 1)));
            let again = &dir(&format!("w{i}"));
            let (_, seconds) = timed_setup(spec, again, n, &mut Rng::new(args.seed), &mut cal)?;
            setup_s.push(seconds);
        }
        values.insert("setup_s", (stats::median_f64(&setup_s), setup_s.len()));
        &metrics::END_TO_END
    };

    let metrics = metrics::collect(list, &values)?;
    for m in &metrics {
        println!(
            "{} {} {} {} n={}",
            spec.name, m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{}",
        result_json(
            window.failed == 0,
            window.attempted,
            window.failed,
            &metrics
        )
    );
    Ok(window.failed == 0)
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Every workload, each in a child process so that the plan cache, the
/// statistics and metrics registries and the symbol interner start clean
/// and peak memory is per workload. Echoes the children's metric lines
/// and writes `DIR/ovbench.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut plan: Vec<(&Spec, bool)> = SPECS.iter().map(|s| (s, false)).collect();
    if args.smoke {
        plan.push((&SPECS[1], true));
    } else if args.traced_too || args.trace {
        plan.extend(SPECS.iter().map(|s| (s, true)));
    }
    let mut all_ok = true;
    let mut entries = Vec::new();
    for (spec, trace) in plan {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out);
        if let Some(n) = args.n {
            cmd.args(["--n", &n.to_string()]);
        }
        // `output` waits for the child to end.
        let output = cmd
            .output()
            .map_err(|e| format!("starting {}: {e}", spec.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().unwrap_or_default();
        lines.iter().for_each(|l| println!("{l}"));
        if !output.status.success() || !result.starts_with("{\"correct\": true") {
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            eprintln!(
                "ovbench: {} (trace {}) failed: {result}",
                spec.name, trace as u8
            );
            all_ok = false;
            continue;
        }
        entries.push(format!(
            "{{\"workload\": \"{}\", \"trace\": {}, \"result\": {result}}}",
            spec.name, trace as u8
        ));
    }
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let json = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"runs\": [\n{}\n]}}\n",
        args.seed,
        args.seconds,
        entries.join(",\n")
    );
    let path = args.out.join("ovbench.json");
    std::fs::write(&path, json).map_err(|e| e.to_string())?;
    println!("ovbench: wrote {}", path.display());
    Ok(all_ok)
}
