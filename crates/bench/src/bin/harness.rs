//! The experiment harness: regenerates every table in EXPERIMENTS.md.
//!
//! Run with: `cargo run --release -p ov-bench --bin harness`
//!
//! Flags (see `--help` for the same text):
//!
//! - `--threads N` (default 1) additionally runs the multi-threaded read
//!   experiments in E4 and E5: `N` concurrent reader threads sharing one
//!   view.
//! - `--metrics FILE` writes, after all experiments, a JSON snapshot of
//!   the process-wide metrics registry (store mutations, journal delta/gap
//!   counts, index lookups, view population path counters and latency
//!   histograms with p50/p95/p99) to `FILE`.
//! - `--trace FILE` enables the flight recorder for the whole run and
//!   writes the recorded spans to `FILE` on exit — Chrome trace-event JSON
//!   (load in Perfetto / `chrome://tracing`), or JSON-lines when `FILE`
//!   ends in `.jsonl`.
//! - `--workload FILE` enables query profiling for the whole run and
//!   writes the per-fingerprint workload registry (calls, rows, latency
//!   quantiles, engine mix, population-path mix) as JSON to `FILE`.
//! - `--slowlog FILE` enables query profiling for the whole run and writes
//!   the captured slow-query log (query text, fingerprint, duration,
//!   annotated trace) as JSON to `FILE`.
//! - `--save-baseline FILE` writes a snapshot of every timed table cell
//!   (`"Experiment/label/column"` → ns, sorted keys) to `FILE`.
//! - `--ledger FILE` checks that this run produced exactly the cells the
//!   ledger (`BENCH_latest.json`) names; any cell missing or added is
//!   printed and the run exits nonzero.
//! - `--compare OLD[,OLD…] NEW[,NEW…]` runs no experiment: it reduces the
//!   snapshots of each side to their per-key minimum, prints
//!   per-experiment deltas and exits nonzero if a cell regressed or was
//!   lost (`ov_bench::baseline`; `crates/bench/perf-gate.sh` drives it).
//!   With `--save-baseline FILE` it also writes the new side's minimum.
//!
//! Each section corresponds to an experiment id (E1–E21) in EXPERIMENTS.md,
//! which maps them back to the paper's sections. Timings are wall-clock
//! (each cell the fastest of four batch means, see `ov_bench::time_ns`);
//! the semantic rows are exact.

use std::sync::Mutex;

use ov_bench::*;
use ov_oodb::{sym, ConflictPolicy, Value};
use ov_query::eval_attr;
use ov_views::{IdentityMode, Materialization, ViewDef, ViewOptions};

fn main() {
    let args = parse_args();
    if let Some((old, new)) = &args.compare {
        compare_only(old, new, args.save_baseline.as_deref());
        return;
    }
    let threads = args.threads;
    if args.trace.is_some() {
        ov_oodb::trace::set_enabled(true);
    }
    if args.workload.is_some() || args.slowlog.is_some() {
        ov_oodb::set_profiling(true);
    }
    println!("# Objects-and-Views experiment harness");
    println!("# (sections correspond to EXPERIMENTS.md)");
    if let Some(seed) = args.chaos {
        let outcome = chaos_run(seed, args.budget_ms);
        write_metrics_and_trace(&args);
        match outcome {
            Ok(()) => println!("\nchaos run completed: zero invariant violations."),
            Err(msg) => {
                eprintln!("\nCHAOS FAIL (seed {seed}): {msg}");
                std::process::exit(1);
            }
        }
        return;
    }
    if threads > 1 {
        println!("# --threads {threads}: E4/E5 include multi-threaded runs");
    }
    e1_virtual_attributes();
    e2_overloading();
    e3_import_hide();
    e4_population();
    e4_readers(threads);
    e5_resolution();
    e5_concurrent(threads);
    e6_inference();
    e7_parameterized();
    e8_upward_and_schizophrenia();
    e9_identity();
    e10_value_to_object();
    e11_churn();
    e12_relational();
    e13_indexes();
    e14_compiled_engine();
    e15_stacked_views();
    e16_compiled_execution();
    e17_profiling_overhead();
    e18_durability(&args);
    e19_planner();
    e20_front_end();
    e21_cold_path();
    e22_bind();
    write_metrics_and_trace(&args);
    if let Some(path) = &args.save_baseline {
        save_snapshot(path, &baseline::snapshot());
    }
    println!("\nall experiments completed.");
    if let Some(path) = &args.ledger {
        let diff = baseline::key_diff(&load_snapshot(path), &baseline::snapshot());
        if !diff.is_empty() {
            eprint!(
                "FAIL: this run lost (-) or gained (+) cells against the ledger {path}:\n{diff}"
            );
            std::process::exit(1);
        }
        println!("# ledger {path}: every cell produced, none added");
    }
}

fn load_snapshot(path: &str) -> baseline::Snapshot {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error reading snapshot {path}: {e}");
        std::process::exit(2);
    });
    baseline::parse_json(&src).unwrap_or_else(|e| {
        eprintln!("error parsing snapshot {path}: {e}");
        std::process::exit(2);
    })
}

fn save_snapshot(path: &str, snapshot: &baseline::Snapshot) {
    if let Err(e) = std::fs::write(path, baseline::to_json(snapshot)) {
        eprintln!("error writing snapshot to {path}: {e}");
        std::process::exit(1);
    }
    println!("# snapshot written to {path}");
}

/// `--compare`: the perf gate over saved snapshots, no experiment run.
fn compare_only(old: &str, new: &str, save_new: Option<&str>) {
    let side = |list: &str| -> Vec<_> { list.split(',').map(load_snapshot).collect() };
    let (old, new) = (side(old), side(new));
    let new_min = baseline::min_of(&new);
    let cmp = baseline::compare(&baseline::min_of(&old), &new_min);
    println!(
        "# per-key minimum of {} old and {} new snapshot(s)",
        old.len(),
        new.len()
    );
    print!("{}", baseline::render(&cmp));
    if let Some(path) = save_new {
        save_snapshot(path, &new_min);
    }
    if !cmp.passes() {
        eprintln!(
            "FAIL: {} cell(s) regressed past {}x, {} lost",
            cmp.regressions(),
            baseline::GATE_RATIO,
            cmp.keys.missing.len()
        );
        std::process::exit(1);
    }
}

fn write_metrics_and_trace(args: &Args) {
    if let Some(path) = &args.metrics {
        let json = ov_oodb::registry().snapshot().to_json();
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error writing metrics to {path}: {e}");
            std::process::exit(1);
        }
        println!("\n# metrics written to {path}");
    }
    if let Some(path) = &args.workload {
        let json = ov_oodb::workload().to_json();
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error writing workload to {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "\n# workload registry ({} fingerprints) written to {path}",
            ov_oodb::workload().len()
        );
    }
    if let Some(path) = &args.slowlog {
        let json = ov_oodb::slow_queries().to_json();
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error writing slow-query log to {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "# slow-query log ({} entries) written to {path}",
            ov_oodb::slow_queries().len()
        );
    }
    if let Some(path) = &args.trace {
        ov_oodb::trace::set_enabled(false);
        let rec = ov_oodb::recorder();
        let dump = if path.ends_with(".jsonl") {
            rec.dump_jsonl()
        } else {
            rec.dump_chrome_trace()
        };
        if let Err(e) = std::fs::write(path, &dump) {
            eprintln!("error writing trace to {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "# trace written to {path} ({} spans from {} threads, {} dropped)",
            rec.snapshot().len(),
            rec.thread_count(),
            rec.dropped()
        );
    }
}

struct Args {
    threads: usize,
    metrics: Option<String>,
    trace: Option<String>,
    workload: Option<String>,
    slowlog: Option<String>,
    save_baseline: Option<String>,
    ledger: Option<String>,
    compare: Option<(String, String)>,
    chaos: Option<u64>,
    budget_ms: Option<u64>,
    data_dir: Option<String>,
    durability: Option<ov_oodb::Durability>,
}

const USAGE: &str = "\
usage: harness [FLAGS]

  --threads N           run E4b/E5b with N reader threads (default 1)
  --metrics FILE        write a JSON metrics snapshot (counters + histogram
                        p50/p95/p99) to FILE after the run
  --trace FILE          enable the flight recorder and write the span trace
                        to FILE on exit: Chrome trace-event JSON (open in
                        Perfetto), or JSON-lines if FILE ends in .jsonl
  --workload FILE       enable query profiling for the run and write the
                        per-fingerprint workload registry JSON to FILE
  --slowlog FILE        enable query profiling for the run and write the
                        captured slow-query log JSON to FILE
  --save-baseline FILE  write a snapshot of every timed cell to FILE
  --ledger FILE         check that this run produced exactly the cells FILE
                        names (BENCH_latest.json); print any cell missing
                        or added and exit 1
  --compare OLD[,OLD..] NEW[,NEW..]
                        run no experiment: take the per-key minimum of the
                        snapshots on each side, print per-experiment deltas
                        and exit 1 if a cell regressed or was lost; with
                        --save-baseline, also write the NEW side's minimum
  --chaos SEED          skip the experiments; run the seeded fault-injection
                        workload instead (probabilistic failpoints on every
                        store/view site) and verify the robustness
                        invariants: no escaped panics, typed errors only,
                        full recovery once faults clear
  --budget-ms N         (chaos only) run every chaos read under an N ms
                        deadline budget; breaches must surface as typed
                        ResourceExhausted/Cancelled errors
  --data-dir DIR        root for E18's durable stores; files are kept for
                        inspection (default: a temp dir, removed after)
  --durability LEVEL    limit E18 to one commit level: none | wal | walsync
                        (default: all three)
  --help                this text

--compare takes no other flag but --save-baseline. --chaos excludes
--save-baseline and --ledger (injected faults distort timings);
--budget-ms needs --chaos.";

fn die(msg: &str) -> ! {
    eprintln!("harness: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut out = Args {
        threads: 1,
        metrics: None,
        trace: None,
        workload: None,
        slowlog: None,
        save_baseline: None,
        ledger: None,
        compare: None,
        chaos: None,
        budget_ms: None,
        data_dir: None,
        durability: None,
    };
    let mut args = std::env::args().skip(1);
    let mut flags = 0;
    while let Some(a) = args.next() {
        flags += 1;
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            "--threads" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("--threads needs a number"));
                let n: usize = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--threads: `{v}` is not a number")));
                out.threads = n.max(1);
            }
            "--metrics" => {
                out.metrics = Some(args.next().unwrap_or_else(|| die("--metrics needs a file")))
            }
            "--trace" => {
                out.trace = Some(args.next().unwrap_or_else(|| die("--trace needs a file")))
            }
            "--workload" => {
                out.workload = Some(
                    args.next()
                        .unwrap_or_else(|| die("--workload needs a file")),
                )
            }
            "--slowlog" => {
                out.slowlog = Some(args.next().unwrap_or_else(|| die("--slowlog needs a file")))
            }
            "--save-baseline" => {
                out.save_baseline = Some(
                    args.next()
                        .unwrap_or_else(|| die("--save-baseline needs a file")),
                )
            }
            "--ledger" => {
                out.ledger = Some(args.next().unwrap_or_else(|| die("--ledger needs a file")))
            }
            "--compare" => {
                let mut side = || {
                    args.next()
                        .unwrap_or_else(|| die("--compare needs OLD[,OLD..] NEW[,NEW..]"))
                };
                out.compare = Some((side(), side()));
            }
            "--chaos" => {
                let v = args.next().unwrap_or_else(|| die("--chaos needs a seed"));
                let n: u64 = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--chaos: `{v}` is not a u64 seed")));
                out.chaos = Some(n);
            }
            "--budget-ms" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("--budget-ms needs a number of milliseconds"));
                let n: u64 = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--budget-ms: `{v}` is not a number")));
                out.budget_ms = Some(n);
            }
            "--data-dir" => {
                out.data_dir = Some(
                    args.next()
                        .unwrap_or_else(|| die("--data-dir needs a directory")),
                )
            }
            "--durability" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("--durability needs a level: none, wal, walsync"));
                out.durability = Some(
                    ov_oodb::Durability::parse(&v)
                        .unwrap_or_else(|| die(&format!("--durability: unknown level `{v}`"))),
                );
            }
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    if out.compare.is_some() && flags != 1 + usize::from(out.save_baseline.is_some()) {
        die("--compare runs no experiment: it takes no other flag but --save-baseline");
    }
    if out.chaos.is_some() && (out.save_baseline.is_some() || out.ledger.is_some()) {
        die("--chaos excludes --save-baseline/--ledger (faults distort timings)");
    }
    if out.budget_ms.is_some() && out.chaos.is_none() {
        die("--budget-ms only makes sense with --chaos");
    }
    out
}

/// The seeded chaos workload behind `--chaos SEED`: every failpoint site
/// armed probabilistically, then a write/read/churn loop against one view.
///
/// Invariants checked (any breach exits nonzero):
/// 1. no panic escapes any store write or view read — the armed sites
///    inject typed errors only, so any panic is a bug;
/// 2. every failure is a typed error (enforced by construction: both arms
///    return `Result`, and arm 1 catches anything else);
/// 3. once faults clear, the pipeline recovers completely — no poisoned
///    lock, and the next recompute agrees *exactly* with a direct base
///    scan (so a stale or generation-mixed population cannot linger).
fn chaos_run(seed: u64, budget_ms: Option<u64>) -> Result<(), String> {
    use ov_oodb::faults::{self, FaultAction, FaultSchedule};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    println!("\n## chaos — seeded fault-injection workload (seed {seed})");
    if let Some(ms) = budget_ms {
        println!("# every read under a {ms} ms deadline budget");
    }
    // Incremental materialization + an index, so the journal
    // (`store.changes_since`) and `store.index_lookup` sites sit on the hot
    // path.
    let sys = people(2_000);
    let db = sys.database(sym("Staff")).unwrap();
    let victims = person_oids(&sys, 32);
    let person = {
        let mut d = db.write();
        let p = d.schema.class_by_name(sym("Person")).unwrap();
        d.create_index(p, sym("City")).unwrap();
        p
    };
    // `Adult` is a plain scan population; `Londoner` pushes its equality
    // filter down to the `Person.City` index.
    let view = ViewDef::from_script(
        r#"
        create view Chaos;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        class Londoner includes (select P from Person where P.City = "London");
        "#,
    )
    .unwrap()
    .binder(&sys)
    .options(
        ViewOptions::builder()
            .materialization(Materialization::Incremental)
            .build(),
    )
    .bind()
    .map_err(|e| e.to_string())?;
    // A staged relational database rides along: `restage` rewrites whole
    // objects, which is the only path through the `store.update` site.
    let mut rdb = payroll(200, 8);
    let (rsys, _) = ov_relational::bridge::stage(&rdb).map_err(|e| e.to_string())?;
    // Warm the population caches first so degradation has a last-good
    // generation to serve.
    view.extent_of(sym("Adult")).map_err(|e| e.to_string())?;
    view.extent_of(sym("Londoner")).map_err(|e| e.to_string())?;

    faults::set_seed(seed);
    for site in [
        "store.insert",
        "store.update",
        "store.set_field",
        "store.remove",
        "store.index_lookup",
        "store.changes_since",
        "view.population_recompute",
    ] {
        faults::arm(site, FaultSchedule::Probability(0.05), FaultAction::Error);
    }

    let budget =
        budget_ms.map(|ms| std::sync::Arc::new(ov_query::Budget::new().with_deadline_ms(ms)));
    let rounds = 500usize;
    let (mut ok_w, mut err_w, mut ok_r, mut err_r) = (0u64, 0u64, 0u64, 0u64);
    let mut created: Vec<ov_oodb::Oid> = Vec::new();
    let mut violation = None;
    for i in 0..rounds {
        // Mutate: mostly field updates, with some churn (insert/remove)
        // and the occasional relational restage, so every store site fires.
        let write = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
            match i % 7 {
                3 => {
                    // Whole-object replacement through `Store::update`.
                    let o = victims[i % victims.len()];
                    let mut d = db.write();
                    let t = d.store.require(o).map_err(|e| e.to_string())?.value.clone();
                    d.store.update(o, t).map_err(|e| e.to_string())
                }
                4 => {
                    rdb.relation_mut(sym("Emp"))
                        .unwrap()
                        .update(|_| true, sym("Salary"), Value::Int(i as i64))
                        .map_err(|e| e.to_string())?;
                    ov_relational::bridge::restage(&rdb, &rsys).map_err(|e| e.to_string())
                }
                5 => db
                    .write()
                    .create_object(
                        person,
                        Value::tuple([
                            ("Name", Value::str(&format!("chaos{i}"))),
                            ("Age", Value::Int((i % 90) as i64)),
                            ("Sex", Value::str("male")),
                            ("City", Value::str("London")),
                            ("Street", Value::str("1 St")),
                            ("Income", Value::Int(0)),
                            ("Kids", Value::Int(0)),
                        ]),
                    )
                    .map(|o| created.push(o))
                    .map_err(|e| e.to_string()),
                6 if !created.is_empty() => {
                    let o = created.swap_remove(i % created.len());
                    db.write()
                        .delete_object(o)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                }
                _ => {
                    let o = victims[i % victims.len()];
                    db.write()
                        .set_attr(o, sym("Age"), Value::Int((i % 90) as i64))
                        .map_err(|e| e.to_string())
                }
            }
        }));
        match write {
            Ok(Ok(())) => ok_w += 1,
            Ok(Err(_)) => err_w += 1,
            Err(_) => {
                violation = Some(format!("round {i}: a panic escaped a store write"));
                break;
            }
        }
        // Rotate across the read paths: plain-scan population, indexed
        // population, and a query over the view.
        let do_read = || -> Result<usize, String> {
            match i % 4 {
                2 => view
                    .extent_of(sym("Londoner"))
                    .map(|ext| ext.len())
                    .map_err(|e| e.to_string()),
                3 => ov_query::run_query(&view, "select P.Name from P in Adult where P.Age >= 65")
                    .map(|v| std::hint::black_box(v.to_string()).len())
                    .map_err(|e| e.to_string()),
                _ => view
                    .extent_of(sym("Adult"))
                    .map(|ext| ext.len())
                    .map_err(|e| e.to_string()),
            }
        };
        let read = catch_unwind(AssertUnwindSafe(|| match &budget {
            Some(b) => ov_query::budget::with(b.clone(), do_read),
            None => do_read(),
        }));
        match read {
            Ok(Ok(len)) => {
                ok_r += 1;
                std::hint::black_box(len);
            }
            Ok(Err(msg)) => {
                err_r += 1;
                std::hint::black_box(msg);
            }
            Err(_) => {
                violation = Some(format!("round {i}: a panic escaped a view read"));
                break;
            }
        }
    }
    let status = faults::status();
    faults::clear();
    if let Some(msg) = violation {
        return Err(msg);
    }

    println!("rounds: {rounds}  writes ok/err: {ok_w}/{err_w}  reads ok/err: {ok_r}/{err_r}");
    println!("failpoints (site: hits fired):");
    for (site, hits, fired) in status {
        println!("  {site:<28} {hits:>6} {fired:>5}");
    }
    let st = view.stats();
    println!(
        "degradation: stale_serves={} recomputations={}",
        st.stale_serves, st.recomputations
    );

    // Recovery: with faults cleared, one more write must land and the next
    // read must agree exactly with a direct base scan.
    db.write()
        .set_attr(victims[0], sym("Age"), Value::Int(30))
        .map_err(|e| format!("post-chaos write failed: {e}"))?;
    let adults = view
        .extent_of(sym("Adult"))
        .map_err(|e| format!("post-chaos read failed: {e}"))?;
    let got: std::collections::BTreeSet<_> = adults.into_iter().collect();
    let expected: std::collections::BTreeSet<_> = {
        let d = db.read();
        d.deep_extent(person)
            .into_iter()
            .filter(|&o| matches!(eval_attr(&*d, o, sym("Age"), &[]), Ok(Value::Int(a)) if a >= 21))
            .collect()
    };
    if got != expected {
        return Err(format!(
            "post-chaos population diverged from a direct base scan: {} vs {} members",
            got.len(),
            expected.len()
        ));
    }
    println!(
        "recovery: post-chaos population matches a direct base scan ({} members)",
        got.len()
    );
    Ok(())
}

/// The experiment id of the section being printed, so [`tcell`] can record
/// baseline keys without threading it through every experiment function.
static CURRENT_EXP: Mutex<String> = Mutex::new(String::new());

fn header(id: &str, title: &str) {
    *CURRENT_EXP.lock().unwrap() = id.to_string();
    println!("\n## {id} — {title}");
}

/// A timed table cell: records `CURRENT_EXP/label/column` for the baseline
/// pipeline, then formats like [`fmt_ns`].
fn tcell(label: &str, column: &str, ns: f64) -> String {
    baseline::record(&CURRENT_EXP.lock().unwrap(), label, column, ns);
    fmt_ns(ns)
}

fn row(label: &str, cells: &[String]) {
    println!("{label:<34} {}", cells.join("  "));
}

/// 64 accesses through a warm [`ov_query::Scan`]: bind/run per row — the
/// steady-state shape of a scan's inner loop, which is what E1's
/// per-access columns are about.
fn scan64(scan: &mut ov_query::Scan, rows: &[Value]) {
    for o in rows {
        scan.bind(0, o.clone());
        std::hint::black_box(scan.run(0).unwrap());
    }
}

fn e1_virtual_attributes() {
    header(
        "E1",
        "virtual attributes: stored vs computed access (64 objects/op, warm scan) + full view scan",
    );
    row(
        "n",
        &[
            "stored@base".into(),
            "stored@view".into(),
            "computed@view".into(),
            "scan@view".into(),
        ],
    );
    // The per-access columns measure the compiled engine — the
    // engine a population or select scan actually runs per row — with the
    // executor built once and its resolution caches warm, so the cell
    // isolates the paper's §2 question: what does virtual-attribute
    // indirection cost per access, stored vs computed? They are
    // deliberately size-flat (64 accesses/op regardless of N). The
    // scan@view column is a whole `select P.Address from P in Person`
    // through the view and *does* scale with N.
    use ov_oodb::Expr;
    let v = sym("V");
    let prog_stored = ov_query::compile_predicate(&Expr::attr(Expr::name("V"), "Age"), &[v]);
    let prog_computed = ov_query::compile_predicate(&Expr::attr(Expr::name("V"), "Address"), &[v]);
    for &n in &[1_000usize, 10_000, 100_000] {
        let sys = people(n);
        let view = staff_view(&sys, ViewOptions::default());
        let rows: Vec<Value> = person_oids(&sys, 64).into_iter().map(Value::Oid).collect();
        let db = sys.database(sym("Staff")).unwrap();
        let base = {
            let db = db.read();
            let mut scan = ov_query::Scan::new(&prog_stored, &*db);
            time_ns(50, || scan64(&mut scan, &rows))
        };
        let stored_view = {
            let mut scan = ov_query::Scan::new(&prog_stored, &view);
            time_ns(50, || scan64(&mut scan, &rows))
        };
        let computed = {
            let mut scan = ov_query::Scan::new(&prog_computed, &view);
            time_ns(50, || scan64(&mut scan, &rows))
        };
        let scan_view = time_ns(5, || {
            std::hint::black_box(view.query("select P.Address from P in Person").unwrap());
        });
        let label = n.to_string();
        row(
            &label,
            &[
                tcell(&label, "stored@base", base),
                tcell(&label, "stored@view", stored_view),
                tcell(&label, "computed@view", computed),
                tcell(&label, "scan@view", scan_view),
            ],
        );
    }
}

fn e2_overloading() {
    header(
        "E2",
        "stored/computed overloading resolves per class (semantic)",
    );
    let sys = people(100);
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        attribute Tag in class Person has value "person";
        attribute Tag in class Employee has value "employee";
        attribute Tag in class Manager has value "manager";
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    for class in ["Person", "Employee", "Manager"] {
        let v = view
            .query(&format!("select distinct X.Tag from X in {class}"))
            .unwrap();
        println!("Tag over deep extent of {class:<9} = {v}");
    }
}

fn e3_import_hide() {
    header("E3", "view binding cost: schema-sized, data-independent");
    row("schema classes (1 obj each)", &["bind time".into()]);
    for &classes in &[10usize, 50, 200, 800] {
        let sys = market(classes, 8, 1);
        let def = ViewDef::from_script(
            "create view V; import all classes from database Market; \
             hide attribute Id in class Item;",
        )
        .unwrap();
        let t = time_ns(10, || {
            std::hint::black_box(def.binder(&sys).bind().unwrap());
        });
        row(
            &classes.to_string(),
            &[tcell(&classes.to_string(), "bind@schema", t)],
        );
    }
    row("data objects (20 classes)", &["bind time".into()]);
    for &objs in &[10usize, 100, 1_000, 10_000] {
        let sys = market(20, 8, objs);
        let def = ViewDef::from_script("create view V; import all classes from database Market;")
            .unwrap();
        let t = time_ns(10, || {
            std::hint::black_box(def.binder(&sys).bind().unwrap());
        });
        row(
            &(objs * 20).to_string(),
            &[tcell(&(objs * 20).to_string(), "bind@data", t)],
        );
    }
}

fn e4_population() {
    header(
        "E4",
        "virtual-class population: recompute vs cache vs incremental",
    );
    row(
        "n",
        &[
            "recompute".into(),
            "cached".into(),
            "upd+read incr.".into(),
            "chained recompute".into(),
        ],
    );
    for &n in &[1_000usize, 10_000, 100_000] {
        let sys = people(n);
        let cached = staff_view(&sys, ViewOptions::default());
        let recompute = staff_view(
            &sys,
            ViewOptions::builder()
                .materialization(Materialization::AlwaysRecompute)
                .build(),
        );
        cached.extent_of(sym("Adult")).unwrap();
        let t_rec = time_ns(5, || {
            std::hint::black_box(recompute.extent_of(sym("Adult")).unwrap());
        });
        let t_cache = time_ns(50, || {
            std::hint::black_box(cached.extent_of(sym("Adult")).unwrap());
        });
        // Chained specialization (Senior over Adult): two query layers.
        let t_chained = time_ns(5, || {
            std::hint::black_box(recompute.extent_of(sym("Senior")).unwrap());
        });
        // Update-heavy pattern: one base write, then one extent read.
        let db = sys.database(sym("Staff")).unwrap();
        let victims = person_oids(&sys, 16);
        let mut i = 0usize;
        let t_upd_incr = time_ns(5, || {
            let o = victims[i % victims.len()];
            i += 1;
            db.write()
                .set_attr(o, sym("Age"), Value::Int((i % 90) as i64))
                .unwrap();
            std::hint::black_box(cached.extent_of(sym("Adult")).unwrap());
        });
        let label = n.to_string();
        row(
            &label,
            &[
                tcell(&label, "recompute", t_rec),
                tcell(&label, "cached", t_cache),
                tcell(&label, "upd+read incr", t_upd_incr),
                tcell(&label, "chained recompute", t_chained),
            ],
        );
    }
}

/// E4b — concurrent readers, enabled by `--threads N` (N > 1): N reader
/// threads sharing one warm cached view, next to one thread's recompute.
fn e4_readers(threads: usize) {
    if threads <= 1 {
        return;
    }
    header(
        "E4b",
        &format!("population with --threads {threads}: concurrent reads"),
    );
    row(
        "n",
        &["recompute x1".into(), format!("{threads} conc. readers")],
    );
    for &n in &[10_000usize, 100_000] {
        let sys = people(n);
        let seq = staff_view(
            &sys,
            ViewOptions::builder()
                .materialization(Materialization::AlwaysRecompute)
                .build(),
        );
        let t_seq = time_ns(5, || {
            std::hint::black_box(seq.extent_of(sym("Adult")).unwrap());
        });
        // N readers hammering one warm cached view; the reported cost is
        // wall clock divided by total reads, i.e. amortized ns per read.
        let cached = staff_view(&sys, ViewOptions::default());
        cached.extent_of(sym("Adult")).unwrap();
        let reads_per_thread = 20u32;
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..reads_per_thread {
                        std::hint::black_box(cached.extent_of(sym("Adult")).unwrap());
                    }
                });
            }
        });
        let t_conc =
            t0.elapsed().as_nanos() as f64 / (f64::from(reads_per_thread) * threads as f64);
        let label = n.to_string();
        row(
            &label,
            &[
                tcell(&label, "recompute x1", t_seq),
                tcell(&label, "concurrent readers", t_conc),
            ],
        );
    }
}

fn e5_resolution() {
    header("E5", "attribute resolution (64 objects/op)");
    let sys = people(2_000);
    let oids = person_oids(&sys, 64);
    let def = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Rich includes (select P from Person where P.Income >= 100000);
        class Senior includes (select P from Person where P.Age >= 65);
        attribute Print in class Rich has value "rich";
        attribute Print in class Senior has value "senior";
        attribute Plain in class Person has value "plain";
        "#,
    )
    .unwrap();
    let view = def.binder(&sys).bind().unwrap();
    let priority = def
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .policy(ConflictPolicy::Priority(vec![sym("Senior"), sym("Rich")]))
                .build(),
        )
        .bind()
        .unwrap();
    let t_plain = time_ns(50, || {
        for &o in &oids {
            std::hint::black_box(eval_attr(&view, o, sym("Plain"), &[]).unwrap());
        }
    });
    let t_overlap = time_ns(50, || {
        for &o in &oids {
            std::hint::black_box(eval_attr(&view, o, sym("Print"), &[]).ok());
        }
    });
    let t_priority = time_ns(50, || {
        for &o in &oids {
            std::hint::black_box(eval_attr(&priority, o, sym("Print"), &[]).ok());
        }
    });
    row(
        "base-chain attribute",
        &[tcell("base-chain", "resolve", t_plain)],
    );
    row(
        "overlap attribute (memberships)",
        &[tcell("overlap", "resolve", t_overlap)],
    );
    row(
        "overlap attribute, priority policy",
        &[tcell("overlap-priority", "resolve", t_priority)],
    );
    row("chain depth (plain schema)", &["resolve+eval".into()]);
    for &depth in &[2usize, 8, 32, 128] {
        let mut db = ov_oodb::Database::new(sym(&format!("HDeep{depth}")));
        let mut parent = db
            .create_class(
                sym(&format!("HD{depth}_0")),
                &[],
                vec![ov_oodb::AttrDef::stored(sym("X"), ov_oodb::Type::Int)],
            )
            .unwrap();
        for i in 1..depth {
            parent = db
                .create_class(sym(&format!("HD{depth}_{i}")), &[parent], vec![])
                .unwrap();
        }
        let oid = db
            .create_object(parent, ov_oodb::Value::tuple([("X", Value::Int(1))]))
            .unwrap();
        let t = time_ns(200, || {
            std::hint::black_box(eval_attr(&db, oid, sym("X"), &[]).unwrap());
        });
        row(
            &depth.to_string(),
            &[tcell(&format!("depth{depth}"), "resolve+eval", t)],
        );
    }
}

/// E5b — attribute resolution under concurrent readers, enabled by
/// `--threads N` (N > 1): N threads resolve overlap attributes against one
/// shared view, exercising the population cache's one lock under contention.
fn e5_concurrent(threads: usize) {
    if threads <= 1 {
        return;
    }
    header(
        "E5b",
        &format!("attribute resolution, {threads} concurrent readers (64 objects/op)"),
    );
    let sys = people(2_000);
    let oids = person_oids(&sys, 64);
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Rich includes (select P from Person where P.Income >= 100000);
        class Senior includes (select P from Person where P.Age >= 65);
        attribute Print in class Rich has value "rich";
        attribute Print in class Senior has value "senior";
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let t_one = time_ns(50, || {
        for &o in &oids {
            std::hint::black_box(eval_attr(&view, o, sym("Print"), &[]).ok());
        }
    });
    let iters = 50u32;
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..iters {
                    for &o in &oids {
                        std::hint::black_box(eval_attr(&view, o, sym("Print"), &[]).ok());
                    }
                }
            });
        }
    });
    let t_conc = t0.elapsed().as_nanos() as f64 / (f64::from(iters) * threads as f64);
    row("1 thread", &[tcell("overlap", "1 thread", t_one)]);
    row(
        &format!("{threads} threads (amortized)"),
        &[tcell("overlap", "N threads amortized", t_conc)],
    );
    let st = view.stats();
    println!(
        "stats: cache_hits={} cache_misses={}",
        st.cache_hits, st.cache_misses
    );
}

fn e6_inference() {
    header("E6", "hierarchy inference at bind time");
    row(
        "schema classes",
        &["generalization".into(), "behavioral(like)".into()],
    );
    for &classes in &[10usize, 50, 200, 800] {
        let sys = market(classes, 6, 1);
        let picked: Vec<String> = (0..classes)
            .step_by(5)
            .map(|i| format!("Kind{i}"))
            .collect();
        let gen_def = ViewDef::from_script(&format!(
            "create view V; import all classes from database Market; \
             class Grouped includes {};",
            picked.join(", ")
        ))
        .unwrap();
        let like_def = ViewDef::from_script(
            "create view V; import all classes from database Market; \
             class On_Sale includes like Sale_Spec;",
        )
        .unwrap();
        let t_gen = time_ns(5, || {
            std::hint::black_box(gen_def.binder(&sys).bind().unwrap());
        });
        let t_like = time_ns(5, || {
            std::hint::black_box(like_def.binder(&sys).bind().unwrap());
        });
        let label = classes.to_string();
        row(
            &label,
            &[
                tcell(&label, "generalization", t_gen),
                tcell(&label, "behavioral-like", t_like),
            ],
        );
    }
}

fn e7_parameterized() {
    header("E7", "parameterized classes: Resident(X)");
    row(
        "n",
        &[
            "first instantiation".into(),
            "cached".into(),
            "partition (4 cities)".into(),
        ],
    );
    for &n in &[1_000usize, 10_000] {
        let sys = people(n);
        let def = ViewDef::from_script(
            "create view V; import all classes from database Staff; \
             class Resident(X) includes (select P from Person where P.City = X);",
        )
        .unwrap();
        let t_first = time_ns(5, || {
            let view = def.binder(&sys).bind().unwrap();
            std::hint::black_box(view.query(r#"count(Resident("London"))"#).unwrap());
        });
        let view = def.binder(&sys).bind().unwrap();
        view.query(r#"count(Resident("London"))"#).unwrap();
        let t_cached = time_ns(50, || {
            std::hint::black_box(view.query(r#"count(Resident("London"))"#).unwrap());
        });
        let partitioned = def.binder(&sys).bind().unwrap();
        let t_partition = time_ns(50, || {
            for city in ["London", "Paris", "Roma", "Berlin"] {
                std::hint::black_box(
                    partitioned
                        .instantiate(sym("Resident"), &[Value::str(city)])
                        .unwrap(),
                );
            }
        });
        let label = n.to_string();
        row(
            &label,
            &[
                tcell(&label, "first instantiation", t_first),
                tcell(&label, "cached", t_cached),
                tcell(&label, "partition4", t_partition),
            ],
        );
    }
}

fn e8_upward_and_schizophrenia() {
    header(
        "E8",
        "upward inheritance + schizophrenia policies (semantic)",
    );
    let sys = people(200);
    let def = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Rich includes (select P from Person where P.Income >= 100000);
        class Senior includes (select P from Person where P.Age >= 65);
        attribute Print in class Rich has value "rich";
        attribute Print in class Senior has value "senior";
        "#,
    )
    .unwrap();
    // A person who is both rich and senior: find one.
    let strict = def
        .binder(&sys)
        .options(ViewOptions::builder().policy(ConflictPolicy::Error).build())
        .bind()
        .unwrap();
    let overlap = strict
        .query("count((select P from P in Rich where P in Senior))")
        .unwrap();
    println!("objects in Rich ∩ Senior: {overlap}");
    let both = strict
        .query("select P from P in Rich where P in Senior")
        .unwrap();
    if let Some(Value::Oid(o)) = both.as_set().and_then(|s| s.iter().next().cloned()) {
        let e = eval_attr(&strict, o, sym("Print"), &[]);
        println!(
            "policy=Error            → {:?}",
            e.err().map(|x| x.to_string())
        );
        let creation = def.binder(&sys).bind().unwrap();
        println!(
            "policy=CreationOrder    → {}",
            eval_attr(&creation, o, sym("Print"), &[]).unwrap()
        );
        let pri = def
            .binder(&sys)
            .options(
                ViewOptions::builder()
                    .policy(ConflictPolicy::Priority(vec![sym("Senior")]))
                    .build(),
            )
            .bind()
            .unwrap();
        println!(
            "policy=Priority(Senior) → {}",
            eval_attr(&pri, o, sym("Print"), &[]).unwrap()
        );
    }
}

fn e9_identity() {
    header(
        "E9",
        "imaginary identity: the two 'seemingly equivalent' queries",
    );
    let nested = "count((select F from F in Family \
                  where F in (select G from G in Family where G.Husband.Age < 50)))";
    let flat = "count((select F from F in Family where F.Husband.Age < 50))";
    row(
        "n",
        &[
            "flat".into(),
            "nested@table".into(),
            "nested@fresh".into(),
            "pop time (table)".into(),
            "pop time (fresh)".into(),
            "nested query (table)".into(),
        ],
    );
    for &n in &[1_000usize, 10_000] {
        let sys = people(n);
        let table = staff_view(
            &sys,
            ViewOptions::builder()
                .materialization(Materialization::AlwaysRecompute)
                .build(),
        );
        let fresh = staff_view(
            &sys,
            ViewOptions::builder()
                .materialization(Materialization::AlwaysRecompute)
                .identity_mode(IdentityMode::Fresh)
                .build(),
        );
        let a = table.query(flat).unwrap();
        let b = table.query(nested).unwrap();
        let c = fresh.query(nested).unwrap();
        let t = time_ns(5, || {
            std::hint::black_box(table.extent_of(sym("Family")).unwrap());
        });
        let t_fresh = time_ns(5, || {
            std::hint::black_box(fresh.extent_of(sym("Family")).unwrap());
        });
        // The nested query re-evaluates its subquery per candidate, so it
        // is quadratic in the families (10 s a run at 10 000 people): timed
        // at the small size only.
        let nested_cell = if n <= 1_000 {
            let t_nested = time_ns(5, || {
                std::hint::black_box(table.query(nested).unwrap());
            });
            tcell(&n.to_string(), "nested query", t_nested)
        } else {
            "-".into()
        };
        row(
            &n.to_string(),
            &[
                a.to_string(),
                b.to_string(),
                c.to_string(),
                tcell(&n.to_string(), "pop time table", t),
                tcell(&n.to_string(), "pop time fresh", t_fresh),
                nested_cell,
            ],
        );
    }
    println!("(the paper's claim: flat = nested under identity tables; fresh oids collapse to 0)");
}

fn e10_value_to_object() {
    header(
        "E10",
        "Example 5: value→object conversion with sharing (semantic)",
    );
    let sys = people(1_000);
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Address includes imaginary
            (select [City: P.City, Street: P.Street] from P in Person);
        attribute Location in class Person has value
            (select the A from A in Address
             where A.City = self.City and A.Street = self.Street);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let people_count = view.query("count(Person)").unwrap();
    let addr_count = view.query("count(Address)").unwrap();
    println!("persons: {people_count}, distinct shared address objects: {addr_count}");
    let t = time_ns(20, || {
        let oids = person_oids(&sys, 32);
        for o in oids {
            std::hint::black_box(eval_attr(&view, o, sym("Location"), &[]).unwrap());
        }
    });
    row(
        "`select the` lookup (32 objs/op)",
        &[tcell("lookup32", "select-the", t)],
    );
}

fn e11_churn() {
    header("E11", "Example 6: identity churn under address updates");
    const POOR: &str = r#"
        create view Poor;
        import all classes from database Insurance;
        class Client includes imaginary
            (select [CName: P.PName, SS: P.SS, CAddress: P.PAddress, Policy: P]
             from P in Policy);
    "#;
    const FIXED: &str = r#"
        create view Fixed;
        import all classes from database Insurance;
        class Client includes imaginary
            (select [CName: P.PName, SS: P.SS, Policy: P] from P in Policy);
        attribute CAddress in class Client has value self.Policy.PAddress;
    "#;
    let updates = 200usize;
    row(
        "design",
        &[
            "clients".into(),
            format!("identity entries after {updates} updates"),
            "churn rate".into(),
            "update+extent".into(),
        ],
    );
    for (label, script) in [("poor", POOR), ("fixed", FIXED)] {
        let sys = insurance(1_000);
        let view = ViewDef::from_script(script)
            .unwrap()
            .binder(&sys)
            .bind()
            .unwrap();
        view.extent_of(sym("Client")).unwrap();
        let baseline = view.identity_table_len(sym("Client"));
        let db = sys.database(sym("Insurance")).unwrap();
        let policies = {
            let d = db.read();
            d.deep_extent(d.schema.class_by_name(sym("Policy")).unwrap())
        };
        for i in 0..updates {
            let p = policies[i % policies.len()];
            db.write()
                .set_attr(p, sym("PAddress"), Value::str(&format!("addr {i}")))
                .unwrap();
            view.extent_of(sym("Client")).unwrap();
        }
        let after = view.identity_table_len(sym("Client"));
        // The counts are taken; what one more update and re-population
        // costs under each design.
        let mut i = updates;
        let t_update = time_ns(40, || {
            let p = policies[i % policies.len()];
            i += 1;
            db.write()
                .set_attr(p, sym("PAddress"), Value::str(&format!("addr {i}")))
                .unwrap();
            std::hint::black_box(view.extent_of(sym("Client")).unwrap());
        });
        row(
            label,
            &[
                baseline.to_string(),
                after.to_string(),
                format!(
                    "{:.2} new identities/update",
                    (after - baseline) as f64 / updates as f64
                ),
                tcell(label, "update+extent", t_update),
            ],
        );
    }
    println!("(the paper's claim: the poor design makes every move a new client)");
}

fn e13_indexes() {
    header(
        "E13",
        "index pushdown for specialization populations (extension)",
    );
    row(
        "n",
        &["scan".into(), "indexed".into(), "result size".into()],
    );
    for &n in &[1_000usize, 10_000, 100_000] {
        let mut results = Vec::new();
        let mut size = 0usize;
        for indexed in [false, true] {
            let sys = people(n);
            if indexed {
                let db = sys.database(sym("Staff")).unwrap();
                let mut db = db.write();
                let person = db.schema.class_by_name(sym("Person")).unwrap();
                db.create_index(person, sym("City")).unwrap();
            }
            let view = ViewDef::from_script(
                r#"
                create view V;
                import all classes from database Staff;
                class Londoner includes
                    (select P from Person where P.City = "London");
                "#,
            )
            .unwrap()
            .binder(&sys)
            .options(
                ViewOptions::builder()
                    .materialization(Materialization::AlwaysRecompute)
                    .build(),
            )
            .bind()
            .unwrap();
            size = view.extent_of(sym("Londoner")).unwrap().len();
            let t = time_ns(5, || {
                std::hint::black_box(view.extent_of(sym("Londoner")).unwrap());
            });
            results.push(tcell(
                &n.to_string(),
                if indexed { "indexed" } else { "scan" },
                t,
            ));
        }
        results.push(size.to_string());
        row(&n.to_string(), &results);
    }
    // What an oid-ordered scan pays per row for `store.get`, against the
    // same probes in random order: the object table's locality, on its
    // own. Per probe, not per pass.
    use rand::{Rng, SeedableRng};
    row("n", &["probe_ordered".into(), "probe_shuffled".into()]);
    for &n in &[1_000usize, 10_000, 100_000] {
        let sys = people(n);
        let db = sys.database(sym("Staff")).unwrap();
        let db = db.read();
        let ordered = db.store.sorted_oids();
        let mut shuffled = ordered.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..i + 1));
        }
        let label = n.to_string();
        let cells: Vec<String> = [("probe_ordered", &ordered), ("probe_shuffled", &shuffled)]
            .into_iter()
            .map(|(column, oids)| {
                let pass = time_ns(20, || {
                    for &oid in oids {
                        std::hint::black_box(db.store.get(oid).map(|o| o.class));
                    }
                });
                tcell(&label, column, pass / oids.len() as f64)
            })
            .collect();
        row(&label, &cells);
    }
}

fn e14_compiled_engine() {
    header(
        "E14",
        "compiled predicate engine vs tree-walking interpreter (extension)",
    );
    row(
        "n",
        &[
            "compiled".into(),
            "interp".into(),
            "speedup".into(),
            "result size".into(),
            "verdict_hit".into(),
        ],
    );
    // `verdict_hit`: one stored-attribute read through the view on a warm
    // resolution slot — probe, verdict lookup, the fetched field handed
    // back — per access (64 objects, the shape of E1's `stored@view`).
    let prog_age = ov_query::compile_predicate(
        &ov_oodb::Expr::attr(ov_oodb::Expr::name("V"), "Age"),
        &[sym("V")],
    );
    // A population always runs bytecode, so `interp` times the tree walker
    // on `Comfortable`'s membership query run as a top-level statement.
    let membership =
        ov_query::parse_expr("select P from P in Person where P.Income >= 100000 and P.Age >= 30")
            .unwrap();
    for &n in &[1_000usize, 10_000, 100_000] {
        let sys = people(n);
        let view = ViewDef::from_script(
            r#"
            create view V;
            import all classes from database Staff;
            class Comfortable includes
                (select P from Person where P.Income >= 100000 and P.Age >= 30);
            "#,
        )
        .unwrap()
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .materialization(Materialization::AlwaysRecompute)
                .build(),
        )
        .bind()
        .unwrap();
        let mut times = Vec::new();
        let mut sizes = Vec::new();
        sizes.push(view.extent_of(sym("Comfortable")).unwrap().len());
        times.push(time_ns(5, || {
            std::hint::black_box(view.extent_of(sym("Comfortable")).unwrap());
        }));
        ov_query::with_engine_mode(ov_query::EngineMode::Interp, || {
            let walk = || ov_query::run_expr(&view, &membership).unwrap();
            sizes.push(walk().as_set().map_or(0, |s| s.len()));
            times.push(time_ns(5, || {
                std::hint::black_box(walk());
            }));
        });
        assert_eq!(sizes[0], sizes[1], "engines must agree on the population");
        let rows: Vec<Value> = person_oids(&sys, 64).into_iter().map(Value::Oid).collect();
        let mut scan = ov_query::Scan::new(&prog_age, &view);
        let verdict_hit = time_ns(50, || scan64(&mut scan, &rows)) / rows.len() as f64;
        row(
            &n.to_string(),
            &[
                tcell(&n.to_string(), "compiled", times[0]),
                tcell(&n.to_string(), "interp", times[1]),
                format!("{:.2}x", times[1] / times[0]),
                sizes[0].to_string(),
                tcell(&n.to_string(), "verdict_hit", verdict_hit),
            ],
        );
    }
}

/// Staff -> Adults(Adult) -> Earners(Rich) -> Top(Elite): a three-level
/// view stack over a `Staff` database with `Person [Age, Income]`, bottom up.
const STACK_SCRIPTS: [&str; 3] = [
    "create view Adults; import all classes from database Staff; \
     class Adult includes (select P from Person where P.Age >= 21);",
    "create view Earners; import all classes from view Adults; \
     class Rich includes (select A from Adult where A.Income >= 100000);",
    "create view Top; import all classes from view Earners; \
     class Elite includes (select R from Rich where R.Age >= 60);",
];

/// [`STACK_SCRIPTS`] bound over `sys` with `options`, bottom up, each
/// level over the one below: each populates the class it declares.
fn bind_stack(sys: &ov_oodb::System, options: ViewOptions) -> [std::sync::Arc<ov_views::View>; 3] {
    let mut bound: Vec<std::sync::Arc<ov_views::View>> = Vec::new();
    for script in STACK_SCRIPTS {
        let view = ViewDef::from_script(script)
            .unwrap()
            .binder(sys)
            .options(options.clone())
            .over_all(&bound)
            .bind()
            .unwrap();
        bound.push(std::sync::Arc::new(view));
    }
    bound.try_into().unwrap()
}

fn e15_stacked_views() {
    header(
        "E15",
        "views over views: delta propagation through a 3-deep stack (extension)",
    );
    row(
        "n",
        &[
            "delta".into(),
            "full".into(),
            "speedup".into(),
            "result size".into(),
        ],
    );
    for &n in &[1_000usize, 10_000, 100_000] {
        let mut times = Vec::new();
        let mut size = 0usize;
        for incremental in [true, false] {
            let sys = people(n);
            // Each level populates the class it declares, so one base
            // write must cross three population definitions, in three
            // views, to reach Elite.
            let stack = bind_stack(
                &sys,
                ViewOptions::builder()
                    .materialization(if incremental {
                        Materialization::Incremental
                    } else {
                        Materialization::AlwaysRecompute
                    })
                    .build(),
            );
            let view = &stack[2];
            let recomputations = || stack.iter().map(|v| v.stats().recomputations).sum::<u64>();
            // Warm every level, then refresh after a single base write.
            size = view.extent_of(sym("Elite")).unwrap().len();
            let db = sys.database(sym("Staff")).unwrap();
            let person = db.read().schema.class_by_name(sym("Person")).unwrap();
            let victim = db.read().deep_extent(person)[0];
            let recomputes_before = recomputations();
            let mut flip = 0i64;
            let t = time_ns(5, || {
                flip += 1;
                db.write()
                    .set_attr(victim, sym("Age"), Value::Int(61 + (flip % 2)))
                    .unwrap();
                std::hint::black_box(view.extent_of(sym("Elite")).unwrap());
            });
            if incremental {
                // The write must propagate level by level as delta
                // retests of the one changed oid; a full recomputation
                // anywhere in the stack is a regression.
                assert_eq!(
                    recomputations(),
                    recomputes_before,
                    "E15: stacked delta refresh fell back to FullRecompute"
                );
            }
            times.push(t);
        }
        row(
            &n.to_string(),
            &[
                tcell(&n.to_string(), "delta", times[0]),
                tcell(&n.to_string(), "full", times[1]),
                format!("{:.2}x", times[1] / times[0]),
                size.to_string(),
            ],
        );
    }
}

fn e16_compiled_execution() {
    header(
        "E16",
        "bytecode execution through a view: compiled engine vs interpreter (extension)",
    );
    row(
        "n",
        &[
            "compiled".into(),
            "interp".into(),
            "speedup".into(),
            "result size".into(),
        ],
    );
    // The same select, with a computed attribute in the projection and a
    // stored attribute in the predicate, run both ways through the view:
    // the compiled engine (one lazy probe per attribute a row evaluates)
    // and the tree-walking interpreter. Both must produce the same set;
    // `speedup` is interp/compiled.
    let q = "select P.Address from P in Person where P.Age >= 21";
    for &n in &[1_000usize, 10_000, 100_000] {
        let sys = people(n);
        let view = staff_view(&sys, ViewOptions::default());
        let compiled_result = view.query(q).unwrap();
        let interp_result =
            ov_query::with_engine_mode(ov_query::EngineMode::Interp, || view.query(q).unwrap());
        assert_eq!(compiled_result, interp_result, "E16: engines disagree");
        let size = compiled_result.as_set().map_or(0, |s| s.len());
        let t_compiled = time_ns(5, || {
            std::hint::black_box(view.query(q).unwrap());
        });
        let t_interp = ov_query::with_engine_mode(ov_query::EngineMode::Interp, || {
            time_ns(5, || {
                std::hint::black_box(view.query(q).unwrap());
            })
        });
        row(
            &n.to_string(),
            &[
                tcell(&n.to_string(), "compiled", t_compiled),
                tcell(&n.to_string(), "interp", t_interp),
                format!("{:.2}x", t_interp / t_compiled),
                size.to_string(),
            ],
        );
    }
}

fn e17_profiling_overhead() {
    header(
        "E17",
        "observability plane: profiling overhead, workload registry, statistics (extension)",
    );
    row(
        "n",
        &[
            "off".into(),
            "on".into(),
            "overhead".into(),
            "fingerprints".into(),
        ],
    );
    // The same view query timed with the profiler disabled (the production
    // default: the per-query cost is one relaxed atomic load) and enabled
    // (fingerprinting, workload aggregation, actuals collection, sampled
    // statistics sketches). The two runs must agree on the result; the
    // `overhead` column is the enabled/disabled ratio.
    let was_profiling = ov_oodb::profiling_enabled();
    let q = "select P.Address from P in Person where P.Age >= 21";
    for &n in &[1_000usize, 10_000, 100_000] {
        let sys = people(n);
        let view = staff_view(&sys, ViewOptions::default());
        ov_oodb::set_profiling(false);
        let off_result = view.query(q).unwrap();
        let t_off = time_ns(5, || {
            std::hint::black_box(view.query(q).unwrap());
        });
        ov_oodb::set_profiling(true);
        let on_result = view.query(q).unwrap();
        assert_eq!(off_result, on_result, "E17: profiling changed the result");
        let t_on = time_ns(5, || {
            std::hint::black_box(view.query(q).unwrap());
        });
        ov_oodb::set_profiling(false);
        // The profiled runs must have fed the observability plane: the
        // query's fingerprint is registered (without clearing the global
        // registry — under `--workload` it holds the whole run so far),
        // and the scanned class has attribute sketches.
        let (fp, _) = ov_query::fingerprint_query(q).expect("E17: query parses");
        let entry = ov_oodb::workload()
            .snapshot()
            .into_iter()
            .find(|(f, _)| *f == fp)
            .map(|(_, e)| e)
            .expect("E17: profiled runs must register the query's fingerprint");
        assert!(entry.calls.get() >= 6, "E17: warm run + 5 timed iterations");
        let stats = ov_oodb::stats().snapshot();
        let person = stats
            .classes
            .get(&sym("Person"))
            .expect("E17: profiled scans must feed Person statistics");
        assert!(
            !person.attrs.is_empty(),
            "E17: the sampled rows must sketch at least one attribute"
        );
        let fingerprints = ov_oodb::workload().len();
        row(
            &n.to_string(),
            &[
                tcell(&n.to_string(), "off", t_off),
                tcell(&n.to_string(), "on", t_on),
                format!("{:.2}x", t_on / t_off),
                fingerprints.to_string(),
            ],
        );
    }
    ov_oodb::set_profiling(was_profiling);
}

/// E18: what durability costs. Per-commit latency of inserts and updates
/// under each durability level, then the other side of the bargain:
/// recovery time for a WAL-only restart, and checkpoint time (after which
/// restarts ride the snapshot instead of replaying history).
fn e18_durability(args: &Args) {
    use ov_oodb::{AttrDef, Database, Durability, Type};

    header(
        "E18",
        "durability: commit latency, WAL recovery, checkpoint under None / Wal / WalSync (extension)",
    );
    row(
        "level",
        &[
            "insert".into(),
            "update".into(),
            "recovery".into(),
            "objects".into(),
            "checkpoint".into(),
        ],
    );
    const N: u32 = 500;
    let root = match &args.data_dir {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("ov-e18-{}", std::process::id())),
    };
    let keep = args.data_dir.is_some();
    let levels = match args.durability {
        Some(level) => vec![level],
        None => vec![Durability::None, Durability::Wal, Durability::WalSync],
    };
    let mut snapshot_lines = Vec::new();
    for level in levels {
        let dir = root.join(format!("e18-{}", level.as_str()));
        let _ = std::fs::remove_dir_all(&dir);
        let (t_insert, t_update, log) = {
            let mut db = Database::open(sym("E18"), &dir, level).unwrap();
            let class = db
                .create_class(
                    sym("Person"),
                    &[],
                    vec![AttrDef::stored(sym("Age"), Type::Int)],
                )
                .unwrap();
            let mut i = 0i64;
            let t_insert = time_ns(N, || {
                i += 1;
                db.create_object(class, Value::tuple([(sym("Age"), Value::Int(i % 90))]))
                    .unwrap();
            });
            let oids = db.store.sorted_oids();
            let mut j = 0usize;
            let t_update = time_ns(N, || {
                j += 1;
                db.set_attr(
                    oids[j % oids.len()],
                    sym("Age"),
                    Value::Int((j % 90) as i64),
                )
                .unwrap();
            });
            (
                t_insert,
                t_update,
                db.durable_core().map(|core| core.status()),
            )
        };
        let label = level.as_str();
        // The log as the writes left it: the class, then every insert and
        // update, the timer's warm-up calls' too, as the log counts them.
        if let Some(log) = log.filter(|s| level != Durability::None && s.records_since_reset > 0) {
            snapshot_lines.push(format!(
                "E18/wal/bytes_per_record {label} {:.1} B ({} B log, {} records)",
                log.wal_bytes as f64 / log.records_since_reset as f64,
                log.wal_bytes,
                log.records_since_reset
            ));
        }
        // Recovery replays the whole history from the WAL. Opening only
        // reads, so it repeats; timed once, an open or a checkpoint swung
        // 2–3× from run to run of one binary.
        let t_recover = time_ns(8, || {
            std::hint::black_box(Database::open(sym("E18"), &dir, level).unwrap());
        });
        let db = Database::open(sym("E18"), &dir, level).unwrap();
        let objects = db.store.len();
        // The warm-up checkpoint truncates the history; the timed ones
        // rewrite the same snapshot beside an empty WAL.
        let t_checkpoint = time_ns(8, || db.checkpoint().unwrap());
        drop(db);
        // A byte count is not a timing cell: one line per level under the
        // table, in the manner of the E19 canary.
        if let Ok(meta) = std::fs::metadata(dir.join(ov_oodb::pager::SNAPSHOT_FILE)) {
            snapshot_lines.push(format!(
                "E18/snapshot/bytes_per_object {label} {:.1} B ({} B snapshot, {objects} objects)",
                meta.len() as f64 / objects as f64,
                meta.len()
            ));
        }
        row(
            label,
            &[
                tcell(label, "insert", t_insert),
                tcell(label, "update", t_update),
                tcell(label, "recovery", t_recover),
                objects.to_string(),
                tcell(label, "checkpoint", t_checkpoint),
            ],
        );
        if !keep {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    for line in snapshot_lines {
        println!("{line}");
    }
    if keep {
        println!("# durable stores kept under {}", root.display());
    }
}

fn e12_relational() {
    header("E12", "object views of relational data");
    row(
        "rows",
        &[
            "stage".into(),
            "populate".into(),
            "query".into(),
            "restage".into(),
        ],
    );
    for &n in &[1_000usize, 10_000, 50_000] {
        let rdb = payroll(n, 16);
        let t_stage = time_ns(5, || {
            std::hint::black_box(ov_relational::bridge::stage(&rdb).unwrap());
        });
        let (sys, _) = ov_relational::bridge::stage(&rdb).unwrap();
        let view = ov_relational::bridge::object_view(&rdb, &sys).unwrap();
        let t_pop = time_ns(5, || {
            std::hint::black_box(view.extent_of(sym("Emp")).unwrap());
        });
        view.extent_of(sym("Emp")).unwrap();
        let t_query = time_ns(5, || {
            std::hint::black_box(
                view.query("count((select E from E in Emp where E.Salary > 100000))")
                    .unwrap(),
            );
        });
        let t_restage = time_ns(5, || {
            ov_relational::bridge::restage(&rdb, &sys).unwrap();
        });
        let label = n.to_string();
        row(
            &label,
            &[
                tcell(&label, "stage", t_stage),
                tcell(&label, "populate", t_pop),
                tcell(&label, "query", t_query),
                tcell(&label, "restage", t_restage),
            ],
        );
    }
}

fn e19_planner() {
    header(
        "E19",
        "cost-based planner vs fixed heuristics: strategy selection from statistics (extension)",
    );
    row(
        "n",
        &[
            "uniform-on".into(),
            "uniform-off".into(),
            "skewed-on".into(),
            "skewed-off".into(),
            "join-on".into(),
            "join-off".into(),
            "probe@view".into(),
        ],
    );
    for &n in &[1_000usize, 10_000, 100_000] {
        // A fresh statistics plane and plan cache per size: the sketches
        // are keyed by class name, so leftovers from other experiments
        // (or the previous `n`) would skew the estimates.
        ov_oodb::stats::stats().clear();
        ov_query::clear_plan_cache();
        let sys = people(n);
        let db = sys.database(sym("Staff")).unwrap();
        // A small dimension class for the multi-binding join: 16 rows,
        // `Id` 0..16, so `P.Kids = D.Id` matches exactly one `D` per
        // person. The query below binds `D` *first*, which is the worst
        // order; the planner must discover that from the statistics.
        {
            let mut d = db.write();
            let person = d.schema.class_by_name(sym("Person")).unwrap();
            d.create_index(person, sym("Name")).unwrap();
            d.create_index(person, sym("Sex")).unwrap();
            let dept = d
                .create_class(
                    sym("Dept"),
                    &[],
                    vec![ov_oodb::AttrDef::stored(sym("Id"), ov_oodb::Type::Int)],
                )
                .unwrap();
            for i in 0..16 {
                d.create_object(
                    dept,
                    Value::Tuple(ov_oodb::Tuple::from_fields([(sym("Id"), Value::Int(i))])),
                )
                .unwrap();
            }
        }
        // Warm the statistics: profiled sequential scans sample the
        // prefetched columns (Name, Age, Sex, Kids) into the sketches.
        // Planner off so the eq probes don't take the index-pushdown
        // path, which bypasses the sampling loop.
        let was_profiling = ov_oodb::metrics::profiling_enabled();
        ov_oodb::metrics::set_profiling(true);
        ov_query::with_planner(false, || {
            let d = db.read();
            ov_query::run_query(&*d, "select P.Name from P in Person where P.Age >= 0").unwrap();
            ov_query::run_query(&*d, "select P.Kids from P in Person where P.Sex = \"none\"")
                .unwrap();
            ov_query::run_query(&*d, "select D.Id from D in Dept where D.Id >= 0").unwrap();
        });
        ov_oodb::metrics::set_profiling(was_profiling);

        // uniform: unique-key equality probe. The planner reads NDV ≈
        // cardinality from the sketch and picks the `Name` index; the
        // fixed heuristic (planner off) runs the compiled seq scan.
        let uniform = format!(
            "select P.Name from P in Person where P.Name = \"p{}\"",
            n / 2
        );
        // skewed: 2-NDV equality leg. The planner vetoes the `Sex` index
        // (half the extent behind one posting list) and stays sequential,
        // so both cells should be within noise of each other.
        let skewed = "select P.Name from P in Person where P.Sex = \"male\" and P.Age >= 90";
        // join: selective unique-key leg on `P`, cross leg to the 16-row
        // dimension, written in the worst binding order. The planner
        // reorders `P` first and evaluates the `Name` probe at depth 0;
        // planner off runs the compiled nested loop in textual order.
        let join = format!(
            "select P.Name from D in Dept, P in Person where P.Name = \"p{}\" and P.Kids = D.Id",
            n / 2
        );
        let mut cells = Vec::new();
        for q in [uniform.as_str(), skewed, join.as_str()] {
            let mut results = Vec::new();
            let mut times = Vec::new();
            for on in [true, false] {
                ov_query::with_planner(on, || {
                    let d = db.read();
                    results.push(ov_query::run_query(&*d, q).unwrap());
                    times.push(time_ns(5, || {
                        std::hint::black_box(ov_query::run_query(&*d, q).unwrap());
                    }));
                });
            }
            assert_eq!(results[0], results[1], "planner on/off must agree on {q}");
            times.truncate(2);
            cells.push(times);
        }
        // probe@view: the uniform probe again, through a three-level view
        // stack. The view answers `indexed_lookup` by probing each imported
        // class's index in the base, so it stays beside `uniform-on`
        // instead of scanning the extent.
        let [_, _, top] = bind_stack(&sys, ViewOptions::default());
        let probe_view = ov_query::with_planner(true, || {
            assert_eq!(
                top.query(&uniform).unwrap(),
                ov_query::run_query(&*db.read(), &uniform).unwrap(),
                "the view stack must answer the probe like the base"
            );
            time_ns(5, || {
                std::hint::black_box(top.query(&uniform).unwrap());
            })
        });
        let label = n.to_string();
        row(
            &label,
            &[
                tcell(&label, "uniform-on", cells[0][0]),
                tcell(&label, "uniform-off", cells[0][1]),
                tcell(&label, "skewed-on", cells[1][0]),
                tcell(&label, "skewed-off", cells[1][1]),
                tcell(&label, "join-on", cells[2][0]),
                tcell(&label, "join-off", cells[2][1]),
                tcell(&label, "probe@view", probe_view),
            ],
        );
        // Misestimate canary: on the uniform workload the estimate must
        // stay within 10x of the actual row count. The plan cache is
        // cleared first so the estimate is planned from the sketches: a
        // cached one would already carry the rows the timed runs measured.
        // CI greps for the MISESTIMATE marker.
        ov_query::clear_plan_cache();
        let d = db.read();
        let (val, trace) = ov_query::run_query_traced(&*d, &uniform).unwrap();
        let actual = match &val {
            Value::Set(s) => s.len() as u64,
            Value::List(l) => l.len() as u64,
            _ => 1,
        };
        match &trace.planner {
            Some(p) => {
                let est = p.est_rows.max(1);
                let act = actual.max(1);
                let ratio = est.max(act) as f64 / est.min(act) as f64;
                let verdict = if ratio > 10.0 { "MISESTIMATE" } else { "ok" };
                println!(
                    "E19/canary/{n} est={} actual={actual} ratio={ratio:.1}x {verdict}",
                    p.est_rows
                );
            }
            None => println!("E19/canary/{n} no plan recorded MISESTIMATE"),
        }
    }
}

/// What a short statement pays before and around its execution: the
/// parser, the session's dispatch of a database read, and the plan-cache
/// key. The statement shapes are the end-to-end benchmark's (`ovbench`):
/// the unique-key probe of `point_query` and the `insert` every set-up
/// loads rows with.
fn e20_front_end() {
    use ov_views::Session;
    header(
        "E20",
        "statement front end: parse, session dispatch, plan-cache key (ns per statement)",
    );
    const N: usize = 10_000;
    const ITERS: u32 = 20_000;
    let was_profiling = ov_oodb::profiling_enabled();
    ov_oodb::set_profiling(false);
    let mut session = Session::with_options(
        ViewOptions::builder()
            .materialization(Materialization::Incremental)
            .build(),
    );
    session
        .execute(
            "database Staff; \
             class Person type [Id: integer, Name: string, Age: integer, City: string, \
                                Street: string, Income: integer];",
        )
        .unwrap();
    let mut t_parse_insert = f64::INFINITY;
    for chunk in 0..N / 1000 {
        let script: String = (chunk * 1000..(chunk + 1) * 1000)
            .map(|i| {
                format!(
                    "insert Person value [Id: {i}, Name: \"p{i}\", Age: {}, City: \"Paris\", \
                     Street: \"{} St\", Income: {}];\n",
                    i % 100,
                    i % 97,
                    (i * 7919) % 200_000
                )
            })
            .collect();
        let t0 = std::time::Instant::now();
        let stmts = ov_query::parse_program(&script).unwrap();
        t_parse_insert = t_parse_insert.min(t0.elapsed().as_nanos() as f64 / 1000.0);
        for stmt in stmts {
            session.execute_stmt(stmt).unwrap();
        }
    }
    {
        let db = session.system().database(sym("Staff")).unwrap();
        let mut db = db.write();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        db.create_index(person, sym("Id")).unwrap();
    }
    // The three-level stack, bound and warm: what a database read must not
    // pay for.
    session.execute(&STACK_SCRIPTS.concat()).unwrap();
    session.propagate(sym("Staff"));
    session.focus(sym("Staff")).unwrap();

    let probe = "select P.Name from P in Person where P.Id = 4711;";
    let expected = ov_views::Outcome::Value(Value::set([Value::str("p4711")]));
    assert_eq!(session.execute(probe).unwrap(), [expected]);
    let t_parse_probe = time_ns(ITERS, || {
        std::hint::black_box(ov_query::parse_program(probe).unwrap());
    });
    let t_execute = time_ns(ITERS, || {
        std::hint::black_box(session.execute(probe).unwrap());
    });
    let stmts = ov_query::parse_program(probe).unwrap();
    let [ov_query::Stmt::Query(expr)] = stmts.as_slice() else {
        unreachable!("the probe is one query")
    };
    let t_run = {
        let db = session.system().database(sym("Staff")).unwrap();
        let db = db.read();
        time_ns(ITERS, || {
            std::hint::black_box(ov_query::run_expr(&*db, expr).unwrap());
        })
    };
    // The glue: what `Session::execute` costs beyond parsing the text and
    // running the expression.
    let t_glue = (t_execute - t_parse_probe - t_run).max(0.0);
    let t_hash = time_ns(ITERS, || {
        std::hint::black_box(ov_query::fingerprint_hash(expr));
    });
    let t_rendered = time_ns(ITERS, || {
        std::hint::black_box(ov_query::fingerprint_expr(expr));
    });
    ov_oodb::set_profiling(was_profiling);

    row("cell", &["ns per statement".into()]);
    row("parse/probe", &[tcell("parse", "probe", t_parse_probe)]);
    row("parse/insert", &[tcell("parse", "insert", t_parse_insert)]);
    row(
        "session/db_read",
        &[
            tcell("session", "db_read", t_glue),
            format!(
                "(execute {} - parse - run_expr {})",
                fmt_ns(t_execute),
                fmt_ns(t_run)
            ),
        ],
    );
    row("fingerprint/hash", &[tcell("fingerprint", "hash", t_hash)]);
    row(
        "fingerprint/rendered",
        &[tcell("fingerprint", "rendered", t_rendered)],
    );
}

/// The cold path of crash → recovery → first query, cell by cell: an
/// imaginary population through the row loop (cold, and as what the first
/// read after any write costs while the class is bound), the checksum
/// kernel, the snapshot read, `Database::open` of that snapshot plus a WAL
/// tail, and the first index probe after it. Data and view are shaped like
/// the end-to-end benchmark's (`ovbench`): 25 000 [`people`] over 8 cities
/// and 97 streets, `Household` the distinct `(City, Street)` of the
/// over-90s, a 2 000-record tail, and a key held by one object (`Name`,
/// as `ovbench` has `Id`) indexed on the three classes.
fn e21_cold_path() {
    header(
        "E21",
        "crash → recovery → first query: imaginary population, checksum, snapshot read, open, first probe",
    );
    const TAIL: usize = 2_000;
    const N: usize = 25_000;
    let was_profiling = ov_oodb::profiling_enabled();
    ov_oodb::set_profiling(false);
    let sys = people(N);
    let db = sys.database(sym("Staff")).unwrap();
    let homes = |materialization| {
        ViewDef::from_script(
            "create view Homes; import all classes from database Staff; \
             class Household includes imaginary \
               (select [City: P.City, Street: P.Street] from P in Person where P.Age >= 90);",
        )
        .unwrap()
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .materialization(materialization)
                .build(),
        )
        .bind()
        .unwrap()
    };

    // imaginary/cold: every read recomputes; the identity table is warm
    // after the first, as it is after recovery seeds the system's.
    let cold = homes(Materialization::AlwaysRecompute);
    let households = cold.extent_of(sym("Household")).unwrap().len();
    let t_cold = time_ns(8, || {
        std::hint::black_box(cold.extent_of(sym("Household")).unwrap());
    });

    // imaginary/write: one base write and the refresh the next read makes
    // (`View::refresh`, which `Session::propagate` calls). A delta does not
    // decide the class, so the refresh is a recompute through the same
    // loop.
    let eager = homes(Materialization::Incremental);
    eager.refresh().unwrap();
    let target = person_oids(&sys, 1)[0];
    let mut age = 0;
    let t_write = time_ns(8, || {
        age = (age + 1) % 80;
        db.write()
            .set_attr(target, sym("Age"), Value::Int(age))
            .unwrap();
        eager.refresh().unwrap();
    });
    assert_eq!(eager.stats().incremental_updates, 0, "opaque to deltas");

    // crc32/mib: the kernel behind every page and WAL frame.
    let mib: Vec<u8> = (0..1u32 << 20).map(|i| (i * 31 + 7) as u8).collect();
    let t_crc = time_ns(40, || {
        std::hint::black_box(ov_oodb::codec::crc32(std::hint::black_box(&mib)));
    });

    // snapshot/read: the same objects as a checkpoint writes them, then
    // page checksums, body copy and decode.
    let dir = std::env::temp_dir().join(format!("ov-e21-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut image = ov_oodb::pager::SnapshotImage::default();
    let person = {
        let db = db.read();
        image.name = sym("Staff");
        image.store_version = db.store.version();
        image.capture_schema(&db.schema);
        image.objects = db.store.iter().cloned().collect();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        let classes = std::iter::once(person).chain(db.schema.strict_descendants(person));
        image.index_defs = classes.map(|c| (c, sym("Name"))).collect();
        person
    };
    ov_oodb::pager::write_snapshot(&dir, &image).unwrap();
    let snapshot_bytes = std::fs::metadata(dir.join(ov_oodb::pager::SNAPSHOT_FILE))
        .unwrap()
        .len();
    let t_read = time_ns(8, || {
        let image = ov_oodb::pager::read_snapshot(&dir).unwrap().unwrap();
        assert_eq!(image.objects.len(), N);
        std::hint::black_box(image);
    });
    // snapshot/decode: that read's body decode alone.
    let body = image.encode();
    let t_decode = time_ns(8, || {
        let image = ov_oodb::pager::SnapshotImage::decode(&body).unwrap();
        assert_eq!(image.objects.len(), N);
        std::hint::black_box(image);
    });

    // database/open: that snapshot and a tail of `TAIL` logged writes.
    // Opening a log with no torn tail writes nothing, so every open reads
    // the same files.
    let open = || ov_oodb::Database::open(sym("Staff"), &dir, ov_oodb::Durability::Wal).unwrap();
    {
        let mut db = open();
        for (i, oid) in person_oids(&sys, TAIL).into_iter().enumerate() {
            db.set_attr(oid, sym("Age"), Value::Int(i as i64 % 100))
                .unwrap();
        }
        db.durable_core().unwrap().sync().unwrap();
    }
    let t_open = time_ns(8, || {
        std::hint::black_box(open());
    });
    // index/first_probe: the first deep lookup of a key after an open.
    let key = Value::str("p4711");
    let t_probe = (0..8)
        .map(|_| {
            let db = open();
            let t0 = std::time::Instant::now();
            let hits = db.indexed_deep_lookup(person, sym("Name"), &key).unwrap();
            let ns = t0.elapsed().as_nanos() as f64;
            assert_eq!(hits.len(), 1);
            ns
        })
        .fold(f64::INFINITY, f64::min);
    let _ = std::fs::remove_dir_all(&dir);
    ov_oodb::set_profiling(was_profiling);

    row("cell", &["time".into()]);
    row(
        "imaginary/cold",
        &[
            tcell("imaginary", "cold", t_cold),
            format!(
                "({N} rows, {households} households, {:.0} ns/row)",
                t_cold / N as f64
            ),
        ],
    );
    row("imaginary/write", &[tcell("imaginary", "write", t_write)]);
    row(
        "crc32/mib",
        &[
            tcell("crc32", "mib", t_crc),
            format!("({:.2} GB/s)", (1u64 << 20) as f64 / t_crc),
        ],
    );
    row(
        "snapshot/read",
        &[
            tcell("snapshot", "read", t_read),
            format!("({snapshot_bytes} B)"),
        ],
    );
    row(
        "snapshot/decode",
        &[
            tcell("snapshot", "decode", t_decode),
            format!("({:.0} ns/object)", t_decode / N as f64),
        ],
    );
    row(
        "database/open",
        &[
            tcell("database", "open", t_open),
            format!("({N} objects, {TAIL}-record tail)"),
        ],
    );
    row(
        "index/first_probe",
        &[
            tcell("index", "first_probe", t_probe),
            format!("({N} keys over 3 classes)"),
        ],
    );
    // A byte count is not a timing cell: a line under the table, as E18's.
    println!(
        "E21/snapshot/bytes_per_object {:.1} B ({} B body, {N} objects)",
        body.len() as f64 / N as f64,
        body.len()
    );
}

/// View `V{i}` of a chain stack: it imports `V{i-1}` (the database, for
/// `V1`) and declares `C{i}`, drawn from `C{i-1}` (`Person`, for `C1`).
fn chain_view(i: usize) -> ViewDef {
    let (from, class) = match i {
        1 => ("database Staff".to_string(), "Person".to_string()),
        _ => (format!("view V{}", i - 1), format!("C{}", i - 1)),
    };
    ViewDef::from_script(&format!(
        "create view V{i}; import all classes from {from}; \
         class C{i} includes (select X from X in {class} where X.Age > 0);"
    ))
    .unwrap()
}

/// One view `W` over the database with `n` classes: a chain, where `Q{i}`
/// selects from `Q{i-1}` (`Person`, for `Q1`), or `n` flat
/// specialisations of `Person`.
fn one_view(n: usize, chain: bool) -> ViewDef {
    let mut script = String::from("create view W; import all classes from database Staff;");
    for i in 1..=n {
        let from = match (chain, i) {
            (true, 2..) => format!("Q{}", i - 1),
            _ => "Person".to_string(),
        };
        script += &format!(" class Q{i} includes (select X from X in {from} where X.Age > {i});");
    }
    ViewDef::from_script(&script).unwrap()
}

fn e22_bind() {
    header(
        "E22",
        "binding costs what a view declares: one bind of a view's final definition",
    );
    row("levels", &["time".into(), "classes".into()]);
    let sys = people(100);
    for &k in &[20usize, 60] {
        let mut below: Vec<std::sync::Arc<ov_views::View>> = Vec::new();
        for i in 1..k {
            let view = chain_view(i).binder(&sys).over_all(&below).bind().unwrap();
            below = vec![std::sync::Arc::new(view)];
        }
        let top = chain_view(k);
        let mut classes = 0;
        let t = time_ns(8, || {
            let view = top.binder(&sys).over_all(&below).bind().unwrap();
            classes = view.class_names().len();
        });
        row(
            &format!("{k}/stack"),
            &[tcell(&k.to_string(), "stack", t), classes.to_string()],
        );
    }
    for (k, shape) in [(25, "chain"), (100, "chain"), (50, "flat"), (200, "flat")] {
        let def = one_view(k, shape == "chain");
        let mut classes = 0;
        let t = time_ns(4, || {
            let view = def.binder(&sys).bind().unwrap();
            classes = view.class_names().len();
        });
        row(
            &format!("{k}/{shape}"),
            &[tcell(&k.to_string(), shape, t), classes.to_string()],
        );
    }
}
