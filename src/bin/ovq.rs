//! `ovq` — an interactive shell for objects-and-views.
//!
//! ```text
//! cargo run --bin ovq
//! cargo run --bin ovq -- path/to/script.ovq     # run a script, then prompt
//! cargo run --bin ovq -- --batch script.ovq     # run a script and exit
//! cargo run --bin ovq -- --data-dir DIR         # durable session rooted at DIR
//! cargo run --bin ovq -- --data-dir DIR --durability walsync
//! ```
//!
//! `--data-dir` opens (or creates) a durable session: every database lives
//! under `DIR/databases/<name>/` with a write-ahead log and snapshot
//! checkpoints, and view definitions persist in `DIR/views.ovq`.
//! `--durability` picks the commit level (`none`, `wal` — the default with
//! `--data-dir` — or `walsync`). A saved view that no longer binds does not
//! stop the open: the shell prints `-- view V is unbound: CAUSE` for it
//! (and for each view stacked on it), keeps its definition in `views.ovq`,
//! and lists it in `.schema`; `create view V;` replaces it.
//!
//! Statements end with `;` and may span lines. Meta commands:
//!
//! | command | effect |
//! |---|---|
//! | `.help` | this table |
//! | `.schema` | databases, classes, views in the session (unbound ones with their cause) |
//! | `.use NAME` | focus a database or view |
//! | `.load FILE` | execute a script file |
//! | `.dump DB` | print a database as DDL |
//! | `.explain T Q` | plan + trace of query `Q` against database/view `T` |
//! | `.analyze T Q` | EXPLAIN ANALYZE: measured trace + result of `Q` against `T` |
//! | `.plan V C` | population plan of virtual class `C` of view `V` |
//! | `.metrics [FILE]` | process-wide metrics snapshot as JSON |
//! | `.workload …` | per-fingerprint workload profile (see `.help`) |
//! | `.slowlog …` | slow-query log with annotated traces (see `.help`) |
//! | `.stats [C]` | optimizer statistics (cardinality, NDV, min/max, nulls) |
//! | `.trace on\|off\|dump FILE` | flight recorder control + Chrome-trace export |
//! | `.faults …` | fault-injection control (see `.help`) |
//! | `.budget …` | per-statement execution budget (see `.help`) |
//! | `.planner …` | cost-based planner switch and plan-cache counters (see `.help`) |
//! | `.wal` | per-database WAL status (durable sessions) |
//! | `.checkpoint` | snapshot every durable database, truncate WALs |
//! | `.quit` | exit |

use std::io::{BufRead, Write};
use std::sync::Arc;

use objects_and_views::oodb::faults;
use objects_and_views::prelude::*;
use objects_and_views::query::Budget;

/// The `.help` table, as a const so tests can assert every meta command
/// documents itself.
const HELP: &str = "\
.help            this help\n\
.schema          databases, classes and views (an unbound view\n\
                 with why it does not bind)\n\
.use NAME        focus a database or view\n\
.load FILE       execute a script file\n\
.dump DB         print a database as DDL\n\
.views           print every view definition as DDL\n\
.save [FILE]     serialize the whole session as a script\n\
.explain T Q     plan + trace of query Q against T\n\
.analyze T Q     EXPLAIN ANALYZE: run Q against T, print the measured\n\
                 trace (per-scan actuals, engine, fingerprint) + result\n\
.plan V C        population plan of virtual class C of view V\n\
.metrics [FILE]  process-wide metrics snapshot as JSON\n\
.workload        per-fingerprint workload aggregates (needs `.workload on`)\n\
.workload on|off|clear\n\
                 toggle the profiler / reset the registry\n\
.slowlog         captured slow queries with their annotated traces\n\
.slowlog ms N | clear\n\
                 set the slow threshold (milliseconds) / empty the ring\n\
.stats [CLASS]   optimizer statistics: cardinality, NDV, min/max, nulls\n\
.trace on|off    enable/disable the span flight recorder\n\
.trace dump FILE write recorded spans to FILE (Chrome trace\n\
                 JSON; .jsonl suffix selects JSON-lines)\n\
.trace clear     discard recorded spans\n\
.trace           recorder status\n\
.faults          armed failpoints and hit/fired counts\n\
.faults sites    failpoint sites compiled into the pipeline\n\
.faults seed N   seed the fault RNG streams\n\
.faults arm SITE SCHED ACTION\n\
                 SCHED: nth:N | from:N | p:0.5\n\
                 ACTION: error | panic | delay:MS\n\
.faults disarm SITE | .faults clear\n\
.budget          current per-statement budget\n\
.budget ms N | steps N | rows N | depth N | off\n\
                 (a step: a row a loop binds, or a computed body run)\n\
.planner         cost-based planner status + plan-cache hit/miss/replan counts\n\
.planner on|off  enable/disable statistics-driven strategy selection\n\
.wal             per-database WAL status (durable sessions only)\n\
.checkpoint      snapshot every durable database and truncate its WAL\n\
.quit            exit\n\
\n\
Anything else is a statement (end with `;`):\n\
database D;  class C type [X: integer];  create view V;\n\
import all classes from database D;\n\
class Adult includes (select P from Person where P.Age >= 21);\n\
select A.Name from A in Adult;";

/// The failpoint sites compiled into the pipeline, for `.faults arm` name
/// validation (the registry needs `&'static str` names anyway).
const FAULT_SITES: &[&str] = &[
    "store.insert",
    "store.update",
    "store.set_field",
    "store.remove",
    "store.index_lookup",
    "store.changes_since",
    "view.population_recompute",
    "view.bind",
    "wal.append",
    "wal.torn_write",
    "wal.fsync",
    "checkpoint.write",
    "checkpoint.rename",
];

/// Budget knobs applied to every subsequent statement (each statement gets
/// a *fresh* `Budget` built from these, so limits don't accumulate).
#[derive(Clone, Copy, Default)]
struct BudgetSpec {
    deadline_ms: Option<u64>,
    max_steps: Option<u64>,
    max_rows: Option<u64>,
    max_depth: Option<usize>,
}

impl BudgetSpec {
    fn is_off(&self) -> bool {
        self.deadline_ms.is_none()
            && self.max_steps.is_none()
            && self.max_rows.is_none()
            && self.max_depth.is_none()
    }

    fn build(&self) -> Budget {
        let mut b = Budget::new();
        if let Some(ms) = self.deadline_ms {
            b = b.with_deadline_ms(ms);
        }
        if let Some(n) = self.max_steps {
            b = b.with_max_steps(n);
        }
        if let Some(n) = self.max_rows {
            b = b.with_max_rows(n);
        }
        if let Some(n) = self.max_depth {
            b = b.with_max_depth(n);
        }
        b
    }
}

fn main() {
    let mut budget = BudgetSpec::default();
    let mut batch = false;
    let mut scripts = Vec::new();
    let mut data_dir: Option<String> = None;
    let mut durability: Option<Durability> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--batch" => batch = true,
            "--data-dir" => match args.next() {
                Some(dir) => data_dir = Some(dir),
                None => {
                    eprintln!("--data-dir needs a directory argument");
                    std::process::exit(2);
                }
            },
            "--durability" => match args.next().as_deref().and_then(Durability::parse) {
                Some(d) => durability = Some(d),
                None => {
                    eprintln!("--durability needs one of: none, wal, walsync");
                    std::process::exit(2);
                }
            },
            _ => scripts.push(arg),
        }
    }
    if durability.is_some() && data_dir.is_none() {
        eprintln!("--durability needs --data-dir (in-memory sessions have no WAL)");
        std::process::exit(2);
    }
    let mut session = match &data_dir {
        Some(dir) => {
            let level = durability.unwrap_or(Durability::Wal);
            match Session::open(std::path::Path::new(dir), level) {
                Ok(s) => {
                    println!(
                        "-- durable session at {dir} (durability {})",
                        level.as_str()
                    );
                    for unbound in s.unbound_views() {
                        println!("-- view {} is unbound: {}", unbound.def.name, unbound.cause);
                    }
                    s
                }
                Err(e) => {
                    eprintln!("error opening durable session at {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => Session::new(),
    };
    for path in &scripts {
        if let Err(e) = load_file(&mut session, path) {
            eprintln!("error loading {path}: {e}");
            std::process::exit(1);
        }
    }
    if batch {
        return;
    }

    println!("ovq — Objects and Views (SIGMOD 1991) shell. `.help` for help.");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("ovq> ");
        } else {
            print!("...> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            if !meta(&mut session, &mut budget, trimmed) {
                break;
            }
            continue;
        }
        buffer.push_str(&line);
        // Execute once the statement terminator is present.
        if trimmed.ends_with(';') {
            run(&mut session, &budget, &buffer);
            buffer.clear();
        }
    }
}

/// Handles a meta command; returns false to exit.
fn meta(session: &mut Session, budget: &mut BudgetSpec, cmd: &str) -> bool {
    let mut parts = cmd.splitn(2, ' ');
    let head = parts.next().unwrap_or("");
    let arg = parts.next().unwrap_or("").trim();
    match head {
        ".quit" | ".exit" => return false,
        ".help" => println!("{HELP}"),
        ".schema" => print!("{}", session.describe()),
        ".views" => {
            for name in session.view_names() {
                if let Some(script) = session.view_script(name) {
                    print!("{script}");
                }
            }
        }
        ".use" => match session.focus(sym(arg)) {
            Ok(Outcome::Notice(n)) => println!("{n}"),
            Ok(_) => {}
            Err(e) => eprintln!("error: {e}"),
        },
        ".load" => {
            if let Err(e) = load_file(session, arg) {
                eprintln!("error: {e}");
            }
        }
        ".explain" => {
            let mut parts = arg.splitn(2, ' ');
            let target = parts.next().unwrap_or("");
            let q = parts.next().unwrap_or("");
            if target.is_empty() || q.is_empty() {
                eprintln!("usage: .explain TARGET QUERY");
            } else {
                match session.explain(sym(target), q) {
                    Ok(text) => print!("{text}"),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
        }
        ".analyze" => {
            let mut parts = arg.splitn(2, ' ');
            let target = parts.next().unwrap_or("");
            let q = parts.next().unwrap_or("");
            if target.is_empty() || q.is_empty() {
                eprintln!("usage: .analyze TARGET QUERY");
            } else {
                match session.analyze(sym(target), q) {
                    Ok(text) => print!("{text}"),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
        }
        ".workload" => {
            use objects_and_views::oodb::{profiling_enabled, set_profiling, workload};
            match arg {
                "on" => {
                    set_profiling(true);
                    println!("-- profiling on (queries now feed .workload/.slowlog/.stats)");
                }
                "off" => {
                    set_profiling(false);
                    println!("-- profiling off");
                }
                "clear" => {
                    workload().clear();
                    println!("-- workload registry cleared");
                }
                "" => {
                    if !profiling_enabled() {
                        println!("-- profiling is off (`.workload on` to start recording)");
                    }
                    let entries = workload().snapshot();
                    if entries.is_empty() {
                        println!("-- no workload recorded");
                    }
                    for (fp, e) in entries {
                        let lat = e.latency.snapshot();
                        println!(
                            "{fp} calls={} rows={} mean={} p95={} compiled={} interp={} \
                             plan={}h/{}m pop[hit={} delta={} recompute={} stale={}]\n  {}",
                            e.calls.get(),
                            e.rows.get(),
                            objects_and_views::query::plan::fmt_ns(lat.mean() as u64),
                            objects_and_views::query::plan::fmt_ns(lat.p95()),
                            e.compiled.get(),
                            e.interpreted.get(),
                            e.plan_cache_hits.get(),
                            e.plan_cache_misses.get(),
                            e.pop_cache_hits.get(),
                            e.pop_deltas.get(),
                            e.pop_recomputes.get(),
                            e.pop_stale_serves.get(),
                            e.normalized,
                        );
                    }
                }
                other => eprintln!("unknown `.workload {other}` (try on, off, clear)"),
            }
        }
        ".slowlog" => {
            use objects_and_views::oodb::slow_queries;
            let mut parts = arg.split_whitespace();
            match (parts.next().unwrap_or(""), parts.next()) {
                ("", None) => {
                    let log = slow_queries();
                    let entries = log.entries();
                    println!(
                        "-- slow-query threshold {}; {} captured",
                        objects_and_views::query::plan::fmt_ns(log.threshold_ns()),
                        entries.len()
                    );
                    for e in entries {
                        println!(
                            "[{} fp={}] {}",
                            objects_and_views::query::plan::fmt_ns(e.nanos),
                            e.fingerprint,
                            e.query.trim()
                        );
                        for line in e.trace.lines() {
                            println!("  {line}");
                        }
                    }
                }
                ("clear", None) => {
                    slow_queries().clear();
                    println!("-- slow-query log cleared");
                }
                ("ms", Some(v)) => match v.parse::<u64>() {
                    Ok(ms) => {
                        slow_queries().set_threshold_ns(ms.saturating_mul(1_000_000));
                        println!("-- slow-query threshold = {ms}ms");
                    }
                    Err(_) => eprintln!("error: `{v}` is not a number"),
                },
                _ => eprintln!("usage: .slowlog [ms N | clear]"),
            }
        }
        ".stats" => {
            let snap = objects_and_views::oodb::stats().snapshot();
            let filter = if arg.is_empty() { None } else { Some(sym(arg)) };
            let mut shown = 0usize;
            for (class, cs) in &snap.classes {
                if filter.is_some_and(|f| f != *class) {
                    continue;
                }
                shown += 1;
                println!(
                    "{class}: cardinality={} (generation {})",
                    cs.cardinality.map_or("-".into(), |n| n.to_string()),
                    cs.generation
                );
                for (attr, a) in &cs.attrs {
                    println!(
                        "  .{attr} rows={} ndv={} nulls={:.2} min={} max={}",
                        a.rows,
                        a.ndv,
                        a.null_fraction,
                        a.min.as_ref().map_or("-".into(), |v| v.to_string()),
                        a.max.as_ref().map_or("-".into(), |v| v.to_string()),
                    );
                }
            }
            if shown == 0 {
                println!(
                    "-- no statistics{} (run queries with `.workload on`)",
                    filter.map_or(String::new(), |f| format!(" for {f}"))
                );
            }
        }
        ".plan" => {
            let mut parts = arg.splitn(2, ' ');
            let view = parts.next().unwrap_or("");
            let class = parts.next().unwrap_or("").trim();
            if view.is_empty() || class.is_empty() {
                eprintln!("usage: .plan VIEW CLASS");
            } else {
                match session.explain_population(sym(view), sym(class)) {
                    Ok(text) => print!("{text}"),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
        }
        ".metrics" => {
            let json = objects_and_views::oodb::registry().snapshot().to_json();
            if arg.is_empty() {
                print!("{json}");
            } else {
                match std::fs::write(arg, &json) {
                    Ok(()) => println!("-- metrics written to {arg}"),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
        }
        ".trace" => {
            let oodb = || objects_and_views::oodb::recorder();
            let mut parts = arg.splitn(2, ' ');
            let sub = parts.next().unwrap_or("");
            let file = parts.next().unwrap_or("").trim();
            match sub {
                "on" => {
                    objects_and_views::oodb::trace::set_enabled(true);
                    println!("-- tracing on");
                }
                "off" => {
                    objects_and_views::oodb::trace::set_enabled(false);
                    println!("-- tracing off");
                }
                "clear" => {
                    oodb().clear();
                    println!("-- trace buffer cleared");
                }
                "dump" => {
                    if file.is_empty() {
                        eprintln!("usage: .trace dump FILE");
                    } else {
                        let rec = oodb();
                        let out = if file.ends_with(".jsonl") {
                            rec.dump_jsonl()
                        } else {
                            rec.dump_chrome_trace()
                        };
                        match std::fs::write(file, &out) {
                            Ok(()) => println!(
                                "-- {} spans from {} threads written to {file}",
                                rec.snapshot().len(),
                                rec.thread_count()
                            ),
                            Err(e) => eprintln!("error: {e}"),
                        }
                    }
                }
                "" => {
                    let rec = oodb();
                    println!(
                        "-- tracing {}: {} spans buffered, {} threads, {} dropped",
                        if objects_and_views::oodb::trace::enabled() {
                            "on"
                        } else {
                            "off"
                        },
                        rec.snapshot().len(),
                        rec.thread_count(),
                        rec.dropped()
                    );
                }
                other => eprintln!("unknown `.trace {other}` (try on, off, dump FILE, clear)"),
            }
        }
        ".faults" => {
            let mut parts = arg.split_whitespace();
            match parts.next().unwrap_or("") {
                "" => {
                    let status = faults::status();
                    if status.is_empty() {
                        println!("-- no failpoints armed");
                    } else {
                        for (site, hits, fired) in status {
                            println!("{site}: {hits} hits, {fired} fired");
                        }
                    }
                }
                "sites" => {
                    for site in FAULT_SITES {
                        println!("{site}");
                    }
                }
                "seed" => match parts.next().and_then(|s| s.parse::<u64>().ok()) {
                    Some(seed) => {
                        faults::set_seed(seed);
                        println!("-- fault seed set to {seed} (affects sites armed from now on)");
                    }
                    None => eprintln!("usage: .faults seed N"),
                },
                "arm" => {
                    let site = parts.next().unwrap_or("");
                    let sched = parts.next().unwrap_or("");
                    let action = parts.next().unwrap_or("");
                    match parse_arm(site, sched, action) {
                        Ok((site, schedule, action)) => {
                            faults::arm(site, schedule, action);
                            println!("-- armed {site}");
                        }
                        Err(msg) => eprintln!("error: {msg}"),
                    }
                }
                "disarm" => match parts.next() {
                    Some(site) => {
                        faults::disarm(site);
                        println!("-- disarmed {site}");
                    }
                    None => eprintln!("usage: .faults disarm SITE"),
                },
                "clear" => {
                    faults::clear();
                    println!("-- all failpoints disarmed");
                }
                other => {
                    eprintln!("unknown `.faults {other}` (try sites, seed, arm, disarm, clear)")
                }
            }
        }
        ".budget" => {
            let mut parts = arg.split_whitespace();
            match (parts.next().unwrap_or(""), parts.next()) {
                ("", None) => {
                    if budget.is_off() {
                        println!("-- no budget (statements run unbounded)");
                    } else {
                        println!(
                            "-- per-statement budget: deadline={} steps={} rows={} depth={}",
                            budget.deadline_ms.map_or("-".into(), |v| format!("{v}ms")),
                            budget.max_steps.map_or("-".into(), |v| v.to_string()),
                            budget.max_rows.map_or("-".into(), |v| v.to_string()),
                            budget.max_depth.map_or("-".into(), |v| v.to_string()),
                        );
                    }
                }
                ("off", None) => {
                    *budget = BudgetSpec::default();
                    println!("-- budget off");
                }
                (knob @ ("ms" | "steps" | "rows" | "depth"), Some(v)) => match v.parse::<u64>() {
                    Ok(n) => {
                        match knob {
                            "ms" => budget.deadline_ms = Some(n),
                            "steps" => budget.max_steps = Some(n),
                            "rows" => budget.max_rows = Some(n),
                            _ => budget.max_depth = Some(n as usize),
                        }
                        println!("-- budget {knob} = {n} (fresh per statement)");
                    }
                    Err(_) => eprintln!("error: `{v}` is not a number"),
                },
                _ => eprintln!("usage: .budget [ms N | steps N | rows N | depth N | off]"),
            }
        }
        ".save" => {
            if arg.is_empty() {
                print!("{}", session.save());
            } else {
                match std::fs::write(arg, session.save()) {
                    Ok(()) => println!("-- saved to {arg}"),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
        }
        ".dump" => {
            match session.system().database(sym(arg)) {
                Ok(db) => print!("{}", objects_and_views::oodb::dump_database(&db.read())),
                Err(e) => eprintln!("error: {e}"),
            };
        }
        ".planner" => match arg {
            "on" | "off" => {
                // Session-scoped, not process-global: two shells (or a
                // shell and a library embedder) never race on it.
                session.set_planner(Some(arg == "on"));
                println!("-- planner: {arg}");
            }
            "" => {
                let (hits, misses, replans) =
                    objects_and_views::query::planner::plan_cache_counters();
                println!(
                    "-- planner: {} (plan cache: {hits} hits, {misses} misses, \
                     {replans} drift replans)",
                    if session
                        .planner()
                        .unwrap_or_else(objects_and_views::query::planner_enabled)
                    {
                        "on"
                    } else {
                        "off"
                    }
                );
            }
            _ => eprintln!("usage: .planner [on | off]"),
        },
        ".wal" => {
            let statuses = session.wal_status();
            if statuses.is_empty() {
                println!("-- no durable databases (start with `--data-dir DIR`)");
            } else {
                for (db, s) in statuses {
                    println!(
                        "-- {db}: durability {}, next lsn {}, {} records since checkpoint, \
                         {} wal bytes, {} identity entries ({})",
                        s.durability.as_str(),
                        s.next_lsn,
                        s.records_since_reset,
                        s.wal_bytes,
                        s.identity_entries,
                        s.dir.display(),
                    );
                }
            }
        }
        ".checkpoint" => match session.checkpoint() {
            Ok(0) => println!("-- nothing to checkpoint (no durable databases)"),
            Ok(n) => println!("-- checkpointed {n} database(s); WALs truncated"),
            Err(e) => eprintln!("error: {e}"),
        },
        other => eprintln!("unknown meta command `{other}` (try `.help`)"),
    }
    true
}

/// Validates a `.faults arm SITE SCHED ACTION` triple against the compiled
/// site list (the registry wants `&'static str` names, which conveniently
/// forces validation).
fn parse_arm(
    site: &str,
    sched: &str,
    action: &str,
) -> Result<(&'static str, faults::FaultSchedule, faults::FaultAction), String> {
    let site = FAULT_SITES
        .iter()
        .find(|s| **s == site)
        .copied()
        .ok_or_else(|| format!("unknown site `{site}` (see `.faults sites`)"))?;
    let schedule = if let Some(n) = sched.strip_prefix("nth:") {
        faults::FaultSchedule::Nth(n.parse().map_err(|_| format!("bad nth `{n}`"))?)
    } else if let Some(n) = sched.strip_prefix("from:") {
        faults::FaultSchedule::From(n.parse().map_err(|_| format!("bad from `{n}`"))?)
    } else if let Some(p) = sched.strip_prefix("p:") {
        let p: f64 = p.parse().map_err(|_| format!("bad probability `{p}`"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("probability {p} out of [0,1]"));
        }
        faults::FaultSchedule::Probability(p)
    } else {
        return Err(format!("bad schedule `{sched}` (nth:N, from:N, p:0.5)"));
    };
    let action = match action {
        "error" => faults::FaultAction::Error,
        "panic" => faults::FaultAction::Panic,
        _ => {
            let ms = action
                .strip_prefix("delay:")
                .and_then(|m| m.parse::<u64>().ok())
                .ok_or_else(|| format!("bad action `{action}` (error, panic, delay:MS)"))?;
            faults::FaultAction::Delay(std::time::Duration::from_millis(ms))
        }
    };
    Ok((site, schedule, action))
}

fn run(session: &mut Session, budget: &BudgetSpec, src: &str) {
    // Each statement gets a fresh budget so limits measure one statement,
    // not the whole session.
    let result = if budget.is_off() {
        session.execute(src)
    } else {
        objects_and_views::query::budget::with(Arc::new(budget.build()), || session.execute(src))
    };
    match result {
        Ok(outcomes) => {
            for o in outcomes {
                match o {
                    Outcome::Done => {}
                    Outcome::Value(v) => println!("{v}"),
                    Outcome::Notice(n) => println!("-- {n}"),
                }
            }
        }
        Err(e) => eprintln!("error: {e}"),
    }
}

fn load_file(session: &mut Session, path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    for o in session.execute(&text)? {
        match o {
            Outcome::Done => {}
            Outcome::Value(v) => println!("{v}"),
            Outcome::Notice(n) => println!("-- {n}"),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every meta command the shell dispatches documents itself in `.help`.
    #[test]
    fn help_documents_every_meta_command() {
        for cmd in [
            ".help",
            ".schema",
            ".use",
            ".load",
            ".dump",
            ".views",
            ".save",
            ".explain",
            ".analyze",
            ".plan",
            ".metrics",
            ".workload",
            ".slowlog",
            ".stats",
            ".trace",
            ".faults",
            ".budget",
            ".planner",
            ".wal",
            ".checkpoint",
            ".quit",
        ] {
            assert!(HELP.contains(cmd), "`.help` must document `{cmd}`");
        }
    }

    #[test]
    fn fault_arm_arguments_validate() {
        assert!(parse_arm("store.index_lookup", "nth:2", "error").is_ok());
        assert!(parse_arm("no.such.site", "nth:2", "error").is_err());
        assert!(parse_arm("store.index_lookup", "always", "error").is_err());
        assert!(parse_arm("store.index_lookup", "nth:2", "explode").is_err());
    }
}
