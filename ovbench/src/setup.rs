//! Building the dataset the way a user of `ovq` would: statement text
//! into `Session::execute` on a durable session.

use std::path::{Path, PathBuf};

use ov_oodb::{sym, Durability, Value};
use ov_views::{Materialization, Outcome, Session, ViewOptions};

use crate::calib::Calibrator;
use crate::model::{Model, Rng};
use crate::workloads::{ProbeEnv, Totals};

pub const SCHEMA: &str = "database Staff;
class Person type [Id: integer, Name: string, Age: integer, City: string, Street: string, Income: integer];
class Employee inherits Person type [Salary: integer];
class Manager inherits Employee type [Budget: integer];
";

/// The three-level view stack every workload reads through, bottom up.
pub const ADULTS_VIEW: &str = "create view Adults;
import all classes from database Staff;
attribute Address in class Person has value [City: self.City, Street: self.Street];
class Adult includes (select P from P in Person where P.Age >= 21);
";
pub const EARNERS_VIEW: &str = "create view Earners;
import all classes from view Adults;
class Rich includes (select A from A in Adult where A.Income >= 100000);
";
pub const TOP_VIEW: &str = "create view Top;
import all classes from view Earners;
class Elite includes (select R from R in Rich where R.Age >= 60);
hide attribute Street in class Person;
";
/// The stack's views in dependency order.
pub const STACK: [&str; 3] = ["Adults", "Earners", "Top"];

/// The imaginary-object view. Imaginary classes are not
/// delta-maintainable, so a session that binds it pays a full recompute
/// on every write; only `view_scan` and `recover_first_query` bind it.
pub const HOMES_VIEW: &str = "create view Homes;
import all classes from database Staff;
class Household includes imaginary (select [City: P.City, Street: P.Street] from P in Person where P.Age >= 90);
";

/// Inserts per `execute` call during loading.
const LOAD_SCRIPT_STMTS: usize = 1000;

pub fn incremental() -> ViewOptions {
    ViewOptions::builder()
        .materialization(Materialization::Incremental)
        .build()
}

pub fn open(dir: &Path, options: ViewOptions) -> Result<Session, String> {
    Session::open_with_options(dir, Durability::Wal, options).map_err(|e| format!("open: {e}"))
}

/// A loaded session, its shadow model, and where its files live.
pub struct Env {
    pub session: Session,
    pub model: Model,
    pub dir: PathBuf,
}

impl Env {
    /// The population counters of every view of the session, summed.
    pub fn totals(&self) -> Totals {
        let mut t = Totals::default();
        t.add_session(&self.session);
        t
    }

    /// `(bytes on disk, live user bytes)`.
    pub fn space(&self) -> (u64, u64) {
        (disk_bytes(&self.dir), self.model.user_bytes())
    }

    pub fn probe_env(&mut self) -> ProbeEnv<'_> {
        ProbeEnv {
            session: &mut self.session,
            model: &mut self.model,
            data_dir: &self.dir,
        }
    }
}

/// Loads `staff(n)` into a fresh durable session at `dir`, indexes
/// `Person.Id`, names row 0 `boss`, warms the statistics, binds the view
/// stack (and `Homes` when asked), and populates every virtual class so
/// the measured window starts warm. Ticks `cal` as it goes, so the caller
/// averages the machine's slowdown over the whole set-up.
pub fn build(
    dir: &Path,
    n: usize,
    rng: &mut Rng,
    cal: &mut Calibrator,
    options: ViewOptions,
    homes: bool,
) -> Result<Env, String> {
    let _ = std::fs::remove_dir_all(dir);
    // Sketches and cached plans are process-wide and keyed by bare class
    // name: leftovers from an earlier set-up in this process would skew
    // the planner's estimates.
    ov_oodb::stats().clear();
    ov_query::clear_plan_cache();
    let mut session = open(dir, options)?;
    let mut model = Model::staff(n, rng);
    run(&mut session, SCHEMA)?;
    let mut script = String::new();
    for chunk_start in (0..n).step_by(LOAD_SCRIPT_STMTS) {
        let chunk = chunk_start..(chunk_start + LOAD_SCRIPT_STMTS).min(n);
        script.clear();
        for row in &model.rows[chunk.clone()] {
            row.insert_stmt(&mut script);
        }
        let outcomes = run(&mut session, &script)?;
        cal.tick();
        for (row, outcome) in model.rows[chunk].iter_mut().zip(outcomes) {
            match outcome {
                Outcome::Value(Value::Oid(oid)) => row.oid = oid,
                other => return Err(format!("insert returned {other:?}")),
            }
        }
    }
    run(
        &mut session,
        &format!("name boss = #{};", model.rows[0].oid.0),
    )?;
    {
        let db = session
            .system()
            .database(sym("Staff"))
            .map_err(|e| e.to_string())?;
        let mut db = db.write();
        let person = db
            .schema
            .class_by_name(sym("Person"))
            .ok_or("class Person missing")?;
        db.create_index(person, sym("Id"))
            .map_err(|e| e.to_string())?;
    }
    // One profiled planner-off scan feeds the per-class sketches (the
    // index-pushdown path would bypass the sampling loop), so the planner
    // knows `Id` is unique before the first probe.
    let was_profiling = ov_oodb::profiling_enabled();
    ov_oodb::set_profiling(true);
    let warmed = ov_query::with_planner(false, || {
        run(
            &mut session,
            "select P.Id from P in Person where P.Id >= 0 and P.Age >= 0;",
        )
    });
    ov_oodb::set_profiling(was_profiling);
    warmed?;
    cal.tick();
    for view in [ADULTS_VIEW, EARNERS_VIEW, TOP_VIEW] {
        run(&mut session, view)?;
    }
    run(&mut session, "count(Adult); count(Rich); count(Elite);")?;
    if homes {
        run(&mut session, HOMES_VIEW)?;
        run(&mut session, "count(Household);")?;
    }
    Ok(Env {
        session,
        model,
        dir: dir.to_path_buf(),
    })
}

pub fn run(session: &mut Session, script: &str) -> Result<Vec<Outcome>, String> {
    session.execute(script).map_err(|e| {
        let head: String = script.chars().take(80).collect();
        format!("{e} (in `{head}…`)")
    })
}

/// Total size of the files a durable session keeps: every database's
/// snapshot and WAL plus `views.ovq`.
pub fn disk_bytes(root: &Path) -> u64 {
    fn walk(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => walk(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    }
    walk(root)
}

/// Copies a session directory tree (regular files and directories only).
pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}
