//! `recover_first_query`: open a crash image, then run the first queries.
//!
//! Set-up loads the dataset, populates `Elite` and `Household`,
//! checkpoints, applies a tail of further writes while recording the WAL
//! length after each acknowledged one, and freezes a *crash image*: a copy
//! of the session directory with the WAL cut at a seeded byte offset
//! inside that tail. Killing a process leaves the operating system's cache
//! intact, so the cut is how the test itself discards unflushed bytes.
//! Each operation recovers a fresh copy of the image and must see exactly
//! the state after the largest acknowledged prefix at or below the cut.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ov_oodb::{sym, Oid, Value};
use ov_views::{Outcome, Session, ViewOptions};

use crate::calib::Calibrator;
use crate::model::{Model, Rng, Row, Write};
use crate::setup;
use crate::steps::{exec_steps, Step};
use crate::trace::Tracer;
use crate::workloads::{OpSample, ProbeEnv, Totals, Workload};

const DB_DIR: &str = "databases/Staff";
const IDENTITY_QUERY: &str = "select [O: H, C: H.City, S: H.Street] from H in Household;";

type Identity = BTreeMap<(String, String), Oid>;

pub struct Recover {
    image: PathBuf,
    work: PathBuf,
    /// The model at the recovered prefix: what every recovery must show.
    model: Model,
    elite: i64,
    households: i64,
    /// `Household` oids assigned before the crash, by core tuple.
    identity: Identity,
    totals: Totals,
    probe: Option<Session>,
}

/// Writes in the tail: a tenth of the dataset, at most 5000.
pub fn tail_len(n: usize) -> usize {
    (n / 10).clamp(10, 5000)
}

/// How many acknowledged writes survive a WAL cut at `offset`, given the
/// WAL length recorded after each: the largest prefix that ends at or
/// before the cut.
pub fn surviving_prefix(wal_len_after: &[u64], offset: u64) -> usize {
    wal_len_after.partition_point(|&len| len <= offset)
}

fn identity_of(session: &mut Session) -> Result<Identity, String> {
    session.focus(sym("Homes")).map_err(|e| e.to_string())?;
    let outcome = setup::run(session, IDENTITY_QUERY)?;
    let Some(Outcome::Value(Value::Set(set))) = outcome.into_iter().next() else {
        return Err("identity query did not return a set".into());
    };
    let mut map = Identity::new();
    for v in &set {
        let t = v.as_tuple().ok_or("identity row is not a tuple")?;
        let field = |name: &str| t.get(sym(name)).ok_or(format!("identity row lacks {name}"));
        let oid = field("O")?.as_oid().ok_or("O is not an oid")?;
        let city = field("C")?.as_str().ok_or("C is not a string")?;
        let street = field("S")?.as_str().ok_or("S is not a string")?;
        map.insert((city.to_string(), street.to_string()), oid);
    }
    Ok(map)
}

impl Recover {
    pub fn setup(
        dir: &Path,
        n: usize,
        rng: &mut Rng,
        cal: &mut Calibrator,
    ) -> Result<Recover, String> {
        let live = dir.join("live");
        // The writer runs with `ovq`'s default, lazy materialization: with
        // `Homes` bound, eager propagation would recompute the imaginary
        // class in full on every tail write. The WAL it leaves is the same.
        let mut env = setup::build(&live, n, rng, cal, ViewOptions::default(), true)?;
        let identity = identity_of(&mut env.session)?;
        env.session.checkpoint().map_err(|e| e.to_string())?;

        env.session.focus(sym("Staff")).map_err(|e| e.to_string())?;
        let base = env.model.clone();
        let mut tail: Vec<Write> = Vec::new();
        let mut wal_len_after: Vec<u64> = Vec::new();
        for _ in 0..tail_len(n) {
            let write = env.model.random_write(rng);
            let text = env.model.write_stmt(&write);
            let mut write = write;
            let idx = env.model.apply(&write);
            let outcome = setup::run(&mut env.session, &text)?;
            if let (Some(Outcome::Value(Value::Oid(oid))), Write::Insert(row)) =
                (outcome.first(), &mut write)
            {
                env.model.rows[idx].oid = *oid;
                row.oid = *oid;
            }
            let wal: u64 = env
                .session
                .wal_status()
                .iter()
                .map(|(_, s)| s.wal_bytes)
                .sum();
            tail.push(write);
            wal_len_after.push(wal);
            cal.tick();
        }
        drop(env);

        let wal_end = *wal_len_after.last().expect("a non-empty tail");
        let cut_from = wal_len_after[tail.len() * 4 / 5];
        let offset = cut_from + rng.below(wal_end - cut_from + 1);
        let survivors = surviving_prefix(&wal_len_after, offset);

        let image = dir.join("image");
        setup::copy_tree(&live, &image).map_err(|e| format!("copying image: {e}"))?;
        std::fs::OpenOptions::new()
            .write(true)
            .open(image.join(DB_DIR).join("wal.ovl"))
            .and_then(|f| f.set_len(offset))
            .map_err(|e| format!("cutting the WAL: {e}"))?;
        let _ = std::fs::remove_dir_all(&live);

        let mut model = base;
        for w in &tail[..survivors] {
            model.apply(w);
        }
        Ok(Recover {
            image,
            work: dir.join("work"),
            elite: model.count(Row::elite) as i64,
            households: model.households().len() as i64,
            model,
            identity,
            totals: Totals::default(),
            probe: None,
        })
    }

    fn first_queries(&self) -> Vec<Step> {
        vec![
            Step::query("Top", "count(Elite);".to_string(), Value::Int(self.elite)),
            Step::query(
                "Homes",
                "count(Household);".to_string(),
                Value::Int(self.households),
            ),
        ]
    }

    fn fresh_copy(&self) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.work);
        setup::copy_tree(&self.image, &self.work).map_err(|e| format!("copying image: {e}"))
    }

    /// §5.1: every `Household` whose core tuple had an oid before the
    /// crash has the same oid, bit for bit, after recovery.
    fn identity_stable(&self, session: &mut Session) -> bool {
        let Ok(now) = identity_of(session) else {
            return false;
        };
        now.len() as i64 == self.households
            && now
                .iter()
                .all(|(core, oid)| self.identity.get(core).is_none_or(|old| old == oid))
    }

    /// The recovery path as separate public calls on a second copy of the
    /// image, each under its own root span.
    fn isolated_recovery(&self, t: &mut Tracer) -> Result<(), String> {
        self.fresh_copy()?;
        let db_dir = self.work.join(DB_DIR);
        t.span("pager.read_snapshot", |_| {
            std::hint::black_box(ov_oodb::pager::read_snapshot(&db_dir).is_ok());
        });
        t.span("wal.open", |_| {
            std::hint::black_box(ov_oodb::Wal::open(&db_dir.join("wal.ovl")).is_ok());
        });
        let (db, _) = t.span("database.open", |_| {
            ov_oodb::Database::open(sym("Staff"), &db_dir, ov_oodb::Durability::Wal)
        });
        let mut system = ov_oodb::System::new();
        system
            .add_database(db.map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let def = ov_views::ViewDef::from_script(setup::ADULTS_VIEW).map_err(|e| e.to_string())?;
        t.span("view.bind", |_| {
            std::hint::black_box(
                def.binder(&system)
                    .options(setup::incremental())
                    .bind()
                    .is_ok(),
            );
        });
        Ok(())
    }
}

impl Workload for Recover {
    fn run_op(
        &mut self,
        _rng: &mut Rng,
        mut tracer: Option<&mut Tracer>,
        cal: &mut Calibrator,
    ) -> OpSample {
        let mut sample = OpSample::default();
        if self.fresh_copy().is_err() {
            return sample;
        }
        let steps = self.first_queries();
        let opened = match tracer.as_deref_mut() {
            None => {
                let t0 = Instant::now();
                let s = setup::open(&self.work, setup::incremental());
                (s, t0.elapsed().as_nanos() as u64)
            }
            Some(t) => {
                t.next_op();
                t.span("session.open", |_| {
                    setup::open(&self.work, setup::incremental())
                })
            }
        };
        let (Ok(mut session), open_ns) = opened else {
            return sample;
        };
        let runs = exec_steps(&mut session, &steps, tracer.as_deref_mut(), cal);
        let query_ns: u64 = runs.iter().map(|r| r.ns).sum();
        sample.ns = open_ns + query_ns;
        sample.parts = [open_ns, query_ns];
        // Both cold populations scan the whole `Person` extent.
        sample.rows = 2 * self.model.live_count() as u64;
        sample.ok = steps.iter().zip(&runs).all(|(s, r)| r.ok(&s.expect))
            && self.identity_stable(&mut session);
        self.totals.add_session(&session);
        drop(session);
        if let Some(t) = tracer {
            sample.ok &= self.isolated_recovery(t).is_ok();
        }
        sample
    }

    fn totals(&self) -> Totals {
        self.totals
    }

    fn space(&self) -> (u64, u64) {
        (setup::disk_bytes(&self.image), self.model.user_bytes())
    }

    fn sample_steps(&mut self, _rng: &mut Rng) -> Vec<Step> {
        self.first_queries()
    }

    fn probe_env(&mut self) -> Result<ProbeEnv<'_>, String> {
        if self.probe.is_none() {
            self.fresh_copy()?;
            self.probe = Some(setup::open(&self.work, setup::incremental())?);
        }
        Ok(ProbeEnv {
            session: self.probe.as_mut().expect("just opened"),
            model: &mut self.model,
            data_dir: &self.image,
        })
    }
}
