//! `write_propagate`: one write statement, then `count(Elite)` through
//! three stacked views. WAL append, store mutation, journal, delta retest
//! and a cache-hit extent copy: the same store and view layers as the
//! read workloads, used for writes beside reads.

use std::path::Path;
use std::time::Instant;

use ov_oodb::{sym, Value};
use ov_views::Outcome;

use crate::calib::Calibrator;
use crate::model::{Rng, Row, Write};
use crate::setup::{self, Env};
use crate::steps::{Expect, Step};
use crate::trace::Tracer;
use crate::workloads::{run_steps, OpSample, ProbeEnv, Totals, Workload};

pub struct WritePropagate {
    env: Env,
    elite: i64,
    /// When this pass's checkpoint falls due; `None` once it has run.
    checkpoint_due: Option<Instant>,
    wal_bytes: u64,
    user_bytes_written: u64,
    writes: u64,
}

impl WritePropagate {
    pub fn setup(
        dir: &Path,
        n: usize,
        rng: &mut Rng,
        cal: &mut Calibrator,
    ) -> Result<WritePropagate, String> {
        let env = setup::build(dir, n, rng, cal, setup::incremental(), false)?;
        let elite = env.model.count(Row::elite) as i64;
        Ok(WritePropagate {
            env,
            elite,
            checkpoint_due: None,
            wal_bytes: 0,
            user_bytes_written: 0,
            writes: 0,
        })
    }

    fn wal_len(&self) -> u64 {
        self.env
            .session
            .wal_status()
            .iter()
            .map(|(_, s)| s.wal_bytes)
            .sum()
    }
}

/// The write statement and the fresh read that follows it.
pub fn steps_for(text: String, is_insert: bool, elite_after: i64) -> Vec<Step> {
    vec![
        Step {
            focus: sym("Staff"),
            text,
            expect: if is_insert { Expect::Oid } else { Expect::Done },
        },
        Step::query("Top", "count(Elite);".to_string(), Value::Int(elite_after)),
    ]
}

impl Workload for WritePropagate {
    fn run_op(
        &mut self,
        rng: &mut Rng,
        tracer: Option<&mut Tracer>,
        cal: &mut Calibrator,
    ) -> OpSample {
        let write = self.env.model.random_write(rng);
        let text = self.env.model.write_stmt(&write);
        let user_bytes = write.user_bytes();
        let before = match &write {
            Write::Insert(_) => false,
            Write::SetAge { idx, .. } | Write::Delete { idx } => self.env.model.rows[*idx].elite(),
        };
        let idx = self.env.model.apply(&write);
        let after = self.env.model.rows[idx].elite();
        self.elite += after as i64 - before as i64;

        let steps = steps_for(text, matches!(write, Write::Insert(_)), self.elite);
        let wal_before = self.wal_len();
        let (mut sample, runs) = run_steps(
            &mut self.env.session,
            &steps,
            tracer,
            cal,
            self.elite as u64,
        );
        self.wal_bytes += self.wal_len().saturating_sub(wal_before);
        self.user_bytes_written += user_bytes;
        self.writes += 1;
        if let Some(Ok(Outcome::Value(Value::Oid(oid)))) = runs.first().map(|r| &r.outcome) {
            self.env.model.rows[idx].oid = *oid;
        }

        sample.parts = [runs[0].ns, runs[1].ns];
        // The checkpoint stalls the operation it lands on, as it would a
        // caller of an embedded library.
        if self.checkpoint_due.is_some_and(|due| Instant::now() >= due) {
            self.checkpoint_due = None;
            let t0 = Instant::now();
            sample.ok &= self.env.session.checkpoint().is_ok();
            sample.checkpoint_ns = t0.elapsed().as_nanos() as u64;
            sample.ns += sample.checkpoint_ns;
        }
        sample
    }

    /// One checkpoint per pass, due at mid-pass, so that every pass holds
    /// the same number of stalls however many operations it completes.
    fn start_pass(&mut self, seconds: f64) {
        self.checkpoint_due =
            Some(Instant::now() + std::time::Duration::from_secs_f64(seconds / 2.0));
    }

    fn totals(&self) -> Totals {
        Totals {
            wal_bytes: self.wal_bytes,
            user_bytes_written: self.user_bytes_written,
            writes: self.writes,
            ..self.env.totals()
        }
    }

    fn space(&self) -> (u64, u64) {
        self.env.space()
    }

    fn sample_steps(&mut self, rng: &mut Rng) -> Vec<Step> {
        let write = self.env.model.random_write(rng);
        steps_for(
            self.env.model.write_stmt(&write),
            matches!(write, Write::Insert(_)),
            self.elite,
        )
    }

    fn probe_env(&mut self) -> Result<ProbeEnv<'_>, String> {
        Ok(self.env.probe_env())
    }
}
