//! `point_query`: one round of eight statements that each take
//! microseconds. Parse, fingerprint and the plan cache are a large share
//! of every one; the scan loop and the store touch at most one row.

use std::path::Path;

use ov_oodb::Value;

use crate::calib::Calibrator;
use crate::model::{Model, Rng, Row};
use crate::setup::{self, Env};
use crate::steps::Step;
use crate::trace::Tracer;
use crate::workloads::{run_steps, OpSample, ProbeEnv, Totals, Workload};

pub struct PointQuery {
    env: Env,
}

impl PointQuery {
    pub fn setup(
        dir: &Path,
        n: usize,
        rng: &mut Rng,
        cal: &mut Calibrator,
    ) -> Result<PointQuery, String> {
        Ok(PointQuery {
            env: setup::build(dir, n, rng, cal, setup::incremental(), false)?,
        })
    }
}

const PROJ_ATTRS: [&str; 6] = ["Id", "Name", "Age", "City", "Street", "Income"];
const PROJ_NUMS: [&str; 4] = ["P.Id", "P.Age", "P.Income", "P.Age + P.Income"];
const PROJ_ARITH: [&str; 4] = ["", "+", "-", "*"];
/// Second conjuncts that hold for every row, one per comparison operator.
const ALWAYS: [&str; 4] = [
    "P.Age >= 0",
    "P.Age <= 1000",
    "P.Age < 1000",
    "P.Age != 1000",
];

/// Distinct fingerprints the expression-projection probes draw from: the
/// plan cache's working set on this workload.
pub const FINGERPRINT_POOL: u64 =
    (PROJ_ATTRS.len() * PROJ_NUMS.len() * PROJ_ARITH.len() * ALWAYS.len()) as u64;

fn attr_value(r: &Row, attr: &str) -> Value {
    match attr {
        "Id" => Value::Int(r.id),
        "Name" => Value::str(&r.name()),
        "Age" => Value::Int(r.age),
        "City" => Value::str(r.city()),
        "Street" => Value::str(&r.street()),
        "Income" => Value::Int(r.income),
        other => unreachable!("no attribute {other}"),
    }
}

/// The `shape`-th probe of the pool (`shape < FINGERPRINT_POOL`) for row
/// `r`, with arithmetic constant `c`.
pub fn shaped_probe(r: &Row, shape: u64, c: i64) -> Step {
    let mut s = shape as usize;
    let attr = PROJ_ATTRS[s % PROJ_ATTRS.len()];
    s /= PROJ_ATTRS.len();
    let num = s % PROJ_NUMS.len();
    s /= PROJ_NUMS.len();
    let arith = PROJ_ARITH[s % PROJ_ARITH.len()];
    s /= PROJ_ARITH.len();
    let always = ALWAYS[s % ALWAYS.len()];

    let base = match num {
        0 => r.id,
        1 => r.age,
        2 => r.income,
        _ => r.age + r.income,
    };
    let (b_text, b_val) = match arith {
        "" => (PROJ_NUMS[num].to_string(), base),
        "+" => (format!("{} + {c}", PROJ_NUMS[num]), base + c),
        "-" => (format!("{} - {c}", PROJ_NUMS[num]), base - c),
        _ => (format!("({}) * {c}", PROJ_NUMS[num]), base * c),
    };
    Step::query(
        "Staff",
        format!(
            "select [A: P.{attr}, B: {b_text}] from P in Person where P.Id = {} and {always};",
            r.id
        ),
        Value::set([Value::tuple([
            ("A", attr_value(r, attr)),
            ("B", Value::Int(b_val)),
        ])]),
    )
}

fn plain_probe(r: &Row) -> Step {
    Step::query(
        "Staff",
        format!("select P.Name from P in Person where P.Id = {};", r.id),
        Value::set([Value::str(&r.name())]),
    )
}

pub fn round(model: &Model, rng: &mut Rng) -> Vec<Step> {
    let boss = &model.rows[0];
    let mut steps = Vec::with_capacity(8);
    for _ in 0..2 {
        steps.push(plain_probe(&model.rows[model.pick_live(rng)]));
    }
    for _ in 0..2 {
        let r = &model.rows[model.pick_live(rng)];
        steps.push(shaped_probe(
            r,
            rng.below(FINGERPRINT_POOL),
            rng.range(1, 10),
        ));
    }
    for _ in 0..2 {
        steps.push(Step::query(
            "Top",
            "boss.Address.City;".to_string(),
            Value::str(boss.city()),
        ));
    }
    for _ in 0..2 {
        let senior = rng.range(60, 70);
        steps.push(Step::query(
            "Top",
            format!(
                "[N: boss.Name, Senior: boss.Age >= {senior}, Pay: boss.Salary + boss.Income];"
            ),
            Value::tuple([
                ("N", Value::str(&boss.name())),
                ("Senior", Value::Bool(boss.age >= senior)),
                ("Pay", Value::Int(boss.salary + boss.income)),
            ]),
        ));
    }
    steps
}

impl Workload for PointQuery {
    fn run_op(
        &mut self,
        rng: &mut Rng,
        tracer: Option<&mut Tracer>,
        cal: &mut Calibrator,
    ) -> OpSample {
        let steps = round(&self.env.model, rng);
        // Every statement touches one object.
        run_steps(
            &mut self.env.session,
            &steps,
            tracer,
            cal,
            steps.len() as u64,
        )
        .0
    }

    fn totals(&self) -> Totals {
        self.env.totals()
    }

    fn space(&self) -> (u64, u64) {
        self.env.space()
    }

    fn sample_steps(&mut self, rng: &mut Rng) -> Vec<Step> {
        round(&self.env.model, rng)
    }

    fn probe_env(&mut self) -> Result<ProbeEnv<'_>, String> {
        Ok(self.env.probe_env())
    }
}
