//! `view_scan`: one round of seven reads through `Top` and `Homes` over
//! warm populations. The scan loop, attribute resolution and store access
//! do nearly all the work; parse, fingerprint and plan are lost in it.

use std::collections::BTreeSet;
use std::path::Path;

use ov_oodb::Value;

use crate::calib::Calibrator;
use crate::model::{street_name, Model, Rng, CITIES};
use crate::setup::{self, Env};
use crate::steps::Step;
use crate::trace::Tracer;
use crate::workloads::{run_steps, OpSample, ProbeEnv, Totals, Workload};

pub struct ViewScan {
    env: Env,
}

impl ViewScan {
    pub fn setup(
        dir: &Path,
        n: usize,
        rng: &mut Rng,
        cal: &mut Calibrator,
    ) -> Result<ViewScan, String> {
        Ok(ViewScan {
            env: setup::build(dir, n, rng, cal, setup::incremental(), true)?,
        })
    }
}

/// One round's statements and the number of candidate-extent rows they
/// visit, with every expectation computed from the model's rows.
pub fn round(model: &Model, rng: &mut Rng) -> (Vec<Step>, u64) {
    let income = rng.range(150_000, 190_000);
    let young = rng.range(25, 35);
    let city = CITIES[rng.below(CITIES.len() as u64) as usize];
    let sum_age = rng.range(0, 50);
    let key = &model.rows[model.pick_live(rng)];
    let home_city = CITIES[rng.below(CITIES.len() as u64) as usize];

    let mut rich_cities = BTreeSet::new();
    let mut salaries = BTreeSet::new();
    let (mut adults, mut rich, mut employees, mut elite) = (0u64, 0u64, 0u64, 0u64);
    for r in model.live() {
        adults += r.adult() as u64;
        elite += r.elite() as u64;
        if r.rich() {
            rich += 1;
            rich_cities.insert(r.city());
        }
        if r.is_employee() {
            employees += 1;
            if r.age >= sum_age {
                salaries.insert(r.salary);
            }
        }
    }
    let households = model.households();
    let live = model.live_count() as u64;

    let steps = vec![
        // A stored predicate over a virtual class's population.
        Step::query(
            "Top",
            format!("select A.Name from A in Adult where A.Income >= {income};"),
            model.names_where(|r| r.adult() && r.income >= income),
        ),
        // Projecting the computed `Address` through two import levels.
        Step::query(
            "Top",
            "select R.Address.City from R in Rich;".to_string(),
            Value::set(rich_cities.into_iter().map(Value::str)),
        ),
        // A computed attribute in the predicate.
        Step::query(
            "Top",
            format!(
                "select P.Name from P in Person where P.Age < {young} and P.Address.City = \"{city}\";"
            ),
            model.names_where(|r| r.age < young && r.city() == city),
        ),
        // An aggregate over a subclass's deep extent. `select` yields a
        // set, so equal salaries count once.
        Step::query(
            "Top",
            format!("sum(select E.Salary from E in Employee where E.Age >= {sum_age});"),
            Value::Int(salaries.into_iter().sum()),
        ),
        // A unique-key probe: through a view it is a sequential scan.
        Step::query(
            "Top",
            format!("select P.Name from P in Person where P.Id = {};", key.id),
            Value::set([Value::str(&key.name())]),
        ),
        // The cached population at the top of the stack.
        Step::query("Top", "count(Elite);".to_string(), Value::Int(elite as i64)),
        // Imaginary objects.
        Step::query(
            "Homes",
            format!("select H.Street from H in Household where H.City = \"{home_city}\";"),
            Value::set(
                households
                    .iter()
                    .filter(|(c, _)| *c == home_city)
                    .map(|(_, s)| Value::str(&street_name(*s))),
            ),
        ),
    ];
    let rows = adults + rich + live + employees + live + elite + households.len() as u64;
    (steps, rows)
}

impl Workload for ViewScan {
    fn run_op(
        &mut self,
        rng: &mut Rng,
        tracer: Option<&mut Tracer>,
        cal: &mut Calibrator,
    ) -> OpSample {
        let (steps, rows) = round(&self.env.model, rng);
        run_steps(&mut self.env.session, &steps, tracer, cal, rows).0
    }

    fn totals(&self) -> Totals {
        self.env.totals()
    }

    fn space(&self) -> (u64, u64) {
        self.env.space()
    }

    fn sample_steps(&mut self, rng: &mut Rng) -> Vec<Step> {
        round(&self.env.model, rng).0
    }

    fn probe_env(&mut self) -> Result<ProbeEnv<'_>, String> {
        Ok(self.env.probe_env())
    }
}
