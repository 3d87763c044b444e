//! Tests that drive the real engine: the oracle and the program must
//! agree on every statement shape of every workload.

use std::collections::BTreeSet;
use std::path::PathBuf;

use ov_oodb::sym;

use crate::calib::Calibrator;
use crate::model::Rng;
use crate::steps::exec_steps;
use crate::trace::Tracer;
use crate::workloads::{point_query, recover, SPECS};
use crate::{parse_args, setup};

const N: usize = 500;

/// A scratch directory of the test's own (tests run in parallel).
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        let dir = std::env::temp_dir().join(format!("ovbench-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TestDir(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn oracle_and_engine_agree_on_every_workload_plain_and_traced() {
    for spec in &SPECS {
        let dir = TestDir::new(spec.name);
        let mut rng = Rng::new(42);
        let mut w = (spec.setup)(&dir.0, N, &mut rng, &mut Calibrator::new()).expect(spec.name);
        let mut tracer = Tracer::new();
        let mut cal = Calibrator::new();
        w.start_pass(0.0);
        for i in 0..24 {
            let traced = i % 2 == 1;
            let s = w.run_op(&mut rng, traced.then_some(&mut tracer), &mut cal);
            assert!(
                s.ok,
                "{} op {i} (traced: {traced}) disagrees with the oracle",
                spec.name
            );
            assert!(s.ns > 0 && s.rows > 0);
        }
        assert_eq!(w.totals().stale_serves, 0);
        assert_eq!(tracer.self_times("op").len(), 12, "{}", spec.name);
        let (disk, user) = w.space();
        assert!(disk > 0 && user > 0);
    }
}

#[test]
fn every_shape_of_the_fingerprint_pool_is_distinct_and_correct() {
    let dir = TestDir::new("pool");
    let mut rng = Rng::new(5);
    let mut env = setup::build(
        &dir.0,
        N,
        &mut rng,
        &mut Calibrator::new(),
        setup::incremental(),
        false,
    )
    .unwrap();
    let mut cal = Calibrator::new();
    let mut fingerprints = BTreeSet::new();
    for shape in 0..point_query::FINGERPRINT_POOL {
        let row = &env.model.rows[env.model.pick_live(&mut rng)];
        let step = point_query::shaped_probe(row, shape, rng.range(1, 10));
        let query = step.text.trim_end_matches(';');
        fingerprints.insert(ov_query::fingerprint_query(query).expect("parses").0);
        let runs = exec_steps(
            &mut env.session,
            std::slice::from_ref(&step),
            None,
            &mut cal,
        );
        assert!(runs[0].ok(&step.expect), "shape {shape}: {}", step.text);
    }
    assert_eq!(fingerprints.len() as u64, point_query::FINGERPRINT_POOL);
    assert_eq!(point_query::FINGERPRINT_POOL, 384);
}

#[test]
fn hidden_attribute_stays_hidden_in_subclasses() {
    // `Top` hides `Street` in `Person`; `boss` is a `Manager`, two levels
    // down. Hide is closed under subclasses, so this is a typed error,
    // while the computed `Address` that reads `Street` still works.
    let dir = TestDir::new("hide");
    let mut env = setup::build(
        &dir.0,
        N,
        &mut Rng::new(3),
        &mut Calibrator::new(),
        setup::incremental(),
        false,
    )
    .unwrap();
    env.session.focus(sym("Top")).unwrap();
    let err = env.session.execute("boss.Street;").unwrap_err();
    assert!(err.to_string().contains("Street"), "{err}");
    assert!(env.session.execute("boss.Address.Street;").is_ok());
    env.session.focus(sym("Adults")).unwrap();
    assert!(env.session.execute("boss.Street;").is_ok());
}

#[test]
fn crash_prefix_is_the_largest_acknowledged_one_below_the_cut() {
    let after = [100u64, 180, 260, 400];
    assert_eq!(recover::surviving_prefix(&after, 0), 0);
    assert_eq!(recover::surviving_prefix(&after, 99), 0);
    assert_eq!(recover::surviving_prefix(&after, 100), 1);
    assert_eq!(recover::surviving_prefix(&after, 259), 2);
    assert_eq!(recover::surviving_prefix(&after, 260), 3);
    assert_eq!(recover::surviving_prefix(&after, 399), 3);
    assert_eq!(recover::surviving_prefix(&after, 400), 4);
    assert_eq!(recover::surviving_prefix(&after, 10_000), 4);
    assert_eq!(recover::tail_len(500), 50);
    assert_eq!(recover::tail_len(1_000_000), 5000);
}

#[test]
fn bad_arguments_are_reported_not_panicked_on() {
    let parse = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let ok = parse("--workload view_scan --seed 7 --seconds 10 --trace 1").unwrap();
    assert_eq!(ok.workload.unwrap().name, "view_scan");
    assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 10.0, true));
    assert!(parse("").unwrap().workload.is_none());
    assert_eq!(parse("--smoke").unwrap().n, Some(2000));
    for bad in [
        "--workload nope",
        "--workload",
        "--seed x",
        "--seed -1",
        "--seconds 0",
        "--seconds inf",
        "--trace 2",
        "--n 10",
        "--n many",
        "--frobnicate",
    ] {
        assert!(parse(bad).is_err(), "`{bad}` must be refused");
    }
}
