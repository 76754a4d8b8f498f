//! Reports do not depend on the thread count.
//!
//! Every parallel site runs on `numerics::exec`, whose ordered map, together
//! with `numerics::replicate`'s fixed 64-replication chunk grid and
//! chunk-order merge, makes each report a function of the spec alone. Each
//! test here encodes the same reports under `exec::with_threads(1)`, `(2)`
//! and `(4)` and compares the JSON byte for byte (`wall_seconds`, a wall
//! clock, is zeroed). Four threads start even on a smaller host, since the
//! override sets the count exactly.

use engine::{
    backend_for, compare, BackendKind, RunBudget, Runner, SamplingPlan, ScenarioGrid, ScenarioSpec,
};
use numerics::exec;
use std::path::PathBuf;

fn fixture_spec(name: &str) -> ScenarioSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/specs")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ScenarioSpec::from_json(text.trim_end()).unwrap()
}

/// `spec` on `backend`, encoded with its wall clock zeroed.
fn report_json(spec: &ScenarioSpec, backend: BackendKind, budget: &RunBudget) -> String {
    let mut spec = spec.clone();
    spec.backend = backend;
    let mut report = backend_for(backend)
        .run(&spec, budget)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", spec.name, backend.name()));
    report.wall_seconds = 0.0;
    report.to_json()
}

/// Run `reports` at 1, 2 and 4 threads and require identical bytes.
fn assert_thread_count_invariant(reports: impl Fn() -> Vec<String>) {
    let one = exec::with_threads(1, &reports);
    assert!(!one.is_empty());
    for threads in [2, 4] {
        let many = exec::with_threads(threads, &reports);
        assert_eq!(many.len(), one.len());
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a, b, "1 thread vs {threads} threads");
        }
    }
}

#[test]
fn fixed_plans_on_spn_sim_and_des() {
    // Three full chunks and a partial fourth: every thread owns a chunk.
    let mut spec = fixture_spec("hot-longrun.json");
    spec.stochastic.sampling = SamplingPlan::Fixed(3 * 64 + 10);
    assert_thread_count_invariant(|| {
        [BackendKind::SpnSim, BackendKind::Des]
            .into_iter()
            .map(|kind| report_json(&spec, kind, &RunBudget::default()))
            .collect()
    });
}

#[test]
fn adaptive_plan() {
    // Rounds of 150 and then 200 cut chunks mid-way (the carried partial
    // sink) and each spans three chunk pieces.
    let mut spec = fixture_spec("hot-adaptive.json");
    spec.stochastic.sampling = SamplingPlan::Adaptive {
        target_rel_halfwidth: 0.05,
        min: 150,
        max: 750,
        batch: 200,
    };
    assert_thread_count_invariant(|| {
        vec![report_json(&spec, BackendKind::Des, &RunBudget::default())]
    });
}

#[test]
fn clustered_stochastic_spec() {
    let spec = fixture_spec("clustered-mission.json");
    let budget = RunBudget {
        max_replications: Some(3 * 64 + 5),
        ..RunBudget::default()
    };
    assert_thread_count_invariant(|| vec![report_json(&spec, BackendKind::SpnSim, &budget)]);
}

#[test]
fn paired_compare_of_burst_against_baseline() {
    // The paired engine maps each arm's 130 replications on the executor:
    // runs of 65 at 2 threads, of 33 at 4.
    let arm = |name: &str| {
        let mut spec = fixture_spec(name);
        spec.backend = BackendKind::Des;
        spec.stochastic.sampling = SamplingPlan::Fixed(130);
        spec
    };
    let (baseline, burst) = (arm("ab-baseline.json"), arm("ab-burst.json"));
    assert_thread_count_invariant(|| {
        let report = compare(&baseline, &burst, &RunBudget::default()).unwrap();
        vec![report.to_json()]
    });
}

#[test]
fn runner_batch_of_exact_points_and_a_stochastic_spec() {
    let base = fixture_spec("hot-mission.json");
    let mut specs = ScenarioGrid::new(base.clone())
        .tids(&[60.0, 120.0, 240.0, 480.0, 960.0])
        .expand();
    let mut stochastic = base;
    stochastic.name = "hot-mission/spn-sim".into();
    stochastic.backend = BackendKind::SpnSim;
    stochastic.stochastic.sampling = SamplingPlan::Fixed(3 * 64 + 1);
    specs.insert(2, stochastic);
    assert_thread_count_invariant(|| {
        Runner::new()
            .run_batch(&specs)
            .unwrap()
            .into_iter()
            .map(|mut report| {
                report.wall_seconds = 0.0;
                report.to_json()
            })
            .collect()
    });
}
