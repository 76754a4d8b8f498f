//! Three-way cross-validation at accelerated scale: the analytic CTMC
//! solution, the SPN token-game Monte Carlo, and the protocol-level DES
//! must agree on MTTSF — and the analytic failure-cause split must match
//! the simulated one.

use engine::{
    backend_for, cross_validate_dir, BackendKind, CrossValOptions, RunBudget, RunReport, Runner,
    SamplingPlan, ScenarioSpec,
};
use gcsids::config::SystemConfig;
use gcsids::metrics::evaluate;
use gcsids::model::build_model;
use spn::reward::RewardSet;
use spn::sim::{SimOptions, Simulator};
use std::path::PathBuf;

/// Accelerated configuration (fast attacker, small group) so thousands of
/// replications complete in seconds.
fn hot() -> SystemConfig {
    let mut c = SystemConfig::paper_default();
    c.node_count = 24;
    c.vote_participants = 3;
    c.attacker.base_rate = 1.0 / 1_200.0;
    c.detection = c.detection.with_interval(60.0);
    c
}

/// The protocol DES of `hot()` through the engine: `n` replications under
/// master seed `seed`, censored at the default one-year horizon.
fn des_report(n: u64, seed: u64) -> RunReport {
    let mut spec = ScenarioSpec::paper_default(BackendKind::Des);
    spec.system = hot();
    spec.stochastic.master_seed = seed;
    spec.stochastic.sampling = SamplingPlan::Fixed(n);
    backend_for(BackendKind::Des)
        .run(&spec, &RunBudget::default())
        .unwrap()
}

#[test]
fn token_game_confirms_analytic_mttsf() {
    let cfg = hot();
    let analytic = evaluate(&cfg).unwrap();
    let model = build_model(&cfg);
    let rewards = RewardSet::new();
    let sim = Simulator::new(&model.net, &rewards, SimOptions::default());
    let stats = sim.run_replications(8_000, 11).unwrap();
    assert_eq!(stats.censored, 0);
    let ci = stats.mtta_ci(0.99);
    assert!(
        ci.contains(analytic.mttsf_seconds),
        "token game CI [{:.4e}, {:.4e}] excludes analytic {:.4e}",
        ci.lo(),
        ci.hi(),
        analytic.mttsf_seconds
    );
}

#[test]
fn protocol_des_matches_analytic_within_modeling_tolerance() {
    // The DES executes real votes per group rather than the hypergeometric
    // abstraction; agreement within 15% validates the Equation-1
    // reconstruction and the SPN structure.
    let cfg = hot();
    let analytic = evaluate(&cfg).unwrap();
    let sim_mean = des_report(4_000, 17).mttsf.value;
    let rel = (sim_mean - analytic.mttsf_seconds).abs() / analytic.mttsf_seconds;
    assert!(
        rel < 0.15,
        "DES {sim_mean:.4e} vs analytic {:.4e}: {:.1}% apart",
        analytic.mttsf_seconds,
        rel * 100.0
    );
}

#[test]
fn failure_cause_split_agrees_between_analytic_and_des() {
    let cfg = hot();
    let analytic = evaluate(&cfg).unwrap();
    let split = des_report(4_000, 23).failure;
    let failures = split.p_c1 + split.p_c2;
    assert!(failures > 0.0);
    let sim_c1 = split.p_c1 / failures;
    assert!(
        (sim_c1 - analytic.p_failure_c1).abs() < 0.08,
        "C1 share: DES {sim_c1:.3} vs analytic {:.3}",
        analytic.p_failure_c1
    );
}

#[test]
fn des_cost_rate_within_factor_two_of_analytic() {
    // Cost accounting differs structurally (event-level GDH + per-group
    // floods vs state-averaged rates) — they must still land in the same
    // ballpark.
    let cfg = hot();
    let analytic = evaluate(&cfg).unwrap();
    let des_cost = des_report(1_000, 29).c_total.value;
    let ratio = des_cost / analytic.c_total_hop_bits_per_sec;
    assert!(
        (0.5..2.0).contains(&ratio),
        "cost ratio {ratio:.2} (DES {des_cost:.3e} vs analytic {:.3e})",
        analytic.c_total_hop_bits_per_sec
    );
}

#[test]
fn occupancy_integral_reproduces_mttsf_definition() {
    // The paper defines MTTSF as ∫ Σ_{i∉absorbing} P_i(t) dt; check the
    // uniformization evaluation of that integral against the linear-solve
    // MTTA on the real model. Uniformization cost scales with q·t, so use a
    // small, slow system (the identity is exact regardless of scale).
    let mut cfg = hot();
    cfg.node_count = 10;
    cfg.detection = cfg.detection.with_interval(300.0);
    cfg.attacker.base_rate = 1.0 / 600.0;
    let model = build_model(&cfg);
    let graph = spn::reach::explore(&model.net, &Default::default()).unwrap();
    let ctmc = spn::ctmc::Ctmc::from_graph(&graph).unwrap();
    let analytic = ctmc.mean_time_to_absorption().unwrap();
    let horizon = analytic.mtta * 12.0;
    let occ = ctmc.expected_occupancy(horizon, &spn::ctmc::TransientOptions::default());
    let integral: f64 = occ
        .iter()
        .enumerate()
        .filter(|&(i, _)| !ctmc.absorbing()[i])
        .map(|(_, &o)| o)
        .sum();
    let rel = (integral - analytic.mtta).abs() / analytic.mtta;
    assert!(
        rel < 5e-3,
        "integral {integral:.6e} vs MTTA {:.6e}",
        analytic.mtta
    );
}

// ---------------------------------------------------------------------------
// Mission-survivability cross-validation (engine-level)
// ---------------------------------------------------------------------------

/// The committed acceptance check: on the paper's §5 default system, the
/// exact `P[survive t]` from uniformization lies inside the 95% confidence
/// intervals of both the SPN token-game simulation and the protocol DES on
/// a 5-point mission grid. Seeds are fixed and the vendored RNG is
/// deterministic, so this is a regression pin, not a flaky statistical
/// test.
#[test]
fn exact_survival_inside_stochastic_cis_on_paper_default_mission_grid() {
    // Scale the grid to the model's own MTTSF so the points land in the
    // mission-relevant band (hours-to-days; S ≈ 0.97…0.99+) whatever the
    // calibration constants are. Uniformization cost grows with q·t_max
    // and the simulators with replications × horizon, so the grid stays
    // shallow to keep debug-mode tier-1 runs fast.
    let probe = Runner::new()
        .run(&ScenarioSpec::paper_default(BackendKind::Exact))
        .unwrap();
    let m = probe.mttsf.value;
    let times: Vec<f64> = [0.006, 0.012, 0.018, 0.024, 0.03]
        .iter()
        .map(|f| f * m)
        .collect();

    let mut base = ScenarioSpec::paper_default(BackendKind::Exact).with_mission_times(&times);
    base.name = "paper-default-mission".into();
    // Censor right past the last grid point: later behaviour is irrelevant
    // to the mission question and this keeps replications cheap.
    base.stochastic.max_time = times[4] * 1.01;
    base.stochastic.sampling = engine::SamplingPlan::Fixed(60);
    base.stochastic.confidence = 0.95;
    let exact = Runner::new().run(&base).unwrap();
    let exact_curve = exact.survival.as_ref().unwrap();
    assert_eq!(exact_curve.len(), 5);

    for kind in [BackendKind::SpnSim, BackendKind::Des] {
        let mut spec = base.clone();
        spec.backend = kind;
        let report = backend_for(kind).run(&spec, &RunBudget::default()).unwrap();
        let curve = report.survival.as_ref().unwrap();
        for ((t, e), (_, s)) in exact_curve.iter().zip(curve) {
            let (lo, hi) = s.ci.expect("stochastic survival carries a CI");
            assert!(
                lo <= e.value && e.value <= hi,
                "{kind:?} at t={t:.3e}: exact {:.4} outside 95% CI [{lo:.4}, {hi:.4}]",
                e.value
            );
        }
    }
}

/// The committed fixture specs must pass the full cross-validation harness
/// (the same check CI runs through the `runner` binary, here at reduced
/// replications so the suite stays fast).
#[test]
fn crossval_harness_agrees_on_committed_fixture_specs() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/specs");
    let opts = CrossValOptions {
        budget: RunBudget {
            max_replications: Some(150),
            ..Default::default()
        },
        ..Default::default()
    };
    let report = cross_validate_dir(&dir, &opts).unwrap();
    assert_eq!(report.specs.len(), 11);
    // every scenario-axis fixture is in the validated set: one per
    // attacker strategy and one per response policy
    for name in [
        "ab-baseline",
        "ab-burst",
        "ab-stealth",
        "ab-targeted",
        "ab-quarantine",
        "ab-throttle",
    ] {
        assert!(
            report.specs.iter().any(|s| s.name == name),
            "{name} fixture missing from crossval"
        );
    }
    assert!(
        report.agrees(),
        "cross-backend disagreement: {}",
        report.to_json()
    );
    // mission-grid specs must actually compare survival points
    let mission = report
        .specs
        .iter()
        .find(|s| s.name == "hot-mission")
        .expect("hot-mission fixture present");
    for c in &mission.comparisons {
        assert!(
            c.checks.iter().any(|ch| ch.metric.starts_with("survival@")),
            "{:?} compared no survival points",
            c.backend
        );
    }
    // the long-horizon spec must compare MTTSF itself
    let longrun = report
        .specs
        .iter()
        .find(|s| s.name == "hot-longrun")
        .expect("hot-longrun fixture present");
    for c in &longrun.comparisons {
        assert!(
            c.checks.iter().any(|ch| ch.metric == "mttsf"),
            "{:?} skipped MTTSF: {:?}",
            c.backend,
            c.skipped
        );
    }
    // the clustered fixture runs on the lumped/composed exact path and
    // must compare MTTSF, survival and the failure split against the
    // stochastic backends' order-statistic compositions
    let clustered = report
        .specs
        .iter()
        .find(|s| s.name == "clustered-mission")
        .expect("clustered-mission fixture present");
    assert!(
        clustered.exact.lumping_reduction.unwrap() > 1.0,
        "clustered exact reference must record its reduction factor"
    );
    for c in &clustered.comparisons {
        assert!(
            c.checks.iter().any(|ch| ch.metric == "mttsf"),
            "{:?} skipped clustered MTTSF: {:?}",
            c.backend,
            c.skipped
        );
        assert!(
            c.checks.iter().any(|ch| ch.metric.starts_with("survival@")),
            "{:?} compared no clustered survival points",
            c.backend
        );
        assert!(
            c.checks.iter().any(|ch| ch.metric == "p_c1"),
            "{:?} compared no clustered failure split: {:?}",
            c.backend,
            c.skipped
        );
    }
    // the adaptive fixture must have chosen its replication count at
    // runtime and recorded the verdict in its report
    let adaptive = report
        .specs
        .iter()
        .find(|s| s.name == "hot-adaptive")
        .expect("hot-adaptive fixture present");
    for c in &adaptive.comparisons {
        assert!(c.report.target_met.is_some(), "{:?}", c.backend);
        assert!(c.report.replications.unwrap() <= 150, "budget cap applies");
    }
}

/// The symmetry-lumping acceptance criterion: the committed ≥100-node
/// clustered fixture is solvable by the lumped/composed exact path under a
/// state budget that the unlumped flat exploration of the very same net
/// provably exceeds.
#[test]
fn lumped_exact_solves_clustered_fixture_beyond_unlumped_state_budget() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/specs/clustered-mission.json");
    let text = std::fs::read_to_string(&path).expect("clustered fixture committed");
    let spec = ScenarioSpec::from_json(text.trim_end()).unwrap();
    let topo = spec.clustered.expect("fixture is clustered");
    assert!(
        spec.system.node_count * topo.clusters >= 100,
        "fixture must model a 100+-node system"
    );

    let budget = RunBudget {
        max_states: 100_000,
        ..Default::default()
    };
    // Unlumped flat exploration of the same clustered net blows the budget.
    let model = gcsids::build_clustered_model(&spec.system, &topo);
    let opts = spn::reach::ExploreOptions {
        max_states: budget.max_states,
        ..Default::default()
    };
    let unlumped = spn::reach::explore(&model.net, &opts);
    assert!(
        matches!(
            unlumped,
            Err(spn::error::SpnError::StateSpaceExceeded { .. })
        ),
        "unlumped exploration unexpectedly fit the budget: {unlumped:?}"
    );

    // The lumped/composed path solves it under the very same budget.
    let report = Runner::with_budget(budget).run(&spec).unwrap();
    assert!(report.mttsf.value.is_finite() && report.mttsf.value > 0.0);
    assert!(report.state_count.unwrap() <= budget.max_states);
    assert!(
        report.lumping_reduction.unwrap() > 100.0,
        "reduction {:?}",
        report.lumping_reduction
    );
    let surv = report.survival.as_ref().unwrap();
    assert_eq!(surv.len(), 5);
    assert!((surv[0].1.value - 1.0).abs() < 1e-9);
    for w in surv.windows(2) {
        assert!(w[1].1.value <= w[0].1.value + 1e-12, "{surv:?}");
    }
}

/// The adaptive-sampling acceptance criterion: a spec with an `Adaptive`
/// plan yields a report whose MTTSF CI half-width meets the requested
/// relative target — or that explicitly reports budget exhaustion — with
/// the replication count actually used recorded in the report JSON.
#[test]
fn adaptive_spec_meets_precision_target_or_reports_exhaustion() {
    let mut spec = ScenarioSpec::paper_default(BackendKind::Des);
    spec.name = "adaptive-acceptance".into();
    spec.system = hot();
    spec.system.node_count = 12;
    spec.stochastic.max_time = 1.0e6;
    let target = 0.25;
    spec.stochastic.sampling = engine::SamplingPlan::Adaptive {
        target_rel_halfwidth: target,
        min: 20,
        max: 600,
        batch: 40,
    };
    let report = backend_for(BackendKind::Des)
        .run(&spec, &RunBudget::default())
        .unwrap();
    let n = report.replications.expect("replications-used is recorded");
    assert!((20..=600).contains(&n));
    match report.target_met.expect("adaptive verdict is recorded") {
        true => {
            let (lo, hi) = report.mttsf.ci.expect("met target implies a CI");
            let rel_half = (hi - lo) / 2.0 / report.mttsf.value.abs();
            assert!(
                rel_half <= target,
                "claimed target {target} but achieved {rel_half}"
            );
        }
        false => assert_eq!(n, 600, "unmet target must exhaust the budget"),
    }
    // and both facts survive the report's JSON round-trip
    let json = report.to_json();
    let back = engine::RunReport::from_json(&json).unwrap();
    assert_eq!(back.replications, Some(n));
    assert_eq!(back.target_met, report.target_met);
    assert!(json.contains("\"replications\":"));
    assert!(json.contains("\"target_met\":"));
}
