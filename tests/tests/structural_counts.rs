//! Exact work counters of the evaluation pipeline, pinned.
//!
//! Every number here is deterministic: state and edge counts of the
//! explored nets, the transient engine's matvec telemetry, lumping
//! reductions, replication counts of fixed and adaptive plans, template
//! cache hits and misses, and the CRN self-comparison's zero deltas. Any
//! drift is a change of algorithm, never noise, so each value is asserted
//! exactly. Timings live in perfbench (`crates/bench/perfbench`).

use engine::{
    backend_for, compare, AttackerStrategy, BackendKind, ResponsePolicy, RunBudget, Runner,
    SamplingPlan, ScenarioConfig, ScenarioGrid, ScenarioSpec,
};
use gcsids::clustered::{
    evaluate_clustered_graph, evaluate_clustered_with_survival, ClusteredPath,
};
use gcsids::config::{ClusterTopology, SystemConfig};
use gcsids::metrics::{ExactTemplate, TemplateStats};
use gcsids::model::{build_clustered_model, build_model};
use spn::ctmc::{Ctmc, TransientOptions};
use spn::reach::{explore, ExploreOptions};
use spn::transient::TransientStats;

/// The accelerated 12-node system of the crossval fixtures: fails within
/// ~1e5 s, so every backend finishes quickly at full replication counts.
fn hot_system() -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.node_count = 12;
    cfg.vote_participants = 3;
    cfg.attacker.base_rate = 1.0 / 600.0;
    cfg.detection = cfg.detection.with_interval(120.0);
    cfg
}

/// States and edges of the paper-default net at `n` nodes, the transient
/// telemetry of a 5-point survival sweep to 0.05 × MTTSF, and the
/// template's work counters.
fn exact_counts(n: u32) -> (usize, usize, TransientStats, TemplateStats) {
    let mut cfg = SystemConfig::paper_default();
    cfg.node_count = n;
    let baseline = ScenarioConfig::baseline();
    let template =
        ExactTemplate::with_options(&cfg, &baseline, &ExploreOptions::default()).unwrap();
    let graph = explore(&build_model(&cfg).net, &ExploreOptions::default()).unwrap();
    let ctmc = Ctmc::from_graph(&graph).unwrap();
    let horizon = 0.05 * ctmc.mean_time_to_absorption().unwrap().mtta;
    let grid: Vec<f64> = (1..=5).map(|i| horizon * f64::from(i) / 5.0).collect();
    let (_, stats) = ctmc.survival_curve_with_stats(&grid, &TransientOptions::default());
    (
        graph.state_count(),
        graph.edge_count(),
        stats,
        template.stats(),
    )
}

/// The counters of a freshly built template: one exploration and one
/// pattern build, the distinct keys of each rate factor (their
/// sum bounds one point's rate evaluations) and the distinct reward keys.
fn template_stats(
    rate_keys: usize,
    factor_keys: &[(&str, &[usize])],
    reward_keys: usize,
) -> TemplateStats {
    TemplateStats {
        explorations: 1,
        pattern_builds: 1,
        rate_keys,
        factor_keys: (factor_keys.iter())
            .map(|(name, keys)| (name.to_string(), keys.to_vec()))
            .collect(),
        reward_keys,
    }
}

#[test]
fn exact_pipeline_counts_at_n50() {
    let expected = TransientStats {
        matvecs: 49_450,
        detection_step: None,
        early_exit: false,
        transient_states: 1_825,
        absorbing_states: 1_825,
    };
    assert_eq!(
        exact_counts(50),
        (
            3_650,
            9_632,
            expected,
            template_stats(
                2_684,
                &[
                    ("T_CP", &[458]),
                    ("T_IDS", &[408, 416]),
                    ("T_FA", &[457, 465]),
                    ("T_DRQ", &[16]),
                    ("T_PAR", &[3]),
                    ("T_MER", &[3]),
                    ("T_RK", &[458]),
                ],
                194
            )
        )
    );
}

#[test]
fn exact_pipeline_counts_at_n100() {
    let expected = TransientStats {
        matvecs: 115_455,
        detection_step: None,
        early_exit: false,
        transient_states: 6_993,
        absorbing_states: 6_993,
    };
    assert_eq!(
        exact_counts(100),
        (
            13_986,
            37_656,
            expected,
            template_stats(
                10_371,
                &[
                    ("T_CP", &[1_750]),
                    // (T, U) keys of U · D(T + U), then Pfn splits.
                    ("T_IDS", &[1_650, 1_667]),
                    // (T, U) keys of T · D(T + U), then Pfp splits.
                    ("T_FA", &[1_749, 1_766]),
                    ("T_DRQ", &[33]),
                    ("T_PAR", &[3]),
                    ("T_MER", &[3]),
                    ("T_RK", &[1_750]),
                ],
                394
            )
        )
    );
}

/// Three 5-node clusters are still explorable unlumped: the lumped
/// quotient must reproduce the flat product space's MTTSF.
#[test]
fn clustered_lumping_counts_c3() {
    let mut cfg = hot_system();
    cfg.node_count = 5;
    let topo = ClusterTopology {
        clusters: 3,
        failure_threshold: 2,
    };
    let opts = ExploreOptions::default();
    let model = build_clustered_model(&cfg, &topo);
    let flat = explore(&model.net, &opts).unwrap();
    let (unlumped, _) = evaluate_clustered_graph(&model, &flat, &[]).unwrap();
    let lumped = evaluate_clustered_with_survival(&cfg, &topo, &[], &opts).unwrap();

    assert_eq!(unlumped.state_count, 109_375);
    assert_eq!(lumped.stats.states, 19_175);
    assert_eq!(lumped.stats.edges, 92_092);
    assert_eq!(lumped.stats.reduction, 6.51890482398957);
    let rel =
        (lumped.evaluation.mttsf_seconds - unlumped.mttsf_seconds).abs() / unlumped.mttsf_seconds;
    assert!(rel < 1e-8, "lumped/unlumped MTTSF disagree: rel={rel:.3e}");
}

/// States, edges, reduction and unlumped state estimate of the lumped
/// evaluation of `clusters` copies of `cfg`.
fn lumped_counts(cfg: &SystemConfig, clusters: u32, threshold: u32) -> (usize, usize, f64, f64) {
    let topo = ClusterTopology {
        clusters,
        failure_threshold: threshold,
    };
    let l = evaluate_clustered_with_survival(cfg, &topo, &[], &ExploreOptions::default()).unwrap();
    (
        l.stats.states,
        l.stats.edges,
        l.stats.reduction,
        l.stats.unlumped_state_estimate,
    )
}

/// Deployments only the lumped or composed path reaches: ten 12-node
/// clusters (the 120-node crossval fixture), and ten, twenty or a hundred
/// 5-node clusters (50, 100 and 500 nodes).
#[test]
fn clustered_lumping_counts_past_the_flat_budget() {
    let c10 = (262, 635, 4.987647683877605e21, 1.3067636931759326e24);
    assert_eq!(lumped_counts(&hot_system(), 10, 3), c10);
    let mut small = hot_system();
    small.node_count = 5;
    let n50 = (54, 119, 1808449074074074.0, 9.765625e16);
    assert_eq!(lumped_counts(&small, 10, 3), n50);
    let n100 = (56, 182, 1.7029898507254466e32, 9.5367431640625e33);
    assert_eq!(lumped_counts(&small, 20, 5), n100);
    // The composed path adds the lumped inter-cluster chain to the d-state,
    // e-edge cluster chain: K + 1 states and Σ_{j<K} (C − j) edges.
    let cluster = explore(&build_model(&small).net, &ExploreOptions::default()).unwrap();
    let (d, e) = (cluster.state_count(), cluster.edge_count());
    let (states, edges, _, _) = lumped_counts(&small, 100, 50);
    assert_eq!((states, edges), (d + 51, e + 3_775));
}

/// The `clustered-mission` fixture on the hierarchical path. The report's
/// transient counter covers the quadrature grid (whose one survival sweep
/// also yields cost and cause) and the mission curve; the horizon search
/// runs as multi-horizon passes whose matvecs only `LumpingStats` carries
/// (107 477 when each horizon and each of 33 cost/cause probes was its
/// own solve from t = 0, 17 057 while the probes shared one 6 497-matvec
/// pass).
#[test]
fn clustered_mission_composition_matvecs() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/fixtures/specs/clustered-mission.json"
    );
    let spec = ScenarioSpec::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let topo = spec.clustered.unwrap();
    let opts = ExploreOptions {
        max_states: RunBudget::default().max_states,
        ..ExploreOptions::default()
    };
    let ce =
        evaluate_clustered_with_survival(&spec.system, &topo, &spec.mission_times, &opts).unwrap();
    assert_eq!(ce.stats.path, ClusteredPath::Hierarchical);
    assert_eq!(ce.stats.composition_matvecs, 10_560);
    assert_eq!(ce.evaluation.transient.unwrap().matvecs, 53_337);
}

/// A fixed 200-replication plan and an adaptive plan targeting a 15%
/// relative MTTSF half-width, per stochastic backend.
#[test]
fn stochastic_replication_counts() {
    let mut spec = ScenarioSpec::paper_default(BackendKind::Des);
    spec.name = "counts/replication".into();
    spec.system = hot_system();
    spec.stochastic.max_time = 5.0e6;
    spec.mobility.dt = 2.0;
    let budget = RunBudget::default();
    for (kind, adaptive_reps) in [
        (BackendKind::SpnSim, 50),
        (BackendKind::Des, 50),
        (BackendKind::MobilityDes, 150),
    ] {
        spec.backend = kind;
        spec.stochastic.sampling = SamplingPlan::Fixed(200);
        let fixed = backend_for(kind).run(&spec, &budget).unwrap();
        spec.stochastic.sampling = SamplingPlan::Adaptive {
            target_rel_halfwidth: 0.15,
            min: 50,
            max: 400,
            batch: 50,
        };
        let adaptive = backend_for(kind).run(&spec, &budget).unwrap();
        let name = kind.name();
        assert_eq!(fixed.replications, Some(200), "{name} fixed");
        assert_eq!(
            adaptive.replications,
            Some(adaptive_reps),
            "{name} adaptive"
        );
    }
}

/// 30 flat exact specs round-robined over 3 structural families through
/// one cache-carrying runner: 3 cold builds, 27 warm replays.
#[test]
fn service_cache_counts() {
    let runner = Runner::new();
    for i in 0..30u32 {
        let mut spec = ScenarioSpec::paper_default(BackendKind::Exact);
        spec.name = format!("counts/service-{i:02}");
        spec.system = hot_system();
        spec.system.node_count = 10 + i % 3;
        spec.system = spec.system.with_tids(60.0 + f64::from(i / 3) * 15.0);
        runner.run_cached(&spec).unwrap();
    }
    let stats = runner.cache().stats();
    assert_eq!((stats.hits, stats.misses), (27, 3));
    assert_eq!(stats.hit_rate(), Some(0.9));
}

/// A Figures 2–3 `m × T_IDS` grid plus one mission-grid spec through one
/// runner: a single cache miss builds the template, every other spec hits
/// it, and the template explores and builds its CSR pattern exactly once —
/// every point re-weights and refreshes in place.
#[test]
fn runner_grid_explores_and_builds_pattern_once() {
    let mut base = ScenarioSpec::paper_default(BackendKind::Exact);
    base.name = "counts/explore-once".into();
    base.system.node_count = 12;
    base.system.vote_participants = 3;
    let mut specs = ScenarioGrid::new(base.clone())
        .vote_participants(SystemConfig::paper_m_grid())
        .tids(&[5.0, 30.0, 120.0, 480.0, 1200.0])
        .expand();
    specs.push(base.clone().with_mission_times(&[0.0, 1.0e4]));
    let runner = Runner::new();
    runner.run_batch(&specs).unwrap();
    let stats = runner.cache().stats();
    assert_eq!((stats.hits, stats.misses), (20, 1));
    let (template, _) = runner
        .cache()
        .lookup(&base, &ExploreOptions::default())
        .unwrap();
    let work = template.expect("flat exact spec is cached").stats();
    assert_eq!((work.explorations, work.pattern_builds), (1, 1));
}

fn burst() -> ScenarioConfig {
    ScenarioConfig {
        attacker: AttackerStrategy::Burst {
            on_rate: 1.0 / 5_000.0,
            off_rate: 1.0 / 5_000.0,
            multiplier: 6.0,
        },
        response: ResponsePolicy::Evict,
    }
}

/// States and edges of each attacker-strategy and response-policy net on
/// the hot system.
#[test]
fn scenario_net_counts() {
    let with = |attacker, response| ScenarioConfig { attacker, response };
    let axes = [
        ("baseline", ScenarioConfig::baseline(), 258, 608),
        ("burst", burst(), 516, 1_474),
        (
            "stealth",
            with(
                AttackerStrategy::Stealth {
                    rate_factor: 0.5,
                    evasion: 0.3,
                },
                ResponsePolicy::Evict,
            ),
            258,
            608,
        ),
        (
            "targeted",
            with(
                AttackerStrategy::Targeted { focus: 0.8 },
                ResponsePolicy::Evict,
            ),
            258,
            608,
        ),
        (
            "quarantine",
            with(
                AttackerStrategy::Baseline,
                ResponsePolicy::QuarantineRejoin {
                    release_rate: 1.0 / 2_000.0,
                    false_release_prob: 0.1,
                },
            ),
            4_536,
            14_521,
        ),
        (
            "throttle",
            with(
                AttackerStrategy::Baseline,
                ResponsePolicy::RekeyThrottle {
                    max_rate: 1.0 / 1_000.0,
                },
            ),
            1_422,
            3_659,
        ),
    ];
    let cfg = hot_system();
    for (name, sc, states, edges) in axes {
        let model = gcsids::build_scenario_model(&cfg, &sc);
        let graph = explore(&model.net, &ExploreOptions::default()).unwrap();
        assert_eq!(
            (graph.state_count(), graph.edge_count()),
            (states, edges),
            "{name}"
        );
    }
}

/// A scenario template serves rate-only points without exploring again: a
/// burst and a targeted template each solve three points (a detection
/// interval, a vote size, and the scenario's own rate) bit for bit as
/// one-use templates at those points, with one exploration and one
/// pattern build each.
#[test]
fn scenario_templates_explore_once_across_rate_only_points() {
    let targeted = |focus| ScenarioConfig {
        attacker: AttackerStrategy::Targeted { focus },
        response: ResponsePolicy::Evict,
    };
    let mut hotter = burst();
    hotter.attacker = AttackerStrategy::Burst {
        on_rate: 1.0 / 5_000.0,
        off_rate: 1.0 / 5_000.0,
        multiplier: 9.0,
    };
    let opts = ExploreOptions::default();
    let grid = [1.0e3, 5.0e3];
    let base = hot_system();
    for (sc, rate_variant) in [(burst(), hotter), (targeted(0.8), targeted(0.5))] {
        let template = ExactTemplate::with_options(&base, &sc, &opts).unwrap();
        let points = [
            (base.with_tids(60.0), sc),
            (base.with_vote_participants(5), sc),
            (base.clone(), rate_variant),
        ];
        for (cfg, point_sc) in &points {
            let bits = |template: &ExactTemplate| {
                let (e, survival, d) = template
                    .evaluate_with_survival(cfg, Some(point_sc), &grid)
                    .unwrap();
                let d = d.expect("a scenario point has detection totals");
                let c = e.cost_components;
                let mut values = vec![
                    e.mttsf_seconds,
                    e.c_total_hop_bits_per_sec,
                    c.group_comm,
                    c.status,
                    c.rekey,
                    c.ids,
                    c.beacon,
                    c.partition_merge,
                    e.p_failure_c1,
                    e.p_failure_c2,
                    d.compromises,
                    d.detections,
                    d.false_alarms,
                ];
                values.extend(survival.unwrap());
                values.into_iter().map(f64::to_bits).collect::<Vec<_>>()
            };
            let alone = ExactTemplate::with_options(cfg, point_sc, &opts).unwrap();
            assert_eq!(bits(&template), bits(&alone), "{point_sc:?}");
        }
        let work = template.stats();
        assert_eq!((work.explorations, work.pattern_builds), (1, 1), "{sc:?}");
    }
}

/// A CRN-paired burst-vs-baseline comparison on the protocol DES runs all
/// 60 pairs, and comparing a spec with itself differences to bitwise zero.
#[test]
fn paired_compare_counts() {
    let mut base = ScenarioSpec::paper_default(BackendKind::Des);
    base.name = "counts/ab-base".into();
    base.system = hot_system();
    base.stochastic.sampling = SamplingPlan::Fixed(60);
    base.stochastic.max_time = 1.0e6;
    let mut variant = base.clone();
    variant.name = "counts/ab-burst".into();
    variant.scenario = Some(burst());
    let budget = RunBudget::default();
    assert_eq!(compare(&base, &variant, &budget).unwrap().replications, 60);
    let same = compare(&base, &base, &budget).unwrap();
    assert_eq!(same.max_abs_delta_time.to_bits(), 0.0_f64.to_bits());
    assert_eq!(same.max_abs_delta_cost.to_bits(), 0.0_f64.to_bits());
}
