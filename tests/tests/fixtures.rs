//! Golden-fixture tests for the engine's on-disk JSON formats.
//!
//! `fixtures/specs/` holds scenario specs (consumed by the `runner`
//! cross-validation binary and the harness tests); `fixtures/reports/`
//! holds run reports, including the all-censored null-encoding edge case
//! for the `survival` field. Both are committed in canonical encoding, so
//! parse → re-encode must reproduce every file byte-for-byte.
//!
//! `fixtures/goldens/` holds computed reports: the exact report of every
//! committed spec, its spn-sim and des reports at the CI cross-validation
//! replication budget, and its mobility-des report (where the spec is
//! valid on that backend) at a smaller cap. They pin the numbers, not just
//! the format, so a refactor of the net builders, the reward pipeline or
//! the protocol simulators that moves any result by one bit fails
//! `report_goldens_match_computed_reports`.
//!
//! Regenerate after an intentional format or model change with:
//! `cargo test -p integration-tests regenerate_fixtures -- --ignored`

use engine::{
    backend_for, BackendKind, Estimate, RunBudget, RunReport, SamplingPlan, ScenarioSpec,
};
use std::fs;
use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn json_files(sub: &str) -> Vec<PathBuf> {
    let dir = fixtures_dir().join(sub);
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures in {}", dir.display());
    files
}

/// The committed scenario specs, as built by the regeneration test.
fn fixture_specs() -> Vec<(&'static str, ScenarioSpec)> {
    // Accelerated 12-node system: fails within ~1e5 s, so stochastic
    // backends finish quickly even at full replication counts.
    let hot = {
        let mut spec = ScenarioSpec::paper_default(BackendKind::Exact);
        spec.system.node_count = 12;
        spec.system.vote_participants = 3;
        spec.system.attacker.base_rate = 1.0 / 600.0;
        spec.system.detection = spec.system.detection.with_interval(120.0);
        spec.stochastic.sampling = SamplingPlan::Fixed(400);
        spec
    };

    // The hot system's exact MTTSF is ≈5.0e3 s; this grid spans the
    // decay region (S ≈ 1 … ≈0.15) rather than the dead tail.
    let mut mission = hot.clone();
    mission.name = "hot-mission".into();
    mission.mission_times = vec![0.0, 1.0e3, 3.0e3, 6.0e3, 1.0e4];
    mission.stochastic.max_time = 1.1e4;

    let mut longrun = hot.clone();
    longrun.name = "hot-longrun".into();
    longrun.stochastic.max_time = 5.0e6;

    // Adaptive sampling: replications chosen at runtime to a 10% relative
    // MTTSF CI half-width (95% level), with a shallow mission grid so the
    // survival comparison runs too. Exercises the `sampling` spec encoding
    // end-to-end through the crossval harness.
    let mut adaptive = hot.clone();
    adaptive.name = "hot-adaptive".into();
    adaptive.stochastic.max_time = 5.0e6;
    adaptive.stochastic.sampling = SamplingPlan::Adaptive {
        target_rel_halfwidth: 0.10,
        min: 100,
        max: 400,
        batch: 100,
    };
    adaptive.mission_times = vec![0.0, 1.0e3, 3.0e3];

    let mut collusion = mission.clone();
    collusion.name = "collusion-none-mission".into();
    collusion.system.collusion = ids::voting::CollusionModel::None;
    collusion.system = collusion
        .system
        .with_detection_shape(ids::functions::RateShape::Polynomial);

    // Clustered deployment: ten hot 12-node clusters (120 nodes total),
    // the system failing at the third cluster failure. The unlumped flat
    // product space is ~d^10 states — far beyond any budget — so only the
    // symmetry-lumped/composed exact path can solve it; the stochastic
    // backends check it via independent per-cluster replications composed
    // by failure order statistics. The hot cluster MTTSF is ≈5.0e3 s, so
    // the 3-of-10 system fails around ≈1.7e3 s; the grid spans that decay.
    let mut clustered = hot.clone();
    clustered.name = "clustered-mission".into();
    clustered.clustered = Some(engine::ClusterTopology {
        clusters: 10,
        failure_threshold: 3,
    });
    clustered.mission_times = vec![0.0, 4.0e2, 1.0e3, 2.0e3, 4.0e3];
    clustered.stochastic.max_time = 1.0e5;

    // Adversary & response scenario fixtures: one per attacker strategy
    // and one per response policy, all on the hot system with the same
    // mission grid and stochastic options, so ANY pair of them forms a
    // valid CRN-paired A/B comparison (`engine::compare` requires
    // identical grids and options on both arms). Exact MTTSFs — baseline
    // ≈5.0e3 s, burst ≈3.3e3, stealth ≈3.0e3, targeted ≈4.9e3,
    // quarantine ≈5.1e3, throttle ≈3.0e3 — all inside the hot-mission
    // grid's decay region, so the crossval survival checks bite.
    let ab = |name: &'static str, sc: engine::ScenarioConfig| {
        let mut s = mission.clone();
        s.name = name.into();
        s.scenario = Some(sc);
        s
    };
    use engine::{AttackerStrategy, ResponsePolicy, ScenarioConfig};
    let ab_baseline = ab("ab-baseline", ScenarioConfig::baseline());
    let ab_burst = ab(
        "ab-burst",
        ScenarioConfig {
            attacker: AttackerStrategy::Burst {
                on_rate: 1.0 / 5.0e3,
                off_rate: 1.0 / 5.0e3,
                multiplier: 6.0,
            },
            response: ResponsePolicy::Evict,
        },
    );
    let ab_stealth = ab(
        "ab-stealth",
        ScenarioConfig {
            attacker: AttackerStrategy::Stealth {
                rate_factor: 0.5,
                evasion: 0.3,
            },
            response: ResponsePolicy::Evict,
        },
    );
    let ab_targeted = ab(
        "ab-targeted",
        ScenarioConfig {
            attacker: AttackerStrategy::Targeted { focus: 0.8 },
            response: ResponsePolicy::Evict,
        },
    );
    let ab_quarantine = ab(
        "ab-quarantine",
        ScenarioConfig {
            attacker: AttackerStrategy::Baseline,
            response: ResponsePolicy::QuarantineRejoin {
                release_rate: 1.0 / 2.0e3,
                false_release_prob: 0.1,
            },
        },
    );
    let ab_throttle = ab(
        "ab-throttle",
        ScenarioConfig {
            attacker: AttackerStrategy::Baseline,
            response: ResponsePolicy::RekeyThrottle {
                max_rate: 1.0 / 1.0e3,
            },
        },
    );

    vec![
        ("hot-mission.json", mission.clone()),
        ("hot-longrun.json", longrun),
        ("hot-adaptive.json", adaptive),
        ("collusion-none-mission.json", collusion),
        ("clustered-mission.json", clustered),
        ("ab-baseline.json", ab_baseline),
        ("ab-burst.json", ab_burst),
        ("ab-stealth.json", ab_stealth),
        ("ab-targeted.json", ab_targeted),
        ("ab-quarantine.json", ab_quarantine),
        ("ab-throttle.json", ab_throttle),
    ]
}

/// The committed run reports: one exact-shaped (cost components + exact
/// survival), one stochastic-shaped exercising the all-censored /
/// non-finite null-encoding path of the `survival` and `mttsf` fields.
fn fixture_reports() -> Vec<(&'static str, RunReport)> {
    let exact = RunReport {
        scenario: "fixture/exact".into(),
        backend: BackendKind::Exact,
        mttsf: Estimate::exact(86_400.0),
        c_total: Estimate::exact(2_048.5),
        cost_components: Some(gcsids::cost::CostBreakdown {
            group_comm: 1000.0,
            status: 500.25,
            rekey: 300.0,
            ids: 150.0,
            beacon: 73.25,
            partition_merge: 25.0,
        }),
        failure: engine::FailureSplit {
            p_c1: 0.625,
            p_c2: 0.375,
            p_other: 0.0,
        },
        state_count: Some(1234),
        edge_count: Some(5678),
        // exact-backend clustered runs record the lumping reduction factor
        lumping_reduction: Some(512.0),
        replications: None,
        censored: None,
        zero_duration: None,
        target_met: None,
        survival: Some(vec![
            (0.0, Estimate::exact(1.0)),
            (43_200.0, Estimate::exact(0.625)),
            (86_400.0, Estimate::exact(0.375)),
        ]),
        wall_seconds: 0.125,
        // absent on purpose: the committed fixture bytes predate (and must
        // survive) the cross-request template cache — the key is omitted
        template_cache: None,
        // exact runs with a mission grid carry transient-engine telemetry,
        // including the null encoding of a never-fired detection step
        transient: Some(engine::TransientInfo {
            matvecs: 4096,
            detection_step: None,
            early_exit: false,
            transient_states: 617,
            absorbing_states: 617,
        }),
        detection: None,
    };

    let all_censored = RunReport {
        scenario: "fixture/des-all-censored".into(),
        backend: BackendKind::Des,
        // every replication censored: MTTSF not estimable → null
        mttsf: Estimate {
            value: f64::NAN,
            ci: None,
        },
        c_total: Estimate {
            value: 1_900.0,
            ci: Some((1_800.0, 2_000.0)),
        },
        cost_components: None,
        failure: engine::FailureSplit::default(),
        state_count: None,
        edge_count: None,
        lumping_reduction: None,
        replications: Some(8),
        censored: Some(8),
        zero_duration: Some(0),
        target_met: None,
        survival: Some(vec![
            // t = 0: zero-variance proportion — value 1.0 with finite
            // Wilson bounds, never NaN
            (0.0, Estimate::proportion(8, 8, 0.95)),
            // beyond the horizon: nothing at risk → null value, no interval
            (1.0e6, Estimate::proportion(0, 0, 0.95)),
        ]),
        wall_seconds: 0.5,
        template_cache: None,
        // stochastic backends never carry transient telemetry
        transient: None,
        detection: None,
    };

    vec![
        ("exact.json", exact),
        ("des-all-censored.json", all_censored),
    ]
}

/// Replication cap of the spn-sim and des goldens: the CI
/// cross-validation budget (`runner --max-replications 120`).
const GOLDEN_REPLICATIONS: u64 = 120;

/// Replication cap of the mobility-des goldens. Every replication rebuilds
/// connectivity once per mobility step and, in a debug build, recounts
/// its components after each step to check the driver's cached counts,
/// so the cap is kept small enough for the golden check to stay a few
/// seconds in a debug build.
const MOBILITY_GOLDEN_REPLICATIONS: u64 = 8;

/// The computed report goldens, as `(file name, canonical JSON)`: for every
/// committed spec, its exact report and its spn-sim and des reports capped
/// at [`GOLDEN_REPLICATIONS`], plus its mobility-des report capped at
/// [`MOBILITY_GOLDEN_REPLICATIONS`] when the spec is valid on that backend
/// (no clustered variant, eviction response only). `wall_seconds` and
/// `template_cache` depend on the run, not the model, so they are reset
/// before encoding.
fn computed_goldens() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for path in json_files("specs") {
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).unwrap();
        let spec = ScenarioSpec::from_json(text.trim_end()).unwrap();
        for kind in [
            BackendKind::Exact,
            BackendKind::SpnSim,
            BackendKind::Des,
            BackendKind::MobilityDes,
        ] {
            let mut s = spec.clone();
            s.backend = kind;
            if kind == BackendKind::MobilityDes && s.validate().is_err() {
                continue;
            }
            let cap = match kind {
                BackendKind::MobilityDes => MOBILITY_GOLDEN_REPLICATIONS,
                _ => GOLDEN_REPLICATIONS,
            };
            let budget = RunBudget {
                max_replications: Some(cap),
                ..RunBudget::default()
            };
            let mut report = backend_for(kind)
                .run(&s, &budget)
                .unwrap_or_else(|e| panic!("{stem} on {}: {e}", kind.name()));
            report.wall_seconds = 0.0;
            report.template_cache = None;
            out.push((format!("{stem}.{}.json", kind.name()), report.to_json()));
        }
    }
    out
}

/// Writes the canonical fixture files. Run explicitly after intentional
/// format changes; the golden tests below pin the committed bytes.
#[test]
#[ignore = "fixture regeneration tool, not a check"]
fn regenerate_fixtures() {
    let specs = fixtures_dir().join("specs");
    let reports = fixtures_dir().join("reports");
    fs::create_dir_all(&specs).unwrap();
    fs::create_dir_all(&reports).unwrap();
    for (name, spec) in fixture_specs() {
        fs::write(specs.join(name), spec.to_json() + "\n").unwrap();
    }
    for (name, report) in fixture_reports() {
        fs::write(reports.join(name), report.to_json() + "\n").unwrap();
    }
    let goldens = fixtures_dir().join("goldens");
    fs::create_dir_all(&goldens).unwrap();
    for (name, json) in computed_goldens() {
        fs::write(goldens.join(name), json + "\n").unwrap();
    }
}

#[test]
fn report_goldens_match_computed_reports() {
    let computed = computed_goldens();
    assert_eq!(
        computed.len(),
        json_files("goldens").len(),
        "golden set drifted (run regenerate_fixtures)"
    );
    for (name, json) in computed {
        let path = fixtures_dir().join("goldens").join(&name);
        let text = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (run regenerate_fixtures)", path.display()));
        assert_eq!(text.trim_end(), json, "{name} moved");
    }
}

#[test]
fn spec_fixtures_roundtrip_byte_for_byte() {
    for path in json_files("specs") {
        let text = fs::read_to_string(&path).unwrap();
        let spec = ScenarioSpec::from_json(text.trim_end())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            spec.to_json(),
            text.trim_end(),
            "{} is not canonical",
            path.display()
        );
    }
}

#[test]
fn spec_fixtures_match_generator() {
    // the committed files are exactly what the regeneration tool writes —
    // catches drift between the generator and the repository
    for (name, spec) in fixture_specs() {
        let path = fixtures_dir().join("specs").join(name);
        let text = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (run regenerate_fixtures)", path.display()));
        assert_eq!(text.trim_end(), spec.to_json(), "{name} drifted");
    }
}

#[test]
fn report_fixtures_roundtrip_byte_for_byte() {
    for path in json_files("reports") {
        let text = fs::read_to_string(&path).unwrap();
        let report = RunReport::from_json(text.trim_end())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            report.to_json(),
            text.trim_end(),
            "{} is not canonical",
            path.display()
        );
    }
}

#[test]
fn all_censored_report_fixture_exercises_null_encoding() {
    let path = fixtures_dir().join("reports").join("des-all-censored.json");
    let text = fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"mttsf\":{\"value\":null}"));
    assert!(text.contains("\"value\":null"));
    let report = RunReport::from_json(text.trim_end()).unwrap();
    assert!(report.mttsf.value.is_nan());
    let survival = report.survival.as_ref().unwrap();
    // zero-variance t = 0 point: finite Wilson bounds, no NaN
    assert_eq!(survival[0].1.value, 1.0);
    let (lo, hi) = survival[0].1.ci.unwrap();
    assert!(!lo.is_nan() && (hi - 1.0).abs() < 1e-12 && lo < 1.0);
    // beyond-horizon point: NaN marker, no interval
    assert!(survival[1].1.value.is_nan());
    assert_eq!(survival[1].1.ci, None);
}
