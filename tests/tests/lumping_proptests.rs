//! Property-based pinning of symmetry lumping on clustered deployments.
//!
//! On small random clustered systems the lumped quotient chain must
//! reproduce the unlumped flat chain's MTTSF, failure split, cost rewards,
//! and full mission-survival grid within solver tolerance — while strictly
//! shrinking the state space whenever at least two clusters share an orbit
//! — and the hierarchical order-statistic composition must agree with the
//! flat lumped solution wherever both paths apply.

use gcsids::clustered::{
    evaluate_clustered_graph, evaluate_clustered_with_survival, ClusteredPath,
};
use gcsids::config::{ClusterTopology, SystemConfig};
use gcsids::model::{build_clustered_model, build_model};
use proptest::prelude::*;
use spn::reach::{explore, ExploreOptions};

/// A tiny, fast-failing system so the unlumped flat product space stays
/// explorable (its size is d^clusters — the very thing lumping removes).
fn small_cfg(node_count: u32, rate_scale: f64, tids: f64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.node_count = node_count;
    cfg.vote_participants = 3;
    cfg.max_groups = 1;
    cfg.attacker.base_rate = rate_scale / 600.0;
    cfg.detection = cfg.detection.with_interval(tids);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Lumped flat == unlumped flat, on every reported metric, with a
    // strict state-count shrink.
    #[test]
    fn lumped_flat_matches_unlumped_flat(
        node_count in 4u32..=5,
        clusters in 2u32..=3,
        k_raw in 0u32..3,
        rate_scale in 0.5f64..2.5,
        tids in 60.0f64..400.0,
    ) {
        let cfg = small_cfg(node_count, rate_scale, tids);
        let topo = ClusterTopology {
            clusters,
            failure_threshold: 1 + k_raw % clusters,
        };
        let opts = ExploreOptions::default();

        // Unlumped reference: explore the flat clustered net as-is.
        let model = build_clustered_model(&cfg, &topo);
        let flat_graph = explore(&model.net, &opts).unwrap();
        let (probe, _) = evaluate_clustered_graph(&model, &flat_graph, &[]).unwrap();
        let m = probe.mttsf_seconds;
        prop_assert!(m.is_finite() && m > 0.0);
        let grid = [0.0, 0.5 * m, m, 2.0 * m];
        let (unlumped, s_unlumped) =
            evaluate_clustered_graph(&model, &flat_graph, &grid).unwrap();

        let lumped = evaluate_clustered_with_survival(&cfg, &topo, &grid, &opts).unwrap();
        prop_assert_eq!(lumped.stats.path, ClusteredPath::FlatLumped);

        // ≥2 clusters always share the one orbit here — the quotient must
        // be strictly smaller, and the bookkeeping must say why.
        prop_assert!(
            lumped.evaluation.state_count < unlumped.state_count,
            "lumped {} vs unlumped {}",
            lumped.evaluation.state_count,
            unlumped.state_count
        );
        prop_assert_eq!(lumped.stats.orbit_members, clusters as usize);
        prop_assert!(lumped.stats.reduction > 1.0);

        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(f64::MIN_POSITIVE);
        prop_assert!(
            rel(lumped.evaluation.mttsf_seconds, unlumped.mttsf_seconds) < 1e-8,
            "MTTSF {} vs {}",
            lumped.evaluation.mttsf_seconds,
            unlumped.mttsf_seconds
        );
        prop_assert!(
            rel(
                lumped.evaluation.c_total_hop_bits_per_sec,
                unlumped.c_total_hop_bits_per_sec
            ) < 1e-8
        );
        // componentwise too: the rekey component carries the eviction
        // impulses, the most lumping-sensitive reward
        let lc = lumped.evaluation.cost_components;
        let uc = unlumped.cost_components;
        prop_assert!(rel(lc.total(), uc.total()) < 1e-8);
        prop_assert!((lc.rekey - uc.rekey).abs() <= 1e-8 * (1.0 + uc.rekey.abs()));
        prop_assert!(
            (lumped.evaluation.p_failure_c1 - unlumped.p_failure_c1).abs() < 1e-8
        );
        let s_lumped = lumped.survival.as_ref().unwrap();
        let s_unlumped = s_unlumped.as_ref().unwrap();
        for (a, b) in s_lumped.iter().zip(s_unlumped) {
            prop_assert!((a - b).abs() < 1e-8, "survival {} vs {}", a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The hierarchical composition (forced by a state budget that only
    // admits the single-cluster chain) agrees with the flat lumped
    // solution to quadrature precision.
    #[test]
    fn hierarchical_composition_agrees_with_flat_lumped(
        clusters in 2u32..=3,
        k_raw in 0u32..3,
        rate_scale in 0.8f64..2.0,
    ) {
        let cfg = small_cfg(4, rate_scale, 120.0);
        let topo = ClusterTopology {
            clusters,
            failure_threshold: 1 + k_raw % clusters,
        };

        let flat = evaluate_clustered_with_survival(
            &cfg,
            &topo,
            &[],
            &ExploreOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(flat.stats.path, ClusteredPath::FlatLumped);
        let m = flat.evaluation.mttsf_seconds;
        let grid = [0.0, 0.5 * m, m, 2.0 * m];
        let flat = evaluate_clustered_with_survival(
            &cfg,
            &topo,
            &grid,
            &ExploreOptions::default(),
        )
        .unwrap();

        // A budget of exactly the single-cluster chain size admits the
        // cluster exploration but never the flat quotient.
        let d = explore(&build_model(&cfg).net, &ExploreOptions::default())
            .unwrap()
            .state_count();
        let hier = evaluate_clustered_with_survival(
            &cfg,
            &topo,
            &grid,
            &ExploreOptions {
                max_states: d + 1,
                ..Default::default()
            },
        )
        .unwrap();
        prop_assert_eq!(hier.stats.path, ClusteredPath::Hierarchical);
        prop_assert!(hier.evaluation.state_count < flat.evaluation.state_count);

        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(f64::MIN_POSITIVE);
        prop_assert!(
            rel(hier.evaluation.mttsf_seconds, flat.evaluation.mttsf_seconds) < 1e-3,
            "MTTSF {} vs {}",
            hier.evaluation.mttsf_seconds,
            flat.evaluation.mttsf_seconds
        );
        // Cost and cause come off the same quadrature grid as the MTTSF.
        // A scan of the whole domain (every topology, 49 rate scales) peaks
        // at rate scale 0.8 with 2.7e-8 relative on cost and 2.7e-9
        // absolute on P_C1: both bounds keep a margin of about 3.7×.
        prop_assert!(
            rel(
                hier.evaluation.c_total_hop_bits_per_sec,
                flat.evaluation.c_total_hop_bits_per_sec
            ) < 1e-7,
            "cost {} vs {}",
            hier.evaluation.c_total_hop_bits_per_sec,
            flat.evaluation.c_total_hop_bits_per_sec
        );
        prop_assert!(
            (hier.evaluation.p_failure_c1 - flat.evaluation.p_failure_c1).abs() < 1e-8,
            "P_C1 {} vs {}",
            hier.evaluation.p_failure_c1,
            flat.evaluation.p_failure_c1
        );
        let sh = hier.survival.as_ref().unwrap();
        let sf = flat.survival.as_ref().unwrap();
        for (a, b) in sh.iter().zip(sf) {
            prop_assert!((a - b).abs() < 1e-4, "survival {} vs {}", a, b);
        }
    }
}
