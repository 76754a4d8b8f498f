//! Cross-crate substrate integration: mobility calibration feeding the
//! analytic model, GDH + view synchrony + voting working together, and the
//! voting abstraction validated against executed votes at populations the
//! SPN actually visits.

use gcs::membership::{GroupView, MembershipEvent};
use gcs::rekey::{RekeyPolicy, RekeyScheduler};
use gcs::vsync::ViewSyncChannel;
use gcsids::config::SystemConfig;
use gcsids::metrics::evaluate;
use gcsids::model::{build_model, population, Population};
use ids::host::HostIds;
use ids::voting::{estimate_error_rates, p_false_negative, p_false_positive, VotingConfig};
use manet::{calibrate, CalibrationConfig, MobilityConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn calibration_to_analytic_pipeline() {
    let cal = calibrate(
        &CalibrationConfig {
            duration: 2_000.0,
            seeds: 2,
            mobility: MobilityConfig {
                node_count: 40,
                ..Default::default()
            },
            ..Default::default()
        },
        99,
    );
    let mut cfg = SystemConfig::paper_default();
    cfg.node_count = 30;
    cfg.vote_participants = 3;
    cfg.apply_calibration(&cal);
    cfg.validate().unwrap();
    let e = evaluate(&cfg).unwrap();
    assert!(e.mttsf_seconds > 0.0);
    assert!(e.cost_components.partition_merge.is_finite());
}

#[test]
fn eviction_pipeline_vsync_rekey_secrecy() {
    // A compromised member is evicted: view synchrony flushes the old
    // view's messages, the rekey scheduler refreshes the key, and the
    // evicted node cannot derive the new key.
    let mut rng = StdRng::seed_from_u64(5);
    let view = GroupView::initial(0..8);
    let mut channel: ViewSyncChannel<&str> = ViewSyncChannel::new(view.clone());
    let mut rekey = RekeyScheduler::new(view, RekeyPolicy::Immediate, &mut rng);
    let old_key = rekey.key().unwrap();

    channel.broadcast(3, "pre-eviction message");
    let next = channel.view().apply(&MembershipEvent::Evict(3));
    channel.install_view(next);
    rekey.on_event(10.0, MembershipEvent::Evict(3), &mut rng);

    // forward secrecy: key changed on eviction
    assert_ne!(rekey.key().unwrap(), old_key);
    assert!(!rekey.view().contains(3));
    // the evicted node still got its own old-view message (delivered in the
    // old view), but nothing after
    let inbox = channel.take_inbox(3);
    assert_eq!(inbox.len(), 1);
    channel.broadcast(0, "post-eviction");
    channel.flush();
    assert!(channel.take_inbox(3).is_empty());
    // remaining members share the refreshed key
    for n in [0u32, 1, 2, 4, 5, 6, 7] {
        assert!(rekey.view().contains(n));
    }
}

#[test]
fn analytic_voting_matches_executed_votes_at_spn_populations() {
    // Sample a few populations the SPN's rate functions evaluate and check
    // the closed-form Pfp/Pfn against executed voting rounds.
    let cases = [
        Population {
            trusted: 20,
            undetected: 4,
            groups: 1,
        },
        Population {
            trusted: 40,
            undetected: 8,
            groups: 2,
        },
    ];
    let mut rng = StdRng::seed_from_u64(31);
    for pop in cases {
        let (good_b, bad_b) = pop.per_group_for_bad_target();
        let (good_g, bad_g) = pop.per_group_for_good_target();
        let m = 5;
        let cfg = VotingConfig {
            participants: m,
            host: HostIds::new(0.05, 0.05),
        };
        // Monte-Carlo with the *good-target* composition
        let (fp_mc, _) = estimate_error_rates(&cfg, good_g, bad_g.max(1), 40_000, &mut rng);
        let fp = p_false_positive(good_g, bad_g, m, 0.05);
        assert!(
            (fp - fp_mc).abs() < 0.012,
            "Pfp {fp:.4} vs MC {fp_mc:.4} at {pop:?}"
        );
        let (_, fn_mc) = estimate_error_rates(&cfg, good_b, bad_b, 40_000, &mut rng);
        let fnn = p_false_negative(good_b, bad_b, m, 0.05);
        assert!(
            (fnn - fn_mc).abs() < 0.012,
            "Pfn {fnn:.4} vs MC {fn_mc:.4} at {pop:?}"
        );
    }
}

#[test]
fn model_rates_consistent_with_components() {
    // T_IDS + T_FA rate at the initial marking equals N·D(1)·Pfp since no
    // node is compromised yet (T_IDS disabled, only false alarms possible).
    let mut cfg = SystemConfig::paper_default();
    cfg.node_count = 50;
    let model = build_model(&cfg);
    let init = model.net.initial_marking();
    let pop = population(&model.places, &init);
    assert_eq!(pop.trusted, 50);
    let mut enabled = Vec::new();
    model.net.enabled_timed(&init, &mut enabled).unwrap();
    let t_fa_rate = enabled
        .iter()
        .find(|&&(t, _)| model.net.transition_name(t) == "T_FA")
        .map(|&(_, r)| r)
        .expect("T_FA enabled initially");
    let d = cfg.detection.rate(cfg.node_count, 50, 0);
    let pfp = ids::voting::p_false_positive(50, 0, cfg.vote_participants, 0.01);
    assert!((t_fa_rate - 50.0 * d * pfp).abs() < 1e-12 * t_fa_rate.max(1e-30));
}

#[test]
fn gdh_scales_to_paper_group_size() {
    // One full agreement among 100 members with real modular arithmetic.
    let ids_: Vec<u32> = (0..100).collect();
    let mut rng = StdRng::seed_from_u64(77);
    let mut s = gcs::gdh::GdhSession::new(&ids_, &mut rng);
    let key = s.run();
    for &id in &ids_ {
        assert_eq!(s.key_of(id), Some(key));
    }
    assert_eq!(s.measured_cost(), gcs::gdh::RekeyCost::for_group_size(100));
}

#[test]
fn structural_analysis_proves_node_conservation() {
    // State-space-free proof that the paper's net never creates or
    // destroys nodes: Tm + UCm + DCm is a P-invariant.
    let cfg = SystemConfig::paper_default();
    let model = build_model(&cfg);
    let report = spn::structural::analyze(&model.net);
    let node_invariant: Vec<i64> = vec![1, 1, 1, 0, 0]; // Tm, UCm, DCm, GF, NG
    assert!(
        report.p_invariants.contains(&node_invariant),
        "expected node-conservation invariant, got {:?}",
        report.p_invariants
    );
    // GF only accumulates and NG is a birth–death counter: neither can be
    // covered, so the net is not structurally bounded as a whole (it is
    // bounded in practice by the absorbing conditions and the NG guard).
    assert!(!report.covers_all_places());
    assert_eq!(
        report.invariant_value(
            report
                .p_invariants
                .iter()
                .position(|i| i == &node_invariant)
                .unwrap(),
            &model.net.initial_marking(),
        ),
        cfg.node_count as i64
    );
}
