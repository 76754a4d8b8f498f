//! Scenario-modulated exact evaluation.
//!
//! The scenario nets come from the one block builder in [`crate::model`]
//! ([`crate::model::build_scenario_model`]), which resolves the two axes
//! of the [`scenario`] crate while it builds the paper's Figure-1 block:
//!
//! - **Attacker strategies.** `stealth` is a pure configuration transform
//!   ([`scenario_system`]) — reduced capture intensity, raised effective
//!   host false-negative probability — so it needs no structural change.
//!   `targeted` modulates the `T_CP` rate and the voting collusion
//!   probability with the adversary's foothold `U/(T+U)` via the shared
//!   closed forms in [`scenario`]. `burst` adds an attacker-mode place
//!   `AM` with an on/off exponential race (`T_BURST_ON`/`T_BURST_OFF`)
//!   multiplying the capture rate while active.
//! - **Response policies.** `quarantine-and-rejoin` adds places
//!   `QGm`/`QBm` holding convicted good/compromised nodes, with release
//!   transitions `T_REL_G` (good node rejoins), `T_REL_B` (compromised
//!   node falsely released back into the group), and `T_CONF_B`
//!   (compromised node confirmed and permanently evicted).
//!   `rekey-throttle` adds a pending-rekey queue `PRm`: convictions still
//!   remove the node but the excluding rekey is served one at a time by
//!   `T_RKSRV` at the configured maximum rate, and while pending the stale
//!   key leaks group data via `T_SLK` (a C1 failure path).
//!
//! With both axes at baseline the builder yields the paper's net itself
//! ([`crate::model::build_model`] is that call). Every single-system net
//! is solved by [`crate::metrics::ExactTemplate`]; [`evaluate_scenario_graph`]
//! is its independent oracle, on a fresh exploration's own edge rates.

use crate::config::SystemConfig;
use crate::metrics::{evaluate_with_ctmc, Evaluation, RewardKeys, ShareSource};
use crate::model::GcsIdsModel;
use scenario::{AttackerStrategy, ScenarioConfig};
use spn::ctmc::Ctmc;
use spn::error::SpnError;
use spn::reach::ReachabilityGraph;

/// The stationary part of a scenario applied to the configuration: a
/// stealth attacker captures at `rate_factor` of the baseline intensity
/// and raises the effective host false-negative probability to
/// `p1 + (1 − p1)·evasion`. Every backend (exact, SPN-sim, both DES) runs
/// on this transformed configuration, so the stealth axis is consistent
/// across them by construction.
pub fn scenario_system(cfg: &SystemConfig, sc: &ScenarioConfig) -> SystemConfig {
    let mut out = cfg.clone();
    if let AttackerStrategy::Stealth {
        rate_factor,
        evasion,
    } = sc.attacker
    {
        out.attacker.base_rate *= rate_factor;
        out.p1_host_false_negative =
            scenario::stealth_effective_p1(out.p1_host_false_negative, evasion);
    }
    out
}

/// Expected transition-firing totals over one absorption run of the exact
/// chain: `E[#T_CP]` (compromises), `E[#T_IDS]` (true detections),
/// `E[#T_FA]` (false alarms), each `Σᵢ sojournᵢ · rateᵢ` over the CTMC
/// edges.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DetectionTotals {
    /// Expected compromises until failure.
    pub compromises: f64,
    /// Expected true detections (convictions of compromised nodes).
    pub detections: f64,
    /// Expected false alarms (convictions of trusted nodes).
    pub false_alarms: f64,
}

/// Evaluate a model on an already-explored graph — the oracle of the exact
/// pipeline: the graph's own edge rates in a [`Ctmc::from_graph`] chain,
/// the reward core (which charges the response policy's rekey actions),
/// and the detection-quality firing totals read off the sojourn vector.
/// [`crate::metrics::ExactTemplate`] reproduces it bit for bit.
///
/// # Errors
/// Propagates solver failures.
pub fn evaluate_scenario_graph(
    model: &GcsIdsModel,
    graph: &ReachabilityGraph,
    mission_times: &[f64],
) -> Result<(Evaluation, Option<Vec<f64>>, DetectionTotals), SpnError> {
    let ctmc = Ctmc::from_graph(graph)?;
    let keys = RewardKeys::population(&graph.states, &model.places);
    let leaked = |s: usize| graph.states[s].tokens(model.places.gf) > 0;
    let (evaluation, survival, absorption) = evaluate_with_ctmc(
        model,
        &graph.states,
        graph,
        &ctmc,
        &keys,
        leaked,
        mission_times,
    )?;
    let detection = detection_totals(model, graph, &absorption.sojourn)?;
    Ok((evaluation, survival, detection))
}

/// Detection-quality totals: the expected firings of `T_CP`, `T_IDS` and
/// `T_FA`, summed in state order over the states of positive sojourn, each
/// share's rate times the sojourn. Those transitions always move a token,
/// so their shares are edges, never self-loops; only enabled transitions
/// have shares, so disabled-state rates contribute nothing.
pub(crate) fn detection_totals(
    model: &GcsIdsModel,
    shares: &impl ShareSource,
    sojourn: &[f64],
) -> Result<DetectionTotals, SpnError> {
    let lookup = |name: &str| {
        model
            .net
            .transition_by_name(name)
            .ok_or_else(|| SpnError::InvalidModel(format!("missing transition {name}")))
    };
    let t_cp = lookup("T_CP")?;
    let t_ids = lookup("T_IDS")?;
    let t_fa = lookup("T_FA")?;
    let mut detection = DetectionTotals::default();
    for (i, &s) in sojourn.iter().enumerate() {
        if s <= 0.0 {
            continue;
        }
        shares.for_each_share(i, |t, rate| {
            if t == t_cp {
                detection.compromises += s * rate;
            } else if t == t_ids {
                detection.detections += s * rate;
            } else if t == t_fa {
                detection.false_alarms += s * rate;
            }
        });
    }
    Ok(detection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate;
    use crate::model::build_scenario_model;
    use scenario::ResponsePolicy;

    /// One-shot scenario evaluation: validate, build, explore, evaluate.
    fn evaluate_scenario(
        cfg: &SystemConfig,
        sc: &ScenarioConfig,
        mission_times: &[f64],
    ) -> Result<(Evaluation, Option<Vec<f64>>, DetectionTotals), SpnError> {
        cfg.validate().map_err(SpnError::InvalidModel)?;
        sc.validate().map_err(SpnError::InvalidModel)?;
        let model = build_scenario_model(cfg, sc);
        let graph = spn::reach::explore(&model.net, &spn::reach::ExploreOptions::default())?;
        evaluate_scenario_graph(&model, &graph, mission_times)
    }

    fn small(n: u32) -> SystemConfig {
        let mut c = SystemConfig::paper_default();
        c.node_count = n;
        c.vote_participants = 3;
        c.detection = c.detection.with_interval(120.0);
        c
    }

    fn sc(attacker: AttackerStrategy, response: ResponsePolicy) -> ScenarioConfig {
        ScenarioConfig { attacker, response }
    }

    #[test]
    fn baseline_scenario_matches_paper_net() {
        // The baseline scenario builds the paper's net, and the template
        // path reproduces the oracle on it bit for bit, detection totals
        // included.
        use crate::metrics::ExactTemplate;
        use spn::reach::{explore, ExploreOptions};
        let bits = |e: &Evaluation| {
            let c = e.cost_components;
            [
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
            ]
            .map(f64::to_bits)
        };
        let det_bits =
            |d: &DetectionTotals| [d.compromises, d.detections, d.false_alarms].map(f64::to_bits);
        let baseline = ScenarioConfig::baseline();
        for n in [8, 12, 20] {
            let cfg = small(n);
            let times = [1.0e3, 1.0e4, 1.0e5];
            let m = build_scenario_model(&cfg, &baseline);
            assert_eq!(m.net.place_count(), 5);
            assert_eq!(m.net.transition_count(), 7);
            let g = explore(&m.net, &ExploreOptions::default()).unwrap();
            let (e, surv, det) = evaluate_scenario_graph(&m, &g, &times).unwrap();

            let template =
                ExactTemplate::with_options(&cfg, &baseline, &ExploreOptions::default()).unwrap();
            let (base, base_surv, base_det) = template
                .evaluate_with_survival(&cfg, Some(&baseline), &times)
                .unwrap();

            assert_eq!(bits(&e), bits(&base), "N={n}");
            assert_eq!(e.state_count, base.state_count);
            assert_eq!(e.edge_count, base.edge_count);
            let to_bits = |s: Vec<f64>| s.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(to_bits(surv.unwrap()), to_bits(base_surv.unwrap()), "N={n}");
            assert_eq!(det_bits(&det), det_bits(&base_det.unwrap()), "N={n}");
            assert!(det.compromises > 0.0 && det.detections > 0.0 && det.false_alarms > 0.0);
        }
    }

    #[test]
    fn stealth_transform_applies_factor_and_evasion() {
        let cfg = small(12);
        let s = sc(
            AttackerStrategy::Stealth {
                rate_factor: 0.5,
                evasion: 0.3,
            },
            ResponsePolicy::Evict,
        );
        let eff = scenario_system(&cfg, &s);
        assert!((eff.attacker.base_rate - cfg.attacker.base_rate * 0.5).abs() < 1e-15);
        let expect = 0.01 + 0.99 * 0.3;
        assert!((eff.p1_host_false_negative - expect).abs() < 1e-12);
    }

    #[test]
    fn burst_adds_mode_place_and_phase_race() {
        let cfg = small(10);
        let s = sc(
            AttackerStrategy::Burst {
                on_rate: 1.0 / 3600.0,
                off_rate: 1.0 / 1800.0,
                multiplier: 4.0,
            },
            ResponsePolicy::Evict,
        );
        let m = build_scenario_model(&cfg, &s);
        assert_eq!(m.net.place_count(), 6);
        assert!(m.net.transition_by_name("T_BURST_ON").is_some());
        assert!(m.net.transition_by_name("T_BURST_OFF").is_some());
        // A bursting attacker fails the system faster than baseline.
        let (burst, _, _) = evaluate_scenario(&cfg, &s, &[]).unwrap();
        let base = evaluate(&cfg).unwrap();
        assert!(burst.mttsf_seconds < base.mttsf_seconds);
    }

    #[test]
    fn targeted_attacker_lowers_mttsf() {
        let cfg = small(12);
        let s = sc(
            AttackerStrategy::Targeted { focus: 0.8 },
            ResponsePolicy::Evict,
        );
        let (e, _, _) = evaluate_scenario(&cfg, &s, &[]).unwrap();
        let base = evaluate(&cfg).unwrap();
        assert!(e.mttsf_seconds < base.mttsf_seconds);
        // focus = 0 is exactly baseline
        let z = sc(
            AttackerStrategy::Targeted { focus: 0.0 },
            ResponsePolicy::Evict,
        );
        let (e0, _, _) = evaluate_scenario(&cfg, &z, &[]).unwrap();
        assert!((e0.mttsf_seconds - base.mttsf_seconds).abs() < 1e-9 * base.mttsf_seconds);
    }

    #[test]
    fn quarantine_conserves_population_and_can_rejoin() {
        let cfg = small(10);
        let s = sc(
            AttackerStrategy::Baseline,
            ResponsePolicy::QuarantineRejoin {
                release_rate: 1.0 / 600.0,
                false_release_prob: 0.1,
            },
        );
        let m = build_scenario_model(&cfg, &s);
        assert_eq!(m.net.place_count(), 7);
        for t in ["T_REL_G", "T_REL_B", "T_CONF_B"] {
            assert!(m.net.transition_by_name(t).is_some(), "missing {t}");
        }
        let g = spn::reach::explore(&m.net, &spn::reach::ExploreOptions::default()).unwrap();
        let qg = m.quarantine_good.unwrap();
        let qb = m.quarantine_bad.unwrap();
        let mut saw_quarantined = false;
        for st in &g.states {
            let total = st.tokens(m.places.tm)
                + st.tokens(m.places.ucm)
                + st.tokens(m.places.dcm)
                + st.tokens(qg)
                + st.tokens(qb);
            assert_eq!(total, 10);
            saw_quarantined |= st.tokens(qg) + st.tokens(qb) > 0;
        }
        assert!(saw_quarantined);
    }

    #[test]
    fn throttle_queue_is_bounded_and_leaks() {
        let cfg = small(10);
        let s = sc(
            AttackerStrategy::Baseline,
            ResponsePolicy::RekeyThrottle {
                max_rate: 1.0 / 300.0,
            },
        );
        let m = build_scenario_model(&cfg, &s);
        assert!(m.net.transition_by_name("T_RKSRV").is_some());
        assert!(m.net.transition_by_name("T_SLK").is_some());
        let g = spn::reach::explore(&m.net, &spn::reach::ExploreOptions::default()).unwrap();
        let pr = m.pending_rekeys.unwrap();
        for st in &g.states {
            assert!(st.tokens(pr) <= 10);
        }
        // The stale-key window adds a C1 path: C1 share grows vs baseline.
        let (e, _, _) = evaluate_scenario(&cfg, &s, &[]).unwrap();
        let base = evaluate(&cfg).unwrap();
        assert!(e.p_failure_c1 > base.p_failure_c1);
    }

    #[test]
    fn quarantine_with_high_false_release_is_weaker() {
        let cfg = small(10);
        let lo = sc(
            AttackerStrategy::Baseline,
            ResponsePolicy::QuarantineRejoin {
                release_rate: 1.0 / 600.0,
                false_release_prob: 0.0,
            },
        );
        let hi = sc(
            AttackerStrategy::Baseline,
            ResponsePolicy::QuarantineRejoin {
                release_rate: 1.0 / 600.0,
                false_release_prob: 0.8,
            },
        );
        let (e_lo, _, _) = evaluate_scenario(&cfg, &lo, &[]).unwrap();
        let (e_hi, _, _) = evaluate_scenario(&cfg, &hi, &[]).unwrap();
        assert!(e_hi.mttsf_seconds < e_lo.mttsf_seconds);
    }

    #[test]
    fn scenario_survival_curve_is_monotone() {
        let cfg = small(10);
        let s = sc(
            AttackerStrategy::Targeted { focus: 0.5 },
            ResponsePolicy::QuarantineRejoin {
                release_rate: 1.0 / 600.0,
                false_release_prob: 0.1,
            },
        );
        let (e, surv, _) = evaluate_scenario(&cfg, &s, &[0.0, 1.0e4, 1.0e5, 1.0e6]).unwrap();
        let surv = surv.unwrap();
        assert!((surv[0] - 1.0).abs() < 1e-9);
        for w in surv.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
        assert!(e.mttsf_seconds > 0.0);
    }

    #[test]
    fn scenario_mission_grid_past_the_depth_cap_is_a_named_error() {
        let s = sc(
            AttackerStrategy::Targeted { focus: 0.5 },
            ResponsePolicy::Evict,
        );
        let err = evaluate_scenario(&small(10), &s, &[0.0, 1.0e308]).unwrap_err();
        assert!(
            matches!(err, SpnError::TransientDepthExceeded { .. }),
            "{err}"
        );
    }

    #[test]
    fn detection_totals_track_ids_quality() {
        // With detection nearly off, expected detections until failure drop.
        let cfg = small(12);
        let slow = {
            let mut c = cfg.clone();
            c.detection = c.detection.with_interval(1.0e6);
            c
        };
        let (_, _, fast_det) = evaluate_scenario(&cfg, &ScenarioConfig::baseline(), &[]).unwrap();
        let (_, _, slow_det) = evaluate_scenario(&slow, &ScenarioConfig::baseline(), &[]).unwrap();
        assert!(slow_det.detections < fast_det.detections);
    }

    #[test]
    fn invalid_scenario_is_reported() {
        let cfg = small(10);
        let s = sc(
            AttackerStrategy::Targeted { focus: 2.0 },
            ResponsePolicy::Evict,
        );
        assert!(matches!(
            evaluate_scenario(&cfg, &s, &[]),
            Err(SpnError::InvalidModel(_))
        ));
    }
}
