//! The token game on the paper's nets: in-place firing agrees with `fire`
//! on every explored edge, and a replication's dense firing counters and
//! first-firing times account for exactly the firings it made.

use engine::{AttackerStrategy, ResponsePolicy, ScenarioConfig};
use gcsids::config::SystemConfig;
use gcsids::metrics::{eviction_impulses, total_cost_reward};
use gcsids::model::{build_model, build_scenario_model, GcsIdsModel};
use spn::reach::{explore, ExploreOptions};
use spn::reward::RewardSet;
use spn::sim::{SimOptions, SimOutcome, Simulator};

fn paper_net(n: u32) -> GcsIdsModel {
    let mut cfg = SystemConfig::paper_default();
    cfg.node_count = n;
    build_model(&cfg)
}

fn burst_net(n: u32) -> GcsIdsModel {
    let mut cfg = SystemConfig::paper_default();
    cfg.node_count = n;
    let sc = ScenarioConfig {
        attacker: AttackerStrategy::Burst {
            on_rate: 1.0 / 3_600.0,
            off_rate: 1.0 / 600.0,
            multiplier: 8.0,
        },
        response: ResponsePolicy::Evict,
    };
    build_scenario_model(&cfg, &sc)
}

#[test]
fn fire_in_place_equals_fire_on_every_explored_edge() {
    for model in [paper_net(12), burst_net(12)] {
        let net = &model.net;
        let graph = explore(net, &ExploreOptions::default()).unwrap();
        let mut fired = 0;
        for (s, from) in graph.states.iter().enumerate() {
            let moves = graph.edges[s]
                .iter()
                .map(|e| (e.transition, &graph.states[e.target as usize]))
                .chain(graph.self_loop_rates[s].iter().map(|&(t, _)| (t, from)));
            for (t, to) in moves {
                let mut in_place = from.clone();
                net.fire_in_place(t, &mut in_place);
                assert_eq!(
                    in_place,
                    net.fire(t, from),
                    "{} in state {s}",
                    net.transition_name(t)
                );
                // without lumping or immediates, the successor is the edge's
                // target state itself
                assert_eq!(&in_place, to);
                fired += 1;
            }
        }
        assert!(fired > graph.state_count(), "only {fired} edges fired");
    }
}

fn replicate(model: &GcsIdsModel, opts: SimOptions, seed: u64) -> SimOutcome {
    let mut rewards = RewardSet::new().with_rate(total_cost_reward(&model.config, model));
    for imp in eviction_impulses(model).unwrap() {
        rewards = rewards.with_impulse(imp);
    }
    Simulator::new(&model.net, &rewards, opts)
        .run_one(seed)
        .unwrap()
}

/// Checks that hold for any outcome: one counter and one first-firing slot
/// per transition, a first firing exactly where the count is positive, and
/// never after the run's end.
fn assert_counters_consistent(model: &GcsIdsModel, o: &SimOutcome) {
    let transitions = model.net.transition_count();
    assert_eq!(o.firings.len(), transitions);
    assert_eq!(o.first_firings.len(), transitions);
    for (count, first) in o.firings.iter().zip(&o.first_firings) {
        assert_eq!(*count > 0, first.is_some());
        if let Some(t) = first {
            assert!(
                *t > 0.0 && *t <= o.time,
                "first firing {t} after end {}",
                o.time
            );
        }
    }
}

#[test]
fn dense_counters_sum_to_the_firings_of_a_replication() {
    for model in [paper_net(12), burst_net(12)] {
        for seed in 0..8 {
            let o = replicate(&model, SimOptions::default(), seed);
            assert!(o.absorbed);
            assert_counters_consistent(&model, &o);
            let total: u64 = o.firings.iter().sum();
            assert!(total > 0);

            // Capping the run at `total` firings replays it exactly (it is
            // cut at its last firing, so it reads as censored) ...
            let capped = |max_firings| SimOptions {
                max_firings,
                ..Default::default()
            };
            let at_total = replicate(&model, capped(total), seed);
            assert!(!at_total.absorbed);
            assert_eq!(at_total.time.to_bits(), o.time.to_bits());
            assert_eq!(at_total.final_marking, o.final_marking);
            assert_eq!(at_total.firings, o.firings);
            assert_eq!(at_total.first_firings, o.first_firings);
            // ... and one firing fewer stops one firing earlier.
            if total > 1 {
                let short = replicate(&model, capped(total - 1), seed);
                assert_counters_consistent(&model, &short);
                assert_eq!(short.firings.iter().sum::<u64>(), total - 1);
                assert!(short.time <= o.time);
            }
        }
    }
}

#[test]
fn first_firings_never_pass_a_censoring_horizon() {
    let model = burst_net(12);
    for seed in 0..8 {
        let o = replicate(
            &model,
            SimOptions {
                max_time: 20_000.0,
                ..Default::default()
            },
            seed,
        );
        assert!(o.time <= 20_000.0);
        assert_counters_consistent(&model, &o);
    }
}
