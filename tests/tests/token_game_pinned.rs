//! The SPN token game, pinned per seed on the paper's nets.
//!
//! Each case plays 200 seeds (a few on the N = 100 net) through one
//! `Simulator`, as the spn-sim backend does. Every outcome field goes into
//! an FNV-1a digest (floats by `to_bits`, the final marking included), so
//! any change of a random draw, a race, a reward value or a floating-point
//! summation order fails here. The readable totals beside each digest show
//! what a failing case changed.
//!
//! The cases cover the hot N = 12 paper net, the burst, quarantine-rejoin,
//! rekey-throttle and targeted scenario nets, a `max_time`-censored and a
//! `max_firings`-capped run, the N = 100 paper net, and a birth–death walk
//! that visits more markings than the simulator memoizes.

use engine::{AttackerStrategy, ResponsePolicy, ScenarioConfig};
use gcsids::config::SystemConfig;
use gcsids::metrics::{eviction_impulses, total_cost_reward};
use gcsids::model::{build_model, build_scenario_model, GcsIdsModel};
use numerics::rng::child_seed;
use spn::model::{SpnBuilder, TransitionDef};
use spn::reward::{ImpulseReward, RateReward, RewardSet};
use spn::sim::{SimOptions, SimOutcome, Simulator};

/// Replications per N = 12 case.
const SEEDS: u64 = 200;
/// Master seed of the per-replication `child_seed`s.
const MASTER: u64 = 30;

/// Totals over the seeds, and the digest of every outcome field.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    digest: u64,
    absorbed: u64,
    firings: u64,
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest `seeds` replications of one simulator.
fn pin(sim: &Simulator<'_>, seeds: u64) -> Pin {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut p = Pin {
        digest: 0,
        absorbed: 0,
        firings: 0,
    };
    for i in 0..seeds {
        let o: SimOutcome = sim.run_one(child_seed(MASTER, i)).unwrap();
        h.word(o.time.to_bits());
        h.word(u64::from(o.absorbed));
        for a in &o.accumulated {
            h.word(a.to_bits());
        }
        for &n in &o.firings {
            h.word(n);
        }
        for t in &o.first_firings {
            h.word(t.map_or(u64::MAX, f64::to_bits));
        }
        for &tokens in o.final_marking.as_slice() {
            h.word(u64::from(tokens));
        }
        p.absorbed += u64::from(o.absorbed);
        p.firings += o.firings.iter().sum::<u64>();
    }
    p.digest = h.0;
    p
}

/// The spn-sim backend's rewards on a paper or scenario net.
fn rewards(model: &GcsIdsModel) -> RewardSet {
    let mut rewards = RewardSet::new().with_rate(total_cost_reward(&model.config, model));
    for imp in eviction_impulses(model).unwrap() {
        rewards = rewards.with_impulse(imp);
    }
    rewards
}

/// Hot 12-node system: a strong attacker and a 120 s detection interval.
fn hot() -> SystemConfig {
    let mut sys = SystemConfig::paper_default();
    sys.node_count = 12;
    sys.vote_participants = 3;
    sys.attacker.base_rate = 1.0 / 600.0;
    sys.detection = sys.detection.with_interval(120.0);
    sys
}

fn pin_model(model: &GcsIdsModel, opts: SimOptions, seeds: u64) -> Pin {
    let rewards = rewards(model);
    pin(&Simulator::new(&model.net, &rewards, opts), seeds)
}

fn check(cases: Vec<(&str, Pin, Pin)>) {
    let failed: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, _)| format!("{name}: got {got:?}"))
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

#[test]
fn paper_and_scenario_nets_are_pinned_per_seed() {
    let scenario = |sc: ScenarioConfig| build_scenario_model(&hot(), &sc);
    let cases = [
        (
            "hot",
            build_model(&hot()),
            SimOptions::default(),
            Pin {
                digest: 0xd4e5_46cd_f3cc_dd63,
                absorbed: 200,
                firings: 5274,
            },
        ),
        (
            "burst",
            scenario(ScenarioConfig {
                attacker: AttackerStrategy::Burst {
                    on_rate: 1.0 / 1_000.0,
                    off_rate: 1.0 / 2_000.0,
                    multiplier: 8.0,
                },
                ..ScenarioConfig::baseline()
            }),
            SimOptions::default(),
            Pin {
                digest: 0x3418_4f5e_6634_6410,
                absorbed: 200,
                firings: 3046,
            },
        ),
        (
            "quarantine-rejoin",
            scenario(ScenarioConfig {
                response: ResponsePolicy::QuarantineRejoin {
                    release_rate: 1.0 / 500.0,
                    false_release_prob: 0.2,
                },
                ..ScenarioConfig::baseline()
            }),
            SimOptions::default(),
            Pin {
                digest: 0x370e_7a0f_7b9b_fb6c,
                absorbed: 200,
                firings: 7726,
            },
        ),
        (
            "rekey-throttle",
            scenario(ScenarioConfig {
                response: ResponsePolicy::RekeyThrottle {
                    max_rate: 1.0 / 300.0,
                },
                ..ScenarioConfig::baseline()
            }),
            SimOptions::default(),
            Pin {
                digest: 0x22d9_e451_6d26_27ff,
                absorbed: 200,
                firings: 5373,
            },
        ),
        (
            "targeted",
            scenario(ScenarioConfig {
                attacker: AttackerStrategy::Targeted { focus: 1.0 },
                ..ScenarioConfig::baseline()
            }),
            SimOptions::default(),
            Pin {
                digest: 0xc045_a641_4a79_eb00,
                absorbed: 200,
                firings: 5174,
            },
        ),
        (
            "censored at 1 000 s",
            build_model(&hot()),
            SimOptions {
                max_time: 1_000.0,
                ..Default::default()
            },
            Pin {
                digest: 0x0400_0937_a302_f0e3,
                absorbed: 7,
                firings: 907,
            },
        ),
        (
            "capped at 12 firings",
            build_model(&hot()),
            SimOptions {
                max_firings: 12,
                ..Default::default()
            },
            Pin {
                digest: 0x0890_1459_55e7_51e8,
                absorbed: 11,
                firings: 2336,
            },
        ),
    ];
    let got: Vec<Pin> = cases
        .iter()
        .map(|(_, model, opts, _)| pin_model(model, *opts, SEEDS))
        .collect();
    assert!(
        got[5].absorbed < SEEDS / 2,
        "the short horizon must censor most replications: {:?}",
        got[5]
    );
    assert!(
        got[6].absorbed < SEEDS / 2,
        "the cap must cut most replications: {:?}",
        got[6]
    );
    check(
        cases
            .into_iter()
            .zip(got)
            .map(|((name, _, _, want), got)| (name, got, want))
            .collect(),
    );
}

#[test]
fn n100_paper_net_is_pinned_per_seed() {
    let got = pin_model(
        &build_model(&SystemConfig::paper_default()),
        SimOptions::default(),
        4,
    );
    check(vec![(
        "N = 100",
        got,
        Pin {
            digest: 0x0134_1656_5419_77c5,
            absorbed: 4,
            firings: 99_510,
        },
    )]);
}

/// A walk up and down one place, births outpacing deaths, run for more
/// firings than the simulator memoizes markings, with a rate reward and a
/// birth impulse that read the marking.
#[test]
fn a_walk_past_the_memoized_markings_is_pinned_per_seed() {
    let mut b = SpnBuilder::new();
    let n = b.add_place("n", 0);
    let birth = b.add_transition(TransitionDef::timed_const("birth", 1.0).output(n, 1));
    b.add_transition(TransitionDef::timed_const("death", 0.6).input(n, 1));
    let net = b.build().unwrap();
    let rewards = RewardSet::new()
        .with_rate(RateReward::new("n", move |m| f64::from(m.tokens(n))))
        .with_impulse(ImpulseReward::new("birth", birth, move |m| {
            1.0 / (1.0 + f64::from(m.tokens(n)))
        }));
    let opts = SimOptions {
        max_firings: 300_000,
        ..Default::default()
    };
    let sim = Simulator::new(&net, &rewards, opts);
    let got = pin(&sim, 3);
    assert!(got.firings == 3 * 300_000 && got.absorbed == 0, "{got:?}");
    check(vec![(
        "birth-death walk",
        got,
        Pin {
            digest: 0x059b_7bc5_c3fb_6283,
            absorbed: 0,
            firings: 900_000,
        },
    )]);
}
