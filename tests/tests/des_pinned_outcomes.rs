//! The birth–death protocol DES, pinned per seed on configurations the
//! report goldens do not reach.
//!
//! Every committed fixture uses the N = 100 group calibration, under
//! which groups almost never split. The configurations here are a hot
//! 12-node system with the group rates `manet::calibrate` gives at the
//! 12-node mobility geometry (partition 7.94e-3 /s, merge 0.0181 /s per
//! group), so partitions, merges, per-group votes and per-group C2 happen
//! in nearly every replication, under each response policy and attacker
//! strategy, plus one short horizon that censors most replications.
//!
//! Each configuration runs 200 seeds. Every outcome field goes into an
//! FNV-1a digest (floats by `to_bits`), so any change of a random draw,
//! an event order or a floating-point summation order fails here. The
//! readable totals beside each digest show what a failing configuration
//! changed and that the configuration exercises group dynamics at all.

use engine::{AttackerStrategy, ResponsePolicy, ScenarioConfig};
use gcsids::des::{run_des, DesConfig, DesOutcome, FailureCause};
use gcsids::SystemConfig;
use numerics::rng::child_seed;

/// Replications per configuration.
const SEEDS: u64 = 200;
/// Master seed of the per-replication `child_seed`s.
const MASTER: u64 = 27;

/// Hot 12-node system with the mobility-calibrated group rates.
fn partition_heavy() -> DesConfig {
    let mut sys = SystemConfig::paper_default();
    sys.node_count = 12;
    sys.vote_participants = 3;
    sys.attacker.base_rate = 1.0 / 600.0;
    sys.detection = sys.detection.with_interval(120.0);
    sys.partition_rate_per_group = 7.94e-3;
    sys.merge_rate_per_group = 0.0181;
    DesConfig::new(sys)
}

fn with_scenario(scenario: ScenarioConfig) -> DesConfig {
    DesConfig {
        scenario,
        ..partition_heavy()
    }
}

/// Totals over the seeds, and the digest of every outcome field.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    digest: u64,
    votes: u64,
    partitions: u64,
    merges: u64,
    /// C1, C2, attrition and censored replications.
    causes: [u64; 4],
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

    fn time(&mut self, t: Option<f64>) {
        self.word(t.map_or(u64::MAX, f64::to_bits));
    }
}

fn pin(cfg: &DesConfig) -> Pin {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut p = Pin {
        digest: 0,
        votes: 0,
        partitions: 0,
        merges: 0,
        causes: [0; 4],
    };
    for i in 0..SEEDS {
        let o: DesOutcome = run_des(cfg, child_seed(MASTER, i));
        let cause = match o.cause {
            FailureCause::DataLeak => 0,
            FailureCause::ByzantineCapture => 1,
            FailureCause::Attrition => 2,
            FailureCause::Censored => 3,
        };
        for w in [
            o.time.to_bits(),
            o.hop_bits.to_bits(),
            o.mean_cost_rate.to_bits(),
            cause as u64,
            o.compromises,
            o.true_evictions,
            o.false_evictions,
            o.votes,
            o.partitions,
            o.merges,
        ] {
            h.word(w);
        }
        h.time(o.first_compromise);
        h.time(o.first_true_detection);
        p.votes += o.votes;
        p.partitions += o.partitions;
        p.merges += o.merges;
        p.causes[cause] += 1;
    }
    p.digest = h.0;
    p
}

#[test]
fn partition_heavy_outcomes_are_pinned_per_seed() {
    let quarantine = ResponsePolicy::QuarantineRejoin {
        release_rate: 1.0 / 500.0,
        false_release_prob: 0.2,
    };
    let cases: [(&str, DesConfig, Pin); 6] = [
        (
            "evict",
            partition_heavy(),
            Pin {
                digest: 0x73ff_7a7a_831b_0ef0,
                votes: 46_561,
                partitions: 5241,
                merges: 4924,
                causes: [16, 184, 0, 0],
            },
        ),
        (
            "quarantine-rejoin",
            with_scenario(ScenarioConfig {
                response: quarantine,
                ..ScenarioConfig::baseline()
            }),
            Pin {
                digest: 0x5779_8ef7_bfb8_5b1e,
                votes: 41_029,
                partitions: 4654,
                merges: 4301,
                causes: [14, 186, 0, 0],
            },
        ),
        (
            "rekey-throttle",
            with_scenario(ScenarioConfig {
                response: ResponsePolicy::RekeyThrottle {
                    max_rate: 1.0 / 300.0,
                },
                ..ScenarioConfig::baseline()
            }),
            Pin {
                digest: 0xebec_41ad_1d28_4319,
                votes: 39_751,
                partitions: 4446,
                merges: 4152,
                causes: [60, 140, 0, 0],
            },
        ),
        (
            "burst",
            with_scenario(ScenarioConfig {
                attacker: AttackerStrategy::Burst {
                    on_rate: 1.0 / 1_000.0,
                    off_rate: 1.0 / 2_000.0,
                    multiplier: 8.0,
                },
                ..ScenarioConfig::baseline()
            }),
            Pin {
                digest: 0xc01a_d20c_2b37_860f,
                votes: 20_389,
                partitions: 2317,
                merges: 2058,
                causes: [14, 186, 0, 0],
            },
        ),
        (
            "targeted",
            with_scenario(ScenarioConfig {
                attacker: AttackerStrategy::Targeted { focus: 1.0 },
                ..ScenarioConfig::baseline()
            }),
            Pin {
                digest: 0xb5bf_7c03_3e15_c4c2,
                votes: 46_680,
                partitions: 5228,
                merges: 4915,
                causes: [18, 182, 0, 0],
            },
        ),
        (
            "censored at 1 000 s",
            DesConfig {
                max_time: 1_000.0,
                ..partition_heavy()
            },
            Pin {
                digest: 0xa60b_12ce_0782_c966,
                votes: 17_125,
                partitions: 2018,
                merges: 1813,
                causes: [7, 55, 0, 138],
            },
        ),
    ];
    let got: Vec<Pin> = cases.iter().map(|(_, cfg, _)| pin(cfg)).collect();
    for ((name, _, _), got) in cases.iter().zip(&got) {
        assert!(
            got.partitions > SEEDS && got.merges > SEEDS,
            "{name}: too few group events to pin anything: {got:?}"
        );
    }
    assert!(
        got[5].causes[3] > SEEDS / 2,
        "the short horizon must censor most replications: {:?}",
        got[5]
    );
    let failed: Vec<String> = cases
        .iter()
        .zip(&got)
        .filter(|((_, _, want), got)| *got != want)
        .map(|((name, _, _), got)| format!("{name}: got {got:?}"))
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}
