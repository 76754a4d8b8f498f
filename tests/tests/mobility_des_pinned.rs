//! The mobility-coupled protocol DES, pinned per seed.
//!
//! The report goldens run eight replications per fixture spec, all of
//! the 12-node hot system in 1 s steps at the paper's 250 m range. The
//! configurations here reach what those do not: the 12-node system of
//! the `stochastic` benchmark workload (2 s steps), a 120 m radio range whose graph splits and merges every
//! few steps, the burst, targeted and stealth attackers, a horizon short
//! enough to censor most replications, and populations of 64, 65 and 100
//! nodes, on either side of a 64-node boundary and well past it, so a
//! connectivity representation that packs nodes into machine words is
//! pinned on one word, on a partly filled second word and on two.
//!
//! Every outcome field goes into an FNV-1a digest (floats by `to_bits`),
//! so any change of a random draw, an event order, a connectivity
//! component or a floating-point summation order fails here. The readable
//! totals beside each digest show what a failing configuration changed
//! and that it exercises votes and group dynamics at all.

use engine::{AttackerStrategy, ScenarioConfig};
use gcsids::des::{DesOutcome, FailureCause};
use gcsids::des_mobility::{run_mobility_des, MobilityDesConfig};
use gcsids::SystemConfig;
use numerics::rng::child_seed;

/// Master seed of the per-replication `child_seed`s.
const MASTER: u64 = 31;

/// The hot 12-node system of the `stochastic` workload, in 2 s steps.
fn hot() -> MobilityDesConfig {
    let mut sys = SystemConfig::paper_default();
    sys.node_count = 12;
    sys.vote_participants = 3;
    sys.attacker.base_rate = 1.0 / 600.0;
    sys.detection = sys.detection.with_interval(120.0);
    let mut cfg = MobilityDesConfig::new(sys);
    cfg.dt = 2.0;
    cfg.max_time = 5.0e6;
    cfg
}

fn with_attacker(attacker: AttackerStrategy) -> MobilityDesConfig {
    MobilityDesConfig {
        scenario: ScenarioConfig {
            attacker,
            ..ScenarioConfig::baseline()
        },
        ..hot()
    }
}

/// `nodes` nodes at the given radio range over a short horizon.
fn population(nodes: u32, radio_range: f64, max_time: f64) -> MobilityDesConfig {
    let mut cfg = hot();
    cfg.system.node_count = nodes;
    cfg.mobility.node_count = nodes as usize;
    cfg.radio_range = radio_range;
    cfg.max_time = max_time;
    cfg
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

fn pin(cfg: &MobilityDesConfig, seeds: u64) -> Pin {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut p = Pin {
        digest: 0,
        votes: 0,
        partitions: 0,
        merges: 0,
        causes: [0; 4],
    };
    for i in 0..seeds {
        let o: DesOutcome = run_mobility_des(cfg, child_seed(MASTER, i));
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

/// Runs every case and fails with each one whose pin moved.
fn check(cases: &[(&str, MobilityDesConfig, u64, Pin)]) -> Vec<Pin> {
    let got: Vec<Pin> = cases
        .iter()
        .map(|(_, cfg, seeds, _)| pin(cfg, *seeds))
        .collect();
    for ((name, _, _, _), got) in cases.iter().zip(&got) {
        assert!(got.votes > 0, "{name}: no vote to pin: {got:?}");
    }
    let failed: Vec<String> = cases
        .iter()
        .zip(&got)
        .filter(|((_, _, _, want), got)| *got != want)
        .map(|((name, _, _, _), got)| format!("{name}: got {got:?}"))
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    got
}

#[test]
fn twelve_node_outcomes_are_pinned_per_seed() {
    let cases = [
        (
            "stochastic workload",
            hot(),
            100,
            Pin {
                digest: 0x6618_8b5b_6900_c829,
                votes: 15_932,
                partitions: 3943,
                merges: 4008,
                causes: [5, 95, 0, 0],
            },
        ),
        (
            "120 m range",
            MobilityDesConfig {
                radio_range: 120.0,
                ..hot()
            },
            100,
            Pin {
                digest: 0xe26d_d1df_4db9_a1b1,
                votes: 6291,
                partitions: 3473,
                merges: 3562,
                causes: [0, 100, 0, 0],
            },
        ),
        (
            "burst",
            with_attacker(AttackerStrategy::Burst {
                on_rate: 1.0 / 1_000.0,
                off_rate: 1.0 / 2_000.0,
                multiplier: 8.0,
            }),
            100,
            Pin {
                digest: 0x7a08_2b2c_c750_091a,
                votes: 7972,
                partitions: 1912,
                merges: 2002,
                causes: [2, 98, 0, 0],
            },
        ),
        (
            "targeted",
            with_attacker(AttackerStrategy::Targeted { focus: 1.0 }),
            100,
            Pin {
                digest: 0x87d3_1221_4b88_f0f7,
                votes: 16_003,
                partitions: 3954,
                merges: 4020,
                causes: [6, 94, 0, 0],
            },
        ),
        (
            "stealth",
            with_attacker(AttackerStrategy::Stealth {
                rate_factor: 0.5,
                evasion: 0.3,
            }),
            100,
            Pin {
                digest: 0xc23d_1237_c9ac_3f19,
                votes: 18_974,
                partitions: 4668,
                merges: 4781,
                causes: [55, 45, 0, 0],
            },
        ),
        (
            "censored at 1 000 s",
            MobilityDesConfig {
                max_time: 1_000.0,
                ..hot()
            },
            100,
            Pin {
                digest: 0xf636_3c70_1be2_4f5b,
                votes: 7410,
                partitions: 1810,
                merges: 1919,
                causes: [1, 31, 0, 68],
            },
        ),
    ];
    let got = check(&cases);
    assert!(
        got[1].partitions > 100 && got[1].merges > 100,
        "the 120 m range must split and merge groups: {:?}",
        got[1]
    );
    assert!(
        got[5].causes[3] > 50,
        "the short horizon must censor most replications: {:?}",
        got[5]
    );
}

#[test]
fn multi_word_populations_are_pinned_per_seed() {
    let cases = [
        (
            "64 nodes, 250 m",
            population(64, 250.0, 2_000.0),
            3,
            Pin {
                digest: 0x190a_5674_c78a_faaa,
                votes: 1979,
                partitions: 2,
                merges: 2,
                causes: [0, 0, 0, 3],
            },
        ),
        (
            "65 nodes, 120 m",
            population(65, 120.0, 2_000.0),
            3,
            Pin {
                digest: 0xd6c1_1588_4af0_f2c8,
                votes: 549,
                partitions: 202,
                merges: 206,
                causes: [1, 2, 0, 0],
            },
        ),
        (
            "100 nodes, 150 m",
            population(100, 150.0, 1_000.0),
            2,
            Pin {
                digest: 0xa4f2_e809_81d7_1715,
                votes: 815,
                partitions: 31,
                merges: 31,
                causes: [0, 0, 0, 2],
            },
        ),
    ];
    let got = check(&cases);
    assert!(
        got[1].partitions > 0 && got[2].partitions > 0,
        "the sparse populations must split groups: {got:?}"
    );
}
