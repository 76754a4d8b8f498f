//! The mobility calibration of §4.1, pinned bit for bit.
//!
//! `manet::calibrate` walks random-waypoint motion in 1 s steps, rebuilds
//! the unit-disc graph at every step, counts each partition and merge by
//! the group count it left, and samples BFS hop distances over the
//! graph's neighbour lists. The fitted rates, the mean hop count, the time
//! spent at each group count and the per-bin event counts are pinned here
//! by `to_bits` for short runs of 12 nodes and of 100 nodes in the paper's
//! geometry (250 m range; at 100 nodes the graph stays one group), and of
//! 100 nodes at a 100 m range, where it splits and merges. A change to the
//! graph's construction, its component labels or its neighbour order that
//! moves any of them fails.

use manet::{calibrate, CalibrationConfig, CalibrationResult, MobilityConfig};

/// Master seed of the calibration's per-run `child_seed`s.
const MASTER: u64 = 12;

/// Every pinned output of one calibration.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    partition_rate_per_group: u64,
    merge_rate_per_group: u64,
    mean_hops: u64,
    /// FNV-1a over `time_at` (by `to_bits`), then `partitions_at`, then
    /// `merges_at`.
    bins: u64,
    partitions: u64,
    merges: u64,
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

fn pin(r: &CalibrationResult) -> Pin {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for &t in &r.time_at {
        h.word(t.to_bits());
    }
    for &c in r.partitions_at.iter().chain(&r.merges_at) {
        h.word(c);
    }
    Pin {
        partition_rate_per_group: r.partition_rate_per_group.to_bits(),
        merge_rate_per_group: r.merge_rate_per_group.to_bits(),
        mean_hops: r.mean_hops.to_bits(),
        bins: h.0,
        partitions: r.partitions_at.iter().sum(),
        merges: r.merges_at.iter().sum(),
    }
}

fn run(node_count: usize, radio_range: f64, duration: f64) -> CalibrationResult {
    let cfg = CalibrationConfig {
        mobility: MobilityConfig {
            node_count,
            ..Default::default()
        },
        radio_range,
        duration,
        seeds: 2,
        ..Default::default()
    };
    calibrate(&cfg, MASTER)
}

#[test]
fn calibration_outputs_are_pinned_bit_for_bit() {
    let cases = [
        (
            "12 nodes, 250 m",
            run(12, 250.0, 4_000.0),
            Pin {
                partition_rate_per_group: 0x3f7f_2ab6_aecc_1628,
                merge_rate_per_group: 0x3f92_6cce_a8ba_e7f9,
                mean_hops: 0x3ffc_8175_939f_325a,
                bins: 0x6c4e_2fe5_094f_80f5,
                partitions: 187,
                merges: 196,
            },
        ),
        (
            "100 nodes, 250 m",
            run(100, 250.0, 1_000.0),
            Pin {
                partition_rate_per_group: 0,
                merge_rate_per_group: 0,
                mean_hops: 0x4000_ab67_cdc2_ad9e,
                bins: 0x58d0_dcc9_0eda_0ed2,
                partitions: 0,
                merges: 0,
            },
        ),
        (
            "100 nodes, 100 m",
            run(100, 100.0, 1_000.0),
            Pin {
                partition_rate_per_group: 0x3fa2_5a64_96ce_b0b2,
                merge_rate_per_group: 0x3fa8_2623_182f_87be,
                mean_hops: 0x4014_5978_b09d_8ca6,
                bins: 0xfbcb_40ff_7aaf_0a69,
                partitions: 586,
                merges: 595,
            },
        ),
    ];
    for (name, r, _) in &cases {
        assert!(r.mean_hops > 1.0, "{name}: no hop to pin: {r:?}");
    }
    for (name, r, _) in [&cases[0], &cases[2]] {
        assert!(
            r.partitions_at.iter().sum::<u64>() > 0,
            "{name}: no partition to pin: {r:?}"
        );
    }
    let failed: Vec<String> = cases
        .iter()
        .map(|(name, r, want)| (name, pin(r), want))
        .filter(|(_, got, want)| got != *want)
        .map(|(name, got, _)| format!("{name}: got {got:?}"))
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}
