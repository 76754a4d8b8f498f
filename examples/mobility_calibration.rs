//! Mobility calibration: reproduce the paper's §4.1 step "group
//! merging/partitioning rates obtained by simulation", then feed the
//! measured rates into the analytic model and show their (small) effect.
//!
//! Run with: `cargo run --release -p examples --example mobility_calibration`

use examples::row;
use gcsids::config::SystemConfig;
use gcsids::metrics::evaluate;
use manet::{calibrate, CalibrationConfig, MobilityConfig};

fn main() {
    // A sparser radio range than the paper default (250 m) so partition /
    // merge dynamics are actually visible within a short demo run; at the
    // paper's density the 100-node network is connected almost always
    // (the shipped calibration has partitions at ~2e-5/s per group).
    let cal_cfg = CalibrationConfig {
        duration: 5_000.0,
        seeds: 4,
        mobility: MobilityConfig::default(),
        radio_range: 150.0,
        ..Default::default()
    };
    println!(
        "simulating {} nodes, {:.0} m disc, {:.0} m radio range, {} × {:.0} s …",
        cal_cfg.mobility.node_count,
        cal_cfg.mobility.area_radius,
        cal_cfg.radio_range,
        cal_cfg.seeds,
        cal_cfg.duration
    );
    let cal = calibrate(&cal_cfg, 2009);
    println!(
        "{}",
        row(
            "mean number of groups",
            format!("{:.4}", cal.mean_group_count)
        )
    );
    println!(
        "{}",
        row("mean group size", format!("{:.2}", cal.mean_group_size))
    );
    println!(
        "{}",
        row(
            "partition rate ν_p",
            format!("{:.3e} /s per group", cal.partition_rate_per_group)
        )
    );
    println!(
        "{}",
        row(
            "merge rate ν_m",
            format!("{:.3e} /s per group", cal.merge_rate_per_group)
        )
    );
    println!("{}", row("mean hop count", format!("{:.2}", cal.mean_hops)));

    // Feed into the analytic model.
    let mut cfg = SystemConfig::paper_default();
    let before = evaluate(&cfg).expect("shipped calibration");
    cfg.apply_calibration(&cal);
    let after = evaluate(&cfg).expect("fresh calibration");
    println!("\n== analytic metrics: shipped vs freshly calibrated dynamics ==");
    println!(
        "{}",
        row("MTTSF (shipped)", format!("{:.4e} s", before.mttsf_seconds))
    );
    println!(
        "{}",
        row("MTTSF (fresh)", format!("{:.4e} s", after.mttsf_seconds))
    );
    println!(
        "{}",
        row(
            "C_total (shipped)",
            format!("{:.4e}", before.c_total_hop_bits_per_sec)
        )
    );
    println!(
        "{}",
        row(
            "C_total (fresh)",
            format!("{:.4e}", after.c_total_hop_bits_per_sec)
        )
    );
}
