//! Quickstart: evaluate MTTSF and communication cost for the paper's
//! default mission configuration, and find the optimal detection interval.
//!
//! Run with: `cargo run --release -p examples --example quickstart`

use examples::pareto::design_space;
use examples::{pretty_duration, row};
use gcsids::config::SystemConfig;
use gcsids::metrics::evaluate;

fn main() {
    // The paper's §5 parameterization: 100 nodes, 500 m operational radius,
    // λq = 1/min, λc = 1/12h, p1 = p2 = 1%, m = 5 vote participants.
    let cfg = SystemConfig::paper_default();
    println!(
        "== point evaluation at TIDS = {:.0} s ==",
        cfg.detection.base_interval
    );
    let e = evaluate(&cfg).expect("evaluation");
    println!(
        "{}",
        row(
            "MTTSF",
            format!(
                "{:.3e} s ({})",
                e.mttsf_seconds,
                pretty_duration(e.mttsf_seconds)
            )
        )
    );
    println!(
        "{}",
        row(
            "C_total",
            format!("{:.3e} hop·bits/s", e.c_total_hop_bits_per_sec)
        )
    );
    println!(
        "{}",
        row(
            "P[failure by data leak (C1)]",
            format!("{:.3}", e.p_failure_c1)
        )
    );
    println!(
        "{}",
        row(
            "P[failure by Byzantine capture (C2)]",
            format!("{:.3}", e.p_failure_c2)
        )
    );
    println!("{}", row("CTMC states solved", e.state_count));

    println!("\n== cost breakdown (hop·bits/s) ==");
    let c = &e.cost_components;
    println!(
        "{}",
        row("group communication", format!("{:.3e}", c.group_comm))
    );
    println!("{}", row("status exchange", format!("{:.3e}", c.status)));
    println!(
        "{}",
        row("rekeying (join/leave/evict)", format!("{:.3e}", c.rekey))
    );
    println!("{}", row("voting IDS", format!("{:.3e}", c.ids)));
    println!("{}", row("beacons", format!("{:.3e}", c.beacon)));
    println!(
        "{}",
        row("partition/merge", format!("{:.3e}", c.partition_merge))
    );

    println!("\n== optimal detection interval (paper grid) ==");
    let points = design_space(
        &cfg,
        &[cfg.vote_participants],
        SystemConfig::paper_tids_grid(),
    )
    .expect("sweep");
    for p in &points {
        println!(
            "  TIDS = {:>5.0} s  →  MTTSF = {:.3e} s, C_total = {:.3e}",
            p.t_ids, p.mttsf, p.c_total
        );
    }
    let best = points
        .iter()
        .max_by(|a, b| a.mttsf.total_cmp(&b.mttsf))
        .expect("non-empty sweep")
        .t_ids;
    let cheapest = points
        .iter()
        .min_by(|a, b| a.c_total.total_cmp(&b.c_total))
        .expect("non-empty sweep")
        .t_ids;
    println!("\nbest TIDS for survivability: {best:.0} s; cheapest TIDS: {cheapest:.0} s");
}
