//! Mission planning: the paper's design-time use case. Enumerate the
//! (m, TIDS) design space, compute the MTTSF-vs-cost Pareto frontier, and
//! answer the two planning questions the paper poses: the cheapest design
//! that survives the mission, and the most survivable design under a
//! traffic budget.
//!
//! Run with: `cargo run --release -p examples --example mission_planner`

use examples::pareto::{best_mttsf_under_cost, cheapest_meeting_mttsf, design_space, pareto_front};
use examples::pretty_duration;
use gcsids::config::SystemConfig;

fn main() {
    let cfg = SystemConfig::paper_default();
    let points = design_space(
        &cfg,
        SystemConfig::paper_m_grid(),
        SystemConfig::paper_tids_grid(),
    )
    .expect("design space evaluation");
    println!("evaluated {} (m, TIDS) designs\n", points.len());

    println!("== Pareto frontier (maximize MTTSF, minimize C_total) ==");
    println!(
        "{:>3} {:>8} {:>16} {:>18}",
        "m", "TIDS(s)", "MTTSF", "C_total(hop·b/s)"
    );
    let front = pareto_front(&points);
    for p in &front {
        println!(
            "{:>3} {:>8.0} {:>16} {:>18.4e}",
            p.m,
            p.t_ids,
            pretty_duration(p.mttsf),
            p.c_total
        );
    }
    println!(
        "({} of {} designs are Pareto-efficient)\n",
        front.len(),
        points.len()
    );

    // Planning question 1: survive a two-week mission as cheaply as possible.
    let mission = 14.0 * 86_400.0;
    match cheapest_meeting_mttsf(&points, mission) {
        Some(p) => println!(
            "cheapest design surviving {}: m = {}, TIDS = {:.0} s ({} at {:.3e} hop·bits/s)",
            pretty_duration(mission),
            p.m,
            p.t_ids,
            pretty_duration(p.mttsf),
            p.c_total
        ),
        None => println!("no design survives {}", pretty_duration(mission)),
    }

    // Planning question 2: the most survivable design under 0.9 Mhop·bit/s.
    let budget = 9.0e5;
    match best_mttsf_under_cost(&points, budget) {
        Some(p) => println!(
            "most survivable under {budget:.1e} hop·bits/s: m = {}, TIDS = {:.0} s ({})",
            p.m,
            p.t_ids,
            pretty_duration(p.mttsf)
        ),
        None => println!("no design fits the {budget:.1e} hop·bits/s budget"),
    }
}
