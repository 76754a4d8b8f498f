//! A tour of the SPN engine on textbook models — shows the substrate is a
//! general stochastic Petri net tool, not just the paper's fixed net.
//!
//! Run with: `cargo run --release -p examples --example spn_playground`

use examples::row;
use spn::ctmc::{Ctmc, TransientOptions};
use spn::model::{SpnBuilder, TransitionDef};
use spn::reach::{explore, ExploreOptions};
use spn::reward::{RateReward, RewardSet};
use spn::sim::{SimOptions, Simulator};

fn main() {
    // --- M/M/2/10 queue: steady-state mean queue length ---------------------
    let mut b = SpnBuilder::new();
    let q = b.add_place("queue", 0);
    let (lambda, mu, servers, cap) = (3.0, 2.0, 2u32, 10u32);
    b.add_transition(
        TransitionDef::timed_const("arrive", lambda)
            .output(q, 1)
            .guard(move |m| m.tokens(q) < cap),
    );
    b.add_transition(
        TransitionDef::timed("serve", move |m| mu * m.tokens(q).min(servers) as f64).input(q, 1),
    );
    let net = b.build().expect("valid net");
    let graph = explore(&net, &ExploreOptions::default()).expect("finite");
    let ctmc = Ctmc::from_graph(&graph).expect("ctmc");
    let pi = ctmc.steady_state().expect("ergodic");
    let mean_len: f64 = graph
        .states
        .iter()
        .zip(&pi)
        .map(|(m, p)| m.tokens(q) as f64 * p)
        .sum();
    println!("== M/M/2/10 queue (λ=3, μ=2) ==");
    println!("{}", row("states", graph.state_count()));
    println!(
        "{}",
        row("steady-state mean queue length", format!("{mean_len:.4}"))
    );
    println!(
        "{}",
        row(
            "P[queue full]",
            format!(
                "{:.4e}",
                pi[graph
                    .states
                    .iter()
                    .position(|m| m.tokens(q) == cap)
                    .expect("full state reachable")]
            )
        )
    );

    // --- dependable system: MTTF with repair --------------------------------
    let mut b = SpnBuilder::new();
    let up = b.add_place("up", 3);
    let down = b.add_place("down", 0);
    b.add_transition(
        TransitionDef::timed("fail", move |m| 0.01 * m.tokens(up) as f64)
            .input(up, 1)
            .output(down, 1),
    );
    b.add_transition(
        TransitionDef::timed(
            "repair",
            move |m| if m.tokens(down) > 0 { 0.1 } else { 0.0 },
        )
        .input(down, 1)
        .output(up, 1)
        // single repair crew, system dead at 0 working units
        .guard(move |m| m.tokens(up) > 0),
    );
    b.absorbing_when(move |m| m.tokens(up) == 0);
    let net = b.build().expect("valid net");
    let graph = explore(&net, &ExploreOptions::default()).expect("finite");
    let ctmc = Ctmc::from_graph(&graph).expect("ctmc");
    let analysis = ctmc.mean_time_to_absorption().expect("absorbing");
    println!("\n== 3-unit repairable system (fail 0.01/unit, repair 0.1) ==");
    println!(
        "{}",
        row(
            "MTTF (analytic)",
            format!("{:.2} time units", analysis.mtta)
        )
    );

    // confirm with the token-game simulator and an uptime reward
    let rewards =
        RewardSet::new().with_rate(RateReward::new("units_up", move |m| m.tokens(up) as f64));
    let sim = Simulator::new(&net, &rewards, SimOptions::default());
    let stats = sim.run_replications(100_000, 7).expect("simulate");
    let ci = stats.mtta_ci(0.95);
    println!(
        "{}",
        row(
            "MTTF (simulated, 95% CI)",
            format!("{:.2} ± {:.2}", ci.mean, ci.half_width)
        )
    );
    println!("{}", row("analytic inside CI", ci.contains(analysis.mtta)));
    println!(
        "{}",
        row(
            "expected unit-seconds until failure",
            format!("{:.2}", stats.accumulated[0].mean())
        )
    );

    // transient availability at t = 10
    let pi10 = ctmc.transient_distribution(10.0, &TransientOptions::default());
    let avail: f64 = graph
        .states
        .iter()
        .zip(&pi10)
        .filter(|(m, _)| m.tokens(up) > 0)
        .map(|(_, p)| p)
        .sum();
    println!("{}", row("P[alive at t = 10]", format!("{avail:.6}")));

    // structural check: tokens conserved between up/down
    let report = spn::structural::analyze(&net);
    println!(
        "{}",
        row("P-invariants", format!("{:?}", report.p_invariants))
    );
}
