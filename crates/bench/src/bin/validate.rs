//! Cross-validate the analytic SPN model against (a) the SPN Monte-Carlo
//! token game and (b) the protocol-level discrete-event simulation.
//!
//! An accelerated parameterization (faster attacker) keeps wall-clock time
//! reasonable while exercising exactly the same code paths; pass a first
//! argument `paper` to run the (slow) paper-scale validation instead.

use engine::{backend_for, BackendKind, RunBudget, SamplingPlan, ScenarioSpec};
use gcsids::config::SystemConfig;
use gcsids::metrics::evaluate;
use gcsids::model::build_model;
use spn::reward::RewardSet;
use spn::sim::{SimOptions, Simulator};

fn main() {
    let paper_scale = std::env::args().nth(1).as_deref() == Some("paper");
    let mut cfg = SystemConfig::paper_default();
    let replications: u64 = if paper_scale {
        200
    } else {
        cfg.node_count = 30;
        cfg.attacker.base_rate = 1.0 / 1800.0; // one base compromise per 30 min
        cfg.detection = cfg.detection.with_interval(60.0);
        2_000
    };

    let analytic = evaluate(&cfg).expect("analytic evaluation");
    println!(
        "analytic : MTTSF = {:.4e} s, C_total = {:.4e} hop·bits/s",
        analytic.mttsf_seconds, analytic.c_total_hop_bits_per_sec
    );
    println!(
        "analytic : P[C1] = {:.3}, P[C2] = {:.3}, states = {}",
        analytic.p_failure_c1, analytic.p_failure_c2, analytic.state_count
    );

    // (a) SPN token-game simulation — same abstraction, independent solver.
    let model = build_model(&cfg);
    let rewards = RewardSet::new();
    let sim = Simulator::new(&model.net, &rewards, SimOptions::default());
    let stats = sim.run_replications(replications, 42).expect("token game");
    let ci = stats.mtta_ci(0.95);
    println!(
        "token game: MTTSF = {:.4e} s ± {:.2e} (95% CI, n = {}) → analytic inside: {}",
        ci.mean,
        ci.half_width,
        replications,
        ci.contains(analytic.mttsf_seconds)
    );

    // (b) protocol-level DES — actual votes, actual rekey accounting.
    let mut spec = ScenarioSpec::paper_default(BackendKind::Des);
    spec.system = cfg;
    spec.stochastic.master_seed = 43;
    spec.stochastic.sampling = SamplingPlan::Fixed(replications);
    let d = backend_for(BackendKind::Des)
        .run(&spec, &RunBudget::default())
        .expect("protocol DES");
    let (lo, hi) = d.mttsf.ci.expect("at least two failures");
    println!(
        "protocol  : MTTSF = {:.4e} s ± {:.2e} (95% CI), P[C1] = {:.3}, P[C2] = {:.3}, cost rate = {:.4e}",
        d.mttsf.value,
        (hi - lo) / 2.0,
        d.failure.p_c1,
        d.failure.p_c2,
        d.c_total.value
    );
    let rel = (d.mttsf.value - analytic.mttsf_seconds).abs() / analytic.mttsf_seconds;
    println!(
        "protocol  : relative MTTSF deviation from analytic = {:.1}%",
        rel * 100.0
    );
}
