//! Failure-injection tests: the engine must report model pathologies as
//! typed errors, never panic or silently mis-solve.

use spn::ctmc::Ctmc;
use spn::error::SpnError;
use spn::model::{SpnBuilder, TransitionDef};
use spn::reach::{explore, ExploreOptions};
use spn::reward::RewardSet;
use spn::sim::{SimOptions, Simulator};

#[test]
fn nan_rate_rejected_during_exploration() {
    let mut b = SpnBuilder::new();
    let a = b.add_place("a", 1);
    b.add_transition(TransitionDef::timed("nan", |_| f64::NAN).input(a, 1));
    let net = b.build().unwrap();
    assert!(matches!(
        explore(&net, &ExploreOptions::default()),
        Err(SpnError::BadRate { .. })
    ));
}

#[test]
fn negative_rate_rejected_during_simulation() {
    let mut b = SpnBuilder::new();
    let a = b.add_place("a", 2);
    // rate turns negative after the first firing
    b.add_transition(TransitionDef::timed("decay", move |m| m.tokens(a) as f64 - 1.5).input(a, 1));
    let net = b.build().unwrap();
    let rewards = RewardSet::new();
    let sim = Simulator::new(&net, &rewards, SimOptions::default());
    assert!(matches!(sim.run_one(3), Err(SpnError::BadRate { .. })));
}

#[test]
fn parallel_replications_propagate_first_error() {
    let mut b = SpnBuilder::new();
    let a = b.add_place("a", 3);
    b.add_transition(
        TransitionDef::timed("bad", move |m| {
            // valid at first, NaN after two firings
            if m.tokens(a) >= 2 {
                1.0
            } else {
                f64::NAN
            }
        })
        .input(a, 1),
    );
    let net = b.build().unwrap();
    let rewards = RewardSet::new();
    let sim = Simulator::new(&net, &rewards, SimOptions::default());
    assert!(sim.run_replications(64, 5).is_err());
}

#[test]
fn empty_reachability_graph_rejected_by_ctmc() {
    // Every chain starts at state 0, the initial marking, so the start
    // itself cannot be malformed; check the unreachable-absorption path.
    let mut b = SpnBuilder::new();
    let q = b.add_place("q", 0);
    b.add_transition(
        TransitionDef::timed_const("in", 1.0)
            .output(q, 1)
            .inhibitor(q, 2),
    );
    b.add_transition(TransitionDef::timed_const("out", 2.0).input(q, 1));
    let net = b.build().unwrap();
    let g = explore(&net, &ExploreOptions::default()).unwrap();
    let ctmc = Ctmc::from_graph(&g).unwrap();
    assert!(matches!(
        ctmc.mean_time_to_absorption(),
        Err(SpnError::AnalysisUnavailable(_))
    ));
}

#[test]
fn max_firings_censors_runaway_simulation() {
    // ergodic net would run forever; the firing cap must stop it
    let mut b = SpnBuilder::new();
    let q = b.add_place("q", 1);
    let r = b.add_place("r", 0);
    b.add_transition(
        TransitionDef::timed_const("qr", 10.0)
            .input(q, 1)
            .output(r, 1),
    );
    b.add_transition(
        TransitionDef::timed_const("rq", 10.0)
            .input(r, 1)
            .output(q, 1),
    );
    let net = b.build().unwrap();
    let rewards = RewardSet::new();
    let opts = SimOptions {
        max_firings: 1_000,
        ..Default::default()
    };
    let sim = Simulator::new(&net, &rewards, opts);
    let o = sim.run_one(1).unwrap();
    assert!(!o.absorbed);
    assert_eq!(o.firings.iter().sum::<u64>(), 1_000);
}
