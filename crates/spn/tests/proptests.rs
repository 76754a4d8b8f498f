//! Property-based cross-checks of the SPN engine: the three independent
//! solution paths (linear-solve MTTA, uniformization occupancy, Monte-Carlo
//! simulation) must agree on randomly generated absorbing chains, and
//! structural invariants must hold on every explored graph.

use proptest::prelude::*;
use spn::ctmc::{Ctmc, CtmcTemplate, TransientOptions};
use spn::model::{SpnBuilder, TransitionDef};
use spn::reach::{explore, ExploreOptions};
use spn::reward::RewardSet;
use spn::sim::{SimOptions, Simulator};

/// Build a randomized death process: `n` tokens drain with per-token rate
/// `base`, with an optional bypass transition that removes two at once.
fn death_net(n: u32, base: f64, with_bypass: bool) -> spn::model::Spn {
    let mut b = SpnBuilder::new();
    let up = b.add_place("up", n);
    b.add_transition(TransitionDef::timed("die", move |m| base * m.tokens(up) as f64).input(up, 1));
    if with_bypass {
        b.add_transition(
            TransitionDef::timed("die2", move |m| 0.3 * base * m.tokens(up) as f64).input(up, 2),
        );
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reachability_conserves_tokens_in_conservative_nets(n in 1u32..30) {
        // "die" moves tokens out — make a conservative variant instead:
        // tokens circulate between two places.
        let mut b = SpnBuilder::new();
        let a = b.add_place("a", n);
        let c = b.add_place("c", 0);
        b.add_transition(TransitionDef::timed_const("ac", 1.0).input(a, 1).output(c, 1));
        b.add_transition(TransitionDef::timed_const("ca", 2.0).input(c, 1).output(a, 1));
        let net = b.build().unwrap();
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        prop_assert_eq!(g.state_count(), n as usize + 1);
        for m in &g.states {
            prop_assert_eq!(m.total_tokens(), n as u64);
        }
    }

    #[test]
    fn ctmc_edges_have_positive_rates(n in 1u32..20, base in 0.01f64..10.0, bypass in any::<bool>()) {
        let net = death_net(n, base, bypass);
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        for elist in &g.edges {
            for e in elist {
                prop_assert!(e.rate > 0.0);
                prop_assert!((e.target as usize) < g.state_count());
            }
        }
    }

    #[test]
    fn mtta_positive_and_decreasing_in_rate(n in 1u32..15, base in 0.05f64..5.0) {
        let slow = death_net(n, base, false);
        let fast = death_net(n, base * 2.0, false);
        let mtta = |net: &spn::model::Spn| {
            let g = explore(net, &ExploreOptions::default()).unwrap();
            Ctmc::from_graph(&g).unwrap().mean_time_to_absorption().unwrap().mtta
        };
        let ms = mtta(&slow);
        let mf = mtta(&fast);
        prop_assert!(ms > 0.0);
        // doubling all rates exactly halves the expected time
        prop_assert!((ms / mf - 2.0).abs() < 1e-6, "{} vs {}", ms, mf);
    }

    #[test]
    fn mtta_matches_closed_form_death_chain(n in 1u32..25, base in 0.05f64..5.0) {
        let net = death_net(n, base, false);
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        let a = Ctmc::from_graph(&g).unwrap().mean_time_to_absorption().unwrap();
        let exact: f64 = (1..=n).map(|k| 1.0 / (base * k as f64)).sum();
        prop_assert!((a.mtta - exact).abs() < 1e-7 * (1.0 + exact), "{} vs {}", a.mtta, exact);
    }

    #[test]
    fn occupancy_approaches_mtta(n in 1u32..10, base in 0.2f64..4.0, bypass in any::<bool>()) {
        let net = death_net(n, base, bypass);
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        let c = Ctmc::from_graph(&g).unwrap();
        let a = c.mean_time_to_absorption().unwrap();
        // horizon long enough: 60 / (smallest rate) ≫ MTTA
        let horizon = (a.mtta * 40.0).max(1.0);
        let occ = c.expected_occupancy(horizon, &TransientOptions::default());
        let total: f64 = occ
            .iter()
            .enumerate()
            .filter(|&(i, _)| !c.absorbing()[i])
            .map(|(_, &o)| o)
            .sum();
        prop_assert!((total - a.mtta).abs() < 1e-4 * (1.0 + a.mtta), "{} vs {}", total, a.mtta);
    }

    #[test]
    fn absorption_probabilities_form_distribution(n in 1u32..12, base in 0.1f64..3.0, bypass in any::<bool>()) {
        let net = death_net(n, base, bypass);
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        let a = Ctmc::from_graph(&g).unwrap().mean_time_to_absorption().unwrap();
        let total: f64 = a.absorption_probability.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-8);
        for &p in &a.absorption_probability {
            prop_assert!((-1e-12..=1.0 + 1e-9).contains(&p));
        }
    }

    #[test]
    fn transient_distribution_is_stochastic(n in 1u32..8, base in 0.1f64..3.0, t in 0.0f64..20.0) {
        let net = death_net(n, base, false);
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        let c = Ctmc::from_graph(&g).unwrap();
        let pi = c.transient_distribution(t, &TransientOptions::default());
        let total: f64 = pi.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-7, "sum {}", total);
        for &p in &pi {
            prop_assert!(p >= -1e-10);
        }
    }
}

/// Randomized nets with tunable rate constants but fixed structure, for the
/// explore-once-solve-many re-weighting property below.
fn two_rate_net(n: u32, die: f64, leak: f64) -> spn::model::Spn {
    let mut b = SpnBuilder::new();
    let up = b.add_place("up", n);
    let bad = b.add_place("bad", 0);
    b.add_transition(TransitionDef::timed("die", move |m| die * m.tokens(up) as f64).input(up, 1));
    b.add_transition(
        TransitionDef::timed("leak", move |m| leak * m.tokens(up) as f64)
            .input(up, 1)
            .output(bad, 1),
    );
    // cost-only self loop whose rate also varies
    b.add_transition(TransitionDef::timed("noop", move |m| {
        0.5 * die * (m.tokens(up) + 1) as f64
    }));
    b.absorbing_when(move |m| m.tokens(bad) >= 2 || m.tokens(up) == 0);
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reweighted_graph_solves_equal_fresh_explores(
        n in 1u32..12,
        die0 in 0.05f64..5.0,
        leak0 in 0.01f64..2.0,
        die1 in 0.05f64..5.0,
        leak1 in 0.01f64..2.0,
    ) {
        // Explore once at (die0, leak0), re-weight to (die1, leak1), and
        // compare against a fresh exploration at (die1, leak1): the CTMC
        // solutions must be identical to solver precision.
        let mut reweighted = explore(&two_rate_net(n, die0, leak0), &ExploreOptions::default()).unwrap();
        let target = two_rate_net(n, die1, leak1);
        reweighted.reweight_in_place(&target).unwrap();
        let fresh = explore(&target, &ExploreOptions::default()).unwrap();

        prop_assert_eq!(reweighted.state_count(), fresh.state_count());
        let a_re = Ctmc::from_graph(&reweighted).unwrap().mean_time_to_absorption().unwrap();
        let a_fresh = Ctmc::from_graph(&fresh).unwrap().mean_time_to_absorption().unwrap();
        let rel = (a_re.mtta - a_fresh.mtta).abs() / a_fresh.mtta.max(1e-300);
        prop_assert!(rel < 1e-8, "MTTA {} vs {} (rel {})", a_re.mtta, a_fresh.mtta, rel);

        // Sojourn vectors and absorption splits agree state-by-state.
        // (State order matches: re-weighting never re-orders, and the fresh
        // exploration of the same structure walks states identically.)
        for (s_re, s_fresh) in a_re.sojourn.iter().zip(&a_fresh.sojourn) {
            prop_assert!((s_re - s_fresh).abs() < 1e-8 * (1.0 + s_fresh.abs()));
        }
        for (p_re, p_fresh) in
            a_re.absorption_probability.iter().zip(&a_fresh.absorption_probability)
        {
            prop_assert!((p_re - p_fresh).abs() < 1e-8);
        }

        // Self-loop rates (reward-only mass) track the new net too.
        for (sl_re, sl_fresh) in
            reweighted.self_loop_rates.iter().zip(&fresh.self_loop_rates)
        {
            prop_assert_eq!(sl_re.len(), sl_fresh.len());
            for (&(t_re, r_re), &(t_fresh, r_fresh)) in sl_re.iter().zip(sl_fresh) {
                prop_assert_eq!(t_re, t_fresh);
                prop_assert!((r_re - r_fresh).abs() < 1e-10 * (1.0 + r_fresh.abs()));
            }
        }
    }

    #[test]
    fn template_refreshed_solves_are_bitwise_equal_to_fresh_builds(
        n in 1u32..10,
        die0 in 0.05f64..5.0,
        leak0 in 0.01f64..2.0,
        family in proptest::collection::vec((0.05f64..5.0, 0.01f64..2.0), 1..4),
    ) {
        // One exploration, one pattern build; every member of a random
        // rate family is solved twice — once on the in-place-refreshed
        // template CTMC, once on a fresh Ctmc::from_graph build — and the
        // two must agree BIT FOR BIT: the template accumulates values in
        // from_graph's order, and its explicit zero entries only add +0.0
        // terms to non-negative sums.
        let pristine = explore(&two_rate_net(n, die0, leak0), &ExploreOptions::default()).unwrap();
        let template = CtmcTemplate::new(&pristine).unwrap();
        let mut working = pristine.clone();
        let mut ctmc = template.instantiate(&pristine).unwrap();
        let opts = TransientOptions::default();
        for (die, leak) in family {
            let net = two_rate_net(n, die, leak);
            working.copy_rates_from(&pristine);
            working.reweight_in_place(&net).unwrap();
            template.refresh(&working, &mut ctmc).unwrap();
            let fresh = Ctmc::from_graph(&working).unwrap();

            let a_t = ctmc.mean_time_to_absorption().unwrap();
            let a_f = fresh.mean_time_to_absorption().unwrap();
            prop_assert_eq!(a_t.mtta.to_bits(), a_f.mtta.to_bits());
            for (x, y) in a_t.sojourn.iter().zip(&a_f.sojourn) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in a_t
                .absorption_probability
                .iter()
                .zip(&a_f.absorption_probability)
            {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }

            let times = [0.0, 0.3 * a_f.mtta, a_f.mtta, 4.0 * a_f.mtta];
            let s_t = ctmc.survival_curve(&times, &opts);
            let s_f = fresh.survival_curve(&times, &opts);
            for (x, y) in s_t.iter().zip(&s_f) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn repeated_reweighting_is_stable(
        n in 1u32..10,
        die in 0.05f64..5.0,
        leak in 0.01f64..2.0,
    ) {
        // Re-weighting back and forth must return to the original rates
        // (no drift from repeated in-place rescaling).
        let original = explore(&two_rate_net(n, die, leak), &ExploreOptions::default()).unwrap();
        let mut g = original.clone();
        g.reweight_in_place(&two_rate_net(n, die * 3.0, leak * 0.25)).unwrap();
        g.reweight_in_place(&two_rate_net(n, die, leak)).unwrap();
        for (e_re, e_orig) in g.edges.iter().flatten().zip(original.edges.iter().flatten()) {
            prop_assert_eq!(e_re.target, e_orig.target);
            prop_assert!(
                (e_re.rate - e_orig.rate).abs() < 1e-12 * (1.0 + e_orig.rate),
                "{} vs {}", e_re.rate, e_orig.rate
            );
        }
    }
}

/// Heavier statistical agreement check kept outside proptest (one fixed
/// configuration, many replications).
#[test]
fn simulation_confirms_analytic_mtta_on_branching_net() {
    let mut b = SpnBuilder::new();
    let up = b.add_place("up", 6);
    let leak = b.add_place("leak", 0);
    b.add_transition(TransitionDef::timed("die", move |m| 0.7 * m.tokens(up) as f64).input(up, 1));
    b.add_transition(
        TransitionDef::timed("leakage", move |m| 0.1 * m.tokens(up) as f64)
            .input(up, 1)
            .output(leak, 1),
    );
    b.absorbing_when(move |m| m.tokens(leak) > 0 || m.tokens(up) == 0);
    let net = b.build().unwrap();
    let g = explore(&net, &ExploreOptions::default()).unwrap();
    let ctmc = Ctmc::from_graph(&g).unwrap();
    let analytic = ctmc.mean_time_to_absorption().unwrap();

    let rewards = RewardSet::new();
    let sim = Simulator::new(&net, &rewards, SimOptions::default());
    let stats = sim.run_replications(40_000, 2024).unwrap();
    let ci = stats.mtta_ci(0.99);
    assert!(
        ci.contains(analytic.mtta),
        "sim CI [{}, {}] excludes analytic {}",
        ci.lo(),
        ci.hi(),
        analytic.mtta
    );

    // absorption split: P[leak] should match simulated frequency
    let leak_p: f64 = g
        .states
        .iter()
        .enumerate()
        .filter(|(_, m)| m.tokens(net.place_by_name("leak").unwrap()) > 0)
        .map(|(i, _)| analytic.absorption_probability[i])
        .sum();
    assert!(leak_p > 0.0 && leak_p < 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The uniformization survival curve of a random small absorbing SPN is
    // a proper survival function: S(0) = 1, monotone non-increasing, and
    // its integral over a long horizon is the absorption-solver MTTSF
    // (the paper's `MTTSF = ∫ S(t) dt` identity, checked numerically).
    #[test]
    fn survival_curve_is_proper_and_integrates_to_mtta(
        n in 1u32..10,
        die in 0.05f64..5.0,
        leak in 0.01f64..2.0,
    ) {
        let net = two_rate_net(n, die, leak);
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        let c = Ctmc::from_graph(&g).unwrap();
        let a = c.mean_time_to_absorption().unwrap();

        // long horizon: far past the mean; the slowest stage has rate
        // ≥ min(die, leak), so 30×MTTA leaves negligible tail mass
        let horizon = a.mtta * 30.0;
        let points = 240usize;
        let times: Vec<f64> = (0..=points)
            .map(|i| horizon * i as f64 / points as f64)
            .collect();
        let s = c.survival_curve(&times, &TransientOptions::default());

        prop_assert!((s[0] - 1.0).abs() < 1e-10, "S(0) = {}", s[0]);
        for w in s.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9, "survival increased: {} -> {}", w[0], w[1]);
        }
        for &v in &s {
            prop_assert!((0.0..=1.0).contains(&v));
        }

        // trapezoid ∫₀^horizon S(t) dt ≈ MTTA
        let h = horizon / points as f64;
        let integral: f64 = h
            * (s.iter().sum::<f64>() - 0.5 * (s[0] + s[points]));
        let rel = (integral - a.mtta).abs() / a.mtta;
        prop_assert!(rel < 0.02, "∫S = {} vs MTTA {} (rel {:.4})", integral, a.mtta, rel);
    }

    // Segment-wise propagation over an irregular grid matches independent
    // per-point transient solves.
    #[test]
    fn survival_curve_matches_per_point_transients(
        n in 1u32..8,
        die in 0.1f64..4.0,
        leak in 0.02f64..1.5,
        t1 in 0.01f64..2.0,
        t2 in 2.0f64..10.0,
    ) {
        let net = two_rate_net(n, die, leak);
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        let c = Ctmc::from_graph(&g).unwrap();
        let opts = TransientOptions::default();
        let times = [0.0, t1, t2];
        let s = c.survival_curve(&times, &opts);
        for (&t, &st) in times.iter().zip(&s) {
            let pi = c.transient_distribution(t, &opts);
            let direct: f64 = pi
                .iter()
                .zip(c.absorbing())
                .filter_map(|(&x, &a)| (!a).then_some(x))
                .sum();
            prop_assert!((st - direct).abs() < 1e-7, "t={}: {} vs {}", t, st, direct);
        }
    }
}
