//! Property-based checks of the [`spn::TransientEngine`]: the optimized
//! submatrix/ELL path must agree with a naive dense uniformization
//! reference, steady-state detection must only collapse tails it has
//! earned, early-exit grids must agree with full propagation, a
//! multi-horizon pass must reproduce one fresh engine per horizon bit for
//! bit, and an observed sweep must hand over the live distribution it
//! reads survival from.

use numerics::foxglynn::PoissonWeights;
use proptest::prelude::*;
use spn::ctmc::{Ctmc, TransientOptions};
use spn::model::{SpnBuilder, TransitionDef};
use spn::reach::{explore, ExploreOptions, ReachabilityGraph};
use spn::{TransientEngine, TransientStats};

/// Randomized death process: `n` tokens drain with per-token rate `base`,
/// optionally with a bypass transition removing two at once (gives the
/// chain branching, so absorption is not a straight line).
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

/// Naive dense uniformization: build the full `n × n` DTMC `P = I + Q/q`
/// from the reachability graph, run plain dense vector-matrix products,
/// and mix with independently computed Poisson weights. Shares no code
/// with the engine's compact-submatrix path beyond Fox–Glynn itself.
fn dense_survival(graph: &ReachabilityGraph, times: &[f64]) -> Vec<f64> {
    let n = graph.state_count();
    let mut exit = vec![0.0f64; n];
    for (s, elist) in graph.edges.iter().enumerate() {
        for e in elist {
            exit[s] += e.rate;
        }
    }
    let q = exit.iter().cloned().fold(0.0f64, f64::max) * 1.05 + 1e-9;
    let mut p = vec![vec![0.0f64; n]; n];
    for (s, elist) in graph.edges.iter().enumerate() {
        p[s][s] = 1.0 - exit[s] / q;
        for e in elist {
            p[s][e.target as usize] += e.rate / q;
        }
    }
    times
        .iter()
        .map(|&t| {
            // The chain starts at state 0, the initial marking.
            let mut v = vec![0.0f64; n];
            v[0] = 1.0;
            let w = PoissonWeights::compute(q * t, 1e-12);
            let mut survival = 0.0;
            for k in 0..=w.right {
                let wk = w.weight(k);
                if wk > 0.0 {
                    survival += wk
                        * v.iter()
                            .enumerate()
                            .filter(|&(s, _)| !graph.absorbing[s])
                            .map(|(_, &x)| x)
                            .sum::<f64>();
                }
                if k == w.right {
                    break;
                }
                let next: Vec<f64> = (0..n)
                    .map(|j| (0..n).map(|i| v[i] * p[i][j]).sum())
                    .collect();
                v = next;
            }
            survival
        })
        .collect()
}

/// The explored chain of [`death_net`].
fn death_chain(n: u32, base: f64, with_bypass: bool) -> Ctmc {
    let graph = explore(&death_net(n, base, with_bypass), &ExploreOptions::default()).unwrap();
    Ctmc::from_graph(&graph).unwrap()
}

/// One fresh survival-only engine per time: the one-point curve at `t`.
fn fresh_survival(ctmc: &Ctmc, t: f64, opts: &TransientOptions) -> (f64, TransientStats) {
    let mut engine = TransientEngine::for_survival(ctmc, opts);
    let s = engine.survival_curve(&[t], |_| {})[0];
    (s, engine.stats().clone())
}

/// Assert that the multi-horizon survival pass equals one fresh engine
/// per time by `to_bits`, and that it costs the deepest fresh engine's
/// matvecs and detects where it does.
fn assert_pass_matches_fresh_engines(ctmc: &Ctmc, times: &[f64], opts: &TransientOptions) {
    let (survs, pass) = ctmc.survival_at(times, opts);
    assert_eq!(survs.len(), times.len());
    let mut fresh = Vec::new();
    for (i, &t) in times.iter().enumerate() {
        let (s, st) = fresh_survival(ctmc, t, opts);
        assert_eq!(survs[i].to_bits(), s.to_bits(), "survival at t[{i}] = {t}");
        fresh.push(st);
    }
    let deepest = fresh.iter().map(|s| s.matvecs).max().unwrap_or(0);
    assert_eq!(pass.matvecs, deepest);
    let detected = fresh.iter().filter_map(|s| s.detection_step).max();
    assert_eq!(pass.detection_step, detected);
}

/// A horizon whose Fox–Glynn window ends exactly at the pass's detection
/// step still takes its steady-state tail; one ending a step earlier
/// closes before detection and takes none. Both match their fresh
/// engines bit for bit inside a pass with a deeper horizon.
#[test]
fn horizon_ending_at_the_detection_step_matches_fresh_engines() {
    let ctmc = death_chain(4, 1.0, true);
    let mtta = ctmc.mean_time_to_absorption().unwrap().mtta;
    let opts = TransientOptions {
        detect_tolerance: 1e-12,
        early_exit: false,
        ..TransientOptions::default()
    };
    let deep = 40.0 * mtta;
    let (_, st) = fresh_survival(&ctmc, deep, &opts);
    let step = st.detection_step.expect("detection fires by 40·MTTA") as usize;
    // Smallest horizon whose right truncation point reaches `target`,
    // searched on the same `q·t` product the engine forms.
    let right_at = |t: f64| PoissonWeights::compute(ctmc.poisson_depth(t), opts.epsilon).right;
    let horizon_with_right = |target: usize| {
        let (mut lo, mut hi) = (0.0, deep);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if right_at(mid) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        assert_eq!(right_at(hi), target, "no horizon ends at step {target}");
        hi
    };
    let at = horizon_with_right(step);
    let before = horizon_with_right(step - 1);
    let (_, st) = fresh_survival(&ctmc, at, &opts);
    assert_eq!(st.detection_step, Some(step as u64));
    let (_, st) = fresh_survival(&ctmc, before, &opts);
    assert_eq!((st.matvecs, st.detection_step), (step as u64 - 1, None));
    assert_pass_matches_fresh_engines(&ctmc, &[deep, at, 0.0, before, at], &opts);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // (d) A multi-horizon survival pass equals one fresh engine per time
    // by `to_bits`, on unsorted times with a duplicate and t = 0, with
    // steady-state detection on and off.
    #[test]
    fn multi_horizon_pass_is_bit_identical_to_fresh_engines(
        n in 1u32..9,
        base in 0.1f64..3.0,
        bypass in any::<bool>(),
        factors in proptest::collection::vec(0.0f64..45.0, 1..6),
        detect in any::<bool>(),
    ) {
        let ctmc = death_chain(n, base, bypass);
        let mtta = ctmc.mean_time_to_absorption().unwrap().mtta;
        let mut times: Vec<f64> = factors.iter().map(|f| f * mtta).collect();
        times.push(0.0);
        times.push(times[0]);
        let opts = TransientOptions {
            detect_tolerance: if detect { 1e-12 } else { 0.0 },
            ..TransientOptions::default()
        };
        assert_pass_matches_fresh_engines(&ctmc, &times, &opts);
    }

    // (a) The engine's compact-submatrix ELL path reproduces a naive
    // dense uniformization of the same chain.
    #[test]
    fn engine_matches_naive_dense_uniformization(
        n in 1u32..8,
        base in 0.1f64..3.0,
        bypass in any::<bool>(),
    ) {
        let net = death_net(n, base, bypass);
        let graph = explore(&net, &ExploreOptions::default()).unwrap();
        let ctmc = Ctmc::from_graph(&graph).unwrap();
        let mtta = ctmc.mean_time_to_absorption().unwrap().mtta;
        let times: Vec<f64> = [0.3, 0.7, 1.3, 2.1].iter().map(|f| f * mtta).collect();
        let engine = ctmc.survival_curve(&times, &TransientOptions::default());
        let dense = dense_survival(&graph, &times);
        for (i, (e, d)) in engine.iter().zip(&dense).enumerate() {
            prop_assert!(
                (e - d).abs() < 1e-7,
                "t[{i}]: engine {e} vs dense {d}"
            );
        }
    }

    // (b) Steady-state detection truncates the matvec sequence but not
    // the answer: detected curves match undetected ones, with no more
    // matvecs spent.
    #[test]
    fn detection_preserves_curves_with_fewer_matvecs(
        n in 2u32..10,
        base in 0.2f64..2.0,
        bypass in any::<bool>(),
    ) {
        let net = death_net(n, base, bypass);
        let graph = explore(&net, &ExploreOptions::default()).unwrap();
        let ctmc = Ctmc::from_graph(&graph).unwrap();
        let mtta = ctmc.mean_time_to_absorption().unwrap().mtta;
        // the last point sits deep past absorption, where ‖vP − v‖∞
        // certainly undercuts the detection tolerance
        let times: Vec<f64> = [0.5, 1.5, 40.0].iter().map(|f| f * mtta).collect();
        let base_opts = TransientOptions {
            detect_tolerance: 0.0,
            early_exit: false,
            ..TransientOptions::default()
        };
        let detect_opts = TransientOptions {
            detect_tolerance: 1e-12,
            ..base_opts
        };
        let (full, full_stats) = ctmc.survival_curve_with_stats(&times, &base_opts);
        let (det, det_stats) = ctmc.survival_curve_with_stats(&times, &detect_opts);
        prop_assert_eq!(full_stats.detection_step, None);
        prop_assert!(det_stats.detection_step.is_some(), "detection must fire past 40·MTTA");
        prop_assert!(det_stats.matvecs < full_stats.matvecs,
            "detected {} vs full {}", det_stats.matvecs, full_stats.matvecs);
        for (i, (a, b)) in det.iter().zip(&full).enumerate() {
            prop_assert!((a - b).abs() < 1e-9, "t[{i}]: detected {a} vs full {b}");
        }
    }

    // (c) Early-exit grids agree with full propagation: once the live
    // mass is below epsilon every later point is an honest zero.
    #[test]
    fn early_exit_agrees_with_full_propagation(
        n in 1u32..8,
        base in 0.2f64..2.0,
        bypass in any::<bool>(),
    ) {
        let net = death_net(n, base, bypass);
        let graph = explore(&net, &ExploreOptions::default()).unwrap();
        let ctmc = Ctmc::from_graph(&graph).unwrap();
        let mtta = ctmc.mean_time_to_absorption().unwrap().mtta;
        // 10 points out to 45·MTTA: the live mass drops below the 1e-10
        // truncation epsilon well before the tail of the grid
        let times: Vec<f64> = (1..=10).map(|i| 4.5 * i as f64 * mtta).collect();
        let base_opts = TransientOptions {
            early_exit: false,
            ..TransientOptions::default()
        };
        let exit_opts = TransientOptions {
            early_exit: true,
            ..base_opts
        };
        let (full, full_stats) = ctmc.survival_curve_with_stats(&times, &base_opts);
        let (fast, fast_stats) = ctmc.survival_curve_with_stats(&times, &exit_opts);
        prop_assert!(!full_stats.early_exit);
        prop_assert!(fast_stats.early_exit, "grid must exit early past 45·MTTA");
        prop_assert!(fast_stats.matvecs < full_stats.matvecs);
        for (i, (a, b)) in fast.iter().zip(&full).enumerate() {
            prop_assert!((a - b).abs() < 1e-8, "t[{i}]: early-exit {a} vs full {b}");
        }
    }

    // (e) An observed sweep is the unobserved one: same curve and
    // telemetry bit for bit, every point handed over once in order with
    // the survival value the curve reports, and the live mass it hands
    // over is the transient part of the fresh full-tracking distribution.
    #[test]
    fn observed_sweep_hands_over_the_live_distribution(
        n in 1u32..9,
        base in 0.1f64..3.0,
        bypass in any::<bool>(),
        factor in 0.05f64..4.0,
    ) {
        let ctmc = death_chain(n, base, bypass);
        let mtta = ctmc.mean_time_to_absorption().unwrap().mtta;
        let t = factor * mtta;
        let opts = TransientOptions::default();
        let mut seen = Vec::new();
        let (curve, stats) = ctmc.survival_curve_observed(&[0.0, t], &opts, |p| {
            let live: Vec<(u32, f64)> =
                p.states.iter().copied().zip(p.mass.iter().copied()).collect();
            seen.push((p.index, p.survival, live));
        });
        let (plain, plain_stats) = ctmc.survival_curve_with_stats(&[0.0, t], &opts);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&curve), bits(&plain));
        prop_assert_eq!(stats, plain_stats);
        prop_assert_eq!(seen.len(), 2);
        let full = ctmc.transient_distribution(t, &opts);
        for (i, (index, survival, live)) in seen.iter().enumerate() {
            prop_assert_eq!(*index, i);
            prop_assert_eq!(survival.to_bits(), curve[i].to_bits());
            prop_assert!(!live.is_empty());
            if i == 1 {
                for &(state, mass) in live {
                    prop_assert_eq!(mass.to_bits(), full[state as usize].to_bits());
                }
            }
        }
    }
}
