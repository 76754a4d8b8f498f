//! Monte-Carlo token-game simulation of an SPN.
//!
//! The simulator plays the net directly: in each tangible marking it samples
//! the exponential race among enabled timed transitions, advances time,
//! accrues rate rewards, fires, resolves any enabled immediate transitions
//! (priority then weighted choice), and repeats until an absorbing marking
//! or a time/step cap. Replications run in parallel on `numerics::exec` with
//! deterministic per-replication seeds, providing an independent check of
//! the analytic CTMC solvers (the `runner` cross-validation harness and
//! `tests/tests/cross_validation.rs` check the agreement).

use crate::error::SpnError;
use crate::model::{Marking, Spn, TransitionId};
use crate::reward::RewardSet;
use numerics::replicate::{run_plan, OutcomeSink, Replicate, SamplingPlan};
use numerics::stats::{ConfidenceInterval, Welford};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Simulation run limits.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Stop (censor) a replication at this simulated time.
    pub max_time: f64,
    /// Stop (censor) a replication after this many timed firings.
    pub max_firings: u64,
    /// Cap on consecutive immediate firings (loop guard).
    pub max_immediate_chain: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            max_time: f64::INFINITY,
            max_firings: 50_000_000,
            max_immediate_chain: 64,
        }
    }
}

/// Outcome of a single replication.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Simulated time at which the run ended.
    pub time: f64,
    /// True when the run ended in an absorbing marking (not censored).
    pub absorbed: bool,
    /// Accumulated value of each rate reward in the [`RewardSet`] (rate
    /// rewards integrate over time; impulse rewards sum over firings), in
    /// the order rates-then-impulses.
    pub accumulated: Vec<f64>,
    /// Firing count of each transition, indexed by
    /// [`TransitionId::index`] (one entry per transition of the net).
    pub firings: Vec<u64>,
    /// Simulated time of each transition's first firing (`None` if it never
    /// fired), indexed by [`TransitionId::index`]. Lets callers derive
    /// first-passage observables — e.g. the delay from first compromise to
    /// first detection — without replaying.
    pub first_firings: Vec<Option<f64>>,
    /// Final marking.
    pub final_marking: Marking,
}

/// Aggregated statistics over replications.
#[derive(Debug, Clone)]
pub struct ReplicationStats {
    /// Time-to-absorption statistics (absorbed replications only).
    pub time_to_absorption: Welford,
    /// Per-reward accumulated statistics (all replications).
    pub accumulated: Vec<Welford>,
    /// Number of censored (non-absorbed) replications.
    pub censored: u64,
    /// Total replications.
    pub replications: u64,
}

impl ReplicationStats {
    /// Confidence interval on the mean time to absorption.
    pub fn mtta_ci(&self, level: f64) -> ConfidenceInterval {
        self.time_to_absorption.confidence_interval(level)
    }
}

/// Streaming aggregation of [`SimOutcome`]s for the shared replication
/// engine: Welford moments only, no outcome `Vec`. The first error (in
/// replication-index order) is retained and aborts the run's result.
#[derive(Clone)]
struct SimSink {
    tta: Welford,
    accumulated: Vec<Welford>,
    censored: u64,
    replications: u64,
    error: Option<SpnError>,
}

impl SimSink {
    fn new(reward_count: usize) -> Self {
        Self {
            tta: Welford::new(),
            accumulated: vec![Welford::new(); reward_count],
            censored: 0,
            replications: 0,
            error: None,
        }
    }

    fn into_result(self) -> Result<ReplicationStats, SpnError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(ReplicationStats {
                time_to_absorption: self.tta,
                accumulated: self.accumulated,
                censored: self.censored,
                replications: self.replications,
            }),
        }
    }
}

impl OutcomeSink<Result<SimOutcome, SpnError>> for SimSink {
    fn record(&mut self, outcome: Result<SimOutcome, SpnError>) {
        self.replications += 1;
        match outcome {
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(e);
                }
            }
            Ok(o) => {
                if o.absorbed {
                    self.tta.push(o.time);
                } else {
                    self.censored += 1;
                }
                for (w, &a) in self.accumulated.iter_mut().zip(&o.accumulated) {
                    w.push(a);
                }
            }
        }
    }

    fn merge(&mut self, other: Self) {
        self.tta.merge(&other.tta);
        for (w, o) in self.accumulated.iter_mut().zip(&other.accumulated) {
            w.merge(o);
        }
        self.censored += other.censored;
        self.replications += other.replications;
        // self covers the earlier index range, so its error stays first
        if self.error.is_none() {
            self.error = other.error;
        }
    }

    fn precision(&self) -> Option<f64> {
        if self.error.is_some() {
            // a fatal replication error: stop spawning batches immediately
            return Some(0.0);
        }
        self.tta.relative_precision(0.95)
    }
}

impl Replicate for Simulator<'_> {
    type Outcome = Result<SimOutcome, SpnError>;

    fn run_one(&self, seed: u64) -> Self::Outcome {
        Simulator::run_one(self, seed)
    }
}

/// SPN Monte-Carlo simulator.
pub struct Simulator<'a> {
    net: &'a Spn,
    rewards: &'a RewardSet,
    opts: SimOptions,
    /// Whether the net has any immediate transition; without one every
    /// marking is tangible and no firing needs settling.
    has_immediates: bool,
}

impl<'a> Simulator<'a> {
    /// Create a simulator for `net` accruing `rewards`.
    pub fn new(net: &'a Spn, rewards: &'a RewardSet, opts: SimOptions) -> Self {
        let has_immediates = net.transition_ids().any(|t| net.is_immediate(t));
        Self {
            net,
            rewards,
            opts,
            has_immediates,
        }
    }

    /// Run one replication with the given RNG seed. A timed step fires in
    /// place and counts into dense per-transition vectors, so on a net
    /// without immediate transitions a replication allocates only its
    /// outcome and one enabled-set buffer, whatever its length.
    ///
    /// # Errors
    /// Propagates rate-function failures and immediate-loop detection.
    pub fn run_one(&self, seed: u64) -> Result<SimOutcome, SpnError> {
        // detlint::allow(D003): leaf constructor — `seed` is a child_seed from the replicate grid, passed down by the executor
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut marking = self.net.initial_marking();
        let mut time = 0.0_f64;
        let n_rates = self.rewards.rates.len();
        let mut accumulated = vec![0.0_f64; n_rates + self.rewards.impulses.len()];
        let mut firings = vec![0u64; self.net.transition_count()];
        let mut first_firings = vec![None; self.net.transition_count()];
        let mut timed_firings = 0u64;
        let mut enabled: Vec<(TransitionId, f64)> = Vec::with_capacity(self.net.transition_count());

        // Resolve immediates at t=0 (vanishing initial marking).
        if self.has_immediates {
            self.settle_immediates(
                &mut marking,
                &mut rng,
                &mut firings,
                &mut first_firings,
                time,
                &mut accumulated,
            )?;
        }

        loop {
            // Empty both in an absorbing marking and in a dead one.
            self.net.enabled_timed(&marking, &mut enabled)?;
            if enabled.is_empty() {
                return Ok(SimOutcome {
                    time,
                    absorbed: true,
                    accumulated,
                    firings,
                    first_firings,
                    final_marking: marking,
                });
            }
            let total_rate: f64 = enabled.iter().map(|&(_, r)| r).sum();
            let dt = numerics::dist::sample_exponential(&mut rng, total_rate);
            let censored_dt = dt.min(self.opts.max_time - time);
            // Rate rewards accrue over the sojourn (censored at max_time).
            for (i, r) in self.rewards.rates.iter().enumerate() {
                accumulated[i] += (r.rate)(&marking) * censored_dt;
            }
            if time + dt > self.opts.max_time {
                return Ok(SimOutcome {
                    time: self.opts.max_time,
                    absorbed: false,
                    accumulated,
                    firings,
                    first_firings,
                    final_marking: marking,
                });
            }
            time += dt;
            // Pick the winning transition proportionally to rate.
            let mut pick = rng.gen::<f64>() * total_rate;
            let mut chosen = enabled[enabled.len() - 1].0;
            for &(t, r) in &enabled {
                if pick < r {
                    chosen = t;
                    break;
                }
                pick -= r;
            }
            // Impulse rewards observe the pre-firing marking.
            for (k, imp) in self.rewards.impulses.iter().enumerate() {
                if imp.transition == chosen {
                    accumulated[n_rates + k] += (imp.amount)(&marking);
                }
            }
            self.net.fire_in_place(chosen, &mut marking);
            firings[chosen.index()] += 1;
            first_firings[chosen.index()].get_or_insert(time);
            timed_firings += 1;
            if timed_firings >= self.opts.max_firings {
                return Ok(SimOutcome {
                    time,
                    absorbed: false,
                    accumulated,
                    firings,
                    first_firings,
                    final_marking: marking,
                });
            }
            if self.has_immediates {
                self.settle_immediates(
                    &mut marking,
                    &mut rng,
                    &mut firings,
                    &mut first_firings,
                    time,
                    &mut accumulated,
                )?;
            }
        }
    }

    /// Fire enabled immediate transitions (in zero time) until the marking
    /// is tangible.
    fn settle_immediates(
        &self,
        marking: &mut Marking,
        rng: &mut SmallRng,
        firings: &mut [u64],
        first_firings: &mut [Option<f64>],
        time: f64,
        accumulated: &mut [f64],
    ) -> Result<(), SpnError> {
        let n_rates = self.rewards.rates.len();
        for _ in 0..self.opts.max_immediate_chain {
            let immediates = self.net.enabled_immediate(marking)?;
            if immediates.is_empty() {
                return Ok(());
            }
            let total: f64 = immediates.iter().map(|&(_, w)| w).sum();
            let mut pick = rng.gen::<f64>() * total;
            let mut chosen = immediates[immediates.len() - 1].0;
            for &(t, w) in &immediates {
                if pick < w {
                    chosen = t;
                    break;
                }
                pick -= w;
            }
            for (k, imp) in self.rewards.impulses.iter().enumerate() {
                if imp.transition == chosen {
                    accumulated[n_rates + k] += (imp.amount)(marking);
                }
            }
            self.net.fire_in_place(chosen, marking);
            firings[chosen.index()] += 1;
            first_firings[chosen.index()].get_or_insert(time);
        }
        Err(SpnError::VanishingLoop {
            marking: format!("{marking:?}"),
        })
    }

    /// Run `n` replications in parallel with deterministic per-replication
    /// seeds derived from `master_seed` (a fixed [`SamplingPlan`] through
    /// the shared replication engine); outcomes stream into Welford
    /// accumulators, never a `Vec`.
    ///
    /// # Errors
    /// Returns the first replication error (in replication-index order).
    ///
    /// # Panics
    /// Panics when `n` is zero (see [`SamplingPlan::validate`]).
    pub fn run_replications(&self, n: u64, master_seed: u64) -> Result<ReplicationStats, SpnError> {
        let rewards = self.rewards.rates.len() + self.rewards.impulses.len();
        let done = run_plan(self, &SamplingPlan::Fixed(n), master_seed, || {
            SimSink::new(rewards)
        });
        done.sink.into_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SpnBuilder, TransitionDef};
    use crate::reward::{ImpulseReward, RateReward};

    fn exp_net(rate: f64) -> Spn {
        let mut b = SpnBuilder::new();
        let up = b.add_place("up", 1);
        b.add_transition(TransitionDef::timed_const("fail", rate).input(up, 1));
        b.build().unwrap()
    }

    #[test]
    fn single_replication_absorbs() {
        let net = exp_net(1.0);
        let rewards = RewardSet::new();
        let sim = Simulator::new(&net, &rewards, SimOptions::default());
        let o = sim.run_one(42).unwrap();
        assert!(o.absorbed);
        assert!(o.time > 0.0);
        assert_eq!(o.final_marking.total_tokens(), 0);
        assert_eq!(o.firings.iter().sum::<u64>(), 1);
    }

    #[test]
    fn replications_match_exponential_mean() {
        let net = exp_net(2.0);
        let rewards = RewardSet::new();
        let sim = Simulator::new(&net, &rewards, SimOptions::default());
        let stats = sim.run_replications(20_000, 7).unwrap();
        assert_eq!(stats.censored, 0);
        let ci = stats.mtta_ci(0.99);
        assert!(
            ci.contains(0.5),
            "CI [{}, {}] should contain 0.5",
            ci.lo(),
            ci.hi()
        );
    }

    #[test]
    fn adaptive_sampling_stops_at_target_precision() {
        let net = exp_net(1.0);
        let rewards = RewardSet::new();
        let sim = Simulator::new(&net, &rewards, SimOptions::default());
        let plan = SamplingPlan::Adaptive {
            target_rel_halfwidth: 0.10,
            min: 100,
            max: 50_000,
            batch: 200,
        };
        let out = run_plan(&sim, &plan, 13, || SimSink::new(0));
        assert_eq!(out.target_met, Some(true));
        let stats = out.sink.into_result().unwrap();
        let n = stats.replications;
        assert!(n < 50_000, "should stop early, used {n}");
        let ci = stats.mtta_ci(0.95);
        assert!(ci.half_width / ci.mean <= 0.10, "{ci:?}");
        // bit-identical to the fixed plan with the same replication count
        let fixed = sim.run_replications(n, 13).unwrap();
        assert_eq!(fixed.time_to_absorption, stats.time_to_absorption);
    }

    #[test]
    fn deterministic_given_seed() {
        let net = exp_net(1.0);
        let rewards = RewardSet::new();
        let sim = Simulator::new(&net, &rewards, SimOptions::default());
        let a = sim.run_one(9).unwrap();
        let b = sim.run_one(9).unwrap();
        assert_eq!(a.time, b.time);
    }

    #[test]
    fn censoring_at_max_time() {
        let net = exp_net(1e-9); // effectively never fires
        let rewards = RewardSet::new();
        let opts = SimOptions {
            max_time: 5.0,
            ..Default::default()
        };
        let sim = Simulator::new(&net, &rewards, opts);
        let o = sim.run_one(1).unwrap();
        assert!(!o.absorbed);
        assert_eq!(o.time, 5.0);
    }

    #[test]
    fn rate_reward_integrates_uptime() {
        // reward = 1 while up; accumulated == time to absorption
        let net = exp_net(0.5);
        let up = net.place_by_name("up").unwrap();
        let rewards =
            RewardSet::new().with_rate(RateReward::new("up", move |m| m.tokens(up) as f64));
        let sim = Simulator::new(&net, &rewards, SimOptions::default());
        let o = sim.run_one(5).unwrap();
        assert!((o.accumulated[0] - o.time).abs() < 1e-12);
    }

    #[test]
    fn impulse_reward_counts_firings() {
        let mut b = SpnBuilder::new();
        let up = b.add_place("up", 4);
        b.add_transition(TransitionDef::timed("die", move |m| m.tokens(up) as f64).input(up, 1));
        let net = b.build().unwrap();
        let t = net.transition_by_name("die").unwrap();
        let rewards = RewardSet::new().with_impulse(ImpulseReward::new("evt", t, |_| 2.5));
        let sim = Simulator::new(&net, &rewards, SimOptions::default());
        let o = sim.run_one(3).unwrap();
        assert!(o.absorbed);
        assert_eq!(o.firings[t.index()], 4);
        assert!((o.accumulated[0] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn immediate_transitions_resolve_in_zero_time() {
        let mut b = SpnBuilder::new();
        let s = b.add_place("s", 1);
        let v = b.add_place("v", 0);
        let done = b.add_place("done", 0);
        b.add_transition(
            TransitionDef::timed_const("go", 4.0)
                .input(s, 1)
                .output(v, 1),
        );
        b.add_transition(TransitionDef::immediate("snap").input(v, 1).output(done, 1));
        let net = b.build().unwrap();
        let rewards = RewardSet::new();
        let sim = Simulator::new(&net, &rewards, SimOptions::default());
        let o = sim.run_one(11).unwrap();
        assert!(o.absorbed);
        assert_eq!(o.final_marking.tokens(done), 1);
        assert_eq!(o.firings, vec![1, 1]);
    }

    #[test]
    fn immediate_loop_reports_error() {
        let mut b = SpnBuilder::new();
        let a = b.add_place("a", 1);
        let c = b.add_place("c", 0);
        b.add_transition(TransitionDef::immediate("ab").input(a, 1).output(c, 1));
        b.add_transition(TransitionDef::immediate("ba").input(c, 1).output(a, 1));
        let net = b.build().unwrap();
        let rewards = RewardSet::new();
        let sim = Simulator::new(&net, &rewards, SimOptions::default());
        assert!(matches!(
            sim.run_one(1),
            Err(SpnError::VanishingLoop { .. })
        ));
    }

    #[test]
    fn absorbing_predicate_stops_run() {
        let mut b = SpnBuilder::new();
        let up = b.add_place("up", 10);
        b.add_transition(TransitionDef::timed("die", move |m| m.tokens(up) as f64).input(up, 1));
        b.absorbing_when(move |m| m.tokens(up) <= 7);
        let net = b.build().unwrap();
        let rewards = RewardSet::new();
        let sim = Simulator::new(&net, &rewards, SimOptions::default());
        let o = sim.run_one(2).unwrap();
        assert!(o.absorbed);
        assert_eq!(o.final_marking.tokens(net.place_by_name("up").unwrap()), 7);
    }

    #[test]
    fn simulation_agrees_with_ctmc_mtta() {
        // death chain with 3 tokens, rate k per token
        let mut b = SpnBuilder::new();
        let up = b.add_place("up", 3);
        b.add_transition(
            TransitionDef::timed("die", move |m| 0.8 * m.tokens(up) as f64).input(up, 1),
        );
        let net = b.build().unwrap();
        let g = crate::reach::explore(&net, &Default::default()).unwrap();
        let ctmc = crate::ctmc::Ctmc::from_graph(&g).unwrap();
        let exact = ctmc.mean_time_to_absorption().unwrap().mtta;
        let rewards = RewardSet::new();
        let sim = Simulator::new(&net, &rewards, SimOptions::default());
        let stats = sim.run_replications(30_000, 123).unwrap();
        let ci = stats.mtta_ci(0.99);
        assert!(
            ci.contains(exact),
            "CI [{}, {}] vs exact {exact}",
            ci.lo(),
            ci.hi()
        );
    }
}
