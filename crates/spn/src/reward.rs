//! Reward structures over SPN markings.
//!
//! A Markov reward model attaches *rate rewards* (earned per unit time while
//! the chain sits in a state) and *impulse rewards* (earned on each firing
//! of a transition). The paper's metrics map directly:
//!
//! * MTTSF — rate reward 1 on every non-failed state, accumulated to
//!   absorption;
//! * Ĉtotal — the six cost components as rate rewards in hop·bits/s (plus
//!   impulse costs for per-event traffic such as rekey messages),
//!   accumulated to absorption and divided by MTTSF.

use crate::model::{Marking, Spn, TransitionId};
use crate::reach::ReachabilityGraph;
use std::sync::Arc;

/// A named marking-dependent rate reward.
#[derive(Clone)]
pub struct RateReward {
    /// Reward name (used in reports).
    pub name: String,
    /// Reward earned per unit time in a marking.
    pub rate: Arc<dyn Fn(&Marking) -> f64 + Send + Sync>,
}

impl RateReward {
    /// Create a rate reward.
    pub fn new(
        name: impl Into<String>,
        rate: impl Fn(&Marking) -> f64 + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            rate: Arc::new(rate),
        }
    }
}

impl std::fmt::Debug for RateReward {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RateReward({})", self.name)
    }
}

/// A named impulse reward earned on each firing of a transition. The amount
/// may depend on the marking *before* the firing.
#[derive(Clone)]
pub struct ImpulseReward {
    /// Reward name.
    pub name: String,
    /// Transition that triggers the impulse.
    pub transition: TransitionId,
    /// Impulse amount as a function of the pre-firing marking.
    pub amount: Arc<dyn Fn(&Marking) -> f64 + Send + Sync>,
}

impl ImpulseReward {
    /// Create an impulse reward.
    pub fn new(
        name: impl Into<String>,
        transition: TransitionId,
        amount: impl Fn(&Marking) -> f64 + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            transition,
            amount: Arc::new(amount),
        }
    }

    /// Convert to an equivalent per-state rate-reward vector:
    /// in state `s` the impulse accrues at `rate(t, s) · amount(s)` per unit
    /// time, where `rate(t, s)` sums the CTMC edges (and recorded cost-only
    /// self-loops) of this transition out of `s`.
    pub fn per_state(&self, net: &Spn, graph: &ReachabilityGraph) -> Vec<f64> {
        let mut out = vec![0.0; graph.state_count()];
        for (s, m) in graph.states.iter().enumerate() {
            let mut rate = 0.0;
            for e in &graph.edges[s] {
                if e.transition == self.transition {
                    rate += e.rate;
                }
            }
            for &(t, r) in &graph.self_loop_rates[s] {
                if t == self.transition {
                    rate += r;
                }
            }
            if rate > 0.0 {
                out[s] = rate * (self.amount)(m);
            }
        }
        let _ = net;
        out
    }
}

impl std::fmt::Debug for ImpulseReward {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ImpulseReward({})", self.name)
    }
}

/// A bundle of rewards evaluated together.
#[derive(Debug, Clone, Default)]
pub struct RewardSet {
    /// Rate rewards.
    pub rates: Vec<RateReward>,
    /// Impulse rewards.
    pub impulses: Vec<ImpulseReward>,
}

impl RewardSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rate reward (builder style).
    pub fn with_rate(mut self, r: RateReward) -> Self {
        self.rates.push(r);
        self
    }

    /// Add an impulse reward (builder style).
    pub fn with_impulse(mut self, i: ImpulseReward) -> Self {
        self.impulses.push(i);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SpnBuilder, TransitionDef};
    use crate::reach::{explore, ExploreOptions};

    fn two_state() -> (Spn, ReachabilityGraph) {
        let mut b = SpnBuilder::new();
        let up = b.add_place("up", 1);
        let down = b.add_place("down", 0);
        b.add_transition(
            TransitionDef::timed_const("fail", 2.0)
                .input(up, 1)
                .output(down, 1),
        );
        let net = b.build().unwrap();
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        (net, g)
    }

    #[test]
    fn impulse_reward_converts_to_rate() {
        let (net, g) = two_state();
        let t = net.transition_by_name("fail").unwrap();
        let i = ImpulseReward::new("fail_cost", t, |_| 10.0);
        let v = i.per_state(&net, &g);
        // state 0 fires `fail` at rate 2 with impulse 10 → 20/time
        assert_eq!(v[0], 20.0);
        assert_eq!(v[1], 0.0);
    }

    #[test]
    fn impulse_on_self_loop_counts() {
        let mut b = SpnBuilder::new();
        let up = b.add_place("up", 1);
        b.add_transition(TransitionDef::timed_const("noop", 3.0)); // self loop
        b.add_transition(TransitionDef::timed_const("fail", 1.0).input(up, 1));
        let net = b.build().unwrap();
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        let t = net.transition_by_name("noop").unwrap();
        let i = ImpulseReward::new("noop_cost", t, |_| 5.0);
        let v = i.per_state(&net, &g);
        assert_eq!(v[0], 15.0); // rate 3 × impulse 5
    }
}
