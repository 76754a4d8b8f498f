//! Monte-Carlo token-game simulation of an SPN.
//!
//! The simulator plays the net directly: in each marking it samples the
//! exponential race among enabled transitions, advances time, accrues rate
//! rewards, fires, and repeats until an absorbing marking or a time/step
//! cap. Replications run in parallel on `numerics::exec` with
//! deterministic per-replication seeds, providing an independent check of
//! the analytic CTMC solvers (the `runner` cross-validation harness and
//! `tests/tests/cross_validation.rs` check the agreement).
//!
//! A replication visits few distinct markings, and later replications
//! revisit them, so a [`Simulator`] memoizes each marking's race the first
//! time a replication enters it: the enabled `(transition, rate)` list and
//! its total, the rate-reward values, the impulses each transition
//! charges, and — once a transition has fired there — the successor
//! marking's entry. It fills that memo from the net's own rules
//! ([`Spn::enabled_timed`], [`Spn::fire_in_place`]) and the reward
//! closures only, never from a reachability graph or a chain, so the token
//! game stays independent of exploration and the solvers. A warm step is
//! two draws, a pick over the memoized list and an index hop: no closure
//! call and no marking hash. At most 2¹⁶ markings are memoized per memo;
//! past that a step evaluates each new marking afresh, through the same
//! code. A rate failure is returned, never memoized. Draws, summation
//! orders and outcomes are those of evaluating every step afresh, which
//! debug builds check after every step (bit for bit).

use crate::error::SpnError;
use crate::model::{Marking, Spn, TransitionId};
use crate::reward::RewardSet;
use numerics::replicate::{run_plan, OutcomeSink, Replicate, SamplingPlan};
use numerics::stats::{ConfidenceInterval, Welford};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, PoisonError};

/// Simulation run limits.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Stop (censor) a replication at this simulated time.
    pub max_time: f64,
    /// Stop (censor) a replication after this many firings.
    pub max_firings: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            max_time: f64::INFINITY,
            max_firings: 50_000_000,
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

/// Markings one [`Table`] memoizes. Past it, a step fills the race of a
/// new marking into the table's scratch slot instead, through the same
/// code, and memoizes nothing more.
const TABLE_STATES: usize = 1 << 16;

/// Successor of an edge not yet fired from its state (or fired into the
/// scratch slot).
const UNSEEN: u32 = u32::MAX;

/// One impulse reward charged when edge `edge` of its state fires.
#[derive(Clone, Copy)]
struct Impulse {
    /// The edge's position in its state's race.
    edge: u32,
    /// Index of the impulse reward in [`RewardSet::impulses`].
    reward: u32,
    /// Amount in the state's marking.
    amount: f64,
}

/// The race of every marking the replications using this table have
/// entered, filled once per marking from the net's own rules ([`Spn::enabled_timed`],
/// [`Spn::fire_in_place`]) and the reward closures.
///
/// State `s` is a marking (`markings[s·places..]`), its enabled
/// `(transition, rate)` edges in transition order with their total, its
/// rate-reward values and the impulses each edge charges. An edge's
/// successor state is recorded once it has fired. State 0 is the initial
/// marking: every replication enters it first. The states past
/// [`TABLE_STATES`] are one scratch slot, refilled on every entry and
/// never indexed.
struct Table {
    places: usize,
    /// Rate rewards per state.
    n_rates: usize,
    markings: Vec<u32>,
    total: Vec<f64>,
    /// Edges of state `s`: `first_edge[s]..first_edge[s + 1]`.
    first_edge: Vec<u32>,
    edges: Vec<(TransitionId, f64)>,
    /// Successor state of each edge, [`UNSEEN`] until fired.
    next: Vec<u32>,
    /// Rate-reward values, `n_rates` per state.
    rates: Vec<f64>,
    /// Impulses of state `s`: `first_impulse[s]..first_impulse[s + 1]`.
    first_impulse: Vec<u32>,
    impulses: Vec<Impulse>,
    /// Open-addressing index from a marking to its state + 1 (0 = empty
    /// slot); a power-of-two length, at most half full.
    slots: Vec<u32>,
    /// Working marking: the one a step fires in or fills a race from.
    marking: Marking,
    /// Buffer of [`Spn::enabled_timed`].
    enabled: Vec<(TransitionId, f64)>,
}

impl Table {
    fn new(net: &Spn, rewards: &RewardSet) -> Self {
        Self {
            places: net.place_count(),
            n_rates: rewards.rates.len(),
            markings: Vec::new(),
            total: Vec::new(),
            first_edge: vec![0],
            edges: Vec::new(),
            next: Vec::new(),
            rates: Vec::new(),
            first_impulse: vec![0],
            impulses: Vec::new(),
            slots: vec![0; 64],
            marking: net.initial_marking(),
            enabled: Vec::with_capacity(net.transition_count()),
        }
    }

    fn len(&self) -> usize {
        self.total.len()
    }

    fn marking(&self, s: u32) -> &[u32] {
        let at = s as usize * self.places;
        &self.markings[at..at + self.places]
    }

    /// Edge range of state `s` in `edges` and `next`.
    fn edge_range(&self, s: u32) -> std::ops::Range<usize> {
        self.first_edge[s as usize] as usize..self.first_edge[s as usize + 1] as usize
    }

    fn impulses(&self, s: u32) -> &[Impulse] {
        &self.impulses
            [self.first_impulse[s as usize] as usize..self.first_impulse[s as usize + 1] as usize]
    }

    fn rates(&self, s: u32) -> &[f64] {
        &self.rates[s as usize * self.n_rates..(s as usize + 1) * self.n_rates]
    }

    /// Copy state `s`'s marking into the working marking.
    fn load(&mut self, s: u32) {
        let at = s as usize * self.places;
        self.marking
            .as_mut_slice()
            .copy_from_slice(&self.markings[at..at + self.places]);
    }

    /// Fire edge `e` of state `s` into the working marking.
    fn fire(&mut self, net: &Spn, s: u32, e: usize) {
        self.load(s);
        net.fire_in_place(
            self.edges[self.edge_range(s).start + e].0,
            &mut self.marking,
        );
    }

    /// Fire edge `e` of state `s` and return the successor's state,
    /// recording it on the edge unless it is the scratch slot.
    ///
    /// # Errors
    /// Propagates a rate failure in a marking not yet in the table.
    fn step(&mut self, net: &Spn, rewards: &RewardSet, s: u32, e: usize) -> Result<u32, SpnError> {
        self.fire(net, s, e);
        let edge = self.edge_range(s).start + e;
        let next = match self.find() {
            Ok(next) => next,
            Err(slot) => self.fill(net, rewards, slot)?,
        };
        if (next as usize) < TABLE_STATES {
            self.next[edge] = next;
        }
        Ok(next)
    }

    /// The state of the working marking, or the index slot it would take.
    fn find(&self) -> Result<u32, usize> {
        let m = self.marking.as_slice();
        let mask = self.slots.len() - 1;
        let mut i = hash(m) & mask;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                s if self.marking(s - 1) == m => return Ok(s - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Append the working marking's race as a new state — indexed at
    /// `slot`, or the scratch slot once the table is full — and return it.
    /// A rate failure appends nothing.
    fn fill(&mut self, net: &Spn, rewards: &RewardSet, slot: usize) -> Result<u32, SpnError> {
        if self.len() > TABLE_STATES {
            self.truncate_scratch();
        }
        net.enabled_timed(&self.marking, &mut self.enabled)?;
        let s = self.len() as u32;
        let m = &self.marking;
        self.markings.extend_from_slice(m.as_slice());
        self.total.push(self.enabled.iter().map(|&(_, r)| r).sum());
        self.edges.extend_from_slice(&self.enabled);
        self.next.resize(self.edges.len(), UNSEEN);
        self.first_edge
            .push(u32::try_from(self.edges.len()).expect("fewer than 2³² memoized edges"));
        self.rates.extend(rewards.rates.iter().map(|r| (r.rate)(m)));
        for (e, &(t, _)) in self.enabled.iter().enumerate() {
            for (k, imp) in rewards.impulses.iter().enumerate() {
                if imp.transition == t {
                    self.impulses.push(Impulse {
                        edge: e as u32,
                        reward: k as u32,
                        amount: (imp.amount)(m),
                    });
                }
            }
        }
        self.first_impulse
            .push(u32::try_from(self.impulses.len()).expect("fewer than 2³² memoized impulses"));
        if (s as usize) < TABLE_STATES {
            self.slots[slot] = s + 1;
            if 2 * self.len() > self.slots.len() {
                self.grow_index();
            }
        }
        Ok(s)
    }

    /// Drop the scratch slot.
    fn truncate_scratch(&mut self) {
        let n = TABLE_STATES;
        self.markings.truncate(n * self.places);
        self.total.truncate(n);
        self.first_edge.truncate(n + 1);
        self.edges.truncate(self.first_edge[n] as usize);
        self.next.truncate(self.first_edge[n] as usize);
        self.rates.truncate(n * self.n_rates);
        self.first_impulse.truncate(n + 1);
        self.impulses.truncate(self.first_impulse[n] as usize);
    }

    /// Double the index and re-insert every indexed state.
    fn grow_index(&mut self) {
        self.slots = vec![0; 2 * self.slots.len()];
        let mask = self.slots.len() - 1;
        for s in 0..self.len().min(TABLE_STATES) as u32 {
            let mut i = hash(self.marking(s)) & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = s + 1;
        }
    }

    /// True when state `s`'s race, rate-reward values and impulses equal a
    /// fresh evaluation bit for bit. Allocates nothing.
    fn is_fresh(&mut self, net: &Spn, rewards: &RewardSet, s: u32) -> bool {
        self.load(s);
        let m = &self.marking;
        if net.enabled_timed(m, &mut self.enabled).is_err() {
            return false;
        }
        let bits = |(t, r): (TransitionId, f64)| (t, r.to_bits());
        let edges = &self.edges[self.edge_range(s)];
        let race_ok = edges.len() == self.enabled.len()
            && edges
                .iter()
                .zip(&self.enabled)
                .all(|(&a, &b)| bits(a) == bits(b))
            && self.total[s as usize].to_bits()
                == self.enabled.iter().map(|&(_, r)| r).sum::<f64>().to_bits();
        let rates_ok = rewards
            .rates
            .iter()
            .zip(self.rates(s))
            .all(|(r, v)| (r.rate)(m).to_bits() == v.to_bits());
        let mut impulses = self.impulses(s).iter();
        let impulses_ok = self.enabled.iter().enumerate().all(|(e, &(t, _))| {
            rewards
                .impulses
                .iter()
                .enumerate()
                .filter(|(_, imp)| imp.transition == t)
                .all(|(k, imp)| {
                    impulses.next().is_some_and(|i| {
                        i.edge as usize == e
                            && i.reward as usize == k
                            && i.amount.to_bits() == (imp.amount)(m).to_bits()
                    })
                })
        }) && impulses.next().is_none();
        race_ok && rates_ok && impulses_ok
    }

    /// True when firing edge `e` of state `s` reaches state `next`.
    /// Allocates nothing.
    fn fires_into(&mut self, net: &Spn, s: u32, e: usize, next: u32) -> bool {
        self.fire(net, s, e);
        self.marking.as_slice() == self.marking(next)
    }
}

/// FxHash of a marking.
fn hash(m: &[u32]) -> usize {
    m.iter().fold(0u64, |h, &w| {
        (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(0x517c_c1b7_2722_0a95)
    }) as usize
}

/// SPN Monte-Carlo simulator.
///
/// Replications memoize the race of each marking they enter (see the
/// module docs) in tables kept in a small pool: a replication checks one
/// out for its whole run, so concurrent workers never share one, and
/// which table a replication uses cannot change its outcome.
pub struct Simulator<'a> {
    net: &'a Spn,
    rewards: &'a RewardSet,
    opts: SimOptions,
    tables: Mutex<Vec<Table>>,
}

impl<'a> Simulator<'a> {
    /// Create a simulator for `net` accruing `rewards`.
    pub fn new(net: &'a Spn, rewards: &'a RewardSet, opts: SimOptions) -> Self {
        Self {
            net,
            rewards,
            opts,
            tables: Mutex::new(Vec::new()),
        }
    }

    /// Run one replication with the given RNG seed.
    ///
    /// A step draws the sojourn (exponential) and the winner (uniform)
    /// from the current marking's memoized race, accrues its memoized
    /// reward values, and hops to the winner's successor. Only the first
    /// entry into a marking runs the net's guard, rate and reward
    /// closures, and only the first firing of each (marking, transition)
    /// hashes the successor marking; past 2¹⁶ memoized markings, each new
    /// one is evaluated afresh into a scratch slot. Once the simulator has
    /// seen the markings a replication visits, the replication allocates
    /// its outcome vectors and final marking only, whatever its length.
    ///
    /// # Errors
    /// Propagates rate-function failures (never memoized).
    pub fn run_one(&self, seed: u64) -> Result<SimOutcome, SpnError> {
        self.run_until(seed, self.opts.max_time)
    }

    /// [`Simulator::run_one`] censored at `max_time` instead of the
    /// simulator's own horizon; the memoized races do not depend on it.
    ///
    /// # Errors
    /// Propagates rate-function failures.
    pub fn run_until(&self, seed: u64, max_time: f64) -> Result<SimOutcome, SpnError> {
        // The pool is only pushed and popped under the lock, and a table
        // is out of it while a replication (which may panic) uses it, so a
        // poisoned pool is still a valid one.
        let checkout = self
            .tables
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let mut table = checkout.unwrap_or_else(|| Table::new(self.net, self.rewards));
        let outcome = self.play(&mut table, seed, max_time);
        self.tables
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(table);
        outcome
    }

    fn play(&self, table: &mut Table, seed: u64, max_time: f64) -> Result<SimOutcome, SpnError> {
        let (net, rewards) = (self.net, self.rewards);
        // detlint::allow(D003): leaf constructor — `seed` is a child_seed from the replicate grid, passed down by the executor
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut time = 0.0_f64;
        let n_rates = rewards.rates.len();
        let mut accumulated = vec![0.0_f64; n_rates + rewards.impulses.len()];
        let mut firings = vec![0u64; net.transition_count()];
        let mut first_firings = vec![None; net.transition_count()];
        let mut fired = 0u64;
        let mut s = 0;
        if table.len() == 0 {
            table.marking = net.initial_marking();
            let slot = table.find().expect_err("an empty table indexes no marking");
            table.fill(net, rewards, slot)?;
        }
        let (end, absorbed, last) = loop {
            debug_assert!(
                table.is_fresh(net, rewards, s),
                "memoized race of state {s} differs from the net's"
            );
            let edges = &table.edges[table.edge_range(s)];
            // Empty both in an absorbing marking and in a dead one.
            if edges.is_empty() {
                break (time, true, table.marking(s));
            }
            let total_rate = table.total[s as usize];
            let dt = numerics::dist::sample_exponential(&mut rng, total_rate);
            let censored_dt = dt.min(max_time - time);
            // Rate rewards accrue over the sojourn (censored at max_time).
            for (a, &r) in accumulated.iter_mut().zip(table.rates(s)) {
                *a += r * censored_dt;
            }
            if time + dt > max_time {
                break (max_time, false, table.marking(s));
            }
            time += dt;
            // Pick the winning transition proportionally to rate.
            let mut pick = rng.gen::<f64>() * total_rate;
            let mut e = edges.len() - 1;
            for (i, &(_, r)) in edges.iter().enumerate() {
                if pick < r {
                    e = i;
                    break;
                }
                pick -= r;
            }
            let chosen = edges[e].0;
            // Impulse rewards observe the pre-firing marking.
            for imp in table.impulses(s) {
                if imp.edge as usize == e {
                    accumulated[n_rates + imp.reward as usize] += imp.amount;
                }
            }
            firings[chosen.index()] += 1;
            first_firings[chosen.index()].get_or_insert(time);
            fired += 1;
            let next = table.next[table.edge_range(s).start + e];
            debug_assert!(
                next == UNSEEN || table.fires_into(net, s, e, next),
                "memoized successor of edge {e} of state {s} differs from the net's"
            );
            if fired >= self.opts.max_firings {
                if next != UNSEEN {
                    break (time, false, table.marking(next));
                }
                table.fire(net, s, e);
                break (time, false, table.marking.as_slice());
            }
            s = if next == UNSEEN {
                table.step(net, rewards, s, e)?
            } else {
                next
            };
        };
        Ok(SimOutcome {
            time: end,
            absorbed,
            accumulated,
            firings,
            first_firings,
            final_marking: Marking::new(last.to_vec()),
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
