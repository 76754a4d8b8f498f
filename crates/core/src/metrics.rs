//! End-to-end evaluation: configuration → SPN → CTMC → (MTTSF, Ĉtotal).
//!
//! `MTTSF` is the mean time to absorption of the CTMC (reward 1 on every
//! non-failed state); `Ĉtotal` is the expected accumulated communication
//! cost until absorption divided by MTTSF, with the six §2.5 components as
//! rate rewards and the response policy's rekeys (evictions, for the
//! paper's net) charged as impulse rewards on the transitions that cause
//! them.

use crate::config::SystemConfig;
use crate::cost::{cost_breakdown, gdh_rekey_hop_bits, CostBreakdown};
use crate::model::{build_model, build_scenario_model, population, GcsIdsModel, Places};
use crate::scenario_model::{detection_totals, evaluate_scenario_graph, DetectionTotals};
use scenario::{AttackerStrategy, ResponsePolicy, ScenarioConfig};
use spn::ctmc::{AbsorptionAnalysis, Ctmc, CtmcTemplate, TransientOptions};
use spn::error::SpnError;
use spn::model::{Marking, Spn, TransitionId};
use spn::reach::{explore, ExploreOptions, RatePlan, ReachabilityGraph, ShareRates};
use spn::reward::{ImpulseReward, RateReward};
use spn::transient::TransientStats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Evaluation output for one configuration.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Mean time to security failure (seconds).
    pub mttsf_seconds: f64,
    /// Time-averaged communication cost until failure (hop·bits/s).
    pub c_total_hop_bits_per_sec: f64,
    /// Per-component time-averaged costs.
    pub cost_components: CostBreakdown,
    /// Probability the failure was a data leak (condition C1).
    pub p_failure_c1: f64,
    /// Probability the failure was Byzantine capture (condition C2).
    pub p_failure_c2: f64,
    /// Number of CTMC states.
    pub state_count: usize,
    /// Number of CTMC transitions.
    pub edge_count: usize,
    /// Transient-engine telemetry from the mission-survival sweep
    /// (`None` when no survival curve was requested).
    pub transient: Option<TransientStats>,
}

/// Evaluate MTTSF and Ĉtotal for a configuration on a freshly explored
/// graph: the oracle [`evaluate_scenario_graph`] on the paper's net.
///
/// # Errors
/// Propagates configuration validation failures (as
/// [`SpnError::InvalidModel`]) and solver errors.
pub fn evaluate(cfg: &SystemConfig) -> Result<Evaluation, SpnError> {
    cfg.validate().map_err(SpnError::InvalidModel)?;
    let model = build_model(cfg);
    let graph = explore(&model.net, &ExploreOptions::default())?;
    evaluate_scenario_graph(&model, &graph, &[]).map(|(e, _, _)| e)
}

/// One exact solve: the steady metrics, the survival curve on the mission
/// grid (`None` for an empty one) and, for a scenario, the detection totals.
pub type Solution = (Evaluation, Option<Vec<f64>>, Option<DetectionTotals>);

/// The family of a single-system net: its node count, group cap, the
/// places its scenario adds to the paper's net (`AM` for a burst attacker,
/// `QGm`/`QBm` for quarantine-and-rejoin, `PRm` for rekey throttle;
/// baseline, stealth and targeted attackers add none), and whether a
/// targeted attacker keys the voting rates by the whole population instead
/// of the target group's split. Nets of one family differ in their rates
/// only, and one rate plan groups their states alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplateKey {
    node_count: u32,
    max_groups: u32,
    attack_mode: bool,
    quarantine: bool,
    pending_rekeys: bool,
    population_keyed: bool,
}

impl TemplateKey {
    /// The family of `cfg` under `scenario`.
    pub fn of(cfg: &SystemConfig, scenario: &ScenarioConfig) -> Self {
        Self {
            node_count: cfg.node_count,
            max_groups: cfg.max_groups,
            attack_mode: matches!(scenario.attacker, AttackerStrategy::Burst { .. }),
            quarantine: matches!(scenario.response, ResponsePolicy::QuarantineRejoin { .. }),
            pending_rekeys: matches!(scenario.response, ResponsePolicy::RekeyThrottle { .. }),
            population_keyed: scenario.attacker.focus() > 0.0,
        }
    }
}

/// Explore-once-solve-many evaluator for rate-only configuration families,
/// and the one exact pipeline of every single-system spec (a standalone
/// run is a one-use template).
///
/// The Cho–Chen state space depends only on the structural parameters
/// ([`TemplateKey`]: `node_count`, `max_groups` and the places the
/// scenario adds); every other knob — detection interval, attacker
/// intensity, rate shapes, vote participants, host-IDS error
/// probabilities, traffic constants, the scenario's own rates — only
/// changes transition *rates* or reward values. A template explores the
/// reachability graph once and
/// keeps its markings, the CTMC sparsity pattern ([`CtmcTemplate`]) and
/// the re-weighting plan ([`RatePlan`]); it keeps no graph and no rates.
/// It then evaluates any structurally compatible configuration in one flat
/// pass: the plan evaluates the rates ([`RatePlan::share_rates`]), which go
/// straight into a pooled CTMC's value array
/// ([`CtmcTemplate::refresh_with`]) and, for the rekey impulses, into the
/// rewards — no graph and no matrix construction per evaluation.
/// Evaluation takes `&self`, so one template serves a whole parallel batch
/// of the engine's runner; each worker checks a scratch set (a rate buffer
/// and a CTMC on the single CSR pattern) out of the interior pool, and one
/// set per concurrent worker ever exists.
///
/// A point's cost is rate work only: each rate factor once per distinct
/// key (the conviction rates `T_IDS`/`T_FA` are a target-count factor
/// keyed by (`Tm`, `UCm`) times a voting factor keyed by the target
/// group's (good, bad) split, whose probabilities come from memos that
/// every net of one voting key shares, so a rate-only point that keeps m,
/// p1, p2 and the collusion model finds them warm), one product per rate,
/// the value-array scatter, the cost components and rekey amounts once per
/// reward key (`T + U`, `NG`), and the block solves of the absorption
/// system. The scratch CTMC keeps the structural half of that solve
/// (reachability, strongly connected blocks, coupling layout) from point
/// to point while the positive-rate pattern stays the same.
pub struct ExactTemplate {
    /// The explored markings, by state.
    states: Vec<Marking>,
    /// Shared CSR pattern + slot map, built once.
    ctmc: CtmcTemplate,
    /// The re-weighting of the explored graph, built once.
    plan: RatePlan,
    /// Every state's reward key, built once.
    reward_keys: RewardKeys,
    /// Whether each state holds a leaked-data token (C1).
    leaked: Vec<bool>,
    /// Distinct keys of each rate factor, by transition name.
    factor_keys: Vec<(String, Vec<usize>)>,
    /// Pool of reusable (rate buffer, CTMC) sets.
    scratch: Mutex<Vec<Scratch>>,
    opts: ExploreOptions,
    key: TemplateKey,
    explorations: AtomicUsize,
    pattern_builds: AtomicUsize,
}

/// One worker's mutable state: the plan's value buffer and a CTMC laid out
/// on the template's shared pattern (made at the worker's first point).
#[derive(Default)]
struct Scratch {
    values: Vec<f64>,
    ctmc: Option<Ctmc>,
}

/// Lifetime work counters of an [`ExactTemplate`] — the acceptance check
/// for explore-once-solve-many sweeps: a rate-only sweep of any size must
/// leave both counters at 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateStats {
    /// State-space explorations performed (1 at construction; +1 per
    /// structural-fallback evaluation).
    pub explorations: usize,
    /// CTMC sparsity-pattern builds performed (1 at construction; +1 per
    /// structural-fallback evaluation).
    pub pattern_builds: usize,
    /// Symmetry orbits supplied to exploration (0 when lumping is off).
    pub orbits: usize,
    /// Total interchangeable member blocks across those orbits (0 when
    /// lumping is off; lumping can only shrink the space when some orbit
    /// has ≥ 2 members).
    pub orbit_members: usize,
    /// Distinct rate keys summed over transitions and factors: the rate
    /// evaluations of one re-weighting ([`RatePlan::key_count`]).
    pub rate_keys: usize,
    /// The same keys per transition (by name, in transition order), one
    /// count per factor of its rate.
    pub factor_keys: Vec<(String, Vec<usize>)>,
    /// Distinct reward keys (`T + U`, `NG`): at most this many cost and
    /// rekey-amount evaluations per point.
    pub reward_keys: usize,
}

impl ExactTemplate {
    /// Explore the state space of the family of `cfg` under `scenario`
    /// ([`build_scenario_model`]), within `opts`'s limits.
    ///
    /// # Errors
    /// Propagates validation and exploration failures.
    pub fn with_options(
        cfg: &SystemConfig,
        scenario: &ScenarioConfig,
        opts: &ExploreOptions,
    ) -> Result<Self, SpnError> {
        cfg.validate().map_err(SpnError::InvalidModel)?;
        scenario.validate().map_err(SpnError::InvalidModel)?;
        let model = build_scenario_model(cfg, scenario);
        let graph = explore(&model.net, opts)?;
        let ctmc = CtmcTemplate::new(&graph)?;
        let plan = RatePlan::new(&graph, &model.net);
        // The plan lists a transition's factors in order, factor 0 first.
        let mut factor_keys: Vec<(String, Vec<usize>)> = Vec::new();
        for (t, factor, keys) in plan.factor_key_counts() {
            match factor_keys.last_mut() {
                Some((_, counts)) if factor > 0 => counts.push(keys),
                _ => factor_keys.push((model.net.transition_name(t).to_owned(), vec![keys])),
            }
        }
        let reward_keys = RewardKeys::population(&graph.states, &model.places);
        let leaked = (graph.states.iter())
            .map(|m| m.tokens(model.places.gf) > 0)
            .collect();
        Ok(Self {
            states: graph.states,
            ctmc,
            plan,
            reward_keys,
            leaked,
            factor_keys,
            scratch: Mutex::new(Vec::new()),
            opts: opts.clone(),
            key: TemplateKey::of(cfg, scenario),
            explorations: AtomicUsize::new(1),
            pattern_builds: AtomicUsize::new(1),
        })
    }

    /// Work counters: how many explorations and CSR pattern builds this
    /// template has performed so far.
    pub fn stats(&self) -> TemplateStats {
        let (orbits, orbit_members) = match &self.opts.lumping {
            Some(c) => (c.orbit_count(), c.member_count()),
            None => (0, 0),
        };
        TemplateStats {
            explorations: self.explorations.load(Ordering::Relaxed),
            pattern_builds: self.pattern_builds.load(Ordering::Relaxed),
            orbits,
            orbit_members,
            rate_keys: self.plan.key_count(),
            factor_keys: self.factor_keys.clone(),
            reward_keys: self.reward_keys.count(),
        }
    }

    /// The family of nets this template serves.
    pub fn key(&self) -> TemplateKey {
        self.key
    }

    /// Number of states of the explored state space.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Evaluate `cfg` under `scenario` (the paper's net when `None`) on
    /// the cached state space: the steady metrics, the exact mission
    /// survival curve `P[no security failure by t]` on `mission_times`
    /// (ascending; an empty grid skips the transient solve) and, only when
    /// a scenario is given, the detection totals.
    ///
    /// A configuration outside the template's family, or one whose rates
    /// reach states that a zero rate pruned from the template's
    /// exploration, is solved on a one-use template at its own point
    /// (same result, no reuse).
    ///
    /// # Errors
    /// Propagates validation, re-weighting, and solver failures.
    pub fn evaluate_with_survival(
        &self,
        cfg: &SystemConfig,
        scenario: Option<&ScenarioConfig>,
        mission_times: &[f64],
    ) -> Result<Solution, SpnError> {
        cfg.validate().map_err(SpnError::InvalidModel)?;
        let sc = scenario.copied().unwrap_or_default();
        sc.validate().map_err(SpnError::InvalidModel)?;
        if TemplateKey::of(cfg, &sc) == self.key {
            match self.solve(cfg, scenario, mission_times) {
                // Structural mismatch despite matching keys — e.g. a rate
                // that was zero at template-build time pruned states that
                // this configuration can reach.
                Err(SpnError::InvalidModel(_)) => {}
                other => return other,
            }
        }
        // A one-use template at the point, under this template's limits,
        // so a caller-imposed state budget is never silently bypassed.
        self.explorations.fetch_add(1, Ordering::Relaxed);
        self.pattern_builds.fetch_add(1, Ordering::Relaxed);
        Self::with_options(cfg, &sc, &self.opts)?.solve(cfg, scenario, mission_times)
    }

    /// One point on the cached state space, without a fallback.
    fn solve(
        &self,
        cfg: &SystemConfig,
        scenario: Option<&ScenarioConfig>,
        mission_times: &[f64],
    ) -> Result<Solution, SpnError> {
        let model = build_scenario_model(cfg, &scenario.copied().unwrap_or_default());
        let mut scratch = self.pool().pop().unwrap_or_default();
        let result = (|| {
            // The plan computes every rate from the pristine exploration,
            // so a zeroed transition at one grid point cannot poison the
            // next point's split.
            let rates = self
                .plan
                .share_rates(&model.net, &self.states, &mut scratch.values)?;
            let ctmc = match &mut scratch.ctmc {
                Some(ctmc) => self.ctmc.refresh_with(&rates, ctmc).map(|()| ctmc)?,
                none => none.insert(self.ctmc.instantiate_with(&rates)?),
            };
            let (evaluation, survival, absorption) = evaluate_with_ctmc(
                &model,
                &self.states,
                &rates,
                ctmc,
                &self.reward_keys,
                |s| self.leaked[s],
                mission_times,
            )?;
            let detection = scenario.map(|_| detection_totals(&model, &rates, &absorption.sojourn));
            Ok((evaluation, survival, detection.transpose()?))
        })();
        self.pool().push(scratch);
        result
    }

    /// The scratch pool. A panic while the lock was held cannot break it —
    /// it holds no invariant beyond "each set is a whole (buffer, CTMC)
    /// pair", and sets are pushed and popped whole — so a poisoned lock is
    /// recovered, not propagated.
    fn pool(&self) -> MutexGuard<'_, Vec<Scratch>> {
        self.scratch.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The response policy's rekey impulse rewards, shared by the exact
/// evaluator and the SPN-simulation backend: a GDH rekey on every `T_IDS`
/// or `T_FA` eviction for the paper's net, plus the rejoin rekeys under
/// quarantine, or one rekey per served queue entry under throttle.
///
/// # Errors
/// Returns [`SpnError::InvalidModel`] if the model is missing one of the
/// policy's transitions.
pub fn eviction_impulses(model: &GcsIdsModel) -> Result<Vec<ImpulseReward>, SpnError> {
    rekey_impulses(
        &model.net,
        &model.config,
        model.scenario.response,
        [(String::new(), model.places)],
    )
}

/// The response policy's rekey actions as impulse rewards, for every
/// `(name suffix, places)` block of `net`: each firing charges one GDH
/// rekey of the block's current group size. Evict charges every
/// conviction (`T_IDS`, `T_FA`). Quarantine also charges the rejoin rekeys
/// of released nodes (`T_REL_G`, `T_REL_B`); a confirmed eviction
/// (`T_CONF_B`) needs none, since the node is already keyed out. Throttle
/// charges one rekey per served queue entry (`T_RKSRV`) and nothing at
/// conviction time. A frozen block's transitions are guarded off, so it
/// stops charging on its own.
pub(crate) fn rekey_impulses(
    net: &Spn,
    cfg: &SystemConfig,
    response: ResponsePolicy,
    blocks: impl IntoIterator<Item = (String, Places)>,
) -> Result<Vec<ImpulseReward>, SpnError> {
    let names: &[&str] = match response {
        ResponsePolicy::Evict => &["T_IDS", "T_FA"],
        ResponsePolicy::QuarantineRejoin { .. } => &["T_IDS", "T_FA", "T_REL_G", "T_REL_B"],
        ResponsePolicy::RekeyThrottle { .. } => &["T_RKSRV"],
    };
    let mut out = Vec::new();
    for (suffix, places) in blocks {
        for base in names {
            let name = format!("{base}{suffix}");
            let t = net
                .transition_by_name(&name)
                .ok_or_else(|| SpnError::InvalidModel(format!("missing transition {name}")))?;
            let cfg = cfg.clone();
            out.push(ImpulseReward::new(
                format!("rekey-{name}"),
                t,
                move |m: &Marking| {
                    gdh_rekey_hop_bits(&cfg, population(&places, m).per_group_live())
                },
            ));
        }
    }
    Ok(out)
}

/// The reward key of every state of a graph: states of one key get the
/// same cost components and rekey amounts, so each is evaluated once per
/// key.
pub(crate) enum RewardKeys {
    /// Every state is its own key (a reward that reads the whole marking).
    PerState,
    /// Keyed by (`T + U`, `NG`) of one block, which is all that
    /// [`cost_breakdown`] and a rekey amount read of a population.
    Population {
        /// Key of each state, numbered in first-seen state order.
        of_state: Vec<u32>,
        /// Number of distinct keys.
        count: usize,
    },
}

impl RewardKeys {
    /// Key every marking of `states` by (`T + U`, `NG`) of `places`.
    pub(crate) fn population(states: &[Marking], places: &Places) -> Self {
        let key = |m: &Marking| {
            let pop = population(places, m);
            (pop.live() as usize, m.tokens(places.ng) as usize)
        };
        let (live_max, ng_max) =
            (states.iter().map(key)).fold((0, 0), |(l, g), (live, ng)| (l.max(live), g.max(ng)));
        // A dense (live, NG) table numbers the keys without hashing.
        let mut index = vec![u32::MAX; (live_max + 1) * (ng_max + 1)];
        let mut count = 0;
        let of_state = (states.iter().map(key))
            .map(|(live, ng)| {
                let slot = &mut index[live * (ng_max + 1) + ng];
                if *slot == u32::MAX {
                    *slot = count as u32;
                    count += 1;
                }
                *slot
            })
            .collect();
        Self::Population { of_state, count }
    }

    /// Number of distinct keys (0 for [`RewardKeys::PerState`]).
    fn count(&self) -> usize {
        match self {
            Self::PerState => 0,
            Self::Population { count, .. } => *count,
        }
    }

    /// The key of state `s`, or `None` when every state is its own.
    fn of(&self, s: usize) -> Option<usize> {
        match self {
            Self::PerState => None,
            Self::Population { of_state, .. } => Some(of_state[s] as usize),
        }
    }
}

/// A chain's rated shares, state by state: what the reward core reads of
/// the rekey impulses' transitions. An explored (or re-weighted) graph's
/// edges and self-loops, or a rate plan's evaluated rates.
pub(crate) trait ShareSource {
    /// Call `f` with each share of state `s`, edges then self-loops, as
    /// (transition, rate). A source may leave out shares of rate 0.
    fn for_each_share(&self, s: usize, f: impl FnMut(TransitionId, f64));

    /// Number of CTMC edges.
    fn edge_count(&self) -> usize;
}

impl ShareSource for ReachabilityGraph {
    fn for_each_share(&self, s: usize, mut f: impl FnMut(TransitionId, f64)) {
        for e in &self.edges[s] {
            f(e.transition, e.rate);
        }
        for &(t, r) in &self.self_loop_rates[s] {
            f(t, r);
        }
    }

    fn edge_count(&self) -> usize {
        ReachabilityGraph::edge_count(self)
    }
}

impl ShareSource for ShareRates<'_> {
    fn for_each_share(&self, s: usize, f: impl FnMut(TransitionId, f64)) {
        ShareRates::for_each_share(self, s, f);
    }

    fn edge_count(&self) -> usize {
        ShareRates::edge_count(self)
    }
}

/// The reward rates of a chain's live states, read by key: the input of
/// the reward core [`solve_rewards`]. `cost` and each impulse amount are
/// evaluated once per key of `keys`, at the first state that asks for
/// them. In state `s` an impulse accrues at `rate(t, s) · amount(s)`,
/// where `rate(t, s)` sums the shares of its transition out of `s`, edges
/// then self-loops (as [`ImpulseReward::per_state`] does), and the
/// impulses are summed in their order. Only the states a caller asks about
/// are read, so the absorbing and unreachable ones cost nothing.
pub(crate) struct RewardRates<'a, S, C> {
    markings: &'a [Marking],
    shares: &'a S,
    keys: &'a RewardKeys,
    cost: C,
    impulses: &'a [ImpulseReward],
    /// Rate accumulator of each transition with an impulse, and of each
    /// impulse.
    acc_of: Vec<usize>,
    acc_of_impulse: Vec<usize>,
    rate: Vec<f64>,
    cost_of_key: Vec<Option<CostBreakdown>>,
    amount_of_key: Vec<Option<f64>>,
}

impl<'a, S: ShareSource, C: Fn(&Marking) -> CostBreakdown> RewardRates<'a, S, C> {
    pub(crate) fn new(
        markings: &'a [Marking],
        shares: &'a S,
        keys: &'a RewardKeys,
        cost: C,
        impulses: &'a [ImpulseReward],
    ) -> Self {
        const NONE: usize = usize::MAX;
        let width = impulses.iter().map(|i| i.transition.index() + 1).max();
        let mut acc_of = vec![NONE; width.unwrap_or(0)];
        let mut acc_of_impulse = Vec::with_capacity(impulses.len());
        let mut accs = 0;
        for imp in impulses {
            let slot = &mut acc_of[imp.transition.index()];
            if *slot == NONE {
                *slot = accs;
                accs += 1;
            }
            acc_of_impulse.push(*slot);
        }
        Self {
            markings,
            shares,
            keys,
            cost,
            impulses,
            acc_of,
            acc_of_impulse,
            rate: vec![0.0; accs],
            cost_of_key: vec![None; keys.count()],
            amount_of_key: vec![None; keys.count() * impulses.len()],
        }
    }

    /// Cost components accrued per unit time in live state `s`.
    pub(crate) fn cost(&mut self, s: usize) -> CostBreakdown {
        let m = &self.markings[s];
        match self.keys.of(s) {
            None => (self.cost)(m),
            Some(k) => *self.cost_of_key[k].get_or_insert_with(|| (self.cost)(m)),
        }
    }

    /// Rekey-impulse hop·bits expected per unit time in live state `s`.
    pub(crate) fn impulse(&mut self, s: usize) -> f64 {
        let (acc_of, rate) = (&self.acc_of, &mut self.rate);
        rate.fill(0.0);
        self.shares.for_each_share(s, |t, r| {
            if let Some(&a) = acc_of.get(t.index()).filter(|&&a| a != usize::MAX) {
                rate[a] += r;
            }
        });
        let m = &self.markings[s];
        let key = self.keys.of(s);
        let mut impulse = 0.0;
        for (i, (imp, &a)) in self.impulses.iter().zip(&self.acc_of_impulse).enumerate() {
            if self.rate[a] > 0.0 {
                let amount = match key {
                    None => (imp.amount)(m),
                    Some(k) => *self.amount_of_key[k * self.impulses.len() + i]
                        .get_or_insert_with(|| (imp.amount)(m)),
                };
                impulse += self.rate[a] * amount;
            }
        }
        impulse
    }

    /// Number of CTMC edges of the chain.
    fn edge_count(&self) -> usize {
        self.shares.edge_count()
    }
}

/// The reward core of every single-chain exact evaluator (paper net,
/// scenario net, flat clustered net): weight each live state's cost
/// components and rekey impulses by its expected sojourn until
/// absorption, in state order, average over MTTSF, and sweep the optional
/// mission grid on the same CTMC. `(p_c1, p_c2)` is the evaluator's own
/// failure-cause split.
///
/// # Errors
/// [`SpnError::TransientDepthExceeded`] before the sweep when the grid's
/// last time is deeper than [`spn::ctmc::MAX_POISSON_DEPTH`].
pub(crate) fn solve_rewards<S: ShareSource, C: Fn(&Marking) -> CostBreakdown>(
    ctmc: &Ctmc,
    absorption: &AbsorptionAnalysis,
    rates: &mut RewardRates<'_, S, C>,
    (p_c1, p_c2): (f64, f64),
    mission_times: &[f64],
) -> Result<(Evaluation, Option<Vec<f64>>), SpnError> {
    let mttsf = absorption.mtta;
    let mut accumulated = CostBreakdown::default();
    let mut accumulated_impulse = 0.0;
    for (i, &sojourn) in absorption.sojourn.iter().enumerate() {
        if sojourn > 0.0 {
            accumulated = accumulated.add(&rates.cost(i).scale(sojourn));
            accumulated_impulse += rates.impulse(i) * sojourn;
        }
    }
    // Rekey impulses belong to the rekey component.
    accumulated.rekey += accumulated_impulse;
    let components = if mttsf > 0.0 {
        accumulated.scale(1.0 / mttsf)
    } else {
        CostBreakdown::default()
    };

    let mut evaluation = Evaluation {
        mttsf_seconds: mttsf,
        c_total_hop_bits_per_sec: components.total(),
        cost_components: components,
        p_failure_c1: p_c1,
        p_failure_c2: p_c2,
        state_count: ctmc.state_count(),
        edge_count: rates.edge_count(),
        transient: None,
    };
    let survival = match mission_times.iter().max_by(|a, b| a.total_cmp(b)) {
        None => None,
        Some(&t_max) => {
            ctmc.check_transient_depth(t_max)?;
            let (curve, stats) =
                ctmc.survival_curve_with_stats(mission_times, &TransientOptions::default());
            evaluation.transient = Some(stats);
            Some(curve)
        }
    };
    Ok((evaluation, survival))
}

/// The single-system evaluator on a CTMC that is already built — refreshed
/// in place on the template path, or via [`Ctmc::from_graph`] on the
/// oracle [`evaluate_scenario_graph`]. `ctmc` must be the chain of the
/// rates `shares` holds over `markings`, and `keys` its states' reward
/// keys ([`RewardKeys::population`] of `model`'s places); `leaked` tells
/// whether a state holds a leaked-data token (`GF`). Also returns the
/// absorption analysis, from which the detection totals are read.
pub(crate) fn evaluate_with_ctmc(
    model: &GcsIdsModel,
    markings: &[Marking],
    shares: &impl ShareSource,
    ctmc: &Ctmc,
    keys: &RewardKeys,
    leaked: impl Fn(usize) -> bool,
    mission_times: &[f64],
) -> Result<(Evaluation, Option<Vec<f64>>, AbsorptionAnalysis), SpnError> {
    let cfg = &model.config;
    let places = model.places;
    let absorption = ctmc.mean_time_to_absorption()?;
    let impulses = eviction_impulses(model)?;
    let mut rates = RewardRates::new(
        markings,
        shares,
        keys,
        |m| cost_breakdown(cfg, &population(&places, m)),
        &impulses,
    );

    // Failure-cause split: a leaked-data token marks C1, anything else C2.
    let mut p_c1 = 0.0;
    let mut p_c2 = 0.0;
    for (i, &p) in absorption.absorption_probability.iter().enumerate() {
        if p <= 0.0 {
            continue;
        }
        if leaked(i) {
            p_c1 += p;
        } else {
            p_c2 += p;
        }
    }

    let (evaluation, survival) =
        solve_rewards(ctmc, &absorption, &mut rates, (p_c1, p_c2), mission_times)?;
    Ok((evaluation, survival, absorption))
}

/// A RateReward adapter for the total cost (exposed for reuse by the
/// simulation validator, which integrates the same per-state rates).
pub fn total_cost_reward(cfg: &SystemConfig, model: &GcsIdsModel) -> RateReward {
    let cfg = cfg.clone();
    let places = model.places;
    RateReward::new("c_total_rate", move |m| {
        cost_breakdown(&cfg, &population(&places, m)).total()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ids::functions::RateShape;

    /// A paper-net template with the default exploration limits.
    fn template_of(cfg: &SystemConfig) -> ExactTemplate {
        ExactTemplate::with_options(cfg, &ScenarioConfig::baseline(), &ExploreOptions::default())
            .unwrap()
    }

    /// Whether `template` serves `cfg`'s paper net under `scenario`.
    fn serves(template: &ExactTemplate, cfg: &SystemConfig, scenario: &ScenarioConfig) -> bool {
        template.key() == TemplateKey::of(cfg, scenario)
    }

    /// One paper-net point on `template`.
    fn point(template: &ExactTemplate, cfg: &SystemConfig) -> Evaluation {
        template.evaluate_with_survival(cfg, None, &[]).unwrap().0
    }

    /// The oracle on a fresh exploration of `cfg`'s paper net.
    fn oracle(
        cfg: &SystemConfig,
        times: &[f64],
    ) -> Result<(Evaluation, Option<Vec<f64>>, DetectionTotals), SpnError> {
        let model = build_model(cfg);
        let graph = explore(&model.net, &ExploreOptions::default()).unwrap();
        evaluate_scenario_graph(&model, &graph, times)
    }

    fn small(n: u32, m: u32, tids: f64) -> SystemConfig {
        let mut c = SystemConfig::paper_default();
        c.node_count = n;
        c.vote_participants = m;
        c.detection = c.detection.with_interval(tids);
        c
    }

    #[test]
    fn evaluation_produces_finite_metrics() {
        let e = evaluate(&small(12, 3, 120.0)).unwrap();
        assert!(e.mttsf_seconds.is_finite() && e.mttsf_seconds > 0.0);
        assert!(e.c_total_hop_bits_per_sec > 0.0);
        assert!(e.state_count > 10);
        assert!(e.edge_count > e.state_count);
    }

    #[test]
    fn failure_probabilities_form_distribution() {
        let e = evaluate(&small(12, 3, 120.0)).unwrap();
        assert!((e.p_failure_c1 + e.p_failure_c2 - 1.0).abs() < 1e-6);
        assert!(e.p_failure_c1 > 0.0);
        assert!(e.p_failure_c2 > 0.0);
    }

    #[test]
    fn components_sum_to_total() {
        let e = evaluate(&small(12, 3, 120.0)).unwrap();
        assert!((e.cost_components.total() - e.c_total_hop_bits_per_sec).abs() < 1e-9);
    }

    #[test]
    fn invalid_config_is_reported() {
        let mut c = SystemConfig::paper_default();
        c.node_count = 0;
        assert!(matches!(evaluate(&c), Err(SpnError::InvalidModel(_))));
    }

    #[test]
    fn stronger_attacker_lowers_mttsf() {
        let base = small(12, 3, 120.0);
        let mut hot = base.clone();
        hot.attacker.base_rate *= 10.0;
        let e0 = evaluate(&base).unwrap();
        let e1 = evaluate(&hot).unwrap();
        assert!(e1.mttsf_seconds < e0.mttsf_seconds);
    }

    #[test]
    fn very_long_tids_fails_mostly_by_c1() {
        // with detection nearly off, compromised nodes leak data first
        let e = evaluate(&small(12, 3, 1.0e6)).unwrap();
        assert!(e.p_failure_c1 > 0.5, "C1 share = {}", e.p_failure_c1);
    }

    #[test]
    fn very_short_tids_increases_c2_share() {
        // aggressive IDS evicts good nodes, pushing toward Byzantine ratio
        let slow = evaluate(&small(12, 3, 600.0)).unwrap();
        let fast = evaluate(&small(12, 3, 1.0)).unwrap();
        assert!(
            fast.p_failure_c2 > slow.p_failure_c2,
            "fast {} vs slow {}",
            fast.p_failure_c2,
            slow.p_failure_c2
        );
    }

    #[test]
    fn detection_shape_changes_metrics() {
        let lin = evaluate(&small(12, 3, 60.0)).unwrap();
        let log =
            evaluate(&small(12, 3, 60.0).with_detection_shape(RateShape::Logarithmic)).unwrap();
        assert_ne!(lin.mttsf_seconds, log.mttsf_seconds);
    }

    /// The bits of every reported steady metric: MTTSF, each cost
    /// component, Ĉtotal and the failure-cause split.
    fn metric_bits(e: &Evaluation) -> [u64; 10] {
        let c = &e.cost_components;
        [
            e.mttsf_seconds,
            c.group_comm,
            c.status,
            c.rekey,
            c.ids,
            c.beacon,
            c.partition_merge,
            e.c_total_hop_bits_per_sec,
            e.p_failure_c1,
            e.p_failure_c2,
        ]
        .map(f64::to_bits)
    }

    #[test]
    fn template_matches_fresh_evaluation_across_rate_knobs() {
        // The template path (rate plan, refresh, cached absorption
        // structure, keyed rewards) must reproduce a fresh exploration bit
        // for bit — on hand-picked knobs and on the Figures 2–5 grid:
        // m × detection shape × TIDS × two attacker rates.
        let base = small(12, 3, 120.0);
        let template = template_of(&base);
        let graph = explore(&build_model(&base).net, &ExploreOptions::default()).unwrap();
        let mut variants = vec![
            base.with_tids(5.0),
            base.with_tids(600.0),
            base.with_vote_participants(5),
            base.with_detection_shape(RateShape::Polynomial),
            base.with_detection_shape(RateShape::Logarithmic)
                .with_tids(45.0),
        ];
        let mut hot = base.clone();
        hot.attacker.base_rate *= 8.0;
        variants.push(hot);
        // Each field of the shared voting memos' key, changed alone.
        let mut p1 = base.clone();
        p1.p1_host_false_negative = 0.05;
        let mut p2 = base.clone();
        p2.p2_host_false_positive = 0.05;
        let mut partial = base.clone();
        partial.collusion = ids::voting::CollusionModel::Probabilistic(0.5);
        variants.extend([p1, p2, partial]);
        for m in [3, 5, 7, 9] {
            for shape in RateShape::all() {
                for tids in [5.0, 60.0, 600.0, 1200.0] {
                    for rate in [1.0 / 43_200.0, 1.0 / 21_600.0] {
                        let mut cfg = base
                            .with_vote_participants(m)
                            .with_detection_shape(shape)
                            .with_tids(tids);
                        cfg.attacker.base_rate = rate;
                        variants.push(cfg);
                    }
                }
            }
        }
        for cfg in &variants {
            assert!(serves(&template, cfg, &ScenarioConfig::baseline()));
            let fast = point(&template, cfg);
            let slow = evaluate(cfg).unwrap();
            assert_eq!(
                metric_bits(&fast),
                metric_bits(&slow),
                "{fast:?} vs {slow:?}"
            );
            assert_eq!(fast.state_count, slow.state_count);
            // Both sides read the shared voting memos, so also pin the
            // conviction rates to the unmemoized voting formulas: a key
            // field missing from the memo key serves stale values here.
            let model = build_model(cfg);
            let places = model.places;
            for (name, bad_target) in [("T_IDS", true), ("T_FA", false)] {
                let t = model.net.transition_by_name(name).unwrap();
                for m in &graph.states {
                    let rate = model.net.rate(t, m).unwrap();
                    let pop = population(&places, m);
                    let d = cfg
                        .detection
                        .rate(cfg.node_count, pop.trusted, pop.undetected);
                    let expected = if bad_target {
                        pop.undetected as f64 * d * (1.0 - crate::model::pfn_for(cfg, &pop))
                    } else {
                        pop.trusted as f64 * d * crate::model::pfp_for(cfg, &pop)
                    };
                    assert_eq!(rate.to_bits(), expected.to_bits(), "{name} at {m:?}");
                }
            }
        }
        assert_eq!(template.stats().explorations, 1);
        assert_eq!(template.stats().pattern_builds, 1);
    }

    #[test]
    fn template_matches_fresh_evaluation_at_paper_scale() {
        // At N = 12 the group splits are few and many states share a rate
        // key; at the paper's N = 100 the keys are as varied as the Figures
        // 2–5 sweep sees them. One point per detection shape plus an m
        // change, against one template.
        let base = SystemConfig::paper_default();
        let template = template_of(&base);
        let points = [
            base.with_detection_shape(RateShape::Logarithmic)
                .with_tids(480.0),
            base.with_tids(60.0),
            base.with_detection_shape(RateShape::Polynomial)
                .with_tids(15.0),
            base.with_vote_participants(9).with_tids(5.0),
        ];
        for cfg in &points {
            let fast = point(&template, cfg);
            let slow = evaluate(cfg).unwrap();
            assert_eq!(metric_bits(&fast), metric_bits(&slow), "{cfg:?}");
            assert_eq!(fast.state_count, slow.state_count);
        }
        assert_eq!(template.stats().explorations, 1);
    }

    #[test]
    fn poisoned_scratch_pool_is_recovered() {
        // A panic while the pool lock is held poisons it; the pool holds
        // no invariant such a panic could break, so evaluation goes on.
        let base = small(12, 3, 120.0);
        let template = template_of(&base);
        let before = point(&template, &base);
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = template.scratch.lock();
                panic!("poisoning the scratch pool");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(template.scratch.is_poisoned());
        let after = point(&template, &base.with_tids(60.0));
        assert_eq!(
            metric_bits(&after),
            metric_bits(&evaluate(&base.with_tids(60.0)).unwrap())
        );
        assert_eq!(metric_bits(&point(&template, &base)), metric_bits(&before));
    }

    #[test]
    fn template_falls_back_when_zero_rate_pruned_the_space() {
        // partition_rate = 0 at template-build time keeps NG pinned at 1,
        // pruning every multi-group state; evaluating a config that turns
        // partitions back on must transparently re-explore, not error.
        let mut frozen = small(12, 3, 120.0);
        frozen.partition_rate_per_group = 0.0;
        let template = template_of(&frozen);
        let live = small(12, 3, 120.0);
        assert!(serves(&template, &live, &ScenarioConfig::baseline()));
        let via_template = point(&template, &live);
        let direct = evaluate(&live).unwrap();
        assert!(via_template.state_count > template.state_count());
        assert_eq!(via_template.state_count, direct.state_count);
        assert!((via_template.mttsf_seconds - direct.mttsf_seconds).abs() < 1e-9);
        // the fallback is counted: one exploration at build, one more for
        // the structural mismatch
        assert_eq!(template.stats().explorations, 2);
        assert_eq!(template.stats().pattern_builds, 2);
    }

    #[test]
    fn template_falls_back_when_the_net_keys_a_rate_otherwise() {
        // A targeted attacker adds no place, but keys its voting factor by
        // the whole population, not by the target group's split: the paper
        // net's plan cannot group its states, so the targeted net is of
        // another family, and its point runs on a one-use template.
        let cfg = small(12, 3, 120.0);
        let targeted = ScenarioConfig {
            attacker: AttackerStrategy::Targeted { focus: 0.8 },
            response: ResponsePolicy::Evict,
        };
        let template = template_of(&cfg);
        assert!(!serves(&template, &cfg, &targeted));
        let (shared, _, shared_det) = template
            .evaluate_with_survival(&cfg, Some(&targeted), &[])
            .unwrap();
        let (alone, _, alone_det) =
            ExactTemplate::with_options(&cfg, &targeted, &ExploreOptions::default())
                .unwrap()
                .evaluate_with_survival(&cfg, Some(&targeted), &[])
                .unwrap();
        assert_eq!(metric_bits(&shared), metric_bits(&alone));
        assert_eq!(shared_det, alone_det);
        assert_eq!(template.stats().explorations, 2);
    }

    #[test]
    fn template_falls_back_on_structural_change() {
        let template = template_of(&small(12, 3, 120.0));
        let other = small(14, 3, 120.0);
        assert!(!serves(&template, &other, &ScenarioConfig::baseline()));
        let via_template = point(&template, &other);
        let direct = evaluate(&other).unwrap();
        assert_eq!(via_template.state_count, direct.state_count);
        assert!((via_template.mttsf_seconds - direct.mttsf_seconds).abs() < 1e-9);
    }

    #[test]
    fn mission_grid_past_the_depth_cap_is_a_named_error() {
        // Fresh and template paths both refuse the solve before Fox–Glynn
        // sizes a window for q·1e308.
        let cfg = small(12, 3, 120.0);
        let times = [0.0, 1.0e3, 1.0e308];
        let fresh = oracle(&cfg, &times).unwrap_err();
        let template = template_of(&cfg)
            .evaluate_with_survival(&cfg, None, &times)
            .unwrap_err();
        for err in [fresh, template] {
            assert!(
                matches!(err, SpnError::TransientDepthExceeded { depth, .. } if depth > 1e300),
                "{err}"
            );
        }
    }

    #[test]
    fn exact_survival_curve_brackets_mttsf() {
        // S(t) is monotone from 1, and the area under it is the MTTSF — at
        // t = MTTSF the survival of a roughly-exponential failure law sits
        // near e^{-1}.
        let cfg = small(12, 3, 120.0);
        let template = template_of(&cfg);
        let m = point(&template, &cfg).mttsf_seconds;
        let times = [0.0, 0.25 * m, m, 4.0 * m];
        let s = (template.evaluate_with_survival(&cfg, None, &times))
            .unwrap()
            .1
            .unwrap();
        assert!((s[0] - 1.0).abs() < 1e-9);
        for w in s.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "{s:?}");
        }
        assert!(s[2] > 0.05 && s[2] < 0.8, "S(MTTSF) = {}", s[2]);
        assert!(s[3] < s[2]);
    }

    #[test]
    fn template_survival_matches_fresh_graph() {
        let base = small(12, 3, 120.0);
        let template = template_of(&base);
        let variant = base.with_tids(45.0);
        let (eval, surv, detection) = template
            .evaluate_with_survival(&variant, None, &[1.0e4, 1.0e5])
            .unwrap();
        // A point without a scenario does no detection pass.
        assert!(detection.is_none());
        let direct = oracle(&variant, &[1.0e4, 1.0e5]).unwrap().1.unwrap();
        let surv = surv.unwrap();
        assert_eq!(surv.len(), direct.len());
        for (a, b) in surv.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits(), "{surv:?} vs {direct:?}");
        }
        assert!(eval.mttsf_seconds > 0.0);
        // empty grid skips the transient solve
        let (_, none, _) = template
            .evaluate_with_survival(&variant, None, &[])
            .unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn total_cost_reward_matches_breakdown() {
        let cfg = small(10, 3, 120.0);
        let model = build_model(&cfg);
        let r = total_cost_reward(&cfg, &model);
        let init = model.net.initial_marking();
        let direct = cost_breakdown(&cfg, &population(&model.places, &init)).total();
        assert!(((r.rate)(&init) - direct).abs() < 1e-9);
    }
}
