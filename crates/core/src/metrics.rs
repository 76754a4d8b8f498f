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
use crate::model::{build_model, population, GcsIdsModel, Places};
use scenario::ResponsePolicy;
use spn::ctmc::{AbsorptionAnalysis, Ctmc, CtmcTemplate, TransientOptions};
use spn::error::SpnError;
use spn::model::{Marking, Spn};
use spn::reach::{explore, ExploreOptions, ReachabilityGraph};
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
    /// Number of tangible CTMC states.
    pub state_count: usize,
    /// Number of CTMC transitions.
    pub edge_count: usize,
    /// Transient-engine telemetry from the mission-survival sweep
    /// (`None` when no survival curve was requested).
    pub transient: Option<TransientStats>,
}

/// Evaluate MTTSF and Ĉtotal for a configuration.
///
/// # Errors
/// Propagates configuration validation failures (as
/// [`SpnError::InvalidModel`]) and solver errors.
pub fn evaluate(cfg: &SystemConfig) -> Result<Evaluation, SpnError> {
    cfg.validate().map_err(SpnError::InvalidModel)?;
    let model = build_model(cfg);
    let graph = explore(&model.net, &ExploreOptions::default())?;
    evaluate_graph(&model, &graph, &[]).map(|(e, _)| e)
}

/// Explore-once-solve-many evaluator for rate-only configuration families.
///
/// The Cho–Chen state space depends only on the structural parameters
/// (`node_count`, `max_groups`); every other knob — detection interval,
/// attacker intensity, rate shapes, vote participants, host-IDS error
/// probabilities, traffic constants — only changes transition *rates* or
/// reward values. A template explores the reachability graph once, builds
/// the CTMC sparsity pattern once ([`CtmcTemplate`]), and then evaluates
/// any structurally compatible configuration **rebuild-free**: a pooled
/// scratch graph is re-armed from the pristine exploration
/// ([`ReachabilityGraph::copy_rates_from`]), re-weighted in place
/// ([`ReachabilityGraph::reweight_in_place`]), and the cached CTMC's value
/// arrays are rewritten in place ([`CtmcTemplate::refresh`]) — no graph
/// clone and no matrix construction per evaluation. Evaluation takes
/// `&self`, so one template can drive a rayon-parallel sweep; each worker
/// checks a scratch set out of the interior pool (one set per concurrent
/// worker ever exists, all sharing the single CSR pattern).
///
/// A point's cost is rate work only: each enabled transition's rate
/// function once per state (the voting probabilities of `T_IDS`/`T_FA`
/// computed once per group split of the point's net), the value-array
/// refresh, the reward rates, and the block solves of the absorption
/// system. The scratch CTMC keeps the structural half of that solve
/// (reachability, strongly connected blocks, coupling layout) from point
/// to point while the positive-rate pattern stays the same.
pub struct ExactTemplate {
    /// The pristine explored graph; never mutated after construction.
    graph: ReachabilityGraph,
    /// Shared CSR patterns + slot maps, built once.
    ctmc: CtmcTemplate,
    /// Pool of reusable (working graph, working CTMC) pairs.
    scratch: Mutex<Vec<Scratch>>,
    opts: ExploreOptions,
    node_count: u32,
    max_groups: u32,
    explorations: AtomicUsize,
    pattern_builds: AtomicUsize,
}

/// One worker's mutable state: a re-weightable graph copy plus a CTMC laid
/// out on the template's shared pattern.
struct Scratch {
    graph: ReachabilityGraph,
    ctmc: Ctmc,
}

/// Lifetime work counters of an [`ExactTemplate`] — the acceptance check
/// for explore-once-solve-many sweeps: a rate-only sweep of any size must
/// leave both counters at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
}

impl ExactTemplate {
    /// Explore the state space of `cfg`'s structural family.
    ///
    /// # Errors
    /// Propagates validation and exploration failures.
    pub fn new(cfg: &SystemConfig) -> Result<Self, SpnError> {
        Self::with_options(cfg, &ExploreOptions::default())
    }

    /// Template with explicit exploration limits.
    ///
    /// # Errors
    /// Propagates validation and exploration failures.
    pub fn with_options(cfg: &SystemConfig, opts: &ExploreOptions) -> Result<Self, SpnError> {
        cfg.validate().map_err(SpnError::InvalidModel)?;
        let model = build_model(cfg);
        let graph = explore(&model.net, opts)?;
        let ctmc = CtmcTemplate::new(&graph)?;
        Ok(Self {
            graph,
            ctmc,
            scratch: Mutex::new(Vec::new()),
            opts: opts.clone(),
            node_count: cfg.node_count,
            max_groups: cfg.max_groups,
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
        }
    }

    /// True when `cfg` shares this template's state space.
    pub fn compatible(&self, cfg: &SystemConfig) -> bool {
        cfg.node_count == self.node_count && cfg.max_groups == self.max_groups
    }

    /// Number of tangible states in the cached graph.
    pub fn state_count(&self) -> usize {
        self.graph.state_count()
    }

    /// The cached reachability graph.
    pub fn graph(&self) -> &ReachabilityGraph {
        &self.graph
    }

    /// Evaluate a configuration against the cached state space.
    ///
    /// Structurally compatible configurations reuse the cached graph via
    /// re-weighting; incompatible ones transparently fall back to a fresh
    /// exploration (same result, no reuse).
    ///
    /// # Errors
    /// Propagates validation, re-weighting, and solver failures.
    pub fn evaluate(&self, cfg: &SystemConfig) -> Result<Evaluation, SpnError> {
        self.evaluate_with_survival(cfg, &[]).map(|(e, _)| e)
    }

    /// Evaluate and additionally compute the exact mission survival curve
    /// `P[no security failure by t]` on `mission_times` (ascending), over
    /// the same (re-weighted) graph the steady metrics use. An empty grid
    /// skips the transient solve and returns `None`.
    ///
    /// # Errors
    /// Propagates validation, re-weighting, and solver failures.
    pub fn evaluate_with_survival(
        &self,
        cfg: &SystemConfig,
        mission_times: &[f64],
    ) -> Result<(Evaluation, Option<Vec<f64>>), SpnError> {
        cfg.validate().map_err(SpnError::InvalidModel)?;
        if !self.compatible(cfg) {
            return self.evaluate_fresh(cfg, mission_times);
        }
        let model = build_model(cfg);
        let mut scratch = self.take_scratch()?;
        let result = (|| {
            // Always re-arm from the pristine exploration: re-weighting
            // starts from the explored rate mass, so a zeroed transition at
            // one grid point cannot poison the next point's split.
            scratch.graph.copy_rates_from(&self.graph);
            scratch.graph.reweight_in_place(&model.net)?;
            self.ctmc.refresh(&scratch.graph, &mut scratch.ctmc)?;
            evaluate_with_ctmc(&model, &scratch.graph, &scratch.ctmc, mission_times)
                .map(|(e, s, _)| (e, s))
        })();
        self.pool().push(scratch);
        match result {
            // Structural mismatch despite matching keys — e.g. a rate that
            // was zero at template-build time pruned states that this
            // configuration can reach. Fall back to a fresh exploration.
            Err(SpnError::InvalidModel(_)) => self.evaluate_fresh(cfg, mission_times),
            other => other,
        }
    }

    /// The scratch pool. A panic while the lock was held cannot break it —
    /// it holds no invariant beyond "each set is a whole (graph, CTMC)
    /// pair", and sets are pushed and popped whole — so a poisoned lock is
    /// recovered, not propagated.
    fn pool(&self) -> MutexGuard<'_, Vec<Scratch>> {
        self.scratch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Check a scratch set out of the pool, creating one (on the shared
    /// pattern — no pattern build) when all are in use.
    fn take_scratch(&self) -> Result<Scratch, SpnError> {
        if let Some(s) = self.pool().pop() {
            return Ok(s);
        }
        Ok(Scratch {
            graph: self.graph.clone(),
            ctmc: self.ctmc.instantiate(&self.graph)?,
        })
    }

    /// Fresh exploration under the template's own limits, so a
    /// caller-imposed state budget is never silently bypassed.
    fn evaluate_fresh(
        &self,
        cfg: &SystemConfig,
        mission_times: &[f64],
    ) -> Result<(Evaluation, Option<Vec<f64>>), SpnError> {
        self.explorations.fetch_add(1, Ordering::Relaxed);
        self.pattern_builds.fetch_add(1, Ordering::Relaxed);
        let model = build_model(cfg);
        let graph = explore(&model.net, &self.opts)?;
        evaluate_graph(&model, &graph, mission_times)
    }
}

/// Steady metrics plus the optional exact survival curve on one graph,
/// sharing a single CTMC build between the absorption and transient solves.
///
/// # Errors
/// Propagates solver failures.
pub fn evaluate_graph(
    model: &GcsIdsModel,
    graph: &ReachabilityGraph,
    mission_times: &[f64],
) -> Result<(Evaluation, Option<Vec<f64>>), SpnError> {
    let ctmc = Ctmc::from_graph(graph)?;
    evaluate_with_ctmc(model, graph, &ctmc, mission_times).map(|(e, s, _)| (e, s))
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

/// Per-state reward rates of an explored graph: the input of the reward
/// core [`solve_rewards`].
pub(crate) struct StateRates {
    /// Cost components accrued per unit time in each state.
    pub(crate) cost: Vec<CostBreakdown>,
    /// Rekey-impulse hop·bits expected per unit time in each state.
    pub(crate) impulse: Vec<f64>,
}

impl StateRates {
    /// `cost` evaluated on every state, and the summed firing rates of
    /// `impulses` weighted by their per-firing amounts.
    pub(crate) fn new(
        net: &Spn,
        graph: &ReachabilityGraph,
        cost: impl Fn(&Marking) -> CostBreakdown,
        impulses: &[ImpulseReward],
    ) -> Self {
        let mut impulse = vec![0.0; graph.state_count()];
        for imp in impulses {
            for (acc, v) in impulse.iter_mut().zip(imp.per_state(net, graph)) {
                *acc += v;
            }
        }
        Self {
            cost: graph.states.iter().map(cost).collect(),
            impulse,
        }
    }
}

/// The reward core of every single-chain exact evaluator (paper net,
/// scenario net, flat clustered net): weight each state's cost components
/// and rekey impulses by its expected sojourn until absorption, average
/// over MTTSF, and sweep the optional mission grid on the same CTMC.
/// `(p_c1, p_c2)` is the evaluator's own failure-cause split.
pub(crate) fn solve_rewards(
    graph: &ReachabilityGraph,
    ctmc: &Ctmc,
    absorption: &AbsorptionAnalysis,
    rates: &StateRates,
    (p_c1, p_c2): (f64, f64),
    mission_times: &[f64],
) -> (Evaluation, Option<Vec<f64>>) {
    let mttsf = absorption.mtta;
    let mut accumulated = CostBreakdown::default();
    let mut accumulated_impulse = 0.0;
    for (i, sojourn) in absorption.sojourn.iter().enumerate() {
        if *sojourn > 0.0 {
            accumulated = accumulated.add(&rates.cost[i].scale(*sojourn));
            accumulated_impulse += rates.impulse[i] * sojourn;
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
        state_count: graph.state_count(),
        edge_count: graph.edge_count(),
        transient: None,
    };
    let survival = if mission_times.is_empty() {
        None
    } else {
        let (curve, stats) =
            ctmc.survival_curve_with_stats(mission_times, &TransientOptions::default());
        evaluation.transient = Some(stats);
        Some(curve)
    };
    (evaluation, survival)
}

/// The single-system evaluator on a CTMC that is already built — freshly
/// via [`Ctmc::from_graph`] on the one-shot paths, or refreshed in place
/// on the rebuild-free template path. `ctmc` must be the chain of
/// `graph`'s current rates. Also returns the absorption analysis, from
/// which the scenario evaluator reads its detection totals.
pub(crate) fn evaluate_with_ctmc(
    model: &GcsIdsModel,
    graph: &ReachabilityGraph,
    ctmc: &Ctmc,
    mission_times: &[f64],
) -> Result<(Evaluation, Option<Vec<f64>>, AbsorptionAnalysis), SpnError> {
    let cfg = &model.config;
    let places = model.places;
    let absorption = ctmc.mean_time_to_absorption()?;
    let rates = StateRates::new(
        &model.net,
        graph,
        |m| cost_breakdown(cfg, &population(&places, m)),
        &eviction_impulses(model)?,
    );

    // Failure-cause split: a leaked-data token marks C1, anything else C2.
    let mut p_c1 = 0.0;
    let mut p_c2 = 0.0;
    for (i, &p) in absorption.absorption_probability.iter().enumerate() {
        if p <= 0.0 {
            continue;
        }
        if graph.states[i].tokens(places.gf) > 0 {
            p_c1 += p;
        } else {
            p_c2 += p;
        }
    }

    let (evaluation, survival) = solve_rewards(
        graph,
        ctmc,
        &absorption,
        &rates,
        (p_c1, p_c2),
        mission_times,
    );
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
        // The template path (copy, re-weight, refresh, cached absorption
        // structure) must reproduce a fresh exploration bit for bit — on
        // hand-picked knobs and on the Figures 2–5 grid: m × detection
        // shape × TIDS × two attacker rates.
        let base = small(12, 3, 120.0);
        let template = ExactTemplate::new(&base).unwrap();
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
            assert!(template.compatible(cfg));
            let fast = template.evaluate(cfg).unwrap();
            let slow = evaluate(cfg).unwrap();
            assert_eq!(
                metric_bits(&fast),
                metric_bits(&slow),
                "{fast:?} vs {slow:?}"
            );
            assert_eq!(fast.state_count, slow.state_count);
        }
        assert_eq!(template.stats().explorations, 1);
        assert_eq!(template.stats().pattern_builds, 1);
    }

    #[test]
    fn poisoned_scratch_pool_is_recovered() {
        // A panic while the pool lock is held poisons it; the pool holds
        // no invariant such a panic could break, so evaluation goes on.
        let base = small(12, 3, 120.0);
        let template = ExactTemplate::new(&base).unwrap();
        let before = template.evaluate(&base).unwrap();
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = template.scratch.lock();
                panic!("poisoning the scratch pool");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(template.scratch.is_poisoned());
        let after = template.evaluate(&base.with_tids(60.0)).unwrap();
        assert_eq!(
            metric_bits(&after),
            metric_bits(&evaluate(&base.with_tids(60.0)).unwrap())
        );
        assert_eq!(
            metric_bits(&template.evaluate(&base).unwrap()),
            metric_bits(&before)
        );
    }

    #[test]
    fn template_falls_back_when_zero_rate_pruned_the_space() {
        // partition_rate = 0 at template-build time keeps NG pinned at 1,
        // pruning every multi-group state; evaluating a config that turns
        // partitions back on must transparently re-explore, not error.
        let mut frozen = small(12, 3, 120.0);
        frozen.partition_rate_per_group = 0.0;
        let template = ExactTemplate::new(&frozen).unwrap();
        let live = small(12, 3, 120.0);
        assert!(template.compatible(&live));
        let via_template = template.evaluate(&live).unwrap();
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
    fn template_falls_back_on_structural_change() {
        let template = ExactTemplate::new(&small(12, 3, 120.0)).unwrap();
        let other = small(14, 3, 120.0);
        assert!(!template.compatible(&other));
        let via_template = template.evaluate(&other).unwrap();
        let direct = evaluate(&other).unwrap();
        assert_eq!(via_template.state_count, direct.state_count);
        assert!((via_template.mttsf_seconds - direct.mttsf_seconds).abs() < 1e-9);
    }

    #[test]
    fn exact_survival_curve_brackets_mttsf() {
        // S(t) is monotone from 1, and the area under it is the MTTSF — at
        // t = MTTSF the survival of a roughly-exponential failure law sits
        // near e^{-1}.
        let cfg = small(12, 3, 120.0);
        let model = build_model(&cfg);
        let graph = explore(&model.net, &ExploreOptions::default()).unwrap();
        let (e, _) = evaluate_graph(&model, &graph, &[]).unwrap();
        let m = e.mttsf_seconds;
        let times = [0.0, 0.25 * m, m, 4.0 * m];
        let s = evaluate_graph(&model, &graph, &times).unwrap().1.unwrap();
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
        let template = ExactTemplate::new(&base).unwrap();
        let variant = base.with_tids(45.0);
        let (eval, surv) = template
            .evaluate_with_survival(&variant, &[1.0e4, 1.0e5])
            .unwrap();
        let model = build_model(&variant);
        let graph = explore(&model.net, &ExploreOptions::default()).unwrap();
        let direct = evaluate_graph(&model, &graph, &[1.0e4, 1.0e5])
            .unwrap()
            .1
            .unwrap();
        let surv = surv.unwrap();
        assert_eq!(surv.len(), direct.len());
        for (a, b) in surv.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits(), "{surv:?} vs {direct:?}");
        }
        assert!(eval.mttsf_seconds > 0.0);
        // empty grid skips the transient solve
        let (_, none) = template.evaluate_with_survival(&variant, &[]).unwrap();
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
