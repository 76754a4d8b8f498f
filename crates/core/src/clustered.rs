//! Clustered-deployment evaluation: exact MTTSF, survival, and cost for
//! `C` identical GCS/IDS clusters with a K-of-C system failure criterion.
//!
//! Two exact solution paths share one entry point
//! ([`evaluate_clustered_with_survival`]):
//!
//! * **Flat lumped quotient.** Build the flat clustered net
//!   ([`crate::model::build_clustered_model`]), explore it under the
//!   member-permutation canonicalizer
//!   ([`crate::model::clustered_canonicalizer`]), and solve the lumped
//!   CTMC directly. Cluster permutations are net automorphisms (the blocks
//!   are structurally identical and share no places), so the quotient is
//!   strongly lumpable and every metric is exact. The lumped state count is
//!   the number of *multisets* of single-cluster states —
//!   `C(d + C − 1, C)` instead of `d^C` — a combinatorial reduction.
//! * **Hierarchical order-statistic composition.** When even the multiset
//!   bound exceeds the exploration budget, solve ONE cluster's absorbing
//!   chain and compose analytically: clusters evolve independently until
//!   system absorption (each freezes on its own failure), so the system
//!   survival is the binomial tail
//!   `S_sys(t) = Σ_{j<K} C(C,j) F(t)^j S(t)^{C−j}`
//!   over the cluster failure law `F = 1 − S`, the system MTTSF is its
//!   integral (Simpson quadrature on a horizon where `S_sys < 1e-12`), and
//!   the failure-cause split is the K-th-order-statistic integral
//!   `C·C(C−1,K−1) ∫ F^{K−1} S^{C−K} h_cause dt` over the cluster's
//!   instantaneous C1 and C2 failure hazards `h_cause(t) = π_T(t)·f_cause`
//!   (`f_cause`: each live state's summed rate into C1- or C2-absorbing
//!   states). Cost integrates `C·b_other(t)·π_T(t)·r`, the per-cluster
//!   cost rate while fewer than K of the other clusters have failed. Both
//!   read the live distribution `π_T(t)` at every quadrature point of the
//!   one survival sweep that yields `S` ([`Ctmc::survival_curve_observed`]),
//!   so cost and cause are exact up to the same quadrature as the MTTSF.
//!   The horizon search evaluates each candidate with its whole `/1.6`
//!   chain in one survival pass ([`Ctmc::survival_at`]). A parent aggregate
//!   SPN (one `fail` transition per cluster at rate `1/MTTSF_c`, explored
//!   through the same lumping pipeline) realises the inter-cluster model
//!   whose counts the stats report.

use crate::config::{ClusterTopology, SystemConfig};
use crate::cost::{cost_breakdown, CostBreakdown};
use crate::metrics::{
    eviction_impulses, rekey_impulses, solve_rewards, Evaluation, RewardKeys, RewardRates,
};
use crate::model::{
    build_clustered_model, build_model, cluster_failed, clustered_canonicalizer, population,
    ClusteredModel, GcsIdsModel,
};
use numerics::special::ln_binomial;
use scenario::ResponsePolicy;
use spn::ctmc::{Ctmc, TransientOptions};
use spn::error::SpnError;
use spn::model::{Marking, PlaceId, Spn, SpnBuilder, TransitionDef};
use spn::reach::{explore, ExploreOptions, MarkingCanonicalizer, ReachabilityGraph};

/// Which solution path [`evaluate_clustered_with_survival`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusteredPath {
    /// The lumped flat chain fit the exploration budget and was solved
    /// directly.
    FlatLumped,
    /// The single-cluster chain was solved and composed analytically,
    /// with the parent aggregate chain explored for the inter-cluster
    /// model.
    Hierarchical,
}

/// State-space bookkeeping of a clustered solve: what was actually solved,
/// and how much lumping saved relative to the unlumped product space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LumpingStats {
    /// Solution path taken.
    pub path: ClusteredPath,
    /// Tangible states actually solved (lumped flat chain, or cluster
    /// chain + parent aggregate chain on the hierarchical path).
    pub states: usize,
    /// CTMC edges actually solved.
    pub edges: usize,
    /// Symmetry orbits supplied to exploration.
    pub orbits: usize,
    /// Interchangeable member blocks across those orbits.
    pub orbit_members: usize,
    /// Upper bound on the unlumped flat product space, `d^C` for `d`
    /// single-cluster states (`inf` when it overflows f64).
    pub unlumped_state_estimate: f64,
    /// `unlumped_state_estimate / states` — the observable reduction
    /// factor.
    pub reduction: f64,
    /// Matvecs of the hierarchical composition's horizon-search passes;
    /// the report's transient counter covers the quadrature grid (which
    /// also yields cost and cause) and the mission curve.
    /// Zero on the flat path.
    pub composition_matvecs: u64,
}

/// Result of a clustered evaluation: the standard metric set, the optional
/// mission survival curve, and the lumping bookkeeping.
#[derive(Debug, Clone)]
pub struct ClusteredEvaluation {
    /// MTTSF, Ĉtotal, failure split, and solved state counts.
    pub evaluation: Evaluation,
    /// `P[no system failure by t]` on the requested mission grid.
    pub survival: Option<Vec<f64>>,
    /// Path taken and reduction achieved.
    pub stats: LumpingStats,
}

/// Number of multisets of size `c` over `d` items, `C(d + c − 1, c)` — the
/// exact upper bound on the lumped flat state count.
pub fn multiset_count(d: usize, c: u32) -> f64 {
    let mut v = 1.0f64;
    for i in 1..=u64::from(c) {
        v *= (d as f64 - 1.0 + i as f64) / i as f64;
        if !v.is_finite() {
            return f64::INFINITY;
        }
    }
    v
}

/// Evaluate a clustered deployment with the default exploration budget.
///
/// # Errors
/// Propagates validation, exploration, and solver failures.
pub fn evaluate_clustered(
    cfg: &SystemConfig,
    topo: &ClusterTopology,
) -> Result<ClusteredEvaluation, SpnError> {
    evaluate_clustered_with_survival(cfg, topo, &[], &ExploreOptions::default())
}

/// Evaluate a clustered deployment: exact MTTSF, cost, failure split, and
/// mission survival for `topo.clusters` copies of `cfg` failing as a
/// system once `topo.failure_threshold` clusters have failed.
///
/// Picks the flat lumped path when the multiset bound fits
/// `opts.max_states`, the hierarchical composition otherwise. Any
/// `opts.lumping` supplied by the caller is ignored — the cluster
/// symmetry is derived from the model itself.
///
/// # Errors
/// Propagates validation, exploration, and solver failures.
pub fn evaluate_clustered_with_survival(
    cfg: &SystemConfig,
    topo: &ClusterTopology,
    mission_times: &[f64],
    opts: &ExploreOptions,
) -> Result<ClusteredEvaluation, SpnError> {
    cfg.validate().map_err(SpnError::InvalidModel)?;
    topo.validate().map_err(SpnError::InvalidModel)?;

    // The single-cluster chain is needed by both paths: it sizes the flat
    // quotient, and the hierarchical path composes from it.
    let cluster_model = build_model(cfg);
    let base_opts = ExploreOptions {
        lumping: None,
        ..opts.clone()
    };
    let cluster_graph = explore(&cluster_model.net, &base_opts)?;
    let d = cluster_graph.state_count();
    let unlumped_estimate = (d as f64).powi(topo.clusters as i32);
    let lumped_estimate = multiset_count(d, topo.clusters);

    if lumped_estimate <= opts.max_states as f64 {
        // --- flat lumped path ---------------------------------------------
        let model = build_clustered_model(cfg, topo);
        let canon = clustered_canonicalizer(&model);
        let orbits = canon.orbit_count();
        let orbit_members = canon.member_count();
        let lumped_opts = ExploreOptions {
            lumping: Some(canon),
            ..opts.clone()
        };
        let graph = explore(&model.net, &lumped_opts)?;
        let (evaluation, survival) = evaluate_clustered_graph(&model, &graph, mission_times)?;
        let states = graph.state_count();
        let stats = LumpingStats {
            path: ClusteredPath::FlatLumped,
            states,
            edges: graph.edge_count(),
            orbits,
            orbit_members,
            unlumped_state_estimate: unlumped_estimate,
            reduction: unlumped_estimate / states.max(1) as f64,
            composition_matvecs: 0,
        };
        return Ok(ClusteredEvaluation {
            evaluation,
            survival,
            stats,
        });
    }

    // --- hierarchical path ------------------------------------------------
    let ctmc = Ctmc::from_graph(&cluster_graph)?;
    let absorption = ctmc.mean_time_to_absorption()?;
    let cluster_mttsf = absorption.mtta;
    if !(cluster_mttsf.is_finite() && cluster_mttsf > 0.0) {
        return Err(SpnError::InvalidModel(format!(
            "cluster MTTSF {cluster_mttsf} is not a positive finite time; cannot compose"
        )));
    }
    let (mut evaluation, survival, composition_matvecs) = hierarchical_compose(
        &cluster_model,
        &cluster_graph,
        &ctmc,
        cluster_mttsf,
        topo,
        mission_times,
    )?;

    // The parent inter-cluster model: one aggregate failure transition per
    // cluster, explored through the same lumping pipeline (K+1 lumped
    // states against the Σ_{j≤K} C(C,j) unlumped front).
    let (parent_net, parent_canon) = parent_aggregate_model(cluster_mttsf, topo);
    let orbits = parent_canon.orbit_count();
    let orbit_members = parent_canon.member_count();
    let parent_opts = ExploreOptions {
        lumping: Some(parent_canon),
        ..opts.clone()
    };
    let parent_graph = explore(&parent_net, &parent_opts)?;

    let states = cluster_graph.state_count() + parent_graph.state_count();
    let edges = cluster_graph.edge_count() + parent_graph.edge_count();
    evaluation.state_count = states;
    evaluation.edge_count = edges;
    let stats = LumpingStats {
        path: ClusteredPath::Hierarchical,
        states,
        edges,
        orbits,
        orbit_members,
        unlumped_state_estimate: unlumped_estimate,
        reduction: unlumped_estimate / states.max(1) as f64,
        composition_matvecs,
    };
    Ok(ClusteredEvaluation {
        evaluation,
        survival,
        stats,
    })
}

/// Solve an already-explored flat clustered graph (lumped or not): MTTSF,
/// cost accrued by non-failed clusters, the exact failure-cause split via
/// absorbing-flux attribution, and the optional mission survival curve.
///
/// # Errors
/// Propagates solver failures.
pub fn evaluate_clustered_graph(
    model: &ClusteredModel,
    graph: &ReachabilityGraph,
    mission_times: &[f64],
) -> Result<(Evaluation, Option<Vec<f64>>), SpnError> {
    let cfg = &model.config;
    let ctmc = Ctmc::from_graph(graph)?;
    let absorption = ctmc.mean_time_to_absorption()?;
    // Every cluster that has not locally failed accrues the per-cluster
    // cost of its own population; each cluster's evictions charge a rekey
    // of its own group.
    let impulses = rekey_impulses(
        &model.net,
        cfg,
        ResponsePolicy::Evict,
        (model.cluster_places.iter().enumerate()).map(|(i, p)| (format!("#{i}"), *p)),
    )?;
    let mut rates = RewardRates::new(
        &graph.states,
        graph,
        &RewardKeys::PerState,
        |m| {
            let mut acc = CostBreakdown::default();
            for p in &model.cluster_places {
                if !cluster_failed(p, m) {
                    acc = acc.add(&cost_breakdown(cfg, &population(p, m)));
                }
            }
            acc
        },
        &impulses,
    );
    let split = absorbing_flux_split(model, graph, &absorption.sojourn);
    solve_rewards(&ctmc, &absorption, &mut rates, split, mission_times)
}

/// Exact failure-cause split for a flat clustered graph: the probability
/// flux into absorbing states, attributed by the cluster whose transition
/// completed the K-th failure. System absorption changes exactly one
/// cluster from healthy to failed (transitions touch only their own
/// block), so re-firing each absorbing edge identifies that cluster — and
/// its `GF` token decides C1 vs C2. This works unchanged on the lumped
/// quotient, where the representative's edge carries the whole orbit's
/// flux.
fn absorbing_flux_split(
    model: &ClusteredModel,
    graph: &ReachabilityGraph,
    sojourn: &[f64],
) -> (f64, f64) {
    let mut c1 = 0.0;
    let mut c2 = 0.0;
    for (u, edges) in graph.edges.iter().enumerate() {
        if graph.absorbing[u] || sojourn[u] <= 0.0 {
            continue;
        }
        let mu = &graph.states[u];
        for e in edges {
            if !graph.absorbing[e.target as usize] {
                continue;
            }
            // Pre-canonicalization successor: the firing cluster's places
            // are still in the frame `mu` uses.
            let fired = model.net.fire(e.transition, mu);
            let newly_failed = model
                .cluster_places
                .iter()
                .find(|p| cluster_failed(p, &fired) && !cluster_failed(p, mu));
            if let Some(p) = newly_failed {
                let mass = sojourn[u] * e.rate;
                if fired.tokens(p.gf) > 0 {
                    c1 += mass;
                } else {
                    c2 += mass;
                }
            }
        }
    }
    let total = c1 + c2;
    if total > 0.0 {
        (c1 / total, c2 / total)
    } else {
        (0.0, 0.0)
    }
}

/// The parent inter-cluster model of the hierarchical path: one place per
/// cluster (token = cluster up), one aggregate failure transition per
/// cluster at rate `1/MTTSF_cluster`, absorbing once
/// `topo.failure_threshold` tokens are gone — plus the single-orbit
/// canonicalizer that lumps it to `K+1` states.
pub fn parent_aggregate_model(
    cluster_mttsf: f64,
    topo: &ClusterTopology,
) -> (Spn, MarkingCanonicalizer) {
    let mut b = SpnBuilder::new();
    let rate = 1.0 / cluster_mttsf;
    let places: Vec<PlaceId> = (0..topo.clusters)
        .map(|i| b.add_place(format!("Up#{i}"), 1))
        .collect();
    for (i, &p) in places.iter().enumerate() {
        b.add_transition(TransitionDef::timed(format!("fail#{i}"), move |_| rate).input(p, 1));
    }
    let threshold = topo.failure_threshold;
    let clusters = topo.clusters;
    let pl = places.clone();
    b.absorbing_when(move |m: &Marking| {
        let alive: u32 = pl.iter().map(|&p| m.tokens(p)).sum();
        clusters - alive >= threshold
    });
    let net = b.build().expect("parent aggregate net is consistent");
    let orbit: Vec<Vec<PlaceId>> = places.iter().map(|&p| vec![p]).collect();
    let canon = MarkingCanonicalizer::new(vec![orbit]).expect("singleton blocks are disjoint");
    (net, canon)
}

/// `P[fewer than k of c iid clusters have failed]` given per-cluster
/// survival `s`, in log space so large `c` stays finite.
fn binomial_tail_survival(s: f64, c: u32, k: u32) -> f64 {
    let f = (1.0 - s).clamp(0.0, 1.0);
    let s = s.clamp(0.0, 1.0);
    let mut total = 0.0;
    for j in 0..k.min(c + 1) {
        total += binomial_pmf(c, j, f, s);
    }
    total.clamp(0.0, 1.0)
}

/// `C(c, j) f^j s^(c-j)` in log space.
fn binomial_pmf(c: u32, j: u32, f: f64, s: f64) -> f64 {
    if j > c {
        return 0.0;
    }
    if f <= 0.0 {
        return if j == 0 { 1.0 } else { 0.0 };
    }
    if s <= 0.0 {
        return if j == c { 1.0 } else { 0.0 };
    }
    (ln_binomial(u64::from(c), u64::from(j)) + f64::from(j) * f.ln() + f64::from(c - j) * s.ln())
        .exp()
}

/// Composite Simpson over an odd-length sample vector with spacing `h`.
fn simpson_scalar(values: &[f64], h: f64) -> f64 {
    debug_assert!(values.len() >= 3 && values.len() % 2 == 1);
    let m = values.len() - 1;
    let mut acc = values[0] + values[m];
    for (i, v) in values.iter().enumerate().take(m).skip(1) {
        acc += simpson_weight(i, m) * v;
    }
    acc * h / 3.0
}

/// Weight of sample `i` of `m + 1` in the composite Simpson rule, before
/// the `h/3` factor: 1 at both ends, 4 at odd and 2 at even interior
/// samples.
fn simpson_weight(i: usize, m: usize) -> f64 {
    if i == 0 || i == m {
        1.0
    } else if i % 2 == 1 {
        4.0
    } else {
        2.0
    }
}

/// The hierarchical order-statistic composition over one solved cluster
/// chain. Returns the system evaluation (state/edge counts still those of
/// the cluster chain — the caller adds the parent aggregate), the mission
/// survival curve, and the matvecs of the horizon-search passes.
///
/// # Errors
/// [`SpnError::TransientDepthExceeded`] before any pass deeper than
/// [`spn::ctmc::MAX_POISSON_DEPTH`] (a mission time or a horizon
/// candidate), and [`SpnError::InvalidModel`] for a non-positive or
/// non-finite composed MTTSF or a failure split with no mass.
fn hierarchical_compose(
    cluster_model: &GcsIdsModel,
    cluster_graph: &ReachabilityGraph,
    ctmc: &Ctmc,
    cluster_mttsf: f64,
    topo: &ClusterTopology,
    mission_times: &[f64],
) -> Result<(Evaluation, Option<Vec<f64>>, u64), SpnError> {
    let c = topo.clusters;
    let k = topo.failure_threshold;
    let topts = TransientOptions::default();

    if let Some(&t_max) = mission_times.iter().max_by(|a, b| a.total_cmp(b)) {
        ctmc.check_transient_depth(t_max)?;
    }

    // --- horizon: smallest t_end (geometric steps) with S_sys < 1e-12 ----
    // Walk up by ×1.6 from 8·MTTSF while S_sys ≥ 1e-12, then down by /1.6
    // while the next step down still has S_sys < 1e-12. One survival pass
    // per upward candidate also evaluates its whole /1.6 chain, the exact
    // float sequence the downward walk visits, so the walk down is free.
    const STEPS: usize = 60;
    let sys = |s: f64| binomial_tail_survival(s, c, k);
    let mut pass_matvecs = 0u64;
    let mut t_end = 8.0 * cluster_mttsf;
    let mut up = 0;
    let mut chain = Vec::with_capacity(STEPS + 1);
    loop {
        ctmc.check_transient_depth(t_end)?;
        chain.clear();
        chain.push(t_end);
        for j in 0..STEPS {
            chain.push(chain[j] / 1.6);
        }
        let (s, st) = ctmc.survival_at(&chain, &topts);
        pass_matvecs += st.matvecs;
        if sys(s[0]) >= 1e-12 && up < STEPS {
            t_end *= 1.6;
            up += 1;
            continue;
        }
        let down = (0..STEPS).take_while(|&j| sys(s[j + 1]) < 1e-12).count();
        t_end = chain[down];
        break;
    }

    // --- quadrature grid: one survival sweep, rewards read at each point --
    // S_sys decays on the scale of the K-th order statistic, which shrinks
    // as C grows — refine the grid for wide systems. At each grid point
    // the sweep's live distribution π_T(t) is folded into two weighted
    // occupancies, one per integrand, so the rewards are dotted once at
    // the end:
    // * cost: an alive cluster accrues its rate while fewer than K of the
    //   OTHER C−1 clusters have failed, weight C·b_other(t) on π_T(t);
    // * cause: the K-th failure happens at t with order-statistic density
    //   C·pmf(K−1; C−1, F(t)) times one cluster's failure hazard π_T(t)·f,
    //   and its cause is that hazard's split into C1 and C2 edges.
    let m_intervals: usize = if c <= 64 { 2048 } else { 8192 };
    let h = t_end / m_intervals as f64;
    let grid: Vec<f64> = (0..=m_intervals).map(|i| i as f64 * h).collect();
    let n = cluster_graph.state_count();
    let mut cost_occupancy = vec![0.0; n];
    let mut cause_occupancy = vec![0.0; n];
    let (s_grid, mut tstats) = ctmc.survival_curve_observed(&grid, &topts, |p| {
        let w = simpson_weight(p.index, m_intervals) * f64::from(c);
        let (s, f) = (p.survival, 1.0 - p.survival);
        let b_other: f64 = (0..k.min(c)).map(|j| binomial_pmf(c - 1, j, f, s)).sum();
        let (w_cost, w_cause) = (w * b_other, w * binomial_pmf(c - 1, k - 1, f, s));
        for (&state, &mass) in p.states.iter().zip(p.mass) {
            cost_occupancy[state as usize] += w_cost * mass;
            cause_occupancy[state as usize] += w_cause * mass;
        }
    });

    // --- compose ----------------------------------------------------------
    let s_sys: Vec<f64> = s_grid
        .iter()
        .map(|&s| binomial_tail_survival(s, c, k))
        .collect();
    let mttsf_sys = simpson_scalar(&s_sys, h);
    if !(mttsf_sys.is_finite() && mttsf_sys > 0.0) {
        return Err(SpnError::InvalidModel(format!(
            "composed system MTTSF {mttsf_sys} is not a positive finite time"
        )));
    }

    let places = cluster_model.places;
    let cfg = &cluster_model.config;
    let keys = RewardKeys::population(&cluster_graph.states, &places);
    let impulses = eviction_impulses(cluster_model)?;
    let mut rates = RewardRates::new(
        &cluster_graph.states,
        cluster_graph,
        &keys,
        |m| cost_breakdown(cfg, &population(&places, m)),
        &impulses,
    );
    let mut accumulated = CostBreakdown::default();
    let (mut c1_raw, mut c2_raw) = (0.0, 0.0);
    for (u, edges) in cluster_graph.edges.iter().enumerate() {
        if cluster_graph.absorbing[u] {
            continue;
        }
        // A live cluster folds its rekey impulses into the rekey component;
        // an absorbed one accrues nothing.
        let mut rate = rates.cost(u);
        rate.rekey += rates.impulse(u);
        accumulated = accumulated.add(&rate.scale(cost_occupancy[u]));
        for e in edges {
            let target = e.target as usize;
            if !cluster_graph.absorbing[target] {
                continue;
            }
            let hazard = cause_occupancy[u] * e.rate;
            if cluster_graph.states[target].tokens(places.gf) > 0 {
                c1_raw += hazard;
            } else {
                c2_raw += hazard;
            }
        }
    }
    let components = accumulated.scale(h / (3.0 * mttsf_sys));
    // The system fails with probability 1, so the split integrals (left
    // without Simpson's h/3) sum to 3/h up to quadrature dust: renormalise.
    let split_total = c1_raw + c2_raw;
    if !(split_total.is_finite() && split_total > 0.0) {
        return Err(SpnError::InvalidModel(format!(
            "composed failure split {split_total} has no mass to divide"
        )));
    }

    // Mission survival: exact cluster survival at the requested horizons,
    // composed through the binomial tail — no quadrature involved.
    let survival = if mission_times.is_empty() {
        None
    } else {
        let (s_mission, ms) = ctmc.survival_curve_with_stats(mission_times, &topts);
        tstats.merge(&ms);
        Some(
            s_mission
                .iter()
                .map(|&s| binomial_tail_survival(s, c, k))
                .collect(),
        )
    };

    let evaluation = Evaluation {
        mttsf_seconds: mttsf_sys,
        c_total_hop_bits_per_sec: components.total(),
        cost_components: components,
        p_failure_c1: c1_raw / split_total,
        p_failure_c2: c2_raw / split_total,
        state_count: cluster_graph.state_count(),
        edge_count: cluster_graph.edge_count(),
        transient: Some(tstats),
    };
    Ok((evaluation, survival, pass_matvecs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate;

    fn tiny_cluster_cfg() -> SystemConfig {
        let mut c = SystemConfig::paper_default();
        c.node_count = 4;
        c.vote_participants = 3;
        c.max_groups = 1;
        c
    }

    fn topo(clusters: u32, k: u32) -> ClusterTopology {
        ClusterTopology {
            clusters,
            failure_threshold: k,
        }
    }

    #[test]
    fn multiset_count_matches_small_cases() {
        assert_eq!(multiset_count(3, 2), 6.0);
        assert_eq!(multiset_count(2, 3), 4.0);
        assert_eq!(multiset_count(1, 5), 1.0);
        assert!(multiset_count(1_000_000, 1000).is_infinite());
    }

    #[test]
    fn flat_lumped_matches_unlumped_flat() {
        let cfg = tiny_cluster_cfg();
        for k in [1u32, 2u32] {
            let t = topo(2, k);
            let lumped =
                evaluate_clustered_with_survival(&cfg, &t, &[], &ExploreOptions::default())
                    .unwrap();
            assert_eq!(lumped.stats.path, ClusteredPath::FlatLumped);

            let model = build_clustered_model(&cfg, &t);
            let unlumped_graph = explore(&model.net, &ExploreOptions::default()).unwrap();
            let horizon = lumped.evaluation.mttsf_seconds;
            let times = [0.25 * horizon, horizon, 2.0 * horizon];
            let (u_eval, u_surv) =
                evaluate_clustered_graph(&model, &unlumped_graph, &times).unwrap();

            // States strictly shrink: both clusters share one orbit.
            assert!(
                lumped.stats.states < unlumped_graph.state_count(),
                "lumped {} vs unlumped {}",
                lumped.stats.states,
                unlumped_graph.state_count()
            );
            assert_eq!(lumped.stats.orbit_members, 2);

            let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
            assert!(
                rel(lumped.evaluation.mttsf_seconds, u_eval.mttsf_seconds) < 1e-9,
                "k={k}: MTTSF {} vs {}",
                lumped.evaluation.mttsf_seconds,
                u_eval.mttsf_seconds
            );
            assert!(
                rel(
                    lumped.evaluation.c_total_hop_bits_per_sec,
                    u_eval.c_total_hop_bits_per_sec
                ) < 1e-9
            );
            assert!((lumped.evaluation.p_failure_c1 - u_eval.p_failure_c1).abs() < 1e-9);

            let (l_eval, l_surv) = {
                let canon = clustered_canonicalizer(&model);
                let g = explore(
                    &model.net,
                    &ExploreOptions {
                        lumping: Some(canon),
                        ..ExploreOptions::default()
                    },
                )
                .unwrap();
                evaluate_clustered_graph(&model, &g, &times).unwrap()
            };
            assert!(rel(l_eval.mttsf_seconds, u_eval.mttsf_seconds) < 1e-9);
            for (a, b) in l_surv.unwrap().iter().zip(u_surv.unwrap().iter()) {
                assert!((a - b).abs() < 1e-9, "survival {a} vs {b}");
            }
        }
    }

    /// The hierarchical composition reads cost and cause off the same
    /// quadrature grid as its MTTSF, so on three clusters with K = 2 it
    /// matches the exact flat lumped chain on split and cost. On the hot
    /// cluster (attacker 1/600 /s, T_IDS = 120 s) both agree within 1e-7
    /// relative (measured 2.1e-8 and 1.3e-9 on the split, 3.7e-9 and
    /// 4.6e-10 on cost, at N = 4 and 6). The paper-default cluster starts
    /// with a boundary layer about T_IDS wide, as compromised nodes build
    /// up to their detection balance, that the 2 048-interval grid only
    /// just resolves: measured 2.9e-6 and 1.1e-6, bounded at 5e-6 (a 4×
    /// finer grid gives 4e-8, so it is quadrature, not the formula).
    #[test]
    fn hierarchical_agrees_with_flat_lumped() {
        // (N, budget that forces the composition, hot cluster, bound)
        for (node_count, max_states, hot, bound) in [
            (4, 100, true, 1e-7),
            (6, 200, true, 1e-7),
            (4, 100, false, 5e-6),
            (6, 200, false, 5e-6),
        ] {
            let mut cfg = tiny_cluster_cfg();
            cfg.node_count = node_count;
            if hot {
                cfg.attacker.base_rate = 1.0 / 600.0;
                cfg.detection = cfg.detection.with_interval(120.0);
            }
            let t = topo(3, 2);
            let flat = evaluate_clustered_with_survival(&cfg, &t, &[], &ExploreOptions::default())
                .unwrap();
            assert_eq!(flat.stats.path, ClusteredPath::FlatLumped);
            let m = flat.evaluation.mttsf_seconds;
            let times = [0.25 * m, m, 2.0 * m];
            let flat =
                evaluate_clustered_with_survival(&cfg, &t, &times, &ExploreOptions::default())
                    .unwrap();

            let tight = ExploreOptions {
                max_states,
                ..ExploreOptions::default()
            };
            let hier = evaluate_clustered_with_survival(&cfg, &t, &times, &tight).unwrap();
            assert_eq!(hier.stats.path, ClusteredPath::Hierarchical);
            assert!(hier.stats.states < flat.stats.states);

            let (h, f) = (&hier.evaluation, &flat.evaluation);
            let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
            assert!(
                rel(h.mttsf_seconds, f.mttsf_seconds) < 1e-4,
                "N={node_count}, hot={hot}: MTTSF hier {} vs flat {}",
                h.mttsf_seconds,
                f.mttsf_seconds
            );
            for (a, b) in hier
                .survival
                .as_ref()
                .unwrap()
                .iter()
                .zip(flat.survival.as_ref().unwrap().iter())
            {
                assert!((a - b).abs() < 1e-6, "survival hier {a} vs flat {b}");
            }
            for (what, a, b) in [
                (
                    "cost",
                    h.c_total_hop_bits_per_sec,
                    f.c_total_hop_bits_per_sec,
                ),
                ("P_C1", h.p_failure_c1, f.p_failure_c1),
                ("P_C2", h.p_failure_c2, f.p_failure_c2),
            ] {
                assert!(
                    rel(a, b) <= bound,
                    "N={node_count}, hot={hot}: {what} hier {a} vs flat {b} (rel {:e})",
                    rel(a, b)
                );
            }
        }
    }

    #[test]
    fn single_cluster_degenerates_to_flat_model() {
        let cfg = tiny_cluster_cfg();
        let clustered = evaluate_clustered(&cfg, &topo(1, 1)).unwrap();
        let plain = evaluate(&cfg).unwrap();
        let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-300);
        assert!(rel(clustered.evaluation.mttsf_seconds, plain.mttsf_seconds) < 1e-9);
        assert!(
            rel(
                clustered.evaluation.c_total_hop_bits_per_sec,
                plain.c_total_hop_bits_per_sec
            ) < 1e-9
        );
        assert!((clustered.evaluation.p_failure_c1 - plain.p_failure_c1).abs() < 1e-9);
        assert_eq!(clustered.evaluation.state_count, plain.state_count);
    }

    #[test]
    fn parent_aggregate_lumps_to_threshold_plus_one() {
        let t = topo(6, 3);
        let (net, canon) = parent_aggregate_model(1000.0, &t);
        let lumped = explore(
            &net,
            &ExploreOptions {
                lumping: Some(canon),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert_eq!(lumped.state_count(), 4); // 0, 1, 2 failed + absorbing

        let unlumped = explore(&net, &ExploreOptions::default()).unwrap();
        // Σ_{j≤3} C(6,j) = 1 + 6 + 15 + 20
        assert_eq!(unlumped.state_count(), 42);

        // Exponential order statistics: MTTA = Σ_{j<K} MTTSF_c / (C − j).
        let mtta = Ctmc::from_graph(&lumped)
            .unwrap()
            .mean_time_to_absorption()
            .unwrap()
            .mtta;
        let expect = 1000.0 * (1.0 / 6.0 + 1.0 / 5.0 + 1.0 / 4.0);
        assert!((mtta - expect).abs() < 1e-6, "{mtta} vs {expect}");
    }

    #[test]
    fn transient_depth_past_the_cap_is_a_named_error() {
        let cfg = tiny_cluster_cfg();
        let t = topo(3, 2);
        let tight = ExploreOptions {
            max_states: 100,
            ..ExploreOptions::default()
        };
        let is_depth = |e: &SpnError| matches!(e, SpnError::TransientDepthExceeded { .. });
        // A mission time too deep, on the flat and the hierarchical path.
        for opts in [ExploreOptions::default(), tight.clone()] {
            let err = evaluate_clustered_with_survival(&cfg, &t, &[0.0, 1e308], &opts).unwrap_err();
            assert!(is_depth(&err), "{err}");
        }
        // A cluster that outlives the cap: the horizon search's first
        // candidate, 8·MTTSF, is already too deep to solve.
        let mut slow = cfg.clone();
        slow.attacker.base_rate = 1e-12;
        let err = evaluate_clustered_with_survival(&slow, &t, &[], &tight).unwrap_err();
        assert!(is_depth(&err), "{err}");
    }

    #[test]
    fn invalid_topology_is_reported() {
        let cfg = tiny_cluster_cfg();
        assert!(evaluate_clustered(&cfg, &topo(0, 1)).is_err());
        assert!(evaluate_clustered(&cfg, &topo(3, 4)).is_err());
        assert!(evaluate_clustered(&cfg, &topo(3, 0)).is_err());
    }
}
