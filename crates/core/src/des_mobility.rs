//! Mobility-coupled driver of the protocol DES: the fully integrated
//! system.
//!
//! Where [`crate::des::run_des`] drives group partition/merge from the
//! *calibrated birth–death rates* (matching the SPN abstraction), this
//! driver closes the final gap to the real system: nodes move under random
//! waypoint, and the mobile groups **are** the connected components of the
//! unit-disc graph at every instant. Mobility advances in fixed `dt`
//! steps, and within each step the protocol events of the shared core
//! ([`crate::des`]: compromise, voting, data requests, join/leave rekeys)
//! fire by thinning the exponential race. It returns the same
//! [`DesOutcome`], aggregated by the same engine sink as the birth–death
//! driver's.
//!
//! A replication owns one [`ConnectivityGraph`] (a bit-matrix adjacency,
//! N²/8 bytes), rebuilt in place at every step, and reuses its
//! per-component counts and peer list, so a step allocates nothing. The
//! driver reads the graph only through its component partition (never
//! neighbour order), so no random draw depends on how the graph is built.
//!
//! The driver keeps each component's live and undetected-compromised
//! counts, the background traffic and the four event probabilities across
//! steps. It recounts the components only when the labels differ from
//! those of the last count or a compromise or a conviction changed a
//! status, and recomputes the probabilities only when the step-start
//! (trusted, undetected, burst phase) key changes. Measured over the
//! `stochastic` benchmark workload's replications (N = 12, 250 m, 2 s
//! steps; 2.2 M steps), the recount runs on 9.4 % of steps (8.9 % a
//! label change, 0.6 % a status change) and the probabilities are
//! recomputed on 0.5 %. At a 120 m range the recount runs on 21 % of
//! steps; at N = 100 and 250 m the graph stays one component, and both
//! run on 0.3 %. Every draw, its order and every summation order are
//! those of a recount at every step; in the dev profile a `debug_assert!`
//! compares the cache with a fresh recount after each step, bit for bit.
//!
//! A replication still walks its whole horizon in `dt` steps, so tests
//! use accelerated parameters and the cross-backend validation harness
//! runs it only on request (`runner --mobility`; see `engine::crossval`).
//! It serves as the ground-truth check that the birth–death abstraction in
//! the SPN/DES does not distort MTTSF.

use crate::config::SystemConfig;
use crate::cost::gdh_rekey_hop_bits;
use crate::des::{DesOutcome, FailureCause, NodeStatus, Replication};
use crate::model::c2_holds;
use manet::{ConnectivityGraph, MobilityConfig, RandomWaypoint};
use numerics::replicate::Replicate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenario::ScenarioConfig;

/// Parameters of the mobility-coupled simulation.
#[derive(Debug, Clone)]
pub struct MobilityDesConfig {
    /// The protocol/attacker configuration.
    pub system: SystemConfig,
    /// Mobility model (node count is taken from `system.node_count`).
    pub mobility: MobilityConfig,
    /// Radio range (m) defining the unit-disc groups.
    pub radio_range: f64,
    /// Mobility step (s).
    pub dt: f64,
    /// Censoring horizon (s).
    pub max_time: f64,
    /// Adversary scenario. Only the *attacker* axis is modeled here (burst,
    /// stealth, targeted); response policies other than eviction are not
    /// meaningful on live connectivity components and are rejected upstream
    /// by `engine` spec validation.
    pub scenario: ScenarioConfig,
}

impl MobilityDesConfig {
    /// Defaults: the system's node count in the paper's 500 m disc with
    /// 250 m range, 1 s steps, one-year horizon.
    pub fn new(system: SystemConfig) -> Self {
        let mobility = MobilityConfig {
            node_count: system.node_count as usize,
            ..Default::default()
        };
        Self {
            system,
            mobility,
            radio_range: 250.0,
            dt: 1.0,
            max_time: 3.15e7,
            scenario: ScenarioConfig::baseline(),
        }
    }
}

/// Probability that an event of the given rate fires within one step of
/// length `dt` (thinning of the exponential race).
fn fire_probability(rate: f64, dt: f64) -> f64 {
    1.0 - (-rate * dt).exp()
}

/// Whether an event with firing probability `p` fires this step (always
/// one draw).
fn fires<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    rng.gen::<f64>() < p
}

/// What a step reads from the component partition and the node statuses:
/// each component's live and undetected-compromised members and the
/// background traffic of all components (hop·bits/s).
///
/// Only a change of the partition or of a status moves any of it, so the
/// driver recounts after those alone.
struct Groups {
    /// The component labels the counts were taken over.
    labels: Vec<u32>,
    live: Vec<u32>,
    bad: Vec<u32>,
    background: f64,
}

impl Groups {
    fn new(graph: &ConnectivityGraph, r: &Replication) -> Self {
        let n = r.status().len();
        let mut groups = Self {
            labels: Vec::with_capacity(n),
            live: Vec::with_capacity(n),
            bad: Vec::with_capacity(n),
            background: 0.0,
        };
        groups.refresh(graph, r);
        groups
    }

    /// Recount every component over the graph's partition.
    fn refresh(&mut self, graph: &ConnectivityGraph, r: &Replication) {
        self.labels.clear();
        self.labels.extend_from_slice(graph.labels());
        for counts in [&mut self.live, &mut self.bad] {
            counts.clear();
            counts.resize(graph.component_count(), 0);
        }
        for (&c, &s) in graph.labels().iter().zip(r.status()) {
            self.live[c as usize] += u32::from(s.is_live());
            self.bad[c as usize] += u32::from(s == NodeStatus::Compromised);
        }
        self.background = self.live.iter().map(|&n| r.add_group_traffic(0.0, n)).sum();
    }

    /// Whether the counts and the background equal a fresh recount, bit
    /// for bit. It allocates nothing, so the check leaves a step's
    /// allocation count unchanged.
    fn is_fresh(&self, graph: &ConnectivityGraph, r: &Replication) -> bool {
        let members = |c: usize, pred: fn(NodeStatus) -> bool| {
            graph
                .labels()
                .iter()
                .zip(r.status())
                .filter(|&(&l, &s)| l as usize == c && pred(s))
                .count() as u32
        };
        let comps = 0..graph.component_count();
        let live = comps.clone().map(|c| members(c, NodeStatus::is_live));
        let bad = comps.map(|c| members(c, |s| s == NodeStatus::Compromised));
        let background: f64 = live.clone().map(|n| r.add_group_traffic(0.0, n)).sum();
        self.labels == graph.labels()
            && self.live.iter().copied().eq(live)
            && self.bad.iter().copied().eq(bad)
            && self.background.to_bits() == background.to_bits()
    }
}

/// The firing probabilities of the protocol events of one step, a
/// function of the step-start trusted and undetected counts and the burst
/// phase alone.
struct Thresholds {
    key: (u32, u32, bool),
    compromise: f64,
    evaluate: f64,
    leak: f64,
    join_leave: f64,
}

impl Thresholds {
    fn of(r: &Replication, trusted: u32, undetected: u32, dt: f64) -> Self {
        Self {
            key: (trusted, undetected, r.burst_active),
            compromise: fire_probability(r.compromise_rate(trusted, undetected), dt),
            evaluate: fire_probability(r.evaluate_rate(trusted, undetected), dt),
            leak: fire_probability(r.leak_rate(undetected), dt),
            join_leave: fire_probability(r.join_leave_rate(trusted + undetected), dt),
        }
    }

    fn bits(&self) -> [u64; 4] {
        [self.compromise, self.evaluate, self.leak, self.join_leave].map(f64::to_bits)
    }
}

/// Run one mobility-coupled replication.
pub fn run_mobility_des(cfg: &MobilityDesConfig, seed: u64) -> DesOutcome {
    let mut r = Replication::new(&cfg.system, &cfg.scenario);
    // detlint::allow(D003): leaf constructor — `seed` is a child_seed from the replicate grid, passed down by the executor
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mobility = RandomWaypoint::new(
        MobilityConfig {
            node_count: r.status().len(),
            ..cfg.mobility
        },
        &mut rng,
    );
    let mut graph = ConnectivityGraph::build(mobility.positions(), cfg.radio_range);
    let mut prev_components = graph.component_count();
    let n = r.status().len();
    let mut groups = Groups::new(&graph, &r);
    let mut thresholds = Thresholds::of(
        &r,
        r.count(NodeStatus::Trusted),
        r.count(NodeStatus::Compromised),
        cfg.dt,
    );
    // Burst phase toggles: the off→on probability, then the on→off one.
    let toggle = r
        .burst
        .map(|(on, off, _)| [fire_probability(on, cfg.dt), fire_probability(off, cfg.dt)]);
    // The voting peers of a target: sized for the population once.
    let mut peers: Vec<bool> = Vec::with_capacity(n);

    while r.t < cfg.max_time {
        // --- mobility step and group bookkeeping ---------------------------
        mobility.step(cfg.dt, &mut rng);
        r.t += cfg.dt;
        graph.rebuild(mobility.positions(), cfg.radio_range);
        let components = graph.component_count();
        // Count topology events and charge their rekeys (evicted nodes keep
        // moving but are cryptographically outside every group).
        if components != prev_components {
            if components > prev_components {
                r.k.partitions += (components - prev_components) as u64;
            } else {
                r.k.merges += (prev_components - components) as u64;
            }
            r.hop_bits += gdh_rekey_hop_bits(&r.sys, mean_live_group_size(&graph, &r));
        }
        prev_components = components;
        if graph.labels() != groups.labels {
            groups.refresh(&graph, &r);
        }

        // --- live population -------------------------------------------------
        let trusted = r.count(NodeStatus::Trusted);
        let undetected = r.count(NodeStatus::Compromised);
        let live = trusted + undetected;
        if live == 0 {
            return r.finish(FailureCause::Attrition);
        }

        // --- background traffic over actual components ----------------------
        r.hop_bits += groups.background * cfg.dt;

        // --- scenario phase (burst attackers only; no draw otherwise) --------
        if let Some(p) = toggle {
            if fires(&mut rng, p[usize::from(r.burst_active)]) {
                r.burst_active = !r.burst_active;
            }
        }

        // --- protocol events within the step (thinned Poisson) --------------
        // Every event reads the step-start counts, even after a compromise.
        if thresholds.key != (trusted, undetected, r.burst_active) {
            thresholds = Thresholds::of(&r, trusted, undetected, cfg.dt);
        }
        let mut status_changed = false;
        if trusted > 0 && fires(&mut rng, thresholds.compromise) {
            status_changed |= r.compromise(&mut rng);
        }

        if fires(&mut rng, thresholds.evaluate) {
            // evaluate one random live node within its actual component
            if let Some(target) = r.pick(&mut rng, NodeStatus::is_live) {
                let comp = graph.component_of(target);
                let status = r.status();
                peers.clear();
                peers.extend(
                    (0..status.len())
                        .filter(|&n| {
                            n != target && status[n].is_live() && graph.component_of(n) == comp
                        })
                        .map(|n| status[n] == NodeStatus::Compromised),
                );
                status_changed |= r.vote(target, &peers, trusted, undetected, &mut rng);
            }
        }

        if undetected > 0 && fires(&mut rng, thresholds.leak) && r.data_request_leaks(&mut rng) {
            return r.finish(FailureCause::DataLeak);
        }

        if fires(&mut rng, thresholds.join_leave) {
            r.hop_bits += gdh_rekey_hop_bits(&r.sys, mean_live_group_size(&graph, &r));
        }

        // --- C2 check on real components ------------------------------------
        if status_changed {
            groups.refresh(&graph, &r);
        }
        debug_assert!(groups.is_fresh(&graph, &r), "stale component counts");
        debug_assert!(
            thresholds.bits() == Thresholds::of(&r, trusted, undetected, cfg.dt).bits(),
            "stale firing probabilities"
        );
        if groups
            .live
            .iter()
            .zip(&groups.bad)
            .any(|(&l, &u)| c2_holds(l - u, u))
        {
            return r.finish(FailureCause::ByzantineCapture);
        }
    }
    r.t = cfg.max_time;
    r.finish(FailureCause::Censored)
}

fn mean_live_group_size(graph: &ConnectivityGraph, r: &Replication) -> u32 {
    let live = r.live();
    let comps = graph.component_count().max(1) as u32;
    (live / comps).max(1)
}

impl Replicate for MobilityDesConfig {
    type Outcome = DesOutcome;

    fn run_one(&self, seed: u64) -> DesOutcome {
        run_mobility_des(self, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::tests::failure_sample;
    use scenario::AttackerStrategy;

    /// Small, fast-failing configuration.
    fn hot() -> MobilityDesConfig {
        let mut sys = SystemConfig::paper_default();
        sys.node_count = 16;
        sys.vote_participants = 3;
        sys.attacker.base_rate = 1.0 / 300.0;
        sys.detection = sys.detection.with_interval(60.0);
        let mut c = MobilityDesConfig::new(sys);
        c.dt = 2.0;
        c.max_time = 50_000.0;
        c
    }

    #[test]
    fn replication_terminates() {
        let o = run_mobility_des(&hot(), 5);
        assert!(o.time > 0.0);
        assert!(o.hop_bits > 0.0);
        assert!(matches!(
            o.cause,
            FailureCause::DataLeak | FailureCause::ByzantineCapture | FailureCause::Censored
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_mobility_des(&hot(), 9);
        let b = run_mobility_des(&hot(), 9);
        assert_eq!(a.time, b.time);
        assert_eq!(a.compromises, b.compromises);
        assert_eq!(a.hop_bits, b.hop_bits);
    }

    #[test]
    fn censoring_respected() {
        let mut cfg = hot();
        cfg.system.attacker.base_rate = 1e-12;
        cfg.max_time = 50.0;
        let o = run_mobility_des(&cfg, 3);
        assert_eq!(o.cause, FailureCause::Censored);
        assert!((o.time - 50.0).abs() < cfg.dt + 1e-9);
    }

    #[test]
    fn forced_false_alarms_stop_at_one_live_node() {
        // Every vote convicts a healthy target, but a conviction needs at
        // least one voting peer in the target's component, so the last
        // live node can never be evicted: a mobility run cannot end in
        // attrition and is censored with one node left.
        let mut cfg = hot();
        cfg.system.attacker.base_rate = 1e-12;
        cfg.system.p2_host_false_positive = 1.0;
        cfg.max_time = 20_000.0;
        let o = run_mobility_des(&cfg, 0);
        assert_eq!(o.cause, FailureCause::Censored);
        assert_eq!(o.false_evictions, u64::from(cfg.system.node_count) - 1);
    }

    #[test]
    fn scenario_deterministic_and_burst_changes_outcome() {
        let mut cfg = hot();
        cfg.scenario.attacker = AttackerStrategy::Burst {
            on_rate: 1.0 / 200.0,
            off_rate: 1.0 / 100.0,
            multiplier: 6.0,
        };
        let a = run_mobility_des(&cfg, 17);
        let b = run_mobility_des(&cfg, 17);
        assert_eq!(a.time, b.time);
        assert_eq!(a.hop_bits, b.hop_bits);
        assert_eq!(a.first_compromise, b.first_compromise);
        // the burst phase draws perturb the event stream vs baseline
        let base = run_mobility_des(&hot(), 17);
        assert!(a.time != base.time || a.hop_bits != base.hop_bits);
    }

    #[test]
    fn targeted_attacker_does_not_outlive_baseline() {
        let mut cfg = hot();
        cfg.scenario.attacker = AttackerStrategy::Targeted { focus: 1.0 };
        let t = failure_sample(&cfg, 6, 3);
        let b = failure_sample(&hot(), 6, 3);
        // with full-collusion defaults the capture multiplier is the lever;
        // a small sample still should not show the targeted attacker losing
        assert!(t.mttsf.mean() <= b.mttsf.mean() * 1.5);
        assert!(t.mttsf.count() + t.censored == 6);
    }

    #[test]
    fn eviction_split_sums_to_total() {
        // every eviction is the outcome of one voting round
        let o = run_mobility_des(&hot(), 29);
        let evictions = o.true_evictions + o.false_evictions;
        assert!(evictions > 0 && evictions <= o.votes, "{o:?}");
        if let (Some(fc), Some(fd)) = (o.first_compromise, o.first_true_detection) {
            assert!(fd >= fc);
        }
    }

    #[test]
    fn sparse_network_sees_partitions() {
        let mut cfg = hot();
        cfg.radio_range = 120.0; // sparse → frequent partitions
        cfg.max_time = 3_000.0;
        cfg.system.attacker.base_rate = 1e-12; // isolate topology dynamics
        let o = run_mobility_des(&cfg, 21);
        assert!(o.partitions > 0, "expected partitions in sparse network");
        assert!(o.merges > 0);
    }
}
