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
//! A replication owns one [`ConnectivityGraph`], rebuilt in place at every
//! step, and reuses its per-component counts and peer list, so a step
//! allocates nothing. The driver reads the graph only through its
//! component partition (never neighbour order), so no random draw depends
//! on how the graph is built. A replication still walks its whole horizon
//! in `dt` steps, so tests use accelerated parameters and the
//! cross-backend validation harness runs it only on request
//! (`runner --mobility`; see `engine::crossval`). It serves as the
//! ground-truth check that the birth–death abstraction in the SPN/DES does
//! not distort MTTSF.

use crate::config::SystemConfig;
use crate::cost::gdh_rekey_hop_bits;
use crate::des::{byzantine, DesOutcome, FailureCause, NodeStatus, Replication};
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

/// Whether an event of the given rate fires within one step of length
/// `dt` (thinning of the exponential race; always one draw).
fn fires<R: Rng + ?Sized>(rng: &mut R, rate: f64, dt: f64) -> bool {
    rng.gen::<f64>() < 1.0 - (-rate * dt).exp()
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
    // Per-component live and undetected-compromised counts, and the voting
    // peers of a target: sized for the population once, reused every step.
    let n = r.status().len();
    let (mut live_per_comp, mut bad_per_comp) = (Vec::with_capacity(n), Vec::with_capacity(n));
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

        // --- live population -------------------------------------------------
        let trusted = r.count(NodeStatus::Trusted);
        let undetected = r.count(NodeStatus::Compromised);
        let live = trusted + undetected;
        if live == 0 {
            return r.finish(FailureCause::Attrition);
        }

        // --- background traffic over actual components ----------------------
        members_per_component(&graph, r.status(), &mut live_per_comp, &mut bad_per_comp);
        let background: f64 = live_per_comp
            .iter()
            .map(|&n| r.add_group_traffic(0.0, n))
            .sum();
        r.hop_bits += background * cfg.dt;

        // --- scenario phase (burst attackers only; no draw otherwise) --------
        if let Some((on, off, _)) = r.burst {
            let toggle_rate = if r.burst_active { off } else { on };
            if fires(&mut rng, toggle_rate, cfg.dt) {
                r.burst_active = !r.burst_active;
            }
        }

        // --- protocol events within the step (thinned Poisson) --------------
        if trusted > 0 && fires(&mut rng, r.compromise_rate(trusted, undetected), cfg.dt) {
            r.compromise(&mut rng);
        }

        if fires(&mut rng, r.evaluate_rate(trusted, undetected), cfg.dt) {
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
                r.vote(target, &peers, trusted, undetected, &mut rng);
            }
        }

        if undetected > 0
            && fires(&mut rng, r.leak_rate(undetected), cfg.dt)
            && r.data_request_leaks(&mut rng)
        {
            return r.finish(FailureCause::DataLeak);
        }

        if fires(&mut rng, r.join_leave_rate(live), cfg.dt) {
            r.hop_bits += gdh_rekey_hop_bits(&r.sys, mean_live_group_size(&graph, &r));
        }

        // --- C2 check on real components ------------------------------------
        members_per_component(&graph, r.status(), &mut live_per_comp, &mut bad_per_comp);
        if live_per_comp
            .iter()
            .zip(&bad_per_comp)
            .any(|(&l, &u)| byzantine(l - u, u))
        {
            return r.finish(FailureCause::ByzantineCapture);
        }
    }
    r.t = cfg.max_time;
    r.finish(FailureCause::Censored)
}

/// Fill `live` and `bad` with the live and undetected-compromised members
/// of each connectivity component.
fn members_per_component(
    graph: &ConnectivityGraph,
    status: &[NodeStatus],
    live: &mut Vec<u32>,
    bad: &mut Vec<u32>,
) {
    for counts in [&mut *live, &mut *bad] {
        counts.clear();
        counts.resize(graph.component_count(), 0);
    }
    for (i, &s) in status.iter().enumerate() {
        let c = graph.component_of(i) as usize;
        live[c] += u32::from(s.is_live());
        bad[c] += u32::from(s == NodeStatus::Compromised);
    }
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
