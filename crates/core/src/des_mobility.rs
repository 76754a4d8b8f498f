//! Mobility-coupled discrete-event simulation: the fully integrated system.
//!
//! Where [`crate::des`] drives group partition/merge from the *calibrated
//! birth–death rates* (matching the SPN abstraction), this simulator closes
//! the final gap to the real system: nodes move under random waypoint, and
//! the mobile groups **are** the connected components of the unit-disc
//! graph at every instant. Stochastic protocol events (compromise, voting,
//! data requests, join/leave rekeys) are superimposed on the evolving
//! connectivity with a hybrid scheme: mobility advances in fixed `dt`
//! steps, and within each step protocol events fire by thinning the
//! exponential race.
//!
//! This is the most expensive validator in the repository (every step
//! rebuilds connectivity), so it is used with accelerated parameters by
//! tests and runs in the cross-backend validation harness only on request
//! (`runner --mobility`; see `engine::crossval`). It serves as the
//! ground-truth check that the birth–death abstraction in the SPN/DES does
//! not distort MTTSF.

use crate::config::SystemConfig;
use crate::cost::gdh_rekey_hop_bits;
use crate::des::FailureCause;
use crate::scenario_model::scenario_system;
use ids::voting::{run_vote_with_collusion, CollusionModel, VotingConfig};
use manet::{ConnectivityGraph, MobilityConfig, RandomWaypoint};
use numerics::replicate::{run_plan, OutcomeSink, Replicate, SamplingPlan};
use numerics::stats::Welford;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scenario::{
    burst_capture_multiplier, targeted_capture_multiplier, targeted_effective_collusion,
    AttackerStrategy, ScenarioConfig,
};

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

/// Outcome of one mobility-coupled replication.
#[derive(Debug, Clone)]
pub struct MobilityDesOutcome {
    /// End time.
    pub time: f64,
    /// Cause of the ending.
    pub cause: FailureCause,
    /// Accumulated traffic (hop·bits).
    pub hop_bits: f64,
    /// Observed partition events.
    pub partitions: u64,
    /// Observed merge events.
    pub merges: u64,
    /// Compromises performed by the attacker.
    pub compromises: u64,
    /// Evictions by the voting IDS (true + false).
    pub evictions: u64,
    /// Evictions of actually compromised nodes.
    pub true_evictions: u64,
    /// Evictions of healthy nodes (false alarms).
    pub false_evictions: u64,
    /// Time of the first compromise (`None` if none happened).
    pub first_compromise: Option<f64>,
    /// Time of the first eviction of a compromised node (`None` if none).
    pub first_true_detection: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Trusted,
    Compromised,
    Evicted,
}

/// Per-replication counters threaded to every return site.
#[derive(Debug, Clone, Copy, Default)]
struct MobCounters {
    partitions: u64,
    merges: u64,
    compromises: u64,
    evictions: u64,
    true_evictions: u64,
    false_evictions: u64,
    first_compromise: Option<f64>,
    first_true_detection: Option<f64>,
}

fn finish(t: f64, cause: FailureCause, hop_bits: f64, k: &MobCounters) -> MobilityDesOutcome {
    MobilityDesOutcome {
        time: t,
        cause,
        hop_bits,
        partitions: k.partitions,
        merges: k.merges,
        compromises: k.compromises,
        evictions: k.evictions,
        true_evictions: k.true_evictions,
        false_evictions: k.false_evictions,
        first_compromise: k.first_compromise,
        first_true_detection: k.first_true_detection,
    }
}

/// Run one mobility-coupled replication.
pub fn run_mobility_des(cfg: &MobilityDesConfig, seed: u64) -> MobilityDesOutcome {
    // Stealth is a pure parameter transform, exactly as in the other
    // backends; burst/targeted modulate rates inside the loop.
    let sys_owned = scenario_system(&cfg.system, &cfg.scenario);
    let sys = &sys_owned;
    let focus = cfg.scenario.attacker.focus();
    let burst = match cfg.scenario.attacker {
        AttackerStrategy::Burst {
            on_rate,
            off_rate,
            multiplier,
        } => Some((on_rate, off_rate, multiplier)),
        _ => None,
    };
    // detlint::allow(D003): leaf constructor — `seed` is a child_seed from the replicate grid, passed down by the executor
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mobility = RandomWaypoint::new(
        MobilityConfig {
            node_count: sys.node_count as usize,
            ..cfg.mobility
        },
        &mut rng,
    );
    let mut status = vec![St::Trusted; sys.node_count as usize];
    let vote_cfg = VotingConfig {
        participants: sys.vote_participants,
        host: ids::host::HostIds::new(sys.p1_host_false_negative, sys.p2_host_false_positive),
    };

    let mut t = 0.0f64;
    let mut hop_bits = 0.0f64;
    let mut k = MobCounters::default();
    let mut burst_active = false;

    let positions = mobility.positions();
    let mut graph = ConnectivityGraph::build(&positions, cfg.radio_range);
    let mut prev_components = graph.component_count();

    while t < cfg.max_time {
        // --- mobility step and group bookkeeping ---------------------------
        mobility.step(cfg.dt, &mut rng);
        t += cfg.dt;
        let positions = mobility.positions();
        graph = ConnectivityGraph::build(&positions, cfg.radio_range);
        let components = graph.component_count();
        // Count topology events and charge their rekeys (evicted nodes keep
        // moving but are cryptographically outside every group).
        if components > prev_components {
            k.partitions += (components - prev_components) as u64;
            hop_bits += gdh_rekey_hop_bits(sys, mean_live_group_size(&graph, &status));
        } else if components < prev_components {
            k.merges += (prev_components - components) as u64;
            hop_bits += gdh_rekey_hop_bits(sys, mean_live_group_size(&graph, &status));
        }
        prev_components = components;

        // --- live population -------------------------------------------------
        let trusted = status.iter().filter(|&&s| s == St::Trusted).count() as u32;
        let undetected = status.iter().filter(|&&s| s == St::Compromised).count() as u32;
        let live = trusted + undetected;
        if live == 0 {
            return finish(t, FailureCause::Attrition, hop_bits, &k);
        }

        // --- background traffic over actual components ----------------------
        hop_bits += background_rate(sys, &graph, &status) * cfg.dt;

        // --- scenario phase (burst attackers only; no draw otherwise) --------
        if let Some((on, off, _)) = burst {
            let toggle_rate = if burst_active { off } else { on };
            if rng.gen::<f64>() < 1.0 - (-toggle_rate * cfg.dt).exp() {
                burst_active = !burst_active;
            }
        }

        // --- protocol events within the step (thinned Poisson) --------------
        let r_compromise = if trusted > 0 {
            let mut r = sys.attacker.rate(trusted, undetected);
            if focus > 0.0 {
                r *= targeted_capture_multiplier(focus, trusted, undetected);
            }
            if let Some((_, _, mult)) = burst {
                r *= burst_capture_multiplier(mult, burst_active);
            }
            r
        } else {
            0.0
        };
        if trusted > 0 && rng.gen::<f64>() < 1.0 - (-r_compromise * cfg.dt).exp() {
            let victims: Vec<usize> = (0..status.len())
                .filter(|&i| status[i] == St::Trusted)
                .collect();
            let &victim = victims.choose(&mut rng).expect("trusted node exists");
            status[victim] = St::Compromised;
            k.compromises += 1;
            if k.first_compromise.is_none() {
                k.first_compromise = Some(t);
            }
        }

        let d_rate = sys.detection.rate(sys.node_count, trusted, undetected);
        let p_eval = 1.0 - (-(live as f64) * d_rate * cfg.dt).exp();
        if rng.gen::<f64>() < p_eval {
            // evaluate one random live node within its actual component
            let live_nodes: Vec<usize> = (0..status.len())
                .filter(|&i| status[i] != St::Evicted)
                .collect();
            let &target = live_nodes.choose(&mut rng).expect("live node exists");
            let comp = graph.component_of(target);
            let peers: Vec<bool> = live_nodes
                .iter()
                .filter(|&&n| n != target && graph.component_of(n) == comp)
                .map(|&n| status[n] == St::Compromised)
                .collect();
            let target_bad = status[target] == St::Compromised;
            // Targeted attackers press their numeric advantage inside the
            // vote too — same effective collusion as the SPN's Pfn/Pfp.
            let collusion = if focus > 0.0 {
                CollusionModel::Probabilistic(targeted_effective_collusion(
                    sys.collusion.malice_probability(),
                    focus,
                    trusted,
                    undetected,
                ))
            } else {
                sys.collusion
            };
            let o = run_vote_with_collusion(&vote_cfg, target_bad, &peers, collusion, &mut rng);
            hop_bits += o.votes as f64 * sys.vote_packet_bits as f64 * (peers.len() + 1) as f64;
            if o.evicted {
                status[target] = St::Evicted;
                k.evictions += 1;
                if target_bad {
                    k.true_evictions += 1;
                    if k.first_true_detection.is_none() {
                        k.first_true_detection = Some(t);
                    }
                } else {
                    k.false_evictions += 1;
                }
                hop_bits += gdh_rekey_hop_bits(sys, peers.len() as u32);
            }
        }

        let r_leak = sys.group_comm_rate * undetected as f64;
        if undetected > 0 && rng.gen::<f64>() < 1.0 - (-r_leak * cfg.dt).exp() {
            hop_bits += sys.data_packet_bits as f64 * sys.mean_hops;
            if rng.gen::<f64>() < sys.p1_host_false_negative {
                return finish(t, FailureCause::DataLeak, hop_bits, &k);
            }
        }

        // join/leave rekey traffic (population-neutral, as in `des`)
        let r_jl = sys.join_rate * (sys.node_count - live) as f64 + sys.leave_rate * live as f64;
        if rng.gen::<f64>() < 1.0 - (-r_jl * cfg.dt).exp() {
            hop_bits += gdh_rekey_hop_bits(sys, mean_live_group_size(&graph, &status));
        }

        // --- C2 check on real components ------------------------------------
        if any_component_byzantine(&graph, &status) {
            return finish(t, FailureCause::ByzantineCapture, hop_bits, &k);
        }
    }
    finish(cfg.max_time, FailureCause::Censored, hop_bits, &k)
}

fn mean_live_group_size(graph: &ConnectivityGraph, status: &[St]) -> u32 {
    let live: u32 = status.iter().filter(|&&s| s != St::Evicted).count() as u32;
    let comps = graph.component_count().max(1) as u32;
    (live / comps).max(1)
}

fn background_rate(sys: &SystemConfig, graph: &ConnectivityGraph, status: &[St]) -> f64 {
    // live members per component
    let mut live_per_comp = vec![0u32; graph.component_count()];
    for (i, &s) in status.iter().enumerate() {
        if s != St::Evicted {
            live_per_comp[graph.component_of(i) as usize] += 1;
        }
    }
    live_per_comp
        .iter()
        .map(|&n| {
            let nf = n as f64;
            sys.group_comm_rate * nf * sys.data_packet_bits as f64 * nf
                + nf * sys.status_packet_bits as f64 * nf / sys.status_period
                + nf * sys.beacon_bits as f64 / sys.beacon_period
        })
        .sum()
}

fn any_component_byzantine(graph: &ConnectivityGraph, status: &[St]) -> bool {
    let comps = graph.component_count();
    let mut trusted = vec![0u32; comps];
    let mut bad = vec![0u32; comps];
    for (i, &s) in status.iter().enumerate() {
        match s {
            St::Trusted => trusted[graph.component_of(i) as usize] += 1,
            St::Compromised => bad[graph.component_of(i) as usize] += 1,
            St::Evicted => {}
        }
    }
    trusted
        .iter()
        .zip(&bad)
        .any(|(&t, &u)| t + u > 0 && 2 * u > t)
}

/// Aggregate over parallel replications.
#[derive(Debug, Clone)]
pub struct MobilityDesStats {
    /// Time-to-failure statistics (non-censored runs).
    pub mttsf: Welford,
    /// Observed partition-rate statistics (events per second).
    pub partition_rate: Welford,
    /// C1 failures.
    pub c1_failures: u64,
    /// C2 failures.
    pub c2_failures: u64,
    /// Censored runs.
    pub censored: u64,
}

impl Replicate for MobilityDesConfig {
    type Outcome = MobilityDesOutcome;

    fn run_one(&self, seed: u64) -> MobilityDesOutcome {
        run_mobility_des(self, seed)
    }
}

/// Streaming [`MobilityDesOutcome`] aggregation for the shared replication
/// engine (no outcome `Vec`).
#[derive(Clone)]
struct MobilitySink {
    stats: MobilityDesStats,
    confidence: f64,
}

impl MobilitySink {
    fn new(confidence: f64) -> Self {
        Self {
            stats: MobilityDesStats {
                mttsf: Welford::new(),
                partition_rate: Welford::new(),
                c1_failures: 0,
                c2_failures: 0,
                censored: 0,
            },
            confidence,
        }
    }
}

impl OutcomeSink<MobilityDesOutcome> for MobilitySink {
    fn record(&mut self, o: MobilityDesOutcome) {
        let s = &mut self.stats;
        if o.time > 0.0 {
            s.partition_rate.push(o.partitions as f64 / o.time);
        }
        match o.cause {
            FailureCause::DataLeak => {
                s.c1_failures += 1;
                s.mttsf.push(o.time);
            }
            FailureCause::ByzantineCapture | FailureCause::Attrition => {
                s.c2_failures += 1;
                s.mttsf.push(o.time);
            }
            FailureCause::Censored => s.censored += 1,
        }
    }

    fn merge(&mut self, other: Self) {
        let (s, o) = (&mut self.stats, other.stats);
        s.mttsf.merge(&o.mttsf);
        s.partition_rate.merge(&o.partition_rate);
        s.c1_failures += o.c1_failures;
        s.c2_failures += o.c2_failures;
        s.censored += o.censored;
    }

    fn precision(&self) -> Option<f64> {
        self.stats.mttsf.relative_precision(self.confidence)
    }
}

/// Run a [`SamplingPlan`] through the shared replication engine (adaptive
/// plans stop on the MTTSF CI's relative half-width at `confidence`).
/// Returns the stats plus the adaptive verdict (`None` for fixed plans).
///
/// # Panics
/// Panics on an invalid plan (see [`SamplingPlan::validate`]).
pub fn run_mobility_des_sampled(
    cfg: &MobilityDesConfig,
    plan: &SamplingPlan,
    master_seed: u64,
    confidence: f64,
) -> (MobilityDesStats, Option<bool>) {
    let done = run_plan(cfg, plan, master_seed, || MobilitySink::new(confidence));
    (done.sink.stats, done.target_met)
}

/// Run `n` replications in parallel (a fixed [`SamplingPlan`] through the
/// shared replication engine).
pub fn run_mobility_des_replications(
    cfg: &MobilityDesConfig,
    n: u64,
    master_seed: u64,
) -> MobilityDesStats {
    run_mobility_des_sampled(cfg, &SamplingPlan::Fixed(n), master_seed, 0.95).0
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn replications_aggregate() {
        let stats = run_mobility_des_replications(&hot(), 8, 11);
        assert_eq!(stats.c1_failures + stats.c2_failures + stats.censored, 8);
        assert!(stats.mttsf.count() > 0);
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
        let t = run_mobility_des_replications(&cfg, 6, 3);
        let b = run_mobility_des_replications(&hot(), 6, 3);
        // with full-collusion defaults the capture multiplier is the lever;
        // a small sample still should not show the targeted attacker losing
        assert!(t.mttsf.mean() <= b.mttsf.mean() * 1.5);
        assert!(t.mttsf.count() + t.censored == 6);
    }

    #[test]
    fn eviction_split_sums_to_total() {
        let o = run_mobility_des(&hot(), 29);
        assert_eq!(o.evictions, o.true_evictions + o.false_evictions);
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
