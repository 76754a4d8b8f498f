//! Protocol-level discrete-event simulation: one protocol core, two
//! drivers.
//!
//! Where the SPN abstracts the voting IDS into the analytic `Pfn`/`Pfp`,
//! the simulators *execute the protocols*: host-IDS verdicts are sampled
//! per voter, vote participants are drawn without replacement from the
//! target's actual group, colluding voters follow the paper's strategy,
//! and rekey traffic is charged from the exact GDH accounting. Agreement
//! between these simulators and the analytic model
//! (`tests/tests/cross_validation.rs` and the `runner` harness) validates
//! the Equation-1 reconstruction and the SPN structure.
//!
//! The protocol is defined once, in `Replication`: node status, the
//! resolved scenario axes, the compromise/evaluation/leak/join-leave
//! rates, compromise, the vote with its conviction accounting, per-group
//! background traffic, the C2 predicate and the per-replication counters
//! that become a [`DesOutcome`]. Two drivers advance time over it, and
//! each keeps its own RNG draw order:
//!
//! * [`run_des`] (this module) — groups split and merge as a birth–death
//!   process with the mobility-calibrated rates, and time advances by an
//!   exact exponential race (rates refreshed after every event that
//!   changes the state) over compromise (`A(mc)`), per-node IDS evaluation
//!   (`(T+U)·D(md)`), data request by a compromised node (`λq·U`, leaks
//!   with probability `p1` — condition C1), group partition/merge, and
//!   join/leave rekey events (population-neutral, matching the SPN's
//!   cost-only `T_RK`);
//! * [`crate::des_mobility::run_mobility_des`] — groups are the live
//!   connected components of a random-waypoint network, and protocol
//!   events fire by thinning within fixed mobility steps.
//!
//! Failure is declared on C1 or when any single group crosses the C2
//! Byzantine ratio. Both drivers' configurations implement
//! [`Replicate`] with one [`DesOutcome`] per seed; the engine's one
//! stochastic sink (`engine::backend`) aggregates them into reports.
//!
//! The scenario axes of the [`scenario`] crate are mirrored as additional
//! race entries using the same closed-form modulations as the SPN
//! (`crate::model`, axes described in `crate::scenario_model`): burst
//! phase switching, quarantine release/confirmation, throttled rekey
//! service and the stale-key leak. With the baseline scenario every added
//! rate is zero and the event stream is bit-identical to the pre-scenario
//! simulator.

use crate::config::SystemConfig;
use crate::cost::gdh_rekey_hop_bits;
use crate::model::c2_holds;
use crate::scenario_model::scenario_system;
use ids::host::HostIds;
use ids::voting::{run_vote_with_collusion, CollusionModel, VotingConfig};
use numerics::dist::sample_exponential;
use numerics::replicate::Replicate;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scenario::{
    burst_capture_multiplier, targeted_capture_multiplier, targeted_effective_collusion,
    AttackerStrategy, ResponsePolicy, ScenarioConfig,
};

/// How a replication ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureCause {
    /// C1: data leaked to a compromised, undetected member.
    DataLeak,
    /// C2: some group exceeded the 1/3 Byzantine ratio undetected.
    ByzantineCapture,
    /// Everyone was evicted (attrition) — not a paper failure mode, tracked
    /// separately.
    Attrition,
    /// The time horizon expired first.
    Censored,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct DesConfig {
    /// The system under test.
    pub system: SystemConfig,
    /// Censoring horizon (s).
    pub max_time: f64,
    /// Adversary strategy and response policy (baseline reproduces the
    /// paper's behavior exactly).
    pub scenario: ScenarioConfig,
}

impl DesConfig {
    /// Defaults: paper system, one-year horizon, baseline scenario.
    pub fn new(system: SystemConfig) -> Self {
        Self {
            system,
            max_time: 3.15e7,
            scenario: ScenarioConfig::baseline(),
        }
    }
}

/// Outcome of one replication (either driver).
#[derive(Debug, Clone)]
pub struct DesOutcome {
    /// Time of failure (or censoring).
    pub time: f64,
    /// Why the run ended.
    pub cause: FailureCause,
    /// Accumulated traffic (hop·bits).
    pub hop_bits: f64,
    /// Time-averaged cost rate (hop·bits/s).
    pub mean_cost_rate: f64,
    /// Nodes compromised by the attacker.
    pub compromises: u64,
    /// Compromised nodes caught by the voting IDS.
    pub true_evictions: u64,
    /// Healthy nodes falsely evicted.
    pub false_evictions: u64,
    /// Voting rounds executed.
    pub votes: u64,
    /// Group partition events.
    pub partitions: u64,
    /// Group merge events.
    pub merges: u64,
    /// Time of the first compromise (`None` if none happened).
    pub first_compromise: Option<f64>,
    /// Time of the first true detection — the first conviction of a
    /// compromised node (`None` if none happened).
    pub first_true_detection: Option<f64>,
}

/// Protocol status of one node; `as usize` indexes [`Replication`]'s
/// per-status counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeStatus {
    Trusted,
    Compromised,
    Evicted,
    /// Convicted good node held in quarantine (quarantine-rejoin policy).
    QuarantinedGood,
    /// Convicted compromised node held in quarantine.
    QuarantinedBad,
}

impl NodeStatus {
    const COUNT: usize = 5;

    /// A group member: trusted or compromised-but-undetected.
    pub(crate) fn is_live(self) -> bool {
        matches!(self, NodeStatus::Trusted | NodeStatus::Compromised)
    }
}

/// Per-replication counters carried into the [`DesOutcome`].
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) compromises: u64,
    pub(crate) true_evictions: u64,
    pub(crate) false_evictions: u64,
    pub(crate) votes: u64,
    pub(crate) partitions: u64,
    pub(crate) merges: u64,
    pub(crate) first_compromise: Option<f64>,
    pub(crate) first_true_detection: Option<f64>,
}

/// One replication's protocol: the scenario-transformed system, the
/// resolved scenario axes, every node's status and the running time,
/// traffic and counters. Both drivers call the same handlers; each passes
/// its own notion of a group (a birth–death member list or a connectivity
/// component) as peer lists and group sizes.
pub(crate) struct Replication {
    /// The system after the stealth transform (a pure parameter change,
    /// applied up front exactly as in the SPN backend).
    pub(crate) sys: SystemConfig,
    vote_cfg: VotingConfig,
    /// Targeted attacker focus (`0.0` for every other strategy).
    focus: f64,
    /// Burst attacker `(on_rate, off_rate, multiplier)`.
    pub(crate) burst: Option<(f64, f64, f64)>,
    /// Quarantine-rejoin `(release_rate, false_release_prob)`.
    quarantine: Option<(f64, f64)>,
    /// Rekey-throttle service rate.
    throttle: Option<f64>,
    /// Every node's status, written only by [`Replication::set_status`].
    status: Vec<NodeStatus>,
    /// Nodes per status, indexed by `NodeStatus as usize`.
    counts: [u32; NodeStatus::COUNT],
    /// Reused candidate list of [`Replication::pick`].
    candidates: Vec<usize>,
    /// Reused voter order of [`Replication::vote`].
    voter_order: Vec<usize>,
    pub(crate) burst_active: bool,
    /// Convictions whose rekey the throttled service has not served yet.
    pub(crate) pending_rekeys: u32,
    pub(crate) t: f64,
    pub(crate) hop_bits: f64,
    pub(crate) k: Counters,
}

impl Replication {
    pub(crate) fn new(system: &SystemConfig, scenario: &ScenarioConfig) -> Self {
        let sys = scenario_system(system, scenario);
        let burst = match scenario.attacker {
            AttackerStrategy::Burst {
                on_rate,
                off_rate,
                multiplier,
            } => Some((on_rate, off_rate, multiplier)),
            _ => None,
        };
        let (quarantine, throttle) = match scenario.response {
            ResponsePolicy::QuarantineRejoin {
                release_rate,
                false_release_prob,
            } => (Some((release_rate, false_release_prob)), None),
            ResponsePolicy::RekeyThrottle { max_rate } => (None, Some(max_rate)),
            ResponsePolicy::Evict => (None, None),
        };
        Self {
            vote_cfg: VotingConfig {
                participants: sys.vote_participants,
                host: HostIds::new(sys.p1_host_false_negative, sys.p2_host_false_positive),
            },
            focus: scenario.attacker.focus(),
            burst,
            quarantine,
            throttle,
            status: vec![NodeStatus::Trusted; sys.node_count as usize],
            counts: {
                let mut counts = [0; NodeStatus::COUNT];
                counts[NodeStatus::Trusted as usize] = sys.node_count;
                counts
            },
            candidates: Vec::with_capacity(sys.node_count as usize),
            voter_order: Vec::with_capacity(sys.node_count as usize),
            burst_active: false,
            pending_rekeys: 0,
            t: 0.0,
            hop_bits: 0.0,
            k: Counters::default(),
            sys,
        }
    }

    pub(crate) fn status(&self) -> &[NodeStatus] {
        &self.status
    }

    /// Move `node` to `status`, keeping the per-status counts.
    pub(crate) fn set_status(&mut self, node: usize, status: NodeStatus) {
        self.counts[self.status[node] as usize] -= 1;
        self.counts[status as usize] += 1;
        self.status[node] = status;
    }

    /// Nodes with status `s`, in O(1).
    pub(crate) fn count(&self, s: NodeStatus) -> u32 {
        self.counts[s as usize]
    }

    /// Trusted plus undetected compromised nodes.
    pub(crate) fn live(&self) -> u32 {
        self.count(NodeStatus::Trusted) + self.count(NodeStatus::Compromised)
    }

    /// Whether the per-status counts equal a recount of the statuses.
    fn counts_are_exact(&self) -> bool {
        let mut recount = [0; NodeStatus::COUNT];
        for &s in &self.status {
            recount[s as usize] += 1;
        }
        recount == self.counts
    }

    /// A uniformly random node whose status satisfies `pred`, or `None`
    /// (and no draw) when there is none.
    pub(crate) fn pick<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        pred: impl Fn(NodeStatus) -> bool,
    ) -> Option<usize> {
        self.candidates.clear();
        self.candidates
            .extend((0..self.status.len()).filter(|&n| pred(self.status[n])));
        self.candidates.choose(rng).copied()
    }

    /// Capture rate `A(mc)`, modulated by the targeted and burst axes.
    pub(crate) fn compromise_rate(&self, trusted: u32, undetected: u32) -> f64 {
        if trusted == 0 {
            return 0.0;
        }
        let mut r = self.sys.attacker.rate(trusted, undetected);
        if self.focus > 0.0 {
            r *= targeted_capture_multiplier(self.focus, trusted, undetected);
        }
        if let Some((_, _, mult)) = self.burst {
            r *= burst_capture_multiplier(mult, self.burst_active);
        }
        r
    }

    /// Aggregate IDS evaluation rate `(T+U)·D(md)`.
    pub(crate) fn evaluate_rate(&self, trusted: u32, undetected: u32) -> f64 {
        (trusted + undetected) as f64
            * self
                .sys
                .detection
                .rate(self.sys.node_count, trusted, undetected)
    }

    /// Data-request rate of the undetected compromised nodes (`λq·U`).
    pub(crate) fn leak_rate(&self, undetected: u32) -> f64 {
        self.sys.group_comm_rate * undetected as f64
    }

    /// Population-neutral join/leave rekey rate.
    pub(crate) fn join_leave_rate(&self, live: u32) -> f64 {
        self.sys.join_rate * (self.sys.node_count - live) as f64 + self.sys.leave_rate * live as f64
    }

    /// `acc` plus one group's background traffic rate (hop·bits/s) with
    /// `live` members: data dissemination + status + beacons, added term
    /// by term. Vote and rekey traffic is charged per event.
    pub(crate) fn add_group_traffic(&self, acc: f64, live: u32) -> f64 {
        let sys = &self.sys;
        let nf = live as f64;
        acc + sys.group_comm_rate * nf * sys.data_packet_bits as f64 * nf
            + nf * sys.status_packet_bits as f64 * nf / sys.status_period
            + nf * sys.beacon_bits as f64 / sys.beacon_period
    }

    /// Charge one data packet (a compromised node's request, or traffic
    /// read through a stale key).
    pub(crate) fn charge_data_packet(&mut self) {
        self.hop_bits += self.sys.data_packet_bits as f64 * self.sys.mean_hops;
    }

    /// A compromised node requests data; the responder leaks (C1) iff its
    /// host IDS misses the requester.
    pub(crate) fn data_request_leaks<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        self.charge_data_packet();
        rng.gen::<f64>() < self.sys.p1_host_false_negative
    }

    /// The attacker compromises a random trusted node; `false` when none
    /// is left.
    pub(crate) fn compromise<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        let Some(victim) = self.pick(rng, |s| s == NodeStatus::Trusted) else {
            return false;
        };
        self.set_status(victim, NodeStatus::Compromised);
        self.k.compromises += 1;
        self.k.first_compromise.get_or_insert(self.t);
        true
    }

    /// One voting round on `target` by the live members of its group
    /// (`peers`, target excluded, each flagged `true` when compromised),
    /// with the vote traffic flooding the group (Byzantine accountability).
    /// `trusted`/`undetected` are the population counts the targeted
    /// attacker's collusion sees. On conviction the response policy is
    /// applied — quarantine, a queued (throttled) rekey or eviction with the
    /// shrunken group's rekey — and `true` is returned so the driver can
    /// drop the target from its group.
    pub(crate) fn vote<R: Rng + ?Sized>(
        &mut self,
        target: usize,
        peers: &[bool],
        trusted: u32,
        undetected: u32,
        rng: &mut R,
    ) -> bool {
        let target_bad = self.status[target] == NodeStatus::Compromised;
        // Targeted attackers press their numeric advantage inside the vote
        // too — same effective collusion as the SPN's Pfn/Pfp.
        let collusion = if self.focus > 0.0 {
            CollusionModel::Probabilistic(targeted_effective_collusion(
                self.sys.collusion.malice_probability(),
                self.focus,
                trusted,
                undetected,
            ))
        } else {
            self.sys.collusion
        };
        let o = run_vote_with_collusion(
            &self.vote_cfg,
            target_bad,
            peers,
            collusion,
            &mut self.voter_order,
            rng,
        );
        self.k.votes += 1;
        let group = (peers.len() + 1) as f64;
        self.hop_bits += o.votes as f64 * self.sys.vote_packet_bits as f64 * group;
        if !o.evicted {
            return false;
        }
        if target_bad {
            self.k.true_evictions += 1;
            self.k.first_true_detection.get_or_insert(self.t);
        } else {
            self.k.false_evictions += 1;
        }
        let held = match (self.quarantine, target_bad) {
            // conviction quarantines instead of evicting
            (Some(_), true) => NodeStatus::QuarantinedBad,
            (Some(_), false) => NodeStatus::QuarantinedGood,
            (None, _) => NodeStatus::Evicted,
        };
        self.set_status(target, held);
        if self.throttle.is_some() {
            // the rekey is queued, not charged — the old key stays live
            // until served
            self.pending_rekeys += 1;
        } else {
            // the shrunken group rekeys
            self.hop_bits += gdh_rekey_hop_bits(&self.sys, peers.len() as u32);
        }
        true
    }

    /// The replication's outcome, ended at the current time.
    pub(crate) fn finish(&self, cause: FailureCause) -> DesOutcome {
        let (t, k) = (self.t, &self.k);
        DesOutcome {
            time: t,
            cause,
            hop_bits: self.hop_bits,
            mean_cost_rate: if t > 0.0 { self.hop_bits / t } else { 0.0 },
            compromises: k.compromises,
            true_evictions: k.true_evictions,
            false_evictions: k.false_evictions,
            votes: k.votes,
            partitions: k.partitions,
            merges: k.merges,
            first_compromise: k.first_compromise,
            first_true_detection: k.first_true_detection,
        }
    }
}

/// Event indices of the exponential race in [`run_des`], in rate order.
/// The join/leave rekey event is the (unlisted) final slot, so it also
/// absorbs floating-point residue in [`sample_event_index`]; every
/// scenario-specific rate is zero under the baseline scenario, keeping the
/// baseline event stream bit-identical to the pre-scenario simulator.
const EVENT_COMPROMISE: usize = 0;
const EVENT_EVALUATE: usize = 1;
const EVENT_LEAK: usize = 2;
const EVENT_PARTITION: usize = 3;
const EVENT_MERGE: usize = 4;
const EVENT_BURST_ON: usize = 5;
const EVENT_BURST_OFF: usize = 6;
const EVENT_RELEASE_GOOD: usize = 7;
const EVENT_RELEASE_BAD: usize = 8;
const EVENT_CONFIRM_BAD: usize = 9;
const EVENT_REKEY_SERVE: usize = 10;
const EVENT_STALE_LEAK: usize = 11;
/// Slots of the race, the join/leave rekey event included.
const EVENTS: usize = 13;

/// Winner of an exponential race: the first slot whose cumulative rate mass
/// exceeds `pick` (the final slot absorbs floating-point residue). A slot
/// of rate zero other than the last never wins: `pick` stays non-negative.
fn sample_event_index(mut pick: f64, rates: &[f64]) -> usize {
    for (i, &r) in rates.iter().enumerate() {
        if pick < r {
            return i;
        }
        pick -= r;
    }
    rates.len() - 1
}

/// Rekey traffic of a uniformly random group (none when every node is
/// held or evicted).
fn rekey_random_group<R: Rng + ?Sized>(
    sys: &SystemConfig,
    groups: &[Vec<usize>],
    rng: &mut R,
) -> f64 {
    if groups.is_empty() {
        return 0.0;
    }
    let gi = rng.gen_range(0..groups.len());
    gdh_rekey_hop_bits(sys, groups[gi].len() as u32)
}

/// The exponential race of one state of [`run_des`].
#[derive(Clone, Copy, Default)]
struct Rates {
    /// Event rates in slot order.
    slots: [f64; EVENTS],
    /// `slots` summed in slot order.
    total: f64,
    /// Background traffic of every group (hop·bits/s).
    background: f64,
}

impl Rates {
    /// The race of the replication's state with these groups: the one
    /// definition of every rate, which both fills and checks [`Race`].
    fn of(r: &Replication, groups: &[Vec<usize>]) -> Self {
        let trusted = r.count(NodeStatus::Trusted);
        let undetected = r.count(NodeStatus::Compromised);
        let live = trusted + undetected;
        let qg = r.count(NodeStatus::QuarantinedGood) as f64;
        let qb = r.count(NodeStatus::QuarantinedBad) as f64;
        let g = groups.len() as f64;
        let sys = &r.sys;

        let r_compromise = r.compromise_rate(trusted, undetected);
        let r_evaluate = r.evaluate_rate(trusted, undetected);
        let r_leak = r.leak_rate(undetected);
        let can_partition =
            groups.iter().any(|grp| grp.len() >= 2) && (groups.len() as u32) < sys.max_groups;
        let r_partition = if can_partition {
            sys.partition_rate_per_group * g
        } else {
            0.0
        };
        let r_merge = if groups.len() >= 2 {
            sys.merge_rate_per_group * (g - 1.0)
        } else {
            0.0
        };
        let (r_burst_on, r_burst_off) = match r.burst {
            Some((on, off, _)) => {
                if r.burst_active {
                    (0.0, off)
                } else {
                    (on, 0.0)
                }
            }
            None => (0.0, 0.0),
        };
        let (r_rel_good, r_rel_bad, r_conf_bad) = match r.quarantine {
            Some((rel, fr)) => (rel * qg, rel * fr * qb, rel * (1.0 - fr) * qb),
            None => (0.0, 0.0, 0.0),
        };
        let (r_serve, r_stale) = match r.throttle {
            Some(max_rate) if r.pending_rekeys > 0 => (
                max_rate,
                sys.p1_host_false_negative * sys.group_comm_rate * r.pending_rekeys as f64,
            ),
            _ => (0.0, 0.0),
        };
        // join/leave stays the last entry: it absorbs fp residue in
        // `sample_event_index` (and needs a non-empty group to charge).
        let r_joinleave = if groups.is_empty() {
            0.0
        } else {
            r.join_leave_rate(live)
        };
        let slots = [
            r_compromise,
            r_evaluate,
            r_leak,
            r_partition,
            r_merge,
            r_burst_on,
            r_burst_off,
            r_rel_good,
            r_rel_bad,
            r_conf_bad,
            r_serve,
            r_stale,
            r_joinleave,
        ];
        Self {
            slots,
            total: slots.iter().sum(),
            background: groups
                .iter()
                .fold(0.0, |acc, g| r.add_group_traffic(acc, g.len() as u32)),
        }
    }

    fn bits(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots
            .iter()
            .chain([&self.total, &self.background])
            .map(|x| x.to_bits())
    }
}

/// What [`run_des`] reads from its state between events: the race, the
/// live nodes in index order (the candidates of a vote's target) and each
/// live node's group.
///
/// Only an event that changes a status, a group, the burst phase or the
/// rekey queue moves any of it, so the loop refreshes the cache after
/// those events alone. A rejected vote, a data request that leaks nothing
/// and a join/leave rekey reuse it: the dependency rule of Gibson and
/// Bruck's next-reaction method, with every random draw unchanged.
struct Race {
    rates: Rates,
    live: Vec<usize>,
    /// Group index of every live node (stale for the others).
    group_of: Vec<usize>,
}

impl Race {
    fn new(r: &Replication, groups: &[Vec<usize>]) -> Self {
        let n = r.status().len();
        let mut race = Self {
            rates: Rates::default(),
            live: Vec::with_capacity(n),
            group_of: vec![0; n],
        };
        race.refresh(r, groups);
        race
    }

    fn refresh(&mut self, r: &Replication, groups: &[Vec<usize>]) {
        self.rates = Rates::of(r, groups);
        let status = r.status();
        self.live.clear();
        self.live
            .extend((0..status.len()).filter(|&n| status[n].is_live()));
        for (gi, g) in groups.iter().enumerate() {
            for &n in g {
                self.group_of[n] = gi;
            }
        }
    }

    /// Whether the cache equals a fresh computation from the state, bit for
    /// bit, the groups hold exactly the live nodes, and the per-status
    /// counts equal a recount.
    fn is_fresh(&self, r: &Replication, groups: &[Vec<usize>]) -> bool {
        let status = r.status();
        self.rates.bits().eq(Rates::of(r, groups).bits())
            && self
                .live
                .iter()
                .copied()
                .eq((0..status.len()).filter(|&n| status[n].is_live()))
            && groups.iter().map(Vec::len).sum::<usize>() == self.live.len()
            && groups.iter().enumerate().all(|(gi, g)| {
                g.iter()
                    .all(|&n| status[n].is_live() && self.group_of[n] == gi)
            })
            && r.counts_are_exact()
    }
}

/// Run one replication with birth–death group dynamics.
pub fn run_des(cfg: &DesConfig, seed: u64) -> DesOutcome {
    let mut r = Replication::new(&cfg.system, &cfg.scenario);
    // detlint::allow(D003): leaf constructor — `seed` is a child_seed from the replicate grid, passed down by the executor
    let mut rng = StdRng::seed_from_u64(seed);
    let n = r.status().len();
    // Group member lists; evicted and quarantined nodes have left theirs.
    // A group is never empty, so there are at most `n`, and every list has
    // room for all nodes: no step reallocates one.
    let mut groups: Vec<Vec<usize>> = Vec::with_capacity(n.max(1));
    groups.push((0..n).collect());
    // Emptied member lists, reused by the next partition or release.
    let mut spare: Vec<Vec<usize>> = Vec::with_capacity(n);
    let new_group =
        |spare: &mut Vec<Vec<usize>>| spare.pop().unwrap_or_else(|| Vec::with_capacity(n));
    // The groups a partition may split.
    let mut splittable: Vec<usize> = Vec::with_capacity(n);
    // Compromise flags of an evaluated node's group peers.
    let mut peers: Vec<bool> = Vec::with_capacity(n);
    let mut race = Race::new(&r, &groups);

    loop {
        debug_assert!(race.is_fresh(&r, &groups), "stale race at t = {}", r.t);
        let trusted = r.count(NodeStatus::Trusted);
        let undetected = r.count(NodeStatus::Compromised);
        // Attrition requires the quarantine to be empty too: a held node may
        // still be released back into the system.
        if trusted + undetected == 0
            && r.count(NodeStatus::QuarantinedGood) + r.count(NodeStatus::QuarantinedBad) == 0
        {
            return r.finish(FailureCause::Attrition);
        }
        let Rates {
            slots,
            total,
            background,
        } = race.rates;
        if total <= 0.0 {
            r.hop_bits += background * (cfg.max_time - r.t);
            r.t = cfg.max_time;
            return r.finish(FailureCause::Censored);
        }

        let dt = sample_exponential(&mut rng, total);
        let step = dt.min(cfg.max_time - r.t);
        r.hop_bits += background * step;
        if r.t + dt >= cfg.max_time {
            r.t = cfg.max_time;
            return r.finish(FailureCause::Censored);
        }
        r.t += dt;

        // --- the winner of the exponential race ----------------------------
        // Each arm says whether it changed the state the race reads.
        let event = sample_event_index(rng.gen::<f64>() * total, &slots);
        let changed = match event {
            EVENT_COMPROMISE => r.compromise(&mut rng),
            // evaluate a random live node with an actual voting round
            EVENT_EVALUATE => match race.live.choose(&mut rng) {
                Some(&target) => {
                    let gi = race.group_of[target];
                    peers.clear();
                    peers.extend(
                        groups[gi]
                            .iter()
                            .filter(|&&n| n != target)
                            .map(|&n| r.status()[n] == NodeStatus::Compromised),
                    );
                    let convicted = r.vote(target, &peers, trusted, undetected, &mut rng);
                    if convicted {
                        groups[gi].retain(|&n| n != target);
                        if groups[gi].is_empty() {
                            spare.push(groups.remove(gi));
                        }
                    }
                    convicted
                }
                None => false,
            },
            EVENT_LEAK => {
                if r.data_request_leaks(&mut rng) {
                    return r.finish(FailureCause::DataLeak);
                }
                false
            }
            EVENT_PARTITION => {
                // split a random group (≥ 2 members) in half
                splittable.clear();
                splittable.extend((0..groups.len()).filter(|&i| groups[i].len() >= 2));
                match splittable.choose(&mut rng) {
                    Some(&gi) => {
                        let mut other = new_group(&mut spare);
                        let members = &mut groups[gi];
                        members.shuffle(&mut rng);
                        let half = members.len() / 2;
                        other.extend(members.drain(half..));
                        r.hop_bits += gdh_rekey_hop_bits(&r.sys, members.len() as u32)
                            + gdh_rekey_hop_bits(&r.sys, other.len() as u32);
                        r.k.partitions += 1;
                        groups.push(other);
                        true
                    }
                    None => false,
                }
            }
            EVENT_MERGE => {
                // merge two random groups
                let a = rng.gen_range(0..groups.len());
                let mut b = rng.gen_range(0..groups.len() - 1);
                if b >= a {
                    b += 1;
                }
                let mut moved = std::mem::take(&mut groups[b]);
                groups[a].append(&mut moved);
                r.hop_bits += gdh_rekey_hop_bits(&r.sys, groups[a].len() as u32);
                r.k.merges += 1;
                groups.remove(b);
                spare.push(moved);
                true
            }
            EVENT_BURST_ON | EVENT_BURST_OFF => {
                r.burst_active = event == EVENT_BURST_ON;
                true
            }
            EVENT_RELEASE_GOOD | EVENT_RELEASE_BAD => {
                // quarantine review clears a node — rightly a good one,
                // wrongly a compromised one — and it rejoins a random group,
                // charging the receiving group's rekey (a singleton group
                // needs none)
                let (held, released) = if event == EVENT_RELEASE_GOOD {
                    (NodeStatus::QuarantinedGood, NodeStatus::Trusted)
                } else {
                    (NodeStatus::QuarantinedBad, NodeStatus::Compromised)
                };
                match r.pick(&mut rng, |s| s == held) {
                    Some(node) => {
                        r.set_status(node, released);
                        if groups.is_empty() {
                            let mut group = new_group(&mut spare);
                            group.push(node);
                            groups.push(group);
                        } else {
                            let gi = rng.gen_range(0..groups.len());
                            groups[gi].push(node);
                            r.hop_bits += gdh_rekey_hop_bits(&r.sys, groups[gi].len() as u32);
                        }
                        true
                    }
                    None => false,
                }
            }
            EVENT_CONFIRM_BAD => {
                // quarantine review confirms the conviction: permanent
                // eviction, no further rekey (the group already rekeyed)
                match r.pick(&mut rng, |s| s == NodeStatus::QuarantinedBad) {
                    Some(node) => {
                        r.set_status(node, NodeStatus::Evicted);
                        true
                    }
                    None => false,
                }
            }
            EVENT_REKEY_SERVE => {
                // the throttled rekey service completes one pending rekey
                r.pending_rekeys -= 1;
                r.hop_bits += rekey_random_group(&r.sys, &groups, &mut rng);
                true
            }
            EVENT_STALE_LEAK => {
                // a stale group key (rekey still pending) lets an evicted
                // compromised node read traffic — condition C1
                r.charge_data_packet();
                return r.finish(FailureCause::DataLeak);
            }
            _ => {
                // join/leave rekey event (population-neutral; SPN-equivalent).
                // The last slot also absorbs fp residue, which can land here
                // with every member quarantined — then there is nothing to
                // rekey.
                r.hop_bits += rekey_random_group(&r.sys, &groups, &mut rng);
                false
            }
        };

        if changed {
            // --- C2 check on actual per-group composition --------------------
            // The SPN's predicate, per group. Only a changed status or
            // group can make it hold.
            let any_byzantine = groups.iter().any(|g| {
                let bad = g
                    .iter()
                    .filter(|&&n| r.status()[n] == NodeStatus::Compromised)
                    .count() as u32;
                c2_holds(g.len() as u32 - bad, bad)
            });
            if any_byzantine {
                return r.finish(FailureCause::ByzantineCapture);
            }
            race.refresh(&r, &groups);
        }
    }
}

impl Replicate for DesConfig {
    type Outcome = DesOutcome;

    fn run_one(&self, seed: u64) -> DesOutcome {
        run_des(self, seed)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use numerics::rng::child_seed;
    use numerics::stats::Welford;

    /// Failure times and causes of replications `0..n`.
    pub(crate) struct FailureSample {
        /// Failure times of the replications that failed at `t > 0`.
        pub(crate) mttsf: Welford,
        pub(crate) c1: u64,
        pub(crate) c2: u64,
        /// Censored replications, the zero-duration ones included.
        pub(crate) censored: u64,
    }

    /// Run replications `0..n` of either driver under
    /// `child_seed(seed, i)` in index order. Below the replication
    /// executor's 64-replication chunk this is the order the engine's
    /// sink records them in, so the moments match a `Fixed(n)` run.
    pub(crate) fn failure_sample<C>(cfg: &C, n: u64, seed: u64) -> FailureSample
    where
        C: Replicate<Outcome = DesOutcome>,
    {
        let mut s = FailureSample {
            mttsf: Welford::new(),
            c1: 0,
            c2: 0,
            censored: 0,
        };
        for o in (0..n).map(|i| cfg.run_one(child_seed(seed, i))) {
            if o.time <= 0.0 || o.cause == FailureCause::Censored {
                s.censored += 1;
                continue;
            }
            s.mttsf.push(o.time);
            match o.cause {
                FailureCause::DataLeak => s.c1 += 1,
                FailureCause::ByzantineCapture => s.c2 += 1,
                _ => {}
            }
        }
        s
    }

    /// Accelerated system so replications end quickly.
    fn hot_system(n: u32) -> SystemConfig {
        let mut c = SystemConfig::paper_default();
        c.node_count = n;
        c.vote_participants = 3;
        c.attacker.base_rate = 1.0 / 600.0; // one compromise per 10 min
        c.detection = c.detection.with_interval(120.0);
        c
    }

    #[test]
    fn replication_terminates_with_failure() {
        let cfg = DesConfig::new(hot_system(16));
        let o = run_des(&cfg, 42);
        assert!(matches!(
            o.cause,
            FailureCause::DataLeak | FailureCause::ByzantineCapture | FailureCause::Attrition
        ));
        assert!(o.time > 0.0);
        assert!(o.hop_bits > 0.0);
        assert!(o.mean_cost_rate > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = DesConfig::new(hot_system(12));
        let a = run_des(&cfg, 7);
        let b = run_des(&cfg, 7);
        assert_eq!(a.time, b.time);
        assert_eq!(a.compromises, b.compromises);
        assert_eq!(a.hop_bits, b.hop_bits);
    }

    #[test]
    fn censoring_respected() {
        let mut cfg = DesConfig::new(hot_system(12));
        cfg.max_time = 1.0; // far below any failure time
        let o = run_des(&cfg, 3);
        assert_eq!(o.cause, FailureCause::Censored);
        assert_eq!(o.time, 1.0);
    }

    #[test]
    fn votes_and_evictions_happen() {
        let cfg = DesConfig::new(hot_system(20));
        let stats: Vec<DesOutcome> = (0..10).map(|s| run_des(&cfg, s)).collect();
        let votes: u64 = stats.iter().map(|o| o.votes).sum();
        let evictions: u64 = stats
            .iter()
            .map(|o| o.true_evictions + o.false_evictions)
            .sum();
        assert!(votes > 0);
        assert!(evictions > 0);
    }

    #[test]
    fn aggressive_detection_catches_more() {
        let slow = DesConfig::new({
            let mut c = hot_system(20);
            c.detection = c.detection.with_interval(100_000.0);
            c
        });
        let fast = DesConfig::new({
            let mut c = hot_system(20);
            c.detection = c.detection.with_interval(30.0);
            c
        });
        let s = failure_sample(&slow, 40, 1);
        let f = failure_sample(&fast, 40, 1);
        // nearly no detections without IDS → C1 dominates
        assert!(s.c1 > s.c2, "slow: C1 {} vs C2 {}", s.c1, s.c2);
        // aggressive IDS survives longer on average
        assert!(
            f.mttsf.mean() > s.mttsf.mean(),
            "fast {} vs slow {}",
            f.mttsf.mean(),
            s.mttsf.mean()
        );
    }

    #[test]
    fn zero_duration_replications_are_censored_at_zero_not_averaged() {
        // A zero-length horizon observes nothing: the replication ends at
        // t = 0, censored, with the placeholder cost rate 0.0. The engine's
        // sink counts such runs as censored-at-zero and averages neither
        // their cost nor their time (`engine::backend` tests that half).
        let mut cfg = DesConfig::new(hot_system(12));
        cfg.max_time = 0.0;
        for seed in 0..6 {
            let o = run_des(&cfg, seed);
            assert_eq!(o.time, 0.0);
            assert_eq!(o.cause, FailureCause::Censored);
            assert_eq!(o.mean_cost_rate, 0.0);
        }
    }

    #[test]
    fn scenario_deterministic_per_seed() {
        let mut cfg = DesConfig::new(hot_system(12));
        cfg.scenario.attacker = AttackerStrategy::Burst {
            on_rate: 1.0 / 2_000.0,
            off_rate: 1.0 / 1_000.0,
            multiplier: 4.0,
        };
        cfg.scenario.response = ResponsePolicy::QuarantineRejoin {
            release_rate: 1.0 / 500.0,
            false_release_prob: 0.2,
        };
        let a = run_des(&cfg, 13);
        let b = run_des(&cfg, 13);
        assert_eq!(a.time, b.time);
        assert_eq!(a.hop_bits, b.hop_bits);
        assert_eq!(a.first_compromise, b.first_compromise);
    }

    #[test]
    fn first_event_times_ordered_and_recorded() {
        let cfg = DesConfig::new(hot_system(16));
        let mut saw_both = false;
        for seed in 0..20 {
            let o = run_des(&cfg, seed);
            if let Some(fc) = o.first_compromise {
                assert!(fc > 0.0 && fc <= o.time);
                if let Some(fd) = o.first_true_detection {
                    assert!(fd >= fc, "cannot detect a compromise before it happens");
                    saw_both = true;
                }
            } else {
                assert_eq!(o.first_true_detection, None);
            }
        }
        assert!(saw_both, "expected at least one detected compromise");
    }

    #[test]
    fn quarantine_runs_terminate_and_conserve_nodes() {
        let mut cfg = DesConfig::new(hot_system(14));
        cfg.scenario.response = ResponsePolicy::QuarantineRejoin {
            release_rate: 1.0 / 400.0,
            false_release_prob: 0.3,
        };
        for seed in 0..10 {
            let o = run_des(&cfg, seed);
            assert!(o.time > 0.0);
            assert!(matches!(
                o.cause,
                FailureCause::DataLeak
                    | FailureCause::ByzantineCapture
                    | FailureCause::Attrition
                    | FailureCause::Censored
            ));
        }
    }

    #[test]
    fn throttle_starves_rekeys_and_can_leak_via_stale_keys() {
        // An almost-stalled rekey service leaves convicted attackers holding
        // live keys; some replications must end in C1 via the stale-key path,
        // and survival must be no better than prompt eviction.
        let mut slow = DesConfig::new(hot_system(16));
        slow.scenario.response = ResponsePolicy::RekeyThrottle {
            max_rate: 1.0 / 1.0e7,
        };
        let prompt = DesConfig::new(hot_system(16));
        let s = failure_sample(&slow, 60, 2);
        let p = failure_sample(&prompt, 60, 2);
        assert!(
            s.mttsf.mean() < p.mttsf.mean(),
            "stale keys should hurt: throttled {} vs evict {}",
            s.mttsf.mean(),
            p.mttsf.mean()
        );
    }

    #[test]
    fn burst_and_targeted_attackers_shorten_survival() {
        let base = DesConfig::new(hot_system(16));
        let mut burst = DesConfig::new(hot_system(16));
        burst.scenario.attacker = AttackerStrategy::Burst {
            on_rate: 1.0 / 1_000.0,
            off_rate: 1.0 / 2_000.0,
            multiplier: 8.0,
        };
        let b0 = failure_sample(&base, 60, 4);
        let bb = failure_sample(&burst, 60, 4);
        assert!(
            bb.mttsf.mean() < b0.mttsf.mean(),
            "burst {} vs base {}",
            bb.mttsf.mean(),
            b0.mttsf.mean()
        );
        // Targeted focus multiplies capture by 1 + focus·U/live, so it only
        // bites once undetected nodes accumulate — use a C2-dominated system
        // (rare leaks, slow detection) where that accumulation is the game.
        let mut c2sys = hot_system(16);
        c2sys.group_comm_rate = 1e-6;
        c2sys.detection = c2sys.detection.with_interval(2_000.0);
        let c2base = DesConfig::new(c2sys.clone());
        let mut c2targeted = DesConfig::new(c2sys);
        c2targeted.scenario.attacker = AttackerStrategy::Targeted { focus: 1.0 };
        let t0 = failure_sample(&c2base, 60, 4);
        let tt = failure_sample(&c2targeted, 60, 4);
        assert!(
            tt.mttsf.mean() < t0.mttsf.mean(),
            "targeted {} vs base {}",
            tt.mttsf.mean(),
            t0.mttsf.mean()
        );
    }

    #[test]
    fn baseline_scenario_is_bit_identical_to_default_config() {
        // The scenario race entries are all zero-rate under the baseline
        // scenario, so the event stream (and every outcome field) must be
        // unchanged from a config that never mentions scenarios.
        let plain = DesConfig::new(hot_system(12));
        let mut explicit = DesConfig::new(hot_system(12));
        explicit.scenario = ScenarioConfig::baseline();
        for seed in 0..8 {
            let a = run_des(&plain, seed);
            let b = run_des(&explicit, seed);
            assert_eq!(a.time, b.time);
            assert_eq!(a.hop_bits, b.hop_bits);
            assert_eq!(a.votes, b.votes);
        }
    }
}
