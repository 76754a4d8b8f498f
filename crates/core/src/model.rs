//! Construction of the paper's Figure-1 SPN and its variants.
//!
//! One private block builder defines every place and transition below,
//! plus the extras of a non-baseline scenario axis (see
//! [`crate::scenario_model`]). Three entry points call it:
//! [`build_scenario_model`] (one block, absorbing on its failure),
//! [`build_model`] (the same at the baseline scenario: the paper's net)
//! and [`build_clustered_model`] (one baseline block per cluster, each
//! frozen on its own failure, absorbing at the K-th failed cluster).
//!
//! Marking layout (places): `Tm` trusted members, `UCm` compromised but
//! undetected, `DCm` detected (evicted), `GF` data-leak failure flag, `NG`
//! number of groups. `Tm`/`UCm`/`DCm` hold *system-wide* counts; per-group
//! quantities divide by `mark(NG)`, rounded (see [`Population`]).
//!
//! | transition | effect | rate |
//! |---|---|---|
//! | `T_CP`  | `Tm → UCm` | `A(mc)`, `mc = (T+U)/T` |
//! | `T_IDS` | `UCm → DCm` | `U · D(md) · (1 − Pfn)` |
//! | `T_FA`  | `Tm → DCm` | `T · D(md) · Pfp` |
//! | `T_DRQ` | token into `GF` | `p1 · λq · U` |
//! | `T_PAR` | `NG += 1` | `ν_p · NG` |
//! | `T_MER` | `NG −= 1` | `ν_m · (NG − 1)` |
//! | `T_RK`  | none (cost-only) | join/leave rekey event rate |
//!
//! Every transition is disabled once a failure condition holds (the global
//! absorbing predicate): **C1** `mark(GF) > 0` (data leaked to a
//! compromised member) or **C2** `U/(T+U) > 1/3` (Byzantine capture),
//! checked exactly as `2U > T` in integers.

use crate::config::{ClusterTopology, SystemConfig};
use crate::memo::PairMemo;
use crate::scenario_model::scenario_system;
use ids::voting::{
    p_false_negative_with_collusion, p_false_positive_with_collusion, CollusionModel,
};
use numerics::UnionFind;
use scenario::{AttackerStrategy, ResponsePolicy, ScenarioConfig};
use spn::model::{Marking, PlaceId, Spn, SpnBuilder, TransitionDef};
use spn::reach::MarkingCanonicalizer;
use std::collections::HashMap;

/// Place handles of the constructed net.
#[derive(Debug, Clone, Copy)]
pub struct Places {
    /// Trusted members (system-wide).
    pub tm: PlaceId,
    /// Compromised, undetected members.
    pub ucm: PlaceId,
    /// Detected (evicted) members.
    pub dcm: PlaceId,
    /// Data-leak failure flag.
    pub gf: PlaceId,
    /// Number of groups.
    pub ng: PlaceId,
}

/// The model: net plus place handles, the configuration it was built
/// from, and the scenario it encodes.
pub struct GcsIdsModel {
    /// The stochastic Petri net.
    pub net: Spn,
    /// The paper's `Tm`/`UCm`/`DCm`/`GF`/`NG` place handles.
    pub places: Places,
    /// Burst attacker phase (`AM`, 1 = active); burst attacker only.
    pub attack_mode: Option<PlaceId>,
    /// Quarantined good nodes (`QGm`); quarantine-and-rejoin only.
    pub quarantine_good: Option<PlaceId>,
    /// Quarantined compromised nodes (`QBm`); quarantine-and-rejoin only.
    pub quarantine_bad: Option<PlaceId>,
    /// Queued eviction rekeys (`PRm`); rekey-throttle only.
    pub pending_rekeys: Option<PlaceId>,
    /// Effective configuration: the input with the scenario's stationary
    /// transform applied ([`scenario_system`]).
    pub config: SystemConfig,
    /// The scenario the net encodes (baseline for the paper's net).
    pub scenario: ScenarioConfig,
}

/// Population snapshot extracted from a marking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Population {
    /// Trusted members `T`.
    pub trusted: u32,
    /// Compromised undetected `U`.
    pub undetected: u32,
    /// Number of groups `g`.
    pub groups: u32,
}

impl Population {
    /// Live members `T + U`.
    pub fn live(&self) -> u32 {
        self.trusted + self.undetected
    }

    /// Per-group live population (at least 1 when any member lives).
    pub fn per_group_live(&self) -> u32 {
        if self.live() == 0 {
            0
        } else {
            (self.live() as f64 / self.groups as f64).round().max(1.0) as u32
        }
    }

    /// Per-group (good, bad) split for a **bad** target's group: the target
    /// itself is bad, so the bad count is at least 1.
    pub fn per_group_for_bad_target(&self) -> (u32, u32) {
        let n_g = self.per_group_live();
        let bad = ((self.undetected as f64 / self.groups as f64).round() as u32).clamp(1, n_g);
        (n_g - bad, bad)
    }

    /// Per-group (good, bad) split for a **good** target's group: the
    /// target itself is good, so the good count is at least 1.
    pub fn per_group_for_good_target(&self) -> (u32, u32) {
        let n_g = self.per_group_live();
        let good = ((self.trusted as f64 / self.groups as f64).round() as u32).clamp(1, n_g);
        (good, n_g - good)
    }
}

/// Extract the population from a marking.
pub fn population(places: &Places, m: &Marking) -> Population {
    Population {
        trusted: m.tokens(places.tm),
        undetected: m.tokens(places.ucm),
        groups: m.tokens(places.ng).max(1),
    }
}

/// The C2 Byzantine condition `U/(T+U) > 1/3`, evaluated exactly.
pub fn c2_holds(trusted: u32, undetected: u32) -> bool {
    2 * undetected > trusted
}

/// Voting false-negative probability `Pfn` in the given population state.
pub fn pfn_for(cfg: &SystemConfig, pop: &Population) -> f64 {
    if pop.undetected == 0 {
        return 0.0;
    }
    let (good, bad) = pop.per_group_for_bad_target();
    p_false_negative_with_collusion(
        good,
        bad,
        cfg.vote_participants,
        cfg.p1_host_false_negative,
        cfg.collusion,
    )
}

/// Voting false-positive probability `Pfp` in the given population state.
pub fn pfp_for(cfg: &SystemConfig, pop: &Population) -> f64 {
    if pop.trusted == 0 {
        return 0.0;
    }
    let (good, bad) = pop.per_group_for_good_target();
    p_false_positive_with_collusion(
        good,
        bad,
        cfg.vote_participants,
        cfg.p2_host_false_positive,
        cfg.collusion,
    )
}

/// The local failure predicate of one sub-system block: C1 (`GF` token),
/// C2 (Byzantine capture), or total attrition. For the flat model this is
/// exactly the global absorbing condition; for a clustered net it is one
/// cluster's own failure.
pub fn cluster_failed(places: &Places, m: &Marking) -> bool {
    let t = m.tokens(places.tm);
    let u = m.tokens(places.ucm);
    m.tokens(places.gf) > 0 || c2_holds(t, u) || t + u == 0
}

/// Voting false-negative probability under a targeted attacker: the
/// colluders' effective malice probability grows with the foothold.
fn pfn_targeted(cfg: &SystemConfig, pop: &Population, focus: f64) -> f64 {
    if pop.undetected == 0 {
        return 0.0;
    }
    let (good, bad) = pop.per_group_for_bad_target();
    let q = scenario::targeted_effective_collusion(
        cfg.collusion.malice_probability(),
        focus,
        pop.trusted,
        pop.undetected,
    );
    p_false_negative_with_collusion(
        good,
        bad,
        cfg.vote_participants,
        cfg.p1_host_false_negative,
        CollusionModel::Probabilistic(q),
    )
}

/// Voting false-positive probability under a targeted attacker.
fn pfp_targeted(cfg: &SystemConfig, pop: &Population, focus: f64) -> f64 {
    if pop.trusted == 0 {
        return 0.0;
    }
    let (good, bad) = pop.per_group_for_good_target();
    let q = scenario::targeted_effective_collusion(
        cfg.collusion.malice_probability(),
        focus,
        pop.trusted,
        pop.undetected,
    );
    p_false_positive_with_collusion(
        good,
        bad,
        cfg.vote_participants,
        cfg.p2_host_false_positive,
        CollusionModel::Probabilistic(q),
    )
}

/// Memoize a voting error probability on the target group's (good, bad)
/// split. Without a targeted attacker the probability depends on nothing
/// else, and the split collapses the many (T, U, NG) markings onto a
/// handful of pairs, so repeated rate evaluations (exploration,
/// re-weighting, simulation) pay the log-space voting math once per pair.
/// A hit costs a lock-free probe ([`PairMemo`]).
fn memoized(
    split: fn(&Population) -> (u32, u32),
    p: impl Fn(&Population) -> f64 + Send + Sync + 'static,
) -> impl Fn(&Population) -> f64 + Send + Sync + 'static {
    let memo = PairMemo::new();
    move |pop| memo.get_or_insert_with(split(pop), || p(pop))
}

/// The place handles of one block, with its scenario extras.
#[derive(Debug, Clone, Copy)]
struct Block {
    places: Places,
    attack_mode: Option<PlaceId>,
    quarantine_good: Option<PlaceId>,
    quarantine_bad: Option<PlaceId>,
    pending_rekeys: Option<PlaceId>,
}

impl Block {
    /// [`cluster_failed`], except that under quarantine attrition also
    /// needs an empty quarantine, since quarantined nodes can still rejoin.
    fn failed(&self, m: &Marking) -> bool {
        let quarantined = self.quarantine_good.map_or(0, |p| m.tokens(p))
            + self.quarantine_bad.map_or(0, |p| m.tokens(p));
        let t = m.tokens(self.places.tm);
        let u = m.tokens(self.places.ucm);
        m.tokens(self.places.gf) > 0 || c2_holds(t, u) || (t + u == 0 && quarantined == 0)
    }
}

/// Add one GCS/IDS sub-system to `b`: the paper's 5 places and 7
/// transitions, plus the places and transitions of the scenario's
/// non-baseline axes. `suffix` is appended to every place/transition name
/// (empty for a single-system net). When `freeze_on_local_failure` is set,
/// every transition of the block is guarded off once the block's own
/// failure predicate holds — a failed cluster stops evolving (and accruing
/// cost) while the rest of a clustered system keeps running.
///
/// The scenario is resolved here, once: each rate closure is built for
/// its axis value, so the paper net's closures do no scenario work per
/// call. `cfg` is the effective configuration ([`scenario_system`]).
fn add_subsystem(
    b: &mut SpnBuilder,
    cfg: &SystemConfig,
    sc: &ScenarioConfig,
    suffix: &str,
    freeze_on_local_failure: bool,
) -> Block {
    let tm = b.add_place(format!("Tm{suffix}"), cfg.node_count);
    let ucm = b.add_place(format!("UCm{suffix}"), 0);
    let dcm = b.add_place(format!("DCm{suffix}"), 0);
    let gf = b.add_place(format!("GF{suffix}"), 0);
    let ng = b.add_place(format!("NG{suffix}"), 1);
    let places = Places {
        tm,
        ucm,
        dcm,
        gf,
        ng,
    };
    let attack_mode = matches!(sc.attacker, AttackerStrategy::Burst { .. })
        .then(|| b.add_place(format!("AM{suffix}"), 0));
    let quarantine = matches!(sc.response, ResponsePolicy::QuarantineRejoin { .. }).then(|| {
        let good = b.add_place(format!("QGm{suffix}"), 0);
        (good, b.add_place(format!("QBm{suffix}"), 0))
    });
    let pending_rekeys = matches!(sc.response, ResponsePolicy::RekeyThrottle { .. })
        .then(|| b.add_place(format!("PRm{suffix}"), 0));
    let block = Block {
        places,
        attack_mode,
        quarantine_good: quarantine.map(|q| q.0),
        quarantine_bad: quarantine.map(|q| q.1),
        pending_rekeys,
    };

    // `Block` is `Copy`, so this tiny predicate can be captured by every
    // guard below. With `freeze_on_local_failure` unset it never fires and
    // the guards are skipped entirely, leaving the single-system net
    // untouched.
    let frozen = move |m: &Marking| freeze_on_local_failure && block.failed(m);
    let guarded = |def: TransitionDef| -> TransitionDef {
        if freeze_on_local_failure {
            def.guard(move |m| !block.failed(m))
        } else {
            def
        }
    };

    // T_CP: a trusted node is compromised at the attacker rate A(mc),
    // scaled by the targeted foothold multiplier or the burst phase.
    let attacker = cfg.attacker;
    let capture = format!("T_CP{suffix}");
    let focus = sc.attacker.focus();
    let t_cp = match (sc.attacker, attack_mode) {
        (AttackerStrategy::Burst { multiplier, .. }, Some(am)) => {
            TransitionDef::timed(capture, move |m| {
                attacker.rate(m.tokens(tm), m.tokens(ucm))
                    * scenario::burst_capture_multiplier(multiplier, m.tokens(am) >= 1)
            })
        }
        _ if focus > 0.0 => TransitionDef::timed(capture, move |m| {
            let (t, u) = (m.tokens(tm), m.tokens(ucm));
            attacker.rate(t, u) * scenario::targeted_capture_multiplier(focus, t, u)
        }),
        _ => TransitionDef::timed(capture, move |m| attacker.rate(m.tokens(tm), m.tokens(ucm))),
    };
    b.add_transition(guarded(t_cp.input(tm, 1).output(ucm, 1)));

    // T_IDS / T_FA: voting IDS convicts an undetected compromised node /
    // falsely convicts a trusted one. A targeted attacker's voting error
    // probabilities also depend on the global foothold, so they are
    // computed directly; otherwise they are memoized. The convicted node
    // goes where the response policy sends it: `DCm` for evict (with a
    // queued rekey for throttle), the quarantine for quarantine.
    let (ids, fa) = (format!("T_IDS{suffix}"), format!("T_FA{suffix}"));
    let (c1, c2) = (cfg.clone(), cfg.clone());
    let (t_ids, t_fa) = if focus > 0.0 {
        (
            conviction(ids, cfg, places, true, move |pop| {
                pfn_targeted(&c1, pop, focus)
            }),
            conviction(fa, cfg, places, false, move |pop| {
                pfp_targeted(&c2, pop, focus)
            }),
        )
    } else {
        let pfn = memoized(Population::per_group_for_bad_target, move |pop| {
            pfn_for(&c1, pop)
        });
        let pfp = memoized(Population::per_group_for_good_target, move |pop| {
            pfp_for(&c2, pop)
        });
        (
            conviction(ids, cfg, places, true, pfn),
            conviction(fa, cfg, places, false, pfp),
        )
    };
    let convict =
        |def: TransitionDef, quarantine: Option<PlaceId>| match (quarantine, pending_rekeys) {
            (Some(q), _) => def.output(q, 1),
            (None, Some(pr)) => def.output(dcm, 1).output(pr, 1),
            (None, None) => def.output(dcm, 1),
        };
    b.add_transition(guarded(convict(t_ids.input(ucm, 1), block.quarantine_bad)));
    b.add_transition(guarded(convict(t_fa.input(tm, 1), block.quarantine_good)));

    // T_DRQ: an undetected compromised member obtains data (C1). The
    // responding member replies only if its host IDS misses the requester
    // (probability p1).
    let p1 = cfg.p1_host_false_negative;
    let lambda_q = cfg.group_comm_rate;
    b.add_transition(guarded(
        TransitionDef::timed(format!("T_DRQ{suffix}"), move |m| {
            p1 * lambda_q * m.tokens(ucm) as f64
        })
        .input(ucm, 1)
        .output(ucm, 1)
        .output(gf, 1),
    ));

    // T_PAR / T_MER: birth–death on the group count, rates calibrated from
    // mobility simulation. Partition requires enough members for one more
    // group.
    let nu_p = cfg.partition_rate_per_group;
    let max_groups = cfg.max_groups;
    b.add_transition(
        TransitionDef::timed(format!("T_PAR{suffix}"), move |m| {
            nu_p * m.tokens(ng) as f64
        })
        .output(ng, 1)
        .guard(move |m| {
            let g = m.tokens(ng);
            g < max_groups && m.tokens(tm) + m.tokens(ucm) > g && !frozen(m)
        }),
    );
    let nu_m = cfg.merge_rate_per_group;
    b.add_transition(
        TransitionDef::timed(format!("T_MER{suffix}"), move |m| {
            nu_m * (m.tokens(ng).saturating_sub(1)) as f64
        })
        .input(ng, 1)
        .guard(move |m| m.tokens(ng) >= 2 && !frozen(m)),
    );

    // T_RK: join/leave rekeying. State-preserving (cost-only self loop);
    // eviction and partition/merge rekeys are charged as impulse rewards on
    // their own transitions.
    let lambda = cfg.join_rate;
    let mu = cfg.leave_rate;
    let n_init = cfg.node_count;
    b.add_transition(guarded(TransitionDef::timed(
        format!("T_RK{suffix}"),
        move |m| {
            let live = m.tokens(tm) + m.tokens(ucm);
            lambda * (n_init - live.min(n_init)) as f64 + mu * live as f64
        },
    )));

    // Burst phase race: an on/off exponential switch of the attacker mode.
    if let (
        Some(am),
        AttackerStrategy::Burst {
            on_rate, off_rate, ..
        },
    ) = (attack_mode, sc.attacker)
    {
        b.add_transition(
            TransitionDef::timed_const(format!("T_BURST_ON{suffix}"), on_rate)
                .output(am, 1)
                .guard(move |m| m.tokens(am) == 0 && !frozen(m)),
        );
        b.add_transition(guarded(
            TransitionDef::timed_const(format!("T_BURST_OFF{suffix}"), off_rate).input(am, 1),
        ));
    }

    // Quarantine review outcomes: a good node rejoins, a compromised node
    // is falsely released back into the group, or it is confirmed and
    // permanently evicted.
    if let (
        Some((qg, qb)),
        ResponsePolicy::QuarantineRejoin {
            release_rate,
            false_release_prob,
        },
    ) = (quarantine, sc.response)
    {
        b.add_transition(guarded(
            TransitionDef::timed(format!("T_REL_G{suffix}"), move |m| {
                release_rate * m.tokens(qg) as f64
            })
            .input(qg, 1)
            .output(tm, 1),
        ));
        b.add_transition(guarded(
            TransitionDef::timed(format!("T_REL_B{suffix}"), move |m| {
                release_rate * false_release_prob * m.tokens(qb) as f64
            })
            .input(qb, 1)
            .output(ucm, 1),
        ));
        b.add_transition(guarded(
            TransitionDef::timed(format!("T_CONF_B{suffix}"), move |m| {
                release_rate * (1.0 - false_release_prob) * m.tokens(qb) as f64
            })
            .input(qb, 1)
            .output(dcm, 1),
        ));
    }

    // Throttled rekey service, and the stale-key window that leaks group
    // data while an excluding rekey is pending (a C1 path).
    if let (Some(pr), ResponsePolicy::RekeyThrottle { max_rate }) = (pending_rekeys, sc.response) {
        b.add_transition(guarded(
            TransitionDef::timed_const(format!("T_RKSRV{suffix}"), max_rate).input(pr, 1),
        ));
        b.add_transition(guarded(
            TransitionDef::timed(format!("T_SLK{suffix}"), move |m| {
                p1 * lambda_q * m.tokens(pr) as f64
            })
            .input(pr, 1)
            .output(pr, 1)
            .output(gf, 1),
        ));
    }

    block
}

/// A conviction transition's rate: `U · D(md) · (1 − Pfn)` for `T_IDS`
/// (`bad_target`), `T · D(md) · Pfp` for `T_FA`, with `p_err` the voting
/// error probability (`Pfn` or `Pfp`). The caller adds the arcs.
fn conviction(
    name: String,
    cfg: &SystemConfig,
    places: Places,
    bad_target: bool,
    p_err: impl Fn(&Population) -> f64 + Send + Sync + 'static,
) -> TransitionDef {
    let detection = cfg.detection;
    let n_init = cfg.node_count;
    TransitionDef::timed(name, move |m| {
        let pop = population(&places, m);
        let targets = if bad_target {
            pop.undetected
        } else {
            pop.trusted
        };
        if targets == 0 {
            return 0.0;
        }
        let d = detection.rate(n_init, pop.trusted, pop.undetected);
        if bad_target {
            pop.undetected as f64 * d * (1.0 - p_err(&pop))
        } else {
            pop.trusted as f64 * d * p_err(&pop)
        }
    })
}

/// Build the SPN of the paper's Figure 1 for a configuration:
/// [`build_scenario_model`] at the baseline scenario.
///
/// # Panics
/// Panics if the configuration fails [`SystemConfig::validate`] — call it
/// first for a recoverable error.
pub fn build_model(cfg: &SystemConfig) -> GcsIdsModel {
    build_scenario_model(cfg, &ScenarioConfig::baseline())
}

/// Build the scenario-modulated SPN for a configuration: one block, with
/// the scenario's extra places and transitions, absorbing on the block's
/// failure. At the baseline scenario this is the paper's net.
///
/// # Panics
/// Panics if the configuration or scenario fails validation — call
/// `validate()` on both first for a recoverable error.
pub fn build_scenario_model(cfg: &SystemConfig, sc: &ScenarioConfig) -> GcsIdsModel {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
    sc.validate()
        .unwrap_or_else(|e| panic!("invalid scenario: {e}"));
    let cfg = scenario_system(cfg, sc);
    let mut b = SpnBuilder::new();
    let block = add_subsystem(&mut b, &cfg, sc, "", false);

    // Global absorbing predicate: C1 or C2 (or total attrition).
    b.absorbing_when(move |m| block.failed(m));

    let net = b
        .build()
        .expect("model construction is internally consistent");
    GcsIdsModel {
        net,
        places: block.places,
        attack_mode: block.attack_mode,
        quarantine_good: block.quarantine_good,
        quarantine_bad: block.quarantine_bad,
        pending_rekeys: block.pending_rekeys,
        config: cfg,
        scenario: *sc,
    }
}

/// A clustered deployment: `topology.clusters` structurally identical
/// copies of the per-cluster sub-system in one flat net, each frozen on its
/// own failure, with the system absorbing once `topology.failure_threshold`
/// clusters have failed.
///
/// Clusters share no places and no transitions, so before system absorption
/// they evolve as independent copies of the single-cluster chain — which is
/// what makes both the symmetry lumping (clusters are interchangeable
/// members) and the hierarchical order-statistic composition in
/// [`crate::clustered`] exact.
pub struct ClusteredModel {
    /// The flat stochastic Petri net over all clusters.
    pub net: Spn,
    /// Place handles per cluster, index = cluster id.
    pub cluster_places: Vec<Places>,
    /// Per-cluster configuration snapshot (`node_count` is the cluster
    /// size; the deployment has `clusters × node_count` nodes).
    pub config: SystemConfig,
    /// Cluster count and failure threshold.
    pub topology: ClusterTopology,
}

impl ClusteredModel {
    /// Number of clusters whose local failure predicate holds in `m`.
    pub fn failed_clusters(&self, m: &Marking) -> u32 {
        self.cluster_places
            .iter()
            .filter(|p| cluster_failed(p, m))
            .count() as u32
    }
}

/// Build the flat clustered SPN for `topology` copies of `cfg`.
///
/// # Panics
/// Panics if either the per-cluster configuration or the topology fails
/// validation — call `validate()` on both first for a recoverable error.
pub fn build_clustered_model(cfg: &SystemConfig, topology: &ClusterTopology) -> ClusteredModel {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
    topology
        .validate()
        .unwrap_or_else(|e| panic!("invalid topology: {e}"));
    let mut b = SpnBuilder::new();
    let baseline = ScenarioConfig::baseline();
    let cluster_places: Vec<Places> = (0..topology.clusters)
        .map(|i| add_subsystem(&mut b, cfg, &baseline, &format!("#{i}"), true).places)
        .collect();

    let blocks = cluster_places.clone();
    let threshold = topology.failure_threshold as usize;
    b.absorbing_when(move |m| blocks.iter().filter(|p| cluster_failed(p, m)).count() >= threshold);

    let net = b
        .build()
        .expect("clustered model construction is internally consistent");
    ClusteredModel {
        net,
        cluster_places,
        config: cfg.clone(),
        topology: *topology,
    }
}

/// The member-permutation symmetry of a clustered model, as exploration
/// orbits: clusters with identical structural signatures (same place-block
/// shape and initial tokens — always all of them, since the net is built
/// from one per-cluster config) are interchangeable.
///
/// Orbits are computed with a disjoint-set union over cluster signatures,
/// so the construction stays correct if heterogeneous cluster families are
/// ever added: only structurally identical clusters end up in one orbit.
pub fn clustered_canonicalizer(model: &ClusteredModel) -> MarkingCanonicalizer {
    let init = model.net.initial_marking();
    let signature = |p: &Places| -> [u32; 5] {
        [
            init.tokens(p.tm),
            init.tokens(p.ucm),
            init.tokens(p.dcm),
            init.tokens(p.gf),
            init.tokens(p.ng),
        ]
    };
    let mut uf = UnionFind::new(model.cluster_places.len());
    let mut first_with: HashMap<[u32; 5], usize> = HashMap::new();
    for (i, p) in model.cluster_places.iter().enumerate() {
        match first_with.entry(signature(p)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                uf.union(*e.get(), i);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(i);
            }
        }
    }
    let (labels, _) = uf.component_labels();
    let mut orbits: Vec<Vec<Vec<PlaceId>>> = vec![Vec::new(); uf.component_count()];
    for (i, p) in model.cluster_places.iter().enumerate() {
        orbits[labels[i] as usize].push(vec![p.tm, p.ucm, p.dcm, p.gf, p.ng]);
    }
    MarkingCanonicalizer::new(orbits).expect("cluster blocks are disjoint by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn::reach::{explore, ExploreOptions};

    fn small_cfg() -> SystemConfig {
        let mut c = SystemConfig::paper_default();
        c.node_count = 10;
        c.vote_participants = 3;
        c
    }

    #[test]
    fn model_builds_with_paper_defaults() {
        let m = build_model(&SystemConfig::paper_default());
        assert_eq!(m.net.place_count(), 5);
        assert_eq!(m.net.transition_count(), 7);
        for t in ["T_CP", "T_IDS", "T_FA", "T_DRQ", "T_PAR", "T_MER", "T_RK"] {
            assert!(m.net.transition_by_name(t).is_some(), "missing {t}");
        }
    }

    #[test]
    fn initial_marking_matches_config() {
        let m = build_model(&small_cfg());
        let init = m.net.initial_marking();
        assert_eq!(init.tokens(m.places.tm), 10);
        assert_eq!(init.tokens(m.places.ucm), 0);
        assert_eq!(init.tokens(m.places.ng), 1);
        assert!(!m.net.is_absorbing_marking(&init));
    }

    #[test]
    fn c2_boundary_exact() {
        // U/(T+U) > 1/3 ⟺ 2U > T
        assert!(!c2_holds(2, 1)); // exactly 1/3: not a failure
        assert!(c2_holds(1, 1)); // 1/2 > 1/3
        assert!(!c2_holds(10, 5)); // exactly 1/3
        assert!(c2_holds(9, 5));
        assert!(!c2_holds(0, 0));
        assert!(c2_holds(0, 1)); // fully compromised
    }

    #[test]
    fn absorbing_on_gf_token() {
        let m = build_model(&small_cfg());
        let mut marking = m.net.initial_marking();
        marking.set_tokens(m.places.gf, 1);
        assert!(m.net.is_absorbing_marking(&marking));
    }

    #[test]
    fn reachability_is_finite_and_bounded() {
        let m = build_model(&small_cfg());
        let g = explore(&m.net, &ExploreOptions::default()).unwrap();
        // (T, U, NG, GF) with T+U ≤ 10, NG ≤ 4: comfortably small
        assert!(g.state_count() < 2_000, "{} states", g.state_count());
        assert!(g.absorbing_states().next().is_some());
        // every state conserves T + U + D = N
        for s in &g.states {
            let total = s.tokens(m.places.tm) + s.tokens(m.places.ucm) + s.tokens(m.places.dcm);
            assert_eq!(total, 10);
        }
    }

    #[test]
    fn group_count_stays_in_bounds() {
        let m = build_model(&small_cfg());
        let g = explore(&m.net, &ExploreOptions::default()).unwrap();
        for s in &g.states {
            let ngv = s.tokens(m.places.ng);
            assert!(ngv >= 1 && ngv <= m.config.max_groups, "NG = {ngv}");
        }
    }

    #[test]
    fn population_per_group_splits() {
        let pop = Population {
            trusted: 60,
            undetected: 20,
            groups: 2,
        };
        assert_eq!(pop.live(), 80);
        assert_eq!(pop.per_group_live(), 40);
        let (good_b, bad_b) = pop.per_group_for_bad_target();
        assert_eq!(bad_b, 10);
        assert_eq!(good_b, 30);
        let (good_g, bad_g) = pop.per_group_for_good_target();
        assert_eq!(good_g, 30);
        assert_eq!(bad_g, 10);
    }

    #[test]
    fn per_group_bad_target_never_zero_bad() {
        // U = 1 spread over 4 groups still leaves the target's group with
        // one bad node (the target itself).
        let pop = Population {
            trusted: 79,
            undetected: 1,
            groups: 4,
        };
        let (_, bad) = pop.per_group_for_bad_target();
        assert_eq!(bad, 1);
    }

    #[test]
    fn pfn_pfp_edge_cases() {
        let cfg = small_cfg();
        let no_bad = Population {
            trusted: 10,
            undetected: 0,
            groups: 1,
        };
        assert_eq!(pfn_for(&cfg, &no_bad), 0.0);
        assert!(pfp_for(&cfg, &no_bad) > 0.0); // pure host-IDS false alarms
        let no_good = Population {
            trusted: 0,
            undetected: 5,
            groups: 1,
        };
        assert_eq!(pfp_for(&cfg, &no_good), 0.0);
        assert!(pfn_for(&cfg, &no_good) > 0.9); // colluders protect each other
    }

    #[test]
    fn rates_positive_in_initial_state() {
        let m = build_model(&small_cfg());
        let init = m.net.initial_marking();
        let mut enabled = Vec::new();
        m.net.enabled_timed(&init, &mut enabled).unwrap();
        let names: Vec<&str> = enabled
            .iter()
            .map(|&(t, _)| m.net.transition_name(t))
            .collect();
        // At T=N, U=0: T_CP (attack), T_FA (false alarms), T_PAR, T_RK are
        // live; T_IDS and T_DRQ need U ≥ 1; T_MER needs NG ≥ 2.
        assert!(names.contains(&"T_CP"));
        assert!(names.contains(&"T_FA"));
        assert!(names.contains(&"T_PAR"));
        assert!(!names.contains(&"T_IDS"));
        assert!(!names.contains(&"T_DRQ"));
        assert!(!names.contains(&"T_MER"));
    }

    #[test]
    fn t_rk_is_cost_only_self_loop() {
        let m = build_model(&small_cfg());
        let g = explore(&m.net, &ExploreOptions::default()).unwrap();
        let t_rk = m.net.transition_by_name("T_RK").unwrap();
        // T_RK never appears as a CTMC edge, but its rate is recorded
        let on_edges = g.edges.iter().flatten().any(|e| e.transition == t_rk);
        assert!(!on_edges);
        let recorded = g.self_loop_rates.iter().flatten().any(|&(t, _)| t == t_rk);
        assert!(recorded);
    }

    #[test]
    fn higher_attack_rate_adds_no_states() {
        // structure is rate-independent
        let cfg = small_cfg();
        let mut hot = cfg.clone();
        hot.attacker.base_rate *= 100.0;
        let g1 = explore(&build_model(&cfg).net, &ExploreOptions::default()).unwrap();
        let g2 = explore(&build_model(&hot).net, &ExploreOptions::default()).unwrap();
        assert_eq!(g1.state_count(), g2.state_count());
    }
}
