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
//! | `T_IDS` | `UCm → DCm` | `(U · D(md)) · (1 − Pfn)` |
//! | `T_FA`  | `Tm → DCm` | `(T · D(md)) · Pfp` |
//! | `T_DRQ` | token into `GF` | `p1 · λq · U` |
//! | `T_PAR` | `NG += 1` | `ν_p · NG` |
//! | `T_MER` | `NG −= 1` | `ν_m · (NG − 1)` |
//! | `T_RK`  | none (cost-only) | join/leave rekey event rate |
//!
//! Each rate reads only a few places, and each transition declares them
//! ([`TransitionDef::reads`]): `T_CP` and `T_RK` read `Tm` and `UCm`,
//! `T_DRQ` reads `UCm`, `T_PAR` and `T_MER` read `NG`. `T_IDS` and `T_FA`
//! are products of two keyed factors ([`TransitionDef::timed_product`],
//! bracketed in the table): the target count times `D(md)`, which reads
//! `Tm` and `UCm`, and the voting factor, keyed by the target group's
//! (good, bad) split (by `Tm`, `UCm` and `NG` under a targeted attacker,
//! whose voting error also reads the foothold). A template then evaluates
//! each factor once per distinct key ([`spn::reach::RatePlan`]): at
//! N = 100, about 1 700 splits per voting factor where the population
//! (`Tm`, `UCm`, `NG`) takes about 6 600 values.
//!
//! Every transition is disabled once a failure condition holds (the global
//! absorbing predicate): **C1** `mark(GF) > 0` (data leaked to a
//! compromised member) or **C2** `U/(T+U) > 1/3` (Byzantine capture),
//! checked exactly as `2U > T` in integers.

use crate::config::{ClusterTopology, SystemConfig};
use crate::memo::MemoTable;
use crate::scenario_model::scenario_system;
use ids::voting::{
    p_false_negative_with_collusion, p_false_positive_with_collusion, CollusionModel,
};
use scenario::{AttackerStrategy, ResponsePolicy, ScenarioConfig};
use spn::model::{Marking, PlaceId, RateFactor, Spn, SpnBuilder, TransitionDef};
use spn::reach::MarkingCanonicalizer;
use std::sync::Arc;

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

/// The C2 Byzantine condition `U/(T+U) > 1/3`, evaluated exactly. The
/// SPN tests it on the population; both DES drivers test it per group.
pub fn c2_holds(trusted: u32, undetected: u32) -> bool {
    2 * undetected > trusted
}

/// Voting false-negative probability `Pfn` in the given population state.
// detlint::allow(U001): unmemoized oracle of metrics::tests::template_matches_fresh_evaluation_across_rate_knobs
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
// detlint::allow(U001): unmemoized oracle of metrics::tests::template_matches_fresh_evaluation_across_rate_knobs
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

/// Which voting error probability a memo holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VotingSide {
    /// `Pfn`, on a bad target's group split.
    FalseNegative,
    /// `Pfp`, on a good target's group split.
    FalsePositive,
}

/// Everything a voting error probability without a targeted attacker
/// reads besides the target group's (good, bad) split. The voting
/// functions read the collusion model only through its malice probability
/// q. `node_count` and `max_groups` change no value; they keep each memo
/// to one structural family's splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VotingKey {
    side: VotingSide,
    vote_participants: u32,
    /// The host-IDS error rate, as bits: p1 for `Pfn`, p2 for `Pfp`.
    host_error: u64,
    /// The collusion model's malice probability q, as bits.
    malice: u64,
    node_count: u32,
    max_groups: u32,
}

impl VotingKey {
    fn new(cfg: &SystemConfig, side: VotingSide) -> Self {
        let host_error = match side {
            VotingSide::FalseNegative => cfg.p1_host_false_negative,
            VotingSide::FalsePositive => cfg.p2_host_false_positive,
        };
        Self {
            side,
            vote_participants: cfg.vote_participants,
            host_error: host_error.to_bits(),
            malice: cfg.collusion.malice_probability().to_bits(),
            node_count: cfg.node_count,
            max_groups: cfg.max_groups,
        }
    }

    /// The target group's (good, bad) split in `pop`.
    fn split(&self, pop: &Population) -> (u32, u32) {
        match self.side {
            VotingSide::FalseNegative => pop.per_group_for_bad_target(),
            VotingSide::FalsePositive => pop.per_group_for_good_target(),
        }
    }

    /// The voting error probability on a split, computed from the key
    /// alone.
    fn probability(&self, (good, bad): (u32, u32)) -> f64 {
        let p = f64::from_bits(self.host_error);
        let collusion = CollusionModel::Probabilistic(f64::from_bits(self.malice));
        match self.side {
            VotingSide::FalseNegative => {
                p_false_negative_with_collusion(good, bad, self.vote_participants, p, collusion)
            }
            VotingSide::FalsePositive => {
                p_false_positive_with_collusion(good, bad, self.vote_participants, p, collusion)
            }
        }
    }
}

/// The voting memos every net built in this process shares.
static VOTING_MEMOS: MemoTable<VotingKey> = MemoTable::new();

/// A voting error probability, memoized on the target group's (good, bad)
/// split. Without a targeted attacker the probability depends on nothing
/// else but the key's fields, and the split collapses the many (T, U, NG)
/// markings onto a handful of pairs, so repeated rate evaluations
/// (exploration, re-weighting, simulation) pay the log-space voting math
/// once per pair — and once per pair across every net of the same key,
/// since the memo comes from `table`. Building the closure takes the
/// table's lock once; a call costs a lock-free probe.
fn memoized(
    table: &MemoTable<VotingKey>,
    cfg: &SystemConfig,
    side: VotingSide,
) -> impl Fn(&Population) -> f64 + Send + Sync + 'static {
    let key = VotingKey::new(cfg, side);
    let memo = table.get(key);
    move |pop| {
        let split = key.split(pop);
        memo.get_or_insert_with(split, || key.probability(split))
    }
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
            .reads(&[tm, ucm, am])
        }
        _ if focus > 0.0 => TransitionDef::timed(capture, move |m| {
            let (t, u) = (m.tokens(tm), m.tokens(ucm));
            attacker.rate(t, u) * scenario::targeted_capture_multiplier(focus, t, u)
        })
        .reads(&[tm, ucm]),
        _ => TransitionDef::timed(capture, move |m| attacker.rate(m.tokens(tm), m.tokens(ucm)))
            .reads(&[tm, ucm]),
    };
    b.add_transition(guarded(t_cp.input(tm, 1).output(ucm, 1)));

    // T_IDS / T_FA: voting IDS convicts an undetected compromised node /
    // falsely convicts a trusted one. A targeted attacker's voting error
    // probabilities also depend on the global foothold, so they are
    // computed directly; otherwise they are memoized. The convicted node
    // goes where the response policy sends it: `DCm` for evict (with a
    // queued rekey for throttle), the quarantine for quarantine.
    let (ids, fa) = (format!("T_IDS{suffix}"), format!("T_FA{suffix}"));
    let detection = detection_table(cfg);
    let (t_ids, t_fa) = if focus > 0.0 {
        // The targeted voting error also reads the global foothold: key
        // the voting factor by the whole population.
        let (c1, c2) = (cfg.clone(), cfg.clone());
        let reads = [tm, ucm, ng];
        let pfn = voting_factor(places, true, move |pop| pfn_targeted(&c1, pop, focus));
        let pfp = voting_factor(places, false, move |pop| pfp_targeted(&c2, pop, focus));
        (
            conviction(
                ids,
                &detection,
                places,
                true,
                RateFactor::reads(&reads, pfn),
            ),
            conviction(
                fa,
                &detection,
                places,
                false,
                RateFactor::reads(&reads, pfp),
            ),
        )
    } else {
        let memoized_factor = |side| split_keyed(&VOTING_MEMOS, cfg, side, places);
        (
            conviction(
                ids,
                &detection,
                places,
                true,
                memoized_factor(VotingSide::FalseNegative),
            ),
            conviction(
                fa,
                &detection,
                places,
                false,
                memoized_factor(VotingSide::FalsePositive),
            ),
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
        .reads(&[ucm])
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
        .reads(&[ng])
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
        .reads(&[ng])
        .input(ng, 1)
        .guard(move |m| m.tokens(ng) >= 2 && !frozen(m)),
    );

    // T_RK: join/leave rekeying. State-preserving (cost-only self loop);
    // eviction and partition/merge rekeys are charged as impulse rewards on
    // their own transitions.
    let lambda = cfg.join_rate;
    let mu = cfg.leave_rate;
    let n_init = cfg.node_count;
    b.add_transition(guarded(
        TransitionDef::timed(format!("T_RK{suffix}"), move |m| {
            let live = m.tokens(tm) + m.tokens(ucm);
            lambda * (n_init - live.min(n_init)) as f64 + mu * live as f64
        })
        .reads(&[tm, ucm]),
    ));

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
                .reads(&[])
                .output(am, 1)
                .guard(move |m| m.tokens(am) == 0 && !frozen(m)),
        );
        b.add_transition(guarded(
            TransitionDef::timed_const(format!("T_BURST_OFF{suffix}"), off_rate)
                .reads(&[])
                .input(am, 1),
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
            .reads(&[qg])
            .input(qg, 1)
            .output(tm, 1),
        ));
        b.add_transition(guarded(
            TransitionDef::timed(format!("T_REL_B{suffix}"), move |m| {
                release_rate * false_release_prob * m.tokens(qb) as f64
            })
            .reads(&[qb])
            .input(qb, 1)
            .output(ucm, 1),
        ));
        b.add_transition(guarded(
            TransitionDef::timed(format!("T_CONF_B{suffix}"), move |m| {
                release_rate * (1.0 - false_release_prob) * m.tokens(qb) as f64
            })
            .reads(&[qb])
            .input(qb, 1)
            .output(dcm, 1),
        ));
    }

    // Throttled rekey service, and the stale-key window that leaks group
    // data while an excluding rekey is pending (a C1 path).
    if let (Some(pr), ResponsePolicy::RekeyThrottle { max_rate }) = (pending_rekeys, sc.response) {
        b.add_transition(guarded(
            TransitionDef::timed_const(format!("T_RKSRV{suffix}"), max_rate)
                .reads(&[])
                .input(pr, 1),
        ));
        b.add_transition(guarded(
            TransitionDef::timed(format!("T_SLK{suffix}"), move |m| {
                p1 * lambda_q * m.tokens(pr) as f64
            })
            .reads(&[pr])
            .input(pr, 1)
            .output(pr, 1)
            .output(gf, 1),
        ));
    }

    block
}

/// The detection rate `D(md)` of every live count `T + U` in `1..=N`,
/// indexed by the live count: `md = N / (T + U)` depends on nothing else.
/// Entry 0 is never read (a conviction needs a target) and holds NaN.
fn detection_table(cfg: &SystemConfig) -> Arc<[f64]> {
    let n = cfg.node_count;
    std::iter::once(f64::NAN)
        .chain((1..=n).map(|live| cfg.detection.rate(n, live, 0)))
        .collect()
}

/// The number of nodes a conviction can target: `U` for `T_IDS`
/// (`bad_target`), `T` for `T_FA`.
fn targets(pop: &Population, bad_target: bool) -> u32 {
    if bad_target {
        pop.undetected
    } else {
        pop.trusted
    }
}

/// A conviction transition: `T_IDS` (`bad_target`) convicts an
/// undetected compromised node at `U · D(md) · (1 − Pfn)`, `T_FA` a
/// trusted one at `T · D(md) · Pfp`. The rate is the product, left to
/// right, of two factors: the target count times `D(md)` (read from
/// [`detection_table`]), which reads `Tm` and `UCm`, and the `voting`
/// factor ([`voting_factor`]) with its own key. The caller adds the arcs.
fn conviction<F: Fn(&Marking) -> f64 + Send + Sync + 'static>(
    name: String,
    detection: &Arc<[f64]>,
    places: Places,
    bad_target: bool,
    voting: RateFactor<F>,
) -> TransitionDef {
    let detection = Arc::clone(detection);
    let count = RateFactor::reads(&[places.tm, places.ucm], move |m| {
        let pop = population(&places, m);
        let n = targets(&pop, bad_target);
        if n == 0 {
            return 0.0;
        }
        n as f64 * detection[pop.live() as usize]
    });
    TransitionDef::timed_product(name, count, voting)
}

/// The voting factor of a conviction: `1 − Pfn` for a bad target, `Pfp`
/// for a good one, with `p_err` the voting error probability; 0 without a
/// target.
fn voting_factor(
    places: Places,
    bad_target: bool,
    p_err: impl Fn(&Population) -> f64 + Send + Sync + 'static,
) -> impl Fn(&Marking) -> f64 + Send + Sync + 'static {
    move |m| {
        let pop = population(&places, m);
        match targets(&pop, bad_target) {
            0 => 0.0,
            _ if bad_target => 1.0 - p_err(&pop),
            _ => p_err(&pop),
        }
    }
}

/// The memoized voting factor of one side, keyed by the target group's
/// (good, bad) split: all that the voting error reads without a targeted
/// attacker.
fn split_keyed(
    table: &MemoTable<VotingKey>,
    cfg: &SystemConfig,
    side: VotingSide,
    places: Places,
) -> RateFactor<impl Fn(&Marking) -> f64 + Send + Sync + 'static> {
    let key = VotingKey::new(cfg, side);
    let bad_target = side == VotingSide::FalseNegative;
    let split = move |m: &Marking| {
        let pop = population(&places, m);
        if targets(&pop, bad_target) == 0 {
            // No real split has an empty group.
            return [0; 4];
        }
        let (good, bad) = key.split(&pop);
        [good, bad, 0, 0]
    };
    RateFactor::keyed(
        split,
        voting_factor(places, bad_target, memoized(table, cfg, side)),
    )
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

/// The member-permutation symmetry of a clustered model: one orbit whose
/// members are every cluster's `[Tm, UCm, DCm, GF, NG]` block. The net is
/// built from one per-cluster config, so the clusters are structurally
/// identical and any permutation of them is a net automorphism.
pub fn clustered_canonicalizer(model: &ClusteredModel) -> MarkingCanonicalizer {
    let members = (model.cluster_places.iter())
        .map(|p| vec![p.tm, p.ucm, p.dcm, p.gf, p.ng])
        .collect();
    MarkingCanonicalizer::new(members).expect("cluster blocks are disjoint by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use spn::reach::{explore, ExploreOptions, RatePlan, ReachabilityGraph};

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
    fn shared_voting_memos_match_the_formulas_on_the_paper_graph() {
        let cfg = SystemConfig::paper_default();
        let model = build_model(&cfg);
        let graph = explore(&model.net, &ExploreOptions::default()).unwrap();
        for side in [VotingSide::FalseNegative, VotingSide::FalsePositive] {
            let key = VotingKey::new(&cfg, side);
            // One population per (good, bad) split a conviction rate reads.
            let splits: std::collections::BTreeMap<(u32, u32), Population> = (graph.states.iter())
                .map(|m| population(&model.places, m))
                .filter(|pop| match side {
                    VotingSide::FalseNegative => pop.undetected > 0,
                    VotingSide::FalsePositive => pop.trusted > 0,
                })
                .map(|pop| (key.split(&pop), pop))
                .collect();
            assert!(splits.len() > 1000, "{side:?}: {} splits", splits.len());
            let shared = memoized(&VOTING_MEMOS, &cfg, side);
            for ((good, bad), pop) in splits {
                let direct = match side {
                    VotingSide::FalseNegative => p_false_negative_with_collusion(
                        good,
                        bad,
                        cfg.vote_participants,
                        cfg.p1_host_false_negative,
                        cfg.collusion,
                    ),
                    VotingSide::FalsePositive => p_false_positive_with_collusion(
                        good,
                        bad,
                        cfg.vote_participants,
                        cfg.p2_host_false_positive,
                        cfg.collusion,
                    ),
                };
                // The first call may compute or find the value, the second
                // finds it.
                for _ in 0..2 {
                    assert_eq!(
                        shared(&pop).to_bits(),
                        direct.to_bits(),
                        "{side:?} ({good}, {bad})"
                    );
                }
            }
        }
    }

    #[test]
    fn equal_voting_keys_share_one_memo_and_any_field_splits_it() {
        let table = MemoTable::new();
        let cfg = SystemConfig::paper_default();
        let key = VotingKey::new(&cfg, VotingSide::FalseNegative);
        let memo = table.get(key);
        assert!(Arc::ptr_eq(&memo, &table.get(key)));
        // p2 is not read by Pfn
        let mut other_p2 = cfg.clone();
        other_p2.p2_host_false_positive = 0.2;
        let same = table.get(VotingKey::new(&other_p2, VotingSide::FalseNegative));
        assert!(Arc::ptr_eq(&memo, &same));
        let changed = [
            VotingKey {
                side: VotingSide::FalsePositive,
                ..key
            },
            VotingKey {
                vote_participants: key.vote_participants + 2,
                ..key
            },
            VotingKey {
                host_error: 0.02f64.to_bits(),
                ..key
            },
            VotingKey {
                malice: 0.5f64.to_bits(),
                ..key
            },
            VotingKey {
                node_count: key.node_count + 1,
                ..key
            },
            VotingKey {
                max_groups: key.max_groups + 1,
                ..key
            },
        ];
        for k in changed {
            assert_ne!(k, key);
            assert!(!Arc::ptr_eq(&memo, &table.get(k)), "{k:?}");
        }
    }

    #[test]
    fn a_full_voting_table_rebuilds_its_oldest_memo_with_equal_values() {
        use crate::memo::TABLE_CAPACITY;
        let table = MemoTable::new();
        let cfg = SystemConfig::paper_default();
        let first = table.get(VotingKey::new(&cfg, VotingSide::FalseNegative));
        let pfn = memoized(&table, &cfg, VotingSide::FalseNegative);
        let pops: Vec<Population> = (1..=30)
            .map(|undetected| Population {
                trusted: 100 - 2 * undetected,
                undetected,
                groups: 1 + undetected % 4,
            })
            .collect();
        let before: Vec<u64> = pops.iter().map(|p| pfn(p).to_bits()).collect();
        let others = |i: u32| {
            let mut c = cfg.clone();
            c.node_count = 200 + i;
            VotingKey::new(&c, VotingSide::FalseNegative)
        };
        for i in 1..TABLE_CAPACITY as u32 {
            table.get(others(i));
        }
        let kept = table.get(VotingKey::new(&cfg, VotingSide::FalseNegative));
        assert!(Arc::ptr_eq(&first, &kept), "16 keys fit");
        table.get(others(TABLE_CAPACITY as u32));
        let rebuilt = table.get(VotingKey::new(&cfg, VotingSide::FalseNegative));
        assert!(
            !Arc::ptr_eq(&first, &rebuilt),
            "the 17th key drops the first"
        );
        // The closure built before the drop keeps its memo; a new one
        // starts cold; both give the same bits.
        let cold = memoized(&table, &cfg, VotingSide::FalseNegative);
        for (pop, bits) in pops.iter().zip(&before) {
            assert_eq!(pfn(pop).to_bits(), *bits);
            assert_eq!(cold(pop).to_bits(), *bits);
        }
    }

    /// The two rate-knob points of the key-honesty check: every system
    /// rate, shape and voting knob differs between them, the structure
    /// (`N`, `max_groups`) does not.
    fn knob_points(node_count: u32) -> [SystemConfig; 2] {
        let mut a = small_cfg();
        a.node_count = node_count;
        a.attacker.base_rate = 1.0 / 600.0;
        let mut b = a.with_vote_participants(2).with_tids(45.0);
        b.attacker.base_rate *= 3.0;
        b.attacker.shape = ids::functions::RateShape::Polynomial;
        b.detection.shape = ids::functions::RateShape::Logarithmic;
        b.p1_host_false_negative = 0.05;
        b.p2_host_false_positive = 0.02;
        b.collusion = CollusionModel::Probabilistic(0.6);
        b.group_comm_rate *= 2.0;
        b.join_rate *= 1.5;
        b.leave_rate *= 0.5;
        b.partition_rate_per_group *= 4.0;
        b.merge_rate_per_group *= 0.5;
        [a, b]
    }

    /// Explore `nets` at both knob points; the plan of each exploration,
    /// applied with the other point's net, must give that point's own
    /// exploration bit for bit. Each edge and self-loop then carries the
    /// rate at its key's representative, and the fresh exploration the
    /// rate at its own state: a transition that reads a place it does not
    /// declare gives two states of one key different rates and fails here.
    fn assert_declared_keys_are_honest(name: &str, nets: [Spn; 2], opts: &ExploreOptions) {
        let graphs = nets.each_ref().map(|net| explore(net, opts).unwrap());
        assert_eq!(graphs[0].states, graphs[1].states, "{name}: structure");
        let bits = |g: &ReachabilityGraph| {
            let edges: Vec<u64> = g.edges.iter().flatten().map(|e| e.rate.to_bits()).collect();
            let loops: Vec<u64> = (g.self_loop_rates.iter().flatten())
                .map(|&(_, r)| r.to_bits())
                .collect();
            (edges, loops, g.absorbing.clone())
        };
        for (from, to) in [(0, 1), (1, 0)] {
            let plan = RatePlan::new(&graphs[from], &nets[from]);
            assert!(plan.key_count() > 0);
            // The conviction rates, and only they, are keyed per factor:
            // their voting factors' keys are checked here too.
            let factored: std::collections::BTreeSet<&str> = (plan.factor_key_counts())
                .filter(|&(_, factor, keys)| factor == 1 && keys > 0)
                .map(|(t, _, _)| nets[from].transition_name(t))
                .collect();
            assert!(
                !factored.is_empty()
                    && (factored.iter()).all(|n| n.starts_with("T_IDS") || n.starts_with("T_FA")),
                "{name}: factored {factored:?}"
            );
            let mut working = graphs[from].clone();
            plan.apply(&nets[to], &mut working).unwrap();
            assert!(bits(&working) == bits(&graphs[to]), "{name}: {from} → {to}");
        }
    }

    #[test]
    fn declared_rate_keys_are_honest_on_every_net() {
        let opts = ExploreOptions::default();
        let [a, b] = knob_points(10);
        assert_declared_keys_are_honest("paper", [build_model(&a).net, build_model(&b).net], &opts);
        let with = |attacker, response| ScenarioConfig { attacker, response };
        let axes = [
            (
                "burst",
                with(
                    AttackerStrategy::Burst {
                        on_rate: 1.0 / 5_000.0,
                        off_rate: 1.0 / 3_000.0,
                        multiplier: 6.0,
                    },
                    ResponsePolicy::Evict,
                ),
            ),
            (
                "targeted",
                with(
                    AttackerStrategy::Targeted { focus: 0.7 },
                    ResponsePolicy::Evict,
                ),
            ),
            (
                "stealth",
                with(
                    AttackerStrategy::Stealth {
                        rate_factor: 0.5,
                        evasion: 0.3,
                    },
                    ResponsePolicy::Evict,
                ),
            ),
            (
                "quarantine",
                with(
                    AttackerStrategy::Baseline,
                    ResponsePolicy::QuarantineRejoin {
                        release_rate: 1.0 / 600.0,
                        false_release_prob: 0.2,
                    },
                ),
            ),
            (
                "throttle",
                with(
                    AttackerStrategy::Baseline,
                    ResponsePolicy::RekeyThrottle {
                        max_rate: 1.0 / 300.0,
                    },
                ),
            ),
        ];
        for (name, sc) in axes {
            let nets = [&a, &b].map(|cfg| build_scenario_model(cfg, &sc).net);
            assert_declared_keys_are_honest(name, nets, &opts);
        }
        // Three lumped clusters of five nodes: the keys read each block's
        // own places on the canonical representatives.
        let [a, b] = knob_points(5);
        let topology = ClusterTopology {
            clusters: 3,
            failure_threshold: 2,
        };
        let models = [&a, &b].map(|cfg| build_clustered_model(cfg, &topology));
        let lumped = ExploreOptions {
            lumping: Some(clustered_canonicalizer(&models[0])),
            ..Default::default()
        };
        assert_declared_keys_are_honest("clustered", models.map(|m| m.net), &lumped);
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
