//! The communication-cost model (the paper's Ĉtotal components).
//!
//! The paper defines `Ĉtotal,i = ĈGC,i + Ĉstatus,i + Ĉrekey,i + ĈIDS,i +
//! Ĉbeacon,i + Ĉmp,i` but omits the algebra; [`cost_breakdown`] and its comments
//! state the reconstruction implemented here. All quantities are **hop·bits per
//! second**: a unicast of `L` bits crossing `h` hops costs `h·L`; an
//! intra-group flood costs one transmission per member.

use crate::config::{KeyAgreementProtocol, SystemConfig};
use crate::model::Population;
use gcs::gdh::RekeyCost;
use gcs::gdh3::Gdh3Cost;

/// Per-state cost rates, hop·bits/s.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    /// Group data communication `ĈGC`.
    pub group_comm: f64,
    /// Host-IDS status exchange `Ĉstatus`.
    pub status: f64,
    /// Join/leave rekeying `Ĉrekey`.
    pub rekey: f64,
    /// Voting-IDS traffic `ĈIDS`.
    pub ids: f64,
    /// Beaconing `Ĉbeacon`.
    pub beacon: f64,
    /// Partition/merge rekeying `Ĉmp`.
    pub partition_merge: f64,
}

impl CostBreakdown {
    /// Total cost rate.
    pub fn total(&self) -> f64 {
        self.group_comm + self.status + self.rekey + self.ids + self.beacon + self.partition_merge
    }

    /// Component-wise sum.
    pub fn add(&self, o: &CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            group_comm: self.group_comm + o.group_comm,
            status: self.status + o.status,
            rekey: self.rekey + o.rekey,
            ids: self.ids + o.ids,
            beacon: self.beacon + o.beacon,
            partition_merge: self.partition_merge + o.partition_merge,
        }
    }

    /// Component-wise scaling.
    pub fn scale(&self, s: f64) -> CostBreakdown {
        CostBreakdown {
            group_comm: self.group_comm * s,
            status: self.status * s,
            rekey: self.rekey * s,
            ids: self.ids * s,
            beacon: self.beacon * s,
            partition_merge: self.partition_merge * s,
        }
    }
}

/// Hop·bits of one rekey for a group of `n_g` members under the configured
/// key agreement protocol: unicast elements cross the mean hop count, the
/// broadcast elements flood the group.
pub fn gdh_rekey_hop_bits(cfg: &SystemConfig, group_size: u32) -> f64 {
    if group_size <= 1 {
        return 0.0;
    }
    let (unicast_elements, broadcast_elements) = match cfg.key_agreement {
        KeyAgreementProtocol::Gdh2 => {
            let cost = RekeyCost::for_group_size(group_size as usize);
            let bcast = (group_size - 1) as u64;
            (cost.total_elements - bcast, bcast)
        }
        KeyAgreementProtocol::Gdh3 => {
            let cost = Gdh3Cost::for_group_size(group_size as usize);
            (
                cost.total_elements - cost.broadcast_elements,
                cost.broadcast_elements,
            )
        }
    };
    let unicast_bits = (unicast_elements * cfg.key_element_bits) as f64;
    let bcast_bits = (broadcast_elements * cfg.key_element_bits) as f64;
    unicast_bits * cfg.mean_hops + bcast_bits * group_size as f64
}

/// Effective join/leave rekey-event rate under the optional batch window:
/// Poisson events at rate `r` aggregated into one GDH run per busy window
/// of length `W` renew at rate `r / (1 + r·W)` (a renewal cycle is one
/// exponential inter-event gap plus the window).
pub fn effective_rekey_rate(raw_rate: f64, batch_window: Option<f64>) -> f64 {
    match batch_window {
        None => raw_rate,
        Some(w) => raw_rate / (1.0 + raw_rate * w),
    }
}

/// Per-state cost rates in the given population state.
pub fn cost_breakdown(cfg: &SystemConfig, pop: &Population) -> CostBreakdown {
    let n = pop.live() as f64;
    if n == 0.0 {
        return CostBreakdown::default();
    }
    let g = pop.groups as f64;
    let n_g = pop.per_group_live();
    let n_g_f = n_g as f64;
    let flood = n_g_f; // one transmission per group member

    // Group data dissemination: n senders × λq × flood cost.
    let group_comm = cfg.group_comm_rate * n * cfg.data_packet_bits as f64 * flood;

    // Periodic status exchange feeding host IDS.
    let status = n * cfg.status_packet_bits as f64 * flood / cfg.status_period;

    // Join/leave rekeying (evictions and partition/merge are charged where
    // they fire).
    let n_init = cfg.node_count as f64;
    let join_leave_rate = cfg.join_rate * (n_init - n).max(0.0) + cfg.leave_rate * n;
    let rekey = effective_rekey_rate(join_leave_rate, cfg.batch_rekey_interval)
        * gdh_rekey_hop_bits(cfg, n_g);

    // Voting IDS: every live node is evaluated at rate D(md); each
    // evaluation makes m voters flood their vote within the group so every
    // member can independently verify the majority tally (Byzantine
    // accountability — a unicast tally could be forged by a compromised
    // collector).
    let d = cfg
        .detection
        .rate(cfg.node_count, pop.trusted, pop.undetected);
    let m_eff = cfg.vote_participants.min(n_g.saturating_sub(1)) as f64;
    let ids = d * n * m_eff * cfg.vote_packet_bits as f64 * flood;

    // One-hop beacons.
    let beacon = n * cfg.beacon_bits as f64 / cfg.beacon_period;

    // Partition/merge: a partition rekeys the two fragments, a merge rekeys
    // the combined group.
    let partition_rate = cfg.partition_rate_per_group * g;
    let merge_rate = if pop.groups >= 2 {
        cfg.merge_rate_per_group * (g - 1.0)
    } else {
        0.0
    };
    let half = (n_g / 2).max(1);
    let partition_merge = partition_rate * 2.0 * gdh_rekey_hop_bits(cfg, half)
        + merge_rate * gdh_rekey_hop_bits(cfg, (2 * n_g).min(pop.live()));

    CostBreakdown {
        group_comm,
        status,
        rekey,
        ids,
        beacon,
        partition_merge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::paper_default()
    }

    fn full_pop() -> Population {
        Population {
            trusted: 100,
            undetected: 0,
            groups: 1,
        }
    }

    #[test]
    fn total_is_sum_of_components() {
        let b = cost_breakdown(&cfg(), &full_pop());
        let s = b.group_comm + b.status + b.rekey + b.ids + b.beacon + b.partition_merge;
        assert!((b.total() - s).abs() < 1e-9);
        assert!(b.total() > 0.0);
    }

    #[test]
    fn empty_population_costs_nothing() {
        let b = cost_breakdown(
            &cfg(),
            &Population {
                trusted: 0,
                undetected: 0,
                groups: 1,
            },
        );
        assert_eq!(b.total(), 0.0);
    }

    #[test]
    fn group_comm_dominates_at_paper_defaults() {
        // λq = 1/min over 100 nodes with 8-kbit packets flooded to the
        // whole group dwarfs beacons and votes.
        let b = cost_breakdown(&cfg(), &full_pop());
        assert!(b.group_comm > b.beacon);
        assert!(b.group_comm > b.ids);
    }

    #[test]
    fn shorter_tids_raises_ids_cost_only() {
        let base = cost_breakdown(&cfg(), &full_pop());
        let fast = cost_breakdown(&cfg().with_tids(5.0), &full_pop());
        assert!(fast.ids > base.ids * 10.0);
        assert!((fast.group_comm - base.group_comm).abs() < 1e-9);
        assert!((fast.beacon - base.beacon).abs() < 1e-9);
    }

    #[test]
    fn more_vote_participants_cost_more() {
        let b3 = cost_breakdown(&cfg().with_vote_participants(3), &full_pop());
        let b9 = cost_breakdown(&cfg().with_vote_participants(9), &full_pop());
        assert!(b9.ids > b3.ids * 2.5);
    }

    #[test]
    fn fewer_members_less_group_comm() {
        let all = cost_breakdown(&cfg(), &full_pop());
        let half = cost_breakdown(
            &cfg(),
            &Population {
                trusted: 50,
                undetected: 0,
                groups: 1,
            },
        );
        // flood factor also shrinks: quadratic effect
        assert!(half.group_comm < all.group_comm / 3.0);
    }

    #[test]
    fn partition_reduces_gc_but_adds_mp() {
        let one = cost_breakdown(&cfg(), &full_pop());
        let two = cost_breakdown(
            &cfg(),
            &Population {
                trusted: 100,
                undetected: 0,
                groups: 2,
            },
        );
        assert!(two.group_comm < one.group_comm);
        assert!(two.partition_merge > one.partition_merge);
    }

    #[test]
    fn gdh_hop_bits_zero_for_singleton() {
        assert_eq!(gdh_rekey_hop_bits(&cfg(), 1), 0.0);
        assert_eq!(gdh_rekey_hop_bits(&cfg(), 0), 0.0);
        assert!(gdh_rekey_hop_bits(&cfg(), 2) > 0.0);
    }

    #[test]
    fn gdh_hop_bits_grow_superlinearly() {
        let c = cfg();
        let g10 = gdh_rekey_hop_bits(&c, 10);
        let g20 = gdh_rekey_hop_bits(&c, 20);
        assert!(g20 > 2.5 * g10, "{g20} vs {g10}");
    }

    #[test]
    fn breakdown_algebra() {
        let b = cost_breakdown(&cfg(), &full_pop());
        let doubled = b.add(&b);
        assert!((doubled.total() - 2.0 * b.total()).abs() < 1e-9);
        let scaled = b.scale(0.5);
        assert!((scaled.total() - 0.5 * b.total()).abs() < 1e-9);
    }

    #[test]
    fn gdh3_pricing_cheaper_for_large_groups() {
        let mut c2 = cfg();
        c2.key_agreement = KeyAgreementProtocol::Gdh2;
        let mut c3 = cfg();
        c3.key_agreement = KeyAgreementProtocol::Gdh3;
        // In raw field elements GDH.3 is O(n) vs GDH.2's O(n²), but its
        // final broadcast still floods n−1 elements to n members, so in
        // hop·bits the saving at n = 100 is ~2×, not element-proportional.
        let g2 = gdh_rekey_hop_bits(&c2, 100);
        let g3 = gdh_rekey_hop_bits(&c3, 100);
        assert!(g3 < g2 / 1.5, "GDH.3 {g3:.3e} vs GDH.2 {g2:.3e}");
        // still zero for singleton groups
        assert_eq!(gdh_rekey_hop_bits(&c3, 1), 0.0);
    }

    #[test]
    fn batch_window_reduces_rekey_component_only() {
        let immediate = cost_breakdown(&cfg(), &full_pop());
        let mut batched_cfg = cfg();
        batched_cfg.batch_rekey_interval = Some(600.0);
        let batched = cost_breakdown(&batched_cfg, &full_pop());
        assert!(batched.rekey < immediate.rekey);
        assert_eq!(batched.group_comm, immediate.group_comm);
        assert_eq!(batched.ids, immediate.ids);
    }

    #[test]
    fn effective_rekey_rate_limits() {
        // no window: identity
        assert_eq!(effective_rekey_rate(0.02, None), 0.02);
        // long window: rate approaches 1/W
        let r = effective_rekey_rate(10.0, Some(100.0));
        assert!((r - 0.01).abs() < 1e-3, "{r}");
        // tiny window: barely changes
        let r = effective_rekey_rate(0.001, Some(1.0));
        assert!((r - 0.001).abs() < 1e-5);
        // zero rate stays zero
        assert_eq!(effective_rekey_rate(0.0, Some(10.0)), 0.0);
    }

    #[test]
    fn vote_participants_capped_by_group_size() {
        // tiny group: m capped at n_g − 1
        let pop = Population {
            trusted: 4,
            undetected: 0,
            groups: 1,
        };
        let b9 = cost_breakdown(&cfg().with_vote_participants(9), &pop);
        let b3 = cost_breakdown(&cfg().with_vote_participants(3), &pop);
        assert_eq!(b9.ids, b3.ids);
    }
}
