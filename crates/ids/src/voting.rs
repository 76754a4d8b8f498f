//! Voting-based IDS: executable voting rounds and the exact analytic
//! false-positive / false-negative probabilities (the paper's Equation 1).
//!
//! # The analytic model
//!
//! A target is judged by `m` vote participants drawn uniformly *without
//! replacement* from the other group members. With `G` good and `B` bad
//! (compromised, undetected) members and majority threshold
//! `M = ⌈m/2⌉`:
//!
//! * **False positive** (good target evicted): the `k` bad voters collude
//!   and always vote *evict*; each of the `m − k` good voters errs with
//!   probability `p2`:
//!   `Pfp = Σ_k Hyp(k; m, B, G−1+B) · P[k + Bin(m−k, p2) ≥ M]`
//! * **False negative** (bad target kept): bad voters vote *keep*; good
//!   voters correctly vote *evict* with probability `1 − p1`:
//!   `Pfn = Σ_k Hyp(k; m, B−1, G+B−1) · P[Bin(m−k, 1−p1) < M]`
//!
//! When fewer than `m` voters exist, all of them vote (the draw is capped);
//! when **no** voter exists the protocol cannot evict anyone (`Pfp = 0`,
//! `Pfn = 1`).

use crate::host::HostIds;
use numerics::dist::{Binomial, Hypergeometric};
use rand::seq::SliceRandom;
use rand::Rng;

/// Majority threshold `⌈m/2⌉` (the paper's `N_majority`).
pub fn majority_threshold(m: u32) -> u32 {
    m.div_ceil(2)
}

/// Effective number of voters: `m` capped by the available population.
fn effective_m(m: u32, available: u32) -> u32 {
    m.min(available)
}

/// Exact probability that a **good** target is evicted (false positive of
/// the voting IDS), given `good` good and `bad` bad members in the group.
///
/// # Panics
/// Panics if `p2` is outside `[0, 1]` or `good == 0` (no good target can
/// exist).
pub fn p_false_positive(good: u32, bad: u32, m: u32, p2: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p2), "p2 = {p2} outside [0,1]");
    assert!(good >= 1, "a good target requires at least one good node");
    let voters_pop = good - 1 + bad; // everyone but the target
    let m_eff = effective_m(m, voters_pop);
    if m_eff == 0 {
        return 0.0; // nobody can vote → nobody is evicted
    }
    let majority = majority_threshold(m_eff);
    let hyp = Hypergeometric::new(voters_pop as u64, bad as u64, m_eff as u64);
    let mut total = 0.0;
    for k in hyp.support_min()..=hyp.support_max() {
        let p_k = hyp.pmf(k);
        if p_k == 0.0 {
            continue;
        }
        let good_voters = m_eff as u64 - k;
        let needed = (majority as u64).saturating_sub(k);
        let p_evict = if needed == 0 {
            1.0 // colluding voters alone reach the majority
        } else {
            Binomial::new(good_voters, p2).sf_inclusive(needed)
        };
        total += p_k * p_evict;
    }
    total.clamp(0.0, 1.0)
}

/// Exact probability that a **bad** target survives the vote (false
/// negative of the voting IDS).
///
/// # Panics
/// Panics if `p1` is outside `[0, 1]` or `bad == 0` (no bad target can
/// exist).
pub fn p_false_negative(good: u32, bad: u32, m: u32, p1: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p1), "p1 = {p1} outside [0,1]");
    assert!(bad >= 1, "a bad target requires at least one bad node");
    let voters_pop = good + bad - 1;
    let m_eff = effective_m(m, voters_pop);
    if m_eff == 0 {
        return 1.0; // nobody can vote → the bad node survives
    }
    let majority = majority_threshold(m_eff);
    let hyp = Hypergeometric::new(voters_pop as u64, (bad - 1) as u64, m_eff as u64);
    let mut total = 0.0;
    for k in hyp.support_min()..=hyp.support_max() {
        let p_k = hyp.pmf(k);
        if p_k == 0.0 {
            continue;
        }
        let good_voters = m_eff as u64 - k;
        // Evicted iff good evict-votes reach the majority (bad voters all
        // vote keep). Survives otherwise.
        let p_evict = if good_voters < majority as u64 {
            0.0
        } else {
            Binomial::new(good_voters, 1.0 - p1).sf_inclusive(majority as u64)
        };
        total += p_k * (1.0 - p_evict);
    }
    total.clamp(0.0, 1.0)
}

/// Configuration of an executable voting round.
#[derive(Debug, Clone, Copy)]
pub struct VotingConfig {
    /// Designed number of vote participants `m`.
    pub participants: u32,
    /// Host IDS installed on every node.
    pub host: HostIds,
}

/// Result of one voting round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteOutcome {
    /// Whether the target was evicted.
    pub evicted: bool,
    /// Evict votes cast.
    pub evict_votes: u32,
    /// Total votes cast (the effective `m`).
    pub votes: u32,
    /// Number of compromised voters among the participants.
    pub colluding_voters: u32,
}

/// Execute a single voting round on a target.
///
/// `peers_compromised[i]` is the ground truth for each *non-target* member;
/// `target_compromised` for the target. Colluding (compromised) voters vote
/// to evict good targets and to keep bad targets; good voters follow their
/// host IDS assessment.
pub fn run_vote<R: Rng + ?Sized>(
    cfg: &VotingConfig,
    target_compromised: bool,
    peers_compromised: &[bool],
    rng: &mut R,
) -> VoteOutcome {
    let mut idx: Vec<usize> = (0..peers_compromised.len()).collect();
    idx.shuffle(rng);
    let m_eff = effective_m(cfg.participants, peers_compromised.len() as u32);
    let majority = majority_threshold(m_eff);
    let mut evict_votes = 0u32;
    let mut colluders = 0u32;
    for &voter in idx.iter().take(m_eff as usize) {
        if peers_compromised[voter] {
            colluders += 1;
            // collusion: protect bad targets, attack good ones
            if !target_compromised {
                evict_votes += 1;
            }
        } else if cfg.host.assess(target_compromised, rng) {
            evict_votes += 1;
        }
    }
    VoteOutcome {
        evicted: m_eff > 0 && evict_votes >= majority,
        evict_votes,
        votes: m_eff,
        colluding_voters: colluders,
    }
}

/// Monte-Carlo estimate of (`Pfp`, `Pfn`) used to validate the closed
/// forms: runs `rounds` votes against a good target and `rounds` against a
/// bad target in a population with the given composition.
// detlint::allow(U001): executed-vote oracle of substrate_integration::analytic_voting_matches_executed_votes_at_spn_populations
pub fn estimate_error_rates<R: Rng + ?Sized>(
    cfg: &VotingConfig,
    good: u32,
    bad: u32,
    rounds: u32,
    rng: &mut R,
) -> (f64, f64) {
    assert!(
        good >= 1 && bad >= 1,
        "need both populations for the estimate"
    );
    // good target: peers are good-1 good + bad bad
    let mut peers_good_target: Vec<bool> = Vec::new();
    peers_good_target.extend(std::iter::repeat_n(false, (good - 1) as usize));
    peers_good_target.extend(std::iter::repeat_n(true, bad as usize));
    // bad target: peers are good good + bad-1 bad
    let mut peers_bad_target: Vec<bool> = Vec::new();
    peers_bad_target.extend(std::iter::repeat_n(false, good as usize));
    peers_bad_target.extend(std::iter::repeat_n(true, (bad - 1) as usize));

    let mut fp = 0u32;
    let mut fnn = 0u32;
    for _ in 0..rounds {
        if run_vote(cfg, false, &peers_good_target, rng).evicted {
            fp += 1;
        }
        if !run_vote(cfg, true, &peers_bad_target, rng).evicted {
            fnn += 1;
        }
    }
    (fp as f64 / rounds as f64, fnn as f64 / rounds as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn majority_matches_paper() {
        // ⌈m/2⌉: the paper's N_majority
        assert_eq!(majority_threshold(3), 2);
        assert_eq!(majority_threshold(5), 3);
        assert_eq!(majority_threshold(7), 4);
        assert_eq!(majority_threshold(9), 5);
        assert_eq!(majority_threshold(4), 2);
        assert_eq!(majority_threshold(1), 1);
    }

    #[test]
    fn no_bad_nodes_fp_is_binomial_tail() {
        // With zero colluders Pfp = P[Bin(m, p2) ≥ ⌈m/2⌉]
        let p2 = 0.01;
        for m in [3u32, 5, 7, 9] {
            let exact = p_false_positive(50, 0, m, p2);
            let tail = Binomial::new(m as u64, p2).sf_inclusive(majority_threshold(m) as u64);
            assert!((exact - tail).abs() < 1e-14, "m={m}");
        }
    }

    #[test]
    fn all_voters_bad_always_evict_good_target() {
        // good=1 (just the target), bad=10: every voter colludes
        let p = p_false_positive(1, 10, 5, 0.01);
        assert!((p - 1.0).abs() < 1e-12);
        // and a bad target always survives when all voters are its allies
        let pn = p_false_negative(0, 11, 5, 0.01);
        assert!((pn - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_host_ids_no_collusion() {
        // p2 = 0, no bad nodes → no false positives
        assert_eq!(p_false_positive(30, 0, 5, 0.0), 0.0);
        // p1 = 0, one bad target, no other bad → always caught
        assert_eq!(p_false_negative(30, 1, 5, 0.0), 0.0);
    }

    #[test]
    fn no_voters_edge_case() {
        // group of exactly one good node: no voters for a good target
        assert_eq!(p_false_positive(1, 0, 5, 0.01), 0.0);
        // group of one bad node: no voters → it survives
        assert_eq!(p_false_negative(0, 1, 5, 0.01), 1.0);
    }

    #[test]
    fn fp_increases_with_collusion() {
        let mut last = 0.0;
        for bad in [0u32, 2, 4, 8, 16] {
            let p = p_false_positive(40, bad, 5, 0.01);
            assert!(p >= last - 1e-15, "bad={bad}: {p} < {last}");
            last = p;
        }
    }

    #[test]
    fn fn_increases_with_collusion() {
        let mut last = 0.0;
        for bad in [1u32, 3, 6, 12, 20] {
            let p = p_false_negative(40, bad, 5, 0.01);
            assert!(p >= last - 1e-15, "bad={bad}: {p} < {last}");
            last = p;
        }
    }

    #[test]
    fn larger_m_reduces_false_alarms_under_light_collusion() {
        // The paper's Figure 2 argument: with few colluders, larger m →
        // smaller Pfp + Pfn.
        let (good, bad) = (90u32, 4u32);
        let alarm = |m| p_false_positive(good, bad, m, 0.01) + p_false_negative(good, bad, m, 0.01);
        let a3 = alarm(3);
        let a5 = alarm(5);
        let a7 = alarm(7);
        let a9 = alarm(9);
        assert!(a3 > a5 && a5 > a7 && a7 > a9, "{a3} {a5} {a7} {a9}");
    }

    #[test]
    fn closed_form_matches_monte_carlo() {
        let cfg = VotingConfig {
            participants: 5,
            host: HostIds::new(0.05, 0.08),
        };
        let (good, bad) = (12u32, 5u32);
        let mut rng = StdRng::seed_from_u64(77);
        let (fp_mc, fn_mc) = estimate_error_rates(&cfg, good, bad, 60_000, &mut rng);
        let fp = p_false_positive(good, bad, 5, 0.08);
        let fnn = p_false_negative(good, bad, 5, 0.05);
        assert!((fp - fp_mc).abs() < 0.01, "fp {fp} vs mc {fp_mc}");
        assert!((fnn - fn_mc).abs() < 0.01, "fn {fnn} vs mc {fn_mc}");
    }

    #[test]
    fn vote_outcome_counts_consistent() {
        let cfg = VotingConfig {
            participants: 5,
            host: HostIds::paper_default(),
        };
        let peers = vec![false, false, true, false, true, false, false];
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let o = run_vote(&cfg, true, &peers, &mut rng);
            assert_eq!(o.votes, 5);
            assert!(o.evict_votes <= o.votes);
            assert!(o.colluding_voters <= o.votes);
        }
    }

    #[test]
    fn vote_with_fewer_peers_than_m() {
        let cfg = VotingConfig {
            participants: 9,
            host: HostIds::paper_default(),
        };
        let peers = vec![false, false, false];
        let mut rng = StdRng::seed_from_u64(4);
        let o = run_vote(&cfg, true, &peers, &mut rng);
        assert_eq!(o.votes, 3);
    }

    #[test]
    fn vote_with_no_peers_never_evicts() {
        let cfg = VotingConfig {
            participants: 5,
            host: HostIds::paper_default(),
        };
        let mut rng = StdRng::seed_from_u64(5);
        let o = run_vote(&cfg, true, &[], &mut rng);
        assert!(!o.evicted);
        assert_eq!(o.votes, 0);
    }

    #[test]
    #[should_panic]
    fn fp_requires_a_good_node() {
        p_false_positive(0, 3, 5, 0.01);
    }

    #[test]
    #[should_panic]
    fn fn_requires_a_bad_node() {
        p_false_negative(3, 0, 5, 0.01);
    }
}

/// Collusion behavior of compromised vote participants.
///
/// The paper assumes *full* collusion — every compromised voter always
/// votes to evict good targets and keep bad ones. Real adversaries may act
/// maliciously only sometimes to avoid exposure; `Probabilistic(q)` votes
/// maliciously with probability `q` and honestly (through the same host
/// IDS as a good node) otherwise. `Full` is `Probabilistic(1.0)`, `None`
/// is `Probabilistic(0.0)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CollusionModel {
    /// Compromised voters always vote maliciously (the paper's model).
    Full,
    /// Compromised voters vote maliciously with the given probability and
    /// honestly otherwise.
    Probabilistic(f64),
    /// Compromised voters behave like honest voters (no collusion).
    None,
}

impl CollusionModel {
    /// Probability of a malicious vote.
    ///
    /// # Panics
    /// Panics if a probabilistic model holds a value outside `[0, 1]`.
    pub fn malice_probability(&self) -> f64 {
        match *self {
            CollusionModel::Full => 1.0,
            CollusionModel::None => 0.0,
            CollusionModel::Probabilistic(q) => {
                assert!(
                    (0.0..=1.0).contains(&q),
                    "collusion probability {q} outside [0,1]"
                );
                q
            }
        }
    }
}

/// `P[Bin(n1, p1') + Bin(n2, p2') ≥ threshold]` by exact convolution over
/// the smaller support.
fn sum_binomial_tail(n1: u64, p1: f64, n2: u64, p2: f64, threshold: u64) -> f64 {
    if threshold == 0 {
        return 1.0;
    }
    let b1 = Binomial::new(n1, p1);
    let b2 = Binomial::new(n2, p2);
    let mut total = 0.0;
    for k in 0..=n1 {
        let pk = b1.pmf(k);
        if pk == 0.0 {
            continue;
        }
        let need = threshold.saturating_sub(k);
        let tail = if need == 0 {
            1.0
        } else {
            b2.sf_inclusive(need)
        };
        total += pk * tail;
    }
    total.min(1.0)
}

/// [`p_false_positive`] generalized to a partial-collusion adversary: a
/// compromised voter attacks a good target with probability `q` and
/// otherwise assesses honestly (erring with `p2` like a good voter).
///
/// With `q = 1` this equals [`p_false_positive`].
///
/// # Panics
/// Panics on invalid probabilities or `good == 0`.
pub fn p_false_positive_with_collusion(
    good: u32,
    bad: u32,
    m: u32,
    p2: f64,
    collusion: CollusionModel,
) -> f64 {
    assert!((0.0..=1.0).contains(&p2), "p2 = {p2} outside [0,1]");
    assert!(good >= 1, "a good target requires at least one good node");
    let q = collusion.malice_probability();
    // A colluding voter evicts w.p. q + (1−q)·p2 (malice, or honest error).
    let p_bad_votes_evict = q + (1.0 - q) * p2;
    let voters_pop = good - 1 + bad;
    let m_eff = m.min(voters_pop);
    if m_eff == 0 {
        return 0.0;
    }
    let majority = majority_threshold(m_eff) as u64;
    let hyp = Hypergeometric::new(voters_pop as u64, bad as u64, m_eff as u64);
    let mut total = 0.0;
    for k in hyp.support_min()..=hyp.support_max() {
        let pk = hyp.pmf(k);
        if pk == 0.0 {
            continue;
        }
        total += pk * sum_binomial_tail(k, p_bad_votes_evict, m_eff as u64 - k, p2, majority);
    }
    total.clamp(0.0, 1.0)
}

/// [`p_false_negative`] generalized to a partial-collusion adversary: a
/// compromised voter shields a bad target with probability `q` and
/// otherwise assesses honestly (detecting with `1 − p1`).
///
/// With `q = 1` this equals [`p_false_negative`].
///
/// # Panics
/// Panics on invalid probabilities or `bad == 0`.
pub fn p_false_negative_with_collusion(
    good: u32,
    bad: u32,
    m: u32,
    p1: f64,
    collusion: CollusionModel,
) -> f64 {
    assert!((0.0..=1.0).contains(&p1), "p1 = {p1} outside [0,1]");
    assert!(bad >= 1, "a bad target requires at least one bad node");
    let q = collusion.malice_probability();
    // A colluding voter evicts a bad target w.p. (1−q)(1−p1).
    let p_bad_votes_evict = (1.0 - q) * (1.0 - p1);
    let voters_pop = good + bad - 1;
    let m_eff = m.min(voters_pop);
    if m_eff == 0 {
        return 1.0;
    }
    let majority = majority_threshold(m_eff) as u64;
    let hyp = Hypergeometric::new(voters_pop as u64, (bad - 1) as u64, m_eff as u64);
    let mut total = 0.0;
    for k in hyp.support_min()..=hyp.support_max() {
        let pk = hyp.pmf(k);
        if pk == 0.0 {
            continue;
        }
        let p_evict = sum_binomial_tail(k, p_bad_votes_evict, m_eff as u64 - k, 1.0 - p1, majority);
        total += pk * (1.0 - p_evict);
    }
    total.clamp(0.0, 1.0)
}

/// Execute a voting round under a partial-collusion adversary (the
/// simulation-facing counterpart of the `_with_collusion` formulas).
///
/// `voter_order` is scratch for the shuffled peer order; a simulator keeps
/// one for all its votes, so a vote allocates nothing once the buffer has
/// grown to the group size. Its contents on entry are ignored.
pub fn run_vote_with_collusion<R: Rng + ?Sized>(
    cfg: &VotingConfig,
    target_compromised: bool,
    peers_compromised: &[bool],
    collusion: CollusionModel,
    voter_order: &mut Vec<usize>,
    rng: &mut R,
) -> VoteOutcome {
    let q = collusion.malice_probability();
    let idx = voter_order;
    idx.clear();
    idx.extend(0..peers_compromised.len());
    idx.shuffle(rng);
    let m_eff = effective_m(cfg.participants, peers_compromised.len() as u32);
    let majority = majority_threshold(m_eff);
    let mut evict_votes = 0u32;
    let mut colluders = 0u32;
    for &voter in idx.iter().take(m_eff as usize) {
        if peers_compromised[voter] {
            colluders += 1;
            if rng.gen::<f64>() < q {
                // malicious vote: protect bad, attack good
                if !target_compromised {
                    evict_votes += 1;
                }
                continue;
            }
        }
        if cfg.host.assess(target_compromised, rng) {
            evict_votes += 1;
        }
    }
    VoteOutcome {
        evicted: m_eff > 0 && evict_votes >= majority,
        evict_votes,
        votes: m_eff,
        colluding_voters: colluders,
    }
}

#[cfg(test)]
mod collusion_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_collusion_reduces_to_base_formulas() {
        for &(g, b, m) in &[(20u32, 5u32, 5u32), (40, 10, 7), (10, 1, 3)] {
            let fp = p_false_positive(g, b, m, 0.01);
            let fp_c = p_false_positive_with_collusion(g, b, m, 0.01, CollusionModel::Full);
            assert!((fp - fp_c).abs() < 1e-12, "Pfp at ({g},{b},{m})");
            let fnn = p_false_negative(g, b, m, 0.01);
            let fn_c = p_false_negative_with_collusion(g, b, m, 0.01, CollusionModel::Full);
            assert!((fnn - fn_c).abs() < 1e-12, "Pfn at ({g},{b},{m})");
        }
    }

    #[test]
    fn no_collusion_equals_all_honest_population() {
        // with q = 0 the bad voters behave exactly like good ones, so the
        // composition no longer matters
        let fp_mixed = p_false_positive_with_collusion(20, 10, 5, 0.02, CollusionModel::None);
        let fp_pure = p_false_positive(30, 0, 5, 0.02);
        assert!((fp_mixed - fp_pure).abs() < 1e-12);
        // a bad target with honest voters is caught like any bad target
        // judged by an all-good electorate
        let fn_mixed = p_false_negative_with_collusion(20, 10, 5, 0.02, CollusionModel::None);
        let fn_pure = p_false_negative(29, 1, 5, 0.02);
        assert!((fn_mixed - fn_pure).abs() < 1e-12);
    }

    #[test]
    fn error_rates_monotone_in_collusion_probability() {
        let mut last_fp = 0.0;
        let mut last_fn = 0.0;
        for i in 0..=10 {
            let quot = i as f64 / 10.0;
            let c = CollusionModel::Probabilistic(quot);
            let fp = p_false_positive_with_collusion(30, 8, 5, 0.01, c);
            let fnn = p_false_negative_with_collusion(30, 8, 5, 0.01, c);
            assert!(fp >= last_fp - 1e-12, "Pfp not monotone at q={quot}");
            assert!(fnn >= last_fn - 1e-12, "Pfn not monotone at q={quot}");
            last_fp = fp;
            last_fn = fnn;
        }
    }

    #[test]
    fn partial_collusion_matches_monte_carlo() {
        let cfg = VotingConfig {
            participants: 5,
            host: HostIds::new(0.05, 0.08),
        };
        let collusion = CollusionModel::Probabilistic(0.4);
        let (good, bad) = (15u32, 6u32);
        let mut rng = StdRng::seed_from_u64(404);
        let rounds = 60_000;
        let mut peers_good: Vec<bool> = vec![false; (good - 1) as usize];
        peers_good.extend(std::iter::repeat_n(true, bad as usize));
        let mut peers_bad: Vec<bool> = vec![false; good as usize];
        peers_bad.extend(std::iter::repeat_n(true, (bad - 1) as usize));
        let mut fp = 0u32;
        let mut fnn = 0u32;
        let mut order = Vec::new();
        for _ in 0..rounds {
            if run_vote_with_collusion(&cfg, false, &peers_good, collusion, &mut order, &mut rng)
                .evicted
            {
                fp += 1;
            }
            if !run_vote_with_collusion(&cfg, true, &peers_bad, collusion, &mut order, &mut rng)
                .evicted
            {
                fnn += 1;
            }
        }
        let fp_mc = fp as f64 / rounds as f64;
        let fn_mc = fnn as f64 / rounds as f64;
        let fp_a = p_false_positive_with_collusion(good, bad, 5, 0.08, collusion);
        let fn_a = p_false_negative_with_collusion(good, bad, 5, 0.05, collusion);
        assert!(
            (fp_a - fp_mc).abs() < 0.01,
            "Pfp {fp_a:.4} vs MC {fp_mc:.4}"
        );
        assert!(
            (fn_a - fn_mc).abs() < 0.01,
            "Pfn {fn_a:.4} vs MC {fn_mc:.4}"
        );
    }

    #[test]
    fn sum_binomial_tail_degenerate_cases() {
        // threshold 0 is certain
        assert_eq!(sum_binomial_tail(3, 0.5, 3, 0.5, 0), 1.0);
        // impossible threshold
        assert!(sum_binomial_tail(2, 0.5, 2, 0.5, 5) < 1e-12);
        // reduces to a single binomial when one side is empty
        let direct = Binomial::new(6, 0.3).sf_inclusive(4);
        assert!((sum_binomial_tail(0, 0.9, 6, 0.3, 4) - direct).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn invalid_collusion_probability_panics() {
        CollusionModel::Probabilistic(1.5).malice_probability();
    }
}
