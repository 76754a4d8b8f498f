//! Reachability-graph generation with vanishing-marking elimination.
//!
//! Exploration is a breadth-first walk over *tangible* markings (markings in
//! which no immediate transition is enabled). When firing a timed transition
//! leads to a vanishing marking, the chain of immediate firings is resolved
//! on the fly — probabilities split by immediate weights — until tangible
//! markings are reached, and the timed rate is distributed over them. The
//! result is directly a CTMC over tangible states.
//!
//! Self-loop edges (marking unchanged after firing) carry no information for
//! the CTMC and are dropped, but their rates are retained per state in
//! [`ReachabilityGraph::self_loop_rates`] so cost-only transitions (the
//! paper's `T_RK` rekeying transition) can still contribute to reward
//! accounting.

use crate::error::SpnError;
use crate::model::{Marking, PlaceId, Spn, TransitionId};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Symmetry-lumping canonicalizer: maps every marking to a canonical
/// representative of its orbit under permutations of indistinguishable
/// *member blocks*.
///
/// An orbit is a set of members that may be freely exchanged; each member is
/// an ordered list of places (the member's private sub-marking), and every
/// member of one orbit has the same block shape. Canonicalization sorts the
/// member token-tuples of each orbit lexicographically, so two markings that
/// differ only by a permutation of members inside an orbit map to the same
/// representative.
///
/// Exploring with a canonicalizer (see [`ExploreOptions::lumping`]) builds
/// the reachability graph directly over the lumped quotient chain. This is
/// **exact** (strong lumpability) precisely when the permutations are net
/// automorphisms: every rate, guard, and arc must be symmetric under
/// exchanging two members of an orbit. The canonicalizer cannot check that —
/// the model builder supplying the orbits is responsible for it.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkingCanonicalizer {
    /// orbit → member → place indices (all members of an orbit share a
    /// length).
    orbits: Vec<Vec<Vec<u32>>>,
}

impl MarkingCanonicalizer {
    /// Build a canonicalizer from orbits of interchangeable member blocks.
    ///
    /// # Errors
    /// [`SpnError::InvalidModel`] when an orbit has members of differing
    /// lengths, an empty member, or a place occurs in more than one member
    /// (sorting would then be ill-defined).
    pub fn new(orbits: Vec<Vec<Vec<PlaceId>>>) -> Result<Self, SpnError> {
        let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut compiled = Vec::with_capacity(orbits.len());
        for orbit in &orbits {
            let len = orbit.first().map_or(0, Vec::len);
            if len == 0 && !orbit.is_empty() {
                return Err(SpnError::InvalidModel(
                    "lumping orbit has an empty member block".into(),
                ));
            }
            let mut members = Vec::with_capacity(orbit.len());
            for member in orbit {
                if member.len() != len {
                    return Err(SpnError::InvalidModel(
                        "lumping orbit members must share one block shape".into(),
                    ));
                }
                let mut block = Vec::with_capacity(len);
                for p in member {
                    let idx = p.index() as u32;
                    if !seen.insert(idx) {
                        return Err(SpnError::InvalidModel(format!(
                            "place {idx} appears in more than one lumping member"
                        )));
                    }
                    block.push(idx);
                }
                members.push(block);
            }
            compiled.push(members);
        }
        Ok(Self { orbits: compiled })
    }

    /// Number of orbits (including degenerate single-member ones).
    pub fn orbit_count(&self) -> usize {
        self.orbits.len()
    }

    /// Total member blocks across all orbits.
    pub fn member_count(&self) -> usize {
        self.orbits.iter().map(Vec::len).sum()
    }

    /// True when no orbit has ≥ 2 members, i.e. canonicalization is the
    /// identity map and lumping cannot shrink anything.
    pub fn is_trivial(&self) -> bool {
        self.orbits.iter().all(|o| o.len() < 2)
    }

    /// Canonical representative of `m`'s symmetry orbit: member token-tuples
    /// sorted lexicographically within each orbit, all other places
    /// untouched. Idempotent.
    pub fn canonicalize(&self, m: &Marking) -> Marking {
        let mut tokens: Vec<u32> = m.as_slice().to_vec();
        for orbit in &self.orbits {
            if orbit.len() < 2 {
                continue;
            }
            let mut tuples: Vec<Vec<u32>> = orbit
                .iter()
                .map(|block| block.iter().map(|&p| tokens[p as usize]).collect())
                .collect();
            tuples.sort_unstable();
            for (block, tuple) in orbit.iter().zip(&tuples) {
                for (&p, &v) in block.iter().zip(tuple) {
                    tokens[p as usize] = v;
                }
            }
        }
        Marking::new(tokens)
    }
}

/// Exploration limits and (optional) symmetry lumping.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Maximum number of tangible states to generate.
    pub max_states: usize,
    /// Maximum length of an immediate-transition chain before declaring a
    /// vanishing loop.
    pub max_vanishing_depth: usize,
    /// When set, [`explore`] interns only canonical representatives, building
    /// the graph over the lumped quotient chain. Exactness requires the
    /// orbit permutations to be net automorphisms; see
    /// [`MarkingCanonicalizer`].
    pub lumping: Option<MarkingCanonicalizer>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self {
            max_states: 2_000_000,
            max_vanishing_depth: 64,
            lumping: None,
        }
    }
}

/// One CTMC edge of the reachability graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Target tangible state index.
    pub target: u32,
    /// Exponential rate of the move.
    pub rate: f64,
    /// The timed transition whose firing produced this edge (immediate
    /// resolution keeps the originating timed transition).
    pub transition: TransitionId,
}

/// The tangible reachability graph / CTMC skeleton of a net.
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    /// Tangible markings, index = state id; state 0 is the initial marking
    /// (or its tangible resolution).
    pub states: Vec<Marking>,
    /// Outgoing edges per state.
    pub edges: Vec<Vec<Edge>>,
    /// Summed rate of dropped self-loop edges per state, by transition.
    pub self_loop_rates: Vec<Vec<(TransitionId, f64)>>,
    /// Initial probability distribution over states (a point mass unless the
    /// initial marking was vanishing and split probabilistically).
    pub initial_distribution: Vec<(u32, f64)>,
    /// `true` for states where the net's global absorbing predicate holds or
    /// no transition is enabled.
    pub absorbing: Vec<bool>,
}

impl ReachabilityGraph {
    /// Number of tangible states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Total number of CTMC edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Indices of absorbing states.
    pub fn absorbing_states(&self) -> impl Iterator<Item = usize> + '_ {
        self.absorbing
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i)
    }

    /// Exit rate (sum of outgoing edge rates) of a state.
    pub fn exit_rate(&self, state: usize) -> f64 {
        self.edges[state].iter().map(|e| e.rate).sum()
    }

    /// Re-weight every edge and self-loop in place from `net`'s *current*
    /// timed-rate functions, without re-exploring the state space.
    ///
    /// This is the engine behind explore-once-solve-many sweeps: the state
    /// space of the Cho–Chen net depends only on structural parameters
    /// (`N`, `max_groups`), while the detection interval, attacker
    /// intensity, vote-participant count and rate shapes only change the
    /// *rates*. For such rate-only variations the graph explored once can
    /// be re-weighted instead of re-running the full breadth-first
    /// interning walk.
    ///
    /// For each tangible state `s` and timed transition `t`, the total rate
    /// mass recorded at exploration time (the sum over `t`'s edges out of
    /// `s` plus any retained self-loop rate) equals `rate_t(s)` of the net
    /// that was explored; each edge holds its share of that mass (1 unless
    /// vanishing markings split the firing probabilistically). Re-weighting
    /// rescales every share by `new_rate / old_mass`, which preserves the
    /// vanishing-resolution probabilities — exact whenever the immediate
    /// weight *ratios* are unchanged (trivially true for nets without
    /// immediate transitions, like the GCS model).
    ///
    /// Per state the cost is one call of each enabled transition's rate
    /// function plus a walk over the state's edges and self-loops. The
    /// per-transition masses and new rates live in two dense arrays indexed
    /// by [`TransitionId`], allocated once per call and reset only at the
    /// slots a state touched; the enabled set goes into one reused buffer.
    ///
    /// # Errors
    /// * [`SpnError::InvalidModel`] if `net` enables a timed transition with
    ///   positive rate in a state where the explored graph recorded no mass
    ///   for it (the variation is structural; re-explore instead), or if
    ///   `net` refers to a transition id outside this graph's vocabulary.
    /// * [`SpnError::BadRate`] from misbehaving rate functions.
    pub fn reweight_in_place(&mut self, net: &Spn) -> Result<(), SpnError> {
        // Dense per-transition scratch of (explored mass, new rate). Both
        // start at 0.0, which reads exactly like "no entry": a transition
        // without positive mass can neither gain rate nor keep any.
        let mut scratch = vec![(0.0_f64, 0.0_f64); net.transition_count()];
        let mut enabled: Vec<(TransitionId, f64)> = Vec::new();
        for s in 0..self.states.len() {
            // Edges first, then self-loops: the summation order of a mass.
            let shares = self.edges[s]
                .iter()
                .map(|e| (e.transition, e.rate))
                .chain(self.self_loop_rates[s].iter().copied());
            for (t, r) in shares {
                // A graph explored from another net may carry transition
                // ids past `net`'s vocabulary; grow the scratch to cover
                // them.
                if t.index() >= scratch.len() {
                    scratch.resize(t.index() + 1, (0.0, 0.0));
                }
                scratch[t.index()].0 += r;
            }
            let marking = &self.states[s];
            net.enabled_timed(marking, &mut enabled)?;
            for &(t, r) in &enabled {
                let slot = &mut scratch[t.index()];
                if slot.0 > 0.0 {
                    slot.1 = r;
                } else {
                    return Err(SpnError::InvalidModel(format!(
                        "reweight: transition {} gained rate {r} in state {s} \
                         where the explored graph has no mass for it; \
                         the change is structural — re-explore",
                        net.transition_name(t)
                    )));
                }
            }
            // Transitions not enabled now have rate zero (disabled-by-rate);
            // their edges keep the graph's structure but contribute no CTMC
            // mass. A transition whose mass is already zero (zeroed by a
            // previous re-weight) stays zero — guarding the division avoids
            // 0/0 → NaN on repeated re-weighting. (It cannot be revived
            // either: its probability split is lost, and a positive new rate
            // is rejected by the check above.)
            //
            // An edge carrying its transition's *entire* mass (no vanishing
            // split — the only case in the GCS net) takes the new rate
            // verbatim: `rate * (new / mass)` double-rounds and would leave
            // a re-weighted graph one ULP off the same graph explored
            // fresh, breaking bit-identical template-cache replays.
            let reweight = |rate: &mut f64, t: TransitionId| {
                let (mass, target) = scratch[t.index()];
                if mass > 0.0 {
                    if *rate == mass {
                        *rate = target;
                    } else {
                        *rate *= target / mass;
                    }
                } else {
                    *rate = 0.0;
                }
            };
            for e in &mut self.edges[s] {
                reweight(&mut e.rate, e.transition);
            }
            for sl in &mut self.self_loop_rates[s] {
                reweight(&mut sl.1, sl.0);
            }
            // Reset only the slots this state touched: every enabled
            // transition has mass here, so its slot is among them.
            let touched = self.edges[s]
                .iter()
                .map(|e| e.transition)
                .chain(self.self_loop_rates[s].iter().map(|&(t, _)| t));
            for t in touched {
                scratch[t.index()] = (0.0, 0.0);
            }
            // A rate that drops to zero can silence every remaining edge of
            // a state, making it absorbing for CTMC purposes.
            self.absorbing[s] =
                net.is_absorbing_marking(marking) || self.edges[s].iter().all(|e| e.rate <= 0.0);
        }
        Ok(())
    }

    /// Reset this graph's rate-bearing parts (edge rates, self-loop rates,
    /// absorbing flags) from a structurally identical `pristine` graph,
    /// reusing every allocation. This is the scratch-reset step of a
    /// rebuild-free sweep: a working copy is re-armed from the explored
    /// graph before each [`ReachabilityGraph::reweight_in_place`], so rate
    /// families that zero a transition at one grid point can still revive
    /// it at the next (re-weighting always starts from the explored mass,
    /// never from an already-zeroed one).
    ///
    /// # Panics
    /// Panics if the state counts differ (the graphs are not copies of one
    /// structure).
    pub fn copy_rates_from(&mut self, pristine: &ReachabilityGraph) {
        assert_eq!(
            self.state_count(),
            pristine.state_count(),
            "copy_rates_from requires structurally identical graphs"
        );
        self.edges.clone_from(&pristine.edges);
        self.self_loop_rates.clone_from(&pristine.self_loop_rates);
        self.absorbing.clone_from(&pristine.absorbing);
    }
}

/// Resolution of one (possibly vanishing) marking into tangible successors
/// with probabilities.
fn resolve_to_tangible(
    net: &Spn,
    start: Marking,
    opts: &ExploreOptions,
) -> Result<Vec<(Marking, f64)>, SpnError> {
    // Depth-limited probabilistic expansion of immediate chains.
    let mut tangible: Vec<(Marking, f64)> = Vec::new();
    let mut frontier: Vec<(Marking, f64, usize)> = vec![(start, 1.0, 0)];
    while let Some((m, prob, depth)) = frontier.pop() {
        let immediates = net.enabled_immediate(&m)?;
        if immediates.is_empty() {
            tangible.push((m, prob));
            continue;
        }
        if depth >= opts.max_vanishing_depth {
            return Err(SpnError::VanishingLoop {
                marking: format!("{m:?}"),
            });
        }
        let total_w: f64 = immediates.iter().map(|&(_, w)| w).sum();
        for (t, w) in immediates {
            let next = net.fire(t, &m);
            frontier.push((next, prob * w / total_w, depth + 1));
        }
    }
    // Merge duplicates. A BTreeMap keeps the merged order a pure function
    // of the markings themselves: for nets with immediate transitions this
    // order feeds state interning, so hash order here would leak into
    // every downstream index.
    let mut merged: std::collections::BTreeMap<Marking, f64> = std::collections::BTreeMap::new();
    for (m, p) in tangible {
        *merged.entry(m).or_insert(0.0) += p;
    }
    Ok(merged.into_iter().collect())
}

/// Explore the tangible reachability graph of `net`.
///
/// # Errors
/// * [`SpnError::StateSpaceExceeded`] when `opts.max_states` is hit.
/// * [`SpnError::VanishingLoop`] on unbounded immediate chains.
/// * [`SpnError::BadRate`] when a rate/weight function misbehaves.
pub fn explore(net: &Spn, opts: &ExploreOptions) -> Result<ReachabilityGraph, SpnError> {
    let mut index: HashMap<Marking, u32> = HashMap::new();
    let mut states: Vec<Marking> = Vec::new();
    let mut edges: Vec<Vec<Edge>> = Vec::new();
    let mut self_loops: Vec<Vec<(TransitionId, f64)>> = Vec::new();
    let mut queue: VecDeque<u32> = VecDeque::new();

    let mut intern = |m: Marking,
                      states: &mut Vec<Marking>,
                      edges: &mut Vec<Vec<Edge>>,
                      self_loops: &mut Vec<Vec<(TransitionId, f64)>>,
                      queue: &mut VecDeque<u32>|
     -> Result<u32, SpnError> {
        if let Some(&id) = index.get(&m) {
            return Ok(id);
        }
        if states.len() >= opts.max_states {
            return Err(SpnError::StateSpaceExceeded {
                cap: opts.max_states,
            });
        }
        let id = states.len() as u32;
        index.insert(m.clone(), id);
        states.push(m);
        edges.push(Vec::new());
        self_loops.push(Vec::new());
        queue.push_back(id);
        Ok(id)
    };

    // Under lumping, only canonical orbit representatives are interned; the
    // walk then explores the quotient chain directly.
    let canon = |m: Marking| -> Marking {
        match &opts.lumping {
            Some(c) => c.canonicalize(&m),
            None => m,
        }
    };

    // The initial marking may itself be vanishing. Distinct tangible
    // resolutions can share an orbit, so probabilities are re-merged after
    // canonicalization.
    let initial = resolve_to_tangible(net, net.initial_marking(), opts)?;
    let mut initial_mass: HashMap<u32, f64> = HashMap::new();
    let mut initial_order: Vec<u32> = Vec::with_capacity(initial.len());
    for (m, p) in initial {
        let id = intern(
            canon(m),
            &mut states,
            &mut edges,
            &mut self_loops,
            &mut queue,
        )?;
        if !initial_mass.contains_key(&id) {
            initial_order.push(id);
        }
        *initial_mass.entry(id).or_insert(0.0) += p;
    }
    let initial_distribution: Vec<(u32, f64)> = initial_order
        .into_iter()
        .map(|id| (id, initial_mass[&id]))
        .collect();

    let mut timed: Vec<(TransitionId, f64)> = Vec::new();
    while let Some(sid) = queue.pop_front() {
        let marking = states[sid as usize].clone();
        net.enabled_timed(&marking, &mut timed)?;
        for &(t, rate) in &timed {
            let fired = net.fire(t, &marking);
            if fired == marking {
                // Cost-only self-loop: keep the rate for reward accounting.
                self_loops[sid as usize].push((t, rate));
                continue;
            }
            for (succ, prob) in resolve_to_tangible(net, fired, opts)? {
                // `marking` is already canonical, so comparing the
                // canonicalized successor against it also catches moves that
                // stay inside the state's own orbit.
                let succ = canon(succ);
                if succ == marking {
                    self_loops[sid as usize].push((t, rate * prob));
                    continue;
                }
                let tid = intern(succ, &mut states, &mut edges, &mut self_loops, &mut queue)?;
                edges[sid as usize].push(Edge {
                    target: tid,
                    rate: rate * prob,
                    transition: t,
                });
            }
        }
    }

    // Merge parallel edges with the same (target, transition).
    for elist in &mut edges {
        elist.sort_by_key(|e| (e.target, e.transition));
        let mut merged: Vec<Edge> = Vec::with_capacity(elist.len());
        for e in elist.drain(..) {
            match merged.last_mut() {
                Some(last) if last.target == e.target && last.transition == e.transition => {
                    last.rate += e.rate;
                }
                _ => merged.push(e),
            }
        }
        *elist = merged;
    }

    let absorbing = states
        .iter()
        .enumerate()
        .map(|(i, m)| net.is_absorbing_marking(m) || edges[i].is_empty())
        .collect();

    Ok(ReachabilityGraph {
        states,
        edges,
        self_loop_rates: self_loops,
        initial_distribution,
        absorbing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SpnBuilder, TransitionDef};

    /// Pure-death chain: N tokens drain one by one.
    fn death_chain(n: u32) -> Spn {
        let mut b = SpnBuilder::new();
        let up = b.add_place("up", n);
        b.add_transition(TransitionDef::timed("die", move |m| m.tokens(up) as f64).input(up, 1));
        b.build().unwrap()
    }

    #[test]
    fn death_chain_states_and_edges() {
        let net = death_chain(4);
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        assert_eq!(g.state_count(), 5); // 4,3,2,1,0 tokens
        assert_eq!(g.edge_count(), 4);
        // exactly one absorbing state: zero tokens
        let abs: Vec<usize> = g.absorbing_states().collect();
        assert_eq!(abs.len(), 1);
        assert_eq!(g.states[abs[0]].total_tokens(), 0);
        // rates decrease along the chain
        assert_eq!(g.exit_rate(0), 4.0);
    }

    #[test]
    fn initial_distribution_is_point_mass_for_tangible_start() {
        let net = death_chain(2);
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        assert_eq!(g.initial_distribution, vec![(0, 1.0)]);
    }

    #[test]
    fn state_cap_enforced() {
        let net = death_chain(100);
        let opts = ExploreOptions {
            max_states: 10,
            ..Default::default()
        };
        assert!(matches!(
            explore(&net, &opts),
            Err(SpnError::StateSpaceExceeded { cap: 10 })
        ));
    }

    #[test]
    fn birth_death_is_finite_with_inhibitor() {
        // M/M/1/K queue: arrivals inhibited at K
        let mut b = SpnBuilder::new();
        let q = b.add_place("q", 0);
        let k = 5;
        b.add_transition(
            TransitionDef::timed_const("arrive", 2.0)
                .output(q, 1)
                .inhibitor(q, k),
        );
        b.add_transition(TransitionDef::timed_const("serve", 3.0).input(q, 1));
        let net = b.build().unwrap();
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        assert_eq!(g.state_count(), k as usize + 1);
        assert!(g.absorbing_states().next().is_none());
    }

    #[test]
    fn vanishing_marking_resolved_by_weights() {
        // timed "go" leads to a vanishing marking resolved by two immediates
        // with weights 1:3 into distinct tangible states.
        let mut b = SpnBuilder::new();
        let start = b.add_place("start", 1);
        let mid = b.add_place("mid", 0);
        let left = b.add_place("left", 0);
        let right = b.add_place("right", 0);
        b.add_transition(
            TransitionDef::timed_const("go", 2.0)
                .input(start, 1)
                .output(mid, 1),
        );
        b.add_transition(
            TransitionDef::immediate_weighted("l", |_| 1.0, 0)
                .input(mid, 1)
                .output(left, 1),
        );
        b.add_transition(
            TransitionDef::immediate_weighted("r", |_| 3.0, 0)
                .input(mid, 1)
                .output(right, 1),
        );
        let net = b.build().unwrap();
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        // states: start, left, right — mid is vanishing and eliminated
        assert_eq!(g.state_count(), 3);
        let e = &g.edges[0];
        assert_eq!(e.len(), 2);
        let total: f64 = e.iter().map(|e| e.rate).sum();
        assert!((total - 2.0).abs() < 1e-12);
        let mut rates: Vec<f64> = e.iter().map(|e| e.rate).collect();
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((rates[0] - 0.5).abs() < 1e-12);
        assert!((rates[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn vanishing_chain_resolved() {
        // two immediates in sequence
        let mut b = SpnBuilder::new();
        let s = b.add_place("s", 1);
        let v1 = b.add_place("v1", 0);
        let v2 = b.add_place("v2", 0);
        let end = b.add_place("end", 0);
        b.add_transition(
            TransitionDef::timed_const("go", 1.0)
                .input(s, 1)
                .output(v1, 1),
        );
        b.add_transition(TransitionDef::immediate("i1").input(v1, 1).output(v2, 1));
        b.add_transition(TransitionDef::immediate("i2").input(v2, 1).output(end, 1));
        let net = b.build().unwrap();
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        assert_eq!(g.state_count(), 2);
        assert_eq!(g.edges[0].len(), 1);
        assert!((g.edges[0][0].rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vanishing_loop_detected() {
        // immediate ping-pong loop
        let mut b = SpnBuilder::new();
        let s = b.add_place("s", 1);
        let a = b.add_place("a", 0);
        let c = b.add_place("c", 0);
        b.add_transition(
            TransitionDef::timed_const("go", 1.0)
                .input(s, 1)
                .output(a, 1),
        );
        b.add_transition(TransitionDef::immediate("ab").input(a, 1).output(c, 1));
        b.add_transition(TransitionDef::immediate("ba").input(c, 1).output(a, 1));
        let net = b.build().unwrap();
        assert!(matches!(
            explore(&net, &ExploreOptions::default()),
            Err(SpnError::VanishingLoop { .. })
        ));
    }

    #[test]
    fn vanishing_initial_marking_splits_distribution() {
        let mut b = SpnBuilder::new();
        let v = b.add_place("v", 1);
        let x = b.add_place("x", 0);
        let y = b.add_place("y", 0);
        b.add_transition(
            TransitionDef::immediate_weighted("ix", |_| 1.0, 0)
                .input(v, 1)
                .output(x, 1),
        );
        b.add_transition(
            TransitionDef::immediate_weighted("iy", |_| 1.0, 0)
                .input(v, 1)
                .output(y, 1),
        );
        let net = b.build().unwrap();
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        assert_eq!(g.initial_distribution.len(), 2);
        let total: f64 = g.initial_distribution.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_loop_rates_recorded_not_edged() {
        // cost-only transition: fires but leaves the marking unchanged via
        // an effect that cancels the arc arithmetic.
        let mut b = SpnBuilder::new();
        let a = b.add_place("a", 1);
        b.add_transition(TransitionDef::timed_const("noop", 7.0)); // no arcs at all
        b.add_transition(TransitionDef::timed_const("drain", 1.0).input(a, 1));
        let net = b.build().unwrap();
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        assert_eq!(g.state_count(), 2);
        // state 0 has a self loop of rate 7 plus a real edge
        assert_eq!(g.edges[0].len(), 1);
        assert_eq!(g.self_loop_rates[0].len(), 1);
        assert_eq!(g.self_loop_rates[0][0].1, 7.0);
        // terminal state keeps self-looping on "noop": no outgoing CTMC
        // edges, so for CTMC purposes it is absorbing.
        assert_eq!(g.edges[1].len(), 0);
        assert!(g.absorbing[1]);
    }

    #[test]
    fn global_absorbing_predicate_marks_states() {
        let mut b = SpnBuilder::new();
        let up = b.add_place("up", 3);
        let down = b.add_place("down", 0);
        b.add_transition(
            TransitionDef::timed_const("fail", 1.0)
                .input(up, 1)
                .output(down, 1),
        );
        b.absorbing_when(move |m| m.tokens(down) >= 2);
        let net = b.build().unwrap();
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        // states: (3,0) (2,1) (1,2 absorbing) — exploration stops there
        assert_eq!(g.state_count(), 3);
        let abs: Vec<usize> = g.absorbing_states().collect();
        assert_eq!(abs.len(), 1);
        assert_eq!(g.states[abs[0]].tokens(down), 2);
    }

    /// Death chain with a tunable rate constant (structure fixed).
    fn scaled_death_chain(n: u32, k: f64) -> Spn {
        let mut b = SpnBuilder::new();
        let up = b.add_place("up", n);
        b.add_transition(
            TransitionDef::timed("die", move |m| k * m.tokens(up) as f64).input(up, 1),
        );
        b.build().unwrap()
    }

    #[test]
    fn reweight_matches_fresh_exploration() {
        let mut rg = explore(&scaled_death_chain(5, 1.0), &ExploreOptions::default()).unwrap();
        let hot = scaled_death_chain(5, 3.5);
        rg.reweight_in_place(&hot).unwrap();
        let fresh = explore(&hot, &ExploreOptions::default()).unwrap();
        assert_eq!(rg.state_count(), fresh.state_count());
        for (a, b) in rg.edges.iter().zip(&fresh.edges) {
            assert_eq!(a.len(), b.len());
            for (ea, eb) in a.iter().zip(b) {
                assert_eq!(ea.target, eb.target);
                assert!(
                    (ea.rate - eb.rate).abs() < 1e-12,
                    "{} vs {}",
                    ea.rate,
                    eb.rate
                );
            }
        }
        assert_eq!(rg.absorbing, fresh.absorbing);
    }

    #[test]
    fn reweight_preserves_vanishing_probability_split() {
        // timed "go" into a vanishing marking split 1:3; rate-only change
        // rescales both edges while keeping the 1:3 split.
        let build = |rate: f64| {
            let mut b = SpnBuilder::new();
            let start = b.add_place("start", 1);
            let mid = b.add_place("mid", 0);
            let left = b.add_place("left", 0);
            let right = b.add_place("right", 0);
            b.add_transition(
                TransitionDef::timed_const("go", rate)
                    .input(start, 1)
                    .output(mid, 1),
            );
            b.add_transition(
                TransitionDef::immediate_weighted("l", |_| 1.0, 0)
                    .input(mid, 1)
                    .output(left, 1),
            );
            b.add_transition(
                TransitionDef::immediate_weighted("r", |_| 3.0, 0)
                    .input(mid, 1)
                    .output(right, 1),
            );
            b.build().unwrap()
        };
        let mut rg = explore(&build(2.0), &ExploreOptions::default()).unwrap();
        rg.reweight_in_place(&build(8.0)).unwrap();
        let mut rates: Vec<f64> = rg.edges[0].iter().map(|e| e.rate).collect();
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((rates[0] - 2.0).abs() < 1e-12);
        assert!((rates[1] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn reweight_rescales_self_loops() {
        let build = |noop_rate: f64| {
            let mut b = SpnBuilder::new();
            let a = b.add_place("a", 1);
            b.add_transition(TransitionDef::timed_const("noop", noop_rate));
            b.add_transition(TransitionDef::timed_const("drain", 1.0).input(a, 1));
            b.build().unwrap()
        };
        let mut rg = explore(&build(7.0), &ExploreOptions::default()).unwrap();
        rg.reweight_in_place(&build(21.0)).unwrap();
        assert_eq!(rg.self_loop_rates[0][0].1, 21.0);
    }

    #[test]
    fn reweight_without_vanishing_split_is_bit_exact() {
        // An edge holding its transition's whole mass must take the new
        // rate verbatim. The old `rate * (new / old)` double-rounds: for
        // this rate pair x * (y / x) != y in f64, so scaling would leave
        // the re-weighted graph one ULP off a fresh exploration — visible
        // as non-bit-identical template-cache replays downstream.
        let (old_r, new_r) = (6.519413797500402_f64, 7.889346277843776_f64);
        assert_ne!(old_r * (new_r / old_r), new_r, "pair no longer witnesses");
        let build = |rate: f64| {
            let mut b = SpnBuilder::new();
            let up = b.add_place("up", 2);
            b.add_transition(TransitionDef::timed_const("die", rate).input(up, 1));
            b.build().unwrap()
        };
        let mut reweighted = explore(&build(old_r), &ExploreOptions::default()).unwrap();
        reweighted.reweight_in_place(&build(new_r)).unwrap();
        let fresh = explore(&build(new_r), &ExploreOptions::default()).unwrap();
        for (a, b) in reweighted
            .edges
            .iter()
            .flatten()
            .zip(fresh.edges.iter().flatten())
        {
            assert_eq!(a.rate.to_bits(), b.rate.to_bits());
            assert_eq!(a.rate, new_r);
        }
    }

    #[test]
    fn reweight_rejects_structural_change() {
        // A guard flips from blocking to enabling a transition: the explored
        // graph has no mass for it, so re-weighting must refuse.
        let build = |enabled: bool| {
            let mut b = SpnBuilder::new();
            let a = b.add_place("a", 2);
            b.add_transition(TransitionDef::timed_const("drain", 1.0).input(a, 1));
            b.add_transition(
                TransitionDef::timed_const("dump", 1.0)
                    .input(a, 2)
                    .guard(move |_| enabled),
            );
            b.build().unwrap()
        };
        let mut g = explore(&build(false), &ExploreOptions::default()).unwrap();
        assert!(matches!(
            g.reweight_in_place(&build(true)),
            Err(SpnError::InvalidModel(_))
        ));
    }

    #[test]
    fn reweight_rejects_transitions_past_the_graph_vocabulary() {
        // The re-weighting net has more transitions than the net the graph
        // was explored from, and the extra one is enabled with positive
        // rate: the dense per-transition scratch must report the gained
        // rate as structural, not index past the graph's vocabulary.
        let build = |extra: bool| {
            let mut b = SpnBuilder::new();
            let a = b.add_place("a", 2);
            b.add_transition(TransitionDef::timed_const("drain", 1.0).input(a, 1));
            if extra {
                b.add_transition(TransitionDef::timed_const("idle", 0.0).input(a, 1));
                b.add_transition(TransitionDef::timed_const("dump", 3.0).input(a, 2));
            }
            b.build().unwrap()
        };
        let mut g = explore(&build(false), &ExploreOptions::default()).unwrap();
        assert!(g.edges.iter().flatten().all(|e| e.transition.index() == 0));
        assert!(matches!(
            g.reweight_in_place(&build(true)),
            Err(SpnError::InvalidModel(_))
        ));

        // The converse: a graph whose transitions the re-weighting net
        // lacks loses their rate, exactly as a transition disabled by rate.
        let mut g = explore(&build(true), &ExploreOptions::default()).unwrap();
        let dump = TransitionId(2);
        assert!(g.edges.iter().flatten().any(|e| e.transition == dump));
        g.reweight_in_place(&build(false)).unwrap();
        for e in g.edges.iter().flatten() {
            let expected = if e.transition == dump { 0.0 } else { 1.0 };
            assert_eq!(e.rate, expected);
        }
    }

    #[test]
    fn reweight_to_zero_rate_makes_state_absorbing() {
        let mut g = explore(&scaled_death_chain(3, 1.0), &ExploreOptions::default()).unwrap();
        let dead = {
            let mut b = SpnBuilder::new();
            let up = b.add_place("up", 3);
            b.add_transition(TransitionDef::timed("die", move |_| 0.0).input(up, 1));
            b.build().unwrap()
        };
        g.reweight_in_place(&dead).unwrap();
        assert!(g.absorbing.iter().all(|&a| a));
    }

    #[test]
    fn repeated_reweight_through_zero_stays_finite() {
        // Zero a rate, re-weight again while still zero: no 0/0 → NaN, and
        // reviving the zeroed transition is rejected as structural.
        let mut g = explore(&scaled_death_chain(3, 1.0), &ExploreOptions::default()).unwrap();
        let dead = {
            let mut b = SpnBuilder::new();
            let up = b.add_place("up", 3);
            b.add_transition(TransitionDef::timed("die", move |_| 0.0).input(up, 1));
            b.build().unwrap()
        };
        g.reweight_in_place(&dead).unwrap();
        g.reweight_in_place(&dead).unwrap();
        for e in g.edges.iter().flatten() {
            assert!(e.rate == 0.0, "expected zero, got {}", e.rate);
        }
        assert!(matches!(
            g.reweight_in_place(&scaled_death_chain(3, 1.0)),
            Err(SpnError::InvalidModel(_))
        ));
    }

    #[test]
    fn parallel_edges_same_transition_merge() {
        // Two tokens in one place, transition moves one: firing from (2)
        // always lands in (1); ensure single merged edge.
        let net = death_chain(2);
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        for e in &g.edges {
            let mut seen = std::collections::HashSet::new();
            for edge in e {
                assert!(seen.insert((edge.target, edge.transition)));
            }
        }
    }

    /// `copies` independent, identical death chains of `n` tokens each,
    /// absorbing when every chain has drained. Fully symmetric under chain
    /// permutation, so lumping over one orbit of all chains is exact.
    fn parallel_death_chains(copies: usize, n: u32) -> (Spn, Vec<Vec<PlaceId>>) {
        let mut b = SpnBuilder::new();
        let mut blocks = Vec::with_capacity(copies);
        let mut places = Vec::with_capacity(copies);
        for i in 0..copies {
            let up = b.add_place(format!("up{i}"), n);
            places.push(up);
            blocks.push(vec![up]);
            b.add_transition(
                TransitionDef::timed(format!("die{i}"), move |m: &Marking| m.tokens(up) as f64)
                    .input(up, 1),
            );
        }
        b.absorbing_when(move |m| places.iter().all(|&p| m.tokens(p) == 0));
        (b.build().unwrap(), blocks)
    }

    #[test]
    fn canonicalizer_sorts_member_tuples_and_is_idempotent() {
        let (_, blocks) = parallel_death_chains(3, 4);
        let c = MarkingCanonicalizer::new(vec![blocks]).unwrap();
        let m = Marking::new(vec![4, 0, 2]);
        let canon = c.canonicalize(&m);
        assert_eq!(canon.as_slice(), &[0, 2, 4]);
        assert_eq!(c.canonicalize(&canon), canon);
        assert!(!c.is_trivial());
        assert_eq!(c.orbit_count(), 1);
        assert_eq!(c.member_count(), 3);
    }

    #[test]
    fn canonicalizer_rejects_ragged_and_overlapping_orbits() {
        let mut b = SpnBuilder::new();
        let p = b.add_place("p", 1);
        let q = b.add_place("q", 1);
        let r = b.add_place("r", 1);
        b.add_transition(TransitionDef::timed_const("t", 1.0).input(p, 1));
        let _ = b.build().unwrap();
        assert!(matches!(
            MarkingCanonicalizer::new(vec![vec![vec![p, q], vec![r]]]),
            Err(SpnError::InvalidModel(_))
        ));
        assert!(matches!(
            MarkingCanonicalizer::new(vec![vec![vec![p], vec![q]], vec![vec![q], vec![r]]]),
            Err(SpnError::InvalidModel(_))
        ));
    }

    #[test]
    fn lumped_exploration_shrinks_states_and_preserves_mtta() {
        // Two iid chains of 3: unlumped (a, b) pairs = 16 states, lumped
        // multisets {a, b} = 10. MTTA must agree exactly (strong
        // lumpability of the permutation symmetry).
        let (net, blocks) = parallel_death_chains(2, 3);
        let unlumped = explore(&net, &ExploreOptions::default()).unwrap();
        let opts = ExploreOptions {
            lumping: Some(MarkingCanonicalizer::new(vec![blocks]).unwrap()),
            ..Default::default()
        };
        let lumped = explore(&net, &opts).unwrap();
        assert_eq!(unlumped.state_count(), 16);
        assert_eq!(lumped.state_count(), 10);
        assert!(lumped.edge_count() < unlumped.edge_count());
        let mtta_full = crate::ctmc::Ctmc::from_graph(&unlumped)
            .unwrap()
            .mean_time_to_absorption()
            .unwrap()
            .mtta;
        let mtta_lumped = crate::ctmc::Ctmc::from_graph(&lumped)
            .unwrap()
            .mean_time_to_absorption()
            .unwrap()
            .mtta;
        assert!(
            (mtta_full - mtta_lumped).abs() <= 1e-9 * mtta_full,
            "lumped {mtta_lumped} vs full {mtta_full}"
        );
    }

    #[test]
    fn lumped_graph_reweights_in_place() {
        // Rate-only changes re-weight on the lumped quotient exactly as on
        // the full graph: representatives see the same rate functions.
        let (net, blocks) = parallel_death_chains(2, 3);
        let canon = MarkingCanonicalizer::new(vec![blocks]).unwrap();
        let opts = ExploreOptions {
            lumping: Some(canon),
            ..Default::default()
        };
        let lumped = explore(&net, &opts).unwrap();

        // same structure, half the rate
        let slow = {
            let mut b = SpnBuilder::new();
            let mut places = Vec::new();
            for i in 0..2usize {
                let up = b.add_place(format!("up{i}"), 3);
                places.push(up);
                b.add_transition(
                    TransitionDef::timed(format!("die{i}"), move |m: &Marking| {
                        0.5 * m.tokens(up) as f64
                    })
                    .input(up, 1),
                );
            }
            b.absorbing_when(move |m| places.iter().all(|&p| m.tokens(p) == 0));
            b.build().unwrap()
        };
        let mut rg = lumped.clone();
        rg.reweight_in_place(&slow).unwrap();
        let mtta_fast = crate::ctmc::Ctmc::from_graph(&lumped)
            .unwrap()
            .mean_time_to_absorption()
            .unwrap()
            .mtta;
        let mtta_slow = crate::ctmc::Ctmc::from_graph(&rg)
            .unwrap()
            .mean_time_to_absorption()
            .unwrap()
            .mtta;
        assert!((mtta_slow - 2.0 * mtta_fast).abs() <= 1e-9 * mtta_slow);
    }

    #[test]
    fn trivial_canonicalizer_changes_nothing() {
        let (net, blocks) = parallel_death_chains(2, 2);
        let plain = explore(&net, &ExploreOptions::default()).unwrap();
        // one orbit per chain — no two members interchangeable
        let orbits: Vec<Vec<Vec<PlaceId>>> = blocks.into_iter().map(|blk| vec![blk]).collect();
        let canon = MarkingCanonicalizer::new(orbits).unwrap();
        assert!(canon.is_trivial());
        let opts = ExploreOptions {
            lumping: Some(canon),
            ..Default::default()
        };
        let lumped = explore(&net, &opts).unwrap();
        assert_eq!(lumped.state_count(), plain.state_count());
        assert_eq!(lumped.edge_count(), plain.edge_count());
    }
}
