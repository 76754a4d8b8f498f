//! Reachability-graph generation.
//!
//! Exploration is a breadth-first walk over the reachable markings. Every
//! transition is timed, so each marking is a CTMC state and each enabled
//! transition with positive rate is one move out of it, carrying the
//! transition's whole rate. The result is directly a CTMC.
//!
//! Self-loop edges (marking unchanged after firing) carry no information for
//! the CTMC and are dropped, but their rates are retained per state in
//! [`ReachabilityGraph::self_loop_rates`] so cost-only transitions (the
//! paper's `T_RK` rekeying transition) can still contribute to reward
//! accounting.

use crate::error::SpnError;
use crate::model::{FactorKey, Marking, PlaceId, Spn, TransitionId};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};

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
    /// Maximum number of states to generate.
    pub max_states: usize,
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
            lumping: None,
        }
    }
}

/// One CTMC edge of the reachability graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Target state index.
    pub target: u32,
    /// Exponential rate of the move.
    pub rate: f64,
    /// The transition whose firing produced this edge.
    pub transition: TransitionId,
}

/// The reachability graph / CTMC skeleton of a net.
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    /// Reachable markings, index = state id; state 0 is the initial
    /// marking.
    pub states: Vec<Marking>,
    /// Outgoing edges per state.
    pub edges: Vec<Vec<Edge>>,
    /// Summed rate of dropped self-loop edges per state, by transition.
    pub self_loop_rates: Vec<Vec<(TransitionId, f64)>>,
    /// `true` for states where the net's global absorbing predicate holds or
    /// no transition is enabled.
    pub absorbing: Vec<bool>,
}

impl ReachabilityGraph {
    /// Number of states.
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
    /// For each state `s` and transition `t` enabled there with positive
    /// rate, the graph holds one share: an edge or a retained self-loop
    /// carrying `rate_t(s)` of the net that was explored. Re-weighting
    /// writes the new `rate_t(s)` into that share.
    ///
    /// This is a one-use [`RatePlan`] built from the graph's current rates,
    /// with its own key of every rate factor per enabled (state,
    /// transition) pair: grouping the pairs by their declared keys pays
    /// only when a plan is applied again.
    /// A caller that re-weights one explored graph many times builds the
    /// plan once ([`RatePlan::new`]) and applies it per point instead.
    ///
    /// # Errors
    /// * [`SpnError::InvalidModel`] if `net` enables a timed transition with
    ///   positive rate in a state where the graph records no mass for it
    ///   (the variation is structural; re-explore instead).
    /// * [`SpnError::BadRate`] from misbehaving rate functions.
    ///
    /// On error the graph is left unchanged.
    pub fn reweight_in_place(&mut self, net: &Spn) -> Result<(), SpnError> {
        RatePlan::build(self, net, false).apply(net, self)
    }

    /// Reset this graph's rate-bearing parts (edge rates, self-loop rates,
    /// absorbing flags) from a structurally identical `pristine` graph,
    /// reusing every allocation. A working copy re-armed this way before
    /// each [`ReachabilityGraph::reweight_in_place`] re-weights from the
    /// explored mass, so a rate family that zeroes a transition at one grid
    /// point can still revive it at the next. A [`RatePlan`] holds the
    /// pristine rates itself and needs no such reset.
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

/// The edges (or self-loops) of a graph, flattened in state order, as a
/// plan sees them: the rate slot of each and where each state's shares
/// start.
#[derive(Debug, Clone)]
struct Shares {
    /// Rate slot of every share.
    slots: Vec<u32>,
    /// Per-state offsets into `slots` (length states + 1).
    offsets: Vec<u32>,
}

impl Shares {
    fn with_capacity(shares: usize, states: usize) -> Self {
        let mut offsets = Vec::with_capacity(states + 1);
        offsets.push(0);
        Self {
            slots: Vec::with_capacity(shares),
            offsets,
        }
    }

    /// Close the current state's shares.
    fn end_state(&mut self) {
        self.offsets.push(self.slots.len() as u32);
    }

    /// The rate slot and new rate of each share in `range`, for the slot
    /// `rates`.
    fn rates_in<'a>(
        &'a self,
        range: std::ops::Range<usize>,
        rates: &'a [f64],
    ) -> impl Iterator<Item = (u32, f64)> + 'a {
        self.slots[range].iter().map(|&k| (k, rates[k as usize]))
    }

    /// The shares of state `s` as a range of flat indices.
    fn of_state(&self, s: usize) -> std::ops::Range<usize> {
        self.offsets[s] as usize..self.offsets[s + 1] as usize
    }
}

/// A multiplicative hasher (the Fx scheme) for packed rate keys: a plan
/// looks one up per enabled (state, transition) pair, where SipHash's
/// per-call set-up would dominate. The keys come from the explored
/// markings, not from outside input.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(4) {
            let mut le = [0; 4];
            le[..word.len()].copy_from_slice(word);
            self.add(u64::from(u32::from_le_bytes(le)));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// The index of each rate key seen so far, by its words (unused words 0).
type KeyIndex = HashMap<[u32; MAX_RATE_KEY_PLACES], u32, BuildHasherDefault<KeyHasher>>;

/// The most places a declared rate key may read, and the most words of a
/// derived factor key.
pub(crate) const MAX_RATE_KEY_PLACES: usize = 4;

/// The most factors a rate may have ([`crate::model::TransitionDef::timed_product`]).
const MAX_RATE_FACTORS: usize = 2;

/// "No index" marker: an unused factor of a rate.
const NONE: u32 = u32::MAX;

/// The keys of one factor of one timed transition: the factor is
/// evaluated once per key, at the key's first state.
#[derive(Debug, Clone)]
struct FactorGroup {
    transition: TransitionId,
    /// Index among the transition's factors.
    factor: usize,
    /// Representative state of each key, in first-seen state order.
    states: Vec<u32>,
}

/// One rate of a plan: the ordered product of its factor values, checked
/// as a rate of its transition.
#[derive(Debug, Clone, Copy)]
struct Rate {
    transition: TransitionId,
    /// Factor value indices; unused ones hold [`NONE`].
    factors: [u32; MAX_RATE_FACTORS],
}

/// The re-weighting of one explored graph, prepared once for any number of
/// rate-only variations of its net (Hahn, Hermanns & Zhang's parametric
/// evaluation: group the rate evaluations, then scatter).
///
/// A timed transition's rate is an ordered product of factors (one factor,
/// the rate itself, unless it is declared with
/// [`crate::model::TransitionDef::timed_product`]), and each factor reads
/// a few places of the marking or a derived key of at most four words: its
/// *rate key* ([`crate::model::TransitionDef::reads`],
/// [`crate::model::RateFactor`]; the whole marking when undeclared). The
/// plan holds, per factor of each transition, the distinct keys of the
/// states where the transition is enabled with explored mass, each with
/// the first such state as its representative; per enabled pair the rate
/// its factor keys make; and per edge and self-loop the rate it takes.
/// [`RatePlan::share_rates`] evaluates each factor key once (the keys of
/// one factor of one transition one after another), multiplies each rate's
/// factors in their declared order and checks the product
/// ([`SpnError::BadRate`]), and then yields every edge and self-loop rate
/// from the pristine values the plan keeps, so no working copy needs a
/// reset between points. Those rates feed both writers: a graph's rates
/// ([`RatePlan::apply`]) and a chain's value array
/// ([`crate::ctmc::CtmcTemplate::refresh_with`]).
///
/// The arithmetic is [`ReachabilityGraph::reweight_in_place`]'s (which is a
/// one-use plan): each share holds its (state, transition) pair's whole
/// rate and takes the new rate verbatim, and a transition that is disabled
/// or without mass gets rate 0. A factored rate is the product its one
/// closure computes, so the same functions on the same inputs give the
/// same bits, and a plan with honest keys reproduces a fresh exploration of
/// the new net bit for bit.
#[derive(Debug, Clone)]
pub struct RatePlan {
    /// Factor keys, grouped by transition, then factor. Factor value `i`
    /// is the `i`-th key in this order.
    groups: Vec<FactorGroup>,
    /// The rates, in first-seen state order: one per key of a one-factor
    /// rate, one per enabled pair of a product. Rate `r` fills rate slot
    /// `r + 1`; slot 0 holds the constant 0.
    rates: Vec<Rate>,
    /// Every edge, flattened in state then edge order.
    edges: Shares,
    /// Every self-loop, flattened the same way.
    loops: Shares,
    /// The net's absorbing predicate, per state.
    absorbing: Vec<bool>,
    /// (state, transition) pairs where the transition is enabled but the
    /// graph records no mass for it: a positive rate there is structural.
    unexplored: Vec<(u32, TransitionId)>,
}

impl RatePlan {
    /// Prepare the re-weighting of `graph` (its current rates are the
    /// pristine ones) under nets with `net`'s structure. Enabledness, the
    /// absorbing predicate and the factor keys are evaluated here, once
    /// per state; no rate function is called.
    pub fn new(graph: &ReachabilityGraph, net: &Spn) -> Self {
        Self::build(graph, net, true)
    }

    /// [`RatePlan::new`], grouping the enabled pairs by their factor keys
    /// when `keyed` is set, and otherwise giving each pair its own key of
    /// every factor.
    fn build(graph: &ReachabilityGraph, net: &Spn, keyed: bool) -> Self {
        // A graph explored from another net may carry transition ids past
        // `net`'s vocabulary; the dense scratch covers them.
        let width = (graph.edges.iter().flatten().map(|e| e.transition))
            .chain(graph.self_loop_rates.iter().flatten().map(|&(t, _)| t))
            .map(|t| t.index() + 1)
            .fold(net.transition_count(), usize::max);
        // Per transition: explored mass and rate slot in the current state.
        let mut mass = vec![0.0_f64; width];
        let mut slot = vec![0_u32; width];
        // One key group per factor of each timed transition, in
        // transition order, and the index of each group's keys.
        let mut groups: Vec<FactorGroup> = Vec::new();
        let mut first_group = Vec::with_capacity(net.transition_count());
        for t in net.transition_ids() {
            first_group.push(groups.len());
            let count = net.transition_ref(t).factors.len();
            debug_assert!(count <= MAX_RATE_FACTORS);
            groups.extend((0..count).map(|factor| FactorGroup {
                transition: t,
                factor,
                states: Vec::new(),
            }));
        }
        first_group.push(groups.len());
        let mut key_index: Vec<KeyIndex> = groups.iter().map(|_| KeyIndex::default()).collect();
        // A rate's factors hold each key's index in its group until every
        // key is numbered below. A one-factor rate is its key's
        // (`rate_of_key`, per group); a product gets one rate per enabled
        // pair.
        let mut rate_of_key: Vec<Vec<u32>> = vec![Vec::new(); groups.len()];
        let mut rates: Vec<Rate> = Vec::with_capacity(graph.edge_count());
        let mut edges = Shares::with_capacity(graph.edge_count(), graph.state_count());
        let mut loops = Shares::with_capacity(0, graph.state_count());
        let mut absorbing = Vec::with_capacity(graph.state_count());
        let mut unexplored = Vec::new();
        for (s, marking) in graph.states.iter().enumerate() {
            // Edges first, then self-loops: the summation order of a mass.
            let shares = || {
                (graph.edges[s].iter().map(|e| (e.transition, e.rate)))
                    .chain(graph.self_loop_rates[s].iter().copied())
            };
            for (t, r) in shares() {
                mass[t.index()] += r;
            }
            let absorbs = net.is_absorbing_marking(marking);
            if !absorbs {
                for t in net.transition_ids() {
                    if !net.is_enabled(t, marking) {
                        continue;
                    }
                    // Without mass (explored at rate 0, or zeroed by an
                    // earlier re-weight) the transition keeps rate 0.
                    if mass[t.index()] <= 0.0 {
                        unexplored.push((s as u32, t));
                        continue;
                    }
                    let factors = &net.transition_ref(t).factors;
                    let own = first_group[t.index()]..first_group[t.index() + 1];
                    let mut keys = [NONE; MAX_RATE_FACTORS];
                    for (k, g) in keys.iter_mut().zip(own.clone()) {
                        let states = &mut groups[g].states;
                        let mut new_key = || {
                            states.push(s as u32);
                            states.len() as u32 - 1
                        };
                        // A one-use plan gives every pair its own keys.
                        let key = match keyed.then(|| &factors[g - own.start].key) {
                            None | Some(FactorKey::Marking) => None,
                            Some(FactorKey::Places(places)) => {
                                let mut tokens = [0; MAX_RATE_KEY_PLACES];
                                for (token, &p) in tokens.iter_mut().zip(places) {
                                    *token = marking.tokens(p);
                                }
                                Some(tokens)
                            }
                            Some(FactorKey::Derived(key)) => Some(key(marking)),
                        };
                        *k = match key {
                            None => new_key(),
                            Some(key) => *key_index[g].entry(key).or_insert_with(new_key),
                        };
                    }
                    let mut new_rate = || {
                        rates.push(Rate {
                            transition: t,
                            factors: keys,
                        });
                        rates.len() as u32
                    };
                    slot[t.index()] = match own.len() {
                        1 => {
                            let known = &mut rate_of_key[own.start];
                            if keys[0] as usize == known.len() {
                                known.push(new_rate());
                            }
                            known[keys[0] as usize]
                        }
                        _ => new_rate(),
                    };
                }
            }
            // A share takes its pair's rate slot (0: no rate, rate 0).
            let slot_of = |t: TransitionId| slot[t.index()];
            (edges.slots).extend(graph.edges[s].iter().map(|e| slot_of(e.transition)));
            (loops.slots).extend(graph.self_loop_rates[s].iter().map(|&(t, _)| slot_of(t)));
            edges.end_state();
            loops.end_state();
            // Reset only the slots this state touched: every transition
            // given a rate has mass here, so its slot is among them.
            for (t, _) in shares() {
                mass[t.index()] = 0.0;
                slot[t.index()] = 0;
            }
            absorbing.push(absorbs);
        }
        // Number every factor key in group order.
        let mut base = Vec::with_capacity(groups.len());
        let mut next = 0;
        for g in &groups {
            base.push(next);
            next += g.states.len() as u32;
        }
        for rate in &mut rates {
            let first = first_group[rate.transition.index()];
            for (k, base) in rate.factors.iter_mut().zip(&base[first..]) {
                if *k != NONE {
                    *k += base;
                }
            }
        }
        Self {
            groups,
            rates,
            edges,
            loops,
            absorbing,
            unexplored,
        }
    }

    /// Distinct factor keys, summed over transitions and factors: the rate
    /// evaluations one [`RatePlan::share_rates`] makes besides the
    /// unexplored pairs.
    pub fn key_count(&self) -> usize {
        self.groups.iter().map(|g| g.states.len()).sum()
    }

    /// The distinct keys of each factor of each transition: (transition,
    /// factor index, key count), by transition, then factor.
    pub fn factor_key_counts(&self) -> impl Iterator<Item = (TransitionId, usize, usize)> + '_ {
        (self.groups.iter()).map(|g| (g.transition, g.factor, g.states.len()))
    }

    /// Evaluate `net`'s rates on the plan's graph: each factor key once,
    /// at its representative in `states` (the graph's markings), then each
    /// rate as the product of its factors. `values` is the buffer the
    /// result lives in, reused from point to point. `net` must have the
    /// structure of the plan's net: the same transitions, arcs, guards,
    /// absorbing predicate and rate factors, with rates that honour their
    /// declared keys.
    ///
    /// # Errors
    /// * [`SpnError::InvalidModel`] if `net` gives positive rate to a
    ///   transition enabled in a state where the plan's graph has no mass
    ///   for it (the variation is structural; re-explore instead), or
    ///   lacks a factor the plan evaluates.
    /// * [`SpnError::BadRate`] when a rate (the product, for a factored
    ///   one) is negative or not finite.
    ///
    /// # Panics
    /// Panics if `states` is not the plan's graph's state list in length.
    pub fn share_rates<'a>(
        &'a self,
        net: &Spn,
        states: &[Marking],
        values: &'a mut Vec<f64>,
    ) -> Result<ShareRates<'a>, SpnError> {
        assert_eq!(
            states.len(),
            self.absorbing.len(),
            "a rate plan applies to the graph it was built from"
        );
        for &(s, t) in &self.unexplored {
            let r = net.rate(t, &states[s as usize])?;
            if r > 0.0 {
                return Err(SpnError::InvalidModel(format!(
                    "reweight: transition {} gained rate {r} in state {s} \
                     where the explored graph has no mass for it; \
                     the change is structural — re-explore",
                    net.transition_name(t)
                )));
            }
        }
        values.clear();
        for g in &self.groups {
            let tr = net.transition_ref(g.transition);
            let Some(factor) = tr.factors.get(g.factor) else {
                return Err(SpnError::InvalidModel(format!(
                    "reweight: transition {} has no rate factor {}; \
                     the change is structural — re-explore",
                    tr.name, g.factor
                )));
            };
            values.extend((g.states.iter()).map(|&s| (factor.value)(&states[s as usize])));
        }
        let factors = values.len();
        values.push(0.0);
        for rate in &self.rates {
            let mut r = values[rate.factors[0] as usize];
            for &f in &rate.factors[1..] {
                if f != NONE {
                    r *= values[f as usize];
                }
            }
            let r = net.checked_rate(rate.transition, r)?;
            values.push(if r > 0.0 { r } else { 0.0 });
        }
        Ok(ShareRates {
            plan: self,
            rates: &values[factors..],
        })
    }

    /// Write `graph`'s edge rates, self-loop rates and absorbing flags for
    /// `net`'s current rate functions ([`RatePlan::share_rates`] on
    /// `graph`'s markings). `graph` must have the states and edges of the
    /// graph the plan was built from (its rates may be anything).
    ///
    /// # Errors
    /// As [`RatePlan::share_rates`]. On error `graph` is left unchanged.
    ///
    /// # Panics
    /// Panics if `graph` has a different number of states, edges or
    /// self-loops than the plan's graph.
    pub fn apply(&self, net: &Spn, graph: &mut ReachabilityGraph) -> Result<(), SpnError> {
        let mut values = Vec::new();
        let rates = self.share_rates(net, &graph.states, &mut values)?;
        let mut edge_rates = rates.edges();
        for (s, edges) in graph.edges.iter_mut().enumerate() {
            let mut live = false;
            for e in edges {
                e.rate = edge_rates.next().expect("the plan's edge count");
                live |= e.rate > 0.0;
            }
            // A rate that drops to zero can silence every remaining edge
            // of a state, making it absorbing for CTMC purposes.
            graph.absorbing[s] = self.absorbing[s] || !live;
        }
        assert!(edge_rates.next().is_none(), "the plan's edge count");
        let mut loop_rates = self.loops.rates_in(0..self.loops.slots.len(), rates.rates);
        for sl in graph.self_loop_rates.iter_mut().flatten() {
            sl.1 = loop_rates.next().expect("the plan's self-loop count").1;
        }
        assert!(loop_rates.next().is_none(), "the plan's self-loop count");
        Ok(())
    }
}

/// The rates one [`RatePlan::share_rates`] evaluated: every edge and
/// self-loop rate of the plan's graph, read through the plan.
#[derive(Debug, Clone, Copy)]
pub struct ShareRates<'a> {
    plan: &'a RatePlan,
    /// The value of each rate slot (slot 0 is the constant 0).
    rates: &'a [f64],
}

impl<'a> ShareRates<'a> {
    /// Number of states of the plan's graph.
    pub fn state_count(&self) -> usize {
        self.plan.absorbing.len()
    }

    /// Number of edges of the plan's graph.
    pub fn edge_count(&self) -> usize {
        self.plan.edges.slots.len()
    }

    /// Every edge rate, flattened in state then edge order.
    pub fn edges(&self) -> impl Iterator<Item = f64> + 'a {
        let edges = &self.plan.edges;
        (edges.rates_in(0..edges.slots.len(), self.rates)).map(|(_, r)| r)
    }

    /// The net's absorbing predicate per state (a state whose edges all
    /// carry rate 0 absorbs too; the writers add that).
    pub fn absorbing(&self) -> &'a [bool] {
        &self.plan.absorbing
    }

    /// Call `f` with each rated share of state `s`: its edges, then its
    /// self-loops, as (transition, rate). Shares without a rate (their
    /// transition is disabled or without mass under the plan's net) are
    /// left out; their rate is 0.
    pub fn for_each_share(&self, s: usize, mut f: impl FnMut(TransitionId, f64)) {
        for shares in [&self.plan.edges, &self.plan.loops] {
            for (k, rate) in shares.rates_in(shares.of_state(s), self.rates) {
                if k != 0 {
                    f(self.plan.rates[k as usize - 1].transition, rate);
                }
            }
        }
    }
}

/// Explore the reachability graph of `net`.
///
/// # Errors
/// * [`SpnError::StateSpaceExceeded`] when `opts.max_states` is hit.
/// * [`SpnError::BadRate`] when a rate function misbehaves.
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

    intern(
        canon(net.initial_marking()),
        &mut states,
        &mut edges,
        &mut self_loops,
        &mut queue,
    )?;

    let mut timed: Vec<(TransitionId, f64)> = Vec::new();
    while let Some(sid) = queue.pop_front() {
        let marking = states[sid as usize].clone();
        net.enabled_timed(&marking, &mut timed)?;
        for &(t, rate) in &timed {
            // `marking` is already canonical, so comparing the canonicalized
            // successor against it also catches moves that stay inside the
            // state's own orbit.
            let succ = canon(net.fire(t, &marking));
            if succ == marking {
                // Cost-only self-loop: keep the rate for reward accounting.
                self_loops[sid as usize].push((t, rate));
                continue;
            }
            let tid = intern(succ, &mut states, &mut edges, &mut self_loops, &mut queue)?;
            edges[sid as usize].push(Edge {
                target: tid,
                rate,
                transition: t,
            });
        }
    }

    // Edge order sets the summation order of every consumer.
    for elist in &mut edges {
        elist.sort_by_key(|e| (e.target, e.transition));
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
        absorbing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{RateFactor, SpnBuilder, TransitionDef};

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
        // The chain starts at state 0 with probability 1.
        assert_eq!(g.states[0], net.initial_marking());
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

    /// Tokens drain from `up` into `down`; `die` reads only `up`, and
    /// `noop` is a constant cost-only self-loop. `leak` is enabled
    /// everywhere `up` holds a token but explored at rate 0.
    fn keyed_net(die: f64, noop: f64, leak: f64) -> Spn {
        let mut b = SpnBuilder::new();
        let up = b.add_place("up", 3);
        let down = b.add_place("down", 0);
        b.add_transition(
            TransitionDef::timed("die", move |m| die * m.tokens(up) as f64)
                .reads(&[up])
                .input(up, 1)
                .output(down, 1),
        );
        b.add_transition(TransitionDef::timed_const("noop", noop).reads(&[]));
        b.add_transition(
            TransitionDef::timed_const("leak", leak)
                .reads(&[])
                .input(up, 1),
        );
        b.build().unwrap()
    }

    fn rate_bits(g: &ReachabilityGraph) -> (Vec<u64>, Vec<u64>, Vec<bool>) {
        (
            g.edges.iter().flatten().map(|e| e.rate.to_bits()).collect(),
            (g.self_loop_rates.iter().flatten())
                .map(|&(_, r)| r.to_bits())
                .collect(),
            g.absorbing.clone(),
        )
    }

    #[test]
    fn rate_plan_rewrites_a_working_copy_like_a_reset_and_reweight() {
        let pristine = explore(&keyed_net(1.3, 7.0, 0.0), &ExploreOptions::default()).unwrap();
        let plan = RatePlan::new(&pristine, &keyed_net(1.3, 7.0, 0.0));
        // `die` has one key per token count of `up` (3, 2, 1); `noop` one
        // constant key.
        assert_eq!(plan.key_count(), 4);
        let mut working = pristine.clone();
        // A zero rate silences `die` at one point; the next point starts
        // from the plan's pristine values, not from the zeroed copy.
        for (die, noop) in [(0.0, 7.0), (2.9, 0.5), (0.7, 21.0), (1.3, 7.0)] {
            let net = keyed_net(die, noop, 0.0);
            plan.apply(&net, &mut working).unwrap();
            let mut reference = pristine.clone();
            reference.reweight_in_place(&net).unwrap();
            assert_eq!(rate_bits(&working), rate_bits(&reference), "die {die}");
        }
        assert_eq!(rate_bits(&working), rate_bits(&pristine));
    }

    #[test]
    fn rate_plan_refuses_a_gained_rate_and_leaves_the_graph_alone() {
        let pristine = explore(&keyed_net(1.3, 7.0, 0.0), &ExploreOptions::default()).unwrap();
        let plan = RatePlan::new(&pristine, &keyed_net(1.3, 7.0, 0.0));
        let mut working = pristine.clone();
        plan.apply(&keyed_net(2.0, 7.0, 0.0), &mut working).unwrap();
        let before = rate_bits(&working);
        assert!(matches!(
            plan.apply(&keyed_net(1.3, 7.0, 0.5), &mut working),
            Err(SpnError::InvalidModel(_))
        ));
        assert_eq!(rate_bits(&working), before);
    }

    /// `die` drains `up` at the product of a count factor keyed by `up`
    /// and a parity factor keyed by a derived key (`up` mod 2): `b` on even
    /// counts, 1 on odd ones.
    fn factored_net(k: f64, b: f64) -> Spn {
        let mut net = SpnBuilder::new();
        let up = net.add_place("up", 4);
        let count = RateFactor::reads(&[up], move |m| k * m.tokens(up) as f64);
        let parity = RateFactor::keyed(
            move |m| [m.tokens(up) % 2, 0, 0, 0],
            move |m| {
                if m.tokens(up).is_multiple_of(2) {
                    b
                } else {
                    1.0
                }
            },
        );
        net.add_transition(TransitionDef::timed_product("die", count, parity).input(up, 1));
        net.build().unwrap()
    }

    #[test]
    fn factored_rate_plan_matches_one_use_and_fresh_exploration() {
        let pristine = explore(&factored_net(1.3, 0.5), &ExploreOptions::default()).unwrap();
        let plan = RatePlan::new(&pristine, &factored_net(1.3, 0.5));
        // `die` fires from up = 4, 3, 2, 1: four count keys, two parity
        // keys.
        let die = TransitionId(0);
        let counts: Vec<_> = plan.factor_key_counts().collect();
        assert_eq!(counts, vec![(die, 0, 4), (die, 1, 2)]);
        assert_eq!(plan.key_count(), 6);
        let net = factored_net(2.9, 0.25);
        let mut working = pristine.clone();
        plan.apply(&net, &mut working).unwrap();
        // The one-use plan evaluates both factors at every pair, and a
        // fresh exploration calls the closure that multiplies them: the
        // same bits.
        let mut one_use = pristine.clone();
        one_use.reweight_in_place(&net).unwrap();
        assert_eq!(rate_bits(&working), rate_bits(&one_use));
        let fresh = explore(&net, &ExploreOptions::default()).unwrap();
        assert_eq!(rate_bits(&working), rate_bits(&fresh));
    }

    #[test]
    fn factored_rate_gained_where_unexplored_is_structural() {
        // b = 0 stops `die` at the initial even count: the graph has no
        // mass there, so a positive product is a structural change.
        let pristine = explore(&factored_net(1.0, 0.0), &ExploreOptions::default()).unwrap();
        assert_eq!(pristine.state_count(), 1);
        let plan = RatePlan::new(&pristine, &factored_net(1.0, 0.0));
        let mut working = pristine.clone();
        plan.apply(&factored_net(2.0, 0.0), &mut working).unwrap();
        assert!(matches!(
            plan.apply(&factored_net(1.0, 0.5), &mut working),
            Err(SpnError::InvalidModel(_))
        ));
    }

    #[test]
    fn overflowing_product_is_a_bad_rate_of_its_transition() {
        // Each factor is finite; their product is not.
        let build = |a: f64| {
            let mut net = SpnBuilder::new();
            let up = net.add_place("up", 2);
            let first = RateFactor::reads(&[up], move |_| a);
            let second = RateFactor::reads(&[], move |_| a);
            net.add_transition(TransitionDef::timed_product("die", first, second).input(up, 1));
            net.build().unwrap()
        };
        let pristine = explore(&build(1.0), &ExploreOptions::default()).unwrap();
        let plan = RatePlan::new(&pristine, &build(1.0));
        let mut working = pristine.clone();
        let hot = build(1e200);
        for err in [
            plan.apply(&hot, &mut working).unwrap_err(),
            hot.rate(TransitionId(0), &pristine.states[0]).unwrap_err(),
        ] {
            assert!(
                matches!(&err, SpnError::BadRate { transition, value }
                    if transition == "die" && *value == f64::INFINITY),
                "{err}"
            );
        }
        assert_eq!(rate_bits(&working), rate_bits(&pristine));
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
        let opts = ExploreOptions {
            lumping: Some(canon),
            ..Default::default()
        };
        let lumped = explore(&net, &opts).unwrap();
        assert_eq!(lumped.state_count(), plain.state_count());
        assert_eq!(lumped.edge_count(), plain.edge_count());
    }
}
