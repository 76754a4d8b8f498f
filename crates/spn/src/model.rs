//! Net structure: places, markings, transitions, arcs and guards.
//!
//! The transition vocabulary is the one the paper's Figure-1 net uses:
//!
//! * every transition is **timed**: it fires after an exponentially
//!   distributed delay whose rate may depend on the whole marking
//!   (`Fn(&Marking) -> f64`), optionally as an ordered product of keyed
//!   factors ([`TransitionDef::timed_product`]);
//! * input and output arcs carry multiplicities, and firing moves exactly
//!   the arcs' tokens;
//! * optional **guards** (enabling functions) veto firing — a capacity cap
//!   is a guard such as `m.tokens(q) < cap`.

use crate::error::SpnError;
use crate::reach::MAX_RATE_KEY_PLACES;
use std::fmt;
use std::sync::Arc;

/// Identifier of a place (index into the net's place table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub(crate) u32);

/// Identifier of a transition (index into the net's transition table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionId(pub(crate) u32);

impl PlaceId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl TransitionId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A token assignment to every place.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Marking(Box<[u32]>);

impl Marking {
    /// Build from a raw token vector.
    pub fn new(tokens: Vec<u32>) -> Self {
        Self(tokens.into_boxed_slice())
    }

    /// Tokens currently in `place`.
    pub fn tokens(&self, place: PlaceId) -> u32 {
        self.0[place.0 as usize]
    }

    /// Set the token count of `place`.
    // detlint::allow(U001): marking setup of the spn and gcsids model tests
    pub fn set_tokens(&mut self, place: PlaceId, tokens: u32) {
        self.0[place.0 as usize] = tokens;
    }

    /// Add tokens to `place`.
    pub fn add_tokens(&mut self, place: PlaceId, n: u32) {
        self.0[place.0 as usize] += n;
    }

    /// Remove tokens from `place`.
    ///
    /// # Panics
    /// Panics if fewer than `n` tokens are present (the engine checks
    /// enabledness before firing, so this indicates a model bug).
    pub fn remove_tokens(&mut self, place: PlaceId, n: u32) {
        let cur = self.0[place.0 as usize];
        assert!(cur >= n, "removing {n} tokens from place holding {cur}");
        self.0[place.0 as usize] = cur - n;
    }

    /// Total token count across all places.
    // detlint::allow(U001): conservation observer of spn proptests.rs and the reach and sim tests
    pub fn total_tokens(&self) -> u64 {
        self.0.iter().map(|&t| t as u64).sum()
    }

    /// Raw view.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }

    /// Raw mutable view.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u32] {
        &mut self.0
    }
}

impl fmt::Debug for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Marking{:?}", &self.0)
    }
}

/// Marking-dependent scalar function (rates, weights).
pub type MarkingFn = Arc<dyn Fn(&Marking) -> f64 + Send + Sync>;
/// Marking predicate (guards, absorbing condition).
pub type GuardFn = Arc<dyn Fn(&Marking) -> bool + Send + Sync>;
/// A derived rate key: the few words a rate factor depends on.
type KeyFn = Arc<dyn Fn(&Marking) -> [u32; MAX_RATE_KEY_PLACES] + Send + Sync>;

/// What a rate factor's value depends on: two markings with equal keys
/// must give it the same value.
#[derive(Clone)]
pub(crate) enum FactorKey {
    /// The whole marking (nothing declared).
    Marking,
    /// The tokens of these places, at most [`MAX_RATE_KEY_PLACES`].
    Places(Vec<PlaceId>),
    /// A derived key of at most [`MAX_RATE_KEY_PLACES`] words.
    Derived(KeyFn),
}

/// One keyed factor of a timed rate, as a built net holds it.
#[derive(Clone)]
pub(crate) struct Factor {
    pub(crate) key: FactorKey,
    pub(crate) value: MarkingFn,
}

/// One factor of a factored timed rate ([`TransitionDef::timed_product`]):
/// a marking-dependent value and the key it depends on. A
/// [`crate::reach::RatePlan`] evaluates a factor once per distinct key.
pub struct RateFactor<F> {
    key: FactorKey,
    value: F,
}

impl<F: Fn(&Marking) -> f64 + Send + Sync + 'static> RateFactor<F> {
    /// A factor whose value reads only the tokens of `places` (at most
    /// four; see [`TransitionDef::reads`]).
    pub fn reads(places: &[PlaceId], value: F) -> Self {
        Self {
            key: FactorKey::Places(places.to_vec()),
            value,
        }
    }

    /// A factor whose value depends on the marking only through `key`, a
    /// derived key of at most four words — the target group's (good, bad)
    /// split, say. Markings with equal keys must get equal values.
    pub fn keyed(
        key: impl Fn(&Marking) -> [u32; MAX_RATE_KEY_PLACES] + Send + Sync + 'static,
        value: F,
    ) -> Self {
        Self {
            key: FactorKey::Derived(Arc::new(key)),
            value,
        }
    }
}

/// Declarative description of one transition, built fluently and passed to
/// [`SpnBuilder::add_transition`].
pub struct TransitionDef {
    pub(crate) name: String,
    /// Rate function; must return a finite, non-negative value. A zero
    /// rate disables the transition in that marking.
    pub(crate) rate: MarkingFn,
    pub(crate) inputs: Vec<(PlaceId, u32)>,
    pub(crate) outputs: Vec<(PlaceId, u32)>,
    pub(crate) guard: Option<GuardFn>,
    pub(crate) reads: Option<Vec<PlaceId>>,
    /// The keyed factors whose ordered product is the rate: the declared
    /// ones of a [`TransitionDef::timed_product`]; in a built net, the
    /// rate itself keyed by [`TransitionDef::reads`] otherwise.
    pub(crate) factors: Vec<Factor>,
}

impl TransitionDef {
    /// A timed transition with the given marking-dependent rate.
    pub fn timed(
        name: impl Into<String>,
        rate: impl Fn(&Marking) -> f64 + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            rate: Arc::new(rate),
            inputs: Vec::new(),
            outputs: Vec::new(),
            guard: None,
            reads: None,
            factors: Vec::new(),
        }
    }

    /// A timed transition whose rate is the ordered product `a · b` of two
    /// keyed factors. Exploration and simulation call one closure that
    /// multiplies the two (both called statically from it), so the rate is
    /// exactly the same expression written as one closure; a
    /// [`crate::reach::RatePlan`] evaluates each factor once per distinct
    /// key of its own and multiplies per rate. Factoring pays when a costly
    /// part of a rate takes few distinct keys where the whole rate takes
    /// many.
    pub fn timed_product<A, B>(name: impl Into<String>, a: RateFactor<A>, b: RateFactor<B>) -> Self
    where
        A: Fn(&Marking) -> f64 + Send + Sync + 'static,
        B: Fn(&Marking) -> f64 + Send + Sync + 'static,
    {
        let (fa, fb) = (Arc::new(a.value), Arc::new(b.value));
        let (ca, cb) = (Arc::clone(&fa), Arc::clone(&fb));
        let mut def = Self::timed(name, move |m| ca(m) * cb(m));
        def.factors = vec![
            Factor {
                key: a.key,
                value: fa,
            },
            Factor {
                key: b.key,
                value: fb,
            },
        ];
        def
    }

    /// A timed transition with a constant rate.
    pub fn timed_const(name: impl Into<String>, rate: f64) -> Self {
        Self::timed(name, move |_| rate)
    }

    /// Add an input arc of the given multiplicity.
    pub fn input(mut self, place: PlaceId, multiplicity: u32) -> Self {
        self.inputs.push((place, multiplicity));
        self
    }

    /// Add an output arc of the given multiplicity.
    pub fn output(mut self, place: PlaceId, multiplicity: u32) -> Self {
        self.outputs.push((place, multiplicity));
        self
    }

    /// Attach an enabling guard.
    pub fn guard(mut self, g: impl Fn(&Marking) -> bool + Send + Sync + 'static) -> Self {
        self.guard = Some(Arc::new(g));
        self
    }

    /// Declare the places the rate function reads: its *rate key*. Two
    /// markings with equal tokens on these places must get the same rate,
    /// so a [`crate::reach::RatePlan`] evaluates the rate once per distinct
    /// key instead of once per state. An empty list declares a constant
    /// rate. Without a declaration the key is the whole marking. At most
    /// four places may be declared ([`SpnBuilder::build`] refuses more).
    /// Guards and arcs are not part of the key; they decide enabledness,
    /// which a plan fixes when it is built. A factored rate
    /// ([`TransitionDef::timed_product`]) declares its keys per factor
    /// instead ([`SpnBuilder::build`] refuses both).
    pub fn reads(mut self, places: &[PlaceId]) -> Self {
        self.reads = Some(places.to_vec());
        self
    }
}

/// Incrementally assembles an [`Spn`].
#[derive(Default)]
pub struct SpnBuilder {
    place_names: Vec<String>,
    initial: Vec<u32>,
    transitions: Vec<TransitionDef>,
    absorbing: Option<GuardFn>,
}

impl SpnBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a place with its initial token count; returns its id.
    pub fn add_place(&mut self, name: impl Into<String>, initial_tokens: u32) -> PlaceId {
        self.place_names.push(name.into());
        self.initial.push(initial_tokens);
        PlaceId(self.place_names.len() as u32 - 1)
    }

    /// Add a transition described by `def`; returns its id.
    pub fn add_transition(&mut self, def: TransitionDef) -> TransitionId {
        self.transitions.push(def);
        TransitionId(self.transitions.len() as u32 - 1)
    }

    /// Declare a global absorbing condition: any marking satisfying the
    /// predicate disables **all** transitions (the paper's C1/C2 failure
    /// conditions are expressed this way).
    pub fn absorbing_when(&mut self, p: impl Fn(&Marking) -> bool + Send + Sync + 'static) {
        self.absorbing = Some(Arc::new(p));
    }

    /// Validate and freeze the net.
    ///
    /// # Errors
    /// Returns [`SpnError::InvalidModel`] for duplicate place/transition
    /// names, nets without places, arcs or rate keys pointing at unknown
    /// places, a rate key of more than four places, or a factored rate
    /// that also declares [`TransitionDef::reads`].
    pub fn build(self) -> Result<Spn, SpnError> {
        if self.place_names.is_empty() {
            return Err(SpnError::InvalidModel("net has no places".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for n in &self.place_names {
            if !seen.insert(n.as_str()) {
                return Err(SpnError::InvalidModel(format!("duplicate place name {n}")));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for t in &self.transitions {
            if !seen.insert(t.name.as_str()) {
                return Err(SpnError::InvalidModel(format!(
                    "duplicate transition name {}",
                    t.name
                )));
            }
            let np = self.place_names.len() as u32;
            for &(p, mult) in t.inputs.iter().chain(&t.outputs) {
                if p.0 >= np {
                    return Err(SpnError::InvalidModel(format!(
                        "transition {} references unknown place {:?}",
                        t.name, p
                    )));
                }
                if mult == 0 {
                    return Err(SpnError::InvalidModel(format!(
                        "transition {} has a zero-multiplicity arc",
                        t.name
                    )));
                }
            }
            if t.reads.is_some() && !t.factors.is_empty() {
                return Err(SpnError::InvalidModel(format!(
                    "transition {} declares both a rate key and rate factors; \
                     a factored rate keys each factor",
                    t.name
                )));
            }
            let keys = (t.reads.iter()).chain(t.factors.iter().filter_map(|f| match &f.key {
                FactorKey::Places(places) => Some(places),
                _ => None,
            }));
            for reads in keys {
                if reads.len() > MAX_RATE_KEY_PLACES {
                    return Err(SpnError::InvalidModel(format!(
                        "transition {} declares a rate key of {} places; at most \
                         {MAX_RATE_KEY_PLACES} are supported — leave it undeclared",
                        t.name,
                        reads.len()
                    )));
                }
                for &p in reads {
                    if p.0 >= np {
                        return Err(SpnError::InvalidModel(format!(
                            "transition {} rate reads unknown place {:?}",
                            t.name, p
                        )));
                    }
                }
            }
        }
        // An unfactored rate is one factor keyed by its `reads`.
        let mut transitions = self.transitions;
        for t in &mut transitions {
            if t.factors.is_empty() {
                t.factors = vec![Factor {
                    key: t.reads.take().map_or(FactorKey::Marking, FactorKey::Places),
                    value: Arc::clone(&t.rate),
                }];
            }
        }
        Ok(Spn {
            place_names: self.place_names,
            initial: Marking::new(self.initial),
            transitions,
            absorbing: self.absorbing,
        })
    }
}

/// An immutable stochastic Petri net.
pub struct Spn {
    place_names: Vec<String>,
    initial: Marking,
    transitions: Vec<TransitionDef>,
    absorbing: Option<GuardFn>,
}

impl Spn {
    /// Number of places.
    pub fn place_count(&self) -> usize {
        self.place_names.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// Place name.
    pub fn place_name(&self, p: PlaceId) -> &str {
        &self.place_names[p.0 as usize]
    }

    /// Transition name.
    pub fn transition_name(&self, t: TransitionId) -> &str {
        &self.transitions[t.0 as usize].name
    }

    /// Crate-internal access to the full transition record.
    pub(crate) fn transition_ref(&self, t: TransitionId) -> &TransitionDef {
        &self.transitions[t.0 as usize]
    }

    /// Look up a place id by name.
    // detlint::allow(U001): place lookup of the model and sim tests and spn proptests.rs
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.place_names
            .iter()
            .position(|n| n == name)
            .map(|i| PlaceId(i as u32))
    }

    /// Look up a transition id by name.
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        self.transitions
            .iter()
            .position(|t| t.name == name)
            .map(|i| TransitionId(i as u32))
    }

    /// All transition ids.
    pub fn transition_ids(&self) -> impl Iterator<Item = TransitionId> {
        (0..self.transitions.len() as u32).map(TransitionId)
    }

    /// The initial marking.
    pub fn initial_marking(&self) -> Marking {
        self.initial.clone()
    }

    /// True when the global absorbing predicate holds in `m`.
    pub fn is_absorbing_marking(&self, m: &Marking) -> bool {
        self.absorbing.as_ref().is_some_and(|p| p(m))
    }

    /// Structural + guard enabledness of `t` in `m` (ignores the global
    /// absorbing predicate — callers check that separately).
    pub fn is_enabled(&self, t: TransitionId, m: &Marking) -> bool {
        let tr = &self.transitions[t.0 as usize];
        for &(p, mult) in &tr.inputs {
            if m.tokens(p) < mult {
                return false;
            }
        }
        if let Some(g) = &tr.guard {
            if !g(m) {
                return false;
            }
        }
        true
    }

    /// Rate of transition `t` in `m`.
    ///
    /// # Errors
    /// Returns [`SpnError::BadRate`] for negative/non-finite rates.
    pub fn rate(&self, t: TransitionId, m: &Marking) -> Result<f64, SpnError> {
        self.checked_rate(t, (self.transitions[t.0 as usize].rate)(m))
    }

    /// `r` as the rate of `t`, or [`SpnError::BadRate`] naming `t` when
    /// it is negative or not finite.
    pub(crate) fn checked_rate(&self, t: TransitionId, r: f64) -> Result<f64, SpnError> {
        if !r.is_finite() || r < 0.0 {
            return Err(SpnError::BadRate {
                transition: self.transitions[t.0 as usize].name.clone(),
                value: r,
            });
        }
        Ok(r)
    }

    /// Fire `t` in `m`, returning the successor marking (a clone of `m`
    /// passed through [`Spn::fire_in_place`]).
    ///
    /// # Panics
    /// Panics when `t` is not enabled — call [`Spn::is_enabled`] first.
    pub fn fire(&self, t: TransitionId, m: &Marking) -> Marking {
        let mut next = m.clone();
        self.fire_in_place(t, &mut next);
        next
    }

    /// Fire `t` in `m`, turning `m` into the successor marking without
    /// allocating.
    ///
    /// # Panics
    /// Panics when `t` is not enabled — call [`Spn::is_enabled`] first.
    pub fn fire_in_place(&self, t: TransitionId, m: &mut Marking) {
        debug_assert!(self.is_enabled(t, m), "firing disabled transition");
        let tr = &self.transitions[t.0 as usize];
        for &(p, mult) in &tr.inputs {
            m.remove_tokens(p, mult);
        }
        for &(p, mult) in &tr.outputs {
            m.add_tokens(p, mult);
        }
    }

    /// Fill `out` with the enabled transitions and their rates, in
    /// transition order; rate-zero transitions are filtered out. `out` is
    /// cleared first and left empty for absorbing markings. Callers that
    /// walk many markings (exploration, re-weighting, simulation) keep one
    /// buffer for the whole walk.
    ///
    /// # Errors
    /// Propagates [`SpnError::BadRate`]; `out` then holds the transitions
    /// collected before the failing one.
    pub fn enabled_timed(
        &self,
        m: &Marking,
        out: &mut Vec<(TransitionId, f64)>,
    ) -> Result<(), SpnError> {
        out.clear();
        if self.is_absorbing_marking(m) {
            return Ok(());
        }
        for t in self.transition_ids() {
            if !self.is_enabled(t, m) {
                continue;
            }
            let r = self.rate(t, m)?;
            if r > 0.0 {
                out.push((t, r));
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Spn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Spn")
            .field("places", &self.place_names)
            .field(
                "transitions",
                &self.transitions.iter().map(|t| &t.name).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_net() -> (Spn, PlaceId, PlaceId) {
        let mut b = SpnBuilder::new();
        let a = b.add_place("A", 2);
        let c = b.add_place("B", 0);
        b.add_transition(
            TransitionDef::timed_const("move", 1.5)
                .input(a, 1)
                .output(c, 1),
        );
        (b.build().unwrap(), a, c)
    }

    #[test]
    fn build_and_lookup() {
        let (net, a, c) = simple_net();
        assert_eq!(net.place_count(), 2);
        assert_eq!(net.transition_count(), 1);
        assert_eq!(net.place_name(a), "A");
        assert_eq!(net.place_by_name("B"), Some(c));
        assert_eq!(net.place_by_name("Z"), None);
        assert!(net.transition_by_name("move").is_some());
        assert!(net.transition_by_name("nope").is_none());
    }

    #[test]
    fn duplicate_place_names_rejected() {
        let mut b = SpnBuilder::new();
        b.add_place("X", 0);
        b.add_place("X", 0);
        assert!(matches!(b.build(), Err(SpnError::InvalidModel(_))));
    }

    #[test]
    fn duplicate_transition_names_rejected() {
        let mut b = SpnBuilder::new();
        let p = b.add_place("X", 0);
        b.add_transition(TransitionDef::timed_const("t", 1.0).output(p, 1));
        b.add_transition(TransitionDef::timed_const("t", 2.0).output(p, 1));
        assert!(matches!(b.build(), Err(SpnError::InvalidModel(_))));
    }

    #[test]
    fn zero_multiplicity_arc_rejected() {
        let mut b = SpnBuilder::new();
        let p = b.add_place("X", 0);
        b.add_transition(TransitionDef::timed_const("t", 1.0).input(p, 0));
        assert!(matches!(b.build(), Err(SpnError::InvalidModel(_))));
    }

    #[test]
    fn rate_keys_must_name_known_places_and_at_most_four() {
        let build = |reads: &[PlaceId]| {
            let mut b = SpnBuilder::new();
            for i in 0..5 {
                b.add_place(format!("P{i}"), 0);
            }
            b.add_transition(TransitionDef::timed_const("t", 1.0).reads(reads));
            b.build()
        };
        let p = |i| PlaceId(i);
        assert!(build(&[p(0), p(1), p(2), p(3)]).is_ok());
        assert!(build(&[]).is_ok());
        assert!(matches!(
            build(&[p(0), p(1), p(2), p(3), p(4)]),
            Err(SpnError::InvalidModel(_))
        ));
        assert!(matches!(build(&[p(5)]), Err(SpnError::InvalidModel(_))));
    }

    #[test]
    fn factor_keys_are_checked_like_rate_keys() {
        let build = |reads: &[PlaceId], declare: bool| {
            let mut b = SpnBuilder::new();
            for i in 0..5 {
                b.add_place(format!("P{i}"), 0);
            }
            let first = RateFactor::reads(reads, |_| 2.0);
            let second = RateFactor::keyed(|_| [0; 4], |_| 3.0);
            let def = TransitionDef::timed_product("t", first, second);
            b.add_transition(if declare { def.reads(&[]) } else { def });
            b.build()
        };
        let p = |i| PlaceId(i);
        let net = build(&[p(0), p(1)], false).unwrap();
        // The composed closure multiplies the factors.
        let t = TransitionId(0);
        assert_eq!(net.rate(t, &net.initial_marking()).unwrap(), 6.0);
        for bad in [
            build(&[p(0), p(1), p(2), p(3), p(4)], false),
            build(&[p(5)], false),
            // A factored rate keys each factor, not the transition.
            build(&[p(0)], true),
        ] {
            assert!(matches!(bad, Err(SpnError::InvalidModel(_))));
        }
    }

    #[test]
    fn empty_net_rejected() {
        assert!(matches!(
            SpnBuilder::new().build(),
            Err(SpnError::InvalidModel(_))
        ));
    }

    #[test]
    fn enabledness_respects_tokens() {
        let (net, a, _) = simple_net();
        let t = net.transition_by_name("move").unwrap();
        let mut m = net.initial_marking();
        assert!(net.is_enabled(t, &m));
        m.set_tokens(a, 0);
        assert!(!net.is_enabled(t, &m));
    }

    #[test]
    fn firing_moves_tokens() {
        let (net, a, c) = simple_net();
        let t = net.transition_by_name("move").unwrap();
        let m = net.initial_marking();
        let m2 = net.fire(t, &m);
        assert_eq!(m2.tokens(a), 1);
        assert_eq!(m2.tokens(c), 1);
        assert_eq!(m2.total_tokens(), 2);
    }

    #[test]
    fn guard_vetoes() {
        let mut b = SpnBuilder::new();
        let a = b.add_place("A", 5);
        b.add_transition(
            TransitionDef::timed_const("t", 1.0)
                .input(a, 1)
                .guard(move |m| m.tokens(a) > 3),
        );
        let net = b.build().unwrap();
        let t = net.transition_by_name("t").unwrap();
        let mut m = net.initial_marking();
        assert!(net.is_enabled(t, &m));
        m.set_tokens(a, 3);
        assert!(!net.is_enabled(t, &m));
    }

    #[test]
    fn marking_dependent_rate() {
        let (net, a, _) = simple_net();
        let mut b = SpnBuilder::new();
        let a2 = b.add_place("A", 7);
        b.add_transition(
            TransitionDef::timed("drain", move |m| 0.5 * m.tokens(a2) as f64).input(a2, 1),
        );
        let net2 = b.build().unwrap();
        let t = net2.transition_by_name("drain").unwrap();
        let m = net2.initial_marking();
        assert_eq!(net2.rate(t, &m).unwrap(), 3.5);
        let _ = (net, a);
    }

    #[test]
    fn bad_rate_detected() {
        let mut b = SpnBuilder::new();
        let a = b.add_place("A", 1);
        b.add_transition(TransitionDef::timed("neg", |_| -2.0).input(a, 1));
        let net = b.build().unwrap();
        let t = net.transition_by_name("neg").unwrap();
        assert!(matches!(
            net.rate(t, &net.initial_marking()),
            Err(SpnError::BadRate { .. })
        ));
    }

    #[test]
    fn absorbing_marking_disables_everything() {
        let mut b = SpnBuilder::new();
        let a = b.add_place("A", 3);
        b.add_transition(TransitionDef::timed_const("t", 1.0).input(a, 1));
        b.absorbing_when(move |m| m.tokens(a) <= 1);
        let net = b.build().unwrap();
        let m = net.initial_marking();
        assert!(!net.is_absorbing_marking(&m));
        let mut en = Vec::new();
        net.enabled_timed(&m, &mut en).unwrap();
        assert_eq!(en.len(), 1);
        let mut m2 = m.clone();
        m2.set_tokens(a, 1);
        assert!(net.is_absorbing_marking(&m2));
        net.enabled_timed(&m2, &mut en).unwrap();
        assert!(en.is_empty());
    }

    #[test]
    fn zero_rate_transition_filtered_from_enabled() {
        let mut b = SpnBuilder::new();
        let a = b.add_place("A", 1);
        b.add_transition(TransitionDef::timed_const("zero", 0.0).input(a, 1));
        b.add_transition(TransitionDef::timed_const("live", 2.0).input(a, 1));
        let net = b.build().unwrap();
        let mut en = vec![(TransitionId(0), 9.0)];
        net.enabled_timed(&net.initial_marking(), &mut en).unwrap();
        assert_eq!(en.len(), 1);
        assert_eq!(net.transition_name(en[0].0), "live");
    }

    #[test]
    #[should_panic]
    fn remove_too_many_tokens_panics() {
        let mut m = Marking::new(vec![1]);
        m.remove_tokens(PlaceId(0), 2);
    }
}
