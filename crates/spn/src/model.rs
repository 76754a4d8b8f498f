//! Net structure: places, markings, transitions, arcs, guards and effects.
//!
//! The transition vocabulary follows extended SPNs à la SPNP:
//!
//! * **timed** transitions fire after an exponentially distributed delay
//!   whose rate may depend on the whole marking (`Fn(&Marking) -> f64`);
//! * **immediate** transitions fire in zero time, resolved by priority then
//!   probabilistic weight;
//! * arcs carry multiplicities; **inhibitor** arcs disable a transition when
//!   a place holds at least the arc's multiplicity;
//! * optional **guards** (enabling functions) veto firing;
//! * optional **effects** apply an arbitrary marking transformation after
//!   the arc arithmetic — this is what lets the GCS model implement
//!   "adjust member counts on group partition" style updates that plain
//!   arcs cannot express.

use crate::error::SpnError;
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
    pub fn total_tokens(&self) -> u64 {
        self.0.iter().map(|&t| t as u64).sum()
    }

    /// Raw view.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
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
/// In-place marking transformation applied after arc arithmetic.
pub type EffectFn = Arc<dyn Fn(&mut Marking) + Send + Sync>;

/// Firing semantics of a transition.
#[derive(Clone)]
pub enum TransitionKind {
    /// Exponential delay with marking-dependent rate.
    Timed {
        /// Rate function; must return a finite, non-negative value. A zero
        /// rate disables the transition in that marking.
        rate: MarkingFn,
    },
    /// Zero-delay transition resolved by priority, then weight.
    Immediate {
        /// Relative weight among same-priority enabled immediates.
        weight: MarkingFn,
        /// Higher priority fires first.
        priority: u8,
    },
}

impl fmt::Debug for TransitionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitionKind::Timed { .. } => write!(f, "Timed"),
            TransitionKind::Immediate { priority, .. } => {
                write!(f, "Immediate(priority={priority})")
            }
        }
    }
}

/// Declarative description of one transition, built fluently and passed to
/// [`SpnBuilder::add_transition`].
pub struct TransitionDef {
    pub(crate) name: String,
    pub(crate) kind: TransitionKind,
    pub(crate) inputs: Vec<(PlaceId, u32)>,
    pub(crate) outputs: Vec<(PlaceId, u32)>,
    pub(crate) inhibitors: Vec<(PlaceId, u32)>,
    pub(crate) guard: Option<GuardFn>,
    pub(crate) effect: Option<EffectFn>,
}

impl TransitionDef {
    /// A timed transition with the given marking-dependent rate.
    pub fn timed(
        name: impl Into<String>,
        rate: impl Fn(&Marking) -> f64 + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            kind: TransitionKind::Timed {
                rate: Arc::new(rate),
            },
            inputs: Vec::new(),
            outputs: Vec::new(),
            inhibitors: Vec::new(),
            guard: None,
            effect: None,
        }
    }

    /// A timed transition with a constant rate.
    pub fn timed_const(name: impl Into<String>, rate: f64) -> Self {
        Self::timed(name, move |_| rate)
    }

    /// An immediate transition with constant weight 1 and priority 0.
    pub fn immediate(name: impl Into<String>) -> Self {
        Self::immediate_weighted(name, |_| 1.0, 0)
    }

    /// An immediate transition with marking-dependent weight and a priority
    /// level (higher fires first).
    pub fn immediate_weighted(
        name: impl Into<String>,
        weight: impl Fn(&Marking) -> f64 + Send + Sync + 'static,
        priority: u8,
    ) -> Self {
        Self {
            name: name.into(),
            kind: TransitionKind::Immediate {
                weight: Arc::new(weight),
                priority,
            },
            inputs: Vec::new(),
            outputs: Vec::new(),
            inhibitors: Vec::new(),
            guard: None,
            effect: None,
        }
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

    /// Add an inhibitor arc: the transition is disabled while `place` holds
    /// at least `threshold` tokens.
    pub fn inhibitor(mut self, place: PlaceId, threshold: u32) -> Self {
        self.inhibitors.push((place, threshold));
        self
    }

    /// Attach an enabling guard.
    pub fn guard(mut self, g: impl Fn(&Marking) -> bool + Send + Sync + 'static) -> Self {
        self.guard = Some(Arc::new(g));
        self
    }

    /// Attach a post-firing marking transformation.
    pub fn effect(mut self, e: impl Fn(&mut Marking) + Send + Sync + 'static) -> Self {
        self.effect = Some(Arc::new(e));
        self
    }
}

pub(crate) struct Transition {
    pub(crate) name: String,
    pub(crate) kind: TransitionKind,
    pub(crate) inputs: Vec<(PlaceId, u32)>,
    pub(crate) outputs: Vec<(PlaceId, u32)>,
    pub(crate) inhibitors: Vec<(PlaceId, u32)>,
    pub(crate) guard: Option<GuardFn>,
    pub(crate) effect: Option<EffectFn>,
}

/// Incrementally assembles an [`Spn`].
#[derive(Default)]
pub struct SpnBuilder {
    place_names: Vec<String>,
    initial: Vec<u32>,
    transitions: Vec<Transition>,
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
        self.transitions.push(Transition {
            name: def.name,
            kind: def.kind,
            inputs: def.inputs,
            outputs: def.outputs,
            inhibitors: def.inhibitors,
            guard: def.guard,
            effect: def.effect,
        });
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
    /// names, nets without places, or arcs pointing at unknown places.
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
            for &(p, _) in &t.inhibitors {
                if p.0 >= np {
                    return Err(SpnError::InvalidModel(format!(
                        "transition {} inhibitor references unknown place {:?}",
                        t.name, p
                    )));
                }
            }
        }
        Ok(Spn {
            place_names: self.place_names,
            initial: Marking::new(self.initial),
            transitions: self.transitions,
            absorbing: self.absorbing,
        })
    }
}

/// An immutable stochastic Petri net.
pub struct Spn {
    place_names: Vec<String>,
    initial: Marking,
    transitions: Vec<Transition>,
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
    pub(crate) fn transition_ref(&self, t: TransitionId) -> &Transition {
        &self.transitions[t.0 as usize]
    }

    /// True when `t` carries a custom marking-transform effect.
    pub fn has_effect(&self, t: TransitionId) -> bool {
        self.transitions[t.0 as usize].effect.is_some()
    }

    /// Look up a place id by name.
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
        for &(p, thresh) in &tr.inhibitors {
            if m.tokens(p) >= thresh {
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

    /// Rate of timed transition `t` in `m`, or `None` for immediates.
    ///
    /// # Errors
    /// Returns [`SpnError::BadRate`] for negative/non-finite rates.
    pub fn rate(&self, t: TransitionId, m: &Marking) -> Result<Option<f64>, SpnError> {
        let tr = &self.transitions[t.0 as usize];
        match &tr.kind {
            TransitionKind::Timed { rate } => {
                let r = rate(m);
                if !r.is_finite() || r < 0.0 {
                    return Err(SpnError::BadRate {
                        transition: tr.name.clone(),
                        value: r,
                    });
                }
                Ok(Some(r))
            }
            TransitionKind::Immediate { .. } => Ok(None),
        }
    }

    /// Weight and priority of immediate transition `t` in `m`, or `None`
    /// for timed transitions.
    ///
    /// # Errors
    /// Returns [`SpnError::BadRate`] for negative/non-finite weights.
    pub fn immediate_weight(
        &self,
        t: TransitionId,
        m: &Marking,
    ) -> Result<Option<(f64, u8)>, SpnError> {
        let tr = &self.transitions[t.0 as usize];
        match &tr.kind {
            TransitionKind::Immediate { weight, priority } => {
                let w = weight(m);
                if !w.is_finite() || w < 0.0 {
                    return Err(SpnError::BadRate {
                        transition: tr.name.clone(),
                        value: w,
                    });
                }
                Ok(Some((w, *priority)))
            }
            TransitionKind::Timed { .. } => Ok(None),
        }
    }

    /// True when `t` is an immediate transition.
    pub fn is_immediate(&self, t: TransitionId) -> bool {
        matches!(
            self.transitions[t.0 as usize].kind,
            TransitionKind::Immediate { .. }
        )
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
        if let Some(e) = &tr.effect {
            e(m);
        }
    }

    /// Fill `out` with the enabled timed transitions and their rates, in
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
            if let Some(r) = self.rate(t, m)? {
                if r > 0.0 {
                    out.push((t, r));
                }
            }
        }
        Ok(())
    }

    /// Enabled immediate transitions of the **highest enabled priority**
    /// with their weights; weight-zero transitions are filtered. Empty for
    /// absorbing markings.
    ///
    /// # Errors
    /// Propagates [`SpnError::BadRate`].
    pub fn enabled_immediate(&self, m: &Marking) -> Result<Vec<(TransitionId, f64)>, SpnError> {
        if self.is_absorbing_marking(m) {
            return Ok(Vec::new());
        }
        let mut best_priority = 0u8;
        let mut out: Vec<(TransitionId, f64, u8)> = Vec::new();
        for t in self.transition_ids() {
            if !self.is_enabled(t, m) {
                continue;
            }
            if let Some((w, pr)) = self.immediate_weight(t, m)? {
                if w > 0.0 {
                    best_priority = best_priority.max(pr);
                    out.push((t, w, pr));
                }
            }
        }
        Ok(out
            .into_iter()
            .filter(|&(_, _, pr)| pr == best_priority)
            .map(|(t, w, _)| (t, w))
            .collect())
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
    fn inhibitor_arc_disables() {
        let mut b = SpnBuilder::new();
        let a = b.add_place("A", 1);
        let block = b.add_place("Block", 1);
        b.add_transition(
            TransitionDef::timed_const("t", 1.0)
                .input(a, 1)
                .inhibitor(block, 1),
        );
        let net = b.build().unwrap();
        let t = net.transition_by_name("t").unwrap();
        let mut m = net.initial_marking();
        assert!(!net.is_enabled(t, &m));
        m.set_tokens(block, 0);
        assert!(net.is_enabled(t, &m));
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
    fn effect_transforms_marking() {
        let mut b = SpnBuilder::new();
        let a = b.add_place("A", 8);
        let g = b.add_place("G", 1);
        // partition: doubles groups, halves A
        b.add_transition(TransitionDef::timed_const("split", 1.0).effect(move |m| {
            let cur = m.tokens(a);
            m.set_tokens(a, cur / 2);
            m.add_tokens(g, 1);
        }));
        let net = b.build().unwrap();
        let t = net.transition_by_name("split").unwrap();
        let m2 = net.fire(t, &net.initial_marking());
        assert_eq!(m2.tokens(a), 4);
        assert_eq!(m2.tokens(g), 2);
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
        assert_eq!(net2.rate(t, &m).unwrap(), Some(3.5));
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
    fn immediate_priority_filtering() {
        let mut b = SpnBuilder::new();
        let a = b.add_place("A", 1);
        b.add_transition(TransitionDef::immediate_weighted("lo", |_| 1.0, 0).input(a, 1));
        b.add_transition(TransitionDef::immediate_weighted("hi", |_| 3.0, 2).input(a, 1));
        b.add_transition(TransitionDef::immediate_weighted("hi2", |_| 1.0, 2).input(a, 1));
        let net = b.build().unwrap();
        let en = net.enabled_immediate(&net.initial_marking()).unwrap();
        let names: Vec<&str> = en.iter().map(|&(t, _)| net.transition_name(t)).collect();
        assert_eq!(names, vec!["hi", "hi2"]);
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
