//! The transient engine: uniformization specialized for absorbing chains.
//!
//! [`TransientEngine`] is the hot path behind [`Ctmc::survival_curve`],
//! [`Ctmc::survival_curve_observed`], [`Ctmc::survival_at`],
//! [`Ctmc::transient_distribution`] and [`Ctmc::expected_occupancy`]. It
//! restructures Jensen uniformization around five compounding
//! optimizations:
//!
//! 1. **Transient-submatrix propagation.** States are partitioned into the
//!    *transient block* (positive exit rate) and *frozen classes* (zero exit
//!    rate — true sinks of the chain). Matvecs run on the compact
//!    `nt × nt` block `Uᵀ_TT` only; probability flowing into a frozen class
//!    is accumulated as a single scalar per class via a small `na × nt`
//!    flux block, so survival reads are O(classes), not O(n).
//! 2. **Steady-state detection** (Reibman–Trivedi): once consecutive DTMC
//!    iterates agree to `detect_tolerance` in max-norm, the vector is a
//!    fixed point to working precision and every further matvec would
//!    reproduce it. The remaining Poisson tail is collapsed analytically
//!    (`Σ_{k>k*} w_k · v_{k*}`), and whole-grid propagation stops early
//!    once live transient mass drops below `epsilon` (survival clamps to 0
//!    for all later mission times).
//! 3. **Deterministic gather matvecs.** Propagation multiplies by the
//!    *transposed* uniformized DTMC, so each output element is an
//!    independent dot-product over sources in ascending order — the exact
//!    accumulation order of the sequential forward scatter. The sweep is
//!    always sequential, so it never depends on the thread count.
//! 4. **Zero allocation after setup.** The engine owns every buffer the
//!    sweep needs (iterate, accumulator, flux, Poisson-weight scratch); a
//!    whole survival grid performs no heap allocation after
//!    [`TransientEngine::new`] returns.
//! 5. **One pass for many horizons.** Every from-zero solve multiplies the
//!    same DTMC iterates `v_k = v₀Pᵏ` and differs only in its Poisson
//!    weights, so [`TransientEngine::survival_at`] walks one iterate
//!    sequence to the largest right truncation point and adds
//!    `w_k(t_p)·v_k` to each still open horizon's accumulator. Each
//!    horizon sums its terms in the order a fresh engine would, and a
//!    steady-state detection applies each open horizon's own `1 − cum_p`
//!    tail, so every result is bit-identical to one fresh engine per
//!    horizon. [`TransientEngine::advance`] is the one-horizon case of the
//!    same loop. A grid sweep hands each point's live block `π_T(t)` to a
//!    read-only observer ([`SweepPoint`]), so a reward read at the grid
//!    points costs no second pass.
//!
//! The engine builds its gather blocks straight from the chain's rate
//! matrix: the chain stores no uniformized DTMC, and a sweep that runs no
//! transient solve never pays for one.

use crate::ctmc::{Ctmc, TransientOptions};
use numerics::foxglynn::PoissonWeights;
use numerics::sparse::{Csr, CsrPattern, EllMatrix};
use std::sync::Arc;

/// Propagation telemetry from one engine sweep, wired through run reports
/// and the bench snapshot so the optimizations stay measured and gated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransientStats {
    /// Number of `Uᵀ_TT` matrix-vector products performed.
    pub matvecs: u64,
    /// Global matvec index at which steady-state detection fired, if it
    /// did. Deterministic for a fixed chain/grid/options.
    pub detection_step: Option<u64>,
    /// True when grid propagation stopped early because live transient
    /// mass fell below `epsilon` with mission points still remaining.
    pub early_exit: bool,
    /// Size of the transient block (states with positive exit rate).
    pub transient_states: u32,
    /// Number of frozen absorbing classes (states with zero exit rate).
    pub absorbing_states: u32,
}

impl TransientStats {
    /// Fold another sweep's telemetry into this one (used when an
    /// evaluation runs several engine sweeps, e.g. hierarchical models):
    /// matvecs add, the first detection step wins, early-exit is sticky,
    /// and the state split keeps the largest sweep.
    pub fn merge(&mut self, other: &TransientStats) {
        self.matvecs += other.matvecs;
        if self.detection_step.is_none() {
            self.detection_step = other.detection_step;
        }
        self.early_exit |= other.early_exit;
        self.transient_states = self.transient_states.max(other.transient_states);
        self.absorbing_states = self.absorbing_states.max(other.absorbing_states);
    }
}

/// One grid point of a survival sweep, as its observer sees it: the
/// transient-block distribution `π_T(t)` the survival value was read from.
/// Frozen classes have no slot. A state flagged absorbing despite a
/// positive exit rate keeps its slot, though survival counts it as failed.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint<'a> {
    /// Position of the point in the grid.
    pub index: usize,
    /// Survival at the point, the value the curve reports.
    pub survival: f64,
    /// Global state id of each transient-block slot, ascending.
    pub states: &'a [u32],
    /// Probability mass of each transient-block slot.
    pub mass: &'a [f64],
}

/// Check for steady state every this many matvecs: the O(nt) max-norm diff
/// stays a few percent of the matvec cost while detection still lands
/// within 8 steps of the true fixed point.
const DETECT_STRIDE: u64 = 8;

/// Reusable uniformization sweep over one chain's transient block.
///
/// Construction partitions states, compacts the propagation blocks, and
/// puts the start's mass on state 0; [`TransientEngine::advance`] then
/// moves the iterate forward by any `dt > 0` with zero allocation. One
/// engine serves a whole mission grid ([`TransientEngine::survival_curve`])
/// or a single horizon ([`TransientEngine::occupancy`]).
pub struct TransientEngine {
    /// Uniformization rate of the source chain.
    q: f64,
    /// Poisson truncation error per segment.
    epsilon: f64,
    /// Steady-state detection tolerance (`0.0` disables detection).
    detect_tolerance: f64,
    /// Whether whole-grid early exit on vanished transient mass is allowed.
    early_exit_enabled: bool,
    /// Whether per-class absorbed mass is maintained step-by-step. The
    /// survival sweep reads only live transient mass, so it skips the
    /// `Uᵀ_AT` flux gather entirely; distribution/occupancy sweeps need
    /// the per-class split and pay for it.
    track_absorbed: bool,
    /// Compact transposed uniformized transient block `Uᵀ_TT` (nt × nt) in
    /// padded fixed-width layout, explicit zeros dropped, sources ascending
    /// within each row.
    g: EllMatrix,
    /// Per-class absorption flux rows `Uᵀ_AT` (na × nt): row `j` gathers
    /// one step's probability flow from the transient block into frozen
    /// class `j`.
    ta: EllMatrix,
    /// Global state id of each transient-block slot.
    transient_index: Vec<u32>,
    /// Global state id of each frozen absorbing class.
    class_index: Vec<u32>,
    /// Transient-block slots whose state carries the absorbing flag despite
    /// a positive exit rate (legal in hand-assembled graphs); their mass
    /// counts as failed in survival reads. Empty for promoted-only chains.
    flagged_live: Vec<u32>,
    /// Current transient iterate (length nt).
    v: Vec<f64>,
    /// Accumulated probability mass per frozen class (length na).
    absorbed: Vec<f64>,
    /// Matvec output scratch (length nt).
    next: Vec<f64>,
    /// One-step absorption flux scratch (length na).
    flux: Vec<f64>,
    /// Poisson-mixture horizons. [`TransientEngine::advance`] and
    /// [`TransientEngine::occupancy`] reuse the first; a multi-horizon
    /// pass grows the list to one per requested time.
    horizons: Vec<Horizon>,
    /// Telemetry for the sweep so far.
    stats: TransientStats,
}

/// One horizon of a Poisson-mixture pass: its Fox–Glynn window, the
/// weight summed so far, and the mixture accumulators.
struct Horizon {
    /// Fox–Glynn weight window of `q·t` for this horizon.
    weights: PoissonWeights,
    /// Σ of the weights added so far (the steady-state tail is `1 − cum`).
    cum: f64,
    /// Mixture accumulator for the transient block (length nt).
    acc_v: Vec<f64>,
    /// Mixture accumulator for absorbed mass (length na; empty in
    /// survival-only passes, which never read it).
    acc_abs: Vec<f64>,
    /// Whether the mixture still takes terms.
    open: bool,
}

impl Horizon {
    fn new(nt: usize, na: usize, epsilon: f64) -> Self {
        Self {
            weights: PoissonWeights::compute(0.0, epsilon),
            cum: 0.0,
            acc_v: vec![0.0; nt],
            acc_abs: vec![0.0; na],
            open: false,
        }
    }

    /// Reset for a mixture over `Poisson(lambda)`.
    fn arm(&mut self, lambda: f64, epsilon: f64) {
        self.weights.compute_into(lambda, epsilon);
        self.cum = 0.0;
        self.acc_v.fill(0.0);
        self.acc_abs.fill(0.0);
        self.open = true;
    }
}

impl TransientEngine {
    /// Set up a sweep from the chain's start (state 0), maintaining
    /// the full per-class absorbed split (what
    /// [`TransientEngine::distribution`] and [`TransientEngine::occupancy`]
    /// need).
    ///
    /// # Panics
    /// Panics if `opts.epsilon` is not in (0, 1) or `opts.detect_tolerance`
    /// is negative.
    pub fn new(ctmc: &Ctmc, opts: &TransientOptions) -> Self {
        Self::with_mode(ctmc, opts, true)
    }

    /// Survival-only sweep: absorbed mass is not split per class, so every
    /// propagation step skips the `Uᵀ_AT` flux gather — survival reads live
    /// transient mass directly. [`TransientEngine::distribution`] and
    /// [`TransientEngine::occupancy`] are unavailable in this mode.
    ///
    /// # Panics
    /// Same conditions as [`TransientEngine::new`].
    pub fn for_survival(ctmc: &Ctmc, opts: &TransientOptions) -> Self {
        Self::with_mode(ctmc, opts, false)
    }

    fn with_mode(ctmc: &Ctmc, opts: &TransientOptions, track_absorbed: bool) -> Self {
        assert!(
            opts.epsilon > 0.0 && opts.epsilon < 1.0,
            "bad epsilon {}",
            opts.epsilon
        );
        assert!(
            opts.detect_tolerance >= 0.0,
            "bad detect tolerance {}",
            opts.detect_tolerance
        );
        let n = ctmc.state_count();
        let q = ctmc.uniformization_rate();
        let exit = ctmc.exit_rates();
        let absorbing = ctmc.absorbing();

        // Partition: frozen classes are the true sinks (zero exit rate —
        // always flagged absorbing by construction); everything else
        // propagates.
        let (transient_index, class_index): (Vec<u32>, Vec<u32>) =
            (0..n as u32).partition(|&s| exit[s as usize] != 0.0);
        let nt = transient_index.len();
        let na = class_index.len();
        let flagged_live: Vec<u32> = transient_index
            .iter()
            .enumerate()
            .filter(|&(_, &gs)| absorbing[gs as usize])
            .map(|(li, _)| li as u32)
            .collect();
        // Row of each state in the stacked gather operand [Uᵀ_TT; Uᵀ_AT]:
        // transient slots first, then frozen classes.
        let mut row = vec![0u32; n];
        for (r, &s) in transient_index.iter().chain(&class_index).enumerate() {
            row[s as usize] = r as u32;
        }

        // Both gather blocks in one counting sort over the uniformized rows
        // of the transient states: entry `src → dst` lands in row `dst` at
        // column `src`. Sources are visited in ascending order, so each
        // row's dot product accumulates in the order of the sequential
        // forward scatter. Explicit-zero edges are skipped, and frozen
        // states contribute nothing: their only entry is their own
        // diagonal, and absorbed mass is tracked directly.
        let mut ptr = vec![0u32; n + 1];
        for &src in &transient_index {
            for (dst, _) in ctmc.uniformized_row(src as usize) {
                ptr[row[dst] as usize + 1] += 1;
            }
        }
        for r in 0..n {
            ptr[r + 1] += ptr[r];
        }
        let mut fill = ptr.clone();
        let mut col = vec![0u32; ptr[n] as usize];
        let mut val = vec![0.0_f64; ptr[n] as usize];
        for &src in &transient_index {
            for (dst, p) in ctmc.uniformized_row(src as usize) {
                let at = &mut fill[row[dst] as usize];
                col[*at as usize] = row[src as usize];
                val[*at as usize] = p;
                *at += 1;
            }
        }
        let split = ptr[nt];
        let ta_ptr = ptr[nt..].iter().map(|&p| p - split).collect();
        ptr.truncate(nt + 1);
        let ta_col = col.split_off(split as usize);
        let ta_val = val.split_off(split as usize);
        let g = ell(nt, nt, ptr, col, val);
        let ta = ell(na, nt, ta_ptr, ta_col, ta_val);

        // Put the start's mass (state 0) into the split representation.
        let mut v = vec![0.0; nt];
        let mut absorbed = vec![0.0; na];
        match row[0] as usize {
            r if r < nt => v[r] = 1.0,
            r => absorbed[r - nt] = 1.0,
        }

        Self {
            q,
            epsilon: opts.epsilon,
            detect_tolerance: opts.detect_tolerance,
            early_exit_enabled: opts.early_exit,
            track_absorbed,
            g,
            ta,
            transient_index,
            class_index,
            flagged_live,
            v,
            absorbed,
            next: vec![0.0; nt],
            flux: vec![0.0; na],
            horizons: vec![Horizon::new(
                nt,
                if track_absorbed { na } else { 0 },
                opts.epsilon,
            )],
            stats: TransientStats {
                matvecs: 0,
                detection_step: None,
                early_exit: false,
                transient_states: nt as u32,
                absorbing_states: na as u32,
            },
        }
    }

    /// Telemetry accumulated so far.
    pub fn stats(&self) -> &TransientStats {
        &self.stats
    }

    /// Advance the iterate by `dt > 0` via one truncated Poisson mixture.
    ///
    /// Performs no heap allocation (the weight window and all vectors are
    /// engine-owned scratch). When steady-state detection fires, the
    /// remaining Poisson tail `Σ_{k > k*} w_k` is applied to the fixed
    /// point analytically instead of step-by-step.
    pub fn advance(&mut self, dt: f64) {
        debug_assert!(dt > 0.0, "advance needs dt > 0, got {dt}");
        if self.transient_index.is_empty() {
            // All mass is frozen; the mixture Σ w_k · absorbed is absorbed.
            return;
        }
        self.horizons[0].arm(self.q * dt, self.epsilon);
        self.mix(1);
        let h = &mut self.horizons[0];
        std::mem::swap(&mut self.v, &mut h.acc_v);
        if self.track_absorbed {
            std::mem::swap(&mut self.absorbed, &mut h.acc_abs);
        }
    }

    /// The Poisson-mixture loop shared by [`TransientEngine::advance`] and
    /// the multi-horizon pass: walk the DTMC iterates `v_k` from the
    /// current point and add `w_k·v_k` to each open horizon among the
    /// first `count` until its right truncation point. On steady-state
    /// detection every still-open horizon takes its own remaining tail
    /// `1 − cum` against the fixed point. Each horizon's accumulator sees
    /// exactly the terms, in exactly the order, of a one-horizon run.
    /// Leaves the iterate at the last step taken, not at a time point.
    fn mix(&mut self, count: usize) {
        let horizons = &mut self.horizons[..count];
        let mut open = horizons.iter().filter(|h| h.open).count();
        let mut k = 0usize;
        while open > 0 {
            for h in horizons.iter_mut().filter(|h| h.open) {
                let w = h.weights.weight(k);
                if w > 0.0 {
                    h.cum += w;
                    axpy(&mut h.acc_v, w, &self.v);
                    if self.track_absorbed {
                        axpy(&mut h.acc_abs, w, &self.absorbed);
                    }
                }
                if k >= h.weights.right {
                    h.open = false;
                    open -= 1;
                }
            }
            if open == 0 {
                break;
            }
            // One DTMC step: first bank the flux into frozen classes (only
            // when the per-class split is maintained), then propagate the
            // transient block.
            if self.track_absorbed {
                self.ta.gather_into(&self.v, &mut self.flux);
                axpy(&mut self.absorbed, 1.0, &self.flux);
            }
            self.g.gather_into(&self.v, &mut self.next);
            self.stats.matvecs += 1;
            std::mem::swap(&mut self.v, &mut self.next);
            if self.detect_tolerance > 0.0
                && self.stats.matvecs.is_multiple_of(DETECT_STRIDE)
                && max_abs_diff(&self.v, &self.next) <= self.detect_tolerance
            {
                // Fixed point to working precision: every remaining
                // mixture term equals the current iterate, so each open
                // tail collapses to a single scaled add.
                for h in horizons.iter_mut().filter(|h| h.open) {
                    let rem = (1.0 - h.cum).max(0.0);
                    axpy(&mut h.acc_v, rem, &self.v);
                    if self.track_absorbed {
                        axpy(&mut h.acc_abs, rem, &self.absorbed);
                    }
                    h.open = false;
                }
                if self.stats.detection_step.is_none() {
                    self.stats.detection_step = Some(self.stats.matvecs);
                }
                break;
            }
            k += 1;
        }
    }

    /// Arm one horizon per time (growing the horizon list if needed) and
    /// run one shared mixture pass. A zero time, or a chain with no
    /// transient block, reads the current point unchanged, as a fresh
    /// engine does.
    fn pass(&mut self, times: &[f64]) {
        let nt = self.transient_index.len();
        let na = if self.track_absorbed {
            self.class_index.len()
        } else {
            0
        };
        let epsilon = self.epsilon;
        if self.horizons.len() < times.len() {
            self.horizons
                .resize_with(times.len(), || Horizon::new(nt, na, epsilon));
        }
        for (h, &t) in self.horizons.iter_mut().zip(times) {
            assert!(t.is_finite() && t >= 0.0, "bad horizon {t}");
            if t > 0.0 && nt > 0 {
                h.arm(self.q * t, epsilon);
            } else {
                h.acc_v.copy_from_slice(&self.v);
                if self.track_absorbed {
                    h.acc_abs.copy_from_slice(&self.absorbed);
                }
                h.open = false;
            }
        }
        self.mix(times.len());
    }

    /// Survival `P[no absorption by t]` at each of `times` (any order,
    /// duplicates allowed) from one multi-horizon pass, each bit-identical
    /// to a fresh one-point [`TransientEngine::survival_curve`]. Consumes
    /// the engine: its iterate ends at a DTMC step, not at a time point.
    ///
    /// # Panics
    /// Panics if a time is negative or not finite.
    pub fn survival_at(mut self, times: &[f64]) -> (Vec<f64>, TransientStats) {
        self.pass(times);
        let out = self.horizons[..times.len()]
            .iter()
            .map(|h| self.survival_of(&h.acc_v, &h.acc_abs))
            .collect();
        (out, self.stats)
    }

    /// Survival probability of the split state `(v, absorbed)`, clamped to
    /// [0, 1]: live transient mass minus flagged-live mass in survival-only
    /// mode, `1 − (absorbed + flagged live)` when the per-class split is
    /// maintained. The two differ only by conservation roundoff.
    fn survival_of(&self, v: &[f64], absorbed: &[f64]) -> f64 {
        let flagged: f64 = self.flagged_live.iter().map(|&li| v[li as usize]).sum();
        if self.track_absorbed {
            let absorbed: f64 = absorbed.iter().sum();
            (1.0 - absorbed - flagged).clamp(0.0, 1.0)
        } else {
            let live: f64 = v.iter().sum();
            (live - flagged).clamp(0.0, 1.0)
        }
    }

    /// Total probability mass still in the transient block.
    fn live_mass(&self) -> f64 {
        self.v.iter().sum()
    }

    /// Sweep an ascending mission grid, reading survival at each point and
    /// handing it to `observe` with the live block it was read from.
    ///
    /// Propagation is segment-by-segment (`t_{k-1} → t_k`); once live
    /// transient mass drops below `epsilon` with points still remaining
    /// (and early exit is enabled), the rest of the curve is filled with
    /// zeros without further matvecs, and those points are not observed.
    pub fn survival_curve(
        &mut self,
        times: &[f64],
        mut observe: impl FnMut(SweepPoint<'_>),
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(times.len());
        let mut now = 0.0_f64;
        for (i, &t) in times.iter().enumerate() {
            if t > now {
                self.advance(t - now);
                now = t;
            }
            let survival = self.survival_of(&self.v, &self.absorbed);
            observe(SweepPoint {
                index: i,
                survival,
                states: &self.transient_index,
                mass: &self.v,
            });
            out.push(survival);
            if self.early_exit_enabled && i + 1 < times.len() && self.live_mass() < self.epsilon {
                self.stats.early_exit = true;
                out.resize(times.len(), 0.0);
                break;
            }
        }
        out
    }

    /// Full-length distribution at the current time point (transient slots
    /// and frozen classes scattered back to global state indices).
    pub fn distribution(&self) -> Vec<f64> {
        debug_assert!(
            self.track_absorbed,
            "distribution() needs a full-tracking engine (TransientEngine::new)"
        );
        self.scatter(&self.v, &self.absorbed)
    }

    /// Scatter a split state back to a full-length vector over global
    /// state indices.
    fn scatter(&self, v: &[f64], absorbed: &[f64]) -> Vec<f64> {
        let n = self.transient_index.len() + self.class_index.len();
        let mut out = vec![0.0; n];
        for (li, &gs) in self.transient_index.iter().enumerate() {
            out[gs as usize] = v[li];
        }
        for (j, &ga) in self.class_index.iter().enumerate() {
            out[ga as usize] = absorbed[j];
        }
        out
    }

    /// Expected occupancy `∫₀ᵗ π(u) du` from the engine's current point
    /// (normally the start, state 0), as a full-length vector.
    ///
    /// Uses the standard uniformization identity
    /// `∫₀ᵗ π(u) du = (1/q) Σ_k tail_k(q·t) · v_k` where
    /// `tail_k = P[Poisson(q·t) > k]`. On steady-state detection the
    /// remaining tail sum is evaluated analytically against the fixed
    /// point.
    pub fn occupancy(&mut self, t: f64) -> Vec<f64> {
        debug_assert!(t > 0.0, "occupancy needs t > 0, got {t}");
        debug_assert!(
            self.track_absorbed,
            "occupancy() needs a full-tracking engine (TransientEngine::new)"
        );
        let h = &mut self.horizons[0];
        h.arm(self.q * t, self.epsilon);
        let right = h.weights.right;
        let mut cum = 0.0_f64;
        let mut k = 0usize;
        loop {
            cum += h.weights.weight(k);
            let f = (1.0 - cum).max(0.0) / self.q;
            if f > 0.0 {
                axpy(&mut h.acc_v, f, &self.v);
                axpy(&mut h.acc_abs, f, &self.absorbed);
            }
            if k >= right || self.transient_index.is_empty() {
                if self.transient_index.is_empty() && k < right {
                    // Frozen-only chain: remaining tail factors apply to a
                    // constant vector; finish the scalar sum analytically.
                    let mut c = cum;
                    let mut rem = 0.0_f64;
                    for k2 in (k + 1)..=right {
                        c += h.weights.weight(k2);
                        rem += (1.0 - c).max(0.0);
                    }
                    axpy(&mut h.acc_abs, rem / self.q, &self.absorbed);
                }
                break;
            }
            self.ta.gather_into(&self.v, &mut self.flux);
            axpy(&mut self.absorbed, 1.0, &self.flux);
            self.g.gather_into(&self.v, &mut self.next);
            self.stats.matvecs += 1;
            if self.detect_tolerance > 0.0 && self.stats.matvecs.is_multiple_of(DETECT_STRIDE) {
                let dmax = max_abs_diff(&self.next, &self.v);
                if dmax <= self.detect_tolerance {
                    std::mem::swap(&mut self.v, &mut self.next);
                    // Remaining Σ tail_k against the frozen fixed point.
                    let mut c = cum;
                    let mut rem = 0.0_f64;
                    for k2 in (k + 1)..=right {
                        c += h.weights.weight(k2);
                        rem += (1.0 - c).max(0.0);
                    }
                    let f = rem / self.q;
                    axpy(&mut h.acc_v, f, &self.v);
                    axpy(&mut h.acc_abs, f, &self.absorbed);
                    if self.stats.detection_step.is_none() {
                        self.stats.detection_step = Some(self.stats.matvecs);
                    }
                    break;
                }
            }
            std::mem::swap(&mut self.v, &mut self.next);
            k += 1;
        }
        let h = &self.horizons[0];
        self.scatter(&h.acc_v, &h.acc_abs)
    }
}

/// A gather block in padded fixed-width layout, from its CSR parts.
fn ell(rows: usize, cols: usize, ptr: Vec<u32>, col: Vec<u32>, val: Vec<f64>) -> EllMatrix {
    EllMatrix::from_csr(&Csr::from_pattern(
        Arc::new(CsrPattern::new(rows, cols, ptr, col)),
        val,
    ))
}

/// `y += a·x` in index order (the accumulation order the determinism
/// contract pins).
#[inline]
fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Max-norm distance between two equal-length vectors.
#[inline]
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    let mut m = 0.0_f64;
    for (&x, &y) in a.iter().zip(b) {
        let d = (x - y).abs();
        if d > m {
            m = d;
        }
    }
    m
}
