//! The transient engine: uniformization specialized for absorbing chains.
//!
//! [`TransientEngine`] is the hot path behind [`Ctmc::survival_curve`],
//! [`Ctmc::transient_distribution`] and [`Ctmc::expected_occupancy`]. It
//! restructures Jensen uniformization around four compounding optimizations:
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
//!
//! The engine is seeded from the chain's memoized uniformized DTMC and its
//! transpose (`Ctmc::uniformized`), so repeated sweeps on one `Ctmc`
//! — or on a [`crate::ctmc::CtmcTemplate`] instantiation across parameter
//! points — never rebuild structure.

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

/// Check for steady state every this many matvecs: the O(nt) max-norm diff
/// stays a few percent of the matvec cost while detection still lands
/// within 8 steps of the true fixed point.
const DETECT_STRIDE: u64 = 8;

/// Reusable uniformization sweep over one chain's transient block.
///
/// Construction partitions states, compacts the propagation blocks, and
/// scatters the initial distribution; [`TransientEngine::advance`] then
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
    /// Poisson-mixture accumulator for the transient block (length nt).
    acc_v: Vec<f64>,
    /// Poisson-mixture accumulator for absorbed mass (length na).
    acc_abs: Vec<f64>,
    /// One-step absorption flux scratch (length na).
    flux: Vec<f64>,
    /// Reused Fox–Glynn weight window.
    weights: PoissonWeights,
    /// Telemetry for the sweep so far.
    stats: TransientStats,
}

impl TransientEngine {
    /// Set up a sweep from the chain's initial distribution, maintaining
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
        let (q, _) = ctmc.uniformized();
        let ut = ctmc.uniformized_transpose();
        let exit = ctmc.exit_rates();
        let absorbing = ctmc.absorbing();

        // Partition: frozen classes are the true sinks (zero exit rate —
        // always flagged absorbing by construction); everything else
        // propagates.
        let mut local = vec![u32::MAX; n];
        let mut transient_index = Vec::new();
        let mut class_index = Vec::new();
        for s in 0..n {
            if exit[s] == 0.0 {
                class_index.push(s as u32);
            } else {
                local[s] = transient_index.len() as u32;
                transient_index.push(s as u32);
            }
        }
        let nt = transient_index.len();
        let na = class_index.len();
        let flagged_live: Vec<u32> = transient_index
            .iter()
            .enumerate()
            .filter(|&(_, &gs)| absorbing[gs as usize])
            .map(|(li, _)| li as u32)
            .collect();

        // Compact the gather blocks out of the transposed uniformized DTMC.
        // Explicit template zeros are dropped (templates keep them so value
        // arrays stay index-stable across refreshes; the engine does not
        // need that), and sources stay in ascending order, so each row's
        // dot-product accumulates in the same order as the sequential
        // forward scatter — the compaction is value-neutral bit-for-bit.
        let mut g_ptr = Vec::with_capacity(nt + 1);
        let mut g_col: Vec<u32> = Vec::new();
        let mut g_val: Vec<f64> = Vec::new();
        g_ptr.push(0u32);
        for &gt in &transient_index {
            for (src, p) in ut.row(gt as usize) {
                if p != 0.0 {
                    debug_assert!(
                        local[src] != u32::MAX,
                        "frozen state {src} has outgoing probability"
                    );
                    g_col.push(local[src]);
                    g_val.push(p);
                }
            }
            g_ptr.push(g_col.len() as u32);
        }
        let g = EllMatrix::from_csr(&Csr::from_pattern(
            Arc::new(CsrPattern::new(nt, nt, g_ptr, g_col)),
            g_val,
        ));

        let mut ta_ptr = Vec::with_capacity(na + 1);
        let mut ta_col: Vec<u32> = Vec::new();
        let mut ta_val: Vec<f64> = Vec::new();
        ta_ptr.push(0u32);
        for &ga in &class_index {
            // The frozen state's own self-loop (diagonal 1.0) is excluded
            // by the transient-source filter: absorbed mass is tracked
            // directly, not re-multiplied.
            for (src, p) in ut.row(ga as usize) {
                if local[src] != u32::MAX && p != 0.0 {
                    ta_col.push(local[src]);
                    ta_val.push(p);
                }
            }
            ta_ptr.push(ta_col.len() as u32);
        }
        let ta = EllMatrix::from_csr(&Csr::from_pattern(
            Arc::new(CsrPattern::new(na, nt, ta_ptr, ta_col)),
            ta_val,
        ));

        // Scatter the initial distribution into the split representation.
        let mut v = vec![0.0; nt];
        let mut absorbed = vec![0.0; na];
        let mut class_slot = vec![u32::MAX; n];
        for (j, &ga) in class_index.iter().enumerate() {
            class_slot[ga as usize] = j as u32;
        }
        for &(s, p) in ctmc.initial_pairs() {
            let s = s as usize;
            if local[s] != u32::MAX {
                v[local[s] as usize] += p;
            } else {
                absorbed[class_slot[s] as usize] += p;
            }
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
            acc_v: vec![0.0; nt],
            acc_abs: vec![0.0; na],
            flux: vec![0.0; na],
            weights: PoissonWeights::compute(0.0, opts.epsilon),
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
        self.weights.compute_into(self.q * dt, self.epsilon);
        let right = self.weights.right;
        self.acc_v.fill(0.0);
        self.acc_abs.fill(0.0);
        let mut cum = 0.0_f64;
        let mut k = 0usize;
        loop {
            let w = self.weights.weight(k);
            if w > 0.0 {
                cum += w;
                axpy(&mut self.acc_v, w, &self.v);
                if self.track_absorbed {
                    axpy(&mut self.acc_abs, w, &self.absorbed);
                }
            }
            if k >= right {
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
            if self.detect_tolerance > 0.0 && self.stats.matvecs.is_multiple_of(DETECT_STRIDE) {
                let dmax = max_abs_diff(&self.next, &self.v);
                if dmax <= self.detect_tolerance {
                    // Fixed point to working precision: every remaining
                    // mixture term equals the current iterate, so the tail
                    // collapses to a single scaled add.
                    std::mem::swap(&mut self.v, &mut self.next);
                    let rem = (1.0 - cum).max(0.0);
                    axpy(&mut self.acc_v, rem, &self.v);
                    if self.track_absorbed {
                        axpy(&mut self.acc_abs, rem, &self.absorbed);
                    }
                    if self.stats.detection_step.is_none() {
                        self.stats.detection_step = Some(self.stats.matvecs);
                    }
                    break;
                }
            }
            std::mem::swap(&mut self.v, &mut self.next);
            k += 1;
        }
        std::mem::swap(&mut self.v, &mut self.acc_v);
        if self.track_absorbed {
            std::mem::swap(&mut self.absorbed, &mut self.acc_abs);
        }
    }

    /// Survival probability at the current time point, clamped to [0, 1]:
    /// live transient mass minus flagged-live mass in survival-only mode,
    /// `1 − (absorbed + flagged live)` when the per-class split is
    /// maintained. The two differ only by conservation roundoff.
    fn survival(&self) -> f64 {
        let flagged: f64 = self
            .flagged_live
            .iter()
            .map(|&li| self.v[li as usize])
            .sum();
        if self.track_absorbed {
            let absorbed: f64 = self.absorbed.iter().sum();
            (1.0 - absorbed - flagged).clamp(0.0, 1.0)
        } else {
            (self.live_mass() - flagged).clamp(0.0, 1.0)
        }
    }

    /// Total probability mass still in the transient block.
    fn live_mass(&self) -> f64 {
        self.v.iter().sum()
    }

    /// Sweep an ascending mission grid, reading survival at each point.
    ///
    /// Propagation is segment-by-segment (`t_{k-1} → t_k`); once live
    /// transient mass drops below `epsilon` with points still remaining
    /// (and early exit is enabled), the rest of the curve is filled with
    /// zeros without further matvecs.
    pub fn survival_curve(&mut self, times: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(times.len());
        let mut now = 0.0_f64;
        for (i, &t) in times.iter().enumerate() {
            if t > now {
                self.advance(t - now);
                now = t;
            }
            out.push(self.survival());
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
        let n = self.transient_index.len() + self.class_index.len();
        let mut out = vec![0.0; n];
        for (li, &gs) in self.transient_index.iter().enumerate() {
            out[gs as usize] = self.v[li];
        }
        for (j, &ga) in self.class_index.iter().enumerate() {
            out[ga as usize] = self.absorbed[j];
        }
        out
    }

    /// Expected occupancy `∫₀ᵗ π(u) du` from the engine's current point
    /// (normally the initial distribution), as a full-length vector.
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
        self.weights.compute_into(self.q * t, self.epsilon);
        let right = self.weights.right;
        self.acc_v.fill(0.0);
        self.acc_abs.fill(0.0);
        let mut cum = 0.0_f64;
        let mut k = 0usize;
        loop {
            cum += self.weights.weight(k);
            let f = (1.0 - cum).max(0.0) / self.q;
            if f > 0.0 {
                axpy(&mut self.acc_v, f, &self.v);
                axpy(&mut self.acc_abs, f, &self.absorbed);
            }
            if k >= right || self.transient_index.is_empty() {
                if self.transient_index.is_empty() && k < right {
                    // Frozen-only chain: remaining tail factors apply to a
                    // constant vector; finish the scalar sum analytically.
                    let mut c = cum;
                    let mut rem = 0.0_f64;
                    for k2 in (k + 1)..=right {
                        c += self.weights.weight(k2);
                        rem += (1.0 - c).max(0.0);
                    }
                    axpy(&mut self.acc_abs, rem / self.q, &self.absorbed);
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
                        c += self.weights.weight(k2);
                        rem += (1.0 - c).max(0.0);
                    }
                    let f = rem / self.q;
                    axpy(&mut self.acc_v, f, &self.v);
                    axpy(&mut self.acc_abs, f, &self.absorbed);
                    if self.stats.detection_step.is_none() {
                        self.stats.detection_step = Some(self.stats.matvecs);
                    }
                    break;
                }
            }
            std::mem::swap(&mut self.v, &mut self.next);
            k += 1;
        }
        let n = self.transient_index.len() + self.class_index.len();
        let mut out = vec![0.0; n];
        for (li, &gs) in self.transient_index.iter().enumerate() {
            out[gs as usize] = self.acc_v[li];
        }
        for (j, &ga) in self.class_index.iter().enumerate() {
            out[ga as usize] = self.acc_abs[j];
        }
        out
    }
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
