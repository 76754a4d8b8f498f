//! Continuous-time Markov chain analysis over the reachability graph.
//!
//! Three solver families:
//!
//! * **Absorption**: expected sojourn times in the transient states solve
//!   the sparse linear system `Qᵀ_TT σ = −π₀`; the mean time to absorption
//!   is `Σ σ` (the paper's MTTSF), and expected accumulated rewards until
//!   absorption are `Σ σᵢ rᵢ` (the paper's Ĉtotal numerator). Absorption
//!   probabilities per absorbing state fall out of the same vector, which
//!   tells us whether a run failed through data leak (C1) or Byzantine
//!   capture (C2).
//! * **Transient**: `π(t)` and `∫₀ᵗ π(u) du` via uniformization with
//!   Poisson weights — the direct numerical form of the paper's
//!   `MTTSF = ∫ Σ rᵢ Pᵢ(t) dt` definition.
//! * **Steady state**: power iteration on the uniformized chain for ergodic
//!   nets.
//!
//! A chain stores one matrix, its rates, built by [`CtmcTemplate`]. The
//! transient engine and the steady-state solve read the uniformized DTMC
//! `P = I + Q/q` off it row by row.

use crate::error::SpnError;
use crate::reach::{ReachabilityGraph, ShareRates};
use crate::transient::{SweepPoint, TransientEngine, TransientStats};
use numerics::linsolve::IterConfig;
use numerics::sparse::{Csr, CsrPattern, Triplets};
use std::sync::{Arc, OnceLock};

/// A CTMC extracted from a reachability graph. It starts in state 0,
/// the net's initial marking, with probability 1.
#[derive(Debug, Clone)]
pub struct Ctmc {
    /// Off-diagonal rate matrix (row = source state) on its
    /// [`CtmcTemplate`]'s pattern. Edges of zero rate stay in the pattern
    /// as explicit zeros.
    rates: Csr,
    /// Total exit rate per state.
    exit: Vec<f64>,
    /// Uniformization rate of `exit` (`uniformization_q`), set wherever
    /// `exit` is.
    q: f64,
    /// Absorbing flags.
    absorbing: Vec<bool>,
    /// The structural half of the absorption solve, built on the first
    /// [`Ctmc::mean_time_to_absorption`]. [`CtmcTemplate::refresh`] keeps
    /// it while the positive-rate pattern and absorbing flags are
    /// unchanged and drops it otherwise.
    absorb: OnceLock<Result<AbsorptionStructure, SpnError>>,
}

/// Options for uniformization-based transient analysis.
#[derive(Debug, Clone, Copy)]
pub struct TransientOptions {
    /// Poisson truncation error.
    pub epsilon: f64,
    /// Steady-state detection tolerance (Reibman–Trivedi): once
    /// `‖v·P − v‖∞` of the uniformized chain drops below this, the
    /// remaining Poisson mixture collapses to an analytic tail and no
    /// further matvecs run. `0.0` disables detection.
    pub detect_tolerance: f64,
    /// Stop sweeping a survival grid once the live transient mass falls
    /// below `epsilon` — every later mission time reports survival 0.
    pub early_exit: bool,
}

impl Default for TransientOptions {
    fn default() -> Self {
        Self {
            epsilon: 1e-10,
            detect_tolerance: 1e-14,
            early_exit: true,
        }
    }
}

/// Largest Poisson depth `q·t_max` a transient solve may take (see
/// [`Ctmc::check_transient_depth`]). Uniformization performs about that
/// many matvecs, and Fox–Glynn's weight window grows with its square root,
/// so the cap bounds both the time and the memory of one solve.
pub const MAX_POISSON_DEPTH: f64 = 1e7;

/// Result of the absorption solve.
#[derive(Debug, Clone)]
pub struct AbsorptionAnalysis {
    /// Mean time to absorption from state 0.
    pub mtta: f64,
    /// Expected total time spent in each state before absorption
    /// (zero for absorbing/unreachable states).
    pub sojourn: Vec<f64>,
    /// Probability of being absorbed in each state (zero for transient
    /// states); sums to 1.
    pub absorption_probability: Vec<f64>,
}

impl Ctmc {
    /// Build the CTMC from a reachability graph: a one-use
    /// [`CtmcTemplate`] instantiated at the graph's rates, so edges of zero
    /// rate are kept as explicit zeros here too.
    ///
    /// A state whose edges all carry zero rate has no outflow: it is
    /// absorbing in effect, whatever its graph flag says. Leaving such a
    /// state unflagged would make the absorption system singular ("cannot
    /// reach absorption") and let uniformization report its stuck mass as
    /// surviving forever, so these states are promoted to absorbing here —
    /// the same semantics [`ReachabilityGraph::reweight_in_place`] applies
    /// when a re-weight silences a state's last live edge.
    ///
    /// # Errors
    /// Same conditions as [`CtmcTemplate::new`].
    pub fn from_graph(graph: &ReachabilityGraph) -> Result<Self, SpnError> {
        CtmcTemplate::new(graph)?.instantiate(graph)
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.exit.len()
    }

    /// Exit rate of `state`.
    pub fn exit_rate(&self, state: usize) -> f64 {
        self.exit[state]
    }

    /// Absorbing flag per state.
    pub fn absorbing(&self) -> &[bool] {
        &self.absorbing
    }

    /// States reachable (with positive probability) from state 0.
    fn reachable_from_start(&self) -> Vec<bool> {
        let mut seen = vec![false; self.state_count()];
        seen[0] = true;
        let mut stack = vec![0];
        while let Some(s) = stack.pop() {
            // Explicit zeros in a template-instantiated pattern carry no
            // probability flow — skip them, they are structure only.
            for (j, rate) in self.rates.row(s) {
                if rate > 0.0 && !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        seen
    }

    /// States that can reach an absorbing state.
    fn can_reach_absorbing(&self) -> Vec<bool> {
        let n = self.state_count();
        let transposed = self.rates.transpose();
        let mut can = vec![false; n];
        let mut stack: Vec<usize> = (0..n).filter(|&i| self.absorbing[i]).collect();
        for &s in &stack {
            can[s] = true;
        }
        while let Some(s) = stack.pop() {
            for (j, rate) in transposed.row(s) {
                if rate > 0.0 && !can[j] {
                    can[j] = true;
                    stack.push(j);
                }
            }
        }
        can
    }

    /// Solve for the mean time to absorption and per-state expected sojourn
    /// times.
    ///
    /// The structural half of the solve (the reachability checks, the
    /// transient states, their strongly connected blocks and the layout of
    /// their couplings) is built on the first call and kept on the chain.
    /// A template-instantiated chain keeps it across
    /// [`CtmcTemplate::refresh`]es that leave the positive-rate pattern and
    /// the absorbing flags unchanged, so a rate-only sweep pays only for
    /// the block solves.
    ///
    /// # Errors
    /// * [`SpnError::AnalysisUnavailable`] when no absorbing state is
    ///   reachable (MTTA is infinite).
    /// * [`SpnError::SolverDiverged`] when the linear solve fails.
    pub fn mean_time_to_absorption(&self) -> Result<AbsorptionAnalysis, SpnError> {
        let structure = self
            .absorb
            .get_or_init(|| AbsorptionStructure::new(self))
            .as_ref()
            .map_err(Clone::clone)?;
        self.solve_absorption(structure)
    }

    /// The absorption solve on a precomputed block structure: solve
    /// `Σ_i σ_i q_ij = −π₀_j` over the transient states, one strongly
    /// connected block at a time in topological order, then read the
    /// absorption probabilities off the sojourn vector.
    ///
    /// The chains produced by absorbing security models are mostly acyclic
    /// (progress variables only move one way; only small auxiliary
    /// dimensions, like the group-count birth–death, cycle), so instead of
    /// a global fixed-point iteration each block becomes a small dense
    /// system with already-solved predecessors folded into its right-hand
    /// side. Oversized blocks fall back to the iterative solver on their
    /// subsystem, so the path is exact and general. Dense blocks are
    /// assembled and factored in buffers reused from block to block.
    ///
    /// # Errors
    /// Returns [`SpnError::SolverDiverged`] if an oversized block's
    /// iterative fallback fails to converge.
    fn solve_absorption(&self, st: &AbsorptionStructure) -> Result<AbsorptionAnalysis, SpnError> {
        let n = self.state_count();
        let nt = st.states.len();
        if nt == 0 {
            // Start inside an absorbing state.
            let mut absorption_probability = vec![0.0; n];
            absorption_probability[0] = 1.0;
            return Ok(AbsorptionAnalysis {
                mtta: 0.0,
                sojourn: vec![0.0; n],
                absorption_probability,
            });
        }

        let values = self.rates.values();
        let mut b = vec![0.0; nt];
        if st.position[0] != NONE {
            b[st.position[0] as usize] = -1.0;
        }
        let mut sigma = vec![0.0; nt];
        let mut rhs: Vec<f64> = Vec::new();
        let mut x: Vec<f64> = Vec::new();
        let mut dense: Vec<f64> = Vec::new();
        for w in st.blocks.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            let nb = hi - lo;
            // External (already-solved) predecessors fold into the RHS.
            let folded = |k: usize, sigma: &[f64]| {
                let mut r = b[k];
                for &(i, slot) in st.external(k) {
                    r -= values[slot as usize] * sigma[i as usize];
                }
                r
            };
            if nb == 1 {
                // Self-edges cannot appear (the reachability graph drops
                // them), so the diagonal is exactly −exit.
                sigma[lo] = folded(lo, &sigma) / -self.exit[st.states[lo] as usize];
                continue;
            }
            rhs.clear();
            rhs.extend((lo..hi).map(|k| folded(k, &sigma)));
            // In-block couplings form the subsystem matrix.
            let fill_dense = |dense: &mut Vec<f64>| {
                dense.clear();
                dense.resize(nb * nb, 0.0);
                for (r, k) in (lo..hi).enumerate() {
                    let row = &mut dense[r * nb..(r + 1) * nb];
                    row[r] = -self.exit[st.states[k] as usize];
                    for &(c, slot) in st.internal(k) {
                        row[c as usize] += values[slot as usize];
                    }
                }
            };
            // Small blocks solve directly; oversized (or singular) ones stay
            // sparse end-to-end and use the iterative solver — no O(nb²)
            // dense materialization.
            x.clear();
            x.extend_from_slice(&rhs);
            let solved = nb <= 512 && {
                fill_dense(&mut dense);
                numerics::linsolve::dense_lu_solve(&mut dense, &mut x)
            };
            if !solved {
                let mut t = Triplets::new(nb, nb);
                for (r, k) in (lo..hi).enumerate() {
                    t.push(r, r, -self.exit[st.states[k] as usize]);
                    for &(c, slot) in st.internal(k) {
                        t.push(r, c as usize, values[slot as usize]);
                    }
                }
                let cfg = IterConfig {
                    tolerance: 1e-13,
                    max_iterations: 200_000,
                };
                let (gs, report) = numerics::linsolve::gauss_seidel(&t.build(), &rhs, &cfg);
                let diverged = SpnError::SolverDiverged {
                    iterations: report.iterations,
                    residual: report.residual,
                };
                if report.converged {
                    x = gs;
                } else if nb <= 4096 {
                    // Divergent iteration on a mid-sized block: rescue with
                    // a direct dense LU solve.
                    fill_dense(&mut dense);
                    x.clear();
                    x.extend_from_slice(&rhs);
                    if !numerics::linsolve::dense_lu_solve(&mut dense, &mut x) {
                        return Err(diverged);
                    }
                } else {
                    return Err(diverged);
                }
            }
            sigma[lo..hi].copy_from_slice(&x);
        }

        let mut sojourn = vec![0.0; n];
        for (&gi, &sg) in st.states.iter().zip(&sigma) {
            // Numerical noise can produce tiny negatives; clamp.
            sojourn[gi as usize] = sg.max(0.0);
        }
        let mtta: f64 = sojourn.iter().sum();

        // Absorption probabilities: prob of ending in absorbing state a is
        // Σ_i σ_i rate(i→a), plus the start's mass if it absorbs.
        let mut absorption_probability = vec![0.0; n];
        if self.absorbing[0] {
            absorption_probability[0] = 1.0;
        }
        for &(gi, slot, gj) in &st.exits {
            let s = sojourn[gi as usize];
            if s != 0.0 {
                absorption_probability[gj as usize] += s * values[slot as usize];
            }
        }
        Ok(AbsorptionAnalysis {
            mtta,
            sojourn,
            absorption_probability,
        })
    }

    /// Uniformization rate `q` of the current exit rates.
    pub(crate) fn uniformization_rate(&self) -> f64 {
        self.q
    }

    /// Exit rate vector.
    pub(crate) fn exit_rates(&self) -> &[f64] {
        &self.exit
    }

    /// Row `s` of the uniformized DTMC `P = I + Q/q` as (column, value):
    /// the diagonal `1 − exit/q`, then `rate/q` per rate entry in ascending
    /// column order. Zero values (explicit-zero edges) are skipped.
    pub(crate) fn uniformized_row(&self, s: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let q = self.q;
        std::iter::once((s, 1.0 - self.exit[s] / q))
            .chain(self.rates.row(s).map(move |(j, rate)| (j, rate / q)))
            .filter(|&(_, p)| p != 0.0)
    }

    /// Transient state distribution `π(t)` from state 0:
    /// one fresh full-tracking engine advanced to `t`.
    ///
    /// # Panics
    /// Panics if `t` is negative or not finite.
    pub fn transient_distribution(&self, t: f64, opts: &TransientOptions) -> Vec<f64> {
        assert!(t.is_finite() && t >= 0.0, "bad horizon {t}");
        let mut engine = TransientEngine::new(self, opts);
        if t > 0.0 {
            engine.advance(t);
        }
        engine.distribution()
    }

    /// Survival `S(t) = P[no absorption by t]` at each of `times` (any
    /// order, duplicates allowed) from one survival-only multi-horizon pass,
    /// plus its telemetry. Each value is bit-identical to a one-point
    /// [`Ctmc::survival_curve`].
    ///
    /// # Panics
    /// Panics if a time is negative or not finite.
    pub fn survival_at(
        &self,
        times: &[f64],
        opts: &TransientOptions,
    ) -> (Vec<f64>, TransientStats) {
        TransientEngine::for_survival(self, opts).survival_at(times)
    }

    /// Poisson depth `q·t_max` of a transient solve to `t_max`: about the
    /// number of uniformization steps it takes, and what sets the width of
    /// its Fox–Glynn window.
    pub fn poisson_depth(&self, t_max: f64) -> f64 {
        self.q * t_max
    }

    /// Refuse a transient solve to `t_max` before it allocates anything
    /// when its Poisson depth exceeds [`MAX_POISSON_DEPTH`] (or is not a
    /// number).
    ///
    /// # Errors
    /// [`SpnError::TransientDepthExceeded`] when `q·t_max` is above the cap.
    pub fn check_transient_depth(&self, t_max: f64) -> Result<(), SpnError> {
        let depth = self.poisson_depth(t_max);
        if depth <= MAX_POISSON_DEPTH {
            Ok(())
        } else {
            Err(SpnError::TransientDepthExceeded {
                depth,
                cap: MAX_POISSON_DEPTH,
            })
        }
    }

    /// Survival function `S(t) = P[no absorption by t]` on an ascending
    /// mission-time grid.
    ///
    /// One [`TransientEngine`] sweep serves the whole grid: the distribution
    /// is propagated segment-by-segment (`t_{k-1} → t_k`), so the total
    /// Poisson depth is proportional to `q·t_max` rather than `q·Σ t_k`.
    /// Independent from-zero solves per point cost the sum; when those are
    /// what a caller needs (each point bit-identical to a one-point solve),
    /// [`Ctmc::survival_at`] batches them into one pass of depth `q·t_max`.
    ///
    /// # Panics
    /// Panics if any time is negative/non-finite or the grid is not
    /// non-decreasing.
    pub fn survival_curve(&self, times: &[f64], opts: &TransientOptions) -> Vec<f64> {
        self.survival_curve_with_stats(times, opts).0
    }

    /// [`Ctmc::survival_curve`] plus the engine's propagation telemetry
    /// (matvec count, steady-state detection step, early-exit flag, state
    /// split) for reporting and benchmark gating.
    ///
    /// # Panics
    /// Same conditions as [`Ctmc::survival_curve`].
    pub fn survival_curve_with_stats(
        &self,
        times: &[f64],
        opts: &TransientOptions,
    ) -> (Vec<f64>, TransientStats) {
        self.survival_curve_observed(times, opts, |_| {})
    }

    /// [`Ctmc::survival_curve_with_stats`] that also hands each swept grid
    /// point to `observe`: its survival value and the live distribution
    /// `π_T(t)` it was read from ([`SweepPoint`]). A caller reads rewards
    /// off the very iterates of the survival sweep, with no second pass;
    /// the curve and telemetry are those of the unobserved sweep.
    ///
    /// # Panics
    /// Same conditions as [`Ctmc::survival_curve`].
    pub fn survival_curve_observed(
        &self,
        times: &[f64],
        opts: &TransientOptions,
        observe: impl FnMut(SweepPoint<'_>),
    ) -> (Vec<f64>, TransientStats) {
        let mut prev = 0.0_f64;
        for &t in times {
            assert!(t.is_finite() && t >= 0.0, "bad mission time {t}");
            assert!(t >= prev, "mission grid must be non-decreasing at {t}");
            prev = t;
        }
        let mut engine = TransientEngine::for_survival(self, opts);
        let out = engine.survival_curve(times, observe);
        (out, engine.stats().clone())
    }

    /// Expected occupancy vector `∫₀ᵗ π(u) du` (expected time spent in each
    /// state during `[0, t]`).
    ///
    /// As `t → ∞` on an absorbing chain, the transient components converge
    /// to the sojourn vector of [`Ctmc::mean_time_to_absorption`] — this is
    /// the paper's integral definition of MTTSF evaluated numerically.
    ///
    /// # Panics
    /// Panics if `t < 0`.
    // detlint::allow(U001): integral-definition oracle of MTTA in cross_validation.rs and spn proptests.rs
    pub fn expected_occupancy(&self, t: f64, opts: &TransientOptions) -> Vec<f64> {
        assert!(t >= 0.0, "negative time {t}");
        if t == 0.0 {
            return vec![0.0; self.state_count()];
        }
        let mut engine = TransientEngine::new(self, opts);
        engine.occupancy(t)
    }

    /// Stationary distribution of an ergodic chain via power iteration on
    /// the uniformized DTMC, built here for the one solve.
    ///
    /// # Errors
    /// * [`SpnError::AnalysisUnavailable`] if the chain has absorbing
    ///   states (use the absorption solver instead).
    /// * [`SpnError::SolverDiverged`] if power iteration fails to converge.
    pub fn steady_state(&self) -> Result<Vec<f64>, SpnError> {
        if self.absorbing.iter().any(|&a| a) {
            return Err(SpnError::AnalysisUnavailable(
                "chain has absorbing states; steady state is degenerate".into(),
            ));
        }
        let n = self.state_count();
        let mut p = Triplets::new(n, n);
        for s in 0..n {
            for (j, v) in self.uniformized_row(s) {
                p.push(s, j, v);
            }
        }
        let cfg = IterConfig {
            tolerance: 1e-13,
            max_iterations: 1_000_000,
        };
        let (pi, rep) = numerics::linsolve::power_iteration_stationary(&p.build(), &cfg);
        if !rep.converged {
            return Err(SpnError::SolverDiverged {
                iterations: rep.iterations,
                residual: rep.residual,
            });
        }
        Ok(pi)
    }
}

/// Rebuild-free CTMC instantiation over one reachability-graph structure:
/// the one builder of a [`Ctmc`].
///
/// The CSR sparsity pattern of the rate matrix is built **once** from the
/// graph; every structurally identical re-weighting of that graph
/// (rate-only parameter variations — the explore-once-solve-many sweeps)
/// then only rewrites the value array, the exit-rate vector and the
/// uniformization rate in place via [`CtmcTemplate::refresh`]. Edges whose
/// rate is zero stay in the pattern as explicit zeros, on every chain, so
/// the structure is stable across whole rate families and per-point
/// evaluation performs no graph or matrix allocation at all.
///
/// Numerically a refreshed CTMC is **bit-for-bit identical** to a chain
/// instantiated directly from the same re-weighted graph: values are
/// accumulated in graph-edge order, and every solver skips or adds `+0.0`
/// for the explicit zeros.
#[derive(Debug)]
pub struct CtmcTemplate {
    n: usize,
    /// Rate-matrix pattern (explicit zeros kept for vanished edges).
    pattern: Arc<CsrPattern>,
    /// Value slot of each graph edge, flattened state-major in edge order.
    /// Parallel edges to one target share a slot (their rates sum).
    slots: Vec<u32>,
    /// Per-state offsets into `slots` (length `n + 1`) for structure checks.
    edge_offsets: Vec<u32>,
}

impl CtmcTemplate {
    /// Build the rate-matrix pattern from a graph's structure.
    ///
    /// # Errors
    /// Returns [`SpnError::InvalidModel`] for an empty graph or a
    /// self-targeting edge (the reachability exploration never produces
    /// one).
    pub fn new(graph: &ReachabilityGraph) -> Result<Self, SpnError> {
        let n = graph.state_count();
        if n == 0 {
            return Err(SpnError::InvalidModel(
                "reachability graph has no states".into(),
            ));
        }
        // Graph edges per state are sorted by (target, transition), so equal
        // targets are adjacent; dedup them into one slot each. Sort
        // defensively anyway: hand-assembled graphs are legal inputs.
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0u32);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut slots: Vec<u32> = Vec::new();
        let mut edge_offsets = Vec::with_capacity(n + 1);
        edge_offsets.push(0u32);
        let mut scratch: Vec<(u32, usize)> = Vec::new();
        for (s, elist) in graph.edges.iter().enumerate() {
            scratch.clear();
            for (k, e) in elist.iter().enumerate() {
                if e.target as usize == s {
                    return Err(SpnError::InvalidModel(format!(
                        "state {s} has a self-targeting edge; the CTMC \
                         template requires self-loops to be dropped"
                    )));
                }
                scratch.push((e.target, k));
            }
            scratch.sort_by_key(|&(t, _)| t);
            let row_start = row_ptr[s] as usize;
            let mut edge_slots = vec![0u32; elist.len()];
            for &(target, k) in &scratch {
                if col_idx.len() == row_start || *col_idx.last().unwrap() != target {
                    col_idx.push(target);
                }
                edge_slots[k] = (col_idx.len() - 1) as u32;
            }
            slots.extend_from_slice(&edge_slots);
            edge_offsets.push(slots.len() as u32);
            row_ptr.push(col_idx.len() as u32);
        }

        Ok(Self {
            n,
            pattern: Arc::new(CsrPattern::new(n, n, row_ptr, col_idx)),
            slots,
            edge_offsets,
        })
    }

    /// Number of states in the templated structure.
    pub fn state_count(&self) -> usize {
        self.n
    }

    /// Allocate a CTMC on this template's shared pattern and fill it from
    /// `graph`'s current rates. This is the only allocating step; reuse the
    /// returned chain across re-weightings via [`CtmcTemplate::refresh`].
    ///
    /// # Errors
    /// Same conditions as [`CtmcTemplate::refresh`].
    pub fn instantiate(&self, graph: &ReachabilityGraph) -> Result<Ctmc, SpnError> {
        let mut ctmc = self.blank();
        self.refresh(graph, &mut ctmc)?;
        Ok(ctmc)
    }

    /// [`CtmcTemplate::instantiate`] from a rate plan's evaluated rates
    /// instead of a graph; reuse the chain via
    /// [`CtmcTemplate::refresh_with`].
    ///
    /// # Errors
    /// Same conditions as [`CtmcTemplate::refresh_with`].
    pub fn instantiate_with(&self, rates: &ShareRates<'_>) -> Result<Ctmc, SpnError> {
        let mut ctmc = self.blank();
        self.refresh_with(rates, &mut ctmc)?;
        Ok(ctmc)
    }

    /// A chain on the shared pattern with every value still to be written.
    fn blank(&self) -> Ctmc {
        Ctmc {
            rates: Csr::from_pattern(self.pattern.clone(), vec![0.0; self.pattern.nnz()]),
            exit: vec![0.0; self.n],
            q: 0.0,
            absorbing: vec![false; self.n],
            absorb: OnceLock::new(),
        }
    }

    /// Rewrite `ctmc`'s rate values, exit rates, uniformization rate and
    /// absorbing flags in place from `graph`'s current (re-weighted) rates.
    /// No allocation.
    ///
    /// Zero-exit states are promoted to absorbing (see
    /// [`Ctmc::from_graph`] for why).
    ///
    /// # Errors
    /// Returns [`SpnError::InvalidModel`] when `graph`'s structure differs
    /// from the templated one (state count, per-state edge counts, or edge
    /// targets), or when `ctmc` was not instantiated from this template.
    pub fn refresh(&self, graph: &ReachabilityGraph, ctmc: &mut Ctmc) -> Result<(), SpnError> {
        if graph.state_count() != self.n {
            return Err(SpnError::InvalidModel(format!(
                "template has {} states, graph has {}; re-explore instead",
                self.n,
                graph.state_count()
            )));
        }
        for (s, elist) in graph.edges.iter().enumerate() {
            let slots =
                &self.slots[self.edge_offsets[s] as usize..self.edge_offsets[s + 1] as usize];
            if elist.len() != slots.len() {
                return Err(SpnError::InvalidModel(format!(
                    "state {s}: edge count changed; the variation is \
                     structural — re-explore"
                )));
            }
            if (elist.iter().zip(slots))
                .any(|(e, &k)| self.pattern.col(k as usize) != e.target as usize)
            {
                return Err(SpnError::InvalidModel(format!(
                    "state {s}: edge target changed; the variation is \
                     structural — re-explore"
                )));
            }
        }
        let rates = graph.edges.iter().flatten().map(|e| e.rate);
        self.scatter(rates, &graph.absorbing, ctmc)
    }

    /// [`CtmcTemplate::refresh`] from a rate plan's evaluated rates: the
    /// plan's edge rates go straight into the value array through the
    /// template's slot map, with no graph in between. The plan must have
    /// been built from the graph this template was built from; a chain
    /// refreshed this way equals one refreshed from that graph after
    /// [`RatePlan::apply`] bit for bit.
    ///
    /// [`RatePlan::apply`]: crate::reach::RatePlan::apply
    ///
    /// # Errors
    /// Returns [`SpnError::InvalidModel`] when the plan's state or edge
    /// count differs from the template's, or when `ctmc` was not
    /// instantiated from this template.
    pub fn refresh_with(&self, rates: &ShareRates<'_>, ctmc: &mut Ctmc) -> Result<(), SpnError> {
        if rates.state_count() != self.n || rates.edge_count() != self.slots.len() {
            return Err(SpnError::InvalidModel(format!(
                "template has {} states and {} edges, the rate plan {} and {}",
                self.n,
                self.slots.len(),
                rates.state_count(),
                rates.edge_count()
            )));
        }
        self.scatter(rates.edges(), rates.absorbing(), ctmc)
    }

    /// Write the value array, exit rates, uniformization rate and
    /// absorbing flags from every edge's rate, in state then edge order:
    /// each positive rate is added into its slot and its state's exit
    /// rate, so parallel edges sum in graph-edge order. A state absorbs
    /// when `flagged` or when nothing leaves it.
    fn scatter(
        &self,
        mut edge_rates: impl Iterator<Item = f64>,
        flagged: &[bool],
        ctmc: &mut Ctmc,
    ) -> Result<(), SpnError> {
        if !Arc::ptr_eq(ctmc.rates.pattern(), &self.pattern) {
            return Err(SpnError::InvalidModel(
                "refresh target was not instantiated from this template".into(),
            ));
        }
        let Ctmc {
            rates,
            exit,
            q,
            absorbing,
            absorb,
            ..
        } = ctmc;
        let values = rates.values_mut();
        values.fill(0.0);
        for s in 0..self.n {
            let mut exit_s = 0.0;
            for &slot in
                &self.slots[self.edge_offsets[s] as usize..self.edge_offsets[s + 1] as usize]
            {
                let rate = edge_rates.next().expect("one rate per templated edge");
                if rate > 0.0 {
                    values[slot as usize] += rate;
                    exit_s += rate;
                }
            }
            exit[s] = exit_s;
            absorbing[s] = flagged[s] || exit_s == 0.0;
        }
        *q = uniformization_q(exit);

        // The cached absorption structure stays valid exactly while the
        // chain's positive-rate pattern and absorbing flags do.
        if !matches!(absorb.get(), Some(Ok(st)) if st.matches(rates.values(), absorbing)) {
            absorb.take();
        }
        Ok(())
    }
}

/// Uniformization constant for a vector of exit rates.
fn uniformization_q(exit: &[f64]) -> f64 {
    let qmax = exit.iter().copied().fold(0.0_f64, f64::max);
    (qmax * 1.02).max(1e-12)
}

/// "No index" marker of the absorption structure's `u32` index arrays.
const NONE: u32 = u32::MAX;

/// The structural half of the absorption solve: everything that depends
/// only on which rates are positive, which states absorb and where the
/// chain starts — never on rate values. That is the reachability checks,
/// the transient states, their strongly connected blocks in topological
/// order and the layout of every block's predecessor couplings, each
/// pointing at its rate slot. [`Ctmc::solve_absorption`] reads the current
/// values through those slots.
#[derive(Debug, Clone)]
struct AbsorptionStructure {
    /// Positive flag per rate slot, and the absorbing flags, this
    /// structure was built from.
    positive: Vec<bool>,
    absorbing: Vec<bool>,
    /// State of each solve position: the transient (reachable,
    /// non-absorbing) states, block by block in topological order of the
    /// condensation.
    states: Vec<u32>,
    /// Solve position of each state ([`NONE`] when not transient).
    position: Vec<u32>,
    /// Block boundaries over solve positions.
    blocks: Vec<u32>,
    /// Per solve position, the predecessors outside its block as (solve
    /// position, rate slot), ascending by predecessor state.
    external_ptr: Vec<u32>,
    external: Vec<(u32, u32)>,
    /// Per solve position of a multi-state block, the couplings inside the
    /// block as (column in the block, rate slot), in the same order.
    internal_ptr: Vec<u32>,
    internal: Vec<(u32, u32)>,
    /// Positive edges from a transient into an absorbing state as (source,
    /// rate slot, target), in row order of ascending sources.
    exits: Vec<(u32, u32, u32)>,
}

impl AbsorptionStructure {
    /// Build the structure of `ctmc`'s current positive-rate pattern.
    ///
    /// # Errors
    /// [`SpnError::AnalysisUnavailable`] when no absorbing state is
    /// reachable, or a reachable state cannot reach absorption (MTTA is
    /// infinite).
    fn new(ctmc: &Ctmc) -> Result<Self, SpnError> {
        let n = ctmc.state_count();
        let pattern = ctmc.rates.pattern();
        let positive: Vec<bool> = ctmc.rates.values().iter().map(|&v| v > 0.0).collect();
        let reachable = ctmc.reachable_from_start();
        let can_absorb = ctmc.can_reach_absorbing();
        if !(0..n).any(|i| reachable[i] && ctmc.absorbing[i]) {
            return Err(SpnError::AnalysisUnavailable(
                "no absorbing state reachable from the initial marking".into(),
            ));
        }
        if let Some(i) = (0..n).find(|&i| reachable[i] && !can_absorb[i]) {
            return Err(SpnError::AnalysisUnavailable(format!(
                "state {i} is reachable but cannot reach absorption; MTTA is infinite"
            )));
        }

        // Transient states, with local indices in state order.
        let transient: Vec<usize> = (0..n)
            .filter(|&i| reachable[i] && !ctmc.absorbing[i])
            .collect();
        let nt = transient.len();
        let mut local = vec![NONE; n];
        for (li, &gi) in transient.iter().enumerate() {
            local[gi] = li as u32;
        }

        // Successors (for Tarjan) and predecessors with their rate slots,
        // restricted to transients and positive rates. Sources are visited
        // in order, so every predecessor list ascends by source.
        let transient_edges = |li: usize| {
            pattern
                .row_range(transient[li])
                .filter(|&slot| positive[slot] && local[pattern.col(slot)] != NONE)
                .map(|slot| (local[pattern.col(slot)], slot as u32))
        };
        let mut succ_ptr = Vec::with_capacity(nt + 1);
        succ_ptr.push(0u32);
        let mut succ: Vec<u32> = Vec::new();
        let mut pred_ptr = vec![0u32; nt + 1];
        for li in 0..nt {
            for (lj, _) in transient_edges(li) {
                succ.push(lj);
                pred_ptr[lj as usize + 1] += 1;
            }
            succ_ptr.push(succ.len() as u32);
        }
        for i in 0..nt {
            pred_ptr[i + 1] += pred_ptr[i];
        }
        let mut next = pred_ptr.clone();
        let mut pred = vec![(0u32, 0u32); succ.len()];
        for li in 0..nt {
            for (lj, slot) in transient_edges(li) {
                pred[next[lj as usize] as usize] = (li as u32, slot);
                next[lj as usize] += 1;
            }
        }

        // Blocks: Tarjan returns them sinks-first; solve them in reverse so
        // every predecessor block is solved before its successors.
        let (members, components) = tarjan_scc(&succ_ptr, &succ);
        let mut states = Vec::with_capacity(nt);
        let mut locals = Vec::with_capacity(nt);
        let mut solve_pos = vec![NONE; nt];
        let mut blocks = vec![0u32];
        for c in (0..components.len() - 1).rev() {
            for &m in &members[components[c] as usize..components[c + 1] as usize] {
                solve_pos[m as usize] = states.len() as u32;
                states.push(transient[m as usize] as u32);
                locals.push(m as usize);
            }
            blocks.push(states.len() as u32);
        }
        let mut position = vec![NONE; n];
        for (&gi, &k) in transient.iter().zip(&solve_pos) {
            position[gi] = k;
        }

        let mut external_ptr = vec![0u32];
        let mut external = Vec::new();
        let mut internal_ptr = vec![0u32];
        let mut internal = Vec::new();
        for w in blocks.windows(2) {
            let block = w[0]..w[1];
            let nb = w[1] - w[0];
            for &lj in &locals[w[0] as usize..w[1] as usize] {
                for &(li, slot) in &pred[pred_ptr[lj] as usize..pred_ptr[lj + 1] as usize] {
                    let k = solve_pos[li as usize];
                    if !block.contains(&k) {
                        external.push((k, slot));
                    } else if nb > 1 {
                        // A singleton has no in-block couplings besides a
                        // self-edge, which its solve ignores.
                        internal.push((k - w[0], slot));
                    }
                }
                external_ptr.push(external.len() as u32);
                internal_ptr.push(internal.len() as u32);
            }
        }

        let mut exits = Vec::new();
        for &gi in &transient {
            for slot in pattern.row_range(gi) {
                let gj = pattern.col(slot);
                if positive[slot] && ctmc.absorbing[gj] {
                    exits.push((gi as u32, slot as u32, gj as u32));
                }
            }
        }

        Ok(Self {
            positive,
            absorbing: ctmc.absorbing.clone(),
            states,
            position,
            blocks,
            external_ptr,
            external,
            internal_ptr,
            internal,
            exits,
        })
    }

    /// True when this structure describes a chain with these rate values
    /// and absorbing flags: the same slots positive, the same states
    /// absorbing. O(nnz + n).
    fn matches(&self, values: &[f64], absorbing: &[bool]) -> bool {
        self.absorbing == absorbing
            && self.positive.len() == values.len()
            && values
                .iter()
                .zip(&self.positive)
                .all(|(&v, &p)| (v > 0.0) == p)
    }

    /// Out-of-block predecessors of solve position `k`.
    fn external(&self, k: usize) -> &[(u32, u32)] {
        &self.external[self.external_ptr[k] as usize..self.external_ptr[k + 1] as usize]
    }

    /// In-block couplings of solve position `k`.
    fn internal(&self, k: usize) -> &[(u32, u32)] {
        &self.internal[self.internal_ptr[k] as usize..self.internal_ptr[k + 1] as usize]
    }
}

/// Iterative Tarjan strongly-connected components over a graph in CSR form
/// (`succ[succ_ptr[v]..succ_ptr[v + 1]]` are `v`'s successors). Returns the
/// members of all components back to back and the component boundaries
/// (length `components + 1`). Components are emitted in reverse
/// topological order of the condensation (every component appears before
/// its predecessors).
fn tarjan_scc(succ_ptr: &[u32], succ: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let n = succ_ptr.len() - 1;
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0usize;
    let mut members: Vec<u32> = Vec::with_capacity(n);
    let mut components: Vec<u32> = vec![0];
    // Explicit DFS frames: (node, next successor slot).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        frames.push((start, succ_ptr[start] as usize));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start as u32);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child < succ_ptr[v + 1] as usize {
                let w = succ[*child] as usize;
                *child += 1;
                if index[w] == UNSET {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    frames.push((w, succ_ptr[w] as usize));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow") as usize;
                        on_stack[w] = false;
                        members.push(w as u32);
                        if w == v {
                            break;
                        }
                    }
                    components.push(members.len() as u32);
                }
            }
        }
    }
    (members, components)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{RateFactor, SpnBuilder, TransitionDef};
    use crate::reach::{explore, ExploreOptions, RatePlan};

    fn build(netf: impl FnOnce(&mut SpnBuilder)) -> Ctmc {
        let mut b = SpnBuilder::new();
        netf(&mut b);
        let net = b.build().unwrap();
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        Ctmc::from_graph(&g).unwrap()
    }

    /// Exponential single-stage: MTTA = 1/λ.
    #[test]
    fn single_exponential_stage() {
        let c = build(|b| {
            let up = b.add_place("up", 1);
            b.add_transition(TransitionDef::timed_const("fail", 0.25).input(up, 1));
        });
        let a = c.mean_time_to_absorption().unwrap();
        assert!((a.mtta - 4.0).abs() < 1e-10);
        let total: f64 = a.absorption_probability.iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    /// Hypoexponential chain: MTTA = Σ 1/(kλ).
    #[test]
    fn death_chain_mtta_closed_form() {
        let c = build(|b| {
            let up = b.add_place("up", 5);
            b.add_transition(
                TransitionDef::timed("die", move |m| 0.5 * m.tokens(up) as f64).input(up, 1),
            );
        });
        let a = c.mean_time_to_absorption().unwrap();
        let exact: f64 = (1..=5).map(|k| 1.0 / (0.5 * k as f64)).sum();
        assert!((a.mtta - exact).abs() < 1e-9, "{} vs {exact}", a.mtta);
    }

    /// Competing exponentials: absorption probabilities proportional to
    /// rates, MTTA = 1/(λ+μ).
    #[test]
    fn competing_risks_split() {
        let c = build(|b| {
            let up = b.add_place("up", 1);
            let dead_a = b.add_place("A", 0);
            let dead_b = b.add_place("B", 0);
            b.add_transition(
                TransitionDef::timed_const("to_a", 1.0)
                    .input(up, 1)
                    .output(dead_a, 1),
            );
            b.add_transition(
                TransitionDef::timed_const("to_b", 3.0)
                    .input(up, 1)
                    .output(dead_b, 1),
            );
        });
        let a = c.mean_time_to_absorption().unwrap();
        assert!((a.mtta - 0.25).abs() < 1e-10);
        let mut probs: Vec<f64> = a
            .absorption_probability
            .iter()
            .copied()
            .filter(|&p| p > 0.0)
            .collect();
        probs.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((probs[0] - 0.25).abs() < 1e-10);
        assert!((probs[1] - 0.75).abs() < 1e-10);
    }

    #[test]
    fn mtta_infinite_detected() {
        // no absorbing state: M/M/1/K loop
        let c = build(|b| {
            let q = b.add_place("q", 0);
            b.add_transition(
                TransitionDef::timed_const("in", 1.0)
                    .output(q, 1)
                    .inhibitor(q, 3),
            );
            b.add_transition(TransitionDef::timed_const("out", 2.0).input(q, 1));
        });
        assert!(matches!(
            c.mean_time_to_absorption(),
            Err(SpnError::AnalysisUnavailable(_))
        ));
    }

    #[test]
    fn start_in_absorbing_state_gives_zero_mtta() {
        let c = build(|b| {
            let up = b.add_place("up", 1);
            b.add_transition(TransitionDef::timed_const("t", 1.0).input(up, 1));
            b.absorbing_when(move |m| m.tokens(up) >= 1); // initial marking absorbing
        });
        let a = c.mean_time_to_absorption().unwrap();
        assert_eq!(a.mtta, 0.0);
        assert!((a.absorption_probability.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transient_distribution_two_state() {
        // up --λ--> down; π_up(t) = e^{-λt}
        let c = build(|b| {
            let up = b.add_place("up", 1);
            b.add_transition(TransitionDef::timed_const("fail", 2.0).input(up, 1));
        });
        let opts = TransientOptions::default();
        for &t in &[0.0, 0.1, 0.5, 1.0, 3.0] {
            let pi = c.transient_distribution(t, &opts);
            let exact = (-2.0 * t).exp();
            assert!((pi[0] - exact).abs() < 1e-8, "t={t}: {} vs {exact}", pi[0]);
            assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn occupancy_converges_to_sojourn() {
        let c = build(|b| {
            let up = b.add_place("up", 3);
            b.add_transition(
                TransitionDef::timed("die", move |m| 1.0 * m.tokens(up) as f64).input(up, 1),
            );
        });
        let a = c.mean_time_to_absorption().unwrap();
        let occ = c.expected_occupancy(200.0, &TransientOptions::default());
        // transient occupancy converges to the sojourn vector; the absorbing
        // state's occupancy keeps growing with t and is excluded.
        for (i, (o, s)) in occ.iter().zip(&a.sojourn).enumerate() {
            if !c.absorbing()[i] {
                assert!((o - s).abs() < 1e-6, "state {i}: {o} vs {s}");
            }
        }
        // the paper's integral MTTSF formula: sum of transient occupancy
        let mttsf_integral: f64 = occ
            .iter()
            .enumerate()
            .filter(|&(i, _)| !c.absorbing()[i])
            .map(|(_, &o)| o)
            .sum();
        assert!((mttsf_integral - a.mtta).abs() < 1e-6);
    }

    #[test]
    fn survival_curve_matches_closed_form_exponential() {
        // up --λ--> absorbed; S(t) = e^{-λt}
        let c = build(|b| {
            let up = b.add_place("up", 1);
            b.add_transition(TransitionDef::timed_const("fail", 2.0).input(up, 1));
        });
        let times = [0.0, 0.1, 0.5, 1.0, 1.0, 3.0];
        let s = c.survival_curve(&times, &TransientOptions::default());
        for (&t, &st) in times.iter().zip(&s) {
            let exact = (-2.0 * t).exp();
            assert!((st - exact).abs() < 1e-8, "t={t}: {st} vs {exact}");
        }
    }

    #[test]
    fn survival_curve_agrees_with_transient_distribution() {
        // Segment-wise propagation must match independent solves per point.
        let c = build(|b| {
            let up = b.add_place("up", 4);
            b.add_transition(
                TransitionDef::timed("die", move |m| 0.7 * m.tokens(up) as f64).input(up, 1),
            );
        });
        let opts = TransientOptions::default();
        let times = [0.3, 0.9, 2.0, 5.5];
        let s = c.survival_curve(&times, &opts);
        for (&t, &st) in times.iter().zip(&s) {
            let pi = c.transient_distribution(t, &opts);
            let direct: f64 = pi
                .iter()
                .zip(c.absorbing())
                .filter_map(|(&x, &a)| (!a).then_some(x))
                .sum();
            assert!((st - direct).abs() < 1e-8, "t={t}: {st} vs {direct}");
        }
    }

    #[test]
    fn survival_starts_at_one_and_decreases() {
        let c = build(|b| {
            let up = b.add_place("up", 3);
            b.add_transition(
                TransitionDef::timed("die", move |m| m.tokens(up) as f64).input(up, 1),
            );
        });
        let times: Vec<f64> = (0..20).map(|i| i as f64 * 0.4).collect();
        let s = c.survival_curve(&times, &TransientOptions::default());
        assert!((s[0] - 1.0).abs() < 1e-12);
        for w in s.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "not monotone: {s:?}");
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn survival_curve_rejects_unsorted_grid() {
        let c = build(|b| {
            let up = b.add_place("up", 1);
            b.add_transition(TransitionDef::timed_const("fail", 1.0).input(up, 1));
        });
        c.survival_curve(&[1.0, 0.5], &TransientOptions::default());
    }

    #[test]
    fn occupancy_at_small_t_is_linear() {
        let c = build(|b| {
            let up = b.add_place("up", 1);
            b.add_transition(TransitionDef::timed_const("fail", 1.0).input(up, 1));
        });
        let occ = c.expected_occupancy(1e-4, &TransientOptions::default());
        // at tiny t: time in initial state ≈ t
        assert!((occ[0] - 1e-4).abs() < 1e-7);
    }

    #[test]
    fn steady_state_mm1k() {
        // M/M/1/2 with λ=1, μ=2: π ∝ (1, ρ, ρ²), ρ=0.5
        let c = build(|b| {
            let q = b.add_place("q", 0);
            b.add_transition(
                TransitionDef::timed_const("in", 1.0)
                    .output(q, 1)
                    .inhibitor(q, 2),
            );
            b.add_transition(TransitionDef::timed_const("out", 2.0).input(q, 1));
        });
        let pi = c.steady_state().unwrap();
        let z = 1.0 + 0.5 + 0.25;
        let expect = [1.0 / z, 0.5 / z, 0.25 / z];
        // state order follows exploration (0, 1, 2 tokens)
        for (p, e) in pi.iter().zip(&expect) {
            assert!((p - e).abs() < 1e-9, "{pi:?}");
        }
    }

    #[test]
    fn steady_state_rejects_absorbing_chain() {
        let c = build(|b| {
            let up = b.add_place("up", 1);
            b.add_transition(TransitionDef::timed_const("fail", 1.0).input(up, 1));
        });
        assert!(matches!(
            c.steady_state(),
            Err(SpnError::AnalysisUnavailable(_))
        ));
    }

    /// Regression: a transient state whose edges were all zeroed (without
    /// the graph's absorbing flag being recomputed) must not silently
    /// corrupt the solves. `from_graph` promotes zero-exit states to
    /// absorbing, so absorption stays solvable and uniformization counts
    /// the stuck mass as absorbed instead of "surviving" forever.
    #[test]
    fn vanishing_exit_state_is_treated_as_absorbing() {
        let mut b = SpnBuilder::new();
        let up = b.add_place("up", 2);
        b.add_transition(TransitionDef::timed("die", move |m| m.tokens(up) as f64).input(up, 1));
        let net = b.build().unwrap();
        let mut g = explore(&net, &ExploreOptions::default()).unwrap();
        // Zero state 1's edges by hand, leaving its absorbing flag stale.
        for e in &mut g.edges[1] {
            e.rate = 0.0;
        }
        assert!(!g.absorbing[1], "flag is deliberately stale");
        let c = Ctmc::from_graph(&g).unwrap();
        assert!(c.absorbing()[1], "zero-exit state must be promoted");
        // Absorption now ends in state 1: MTTA is the first stage alone.
        let a = c.mean_time_to_absorption().unwrap();
        assert!((a.mtta - 0.5).abs() < 1e-12, "{}", a.mtta);
        assert!((a.absorption_probability[1] - 1.0).abs() < 1e-12);
        // And survival decays to zero instead of plateauing at "alive".
        let s = c.survival_curve(&[0.0, 50.0], &TransientOptions::default());
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!(s[1] < 1e-6, "stuck mass reported as surviving: {}", s[1]);
    }

    #[test]
    fn template_instantiate_matches_a_dense_generator() {
        // Two transitions share a target (their rates sum in one slot), and
        // a re-weight silences one of them: the chain must carry exactly
        // the generator a dense build from the graph's positive edges gives.
        let build = |die3: f64| {
            let mut b = SpnBuilder::new();
            let up = b.add_place("up", 4);
            b.add_transition(
                TransitionDef::timed("die", move |m| 0.7 * m.tokens(up) as f64).input(up, 1),
            );
            b.add_transition(
                TransitionDef::timed("die2", move |m| 0.2 * m.tokens(up) as f64).input(up, 2),
            );
            b.add_transition(
                TransitionDef::timed("die3", move |m| die3 * m.tokens(up) as f64).input(up, 1),
            );
            b.build().unwrap()
        };
        let pristine = explore(&build(0.1), &ExploreOptions::default()).unwrap();
        let template = CtmcTemplate::new(&pristine).unwrap();
        let n = pristine.state_count();
        assert_eq!(template.state_count(), n);
        // Every chain starts at state 0: the explored initial marking.
        assert_eq!(pristine.states[0], build(0.1).initial_marking());
        let mut silenced = pristine.clone();
        silenced.reweight_in_place(&build(0.0)).unwrap();
        for g in [&pristine, &silenced] {
            let mut dense = vec![0.0; n * n];
            let mut exit = vec![0.0; n];
            for (s, elist) in g.edges.iter().enumerate() {
                for e in elist.iter().filter(|e| e.rate > 0.0) {
                    dense[s * n + e.target as usize] += e.rate;
                    exit[s] += e.rate;
                }
            }
            let c = template.instantiate(g).unwrap();
            for s in 0..n {
                assert_eq!(c.exit_rate(s).to_bits(), exit[s].to_bits(), "exit {s}");
                for t in (0..n).filter(|&t| t != s) {
                    assert_eq!(
                        c.rates.get(s, t).to_bits(),
                        dense[s * n + t].to_bits(),
                        "rate {s} -> {t}"
                    );
                }
                assert_eq!(c.absorbing()[s], g.absorbing[s] || exit[s] == 0.0);
            }
            let qmax = exit.iter().copied().fold(0.0, f64::max);
            assert_eq!(c.uniformization_rate(), qmax * 1.02);
        }
    }

    #[test]
    fn template_refresh_rejects_structural_mismatch() {
        let chain = |n: u32| {
            let mut b = SpnBuilder::new();
            let up = b.add_place("up", n);
            b.add_transition(
                TransitionDef::timed("die", move |m| m.tokens(up) as f64).input(up, 1),
            );
            let net = b.build().unwrap();
            explore(&net, &ExploreOptions::default()).unwrap()
        };
        let g3 = chain(3);
        let g5 = chain(5);
        let template = CtmcTemplate::new(&g3).unwrap();
        let mut ctmc = template.instantiate(&g3).unwrap();
        assert!(matches!(
            template.refresh(&g5, &mut ctmc),
            Err(SpnError::InvalidModel(_))
        ));
        // A CTMC not laid out on this template's pattern is refused too.
        let mut foreign = Ctmc::from_graph(&g3).unwrap();
        assert!(matches!(
            template.refresh(&g3, &mut foreign),
            Err(SpnError::InvalidModel(_))
        ));
    }

    #[test]
    fn template_keeps_zero_rate_edges_as_explicit_zeros() {
        // Re-weight a two-transition chain so one transition vanishes: the
        // pattern keeps the dead edges, the refreshed values zero them, and
        // the solve matches a fresh build of the same re-weighted graph.
        let build = |die: f64, leak: f64| {
            let mut b = SpnBuilder::new();
            let up = b.add_place("up", 2);
            let bad = b.add_place("bad", 0);
            b.add_transition(
                TransitionDef::timed("die", move |m| die * m.tokens(up) as f64).input(up, 1),
            );
            b.add_transition(
                TransitionDef::timed("leak", move |m| leak * m.tokens(up) as f64)
                    .input(up, 1)
                    .output(bad, 1),
            );
            b.absorbing_when(move |m| m.tokens(bad) >= 1 || m.tokens(up) == 0);
            b.build().unwrap()
        };
        let pristine = explore(&build(1.0, 0.5), &ExploreOptions::default()).unwrap();
        let template = CtmcTemplate::new(&pristine).unwrap();
        let mut ctmc = template.instantiate(&pristine).unwrap();
        let nnz_before = ctmc_nnz(&ctmc);

        let mut working = pristine.clone();
        working.reweight_in_place(&build(1.0, 0.0)).unwrap();
        template.refresh(&working, &mut ctmc).unwrap();
        assert_eq!(ctmc_nnz(&ctmc), nnz_before, "pattern must be stable");
        assert!(ctmc.rates.values().contains(&0.0), "no explicit zero kept");
        // The chain explored directly at the new rates never sees the
        // leak edges; the solvers must skip the refreshed chain's zeros.
        let explored = explore(&build(1.0, 0.0), &ExploreOptions::default()).unwrap();
        let fresh = Ctmc::from_graph(&explored).unwrap();
        assert!(ctmc_nnz(&fresh) < nnz_before);
        let a_t = ctmc.mean_time_to_absorption().unwrap();
        let a_f = fresh.mean_time_to_absorption().unwrap();
        assert_eq!(a_t.mtta.to_bits(), a_f.mtta.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let opts = TransientOptions::default();
        let times = [0.0, 0.5, 1.0, 2.5, 6.0];
        let (s_t, st_t) = ctmc.survival_curve_with_stats(&times, &opts);
        let (s_f, st_f) = fresh.survival_curve_with_stats(&times, &opts);
        assert_eq!(bits(&s_t), bits(&s_f));
        assert_eq!(st_t.matvecs, st_f.matvecs);
        let (a_t, _) = ctmc.survival_at(&times, &opts);
        let (a_f, _) = fresh.survival_at(&times, &opts);
        assert_eq!(bits(&a_t), bits(&a_f));
    }

    #[test]
    fn template_flat_write_matches_a_reweighted_graph() {
        // A rate plan's rates written straight into the chain must equal
        // the same rates written into a graph and refreshed from it, bit
        // for bit: values, exit rates, q and absorbing flags. `die` is a
        // factored rate, and `leak` goes silent at one point.
        let build = |die: f64, leak: f64| {
            let mut b = SpnBuilder::new();
            let up = b.add_place("up", 3);
            let down = b.add_place("down", 0);
            let gone = b.add_place("gone", 0);
            let count = RateFactor::reads(&[up], move |m| m.tokens(up) as f64);
            let scale = RateFactor::reads(&[], move |_| die);
            b.add_transition(
                TransitionDef::timed_product("die", count, scale)
                    .input(up, 1)
                    .output(down, 1),
            );
            b.add_transition(
                TransitionDef::timed_const("leak", leak)
                    .reads(&[])
                    .input(down, 1)
                    .output(gone, 1),
            );
            b.build().unwrap()
        };
        let pristine = explore(&build(1.0, 0.5), &ExploreOptions::default()).unwrap();
        let template = CtmcTemplate::new(&pristine).unwrap();
        let plan = RatePlan::new(&pristine, &build(1.0, 0.5));
        let mut values = Vec::new();
        let mut flat: Option<Ctmc> = None;
        let mut via_graph = template.instantiate(&pristine).unwrap();
        let bits = |c: &Ctmc| {
            let mut v: Vec<u64> = c.rates.values().iter().map(|x| x.to_bits()).collect();
            v.extend(c.exit.iter().map(|x| x.to_bits()));
            v.push(c.q.to_bits());
            (v, c.absorbing.clone())
        };
        for (die, leak) in [(2.5, 0.0), (0.3, 0.5), (1.0, 4.0)] {
            let net = build(die, leak);
            let rates = plan
                .share_rates(&net, &pristine.states, &mut values)
                .unwrap();
            match &mut flat {
                Some(c) => template.refresh_with(&rates, c).unwrap(),
                none => *none = Some(template.instantiate_with(&rates).unwrap()),
            }
            let mut working = pristine.clone();
            working.reweight_in_place(&net).unwrap();
            template.refresh(&working, &mut via_graph).unwrap();
            let flat = flat.as_ref().unwrap();
            assert_eq!(bits(flat), bits(&via_graph), "die {die} leak {leak}");
            assert_eq!(
                flat.mean_time_to_absorption().unwrap().mtta.to_bits(),
                via_graph.mean_time_to_absorption().unwrap().mtta.to_bits()
            );
        }
    }

    #[test]
    fn template_absorption_structure_follows_the_rate_pattern() {
        // Refresh one chain through rate families whose positive-rate
        // pattern changes and changes back: the kept absorption structure
        // must be dropped and rebuilt with it, so every solve equals a
        // fresh build of the same graph bit for bit.
        let build = |die: f64, leak: f64, back: f64| {
            let mut b = SpnBuilder::new();
            let up = b.add_place("up", 3);
            let down = b.add_place("down", 0);
            let bad = b.add_place("bad", 0);
            b.add_transition(
                TransitionDef::timed("die", move |m| die * m.tokens(up) as f64)
                    .input(up, 1)
                    .output(down, 1),
            );
            b.add_transition(
                TransitionDef::timed("back", move |m| back * m.tokens(down) as f64)
                    .input(down, 1)
                    .output(up, 1),
            );
            b.add_transition(
                TransitionDef::timed("leak", move |m| leak * m.tokens(up) as f64)
                    .input(up, 1)
                    .output(bad, 1),
            );
            b.absorbing_when(move |m| m.tokens(bad) >= 1 || m.tokens(up) == 0);
            b.build().unwrap()
        };
        let pristine = explore(&build(1.0, 0.5, 0.7), &ExploreOptions::default()).unwrap();
        let template = CtmcTemplate::new(&pristine).unwrap();
        let mut ctmc = template.instantiate(&pristine).unwrap();
        let mut working = pristine.clone();
        // The first family has neither leaks nor returns, so a structure
        // kept from it would miss couplings the later families revive.
        let families = [
            (1.0, 0.0, 0.0),
            (1.0, 0.5, 0.7),
            (2.0, 0.25, 0.7),
            (1.0, 0.5, 0.0),
            (0.0, 0.5, 0.7),
            (1.0, 0.0, 0.7),
            (3.0, 0.5, 0.7),
        ];
        for (die, leak, back) in families {
            working.copy_rates_from(&pristine);
            working.reweight_in_place(&build(die, leak, back)).unwrap();
            template.refresh(&working, &mut ctmc).unwrap();
            let a_t = ctmc.mean_time_to_absorption().unwrap();
            let a_f = Ctmc::from_graph(&working)
                .unwrap()
                .mean_time_to_absorption()
                .unwrap();
            let bits = |a: &AbsorptionAnalysis| {
                let mut v = vec![a.mtta.to_bits()];
                v.extend(a.sojourn.iter().map(|x| x.to_bits()));
                v.extend(a.absorption_probability.iter().map(|x| x.to_bits()));
                v
            };
            assert_eq!(bits(&a_t), bits(&a_f), "die {die} leak {leak} back {back}");
        }
    }

    fn ctmc_nnz(c: &Ctmc) -> usize {
        (0..c.state_count()).map(|s| c.rates.row(s).count()).sum()
    }

    #[test]
    fn absorption_probabilities_sum_to_one_on_branching_chain() {
        let c = build(|b| {
            let up = b.add_place("up", 2);
            let leak = b.add_place("leak", 0);
            b.add_transition(
                TransitionDef::timed("step", move |m| m.tokens(up) as f64).input(up, 1),
            );
            b.add_transition(
                TransitionDef::timed("jump", move |m| 0.3 * m.tokens(up) as f64)
                    .input(up, 1)
                    .output(leak, 1)
                    .guard(move |m| m.tokens(up) >= 1),
            );
            b.absorbing_when(move |m| m.tokens(leak) > 0);
        });
        let a = c.mean_time_to_absorption().unwrap();
        let total: f64 = a.absorption_probability.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        assert!(a.mtta > 0.0);
    }
}
