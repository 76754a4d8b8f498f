//! Continuous-time Markov chain analysis over the tangible reachability
//! graph.
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
//!   nets (used by the mobility birth–death calibration).

use crate::error::SpnError;
use crate::reach::ReachabilityGraph;
use crate::transient::{TransientEngine, TransientStats};
use numerics::linsolve::IterConfig;
use numerics::sparse::{Csr, CsrPattern, Triplets};
use std::sync::{Arc, OnceLock};

/// A CTMC extracted from a reachability graph.
#[derive(Debug, Clone)]
pub struct Ctmc {
    /// Off-diagonal rate matrix (row = source state). May carry explicit
    /// zero entries when instantiated from a [`CtmcTemplate`] (the pattern
    /// is kept stable across re-weighted rate families).
    rates: Csr,
    /// Total exit rate per state.
    exit: Vec<f64>,
    /// Initial distribution as (state, probability) pairs.
    initial: Vec<(u32, f64)>,
    /// Absorbing flags.
    absorbing: Vec<bool>,
    /// Uniformization constant and DTMC, pre-built by [`CtmcTemplate`] or
    /// memoized on first use on the one-shot path — repeated transient
    /// solves on one chain never rebuild it.
    uniformized: OnceLock<(f64, Csr)>,
    /// Transpose of the uniformized DTMC — the gather-matvec operand of
    /// [`TransientEngine`]. Pre-built by [`CtmcTemplate`], memoized on
    /// first use otherwise.
    uniformized_t: OnceLock<Csr>,
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

/// Result of the absorption solve.
#[derive(Debug, Clone)]
pub struct AbsorptionAnalysis {
    /// Mean time to absorption from the initial distribution.
    pub mtta: f64,
    /// Expected total time spent in each state before absorption
    /// (zero for absorbing/unreachable states).
    pub sojourn: Vec<f64>,
    /// Probability of being absorbed in each state (zero for transient
    /// states); sums to 1.
    pub absorption_probability: Vec<f64>,
}

impl AbsorptionAnalysis {
    /// Expected accumulated rate reward until absorption:
    /// `Σᵢ sojourn[i] · reward[i]`.
    ///
    /// # Panics
    /// Panics if `reward_per_state.len()` differs from the state count.
    pub fn accumulated_reward(&self, reward_per_state: &[f64]) -> f64 {
        assert_eq!(
            reward_per_state.len(),
            self.sojourn.len(),
            "reward vector length mismatch"
        );
        self.sojourn
            .iter()
            .zip(reward_per_state)
            .map(|(s, r)| s * r)
            .sum()
    }

    /// Time-averaged rate reward until absorption (accumulated / MTTA).
    pub fn time_averaged_reward(&self, reward_per_state: &[f64]) -> f64 {
        if self.mtta == 0.0 {
            0.0
        } else {
            self.accumulated_reward(reward_per_state) / self.mtta
        }
    }
}

impl Ctmc {
    /// Build the CTMC from a reachability graph.
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
    /// Returns [`SpnError::InvalidModel`] for an empty graph or an initial
    /// distribution that does not sum to 1.
    pub fn from_graph(graph: &ReachabilityGraph) -> Result<Self, SpnError> {
        validate_graph(graph)?;
        let n = graph.state_count();
        let mut t = Triplets::new(n, n);
        let mut exit = vec![0.0; n];
        for (s, elist) in graph.edges.iter().enumerate() {
            for e in elist {
                // Zero-rate edges can appear after re-weighting a graph with
                // a rate function that vanishes in some states; they carry
                // no CTMC mass and would only distort reachability checks.
                if e.rate > 0.0 {
                    t.push(s, e.target as usize, e.rate);
                    exit[s] += e.rate;
                }
            }
        }
        let mut absorbing = graph.absorbing.clone();
        for (flag, &x) in absorbing.iter_mut().zip(&exit) {
            *flag = *flag || x == 0.0;
        }
        Ok(Self {
            rates: t.build(),
            exit,
            initial: graph.initial_distribution.clone(),
            absorbing,
            uniformized: OnceLock::new(),
            uniformized_t: OnceLock::new(),
            absorb: OnceLock::new(),
        })
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

    /// Initial distribution as a dense vector.
    pub fn initial_dense(&self) -> Vec<f64> {
        let mut pi0 = vec![0.0; self.state_count()];
        for &(s, p) in &self.initial {
            pi0[s as usize] += p;
        }
        pi0
    }

    /// States reachable (with positive probability) from the initial
    /// distribution.
    fn reachable_from_initial(&self) -> Vec<bool> {
        let n = self.state_count();
        let mut seen = vec![false; n];
        let mut stack: Vec<usize> = self
            .initial
            .iter()
            .filter(|&&(_, p)| p > 0.0)
            .map(|&(s, _)| s as usize)
            .collect();
        for &s in &stack {
            seen[s] = true;
        }
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
            for &(s, p) in &self.initial {
                absorption_probability[s as usize] += p;
            }
            return Ok(AbsorptionAnalysis {
                mtta: 0.0,
                sojourn: vec![0.0; n],
                absorption_probability,
            });
        }

        let values = self.rates.values();
        let mut b = vec![0.0; nt];
        for &(s, p) in &self.initial {
            let k = st.position[s as usize];
            if k != NONE {
                b[k as usize] = -p;
            }
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
        // Σ_i σ_i rate(i→a), plus initial mass already in a.
        let mut absorption_probability = vec![0.0; n];
        for &(s, p) in &self.initial {
            if self.absorbing[s as usize] {
                absorption_probability[s as usize] += p;
            }
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

    /// Uniformization constant and DTMC for transient analysis: the cached
    /// template copy when present, otherwise built **once** and memoized —
    /// repeated transient solves on one chain share the build.
    pub(crate) fn uniformized(&self) -> (f64, &Csr) {
        let (q, p) = self.uniformized.get_or_init(|| self.build_uniformized());
        (*q, p)
    }

    /// Transpose of the uniformized DTMC (the gather-propagation operand):
    /// the cached template copy when present, otherwise built once and
    /// memoized.
    pub(crate) fn uniformized_transpose(&self) -> &Csr {
        self.uniformized_t
            .get_or_init(|| self.uniformized().1.transpose())
    }

    /// Exit rate vector.
    pub(crate) fn exit_rates(&self) -> &[f64] {
        &self.exit
    }

    /// Initial distribution as sparse (state, probability) pairs.
    pub(crate) fn initial_pairs(&self) -> &[(u32, f64)] {
        &self.initial
    }

    /// Build the uniformized DTMC from the current rates.
    fn build_uniformized(&self) -> (f64, Csr) {
        let n = self.state_count();
        let q = uniformization_q(&self.exit);
        let mut t = Triplets::new(n, n);
        for s in 0..n {
            for (j, rate) in self.rates.row(s) {
                t.push(s, j, rate / q);
            }
            t.push(s, s, 1.0 - self.exit[s] / q);
        }
        (q, t.build())
    }

    /// Transient state distribution `π(t)` from the initial distribution.
    ///
    /// # Panics
    /// Panics if `t < 0`.
    pub fn transient_distribution(&self, t: f64, opts: &TransientOptions) -> Vec<f64> {
        assert!(t >= 0.0, "negative time {t}");
        if t == 0.0 {
            return self.initial_dense();
        }
        let mut engine = TransientEngine::new(self, opts);
        engine.advance(t);
        engine.distribution()
    }

    /// Survival function `S(t) = P[no absorption by t]` on an ascending
    /// mission-time grid.
    ///
    /// One [`TransientEngine`] sweep serves the whole grid: the distribution
    /// is propagated segment-by-segment (`t_{k-1} → t_k`), so the total
    /// Poisson depth is proportional to `q·t_max` rather than `q·Σ t_k` —
    /// on a typical mission grid this is several-fold cheaper than
    /// independent `transient_distribution` calls per point.
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
        let mut prev = 0.0_f64;
        for &t in times {
            assert!(t.is_finite() && t >= 0.0, "bad mission time {t}");
            assert!(t >= prev, "mission grid must be non-decreasing at {t}");
            prev = t;
        }
        let mut engine = TransientEngine::for_survival(self, opts);
        let out = engine.survival_curve(times);
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
    pub fn expected_occupancy(&self, t: f64, opts: &TransientOptions) -> Vec<f64> {
        assert!(t >= 0.0, "negative time {t}");
        if t == 0.0 {
            return vec![0.0; self.state_count()];
        }
        let mut engine = TransientEngine::new(self, opts);
        engine.occupancy(t)
    }

    /// Stationary distribution of an ergodic chain via power iteration on
    /// the uniformized DTMC.
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
        let (_, p) = self.uniformized();
        let cfg = IterConfig {
            tolerance: 1e-13,
            max_iterations: 1_000_000,
        };
        let (pi, rep) = numerics::linsolve::power_iteration_stationary(p, &cfg);
        if !rep.converged {
            return Err(SpnError::SolverDiverged {
                iterations: rep.iterations,
                residual: rep.residual,
            });
        }
        Ok(pi)
    }
}

/// Rebuild-free CTMC instantiation over one reachability-graph structure.
///
/// The CSR sparsity patterns of the rate matrix and of the uniformized
/// DTMC and its transpose are built **once** from the graph; every structurally
/// identical re-weighting of that graph (rate-only parameter variations —
/// the explore-once-solve-many sweeps) then only rewrites the value arrays
/// and the exit-rate vector in place via [`CtmcTemplate::refresh`]. Edges
/// whose rate drops to zero stay in the pattern as explicit zeros, so the
/// structure is stable across whole rate families and per-point evaluation
/// performs no graph or matrix allocation at all.
///
/// Numerically the refreshed CTMC is **bit-for-bit identical** to a fresh
/// [`Ctmc::from_graph`] build of the same re-weighted graph: values are
/// accumulated in the same order, and the explicit zeros only contribute
/// `+0.0` terms to the (non-negative) solver arithmetic.
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
    /// Uniformized-DTMC pattern (forward plus diagonal), the slot
    /// permutation forward → uniformized, and the diagonal slot per state.
    u_pattern: Arc<CsrPattern>,
    u_perm: Vec<u32>,
    diag_slots: Vec<u32>,
    /// Transposed uniformized pattern (the [`TransientEngine`] gather
    /// operand) and the slot permutation uniformized → transpose.
    ut_pattern: Arc<CsrPattern>,
    ut_from_u: Vec<u32>,
    initial: Vec<(u32, f64)>,
}

impl CtmcTemplate {
    /// Build the three sparsity patterns from a graph's structure.
    ///
    /// # Errors
    /// Returns [`SpnError::InvalidModel`] for an empty graph, an initial
    /// distribution that does not sum to 1, or a self-targeting edge (the
    /// reachability exploration never produces one).
    pub fn new(graph: &ReachabilityGraph) -> Result<Self, SpnError> {
        validate_graph(graph)?;
        let n = graph.state_count();

        // Forward pattern. Graph edges per state are sorted by (target,
        // transition), so equal targets are adjacent; dedup them into one
        // slot each. Sort defensively anyway: hand-assembled graphs are
        // legal inputs.
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
        let nnz = col_idx.len();

        // Uniformized pattern: forward rows with the diagonal spliced in at
        // its sorted position (self-edges were rejected above, so the
        // diagonal is never already present).
        let mut u_row_ptr = Vec::with_capacity(n + 1);
        u_row_ptr.push(0u32);
        let mut u_col = Vec::with_capacity(nnz + n);
        let mut u_perm = vec![0u32; nnz];
        let mut diag_slots = vec![0u32; n];
        for s in 0..n {
            let mut placed_diag = false;
            for slot in row_ptr[s] as usize..row_ptr[s + 1] as usize {
                let c = col_idx[slot];
                if !placed_diag && c as usize > s {
                    diag_slots[s] = u_col.len() as u32;
                    u_col.push(s as u32);
                    placed_diag = true;
                }
                u_perm[slot] = u_col.len() as u32;
                u_col.push(c);
            }
            if !placed_diag {
                diag_slots[s] = u_col.len() as u32;
                u_col.push(s as u32);
            }
            u_row_ptr.push(u_col.len() as u32);
        }

        // Transposed uniformized pattern + slot permutation uniformized →
        // transpose, by counting sort.
        let u_nnz = u_col.len();
        let mut ut_row_ptr = vec![0u32; n + 1];
        for &c in &u_col {
            ut_row_ptr[c as usize + 1] += 1;
        }
        for i in 0..n {
            ut_row_ptr[i + 1] += ut_row_ptr[i];
        }
        let mut ut_next = ut_row_ptr.clone();
        let mut ut_col = vec![0u32; u_nnz];
        let mut ut_from_u = vec![0u32; u_nnz];
        for r in 0..n {
            for slot in u_row_ptr[r] as usize..u_row_ptr[r + 1] as usize {
                let c = u_col[slot] as usize;
                let pos = ut_next[c];
                ut_next[c] += 1;
                ut_col[pos as usize] = r as u32;
                ut_from_u[slot] = pos;
            }
        }

        Ok(Self {
            n,
            pattern: Arc::new(CsrPattern::new(n, n, row_ptr, col_idx)),
            slots,
            edge_offsets,
            u_pattern: Arc::new(CsrPattern::new(n, n, u_row_ptr, u_col)),
            u_perm,
            diag_slots,
            ut_pattern: Arc::new(CsrPattern::new(n, n, ut_row_ptr, ut_col)),
            ut_from_u,
            initial: graph.initial_distribution.clone(),
        })
    }

    /// Number of states in the templated structure.
    pub fn state_count(&self) -> usize {
        self.n
    }

    /// Allocate a CTMC on this template's shared patterns and fill it from
    /// `graph`'s current rates. This is the only allocating step; reuse the
    /// returned chain across re-weightings via [`CtmcTemplate::refresh`].
    ///
    /// # Errors
    /// Same conditions as [`CtmcTemplate::refresh`].
    pub fn instantiate(&self, graph: &ReachabilityGraph) -> Result<Ctmc, SpnError> {
        let mut ctmc = Ctmc {
            rates: Csr::from_pattern(self.pattern.clone(), vec![0.0; self.pattern.nnz()]),
            exit: vec![0.0; self.n],
            initial: self.initial.clone(),
            absorbing: vec![false; self.n],
            uniformized: OnceLock::from((
                0.0,
                Csr::from_pattern(self.u_pattern.clone(), vec![0.0; self.u_pattern.nnz()]),
            )),
            uniformized_t: OnceLock::from(Csr::from_pattern(
                self.ut_pattern.clone(),
                vec![0.0; self.ut_pattern.nnz()],
            )),
            absorb: OnceLock::new(),
        };
        self.refresh(graph, &mut ctmc)?;
        Ok(ctmc)
    }

    /// Rewrite `ctmc`'s value arrays, exit rates, and absorbing flags in
    /// place from `graph`'s current (re-weighted) rates. No allocation.
    ///
    /// Zero-exit states are promoted to absorbing exactly as in
    /// [`Ctmc::from_graph`] (see there for why).
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
        if !Arc::ptr_eq(ctmc.rates.pattern(), &self.pattern) {
            return Err(SpnError::InvalidModel(
                "refresh target was not instantiated from this template".into(),
            ));
        }
        let Ctmc {
            rates,
            exit,
            absorbing,
            uniformized,
            uniformized_t,
            absorb,
            ..
        } = ctmc;
        let (Some((q_cached, uni)), Some(uni_t)) = (uniformized.get_mut(), uniformized_t.get_mut())
        else {
            return Err(SpnError::InvalidModel(
                "refresh target lost its cached matrices".into(),
            ));
        };

        // Forward values + exit rates, accumulated in graph-edge order —
        // the same order Ctmc::from_graph sums shared slots in.
        let values = rates.values_mut();
        values.fill(0.0);
        let mut k = 0usize;
        for (s, elist) in graph.edges.iter().enumerate() {
            if elist.len() != (self.edge_offsets[s + 1] - self.edge_offsets[s]) as usize {
                return Err(SpnError::InvalidModel(format!(
                    "state {s}: edge count changed; the variation is \
                     structural — re-explore"
                )));
            }
            let mut exit_s = 0.0;
            for e in elist {
                let slot = self.slots[k] as usize;
                if self.pattern.col(slot) != e.target as usize {
                    return Err(SpnError::InvalidModel(format!(
                        "state {s}: edge target changed; the variation is \
                         structural — re-explore"
                    )));
                }
                if e.rate > 0.0 {
                    values[slot] += e.rate;
                    exit_s += e.rate;
                }
                k += 1;
            }
            exit[s] = exit_s;
            absorbing[s] = graph.absorbing[s] || exit_s == 0.0;
        }

        // The cached absorption structure stays valid exactly while the
        // chain's positive-rate pattern and absorbing flags do.
        let values = rates.values();
        if !matches!(absorb.get(), Some(Ok(st)) if st.matches(values, absorbing)) {
            absorb.take();
        }

        // Uniformized DTMC, on the same q as Ctmc::build_uniformized.
        let q = uniformization_q(exit);
        let u_values = uni.values_mut();
        for (slot, &v) in values.iter().enumerate() {
            u_values[self.u_perm[slot] as usize] = v / q;
        }
        for s in 0..self.n {
            u_values[self.diag_slots[s] as usize] = 1.0 - exit[s] / q;
        }
        *q_cached = q;

        // Transposed uniformized values: a pure permutation of the
        // uniformized slots.
        let u_values = uni.values();
        let ut_values = uni_t.values_mut();
        for (slot, &v) in u_values.iter().enumerate() {
            ut_values[self.ut_from_u[slot] as usize] = v;
        }
        Ok(())
    }
}

/// Shared input validation for [`Ctmc::from_graph`] and
/// [`CtmcTemplate::new`]: both constructors must accept exactly the same
/// graphs.
fn validate_graph(graph: &ReachabilityGraph) -> Result<(), SpnError> {
    if graph.state_count() == 0 {
        return Err(SpnError::InvalidModel(
            "reachability graph has no states".into(),
        ));
    }
    let mass: f64 = graph.initial_distribution.iter().map(|&(_, p)| p).sum();
    if (mass - 1.0).abs() > 1e-9 {
        return Err(SpnError::InvalidModel(format!(
            "initial distribution sums to {mass}, expected 1"
        )));
    }
    Ok(())
}

/// Uniformization constant for a vector of exit rates — one definition so
/// the template-refreshed DTMC and [`Ctmc::build_uniformized`] can never
/// drift apart.
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
        let reachable = ctmc.reachable_from_initial();
        let can_absorb = ctmc.can_reach_absorbing();
        if !(0..n).any(|i| reachable[i] && ctmc.absorbing[i]) {
            return Err(SpnError::AnalysisUnavailable(
                "no absorbing state reachable from the initial distribution".into(),
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
    use crate::model::{SpnBuilder, TransitionDef};
    use crate::reach::{explore, ExploreOptions};

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

    #[test]
    fn accumulated_reward_weighted_sojourn() {
        let c = build(|b| {
            let up = b.add_place("up", 2);
            b.add_transition(
                TransitionDef::timed("die", move |m| m.tokens(up) as f64).input(up, 1),
            );
        });
        let a = c.mean_time_to_absorption().unwrap();
        // reward = tokens in `up`: E[∫ tokens dt] = 2·(1/2) + 1·(1/1) = 2
        // state order: (2), (1), (0)
        let reward = [2.0, 1.0, 0.0];
        let acc = a.accumulated_reward(&reward);
        assert!((acc - 2.0).abs() < 1e-9, "{acc}");
        let avg = a.time_averaged_reward(&reward);
        assert!((avg - acc / a.mtta).abs() < 1e-12);
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
    fn template_instantiate_matches_from_graph() {
        let mut b = SpnBuilder::new();
        let up = b.add_place("up", 4);
        b.add_transition(
            TransitionDef::timed("die", move |m| 0.7 * m.tokens(up) as f64).input(up, 1),
        );
        b.add_transition(
            TransitionDef::timed("die2", move |m| 0.2 * m.tokens(up) as f64).input(up, 2),
        );
        let net = b.build().unwrap();
        let g = explore(&net, &ExploreOptions::default()).unwrap();
        let template = CtmcTemplate::new(&g).unwrap();
        assert_eq!(template.state_count(), g.state_count());
        let t = template.instantiate(&g).unwrap();
        let f = Ctmc::from_graph(&g).unwrap();
        let a_t = t.mean_time_to_absorption().unwrap();
        let a_f = f.mean_time_to_absorption().unwrap();
        assert_eq!(a_t.mtta.to_bits(), a_f.mtta.to_bits());
        let times = [0.0, 1.0, 5.0];
        let opts = TransientOptions::default();
        let s_t = t.survival_curve(&times, &opts);
        let s_f = f.survival_curve(&times, &opts);
        for (x, y) in s_t.iter().zip(&s_f) {
            assert_eq!(x.to_bits(), y.to_bits());
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
        let fresh = Ctmc::from_graph(&working).unwrap();
        let a_t = ctmc.mean_time_to_absorption().unwrap();
        let a_f = fresh.mean_time_to_absorption().unwrap();
        assert_eq!(a_t.mtta.to_bits(), a_f.mtta.to_bits());
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
