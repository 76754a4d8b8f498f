//! Structural (state-space-free) analysis: incidence matrix, P- and
//! T-invariants, and structural boundedness checks.
//!
//! A **P-invariant** is a non-negative integer weighting `y` of places with
//! `yᵀ·C = 0` (where `C` is the incidence matrix): the weighted token sum
//! `Σ y[p]·m(p)` is constant under every firing — a conservation law that
//! holds in *every* reachable marking without exploring any of them. For
//! the paper's net, `Tm + UCm + DCm` is such an invariant (nodes are never
//! created or destroyed), which the reachability-based tests can only
//! sample but this module proves.
//!
//! Invariants are computed with the classical Farkas algorithm on the
//! integer incidence matrix. A firing moves exactly its arcs' tokens, so
//! the incidence matrix is the whole of the net's token algebra and every
//! invariant found is exact.

use crate::model::Spn;

/// Result of invariant computation.
#[derive(Debug, Clone)]
pub struct StructuralReport {
    /// Minimal-support semi-positive P-invariants (place weights).
    pub p_invariants: Vec<Vec<i64>>,
    /// Minimal-support semi-positive T-invariants (transition weights).
    pub t_invariants: Vec<Vec<i64>>,
}

impl StructuralReport {
    /// True when every place has positive weight in some P-invariant —
    /// a sufficient condition for structural boundedness.
    // detlint::allow(U001): boundedness observer of structural::tests and substrate_integration::structural_analysis_proves_node_conservation
    pub fn covers_all_places(&self) -> bool {
        if self.p_invariants.is_empty() {
            return false;
        }
        let places = self.p_invariants[0].len();
        (0..places).all(|p| self.p_invariants.iter().any(|inv| inv[p] > 0))
    }

    /// Weighted token sum of `marking` under P-invariant `idx`.
    // detlint::allow(U001): conservation oracle of substrate_integration::structural_analysis_proves_node_conservation
    pub fn invariant_value(&self, idx: usize, marking: &crate::model::Marking) -> i64 {
        self.p_invariants[idx]
            .iter()
            .enumerate()
            .map(|(p, &w)| w * marking.as_slice()[p] as i64)
            .sum()
    }
}

/// Integer incidence matrix `C[p][t] = outputs(p,t) − inputs(p,t)`,
/// row-major `places × transitions`.
fn incidence(net: &Spn) -> Vec<Vec<i64>> {
    let places = net.place_count();
    let transitions = net.transition_count();
    let mut matrix = vec![vec![0i64; transitions]; places];
    for t in net.transition_ids() {
        let tr = net.transition_ref(t);
        for &(p, mult) in &tr.inputs {
            matrix[p.index()][t.index()] -= mult as i64;
        }
        for &(p, mult) in &tr.outputs {
            matrix[p.index()][t.index()] += mult as i64;
        }
    }
    matrix
}

/// Farkas algorithm: minimal-support semi-positive solutions of
/// `yᵀ·A = 0` where rows of `A` are indexed by the entities being weighted.
///
/// `A` has one row per entity (place for P-invariants) and one column per
/// constraint (transition for P-invariants).
fn farkas(a: &[Vec<i64>]) -> Vec<Vec<i64>> {
    let rows = a.len();
    if rows == 0 {
        return Vec::new();
    }
    let cols = a[0].len();
    // Working tableau rows: [constraint part | identity part].
    let mut tableau: Vec<(Vec<i64>, Vec<i64>)> = (0..rows)
        .map(|r| {
            let mut id = vec![0i64; rows];
            id[r] = 1;
            (a[r].clone(), id)
        })
        .collect();

    for c in 0..cols {
        let mut next: Vec<(Vec<i64>, Vec<i64>)> = Vec::new();
        // keep rows already zero in this column
        for row in &tableau {
            if row.0[c] == 0 {
                next.push(row.clone());
            }
        }
        // combine rows of opposite sign
        for i in 0..tableau.len() {
            for j in (i + 1)..tableau.len() {
                let (pi, pj) = (tableau[i].0[c], tableau[j].0[c]);
                if pi == 0 || pj == 0 || (pi > 0) == (pj > 0) {
                    continue;
                }
                let (wi, wj) = (pj.unsigned_abs() as i64, pi.unsigned_abs() as i64);
                let mut comb_a: Vec<i64> = tableau[i]
                    .0
                    .iter()
                    .zip(&tableau[j].0)
                    .map(|(&x, &y)| wi * x + wj * y)
                    .collect();
                let mut comb_id: Vec<i64> = tableau[i]
                    .1
                    .iter()
                    .zip(&tableau[j].1)
                    .map(|(&x, &y)| wi * x + wj * y)
                    .collect();
                // normalize by gcd to control growth
                let g = comb_a
                    .iter()
                    .chain(comb_id.iter())
                    .fold(0i64, |acc, &v| gcd(acc, v.abs()));
                if g > 1 {
                    for v in comb_a.iter_mut().chain(comb_id.iter_mut()) {
                        *v /= g;
                    }
                }
                next.push((comb_a, comb_id));
            }
        }
        // prune dominated rows (non-minimal support) to keep the tableau small
        next = prune_non_minimal(next);
        tableau = next;
    }

    // rows with zero constraint part are invariants
    let mut out: Vec<Vec<i64>> = tableau
        .into_iter()
        .filter(|(a_part, _)| a_part.iter().all(|&v| v == 0))
        .map(|(_, id)| id)
        .filter(|id| id.iter().any(|&v| v != 0))
        .collect();
    out.sort();
    out.dedup();
    out
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Drop rows whose support strictly contains another row's support.
fn prune_non_minimal(rows: Vec<(Vec<i64>, Vec<i64>)>) -> Vec<(Vec<i64>, Vec<i64>)> {
    let supports: Vec<Vec<bool>> = rows
        .iter()
        .map(|(_, id)| id.iter().map(|&v| v != 0).collect())
        .collect();
    let mut keep = vec![true; rows.len()];
    for i in 0..rows.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..rows.len() {
            if i == j || !keep[j] {
                continue;
            }
            // does support(j) strictly contain support(i)?
            let contains = supports[i]
                .iter()
                .zip(&supports[j])
                .all(|(&si, &sj)| !si || sj);
            let strictly = contains
                && supports[i]
                    .iter()
                    .zip(&supports[j])
                    .any(|(&si, &sj)| sj && !si);
            if strictly {
                keep[j] = false;
            }
        }
    }
    rows.into_iter()
        .zip(keep)
        .filter(|&(_, k)| k)
        .map(|(r, _)| r)
        .collect()
}

/// Compute P- and T-invariants of the net's arc structure.
pub fn analyze(net: &Spn) -> StructuralReport {
    let inc = incidence(net);
    // P-invariants: y over places with yᵀC = 0 → farkas on rows = places.
    let p_invariants = farkas(&inc);
    // Transpose for T-invariants: x over transitions with C·x = 0.
    let places = net.place_count();
    let transitions = net.transition_count();
    let mut transposed = vec![vec![0i64; places]; transitions];
    for (p, row) in inc.iter().enumerate().take(places) {
        for (t, entry) in transposed.iter_mut().enumerate().take(transitions) {
            entry[p] = row[t];
        }
    }
    let t_invariants = farkas(&transposed);
    StructuralReport {
        p_invariants,
        t_invariants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SpnBuilder, TransitionDef};

    #[test]
    fn two_place_loop_has_conservation_invariant() {
        let mut b = SpnBuilder::new();
        let a = b.add_place("a", 3);
        let c = b.add_place("c", 0);
        b.add_transition(
            TransitionDef::timed_const("ac", 1.0)
                .input(a, 1)
                .output(c, 1),
        );
        b.add_transition(
            TransitionDef::timed_const("ca", 1.0)
                .input(c, 1)
                .output(a, 1),
        );
        let net = b.build().unwrap();
        let report = analyze(&net);
        // P-invariant a + c; T-invariant ac + ca (fire both, return)
        assert_eq!(report.p_invariants, vec![vec![1, 1]]);
        assert_eq!(report.t_invariants, vec![vec![1, 1]]);
        assert!(report.covers_all_places());
        assert_eq!(report.invariant_value(0, &net.initial_marking()), 3);
    }

    #[test]
    fn weighted_invariant_found() {
        // t: 2a -> b  means 1·a + 2·b… wait: firing removes 2a adds 1b, so
        // invariant y must satisfy -2·y_a + 1·y_b = 0 → y = (1, 2).
        let mut b = SpnBuilder::new();
        let a = b.add_place("a", 4);
        let p = b.add_place("b", 0);
        b.add_transition(
            TransitionDef::timed_const("t", 1.0)
                .input(a, 2)
                .output(p, 1),
        );
        b.add_transition(
            TransitionDef::timed_const("back", 1.0)
                .input(p, 1)
                .output(a, 2),
        );
        let net = b.build().unwrap();
        let report = analyze(&net);
        assert_eq!(report.p_invariants, vec![vec![1, 2]]);
    }

    #[test]
    fn source_transition_breaks_coverage() {
        let mut b = SpnBuilder::new();
        let a = b.add_place("a", 0);
        b.add_transition(TransitionDef::timed_const("gen", 1.0).output(a, 1));
        let net = b.build().unwrap();
        let report = analyze(&net);
        assert!(report.p_invariants.is_empty());
        assert!(!report.covers_all_places());
    }

    #[test]
    fn disjoint_loops_give_minimal_invariants() {
        let mut b = SpnBuilder::new();
        let a = b.add_place("a", 1);
        let c = b.add_place("c", 0);
        let x = b.add_place("x", 2);
        let y = b.add_place("y", 0);
        b.add_transition(
            TransitionDef::timed_const("ac", 1.0)
                .input(a, 1)
                .output(c, 1),
        );
        b.add_transition(
            TransitionDef::timed_const("ca", 1.0)
                .input(c, 1)
                .output(a, 1),
        );
        b.add_transition(
            TransitionDef::timed_const("xy", 1.0)
                .input(x, 1)
                .output(y, 1),
        );
        b.add_transition(
            TransitionDef::timed_const("yx", 1.0)
                .input(y, 1)
                .output(x, 1),
        );
        let net = b.build().unwrap();
        let report = analyze(&net);
        // two minimal invariants, not their sum
        assert_eq!(report.p_invariants.len(), 2);
        assert!(report.p_invariants.contains(&vec![1, 1, 0, 0]));
        assert!(report.p_invariants.contains(&vec![0, 0, 1, 1]));
        assert!(report.covers_all_places());
    }

    #[test]
    fn dead_transition_no_t_invariant() {
        let mut b = SpnBuilder::new();
        let a = b.add_place("a", 1);
        b.add_transition(TransitionDef::timed_const("sink", 1.0).input(a, 1));
        let net = b.build().unwrap();
        let report = analyze(&net);
        assert!(report.t_invariants.is_empty());
    }
}
