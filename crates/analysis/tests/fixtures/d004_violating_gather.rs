//! D004 fixture: a gather-shaped matvec whose parallel reduction sums
//! per-row dot products across threads — the *outer* reduction order
//! depends on scheduling even though each row's dot is sequential.
//! Expected findings: 1.
use rayon::prelude::*;

pub fn gather_mass(rows: &[(usize, usize)], cols: &[u32], vals: &[f64], x: &[f64]) -> f64 {
    rows.par_iter()
        .map(|&(lo, hi)| {
            cols[lo..hi]
                .iter()
                .zip(&vals[lo..hi])
                .map(|(c, v)| v * x[*c as usize])
                .sum::<f64>()
        })
        .sum()
}
