//! D004 fixture: a gather-shaped matvec whose rows are split over
//! detached threads and whose per-thread masses are summed as they
//! arrive — the *outer* reduction order depends on scheduling even
//! though each row's dot is sequential. Expected findings: 1.
use std::sync::{mpsc, Arc};
use std::thread;

pub fn gather_mass(rows: Vec<(usize, usize)>, cols: Arc<[u32]>, vals: Arc<[f64]>, x: Arc<[f64]>) -> f64 {
    let (tx, rx) = mpsc::channel();
    for (lo, hi) in rows {
        let (tx, cols, vals, x) = (tx.clone(), cols.clone(), vals.clone(), x.clone());
        thread::spawn(move || {
            let dot: f64 = cols[lo..hi]
                .iter()
                .zip(&vals[lo..hi])
                .map(|(c, v)| v * x[*c as usize])
                .sum();
            tx.send(dot).ok();
        });
    }
    drop(tx);
    rx.iter().sum()
}
