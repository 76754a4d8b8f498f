//! D004 fixture: partial sums on ad-hoc scoped threads — the chunking,
//! and with it the float association, follows the thread count.
//! Expected findings: 1.

pub fn mean(xs: &[f64]) -> f64 {
    let per_thread = xs.len().div_ceil(4).max(1);
    let total: f64 = std::thread::scope(|s| {
        let partials: Vec<_> = xs
            .chunks(per_thread)
            .map(|c| s.spawn(move || c.iter().map(|x| x * 2.0).sum::<f64>()))
            .collect();
        partials.into_iter().map(|h| h.join().unwrap_or(0.0)).sum()
    });
    total / xs.len() as f64
}
