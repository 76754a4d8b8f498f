//! Ablation: stationary-solver choice for the MTTSF linear system
//! (Gauss–Seidel vs Jacobi vs SOR vs dense LU) on the paper-scale model.

use criterion::{criterion_group, criterion_main, Criterion};
use gcsids::config::SystemConfig;
use gcsids::model::build_model;
use numerics::linsolve::{dense_lu_solve, gauss_seidel, jacobi, sor, IterConfig};
use numerics::sparse::Triplets;
use spn::reach::{explore, ExploreOptions};
use std::hint::black_box;

/// Build the transient-system matrix of a mid-sized instance once.
fn build_system(n: u32) -> (numerics::sparse::Csr, Vec<f64>) {
    let mut cfg = SystemConfig::paper_default();
    cfg.node_count = n;
    cfg.vote_participants = 3;
    let model = build_model(&cfg);
    let graph = explore(&model.net, &ExploreOptions::default()).unwrap();
    // Assemble (Q_TT)^T exactly the way the CTMC solver does.
    let n_states = graph.state_count();
    let transient: Vec<usize> = (0..n_states).filter(|&i| !graph.absorbing[i]).collect();
    let mut local = vec![usize::MAX; n_states];
    for (li, &gi) in transient.iter().enumerate() {
        local[gi] = li;
    }
    let nt = transient.len();
    let mut t = Triplets::new(nt, nt);
    for (li, &gi) in transient.iter().enumerate() {
        let exit: f64 = graph.edges[gi].iter().map(|e| e.rate).sum();
        t.push(li, li, -exit);
        for e in &graph.edges[gi] {
            if local[e.target as usize] != usize::MAX {
                t.push(local[e.target as usize], li, e.rate);
            }
        }
    }
    let mut b = vec![0.0; nt];
    b[0] = -1.0;
    (t.build(), b)
}

fn bench_solvers(c: &mut Criterion) {
    let (a, b) = build_system(30);
    let cfg = IterConfig {
        tolerance: 1e-12,
        max_iterations: 200_000,
        omega: 1.2,
    };
    let mut g = c.benchmark_group("mtta_solver");
    g.sample_size(10);
    g.bench_function("gauss_seidel", |bch| {
        bch.iter(|| gauss_seidel(black_box(&a), black_box(&b), &cfg).0[0])
    });
    g.bench_function("jacobi", |bch| {
        bch.iter(|| jacobi(black_box(&a), black_box(&b), &cfg).0[0])
    });
    g.bench_function("sor_1.2", |bch| {
        bch.iter(|| sor(black_box(&a), black_box(&b), &cfg).0[0])
    });
    if a.rows() <= 3000 {
        let dense = a.to_dense();
        g.bench_function("dense_lu", |bch| {
            bch.iter(|| dense_lu_solve(black_box(&dense), black_box(&b)).unwrap()[0])
        });
    }
    g.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
