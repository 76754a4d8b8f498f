//! Ablation: serial vs rayon-parallel Monte-Carlo replications and figure
//! sweeps.

use criterion::{criterion_group, criterion_main, Criterion};
use gcsids::config::SystemConfig;
use gcsids::des::{run_des, run_des_replications, DesConfig};
use numerics::rng::child_seed;
use std::hint::black_box;

fn hot_cfg() -> DesConfig {
    let mut c = SystemConfig::paper_default();
    c.node_count = 20;
    c.vote_participants = 3;
    c.attacker.base_rate = 1.0 / 600.0;
    DesConfig::new(c)
}

fn bench_replications(c: &mut Criterion) {
    let cfg = hot_cfg();
    let mut g = c.benchmark_group("des_replications_x64");
    g.sample_size(10);
    g.bench_function("serial", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..64u64 {
                acc += run_des(black_box(&cfg), child_seed(7, i)).time;
            }
            acc
        })
    });
    g.bench_function("rayon", |b| {
        b.iter(|| run_des_replications(black_box(&cfg), 64, 7).mttsf.mean())
    });
    g.finish();
}

criterion_group!(benches, bench_replications);
criterion_main!(benches);
