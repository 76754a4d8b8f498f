//! Property-based tests for the numerics substrate.
#![allow(clippy::needless_range_loop)] // dense reference matrices are index-driven

use numerics::dist::{Binomial, Hypergeometric, Poisson};
use numerics::linsolve::{dense_lu_solve, gauss_seidel, IterConfig};
use numerics::search::{golden_section_max, log_space};
use numerics::sparse::Triplets;
use numerics::special::{ln_binomial, ln_gamma, log_add_exp, norm_cdf, norm_quantile};
use numerics::stats::{KahanSum, Welford};
use numerics::UnionFind;
use proptest::prelude::*;

proptest! {
    #[test]
    fn ln_gamma_recurrence_holds(x in 0.1f64..500.0) {
        let lhs = ln_gamma(x + 1.0);
        let rhs = ln_gamma(x) + x.ln();
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    fn ln_binomial_symmetry(n in 0u64..200, k in 0u64..200) {
        prop_assume!(k <= n);
        let a = ln_binomial(n, k);
        let b = ln_binomial(n, n - k);
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn ln_binomial_pascal(n in 1u64..150, k in 1u64..150) {
        prop_assume!(k <= n);
        // C(n+1, k) = C(n, k) + C(n, k-1)
        let lhs = ln_binomial(n + 1, k);
        let rhs = log_add_exp(ln_binomial(n, k), ln_binomial(n, k - 1));
        prop_assert!((lhs - rhs).abs() < 1e-8);
    }

    #[test]
    fn norm_quantile_is_inverse_cdf(p in 0.0001f64..0.9999) {
        let x = norm_quantile(p);
        prop_assert!((norm_cdf(x) - p).abs() < 1e-7);
    }

    #[test]
    fn binomial_probabilities_in_unit_range(n in 0u64..80, p in 0.0f64..=1.0, k in 0u64..100) {
        let b = Binomial::new(n, p);
        let pmf = b.pmf(k);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&pmf));
        let cdf = b.cdf(k);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&cdf));
        let sum = b.cdf(k) + b.sf(k);
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn binomial_cdf_monotone(n in 1u64..60, p in 0.0f64..=1.0) {
        let b = Binomial::new(n, p);
        let mut last = 0.0;
        for k in 0..=n {
            let c = b.cdf(k);
            prop_assert!(c + 1e-12 >= last);
            last = c;
        }
        prop_assert!((last - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hypergeometric_mass_is_one(total in 1u64..80, tagged_frac in 0.0f64..=1.0, draw_frac in 0.0f64..=1.0) {
        let tagged = ((total as f64) * tagged_frac) as u64;
        let draws = ((total as f64) * draw_frac) as u64;
        let h = Hypergeometric::new(total, tagged, draws);
        let mass: f64 = (h.support_min()..=h.support_max()).map(|k| h.pmf(k)).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_mean_matches(lambda in 0.01f64..40.0) {
        let p = Poisson::new(lambda);
        let mean: f64 = (0..400).map(|k| k as f64 * p.pmf(k)).sum();
        prop_assert!((mean - lambda).abs() < 1e-6 * (1.0 + lambda));
    }

    #[test]
    fn kahan_matches_exact_integer_sums(xs in proptest::collection::vec(-1_000i32..1_000, 0..400)) {
        let mut k = KahanSum::new();
        for &x in &xs {
            k.add(x as f64);
        }
        let exact: i64 = xs.iter().map(|&x| x as i64).sum();
        prop_assert_eq!(k.value(), exact as f64);
    }

    #[test]
    fn welford_mean_within_min_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        prop_assert!(w.mean() >= w.min() - 1e-9);
        prop_assert!(w.mean() <= w.max() + 1e-9);
        prop_assert!(w.variance() >= 0.0);
    }

    #[test]
    fn welford_merged_halves_equal_sequential_pass(xs in proptest::collection::vec(-1e4f64..1e4, 2..400), split_frac in 0.0f64..=1.0) {
        // Chan et al. pairwise combination: folding the two halves
        // separately and merging must reproduce the single sequential
        // pass (counts and extremes exactly, moments to fp tolerance).
        let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
        let mut whole = Welford::new();
        for &x in &xs { whole.push(x); }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..split] { a.push(x); }
        for &x in &xs[split..] { b.push(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert_eq!(a.min(), whole.min());
        prop_assert_eq!(a.max(), whole.max());
        let scale = 1.0 + whole.mean().abs();
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9 * scale);
        let vscale = 1.0 + whole.variance().abs();
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-8 * vscale);
        prop_assert!((a.std_err() - whole.std_err()).abs() < 1e-8 * vscale);
    }

    #[test]
    fn welford_merge_order_invariant(xs in proptest::collection::vec(-1e3f64..1e3, 2..200), split in 1usize..199) {
        prop_assume!(split < xs.len());
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..split] { a.push(x); }
        for &x in &xs[split..] { b.push(x); }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - ba.variance()).abs() < 1e-6);
    }

    #[test]
    fn gauss_seidel_solves_diag_dominant(seed in 0u64..5_000, n in 2usize..25) {
        use numerics::rng::SplitMix64;
        let mut rng = SplitMix64::new(seed);
        let mut t = Triplets::new(n, n);
        let mut dense = vec![vec![0.0; n]; n];
        for r in 0..n {
            let mut off = 0.0;
            for c in 0..n {
                if r != c && rng.next_f64() < 0.3 {
                    let v = rng.next_f64() * 2.0 - 1.0;
                    t.push(r, c, v);
                    dense[r][c] = v;
                    off += v.abs();
                }
            }
            let d = off + 0.5 + rng.next_f64();
            t.push(r, r, d);
            dense[r][r] = d;
        }
        let a = t.build();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let (x, rep) = gauss_seidel(&a, &b, &IterConfig::default());
        prop_assert!(rep.converged);
        let mut flat: Vec<f64> = dense.concat();
        let mut xd = b.clone();
        prop_assert!(dense_lu_solve(&mut flat, &mut xd), "nonsingular");
        for (u, v) in x.iter().zip(&xd) {
            prop_assert!((u - v).abs() < 1e-6, "{} vs {}", u, v);
        }
    }

    #[test]
    fn csr_matvec_matches_dense(seed in 0u64..2_000, n in 1usize..20, m in 1usize..20) {
        use numerics::rng::SplitMix64;
        let mut rng = SplitMix64::new(seed);
        let mut t = Triplets::new(n, m);
        let mut dense = vec![vec![0.0; m]; n];
        for r in 0..n {
            for c in 0..m {
                if rng.next_f64() < 0.4 {
                    let v = rng.next_f64() * 4.0 - 2.0;
                    t.push(r, c, v);
                    dense[r][c] += v;
                }
            }
        }
        let a = t.build();
        let x: Vec<f64> = (0..m).map(|i| (i as f64 * 0.3).cos()).collect();
        let y = a.matvec(&x);
        for r in 0..n {
            let exact: f64 = (0..m).map(|c| dense[r][c] * x[c]).sum();
            prop_assert!((y[r] - exact).abs() < 1e-10);
        }
    }

    #[test]
    fn golden_section_finds_quadratic_peak(center in -4.0f64..4.0) {
        let e = golden_section_max(-10.0, 10.0, 1e-9, |x| -(x - center) * (x - center));
        prop_assert!((e.x - center).abs() < 1e-5);
    }

    #[test]
    fn log_space_is_sorted_and_bounded(lo in 0.001f64..10.0, factor in 1.1f64..1000.0, n in 2usize..40) {
        let hi = lo * factor;
        let g = log_space(lo, hi, n);
        prop_assert_eq!(g.len(), n);
        for w in g.windows(2) {
            prop_assert!(w[0] < w[1] + 1e-15);
        }
        prop_assert!((g[0] - lo).abs() < 1e-9 * lo);
        prop_assert!((g[n - 1] - hi).abs() < 1e-9 * hi);
    }

    #[test]
    fn union_find_transitivity(n in 3usize..60, edges in proptest::collection::vec((0usize..60, 0usize..60), 0..120)) {
        let mut uf = UnionFind::new(n);
        for &(a, b) in &edges {
            if a < n && b < n {
                uf.union(a, b);
            }
        }
        // labels partition the set consistently with connectivity
        let (labels, sizes) = uf.component_labels();
        prop_assert_eq!(sizes.iter().sum::<u32>() as usize, n);
        for &(a, b) in &edges {
            if a < n && b < n {
                prop_assert_eq!(labels[a], labels[b]);
            }
        }
    }
}
