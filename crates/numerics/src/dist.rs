//! Discrete distributions with numerically stable pmf/cdf/sf evaluation and
//! small-population samplers.
//!
//! The voting-IDS formulas need *exact* tail probabilities of binomials with
//! tiny `p` (host-IDS error rates of 1%) convolved over hypergeometric voter
//! draws; everything here therefore works in log space and only exponentiates
//! at the end.

use crate::special::{ln_binomial, log_add_exp};
use rand::Rng;

/// Binomial distribution `Bin(n, p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Create `Bin(n, p)`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]` or not finite.
    pub fn new(n: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "Binomial: p={p} outside [0,1]");
        Self { n, p }
    }

    /// Number of trials.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// `ln P[X = k]`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return f64::NEG_INFINITY;
        }
        // Degenerate p handled exactly.
        if self.p == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if self.p == 1.0 {
            return if k == self.n { 0.0 } else { f64::NEG_INFINITY };
        }
        ln_binomial(self.n, k)
            + k as f64 * self.p.ln()
            + (self.n - k) as f64 * (1.0 - self.p).ln_1p_matched()
    }

    /// `P[X = k]`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// `P[X ≤ k]` by direct summation from the lighter tail.
    // detlint::allow(U001): complement oracle of sf in dist::tests::binomial_cdf_sf_complement and proptests.rs
    pub fn cdf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        // Sum the smaller number of terms.
        if (k as f64) <= self.n as f64 * self.p {
            // lower tail is small: sum it directly in log space
            let mut acc = f64::NEG_INFINITY;
            for j in 0..=k {
                acc = log_add_exp(acc, self.ln_pmf(j));
            }
            acc.exp().min(1.0)
        } else {
            1.0 - self.sf(k)
        }
    }

    /// `P[X > k]` (survival function).
    pub fn sf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 0.0;
        }
        if (k as f64) < self.n as f64 * self.p {
            return (1.0 - self.cdf_lower_direct(k)).clamp(0.0, 1.0);
        }
        let mut acc = f64::NEG_INFINITY;
        for j in (k + 1)..=self.n {
            acc = log_add_exp(acc, self.ln_pmf(j));
        }
        acc.exp().min(1.0)
    }

    fn cdf_lower_direct(&self, k: u64) -> f64 {
        let mut acc = f64::NEG_INFINITY;
        for j in 0..=k.min(self.n) {
            acc = log_add_exp(acc, self.ln_pmf(j));
        }
        acc.exp().min(1.0)
    }

    /// `P[X ≥ k]`.
    pub fn sf_inclusive(&self, k: u64) -> f64 {
        if k == 0 {
            1.0
        } else {
            self.sf(k - 1)
        }
    }

    /// Mean `np`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Variance `np(1−p)`.
    pub fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    /// Draw a sample by `n` Bernoulli trials — exact and adequate for the
    /// small `n` (vote counts ≤ a few dozen) used in the simulators.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut c = 0;
        for _ in 0..self.n {
            if rng.gen::<f64>() < self.p {
                c += 1;
            }
        }
        c
    }
}

/// Extension trait so `(1-p).ln_1p_matched()` reads as intended: compute
/// `ln(1-p)` accurately as `ln_1p(-p)` when we still hold `1-p`.
trait Ln1pMatched {
    fn ln_1p_matched(self) -> f64;
}
impl Ln1pMatched for f64 {
    fn ln_1p_matched(self) -> f64 {
        // `self` is (1 - p); recover p and use ln_1p for accuracy near 1.
        let p = 1.0 - self;
        (-p).ln_1p()
    }
}

/// Hypergeometric distribution: draws of size `m` from a population of
/// `total` items of which `tagged` are special; `X` counts special items in
/// the draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypergeometric {
    total: u64,
    tagged: u64,
    draws: u64,
}

impl Hypergeometric {
    /// Create the distribution.
    ///
    /// # Panics
    /// Panics unless `tagged ≤ total` and `draws ≤ total`.
    pub fn new(total: u64, tagged: u64, draws: u64) -> Self {
        assert!(
            tagged <= total,
            "Hypergeometric: tagged {tagged} > total {total}"
        );
        assert!(
            draws <= total,
            "Hypergeometric: draws {draws} > total {total}"
        );
        Self {
            total,
            tagged,
            draws,
        }
    }

    /// Smallest support value `max(0, draws + tagged − total)`.
    pub fn support_min(&self) -> u64 {
        (self.draws + self.tagged).saturating_sub(self.total)
    }

    /// Largest support value `min(draws, tagged)`.
    pub fn support_max(&self) -> u64 {
        self.draws.min(self.tagged)
    }

    /// `ln P[X = k]`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if k < self.support_min() || k > self.support_max() {
            return f64::NEG_INFINITY;
        }
        ln_binomial(self.tagged, k) + ln_binomial(self.total - self.tagged, self.draws - k)
            - ln_binomial(self.total, self.draws)
    }

    /// `P[X = k]`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// Mean `draws · tagged / total`.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.draws as f64 * self.tagged as f64 / self.total as f64
        }
    }

    /// Exact sequential sampler (urn draw without replacement).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut remaining_tagged = self.tagged;
        let mut remaining_total = self.total;
        let mut hit = 0;
        for _ in 0..self.draws {
            if remaining_total == 0 {
                break;
            }
            if (rng.gen_range(0..remaining_total)) < remaining_tagged {
                hit += 1;
                remaining_tagged -= 1;
            }
            remaining_total -= 1;
        }
        hit
    }
}

/// Poisson distribution with rate `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Create `Poisson(lambda)`.
    ///
    /// # Panics
    /// Panics if `lambda < 0` or non-finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "Poisson: bad lambda {lambda}"
        );
        Self { lambda }
    }

    /// `ln P[X = k]`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if self.lambda == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        k as f64 * self.lambda.ln() - self.lambda - crate::special::ln_factorial(k)
    }

    /// `P[X = k]`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// Knuth sampler for small `lambda`, normal approximation with rejection
    /// fallback (inversion from the mode) for large.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda < 30.0 {
            let l = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.gen::<f64>();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        }
        // Split: Poisson(a+b) = Poisson(a) + Poisson(b). Recurse on halves —
        // cost O(lambda/30) sub-draws; fine for the rates we use.
        let half = Poisson::new(self.lambda / 2.0);
        half.sample(rng) + half.sample(rng)
    }
}

/// Sample an exponential random variable with the given `rate`.
///
/// # Panics
/// Panics if `rate <= 0`.
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(
        rate > 0.0,
        "sample_exponential: rate {rate} must be positive"
    );
    // Use 1-u to avoid ln(0).
    let u: f64 = rng.gen::<f64>();
    -(1.0 - u).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        for &(n, p) in &[(0u64, 0.3), (1, 0.5), (10, 0.01), (25, 0.7), (40, 0.999)] {
            let b = Binomial::new(n, p);
            let total: f64 = (0..=n).map(|k| b.pmf(k)).sum();
            close(total, 1.0, 1e-12);
        }
    }

    #[test]
    fn binomial_degenerate_p() {
        let b0 = Binomial::new(7, 0.0);
        assert_eq!(b0.pmf(0), 1.0);
        assert_eq!(b0.pmf(1), 0.0);
        let b1 = Binomial::new(7, 1.0);
        assert_eq!(b1.pmf(7), 1.0);
        assert_eq!(b1.pmf(6), 0.0);
        assert_eq!(b1.sf_inclusive(7), 1.0);
    }

    #[test]
    fn binomial_cdf_sf_complement() {
        let b = Binomial::new(20, 0.13);
        for k in 0..=20 {
            close(b.cdf(k) + b.sf(k), 1.0, 1e-12);
        }
    }

    #[test]
    fn binomial_sf_inclusive_majority_example() {
        // P[Bin(5, 0.01) >= 3]: exact = C(5,3)p^3 q^2 + C(5,4) p^4 q + p^5
        let b = Binomial::new(5, 0.01);
        let p: f64 = 0.01;
        let q = 1.0 - p;
        let exact = 10.0 * p.powi(3) * q.powi(2) + 5.0 * p.powi(4) * q + p.powi(5);
        close(b.sf_inclusive(3), exact, 1e-15);
    }

    #[test]
    fn binomial_tiny_tail_no_underflow_to_garbage() {
        let b = Binomial::new(50, 1e-8);
        let sf = b.sf_inclusive(25);
        assert!(sf > 0.0 && sf < 1e-150);
    }

    #[test]
    fn binomial_moments_match_samples() {
        let b = Binomial::new(30, 0.4);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| b.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        close(mean, b.mean(), 0.1);
    }

    #[test]
    fn hypergeometric_pmf_sums_to_one() {
        for &(total, tagged, draws) in &[(10u64, 3u64, 5u64), (50, 20, 7), (9, 9, 4), (6, 0, 3)] {
            let h = Hypergeometric::new(total, tagged, draws);
            let total_p: f64 = (h.support_min()..=h.support_max()).map(|k| h.pmf(k)).sum();
            close(total_p, 1.0, 1e-12);
        }
    }

    #[test]
    fn hypergeometric_support_edges() {
        let h = Hypergeometric::new(10, 8, 6);
        // must draw at least 8+6-10 = 4 tagged
        assert_eq!(h.support_min(), 4);
        assert_eq!(h.support_max(), 6);
        assert_eq!(h.pmf(3), 0.0);
        assert_eq!(h.pmf(7), 0.0);
    }

    #[test]
    fn hypergeometric_known_value() {
        // P[X=2] drawing 4 from 5 tagged of 12: C(5,2)C(7,2)/C(12,4) = 10*21/495
        let h = Hypergeometric::new(12, 5, 4);
        close(h.pmf(2), 10.0 * 21.0 / 495.0, 1e-12);
    }

    #[test]
    fn hypergeometric_sampler_mean() {
        let h = Hypergeometric::new(40, 12, 9);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| h.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        close(mean, h.mean(), 0.05);
    }

    #[test]
    fn poisson_pmf_sums() {
        let p = Poisson::new(3.7);
        let total: f64 = (0..80).map(|k| p.pmf(k)).sum();
        close(total, 1.0, 1e-12);
    }

    #[test]
    fn poisson_zero_lambda() {
        let p = Poisson::new(0.0);
        assert_eq!(p.pmf(0), 1.0);
        assert_eq!(p.pmf(1), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p.sample(&mut rng), 0);
    }

    #[test]
    fn poisson_sampler_large_lambda_mean() {
        let p = Poisson::new(120.0);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 5_000;
        let mean: f64 = (0..n).map(|_| p.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        close(mean, 120.0, 1.0);
    }

    #[test]
    fn exponential_sampler_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| sample_exponential(&mut rng, 4.0))
            .sum::<f64>()
            / n as f64;
        close(mean, 0.25, 0.01);
    }

    #[test]
    #[should_panic]
    fn exponential_rejects_zero_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        sample_exponential(&mut rng, 0.0);
    }
}
