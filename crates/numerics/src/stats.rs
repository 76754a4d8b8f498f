//! Streaming statistics: Kahan summation, Welford moments and confidence
//! intervals.
//!
//! Monte-Carlo validation of the analytic model runs thousands of
//! replications in parallel; these accumulators are mergeable so each worker
//! can keep a private one (see the `merge` methods).

use crate::special::norm_quantile;

/// Compensated (Kahan–Babuška) summation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KahanSum {
    sum: f64,
    comp: f64,
}

impl KahanSum {
    /// Fresh zero sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a term.
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.comp += (self.sum - t) + x;
        } else {
            self.comp += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// Current compensated value.
    pub fn value(&self) -> f64 {
        self.sum + self.comp
    }

    /// Merge another compensated sum into this one.
    pub fn merge(&mut self, other: &KahanSum) {
        self.add(other.sum);
        self.add(other.comp);
    }
}

impl std::iter::FromIterator<f64> for KahanSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = KahanSum::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; 0 when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Smallest observation (∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator (Chan et al. parallel update).
    pub fn merge(&mut self, o: &Welford) {
        if o.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *o;
            return;
        }
        let n1 = self.n as f64;
        let n2 = o.n as f64;
        let d = o.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += o.m2 + d * d * n1 * n2 / n;
        self.n += o.n;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
    }

    /// Relative CI half-width at `level` once at least two observations
    /// exist (`None` before that) — the replication engine's stopping
    /// metric, shared by every [`crate::replicate::OutcomeSink`] whose
    /// primary statistic is a Welford mean.
    ///
    /// # Panics
    /// Panics if `level` is outside (0, 1).
    pub fn relative_precision(&self, level: f64) -> Option<f64> {
        (self.n >= 2).then(|| self.confidence_interval(level).relative_half_width())
    }

    /// Two-sided normal-approximation confidence interval at `level`
    /// (e.g. 0.95).
    ///
    /// # Panics
    /// Panics if `level` is outside (0, 1).
    pub fn confidence_interval(&self, level: f64) -> ConfidenceInterval {
        assert!(level > 0.0 && level < 1.0, "bad confidence level {level}");
        let z = norm_quantile(0.5 + level / 2.0);
        let half = z * self.std_err();
        ConfidenceInterval {
            mean: self.mean,
            half_width: half,
            level,
            n: self.n,
        }
    }
}

/// Two-sided confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub mean: f64,
    /// Half width of the interval.
    pub half_width: f64,
    /// Confidence level used (e.g. 0.95).
    pub level: f64,
    /// Sample count behind the estimate.
    pub n: u64,
}

impl ConfidenceInterval {
    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// True when `x` lies within the interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo() && x <= self.hi()
    }

    /// Relative half width (`half_width / |mean|`, ∞ for zero mean).
    pub fn relative_half_width(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.half_width / self.mean.abs()
        }
    }
}

/// Wilson score interval for a binomial proportion `successes / n`.
///
/// The returned [`ConfidenceInterval`] is centred on the **Wilson
/// midpoint** `(k + z²/2) / (n + z²)` (the interval is symmetric around
/// it), not on the raw proportion `k/n` — read the point estimate
/// separately.
///
/// Wilson is chosen over the naive Wald interval because the degenerate
/// samples that survival analysis hits constantly stay well-behaved, with
/// no `NaN` anywhere:
/// * `n = 0` (nothing at risk — every replication censored earlier)
///   returns `None` instead of propagating a `0/0` mean;
/// * zero-variance samples (`successes ∈ {0, n}`, e.g. survival at `t = 0`
///   where every replication is alive) get the exact one-sided bounds
///   `[n/(n+z²), 1]` / `[0, z²/(n+z²)]` — a Wald interval collapses to
///   zero width there, which both understates the uncertainty and makes
///   any exact-inside-CI containment check fail spuriously.
///
/// Bounds are analytically inside `[0, 1]`.
///
/// # Panics
/// Panics if `successes > n` or `level` is outside (0, 1).
pub fn proportion_ci(successes: u64, n: u64, level: f64) -> Option<ConfidenceInterval> {
    assert!(successes <= n, "{successes} successes out of {n} trials");
    assert!(level > 0.0 && level < 1.0, "bad confidence level {level}");
    if n == 0 {
        return None;
    }
    let k = successes as f64;
    let nf = n as f64;
    let z = norm_quantile(0.5 + level / 2.0);
    let z2 = z * z;
    let center = (k + z2 / 2.0) / (nf + z2);
    // The radicand k(n−k)/n + z²/4 is ≥ z²/4 > 0: never NaN.
    let half = z * (k * (nf - k) / nf + z2 / 4.0).sqrt() / (nf + z2);
    Some(ConfidenceInterval {
        mean: center,
        half_width: half,
        level,
        n,
    })
}

/// Streaming Kaplan–Meier-style survival counts on a fixed horizon grid.
///
/// Runs censored *before* a grid point carry no information about
/// surviving to it and are excluded; every other run is at risk there, and
/// survives when its event time is at or past the point. The accumulator
/// maintains that numerator/denominator per grid point incrementally from
/// `(time, censored)` events, so replication engines
/// can aggregate survival without materializing outcomes. Merging two
/// accumulators over the same grid is exact (integer counters), which
/// makes it safe for parallel per-worker sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivalAccumulator {
    times: Vec<f64>,
    surviving: Vec<u64>,
    at_risk: Vec<u64>,
    censored_before: Vec<u64>,
}

impl SurvivalAccumulator {
    /// Accumulator over the given horizon grid.
    pub fn new(times: &[f64]) -> Self {
        Self {
            times: times.to_vec(),
            surviving: vec![0; times.len()],
            at_risk: vec![0; times.len()],
            censored_before: vec![0; times.len()],
        }
    }

    /// The horizon grid.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Record one replication ending at `time` (censored = still alive but
    /// no longer observed).
    pub fn push(&mut self, time: f64, censored: bool) {
        for (i, &t) in self.times.iter().enumerate() {
            if censored && time < t {
                // Censored before the horizon: carries no information about
                // surviving to t, but its existence makes the common-horizon
                // estimator failure-biased there — flag it.
                self.censored_before[i] += 1;
                continue;
            }
            self.at_risk[i] += 1;
            if time >= t {
                self.surviving[i] += 1;
            }
        }
    }

    /// Merge counts accumulated over the same grid (exact).
    ///
    /// # Panics
    /// Panics when the grids differ.
    pub fn merge(&mut self, other: &SurvivalAccumulator) {
        assert_eq!(self.times, other.times, "survival grids must match");
        for i in 0..self.times.len() {
            self.surviving[i] += other.surviving[i];
            self.at_risk[i] += other.at_risk[i];
            self.censored_before[i] += other.censored_before[i];
        }
    }

    /// `(surviving, at_risk)` at grid point `i`.
    pub fn counts(&self, i: usize) -> (u64, u64) {
        (self.surviving[i], self.at_risk[i])
    }

    /// True when the estimate at grid point `i` is unbiased under the
    /// common-censoring-horizon assumption: no replication was censored
    /// strictly before the horizon.
    pub fn estimable(&self, i: usize) -> bool {
        self.censored_before[i] == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kahan_beats_naive_on_adversarial_series() {
        let mut k = KahanSum::new();
        let mut naive = 0.0_f64;
        k.add(1.0);
        naive += 1.0;
        for _ in 0..10_000_000 {
            k.add(1e-16);
            naive += 1e-16;
        }
        let exact = 1.0 + 1e-16 * 1e7;
        assert!((k.value() - exact).abs() < 1e-12);
        // naive summation loses all the tiny terms
        assert!((naive - exact).abs() > 1e-10);
    }

    #[test]
    fn kahan_merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let mut a = KahanSum::new();
        for &x in &xs[..500] {
            a.add(x);
        }
        let mut b = KahanSum::new();
        for &x in &xs[500..] {
            b.add(x);
        }
        let whole: KahanSum = xs.iter().copied().collect();
        a.merge(&b);
        assert!((a.value() - whole.value()).abs() < 1e-12);
    }

    #[test]
    fn welford_known_values() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // sample variance with n-1 = 32/7
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let xs: Vec<f64> = (0..2001).map(|i| ((i * 37) % 101) as f64 * 0.25).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 3 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-8);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(3.0);
        let b = Welford::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 3.0);
    }

    #[test]
    fn confidence_interval_sanity() {
        let mut w = Welford::new();
        for i in 0..100 {
            w.push(i as f64);
        }
        let ci = w.confidence_interval(0.95);
        assert!(ci.contains(w.mean()));
        assert!(ci.lo() < ci.hi());
        // 95% z ≈ 1.96
        assert!((ci.half_width / w.std_err() - 1.959_963_984_540_054).abs() < 1e-6);
        // wider level => wider interval
        let ci99 = w.confidence_interval(0.99);
        assert!(ci99.half_width > ci.half_width);
    }

    /// Survival counts at horizon `t` for right-censored event times.
    ///
    /// `events` holds `(time, censored)` pairs: a failure observed at `time`,
    /// or a run censored (still alive, no longer observed) at `time`. Runs
    /// censored *before* `t` carry no information about surviving to `t` and
    /// are excluded; everything else is at risk, and survives when its event
    /// time is `≥ t`. Returns `(surviving, at_risk)` — the simplified
    /// Kaplan–Meier numerator/denominator for a common censoring horizon.
    fn at_risk_surviving(events: &[(f64, bool)], t: f64) -> (u64, u64) {
        let mut at_risk = 0u64;
        let mut surviving = 0u64;
        for &(time, censored) in events {
            if censored && time < t {
                continue;
            }
            at_risk += 1;
            if time >= t {
                surviving += 1;
            }
        }
        (surviving, at_risk)
    }

    #[test]
    fn at_risk_surviving_excludes_early_censoring() {
        // failure at 5, censored at 10
        let events = [(5.0, false), (10.0, true)];
        assert_eq!(at_risk_surviving(&events, 2.0), (2, 2));
        assert_eq!(at_risk_surviving(&events, 7.0), (1, 2));
        // the run censored at 10 carries no information about t = 20
        assert_eq!(at_risk_surviving(&events, 20.0), (0, 1));
        // and if everything was censored before t, nothing is at risk
        assert_eq!(at_risk_surviving(&[(1.0, true)], 2.0), (0, 0));
    }

    #[test]
    fn proportion_ci_zero_variance_is_finite() {
        // t = 0 survival: every replication alive — a naive Wald interval
        // produces a zero-width (or, with fp rounding into sqrt of a
        // negative, NaN) interval here; Wilson gives the exact one-sided
        // bounds with no NaN anywhere.
        let z = 1.959_963_984_540_054_f64;
        let ci = proportion_ci(200, 200, 0.95).unwrap();
        assert!(!ci.mean.is_nan() && !ci.half_width.is_nan());
        assert!((ci.hi() - 1.0).abs() < 1e-12, "hi = {}", ci.hi());
        assert!((ci.lo() - 200.0 / (200.0 + z * z)).abs() < 1e-9);
        assert!(ci.contains(1.0));

        let none_survive = proportion_ci(0, 50, 0.95).unwrap();
        assert!(none_survive.lo().abs() < 1e-12);
        assert!((none_survive.hi() - z * z / (50.0 + z * z)).abs() < 1e-9);
        assert!(none_survive.contains(0.0));
    }

    #[test]
    fn proportion_ci_none_when_nothing_at_risk() {
        assert!(proportion_ci(0, 0, 0.95).is_none());
    }

    #[test]
    fn proportion_ci_matches_wilson_formula() {
        let z = 1.959_963_984_540_054_f64;
        let ci = proportion_ci(30, 100, 0.95).unwrap();
        let center = (30.0 + z * z / 2.0) / (100.0 + z * z);
        let half = z * (30.0_f64 * 70.0 / 100.0 + z * z / 4.0).sqrt() / (100.0 + z * z);
        assert!((ci.mean - center).abs() < 1e-12);
        assert!((ci.half_width - half).abs() < 1e-12);
        assert_eq!(ci.n, 100);
        // interval brackets the raw proportion and stays inside [0, 1]
        assert!(ci.lo() < 0.3 && 0.3 < ci.hi());
        assert!(ci.lo() >= 0.0 && ci.hi() <= 1.0);
    }

    #[test]
    fn survival_accumulator_matches_batch_helper() {
        let events = [(5.0, false), (10.0, true), (2.0, true), (8.0, false)];
        let grid = [0.0, 3.0, 7.0, 9.0, 20.0];
        let mut acc = SurvivalAccumulator::new(&grid);
        for &(t, c) in &events {
            acc.push(t, c);
        }
        for (i, &t) in grid.iter().enumerate() {
            assert_eq!(acc.counts(i), at_risk_surviving(&events, t), "t = {t}");
            let censored_earlier = events.iter().any(|&(time, c)| c && time < t);
            assert_eq!(acc.estimable(i), !censored_earlier, "t = {t}");
        }
    }

    #[test]
    fn survival_accumulator_merge_is_exact() {
        let events: Vec<(f64, bool)> = (0..40).map(|i| (i as f64 * 0.7, i % 5 == 0)).collect();
        let grid = [0.0, 5.0, 15.0, 30.0];
        let mut whole = SurvivalAccumulator::new(&grid);
        let mut a = SurvivalAccumulator::new(&grid);
        let mut b = SurvivalAccumulator::new(&grid);
        for (i, &(t, c)) in events.iter().enumerate() {
            whole.push(t, c);
            if i % 2 == 0 {
                a.push(t, c);
            } else {
                b.push(t, c);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    #[should_panic]
    fn survival_accumulator_rejects_grid_mismatch() {
        let mut a = SurvivalAccumulator::new(&[1.0]);
        a.merge(&SurvivalAccumulator::new(&[2.0]));
    }
}
