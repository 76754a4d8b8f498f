//! Attacker and detection rate functions.
//!
//! The paper models both the attacker's compromise rate and the IDS
//! invocation rate with three shapes — logarithmic, linear, polynomial —
//! parameterized by a base index `p` (the paper uses `p = 3`). The paper's
//! literal `log_p(x)` would vanish at the base point `x = 1`, so all three
//! shapes are normalized to pass through `f(1) = 1`:
//!
//! ```text
//! f_log(x)  = log_p((p−1)·x + 1)      concave, slowest growth
//! f_lin(x)  = x                        linear
//! f_poly(x) = x^p                      convex, fastest growth
//! ```
//!
//! * attacker rate: `A(mc) = λc · f(mc)` with `mc = (T + U) / T`
//! * detection rate: `D(md) = f(md) / T_IDS` with `md = N_init / (T + U)`

/// Growth shape of a rate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RateShape {
    /// `log_p((p−1)x + 1)` — conservative growth.
    Logarithmic,
    /// `x` — proportional growth.
    Linear,
    /// `x^p` — aggressive growth.
    Polynomial,
}

impl RateShape {
    /// Evaluate the normalized shape at `x ≥ 1` with base index `p`.
    ///
    /// # Panics
    /// Panics if `x < 1` or `p <= 1`.
    pub fn eval(&self, x: f64, p: f64) -> f64 {
        assert!(x >= 1.0, "rate shapes are defined for x ≥ 1, got {x}");
        assert!(p > 1.0, "base index must exceed 1, got {p}");
        match self {
            RateShape::Logarithmic => ((p - 1.0) * x + 1.0).ln() / p.ln(),
            RateShape::Linear => x,
            RateShape::Polynomial => x.powf(p),
        }
    }

    /// All three shapes in the paper's presentation order.
    pub fn all() -> [RateShape; 3] {
        [
            RateShape::Logarithmic,
            RateShape::Linear,
            RateShape::Polynomial,
        ]
    }

    /// Human-readable name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            RateShape::Logarithmic => "logarithmic",
            RateShape::Linear => "linear",
            RateShape::Polynomial => "polynomial",
        }
    }
}

/// Attacker model `A(mc) = λc · f(mc)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackerProfile {
    /// Growth shape.
    pub shape: RateShape,
    /// Base compromising rate `λc` (per second); the paper's default is one
    /// compromise per 12 h.
    pub base_rate: f64,
    /// Base index `p` (paper: 3).
    pub exponent: f64,
}

impl AttackerProfile {
    /// Paper-default linear attacker: `λc = 1/(12 h)`, `p = 3`.
    pub fn paper_default() -> Self {
        Self {
            shape: RateShape::Linear,
            base_rate: 1.0 / (12.0 * 3600.0),
            exponent: 3.0,
        }
    }

    /// The compromise-progress argument `mc = (T + U) / T`.
    ///
    /// # Panics
    /// Panics when `trusted == 0` (the group is fully compromised — C2 has
    /// absorbed the chain before this is ever evaluated).
    pub fn mc(trusted: u32, undetected: u32) -> f64 {
        assert!(trusted > 0, "mc undefined with no trusted members");
        (trusted + undetected) as f64 / trusted as f64
    }

    /// Node-compromising rate in the given population state.
    pub fn rate(&self, trusted: u32, undetected: u32) -> f64 {
        self.base_rate
            * self
                .shape
                .eval(Self::mc(trusted, undetected), self.exponent)
    }
}

/// Detection model `D(md) = f(md) / T_IDS`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionProfile {
    /// Growth shape.
    pub shape: RateShape,
    /// Base detection interval `T_IDS` in seconds — the design parameter
    /// the paper optimizes.
    pub base_interval: f64,
    /// Base index `p` (paper: 3).
    pub exponent: f64,
}

impl DetectionProfile {
    /// Paper-style linear detection at the given base interval.
    pub fn linear(base_interval: f64) -> Self {
        Self {
            shape: RateShape::Linear,
            base_interval,
            exponent: 3.0,
        }
    }

    /// The detection-progress argument `md = N_init / (T + U)`.
    ///
    /// # Panics
    /// Panics when no members remain or when `initial` is smaller than the
    /// live population (would give `md < 1`).
    pub fn md(initial: u32, trusted: u32, undetected: u32) -> f64 {
        let live = trusted + undetected;
        assert!(live > 0, "md undefined with no live members");
        assert!(
            initial >= live,
            "initial population {initial} below live {live}"
        );
        initial as f64 / live as f64
    }

    /// IDS invocation rate in the given population state.
    ///
    /// # Panics
    /// Panics if the base interval is not positive.
    pub fn rate(&self, initial: u32, trusted: u32, undetected: u32) -> f64 {
        assert!(self.base_interval > 0.0, "T_IDS must be positive");
        self.shape
            .eval(Self::md(initial, trusted, undetected), self.exponent)
            / self.base_interval
    }

    /// Same profile with a different base interval (used by TIDS sweeps).
    pub fn with_interval(&self, base_interval: f64) -> Self {
        Self {
            base_interval,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_coincide_at_base_point() {
        for shape in RateShape::all() {
            let v = shape.eval(1.0, 3.0);
            assert!((v - 1.0).abs() < 1e-12, "{shape:?} at 1 = {v}");
        }
    }

    #[test]
    fn shape_ordering_beyond_base_point() {
        // log ≤ lin ≤ poly for x > 1 — the property Figures 4–5 rest on
        for &x in &[1.1, 1.5, 2.0, 3.0, 10.0] {
            let l = RateShape::Logarithmic.eval(x, 3.0);
            let n = RateShape::Linear.eval(x, 3.0);
            let p = RateShape::Polynomial.eval(x, 3.0);
            assert!(l < n && n < p, "x={x}: {l} {n} {p}");
        }
    }

    #[test]
    fn shapes_monotone_increasing() {
        for shape in RateShape::all() {
            let mut last = 0.0;
            for i in 0..50 {
                let x = 1.0 + i as f64 * 0.25;
                let v = shape.eval(x, 3.0);
                assert!(v > last, "{shape:?} not increasing at {x}");
                last = v;
            }
        }
    }

    #[test]
    fn mc_progression() {
        assert_eq!(AttackerProfile::mc(100, 0), 1.0);
        assert_eq!(AttackerProfile::mc(80, 20), 1.25);
        assert_eq!(AttackerProfile::mc(50, 50), 2.0);
    }

    #[test]
    fn attacker_rate_grows_with_compromise() {
        let a = AttackerProfile::paper_default();
        let r0 = a.rate(100, 0);
        let r1 = a.rate(80, 20);
        assert!((r0 - a.base_rate).abs() < 1e-18);
        assert!(r1 > r0);
    }

    #[test]
    fn polynomial_attacker_dominates_linear() {
        let lin = AttackerProfile {
            shape: RateShape::Linear,
            ..AttackerProfile::paper_default()
        };
        let poly = AttackerProfile {
            shape: RateShape::Polynomial,
            ..AttackerProfile::paper_default()
        };
        assert!(poly.rate(60, 40) > lin.rate(60, 40));
        assert_eq!(poly.rate(100, 0), lin.rate(100, 0)); // equal at base
    }

    #[test]
    fn md_progression() {
        assert_eq!(DetectionProfile::md(100, 100, 0), 1.0);
        assert_eq!(DetectionProfile::md(100, 40, 10), 2.0);
    }

    #[test]
    fn detection_rate_is_inverse_interval_at_base() {
        let d = DetectionProfile::linear(120.0);
        assert!((d.rate(100, 100, 0) - 1.0 / 120.0).abs() < 1e-15);
    }

    #[test]
    fn detection_rate_rises_as_members_evicted() {
        let d = DetectionProfile::linear(60.0);
        assert!(d.rate(100, 50, 10) > d.rate(100, 90, 10));
    }

    #[test]
    fn with_interval_rescales() {
        let d = DetectionProfile::linear(60.0);
        let d2 = d.with_interval(120.0);
        assert!((d.rate(100, 100, 0) / d2.rate(100, 100, 0) - 2.0).abs() < 1e-12);
        assert_eq!(d2.shape, d.shape);
    }

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(RateShape::Logarithmic.name(), "logarithmic");
        assert_eq!(RateShape::Linear.name(), "linear");
        assert_eq!(RateShape::Polynomial.name(), "polynomial");
    }

    #[test]
    #[should_panic]
    fn mc_rejects_zero_trusted() {
        AttackerProfile::mc(0, 5);
    }

    #[test]
    #[should_panic]
    fn shape_rejects_x_below_one() {
        RateShape::Linear.eval(0.5, 3.0);
    }
}
