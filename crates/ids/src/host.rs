//! Host-based IDS model.
//!
//! The paper abstracts whatever concrete technique a node runs (misuse /
//! signature or anomaly detection) into two per-node probabilities:
//! `p1` — false negative (a compromised neighbor judged healthy), and
//! `p2` — false positive (a healthy neighbor judged compromised). This
//! module provides that abstraction plus an executable Bernoulli assessor
//! for the discrete-event simulator.

use rand::Rng;

/// Per-node host IDS characterized by its error probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostIds {
    /// False-negative probability `p1` (miss a compromised node).
    pub p_false_negative: f64,
    /// False-positive probability `p2` (flag a healthy node).
    pub p_false_positive: f64,
}

impl HostIds {
    /// Create a host IDS with the given error probabilities.
    ///
    /// # Panics
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(p_false_negative: f64, p_false_positive: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_false_negative),
            "p1 = {p_false_negative} outside [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&p_false_positive),
            "p2 = {p_false_positive} outside [0,1]"
        );
        Self {
            p_false_negative,
            p_false_positive,
        }
    }

    /// The paper's default: `p1 = p2 = 1%` ("1% or less is considered
    /// acceptable").
    pub fn paper_default() -> Self {
        Self::new(0.01, 0.01)
    }

    /// Assess a neighbor: given the ground truth, return this node's
    /// (possibly erroneous) verdict — `true` = "compromised".
    pub fn assess<R: Rng + ?Sized>(&self, truly_compromised: bool, rng: &mut R) -> bool {
        if truly_compromised {
            // correct detection with probability 1 − p1
            rng.gen::<f64>() >= self.p_false_negative
        } else {
            // false alarm with probability p2
            rng.gen::<f64>() < self.p_false_positive
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn presets_have_expected_biases() {
        let d = HostIds::paper_default();
        assert_eq!(d.p_false_negative, 0.01);
        assert_eq!(d.p_false_positive, 0.01);
    }

    #[test]
    fn assess_rates_match_probabilities() {
        let ids = HostIds::new(0.2, 0.1);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let missed = (0..n).filter(|_| !ids.assess(true, &mut rng)).count();
        let flagged = (0..n).filter(|_| ids.assess(false, &mut rng)).count();
        let miss_rate = missed as f64 / n as f64;
        let flag_rate = flagged as f64 / n as f64;
        assert!((miss_rate - 0.2).abs() < 0.01, "{miss_rate}");
        assert!((flag_rate - 0.1).abs() < 0.01, "{flag_rate}");
    }

    #[test]
    fn perfect_ids_never_errs() {
        let ids = HostIds::new(0.0, 0.0);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..1_000 {
            assert!(ids.assess(true, &mut rng));
            assert!(!ids.assess(false, &mut rng));
        }
    }

    #[test]
    #[should_panic]
    fn invalid_probability_rejected() {
        HostIds::new(1.5, 0.0);
    }
}
