//! Hop-count statistics over the connectivity graph.
//!
//! The cost model measures traffic in hop·bits: a unicast message of `L`
//! bits crossing `h` hops costs `h·L`, and an intra-group flood costs one
//! transmission per member. These statistics are sampled during mobility
//! calibration and summarized as an overall mean hop count.

use crate::graph::ConnectivityGraph;
use numerics::stats::Welford;
use rand::Rng;

/// Accumulates hop-count samples.
#[derive(Debug, Clone)]
pub struct HopSampler {
    overall: Welford,
}

impl Default for HopSampler {
    fn default() -> Self {
        Self::new()
    }
}

impl HopSampler {
    /// Empty sampler.
    pub fn new() -> Self {
        Self {
            overall: Welford::new(),
        }
    }

    /// Sample mean hop counts from `samples` random source nodes of the
    /// graph (sources in singleton components contribute nothing).
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        graph: &ConnectivityGraph,
        samples: usize,
        rng: &mut R,
    ) {
        let n = graph.node_count();
        if n == 0 {
            return;
        }
        for _ in 0..samples {
            let src = rng.gen_range(0..n);
            if let Some(h) = graph.mean_hops_from(src) {
                self.overall.push(h);
            }
        }
    }

    /// Overall mean hop count (≥ 1 whenever any sample was taken).
    pub fn mean_hops(&self) -> f64 {
        if self.overall.count() == 0 {
            1.0
        } else {
            self.overall.mean()
        }
    }

    /// Number of samples taken.
    // detlint::allow(U001): observer of hops::tests::merge_combines_counts, the test of the live merge
    pub fn sample_count(&self) -> u64 {
        self.overall.count()
    }

    /// Merge another sampler's data.
    pub fn merge(&mut self, other: &HopSampler) {
        self.overall.merge(&other.overall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Vec2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampling_a_chain_gives_expected_mean() {
        // path of 5 nodes, 100 m apart, range 150 — mean hops from the
        // middle node = (2+1+1+2)/4 = 1.5; from an end = 2.5
        let pts: Vec<Vec2> = (0..5).map(|i| Vec2::new(i as f64 * 100.0, 0.0)).collect();
        let g = ConnectivityGraph::build(&pts, 150.0);
        let mut s = HopSampler::new();
        let mut rng = StdRng::seed_from_u64(1);
        s.sample(&g, 2_000, &mut rng);
        assert!(s.sample_count() > 0);
        // average over uniformly random sources: (2.5+1.75+1.5+1.75+2.5)/5 = 2.0
        assert!((s.mean_hops() - 2.0).abs() < 0.1, "{}", s.mean_hops());
    }

    #[test]
    fn isolated_nodes_contribute_nothing() {
        let pts = vec![Vec2::default(), Vec2::new(9_999.0, 0.0)];
        let g = ConnectivityGraph::build(&pts, 10.0);
        let mut s = HopSampler::new();
        let mut rng = StdRng::seed_from_u64(2);
        s.sample(&g, 100, &mut rng);
        assert_eq!(s.sample_count(), 0);
        assert_eq!(s.mean_hops(), 1.0); // fallback
    }

    #[test]
    fn merge_combines_counts() {
        let pts: Vec<Vec2> = (0..4).map(|i| Vec2::new(i as f64 * 50.0, 0.0)).collect();
        let g = ConnectivityGraph::build(&pts, 60.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = HopSampler::new();
        a.sample(&g, 50, &mut rng);
        let mut b = HopSampler::new();
        b.sample(&g, 70, &mut rng);
        let (ca, cb) = (a.sample_count(), b.sample_count());
        a.merge(&b);
        assert_eq!(a.sample_count(), ca + cb);
    }
}
