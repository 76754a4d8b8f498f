//! Mobile-group dynamics: partition/merge event detection and birth–death
//! rate calibration.
//!
//! The SPN models the number of groups `NG` as a birth–death process with
//! partition rate `σ_par(g) = ν_p · g` and merge rate
//! `σ_mer(g) = ν_m · (g − 1)` (no merge possible with a single group). The
//! per-group constants `ν_p`, `ν_m` are fitted here from long mobility
//! runs: we count partition/merge events binned by the group count at which
//! they occurred and fit the linear rate laws by weighted least squares
//! through the origin (weights = time spent at each count). This is the
//! paper's "group merging/partitioning rates obtained by simulation".

use crate::graph::ConnectivityGraph;
use crate::hops::HopSampler;
use crate::mobility::RandomWaypoint;
use crate::CalibrationConfig;
use numerics::stats::Welford;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// Maximum group count tracked in the binned statistics.
pub const MAX_TRACKED_GROUPS: usize = 64;

/// A group membership change event between two consecutive snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupEvent {
    /// One previous group split into `into` new groups (`into − 1` birth
    /// events).
    Partition {
        /// Number of fragments the group split into (≥ 2).
        into: u32,
    },
    /// `from` previous groups merged into one (`from − 1` death events).
    Merge {
        /// Number of groups that combined (≥ 2).
        from: u32,
    },
}

/// Tracks component-label snapshots and accumulates event statistics.
#[derive(Debug, Clone)]
pub struct DynamicsTracker {
    prev_labels: Vec<u32>,
    prev_count: usize,
    /// Time spent at each group count.
    time_at: Vec<f64>,
    /// Partition (birth) events observed while at each group count.
    partitions_at: Vec<u64>,
    /// Merge (death) events observed while at each group count.
    merges_at: Vec<u64>,
    group_count_stats: Welford,
    group_size_stats: Welford,
}

impl DynamicsTracker {
    /// Start tracking from an initial snapshot.
    pub fn new(graph: &ConnectivityGraph) -> Self {
        Self {
            prev_labels: graph.labels().to_vec(),
            prev_count: graph.component_count(),
            time_at: vec![0.0; MAX_TRACKED_GROUPS + 1],
            partitions_at: vec![0; MAX_TRACKED_GROUPS + 1],
            merges_at: vec![0; MAX_TRACKED_GROUPS + 1],
            group_count_stats: Welford::new(),
            group_size_stats: Welford::new(),
        }
    }

    /// Observe the next snapshot taken `dt` seconds after the previous one.
    /// Returns the events detected in between.
    pub fn observe(&mut self, dt: f64, graph: &ConnectivityGraph) -> Vec<GroupEvent> {
        assert_eq!(
            graph.labels().len(),
            self.prev_labels.len(),
            "node population changed"
        );
        let bin = self.prev_count.min(MAX_TRACKED_GROUPS);
        self.time_at[bin] += dt;
        self.group_count_stats.push(self.prev_count as f64);
        for &s in graph.component_sizes() {
            self.group_size_stats.push(s as f64);
        }

        let mut events = Vec::new();
        // old component -> set of new components its members now occupy.
        // Ordered maps so the emitted GroupEvent sequence is label-ordered,
        // not hasher-ordered.
        let mut splits: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        // new component -> set of old components feeding it
        let mut joins: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for (old, new) in self.prev_labels.iter().zip(graph.labels()) {
            splits.entry(*old).or_default().insert(*new);
            joins.entry(*new).or_default().insert(*old);
        }
        for set in splits.values() {
            if set.len() > 1 {
                let into = set.len() as u32;
                events.push(GroupEvent::Partition { into });
                self.partitions_at[bin] += (into - 1) as u64;
            }
        }
        for set in joins.values() {
            if set.len() > 1 {
                let from = set.len() as u32;
                events.push(GroupEvent::Merge { from });
                self.merges_at[bin] += (from - 1) as u64;
            }
        }

        self.prev_labels.copy_from_slice(graph.labels());
        self.prev_count = graph.component_count();
        events
    }

    /// Finish tracking and produce calibration output (hop data supplied by
    /// the caller).
    pub fn finish(self, hops: HopSampler) -> CalibrationResult {
        let mut r = CalibrationResult {
            total_time: self.time_at.iter().sum(),
            time_at: self.time_at,
            partitions_at: self.partitions_at,
            merges_at: self.merges_at,
            mean_group_count: self.group_count_stats.mean().max(1.0),
            mean_group_size: self.group_size_stats.mean(),
            partition_rate_per_group: 0.0,
            merge_rate_per_group: 0.0,
            mean_hops: hops.mean_hops(),
            hops,
        };
        r.refit();
        r
    }
}

/// Output of mobility calibration: the birth–death rates for `T_PAR` /
/// `T_MER` and hop statistics for the cost model.
#[derive(Debug, Clone)]
pub struct CalibrationResult {
    /// Total simulated time across all merged runs.
    pub total_time: f64,
    /// Time spent at each group count (index = count).
    pub time_at: Vec<f64>,
    /// Partition (birth) events binned by the group count they occurred at.
    pub partitions_at: Vec<u64>,
    /// Merge (death) events binned by group count.
    pub merges_at: Vec<u64>,
    /// Time-averaged number of groups.
    pub mean_group_count: f64,
    /// Mean group (component) size over snapshots.
    pub mean_group_size: f64,
    /// Fitted per-group partition rate `ν_p` (events/s per group).
    pub partition_rate_per_group: f64,
    /// Fitted per-group merge rate `ν_m` (events/s per mergeable group).
    pub merge_rate_per_group: f64,
    /// Mean member-to-member hop count.
    pub mean_hops: f64,
    /// Full hop sampler (size-binned means).
    pub hops: HopSampler,
}

impl CalibrationResult {
    /// Refit `ν_p`, `ν_m` from the binned counts: weighted least squares
    /// through the origin for `rate(g) = ν_p·g` and `rate(g) = ν_m·(g−1)`.
    pub fn refit(&mut self) {
        let mut num_p = 0.0;
        let mut den_p = 0.0;
        let mut num_m = 0.0;
        let mut den_m = 0.0;
        for g in 1..self.time_at.len() {
            let t = self.time_at[g];
            if t <= 0.0 {
                continue;
            }
            let gf = g as f64;
            num_p += gf * self.partitions_at[g] as f64;
            den_p += t * gf * gf;
            let mf = (g - 1) as f64;
            num_m += mf * self.merges_at[g] as f64;
            den_m += t * mf * mf;
        }
        self.partition_rate_per_group = if den_p > 0.0 { num_p / den_p } else { 0.0 };
        self.merge_rate_per_group = if den_m > 0.0 { num_m / den_m } else { 0.0 };
    }

    /// Birth rate `σ_par(g)` used by the SPN's `T_PAR`.
    pub fn partition_rate(&self, groups: u32) -> f64 {
        self.partition_rate_per_group * groups as f64
    }

    /// Death rate `σ_mer(g)` used by the SPN's `T_MER` (zero for a single
    /// group).
    pub fn merge_rate(&self, groups: u32) -> f64 {
        self.merge_rate_per_group * groups.saturating_sub(1) as f64
    }

    /// Merge several per-seed results into one.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn merge(parts: &[CalibrationResult]) -> CalibrationResult {
        assert!(!parts.is_empty(), "nothing to merge");
        let bins = parts.iter().map(|p| p.time_at.len()).max().unwrap();
        let mut time_at = vec![0.0; bins];
        let mut partitions_at = vec![0u64; bins];
        let mut merges_at = vec![0u64; bins];
        let mut hops = HopSampler::new();
        let mut total_time = 0.0;
        let mut gc_weighted = 0.0;
        let mut gs_weighted = 0.0;
        for p in parts {
            for (i, &t) in p.time_at.iter().enumerate() {
                time_at[i] += t;
            }
            for (i, &c) in p.partitions_at.iter().enumerate() {
                partitions_at[i] += c;
            }
            for (i, &c) in p.merges_at.iter().enumerate() {
                merges_at[i] += c;
            }
            hops.merge(&p.hops);
            total_time += p.total_time;
            gc_weighted += p.mean_group_count * p.total_time;
            gs_weighted += p.mean_group_size * p.total_time;
        }
        let mut r = CalibrationResult {
            total_time,
            time_at,
            partitions_at,
            merges_at,
            mean_group_count: if total_time > 0.0 {
                gc_weighted / total_time
            } else {
                1.0
            },
            mean_group_size: if total_time > 0.0 {
                gs_weighted / total_time
            } else {
                0.0
            },
            partition_rate_per_group: 0.0,
            merge_rate_per_group: 0.0,
            mean_hops: hops.mean_hops(),
            hops,
        };
        r.refit();
        r
    }
}

/// Run one seed of the calibration simulation.
pub fn run_single_calibration(cfg: &CalibrationConfig, seed: u64) -> CalibrationResult {
    // detlint::allow(D003): leaf constructor — `seed` is a child_seed from the replicate grid, passed down by the executor
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mobility = RandomWaypoint::new(cfg.mobility, &mut rng);
    let mut graph = ConnectivityGraph::build(mobility.positions(), cfg.radio_range);
    let mut tracker = DynamicsTracker::new(&graph);
    let mut hops = HopSampler::new();
    hops.sample(&graph, 4, &mut rng);

    let steps = (cfg.duration / cfg.dt).ceil() as usize;
    for step in 0..steps {
        mobility.step(cfg.dt, &mut rng);
        graph.rebuild(mobility.positions(), cfg.radio_range);
        tracker.observe(cfg.dt, &graph);
        if cfg.hop_sample_stride > 0 && step % cfg.hop_sample_stride == 0 {
            hops.sample(&graph, 4, &mut rng);
        }
    }
    tracker.finish(hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Vec2;
    use crate::MobilityConfig;

    fn graph_of(positions: &[Vec2]) -> ConnectivityGraph {
        ConnectivityGraph::build(positions, 50.0)
    }

    #[test]
    fn detects_partition() {
        let together = vec![Vec2::default(), Vec2::new(10.0, 0.0), Vec2::new(20.0, 0.0)];
        let apart = vec![Vec2::default(), Vec2::new(10.0, 0.0), Vec2::new(500.0, 0.0)];
        let g0 = graph_of(&together);
        let mut t = DynamicsTracker::new(&g0);
        let events = t.observe(1.0, &graph_of(&apart));
        assert_eq!(events, vec![GroupEvent::Partition { into: 2 }]);
    }

    #[test]
    fn detects_merge() {
        let apart = vec![Vec2::default(), Vec2::new(500.0, 0.0)];
        let together = vec![Vec2::default(), Vec2::new(10.0, 0.0)];
        let g0 = graph_of(&apart);
        let mut t = DynamicsTracker::new(&g0);
        let events = t.observe(1.0, &graph_of(&together));
        assert_eq!(events, vec![GroupEvent::Merge { from: 2 }]);
    }

    #[test]
    fn three_way_split_counts_two_births() {
        let together = vec![
            Vec2::default(),
            Vec2::new(10.0, 0.0),
            Vec2::new(20.0, 0.0),
            Vec2::new(30.0, 0.0),
        ];
        let spread = vec![
            Vec2::default(),
            Vec2::new(200.0, 0.0),
            Vec2::new(400.0, 0.0),
            Vec2::new(2.0, 0.0),
        ];
        let g0 = graph_of(&together);
        let mut t = DynamicsTracker::new(&g0);
        let events = t.observe(1.0, &graph_of(&spread));
        assert_eq!(events, vec![GroupEvent::Partition { into: 3 }]);
        let r = t.finish(HopSampler::new());
        assert_eq!(r.partitions_at[1], 2); // 3-way split = 2 birth events at count 1
    }

    #[test]
    fn no_events_when_stable() {
        let pts = vec![Vec2::default(), Vec2::new(10.0, 0.0)];
        let g0 = graph_of(&pts);
        let mut t = DynamicsTracker::new(&g0);
        for _ in 0..5 {
            assert!(t.observe(1.0, &graph_of(&pts)).is_empty());
        }
        let r = t.finish(HopSampler::new());
        assert_eq!(r.partitions_at.iter().sum::<u64>(), 0);
        assert_eq!(r.merges_at.iter().sum::<u64>(), 0);
        assert!((r.total_time - 5.0).abs() < 1e-12);
        assert!((r.mean_group_count - 1.0).abs() < 1e-12);
    }

    #[test]
    fn simultaneous_split_and_merge_detected() {
        // {0,1} and {2} become {0} and {1,2}
        let before = vec![Vec2::default(), Vec2::new(10.0, 0.0), Vec2::new(500.0, 0.0)];
        let after = vec![
            Vec2::default(),
            Vec2::new(495.0, 0.0),
            Vec2::new(500.0, 0.0),
        ];
        let g0 = graph_of(&before);
        let mut t = DynamicsTracker::new(&g0);
        let events = t.observe(1.0, &graph_of(&after));
        assert!(events.contains(&GroupEvent::Partition { into: 2 }));
        assert!(events.contains(&GroupEvent::Merge { from: 2 }));
    }

    #[test]
    fn rates_fit_synthetic_birth_death() {
        // Construct a synthetic result with exact linear rates and check the
        // fit recovers them: rate_par(g) = 0.02 g, rate_mer(g) = 0.05 (g-1).
        let mut r = CalibrationResult {
            total_time: 0.0,
            time_at: vec![0.0; 6],
            partitions_at: vec![0; 6],
            merges_at: vec![0; 6],
            mean_group_count: 0.0,
            mean_group_size: 0.0,
            partition_rate_per_group: 0.0,
            merge_rate_per_group: 0.0,
            mean_hops: 1.0,
            hops: HopSampler::new(),
        };
        for g in 1..=4usize {
            let t = 1_000.0;
            r.time_at[g] = t;
            r.partitions_at[g] = (0.02 * g as f64 * t).round() as u64;
            r.merges_at[g] = (0.05 * (g - 1) as f64 * t).round() as u64;
        }
        r.total_time = 4_000.0;
        r.refit();
        assert!(
            (r.partition_rate_per_group - 0.02).abs() < 1e-3,
            "{}",
            r.partition_rate_per_group
        );
        assert!(
            (r.merge_rate_per_group - 0.05).abs() < 1e-3,
            "{}",
            r.merge_rate_per_group
        );
        assert!((r.partition_rate(3) - 0.06).abs() < 3e-3);
        assert!((r.merge_rate(1) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn merge_of_results_adds_counts() {
        let mk = |t: f64, p: u64| {
            let mut r = CalibrationResult {
                total_time: t,
                time_at: vec![0.0, t],
                partitions_at: vec![0, p],
                merges_at: vec![0, 0],
                mean_group_count: 1.0,
                mean_group_size: 5.0,
                partition_rate_per_group: 0.0,
                merge_rate_per_group: 0.0,
                mean_hops: 1.0,
                hops: HopSampler::new(),
            };
            r.refit();
            r
        };
        let merged = CalibrationResult::merge(&[mk(100.0, 5), mk(300.0, 15)]);
        assert_eq!(merged.partitions_at[1], 20);
        assert!((merged.total_time - 400.0).abs() < 1e-12);
        // fitted rate = 20 events / 400 s at g=1
        assert!((merged.partition_rate_per_group - 0.05).abs() < 1e-12);
    }

    #[test]
    fn calibration_run_produces_sane_output() {
        let cfg = CalibrationConfig {
            duration: 500.0,
            seeds: 1,
            mobility: MobilityConfig {
                node_count: 25,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = run_single_calibration(&cfg, 12);
        assert!(r.total_time >= 500.0 - 1.0);
        assert!(r.mean_group_count >= 1.0);
        assert!(r.mean_hops >= 1.0);
        assert!(r.partition_rate_per_group >= 0.0);
        assert!(r.merge_rate_per_group >= 0.0);
    }

    #[test]
    #[should_panic]
    fn population_change_panics() {
        let g0 = graph_of(&[Vec2::default()]);
        let mut t = DynamicsTracker::new(&g0);
        t.observe(1.0, &graph_of(&[Vec2::default(), Vec2::new(1.0, 0.0)]));
    }
}
