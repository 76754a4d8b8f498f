//! MANET substrate: mobility, connectivity, and mobile-group dynamics.
//!
//! The paper's system model places `N = 100` nodes in a disc-shaped
//! operational area (radius 500 m) moving under the **random waypoint**
//! model, with mobile groups defined by *connectivity* — the connected
//! components of the unit-disc communication graph. Two SPN transition
//! rates (`T_PAR` group partition, `T_MER` group merge) and the hop-count
//! factors of the communication-cost model are "obtained by simulation for
//! a sufficiently long period of time" (paper §4.1); this crate is that
//! simulation:
//!
//! * [`geometry`] — 2-D vectors and the disc region;
//! * [`mobility`] — the random-waypoint process;
//! * [`grid`] — spatial hashing for O(n) neighbor queries;
//! * [`graph`] — unit-disc connectivity, components, BFS hop counts;
//! * [`dynamics`] — partition/merge event tracking and birth–death rate
//!   calibration binned by group count;
//! * [`hops`] — hop-count and flooding-cost statistics per group size.
//!
//! The top-level [`calibrate`] runs everything over parallel seeds and
//! produces the constants consumed by the core model.

pub mod dynamics;
pub mod geometry;
pub mod graph;
pub mod grid;
pub mod hops;
pub mod mobility;

pub use dynamics::{CalibrationResult, DynamicsTracker, GroupEvent};
pub use geometry::{Disc, Vec2};
pub use graph::ConnectivityGraph;
pub use mobility::{MobilityConfig, RandomWaypoint};

use numerics::{exec, rng::child_seed};

/// Full calibration configuration.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationConfig {
    /// Mobility model parameters.
    pub mobility: MobilityConfig,
    /// Radio range in meters (unit-disc model).
    pub radio_range: f64,
    /// Simulation step in seconds.
    pub dt: f64,
    /// Simulated duration per seed, in seconds.
    pub duration: f64,
    /// Number of independent seeds (run in parallel).
    pub seeds: u64,
    /// Hop statistics sampling stride (in steps).
    pub hop_sample_stride: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            mobility: MobilityConfig::default(),
            radio_range: 250.0,
            dt: 1.0,
            duration: 20_000.0,
            seeds: 8,
            hop_sample_stride: 50,
        }
    }
}

/// Run the mobility calibration: simulate `cfg.seeds` independent runs in
/// parallel and merge their partition/merge statistics and hop counts.
pub fn calibrate(cfg: &CalibrationConfig, master_seed: u64) -> CalibrationResult {
    let per_seed = exec::map((0..cfg.seeds).collect(), |i| {
        dynamics::run_single_calibration(cfg, child_seed(master_seed, i))
    });
    CalibrationResult::merge(&per_seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrate_smoke_parallel() {
        let cfg = CalibrationConfig {
            duration: 400.0,
            seeds: 2,
            mobility: MobilityConfig {
                node_count: 30,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = calibrate(&cfg, 7);
        assert!(r.total_time > 0.0);
        assert!(r.mean_group_count >= 1.0);
        assert!(r.mean_hops >= 1.0);
    }

    #[test]
    fn calibrate_deterministic() {
        let cfg = CalibrationConfig {
            duration: 200.0,
            seeds: 2,
            mobility: MobilityConfig {
                node_count: 20,
                ..Default::default()
            },
            ..Default::default()
        };
        let a = calibrate(&cfg, 99);
        let b = calibrate(&cfg, 99);
        assert_eq!(a.mean_group_count, b.mean_group_count);
        assert_eq!(a.partition_rate_per_group, b.partition_rate_per_group);
    }

    #[test]
    fn calibrate_is_bit_identical_across_thread_counts() {
        let cfg = CalibrationConfig {
            duration: 200.0,
            seeds: 5,
            mobility: MobilityConfig {
                node_count: 20,
                ..Default::default()
            },
            ..Default::default()
        };
        // `{:?}` prints every f64 in its shortest round-trip form, so equal
        // strings mean equal bits in every field, the hop sampler included.
        let one = format!("{:?}", exec::with_threads(1, || calibrate(&cfg, 99)));
        let three = format!("{:?}", exec::with_threads(3, || calibrate(&cfg, 99)));
        assert_eq!(one, three);
    }
}
