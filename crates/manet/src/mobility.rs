//! Random-waypoint mobility (the paper's stated model).
//!
//! Each node independently: picks a uniform waypoint in the disc, travels
//! toward it in a straight line at a speed drawn uniformly from
//! `[speed_min, speed_max]`, pauses for `pause_time` seconds on arrival,
//! and repeats. Positions are advanced with a fixed time step by
//! [`RandomWaypoint::step`].

use crate::geometry::{Disc, Vec2};
use rand::Rng;

/// Parameters of the random-waypoint model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityConfig {
    /// Number of nodes.
    pub node_count: usize,
    /// Operational-area radius in meters (paper default: 500 m).
    pub area_radius: f64,
    /// Minimum speed (m/s); must be > 0 to avoid the well-known
    /// random-waypoint speed-decay pathology.
    pub speed_min: f64,
    /// Maximum speed (m/s).
    pub speed_max: f64,
    /// Pause time at each waypoint (s).
    pub pause_time: f64,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        // Dismounted-unit speeds: an assumption, since the paper does not
        // publish its speed settings.
        Self {
            node_count: 100,
            area_radius: 500.0,
            speed_min: 1.0,
            speed_max: 5.0,
            pause_time: 30.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Travelling toward the waypoint at the given speed.
    Moving { speed: f64 },
    /// Paused; seconds of pause remaining.
    Paused { remaining: f64 },
}

#[derive(Debug, Clone, Copy)]
struct NodeState {
    waypoint: Vec2,
    phase: Phase,
}

/// Random-waypoint mobility process for a population of nodes.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    cfg: MobilityConfig,
    disc: Disc,
    /// Current position of each node, kept apart from the waypoint state
    /// so that [`RandomWaypoint::positions`] lends it without copying.
    positions: Vec<Vec2>,
    nodes: Vec<NodeState>,
}

impl RandomWaypoint {
    /// Initialize with uniform positions and fresh waypoints.
    ///
    /// # Panics
    /// Panics on non-positive speeds, `speed_min > speed_max`, or an empty
    /// population.
    pub fn new<R: Rng + ?Sized>(cfg: MobilityConfig, rng: &mut R) -> Self {
        assert!(cfg.node_count > 0, "need at least one node");
        assert!(
            cfg.speed_min > 0.0 && cfg.speed_max >= cfg.speed_min,
            "bad speed range [{}, {}]",
            cfg.speed_min,
            cfg.speed_max
        );
        assert!(cfg.pause_time >= 0.0, "negative pause time");
        let disc = Disc::new(cfg.area_radius);
        let mut positions = Vec::with_capacity(cfg.node_count);
        let mut nodes = Vec::with_capacity(cfg.node_count);
        for _ in 0..cfg.node_count {
            positions.push(disc.sample_uniform(rng));
            let waypoint = disc.sample_uniform(rng);
            let speed = sample_speed(&cfg, rng);
            nodes.push(NodeState {
                waypoint,
                phase: Phase::Moving { speed },
            });
        }
        Self {
            cfg,
            disc,
            positions,
            nodes,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Model parameters.
    pub fn config(&self) -> &MobilityConfig {
        &self.cfg
    }

    /// Current position of node `i`.
    pub fn position(&self, i: usize) -> Vec2 {
        self.positions[i]
    }

    /// All positions, indexed by node.
    pub fn positions(&self) -> &[Vec2] {
        &self.positions
    }

    /// Advance every node by `dt` seconds. Waypoint arrivals inside the
    /// step are handled exactly (remaining time is spent paused/en route to
    /// the next waypoint).
    ///
    /// # Panics
    /// Panics if `dt < 0`.
    pub fn step<R: Rng + ?Sized>(&mut self, dt: f64, rng: &mut R) {
        assert!(dt >= 0.0, "negative dt {dt}");
        for (node, position) in self.nodes.iter_mut().zip(&mut self.positions) {
            let mut remaining = dt;
            // A node can pass through several waypoint/pause cycles in one
            // step when dt is large; loop until the step is exhausted.
            while remaining > 0.0 {
                match node.phase {
                    Phase::Paused {
                        remaining: pause_left,
                    } => {
                        if pause_left > remaining {
                            node.phase = Phase::Paused {
                                remaining: pause_left - remaining,
                            };
                            remaining = 0.0;
                        } else {
                            remaining -= pause_left;
                            node.waypoint = self.disc.sample_uniform(rng);
                            let speed = sample_speed(&self.cfg, rng);
                            node.phase = Phase::Moving { speed };
                        }
                    }
                    Phase::Moving { speed } => {
                        let to_wp = node.waypoint - *position;
                        let dist = to_wp.norm();
                        let travel = speed * remaining;
                        if travel < dist {
                            // `to_wp.normalized()`, reusing its norm
                            let dir = Vec2::new(to_wp.x / dist, to_wp.y / dist);
                            *position = *position + dir.scale(travel);
                            remaining = 0.0;
                        } else {
                            *position = node.waypoint;
                            remaining -= dist / speed;
                            node.phase = Phase::Paused {
                                remaining: self.cfg.pause_time,
                            };
                            if self.cfg.pause_time == 0.0 {
                                node.waypoint = self.disc.sample_uniform(rng);
                                let speed = sample_speed(&self.cfg, rng);
                                node.phase = Phase::Moving { speed };
                            }
                        }
                    }
                }
            }
        }
    }
}

fn sample_speed<R: Rng + ?Sized>(cfg: &MobilityConfig, rng: &mut R) -> f64 {
    if cfg.speed_max == cfg.speed_min {
        cfg.speed_min
    } else {
        rng.gen_range(cfg.speed_min..cfg.speed_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64, cfg: MobilityConfig) -> (RandomWaypoint, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = RandomWaypoint::new(cfg, &mut rng);
        (m, rng)
    }

    #[test]
    fn nodes_stay_in_region() {
        let cfg = MobilityConfig {
            node_count: 50,
            ..Default::default()
        };
        let (mut m, mut rng) = model(3, cfg);
        let disc = Disc::new(cfg.area_radius);
        for _ in 0..500 {
            m.step(1.0, &mut rng);
            for i in 0..m.node_count() {
                assert!(disc.contains(m.position(i)), "node {i} escaped");
            }
        }
    }

    #[test]
    fn nodes_actually_move() {
        let cfg = MobilityConfig {
            node_count: 10,
            pause_time: 0.0,
            ..Default::default()
        };
        let (mut m, mut rng) = model(4, cfg);
        let before = m.positions().to_vec();
        m.step(10.0, &mut rng);
        let moved = before
            .iter()
            .zip(m.positions())
            .filter(|(b, a)| b.distance_sq(**a) > 1.0)
            .count();
        assert!(moved >= 8, "only {moved} nodes moved");
    }

    #[test]
    fn speed_bounds_respected() {
        let cfg = MobilityConfig {
            node_count: 20,
            pause_time: 0.0,
            speed_min: 2.0,
            speed_max: 2.0, // deterministic speed
            ..Default::default()
        };
        let (mut m, mut rng) = model(5, cfg);
        let before = m.positions().to_vec();
        let dt = 3.0;
        m.step(dt, &mut rng);
        for (b, a) in before.iter().zip(m.positions()) {
            // displacement can be shorter than speed·dt (waypoint turns) but
            // never longer
            assert!(b.distance_sq(*a).sqrt() <= 2.0 * dt + 1e-9);
        }
    }

    #[test]
    fn pause_halts_movement() {
        let cfg = MobilityConfig {
            node_count: 1,
            pause_time: 1e9, // effectively forever after first arrival
            speed_min: 1000.0,
            speed_max: 1000.0,
            ..Default::default()
        };
        let (mut m, mut rng) = model(6, cfg);
        // at 1000 m/s in a 500 m disc every leg completes within 1 s
        m.step(2.0, &mut rng);
        let at_waypoint = m.position(0);
        m.step(100.0, &mut rng);
        assert_eq!(m.position(0), at_waypoint);
    }

    #[test]
    fn multiple_waypoints_in_one_big_step() {
        let cfg = MobilityConfig {
            node_count: 5,
            pause_time: 0.1,
            speed_min: 100.0,
            speed_max: 200.0,
            ..Default::default()
        };
        let (mut m, mut rng) = model(7, cfg);
        // one huge step must terminate (several waypoint cycles inside)
        m.step(1_000.0, &mut rng);
        let disc = Disc::new(cfg.area_radius);
        for i in 0..m.node_count() {
            assert!(disc.contains(m.position(i)));
        }
    }

    #[test]
    #[should_panic]
    fn zero_speed_rejected() {
        let cfg = MobilityConfig {
            speed_min: 0.0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        RandomWaypoint::new(cfg, &mut rng);
    }

    #[test]
    fn deterministic_with_seed() {
        let cfg = MobilityConfig {
            node_count: 12,
            ..Default::default()
        };
        let (mut a, mut ra) = model(11, cfg);
        let (mut b, mut rb) = model(11, cfg);
        for _ in 0..50 {
            a.step(1.0, &mut ra);
            b.step(1.0, &mut rb);
        }
        for i in 0..12 {
            assert_eq!(a.position(i), b.position(i));
        }
    }
}
