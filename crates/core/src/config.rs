//! System configuration with the paper's §5 default parameter values.

use ids::functions::{AttackerProfile, DetectionProfile, RateShape};
use ids::voting::CollusionModel;
use manet::CalibrationResult;

/// Which contributory key agreement protocol prices the rekey traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyAgreementProtocol {
    /// GDH.2 (the paper's choice): n rounds, O(n²) field elements.
    Gdh2,
    /// GDH.3: two extra stages, constant-size messages, O(n) elements.
    Gdh3,
}

/// Topology of a clustered deployment: `clusters` structurally identical,
/// independently operating copies of one [`SystemConfig`] sub-system, with
/// the overall system declared failed once `failure_threshold` clusters have
/// individually failed (a K-of-C survivability criterion).
///
/// Clusters are indistinguishable — same size, same rates — which is exactly
/// the member-permutation symmetry the lumped exact backend exploits (see
/// `gcsids::model::build_clustered_model`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTopology {
    /// Number of identical clusters (C ≥ 1).
    pub clusters: u32,
    /// Clusters whose failure fails the whole system (1 ≤ K ≤ C).
    pub failure_threshold: u32,
}

impl ClusterTopology {
    /// Check structural sanity.
    ///
    /// # Errors
    /// Human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.clusters == 0 {
            return Err("clusters must be positive".into());
        }
        if self.clusters > 10_000 {
            return Err("clusters too large for exact analysis".into());
        }
        if self.failure_threshold == 0 || self.failure_threshold > self.clusters {
            return Err(format!(
                "failure_threshold {} must lie in 1..={}",
                self.failure_threshold, self.clusters
            ));
        }
        Ok(())
    }
}

/// Complete parameterization of the GCS + IDS + attacker model.
///
/// Defaults follow the paper's §5: `N = 100` nodes in a 500 m-radius area,
/// join rate `λ = 1/hr` and leave rate `μ = 1/(4 hr)` per node, wireless
/// bandwidth 1 Mbps, host-IDS error probabilities `p1 = p2 = 1%`, group
/// communication rate `λq = 1/min`, base compromising rate
/// `λc = 1/(12 hr)`, `m = 5` vote participants, base index `p = 3`, and
/// both attacker and detection functions linear.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    // -- population --------------------------------------------------------
    /// Initial number of (trusted) members, the paper's `N`.
    pub node_count: u32,
    /// Per-node join rate `λ` (1/s); joins generate rekey traffic.
    pub join_rate: f64,
    /// Per-node leave rate `μ` (1/s); leaves generate rekey traffic.
    pub leave_rate: f64,
    /// Per-node group communication (data request) rate `λq` (1/s).
    pub group_comm_rate: f64,

    // -- security ----------------------------------------------------------
    /// Attacker model (shape + base rate `λc` + base index `p`).
    pub attacker: AttackerProfile,
    /// Detection model (shape + base interval `T_IDS` + base index `p`).
    pub detection: DetectionProfile,
    /// Host-IDS false-negative probability `p1`.
    pub p1_host_false_negative: f64,
    /// Host-IDS false-positive probability `p2`.
    pub p2_host_false_positive: f64,
    /// Number of vote participants `m`.
    pub vote_participants: u32,
    /// Collusion behavior of compromised vote participants (the paper
    /// assumes full collusion).
    pub collusion: CollusionModel,

    // -- group dynamics (from mobility calibration) -------------------------
    /// Per-group partition (birth) rate `ν_p` (1/s).
    pub partition_rate_per_group: f64,
    /// Per-group merge (death) rate `ν_m` (1/s).
    pub merge_rate_per_group: f64,
    /// Cap on the number of simultaneous groups tracked by the SPN.
    pub max_groups: u32,
    /// Mean member-to-member hop count (from calibration).
    pub mean_hops: f64,

    // -- radio / traffic ----------------------------------------------------
    /// Shared wireless bandwidth (bits/s), paper: 1 Mbps.
    pub bandwidth_bps: f64,
    /// Data packet size (bits).
    pub data_packet_bits: u64,
    /// Status-exchange message size (bits).
    pub status_packet_bits: u64,
    /// Vote message size (bits).
    pub vote_packet_bits: u64,
    /// Beacon size (bits).
    pub beacon_bits: u64,
    /// GDH field element size on the wire (bits).
    pub key_element_bits: u64,
    /// Key agreement protocol used for rekey pricing (paper: GDH.2).
    pub key_agreement: KeyAgreementProtocol,
    /// Optional batch-rekeying window: join/leave rekeys are aggregated
    /// into one GDH run per window (evictions always rekey immediately;
    /// companion-work extension — `None` reproduces the paper).
    pub batch_rekey_interval: Option<f64>,
    /// Status exchange period (s).
    pub status_period: f64,
    /// Beacon period (s).
    pub beacon_period: f64,
}

impl SystemConfig {
    /// The paper's §5 defaults. Group-dynamics constants default to the
    /// shipped calibration (measured by random-waypoint mobility
    /// simulation, as the `mobility_calibration` example does); call
    /// [`SystemConfig::apply_calibration`] to substitute freshly measured
    /// ones.
    pub fn paper_default() -> Self {
        Self {
            node_count: 100,
            join_rate: 1.0 / 3600.0,
            leave_rate: 1.0 / (4.0 * 3600.0),
            group_comm_rate: 1.0 / 60.0,
            attacker: AttackerProfile::paper_default(),
            detection: DetectionProfile::linear(120.0),
            p1_host_false_negative: 0.01,
            p2_host_false_positive: 0.01,
            vote_participants: 5,
            collusion: CollusionModel::Full,
            // Shipped mobility calibration (random waypoint, 100 nodes,
            // 500 m disc, 250 m range; 8 × 20 000 s, master seed 2009 —
            // regenerate with `bench-harness --bin calibrate`).
            partition_rate_per_group: 1.87e-5,
            merge_rate_per_group: 8.82e-2,
            max_groups: 4,
            mean_hops: 2.07,
            bandwidth_bps: 1.0e6,
            data_packet_bits: 8 * 1024,
            status_packet_bits: 4 * 128,
            vote_packet_bits: 256,
            beacon_bits: 128,
            key_element_bits: 1024,
            key_agreement: KeyAgreementProtocol::Gdh2,
            batch_rekey_interval: None,
            status_period: 60.0,
            beacon_period: 10.0,
        }
    }

    /// Override the group-dynamics constants with a fresh mobility
    /// calibration.
    pub fn apply_calibration(&mut self, cal: &CalibrationResult) {
        self.partition_rate_per_group = cal.partition_rate_per_group;
        self.merge_rate_per_group = cal.merge_rate_per_group;
        self.mean_hops = cal.mean_hops.max(1.0);
    }

    /// Same configuration with a different base detection interval.
    pub fn with_tids(&self, t_ids: f64) -> Self {
        let mut c = self.clone();
        c.detection = c.detection.with_interval(t_ids);
        c
    }

    /// Same configuration with a different detection shape.
    pub fn with_detection_shape(&self, shape: RateShape) -> Self {
        let mut c = self.clone();
        c.detection.shape = shape;
        c
    }

    /// Same configuration with a different number of vote participants.
    pub fn with_vote_participants(&self, m: u32) -> Self {
        let mut c = self.clone();
        c.vote_participants = m;
        c
    }

    /// The paper's TIDS sweep grid (seconds).
    pub fn paper_tids_grid() -> &'static [f64] {
        &[5.0, 15.0, 30.0, 60.0, 120.0, 240.0, 480.0, 600.0, 1200.0]
    }

    /// The paper's vote-participant sweep.
    pub fn paper_m_grid() -> &'static [u32] {
        &[3, 5, 7, 9]
    }

    /// Validate parameter consistency.
    ///
    /// # Errors
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.node_count == 0 {
            return Err("node_count must be positive".into());
        }
        if self.node_count > 100_000 {
            return Err("node_count too large for exact analysis".into());
        }
        for (name, v) in [
            ("join_rate", self.join_rate),
            ("leave_rate", self.leave_rate),
            ("group_comm_rate", self.group_comm_rate),
            ("partition_rate_per_group", self.partition_rate_per_group),
            ("merge_rate_per_group", self.merge_rate_per_group),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be finite and non-negative, got {v}"));
            }
        }
        if self.attacker.base_rate <= 0.0 {
            return Err("attacker base rate must be positive".into());
        }
        if self.detection.base_interval <= 0.0 {
            return Err("detection base interval must be positive".into());
        }
        // The rate shapes are normalized through `f(1) = 1` and need a
        // base index above 1 whatever the shape (`RateShape::eval`).
        for (name, p) in [
            ("attacker", self.attacker.exponent),
            ("detection", self.detection.exponent),
        ] {
            if !(p.is_finite() && p > 1.0) {
                return Err(format!(
                    "{name} exponent must be finite and exceed 1, got {p}"
                ));
            }
        }
        for (name, p) in [
            ("p1", self.p1_host_false_negative),
            ("p2", self.p2_host_false_positive),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must lie in [0,1], got {p}"));
            }
        }
        if self.vote_participants == 0 {
            return Err("vote_participants must be positive".into());
        }
        if let CollusionModel::Probabilistic(q) = self.collusion {
            if !(0.0..=1.0).contains(&q) {
                return Err(format!("collusion probability must lie in [0,1], got {q}"));
            }
        }
        if self.vote_participants >= self.node_count {
            return Err(format!(
                "vote_participants {} must be below node_count {}",
                self.vote_participants, self.node_count
            ));
        }
        if self.max_groups == 0 {
            return Err("max_groups must be at least 1".into());
        }
        if self.mean_hops < 1.0 {
            return Err(format!("mean_hops must be ≥ 1, got {}", self.mean_hops));
        }
        if self.bandwidth_bps <= 0.0 {
            return Err("bandwidth must be positive".into());
        }
        if self.status_period <= 0.0 || self.beacon_period <= 0.0 {
            return Err("periods must be positive".into());
        }
        if let Some(w) = self.batch_rekey_interval {
            if !(w.is_finite() && w > 0.0) {
                return Err(format!("batch rekey window must be positive, got {w}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_valid_and_match_section5() {
        let c = SystemConfig::paper_default();
        c.validate().unwrap();
        assert_eq!(c.node_count, 100);
        assert!((c.join_rate - 1.0 / 3600.0).abs() < 1e-15);
        assert!((c.leave_rate - 1.0 / 14_400.0).abs() < 1e-15);
        assert!((c.group_comm_rate - 1.0 / 60.0).abs() < 1e-15);
        assert!((c.attacker.base_rate - 1.0 / 43_200.0).abs() < 1e-15);
        assert_eq!(c.vote_participants, 5);
        assert_eq!(c.p1_host_false_negative, 0.01);
        assert_eq!(c.attacker.exponent, 3.0);
        assert_eq!(c.bandwidth_bps, 1.0e6);
    }

    #[test]
    fn builders_change_one_knob() {
        let c = SystemConfig::paper_default();
        let c2 = c.with_tids(480.0);
        assert_eq!(c2.detection.base_interval, 480.0);
        assert_eq!(c2.node_count, c.node_count);
        let c3 = c.with_vote_participants(9);
        assert_eq!(c3.vote_participants, 9);
        let c4 = c.with_detection_shape(RateShape::Polynomial);
        assert_eq!(c4.detection.shape, RateShape::Polynomial);
        assert_eq!(c4.detection.base_interval, c.detection.base_interval);
    }

    #[test]
    fn paper_grids_match_figures() {
        assert_eq!(SystemConfig::paper_tids_grid().len(), 9);
        assert_eq!(SystemConfig::paper_tids_grid()[0], 5.0);
        assert_eq!(*SystemConfig::paper_tids_grid().last().unwrap(), 1200.0);
        assert_eq!(SystemConfig::paper_m_grid(), &[3, 5, 7, 9]);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = SystemConfig::paper_default();
        c.node_count = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default();
        c.p1_host_false_negative = 1.5;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default();
        c.vote_participants = 100;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default();
        c.detection.base_interval = 0.0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default();
        c.mean_hops = 0.5;
        assert!(c.validate().is_err());

        for p in [1.0, 0.5, f64::INFINITY, f64::NAN] {
            let mut c = SystemConfig::paper_default();
            c.detection.exponent = p;
            assert!(c.validate().unwrap_err().contains("detection exponent"));
            let mut c = SystemConfig::paper_default();
            c.attacker.exponent = p;
            assert!(c.validate().unwrap_err().contains("attacker exponent"));
        }
    }

    #[test]
    fn apply_calibration_overrides_dynamics() {
        use manet::{CalibrationConfig, MobilityConfig};
        let cal = manet::calibrate(
            &CalibrationConfig {
                duration: 100.0,
                seeds: 1,
                mobility: MobilityConfig {
                    node_count: 15,
                    ..Default::default()
                },
                ..Default::default()
            },
            3,
        );
        let mut c = SystemConfig::paper_default();
        c.apply_calibration(&cal);
        assert!(c.mean_hops >= 1.0);
        assert_eq!(c.partition_rate_per_group, cal.partition_rate_per_group);
    }
}
