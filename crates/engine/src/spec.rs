//! Scenario specification: one serializable description of *what* to
//! evaluate (system + attacker + mobility + detection) and *how* (which
//! backend, how many replications).
//!
//! The spec is the engine's single currency: the grid expander produces
//! specs, the runner consumes them, and every backend receives the same
//! shape. `to_json` / `from_json` give a lossless text round-trip (the
//! engine ships its own JSON layer — see [`crate::json`] — because the
//! build environment cannot pull `serde`).

use crate::error::EngineError;
use crate::json::Value;
use gcsids::config::{ClusterTopology, KeyAgreementProtocol, SystemConfig};
use ids::functions::{AttackerProfile, DetectionProfile, RateShape};
use ids::voting::CollusionModel;
pub use numerics::replicate::SamplingPlan;
pub use scenario::{AttackerStrategy, ResponsePolicy, ScenarioConfig};
use std::fs::File;
use std::io::Read;
use std::path::Path;

/// Which evaluator runs the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Exact CTMC absorption analysis of the Figure-1 SPN.
    Exact,
    /// Monte-Carlo token-game simulation of the same SPN.
    SpnSim,
    /// Protocol-level discrete-event simulation (actual votes and rekeys,
    /// birth–death group dynamics).
    Des,
    /// Mobility-integrated DES (groups are the live connected components of
    /// a random-waypoint network).
    MobilityDes,
}

impl BackendKind {
    /// All backends in presentation order.
    pub fn all() -> [BackendKind; 4] {
        [
            BackendKind::Exact,
            BackendKind::SpnSim,
            BackendKind::Des,
            BackendKind::MobilityDes,
        ]
    }

    /// Stable identifier used in JSON and report labels.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Exact => "exact",
            BackendKind::SpnSim => "spn-sim",
            BackendKind::Des => "des",
            BackendKind::MobilityDes => "mobility-des",
        }
    }

    /// Parse a stable identifier.
    ///
    /// # Errors
    /// Returns [`EngineError::Json`] for unknown names.
    pub fn from_name(s: &str) -> Result<Self, EngineError> {
        match s {
            "exact" => Ok(BackendKind::Exact),
            "spn-sim" => Ok(BackendKind::SpnSim),
            "des" => Ok(BackendKind::Des),
            "mobility-des" => Ok(BackendKind::MobilityDes),
            other => Err(EngineError::Json(format!("unknown backend `{other}`"))),
        }
    }

    /// True for backends whose estimates carry sampling error.
    pub fn is_stochastic(&self) -> bool {
        !matches!(self, BackendKind::Exact)
    }
}

/// Monte-Carlo controls shared by the three stochastic backends (ignored by
/// the exact backend).
#[derive(Debug, Clone, PartialEq)]
pub struct StochasticOptions {
    /// How many replications: a fixed count, or adaptive (sequential)
    /// sampling to a relative-precision target on the MTTSF confidence
    /// interval — see [`SamplingPlan`].
    pub sampling: SamplingPlan,
    /// Master seed; per-replication seeds derive from it deterministically.
    pub master_seed: u64,
    /// Censoring horizon (s).
    pub max_time: f64,
    /// Confidence level for reported intervals (e.g. 0.95) — also the
    /// level of the CI that adaptive sampling drives to its target.
    pub confidence: f64,
}

impl Default for StochasticOptions {
    fn default() -> Self {
        Self {
            sampling: SamplingPlan::Fixed(200),
            master_seed: 2009,
            max_time: 3.15e7,
            confidence: 0.95,
        }
    }
}

/// Mobility-backend geometry/timing (only read by
/// [`BackendKind::MobilityDes`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityOptions {
    /// Radio range (m) defining unit-disc groups.
    pub radio_range: f64,
    /// Mobility step (s).
    pub dt: f64,
}

impl Default for MobilityOptions {
    fn default() -> Self {
        Self {
            radio_range: 250.0,
            dt: 1.0,
        }
    }
}

/// The largest spec file [`ScenarioSpec::read`] accepts: 1 MiB, about a
/// thousand times the largest committed spec.
pub const MAX_SPEC_BYTES: usize = 1 << 20;

/// A complete, self-contained description of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Human-readable label carried into the report.
    pub name: String,
    /// The system/attacker/detection parameterization.
    pub system: SystemConfig,
    /// Which evaluator to use.
    pub backend: BackendKind,
    /// Monte-Carlo controls for stochastic backends.
    pub stochastic: StochasticOptions,
    /// Mobility geometry for the mobility backend.
    pub mobility: MobilityOptions,
    /// Mission-time grid (s), strictly ascending. When non-empty, every
    /// backend additionally reports `P[no security failure by t]` per grid
    /// point ([`crate::RunReport::survival`]): exactly via uniformization
    /// on the exact backend, as Kaplan–Meier-style estimates with
    /// confidence intervals on the stochastic ones.
    pub mission_times: Vec<f64>,
    /// Optional clustered deployment: `clusters` copies of `system`
    /// (so `clusters × node_count` nodes in total), the system failing
    /// once `failure_threshold` clusters have failed. The exact backend
    /// solves it through the symmetry-lumped / hierarchical pipeline
    /// (`gcsids::clustered`); SPN-sim simulates the flat clustered net;
    /// DES composes per-cluster replications by order statistics. Not
    /// supported by the mobility backend.
    pub clustered: Option<ClusterTopology>,
    /// Optional adversary strategy and response policy (see the `scenario`
    /// crate). `None` means the paper's baseline behavior on every backend
    /// (and keeps committed pre-scenario spec files canonical byte-for-
    /// byte). When set, the report additionally carries detection-quality
    /// metrics ([`crate::RunReport::detection`]). Not combinable with
    /// `clustered`; the mobility backend models attacker strategies only,
    /// so non-evict response policies are rejected there.
    pub scenario: Option<ScenarioConfig>,
}

impl ScenarioSpec {
    /// Spec for the paper's §5 default system on the given backend.
    pub fn paper_default(backend: BackendKind) -> Self {
        Self {
            name: format!("paper-default/{}", backend.name()),
            system: SystemConfig::paper_default(),
            backend,
            stochastic: StochasticOptions::default(),
            mobility: MobilityOptions::default(),
            mission_times: Vec::new(),
            clustered: None,
            scenario: None,
        }
    }

    /// Same spec with a mission-time grid (builder style).
    pub fn with_mission_times(mut self, times: &[f64]) -> Self {
        self.mission_times = times.to_vec();
        self
    }

    /// The effective scenario: the explicit one, or the baseline.
    pub fn scenario_or_baseline(&self) -> ScenarioConfig {
        self.scenario.unwrap_or_else(ScenarioConfig::baseline)
    }

    /// Validate the spec (system consistency plus engine-level constraints).
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidSpec`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), EngineError> {
        self.system.validate().map_err(EngineError::InvalidSpec)?;
        // Checked whatever the backend: cross-validation runs the
        // stochastic backends on every spec, exact ones included.
        self.stochastic
            .sampling
            .validate()
            .map_err(EngineError::InvalidSpec)?;
        if self.stochastic.max_time.is_nan() || self.stochastic.max_time <= 0.0 {
            return Err(EngineError::InvalidSpec("max_time must be positive".into()));
        }
        if !(0.0 < self.stochastic.confidence && self.stochastic.confidence < 1.0) {
            return Err(EngineError::InvalidSpec(
                "confidence must lie strictly between 0 and 1".into(),
            ));
        }
        let mut prev = f64::NEG_INFINITY;
        for &t in &self.mission_times {
            if !t.is_finite() || t < 0.0 {
                return Err(EngineError::InvalidSpec(format!(
                    "mission times must be finite and non-negative, got {t}"
                )));
            }
            if t <= prev {
                return Err(EngineError::InvalidSpec(
                    "mission times must be strictly ascending".into(),
                ));
            }
            // Beyond the censoring horizon a stochastic backend has no
            // at-risk information: every estimate there would be either
            // not-estimable or failure-biased. Reject up front.
            if self.backend.is_stochastic() && t > self.stochastic.max_time {
                return Err(EngineError::InvalidSpec(format!(
                    "mission time {t} exceeds the censoring horizon {} — \
                     survival there is not estimable",
                    self.stochastic.max_time
                )));
            }
            prev = t;
        }
        if let Some(topo) = &self.clustered {
            topo.validate().map_err(EngineError::InvalidSpec)?;
            if self.backend == BackendKind::MobilityDes {
                return Err(EngineError::InvalidSpec(
                    "the mobility backend has no clustered variant — \
                     use exact, spn-sim, or des"
                        .into(),
                ));
            }
        }
        if let Some(sc) = &self.scenario {
            sc.validate().map_err(EngineError::InvalidSpec)?;
            if self.clustered.is_some() {
                return Err(EngineError::InvalidSpec(
                    "scenario and clustered cannot be combined — evaluate the \
                     scenario on a single-cluster spec"
                        .into(),
                ));
            }
            if self.backend == BackendKind::MobilityDes && sc.response != ResponsePolicy::Evict {
                return Err(EngineError::InvalidSpec(
                    "the mobility backend models attacker strategies only — \
                     scenario.response must be `evict` there"
                        .into(),
                ));
            }
        }
        if self.backend == BackendKind::MobilityDes {
            if self.mobility.radio_range.is_nan() || self.mobility.radio_range <= 0.0 {
                return Err(EngineError::InvalidSpec(
                    "radio_range must be positive".into(),
                ));
            }
            if self.mobility.dt.is_nan() || self.mobility.dt <= 0.0 {
                return Err(EngineError::InvalidSpec(
                    "mobility dt must be positive".into(),
                ));
            }
        }
        Ok(())
    }

    /// Serialize to canonical JSON. The `clustered` key is omitted when
    /// absent, so committed pre-clustering spec files stay canonical
    /// byte-for-byte.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("name", Value::Str(self.name.clone())),
            ("backend", Value::Str(self.backend.name().into())),
            ("system", system_to_value(&self.system)),
            (
                "stochastic",
                Value::obj([
                    // A fixed plan keeps the original `replications` key so
                    // pre-adaptive spec files stay canonical byte-for-byte;
                    // adaptive plans encode a `sampling` object instead.
                    match self.stochastic.sampling {
                        SamplingPlan::Fixed(n) => ("replications", Value::Num(n as f64)),
                        SamplingPlan::Adaptive {
                            target_rel_halfwidth,
                            min,
                            max,
                            batch,
                        } => (
                            "sampling",
                            Value::obj([
                                ("mode", Value::Str("adaptive".into())),
                                ("target_rel_halfwidth", Value::Num(target_rel_halfwidth)),
                                ("min", Value::Num(min as f64)),
                                ("max", Value::Num(max as f64)),
                                ("batch", Value::Num(batch as f64)),
                            ]),
                        ),
                    },
                    (
                        "master_seed",
                        // u64 seeds can exceed f64's 2^53 integer range, so
                        // the seed travels as a decimal string (lossless).
                        Value::Str(self.stochastic.master_seed.to_string()),
                    ),
                    ("max_time", Value::Num(self.stochastic.max_time)),
                    ("confidence", Value::Num(self.stochastic.confidence)),
                ]),
            ),
            (
                "mobility",
                Value::obj([
                    ("radio_range", Value::Num(self.mobility.radio_range)),
                    ("dt", Value::Num(self.mobility.dt)),
                ]),
            ),
            (
                "mission_times",
                Value::Arr(self.mission_times.iter().copied().map(Value::Num).collect()),
            ),
        ];
        if let Some(topo) = &self.clustered {
            fields.push((
                "clustered",
                Value::obj([
                    ("clusters", Value::Num(f64::from(topo.clusters))),
                    (
                        "failure_threshold",
                        Value::Num(f64::from(topo.failure_threshold)),
                    ),
                ]),
            ));
        }
        if let Some(sc) = &self.scenario {
            fields.push(("scenario", scenario_to_value(sc)));
        }
        Value::obj(fields).encode()
    }

    /// Parse a spec serialized by [`ScenarioSpec::to_json`].
    ///
    /// Read and parse the spec file at `path`. At most
    /// [`MAX_SPEC_BYTES`] are read: a larger file is refused with a named
    /// `size` error before it is read whole or parsed.
    ///
    /// # Errors
    /// Returns [`EngineError::Json`] for an unreadable, oversized or
    /// non-UTF-8 file, and otherwise as [`ScenarioSpec::from_json`].
    pub fn read(path: &Path) -> Result<Self, EngineError> {
        let unreadable = |e: std::io::Error| EngineError::Json(format!("cannot read: {e}"));
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|f| f.take(MAX_SPEC_BYTES as u64 + 1).read_to_end(&mut bytes))
            .map_err(unreadable)?;
        if bytes.len() > MAX_SPEC_BYTES {
            return Err(EngineError::Json(format!(
                "spec size exceeds the limit of {MAX_SPEC_BYTES} bytes"
            )));
        }
        let text = String::from_utf8(bytes)
            .map_err(|e| EngineError::Json(format!("cannot read: not UTF-8: {e}")))?;
        Self::from_json(&text)
    }

    /// # Errors
    /// Returns [`EngineError::Json`] for malformed documents and
    /// [`EngineError::InvalidSpec`] when the parsed spec fails validation.
    pub fn from_json(text: &str) -> Result<Self, EngineError> {
        let v = Value::parse(text)?;
        let st = v.field("stochastic")?;
        let mob = v.field("mobility")?;
        let spec = Self {
            name: v.field("name")?.as_str()?.to_string(),
            backend: BackendKind::from_name(v.field("backend")?.as_str()?)?,
            system: system_from_value(v.field("system")?)?,
            stochastic: StochasticOptions {
                sampling: sampling_from_value(st)?,
                master_seed: seed_from_value(st.field("master_seed")?)?,
                max_time: st.field("max_time")?.as_f64()?,
                confidence: st.field("confidence")?.as_f64()?,
            },
            mobility: MobilityOptions {
                radio_range: mob.field("radio_range")?.as_f64()?,
                dt: mob.field("dt")?.as_f64()?,
            },
            // Optional so specs written before mission survivability landed
            // (and terse hand-written ones) keep parsing.
            mission_times: match v.opt_field("mission_times") {
                Some(arr) => arr
                    .as_arr()?
                    .iter()
                    .map(Value::as_f64)
                    .collect::<Result<Vec<f64>, EngineError>>()?,
                None => Vec::new(),
            },
            clustered: match v.opt_field("clustered") {
                Some(o) => Some(ClusterTopology {
                    clusters: o.field("clusters")?.as_u32()?,
                    failure_threshold: o.field("failure_threshold")?.as_u32()?,
                }),
                None => None,
            },
            scenario: match v.opt_field("scenario") {
                Some(o) => Some(scenario_from_value(o)?),
                None => None,
            },
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Decode the sampling plan of a `stochastic` object: either the legacy
/// `replications` count (a fixed plan) or a `sampling` object with
/// `mode: "fixed" | "adaptive"`. Exactly one of the two forms must be
/// present — both at once would be ambiguous.
fn sampling_from_value(st: &Value) -> Result<SamplingPlan, EngineError> {
    match (st.opt_field("sampling"), st.opt_field("replications")) {
        (Some(_), Some(_)) => Err(EngineError::Json(
            "`stochastic` carries both `replications` and `sampling` — use one".into(),
        )),
        (None, Some(n)) => Ok(SamplingPlan::Fixed(n.as_u64()?)),
        (None, None) => Err(EngineError::Json(
            "`stochastic` needs `replications` or `sampling`".into(),
        )),
        (Some(s), None) => match s.field("mode")?.as_str()? {
            "fixed" => Ok(SamplingPlan::Fixed(s.field("n")?.as_u64()?)),
            "adaptive" => Ok(SamplingPlan::Adaptive {
                target_rel_halfwidth: s.field("target_rel_halfwidth")?.as_f64()?,
                min: s.field("min")?.as_u64()?,
                max: s.field("max")?.as_u64()?,
                batch: s.field("batch")?.as_u64()?,
            }),
            other => Err(EngineError::Json(format!(
                "unknown sampling mode `{other}`"
            ))),
        },
    }
}

/// Seeds serialize as decimal strings (lossless for the full u64 range);
/// plain numbers are accepted too for hand-written specs.
fn seed_from_value(v: &Value) -> Result<u64, EngineError> {
    match v {
        Value::Str(s) => s
            .parse::<u64>()
            .map_err(|_| EngineError::Json(format!("bad seed `{s}`"))),
        other => other.as_u64(),
    }
}

fn scenario_to_value(sc: &ScenarioConfig) -> Value {
    let attacker = match sc.attacker {
        AttackerStrategy::Baseline => Value::obj([("strategy", Value::Str("baseline".into()))]),
        AttackerStrategy::Burst {
            on_rate,
            off_rate,
            multiplier,
        } => Value::obj([
            ("strategy", Value::Str("burst".into())),
            ("on_rate", Value::Num(on_rate)),
            ("off_rate", Value::Num(off_rate)),
            ("multiplier", Value::Num(multiplier)),
        ]),
        AttackerStrategy::Stealth {
            rate_factor,
            evasion,
        } => Value::obj([
            ("strategy", Value::Str("stealth".into())),
            ("rate_factor", Value::Num(rate_factor)),
            ("evasion", Value::Num(evasion)),
        ]),
        AttackerStrategy::Targeted { focus } => Value::obj([
            ("strategy", Value::Str("targeted".into())),
            ("focus", Value::Num(focus)),
        ]),
    };
    let response = match sc.response {
        ResponsePolicy::Evict => Value::obj([("policy", Value::Str("evict".into()))]),
        ResponsePolicy::QuarantineRejoin {
            release_rate,
            false_release_prob,
        } => Value::obj([
            ("policy", Value::Str("quarantine-and-rejoin".into())),
            ("release_rate", Value::Num(release_rate)),
            ("false_release_prob", Value::Num(false_release_prob)),
        ]),
        ResponsePolicy::RekeyThrottle { max_rate } => Value::obj([
            ("policy", Value::Str("rekey-throttle".into())),
            ("max_rate", Value::Num(max_rate)),
        ]),
    };
    Value::obj([("attacker", attacker), ("response", response)])
}

/// Pull a required numeric parameter of a scenario sub-object, naming the
/// full field path in the error so a malformed spec file pinpoints itself.
fn scenario_num(o: &Value, section: &str, kind: &str, param: &str) -> Result<f64, EngineError> {
    o.opt_field(param)
        .ok_or_else(|| {
            EngineError::Json(format!(
                "scenario.{section}: `{kind}` requires the `{param}` field"
            ))
        })?
        .as_f64()
        .map_err(|_| {
            EngineError::Json(format!(
                "scenario.{section}.{param} must be a number for `{kind}`"
            ))
        })
}

fn scenario_from_value(v: &Value) -> Result<ScenarioConfig, EngineError> {
    let att = v
        .opt_field("attacker")
        .ok_or_else(|| EngineError::Json("scenario requires an `attacker` object".into()))?;
    let resp = v
        .opt_field("response")
        .ok_or_else(|| EngineError::Json("scenario requires a `response` object".into()))?;
    let attacker = match att
        .opt_field("strategy")
        .ok_or_else(|| EngineError::Json("scenario.attacker requires a `strategy` name".into()))?
        .as_str()?
    {
        "baseline" => AttackerStrategy::Baseline,
        "burst" => AttackerStrategy::Burst {
            on_rate: scenario_num(att, "attacker", "burst", "on_rate")?,
            off_rate: scenario_num(att, "attacker", "burst", "off_rate")?,
            multiplier: scenario_num(att, "attacker", "burst", "multiplier")?,
        },
        "stealth" => AttackerStrategy::Stealth {
            rate_factor: scenario_num(att, "attacker", "stealth", "rate_factor")?,
            evasion: scenario_num(att, "attacker", "stealth", "evasion")?,
        },
        "targeted" => AttackerStrategy::Targeted {
            focus: scenario_num(att, "attacker", "targeted", "focus")?,
        },
        other => {
            return Err(EngineError::Json(format!(
                "unknown scenario.attacker.strategy `{other}` — expected \
                 baseline, burst, stealth, or targeted"
            )))
        }
    };
    let response = match resp
        .opt_field("policy")
        .ok_or_else(|| EngineError::Json("scenario.response requires a `policy` name".into()))?
        .as_str()?
    {
        "evict" => ResponsePolicy::Evict,
        "quarantine-and-rejoin" => ResponsePolicy::QuarantineRejoin {
            release_rate: scenario_num(resp, "response", "quarantine-and-rejoin", "release_rate")?,
            false_release_prob: scenario_num(
                resp,
                "response",
                "quarantine-and-rejoin",
                "false_release_prob",
            )?,
        },
        "rekey-throttle" => ResponsePolicy::RekeyThrottle {
            max_rate: scenario_num(resp, "response", "rekey-throttle", "max_rate")?,
        },
        other => {
            return Err(EngineError::Json(format!(
                "unknown scenario.response.policy `{other}` — expected \
                 evict, quarantine-and-rejoin, or rekey-throttle"
            )))
        }
    };
    Ok(ScenarioConfig { attacker, response })
}

fn shape_name(s: RateShape) -> &'static str {
    s.name()
}

fn shape_from_name(s: &str) -> Result<RateShape, EngineError> {
    RateShape::all()
        .into_iter()
        .find(|shape| shape.name() == s)
        .ok_or_else(|| EngineError::Json(format!("unknown rate shape `{s}`")))
}

fn system_to_value(c: &SystemConfig) -> Value {
    let collusion = match c.collusion {
        CollusionModel::Full => Value::Str("full".into()),
        CollusionModel::None => Value::Str("none".into()),
        CollusionModel::Probabilistic(q) => Value::Num(q),
    };
    Value::obj([
        ("node_count", Value::Num(c.node_count as f64)),
        ("join_rate", Value::Num(c.join_rate)),
        ("leave_rate", Value::Num(c.leave_rate)),
        ("group_comm_rate", Value::Num(c.group_comm_rate)),
        (
            "attacker",
            Value::obj([
                ("shape", Value::Str(shape_name(c.attacker.shape).into())),
                ("base_rate", Value::Num(c.attacker.base_rate)),
                ("exponent", Value::Num(c.attacker.exponent)),
            ]),
        ),
        (
            "detection",
            Value::obj([
                ("shape", Value::Str(shape_name(c.detection.shape).into())),
                ("base_interval", Value::Num(c.detection.base_interval)),
                ("exponent", Value::Num(c.detection.exponent)),
            ]),
        ),
        (
            "p1_host_false_negative",
            Value::Num(c.p1_host_false_negative),
        ),
        (
            "p2_host_false_positive",
            Value::Num(c.p2_host_false_positive),
        ),
        ("vote_participants", Value::Num(c.vote_participants as f64)),
        ("collusion", collusion),
        (
            "partition_rate_per_group",
            Value::Num(c.partition_rate_per_group),
        ),
        ("merge_rate_per_group", Value::Num(c.merge_rate_per_group)),
        ("max_groups", Value::Num(c.max_groups as f64)),
        ("mean_hops", Value::Num(c.mean_hops)),
        ("bandwidth_bps", Value::Num(c.bandwidth_bps)),
        ("data_packet_bits", Value::Num(c.data_packet_bits as f64)),
        (
            "status_packet_bits",
            Value::Num(c.status_packet_bits as f64),
        ),
        ("vote_packet_bits", Value::Num(c.vote_packet_bits as f64)),
        ("beacon_bits", Value::Num(c.beacon_bits as f64)),
        ("key_element_bits", Value::Num(c.key_element_bits as f64)),
        (
            "key_agreement",
            Value::Str(
                match c.key_agreement {
                    KeyAgreementProtocol::Gdh2 => "gdh2",
                    KeyAgreementProtocol::Gdh3 => "gdh3",
                }
                .into(),
            ),
        ),
        (
            "batch_rekey_interval",
            c.batch_rekey_interval.map_or(Value::Null, Value::Num),
        ),
        ("status_period", Value::Num(c.status_period)),
        ("beacon_period", Value::Num(c.beacon_period)),
    ])
}

fn system_from_value(v: &Value) -> Result<SystemConfig, EngineError> {
    let att = v.field("attacker")?;
    let det = v.field("detection")?;
    let collusion = match v.field("collusion")? {
        Value::Str(s) if s == "full" => CollusionModel::Full,
        Value::Str(s) if s == "none" => CollusionModel::None,
        Value::Num(q) => CollusionModel::Probabilistic(*q),
        other => return Err(EngineError::Json(format!("bad collusion value {other:?}"))),
    };
    Ok(SystemConfig {
        node_count: v.field("node_count")?.as_u32()?,
        join_rate: v.field("join_rate")?.as_f64()?,
        leave_rate: v.field("leave_rate")?.as_f64()?,
        group_comm_rate: v.field("group_comm_rate")?.as_f64()?,
        attacker: AttackerProfile {
            shape: shape_from_name(att.field("shape")?.as_str()?)?,
            base_rate: att.field("base_rate")?.as_f64()?,
            exponent: att.field("exponent")?.as_f64()?,
        },
        detection: DetectionProfile {
            shape: shape_from_name(det.field("shape")?.as_str()?)?,
            base_interval: det.field("base_interval")?.as_f64()?,
            exponent: det.field("exponent")?.as_f64()?,
        },
        p1_host_false_negative: v.field("p1_host_false_negative")?.as_f64()?,
        p2_host_false_positive: v.field("p2_host_false_positive")?.as_f64()?,
        vote_participants: v.field("vote_participants")?.as_u32()?,
        collusion,
        partition_rate_per_group: v.field("partition_rate_per_group")?.as_f64()?,
        merge_rate_per_group: v.field("merge_rate_per_group")?.as_f64()?,
        max_groups: v.field("max_groups")?.as_u32()?,
        mean_hops: v.field("mean_hops")?.as_f64()?,
        bandwidth_bps: v.field("bandwidth_bps")?.as_f64()?,
        data_packet_bits: v.field("data_packet_bits")?.as_u64()?,
        status_packet_bits: v.field("status_packet_bits")?.as_u64()?,
        vote_packet_bits: v.field("vote_packet_bits")?.as_u64()?,
        beacon_bits: v.field("beacon_bits")?.as_u64()?,
        key_element_bits: v.field("key_element_bits")?.as_u64()?,
        key_agreement: match v.field("key_agreement")?.as_str()? {
            "gdh2" => KeyAgreementProtocol::Gdh2,
            "gdh3" => KeyAgreementProtocol::Gdh3,
            other => {
                return Err(EngineError::Json(format!(
                    "unknown key agreement `{other}`"
                )))
            }
        },
        batch_rekey_interval: match v.opt_field("batch_rekey_interval") {
            Some(x) => Some(x.as_f64()?),
            None => None,
        },
        status_period: v.field("status_period")?.as_f64()?,
        beacon_period: v.field("beacon_period")?.as_f64()?,
    })
}

/// Builders of the engine's unit tests.
#[cfg(test)]
impl ScenarioSpec {
    /// Same spec as a clustered deployment (builder style).
    pub(crate) fn with_clusters(mut self, topology: ClusterTopology) -> Self {
        self.clustered = Some(topology);
        self
    }

    /// Same spec under an adversary/response scenario (builder style).
    pub(crate) fn with_scenario(mut self, scenario: ScenarioConfig) -> Self {
        self.scenario = Some(scenario);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_is_lossless() {
        for backend in BackendKind::all() {
            let mut spec = ScenarioSpec::paper_default(backend);
            spec.system.collusion = CollusionModel::Probabilistic(0.37);
            spec.system.batch_rekey_interval = Some(120.0);
            spec.system.key_agreement = KeyAgreementProtocol::Gdh3;
            spec.system.detection.shape = RateShape::Polynomial;
            spec.mission_times = vec![0.0, 3.6e3, 8.64e4, 6.048e5];
            let text = spec.to_json();
            let back = ScenarioSpec::from_json(&text).unwrap();
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn mission_grid_is_optional_and_validated() {
        // absent field parses to an empty grid (pre-survival spec files)
        let spec = ScenarioSpec::paper_default(BackendKind::Exact);
        let text = spec.to_json().replace(",\"mission_times\":[]", "");
        assert!(!text.contains("mission_times"));
        assert_eq!(ScenarioSpec::from_json(&text).unwrap().mission_times, []);

        // grid must be strictly ascending, finite, non-negative
        let mut bad = ScenarioSpec::paper_default(BackendKind::Des);
        bad.mission_times = vec![10.0, 10.0];
        assert!(matches!(bad.validate(), Err(EngineError::InvalidSpec(_))));
        bad.mission_times = vec![-1.0];
        assert!(matches!(bad.validate(), Err(EngineError::InvalidSpec(_))));
        bad.mission_times = vec![f64::INFINITY];
        assert!(matches!(bad.validate(), Err(EngineError::InvalidSpec(_))));
        bad.mission_times = vec![0.0, 5.0, 60.0];
        assert!(bad.validate().is_ok());
    }

    #[test]
    fn extreme_seed_roundtrips_losslessly() {
        // 2^53 + 1 is not representable as f64; the string encoding keeps it.
        let mut spec = ScenarioSpec::paper_default(BackendKind::Des);
        spec.stochastic.master_seed = (1u64 << 53) + 1;
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.stochastic.master_seed, (1u64 << 53) + 1);
        let mut spec = ScenarioSpec::paper_default(BackendKind::Des);
        spec.stochastic.master_seed = u64::MAX;
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.stochastic.master_seed, u64::MAX);
    }

    #[test]
    fn numeric_seed_accepted_for_hand_written_specs() {
        let spec = ScenarioSpec::paper_default(BackendKind::Exact);
        let text = spec
            .to_json()
            .replace("\"master_seed\":\"2009\"", "\"master_seed\":2009");
        assert!(text.contains("\"master_seed\":2009"));
        let back = ScenarioSpec::from_json(&text).unwrap();
        assert_eq!(back.stochastic.master_seed, 2009);
    }

    #[test]
    fn roundtrip_preserves_none_batch_rekey() {
        let spec = ScenarioSpec::paper_default(BackendKind::Exact);
        assert_eq!(spec.system.batch_rekey_interval, None);
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.system.batch_rekey_interval, None);
    }

    #[test]
    fn backend_names_roundtrip() {
        for b in BackendKind::all() {
            assert_eq!(BackendKind::from_name(b.name()).unwrap(), b);
        }
        assert!(BackendKind::from_name("nope").is_err());
    }

    #[test]
    fn validation_catches_engine_level_errors() {
        let mut spec = ScenarioSpec::paper_default(BackendKind::Des);
        spec.stochastic.sampling = SamplingPlan::Fixed(0);
        assert!(matches!(spec.validate(), Err(EngineError::InvalidSpec(_))));

        let mut spec = ScenarioSpec::paper_default(BackendKind::Des);
        spec.stochastic.sampling = SamplingPlan::Adaptive {
            target_rel_halfwidth: 0.0, // must be positive
            min: 10,
            max: 100,
            batch: 10,
        };
        assert!(matches!(spec.validate(), Err(EngineError::InvalidSpec(_))));

        let mut spec = ScenarioSpec::paper_default(BackendKind::MobilityDes);
        spec.mobility.dt = 0.0;
        assert!(matches!(spec.validate(), Err(EngineError::InvalidSpec(_))));

        let mut spec = ScenarioSpec::paper_default(BackendKind::Exact);
        spec.system.node_count = 0;
        assert!(matches!(spec.validate(), Err(EngineError::InvalidSpec(_))));

        // the stochastic block is checked on exact specs too, since
        // cross-validation runs the stochastic backends on every spec
        let mut spec = ScenarioSpec::paper_default(BackendKind::Exact);
        spec.stochastic.sampling = SamplingPlan::Fixed(0);
        assert!(matches!(spec.validate(), Err(EngineError::InvalidSpec(_))));
    }

    #[test]
    fn exact_spec_with_confidence_out_of_range_is_invalid() {
        let mut spec = ScenarioSpec::paper_default(BackendKind::Exact);
        spec.stochastic.confidence = 1.5;
        match spec.validate() {
            Err(EngineError::InvalidSpec(msg)) => assert!(msg.contains("confidence"), "{msg}"),
            other => panic!("expected InvalidSpec naming confidence, got {other:?}"),
        }
        // the same spec decoded from JSON is rejected on load
        let text = spec.to_json();
        assert!(matches!(
            ScenarioSpec::from_json(&text),
            Err(EngineError::InvalidSpec(_))
        ));
    }

    #[test]
    fn duplicate_key_is_a_named_error() {
        let text = ScenarioSpec::paper_default(BackendKind::Exact).to_json();
        let twice = text.replacen('{', "{\"name\":\"again\",", 1);
        match ScenarioSpec::from_json(&twice) {
            Err(EngineError::Json(msg)) => assert!(msg.contains("duplicate key `name`"), "{msg}"),
            other => panic!("expected a duplicate-key error, got {other:?}"),
        }
    }

    #[test]
    fn deeply_nested_json_is_a_named_error() {
        let text = "[".repeat(200_000);
        match ScenarioSpec::from_json(&text) {
            Err(EngineError::Json(msg)) => assert!(msg.contains("nesting"), "{msg}"),
            other => panic!("expected a JSON nesting error, got {other:?}"),
        }
    }

    #[test]
    fn adaptive_sampling_roundtrips_and_fixed_keeps_legacy_key() {
        // fixed plans keep the pre-adaptive `replications` key (canonical
        // byte-compatibility with committed spec files)
        let fixed = ScenarioSpec::paper_default(BackendKind::Des);
        let text = fixed.to_json();
        assert!(text.contains("\"replications\":200.0"));
        assert!(!text.contains("\"sampling\""));
        assert_eq!(ScenarioSpec::from_json(&text).unwrap(), fixed);

        // adaptive plans encode a `sampling` object and round-trip losslessly
        let mut spec = ScenarioSpec::paper_default(BackendKind::Des);
        spec.stochastic.sampling = SamplingPlan::Adaptive {
            target_rel_halfwidth: 0.05,
            min: 100,
            max: 10_000,
            batch: 250,
        };
        let text = spec.to_json();
        assert!(text.contains("\"sampling\":{"));
        assert!(text.contains("\"mode\":\"adaptive\""));
        assert!(!text.contains("\"replications\""));
        assert_eq!(ScenarioSpec::from_json(&text).unwrap(), spec);
    }

    #[test]
    fn sampling_object_fixed_mode_and_conflicts() {
        // an explicit fixed-mode sampling object is accepted
        let spec = ScenarioSpec::paper_default(BackendKind::Des);
        let text = spec.to_json().replace(
            "\"replications\":200.0",
            "\"sampling\":{\"mode\":\"fixed\",\"n\":77}",
        );
        let back = ScenarioSpec::from_json(&text).unwrap();
        assert_eq!(back.stochastic.sampling, SamplingPlan::Fixed(77));

        // both forms at once is ambiguous and must be rejected
        let text = spec.to_json().replace(
            "\"replications\":200.0",
            "\"replications\":200.0,\"sampling\":{\"mode\":\"fixed\",\"n\":77}",
        );
        assert!(ScenarioSpec::from_json(&text).is_err());

        // unknown mode is rejected
        let text = spec
            .to_json()
            .replace("\"replications\":200.0", "\"sampling\":{\"mode\":\"nope\"}");
        assert!(ScenarioSpec::from_json(&text).is_err());
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(ScenarioSpec::from_json("{").is_err());
        assert!(ScenarioSpec::from_json("{}").is_err());
    }

    #[test]
    fn clustered_roundtrips_and_is_omitted_when_absent() {
        let plain = ScenarioSpec::paper_default(BackendKind::Exact);
        assert!(!plain.to_json().contains("clustered"));
        assert_eq!(ScenarioSpec::from_json(&plain.to_json()).unwrap(), plain);

        let spec = plain.clone().with_clusters(ClusterTopology {
            clusters: 10,
            failure_threshold: 3,
        });
        let text = spec.to_json();
        assert!(text.contains("\"clustered\":{\"clusters\":10.0,\"failure_threshold\":3.0}"));
        assert_eq!(ScenarioSpec::from_json(&text).unwrap(), spec);
    }

    #[test]
    fn scenario_roundtrips_and_is_omitted_when_absent() {
        let plain = ScenarioSpec::paper_default(BackendKind::Des);
        assert!(!plain.to_json().contains("scenario"));
        assert_eq!(ScenarioSpec::from_json(&plain.to_json()).unwrap(), plain);

        let combos = [
            (AttackerStrategy::Baseline, ResponsePolicy::Evict),
            (
                AttackerStrategy::Burst {
                    on_rate: 0.001,
                    off_rate: 0.002,
                    multiplier: 5.0,
                },
                ResponsePolicy::QuarantineRejoin {
                    release_rate: 0.01,
                    false_release_prob: 0.1,
                },
            ),
            (
                AttackerStrategy::Stealth {
                    rate_factor: 0.5,
                    evasion: 0.25,
                },
                ResponsePolicy::RekeyThrottle { max_rate: 0.02 },
            ),
            (
                AttackerStrategy::Targeted { focus: 0.7 },
                ResponsePolicy::Evict,
            ),
        ];
        for (attacker, response) in combos {
            let spec = ScenarioSpec::paper_default(BackendKind::Des)
                .with_scenario(ScenarioConfig { attacker, response });
            let text = spec.to_json();
            assert!(text.contains("\"scenario\""));
            assert_eq!(ScenarioSpec::from_json(&text).unwrap(), spec);
        }
    }

    #[test]
    fn scenario_decode_errors_name_the_field() {
        let spec = ScenarioSpec::paper_default(BackendKind::Des).with_scenario(ScenarioConfig {
            attacker: AttackerStrategy::Burst {
                on_rate: 0.001,
                off_rate: 0.002,
                multiplier: 5.0,
            },
            response: ResponsePolicy::Evict,
        });
        let text = spec.to_json();

        // a missing burst parameter names itself
        let broken = text.replace("\"on_rate\":0.001,", "");
        let err = ScenarioSpec::from_json(&broken).unwrap_err().to_string();
        assert!(err.contains("scenario.attacker"), "{err}");
        assert!(err.contains("on_rate"), "{err}");

        // an unknown strategy names the valid set
        let broken = text.replace("\"strategy\":\"burst\"", "\"strategy\":\"sneaky\"");
        let err = ScenarioSpec::from_json(&broken).unwrap_err().to_string();
        assert!(err.contains("sneaky") && err.contains("stealth"), "{err}");

        // a non-numeric parameter names the path
        let broken = text.replace("\"multiplier\":5.0", "\"multiplier\":\"big\"");
        let err = ScenarioSpec::from_json(&broken).unwrap_err().to_string();
        assert!(err.contains("scenario.attacker.multiplier"), "{err}");

        // an unknown response policy names the valid set
        let spec2 = ScenarioSpec::paper_default(BackendKind::Des).with_scenario(ScenarioConfig {
            attacker: AttackerStrategy::Baseline,
            response: ResponsePolicy::RekeyThrottle { max_rate: 0.02 },
        });
        let broken = spec2
            .to_json()
            .replace("\"policy\":\"rekey-throttle\"", "\"policy\":\"banhammer\"");
        let err = ScenarioSpec::from_json(&broken).unwrap_err().to_string();
        assert!(
            err.contains("banhammer") && err.contains("quarantine"),
            "{err}"
        );
    }

    #[test]
    fn scenario_validation_constraints() {
        // out-of-range parameters are rejected with the field named
        let bad = ScenarioSpec::paper_default(BackendKind::Des).with_scenario(ScenarioConfig {
            attacker: AttackerStrategy::Stealth {
                rate_factor: 0.0,
                evasion: 0.2,
            },
            response: ResponsePolicy::Evict,
        });
        match bad.validate() {
            Err(EngineError::InvalidSpec(msg)) => assert!(msg.contains("rate_factor"), "{msg}"),
            other => panic!("expected InvalidSpec, got {other:?}"),
        }

        // scenario + clustered is rejected
        let bad = ScenarioSpec::paper_default(BackendKind::Exact)
            .with_clusters(ClusterTopology {
                clusters: 4,
                failure_threshold: 2,
            })
            .with_scenario(ScenarioConfig::baseline());
        assert!(matches!(bad.validate(), Err(EngineError::InvalidSpec(_))));

        // mobility + non-evict response is rejected; evict is fine
        let sc = ScenarioConfig {
            attacker: AttackerStrategy::Targeted { focus: 0.5 },
            response: ResponsePolicy::RekeyThrottle { max_rate: 0.01 },
        };
        let bad = ScenarioSpec::paper_default(BackendKind::MobilityDes).with_scenario(sc);
        assert!(matches!(bad.validate(), Err(EngineError::InvalidSpec(_))));
        let ok =
            ScenarioSpec::paper_default(BackendKind::MobilityDes).with_scenario(ScenarioConfig {
                attacker: AttackerStrategy::Targeted { focus: 0.5 },
                response: ResponsePolicy::Evict,
            });
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn clustered_validation() {
        let topo = ClusterTopology {
            clusters: 4,
            failure_threshold: 2,
        };
        for backend in [BackendKind::Exact, BackendKind::SpnSim, BackendKind::Des] {
            assert!(ScenarioSpec::paper_default(backend)
                .with_clusters(topo)
                .validate()
                .is_ok());
        }
        // the mobility backend has no clustered variant
        assert!(ScenarioSpec::paper_default(BackendKind::MobilityDes)
            .with_clusters(topo)
            .validate()
            .is_err());
        // topology itself is validated
        assert!(ScenarioSpec::paper_default(BackendKind::Exact)
            .with_clusters(ClusterTopology {
                clusters: 2,
                failure_threshold: 3,
            })
            .validate()
            .is_err());
    }
}
