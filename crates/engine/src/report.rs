//! The common result shape every backend produces.

use crate::error::EngineError;
use crate::json::Value;
use crate::spec::BackendKind;
use gcsids::cost::CostBreakdown;
use numerics::stats::{proportion_ci, SurvivalAccumulator, Welford};

/// A point estimate with an optional confidence interval (exact backends
/// report the value alone; stochastic backends attach the interval).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The estimate.
    pub value: f64,
    /// Confidence interval `(lo, hi)` when the backend is stochastic.
    pub ci: Option<(f64, f64)>,
}

impl Estimate {
    /// Exact value without sampling error.
    pub fn exact(value: f64) -> Self {
        Self { value, ci: None }
    }

    /// Mean with a confidence interval from replication statistics.
    /// The interval is omitted below two observations; with **zero**
    /// observations (every replication censored) the value is `NaN` —
    /// "not estimable" — rather than a misleading 0.0. Check
    /// [`RunReport::censored`] against [`RunReport::replications`] to
    /// distinguish "fails instantly" from "never failed within the
    /// horizon".
    pub fn from_welford(w: &Welford, confidence: f64) -> Self {
        if w.count() == 0 {
            return Self {
                value: f64::NAN,
                ci: None,
            };
        }
        if w.count() < 2 {
            return Self {
                value: w.mean(),
                ci: None,
            };
        }
        let ci = w.confidence_interval(confidence);
        Self {
            value: w.mean(),
            ci: Some((ci.lo(), ci.hi())),
        }
    }

    /// Binomial proportion `successes / n` with a Wilson score interval
    /// (survival probabilities). The value is the raw proportion; the
    /// interval is Wilson's, which keeps the degenerate cases sane:
    /// `n = 0` (nothing at risk) is the `NaN` "not estimable" marker with
    /// no interval, and zero-variance samples — e.g. survival at `t = 0`,
    /// where every replication is alive — get finite one-sided bounds,
    /// never a `NaN` or a spuriously zero-width interval.
    pub fn proportion(successes: u64, n: u64, confidence: f64) -> Self {
        match proportion_ci(successes, n, confidence) {
            None => Self {
                value: f64::NAN,
                ci: None,
            },
            Some(ci) => Self {
                value: successes as f64 / n as f64,
                ci: Some((ci.lo(), ci.hi())),
            },
        }
    }
}

/// Kaplan–Meier-style survival estimates on a mission-time grid from
/// right-censored replication outcomes, each point a binomial proportion
/// with its confidence interval. The counts come from a
/// [`SurvivalAccumulator`] maintained incrementally by a replication sink,
/// so no event list is ever materialized; the grid is the accumulator's
/// own.
///
/// The estimator assumes a common censoring horizon: past the earliest
/// censoring time the remaining at-risk set consists only of replications
/// that failed, so the proportion would be severely failure-biased — not
/// merely noisy. Any grid point with a censoring event strictly before it
/// is therefore reported as the `NaN` "not estimable" marker (spec
/// validation already rejects grids beyond the horizon; this guards the
/// remaining early-censoring paths, e.g. a simulation firing cap).
pub fn survival_estimates_streaming(
    acc: &SurvivalAccumulator,
    confidence: f64,
) -> Vec<(f64, Estimate)> {
    acc.times()
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            if !acc.estimable(i) {
                return (
                    t,
                    Estimate {
                        value: f64::NAN,
                        ci: None,
                    },
                );
            }
            let (surviving, at_risk) = acc.counts(i);
            (t, Estimate::proportion(surviving, at_risk, confidence))
        })
        .collect()
}

/// How the cross-request template cache handled one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// A cached template for the spec's structural family was reused.
    Hit,
    /// No template was cached for the family; one was built and inserted.
    Miss,
    /// The spec is not cacheable (stochastic backends and clustered exact
    /// specs route around the template cache — see
    /// [`crate::service::TemplateCache`]).
    Bypass,
}

impl CacheOutcome {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Bypass => "bypass",
        }
    }

    /// Inverse of [`CacheOutcome::name`].
    ///
    /// # Errors
    /// Returns [`EngineError::Json`] for unknown names.
    pub fn from_name(name: &str) -> Result<Self, EngineError> {
        match name {
            "hit" => Ok(CacheOutcome::Hit),
            "miss" => Ok(CacheOutcome::Miss),
            "bypass" => Ok(CacheOutcome::Bypass),
            other => Err(EngineError::Json(format!(
                "unknown cache outcome {other:?}"
            ))),
        }
    }
}

/// Template-cache telemetry attached to reports produced through a
/// cache-aware runner ([`crate::Runner::run_cached`] and the service
/// loop). `None` on reports from plain one-shot execution, and omitted
/// from the JSON encoding in that case, so cache-aware and one-shot
/// reports stay byte-comparable after stripping this field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplateCacheInfo {
    /// What the cache did for this submission.
    pub outcome: CacheOutcome,
    /// Cumulative hits since the cache was created.
    pub hits: u64,
    /// Cumulative misses (each miss built and inserted a template).
    pub misses: u64,
    /// Cumulative evictions under the LRU/size budget.
    pub evictions: u64,
    /// Cumulative bypasses (non-cacheable submissions).
    pub bypasses: u64,
    /// Templates resident after this submission.
    pub entries: u64,
    /// Total CTMC states across resident templates.
    pub cached_states: u64,
}

impl TemplateCacheInfo {
    fn to_value(self) -> Value {
        Value::obj([
            ("outcome", Value::Str(self.outcome.name().into())),
            ("hits", Value::Num(self.hits as f64)),
            ("misses", Value::Num(self.misses as f64)),
            ("evictions", Value::Num(self.evictions as f64)),
            ("bypasses", Value::Num(self.bypasses as f64)),
            ("entries", Value::Num(self.entries as f64)),
            ("cached_states", Value::Num(self.cached_states as f64)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, EngineError> {
        Ok(Self {
            outcome: CacheOutcome::from_name(v.field("outcome")?.as_str()?)?,
            hits: v.field("hits")?.as_u64()?,
            misses: v.field("misses")?.as_u64()?,
            evictions: v.field("evictions")?.as_u64()?,
            bypasses: v.field("bypasses")?.as_u64()?,
            entries: v.field("entries")?.as_u64()?,
            cached_states: v.field("cached_states")?.as_u64()?,
        })
    }
}

/// Transient-engine telemetry attached to reports whose spec requested a
/// mission-survival grid on the exact backend. `None` otherwise (including
/// every stochastic-backend report), and omitted from the JSON encoding in
/// that case, so grids-off and stochastic reports keep their historical
/// byte encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransientInfo {
    /// Sparse matrix-vector products spent across the survival sweep.
    pub matvecs: u64,
    /// Uniformization step at which steady-state detection collapsed the
    /// Poisson tail analytically (`None` when detection never fired).
    pub detection_step: Option<u64>,
    /// Whether the grid sweep stopped early because the surviving
    /// transient mass dropped below the truncation tolerance.
    pub early_exit: bool,
    /// Transient states in the compacted uniformized submatrix.
    pub transient_states: u64,
    /// Absorbing states excluded from per-step propagation.
    pub absorbing_states: u64,
}

impl TransientInfo {
    fn to_value(self) -> Value {
        Value::obj([
            ("matvecs", Value::Num(self.matvecs as f64)),
            (
                "detection_step",
                self.detection_step
                    .map_or(Value::Null, |s| Value::Num(s as f64)),
            ),
            ("early_exit", Value::Bool(self.early_exit)),
            ("transient_states", Value::Num(self.transient_states as f64)),
            ("absorbing_states", Value::Num(self.absorbing_states as f64)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, EngineError> {
        let detection_step = match v.field("detection_step")? {
            Value::Null => None,
            other => Some(other.as_u64()?),
        };
        Ok(Self {
            matvecs: v.field("matvecs")?.as_u64()?,
            detection_step,
            early_exit: v.field("early_exit")?.as_bool()?,
            transient_states: v.field("transient_states")?.as_u64()?,
            absorbing_states: v.field("absorbing_states")?.as_u64()?,
        })
    }
}

/// Detection-quality metrics attached to reports whose spec carries an
/// adversary/response scenario (`None` otherwise, and the JSON key is
/// omitted entirely in that case, so pre-scenario reports keep their
/// historical byte encoding).
///
/// Stochastic backends report per-replication means with confidence
/// intervals; the exact backend reports expected transition-firing totals
/// (no interval) and cannot observe per-replication lead times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionInfo {
    /// Nodes compromised per replication (expected firings of `T_CP` on
    /// the exact backend).
    pub compromises: Estimate,
    /// True detections — convictions of compromised nodes — per
    /// replication (expected firings of `T_IDS`).
    pub detections: Estimate,
    /// False alarms — convictions of healthy nodes — per replication
    /// (expected firings of `T_FA`).
    pub false_alarms: Estimate,
    /// Fraction of convictions that hit healthy nodes:
    /// `false_alarms / (detections + false_alarms)`. `NaN` ("not
    /// estimable", encoded as null) when nothing was ever convicted.
    pub fp_rate: f64,
    /// Fraction of compromises never convicted before the run ended:
    /// `1 − detections / compromises`, clamped at 0. `NaN` when nothing
    /// was ever compromised.
    pub fn_rate: f64,
    /// Detection lead time: mean delay from a replication's first
    /// compromise to its first true detection, over replications that saw
    /// both. `NaN` with no such replication — and always on the exact
    /// backend, which has no per-replication ordering.
    pub lead_time: Estimate,
    /// Replications contributing to `lead_time`.
    pub lead_time_observations: u64,
}

impl DetectionInfo {
    fn to_value(self) -> Value {
        Value::obj([
            ("compromises", est_to_value(&self.compromises)),
            ("detections", est_to_value(&self.detections)),
            ("false_alarms", est_to_value(&self.false_alarms)),
            ("fp_rate", num(self.fp_rate)),
            ("fn_rate", num(self.fn_rate)),
            ("lead_time", est_to_value(&self.lead_time)),
            (
                "lead_time_observations",
                Value::Num(self.lead_time_observations as f64),
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, EngineError> {
        // null = the NaN "not estimable" marker
        let rate = |name: &str| -> Result<f64, EngineError> {
            match v.field(name)? {
                Value::Null => Ok(f64::NAN),
                other => other.as_f64(),
            }
        };
        Ok(Self {
            compromises: est_from_value(v.field("compromises")?)?,
            detections: est_from_value(v.field("detections")?)?,
            false_alarms: est_from_value(v.field("false_alarms")?)?,
            fp_rate: rate("fp_rate")?,
            fn_rate: rate("fn_rate")?,
            lead_time: est_from_value(v.field("lead_time")?)?,
            lead_time_observations: v.field("lead_time_observations")?.as_u64()?,
        })
    }
}

/// How the observed runs ended, as probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FailureSplit {
    /// Data-leak failures (condition C1).
    pub p_c1: f64,
    /// Byzantine-capture failures (condition C2).
    pub p_c2: f64,
    /// Everything else (attrition in the DES backends; zero for exact).
    pub p_other: f64,
}

/// The unified result of running one [`crate::ScenarioSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scenario label (copied from the spec).
    pub scenario: String,
    /// Backend that produced the report.
    pub backend: BackendKind,
    /// Mean time to security failure (s).
    pub mttsf: Estimate,
    /// Time-averaged total communication cost (hop·bits/s).
    pub c_total: Estimate,
    /// Per-component cost breakdown (exact backend only).
    pub cost_components: Option<CostBreakdown>,
    /// Failure-mode split.
    pub failure: FailureSplit,
    /// CTMC states (exact backend only).
    pub state_count: Option<usize>,
    /// CTMC edges (exact backend only).
    pub edge_count: Option<usize>,
    /// Symmetry-lumping reduction factor: estimated unlumped state count
    /// divided by the states actually built (exact backend on clustered
    /// specs only; `None` when lumping was not in play).
    pub lumping_reduction: Option<f64>,
    /// Replications actually run (stochastic backends only; an adaptive
    /// sampling plan chooses this at runtime).
    pub replications: Option<u64>,
    /// Replications censored by the time horizon (stochastic backends only).
    pub censored: Option<u64>,
    /// Of the censored replications, how many had zero duration
    /// (censored-at-zero: an empty observation window contributes no cost
    /// or failure-time sample). Stochastic backends only.
    pub zero_duration: Option<u64>,
    /// Adaptive-sampling verdict: `Some(true)` when the MTTSF CI met the
    /// requested relative half-width target, `Some(false)` when the
    /// replication budget ran out first, `None` for fixed plans and the
    /// exact backend.
    pub target_met: Option<bool>,
    /// Mission survival curve `P[no security failure by t]` per grid point
    /// of [`crate::ScenarioSpec::mission_times`] (`None` when the spec has
    /// no grid). Exact on the exact backend; Kaplan–Meier-style estimates
    /// with confidence intervals on the stochastic ones.
    pub survival: Option<Vec<(f64, Estimate)>>,
    /// Wall-clock seconds spent producing this report.
    pub wall_seconds: f64,
    /// Cross-request template-cache telemetry (`None` outside cache-aware
    /// execution; the JSON key is omitted entirely in that case).
    pub template_cache: Option<TemplateCacheInfo>,
    /// Transient-engine telemetry from the mission-survival sweep (`None`
    /// when the spec has no grid or the backend is stochastic; the JSON key
    /// is omitted entirely in that case).
    pub transient: Option<TransientInfo>,
    /// Detection-quality metrics (`None` unless the spec carries a
    /// scenario; the JSON key is omitted entirely in that case).
    pub detection: Option<DetectionInfo>,
}

/// Non-finite numbers (the "not estimable" marker) encode as null.
pub(crate) fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::Num(x)
    } else {
        Value::Null
    }
}

pub(crate) fn est_to_value(e: &Estimate) -> Value {
    match e.ci {
        Some((lo, hi)) => Value::obj([
            ("value", num(e.value)),
            ("ci_lo", num(lo)),
            ("ci_hi", num(hi)),
        ]),
        None => Value::obj([("value", num(e.value))]),
    }
}

pub(crate) fn est_from_value(v: &Value) -> Result<Estimate, EngineError> {
    // null value = the NaN "not estimable" marker
    let value = match v.opt_field("value") {
        Some(x) => x.as_f64()?,
        None => f64::NAN,
    };
    let ci = match (v.opt_field("ci_lo"), v.opt_field("ci_hi")) {
        (Some(lo), Some(hi)) => Some((lo.as_f64()?, hi.as_f64()?)),
        _ => None,
    };
    Ok(Estimate { value, ci })
}

impl RunReport {
    /// Serialize to JSON (for logs / downstream tooling). Lossless up to
    /// the `NaN → null` "not estimable" encoding, which
    /// [`RunReport::from_json`] maps back to `NaN`.
    pub fn to_json(&self) -> String {
        let opt_num = |x: Option<f64>| x.map_or(Value::Null, Value::Num);
        let components = self.cost_components.as_ref().map_or(Value::Null, |c| {
            Value::obj([
                ("group_comm", Value::Num(c.group_comm)),
                ("status", Value::Num(c.status)),
                ("rekey", Value::Num(c.rekey)),
                ("ids", Value::Num(c.ids)),
                ("beacon", Value::Num(c.beacon)),
                ("partition_merge", Value::Num(c.partition_merge)),
            ])
        });
        let survival = self.survival.as_ref().map_or(Value::Null, |points| {
            Value::Arr(
                points
                    .iter()
                    .map(|(t, e)| {
                        let Value::Obj(mut fields) = est_to_value(e) else {
                            // detlint::allow(R001): structural invariant — est_to_value always builds Value::Obj, no spec input involved
                            unreachable!("estimates encode as objects")
                        };
                        fields.insert("t".into(), Value::Num(*t));
                        Value::Obj(fields)
                    })
                    .collect(),
            )
        });
        let mut root = Value::obj([
            ("scenario", Value::Str(self.scenario.clone())),
            ("backend", Value::Str(self.backend.name().into())),
            ("mttsf", est_to_value(&self.mttsf)),
            ("c_total", est_to_value(&self.c_total)),
            ("cost_components", components),
            (
                "failure",
                Value::obj([
                    ("p_c1", Value::Num(self.failure.p_c1)),
                    ("p_c2", Value::Num(self.failure.p_c2)),
                    ("p_other", Value::Num(self.failure.p_other)),
                ]),
            ),
            ("state_count", opt_num(self.state_count.map(|x| x as f64))),
            ("edge_count", opt_num(self.edge_count.map(|x| x as f64))),
            ("lumping_reduction", opt_num(self.lumping_reduction)),
            ("replications", opt_num(self.replications.map(|x| x as f64))),
            ("censored", opt_num(self.censored.map(|x| x as f64))),
            (
                "zero_duration",
                opt_num(self.zero_duration.map(|x| x as f64)),
            ),
            (
                "target_met",
                self.target_met.map_or(Value::Null, Value::Bool),
            ),
            ("survival", survival),
            ("wall_seconds", Value::Num(self.wall_seconds)),
        ]);
        // Emitted only when present so reports from plain one-shot runs
        // keep their historical byte encoding (the `clustered` spec key
        // follows the same convention).
        if let Some(info) = self.template_cache {
            let Value::Obj(fields) = &mut root else {
                // detlint::allow(R001): structural invariant — `root` is the Value::obj literal built eight lines up
                unreachable!("report root is an object")
            };
            fields.insert("template_cache".into(), info.to_value());
        }
        if let Some(info) = self.transient {
            let Value::Obj(fields) = &mut root else {
                // detlint::allow(R001): structural invariant — `root` is the Value::obj literal built above
                unreachable!("report root is an object")
            };
            fields.insert("transient".into(), info.to_value());
        }
        if let Some(info) = self.detection {
            let Value::Obj(fields) = &mut root else {
                // detlint::allow(R001): structural invariant — `root` is the Value::obj literal built above
                unreachable!("report root is an object")
            };
            fields.insert("detection".into(), info.to_value());
        }
        root.encode()
    }

    /// Parse a report serialized by [`RunReport::to_json`].
    ///
    /// # Errors
    /// Returns [`EngineError::Json`] for malformed documents.
    pub fn from_json(text: &str) -> Result<Self, EngineError> {
        let v = Value::parse(text)?;
        let f = v.field("failure")?;
        let cost_components = match v.opt_field("cost_components") {
            None => None,
            Some(c) => Some(CostBreakdown {
                group_comm: c.field("group_comm")?.as_f64()?,
                status: c.field("status")?.as_f64()?,
                rekey: c.field("rekey")?.as_f64()?,
                ids: c.field("ids")?.as_f64()?,
                beacon: c.field("beacon")?.as_f64()?,
                partition_merge: c.field("partition_merge")?.as_f64()?,
            }),
        };
        let survival = match v.opt_field("survival") {
            None => None,
            Some(arr) => Some(
                arr.as_arr()?
                    .iter()
                    .map(|p| Ok((p.field("t")?.as_f64()?, est_from_value(p)?)))
                    .collect::<Result<Vec<(f64, Estimate)>, EngineError>>()?,
            ),
        };
        let opt_u64 = |name: &str| -> Result<Option<u64>, EngineError> {
            v.opt_field(name).map(Value::as_u64).transpose()
        };
        Ok(Self {
            scenario: v.field("scenario")?.as_str()?.to_string(),
            backend: BackendKind::from_name(v.field("backend")?.as_str()?)?,
            mttsf: est_from_value(v.field("mttsf")?)?,
            c_total: est_from_value(v.field("c_total")?)?,
            cost_components,
            failure: FailureSplit {
                p_c1: f.field("p_c1")?.as_f64()?,
                p_c2: f.field("p_c2")?.as_f64()?,
                p_other: f.field("p_other")?.as_f64()?,
            },
            state_count: opt_u64("state_count")?.map(|x| x as usize),
            edge_count: opt_u64("edge_count")?.map(|x| x as usize),
            lumping_reduction: v
                .opt_field("lumping_reduction")
                .map(Value::as_f64)
                .transpose()?,
            replications: opt_u64("replications")?,
            censored: opt_u64("censored")?,
            zero_duration: opt_u64("zero_duration")?,
            target_met: v.opt_field("target_met").map(Value::as_bool).transpose()?,
            survival,
            wall_seconds: v.field("wall_seconds")?.as_f64()?,
            template_cache: v
                .opt_field("template_cache")
                .map(TemplateCacheInfo::from_value)
                .transpose()?,
            transient: v
                .opt_field("transient")
                .map(TransientInfo::from_value)
                .transpose()?,
            detection: v
                .opt_field("detection")
                .map(DetectionInfo::from_value)
                .transpose()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The batch estimator over a full `(time, censored)` event list: the
    /// oracle of [`survival_estimates_streaming`].
    fn survival_estimates(
        events: &[(f64, bool)],
        mission_times: &[f64],
        confidence: f64,
    ) -> Vec<(f64, Estimate)> {
        let at = |t: f64| {
            if events.iter().any(|&(time, censored)| censored && time < t) {
                return Estimate {
                    value: f64::NAN,
                    ci: None,
                };
            }
            // No run was censored before t, so every run is at risk.
            let surviving = events.iter().filter(|&&(time, _)| time >= t).count();
            Estimate::proportion(surviving as u64, events.len() as u64, confidence)
        };
        mission_times.iter().map(|&t| (t, at(t))).collect()
    }

    #[test]
    fn estimate_from_welford_attaches_interval() {
        let mut w = Welford::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        let e = Estimate::from_welford(&w, 0.95);
        assert_eq!(e.value, 2.5);
        let (lo, hi) = e.ci.unwrap();
        assert!(lo < 2.5 && 2.5 < hi);

        let mut single = Welford::new();
        single.push(7.0);
        assert_eq!(Estimate::from_welford(&single, 0.95).ci, None);

        // zero observations (all censored): not estimable, not zero
        let empty = Estimate::from_welford(&Welford::new(), 0.95);
        assert!(empty.value.is_nan());
        assert_eq!(empty.ci, None);
    }

    #[test]
    fn estimate_proportion_edge_cases() {
        // zero-variance at t = 0: every replication alive — finite Wilson
        // bounds reaching exactly 1, never NaN, never zero-width
        let p = Estimate::proportion(40, 40, 0.95);
        assert_eq!(p.value, 1.0);
        let (lo, hi) = p.ci.unwrap();
        assert!(!lo.is_nan() && !hi.is_nan());
        assert!((hi - 1.0).abs() < 1e-12);
        assert!(lo < 1.0, "degenerate sample still carries uncertainty");
        // nothing at risk (all censored before t): NaN marker, no interval
        let none = Estimate::proportion(0, 0, 0.95);
        assert!(none.value.is_nan());
        assert_eq!(none.ci, None);
        // interior proportion: interval brackets the value inside [0, 1]
        let mid = Estimate::proportion(3, 4, 0.99);
        let (lo, hi) = mid.ci.unwrap();
        assert!(lo < mid.value && mid.value < hi);
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }

    #[test]
    fn survival_estimates_respect_censoring() {
        // failure at 5, censored at 10
        let events = [(5.0, false), (10.0, true)];
        let s = survival_estimates(&events, &[0.0, 7.0, 20.0], 0.95);
        assert_eq!(s[0].1.value, 1.0);
        assert_eq!(s[1].1.value, 0.5);
        // past the censoring time the at-risk set holds only failures — a
        // raw proportion would report 0.0 when the true survival could be
        // anything; the point must be marked not estimable instead
        assert!(s[2].1.value.is_nan());
        assert_eq!(s[2].1.ci, None);
        // all censored before t: not estimable either
        let gone = survival_estimates(&[(1.0, true)], &[2.0], 0.95);
        assert!(gone[0].1.value.is_nan());
    }

    #[test]
    fn streaming_survival_matches_batch_estimator() {
        let events = [(5.0, false), (10.0, true), (3.0, false), (10.0, true)];
        let grid = [0.0, 4.0, 7.0, 20.0];
        let mut acc = SurvivalAccumulator::new(&grid);
        for &(t, c) in &events {
            acc.push(t, c);
        }
        let batch = survival_estimates(&events, &grid, 0.95);
        let streaming = survival_estimates_streaming(&acc, 0.95);
        assert_eq!(batch.len(), streaming.len());
        for ((t1, a), (t2, b)) in batch.iter().zip(&streaming) {
            assert_eq!(t1, t2);
            assert!(a.value.is_nan() == b.value.is_nan());
            if !a.value.is_nan() {
                assert_eq!(a, b);
            }
            assert_eq!(a.ci, b.ci);
        }
    }

    fn sample_report() -> RunReport {
        RunReport {
            scenario: "s".into(),
            backend: BackendKind::Exact,
            mttsf: Estimate::exact(100.0),
            c_total: Estimate {
                value: 5.0,
                ci: Some((4.0, 6.0)),
            },
            cost_components: Some(CostBreakdown {
                group_comm: 1.0,
                status: 2.0,
                rekey: 3.0,
                ids: 4.0,
                beacon: 5.0,
                partition_merge: 6.0,
            }),
            failure: FailureSplit {
                p_c1: 0.7,
                p_c2: 0.3,
                p_other: 0.0,
            },
            state_count: Some(10),
            edge_count: Some(20),
            lumping_reduction: Some(4.5),
            replications: None,
            censored: None,
            zero_duration: None,
            target_met: None,
            survival: Some(vec![
                (0.0, Estimate::exact(1.0)),
                (50.0, Estimate::exact(0.5)),
            ]),
            wall_seconds: 0.5,
            template_cache: None,
            transient: None,
            detection: None,
        }
    }

    #[test]
    fn report_serializes() {
        let text = sample_report().to_json();
        assert!(text.contains("\"backend\":\"exact\""));
        assert!(text.contains("\"ci_lo\":4.0"));
        assert!(text.contains("\"survival\":[{"));
        assert!(text.contains("\"partition_merge\":6.0"));
        assert!(crate::json::Value::parse(&text).is_ok());
    }

    #[test]
    fn report_json_roundtrip_is_lossless() {
        let r = sample_report();
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        // and a stochastic-shaped report with intervals on survival points
        let mut s = sample_report();
        s.backend = BackendKind::Des;
        s.cost_components = None;
        s.state_count = None;
        s.edge_count = None;
        s.lumping_reduction = None;
        s.replications = Some(40);
        s.censored = Some(3);
        s.zero_duration = Some(1);
        s.target_met = Some(true);
        s.survival = Some(vec![
            (0.0, Estimate::proportion(40, 40, 0.95)),
            (9.0, Estimate::proportion(21, 40, 0.95)),
        ]);
        let back = RunReport::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn template_cache_field_is_omitted_when_absent_and_roundtrips_when_set() {
        let plain = sample_report();
        assert!(!plain.to_json().contains("template_cache"));

        let mut cached = sample_report();
        cached.template_cache = Some(TemplateCacheInfo {
            outcome: CacheOutcome::Hit,
            hits: 9,
            misses: 3,
            evictions: 1,
            bypasses: 2,
            entries: 2,
            cached_states: 1234,
        });
        let text = cached.to_json();
        assert!(text.contains("\"template_cache\":{"));
        assert!(text.contains("\"outcome\":\"hit\""));
        let back = RunReport::from_json(&text).unwrap();
        assert_eq!(back, cached);
        // stripping the field restores the plain byte encoding
        let mut stripped = back;
        stripped.template_cache = None;
        assert_eq!(stripped.to_json(), plain.to_json());
    }

    #[test]
    fn detection_field_is_omitted_when_absent_and_roundtrips_when_set() {
        let plain = sample_report();
        assert!(!plain.to_json().contains("\"detection\""));

        let mut r = sample_report();
        r.detection = Some(DetectionInfo {
            compromises: Estimate {
                value: 3.2,
                ci: Some((2.9, 3.5)),
            },
            detections: Estimate {
                value: 2.1,
                ci: Some((1.8, 2.4)),
            },
            false_alarms: Estimate {
                value: 0.4,
                ci: Some((0.2, 0.6)),
            },
            fp_rate: 0.16,
            fn_rate: 0.34,
            lead_time: Estimate {
                value: 812.0,
                ci: Some((700.0, 924.0)),
            },
            lead_time_observations: 37,
        });
        let text = r.to_json();
        assert!(text.contains("\"detection\":{"));
        assert!(text.contains("\"lead_time_observations\":37.0"));
        let back = RunReport::from_json(&text).unwrap();
        assert_eq!(back, r);
        // stripping the field restores the plain byte encoding
        let mut stripped = back;
        stripped.detection = None;
        assert_eq!(stripped.to_json(), plain.to_json());
    }

    #[test]
    fn non_estimable_detection_metrics_encode_as_null_not_nan() {
        // a run where nothing was ever compromised: every detection metric
        // that divides by zero is the NaN marker, which must serialize as
        // null (valid JSON) and come back as NaN
        let mut r = sample_report();
        r.detection = Some(DetectionInfo {
            compromises: Estimate::exact(0.0),
            detections: Estimate::exact(0.0),
            false_alarms: Estimate::exact(0.0),
            fp_rate: f64::NAN,
            fn_rate: f64::NAN,
            lead_time: Estimate {
                value: f64::NAN,
                ci: None,
            },
            lead_time_observations: 0,
        });
        let text = r.to_json();
        assert!(!text.contains("NaN"), "NaN is not valid JSON: {text}");
        assert!(text.contains("\"fp_rate\":null"));
        assert!(text.contains("\"fn_rate\":null"));
        assert!(text.contains("\"lead_time\":{\"value\":null}"));
        let back = RunReport::from_json(&text).unwrap();
        let d = back.detection.unwrap();
        assert!(d.fp_rate.is_nan());
        assert!(d.fn_rate.is_nan());
        assert!(d.lead_time.value.is_nan());
        assert_eq!(d.lead_time_observations, 0);
        // canonical: re-encoding is byte-identical
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn non_estimable_survival_encodes_as_null_and_survives_roundtrip() {
        let mut r = sample_report();
        r.survival = Some(vec![(3.0, Estimate::proportion(0, 0, 0.95))]);
        r.mttsf = Estimate {
            value: f64::NAN,
            ci: None,
        };
        let text = r.to_json();
        assert!(text.contains("\"survival\":[{\"t\":3.0,\"value\":null}]"));
        assert!(text.contains("\"mttsf\":{\"value\":null}"));
        let back = RunReport::from_json(&text).unwrap();
        assert!(back.mttsf.value.is_nan());
        let surv = back.survival.unwrap();
        assert_eq!(surv[0].0, 3.0);
        assert!(surv[0].1.value.is_nan());
        // the re-encoding is byte-identical (canonical form)
        let again = RunReport::from_json(&text).unwrap().to_json();
        assert_eq!(again, text);
    }
}
