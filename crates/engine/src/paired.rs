//! CRN-paired A/B comparison of two scenario specs.
//!
//! Both arms run the same fixed replication grid under the same master
//! seed: replication `i` of either arm uses `child_seed(master_seed, i)`,
//! so the arms are coupled by common random numbers. [`compare`]
//! differences each replication pair *before* aggregating, which cancels
//! the shared sampling noise — the paired confidence interval on a delta
//! is typically far tighter than the interval obtained by differencing
//! two independently-estimated arms at the same replication budget
//! (`ComparisonReport` carries both half-widths so the gain is visible
//! in every report).
//!
//! The degenerate self-comparison is exact: a spec compared against an
//! identical spec produces per-replication deltas of bitwise `0.0` and a
//! `(0.0, 0.0)` interval on every metric, on every stochastic backend.

use crate::backend::{per_replication_outcomes, Rep, RunBudget};
use crate::error::EngineError;
use crate::json::Value;
use crate::report::{est_from_value, est_to_value, num, Estimate};
use crate::spec::{BackendKind, SamplingPlan, ScenarioSpec};
use gcsids::des::FailureCause;
use numerics::stats::Welford;

/// A paired delta estimate (`variant − baseline`) for one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaEstimate {
    /// Mean per-pair delta with its *paired* confidence interval.
    pub delta: Estimate,
    /// Half-width of the paired interval (`NaN` below two pairs).
    pub paired_halfwidth: f64,
    /// Half-width the same budget would have bought without pairing:
    /// per-arm intervals differenced in quadrature,
    /// `sqrt(h_baseline² + h_variant²)` (`NaN` below two observations on
    /// either arm).
    pub unpaired_halfwidth: f64,
    /// Replication pairs contributing to this metric.
    pub observations: u64,
}

/// The outcome of a paired comparison. Contains no wall-clock timing, so
/// a report is a pure function of the two specs — byte-stable goldens.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonReport {
    /// Baseline arm's scenario name.
    pub baseline: String,
    /// Variant arm's scenario name.
    pub variant: String,
    /// The (shared) stochastic backend both arms ran on.
    pub backend: BackendKind,
    /// Replication pairs executed.
    pub replications: u64,
    /// Confidence level of every interval below.
    pub confidence: f64,
    /// ΔMTTSF over pairs where both arms observed a failure.
    pub delta_mttsf: DeltaEstimate,
    /// Δ mean cost rate over pairs where both arms observed positive
    /// duration.
    pub delta_cost: DeltaEstimate,
    /// Δ mission survival (indicator differences) per mission time;
    /// absent when the specs carry no mission grid.
    pub delta_survival: Option<Vec<(f64, DeltaEstimate)>>,
    /// Largest per-pair `|Δ failure time|` — a coupling diagnostic: 0.0
    /// certifies bitwise-identical trajectories (self-comparison).
    pub max_abs_delta_time: f64,
    /// Largest per-pair `|Δ cost rate|` over pairs with positive duration.
    pub max_abs_delta_cost: f64,
}

fn arm_halfwidth(w: &Welford, confidence: f64) -> f64 {
    if w.count() < 2 {
        f64::NAN
    } else {
        w.confidence_interval(confidence).half_width
    }
}

fn delta_estimate(d: &Welford, base: &Welford, var: &Welford, confidence: f64) -> DeltaEstimate {
    let delta = Estimate::from_welford(d, confidence);
    let paired_halfwidth = match delta.ci {
        Some((lo, hi)) => (hi - lo) / 2.0,
        None => f64::NAN,
    };
    let hb = arm_halfwidth(base, confidence);
    let hv = arm_halfwidth(var, confidence);
    DeltaEstimate {
        delta,
        paired_halfwidth,
        unpaired_halfwidth: (hb * hb + hv * hv).sqrt(),
        observations: d.count(),
    }
}

/// Paired Welford plus the two per-arm Welfords it is compared against.
#[derive(Clone)]
struct PairedMoments {
    delta: Welford,
    base: Welford,
    var: Welford,
}

impl PairedMoments {
    fn new() -> Self {
        Self {
            delta: Welford::new(),
            base: Welford::new(),
            var: Welford::new(),
        }
    }

    fn push(&mut self, b: f64, v: f64) {
        self.delta.push(v - b);
        self.base.push(b);
        self.var.push(v);
    }

    fn estimate(&self, confidence: f64) -> DeltaEstimate {
        delta_estimate(&self.delta, &self.base, &self.var, confidence)
    }
}

/// Did this replication survive mission time `t`? Censored runs reached
/// the horizon (validation keeps every grid point at or below it).
fn survives(r: &Rep, t: f64) -> bool {
    r.cause == FailureCause::Censored || r.time > t
}

fn uncensored(r: &Rep) -> bool {
    r.cause != FailureCause::Censored && r.time > 0.0
}

/// Compare `variant` against `baseline` with common random numbers.
///
/// Both specs must use the same stochastic backend, identical stochastic
/// options (master seed, horizon, confidence, sampling plan) and mission
/// grids, and a [`SamplingPlan::Fixed`] plan — pairing needs a
/// replication grid known up front, not an adaptive stopping rule. The
/// per-pair delta convention is `variant − baseline` throughout.
///
/// # Errors
/// [`EngineError::InvalidSpec`] when either spec is invalid or the pair
/// violates the contract above; [`EngineError::Solver`] when a
/// replication fails.
pub fn compare(
    baseline: &ScenarioSpec,
    variant: &ScenarioSpec,
    budget: &RunBudget,
) -> Result<ComparisonReport, EngineError> {
    baseline.validate()?;
    variant.validate()?;
    if baseline.backend == BackendKind::Exact {
        return Err(EngineError::InvalidSpec(
            "paired comparison requires a stochastic backend — the exact solver has no \
             replications to pair (its outputs can be differenced directly)"
                .into(),
        ));
    }
    if baseline.backend != variant.backend {
        return Err(EngineError::InvalidSpec(format!(
            "paired comparison requires one backend on both arms, got {} vs {}",
            baseline.backend.name(),
            variant.backend.name()
        )));
    }
    if baseline.stochastic != variant.stochastic {
        return Err(EngineError::InvalidSpec(
            "paired comparison requires identical stochastic options on both arms \
             (master seed, horizon, confidence, sampling plan)"
                .into(),
        ));
    }
    if baseline.mission_times != variant.mission_times {
        return Err(EngineError::InvalidSpec(
            "paired comparison requires identical mission grids on both arms".into(),
        ));
    }
    let plan = baseline.stochastic.sampling;
    let plan = budget.max_replications.map_or(plan, |cap| plan.capped(cap));
    plan.validate().map_err(EngineError::InvalidSpec)?;
    let SamplingPlan::Fixed(n) = plan else {
        return Err(EngineError::InvalidSpec(
            "paired comparison runs a fixed replication grid — use a Fixed sampling plan".into(),
        ));
    };
    let reps_b = per_replication_outcomes(baseline, n)?;
    let reps_v = per_replication_outcomes(variant, n)?;

    let confidence = baseline.stochastic.confidence;
    let grid = &baseline.mission_times;
    let mut mttsf = PairedMoments::new();
    let mut cost = PairedMoments::new();
    let mut survival: Vec<PairedMoments> = grid.iter().map(|_| PairedMoments::new()).collect();
    let mut max_abs_delta_time: f64 = 0.0;
    let mut max_abs_delta_cost: f64 = 0.0;
    for (rb, rv) in reps_b.iter().zip(&reps_v) {
        max_abs_delta_time = max_abs_delta_time.max((rv.time - rb.time).abs());
        if uncensored(rb) && uncensored(rv) {
            mttsf.push(rb.time, rv.time);
        }
        if rb.time > 0.0 && rv.time > 0.0 {
            cost.push(rb.cost_rate(), rv.cost_rate());
            max_abs_delta_cost = max_abs_delta_cost.max((rv.cost_rate() - rb.cost_rate()).abs());
        }
        for (acc, &t) in survival.iter_mut().zip(grid) {
            acc.push(
                f64::from(u8::from(survives(rb, t))),
                f64::from(u8::from(survives(rv, t))),
            );
        }
    }

    Ok(ComparisonReport {
        baseline: baseline.name.clone(),
        variant: variant.name.clone(),
        backend: baseline.backend,
        replications: n,
        confidence,
        delta_mttsf: mttsf.estimate(confidence),
        delta_cost: cost.estimate(confidence),
        delta_survival: (!grid.is_empty()).then(|| {
            grid.iter()
                .copied()
                .zip(survival.iter().map(|m| m.estimate(confidence)))
                .collect()
        }),
        max_abs_delta_time,
        max_abs_delta_cost,
    })
}

fn delta_to_value(d: &DeltaEstimate) -> Value {
    Value::obj([
        ("delta", est_to_value(&d.delta)),
        ("paired_halfwidth", num(d.paired_halfwidth)),
        ("unpaired_halfwidth", num(d.unpaired_halfwidth)),
        ("observations", Value::Num(d.observations as f64)),
    ])
}

fn delta_from_value(v: &Value) -> Result<DeltaEstimate, EngineError> {
    let halfwidth = |name: &str| -> Result<f64, EngineError> {
        match v.field(name)? {
            Value::Null => Ok(f64::NAN),
            other => other.as_f64(),
        }
    };
    Ok(DeltaEstimate {
        delta: est_from_value(v.field("delta")?)?,
        paired_halfwidth: halfwidth("paired_halfwidth")?,
        unpaired_halfwidth: halfwidth("unpaired_halfwidth")?,
        observations: v.field("observations")?.as_u64()?,
    })
}

impl ComparisonReport {
    /// Canonical JSON encoding (sorted keys, NaN as null, no
    /// wall-clock timing — byte-stable for goldens).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("backend", Value::Str(self.backend.name().to_string())),
            ("baseline", Value::Str(self.baseline.clone())),
            ("confidence", Value::Num(self.confidence)),
            ("delta_cost", delta_to_value(&self.delta_cost)),
            ("delta_mttsf", delta_to_value(&self.delta_mttsf)),
            ("max_abs_delta_cost", num(self.max_abs_delta_cost)),
            ("max_abs_delta_time", num(self.max_abs_delta_time)),
            ("replications", Value::Num(self.replications as f64)),
            ("variant", Value::Str(self.variant.clone())),
        ];
        if let Some(surv) = &self.delta_survival {
            let rows = surv
                .iter()
                .map(|(t, d)| Value::Arr(vec![Value::Num(*t), delta_to_value(d)]))
                .collect();
            fields.push(("delta_survival", Value::Arr(rows)));
        }
        Value::obj(fields).encode()
    }

    /// Decode a report encoded by [`ComparisonReport::to_json`].
    ///
    /// # Errors
    /// [`EngineError::Json`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, EngineError> {
        let v = Value::parse(text)?;
        let delta_survival = match v.opt_field("delta_survival") {
            None => None,
            Some(arr) => Some(
                arr.as_arr()?
                    .iter()
                    .map(|row| {
                        let row = row.as_arr()?;
                        if row.len() != 2 {
                            return Err(EngineError::Json(
                                "delta_survival rows are [time, delta] pairs".into(),
                            ));
                        }
                        Ok((row[0].as_f64()?, delta_from_value(&row[1])?))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        Ok(Self {
            baseline: v.field("baseline")?.as_str()?.to_string(),
            variant: v.field("variant")?.as_str()?.to_string(),
            backend: BackendKind::from_name(v.field("backend")?.as_str()?)?,
            replications: v.field("replications")?.as_u64()?,
            confidence: v.field("confidence")?.as_f64()?,
            delta_mttsf: delta_from_value(v.field("delta_mttsf")?)?,
            delta_cost: delta_from_value(v.field("delta_cost")?)?,
            delta_survival,
            max_abs_delta_time: v.field("max_abs_delta_time")?.as_f64()?,
            max_abs_delta_cost: v.field("max_abs_delta_cost")?.as_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcsids::config::SystemConfig;
    use scenario::{AttackerStrategy, ScenarioConfig};

    fn hot_pair(backend: BackendKind, n: u64) -> (ScenarioSpec, ScenarioSpec) {
        let mut sys = SystemConfig::paper_default();
        sys.node_count = 12;
        sys.vote_participants = 3;
        sys.attacker.base_rate = 1.0 / 600.0;
        sys.detection = sys.detection.with_interval(120.0);
        let mut base = ScenarioSpec::paper_default(backend);
        base.name = format!("ab-base/{}", backend.name());
        base.system = sys;
        base.stochastic.sampling = SamplingPlan::Fixed(n);
        base.stochastic.max_time = 200_000.0;
        base.mobility.dt = 2.0;
        base.mission_times = vec![0.0, 2_000.0, 20_000.0];
        let mut variant = base.clone();
        variant.name = format!("ab-burst/{}", backend.name());
        variant.scenario = Some(ScenarioConfig {
            attacker: AttackerStrategy::Burst {
                on_rate: 1.0 / 5_000.0,
                off_rate: 1.0 / 5_000.0,
                multiplier: 6.0,
            },
            response: scenario::ResponsePolicy::Evict,
        });
        (base, variant)
    }

    #[test]
    fn self_comparison_is_exactly_zero_on_every_stochastic_backend() {
        for kind in [
            BackendKind::SpnSim,
            BackendKind::Des,
            BackendKind::MobilityDes,
        ] {
            let (base, _) = hot_pair(kind, 30);
            let r = compare(&base, &base, &RunBudget::default()).unwrap();
            assert_eq!(r.max_abs_delta_time, 0.0, "{kind:?}");
            assert_eq!(r.max_abs_delta_cost, 0.0, "{kind:?}");
            assert_eq!(r.delta_mttsf.delta.value, 0.0, "{kind:?}");
            assert_eq!(r.delta_cost.delta.value, 0.0, "{kind:?}");
            assert_eq!(r.delta_mttsf.delta.ci, Some((0.0, 0.0)), "{kind:?}");
            for (_, d) in r.delta_survival.as_ref().unwrap() {
                assert_eq!(d.delta.value, 0.0, "{kind:?}");
            }
        }
    }

    #[test]
    fn paired_interval_is_tighter_than_unpaired_on_a_real_variant() {
        let (base, variant) = hot_pair(BackendKind::Des, 200);
        let r = compare(&base, &variant, &RunBudget::default()).unwrap();
        // burst attacker strictly shortens survival on average
        assert!(
            r.delta_mttsf.delta.value < 0.0,
            "ΔMTTSF = {:?}",
            r.delta_mttsf.delta
        );
        assert!(
            r.delta_mttsf.paired_halfwidth < r.delta_mttsf.unpaired_halfwidth,
            "paired {} vs unpaired {}",
            r.delta_mttsf.paired_halfwidth,
            r.delta_mttsf.unpaired_halfwidth
        );
        assert!(r.delta_cost.paired_halfwidth < r.delta_cost.unpaired_halfwidth);
    }

    #[test]
    fn comparison_report_roundtrips_through_json() {
        let (base, variant) = hot_pair(BackendKind::Des, 40);
        let r = compare(&base, &variant, &RunBudget::default()).unwrap();
        let text = r.to_json();
        let back = ComparisonReport::from_json(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn comparison_is_deterministic() {
        let (base, variant) = hot_pair(BackendKind::SpnSim, 25);
        let a = compare(&base, &variant, &RunBudget::default()).unwrap();
        let b = compare(&base, &variant, &RunBudget::default()).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn mismatched_arms_are_rejected_with_named_errors() {
        let (base, variant) = hot_pair(BackendKind::Des, 20);
        // exact backend has nothing to pair
        let (eb, ev) = hot_pair(BackendKind::Exact, 20);
        let out = compare(&eb, &ev, &RunBudget::default());
        assert!(matches!(out, Err(EngineError::InvalidSpec(ref m)) if m.contains("stochastic")));
        // backend mismatch
        let mut other = variant.clone();
        other.backend = BackendKind::SpnSim;
        let out = compare(&base, &other, &RunBudget::default());
        assert!(matches!(out, Err(EngineError::InvalidSpec(ref m)) if m.contains("backend")));
        // seed mismatch breaks the pairing contract
        let mut reseeded = variant.clone();
        reseeded.stochastic.master_seed ^= 1;
        let out = compare(&base, &reseeded, &RunBudget::default());
        assert!(matches!(out, Err(EngineError::InvalidSpec(ref m)) if m.contains("stochastic")));
        // mission grid mismatch
        let mut grid = variant.clone();
        grid.mission_times = vec![0.0];
        let out = compare(&base, &grid, &RunBudget::default());
        assert!(matches!(out, Err(EngineError::InvalidSpec(ref m)) if m.contains("mission")));
        // adaptive plans have no fixed grid to pair on
        let mut adaptive_b = base.clone();
        let mut adaptive_v = variant.clone();
        let plan = SamplingPlan::Adaptive {
            target_rel_halfwidth: 0.1,
            min: 10,
            max: 100,
            batch: 10,
        };
        adaptive_b.stochastic.sampling = plan;
        adaptive_v.stochastic.sampling = plan;
        let out = compare(&adaptive_b, &adaptive_v, &RunBudget::default());
        assert!(matches!(out, Err(EngineError::InvalidSpec(ref m)) if m.contains("Fixed")));
    }

    #[test]
    fn budget_caps_the_replication_grid() {
        let (base, variant) = hot_pair(BackendKind::Des, 100);
        let budget = RunBudget {
            max_replications: Some(10),
            ..Default::default()
        };
        let r = compare(&base, &variant, &budget).unwrap();
        assert_eq!(r.replications, 10);
    }

    #[test]
    fn paired_deltas_match_manual_differencing_of_backend_runs() {
        // The arms must see exactly the replications a plain Backend::run
        // of each spec would aggregate: check the paired ΔMTTSF mean
        // against the difference of per-arm means restricted to the
        // both-uncensored pair set — on a spec pair with no censoring
        // that is just the difference of the two reported MTTSF means.
        let (base, variant) = hot_pair(BackendKind::Des, 120);
        let r = compare(&base, &variant, &RunBudget::default()).unwrap();
        let rb = crate::backend::backend_for(BackendKind::Des)
            .run(&base, &RunBudget::default())
            .unwrap();
        let rv = crate::backend::backend_for(BackendKind::Des)
            .run(&variant, &RunBudget::default())
            .unwrap();
        if rb.censored == Some(0) && rv.censored == Some(0) {
            let manual = rv.mttsf.value - rb.mttsf.value;
            assert!(
                (r.delta_mttsf.delta.value - manual).abs() < 1e-9,
                "paired {} vs manual {}",
                r.delta_mttsf.delta.value,
                manual
            );
        }
    }
}
