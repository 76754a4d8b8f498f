//! Cross-backend validation: make the evaluators check each other.
//!
//! One scenario is run on the exact backend and on every applicable
//! stochastic backend, then compared metric-by-metric: MTTSF and Ĉtotal
//! (when the stochastic run observed uncensored failures), the failure
//! split `p_c1` (the C1 share of uncensored security failures, with
//! Wilson bounds widened over the censored runs' unknown causes and no
//! modeling tolerance) and every mission-grid survival point. A stochastic estimate *agrees* with the exact value when
//! the exact value lies inside its confidence interval (level configurable
//! via [`CrossValOptions::confidence`] — the "z" knob) or, failing that,
//! when the discrepancy is inside an explicit modeling tolerance (the
//! protocol DES executes real votes rather than the analytic `Pfn`/`Pfp`,
//! so a small systematic gap is expected; [`CrossValOptions::mttsf_rel_tol`]
//! bounds it).
//!
//! [`cross_validate_dir`] is the batch entry point behind the `runner`
//! binary: it loads every `*.json` [`ScenarioSpec`] in a directory,
//! cross-validates each, and produces one machine-readable
//! [`CrossValReport`] with per-point deltas and the worst offender.

use crate::backend::{backend_for, RunBudget};
use crate::error::EngineError;
use crate::json::Value;
use crate::report::{Estimate, RunReport};
use crate::runner::Runner;
use crate::spec::{BackendKind, ScenarioSpec};
use numerics::stats::proportion_ci;
use std::path::{Path, PathBuf};

/// Agreement-check configuration.
#[derive(Debug, Clone)]
pub struct CrossValOptions {
    /// Confidence level for the stochastic intervals used in containment
    /// checks (overrides each spec's own level, so one z applies across
    /// the whole run).
    pub confidence: f64,
    /// Relative modeling tolerance for MTTSF: a stochastic mean within
    /// this fraction of the exact value agrees even when the CI (which
    /// shrinks without bound with replications) excludes it.
    pub mttsf_rel_tol: f64,
    /// Absolute modeling tolerance for survival probabilities.
    pub survival_abs_tol: f64,
    /// Relative modeling tolerance for Ĉtotal. Deliberately loose: cost
    /// accounting differs structurally between the evaluators (event-level
    /// GDH charges and per-group vote floods vs state-averaged rates), so
    /// this guards against gross regressions — same ballpark, not
    /// statistical identity.
    pub cost_rel_tol: f64,
    /// Optional tighter acceptance criterion on the survival curve: the
    /// maximum absolute survival discrepancy over the mission grid,
    /// `sup_t |S_stochastic(t) − S_exact(t)|`, must stay at or below this
    /// bound. Unlike the per-point check (which passes whenever the exact
    /// value sits inside the per-point CI), this bounds the *worst* grid
    /// point with no statistical slack — `None` (the default) reports the
    /// sup without enforcing it.
    pub survival_sup_tol: Option<f64>,
    /// Resource budget applied to every run (cap replications here for
    /// quick CI sweeps).
    pub budget: RunBudget,
    /// Include the mobility-integrated DES. Off by default: it is by far
    /// the slowest backend and its group dynamics come from live
    /// connectivity rather than the calibrated birth–death rates, so it is
    /// only comparable when the spec's rates match its geometry.
    pub include_mobility: bool,
}

impl Default for CrossValOptions {
    fn default() -> Self {
        Self {
            confidence: 0.99,
            mttsf_rel_tol: 0.20,
            survival_abs_tol: 0.05,
            cost_rel_tol: 1.0,
            survival_sup_tol: None,
            budget: RunBudget::default(),
            include_mobility: false,
        }
    }
}

impl CrossValOptions {
    /// The stochastic backends a spec is checked against.
    pub fn applicable_backends(&self) -> Vec<BackendKind> {
        let mut kinds = vec![BackendKind::SpnSim, BackendKind::Des];
        if self.include_mobility {
            kinds.push(BackendKind::MobilityDes);
        }
        kinds
    }
}

/// One exact-vs-stochastic comparison of a single metric.
#[derive(Debug, Clone)]
pub struct MetricCheck {
    /// Metric label (`mttsf`, `c_total`, `p_c1` or `survival@<t>`).
    pub metric: String,
    /// The exact backend's value.
    pub exact: f64,
    /// The stochastic backend's estimate (with interval).
    pub estimate: Estimate,
    /// Signed estimate − exact.
    pub delta: f64,
    /// `delta` relative to the exact value (absolute delta for survival
    /// probabilities, whose natural scale is already [0, 1]).
    pub discrepancy: f64,
    /// True when the exact value lies inside the stochastic interval.
    pub inside_ci: bool,
    /// True when the check passes (inside the CI or within the modeling
    /// tolerance).
    pub agrees: bool,
}

impl MetricCheck {
    fn new(metric: String, exact: f64, estimate: Estimate, tol: f64, relative: bool) -> Self {
        let inside_ci = estimate
            .ci
            .is_some_and(|(lo, hi)| lo <= exact && exact <= hi);
        let delta = estimate.value - exact;
        let discrepancy = if relative {
            delta.abs() / exact.abs().max(f64::MIN_POSITIVE)
        } else {
            delta.abs()
        };
        Self {
            metric,
            exact,
            estimate,
            delta,
            discrepancy,
            inside_ci,
            agrees: inside_ci || discrepancy <= tol,
        }
    }

    fn to_value(&self) -> Value {
        let num = crate::report::num;
        // An absent interval encodes as explicit nulls — never a NaN pair
        // that could leak into downstream comparisons.
        let (ci_lo, ci_hi) = match self.estimate.ci {
            Some((lo, hi)) => (num(lo), num(hi)),
            None => (Value::Null, Value::Null),
        };
        Value::obj([
            ("metric", Value::Str(self.metric.clone())),
            ("exact", num(self.exact)),
            ("estimate", num(self.estimate.value)),
            ("ci_lo", ci_lo),
            ("ci_hi", ci_hi),
            ("delta", num(self.delta)),
            ("discrepancy", num(self.discrepancy)),
            ("inside_ci", Value::Bool(self.inside_ci)),
            ("agrees", Value::Bool(self.agrees)),
        ])
    }
}

/// All checks of one stochastic backend against the exact reference.
#[derive(Debug, Clone)]
pub struct BackendComparison {
    /// The stochastic backend under test.
    pub backend: BackendKind,
    /// Its full report (for downstream tooling).
    pub report: RunReport,
    /// Per-metric checks.
    pub checks: Vec<MetricCheck>,
    /// Metrics that could not be compared (not estimable: censored MTTSF,
    /// grid points past the horizon) — reported, never silently dropped.
    pub skipped: Vec<String>,
    /// `sup_t |ΔS|`: the largest absolute survival discrepancy over the
    /// comparable mission-grid points (`None` when no point was
    /// comparable). Always reported; additionally enforced as a check
    /// when [`CrossValOptions::survival_sup_tol`] is set.
    pub survival_sup_delta: Option<f64>,
    /// True when every comparable metric agrees.
    pub agrees: bool,
}

/// Cross-validation verdict for one scenario.
#[derive(Debug, Clone)]
pub struct SpecCrossValidation {
    /// Scenario label.
    pub name: String,
    /// The exact reference report.
    pub exact: RunReport,
    /// One comparison per applicable stochastic backend.
    pub comparisons: Vec<BackendComparison>,
    /// True when every backend agrees.
    pub agrees: bool,
}

/// One spec that could not be loaded or evaluated. Failures are isolated
/// per spec — they never abort the rest of a directory run — and carried
/// in the report so a nonzero exit code can name every offender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecFailure {
    /// The offending spec: its file path (load failures) or scenario
    /// name (evaluation failures).
    pub spec: String,
    /// Human-readable error.
    pub error: String,
}

impl SpecFailure {
    fn to_value(&self) -> Value {
        Value::obj([
            ("spec", Value::Str(self.spec.clone())),
            ("error", Value::Str(self.error.clone())),
        ])
    }
}

/// The aggregate agreement report over a batch of scenarios.
#[derive(Debug, Clone, Default)]
pub struct CrossValReport {
    /// Per-scenario verdicts.
    pub specs: Vec<SpecCrossValidation>,
    /// Specs that failed to load or evaluate (isolated, not aborting).
    pub failures: Vec<SpecFailure>,
}

impl CrossValReport {
    /// True when every scenario agrees on every backend.
    pub fn agrees(&self) -> bool {
        self.specs.iter().all(|s| s.agrees)
    }

    /// True when every spec in the run loaded and evaluated. A run can
    /// [`CrossValReport::agrees`] on the specs it did validate and still
    /// be unclean — callers gating on success must check both.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// The check with the largest discrepancy across the whole run, as
    /// `(scenario, backend, check)` — the first thing to look at when a
    /// sweep disagrees.
    ///
    /// A `NaN` discrepancy (a non-finite exact value or estimate slipping
    /// through to a comparison) ranks **strictly worst**: it signals a
    /// broken comparison, which matters more than any finite gap, and it
    /// must never hide a real offender by sorting as "equal". `total_cmp`
    /// gives exactly that order (`discrepancy` comes from `abs()`, so a
    /// NaN here is always positive and sorts above `+inf`).
    pub fn worst_offender(&self) -> Option<(&str, BackendKind, &MetricCheck)> {
        self.specs
            .iter()
            .flat_map(|s| {
                s.comparisons.iter().flat_map(move |c| {
                    c.checks
                        .iter()
                        .map(move |ch| (s.name.as_str(), c.backend, ch))
                })
            })
            .max_by(|a, b| a.2.discrepancy.total_cmp(&b.2.discrepancy))
    }

    /// Machine-readable JSON for logs and CI artifacts.
    pub fn to_json(&self) -> String {
        let specs = self
            .specs
            .iter()
            .map(|s| {
                let comparisons = s
                    .comparisons
                    .iter()
                    .map(|c| {
                        Value::obj([
                            ("backend", Value::Str(c.backend.name().into())),
                            (
                                "checks",
                                Value::Arr(c.checks.iter().map(MetricCheck::to_value).collect()),
                            ),
                            (
                                "skipped",
                                Value::Arr(
                                    c.skipped.iter().map(|m| Value::Str(m.clone())).collect(),
                                ),
                            ),
                            (
                                "survival_sup_delta",
                                c.survival_sup_delta.map_or(Value::Null, crate::report::num),
                            ),
                            ("agrees", Value::Bool(c.agrees)),
                        ])
                    })
                    .collect();
                Value::obj([
                    ("name", Value::Str(s.name.clone())),
                    ("exact_mttsf", Value::Num(s.exact.mttsf.value)),
                    ("comparisons", Value::Arr(comparisons)),
                    ("agrees", Value::Bool(s.agrees)),
                ])
            })
            .collect();
        let worst = self
            .worst_offender()
            .map_or(Value::Null, |(name, kind, ch)| {
                // A NaN discrepancy encodes as null; name it explicitly so
                // the report stays unambiguous (and valid JSON).
                Value::obj([
                    ("scenario", Value::Str(name.into())),
                    ("backend", Value::Str(kind.name().into())),
                    ("metric", Value::Str(ch.metric.clone())),
                    ("discrepancy", crate::report::num(ch.discrepancy)),
                    ("not_a_number", Value::Bool(ch.discrepancy.is_nan())),
                ])
            });
        Value::obj([
            ("specs", Value::Arr(specs)),
            (
                "failures",
                Value::Arr(self.failures.iter().map(SpecFailure::to_value).collect()),
            ),
            ("worst_offender", worst),
            ("agrees", Value::Bool(self.agrees())),
            ("clean", Value::Bool(self.clean())),
        ])
        .encode()
    }
}

/// Compare a stochastic report against the exact reference.
fn compare(exact: &RunReport, stoch: RunReport, opts: &CrossValOptions) -> BackendComparison {
    let mut checks = Vec::new();
    let mut skipped = Vec::new();

    // MTTSF and the time-averaged cost are only unbiased when nothing was
    // censored: a censored mean is conditional on failing within the
    // horizon, systematically off the exact until-absorption quantities.
    // An estimate without a confidence interval (a single uncensored
    // replication) is likewise skipped-and-reported, not checked: with no
    // interval the containment test is meaningless and the raw one-sample
    // discrepancy would fail sound runs (or, before this guard, degrade
    // into NaN-bound comparisons).
    if stoch.censored.unwrap_or(0) > 0 {
        skipped.push("mttsf (censored replications bias the mean)".into());
        skipped.push("c_total (censored replications bias the rate)".into());
    } else if !stoch.mttsf.value.is_finite() {
        skipped.push("mttsf (not estimable)".into());
        skipped.push("c_total (not estimable)".into());
    } else if stoch.mttsf.ci.is_none() || stoch.c_total.ci.is_none() {
        skipped
            .push("mttsf (no confidence interval: fewer than two uncensored replications)".into());
        skipped.push(
            "c_total (no confidence interval: fewer than two uncensored replications)".into(),
        );
    } else {
        checks.push(MetricCheck::new(
            "mttsf".into(),
            exact.mttsf.value,
            stoch.mttsf,
            opts.mttsf_rel_tol,
            true,
        ));
        checks.push(MetricCheck::new(
            "c_total".into(),
            exact.c_total.value,
            stoch.c_total,
            opts.cost_rel_tol,
            true,
        ));
    }

    // The failure split: the C1 share of the uncensored runs that ended
    // in a security failure (attrition is no paper failure mode) against
    // exact P_C1, with Wilson bounds at the harness's confidence and no
    // modeling tolerance. A censored run's cause is unknown, so the
    // interval spans every assignment of those runs to C1 or C2.
    if let (Some(n), Some(censored)) = (stoch.replications, stoch.censored) {
        let ended = n.saturating_sub(censored) as f64;
        let c1 = (stoch.failure.p_c1 * ended).round() as u64;
        let c2 = (stoch.failure.p_c2 * ended).round() as u64;
        let all = c1 + c2 + censored;
        let low = proportion_ci(c1, all, opts.confidence);
        let high = proportion_ci(c1 + censored, all, opts.confidence);
        match (low, high) {
            (Some(low), Some(high)) if c1 + c2 > 0 => {
                let estimate = Estimate {
                    value: c1 as f64 / (c1 + c2) as f64,
                    ci: Some((low.lo(), high.hi())),
                };
                let exact_c1 = exact.failure.p_c1;
                checks.push(MetricCheck::new(
                    "p_c1".into(),
                    exact_c1,
                    estimate,
                    0.0,
                    false,
                ));
            }
            _ => skipped.push("p_c1 (no uncensored security failure)".into()),
        }
    }

    let mut survival_sup_delta: Option<f64> = None;
    match (&exact.survival, &stoch.survival) {
        (Some(exact_points), Some(stoch_points)) => {
            for ((t, e), (_, s)) in exact_points.iter().zip(stoch_points) {
                if !s.value.is_finite() {
                    skipped.push(format!(
                        "survival@{t} (not estimable: censoring before this horizon)"
                    ));
                } else if s.ci.is_none() {
                    skipped.push(format!("survival@{t} (no confidence interval)"));
                } else {
                    let check = MetricCheck::new(
                        format!("survival@{t}"),
                        e.value,
                        *s,
                        opts.survival_abs_tol,
                        false,
                    );
                    let sup = survival_sup_delta.get_or_insert(0.0);
                    *sup = sup.max(check.discrepancy);
                    checks.push(check);
                }
            }
        }
        (None, None) => {}
        _ => skipped.push("survival (grid missing on one side)".into()),
    }

    // The ROADMAP's tighter acceptance criterion: bound the worst grid
    // point, with no per-point CI slack. The sup itself is always carried
    // on the comparison; the check only exists when a bound is requested.
    if let (Some(sup), Some(tol)) = (survival_sup_delta, opts.survival_sup_tol) {
        checks.push(MetricCheck {
            metric: "survival_sup_abs_delta".into(),
            exact: 0.0,
            estimate: Estimate {
                value: sup,
                ci: None,
            },
            delta: sup,
            discrepancy: sup,
            inside_ci: false,
            agrees: sup <= tol,
        });
    }

    // An all-skipped comparison validated nothing — that must read as
    // disagreement, not as a vacuous pass (the skipped list says why).
    let agrees = !checks.is_empty() && checks.iter().all(|c| c.agrees);
    BackendComparison {
        backend: stoch.backend,
        report: stoch,
        checks,
        skipped,
        survival_sup_delta,
        agrees,
    }
}

/// The spec as the harness runs it: exact reference backend, one
/// confidence level across the whole run.
fn harness_base(spec: &ScenarioSpec, opts: &CrossValOptions) -> ScenarioSpec {
    let mut base = spec.clone();
    base.backend = BackendKind::Exact;
    base.stochastic.confidence = opts.confidence;
    base
}

/// Run every applicable stochastic backend against an already-computed
/// exact reference.
fn compare_against(
    base: &ScenarioSpec,
    exact: RunReport,
    opts: &CrossValOptions,
) -> Result<SpecCrossValidation, EngineError> {
    let mut comparisons = Vec::new();
    for kind in opts.applicable_backends() {
        let mut s = base.clone();
        s.backend = kind;
        let report = backend_for(kind).run(&s, &opts.budget)?;
        comparisons.push(compare(&exact, report, opts));
    }
    let agrees = comparisons.iter().all(|c| c.agrees);
    Ok(SpecCrossValidation {
        name: base.name.clone(),
        exact,
        comparisons,
        agrees,
    })
}

/// What [`load_spec_dir_lenient`] yields: the specs that parsed (with
/// their source paths) and the per-file failures.
pub type LenientSpecs = (Vec<(PathBuf, ScenarioSpec)>, Vec<SpecFailure>);

/// Load every `*.json` scenario spec in `dir`, sorted by file name, with
/// per-file error isolation: unreadable or malformed files become
/// [`SpecFailure`]s (the offending path named) instead of aborting the
/// load.
///
/// # Errors
/// Only an unreadable *directory* is fatal.
pub fn load_spec_dir_lenient(dir: &Path) -> Result<LenientSpecs, EngineError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| EngineError::Json(format!("cannot read spec dir {}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut loaded = Vec::new();
    let mut failures = Vec::new();
    for p in paths {
        let outcome = ScenarioSpec::read(&p);
        match outcome {
            Ok(spec) => loaded.push((p, spec)),
            Err(e) => failures.push(SpecFailure {
                spec: p.display().to_string(),
                error: e.to_string(),
            }),
        }
    }
    Ok((loaded, failures))
}

/// Cross-validate every spec file in a directory. The exact references run
/// through the batched [`Runner`], so rate-only spec variants of one
/// structural family share a single state-space exploration.
///
/// Per-spec failures — malformed files, validation errors, evaluation
/// errors — are isolated into [`CrossValReport::failures`] and the rest
/// of the directory still validates; gate on [`CrossValReport::clean`]
/// (the `runner` binary exits nonzero when it is false).
///
/// # Errors
/// An unreadable directory or a directory with no `.json` files at all is
/// an error (a harness that validates nothing should not report success).
pub fn cross_validate_dir(
    dir: &Path,
    opts: &CrossValOptions,
) -> Result<CrossValReport, EngineError> {
    let (loaded, failures) = load_spec_dir_lenient(dir)?;
    if loaded.is_empty() && failures.is_empty() {
        return Err(EngineError::Json(format!(
            "no .json specs found in {}",
            dir.display()
        )));
    }
    let bases: Vec<ScenarioSpec> = loaded
        .iter()
        .map(|(_, spec)| harness_base(spec, opts))
        .collect();
    let exact_results = Runner::with_budget(opts.budget).try_batch(&bases);
    let mut report = CrossValReport {
        specs: Vec::new(),
        failures,
    };
    for ((path, _), (base, exact)) in loaded.iter().zip(bases.iter().zip(exact_results)) {
        match exact.and_then(|e| compare_against(base, e, opts)) {
            Ok(v) => report.specs.push(v),
            Err(e) => report.failures.push(SpecFailure {
                spec: path.display().to_string(),
                error: e.to_string(),
            }),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FailureSplit;
    use crate::spec::SamplingPlan;
    use gcsids::config::SystemConfig;

    /// Cross-validate one scenario: exact reference vs every applicable
    /// stochastic backend, the spec's own `backend` field ignored.
    fn cross_validate(
        spec: &ScenarioSpec,
        opts: &CrossValOptions,
    ) -> Result<SpecCrossValidation, EngineError> {
        let base = harness_base(spec, opts);
        let exact = backend_for(BackendKind::Exact).run(&base, &opts.budget)?;
        compare_against(&base, exact, opts)
    }

    /// Small, fast-failing system mirroring the backend tests.
    fn hot_spec() -> ScenarioSpec {
        let mut sys = SystemConfig::paper_default();
        sys.node_count = 12;
        sys.vote_participants = 3;
        sys.attacker.base_rate = 1.0 / 600.0;
        sys.detection = sys.detection.with_interval(120.0);
        let mut spec = ScenarioSpec::paper_default(BackendKind::Exact);
        spec.name = "crossval-hot".into();
        spec.system = sys;
        spec.stochastic.sampling = SamplingPlan::Fixed(600);
        spec.stochastic.max_time = 1.0e6;
        spec
    }

    #[test]
    fn spn_sim_agrees_with_exact_on_hot_spec() {
        let mut spec = hot_spec();
        spec.mission_times = vec![0.0, 2.0e4, 8.0e4];
        let opts = CrossValOptions::default();
        let out = cross_validate(&spec, &opts).unwrap();
        assert_eq!(out.comparisons.len(), 2);
        let spn = out
            .comparisons
            .iter()
            .find(|c| c.backend == BackendKind::SpnSim)
            .unwrap();
        // the token game simulates the very SPN the exact solver analyses —
        // it must agree outright
        assert!(spn.agrees, "{:#?}", spn.checks);
        // survival at t=0 is comparable and trivially inside the
        // degenerate CI
        let s0 = spn
            .checks
            .iter()
            .find(|c| c.metric == "survival@0")
            .unwrap();
        assert!(s0.inside_ci);
        assert_eq!(out.agrees, out.comparisons.iter().all(|c| c.agrees));
    }

    #[test]
    fn censored_mttsf_is_skipped_not_failed() {
        let mut spec = hot_spec();
        spec.mission_times = vec![0.0, 2.0e3];
        // horizon far below the typical failure time: replications censor
        spec.stochastic.max_time = 5.0e3;
        spec.stochastic.sampling = SamplingPlan::Fixed(60);
        let out = cross_validate(&spec, &CrossValOptions::default()).unwrap();
        for c in &out.comparisons {
            assert!(
                c.skipped.iter().any(|m| m.starts_with("mttsf")),
                "{:?}: {:?}",
                c.backend,
                c.skipped
            );
            // the split still compares: censoring widens its interval
            assert!(c.checks.iter().any(|ch| ch.metric == "p_c1"));
            assert!(c
                .checks
                .iter()
                .all(|ch| ch.metric.starts_with("survival") || ch.metric == "p_c1"));
        }
    }

    /// The failure split is checked with Wilson bounds over the security
    /// failures and no tolerance: attrition stays out of the count,
    /// censored runs widen the interval over their unknown cause, and a
    /// run without a security failure skips the check.
    #[test]
    fn failure_split_is_checked_by_a_wilson_interval() {
        let split = |c1: u64, c2: u64, other: u64, censored: u64, exact_c1: f64| {
            let mut exact = exact_stub();
            exact.failure = FailureSplit {
                p_c1: exact_c1,
                p_c2: 1.0 - exact_c1,
                p_other: 0.0,
            };
            let mut stoch = exact_stub();
            stoch.backend = BackendKind::SpnSim;
            let ended = (c1 + c2 + other) as f64;
            stoch.failure = FailureSplit {
                p_c1: c1 as f64 / ended,
                p_c2: c2 as f64 / ended,
                p_other: other as f64 / ended,
            };
            stoch.replications = Some(c1 + c2 + other + censored);
            stoch.censored = Some(censored);
            compare(&exact, stoch, &CrossValOptions::default())
        };
        let check =
            |out: &BackendComparison| out.checks.iter().find(|c| c.metric == "p_c1").cloned();
        // 10 C1 failures in 120 (the clustered-mission spn-sim golden):
        // the interval holds the composed P_C1 0.108 and excludes 0.334
        let wilson = Estimate::proportion(10, 120, 0.99);
        let inside = check(&split(10, 110, 0, 0, 0.108)).unwrap();
        assert!(inside.inside_ci && inside.agrees);
        assert_eq!(inside.estimate, wilson);
        assert!(!check(&split(10, 110, 0, 0, 0.334)).unwrap().agrees);
        // attrition is not a security failure
        assert_eq!(
            check(&split(10, 110, 7, 0, 0.108)).unwrap().estimate,
            wilson
        );
        // censored runs widen the interval toward both causes
        let widened = check(&split(10, 110, 0, 30, 0.108)).unwrap().estimate;
        let ((lo, hi), (wlo, whi)) = (widened.ci.unwrap(), wilson.ci.unwrap());
        assert!(lo < wlo && hi > whi, "{lo} {hi} vs {wlo} {whi}");
        assert_eq!(widened.value, wilson.value);
        // no security failure at all: skipped and reported
        let out = split(0, 0, 5, 3, 0.1);
        assert!(check(&out).is_none());
        assert!(out.skipped.iter().any(|m| m.starts_with("p_c1")));
    }

    #[test]
    fn report_json_names_worst_offender() {
        let mut spec = hot_spec();
        spec.stochastic.sampling = SamplingPlan::Fixed(80);
        let mut report = CrossValReport::default();
        report
            .specs
            .push(cross_validate(&spec, &CrossValOptions::default()).unwrap());
        let text = report.to_json();
        let v = crate::json::Value::parse(&text).unwrap();
        assert!(v.field("agrees").is_ok());
        assert!(v.field("worst_offender").is_ok());
        let worst = report.worst_offender();
        assert!(worst.is_some());
    }

    fn exact_stub() -> RunReport {
        RunReport {
            scenario: "stub".into(),
            backend: BackendKind::Exact,
            mttsf: Estimate::exact(100.0),
            c_total: Estimate::exact(5.0),
            cost_components: None,
            failure: Default::default(),
            state_count: Some(3),
            edge_count: Some(4),
            lumping_reduction: None,
            replications: None,
            censored: None,
            zero_duration: None,
            target_met: None,
            survival: None,
            wall_seconds: 0.0,
            template_cache: None,
            transient: None,
            detection: None,
        }
    }

    fn check_with_discrepancy(metric: &str, discrepancy: f64) -> MetricCheck {
        MetricCheck {
            metric: metric.into(),
            exact: 1.0,
            estimate: Estimate {
                value: 1.0 + discrepancy,
                ci: Some((0.9, 1.1)),
            },
            delta: discrepancy,
            discrepancy,
            inside_ci: false,
            agrees: false,
        }
    }

    /// Regression: a NaN discrepancy must rank strictly worst — under the
    /// old `partial_cmp(..).unwrap_or(Equal)` ordering it sorted as equal
    /// and could hide the real worst pair (or vanish entirely behind an
    /// `is_finite` filter).
    #[test]
    fn nan_discrepancy_ranks_strictly_worst_and_is_named() {
        let mut report = CrossValReport::default();
        report.specs.push(SpecCrossValidation {
            name: "nan-spec".into(),
            exact: exact_stub(),
            comparisons: vec![BackendComparison {
                backend: BackendKind::Des,
                report: exact_stub(),
                checks: vec![
                    check_with_discrepancy("mttsf", 0.7),
                    check_with_discrepancy("survival@5", f64::NAN),
                    check_with_discrepancy("c_total", 0.2),
                ],
                skipped: Vec::new(),
                survival_sup_delta: None,
                agrees: false,
            }],
            agrees: false,
        });
        let (_, _, worst) = report.worst_offender().unwrap();
        assert_eq!(worst.metric, "survival@5");
        assert!(worst.discrepancy.is_nan());
        // the JSON stays parseable and names the NaN explicitly
        let v = crate::json::Value::parse(&report.to_json()).unwrap();
        let w = v.field("worst_offender").unwrap();
        assert_eq!(w.field("metric").unwrap().as_str().unwrap(), "survival@5");
        assert!(matches!(w.field("discrepancy").unwrap(), Value::Null));
        assert_eq!(
            w.field("not_a_number").unwrap(),
            &Value::Bool(true),
            "NaN must be named, not silently nulled"
        );
        // with only finite checks the flag is false and ordering is by size
        report.specs[0].comparisons[0].checks.remove(1);
        let (_, _, worst) = report.worst_offender().unwrap();
        assert_eq!(worst.metric, "mttsf");
    }

    /// Regression: an estimate without a confidence interval (a single
    /// uncensored replication) must be skipped-and-reported like censored
    /// metrics, not silently checked against a meaningless interval.
    #[test]
    fn ci_less_metrics_are_skipped_and_reported() {
        let exact = exact_stub();
        let mut stoch = exact_stub();
        stoch.backend = BackendKind::Des;
        stoch.mttsf = Estimate {
            value: 90.0,
            ci: None,
        };
        stoch.c_total = Estimate {
            value: 5.0,
            ci: None,
        };
        stoch.replications = Some(1);
        stoch.censored = Some(0);
        let out = compare(&exact, stoch, &CrossValOptions::default());
        assert!(out.checks.is_empty());
        assert!(
            out.skipped
                .iter()
                .any(|m| m.starts_with("mttsf") && m.contains("no confidence interval")),
            "{:?}",
            out.skipped
        );
        assert!(out
            .skipped
            .iter()
            .any(|m| m.starts_with("c_total") && m.contains("no confidence interval")));
        // an all-skipped comparison is a non-validation, not a pass
        assert!(!out.agrees);

        // CI-less survival points skip too (value finite, interval absent)
        let mut stoch = exact_stub();
        stoch.backend = BackendKind::Des;
        stoch.mttsf = Estimate {
            value: 90.0,
            ci: Some((80.0, 110.0)),
        };
        stoch.c_total = Estimate {
            value: 5.0,
            ci: Some((4.0, 6.0)),
        };
        stoch.replications = Some(2);
        stoch.censored = Some(0);
        stoch.survival = Some(vec![(
            3.0,
            Estimate {
                value: 0.5,
                ci: None,
            },
        )]);
        let mut exact = exact_stub();
        exact.survival = Some(vec![(3.0, Estimate::exact(0.5))]);
        let out = compare(&exact, stoch, &CrossValOptions::default());
        assert!(out
            .skipped
            .iter()
            .any(|m| m.starts_with("survival@3") && m.contains("no confidence interval")));
        assert!(out.checks.iter().all(|c| !c.metric.starts_with("survival")));
    }

    /// Build a stochastic report whose survival curve deviates from the
    /// exact stub's by the given per-point deltas.
    fn reports_with_survival_deltas(deltas: &[f64]) -> (RunReport, RunReport) {
        let grid: Vec<f64> = (0..deltas.len()).map(|i| i as f64 * 10.0).collect();
        let mut exact = exact_stub();
        exact.survival = Some(grid.iter().map(|&t| (t, Estimate::exact(0.5))).collect());
        let mut stoch = exact_stub();
        stoch.backend = BackendKind::Des;
        stoch.mttsf = Estimate {
            value: 100.0,
            ci: Some((90.0, 110.0)),
        };
        stoch.c_total = Estimate {
            value: 5.0,
            ci: Some((4.0, 6.0)),
        };
        stoch.replications = Some(50);
        stoch.censored = Some(0);
        stoch.survival = Some(
            grid.iter()
                .zip(deltas)
                .map(|(&t, &d)| {
                    (
                        t,
                        Estimate {
                            value: 0.5 + d,
                            // a wide interval so every per-point check
                            // passes via containment — isolating the sup
                            ci: Some((0.0, 1.0)),
                        },
                    )
                })
                .collect(),
        );
        (exact, stoch)
    }

    #[test]
    fn survival_sup_delta_is_always_reported() {
        let (exact, stoch) = reports_with_survival_deltas(&[0.01, -0.04, 0.02]);
        let out = compare(&exact, stoch, &CrossValOptions::default());
        let sup = out.survival_sup_delta.unwrap();
        assert!((sup - 0.04).abs() < 1e-12, "sup = {sup}");
        // no tolerance set: reported, not enforced — no sup check exists
        assert!(out
            .checks
            .iter()
            .all(|c| c.metric != "survival_sup_abs_delta"));
        assert!(out.agrees, "{:#?}", out.checks);
        // and the JSON carries it
        let mut report = CrossValReport::default();
        report.specs.push(SpecCrossValidation {
            name: "sup".into(),
            exact: exact_stub(),
            comparisons: vec![out],
            agrees: true,
        });
        let v = crate::json::Value::parse(&report.to_json()).unwrap();
        let comp = &v.field("specs").unwrap().as_arr().unwrap()[0]
            .field("comparisons")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        let sup = comp.field("survival_sup_delta").unwrap().as_f64().unwrap();
        assert!((sup - 0.04).abs() < 1e-12);
    }

    #[test]
    fn survival_sup_tol_enforces_the_tighter_criterion() {
        // per-point checks pass via CI containment, but the sup bound is
        // tighter and must flip the verdict
        let opts = CrossValOptions {
            survival_sup_tol: Some(0.03),
            ..Default::default()
        };
        let (exact, stoch) = reports_with_survival_deltas(&[0.01, -0.04, 0.02]);
        let out = compare(&exact, stoch, &opts);
        let sup_check = out
            .checks
            .iter()
            .find(|c| c.metric == "survival_sup_abs_delta")
            .expect("tolerance set: the sup check must exist");
        assert!(!sup_check.agrees);
        assert!(!out.agrees);

        // within the bound it passes
        let (exact, stoch) = reports_with_survival_deltas(&[0.01, -0.02, 0.0]);
        let out = compare(&exact, stoch, &opts);
        assert!(out.agrees, "{:#?}", out.checks);

        // no comparable survival points → no sup, no sup check
        let exact = exact_stub();
        let mut stoch = exact_stub();
        stoch.backend = BackendKind::Des;
        stoch.mttsf = Estimate {
            value: 100.0,
            ci: Some((90.0, 110.0)),
        };
        stoch.c_total = Estimate {
            value: 5.0,
            ci: Some((4.0, 6.0)),
        };
        stoch.censored = Some(0);
        let out = compare(&exact, stoch, &opts);
        assert_eq!(out.survival_sup_delta, None);
        assert!(out
            .checks
            .iter()
            .all(|c| c.metric != "survival_sup_abs_delta"));
    }

    #[test]
    fn dir_harness_rejects_empty_dir() {
        let dir = std::env::temp_dir().join("gcsids-crossval-empty-test");
        let _ = std::fs::create_dir_all(&dir);
        assert!(cross_validate_dir(&dir, &CrossValOptions::default()).is_err());
        let _ = std::fs::remove_dir(&dir);
    }

    /// Regression (satellite 1): one malformed or failing spec must not
    /// abort the directory — the rest still validates, and every failure
    /// is named in the report.
    #[test]
    fn dir_harness_isolates_bad_specs() {
        let dir = std::env::temp_dir().join("gcsids-crossval-isolation-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut good = hot_spec();
        good.stochastic.sampling = SamplingPlan::Fixed(30);
        std::fs::write(dir.join("a_good.json"), good.to_json()).unwrap();
        std::fs::write(dir.join("b_malformed.json"), "{not json").unwrap();
        let mut invalid = good.clone();
        invalid.system.node_count = 0;
        invalid.name = "invalid".into();
        std::fs::write(dir.join("c_invalid.json"), invalid.to_json()).unwrap();
        // a scenario block with a missing strategy parameter: the decode
        // error must name the field and must not abort the directory
        let burst = good.clone().with_scenario(crate::ScenarioConfig {
            attacker: crate::AttackerStrategy::Burst {
                on_rate: 2.0e-4,
                off_rate: 2.0e-4,
                multiplier: 6.0,
            },
            response: crate::ResponsePolicy::Evict,
        });
        let bad_scenario = burst.to_json().replace("\"on_rate\":0.0002,", "");
        assert!(bad_scenario.contains("\"strategy\":\"burst\""));
        std::fs::write(dir.join("d_bad_scenario.json"), bad_scenario).unwrap();

        let report = cross_validate_dir(&dir, &CrossValOptions::default()).unwrap();
        assert_eq!(report.specs.len(), 1, "{:?}", report.failures);
        assert_eq!(report.specs[0].name, good.name);
        assert_eq!(report.failures.len(), 3);
        assert!(report
            .failures
            .iter()
            .any(|f| f.spec.contains("b_malformed.json")));
        assert!(report
            .failures
            .iter()
            .any(|f| f.spec.contains("c_invalid.json")));
        let scenario_failure = report
            .failures
            .iter()
            .find(|f| f.spec.contains("d_bad_scenario.json"))
            .expect("scenario decode failure is isolated and named");
        assert!(
            scenario_failure.error.contains("on_rate"),
            "error names the missing field: {}",
            scenario_failure.error
        );
        assert!(!report.clean());
        let v = crate::json::Value::parse(&report.to_json()).unwrap();
        assert_eq!(v.field("failures").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.field("clean").unwrap(), &Value::Bool(false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A spec that repeats a key is one named failure, whichever value
    /// would have been kept.
    #[test]
    fn lenient_load_names_a_file_with_a_duplicate_key() {
        let dir = std::env::temp_dir().join("gcsids-crossval-duplicate-key-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let good = ScenarioSpec::paper_default(BackendKind::Exact).to_json();
        std::fs::write(dir.join("good.json"), &good).unwrap();
        let twice = good.replacen('{', "{\"name\":\"again\",", 1);
        std::fs::write(dir.join("twice.json"), twice).unwrap();
        let (loaded, failures) = load_spec_dir_lenient(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].spec.contains("twice.json"));
        assert!(
            failures[0].error.contains("duplicate key `name`"),
            "{}",
            failures[0].error
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A file of 200 000 nested `[` is one named failure, not a stack
    /// overflow that aborts the whole load.
    #[test]
    fn lenient_load_names_a_deeply_nested_file() {
        let dir = std::env::temp_dir().join("gcsids-crossval-nesting-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("nested.json"), "[".repeat(200_000)).unwrap();
        let (loaded, failures) = load_spec_dir_lenient(&dir).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].spec.contains("nested.json"));
        assert!(
            failures[0].error.contains("nesting"),
            "{}",
            failures[0].error
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
