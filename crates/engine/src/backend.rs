//! The `Backend` abstraction: four evaluators, one contract.
//!
//! Every evaluator in the repository — exact CTMC absorption analysis,
//! SPN token-game simulation, protocol DES, and mobility-integrated DES —
//! is reached through [`Backend`]: `ScenarioSpec` in, [`RunReport`] out,
//! under a caller-supplied [`RunBudget`]. This is what lets the runner's
//! batches (the paper's figure grids, design-space enumeration) and
//! cross-validation treat heterogeneous evaluators uniformly instead of
//! hand-rolling one orchestration per evaluator.
//!
//! Two implementations serve the four: [`ExactBackend`], and one
//! stochastic backend for the three Monte-Carlo evaluators. The latter
//! builds each replication task in one place (single-system or
//! clustered) and aggregates every replication through one streaming
//! sink; the paired comparison replays the same tasks one replication at
//! a time.

use crate::error::EngineError;
use crate::report::{
    survival_estimates_streaming, DetectionInfo, Estimate, FailureSplit, RunReport,
};
use crate::spec::{BackendKind, SamplingPlan, ScenarioSpec};
use gcsids::clustered::evaluate_clustered_with_survival;
use gcsids::des::{run_des, DesConfig, DesOutcome, FailureCause};
use gcsids::des_mobility::MobilityDesConfig;
use gcsids::metrics::{eviction_impulses, total_cost_reward, ExactTemplate, TemplateKey};
use gcsids::model::Places;
use gcsids::{build_scenario_model, DetectionTotals};
use numerics::replicate::{run_plan_observed, OutcomeSink, Replicate};
use numerics::rng::child_seed;
use numerics::stats::{SurvivalAccumulator, Welford};
use spn::error::SpnError;
use spn::model::{Spn, TransitionId};
use spn::reach::ExploreOptions;
use spn::reward::RewardSet;
use spn::sim::{SimOptions, SimOutcome, Simulator};
use std::time::Instant;

/// Resource limits applied to a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunBudget {
    /// Cap on states explored by the exact backend.
    pub max_states: usize,
    /// Optional cap on stochastic replication budgets (clamps a fixed
    /// plan's count and an adaptive plan's `min`/`max` when smaller).
    pub max_replications: Option<u64>,
}

impl Default for RunBudget {
    fn default() -> Self {
        Self {
            max_states: 2_000_000,
            max_replications: None,
        }
    }
}

impl RunBudget {
    fn plan(&self, spec: &ScenarioSpec) -> SamplingPlan {
        let plan = spec.stochastic.sampling;
        self.max_replications.map_or(plan, |cap| plan.capped(cap))
    }
}

/// A sampling-progress event: emitted once per adaptive round (and once
/// at completion for fixed plans) by the stochastic backends when run
/// through [`Backend::run_observed`]. The exact backend emits nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchProgress {
    /// Replications completed so far.
    pub replications: u64,
    /// Relative CI half-width at this point (`None` below two failure
    /// observations).
    pub precision: Option<f64>,
}

/// A uniform evaluator of scenario specs.
pub trait Backend: Sync {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Evaluate `spec` within `budget`.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidSpec`] for inconsistent specs and
    /// [`EngineError::Solver`] for evaluator failures.
    fn run(&self, spec: &ScenarioSpec, budget: &RunBudget) -> Result<RunReport, EngineError>;

    /// [`Backend::run`] with incremental sampling-progress observation.
    /// Observation never changes what runs — reports are bit-identical to
    /// the unobserved path. Backends with no replication loop (the exact
    /// solver) ignore the observer; that is this default.
    ///
    /// # Errors
    /// Same contract as [`Backend::run`].
    fn run_observed(
        &self,
        spec: &ScenarioSpec,
        budget: &RunBudget,
        progress: &mut dyn FnMut(BatchProgress),
    ) -> Result<RunReport, EngineError> {
        let _ = progress;
        self.run(spec, budget)
    }
}

/// The backend implementation for a kind.
pub fn backend_for(kind: BackendKind) -> &'static dyn Backend {
    match kind {
        BackendKind::Exact => &ExactBackend,
        BackendKind::SpnSim => &StochasticBackend(BackendKind::SpnSim),
        BackendKind::Des => &StochasticBackend(BackendKind::Des),
        BackendKind::MobilityDes => &StochasticBackend(BackendKind::MobilityDes),
    }
}

/// Exact CTMC absorption analysis (the paper's analytic path). Every
/// single-system spec, scenario or not, is solved through an
/// [`ExactTemplate`]; clustered specs go to the clustered evaluator.
pub struct ExactBackend;

impl ExactBackend {
    /// Evaluate against an already-explored template (the runner's
    /// explore-once-solve-many path for batched rate-only specs).
    ///
    /// # Errors
    /// [`EngineError::InvalidSpec`] for a clustered spec, or a spec whose
    /// net is outside the template's family ([`TemplateKey`]); otherwise
    /// propagates evaluation failures.
    pub fn run_with_template(
        template: &ExactTemplate,
        spec: &ScenarioSpec,
    ) -> Result<RunReport, EngineError> {
        spec.validate()?;
        if spec.clustered.is_some() {
            // A template caches the single-system graph; a clustered spec
            // solves a different (lumped or composed) chain entirely.
            return Err(EngineError::InvalidSpec(
                "clustered specs are not template-batchable — use Backend::run".into(),
            ));
        }
        let family = TemplateKey::of(&spec.system, &spec.scenario_or_baseline());
        if family != template.key() {
            return Err(EngineError::InvalidSpec(format!(
                "net family {family:?} of spec {:?} is not the template's {:?}",
                spec.name,
                template.key()
            )));
        }
        // detlint::allow(D002): feeds the report's explicit wall_seconds timing field only
        let t0 = Instant::now();
        let (e, survival, totals) = template.evaluate_with_survival(
            &spec.system,
            spec.scenario.as_ref(),
            &spec.mission_times,
        )?;
        let mut report =
            Self::report_from_evaluation(spec, &e, survival, t0.elapsed().as_secs_f64());
        // Detection metrics are a scenario-mode observable: baseline specs
        // keep their pre-scenario report shape byte for byte.
        report.detection = totals.as_ref().map(exact_detection);
        Ok(report)
    }

    fn report_from_evaluation(
        spec: &ScenarioSpec,
        e: &gcsids::metrics::Evaluation,
        survival: Option<Vec<f64>>,
        wall_seconds: f64,
    ) -> RunReport {
        RunReport {
            scenario: spec.name.clone(),
            backend: BackendKind::Exact,
            mttsf: Estimate::exact(e.mttsf_seconds),
            c_total: Estimate::exact(e.c_total_hop_bits_per_sec),
            cost_components: Some(e.cost_components),
            failure: FailureSplit {
                p_c1: e.p_failure_c1,
                p_c2: e.p_failure_c2,
                p_other: 0.0,
            },
            state_count: Some(e.state_count),
            edge_count: Some(e.edge_count),
            lumping_reduction: None,
            replications: None,
            censored: None,
            zero_duration: None,
            target_met: None,
            survival: survival.map(|s| {
                spec.mission_times
                    .iter()
                    .copied()
                    .zip(s.into_iter().map(Estimate::exact))
                    .collect()
            }),
            wall_seconds,
            template_cache: None,
            transient: e.transient.as_ref().map(|s| crate::report::TransientInfo {
                matvecs: s.matvecs,
                detection_step: s.detection_step,
                early_exit: s.early_exit,
                transient_states: u64::from(s.transient_states),
                absorbing_states: u64::from(s.absorbing_states),
            }),
            detection: None,
        }
    }
}

/// `false_alarms / (detections + false_alarms)`; `NaN` ("not estimable")
/// when nothing was ever convicted.
fn fp_rate(detections: f64, false_alarms: f64) -> f64 {
    let convictions = detections + false_alarms;
    if convictions > 0.0 {
        false_alarms / convictions
    } else {
        f64::NAN
    }
}

/// `1 − detections / compromises` clamped at 0; `NaN` when nothing was
/// ever compromised.
fn fn_rate(compromises: f64, detections: f64) -> f64 {
    if compromises > 0.0 {
        (1.0 - detections / compromises).max(0.0)
    } else {
        f64::NAN
    }
}

/// Detection metrics from the exact chain's expected firing totals. Lead
/// time is undefined on the exact backend (no per-replication ordering):
/// `NaN` with zero observations.
fn exact_detection(totals: &DetectionTotals) -> DetectionInfo {
    DetectionInfo {
        compromises: Estimate::exact(totals.compromises),
        detections: Estimate::exact(totals.detections),
        false_alarms: Estimate::exact(totals.false_alarms),
        fp_rate: fp_rate(totals.detections, totals.false_alarms),
        fn_rate: fn_rate(totals.compromises, totals.detections),
        lead_time: Estimate::exact(f64::NAN),
        lead_time_observations: 0,
    }
}

impl Backend for ExactBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Exact
    }

    fn run(&self, spec: &ScenarioSpec, budget: &RunBudget) -> Result<RunReport, EngineError> {
        spec.validate()?;
        // detlint::allow(D002): feeds the report's explicit wall_seconds timing field only
        let t0 = Instant::now();
        let opts = ExploreOptions {
            max_states: budget.max_states,
            ..Default::default()
        };
        if let Some(topo) = &spec.clustered {
            let ce =
                evaluate_clustered_with_survival(&spec.system, topo, &spec.mission_times, &opts)?;
            let mut report = Self::report_from_evaluation(
                spec,
                &ce.evaluation,
                ce.survival,
                t0.elapsed().as_secs_f64(),
            );
            report.lumping_reduction = Some(ce.stats.reduction);
            return Ok(report);
        }
        // A standalone run is a one-use template, timed with its build.
        let template =
            ExactTemplate::with_options(&spec.system, &spec.scenario_or_baseline(), &opts)?;
        let mut report = Self::run_with_template(&template, spec)?;
        report.wall_seconds = t0.elapsed().as_secs_f64();
        Ok(report)
    }
}

/// The per-replication summary every stochastic backend reduces to before
/// aggregation. Also the unit of pairing in [`crate::paired`]: replication
/// `i` always runs under `child_seed(master_seed, i)`, so two specs
/// sharing a master seed yield common-random-number-coupled `Rep` streams.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rep {
    pub(crate) time: f64,
    /// Traffic accumulated over `[0, time]` (hop·bits).
    pub(crate) hop_bits: f64,
    pub(crate) cause: FailureCause,
    /// Nodes compromised during the observation window.
    pub(crate) compromises: f64,
    /// Convictions of compromised nodes.
    pub(crate) detections: f64,
    /// Convictions of healthy nodes.
    pub(crate) false_alarms: f64,
    /// Time of the first compromise, if one happened.
    pub(crate) first_compromise: Option<f64>,
    /// Time of the first true detection, if one happened.
    pub(crate) first_detection: Option<f64>,
}

impl Rep {
    /// A summary with no detection observables (baseline SPN-sim runs and
    /// clustered composition, which never carries a scenario).
    fn basic(time: f64, hop_bits: f64, cause: FailureCause) -> Self {
        Self {
            time,
            hop_bits,
            cause,
            compromises: 0.0,
            detections: 0.0,
            false_alarms: 0.0,
            first_compromise: None,
            first_detection: None,
        }
    }

    /// One protocol-DES replication (either driver) reduced to the common
    /// summary.
    fn from_des(o: &DesOutcome) -> Self {
        Self {
            time: o.time,
            hop_bits: o.hop_bits,
            cause: o.cause,
            compromises: o.compromises as f64,
            detections: o.true_evictions as f64,
            false_alarms: o.false_evictions as f64,
            first_compromise: o.first_compromise,
            first_detection: o.first_true_detection,
        }
    }

    /// Time-averaged cost rate (hop·bits/s); `0.0` for a zero-length run.
    pub(crate) fn cost_rate(&self) -> f64 {
        if self.time > 0.0 {
            self.hop_bits / self.time
        } else {
            0.0
        }
    }
}

/// Streaming aggregation of stochastic replications into the common
/// report fields — one sink shared by the SPN-sim, DES, and mobility-DES
/// backends via the `numerics::replicate` engine. No outcome or event
/// `Vec` is ever materialized: Welford moments for MTTSF and cost, a
/// [`SurvivalAccumulator`] for the mission grid, and plain counters for
/// the failure split.
#[derive(Clone)]
struct StochasticSink {
    mttsf: Welford,
    cost_rate: Welford,
    c1: u64,
    c2: u64,
    other: u64,
    censored: u64,
    zero_duration: u64,
    survival: SurvivalAccumulator,
    confidence: f64,
    /// Detection observables, aggregated only into the report when the
    /// spec carries a scenario (the counters themselves are always fed —
    /// they cost nothing and keep `record` branch-free).
    compromises: Welford,
    detections: Welford,
    false_alarms: Welford,
    lead_time: Welford,
    /// First per-replication error in index order (aborts the run).
    error: Option<SpnError>,
}

impl StochasticSink {
    fn new(spec: &ScenarioSpec) -> Self {
        Self {
            mttsf: Welford::new(),
            cost_rate: Welford::new(),
            c1: 0,
            c2: 0,
            other: 0,
            censored: 0,
            zero_duration: 0,
            survival: SurvivalAccumulator::new(&spec.mission_times),
            confidence: spec.stochastic.confidence,
            compromises: Welford::new(),
            detections: Welford::new(),
            false_alarms: Welford::new(),
            lead_time: Welford::new(),
            error: None,
        }
    }

    fn into_report(
        self,
        spec: &ScenarioSpec,
        kind: BackendKind,
        replications: u64,
        target_met: Option<bool>,
        wall: f64,
    ) -> RunReport {
        let ended = (self.c1 + self.c2 + self.other) as f64;
        let failure = if ended > 0.0 {
            FailureSplit {
                p_c1: self.c1 as f64 / ended,
                p_c2: self.c2 as f64 / ended,
                p_other: self.other as f64 / ended,
            }
        } else {
            FailureSplit::default()
        };
        let survival = if spec.mission_times.is_empty() {
            None
        } else {
            Some(survival_estimates_streaming(
                &self.survival,
                self.confidence,
            ))
        };
        // Detection metrics are a scenario-mode observable: baseline specs
        // keep their pre-scenario report shape byte-for-byte.
        let detection = spec.scenario.is_some().then(|| DetectionInfo {
            compromises: Estimate::from_welford(&self.compromises, self.confidence),
            detections: Estimate::from_welford(&self.detections, self.confidence),
            false_alarms: Estimate::from_welford(&self.false_alarms, self.confidence),
            fp_rate: fp_rate(self.detections.mean(), self.false_alarms.mean()),
            fn_rate: fn_rate(self.compromises.mean(), self.detections.mean()),
            lead_time: Estimate::from_welford(&self.lead_time, self.confidence),
            lead_time_observations: self.lead_time.count(),
        });
        RunReport {
            scenario: spec.name.clone(),
            backend: kind,
            mttsf: Estimate::from_welford(&self.mttsf, self.confidence),
            c_total: Estimate::from_welford(&self.cost_rate, self.confidence),
            cost_components: None,
            failure,
            state_count: None,
            edge_count: None,
            lumping_reduction: None,
            replications: Some(replications),
            censored: Some(self.censored),
            zero_duration: Some(self.zero_duration),
            target_met,
            survival,
            wall_seconds: wall,
            template_cache: None,
            transient: None,
            detection,
        }
    }
}

impl OutcomeSink<Result<Rep, SpnError>> for StochasticSink {
    fn record(&mut self, outcome: Result<Rep, SpnError>) {
        let rep = match outcome {
            Ok(rep) => rep,
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(e);
                }
                return;
            }
        };
        self.survival
            .push(rep.time, rep.cause == FailureCause::Censored);
        if let (Some(c), Some(d)) = (rep.first_compromise, rep.first_detection) {
            if d >= c {
                self.lead_time.push(d - c);
            }
        }
        if rep.time <= 0.0 {
            // Censored-at-zero: nothing was observed, so the outcome's 0.0
            // cost rate is a placeholder, not a measurement, and there is
            // no failure time either.
            self.zero_duration += 1;
            self.censored += 1;
            return;
        }
        self.cost_rate.push(rep.cost_rate());
        self.compromises.push(rep.compromises);
        self.detections.push(rep.detections);
        self.false_alarms.push(rep.false_alarms);
        match rep.cause {
            FailureCause::DataLeak => {
                self.c1 += 1;
                self.mttsf.push(rep.time);
            }
            FailureCause::ByzantineCapture => {
                self.c2 += 1;
                self.mttsf.push(rep.time);
            }
            FailureCause::Attrition => {
                self.other += 1;
                self.mttsf.push(rep.time);
            }
            FailureCause::Censored => self.censored += 1,
        }
    }

    fn merge(&mut self, other: Self) {
        self.mttsf.merge(&other.mttsf);
        self.cost_rate.merge(&other.cost_rate);
        self.c1 += other.c1;
        self.c2 += other.c2;
        self.other += other.other;
        self.censored += other.censored;
        self.zero_duration += other.zero_duration;
        self.survival.merge(&other.survival);
        self.compromises.merge(&other.compromises);
        self.detections.merge(&other.detections);
        self.false_alarms.merge(&other.false_alarms);
        self.lead_time.merge(&other.lead_time);
        // self covers the earlier index range, so its error stays first
        if self.error.is_none() {
            self.error = other.error;
        }
    }

    fn precision(&self) -> Option<f64> {
        if self.error.is_some() {
            // fatal replication error: stop spawning batches immediately
            return Some(0.0);
        }
        self.mttsf.relative_precision(self.confidence)
    }
}

/// Monte-Carlo token-game simulation of the Figure-1 SPN, the protocol
/// DES and the mobility-integrated DES: one backend per stochastic
/// [`BackendKind`], each running its [`stochastic_task`] under the spec's
/// sampling plan (capped by the budget) into one [`StochasticSink`].
struct StochasticBackend(BackendKind);

impl Backend for StochasticBackend {
    fn kind(&self) -> BackendKind {
        self.0
    }

    fn run(&self, spec: &ScenarioSpec, budget: &RunBudget) -> Result<RunReport, EngineError> {
        self.run_observed(spec, budget, &mut |_| {})
    }

    fn run_observed(
        &self,
        spec: &ScenarioSpec,
        budget: &RunBudget,
        progress: &mut dyn FnMut(BatchProgress),
    ) -> Result<RunReport, EngineError> {
        spec.validate()?;
        // detlint::allow(D002): feeds the report's explicit wall_seconds timing field only
        let t0 = Instant::now();
        let plan = budget.plan(spec);
        // The spec's own plan already validated, but a budget cap can
        // degenerate it (max_replications = Some(0) clamps a fixed count to
        // zero) — surface that as an error instead of panicking in run_plan.
        plan.validate().map_err(EngineError::InvalidSpec)?;
        let done = stochastic_task(self.0, spec, |task| {
            Ok(run_plan_observed(
                task,
                &plan,
                spec.stochastic.master_seed,
                || StochasticSink::new(spec),
                &mut |replications, precision| {
                    progress(BatchProgress {
                        replications,
                        precision,
                    });
                },
            ))
        })?;
        if let Some(e) = done.sink.error {
            return Err(EngineError::Solver(e));
        }
        Ok(done.sink.into_report(
            spec,
            self.0,
            done.replications,
            done.target_met,
            t0.elapsed().as_secs_f64(),
        ))
    }
}

/// Build the replication task of a stochastic `kind` for `spec` —
/// single-system or clustered — and hand it to `f`. The one place a
/// stochastic task is built: [`Backend::run_observed`] and
/// [`per_replication_outcomes`] both run what this builds.
fn stochastic_task<T>(
    kind: BackendKind,
    spec: &ScenarioSpec,
    f: impl FnOnce(&dyn Replicate<Outcome = Result<Rep, SpnError>>) -> Result<T, EngineError>,
) -> Result<T, EngineError> {
    let max_time = spec.stochastic.max_time;
    match (kind, &spec.clustered) {
        (BackendKind::Exact, _) => Err(EngineError::InvalidSpec(
            "replications require a stochastic backend".into(),
        )),
        (BackendKind::SpnSim, clustered) => {
            let setup = spn_sim_setup(spec)?;
            let opts = SimOptions {
                max_time,
                ..Default::default()
            };
            let sim = Simulator::new(&setup.net, &setup.rewards, opts);
            match clustered {
                // validate() rejects scenario + clustered, so this is
                // always the paper net. Every cluster run and rerun plays
                // the one simulator, so they share its memoized races.
                Some(topo) => f(&ClusteredTask {
                    clusters: topo.clusters,
                    threshold: topo.failure_threshold,
                    max_time,
                    cluster: |seed, horizon| {
                        let o = sim.run_until(seed, horizon)?;
                        let cause = spn_cause(&setup.places, &o);
                        Ok(Rep::basic(o.time, o.accumulated.iter().sum(), cause))
                    },
                }),
                None => f(&SpnSimTask {
                    sim,
                    places: setup.places,
                    detect: setup.detect,
                }),
            }
        }
        (BackendKind::Des, Some(topo)) => {
            let cfg = des_config(spec);
            f(&ClusteredTask {
                clusters: topo.clusters,
                threshold: topo.failure_threshold,
                max_time,
                cluster: |seed, horizon| {
                    let cfg = DesConfig {
                        max_time: horizon,
                        ..cfg.clone()
                    };
                    Ok(Rep::from_des(&run_des(&cfg, seed)))
                },
            })
        }
        (BackendKind::Des, None) => f(&DesTask(des_config(spec))),
        // validate() rejects clustered mobility specs.
        (BackendKind::MobilityDes, _) => f(&DesTask(mobility_config(spec))),
    }
}

/// Classify how a single-system SPN replication ended from its final
/// marking.
fn spn_cause(places: &Places, o: &SimOutcome) -> FailureCause {
    if !o.absorbed {
        FailureCause::Censored
    } else if o.final_marking.tokens(places.gf) > 0 {
        FailureCause::DataLeak
    } else if o.final_marking.tokens(places.tm) + o.final_marking.tokens(places.ucm) == 0 {
        FailureCause::Attrition
    } else {
        FailureCause::ByzantineCapture
    }
}

/// One SPN-sim replication reduced to the common summary. With `detect`
/// set (scenario mode), detection observables are read off the token
/// game's firing counts and first-firing times of `[T_CP, T_IDS, T_FA]`.
struct SpnSimTask<'a> {
    sim: Simulator<'a>,
    places: Places,
    detect: Option<[TransitionId; 3]>,
}

impl Replicate for SpnSimTask<'_> {
    type Outcome = Result<Rep, SpnError>;

    fn run_one(&self, seed: u64) -> Self::Outcome {
        let o = self.sim.run_one(seed)?;
        let cause = spn_cause(&self.places, &o);
        let mut rep = Rep::basic(o.time, o.accumulated.iter().sum(), cause);
        if let Some([t_cp, t_ids, t_fa]) = self.detect {
            let count = |t: TransitionId| o.firings.get(t.index()).map_or(0.0, |&n| n as f64);
            let first = |t: TransitionId| o.first_firings.get(t.index()).copied().flatten();
            rep.compromises = count(t_cp);
            rep.detections = count(t_ids);
            rep.false_alarms = count(t_fa);
            rep.first_compromise = first(t_cp);
            rep.first_detection = first(t_ids);
        }
        Ok(rep)
    }
}

/// The net, rewards, and detection handles an SPN-sim run plays: the
/// spec's scenario net (the paper net without a scenario) with the
/// response policy's action costs. Detection handles are set in scenario
/// mode only.
struct SpnSimSetup {
    net: Spn,
    rewards: RewardSet,
    places: Places,
    detect: Option<[TransitionId; 3]>,
}

fn spn_sim_setup(spec: &ScenarioSpec) -> Result<SpnSimSetup, EngineError> {
    let model = build_scenario_model(&spec.system, &spec.scenario_or_baseline());
    let mut rewards = RewardSet::new().with_rate(total_cost_reward(&model.config, &model));
    for imp in eviction_impulses(&model)? {
        rewards = rewards.with_impulse(imp);
    }
    let lookup = |name: &str| {
        model.net.transition_by_name(name).ok_or_else(|| {
            EngineError::Solver(SpnError::InvalidModel(format!("missing transition {name}")))
        })
    };
    let detect = match spec.scenario {
        Some(_) => Some([lookup("T_CP")?, lookup("T_IDS")?, lookup("T_FA")?]),
        None => None,
    };
    Ok(SpnSimSetup {
        places: model.places,
        net: model.net,
        rewards,
        detect,
    })
}

/// Compose independent per-cluster replications into the system summary.
///
/// The flat clustered net is exactly `reps.len()` independent copies of
/// the single-cluster model — clusters share no places and each freezes
/// on its own failure — so simulating the copies separately is
/// distribution-identical to simulating the flat net, and additionally
/// yields the exact failure order. The system fails at the K-th smallest
/// cluster failure time with that cluster's cause; runs with fewer than
/// K failures by `horizon` are censored. Cost is summed exactly over the
/// observation window: clusters that outlive the system absorption time
/// are re-run via `rerun(cluster, t_sys)` with their original seed — an
/// identical trajectory, merely censored at `t_sys`.
fn compose_clusters(
    reps: &[Rep],
    threshold: u32,
    horizon: f64,
    mut rerun: impl FnMut(usize, f64) -> Result<f64, SpnError>,
) -> Result<Rep, SpnError> {
    let failed = |r: &Rep| r.cause != FailureCause::Censored;
    let mut failures: Vec<(f64, usize)> = reps
        .iter()
        .enumerate()
        .filter(|(_, r)| failed(r))
        .map(|(i, r)| (r.time, i))
        .collect();
    if (failures.len() as u32) < threshold {
        let hop_bits: f64 = reps.iter().map(|r| r.hop_bits).sum();
        return Ok(Rep::basic(horizon, hop_bits, FailureCause::Censored));
    }
    failures.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (t_sys, kth) = failures[threshold as usize - 1];
    let mut hop_bits = 0.0;
    for (i, r) in reps.iter().enumerate() {
        if failed(r) && r.time <= t_sys {
            // Failed within the window: frozen afterwards, so its own
            // accumulated cost already covers [0, t_sys].
            hop_bits += r.hop_bits;
        } else {
            hop_bits += rerun(i, t_sys)?;
        }
    }
    Ok(Rep::basic(t_sys, hop_bits, reps[kth].cause))
}

/// One clustered replication: independent single-cluster runs composed
/// by failure order statistics ([`compose_clusters`]). `cluster(seed,
/// horizon)` runs one cluster censored at `horizon`.
struct ClusteredTask<F> {
    clusters: u32,
    threshold: u32,
    max_time: f64,
    cluster: F,
}

impl<F> Replicate for ClusteredTask<F>
where
    F: Fn(u64, f64) -> Result<Rep, SpnError> + Sync,
{
    type Outcome = Result<Rep, SpnError>;

    fn run_one(&self, seed: u64) -> Self::Outcome {
        let reps = (0..u64::from(self.clusters))
            .map(|i| (self.cluster)(child_seed(seed, i), self.max_time))
            .collect::<Result<Vec<Rep>, SpnError>>()?;
        compose_clusters(&reps, self.threshold, self.max_time, |i, t_sys| {
            Ok((self.cluster)(child_seed(seed, i as u64), t_sys)?.hop_bits)
        })
    }
}

/// One replication of either protocol-DES driver ([`DesConfig`] or
/// [`MobilityDesConfig`]) reduced to the common summary.
struct DesTask<C>(C);

impl<C: Replicate<Outcome = DesOutcome>> Replicate for DesTask<C> {
    type Outcome = Result<Rep, SpnError>;

    fn run_one(&self, seed: u64) -> Self::Outcome {
        Ok(Rep::from_des(&self.0.run_one(seed)))
    }
}

/// Protocol-DES configuration for a spec (scenario-aware).
fn des_config(spec: &ScenarioSpec) -> DesConfig {
    let mut cfg = DesConfig::new(spec.system.clone());
    cfg.max_time = spec.stochastic.max_time;
    cfg.scenario = spec.scenario_or_baseline();
    cfg
}

/// Mobility-DES configuration for a spec (attacker axis only; validate()
/// rejects non-evict response policies on this backend).
fn mobility_config(spec: &ScenarioSpec) -> MobilityDesConfig {
    let mut cfg = MobilityDesConfig::new(spec.system.clone());
    cfg.radio_range = spec.mobility.radio_range;
    cfg.dt = spec.mobility.dt;
    cfg.max_time = spec.stochastic.max_time;
    cfg.scenario = spec.scenario_or_baseline();
    cfg
}

/// Run replications `0..n` of a stochastic spec and return each one's
/// summary in index order — the paired engine's inner loop. Replication
/// `i` runs under `child_seed(master_seed, i)`, exactly the seed the
/// chunked plan executor hands it, so these outcomes are bit-identical to
/// the ones a [`Backend::run`] of the same spec aggregates. They run on
/// [`numerics::exec::map`], which returns them in index order whatever the
/// thread count.
///
/// # Errors
/// [`EngineError::InvalidSpec`] for invalid specs and for the exact
/// backend (which has no replications), [`EngineError::Solver`] when a
/// replication fails.
pub(crate) fn per_replication_outcomes(
    spec: &ScenarioSpec,
    n: u64,
) -> Result<Vec<Rep>, EngineError> {
    spec.validate()?;
    let master = spec.stochastic.master_seed;
    stochastic_task(spec.backend, spec, |task| {
        numerics::exec::map((0..n).collect(), |i| task.run_one(child_seed(master, i)))
            .into_iter()
            .map(|rep| rep.map_err(EngineError::from))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcsids::config::SystemConfig;

    /// Small, fast-failing system so the stochastic backends finish quickly.
    fn hot_spec(backend: BackendKind) -> ScenarioSpec {
        let mut sys = SystemConfig::paper_default();
        sys.node_count = 12;
        sys.vote_participants = 3;
        sys.attacker.base_rate = 1.0 / 600.0;
        sys.detection = sys.detection.with_interval(120.0);
        let mut spec = ScenarioSpec::paper_default(backend);
        spec.name = format!("hot/{}", backend.name());
        spec.system = sys;
        spec.stochastic.sampling = SamplingPlan::Fixed(40);
        spec.stochastic.max_time = 200_000.0;
        spec.mobility.dt = 2.0;
        spec
    }

    #[test]
    fn every_backend_produces_a_report() {
        for kind in BackendKind::all() {
            let spec = hot_spec(kind);
            let report = backend_for(kind).run(&spec, &RunBudget::default()).unwrap();
            assert_eq!(report.backend, kind);
            assert_eq!(report.scenario, spec.name);
            assert!(report.mttsf.value > 0.0, "{kind:?}: {report:?}");
            assert!(report.c_total.value > 0.0, "{kind:?}");
            let f = report.failure;
            assert!(
                (f.p_c1 + f.p_c2 + f.p_other - 1.0).abs() < 1e-9,
                "{kind:?}: split {f:?}"
            );
            if kind == BackendKind::Exact {
                assert!(report.state_count.unwrap() > 10);
                assert!(report.mttsf.ci.is_none());
            } else {
                assert_eq!(report.replications, Some(40));
                assert!(report.mttsf.ci.is_some(), "{kind:?} should carry a CI");
            }
        }
    }

    #[test]
    fn mission_survival_reported_by_every_backend() {
        for kind in BackendKind::all() {
            let mut spec = hot_spec(kind);
            spec.mission_times = vec![0.0, 20_000.0, 80_000.0];
            let report = backend_for(kind).run(&spec, &RunBudget::default()).unwrap();
            let surv = report.survival.expect("mission grid requested");
            assert_eq!(surv.len(), 3);
            assert_eq!(surv[0].0, 0.0);
            assert!(
                (surv[0].1.value - 1.0).abs() < 1e-9,
                "{kind:?}: S(0) = {}",
                surv[0].1.value
            );
            for w in surv.windows(2) {
                assert!(
                    w[1].1.value <= w[0].1.value + 1e-9,
                    "{kind:?}: survival not monotone: {surv:?}"
                );
            }
            for (t, e) in &surv {
                assert!(
                    (0.0..=1.0).contains(&e.value),
                    "{kind:?} t={t}: {}",
                    e.value
                );
                if kind == BackendKind::Exact {
                    assert!(e.ci.is_none());
                } else {
                    let (lo, hi) = e.ci.expect("stochastic survival carries a CI");
                    assert!(lo <= e.value && e.value <= hi);
                }
            }
        }
    }

    #[test]
    fn no_mission_grid_means_no_survival_field() {
        let spec = hot_spec(BackendKind::Des);
        let report = backend_for(BackendKind::Des)
            .run(&spec, &RunBudget::default())
            .unwrap();
        assert!(report.survival.is_none());
    }

    #[test]
    fn survival_beyond_horizon_is_rejected_up_front() {
        // a grid point past the censoring horizon can only yield a
        // failure-biased or empty estimate — the spec must not validate
        let mut spec = hot_spec(BackendKind::Des);
        spec.stochastic.max_time = 1.0;
        spec.stochastic.sampling = SamplingPlan::Fixed(5);
        spec.mission_times = vec![0.5, 10.0];
        let out = backend_for(BackendKind::Des).run(&spec, &RunBudget::default());
        assert!(matches!(out, Err(EngineError::InvalidSpec(_))));
        // at the horizon itself the estimate is fine (censored runs are
        // still at risk there), including the all-censored zero-variance
        // case — finite bounds, no NaN
        spec.mission_times = vec![0.5, 1.0];
        let report = backend_for(BackendKind::Des)
            .run(&spec, &RunBudget::default())
            .unwrap();
        let surv = report.survival.unwrap();
        assert_eq!(surv[0].1.value, 1.0);
        assert_eq!(surv[1].1.value, 1.0);
        let (lo, hi) = surv[1].1.ci.unwrap();
        assert!(!lo.is_nan() && (hi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_censored_run_is_not_estimable() {
        // A horizon far below any failure time censors every replication:
        // MTTSF must be NaN ("not estimable"), never 0.0.
        let mut spec = hot_spec(BackendKind::Des);
        spec.stochastic.max_time = 1.0;
        spec.stochastic.sampling = SamplingPlan::Fixed(5);
        let report = backend_for(BackendKind::Des)
            .run(&spec, &RunBudget::default())
            .unwrap();
        assert_eq!(report.censored, Some(5));
        assert!(report.mttsf.value.is_nan());
        assert_eq!(
            report.failure.p_c1 + report.failure.p_c2 + report.failure.p_other,
            0.0
        );
        // and the JSON encoding stays parseable (NaN → null)
        assert!(crate::json::Value::parse(&report.to_json()).is_ok());
    }

    #[test]
    fn adaptive_spec_reports_replications_used_and_verdict() {
        let mut spec = hot_spec(BackendKind::Des);
        spec.stochastic.sampling = SamplingPlan::Adaptive {
            target_rel_halfwidth: 0.5, // loose: met quickly on the hot system
            min: 20,
            max: 200,
            batch: 20,
        };
        let report = backend_for(BackendKind::Des)
            .run(&spec, &RunBudget::default())
            .unwrap();
        let n = report.replications.expect("stochastic run");
        assert!((20..=200).contains(&n), "used {n}");
        let met = report.target_met.expect("adaptive run carries a verdict");
        if met {
            let (lo, hi) = report.mttsf.ci.unwrap();
            let half = (hi - lo) / 2.0;
            assert!(
                half / report.mttsf.value.abs() <= 0.5,
                "claimed target met: half {half} vs mean {}",
                report.mttsf.value
            );
        } else {
            assert_eq!(n, 200, "unmet target must exhaust the budget");
        }
        // bit-identical to the fixed plan of the same size (the adaptive
        // executor is a pure prefix of the fixed one)
        let mut fixed = spec.clone();
        fixed.stochastic.sampling = SamplingPlan::Fixed(n);
        let fixed_report = backend_for(BackendKind::Des)
            .run(&fixed, &RunBudget::default())
            .unwrap();
        assert_eq!(fixed_report.mttsf, report.mttsf);
        assert_eq!(fixed_report.c_total, report.c_total);
        assert_eq!(fixed_report.target_met, None);
    }

    #[test]
    fn adaptive_budget_exhaustion_is_reported() {
        let mut spec = hot_spec(BackendKind::Des);
        spec.stochastic.sampling = SamplingPlan::Adaptive {
            target_rel_halfwidth: 1e-6, // unreachable at this budget
            min: 10,
            max: 30,
            batch: 10,
        };
        let report = backend_for(BackendKind::Des)
            .run(&spec, &RunBudget::default())
            .unwrap();
        assert_eq!(report.replications, Some(30));
        assert_eq!(report.target_met, Some(false));
        // the verdict travels through the JSON round-trip
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.target_met, Some(false));
        assert_eq!(back.replications, Some(30));
    }

    #[test]
    fn replication_budget_caps_adaptive_plans_too() {
        let mut spec = hot_spec(BackendKind::Des);
        spec.stochastic.sampling = SamplingPlan::Adaptive {
            target_rel_halfwidth: 1e-6,
            min: 10,
            max: 500,
            batch: 50,
        };
        let budget = RunBudget {
            max_replications: Some(25),
            ..Default::default()
        };
        let report = backend_for(BackendKind::Des).run(&spec, &budget).unwrap();
        assert_eq!(report.replications, Some(25));
    }

    #[test]
    fn replication_budget_below_first_batch_clamps_it() {
        // Regression (satellite 3): a max_replications cap smaller than
        // the adaptive plan's first batch must clamp that batch — running
        // the full `min` would silently overshoot the budget — and report
        // target_met = false with the actual count.
        let mut spec = hot_spec(BackendKind::Des);
        spec.stochastic.sampling = SamplingPlan::Adaptive {
            target_rel_halfwidth: 1e-6, // unreachable at 7 replications
            min: 100,
            max: 400,
            batch: 100,
        };
        let budget = RunBudget {
            max_replications: Some(7),
            ..Default::default()
        };
        let mut rounds = Vec::new();
        let report = backend_for(BackendKind::Des)
            .run_observed(&spec, &budget, &mut |p| rounds.push(p))
            .unwrap();
        assert_eq!(report.replications, Some(7));
        assert_eq!(report.target_met, Some(false));
        // exactly one sampling round ran, at the capped size
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0].replications, 7);
    }

    #[test]
    fn observed_run_is_bit_identical_and_streams_rounds() {
        let mut spec = hot_spec(BackendKind::Des);
        spec.stochastic.sampling = SamplingPlan::Adaptive {
            target_rel_halfwidth: 1e-6, // unreachable: every round fires
            min: 10,
            max: 30,
            batch: 10,
        };
        let mut rounds = Vec::new();
        let observed = backend_for(BackendKind::Des)
            .run_observed(&spec, &RunBudget::default(), &mut |p| rounds.push(p))
            .unwrap();
        let plain = backend_for(BackendKind::Des)
            .run(&spec, &RunBudget::default())
            .unwrap();
        assert_eq!(observed.mttsf, plain.mttsf);
        assert_eq!(observed.c_total, plain.c_total);
        assert_eq!(observed.replications, plain.replications);
        assert_eq!(
            rounds.iter().map(|p| p.replications).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        // the exact backend has no replication loop: observer never fires
        let mut none = Vec::new();
        backend_for(BackendKind::Exact)
            .run_observed(
                &hot_spec(BackendKind::Exact),
                &RunBudget::default(),
                &mut |p| none.push(p),
            )
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn zero_replication_budget_is_an_error_not_a_panic() {
        // max_replications is a public field: a zero cap degenerates the
        // sampling plan and must surface as InvalidSpec, not a panic.
        let spec = hot_spec(BackendKind::Des);
        let budget = RunBudget {
            max_replications: Some(0),
            ..Default::default()
        };
        let out = backend_for(BackendKind::Des).run(&spec, &budget);
        assert!(matches!(out, Err(EngineError::InvalidSpec(_))), "{out:?}");
    }

    #[test]
    fn replication_budget_caps_work() {
        let spec = hot_spec(BackendKind::Des);
        let budget = RunBudget {
            max_replications: Some(5),
            ..Default::default()
        };
        let report = backend_for(BackendKind::Des).run(&spec, &budget).unwrap();
        assert_eq!(report.replications, Some(5));
    }

    #[test]
    fn state_budget_caps_exact_exploration() {
        let spec = hot_spec(BackendKind::Exact);
        let budget = RunBudget {
            max_states: 3,
            ..Default::default()
        };
        let out = backend_for(BackendKind::Exact).run(&spec, &budget);
        assert!(matches!(
            out,
            Err(EngineError::Solver(
                spn::error::SpnError::StateSpaceExceeded { cap: 3 }
            ))
        ));
    }

    #[test]
    fn clustered_exact_reports_lumping_stats() {
        let topo = gcsids::config::ClusterTopology {
            clusters: 3,
            failure_threshold: 2,
        };
        let mut spec = hot_spec(BackendKind::Exact).with_clusters(topo);
        spec.mission_times = vec![0.0, 2.0e4, 8.0e4];
        let report = backend_for(BackendKind::Exact)
            .run(&spec, &RunBudget::default())
            .unwrap();
        assert!(report.mttsf.value > 0.0);
        assert!(
            report.lumping_reduction.unwrap() > 1.0,
            "{:?}",
            report.lumping_reduction
        );
        let surv = report.survival.as_ref().unwrap();
        assert_eq!(surv.len(), 3);
        assert!((surv[0].1.value - 1.0).abs() < 1e-9);
        assert!(surv[2].1.value < surv[0].1.value);
        // and the new field round-trips through JSON
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.lumping_reduction, report.lumping_reduction);
    }

    #[test]
    fn clustered_stochastic_backends_agree_with_exact() {
        let topo = gcsids::config::ClusterTopology {
            clusters: 3,
            failure_threshold: 2,
        };
        let exact_spec = hot_spec(BackendKind::Exact).with_clusters(topo);
        let exact = backend_for(BackendKind::Exact)
            .run(&exact_spec, &RunBudget::default())
            .unwrap();
        // The clustered SPN-sim runs the very net the exact path lumps, so
        // the exact MTTSF must sit inside its confidence interval.
        let mut sim_spec = hot_spec(BackendKind::SpnSim).with_clusters(topo);
        sim_spec.stochastic.sampling = SamplingPlan::Fixed(600);
        sim_spec.stochastic.confidence = 0.99;
        let sim = backend_for(BackendKind::SpnSim)
            .run(&sim_spec, &RunBudget::default())
            .unwrap();
        let (lo, hi) = sim.mttsf.ci.unwrap();
        assert!(
            lo <= exact.mttsf.value && exact.mttsf.value <= hi,
            "exact {} outside clustered sim CI [{lo}, {hi}]",
            exact.mttsf.value
        );
        let f = sim.failure;
        assert!((f.p_c1 + f.p_c2 + f.p_other - 1.0).abs() < 1e-9, "{f:?}");
        // The protocol DES is a different model of the same system: allow
        // the documented modeling tolerance on top of the interval.
        let mut des_spec = hot_spec(BackendKind::Des).with_clusters(topo);
        des_spec.stochastic.sampling = SamplingPlan::Fixed(400);
        let des = backend_for(BackendKind::Des)
            .run(&des_spec, &RunBudget::default())
            .unwrap();
        let rel = (des.mttsf.value - exact.mttsf.value).abs() / exact.mttsf.value;
        let inside = des
            .mttsf
            .ci
            .is_some_and(|(lo, hi)| lo <= exact.mttsf.value && exact.mttsf.value <= hi);
        assert!(inside || rel < 0.25, "clustered DES off by {rel}");
    }

    #[test]
    fn clustered_spec_rejected_by_template_path() {
        let topo = gcsids::config::ClusterTopology {
            clusters: 2,
            failure_threshold: 1,
        };
        let plain = hot_spec(BackendKind::Exact);
        let opts = ExploreOptions::default();
        let template =
            ExactTemplate::with_options(&plain.system, &plain.scenario_or_baseline(), &opts)
                .unwrap();
        let clustered = plain.with_clusters(topo);
        let out = ExactBackend::run_with_template(&template, &clustered);
        assert!(matches!(out, Err(EngineError::InvalidSpec(_))), "{out:?}");
    }

    #[test]
    fn scenario_spec_of_another_net_family_is_rejected_by_template_path() {
        use scenario::{AttackerStrategy, ResponsePolicy, ScenarioConfig};
        let mut throttle = hot_spec(BackendKind::Exact);
        throttle.scenario = Some(ScenarioConfig {
            attacker: AttackerStrategy::Baseline,
            response: ResponsePolicy::RekeyThrottle {
                max_rate: 1.0 / 300.0,
            },
        });
        let mut quarantine = hot_spec(BackendKind::Exact);
        quarantine.scenario = Some(ScenarioConfig {
            attacker: AttackerStrategy::Baseline,
            response: ResponsePolicy::QuarantineRejoin {
                release_rate: 1.0 / 600.0,
                false_release_prob: 0.1,
            },
        });
        let template = ExactTemplate::with_options(
            &throttle.system,
            &throttle.scenario_or_baseline(),
            &ExploreOptions::default(),
        )
        .unwrap();
        let out = ExactBackend::run_with_template(&template, &quarantine);
        let Err(EngineError::InvalidSpec(msg)) = out else {
            panic!("expected a named InvalidSpec, got {out:?}");
        };
        assert!(msg.contains("net family"), "{msg}");
        assert!(msg.contains("quarantine: true"), "{msg}");
        // The throttle spec itself is served by its own family's template.
        let own = ExactBackend::run_with_template(&template, &throttle).unwrap();
        assert!(own.detection.is_some());
    }

    #[test]
    fn spn_sim_agrees_with_exact_within_ci() {
        let exact_spec = hot_spec(BackendKind::Exact);
        let exact = backend_for(BackendKind::Exact)
            .run(&exact_spec, &RunBudget::default())
            .unwrap();
        let mut sim_spec = hot_spec(BackendKind::SpnSim);
        sim_spec.stochastic.sampling = SamplingPlan::Fixed(3000);
        sim_spec.stochastic.confidence = 0.99;
        let sim = backend_for(BackendKind::SpnSim)
            .run(&sim_spec, &RunBudget::default())
            .unwrap();
        let (lo, hi) = sim.mttsf.ci.unwrap();
        assert!(
            lo <= exact.mttsf.value && exact.mttsf.value <= hi,
            "exact {} outside sim CI [{lo}, {hi}]",
            exact.mttsf.value
        );
    }

    #[test]
    fn attrition_is_counted_apart_from_c2() {
        // Neither DES driver can evict its last live node, so attrition
        // endings come from the token game; the shared sink must still
        // count them as attrition, not as C2 failures.
        let mut sink = StochasticSink::new(&hot_spec(BackendKind::SpnSim));
        for _ in 0..4 {
            sink.record(Ok(Rep::basic(5.0, 1.0, FailureCause::Attrition)));
        }
        assert_eq!((sink.other, sink.c2), (4, 0));
        assert_eq!(sink.mttsf.count(), 4);
    }

    #[test]
    fn zero_duration_replications_are_censored_at_zero_not_averaged() {
        // A zero-length run observes nothing: its cost rate of 0.0 is a
        // placeholder. Averaging those zeros would silently drag the cost
        // mean down; they are counted as censored-at-zero and excluded.
        let spec = hot_spec(BackendKind::Des);
        let mut sink = StochasticSink::new(&spec);
        for _ in 0..6 {
            sink.record(Ok(Rep::basic(0.0, 0.0, FailureCause::Censored)));
        }
        assert_eq!((sink.zero_duration, sink.censored), (6, 6));
        assert_eq!(sink.cost_rate.count(), 0, "no cost observation exists");
        assert_eq!(sink.mttsf.count(), 0);
        let report = sink.into_report(&spec, BackendKind::Des, 6, None, 0.0);
        assert_eq!((report.zero_duration, report.censored), (Some(6), Some(6)));
        assert!(report.c_total.value.is_nan() && report.mttsf.value.is_nan());
        // and a normal run reports none
        let report = backend_for(BackendKind::Des)
            .run(&spec, &RunBudget::default())
            .unwrap();
        assert_eq!(report.zero_duration, Some(0));
        assert!(report.c_total.value > 0.0);
    }

    /// The failure counts behind a stochastic report's split are whole
    /// numbers that, with the censored replications, account for every
    /// replication.
    fn assert_split_covers_uncensored(report: &RunReport) {
        let n = report.replications.unwrap();
        let ended = (n - report.censored.unwrap()) as f64;
        assert!(ended > 0.0, "{report:?}");
        let f = report.failure;
        let counts = [f.p_c1, f.p_c2, f.p_other].map(|p| p * ended);
        for c in counts {
            assert!((c - c.round()).abs() < 1e-9, "{c} of {ended}: {f:?}");
        }
        assert_eq!(counts.iter().map(|c| c.round()).sum::<f64>(), ended);
    }

    #[test]
    fn replication_stats_aggregate() {
        let mut spec = hot_spec(BackendKind::Des);
        spec.stochastic.sampling = SamplingPlan::Fixed(30);
        let report = backend_for(BackendKind::Des)
            .run(&spec, &RunBudget::default())
            .unwrap();
        assert_eq!(report.replications, Some(30));
        assert_split_covers_uncensored(&report);
        assert!(report.c_total.value > 0.0);
    }

    #[test]
    fn replications_aggregate() {
        let mut spec = hot_spec(BackendKind::MobilityDes);
        spec.stochastic.sampling = SamplingPlan::Fixed(8);
        let report = backend_for(BackendKind::MobilityDes)
            .run(&spec, &RunBudget::default())
            .unwrap();
        assert_eq!(report.replications, Some(8));
        assert_split_covers_uncensored(&report);
    }

    #[test]
    fn per_replication_outcomes_replay_backend_run_on_every_task_kind() {
        // Forty replications fit in one executor chunk, so Backend::run
        // records them in index order: folding the per-replication
        // outcomes into a fresh sink must rebuild its report byte for byte.
        let topo = gcsids::config::ClusterTopology {
            clusters: 3,
            failure_threshold: 2,
        };
        let burst = scenario::ScenarioConfig {
            attacker: scenario::AttackerStrategy::Burst {
                on_rate: 1.0 / 5_000.0,
                off_rate: 1.0 / 5_000.0,
                multiplier: 6.0,
            },
            response: scenario::ResponsePolicy::Evict,
        };
        let mut specs = vec![
            hot_spec(BackendKind::SpnSim),
            hot_spec(BackendKind::Des),
            hot_spec(BackendKind::MobilityDes),
        ];
        for kind in [BackendKind::SpnSim, BackendKind::Des] {
            specs.push(hot_spec(kind).with_clusters(topo));
            specs.push(hot_spec(kind).with_scenario(burst));
        }
        for mut spec in specs {
            spec.mission_times = vec![0.0, 20_000.0, 80_000.0];
            let mut sink = StochasticSink::new(&spec);
            for rep in per_replication_outcomes(&spec, 40).unwrap() {
                sink.record(Ok(rep));
            }
            let folded = sink.into_report(&spec, spec.backend, 40, None, 0.0);
            let mut run = backend_for(spec.backend)
                .run(&spec, &RunBudget::default())
                .unwrap();
            run.wall_seconds = 0.0;
            assert_eq!(
                folded.to_json(),
                run.to_json(),
                "{} clustered={:?} scenario={:?}",
                spec.name,
                spec.clustered,
                spec.scenario
            );
        }
    }
}
