//! Batched scenario execution with explore-once-solve-many for the exact
//! backend.
//!
//! [`Runner::run_batch`] partitions a batch by backend. Flat exact specs
//! are further grouped by their structural key (`node_count`,
//! `max_groups`): each group explores its state space **once** into an
//! [`ExactTemplate`] and every member solves on it, in parallel on
//! [`numerics::exec`]. Scenario and clustered exact specs, and stochastic
//! specs, run one-by-one through their backend (a scenario spec on a
//! one-use template; each stochastic run already parallelizes across its
//! replications). Report order matches spec order.

use crate::backend::{backend_for, BatchProgress, ExactBackend, RunBudget};
use crate::error::EngineError;
use crate::report::RunReport;
use crate::service::TemplateCache;
use crate::spec::{BackendKind, ScenarioSpec};
use gcsids::metrics::ExactTemplate;
use numerics::exec;
use spn::reach::ExploreOptions;
use std::sync::Arc;

/// Executes scenario specs against their backends.
///
/// Every runner owns a [`TemplateCache`] shared by its cache-aware entry
/// points ([`Runner::run_cached`], [`Runner::run_batch`]); cloning a
/// runner shares the cache, and [`Runner::with_cache`] wires an external
/// one in (the service loop's cross-request cache).
#[derive(Debug, Clone, Default)]
pub struct Runner {
    /// Budget applied to every run.
    pub budget: RunBudget,
    cache: Arc<TemplateCache>,
}

impl Runner {
    /// Runner with the default budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runner with an explicit budget.
    pub fn with_budget(budget: RunBudget) -> Self {
        Self {
            budget,
            cache: Arc::default(),
        }
    }

    /// Runner sharing an externally owned template cache (the service
    /// loop's cross-request cache).
    pub fn with_cache(budget: RunBudget, cache: Arc<TemplateCache>) -> Self {
        Self { budget, cache }
    }

    /// The template cache this runner consults.
    pub fn cache(&self) -> &Arc<TemplateCache> {
        &self.cache
    }

    fn explore_options(&self) -> ExploreOptions {
        ExploreOptions {
            max_states: self.budget.max_states,
            ..Default::default()
        }
    }

    /// Run one scenario without touching the template cache.
    ///
    /// # Errors
    /// Propagates spec validation and backend failures.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<RunReport, EngineError> {
        backend_for(spec.backend).run(spec, &self.budget)
    }

    /// Run one scenario through the template cache: flat exact specs
    /// resolve their structural family against the cache (hit or miss)
    /// and solve on the memoized template; everything else bypasses (a
    /// scenario spec then solves on a one-use template). The
    /// report carries the cache telemetry in
    /// [`RunReport::template_cache`]. Results are bit-identical to
    /// [`Runner::run`] up to `wall_seconds` and that field.
    ///
    /// # Errors
    /// Propagates spec validation and backend failures.
    pub fn run_cached(&self, spec: &ScenarioSpec) -> Result<RunReport, EngineError> {
        self.run_cached_observed(spec, &mut |_| {})
    }

    /// [`Runner::run_cached`] with incremental sampling-progress
    /// observation on the stochastic backends (see
    /// [`crate::Backend::run_observed`]).
    ///
    /// # Errors
    /// Propagates spec validation and backend failures.
    pub fn run_cached_observed(
        &self,
        spec: &ScenarioSpec,
        progress: &mut dyn FnMut(BatchProgress),
    ) -> Result<RunReport, EngineError> {
        spec.validate()?;
        let (template, outcome) = self.cache.lookup(spec, &self.explore_options())?;
        let mut report = match template {
            Some(t) => ExactBackend::run_with_template(&t, spec)?,
            None => backend_for(spec.backend).run_observed(spec, &self.budget, progress)?,
        };
        report.template_cache = Some(self.cache.info(outcome));
        Ok(report)
    }

    /// Run a batch with **per-spec error isolation**: every spec produces
    /// either a report or its own error, in spec order — one malformed or
    /// failing spec never aborts the rest (satellite-1 semantics). Exact
    /// structural families resolve through the template cache (explore
    /// once, solve many, shared across batches on the same runner) and
    /// solve in parallel; stochastic specs run sequentially because each
    /// already fans out across replications.
    pub fn try_batch(&self, specs: &[ScenarioSpec]) -> Vec<Result<RunReport, EngineError>> {
        let opts = self.explore_options();
        // Resolve every cache lookup up front, sequentially: counters and
        // hit/miss attribution stay deterministic in spec order.
        let lookups: Vec<Result<crate::service::CacheLookup, EngineError>> = specs
            .iter()
            .map(|spec| {
                spec.validate()?;
                self.cache.lookup(spec, &opts)
            })
            .collect();

        let mut slots: Vec<Option<Result<RunReport, EngineError>>> =
            specs.iter().map(|_| None).collect();

        // Exact template solves in parallel.
        let templated: Vec<(usize, &ScenarioSpec, &Arc<ExactTemplate>)> = specs
            .iter()
            .enumerate()
            .filter_map(|(i, spec)| match &lookups[i] {
                Ok((Some(t), _)) => Some((i, spec, t)),
                _ => None,
            })
            .collect();
        let solved = exec::map(templated, |(i, spec, template)| {
            (i, ExactBackend::run_with_template(template, spec))
        });
        for (i, result) in solved {
            slots[i] = Some(result);
        }

        for (i, spec) in specs.iter().enumerate() {
            let outcome = match &lookups[i] {
                Err(e) => {
                    slots[i] = Some(Err(e.clone()));
                    continue;
                }
                Ok((_, outcome)) => *outcome,
            };
            if slots[i].is_none() {
                // Bypassed specs (stochastic backends, scenario and
                // clustered exact).
                slots[i] = Some(backend_for(spec.backend).run(spec, &self.budget));
            }
            if let Some(Ok(report)) = &mut slots[i] {
                report.template_cache = Some(self.cache.info(outcome));
            }
        }
        slots
            .into_iter()
            // detlint::allow(R001): loop invariant — the fill loop above assigns every index exactly once, independent of spec contents
            .map(|r| r.expect("every slot filled"))
            .collect()
    }

    /// Run a batch, sharing one state-space exploration across all exact
    /// scenarios with the same structural family. Reports come back in
    /// spec order; the first error (in spec order) aborts the batch — use
    /// [`Runner::try_batch`] to keep going past per-spec failures.
    ///
    /// # Errors
    /// Propagates spec validation and backend failures.
    pub fn run_batch(&self, specs: &[ScenarioSpec]) -> Result<Vec<RunReport>, EngineError> {
        for spec in specs {
            spec.validate()?;
        }
        self.try_batch(specs).into_iter().collect()
    }
}

/// Cartesian scenario-grid expander: one base spec crossed with any subset
/// of sweep axes. Empty axes keep the base value.
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    /// Template spec; axis values overwrite its corresponding knobs.
    pub base: ScenarioSpec,
    /// Base detection intervals `T_IDS` (s).
    pub tids: Vec<f64>,
    /// Vote-participant counts `m`.
    pub vote_participants: Vec<u32>,
    /// Detection shapes.
    pub detection_shapes: Vec<ids::functions::RateShape>,
    /// Attacker base rates `λc` (1/s).
    pub attacker_rates: Vec<f64>,
    /// Backends to run every point on.
    pub backends: Vec<BackendKind>,
}

impl ScenarioGrid {
    /// Grid with no axes (expands to just `base`).
    pub fn new(base: ScenarioSpec) -> Self {
        Self {
            base,
            tids: Vec::new(),
            vote_participants: Vec::new(),
            detection_shapes: Vec::new(),
            attacker_rates: Vec::new(),
            backends: Vec::new(),
        }
    }

    /// Sweep the detection interval.
    pub fn tids(mut self, grid: &[f64]) -> Self {
        self.tids = grid.to_vec();
        self
    }

    /// Sweep the vote-participant count.
    pub fn vote_participants(mut self, ms: &[u32]) -> Self {
        self.vote_participants = ms.to_vec();
        self
    }

    /// Sweep the detection shape.
    pub fn detection_shapes(mut self, shapes: &[ids::functions::RateShape]) -> Self {
        self.detection_shapes = shapes.to_vec();
        self
    }

    /// Sweep the attacker base rate.
    pub fn attacker_rates(mut self, rates: &[f64]) -> Self {
        self.attacker_rates = rates.to_vec();
        self
    }

    /// Run every point on each of these backends.
    pub fn backends(mut self, kinds: &[BackendKind]) -> Self {
        self.backends = kinds.to_vec();
        self
    }

    /// Expand to the full cartesian product of the populated axes.
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        // Each axis contributes `None` (keep base) when empty.
        let opts = |n: usize| -> Vec<Option<usize>> {
            if n == 0 {
                vec![None]
            } else {
                (0..n).map(Some).collect()
            }
        };
        let mut out = Vec::new();
        for backend in opts(self.backends.len()) {
            for &m in &opts(self.vote_participants.len()) {
                for &shape in &opts(self.detection_shapes.len()) {
                    for &rate in &opts(self.attacker_rates.len()) {
                        for &tid in &opts(self.tids.len()) {
                            let mut spec = self.base.clone();
                            let mut label = spec.name.clone();
                            if let Some(b) = backend {
                                spec.backend = self.backends[b];
                                label.push_str(&format!("/{}", spec.backend.name()));
                            }
                            if let Some(i) = m {
                                let v = self.vote_participants[i];
                                spec.system = spec.system.with_vote_participants(v);
                                label.push_str(&format!("/m={v}"));
                            }
                            if let Some(i) = shape {
                                let s = self.detection_shapes[i];
                                spec.system = spec.system.with_detection_shape(s);
                                label.push_str(&format!("/det={}", s.name()));
                            }
                            if let Some(i) = rate {
                                spec.system.attacker.base_rate = self.attacker_rates[i];
                                label
                                    .push_str(&format!("/lambda_c={:.3e}", self.attacker_rates[i]));
                            }
                            if let Some(i) = tid {
                                let t = self.tids[i];
                                spec.system = spec.system.with_tids(t);
                                label.push_str(&format!("/tids={t}"));
                            }
                            spec.name = label;
                            out.push(spec);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SamplingPlan;
    use gcsids::config::SystemConfig;
    use ids::functions::RateShape;

    fn small_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::paper_default(BackendKind::Exact);
        spec.name = "small".into();
        spec.system.node_count = 12;
        spec.system.vote_participants = 3;
        spec
    }

    #[test]
    fn grid_expansion_counts_and_labels() {
        let specs = ScenarioGrid::new(small_spec())
            .tids(&[30.0, 120.0, 480.0])
            .vote_participants(&[3, 5])
            .expand();
        assert_eq!(specs.len(), 6);
        assert!(specs[0].name.contains("m=3"));
        assert!(specs[0].name.contains("tids=30"));
        assert_eq!(specs[3].system.vote_participants, 5);
        assert_eq!(specs[4].system.detection.base_interval, 120.0);
    }

    #[test]
    fn empty_grid_expands_to_base() {
        let specs = ScenarioGrid::new(small_spec()).expand();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0], small_spec());
    }

    #[test]
    fn batch_matches_individual_runs() {
        let runner = Runner::new();
        let specs = ScenarioGrid::new(small_spec())
            .tids(&[30.0, 120.0])
            .detection_shapes(&RateShape::all())
            .expand();
        assert_eq!(specs.len(), 6);
        let batched = runner.run_batch(&specs).unwrap();
        for (spec, batch_report) in specs.iter().zip(&batched) {
            let solo = runner.run(spec).unwrap();
            let rel = (batch_report.mttsf.value - solo.mttsf.value).abs() / solo.mttsf.value;
            assert!(rel < 1e-9, "{}: {rel}", spec.name);
            assert_eq!(batch_report.scenario, spec.name);
        }
    }

    #[test]
    fn batched_exact_survival_matches_solo() {
        // The batched (reweighted-template) transient solve must agree with
        // the standalone freshly-explored one.
        let mut a = small_spec();
        a.mission_times = vec![0.0, 5.0e4, 2.0e5];
        let mut b = a.clone();
        b.system = b.system.with_tids(30.0);
        b.name = "small/t30".into();
        let reports = Runner::new().run_batch(&[a.clone(), b]).unwrap();
        let solo = Runner::new().run(&a).unwrap();
        let batched = reports[0].survival.as_ref().unwrap();
        let fresh = solo.survival.as_ref().unwrap();
        for ((t1, e1), (t2, e2)) in batched.iter().zip(fresh) {
            assert_eq!(t1, t2);
            assert!(
                (e1.value - e2.value).abs() < 1e-9,
                "{batched:?} vs {fresh:?}"
            );
        }
        assert!(reports[1].survival.as_ref().unwrap()[0].1.value >= 0.999);
    }

    #[test]
    fn batch_mixes_backends() {
        let mut exact = small_spec();
        exact.system.attacker.base_rate = 1.0 / 600.0;
        let mut des = exact.clone();
        des.backend = BackendKind::Des;
        des.name = "small/des".into();
        des.stochastic.sampling = SamplingPlan::Fixed(20);
        des.stochastic.max_time = 200_000.0;
        let reports = Runner::new()
            .run_batch(&[exact.clone(), des.clone()])
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].backend, BackendKind::Exact);
        assert_eq!(reports[1].backend, BackendKind::Des);
        assert_eq!(reports[1].replications, Some(20));
    }

    #[test]
    fn batch_groups_by_structure() {
        // Two structural families in one batch: both must evaluate
        // correctly (each family explored once).
        let mut a = small_spec();
        a.name = "n12".into();
        let mut b = small_spec();
        b.system.node_count = 14;
        b.name = "n14".into();
        let reports = Runner::new().run_batch(&[a, b]).unwrap();
        assert!(reports[0].state_count.unwrap() < reports[1].state_count.unwrap());
    }

    #[test]
    fn batch_routes_clustered_exact_specs_around_the_template_cache() {
        let topo = gcsids::config::ClusterTopology {
            clusters: 3,
            failure_threshold: 2,
        };
        // Fast-failing system: the clustered solve composes over the
        // cluster lifetime, so a paper-default (year-scale) MTTSF would
        // make this test needlessly slow.
        let mut hot = small_spec();
        hot.system.attacker.base_rate = 1.0 / 600.0;
        hot.system.detection = hot.system.detection.with_interval(120.0);
        let mut clustered = hot.clone().with_clusters(topo);
        clustered.name = "small/clustered".into();
        let reports = Runner::new().run_batch(&[hot, clustered.clone()]).unwrap();
        assert_eq!(reports[0].lumping_reduction, None);
        assert!(reports[1].lumping_reduction.unwrap() > 1.0);
        assert!(reports[1].mttsf.value > 0.0);
        // batched result identical to the solo run (same evaluation path)
        let solo = Runner::new().run(&clustered).unwrap();
        assert_eq!(solo.mttsf.value, reports[1].mttsf.value);
    }

    #[test]
    fn invalid_spec_aborts_batch() {
        let mut bad = small_spec();
        bad.system.node_count = 0;
        assert!(Runner::new().run_batch(&[small_spec(), bad]).is_err());
    }

    #[test]
    fn try_batch_isolates_per_spec_failures() {
        // Regression (satellite 1): one bad spec must not take down the
        // batch — every other spec still gets its report.
        let mut bad = small_spec();
        bad.system.node_count = 0;
        let mut other = small_spec();
        other.system = other.system.with_tids(30.0);
        other.name = "small/t30".into();
        let results = Runner::new().try_batch(&[small_spec(), bad, other]);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        // failing specs keep order; good reports match the strict batch
        let strict = Runner::new().run_batch(&[small_spec()]).unwrap();
        assert_eq!(
            results[0].as_ref().unwrap().mttsf.value,
            strict[0].mttsf.value
        );
    }

    #[test]
    fn clustered_spec_never_hits_a_flat_family_template() {
        // Clustered specs bypass the cache before they are keyed, so a
        // flat-family entry warmed first can never serve a clustered spec
        // with the same (node_count, max_groups).
        use crate::report::CacheOutcome;
        let topo = gcsids::config::ClusterTopology {
            clusters: 3,
            failure_threshold: 2,
        };
        let mut flat = small_spec();
        flat.system.attacker.base_rate = 1.0 / 600.0;
        flat.system.detection = flat.system.detection.with_interval(120.0);
        let mut clustered = flat.clone().with_clusters(topo);
        clustered.name = "small/clustered".into();

        let runner = Runner::new();
        // warm the flat family
        let warm = runner.run_cached(&flat).unwrap();
        assert_eq!(warm.template_cache.unwrap().outcome, CacheOutcome::Miss);
        // the clustered spec must bypass, not hit the stale flat entry
        let report = runner.run_cached(&clustered).unwrap();
        let info = report.template_cache.unwrap();
        assert_eq!(info.outcome, CacheOutcome::Bypass);
        assert_eq!(info.hits, 0);
        // and it solved the real clustered chain (lumping stats prove it)
        assert!(report.lumping_reduction.unwrap() > 1.0);
        let solo = runner.run(&clustered).unwrap();
        assert_eq!(report.mttsf.value, solo.mttsf.value);
    }

    #[test]
    fn cache_persists_across_batches_on_one_runner() {
        let runner = Runner::new();
        let first = runner.run_batch(&[small_spec()]).unwrap();
        assert_eq!(
            first[0].template_cache.unwrap().outcome,
            crate::report::CacheOutcome::Miss
        );
        // same family again, new batch: served from the warm cache
        let mut again = small_spec();
        again.system = again.system.with_tids(30.0);
        let second = runner.run_batch(&[again]).unwrap();
        let info = second[0].template_cache.unwrap();
        assert_eq!(info.outcome, crate::report::CacheOutcome::Hit);
        assert_eq!((info.hits, info.misses, info.entries), (1, 1, 1));
    }

    #[test]
    fn run_cached_matches_run_up_to_telemetry() {
        let runner = Runner::new();
        let spec = small_spec();
        let mut cached = runner.run_cached(&spec).unwrap();
        let mut plain = runner.run(&spec).unwrap();
        assert!(cached.template_cache.is_some());
        assert!(plain.template_cache.is_none());
        cached.template_cache = None;
        cached.wall_seconds = 0.0;
        plain.wall_seconds = 0.0;
        assert_eq!(cached, plain);
    }

    #[test]
    fn budget_flows_through_runner() {
        let runner = Runner::with_budget(RunBudget {
            max_states: 3,
            ..Default::default()
        });
        let err = runner.run_batch(&[small_spec()]);
        assert!(err.is_err());
    }

    #[test]
    fn grid_backend_axis() {
        let _ = SystemConfig::paper_default();
        let specs = ScenarioGrid::new(small_spec())
            .backends(&[BackendKind::Exact, BackendKind::Des])
            .tids(&[60.0])
            .expand();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].backend, BackendKind::Exact);
        assert_eq!(specs[1].backend, BackendKind::Des);
    }
}
