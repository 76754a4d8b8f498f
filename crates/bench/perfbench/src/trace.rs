//! The traced run. It calls, in order, the same public functions the
//! engine calls for each request — `build_model` / `build_scenario_model`,
//! `explore`, `CtmcTemplate::new` and `refresh`, `reweight_in_place`,
//! `mean_time_to_absorption`, the reward builders,
//! `survival_curve_with_stats`, and `Simulator::run_one` / `run_des` /
//! `run_mobility_des` under `run_plan` — with a span around each call.
//! Spans live only in this package: the program under test is untouched.
//! Where a layer has no public entry point the nearest public composite is
//! timed and named so (`scenario.solve`, `clustered.solve`, and
//! `replicate.plan` for stochastic drain jobs).
//!
//! Each traced decomposition must reproduce its untraced report bit for
//! bit (MTTSF, Ĉtotal, survival and counts); a mismatch is a failed
//! operation, so the copy below cannot drift from the real path unseen.

use crate::inputs::{self, Request};
use crate::measure::{nproc, secs, single_threaded, Cpu, Outcome};
use crate::reference::{normalized, Reference};
use crate::workloads::{self, call, compare_json, drain_once, work_dir};
use crate::Args;
use engine::{
    backend_for, BackendKind, ComparisonReport, DetectionInfo, Estimate, FailureSplit, RunBudget,
    RunReport, Runner, SamplingPlan, ScenarioSpec, TransientInfo,
};
use gcsids::clustered::evaluate_clustered_with_survival;
use gcsids::cost::{cost_breakdown, CostBreakdown};
use gcsids::des::{run_des, DesConfig, FailureCause};
use gcsids::des_mobility::{run_mobility_des, MobilityDesConfig};
use gcsids::metrics::{eviction_impulses, total_cost_reward, Evaluation};
use gcsids::model::{build_model, population, GcsIdsModel, Places};
use gcsids::{build_scenario_model, evaluate_scenario_graph, DetectionTotals};
use numerics::replicate::{run_plan, OutcomeSink, Replicate};
use numerics::rng::child_seed;
use numerics::stats::Welford;
use spn::ctmc::{AbsorptionAnalysis, Ctmc, CtmcTemplate, TransientOptions};
use spn::reach::{explore, ExploreOptions, ReachabilityGraph};
use spn::reward::RewardSet;
use spn::sim::{SimOptions, SimOutcome, Simulator};
use spn::transient::TransientStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
struct Span {
    layer: &'static str,
    /// Operation (request) the span belongs to.
    op: u32,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// In-memory span recorder; written out once the run ends.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn span<T>(&mut self, layer: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            op: self.op,
            parent: self.open.last().copied(),
            start: secs(self.t0),
            end: 0.0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = secs(self.t0);
        out
    }

    /// One request: an `op` span whose self time is the part of the
    /// request no layer span covers (the unattributed remainder).
    fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op += 1;
        self.span("op", f)
    }

    /// Record spans measured elsewhere (per-replication timings) as
    /// children of the innermost open span.
    fn children(&mut self, layer: &'static str, times: Vec<(f64, f64)>) {
        let parent = self.open.last().copied();
        for (start, end) in times {
            self.spans.push(Span {
                layer,
                op: self.op,
                parent,
                start,
                end,
            });
        }
    }

    /// Self time (s) and call count per layer.
    fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let e = out.entry(s.layer).or_default();
            e.0 += s.end - s.start - c;
            e.1 += 1;
        }
        out
    }

    /// Write the spans as JSON lines (one span per line).
    fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"op\":{},\"layer\":\"{}\",\"parent\":{parent},\"start\":{:?},\"end\":{:?}}}",
                s.op, s.layer, s.start, s.end
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("trace dir: {e}"))?;
        }
        std::fs::write(path, text).map_err(|e| format!("trace write: {e}"))
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Counters gathered while tracing, reported next to the self times.
#[derive(Default)]
struct Counts {
    reach_states: f64,
    reach_edges: f64,
    scenario_states: f64,
    clustered_states: f64,
    transient: Option<TransientStats>,
    transient_nnz: f64,
}

/// One cached family of the traced exact path: the pristine exploration,
/// the shared CSR pattern, and one re-weightable working copy — the same
/// pieces `gcsids::metrics::ExactTemplate` keeps.
struct Family {
    pristine: ReachabilityGraph,
    pattern: CtmcTemplate,
    graph: ReachabilityGraph,
    ctmc: Ctmc,
}

/// The traced counterpart of a `Runner` with its template cache.
#[derive(Default)]
struct TracedRunner {
    families: BTreeMap<(u32, u32), Family>,
    counts: Counts,
}

fn explore_options() -> ExploreOptions {
    ExploreOptions {
        max_states: RunBudget::default().max_states,
        ..Default::default()
    }
}

/// Cost rewards, eviction impulses and the failure split on an absorbed
/// chain — the reward half of the exact evaluation.
fn rewards(
    model: &GcsIdsModel,
    graph: &ReachabilityGraph,
    absorption: &AbsorptionAnalysis,
) -> Result<Evaluation, String> {
    let cfg = &model.config;
    let places = model.places;
    let rate_components: Vec<CostBreakdown> = graph
        .states
        .iter()
        .map(|m| cost_breakdown(cfg, &population(&places, m)))
        .collect();
    let mut impulse_rates = vec![0.0; graph.state_count()];
    for imp in eviction_impulses(model).map_err(err)? {
        for (acc, v) in impulse_rates
            .iter_mut()
            .zip(imp.per_state(&model.net, graph))
        {
            *acc += v;
        }
    }
    let mttsf = absorption.mtta;
    let mut accumulated = CostBreakdown::default();
    let mut accumulated_impulse = 0.0;
    for (i, sojourn) in absorption.sojourn.iter().enumerate() {
        if *sojourn > 0.0 {
            accumulated = accumulated.add(&rate_components[i].scale(*sojourn));
            accumulated_impulse += impulse_rates[i] * sojourn;
        }
    }
    accumulated.rekey += accumulated_impulse;
    let components = if mttsf > 0.0 {
        accumulated.scale(1.0 / mttsf)
    } else {
        CostBreakdown::default()
    };
    let (mut p_c1, mut p_c2) = (0.0, 0.0);
    for (i, &p) in absorption.absorption_probability.iter().enumerate() {
        if p <= 0.0 {
            continue;
        }
        if graph.states[i].tokens(places.gf) > 0 {
            p_c1 += p;
        } else {
            p_c2 += p;
        }
    }
    Ok(Evaluation {
        mttsf_seconds: mttsf,
        c_total_hop_bits_per_sec: components.total(),
        cost_components: components,
        p_failure_c1: p_c1,
        p_failure_c2: p_c2,
        state_count: graph.state_count(),
        edge_count: graph.edge_count(),
        transient: None,
    })
}

/// Nonzeros of the transient block of the uniformized chain (off-diagonal
/// transient→transient pairs plus the diagonal): computed from the graph,
/// not read from the kernel.
fn transient_nnz(graph: &ReachabilityGraph) -> f64 {
    let live: Vec<bool> = (0..graph.state_count())
        .map(|s| graph.exit_rate(s) > 0.0)
        .collect();
    let mut nnz = 0usize;
    for (s, edges) in graph.edges.iter().enumerate() {
        if !live[s] {
            continue;
        }
        let mut targets: Vec<u32> = edges
            .iter()
            .map(|e| e.target)
            .filter(|&t| live[t as usize] && t as usize != s)
            .collect();
        targets.sort_unstable();
        targets.dedup();
        nnz += targets.len() + 1;
    }
    nnz as f64
}

/// The exact report of an evaluation, as the exact backend assembles it.
fn exact_report(spec: &ScenarioSpec, e: &Evaluation, survival: Option<Vec<f64>>) -> RunReport {
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
        wall_seconds: 0.0,
        template_cache: None,
        transient: e.transient.as_ref().map(|s| TransientInfo {
            matvecs: s.matvecs,
            detection_step: s.detection_step,
            early_exit: s.early_exit,
            transient_states: u64::from(s.transient_states),
            absorbing_states: u64::from(s.absorbing_states),
        }),
        detection: None,
    }
}

fn ratio_or_nan(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::NAN
    }
}

fn exact_detection(t: &DetectionTotals) -> DetectionInfo {
    DetectionInfo {
        compromises: Estimate::exact(t.compromises),
        detections: Estimate::exact(t.detections),
        false_alarms: Estimate::exact(t.false_alarms),
        fp_rate: ratio_or_nan(t.false_alarms, t.detections + t.false_alarms),
        fn_rate: if t.compromises > 0.0 {
            (1.0 - t.detections / t.compromises).max(0.0)
        } else {
            f64::NAN
        },
        lead_time: Estimate::exact(f64::NAN),
        lead_time_observations: 0,
    }
}

impl TracedRunner {
    /// A flat exact spec on the template path: explore and build the
    /// pattern once per structural family, then re-weight, refresh,
    /// absorb, reward and (with a grid) propagate per request.
    fn exact_flat(&mut self, tr: &mut Tracer, spec: &ScenarioSpec) -> Result<RunReport, String> {
        let key = (spec.system.node_count, spec.system.max_groups);
        if !self.families.contains_key(&key) {
            let model = tr.span("model.build", |_| build_model(&spec.system));
            let pristine = tr
                .span("reach.explore", |_| explore(&model.net, &explore_options()))
                .map_err(err)?;
            self.counts.reach_states = pristine.state_count() as f64;
            self.counts.reach_edges = pristine.edge_count() as f64;
            let (pattern, ctmc) = tr
                .span("ctmc.pattern", |_| {
                    let pattern = CtmcTemplate::new(&pristine)?;
                    let ctmc = pattern.instantiate(&pristine)?;
                    Ok::<_, spn::SpnError>((pattern, ctmc))
                })
                .map_err(err)?;
            let graph = pristine.clone();
            self.families.insert(
                key,
                Family {
                    pristine,
                    pattern,
                    graph,
                    ctmc,
                },
            );
        }
        let fam = self.families.get_mut(&key).expect("inserted above");
        spec.system.validate().map_err(err)?;
        let model = tr.span("model.build", |_| build_model(&spec.system));
        tr.span("ctmc.reweight", |_| {
            fam.graph.copy_rates_from(&fam.pristine);
            fam.graph.reweight_in_place(&model.net)
        })
        .map_err(err)?;
        tr.span("ctmc.refresh", |_| {
            fam.pattern.refresh(&fam.graph, &mut fam.ctmc)
        })
        .map_err(err)?;
        let absorption = tr
            .span("ctmc.absorb", |_| fam.ctmc.mean_time_to_absorption())
            .map_err(err)?;
        let mut e = tr.span("rewards", |_| rewards(&model, &fam.graph, &absorption))?;
        let survival = if spec.mission_times.is_empty() {
            None
        } else {
            let (curve, stats) = tr.span("transient", |_| {
                fam.ctmc
                    .survival_curve_with_stats(&spec.mission_times, &TransientOptions::default())
            });
            // Counters of the first mission request: fixed by the seed,
            // not by how many requests fit in the run.
            if self.counts.transient.is_none() {
                self.counts.transient_nnz = transient_nnz(&fam.graph);
                self.counts.transient = Some(stats.clone());
            }
            e.transient = Some(stats);
            Some(curve)
        };
        Ok(exact_report(spec, &e, survival))
    }

    fn exact_scenario(
        &mut self,
        tr: &mut Tracer,
        spec: &ScenarioSpec,
    ) -> Result<RunReport, String> {
        let sc = spec.scenario.as_ref().expect("scenario spec");
        let model = tr.span("model.build", |_| build_scenario_model(&spec.system, sc));
        let graph = tr
            .span("reach.explore", |_| explore(&model.net, &explore_options()))
            .map_err(err)?;
        self.counts.scenario_states = graph.state_count() as f64;
        let (e, survival, totals) = tr
            .span("scenario.solve", |_| {
                evaluate_scenario_graph(&model, &graph, &spec.mission_times)
            })
            .map_err(err)?;
        let mut report = exact_report(spec, &e, survival);
        report.detection = Some(exact_detection(&totals));
        Ok(report)
    }

    fn exact_clustered(
        &mut self,
        tr: &mut Tracer,
        spec: &ScenarioSpec,
    ) -> Result<RunReport, String> {
        let topo = spec.clustered.as_ref().expect("clustered spec");
        let ce = tr
            .span("clustered.solve", |_| {
                evaluate_clustered_with_survival(
                    &spec.system,
                    topo,
                    &spec.mission_times,
                    &explore_options(),
                )
            })
            .map_err(err)?;
        self.counts.clustered_states = ce.stats.states as f64;
        let mut report = exact_report(spec, &ce.evaluation, ce.survival);
        report.lumping_reduction = Some(ce.stats.reduction);
        Ok(report)
    }

    /// One request, decoded and encoded as the service does it.
    fn call(&mut self, tr: &mut Tracer, json: &str) -> Result<String, String> {
        tr.op(|tr| {
            let spec = tr.span("engine.decode", |_| {
                let spec = ScenarioSpec::from_json(json)?;
                spec.validate()?;
                Ok::<_, engine::EngineError>(spec)
            });
            let spec = spec.map_err(err)?;
            let report = match spec.backend {
                BackendKind::Exact if spec.clustered.is_some() => self.exact_clustered(tr, &spec),
                BackendKind::Exact if spec.scenario.is_some() => self.exact_scenario(tr, &spec),
                BackendKind::Exact => self.exact_flat(tr, &spec),
                kind => tr.span("replicate.plan", |_| {
                    backend_for(kind)
                        .run(&spec, &RunBudget::default())
                        .map_err(err)
                }),
            }?;
            Ok(tr.span("engine.encode", |_| report.to_json()))
        })
    }
}

/// The common per-replication summary of the stochastic backends.
#[derive(Clone, Copy)]
struct Rep {
    time: f64,
    cost_rate: f64,
    cause: FailureCause,
}

/// The stochastic backends' aggregation for specs with no mission grid and
/// no scenario: MTTSF and cost moments, the failure split and censoring.
#[derive(Clone)]
struct Sink {
    mttsf: Welford,
    cost_rate: Welford,
    c1: u64,
    c2: u64,
    other: u64,
    censored: u64,
    zero_duration: u64,
    confidence: f64,
    error: Option<String>,
}

impl Sink {
    fn new(confidence: f64) -> Self {
        Self {
            mttsf: Welford::new(),
            cost_rate: Welford::new(),
            c1: 0,
            c2: 0,
            other: 0,
            censored: 0,
            zero_duration: 0,
            confidence,
            error: None,
        }
    }

    fn into_report(self, spec: &ScenarioSpec, replications: u64) -> Result<RunReport, String> {
        if let Some(e) = self.error {
            return Err(e);
        }
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
        Ok(RunReport {
            scenario: spec.name.clone(),
            backend: spec.backend,
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
            target_met: None,
            survival: None,
            wall_seconds: 0.0,
            template_cache: None,
            transient: None,
            detection: None,
        })
    }
}

impl OutcomeSink<Result<Rep, String>> for Sink {
    fn record(&mut self, outcome: Result<Rep, String>) {
        let rep = match outcome {
            Ok(rep) => rep,
            Err(e) => {
                self.error.get_or_insert(e);
                return;
            }
        };
        if rep.time <= 0.0 {
            self.zero_duration += 1;
            self.censored += 1;
            return;
        }
        self.cost_rate.push(rep.cost_rate);
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
        if self.error.is_none() {
            self.error = other.error;
        }
    }

    fn precision(&self) -> Option<f64> {
        if self.error.is_some() {
            return Some(0.0);
        }
        self.mttsf.relative_precision(self.confidence)
    }
}

/// How a single-system SPN replication ended, read off its final marking.
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

/// A simulator call wrapped with a per-replication timer.
struct Timed<F> {
    t0: Instant,
    run: F,
    reps: Mutex<Vec<(f64, f64)>>,
}

impl<F: Fn(u64) -> Result<Rep, String> + Sync> Replicate for Timed<F> {
    type Outcome = Result<Rep, String>;

    fn run_one(&self, seed: u64) -> Self::Outcome {
        let start = secs(self.t0);
        let out = (self.run)(seed);
        let end = secs(self.t0);
        self.reps
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((start, end));
        out
    }
}

/// A fixed-plan stochastic spec through `run_plan`, with each replication
/// timed. The plan runs at one thread, so the replication spans are the
/// sequential per-replication cost.
fn stochastic_traced(tr: &mut Tracer, json: &str) -> Result<String, String> {
    tr.op(|tr| {
        let spec = tr
            .span("engine.decode", |_| {
                let spec = ScenarioSpec::from_json(json)?;
                spec.validate()?;
                Ok::<_, engine::EngineError>(spec)
            })
            .map_err(err)?;
        let SamplingPlan::Fixed(n) = spec.stochastic.sampling else {
            return Err("stochastic workload plans are fixed".into());
        };
        let plan = numerics::replicate::SamplingPlan::Fixed(n);
        let master = spec.stochastic.master_seed;
        let confidence = spec.stochastic.confidence;
        let t0 = tr.t0;
        let completed = match spec.backend {
            BackendKind::SpnSim => {
                let (model, rewards) = tr
                    .span("model.build", |_| {
                        let model = build_model(&spec.system);
                        let mut rewards =
                            RewardSet::new().with_rate(total_cost_reward(&spec.system, &model));
                        for imp in eviction_impulses(&model)? {
                            rewards = rewards.with_impulse(imp);
                        }
                        Ok::<_, spn::SpnError>((model, rewards))
                    })
                    .map_err(err)?;
                let opts = SimOptions {
                    max_time: spec.stochastic.max_time,
                    ..Default::default()
                };
                let sim = Simulator::new(&model.net, &rewards, opts);
                let places = model.places;
                let task = Timed {
                    t0,
                    run: |seed| {
                        let o = sim.run_one(seed).map_err(err)?;
                        let hop_bits: f64 = o.accumulated.iter().sum();
                        let cost_rate = if o.time > 0.0 { hop_bits / o.time } else { 0.0 };
                        Ok(Rep {
                            time: o.time,
                            cost_rate,
                            cause: spn_cause(&places, &o),
                        })
                    },
                    reps: Mutex::new(Vec::new()),
                };
                let done = tr.span("replicate.plan", |tr| {
                    let done = run_plan(&task, &plan, master, || Sink::new(confidence));
                    let reps = std::mem::take(&mut *task.reps.lock().expect("rep timer"));
                    tr.children("spnsim.rep", reps);
                    done
                });
                done
            }
            BackendKind::Des => {
                let mut cfg = DesConfig::new(spec.system.clone());
                cfg.max_time = spec.stochastic.max_time;
                cfg.scenario = spec.scenario_or_baseline();
                let task = Timed {
                    t0,
                    run: |seed| {
                        let o = run_des(&cfg, seed);
                        Ok(Rep {
                            time: o.time,
                            cost_rate: o.mean_cost_rate,
                            cause: o.cause,
                        })
                    },
                    reps: Mutex::new(Vec::new()),
                };
                let done = tr.span("replicate.plan", |tr| {
                    let done = run_plan(&task, &plan, master, || Sink::new(confidence));
                    let reps = std::mem::take(&mut *task.reps.lock().expect("rep timer"));
                    tr.children("des.rep", reps);
                    done
                });
                done
            }
            BackendKind::MobilityDes => {
                let mut cfg = MobilityDesConfig::new(spec.system.clone());
                cfg.radio_range = spec.mobility.radio_range;
                cfg.dt = spec.mobility.dt;
                cfg.max_time = spec.stochastic.max_time;
                cfg.scenario = spec.scenario_or_baseline();
                let task = Timed {
                    t0,
                    run: |seed| {
                        let o = run_mobility_des(&cfg, seed);
                        let cost_rate = if o.time > 0.0 {
                            o.hop_bits / o.time
                        } else {
                            0.0
                        };
                        Ok(Rep {
                            time: o.time,
                            cost_rate,
                            cause: o.cause,
                        })
                    },
                    reps: Mutex::new(Vec::new()),
                };
                let done = tr.span("replicate.plan", |tr| {
                    let done = run_plan(&task, &plan, master, || Sink::new(confidence));
                    let reps = std::mem::take(&mut *task.reps.lock().expect("rep timer"));
                    tr.children("mobility.rep", reps);
                    done
                });
                done
            }
            BackendKind::Exact => return Err("exact spec in the stochastic workload".into()),
        };
        let report = completed.sink.into_report(&spec, completed.replications)?;
        Ok(tr.span("engine.encode", |_| report.to_json()))
    })
}

/// The paired comparison's inner loop: replication `i` of both arms under
/// `child_seed(master, i)`, sequentially, then the per-pair extremes.
fn paired_traced(
    tr: &mut Tracer,
    baseline: &str,
    variant: &str,
) -> Result<(u64, f64, f64), String> {
    tr.op(|tr| {
        let (b, v) = tr
            .span("engine.decode", |_| {
                let b = ScenarioSpec::from_json(baseline)?;
                let v = ScenarioSpec::from_json(variant)?;
                b.validate()?;
                v.validate()?;
                Ok::<_, engine::EngineError>((b, v))
            })
            .map_err(err)?;
        let SamplingPlan::Fixed(n) = b.stochastic.sampling else {
            return Err("paired comparison needs a fixed plan".into());
        };
        let arm = |tr: &mut Tracer, spec: &ScenarioSpec| -> Vec<(f64, f64)> {
            let mut cfg = DesConfig::new(spec.system.clone());
            cfg.max_time = spec.stochastic.max_time;
            cfg.scenario = spec.scenario_or_baseline();
            (0..n)
                .map(|i| {
                    tr.span("paired.rep", |_| {
                        let o = run_des(&cfg, child_seed(spec.stochastic.master_seed, i));
                        (o.time, o.mean_cost_rate)
                    })
                })
                .collect()
        };
        let rb = arm(tr, &b);
        let rv = arm(tr, &v);
        let (mut dt, mut dc) = (0.0f64, 0.0f64);
        for (x, y) in rb.iter().zip(&rv) {
            dt = dt.max((y.0 - x.0).abs());
            if x.0 > 0.0 && y.0 > 0.0 {
                dc = dc.max((y.1 - x.1).abs());
            }
        }
        Ok((n, dt, dc))
    })
}

/// A traced report must equal the untraced one bit for bit.
fn same(traced: &Result<String, String>, untraced: &str, what: &str) -> Result<(), String> {
    let traced = traced
        .as_ref()
        .map_err(|e| format!("{what} (traced): {e}"))?;
    if normalized(traced)? == normalized(untraced)? {
        Ok(())
    } else {
        Err(format!(
            "{what}: traced decomposition drifted from the report"
        ))
    }
}

/// Totals of one traced run, turned into the per-layer metrics.
#[derive(Default)]
struct Totals {
    /// Untraced and traced wall time of the same requests.
    untraced_s: f64,
    traced_s: f64,
    cpu: Option<Cpu>,
    cpu_wall: f64,
    cache: engine::CacheStats,
    service_jobs: f64,
    service_failed: f64,
    busy_frac: f64,
    overhead_s: f64,
    /// Sequential reps/s per simulator and the nproc-thread reps/s.
    efficiency: BTreeMap<&'static str, f64>,
    passes: usize,
}

impl Totals {
    fn add_cpu(&mut self, cpu: Cpu, wall: f64) {
        let c = self.cpu.get_or_insert(Cpu {
            user_s: 0.0,
            sys_s: 0.0,
        });
        c.user_s += cpu.user_s;
        c.sys_s += cpu.sys_s;
        self.cpu_wall += wall;
    }
}

/// Time `f` (untraced); with `cpu`, also count process CPU over it (only
/// for calls at the default thread count).
fn untraced<T>(tot: &mut Totals, cpu: bool, f: impl FnOnce() -> T) -> T {
    let cpu0 = Cpu::now();
    let t0 = Instant::now();
    let out = f();
    let wall = secs(t0);
    tot.untraced_s += wall;
    if cpu {
        tot.add_cpu(Cpu::now().since(cpu0), wall);
    }
    out
}

fn traced<T>(tot: &mut Totals, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    tot.traced_s += secs(t0);
    out
}

fn mission(args: &Args, out: &mut Outcome, tr: &mut Tracer, tot: &mut Totals) {
    let reqs = inputs::mission_requests(args.seed);
    let steady = Request::of(&inputs::mission_spec(None));
    let runner = Runner::new();
    let mut traced_runner = TracedRunner::default();
    out.check(call(&runner, &steady.json).map(|_| ()));
    out.check(traced_runner.call(tr, &steady.json).map(|_| ()));
    let t0 = Instant::now();
    let mut k = 0;
    while k == 0 || secs(t0) < args.seconds {
        let req = &reqs[k % reqs.len()];
        let a = untraced(tot, true, || call(&runner, &req.json));
        let b = traced(tot, || traced_runner.call(tr, &req.json));
        out.check(a.and_then(|a| same(&b, &a, &req.name)));
        k += 1;
    }
    tot.passes = k;
    tot.cache = runner.cache().stats();
    finish_exact(out, traced_runner.counts);
}

fn sweep(args: &Args, out: &mut Outcome, tr: &mut Tracer, tot: &mut Totals) {
    let reqs = inputs::sweep_requests(args.seed);
    let t0 = Instant::now();
    let mut k = 0;
    let mut counts = Counts::default();
    while k == 0 || secs(t0) < args.seconds {
        let runner = Runner::new();
        let mut traced_runner = TracedRunner::default();
        for req in &reqs {
            let a = untraced(tot, true, || call(&runner, &req.json));
            let b = traced(tot, || traced_runner.call(tr, &req.json));
            out.check(a.and_then(|a| same(&b, &a, &req.name)));
        }
        tot.cache = runner.cache().stats();
        counts = traced_runner.counts;
        k += 1;
    }
    tot.passes = k;
    finish_exact(out, counts);
}

/// Layer counters of the exact path.
fn finish_exact(out: &mut Outcome, c: Counts) {
    out.metric("reach.states", c.reach_states, "count", 1);
    out.metric("reach.edges", c.reach_edges, "count", 1);
    out.metric("scenario.states", c.scenario_states, "count", 1);
    out.metric("clustered.states", c.clustered_states, "count", 1);
    let t = c.transient.unwrap_or_default();
    out.metric("transient.matvecs", t.matvecs as f64, "count", 1);
    out.metric(
        "transient.states",
        f64::from(t.transient_states),
        "count",
        1,
    );
    out.metric("transient.nnz", c.transient_nnz, "count", 1);
    // -1: steady-state detection never fired.
    let step = t.detection_step.map_or(-1.0, |s| s as f64);
    out.metric("transient.detection_step", step, "count", 1);
    out.metric(
        "transient.early_exit",
        f64::from(u8::from(t.early_exit)),
        "count",
        1,
    );
}

fn stochastic(args: &Args, out: &mut Outcome, tr: &mut Tracer, tot: &mut Totals) {
    let round = inputs::stochastic_round(inputs::stochastic_master_seeds(args.seed)[0], 1);
    let runner = Runner::new();
    let plans = [
        ("spnsim", &round.spnsim, inputs::SPNSIM_REPS),
        ("des", &round.des, inputs::DES_REPS),
        ("mobility", &round.mobility, inputs::MOBILITY_REPS),
    ];
    let mut parallel_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut reps: BTreeMap<&'static str, f64> = BTreeMap::new();
    let t0 = Instant::now();
    let mut k = 0;
    while k == 0 || secs(t0) < args.seconds {
        for (name, req, n) in plans {
            // Default threads (the executor's parallel rate), then one
            // thread untraced and traced (the sequential cost and the
            // tracing overhead, like for like).
            let cpu0 = Cpu::now();
            let start = Instant::now();
            let par = call(&runner, &req.json);
            let wall = secs(start);
            tot.add_cpu(Cpu::now().since(cpu0), wall);
            *parallel_s.entry(name).or_default() += wall;
            *reps.entry(name).or_default() += n as f64;
            let a = single_threaded(|| untraced(tot, false, || call(&runner, &req.json)));
            let b = single_threaded(|| traced(tot, || stochastic_traced(tr, &req.json)));
            out.check(par.and_then(|p| {
                let a = a?;
                if normalized(&p)? != normalized(&a)? {
                    return Err(format!(
                        "{}: report differs between thread counts",
                        req.name
                    ));
                }
                same(&b, &a, &req.name)
            }));
        }
        let a = single_threaded(|| {
            untraced(tot, false, || {
                compare_json(&round.baseline.json, &round.burst.json)
            })
        });
        let b = single_threaded(|| {
            traced(tot, || {
                paired_traced(tr, &round.baseline.json, &round.burst.json)
            })
        });
        out.check(a.and_then(|a| {
            let r = ComparisonReport::from_json(&a).map_err(err)?;
            let b = b?;
            if (r.replications, r.max_abs_delta_time, r.max_abs_delta_cost) == b {
                Ok(())
            } else {
                Err("paired comparison: traced decomposition drifted".into())
            }
        }));
        k += 1;
    }
    tot.passes = k;
    tot.cache = runner.cache().stats();
    for (name, _, _) in plans {
        tot.efficiency.insert(name, reps[name] / parallel_s[name]);
    }
    finish_exact(out, Counts::default());
}

fn drain(args: &Args, out: &mut Outcome, tr: &mut Tracer, tot: &mut Totals) {
    let reqs = inputs::drain_requests(args.seed);
    let workers = nproc();
    let dir = work_dir("trace-drain");
    let t0 = Instant::now();
    let mut k = 0;
    let mut counts = Counts::default();
    let (mut jobs, mut failed, mut busy, mut overhead) = (0.0, 0.0, 0.0, 0.0);
    while k == 0 || secs(t0) < args.seconds {
        // The service itself, as users run it.
        let cpu0 = Cpu::now();
        let served = drain_once(&dir, &reqs, workers);
        match served {
            Ok((wall, summary, reports)) => {
                tot.add_cpu(Cpu::now().since(cpu0), wall);
                let work: f64 = reports
                    .iter()
                    .filter_map(|r| RunReport::from_json(r).ok())
                    .map(|r| r.wall_seconds)
                    .sum();
                jobs += summary.processed as f64;
                failed += summary.failed as f64;
                busy += work / (workers as f64 * wall);
                overhead += wall - work / workers as f64;
                tot.cache = summary.cache;
                // The same jobs one at a time, untraced then traced.
                let runner = Runner::new();
                let mut traced_runner = TracedRunner::default();
                for (req, served) in reqs.iter().zip(&reports) {
                    let a = untraced(tot, false, || call(&runner, &req.json));
                    let b = traced(tot, || traced_runner.call(tr, &req.json));
                    out.check(a.and_then(|a| {
                        if normalized(&a)? != normalized(served)? {
                            return Err(format!("{}: served report differs", req.name));
                        }
                        same(&b, &a, &req.name)
                    }));
                }
                counts = traced_runner.counts;
            }
            Err(e) => out.check(Err(e)),
        }
        k += 1;
    }
    let passes = k as f64;
    tot.passes = k;
    tot.service_jobs = jobs / passes;
    tot.service_failed = failed / passes;
    tot.busy_frac = busy / passes;
    tot.overhead_s = overhead / passes;
    finish_exact(out, counts);
}

/// Process counters over a measurement window.
fn proc_metrics(out: &mut Outcome, cpu: Cpu, wall: f64) {
    out.metric("proc.user_cpu_s", cpu.user_s, "s", 1);
    out.metric("proc.sys_cpu_s", cpu.sys_s, "s", 1);
    out.metric("proc.cpu_util", (cpu.user_s + cpu.sys_s) / wall, "cores", 1);
}

/// Mean self time per call of `layer` in `scale` units (0 when the
/// workload never calls it).
fn per_call(
    self_times: &BTreeMap<&'static str, (f64, u64)>,
    layer: &str,
    scale: f64,
) -> (f64, usize) {
    self_times
        .get(layer)
        .map_or((0.0, 0), |&(s, n)| (scale * s / n as f64, n as usize))
}

pub fn run(args: &Args, out: &mut Outcome, refs: &mut Reference) -> Result<(), String> {
    // Half the time: the untraced run at both thread counts, for the
    // default-thread numbers the end-to-end metrics leave out. The other
    // half: the traced decomposition.
    let half = Args {
        workload: args.workload.clone(),
        seconds: args.seconds / 2.0,
        ..*args
    };
    let samples = match half.workload.as_str() {
        "mission" => workloads::mission(&half, out, refs),
        "sweep" => workloads::sweep(&half, out, refs),
        "stochastic" => workloads::stochastic(&half, out, refs),
        "drain" => workloads::drain(&half, out),
        other => return Err(format!("unknown workload `{other}`")),
    };
    samples.report_threads(out);
    let mut tr = Tracer::new();
    let mut tot = Totals::default();
    match half.workload.as_str() {
        "mission" => mission(&half, out, &mut tr, &mut tot),
        "sweep" => sweep(&half, out, &mut tr, &mut tot),
        "stochastic" => stochastic(&half, out, &mut tr, &mut tot),
        _ => drain(&half, out, &mut tr, &mut tot),
    }
    let st = tr.self_times();
    let layers: [(&str, &str, f64, &'static str); 17] = [
        ("engine.decode_ms", "engine.decode", 1e3, "ms"),
        ("engine.encode_ms", "engine.encode", 1e3, "ms"),
        ("model.build_ms", "model.build", 1e3, "ms"),
        ("scenario.solve_s", "scenario.solve", 1.0, "s"),
        ("clustered.solve_s", "clustered.solve", 1.0, "s"),
        ("reach.explore_s", "reach.explore", 1.0, "s"),
        ("ctmc.pattern_s", "ctmc.pattern", 1.0, "s"),
        ("ctmc.reweight_ms", "ctmc.reweight", 1e3, "ms"),
        ("ctmc.refresh_ms", "ctmc.refresh", 1e3, "ms"),
        ("ctmc.absorb_ms", "ctmc.absorb", 1e3, "ms"),
        ("rewards.ms", "rewards", 1e3, "ms"),
        ("transient.sweep_s", "transient", 1.0, "s"),
        ("replicate.plan_s", "replicate.plan", 1.0, "s"),
        ("spnsim.rep_us", "spnsim.rep", 1e6, "us"),
        ("des.rep_us", "des.rep", 1e6, "us"),
        ("mobility.rep_ms", "mobility.rep", 1e3, "ms"),
        ("paired.rep_us", "paired.rep", 1e6, "us"),
    ];
    for (name, layer, scale, unit) in layers {
        let (v, n) = per_call(&st, layer, scale);
        out.metric(name, v, unit, n);
    }
    // Kernel rates, computed from the matvec count and the block's nnz.
    let matvecs = out.value("transient.matvecs");
    let nnz = out.value("transient.nnz");
    let nt = out.value("transient.states");
    let (sweep_s, _) = per_call(&st, "transient", 1.0);
    let gfma = if sweep_s > 0.0 {
        matvecs * nnz / sweep_s / 1e9
    } else {
        0.0
    };
    out.metric("transient.gfma_per_s_computed", gfma, "GFMA/s", 1);
    // CSR values and column indices, plus x read, y written and row
    // pointers per transient row.
    out.metric(
        "transient.bytes_per_matvec_computed",
        nnz * 12.0 + nt * 20.0,
        "B",
        1,
    );
    let c = tot.cache;
    out.metric("cache.hits", c.hits as f64, "count", 1);
    out.metric("cache.misses", c.misses as f64, "count", 1);
    out.metric("cache.bypasses", c.bypasses as f64, "count", 1);
    out.metric("cache.evictions", c.evictions as f64, "count", 1);
    out.metric("service.jobs", tot.service_jobs, "count", tot.passes);
    out.metric("service.failed", tot.service_failed, "count", tot.passes);
    out.metric("service.busy_frac", tot.busy_frac, "ratio", tot.passes);
    out.metric("service.overhead_s", tot.overhead_s, "s", tot.passes);
    for (name, rep_layer, metric) in [
        ("spnsim", "spnsim.rep", "replicate.efficiency.spnsim"),
        ("des", "des.rep", "replicate.efficiency.des"),
        ("mobility", "mobility.rep", "replicate.efficiency.mobility"),
    ] {
        let (rep_s, _) = per_call(&st, rep_layer, 1.0);
        let eff = match tot.efficiency.get(name) {
            Some(rate) if rep_s > 0.0 => rate * rep_s / nproc() as f64,
            _ => 0.0,
        };
        out.metric(metric, eff, "ratio", tot.passes);
    }
    let cpu = tot.cpu.unwrap_or(Cpu {
        user_s: 0.0,
        sys_s: 0.0,
    });
    proc_metrics(out, cpu, tot.cpu_wall.max(f64::MIN_POSITIVE));
    let (unattributed, _) = per_call(&st, "op", 1.0);
    let ops = st.get("op").map_or(0, |&(_, n)| n as usize);
    out.metric("trace.e2e_s", tot.untraced_s, "s", tot.passes);
    out.metric("trace.unattributed_s", unattributed * ops as f64, "s", ops);
    out.metric(
        "trace.overhead_s",
        tot.traced_s - tot.untraced_s,
        "s",
        tot.passes,
    );
    let span_file = work_dir("trace").with_extension("jsonl");
    tr.write(&span_file)?;
    println!("spans written to {}", span_file.display());
    Ok(())
}
