//! Unified experiment engine for the Cho–Chen GCS/IDS model.
//!
//! The repository evaluates the model four different ways — exact CTMC
//! absorption analysis, SPN token-game simulation, protocol DES, and
//! mobility-integrated DES. This crate puts them behind one contract:
//!
//! * [`ScenarioSpec`] — a serializable description of *what* to evaluate
//!   (system, attacker, mobility, detection) and *how* (backend selection,
//!   replication controls, including an adaptive [`SamplingPlan`] that
//!   samples until the MTTSF confidence interval meets a relative
//!   precision target). `to_json` / `from_json` round-trip losslessly.
//! * [`Backend`] — `fn run(&self, spec, budget) -> Result<RunReport, _>`,
//!   served for all four evaluators by two implementations: the exact
//!   solver and one stochastic backend with one task builder and one sink
//!   ([`backend_for`] picks one by [`BackendKind`]).
//! * [`RunReport`] — the common output: MTTSF and Ĉtotal (with confidence
//!   intervals where stochastic), the failure-mode split, cost components
//!   and state/edge counts where exact, and — when the spec carries a
//!   mission-time grid — the survival curve `P[no security failure by t]`
//!   (uniformization on the exact backend, Kaplan–Meier-style estimates on
//!   the stochastic ones).
//! * [`Runner`] / [`ScenarioGrid`] — batched execution with a cartesian
//!   grid expander. Exact scenarios in a batch share one state-space
//!   exploration per structural family and solve against re-weighted
//!   cached graphs (**explore once, solve many**), which makes rate-only
//!   sweeps (TIDS, λc, detection shape, m) several-fold faster than
//!   per-point exploration.
//! * [`crossval`] — the backends check each other: one scenario runs on the
//!   exact backend and every applicable stochastic backend, and the harness
//!   reports per-metric/per-grid-point agreement (exact value inside the
//!   stochastic CI, with explicit modeling tolerances). The `runner` binary
//!   drives it over a directory of on-disk spec files.
//!
//! # Example
//!
//! ```
//! use engine::{BackendKind, Runner, ScenarioGrid, ScenarioSpec};
//!
//! let mut base = ScenarioSpec::paper_default(BackendKind::Exact);
//! base.system.node_count = 12; // small so the doctest stays fast
//! base.system.vote_participants = 3;
//! let specs = ScenarioGrid::new(base).tids(&[60.0, 300.0]).expand();
//! let reports = Runner::new().run_batch(&specs).unwrap();
//! assert_eq!(reports.len(), 2);
//! assert!(reports.iter().all(|r| r.mttsf.value > 0.0));
//! ```

pub mod backend;
pub mod crossval;
pub mod error;
pub mod json;
pub mod paired;
pub mod report;
pub mod runner;
pub mod service;
pub mod spec;

pub use backend::{backend_for, Backend, BatchProgress, ExactBackend, RunBudget};
pub use crossval::{
    cross_validate_dir, CrossValOptions, CrossValReport, MetricCheck, SpecCrossValidation,
};
pub use error::EngineError;
pub use gcsids::config::ClusterTopology;
pub use paired::{compare, ComparisonReport, DeltaEstimate};
pub use report::{
    survival_estimates_streaming, CacheOutcome, DetectionInfo, Estimate, FailureSplit, RunReport,
    TemplateCacheInfo, TransientInfo,
};
pub use runner::{Runner, ScenarioGrid};
pub use scenario::{AttackerStrategy, ResponsePolicy, ScenarioConfig};
pub use service::{serve, CacheBudget, CacheStats, ServiceConfig, ServiceSummary, TemplateCache};
pub use spec::{BackendKind, MobilityOptions, SamplingPlan, ScenarioSpec, StochasticOptions};
