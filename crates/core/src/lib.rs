//! `gcsids` — the Cho–Chen (IPPS 2009) model of voting-based intrusion
//! detection in mobile group communication systems.
//!
//! This crate assembles the substrates ([`spn`], [`manet`], [`gcs`],
//! [`ids`]) into the paper's analytical model and its validation
//! machinery:
//!
//! * [`config`] — every model parameter with the paper's §5 defaults;
//! * [`model`] — programmatic construction of the Figure-1 SPN (places
//!   `Tm`, `UCm`, `DCm`, `GF`, `NG`; transitions `T_CP`, `T_IDS`, `T_FA`,
//!   `T_DRQ`, `T_PAR`, `T_MER`, `T_RK`; absorbing conditions C1/C2) from
//!   one block builder, with scenario and clustered variants;
//! * [`scenario_model`] — exact evaluation of the adversary and response
//!   scenario nets, with detection-quality totals;
//! * [`cost`] — the six-component communication-cost model (hop·bits/s);
//! * [`metrics`] — MTTSF and Ĉtotal evaluation via the CTMC solvers;
//! * [`clustered`] — symmetry-lumped and hierarchically composed exact
//!   evaluation of K-of-C clustered deployments (100+-node systems);
//! * [`sweep`] — TIDS / m / detection-shape parameter sweeps and optimal
//!   interval identification (Figures 2–5);
//! * [`pareto`] — design-space enumeration and the MTTSF-vs-cost Pareto
//!   frontier (the paper's closing design-selection recommendation);
//! * [`des`] — the protocol-level discrete-event simulation (actual
//!   votes, actual GDH rekeys, sampled host-IDS errors) that
//!   cross-validates the analytic model: one protocol core with a
//!   birth–death group driver;
//! * [`des_mobility`] — the second driver of that core, where groups are
//!   the live connected components of a random-waypoint network rather
//!   than a calibrated birth–death process.
//!
//! # Quickstart
//!
//! ```
//! use gcsids::config::SystemConfig;
//! use gcsids::metrics::evaluate;
//!
//! // A small system (evaluation is exact, so small N keeps doctests fast).
//! let mut cfg = SystemConfig::paper_default();
//! cfg.node_count = 12;
//! cfg.vote_participants = 3;
//! let eval = evaluate(&cfg).unwrap();
//! assert!(eval.mttsf_seconds > 0.0);
//! assert!(eval.c_total_hop_bits_per_sec > 0.0);
//! ```

pub mod clustered;
pub mod config;
pub mod cost;
pub mod des;
pub mod des_mobility;
mod memo;
pub mod metrics;
pub mod model;
pub mod pareto;
pub mod scenario_model;
pub mod sweep;

pub use clustered::{
    evaluate_clustered, evaluate_clustered_with_survival, ClusteredEvaluation, ClusteredPath,
    LumpingStats,
};
pub use config::{ClusterTopology, SystemConfig};
pub use cost::CostBreakdown;
pub use des::{run_des_sampled, DesConfig, DesOutcome, FailureCause, SampledDesStats};
pub use des_mobility::{run_mobility_des, MobilityDesConfig};
pub use metrics::{evaluate, Evaluation};
pub use model::{
    build_clustered_model, build_scenario_model, clustered_canonicalizer, ClusteredModel,
};
pub use pareto::{design_space, pareto_front, DesignPoint};
pub use scenario_model::{
    evaluate_scenario, evaluate_scenario_graph, scenario_system, DetectionTotals,
};
pub use sweep::{optimal_tids_for_mttsf, sweep_tids, SweepPoint, SweepSeries};
