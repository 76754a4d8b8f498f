//! Numerical substrate for the GCS-IDS reproduction.
//!
//! This crate provides the mathematical foundation shared by the stochastic
//! Petri net engine, the MANET simulator, and the analytic voting-IDS
//! formulas:
//!
//! * [`special`] — log-gamma, log-factorials, log-binomials, the error
//!   function and the standard normal quantile.
//! * [`dist`] — numerically stable binomial, hypergeometric and Poisson
//!   distributions (pmf/cdf/sf in linear and log space) plus small-n
//!   samplers.
//! * [`foxglynn`] — Fox–Glynn-style Poisson weight computation used by the
//!   uniformization transient solver.
//! * [`stats`] — Welford accumulators, confidence intervals and Kahan
//!   summation.
//! * [`sparse`] — compressed sparse row matrices.
//! * [`linsolve`] — Gauss–Seidel, a dense-LU fallback and power iteration.
//! * [`rng`] — SplitMix64 seed derivation for deterministic parallel streams.
//! * [`replicate`] — the shared Monte-Carlo replication engine: a
//!   [`Replicate`] task, streaming mergeable [`OutcomeSink`]s, and a
//!   batch-parallel executor driving fixed or adaptive [`SamplingPlan`]s
//!   with results bit-identical across batch sizes and thread partitions.
//! * [`exec`] — the one parallel executor, an order-preserving thread map.
//!
//! Everything here is deterministic and dependency-light so the higher
//! layers can be exhaustively property-tested.

// Indexed loops mirror the textbook formulations of the numeric kernels,
// and the Lanczos/rational-approximation constants are quoted at full
// published precision.
#![allow(clippy::needless_range_loop, clippy::excessive_precision)]

pub mod dist;
pub mod exec;
pub mod foxglynn;
pub mod linsolve;
pub mod replicate;
pub mod rng;
pub mod sparse;
pub mod special;
pub mod stats;

pub use dist::{Binomial, Hypergeometric, Poisson};
pub use replicate::{run_plan, Completed, OutcomeSink, Replicate, SamplingPlan};
pub use sparse::Csr;
pub use stats::{ConfidenceInterval, KahanSum, SurvivalAccumulator, Welford};
