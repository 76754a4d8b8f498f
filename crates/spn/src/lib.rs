//! A stochastic Petri net (SPN) engine.
//!
//! This crate reimplements, from scratch, the modelling machinery the paper
//! used (an SPNP-style tool): extended stochastic Petri nets with
//! marking-dependent exponential rates, guards, inhibitor arcs, immediate
//! transitions, and general marking-transform effects; reachability-graph
//! generation with vanishing-marking elimination; extraction of the
//! underlying continuous-time Markov chain (CTMC); and the solvers needed by
//! the evaluation:
//!
//! * **mean time to absorption** (the paper's MTTSF) via the sparse linear
//!   system over expected sojourn times,
//! * **expected accumulated reward until absorption** (the paper's Ĉtotal
//!   numerator) for arbitrary rate rewards,
//! * **transient analysis** by uniformization (Jensen's method) with
//!   Fox–Glynn Poisson weights,
//! * **steady-state analysis** for ergodic nets, and
//! * a **Monte-Carlo token-game simulator** with parallel replications for
//!   cross-validation of the analytic results, and
//! * **structural analysis** (incidence matrix, Farkas P/T-invariants) for
//!   state-space-free conservation and boundedness arguments.
//!
//! # Example
//!
//! A two-place net where tokens drain from `up` to `down` (an absorbing
//! failure state) at a marking-dependent rate:
//!
//! ```
//! use spn::model::{SpnBuilder, TransitionDef};
//!
//! let mut b = SpnBuilder::new();
//! let up = b.add_place("up", 3);
//! let down = b.add_place("down", 0);
//! b.add_transition(
//!     TransitionDef::timed("fail", move |m| 0.1 * m.tokens(up) as f64)
//!         .input(up, 1)
//!         .output(down, 1),
//! );
//! let net = b.build().unwrap();
//! let graph = spn::reach::explore(&net, &Default::default()).unwrap();
//! let ctmc = spn::ctmc::Ctmc::from_graph(&graph).unwrap();
//! // All states eventually reach the empty-`up` marking.
//! let mtta = ctmc.mean_time_to_absorption().unwrap();
//! // Expected time = 1/0.3 + 1/0.2 + 1/0.1 (sum of stage means)
//! assert!((mtta.mtta - (1.0/0.3 + 1.0/0.2 + 1.0/0.1)).abs() < 1e-9);
//! ```

pub mod ctmc;
pub mod dot;
pub mod error;
pub mod model;
pub mod reach;
pub mod reward;
pub mod sim;
pub mod structural;
pub mod transient;

pub use ctmc::{AbsorptionAnalysis, Ctmc, TransientOptions};
pub use error::SpnError;
pub use model::{Marking, PlaceId, Spn, SpnBuilder, TransitionDef, TransitionId};
pub use reach::{explore, ExploreOptions, ReachabilityGraph};
pub use reward::{ImpulseReward, RateReward, RewardSet};
pub use sim::{ReplicationStats, SimOptions, SimOutcome, Simulator};
pub use structural::{analyze as structural_analyze, StructuralReport};
pub use transient::{SweepPoint, TransientEngine, TransientStats};
